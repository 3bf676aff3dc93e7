//! Golden pin of what the simulator computes, and run-to-run
//! repeatability of the waits-for deadlock detector.
//!
//! A scaled-down copy of the benchmark's simulator point: Table 1 with
//! b = 0 under DAG(WT) on the placement drawn with seed 42, 3 threads per
//! site and 100 transactions per thread, on two program seeds. The exact
//! commit, abort and message counts and the §5.3 figures are pinned, so a
//! change that only claims to make the simulator faster cannot change what
//! it simulates. The expected values were recorded before the storage and
//! history hot paths moved to the deterministic hasher.

use repl_core::config::{DeadlockMode, ProtocolKind, SimParams};
use repl_core::engine::Engine;
use repl_core::scenario::generate_programs;
use repl_workload::{build_placement, TableOneParams};

/// One pinned run: `(commits, aborts, messages, throughput_per_site,
/// abort_rate_pct, mean_response_ms, mean_propagation_ms)`.
type Golden = (u64, u64, u64, f64, f64, f64, f64);

/// Run the point on program seed `i`, derived the way the benchmark
/// derives its program seeds.
fn run(i: u64) -> repl_core::RunReport {
    run_with(i, DeadlockMode::Timeout)
}

fn run_with(i: u64, deadlock_mode: DeadlockMode) -> repl_core::RunReport {
    let table =
        TableOneParams { backedge_prob: 0.0, txns_per_thread: 100, ..TableOneParams::default() };
    let base = SimParams { protocol: ProtocolKind::DagWt, deadlock_mode, ..SimParams::default() };
    let params = table.sim_params(&base);
    let placement = build_placement(&table, 42);
    let programs = generate_programs(
        &placement,
        &table.mix(),
        params.threads_per_site,
        params.txns_per_thread,
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
    );
    let mut engine = Engine::new(&placement, &params, programs).expect("Table 1 placements build");
    engine.run()
}

fn assert_golden(i: u64, expected: Golden) {
    let report = run(i);
    assert!(!report.stalled && report.serializable, "seed {i}: {report:?}");
    let s = &report.summary;
    let got = (
        s.commits,
        s.aborts,
        s.messages,
        s.throughput_per_site,
        s.abort_rate_pct,
        s.mean_response_ms,
        s.mean_propagation_ms,
    );
    assert_eq!(got, expected, "seed {i}: the simulation changed");
}

#[test]
fn table_one_dagwt_seed_0_is_pinned() {
    assert_golden(
        0,
        (
            2700,
            609,
            1917,
            65.89675904912338,
            18.404351767905712,
            44.97243148148148,
            67.95643220338984,
        ),
    );
}

#[test]
fn table_one_dagwt_seed_1_is_pinned() {
    assert_golden(
        1,
        (
            2700,
            559,
            1865,
            66.49896289815955,
            17.152500767106474,
            44.79411555555555,
            82.35169396551724,
        ),
    );
}

#[test]
fn waits_for_detection_repeats_on_one_seed() {
    // Victims come from the waits-for graph; two runs on one seed must
    // pick the same ones, so every figure of the run repeats exactly.
    let first = run_with(0, DeadlockMode::WaitsFor);
    assert!(!first.stalled && first.serializable);
    assert!(first.summary.aborts > 0, "no deadlock was detected: {:?}", first.summary);
    let second = run_with(0, DeadlockMode::WaitsFor);
    assert_eq!(first.summary, second.summary);
}
