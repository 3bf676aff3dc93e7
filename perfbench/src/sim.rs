//! The simulator phase: the paper's Table 1 default point with an
//! acyclic placement (b = 0) under DAG(WT), run with the discrete-event
//! `Engine` over several program seeds.
//!
//! Not BackEdge at b = 0.2: there some seeds fall into abort storms
//! (93–99.7% of attempts abort; one run took 77 s of wall time), so no
//! fixed-length run could carry it, and its figures swing by orders of
//! magnitude from seed to seed.

use std::time::Instant;

use repl_copygraph::{BackEdgeSet, CopyGraph, DataPlacement, PropagationTree};
use repl_core::config::{ProtocolKind, SimParams};
use repl_core::engine::Engine;
use repl_core::scenario::generate_programs;
use repl_types::{Op, SiteId};
use repl_workload::{build_placement, TableOneParams};

use crate::sys;

/// Engine runs per benchmark run. Fixed, so the §5.3 figures (which
/// depend only on the seeds) do not change when the simulator gets
/// faster.
pub const SEEDS: u64 = 12;
/// The placement is part of the workload, like the live placement; only
/// the transaction programs come from `--seed`. Placements drawn with
/// other seeds move the mean propagation delay by 3x.
pub const PLACEMENT_SEED: u64 = 42;

/// One engine run.
#[derive(Debug)]
pub struct SimRun {
    pub seed: u64,
    /// Placement and program generation, seconds.
    pub gen_s: f64,
    /// `Engine::new`, seconds.
    pub new_s: f64,
    /// `Engine::run`, seconds.
    pub run_s: f64,
    /// Share of CPU time the hypervisor stole during `Engine::run`.
    pub steal: f64,
    pub commits: u64,
    pub expected_commits: u64,
    pub aborts: u64,
    pub messages: u64,
    pub stalled: bool,
    pub serializable: bool,
    pub thr_per_site: f64,
    pub abort_pct: f64,
    pub resp_ms: f64,
    pub recency_ms: f64,
    /// With tracing: a separate `History::check_serializability` over
    /// the run's history, seconds (`Engine::run` performs the same check
    /// once), and the inputs, kept for the layer replay.
    pub check_1sr_s: Option<f64>,
    pub history_txns: usize,
    pub placement: DataPlacement,
    pub programs: Option<Vec<Vec<Vec<Vec<Op>>>>>,
}

impl SimRun {
    /// `!stalled`, serializable, and every generated transaction committed.
    pub fn failed_checks(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.stalled {
            out.push(format!("sim seed {}: stalled", self.seed));
        }
        if !self.serializable {
            out.push(format!("sim seed {}: history not serializable", self.seed));
        }
        if self.commits != self.expected_commits {
            out.push(format!(
                "sim seed {}: {} commits, {} programs generated",
                self.seed, self.commits, self.expected_commits
            ));
        }
        out
    }

    /// Simulated commits per wall-clock second of `Engine::run`.
    pub fn txn_per_s(&self) -> f64 {
        self.commits as f64 / self.run_s
    }
}

/// Table 1 defaults but b = 0: 9 sites, 200 items, r = 0.2, s = 0.5,
/// 3 threads per site, 1000 transactions per thread.
pub fn table() -> TableOneParams {
    TableOneParams { backedge_prob: 0.0, ..TableOneParams::default() }
}

/// Program seed `i` of benchmark seed `seed`.
pub fn engine_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(SEEDS).wrapping_add(i)
}

/// Build and run one engine on programs drawn from `seed`, the way the
/// experiment runner does.
pub fn run_one(seed: u64, trace: bool) -> SimRun {
    let table = table();
    let params =
        table.sim_params(&SimParams { protocol: ProtocolKind::DagWt, ..SimParams::default() });
    let t0 = Instant::now();
    let placement = build_placement(&table, PLACEMENT_SEED);
    let programs = generate_programs(
        &placement,
        &table.mix(),
        params.threads_per_site,
        params.txns_per_thread,
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
    );
    let t1 = Instant::now();
    let expected_commits = programs.iter().flatten().map(|t| t.len() as u64).sum();
    let kept = trace.then(|| programs.clone());
    let mut engine = Engine::new(&placement, &params, programs).expect("Table 1 placements build");
    let ticks = sys::cpu_ticks();
    let t2 = Instant::now();
    let report = engine.run();
    let t3 = Instant::now();
    let steal = sys::steal_share(ticks, sys::cpu_ticks());
    let check_1sr_s = trace.then(|| {
        let ok = engine.history().check_serializability().is_ok();
        std::hint::black_box(ok);
        t3.elapsed().as_secs_f64()
    });
    let s = &report.summary;
    SimRun {
        seed,
        gen_s: (t1 - t0).as_secs_f64(),
        new_s: (t2 - t1).as_secs_f64(),
        run_s: (t3 - t2).as_secs_f64(),
        steal,
        commits: s.commits,
        expected_commits,
        aborts: s.aborts,
        messages: s.messages,
        stalled: report.stalled,
        serializable: report.serializable,
        thr_per_site: s.throughput_per_site,
        abort_pct: s.abort_rate_pct,
        resp_ms: s.mean_response_ms,
        recency_ms: s.mean_propagation_ms,
        check_1sr_s,
        history_txns: engine.history().committed_count(),
        placement,
        programs: kept,
    }
}

/// Seconds to build the copy graph, the general propagation tree and
/// the greedy backedge set of `placement` (the tree over the graph with
/// its backedges removed when the graph is cyclic).
pub fn copygraph_build_s(placement: &DataPlacement) -> f64 {
    let t0 = Instant::now();
    let graph = CopyGraph::from_placement(placement);
    let fas = BackEdgeSet::greedy_fas(&graph);
    let tree = PropagationTree::general(&fas.dag_of(&graph));
    let elapsed = t0.elapsed().as_secs_f64();
    std::hint::black_box((tree.is_ok(), fas.len()));
    elapsed
}

/// The sites' transactions interleaved round-robin over every worker
/// thread, in program order within each thread: the stream the layer
/// replay feeds through storage and the protocol machines.
pub fn replay_stream(programs: &[Vec<Vec<Vec<Op>>>]) -> Vec<(SiteId, Vec<Op>)> {
    let mut out = Vec::new();
    let longest = programs.iter().flatten().map(Vec::len).max().unwrap_or(0);
    for j in 0..longest {
        for (site, threads) in programs.iter().enumerate() {
            for thread in threads {
                if let Some(ops) = thread.get(j) {
                    out.push((SiteId(site as u32), ops.clone()));
                }
            }
        }
    }
    out
}
