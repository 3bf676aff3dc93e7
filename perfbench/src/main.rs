//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload live_read|live_write --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run has two phases.
//!
//! * **Simulator** (`sim_paper`): the paper's Table 1 default point
//!   with acyclic placement (b = 0) under DAG(WT), run by the
//!   discrete-event `Engine` on [`sim::SEEDS`] program seeds drawn from
//!   `--seed`. It drives the calendar, lock manager, history and
//!   metrics, and no network.
//! * **Live**: a three-site `repld --reactor epoll` cluster (Example 1.1
//!   scaled to 10 000 items, DAG(WT), default knobs) driven open-loop by
//!   one generator thread on two connections, one to s0 and one to the
//!   leaf s2. `live_read` sends 90% read-only transactions, so the
//!   client path does the work; `live_write` sends only updates, so
//!   propagation through the relay s1 to the leaf does.
//!
//! Both phases run on both workloads so that every run reports every
//! metric. With `--trace 0` the last line of stdout carries the
//! end-to-end metrics; with `--trace 1`, the per-layer ones, taken from
//! spans around the calls this benchmark makes into each crate and from
//! a serial layer replay of the same seeded transaction streams. The
//! line before it is a record of the run's settings. Output checks — one-copy
//! serializability, convergence of every replica with its primary, and
//! commit counts — make the command exit 1 when one fails.

mod ladder;
mod live;
mod replay;
mod rng;
mod sim;
mod stats;
mod sys;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use repl_analysis::history::History;
use repl_net::decode_cells;
use repl_types::SiteId;

use stats::{mean, median, percentile, sorted};
use trace::Spans;

/// Samples per window when taking p99s: ten beyond the 99th percentile.
const WINDOW: usize = 1000;
/// Transactions the check cluster runs; its history must fit one client
/// reply frame, which `repld` caps at 1 MiB.
const CHECK_TXNS: u64 = 8000;
/// Transactions of each live stream the layer replay feeds through.
const LIVE_REPLAY_TXNS: usize = 10_000;
/// Transactions of the simulator's stream the layer replay feeds through.
const SIM_REPLAY_TXNS: usize = 9000;
/// Clusters that each run a share of the reference load.
const MEASURE_CLUSTERS: usize = 10;
/// Share of `--seconds` spent at the reference rate, over all clusters.
const REFERENCE_SHARE: f64 = 0.5;
/// Share of `--seconds` one ladder step lasts.
const STEP_SHARE: f64 = 0.025;
/// The measurement clusters that climb the ladder after their
/// reference load; `max_txn_per_s` is the median of their climbs.
const LADDER_CLUSTERS: [usize; 3] = [3, 6, 9];
/// Load at the reference rate before each measurement, so connections
/// and caches are warm.
const WARMUP: Duration = Duration::from_millis(250);

/// A live workload's fixed rates.
struct Workload {
    name: &'static str,
    mix: live::Mix,
    /// Reference rate for the latency and recency figures, txn/s.
    reference: f64,
    /// The ladder's lowest rung, txn/s; rungs rise by 2^(1/8).
    ladder_base: f64,
    rungs: usize,
}

/// The p99 a ladder step must stay under, ms: generous, so that a step
/// fails it only under sustained queueing.
const LATENCY_LIMIT_MS: f64 = 50.0;

const WORKLOADS: [Workload; 2] = [
    // Well under a quarter of capacity: at 30 000 txn/s the latency
    // figures' run-to-run spread was 1.2 to 2 times what it is at 10 000.
    Workload {
        name: "live_read",
        mix: live::Mix::Read,
        reference: 10_000.0,
        ladder_base: 60_000.0,
        rungs: 18,
    },
    // About a quarter of capacity.
    Workload {
        name: "live_write",
        mix: live::Mix::Write,
        reference: 10_000.0,
        ladder_base: 20_000.0,
        rungs: 14,
    },
];

impl Workload {
    fn ladder(&self) -> Vec<f64> {
        (0..self.rungs).map(|k| (self.ladder_base * 2f64.powf(k as f64 / 8.0)).round()).collect()
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload live_read|live_write --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds must be an integer")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Named metrics with units, in insertion-independent order.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values (a metric that could not be
/// measured) become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON array of numbers.
fn json_list(values: &[f64]) -> String {
    format!("[{}]", values.iter().map(|v| num(*v)).collect::<Vec<_>>().join(", "))
}

/// Operation and check tallies of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Failed output checks, described.
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics, record)) => {
            for f in &tally.failures {
                eprintln!("perfbench: check failed: {f}");
            }
            println!("{record}");
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.correct(),
                tally.attempted,
                tally.failed,
                metrics.json()
            );
            std::process::exit(exit_code(&tally));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// 0 only when every output check passed and no operation failed.
fn exit_code(tally: &Tally) -> i32 {
    if tally.correct() {
        0
    } else {
        1
    }
}

fn run(args: &Args) -> io::Result<(Tally, Metrics, String)> {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut rec: BTreeMap<&str, String> = BTreeMap::new();
    let mut spans = Spans::new();
    let w = args.workload;

    let placement = live::placement();
    let mut setups = Vec::new();
    let mut launches = Vec::new();

    // The simulator runs between cluster launches, one engine run at a
    // time, so its wall-clock rate samples the whole run rather than
    // one moment of a host whose other load comes and goes. Each run
    // gets a thread of its own: after a second of full-speed work the
    // scheduler would otherwise keep the generator thread waiting.
    let mut sims: Vec<sim::SimRun> = Vec::new();
    for _ in MEASURE_CLUSTERS as u64..sim::SEEDS {
        run_sim(&mut sims, args)?;
    }
    // Before any live work, the process's peak is the simulator's.
    let sim_rss_mb = sys::peak_rss_mb("self").unwrap_or(f64::NAN);

    // Check cluster: a short run whose whole history is checked for
    // one-copy serializability.
    let mut c = live::launch(w.mix, args.seed ^ 0xC4EC)?;
    setups.push(c.setup_s);
    launches.push(c.launch_s);
    let r = c.step(w.reference, CHECK_TXNS, false, None)?;
    tally.attempted += r.sent;
    tally.failed += r.failed();
    c.cluster.quiesce().map_err(|e| io::Error::other(format!("quiesce: {e:?}")))?;
    check_history(&c, &mut tally)?;
    check_convergence(&c, &placement, &mut tally)?;
    check_commits(&c, &mut tally)?;
    c.cluster.shutdown();

    // Measurement clusters: each runs a share of the reference load, so
    // a burst of other load on the host moves a few clusters' figures
    // rather than the run's. Three of them, spread over the run, then
    // climb the ladder.
    let seconds = args.seconds as f64;
    let ref_count = (w.reference * REFERENCE_SHARE * seconds / MEASURE_CLUSTERS as f64) as u64;
    let rungs = w.ladder();
    let step_s = seconds * STEP_SHARE;
    let mut refs: Vec<live::StepResult> = Vec::new();
    // Share of CPU time the hypervisor stole during each reference load.
    let mut ref_steal: Vec<f64> = Vec::new();
    // Each climb, with the failed requests of the step that stopped it.
    let mut climbs: Vec<(ladder::Climb, Option<u64>)> = Vec::new();
    let (mut quiesces, mut rsses) = (Vec::new(), Vec::new());
    let mut peak_backlog = 0i64;
    let (mut decode_errors, mut peers_down) = (0u64, 0u64);
    for i in 0..MEASURE_CLUSTERS {
        run_sim(&mut sims, args)?;
        let mut l = live::launch(w.mix, args.seed.wrapping_add(i as u64))?;
        setups.push(l.setup_s);
        launches.push(l.launch_s);
        let warm = l.step(w.reference, (w.reference * WARMUP.as_secs_f64()) as u64, false, None)?;
        let traced = args.trace && i + 1 == MEASURE_CLUSTERS;
        let ticks = sys::cpu_ticks();
        let r = l.step(w.reference, ref_count, true, traced.then_some(&mut spans))?;
        ref_steal.push(sys::steal_share(ticks, sys::cpu_ticks()));
        for s in [&warm, &r] {
            tally.attempted += s.sent;
            tally.failed += s.failed();
            peak_backlog = peak_backlog.max(s.backlog_start).max(s.backlog_end);
        }
        refs.push(r);
        let q0 = Instant::now();
        l.cluster.quiesce().map_err(|e| io::Error::other(format!("quiesce: {e:?}")))?;
        quiesces.push(q0.elapsed().as_secs_f64() * 1e3);
        // Peak memory after a fixed amount of work, before the ladder
        // (whose length depends on how far it climbs).
        rsses.push(sys::children_named("repld").iter().filter_map(|p| sys::peak_rss_mb(p)).sum());
        check_convergence(&l, &placement, &mut tally)?;
        check_commits(&l, &mut tally)?;
        if LADDER_CLUSTERS.contains(&i) {
            let mut last_step = None;
            let climb = ladder::climb(&rungs, LATENCY_LIMIT_MS, |rate| {
                let s = l.step(rate, (rate * step_s) as u64, false, None)?;
                let summary = ladder::StepSummary {
                    offered: rate,
                    achieved: s.achieved_rate(),
                    failed: s.failed(),
                    p99_ms: windowed(&s.latency_ms, 0.99),
                    backlog_start: s.backlog_start,
                    backlog_end: s.backlog_end,
                    owed: 2 * s.updates as i64,
                };
                peak_backlog = peak_backlog.max(s.backlog_end);
                last_step = Some(s);
                Ok::<_, io::Error>(summary)
            })?;
            // Requests of steps that held count as attempted; the step
            // that failed is the search's stopping signal, reported in
            // the record.
            for s in climb.best.map_or(&[][..], |b| &climb.steps[..=b]) {
                tally.attempted += (s.offered * step_s) as u64;
            }
            l.cluster.quiesce().map_err(|e| io::Error::other(format!("quiesce: {e:?}")))?;
            check_convergence(&l, &placement, &mut tally)?;
            check_commits(&l, &mut tally)?;
            let stop_failed = climb.stop.and(last_step).map(|s| s.failed());
            climbs.push((climb, stop_failed));
        }
        for s in 0..3 {
            let st = l.cluster.stats(SiteId(s))?;
            decode_errors += st.decode_errors;
            peers_down += u64::from(st.peers_down);
        }
        l.cluster.shutdown();
    }
    let rss_mb = med(&rsses);
    m.put("rss_mb", rss_mb, "MB");
    let capacities: Vec<f64> =
        climbs.iter().map(|(c, _)| c.best.map_or(0.0, |b| c.steps[b].achieved)).collect();
    m.put("max_txn_per_s", med(&capacities), "1/s");

    // Each figure is the median over the quieter half of the clusters
    // of the cluster's own (windowed) figure: other guests on the host
    // come in bursts of seconds that steal up to a fifth of the CPU and
    // triple the tail latencies of whichever clusters they hit.
    let per_cluster = |f: fn(&live::StepResult) -> &[f64], q| -> Vec<f64> {
        refs.iter().map(|r| windowed(f(r), q)).collect()
    };
    let figures = [
        ("txn_p50_ms", per_cluster(latency_of, 0.5)),
        ("txn_p99_ms", per_cluster(latency_of, 0.99)),
        ("recency_p50_ms", per_cluster(recency_of, 0.5)),
        ("recency_p99_ms", per_cluster(recency_of, 0.99)),
    ];
    for (name, values) in &figures {
        m.put(name, quiet_median(values, &ref_steal), "ms");
    }

    // Simulator figures and checks.
    for s in &sims {
        tally.attempted += 1;
        let failed = s.failed_checks();
        if !failed.is_empty() {
            tally.failed += 1;
            tally.failures.extend(failed);
        }
    }
    let per = |f: &dyn Fn(&sim::SimRun) -> f64| sims.iter().map(f).collect::<Vec<f64>>();
    // Set-up is the cluster's, launch to first commit, plus the
    // simulator's: placement, programs and `Engine::new`.
    m.put("setup_s", med(&setups) + med(&per(&|s| s.gen_s + s.new_s)), "s");
    m.put("sim_txn_per_s", quiet_median(&per(&|s| s.txn_per_s()), &per(&|s| s.steal)), "1/s");
    m.put("sim_thr_per_site", med(&per(&|s| s.thr_per_site)), "1/s");
    m.put("sim_abort_pct", med(&per(&|s| s.abort_pct)), "%");
    m.put("sim_resp_ms", med(&per(&|s| s.resp_ms)), "ms");
    m.put("sim_recency_ms", med(&per(&|s| s.recency_ms)), "ms");
    m.put("sim_rss_mb", sim_rss_mb, "MB");
    rec.insert(
        "sim",
        format!(
            "{{\"config\": \"Table 1 default but b=0: 9 sites, 200 items, r=0.2, s=0.5, b=0, \
             3 threads/site, 1000 txns/thread\", \"protocol\": \"DAG(WT)\", \"placement_seed\": {}, \
             \"program_seeds\": {}, \"commits\": {}, \"txn_per_s\": {}, \"steal_share\": {}}}",
            sim::PLACEMENT_SEED,
            json_list(&per(&|s| s.seed as f64)),
            json_list(&per(&|s| s.commits as f64)),
            json_list(&per(&|s| s.txn_per_s())),
            json_list(&per(&|s| s.steal))
        ),
    );

    // The record of the run.
    let climb_json: Vec<String> = climbs
        .iter()
        .map(|(c, stop_failed)| {
            let steps: Vec<String> = c
                .steps
                .iter()
                .map(|s| {
                    format!(
                        "{{\"offered\": {}, \"achieved\": {:.1}, \"failed\": {}, \"p99_ms\": {:.3}, \
                         \"backlog\": [{}, {}]}}",
                        s.offered, s.achieved, s.failed, s.p99_ms, s.backlog_start, s.backlog_end
                    )
                })
                .collect();
            let stop = c.stop.map_or("null".into(), |(rate, why)| {
                let failed = stop_failed.unwrap_or(0);
                format!("{{\"offered\": {rate}, \"reason\": \"{why}\", \"failed_requests\": {failed}}}")
            });
            format!("{{\"steps\": [{}], \"stop\": {stop}}}", steps.join(", "))
        })
        .collect();
    rec.insert("workload", format!("\"{}\"", w.name));
    rec.insert("seed", args.seed.to_string());
    rec.insert("seconds", args.seconds.to_string());
    rec.insert("trace", args.trace.to_string());
    rec.insert(
        "command",
        format!(
            "\"perfbench --workload {} --seed {} --seconds {} --trace {}\"",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    );
    rec.insert(
        "placement",
        format!(
            "\"Example 1.1 scaled to {} items: even items s0 -> s1,s2; odd items s1 -> s2\"",
            live::ITEMS
        ),
    );
    rec.insert("protocol", "\"DAG(WT), chain tree s0 -> s1 -> s2, repld --reactor epoll\"".into());
    rec.insert("reference_txn_per_s", num(w.reference));
    rec.insert("ladder_txn_per_s", json_list(&rungs));
    rec.insert("latency_limit_ms", num(LATENCY_LIMIT_MS));
    rec.insert("ladder_climbs", format!("[{}]", climb_json.join(", ")));
    rec.insert("max_txn_per_s", json_list(&capacities));
    let count = |f: &dyn Fn(&live::StepResult) -> usize| refs.iter().map(f).sum::<usize>();
    rec.insert("latency_samples", count(&|r| r.latency_ms.len()).to_string());
    rec.insert("recency_samples", count(&|r| r.recency_ms.len()).to_string());
    rec.insert("window_samples", WINDOW.to_string());
    for (name, values) in &figures {
        rec.insert(name, json_list(values));
    }
    rec.insert("setup_samples_s", json_list(&setups));
    rec.insert("reference_steal_share", json_list(&ref_steal));
    rec.insert("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string());
    rec.insert("git_commit", format!("\"{}\"", git_commit()));

    if args.trace {
        // The last cluster ran traced, the others not: the difference
        // is the spans' overhead.
        let (traced, untraced) = refs.split_last().expect("measurement clusters");
        let overhead = |f: fn(&live::StepResult) -> &[f64], q| {
            let plain: Vec<f64> = untraced.iter().map(|r| windowed(f(r), q)).collect();
            num(windowed(f(traced), q) - med(&plain))
        };
        rec.insert(
            "trace_overhead",
            format!(
                "{{\"txn_p50_ms\": {}, \"txn_p99_ms\": {}, \"recency_p50_ms\": {}}}",
                overhead(latency_of, 0.5),
                overhead(latency_of, 0.99),
                overhead(recency_of, 0.5)
            ),
        );
        let layer = LiveLayer {
            traced,
            launch_ms: med(&launches) * 1e3,
            quiesce_ms: med(&quiesces),
            peak_backlog,
            rss_mb,
            decode_errors,
            peers_down,
        };
        m = layer_metrics(args, &sims, &layer, &mut spans);
        let path = spans_path(w.name, args.seed);
        match spans.write_tsv(&path) {
            Ok(()) => rec.insert("spans_file", format!("\"{}\"", path.display())),
            Err(e) => rec.insert("spans_file_error", format!("\"{e}\"")),
        };
    }

    let body: Vec<String> = rec.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    Ok((tally, m, format!("{{\"record\": {{{}}}}}", body.join(", "))))
}

/// Run the simulator on the next program seed, on a thread of its own.
fn run_sim(sims: &mut Vec<sim::SimRun>, args: &Args) -> io::Result<()> {
    let (seed, trace) = (sim::engine_seed(args.seed, sims.len() as u64), args.trace);
    let run = std::thread::spawn(move || sim::run_one(seed, trace))
        .join()
        .map_err(|_| io::Error::other(format!("engine run on seed {seed} panicked")))?;
    sims.push(run);
    Ok(())
}

/// Live-run figures the per-layer report needs.
struct LiveLayer<'a> {
    traced: &'a live::StepResult,
    launch_ms: f64,
    quiesce_ms: f64,
    peak_backlog: i64,
    rss_mb: f64,
    decode_errors: u64,
    peers_down: u64,
}

/// The per-layer metrics of a traced run.
fn layer_metrics(args: &Args, sims: &[sim::SimRun], l: &LiveLayer, spans: &mut Spans) -> Metrics {
    let mut m = Metrics::default();
    let r = l.traced;

    // repl-bench: the generator itself.
    m.put("loadgen.late_p99_ms", percentile(&sorted(&r.late_ms), 0.99).unwrap_or(f64::NAN), "ms");
    m.put("loadgen.probe_share_pct", 100.0 * r.probes as f64 / (r.probes + r.sent) as f64, "%");

    // repl-net, client side: the generator's own encode and decode calls.
    m.put("net.req_encode_ns", med(&spans.self_ns("net.req_encode")), "ns");
    m.put("net.reply_decode_ns", med(&spans.self_ns("net.reply_decode")), "ns");
    m.put("net.req_bytes", r.req_bytes as f64 / r.sent as f64, "B");
    m.put("net.reply_bytes", r.reply_bytes as f64 / (r.ok + r.probes) as f64, "B");

    // repl-runtime.
    m.put("runtime.launch_ms", l.launch_ms, "ms");
    m.put("runtime.quiesce_ms", l.quiesce_ms, "ms");
    m.put("runtime.outstanding_peak", l.peak_backlog as f64, "count");
    let owed = 2 * r.updates as i64;
    let done = owed - (r.backlog_end - r.backlog_start);
    m.put(
        "runtime.keepup_pct",
        if owed > 0 { 100.0 * done as f64 / owed as f64 } else { f64::NAN },
        "%",
    );
    m.put("runtime.rss_mb_per_site", l.rss_mb / 3.0, "MB");
    m.put("runtime.decode_errors", l.decode_errors as f64, "count");
    m.put("runtime.peers_down", l.peers_down as f64, "count");

    // repl-copygraph and repl-workload.
    m.put("copygraph.build_ms", sim::copygraph_build_s(&live::placement()) * 1e3, "ms");
    let per = |f: &dyn Fn(&sim::SimRun) -> f64| sims.iter().map(f).collect::<Vec<f64>>();
    m.put("workload.gen_ms", med(&per(&|s| s.gen_s)) * 1e3, "ms");

    // Layer replay of the live stream: storage, protocol, link codec.
    let mut stream = live::Stream::new(args.workload.mix, args.seed);
    let txns: Vec<(SiteId, Vec<repl_types::Op>)> = (0..LIVE_REPLAY_TXNS)
        .map(|_| {
            let t = stream.next_txn();
            (if t.conn == 0 { SiteId(0) } else { SiteId(2) }, t.ops)
        })
        .collect();
    let first = 1 << 40;
    let live_counts = replay::Replay::new(&live::placement(), spans).run(&txns, first);
    let n = live_counts.txns as f64;
    let on_input = sorted(&spans.self_ns("protocol.on_input"));
    m.put("storage.exec_ns", med(&spans.self_ns("storage.exec")), "ns");
    m.put("storage.lock_requests_per_txn", live_counts.locks as f64 / n, "count");
    m.put("storage.apply_ns", med(&spans.self_ns("storage.apply")), "ns");
    m.put("storage.wal_append_ns", med(&spans.self_ns("storage.wal_append")), "ns");
    m.put("storage.wal_bytes_per_txn", live_counts.wal_bytes as f64 / n, "B");
    m.put("protocol.on_input_ns_p50", percentile(&on_input, 0.5).unwrap_or(f64::NAN), "ns");
    m.put("protocol.on_input_ns_p99", percentile(&on_input, 0.99).unwrap_or(f64::NAN), "ns");
    m.put("protocol.inputs_per_txn", live_counts.inputs as f64 / n, "count");
    m.put("protocol.commands_per_txn", live_counts.commands as f64 / n, "count");
    m.put("protocol.sends_per_txn", live_counts.sends as f64 / n, "count");
    m.put("net.link_encode_ns", med(&spans.self_ns("net.link_encode")), "ns");
    m.put("net.link_decode_ns", med(&spans.self_ns("net.link_decode")), "ns");
    m.put("net.link_bytes_per_txn", live_counts.link_bytes as f64 / n, "B");
    m.put("net.link_frames_per_txn", live_counts.frames as f64 / n, "count");

    // repl-core and repl-analysis: the simulator, and what of its time
    // per commit the replay of its own stream does not account for.
    let commits: f64 = per(&|s| s.commits as f64).iter().sum();
    m.put("core.engine_new_ms", med(&per(&|s| s.new_s)) * 1e3, "ms");
    let run_us = med(&per(&|s| s.run_s * 1e6 / s.commits as f64));
    m.put("core.run_us_per_commit", run_us, "us");
    m.put(
        "core.msgs_per_commit",
        per(&|s| s.messages as f64).iter().sum::<f64>() / commits,
        "count",
    );
    m.put(
        "core.attempts_per_commit",
        per(&|s| (s.commits + s.aborts) as f64).iter().sum::<f64>() / commits,
        "count",
    );
    let check_s = med(&per(&|s| s.check_1sr_s.unwrap_or(f64::NAN)));
    m.put("analysis.check_1sr_ms", check_s * 1e3, "ms");
    m.put("analysis.history_txns", avg(&per(&|s| s.history_txns as f64)), "count");
    let first_sim = &sims[0];
    let programs = first_sim.programs.as_ref().expect("traced runs keep their programs");
    let stream: Vec<_> = sim::replay_stream(programs).into_iter().take(SIM_REPLAY_TXNS).collect();
    let mut sim_spans = Spans::new();
    let sim_counts = replay::Replay::new(&first_sim.placement, &mut sim_spans).run(&stream, 0);
    let replay_ns: f64 =
        ["storage.exec", "storage.wal_append", "storage.apply", "protocol.on_input"]
            .iter()
            .map(|name| sim_spans.total_self_ns(name))
            .sum();
    let replay_us = replay_ns / 1e3 / sim_counts.txns as f64;
    let check_us = check_s * 1e6 / first_sim.commits as f64;
    m.put("core.unattributed_us_per_commit", run_us - replay_us - check_us, "us");
    m.put("core.replay_errors", (live_counts.errors + sim_counts.errors) as f64, "count");
    m
}

/// Median over consecutive windows of [`WINDOW`] samples of each
/// window's `q` percentile: a scheduler stall then moves a few windows
/// rather than the figure. Fewer samples than one window give the
/// plain percentile.
fn windowed(samples: &[f64], q: f64) -> f64 {
    let windows: Vec<f64> =
        samples.chunks_exact(WINDOW).filter_map(|w| percentile(&sorted(w), q)).collect();
    if windows.is_empty() {
        return percentile(&sorted(samples), q).unwrap_or(f64::NAN);
    }
    med(&windows)
}

fn latency_of(r: &live::StepResult) -> &[f64] {
    &r.latency_ms
}

fn recency_of(r: &live::StepResult) -> &[f64] {
    &r.recency_ms
}

/// Median of `values` over the half of them (rounded up) measured with
/// the least CPU time stolen by the hypervisor, `steal[i]` going with
/// `values[i]`.
fn quiet_median(values: &[f64], steal: &[f64]) -> f64 {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let quiet: Vec<f64> = order[..values.len().div_ceil(2)].iter().map(|&i| values[i]).collect();
    med(&quiet)
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

fn avg(v: &[f64]) -> f64 {
    mean(v).unwrap_or(f64::NAN)
}

/// One-copy serializability of the cluster's whole history.
fn check_history(c: &live::Live, tally: &mut Tally) -> io::Result<()> {
    let mut h = History::new();
    for (gid, reads, writes) in c.cluster.history()? {
        h.record_commit(gid, reads, writes);
    }
    let result = h.check_serializability();
    tally.check(result.is_ok(), || format!("live history not serializable: {result:?}"));
    Ok(())
}

/// Every replica's copy equals its primary's: same value, same writer.
fn check_convergence(
    c: &live::Live,
    placement: &repl_copygraph::DataPlacement,
    tally: &mut Tally,
) -> io::Result<()> {
    let mut state = Vec::new();
    for s in 0..3 {
        let cells = decode_cells(c.cluster.copy_state(SiteId(s))?)
            .map_err(|e| io::Error::other(format!("copy state of s{s}: {e}")))?;
        let map: HashMap<_, _> = cells.into_iter().map(|(i, v, w)| (i, (v, w))).collect();
        state.push(map);
    }
    let mut diverged = 0usize;
    for item in placement.items() {
        let primary = state[placement.primary_of(item).index()].get(&item);
        for r in placement.replicas_of(item) {
            if primary.is_none() || state[r.index()].get(&item) != primary {
                diverged += 1;
            }
        }
    }
    tally.check(diverged == 0, || format!("{diverged} replica copies differ from their primary"));
    Ok(())
}

/// Commits the clients saw acknowledged equal the sum of the sites'
/// `Stats.committed`.
fn check_commits(c: &live::Live, tally: &mut Tally) -> io::Result<()> {
    let mut committed = 0u64;
    for s in 0..3 {
        committed += c.cluster.stats(SiteId(s))?.committed;
    }
    commit_count_check(c.acked, committed, tally);
    Ok(())
}

fn commit_count_check(acked: u64, committed: u64, tally: &mut Tally) {
    tally.check(acked == committed, || {
        format!("{acked} commits acknowledged to clients, sites report {committed}")
    });
}

/// Where the traced run writes its spans: beside this executable, in
/// the build directory.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(format!("spans-{workload}-seed{seed}.tsv"))
}

/// The commit measured, when the benchmark runs from a git work tree's
/// root (`unknown` otherwise; git is not asked to search further up).
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_commit_count_fails_the_run() {
        let mut t = Tally::default();
        commit_count_check(10, 10, &mut t);
        assert!(t.correct());
        assert_eq!(exit_code(&t), 0);
        commit_count_check(11, 10, &mut t);
        assert!(!t.correct());
        assert_eq!(t.failed, 1);
        assert_ne!(exit_code(&t), 0);
    }

    #[test]
    fn windowed_percentiles_ignore_one_bad_window() {
        let mut v = vec![1.0; 5 * WINDOW];
        for x in &mut v[..WINDOW] {
            *x = 100.0;
        }
        assert_eq!(windowed(&v, 0.99), 1.0);
        assert_eq!(windowed(&v, 0.5), 1.0);
        assert_eq!(windowed(&[3.0, 1.0, 2.0], 0.99), 3.0);
    }

    #[test]
    fn quiet_median_skips_the_most_stolen_half() {
        let values = [1.0, 9.0, 2.0, 8.0, 3.0, 7.0];
        let steal = [0.0, 0.2, 0.01, 0.3, 0.02, 0.1];
        assert_eq!(quiet_median(&values, &steal), 2.0);
        assert_eq!(quiet_median(&[5.0], &[0.9]), 5.0);
        assert!(quiet_median(&[], &[]).is_nan());
    }

    #[test]
    fn ladders_rise_by_the_eighth_root_of_two() {
        let l = WORKLOADS[1].ladder();
        assert_eq!(l.len(), 14);
        assert_eq!(l[0], 20_000.0);
        assert_eq!(l[4], 28_284.0);
        assert_eq!(l[8], 40_000.0);
        assert!(l.windows(2).all(|p| p[1] > p[0]));
    }

    #[test]
    fn arguments_are_checked() {
        let ok: Vec<String> =
            ["--workload", "live_write", "--seed", "3", "--seconds", "10", "--trace", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let a = parse_args(&ok).unwrap();
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("live_write", 3, 10, true));
        let mut bad = ok.clone();
        bad[1] = "sim_only".into();
        assert!(parse_args(&bad).is_err());
        assert!(parse_args(&ok[..6]).is_err());
    }
}
