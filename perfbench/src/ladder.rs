//! The capacity search: climb a fixed ladder of offered rates and stop
//! at the first step that misses a condition.

/// What the search needs to know about one step.
#[derive(Clone, Debug, PartialEq)]
pub struct StepSummary {
    /// Offered rate, txn/s.
    pub offered: f64,
    /// Committed transactions per second over the step.
    pub achieved: f64,
    /// Failed or never-answered requests.
    pub failed: u64,
    /// p99 commit latency, ms, timed from when each request was due
    /// (the median over the step's windows, so it tracks sustained
    /// queueing rather than one scheduler stall).
    pub p99_ms: f64,
    /// Summed replica backlog before and after the step.
    pub backlog_start: i64,
    pub backlog_end: i64,
    /// Replica applies the step's updates owed.
    pub owed: i64,
}

/// Completions must reach this share of the offered rate. Near
/// capacity the commit rate flattens out rather than stopping, so the
/// share is set where a step is clearly past that knee.
pub const KEEP_PACE: f64 = 0.9;

/// Why a step fails, or `Ok` when it holds all four conditions:
/// completions keep pace, no request fails, p99 stays under the limit,
/// and the replica backlog does not grow across the step.
pub fn judge(s: &StepSummary, limit_ms: f64) -> Result<(), &'static str> {
    if s.failed > 0 {
        return Err("requests failed");
    }
    if s.achieved < KEEP_PACE * s.offered {
        return Err("completions fell behind");
    }
    if s.p99_ms > limit_ms {
        return Err("p99 over the latency limit");
    }
    // A backlog that keeps up is bounded by the work in flight; one
    // that does not grows with every update. The replicas must have
    // done the same share of the step's owed applies as the clients
    // got of their commits (at least 64 may still be in flight).
    let slack = (((1.0 - KEEP_PACE) * s.owed as f64).round() as i64).max(64);
    if s.backlog_end > s.backlog_start + slack {
        return Err("replica backlog grew");
    }
    Ok(())
}

/// The outcome of one climb.
#[derive(Debug)]
pub struct Climb {
    /// Every step run, in order.
    pub steps: Vec<StepSummary>,
    /// Index into `steps` of the highest step that held.
    pub best: Option<usize>,
    /// The first step that missed a condition, and why.
    pub stop: Option<(f64, &'static str)>,
}

/// Run `rungs` in order until one fails [`judge`]; no step runs after
/// the first failure.
pub fn climb<E>(
    rungs: &[f64],
    limit_ms: f64,
    mut run: impl FnMut(f64) -> Result<StepSummary, E>,
) -> Result<Climb, E> {
    let mut c = Climb { steps: Vec::new(), best: None, stop: None };
    for &rate in rungs {
        let s = run(rate)?;
        let verdict = judge(&s, limit_ms);
        c.steps.push(s);
        match verdict {
            Ok(()) => c.best = Some(c.steps.len() - 1),
            Err(why) => {
                c.stop = Some((rate, why));
                break;
            }
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(offered: f64) -> StepSummary {
        StepSummary {
            offered,
            achieved: offered,
            failed: 0,
            p99_ms: 1.0,
            backlog_start: 0,
            backlog_end: 0,
            owed: 2 * offered as i64,
        }
    }

    fn run_with(rungs: &[f64], shape: impl Fn(StepSummary) -> StepSummary) -> (Climb, Vec<f64>) {
        let mut ran = Vec::new();
        let c = climb::<()>(rungs, 50.0, |r| {
            ran.push(r);
            Ok(shape(step(r)))
        })
        .unwrap();
        (c, ran)
    }

    #[test]
    fn stops_at_the_first_step_over_the_latency_limit() {
        let rungs = [10.0, 20.0, 40.0, 80.0];
        let (c, ran) = run_with(&rungs, |mut s| {
            if s.offered >= 40.0 {
                s.p99_ms = 51.0;
            }
            s
        });
        assert_eq!(ran, vec![10.0, 20.0, 40.0], "no step after the first failure");
        assert_eq!(c.best.map(|i| c.steps[i].offered), Some(20.0));
        assert_eq!(c.stop, Some((40.0, "p99 over the latency limit")));
    }

    #[test]
    fn a_growing_backlog_fails_the_step_even_when_latency_holds() {
        let (c, ran) = run_with(&[10.0, 20.0, 40.0], |mut s| {
            if s.offered >= 20.0 {
                s.backlog_start = 5;
                s.backlog_end = 5 + 101;
                s.owed = 1000;
            }
            s
        });
        assert_eq!(ran, vec![10.0, 20.0]);
        assert_eq!(c.best, Some(0));
        assert_eq!(c.stop, Some((20.0, "replica backlog grew")));
        // A backlog that shrinks, or grows within the in-flight slack, holds.
        let mut s = step(20.0);
        s.backlog_start = 500;
        s.backlog_end = 30;
        assert_eq!(judge(&s, 50.0), Ok(()));
        s.backlog_end = 500 + 64;
        assert_eq!(judge(&s, 50.0), Ok(()));
        // 10% of the owed applies may still be in flight.
        s.owed = 10_000;
        s.backlog_end = 500 + 1000;
        assert_eq!(judge(&s, 50.0), Ok(()));
        s.backlog_end = 500 + 1001;
        assert_eq!(judge(&s, 50.0), Err("replica backlog grew"));
    }

    #[test]
    fn failures_and_falling_behind_stop_the_climb() {
        let mut s = step(100.0);
        s.failed = 1;
        assert_eq!(judge(&s, 50.0), Err("requests failed"));
        let mut s = step(100.0);
        s.achieved = 89.0;
        assert_eq!(judge(&s, 50.0), Err("completions fell behind"));
        let (c, ran) = run_with(&[10.0, 20.0], |mut s| {
            s.failed = 1;
            s
        });
        assert_eq!(ran, vec![10.0]);
        assert_eq!(c.best, None);
    }

    #[test]
    fn a_clean_ladder_reports_its_top_step() {
        let (c, ran) = run_with(&[1.0, 2.0, 3.0], |s| s);
        assert_eq!(ran.len(), 3);
        assert_eq!(c.best, Some(2));
        assert_eq!(c.stop, None);
    }
}
