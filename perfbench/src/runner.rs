//! The closed loop: one op in flight, timed one at a time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::measure::{HostRef, Tally};
use crate::spans::Spans;
use crate::workloads::Workload;

/// When the loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At the first group boundary after this much host time.
    After(Duration),
    /// After exactly this many ops.
    Ops(usize),
}

/// Least host time between two host-speed reference samples (each costs
/// ~15 ms).
const REF_EVERY: Duration = Duration::from_millis(500);

/// Hard ceiling past the budget: a loop never runs longer than this, even
/// mid-group (keeps every run within its time limit on a slow host).
const OVERRUN: Duration = Duration::from_secs(45);

/// What a loop measured.
#[derive(Debug, Default)]
pub struct Loop {
    /// Op outcomes and durations.
    pub tally: Tally,
    /// Host seconds of the ops alone (staging and probes excluded).
    pub op_secs: f64,
    /// Warp instructions issued by ops that report them, and those ops'
    /// host seconds.
    pub issued: u64,
    /// Host seconds of the ops that reported `issued`.
    pub issued_secs: f64,
    /// Host-speed reference samples taken between groups.
    pub host: HostRef,
}

impl Loop {
    /// Ops completed per host second of op time.
    pub fn ops_per_s(&self) -> f64 {
        if self.op_secs > 0.0 {
            self.tally.attempted as f64 / self.op_secs
        } else {
            0.0
        }
    }
}

fn flatten<T>(r: std::thread::Result<Result<T, String>>) -> Result<T, String> {
    match r {
        Ok(inner) => inner,
        Err(panic) => Err(match panic.downcast_ref::<String>() {
            Some(s) => format!("panic: {s}"),
            None => match panic.downcast_ref::<&str>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".to_string(),
            },
        }),
    }
}

/// Runs ops `0, 1, 2, …` of `w` until `stop`. With tracing on, each op is
/// followed by its untimed layer probe; a probe failure fails the op.
/// Between groups, at most every `REF_EVERY`, it samples the host-speed
/// reference (untimed).
pub fn run_loop(w: &mut dyn Workload, spans: &mut Spans, stop: Stop) -> Loop {
    let mut out = Loop::default();
    let group = w.group().max(1);
    let start = Instant::now();
    let mut last_ref: Option<Instant> = None;
    let mut i = 0;
    loop {
        let elapsed = start.elapsed();
        let done = match stop {
            Stop::Ops(n) => i >= n,
            Stop::After(budget) => {
                (i % group == 0 && elapsed >= budget) || elapsed >= budget + OVERRUN
            }
        };
        if done {
            break;
        }
        if i % group == 0 && last_ref.is_none_or(|t| t.elapsed() >= REF_EVERY) {
            out.host.sample();
            last_ref = Some(Instant::now());
        }
        w.stage(i);
        spans.set_op(i);
        let t0 = Instant::now();
        let result = flatten(catch_unwind(AssertUnwindSafe(|| w.run_op(i, spans))));
        let secs = t0.elapsed().as_secs_f64();
        out.op_secs += secs;
        let mut outcome = result.map(|issued| {
            if let Some(n) = issued {
                out.issued += n;
                out.issued_secs += secs;
            }
        });
        if spans.enabled() {
            let probe = flatten(catch_unwind(AssertUnwindSafe(|| w.probe(i, spans))));
            outcome = outcome.and(probe);
        }
        out.tally.record(secs, outcome);
        i += 1;
    }
    out
}
