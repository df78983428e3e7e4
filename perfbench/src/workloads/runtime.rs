//! `runtime_mixes`: the multi-tenant host-API user.
//!
//! An op is one host session of `runtime_mixes()` (solo, dual-tenant,
//! quad-stream) on a fresh `lmi-runtime` `Runtime`: tenants and streams,
//! per stream H2D → launch → D2H → event, `synchronize`, then a metrics
//! snapshot. The seed orders the sessions of each pass and fills the H2D
//! payloads.

use crate::api::{self, Json, SessionOutcome, SplitMix64, TrafficMix};
use crate::golden::{digest, render, Golden};
use crate::spans::Spans;
use crate::workloads::{Layers, Workload};

const GOLDEN: &str = include_str!("../../golden/runtime_mixes.tsv");

/// Mix order of pass `pass` (every pass runs each mix once).
pub fn pass_order(seed: u64, pass: usize, mixes: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..mixes).collect();
    SplitMix64::new(seed ^ (pass as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).shuffle(&mut order);
    order
}

/// H2D payloads of op `op` (one upload per stream of `mix`).
pub fn payloads(seed: u64, op: usize, mix: &TrafficMix) -> Vec<Vec<u64>> {
    let mut rng = SplitMix64::new(seed.rotate_left(17) ^ op as u64);
    mix.streams.iter().map(|t| (0..t.h2d_words).map(|_| rng.next_u64()).collect()).collect()
}

/// Golden text of a session's simulated outputs: makespan, per-kernel
/// execution span and issued instructions, copies, completion-event
/// cycles, and the overlap (busy kernel and copy cycles per makespan
/// cycle).
fn render_outcome(out: &SessionOutcome) -> String {
    let r = &out.report;
    let kernels: Vec<String> = r
        .kernels
        .iter()
        .map(|k| format!("{}:{}:{}", k.name, k.completed_at - k.started_at, k.stats.issued))
        .collect();
    let busy: u64 = r.kernels.iter().map(|k| k.completed_at - k.started_at).sum::<u64>()
        + r.copies.iter().map(|c| c.completed_at - c.started_at).sum::<u64>();
    let overlap = busy as f64 / r.total_cycles.max(1) as f64;
    let events: Vec<String> =
        out.events.iter().map(|e| e.map_or("-".to_string(), |c| c.to_string())).collect();
    format!(
        "cycles={} kernels={} copies={} events={} overlap={overlap:?}",
        r.total_cycles,
        kernels.join(","),
        r.copies.len(),
        events.join(","),
    )
}

/// Checks what must hold whatever the payload: nothing rejected, no
/// benign kernel faulted, every copy delivered.
fn check_session(mix: &TrafficMix, out: &SessionOutcome) -> Result<(), String> {
    if out.rejected > 0 || out.submit_errors > 0 {
        return Err(format!(
            "{}: {} rejected, {} failed submissions",
            mix.name, out.rejected, out.submit_errors
        ));
    }
    if let Some(k) = out.report.kernels.iter().find(|k| !k.stats.violations.is_empty()) {
        return Err(format!("{}: benign kernel {} faulted", mix.name, k.name));
    }
    for (t, words) in mix.streams.iter().zip(&out.readback) {
        if words.len() as u64 * 8 != t.d2h_bytes {
            return Err(format!("{}: D2H delivered {} words", mix.name, words.len()));
        }
    }
    Ok(())
}

/// The workload state.
pub struct Mixes {
    seed: u64,
    mixes: Vec<TrafficMix>,
    golden: Golden,
    /// Staged inputs of the next op: mix index and payloads.
    staged: (usize, Vec<Vec<u64>>),
    /// Traced, first pass: kernels, copies and rejections seen.
    first_pass: [u64; 4],
}

impl Mixes {
    /// Loads the mixes and golden values.
    pub fn new(seed: u64) -> Result<Mixes, String> {
        let golden = Golden::parse(GOLDEN)?;
        let mixes = api::runtime_mixes();
        api::warm_up_session(&mixes[0])?;
        Ok(Mixes { seed, mixes, golden, staged: (0, Vec::new()), first_pass: [0; 4] })
    }
}

impl Workload for Mixes {
    fn group(&self) -> usize {
        self.mixes.len()
    }

    fn stage(&mut self, i: usize) {
        let n = self.mixes.len();
        let m = pass_order(self.seed, i / n, n)[i % n];
        self.staged = (m, payloads(self.seed, i, &self.mixes[m]));
    }

    fn run_op(&mut self, i: usize, spans: &mut Spans) -> Result<Option<u64>, String> {
        let mix = &self.mixes[self.staged.0];
        let out = api::session(api::table4_config(), mix, &self.staged.1, spans)?;
        check_session(mix, &out)?;
        self.golden.check(mix.name, &render_outcome(&out))?;
        if spans.enabled() && i < self.mixes.len() {
            self.first_pass[0] += 1;
            self.first_pass[1] += out.report.kernels.len() as u64;
            self.first_pass[2] += out.report.copies.len() as u64;
            self.first_pass[3] += out.rejected;
        }
        Ok(Some(out.report.kernels.iter().map(|k| k.stats.issued).sum()))
    }

    fn layers(&self, _spans: &Spans, out: &mut Layers) {
        let [sessions, kernels, copies, rejected] = self.first_pass;
        if sessions > 0 {
            let per = |v: u64| v as f64 / sessions as f64;
            out.insert("runtime.kernels", per(kernels));
            out.insert("runtime.copies", per(copies));
            out.insert("runtime.rejected", per(rejected));
        }
    }

    fn info(&self) -> Json {
        Json::obj()
            .with("sessions", Json::Arr(self.mixes.iter().map(|m| Json::from(m.name)).collect()))
    }
}

/// Golden text: each session's simulated outputs, plus a digest of its
/// readback for two different payloads (the benchmark checks readback
/// only if it does not depend on the payload).
pub fn record() -> Result<String, String> {
    let mut entries = Vec::new();
    for mix in api::runtime_mixes() {
        let mut renders = Vec::new();
        let mut readbacks = Vec::new();
        for seed in [1u64, 2] {
            let out = api::session(
                api::table4_config(),
                &mix,
                &payloads(seed, 0, &mix),
                &mut Spans::off(),
            )?;
            check_session(&mix, &out)?;
            renders.push(render_outcome(&out));
            let words: Vec<u8> =
                out.readback.iter().flatten().flat_map(|w| w.to_le_bytes()).collect();
            readbacks.push(digest(&words));
        }
        if renders[0] != renders[1] {
            return Err(format!("{}: simulated outputs depend on the payload", mix.name));
        }
        eprintln!("{}: readback digests {readbacks:?}", mix.name);
        entries.push((mix.name.to_string(), renders.remove(0)));
    }
    Ok(render(
        "runtime_mixes golden: per session makespan, kernel spans and issued instructions, \
         copies, event cycles and overlap",
        &entries,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_gives_identical_inputs() {
        let mix = &api::runtime_mixes()[1];
        assert_eq!(payloads(4, 7, mix), payloads(4, 7, mix));
        assert_ne!(payloads(4, 7, mix), payloads(5, 7, mix));
        assert_eq!(pass_order(4, 2, 3), pass_order(4, 2, 3));
        let mut sorted = pass_order(4, 2, 3);
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2], "every pass runs each session once");
    }
}
