//! `table4_kernels`: a simulator user on the paper's 80-SM Table IV chip.
//!
//! The seed picks one Table V kernel from each cost-matched pair, with one
//! block per SM so the grid fills all 80 SMs. Each kernel runs under Null,
//! LMI and GPUShield; an op is `prepare` → `Gpu::with_heap_policy` →
//! mechanism set-up → `Gpu::run` on a fresh GPU (cold caches).

use std::time::Instant;

use crate::api::{self, Json, Mech, SimStats, WorkloadSpec};
use crate::golden::{render, Golden};
use crate::spans::Spans;
use crate::workloads::{middle_out, pick_strata, Workload};

/// Thread blocks per launch: one per SM of the Table IV GPU.
pub const BLOCKS: usize = 80;

/// Iterations are Table V's divided by this, so one run covers every
/// stratum.
pub const ITER_SCALE: u32 = 6;

/// Mechanisms each kernel runs under, in op order.
pub const MECHS: [Mech; 3] = [Mech::Null, Mech::Lmi, Mech::GpuShield];

/// Table V kernels paired by host cost of their three runs, cheapest pair
/// first (mean of two timings on a 2-core x86-64 host).
const STRATA: [[&str; 2]; 14] = [
    ["lud_cuda", "nn"],
    ["needle", "srad_v2"],
    ["bfs", "pathfinder"],
    ["srad_v1", "dwt2d"],
    ["LSTM", "particlefilter_float"],
    ["hotspot", "lavaMD"],
    ["particlefilter_naive", "CifarNet"],
    ["wenet_decoder", "GRU"],
    ["sc_gpu", "backprop"],
    ["decoding", "BEVerse"],
    ["AlexNet", "MOTR"],
    ["segformer", "DETR"],
    ["wenet_encoder", "gaussian"],
    ["bert", "swin"],
];

/// Set-up warm-up kernel: fixed, so set-up cost does not depend on the
/// seed.
const WARM_UP: &str = "hotspot";

const GOLDEN: &str = include_str!("../../golden/table4_kernels.tsv");

/// The kernels a seed picks, in run order.
pub fn inputs(seed: u64) -> Vec<&'static str> {
    pick_strata(seed, &STRATA, &middle_out(STRATA.len()))
}

fn kernel(name: &str) -> WorkloadSpec {
    let mut spec = api::spec(name).scaled_down(ITER_SCALE);
    spec.blocks = BLOCKS;
    spec
}

fn key(name: &str, mech: Mech) -> String {
    format!("{name}/{}", mech.label())
}

fn render_stats(stats: &SimStats) -> String {
    format!("cycles={} issued={}", stats.cycles, stats.issued)
}

/// One kernel under one mechanism, checked for a benign run.
fn run(spec: &WorkloadSpec, mech: Mech, spans: &mut Spans) -> Result<SimStats, String> {
    let prepared = api::prepare_kernel(spec, mech, 0, spans);
    let stats = api::simulate(api::table4_config(), &prepared, mech, spans);
    if let Some(v) = stats.violations.first() {
        return Err(format!("{}/{}: benign kernel faulted: {v:?}", spec.name, mech.label()));
    }
    Ok(stats)
}

/// The workload state.
pub struct Table4 {
    specs: Vec<WorkloadSpec>,
    golden: Golden,
}

impl Table4 {
    /// Picks the kernels and loads the golden values.
    pub fn new(seed: u64) -> Result<Table4, String> {
        let golden = Golden::parse(GOLDEN)?;
        let specs: Vec<_> = inputs(seed).into_iter().map(kernel).collect();
        api::warm_up(api::table4_config(), &kernel(WARM_UP), 8);
        Ok(Table4 { specs, golden })
    }
}

impl Workload for Table4 {
    fn group(&self) -> usize {
        MECHS.len()
    }

    fn run_op(&mut self, i: usize, spans: &mut Spans) -> Result<Option<u64>, String> {
        let spec = &self.specs[(i / MECHS.len()) % self.specs.len()];
        let mech = MECHS[i % MECHS.len()];
        let stats = run(spec, mech, spans)?;
        self.golden.check(&key(spec.name, mech), &render_stats(&stats))?;
        Ok(Some(stats.issued))
    }

    fn info(&self) -> Json {
        Json::obj()
            .with("blocks", BLOCKS)
            .with("iter_scale", u64::from(ITER_SCALE))
            .with("kernels", Json::Arr(self.specs.iter().map(|s| Json::from(s.name)).collect()))
    }
}

/// Golden text: cycles and issued instructions of every Table V kernel
/// under each mechanism.
pub fn record() -> String {
    let mut entries = Vec::new();
    let mut off = Spans::off();
    for name in STRATA.iter().flatten() {
        let spec = kernel(name);
        let mut line = format!("{name:<22}");
        let mut total = 0.0;
        for mech in MECHS {
            let t0 = Instant::now();
            let stats = run(&spec, mech, &mut off).unwrap_or_else(|e| panic!("{e}"));
            let secs = t0.elapsed().as_secs_f64();
            total += secs;
            line.push_str(&format!(" {}={secs:.3}s", mech.label()));
            entries.push((key(name, mech), render_stats(&stats)));
        }
        eprintln!("{line} total={total:.3}s");
    }
    entries.sort();
    render(
        "table4_kernels golden: cycles and issued warp instructions per Table V kernel \
         (iterations / 6, 80 blocks, Table IV GPU) and mechanism",
        &entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_gives_identical_inputs() {
        assert_eq!(inputs(9), inputs(9));
        assert_eq!(inputs(9).len(), STRATA.len());
    }
}
