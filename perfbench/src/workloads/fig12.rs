//! `fig12_sweep`: a user regenerating Fig. 12.
//!
//! The seed picks one Table V spec from each cost-matched pair; an op is
//! one `lmi_bench::normalized(spec, m)` call for m in Fig. 12's order
//! (Baggy, GPUShield, LMI) on the 8-SM configuration. Every cell re-runs
//! the four-phase null baseline, so a spec costs 21 simulations of which
//! 13 are distinct; the traced run replays the 13 to measure that
//! redundancy.

use std::time::Instant;

use crate::api::{self, Json, Mech, WorkloadSpec};
use crate::golden::{render, Golden};
use crate::spans::Spans;
use crate::workloads::{middle_out, pick_strata, Layers, Workload};

/// Input size: every spec is `scaled_down(SCALE)` (iterations and blocks
/// divided by four), so one run covers many specs.
pub const SCALE: u32 = 4;

/// Fig. 12's mechanisms, in the figure's column order.
pub const MECHS: [Mech; 3] = [Mech::Baggy, Mech::GpuShield, Mech::Lmi];

/// Table V specs paired by host cost of their three cells, cheapest pair
/// first (measured on a 2-core x86-64 host at `SCALE`).
const STRATA: [[&str; 2]; 14] = [
    ["lud_cuda", "pathfinder"],
    ["backprop", "sc_gpu"],
    ["bfs", "needle"],
    ["srad_v1", "nn"],
    ["GRU", "dwt2d"],
    ["LSTM", "particlefilter_naive"],
    ["srad_v2", "hotspot"],
    ["CifarNet", "lavaMD"],
    ["wenet_encoder", "particlefilter_float"],
    ["wenet_decoder", "AlexNet"],
    ["DETR", "decoding"],
    ["MOTR", "segformer"],
    ["gaussian", "BEVerse"],
    ["bert", "swin"],
];

/// Set-up warm-up kernel: fixed, so set-up cost does not depend on the
/// seed.
const WARM_UP: &str = "hotspot";

const GOLDEN: &str = include_str!("../../golden/fig12_sweep.tsv");

/// The paper's published Fig. 12 reference (EXPERIMENTS.md), printed as
/// information beside the cells.
const PAPER_REFERENCE: &str = "LMI +0.22% average; GPUShield needle +42.5%, LSTM +24.0%";

/// The specs a seed picks, in run order.
pub fn inputs(seed: u64) -> Vec<&'static str> {
    pick_strata(seed, &STRATA, &middle_out(STRATA.len()))
}

fn scaled(name: &str) -> WorkloadSpec {
    api::spec(name).scaled_down(SCALE)
}

fn key(spec: &str, mech: Mech) -> String {
    format!("{spec}/{}", mech.label())
}

/// The workload state.
pub struct Fig12 {
    specs: Vec<WorkloadSpec>,
    golden: Golden,
    /// Traced: `normalized` seconds of the current spec's cells.
    group_normalized: f64,
    /// Traced: summed over specs whose distinct simulations were replayed.
    normalized_secs: f64,
    distinct_secs: f64,
    /// Cells computed, for the information line.
    cells: Vec<(String, f64)>,
}

impl Fig12 {
    /// Picks the specs and loads the golden values.
    pub fn new(seed: u64) -> Result<Fig12, String> {
        let golden = Golden::parse(GOLDEN)?;
        let specs: Vec<_> = inputs(seed).into_iter().map(scaled).collect();
        api::warm_up(api::small_config(), &scaled(WARM_UP), 1);
        Ok(Fig12 {
            specs,
            golden,
            group_normalized: 0.0,
            normalized_secs: 0.0,
            distinct_secs: 0.0,
            cells: Vec::new(),
        })
    }

    fn cell(&self, i: usize) -> (&WorkloadSpec, Mech) {
        (&self.specs[(i / MECHS.len()) % self.specs.len()], MECHS[i % MECHS.len()])
    }
}

/// Runs the distinct simulations behind a spec's three cells once each
/// (four null, LMI and GPUShield phases plus one Baggy run) and rebuilds
/// the cells from their cycles exactly as the harness averages them.
fn replay_distinct(spec: &WorkloadSpec, spans: &mut Spans) -> [(Mech, f64); 3] {
    let cfg = api::small_config();
    let phase_avg = |mech: Mech, spans: &mut Spans| {
        let sum: u64 = api::harness_phases()
            .iter()
            .map(|&ph| {
                let prepared = api::prepare_kernel(spec, mech, ph, spans);
                api::simulate(cfg, &prepared, mech, spans).cycles
            })
            .sum();
        sum as f64 / api::harness_phases().len() as f64
    };
    let null = phase_avg(Mech::Null, spans);
    let lmi = phase_avg(Mech::Lmi, spans);
    let shield = phase_avg(Mech::GpuShield, spans);
    let prepared = api::prepare_kernel(spec, Mech::Baggy, 0, spans);
    let baggy = api::simulate(cfg, &prepared, Mech::Baggy, spans).cycles as f64;
    [(Mech::Baggy, baggy / null), (Mech::GpuShield, shield / null), (Mech::Lmi, lmi / null)]
}

impl Workload for Fig12 {
    fn group(&self) -> usize {
        MECHS.len()
    }

    fn run_op(&mut self, i: usize, spans: &mut Spans) -> Result<Option<u64>, String> {
        let (spec, mech) = self.cell(i);
        let name = spec.name;
        let value = api::normalized(spec, mech, spans);
        if spans.enabled() {
            self.group_normalized += spans.last_secs("bench.normalized");
        }
        if self.cells.len() < self.specs.len() * MECHS.len() {
            self.cells.push((key(name, mech), value));
        }
        self.golden.check(&key(name, mech), &format!("{value:?}"))?;
        Ok(None)
    }

    fn probe(&mut self, i: usize, spans: &mut Spans) -> Result<(), String> {
        if i % MECHS.len() != MECHS.len() - 1 {
            return Ok(());
        }
        let spec = self.cell(i).0.clone();
        let t0 = Instant::now();
        let cells = replay_distinct(&spec, spans);
        self.distinct_secs += t0.elapsed().as_secs_f64();
        self.normalized_secs += std::mem::take(&mut self.group_normalized);
        for (mech, value) in cells {
            self.golden
                .check(&key(spec.name, mech), &format!("{value:?}"))
                .map_err(|e| format!("distinct replay disagrees with the harness: {e}"))?;
        }
        Ok(())
    }

    fn layers(&self, _spans: &Spans, out: &mut Layers) {
        if self.normalized_secs > 0.0 {
            out.insert(
                "bench.redundant_time_share",
                1.0 - self.distinct_secs / self.normalized_secs,
            );
        }
    }

    fn info(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|(k, v)| Json::obj().with("cell", k.as_str()).with("normalized", *v))
            .collect();
        Json::obj()
            .with("scale", u64::from(SCALE))
            .with("specs", Json::Arr(self.specs.iter().map(|s| Json::from(s.name)).collect()))
            .with("cells", Json::Arr(cells))
            .with("paper_reference", PAPER_REFERENCE)
    }
}

/// Golden text: every Table V spec's three cells at `SCALE`.
pub fn record() -> String {
    let mut entries = Vec::new();
    let mut off = Spans::off();
    for pair in STRATA {
        for name in pair {
            let spec = scaled(name);
            let t0 = Instant::now();
            for mech in MECHS {
                let v = api::normalized(&spec, mech, &mut off);
                entries.push((key(name, mech), format!("{v:?}")));
            }
            eprintln!("{name:<22} {:.3} s", t0.elapsed().as_secs_f64());
        }
    }
    entries.sort();
    render(
        "fig12_sweep golden: lmi_bench::normalized(spec.scaled_down(4), mechanism) per Table V spec",
        &entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_gives_identical_inputs() {
        assert_eq!(inputs(42), inputs(42));
        assert_eq!(inputs(42).len(), STRATA.len());
        assert_ne!((0..16).map(inputs).collect::<std::collections::BTreeSet<_>>().len(), 1);
    }

    #[test]
    fn every_stratum_names_a_table5_spec_with_golden_cells() {
        let golden = Golden::parse(GOLDEN).unwrap();
        for name in STRATA.iter().flatten() {
            let _ = api::spec(name);
            for mech in MECHS {
                assert!(golden
                    .check(&key(name, mech), "?")
                    .is_err_and(|e| !e.contains("no golden")));
            }
        }
    }
}
