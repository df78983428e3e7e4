//! The four workloads. Each makes its inputs from the seed, runs one op
//! at a time in a closed loop, and checks every simulated output against
//! the golden values recorded from the program.

use std::collections::BTreeMap;

use crate::api::Json;
use crate::spans::Spans;

pub mod fig12;
pub mod fuzz;
pub mod runtime;
pub mod table4;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["fig12_sweep", "table4_kernels", "fuzz_oracle", "runtime_mixes"];

/// Per-layer values a workload computes itself (the generic ones come
/// from the spans).
pub type Layers = BTreeMap<&'static str, f64>;

/// One benchmark workload.
pub trait Workload {
    /// Ops per group. A run stops only at a group boundary, so every run
    /// covers whole groups (e.g. one spec under all three mechanisms).
    fn group(&self) -> usize;

    /// Makes the inputs of op `i` that are not made at set-up (untimed).
    fn stage(&mut self, _i: usize) {}

    /// Runs op `i` and checks its outputs. Returns the simulated warp
    /// instructions it issued, when the layer reports them.
    fn run_op(&mut self, i: usize, spans: &mut Spans) -> Result<Option<u64>, String>;

    /// Traced runs only, untimed: replays op `i`'s hidden layers for
    /// attribution (and checks the replay agrees with the op).
    fn probe(&mut self, _i: usize, _spans: &mut Spans) -> Result<(), String> {
        Ok(())
    }

    /// Workload-specific per-layer values of a traced run.
    fn layers(&self, _spans: &Spans, _out: &mut Layers) {}

    /// Informational output printed beside the result (never gated).
    fn info(&self) -> Json {
        Json::obj()
    }
}

/// Builds workload `name` from `seed`, including its warm-up.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fig12_sweep" => Box::new(fig12::Fig12::new(seed)?),
        "table4_kernels" => Box::new(table4::Table4::new(seed)?),
        "fuzz_oracle" => Box::new(fuzz::Fuzz::new(seed)?),
        "runtime_mixes" => Box::new(runtime::Mixes::new(seed)?),
        other => return Err(format!("unknown workload {other:?} (expected one of {NAMES:?})")),
    })
}

/// Golden text of workload `name`, computed from the current program.
pub fn record_golden(name: &str) -> Result<String, String> {
    match name {
        "fig12_sweep" => Ok(fig12::record()),
        "table4_kernels" => Ok(table4::record()),
        "fuzz_oracle" => fuzz::record(),
        "runtime_mixes" => runtime::record(),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Picks one member of each cost-matched stratum, in the fixed stratum
/// order: every seed gets a different subset with the same cost profile,
/// and any prefix of the list has about the same cost on every seed.
pub fn pick_strata(seed: u64, strata: &[[&'static str; 2]], order: &[usize]) -> Vec<&'static str> {
    let mut rng = crate::api::SplitMix64::new(seed);
    order.iter().map(|&s| strata[s][rng.below(2) as usize]).collect()
}

/// Middle-out stratum order (for 5: 2, 1, 3, 0, 4): a run cut after any
/// number of groups measures strata near the median cost first, so its
/// op times are unimodal and its mix is the same on every seed.
pub fn middle_out(n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| ((2 * i).abs_diff(n.saturating_sub(1)), i));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn middle_out_visits_every_stratum_once() {
        assert_eq!(middle_out(5), [2, 1, 3, 0, 4]);
        assert_eq!(middle_out(4), [1, 2, 0, 3]);
        let mut all = middle_out(14);
        all.sort_unstable();
        assert_eq!(all, (0..14).collect::<Vec<_>>());
    }

    #[test]
    fn strata_picks_depend_only_on_the_seed() {
        let strata = [["a", "b"], ["c", "d"], ["e", "f"]];
        let order = middle_out(3);
        assert_eq!(pick_strata(7, &strata, &order), pick_strata(7, &strata, &order));
        let distinct: std::collections::BTreeSet<_> =
            (0..32).map(|s| pick_strata(s, &strata, &order)).collect();
        assert!(distinct.len() > 1, "different seeds pick different subsets");
    }
}
