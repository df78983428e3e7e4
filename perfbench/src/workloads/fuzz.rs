//! `fuzz_oracle`: a user fuzzing the mechanisms.
//!
//! The inputs come from a fixed pool of generated kernels: recipe `r` is
//! `generate(r)` plus one `mutate` per defect class drawn from
//! `SplitMix64::new(r)`, six cases in all. The seed shuffles the order of
//! the pool's recipes. An op is one `run_case` over the quick oracle's
//! five mechanisms at its reference (serial) engine point: five
//! ~50-instruction one-warp launches, so per-launch fixed cost dominates.

use crate::api::{
    self, generate, mutate, Defect, DefectClass, Json, OracleConfig, Recipe, SplitMix64,
    ALL_CLASSES,
};
use crate::golden::{digest, render, Golden};
use crate::spans::Spans;
use crate::workloads::{Layers, Workload};

/// Recipes in the pool (six cases each).
pub const POOL: u64 = 512;

/// Cases per recipe: the safe kernel plus one mutant per class.
pub const CASES_PER_RECIPE: usize = 1 + ALL_CLASSES.len();

const GOLDEN: &str = include_str!("../../golden/fuzz_oracle.tsv");

/// One oracle case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Pool index of the recipe.
    pub recipe_index: u64,
    /// The (possibly mutated) recipe.
    pub recipe: Recipe,
    /// The injected defect (`None` for the safe kernel).
    pub defect: Option<Defect>,
    /// Generator state the mutation was drawn from.
    rng_before: SplitMix64,
}

impl Case {
    fn key(&self) -> String {
        let what = self.defect.map_or("safe", |d| d.class.label());
        format!("{}/{what}", self.recipe_index)
    }
}

/// The six cases of pool recipe `r`.
pub fn recipe_cases(r: u64) -> Vec<Case> {
    let safe = generate(r);
    let mut rng = SplitMix64::new(r);
    let mut cases =
        vec![Case { recipe_index: r, recipe: safe.clone(), defect: None, rng_before: rng.clone() }];
    for class in ALL_CLASSES {
        let rng_before = rng.clone();
        let (recipe, defect) = mutate(&safe, class, &mut rng);
        cases.push(Case { recipe_index: r, recipe, defect: Some(defect), rng_before });
    }
    cases
}

/// Every case a seed runs, in run order.
pub fn inputs(seed: u64) -> Vec<Case> {
    let mut order: Vec<u64> = (0..POOL).collect();
    SplitMix64::new(seed).shuffle(&mut order);
    order.into_iter().flat_map(recipe_cases).collect()
}

/// Golden value of a verdict: oracle passed, LMI's detection bit, and a
/// digest of every mechanism's observation.
fn verdict(report: &api::CaseReport) -> String {
    format!(
        "ok lmi={} {}",
        u8::from(api::lmi_detected(report)),
        digest(api::case_fingerprint(report).as_bytes())
    )
}

/// The workload state.
pub struct Fuzz {
    cases: Vec<Case>,
    cfg: OracleConfig,
    golden: Golden,
    /// Traced: simulations and cases seen.
    sims: u64,
    traced_cases: u64,
}

impl Fuzz {
    /// Generates the seed's cases and loads the golden values.
    pub fn new(seed: u64) -> Result<Fuzz, String> {
        let golden = Golden::parse(GOLDEN)?;
        let cases = inputs(seed);
        let cfg = api::oracle_config();
        // Warm-up: one oracle case.
        let warm = &cases[0];
        std::hint::black_box(api::oracle_case(
            &warm.recipe,
            warm.defect.as_ref(),
            &cfg,
            &mut Spans::off(),
        ))
        .map_err(|f| format!("warm-up case {}: {f}", warm.key()))?;
        Ok(Fuzz { cases, cfg, golden, sims: 0, traced_cases: 0 })
    }

    fn case(&self, i: usize) -> &Case {
        &self.cases[i % self.cases.len()]
    }
}

impl Workload for Fuzz {
    fn group(&self) -> usize {
        CASES_PER_RECIPE
    }

    fn run_op(&mut self, i: usize, spans: &mut Spans) -> Result<Option<u64>, String> {
        let case = self.case(i);
        let key = case.key();
        let report = api::oracle_case(&case.recipe, case.defect.as_ref(), &self.cfg, spans)
            .map_err(|f| format!("{key}: oracle failure: {f}"))?;
        if spans.enabled() {
            self.sims += api::sims_per_case(&self.cfg, &report);
            self.traced_cases += 1;
        }
        self.golden.check(&key, &verdict(&report))?;
        Ok(None)
    }

    fn probe(&mut self, i: usize, spans: &mut Spans) -> Result<(), String> {
        let case = self.case(i).clone();
        match case.defect {
            None => {
                let again = spans.time("conformance.generate", || generate(case.recipe_index));
                if again != case.recipe {
                    return Err(format!("{}: generate is not deterministic", case.key()));
                }
            }
            Some(defect) => {
                let safe = generate(case.recipe_index);
                let mut rng = case.rng_before.clone();
                let (again, d) =
                    spans.time("conformance.mutate", || mutate(&safe, defect.class, &mut rng));
                if again != case.recipe || d != defect {
                    return Err(format!("{}: mutate is not deterministic", case.key()));
                }
            }
        }
        let stats = api::replay_case_layers(&case.recipe, case.defect.as_ref(), spans);
        let rejected = case.defect.is_some_and(|d| d.class == DefectClass::IntToPtrEscape);
        if stats.is_none() != rejected {
            return Err(format!("{}: layer replay disagrees on compile rejection", case.key()));
        }
        Ok(())
    }

    fn layers(&self, _spans: &Spans, out: &mut Layers) {
        if self.traced_cases > 0 {
            out.insert("conformance.sims_per_case", self.sims as f64 / self.traced_cases as f64);
        }
    }

    fn info(&self) -> Json {
        Json::obj().with("pool_recipes", POOL).with("cases", self.cases.len())
    }
}

/// Golden text: the verdict of every pool case.
pub fn record() -> Result<String, String> {
    let cfg = api::oracle_config();
    let mut entries = Vec::new();
    for r in 0..POOL {
        for case in recipe_cases(r) {
            let report =
                api::oracle_case(&case.recipe, case.defect.as_ref(), &cfg, &mut Spans::off())
                    .map_err(|f| format!("{}: oracle failure: {f}", case.key()))?;
            entries.push((case.key(), verdict(&report)));
        }
    }
    Ok(render(
        "fuzz_oracle golden: run_case verdict per pool case (LMI detection bit, digest of \
         every mechanism's detection/forensics)",
        &entries,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_loop, Stop};

    #[test]
    fn seed_gives_identical_inputs() {
        let (a, b) = (inputs(5), inputs(5));
        assert_eq!(a.len(), POOL as usize * CASES_PER_RECIPE);
        assert!(a.iter().zip(&b).all(|(x, y)| x.recipe == y.recipe && x.defect == y.defect));
        assert_ne!(inputs(6)[0].recipe_index, a[0].recipe_index);
    }

    #[test]
    fn golden_mismatch_and_oracle_failure_count_as_errors() {
        let mut w = Fuzz::new(3).expect("set-up");
        let clean = run_loop(&mut w, &mut Spans::off(), Stop::Ops(CASES_PER_RECIPE));
        assert_eq!((clean.tally.attempted, clean.tally.failed), (6, 0), "{:?}", clean.tally.errors);

        // A corrupted golden value fails exactly its op.
        let key = w.case(0).key();
        w.golden.set(&key, "ok lmi=0 0000000000000000");
        let broken = run_loop(&mut w, &mut Spans::off(), Stop::Ops(CASES_PER_RECIPE));
        assert_eq!(broken.tally.failed, 1);
        assert!(broken.tally.errors[0].contains("golden"), "{:?}", broken.tally.errors);
        assert!((broken.tally.error_rate() - 1.0 / 6.0).abs() < 1e-12);

        // Masking a class the oracle must detect turns the detection into
        // an oracle failure.
        let mut w = Fuzz::new(3).expect("set-up");
        api::mask_class(&mut w.cfg, DefectClass::SpatialNear);
        let masked = run_loop(&mut w, &mut Spans::off(), Stop::Ops(CASES_PER_RECIPE));
        assert_eq!(masked.tally.failed, 1, "{:?}", masked.tally.errors);
        assert!(masked.tally.errors[0].contains("oracle failure"), "{:?}", masked.tally.errors);
    }
}
