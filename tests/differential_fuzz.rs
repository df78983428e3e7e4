//! Differential fuzzing over the `lmi-conformance` generator.
//!
//! Random well-typed kernels spanning the full IR surface — multi-buffer
//! parameters, shared memory, stack buffers, device `malloc`/`free`,
//! divergent branches, nested loops, line-straddling widths — run through
//! the mechanism × engine oracle matrix:
//!
//! * **No false positives**: a safe-by-construction kernel never faults
//!   under any mechanism (correct-by-construction, delayed termination).
//! * **Semantic transparency**: every mechanism produces bit-identical
//!   global-buffer contents on safe kernels.
//! * **Detection by class**: one injected defect per class is caught by
//!   exactly the mechanisms whose design covers it (LMI all of them).
//! * **Engine determinism**: statistics and memory are bit-identical
//!   with counters and the tracer off and on.
//!
//! Seeded by `lmi-telemetry`'s SplitMix64 so failures reproduce exactly;
//! case budgets are modest because debug-mode CI runs each case as ten
//! simulations (5 mechanisms × 2 engine points).

use lmi::conformance::{generate, mutate, run_case, DefectClass, OracleConfig, ALL_CLASSES};
use lmi::telemetry::SplitMix64;

/// Seed base distinct from the crate's unit tests, to widen net coverage.
const SEED_BASE: u64 = 0x00D1_FF00;

#[test]
fn safe_kernels_are_transparent_and_false_positive_free() {
    let cfg = OracleConfig::quick();
    let (mut saw_shared, mut saw_heap, mut saw_divergent, mut saw_nested) =
        (false, false, false, false);
    for case in 0..24 {
        let recipe = generate(SEED_BASE + case);
        saw_shared |= recipe.shared_elems > 0;
        saw_heap |= recipe.heap_elems > 0;
        saw_divergent |= recipe.divergent;
        saw_nested |= recipe.inner_trips > 0;
        let report = run_case(&recipe, None, &cfg)
            .unwrap_or_else(|f| panic!("case {case}: {f} (recipe {recipe:?})"));
        for m in &report.mechanisms {
            assert!(!m.detected, "case {case}: false positive under {}", m.mechanism.label());
        }
    }
    // The invariants above are only meaningful if the sample actually
    // exercised the interesting IR surface.
    assert!(saw_shared, "no safe case used shared memory");
    assert!(saw_heap, "no safe case used the device heap");
    assert!(saw_divergent, "no safe case diverged");
    assert!(saw_nested, "no safe case had nested loops");
}

#[test]
fn injected_defects_match_the_coverage_matrix() {
    let cfg = OracleConfig::quick();
    let mut rng = SplitMix64::new(SEED_BASE);
    let mut spatial = (0usize, 0usize);
    for case in 0..8 {
        let safe = generate(SEED_BASE + 100 + case);
        for class in ALL_CLASSES {
            let (mutant, defect) = mutate(&safe, class, &mut rng);
            // `run_case` internally enforces the full expectation matrix
            // (detect/miss per mechanism, violation classification, UAF
            // forensics, engine determinism) and fails loudly otherwise.
            let report = run_case(&mutant, Some(&defect), &cfg)
                .unwrap_or_else(|f| panic!("case {case} {}: {f}", class.label()));
            if class.is_spatial() {
                spatial.0 += 1;
                let lmi_hit = report
                    .mechanisms
                    .iter()
                    .any(|m| m.mechanism == lmi::conformance::MechanismKind::Lmi && m.detected);
                if lmi_hit {
                    spatial.1 += 1;
                }
            }
            if class == DefectClass::IntToPtrEscape {
                assert!(
                    report.compile_rejected,
                    "case {case}: cast mutant must die in the compiler"
                );
            }
        }
    }
    assert_eq!(spatial.0, spatial.1, "LMI must detect every injected spatial defect");
}

/// Divergence-specific regression: a defect placed in each divergent arm
/// (and after reconvergence) is still caught — detection does not depend
/// on which half-warp executes the access.
#[test]
fn divergent_arm_placement_does_not_mask_detection() {
    let mut rng = SplitMix64::new(SEED_BASE + 999);
    let cfg = OracleConfig::quick();
    let mut divergent_hits = 0;
    for case in 0..40 {
        let safe = generate(SEED_BASE + 200 + case);
        if !safe.divergent {
            continue;
        }
        for class in [DefectClass::SpatialNear, DefectClass::SpatialFar] {
            let (mutant, defect) = mutate(&safe, class, &mut rng);
            divergent_hits += 1;
            run_case(&mutant, Some(&defect), &cfg)
                .unwrap_or_else(|f| panic!("case {case} arm {}: {f}", mutant.ops[defect.op].arm));
        }
        if divergent_hits >= 10 {
            break;
        }
    }
    assert!(divergent_hits >= 6, "sample produced too few divergent mutants");
}
