//! Conformance pins: §VIII temporal safety and the automatic shrinker.
//!
//! * The use-after-free fuzz class asserts extent nullification end to
//!   end: the `free` poisons the dangling pointer (the EC faults the next
//!   dereference) and the forensics log attributes the fault to the FREE
//!   site with a positive poison-to-fault latency.
//! * The double-free class is validated by the device-runtime allocator
//!   and classified as `Temporal(DoubleFree)`.
//! * The shrinker regression pins a seed whose known-failing mutant must
//!   minimize to a bounded reproducer, identically at both engine points
//!   (untraced and traced).

use lmi::conformance::{
    build, generate, lmi_run, mutate, run_case, shrink, DefectClass, EnginePoint, OracleConfig,
};
use lmi::core::{TemporalKind, Violation};
use lmi::telemetry::SplitMix64;

const POINT: EnginePoint = EnginePoint { traced: false };

#[test]
fn uaf_nullification_poisons_the_dangling_pointer() {
    let mut rng = SplitMix64::new(0xFEED);
    for seed in 0..12 {
        let (mutant, defect) = mutate(&generate(seed), DefectClass::Uaf, &mut rng);
        let func = build(&mutant, Some(&defect));
        let stats = lmi_run(&func, &mutant.globals, POINT).expect("uaf mutant compiles");
        assert!(stats.violated(), "seed {seed}: dangling access undetected");
        // The nullified extent makes the dangling pointer invalid — the
        // fault is a dead-pointer dereference, never a spatial escape.
        let v = &stats.violations[0].violation;
        assert!(
            matches!(v, Violation::InvalidPointer { .. } | Violation::Temporal(_)),
            "seed {seed}: UAF classified as {v:?}"
        );
        // §VIII forensics: poison attributed to the FREE site, fault
        // strictly later.
        let rec = stats
            .forensics
            .first()
            .unwrap_or_else(|| panic!("seed {seed}: no forensic record for the UAF fault"));
        assert_eq!(rec.poison.op, "FREE", "seed {seed}: poison not attributed to the free");
        assert!(rec.latency_cycles() > 0, "seed {seed}: poison-to-fault latency must be positive");
    }
}

#[test]
fn double_free_is_validated_by_the_allocator() {
    let mut rng = SplitMix64::new(0xF00D);
    for seed in 0..12 {
        let (mutant, defect) = mutate(&generate(seed), DefectClass::DoubleFree, &mut rng);
        let func = build(&mutant, Some(&defect));
        let stats = lmi_run(&func, &mutant.globals, POINT).expect("double-free mutant compiles");
        assert!(stats.violated(), "seed {seed}: double free undetected");
        assert!(
            stats
                .violations
                .iter()
                .any(|e| e.violation == Violation::Temporal(TemporalKind::DoubleFree)),
            "seed {seed}: double free classified as {:?}",
            stats.violations[0].violation
        );
    }
}

/// Temporal classes through the full differential matrix: every mechanism
/// flags the allocator-validated double free, while only LMI's extent
/// nullification catches the dangling dereference.
#[test]
fn temporal_classes_hold_across_the_matrix() {
    let cfg = OracleConfig::quick();
    let mut rng = SplitMix64::new(0xBEEF);
    for seed in 40..46 {
        let safe = generate(seed);
        for class in [DefectClass::Uaf, DefectClass::DoubleFree] {
            let (mutant, defect) = mutate(&safe, class, &mut rng);
            run_case(&mutant, Some(&defect), &cfg)
                .unwrap_or_else(|f| panic!("seed {seed} {}: {f}", class.label()));
        }
    }
}

/// Pinned-seed shrinker regression: the known-failing spatial mutant of
/// seed 7 reduces to a minimal reproducer — bounded op count, identical
/// output with tracing off and on, and a paste-ready test.
#[test]
fn shrinker_is_bounded_and_engine_deterministic() {
    const SEED: u64 = 7;
    const MAX_IR_OPS: usize = 12;
    let mut rng = SplitMix64::new(0x5EED);
    let (mutant, defect) = mutate(&generate(SEED), DefectClass::SpatialNear, &mut rng);

    let mut reps = [false, true].map(|traced| shrink(&mutant, &defect, EnginePoint { traced }));
    let reference = reps[0].clone();
    assert!(
        reference.op_count <= MAX_IR_OPS,
        "seed {SEED} shrank to {} IR ops (> {MAX_IR_OPS})",
        reference.op_count
    );
    for rep in &mut reps[1..] {
        assert_eq!(rep.recipe, reference.recipe, "shrunk recipe differs when traced");
        assert_eq!(rep.defect, reference.defect, "remapped defect differs when traced");
        assert_eq!(rep.function, reference.function, "shrunk IR differs when traced");
        assert_eq!(rep.op_count, reference.op_count);
        assert_eq!(rep.to_test_source(), reference.to_test_source());
    }

    // The rendered reproducer carries the pinned seed and class.
    let src = reference.to_test_source();
    assert!(src.contains("seed 7"), "reproducer must name its seed");
    assert!(src.contains("spatial-near"), "reproducer must name its class");
    assert!(src.contains("#[test]"), "reproducer must be a paste-ready test");

    // And the minimized case still fails for the original reason.
    let stats = lmi_run(&reference.function, &reference.recipe.globals, POINT)
        .expect("shrunk reproducer compiles");
    assert!(stats.violated(), "shrunk reproducer lost the failure");
}
