//! # lmi-conformance — generative conformance fuzzing for the LMI stack
//!
//! This crate closes the loop between the compiler, the simulator, and the
//! protection mechanisms with a differential fuzzer:
//!
//! * [`recipe`] generates random kernels over the full `lmi-compiler` IR
//!   surface — multi-buffer parameters, shared/stack/heap regions, nested
//!   loops, divergent branches, line-straddling widths — inside a *safety
//!   envelope* that makes every generated kernel provably in-bounds.
//! * [`defect`] mutates a safe recipe to inject exactly one classified
//!   memory-safety defect (spatial near/far, use-after-free, double free,
//!   forbidden `inttoptr` cast).
//! * [`oracle`] runs each case across the mechanism × engine matrix (Null,
//!   LMI, GPUShield, Baggy, canary × untraced and traced runs) and checks
//!   transparency, detection-by-class, and that tracing never perturbs
//!   the simulation.
//! * [`mod@shrink`] delta-debugs any failing case — first over the recipe,
//!   then over the built IR — down to a minimal reproducer it renders as a
//!   ready-to-paste regression test.
//! * [`corpus`] round-trips cases through JSON for corpus persistence.
//!
//! The `fuzz` binary in `crates/bench` drives these pieces from the
//! command line; `tests/differential_fuzz.rs` and `tests/conformance.rs`
//! pin the invariants in CI.

#![warn(missing_docs)]

pub mod corpus;
pub mod defect;
pub mod oracle;
pub mod recipe;
pub mod shrink;

pub use corpus::{case_from_json, case_to_json, CORPUS_SCHEMA};
pub use defect::{mutate, Defect, DefectClass, ALL_CLASSES, FAR_DELTA};
pub use oracle::{
    expectation, lmi_run, run_case, CaseFailure, CaseReport, EnginePoint, Expect, MechanismKind,
    MechanismReport, OracleConfig, ALL_MECHANISMS,
};
pub use recipe::{build, generate, BufSpec, Loc, OpSpec, Recipe, THREADS};
pub use shrink::{shrink, Reproducer};
