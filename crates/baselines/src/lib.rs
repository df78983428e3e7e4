//! # lmi-baselines — the mechanisms LMI is compared against
//!
//! Reimplementations (from their papers' descriptions, exactly as the
//! cuCatch and LMI authors did for their comparison tables) of:
//!
//! * [`gpushield`] — GPUShield (ISCA'22): hardware region-based bounds
//!   checking for kernel-argument buffers with a per-SM **RCache** whose
//!   misses stall loads/stores on an L2 bounds-table fetch — the effect
//!   behind its `needle`/`LSTM` overhead in paper Fig. 12; coarse
//!   single-region checks for heap and local memory.
//! * [`baggy`] — Baggy Bounds Checking (USENIX Sec'09) naively adapted to
//!   the GPU: a software pass injecting the bounds-check instruction
//!   sequence after every pointer operation (paper §X-A).
//! * [`dbi`] — an NVBit-style dynamic-binary-instrumentation engine: the
//!   LMI-DBI tool (checks after every pointer-handling and memory
//!   instruction) and a Compute-Sanitizer-memcheck-style tool (tripwire
//!   checks around loads/stores only), reproducing paper Fig. 13.
//! * [`canary`] — GMOD/clARMOR-style canary checking (detects adjacent
//!   overwrites at synchronization points only).
//! * [`cucatch`] — cuCatch's shadow-tag detection model (no device-heap
//!   coverage, immediate-only temporal detection).
//! * [`instrument`](mod@instrument) — the shared binary-rewriting engine
//!   (injection with branch-target remapping) underneath the software
//!   mechanisms.

pub mod baggy;
pub mod canary;
pub mod cucatch;
pub mod dbi;
pub mod gpushield;
pub mod instrument;

pub use baggy::instrument_baggy;
pub use canary::CanaryAllocator;
pub use cucatch::CuCatch;
pub use dbi::{instrument_lmi_dbi, instrument_memcheck, JIT_OVERHEAD};
pub use gpushield::GpuShield;
pub use instrument::instrument;
