//! # lmi-sim — a cycle-level SIMT GPU simulator
//!
//! The evaluation substrate standing in for MacSim (paper §X): an in-order
//! SIMT simulator with the Table IV configuration — 80 SM cores, four
//! greedy-then-oldest warp schedulers per SM, a per-warp register
//! scoreboard for latency hiding, a coalescing load/store unit, per-SM L1s,
//! a shared L2 and an HBM DRAM model (from `lmi-mem`).
//!
//! Memory-safety mechanisms plug in through the [`Mechanism`] trait:
//!
//! * integer-ALU results of hint-marked instructions pass through
//!   [`Mechanism::on_marked_int`] — where LMI's OCU lives;
//! * every memory access passes through [`Mechanism::on_mem_access`] —
//!   where LMI's EC and GPUShield's RCache live.
//!
//! Software mechanisms (Baggy Bounds, DBI) need no hooks at all: they
//! rewrite the program and their cost emerges from executing the extra
//! instructions.
//!
//! ## Example
//!
//! ```
//! use lmi_sim::{Gpu, GpuConfig, Launch, LmiMechanism};
//! use lmi_isa::{Instruction, ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new("noop");
//! b.push(Instruction::exit());
//! let program = b.build();
//!
//! let mut gpu = Gpu::new(GpuConfig::small());
//! let stats = gpu.run(
//!     &Launch::new(program).grid(2).block(64),
//!     &mut LmiMechanism::default_config(),
//! );
//! assert!(stats.cycles > 0);
//! ```

pub mod config;
pub(crate) mod engine;
pub mod exec;
pub mod gpu;
pub mod launch;
pub mod lsu;
pub mod mechanism;
pub mod sm;
pub mod stats;
pub mod trace;
pub mod warp;

pub use config::GpuConfig;
pub use gpu::{Gpu, KernelOutcome, MemorySnapshot, ResidentKernel, ResidentOutcome};
pub use launch::{Launch, LaunchError};
pub use mechanism::{IntCheck, LmiMechanism, Mechanism, MemAccessCtx, MemCheck, NullMechanism};
pub use stats::{SimStats, StallBreakdown, ViolationEvent};
