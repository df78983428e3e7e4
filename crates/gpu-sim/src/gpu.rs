//! The full GPU: SMs, the shared memory hierarchy, the device heap, and the
//! run entry points. [`Gpu::run_resident`] is the one body that builds SMs
//! and drives the cycle engine: it runs a cohort of kernels from different
//! streams/tenants concurrently on disjoint SM partitions (`lmi-runtime`'s
//! primitive), and [`Gpu::launch`]/[`Gpu::run`] run a single kernel as a
//! one-member cohort spanning every SM.

use std::ops::Range;
use std::sync::Arc;

use lmi_alloc::{AlignmentPolicy, DeviceHeap};
use lmi_core::PtrConfig;
use lmi_isa::DecodedStream;
use lmi_mem::{layout, Cache, CacheStats, MemorySystem, SparseMemory};
use lmi_telemetry::{Scope, TelemetrySink};

use crate::config::GpuConfig;
use crate::engine::{self, KernelSlot, SharedCtx};
use crate::launch::{Launch, LaunchError};
use crate::mechanism::Mechanism;
use crate::sm::{LaunchCtx, Sm};
use crate::stats::SimStats;

/// Per-resident-kernel stride separating the *layout* tids that back local
/// windows: concurrent kernels' stacks can never alias as long as one
/// launch stays under a million threads.
const LAYOUT_TID_STRIDE: u64 = 1 << 20;

/// Per-resident-kernel stride separating shared-memory windows, in blocks.
const LAYOUT_BLOCK_STRIDE: u64 = 1 << 12;

/// One kernel of a resident cohort: what to run, under which mechanism and
/// heap, where (an SM partition), and when (an admission offset in cycles).
pub struct ResidentKernel<'a> {
    /// The launch descriptor.
    pub launch: &'a Launch,
    /// The memory-safety mechanism guarding this kernel (per-tenant).
    pub mechanism: &'a mut dyn Mechanism,
    /// Device heap serving this kernel's `malloc`/`free`; `None` uses the
    /// GPU's own heap.
    pub heap: Option<&'a DeviceHeap>,
    /// The SM partition (disjoint from every other cohort member's).
    pub partition: Range<usize>,
    /// Cycle at which the kernel is admitted: added to every warp's
    /// dispatch ramp, so a kernel submitted mid-run starts late without
    /// any engine-level gating.
    pub start_offset: u64,
}

/// Per-kernel result of a resident cohort run.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOutcome {
    /// This kernel's statistics. `cycles` is measured from the kernel's
    /// `start_offset` to its last warp's retirement; `l1_per_sm` holds the
    /// deltas of the kernel's partition only (index 0 = partition start).
    /// Run-level shared counters (L2, MSHR, DRAM) live on
    /// [`ResidentOutcome`] — the L2 is shared, so per-kernel attribution
    /// would be fiction.
    pub stats: SimStats,
    /// Absolute engine cycle at which the kernel's last warp retired.
    pub completed_at: u64,
}

/// Result of one resident cohort run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentOutcome {
    /// Per-kernel outcomes, in submission order.
    pub kernels: Vec<KernelOutcome>,
    /// Final engine cycle (all kernels drained).
    pub makespan: u64,
    /// Shared-L2 delta over the whole cohort.
    pub l2: CacheStats,
    /// MSHR merges over the whole cohort.
    pub mshr_merges: u64,
    /// DRAM transactions over the whole cohort.
    pub dram_transactions: u64,
}

/// A simulated GPU.
///
/// The functional byte store ([`Gpu::memory`]) and the device heap persist
/// across launches, so a host program can allocate, launch, inspect, and
/// launch again — the pattern the security suite and the examples use.
pub struct Gpu {
    cfg: GpuConfig,
    /// Per-SM L1 caches. SM-local state (probed in phase A), but owned
    /// here so warmth and statistics persist across launches; each run
    /// lends the engine one `&mut Cache` per participating SM.
    l1: Vec<Cache>,
    /// The shared memory system: L2, MSHRs, DRAM.
    hierarchy: MemorySystem,
    /// Functional backing store for all address spaces.
    pub memory: SparseMemory,
    heap: DeviceHeap,
}

/// A functional-memory snapshot of selected address ranges, taken with
/// [`Gpu::snapshot`] and re-applied with [`Gpu::restore`].
///
/// Snapshots are the conformance suite's replay entry point: capture the
/// seeded input image once, restore it into a fresh [`Gpu`] per mechanism
/// and engine point, run the same launch, and compare post-run snapshots
/// — `PartialEq` makes "bit-identical memory" a single assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySnapshot {
    /// `(base address, bytes)` pairs, in capture order.
    pub regions: Vec<(u64, Vec<u8>)>,
}

impl MemorySnapshot {
    /// Total captured bytes.
    pub fn len(&self) -> usize {
        self.regions.iter().map(|(_, b)| b.len()).sum()
    }

    /// `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

impl Gpu {
    /// Creates a GPU whose device heap uses LMI's power-of-two policy.
    pub fn new(cfg: GpuConfig) -> Gpu {
        Gpu::with_heap_policy(cfg, AlignmentPolicy::PowerOfTwo)
    }

    /// Creates a GPU with an explicit device-heap policy (the unprotected
    /// baseline uses [`AlignmentPolicy::CudaDefault`]).
    pub fn with_heap_policy(cfg: GpuConfig, policy: AlignmentPolicy) -> Gpu {
        Gpu {
            cfg,
            l1: (0..cfg.num_sms).map(|_| Cache::new(cfg.hierarchy.l1)).collect(),
            hierarchy: MemorySystem::new(&cfg.hierarchy),
            memory: SparseMemory::new(),
            heap: DeviceHeap::new(
                PtrConfig::default(),
                policy,
                layout::HEAP_BASE,
                64,
                16 * 1024 * 1024,
            ),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The device heap (for inspection by tests and the security suite).
    pub fn heap(&self) -> &DeviceHeap {
        &self.heap
    }

    /// Total DRAM transactions issued so far.
    pub fn dram_transactions(&self) -> u64 {
        self.hierarchy.dram_transactions()
    }

    /// L1 statistics for one SM.
    pub fn l1_stats(&self, sm: usize) -> lmi_mem::CacheStats {
        self.l1[sm].stats()
    }

    /// Shared L2 statistics.
    pub fn l2_stats(&self) -> lmi_mem::CacheStats {
        self.hierarchy.l2_stats()
    }

    /// Captures the functional contents of `(base, len)` address ranges.
    pub fn snapshot(&self, ranges: &[(u64, u64)]) -> MemorySnapshot {
        let regions = ranges
            .iter()
            .map(|&(base, len)| {
                let mut bytes = vec![0u8; len as usize];
                self.memory.read_bytes(base, &mut bytes);
                (base, bytes)
            })
            .collect();
        MemorySnapshot { regions }
    }

    /// Writes a snapshot back into functional memory (replay setup).
    pub fn restore(&mut self, snapshot: &MemorySnapshot) {
        for (base, bytes) in &snapshot.regions {
            self.memory.write_bytes(*base, bytes);
        }
    }

    /// Runs one kernel to completion under `mechanism`; returns statistics.
    ///
    /// # Panics
    ///
    /// Panics if the launch is invalid ([`Launch::validate`]) — use
    /// [`Gpu::launch`] to get the typed [`LaunchError`] instead.
    pub fn run(&mut self, launch: &Launch, mechanism: &mut dyn Mechanism) -> SimStats {
        // Forensics still flow into `SimStats::forensics` (they only cost
        // time on violations); counters and the tracer stay off.
        let mut sink = TelemetrySink::disabled();
        self.launch(launch, mechanism, &mut sink).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs one kernel to completion on every SM, recording telemetry into
    /// `sink`; invalid launches are rejected with a typed [`LaunchError`].
    ///
    /// A single kernel is a one-member cohort of [`Gpu::run_resident`]
    /// (partition `0..num_sms`, admitted at cycle 0, on the GPU's heap),
    /// whose run-level L2/MSHR/DRAM deltas are all this kernel's.
    pub fn launch(
        &mut self,
        launch: &Launch,
        mechanism: &mut dyn Mechanism,
        sink: &mut TelemetrySink,
    ) -> Result<SimStats, LaunchError> {
        let partition = 0..self.cfg.num_sms;
        let mut jobs =
            [ResidentKernel { launch, mechanism, heap: None, partition, start_offset: 0 }];
        let outcome = self.run_resident(&mut jobs, sink)?;
        let mut stats = outcome.kernels.into_iter().next().expect("one kernel, one outcome").stats;
        stats.l2 = outcome.l2;
        stats.mshr_merges = outcome.mshr_merges;
        stats.dram_transactions = outcome.dram_transactions;
        Ok(stats)
    }

    /// Runs a *cohort* of kernels resident together: each kernel occupies
    /// its own SM partition, owns its own mechanism/heap/stats, and is
    /// admitted at its `start_offset`, while all of them contend for the
    /// shared L2/MSHR/DRAM. One engine run simulates the whole cohort —
    /// this is the primitive `lmi-runtime` builds streams on, and the only
    /// place that builds SMs and drives the engine.
    ///
    /// The hierarchy's cache/DRAM counters persist across runs (the host
    /// may launch several kernels against the same GPU), so the outcome
    /// carries per-run *deltas*, snapshotted around the engine run.
    ///
    /// Every launch is validated against its partition before anything
    /// runs: on error the GPU state is untouched.
    pub fn run_resident(
        &mut self,
        jobs: &mut [ResidentKernel<'_>],
        sink: &mut TelemetrySink,
    ) -> Result<ResidentOutcome, LaunchError> {
        // Validate geometry and partition disjointness up front.
        let mut claimed: Vec<bool> = vec![false; self.cfg.num_sms];
        for job in jobs.iter() {
            let p = &job.partition;
            if p.is_empty() || p.end > self.cfg.num_sms {
                return Err(LaunchError::BadPartition {
                    start: p.start,
                    end: p.end,
                    num_sms: self.cfg.num_sms,
                });
            }
            for sm in p.clone() {
                if claimed[sm] {
                    return Err(LaunchError::BadPartition {
                        start: p.start,
                        end: p.end,
                        num_sms: self.cfg.num_sms,
                    });
                }
                claimed[sm] = true;
            }
            job.launch.validate_on(&self.cfg, p.len())?;
        }

        // Build each kernel's SMs on its partition, dispatch its blocks
        // round-robin within the partition, and delay every warp by the
        // kernel's admission offset.
        let mut sms: Vec<Sm> = Vec::with_capacity(jobs.iter().map(|j| j.partition.len()).sum());
        let mut kernel_of_sm = vec![0usize; self.cfg.num_sms];
        for (k, job) in jobs.iter().enumerate() {
            let launch = job.launch;
            // Lower the program to its flat decoded form exactly once; the
            // cycle loop never decodes again. Corrupt microcode (bad ISETP
            // immediates, unknown S2R selectors) is rejected here.
            let stream = Arc::new(DecodedStream::lower(&launch.program)?);
            let ctx = Arc::new(LaunchCtx {
                params: launch.params.clone(),
                stack_bytes: self.cfg.stack_bytes,
                threads_per_block: launch.threads_per_block,
                layout_tid_base: k as u64 * LAYOUT_TID_STRIDE,
                layout_block_base: k as u64 * LAYOUT_BLOCK_STRIDE,
            });
            let regs = launch.program.regs_per_thread.max(8) as usize;
            let first = sms.len();
            sms.extend(
                job.partition.clone().map(|id| Sm::new(id, Arc::clone(&stream), Arc::clone(&ctx))),
            );
            let part = &mut sms[first..];
            let plen = part.len();
            for block in 0..launch.grid_blocks {
                part[block % plen].add_block(block, launch, regs);
            }
            for sm in part {
                kernel_of_sm[sm.id] = k;
                for warp in &mut sm.warps {
                    warp.start_cycle += job.start_offset;
                }
            }
        }
        // Canonical phase-B order is ascending SM id, independent of the
        // cohort's submission order.
        sms.sort_by_key(|sm| sm.id);

        let l1_before: Vec<CacheStats> =
            (0..self.cfg.num_sms).map(|sm| self.l1[sm].stats()).collect();
        let l2_before = self.hierarchy.l2_stats();
        let mshr_before = self.hierarchy.mshr_merges();
        let dram_before = self.hierarchy.dram_transactions();

        let mut stats: Vec<SimStats> = jobs.iter().map(|_| SimStats::default()).collect();
        let makespan = {
            let kernels: Vec<KernelSlot> = jobs
                .iter_mut()
                .zip(stats.iter_mut())
                .map(|(job, st)| KernelSlot {
                    mechanism: &mut *job.mechanism,
                    stats: st,
                    heap: job.heap.unwrap_or(&self.heap),
                })
                .collect();
            let mut shared = SharedCtx {
                hierarchy: &mut self.hierarchy,
                memory: &mut self.memory,
                kernels,
                kernel_of_sm,
                cfg: &self.cfg,
                sink: &mut *sink,
            };
            // One L1 per claimed SM, aligned with `sms` (both are in
            // ascending SM-id order; partitions are disjoint).
            let l1s: Vec<&mut Cache> = self
                .l1
                .iter_mut()
                .zip(&claimed)
                .filter(|(_, &used)| used)
                .map(|(c, _)| c)
                .collect();
            engine::run(&mut sms, l1s, &mut shared)
        };

        let delta = |after: CacheStats, before: CacheStats| CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
        };
        let l2 = delta(self.hierarchy.l2_stats(), l2_before);
        let mshr_merges = self.hierarchy.mshr_merges() - mshr_before;
        let dram_transactions = self.hierarchy.dram_transactions() - dram_before;

        let mut kernels = Vec::with_capacity(jobs.len());
        for (job, mut st) in jobs.iter().zip(stats) {
            let completed_at = sms
                .iter()
                .filter(|sm| job.partition.contains(&sm.id))
                .filter_map(|sm| sm.done_cycle)
                .max()
                .unwrap_or(job.start_offset);
            st.cycles = completed_at.saturating_sub(job.start_offset).max(1);
            st.l1_per_sm =
                job.partition.clone().map(|sm| delta(self.l1[sm].stats(), l1_before[sm])).collect();
            kernels.push(KernelOutcome { stats: st, completed_at });
        }

        if sink.counters.is_enabled() {
            sink.counters.add(Scope::Gpu, "cycles", makespan.max(1));
            sink.counters.add(Scope::Gpu, "mshr_merges", mshr_merges);
            sink.counters.add(Scope::Gpu, "dram_transactions", dram_transactions);
            sink.counters.add(Scope::Gpu, "l2.hits", l2.hits);
            sink.counters.add(Scope::Gpu, "l2.misses", l2.misses);
            for (job, outcome) in jobs.iter().zip(&kernels) {
                for (i, sm) in job.partition.clone().enumerate() {
                    let l1 = outcome.stats.l1_per_sm[i];
                    sink.counters.add(Scope::Sm(sm), "l1.hits", l1.hits);
                    sink.counters.add(Scope::Sm(sm), "l1.misses", l1.misses);
                }
            }
        }
        Ok(ResidentOutcome {
            kernels,
            makespan: makespan.max(1),
            l2,
            mshr_merges,
            dram_transactions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{LmiMechanism, NullMechanism};
    use lmi_core::PtrConfig;
    use lmi_isa::instr::CmpOp;
    use lmi_isa::reg::PredReg;
    use lmi_isa::{abi, HintBits, Instruction, MemRef, MemSpace, ProgramBuilder, Reg};

    #[test]
    fn corrupted_cmp_immediate_is_rejected_at_launch() {
        // A bit-flipped ISETP comparison immediate used to fall back to
        // `CmpOp::Eq` silently inside the cycle loop. Lowering now rejects
        // the program at launch with a typed error, before any SM runs.
        let mut b = ProgramBuilder::new("corrupt");
        b.push(Instruction::isetp(PredReg(0), Reg(0), CmpOp::Lt, 4));
        b.push(Instruction::exit());
        let mut program = b.build();
        program.instructions[0].srcs[2] = lmi_isa::Operand::Imm(99);
        let launch = Launch::new(program);
        let mut gpu = Gpu::new(GpuConfig::small());
        let err =
            gpu.launch(&launch, &mut NullMechanism, &mut TelemetrySink::disabled()).unwrap_err();
        assert_eq!(
            err,
            LaunchError::Decode(lmi_isa::DecodeError::BadCmpImmediate { pc: 0, value: 99 })
        );
    }

    #[test]
    fn empty_kernel_terminates() {
        let mut b = ProgramBuilder::new("empty");
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(4).block(128);
        let mut gpu = Gpu::new(GpuConfig::small());
        let stats = gpu.run(&launch, &mut NullMechanism);
        assert!(stats.cycles >= 1);
        assert_eq!(stats.issued, 16, "16 warps issue one EXIT each");
    }

    #[test]
    fn threads_write_their_tids_to_global_memory() {
        let base = layout::GLOBAL_BASE;
        let mut b = ProgramBuilder::new("wtid");
        b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(0)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(64).param(base);
        let mut gpu = Gpu::new(GpuConfig::small());
        let stats = gpu.run(&launch, &mut NullMechanism);
        for tid in 0..64u64 {
            assert_eq!(gpu.memory.read(base + tid * 4, 4), tid, "thread {tid}");
        }
        assert_eq!(stats.mem_count(MemSpace::Global), 2, "two warp-level STGs");
        assert!(stats.transactions >= 2);
    }

    #[test]
    fn loop_executes_the_right_number_of_iterations() {
        // R2 = 0; do { R2++ } while (R2 < 10); store R2.
        let base = layout::GLOBAL_BASE + 0x1000;
        let mut b = ProgramBuilder::new("loop");
        b.push(Instruction::mov(Reg(2), 0));
        let top = b.label();
        b.push(Instruction::iadd3(Reg(2), Reg(2), 1));
        b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, 10));
        b.branch_if(top, PredReg(0), false);
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(2)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(32).param(base);
        let mut gpu = Gpu::new(GpuConfig::small());
        gpu.run(&launch, &mut NullMechanism);
        assert_eq!(gpu.memory.read(base, 4), 10);
    }

    #[test]
    fn divergent_branch_executes_both_paths() {
        // if (tid < 16) out[tid] = 1; else out[tid] = 2;
        let base = layout::GLOBAL_BASE + 0x2000;
        let mut b = ProgramBuilder::new("div");
        b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
        b.push(Instruction::isetp(PredReg(0), Reg(0), CmpOp::Lt, 16));
        let taken = b.forward_branch_if(PredReg(0), false);
        // else path
        b.push(Instruction::mov(Reg(8), 2));
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(8)));
        b.push(Instruction::exit());
        b.bind(taken);
        b.push(Instruction::mov(Reg(8), 1));
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(8)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(32).param(base);
        let mut gpu = Gpu::new(GpuConfig::small());
        gpu.run(&launch, &mut NullMechanism);
        for tid in 0..32u64 {
            let expect = if tid < 16 { 1 } else { 2 };
            assert_eq!(gpu.memory.read(base + tid * 4, 4), expect, "thread {tid}");
        }
    }

    #[test]
    fn kernel_without_exit_retires_at_its_end() {
        // A warp that runs past its last instruction retires there instead
        // of never becoming issuable again; its earlier store has landed.
        let base = layout::GLOBAL_BASE + 0x2800;
        let mut b = ProgramBuilder::new("no-exit");
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::mov(Reg(2), 7));
        b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(2)));
        let launch = Launch::new(b.build()).grid(1).block(32).param(base);
        let mut gpu = Gpu::new(GpuConfig::small());
        let stats = gpu.run(&launch, &mut NullMechanism);
        assert_eq!(gpu.memory.read(base, 4), 7);
        assert_eq!(stats.issued, 3, "running off the end is not an instruction");
    }

    #[test]
    fn divergent_path_without_exit_lets_the_other_path_finish() {
        // if (tid < 16) out[tid] = 1 (no EXIT); else { out[tid] = 2; EXIT }.
        // The taken path runs first and falls off the program; retiring it
        // resumes the suspended lanes.
        let base = layout::GLOBAL_BASE + 0x2C00;
        let mut b = ProgramBuilder::new("div-no-exit");
        b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
        b.push(Instruction::isetp(PredReg(0), Reg(0), CmpOp::Lt, 16));
        let taken = b.forward_branch_if(PredReg(0), false);
        b.push(Instruction::mov(Reg(8), 2));
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(8)));
        b.push(Instruction::exit());
        b.bind(taken);
        b.push(Instruction::mov(Reg(8), 1));
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(8)));
        let launch = Launch::new(b.build()).grid(1).block(32).param(base);
        let mut gpu = Gpu::new(GpuConfig::small());
        gpu.run(&launch, &mut NullMechanism);
        for tid in 0..32u64 {
            let expect = if tid < 16 { 1 } else { 2 };
            assert_eq!(gpu.memory.read(base + tid * 4, 4), expect, "thread {tid}");
        }
    }

    #[test]
    fn kernel_malloc_returns_distinct_valid_pointers() {
        let base = layout::GLOBAL_BASE + 0x3000;
        let mut b = ProgramBuilder::new("km");
        b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
        b.push(Instruction::mov(Reg(1), 64));
        b.push(Instruction::malloc(Reg(4), Reg(1)));
        // store a marker through the fresh pointer
        b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(0)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(32).param(base);
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut mech = LmiMechanism::default_config();
        let stats = gpu.run(&launch, &mut mech);
        assert_eq!(stats.mallocs, 32);
        assert_eq!(gpu.heap().stats().live, 32);
        assert!(!stats.violated(), "heap pointers carry valid extents");
    }

    #[test]
    fn ocu_poisons_and_ec_faults_an_escaping_pointer() {
        // p = param0 (256 B buffer); p += 256 (marked); *p = 1 -> fault.
        let cfg = PtrConfig::default();
        let buf =
            lmi_core::DevicePtr::encode(layout::GLOBAL_BASE + 0x10000, 256, &cfg).unwrap().raw();
        let mut b = ProgramBuilder::new("oob");
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::iadd64(Reg(4), Reg(4), 256).with_hints(HintBits::check_operand(0)));
        b.push(Instruction::mov(Reg(0), 1));
        b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(0)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(1).param(buf);
        let mut gpu = Gpu::new(GpuConfig::security());
        let mut mech = LmiMechanism::default_config();
        let stats = gpu.run(&launch, &mut mech);
        assert!(stats.violated());
        assert_eq!(mech.poisoned_count, 1);
        // The OOB store must not have landed.
        assert_eq!(gpu.memory.read(layout::GLOBAL_BASE + 0x10000 + 256, 4), 0);
        // Forensics: the poison (IADD64 at pc 1) is matched to the fault
        // (STG at pc 3) with its latency, even on the untelemetered path.
        assert_eq!(stats.forensics.len(), 1);
        let rec = &stats.forensics[0];
        assert_eq!(rec.poison.pc, 1);
        assert_eq!(rec.poison.op, "IADD64");
        assert_eq!(rec.fault.pc, 3);
        assert_eq!(rec.fault.lane, 0);
        assert!(rec.latency_cycles() > 0, "poison precedes the fault");
        assert!(rec.latency_instructions() > 0);
    }

    #[test]
    fn telemetry_counters_agree_with_sim_stats() {
        use lmi_telemetry::Scope;
        let base = layout::GLOBAL_BASE + 0x40000;
        let mut b = ProgramBuilder::new("tc");
        b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
        b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 0, 4)));
        b.push(Instruction::ffma(Reg(9), Reg(8), Reg(8), Reg(8)));
        b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(9)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(4).block(64).param(base);
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut sink = TelemetrySink::counters_only();
        let stats = gpu.launch(&launch, &mut NullMechanism, &mut sink).unwrap();
        assert_eq!(sink.counters.sum_sms("issued"), stats.issued);
        assert_eq!(sink.counters.sum_sms("transactions"), stats.transactions);
        assert_eq!(sink.counters.get(Scope::Gpu, "cycles"), stats.cycles);
        assert_eq!(sink.counters.sum_sms("stall.scoreboard"), stats.stalls.scoreboard);
        assert_eq!(sink.counters.sum_sms("stall.lsu_busy"), stats.stalls.lsu_busy);
        assert_eq!(sink.counters.sum_sms("stall.no_ready_warp"), stats.stalls.no_ready_warp);
        let l1 = stats.l1_total();
        assert_eq!(sink.counters.sum_sms("l1.hits"), l1.hits);
        assert_eq!(sink.counters.sum_sms("l1.misses"), l1.misses);
        assert!(stats.l1_hit_rate() >= 0.0 && stats.l1_hit_rate() <= 1.0);
    }

    #[test]
    fn traced_run_emits_warp_spans_and_memory_transactions() {
        let base = layout::GLOBAL_BASE + 0x50000;
        let mut b = ProgramBuilder::new("spans");
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 4)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(2).block(64).param(base);
        let mut gpu = Gpu::new(GpuConfig::small());
        let mut sink = TelemetrySink::with_trace_capacity(1024);
        gpu.launch(&launch, &mut NullMechanism, &mut sink).unwrap();
        use lmi_telemetry::TraceEventKind;
        let warps = sink.tracer.records().filter(|r| r.kind == TraceEventKind::WarpSpan).count();
        assert_eq!(warps, 4, "one residency span per retired warp");
        assert!(
            sink.tracer.records().any(|r| r.kind == TraceEventKind::MemTransaction),
            "the LDG produced a transaction span"
        );
    }

    #[test]
    fn delayed_termination_no_fault_without_dereference() {
        // p += huge (marked) but never dereferenced: no violation (Fig. 14).
        let cfg = PtrConfig::default();
        let buf =
            lmi_core::DevicePtr::encode(layout::GLOBAL_BASE + 0x20000, 256, &cfg).unwrap().raw();
        let mut b = ProgramBuilder::new("fp");
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(Instruction::iadd64(Reg(4), Reg(4), 4096).with_hints(HintBits::check_operand(0)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(1).param(buf);
        let mut gpu = Gpu::new(GpuConfig::security());
        let mut mech = LmiMechanism::default_config();
        let stats = gpu.run(&launch, &mut mech);
        assert!(!stats.violated(), "delayed termination: no access, no fault");
        assert_eq!(mech.poisoned_count, 1, "the pointer was still poisoned");
    }

    #[test]
    fn barrier_synchronizes_a_block() {
        let mut b = ProgramBuilder::new("bar");
        b.push(Instruction::bar());
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(2).block(128);
        let mut gpu = Gpu::new(GpuConfig::small());
        let stats = gpu.run(&launch, &mut NullMechanism);
        assert!(stats.cycles > 0, "barriers release and the kernel finishes");
    }

    #[test]
    fn lmi_overhead_on_pointer_light_kernel_is_negligible() {
        // A compute-heavy kernel with one marked pointer op per loop.
        fn build() -> lmi_isa::Program {
            let mut b = ProgramBuilder::new("compute");
            b.push(Instruction::mov(Reg(2), 0));
            b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
            let top = b.label();
            for _ in 0..8 {
                b.push(Instruction::ffma(Reg(8), Reg(8), Reg(9), Reg(10)));
            }
            b.push(Instruction::iadd64(Reg(4), Reg(4), 4).with_hints(HintBits::check_operand(0)));
            b.push(Instruction::iadd3(Reg(2), Reg(2), 1));
            b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, 32));
            b.branch_if(top, PredReg(0), false);
            b.push(Instruction::exit());
            b.build()
        }
        let cfg = PtrConfig::default();
        let buf =
            lmi_core::DevicePtr::encode(layout::GLOBAL_BASE + 0x30000, 4096, &cfg).unwrap().raw();
        let launch = Launch::new(build()).grid(8).block(128).param(buf);
        let mut base_gpu = Gpu::new(GpuConfig::small());
        let base = base_gpu.run(&launch, &mut NullMechanism);
        let mut lmi_gpu = Gpu::new(GpuConfig::small());
        let lmi = lmi_gpu.run(&launch, &mut LmiMechanism::default_config());
        let overhead = lmi.cycles as f64 / base.cycles as f64 - 1.0;
        assert!(overhead < 0.05, "LMI overhead should be small, got {overhead}");
    }
}
