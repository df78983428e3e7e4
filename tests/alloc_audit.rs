//! Allocation audit of the steady-state cycle loop.
//!
//! The hot-path contract (DESIGN.md, *Hot path & allocation discipline*):
//! after warm-up, the cycle loop performs **zero heap allocations per
//! cycle**. Every allocation belongs to launch-time setup — program
//! lowering into a [`lmi_isa::DecodedStream`], warp tables, event-pool
//! warm-up — never to steady state.
//!
//! The audit installs a counting `#[global_allocator]` and runs the same
//! seeded multi-SM workload at `N` and `2N` loop iterations on fresh GPUs:
//! through `Gpu::run` under every simulator mechanism (null, LMI,
//! GPUShield), through `Gpu::run_with_telemetry` with the counter registry
//! recording, and as a two-kernel `Gpu::run_resident` cohort.
//! Doubling the simulated cycle count must leave the total allocation
//! count **exactly equal**: any per-cycle allocation would show up as a
//! difference proportional to the extra cycles. A warm-up run first
//! absorbs one-time lazy process state so it cannot skew the comparison.
//!
//! This file deliberately holds a single `#[test]` — the allocator is
//! process-global, and a lone test keeps the measured window free of
//! harness concurrency.

use lmi_baselines::GpuShield;
use lmi_bench::alloc_audit::CountingAlloc;
use lmi_isa::instr::CmpOp;
use lmi_isa::{HintBits, Instruction, MemRef, PredReg, ProgramBuilder, Reg};
use lmi_sim::{
    Gpu, GpuConfig, Launch, LmiMechanism, Mechanism, NullMechanism, ResidentKernel, SimStats,
};
use lmi_telemetry::TelemetrySink;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A heap-quiet looping kernel that exercises every pooled payload path:
/// kernel malloc (heap pairs, outside the loop), loads and stores through
/// an extent-carrying pointer (lane records + coalesced lines), a marked
/// pointer add checked by the OCU (triples), and predicate/branch control
/// flow — `iters` round trips per lane.
fn audit_launch(iters: i32) -> Launch {
    let mut b = ProgramBuilder::new("alloc-audit");
    b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
    b.push(Instruction::mov(Reg(1), 256));
    b.push(Instruction::malloc(Reg(4), Reg(1)));
    b.push(Instruction::mov(Reg(2), 0));
    let top = b.label();
    b.push(Instruction::iadd3(Reg(2), Reg(2), 1));
    b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(2)));
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(4), 0, 4)));
    // Marked pointer arithmetic: the OCU checks operand 0 each trip.
    b.push(Instruction::iadd64(Reg(4), Reg(4), 0).with_hints(HintBits::check_operand(0)));
    b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, iters));
    b.branch_if(top, PredReg(0), false);
    b.push(Instruction::exit());
    // Every SM of `GpuConfig::small()` holds two blocks: multi-SM, with
    // intra-SM scheduler contention.
    Launch::new(b.build()).grid(16).block(64)
}

/// The audited legs: `Gpu::run` under each mechanism, a counters-on run,
/// and a two-kernel resident cohort.
const LEGS: [&str; 5] = ["null", "lmi", "gpushield", "lmi+counters", "resident"];

fn mechanism(name: &str) -> Box<dyn Mechanism> {
    match name {
        "null" => Box::new(NullMechanism),
        "lmi" => Box::new(LmiMechanism::default_config()),
        "gpushield" => Box::new(GpuShield::new()),
        other => unreachable!("unknown mechanism {other}"),
    }
}

/// Runs leg `leg` of the audit kernel and returns `(heap allocations,
/// stats)` (for the cohort, the first kernel's stats). Mechanism, GPU,
/// sink and launch construction happen before the counted window.
fn measured_run(leg: &str, iters: i32) -> (u64, SimStats) {
    let mut gpu = Gpu::new(GpuConfig::small());
    let launch = audit_launch(iters);
    match leg {
        "lmi+counters" => {
            let mut mech = LmiMechanism::default_config();
            let mut sink = TelemetrySink::counters_only();
            let before = CountingAlloc::allocations();
            let stats = gpu.run_with_telemetry(&launch, &mut mech, &mut sink);
            (CountingAlloc::allocations() - before, stats)
        }
        "resident" => {
            // Two kernels on the two halves of the GPU, the second
            // admitted later, each with two blocks per SM.
            let half = audit_launch(iters).grid(8);
            let (mut lmi, mut null) = (LmiMechanism::default_config(), NullMechanism);
            let mut jobs = [
                ResidentKernel {
                    launch: &half,
                    mechanism: &mut lmi,
                    heap: None,
                    partition: 0..4,
                    start_offset: 0,
                },
                ResidentKernel {
                    launch: &half,
                    mechanism: &mut null,
                    heap: None,
                    partition: 4..8,
                    start_offset: 100,
                },
            ];
            let mut sink = TelemetrySink::disabled();
            let before = CountingAlloc::allocations();
            let outcome = gpu.run_resident(&mut jobs, &mut sink).expect("valid cohort");
            let allocs = CountingAlloc::allocations() - before;
            (allocs, outcome.kernels.into_iter().next().expect("two kernels").stats)
        }
        mech => {
            let mut mech = mechanism(mech);
            let before = CountingAlloc::allocations();
            let stats = gpu.run(&launch, mech.as_mut());
            (CountingAlloc::allocations() - before, stats)
        }
    }
}

#[test]
fn cycle_loop_is_allocation_free_after_warmup() {
    const N: i32 = 400;
    for leg in LEGS {
        // Warm-up: absorbs lazy process-wide state (TLS, allocator
        // internals) so the measured pair sees identical setup.
        let _ = measured_run(leg, N);

        let (allocs_n, stats_n) = measured_run(leg, N);
        let (allocs_2n, stats_2n) = measured_run(leg, 2 * N);

        assert!(!stats_n.violated() && !stats_2n.violated(), "audit kernel is violation-free");
        assert!(
            stats_2n.cycles > stats_n.cycles + u64::try_from(N).unwrap(),
            "doubling iterations must add cycles ({} vs {})",
            stats_n.cycles,
            stats_2n.cycles,
        );
        assert_eq!(
            allocs_n,
            allocs_2n,
            "heap allocations grew with cycle count under {leg}: {allocs_n} for {N} \
             iterations vs {allocs_2n} for {} — the cycle loop allocated in steady state",
            2 * N,
        );
    }
}
