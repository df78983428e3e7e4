//! Pinned regression tests for the cycle engine (`lmi-sim::engine`).
//!
//! Every scenario runs with scoped counters and the tracer on, and four
//! digests of what it observably produced are compared against pinned
//! values:
//!
//! * the full `SimStats` record (cycles, issue and stall counts, per-SM
//!   L1 deltas, L2, MSHR, DRAM, violations, forensics, profiles and both
//!   `phase_b_*` work counts);
//! * the functional memory the kernel touched;
//! * every scoped telemetry counter;
//! * the trace-event ring, in arrival order.
//!
//! The pinned values were recorded from the engine this one replaced: a
//! multi-threaded driver over address-interleaved memory banks. That
//! engine produced every value below identically at 1, 2 and 8 worker
//! threads over 1 and 4 banks, so each test holds the single-threaded
//! engine to the outputs of every configuration of the old one. A digest
//! is FNV-1a over the value's `Debug` rendering. On a mismatch the test
//! prints the new values ready to paste; re-pinning is only right for a
//! change that is meant to move simulated outputs.
//!
//! Test names ending in `_across_thread_counts` or `_bank_invariant` name
//! the old engine's configurations their pins were taken across; no test
//! here varies a thread or bank count, since the engine has neither.

use std::fmt::Debug;

use lmi_alloc::AlignmentPolicy;
use lmi_core::PtrConfig;
use lmi_isa::instr::CmpOp;
use lmi_isa::op::SpecialReg;
use lmi_isa::{
    abi, HintBits, Instruction, MemRef, Opcode, PredReg, Predicate, ProgramBuilder, Reg,
};
use lmi_mem::layout;
use lmi_runtime::{MetricsSnapshot, Runtime, Session};
use lmi_sim::{
    Gpu, GpuConfig, Launch, LmiMechanism, Mechanism, NullMechanism, ResidentKernel, SimStats,
};
use lmi_telemetry::{Scope, SplitMix64, TelemetrySink};
use lmi_workloads::{all_workloads, prepare, prepare_in, runtime_mixes, TrafficMix, WorkloadSpec};

/// FNV-1a over `value`'s `Debug` rendering.
fn digest(value: &impl Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The pinned image of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    cycles: u64,
    stats: u64,
    memory: u64,
    counters: u64,
    trace: u64,
}

impl Pin {
    fn literal(&self) -> String {
        format!(
            "Pin {{ cycles: {}, stats: {:#018x}, memory: {:#018x}, counters: {:#018x}, \
             trace: {:#018x} }}",
            self.cycles, self.stats, self.memory, self.counters, self.trace
        )
    }
}

/// Asserts `got[i] == want[i]` for every case; on any mismatch, fails
/// listing every case's actual pin.
fn check(label: &str, got: &[(String, Pin)], want: &[Pin]) {
    let ok = got.len() == want.len() && got.iter().zip(want).all(|((_, g), w)| g == w);
    if !ok {
        let listing: Vec<String> =
            got.iter().map(|(case, pin)| format!("    {}, // {case}", pin.literal())).collect();
        panic!("{label}: outputs moved from the pinned values; actual:\n{}", listing.join("\n"));
    }
}

/// Runs `launch` with counters and the tracer on; returns the stats and
/// the pin. `memory` lists the `(base, len)` ranges whose final contents
/// are digested.
fn run_pinned(
    cfg: GpuConfig,
    launch: &Launch,
    mechanism: &mut dyn Mechanism,
    memory: &[(u64, u64)],
) -> (SimStats, Pin) {
    let mut gpu = Gpu::new(cfg);
    let mut sink = TelemetrySink::with_trace_capacity(1 << 14);
    let stats = gpu.launch(launch, mechanism, &mut sink).unwrap();
    assert!(stats.cycles > 0, "kernel ran");
    let pin = pin_of(stats.cycles, &stats, &gpu, memory, &sink);
    (stats, pin)
}

/// The pin of a finished run: `outcome` is whatever the run returned.
fn pin_of(
    cycles: u64,
    outcome: &impl Debug,
    gpu: &Gpu,
    memory: &[(u64, u64)],
    sink: &TelemetrySink,
) -> Pin {
    let counters: Vec<_> = sink.counters.iter().collect();
    let trace: Vec<_> = sink.tracer.records().collect();
    Pin {
        cycles,
        stats: digest(outcome),
        memory: digest(&gpu.snapshot(memory)),
        counters: digest(&counters),
        trace: digest(&trace),
    }
}

fn workload(name: &str) -> WorkloadSpec {
    all_workloads().into_iter().find(|w| w.name == name).unwrap()
}

#[test]
fn seeded_workloads_are_bit_identical_across_thread_counts() {
    // Three contrasting profiles: compute-heavy, barrier/wavefront, and
    // uncoalesced-memory-heavy.
    let got: Vec<(String, Pin)> = ["hotspot", "needle", "bfs"]
        .iter()
        .map(|name| {
            let prepared = prepare(&workload(name).scaled_down(4), AlignmentPolicy::PowerOfTwo);
            let mut mech = LmiMechanism::default_config();
            let (_, pin) =
                run_pinned(GpuConfig::small(), &prepared.launch, &mut mech, &prepared.buffers);
            (name.to_string(), pin)
        })
        .collect();
    check(
        "seeded workloads",
        &got,
        &[
            Pin {
                cycles: 7820,
                stats: 0x8bca714d0f4df29d,
                memory: 0x4095d624666d4210,
                counters: 0xe1ff366427335201,
                trace: 0x117aceedcbff9f3f,
            }, // hotspot
            Pin {
                cycles: 11321,
                stats: 0x3ef33983af9469ce,
                memory: 0x27cbe67dd1801cd1,
                counters: 0xa0d3a45a39c72abf,
                trace: 0x1e73be6754d5408c,
            }, // needle
            Pin {
                cycles: 4747,
                stats: 0xe1284b0e08f43ad7,
                memory: 0x0bd6c0906adadb97,
                counters: 0x161bb1ef81a343f2,
                trace: 0x61f61558760983af,
            }, // bfs
        ],
    );
}

#[test]
fn null_mechanism_runs_are_bit_identical_across_thread_counts() {
    let prepared = prepare(&workload("backprop").scaled_down(4), AlignmentPolicy::CudaDefault);
    let (_, pin) =
        run_pinned(GpuConfig::small(), &prepared.launch, &mut NullMechanism, &prepared.buffers);
    check(
        "backprop/null",
        &[("backprop".into(), pin)],
        &[
            Pin {
                cycles: 5790,
                stats: 0x7910a0e560fb5951,
                memory: 0x9093f7658e67b203,
                counters: 0x7ab0b30ab09b8950,
                trace: 0x60d943f23bd2cd8f,
            }, // backprop
        ],
    );
}

/// Every warp bumps its pointer 4 KiB past a 256 B buffer with a marked
/// add, then stores through it: poisons, faults, forensics records and
/// halted warps occur on several SMs at once.
fn escaping_store(buffer: u64, grid: usize) -> Launch {
    let cfg_ptr = PtrConfig::default();
    let buf = lmi_core::DevicePtr::encode(buffer, 256, &cfg_ptr).unwrap().raw();
    let mut b = ProgramBuilder::new("oob-wide");
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::iadd64(Reg(4), Reg(4), 4096).with_hints(HintBits::check_operand(0)));
    b.push(Instruction::mov(Reg(0), 1));
    b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(0)));
    b.push(Instruction::exit());
    Launch::new(b.build()).grid(grid).block(64).param(buf)
}

#[test]
fn violation_forensics_are_bit_identical_across_thread_counts() {
    let buffer = layout::GLOBAL_BASE + 0x10000;
    let mut cfg = GpuConfig::small();
    cfg.halt_on_violation = true;
    let mut mech = LmiMechanism::default_config();
    let (stats, pin) =
        run_pinned(cfg, &escaping_store(buffer, 8), &mut mech, &[(buffer, 256 + 4096 + 64)]);
    assert!(stats.violated());
    assert!(!stats.forensics.is_empty(), "the scenario exercised the forensic machinery");
    check(
        "oob-wide",
        &[("oob-wide".into(), pin)],
        &[
            Pin {
                cycles: 27,
                stats: 0x90f8f324805d698d,
                memory: 0x3bbf7ea703f90c80,
                counters: 0x534a2a8d42612cff,
                trace: 0xe250387bb3f009b9,
            }, // oob-wide
        ],
    );
}

#[test]
fn kernel_malloc_runs_are_bit_identical_across_thread_counts() {
    // Device-side malloc serializes through the shared heap: allocation
    // order decides the returned pointers and where each lands.
    let mut b = ProgramBuilder::new("heap");
    b.push(Instruction::mov(Reg(1), 96));
    b.push(Instruction::malloc(Reg(4), Reg(1)));
    b.push(Instruction::stg(MemRef::new(Reg(4), 0, 8), Reg(4)));
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(6).block(64);
    let mut mech = LmiMechanism::default_config();
    let (stats, pin) =
        run_pinned(GpuConfig::small(), &launch, &mut mech, &[(layout::HEAP_BASE, 1 << 16)]);
    assert_eq!(stats.mallocs, 6 * 64);
    check(
        "heap",
        &[("heap".into(), pin)],
        &[
            Pin {
                cycles: 619,
                stats: 0x79aa7de4b7afacbc,
                memory: 0xd8844312594c728f,
                counters: 0xb8b9f7b593257d2c,
                trace: 0xe5ca055118c6c2f5,
            }, // heap
        ],
    );
}

// ---------------------------------------------------------------------------
// Adversarial shared-memory-system scenarios: cross-SM traffic into the
// same lines, where any ordering slip in the memory pass would surface.

#[test]
fn cross_sm_same_line_stores_are_bank_invariant() {
    // Every SM's every warp stores to (and reloads from) the same two
    // cache lines: overlapping same-address stores from different SMs
    // must resolve in canonical order for the final image to be stable.
    let base = layout::GLOBAL_BASE + 0x80000;
    let mut b = ProgramBuilder::new("line-storm");
    b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
    b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(0)));
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 0, 4)));
    b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(8)));
    b.push(Instruction::exit());
    // Same param base for every block: no per-block offset, maximal overlap.
    let launch = Launch::new(b.build()).grid(16).block(64).param(base);
    let (_, pin) = run_pinned(GpuConfig::small(), &launch, &mut NullMechanism, &[(base, 256)]);
    check(
        "line-storm",
        &[("line-storm".into(), pin)],
        &[
            Pin {
                cycles: 73,
                stats: 0xceab2becb45ff603,
                memory: 0x5d530d0c35b5f0e0,
                counters: 0x6c7808b4a2c127ae,
                trace: 0x9e118668d558d6bd,
            }, // line-storm
        ],
    );
}

#[test]
fn mshr_merges_spanning_sms_are_bank_invariant() {
    // Every SM's warp scatters its 32 lanes over 32 lines of one L2 set
    // (a 192 KiB stride is 1536 lines, the set count). The 24-way set
    // cannot hold 32 lines, so each SM's op evicts the earliest lines
    // while their DRAM fills are still in flight, and the next SM's
    // access to an evicted line merges with the pending fill.
    let base = layout::GLOBAL_BASE + 0x90000;
    let mut b = ProgramBuilder::new("merge-storm");
    b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 17));
    b.push(Instruction::lea64(Reg(6), Reg(6), Reg(0), 16));
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 0, 4)));
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(8).block(32).param(base);
    let (stats, pin) = run_pinned(GpuConfig::small(), &launch, &mut NullMechanism, &[(base, 8)]);
    assert!(stats.mshr_merges > 0, "the scenario exercised the MSHRs");
    check(
        "merge-storm",
        &[("merge-storm".into(), pin)],
        &[
            Pin {
                cycles: 25,
                stats: 0x41b2fb2da1bb356f,
                memory: 0x3b47ef3c2a060a9d,
                counters: 0x33c3cdc1ec7b4258,
                trace: 0x3d3a09e0f1c07f29,
            }, // merge-storm
        ],
    );
}

#[test]
fn line_straddling_accesses_are_bank_invariant() {
    // Each thread stores and reloads 8 bytes at offset 124 of its own
    // 128-byte line: every access straddles a line boundary, so its
    // bytes move in two parts and a load's value is assembled from both.
    let base = layout::GLOBAL_BASE + 0xA0000;
    let mut b = ProgramBuilder::new("straddle");
    b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 7));
    b.push(Instruction::stg(MemRef::new(Reg(6), 124, 8), Reg(6)));
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 124, 8)));
    b.push(Instruction::stg(MemRef::new(Reg(6), 0, 8), Reg(8)));
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(8).block(32).param(base);
    let (_, pin) = run_pinned(GpuConfig::small(), &launch, &mut NullMechanism, &[(base, 33 * 128)]);
    check(
        "straddle",
        &[("straddle".into(), pin)],
        &[
            Pin {
                cycles: 52,
                stats: 0xf383ab4071a805d3,
                memory: 0x42b40c9cbbb3553f,
                counters: 0xb3ed59f6c0e43706,
                trace: 0xab04c6a5b50a7635,
            }, // straddle
        ],
    );
}

#[test]
fn violation_storms_are_bank_invariant() {
    // Every warp faults under halt-on-violation: the cancelled ops'
    // queued fills and byte moves must all be skipped.
    let buffer = layout::GLOBAL_BASE + 0xB0000;
    let mut cfg = GpuConfig::small();
    cfg.halt_on_violation = true;
    let mut mech = LmiMechanism::default_config();
    let (stats, pin) =
        run_pinned(cfg, &escaping_store(buffer, 16), &mut mech, &[(buffer, 256 + 4096 + 64)]);
    assert!(stats.violated());
    let mut gpu = Gpu::new(cfg);
    gpu.run(&escaping_store(buffer, 16), &mut LmiMechanism::default_config());
    assert_eq!(gpu.memory.read(buffer + 4096, 8), 0, "halted OOB store leaked to memory");
    check(
        "violation-storm",
        &[("violation-storm".into(), pin)],
        &[
            Pin {
                cycles: 41,
                stats: 0x24ce93b193363c7a,
                memory: 0x8d1523e60fc7863d,
                counters: 0x9b564c99dea878d5,
                trace: 0x69ef9da5872e6a31,
            }, // violation-storm
        ],
    );
}

#[test]
fn metadata_fetch_storms_are_bank_invariant() {
    // GPUShield with a zero-entry RCache fetches an in-memory bounds
    // entry on every global access: the metadata pass carries traffic
    // each cycle, and the data fills wait for their metadata.
    let base = layout::GLOBAL_BASE + 0xC0000;
    let mut b = ProgramBuilder::new("meta-storm");
    b.push(Instruction::s2r(Reg(0), lmi_isa::op::SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
    b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(0)));
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 0, 4)));
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(8).block(64).param(base);
    let mut gs = lmi_baselines::GpuShield::with_rcache_entries(0);
    gs.register_buffer(base, 64 * 4);
    let (_, pin) = run_pinned(GpuConfig::small(), &launch, &mut gs, &[(base, 64 * 4)]);
    check(
        "meta-storm",
        &[("meta-storm".into(), pin)],
        &[
            Pin {
                cycles: 29,
                stats: 0x55ead4a42cc05cba,
                memory: 0x66a3eb3351b191be,
                counters: 0xf00cc0f5ed929d17,
                trace: 0x16df9d76eca85ceb,
            }, // meta-storm
        ],
    );
}

/// Replays a [`TrafficMix`] through the async runtime: per stream an
/// upload → kernel → readback pipeline plus a completion event, then one
/// synchronize. Returns the digest of the runtime report, the
/// stream/tenant counters, the event timestamps and the readbacks.
fn run_mix(mix: &TrafficMix) -> (u64, u64) {
    let mut rt = Runtime::new(GpuConfig::small());
    let tenants: Vec<usize> =
        mix.tenants.iter().map(|&protected| rt.add_tenant(protected)).collect();
    let mut events = Vec::new();
    let mut handles = Vec::new();
    for (i, traffic) in mix.streams.iter().enumerate() {
        let spec = mix.spec_of(i);
        let tenant = tenants[traffic.tenant];
        let prepared = prepare_in(&spec, &mut rt.tenant_mut(tenant).allocator);
        let stream = rt.create_stream(tenant).unwrap();
        let buf = prepared.launch.params[0];
        let words: Vec<u64> = (0..traffic.h2d_words as u64).collect();
        rt.memcpy_h2d(stream, buf, &words).unwrap();
        rt.launch(stream, prepared.launch).unwrap();
        handles.push(rt.memcpy_d2h(stream, buf, traffic.d2h_bytes).unwrap());
        let ev = rt.create_event();
        rt.record_event(stream, ev).unwrap();
        events.push(ev);
    }
    rt.synchronize().unwrap();
    let report = rt.report().clone();
    assert!(report.total_cycles > 0, "{}: session ran", mix.name);
    let event_times: Vec<Option<u64>> = events.iter().map(|&e| rt.event_time(e)).collect();
    assert!(event_times.iter().all(Option::is_some), "{}: all events recorded", mix.name);
    let readbacks: Vec<Vec<u64>> =
        handles.iter().map(|&h| rt.copy_result(h).unwrap().to_vec()).collect();
    let counters: Vec<_> = rt.counters().iter().collect();
    (report.total_cycles, digest(&(report, counters, event_times, readbacks)))
}

/// A sampled (period 64) session of `mix` — the `profile` bin's
/// submission pattern — and its metrics snapshot.
fn sampled_snapshot(mix: &TrafficMix) -> MetricsSnapshot {
    let mut rt = Session::new(GpuConfig::small().with_sample_period(64));
    let tenants: Vec<usize> =
        mix.tenants.iter().map(|&protected| rt.add_tenant(protected)).collect();
    for (i, traffic) in mix.streams.iter().enumerate() {
        let spec = mix.spec_of(i);
        let tenant = tenants[traffic.tenant];
        let prepared = prepare_in(&spec, &mut rt.tenant_mut(tenant).allocator);
        let stream = rt.create_stream(tenant).unwrap();
        let buf = prepared.launch.params[0];
        let words: Vec<u64> = (0..traffic.h2d_words as u64).collect();
        rt.memcpy_h2d(stream, buf, &words).unwrap();
        rt.launch(stream, prepared.launch).unwrap();
        rt.memcpy_d2h(stream, buf, traffic.d2h_bytes).unwrap();
    }
    rt.synchronize().unwrap();
    rt.metrics_snapshot()
}

#[test]
fn concurrent_runtime_streams_are_bit_identical_across_thread_counts() {
    // Whole host programs: concurrent multi-tenant streams' per-kernel
    // SimStats, per-stream/per-tenant counters, event timestamps and
    // readback payloads.
    let got: Vec<(String, Pin)> = runtime_mixes()
        .iter()
        .map(|mix| {
            let (cycles, session) = run_mix(mix);
            // One digest covers the whole session (see `run_mix`).
            let pin = Pin { cycles, stats: session, memory: 0, counters: 0, trace: 0 };
            (mix.name.to_string(), pin)
        })
        .collect();
    check(
        "runtime mixes",
        &got,
        &[
            Pin {
                cycles: 15275,
                stats: 0xc6948ed1147fad9d,
                memory: 0x0000000000000000,
                counters: 0x0000000000000000,
                trace: 0x0000000000000000,
            }, // solo
            Pin {
                cycles: 18703,
                stats: 0x6be9b27322abf7d8,
                memory: 0x0000000000000000,
                counters: 0x0000000000000000,
                trace: 0x0000000000000000,
            }, // dual-tenant
            Pin {
                cycles: 17297,
                stats: 0x34d3bf24c3109b08,
                memory: 0x0000000000000000,
                counters: 0x0000000000000000,
                trace: 0x0000000000000000,
            }, // quad-stream
        ],
    );

    // The sampling profiler on a multi-tenant session: samples are taken
    // in phase A from SM-local state and absorbed in ascending SM order,
    // so the whole snapshot (profiles, histograms, counters) is pinned.
    let mix = runtime_mixes().into_iter().find(|m| m.name == "quad-stream").unwrap();
    let snap = sampled_snapshot(&mix);
    assert!(!snap.frame.profiles.is_empty(), "sampling on must produce profiles");
    assert!(
        snap.frame.profiles.values().all(|p| p.samples() > 0),
        "every profiled kernel must have samples"
    );
    assert!(!snap.frame.histograms.is_empty(), "latency histograms must be populated");
    let pin = Pin { cycles: 0, stats: digest(&snap), memory: 0, counters: 0, trace: 0 };
    check(
        "sampled quad-stream",
        &[("quad-stream/sampled".into(), pin)],
        &[
            Pin {
                cycles: 0,
                stats: 0x181ff367f6f6af67,
                memory: 0x0000000000000000,
                counters: 0x0000000000000000,
                trace: 0x0000000000000000,
            }, // quad-stream/sampled
        ],
    );
}

#[test]
fn random_kernels_property_bit_identical_across_thread_counts() {
    // Randomized variations of the Table V generator specs; SplitMix64
    // keeps them reproducible.
    let mut rng = SplitMix64::new(0x1E71_0001);
    let base = all_workloads();
    let got: Vec<(String, Pin)> = (0..6u64)
        .map(|case| {
            let mut spec = base[rng.below(base.len() as u64) as usize].clone();
            spec.iters = rng.range(2, 6) as u32;
            spec.blocks = rng.range(4, 17) as usize;
            spec.threads_per_block = 32 << rng.below(3); // 32/64/128
            spec.compute_per_mem = rng.below(8) as u32;
            spec.ptr_ops_per_mem_x2 = rng.range(1, 5) as u32;
            spec.uncoalesced = rng.below(2) == 1;
            spec.barrier_per_iter = rng.below(2) == 1;
            let prepared = prepare(&spec, AlignmentPolicy::PowerOfTwo);
            let mut mech = LmiMechanism::default_config();
            let (_, pin) =
                run_pinned(GpuConfig::small(), &prepared.launch, &mut mech, &prepared.buffers);
            (format!("case {case} ({})", spec.name), pin)
        })
        .collect();
    check(
        "random kernels",
        &got,
        &[
            Pin {
                cycles: 9813,
                stats: 0xe6463ce187a0527d,
                memory: 0xa053acaaef48642f,
                counters: 0xef36d747d8a3ea8f,
                trace: 0xe175c6bee707bb17,
            }, // case 0 (LSTM)
            Pin {
                cycles: 15167,
                stats: 0x61f8cc13e6d27989,
                memory: 0x873851fc0e060f2e,
                counters: 0x77ed39883dfa81fc,
                trace: 0x4e64b207cf00e09c,
            }, // case 1 (MOTR)
            Pin {
                cycles: 11452,
                stats: 0xf40c82aafdb14402,
                memory: 0x1a6b8dbc2a09b83a,
                counters: 0x88737bbf42534e7d,
                trace: 0x6eb4119053b3bf77,
            }, // case 2 (nn)
            Pin {
                cycles: 12830,
                stats: 0x17cf975c696d0e3c,
                memory: 0x965e8448985928e9,
                counters: 0xa2c053d7f6c7aa86,
                trace: 0xa0ed5e77fc86cfb9,
            }, // case 3 (particlefilter_float)
            Pin {
                cycles: 885,
                stats: 0x3a651f77fc396f9d,
                memory: 0xcdcb0738a0a6fbe1,
                counters: 0x62fcc3d296f49eb2,
                trace: 0xd2cdfafe004a3b56,
            }, // case 4 (BEVerse)
            Pin {
                cycles: 1494,
                stats: 0x9c3907b3f4461c63,
                memory: 0x0e49a0ab7c093996,
                counters: 0x03e82bf55081bd50,
                trace: 0xdc11082a54d96b18,
            }, // case 5 (LSTM)
        ],
    );
}

#[test]
fn fast_forward_skips_identically_across_thread_counts() {
    // One warp per SM running a chain of dependent MUFUs: after every
    // issue the sole warp stalls on the scoreboard for the full MUFU
    // latency, so every simulated cycle between issues is dead and the
    // engine's `next_ready` fast-forward must skip them.
    const CHAIN: u64 = 64;
    let cfg = GpuConfig::small();
    let mufu_latency = u64::from(cfg.fpu_latency) * 2;
    let mut b = ProgramBuilder::new("ff-chain");
    for _ in 0..CHAIN {
        b.push(Instruction::float2(lmi_isa::Opcode::Mufu, Reg(8), Reg(8), Reg(8)));
    }
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(cfg.num_sms).block(32).phase(7);
    let (stats, pin) = run_pinned(cfg, &launch, &mut NullMechanism, &[]);
    check(
        "fast-forward chain",
        &[("ff-chain".into(), pin)],
        &[
            Pin {
                cycles: 516,
                stats: 0x445b6aaf02f7f1a0,
                memory: 0x85d0cad77e171953,
                counters: 0x7fdfe817a8bfe7e9,
                trace: 0x5004f6276e19a8c1,
            }, // ff-chain
        ],
    );

    // The skip actually happened: each issue records at most one
    // scoreboard-stall cycle (the probe that discovers the dependency)
    // instead of `latency - 1` of them, yet the clock still advances the
    // full dependency chain.
    assert!(
        stats.cycles >= (CHAIN - 1) * mufu_latency,
        "dependency chain must pay full latency ({} cycles for chain of {CHAIN})",
        stats.cycles,
    );
    assert!(
        stats.stalls.scoreboard <= stats.issued,
        "fast-forward must collapse stall runs to one probe per issue \
         ({} scoreboard stalls vs {} issues)",
        stats.stalls.scoreboard,
        stats.issued,
    );
}

// ---------------------------------------------------------------------------
// Engine edge cases: SMs with nothing to issue for long stretches (before
// admission, after completion, at a barrier), profiler samples landing in
// those stretches, and a counter key created with a zero value.

/// Every thread stores its tid to `base + 4 * tid`.
fn store_tids(name: &str) -> lmi_isa::Program {
    let mut b = ProgramBuilder::new(name);
    b.push(Instruction::s2r(Reg(0), SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
    b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(0)));
    b.push(Instruction::exit());
    b.build()
}

/// `chain` dependent MUFUs, then every thread stores its tid.
fn mufu_then_store(chain: usize) -> lmi_isa::Program {
    let mut b = ProgramBuilder::new("mufu-store");
    for _ in 0..chain {
        b.push(Instruction::float2(Opcode::Mufu, Reg(8), Reg(8), Reg(8)));
    }
    b.push(Instruction::s2r(Reg(0), SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
    b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(8)));
    b.push(Instruction::exit());
    b.build()
}

#[test]
fn staggered_resident_cohorts_are_bit_identical() {
    // Three kernels on disjoint partitions of the 8-SM config, admitted at
    // cycles 0, 400 and 1500: the late partitions idle until admission,
    // and the first kernel finishes long before the last one starts.
    let base = layout::GLOBAL_BASE + 0xD0000;
    let short = Launch::new(store_tids("short")).grid(2).block(64).param(base);
    let chain = Launch::new(mufu_then_store(24)).grid(3).block(96).param(base + 0x1000);
    let late = Launch::new(store_tids("late")).grid(6).block(128).param(base + 0x2000);
    let mut mechs = [
        LmiMechanism::default_config(),
        LmiMechanism::default_config(),
        LmiMechanism::default_config(),
    ];
    let [m0, m1, m2] = &mut mechs;
    let mut jobs = [
        ResidentKernel {
            launch: &short,
            mechanism: m0,
            heap: None,
            partition: 0..2,
            start_offset: 0,
        },
        ResidentKernel {
            launch: &chain,
            mechanism: m1,
            heap: None,
            partition: 2..5,
            start_offset: 400,
        },
        ResidentKernel {
            launch: &late,
            mechanism: m2,
            heap: None,
            partition: 5..8,
            start_offset: 1500,
        },
    ];
    let mut gpu = Gpu::new(GpuConfig::small());
    let mut sink = TelemetrySink::with_trace_capacity(1 << 14);
    let outcome = gpu.run_resident(&mut jobs, &mut sink).unwrap();
    let [a, b, c] = [0, 1, 2].map(|k| outcome.kernels[k].completed_at);
    assert!(a < 400 && b < 1500 && c > 1500, "staggered admission: {a} {b} {c}");
    let pin = pin_of(outcome.makespan, &outcome, &gpu, &[(base, 0x3000)], &sink);
    check(
        "staggered cohort",
        &[("staggered".into(), pin)],
        &[Pin {
            cycles: 1542,
            stats: 0xd9a8ef6aef9850b9,
            memory: 0x44fcd46d95679b5c,
            counters: 0x4074ee98a1e655ba,
            trace: 0xb2261f5574618269,
        }],
    );
}

/// Warp `w` of each block runs `8 * w` dependent MUFUs before the block
/// barrier, so early warps wait at it for hundreds of cycles; then every
/// thread stores its tid.
fn skewed_barrier() -> Launch {
    let mut b = ProgramBuilder::new("bar-skew");
    b.push(Instruction::s2r(Reg(0), SpecialReg::WarpId));
    b.push(Instruction::int2(Opcode::Shl, Reg(1), Reg(0), 3));
    b.push(Instruction::mov(Reg(2), 0));
    let top = b.label();
    b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, Reg(1)));
    let out = b.forward_branch_if(PredReg(0), true);
    b.push(Instruction::float2(Opcode::Mufu, Reg(8), Reg(8), Reg(8)));
    b.push(Instruction::iadd3(Reg(2), Reg(2), 1));
    b.branch(top);
    b.bind(out);
    b.push(Instruction::bar());
    b.push(Instruction::s2r(Reg(0), SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 2));
    b.push(Instruction::stg(MemRef::new(Reg(6), 0, 4), Reg(0)));
    b.push(Instruction::exit());
    Launch::new(b.build()).grid(6).block(256).param(layout::GLOBAL_BASE + 0xE0000)
}

#[test]
fn skewed_barrier_arrivals_are_bit_identical() {
    let launch = skewed_barrier();
    let memory = [(layout::GLOBAL_BASE + 0xE0000, 1024)];
    let (stats, pin) = run_pinned(GpuConfig::small(), &launch, &mut NullMechanism, &memory);
    assert!(stats.cycles > 7 * 8 * 2 * u64::from(GpuConfig::small().fpu_latency));
    check(
        "skewed barrier",
        &[("bar-skew".into(), pin)],
        &[Pin {
            cycles: 599,
            stats: 0xc7ab36f2d4c4eb1c,
            memory: 0x167fdf51a34d04f1,
            counters: 0xf9fbf89715f94cda,
            trace: 0xeb16be6302ad2635,
        }],
    );
}

#[test]
fn samples_inside_idle_stretches_are_bit_identical() {
    // A period of 7 puts profiler samples on cycles where SMs wait at a
    // barrier, on a long scoreboard stall, or have retired every warp.
    let cfg = GpuConfig::small().with_sample_period(7);
    let chain = Launch::new(mufu_then_store(40)).grid(5).block(64).param(layout::GLOBAL_BASE);
    let got: Vec<(String, Pin)> = [("bar-skew", skewed_barrier()), ("mufu-chain", chain)]
        .into_iter()
        .map(|(name, launch)| {
            let (stats, pin) = run_pinned(cfg, &launch, &mut NullMechanism, &[]);
            assert!(stats.profile.samples() > 0, "{name}: sampled");
            (name.to_string(), pin)
        })
        .collect();
    check(
        "sampled idle stretches",
        &got,
        &[
            Pin {
                cycles: 599,
                stats: 0x9330fbc2e7e11f0d,
                memory: 0x85d0cad77e171953,
                counters: 0xf9fbf89715f94cda,
                trace: 0xeb16be6302ad2635,
            }, // bar-skew
            Pin {
                cycles: 341,
                stats: 0xc1802355bbbfcfb9,
                memory: 0x85d0cad77e171953,
                counters: 0xe775f9fd58ae6326,
                trace: 0x7ca8c953d9815d03,
            }, // mufu-chain
        ],
    );
}

#[test]
fn empty_predicated_memory_ops_keep_their_counter_keys() {
    // `@P0 STG` with P0 false on every lane issues with no lane and no
    // line: it charges zero transactions, which still creates each SM's
    // `transactions` counter at zero.
    let base = layout::GLOBAL_BASE + 0xF0000;
    let mut b = ProgramBuilder::new("empty-mask");
    b.push(Instruction::s2r(Reg(0), SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::isetp(PredReg(0), Reg(0), CmpOp::Lt, 0));
    b.push(
        Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(0)).with_pred(Predicate::when(PredReg(0))),
    );
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(8).block(64).param(base);
    let mut gpu = Gpu::new(GpuConfig::small());
    let mut sink = TelemetrySink::counters_only();
    let stats = gpu.launch(&launch, &mut NullMechanism, &mut sink).unwrap();
    assert_eq!(stats.transactions, 0);
    assert!(
        sink.counters.iter().any(|(s, n, v)| s == Scope::Sm(0) && n == "transactions" && v == 0),
        "zero-valued transactions key"
    );
    let pin = pin_of(stats.cycles, &stats, &gpu, &[(base, 64)], &sink);
    check(
        "empty-mask store",
        &[("empty-mask".into(), pin)],
        &[Pin {
            cycles: 24,
            stats: 0xc57e0b58ba0ba178,
            memory: 0x74445789638da5d3,
            counters: 0xe89bd766357482ad,
            trace: 0x09612b07b5ecb5a5,
        }],
    );
}
