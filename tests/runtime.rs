//! Integration tests for the `lmi-runtime` stream/event layer — the
//! acceptance criteria of the runtime subsystem:
//!
//! * kernels from different streams run **concurrently** on disjoint SM
//!   partitions, in measurably fewer total simulated cycles than the same
//!   submissions chained back-to-back;
//! * a cross-tenant OOB attempt is caught by the victim-independent LMI
//!   check and attributed to the offending stream and tenant in telemetry;
//! * the canned traffic mixes keep their pinned makespans and kernel
//!   spans on the Table IV GPU, concurrent and chained back-to-back.

use lmi_core::DevicePtr;
use lmi_isa::instr::CmpOp;
use lmi_isa::reg::PredReg;
use lmi_isa::{abi, op, HintBits, Instruction, MemRef, Program, ProgramBuilder, Reg};
use lmi_runtime::{Runtime, RuntimeReport, SubmitError};
use lmi_sim::{GpuConfig, Launch, LaunchError};
use lmi_telemetry::Scope;
use lmi_workloads::{prepare_in, runtime_mixes, TrafficMix};

/// `buf[tid] += tid`, repeated `iters` times.
fn worker(name: &str, iters: u32) -> Program {
    let mut b = ProgramBuilder::new(name);
    b.push(Instruction::s2r(Reg(0), op::SpecialReg::TidX));
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::lea64(Reg(6), Reg(4), Reg(0), 3));
    b.push(Instruction::mov(Reg(2), 0));
    let top = b.label();
    b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 0, 8)));
    b.push(Instruction::iadd3(Reg(8), Reg(8), Reg(0)));
    b.push(Instruction::stg(MemRef::new(Reg(6), 0, 8), Reg(8)));
    b.push(Instruction::iadd3(Reg(2), Reg(2), 1));
    b.push(Instruction::isetp(PredReg(0), Reg(2), CmpOp::Lt, iters as i32));
    b.branch_if(top, PredReg(0), false);
    b.push(Instruction::exit());
    b.build()
}

/// Submits the two-tenant, two-stream pipeline. With `chained`, stream B
/// waits on an event recorded after stream A's kernel — the back-to-back
/// serial baseline; otherwise both kernels are free to share the GPU.
fn two_stream_run(chained: bool) -> RuntimeReport {
    let mut rt = Runtime::new(GpuConfig::small());
    let ta = rt.add_tenant(true);
    let tb = rt.add_tenant(true);
    let sa = rt.create_stream(ta).unwrap();
    let sb = rt.create_stream(tb).unwrap();
    let buf_a = rt.malloc(ta, 4096).unwrap();
    let buf_b = rt.malloc(tb, 4096).unwrap();
    rt.memcpy_h2d(sa, buf_a, &vec![10u64; 512]).unwrap();
    rt.memcpy_h2d(sb, buf_b, &vec![20u64; 512]).unwrap();
    rt.launch(sa, Launch::new(worker("wa", 256)).grid(4).block(64).param(buf_a)).unwrap();
    if chained {
        let ev = rt.create_event();
        rt.record_event(sa, ev).unwrap();
        rt.wait_event(sb, ev).unwrap();
    }
    rt.launch(sb, Launch::new(worker("wb", 256)).grid(4).block(64).param(buf_b)).unwrap();
    rt.synchronize().unwrap();
    rt.report().clone()
}

#[test]
fn concurrent_streams_beat_back_to_back_on_disjoint_partitions() {
    let concurrent = two_stream_run(false);
    let serial = two_stream_run(true);

    let (ka, kb) = (&concurrent.kernels[0], &concurrent.kernels[1]);
    assert!(
        ka.partition.end <= kb.partition.start || kb.partition.end <= ka.partition.start,
        "concurrent kernels must own disjoint SM partitions: {:?} vs {:?}",
        ka.partition,
        kb.partition
    );
    assert!(!ka.partition.is_empty() && !kb.partition.is_empty());
    assert!(
        ka.started_at < kb.completed_at && kb.started_at < ka.completed_at,
        "the two kernels must overlap in simulated time"
    );

    // "Measurably fewer": well beyond cycle-level noise.
    assert!(
        concurrent.total_cycles as f64 <= serial.total_cycles as f64 * 0.75,
        "concurrent {} vs serial {} cycles",
        concurrent.total_cycles,
        serial.total_cycles
    );

    // The serial baseline really is back-to-back.
    let (sa, sb) = (&serial.kernels[0], &serial.kernels[1]);
    assert!(sb.started_at >= sa.completed_at, "chained kernel starts after the event");
}

#[test]
fn cross_tenant_oob_is_caught_and_attributed() {
    let mut rt = Runtime::new(GpuConfig::small());
    let alice = rt.add_tenant(true);
    let bob = rt.add_tenant(true);
    let s_alice = rt.create_stream(alice).unwrap();
    let s_bob = rt.create_stream(bob).unwrap();

    let buf_a = rt.malloc(alice, 4096).unwrap();
    let buf_b = rt.malloc(bob, 4096).unwrap();
    rt.memcpy_h2d(s_bob, buf_b, &[777]).unwrap();

    // Alice redirects her own pointer into Bob's arena via a marked add;
    // the delta arrives as a 64-bit launch parameter.
    let delta = DevicePtr::from_raw(buf_b).addr() - DevicePtr::from_raw(buf_a).addr();
    let mut b = ProgramBuilder::new("cross_tenant");
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::ldc(Reg(6), abi::LAUNCH_BANK, abi::param_offset(1), 8));
    b.push(Instruction::iadd64(Reg(4), Reg(4), Reg(6)).with_hints(HintBits::check_operand(0)));
    b.push(Instruction::mov(Reg(0), 0xBAD));
    b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(0)));
    b.push(Instruction::exit());
    rt.launch(s_alice, Launch::new(b.build()).grid(1).block(1).param(buf_a).param(delta)).unwrap();
    rt.synchronize().unwrap();

    let attack = rt.report().kernels.last().unwrap();
    assert_eq!(attack.stats.violations.len(), 1, "the cross-tenant store must fault");
    assert_eq!(attack.tenant, alice);
    assert_eq!(attack.stream, s_alice);
    assert_eq!(rt.read(buf_b, 0, 8), 777, "bob's memory is untouched");

    let c = rt.counters();
    assert_eq!(c.get(Scope::Stream(s_alice), "violations"), 1);
    assert_eq!(c.get(Scope::Tenant(alice), "violations"), 1);
    assert_eq!(c.get(Scope::Stream(s_bob), "violations"), 0);
    assert_eq!(c.get(Scope::Tenant(bob), "violations"), 0);
}

#[test]
fn unprotected_tenant_coexists_with_a_protected_one() {
    // A null-mechanism tenant shares the GPU with an LMI tenant; both
    // pipelines complete and only the protected tenant carries extents.
    let mut rt = Runtime::new(GpuConfig::small());
    let prot = rt.add_tenant(true);
    let raw = rt.add_tenant(false);
    let sp = rt.create_stream(prot).unwrap();
    let sr = rt.create_stream(raw).unwrap();
    let bp = rt.malloc(prot, 4096).unwrap();
    let br = rt.malloc(raw, 4096).unwrap();
    assert!(DevicePtr::from_raw(bp).extent() > 0, "protected pointer carries an extent");
    assert_eq!(DevicePtr::from_raw(br).extent(), 0, "unprotected pointer is a plain address");

    rt.memcpy_h2d(sp, bp, &vec![1u64; 64]).unwrap();
    rt.memcpy_h2d(sr, br, &vec![2u64; 64]).unwrap();
    rt.launch(sp, Launch::new(worker("wp", 4)).grid(1).block(64).param(bp)).unwrap();
    rt.launch(sr, Launch::new(worker("wr", 4)).grid(1).block(64).param(br)).unwrap();
    let hp = rt.memcpy_d2h(sp, bp, 512).unwrap();
    let hr = rt.memcpy_d2h(sr, br, 512).unwrap();
    rt.synchronize().unwrap();

    assert_eq!(rt.copy_result(hp).unwrap()[3], 1 + 4 * 3);
    assert_eq!(rt.copy_result(hr).unwrap()[3], 2 + 4 * 3);
    assert!(rt.report().kernels.iter().all(|k| k.stats.violations.is_empty()));
}

#[test]
fn oversized_launch_is_rejected_as_a_typed_error() {
    let mut rt = Runtime::new(GpuConfig::small());
    let t = rt.add_tenant(true);
    let s = rt.create_stream(t).unwrap();
    let cap = GpuConfig::small();
    let too_many = cap.num_sms * cap.max_warps_per_sm + 1;
    let err = rt
        .launch(s, Launch::new(worker("big", 1)).grid(too_many).block(32))
        .expect_err("launch beyond whole-GPU capacity must be rejected");
    match err {
        SubmitError::Launch(LaunchError::WarpCapacityExceeded { .. }) => {}
        other => panic!("expected WarpCapacityExceeded, got {other:?}"),
    }
    // The rejection is recorded, and the runtime stays usable.
    assert_eq!(rt.counters().get(Scope::Stream(s), "rejected"), 1);
    let buf = rt.malloc(t, 256).unwrap();
    rt.launch(s, Launch::new(worker("ok", 1)).grid(1).block(32).param(buf)).unwrap();
    rt.synchronize().unwrap();
    assert_eq!(rt.report().kernels.len(), 1);
}

/// Runs one canned traffic mix on the Table IV GPU. With `serial`, each
/// stream first waits on an event recorded after the previous stream's
/// work, so the mix runs back-to-back.
fn traffic_mix_run(mix: &TrafficMix, serial: bool) -> RuntimeReport {
    let mut rt = Runtime::new(GpuConfig::table4());
    let tenants: Vec<usize> = mix.tenants.iter().map(|&p| rt.add_tenant(p)).collect();
    let streams: Vec<usize> =
        mix.streams.iter().map(|t| rt.create_stream(tenants[t.tenant]).unwrap()).collect();
    let mut chain = None;
    for (i, traffic) in mix.streams.iter().enumerate() {
        let spec = mix.spec_of(i);
        let prepared = prepare_in(&spec, &mut rt.tenant_mut(tenants[traffic.tenant]).allocator);
        let stream = streams[i];
        if let (true, Some(prev)) = (serial, chain) {
            rt.wait_event(stream, prev).unwrap();
        }
        let buf = prepared.launch.params[0];
        let words: Vec<u64> = (0..traffic.h2d_words as u64).collect();
        rt.memcpy_h2d(stream, buf, &words).unwrap();
        rt.launch(stream, prepared.launch).unwrap();
        rt.memcpy_d2h(stream, buf, traffic.d2h_bytes).unwrap();
        if serial {
            let ev = rt.create_event();
            rt.record_event(stream, ev).unwrap();
            chain = Some(ev);
        }
    }
    rt.synchronize().unwrap();
    rt.report().clone()
}

/// One kernel of a concurrent mix: `(name, sm_first, sm_count, cycles,
/// started_at, completed_at)`.
type KernelSpan = (&'static str, usize, usize, u64, u64, u64);

/// Per mix: `(name, serial_cycles, concurrent_cycles, concurrent kernels)`.
const MIX_PINS: [(&str, u64, u64, &[KernelSpan]); 3] = [
    ("solo", 16769, 16769, &[("hotspot", 0, 80, 12865, 2848, 15713)]),
    (
        "dual-tenant",
        41678,
        16769,
        &[("hotspot", 0, 40, 12865, 2848, 15713), ("bfs", 40, 40, 8938, 5696, 14634)],
    ),
    (
        "quad-stream",
        70059,
        17721,
        &[
            ("hotspot", 0, 23, 7820, 1824, 9644),
            ("bfs", 23, 23, 4747, 3648, 8395),
            ("needle", 46, 12, 11321, 5472, 16793),
            ("srad_v1", 58, 22, 7288, 7296, 14584),
        ],
    ),
];

#[test]
fn traffic_mixes_keep_their_pinned_overlap_on_table4() {
    let mixes = runtime_mixes();
    assert_eq!(mixes.len(), MIX_PINS.len(), "every canned mix is pinned");
    for (mix, &(name, serial_cycles, concurrent_cycles, spans)) in mixes.iter().zip(&MIX_PINS) {
        assert_eq!(mix.name, name);
        let concurrent = traffic_mix_run(mix, false);
        let serial = traffic_mix_run(mix, true);
        assert_eq!(serial.total_cycles, serial_cycles, "{name}: serial makespan");
        assert_eq!(concurrent.total_cycles, concurrent_cycles, "{name}: concurrent makespan");
        if mix.streams.len() > 1 {
            assert!(concurrent.total_cycles < serial.total_cycles, "{name}: no overlap");
        }
        let got: Vec<(&str, usize, usize, u64, u64, u64)> = concurrent
            .kernels
            .iter()
            .map(|k| {
                let p = &k.partition;
                (k.name.as_str(), p.start, p.len(), k.stats.cycles, k.started_at, k.completed_at)
            })
            .collect();
        assert_eq!(got, spans, "{name}: concurrent kernel spans");
    }
}
