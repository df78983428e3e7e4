//! Observability contract tests.
//!
//! * **Golden trace export**: a traced simulation's Chrome trace document
//!   round-trips through the crate's own JSON parser, and its events obey
//!   the trace-event format (monotonically non-decreasing timestamps,
//!   `ph`/`ts`/`pid`/`tid` on every event, `dur` on complete spans).
//! * **Counter/stats consistency**: across random well-typed kernels
//!   (seeded SplitMix64, as in `differential_fuzz`), the scoped counter
//!   registry always agrees with the `SimStats` totals the same run
//!   reports — the two observability paths cannot drift apart.
//! * **Profiler/metrics contract**: histogram merge is associative and
//!   order-independent; sampling off changes no existing stats; and the
//!   JSON snapshot (what `profile --json` prints) round-trips against the
//!   metrics frame, name for name, scope for scope, value for value.

use lmi::compiler::ir::{Function, FunctionBuilder, IBinOp, Region, Ty};
use lmi::compiler::{compile, CompileOptions};
use lmi::core::{DevicePtr, PtrConfig};
use lmi::mem::layout;
use lmi::runtime::{MetricsSnapshot, Session};
use lmi::sim::{Gpu, GpuConfig, Launch, LmiMechanism};
use lmi::telemetry::{json, Histogram, Scope, SplitMix64, TelemetrySink};
use lmi::workloads::{prepare_in, runtime_mixes, TrafficMix};

/// A random-but-safe straight-line kernel: a few strided global accesses,
/// some arithmetic, one published result per thread.
fn random_kernel(rng: &mut SplitMix64) -> Function {
    let mut b = FunctionBuilder::new("obs");
    let data = b.param(Ty::Ptr(Region::Global));
    let tid = b.tid();
    let zero = b.const_i32(0);
    let acc = b.var(zero);
    for _ in 0..rng.range(1, 6) {
        let off_v = b.const_i32(rng.below(900) as i32);
        let idx = b.ibin(IBinOp::Add, tid, off_v);
        let e = b.gep(data, idx, 4);
        if rng.chance(0.5) {
            let v = b.read_var(acc);
            b.store(e, v, 4);
        } else {
            let v = b.load_i32(e);
            let cur = b.read_var(acc);
            let next = b.ibin(IBinOp::Add, cur, v);
            b.write_var(acc, next);
        }
    }
    for _ in 0..rng.below(4) {
        let c = b.const_i32(rng.below(100) as i32 + 1);
        let cur = b.read_var(acc);
        let next = b.ibin(IBinOp::Mul, cur, c);
        b.write_var(acc, next);
    }
    let out = b.gep(data, tid, 4);
    let v = b.read_var(acc);
    b.store(out, v, 4);
    b.ret();
    b.build()
}

fn run_telemetered_on(
    kernel: &Function,
    sink: &mut TelemetrySink,
    gpu_cfg: GpuConfig,
) -> lmi::sim::SimStats {
    let cfg = PtrConfig::default();
    let bin = compile(kernel, CompileOptions::default()).unwrap();
    let base_addr = layout::GLOBAL_BASE + 0x300000;
    let ptr = DevicePtr::encode(base_addr, 4096, &cfg).unwrap();
    let launch = Launch::new(bin.program).grid(2).block(64).param(ptr.raw());
    let mut gpu = Gpu::new(gpu_cfg);
    for i in 0..1024u64 {
        gpu.memory.write(base_addr + i * 4, i.wrapping_mul(2654435761), 4);
    }
    gpu.launch(&launch, &mut LmiMechanism::default_config(), sink).unwrap()
}

fn run_telemetered(kernel: &Function, sink: &mut TelemetrySink) -> lmi::sim::SimStats {
    run_telemetered_on(kernel, sink, GpuConfig::small())
}

/// Replays a whole traffic mix through a runtime session (the `profile`
/// bin's submission pattern) and returns its metrics snapshot.
fn run_traffic_session(mix: &TrafficMix, period: u64) -> MetricsSnapshot {
    let cfg = GpuConfig::small().with_sample_period(period);
    let mut rt = Session::new(cfg);
    let tenants: Vec<usize> =
        mix.tenants.iter().map(|&protected| rt.add_tenant(protected)).collect();
    for (i, traffic) in mix.streams.iter().enumerate() {
        let spec = mix.spec_of(i);
        let tenant = tenants[traffic.tenant];
        let prepared = prepare_in(&spec, &mut rt.tenant_mut(tenant).allocator);
        let stream = rt.create_stream(tenant).expect("tenant exists");
        let buf = prepared.launch.params[0];
        let words: Vec<u64> = (0..traffic.h2d_words as u64).collect();
        rt.memcpy_h2d(stream, buf, &words).expect("stream exists");
        rt.launch(stream, prepared.launch).expect("workload launches are valid");
        rt.memcpy_d2h(stream, buf, traffic.d2h_bytes).expect("stream exists");
    }
    rt.synchronize().expect("mix drains without deadlock");
    rt.metrics_snapshot()
}

fn mix_named(name: &str) -> TrafficMix {
    runtime_mixes().into_iter().find(|m| m.name == name).expect("known mix")
}

#[test]
fn chrome_trace_export_is_valid_json_with_monotonic_timestamps() {
    let mut rng = SplitMix64::new(0x7ACE);
    let kernel = random_kernel(&mut rng);
    let mut sink = TelemetrySink::with_trace_capacity(1 << 14);
    let stats = run_telemetered(&kernel, &mut sink);
    assert!(!stats.violated());
    assert!(!sink.tracer.is_empty(), "traced run produced no events");

    // The golden property: the serialized document parses with the crate's
    // own parser (compact and pretty forms agree), and the events are
    // well-formed trace events in non-decreasing timestamp order.
    let doc = sink.tracer.chrome_trace();
    let reparsed = json::parse(&doc.to_compact()).expect("compact trace must be valid JSON");
    let reparsed_pretty = json::parse(&doc.to_pretty()).expect("pretty trace must be valid JSON");
    assert_eq!(reparsed.to_compact(), reparsed_pretty.to_compact());

    let events = reparsed.get("traceEvents").expect("traceEvents").items();
    assert_eq!(events.len(), sink.tracer.len());
    let mut last_ts = 0u64;
    for ev in events {
        let ts = ev.get("ts").and_then(|t| t.as_u64()).expect("every event has ts");
        assert!(ts >= last_ts, "timestamps must be non-decreasing ({ts} < {last_ts})");
        last_ts = ts;
        assert!(ev.get("name").and_then(|n| n.as_str()).is_some());
        assert!(ev.get("pid").and_then(|p| p.as_u64()).is_some());
        assert!(ev.get("tid").and_then(|t| t.as_u64()).is_some());
        match ev.get("ph").and_then(|p| p.as_str()).expect("every event has ph") {
            "X" => assert!(ev.get("dur").and_then(|d| d.as_u64()).is_some()),
            "i" => assert_eq!(ev.get("s").and_then(|s| s.as_str()), Some("t")),
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(reparsed.get("droppedEvents").and_then(|d| d.as_u64()).is_some());
}

#[test]
fn registry_counters_agree_with_sim_stats_on_random_kernels() {
    let mut rng = SplitMix64::new(0x0B5E);
    for case in 0..16 {
        let kernel = random_kernel(&mut rng);
        let mut sink = TelemetrySink::counters_only();
        let stats = run_telemetered(&kernel, &mut sink);
        assert!(!stats.violated(), "case {case}");

        let c = &sink.counters;
        assert_eq!(c.sum_sms("issued"), stats.issued, "case {case}: issued");
        assert_eq!(c.sum_sms("transactions"), stats.transactions, "case {case}: transactions");
        assert_eq!(c.get(Scope::Gpu, "cycles"), stats.cycles, "case {case}: cycles");
        assert_eq!(
            c.sum_sms("stall.scoreboard"),
            stats.stalls.scoreboard,
            "case {case}: scoreboard stalls"
        );
        assert_eq!(c.sum_sms("stall.lsu_busy"), stats.stalls.lsu_busy, "case {case}: lsu stalls");
        assert_eq!(
            c.sum_sms("stall.ocu_verdict"),
            stats.stalls.ocu_verdict,
            "case {case}: ocu stalls"
        );
        assert_eq!(
            c.sum_sms("stall.no_ready_warp"),
            stats.stalls.no_ready_warp,
            "case {case}: idle stalls"
        );
        let l1 = stats.l1_total();
        assert_eq!(c.sum_sms("l1.hits"), l1.hits, "case {case}: l1 hits");
        assert_eq!(c.sum_sms("l1.misses"), l1.misses, "case {case}: l1 misses");
        assert_eq!(c.get(Scope::Gpu, "l2.hits"), stats.l2.hits, "case {case}: l2 hits");
        assert_eq!(c.get(Scope::Gpu, "l2.misses"), stats.l2.misses, "case {case}: l2 misses");
        assert_eq!(c.get(Scope::Gpu, "mshr_merges"), stats.mshr_merges, "case {case}: mshr merges");
        assert_eq!(
            c.get(Scope::Gpu, "dram_transactions"),
            stats.dram_transactions,
            "case {case}: dram transactions"
        );
        // Per-warp issue counters partition the per-SM totals.
        let warp_issued: u64 = c
            .iter()
            .filter(|(scope, name, _)| matches!(scope, Scope::Warp { .. }) && *name == "issued")
            .map(|(_, _, v)| v)
            .sum();
        assert_eq!(warp_issued, stats.issued, "case {case}: warp-scope issued");
    }
}

#[test]
fn histogram_merge_is_associative_and_order_independent() {
    let mut rng = SplitMix64::new(0x4157_0611);
    for case in 0..8 {
        // Random values spread across ~54 octaves of magnitude (small
        // enough that 400 of them cannot overflow a u64 sum), recorded
        // once into a reference and split across three parts.
        let values: Vec<u64> =
            (0..rng.range(3, 400)).map(|_| rng.next_u64() >> (10 + rng.below(54))).collect();
        let mut reference = Histogram::new();
        let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        for (i, &v) in values.iter().enumerate() {
            reference.record(v);
            parts[i % 3].record(v);
        }
        let [a, b, c] = &parts;

        // Associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "case {case}: merge must be associative");

        // Order-independent, and splitting loses nothing: any permutation
        // equals recording every value into one histogram.
        let mut reversed = c.clone();
        reversed.merge(a);
        reversed.merge(b);
        assert_eq!(left, reversed, "case {case}: merge must be order-independent");
        assert_eq!(left, reference, "case {case}: merged parts must equal the whole");
        assert_eq!(left.count(), values.len() as u64, "case {case}");
        assert_eq!(left.sum(), values.iter().sum::<u64>(), "case {case}");
    }
}

#[test]
fn sampling_disabled_changes_no_existing_stats() {
    // Default-off means exactly that: with the period at 0 the run's
    // stats and counters are byte-for-byte what they were before the
    // profiler existed; turning sampling on only ever *adds* a profile.
    let mut rng = SplitMix64::new(0x0FF5);
    for case in 0..4 {
        let kernel = random_kernel(&mut rng);
        let mut sink_off = TelemetrySink::counters_only();
        let mut sink_on = TelemetrySink::counters_only();
        let off = run_telemetered_on(&kernel, &mut sink_off, GpuConfig::small());
        let on =
            run_telemetered_on(&kernel, &mut sink_on, GpuConfig::small().with_sample_period(32));
        assert!(off.profile.is_empty(), "case {case}: period 0 must not sample");
        assert!(!on.profile.is_empty(), "case {case}: period 32 must sample");
        let mut on_sans_profile = on.clone();
        on_sans_profile.profile = Default::default();
        assert_eq!(off, on_sans_profile, "case {case}: sampling altered pre-existing stats");
        assert_eq!(sink_off.counters, sink_on.counters, "case {case}: counters diverged");
    }
}

#[test]
fn json_snapshot_round_trips_against_the_metrics_frame() {
    // What `profile --json` wraps is `snap.to_json()`; parsing its text
    // back and walking it must yield the frame's numbers, name for name,
    // scope for scope, value for value.
    let mix = mix_named("dual-tenant");
    let snap = run_traffic_session(&mix, 64);
    assert!(!snap.frame.is_empty());
    let doc = json::parse(&snap.to_json().to_compact()).expect("snapshot JSON must parse");

    // Every counter appears under its scope with the same value.
    let counters_json = doc.get("counters").expect("counters");
    for (scope, name, v) in snap.frame.counters.iter() {
        let label = scope.label();
        let jv = counters_json.get(&label).and_then(|s| s.get(name)).and_then(|n| n.as_u64());
        assert_eq!(jv, Some(v), "JSON counter {label}/{name}");
    }

    // Every histogram's count and sum agree.
    let hists_json = doc.get("histograms").expect("histograms");
    for (scope, name, h) in snap.frame.histograms.iter() {
        let label = scope.label();
        let hj = hists_json.get(&label).and_then(|s| s.get(name)).expect("JSON histogram");
        assert_eq!(hj.get("count").and_then(|n| n.as_u64()), Some(h.count()), "{label}/{name}");
        assert_eq!(hj.get("sum").and_then(|n| n.as_u64()), Some(h.sum()), "{label}/{name}");
    }

    // Profiles: per-kernel sample totals and warp-state counts line up.
    let profiles_json = doc.get("profiles").expect("profiles");
    assert!(!snap.frame.profiles.is_empty());
    for (kernel, p) in &snap.frame.profiles {
        let pj = profiles_json.get(kernel).expect("JSON profile");
        assert_eq!(pj.get("samples").and_then(|n| n.as_u64()), Some(p.samples()));
        let states = pj.get("states").expect("JSON warp states");
        for (state, &n) in lmi::telemetry::WARP_STATE_NAMES.iter().zip(&p.states()) {
            assert_eq!(states.get(state).and_then(|v| v.as_u64()), Some(n), "{kernel}/{state}");
        }
    }

    // Session framing: the makespan and one row per tenant.
    assert_eq!(doc.get("total_cycles").and_then(|n| n.as_u64()), Some(snap.total_cycles));
    let rows = doc.get("tenants").expect("tenants").items();
    assert_eq!(rows.len(), snap.tenants.len(), "one SLO row per tenant");
    for (row, t) in rows.iter().zip(&snap.tenants) {
        let field = |key: &str| row.get(key).and_then(|v| v.as_u64());
        assert_eq!(field("tenant"), Some(t.tenant as u64));
        assert_eq!(field("kernels"), Some(t.kernels));
        assert_eq!(field("rejected"), Some(t.rejected));
        assert_eq!(field("violations"), Some(t.violations));
    }
}
