//! `runtimebench` — multi-stream runtime benchmark and the generator of
//! the committed `BENCH_sim.json` baseline.
//!
//! Sweeps the canned `lmi_workloads::runtime_mixes()` (1, 2 and 4
//! streams) through the `lmi-runtime` scheduler twice per mix:
//!
//! * **concurrent** — streams submitted as written; kernels from
//!   different streams share the GPU on disjoint SM partitions and
//!   copies overlap compute;
//! * **serial** — the identical submissions chained behind events so
//!   every stream waits for the previous one: the back-to-back baseline.
//!
//! The headline metric is **simulated cycles** (overlap speedup =
//! serial / concurrent), which is host-independent — wall-clock numbers
//! are recorded but secondary, since simulated time is what the
//! deterministic engine actually models.
//!
//! Usage: `runtimebench [--quick] [--json] [--out PATH]`
//!
//! * `--quick` — 8-SM config (CI smoke); default is the 80-SM Table IV.
//! * `--out`   — report path (default `BENCH_sim.json`).
//! * `--json`  — also print the document on stdout.

use std::time::Instant;

use lmi_bench::alloc_audit::CountingAlloc;
use lmi_bench::report::{self, ReportOpts};
use lmi_bench::{geomean, print_row};
use lmi_runtime::{MetricsSnapshot, Runtime, RuntimeReport};
use lmi_sim::GpuConfig;
use lmi_telemetry::{Json, Scope};
use lmi_workloads::{prepare_in, runtime_mixes, TrafficMix};

// One relaxed atomic per allocation: cheap enough to keep installed while
// timing, and it makes every baseline regeneration double as an
// allocation audit of the drain loop (`allocs_per_kcycle` per row).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Builds a runtime, submits the whole mix, synchronizes, and returns
/// the report, the session metrics snapshot, the drain wall-clock, and
/// the heap allocations made during the drain. `serialize` chains each
/// stream behind the previous via events — the back-to-back baseline.
fn run_mix(
    mix: &TrafficMix,
    cfg: GpuConfig,
    serialize: bool,
) -> (RuntimeReport, MetricsSnapshot, f64, u64) {
    let mut rt = Runtime::new(cfg);
    let tenants: Vec<usize> =
        mix.tenants.iter().map(|&protected| rt.add_tenant(protected)).collect();
    let streams: Vec<usize> = mix
        .streams
        .iter()
        .map(|t| rt.create_stream(tenants[t.tenant]).expect("tenant exists"))
        .collect();
    let mut chain: Option<usize> = None;
    for (i, traffic) in mix.streams.iter().enumerate() {
        let spec = mix.spec_of(i);
        let tenant = tenants[traffic.tenant];
        let prepared = prepare_in(&spec, &mut rt.tenant_mut(tenant).allocator);
        let stream = streams[i];
        if serialize {
            if let Some(prev) = chain {
                rt.wait_event(stream, prev).expect("event exists");
            }
        }
        let buf = prepared.launch.params[0];
        let words: Vec<u64> = (0..traffic.h2d_words as u64).collect();
        rt.memcpy_h2d(stream, buf, &words).expect("stream exists");
        rt.launch(stream, prepared.launch).expect("workload launches are valid");
        rt.memcpy_d2h(stream, buf, traffic.d2h_bytes).expect("stream exists");
        if serialize {
            let ev = rt.create_event();
            rt.record_event(stream, ev).expect("event exists");
            chain = Some(ev);
        }
    }
    let a0 = CountingAlloc::allocations();
    let t0 = Instant::now();
    rt.synchronize().expect("mix drains without deadlock");
    let wall = t0.elapsed().as_secs_f64();
    let allocs = CountingAlloc::allocations() - a0;
    (rt.report().clone(), rt.metrics_snapshot(), wall, allocs)
}

/// Session-wide kernel-latency tails (schema v3): p50/p99/max execution
/// cycles and p99 queue wait, from the GPU-scope histograms.
fn latency_json(snap: &MetricsSnapshot) -> Json {
    let exec = snap.frame.histograms.get(Scope::Gpu, "kernel_exec_cycles");
    let queue = snap.frame.histograms.get(Scope::Gpu, "kernel_queue_wait");
    Json::obj()
        .with("exec_p50", exec.map(|h| h.p50()).unwrap_or(0))
        .with("exec_p99", exec.map(|h| h.p99()).unwrap_or(0))
        .with("exec_max", exec.map(|h| h.max()).unwrap_or(0))
        .with("queue_p99", queue.map(|h| h.p99()).unwrap_or(0))
}

fn main() {
    let opts = ReportOpts::from_env();
    let mut quick = false;
    let mut out_path = "BENCH_sim.json".to_string();
    let mut it = opts.positional.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            other => panic!("unknown argument: {other}"),
        }
    }

    let cfg = if quick { GpuConfig::small() } else { GpuConfig::table4() };
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    println!(
        "runtimebench: {} SMs, {host_cores} host core(s){}",
        cfg.num_sms,
        if quick { " [quick]" } else { "" },
    );
    print_row(
        "mix",
        &["streams", "serial cyc", "conc cyc", "overlap", "kernels", "wall ms", "kips", "al/kcyc"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );

    let mut rows = Vec::new();
    let mut overlaps = Vec::new();
    let wall0 = Instant::now();
    for mix in runtime_mixes() {
        let (concurrent, snap, conc_wall, conc_allocs) = run_mix(&mix, cfg, false);
        let (serial, _, _, _) = run_mix(&mix, cfg, true);
        let overlap = serial.total_cycles as f64 / concurrent.total_cycles as f64;
        if mix.streams.len() > 1 {
            assert!(
                concurrent.total_cycles < serial.total_cycles,
                "{}: concurrent streams must beat back-to-back ({} vs {})",
                mix.name,
                concurrent.total_cycles,
                serial.total_cycles
            );
        }
        overlaps.push(overlap);
        // Simulator throughput over the concurrent drain: total issued
        // warp-instructions per wall-clock second, in thousands.
        let issued: u64 = concurrent.kernels.iter().map(|k| k.stats.issued).sum();
        let kips = if conc_wall > 0.0 { issued as f64 / conc_wall / 1e3 } else { 0.0 };
        // B-check share of phase-B work units over the whole mix.
        let (pb_serial, pb_banked) = concurrent.kernels.iter().fold((0u64, 0u64), |(s, b), k| {
            (s + k.stats.phase_b_serial_items, b + k.stats.phase_b_banked_items)
        });
        let phase_b_serial_fraction = if pb_serial + pb_banked > 0 {
            pb_serial as f64 / (pb_serial + pb_banked) as f64
        } else {
            0.0
        };
        let allocs_per_kcycle = if concurrent.total_cycles > 0 {
            conc_allocs as f64 / (concurrent.total_cycles as f64 / 1e3)
        } else {
            0.0
        };
        print_row(
            mix.name,
            &[
                format!("{}", mix.streams.len()),
                format!("{}", serial.total_cycles),
                format!("{}", concurrent.total_cycles),
                format!("{overlap:.2}x"),
                format!("{}", concurrent.kernels.len()),
                format!("{:.1}", conc_wall * 1e3),
                format!("{kips:.0}"),
                format!("{allocs_per_kcycle:.2}"),
            ],
        );
        let kernels = concurrent
            .kernels
            .iter()
            .map(|k| {
                Json::obj()
                    .with("name", k.name.as_str())
                    .with("stream", k.stream as u64)
                    .with("tenant", k.tenant as u64)
                    .with("sm_first", k.partition.start as u64)
                    .with("sm_count", k.partition.len() as u64)
                    .with("cycles", k.stats.cycles)
                    .with("started_at", k.started_at)
                    .with("completed_at", k.completed_at)
            })
            .collect();
        rows.push(
            Json::obj()
                .with("mix", mix.name)
                .with("streams", mix.streams.len() as u64)
                .with("tenants", mix.tenants.len() as u64)
                .with("serial_cycles", serial.total_cycles)
                .with("concurrent_cycles", concurrent.total_cycles)
                .with("overlap_speedup", overlap)
                .with("copies", concurrent.copies.len() as u64)
                .with("kernel_latency", latency_json(&snap))
                .with("kernels", Json::Arr(kernels))
                .with("wall_ms", conc_wall * 1e3)
                .with("kips", kips)
                .with("allocs_per_kcycle", allocs_per_kcycle)
                .with("phase_b_serial_fraction", phase_b_serial_fraction),
        );
    }
    let total_secs = wall0.elapsed().as_secs_f64();

    let gm = geomean(overlaps.iter().copied());
    println!(
        "\ngeomean overlap speedup {gm:.2}x (simulated cycles, serial / concurrent); \
         total {total_secs:.1}s"
    );

    let mut doc = report::envelope(
        "runtimebench",
        Json::obj()
            .with("git_rev", report::git_rev())
            .with("quick", quick)
            .with("num_sms", cfg.num_sms)
            .with("host_cores", host_cores)
            .with("mixes", Json::Arr(rows))
            .with(
                "summary",
                Json::obj().with("geomean_overlap_speedup", gm).with("total_wall_s", total_secs),
            ),
    );
    // v3: mix rows carry `kernel_latency` (p50/p99/max exec, p99 queue
    // wait) from the session histograms.
    // v4: mix rows carry `kips` (issued warp-instructions per wall-clock
    // second, thousands) and `allocs_per_kcycle` (heap allocations during
    // the drain per thousand simulated cycles — the allocation audit).
    // v5: mix rows carry `phase_b_serial_fraction` (B-check share of
    // phase-B work units).
    // v6: the envelope's `mem_banks` and `determinism_threads` and the
    // rows' `determinism` go with the parallel engine.
    doc.set("schema_version", 6u64);
    if let Err(e) = std::fs::write(&out_path, doc.to_pretty()) {
        eprintln!("warning: could not write {out_path}: {e}");
    } else {
        println!("report written to {out_path}");
    }
    if opts.json {
        report::emit(&doc);
    }
}
