//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-golden --workload <name>
//! ```
//!
//! One process, one op in flight (closed loop). The seed makes the
//! inputs; the workload runs ops for `--seconds` host seconds (stopping at
//! a group boundary) and checks every simulated output against the golden
//! values compiled into the binary. The last line of standard output is
//! the result object; the line before it carries the host/build stamp and
//! information that is not gated (p90 where ≥ 100 ops ran, simulated
//! kilo-instructions per second, error rate, the paper's reference).
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` first runs
//! untraced for half the budget, then replays the same ops with spans
//! around every call into a layer plus an untimed per-op layer replay, and
//! reports the per-layer metrics and the tracing overhead.
//!
//! The engine knobs `LMI_SIM_THREADS` / `LMI_MEM_BANKS` are cleared at
//! start, so every GPU runs the shipped defaults. Debug builds refuse to
//! time anything. See `WORKLOADS.md` for what each workload measures.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lmi_bench::alloc_audit::CountingAlloc;

mod api;
mod golden;
mod measure;
mod runner;
mod spans;
mod workloads;

use api::{Json, RUN_SPANS};
use measure::{
    median, p90, peak_rss_mib, result_line, HostRef, Metric, MIN_OPS_FOR_P90, REF_NOMINAL_MS,
    REF_TABLE_BITS,
};
use runner::{run_loop, Loop, Stop};
use spans::Spans;
use workloads::{Layers, Workload};

// Counting allocations costs one relaxed atomic each; it lets traced runs
// split heap traffic into set-up and run windows.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Engine knobs the benchmark clears.
const ENGINE_ENV: [&str; 2] = ["LMI_SIM_THREADS", "LMI_MEM_BANKS"];

/// Per-layer metrics of a traced run, with units, in output order.
const PER_LAYER: [(&str, &str); 36] = [
    ("bench.normalized_s", "s"),
    ("bench.redundant_time_share", "ratio"),
    ("workloads.prepare_s", "s"),
    ("baselines.instrument_s", "s"),
    ("compiler.compile_s", "s"),
    ("conformance.generate_s", "s"),
    ("conformance.mutate_s", "s"),
    ("conformance.build_s", "s"),
    ("conformance.run_case_s", "s"),
    ("conformance.sims_per_case", "count"),
    ("sim.gpu_new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.host_ns_per_issued", "ns"),
    ("sim.host_us_per_kcycle", "us"),
    ("sim.issued", "count"),
    ("sim.cycles", "count"),
    ("sim.phase_b_serial_fraction", "ratio"),
    ("sim.allocs_setup", "count"),
    ("sim.allocs_run", "count"),
    ("sim.allocs_run_null", "count"),
    ("sim.allocs_run_lmi", "count"),
    ("sim.allocs_run_gpushield", "count"),
    ("mech.lmi_host_ratio", "ratio"),
    ("mech.gpushield_host_ratio", "ratio"),
    ("mem.l1_hit_rate", "ratio"),
    ("mem.l2_hit_rate", "ratio"),
    ("mem.dram_transactions", "count"),
    ("mem.mshr_merges", "count"),
    ("runtime.setup_s", "s"),
    ("runtime.submit_s", "s"),
    ("runtime.synchronize_s", "s"),
    ("runtime.snapshot_s", "s"),
    ("runtime.kernels", "count"),
    ("runtime.copies", "count"),
    ("runtime.rejected", "count"),
    ("trace_overhead", "ratio"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record_golden: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut record_golden = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--record-golden" => record_golden = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (one of {:?})", workloads::NAMES));
    }
    if record_golden {
        return Ok(Args { workload, seed: 0, seconds: 1, trace: false, record_golden });
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record_golden,
    })
}

/// Host and build stamp recorded with every result. The git revision is
/// looked up only inside a git checkout, so git never searches the parent
/// directories of a plain source tree.
fn stamp(ambient: &[(&str, Option<String>)]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut env = Json::obj();
    for (name, value) in ambient {
        env.set(name, value.clone().map_or(Json::Null, Json::from));
    }
    Json::obj()
        .with("nproc", nproc)
        .with(
            "git_rev",
            if std::path::Path::new(".git").exists() {
                lmi_bench::report::git_rev()
            } else {
                "unknown".to_string()
            },
        )
        .with("rustc", env!("PERFBENCH_RUSTC_VERSION"))
        .with("profile", env!("PERFBENCH_PROFILE"))
        .with("engine_env_ambient", env)
        .with("engine_env_used", "cleared (serial engine, monolithic memory)")
}

/// Per-group ratio of host ns per issued instruction under `mech` to the
/// null mechanism's, geometric mean over groups that ran both.
fn host_ratio(spans: &Spans, group: usize, mech_span: &str) -> f64 {
    let mut per_group: BTreeMap<usize, [(f64, u64); 2]> = BTreeMap::new();
    for s in spans.spans() {
        let slot = match s.name {
            "sim.run.null" => 0,
            n if n == mech_span => 1,
            _ => continue,
        };
        let e = &mut per_group.entry(s.op / group).or_default()[slot];
        e.0 += s.secs;
        e.1 += s.issued;
    }
    let ratios: Vec<f64> = per_group
        .values()
        .filter(|[n, m]| n.1 > 0 && m.1 > 0 && n.0 > 0.0)
        .map(|[n, m]| (m.0 / m.1 as f64) / (n.0 / n.1 as f64))
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Folds the spans of a traced run into the per-layer metrics.
fn per_layer(w: &dyn Workload, spans: &Spans, trace_overhead: f64) -> Vec<Metric> {
    let totals = spans.totals();
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    let mut v: Layers = BTreeMap::new();
    for (metric, span) in [
        ("bench.normalized_s", "bench.normalized"),
        ("workloads.prepare_s", "workloads.prepare"),
        ("baselines.instrument_s", "baselines.instrument"),
        ("compiler.compile_s", "compiler.compile"),
        ("conformance.generate_s", "conformance.generate"),
        ("conformance.mutate_s", "conformance.mutate"),
        ("conformance.build_s", "conformance.build"),
        ("conformance.run_case_s", "conformance.run_case"),
        ("sim.gpu_new_s", "sim.gpu_new"),
        ("runtime.setup_s", "runtime.setup"),
        ("runtime.submit_s", "runtime.submit"),
        ("runtime.synchronize_s", "runtime.synchronize"),
        ("runtime.snapshot_s", "runtime.snapshot"),
    ] {
        v.insert(metric, get(span).mean_secs());
    }

    // Simulation calls: `Gpu::run`, and `Runtime::synchronize` for the
    // resident sessions.
    let (mut calls, mut secs, mut issued, mut cycles, mut allocs) = (0u64, 0.0, 0u64, 0u64, 0u64);
    for s in spans.spans() {
        if RUN_SPANS.contains(&s.name) || s.name == "runtime.synchronize" {
            calls += 1;
            secs += s.secs;
            issued += s.issued;
            cycles += s.cycles;
            allocs += s.allocs;
        }
    }
    if calls > 0 {
        v.insert("sim.run_s", secs / calls as f64);
        v.insert("sim.allocs_run", allocs as f64 / calls as f64);
    }
    if issued > 0 {
        v.insert("sim.host_ns_per_issued", secs * 1e9 / issued as f64);
    }
    if cycles > 0 {
        v.insert("sim.host_us_per_kcycle", secs * 1e9 / cycles as f64);
    }
    let setups = get("sim.gpu_new").calls + get("runtime.setup").calls;
    let setup_allocs =
        get("sim.gpu_new").allocs + get("mech.setup").allocs + get("runtime.setup").allocs;
    v.insert("sim.allocs_setup", ratio(setup_allocs, setups));
    v.insert("sim.allocs_run_null", get("sim.run.null").mean_allocs());
    v.insert("sim.allocs_run_lmi", get("sim.run.lmi").mean_allocs());
    v.insert("sim.allocs_run_gpushield", get("sim.run.gpushield").mean_allocs());
    v.insert("mech.lmi_host_ratio", host_ratio(spans, w.group(), "sim.run.lmi"));
    v.insert("mech.gpushield_host_ratio", host_ratio(spans, w.group(), "sim.run.gpushield"));

    let c = spans.counts();
    v.insert("sim.issued", ratio(c.issued, c.launches));
    v.insert("sim.cycles", ratio(c.cycles, c.launches));
    v.insert(
        "sim.phase_b_serial_fraction",
        ratio(c.phase_b_serial, c.phase_b_serial + c.phase_b_banked),
    );
    v.insert("mem.l1_hit_rate", ratio(c.l1_hits, c.l1_hits + c.l1_misses));
    v.insert("mem.l2_hit_rate", ratio(c.l2_hits, c.l2_hits + c.l2_misses));
    v.insert("mem.dram_transactions", ratio(c.dram_transactions, c.launches));
    v.insert("mem.mshr_merges", ratio(c.mshr_merges, c.launches));
    v.insert("trace_overhead", trace_overhead);
    w.layers(spans, &mut v);

    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric { name, unit, value: v.get(name).copied().unwrap_or(0.0) })
        .collect()
}

fn run(args: &Args, ambient: &[(&str, Option<String>)]) -> Result<(), String> {
    let mut host = HostRef::default();
    host.sample();
    // Set-up, several times; the last instance is the one measured.
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut w = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let built = workloads::setup(&args.workload, args.seed)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up");
    let setup_s = median(&setup_secs).expect("set-up timings");
    let budget = Duration::from_secs(args.seconds);

    let (measured, metrics, traced): (Loop, Vec<Metric>, Option<Loop>) = if args.trace {
        let untraced = run_loop(w.as_mut(), &mut Spans::off(), Stop::After(budget / 2));
        let mut spans = Spans::on(w.group());
        let traced = run_loop(w.as_mut(), &mut spans, Stop::Ops(untraced.tally.attempted as usize));
        let overhead = if untraced.ops_per_s() > 0.0 {
            traced.ops_per_s() / untraced.ops_per_s()
        } else {
            0.0
        };
        let metrics = per_layer(w.as_ref(), &spans, overhead);
        (untraced, metrics, Some(traced))
    } else {
        let lp = run_loop(w.as_mut(), &mut Spans::off(), Stop::After(budget));
        host.merge(&lp.host);
        // Timings at the nominal host speed (see `HostRef`).
        let slow = host.slowdown();
        let p50 = median(&lp.tally.op_secs).unwrap_or(0.0) * 1e3;
        let metrics = vec![
            Metric { name: "ops_per_s", unit: "ops/s", value: lp.ops_per_s() * slow },
            Metric { name: "op_p50_ms", unit: "ms", value: p50 / slow },
            Metric { name: "setup_s", unit: "s", value: setup_s / slow },
            Metric { name: "peak_rss_mb", unit: "MiB", value: peak_rss_mib().unwrap_or(0.0) },
        ];
        (lp, metrics, None)
    };

    let mut tally = measured.tally.clone();
    let mut info = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("stamp", stamp(ambient))
        .with("ops", measured.tally.attempted)
        .with("error_rate", measured.tally.error_rate());
    info.set("op_p90_ms", p90(&measured.tally.op_secs).map_or(Json::Null, |v| Json::from(v * 1e3)));
    info.set("op_p90_min_ops", MIN_OPS_FOR_P90);
    info.set(
        "uncalibrated",
        Json::obj()
            .with("ops_per_s", measured.ops_per_s())
            .with("op_p50_ms", median(&measured.tally.op_secs).unwrap_or(0.0) * 1e3)
            .with("setup_s", setup_s),
    );
    info.set(
        "host_ref",
        Json::obj()
            .with("ref_ms", host.ref_ms().unwrap_or(0.0))
            .with("nominal_ms", REF_NOMINAL_MS)
            .with("slowdown", host.slowdown()),
    );
    if measured.issued_secs > 0.0 {
        info.set("sim_kips", measured.issued as f64 / measured.issued_secs / 1e3);
    }
    info.set("workload_info", w.info());
    if let Some(traced) = traced {
        tally.merge(traced.tally);
    }
    for e in &tally.errors {
        eprintln!("perfbench: failed op: {e}");
    }
    println!("{}", Json::obj().with("perfbench", info).to_compact());
    println!("{}", result_line(&tally, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    // Child mode of `HostRef::sample`: time the reference loops and exit.
    if std::env::args().nth(1).as_deref() == Some("--host-ref") {
        let ms = REF_TABLE_BITS.map(measure::reference_ms);
        println!("{} {}", ms[0], ms[1]);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    // Record, then clear, the engine knobs: every GPU runs the defaults.
    let ambient: Vec<(&str, Option<String>)> =
        ENGINE_ENV.iter().map(|&k| (k, std::env::var(k).ok())).collect();
    for k in ENGINE_ENV {
        std::env::remove_var(k);
    }

    if args.record_golden {
        let path = format!("{}/golden/{}.tsv", env!("CARGO_MANIFEST_DIR"), args.workload);
        return match workloads::record_golden(&args.workload)
            .and_then(|text| std::fs::write(&path, text).map_err(|e| format!("{path}: {e}")))
        {
            Ok(()) => {
                eprintln!("perfbench: wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    match run(&args, &ambient) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a =
            args(&["--workload", "fuzz_oracle", "--seed", "3", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("fuzz_oracle", 3, 10, true));
        assert!(
            args(&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]).is_err()
        );
        assert!(args(&[
            "--workload",
            "fuzz_oracle",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fuzz_oracle",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "fuzz_oracle"]).is_err());
    }

    #[test]
    fn per_layer_names_are_unique() {
        let names: std::collections::BTreeSet<_> = PER_LAYER.iter().map(|p| p.0).collect();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
