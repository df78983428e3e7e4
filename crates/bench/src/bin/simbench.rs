//! `simbench` — reproducible simulator-throughput benchmark.
//!
//! Measures the *simulator's* wall-clock performance (not the modelled
//! GPU's): a fixed matrix of three Table V kernels × three mechanisms,
//! one timed `Gpu::run` per cell.
//!
//! Output is a JSON document (schema in `EXPERIMENTS.md`): wall-clock per
//! run, kilo-warp-instructions per second, host core count and git
//! revision, so numbers from different machines and commits stay
//! comparable. Note: the *committed* `BENCH_sim.json` baseline is owned by
//! `runtimebench` (schema v6, simulated-cycle-led); pass `--out` here when
//! you don't want to clobber it.
//!
//! Usage: `simbench [--quick] [--json] [--out PATH]`
//!
//! * `--quick` — small 8-SM config and scaled-down kernels (CI smoke);
//!   the default is the paper's 80-SM Table IV config.
//! * `--out`         report path (default `BENCH_sim.json`).
//! * `--json`        also print the document on stdout.

use std::time::Instant;

use lmi_alloc::AlignmentPolicy;
use lmi_baselines::GpuShield;
use lmi_bench::alloc_audit::CountingAlloc;
use lmi_bench::report::{self, ReportOpts};
use lmi_bench::{format_row, geomean};
use lmi_sim::{Gpu, GpuConfig, LmiMechanism, NullMechanism, SimStats};
use lmi_telemetry::Json;
use lmi_workloads::{all_workloads, prepare, PreparedWorkload, WorkloadSpec};

// Counting the allocator while timing is deliberate: one relaxed atomic
// per allocation is noise, and it lets every benchmark run double as an
// allocation audit (`allocs_per_kcycle` should stay near zero — setup
// only, nothing proportional to cycles).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The fixed kernel set: compute-heavy, wavefront/barrier-heavy, and
/// memory/traffic-heavy — the three simulator hot paths.
const KERNELS: [&str; 3] = ["hotspot", "needle", "gaussian"];

const MECHANISMS: [Mech; 3] = [Mech::Null, Mech::Lmi, Mech::GpuShield];

#[derive(Clone, Copy, PartialEq)]
enum Mech {
    Null,
    Lmi,
    GpuShield,
}

impl Mech {
    fn name(self) -> &'static str {
        match self {
            Mech::Null => "null",
            Mech::Lmi => "lmi",
            Mech::GpuShield => "gpushield",
        }
    }

    fn policy(self) -> AlignmentPolicy {
        match self {
            Mech::Lmi => AlignmentPolicy::PowerOfTwo,
            _ => AlignmentPolicy::CudaDefault,
        }
    }
}

struct ShieldAdapter<'a>(&'a mut GpuShield);

impl lmi_workloads::prepare::RegisterBuffers for ShieldAdapter<'_> {
    fn register_buffer(&mut self, base: u64, size: u64) {
        self.0.register_buffer(base, size);
    }
}

/// One timed simulation. Returns the stats, the wall-clock seconds of the
/// `Gpu::run` call alone (setup/teardown excluded), and the heap
/// allocations made during that same window.
fn run_once(cfg: &GpuConfig, prepared: &PreparedWorkload, mech: Mech) -> (SimStats, f64, u64) {
    let mut gpu = Gpu::with_heap_policy(*cfg, mech.policy());
    let (stats, secs, allocs) = match mech {
        Mech::Null => {
            let a0 = CountingAlloc::allocations();
            let t0 = Instant::now();
            let s = gpu.run(&prepared.launch, &mut NullMechanism);
            (s, t0.elapsed().as_secs_f64(), CountingAlloc::allocations() - a0)
        }
        Mech::Lmi => {
            let mut m = LmiMechanism::default_config();
            let a0 = CountingAlloc::allocations();
            let t0 = Instant::now();
            let s = gpu.run(&prepared.launch, &mut m);
            (s, t0.elapsed().as_secs_f64(), CountingAlloc::allocations() - a0)
        }
        Mech::GpuShield => {
            let mut m = GpuShield::new();
            prepared.register_with(&mut ShieldAdapter(&mut m));
            let a0 = CountingAlloc::allocations();
            let t0 = Instant::now();
            let s = gpu.run(&prepared.launch, &mut m);
            (s, t0.elapsed().as_secs_f64(), CountingAlloc::allocations() - a0)
        }
    };
    assert!(
        stats.violations.is_empty(),
        "{}: benign workload must not fault: {:?}",
        mech.name(),
        stats.violations.first()
    );
    (stats, secs, allocs)
}

fn spec_for(name: &str, quick: bool) -> WorkloadSpec {
    let mut spec = all_workloads().into_iter().find(|w| w.name == name).unwrap();
    if quick {
        spec = spec.scaled_down(4);
    } else {
        // Keep all 80 SMs busy: two blocks per SM instead of Table V's
        // evaluation default of 32 blocks.
        spec.blocks = 160;
    }
    spec
}

fn kips(issued: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        issued as f64 / secs / 1e3
    } else {
        0.0
    }
}

/// Heap allocations per thousand simulated cycles. The hot path is
/// allocation-free (see `tests/alloc_audit.rs`), so this amortizes
/// launch-time setup over the run and should stay near zero for any
/// non-trivial kernel.
fn allocs_per_kcycle(allocs: u64, cycles: u64) -> f64 {
    if cycles > 0 {
        allocs as f64 / (cycles as f64 / 1e3)
    } else {
        0.0
    }
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
    let rev = report::git_rev();

    // With `--json`, stdout carries the JSON document alone (so
    // `simbench --json | jsonlint` works, like `probe` and `profile`);
    // the human-readable table moves to stderr.
    let json_mode = opts.json;
    let say = |line: String| {
        if json_mode {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };

    say(format!(
        "simbench: {} SMs, {} host core(s), rev {}{}",
        cfg.num_sms,
        host_cores,
        rev,
        if quick { " [quick]" } else { "" },
    ));
    say(format_row(
        "kernel/mech",
        &["cycles", "kinsts", "wall ms", "kips", "alloc/kcyc", "srl frac"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    ));

    let mut runs = Vec::new();
    let mut all_kips = Vec::new();
    let wall0 = Instant::now();
    for kernel in KERNELS {
        let spec = spec_for(kernel, quick);
        for mech in MECHANISMS {
            let prepared = prepare(&spec, mech.policy());
            let (stats, secs, allocs) = run_once(&cfg, &prepared, mech);
            let rate = kips(stats.issued, secs);
            all_kips.push(rate);
            say(format_row(
                &format!("{kernel}/{}", mech.name()),
                &[
                    format!("{}", stats.cycles),
                    format!("{:.1}", stats.issued as f64 / 1e3),
                    format!("{:.1}", secs * 1e3),
                    format!("{rate:.0}"),
                    format!("{:.2}", allocs_per_kcycle(allocs, stats.cycles)),
                    format!("{:.3}", stats.phase_b_serial_fraction()),
                ],
            ));
            runs.push(
                Json::obj()
                    .with("kernel", kernel)
                    .with("mechanism", mech.name())
                    // One kernel at a time; multi-stream rows come from
                    // `runtimebench`, which owns the committed baseline.
                    .with("streams", 1u64)
                    .with("cycles", stats.cycles)
                    .with("instructions", stats.issued)
                    .with("phase_b_serial_fraction", stats.phase_b_serial_fraction())
                    .with("wall_ms", secs * 1e3)
                    .with("kips", rate)
                    .with("allocs_per_kcycle", allocs_per_kcycle(allocs, stats.cycles)),
            );
        }
    }
    let total_secs = wall0.elapsed().as_secs_f64();

    let gm = geomean(all_kips.iter().copied());
    say(format!("\ngeomean {gm:.0} kips; total {total_secs:.1}s"));

    let mut doc = report::envelope(
        "simbench",
        Json::obj()
            .with("git_rev", rev)
            .with("quick", quick)
            .with("num_sms", cfg.num_sms)
            .with("host_cores", host_cores)
            .with("kernels", Json::Arr(KERNELS.iter().map(|&k| Json::from(k)).collect()))
            .with("runs", Json::Arr(runs))
            .with("summary", Json::obj().with("geomean_kips", gm).with("total_wall_s", total_secs)),
    );
    // v2: one timed run per cell; the serial/parallel pair, `threads`,
    // `mem_banks` and the speedup fields are gone with the parallel engine.
    doc.set("schema_version", 2u64);
    if let Err(e) = std::fs::write(&out_path, doc.to_pretty()) {
        eprintln!("warning: could not write {out_path}: {e}");
    } else {
        say(format!("report written to {out_path}"));
    }
    if opts.json {
        report::emit(&doc);
    }
}
