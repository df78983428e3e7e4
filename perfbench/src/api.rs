//! The adapter: every call the benchmark makes into the repository's API.
//!
//! Keeping these calls in one file means a change to a crate's public API
//! touches the benchmark in one place. Only stable entry points are used:
//! `Gpu::with_heap_policy` + `Gpu::run` for single kernels, the
//! `lmi-runtime` host API for resident multi-kernel sessions,
//! `lmi_bench::normalized` for figure cells, and the conformance crate's
//! `generate` / `mutate` / `build` / `run_case`. No engine knob
//! (thread or bank count) is set here: every GPU runs the shipped default
//! configuration.

use lmi_alloc::AlignmentPolicy;
use lmi_baselines::{instrument_baggy, GpuShield};
use lmi_compiler::{compile, CompileOptions};
use lmi_conformance::oracle::{global_bases, seed_image};
use lmi_conformance::{build, run_case, CaseFailure, THREADS};
use lmi_core::{DevicePtr, PtrConfig};
use lmi_runtime::{Runtime, RuntimeReport};
use lmi_sim::{Gpu, GpuConfig, Launch, LmiMechanism, NullMechanism};
use lmi_workloads::{prepare, prepare_in, PreparedWorkload};

use crate::spans::{SimCounts, Spans};

pub use lmi_conformance::{
    generate, mutate, CaseReport, Defect, DefectClass, OracleConfig, Recipe, ALL_CLASSES,
};
pub use lmi_sim::SimStats;
#[cfg(test)]
pub use lmi_telemetry::json::parse as parse_json;
pub use lmi_telemetry::{Json, SplitMix64};
pub use lmi_workloads::{all_workloads, runtime_mixes, TrafficMix, WorkloadSpec};

/// The protection mechanisms the workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mech {
    /// Unprotected baseline.
    Null,
    /// LMI (OCU + EC hooks).
    Lmi,
    /// GPUShield's region bounds table.
    GpuShield,
    /// Baggy Bounds software checks (instrumented binary, null hooks).
    Baggy,
}

impl Mech {
    /// Stable label used in golden files and reports.
    pub fn label(self) -> &'static str {
        match self {
            Mech::Null => "null",
            Mech::Lmi => "lmi",
            Mech::GpuShield => "gpushield",
            Mech::Baggy => "baggy",
        }
    }

    /// Heap/allocation policy: LMI and Baggy need 2ⁿ-aligned buffers.
    fn policy(self) -> AlignmentPolicy {
        match self {
            Mech::Lmi | Mech::Baggy => AlignmentPolicy::PowerOfTwo,
            _ => AlignmentPolicy::CudaDefault,
        }
    }
}

/// The paper's 80-SM Table IV GPU.
pub fn table4_config() -> GpuConfig {
    GpuConfig::table4()
}

/// The 8-SM configuration the figure harness simulates.
pub fn small_config() -> GpuConfig {
    GpuConfig::small()
}

/// Set-up warm-up for the runtime sessions: `mix` with every stream's
/// kernel scaled down a further 2×, as one session.
pub fn warm_up_session(mix: &TrafficMix) -> Result<(), String> {
    let mut small = mix.clone();
    for s in &mut small.streams {
        s.scale *= 2;
    }
    let payloads: Vec<Vec<u64>> = small.streams.iter().map(|s| vec![0; s.h2d_words]).collect();
    session(table4_config(), &small, &payloads, &mut Spans::off()).map(|_| ())
}

/// Table V spec by name.
pub fn spec(name: &str) -> WorkloadSpec {
    all_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("unknown Table V workload {name:?}"))
}

// ---------------------------------------------------------------- lmi-bench

/// One Fig. 12 cell: execution time under `mech` normalized to the
/// unprotected baseline (the harness' own entry point, redundant baseline
/// runs included).
pub fn normalized(spec: &WorkloadSpec, mech: Mech, spans: &mut Spans) -> f64 {
    let m = match mech {
        Mech::Null => lmi_bench::Mechanism::Baseline,
        Mech::Lmi => lmi_bench::Mechanism::Lmi,
        Mech::GpuShield => lmi_bench::Mechanism::GpuShield,
        Mech::Baggy => lmi_bench::Mechanism::BaggySoftware,
    };
    spans.time("bench.normalized", || lmi_bench::normalized(spec, m))
}

/// Launch phases the harness averages hardware mechanisms over.
pub fn harness_phases() -> &'static [u64] {
    &lmi_bench::PHASES
}

// ------------------------------------------- lmi-workloads / lmi-baselines / lmi-sim

/// Builds the kernel for `spec` as `mech` needs it: the workload
/// generator's `prepare`, plus Baggy's software instrumentation.
pub fn prepare_kernel(
    spec: &WorkloadSpec,
    mech: Mech,
    phase: u64,
    spans: &mut Spans,
) -> PreparedWorkload {
    let mut prepared = spans.time("workloads.prepare", || prepare(spec, mech.policy()));
    prepared.launch.phase = phase;
    if mech == Mech::Baggy {
        let program = &prepared.launch.program;
        prepared.launch.program = spans.time("baselines.instrument", || instrument_baggy(program));
    }
    prepared
}

struct ShieldAdapter<'a>(&'a mut GpuShield);

impl lmi_workloads::prepare::RegisterBuffers for ShieldAdapter<'_> {
    fn register_buffer(&mut self, base: u64, size: u64) {
        self.0.register_buffer(base, size);
    }
}

/// Simulates one prepared kernel on a fresh GPU (cold caches): GPU
/// construction, mechanism set-up, then `Gpu::run`.
pub fn simulate(
    cfg: GpuConfig,
    prepared: &PreparedWorkload,
    mech: Mech,
    spans: &mut Spans,
) -> SimStats {
    let mut gpu = spans.time("sim.gpu_new", || Gpu::with_heap_policy(cfg, mech.policy()));
    let launch = &prepared.launch;
    let stats = match mech {
        Mech::Lmi => {
            let mut m = spans.time("mech.setup", LmiMechanism::default_config);
            spans.time(run_span(mech), || gpu.run(launch, &mut m))
        }
        Mech::GpuShield => {
            let mut m = spans.time("mech.setup", || {
                let mut m = GpuShield::new();
                prepared.register_with(&mut ShieldAdapter(&mut m));
                m
            });
            spans.time(run_span(mech), || gpu.run(launch, &mut m))
        }
        Mech::Null | Mech::Baggy => {
            spans.time(run_span(mech), || gpu.run(launch, &mut NullMechanism))
        }
    };
    note_launch(&stats, spans);
    stats
}

/// Exact simulated counts of one launch.
pub fn sim_counts(stats: &SimStats) -> SimCounts {
    let l1 = stats.l1_total();
    SimCounts {
        launches: 1,
        issued: stats.issued,
        cycles: stats.cycles,
        l1_hits: l1.hits,
        l1_misses: l1.misses,
        l2_hits: stats.l2.hits,
        l2_misses: stats.l2.misses,
        dram_transactions: stats.dram_transactions,
        mshr_merges: stats.mshr_merges,
        phase_b_serial: stats.phase_b_serial_items,
        phase_b_banked: stats.phase_b_banked_items,
    }
}

/// Tags the just-finished simulation span with its work and counts it.
fn note_launch(stats: &SimStats, spans: &mut Spans) {
    spans.tag_last(stats.issued, stats.cycles);
    spans.count(&sim_counts(stats));
}

/// Set-up warm-up: one unprotected simulation of `spec` scaled down by
/// `factor` on `cfg`, so the first timed op does not pay first-touch costs.
pub fn warm_up(cfg: GpuConfig, spec: &WorkloadSpec, factor: u32) {
    let mut off = Spans::off();
    let spec = if factor > 1 { spec.scaled_down(factor) } else { spec.clone() };
    let prepared = prepare_kernel(&spec, Mech::Null, 0, &mut off);
    std::hint::black_box(simulate(cfg, &prepared, Mech::Null, &mut off));
}

/// Span name of `Gpu::run` under `mech` (`sim.run_s` aggregates them).
pub fn run_span(mech: Mech) -> &'static str {
    match mech {
        Mech::Null => "sim.run.null",
        Mech::Lmi => "sim.run.lmi",
        Mech::GpuShield => "sim.run.gpushield",
        Mech::Baggy => "sim.run.baggy",
    }
}

/// Every `Gpu::run` span name.
pub const RUN_SPANS: [&str; 4] =
    ["sim.run.null", "sim.run.lmi", "sim.run.gpushield", "sim.run.baggy"];

// ------------------------------------------------- lmi-conformance / lmi-compiler

/// The oracle configuration of a fuzz op: `OracleConfig::quick()`'s five
/// mechanisms at its first (reference, serial) engine point only. The
/// quick matrix's second point runs two spin-synchronised engine threads,
/// which on a 2-vCPU shared host made fuzz throughput swing by a third
/// between identical runs.
pub fn oracle_config() -> OracleConfig {
    let mut cfg = OracleConfig::quick();
    cfg.points.truncate(1);
    cfg
}

/// Simulations one oracle case runs (0 when the compiler rejects it).
pub fn sims_per_case(cfg: &OracleConfig, report: &CaseReport) -> u64 {
    if report.compile_rejected {
        0
    } else {
        (cfg.mechanisms.len() * cfg.points.len()) as u64
    }
}

/// One oracle case through the whole mechanism × engine matrix.
pub fn oracle_case(
    recipe: &Recipe,
    defect: Option<&Defect>,
    cfg: &OracleConfig,
    spans: &mut Spans,
) -> Result<CaseReport, CaseFailure> {
    spans.time("conformance.run_case", || run_case(recipe, defect, cfg))
}

/// Forces LMI detections of `class` to count as oracle failures (the
/// oracle's own masking hook).
#[cfg(test)]
pub fn mask_class(cfg: &mut OracleConfig, class: DefectClass) {
    cfg.masked = Some(class);
}

/// Stable text of an oracle verdict, for golden comparison.
pub fn case_fingerprint(report: &CaseReport) -> String {
    let mut out = if report.compile_rejected { "rejected".to_string() } else { String::new() };
    for m in &report.mechanisms {
        out.push_str(&format!(
            "{}:{}:{}:{}:{};",
            m.mechanism.label(),
            u8::from(m.detected),
            m.forensics,
            m.poison_op.unwrap_or("-"),
            m.poison_latency.map_or(-1, |l| l as i64),
        ));
    }
    out
}

/// Whether the LMI column of a verdict fired.
pub fn lmi_detected(report: &CaseReport) -> bool {
    report.mechanisms.iter().any(|m| m.mechanism.label() == "lmi" && m.detected)
}

/// Layer-by-layer replay of the parts of a case `run_case` hides: IR
/// build, both compiles, and one LMI launch on the shipped default
/// engine (GPU construction and `Gpu::run` timed apart). Returns the
/// launch's statistics, or `None` when the compiler rejects the case.
pub fn replay_case_layers(
    recipe: &Recipe,
    defect: Option<&Defect>,
    spans: &mut Spans,
) -> Option<SimStats> {
    let func = spans.time("conformance.build", || build(recipe, defect));
    let base = spans.time("compiler.compile", || compile(&func, CompileOptions::baseline()));
    let lmi = spans.time("compiler.compile", || compile(&func, CompileOptions::default()));
    let (Ok(_), Ok(bin)) = (base, lmi) else {
        return None;
    };
    let image = seed_image(recipe);
    let mut cfg = GpuConfig::small();
    cfg.halt_on_violation = true;
    let mut gpu = spans.time("sim.gpu_new", || Gpu::with_heap_policy(cfg, Mech::Lmi.policy()));
    gpu.restore(&image);
    let ptr_cfg = PtrConfig::default();
    let mut launch = Launch::new(bin.program).grid(1).block(THREADS as usize);
    for (buf, base) in recipe.globals.iter().zip(global_bases(recipe.globals.len())) {
        let ptr = DevicePtr::encode(base, u64::from(buf.elems) * 4, &ptr_cfg)
            .expect("oracle buffers are aligned powers of two");
        launch = launch.param(ptr.raw());
    }
    let mut m = spans.time("mech.setup", LmiMechanism::default_config);
    let stats = spans.time(run_span(Mech::Lmi), || gpu.run(&launch, &mut m));
    note_launch(&stats, spans);
    Some(stats)
}

// ------------------------------------------------------- lmi-runtime / lmi-telemetry

/// What one host session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The runtime's execution report.
    pub report: RuntimeReport,
    /// Cycle each stream's completion event was recorded at.
    pub events: Vec<Option<u64>>,
    /// Words each stream's D2H copy delivered.
    pub readback: Vec<Vec<u64>>,
    /// Submissions the runtime rejected (all tenants).
    pub rejected: u64,
    /// Submit calls that returned an error.
    pub submit_errors: u64,
}

/// One multi-tenant host session on a fresh runtime: tenants and streams,
/// per stream H2D → launch → D2H → event, then `synchronize` and a
/// metrics snapshot. `payloads[i]` is stream `i`'s upload.
pub fn session(
    cfg: GpuConfig,
    mix: &TrafficMix,
    payloads: &[Vec<u64>],
    spans: &mut Spans,
) -> Result<SessionOutcome, String> {
    let (mut rt, tenants, streams) = spans.time("runtime.setup", || {
        let mut rt = Runtime::new(cfg);
        let tenants: Vec<usize> = mix.tenants.iter().map(|&p| rt.add_tenant(p)).collect();
        let streams: Result<Vec<_>, _> =
            mix.streams.iter().map(|t| rt.create_stream(tenants[t.tenant])).collect();
        (rt, tenants, streams)
    });
    let streams = streams.map_err(|e| format!("create_stream: {e}"))?;
    let mut kernels = Vec::with_capacity(streams.len());
    for (i, traffic) in mix.streams.iter().enumerate() {
        let spec = mix.spec_of(i);
        let allocator = &mut rt.tenant_mut(tenants[traffic.tenant]).allocator;
        kernels.push(spans.time("workloads.prepare", || prepare_in(&spec, allocator)));
    }
    let submitted = spans.time("runtime.submit", || {
        let mut handles = Vec::with_capacity(streams.len());
        let mut submit_errors = 0u64;
        for (i, prepared) in kernels.into_iter().enumerate() {
            let (stream, traffic) = (streams[i], &mix.streams[i]);
            let buf = prepared.launch.params[0];
            submit_errors += u64::from(rt.memcpy_h2d(stream, buf, &payloads[i]).is_err());
            submit_errors += u64::from(rt.launch(stream, prepared.launch).is_err());
            match rt.memcpy_d2h(stream, buf, traffic.d2h_bytes) {
                Ok(h) => handles.push(h),
                Err(_) => submit_errors += 1,
            }
            let event = rt.create_event();
            submit_errors += u64::from(rt.record_event(stream, event).is_err());
        }
        (handles, submit_errors)
    });
    let (handles, submit_errors) = submitted;
    spans.time("runtime.synchronize", || rt.synchronize()).map_err(|e| e.to_string())?;
    let report = rt.report().clone();
    let issued = report.kernels.iter().map(|k| k.stats.issued).sum();
    spans.tag_last(issued, report.total_cycles);
    for k in &report.kernels {
        spans.count(&sim_counts(&k.stats));
    }
    let snapshot = spans.time("runtime.snapshot", || rt.metrics_snapshot());
    let readback = handles
        .iter()
        .map(|&h| rt.copy_result(h).map(<[u64]>::to_vec).unwrap_or_default())
        .collect();
    Ok(SessionOutcome {
        report,
        events: (0..streams.len()).map(|e| rt.event_time(e)).collect(),
        readback,
        rejected: snapshot.tenants.iter().map(|t| t.rejected).sum(),
        submit_errors,
    })
}
