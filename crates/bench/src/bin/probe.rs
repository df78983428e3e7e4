//! Developer diagnostic: decomposes a workload's LMI overhead into its
//! program-variant and mechanism components, and reports where the cycles
//! go under each mechanism.
//!
//! Usage: `cargo run --release -p lmi-bench --bin probe [workload] [--json] [--trace out.json]`
//!
//! With `--json`, one machine-readable document is printed instead of the
//! tables: per-phase cycles, the overhead decomposition, the full LMI-run
//! statistics (IPC, cache hit rates, stall breakdown), the scoped counter
//! registry, and a violation demo whose forensics record shows the
//! poisoning pc and the poison-to-fault latency. With `--trace`, the LMI
//! run's kernel timeline is written as Chrome trace-event JSON.

use lmi_alloc::AlignmentPolicy;
use lmi_bench::report::{self, ReportOpts};
use lmi_core::{DevicePtr, PtrConfig};
use lmi_isa::{abi, HintBits, Instruction, MemRef, ProgramBuilder, Reg};
use lmi_mem::layout;
use lmi_sim::{Gpu, GpuConfig, Launch, LmiMechanism, NullMechanism, SimStats};
use lmi_telemetry::{Json, TelemetrySink};
use lmi_workloads::{all_workloads, prepare, PreparedWorkload};

fn run(prep: &PreparedWorkload, lmi_mech: bool, phase: u64) -> (u64, SimStats) {
    let mut launch = prep.launch.clone();
    launch.phase = phase;
    let mut gpu = Gpu::new(GpuConfig::small());
    let stats = if lmi_mech {
        gpu.run(&launch, &mut LmiMechanism::default_config())
    } else {
        gpu.run(&launch, &mut NullMechanism)
    };
    (stats.cycles, stats)
}

/// A deliberately violating kernel: `p += 256` (marked) escapes a 256-byte
/// buffer, then the dereference trips the EC. Its stats carry the
/// forensics record the `--json` report surfaces.
fn violation_demo() -> SimStats {
    let cfg = PtrConfig::default();
    let buf = DevicePtr::encode(layout::GLOBAL_BASE + 0x10000, 256, &cfg).unwrap().raw();
    let mut b = ProgramBuilder::new("oob-demo");
    b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
    b.push(Instruction::iadd64(Reg(4), Reg(4), 256).with_hints(HintBits::check_operand(0)));
    b.push(Instruction::mov(Reg(0), 1));
    b.push(Instruction::stg(MemRef::new(Reg(4), 0, 4), Reg(0)));
    b.push(Instruction::exit());
    let launch = Launch::new(b.build()).grid(1).block(1).param(buf);
    let mut gpu = Gpu::new(GpuConfig::security());
    gpu.run(&launch, &mut LmiMechanism::default_config())
}

fn main() {
    let opts = ReportOpts::from_env();
    let name = opts.positional.first().cloned().unwrap_or_else(|| "hotspot".into());
    let w = all_workloads()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown workload `{name}`"));

    let base_prep = prepare(&w, AlignmentPolicy::CudaDefault);
    let lmi_prep = prepare(&w, AlignmentPolicy::PowerOfTwo);

    let mut phases = Vec::new();
    for phase in 0..4u64 {
        let (c1, _) = run(&base_prep, false, phase);
        let (c2, _) = run(&lmi_prep, false, phase);
        phases.push((phase, c1, c2));
    }

    let (a, _) = run(&base_prep, false, 0);
    let (b, _) = run(&lmi_prep, false, 0);

    // The headline LMI run goes through the telemetered path so the report
    // carries the counter registry (and, with `--trace`, the timeline).
    let mut sink = if opts.trace_path.is_some() {
        TelemetrySink::with_trace_capacity(1 << 16)
    } else {
        TelemetrySink::counters_only()
    };
    let mut launch = lmi_prep.launch.clone();
    launch.phase = 0;
    let mut gpu = Gpu::new(GpuConfig::small());
    let stats = gpu
        .launch(&launch, &mut LmiMechanism::default_config(), &mut sink)
        .expect("the probe launch is valid");
    let c = stats.cycles;
    opts.write_trace(&sink.tracer.chrome_trace());

    let demo = violation_demo();

    if opts.json {
        let mut phase_rows = Vec::new();
        for &(phase, c1, c2) in &phases {
            phase_rows.push(
                Json::obj()
                    .with("phase", phase)
                    .with("base_cycles", c1)
                    .with("lmi_program_cycles", c2)
                    .with("ratio", c2 as f64 / c1 as f64),
            );
        }
        let body = Json::obj()
            .with("workload", name.as_str())
            .with("phases", Json::Arr(phase_rows))
            .with(
                "decomposition_pct",
                Json::obj()
                    .with("program_variant", (b as f64 / a as f64 - 1.0) * 100.0)
                    .with("mechanism", (c as f64 / b as f64 - 1.0) * 100.0)
                    .with("total", (c as f64 / a as f64 - 1.0) * 100.0),
            )
            .with("lmi_run", stats.to_json())
            .with("counters", sink.counters.to_json())
            .with("violation_demo", demo.to_json());
        report::emit(&report::envelope("probe", body));
        return;
    }

    println!("{name}: per-phase cycles (baseline program vs LMI program, both unchecked)");
    for &(phase, c1, c2) in &phases {
        println!(
            "  phase {phase}: base {c1:>8}  lmi-prog {c2:>8}  ratio {:.4}",
            c2 as f64 / c1 as f64
        );
    }
    println!("\ndecomposition at phase 0:");
    println!("  program-variant effect: {:+.4}%", (b as f64 / a as f64 - 1.0) * 100.0);
    println!("  mechanism effect:       {:+.4}%", (c as f64 / b as f64 - 1.0) * 100.0);
    println!("  total:                  {:+.4}%", (c as f64 / a as f64 - 1.0) * 100.0);
    println!("\nLMI run statistics:\n{stats}");
    println!("\nviolation demo (escaping pointer, then dereference):\n{demo}");
}
