//! # lmi-bench — experiment harness
//!
//! Shared machinery for the figure/table regeneration binaries (one binary
//! per paper table/figure, see `src/bin/`). The per-experiment index lives
//! in `DESIGN.md`; measured-vs-paper numbers are recorded in
//! `EXPERIMENTS.md`. Host-time measurement lives in the repository
//! benchmark (`perfbench/`).

pub mod alloc_audit;
pub mod report;

use lmi_alloc::AlignmentPolicy;
use lmi_baselines::{instrument_baggy, instrument_lmi_dbi, instrument_memcheck, GpuShield};
use lmi_sim::{Gpu, GpuConfig, LmiMechanism, NullMechanism, SimStats};
use lmi_workloads::{prepare, PreparedWorkload, WorkloadSpec};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The protection mechanism a run is executed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Unprotected baseline.
    Baseline,
    /// LMI in hardware (OCU + EC).
    Lmi,
    /// GPUShield (region bounds table + RCache).
    GpuShield,
    /// Baggy Bounds software checks.
    BaggySoftware,
    /// LMI implemented via NVBit-style DBI.
    LmiDbi,
    /// Compute-Sanitizer memcheck via DBI.
    Memcheck,
}

impl Mechanism {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::Baseline => "baseline",
            Mechanism::Lmi => "LMI",
            Mechanism::GpuShield => "GPUShield",
            Mechanism::BaggySoftware => "BaggyBounds",
            Mechanism::LmiDbi => "LMI-DBI",
            Mechanism::Memcheck => "memcheck",
        }
    }
}

/// Heap alignment policy a mechanism runs under: LMI and Baggy need
/// 2ⁿ-aligned, extent-carrying pointers.
fn policy_for(mechanism: Mechanism) -> AlignmentPolicy {
    match mechanism {
        Mechanism::Lmi | Mechanism::BaggySoftware => AlignmentPolicy::PowerOfTwo,
        _ => AlignmentPolicy::CudaDefault,
    }
}

fn prepared_for(spec: &WorkloadSpec, mechanism: Mechanism) -> PreparedWorkload {
    let mut prepared = prepare(spec, policy_for(mechanism));
    match mechanism {
        Mechanism::BaggySoftware => {
            prepared.launch.program = instrument_baggy(&prepared.launch.program);
        }
        Mechanism::LmiDbi => {
            prepared.launch.program = instrument_lmi_dbi(&prepared.launch.program);
        }
        Mechanism::Memcheck => {
            prepared.launch.program = instrument_memcheck(&prepared.launch.program);
        }
        _ => {}
    }
    prepared
}

struct ShieldAdapter<'a>(&'a mut GpuShield);

impl lmi_workloads::prepare::RegisterBuffers for ShieldAdapter<'_> {
    fn register_buffer(&mut self, base: u64, size: u64) {
        self.0.register_buffer(base, size);
    }
}

/// Launch phases averaged over for hardware-mechanism timing (marginalizes
/// scheduler-resonance noise; the mechanisms themselves are deterministic).
pub const PHASES: [u64; 4] = [0, 3, 7, 12];

/// One simulator run: `spec` under `mechanism` at launch `phase` on the
/// scaled-down (8-SM) Table IV configuration.
#[derive(Debug, PartialEq)]
struct RunKey {
    spec: WorkloadSpec,
    mechanism: Mechanism,
    phase: u64,
}

impl RunKey {
    /// Host-cost rank, most expensive first: instrumented software runs,
    /// then hardware-mechanism runs, then unprotected baselines.
    fn cost_rank(&self) -> u8 {
        match self.mechanism {
            Mechanism::LmiDbi | Mechanism::Memcheck => 0,
            Mechanism::BaggySoftware => 1,
            Mechanism::Lmi | Mechanism::GpuShield => 2,
            Mechanism::Baseline => 3,
        }
    }
}

/// Executes one run and returns its statistics.
///
/// # Panics
///
/// Panics if the benign workload faults.
fn simulate(key: &RunKey) -> SimStats {
    let RunKey { spec, mechanism, phase } = key;
    let mut prepared = prepared_for(spec, *mechanism);
    prepared.launch.phase = *phase;
    let mut gpu = Gpu::with_heap_policy(GpuConfig::small(), policy_for(*mechanism));
    let stats = match mechanism {
        Mechanism::Lmi => {
            let mut m = LmiMechanism::default_config();
            gpu.run(&prepared.launch, &mut m)
        }
        Mechanism::GpuShield => {
            let mut m = GpuShield::new();
            prepared.register_with(&mut ShieldAdapter(&mut m));
            gpu.run(&prepared.launch, &mut m)
        }
        _ => gpu.run(&prepared.launch, &mut NullMechanism),
    };
    assert!(
        stats.violations.is_empty(),
        "{} under {}: benign workload must not fault: {:?}",
        spec.name,
        mechanism.name(),
        stats.violations.first()
    );
    stats
}

/// One figure cell of a [`Sweep`]: the runs it folds and how.
#[derive(Debug)]
pub struct Cell {
    mechanism: Mechanism,
    runs: Vec<usize>,
    /// The baseline's runs, for a cell normalized to it.
    baseline: Option<Vec<usize>>,
}

impl Cell {
    /// The cell's value from [`Sweep::run`]'s output.
    pub fn value(&self, stats: &[SimStats]) -> f64 {
        let cycles = fold(self.mechanism, &self.runs, stats);
        match &self.baseline {
            Some(baseline) => cycles / fold(Mechanism::Baseline, baseline, stats),
            None => cycles,
        }
    }
}

/// Mean cycles over `runs` (a `u64` sum divided once), times the §XI-B JIT
/// factor for the DBI tools.
fn fold(mechanism: Mechanism, runs: &[usize], stats: &[SimStats]) -> f64 {
    let sum: u64 = runs.iter().map(|&i| stats[i].cycles).sum();
    let mean = sum as f64 / runs.len() as f64;
    match mechanism {
        Mechanism::LmiDbi | Mechanism::Memcheck => mean * lmi_baselines::JIT_OVERHEAD,
        _ => mean,
    }
}

/// A plan of simulator runs behind a set of figure cells.
///
/// Cells name the runs they need; a run two cells share (every spec's
/// null baseline, typically) is queued once. [`Sweep::run`] executes the
/// distinct runs concurrently and returns their statistics in queue
/// order, so every cell folds exactly the numbers a serial loop would.
#[derive(Debug, Default)]
pub struct Sweep {
    keys: Vec<RunKey>,
}

impl Sweep {
    /// An empty plan.
    pub fn new() -> Sweep {
        Sweep::default()
    }

    /// Index of the run `(spec, mechanism, phase)`, queueing it if new.
    fn key(&mut self, spec: &WorkloadSpec, mechanism: Mechanism, phase: u64) -> usize {
        let key = RunKey { spec: spec.clone(), mechanism, phase };
        match self.keys.iter().position(|k| *k == key) {
            Some(i) => i,
            None => {
                self.keys.push(key);
                self.keys.len() - 1
            }
        }
    }

    /// The runs `cycles` folds: every launch phase for the hardware
    /// mechanisms, phase 0 alone for the software ones, whose overheads
    /// dwarf phase noise.
    fn runs_of(&mut self, spec: &WorkloadSpec, mechanism: Mechanism) -> Vec<usize> {
        let phases: &[u64] = match mechanism {
            Mechanism::Baseline | Mechanism::Lmi | Mechanism::GpuShield => &PHASES,
            _ => &PHASES[..1],
        };
        phases.iter().map(|&phase| self.key(spec, mechanism, phase)).collect()
    }

    /// Queues the simulated-cycle count of `spec` under `mechanism`:
    /// phase-averaged for the hardware mechanisms, single-phase (with the
    /// §XI-B JIT factor) for the DBI tools.
    pub fn cycles(&mut self, spec: &WorkloadSpec, mechanism: Mechanism) -> Cell {
        Cell { mechanism, runs: self.runs_of(spec, mechanism), baseline: None }
    }

    /// Queues execution time normalized to the unprotected baseline (the
    /// paper's Fig. 12 / Fig. 13 metric).
    pub fn normalized(&mut self, spec: &WorkloadSpec, mechanism: Mechanism) -> Cell {
        let spec = match mechanism {
            // DBI runs execute 20-60x more instructions; measure them (and
            // their baseline) at reduced scale to keep runs tractable.
            Mechanism::LmiDbi | Mechanism::Memcheck => spec.scaled_down(4),
            _ => spec.clone(),
        };
        Cell {
            mechanism,
            runs: self.runs_of(&spec, mechanism),
            baseline: Some(self.runs_of(&spec, Mechanism::Baseline)),
        }
    }

    /// Queues one phase-0 run of `spec` under `mechanism`; returns its
    /// index into [`Sweep::run`]'s output.
    pub fn stats(&mut self, spec: &WorkloadSpec, mechanism: Mechanism) -> usize {
        self.key(spec, mechanism, 0)
    }

    /// Executes every queued run once and returns the statistics in queue
    /// order. Runs execute concurrently, one per host core.
    ///
    /// # Panics
    ///
    /// Re-raises the first failing run's panic, message intact.
    pub fn run(&self) -> Vec<SimStats> {
        self.run_on(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// [`Sweep::run`] on exactly `workers` threads.
    pub(crate) fn run_on(&self, workers: usize) -> Vec<SimStats> {
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_by_key(|&i| self.keys[i].cost_rank());
        par_map(&self.keys, &order, workers, simulate)
    }
}

/// Maps `f` over `items` on `workers` scoped threads that take items in
/// `order` from a shared cursor; returns the outputs in item order. When a
/// job panics, the other workers stop after their current job and the
/// panic resumes on the caller's thread with its original payload.
fn par_map<T: Sync, R: Send>(
    items: &[T],
    order: &[usize],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(order.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Both atomics publish no data (outputs travel through `join`), so
    // relaxed ordering suffices: the cursor's read-modify-write alone hands
    // each position out once, and the flag is only an early-stop hint.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _flag = RaiseOnPanic(&failed);
                    let mut done = Vec::new();
                    while !failed.load(Ordering::Relaxed) {
                        let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        done.push((i, f(&items[i])));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => done.into_iter().for_each(|(i, r)| out[i] = Some(r)),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out.into_iter().map(|r| r.expect("every item runs once")).collect()
}

/// Raises the flag when its worker unwinds, so the others stop early.
struct RaiseOnPanic<'a>(&'a AtomicBool);

impl Drop for RaiseOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Execution time of `spec` under `mechanism` normalized to the
/// unprotected baseline: a one-cell [`Sweep`], so the mechanism's and the
/// baseline's runs execute together.
pub fn normalized(spec: &WorkloadSpec, mechanism: Mechanism) -> f64 {
    let mut sweep = Sweep::new();
    let cell = sweep.normalized(spec, mechanism);
    cell.value(&sweep.run())
}

/// Geometric mean.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0f64, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Arithmetic mean.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0f64, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Prints an aligned row: name column then fixed-width numeric columns.
pub fn print_row(name: &str, cols: &[String]) {
    let mut row = format!("{name:<24}");
    for c in cols {
        row.push_str(&format!(" {c:>12}"));
    }
    println!("{row}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmi_workloads::all_workloads;

    fn spec(name: &str) -> WorkloadSpec {
        all_workloads().into_iter().find(|w| w.name == name).unwrap()
    }

    #[test]
    fn geomean_and_mean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean([1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn lmi_overhead_is_negligible_on_a_representative_workload() {
        let w = spec("hotspot");
        let overhead = normalized(&w, Mechanism::Lmi) - 1.0;
        assert!(overhead.abs() < 0.02, "LMI overhead {overhead}");
    }

    #[test]
    fn gpushield_suffers_on_needle_but_not_on_friendly_workloads() {
        let needle = normalized(&spec("needle"), Mechanism::GpuShield) - 1.0;
        let hotspot = normalized(&spec("hotspot"), Mechanism::GpuShield) - 1.0;
        assert!(needle > 0.10, "needle RCache thrash overhead {needle}");
        assert!(hotspot < needle / 2.0, "hotspot {hotspot} vs needle {needle}");
    }

    #[test]
    fn baggy_costs_much_more_than_lmi() {
        let w = spec("gaussian");
        let baggy = normalized(&w, Mechanism::BaggySoftware);
        let lmi = normalized(&w, Mechanism::Lmi);
        assert!(baggy > 1.3, "baggy on pointer-heavy kernel: {baggy}");
        assert!(lmi < 1.05, "lmi: {lmi}");
    }

    /// Fig. 12's mechanisms, in the figure's column order.
    const FIG12: [Mechanism; 3] = [Mechanism::BaggySoftware, Mechanism::GpuShield, Mechanism::Lmi];

    #[test]
    fn cells_are_bit_identical_at_any_worker_count() {
        let mut sweep = Sweep::new();
        let cells: Vec<Cell> = ["hotspot", "needle"]
            .iter()
            .flat_map(|name| {
                let spec = spec(name).scaled_down(4);
                FIG12.map(|m| sweep.normalized(&spec, m))
            })
            .collect();
        let bits = |workers: usize| {
            let runs = sweep.run_on(workers);
            cells.iter().map(|c| c.value(&runs).to_bits()).collect::<Vec<u64>>()
        };
        let serial = bits(1);
        assert_eq!(bits(2), serial);
        assert_eq!(bits(4), serial);
    }

    #[test]
    fn one_specs_fig12_cells_share_its_baseline() {
        let mut sweep = Sweep::new();
        for m in FIG12 {
            sweep.normalized(&spec("hotspot"), m);
        }
        // Four null, four LMI and four GPUShield phases plus one Baggy run.
        assert_eq!(sweep.keys.len(), 13);
    }

    #[test]
    fn the_full_fig12_plan_dedups_to_364_runs() {
        let mut sweep = Sweep::new();
        for spec in all_workloads() {
            for m in FIG12 {
                sweep.normalized(&spec, m);
            }
        }
        assert_eq!(sweep.keys.len(), 28 * 13);
    }

    #[test]
    fn a_failing_job_reaches_the_caller_with_its_message() {
        let items: Vec<u32> = (0..16).collect();
        let order: Vec<usize> = (0..items.len()).rev().collect();
        let payload = std::panic::catch_unwind(|| {
            par_map(&items, &order, 2, |&i| {
                assert!(i != 5, "job {i}: benign workload must not fault");
                i
            })
        })
        .unwrap_err();
        let message = payload.downcast_ref::<String>().expect("formatted panic message");
        assert_eq!(message, "job 5: benign workload must not fault");
    }

    #[test]
    fn par_map_returns_outputs_in_item_order() {
        let items: Vec<u32> = (0..50).collect();
        let order: Vec<usize> = (0..items.len()).rev().collect();
        for workers in [1, 2, 4] {
            assert_eq!(
                par_map(&items, &order, workers, |&i| i * 3),
                items.iter().map(|i| i * 3).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn dbi_tools_cost_an_order_of_magnitude() {
        let w = spec("bfs");
        let lmi_dbi = normalized(&w, Mechanism::LmiDbi);
        let memcheck = normalized(&w, Mechanism::Memcheck);
        assert!(lmi_dbi > 3.0, "LMI-DBI {lmi_dbi}");
        assert!(memcheck > 2.0, "memcheck {memcheck}");
        assert!(lmi_dbi >= memcheck, "LMI-DBI instruments strictly more sites");
    }
}
