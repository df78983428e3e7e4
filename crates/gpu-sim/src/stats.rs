//! Simulation statistics.

use std::collections::BTreeMap;

use lmi_core::Violation;
use lmi_isa::MemSpace;
use lmi_mem::CacheStats;
use lmi_telemetry::{ForensicsRecord, Json, KernelProfile};

/// A recorded memory-safety violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolationEvent {
    /// SM where the fault occurred.
    pub sm: usize,
    /// Warp id within the SM.
    pub warp: usize,
    /// Program counter of the faulting instruction.
    pub pc: usize,
    /// Flat global thread id of the faulting lane.
    pub global_tid: u64,
    /// The violation.
    pub violation: Violation,
}

/// Why a warp scheduler could not issue on a given cycle, broken out per
/// scheduler slot (the seed's single `idle_scheduler_cycles` counter hid
/// *why* slots went idle; the breakdown is what Fig. 12-style analysis
/// needs to attribute LMI's slowdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// A candidate existed, but a source/predicate register written by a
    /// non-memory producer was not ready yet.
    pub scoreboard: u64,
    /// A candidate existed, but its binding wait was an in-flight memory
    /// result (the LSU had not delivered the load yet).
    pub lsu_busy: u64,
    /// A candidate existed, but the OCU verdict of an earlier marked
    /// instruction had not resolved (LMI's §XI-C pipeline delay).
    pub ocu_verdict: u64,
    /// No candidate at all: every warp on the slot was retired, not yet
    /// dispatched, or past the program end.
    pub no_ready_warp: u64,
}

impl StallBreakdown {
    /// Total stalled scheduler-slot cycles.
    pub fn total(&self) -> u64 {
        self.scoreboard + self.lsu_busy + self.ocu_verdict + self.no_ready_warp
    }

    /// JSON export with one field per reason plus the total.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("scoreboard", self.scoreboard)
            .with("lsu_busy", self.lsu_busy)
            .with("ocu_verdict", self.ocu_verdict)
            .with("no_ready_warp", self.no_ready_warp)
            .with("total", self.total())
    }
}

/// Aggregate statistics of one kernel run.
///
/// `PartialEq` is derived so tests can assert that two runs are
/// bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total cycles until the last warp retired.
    pub cycles: u64,
    /// Warp-level instructions issued.
    pub issued: u64,
    /// Integer-ALU instructions issued.
    pub int_issued: u64,
    /// FPU instructions issued.
    pub fpu_issued: u64,
    /// Hint-marked (OCU-checked) instructions issued.
    pub marked_issued: u64,
    /// Warp-level loads/stores per memory space.
    pub mem_by_space: BTreeMap<&'static str, u64>,
    /// Coalesced memory transactions issued.
    pub transactions: u64,
    /// Device-heap `malloc` calls executed (thread-level).
    pub mallocs: u64,
    /// Device-heap `free` calls executed (thread-level).
    pub frees: u64,
    /// Scheduler-slot stall cycles, by reason.
    pub stalls: StallBreakdown,
    /// Per-SM L1 data-cache hits/misses during this run.
    pub l1_per_sm: Vec<CacheStats>,
    /// Shared L2 hits/misses during this run.
    pub l2: CacheStats,
    /// L2 MSHR merges (requests absorbed into an in-flight miss).
    pub mshr_merges: u64,
    /// DRAM transactions issued during this run.
    pub dram_transactions: u64,
    /// Detected violations.
    pub violations: Vec<ViolationEvent>,
    /// Poison-to-fault provenance for each violation whose pointer was
    /// poisoned by the OCU earlier in the run (delayed termination, §XII-A).
    pub forensics: Vec<ForensicsRecord>,
    /// Sampling-profiler output (warp states, stall reasons, hot PCs per
    /// SM). Empty unless [`crate::GpuConfig::sample_period`] is set.
    pub profile: KernelProfile,
    /// Phase-B work units of the B-check walk (one per issue event: its
    /// mechanism checks, stats/counter absorption, heap calls). Counted in
    /// deterministic work units, not wall time.
    pub phase_b_serial_items: u64,
    /// Phase-B work units of the metadata and memory passes (metadata
    /// fetches, L1-missed line fills, per-lane byte moves with a
    /// line-straddling lane counting twice). Deterministic like
    /// [`SimStats::phase_b_serial_items`].
    pub phase_b_banked_items: u64,
}

impl SimStats {
    pub(crate) fn record_mem(&mut self, space: MemSpace) {
        let key = match space {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
            MemSpace::Local => "local",
            MemSpace::Const => "const",
        };
        *self.mem_by_space.entry(key).or_insert(0) += 1;
    }

    /// Warp-level loads/stores to `space` (Fig. 1's LDG/STG vs LDS/STS vs
    /// LDL/STL classification).
    pub fn mem_count(&self, space: MemSpace) -> u64 {
        let key = match space {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
            MemSpace::Local => "local",
            MemSpace::Const => "const",
        };
        self.mem_by_space.get(key).copied().unwrap_or(0)
    }

    /// Total loads/stores to attack-relevant spaces (global+shared+local).
    pub fn mem_total(&self) -> u64 {
        self.mem_count(MemSpace::Global)
            + self.mem_count(MemSpace::Shared)
            + self.mem_count(MemSpace::Local)
    }

    /// Fraction of memory instructions targeting `space` (Fig. 1).
    pub fn mem_ratio(&self, space: MemSpace) -> f64 {
        let total = self.mem_total();
        if total == 0 {
            0.0
        } else {
            self.mem_count(space) as f64 / total as f64
        }
    }

    /// Returns `true` if any violation was recorded.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Warp-level instructions per cycle (the schedulers' utilization).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issued as f64 / self.cycles as f64
        }
    }

    /// L1 hits/misses summed over every SM.
    pub fn l1_total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.l1_per_sm {
            total.hits += s.hits;
            total.misses += s.misses;
        }
        total
    }

    /// Aggregate L1 hit rate across all SMs; 0 when nothing was accessed.
    pub fn l1_hit_rate(&self) -> f64 {
        self.l1_total().hit_rate()
    }

    /// L2 hit rate; 0 when nothing was accessed.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }

    /// Fraction of phase-B work units spent in the B-check walk rather
    /// than the metadata and memory passes; 0 when nothing was applied.
    pub fn phase_b_serial_fraction(&self) -> f64 {
        let total = self.phase_b_serial_items + self.phase_b_banked_items;
        if total == 0 {
            0.0
        } else {
            self.phase_b_serial_items as f64 / total as f64
        }
    }

    /// Machine-readable export of the whole record (the body of the bench
    /// binaries' `--json` reports).
    pub fn to_json(&self) -> Json {
        let mut mem = Json::obj();
        for (&space, &n) in &self.mem_by_space {
            mem.set(space, n);
        }
        let mut l1_per_sm = Vec::with_capacity(self.l1_per_sm.len());
        for s in &self.l1_per_sm {
            l1_per_sm.push(Json::obj().with("hits", s.hits).with("misses", s.misses));
        }
        let l1 = self.l1_total();
        let mut violations = Vec::with_capacity(self.violations.len());
        for v in &self.violations {
            violations.push(
                Json::obj()
                    .with("sm", v.sm as u64)
                    .with("warp", v.warp as u64)
                    .with("pc", v.pc as u64)
                    .with("global_tid", v.global_tid)
                    .with("kind", format!("{:?}", v.violation)),
            );
        }
        Json::obj()
            .with("cycles", self.cycles)
            .with("issued", self.issued)
            .with("ipc", self.ipc())
            .with("int_issued", self.int_issued)
            .with("fpu_issued", self.fpu_issued)
            .with("marked_issued", self.marked_issued)
            .with("mem_by_space", mem)
            .with("transactions", self.transactions)
            .with("mallocs", self.mallocs)
            .with("frees", self.frees)
            .with("stalls", self.stalls.to_json())
            .with(
                "l1",
                Json::obj()
                    .with("hits", l1.hits)
                    .with("misses", l1.misses)
                    .with("hit_rate", l1.hit_rate())
                    .with("per_sm", Json::Arr(l1_per_sm)),
            )
            .with(
                "l2",
                Json::obj()
                    .with("hits", self.l2.hits)
                    .with("misses", self.l2.misses)
                    .with("hit_rate", self.l2.hit_rate()),
            )
            .with("mshr_merges", self.mshr_merges)
            .with("dram_transactions", self.dram_transactions)
            .with(
                "phase_b",
                Json::obj()
                    .with("serial_items", self.phase_b_serial_items)
                    .with("banked_items", self.phase_b_banked_items)
                    .with("serial_fraction", self.phase_b_serial_fraction()),
            )
            .with("violations", Json::Arr(violations))
            .with(
                "forensics",
                Json::Arr(self.forensics.iter().map(ForensicsRecord::to_json).collect()),
            )
            .with("profile", self.profile.to_json())
    }
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cycles            {:>12}", self.cycles)?;
        writeln!(f, "issued (warp)     {:>12}  (IPC {:.2})", self.issued, self.ipc())?;
        writeln!(f, "  int alu         {:>12}", self.int_issued)?;
        writeln!(f, "  fpu             {:>12}", self.fpu_issued)?;
        writeln!(f, "  marked (OCU)    {:>12}", self.marked_issued)?;
        writeln!(
            f,
            "mem (G/S/L)       {:>12}  {} / {} / {}",
            self.mem_total(),
            self.mem_count(lmi_isa::MemSpace::Global),
            self.mem_count(lmi_isa::MemSpace::Shared),
            self.mem_count(lmi_isa::MemSpace::Local)
        )?;
        writeln!(f, "transactions      {:>12}", self.transactions)?;
        writeln!(f, "heap malloc/free  {:>12}  / {}", self.mallocs, self.frees)?;
        writeln!(
            f,
            "stalls            {:>12}  (sb {} / lsu {} / ocu {} / idle {})",
            self.stalls.total(),
            self.stalls.scoreboard,
            self.stalls.lsu_busy,
            self.stalls.ocu_verdict,
            self.stalls.no_ready_warp
        )?;
        if self.phase_b_serial_items + self.phase_b_banked_items > 0 {
            writeln!(
                f,
                "phase-B serial    {:>12.3}  ({} serial / {} banked units)",
                self.phase_b_serial_fraction(),
                self.phase_b_serial_items,
                self.phase_b_banked_items
            )?;
        }
        let l1 = self.l1_total();
        if l1.accesses() + self.l2.accesses() > 0 {
            writeln!(
                f,
                "L1 / L2 hit rate  {:>11.1}% / {:.1}%  (MSHR merges {}, DRAM {})",
                100.0 * l1.hit_rate(),
                100.0 * self.l2.hit_rate(),
                self.mshr_merges,
                self.dram_transactions
            )?;
        }
        if !self.profile.is_empty() {
            writeln!(
                f,
                "profile           {:>12}  samples (period {}, avg occupancy {:.1} warps)",
                self.profile.samples(),
                self.profile.period,
                self.profile.avg_occupancy()
            )?;
        }
        write!(f, "violations        {:>12}", self.violations.len())?;
        for rec in &self.forensics {
            write!(
                f,
                "\n  poisoned at pc {} ({}) -> faulted at pc {} lane {}: {} cycles, {} instrs",
                rec.poison.pc,
                rec.poison.op,
                rec.fault.pc,
                rec.fault.lane,
                rec.latency_cycles(),
                rec.latency_instructions()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_ratios_sum_to_one_over_protected_spaces() {
        let mut s = SimStats::default();
        for _ in 0..6 {
            s.record_mem(MemSpace::Global);
        }
        for _ in 0..3 {
            s.record_mem(MemSpace::Shared);
        }
        s.record_mem(MemSpace::Local);
        assert_eq!(s.mem_total(), 10);
        let sum = s.mem_ratio(MemSpace::Global)
            + s.mem_ratio(MemSpace::Shared)
            + s.mem_ratio(MemSpace::Local);
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((s.mem_ratio(MemSpace::Global) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn const_accesses_do_not_skew_fig1_ratios() {
        let mut s = SimStats::default();
        s.record_mem(MemSpace::Const);
        s.record_mem(MemSpace::Global);
        assert_eq!(s.mem_total(), 1);
        assert_eq!(s.mem_ratio(MemSpace::Global), 1.0);
    }
}
