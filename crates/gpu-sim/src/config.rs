//! Simulator configuration (paper Table IV).

use lmi_mem::HierarchyConfig;

/// Warp width (threads per warp).
pub const WARP_SIZE: usize = 32;

/// GPU configuration.
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Number of SM cores (Table IV: 80 @ 2 GHz).
    pub num_sms: usize,
    /// Core clock in GHz (used to convert cycles to time in reports).
    pub clock_ghz: f64,
    /// Warp schedulers per SM (Table IV: 4, GTO).
    pub schedulers_per_sm: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Memory hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Per-thread local (stack) window in bytes.
    pub stack_bytes: u64,
    /// Integer-ALU latency in cycles.
    pub int_latency: u32,
    /// FPU latency in cycles.
    pub fpu_latency: u32,
    /// Constant-cache access latency in cycles.
    pub const_latency: u32,
    /// Latency of a device-runtime `malloc`/`free` call in cycles.
    pub heap_call_latency: u32,
    /// Cycles of the LSU front-end (operand collection + address
    /// generation) that overlap the OCU's pipelined verdict: a dependent
    /// memory access only stalls for `max(0, verdict - ready - overlap)`
    /// extra cycles. With the paper's 3-cycle OCU and a ≥3-stage LSU
    /// front end, the verdict arrives in time — the reason LMI's overhead
    /// is near zero (§XI-A). Set to 0 for the no-overlap ablation.
    pub lsu_verdict_overlap: u32,
    /// Stop the faulting warp when a mechanism reports a violation.
    pub halt_on_violation: bool,
    /// Sampling-profiler period in simulated cycles; `0` (the default)
    /// disables sampling. Every `sample_period` cycles each SM records
    /// its warp states, stall reasons and executing PCs into
    /// [`crate::stats::SimStats::profile`]. Samples are taken in phase A
    /// from SM-local state and absorbed in ascending SM order in phase B.
    pub sample_period: u64,
}

impl GpuConfig {
    /// The paper's Table IV configuration.
    pub fn table4() -> GpuConfig {
        GpuConfig {
            num_sms: 80,
            clock_ghz: 2.0,
            schedulers_per_sm: 4,
            max_warps_per_sm: 64,
            hierarchy: HierarchyConfig::table4(80),
            stack_bytes: lmi_mem::layout::DEFAULT_STACK_BYTES,
            int_latency: 4,
            fpu_latency: 4,
            const_latency: 8,
            heap_call_latency: 600,
            lsu_verdict_overlap: 3,
            halt_on_violation: false,
            sample_period: 0,
        }
    }

    /// A scaled-down configuration (8 SMs) with identical per-SM parameters,
    /// used where full-chip simulation would be needlessly slow. Normalized
    /// overheads are preserved because all latency ratios are unchanged.
    pub fn small() -> GpuConfig {
        let mut cfg = GpuConfig::table4();
        cfg.num_sms = 8;
        cfg.hierarchy = HierarchyConfig::table4(8);
        cfg
    }

    /// `small()` plus violation halting — the security-suite configuration.
    pub fn security() -> GpuConfig {
        let mut cfg = GpuConfig::small();
        cfg.num_sms = 1;
        cfg.hierarchy = HierarchyConfig::table4(1);
        cfg.halt_on_violation = true;
        cfg
    }

    /// Returns a copy with the sampling profiler enabled at `period`
    /// cycles (`0` disables it again).
    pub fn with_sample_period(mut self, period: u64) -> GpuConfig {
        self.sample_period = period;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_the_paper() {
        let c = GpuConfig::table4();
        assert_eq!(c.num_sms, 80);
        assert_eq!(c.clock_ghz, 2.0);
        assert_eq!(c.schedulers_per_sm, 4);
        assert_eq!(c.hierarchy.l1.capacity_bytes, 96 * 1024);
        assert_eq!(c.hierarchy.l2.ways, 24);
    }

    #[test]
    fn small_preserves_per_sm_parameters() {
        let t = GpuConfig::table4();
        let s = GpuConfig::small();
        assert_eq!(s.hierarchy.l1, t.hierarchy.l1);
        assert_eq!(s.hierarchy.l2, t.hierarchy.l2);
        assert_eq!(s.int_latency, t.int_latency);
    }
}
