//! The session metrics surface: [`MetricsSnapshot`] and the per-tenant
//! SLO table.
//!
//! A snapshot is the runtime's [`lmi_telemetry::MetricsFrame`] (counters,
//! histograms, profiles, trace-drop count) plus session framing: the
//! total makespan and one [`TenantSlo`] row per tenant with the
//! serving-style signals a multi-tenant operator watches — violation and
//! rejection rates, and execution-latency tails. Snapshots are cheap
//! owned copies, so the diffing pattern is two calls:
//!
//! ```text
//! let before = rt.metrics_snapshot();
//! /* submit + synchronize a workload */
//! let delta = rt.metrics_snapshot().diff(&before);
//! ```

use lmi_telemetry::{Json, MetricsFrame, Scope};

/// Serving signals for one tenant, derived from the frame's tenant-scope
/// counters and histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// Tenant id.
    pub tenant: usize,
    /// Kernels executed.
    pub kernels: u64,
    /// Launches rejected at submit (validation failures).
    pub rejected: u64,
    /// Memory-safety violations across the tenant's kernels.
    pub violations: u64,
    /// Violations per executed kernel (0 when no kernels ran).
    pub violation_rate: f64,
    /// Rejected launches per submitted launch (0 when nothing was
    /// submitted).
    pub rejection_rate: f64,
    /// Median kernel execution latency in cycles.
    pub exec_p50: u64,
    /// 99th-percentile kernel execution latency in cycles.
    pub exec_p99: u64,
    /// Worst kernel execution latency in cycles.
    pub exec_max: u64,
    /// 99th-percentile queue wait (stream ready → kernel admitted).
    pub queue_p99: u64,
}

impl TenantSlo {
    /// Builds the SLO table for tenants `0..count` from a frame.
    pub fn from_frame(frame: &MetricsFrame, count: usize) -> Vec<TenantSlo> {
        (0..count)
            .map(|t| {
                let scope = Scope::Tenant(t);
                let kernels = frame.counters.get(scope, "kernels");
                let rejected = frame.counters.get(scope, "rejected");
                let violations = frame.counters.get(scope, "violations");
                let exec = frame.histograms.get(scope, "kernel_exec_cycles");
                let queue = frame.histograms.get(scope, "kernel_queue_wait");
                let rate =
                    |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
                TenantSlo {
                    tenant: t,
                    kernels,
                    rejected,
                    violations,
                    violation_rate: rate(violations, kernels),
                    rejection_rate: rate(rejected, kernels + rejected),
                    exec_p50: exec.map(|h| h.p50()).unwrap_or(0),
                    exec_p99: exec.map(|h| h.p99()).unwrap_or(0),
                    exec_max: exec.map(|h| h.max()).unwrap_or(0),
                    queue_p99: queue.map(|h| h.p99()).unwrap_or(0),
                }
            })
            .collect()
    }

    /// JSON row.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("tenant", self.tenant as u64)
            .with("kernels", self.kernels)
            .with("rejected", self.rejected)
            .with("violations", self.violations)
            .with("violation_rate", self.violation_rate)
            .with("rejection_rate", self.rejection_rate)
            .with("exec_p50", self.exec_p50)
            .with("exec_p99", self.exec_p99)
            .with("exec_max", self.exec_max)
            .with("queue_p99", self.queue_p99)
    }
}

/// Everything one session measured, as an owned diffable value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, histograms, profiles and trace-drop accounting.
    pub frame: MetricsFrame,
    /// Makespan of the synchronized program so far, in cycles.
    pub total_cycles: u64,
    /// Per-tenant SLO rows, index = tenant id.
    pub tenants: Vec<TenantSlo>,
}

impl MetricsSnapshot {
    /// The activity between two snapshots: monotonic sources subtract,
    /// the SLO table is recomputed over the delta frame.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let frame = self.frame.diff(&earlier.frame);
        let tenants = TenantSlo::from_frame(&frame, self.tenants.len());
        MetricsSnapshot {
            frame,
            total_cycles: self.total_cycles.saturating_sub(earlier.total_cycles),
            tenants,
        }
    }

    /// JSON snapshot: the frame plus session framing.
    pub fn to_json(&self) -> Json {
        self.frame
            .to_json()
            .with("total_cycles", self.total_cycles)
            .with("tenants", Json::Arr(self.tenants.iter().map(TenantSlo::to_json).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_with_tenant_activity() -> MetricsFrame {
        let mut f = MetricsFrame::default();
        f.counters.add(Scope::Tenant(0), "kernels", 4);
        f.counters.add(Scope::Tenant(0), "violations", 1);
        f.counters.add(Scope::Tenant(0), "rejected", 1);
        for v in [100, 200, 300, 400] {
            f.histograms.record(Scope::Tenant(0), "kernel_exec_cycles", v);
        }
        f
    }

    #[test]
    fn slo_rates_and_tails_come_from_the_frame() {
        let slo = &TenantSlo::from_frame(&frame_with_tenant_activity(), 2)[0];
        assert_eq!(slo.kernels, 4);
        assert_eq!(slo.violation_rate, 0.25);
        assert_eq!(slo.rejection_rate, 0.2, "1 rejected of 5 submitted");
        assert!(slo.exec_p50 >= 100 && slo.exec_p50 <= slo.exec_p99);
        assert_eq!(slo.exec_max, 400);
        // A tenant with no activity reads all zeros, not NaN.
        let idle = &TenantSlo::from_frame(&frame_with_tenant_activity(), 2)[1];
        assert_eq!(idle.violation_rate, 0.0);
        assert_eq!(idle.exec_max, 0);
    }

    #[test]
    fn snapshot_diff_and_json_export_stay_consistent() {
        let a = MetricsSnapshot {
            frame: frame_with_tenant_activity(),
            total_cycles: 1000,
            tenants: TenantSlo::from_frame(&frame_with_tenant_activity(), 1),
        };
        let mut later_frame = frame_with_tenant_activity();
        later_frame.counters.add(Scope::Tenant(0), "kernels", 1);
        later_frame.histograms.record(Scope::Tenant(0), "kernel_exec_cycles", 900);
        let b = MetricsSnapshot {
            frame: later_frame.clone(),
            total_cycles: 2500,
            tenants: TenantSlo::from_frame(&later_frame, 1),
        };
        let d = b.diff(&a);
        assert_eq!(d.total_cycles, 1500);
        assert_eq!(d.tenants[0].kernels, 1);
        assert_eq!(d.tenants[0].exec_max, 900, "only the new kernel remains");
        // The JSON export of the delta parses and carries the framing.
        let json = lmi_telemetry::json::parse(&d.to_json().to_compact()).unwrap();
        assert_eq!(json.get("total_cycles").and_then(Json::as_u64), Some(1500));
    }
}
