//! Metrics export: JSON snapshots.
//!
//! [`MetricsFrame`] is an owned snapshot of every counter scope, every
//! histogram, and every sampling profile a run produced. It is *diffable*
//! (all sources are monotonic, so `later.diff(&earlier)` is the activity
//! in between), comparable (`PartialEq`, for the determinism suite), and
//! renders as a nested JSON document ([`MetricsFrame::to_json`]) built on
//! the crate's hand-rolled encoder — the machine-readable side of `--json`
//! reports. It can never emit a NaN or infinity: all sources are integers
//! (plus finite derived rates).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::profiler::{HistogramRegistry, KernelProfile};
use crate::registry::CounterRegistry;

/// An owned, diffable snapshot of every counter, histogram and profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsFrame {
    /// Scoped counters.
    pub counters: CounterRegistry,
    /// Scoped latency histograms.
    pub histograms: HistogramRegistry,
    /// Sampling profiles, keyed by kernel (program) name.
    pub profiles: BTreeMap<String, KernelProfile>,
    /// Timeline records the bounded trace ring had to evict.
    pub dropped_trace_events: u64,
}

impl MetricsFrame {
    /// `true` if nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.profiles.is_empty()
            && self.dropped_trace_events == 0
    }

    /// The delta frame `self − earlier`: counters and histograms
    /// subtract source-wise (all are monotonic), profiles subtract
    /// per-SM, zero entries are dropped.
    pub fn diff(&self, earlier: &MetricsFrame) -> MetricsFrame {
        let mut counters = CounterRegistry::new();
        for (scope, name, v) in self.counters.iter() {
            let d = v.saturating_sub(earlier.counters.get(scope, name));
            if d > 0 {
                counters.add(scope, name, d);
            }
        }
        let mut profiles = BTreeMap::new();
        for (name, p) in &self.profiles {
            let d = match earlier.profiles.get(name) {
                Some(e) => p.diff(e),
                None => p.clone(),
            };
            if !d.is_empty() {
                profiles.insert(name.clone(), d);
            }
        }
        MetricsFrame {
            counters,
            histograms: self.histograms.diff(&earlier.histograms),
            profiles,
            dropped_trace_events: self
                .dropped_trace_events
                .saturating_sub(earlier.dropped_trace_events),
        }
    }

    /// JSON snapshot of the whole frame.
    pub fn to_json(&self) -> Json {
        let mut profiles = Json::obj();
        for (name, p) in &self.profiles {
            profiles.set(name, p.to_json());
        }
        Json::obj()
            .with("counters", self.counters.to_json())
            .with("histograms", self.histograms.to_json())
            .with("profiles", profiles)
            .with("dropped_trace_events", self.dropped_trace_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{SmSample, WarpState};
    use crate::registry::Scope;

    fn sample_frame() -> MetricsFrame {
        let mut frame = MetricsFrame::default();
        frame.counters.add(Scope::Gpu, "cycles", 100);
        frame.counters.add(Scope::Sm(0), "stall.scoreboard", 7);
        frame.counters.add(Scope::Tenant(1), "violations", 2);
        frame.histograms.record(Scope::Stream(0), "kernel_exec_cycles", 120);
        frame.histograms.record(Scope::Stream(0), "kernel_exec_cycles", 90);
        let mut s = SmSample::default();
        s.states[WarpState::Issued.index()] = 3;
        s.pcs = vec![(4, 2)];
        let mut p = KernelProfile { period: 64, ..KernelProfile::default() };
        p.absorb(2, &s);
        frame.profiles.insert("hotspot".to_string(), p);
        frame.dropped_trace_events = 5;
        frame
    }

    #[test]
    fn diff_is_the_activity_between_snapshots() {
        let early = sample_frame();
        let mut late = early.clone();
        late.counters.add(Scope::Gpu, "cycles", 50);
        late.histograms.record(Scope::Stream(0), "kernel_exec_cycles", 500);
        let d = late.diff(&early);
        assert_eq!(d.counters.get(Scope::Gpu, "cycles"), 50);
        assert_eq!(d.counters.get(Scope::Sm(0), "stall.scoreboard"), 0, "unchanged drops out");
        let h = d.histograms.get(Scope::Stream(0), "kernel_exec_cycles").unwrap();
        assert_eq!(h.count(), 1);
        assert!(d.profiles.is_empty(), "unchanged profile drops out");
        assert_eq!(d.dropped_trace_events, 0);
        // The JSON of the delta stays well-formed.
        assert!(crate::json::parse(&d.to_json().to_compact()).is_ok());
    }
}
