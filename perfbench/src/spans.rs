//! Benchmark-side spans: host time and heap allocations around the
//! benchmark's own calls into each layer's public functions.
//!
//! Nothing inside the program is traced. A span records which layer call
//! it wraps (`name`), the op it belongs to, its host duration and the heap
//! allocations made inside it (from the counting global allocator). Spans
//! stay in memory and are folded into per-layer metrics when the run ends.
//! With tracing off, [`Spans::time`] only calls the closure.

use std::collections::BTreeMap;
use std::time::Instant;

use lmi_bench::alloc_audit::CountingAlloc;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `sim.run` or `workloads.prepare`.
    pub name: &'static str,
    /// Index of the op the span belongs to (spans of one op share it).
    pub op: usize,
    /// Host seconds.
    pub secs: f64,
    /// Heap allocations made inside the span.
    pub allocs: u64,
    /// Warp instructions simulated inside the span (simulation calls).
    pub issued: u64,
    /// Simulated cycles inside the span (simulation calls).
    pub cycles: u64,
}

/// Exact simulated counts, summed over launches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Kernel launches summed.
    pub launches: u64,
    /// Warp instructions issued.
    pub issued: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// L1 hits / misses over every SM.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM transactions.
    pub dram_transactions: u64,
    /// L2 MSHR merges.
    pub mshr_merges: u64,
    /// Phase-B work units on the leader thread.
    pub phase_b_serial: u64,
    /// Phase-B work units on the bank passes.
    pub phase_b_banked: u64,
}

impl SimCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &SimCounts) {
        self.launches += other.launches;
        self.issued += other.issued;
        self.cycles += other.cycles;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.dram_transactions += other.dram_transactions;
        self.mshr_merges += other.mshr_merges;
        self.phase_b_serial += other.phase_b_serial;
        self.phase_b_banked += other.phase_b_banked;
    }
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Number of spans.
    pub calls: u64,
    /// Summed host seconds.
    pub secs: f64,
    /// Summed allocations.
    pub allocs: u64,
}

impl Total {
    /// Mean host seconds per call (0 when never called).
    pub fn mean_secs(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs / self.calls as f64
        }
    }

    /// Mean allocations per call (0 when never called).
    pub fn mean_allocs(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.allocs as f64 / self.calls as f64
        }
    }
}

/// The span recorder (or a no-op stand-in when tracing is off).
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    op: usize,
    count_ops: usize,
    spans: Vec<Span>,
    counts: SimCounts,
}

impl Spans {
    /// A recorder that only runs the closures.
    pub fn off() -> Spans {
        Spans::default()
    }

    /// A recording tracer. Simulated counts are kept for ops
    /// `0..count_ops` only, so they are exact for a given seed whatever the
    /// host speed.
    pub fn on(count_ops: usize) -> Spans {
        Spans { on: true, count_ops, ..Spans::default() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Attributes the following spans to op `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Runs `f`, recording a span `name` around it when tracing is on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let a0 = CountingAlloc::allocations();
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        let allocs = CountingAlloc::allocations() - a0;
        self.spans.push(Span { name, op: self.op, secs, allocs, issued: 0, cycles: 0 });
        out
    }

    /// Attaches simulated work to the most recent span.
    pub fn tag_last(&mut self, issued: u64, cycles: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.issued += issued;
            s.cycles += cycles;
        }
    }

    /// Adds simulated counts of the current op (kept for the first
    /// `count_ops` ops of a traced run).
    pub fn count(&mut self, counts: &SimCounts) {
        if self.on && self.op < self.count_ops {
            self.counts.add(counts);
        }
    }

    /// Simulated counts of the first `count_ops` ops.
    pub fn counts(&self) -> &SimCounts {
        &self.counts
    }

    /// Host seconds of the most recent span called `name` (0 if none).
    pub fn last_secs(&self, name: &str) -> f64 {
        self.spans.iter().rev().find(|s| s.name == name).map_or(0.0, |s| s.secs)
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.secs += s.secs;
            t.allocs += s.allocs;
        }
        out
    }

    /// Totals of one span name.
    #[cfg(test)]
    pub fn total(&self, name: &str) -> Total {
        self.totals().get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_records_each_call() {
        let mut off = Spans::off();
        assert_eq!(off.time("x", || 7), 7);
        assert!(off.spans().is_empty());

        let mut on = Spans::on(1);
        on.set_op(3);
        on.time("x", || ());
        on.time("x", || ());
        on.time("y", || ());
        assert_eq!(on.spans().len(), 3);
        assert!(on.spans().iter().all(|s| s.op == 3));
        assert_eq!(on.total("x").calls, 2);
        assert_eq!(on.total("z"), Total::default());

        let one = SimCounts { launches: 1, issued: 5, ..SimCounts::default() };
        on.count(&one);
        assert_eq!(on.counts().issued, 0, "op 3 is past the counted prefix");
        on.set_op(0);
        on.count(&one);
        on.count(&one);
        assert_eq!(on.counts().issued, 10);
    }
}
