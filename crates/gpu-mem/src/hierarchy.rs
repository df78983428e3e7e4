//! The composed L1 → L2 → DRAM lookup path: its configuration and the
//! shared L2 + MSHR + DRAM timing model behind the per-SM L1s.
//!
//! Per-SM L1s live with their SMs (SM-local state in `lmi-sim`); every
//! L1 miss and every L1-bypassing metadata fetch lands in the one
//! [`MemorySystem`].

use std::collections::HashMap;

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::dram::{Dram, DramConfig};

/// Configuration of the full hierarchy (defaults follow paper Table IV).
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// Number of per-SM L1 caches.
    pub num_l1: usize,
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// Shared-memory access latency in cycles (L1-comparable, §II-A).
    pub shared_latency: u32,
}

impl HierarchyConfig {
    /// Table IV defaults for `num_l1` SMs.
    pub fn table4(num_l1: usize) -> HierarchyConfig {
        HierarchyConfig {
            num_l1,
            l1: CacheConfig::l1_default(),
            l2: CacheConfig::l2_default(),
            dram: DramConfig::default(),
            shared_latency: 25,
        }
    }
}

/// The shared memory system: the L2, its MSHRs, and DRAM.
#[derive(Debug)]
pub struct MemorySystem {
    l2: Cache,
    dram: Dram,
    /// MSHR-style merge of in-flight line fills: line address → fill-ready
    /// cycle. A request for a line already being fetched rides that fill
    /// instead of issuing a redundant DRAM transaction.
    inflight: HashMap<u64, u64>,
    mshr_merges: u64,
}

/// MSHR map hygiene threshold: above this many tracked fills, entries
/// whose fill already completed are evicted.
const MSHR_RETAIN_THRESHOLD: usize = 4096;

impl MemorySystem {
    /// Builds the L2 and DRAM of `cfg`, cold.
    pub fn new(cfg: &HierarchyConfig) -> MemorySystem {
        MemorySystem {
            l2: Cache::new(cfg.l2),
            dram: Dram::new(cfg.dram),
            inflight: HashMap::new(),
            mshr_merges: 0,
        }
    }

    /// An L2-backed access at time `now`; returns the completion cycle.
    ///
    /// The one fill path for both data-line fills (after an SM-local L1
    /// miss) and metadata fetches that bypass the L1 (e.g. GPUShield
    /// bounds-table fills on RCache misses): L2 lookup, then MSHR merge,
    /// then DRAM. Both callers share the MSHR eviction hygiene, so the
    /// in-flight map stays bounded on metadata-heavy runs.
    pub fn access(&mut self, addr: u64, now: u64) -> u64 {
        let l2_hit = self.l2.config().hit_latency as u64;
        if self.l2.access(addr) {
            return now + l2_hit;
        }
        let line = addr & !(self.l2.config().line_bytes - 1);
        if let Some(&ready) = self.inflight.get(&line) {
            if ready > now {
                self.mshr_merges += 1;
                return ready;
            }
        }
        let data_at = self.dram.access(addr, now + l2_hit);
        self.inflight.insert(line, data_at);
        if self.inflight.len() > MSHR_RETAIN_THRESHOLD {
            self.inflight.retain(|_, &mut r| r > now);
        }
        data_at
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// DRAM transactions issued.
    pub fn dram_transactions(&self) -> u64 {
        self.dram.transactions()
    }

    /// MSHR-merged request count.
    pub fn mshr_merges(&self) -> u64 {
        self.mshr_merges
    }

    /// Number of fills currently tracked by the MSHR map (hygiene metric).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> MemorySystem {
        MemorySystem::new(&HierarchyConfig::table4(2))
    }

    #[test]
    fn cold_access_reaches_dram() {
        let mut m = system();
        let done = m.access(0x10_0000, 0);
        // L2 miss: latency includes the L2 lookup plus DRAM.
        assert!(done >= 200 + 350, "got {done}");
        assert_eq!(m.dram_transactions(), 1);
    }

    #[test]
    fn warm_access_hits_l2() {
        let mut m = system();
        m.access(0x10_0000, 0);
        let done = m.access(0x10_0000, 1000);
        assert_eq!(done, 1000 + 200);
        assert_eq!(m.dram_transactions(), 1);
    }

    #[test]
    fn a_second_miss_on_an_inflight_line_merges() {
        // 24 lines one L2 set apart fill the set; the 25th evicts the
        // first while its DRAM fill is still in flight, so re-touching it
        // misses the L2 and merges with the pending fill.
        let mut m = system();
        let set_stride = CacheConfig::l2_default().sets() * 128;
        let first = m.access(0, 0);
        for way in 1..=24 {
            m.access(way * set_stride, 0);
        }
        assert_eq!(m.access(0, 1), first, "rides the in-flight fill");
        assert_eq!(m.mshr_merges(), 1);
        assert_eq!(m.dram_transactions(), 25);
    }

    /// Regression for the MSHR leak: metadata fetches once skipped the
    /// `retain` hygiene pass, so a metadata-heavy run grew the in-flight
    /// map without bound. The shared fill path bounds it.
    #[test]
    fn mshr_inflight_map_stays_bounded() {
        let mut m = system();
        let mut now = 0u64;
        for i in 0..100_000u64 {
            // Distinct lines, monotonically advancing time so old fills
            // complete and become evictable.
            now += 1;
            m.access(i * 128, now + 10_000);
        }
        assert!(
            m.inflight_len() <= MSHR_RETAIN_THRESHOLD + 1,
            "MSHR map leaked: {} entries",
            m.inflight_len()
        );
    }
}
