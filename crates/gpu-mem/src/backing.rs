//! Sparse functional byte store.
//!
//! The timing model ([`crate::hierarchy`]) decides *when* data arrives; this
//! store decides *what* the data is. It is sparse (1 KiB pages allocated on
//! first touch) so per-thread local windows and large arenas cost nothing
//! until used. Pages are small because the common sparse toucher is a
//! thread's stack: one store into each of a launch's thousands of 64 KiB
//! local windows makes one page per thread resident, and at 1 KiB that
//! costs a quarter of what 4 KiB pages would.
//!
//! The store is on the simulator's per-access hot path (every functional
//! load/store lands here), so it is organized for throughput: the page table
//! maps page numbers to slots in a dense page arena, a one-entry last-page
//! cache short-circuits the table for the overwhelmingly common
//! same-page-as-last-time case, and `read`/`write` move whole words with a
//! single lookup instead of one table probe per byte.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

const PAGE_SHIFT: u32 = 10;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Sentinel page number for an empty last-page cache (no real page can use
/// it: it would need an address beyond the 64-bit space).
const NO_PAGE: u64 = u64::MAX;

/// A sparse byte-addressable memory.
#[derive(Debug, Clone)]
pub struct SparseMemory {
    /// Page number → slot in `store`.
    table: HashMap<u64, u32>,
    /// Dense page arena; slots are stable once allocated. Pages are boxed
    /// so growing the arena moves pointers, not page contents.
    #[allow(clippy::vec_box)]
    store: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Last `(page number, slot)` touched. A `Cell` so reads can refresh it;
    /// slots are stable, so a stale entry can only be `NO_PAGE`, never wrong.
    last: Cell<(u64, u32)>,
}

impl Default for SparseMemory {
    fn default() -> SparseMemory {
        SparseMemory { table: HashMap::new(), store: Vec::new(), last: Cell::new((NO_PAGE, 0)) }
    }
}

impl SparseMemory {
    /// An empty memory (all bytes read as zero).
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    /// Slot of `page_no` if it is resident, refreshing the last-page cache.
    #[inline]
    fn slot_of(&self, page_no: u64) -> Option<usize> {
        let (cached_no, cached_slot) = self.last.get();
        if cached_no == page_no {
            return Some(cached_slot as usize);
        }
        let slot = *self.table.get(&page_no)?;
        self.last.set((page_no, slot));
        Some(slot as usize)
    }

    /// Slot of `page_no`, materializing the page on first touch.
    #[inline]
    fn slot_mut(&mut self, page_no: u64) -> usize {
        let (cached_no, cached_slot) = self.last.get();
        if cached_no == page_no {
            return cached_slot as usize;
        }
        let slot = match self.table.entry(page_no) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let slot = u32::try_from(self.store.len()).expect("page arena fits u32 slots");
                self.store.push(Box::new([0; PAGE_SIZE]));
                *e.insert(slot)
            }
        };
        self.last.set((page_no, slot));
        slot as usize
    }

    /// Reads one byte (untouched memory reads as zero).
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.slot_of(addr >> PAGE_SHIFT) {
            Some(slot) => self.store[slot][(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let slot = self.slot_mut(addr >> PAGE_SHIFT);
        self.store[slot][(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads `width` bytes (≤ 8) little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `width > 8`.
    pub fn read(&self, addr: u64, width: u8) -> u64 {
        assert!(width <= 8, "width {width} exceeds 8 bytes");
        let width = width as usize;
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + width <= PAGE_SIZE {
            // Fast path: the whole word lives on one page — one lookup.
            match self.slot_of(addr >> PAGE_SHIFT) {
                Some(slot) => {
                    let mut buf = [0u8; 8];
                    buf[..width].copy_from_slice(&self.store[slot][off..off + width]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            }
        } else {
            let mut v = 0u64;
            for i in 0..width as u64 {
                v |= (self.read_u8(addr + i) as u64) << (8 * i);
            }
            v
        }
    }

    /// Writes the low `width` bytes (≤ 8) of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `width > 8`.
    pub fn write(&mut self, addr: u64, value: u64, width: u8) {
        assert!(width <= 8, "width {width} exceeds 8 bytes");
        let width = width as usize;
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + width <= PAGE_SIZE {
            let slot = self.slot_mut(addr >> PAGE_SHIFT);
            self.store[slot][off..off + width].copy_from_slice(&value.to_le_bytes()[..width]);
        } else {
            for i in 0..width as u64 {
                self.write_u8(addr + i, (value >> (8 * i)) as u8);
            }
        }
    }

    /// Copies `bytes` into `[addr, addr + bytes.len())`, whole pages at a
    /// time (host-side buffer staging uses this instead of a byte loop).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut cur = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (cur as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - off).min(rest.len());
            let slot = self.slot_mut(cur >> PAGE_SHIFT);
            self.store[slot][off..off + n].copy_from_slice(&rest[..n]);
            cur += n as u64;
            rest = &rest[n..];
        }
    }

    /// Reads `out.len()` bytes starting at `addr` (untouched pages read as
    /// zero), whole pages at a time.
    pub fn read_bytes(&self, addr: u64, out: &mut [u8]) {
        let mut cur = addr;
        let mut rest = out;
        while !rest.is_empty() {
            let off = (cur as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - off).min(rest.len());
            match self.slot_of(cur >> PAGE_SHIFT) {
                Some(slot) => rest[..n].copy_from_slice(&self.store[slot][off..off + n]),
                None => rest[..n].fill(0),
            }
            cur += n as u64;
            rest = &mut rest[n..];
        }
    }

    /// Fills `[addr, addr + len)` with `byte`, whole pages at a time.
    pub fn fill(&mut self, addr: u64, len: u64, byte: u8) {
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let off = (cur as usize) & (PAGE_SIZE - 1);
            let n = ((PAGE_SIZE - off) as u64).min(end - cur) as usize;
            let slot = self.slot_mut(cur >> PAGE_SHIFT);
            self.store[slot][off..off + n].fill(byte);
            cur += n as u64;
        }
    }

    /// Number of pages (`PAGE_SIZE` bytes each) materialized so far.
    pub fn resident_pages(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read(0xDEAD_BEEF, 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_back_what_was_written() {
        let mut m = SparseMemory::new();
        m.write(0x1000, 0x1122_3344_5566_7788, 8);
        assert_eq!(m.read(0x1000, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x1000, 4), 0x5566_7788);
        assert_eq!(m.read(0x1004, 4), 0x1122_3344);
    }

    #[test]
    fn writes_spanning_pages_work() {
        let mut m = SparseMemory::new();
        let addr = PAGE_SIZE as u64 - 4; // last 4 bytes of page 0
        m.write(addr, 0xAABB_CCDD_EEFF_0011, 8);
        assert_eq!(m.read(addr, 8), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn narrow_write_does_not_clobber_neighbors() {
        let mut m = SparseMemory::new();
        m.write(0x2000, u64::MAX, 8);
        m.write(0x2002, 0, 2);
        assert_eq!(m.read(0x2000, 8), 0xFFFF_FFFF_0000_FFFF);
    }

    #[test]
    fn fill_sets_a_range() {
        let mut m = SparseMemory::new();
        m.fill(0x3000, 16, 0xCC);
        assert_eq!(m.read(0x3000, 8), 0xCCCC_CCCC_CCCC_CCCC);
        assert_eq!(m.read_u8(0x3010), 0);
    }

    #[test]
    fn fill_spanning_pages_sets_every_byte() {
        let mut m = SparseMemory::new();
        let page = PAGE_SIZE as u64;
        // 8 bytes of page 0, all of page 1, 8 bytes of page 2.
        let addr = page - 8;
        m.fill(addr, page + 16, 0xAB);
        assert_eq!(m.read_u8(addr - 1), 0);
        assert_eq!(m.read_u8(addr), 0xAB);
        assert_eq!(m.read_u8(addr + page + 15), 0xAB);
        assert_eq!(m.read_u8(addr + page + 16), 0);
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn bulk_bytes_round_trip_across_pages() {
        let mut m = SparseMemory::new();
        // 100 bytes before a page boundary, and more than a page after it.
        let addr = PAGE_SIZE as u64 * 3 - 100;
        let data: Vec<u8> = (0..(PAGE_SIZE as u32 + 300)).map(|i| (i * 7) as u8).collect();
        m.write_bytes(addr, &data);
        let mut back = vec![0u8; data.len()];
        m.read_bytes(addr, &mut back);
        assert_eq!(back, data);
        assert_eq!(m.resident_pages(), 3);
        // A hole between pages reads zero.
        let mut hole = [0xFFu8; 8];
        m.read_bytes(PAGE_SIZE as u64 * 64, &mut hole);
        assert_eq!(hole, [0; 8]);
    }

    /// A launch's stacks: one word into each of 2048 threads' 64 KiB local
    /// windows (8 SMs × 256 threads) makes one page per window resident,
    /// and must stay within 2 MiB.
    #[test]
    fn sparse_stack_touches_stay_small() {
        use crate::layout::{local_window_base, DEFAULT_STACK_BYTES};
        let mut m = SparseMemory::new();
        for tid in 0..2048 {
            m.write(local_window_base(tid, DEFAULT_STACK_BYTES), tid, 8);
        }
        assert_eq!(m.resident_pages(), 2048);
        assert!(m.resident_pages() * PAGE_SIZE <= 2 << 20, "{} pages", m.resident_pages());
    }

    #[test]
    fn clone_preserves_contents_and_cache_stays_coherent() {
        let mut m = SparseMemory::new();
        m.write(0x5000, 0x1234, 4);
        m.write(0x7000, 0x5678, 4); // cache now points at 0x7000's page
        let c = m.clone();
        assert_eq!(c.read(0x5000, 4), 0x1234);
        assert_eq!(c.read(0x7000, 4), 0x5678);
        m.write(0x5000, 0x9999, 4);
        assert_eq!(c.read(0x5000, 4), 0x1234, "clone is independent");
    }
}
