//! GMOD/clARMOR-style canary checking.
//!
//! Canary mechanisms surround each global buffer with guard words and scan
//! them at synchronization points (kernel end). They detect **adjacent
//! overwrites** of global buffers only: non-adjacent wild writes jump over
//! the canary region, reads never touch it, and heap/local/shared buffers
//! are not wrapped at all (paper Table III: GMOD detects 1 of 21 spatial
//! cases). Invalid-free/double-free detection comes from the allocator.

use lmi_mem::SparseMemory;

/// Canary region size on each side of a buffer.
pub const CANARY_BYTES: u64 = 64;

/// The guard byte pattern.
pub const CANARY_PATTERN: u8 = 0x5A;

/// A wrapped buffer: user region plus leading/trailing canaries.
#[derive(Debug, Clone, Copy)]
pub struct GuardedBuffer {
    /// Start of the user region.
    pub base: u64,
    /// User bytes.
    pub size: u64,
}

impl GuardedBuffer {
    /// Total footprint including canaries.
    pub fn footprint(&self) -> u64 {
        self.size + 2 * CANARY_BYTES
    }
}

/// Canary bookkeeping for one kernel run.
#[derive(Debug, Default)]
pub struct CanaryAllocator {
    buffers: Vec<GuardedBuffer>,
}

impl CanaryAllocator {
    /// A fresh allocator.
    pub fn new() -> CanaryAllocator {
        CanaryAllocator::default()
    }

    /// Wraps the buffer at `base` with canaries, painting the guard bytes
    /// into `memory`. `base` must leave `CANARY_BYTES` of headroom (the
    /// canary allocator reserves it when placing buffers).
    pub fn guard(&mut self, memory: &mut SparseMemory, base: u64, size: u64) {
        memory.fill(base - CANARY_BYTES, CANARY_BYTES, CANARY_PATTERN);
        memory.fill(base + size, CANARY_BYTES, CANARY_PATTERN);
        self.buffers.push(GuardedBuffer { base, size });
    }

    /// The synchronization-point scan: returns the buffers whose canaries
    /// were damaged (detected adjacent overflows).
    pub fn scan(&self, memory: &SparseMemory) -> Vec<GuardedBuffer> {
        let mut detected = Vec::new();
        for buf in &self.buffers {
            let damaged = |start: u64| {
                let mut guard = [0u8; CANARY_BYTES as usize];
                memory.read_bytes(start, &mut guard);
                guard.iter().any(|&b| b != CANARY_PATTERN)
            };
            if damaged(buf.base - CANARY_BYTES) || damaged(buf.base + buf.size) {
                detected.push(*buf);
            }
        }
        detected
    }

    /// Number of guarded buffers.
    pub fn guarded_count(&self) -> usize {
        self.buffers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0x0100_0000_1000;

    #[test]
    fn adjacent_overflow_write_is_detected_at_scan() {
        let mut mem = SparseMemory::new();
        let mut canary = CanaryAllocator::new();
        canary.guard(&mut mem, BASE, 256);
        // In-bounds writes never trip it.
        mem.write(BASE + 100, 0xFF, 4);
        assert!(canary.scan(&mem).is_empty());
        // One byte past the end smashes the trailing canary.
        mem.write_u8(BASE + 256, 0x00);
        let hits = canary.scan(&mem);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].base, BASE);
    }

    #[test]
    fn underflow_hits_the_leading_canary() {
        let mut mem = SparseMemory::new();
        let mut canary = CanaryAllocator::new();
        canary.guard(&mut mem, BASE, 128);
        mem.write_u8(BASE - 1, 0x00);
        assert_eq!(canary.scan(&mem).len(), 1);
    }

    #[test]
    fn non_adjacent_write_is_missed() {
        let mut mem = SparseMemory::new();
        let mut canary = CanaryAllocator::new();
        canary.guard(&mut mem, BASE, 128);
        // A wild write far past the canary region: undetected (the GMOD
        // limitation in Table III).
        mem.write(BASE + 128 + CANARY_BYTES + 4096, 0xDEAD, 4);
        assert!(canary.scan(&mem).is_empty());
    }

    #[test]
    fn oob_read_is_invisible_to_canaries() {
        let mut mem = SparseMemory::new();
        let mut canary = CanaryAllocator::new();
        canary.guard(&mut mem, BASE, 128);
        let _ = mem.read(BASE + 130, 4); // adjacent OOB *read*
        assert!(canary.scan(&mem).is_empty());
    }
}
