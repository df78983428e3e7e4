//! Warp state: the warp's register file, the SIMT divergence stack, and
//! the per-warp register scoreboard used for latency hiding.

use lmi_isa::{PredReg, Reg};

use crate::config::WARP_SIZE;
use crate::sm::StallReason;

/// A 32-lane active mask.
pub type LaneMask = u32;

/// All lanes active.
pub const FULL_MASK: LaneMask = u32::MAX;

/// One warp's architectural and micro-architectural state.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Warp id within its SM.
    pub id: usize,
    /// Block index this warp belongs to (global).
    pub block: usize,
    /// Flat global thread id of lane 0.
    pub base_tid: u64,
    /// Program counter (instruction index).
    pub pc: usize,
    /// Active lanes.
    pub mask: LaneMask,
    /// Divergence stack: suspended `(mask, pc)` contexts.
    pub stack: Vec<(LaneMask, usize)>,
    /// Register-major register file, `regs[reg * WARP_SIZE + lane]`: one
    /// register's 32 lanes are contiguous, so warp-wide execution reads
    /// and writes whole rows ([`Warp::row`], [`Warp::write_row`]).
    regs: Vec<u32>,
    regs_per_thread: usize,
    /// Per-lane predicate registers (bitmask of 8 per lane).
    preds: [u8; WARP_SIZE],
    /// Cycle at which each architectural register becomes readable.
    reg_ready: Vec<u64>,
    /// Cycle at which each register's OCU verdict (final extent) is
    /// available — only memory instructions must wait for it, since the EC
    /// in the LSU is the only consumer of the poisoned extent. ALU
    /// consumers receive the forwarded raw value at `reg_ready`.
    verdict_ready: Vec<u64>,
    /// Cycle at which each predicate register becomes readable.
    pred_ready: [u64; 8],
    /// Cycle until which each register is waiting on an in-flight *memory*
    /// result. A register whose `ready_at` equals its `mem_pending_until`
    /// is blocked by the LSU, not the ALU scoreboard — the distinction the
    /// scheduler's stall-reason breakdown reports.
    mem_pending: Vec<u64>,
    /// Set when the warp has exited.
    pub done: bool,
    /// Set while the warp waits at a block barrier.
    pub at_barrier: bool,
    /// Cycle of the last issue (for GTO greediness bookkeeping).
    pub last_issue: u64,
    /// First cycle this warp may issue (models the launch/dispatch ramp and
    /// decorrelates warps, like real block schedulers do).
    pub start_cycle: u64,
    /// The SM's memoized readiness of this warp's next instruction: the
    /// earliest issue cycle and its binding stall reason. It depends on
    /// warp state only, which changes only when the warp issues (phase A)
    /// or its results land (phase C); both clear it.
    pub(crate) ready: Option<(u64, StallReason)>,
}

impl Warp {
    /// Creates a warp with `active` lanes (the tail warp of a block may be
    /// partial).
    pub fn new(
        id: usize,
        block: usize,
        base_tid: u64,
        regs_per_thread: usize,
        active: usize,
    ) -> Warp {
        let mask = if active >= WARP_SIZE { FULL_MASK } else { (1u32 << active) - 1 };
        Warp {
            id,
            block,
            base_tid,
            pc: 0,
            mask,
            stack: Vec::new(),
            regs: vec![0; WARP_SIZE * regs_per_thread.max(1)],
            regs_per_thread: regs_per_thread.max(1),
            preds: [0; WARP_SIZE],
            reg_ready: vec![0; regs_per_thread.max(1)],
            verdict_ready: vec![0; regs_per_thread.max(1)],
            pred_ready: [0; 8],
            mem_pending: vec![0; regs_per_thread.max(1)],
            done: false,
            at_barrier: false,
            last_issue: 0,
            start_cycle: (id as u64 * 7) % 23,
            ready: None,
        }
    }

    /// Index of `reg`'s row in `regs`, or `None` for RZ and registers
    /// beyond the allocation (which read zero and discard writes).
    fn row_start(&self, reg: Reg) -> Option<usize> {
        let r = reg.0 as usize;
        (!reg.is_zero_reg() && r < self.regs_per_thread).then_some(r * WARP_SIZE)
    }

    /// Reads a 32-bit register for `lane` (RZ reads zero).
    pub fn read(&self, lane: usize, reg: Reg) -> u32 {
        self.row_start(reg).map_or(0, |i| self.regs[i + lane])
    }

    /// Writes a 32-bit register for `lane` (writes to RZ are discarded).
    pub fn write(&mut self, lane: usize, reg: Reg, value: u32) {
        if let Some(i) = self.row_start(reg) {
            self.regs[i + lane] = value;
        }
    }

    /// All 32 lanes of a 32-bit register (RZ reads zero).
    pub fn row(&self, reg: Reg) -> [u32; WARP_SIZE] {
        match self.row_start(reg) {
            Some(i) => self.regs[i..i + WARP_SIZE].try_into().expect("one row"),
            None => [0; WARP_SIZE],
        }
    }

    /// Writes `values` into the lanes of `reg` selected by `mask`.
    pub fn write_row(&mut self, reg: Reg, values: &[u32; WARP_SIZE], mask: LaneMask) {
        let Some(i) = self.row_start(reg) else { return };
        for (l, (slot, &v)) in self.regs[i..i + WARP_SIZE].iter_mut().zip(values).enumerate() {
            if mask & (1 << l) != 0 {
                *slot = v;
            }
        }
    }

    /// All 32 lanes of a 64-bit register pair (see [`Warp::read64`]).
    pub fn row64(&self, reg: Reg) -> [u64; WARP_SIZE] {
        if reg.is_zero_reg() {
            return [0; WARP_SIZE];
        }
        let lo = self.row(reg);
        let hi = if reg.is_valid_pair_base() { self.row(reg.pair_high()) } else { [0; WARP_SIZE] };
        std::array::from_fn(|l| (u64::from(hi[l]) << 32) | u64::from(lo[l]))
    }

    /// Writes `values` into the lanes of pair `reg` selected by `mask` (see
    /// [`Warp::write64`]).
    pub fn write_row64(&mut self, reg: Reg, values: &[u64; WARP_SIZE], mask: LaneMask) {
        if reg.is_zero_reg() {
            return;
        }
        self.write_row(reg, &values.map(|v| v as u32), mask);
        if reg.is_valid_pair_base() {
            self.write_row(reg.pair_high(), &values.map(|v| (v >> 32) as u32), mask);
        }
    }

    /// Reads a 64-bit register pair.
    pub fn read64(&self, lane: usize, reg: Reg) -> u64 {
        if reg.is_zero_reg() {
            return 0;
        }
        let lo = self.read(lane, reg) as u64;
        let hi = if reg.is_valid_pair_base() { self.read(lane, reg.pair_high()) as u64 } else { 0 };
        (hi << 32) | lo
    }

    /// Writes a 64-bit register pair.
    pub fn write64(&mut self, lane: usize, reg: Reg, value: u64) {
        if reg.is_zero_reg() {
            return;
        }
        self.write(lane, reg, value as u32);
        if reg.is_valid_pair_base() {
            self.write(lane, reg.pair_high(), (value >> 32) as u32);
        }
    }

    /// Reads a predicate register for `lane` (PT reads true).
    pub fn read_pred(&self, lane: usize, pred: PredReg) -> bool {
        pred.is_true_reg() || self.preds[lane] & (1 << pred.0) != 0
    }

    /// Writes a predicate register for `lane`.
    pub fn write_pred(&mut self, lane: usize, pred: PredReg, value: bool) {
        if pred.is_true_reg() {
            return;
        }
        if value {
            self.preds[lane] |= 1 << pred.0;
        } else {
            self.preds[lane] &= !(1 << pred.0);
        }
    }

    /// The cycle at which `reg` becomes readable.
    pub fn ready_at(&self, reg: Reg) -> u64 {
        if reg.is_zero_reg() || reg.0 as usize >= self.regs_per_thread {
            return 0;
        }
        self.reg_ready[reg.0 as usize]
    }

    /// Marks `reg` as busy until `cycle` (verdict time follows unless set
    /// later via [`Warp::set_verdict_at`]).
    pub fn set_ready_at(&mut self, reg: Reg, cycle: u64) {
        if reg.is_zero_reg() || reg.0 as usize >= self.regs_per_thread {
            return;
        }
        let slot = &mut self.reg_ready[reg.0 as usize];
        *slot = (*slot).max(cycle);
        let v = &mut self.verdict_ready[reg.0 as usize];
        *v = (*v).max(cycle);
    }

    /// Marks `reg` busy until `cycle` with an in-flight memory result as
    /// the producer (a load destination or a heap-call return value), so a
    /// later wait on it classifies as an LSU stall rather than a
    /// scoreboard stall.
    pub fn set_ready_at_mem(&mut self, reg: Reg, cycle: u64) {
        self.set_ready_at(reg, cycle);
        if reg.is_zero_reg() || reg.0 as usize >= self.regs_per_thread {
            return;
        }
        let slot = &mut self.mem_pending[reg.0 as usize];
        *slot = (*slot).max(cycle);
    }

    /// `true` if waiting on `reg` at `cycle` is waiting on the LSU: an
    /// in-flight memory result covers that cycle.
    pub fn mem_pending_at(&self, reg: Reg, cycle: u64) -> bool {
        if reg.is_zero_reg() || reg.0 as usize >= self.regs_per_thread {
            return false;
        }
        self.mem_pending[reg.0 as usize] >= cycle
    }

    /// The cycle at which `reg`'s OCU verdict is final (≥ `ready_at`).
    pub fn verdict_at(&self, reg: Reg) -> u64 {
        if reg.is_zero_reg() || reg.0 as usize >= self.regs_per_thread {
            return 0;
        }
        self.verdict_ready[reg.0 as usize]
    }

    /// Delays `reg`'s OCU verdict until `cycle` (the pipelined OCU register
    /// slices of paper §XI-C).
    pub fn set_verdict_at(&mut self, reg: Reg, cycle: u64) {
        if reg.is_zero_reg() || reg.0 as usize >= self.regs_per_thread {
            return;
        }
        let v = &mut self.verdict_ready[reg.0 as usize];
        *v = (*v).max(cycle);
    }

    /// The cycle at which predicate `pred` becomes readable.
    pub fn pred_ready_at(&self, pred: PredReg) -> u64 {
        if pred.is_true_reg() {
            0
        } else {
            self.pred_ready[pred.0 as usize]
        }
    }

    /// Marks predicate `pred` busy until `cycle`.
    pub fn set_pred_ready_at(&mut self, pred: PredReg, cycle: u64) {
        if !pred.is_true_reg() {
            let slot = &mut self.pred_ready[pred.0 as usize];
            *slot = (*slot).max(cycle);
        }
    }

    /// Lanes currently active, as indices.
    pub fn active_lanes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..WARP_SIZE).filter(move |&l| self.mask & (1 << l) != 0)
    }

    /// Retires lanes in `exit_mask`; pops a suspended divergence context
    /// when no lane remains; marks the warp done when the stack empties.
    pub fn retire_lanes(&mut self, exit_mask: LaneMask) {
        self.mask &= !exit_mask;
        if self.mask == 0 {
            match self.stack.pop() {
                Some((mask, pc)) => {
                    self.mask = mask;
                    self.pc = pc;
                }
                None => self.done = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp() -> Warp {
        Warp::new(0, 0, 0, 16, 32)
    }

    #[test]
    fn rz_reads_zero_and_ignores_writes() {
        let mut w = warp();
        w.write(0, Reg::RZ, 42);
        assert_eq!(w.read(0, Reg::RZ), 0);
        assert_eq!(w.read64(0, Reg::RZ), 0);
    }

    #[test]
    fn pair_round_trip() {
        let mut w = warp();
        w.write64(3, Reg(4), 0x1122_3344_5566_7788);
        assert_eq!(w.read64(3, Reg(4)), 0x1122_3344_5566_7788);
        assert_eq!(w.read(3, Reg(4)), 0x5566_7788);
        assert_eq!(w.read(3, Reg(5)), 0x1122_3344);
    }

    #[test]
    fn lanes_have_independent_registers() {
        let mut w = warp();
        w.write(0, Reg(2), 10);
        w.write(1, Reg(2), 20);
        assert_eq!(w.read(0, Reg(2)), 10);
        assert_eq!(w.read(1, Reg(2)), 20);
    }

    #[test]
    fn rows_match_per_lane_access() {
        let mut w = warp();
        let values: [u64; WARP_SIZE] = std::array::from_fn(|l| (l as u64) << 33 | l as u64);
        w.write_row64(Reg(4), &values, 0xF0F0_F0F0);
        for (l, &v) in values.iter().enumerate() {
            let want = if 0xF0F0_F0F0u32 & (1 << l) != 0 { v } else { 0 };
            assert_eq!(w.read64(l, Reg(4)), want, "lane {l}");
        }
        assert_eq!(w.row64(Reg(4)), std::array::from_fn(|l| w.read64(l, Reg(4))));
        w.write_row(Reg::RZ, &[7; WARP_SIZE], FULL_MASK);
        assert_eq!(w.row(Reg::RZ), [0; WARP_SIZE]);
        assert_eq!(w.row(Reg(200)), [0; WARP_SIZE], "beyond the allocation reads zero");
    }

    #[test]
    fn predicates_default_false_and_pt_true() {
        let mut w = warp();
        assert!(!w.read_pred(0, PredReg(0)));
        assert!(w.read_pred(0, PredReg::PT));
        w.write_pred(0, PredReg(0), true);
        assert!(w.read_pred(0, PredReg(0)));
        assert!(!w.read_pred(1, PredReg(0)), "per-lane");
        w.write_pred(0, PredReg::PT, false);
        assert!(w.read_pred(0, PredReg::PT), "PT is hardwired");
    }

    #[test]
    fn scoreboard_takes_the_max() {
        let mut w = warp();
        w.set_ready_at(Reg(3), 100);
        w.set_ready_at(Reg(3), 50);
        assert_eq!(w.ready_at(Reg(3)), 100);
    }

    #[test]
    fn partial_tail_warp_masks_inactive_lanes() {
        let w = Warp::new(0, 0, 0, 8, 10);
        assert_eq!(w.active_lanes().count(), 10);
    }

    #[test]
    fn retire_pops_divergence_stack_then_finishes() {
        let mut w = warp();
        w.stack.push((0xFF00_0000, 7));
        w.retire_lanes(FULL_MASK);
        assert!(!w.done);
        assert_eq!(w.mask, 0xFF00_0000);
        assert_eq!(w.pc, 7);
        w.retire_lanes(FULL_MASK);
        assert!(w.done);
    }
}
