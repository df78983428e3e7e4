//! The streaming multiprocessor: warp schedulers, issue, and execution.
//!
//! Execution of one cycle is split into three phases (driven by
//! `crate::engine`):
//!
//! * **Phase A** (`Sm::step_phase_a`) — scheduling, operand fetch, ALU
//!   execution, address generation, and the SM-local L1 probe. Touches
//!   *only* this SM's state (warps, decoded stream, launch context, its
//!   own L1). Operations that must touch shared state (the device heap,
//!   the mechanism, statistics, telemetry, the L2 and the functional
//!   store) are recorded as `SharedOp`s on the cycle's `IssueEvent` list;
//!   a memory op carries its coalesced lines and which of them missed L1.
//! * **Phase B** (`engine`) — one walk over every SM's events in
//!   canonical (SM, scheduler) order: mechanism checks (producing a
//!   `MemVerdict` per memory op), heap calls, stats/counter/tracer
//!   absorption. Then the metadata and memory passes run the ops' L2
//!   fills and byte movement in the same canonical order.
//! * **Phase C** (`Sm::apply_results`) — each SM writes the phase-B
//!   results back into its warps: register writes, scoreboard ready
//!   times, pc advance, retirement, barrier release.
//!
//! Deferred results only become architecturally visible at the next cycle
//! (loads have multi-cycle latency; the issuing warp cannot issue again
//! this cycle), so deferring them within the cycle does not change what any
//! phase-A code can observe.
//!
//! ## Allocation discipline
//!
//! The cycle loop is **allocation-free in steady state** (audited by
//! `tests/alloc_audit.rs`): instructions come pre-decoded from an
//! [`lmi_isa::DecodedStream`] lowered once at launch, the GTO scheduler
//! iterates its warp slice in place instead of collecting candidate lists,
//! lane sets walk the execution mask bit-by-bit, and every deferred-op
//! payload (`SharedOp`/`OpResult` lane and line lists) is drawn from the
//! per-SM `EventPool` and returned to it after application.

use std::sync::Arc;

use lmi_core::ptr::ADDR_MASK;
use lmi_isa::{abi, DecodedInstr, DecodedStream, MemSpace, Opcode, OpcodeClass, Operand, Reg};
use lmi_mem::{layout, Cache};
use lmi_telemetry::{SmSample, WarpState};

use crate::config::{GpuConfig, WARP_SIZE};
use crate::exec;
use crate::launch::Launch;
use crate::lsu::coalesce_into;
use crate::warp::{LaneMask, Warp};

/// Per-launch context needed to resolve constant-bank reads.
#[derive(Debug, Clone)]
pub(crate) struct LaunchCtx {
    pub params: Vec<u64>,
    pub stack_bytes: u64,
    pub threads_per_block: usize,
    /// Offset added to a thread's global tid when *backing* its local
    /// window. Semantic ids (tid.x, ctaid.x) are untouched; resident
    /// multi-kernel runs use distinct bases so concurrent kernels' stacks
    /// land in disjoint windows of the functional store.
    pub layout_tid_base: u64,
    /// Same idea for shared-memory windows, in block units.
    pub layout_block_base: u64,
}

impl LaunchCtx {
    fn const_read(&self, block: usize, gtid: u64, offset: u16, width: u8) -> u64 {
        let value = match offset {
            abi::STACK_TOP_OFFSET => {
                layout::local_window_base(gtid + self.layout_tid_base, self.stack_bytes)
                    + self.stack_bytes
            }
            abi::SHARED_BASE_OFFSET => {
                layout::shared_window_base(block as u64 + self.layout_block_base)
            }
            o if o >= abi::PARAM_BASE_OFFSET => {
                let index = ((o - abi::PARAM_BASE_OFFSET) / 8) as usize;
                self.params.get(index).copied().unwrap_or(0)
            }
            _ => 0,
        };
        if width <= 4 {
            value & 0xFFFF_FFFF
        } else {
            value
        }
    }
}

/// Per-block barrier bookkeeping, rebuilt-free: one record per resident
/// block, counters reset and re-accumulated in a single pass per phase C.
#[derive(Debug)]
struct BlockBarrier {
    block: usize,
    resident: usize,
    waiting: usize,
    done: usize,
}

/// One streaming multiprocessor.
pub(crate) struct Sm {
    pub id: usize,
    stream: Arc<DecodedStream>,
    launch: Arc<LaunchCtx>,
    pub warps: Vec<Warp>,
    /// Greedy warp per scheduler (GTO: greedy-then-oldest).
    greedy: Vec<Option<usize>>,
    /// Blocks resident on this SM (for barrier release).
    blocks: Vec<BlockBarrier>,
    /// First cycle at which every resident warp had retired, set in phase
    /// C; resident multi-kernel runs use it for per-kernel completion
    /// times.
    pub done_cycle: Option<u64>,
}

/// Why a warp could not issue this cycle (the binding constraint of its
/// next instruction). Feeds [`crate::stats::StallBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallReason {
    /// Launch-ramp delay, or no candidate at all.
    NoReadyWarp,
    /// Waiting on an ALU-produced register or predicate.
    Scoreboard,
    /// Waiting on an in-flight memory result.
    LsuBusy,
    /// Waiting on a pending OCU verdict (paper §XI-C pipeline delay).
    OcuVerdict,
}

impl StallReason {
    /// Index into [`CycleEvents::stalls`].
    pub fn index(self) -> usize {
        match self {
            StallReason::Scoreboard => 0,
            StallReason::LsuBusy => 1,
            StallReason::OcuVerdict => 2,
            StallReason::NoReadyWarp => 3,
        }
    }
}

/// One lane of a deferred memory access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneMem {
    pub lane: usize,
    /// Raw register value plus offset (may carry extent bits).
    pub raw: u64,
    /// Virtual address after metadata stripping.
    pub vaddr: u64,
    /// Address used for coalescing/timing (local-space interleaving).
    pub timing_addr: u64,
    /// Store data; for loads, the loaded value once the memory pass ran.
    pub data: u64,
}

/// A shared-state operation deferred from phase A to phase B.
#[derive(Debug)]
pub(crate) enum SharedOp {
    /// A hint-marked wide integer op with at least one active lane: the
    /// mechanism's OCU check runs in phase B. `(lane, input, raw_result)`.
    MarkedInt { dst: Reg, pair: bool, lanes: Vec<(usize, u64, u64)> },
    /// A device-heap call. `(lane, size_or_ptr)`.
    Heap { dst: Reg, pair: bool, malloc: bool, lanes: Vec<(usize, u64)> },
    /// A non-constant memory access. The B-check runs the mechanism and
    /// accounting on `lanes`; the memory pass then fills the `missed`
    /// lines and moves the surviving lanes' bytes.
    Mem {
        dst: Reg,
        pair: bool,
        width: u8,
        is_store: bool,
        space: MemSpace,
        lanes: Vec<LaneMem>,
        /// Coalesced line addresses (empty for shared-space ops).
        lines: Vec<u64>,
        /// Bit `i` set: `lines[i]` missed the SM-local L1.
        missed: u64,
        /// Coalesced line count (1 for shared-space ops): the transaction
        /// count charged by the B-check.
        line_count: u64,
        /// At least one coalesced line hit the SM-local L1 in phase A.
        l1_hit: bool,
        /// Memory-pass work units of this op (L1-missed line fills plus
        /// lane byte moves, a line-straddling lane counting twice), for the
        /// `phase_b_banked_items` stat.
        mem_items: u32,
    },
}

/// The B-check's verdict on one memory op, consumed by the memory pass
/// (gating) and phase C (assembly).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemVerdict {
    /// Lanes that passed the mechanism check.
    pub survivors: LaneMask,
    /// The op faulted under `halt_on_violation`: no timing, no data
    /// movement, the warp halts.
    pub cancelled: bool,
    /// Extra completion latency charged by the mechanism.
    pub extra_cycles: u32,
}

/// Phase-B outcome of a deferred op, applied to the warp in phase C.
#[derive(Debug, Clone)]
pub(crate) struct OpResult {
    pub dst: Reg,
    pub pair: bool,
    /// 8 ⇒ `write64` per lane, else 32-bit `write`.
    pub write_width: u8,
    pub writes: Vec<(usize, u64)>,
    pub ready_at: Option<u64>,
    pub verdict_at: Option<u64>,
    pub ready_mem_at: Option<u64>,
    pub advance_pc: bool,
    /// Halt the warp (violation with `halt_on_violation`).
    pub retire: bool,
}

/// One warp-level issue, recorded in phase A for phase B's canonical walk.
#[derive(Debug)]
pub(crate) struct IssueEvent {
    pub warp: usize,
    /// pc of the issued instruction (pre-advance).
    pub pc: usize,
    /// `None`: the warp fell off the program end and retired instead.
    pub opcode: Option<Opcode>,
    pub activate: bool,
    /// Set for every memory instruction, including the locally-executed
    /// constant loads (phase B owns all `SimStats` accounting).
    pub mem_space: Option<MemSpace>,
    pub base_tid: u64,
    pub block: usize,
    pub start_cycle: u64,
    /// Warp retired during phase A (local exit path).
    pub retired_local: bool,
    pub shared: Option<SharedOp>,
    pub result: Option<OpResult>,
    /// B-check verdict for a deferred memory op (`None` otherwise).
    pub verdict: Option<MemVerdict>,
    /// Completion cycle of this op's slowest metadata fetch (0 when the
    /// mechanism fetched none).
    pub meta_done: u64,
    /// Completion cycle of this op's slowest L1-missed line fill (0 when
    /// every line hit L1).
    pub data_done: u64,
}

/// Typed freelists for the deferred-op payload buffers. Phase A draws
/// empty (but capacity-retaining) `Vec`s, phase B/C return them after
/// consumption, so in steady state no cycle touches the heap. Each SM owns
/// one pool inside its [`CycleEvents`].
#[derive(Debug, Default)]
pub(crate) struct EventPool {
    lane_mem: Vec<Vec<LaneMem>>,
    pairs: Vec<Vec<(usize, u64)>>,
    triples: Vec<Vec<(usize, u64, u64)>>,
    lines: Vec<Vec<u64>>,
}

impl EventPool {
    pub fn take_lane_mem(&mut self) -> Vec<LaneMem> {
        self.lane_mem.pop().unwrap_or_default()
    }

    pub fn put_lane_mem(&mut self, mut v: Vec<LaneMem>) {
        v.clear();
        self.lane_mem.push(v);
    }

    pub fn take_pairs(&mut self) -> Vec<(usize, u64)> {
        self.pairs.pop().unwrap_or_default()
    }

    pub fn put_pairs(&mut self, mut v: Vec<(usize, u64)>) {
        v.clear();
        self.pairs.push(v);
    }

    pub fn take_triples(&mut self) -> Vec<(usize, u64, u64)> {
        self.triples.pop().unwrap_or_default()
    }

    pub fn put_triples(&mut self, mut v: Vec<(usize, u64, u64)>) {
        v.clear();
        self.triples.push(v);
    }

    pub fn take_lines(&mut self) -> Vec<u64> {
        self.lines.pop().unwrap_or_default()
    }

    pub fn put_lines(&mut self, mut v: Vec<u64>) {
        v.clear();
        self.lines.push(v);
    }
}

/// Everything one SM produced in one cycle.
#[derive(Debug, Default)]
pub(crate) struct CycleEvents {
    pub issues: Vec<IssueEvent>,
    /// Idle scheduler-slot counts, indexed by [`StallReason::index`].
    pub stalls: [u64; 4],
    /// Profiler sample taken this cycle (phase A, SM-local), absorbed by
    /// the apply phase into the kernel's profile. `None` when sampling is
    /// off or the cycle is not on the period.
    pub sample: Option<SmSample>,
    /// Recycled payload buffers; survives `clear()` by design.
    pub pool: EventPool,
}

impl CycleEvents {
    pub fn clear(&mut self) {
        self.issues.clear();
        self.stalls = [0; 4];
        self.sample = None;
    }
}

impl IssueEvent {
    /// Completion cycle of a deferred memory op, assembled from the
    /// metadata and memory passes: metadata fetches gate the access start
    /// (check-before-access), then the slowest of the bank fills, the
    /// SM-local L1 hit path and the shared-memory path completes it, plus
    /// the mechanism's extra latency. `None` for non-memory events and for
    /// cancelled (halting) accesses.
    pub fn mem_done_at(&self, now: u64, cfg: &GpuConfig) -> Option<u64> {
        let Some(SharedOp::Mem { space, l1_hit, .. }) = &self.shared else {
            return None;
        };
        let v = self.verdict.as_ref()?;
        if v.cancelled {
            return None;
        }
        let start = now.max(self.meta_done);
        let mut done = start.max(self.data_done);
        if *l1_hit {
            done = done.max(start + cfg.hierarchy.l1.hit_latency as u64);
        }
        if *space == MemSpace::Shared {
            done = done.max(start + cfg.hierarchy.shared_latency as u64);
        }
        Some(done + v.extra_cycles as u64)
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct StepOutcome {
    pub issued_any: bool,
    /// Earliest future cycle at which a stalled warp could issue.
    pub next_ready: u64,
}

impl Sm {
    pub fn new(id: usize, stream: Arc<DecodedStream>, ctx: Arc<LaunchCtx>) -> Sm {
        Sm {
            id,
            stream,
            launch: ctx,
            warps: Vec::new(),
            greedy: Vec::new(),
            blocks: Vec::new(),
            done_cycle: None,
        }
    }

    /// Adds the warps of block `block` to this SM.
    pub fn add_block(&mut self, block: usize, launch: &Launch, regs_per_thread: usize) {
        let warps = launch.warps_per_block();
        for w in 0..warps {
            let threads_before = w * WARP_SIZE;
            let active = (launch.threads_per_block - threads_before).min(WARP_SIZE);
            let base_tid = (block * launch.threads_per_block + threads_before) as u64;
            let id = self.warps.len();
            let mut warp = Warp::new(id, block, base_tid, regs_per_thread, active);
            // The launch phase selects a different dispatch-stagger pattern,
            // decorrelating warp/program/memory phase alignment between runs.
            warp.start_cycle = ((id as u64 + 1) * (7 + launch.phase * 5)) % 31;
            self.warps.push(warp);
        }
        match self.blocks.iter_mut().find(|b| b.block == block) {
            Some(b) => b.resident += warps,
            None => self.blocks.push(BlockBarrier { block, resident: warps, waiting: 0, done: 0 }),
        }
    }

    pub fn all_done(&self) -> bool {
        self.warps.iter().all(|w| w.done)
    }

    /// Phase A of one cycle: each scheduler issues at most one instruction
    /// (GTO pick), executing SM-local work immediately — including the
    /// probe of this SM's own L1 (`l1`) — and recording shared-state work
    /// into `out`. Reads no shared state.
    pub fn step_phase_a(
        &mut self,
        now: u64,
        cfg: &GpuConfig,
        out: &mut CycleEvents,
        l1: &mut Cache,
    ) -> StepOutcome {
        out.clear();
        if self.greedy.len() != cfg.schedulers_per_sm {
            self.greedy = vec![None; cfg.schedulers_per_sm];
        }
        let mut issued_any = false;
        let mut next_ready = u64::MAX;
        let nwarps = self.warps.len();

        for sched in 0..cfg.schedulers_per_sm {
            // GTO: greedy warp first, then oldest — examined in place, in
            // exactly the order the old candidate-list walk used, stopping
            // at the first ready warp (later candidates are never probed,
            // so they feed neither `next_ready` nor stall attribution).
            let greedy = self.greedy[sched].filter(|&g| {
                let w = &self.warps[g];
                !w.done && !w.at_barrier
            });
            let mut any_candidate = false;
            let mut picked = None;
            // Stall attribution: the binding constraint of the candidate
            // that would issue soonest.
            let mut soonest: Option<(u64, StallReason)> = None;
            if let Some(g) = greedy {
                any_candidate = true;
                let (r, reason) = self.ready(g, cfg.lsu_verdict_overlap);
                if r <= now {
                    picked = Some(g);
                } else {
                    next_ready = next_ready.min(r);
                    soonest = Some((r, reason));
                }
            }
            if picked.is_none() {
                let mut w = sched;
                while w < nwarps {
                    if Some(w) != greedy {
                        let warp = &self.warps[w];
                        if !warp.done && !warp.at_barrier {
                            any_candidate = true;
                            let (r, reason) = self.ready(w, cfg.lsu_verdict_overlap);
                            if r <= now {
                                picked = Some(w);
                                break;
                            }
                            next_ready = next_ready.min(r);
                            if soonest.is_none_or(|(s, _)| r < s) {
                                soonest = Some((r, reason));
                            }
                        }
                    }
                    w += cfg.schedulers_per_sm;
                }
            }
            if !any_candidate {
                // At a barrier (or between blocks): the slot idles with no
                // candidate, but only count it while work remains.
                let mut w = sched;
                let mut any_live = false;
                while w < nwarps {
                    if !self.warps[w].done {
                        any_live = true;
                        break;
                    }
                    w += cfg.schedulers_per_sm;
                }
                if any_live {
                    out.stalls[StallReason::NoReadyWarp.index()] += 1;
                }
                continue;
            }
            match picked {
                Some(w) => {
                    // One atomic refcount bump per issue buys a
                    // `&DecodedStream` borrow inside `&mut self` methods.
                    let stream = Arc::clone(&self.stream);
                    let ev = self.issue_phase_a(&stream, w, now, cfg, &mut out.pool, l1);
                    out.issues.push(ev);
                    self.greedy[sched] = Some(w);
                    issued_any = true;
                    // The warp can issue again next cycle (in-order).
                    next_ready = next_ready.min(now + 1);
                }
                None => {
                    let reason = soonest.map(|(_, r)| r).unwrap_or(StallReason::NoReadyWarp);
                    out.stalls[reason.index()] += 1;
                }
            }
        }

        if cfg.sample_period > 0 && now.is_multiple_of(cfg.sample_period) {
            out.sample = Some(self.sample_warps(now, cfg, &out.issues));
        }

        StepOutcome { issued_any, next_ready }
    }

    /// Classifies every resident warp for the sampling profiler. Runs in
    /// phase A on SM-local state only (warp flags, scoreboard times, this
    /// cycle's issue list), so the sample is independent of other SMs.
    fn sample_warps(&self, now: u64, cfg: &GpuConfig, issues: &[IssueEvent]) -> SmSample {
        let mut sample = SmSample::default();
        for (w, warp) in self.warps.iter().enumerate() {
            let state = if warp.done {
                WarpState::Retired
            } else if warp.at_barrier {
                WarpState::Barrier
            } else if let Some(ev) = issues.iter().find(|ev| ev.warp == w) {
                sample.pcs.push((ev.pc as u32, 1));
                WarpState::Issued
            } else {
                let (r, reason) =
                    warp.ready.unwrap_or_else(|| self.ready_info(w, cfg.lsu_verdict_overlap));
                if r <= now {
                    // Eligible, but this cycle's scheduler slots went to
                    // greedier/older warps.
                    WarpState::Ready
                } else {
                    match reason {
                        StallReason::Scoreboard => WarpState::Scoreboard,
                        StallReason::LsuBusy => WarpState::LsuBusy,
                        StallReason::OcuVerdict => WarpState::OcuVerdict,
                        // Only the dispatch ramp leaves no binding hazard.
                        StallReason::NoReadyWarp => WarpState::Ramp,
                    }
                }
            };
            sample.states[state.index()] += 1;
        }
        sample
    }

    /// Phase C: applies phase-B results to the warps (in issue order) and
    /// releases block barriers. Memory-op completion times are assembled
    /// here from the metadata and memory passes' results. `now` stamps
    /// `done_cycle` the first time the SM drains.
    pub fn apply_results(&mut self, events: &mut CycleEvents, now: u64, cfg: &GpuConfig) {
        let CycleEvents { issues, pool, .. } = events;
        for ev in issues.iter_mut() {
            self.warps[ev.warp].ready = None;
            // Completion time first: `mem_done_at` borrows the shared op
            // this branch consumes.
            let mem_done = ev.mem_done_at(now, cfg);
            if let Some(SharedOp::Mem { dst, pair, width, is_store, lanes, lines, .. }) =
                ev.shared.take()
            {
                let v = ev.verdict.expect("mem op carries a B-check verdict");
                let warp = &mut self.warps[ev.warp];
                if v.cancelled {
                    // The faulting access never issues: no pc advance, the
                    // warp halts (`halt_on_violation`).
                    warp.stack.clear();
                    warp.retire_lanes(warp.mask);
                } else {
                    if !is_store {
                        let done = mem_done.expect("live mem op has a completion time");
                        for lm in lanes.iter().filter(|lm| v.survivors & (1 << lm.lane) != 0) {
                            if width == 8 {
                                warp.write64(lm.lane, dst, lm.data);
                            } else {
                                warp.write(lm.lane, dst, lm.data as u32);
                            }
                        }
                        warp.set_ready_at_mem(dst, done);
                        if pair {
                            warp.set_ready_at_mem(dst.pair_high(), done);
                        }
                    }
                    warp.pc += 1;
                }
                pool.put_lane_mem(lanes);
                pool.put_lines(lines);
            }
            if let Some(mut r) = ev.result.take() {
                let warp = &mut self.warps[ev.warp];
                for &(l, v) in &r.writes {
                    if r.write_width == 8 {
                        warp.write64(l, r.dst, v);
                    } else {
                        warp.write(l, r.dst, v as u32);
                    }
                }
                pool.put_pairs(std::mem::take(&mut r.writes));
                if let Some(t) = r.ready_at {
                    warp.set_ready_at(r.dst, t);
                    if r.pair {
                        warp.set_ready_at(r.dst.pair_high(), t);
                    }
                }
                if let Some(t) = r.verdict_at {
                    warp.set_verdict_at(r.dst, t);
                    if r.pair {
                        warp.set_verdict_at(r.dst.pair_high(), t);
                    }
                }
                if let Some(t) = r.ready_mem_at {
                    warp.set_ready_at_mem(r.dst, t);
                    if r.pair {
                        warp.set_ready_at_mem(r.dst.pair_high(), t);
                    }
                }
                if r.advance_pc {
                    warp.pc += 1;
                }
                if r.retire {
                    warp.stack.clear();
                    warp.retire_lanes(warp.mask);
                }
            }
        }
        self.release_barriers();
        if self.done_cycle.is_none() && !self.warps.is_empty() && self.all_done() {
            self.done_cycle = Some(now);
        }
    }

    /// [`Sm::ready_info`] through the warp's memo ([`Warp::ready`]).
    fn ready(&mut self, w: usize, verdict_overlap: u32) -> (u64, StallReason) {
        if let Some(r) = self.warps[w].ready {
            return r;
        }
        let r = self.ready_info(w, verdict_overlap);
        self.warps[w].ready = Some(r);
        r
    }

    /// Earliest cycle at which warp `w`'s next instruction can issue, and
    /// the constraint that binds (for stall attribution when it is in the
    /// future). Independent of the current cycle.
    fn ready_info(&self, w: usize, verdict_overlap: u32) -> (u64, StallReason) {
        let warp = &self.warps[w];
        let di = match self.stream.get(warp.pc) {
            Some(d) => d,
            // Fell off the program: issuable after the ramp, and the issue
            // retires it (see `issue_phase_a`).
            None => return (warp.start_cycle, StallReason::NoReadyWarp),
        };
        // The launch/dispatch ramp: not a pipeline hazard.
        let mut ready = warp.start_cycle;
        let mut reason = StallReason::NoReadyWarp;
        for &r in di.source_regs() {
            let t = warp.ready_at(r);
            if t > ready {
                ready = t;
                reason = if warp.mem_pending_at(r, t) {
                    StallReason::LsuBusy
                } else {
                    StallReason::Scoreboard
                };
            }
        }
        if di.opcode.is_mem() && di.opcode != Opcode::Ldc {
            // The LSU's EC consumes the final (possibly poisoned) extent, so
            // it must wait for the OCU verdict on the address registers.
            if let Some(mem) = &di.mem {
                let mut verdict = warp.verdict_at(mem.addr);
                if di.mem_addr_pair {
                    verdict = verdict.max(warp.verdict_at(mem.addr.pair_high()));
                }
                let v = verdict.saturating_sub(verdict_overlap as u64);
                if v > ready {
                    ready = v;
                    reason = StallReason::OcuVerdict;
                }
            }
        }
        if let Some(p) = &di.pred {
            let t = warp.pred_ready_at(p.reg);
            if t > ready {
                ready = t;
                reason = StallReason::Scoreboard;
            }
        }
        if di.opcode == Opcode::Isetp {
            // WAW on the destination predicate.
            let t = warp.pred_ready_at(lmi_isa::PredReg(di.dst.0 & 7));
            if t > ready {
                ready = t;
                reason = StallReason::Scoreboard;
            }
        }
        (ready, reason)
    }

    /// Issues warp `w`'s next instruction: local work executes now, shared
    /// work is recorded on the returned event.
    fn issue_phase_a(
        &mut self,
        stream: &DecodedStream,
        w: usize,
        now: u64,
        cfg: &GpuConfig,
        pool: &mut EventPool,
        l1: &mut Cache,
    ) -> IssueEvent {
        let warp = &mut self.warps[w];
        warp.ready = None;
        let mut ev = IssueEvent {
            warp: w,
            pc: warp.pc,
            opcode: None,
            activate: false,
            mem_space: None,
            base_tid: warp.base_tid,
            block: warp.block,
            start_cycle: warp.start_cycle,
            retired_local: false,
            shared: None,
            result: None,
            verdict: None,
            meta_done: 0,
            data_done: 0,
        };
        let di = match stream.get(warp.pc) {
            Some(d) => d,
            None => {
                warp.retire_lanes(warp.mask);
                ev.retired_local = self.warps[w].done;
                return ev;
            }
        };
        warp.last_issue = now;
        ev.opcode = Some(di.opcode);
        ev.activate = di.hints.activate;

        // Per-lane guard predicate. Unpredicated instructions (the common
        // case) take the warp mask verbatim — no per-lane work at all.
        let exec_mask: LaneMask = match di.pred {
            None => warp.mask,
            Some(p) => {
                let mut m: LaneMask = 0;
                let mut bits = warp.mask;
                while bits != 0 {
                    let l = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if warp.read_pred(l, p.reg) != p.negated {
                        m |= 1 << l;
                    }
                }
                m
            }
        };

        match di.opcode {
            Opcode::Exit => {
                let warp = &mut self.warps[w];
                if exec_mask == 0 {
                    warp.pc += 1;
                } else {
                    warp.retire_lanes(exec_mask);
                }
            }
            Opcode::Nop => self.warps[w].pc += 1,
            Opcode::Bar => {
                let warp = &mut self.warps[w];
                warp.at_barrier = true;
                warp.pc += 1;
            }
            Opcode::Bra => {
                let warp = &mut self.warps[w];
                let target = di.bra_target;
                let active = warp.mask;
                if exec_mask == 0 {
                    warp.pc += 1;
                } else if exec_mask == active {
                    warp.pc = target;
                } else {
                    // Divergence: suspend the fall-through lanes.
                    warp.stack.push((active & !exec_mask, warp.pc + 1));
                    warp.mask = exec_mask;
                    warp.pc = target;
                }
            }
            Opcode::S2r => {
                let warp = &mut self.warps[w];
                let special = di.special;
                let tpb = self.launch.threads_per_block as u64;
                let mut bits = exec_mask;
                while bits != 0 {
                    let l = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let gtid = warp.base_tid + l as u64;
                    let v = match special {
                        lmi_isa::op::SpecialReg::TidX => gtid % tpb,
                        lmi_isa::op::SpecialReg::CtaIdX => gtid / tpb,
                        lmi_isa::op::SpecialReg::NtidX => tpb,
                        lmi_isa::op::SpecialReg::LaneId => l as u64,
                        lmi_isa::op::SpecialReg::WarpId => warp.id as u64,
                    };
                    warp.write(l, di.dst, v as u32);
                }
                warp.set_ready_at(di.dst, now + 2);
                warp.pc += 1;
            }
            Opcode::Isetp => {
                let pred = lmi_isa::PredReg(di.dst.0 & 7);
                let a = self.fetch32(w, &di.srcs[0], exec_mask);
                let b = self.fetch32(w, &di.srcs[1], exec_mask);
                let warp = &mut self.warps[w];
                let mut bits = exec_mask;
                while bits != 0 {
                    let l = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let taken = di.cmp.eval(a[l] as i32 as i64, b[l] as i32 as i64);
                    warp.write_pred(l, pred, taken);
                }
                warp.set_pred_ready_at(pred, now + 2);
                warp.pc += 1;
            }
            Opcode::Malloc | Opcode::Free => {
                self.issue_heap_phase_a(w, di, exec_mask, &mut ev, pool);
            }
            op if op.class() == OpcodeClass::IntAlu => {
                self.issue_int_phase_a(w, di, exec_mask, now, cfg, &mut ev, pool);
            }
            op if op.class() == OpcodeClass::Fpu => {
                let a = self.fetch32(w, &di.srcs[0], exec_mask);
                let b = self.fetch32(w, &di.srcs[1], exec_mask);
                let c = self.fetch32(w, &di.srcs[2], exec_mask);
                let v: [u32; WARP_SIZE] =
                    std::array::from_fn(|l| exec::fpu(di.opcode, a[l], b[l], c[l]));
                self.warps[w].write_row(di.dst, &v, exec_mask);
                let lat =
                    if di.opcode == Opcode::Mufu { cfg.fpu_latency * 2 } else { cfg.fpu_latency };
                let warp = &mut self.warps[w];
                warp.set_ready_at(di.dst, now + lat as u64);
                warp.pc += 1;
            }
            op if op.is_mem() => {
                self.issue_mem_phase_a(w, di, exec_mask, now, cfg, &mut ev, pool, l1);
            }
            other => panic!("unhandled opcode {other}"),
        }
        ev.retired_local = self.warps[w].done;
        ev
    }

    /// Operand `src` of warp `w` for every lane, fetched once per warp: a
    /// register row, a broadcast immediate, or one constant-bank read per
    /// lane of `exec` (other lanes read zero; callers consume only
    /// `exec` lanes).
    fn fetch32(&self, w: usize, src: &Operand, exec: LaneMask) -> [u32; WARP_SIZE] {
        let warp = &self.warps[w];
        match src {
            Operand::None => [0; WARP_SIZE],
            Operand::Reg(r) => warp.row(*r),
            Operand::Imm(v) => [*v as u32; WARP_SIZE],
            Operand::Const { offset, .. } => {
                self.const_row(warp, exec, *offset, 4).map(|v| v as u32)
            }
        }
    }

    /// [`Sm::fetch32`] for 64-bit operands (immediates sign-extend).
    fn fetch64(&self, w: usize, src: &Operand, exec: LaneMask) -> [u64; WARP_SIZE] {
        let warp = &self.warps[w];
        match src {
            Operand::None => [0; WARP_SIZE],
            Operand::Reg(r) => warp.row64(*r),
            Operand::Imm(v) => [*v as i64 as u64; WARP_SIZE],
            Operand::Const { offset, .. } => self.const_row(warp, exec, *offset, 8),
        }
    }

    fn const_row(&self, warp: &Warp, exec: LaneMask, offset: u16, width: u8) -> [u64; WARP_SIZE] {
        let mut row = [0; WARP_SIZE];
        let mut bits = exec;
        while bits != 0 {
            let l = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            row[l] = self.launch.const_read(warp.block, warp.base_tid + l as u64, offset, width);
        }
        row
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_int_phase_a(
        &mut self,
        w: usize,
        di: &DecodedInstr,
        exec_mask: LaneMask,
        now: u64,
        cfg: &GpuConfig,
        ev: &mut IssueEvent,
        pool: &mut EventPool,
    ) {
        let wide = di.wide;
        if wide {
            let a = self.fetch64(w, &di.srcs[0], exec_mask);
            let b = self.fetch64(w, &di.srcs[1], exec_mask);
            let c = self.fetch64(w, &di.srcs[2], exec_mask);
            let v: [u64; WARP_SIZE] =
                std::array::from_fn(|l| exec::alu64(di.opcode, a[l], b[l], c[l]));
            if !di.hints.activate {
                self.warps[w].write_row64(di.dst, &v, exec_mask);
            } else if exec_mask != 0 {
                // The OCU check consults the mechanism — shared state — so
                // the whole writeback defers to phase B.
                let input = if di.hints.select == 0 { &a } else { &b };
                let mut checked = pool.take_triples();
                let mut bits = exec_mask;
                while bits != 0 {
                    let l = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    checked.push((l, input[l], v[l]));
                }
                ev.shared =
                    Some(SharedOp::MarkedInt { dst: di.dst, pair: di.dst_pair, lanes: checked });
                return;
            }
            // A marked op with no active lane: nothing to check, nothing
            // written — only the scoreboard update below.
        } else {
            let a = self.fetch32(w, &di.srcs[0], exec_mask);
            let b = self.fetch32(w, &di.srcs[1], exec_mask);
            let c = self.fetch32(w, &di.srcs[2], exec_mask);
            // 32-bit marked ops (hand-written programs) are not checked —
            // the compiler marks wide ops exclusively, so the OCU path
            // above is the one that matters.
            let v: [u32; WARP_SIZE] =
                std::array::from_fn(|l| exec::alu32(di.opcode, a[l], b[l], c[l]));
            self.warps[w].write_row(di.dst, &v, exec_mask);
        }
        let warp = &mut self.warps[w];
        let done_at = now + cfg.int_latency as u64;
        warp.set_ready_at(di.dst, done_at);
        warp.set_verdict_at(di.dst, done_at);
        if wide && di.dst_pair {
            warp.set_ready_at(di.dst.pair_high(), done_at);
            warp.set_verdict_at(di.dst.pair_high(), done_at);
        }
        warp.pc += 1;
    }

    fn issue_heap_phase_a(
        &mut self,
        w: usize,
        di: &DecodedInstr,
        exec_mask: LaneMask,
        ev: &mut IssueEvent,
        pool: &mut EventPool,
    ) {
        // Heap calls always defer (even with no active lane the serial path
        // still counted the call and advanced pc — phase B reproduces that).
        let malloc = di.opcode == Opcode::Malloc;
        let values = if malloc {
            self.fetch32(w, &di.srcs[0], exec_mask).map(u64::from)
        } else {
            self.fetch64(w, &di.srcs[0], exec_mask)
        };
        let mut lanes = pool.take_pairs();
        let mut bits = exec_mask;
        while bits != 0 {
            let l = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            lanes.push((l, values[l]));
        }
        ev.shared = Some(SharedOp::Heap { dst: di.dst, pair: di.dst_pair, malloc, lanes });
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_mem_phase_a(
        &mut self,
        w: usize,
        di: &DecodedInstr,
        exec_mask: LaneMask,
        now: u64,
        cfg: &GpuConfig,
        ev: &mut IssueEvent,
        pool: &mut EventPool,
        l1: &mut Cache,
    ) {
        let mem = di.mem.expect("memory instruction carries a MemRef");
        let space = di.mem_space.unwrap_or(MemSpace::Global);
        ev.mem_space = Some(space);

        // Constant loads resolve against the launch context — fully local.
        if di.opcode == Opcode::Ldc {
            let mut bits = exec_mask;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let warp = &self.warps[w];
                let v = self.launch.const_read(
                    warp.block,
                    warp.base_tid + l as u64,
                    mem.offset as u16,
                    mem.width,
                );
                let warp = &mut self.warps[w];
                if mem.width == 8 {
                    warp.write64(l, di.dst, v);
                } else {
                    warp.write(l, di.dst, v as u32);
                }
            }
            let warp = &mut self.warps[w];
            let done_at = now + cfg.const_latency as u64;
            warp.set_ready_at_mem(di.dst, done_at);
            if mem.width == 8 && di.dst_pair {
                warp.set_ready_at_mem(di.dst.pair_high(), done_at);
            }
            warp.pc += 1;
            return;
        }

        // Address generation and store-data collection are per-lane local
        // work; the mechanism check, timing and data movement defer.
        let is_store = di.is_store;
        let value_reg = match di.srcs[0] {
            Operand::Reg(r) => r,
            _ => Reg::RZ,
        };
        let stack_bytes = cfg.stack_bytes;
        let layout_tid_base = self.launch.layout_tid_base;
        let warp = &self.warps[w];
        // Layout tids (not semantic tids) back the local windows — resident
        // multi-kernel runs keep concurrent kernels' stacks disjoint.
        let warp_base = warp.base_tid + layout_tid_base;
        // Local memory is physically interleaved per lane (like real GPUs),
        // so a warp spilling the same stack offset coalesces to one
        // transaction; timing addresses reflect that layout.
        let timing_addr = |lane: usize, vaddr: u64| -> u64 {
            if space != MemSpace::Local {
                return vaddr;
            }
            let gtid = warp_base + lane as u64;
            let window = lmi_mem::layout::local_window_base(gtid, stack_bytes);
            let offset = vaddr.wrapping_sub(window);
            if offset >= stack_bytes {
                return vaddr; // escaped the window: keep the flat address
            }
            lmi_mem::layout::LOCAL_BASE + (warp_base * stack_bytes) + offset * 32 + lane as u64 * 4
        };
        let addrs = warp.row64(mem.addr);
        let data = match (is_store, mem.width) {
            (false, _) => [0; WARP_SIZE],
            (true, 8) => warp.row64(value_reg),
            (true, _) => warp.row(value_reg).map(u64::from),
        };
        let mut lanes = pool.take_lane_mem();
        let mut bits = exec_mask;
        while bits != 0 {
            let l = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let raw = addrs[l].wrapping_add(mem.offset as i64 as u64);
            let vaddr = raw & ADDR_MASK;
            let timing_addr = timing_addr(l, vaddr);
            lanes.push(LaneMem { lane: l, raw, vaddr, timing_addr, data: data[l] });
        }
        // Timing: probe this SM's own L1 on the coalesced lines right here
        // in phase A (SM-local state) and mark the misses for the memory
        // pass. Shared-space accesses use the fixed shared-memory path and
        // count as one transaction.
        let mut lines = pool.take_lines();
        let mut missed = 0u64;
        let mut l1_hit = false;
        if space != MemSpace::Shared {
            coalesce_into(
                lanes.iter().map(|m| m.timing_addr),
                cfg.hierarchy.l1.line_bytes,
                &mut lines,
            );
            for (i, &line) in lines.iter().enumerate() {
                if l1.access(line) {
                    l1_hit = true;
                } else {
                    missed |= 1 << i;
                }
            }
        }
        let line_count = if space == MemSpace::Shared { 1 } else { lines.len() as u64 };
        // One byte move per lane, two for a lane straddling a line boundary.
        let line_bytes = cfg.hierarchy.l2.line_bytes;
        let straddles = lanes
            .iter()
            .filter(|lm| lm.vaddr % line_bytes + u64::from(mem.width) > line_bytes)
            .count();
        let mem_items = missed.count_ones() + (lanes.len() + straddles) as u32;
        ev.shared = Some(SharedOp::Mem {
            dst: di.dst,
            pair: mem.width == 8 && di.dst_pair,
            width: mem.width,
            is_store,
            space,
            lanes,
            lines,
            missed,
            line_count,
            l1_hit,
            mem_items,
        });
    }

    fn release_barriers(&mut self) {
        if !self.warps.iter().any(|w| w.at_barrier) {
            return;
        }
        for b in &mut self.blocks {
            b.waiting = 0;
            b.done = 0;
        }
        for warp in &self.warps {
            if let Some(b) = self.blocks.iter_mut().find(|b| b.block == warp.block) {
                if warp.at_barrier {
                    b.waiting += 1;
                } else if warp.done {
                    b.done += 1;
                }
            }
        }
        for i in 0..self.blocks.len() {
            let b = &self.blocks[i];
            if b.waiting > 0 && b.waiting + b.done >= b.resident {
                let block = b.block;
                for warp in &mut self.warps {
                    if warp.block == block {
                        warp.at_barrier = false;
                    }
                }
            }
        }
    }
}
