//! The simulation engine: the deterministic three-phase cycle driver.
//!
//! Each simulated cycle runs the phase protocol described in [`crate::sm`]
//! as a fixed sequence of passes over plain `&mut` state:
//!
//! * **Phase A** — every SM in ascending order: schedule, execute ALU
//!   work, probe the SM-local L1, and record its shared-state work as
//!   [`IssueEvent`]s.
//! * **Phase B-check** — one walk over every SM's events in ascending
//!   (SM, issue) order: statistics, counters, mechanism checks (each
//!   memory op gets a [`MemVerdict`]), heap calls, violations and
//!   forensics. Mechanism metadata fetches are queued. Its work count is
//!   [`SimStats::phase_b_serial_items`].
//! * **Metadata pass** — the queued metadata fetches go through the
//!   shared L2/MSHR/DRAM in queue order; each op keeps its slowest.
//! * **Memory pass** — every live memory op, in (SM, issue) order, fills
//!   its L1-missed lines through the same shared path (timing, gated on
//!   its metadata) and moves each surviving lane's bytes through the
//!   functional store. Fills, byte moves and metadata fetches together
//!   are [`SimStats::phase_b_banked_items`].
//! * **Phase B-final** (only when tracing) — memory-transaction spans
//!   from the completion times the two passes produced.
//! * **Phase C** — every SM applies the results to its warps.
//!
//! The order is the semantics: it fixes the cache hit/miss sequence, heap
//! allocation order, counters, trace contents and forensics, so simulated
//! outputs are a pure function of the inputs.
//!
//! **Sleeping SMs.** Only an SM's own issues and their phase-C results
//! change its warps. So once its phase A issues nothing and reports
//! `next_ready = R`, every phase A before `R` would repeat that cycle: no
//! issue, the same stall counts, the same `R`. The SM sleeps until `R`:
//! phase A and phase C skip it, and the B-check charges the stall counts
//! its last phase A left in its (otherwise empty) cycle events. Profiler
//! sample cycles run every SM's phase A. A finished SM sleeps for good.
//!
//! **Hot counters.** While the registry records, the per-SM `issued`,
//! `mem_insts`, `transactions`, `heap_calls` and `stall.*` counters and the
//! per-warp `issued` counters accumulate in flat arrays and are flushed
//! into the registry once per run. A key is created exactly when the
//! per-event updates would have created it (a zero-line op still creates
//! its SM's `transactions` key).

use lmi_alloc::{AllocError, DeviceHeap};
use lmi_core::error::TemporalKind;
use lmi_core::Violation;
use lmi_isa::{OpcodeClass, Reg};
use lmi_mem::{Cache, MemorySystem, SparseMemory};
use lmi_telemetry::{FaultEvent, PoisonEvent, Scope, TelemetrySink, TraceEventKind};

use crate::config::GpuConfig;
use crate::mechanism::{Mechanism, MemAccessCtx};
use crate::sm::{CycleEvents, EventPool, IssueEvent, MemVerdict, SharedOp, Sm};
use crate::stats::{SimStats, ViolationEvent};

/// Per-kernel shared state: each kernel resident on the GPU owns its own
/// mechanism instance, statistics, and device heap. A classic single-kernel
/// run is the one-slot case.
pub(crate) struct KernelSlot<'a> {
    pub mechanism: &'a mut dyn Mechanism,
    pub stats: &'a mut SimStats,
    pub heap: &'a DeviceHeap,
}

/// The shared-state half of the machine, borrowed once per run.
/// Kernel-owned state lives in [`KernelSlot`]s, routed by `kernel_of_sm`
/// so concurrent kernels on disjoint SM partitions keep their mechanisms,
/// heaps and stats separate while *sharing* the L2/DRAM — contention
/// between tenants is modeled, isolation of metadata is not compromised.
pub(crate) struct SharedCtx<'a> {
    pub hierarchy: &'a mut MemorySystem,
    pub memory: &'a mut SparseMemory,
    pub kernels: Vec<KernelSlot<'a>>,
    /// SM index → index into `kernels`.
    pub kernel_of_sm: Vec<usize>,
    pub cfg: &'a GpuConfig,
    pub sink: &'a mut TelemetrySink,
}

/// Everything phase B-check touches.
struct CheckCtx<'l, 'a> {
    kernels: &'l mut Vec<KernelSlot<'a>>,
    kernel_of_sm: &'l [usize],
    cfg: &'l GpuConfig,
    sink: &'l mut TelemetrySink,
    /// Hot counters per slot; empty while the registry is disabled.
    hot: Vec<HotCounters>,
    /// Per-warp `issued` counters, slot after slot (see
    /// [`HotCounters::first_warp`]).
    warp_issued: Vec<u64>,
    /// Reused per-op metadata-address scratch (sorted + deduped).
    meta_scratch: Vec<u64>,
    /// This cycle's metadata fetches, in canonical (slot, op, address)
    /// order. Capacity survives the per-cycle drain.
    meta_q: Vec<MetaReq>,
}

impl<'l, 'a> CheckCtx<'l, 'a> {
    /// The kernel slot owning SM `sm_id`. Borrow is statement-scoped, so
    /// callers interleave slot access with `sink` access freely.
    fn kernel(&mut self, sm_id: usize) -> &mut KernelSlot<'a> {
        &mut self.kernels[self.kernel_of_sm[sm_id]]
    }
}

/// One SM's share of the engine's hot counters, flushed into the registry
/// by [`HotCounters::flush`].
struct HotCounters {
    issued: u64,
    mem_insts: u64,
    heap_calls: u64,
    /// `None` until a memory op charges transactions (possibly zero).
    transactions: Option<u64>,
    stalls: [u64; 4],
    /// Index of the SM's warp 0 in [`CheckCtx::warp_issued`].
    first_warp: usize,
}

/// Counter names of [`CycleEvents::stalls`], by [`crate::sm::StallReason::index`].
const STALL_NAMES: [&str; 4] =
    ["stall.scoreboard", "stall.lsu_busy", "stall.ocu_verdict", "stall.no_ready_warp"];

impl HotCounters {
    fn new(first_warp: usize) -> HotCounters {
        HotCounters {
            issued: 0,
            mem_insts: 0,
            heap_calls: 0,
            transactions: None,
            stalls: [0; 4],
            first_warp,
        }
    }

    /// Adds every counter the run touched to the registry; `warp_issued`
    /// is this SM's slice of the per-warp counters.
    fn flush(&self, sm: usize, warp_issued: &[u64], sink: &mut TelemetrySink) {
        let counts = [
            ("issued", self.issued),
            ("mem_insts", self.mem_insts),
            ("heap_calls", self.heap_calls),
        ]
        .into_iter()
        .chain(STALL_NAMES.into_iter().zip(self.stalls));
        for (name, count) in counts {
            if count > 0 {
                sink.counters.add(Scope::Sm(sm), name, count);
            }
        }
        if let Some(t) = self.transactions {
            sink.counters.add(Scope::Sm(sm), "transactions", t);
        }
        for (warp, &count) in warp_issued.iter().enumerate() {
            if count > 0 {
                sink.counters.add(Scope::Warp { sm, warp }, "issued", count);
            }
        }
    }
}

/// One metadata fetch queued by the B-check (slot = index into the
/// engine's slot list, op = index into that SM's issue list).
struct MetaReq {
    slot: u32,
    op: u32,
    addr: u64,
}

/// One SM with its own L1 (SM-local phase-A state), its cycle events and
/// its sleep state.
struct SmSlot<'l> {
    sm: Sm,
    l1: &'l mut Cache,
    events: CycleEvents,
    /// First cycle at which phase A must run again; phase A and phase C
    /// skip the SM before it (see the module docs).
    wake_at: u64,
    /// `next_ready` of the SM's last phase A.
    next_ready: u64,
    /// `all_done` as of the SM's last phase C.
    done: bool,
    /// Whether phase A ran this cycle (phase C runs exactly when it did).
    awake: bool,
}

/// Runs the machine to completion and returns the final cycle number.
/// `l1s[i]` is SM `sms[i]`'s L1 cache (owned by the GPU so warmth and
/// statistics persist across launches).
pub(crate) fn run(sms: &mut Vec<Sm>, l1s: Vec<&mut Cache>, shared: &mut SharedCtx<'_>) -> u64 {
    assert_eq!(l1s.len(), sms.len(), "one L1 per SM");
    let SharedCtx { hierarchy, memory, kernels, kernel_of_sm, cfg, sink } = shared;
    let cfg = **cfg;
    let tracer_on = sink.tracer.is_enabled();
    let mut hot = Vec::new();
    let mut warps = 0;
    if sink.counters.is_enabled() {
        for sm in sms.iter() {
            hot.push(HotCounters::new(warps));
            warps += sm.warps.len();
        }
    }
    let mut ctx = CheckCtx {
        kernels,
        kernel_of_sm,
        cfg: &cfg,
        sink,
        hot,
        warp_issued: vec![0; warps],
        meta_scratch: Vec::new(),
        meta_q: Vec::new(),
    };
    let mut slots: Vec<SmSlot> = sms
        .drain(..)
        .zip(l1s)
        .map(|(sm, l1)| SmSlot {
            sm,
            l1,
            events: CycleEvents::default(),
            wake_at: 0,
            next_ready: u64::MAX,
            done: false,
            awake: false,
        })
        .collect();
    let mut now = 0u64;
    loop {
        // Phase A.
        let sample_cycle = cfg.sample_period > 0 && now.is_multiple_of(cfg.sample_period);
        let mut issued_any = false;
        let mut next_ready = u64::MAX;
        for slot in &mut slots {
            slot.awake = now >= slot.wake_at || sample_cycle;
            if slot.awake {
                let outcome = slot.sm.step_phase_a(now, &cfg, &mut slot.events, slot.l1);
                issued_any |= outcome.issued_any;
                slot.next_ready = outcome.next_ready;
                slot.wake_at = if outcome.issued_any { now + 1 } else { outcome.next_ready };
            }
            next_ready = next_ready.min(slot.next_ready);
        }
        // Phase B-check, then the metadata and memory passes. A sleeping
        // SM's events hold no issue, only its last phase A's stall counts.
        for (slot_idx, SmSlot { sm, events, .. }) in slots.iter_mut().enumerate() {
            apply_cycle(sm.id, slot_idx, events, now, &mut ctx);
        }
        for req in ctx.meta_q.drain(..) {
            let done = hierarchy.access(req.addr, now);
            let ev = &mut slots[req.slot as usize].events.issues[req.op as usize];
            ev.meta_done = ev.meta_done.max(done);
        }
        for slot in &mut slots {
            memory_pass(&mut slot.events, hierarchy, memory, now);
        }
        if tracer_on {
            b_final(&slots, &mut ctx, now);
        }
        // Phase C.
        let mut all_done = true;
        for slot in slots.iter_mut() {
            if slot.awake {
                slot.sm.apply_results(&mut slot.events, now, &cfg);
                slot.done = slot.sm.all_done();
            }
            all_done &= slot.done;
        }
        if all_done {
            break;
        }
        now = if issued_any || next_ready == u64::MAX {
            now + 1
        } else {
            // Fast-forward over scoreboard stalls.
            next_ready.max(now + 1)
        };
        debug_assert!(now < 1_000_000_000, "runaway simulation");
    }
    for (slot, hot) in slots.iter().zip(&ctx.hot) {
        let warps = &ctx.warp_issued[hot.first_warp..][..slot.sm.warps.len()];
        hot.flush(slot.sm.id, warps, ctx.sink);
    }
    sms.extend(slots.into_iter().map(|s| s.sm));
    now
}

// ---------------------------------------------------------------------------
// Phase B-check: canonical application of one SM's cycle events.

/// Applies everything SM `sm_id` (slot `slot_idx`) deferred this cycle, in
/// issue order.
fn apply_cycle(
    sm_id: usize,
    slot_idx: usize,
    events: &mut CycleEvents,
    now: u64,
    ctx: &mut CheckCtx<'_, '_>,
) {
    if events.stalls != [0; 4] {
        let s = &events.stalls;
        let stats = &mut *ctx.kernel(sm_id).stats;
        stats.stalls.scoreboard += s[0];
        stats.stalls.lsu_busy += s[1];
        stats.stalls.ocu_verdict += s[2];
        stats.stalls.no_ready_warp += s[3];
        if let Some(hot) = ctx.hot.get_mut(slot_idx) {
            for (total, count) in hot.stalls.iter_mut().zip(s) {
                *total += count;
            }
        }
    }
    if let Some(sample) = events.sample.take() {
        // Absorb the phase-A profiler sample into the owning kernel's
        // profile, in ascending SM order.
        let period = ctx.cfg.sample_period;
        let profile = &mut ctx.kernel(sm_id).stats.profile;
        profile.period = period;
        profile.absorb(sm_id, &sample);
    }
    let CycleEvents { issues, pool, .. } = events;
    for (op_idx, ev) in issues.iter_mut().enumerate() {
        apply_event(sm_id, slot_idx, op_idx as u32, ev, pool, now, ctx);
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_event(
    sm_id: usize,
    slot_idx: usize,
    op_idx: u32,
    ev: &mut IssueEvent,
    pool: &mut EventPool,
    now: u64,
    ctx: &mut CheckCtx<'_, '_>,
) {
    // Every event costs the B-check one walk step — the serial half of
    // the `phase_b_serial_fraction` stat.
    ctx.kernel(sm_id).stats.phase_b_serial_items += 1;
    if let Some(op) = ev.opcode {
        let stats = &mut *ctx.kernel(sm_id).stats;
        stats.issued += 1;
        match op.class() {
            OpcodeClass::IntAlu => stats.int_issued += 1,
            OpcodeClass::Fpu => stats.fpu_issued += 1,
            _ => {}
        }
        if ev.activate {
            stats.marked_issued += 1;
        }
    }
    if let Some(space) = ev.mem_space {
        ctx.kernel(sm_id).stats.record_mem(space);
        if let Some(hot) = ctx.hot.get_mut(slot_idx) {
            hot.mem_insts += 1;
        }
    }
    let mnemonic = ev.opcode.map(|op| op.mnemonic()).unwrap_or("");
    ev.result = match ev.shared.take() {
        Some(SharedOp::MarkedInt { dst, pair, lanes }) => {
            let r = apply_marked_int(sm_id, ev, mnemonic, dst, pair, &lanes, pool, now, ctx);
            pool.put_triples(lanes);
            Some(r)
        }
        Some(SharedOp::Heap { dst, pair, malloc, lanes }) => {
            let r = apply_heap(sm_id, ev, mnemonic, dst, pair, malloc, &lanes, pool, now, ctx);
            pool.put_pairs(lanes);
            if let Some(hot) = ctx.hot.get_mut(slot_idx) {
                hot.heap_calls += 1;
            }
            Some(r)
        }
        Some(op @ SharedOp::Mem { .. }) => {
            // The mechanism check runs here; the memory pass's timing and
            // data movement are gated on this verdict. The op itself rides
            // to phase C.
            let verdict = check_mem(sm_id, slot_idx, op_idx, ev, &op, ctx, now);
            ev.verdict = Some(verdict);
            ev.shared = Some(op);
            None
        }
        None => None,
    };
    if let Some(hot) = ctx.hot.get_mut(slot_idx) {
        hot.issued += 1;
        ctx.warp_issued[hot.first_warp + ev.warp] += 1;
    }
    let retiring = ev.retired_local
        || ev.result.as_ref().is_some_and(|r| r.retire)
        || ev.verdict.is_some_and(|v| v.cancelled);
    if retiring && ctx.sink.tracer.is_enabled() {
        // The warp retires this cycle: emit its residency span.
        ctx.sink.tracer.complete_with(
            "warp",
            TraceEventKind::WarpSpan,
            sm_id,
            ev.warp,
            ev.start_cycle,
            (now + 1).saturating_sub(ev.start_cycle),
            &[("block", ev.block as u64)],
        );
    }
}

/// OCU check of a hint-marked wide integer op (LMI's bounds pipeline).
#[allow(clippy::too_many_arguments)]
fn apply_marked_int(
    sm_id: usize,
    ev: &IssueEvent,
    mnemonic: &'static str,
    dst: Reg,
    pair: bool,
    lanes: &[(usize, u64, u64)],
    pool: &mut EventPool,
    now: u64,
    ctx: &mut CheckCtx<'_, '_>,
) -> crate::sm::OpResult {
    let mech_name = ctx.kernel(sm_id).mechanism.name();
    let issue_index = ctx.kernel(sm_id).stats.issued;
    let mut extra_delay = 0u32;
    let mut writes = pool.take_pairs();
    for &(l, input, raw) in lanes {
        let mech = &mut ctx.kernel(sm_id).mechanism;
        let check = mech.on_marked_int(input, raw);
        extra_delay = extra_delay.max(mech.marked_int_delay());
        writes.push((l, check.value));
        if check.poisoned {
            // Delayed termination (§XII-A): remember where the pointer died
            // so a later EC fault can report it.
            ctx.sink.forensics.record_poison(PoisonEvent {
                sm: sm_id,
                warp: ev.warp,
                lane: l,
                pc: ev.pc,
                op: mnemonic,
                cycle: now,
                instr_index: issue_index,
            });
            ctx.sink.counters.inc(Scope::Mechanism(mech_name), "poisoned");
            if ctx.sink.tracer.is_enabled() {
                ctx.sink.tracer.instant(
                    "poison",
                    TraceEventKind::OcuPoison,
                    sm_id,
                    ev.warp,
                    now,
                    &[("pc", ev.pc as u64), ("lane", l as u64)],
                );
            }
        }
    }
    ctx.sink.counters.inc(Scope::Mechanism(mech_name), "checks");
    if ctx.sink.tracer.is_enabled() {
        ctx.sink.tracer.complete_with(
            mnemonic,
            TraceEventKind::OcuCheck,
            sm_id,
            ev.warp,
            now,
            extra_delay as u64,
            &[("pc", ev.pc as u64)],
        );
    }
    let done_at = now + ctx.cfg.int_latency as u64;
    crate::sm::OpResult {
        dst,
        pair,
        write_width: 8,
        writes,
        ready_at: Some(done_at),
        verdict_at: Some(done_at + extra_delay as u64),
        ready_mem_at: None,
        advance_pc: true,
        retire: false,
    }
}

/// Device-heap `malloc`/`free`, serialized through the shared allocator.
#[allow(clippy::too_many_arguments)]
fn apply_heap(
    sm_id: usize,
    ev: &IssueEvent,
    mnemonic: &'static str,
    dst: Reg,
    pair: bool,
    malloc: bool,
    lanes: &[(usize, u64)],
    pool: &mut EventPool,
    now: u64,
    ctx: &mut CheckCtx<'_, '_>,
) -> crate::sm::OpResult {
    let mut writes = pool.take_pairs();
    let mut violation = None;
    let issue_index = ctx.kernel(sm_id).stats.issued;
    for &(l, value) in lanes {
        let gtid = ev.base_tid + l as u64;
        let slot = ctx.kernel(sm_id);
        if malloc {
            let ptr = slot.heap.malloc(gtid as usize, value).unwrap_or(0);
            writes.push((l, ptr));
            slot.stats.mallocs += 1;
        } else {
            slot.stats.frees += 1;
            match slot.heap.free(value) {
                Err(e) => {
                    let kind = match e {
                        AllocError::DoubleFree(_) => TemporalKind::DoubleFree,
                        _ => TemporalKind::InvalidFree,
                    };
                    violation = Some((l, Violation::Temporal(kind)));
                }
                // Extent nullification (§VIII): under LMI the pass clears
                // the freed pointer's extent right after this call, so the
                // pointer is poisoned *here*. Remember the site so a later
                // use-after-free fault reports its poison-to-fault latency.
                Ok(()) if slot.mechanism.nullifies_on_free() => {
                    ctx.sink.forensics.record_poison(PoisonEvent {
                        sm: sm_id,
                        warp: ev.warp,
                        lane: l,
                        pc: ev.pc,
                        op: mnemonic,
                        cycle: now,
                        instr_index: issue_index,
                    });
                }
                Ok(()) => {}
            }
        }
    }
    let ready_mem_at = if malloc { Some(now + ctx.cfg.heap_call_latency as u64) } else { None };
    if ctx.sink.tracer.is_enabled() {
        ctx.sink.tracer.complete_with(
            mnemonic,
            TraceEventKind::HeapCall,
            sm_id,
            ev.warp,
            now,
            ctx.cfg.heap_call_latency as u64,
            &[("pc", ev.pc as u64)],
        );
    }
    let mut retire = false;
    if let Some((lane, v)) = violation {
        ctx.kernel(sm_id).stats.violations.push(ViolationEvent {
            sm: sm_id,
            warp: ev.warp,
            pc: ev.pc,
            global_tid: ev.base_tid + lane as u64,
            violation: v,
        });
        retire = ctx.cfg.halt_on_violation;
    }
    crate::sm::OpResult {
        dst,
        pair,
        write_width: 8,
        writes,
        ready_at: None,
        verdict_at: None,
        ready_mem_at,
        advance_pc: true,
        retire,
    }
}

/// The mechanism check of a deferred memory access. Produces the verdict
/// the memory pass and phase C consume, charges the transaction
/// statistics, and queues the mechanism's metadata fetches.
#[allow(clippy::too_many_arguments)]
fn check_mem(
    sm_id: usize,
    slot_idx: usize,
    op_idx: u32,
    ev: &IssueEvent,
    op: &SharedOp,
    ctx: &mut CheckCtx<'_, '_>,
    now: u64,
) -> MemVerdict {
    let SharedOp::Mem { width, is_store, space, lanes, line_count, mem_items, .. } = op else {
        unreachable!("check_mem is only called for SharedOp::Mem");
    };
    let pc = ev.pc;
    // `stats.issued` was already bumped for this instruction, so it is a
    // unique id shared by every lane of this warp-level issue.
    let issue_index = ctx.kernel(sm_id).stats.issued;
    let mech_name = ctx.kernel(sm_id).mechanism.name();
    let mut survivors: crate::warp::LaneMask = 0;
    let mut faulted = false;
    let mut extra_cycles = 0u32;
    ctx.meta_scratch.clear();
    for lm in lanes {
        let access = MemAccessCtx {
            space: *space,
            raw: lm.raw,
            vaddr: lm.vaddr,
            width: *width,
            is_store: *is_store,
            global_tid: ev.base_tid + lm.lane as u64,
            pc,
            lane: lm.lane,
            issue_index,
        };
        let check = ctx.kernel(sm_id).mechanism.on_mem_access(&access);
        extra_cycles = extra_cycles.max(check.extra_cycles);
        if let Some(addr) = check.metadata_addr {
            ctx.meta_scratch.push(addr);
        }
        match check.violation {
            Some(v) => {
                faulted = true;
                ctx.kernel(sm_id).stats.violations.push(ViolationEvent {
                    sm: sm_id,
                    warp: ev.warp,
                    pc,
                    global_tid: access.global_tid,
                    violation: v,
                });
                ctx.sink.counters.inc(Scope::Mechanism(mech_name), "faults");
                if ctx.sink.tracer.is_enabled() {
                    ctx.sink.tracer.instant(
                        "fault",
                        TraceEventKind::EcFault,
                        sm_id,
                        ev.warp,
                        now,
                        &[("pc", pc as u64), ("lane", lm.lane as u64)],
                    );
                }
                // Close the poison→fault provenance loop (§XII-A): if this
                // lane's pointer was poisoned earlier, report the latency
                // between poisoning and detection.
                if let Some(record) = ctx.sink.forensics.record_fault(FaultEvent {
                    sm: sm_id,
                    warp: ev.warp,
                    lane: lm.lane,
                    pc,
                    cycle: now,
                    instr_index: issue_index,
                }) {
                    ctx.kernel(sm_id).stats.forensics.push(record);
                }
            }
            None => survivors |= 1 << lm.lane,
        }
    }

    if faulted && ctx.cfg.halt_on_violation {
        // The faulting access never issues: no timing, no data movement,
        // no pc advance — the warp halts. The memory pass skips the op.
        return MemVerdict { survivors, cancelled: true, extra_cycles };
    }

    ctx.kernel(sm_id).stats.transactions += line_count;
    if let Some(hot) = ctx.hot.get_mut(slot_idx) {
        *hot.transactions.get_or_insert(0) += line_count;
    }

    // Queue the mechanism's metadata fetches (bounds must be known before
    // the access may issue — check-before-access; the memory pass starts
    // the data fills once the metadata arrived).
    ctx.meta_scratch.sort_unstable();
    ctx.meta_scratch.dedup();
    let metas = ctx.meta_scratch.len() as u64;
    let CheckCtx { meta_scratch, meta_q, .. } = &mut *ctx;
    meta_q.extend(meta_scratch.iter().map(|&addr| MetaReq {
        slot: slot_idx as u32,
        op: op_idx,
        addr,
    }));
    ctx.kernel(sm_id).stats.phase_b_banked_items += *mem_items as u64 + metas;
    MemVerdict { survivors, cancelled: false, extra_cycles }
}

// ---------------------------------------------------------------------------
// Memory pass and phase B-final.

/// Memory pass of one SM: each live memory op, in issue order, fills its
/// L1-missed lines through the shared L2/MSHR/DRAM (starting once its
/// metadata arrived) and moves every surviving lane's bytes through the
/// functional store. A cancelled (halting) op does neither.
fn memory_pass(
    events: &mut CycleEvents,
    hierarchy: &mut MemorySystem,
    store: &mut SparseMemory,
    now: u64,
) {
    for ev in &mut events.issues {
        let Some(SharedOp::Mem { width, is_store, lanes, lines, missed, .. }) = &mut ev.shared
        else {
            continue;
        };
        let v = ev.verdict.expect("mem op verdict set in B-check");
        if v.cancelled {
            continue;
        }
        let start = now.max(ev.meta_done);
        for (i, &line) in lines.iter().enumerate() {
            if *missed & (1 << i) != 0 {
                ev.data_done = ev.data_done.max(hierarchy.access(line, start));
            }
        }
        for lm in lanes.iter_mut().filter(|lm| v.survivors & (1 << lm.lane) != 0) {
            if *is_store {
                store.write(lm.vaddr, lm.data, *width);
            } else {
                lm.data = store.read(lm.vaddr, *width);
            }
        }
    }
}

/// Phase B-final (tracer runs only): emit one memory-transaction span per
/// live memory op, from the completion times the memory passes produced.
fn b_final(slots: &[SmSlot<'_>], ctx: &mut CheckCtx<'_, '_>, now: u64) {
    for s in slots {
        for ev in &s.events.issues {
            let Some(SharedOp::Mem { line_count, .. }) = &ev.shared else {
                continue;
            };
            let Some(v) = ev.verdict else { continue };
            if v.cancelled || v.survivors == 0 {
                continue;
            }
            let done = ev.mem_done_at(now, ctx.cfg).expect("live mem op completes");
            let mnemonic = ev.opcode.map(|op| op.mnemonic()).unwrap_or("");
            ctx.sink.tracer.complete_with(
                mnemonic,
                TraceEventKind::MemTransaction,
                s.sm.id,
                ev.warp,
                now,
                done.saturating_sub(now).max(1),
                &[
                    ("pc", ev.pc as u64),
                    ("lines", *line_count),
                    ("lanes", v.survivors.count_ones() as u64),
                ],
            );
        }
    }
}
