//! A cycle-driven out-of-order core: ROB + RAT renaming + unified
//! reservation stations + a load/store queue with store-to-load
//! forwarding.
//!
//! The legacy core in `hermes-cpu` is dependency-scheduled: completion
//! times propagate eagerly through the dataflow graph with no per-cycle
//! issue limit, which reproduces retirement-blocking behaviour but cannot
//! model the structural effects the paper's deep-ROB argument rests on —
//! a bounded scheduler window, issue bandwidth, and memory disambiguation
//! in the LSQ. [`OooCore`] models those directly:
//!
//! * **Dispatch** renames through a register alias table (RAT): each
//!   source operand maps to either a ready value (with its ready cycle)
//!   or the in-flight producer's sequence number. Dispatch stops when the
//!   ROB, the RS pool, or the relevant LSQ partition is full (counted in
//!   `rs_full_stalls` / `lsq_full_stalls` per blocked cycle).
//! * **Wakeup/select**: an instruction whose last operand resolves enters
//!   the ready queue at the cycle its operands forward; select starts up
//!   to `issue_width` ready instructions per cycle, oldest-ready first,
//!   freeing their RS entries.
//! * **LSQ**: loads and stores occupy a program-ordered queue. A load
//!   whose address generation completes first checks older stores: any
//!   older store with an unknown address parks the load (conservative
//!   disambiguation); a matching older store with a known address
//!   forwards in one cycle (`forwarded_loads`) without touching the
//!   memory system; otherwise the load issues to the hierarchy — which is
//!   where POPET predicts and Hermes may fire its speculative read.
//!   Stores write to the memory system at retirement, in order, exactly
//!   like the legacy core. Stores are numbered in dispatch order, so a
//!   load finds its older stores by position, learns whether any of
//!   them is unknown from the oldest unknown store alone, and a store's
//!   agen releases, oldest first, only the parked loads older than the
//!   next unknown store.
//! * **Branches** resolve at execute; a misprediction injects a fetch
//!   bubble until `resolve + branch_penalty` and counts a flush (no
//!   wrong-path execution is modelled, matching the legacy core).
//!
//! Fast-forward contract: [`OooCore::next_work_at`] returns the earliest
//! of the next scheduled event (agen/execute completion), the earliest
//! ready-queue entry, the ROB head's completion, and — unless dispatch
//! is structurally blocked — the end of the fetch bubble. Dispatch is
//! blocked when the ROB is full, or when the last fetch stage, past any
//! misprediction bubble, stopped on a full RS or on the skid
//! instruction's full LQ/SQ partition: only select, retire or an event
//! can lift that, and the other terms cover all three. Before that
//! cycle a tick changes nothing but counters, and
//! [`OooCore::skip_stalled`] adds exactly those counters per skipped
//! cycle (`rob_occupancy_sum`, the head-stall class, and
//! `rs_full_stalls` or `lsq_full_stalls` while dispatch is blocked), so
//! results are bit-identical with fast-forward on or off.
//!
//! [`AnyCore`] is the config-driven dispatcher `hermes-sim` instantiates:
//! `CoreModel::Legacy` (the default) wraps the unchanged legacy core, so
//! every historical configuration stays byte-identical.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use hermes_cpu::config::{CoreConfig, CoreModel, OooConfig};
use hermes_cpu::port::{LoadIssue, MemoryPort, ServedBy, StoreIssue};
use hermes_cpu::stats::CoreStats;
use hermes_cpu::Core;
use hermes_cpu::PerceptronBp;
use hermes_trace::{Instr, MemKind, TraceSource};
use hermes_types::{CoreId, Cycle, VirtAddr};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SrcDep {
    Ready(Cycle),
    On(u64),
}

/// Register-alias-table entry: the architectural register is either ready
/// (value forwarded at the given cycle) or renamed to an in-flight
/// producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RatEntry {
    ReadyAt(Cycle),
    PendingOn(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryKind {
    Alu,
    Load,
    Store,
    Branch,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    /// In a reservation station, waiting for operands.
    InRs,
    /// Operands known; in the ready queue awaiting select (still holds
    /// its RS entry).
    ReadyQ,
    /// Selected; address generation in flight (loads/stores).
    Agen,
    /// Load parked on an older store with an unknown address.
    StoreWait,
    /// Load in the memory system.
    Mem,
    /// Selected; execution in flight (ALU/branch).
    Exec,
    /// Complete at `done_at`.
    Done,
}

#[derive(Debug)]
struct Entry {
    seq: u64,
    kind: EntryKind,
    state: St,
    dispatch_at: Cycle,
    done_at: Cycle,
    deps: [Option<SrcDep>; 2],
    dst: Option<u8>,
    exec_latency: u8,
    pc: u64,
    vaddr: VirtAddr,
    mispredicted: bool,
    served: Option<ServedBy>,
    issued_mem: bool,
    blocked_cycles: u64,
    /// Stores dispatched before this instruction: a store's own SQ
    /// ordinal, and for a load the bound below which every store is
    /// older than it.
    stores_before: u64,
}

/// One program-ordered store-queue slot. `word` is the 8-byte-word
/// address used for forwarding matches; `addr_known` flips when address
/// generation completes.
#[derive(Debug, Clone, Copy)]
struct SqSlot {
    addr_known: bool,
    word: u64,
}

/// A structural stall the fetch stage hit after the misprediction
/// bubble: it recurs every tick, with the same counter, until select,
/// retire or an event frees the resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchStall {
    /// The RS pool is full (`rs_full_stalls`).
    Rs,
    /// The skid instruction's LQ/SQ partition is full
    /// (`lsq_full_stalls`).
    Lsq,
}

/// The cycle-driven out-of-order core.
pub struct OooCore {
    id: CoreId,
    cfg: CoreConfig,
    ooo: OooConfig,
    trace: Box<dyn TraceSource>,
    rob: VecDeque<Entry>,
    next_seq: u64,
    rat: Vec<RatEntry>,
    /// Dependent seqs waiting on producer `p`, at `waiters[p % rob_size]`.
    /// In-flight seqs are `rob_size` consecutive numbers at most, so no
    /// two live producers share a slot; a producer's list is emptied at
    /// its completion, before its slot can be reused.
    waiters: Vec<Vec<u64>>,
    /// Instructions with all operands known, keyed by the cycle their
    /// operands forward; select pops `issue_width` per cycle.
    ready: BinaryHeap<Reverse<(Cycle, u64)>>,
    /// Scheduled pipeline events (agen/execute completions), keyed by
    /// cycle; the entry's state disambiguates the kind.
    events: BinaryHeap<Reverse<(Cycle, u64)>>,
    rs_used: usize,
    lq_used: usize,
    /// In-flight stores in program order. Stores are numbered by
    /// dispatch order (their SQ ordinal); the queue holds ordinals
    /// `stores_dispatched - sq.len()..stores_dispatched`.
    sq: VecDeque<SqSlot>,
    stores_dispatched: u64,
    /// SQ ordinal of the oldest store whose address is still unknown
    /// (`stores_dispatched` when every address is known).
    unknown_store: u64,
    /// Loads parked on an older unknown store address, by sequence
    /// number (program order).
    parked: BTreeSet<u64>,
    /// Skid buffer: an instruction pulled from the trace that could not
    /// enter its queue this cycle (nothing is dropped).
    pending: Option<Instr>,
    fetch_stall_until: Cycle,
    /// What stopped the last fetch stage, if it was a structural stall.
    dispatch_stall: Option<DispatchStall>,
    bp: PerceptronBp,
    stats: CoreStats,
}

impl std::fmt::Debug for OooCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OooCore")
            .field("id", &self.id)
            .field("rob_occupancy", &self.rob.len())
            .field("rs_used", &self.rs_used)
            .field("retired", &self.stats.retired)
            .finish()
    }
}

impl OooCore {
    /// Builds a core running `trace` with the given scheduler geometry.
    pub fn new(id: CoreId, cfg: CoreConfig, ooo: OooConfig, trace: Box<dyn TraceSource>) -> Self {
        cfg.validate();
        ooo.validate();
        Self {
            id,
            trace,
            rob: VecDeque::with_capacity(cfg.rob_size.min(1024)),
            next_seq: 0,
            rat: vec![RatEntry::ReadyAt(0); hermes_trace::instr::NUM_REGS],
            waiters: vec![Vec::new(); cfg.rob_size],
            ready: BinaryHeap::new(),
            events: BinaryHeap::new(),
            rs_used: 0,
            lq_used: 0,
            sq: VecDeque::new(),
            stores_dispatched: 0,
            unknown_store: 0,
            parked: BTreeSet::new(),
            pending: None,
            fetch_stall_until: 0,
            dispatch_stall: None,
            bp: PerceptronBp::new(),
            stats: CoreStats::default(),
            cfg,
            ooo,
        }
    }

    /// Core identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Name of the workload this core runs.
    pub fn workload_name(&self) -> &str {
        self.trace.name()
    }

    /// Zeroes the statistics (end-of-warmup boundary); in-flight state is
    /// kept, matching the paper's warmup/measurement methodology.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Current ROB occupancy.
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Current load+store queue occupancy.
    pub fn lsq_occupancy(&self) -> usize {
        self.lq_used + self.sq.len()
    }

    fn waiter_slot(&self, seq: u64) -> usize {
        (seq % self.cfg.rob_size as u64) as usize
    }

    fn entry_index(&self, seq: u64) -> Option<usize> {
        let head = self.rob.front()?.seq;
        if seq < head {
            return None;
        }
        let idx = (seq - head) as usize;
        if idx < self.rob.len() {
            Some(idx)
        } else {
            None
        }
    }

    /// ROB index of the load or store `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not an in-flight memory instruction (an LSQ
    /// protocol violation).
    fn lsq_entry(&self, seq: u64) -> usize {
        match self.entry_index(seq) {
            Some(idx) if matches!(self.rob[idx].kind, EntryKind::Load | EntryKind::Store) => idx,
            _ => panic!("LSQ protocol violation: seq {seq} holds no LSQ slot"),
        }
    }

    /// SQ ordinal of the oldest store still in the store queue.
    fn sq_head(&self) -> u64 {
        self.stores_dispatched - self.sq.len() as u64
    }

    /// Position in `sq` of the store with SQ ordinal `ord`.
    ///
    /// # Panics
    ///
    /// Panics if that store is not in the store queue (an LSQ protocol
    /// violation).
    fn sq_index(&self, ord: u64) -> usize {
        let head = self.sq_head();
        assert!(
            (head..self.stores_dispatched).contains(&ord),
            "LSQ protocol violation: store #{ord} is not in the store queue"
        );
        (ord - head) as usize
    }

    /// Advances the core by one cycle: completion events, select, retire,
    /// then fetch/dispatch (so wakeups at `now` are selectable at `now`,
    /// and newly dispatched work issues no earlier than `now + 1`).
    pub fn tick(&mut self, now: Cycle, port: &mut dyn MemoryPort) {
        self.stats.rob_occupancy_sum += self.rob.len() as u64;
        self.process_events(now, port);
        self.select(now);
        self.retire(now, port);
        self.fetch_and_dispatch(now);
    }

    /// The earliest cycle at which [`OooCore::tick`] can do more than
    /// accumulate stalls, assuming no [`OooCore::finish_load`] arrives in
    /// between: the next scheduled agen/execute completion, the earliest
    /// ready-queue entry, the ROB head's completion, or the end of a
    /// fetch bubble unless dispatch is structurally blocked (full ROB,
    /// or a full RS or LQ/SQ partition stopped the last fetch stage).
    /// `Cycle::MAX` means the core is blocked entirely on the memory
    /// system. May return a cycle at or before `now` (ready work, or
    /// fetch possible right now), which simply prevents a fast-forward
    /// jump.
    pub fn next_work_at(&self) -> Cycle {
        let mut at = Cycle::MAX;
        if let Some(&Reverse((t, _))) = self.events.peek() {
            at = at.min(t);
        }
        if let Some(&Reverse((t, _))) = self.ready.peek() {
            at = at.min(t);
        }
        match self.rob.front() {
            Some(head) => {
                if head.state == St::Done {
                    at = at.min(head.done_at);
                }
                if self.rob.len() < self.cfg.rob_size && self.dispatch_stall.is_none() {
                    at = at.min(self.fetch_stall_until);
                }
            }
            None => at = at.min(self.fetch_stall_until),
        }
        at
    }

    /// Accounts `cycles` skipped ticks in bulk, attributing them exactly
    /// as that many no-op [`OooCore::tick`] calls would: `rob.len()` per
    /// cycle into `rob_occupancy_sum`, the blocked-head / other /
    /// empty-ROB stall classification, and one `rs_full_stalls` or
    /// `lsq_full_stalls` per cycle while the last fetch stage stopped on
    /// a full RS or LQ/SQ partition. Only valid for spans ending before
    /// [`OooCore::next_work_at`]: over such a span no event fires, no
    /// instruction is ready and nothing retires, so fetch either stays
    /// inside the misprediction bubble or the ROB stays full (both
    /// attempt-free), or it hits the same structural stall every cycle.
    /// Every skipped tick therefore mutates exactly these counters.
    pub fn skip_stalled(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.stats.rob_occupancy_sum += self.rob.len() as u64 * cycles;
        match self.dispatch_stall {
            Some(DispatchStall::Rs) => self.stats.rs_full_stalls += cycles,
            Some(DispatchStall::Lsq) => self.stats.lsq_full_stalls += cycles,
            None => {}
        }
        match self.rob.front_mut() {
            None => self.stats.empty_rob_cycles += cycles,
            Some(head) => match head.state {
                St::Agen | St::StoreWait | St::Mem => head.blocked_cycles += cycles,
                _ => self.stats.stall_cycles_other += cycles,
            },
        }
    }

    /// Delivers a finished load from the memory system.
    ///
    /// # Panics
    ///
    /// Panics if `token` does not name a load in the memory system (a
    /// memory-system protocol violation).
    pub fn finish_load(&mut self, token: u64, now: Cycle, served: ServedBy) {
        let idx = self
            .entry_index(token)
            .expect("finish_load for unknown token");
        let e = &mut self.rob[idx];
        assert_eq!(e.state, St::Mem, "finish_load for load not in memory");
        e.served = Some(served);
        self.complete(token, now);
    }

    /// Pops every due pipeline event: store address generation (marks the
    /// SQ slot known, completes the store, and releases parked loads),
    /// load address generation (LSQ disambiguation), and ALU/branch
    /// execution completion.
    fn process_events(&mut self, now: Cycle, port: &mut dyn MemoryPort) {
        let mut release = false;
        while let Some(&Reverse((at, seq))) = self.events.peek() {
            if at > now {
                break;
            }
            self.events.pop();
            let idx = self.entry_index(seq).expect("event for retired entry");
            match self.rob[idx].state {
                St::Agen => match self.rob[idx].kind {
                    EntryKind::Load => self.resolve_load(seq, now, port),
                    EntryKind::Store => {
                        self.mark_store_known(seq);
                        self.complete(seq, now);
                        release = true;
                    }
                    _ => unreachable!("agen event for non-memory entry"),
                },
                St::Exec => self.complete(seq, now),
                s => unreachable!("pipeline event for entry in state {s:?}"),
            }
        }
        if release {
            self.release_parked_loads(now, port);
        }
    }

    /// Marks the store `seq`'s address known and advances the
    /// oldest-unknown-store pointer past every resolved store.
    ///
    /// # Panics
    ///
    /// Panics if `seq` holds no SQ slot (an LSQ protocol violation).
    fn mark_store_known(&mut self, seq: u64) {
        let idx = self.lsq_entry(seq);
        let slot = self.sq_index(self.rob[idx].stores_before);
        self.sq[slot].addr_known = true;
        while self.unknown_store < self.stores_dispatched
            && self.sq[self.sq_index(self.unknown_store)].addr_known
        {
            self.unknown_store += 1;
        }
    }

    /// Disambiguates a load whose address is now known against the older
    /// stores in the SQ: parks it if any older store address is still
    /// unknown, forwards if an older store writes the same word, or
    /// issues it to the memory system.
    ///
    /// # Panics
    ///
    /// Panics if `seq` holds no LSQ slot (an LSQ protocol violation).
    fn resolve_load(&mut self, seq: u64, now: Cycle, port: &mut dyn MemoryPort) {
        let idx = self.lsq_entry(seq);
        let older = self.rob[idx].stores_before;
        if self.unknown_store < older {
            // An older store whose address is still unknown may alias:
            // conservative disambiguation parks the load.
            self.rob[idx].state = St::StoreWait;
            self.parked.insert(seq);
            return;
        }
        // Every older store address is known; the SQ holds those not yet
        // retired at its front.
        let word = self.rob[idx].vaddr.raw() >> 3;
        let n_older = older.saturating_sub(self.sq_head()) as usize;
        let forward = self.sq.range(..n_older).rev().any(|s| s.word == word);
        if forward {
            self.stats.forwarded_loads += 1;
            self.rob[idx].served = Some(ServedBy::L1);
            self.complete(seq, now + 1);
        } else {
            let e = &mut self.rob[idx];
            e.state = St::Mem;
            e.issued_mem = true;
            let (pc, vaddr, dispatch_at) = (e.pc, e.vaddr, e.dispatch_at);
            port.issue_load(
                LoadIssue {
                    core: self.id,
                    token: seq,
                    pc,
                    vaddr,
                },
                now,
            );
            // Retrospective dispatch marker, recorded while the probe's
            // trace for this token is freshly registered.
            port.note_lifecycle(self.id, seq, dispatch_at, "ooo_dispatch");
        }
    }

    /// Re-runs disambiguation, oldest first, for every parked load older
    /// than the oldest store still unknown, after one or more store
    /// addresses resolved this cycle. Those loads are a prefix of the
    /// program-ordered parked list; every younger one would park again.
    fn release_parked_loads(&mut self, now: Cycle, port: &mut dyn MemoryPort) {
        while let Some(&seq) = self.parked.first() {
            if self.rob[self.lsq_entry(seq)].stores_before > self.unknown_store {
                break;
            }
            self.parked.pop_first();
            self.resolve_load(seq, now, port);
        }
    }

    /// Select: starts up to `issue_width` ready instructions, oldest
    /// ready time first, freeing their reservation stations. Leftover
    /// ready entries keep `next_work_at` at or before `now`, so
    /// fast-forward can never skip over deferred work.
    fn select(&mut self, now: Cycle) {
        let mut started = 0;
        while started < self.ooo.issue_width {
            let Some(&Reverse((at, seq))) = self.ready.peek() else {
                break;
            };
            if at > now {
                break;
            }
            self.ready.pop();
            let idx = self.entry_index(seq).expect("ready entry retired");
            debug_assert_eq!(self.rob[idx].state, St::ReadyQ);
            self.rs_used -= 1;
            started += 1;
            match self.rob[idx].kind {
                EntryKind::Load | EntryKind::Store => {
                    self.rob[idx].state = St::Agen;
                    self.events
                        .push(Reverse((now + self.ooo.agen_latency as Cycle, seq)));
                }
                EntryKind::Alu | EntryKind::Branch => {
                    let lat = self.rob[idx].exec_latency as Cycle;
                    self.rob[idx].state = St::Exec;
                    self.events.push(Reverse((now + lat, seq)));
                }
            }
        }
    }

    fn retire(&mut self, now: Cycle, port: &mut dyn MemoryPort) {
        let mut retired_now = 0;
        while retired_now < self.cfg.retire_width {
            let Some(head) = self.rob.front_mut() else {
                self.stats.empty_rob_cycles += 1;
                return;
            };
            if head.state == St::Done && head.done_at <= now {
                let e = self.rob.pop_front().expect("front checked above");
                self.stats.retired += 1;
                retired_now += 1;
                match e.kind {
                    EntryKind::Load => {
                        self.stats.loads += 1;
                        self.lq_used -= 1;
                        let served = e.served.unwrap_or(ServedBy::L1);
                        self.stats.record_served(served);
                        if served.is_offchip() {
                            if e.blocked_cycles > 0 {
                                self.stats.offchip_blocking += 1;
                                self.stats.stall_cycles_offchip += e.blocked_cycles;
                            } else {
                                self.stats.offchip_nonblocking += 1;
                            }
                        } else {
                            self.stats.stall_cycles_onchip_load += e.blocked_cycles;
                        }
                        if e.issued_mem {
                            // Close out the sampled lifecycle trace (the
                            // probe drops these for unsampled tokens).
                            port.note_lifecycle(self.id, e.seq, e.done_at, "ooo_complete");
                            port.note_lifecycle(self.id, e.seq, now, "ooo_retire");
                        }
                    }
                    EntryKind::Store => {
                        debug_assert_eq!(e.stores_before, self.sq_head());
                        self.sq.pop_front();
                        self.stats.stores += 1;
                        port.issue_store(
                            StoreIssue {
                                core: self.id,
                                pc: e.pc,
                                vaddr: e.vaddr,
                            },
                            now,
                        );
                    }
                    EntryKind::Branch => self.stats.branches += 1,
                    EntryKind::Alu => {}
                }
            } else {
                // Head not ready: attribute the stalled cycle.
                match head.state {
                    St::Agen | St::StoreWait | St::Mem => head.blocked_cycles += 1,
                    _ => self.stats.stall_cycles_other += 1,
                }
                return;
            }
        }
    }

    fn fetch_and_dispatch(&mut self, now: Cycle) {
        self.dispatch_stall = None;
        if now < self.fetch_stall_until {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_size {
                break;
            }
            if self.rs_used >= self.ooo.rs_entries {
                self.stats.rs_full_stalls += 1;
                self.dispatch_stall = Some(DispatchStall::Rs);
                break;
            }
            let instr = match self.pending.take() {
                Some(i) => i,
                None => self.trace.next_instr(),
            };
            let partition_full = match instr.mem {
                Some(m) if m.kind == MemKind::Load => self.lq_used >= self.cfg.lq_size,
                Some(_) => self.sq.len() >= self.cfg.sq_size,
                None => false,
            };
            if partition_full {
                self.stats.lsq_full_stalls += 1;
                self.dispatch_stall = Some(DispatchStall::Lsq);
                self.pending = Some(instr);
                break;
            }
            let stop_fetch = self.dispatch(instr, now);
            if stop_fetch {
                break;
            }
        }
    }

    /// Dispatches one instruction: renames sources through the RAT,
    /// claims an RS entry (and an LSQ slot for memory ops), and wakes the
    /// instruction immediately if its operands are already known. Returns
    /// true if fetch must stop (branch misprediction bubble).
    fn dispatch(&mut self, instr: Instr, now: Cycle) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;

        let kind = if instr.is_load() {
            EntryKind::Load
        } else if instr.is_store() {
            EntryKind::Store
        } else if instr.is_branch() {
            EntryKind::Branch
        } else {
            EntryKind::Alu
        };

        let mut deps = [None, None];
        for (slot, src) in instr.src_regs.iter().enumerate() {
            if let Some(r) = src {
                deps[slot] = Some(match self.rat[*r as usize] {
                    RatEntry::ReadyAt(t) => SrcDep::Ready(t),
                    RatEntry::PendingOn(p) => {
                        let slot = self.waiter_slot(p);
                        self.waiters[slot].push(seq);
                        SrcDep::On(p)
                    }
                });
            }
        }

        let mut mispredicted = false;
        if let Some(b) = instr.branch {
            let predicted = self.bp.predict_train(instr.pc, b.taken);
            if predicted != b.taken {
                self.stats.branch_mispredicts += 1;
                self.stats.flushes += 1;
                mispredicted = true;
            }
        }

        if let Some(d) = instr.dst_reg {
            self.rat[d as usize] = RatEntry::PendingOn(seq);
        }

        let stores_before = self.stores_dispatched;
        let vaddr = instr.mem.map(|m| m.vaddr).unwrap_or(VirtAddr::new(0));
        match kind {
            EntryKind::Load => self.lq_used += 1,
            EntryKind::Store => {
                self.sq.push_back(SqSlot {
                    addr_known: false,
                    word: vaddr.raw() >> 3,
                });
                self.stores_dispatched += 1;
            }
            EntryKind::Alu | EntryKind::Branch => {}
        }

        self.rob.push_back(Entry {
            seq,
            kind,
            state: St::InRs,
            dispatch_at: now,
            done_at: 0,
            deps,
            dst: instr.dst_reg,
            exec_latency: instr.exec_latency.max(1),
            pc: instr.pc,
            vaddr,
            mispredicted,
            served: None,
            issued_mem: false,
            blocked_cycles: 0,
            stores_before,
        });
        self.rs_used += 1;

        if mispredicted {
            // Fetch halts until the branch resolves; `complete` fills in
            // the release cycle.
            self.fetch_stall_until = Cycle::MAX;
        }

        self.try_wake(seq);
        mispredicted
    }

    /// Moves an RS entry whose operands are all known into the ready
    /// queue at the cycle its last operand forwards (no earlier than one
    /// cycle after dispatch).
    fn try_wake(&mut self, seq: u64) {
        let Some(idx) = self.entry_index(seq) else {
            return;
        };
        let e = &self.rob[idx];
        if e.state != St::InRs {
            return;
        }
        let mut ready = e.dispatch_at + 1;
        for d in e.deps.iter().flatten() {
            match d {
                SrcDep::Ready(t) => ready = ready.max(*t),
                SrcDep::On(_) => return,
            }
        }
        self.rob[idx].state = St::ReadyQ;
        self.ready.push(Reverse((ready, seq)));
    }

    /// Propagates a completion at `done`: marks the entry done, updates
    /// the RAT (unless a younger producer renamed the register), releases
    /// a misprediction fetch bubble, and wakes dependents.
    fn complete(&mut self, seq: u64, done: Cycle) {
        if let Some(idx) = self.entry_index(seq) {
            let e = &mut self.rob[idx];
            e.state = St::Done;
            e.done_at = done;
            let (dst, mispredicted) = (e.dst, e.mispredicted);
            if let Some(d) = dst {
                if self.rat[d as usize] == RatEntry::PendingOn(seq) {
                    self.rat[d as usize] = RatEntry::ReadyAt(done);
                }
            }
            if mispredicted {
                self.fetch_stall_until = done + self.cfg.branch_penalty as Cycle;
            }
        }
        let slot = self.waiter_slot(seq);
        let mut dependents = std::mem::take(&mut self.waiters[slot]);
        for &dep_seq in &dependents {
            let Some(didx) = self.entry_index(dep_seq) else {
                continue;
            };
            for d in self.rob[didx].deps.iter_mut().flatten() {
                if *d == SrcDep::On(seq) {
                    *d = SrcDep::Ready(done);
                }
            }
            self.try_wake(dep_seq);
        }
        // Put the emptied list back so the slot keeps its allocation.
        dependents.clear();
        self.waiters[slot] = dependents;
    }
}

/// The core model `hermes-sim` instantiates: either the legacy
/// dependency-scheduled [`Core`] or the cycle-driven [`OooCore`],
/// selected by [`CoreConfig::model`]. Every method delegates without
/// additional logic, so `CoreModel::Legacy` behaves bit-identically to
/// using [`Core`] directly.
#[derive(Debug)]
pub enum AnyCore {
    /// The dependency-scheduled legacy model.
    Legacy(Core),
    /// The cycle-driven ROB/RAT/RS/LSQ model.
    Ooo(OooCore),
}

impl AnyCore {
    /// Builds the core selected by `cfg.model`.
    pub fn new(id: CoreId, cfg: CoreConfig, trace: Box<dyn TraceSource>) -> Self {
        match cfg.model.clone() {
            CoreModel::Legacy => AnyCore::Legacy(Core::new(id, cfg, trace)),
            CoreModel::OoO(ooo) => AnyCore::Ooo(OooCore::new(id, cfg, ooo, trace)),
        }
    }

    /// Core identifier.
    pub fn id(&self) -> CoreId {
        match self {
            AnyCore::Legacy(c) => c.id(),
            AnyCore::Ooo(c) => c.id(),
        }
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        match self {
            AnyCore::Legacy(c) => c.retired(),
            AnyCore::Ooo(c) => c.retired(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CoreStats {
        match self {
            AnyCore::Legacy(c) => c.stats(),
            AnyCore::Ooo(c) => c.stats(),
        }
    }

    /// Name of the workload this core runs.
    pub fn workload_name(&self) -> &str {
        match self {
            AnyCore::Legacy(c) => c.workload_name(),
            AnyCore::Ooo(c) => c.workload_name(),
        }
    }

    /// Zeroes the statistics (end-of-warmup boundary).
    pub fn reset_stats(&mut self) {
        match self {
            AnyCore::Legacy(c) => c.reset_stats(),
            AnyCore::Ooo(c) => c.reset_stats(),
        }
    }

    /// Advances the core by one cycle.
    pub fn tick(&mut self, now: Cycle, port: &mut dyn MemoryPort) {
        match self {
            AnyCore::Legacy(c) => c.tick(now, port),
            AnyCore::Ooo(c) => c.tick(now, port),
        }
    }

    /// The earliest cycle the next tick can do real work (fast-forward).
    pub fn next_work_at(&self) -> Cycle {
        match self {
            AnyCore::Legacy(c) => c.next_work_at(),
            AnyCore::Ooo(c) => c.next_work_at(),
        }
    }

    /// Accounts skipped idle cycles in bulk.
    pub fn skip_stalled(&mut self, cycles: u64) {
        match self {
            AnyCore::Legacy(c) => c.skip_stalled(cycles),
            AnyCore::Ooo(c) => c.skip_stalled(cycles),
        }
    }

    /// Delivers a finished load from the memory system.
    pub fn finish_load(&mut self, token: u64, now: Cycle, served: ServedBy) {
        match self {
            AnyCore::Legacy(c) => c.finish_load(token, now, served),
            AnyCore::Ooo(c) => c.finish_load(token, now, served),
        }
    }

    /// Current ROB occupancy (interval telemetry).
    pub fn rob_occupancy(&self) -> usize {
        match self {
            AnyCore::Legacy(c) => c.rob_occupancy(),
            AnyCore::Ooo(c) => c.rob_occupancy(),
        }
    }

    /// Current load+store queue occupancy (interval telemetry).
    pub fn lsq_occupancy(&self) -> usize {
        match self {
            AnyCore::Legacy(c) => c.lsq_occupancy(),
            AnyCore::Ooo(c) => c.lsq_occupancy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trace::source::VecSource;

    /// Fixed-latency memory stub mirroring the legacy core's test
    /// harness: completes every load after `latency` cycles.
    struct StubMem {
        latency: Cycle,
        served: ServedBy,
        pending: Vec<(Cycle, u64)>,
        issued: Vec<LoadIssue>,
        issued_at: Vec<Cycle>,
        stores: Vec<StoreIssue>,
        lifecycle: Vec<(u64, Cycle, &'static str)>,
    }

    impl StubMem {
        fn new(latency: Cycle, served: ServedBy) -> Self {
            Self {
                latency,
                served,
                pending: Vec::new(),
                issued: Vec::new(),
                issued_at: Vec::new(),
                stores: Vec::new(),
                lifecycle: Vec::new(),
            }
        }

        fn deliver_due(&mut self, now: Cycle, core: &mut OooCore) {
            let due: Vec<(Cycle, u64)> = self
                .pending
                .iter()
                .copied()
                .filter(|&(t, _)| t <= now)
                .collect();
            self.pending.retain(|&(t, _)| t > now);
            for (_, tok) in due {
                core.finish_load(tok, now, self.served);
            }
        }
    }

    impl MemoryPort for StubMem {
        fn issue_load(&mut self, req: LoadIssue, now: Cycle) {
            self.issued.push(req);
            self.issued_at.push(now);
            self.pending.push((now + self.latency, req.token));
        }

        fn issue_store(&mut self, req: StoreIssue, now: Cycle) {
            let _ = now;
            self.stores.push(req);
        }

        fn note_lifecycle(&mut self, _core: CoreId, token: u64, at: Cycle, kind: &'static str) {
            self.lifecycle.push((token, at, kind));
        }
    }

    fn mk(cfg: CoreConfig, instrs: Vec<Instr>) -> OooCore {
        let ooo = match &cfg.model {
            CoreModel::OoO(o) => o.clone(),
            CoreModel::Legacy => OooConfig::baseline(),
        };
        OooCore::new(0, cfg, ooo, Box::new(VecSource::new("t", instrs)))
    }

    fn run(core: &mut OooCore, mem: &mut StubMem, cycles: Cycle) {
        for now in 0..cycles {
            mem.deliver_due(now, core);
            core.tick(now, mem);
        }
    }

    /// Runs `core` the way the calendar loop does with fast-forward on:
    /// it ticks only when `next_work_at` or a load delivery is due, and
    /// crosses every other gap with one `skip_stalled` call. Returns the
    /// number of ticks.
    fn run_skipping(core: &mut OooCore, mem: &mut StubMem, cycles: Cycle) -> u64 {
        let (mut now, mut ticks) = (0, 0);
        while now < cycles {
            mem.deliver_due(now, core);
            let work = core.next_work_at();
            if work <= now {
                core.tick(now, mem);
                ticks += 1;
                now += 1;
            } else {
                let delivery = mem.pending.iter().map(|&(t, _)| t).min();
                let until = work.min(delivery.unwrap_or(Cycle::MAX)).min(cycles);
                core.skip_stalled(until - now);
                now = until;
            }
        }
        ticks
    }

    /// Ticks one core through every cycle and drives an identical one
    /// with `run_skipping`: both must end with equal statistics and the
    /// same loads issued, while the skipping core ticks on under a
    /// quarter of the cycles. Returns the common statistics.
    fn assert_skipping_matches_ticking(make: impl Fn() -> OooCore) -> CoreStats {
        const CYCLES: Cycle = 4_000;
        let (mut ticked, mut skipped) = (make(), make());
        let mut mem_t = StubMem::new(300, ServedBy::Dram);
        let mut mem_s = StubMem::new(300, ServedBy::Dram);
        run(&mut ticked, &mut mem_t, CYCLES);
        let ticks = run_skipping(&mut skipped, &mut mem_s, CYCLES);
        assert_eq!(ticked.stats(), skipped.stats());
        assert_eq!(mem_t.issued_at, mem_s.issued_at);
        let tokens = |m: &StubMem| m.issued.iter().map(|l| l.token).collect::<Vec<_>>();
        assert_eq!(tokens(&mem_t), tokens(&mem_s));
        assert!(ticks < CYCLES / 4, "ticked {ticks} of {CYCLES} cycles");
        *ticked.stats()
    }

    /// Ticks `core` at `now` and asserts dispatch was structurally
    /// blocked: the tick bumped the counter `stalls` reads, and no work
    /// is due at the next cycle.
    fn assert_blocked_at(
        core: &mut OooCore,
        mem: &mut StubMem,
        now: Cycle,
        stalls: fn(&CoreStats) -> u64,
    ) {
        let before = stalls(core.stats());
        mem.deliver_due(now, core);
        core.tick(now, mem);
        assert_eq!(stalls(core.stats()), before + 1, "dispatch ran at {now}");
        assert!(
            core.next_work_at() > now + 1,
            "blocked core due at {}",
            now + 1
        );
    }

    fn rs_full(s: &CoreStats) -> u64 {
        s.rs_full_stalls
    }

    fn lsq_full(s: &CoreStats) -> u64 {
        s.lsq_full_stalls
    }

    /// Four independent loads into a 2-entry load queue.
    fn lq_full_core() -> OooCore {
        let cfg = CoreConfig {
            lq_size: 2,
            ..CoreConfig::baseline()
        };
        let instrs = (0..4)
            .map(|i| {
                Instr::load(
                    0x400000 + i * 4,
                    VirtAddr::new(0x1000 * (i + 1)),
                    Some(8 + i as u8),
                    [None, None],
                )
            })
            .collect();
        mk(cfg, instrs)
    }

    /// A slow load ahead of three stores into a 2-entry store queue: the
    /// stores complete but cannot retire past the load.
    fn sq_full_core() -> OooCore {
        let cfg = CoreConfig {
            sq_size: 2,
            ..CoreConfig::baseline()
        };
        let mut instrs = vec![Instr::load(
            0x400000,
            VirtAddr::new(0x9000),
            Some(1),
            [None, None],
        )];
        instrs.extend(
            (1..4).map(|i| Instr::store(0x400000 + i * 4, VirtAddr::new(0x2000 * i), [None, None])),
        );
        mk(cfg, instrs)
    }

    /// A pointer chase behind a 4-entry RS.
    fn rs_full_core() -> OooCore {
        let tiny = OooConfig {
            rs_entries: 4,
            ..OooConfig::baseline()
        };
        mk(
            CoreConfig::baseline().with_model(CoreModel::OoO(tiny)),
            chase(),
        )
    }

    /// Two slow loads fill a 2-entry load queue, then a never-taken
    /// branch mispredicts on the cold perceptron; the first instruction
    /// fetched after the bubble is a third load, which finds the queue
    /// still full.
    fn bubble_then_lq_full_core() -> OooCore {
        let cfg = CoreConfig {
            lq_size: 2,
            ..CoreConfig::baseline()
        };
        let instrs = vec![
            Instr::load(0x400000, VirtAddr::new(0x1000), Some(1), [None, None]),
            Instr::load(0x400004, VirtAddr::new(0x2000), Some(2), [None, None]),
            Instr::branch(0x400008, false, None),
            Instr::load(0x40000c, VirtAddr::new(0x3000), Some(3), [None, None]),
        ];
        mk(cfg, instrs)
    }

    fn chase() -> Vec<Instr> {
        vec![Instr::load(
            0x400000,
            VirtAddr::new(0x1000),
            Some(1),
            [Some(1), None],
        )]
    }

    #[test]
    fn independent_alu_reaches_wide_ipc() {
        let mut core = mk(
            CoreConfig::baseline(),
            vec![
                Instr::alu(0x400000, Some(1), [None, None]),
                Instr::alu(0x400004, Some(2), [None, None]),
                Instr::alu(0x400008, Some(3), [None, None]),
            ],
        );
        let mut mem = StubMem::new(5, ServedBy::L1);
        run(&mut core, &mut mem, 1000);
        let ipc = core.stats().ipc(1000);
        assert!(
            ipc > 4.0,
            "independent ALU stream should near issue width, got {ipc}"
        );
    }

    #[test]
    fn dependent_chain_is_serial() {
        let mut core = mk(
            CoreConfig::baseline(),
            vec![Instr::alu(0x400000, Some(1), [Some(1), None])],
        );
        let mut mem = StubMem::new(5, ServedBy::L1);
        run(&mut core, &mut mem, 1000);
        let ipc = core.stats().ipc(1000);
        assert!(ipc < 1.2, "serial chain must not exceed 1 IPC, got {ipc}");
        assert!(ipc > 0.8, "serial chain should sustain ~1 IPC, got {ipc}");
    }

    #[test]
    fn issue_width_caps_parallel_alu() {
        // 8 independent ALU ops per loop but a 2-wide select: IPC ≤ 2.
        let instrs: Vec<Instr> = (0..8)
            .map(|i| Instr::alu(0x400000 + i * 4, Some(1 + i as u8), [None, None]))
            .collect();
        let narrow = OooConfig {
            issue_width: 2,
            ..OooConfig::baseline()
        };
        let cfg = CoreConfig::baseline().with_model(CoreModel::OoO(narrow));
        let mut core = mk(cfg, instrs);
        let mut mem = StubMem::new(5, ServedBy::L1);
        run(&mut core, &mut mem, 1000);
        let ipc = core.stats().ipc(1000);
        assert!(ipc < 2.2, "2-wide select must cap IPC near 2, got {ipc}");
        assert!(ipc > 1.5, "2-wide select should sustain ~2 IPC, got {ipc}");
    }

    #[test]
    fn independent_loads_overlap() {
        let instrs: Vec<Instr> = (0..4)
            .map(|i| {
                Instr::load(
                    0x400000 + i * 4,
                    VirtAddr::new(0x1000 * (i + 1)),
                    Some(8 + i as u8),
                    [Some(1), None],
                )
            })
            .collect();
        let mut core = mk(CoreConfig::baseline(), instrs);
        let mut mem = StubMem::new(100, ServedBy::Dram);
        run(&mut core, &mut mem, 10_000);
        assert!(core.retired() > 300, "retired {}", core.retired());
    }

    #[test]
    fn chain_longer_than_rob_is_serial() {
        // load r1 <- [r1]; alu r1 <- r1, repeated: every younger entry in
        // an 8-entry ROB waits on its predecessor, so every waiter slot
        // is live at once and reused many times over the 40-instruction
        // chain. After the first select at cycle 1, each hop costs the
        // agen latency, the memory latency and one ALU cycle.
        let cfg = CoreConfig {
            rob_size: 8,
            ..CoreConfig::baseline()
        };
        let agen = OooConfig::baseline().agen_latency as Cycle;
        let mut core = mk(
            cfg,
            vec![
                Instr::load(0x400000, VirtAddr::new(0x1000), Some(1), [Some(1), None]),
                Instr::alu(0x400004, Some(1), [Some(1), None]),
            ],
        );
        let mut mem = StubMem::new(10, ServedBy::L2);
        let hops = 20;
        let mut now = 0;
        while core.retired() < 2 * hops {
            assert!(now < 1_000_000, "chain stalled at {}", core.retired());
            mem.deliver_due(now, &mut core);
            core.tick(now, &mut mem);
            now += 1;
        }
        assert_eq!(now - 1, 1 + hops * (agen + 10 + 1));
    }

    #[test]
    fn load_latency_gates_dependent_chain() {
        let mut core = mk(CoreConfig::baseline(), chase());
        let mut mem = StubMem::new(100, ServedBy::Dram);
        run(&mut core, &mut mem, 10_000);
        let retired = core.retired();
        assert!((80..=120).contains(&retired), "retired {retired}");
    }

    #[test]
    fn offchip_blocking_attribution() {
        let mut core = mk(CoreConfig::baseline(), chase());
        let mut mem = StubMem::new(200, ServedBy::Dram);
        run(&mut core, &mut mem, 5_000);
        let s = core.stats();
        assert!(s.offchip_blocking > 0, "serial off-chip loads must block");
        assert!(s.stall_cycles_offchip > s.offchip_blocking * 100);
        assert_eq!(s.offchip_nonblocking + s.offchip_blocking, s.served_dram);
    }

    #[test]
    fn stores_retire_in_program_order() {
        // store A; slow independent load; store C. Store C completes long
        // before the load, but must not reach memory until the load
        // retires: in-order store retirement.
        let instrs = vec![
            Instr::store(0x400000, VirtAddr::new(0x2000), [None, None]),
            Instr::load(0x400004, VirtAddr::new(0x9000), Some(1), [None, None]),
            Instr::store(0x400008, VirtAddr::new(0x3000), [None, None]),
        ];
        let mut core = mk(CoreConfig::baseline(), instrs);
        let mut mem = StubMem::new(400, ServedBy::Dram);
        // Tick only until just before the first load completes.
        for now in 0..300 {
            mem.deliver_due(now, &mut core);
            core.tick(now, &mut mem);
        }
        // The trace cycles; at most the stores *preceding* the oldest
        // unfinished load may have been written out. With the load
        // in-flight, exactly the first store of the first iteration has
        // retired.
        assert_eq!(mem.stores.len(), 1, "younger store escaped the load");
        assert_eq!(mem.stores[0].vaddr.raw(), 0x2000);
        run(&mut core, &mut mem, 2_000);
        // Once running freely, stores come out strictly in program order.
        for w in mem.stores.windows(2) {
            assert!(
                [0x2000, 0x3000].contains(&w[1].vaddr.raw()),
                "unexpected store addr"
            );
        }
        assert!(core.retired() > 3);
    }

    #[test]
    fn store_to_load_forwarding_bypasses_memory() {
        // store [0x2000] <- r1; load r2 <- [0x2000]: same 8-byte word, so
        // the load forwards from the SQ and never touches memory.
        let instrs = vec![
            Instr::store(0x400000, VirtAddr::new(0x2000), [None, None]),
            Instr::load(0x400004, VirtAddr::new(0x2000), Some(2), [None, None]),
        ];
        let mut core = mk(CoreConfig::baseline(), instrs);
        let mut mem = StubMem::new(200, ServedBy::Dram);
        run(&mut core, &mut mem, 2_000);
        assert!(core.stats().forwarded_loads > 0, "no forwarding happened");
        assert!(
            mem.issued.is_empty(),
            "forwarded loads must not reach memory: {} issued",
            mem.issued.len()
        );
        // Forwarded loads complete on-chip in ~1 cycle: throughput is
        // bounded by width, not by the 200-cycle memory latency.
        assert!(core.retired() > 1_000, "retired {}", core.retired());
        assert_eq!(core.stats().served_dram, 0);
    }

    #[test]
    fn naive_replay_without_matching_store_goes_to_memory() {
        // The replay-model contrast: same shape, different word — every
        // load must miss the SQ and pay the memory latency.
        let instrs = vec![
            Instr::store(0x400000, VirtAddr::new(0x2000), [None, None]),
            Instr::load(0x400004, VirtAddr::new(0x8000), Some(2), [None, None]),
        ];
        let mut core = mk(CoreConfig::baseline(), instrs);
        let mut mem = StubMem::new(200, ServedBy::Dram);
        run(&mut core, &mut mem, 2_000);
        assert_eq!(core.stats().forwarded_loads, 0);
        assert!(!mem.issued.is_empty(), "non-matching loads must issue");
        assert!(core.stats().served_dram > 0);
    }

    #[test]
    fn unknown_store_address_parks_younger_load() {
        // The store's address is "generated" only after its operand (a
        // slow load) resolves... but addresses come from the trace, so
        // model it with operand timing: store depends on r1 produced by a
        // slow load; the younger load to a *different* address must wait
        // for the store's agen before issuing (conservative
        // disambiguation).
        let instrs = vec![
            Instr::load(0x400000, VirtAddr::new(0x9000), Some(1), [None, None]), // slow
            Instr::store(0x400004, VirtAddr::new(0x2000), [Some(1), None]),      // waits on r1
            Instr::load(0x400008, VirtAddr::new(0x5000), Some(2), [None, None]), // independent
        ];
        let cfg = CoreConfig {
            fetch_width: 3,
            ..CoreConfig::baseline()
        };
        let mut core = mk(cfg, instrs);
        let mut mem = StubMem::new(300, ServedBy::Dram);
        for now in 0..200 {
            mem.deliver_due(now, &mut core);
            core.tick(now, &mut mem);
        }
        // Only first-iteration leading loads may have issued; the load at
        // 0x5000 sits behind the unresolved store.
        assert!(
            mem.issued.iter().all(|l| l.vaddr.raw() != 0x5000),
            "load issued past an older store with unknown address"
        );
        run(&mut core, &mut mem, 3_000);
        assert!(
            mem.issued.iter().any(|l| l.vaddr.raw() == 0x5000),
            "parked load never released"
        );
    }

    #[test]
    fn rs_full_counts_dispatch_stalls() {
        let tiny = OooConfig {
            rs_entries: 4,
            ..OooConfig::baseline()
        };
        let cfg = CoreConfig::baseline().with_model(CoreModel::OoO(tiny));
        let mut core = mk(cfg, chase());
        let mut mem = StubMem::new(500, ServedBy::Dram);
        run(&mut core, &mut mem, 2_000);
        assert!(
            core.stats().rs_full_stalls > 0,
            "4-entry RS must backpressure a blocked chase"
        );
    }

    #[test]
    fn lsq_full_counts_dispatch_stalls() {
        let cfg = CoreConfig {
            lq_size: 2,
            ..CoreConfig::baseline()
        };
        let instrs: Vec<Instr> = (0..4)
            .map(|i| {
                Instr::load(
                    0x400000 + i * 4,
                    VirtAddr::new(0x1000 * (i + 1)),
                    Some(8 + i as u8),
                    [None, None],
                )
            })
            .collect();
        let mut core = mk(cfg, instrs);
        let mut mem = StubMem::new(500, ServedBy::Dram);
        // Stop before the first completion: no LQ slot is ever recycled,
        // so cumulative issues equal peak LQ occupancy.
        run(&mut core, &mut mem, 400);
        assert!(
            core.stats().lsq_full_stalls > 0,
            "2-entry LQ must stall dispatch"
        );
        assert!(
            mem.issued.len() <= 2,
            "LQ cap violated: {}",
            mem.issued.len()
        );
    }

    #[test]
    fn flushes_counted_on_mispredicts() {
        // A cold perceptron predicts taken (all weights zero), so
        // never-taken branches mispredict and flush until it trains.
        let instrs = vec![
            Instr::alu(0x400000, Some(1), [None, None]),
            Instr::branch(0x400004, false, Some(1)),
        ];
        let mut core = mk(CoreConfig::baseline(), instrs);
        let mut mem = StubMem::new(5, ServedBy::L1);
        run(&mut core, &mut mem, 2_000);
        let s = core.stats();
        assert!(s.branch_mispredicts > 0, "cold start must mispredict");
        assert_eq!(s.flushes, s.branch_mispredicts);
    }

    #[test]
    fn rob_occupancy_sum_tracks_window_depth() {
        let mut core = mk(CoreConfig::baseline(), chase());
        let mut mem = StubMem::new(1_000_000, ServedBy::Dram); // never completes
        for now in 0..500 {
            core.tick(now, &mut mem);
        }
        let s = *core.stats();
        // The chase fills the window and sits there: mean occupancy over
        // 500 cycles must be well above zero and at most the ROB size.
        assert!(s.rob_occupancy_sum > 0);
        assert!(s.rob_occupancy_sum <= 512 * 500);
        assert!(s.rob_occupancy_sum / 500 > 4, "window never filled");
    }

    #[test]
    fn skip_stalled_matches_ticked_stalls() {
        // Mirrors the legacy core's fast-forward contract test: a core
        // ticking through 500 dead cycles and one skipping them in a
        // single call must end with identical statistics.
        let mk_pair = || {
            let cfg = CoreConfig {
                rob_size: 16,
                ..CoreConfig::baseline()
            };
            mk(cfg, chase())
        };
        let mut ticked = mk_pair();
        let mut skipped = mk_pair();
        let mut mem_t = StubMem::new(1_000_000, ServedBy::Dram);
        let mut mem_s = StubMem::new(1_000_000, ServedBy::Dram);
        for now in 0..20 {
            ticked.tick(now, &mut mem_t);
            skipped.tick(now, &mut mem_s);
        }
        assert_eq!(
            ticked.next_work_at(),
            Cycle::MAX,
            "chase must block on memory"
        );

        for now in 20..520 {
            ticked.tick(now, &mut mem_t);
        }
        skipped.skip_stalled(500);

        let tok = mem_t.issued.first().expect("head load issued").token;
        ticked.finish_load(tok, 520, ServedBy::Dram);
        skipped.finish_load(tok, 520, ServedBy::Dram);
        ticked.tick(520, &mut mem_t);
        skipped.tick(520, &mut mem_s);

        assert!(ticked.retired() >= 1);
        assert_eq!(ticked.stats(), skipped.stats());
        assert!(ticked.stats().stall_cycles_offchip >= 500);
        assert!(ticked.stats().rob_occupancy_sum > 0);
    }

    #[test]
    fn lq_full_span_skips_exactly() {
        let mut core = lq_full_core();
        let mut mem = StubMem::new(300, ServedBy::Dram);
        run(&mut core, &mut mem, 20);
        assert_blocked_at(&mut core, &mut mem, 20, lsq_full);
        let s = assert_skipping_matches_ticking(lq_full_core);
        assert!(s.lsq_full_stalls > 2_000, "{}", s.lsq_full_stalls);
    }

    #[test]
    fn sq_full_span_skips_exactly() {
        let mut core = sq_full_core();
        let mut mem = StubMem::new(300, ServedBy::Dram);
        run(&mut core, &mut mem, 20);
        assert_blocked_at(&mut core, &mut mem, 20, lsq_full);
        let s = assert_skipping_matches_ticking(sq_full_core);
        assert!(s.lsq_full_stalls > 2_000, "{}", s.lsq_full_stalls);
        assert!(s.stores > 0);
    }

    #[test]
    fn rs_full_span_skips_exactly() {
        let mut core = rs_full_core();
        let mut mem = StubMem::new(300, ServedBy::Dram);
        run(&mut core, &mut mem, 20);
        assert_blocked_at(&mut core, &mut mem, 20, rs_full);
        let s = assert_skipping_matches_ticking(rs_full_core);
        assert!(s.rs_full_stalls > 2_000, "{}", s.rs_full_stalls);
    }

    #[test]
    fn bubble_ending_in_blocked_dispatch_skips_exactly() {
        let mut core = bubble_then_lq_full_core();
        let mut mem = StubMem::new(300, ServedBy::Dram);
        run(&mut core, &mut mem, 4);
        // Inside the bubble the LQ is already full, but fetch makes no
        // attempt: the bubble's end is the next work, and no stall counts.
        let end = core.next_work_at();
        assert!((5..Cycle::MAX).contains(&end), "bubble ends at {end}");
        run(&mut core, &mut mem, end);
        assert_eq!(core.stats().lsq_full_stalls, 0);
        assert_blocked_at(&mut core, &mut mem, end, lsq_full);
        let s = assert_skipping_matches_ticking(bubble_then_lq_full_core);
        assert!(s.flushes > 0 && s.lsq_full_stalls > 0);
    }

    #[test]
    fn parked_loads_reach_the_port_oldest_first() {
        // Loads 4 and 5 park behind store 1, whose address waits on the
        // slow load 0. Load 4's address waits on a two-op ALU chain, so
        // load 5 parks first; the store's agen must still release them
        // on one cycle in program order, followed by the next
        // iteration's load 6 (also older than any unknown store).
        let instrs = vec![
            Instr::load(0x400000, VirtAddr::new(0x9000), Some(1), [None, None]),
            Instr::store(0x400004, VirtAddr::new(0x2000), [Some(1), None]),
            Instr::alu(0x400008, Some(2), [None, None]),
            Instr::alu(0x40000c, Some(2), [Some(2), None]),
            Instr::load(0x400010, VirtAddr::new(0x5000), Some(3), [Some(2), None]),
            Instr::load(0x400014, VirtAddr::new(0x6000), Some(4), [None, None]),
        ];
        let mut core = mk(CoreConfig::baseline(), instrs);
        let mut mem = StubMem::new(300, ServedBy::Dram);
        run(&mut core, &mut mem, 10);
        assert_eq!(
            core.parked.iter().take(3).copied().collect::<Vec<_>>(),
            [4, 5, 6]
        );
        run(&mut core, &mut mem, 400);
        let first: Vec<u64> = mem.issued.iter().take(4).map(|l| l.token).collect();
        assert_eq!(first, [0, 4, 5, 6]);
        assert!(mem.issued_at[1] > 300);
        assert!(mem.issued_at[1..4].iter().all(|&t| t == mem.issued_at[1]));
    }

    #[test]
    #[should_panic(expected = "LSQ protocol violation")]
    fn marking_a_missing_store_panics() {
        let mut core = mk(CoreConfig::baseline(), chase());
        core.mark_store_known(7);
    }

    #[test]
    #[should_panic(expected = "LSQ protocol violation")]
    fn resolving_a_missing_load_panics() {
        let mut core = mk(CoreConfig::baseline(), chase());
        let mut mem = StubMem::new(5, ServedBy::L1);
        core.resolve_load(7, 0, &mut mem);
    }

    #[test]
    fn lifecycle_notes_emitted_for_memory_loads() {
        let mut core = mk(CoreConfig::baseline(), chase());
        let mut mem = StubMem::new(20, ServedBy::Dram);
        run(&mut core, &mut mem, 200);
        let kinds: Vec<&str> = mem.lifecycle.iter().map(|&(_, _, k)| k).collect();
        assert!(kinds.contains(&"ooo_dispatch"));
        assert!(kinds.contains(&"ooo_complete"));
        assert!(kinds.contains(&"ooo_retire"));
        // Per token: dispatch ≤ complete ≤ retire.
        let tok = mem.lifecycle[0].0;
        let at = |kind: &str| {
            mem.lifecycle
                .iter()
                .find(|&&(t, _, k)| t == tok && k == kind)
                .map(|&(_, a, _)| a)
                .unwrap()
        };
        assert!(at("ooo_dispatch") <= at("ooo_complete"));
        assert!(at("ooo_complete") <= at("ooo_retire"));
    }

    #[test]
    fn any_core_dispatches_on_model() {
        let mk_src = || Box::new(VecSource::new("t", chase()));
        let legacy = AnyCore::new(0, CoreConfig::baseline(), mk_src());
        assert!(matches!(legacy, AnyCore::Legacy(_)));
        let ooo = AnyCore::new(
            0,
            CoreConfig::baseline().with_model(CoreModel::OoO(OooConfig::baseline())),
            mk_src(),
        );
        assert!(matches!(ooo, AnyCore::Ooo(_)));
        assert_eq!(ooo.rob_occupancy(), 0);
        assert_eq!(ooo.lsq_occupancy(), 0);
        assert_eq!(ooo.next_work_at(), 0);
    }

    #[test]
    #[should_panic]
    fn finish_unknown_token_panics() {
        let mut core = mk(CoreConfig::baseline(), chase());
        core.finish_load(999, 0, ServedBy::L1);
    }
}
