//! The out-of-order core pipeline.
//!
//! See the crate docs for the modelling approach. In short: dispatch
//! captures each instruction's register dependencies; completion times
//! propagate eagerly through the dataflow graph; loads detour through the
//! memory system ([`MemoryPort`]) and resume the graph when
//! [`Core::finish_load`] delivers their data; retirement is strictly
//! in-order and blocks on incomplete heads — which is where off-chip loads
//! hurt and where Hermes wins its cycles back.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hermes_trace::{Instr, MemKind, TraceSource};
use hermes_types::{CoreId, Cycle, VirtAddr};

use crate::branch::PerceptronBp;
use crate::config::CoreConfig;
use crate::port::{LoadIssue, MemoryPort, ServedBy, StoreIssue};
use crate::stats::CoreStats;

/// A source operand: either available at a known cycle or produced by an
/// in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SrcDep {
    Ready(Cycle),
    On(u64),
}

/// Register-file scoreboard entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegState {
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
enum EntryState {
    /// Waiting for source operands.
    WaitingDeps,
    /// Load waiting for its address-generation cycle.
    WaitingAgen,
    /// Load in the memory system.
    WaitingMem,
    /// Completion cycle known.
    Done(Cycle),
}

#[derive(Debug)]
struct RobEntry {
    seq: u64,
    kind: EntryKind,
    state: EntryState,
    dispatch_at: Cycle,
    deps: [Option<SrcDep>; 2],
    dst: Option<u8>,
    exec_latency: u8,
    pc: u64,
    vaddr: VirtAddr,
    mispredicted: bool,
    served: Option<ServedBy>,
    blocked_cycles: u64,
}

/// One simulated out-of-order core.
///
/// Owns its instruction source; the surrounding system calls
/// [`Core::tick`] once per cycle and [`Core::finish_load`] whenever the
/// memory system completes a load.
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    trace: Box<dyn TraceSource>,
    rob: VecDeque<RobEntry>,
    next_seq: u64,
    regs: Vec<RegState>,
    /// Dependent seqs waiting on producer `p`, at `waiters[p % rob_size]`.
    /// In-flight seqs are `rob_size` consecutive numbers at most, so no
    /// two live producers share a slot; a producer's list is emptied at
    /// its completion, before its slot can be reused.
    waiters: Vec<Vec<u64>>,
    agen_events: BinaryHeap<Reverse<(Cycle, u64)>>,
    lq_used: usize,
    sq_used: usize,
    fetch_stall_until: Cycle,
    bp: PerceptronBp,
    stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("rob_occupancy", &self.rob.len())
            .field("retired", &self.stats.retired)
            .finish()
    }
}

impl Core {
    /// Builds a core running `trace`.
    pub fn new(id: CoreId, cfg: CoreConfig, trace: Box<dyn TraceSource>) -> Self {
        cfg.validate();
        Self {
            id,
            trace,
            rob: VecDeque::with_capacity(512),
            next_seq: 0,
            regs: vec![RegState::ReadyAt(0); hermes_trace::instr::NUM_REGS],
            waiters: vec![Vec::new(); cfg.rob_size],
            agen_events: BinaryHeap::new(),
            lq_used: 0,
            sq_used: 0,
            fetch_stall_until: 0,
            bp: PerceptronBp::new(),
            stats: CoreStats::default(),
            cfg,
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

    /// Zeroes the statistics (end-of-warmup boundary). In-flight state is
    /// kept, matching the paper's warmup/measurement methodology.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
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

    /// Advances the core by one cycle.
    pub fn tick(&mut self, now: Cycle, port: &mut dyn MemoryPort) {
        self.issue_due_loads(now, port);
        self.retire(now, port);
        self.fetch_and_dispatch(now);
    }

    /// The earliest cycle at which [`Core::tick`] can do more than
    /// accumulate a stall, assuming no [`Core::finish_load`] arrives in
    /// between: the next address-generation event, the ROB head's known
    /// completion time, or the end of a fetch bubble (only relevant while
    /// the ROB has room — a full ROB can only drain via retirement).
    /// `Cycle::MAX` means the core is blocked entirely on the memory
    /// system. Drives idle-cycle fast-forward: the system may skip every
    /// cycle strictly before the returned one, provided it accounts them
    /// through [`Core::skip_stalled`].
    pub fn next_work_at(&self) -> Cycle {
        let mut at = Cycle::MAX;
        if let Some(&Reverse((t, _))) = self.agen_events.peek() {
            at = at.min(t);
        }
        match self.rob.front() {
            Some(head) => {
                if let EntryState::Done(t) = head.state {
                    at = at.min(t);
                }
                if self.rob.len() < self.cfg.rob_size {
                    at = at.min(self.fetch_stall_until);
                }
            }
            None => at = at.min(self.fetch_stall_until),
        }
        at
    }

    /// Accounts `cycles` skipped ticks in bulk, attributing them exactly
    /// as that many no-op [`Core::tick`] calls would have: to the blocked
    /// ROB head (memory stall), to `stall_cycles_other`, or to
    /// `empty_rob_cycles`. Only valid while every skipped tick would have
    /// been a no-op, i.e. for spans ending before [`Core::next_work_at`].
    pub fn skip_stalled(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        match self.rob.front_mut() {
            None => self.stats.empty_rob_cycles += cycles,
            Some(head) => match head.state {
                EntryState::WaitingMem | EntryState::WaitingAgen => head.blocked_cycles += cycles,
                EntryState::WaitingDeps | EntryState::Done(_) => {
                    self.stats.stall_cycles_other += cycles
                }
            },
        }
    }

    fn issue_due_loads(&mut self, now: Cycle, port: &mut dyn MemoryPort) {
        while let Some(&Reverse((at, seq))) = self.agen_events.peek() {
            if at > now {
                break;
            }
            self.agen_events.pop();
            let (core_id, pc, vaddr) = {
                let idx = self.entry_index(seq).expect("agen event for retired entry");
                let e = &mut self.rob[idx];
                debug_assert_eq!(e.state, EntryState::WaitingAgen);
                e.state = EntryState::WaitingMem;
                (self.id, e.pc, e.vaddr)
            };
            port.issue_load(
                LoadIssue {
                    core: core_id,
                    token: seq,
                    pc,
                    vaddr,
                },
                now,
            );
        }
    }

    fn retire(&mut self, now: Cycle, port: &mut dyn MemoryPort) {
        let mut retired_now = 0;
        while retired_now < self.cfg.retire_width {
            let Some(head) = self.rob.front_mut() else {
                self.stats.empty_rob_cycles += 1;
                return;
            };
            match head.state {
                EntryState::Done(t) if t <= now => {
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
                        }
                        EntryKind::Store => {
                            self.stats.stores += 1;
                            self.sq_used -= 1;
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
                }
                _ => {
                    // Head not ready: attribute the stalled cycle.
                    match head.state {
                        EntryState::WaitingMem | EntryState::WaitingAgen => {
                            head.blocked_cycles += 1;
                        }
                        _ => self.stats.stall_cycles_other += 1,
                    }
                    return;
                }
            }
        }
    }

    fn fetch_and_dispatch(&mut self, now: Cycle) {
        if now < self.fetch_stall_until {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_size {
                break;
            }
            let instr = self.trace.next_instr();
            match instr.mem {
                Some(m) if m.kind == MemKind::Load => {
                    if self.lq_used >= self.cfg.lq_size {
                        break;
                    }
                    self.lq_used += 1;
                }
                Some(_) => {
                    if self.sq_used >= self.cfg.sq_size {
                        break;
                    }
                    self.sq_used += 1;
                }
                None => {}
            }
            let stop_fetch = self.dispatch(instr, now);
            if stop_fetch {
                break;
            }
        }
    }

    /// Dispatches one instruction; returns true if fetch must stop (branch
    /// misprediction bubble).
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

        // Capture dataflow dependencies against the current scoreboard.
        let mut deps = [None, None];
        for (slot, src) in instr.src_regs.iter().enumerate() {
            if let Some(r) = src {
                deps[slot] = Some(match self.regs[*r as usize] {
                    RegState::ReadyAt(t) => SrcDep::Ready(t),
                    RegState::PendingOn(p) => {
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
                mispredicted = true;
            }
        }

        if let Some(d) = instr.dst_reg {
            self.regs[d as usize] = RegState::PendingOn(seq);
        }

        self.rob.push_back(RobEntry {
            seq,
            kind,
            state: EntryState::WaitingDeps,
            dispatch_at: now,
            deps,
            dst: instr.dst_reg,
            exec_latency: instr.exec_latency.max(1),
            pc: instr.pc,
            vaddr: instr.mem.map(|m| m.vaddr).unwrap_or(VirtAddr::new(0)),
            mispredicted,
            served: None,
            blocked_cycles: 0,
        });

        if mispredicted {
            // Fetch halts until the branch resolves; if it is already
            // schedulable the resolution cycle is known immediately,
            // otherwise `on_complete` fills it in.
            self.fetch_stall_until = Cycle::MAX;
        }

        self.try_schedule(seq);
        mispredicted
    }

    /// Attempts to compute the entry's execution schedule; no-op unless all
    /// dependencies are resolved.
    fn try_schedule(&mut self, seq: u64) {
        let Some(idx) = self.entry_index(seq) else {
            return;
        };
        let e = &self.rob[idx];
        if e.state != EntryState::WaitingDeps {
            return;
        }
        let mut ready = e.dispatch_at;
        for d in e.deps.iter().flatten() {
            match d {
                SrcDep::Ready(t) => ready = ready.max(*t),
                SrcDep::On(_) => return,
            }
        }
        let e = &mut self.rob[idx];
        match e.kind {
            EntryKind::Load => {
                // One cycle of address generation, then out to memory.
                let agen_at = ready + 1;
                e.state = EntryState::WaitingAgen;
                self.agen_events.push(Reverse((agen_at, seq)));
            }
            EntryKind::Alu | EntryKind::Branch => {
                let done = ready + e.exec_latency as Cycle;
                e.state = EntryState::Done(done);
                self.on_complete(seq, done);
            }
            EntryKind::Store => {
                let done = ready + 1;
                e.state = EntryState::Done(done);
                self.on_complete(seq, done);
            }
        }
    }

    /// Delivers a finished load from the memory system.
    ///
    /// # Panics
    ///
    /// Panics if `token` does not name an in-flight load (a memory-system
    /// protocol violation).
    pub fn finish_load(&mut self, token: u64, now: Cycle, served: ServedBy) {
        let idx = self
            .entry_index(token)
            .expect("finish_load for unknown token");
        let e = &mut self.rob[idx];
        assert_eq!(
            e.state,
            EntryState::WaitingMem,
            "finish_load for load not in memory"
        );
        e.state = EntryState::Done(now);
        e.served = Some(served);
        self.on_complete(token, now);
    }

    /// Propagates a known completion: updates the scoreboard, wakes
    /// dependents, and releases a misprediction fetch bubble.
    fn on_complete(&mut self, seq: u64, done: Cycle) {
        // Scoreboard update (unless a younger producer overwrote the reg).
        if let Some(idx) = self.entry_index(seq) {
            let (dst, mispredicted) = (self.rob[idx].dst, self.rob[idx].mispredicted);
            if let Some(d) = dst {
                if self.regs[d as usize] == RegState::PendingOn(seq) {
                    self.regs[d as usize] = RegState::ReadyAt(done);
                }
            }
            if mispredicted {
                self.fetch_stall_until = done + self.cfg.branch_penalty as Cycle;
            }
        }
        // Wake dependents. A dependent that completes synchronously
        // recurses into `on_complete` for its own slot, so the list is
        // taken out while it is walked and put back empty to keep its
        // allocation.
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
            self.try_schedule(dep_seq);
        }
        dependents.clear();
        self.waiters[slot] = dependents;
    }

    /// Current ROB occupancy (diagnostics / tests).
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Current load+store queue occupancy (interval telemetry).
    pub fn lsq_occupancy(&self) -> usize {
        self.lq_used + self.sq_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trace::source::VecSource;
    use hermes_trace::Instr;

    /// Fixed-latency memory stub: completes every load after `latency`
    /// cycles, reporting `served`.
    struct StubMem {
        latency: Cycle,
        served: ServedBy,
        pending: Vec<(Cycle, u64)>,
        issued: Vec<LoadIssue>,
        stores: Vec<StoreIssue>,
    }

    impl StubMem {
        fn new(latency: Cycle, served: ServedBy) -> Self {
            Self {
                latency,
                served,
                pending: Vec::new(),
                issued: Vec::new(),
                stores: Vec::new(),
            }
        }

        fn deliver_due(&mut self, now: Cycle, core: &mut Core) {
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
            self.pending.push((now + self.latency, req.token));
        }

        fn issue_store(&mut self, req: StoreIssue, now: Cycle) {
            let _ = now;
            self.stores.push(req);
        }
    }

    fn run(core: &mut Core, mem: &mut StubMem, cycles: Cycle) {
        for now in 0..cycles {
            mem.deliver_due(now, core);
            core.tick(now, mem);
        }
    }

    fn alu_loop() -> Box<dyn TraceSource> {
        Box::new(VecSource::new(
            "alu",
            vec![
                Instr::alu(0x400000, Some(1), [None, None]),
                Instr::alu(0x400004, Some(2), [None, None]),
                Instr::alu(0x400008, Some(3), [None, None]),
            ],
        ))
    }

    #[test]
    fn independent_alu_reaches_wide_ipc() {
        let mut core = Core::new(0, CoreConfig::baseline(), alu_loop());
        let mut mem = StubMem::new(5, ServedBy::L1);
        run(&mut core, &mut mem, 1000);
        let ipc = core.stats().ipc(1000);
        assert!(
            ipc > 4.0,
            "independent ALU stream should near fetch width, got {ipc}"
        );
    }

    #[test]
    fn dependent_chain_is_serial() {
        // Each instruction depends on the previous: IPC must be ~1.
        let src = Box::new(VecSource::new(
            "chain",
            vec![Instr::alu(0x400000, Some(1), [Some(1), None])],
        ));
        let mut core = Core::new(0, CoreConfig::baseline(), src);
        let mut mem = StubMem::new(5, ServedBy::L1);
        run(&mut core, &mut mem, 1000);
        let ipc = core.stats().ipc(1000);
        assert!(ipc < 1.2, "serial chain must not exceed 1 IPC, got {ipc}");
        assert!(ipc > 0.8, "serial chain should sustain ~1 IPC, got {ipc}");
    }

    #[test]
    fn chain_longer_than_rob_is_serial() {
        // load r1 <- [r1]; alu r1 <- r1, repeated: every younger entry in
        // an 8-entry ROB waits on its predecessor, so every waiter slot
        // is live at once and reused many times over the 40-instruction
        // chain. Each hop costs one agen cycle, the memory latency and
        // one ALU cycle.
        let src = Box::new(VecSource::new(
            "chain",
            vec![
                Instr::load(0x400000, VirtAddr::new(0x1000), Some(1), [Some(1), None]),
                Instr::alu(0x400004, Some(1), [Some(1), None]),
            ],
        ));
        let cfg = CoreConfig {
            rob_size: 8,
            ..CoreConfig::baseline()
        };
        let mut core = Core::new(0, cfg, src);
        let mut mem = StubMem::new(10, ServedBy::L2);
        let hops = 20;
        let mut now = 0;
        while core.retired() < 2 * hops {
            assert!(now < 1_000_000, "chain stalled at {}", core.retired());
            mem.deliver_due(now, &mut core);
            core.tick(now, &mut mem);
            now += 1;
        }
        assert_eq!(now - 1, hops * (1 + 10 + 1));
    }

    #[test]
    fn load_latency_gates_dependent_chain() {
        // load r1 <- [r1] pointer chase: IPC limited by memory latency.
        let src = Box::new(VecSource::new(
            "chase",
            vec![Instr::load(
                0x400000,
                VirtAddr::new(0x1000),
                Some(1),
                [Some(1), None],
            )],
        ));
        let mut core = Core::new(0, CoreConfig::baseline(), src);
        let mut mem = StubMem::new(100, ServedBy::Dram);
        run(&mut core, &mut mem, 10_000);
        let retired = core.retired();
        // Roughly one load per ~102 cycles.
        assert!((80..=120).contains(&retired), "retired {retired}");
    }

    #[test]
    fn independent_loads_overlap() {
        let src = Box::new(VecSource::new(
            "mlp",
            vec![
                Instr::load(0x400000, VirtAddr::new(0x1000), Some(8), [Some(1), None]),
                Instr::load(0x400004, VirtAddr::new(0x2000), Some(9), [Some(1), None]),
                Instr::load(0x400008, VirtAddr::new(0x3000), Some(10), [Some(1), None]),
                Instr::load(0x40000c, VirtAddr::new(0x4000), Some(11), [Some(1), None]),
            ],
        ));
        let mut core = Core::new(0, CoreConfig::baseline(), src);
        let mut mem = StubMem::new(100, ServedBy::Dram);
        run(&mut core, &mut mem, 10_000);
        // 4 independent loads per "iteration": far more than serial rate.
        assert!(core.retired() > 300, "retired {}", core.retired());
    }

    #[test]
    fn offchip_blocking_attribution() {
        let src = Box::new(VecSource::new(
            "chase",
            vec![Instr::load(
                0x400000,
                VirtAddr::new(0x1000),
                Some(1),
                [Some(1), None],
            )],
        ));
        let mut core = Core::new(0, CoreConfig::baseline(), src);
        let mut mem = StubMem::new(200, ServedBy::Dram);
        run(&mut core, &mut mem, 5_000);
        let s = core.stats();
        assert!(s.offchip_blocking > 0, "serial off-chip loads must block");
        assert!(s.stall_cycles_offchip > s.offchip_blocking * 100);
        assert_eq!(s.offchip_nonblocking + s.offchip_blocking, s.served_dram);
    }

    #[test]
    fn l1_hits_do_not_count_offchip() {
        let src = Box::new(VecSource::new(
            "l1",
            vec![Instr::load(
                0x400000,
                VirtAddr::new(0x1000),
                Some(1),
                [Some(1), None],
            )],
        ));
        let mut core = Core::new(0, CoreConfig::baseline(), src);
        let mut mem = StubMem::new(5, ServedBy::L1);
        run(&mut core, &mut mem, 2_000);
        assert_eq!(core.stats().served_dram, 0);
        assert!(core.stats().served_l1 > 100);
        assert_eq!(core.stats().stall_cycles_offchip, 0);
    }

    #[test]
    fn branch_mispredictions_cost_cycles() {
        // Alternating hard-to-warm pattern vs always-taken: the mispredict
        // penalty must reduce IPC under a cold predictor.
        let taken_loop = Box::new(VecSource::new(
            "b",
            vec![
                Instr::alu(0x400000, Some(1), [None, None]),
                Instr::branch(0x400004, true, Some(1)),
            ],
        ));
        let mut warm = Core::new(0, CoreConfig::baseline(), taken_loop);
        let mut mem = StubMem::new(5, ServedBy::L1);
        run(&mut warm, &mut mem, 2_000);
        let warm_ipc = warm.stats().ipc(2_000);
        assert!(
            warm_ipc > 2.0,
            "predictable branches should be near-free, got {warm_ipc}"
        );
        // Misprediction counter sanity.
        assert!(warm.stats().branch_mispredicts < warm.stats().branches / 10);
    }

    #[test]
    fn stores_issue_at_retire() {
        let src = Box::new(VecSource::new(
            "st",
            vec![Instr::store(
                0x400000,
                VirtAddr::new(0x2000),
                [Some(1), None],
            )],
        ));
        let mut core = Core::new(0, CoreConfig::baseline(), src);
        let mut mem = StubMem::new(5, ServedBy::L1);
        run(&mut core, &mut mem, 100);
        assert!(!mem.stores.is_empty());
        assert_eq!(core.stats().stores as usize, mem.stores.len());
    }

    #[test]
    fn rob_occupancy_bounded() {
        let src = Box::new(VecSource::new(
            "chase",
            vec![Instr::load(
                0x400000,
                VirtAddr::new(0x1000),
                Some(1),
                [Some(1), None],
            )],
        ));
        let cfg = CoreConfig {
            rob_size: 64,
            ..CoreConfig::baseline()
        };
        let mut core = Core::new(0, cfg, src);
        let mut mem = StubMem::new(10_000, ServedBy::Dram); // never completes in window
        for now in 0..200 {
            core.tick(now, &mut mem);
            assert!(core.rob_occupancy() <= 64);
        }
    }

    #[test]
    fn lq_bounds_inflight_loads() {
        let src = Box::new(VecSource::new(
            "mlp",
            vec![Instr::load(
                0x400000,
                VirtAddr::new(0x1000),
                Some(8),
                [None, None],
            )],
        ));
        let cfg = CoreConfig {
            lq_size: 4,
            ..CoreConfig::baseline()
        };
        let mut core = Core::new(0, cfg, src);
        let mut mem = StubMem::new(10_000, ServedBy::Dram);
        for now in 0..100 {
            core.tick(now, &mut mem);
        }
        assert!(
            mem.issued.len() <= 4,
            "LQ cap violated: {}",
            mem.issued.len()
        );
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut core = Core::new(0, CoreConfig::baseline(), alu_loop());
        let mut mem = StubMem::new(5, ServedBy::L1);
        run(&mut core, &mut mem, 100);
        assert!(core.retired() > 0);
        core.reset_stats();
        assert_eq!(core.retired(), 0);
    }

    #[test]
    #[should_panic]
    fn finish_unknown_token_panics() {
        let mut core = Core::new(0, CoreConfig::baseline(), alu_loop());
        core.finish_load(999, 0, ServedBy::L1);
    }

    #[test]
    fn next_work_at_reflects_core_state() {
        // A fresh core can fetch immediately.
        let core = Core::new(0, CoreConfig::baseline(), alu_loop());
        assert_eq!(core.next_work_at(), 0);

        // A core whose tiny ROB is full of memory-blocked work reports
        // "never" — only finish_load can unblock it.
        let src = Box::new(VecSource::new(
            "chase",
            vec![Instr::load(
                0x400000,
                VirtAddr::new(0x1000),
                Some(1),
                [Some(1), None],
            )],
        ));
        let cfg = CoreConfig {
            rob_size: 8,
            ..CoreConfig::baseline()
        };
        let mut core = Core::new(0, cfg, src);
        let mut mem = StubMem::new(1_000_000, ServedBy::Dram);
        for now in 0..10 {
            core.tick(now, &mut mem);
        }
        assert_eq!(core.rob_occupancy(), 8);
        assert_eq!(core.next_work_at(), Cycle::MAX);
    }

    #[test]
    fn skip_stalled_matches_ticked_stalls() {
        // Two identical cores, both blocked on the same off-chip load:
        // one ticks through 500 dead cycles, the other skips them in one
        // call. Their statistics must be indistinguishable afterwards.
        let mk = || {
            let src = Box::new(VecSource::new(
                "chase",
                vec![Instr::load(
                    0x400000,
                    VirtAddr::new(0x1000),
                    Some(1),
                    [Some(1), None],
                )],
            ));
            let cfg = CoreConfig {
                rob_size: 8,
                ..CoreConfig::baseline()
            };
            Core::new(0, cfg, src)
        };
        let mut ticked = mk();
        let mut skipped = mk();
        let mut mem_t = StubMem::new(1_000_000, ServedBy::Dram);
        let mut mem_s = StubMem::new(1_000_000, ServedBy::Dram);
        for now in 0..10 {
            ticked.tick(now, &mut mem_t);
            skipped.tick(now, &mut mem_s);
        }
        assert_eq!(ticked.next_work_at(), Cycle::MAX);

        for now in 10..510 {
            ticked.tick(now, &mut mem_t);
        }
        skipped.skip_stalled(500);

        // Deliver the head load in both at the same cycle and retire it.
        let tok = mem_t.issued.first().expect("head load issued").token;
        ticked.finish_load(tok, 510, ServedBy::Dram);
        skipped.finish_load(tok, 510, ServedBy::Dram);
        ticked.tick(510, &mut mem_t);
        skipped.tick(510, &mut mem_s);

        assert_eq!(ticked.retired(), 1);
        assert_eq!(ticked.stats(), skipped.stats());
        assert!(ticked.stats().stall_cycles_offchip >= 500);
    }

    #[test]
    fn load_issue_carries_pc_and_vaddr() {
        let src = Box::new(VecSource::new(
            "ld",
            vec![Instr::load(
                0xdead0,
                VirtAddr::new(0xbeef00),
                Some(2),
                [None, None],
            )],
        ));
        let mut core = Core::new(3, CoreConfig::baseline(), src);
        let mut mem = StubMem::new(5, ServedBy::L1);
        run(&mut core, &mut mem, 20);
        let first = mem.issued.first().expect("a load must issue");
        assert_eq!(first.pc, 0xdead0);
        assert_eq!(first.vaddr.raw(), 0xbeef00);
        assert_eq!(first.core, 3);
    }
}
