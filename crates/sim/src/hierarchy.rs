//! The memory-hierarchy engine: a configurable pipeline of cache levels,
//! prefetchers, off-chip predictors, the Hermes datapath, and DRAM —
//! implementing the core-facing [`MemoryPort`].
//!
//! ## Topology
//!
//! The hierarchy is a `Vec<CacheLevel>` built from
//! [`SystemConfig::levels`] (innermost level first). The default
//! is the paper's three-level stack — private L1D, private L2, shared
//! LLC — but any depth ≥ 2 works. Sharing and role both follow from the
//! position in the stack: every level but the last is private per core,
//! and the last is shared by all cores (its configured size is per core
//! and scales with the core count).
//!
//! * **first level** (private) — the level the core pipeline and the
//!   page walker talk to: its MSHRs hold the three kinds of first-level
//!   request (loads, store write-allocates, walker reads), and it is
//!   where full-MSHR requests park in the retry queue;
//! * **intermediate levels** (private) — pure lookup/merge stages;
//! * **last level** (shared) — hosts the data prefetchers, feeds
//!   the memory controller, and defines the *off-chip boundary*: a load
//!   missing here is the positive class Hermes predicts
//!   ([`hermes_cpu::ServedBy::Dram`]), regardless of depth.
//!
//! Hermes prediction fires when the load issues at the first level and
//! trains when the load resolves, exactly as in the fixed pipeline.
//!
//! ## Load path timing
//!
//! Latencies follow Table 4's load-to-use numbers, generalised per level:
//! a first-level hit completes at issue+`lat₀`; a lookup at level *i*+1
//! is scheduled `lat_{i+1}` cycles after the miss at level *i* (so the
//! default's L2 hit lands at issue+15 and LLC hit at issue+55); a
//! last-level miss enters the memory controller's read queue with the
//! full on-chip latency already paid and completes when DRAM delivers. A
//! Hermes request for a predicted-off-chip load enters the read queue at
//! issue+6 (Hermes-O) or issue+18 (Hermes-P) instead — the regular miss
//! later *merges* with it at the controller, which is precisely how
//! Hermes hides the on-chip hierarchy latency (§6.2.1). A completed
//! Hermes read that no demand merged into is dropped without filling any
//! cache (§6.2.2), keeping the hierarchy coherent on a misprediction.
//!
//! ## Fills and evictions
//!
//! A fill returning from DRAM (or from a hit at an outer level) walks the
//! stack inward, filling every level on the requesting core's path and
//! completing each level's MSHR entry — resuming merged requesters from
//! other cores where a shared level joined their paths. Dirty victims
//! propagate outward level by level and become DRAM writebacks when the
//! last level evicts them. Prefetches fill only the last level (they are
//! last-level prefetchers, Table 4). TTP observes every fill and every
//! last-level eviction; the active prefetcher observes last-level demand
//! accesses and receives usefulness feedback.
//!
//! ## Coherence
//!
//! With [`SystemConfig::coherence`] unset the hierarchy is coherence-free
//! — correct only while cores touch disjoint physical lines, which every
//! historical workload guarantees — and bit-identical to the
//! pre-coherence simulator. With a [`hermes_cache::CoherenceConfig`], a
//! directory-style MESI protocol runs at the shared last level:
//!
//! * the last level's tags carry an **inclusive sharer directory** (a
//!   per-line core bitmap), updated as fills travel toward cores;
//! * a **store hit** on a line with remote sharers sends a
//!   write-permission upgrade through the event queue (the
//!   `inv_latency` round trip) and invalidates the remote copies; a
//!   **store miss** piggybacks its invalidations on the fetch (RFO);
//! * a **read** of a line a remote core holds Modified pays a dirty
//!   intervention: the owner is downgraded, the shared level absorbs the
//!   dirty data, and the requester waits the same round-trip latency;
//! * a shared-level **eviction back-invalidates** every private copy so
//!   the directory stays inclusive, and a fill that races such a
//!   back-invalidation delivers data without caching it.
//!
//! MESI states are derived, not stored: Modified = dirty private copy,
//! Exclusive/Shared = clean copy with/without the directory listing other
//! cores. Directory bits may over-approximate after silent clean private
//! evictions (resolved by spurious invalidations), never
//! under-approximate.
//!
//! ## Address translation
//!
//! With `SystemConfig::vm` unset, translation is the historical free
//! stateless hash ([`hermes_vm::page_map::translate`]) folded into the
//! L1 access — bit-identical to the pre-vm simulator. With a
//! [`hermes_vm::VmConfig`], translation timing is real:
//!
//! * a **dTLB hit** is accessed in parallel with the L1 (§3.1 of the
//!   paper) and costs nothing extra — the classic path;
//! * a **dTLB miss, STLB hit** defers the access by the STLB latency and
//!   refills the dTLB;
//! * an **STLB miss** starts (or joins) a hardware page walk: the walker
//!   issues the radix levels' PTE reads *through this cache hierarchy*,
//!   entering it by the same first-level access as loads and stores —
//!   they occupy MSHRs, fill and pollute the caches, park in the retry
//!   queue when tables are full, and can themselves go off-chip — with a
//!   per-core page-walk cache short-circuiting the levels it has seen
//!   before. Same-page requests merge into the walk in flight.
//!
//! The deferred load's POPET prediction still happens at issue, off the
//! virtual address (§6.1.3); what waits for the PFN is the *direct DRAM
//! request*: a predicted-off-chip load's Hermes read issues at
//! `max(issue + hermes latency, walk completion)`, reproducing the
//! paper's observation that Hermes-O cannot fire before the physical
//! address is known. Off-chip load latency keeps counting from original
//! issue, so walk time shows up exactly where a real core would feel it.
//!
//! ## Retry queue
//!
//! Every first-level request — a load, a store or a walker read, one
//! `Waiter` each — enters through `Hierarchy::access_first`, the one
//! place the first level accepts or refuses an access. A request refused
//! by a full MSHR table parks in a retry queue and re-executes the full
//! access (tag lookup included, which is deliberately re-charged to the
//! power model or, for a walker read, to `walk_mem_accesses`) after
//! `MSHR_RETRY` cycles. The queue's order is the historical `Vec` +
//! swap-remove scan's, to which the regression goldens are bit-for-bit
//! sensitive, but no `Vec` holds it: each entry lives in the bucket of
//! its due cycle, so a sweep that refuses a whole bucket moves none of
//! its entries.
//!
//! * **Buckets.** Every entry parks `MSHR_RETRY` cycles after the access
//!   it retries, and both schedulers tick the hierarchy exactly at
//!   [`Hierarchy::next_event_at`], so a sweep's due set is one bucket of
//!   entries sharing a due cycle, and at most `MSHR_RETRY` buckets are
//!   live. A bucket holds its entries in queue order next to their
//!   ascending queue positions: the queue is the buckets merged by
//!   position, and its tail is the entry at position `len − 1`. A bucket
//!   also counts its entries per core and requester kind, and keeps a
//!   per-core *admitted* flag, set when a line parked in the bucket is
//!   allocated in, or filled into, that core's first level.
//! * **Refusal test.** A due retry is refused again iff its core's MSHR
//!   table is full and its line is neither in that table nor in the
//!   first-level array. A refused attempt only bumps counters (a miss
//!   leaves the array untouched), so re-parking it needs no attempt.
//! * **Whole-bucket re-park.** When every due entry is refused, the
//!   scan's swap-removes and pushes keep e₁…eₖ (at p₁<…<pₖ) in order and
//!   only move them, to p₂…pₖ and `len − 1`, while the tail, a later
//!   bucket's entry, lands on p₁. So the sweep pops the due bucket's
//!   first position and appends the last one (the positions are a ring
//!   buffer), relabels the bucket `now + MSHR_RETRY`, and moves the tail
//!   within its own bucket: one insertion, whatever k, and no due entry
//!   moves. With the tail among the due entries the positions stay and
//!   the order becomes e₁, eₖ, e₂, …, eₖ₋₁: one move within the bucket.
//! * **Walk.** Any other sweep visits the due entries once, in queue
//!   order, and does at each what the scan's swap-remove does there: the
//!   tail lands on the entry's position, and a refused entry becomes the
//!   tail. A re-parked tail is held in a *carry* until the walk lands it
//!   on a due position; the landed entries fill the due bucket's slots
//!   the walk has passed, which become the re-parked bucket. So a run of
//!   refused entries shifts one slot into them: the carry lands on the
//!   run's first position, each entry on the next one's, and the last
//!   becomes the carry. A due tail that lands is attempted at its new
//!   position next, as the scan's loop does when a swap-remove pulls a
//!   due tail forward, and a later bucket's tail moves within its
//!   bucket.
//! * **Per-core verdict.** Only a core with its admitted flag set in a
//!   due bucket takes the refusal test. Every other core's due lines are
//!   in neither its table nor its array, and during the walk only its own
//!   admissions change either (an admission runs `access_first` for its
//!   own core, which never touches another core's first level
//!   synchronously). So such a core's entries are refused while its table
//!   is full, untested, and admitted while it is not — except that once
//!   it has been admitted for a line in the sweep, its later entries for
//!   that line merge. A core whose table is full at the start and that
//!   admits nothing refuses all of its entries in bulk, and when every
//!   core with due entries does, the sweep is a whole-bucket re-park. The
//!   counters of refused attempts are added per core in one call, unless
//!   the probe is on: it replays each.
//!
//! The minimum due cycle over the live buckets gates the sweep (a tick
//! with nothing due costs one comparison) and feeds
//! [`Hierarchy::next_event_at`] for idle-cycle fast-forward.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hermes::{
    CohEventTable, CohHints, Hmp, LoadContext, OffChipPredictor, Popet, Prediction, PredictorKind,
    PredictorStats, SpecReadFilter, Ttp,
};
use hermes_cache::{CacheLevel, LevelStats, Mesi};
use hermes_cpu::{LoadIssue, MemoryPort, ServedBy, StoreIssue};
use hermes_dram::{Completion, MemoryController, ReqKind};
use hermes_prefetch::{self as pf, AccessCtx, PrefetchReq, Prefetcher};
use hermes_probe::{IntervalInput, LatClass, Probe, ProbeReport};
use hermes_types::{CoreId, Cycle, FastMap, FastSet, LineAddr, PhysAddr, VirtAddr};
use hermes_vm::page_map::translate;
use hermes_vm::{PageMap, Tlb, VmConfig, WalkCache};

use crate::config::SystemConfig;

/// Maximum prefetch candidates accepted per triggering access.
const MAX_PF_PER_ACCESS: usize = 32;

/// Last-level MSHR registers held back from prefetches so demands never
/// starve.
const PF_MSHR_RESERVE: usize = 8;

/// Cycles a first-level access rejected by a full MSHR table waits in the
/// retry queue before it re-executes.
const MSHR_RETRY: Cycle = 4;

/// An MSHR waiter payload; which variants appear at a level follows from
/// the level's role (see module docs). `Load`, `Store` and `Walk` are
/// the three kinds of first-level request: [`Hierarchy::access_first`]
/// takes one, the retry queue and deferred translations hold one, and
/// the first level's MSHRs resume one when the data arrives.
#[derive(Debug, Clone, Copy)]
enum Waiter {
    /// First level: a core load awaiting data.
    Load { token: u64, pc: u64 },
    /// First level: a store's write-allocate fetch; `pc` re-issues the
    /// access when a coherence upgrade loses its race.
    Store { pc: u64 },
    /// First level: a page-table-walker read; completion advances the
    /// walk to its next radix level (or finishes the translation).
    Walk { walk: u64 },
    /// Intermediate level: a merged request chain from `core`, resumed
    /// towards the core when the fill arrives.
    Merge { core: usize },
    /// Last level: a demand miss from `core` (the `pc` feeds SHiP's fill
    /// signature).
    Demand { core: usize, pc: u64 },
    /// Last level: a prefetch-only requester.
    Prefetch,
}

impl Waiter {
    /// The PC a first-level request carries down the stack: the
    /// instruction's for a load or store, 0 for a walker read.
    fn pc(self) -> u64 {
        match self {
            Waiter::Load { pc, .. } | Waiter::Store { pc } => pc,
            _ => 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Demand (or walker) lookup reaching `level` (≥ 1; the first level
    /// is accessed synchronously at issue).
    Lookup {
        level: usize,
        ctx: LookupCtx,
    },
    HermesIssue {
        core: usize,
        line: LineAddr,
    },
    CompleteLoad {
        core: usize,
        token: u64,
        served: ServedBy,
    },
    /// The walker's previous action for `walk` resolved: issue the next
    /// PTE access, or complete the translation when none remain.
    WalkStep {
        walk: u64,
    },
    /// Coherence: a store hit on a Shared line finished its directory
    /// round trip — invalidate remote copies and take write permission
    /// (or, if the copy was lost while the request travelled, redo the
    /// store access).
    Upgrade {
        core: usize,
        line: LineAddr,
        pc: u64,
    },
    /// Coherence: a last-level hit whose data had to be forwarded out of
    /// a remote Modified copy (dirty intervention) resumes its descent
    /// toward the requester after the intervention latency.
    CohResume {
        core: usize,
        line: LineAddr,
        served: ServedBy,
    },
}

#[derive(Debug)]
struct HeapEntry {
    at: Cycle,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A first-level request deferred by MSHR exhaustion. It waits in the
/// retry queue's bucket of its due cycle.
#[derive(Debug, Clone, Copy)]
struct Retry {
    core: usize,
    line: LineAddr,
    waiter: Waiter,
}

impl Retry {
    /// The requester counter an attempt charges: 0 for a load or store
    /// (`l1_accesses`), 1 for a walker read (`walk_mem_accesses`).
    fn kind(&self) -> usize {
        matches!(self.waiter, Waiter::Walk { .. }) as usize
    }
}

/// The parked-count slot of due cycle `at`. A bucket re-parked by a
/// sweep at its due cycle moves `MSHR_RETRY` cycles on and keeps its
/// slot.
fn slot(at: Cycle) -> usize {
    (at % MSHR_RETRY) as usize
}

/// The retries sharing one due cycle, in queue order (see module docs).
#[derive(Debug)]
struct Bucket {
    at: Cycle,
    /// Queue positions of the entries, ascending: a ring buffer, so that
    /// a whole-bucket re-park pops the first and appends the last.
    pos: VecDeque<usize>,
    /// The entries, `rs[j]` at position `pos[j]`: a ring buffer too, so
    /// that the tail lands near either end with few moves.
    rs: VecDeque<Retry>,
    /// Entries per core, by [`Retry::kind`].
    kinds: Vec<[u32; 2]>,
    /// Bit `c`: a line core `c` parked in this bucket's slot was
    /// allocated in, or filled into, `c`'s first level since the entries
    /// were last attempted, so one of them may be admitted.
    admitted: u64,
}

impl Bucket {
    fn new(cores: usize) -> Self {
        Self {
            at: 0,
            pos: VecDeque::new(),
            rs: VecDeque::new(),
            kinds: vec![[0; 2]; cores],
            admitted: 0,
        }
    }

    /// Takes out the last entry, which holds queue position `last`.
    fn pop(&mut self, last: usize) -> Retry {
        let p = self.pos.pop_back();
        debug_assert_eq!(p, Some(last), "the tail is its bucket's last entry");
        self.rs.pop_back().expect("a non-empty bucket")
    }

    /// Inserts `r` at queue position `p`, among the entries in order.
    fn insert(&mut self, p: usize, r: Retry) {
        let j = self.pos.partition_point(|&x| x < p);
        self.pos.insert(j, p);
        self.rs.insert(j, r);
    }

    /// Moves `other`'s entries in, merged by position, with its counts
    /// and admitted flags; leaves `other` empty with zero counts.
    fn absorb(&mut self, other: &mut Bucket) {
        let mut all: Vec<(usize, Retry)> = self.pos.drain(..).zip(self.rs.drain(..)).collect();
        all.extend(other.pos.drain(..).zip(other.rs.drain(..)));
        all.sort_unstable_by_key(|&(p, _)| p);
        (self.pos, self.rs) = all.into_iter().unzip();
        for (k, o) in self.kinds.iter_mut().zip(&mut other.kinds) {
            k[0] += o[0];
            k[1] += o[1];
            *o = [0; 2];
        }
        self.admitted |= std::mem::take(&mut other.admitted);
    }
}

/// The MSHR retry queue: its entries live in their due cycles' buckets,
/// and the historical scan order is the buckets merged by position (see
/// module docs).
#[derive(Debug)]
struct RetryQueue {
    /// One bucket per due cycle, unordered. During a sweep, the buckets
    /// not due.
    buckets: Vec<Bucket>,
    /// Emptied buckets, kept for reuse.
    spare: Vec<Bucket>,
    /// Entries in the queue, the carry included.
    len: usize,
    /// Parked entries per `(core, line)`, by [`slot`] of their due cycle.
    parked: FastMap<(usize, LineAddr), [u32; MSHR_RETRY as usize]>,
    cores: usize,
    /// The running sweep's due entries, ascending by position, in a
    /// bucket already due `now + MSHR_RETRY`: its counts are those of the
    /// entries not admitted (so far), and admissions flag it. The first
    /// `kept` slots hold the entries the sweep re-parked, the slots from
    /// the walk's index on those it has still to attempt.
    due: Bucket,
    kept: usize,
    /// The re-parked entry at the queue's last position, held out of
    /// `due` until the walk passes it a position or the sweep ends.
    carry: Option<Retry>,
    /// The bucket already due `now + MSHR_RETRY` when the sweep opened,
    /// which the re-parked entries join when it closes.
    join: Option<usize>,
    /// The `(core, line)` pairs the running sweep admitted for cores
    /// that take no refusal test.
    merges: Vec<(usize, LineAddr)>,
}

impl RetryQueue {
    fn new(cores: usize) -> Self {
        assert!(cores <= 64, "admitted flags are a 64-bit core bitmap");
        Self {
            buckets: Vec::new(),
            spare: Vec::new(),
            len: 0,
            parked: FastMap::default(),
            cores,
            due: Bucket::new(cores),
            kept: 0,
            carry: None,
            join: None,
            merges: Vec::new(),
        }
    }

    /// Parks `r` at the queue's end, due at `at`.
    fn push(&mut self, at: Cycle, r: Retry) {
        let i = match self.buckets.iter().position(|b| b.at == at) {
            Some(i) => i,
            None => {
                let mut b = self.spare.pop().unwrap_or_else(|| Bucket::new(self.cores));
                b.at = at;
                b.admitted = 0;
                self.buckets.push(b);
                self.buckets.len() - 1
            }
        };
        let b = &mut self.buckets[i];
        b.pos.push_back(self.len);
        b.rs.push_back(r);
        b.kinds[r.core][r.kind()] += 1;
        self.len += 1;
        self.parked.entry((r.core, r.line)).or_default()[slot(at)] += 1;
    }

    /// Earliest due cycle (`Cycle::MAX` when empty).
    fn min_at(&self) -> Cycle {
        self.buckets
            .iter()
            .map(|b| b.at)
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// `line` was allocated in, or filled into, `core`'s first level:
    /// flags every bucket whose slot holds an entry of `core` for it,
    /// the running sweep's included.
    fn note_admitted(&mut self, core: usize, line: LineAddr) {
        if self.len == 0 {
            return;
        }
        if let Some(n) = self.parked.get(&(core, line)) {
            let sweep = (!self.due.pos.is_empty()).then_some(&mut self.due);
            for b in self.buckets.iter_mut().chain(sweep) {
                if n[slot(b.at)] > 0 {
                    b.admitted |= 1 << core;
                }
            }
        }
    }

    /// Opens a sweep at `now`: moves the due buckets' entries into
    /// `due`, merged by position, relabels it due `now + MSHR_RETRY` and
    /// moves the entries' parked counts to that slot (the same one unless
    /// ticks were skipped). Returns the bitmaps of the cores with due
    /// entries and of those cores' admitted flags.
    fn open_sweep(&mut self, now: Cycle) -> (u64, u64) {
        let at = now + MSHR_RETRY;
        debug_assert!(self.due.pos.is_empty() && self.carry.is_none());
        let mut admitted = 0;
        let mut i = 0;
        while i < self.buckets.len() {
            if self.buckets[i].at > now {
                i += 1;
                continue;
            }
            let mut b = self.buckets.swap_remove(i);
            admitted |= b.admitted;
            if slot(b.at) != slot(at) {
                for r in &b.rs {
                    let n = self.parked.get_mut(&(r.core, r.line)).expect("parked");
                    n[slot(b.at)] -= 1;
                    n[slot(at)] += 1;
                }
            }
            if self.due.pos.is_empty() {
                std::mem::swap(&mut self.due, &mut b);
            } else {
                self.due.absorb(&mut b);
            }
            self.spare.push(b);
        }
        self.due.at = at;
        self.due.admitted = 0;
        self.join = self.buckets.iter().position(|b| b.at == at);
        let cores = self
            .due
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k != [0; 2])
            .fold(0, |m, (c, _)| m | 1 << c);
        (cores, admitted)
    }

    /// Re-parks every due entry, all refused: the scan keeps their order
    /// and only their positions change (see module docs), so no due
    /// entry moves unless the tail is one. Returns how many entries were
    /// re-parked.
    fn repark_all(&mut self) -> usize {
        let last = self.len - 1;
        let d = &mut self.due;
        if d.pos.back() == Some(&last) {
            // e₁, eₖ, e₂, …, eₖ₋₁ on the same positions.
            if d.rs.len() > 1 {
                let t = d.rs.pop_back().expect("due entries");
                d.rs.insert(1, t);
            }
        } else {
            // e₁…eₖ move to p₂…pₖ and the last position; the tail, a
            // later bucket's entry, lands on p₁.
            let p = d.pos.pop_front().expect("due entries");
            d.pos.push_back(last);
            let b = self.tail_bucket();
            let t = self.buckets[b].pop(last);
            self.buckets[b].insert(p, t);
        }
        self.kept = self.due.rs.len();
        self.kept
    }

    /// The bucket not due whose last entry is the queue's tail.
    fn tail_bucket(&self) -> usize {
        let last = self.len - 1;
        self.buckets
            .iter()
            .position(|b| b.pos.back() == Some(&last))
            .expect("a bucket holds the tail")
    }

    /// The scan's swap-remove at the position of due entry `i`, taken
    /// out and not the tail: the tail lands there. It is the carry, the
    /// last due entry or a later bucket's last entry (a kept entry's
    /// position is below every due one's, so below the tail's). A due
    /// tail is then the entry at `i`, still to attempt, and this returns
    /// true.
    fn land_tail(&mut self, i: usize) -> bool {
        let (p, last) = (self.due.pos[i], self.len - 1);
        if let Some(c) = self.carry.take() {
            self.due.pos[self.kept] = p;
            self.due.rs[self.kept] = c;
            self.kept += 1;
            false
        } else if self.due.pos.back() == Some(&last) {
            self.due.pos.pop_back();
            self.due.rs[i] = self.due.rs.pop_back().expect("due entries");
            true
        } else {
            let b = self.tail_bucket();
            let t = self.buckets[b].pop(last);
            self.buckets[b].insert(p, t);
            false
        }
    }

    /// Drops admitted due entry `r` from the parked counts (in the slot
    /// [`RetryQueue::open_sweep`] moved them to) and the due counts.
    fn unpark(&mut self, r: &Retry) {
        self.due.kinds[r.core][r.kind()] -= 1;
        let key = (r.core, r.line);
        let n = self.parked.get_mut(&key).expect("parked");
        n[slot(self.due.at)] -= 1;
        if *n == [0; MSHR_RETRY as usize] {
            self.parked.remove(&key);
        }
    }

    /// Closes a sweep: the kept entries and the carry, at the last
    /// position, are the re-parked bucket; it joins the bucket already
    /// due at its cycle, if any, or takes its own place.
    fn close_sweep(&mut self) {
        let d = &mut self.due;
        d.pos.truncate(self.kept);
        d.rs.truncate(self.kept);
        if let Some(c) = self.carry.take() {
            d.pos.push_back(self.len - 1);
            d.rs.push_back(c);
        }
        self.kept = 0;
        self.merges.clear();
        if d.pos.is_empty() {
            debug_assert!(d.kinds.iter().all(|k| *k == [0; 2]));
        } else if let Some(j) = self.join {
            self.buckets[j].absorb(&mut self.due);
        } else {
            let spare = self.spare.pop().unwrap_or_else(|| Bucket::new(self.cores));
            self.buckets.push(std::mem::replace(&mut self.due, spare));
        }
    }

    /// Panics unless the buckets hold a queue: distinct due cycles, the
    /// positions across all buckets exactly `0..len` and ascending within
    /// each, and the per-bucket counts and parked counts equal to a
    /// recount; no sweep open, and the spare buckets empty.
    fn check(&self) {
        assert!(
            self.due.pos.is_empty() && self.due.rs.is_empty() && self.carry.is_none(),
            "retry sweep left open"
        );
        let empty = |b: &Bucket| b.pos.is_empty() && b.kinds.iter().all(|k| *k == [0; 2]);
        assert!(
            empty(&self.due) && self.spare.iter().all(empty),
            "spare not empty"
        );
        let mut all: Vec<usize> = Vec::with_capacity(self.len);
        let mut parked: FastMap<_, [u32; MSHR_RETRY as usize]> = FastMap::default();
        for (i, b) in self.buckets.iter().enumerate() {
            assert!(!b.pos.is_empty(), "empty bucket due at {}", b.at);
            assert_eq!(b.pos.len(), b.rs.len(), "bucket due at {}", b.at);
            assert!(
                self.buckets[..i].iter().all(|o| o.at != b.at),
                "two buckets due at {}",
                b.at
            );
            assert!(
                b.pos.iter().zip(b.pos.iter().skip(1)).all(|(x, y)| x < y),
                "positions not ascending in the bucket due at {}",
                b.at
            );
            let mut kinds = vec![[0; 2]; self.cores];
            for r in &b.rs {
                kinds[r.core][r.kind()] += 1;
                parked.entry((r.core, r.line)).or_default()[slot(b.at)] += 1;
            }
            assert_eq!(b.kinds, kinds, "counts of the bucket due at {}", b.at);
            all.extend(&b.pos);
        }
        all.sort_unstable();
        assert!(all.into_iter().eq(0..self.len), "positions are not 0..len");
        assert_eq!(self.parked, parked, "parked counts diverged");
    }

    /// The queue in the historical scan's order: the buckets' entries
    /// merged by position, each with its due cycle.
    #[cfg(test)]
    fn order(&self) -> Vec<(Cycle, Retry)> {
        let mut q = vec![None; self.len];
        for b in &self.buckets {
            for (&p, &r) in b.pos.iter().zip(&b.rs) {
                q[p] = Some((b.at, r));
            }
        }
        q.into_iter()
            .map(|e| e.expect("a hole in the queue"))
            .collect()
    }
}

/// What a retry sweep needs from the first level it re-attempts
/// accesses into: [`Hierarchy`], or a fake in the unit test that checks
/// the sweep against the historical scan.
trait FirstLevel {
    fn retries(&mut self) -> &mut RetryQueue;
    /// Whether every refused attempt must be replayed one by one (the
    /// probe records each repeated miss).
    fn replay_each(&self) -> bool;
    fn mshr_full(&self, core: usize) -> bool;
    /// The exact refusal test (see module docs).
    fn refuses(&self, r: &Retry) -> bool;
    /// Charges one refused attempt of `r` at `now`.
    fn refused(&mut self, r: &Retry, now: Cycle);
    /// Charges refused attempts of `core`, counted by [`Retry::kind`].
    fn refused_many(&mut self, core: usize, kinds: [u32; 2]);
    /// Re-attempts `r`, which the refusal test admits.
    fn admit(&mut self, r: Retry, now: Cycle);
}

/// Sweeps the retries due at `now` with the historical scan's outcome
/// (see module docs): in one step when every due entry is refused
/// untested, else one walk over them in queue order. Returns how many
/// due entries were refused without the exact refusal test.
fn sweep_retries<F: FirstLevel>(f: &mut F, now: Cycle) -> usize {
    let replay = f.replay_each();
    let (cores, flagged) = f.retries().open_sweep(now);
    // A core flagged in a due bucket takes the exact refusal test. Any
    // other core's due lines are in neither its MSHR table nor its
    // array, and only its own admissions change either during the walk:
    // its entries are refused while the table is full, except those for
    // a line it was admitted for in this sweep (`merges`), which merge.
    let mut full = sharer_bits(cores & !flagged)
        .filter(|&c| f.mshr_full(c))
        .fold(0u64, |m, c| m | 1 << c);
    let mut merging = 0u64;
    if cfg!(debug_assertions) {
        let due: Vec<Retry> = f.retries().due.rs.iter().copied().collect();
        for r in due.iter().filter(|r| full >> r.core & 1 == 1) {
            assert!(f.refuses(r), "verdict on an admissible retry");
        }
    }
    let skipped = if cores & !full == 0 && !replay {
        f.retries().repark_all()
    } else {
        let mut skipped = 0;
        let mut i = 0;
        while i < f.retries().due.pos.len() {
            // One attempt at the scan's next due position: its
            // swap-remove, then a push if refused. A due tail landing
            // there is attempted next at the same position.
            let q = f.retries();
            let (p, r) = (q.due.pos[i], q.due.rs[i]);
            let tail = p + 1 == q.len;
            let core = 1u64 << r.core;
            let tested = flagged & core != 0;
            let refuses = if tested {
                f.refuses(&r)
            } else {
                full & core != 0 && (merging & core == 0 || !q.merges.contains(&(r.core, r.line)))
            };
            debug_assert_eq!(refuses, f.refuses(&r), "refusal rule on {r:?}");
            let q = f.retries();
            let stays = if tail {
                q.due.pos.pop_back();
                q.due.rs.pop_back();
                false
            } else {
                q.land_tail(i)
            };
            if !stays {
                i += 1;
            }
            if refuses {
                q.carry = Some(r);
                skipped += usize::from(!tested);
                if replay {
                    f.refused(&r, now);
                }
            } else {
                q.unpark(&r);
                q.len -= 1;
                if !tested {
                    q.merges.push((r.core, r.line));
                }
                f.admit(r, now);
                if !tested {
                    merging |= core;
                    if f.mshr_full(r.core) {
                        full |= core;
                    }
                }
            }
        }
        skipped
    };
    if !replay {
        for c in sharer_bits(cores) {
            let kinds = f.retries().due.kinds[c];
            if kinds != [0; 2] {
                f.refused_many(c, kinds);
            }
        }
    }
    f.retries().close_sweep();
    if cfg!(debug_assertions) {
        f.retries().check();
    }
    skipped
}

/// What the predictor said about an in-flight load, kept until training.
#[derive(Debug, Clone, Copy)]
struct LoadRec {
    ctx: LoadContext,
    pred: Prediction,
    issue: Cycle,
    /// Whether a speculative Hermes DRAM read was actually launched for
    /// this load (predicted off-chip, not passive, and not suppressed by
    /// the second-level filter) — the denominator of the useful/wasted
    /// speculative-read accounting.
    fired: bool,
}

enum PredictorImpl {
    None,
    Popet(Box<Popet>),
    Hmp(Box<Hmp>),
    Ttp(Box<Ttp>),
    /// Oracle: resolved by peeking the hierarchy at prediction time.
    Ideal,
}

/// Per-core hierarchy statistics.
///
/// The level-indexed counters keep their historical three-level names:
/// `l1_accesses` counts the first level, `l2_accesses` every
/// intermediate level combined, and `llc_demand_*` the last level,
/// whatever the configured depth.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreHierStats {
    /// Demand accesses reaching the last level.
    pub llc_demand_accesses: u64,
    /// Demand accesses missing the last level (the MPKI numerator).
    pub llc_demand_misses: u64,
    /// Hermes requests issued to the memory controller.
    pub hermes_requests: u64,
    /// Prefetches issued to DRAM on behalf of this core.
    pub prefetches_issued: u64,
    /// Prefetched lines this core demanded (useful prefetches).
    pub prefetches_useful: u64,
    /// First-level accesses (power model).
    pub l1_accesses: u64,
    /// Intermediate-level accesses (power model).
    pub l2_accesses: u64,
    /// Sum over off-chip loads of total latency (issue -> data).
    pub offchip_latency_sum: u64,
    /// Sum over off-chip loads of the on-chip portion (issue -> MC).
    pub offchip_onchip_portion_sum: u64,
    /// Off-chip demand loads observed at the hierarchy.
    pub offchip_loads: u64,
    /// dTLB lookups (loads and stores; zero with `vm: None`).
    pub dtlb_accesses: u64,
    /// dTLB misses (each probes the STLB).
    pub dtlb_misses: u64,
    /// STLB misses (each starts or joins a hardware page walk).
    pub stlb_misses: u64,
    /// Hardware page walks completed.
    pub walks_completed: u64,
    /// Sum over completed walks of STLB-miss-to-PFN latency in cycles.
    pub walk_cycles_sum: u64,
    /// Cache accesses issued by the page-table walker (retries included).
    pub walk_mem_accesses: u64,
    /// Radix levels skipped thanks to the page-walk cache.
    pub pwc_levels_skipped: u64,
    /// Coherence: write-permission upgrades this core's stores paid a
    /// directory round trip for (store hit on a Shared line). Zero with
    /// `coherence: None`.
    pub coh_upgrades: u64,
    /// Coherence: remote private copies actually invalidated on behalf
    /// of this core's stores (upgrades and store-miss RFOs).
    pub coh_invalidations: u64,
    /// Coherence: dirty interventions serving this core — a remote
    /// Modified copy forwarded through the shared level to satisfy this
    /// core's load or store.
    pub coh_dirty_forwards: u64,
    /// Coherence: this core's private copies killed by inclusive-
    /// directory back-invalidation (the shared level evicted the line).
    pub coh_back_invalidations: u64,
    /// Hermes speculative DRAM reads that paid off: the load was a
    /// genuine DRAM fill, so the early read hid (part of) the off-chip
    /// latency.
    pub spec_reads_useful: u64,
    /// Hermes speculative DRAM reads wasted: the load resolved on-chip —
    /// a mispredicted cache hit, a dirty intervention out of a remote
    /// Modified copy, or a fill that raced a remote RFO — so the DRAM
    /// read burned bandwidth for nothing.
    pub spec_reads_wasted: u64,
}

/// One lookup travelling the stack ([`Ev::Lookup`] minus the level).
#[derive(Debug, Clone, Copy)]
struct LookupCtx {
    core: usize,
    line: LineAddr,
    pc: u64,
    retried: bool,
    /// Page-table-walker lookup: excluded from demand statistics and
    /// invisible to the prefetchers.
    walk: bool,
}

/// One in-flight translation: a hardware page walk, or the short STLB →
/// dTLB refill delay modelled through the same machinery.
#[derive(Debug)]
struct Walk {
    core: usize,
    /// dTLB key of the page under translation (the `by_page` merge key).
    dtlb_key: u64,
    /// STLB key (differs from the dTLB key when the STLB is shared).
    stlb_key: u64,
    /// TLB index of the page.
    page_number: u64,
    /// Remaining PTE lines, root → leaf; empty for an STLB refill.
    steps: VecDeque<LineAddr>,
    /// Page-walk-cache keys installed on completion.
    pwc_fill: Vec<u64>,
    /// Walk start, for latency accounting; `None` for STLB refills
    /// (which are not page walks and stay out of the walk statistics).
    started: Option<Cycle>,
    /// First-level requests waiting for the PFN: the physical line, the
    /// request, and for a load predicted off-chip the earliest cycle its
    /// Hermes read may enter the memory controller (`issue + hermes
    /// issue latency`; it actually issues at `max(this, walk
    /// completion)`).
    waiters: Vec<(LineAddr, Waiter, Option<Cycle>)>,
}

/// How a translation request routes the requesting access.
enum TransRoute {
    /// Mapping known now (dTLB hit): proceed exactly like the classic
    /// free-translation path.
    Ready,
    /// Deferred on an in-flight walk/refill: wait in [`Walk::waiters`].
    Defer(u64),
}

/// The translation subsystem's state: TLBs, page-walk caches, the page
/// map, and every walk in flight.
struct VmFrontend {
    cfg: VmConfig,
    map: PageMap,
    /// Per-core L1 dTLBs.
    dtlbs: Vec<Tlb>,
    /// STLB instances: one per core, or a single scaled shared one.
    stlbs: Vec<Tlb>,
    /// Per-core page-walk caches.
    pwcs: Vec<WalkCache>,
    walks: FastMap<u64, Walk>,
    /// `(core, dTLB key)` → in-flight walk, for same-page merging.
    by_page: FastMap<(usize, u64), u64>,
    next_walk: u64,
}

impl VmFrontend {
    fn new(cfg: &VmConfig, cores: usize) -> Self {
        let stlb_inst = cfg.stlb_instantiated(cores);
        let stlb_count = if cfg.stlb_shared { 1 } else { cores };
        Self {
            map: PageMap::new(cfg.huge_page_pm),
            dtlbs: (0..cores).map(|_| Tlb::new(&cfg.dtlb)).collect(),
            stlbs: (0..stlb_count).map(|_| Tlb::new(&stlb_inst)).collect(),
            pwcs: (0..cores)
                .map(|_| WalkCache::new(cfg.pwc_entries))
                .collect(),
            walks: FastMap::default(),
            by_page: FastMap::default(),
            next_walk: 0,
            cfg: cfg.clone(),
        }
    }

    fn stlb_slot(&self, core: usize) -> usize {
        if self.cfg.stlb_shared {
            0
        } else {
            core
        }
    }
}

/// See [module docs](self).
pub struct Hierarchy {
    cfg: SystemConfig,
    /// The cache stack, innermost first; `len() >= 2` (enforced by
    /// [`SystemConfig::validate`]), every level private but the last,
    /// which is shared.
    levels: Vec<CacheLevel<Waiter>>,
    /// Cached [`SystemConfig::hierarchy_latency`] (hot in
    /// `finish_demand`).
    onchip_latency: u32,
    dram: MemoryController,
    prefetchers: Vec<Box<dyn Prefetcher>>,
    predictors: Vec<PredictorImpl>,
    pred_stats: Vec<PredictorStats>,
    loads: FastMap<u64, LoadRec>,
    events: BinaryHeap<Reverse<HeapEntry>>,
    seq: u64,
    finished: Vec<(usize, u64, ServedBy)>,
    stats: Vec<CoreHierStats>,
    dram_buf: Vec<Completion>,
    pf_buf: Vec<PrefetchReq>,
    /// Deferred first-level accesses (see module docs).
    retries: RetryQueue,
    /// Cached [`RetryQueue::min_at`]: the O(1) nothing-due test for
    /// `tick` and the retry term of [`Hierarchy::next_event_at`].
    retry_min: Cycle,
    /// Write-permission upgrades in flight, keyed by (core, line): a
    /// second store to the same line while one travels is subsumed by it
    /// instead of spawning a duplicate directory transaction.
    pending_upgrades: FastSet<(usize, LineAddr)>,
    /// Per-core second-level speculative-read filters; consulted only
    /// when `hermes.filter` is on, trained whenever it is.
    filters: Vec<SpecReadFilter>,
    /// Per-core recent-coherence-event tables feeding [`CohHints`];
    /// written on every coherence invalidation, read only when the
    /// coherence-aware knobs are on.
    coh_tables: Vec<CohEventTable>,
    /// Translation subsystem; `None` = historical free translation.
    vm: Option<VmFrontend>,
    /// Observability probe; `None` (the default) skips every hook with
    /// one discriminant test. Boxed so the common probe-free hierarchy
    /// doesn't carry the probe's maps inline.
    probe: Option<Box<Probe>>,
}

fn key(core: usize, token: u64) -> u64 {
    // Tokens are per-core sequence numbers; 48 bits last ~2.8e14
    // instructions per core, far beyond any run. The assert guards the
    // packing against silently aliasing two in-flight loads if that
    // assumption ever breaks.
    debug_assert!(
        token < 1 << 48,
        "load token {token:#x} overflows key packing"
    );
    debug_assert!(core < 1 << 16, "core id {core} overflows key packing");
    ((core as u64) << 48) | token
}

fn pc_sig(pc: u64) -> u16 {
    (hermes_types::mix64(pc) & 0x3FFF) as u16
}

/// Iterates the set bit positions of a core bitmap (a sharer set).
fn sharer_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(i)
        }
    })
}

impl Hierarchy {
    /// Builds the hierarchy for `cfg`.
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.validate();
        let n = cfg.cores;
        let predictors = (0..n)
            .map(|_| match cfg.hermes.predictor {
                PredictorKind::None => PredictorImpl::None,
                PredictorKind::Popet => {
                    let pcfg = if cfg.hermes.coh_features {
                        cfg.popet.clone().with_coh_features()
                    } else {
                        cfg.popet.clone()
                    };
                    PredictorImpl::Popet(Box::new(Popet::new(pcfg)))
                }
                PredictorKind::Hmp => PredictorImpl::Hmp(Box::new(Hmp::new())),
                PredictorKind::Ttp => PredictorImpl::Ttp(Box::default()),
                PredictorKind::Ideal => PredictorImpl::Ideal,
            })
            .collect();
        let last = cfg.levels.len() - 1;
        let levels = cfg
            .levels
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == last {
                    CacheLevel::shared(c, n)
                } else {
                    CacheLevel::private(c, n)
                }
            })
            .collect();
        Self {
            levels,
            onchip_latency: cfg.hierarchy_latency(),
            dram: MemoryController::new(cfg.dram.clone()),
            prefetchers: (0..n).map(|_| pf::build(cfg.prefetcher)).collect(),
            predictors,
            pred_stats: vec![PredictorStats::default(); n],
            loads: FastMap::default(),
            events: BinaryHeap::new(),
            seq: 0,
            finished: Vec::new(),
            stats: vec![CoreHierStats::default(); n],
            dram_buf: Vec::new(),
            pf_buf: Vec::new(),
            retries: RetryQueue::new(n),
            retry_min: Cycle::MAX,
            pending_upgrades: FastSet::default(),
            filters: (0..n).map(|_| SpecReadFilter::new()).collect(),
            coh_tables: (0..n).map(|_| CohEventTable::new()).collect(),
            vm: cfg.vm.as_ref().map(|v| VmFrontend::new(v, n)),
            probe: cfg.probe.clone().map(|p| Box::new(Probe::new(p))),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Index of the last (outermost, off-chip-boundary) level.
    fn last(&self) -> usize {
        self.levels.len() - 1
    }

    /// Which [`ServedBy`] class a hit at `level` reports: the first level
    /// is `L1`, the last is `Llc`, anything between is `L2` (middle
    /// levels share one bucket so [`hermes_cpu::CoreStats`] stays
    /// depth-independent).
    fn served_at(&self, level: usize) -> ServedBy {
        if level == 0 {
            ServedBy::L1
        } else if level == self.last() {
            ServedBy::Llc
        } else {
            ServedBy::L2
        }
    }

    /// Per-core hierarchy statistics.
    pub fn core_stats(&self) -> &[CoreHierStats] {
        &self.stats
    }

    /// Per-level aggregate statistics, innermost first, as
    /// `(name, stats)` pairs.
    pub fn level_stats(&self) -> Vec<(String, LevelStats)> {
        self.levels
            .iter()
            .map(|l| (l.name().to_string(), *l.stats()))
            .collect()
    }

    /// Total outstanding misses across every level's MSHR tables
    /// (diagnostics/tests: zero when the hierarchy is quiescent).
    pub fn mshrs_in_flight(&self) -> usize {
        self.levels.iter().map(|l| l.mshr_in_flight_total()).sum()
    }

    /// Per-core predictor confusion matrices.
    pub fn predictor_stats(&self) -> &[PredictorStats] {
        &self.pred_stats
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> &hermes_dram::controller::DramStats {
        self.dram.stats()
    }

    /// The attached probe's configuration (`None` when observability is
    /// off).
    pub fn probe_config(&self) -> Option<&hermes_probe::ProbeConfig> {
        self.probe.as_deref().map(|p| p.config())
    }

    /// Feeds one interval-timeline snapshot to the probe (no-op with the
    /// probe off). Called by [`crate::System::run`] at interval
    /// boundaries with the cumulative measurement counters.
    pub fn probe_snapshot(&mut self, input: IntervalInput) {
        if let Some(p) = &mut self.probe {
            p.snapshot(input);
        }
    }

    /// Clones the probe's accumulated observations out (`None` with the
    /// probe off).
    pub fn probe_report(&self) -> Option<ProbeReport> {
        self.probe.as_deref().map(|p| p.report())
    }

    /// Instantaneous DRAM queue occupancy `(rq busy, rq capacity,
    /// wq busy, wq capacity)` — pure observation for interval snapshots.
    pub fn dram_occupancy(&self, now: Cycle) -> (usize, usize, usize, usize) {
        self.dram.queue_occupancy(now)
    }

    /// Zeroes accumulated statistics (warmup boundary). Microarchitectural
    /// state (caches, predictors, prefetchers) is preserved.
    pub fn reset_stats(&mut self) {
        for s in &mut self.stats {
            *s = CoreHierStats::default();
        }
        for s in &mut self.pred_stats {
            *s = PredictorStats::default();
        }
        for l in &mut self.levels {
            l.reset_stats();
        }
        // Statistics only: in-flight reads must survive the boundary or
        // their waiters (MSHRs, cores) would strand.
        self.dram.reset_stats();
        // Warmup traces and histograms are discarded with the rest of the
        // statistics; loads in flight across the boundary simply go
        // unrecorded (their on_finish finds no trace entry).
        if let Some(p) = &mut self.probe {
            p.reset();
        }
    }

    /// The earliest cycle at which this hierarchy has any work to do —
    /// the next scheduled event, pending retry, or DRAM completion.
    /// `Cycle::MAX` when fully quiescent. Drives idle-cycle fast-forward
    /// in [`crate::System::run`].
    pub fn next_event_at(&self) -> Cycle {
        let mut at = Cycle::MAX;
        if let Some(Reverse(e)) = self.events.peek() {
            at = at.min(e.at);
        }
        at = at.min(self.retry_min);
        if let Some(d) = self.dram.next_completion_at() {
            at = at.min(d);
        }
        at
    }

    fn schedule(&mut self, at: Cycle, ev: Ev) {
        self.seq += 1;
        self.events.push(Reverse(HeapEntry {
            at,
            seq: self.seq,
            ev,
        }));
    }

    fn predict(&mut self, core: usize, ctx: &LoadContext) -> Prediction {
        match &mut self.predictors[core] {
            PredictorImpl::None => Prediction::negative(),
            PredictorImpl::Popet(p) => p.predict(ctx),
            PredictorImpl::Hmp(h) => h.predict(ctx),
            PredictorImpl::Ttp(t) => t.predict(ctx),
            PredictorImpl::Ideal => {
                let present = self.levels.iter().any(|l| l.probe(core, ctx.pline));
                Prediction {
                    go_offchip: !present,
                    meta: hermes::predictor::PredictionMeta::None,
                }
            }
        }
    }

    fn train(&mut self, core: usize, rec: &LoadRec, went_offchip: bool) {
        self.pred_stats[core].record(rec.pred.go_offchip, went_offchip);
        match &mut self.predictors[core] {
            PredictorImpl::Popet(p) => p.train(&rec.ctx, &rec.pred, went_offchip),
            PredictorImpl::Hmp(h) => h.train(&rec.ctx, &rec.pred, went_offchip),
            PredictorImpl::Ttp(t) => t.train(&rec.ctx, &rec.pred, went_offchip),
            PredictorImpl::None | PredictorImpl::Ideal => {}
        }
    }

    fn notify_fill(&mut self, core: usize, line: LineAddr) {
        if let PredictorImpl::Ttp(t) = &mut self.predictors[core] {
            t.on_cache_fill(line);
        }
    }

    fn notify_llc_eviction(&mut self, line: LineAddr) {
        for p in &mut self.predictors {
            if let PredictorImpl::Ttp(t) = p {
                t.on_llc_eviction(line);
            }
        }
    }

    /// Completes a demand load: trains the predictor and queues the
    /// core callback.
    ///
    /// `coh_served` marks a load whose data was produced by the coherence
    /// protocol rather than a DRAM fill: a dirty intervention out of a
    /// remote Modified copy, or a fill that raced a remote RFO and was
    /// serialised behind the new owner. With `hermes.coh_features` on,
    /// the training label becomes three-way-aware — such loads train as
    /// *on-chip* (they are exactly the misses a speculative DRAM read
    /// cannot help), instead of polluting the predictor toward firing on
    /// every coherence miss. With the knob off the historical binary
    /// label is preserved bit-for-bit.
    fn finish_demand(
        &mut self,
        core: usize,
        token: u64,
        served: ServedBy,
        coh_served: bool,
        now: Cycle,
    ) {
        if let Some(rec) = self.loads.remove(&key(core, token)) {
            let offchip = served.is_offchip();
            let dram_fill = offchip && !coh_served;
            if let Some(p) = &mut self.probe {
                let class = match served {
                    ServedBy::L1 => LatClass::L1,
                    ServedBy::L2 => LatClass::L2,
                    ServedBy::Llc => LatClass::Llc,
                    ServedBy::Dram => LatClass::Offchip,
                };
                p.on_finish(
                    core,
                    token,
                    rec.ctx.pline.raw(),
                    class,
                    now.saturating_sub(rec.issue),
                    rec.fired,
                    now,
                );
            }
            if rec.fired {
                if dram_fill {
                    self.stats[core].spec_reads_useful += 1;
                } else {
                    self.stats[core].spec_reads_wasted += 1;
                }
            }
            if self.cfg.hermes.enabled() {
                let label = if self.cfg.hermes.coh_features {
                    dram_fill
                } else {
                    offchip
                };
                self.train(core, &rec, label);
                if self.cfg.hermes.filter && rec.pred.go_offchip && !self.cfg.hermes.passive {
                    // The filter trains on every predicted-off-chip load,
                    // fired or suppressed, so a PC whose loads go back to
                    // genuine DRAM misses reopens its gate.
                    self.filters[core].train(rec.ctx.pc, dram_fill);
                }
            }
            if offchip {
                let s = &mut self.stats[core];
                s.offchip_loads += 1;
                s.offchip_latency_sum += now.saturating_sub(rec.issue);
                s.offchip_onchip_portion_sum += self.onchip_latency as u64;
            }
        }
        self.finished.push((core, token, served));
    }

    /// First-level access for a load, store or walker read at `now`
    /// (also re-entered from the retry queue, a resolved translation and
    /// a lost coherence upgrade): a hit completes the request after the
    /// first level's latency, a miss allocates or merges into an MSHR,
    /// and a full MSHR table parks the request in the retry queue.
    fn access_first(&mut self, core: usize, line: LineAddr, waiter: Waiter, now: Cycle) {
        self.count_first_access(core, waiter);
        let sig = match waiter {
            Waiter::Walk { .. } => 0,
            _ => pc_sig(waiter.pc()),
        };
        if self.levels[0].access(core, line, sig).hit {
            let done = now + self.levels[0].latency() as Cycle;
            match waiter {
                Waiter::Load { token, .. } => self.schedule(
                    done,
                    Ev::CompleteLoad {
                        core,
                        token,
                        served: ServedBy::L1,
                    },
                ),
                Waiter::Store { pc } => {
                    if self.needs_write_permission(core, line) {
                        // Store hit on a Shared line: blind `mark_dirty`
                        // would silently corrupt remote copies. Request
                        // write permission from the directory; the remote
                        // invalidations land after the round-trip latency.
                        self.request_upgrade(core, line, pc, now);
                    } else {
                        self.levels[0].mark_dirty(core, line);
                    }
                }
                Waiter::Walk { walk } => self.schedule(done, Ev::WalkStep { walk }),
                _ => unreachable!("{waiter:?} is not a first-level request"),
            }
            return;
        }
        self.note_first_miss(core, waiter, now);
        match self.levels[0].mshr_allocate(core, line, waiter, false) {
            Ok(true) => {
                self.retries.note_admitted(core, line);
                let at = now + (self.levels[0].latency() + self.levels[1].latency()) as Cycle;
                let ctx = LookupCtx {
                    core,
                    line,
                    pc: waiter.pc(),
                    retried: false,
                    walk: matches!(waiter, Waiter::Walk { .. }),
                };
                self.schedule(at, Ev::Lookup { level: 1, ctx });
            }
            Ok(false) => {}
            Err(_) => {
                // Structural stall: retry the whole first-level access
                // after the retry delay (the repeated tag lookup is
                // charged to the power model).
                let at = now + MSHR_RETRY;
                self.retry_min = self.retry_min.min(at);
                self.retries.push(at, Retry { core, line, waiter });
            }
        }
    }

    /// Charges one first-level attempt to its requester's counter:
    /// `walk_mem_accesses` for a walker read, `l1_accesses` (the power
    /// model's) for a load or store.
    fn count_first_access(&mut self, core: usize, waiter: Waiter) {
        let s = &mut self.stats[core];
        match waiter {
            Waiter::Walk { .. } => s.walk_mem_accesses += 1,
            _ => s.l1_accesses += 1,
        }
    }

    /// Reports a load's first-level miss to the probe. A retried load
    /// reports it again — the repeat makes MSHR-full structural stalls
    /// visible in the trace.
    fn note_first_miss(&mut self, core: usize, waiter: Waiter, now: Cycle) {
        if let (Some(p), Waiter::Load { token, .. }) = (&mut self.probe, waiter) {
            p.on_load_event(core, token, now, "l1_miss");
        }
    }

    /// Translation request under the vm subsystem: consults the dTLB,
    /// STLB, and page-walk cache, starting or joining a page walk when
    /// needed. Returns the physical address (the page map is a pure
    /// function, so data placement never depends on timing) and whether
    /// the requester may proceed now or must wait.
    fn vm_translate(&mut self, core: usize, vaddr: VirtAddr, now: Cycle) -> (PhysAddr, TransRoute) {
        let vm = self.vm.as_mut().expect("vm_translate without vm config");
        let stats = &mut self.stats[core];
        let (paddr, huge) = vm.map.translate(core, vaddr);
        let pn = PageMap::page_number(vaddr, huge);
        let dkey = PageMap::tlb_key(None, pn, huge);
        stats.dtlb_accesses += 1;
        if vm.dtlbs[core].lookup(pn, dkey) {
            // Accessed in parallel with the L1 (§3.1): a hit is free.
            return (paddr, TransRoute::Ready);
        }
        stats.dtlb_misses += 1;
        if let Some(&id) = vm.by_page.get(&(core, dkey)) {
            // A translation for this page is already in flight. Only a
            // true walk implies the STLB missed again; merging into an
            // STLB→dTLB refill is another STLB *hit* still paying the
            // refill latency.
            if vm.walks[&id].started.is_some() {
                stats.stlb_misses += 1;
            }
            return (paddr, TransRoute::Defer(id));
        }
        let slot = vm.stlb_slot(core);
        let skey = PageMap::tlb_key(vm.cfg.stlb_shared.then_some(core), pn, huge);
        let mut walk = Walk {
            core,
            dtlb_key: dkey,
            stlb_key: skey,
            page_number: pn,
            steps: VecDeque::new(),
            pwc_fill: Vec::new(),
            started: None,
            waiters: Vec::new(),
        };
        if !vm.stlbs[slot].lookup(pn, skey) {
            stats.stlb_misses += 1;
            // Assemble the radix walk, skipping every level the
            // page-walk cache already resolves.
            let levels = PageMap::walk_levels(huge);
            let mut start = 0;
            for d in (0..levels - 1).rev() {
                if vm.pwcs[core].lookup(PageMap::pwc_key(vaddr, d)) {
                    start = d + 1;
                    break;
                }
            }
            stats.pwc_levels_skipped += start as u64;
            walk.steps = (start..levels)
                .map(|d| vm.map.pte_line(core, vaddr, d))
                .collect();
            walk.pwc_fill = (0..levels - 1)
                .map(|d| PageMap::pwc_key(vaddr, d))
                .collect();
            walk.started = Some(now);
        }
        let id = vm.next_walk;
        vm.next_walk += 1;
        vm.walks.insert(id, walk);
        vm.by_page.insert((core, dkey), id);
        // The STLB answer (hit data or miss detection) arrives after its
        // lookup latency; only then can the refill complete or the first
        // PTE access leave the walker.
        let at = now + vm.cfg.stlb.latency as Cycle;
        self.schedule(at, Ev::WalkStep { walk: id });
        (paddr, TransRoute::Defer(id))
    }

    /// Advances `walk`: issues its next PTE read at the first level, or
    /// completes the translation when none remain.
    fn walk_advance(&mut self, walk: u64, now: Cycle) {
        let (core, step) = {
            let vm = self.vm.as_mut().expect("walk without vm config");
            let w = vm.walks.get_mut(&walk).expect("advance of unknown walk");
            (w.core, w.steps.pop_front())
        };
        match step {
            Some(line) => self.access_first(core, line, Waiter::Walk { walk }, now),
            None => self.complete_walk(walk, now),
        }
    }

    /// Finishes a translation: installs the TLB and page-walk-cache
    /// entries and releases every request (and pending Hermes issue) that
    /// waited for the PFN.
    fn complete_walk(&mut self, walk: u64, now: Cycle) {
        let (core, waiters, started) = {
            let vm = self.vm.as_mut().expect("walk without vm config");
            let w = vm.walks.remove(&walk).expect("completion of unknown walk");
            vm.by_page.remove(&(w.core, w.dtlb_key));
            vm.dtlbs[w.core].insert(w.page_number, w.dtlb_key);
            let slot = vm.stlb_slot(w.core);
            vm.stlbs[slot].insert(w.page_number, w.stlb_key);
            for k in &w.pwc_fill {
                vm.pwcs[w.core].insert(*k);
            }
            if let Some(t0) = w.started {
                let s = &mut self.stats[w.core];
                s.walks_completed += 1;
                s.walk_cycles_sum += now - t0;
            }
            (w.core, w.waiters, w.started)
        };
        if let Some(p) = &mut self.probe {
            // True walks only; an STLB-hit refill (started == None) is
            // not a page walk, matching `walks_completed`.
            if let Some(t0) = started {
                p.record_walk_latency(now - t0);
            }
        }
        for (line, waiter, hermes_min) in waiters {
            if let (Some(p), Waiter::Load { token, .. }) = (&mut self.probe, waiter) {
                p.on_load_event(core, token, now, "tlb_walk_done");
            }
            self.release(core, line, waiter, hermes_min, now);
        }
    }

    /// Sends a translated first-level request into the hierarchy at
    /// `now`, first scheduling its Hermes read (no earlier than
    /// `hermes_min`) when the load was predicted off-chip.
    fn release(
        &mut self,
        core: usize,
        line: LineAddr,
        waiter: Waiter,
        hermes_min: Option<Cycle>,
        now: Cycle,
    ) {
        if let Some(min) = hermes_min {
            self.schedule(min.max(now), Ev::HermesIssue { core, line });
        }
        self.access_first(core, line, waiter, now);
    }

    /// Demand (or walker) lookup at an intermediate level
    /// (`0 < level < last`).
    fn lookup_mid(&mut self, level: usize, ctx: LookupCtx, now: Cycle) {
        let LookupCtx {
            core,
            line,
            pc,
            retried,
            walk,
        } = ctx;
        if !retried && !walk {
            self.stats[core].l2_accesses += 1;
        }
        let res = self.levels[level].access(core, line, pc_sig(pc));
        if res.hit {
            self.descend(level, core, line, self.served_at(level), false, now);
            return;
        }
        if !retried && !walk {
            if let Some(p) = &mut self.probe {
                p.on_core_line_event(core, line.raw(), now, "l2_miss", "");
            }
        }
        match self.levels[level].mshr_allocate(core, line, Waiter::Merge { core }, false) {
            Ok(true) => {
                let at = now + self.levels[level + 1].latency() as Cycle;
                let ctx = LookupCtx {
                    retried: false,
                    ..ctx
                };
                self.schedule(
                    at,
                    Ev::Lookup {
                        level: level + 1,
                        ctx,
                    },
                );
            }
            Ok(false) => {}
            Err(_) => {
                let ctx = LookupCtx {
                    retried: true,
                    ..ctx
                };
                self.schedule(now + MSHR_RETRY, Ev::Lookup { level, ctx });
            }
        }
    }

    /// Demand (or walker) lookup at the last level: prefetcher
    /// observation point and the off-chip boundary. Walker lookups stay
    /// out of the demand statistics and are invisible to the prefetchers
    /// (which model load/store streams, not page-table traffic) but
    /// otherwise behave identically — including going off-chip.
    fn lookup_last(&mut self, ctx: LookupCtx, now: Cycle) {
        let LookupCtx {
            core,
            line,
            pc,
            retried,
            walk,
        } = ctx;
        let last = self.last();
        let res = self.levels[last].access(core, line, pc_sig(pc));
        if !retried && !walk {
            self.stats[core].llc_demand_accesses += 1;
            if res.first_demand_on_prefetch {
                self.stats[core].prefetches_useful += 1;
                self.prefetchers[core].on_prefetch_hit(line);
            }
            // Prefetcher observes every demand access at this level.
            let mut buf = std::mem::take(&mut self.pf_buf);
            buf.clear();
            self.prefetchers[core].on_access(
                &AccessCtx {
                    pc,
                    line,
                    hit: res.hit,
                },
                &mut buf,
            );
            buf.truncate(MAX_PF_PER_ACCESS);
            for req in &buf {
                self.issue_prefetch(core, line, req.line, now);
            }
            self.pf_buf = buf;
        }

        if res.hit {
            let served = self.served_at(last);
            if let Some(delay) = self.coh_read_intervention(core, line) {
                // The data lives in a remote Modified copy: it is
                // downgraded and forwarded through this level, and the
                // requester's descent resumes after the intervention
                // latency (through the normal event queue).
                self.schedule(now + delay, Ev::CohResume { core, line, served });
            } else {
                self.descend(last, core, line, served, false, now);
            }
            return;
        }
        if !retried && !walk {
            self.stats[core].llc_demand_misses += 1;
            if let Some(p) = &mut self.probe {
                p.on_core_line_event(core, line.raw(), now, "llc_miss", "");
            }
        }
        let was_prefetch_only = self.levels[last].mshr_is_prefetch_only(core, line);
        match self.levels[last].mshr_allocate(core, line, Waiter::Demand { core, pc }, false) {
            Ok(true) => {
                let _ = self.dram.enqueue_read(line, now, ReqKind::Demand);
                if let Some(p) = &mut self.probe {
                    p.on_core_line_event(core, line.raw(), now, "dram_enqueue", "");
                }
            }
            Ok(false) => {
                // Merged into an outstanding miss; if it was a pure
                // prefetch, that prefetch was accurate but late.
                if was_prefetch_only == Some(true) && !walk {
                    self.prefetchers[core].on_late_prefetch(line);
                }
            }
            Err(_) => {
                let ctx = LookupCtx {
                    retried: true,
                    ..ctx
                };
                self.schedule(now + MSHR_RETRY, Ev::Lookup { level: last, ctx });
            }
        }
    }

    /// Issues one prefetch candidate, enforcing the same-physical-page
    /// rule (the next virtual page's frame is unknowable to hardware, so
    /// crossing a page boundary fetches unrelated data) and an MSHR
    /// reservation so prefetches cannot starve demand misses.
    fn issue_prefetch(&mut self, core: usize, trigger: LineAddr, line: LineAddr, now: Cycle) {
        let last = self.last();
        if line.page_number() != trigger.page_number() {
            return;
        }
        if self.levels[last].mshr_in_use(core) + PF_MSHR_RESERVE
            >= self.levels[last].mshr_capacity(core)
        {
            return;
        }
        if self.levels[last].probe(core, line) || self.levels[last].mshr_contains(core, line) {
            return;
        }
        if self.levels[last].mshr_allocate(core, line, Waiter::Prefetch, true) == Ok(true) {
            self.stats[core].prefetches_issued += 1;
            // May merge into an in-flight read (e.g. a Hermes request to
            // the same line) at the controller — no duplicate traffic,
            // but the prefetcher keeps its feedback loop.
            let _ = self.dram.enqueue_read(line, now, ReqKind::Prefetch);
        }
    }

    /// Fills the last level, handling eviction side effects (writeback to
    /// DRAM, inclusive-directory back-invalidation, prefetcher and TTP
    /// notifications). `writeback` marks a fill whose data came *up* from
    /// a private level's dirty victim, not down toward a core.
    fn fill_last(
        &mut self,
        line: LineAddr,
        dirty: bool,
        prefetched: bool,
        sig: u16,
        now: Cycle,
        writeback: bool,
    ) {
        let last = self.last();
        if let Some(ev) = self.levels[last].fill(0, line, dirty, prefetched, sig) {
            let mut ev_dirty = ev.dirty;
            if ev.sharers != 0 {
                // Inclusive directory: the shared level is dropping the
                // line, so every private copy must die with it; a
                // Modified private copy merges into this writeback.
                for c in sharer_bits(ev.sharers) {
                    let mut held = false;
                    for lvl in 0..last {
                        if let Some(d) = self.levels[lvl].invalidate(c, ev.line) {
                            held = true;
                            ev_dirty |= d;
                        }
                    }
                    if held {
                        self.stats[c].coh_back_invalidations += 1;
                        // The line goes to DRAM with the shared-level
                        // eviction — predicting off-chip for it stays
                        // correct — but the page is contended.
                        self.coh_tables[c].record_page_inval(ev.line);
                    }
                }
            }
            if ev.was_unused_prefetch {
                for p in &mut self.prefetchers {
                    p.on_unused_eviction(ev.line);
                }
            }
            self.notify_llc_eviction(ev.line);
            if ev_dirty {
                self.dram.enqueue_write(ev.line, now);
            }
        }
        // TTP is a core-side structure (§7.2): it observes fills returning
        // to the core, not prefetch fills happening inside the LLC (this
        // blindness to prefetched lines is precisely what destroys its
        // accuracy under a high-coverage prefetcher, paper Fig. 9) — and
        // not dirty victims written back *into* the LLC either, which
        // never pass the core on their way out.
        if !prefetched && !writeback {
            for c in 0..self.cfg.cores {
                self.notify_fill(c, line);
            }
        }
    }

    /// Fills an intermediate level on `core`'s path, propagating dirty
    /// evictions outward.
    fn fill_mid(&mut self, level: usize, core: usize, line: LineAddr, dirty: bool, now: Cycle) {
        if let Some(ev) = self.levels[level].fill(core, line, dirty, false, 0) {
            if ev.dirty {
                self.writeback(level + 1, core, ev.line, now);
            }
        }
        self.notify_fill(core, line);
    }

    /// Delivers a dirty victim evicted from `level - 1` to `level`: a
    /// resident line is marked dirty in place, otherwise the line is
    /// (re)filled dirty, recursing outward on further evictions.
    fn writeback(&mut self, level: usize, core: usize, line: LineAddr, now: Cycle) {
        if self.levels[level].mark_dirty(core, line) {
            return;
        }
        if level == self.last() {
            self.fill_last(line, true, false, 0, now, true);
        } else {
            self.fill_mid(level, core, line, true, now);
        }
    }

    /// Whether the coherence protocol is active: configured *and* more
    /// than one core exists. On a single core every line is trivially
    /// exclusive, so the protocol is vacuous — skipping it keeps
    /// single-core `coherence: Some` cycle-exact with `None` (no
    /// inclusive back-invalidations of the only core's hot lines).
    fn coh_active(&self) -> bool {
        self.cfg.coherence.is_some() && self.cfg.cores > 1
    }

    /// Builds the coherence hints for `core`'s load of `line` from its
    /// recent-event table and the in-flight upgrade set. All-false unless
    /// the protocol is active *and* a coherence-aware knob is on — the
    /// paper's original predictor configurations never see a set hint.
    fn coh_hints(&self, core: usize, line: LineAddr) -> CohHints {
        if !self.coh_active() || !(self.cfg.hermes.coh_features || self.cfg.hermes.filter) {
            return CohHints::default();
        }
        let t = &self.coh_tables[core];
        CohHints {
            line_remote_mod: t.line_remote_mod(line),
            page_recent_inval: t.page_recent_inval(line),
            upgrade_inflight: self.pending_upgrades.iter().any(|&(_, l)| l == line),
        }
    }

    /// Bandwidth guard for the second-level filter: a speculative read
    /// only pays when its channel's read queue has headroom. Past a
    /// quarter of the *system* read capacity (the controller scales the
    /// reported capacity by channel count, so multi-channel parts
    /// tolerate proportionally more per-channel backlog) the read queues
    /// behind real demands — it can no longer beat the hierarchy walk it
    /// is racing, yet still displaces other cores' fills, which is how
    /// Hermes loses multi-core suites even at high predictor precision.
    fn spec_read_headroom(&self, line: LineAddr, now: Cycle) -> bool {
        let (busy, cap) = self.dram.read_queue_pressure(line, now);
        busy * 4 < cap
    }

    /// Whether a store hit must pay a directory round trip before
    /// dirtying the line: coherence is active and the directory lists
    /// sharers other than `core`.
    fn needs_write_permission(&self, core: usize, line: LineAddr) -> bool {
        if !self.coh_active() {
            return false;
        }
        let sharers = self.levels[self.last()].sharers(0, line);
        sharers & !(1 << core) != 0
    }

    /// Whether a fill travelling toward a core may populate private
    /// levels: always with coherence inactive; with it active only while
    /// the shared level still holds the line (its tags carry the sharer
    /// directory, so caching a line without a directory entry would make
    /// the copy invisible to invalidations). A fill racing a
    /// back-invalidation delivers its data to the waiting core but
    /// caches nothing.
    fn coh_fill_allowed(&self, line: LineAddr) -> bool {
        !self.coh_active() || self.levels[self.last()].probe(0, line)
    }

    /// Invalidates every remote private copy of `line` on behalf of
    /// `requester`'s store and rewrites the directory to the sole new
    /// owner. A remote Modified copy is forwarded: its data is absorbed
    /// by the shared level (dirty) on its way to the requester.
    fn kill_remote_copies(&mut self, requester: usize, line: LineAddr) {
        let last = self.last();
        let remote = self.levels[last].sharers(0, line) & !(1 << requester);
        let mut invals = 0;
        let mut forwards = 0;
        for c in sharer_bits(remote) {
            let mut held = false;
            let mut dirty = false;
            for lvl in 0..last {
                if let Some(d) = self.levels[lvl].invalidate(c, line) {
                    held = true;
                    dirty |= d;
                }
            }
            if held {
                invals += 1;
                // The victim's copy was just taken Modified by a remote
                // store: its next read of this line is a dirty
                // intervention. Timing-neutral — the table is only read
                // when the coherence-aware knobs are on.
                self.coh_tables[c].record_remote_mod(line);
            }
            if dirty {
                self.levels[last].mark_dirty(0, line);
                forwards += 1;
            }
        }
        self.levels[last].set_sharers(0, line, 1 << requester);
        self.stats[requester].coh_invalidations += invals;
        self.stats[requester].coh_dirty_forwards += forwards;
    }

    /// Downgrades a remote Modified copy of `line` to Shared on behalf
    /// of `core`'s read: the dirty data moves into the shared level and
    /// the forward is counted for the requester. Returns whether an
    /// owner was downgraded.
    fn downgrade_remote_modified(&mut self, core: usize, line: LineAddr) -> bool {
        let last = self.last();
        let remote = self.levels[last].sharers(0, line) & !(1 << core);
        for c in sharer_bits(remote) {
            if (0..last).any(|lvl| self.levels[lvl].probe_dirty(c, line)) {
                for lvl in 0..last {
                    self.levels[lvl].clean(c, line);
                }
                self.levels[last].mark_dirty(0, line);
                self.stats[core].coh_dirty_forwards += 1;
                return true;
            }
        }
        false
    }

    /// Read-side dirty-intervention check at the shared level: if a
    /// remote core holds `line` Modified, downgrade it to Shared (the
    /// data moves into the shared level) and return the intervention
    /// latency the requester must wait; `None` when the read can be
    /// served in place.
    fn coh_read_intervention(&mut self, core: usize, line: LineAddr) -> Option<Cycle> {
        if !self.coh_active() {
            return None;
        }
        let lat = self.cfg.coherence.as_ref().expect("active").inv_latency as Cycle;
        self.downgrade_remote_modified(core, line).then_some(lat)
    }

    /// Sends a write-permission upgrade for `core`'s store to the
    /// directory, resolving after the round-trip latency. Stores to a
    /// line whose upgrade is already in flight are subsumed by it (one
    /// logical transaction, counted once).
    fn request_upgrade(&mut self, core: usize, line: LineAddr, pc: u64, now: Cycle) {
        if !self.pending_upgrades.insert((core, line)) {
            return;
        }
        self.stats[core].coh_upgrades += 1;
        let lat = self.cfg.coherence.as_ref().expect("coh_active").inv_latency;
        self.schedule(now + lat as Cycle, Ev::Upgrade { core, line, pc });
    }

    /// A store's write permission resolved (see [`Ev::Upgrade`]): take
    /// ownership if the copy survived the round trip, otherwise redo the
    /// whole store access (it will miss or re-request).
    fn handle_upgrade(&mut self, core: usize, line: LineAddr, pc: u64, now: Cycle) {
        self.pending_upgrades.remove(&(core, line));
        if self.levels[0].probe(core, line) {
            self.kill_remote_copies(core, line);
            self.levels[0].mark_dirty(core, line);
        } else {
            self.access_first(core, line, Waiter::Store { pc }, now);
        }
    }

    /// Data hit (or arrived) at `from`: walk `core`'s request chain
    /// inward, filling each inner level and resuming every requester
    /// merged at its MSHRs.
    fn descend(
        &mut self,
        from: usize,
        core: usize,
        line: LineAddr,
        served: ServedBy,
        coh_served: bool,
        now: Cycle,
    ) {
        debug_assert!(from >= 1, "first-level hits complete synchronously");
        self.fill_and_resume(from - 1, core, line, served, coh_served, now);
    }

    /// Fills `level` on `core`'s path and completes its MSHR entry,
    /// recursing towards the cores for every merged waiter (at a shared
    /// level the entry may carry chains from several cores). At level 0
    /// this finishes the waiting loads/stores.
    fn fill_and_resume(
        &mut self,
        level: usize,
        core: usize,
        line: LineAddr,
        served: ServedBy,
        coh_served: bool,
        now: Cycle,
    ) {
        if level == 0 {
            self.complete_first_path(core, line, served, coh_served, now);
            return;
        }
        if self.coh_fill_allowed(line) {
            self.fill_mid(level, core, line, false, now);
        }
        let completed = self.levels[level].mshr_complete(core, line);
        debug_assert!(
            completed.is_some(),
            "level {level} path completion without MSHR entry"
        );
        if let Some((waiters, _)) = completed {
            for w in waiters {
                match w {
                    Waiter::Merge { core: c } => {
                        self.fill_and_resume(level - 1, c, line, served, coh_served, now)
                    }
                    _ => debug_assert!(false, "non-merge waiter at intermediate level"),
                }
            }
        }
    }

    /// Fills `core`'s first level and completes all waiters registered in
    /// its MSHR for `line`.
    fn complete_first_path(
        &mut self,
        core: usize,
        line: LineAddr,
        served: ServedBy,
        mut coh_served: bool,
        now: Cycle,
    ) {
        let Some((waiters, _)) = self.levels[0].mshr_complete(core, line) else {
            return;
        };
        let store_pc = waiters.iter().find_map(|w| match w {
            Waiter::Store { pc } => Some(*pc),
            _ => None,
        });
        let any_store = store_pc.is_some();
        if self.coh_fill_allowed(line) {
            // A store whose data came out of this core's *own private
            // mid level* never visited the directory, so its write
            // permission still costs the upgrade round trip — the line
            // fills clean for now and is dirtied when the upgrade
            // resolves. Stores served by the shared level or DRAM
            // carried their RFO with the request and take ownership
            // immediately (the invalidations overlapped the fetch).
            let deferred_upgrade =
                any_store && served == ServedBy::L2 && self.needs_write_permission(core, line);
            if let Some(ev) =
                self.levels[0].fill(core, line, any_store && !deferred_upgrade, false, 0)
            {
                if ev.dirty {
                    self.writeback(1, core, ev.line, now);
                }
            }
            self.retries.note_admitted(core, line);
            self.notify_fill(core, line);
            if self.coh_active() {
                let last = self.last();
                self.levels[last].add_sharer(0, line, core);
                if deferred_upgrade {
                    self.request_upgrade(core, line, store_pc.expect("store"), now);
                } else if any_store {
                    self.kill_remote_copies(core, line);
                } else {
                    // A racing RFO that merged into the same outstanding
                    // miss may have granted another core ownership before
                    // this load's chain resumed; serialise the load after
                    // that store by downgrading the owner (the forward
                    // rides the same memory round trip — no extra
                    // latency). When it happens the data this load
                    // consumes came out of the remote Modified copy, not
                    // the DRAM fill it rode in on: a coherence-served
                    // load for training purposes.
                    coh_served |= self.downgrade_remote_modified(core, line);
                }
                // This core re-acquired the line: its stale
                // remote-Modified mark (if any) is gone.
                self.coh_tables[core].clear_line(line);
            }
        }
        for w in waiters {
            match w {
                Waiter::Load { token, .. } => {
                    self.finish_demand(core, token, served, coh_served, now)
                }
                // The PTE arrived: the walker moves to the next level.
                Waiter::Walk { walk } => self.walk_advance(walk, now),
                _ => {}
            }
        }
    }

    fn handle_dram_completion(&mut self, c: Completion, now: Cycle) {
        if let Some(p) = &mut self.probe {
            p.on_line_event(c.line.raw(), now, "dram_fill");
        }
        let last = self.last();
        if let Some((waiters, prefetch_only)) = self.levels[last].mshr_complete(0, c.line) {
            let sig = waiters
                .iter()
                .find_map(|w| match w {
                    Waiter::Demand { pc, .. } => Some(pc_sig(*pc)),
                    _ => None,
                })
                .unwrap_or(0);
            self.fill_last(c.line, false, prefetch_only, sig, now, false);
            for w in waiters {
                if let Waiter::Demand { core, .. } = w {
                    self.fill_and_resume(last - 1, core, c.line, ServedBy::Dram, false, now);
                }
            }
        } else {
            // A Hermes read no demand ever merged into: dropped without
            // filling any cache (§6.2.2).
            debug_assert!(
                c.hermes_initiated && !c.demanded,
                "unmatched DRAM completion that is not a dropped Hermes read"
            );
        }
    }

    fn handle_event(&mut self, ev: Ev, now: Cycle) {
        match ev {
            Ev::Lookup { level, ctx } => {
                if level == self.last() {
                    self.lookup_last(ctx, now);
                } else {
                    self.lookup_mid(level, ctx, now);
                }
            }
            Ev::HermesIssue { core, line } => {
                self.stats[core].hermes_requests += 1;
                let _ = self.dram.enqueue_read(line, now, ReqKind::Hermes);
                if let Some(p) = &mut self.probe {
                    p.on_core_line_event(core, line.raw(), now, "hermes_spec_read", "");
                }
            }
            Ev::CompleteLoad {
                core,
                token,
                served,
            } => {
                self.finish_demand(core, token, served, false, now);
            }
            Ev::WalkStep { walk } => self.walk_advance(walk, now),
            Ev::Upgrade { core, line, pc } => self.handle_upgrade(core, line, pc, now),
            Ev::CohResume { core, line, served } => {
                // The data was forwarded out of a remote Modified copy:
                // an on-chip, coherence-served completion.
                if let Some(p) = &mut self.probe {
                    p.on_core_line_event(core, line.raw(), now, "coh_intervention", "");
                }
                let last = self.last();
                self.descend(last, core, line, served, true, now);
            }
        }
    }

    /// Advances the hierarchy to `now`: processes due retries, events,
    /// and DRAM completions. Finished loads accumulate in the internal
    /// buffer drained by [`Hierarchy::drain_finished`].
    pub fn tick(&mut self, now: Cycle) {
        // Retries first (they wait in a side queue, gated on the cached
        // minimum due cycle).
        if now >= self.retry_min {
            sweep_retries(self, now);
            self.retry_min = self.retries.min_at();
        }
        while let Some(Reverse(entry)) = self.events.peek() {
            if entry.at > now {
                break;
            }
            let Reverse(entry) = self.events.pop().expect("peeked");
            self.handle_event(entry.ev, now);
        }
        let mut buf = std::mem::take(&mut self.dram_buf);
        self.dram.pop_completions(now, &mut buf);
        for c in buf.drain(..) {
            self.handle_dram_completion(c, now);
        }
        self.dram_buf = buf;
    }

    /// Drains (core, token, served) completions for delivery to cores.
    pub fn drain_finished(&mut self, out: &mut Vec<(usize, u64, ServedBy)>) {
        out.clear();
        out.append(&mut self.finished);
    }

    /// Oracle visibility for tests: whether `core` holds `line` in any
    /// *private* level (the levels the sharer directory tracks).
    pub fn privately_held(&self, core: usize, line: LineAddr) -> bool {
        (0..self.last()).any(|lvl| self.levels[lvl].probe(core, line))
    }

    /// Oracle visibility for tests: the derived MESI state of `line` in
    /// `core`'s private hierarchy (see [`hermes_cache::coherence`] for
    /// the derivation). Meaningful with coherence enabled; with it off
    /// every resident line reads as Exclusive/Modified because no
    /// directory entry ever lists other sharers.
    pub fn mesi_state(&self, core: usize, line: LineAddr) -> Mesi {
        let last = self.last();
        let mut present = false;
        let mut dirty = false;
        for lvl in 0..last {
            if self.levels[lvl].probe(core, line) {
                present = true;
                dirty |= self.levels[lvl].probe_dirty(core, line);
            }
        }
        if !present {
            Mesi::Invalid
        } else if dirty {
            Mesi::Modified
        } else if self.levels[last].sharers(0, line) & !(1 << core) == 0 {
            Mesi::Exclusive
        } else {
            Mesi::Shared
        }
    }

    /// Oracle visibility for tests: the sharer-directory bitmap the
    /// shared last level holds for `line` (zero when untracked).
    pub fn directory_sharers(&self, line: LineAddr) -> u64 {
        self.levels[self.last()].sharers(0, line)
    }

    /// Oracle visibility for tests: whether the shared last level holds
    /// `line` at all.
    pub fn llc_holds(&self, line: LineAddr) -> bool {
        self.levels[self.last()].probe(0, line)
    }

    /// Oracle visibility for tests: whether `core`'s off-chip predictor
    /// is TTP and currently tracks `line` as on-chip (`None` when the
    /// predictor is not TTP). Pins the writeback-path training fix: a
    /// dirty victim written back into the LLC must not re-enter TTP.
    pub fn ttp_tracks(&self, core: usize, line: LineAddr) -> Option<bool> {
        match &self.predictors[core] {
            PredictorImpl::Ttp(t) => Some(t.contains(line)),
            _ => None,
        }
    }

    /// Translations currently in flight (page walks plus STLB refills);
    /// always zero with `vm: None` and when quiescent.
    pub fn walks_in_flight(&self) -> usize {
        self.vm.as_ref().map(|v| v.walks.len()).unwrap_or(0)
    }
}

impl Hierarchy {
    /// Resolves an access's translation: the historical free stateless
    /// hash with `vm: None` (always [`TransRoute::Ready`],
    /// bit-identical to the pre-vm simulator), the TLB/walker machinery
    /// otherwise.
    fn resolve_translation(
        &mut self,
        core: usize,
        vaddr: VirtAddr,
        now: Cycle,
    ) -> (LineAddr, TransRoute) {
        if self.vm.is_some() {
            let (paddr, route) = self.vm_translate(core, vaddr, now);
            (paddr.line(), route)
        } else {
            (translate(core, vaddr).line(), TransRoute::Ready)
        }
    }

    /// Sends a first-level request on its way once its translation is
    /// resolved: now when the mapping is known, otherwise attached to the
    /// walk (or STLB refill) it waits on.
    fn dispatch(
        &mut self,
        core: usize,
        line: LineAddr,
        route: TransRoute,
        waiter: Waiter,
        hermes_min: Option<Cycle>,
        now: Cycle,
    ) {
        match route {
            TransRoute::Ready => self.release(core, line, waiter, hermes_min, now),
            TransRoute::Defer(walk) => self
                .vm
                .as_mut()
                .expect("deferral without vm config")
                .walks
                .get_mut(&walk)
                .expect("deferred on unknown walk")
                .waiters
                .push((line, waiter, hermes_min)),
        }
    }
}

impl FirstLevel for Hierarchy {
    fn retries(&mut self) -> &mut RetryQueue {
        &mut self.retries
    }

    fn replay_each(&self) -> bool {
        self.probe.is_some()
    }

    fn mshr_full(&self, core: usize) -> bool {
        self.levels[0].mshr_full(core)
    }

    fn refuses(&self, r: &Retry) -> bool {
        let l1 = &self.levels[0];
        l1.mshr_full(r.core) && !l1.mshr_contains(r.core, r.line) && !l1.probe(r.core, r.line)
    }

    fn refused(&mut self, r: &Retry, now: Cycle) {
        self.count_first_access(r.core, r.waiter);
        self.note_first_miss(r.core, r.waiter, now);
        self.levels[0].count_rejected_retries(1);
    }

    fn refused_many(&mut self, core: usize, [lsu, walk]: [u32; 2]) {
        let s = &mut self.stats[core];
        s.l1_accesses += u64::from(lsu);
        s.walk_mem_accesses += u64::from(walk);
        self.levels[0].count_rejected_retries(u64::from(lsu + walk));
    }

    fn admit(&mut self, r: Retry, now: Cycle) {
        let parked = self.retries.len;
        self.access_first(r.core, r.line, r.waiter, now);
        debug_assert_eq!(
            self.retries.len, parked,
            "refusal test admitted a refused retry"
        );
    }
}

impl MemoryPort for Hierarchy {
    fn issue_load(&mut self, req: LoadIssue, now: Cycle) {
        let (pline, route) = self.resolve_translation(req.core, req.vaddr, now);
        let ctx = LoadContext {
            pc: req.pc,
            vaddr: req.vaddr,
            pline,
            coh: self.coh_hints(req.core, pline),
        };
        // Prediction happens at issue — POPET's features are
        // virtual-address based (§6.1.3) — but a predicted-off-chip
        // load's speculative DRAM read, and the demand access itself,
        // wait for the PFN when the dTLB misses.
        let pred = if self.cfg.hermes.enabled() {
            self.predict(req.core, &ctx)
        } else {
            Prediction::negative()
        };
        let want_spec = self.cfg.hermes.enabled() && pred.go_offchip && !self.cfg.hermes.passive;
        // The filter verdict is split out of the firing condition (same
        // short-circuit evaluation order, bit-identical decisions) so
        // the probe can attribute a suppressed speculative read to the
        // filter rather than to the predictor.
        let filter_verdict = (want_spec && self.cfg.hermes.filter).then(|| {
            self.filters[req.core].allow(req.pc, ctx.coh) && self.spec_read_headroom(pline, now)
        });
        let hermes_min = (want_spec && filter_verdict.unwrap_or(true))
            .then(|| now + self.cfg.hermes.issue_latency as Cycle);
        if let Some(p) = &mut self.probe {
            p.on_issue(req.core, req.token, req.pc, pline.raw(), now);
            if self.cfg.hermes.enabled() {
                p.on_prediction(
                    req.core,
                    req.token,
                    pred.go_offchip,
                    pred.confidence(),
                    hermes_min.is_some(),
                    filter_verdict,
                );
            }
            if matches!(route, TransRoute::Defer(_)) {
                p.on_load_event(req.core, req.token, now, "tlb_walk_start");
            }
        }
        self.loads.insert(
            key(req.core, req.token),
            LoadRec {
                ctx,
                pred,
                issue: now,
                fired: hermes_min.is_some(),
            },
        );
        let waiter = Waiter::Load {
            token: req.token,
            pc: req.pc,
        };
        self.dispatch(req.core, pline, route, waiter, hermes_min, now);
    }

    fn issue_store(&mut self, req: StoreIssue, now: Cycle) {
        let (pline, route) = self.resolve_translation(req.core, req.vaddr, now);
        let waiter = Waiter::Store { pc: req.pc };
        self.dispatch(req.core, pline, route, waiter, None, now);
    }

    fn note_lifecycle(&mut self, core: CoreId, token: u64, at: Cycle, kind: &'static str) {
        // Pure observation: the out-of-order core reports pipeline
        // markers (dispatch/complete/retire) for sampled loads. The probe
        // drops events for unsampled tokens, so this is free when off.
        if let Some(p) = &mut self.probe {
            p.on_load_event(core, token, at, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use hermes_prefetch::PrefetcherKind;
    use hermes_vm::{TlbConfig, VmConfig};

    /// Ticks from `from` until `want` further loads completed (panics on
    /// stall-out).
    fn run_span(h: &mut Hierarchy, from: Cycle, want: usize) {
        let mut done = 0;
        let mut buf = Vec::new();
        for now in from..from + 1_000_000 {
            h.tick(now);
            h.drain_finished(&mut buf);
            done += buf.len();
            if done >= want {
                return;
            }
        }
        panic!("only {done} of {want} loads completed");
    }

    fn load(core: usize, token: u64, vaddr: u64) -> LoadIssue {
        LoadIssue {
            core,
            token,
            pc: 0x400_000 + token * 4,
            vaddr: VirtAddr::new(vaddr),
        }
    }

    /// Merging into an STLB→dTLB refill in flight is an STLB *hit* and
    /// must not inflate `stlb_misses` (only true walks count).
    #[test]
    fn stlb_refill_merges_are_not_counted_as_misses() {
        let cfg = SystemConfig::baseline_1c()
            .with_prefetcher(PrefetcherKind::None)
            .with_vm(
                VmConfig::baseline()
                    // 2 sets x 1 way: pages 0 and 2 conflict in set 0.
                    .with_dtlb(TlbConfig::new(2, 1, 0))
                    .with_stlb(TlbConfig::new(64, 4, 8)),
            );
        let mut h = Hierarchy::new(cfg);
        let page_a = 0u64;
        let page_b = 2 << 12; // same dTLB set as A

        // Cold loads to A then B: two real walks (two STLB misses); B
        // evicts A from the one-way dTLB set.
        h.issue_load(load(0, 0, page_a), 0);
        run_span(&mut h, 0, 1);
        h.issue_load(load(0, 1, page_b), 1_000_000);
        run_span(&mut h, 1_000_000, 1);
        let s = h.core_stats()[0];
        assert_eq!((s.stlb_misses, s.walks_completed), (2, 2));

        // Two same-cycle loads back to A: dTLB misses, but the STLB has
        // the entry — one refill, the second load merging into it. No
        // new walk, and crucially no new STLB miss counted.
        h.issue_load(load(0, 2, page_a), 2_000_000);
        h.issue_load(load(0, 3, page_a), 2_000_000);
        run_span(&mut h, 2_000_000, 2);
        let s = h.core_stats()[0];
        assert_eq!(s.dtlb_misses, 4, "A, B, and both refill loads missed");
        assert_eq!(
            s.stlb_misses, 2,
            "refill merges must not count as STLB misses"
        );
        assert_eq!(s.walks_completed, 2, "the refill is not a page walk");
        assert_eq!(h.walks_in_flight(), 0);
    }

    /// The first level reduced to what decides a retry: per core, the
    /// free MSHR registers and the lines it would admit (in its table
    /// or its array). Refused and admitted attempts are logged.
    #[derive(Clone)]
    struct ModelL1 {
        free: Vec<u32>,
        held: FastSet<(usize, LineAddr)>,
        /// Refused attempts per core, by [`Retry::kind`].
        refused: Vec<[u64; 2]>,
        /// Waiter ids of admitted attempts, in order.
        admitted: Vec<u64>,
    }

    impl ModelL1 {
        fn refuses(&self, core: usize, line: LineAddr) -> bool {
            self.free[core] == 0 && !self.held.contains(&(core, line))
        }

        /// Admits an attempt; whether it allocated a register.
        fn admit(&mut self, core: usize, line: LineAddr, waiter: Waiter) -> bool {
            self.admitted.push(waiter_id(waiter));
            let allocated = self.held.insert((core, line));
            if allocated {
                self.free[core] -= 1;
            }
            allocated
        }
    }

    fn waiter_id(w: Waiter) -> u64 {
        match w {
            Waiter::Load { token, .. } => token,
            Waiter::Walk { walk } => walk,
            _ => unreachable!("the model parks loads and walker reads"),
        }
    }

    /// Turns of the historical scan that the walk handles apart, counted
    /// to show the random storms reach them.
    #[derive(Default)]
    struct Cases {
        /// Admissions whose swap-remove pulled a due tail forward.
        pulled_due_tail: usize,
        /// Admissions of the entry that was the queue's tail.
        admitted_tail: usize,
        /// Admissions after which the tail is a later bucket's entry
        /// (neither due nor re-parked by the sweep).
        foreign_after_admit: usize,
        /// Refusals that follow an admission that followed a refusal.
        admit_between_refusals: usize,
    }

    /// The historical retry queue: a `Vec` swept by swap-remove, every
    /// due entry re-attempted in full.
    struct Historical {
        l1: ModelL1,
        /// Entries with their due cycles.
        q: Vec<(Cycle, Retry)>,
        cases: Cases,
    }

    impl Historical {
        fn access(&mut self, r: Retry, now: Cycle) {
            if self.l1.refuses(r.core, r.line) {
                self.l1.refused[r.core][r.kind()] += 1;
                self.q.push((now + MSHR_RETRY, r));
            } else {
                self.l1.admit(r.core, r.line, r.waiter);
            }
        }

        fn sweep(&mut self, now: Cycle) {
            let mut reparked = FastSet::default();
            // 0: no refusal yet, 1: refused, 2: refused then admitted.
            let mut runs = 0;
            let mut i = 0;
            while i < self.q.len() {
                if self.q[i].0 <= now {
                    let tail = i + 1 == self.q.len();
                    let (_, r) = self.q.swap_remove(i);
                    let c = &mut self.cases;
                    if self.l1.refuses(r.core, r.line) {
                        reparked.insert(waiter_id(r.waiter));
                        c.admit_between_refusals += usize::from(runs == 2);
                        runs = 1;
                    } else {
                        if self.q.get(i).is_some_and(|t| t.0 <= now) {
                            c.pulled_due_tail += 1;
                        }
                        c.admitted_tail += usize::from(tail);
                        if let Some(&(at, t)) = self.q.last() {
                            let foreign = at > now && !reparked.contains(&waiter_id(t.waiter));
                            c.foreign_after_admit += usize::from(foreign);
                        }
                        runs = if runs == 0 { 0 } else { 2 };
                    }
                    self.access(r, now);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// [`RetryQueue`] and [`sweep_retries`] over the same model.
    struct Indexed {
        l1: ModelL1,
        retries: RetryQueue,
        replay: bool,
        /// Refused attempts replayed one by one.
        replayed: usize,
    }

    impl Indexed {
        fn new(free: &[u32], replay: bool) -> Self {
            Self {
                l1: ModelL1 {
                    free: free.to_vec(),
                    held: FastSet::default(),
                    refused: vec![[0; 2]; free.len()],
                    admitted: Vec::new(),
                },
                retries: RetryQueue::new(free.len()),
                replay,
                replayed: 0,
            }
        }

        fn access(&mut self, r: Retry, now: Cycle) {
            if self.l1.refuses(r.core, r.line) {
                self.l1.refused[r.core][r.kind()] += 1;
                self.retries.push(now + MSHR_RETRY, r);
            } else if self.l1.admit(r.core, r.line, r.waiter) {
                self.retries.note_admitted(r.core, r.line);
            }
        }

        /// A line reaches `core`'s array, freeing the register it held.
        fn fill(&mut self, core: usize, line: LineAddr, cap: u32) {
            self.l1.held.insert((core, line));
            self.l1.free[core] = (self.l1.free[core] + 1).min(cap);
            self.retries.note_admitted(core, line);
        }
    }

    impl FirstLevel for Indexed {
        fn retries(&mut self) -> &mut RetryQueue {
            &mut self.retries
        }
        fn replay_each(&self) -> bool {
            self.replay
        }
        fn mshr_full(&self, core: usize) -> bool {
            self.l1.free[core] == 0
        }
        fn refuses(&self, r: &Retry) -> bool {
            self.l1.refuses(r.core, r.line)
        }
        fn refused(&mut self, r: &Retry, _now: Cycle) {
            assert!(self.replay, "one-by-one charge without the probe");
            self.replayed += 1;
            self.l1.refused[r.core][r.kind()] += 1;
        }
        fn refused_many(&mut self, core: usize, kinds: [u32; 2]) {
            assert!(!self.replay, "per-core charge with the probe on");
            for (n, k) in self.l1.refused[core].iter_mut().zip(kinds) {
                *n += u64::from(k);
            }
        }
        fn admit(&mut self, r: Retry, now: Cycle) {
            let parked = self.retries.len;
            self.access(r, now);
            assert_eq!(self.retries.len, parked, "admitted retry re-parked");
        }
    }

    fn queue_order(q: &[(Cycle, Retry)]) -> Vec<(Cycle, usize, u64, u64)> {
        q.iter()
            .map(|&(at, r)| (at, r.core, r.line.raw(), waiter_id(r.waiter)))
            .collect()
    }

    /// A load of `core` for `line`, identified by `token`.
    fn retry(core: usize, line: u64, token: u64) -> Retry {
        Retry {
            core,
            line: LineAddr::new(line),
            waiter: Waiter::Load { token, pc: 0 },
        }
    }

    /// The indexed sweep processes the same admissions in the same order,
    /// charges the same refusals per core and requester kind, and leaves
    /// the queue in the same order as the historical swap-remove scan, on
    /// random retry storms: four cores with two to four MSHRs each, a
    /// small line pool so retries collide on lines, fills and evictions
    /// between sweeps, requests that park before the sweep of their own
    /// cycle, and (in half the runs) skipped ticks and the probe's
    /// one-by-one replay.
    #[test]
    fn retry_sweep_matches_the_historical_scan() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        const CORES: usize = 4;
        // Coverage: the due entries re-parked whole, every one refused
        // untested, with the tail a later bucket's entry that lands
        // mid-bucket, with the tail among them, and with k = 1; an
        // admission pulling a due tail forward; a sweep with two buckets
        // due; and the walk's turns counted in `Cases`.
        let (mut foreign_mid, mut tail_due, mut k1) = (0, 0, 0);
        let (mut pulled, mut two_due) = (0, 0);
        let mut cases = Cases::default();
        let mut replayed = 0;
        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cap = rng.gen_range(2..5u32);
            let skipping = seed % 2 == 1;
            let mut new = Indexed::new(&[cap; CORES], skipping && seed % 4 == 1);
            let mut old = Historical {
                l1: new.l1.clone(),
                q: Vec::new(),
                cases: Cases::default(),
            };
            let mut id = 0u64;
            for now in 0..3_000u64 {
                let mut request = |rng: &mut SmallRng| {
                    id += 1;
                    let waiter = if rng.gen_bool(0.2) {
                        Waiter::Walk { walk: id }
                    } else {
                        Waiter::Load { token: id, pc: 0 }
                    };
                    Retry {
                        core: rng.gen_range(0..CORES),
                        line: LineAddr::new(rng.gen_range(0..24u64)),
                        waiter,
                    }
                };
                if rng.gen_bool(0.05) {
                    let r = request(&mut rng);
                    old.access(r, now);
                    new.access(r, now);
                }
                if !(skipping && rng.gen_bool(0.15)) {
                    let due: Vec<&Bucket> =
                        new.retries.buckets.iter().filter(|b| b.at <= now).collect();
                    two_due += usize::from(due.len() >= 2);
                    // Where the tail is, should the sweep re-park every
                    // due entry: among them, or in a later bucket with
                    // entries on both sides of the first due position.
                    let k: usize = due.iter().map(|b| b.pos.len()).sum();
                    let whole = (k > 0).then(|| {
                        let last = new.retries.len - 1;
                        let first = due.iter().map(|b| b.pos[0]).min().expect("due");
                        let holds = |b: &Bucket| b.pos.back() == Some(&last);
                        let mid = new.retries.buckets.iter().any(|b| {
                            b.at > now
                                && holds(b)
                                && b.pos[0] < first
                                && b.pos.range(..b.pos.len() - 1).any(|&x| x > first)
                        });
                        (k, due.iter().any(|b| holds(b)), mid)
                    });
                    old.sweep(now);
                    if new.retries.min_at() <= now {
                        let untested = sweep_retries(&mut new, now);
                        let bulk = whole.filter(|&(k, ..)| untested == k && !new.replay);
                        if let Some((k, tail, mid)) = bulk {
                            foreign_mid += usize::from(mid);
                            tail_due += usize::from(tail);
                            k1 += usize::from(k == 1);
                        }
                    }
                }
                for _ in 0..rng.gen_range(0..3usize) {
                    let r = request(&mut rng);
                    old.access(r, now);
                    new.access(r, now);
                }
                if rng.gen_bool(0.1) {
                    let (core, line) = (
                        rng.gen_range(0..CORES),
                        LineAddr::new(rng.gen_range(0..24u64)),
                    );
                    old.l1.held.insert((core, line));
                    old.l1.free[core] = (old.l1.free[core] + 1).min(cap);
                    new.fill(core, line, cap);
                }
                if rng.gen_bool(0.1) {
                    let (core, line) = (
                        rng.gen_range(0..CORES),
                        LineAddr::new(rng.gen_range(0..24u64)),
                    );
                    old.l1.held.remove(&(core, line));
                    new.l1.held.remove(&(core, line));
                }
                assert_eq!(
                    new.l1.admitted, old.l1.admitted,
                    "seed {seed} cycle {now}: admissions"
                );
                assert_eq!(
                    new.l1.refused, old.l1.refused,
                    "seed {seed} cycle {now}: refusals"
                );
                assert_eq!(
                    queue_order(&new.retries.order()),
                    queue_order(&old.q),
                    "seed {seed} cycle {now}: queue order"
                );
                new.retries.check();
            }
            pulled += old.cases.pulled_due_tail;
            cases.admitted_tail += old.cases.admitted_tail;
            cases.foreign_after_admit += old.cases.foreign_after_admit;
            cases.admit_between_refusals += old.cases.admit_between_refusals;
            replayed += new.replayed;
        }
        assert!(
            foreign_mid > 0 && tail_due > 0 && k1 > 0,
            "whole re-park: foreign tail mid-bucket {foreign_mid}, tail due {tail_due}, k=1 {k1}"
        );
        assert!(
            pulled > 0 && two_due > 0,
            "pulled due tail {pulled}, two buckets due {two_due}"
        );
        let Cases {
            admitted_tail,
            foreign_after_admit,
            admit_between_refusals,
            ..
        } = cases;
        assert!(
            admit_between_refusals > 0 && foreign_after_admit > 0 && admitted_tail > 0,
            "admission between refused runs {admit_between_refusals}, foreign carry after an \
             admission {foreign_after_admit}, admitted tail {admitted_tail}"
        );
        assert!(replayed > 0, "no refusal replayed one by one");
    }

    /// Sweeps `new` and `old` at `now` and checks they agree; returns the
    /// entries refused untested.
    fn sweep_both(new: &mut Indexed, old: &mut Historical, now: Cycle) -> usize {
        old.sweep(now);
        let untested = sweep_retries(new, now);
        assert_eq!(new.l1.admitted, old.l1.admitted, "admissions");
        assert_eq!(new.l1.refused, old.l1.refused, "refusals");
        assert_eq!(
            queue_order(&new.retries.order()),
            queue_order(&old.q),
            "queue order"
        );
        new.retries.check();
        untested
    }

    fn historical(new: &Indexed) -> Historical {
        Historical {
            l1: new.l1.clone(),
            q: new.retries.order(),
            cases: Cases::default(),
        }
    }

    /// A core with one free register and two due entries for one line:
    /// the first allocates it, which fills the table, and the second must
    /// still be admitted, as a merge.
    #[test]
    fn a_core_that_fills_its_table_in_the_sweep_still_merges() {
        let mut new = Indexed::new(&[0, 0], false);
        new.access(retry(0, 7, 1), 0);
        new.access(retry(0, 7, 2), 0);
        new.fill(0, LineAddr::new(9), 1);
        let mut old = historical(&new);
        assert_eq!(sweep_both(&mut new, &mut old, MSHR_RETRY), 0);
        assert_eq!(new.l1.admitted, [1, 2], "allocation, then merge");
        assert_eq!(new.l1.free[0], 0, "one register for both");
        assert!(new.retries.len == 0 && new.retries.buckets.is_empty());
    }

    /// A core whose admitted flag is set is tested entry by entry, even
    /// with a full table: its line was allocated since it parked.
    #[test]
    fn an_admitted_flag_forces_the_test_on_a_full_core() {
        let mut new = Indexed::new(&[0, 0], false);
        new.access(retry(0, 7, 1), 0);
        new.access(retry(0, 8, 2), 0);
        new.fill(0, LineAddr::new(9), 1);
        // A fresh request for line 7 takes the last register.
        new.access(retry(0, 7, 3), 1);
        assert!(new.mshr_full(0));
        assert_eq!(
            new.retries.buckets[0].admitted, 1,
            "flagged by the allocation"
        );
        let mut old = historical(&new);
        assert_eq!(sweep_both(&mut new, &mut old, MSHR_RETRY), 0, "no verdict");
        assert_eq!(new.l1.admitted, [3, 1], "the parked line-7 load merges");
        assert_eq!(new.l1.refused[0], [3, 0], "line 8 is refused, tested");
    }

    /// An admission by one core leaves another core's verdict in force:
    /// the full core's entries after the admission are refused untested
    /// too.
    #[test]
    fn an_admission_leaves_other_cores_verdicts_in_force() {
        let mut new = Indexed::new(&[0, 0], false);
        for (core, line, token) in [(1, 3, 1), (0, 5, 2), (1, 4, 3), (1, 6, 4), (0, 5, 5)] {
            new.access(retry(core, line, token), 0);
        }
        new.fill(0, LineAddr::new(9), 1);
        let mut old = historical(&new);
        assert_eq!(
            sweep_both(&mut new, &mut old, MSHR_RETRY),
            3,
            "core 1's three entries"
        );
        // The due tail is pulled forward to the first position.
        assert_eq!(new.l1.admitted, [5, 2], "core 0 allocates, then merges");
        assert_eq!(new.l1.refused[1], [6, 0], "three parked, three refused");
        assert_eq!(new.retries.len, 3);
    }
}
