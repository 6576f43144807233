//! The memory controller: read/write scheduling and the Hermes merge path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hermes_types::{Cycle, FastMap, Hist, LineAddr};

use crate::config::DramConfig;
use crate::mapping::map_line;

/// Who issued a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// A demand miss escalated through the cache hierarchy.
    Demand,
    /// A prefetcher-generated read.
    Prefetch,
    /// A speculative Hermes request issued straight from the core (§6.2.1).
    Hermes,
}

/// Outcome of enqueueing a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnqueueResult {
    /// Cycle at which the data will be available at the controller.
    pub completes_at: Cycle,
    /// Whether the request merged with an in-flight read to the same line
    /// (for a demand merging into a Hermes read, this is the paper's
    /// "regular load waits for the ongoing Hermes request").
    pub merged: bool,
}

/// A finished read, reported once per line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The line whose data arrived.
    pub line: LineAddr,
    /// Completion cycle.
    pub at: Cycle,
    /// Whether any demand request participated (original or merged). If
    /// false and `hermes_initiated` is true, Hermes drops the data without
    /// filling any cache (§6.2.2).
    pub demanded: bool,
    /// Whether the read was *started* by a Hermes request.
    pub hermes_initiated: bool,
    /// Whether any prefetch participated (controls prefetch-bit on fill).
    pub prefetch_involved: bool,
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    completes_at: Cycle,
    demanded: bool,
    hermes_initiated: bool,
    prefetch_involved: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    /// Earliest cycle the bank accepts its next command. Column accesses
    /// to an open row pipeline at burst rate (tCCD); activations occupy
    /// the bank for tRCD (plus tRP on a conflict).
    ready: Cycle,
    open_row: Option<u64>,
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Reads issued by demand misses.
    pub reads_demand: u64,
    /// Reads issued by prefetchers.
    pub reads_prefetch: u64,
    /// Reads issued by Hermes requests.
    pub reads_hermes: u64,
    /// Writebacks received.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Accesses to a closed row.
    pub row_empty: u64,
    /// Row-buffer conflicts (precharge needed).
    pub row_conflicts: u64,
    /// Demand reads that merged into an in-flight Hermes read — the count
    /// of loads whose cache-hierarchy latency Hermes hid.
    pub demand_merged_into_hermes: u64,
    /// Completed Hermes reads that no demand ever claimed (dropped, the
    /// bandwidth cost of a false-positive prediction).
    pub hermes_dropped: u64,
    /// Sum over write enqueues of queue slots already busy at arrival in
    /// the pool serving writes (the dedicated write queue when
    /// configured, the shared read queue otherwise) — divide by `writes`
    /// for mean write-queue occupancy.
    pub wq_occupancy_sum: u64,
    /// Write enqueues that found every slot of their pool busy (the
    /// write had to wait for a slot before even contending for a bank).
    pub wq_full_stalls: u64,
    /// Read-queue occupancy observed by each new (non-merged) read at
    /// arrival, linear-bucketed per slot count ([`Hist::record_linear`];
    /// bucket 31 saturates). The distribution the speculative-read
    /// bandwidth guard actually gates on — `wq_occupancy_sum` averaged
    /// away exactly this shape.
    pub rq_occupancy_hist: Hist,
    /// Write-pool occupancy observed by each writeback at arrival,
    /// linear-bucketed (the histogram form of `wq_occupancy_sum`).
    pub wq_occupancy_hist: Hist,
    /// Queueing delay (slot wait: scheduled start minus arrival) of every
    /// read and write, log2-bucketed ([`Hist::record_log2`]).
    pub queue_delay_hist: Hist,
}

impl DramStats {
    /// Total main-memory read requests (the paper's Fig. 15b metric).
    pub fn total_reads(&self) -> u64 {
        self.reads_demand + self.reads_prefetch + self.reads_hermes
    }
}

/// See [module docs](self) and the crate-level description of the
/// reservation model.
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: DramConfig,
    banks: Vec<Bank>,
    bus_free: Vec<Cycle>,
    /// Per-channel read-queue slots: each holds the cycle it frees.
    rq_slots: Vec<Vec<Cycle>>,
    /// Per-channel dedicated write-queue slots (empty inner vectors when
    /// `wq_capacity` is unset and writes share the read queue).
    wq_slots: Vec<Vec<Cycle>>,
    inflight: FastMap<u64, Inflight>,
    heap: BinaryHeap<Reverse<(Cycle, u64)>>,
    stats: DramStats,
}

impl MemoryController {
    /// Builds a controller for `cfg`.
    pub fn new(cfg: DramConfig) -> Self {
        cfg.validate();
        let nbanks = cfg.channels * cfg.banks_per_channel();
        Self {
            banks: vec![Bank::default(); nbanks],
            bus_free: vec![0; cfg.channels],
            rq_slots: vec![vec![0; cfg.rq_capacity]; cfg.channels],
            wq_slots: vec![vec![0; cfg.wq_capacity.unwrap_or(0)]; cfg.channels],
            inflight: FastMap::default(),
            heap: BinaryHeap::new(),
            stats: DramStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn schedule(&mut self, line: LineAddr, now: Cycle, is_write: bool) -> Cycle {
        let loc = map_line(&self.cfg, line);
        // Writes drain from a write buffer; defer them so reads win the
        // bank when both arrive together (simplified write-drain policy).
        let arrival = if is_write {
            now + 4 * self.cfg.tburst()
        } else {
            now
        };

        // Claim the earliest-free queue slot (finite queue => extra
        // queueing delay when oversubscribed). Writes use their own pool
        // when one is configured, so writeback bursts stop stealing
        // demand-read slots; otherwise they share the read queue
        // (historical behaviour).
        let dedicated_wq = is_write && !self.wq_slots[loc.channel].is_empty();
        let slots = if dedicated_wq {
            &mut self.wq_slots[loc.channel]
        } else {
            &mut self.rq_slots[loc.channel]
        };
        let busy = slots.iter().filter(|c| **c > arrival).count() as u64;
        if is_write {
            self.stats.wq_occupancy_sum += busy;
            self.stats.wq_occupancy_hist.record_linear(busy);
            if busy as usize == slots.len() {
                self.stats.wq_full_stalls += 1;
            }
        } else {
            self.stats.rq_occupancy_hist.record_linear(busy);
        }
        let slot = slots
            .iter_mut()
            .min_by_key(|c| **c)
            .expect("queue capacity validated nonzero");
        let start = arrival.max(*slot);
        self.stats
            .queue_delay_hist
            .record_log2(start.saturating_sub(arrival));

        let bank = &mut self.banks[loc.channel * self.cfg.banks_per_channel() + loc.bank];
        let t0 = start.max(bank.ready);
        // (latency to data, bank occupancy before the next command).
        let (access, occupy) = match bank.open_row {
            Some(r) if r == loc.row => {
                self.stats.row_hits += 1;
                // CAS to an open row: data after tCAS; the next CAS may
                // follow one burst later (tCCD pipelining).
                (self.cfg.tcas(), self.cfg.tburst())
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                (
                    self.cfg.trp() + self.cfg.trcd() + self.cfg.tcas(),
                    self.cfg.trp() + self.cfg.trcd() + self.cfg.tburst(),
                )
            }
            None => {
                self.stats.row_empty += 1;
                (
                    self.cfg.trcd() + self.cfg.tcas(),
                    self.cfg.trcd() + self.cfg.tburst(),
                )
            }
        };
        let data_at = t0 + access;
        let bus = &mut self.bus_free[loc.channel];
        let done = data_at.max(*bus) + self.cfg.tburst();
        *bus = done;
        bank.ready = t0 + occupy;
        bank.open_row = Some(loc.row);
        *slot = done;
        done
    }

    /// Enqueues a read. Merges with any in-flight read to the same line.
    pub fn enqueue_read(&mut self, line: LineAddr, now: Cycle, kind: ReqKind) -> EnqueueResult {
        if let Some(inf) = self.inflight.get_mut(&line.raw()) {
            match kind {
                ReqKind::Demand => {
                    if inf.hermes_initiated && !inf.demanded {
                        self.stats.demand_merged_into_hermes += 1;
                    }
                    inf.demanded = true;
                }
                ReqKind::Prefetch => inf.prefetch_involved = true,
                ReqKind::Hermes => {}
            }
            return EnqueueResult {
                completes_at: inf.completes_at,
                merged: true,
            };
        }
        match kind {
            ReqKind::Demand => self.stats.reads_demand += 1,
            ReqKind::Prefetch => self.stats.reads_prefetch += 1,
            ReqKind::Hermes => self.stats.reads_hermes += 1,
        }
        let completes_at = self.schedule(line, now, false);
        self.inflight.insert(
            line.raw(),
            Inflight {
                completes_at,
                demanded: kind == ReqKind::Demand,
                hermes_initiated: kind == ReqKind::Hermes,
                prefetch_involved: kind == ReqKind::Prefetch,
            },
        );
        self.heap.push(Reverse((completes_at, line.raw())));
        EnqueueResult {
            completes_at,
            merged: false,
        }
    }

    /// Enqueues a writeback (fire-and-forget; consumes bank and bus time).
    pub fn enqueue_write(&mut self, line: LineAddr, now: Cycle) {
        self.stats.writes += 1;
        let _ = self.schedule(line, now, true);
    }

    /// Drains completions with `at <= now` into `out` (cleared first).
    pub fn pop_completions(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        out.clear();
        while let Some(&Reverse((at, raw))) = self.heap.peek() {
            if at > now {
                break;
            }
            self.heap.pop();
            let inf = self
                .inflight
                .remove(&raw)
                .expect("heap entry without inflight record");
            if inf.hermes_initiated && !inf.demanded {
                self.stats.hermes_dropped += 1;
            }
            out.push(Completion {
                line: LineAddr::new(raw),
                at,
                demanded: inf.demanded,
                hermes_initiated: inf.hermes_initiated,
                prefetch_involved: inf.prefetch_involved,
            });
        }
    }

    /// The completion cycle of the earliest in-flight read, if any —
    /// the controller's contribution to idle-cycle fast-forward (writes
    /// are fire-and-forget and never produce an event).
    pub fn next_completion_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    /// Read-queue pressure on `line`'s channel at `now`: the number of
    /// slots still reserved past `now`, and the *system* read capacity
    /// (per-channel slots × channels). This is the occupancy a Hermes
    /// request observes when it consults the controller (the paper's
    /// step 3); the speculative-read filter compares `busy` against a
    /// fraction of the returned capacity to skip firing into a congested
    /// channel, where the read would queue behind real demands instead
    /// of hiding latency. Scaling the capacity by channel count keeps
    /// that fractional threshold meaningful on multi-channel parts: each
    /// channel owns `1/channels` of the bandwidth, so the same absolute
    /// backlog is proportionally less alarming. Single-channel configs
    /// are unaffected.
    pub fn read_queue_pressure(&self, line: LineAddr, now: Cycle) -> (usize, usize) {
        let loc = map_line(&self.cfg, line);
        let slots = &self.rq_slots[loc.channel];
        (
            slots.iter().filter(|c| **c > now).count(),
            slots.len() * self.cfg.channels,
        )
    }

    /// Instantaneous queue occupancy across every channel at `now`:
    /// `(read slots busy, read capacity, write slots busy, write
    /// capacity)`. Write numbers are zero when writes share the read
    /// queue. Pure observation for interval telemetry — never consulted
    /// by scheduling decisions.
    pub fn queue_occupancy(&self, now: Cycle) -> (usize, usize, usize, usize) {
        let busy = |q: &[Vec<Cycle>]| {
            q.iter()
                .map(|s| s.iter().filter(|c| **c > now).count())
                .sum::<usize>()
        };
        let cap = |q: &[Vec<Cycle>]| q.iter().map(|s| s.len()).sum::<usize>();
        (
            busy(&self.rq_slots),
            cap(&self.rq_slots),
            busy(&self.wq_slots),
            cap(&self.wq_slots),
        )
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Zeroes the statistics while preserving all timing and in-flight
    /// state (warmup boundary: destroying in-flight reads would strand
    /// their waiters).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// The minimum possible read latency (row hit, idle system) — a lower
    /// bound used by tests and by the Ideal-Hermes analysis.
    pub fn min_read_latency(&self) -> Cycle {
        self.cfg.tcas() + self.cfg.tburst()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemoryController {
        MemoryController::new(DramConfig::single_core())
    }

    #[test]
    fn row_hit_faster_than_conflict() {
        let mut m = mc();
        let cfg = DramConfig::single_core();
        let lpr = cfg.lines_per_row();
        // First access opens row 0 (empty).
        let r1 = m.enqueue_read(LineAddr::new(0), 0, ReqKind::Demand);
        // Same row, next line: hit.
        let r2 = m.enqueue_read(LineAddr::new(1), 0, ReqKind::Demand);
        // Same bank different row (banks cycle after lines_per_row *
        // banks_per_channel lines): conflict.
        let same_bank_other_row = lpr * cfg.banks_per_channel() as u64;
        let r3 = m.enqueue_read(LineAddr::new(same_bank_other_row), 0, ReqKind::Demand);
        let l1 = r1.completes_at;
        let l2 = r2.completes_at - r1.completes_at;
        let l3 = r3.completes_at - r2.completes_at;
        assert_eq!(l1, cfg.trcd() + cfg.tcas() + cfg.tburst());
        assert!(l2 < l1, "row hit not faster: {l2} vs {l1}");
        assert!(l3 > l2, "conflict not slower than hit");
    }

    #[test]
    fn banks_overlap_but_bus_serializes() {
        let cfg = DramConfig::single_core();
        let mut m = mc();
        let lpr = cfg.lines_per_row();
        // Two different banks: activations overlap, bursts serialize.
        let a = m.enqueue_read(LineAddr::new(0), 0, ReqKind::Demand);
        let b = m.enqueue_read(LineAddr::new(lpr), 0, ReqKind::Demand);
        assert!(b.completes_at >= a.completes_at + cfg.tburst());
        assert!(b.completes_at < a.completes_at + cfg.trcd() + cfg.tcas());
    }

    #[test]
    fn merge_returns_same_completion() {
        let mut m = mc();
        let l = LineAddr::new(42);
        let a = m.enqueue_read(l, 0, ReqKind::Hermes);
        let b = m.enqueue_read(l, 5, ReqKind::Demand);
        assert!(b.merged);
        assert_eq!(a.completes_at, b.completes_at);
        assert_eq!(m.stats().demand_merged_into_hermes, 1);
        assert_eq!(m.stats().total_reads(), 1, "merge must not add traffic");
    }

    #[test]
    fn hermes_without_demand_is_dropped() {
        let mut m = mc();
        let l = LineAddr::new(7);
        let r = m.enqueue_read(l, 0, ReqKind::Hermes);
        let mut out = Vec::new();
        m.pop_completions(r.completes_at, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].hermes_initiated && !out[0].demanded);
        assert_eq!(m.stats().hermes_dropped, 1);
    }

    #[test]
    fn hermes_with_merged_demand_not_dropped() {
        let mut m = mc();
        let l = LineAddr::new(7);
        let r = m.enqueue_read(l, 0, ReqKind::Hermes);
        m.enqueue_read(l, 3, ReqKind::Demand);
        let mut out = Vec::new();
        m.pop_completions(r.completes_at, &mut out);
        assert!(out[0].demanded && out[0].hermes_initiated);
        assert_eq!(m.stats().hermes_dropped, 0);
    }

    #[test]
    fn hermes_losing_race_to_demand_adds_no_traffic() {
        // The demand load reaches the controller first (e.g. the predictor
        // fired late); the Hermes request must merge into the demand read
        // instead of issuing a second one, and nothing is ever dropped.
        let mut m = mc();
        let l = LineAddr::new(11);
        let d = m.enqueue_read(l, 0, ReqKind::Demand);
        let h = m.enqueue_read(l, 2, ReqKind::Hermes);
        assert!(h.merged, "late Hermes request must merge");
        assert_eq!(h.completes_at, d.completes_at);
        assert_eq!(
            m.stats().reads_hermes,
            0,
            "merged Hermes request is not a DRAM read"
        );
        assert_eq!(m.stats().total_reads(), 1);
        let mut out = Vec::new();
        m.pop_completions(d.completes_at, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].demanded && !out[0].hermes_initiated);
        assert_eq!(m.stats().hermes_dropped, 0);
        assert_eq!(m.stats().demand_merged_into_hermes, 0);
    }

    #[test]
    fn dropped_hermes_read_never_double_counts() {
        // A speculative read whose demand never shows up is dropped exactly
        // once: one reads_hermes, one hermes_dropped, one completion —
        // repeated draining must not report or count it again.
        let mut m = mc();
        let l = LineAddr::new(13);
        let r = m.enqueue_read(l, 0, ReqKind::Hermes);
        let mut out = Vec::new();
        m.pop_completions(r.completes_at, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(m.stats().reads_hermes, 1);
        assert_eq!(m.stats().hermes_dropped, 1);
        assert_eq!(m.stats().total_reads(), 1);
        m.pop_completions(r.completes_at + 1000, &mut out);
        assert!(out.is_empty(), "completion reported twice");
        assert_eq!(m.stats().hermes_dropped, 1, "drop counted twice");

        // A second speculative read to the same line is a genuinely new
        // access (the dropped data is gone) and accounts independently.
        let r2 = m.enqueue_read(l, r.completes_at + 2000, ReqKind::Hermes);
        assert!(!r2.merged, "must not merge with a completed (dropped) read");
        m.pop_completions(r2.completes_at, &mut out);
        assert_eq!(m.stats().reads_hermes, 2);
        assert_eq!(m.stats().hermes_dropped, 2);
    }

    #[test]
    fn demand_after_hermes_drop_is_a_fresh_read() {
        // §6.2.2: dropped data fills no cache, so a demand arriving after
        // the speculative read completed pays for its own DRAM access and
        // does not count as "merged into Hermes".
        let mut m = mc();
        let l = LineAddr::new(17);
        let h = m.enqueue_read(l, 0, ReqKind::Hermes);
        let mut out = Vec::new();
        m.pop_completions(h.completes_at, &mut out);
        assert_eq!(m.stats().hermes_dropped, 1);
        let d = m.enqueue_read(l, h.completes_at + 10, ReqKind::Demand);
        assert!(!d.merged, "demand must not merge with dropped data");
        assert_eq!(m.stats().reads_demand, 1);
        assert_eq!(m.stats().demand_merged_into_hermes, 0);
        assert_eq!(m.stats().total_reads(), 2, "drop costs one extra read");
    }

    #[test]
    fn completions_in_time_order() {
        let mut m = mc();
        for i in 0..20u64 {
            m.enqueue_read(LineAddr::new(i * 97), i, ReqKind::Demand);
        }
        let mut out = Vec::new();
        m.pop_completions(u64::MAX >> 1, &mut out);
        assert_eq!(out.len(), 20);
        for w in out.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn pop_respects_now() {
        let mut m = mc();
        let r = m.enqueue_read(LineAddr::new(1), 0, ReqKind::Demand);
        let mut out = Vec::new();
        m.pop_completions(r.completes_at - 1, &mut out);
        assert!(out.is_empty());
        m.pop_completions(r.completes_at, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn finite_rq_adds_queueing_delay() {
        let cfg = DramConfig {
            rq_capacity: 2,
            ..DramConfig::single_core()
        };
        let mut small = MemoryController::new(cfg);
        let mut latencies = Vec::new();
        for i in 0..8u64 {
            // All to different banks+rows to isolate queue effect.
            let r = small.enqueue_read(LineAddr::new(i * 1097), 0, ReqKind::Demand);
            latencies.push(r.completes_at);
        }
        // With only 2 slots the 8th request must wait for earlier ones.
        assert!(latencies[7] > latencies[1] + small.min_read_latency());
    }

    #[test]
    fn writes_counted_and_consume_bandwidth() {
        let mut m = mc();
        let before = m
            .enqueue_read(LineAddr::new(0), 0, ReqKind::Demand)
            .completes_at;
        let mut m2 = mc();
        for i in 0..16u64 {
            m2.enqueue_write(LineAddr::new(1000 + i), 0);
        }
        let after = m2
            .enqueue_read(LineAddr::new(0), 0, ReqKind::Demand)
            .completes_at;
        assert!(after > before, "writes should delay subsequent reads");
        assert_eq!(m2.stats().writes, 16);
    }

    #[test]
    fn dedicated_write_queue_shields_demand_reads_from_writeback_storms() {
        // Historical behaviour: fire-and-forget writebacks funnel through
        // the shared read-queue slots, so a storm of them starves an
        // unrelated demand read. With a dedicated write queue the read
        // claims a free read slot immediately and pays at most bank/bus
        // contention.
        let small_rq = DramConfig {
            rq_capacity: 2,
            ..DramConfig::single_core()
        };
        let shared = small_rq.clone();
        let split = small_rq.with_write_queue(16);
        let cfg = DramConfig::single_core();
        let lpr = cfg.lines_per_row();
        let storm: Vec<LineAddr> = (1..13u64)
            .map(|i| LineAddr::new(i * lpr)) // distinct banks/rows
            .collect();
        let read_line = LineAddr::new(7 * lpr + 5); // bank untouched late
        let run = |cfg: DramConfig| {
            let mut m = MemoryController::new(cfg);
            for &w in &storm {
                m.enqueue_write(w, 0);
            }
            m.enqueue_read(read_line, 0, ReqKind::Demand).completes_at
        };
        let with_shared = run(shared);
        let with_split = run(split);
        assert!(
            with_split < with_shared,
            "write queue must stop writebacks delaying reads: {with_split} vs {with_shared}"
        );
        // The shielded read pays only bank/bus tail-contention (the
        // write-deferral window plus one burst per storm write on the
        // shared bus), never the storm's full slot-queueing serialisation.
        let bus_tail = 4 * cfg.tburst() + storm.len() as u64 * cfg.tburst();
        assert!(
            with_split <= cfg.trcd() + cfg.tcas() + cfg.tburst() + bus_tail + cfg.trp(),
            "read behind a write queue should pay at most bus tail ({with_split})"
        );
        assert!(
            with_split * 2 < with_shared,
            "slot starvation should dominate the shared-queue delay: \
             {with_split} vs {with_shared}"
        );
    }

    #[test]
    fn write_queue_occupancy_counted() {
        let mut m = MemoryController::new(DramConfig::single_core().with_write_queue(2));
        for i in 0..4u64 {
            m.enqueue_write(LineAddr::new(1000 + i * 1097), 0);
        }
        let s = *m.stats();
        assert_eq!(s.writes, 4);
        // 1st write: 0 busy; 2nd: 1; 3rd and 4th: both slots busy.
        assert_eq!(s.wq_occupancy_sum, 1 + 2 + 2);
        assert_eq!(s.wq_full_stalls, 2);
        // The shared-queue mode counts against the read queue instead.
        let mut shared = MemoryController::new(DramConfig::single_core());
        shared.enqueue_write(LineAddr::new(1), 0);
        assert_eq!(shared.stats().wq_occupancy_sum, 0);
        shared.enqueue_write(LineAddr::new(2), 0);
        assert_eq!(shared.stats().wq_occupancy_sum, 1);
    }

    #[test]
    fn occupancy_histograms_track_queue_shape() {
        let mut m = MemoryController::new(DramConfig::single_core().with_write_queue(2));
        // Reads: first sees 0 busy, second sees 1, third sees 2 (all to
        // distinct banks so completions don't collapse the queue).
        for i in 0..3u64 {
            m.enqueue_read(LineAddr::new(i * 1097), 0, ReqKind::Demand);
        }
        let s = *m.stats();
        assert_eq!(s.rq_occupancy_hist.count(), 3);
        assert_eq!(s.rq_occupancy_hist.buckets[0], 1);
        assert_eq!(s.rq_occupancy_hist.buckets[1], 1);
        assert_eq!(s.rq_occupancy_hist.buckets[2], 1);
        // A merged read claims no slot and records nothing.
        m.enqueue_read(LineAddr::new(0), 0, ReqKind::Demand);
        assert_eq!(m.stats().rq_occupancy_hist.count(), 3);
        // Writes mirror wq_occupancy_sum bucket by bucket.
        for i in 0..4u64 {
            m.enqueue_write(LineAddr::new(5000 + i * 1097), 0);
        }
        let s = *m.stats();
        assert_eq!(s.wq_occupancy_hist.count(), 4);
        assert_eq!(s.wq_occupancy_hist.buckets[0], 1);
        assert_eq!(s.wq_occupancy_hist.buckets[1], 1);
        assert_eq!(s.wq_occupancy_hist.buckets[2], 2);
        assert_eq!(
            s.wq_occupancy_hist.mean_linear() * 4.0,
            s.wq_occupancy_sum as f64
        );
        // Every scheduled request recorded a queue delay; the first read
        // arrived into an empty queue (delay 0).
        assert_eq!(s.queue_delay_hist.count(), 3 + 4);
        assert!(s.queue_delay_hist.buckets[0] >= 1);
    }

    #[test]
    fn queue_occupancy_observes_busy_slots() {
        let mut m = MemoryController::new(DramConfig::single_core().with_write_queue(4));
        let (rb, rc, wb, wc) = m.queue_occupancy(0);
        assert_eq!((rb, wb), (0, 0));
        assert_eq!(rc, DramConfig::single_core().rq_capacity);
        assert_eq!(wc, 4);
        let r = m.enqueue_read(LineAddr::new(1), 0, ReqKind::Demand);
        assert_eq!(m.queue_occupancy(0).0, 1);
        assert_eq!(m.queue_occupancy(r.completes_at).0, 0, "slot frees");
    }

    #[test]
    fn read_queue_pressure_scales_capacity_by_channels() {
        // The spec-read filter compares per-channel busy slots against a
        // fraction of the returned capacity; multi-channel parts must
        // report the system capacity so the same absolute backlog reads
        // as proportionally lighter pressure.
        let one = MemoryController::new(DramConfig::single_core());
        let (b1, c1) = one.read_queue_pressure(LineAddr::new(0), 0);
        assert_eq!((b1, c1), (0, DramConfig::single_core().rq_capacity));

        let mut four = MemoryController::new(DramConfig::eight_core());
        let cfg = DramConfig::eight_core();
        let (_, c4) = four.read_queue_pressure(LineAddr::new(0), 0);
        assert_eq!(c4, cfg.rq_capacity * cfg.channels);

        // Load one channel with 20 reads: busy counts only that channel,
        // capacity still reports the whole system (20*4 < 256 clears the
        // quarter-capacity guard that 20*4 >= 64 would have tripped).
        let ch0 = map_line(&cfg, LineAddr::new(0)).channel;
        let mut queued = 0;
        for raw in 0..2000u64 {
            let line = LineAddr::new(raw);
            if map_line(&cfg, line).channel != ch0 {
                continue;
            }
            four.enqueue_read(line, 0, ReqKind::Demand);
            queued += 1;
            if queued == 20 {
                break;
            }
        }
        assert_eq!(queued, 20);
        let (busy, cap) = four.read_queue_pressure(LineAddr::new(0), 0);
        assert_eq!(busy, 20);
        assert!(busy * 4 < cap, "guard must tolerate 20 busy of {cap}");
    }

    #[test]
    fn more_channels_increase_throughput() {
        let mut one = MemoryController::new(DramConfig::single_core());
        let mut four = MemoryController::new(DramConfig::eight_core());
        let mut last_one = 0;
        let mut last_four = 0;
        for i in 0..64u64 {
            last_one = one
                .enqueue_read(LineAddr::new(i), 0, ReqKind::Demand)
                .completes_at;
            last_four = four
                .enqueue_read(LineAddr::new(i), 0, ReqKind::Demand)
                .completes_at;
        }
        assert!(last_four < last_one);
    }
}
