//! One level of a cache hierarchy: tag array(s) + MSHR table(s) + stats.
//!
//! A [`CacheLevel`] bundles everything a hierarchy engine needs per level
//! — the set-associative [`CacheArray`]s, the [`MshrTable`]s tracking
//! outstanding misses, and aggregate [`LevelStats`] — behind a uniform,
//! core-indexed interface. Its constructor picks the structural layout:
//!
//! * [`CacheLevel::private`] — one array + MSHR table per core, each with
//!   the given geometry;
//! * [`CacheLevel::shared`] — a single array + MSHR table serving every
//!   core, with capacity and MSHR count scaled by the core count (the
//!   paper's "3 MB/core" LLC convention, [`CacheConfig::scaled`]).
//!
//! The level is *passive*: it holds no queues and models no time.
//! Request orchestration — lookup ordering, latencies, fills, retries,
//! the Hermes merge path — stays in the hierarchy engine (`hermes-sim`),
//! which makes every level but the last private and the last one shared.
//! The MSHR waiter payload `W` is chosen by that engine.
//!
//! # Example
//!
//! ```
//! use hermes_cache::{CacheConfig, CacheLevel, ReplacementKind};
//! use hermes_types::LineAddr;
//!
//! // A shared 2-core level: capacity and MSHRs scale with core count.
//! let per_core = CacheConfig::new("LLC", 1 << 20, 16, ReplacementKind::Lru, 8);
//! let mut level: CacheLevel<u32> = CacheLevel::shared(&per_core, 2);
//! assert_eq!(level.config().size_bytes, 2 << 20);
//! assert_eq!(level.mshr_capacity(0), 16);
//!
//! // Both cores see the same array.
//! let line = LineAddr::new(0x40);
//! level.fill(0, line, false, false, 0);
//! assert!(level.probe(1, line));
//! ```

use hermes_types::LineAddr;

use crate::array::{AccessResult, CacheArray, CacheConfig, Evicted};
use crate::mshr::{MshrFull, MshrTable};

/// Aggregate event counters for one level (all cores combined).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Tag-array accesses (demand lookups, including retried ones).
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines filled into the level.
    pub fills: u64,
    /// Dirty victims evicted by fills (writebacks pushed down).
    pub dirty_evictions: u64,
    /// Requests rejected because every MSHR was in use (each triggers a
    /// retry in the hierarchy engine).
    pub mshr_rejections: u64,
    /// Lines invalidated by coherence actions (remote-store
    /// invalidations and inclusive-directory back-invalidations); zero
    /// with coherence off.
    pub invalidations: u64,
}

/// See [module docs](self).
#[derive(Debug, Clone)]
pub struct CacheLevel<W> {
    cfg: CacheConfig,
    /// One instance serves every core.
    shared: bool,
    arrays: Vec<CacheArray>,
    mshrs: Vec<MshrTable<W>>,
    stats: LevelStats,
}

impl<W> CacheLevel<W> {
    /// A level replicated per core: `cores` instances of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn private(cfg: &CacheConfig, cores: usize) -> Self {
        assert!(cores >= 1, "need at least one core");
        Self::build(cfg.clone(), false, cores)
    }

    /// A level shared by all `cores`: one instance of `per_core` scaled
    /// by the core count ([`CacheConfig::scaled`]).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or the scaled geometry is invalid.
    pub fn shared(per_core: &CacheConfig, cores: usize) -> Self {
        assert!(cores >= 1, "need at least one core");
        Self::build(per_core.scaled(cores), true, 1)
    }

    fn build(cfg: CacheConfig, shared: bool, n: usize) -> Self {
        Self {
            arrays: (0..n).map(|_| CacheArray::new(&cfg)).collect(),
            mshrs: (0..n).map(|_| MshrTable::new(cfg.mshrs)).collect(),
            shared,
            cfg,
            stats: LevelStats::default(),
        }
    }

    /// The structural instance serving `core`.
    #[inline]
    fn slot(&self, core: usize) -> usize {
        if self.shared {
            0
        } else {
            core
        }
    }

    /// Display name ("L1D", "L2", ...).
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    /// Lookup latency contribution in cycles.
    pub fn latency(&self) -> u32 {
        self.cfg.latency
    }

    /// The instantiated geometry (scaled by the core count when shared).
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated event counters.
    pub fn stats(&self) -> &LevelStats {
        &self.stats
    }

    /// Zeroes the event counters (warmup boundary); cache and MSHR state
    /// is preserved.
    pub fn reset_stats(&mut self) {
        self.stats = LevelStats::default();
    }

    /// Demand access on behalf of `core`; updates replacement state and
    /// counters.
    pub fn access(&mut self, core: usize, line: LineAddr, pc_signature: u16) -> AccessResult {
        let slot = self.slot(core);
        let res = self.arrays[slot].access(line, pc_signature);
        self.stats.accesses += 1;
        if res.hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        res
    }

    /// Presence check without perturbing replacement or counters.
    pub fn probe(&self, core: usize, line: LineAddr) -> bool {
        self.arrays[self.slot(core)].probe(line)
    }

    /// Marks a resident line dirty; returns whether it was present.
    pub fn mark_dirty(&mut self, core: usize, line: LineAddr) -> bool {
        let slot = self.slot(core);
        self.arrays[slot].mark_dirty(line)
    }

    /// Fills `line` into `core`'s instance, returning the victim if one
    /// was evicted.
    pub fn fill(
        &mut self,
        core: usize,
        line: LineAddr,
        dirty: bool,
        prefetched: bool,
        pc_signature: u16,
    ) -> Option<Evicted> {
        let slot = self.slot(core);
        let ev = self.arrays[slot].fill(line, dirty, prefetched, pc_signature);
        self.stats.fills += 1;
        if ev.is_some_and(|e| e.dirty) {
            self.stats.dirty_evictions += 1;
        }
        ev
    }

    /// Invalidates `line` in `core`'s instance (a coherence action,
    /// counted in [`LevelStats::invalidations`]); returns whether it was
    /// present and, if so, whether it was dirty.
    pub fn invalidate(&mut self, core: usize, line: LineAddr) -> Option<bool> {
        let slot = self.slot(core);
        let res = self.arrays[slot].invalidate(line);
        if res.is_some() {
            self.stats.invalidations += 1;
        }
        res
    }

    /// Whether `line` is resident *and* dirty in `core`'s instance
    /// (directory probe; no replacement/counter side effects).
    pub fn probe_dirty(&self, core: usize, line: LineAddr) -> bool {
        self.arrays[self.slot(core)].probe_dirty(line)
    }

    /// Clears the dirty bit of a resident line in `core`'s instance
    /// (M → S downgrade); returns whether it was present.
    pub fn clean(&mut self, core: usize, line: LineAddr) -> bool {
        let slot = self.slot(core);
        self.arrays[slot].clean(line)
    }

    /// Sharer-directory bitmap of `line` (zero when absent). Meaningful
    /// on a coherent shared level; `core` only selects the instance.
    pub fn sharers(&self, core: usize, line: LineAddr) -> u64 {
        self.arrays[self.slot(core)].sharers(line)
    }

    /// Adds `core_bit` to `line`'s sharer bitmap in `core`'s instance;
    /// returns whether a directory entry (resident line) existed.
    pub fn add_sharer(&mut self, core: usize, line: LineAddr, core_bit: usize) -> bool {
        let slot = self.slot(core);
        self.arrays[slot].add_sharer(line, core_bit)
    }

    /// Replaces `line`'s sharer bitmap wholesale.
    pub fn set_sharers(&mut self, core: usize, line: LineAddr, sharers: u64) {
        let slot = self.slot(core);
        self.arrays[slot].set_sharers(line, sharers);
    }

    /// Registers a miss for `line` carrying `waiter` in `core`'s MSHR
    /// table; see [`MshrTable::allocate`]. A full table is counted in
    /// [`LevelStats::mshr_rejections`].
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] when a new entry is needed but no register is
    /// free.
    pub fn mshr_allocate(
        &mut self,
        core: usize,
        line: LineAddr,
        waiter: W,
        is_prefetch: bool,
    ) -> Result<bool, MshrFull> {
        let slot = self.slot(core);
        let res = self.mshrs[slot].allocate(line, waiter, is_prefetch);
        if res.is_err() {
            self.stats.mshr_rejections += 1;
        }
        res
    }

    /// Completes the outstanding miss for `line` in `core`'s MSHR table.
    pub fn mshr_complete(&mut self, core: usize, line: LineAddr) -> Option<(Vec<W>, bool)> {
        let slot = self.slot(core);
        self.mshrs[slot].complete(line)
    }

    /// Charges the counters of `n` retry attempts known to be refused,
    /// without walking the tag array or MSHR table: per attempt, a tag
    /// access that misses plus an MSHR rejection — exactly what the full
    /// re-attempts would have recorded (a miss leaves the array
    /// untouched).
    pub fn count_rejected_retries(&mut self, n: u64) {
        self.stats.accesses += n;
        self.stats.misses += n;
        self.stats.mshr_rejections += n;
    }

    /// Whether a miss to `line` is outstanding for `core`.
    pub fn mshr_contains(&self, core: usize, line: LineAddr) -> bool {
        self.mshrs[self.slot(core)].contains(line)
    }

    /// Whether the outstanding entry for `line` (if any) is prefetch-only.
    pub fn mshr_is_prefetch_only(&self, core: usize, line: LineAddr) -> Option<bool> {
        self.mshrs[self.slot(core)].is_prefetch_only(line)
    }

    /// Whether every MSHR register of `core`'s table is in use.
    pub fn mshr_full(&self, core: usize) -> bool {
        self.mshrs[self.slot(core)].is_full()
    }

    /// MSHR registers in use in `core`'s table.
    pub fn mshr_in_use(&self, core: usize) -> usize {
        self.mshrs[self.slot(core)].in_use()
    }

    /// MSHR capacity of `core`'s table.
    pub fn mshr_capacity(&self, core: usize) -> usize {
        self.mshrs[self.slot(core)].capacity()
    }

    /// Total outstanding misses across every instance of this level.
    pub fn mshr_in_flight_total(&self) -> usize {
        self.mshrs.iter().map(|m| m.in_use()).sum()
    }

    /// Total valid lines across every instance (diagnostics/tests).
    pub fn occupancy(&self) -> usize {
        self.arrays.iter().map(|a| a.occupancy()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::ReplacementKind;

    fn small_cfg() -> CacheConfig {
        // 4 sets x 2 ways per core.
        CacheConfig::new("t", 8 * 64, 2, ReplacementKind::Lru, 4).with_latency(7)
    }

    #[test]
    fn private_level_isolates_cores() {
        let mut lv: CacheLevel<()> = CacheLevel::private(&small_cfg(), 2);
        let line = LineAddr::new(0x40);
        lv.fill(0, line, false, false, 0);
        assert!(lv.probe(0, line));
        assert!(!lv.probe(1, line), "private fill must not leak to core 1");
        assert_eq!(lv.latency(), 7);
    }

    #[test]
    fn shared_level_scales_and_aliases() {
        let mut lv: CacheLevel<()> = CacheLevel::shared(&small_cfg(), 4);
        assert_eq!(lv.config().size_bytes, 4 * 8 * 64);
        assert_eq!(lv.mshr_capacity(3), 16);
        let line = LineAddr::new(0x80);
        lv.fill(2, line, false, false, 0);
        assert!(lv.probe(0, line), "shared fill visible to every core");
    }

    #[test]
    fn stats_count_hits_misses_and_rejections() {
        let mut lv: CacheLevel<u8> = CacheLevel::private(&small_cfg(), 1);
        let line = LineAddr::new(0x40);
        assert!(!lv.access(0, line, 0).hit);
        lv.fill(0, line, false, false, 0);
        assert!(lv.access(0, line, 0).hit);
        for i in 0..4u64 {
            lv.mshr_allocate(0, LineAddr::new(0x1000 + i), 0, false)
                .unwrap();
        }
        assert!(lv
            .mshr_allocate(0, LineAddr::new(0x9999), 0, false)
            .is_err());
        let s = *lv.stats();
        assert_eq!((s.accesses, s.hits, s.misses), (2, 1, 1));
        assert_eq!(s.fills, 1);
        assert_eq!(s.mshr_rejections, 1);
        assert_eq!(lv.mshr_in_flight_total(), 4);
        lv.reset_stats();
        assert_eq!(*lv.stats(), LevelStats::default());
        assert_eq!(lv.mshr_in_flight_total(), 4, "reset keeps MSHR state");
    }

    #[test]
    fn dirty_evictions_counted() {
        let mut lv: CacheLevel<()> = CacheLevel::private(&small_cfg(), 1);
        // Fill one set (2 ways) with dirty lines, then force an eviction.
        let l = |i: u64| LineAddr::new(i * 4);
        lv.fill(0, l(1), true, false, 0);
        lv.fill(0, l(2), true, false, 0);
        let ev = lv.fill(0, l(3), false, false, 0).expect("must evict");
        assert!(ev.dirty);
        assert_eq!(lv.stats().dirty_evictions, 1);
    }

    #[test]
    fn invalidate_counts_and_reports_dirty() {
        let mut lv: CacheLevel<()> = CacheLevel::private(&small_cfg(), 2);
        let line = LineAddr::new(0x40);
        lv.fill(1, line, true, false, 0);
        assert_eq!(lv.invalidate(0, line), None, "core 0 never held it");
        assert_eq!(lv.invalidate(1, line), Some(true));
        assert!(!lv.probe(1, line));
        assert_eq!(lv.stats().invalidations, 1, "only real kills counted");
    }

    #[test]
    fn shared_level_directory_round_trip() {
        let mut lv: CacheLevel<()> = CacheLevel::shared(&small_cfg(), 4);
        let line = LineAddr::new(0x40);
        lv.fill(2, line, false, false, 0);
        assert!(lv.add_sharer(0, line, 2));
        assert!(lv.add_sharer(1, line, 3));
        assert_eq!(lv.sharers(3, line), 0b1100, "one directory for all cores");
        lv.set_sharers(0, line, 0b1);
        assert_eq!(lv.sharers(0, line), 0b1);
        assert!(lv.probe_dirty(0, LineAddr::new(0x40)) == lv.probe_dirty(3, line));
        assert!(lv.clean(0, line), "clean on resident line");
    }

    #[test]
    fn instantiated_matches_scope() {
        let shared: CacheLevel<()> = CacheLevel::shared(&small_cfg(), 8);
        let inst = shared.config();
        assert_eq!(inst.size_bytes, 8 * 8 * 64);
        assert_eq!(inst.mshrs, 32);
        assert_eq!(inst.latency, 7);
        let private: CacheLevel<()> = CacheLevel::private(&small_cfg(), 8);
        assert_eq!(private.config(), &small_cfg());
        assert_eq!(private.mshr_capacity(7), 4);
    }

    #[test]
    #[should_panic]
    fn zero_cores_rejected() {
        let _: CacheLevel<()> = CacheLevel::private(&small_cfg(), 0);
    }
}
