//! The set-associative tag array.

use hermes_types::{LineAddr, LINE_SIZE};

use crate::replacement::{PolicyState, ReplacementKind};

/// Static configuration of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Display name ("L1D", "L2", "LLC").
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Replacement policy.
    pub replacement: ReplacementKind,
    /// Number of MSHRs (used by the hierarchy engine, carried here so one
    /// struct describes a level).
    pub mshrs: usize,
    /// Lookup latency contribution in cycles (also consumed by the
    /// hierarchy engine).
    pub latency: u32,
}

impl CacheConfig {
    /// Creates a config; latency defaults to 0 and can be set with
    /// [`CacheConfig::with_latency`].
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is a multiple of `ways * 64` and the
    /// resulting set count is a power of two (hardware-indexable).
    pub fn new(
        name: impl Into<String>,
        size_bytes: u64,
        ways: usize,
        replacement: ReplacementKind,
        mshrs: usize,
    ) -> Self {
        let cfg = Self {
            name: name.into(),
            size_bytes,
            ways,
            replacement,
            mshrs,
            latency: 0,
        };
        let sets = cfg.sets();
        assert!(
            sets.is_power_of_two(),
            "{}: {} sets not a power of two",
            cfg.name,
            sets
        );
        assert!(sets >= 1 && ways >= 1);
        cfg
    }

    /// Sets the lookup latency (cycles) and returns the config.
    pub fn with_latency(mut self, latency: u32) -> Self {
        self.latency = latency;
        self
    }

    /// The geometry of one instance shared by `cores` cores: capacity and
    /// MSHR count multiplied by `cores`, everything else kept (the
    /// paper's "3 MB/core" LLC convention).
    ///
    /// # Panics
    ///
    /// Panics if the scaled set count is not a power of two.
    pub fn scaled(&self, cores: usize) -> Self {
        Self::new(
            self.name.clone(),
            self.size_bytes * cores as u64,
            self.ways,
            self.replacement,
            self.mshrs * cores,
        )
        .with_latency(self.latency)
    }

    /// Number of sets implied by size and associativity.
    pub fn sets(&self) -> usize {
        (self.size_bytes as usize) / (self.ways * LINE_SIZE)
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.sets() * self.ways
    }
}

/// Result of a demand/prefetch access to the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether the hit line had been brought in by a prefetch and this is
    /// its first demand touch (used for prefetch-usefulness accounting).
    pub first_demand_on_prefetch: bool,
}

/// An evicted line returned by [`CacheArray::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The line that was evicted.
    pub line: LineAddr,
    /// Whether it must be written back.
    pub dirty: bool,
    /// Whether it was a never-demanded prefetch (a useless prefetch).
    pub was_unused_prefetch: bool,
    /// Sharer-directory bitmap the line carried (always zero outside a
    /// coherent shared level); the hierarchy engine back-invalidates
    /// these cores to keep the directory inclusive.
    pub sharers: u64,
}

/// Per-line attribute bits, packed into one byte so a whole set's
/// metadata spans `ways` contiguous bytes (one cache line for any
/// realistic associativity) instead of four separate `bool` vectors.
mod flag {
    pub const VALID: u8 = 1 << 0;
    pub const DIRTY: u8 = 1 << 1;
    pub const PREFETCHED: u8 = 1 << 2;
    pub const DEMANDED: u8 = 1 << 3;
}

/// A set-associative cache tag array with pluggable replacement.
///
/// Purely structural: no queues, no latencies. See crate docs for the
/// division of labour with the hierarchy engine.
///
/// Layout is structure-of-arrays: tags in one contiguous `u64` vector,
/// all boolean attributes packed into one byte per line, and a per-set
/// valid-way bitmask so the hot lookup walks only occupied ways (in
/// ascending way order, matching the legacy linear scan bit-for-bit).
#[derive(Debug, Clone)]
pub struct CacheArray {
    name: String,
    ways: usize,
    set_mask: u64,
    tags: Vec<u64>,
    /// Packed [`flag`] bits per line.
    flags: Vec<u8>,
    /// Per-set bitmask of valid ways; bit `w` set ⇔ way `w` holds a
    /// valid line. Lets [`CacheArray::find`] skip invalid ways with
    /// `trailing_zeros` and [`CacheArray::fill`] locate the first free
    /// way without touching the flag bytes.
    present: Vec<u64>,
    /// Per-line sharer-directory bitmap (one bit per core), allocated
    /// by the first [`CacheArray::add_sharer`] or
    /// [`CacheArray::set_sharers`] on a resident line: only a coherent
    /// shared level writes it, and an array without it reads 0 for
    /// every line.
    sharers: Vec<u64>,
    policy: PolicyState,
}

impl CacheArray {
    /// Builds an empty array per `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ways > 64` (the per-set valid mask is a `u64`).
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        let lines = cfg.lines();
        assert!(cfg.ways <= 64, "{}: >64 ways unsupported", cfg.name);
        Self {
            name: cfg.name.clone(),
            ways: cfg.ways,
            set_mask: sets as u64 - 1,
            tags: vec![0; lines],
            flags: vec![0; lines],
            present: vec![0; sets],
            sharers: Vec::new(),
            policy: PolicyState::new(cfg.replacement, lines),
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() & self.set_mask) as usize
    }

    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let set = self.set_of(line);
        let base = set * self.ways;
        let raw = line.raw();
        // Walk valid ways in ascending order (same order as the legacy
        // linear scan) via the presence mask.
        let mut mask = self.present[set];
        while mask != 0 {
            let i = base + mask.trailing_zeros() as usize;
            if self.tags[i] == raw {
                return Some(i);
            }
            mask &= mask - 1;
        }
        None
    }

    /// Checks presence without perturbing replacement state.
    pub fn probe(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Demand access: updates replacement state on a hit and consumes the
    /// line's "unused prefetch" status.
    pub fn access(&mut self, line: LineAddr, pc_signature: u16) -> AccessResult {
        let _ = pc_signature; // signature only matters on fill for SHiP
        match self.find(line) {
            Some(idx) => {
                self.policy.on_hit(idx);
                let f = self.flags[idx];
                let first = f & (flag::PREFETCHED | flag::DEMANDED) == flag::PREFETCHED;
                self.flags[idx] = f | flag::DEMANDED;
                AccessResult {
                    hit: true,
                    first_demand_on_prefetch: first,
                }
            }
            None => AccessResult {
                hit: false,
                first_demand_on_prefetch: false,
            },
        }
    }

    /// Marks a resident line dirty (store hit). Returns whether it was
    /// present.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        if let Some(idx) = self.find(line) {
            self.flags[idx] |= flag::DIRTY;
            true
        } else {
            false
        }
    }

    /// Fills `line`, evicting a victim if the set is full.
    ///
    /// `prefetched` tags the line as prefetcher-inserted (for usefulness
    /// accounting); `pc_signature` feeds SHiP.
    pub fn fill(
        &mut self,
        line: LineAddr,
        dirty: bool,
        prefetched: bool,
        pc_signature: u16,
    ) -> Option<Evicted> {
        if let Some(idx) = self.find(line) {
            // Line raced in already (e.g. prefetch then demand fill):
            // merge attributes instead of duplicating the tag.
            self.flags[idx] |= if dirty { flag::DIRTY } else { 0 };
            return None;
        }
        let set = self.set_of(line);
        let base = set * self.ways;
        let ways_mask = if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        };
        // Prefer the lowest-numbered invalid way, as the legacy linear
        // scan did.
        let free = !self.present[set] & ways_mask;
        let (idx, evicted) = if free != 0 {
            (base + free.trailing_zeros() as usize, None)
        } else {
            let w = self.policy.victim(base, self.ways);
            let i = base + w;
            self.policy.on_evict(i);
            let f = self.flags[i];
            let ev = Evicted {
                line: LineAddr::new(self.tags[i]),
                dirty: f & flag::DIRTY != 0,
                was_unused_prefetch: f & (flag::PREFETCHED | flag::DEMANDED) == flag::PREFETCHED,
                sharers: self.sharers.get(i).copied().unwrap_or(0),
            };
            (i, Some(ev))
        };
        self.tags[idx] = line.raw();
        self.flags[idx] = flag::VALID
            | if dirty { flag::DIRTY } else { 0 }
            | if prefetched { flag::PREFETCHED } else { 0 };
        self.present[set] |= 1 << (idx - base);
        if let Some(s) = self.sharers.get_mut(idx) {
            *s = 0;
        }
        self.policy.on_fill(idx, pc_signature);
        evicted
    }

    /// Invalidates a line; returns whether it was present (and dirty).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let idx = self.find(line)?;
        let set = self.set_of(line);
        self.present[set] &= !(1 << (idx - set * self.ways));
        if let Some(s) = self.sharers.get_mut(idx) {
            *s = 0;
        }
        let dirty = self.flags[idx] & flag::DIRTY != 0;
        self.flags[idx] = 0;
        Some(dirty)
    }

    /// Whether the line is resident *and* dirty (no replacement-state
    /// perturbation — a directory probe, not an access).
    pub fn probe_dirty(&self, line: LineAddr) -> bool {
        self.find(line)
            .is_some_and(|idx| self.flags[idx] & flag::DIRTY != 0)
    }

    /// Clears a resident line's dirty bit (M → S downgrade on a dirty
    /// intervention: the modified data moved to the outer level).
    /// Returns whether the line was present.
    pub fn clean(&mut self, line: LineAddr) -> bool {
        if let Some(idx) = self.find(line) {
            self.flags[idx] &= !flag::DIRTY;
            true
        } else {
            false
        }
    }

    /// Sharer-directory bitmap of a resident line (zero when absent or
    /// never tracked).
    pub fn sharers(&self, line: LineAddr) -> u64 {
        self.find(line)
            .and_then(|idx| self.sharers.get(idx).copied())
            .unwrap_or(0)
    }

    /// Adds `core` to a resident line's sharer bitmap; returns whether
    /// the line was present (a directory entry exists to update).
    pub fn add_sharer(&mut self, line: LineAddr, core: usize) -> bool {
        debug_assert!(core < 64, "sharer bitmap holds at most 64 cores");
        if let Some(idx) = self.find(line) {
            self.directory()[idx] |= 1 << core;
            true
        } else {
            false
        }
    }

    /// Replaces a resident line's sharer bitmap wholesale (the
    /// post-invalidation "sole owner" write).
    pub fn set_sharers(&mut self, line: LineAddr, sharers: u64) {
        if let Some(idx) = self.find(line) {
            self.directory()[idx] = sharers;
        }
    }

    /// The sharer directory, allocated all-zero on first use.
    fn directory(&mut self) -> &mut [u64] {
        if self.sharers.is_empty() {
            self.sharers = vec![0; self.tags.len()];
        }
        &mut self.sharers
    }

    /// Number of valid lines currently resident (test/diagnostic helper).
    pub fn occupancy(&self) -> usize {
        self.present.iter().map(|m| m.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray {
        // 4 sets x 2 ways.
        CacheArray::new(&CacheConfig::new("t", 8 * 64, 2, ReplacementKind::Lru, 4))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let l = LineAddr::new(0x40);
        assert!(!c.access(l, 0).hit);
        assert!(c.fill(l, false, false, 0).is_none());
        assert!(c.access(l, 0).hit);
        assert!(c.probe(l));
    }

    #[test]
    fn eviction_on_full_set() {
        let mut c = small();
        // Lines mapping to set 0 (4 sets -> line % 4 == 0).
        let l = |i: u64| LineAddr::new(i * 4);
        c.fill(l(1), false, false, 0);
        c.fill(l(2), false, false, 0);
        let ev = c.fill(l(3), false, false, 0).expect("set full, must evict");
        assert_eq!(ev.line, l(1)); // LRU
        assert!(!c.probe(l(1)));
        assert!(c.probe(l(2)) && c.probe(l(3)));
    }

    #[test]
    fn dirty_eviction_flag() {
        let mut c = small();
        let l = |i: u64| LineAddr::new(i * 4);
        c.fill(l(1), true, false, 0);
        c.fill(l(2), false, false, 0);
        let ev = c.fill(l(3), false, false, 0).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn mark_dirty_only_if_present() {
        let mut c = small();
        let l = LineAddr::new(0x80);
        assert!(!c.mark_dirty(l));
        c.fill(l, false, false, 0);
        assert!(c.mark_dirty(l));
        assert_eq!(c.invalidate(l), Some(true));
        assert_eq!(c.invalidate(l), None);
    }

    #[test]
    fn unused_prefetch_tracked() {
        let mut c = small();
        let l = |i: u64| LineAddr::new(i * 4);
        c.fill(l(1), false, true, 0); // prefetch, never demanded
        c.fill(l(2), false, false, 0);
        let ev = c.fill(l(3), false, false, 0).unwrap();
        assert!(ev.was_unused_prefetch);
    }

    #[test]
    fn first_demand_on_prefetch_reported_once() {
        let mut c = small();
        let l = LineAddr::new(0x100);
        c.fill(l, false, true, 0);
        let a1 = c.access(l, 0);
        assert!(a1.hit && a1.first_demand_on_prefetch);
        let a2 = c.access(l, 0);
        assert!(a2.hit && !a2.first_demand_on_prefetch);
    }

    #[test]
    fn duplicate_fill_merges() {
        let mut c = small();
        let l = LineAddr::new(0x140);
        c.fill(l, false, false, 0);
        assert!(c.fill(l, true, false, 0).is_none());
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.invalidate(l), Some(true)); // dirty merged in
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut c = small();
        for i in 0..100u64 {
            c.fill(LineAddr::new(i), false, false, 0);
        }
        assert!(c.occupancy() <= 8);
    }

    #[test]
    fn sharer_directory_is_allocated_by_its_first_write() {
        let mut c = small();
        let l = |i: u64| LineAddr::new(i * 4);
        // One set: the third fill evicts.
        c.fill(l(0), true, false, 0);
        c.fill(l(1), false, false, 0);
        let ev = c.fill(l(2), false, false, 0).expect("a full set evicts");
        assert_eq!((ev.line, ev.sharers), (l(0), 0));
        assert_eq!(c.invalidate(l(1)), Some(false));
        c.fill(l(9), false, false, 0);
        assert!(!c.add_sharer(l(0), 1), "absent line has no directory entry");
        c.set_sharers(l(0), 0b10);
        assert!(c.sharers.is_empty(), "no directory without a write");
        assert_eq!(c.sharers(l(9)), 0);
        assert!(c.add_sharer(l(9), 2));
        assert_eq!(c.sharers.len(), c.tags.len());
        assert_eq!(c.sharers(l(9)), 0b100);
    }

    #[test]
    fn sharer_bitmap_tracks_fills_invalidations_and_evictions() {
        let mut c = small();
        let l = |i: u64| LineAddr::new(i * 4);
        c.fill(l(1), false, false, 0);
        assert_eq!(c.sharers(l(1)), 0, "fresh fill starts with no sharers");
        assert!(c.add_sharer(l(1), 0));
        assert!(c.add_sharer(l(1), 3));
        assert_eq!(c.sharers(l(1)), 0b1001);
        c.set_sharers(l(1), 0b1000);
        assert_eq!(c.sharers(l(1)), 0b1000);
        assert!(!c.add_sharer(l(9), 1), "absent line has no directory entry");
        assert_eq!(c.sharers(l(9)), 0);
        // Eviction reports the bitmap so the engine can back-invalidate.
        c.fill(l(2), false, false, 0);
        c.access(l(2), 0); // make l(1) the LRU victim
        let ev = c.fill(l(3), false, false, 0).unwrap();
        assert_eq!((ev.line, ev.sharers), (l(1), 0b1000));
        // Invalidation clears the bitmap with the line.
        c.set_sharers(l(2), 0b11);
        c.invalidate(l(2));
        c.fill(l(2), false, false, 0);
        assert_eq!(c.sharers(l(2)), 0, "re-fill must not resurrect sharers");
    }

    #[test]
    fn probe_dirty_and_clean() {
        let mut c = small();
        let l = LineAddr::new(0x80);
        assert!(!c.probe_dirty(l));
        assert!(!c.clean(l), "clean of absent line reports absence");
        c.fill(l, true, false, 0);
        assert!(c.probe_dirty(l));
        assert!(c.clean(l));
        assert!(!c.probe_dirty(l), "clean drops the dirty bit");
        assert!(c.probe(l), "clean keeps the line resident");
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheConfig::new("bad", 3 * 64, 1, ReplacementKind::Lru, 1);
    }

    #[test]
    fn table4_llc_geometry() {
        // 3 MB, 12-way => 4096 sets.
        let cfg = CacheConfig::new("LLC", 3 << 20, 12, ReplacementKind::Ship, 64);
        assert_eq!(cfg.sets(), 4096);
        assert_eq!(cfg.lines(), 49152);
    }
}
