//! Directory-style MESI coherence: configuration and line-state types.
//!
//! The protocol itself is orchestrated by the hierarchy engine
//! (`hermes-sim`); this module holds the pieces that belong with the
//! cache structures:
//!
//! * [`CoherenceConfig`] — the timing/shape knobs, carried by
//!   `SystemConfig::coherence` (`None` keeps the historical
//!   coherence-free hierarchy, bit-identical);
//! * [`Mesi`] — the per-line stable state, *derived* from the line
//!   metadata the arrays already track (dirty bit + sharer directory)
//!   instead of being stored redundantly: **M** = dirty private copy,
//!   **E** = clean private copy whose directory entry lists a single
//!   sharer, **S** = clean private copy with other sharers, **I** =
//!   absent.
//!
//! The sharer directory is *inclusive* and piggybacked on the shared
//! last level's tags: every line holds a [`sharers`](crate::CacheArray::sharers)
//! bitmap (one bit per core, which bounds coherent systems to 64 cores),
//! maintained by the hierarchy engine as fills travel toward cores and
//! invalidations travel away from them. Bits may over-approximate (a
//! silent clean eviction from a private cache leaves its bit set — the
//! classic stale-directory behaviour, resolved by a spurious
//! invalidation later), but they never under-approximate: the directory
//! is always a superset of the true private holders.

/// Stable MESI state of a cache line in one core's private hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Modified: the only copy, dirty with respect to the outer levels.
    Modified,
    /// Exclusive: the only copy, clean.
    Exclusive,
    /// Shared: clean, other cores may hold copies.
    Shared,
    /// Invalid: not present.
    Invalid,
}

impl Mesi {
    /// Whether the line is present at all.
    pub fn present(self) -> bool {
        self != Mesi::Invalid
    }
}

/// Configuration of the optional directory-MESI coherence layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoherenceConfig {
    /// Cycles a write-permission upgrade (store hit on a Shared line)
    /// spends on the directory round trip that invalidates remote
    /// copies. Store-miss RFOs overlap their invalidations with the
    /// data fetch and pay nothing extra, and a read that hits remotely
    /// Modified data pays the same latency as a dirty intervention.
    pub inv_latency: u32,
}

impl CoherenceConfig {
    /// The default timing: a 24-cycle directory round trip, roughly an
    /// LLC-latency-class hop (between the paper's 15-cycle L2 and
    /// 55-cycle LLC load-to-use points).
    pub fn baseline() -> Self {
        Self { inv_latency: 24 }
    }

    /// Validates the configuration for a `cores`-core system.
    ///
    /// # Panics
    ///
    /// Panics if `cores` exceeds the 64-bit sharer-bitmap capacity.
    pub fn validate(&self, cores: usize) {
        assert!(
            cores <= 64,
            "sharer directory bitmaps hold at most 64 cores (got {cores})"
        );
    }
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(Mesi::Shared.present() && !Mesi::Invalid.present());
    }

    #[test]
    fn config_builders_and_validation() {
        let c = CoherenceConfig::default();
        assert_eq!(c, CoherenceConfig::baseline());
        c.validate(64);
    }

    #[test]
    #[should_panic(expected = "at most 64 cores")]
    fn too_many_cores_rejected() {
        CoherenceConfig::baseline().validate(65);
    }
}
