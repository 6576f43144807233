//! Versioned, concurrency-safe on-disk result cache.
//!
//! Layout: `<root>/v<CACHE_SCHEMA_VERSION>/<key>.kv`, one file per
//! `(configuration, trace, window)` point in the [`RunLite`] `key=value`
//! format. The schema version is part of the path, so results cached by
//! an older simulator or record layout are invisible (a miss) rather than
//! silently reused — bump [`CACHE_SCHEMA_VERSION`] whenever a change
//! alters simulation results or what a record field means.
//!
//! Concurrency: threads and processes may share one cache directory.
//! Each entry is published by write-to-temp plus rename into the
//! versioned directory, so a reader sees a whole entry or none, never a
//! torn one. Nothing serialises computation: two processes that miss on
//! the same key may both simulate it, and each publishes the same bytes
//! atomically. Within one process that never happens: the engine
//! deduplicates a batch's points before they reach the cache, and
//! `run_all` submits every experiment's points as one batch. The cache
//! serves what earlier runs computed.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::record::RunLite;
use crate::Provenance;

/// Version tag baked into every cache path.
///
/// History: v1 was the unversioned `target/expcache/*.kv` layout owned by
/// `hermes-bench`; v2 moved the cache into `hermes-exec` and added the
/// version directory and lock protocol; v3 marks the generic N-level
/// hierarchy engine (default-topology results are bit-identical, but
/// `SystemConfig` grew fields, changing every config fingerprint — the
/// bump keeps the orphaned v2 entries out of the way); v4 adds the
/// address-translation subsystem (`SystemConfig::vm` enters every
/// fingerprint and `RunLite` grew the dTLB/STLB/walk fields); v5 adds
/// MESI coherence (`SystemConfig::coherence` enters every fingerprint,
/// `RunLite` grew the coherence-traffic fields, and the writeback-path
/// TTP-training fix legitimately moved TTP-predictor results); v6 adds
/// coherence-aware prediction (`HermesConfig` grew the `coh_features`
/// and `filter` knobs, entering every fingerprint, and `RunLite` grew
/// the speculative-read and confusion-matrix fields); v7 adds the
/// observability layer (`SystemConfig` grew the `probe` field, entering
/// every fingerprint, and `RunLite` grew the DRAM queue-occupancy /
/// queue-delay and latency-quantile fields); v8 adds the out-of-order
/// core model (`CoreConfig` grew the `model` field, entering every
/// fingerprint, and `RunLite` grew the ROB-occupancy / RS-LSQ-stall /
/// forwarding / flush fields); v9 adds the event-driven scheduler
/// (`SystemConfig` grew the `scheduler` field and a since-retired
/// prefetch bandwidth-guard field, entering every fingerprint).
///
/// A change to the set of `RunLite` fields needs no bump of its own:
/// adding, removing or renaming a row of the record's stats table makes
/// every older entry fail to parse (an unknown or a missing key is a
/// corrupt entry), so it degrades to a miss. Bump only when a stat keeps
/// its name but changes meaning, or when simulation results move.
pub const CACHE_SCHEMA_VERSION: u32 = 9;

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Set by the first publish failure this process reports, so an
/// unwritable root costs one warning, not one per point.
static WARNED: AtomicBool = AtomicBool::new(false);

/// On-disk cache of [`RunLite`] records under a versioned root.
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: PathBuf,
    verbose: bool,
}

impl ResultCache {
    /// Opens (and creates) a cache rooted at `root`; entries live under
    /// `root/v<CACHE_SCHEMA_VERSION>/`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let cache = Self {
            root: root.into(),
            verbose: true,
        };
        let _ = fs::create_dir_all(cache.dir());
        cache
    }

    /// Suppresses the warning on stderr when an entry cannot be
    /// published.
    pub fn quiet(mut self) -> Self {
        self.verbose = false;
        self
    }

    /// The conventional repository location, `target/expcache`.
    pub fn default_location() -> Self {
        Self::new("target/expcache")
    }

    /// The versioned directory actually holding entries.
    pub fn dir(&self) -> PathBuf {
        self.root.join(format!("v{CACHE_SCHEMA_VERSION}"))
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir().join(format!("{key}.kv"))
    }

    /// Reads an entry; any corruption (truncated write, stale format) is
    /// a miss, never an error.
    pub fn lookup(&self, key: &str) -> Option<RunLite> {
        let s = fs::read_to_string(self.entry_path(key)).ok()?;
        RunLite::from_kv(&s)
    }

    /// Publishes an entry atomically (temp file + rename), so concurrent
    /// readers see either the old bytes, the new bytes, or no file. A
    /// failure (an unwritable root, a full disk) leaves no entry. The
    /// process's first failure is reported on stderr unless the cache is
    /// [`quiet`](Self::quiet); later ones are not.
    pub fn store(&self, key: &str, r: &RunLite) {
        let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir()
            .join(format!("{key}.{}-{n}.tmp", std::process::id()));
        let published =
            fs::write(&tmp, r.to_kv()).and_then(|()| fs::rename(&tmp, self.entry_path(key)));
        if let Err(e) = published {
            // A failed write can still leave a partial temp file behind.
            let _ = fs::remove_file(&tmp);
            if self.verbose && !WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "  cache: cannot publish results under {}: {e} \
                     (results are still used; further failures are not reported)",
                    self.root.display()
                );
            }
        }
    }

    /// Returns the cached record for `key`, or computes, publishes and
    /// returns it. A compute that panics publishes nothing.
    pub fn get_or_compute(
        &self,
        key: &str,
        compute: impl FnOnce() -> RunLite,
    ) -> (RunLite, Provenance) {
        if let Some(r) = self.lookup(key) {
            return (r, Provenance::Cache);
        }
        let r = compute();
        self.store(key, &r);
        (r, Provenance::Computed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hermes-exec-cache-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> RunLite {
        RunLite {
            ipc: 1.5,
            cycles: 100.0,
            ..Default::default()
        }
    }

    #[test]
    fn store_then_lookup() {
        let c = ResultCache::new(scratch("roundtrip"));
        assert!(c.lookup("k").is_none());
        c.store("k", &sample());
        assert_eq!(c.lookup("k"), Some(sample()));
    }

    #[test]
    fn corrupt_entry_is_a_miss_and_gets_recomputed() {
        let c = ResultCache::new(scratch("corrupt"));
        fs::write(c.dir().join("k.kv"), "ipc=garbage\n").unwrap();
        assert!(c.lookup("k").is_none());
        let (r, p) = c.get_or_compute("k", sample);
        assert_eq!(r, sample());
        assert_eq!(p, Provenance::Computed);
        assert_eq!(c.lookup("k"), Some(sample()), "recompute overwrites");
    }

    #[test]
    fn unversioned_legacy_entries_are_invisible() {
        let root = scratch("legacy");
        // A v1-era entry sitting directly under the root (no version dir).
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("k.kv"), sample().to_kv()).unwrap();
        let c = ResultCache::new(&root);
        assert!(
            c.lookup("k").is_none(),
            "pre-versioning entries must be misses"
        );
    }

    #[test]
    fn second_probe_is_a_hit() {
        let c = ResultCache::new(scratch("hit"));
        let (_, p1) = c.get_or_compute("k", sample);
        let (r2, p2) = c.get_or_compute("k", || panic!("must not recompute"));
        assert_eq!(p1, Provenance::Computed);
        assert_eq!(p2, Provenance::Cache);
        assert_eq!(r2, sample());
    }

    #[test]
    fn panicking_compute_publishes_nothing() {
        let c = ResultCache::new(scratch("panic"));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.get_or_compute("k", || panic!("boom"))
        }));
        assert!(res.is_err());
        assert!(
            c.lookup("k").is_none(),
            "a panicking compute stores nothing"
        );
        assert_eq!(
            fs::read_dir(c.dir()).unwrap().count(),
            0,
            "and leaves no temp file"
        );
        // A later caller misses and computes.
        let (r, p) = c.get_or_compute("k", sample);
        assert_eq!((r, p), (sample(), Provenance::Computed));
    }
}
