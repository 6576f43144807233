//! Versioned, concurrency-safe on-disk result cache.
//!
//! Layout: `<root>/v<CACHE_SCHEMA_VERSION>/<key>.kv`, one file per
//! `(configuration, trace, window)` point in the [`RunLite`] `key=value`
//! format. The schema version is part of the path, so results cached by
//! an older simulator or record layout are invisible (a miss) rather than
//! silently reused — bump [`CACHE_SCHEMA_VERSION`] whenever a change
//! alters simulation results or what a record field means.
//!
//! Concurrency: multiple threads *and* multiple processes (e.g. two
//! figure binaries started at once) may share one cache directory. One
//! batch never needs the cache to share work within itself: the engine
//! deduplicates a batch's points before they reach the cache, and
//! `run_all` submits every experiment's points as one batch. The cache
//! serves what earlier runs computed. A sidecar `<key>.lock` file
//! created with `O_EXCL` serialises computation per key: the winner
//! simulates and publishes the entry with a write-to-temp + atomic-rename,
//! losers poll until the entry appears and then read it, so no point is
//! ever simulated twice and readers never observe a half-written file.
//! Locks abandoned by a crashed process are broken after
//! [`LOCK_STALE_SECS`].

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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

/// How long a lock file may sit untouched before a waiter assumes its
/// owner died and breaks it. Generous: a legitimate `--full` eight-core
/// point takes well under this.
const LOCK_STALE_SECS: u64 = 300;

/// Poll interval while waiting for another worker's result.
const POLL: Duration = Duration::from_millis(20);

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

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

    /// Suppresses lock-wait/lock-break diagnostics on stderr.
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

    fn lock_path(&self, key: &str) -> PathBuf {
        self.dir().join(format!("{key}.lock"))
    }

    /// Reads an entry; any corruption (truncated write, stale format) is
    /// a miss, never an error.
    pub fn lookup(&self, key: &str) -> Option<RunLite> {
        let s = fs::read_to_string(self.entry_path(key)).ok()?;
        RunLite::from_kv(&s)
    }

    /// Publishes an entry atomically (temp file + rename), so concurrent
    /// readers see either the old bytes, the new bytes, or no file.
    pub fn store(&self, key: &str, r: &RunLite) {
        let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir()
            .join(format!("{key}.{}-{n}.tmp", std::process::id()));
        // Clean up the temp file on either failure (a failed write can
        // still leave a partial file behind).
        if fs::write(&tmp, r.to_kv()).is_err() || fs::rename(&tmp, self.entry_path(key)).is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Returns the cached record for `key`, computing and publishing it
    /// exactly once across every thread and process sharing this
    /// directory.
    pub fn get_or_compute(
        &self,
        key: &str,
        compute: impl FnOnce() -> RunLite,
    ) -> (RunLite, Provenance) {
        if let Some(r) = self.lookup(key) {
            return (r, Provenance::Cache);
        }
        let mut compute = Some(compute);
        let mut waited = false;
        loop {
            match LockGuard::acquire(self.lock_path(key)) {
                Some(guard) => {
                    // Re-probe under the lock: another worker may have
                    // published between our miss and the acquisition.
                    if let Some(r) = self.lookup(key) {
                        drop(guard);
                        let p = if waited {
                            Provenance::Waited
                        } else {
                            Provenance::Cache
                        };
                        return (r, p);
                    }
                    let r = (compute.take().expect("compute consumed once"))();
                    self.store(key, &r);
                    drop(guard);
                    return (r, Provenance::Computed);
                }
                None => {
                    if !waited && self.verbose {
                        eprintln!(
                            "  wait: {key} locked by another worker \
                             (dead-owner locks are broken automatically)"
                        );
                    }
                    waited = true;
                    std::thread::sleep(POLL);
                    if let Some(r) = self.lookup(key) {
                        return (r, Provenance::Waited);
                    }
                    break_stale_lock(&self.lock_path(key), self.verbose);
                }
            }
        }
    }
}

/// The `host:pid-counter` token stamped into lock files. The host part
/// keeps the PID-liveness probe honest on cross-host shared filesystems
/// (a PID only means something on the machine that issued it).
fn lock_token() -> String {
    format!(
        "{}:{}-{}",
        hostname(),
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

fn hostname() -> String {
    fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown-host".to_string())
}

/// Removes a lock whose owner appears to have died: it was issued on this
/// host and its recorded PID no longer exists (e.g. a figure binary
/// killed with Ctrl-C, which terminates without unwinding `LockGuard`),
/// or — the fallback covering other hosts and platforms without `/proc` —
/// its mtime is older than [`LOCK_STALE_SECS`]. Best effort: racing
/// removers are harmless because acquisition is an atomic `create_new`.
fn break_stale_lock(path: &Path, verbose: bool) {
    if let Ok(token) = fs::read_to_string(path) {
        let same_host = token
            .split(':')
            .next()
            .is_some_and(|host| host == hostname());
        let pid = token
            .rsplit(':')
            .next()
            .and_then(|rest| rest.split('-').next())
            .and_then(|p| p.parse::<u32>().ok());
        if let (true, Some(pid)) = (same_host, pid) {
            // /proc is Linux-specific; elsewhere the mtime fallback below
            // applies (probing a live pid as "dead" would void the
            // cross-process mutual exclusion).
            if pid != std::process::id()
                && cfg!(target_os = "linux")
                && !Path::new(&format!("/proc/{pid}")).exists()
            {
                if verbose {
                    eprintln!(
                        "  lock: breaking {} (owner pid {pid} is gone)",
                        path.display()
                    );
                }
                let _ = fs::remove_file(path);
                return;
            }
        }
    }
    let Ok(meta) = fs::metadata(path) else {
        return;
    };
    let Ok(modified) = meta.modified() else {
        return;
    };
    if let Ok(age) = modified.elapsed() {
        if age.as_secs() > LOCK_STALE_SECS {
            let _ = fs::remove_file(path);
        }
    }
}

/// RAII sidecar-lock: created with `O_EXCL`, removed on drop (including
/// on panic unwind, so a failed simulation never wedges its key).
///
/// The lock file is stamped with a per-acquisition token; drop only
/// unlinks if the token still matches. Otherwise a waiter that broke a
/// "stale" lock whose owner was merely slow (a point outlasting
/// [`LOCK_STALE_SECS`]) would have *its* fresh lock deleted by the slow
/// owner's drop, re-opening the compute-exactly-once window.
struct LockGuard {
    path: Option<PathBuf>,
    /// `None` when the token could not be written (e.g. disk full): drop
    /// then unlinks unconditionally — a leaked empty lock would otherwise
    /// stall other processes until the mtime timeout, while the window in
    /// which unconditional removal could hit a foreign lock (a waiter
    /// breaking ours as stale mid-compute) needs [`LOCK_STALE_SECS`] to
    /// have already elapsed.
    token: Option<String>,
}

impl LockGuard {
    fn acquire(path: PathBuf) -> Option<Self> {
        let token = lock_token();
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                use std::io::Write;
                let token = f.write_all(token.as_bytes()).is_ok().then_some(token);
                Some(Self {
                    path: Some(path),
                    token,
                })
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => None,
            // Unexpected I/O failure (read-only dir, exotic FS): degrade
            // to lockless operation rather than livelocking — the atomic
            // publish still keeps entries uncorrupted.
            Err(_) => Some(Self {
                path: None,
                token: None,
            }),
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        if let Some(p) = self.path.take() {
            // Only remove a lock we still own (see type docs).
            let owned = match &self.token {
                Some(t) => fs::read_to_string(&p).is_ok_and(|s| &s == t),
                None => true,
            };
            if owned {
                let _ = fs::remove_file(p);
            }
        }
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
    #[cfg(target_os = "linux")] // prompt pid-liveness breaking is /proc-based
    fn lock_leaked_by_a_dead_process_is_broken_promptly() {
        let c = ResultCache::new(scratch("dead-owner"));
        // A lock from this host stamped with a PID that cannot exist on
        // Linux (PID_MAX_LIMIT is 2^22), as left behind by a killed run.
        fs::write(c.lock_path("k"), format!("{}:999999999-0", hostname())).unwrap();
        let t0 = std::time::Instant::now();
        let (r, p) = c.get_or_compute("k", sample);
        assert_eq!((r, p), (sample(), Provenance::Computed));
        assert!(
            t0.elapsed().as_secs() < LOCK_STALE_SECS,
            "dead-owner lock must not stall until the mtime timeout"
        );
    }

    #[test]
    fn drop_leaves_a_lock_it_no_longer_owns() {
        let c = ResultCache::new(scratch("foreign-lock"));
        let lock = c.lock_path("k");
        let guard = LockGuard::acquire(lock.clone()).expect("fresh lock");
        // Simulate a waiter breaking this lock as stale and re-acquiring:
        // the file now carries someone else's token.
        fs::write(&lock, "other-owner").unwrap();
        drop(guard);
        assert!(
            lock.exists(),
            "drop must not unlink a lock owned by another acquirer"
        );
    }

    #[test]
    fn panicking_compute_releases_the_lock() {
        let c = ResultCache::new(scratch("panic"));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.get_or_compute("k", || panic!("boom"))
        }));
        assert!(res.is_err());
        // The key is not wedged: a later caller acquires and computes.
        let (r, p) = c.get_or_compute("k", sample);
        assert_eq!((r, p), (sample(), Provenance::Computed));
    }
}
