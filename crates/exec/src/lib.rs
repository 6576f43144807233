//! `hermes-exec` — the parallel experiment-execution engine.
//!
//! The paper's evaluation is a large grid of *independent*
//! `(configuration, trace, window)` simulations: 30 experiments sweeping
//! dozens of workloads each, with heavy overlap (most figures normalise
//! to the same baselines). `hermes-bench` turns the grids of any number
//! of experiments into one job batch, and this crate executes it:
//!
//! * **[`Engine::run_batch`]** — takes a batch of [`Job`]s, deduplicates
//!   points that share a cache key, runs the unique ones on a
//!   `std::thread` pool whose workers claim points from one shared
//!   counter, and returns [`Outcome`]s in *input order*, so a parallel
//!   run produces byte-identical tables to `jobs = 1`.
//! * **[`ResultCache`]** — the on-disk result cache under
//!   `target/expcache/`, versioned with [`CACHE_SCHEMA_VERSION`], so a
//!   later run reuses earlier results. Entries are published
//!   atomically, so two processes sharing it never read a torn entry,
//!   though both may simulate the same point.
//! * **[`Manifest`]** — structured JSON run manifests
//!   (`target/experiments/<id>.json`) with per-job wall time, cache
//!   hit/miss provenance, and measured stats.
//!
//! ```no_run
//! use hermes_exec::{Engine, Job};
//! use hermes_sim::SystemConfig;
//! use hermes_trace::suite;
//!
//! let engine = Engine::new(8); // 8 worker threads
//! let jobs: Vec<Job> = suite::default_suite()
//!     .into_iter()
//!     .map(|spec| Job::new("pythia", SystemConfig::baseline_1c(), spec, 10_000, 40_000))
//!     .collect();
//! for out in engine.run_batch(&jobs) {
//!     println!("{} {} ipc={}", out.tag, out.workload, out.result.ipc);
//! }
//! ```

use std::time::{Duration, Instant};

use hermes_sim::system::run_job;
use hermes_sim::SystemConfig;
use hermes_trace::WorkloadSpec;

mod cache;
mod manifest;
mod pool;
mod record;

pub use cache::{ResultCache, CACHE_SCHEMA_VERSION};
pub use manifest::{Manifest, ManifestEntry};
pub use record::RunLite;

/// One simulation point: a configuration tag, the configuration itself,
/// a workload, and the instruction window.
#[derive(Debug, Clone)]
pub struct Job {
    /// Configuration label, carried through to the [`Outcome`]; not part
    /// of the cache key.
    pub tag: String,
    /// Full system configuration.
    pub cfg: SystemConfig,
    /// Workload to run.
    pub spec: WorkloadSpec,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub instr: u64,
}

impl Job {
    /// Creates a job.
    pub fn new(
        tag: impl Into<String>,
        cfg: SystemConfig,
        spec: WorkloadSpec,
        warmup: u64,
        instr: u64,
    ) -> Self {
        Self {
            tag: tag.into(),
            cfg,
            spec,
            warmup,
            instr,
        }
    }

    /// Cache key: trace, window, core count, and a fingerprint of the
    /// full configuration and workload contents.
    ///
    /// The key names what is simulated, not how the caller labels it:
    /// two jobs that differ only in their tag share a key, so a batch
    /// simulates them once. The fingerprint means a config edit, a
    /// generator/seed edit behind an unchanged trace name, or two jobs
    /// with different configs in one batch can never serve stale or
    /// cross-wired results.
    pub fn key(&self) -> String {
        format!(
            "{}__{}_{}_{}c_{:08x}",
            self.spec.name,
            self.warmup,
            self.instr,
            self.cfg.cores,
            fingerprint(&format!("{:?}{:?}", self.cfg, self.spec))
        )
    }
}

/// FNV-1a 64 over the inputs' `Debug` rendering — stable for equal
/// values, different for any changed field.
fn fingerprint(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How a job's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Simulated by this engine, this batch.
    Computed,
    /// Served from the on-disk cache.
    Cache,
    /// Duplicate of an earlier job in the same batch; shares its result.
    Deduped,
}

impl Provenance {
    /// Lowercase label used in manifests.
    pub fn label(self) -> &'static str {
        match self {
            Provenance::Computed => "computed",
            Provenance::Cache => "cache",
            Provenance::Deduped => "deduped",
        }
    }
}

/// Result of one submitted job.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Cache key of the point.
    pub key: String,
    /// Configuration tag (as submitted).
    pub tag: String,
    /// Workload name.
    pub workload: String,
    /// The measurements.
    pub result: RunLite,
    /// How the result was obtained.
    pub provenance: Provenance,
    /// Wall time spent on this job (zero for within-batch duplicates).
    pub wall: Duration,
}

/// The execution engine: a worker count plus a result cache.
#[derive(Debug, Clone)]
pub struct Engine {
    jobs: usize,
    cache: ResultCache,
    verbose: bool,
}

impl Engine {
    /// An engine with `jobs` workers over the default cache location
    /// (`target/expcache`).
    pub fn new(jobs: usize) -> Self {
        Self::with_cache(jobs, ResultCache::default_location())
    }

    /// An engine with an explicit cache (tests, alternate roots).
    pub fn with_cache(jobs: usize, cache: ResultCache) -> Self {
        Self {
            jobs: jobs.max(1),
            cache,
            verbose: true,
        }
    }

    /// Suppresses per-simulation progress lines and the cache's
    /// publish-failure warnings on stderr.
    pub fn quiet(mut self) -> Self {
        self.verbose = false;
        self.cache = self.cache.quiet();
        self
    }

    /// Executes a batch and returns outcomes in input order.
    ///
    /// Jobs whose [`Job::key`] repeats within the batch are simulated at
    /// most once; later duplicates are reported as
    /// [`Provenance::Deduped`] and share the first occurrence's result.
    /// With `jobs = 1` the unique jobs run inline in submission order —
    /// exactly the historical serial behaviour.
    pub fn run_batch(&self, batch: &[Job]) -> Vec<Outcome> {
        let keys: Vec<String> = batch.iter().map(Job::key).collect();

        // Dedup by key, preserving first-occurrence order.
        let mut first_of: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        let mut unique: Vec<usize> = Vec::new(); // unique idx -> batch idx
        let mut slot: Vec<usize> = Vec::with_capacity(batch.len()); // batch idx -> unique idx
        for (i, k) in keys.iter().enumerate() {
            match first_of.entry(k.as_str()) {
                std::collections::hash_map::Entry::Occupied(e) => slot.push(*e.get()),
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(unique.len());
                    slot.push(unique.len());
                    unique.push(i);
                }
            }
        }

        let computed: Vec<(RunLite, Provenance, Duration)> =
            pool::run_indexed(self.jobs, unique.len(), |u| {
                let j = &batch[unique[u]];
                let key = &keys[unique[u]];
                let t0 = Instant::now();
                let (result, provenance) = self.cache.get_or_compute(key, || {
                    if self.verbose {
                        eprintln!("  sim: {} x {} ...", j.tag, j.spec.name);
                    }
                    RunLite::from_stats(&run_job(j.cfg.clone(), j.spec.clone(), j.warmup, j.instr))
                });
                (result, provenance, t0.elapsed())
            });

        (0..batch.len())
            .map(|i| {
                let u = slot[i];
                let (r, p, w) = &computed[u];
                let duplicate = unique[u] != i;
                Outcome {
                    key: keys[i].clone(),
                    tag: batch[i].tag.clone(),
                    workload: batch[i].spec.name.clone(),
                    result: r.clone(),
                    provenance: if duplicate { Provenance::Deduped } else { *p },
                    wall: if duplicate { Duration::ZERO } else { *w },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_key_ignores_tag_and_fingerprints_config() {
        use hermes_trace::suite;
        let spec = suite::smoke_suite().into_iter().next().unwrap();
        let name = spec.name.clone();
        let job = |tag: &str, cfg: SystemConfig, spec: &WorkloadSpec| {
            Job::new(tag, cfg, spec.clone(), 10, 20)
        };
        let j = job("tag with/slash", SystemConfig::baseline_1c(), &spec);
        assert!(j.key().starts_with(&format!("{name}__10_20_1c_")));
        // Another tag on the same config and trace names the same
        // simulation, so it is the same point.
        let relabelled = job("another", SystemConfig::baseline_1c(), &spec);
        assert_eq!(j.key(), relabelled.key());
        // Same tag, different config => different key: a config edit
        // behind a reused tag is a cache miss, never a stale hit.
        let j2 = job(
            "tag with/slash",
            SystemConfig::baseline_1c().with_rob(1024),
            &spec,
        );
        assert_ne!(j.key(), j2.key());
        // Same trace name, different generator seed => different key.
        let mut respec = spec.clone();
        respec.seed = respec.seed.wrapping_add(1);
        let j3 = job("tag with/slash", SystemConfig::baseline_1c(), &respec);
        assert_ne!(j.key(), j3.key());
    }
}
