//! Shared harness for the experiment binaries.
//!
//! Every figure and table in the paper's evaluation has a binary in
//! `src/bin/` (`fig02` … `fig22`, `table3`, `table6`); `run_all` executes
//! everything and regenerates `EXPERIMENTS.md`. All binaries accept:
//!
//! * `--quick` — smaller instruction windows (CI-scale),
//! * `--full`  — the extended suite with longer windows,
//! * `--record` — write the rendered section to `target/experiments/`,
//! * `--jobs N` (or `HERMES_JOBS=N`) — simulation worker threads;
//!   defaults to all host cores, `--jobs 1` reproduces the historical
//!   serial behaviour byte-for-byte.
//!
//! # Execution flow
//!
//! Since PR 2 the binaries do not run simulations directly: they submit
//! `(configuration, trace, window)` batches to the [`hermes_exec`]
//! engine, which deduplicates points sharing a cache key, spreads the
//! unique ones over a work-stealing thread pool, and returns results in
//! input order (so tables are identical at any `--jobs` level). The
//! engine also owns the on-disk result cache — versioned under
//! `target/expcache/v<N>/` and guarded by lock files, so concurrent
//! binaries (and `run_all`'s children) share it safely — and every
//! [`emit`] call writes a machine-readable run manifest to
//! `target/experiments/<id>.json` with per-point wall time and cache
//! provenance.
//!
//! Harness entry points, in decreasing granularity:
//!
//! * [`run_suite`] — one configuration across the whole suite, in
//!   parallel;
//! * [`prewarm`] — batch-simulate an arbitrary `(tag, config, workload)`
//!   grid up front so that a binary's existing per-point logic turns
//!   into pure cache reads (used by the sweep figures);
//! * [`run_cached`] — a single point (hits the warm cache in the common
//!   case).

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use hermes::{HermesConfig, PredictorKind};
use hermes_exec::{Engine, Job, Manifest, Outcome};
use hermes_sim::SystemConfig;
use hermes_trace::{suite, Category, WorkloadSpec};

pub use hermes_exec::{RunLite, CACHE_SCHEMA_VERSION};
pub use hermes_sim::report::{category_geomeans, category_means, f3, pct, speedup, Table};

/// Simulation scale selected on the command line.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub instr: u64,
    /// Workloads to sweep.
    pub suite: Vec<WorkloadSpec>,
    /// Whether to write the section under `target/experiments/`.
    pub record: bool,
    /// Number of traces used for expensive (multi-core / multi-point)
    /// sweeps.
    pub sweep_traces: usize,
    /// Simulation worker threads (`--jobs` / `HERMES_JOBS`; defaults to
    /// all host cores).
    pub jobs: usize,
}

impl Scale {
    /// Parses `--quick` / `--full` / `--record` / `--jobs N` from
    /// `std::env::args`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        let full = args.iter().any(|a| a == "--full");
        let record = args.iter().any(|a| a == "--record");
        let jobs = hermes_exec::jobs_from_env(parse_jobs_flag(&args));
        epoch(); // anchor process wall time for manifests
        if full {
            Scale {
                warmup: 50_000,
                instr: 250_000,
                suite: suite::full_suite(),
                record,
                sweep_traces: 16,
                jobs,
            }
        } else if quick {
            Scale {
                warmup: 10_000,
                instr: 40_000,
                suite: suite::default_suite(),
                record,
                sweep_traces: 6,
                jobs,
            }
        } else {
            Scale {
                warmup: 20_000,
                instr: 100_000,
                suite: suite::default_suite(),
                record,
                sweep_traces: 8,
                jobs,
            }
        }
    }

    /// A subsample of the suite for expensive sweeps, keeping category
    /// diversity (round-robin across categories).
    pub fn sweep_suite(&self) -> Vec<WorkloadSpec> {
        let mut by_cat: Vec<Vec<&WorkloadSpec>> = Category::ALL
            .iter()
            .map(|c| self.suite.iter().filter(|w| w.category == *c).collect())
            .collect();
        let mut out = Vec::new();
        let mut i = 0;
        while out.len() < self.sweep_traces.min(self.suite.len()) {
            let cat = i % by_cat.len();
            if let Some(w) = by_cat[cat].pop() {
                out.push(w.clone());
            }
            i += 1;
            if by_cat.iter().all(|v| v.is_empty()) {
                break;
            }
        }
        out
    }

    fn job(&self, tag: &str, cfg: &SystemConfig, spec: &WorkloadSpec) -> Job {
        Job::new(tag, cfg.clone(), spec.clone(), self.warmup, self.instr)
    }
}

/// Extracts `--jobs N` / `--jobs=N` from raw args (`None` if absent).
///
/// An unusable value (not a number, or zero) warns on stderr and is then
/// ignored — falling through to `HERMES_JOBS` / all cores — rather than
/// silently doing the opposite of a throttling request.
fn parse_jobs_flag(args: &[String]) -> Option<usize> {
    let mut it = args.iter();
    let mut jobs = None;
    while let Some(a) = it.next() {
        let raw = if a == "--jobs" {
            Some(it.next().map(String::as_str).unwrap_or(""))
        } else {
            a.strip_prefix("--jobs=")
        };
        if let Some(raw) = raw {
            jobs = match raw.parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => {
                    eprintln!(
                        "warning: ignoring invalid --jobs value {raw:?} \
                         (want an integer >= 1); using HERMES_JOBS or all cores"
                    );
                    None
                }
            };
        }
    }
    jobs
}

/// The process-wide engine, created on first use with the scale's worker
/// count (one engine per binary invocation).
fn engine(scale: &Scale) -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| Engine::new(scale.jobs))
}

/// Process start anchor for manifest wall times.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Engine outcomes accumulated since the last [`emit`], for the manifest.
fn outcome_log() -> &'static Mutex<Vec<Outcome>> {
    static LOG: OnceLock<Mutex<Vec<Outcome>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

fn record_outcomes(outs: &[Outcome]) {
    outcome_log()
        .lock()
        .expect("outcome log poisoned")
        .extend_from_slice(outs);
}

/// Runs one (configuration, workload) point with on-disk caching.
///
/// `tag` must uniquely describe the configuration (e.g.
/// `"pythia+hermesO-popet"`); it becomes part of the cache key together
/// with the trace name and window.
pub fn run_cached(tag: &str, cfg: &SystemConfig, spec: &WorkloadSpec, scale: &Scale) -> RunLite {
    let outs = engine(scale).run_batch(std::slice::from_ref(&scale.job(tag, cfg, spec)));
    record_outcomes(&outs);
    outs.into_iter().next().expect("one job in, one out").result
}

/// Runs a configuration across the whole suite — in parallel across
/// `scale.jobs` workers — and returns (spec, result) in suite order.
pub fn run_suite(tag: &str, cfg: &SystemConfig, scale: &Scale) -> Vec<(WorkloadSpec, RunLite)> {
    let jobs: Vec<Job> = scale
        .suite
        .iter()
        .map(|spec| scale.job(tag, cfg, spec))
        .collect();
    let outs = engine(scale).run_batch(&jobs);
    record_outcomes(&outs);
    scale
        .suite
        .iter()
        .cloned()
        .zip(outs.into_iter().map(|o| o.result))
        .collect()
}

/// Batch-simulates an arbitrary `(tag, config, workload)` grid, warming
/// the cache so subsequent [`run_cached`] calls are pure reads.
///
/// Sweep binaries build their whole grid up front, `prewarm` it (the
/// engine dedups shared baselines and fans out across workers), and then
/// keep their original per-point logic unchanged — output stays
/// byte-identical to the serial version at every `--jobs` level.
pub fn prewarm(points: Vec<(String, SystemConfig, WorkloadSpec)>, scale: &Scale) {
    let jobs: Vec<Job> = points
        .into_iter()
        .map(|(tag, cfg, spec)| Job::new(tag, cfg, spec, scale.warmup, scale.instr))
        .collect();
    let outs = engine(scale).run_batch(&jobs);
    record_outcomes(&outs);
}

/// Cross product helper for [`prewarm`]: every configuration × every
/// workload.
pub fn cross(
    points: &[(String, SystemConfig)],
    specs: &[WorkloadSpec],
) -> Vec<(String, SystemConfig, WorkloadSpec)> {
    points
        .iter()
        .flat_map(|(tag, cfg)| {
            specs
                .iter()
                .map(move |spec| (tag.clone(), cfg.clone(), spec.clone()))
        })
        .collect()
}

/// Standard named configurations used across many figures.
pub mod configs {
    use super::*;
    use hermes_prefetch::PrefetcherKind;

    /// (tag, config) for the no-prefetching normalisation baseline.
    pub fn nopf() -> (&'static str, SystemConfig) {
        (
            "nopf",
            SystemConfig::baseline_1c().with_prefetcher(PrefetcherKind::None),
        )
    }

    /// The Table 4 baseline (Pythia, no Hermes).
    pub fn pythia() -> (&'static str, SystemConfig) {
        ("pythia", SystemConfig::baseline_1c())
    }

    /// Pythia + Hermes variant with the given predictor.
    pub fn pythia_hermes(variant: char, pred: PredictorKind) -> (String, SystemConfig) {
        let hermes = match variant {
            'o' => HermesConfig::hermes_o(pred),
            'p' => HermesConfig::hermes_p(pred),
            _ => panic!("variant must be 'o' or 'p'"),
        };
        (
            format!("pythia+hermes{}-{}", variant, pred.label()),
            SystemConfig::baseline_1c().with_hermes(hermes),
        )
    }

    /// Hermes alone (no prefetcher).
    pub fn hermes_alone(variant: char, pred: PredictorKind) -> (String, SystemConfig) {
        let (tag, cfg) = pythia_hermes(variant, pred);
        (
            format!("{}-alone", tag),
            cfg.with_prefetcher(PrefetcherKind::None),
        )
    }
}

/// Computes per-workload speedups of `x` over `base` (Eq. 2), paired with
/// categories for aggregation.
pub fn speedups(
    base: &[(WorkloadSpec, RunLite)],
    x: &[(WorkloadSpec, RunLite)],
) -> Vec<(Category, f64)> {
    base.iter()
        .zip(x)
        .map(|((spec, b), (_, v))| (spec.category, speedup(v.ipc, b.ipc)))
        .collect()
}

/// Renders a figure section: prints to stdout, optionally records it
/// under `target/experiments/<id>.md`, and always writes the JSON run
/// manifest `target/experiments/<id>.json` covering every simulation
/// point obtained since the previous `emit`.
pub fn emit(id: &str, title: &str, body: &str, scale: &Scale) {
    let section = format!("## {id}: {title}\n\n{body}\n");
    println!("{section}");
    let dir = PathBuf::from("target/experiments");
    if scale.record {
        let _ = fs::create_dir_all(&dir);
        let _ = fs::write(dir.join(format!("{id}.md")), section);
    }
    let outs = std::mem::take(&mut *outcome_log().lock().expect("outcome log poisoned"));
    let manifest = Manifest::from_outcomes(id, scale.jobs, epoch().elapsed(), &outs);
    match manifest.write(&dir) {
        Ok(path) => eprintln!(
            "  manifest: {} ({})",
            path.display(),
            manifest.summary_line()
        ),
        Err(e) => eprintln!("warning: failed to write manifest for {id}: {e}"),
    }
}

/// Builds a markdown table of per-category geomean speedups, one row per
/// configuration — the standard shape of the paper's bar figures.
pub fn speedup_table(rows: &[(String, Vec<(Category, f64)>)]) -> String {
    let mut headers = vec!["config".to_string()];
    if let Some((_, first)) = rows.first() {
        for (name, _) in category_geomeans(first) {
            headers.push(name);
        }
    }
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&hdr_refs);
    for (label, samples) in rows {
        let mut cells = vec![label.clone()];
        for (_, v) in category_geomeans(samples) {
            cells.push(f3(v));
        }
        t.row(&cells);
    }
    t.to_markdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_suite_spans_categories() {
        let scale = Scale {
            warmup: 1,
            instr: 1,
            suite: suite::default_suite(),
            record: false,
            sweep_traces: 5,
            jobs: 1,
        };
        let sub = scale.sweep_suite();
        assert_eq!(sub.len(), 5);
        let cats: std::collections::HashSet<_> = sub.iter().map(|w| w.category).collect();
        assert_eq!(cats.len(), 5, "sweep subsample must span all categories");
    }

    #[test]
    fn config_tags_unique() {
        use hermes::PredictorKind::*;
        let tags: Vec<String> = vec![
            configs::nopf().0.to_string(),
            configs::pythia().0.to_string(),
            configs::pythia_hermes('o', Popet).0,
            configs::pythia_hermes('p', Popet).0,
            configs::pythia_hermes('o', Hmp).0,
            configs::pythia_hermes('o', Ttp).0,
            configs::pythia_hermes('o', Ideal).0,
            configs::hermes_alone('o', Popet).0,
        ];
        let set: std::collections::HashSet<_> = tags.iter().collect();
        assert_eq!(set.len(), tags.len());
    }

    #[test]
    fn jobs_flag_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_jobs_flag(&args(&["bin", "--jobs", "4"])), Some(4));
        assert_eq!(parse_jobs_flag(&args(&["bin", "--jobs=7"])), Some(7));
        assert_eq!(parse_jobs_flag(&args(&["bin", "--quick"])), None);
        assert_eq!(parse_jobs_flag(&args(&["bin", "--jobs", "bogus"])), None);
    }

    #[test]
    fn cross_builds_full_grid() {
        let specs = suite::smoke_suite();
        let points = vec![
            ("a".to_string(), SystemConfig::baseline_1c()),
            ("b".to_string(), SystemConfig::baseline_1c()),
        ];
        let grid = cross(&points, &specs);
        assert_eq!(grid.len(), 2 * specs.len());
        assert_eq!(grid[0].0, "a");
        assert_eq!(grid[specs.len()].0, "b");
    }
}
