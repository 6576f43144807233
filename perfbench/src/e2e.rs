//! Untraced end-to-end runs: every job through `Engine::run_batch` with
//! one worker and a fresh, empty result cache, plus direct
//! `System::new` / `System::run` passes that split set-up from
//! simulation and return full statistics for the checks.
//!
//! Every timed job is bracketed by runs of the host-speed reference
//! ([`crate::hostspeed`]), and its samples are scaled by them.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hermes_exec::{Engine, Job, Provenance, ResultCache, RunLite};

use crate::checks::{check_run, SimResult};
use crate::hostspeed::HostSpeed;
use crate::stats::median;
use crate::workloads::{Point, Workload};

/// Directory (relative to the working directory) under which every
/// engine pass gets its own fresh cache root.
pub const CACHE_PARENT: &str = ".bench_build/perfbench-cache";

/// Set-up samples every job gets per end-to-end run.
pub const MIN_SETUPS: usize = 5;

/// Host seconds the set-up-only passes take at least, so batches with
/// cheap set-up still sample it many times.
pub const MIN_SETUP_PASSES_S: f64 = 1.0;

/// One direct simulation of a point, split into set-up and simulation.
#[derive(Debug, Clone)]
pub struct DirectRun {
    /// `System::new`: trace generators and the hierarchy.
    pub setup: Duration,
    /// `System::run`.
    pub sim: Duration,
    /// What the run produced.
    pub result: SimResult,
}

/// Builds and runs `p` untraced; `Err` carries the panic message when
/// the simulation panics (for example on lost forward progress).
pub fn run_direct(p: &Point) -> Result<DirectRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let mut sys = p.build_system();
        let setup = t0.elapsed();
        let t1 = Instant::now();
        let stats = sys.run(p.warmup, p.instr);
        let sim = t1.elapsed();
        DirectRun {
            setup,
            sim,
            result: SimResult {
                stats,
                levels: sys.hierarchy().level_stats(),
            },
        }
    }))
    .map_err(panic_message)
}

/// The text of a caught panic.
pub fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// A fresh, empty cache root that no other pass or process uses.
fn fresh_cache_root() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static PASS: AtomicU64 = AtomicU64::new(0);
    let n = PASS.fetch_add(1, Ordering::Relaxed);
    let root = Path::new(CACHE_PARENT).join(format!("{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Host-time samples of every job of a batch, one per pass.
#[derive(Debug, Clone, Default)]
pub struct JobSamples(pub Vec<Vec<f64>>);

impl JobSamples {
    fn new(jobs: usize) -> Self {
        Self(vec![Vec::new(); jobs])
    }

    fn push(&mut self, job: usize, seconds: f64) {
        self.0[job].push(seconds);
    }

    /// The batch time: each job's median over passes, summed. Per-job
    /// medians keep a burst of host noise during one job from moving
    /// the whole pass. `None` until every job has a sample.
    pub fn batch_s(&self) -> Option<f64> {
        self.0.iter().map(|s| median(s)).sum()
    }

    /// Samples per job (the fewest any job has).
    pub fn passes(&self) -> usize {
        self.0.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// The engine's own host time for the batch, outside simulation: every
/// job's cache key, its `RunLite` record, and a cache miss, lock and
/// store, replayed over existing results into a fresh cache root.
/// `None` when the engine cannot run the batch or a result is missing.
pub fn exec_overhead(w: &Workload, results: &[Option<SimResult>]) -> Option<Duration> {
    let jobs: Vec<Job> = w
        .points
        .iter()
        .map(Point::engine_job)
        .collect::<Option<_>>()?;
    let results: Vec<&SimResult> = results.iter().map(Option::as_ref).collect::<Option<_>>()?;
    let root = fresh_cache_root();
    let cache = ResultCache::new(&root).quiet();
    let t0 = Instant::now();
    for (job, r) in jobs.iter().zip(results) {
        let key = job.key();
        std::hint::black_box(cache.get_or_compute(&key, || RunLite::from_stats(&r.stats)));
    }
    let spent = t0.elapsed();
    let _ = std::fs::remove_dir_all(&root);
    Some(spent)
}

/// Accumulated outcome of a run's untraced passes. Every sample in
/// `wall`, `setup` and `sim` is scaled to the reference host speed.
#[derive(Debug, Default)]
pub struct E2e {
    /// Per-job wall time of one `Engine::run_batch` call on that job
    /// alone (for batches the engine cannot run: direct set-up plus
    /// simulation).
    pub wall: JobSamples,
    /// `wall` as measured, unscaled.
    pub raw_wall: JobSamples,
    /// Per-job `System::new` time.
    pub setup: JobSamples,
    /// Per-job `System::run` time.
    pub sim: JobSamples,
    /// Every host-speed reference time measured, in seconds.
    pub host_reference_s: Vec<f64>,
    /// Indices of failed jobs.
    pub failed: BTreeSet<usize>,
    /// One line per failure.
    pub failures: Vec<String>,
    /// The first direct pass's results (the reference every later run of
    /// the same job must reproduce).
    pub reference: Vec<Option<SimResult>>,
    host: HostSpeed,
}

impl E2e {
    /// An empty accumulator for a batch of `jobs` jobs.
    pub fn new(jobs: usize) -> Self {
        Self {
            wall: JobSamples::new(jobs),
            raw_wall: JobSamples::new(jobs),
            setup: JobSamples::new(jobs),
            sim: JobSamples::new(jobs),
            reference: vec![None; jobs],
            ..Self::default()
        }
    }

    /// Marks job `i` failed.
    pub fn fail(&mut self, i: usize, w: &Workload, why: impl std::fmt::Display) {
        self.failed.insert(i);
        self.failures
            .push(format!("{}: {why}", w.points[i].label()));
    }

    /// Runs `f` between two runs of the host-speed reference; returns
    /// its result and the scale for samples taken during it (from the
    /// geometric mean of the two reference times).
    fn bracketed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.host.reference_s();
        let out = f();
        let after = self.host.reference_s();
        self.host_reference_s.extend([before, after]);
        (out, HostSpeed::scale((before * after).sqrt()))
    }

    /// Records job `i`'s wall time `d`, taken at `scale`.
    fn push_wall(&mut self, i: usize, d: Duration, scale: f64) {
        self.wall.push(i, d.as_secs_f64() * scale);
        self.raw_wall.push(i, d.as_secs_f64());
    }

    /// Median host-speed reference time over its time at the reference
    /// speed: above 1 when the host ran slower.
    pub fn host_slowdown(&self) -> Option<f64> {
        median(&self.host_reference_s).map(|r| 1.0 / HostSpeed::scale(r))
    }

    /// Runs every point directly, checks each result, and compares it
    /// with the reference (the first pass's digest). Returns the pass's
    /// whole-batch set-up plus simulation time, unscaled.
    pub fn direct_pass(&mut self, w: &Workload, record_wall: bool) -> Duration {
        let mut total = Duration::ZERO;
        for (i, p) in w.points.iter().enumerate() {
            let (run, scale) = self.bracketed(|| run_direct(p));
            match run {
                Ok(run) => {
                    total += run.setup + run.sim;
                    self.setup.push(i, run.setup.as_secs_f64() * scale);
                    self.sim.push(i, run.sim.as_secs_f64() * scale);
                    if record_wall {
                        self.push_wall(i, run.setup + run.sim, scale);
                    }
                    for why in check_run(p, &run.result) {
                        self.fail(i, w, why);
                    }
                    match &self.reference[i] {
                        None => self.reference[i] = Some(run.result),
                        Some(r) if r.digest() != run.result.digest() => {
                            self.fail(i, w, "repeated run changed the stats digest")
                        }
                        Some(_) => {}
                    }
                }
                Err(msg) => self.fail(i, w, format!("panicked: {msg}")),
            }
        }
        total
    }

    /// Whether some job that has not failed has fewer than `n` samples
    /// in `samples`. A failed job stops adding samples, so it cannot hold
    /// a measuring loop open.
    pub fn short_of(&self, samples: &JobSamples, n: usize) -> bool {
        samples
            .0
            .iter()
            .enumerate()
            .any(|(i, s)| s.len() < n && !self.failed.contains(&i))
    }

    /// Runs every job that has not failed yet through the engine, one
    /// `run_batch` call per job over one fresh cache root (deleted
    /// afterwards), and checks each record against the same job's direct
    /// run.
    pub fn engine_pass(&mut self, w: &Workload, jobs: &[Job]) {
        let root = fresh_cache_root();
        let engine = Engine::with_cache(1, ResultCache::new(&root).quiet()).quiet();
        for (i, job) in jobs.iter().enumerate() {
            if self.failed.contains(&i) {
                continue;
            }
            let ((out, wall), scale) = self.bracketed(|| {
                let t0 = Instant::now();
                let out = catch_unwind(AssertUnwindSafe(|| {
                    engine.run_batch(std::slice::from_ref(job))
                }));
                (out, t0.elapsed())
            });
            let out = match out {
                Ok(mut outs) => outs.pop().expect("one outcome per job"),
                Err(e) => {
                    self.fail(i, w, format!("engine run panicked: {}", panic_message(e)));
                    continue;
                }
            };
            if out.provenance == Provenance::Cache {
                self.fail(i, w, format!("{} served from the result cache", out.key));
                continue;
            }
            self.push_wall(i, wall, scale);
            let same = self.reference[i]
                .as_ref()
                .map(|r| RunLite::from_stats(&r.stats).to_kv() == out.result.to_kv());
            if same == Some(false) {
                self.fail(i, w, "engine record differs from the direct run");
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Measures the workload untraced. A batch the engine can run gets one
/// direct pass (set-up and simulation timed apart, full statistics for
/// the checks; it also warms the heap), then engine passes, which give
/// the wall time. A batch it cannot run gets a warm-up, then direct
/// passes, which give the wall time. Either way passes repeat until
/// `seconds` have passed and every job has two wall samples; then
/// set-up-only passes run until every job has [`MIN_SETUPS`] set-up
/// samples and [`MIN_SETUP_PASSES_S`] have passed. Failed jobs are left
/// out of both counts and of later passes.
pub fn measure(w: &Workload, seconds: f64) -> E2e {
    let mut e = E2e::new(w.points.len());
    let jobs: Option<Vec<Job>> = w.points.iter().map(Point::engine_job).collect();
    let start = Instant::now();
    let more = |e: &E2e| start.elapsed().as_secs_f64() < seconds || e.short_of(&e.wall, 2);
    match &jobs {
        Some(jobs) => {
            e.direct_pass(w, false);
            while more(&e) {
                e.engine_pass(w, jobs);
            }
        }
        None => {
            warm_up(w);
            while more(&e) {
                e.direct_pass(w, true);
            }
        }
    }
    let setup_start = Instant::now();
    while e.short_of(&e.setup, MIN_SETUPS)
        || (e.failed.len() < w.points.len()
            && setup_start.elapsed().as_secs_f64() < MIN_SETUP_PASSES_S)
    {
        for (i, p) in w.points.iter().enumerate() {
            if e.failed.contains(&i) {
                continue;
            }
            let (setup, scale) = e.bracketed(|| {
                let t0 = Instant::now();
                let sys = p.build_system();
                let setup = t0.elapsed();
                drop(sys);
                setup
            });
            e.setup.push(i, setup.as_secs_f64() * scale);
        }
    }
    e
}

/// Runs the batch's jobs untimed, in order, for up to one pass or two
/// seconds, so the timed passes start with the allocator's heap grown
/// and the first pass's page faults paid.
fn warm_up(w: &Workload) {
    let start = Instant::now();
    for p in &w.points {
        let _ = run_direct(p);
        if start.elapsed() >= Duration::from_secs(2) {
            break;
        }
    }
}

/// The process's peak resident set in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
