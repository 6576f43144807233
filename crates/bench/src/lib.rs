//! The paper's evaluation as a library: one [`Experiment`] per figure and
//! table, and the harness that runs them.
//!
//! Every figure and table of the evaluation is a module of
//! [`experiments`] (`fig02` … `fig22`, `table3`, `table6`, and the
//! sweeps), with a three-line binary of the same name in `src/bin/`;
//! `run_all` runs all of them and regenerates `EXPERIMENTS.md`. All
//! binaries accept these flags and no others (see [`Scale::from_args`]):
//!
//! * `--quick` — smaller instruction windows (CI-scale),
//! * `--full`  — the extended suite with longer windows,
//! * `--record` — also write each rendered section to
//!   `target/experiments/<id>.md`,
//! * `--jobs N` — simulation worker threads; defaults to all host
//!   cores, `--jobs 1` reproduces the historical serial behaviour
//!   byte-for-byte.
//!
//! Each experiment's grid is a function of its [`Scale`] alone.
//!
//! # Execution flow
//!
//! An experiment runs no simulations itself. It declares its whole grid
//! of `(tag, configuration, workload)` [`Point`]s at its [`Scale`] and
//! renders its section from the [`Results`] of that grid. [`run`] takes
//! a list of experiments — one in a figure's own binary, all 30 in
//! `run_all` — and submits the points of all of them to the
//! [`hermes_exec`] engine as **one** batch. The engine keys a point by
//! what it simulates (trace, window, configuration contents), not by its
//! tag, so shared baselines, relabelled repeats and points two
//! experiments share are simulated once; it spreads the unique points
//! over a thread pool and returns results in input order, so a section
//! is identical at any `--jobs` level and whatever else shares its
//! batch. [`run`] slices the outcomes back into one
//! [`Results`] per experiment, renders each section, prints it, and
//! writes `target/experiments/<id>.json`, a manifest listing each
//! distinct simulation of the experiment once with its wall time and
//! provenance, and counting its points that shared a result computed
//! earlier in the batch. The engine also keeps an on-disk result cache
//! under `target/expcache/`, which serves points an earlier run already
//! simulated; no run depends on it to read back its own batch.
//!
//! Harness entry points:
//!
//! * [`cross`] — every configuration × every workload, as grid points;
//! * [`run`] — simulates and renders a list of experiments as one batch;
//! * [`main`] — the `main` of an experiment's own binary;
//! * [`Results::get`] / [`Results::suite`] — one point, or one tag
//!   across a list of workloads (the shape [`speedups`] takes).

use std::collections::hash_map::{Entry, HashMap};
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use hermes::{HermesConfig, PredictorKind};
use hermes_exec::{Engine, Job, Manifest, Outcome, Provenance};
use hermes_sim::SystemConfig;
use hermes_trace::{suite, Category, WorkloadSpec};

pub use hermes_exec::RunLite;
pub use hermes_sim::report::{category_geomeans, category_means, f3, pct, speedup, Table};

pub mod experiments;

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
    /// Simulation worker threads (`--jobs`; defaults to all host
    /// cores).
    pub jobs: usize,
}

impl Scale {
    /// Parses `--quick` / `--full` / `--record` / `--jobs N` from
    /// `std::env::args`. Any other argument ends the process with exit
    /// status 2 and a message naming it.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        epoch(); // anchor process wall time for manifests
        parse_args(&args).unwrap_or_else(|arg| {
            eprintln!("error: unknown argument {arg:?}; accepted flags: {FLAGS}");
            std::process::exit(2)
        })
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
}

/// The flags [`Scale::from_args`] accepts, as its error message lists them.
const FLAGS: &str = "--quick, --full, --record, --jobs N";

/// The scale `args` (the program name left out) select; `Err` holds the
/// first argument that is not one of [`FLAGS`].
///
/// An unusable `--jobs` value (not a number, or zero) warns on stderr
/// and is then ignored — falling through to all host cores — rather
/// than silently doing the opposite of a throttling request.
fn parse_args(args: &[String]) -> Result<Scale, String> {
    let (mut quick, mut full, mut record, mut jobs) = (false, false, false, None);
    let parse_jobs = |raw: &str| match raw.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            eprintln!(
                "warning: ignoring invalid --jobs value {raw:?} \
                 (want an integer >= 1); using all cores"
            );
            None
        }
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--full" => full = true,
            "--record" => record = true,
            "--jobs" => jobs = parse_jobs(it.next().map_or("", String::as_str)),
            _ => match a.strip_prefix("--jobs=") {
                Some(raw) => jobs = parse_jobs(raw),
                None => return Err(a.clone()),
            },
        }
    }
    let jobs = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    let (warmup, instr, suite, sweep_traces) = if full {
        (50_000, 250_000, suite::full_suite(), 16)
    } else if quick {
        (10_000, 40_000, suite::default_suite(), 6)
    } else {
        (20_000, 100_000, suite::default_suite(), 8)
    };
    Ok(Scale {
        warmup,
        instr,
        suite,
        record,
        sweep_traces,
        jobs,
    })
}

/// Process start anchor for manifest wall times.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One point of an experiment's grid: the tag that labels it in the
/// tables, the configuration, and the workload.
pub type Point = (String, SystemConfig, WorkloadSpec);

/// Every configuration × every workload, configurations outermost.
pub fn cross(configs: &[(String, SystemConfig)], specs: &[WorkloadSpec]) -> Vec<Point> {
    configs
        .iter()
        .flat_map(|(tag, cfg)| {
            specs
                .iter()
                .map(move |spec| (tag.clone(), cfg.clone(), spec.clone()))
        })
        .collect()
}

/// One figure or table of the evaluation: the grid it simulates and how
/// it renders the results.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Section id, also the name of the experiment's binary (`fig09`).
    pub id: &'static str,
    /// Section title.
    pub title: &'static str,
    /// The experiment's scale, from the command line's. An experiment
    /// that shortens its window or swaps its suite does it here; the
    /// rest use [`Scale::clone`]. Its window is every point's window.
    pub scale: fn(&Scale) -> Scale,
    /// Every point the experiment reads, at its scale.
    pub points: fn(&Scale) -> Vec<Point>,
    /// The section body, from the results of the experiment's points at
    /// its scale. A panic marks the experiment failed.
    pub render: fn(&Results, &Scale) -> String,
}

/// What [`run`] reports of one experiment.
#[derive(Debug)]
pub struct Report {
    /// The experiment's id.
    pub id: &'static str,
    /// The printed section; `None` if the render panicked.
    pub section: Option<String>,
    /// Simulated cycles of the points this experiment was the first in
    /// the batch to compute (not those served by the result cache).
    pub sim_cycles: u64,
    /// Host time of those points plus the experiment's render.
    pub wall: Duration,
}

/// The outcomes of one experiment's grid, looked up by (tag, workload).
#[derive(Debug)]
pub struct Results {
    outcomes: Vec<Outcome>,
    by_label: HashMap<(String, String), usize>,
}

impl Results {
    /// The result of the point tagged `tag` on `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the grid had no such point.
    pub fn get(&self, tag: &str, spec: &WorkloadSpec) -> &RunLite {
        let i = self
            .by_label
            .get(&(tag.to_string(), spec.name.clone()))
            .unwrap_or_else(|| panic!("no grid point {tag} x {}", spec.name));
        &self.outcomes[*i].result
    }

    /// `tag`'s results on `specs`, in `specs` order.
    pub fn suite(&self, tag: &str, specs: &[WorkloadSpec]) -> Vec<(WorkloadSpec, RunLite)> {
        specs
            .iter()
            .map(|spec| (spec.clone(), self.get(tag, spec).clone()))
            .collect()
    }
}

/// Simulates `experiments` as one engine batch across `scale.jobs`
/// workers, then renders, prints and records each section in order.
///
/// # Panics
///
/// A simulation panic ends the run, and so does a (tag, workload) label
/// that names two different simulations within one experiment. A panic
/// in an experiment's render does not: its report has no section.
pub fn run(experiments: &[Experiment], scale: &Scale) -> Vec<Report> {
    run_on(&Engine::new(scale.jobs), experiments, scale)
}

/// The `main` of an experiment's own binary: [`run`]s it at the command
/// line's scale, and fails if its render does.
pub fn main(experiment: Experiment) -> ExitCode {
    match &run(&[experiment], &Scale::from_args())[0].section {
        Some(_) => ExitCode::SUCCESS,
        None => ExitCode::FAILURE,
    }
}

fn run_on(engine: &Engine, experiments: &[Experiment], scale: &Scale) -> Vec<Report> {
    let scales: Vec<Scale> = experiments.iter().map(|e| (e.scale)(scale)).collect();
    let grids = experiments
        .iter()
        .zip(&scales)
        .map(|(e, s)| ((e.points)(s), s))
        .collect();
    let results = run_grids(engine, grids);
    experiments
        .iter()
        .zip(&scales)
        .zip(&results)
        .map(|((e, s), r)| {
            let start = Instant::now();
            let section = match panic::catch_unwind(AssertUnwindSafe(|| (e.render)(r, s))) {
                Ok(body) => Some(emit(e.id, e.title, &body, s, r)),
                Err(_) => {
                    eprintln!("!!! {} failed: its render panicked", e.id);
                    None
                }
            };
            let computed: Vec<&Outcome> = r
                .outcomes
                .iter()
                .filter(|o| o.provenance == Provenance::Computed)
                .collect();
            Report {
                id: e.id,
                section,
                sim_cycles: computed.iter().map(|o| o.result.cycles as u64).sum(),
                wall: computed.iter().map(|o| o.wall).sum::<Duration>() + start.elapsed(),
            }
        })
        .collect()
}

/// Simulates several grids, each at its own scale's window, as one
/// engine batch, and returns one [`Results`] per grid.
///
/// # Panics
///
/// Panics if one (tag, workload) label names two different simulations
/// within a grid. Labels are per grid: two grids may give one tag to
/// different configurations.
fn run_grids(engine: &Engine, grids: Vec<(Vec<Point>, &Scale)>) -> Vec<Results> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut labels = Vec::new();
    for (points, scale) in grids {
        let start = jobs.len();
        let mut by_label: HashMap<(String, String), usize> = HashMap::new();
        for (tag, cfg, spec) in points {
            let job = Job::new(tag, cfg, spec, scale.warmup, scale.instr);
            match by_label.entry((job.tag.clone(), job.spec.name.clone())) {
                Entry::Occupied(first) => assert_eq!(
                    jobs[start + *first.get()].key(),
                    job.key(),
                    "grid label {} x {} names two different simulations",
                    job.tag,
                    job.spec.name
                ),
                Entry::Vacant(slot) => {
                    slot.insert(jobs.len() - start);
                }
            }
            jobs.push(job);
        }
        labels.push((jobs.len() - start, by_label));
    }
    let mut outcomes = engine.run_batch(&jobs).into_iter();
    labels
        .into_iter()
        .map(|(n, by_label)| Results {
            outcomes: outcomes.by_ref().take(n).collect(),
            by_label,
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

/// Prints a section, records it under `target/experiments/<id>.md` if
/// asked to, writes the JSON run manifest `target/experiments/<id>.json`
/// of `results`, and returns the section.
fn emit(id: &str, title: &str, body: &str, scale: &Scale, results: &Results) -> String {
    let section = format!("## {id}: {title}\n\n{body}\n");
    println!("{section}");
    let dir = PathBuf::from("target/experiments");
    if scale.record {
        let _ = fs::create_dir_all(&dir);
        let _ = fs::write(dir.join(format!("{id}.md")), &section);
    }
    let manifest = Manifest::from_outcomes(id, scale.jobs, epoch().elapsed(), &results.outcomes);
    match manifest.write(&dir) {
        Ok(path) => eprintln!(
            "  manifest: {} ({})",
            path.display(),
            manifest.summary_line()
        ),
        Err(e) => eprintln!("warning: failed to write manifest for {id}: {e}"),
    }
    section
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
    use std::time::Duration;

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

    /// [`parse_args`] over `args`, the program name left out.
    fn parse(args: &[&str]) -> Result<Scale, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn jobs_flag_parsing() {
        let jobs = |args: &[&str]| parse(args).unwrap().jobs;
        let all_cores = jobs(&[]);
        assert!(all_cores >= 1);
        assert_eq!(jobs(&["--jobs", "4"]), 4);
        assert_eq!(jobs(&["--jobs=7"]), 7);
        assert_eq!(jobs(&["--quick"]), all_cores);
        assert_eq!(jobs(&["--jobs", "bogus"]), all_cores);
        assert_eq!(jobs(&["--jobs", "0"]), all_cores);
        let quick = parse(&["--quick", "--record", "--jobs", "2"]).unwrap();
        assert_eq!((quick.instr, quick.record, quick.jobs), (40_000, true, 2));
        assert_eq!(parse(&["--full"]).unwrap().instr, 250_000);
        assert_eq!(parse(&[]).unwrap().instr, 100_000);
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        // The sweeps' deleted CI-scale flag.
        let smoke = concat!("--", "smoke");
        assert_eq!(parse(&[smoke]).unwrap_err(), smoke);
        assert_eq!(parse(&["--quik", "--jobs", "2"]).unwrap_err(), "--quik");
        assert_eq!(parse(&["--quick", "4"]).unwrap_err(), "4");
    }

    /// A tiny-window scale over the first two smoke traces.
    fn tiny_scale() -> Scale {
        Scale {
            warmup: 200,
            instr: 1_000,
            suite: suite::smoke_suite().into_iter().take(2).collect(),
            record: false,
            sweep_traces: 2,
            jobs: 2,
        }
    }

    /// An engine over a fresh cache directory under the system temp dir.
    fn scratch_engine(name: &str) -> (Engine, PathBuf) {
        let root =
            std::env::temp_dir().join(format!("hermes-bench-grid-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let engine = Engine::with_cache(2, hermes_exec::ResultCache::new(&root)).quiet();
        (engine, root)
    }

    #[test]
    fn run_grid_reads_back_by_tag_and_workload() {
        let scale = tiny_scale();
        let mut half = tiny_scale();
        half.warmup /= 2;
        half.instr /= 2;
        let (nopf_tag, nopf) = configs::nopf();
        let (pythia_tag, pythia) = configs::pythia();
        let labelled = [
            (nopf_tag.to_string(), nopf.clone()),
            (pythia_tag.to_string(), pythia),
            // The baseline again under another tag: one simulation.
            ("nopf-again".to_string(), nopf.clone()),
        ];
        // A second experiment gives the `pythia` tag to another
        // configuration and reads the baseline under a tag of its own; a
        // third reads the baseline at half the window.
        let other = [
            (
                pythia_tag.to_string(),
                SystemConfig::baseline_1c().with_rob(1024),
            ),
            ("base".to_string(), nopf.clone()),
        ];
        let halved = [(nopf_tag.to_string(), nopf.clone())];
        let grids = || {
            vec![
                (cross(&labelled, &scale.suite), &scale),
                (cross(&other, &scale.suite), &scale),
                (cross(&halved, &half.suite), &half),
            ]
        };
        let (engine, root) = scratch_engine("grid");
        let split = run_grids(&engine, grids());

        // Each experiment run alone reads what it reads in the shared batch.
        for (i, (grid, s)) in grids().into_iter().enumerate() {
            let (alone_engine, alone_root) = scratch_engine(&format!("alone{i}"));
            let alone = run_grids(&alone_engine, vec![(grid.clone(), s)]).remove(0);
            assert_eq!(alone.by_label, split[i].by_label);
            for (tag, _, spec) in &grid {
                assert_eq!(alone.get(tag, spec), split[i].get(tag, spec));
            }
            let _ = fs::remove_dir_all(alone_root);
        }

        let (direct, direct_root) = scratch_engine("direct");
        let simulate = |cfg: &SystemConfig, spec: &WorkloadSpec, s: &Scale| {
            let job = Job::new("direct", cfg.clone(), spec.clone(), s.warmup, s.instr);
            direct.run_batch(&[job]).remove(0).result
        };
        for (tag, cfg) in &labelled {
            for spec in &scale.suite {
                let want = simulate(cfg, spec, &scale);
                assert_eq!(split[0].get(tag, spec), &want, "{tag} x {}", spec.name);
            }
            let suite = split[0].suite(tag, &scale.suite);
            let names: Vec<&str> = suite.iter().map(|(s, _)| s.name.as_str()).collect();
            let want: Vec<&str> = scale.suite.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, want, "suite() keeps the order it is asked for");
        }
        for spec in &scale.suite {
            assert_eq!(
                split[1].get(pythia_tag, spec),
                &simulate(&other[0].1, spec, &scale)
            );
            assert_eq!(split[2].get(nopf_tag, spec), &simulate(&nopf, spec, &half));
        }

        // The baseline the first two experiments share is computed once,
        // by the first; the halved window is another simulation.
        let n = scale.suite.len();
        let computed: Vec<usize> = split
            .iter()
            .map(|r| {
                r.outcomes
                    .iter()
                    .filter(|o| o.provenance == Provenance::Computed)
                    .count()
            })
            .collect();
        assert_eq!(computed, [2 * n, n, n]);
        for (r, entries) in split.iter().zip([2 * n, n, n]) {
            let manifest = Manifest::from_outcomes("grid", 2, Duration::ZERO, &r.outcomes);
            assert_eq!(manifest.entries.len(), entries);
            assert_eq!(manifest.deduped, r.outcomes.len() - entries);
        }
        let _ = fs::remove_dir_all(root);
        let _ = fs::remove_dir_all(direct_root);
    }

    #[test]
    #[should_panic(expected = "names two different simulations")]
    fn run_grid_rejects_a_label_reused_for_another_config() {
        let scale = tiny_scale();
        let spec = scale.suite[0].clone();
        let grid = vec![
            ("a".to_string(), SystemConfig::baseline_1c(), spec.clone()),
            (
                "a".to_string(),
                SystemConfig::baseline_1c().with_rob(1024),
                spec,
            ),
        ];
        let (engine, _) = scratch_engine("reused-label");
        run_grids(&engine, vec![(grid, &scale)]);
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
