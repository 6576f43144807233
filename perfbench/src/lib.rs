//! `perfbench` — the cold-cache, layer-by-layer host-performance
//! benchmark of the Hermes simulator. See `README.md` beside this crate
//! for the metrics, workloads and how to read the output.
//!
//! A run measures one workload. With tracing off it times the batch end
//! to end (through `hermes_exec::Engine::run_batch` with one worker and
//! a fresh, empty result cache) and reports [`END_TO_END`] metrics. With
//! tracing on it replays every job under the traced driver
//! ([`traced`]), runs the stand-alone [`kernels`], and reports the
//! per-layer metrics. Both modes check every job ([`checks`]).

pub mod checks;
pub mod e2e;
pub mod hostspeed;
pub mod kernels;
pub mod stats;
pub mod traced;
pub mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};

use checks::{check_run, combine, SimResult};
use e2e::E2e;
use kernels::KernelSize;
use stats::{geomean, ratio, Metrics};
use traced::LayerTimes;
use workloads::{Point, Sizing, Workload};

/// End-to-end metric names, in output order.
pub const END_TO_END: [&str; 2] = ["wall_s", "setup_s"];

/// What one run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`workloads::WORKLOADS`]).
    pub workload: String,
    /// Trace seed offset; 0 keeps the historical traces.
    pub seed: u64,
    /// Minimum untimed-loop measurement time in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Windows and replica counts.
    pub sizing: Sizing,
    /// Stand-alone kernel sample size.
    pub kernels: KernelSize,
}

impl Options {
    /// The benchmark's settings for `workload`.
    pub fn bench(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            sizing: Sizing::BENCH,
            kernels: KernelSize::BENCH,
        }
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that failed a check or panicked.
    pub failed: usize,
    /// The metrics this mode reports (every one, sampled or not).
    pub metrics: Metrics,
    /// Digest of every job's simulated statistics, in batch order
    /// (`None` when a job produced none).
    pub digest: Option<u64>,
    /// Human-readable report (failures included).
    pub report: String,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Runs one workload as `opts` says.
///
/// # Errors
///
/// Returns an error for an unknown workload name.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = workloads::workload(&opts.workload, opts.seed, &opts.sizing).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {})",
            opts.workload,
            workloads::WORKLOADS.join(", ")
        )
    })?;
    let mut metrics = Metrics::default();
    let mut e;
    let mut header = format!(
        "workload {} seed {} jobs {} mode {}\n",
        w.name,
        opts.seed,
        w.points.len(),
        if opts.trace { "traced" } else { "end-to-end" }
    );
    if opts.trace {
        e = E2e::new(w.points.len());
        let times = traced_run(&w, &mut e, &mut metrics);
        counts(&w, &e.reference, &times, &mut metrics);
        metrics.push("harness.peak_rss_mb", "MB", e2e::peak_rss_mb());
        kernels::run_all(opts.kernels, &mut metrics);
        header.push_str(&format!(
            "traced: {} steps, {} instructions retired; tracing overhead {:.2}x\n",
            times.steps,
            times.retired_total(),
            metrics.get("harness.trace_overhead_x").unwrap_or(f64::NAN)
        ));
    } else {
        e = e2e::measure(&w, opts.seconds);
        metrics.push("wall_s", "s", e.wall.batch_s());
        metrics.push("setup_s", "s", e.setup.batch_s());
        header.push_str(&format!(
            "samples per job: {} wall, {} set-up, {} simulation; {} simulated instructions per pass\n\
             times scaled to the reference host speed: host reference {:.3}x its nominal time, unscaled wall {:.6} s\n",
            e.wall.passes(),
            e.setup.passes(),
            e.sim.passes(),
            w.quota_instructions(),
            e.host_slowdown().unwrap_or(f64::NAN),
            e.raw_wall.batch_s().unwrap_or(f64::NAN),
        ));
    }
    // Simulation throughput is printed with every run but is not a gated
    // end-to-end metric: it is `wall_s` without set-up, and it spreads
    // the most from run to run on a shared host.
    let sim_kips = e
        .sim
        .batch_s()
        .and_then(|s| ratio(w.quota_instructions() as f64 / 1e3, s));
    if opts.trace {
        metrics.push("sim.kips", "kinstr/s", sim_kips);
    }

    let model = model_outputs(&w, &e.reference);
    if opts.trace {
        metrics.0.extend(model.0.iter().cloned());
    }
    let attempted = w.points.len();
    let failed = e.failed.len();
    let mut report = header;
    report.push_str(&metrics.render());
    if !opts.trace {
        let mut untraced = Metrics::default();
        untraced.push("sim_kips", "kinstr/s", sim_kips);
        report.push_str(&untraced.render());
        report.push_str(&model.render());
    }
    report.push_str(&format!(
        "  {:<34} {:>16.6} jobs/jobs\n",
        "fail_frac",
        failed as f64 / attempted.max(1) as f64
    ));
    let digests: Option<Vec<u64>> = e
        .reference
        .iter()
        .map(|r| r.as_ref().map(SimResult::digest))
        .collect();
    let digest = digests.map(|d| combine(&d));
    if let Some(d) = digest {
        report.push_str(&format!("  stats digest {d:#018x}\n"));
    }
    for f in &e.failures {
        report.push_str(&format!("FAIL {f}\n"));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        digest,
        report,
    })
}

/// The traced run: two untraced direct passes (the reference, and a
/// repeat that must reproduce every digest), then every job under the
/// traced driver, which must reproduce the reference exactly, then the
/// engine's own overhead replayed over the results. Appends the
/// host-time metrics and returns the merged layer times.
fn traced_run(w: &Workload, e: &mut E2e, m: &mut Metrics) -> LayerTimes {
    e.direct_pass(w, false);
    let direct = e.direct_pass(w, false).as_secs_f64();

    let mut t = LayerTimes::default();
    for (i, p) in w.points.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| traced::run_traced(p))) {
            Ok((res, times)) => {
                t.merge(&times);
                for why in check_run(p, &res) {
                    e.fail(i, w, format!("traced: {why}"));
                }
                if e.reference[i].as_ref().map(SimResult::digest) != Some(res.digest()) {
                    e.fail(i, w, "traced stats differ from the untraced run");
                }
            }
            Err(err) => e.fail(
                i,
                w,
                format!("traced run panicked: {}", e2e::panic_message(err)),
            ),
        }
    }

    let instr = t.retired_total() as f64;
    let per_instr = |ns: u64| ratio(ns as f64, instr);
    m.push("sim.loop_ns_per_instr", "ns", per_instr(t.loop_self_ns()));
    m.push(
        "sim.steps_per_kinstr",
        "steps",
        ratio(t.steps as f64 * 1e3, instr),
    );
    m.push(
        "sim.hier_tick_ns_per_instr",
        "ns",
        per_instr(t.hier_tick.ns),
    );
    m.push(
        "sim.hier_tick_share",
        "fraction",
        ratio(t.hier_tick.ns as f64, t.main_loop.ns as f64),
    );
    m.push("sim.issue_load_ns", "ns", t.issue_load.per_call());
    m.push("sim.issue_store_ns", "ns", t.issue_store.per_call());
    for (model, layer) in [(0, "cpu"), (1, "ooo")] {
        m.push(
            format!("{layer}.tick_ns_per_instr"),
            "ns",
            ratio(t.core_tick_self_ns(model) as f64, t.retired[model] as f64),
        );
        m.push(
            format!("{layer}.finish_load_ns"),
            "ns",
            t.finish_load[model].per_call(),
        );
    }
    m.push("trace.next_instr_ns", "ns", t.next_instr.per_call());
    m.push("trace.build_s", "s", Some(t.trace_build.ns as f64 / 1e9));
    m.push(
        "sim.hierarchy_new_ms",
        "ms",
        Some(t.hierarchy_new.ns as f64 / 1e6),
    );
    m.push(
        "exec.overhead_s",
        "s",
        e2e::exec_overhead(w, &e.reference).map(|d| d.as_secs_f64()),
    );
    m.push(
        "harness.trace_overhead_x",
        "x",
        ratio(t.job.ns as f64 / 1e9, direct),
    );
    t
}

/// Sums `f` over every core of every available result.
fn sum_cores(
    results: &[Option<SimResult>],
    keep: impl Fn(&Point) -> bool,
    points: &[Point],
    f: impl Fn(&hermes_sim::stats::CoreRunStats) -> u64,
) -> f64 {
    results
        .iter()
        .zip(points)
        .filter(|(_, p)| keep(p))
        .filter_map(|(r, _)| r.as_ref())
        .flat_map(|r| r.stats.cores.iter())
        .map(|c| f(c) as f64)
        .sum()
}

/// Exact simulated counts that explain the host times.
fn counts(w: &Workload, results: &[Option<SimResult>], t: &LayerTimes, m: &mut Metrics) {
    let all = |_: &Point| true;
    let ooo = |p: &Point| matches!(p.cfg.core.model, hermes_cpu::CoreModel::OoO(_));
    let pts = &w.points;
    let core_sum =
        |f: &dyn Fn(&hermes_sim::stats::CoreRunStats) -> u64| sum_cores(results, all, pts, f);
    let ooo_sum =
        |f: &dyn Fn(&hermes_sim::stats::CoreRunStats) -> u64| sum_cores(results, ooo, pts, f);
    let run_sum = |f: &dyn Fn(&SimResult) -> u64| -> f64 {
        results.iter().flatten().map(|r| f(r) as f64).sum()
    };
    let instr = core_sum(&|c| c.instructions);
    let pki = |n: f64| ratio(n * 1e3, instr);

    m.push(
        "cache.l1_mshr_rej_pki",
        "1/kinstr",
        pki(run_sum(&|r| {
            r.levels.first().map_or(0, |l| l.1.mshr_rejections)
        })),
    );
    m.push(
        "cache.mshr_occ_mean",
        "entries",
        ratio(t.mshr_occ_sum as f64, t.mshr_occ_samples as f64),
    );
    m.push(
        "cache.llc_mpki",
        "1/kinstr",
        pki(core_sum(&|c| c.hier.llc_demand_misses)),
    );
    let tp = core_sum(&|c| c.pred.tp);
    m.push(
        "hermes.accuracy",
        "fraction",
        ratio(tp, core_sum(&|c| c.pred.tp + c.pred.fp)),
    );
    m.push(
        "hermes.coverage",
        "fraction",
        ratio(tp, core_sum(&|c| c.pred.tp + c.pred.fn_)),
    );
    m.push(
        "hermes.spec_useful_frac",
        "fraction",
        ratio(
            core_sum(&|c| c.hier.spec_reads_useful),
            core_sum(&|c| c.hier.spec_reads_useful + c.hier.spec_reads_wasted),
        ),
    );
    m.push(
        "prefetch.useful_frac",
        "fraction",
        ratio(
            core_sum(&|c| c.hier.prefetches_useful),
            core_sum(&|c| c.hier.prefetches_issued),
        ),
    );
    m.push(
        "dram.reads_pki",
        "1/kinstr",
        pki(run_sum(&|r| r.stats.dram.total_reads())),
    );
    m.push(
        "dram.row_hit_frac",
        "fraction",
        ratio(
            run_sum(&|r| r.stats.dram.row_hits),
            run_sum(&|r| {
                let d = &r.stats.dram;
                d.row_hits + d.row_empty + d.row_conflicts
            }),
        ),
    );
    m.push(
        "dram.hermes_dropped_frac",
        "fraction",
        ratio(
            run_sum(&|r| r.stats.dram.hermes_dropped),
            run_sum(&|r| r.stats.dram.reads_hermes),
        ),
    );
    let walks = core_sum(&|c| c.hier.walks_completed);
    m.push(
        "vm.walks_pki",
        "1/kinstr",
        (walks > 0.0).then(|| walks * 1e3 / instr),
    );
    m.push(
        "vm.walk_cycles_mean",
        "cycles",
        ratio(core_sum(&|c| c.hier.walk_cycles_sum), walks),
    );
    let ooo_cycles = ooo_sum(&|c| c.cycles);
    m.push(
        "ooo.rob_occ_mean",
        "entries",
        ratio(ooo_sum(&|c| c.core.rob_occupancy_sum), ooo_cycles),
    );
    m.push(
        "ooo.lsq_full_frac",
        "fraction",
        ratio(ooo_sum(&|c| c.core.lsq_full_stalls), ooo_cycles),
    );
    m.push(
        "ooo.fwd_loads_pki",
        "1/kinstr",
        ratio(
            ooo_sum(&|c| c.core.forwarded_loads) * 1e3,
            ooo_sum(&|c| c.instructions),
        ),
    );
    m.push(
        "cpu.offchip_stall_frac",
        "fraction",
        ratio(
            core_sum(&|c| c.core.stall_cycles_offchip),
            core_sum(&|c| c.cycles),
        ),
    );
}

/// Simulated results a later change must keep or name: the IPC
/// geomean over jobs and the geomean Hermes speedup over each job's
/// Hermes-off twin.
fn model_outputs(w: &Workload, results: &[Option<SimResult>]) -> Metrics {
    let mut m = Metrics::default();
    let ipcs: Vec<f64> = results
        .iter()
        .flatten()
        .map(|r| r.stats.mean_ipc())
        .collect();
    m.push("model.ipc_geomean", "IPC", geomean(&ipcs));
    let speedups: Vec<f64> = w
        .points
        .iter()
        .zip(results)
        .filter(|(p, _)| p.cfg.hermes.enabled())
        .filter_map(|(p, r)| {
            let twin = hermes_off_twin(w, p)?;
            Some(r.as_ref()?.stats.mean_ipc() / results[twin].as_ref()?.stats.mean_ipc())
        })
        .collect();
    m.push("model.hermes_speedup", "x", geomean(&speedups));
    m
}

/// The index of the point identical to `p` except with Hermes off.
fn hermes_off_twin(w: &Workload, p: &Point) -> Option<usize> {
    let mut off = p.cfg.clone();
    off.hermes = hermes::HermesConfig::disabled();
    let want = format!("{:?}{:?}", off, p.specs);
    w.points
        .iter()
        .position(|q| format!("{:?}{:?}", q.cfg, q.specs) == want)
}
