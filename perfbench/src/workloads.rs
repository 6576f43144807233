//! The three fixed job batches the benchmark runs.
//!
//! Each workload is a list of [`Point`]s — one (configuration, traces,
//! window) simulation each. The `--seed` argument offsets every
//! [`WorkloadSpec::seed`]; seed 0 keeps the suite's historical traces.
//! Workloads whose host cost is chaotic in the trace seed (the MESI
//! retry storm) carry several replicas of each trace at consecutive
//! seed offsets, so one run averages over them.

use hermes::{HermesConfig, PredictorKind};
use hermes_bench::{configs, Scale};
use hermes_cache::CoherenceConfig;
use hermes_cpu::{CoreModel, OooConfig};
use hermes_exec::Job;
use hermes_sim::{System, SystemConfig};
use hermes_trace::suite::{self, Category, GenConfig};
use hermes_trace::WorkloadSpec;
use hermes_vm::VmConfig;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 3] = ["single-core", "sharing-mesi", "mix-4c-vm"];

/// Seed offsets reserved per `--seed` step, so replicas of one seed never
/// collide with those of the next.
const SEED_STRIDE: u64 = 64;

/// One simulation: a configuration, the traces its cores run (core `i`
/// runs `specs[i % specs.len()]`), and the instruction window per core.
#[derive(Debug, Clone)]
pub struct Point {
    /// Configuration tag (unique within the workload together with the
    /// trace names and seeds).
    pub tag: String,
    /// Full system configuration.
    pub cfg: SystemConfig,
    /// Traces, one per core or one for every core.
    pub specs: Vec<WorkloadSpec>,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub instr: u64,
}

impl Point {
    /// Builds the system exactly as `System::run`'s callers do.
    pub fn build_system(&self) -> System {
        System::new(self.cfg.clone(), &self.specs)
    }

    /// The engine job for this point; `None` for heterogeneous mixes,
    /// which a [`Job`] (one trace for every core) cannot express.
    pub fn engine_job(&self) -> Option<Job> {
        match self.specs.as_slice() {
            [spec] => Some(Job::new(
                self.tag.clone(),
                self.cfg.clone(),
                spec.clone(),
                self.warmup,
                self.instr,
            )),
            _ => None,
        }
    }

    /// Instructions the cores are asked to retire, warmup included.
    pub fn quota_instructions(&self) -> u64 {
        self.cfg.cores as u64 * (self.warmup + self.instr)
    }

    /// Human-readable job label.
    pub fn label(&self) -> String {
        let names: Vec<String> = self
            .specs
            .iter()
            .map(|s| format!("{}#{}", s.name, s.seed))
            .collect();
        format!("{} x {}", self.tag, names.join("+"))
    }
}

/// A named batch of points.
#[derive(Debug, Clone)]
pub struct Workload {
    /// One of [`WORKLOADS`].
    pub name: &'static str,
    /// The batch, in run order.
    pub points: Vec<Point>,
}

impl Workload {
    /// Simulated instructions the whole batch asks for, warmup included.
    pub fn quota_instructions(&self) -> u64 {
        self.points.iter().map(Point::quota_instructions).sum()
    }
}

/// Window sizes: warmup and measured instructions per core.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub instr: u64,
}

/// The windows and replica counts each workload runs at.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Window of `single-core`'s and `mix-4c-vm`'s jobs.
    pub window: Window,
    /// `sharing-mesi` window.
    pub sharing: Window,
    /// Replicas of each sharing trace per run.
    pub sharing_replicas: u64,
    /// Replicas of the mix per run.
    pub mix_replicas: u64,
}

impl Sizing {
    /// The sizes the benchmark measures at.
    pub const BENCH: Sizing = Sizing {
        window: Window {
            warmup: 10_000,
            instr: 40_000,
        },
        sharing: Window {
            warmup: 1_500,
            instr: 6_000,
        },
        sharing_replicas: 24,
        mix_replicas: 4,
    };

    /// Tiny windows for the harness's own tests.
    pub const TINY: Sizing = Sizing {
        window: Window {
            warmup: 200,
            instr: 800,
        },
        sharing: Window {
            warmup: 200,
            instr: 800,
        },
        sharing_replicas: 1,
        mix_replicas: 1,
    };
}

/// Offsets a spec's seed for benchmark seed `seed`, replica `replica`.
pub fn reseed(spec: &WorkloadSpec, seed: u64, replica: u64) -> WorkloadSpec {
    let mut s = spec.clone();
    s.seed = s
        .seed
        .wrapping_add(seed.wrapping_mul(SEED_STRIDE))
        .wrapping_add(replica);
    s
}

/// The Hermes-O / POPET variant of a configuration.
fn with_popet(cfg: &SystemConfig) -> SystemConfig {
    cfg.clone()
        .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
}

/// Every (config × spec) point, configs outermost.
fn grid(configs: &[(String, SystemConfig)], specs: &[Vec<WorkloadSpec>], w: Window) -> Vec<Point> {
    configs
        .iter()
        .flat_map(|(tag, cfg)| {
            specs.iter().map(move |s| Point {
                tag: tag.clone(),
                cfg: cfg.clone(),
                specs: s.clone(),
                warmup: w.warmup,
                instr: w.instr,
            })
        })
        .collect()
}

fn singles(specs: Vec<WorkloadSpec>) -> Vec<Vec<WorkloadSpec>> {
    specs.into_iter().map(|s| vec![s]).collect()
}

/// Builds workload `name` for benchmark seed `seed`; `None` for an
/// unknown name.
pub fn workload(name: &str, seed: u64, sizing: &Sizing) -> Option<Workload> {
    let (name, points) = match name {
        "single-core" => {
            let mut points = paper_points(seed, sizing.window);
            points.extend(ooo_points(seed, sizing.window));
            (WORKLOADS[0], points)
        }
        "sharing-mesi" => {
            let base = SystemConfig {
                cores: 4,
                ..SystemConfig::baseline_1c()
            }
            .with_coherence(CoherenceConfig::baseline());
            let specs = suite::sharing_suite(500)
                .iter()
                .flat_map(|s| (0..sizing.sharing_replicas).map(move |r| reseed(s, seed, r)))
                .collect();
            (
                WORKLOADS[1],
                grid(
                    &[
                        ("mesi4c-base".to_string(), base.clone()),
                        ("mesi4c-hermesO-popet".to_string(), with_popet(&base)),
                    ],
                    &singles(specs),
                    sizing.sharing,
                ),
            )
        }
        "mix-4c-vm" => {
            let base = SystemConfig {
                cores: 4,
                ..SystemConfig::baseline_1c()
            }
            .with_vm(VmConfig::baseline());
            let mix = mix_specs();
            let mixes: Vec<Vec<WorkloadSpec>> = (0..sizing.mix_replicas)
                .map(|r| mix.iter().map(|s| reseed(s, seed, r)).collect())
                .collect();
            (
                WORKLOADS[2],
                grid(
                    &[
                        ("vm4c-base".to_string(), base.clone()),
                        ("vm4c-hermesO-popet".to_string(), with_popet(&base)),
                    ],
                    &mixes,
                    sizing.window,
                ),
            )
        }
        _ => return None,
    };
    Some(Workload { name, points })
}

/// The paper's single-core evaluation: the 20-trace default suite on the
/// Table 4 system (legacy core), Pythia alone and with Hermes-O/POPET.
fn paper_points(seed: u64, w: Window) -> Vec<Point> {
    let (base_tag, base) = configs::pythia();
    let (hermes_tag, hermes) = configs::pythia_hermes('o', PredictorKind::Popet);
    let specs = suite::default_suite()
        .iter()
        .map(|s| reseed(s, seed, 0))
        .collect();
    grid(
        &[(base_tag.to_string(), base), (hermes_tag, hermes)],
        &singles(specs),
        w,
    )
}

/// `ooo_sweep`'s LSQ axis on the out-of-order core: ROB 256, LQ/SQ
/// starved (16/8) and baseline (128/72), base and Hermes-O/POPET, over
/// the sweep traces plus `spill-reload`.
fn ooo_points(seed: u64, w: Window) -> Vec<Point> {
    let mut specs = ooo_sweep_suite();
    specs.push(WorkloadSpec::new(
        "spill-reload",
        Category::Spec17,
        GenConfig::WriteReload { slots: 64, work: 2 },
        11,
    ));
    let specs: Vec<WorkloadSpec> = specs.iter().map(|s| reseed(s, seed, 0)).collect();
    let mut cfgs = Vec::new();
    for (lq, sq) in [(16, 8), (128, 72)] {
        let base = SystemConfig::baseline_1c()
            .with_rob(256)
            .with_lq(lq)
            .with_sq(sq)
            .with_core_model(CoreModel::OoO(OooConfig::baseline()));
        cfgs.push((format!("ooo-lsq{lq}x{sq}-base"), base.clone()));
        cfgs.push((format!("ooo-lsq{lq}x{sq}-hermesO-popet"), with_popet(&base)));
    }
    grid(&cfgs, &singles(specs), w)
}

/// `ooo_sweep`'s traces: the quick-scale category-round-robin subsample
/// of the default suite.
fn ooo_sweep_suite() -> Vec<WorkloadSpec> {
    Scale {
        warmup: 0,
        instr: 0,
        suite: suite::default_suite(),
        record: false,
        sweep_traces: 6,
        jobs: 1,
    }
    .sweep_suite()
}

/// The heterogeneous 4-core mix, core `i` running entry `i`.
fn mix_specs() -> Vec<WorkloadSpec> {
    let pick = |all: Vec<WorkloadSpec>, name: &str| {
        all.into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("suite lost trace {name}"))
    };
    vec![
        pick(suite::tlb_suite(), "tlb-chase"),
        pick(suite::default_suite(), "gcc_s-like"),
        pick(suite::tlb_suite(), "tlb-join"),
        pick(suite::default_suite(), "server-join"),
    ]
}
