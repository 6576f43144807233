//! Fig. 16 — eight-core speedups: Pythia vs Pythia + Hermes-{HMP, TTP,
//! POPET}, normalized to the no-prefetching eight-core system.
//!
//! Homogeneous mixes (eight copies of one trace per run) for a
//! category-diverse subsample, plus heterogeneous MIX runs, as in §7.1.

use crate::{cross, f3, Experiment, Point, Results, Scale, Table};
use hermes::{HermesConfig, PredictorKind};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;
use hermes_types::geomean;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig16",
    title: "Eight-core speedups",
    scale,
    points,
    render,
};

/// Eight-core runs cost ~8x; shorten the per-core window.
fn scale(scale: &Scale) -> Scale {
    Scale {
        warmup: scale.warmup / 2,
        instr: scale.instr / 2,
        ..scale.clone()
    }
}

/// The tagged eight-core systems, no-prefetching first.
fn systems() -> Vec<(String, SystemConfig)> {
    let configs: Vec<(String, SystemConfig)> = vec![
        (
            "no-prefetching".into(),
            SystemConfig::baseline_8c().with_prefetcher(PrefetcherKind::None),
        ),
        ("Pythia".into(), SystemConfig::baseline_8c()),
        (
            "Pythia+Hermes-HMP".into(),
            SystemConfig::baseline_8c().with_hermes(HermesConfig::hermes_o(PredictorKind::Hmp)),
        ),
        (
            "Pythia+Hermes-TTP".into(),
            SystemConfig::baseline_8c().with_hermes(HermesConfig::hermes_o(PredictorKind::Ttp)),
        ),
        (
            "Pythia+Hermes-POPET".into(),
            SystemConfig::baseline_8c().with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
    ];

    configs
        .into_iter()
        .map(|(tag, cfg)| (format!("8c-{tag}"), cfg))
        .collect()
}

fn points(scale: &Scale) -> Vec<Point> {
    cross(&systems(), &scale.sweep_suite())
}

fn render(results: &Results, scale: &Scale) -> String {
    let subsuite = scale.sweep_suite();
    let systems = systems();

    // speedups[cfg][trace]
    let mut per_cfg: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];
    let mut t = Table::new(&[
        "8-core mix",
        "Pythia",
        "+Hermes-HMP",
        "+Hermes-TTP",
        "+Hermes-POPET",
    ]);
    for spec in &subsuite {
        let ipcs: Vec<f64> = systems
            .iter()
            .map(|(tag, _)| results.get(tag, spec).ipc)
            .collect();
        for (i, ipc) in ipcs.iter().enumerate() {
            per_cfg[i].push(ipc / ipcs[0]);
        }
        t.row(&[
            format!("8x {}", spec.name),
            f3(ipcs[1] / ipcs[0]),
            f3(ipcs[2] / ipcs[0]),
            f3(ipcs[3] / ipcs[0]),
            f3(ipcs[4] / ipcs[0]),
        ]);
    }
    let g: Vec<f64> = per_cfg.iter().map(|v| geomean(v)).collect();
    t.row(&[
        "GEOMEAN".to_string(),
        f3(g[1]),
        f3(g[2]),
        f3(g[3]),
        f3(g[4]),
    ]);
    let summary = format!(
        "Over Pythia: Hermes-HMP {:+.1}%, Hermes-TTP {:+.1}%, Hermes-POPET {:+.1}% (paper: +0.6%, -2.1%, +5.1%). Shape check: POPET gains under bandwidth pressure; TTP's inaccuracy costs it.",
        (g[2] / g[1] - 1.0) * 100.0,
        (g[3] / g[1] - 1.0) * 100.0,
        (g[4] / g[1] - 1.0) * 100.0,
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
