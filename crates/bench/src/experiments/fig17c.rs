//! Fig. 17c — sensitivity to the Hermes request issue latency (0 → 24
//! cycles).

use crate::{configs, cross, f3, Experiment, Point, Results, Scale, Table};
use hermes::{HermesConfig, PredictorKind};
use hermes_sim::SystemConfig;
use hermes_types::geomean;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig17c",
    title: "Sensitivity to Hermes request issue latency",
    scale: Scale::clone,
    points,
    render,
};

const LATS: [u32; 9] = [0, 3, 6, 9, 12, 15, 18, 21, 24];

/// The Pythia + Hermes-O configuration at issue latency `lat`, with its tag.
fn lat_cfg(lat: u32) -> (String, SystemConfig) {
    (
        format!("pythia+hermes-lat{lat}"),
        SystemConfig::baseline_1c()
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet).with_issue_latency(lat)),
    )
}

fn points(scale: &Scale) -> Vec<Point> {
    let (bt, bc) = configs::nopf();
    let (pt, pc) = configs::pythia();
    let mut grid: Vec<(String, SystemConfig)> = vec![(bt.to_string(), bc), (pt.to_string(), pc)];
    grid.extend(LATS.iter().map(|&lat| lat_cfg(lat)));
    cross(&grid, &scale.sweep_suite())
}

fn render(results: &Results, scale: &Scale) -> String {
    let subsuite = scale.sweep_suite();
    let (bt, pt) = (configs::nopf().0, configs::pythia().0);
    let speedups = |tag: &str| -> Vec<f64> {
        subsuite
            .iter()
            .map(|spec| results.get(tag, spec).ipc / results.get(bt, spec).ipc)
            .collect()
    };

    let pythia_sp = speedups(pt);

    let mut t = Table::new(&[
        "issue latency (cycles)",
        "Pythia+Hermes-O speedup",
        "gain over Pythia",
    ]);
    let mut prev = f64::INFINITY;
    let mut monotone_non_increasing = true;
    for lat in LATS {
        let sp = geomean(&speedups(&lat_cfg(lat).0));
        if sp > prev + 0.003 {
            monotone_non_increasing = false;
        }
        prev = sp;
        t.row(&[
            lat.to_string(),
            f3(sp),
            format!("{:+.1}%", (sp / geomean(&pythia_sp) - 1.0) * 100.0),
        ]);
    }
    let summary = format!(
        "Pythia alone: {:.3}. Speedup decays with issue latency but stays above Pythia even at 24 cycles: {} (paper: +5.7% at 0 cycles, +3.6% at 24).",
        geomean(&pythia_sp),
        if monotone_non_increasing { "monotone shape reproduced" } else { "non-monotone at this scale" },
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
