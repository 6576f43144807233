//! Fig. 17d — sensitivity to on-chip cache-hierarchy access latency
//! (total 40 → 65 cycles; L1/L2 fixed, LLC latency varied).

use crate::{cross, f3, Experiment, Point, Results, Scale, Table};
use hermes::{HermesConfig, PredictorKind};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;
use hermes_types::geomean;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig17d",
    title: "Sensitivity to cache-hierarchy access latency",
    scale: Scale::clone,
    points,
    render,
};

const TOTALS: [u32; 6] = [40, 45, 50, 55, 60, 65];

/// One latency point's configurations, in `[baseline, Pythia,
/// Pythia+Hermes-P, Pythia+Hermes-O]` order. `total` is the load-to-use
/// LLC latency; L1 (5) + L2 (10) stay fixed.
fn point_cfgs(total: u32) -> [(String, SystemConfig); 4] {
    let llc_lat = total - 15;
    [
        (
            format!("lat{total}-nopf"),
            SystemConfig::baseline_1c()
                .with_llc_latency(llc_lat)
                .with_prefetcher(PrefetcherKind::None),
        ),
        (
            format!("lat{total}-pythia"),
            SystemConfig::baseline_1c().with_llc_latency(llc_lat),
        ),
        (
            format!("lat{total}-pythia+hermesP"),
            SystemConfig::baseline_1c()
                .with_llc_latency(llc_lat)
                .with_hermes(HermesConfig::hermes_p(PredictorKind::Popet)),
        ),
        (
            format!("lat{total}-pythia+hermesO"),
            SystemConfig::baseline_1c()
                .with_llc_latency(llc_lat)
                .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
    ]
}

fn points(scale: &Scale) -> Vec<Point> {
    let grid: Vec<(String, SystemConfig)> = TOTALS.into_iter().flat_map(point_cfgs).collect();
    cross(&grid, &scale.sweep_suite())
}

fn render(results: &Results, scale: &Scale) -> String {
    let subsuite = scale.sweep_suite();

    let mut t = Table::new(&[
        "hierarchy latency",
        "Pythia",
        "Pythia+Hermes-P",
        "Pythia+Hermes-O",
        "Hermes-O gain",
    ]);
    let mut gains = Vec::new();
    for total in TOTALS {
        let [base, p_cfg, hp_cfg, ho_cfg] = point_cfgs(total);
        let sp = |(tag, _): &(String, SystemConfig)| -> f64 {
            let v: Vec<f64> = subsuite
                .iter()
                .map(|spec| results.get(tag, spec).ipc / results.get(&base.0, spec).ipc)
                .collect();
            geomean(&v)
        };
        let pythia = sp(&p_cfg);
        let hp = sp(&hp_cfg);
        let ho = sp(&ho_cfg);
        gains.push(ho / pythia - 1.0);
        t.row(&[
            total.to_string(),
            f3(pythia),
            f3(hp),
            f3(ho),
            format!("{:+.1}%", (ho / pythia - 1.0) * 100.0),
        ]);
    }
    let summary = format!(
        "Hermes' gain grows with hierarchy latency: {:+.1}% at 40 cycles vs {:+.1}% at 65 (paper: +3.6% vs +6.2%) — slower caches mean more removable latency.",
        gains[0] * 100.0,
        gains[gains.len() - 1] * 100.0,
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
