//! Fig. 19 (Appendix B.1) — sensitivity to ROB size (256 → 1024).

use crate::{cross, f3, Experiment, Point, Results, Scale, Table};
use hermes::{HermesConfig, PredictorKind};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;
use hermes_types::geomean;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig19",
    title: "Sensitivity to ROB size",
    scale: Scale::clone,
    points,
    render,
};

const ROBS: [usize; 4] = [256, 512, 768, 1024];

/// One ROB point's configurations, in `[baseline, Hermes-alone, Pythia,
/// Pythia+Hermes-O]` order.
fn point_cfgs(rob: usize) -> [(String, SystemConfig); 4] {
    let nopf = SystemConfig::baseline_1c()
        .with_rob(rob)
        .with_prefetcher(PrefetcherKind::None);
    [
        (format!("rob{rob}-nopf"), nopf.clone()),
        (
            format!("rob{rob}-hermes-alone"),
            nopf.with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
        (
            format!("rob{rob}-pythia"),
            SystemConfig::baseline_1c().with_rob(rob),
        ),
        (
            format!("rob{rob}-pythia+hermesO"),
            SystemConfig::baseline_1c()
                .with_rob(rob)
                .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
    ]
}

fn points(scale: &Scale) -> Vec<Point> {
    let grid: Vec<(String, SystemConfig)> = ROBS.into_iter().flat_map(point_cfgs).collect();
    cross(&grid, &scale.sweep_suite())
}

fn render(results: &Results, scale: &Scale) -> String {
    let subsuite = scale.sweep_suite();

    let mut t = Table::new(&[
        "ROB",
        "Hermes-O",
        "Pythia",
        "Pythia+Hermes-O",
        "Hermes gain",
    ]);
    let mut gains = Vec::new();
    for rob in ROBS {
        let [base, hermes_alone, pythia, combo] = point_cfgs(rob);
        let sp = |(tag, _): &(String, SystemConfig)| -> f64 {
            let v: Vec<f64> = subsuite
                .iter()
                .map(|spec| results.get(tag, spec).ipc / results.get(&base.0, spec).ipc)
                .collect();
            geomean(&v)
        };
        let h = sp(&hermes_alone);
        let p = sp(&pythia);
        let c = sp(&combo);
        gains.push(c / p - 1.0);
        t.row(&[
            rob.to_string(),
            f3(h),
            f3(p),
            f3(c),
            format!("{:+.1}%", (c / p - 1.0) * 100.0),
        ]);
    }
    let summary = format!(
        "Pythia+Hermes beats Pythia at every ROB size: {:+.1}% at 256 entries, {:+.1}% at 1024 (paper: +6.7% and +5.3% — bigger windows tolerate more latency, so the gain shrinks slightly).",
        gains[0] * 100.0,
        gains[3] * 100.0,
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
