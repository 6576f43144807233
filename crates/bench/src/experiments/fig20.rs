//! Fig. 20 (Appendix B.2) — sensitivity to LLC size (3 → 24 MB per core).

use crate::{cross, f3, Experiment, Point, Results, Scale, Table};
use hermes::{HermesConfig, PredictorKind};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;
use hermes_types::geomean;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig20",
    title: "Sensitivity to LLC size",
    scale: Scale::clone,
    points,
    render,
};

const MBS: [u64; 4] = [3, 6, 12, 24];

/// One LLC-size point's configurations, in `[baseline, Hermes-alone,
/// Pythia, Pythia+Hermes-O]` order.
fn point_cfgs(mb: u64) -> [(String, SystemConfig); 4] {
    let size = mb << 20;
    let nopf = SystemConfig::baseline_1c()
        .with_llc_size(size)
        .with_prefetcher(PrefetcherKind::None);
    [
        (format!("llc{mb}-nopf"), nopf.clone()),
        (
            format!("llc{mb}-hermes-alone"),
            nopf.with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
        (
            format!("llc{mb}-pythia"),
            SystemConfig::baseline_1c().with_llc_size(size),
        ),
        (
            format!("llc{mb}-pythia+hermesO"),
            SystemConfig::baseline_1c()
                .with_llc_size(size)
                .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
    ]
}

fn points(scale: &Scale) -> Vec<Point> {
    let grid: Vec<(String, SystemConfig)> = MBS.into_iter().flat_map(point_cfgs).collect();
    cross(&grid, &scale.sweep_suite())
}

fn render(results: &Results, scale: &Scale) -> String {
    let subsuite = scale.sweep_suite();

    let mut t = Table::new(&[
        "LLC MB/core",
        "Hermes-O",
        "Pythia",
        "Pythia+Hermes-O",
        "Hermes gain",
    ]);
    let mut gains = Vec::new();
    for mb in MBS {
        let [base, hermes_alone, pythia, combo] = point_cfgs(mb);
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
            mb.to_string(),
            f3(h),
            f3(p),
            f3(c),
            format!("{:+.1}%", (c / p - 1.0) * 100.0),
        ]);
    }
    let summary = format!(
        "Hermes' gain over Pythia: {:+.1}% at 3 MB vs {:+.1}% at 24 MB (paper: +5.4% shrinking to +1.3%). Note: at this window scale the working sets touched stay well above even the 24 MB LLC, so the shrink is weaker than at paper scale where footprints begin to fit.",
        gains[0] * 100.0,
        gains[3] * 100.0,
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
