//! Fig. 20 (Appendix B.2) — sensitivity to LLC size (3 → 24 MB per core).

use hermes::{HermesConfig, PredictorKind};
use hermes_bench::{cross, emit, f3, run_grid, Scale, Table};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;
use hermes_types::geomean;

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

fn main() {
    let scale = Scale::from_args();
    let subsuite = scale.sweep_suite();

    let mbs = [3u64, 6, 12, 24];

    let grid: Vec<(String, SystemConfig)> = mbs.iter().flat_map(|&mb| point_cfgs(mb)).collect();
    let results = run_grid(cross(&grid, &subsuite), &scale);

    let mut t = Table::new(&[
        "LLC MB/core",
        "Hermes-O",
        "Pythia",
        "Pythia+Hermes-O",
        "Hermes gain",
    ]);
    let mut gains = Vec::new();
    for mb in mbs {
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
    emit(
        "fig20",
        "Sensitivity to LLC size",
        &format!("{}\n{}", t.to_markdown(), summary),
        &scale,
        &results,
    );
}
