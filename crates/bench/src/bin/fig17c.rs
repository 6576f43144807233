//! Fig. 17c — sensitivity to the Hermes request issue latency (0 → 24
//! cycles).

use hermes::{HermesConfig, PredictorKind};
use hermes_bench::{configs, cross, emit, f3, run_grid, Scale, Table};
use hermes_sim::SystemConfig;
use hermes_types::geomean;

/// The Pythia + Hermes-O configuration at issue latency `lat`, with its tag.
fn lat_cfg(lat: u32) -> (String, SystemConfig) {
    (
        format!("pythia+hermes-lat{lat}"),
        SystemConfig::baseline_1c()
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet).with_issue_latency(lat)),
    )
}

fn main() {
    let scale = Scale::from_args();
    let subsuite = scale.sweep_suite();
    let (bt, bc) = configs::nopf();
    let (pt, pc) = configs::pythia();
    let lats = [0u32, 3, 6, 9, 12, 15, 18, 21, 24];

    let mut grid: Vec<(String, SystemConfig)> = vec![(bt.to_string(), bc), (pt.to_string(), pc)];
    grid.extend(lats.iter().map(|&lat| lat_cfg(lat)));
    let results = run_grid(cross(&grid, &subsuite), &scale);
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
    for lat in lats {
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
    emit(
        "fig17c",
        "Sensitivity to Hermes request issue latency",
        &format!("{}\n{}", t.to_markdown(), summary),
        &scale,
        &results,
    );
}
