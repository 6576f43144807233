//! Fig. 4 — potential of Ideal Hermes: (a) by itself and with Pythia;
//! (b) combined with Bingo, SPP, MLOP, and SMS.

use hermes::{HermesConfig, PredictorKind};
use hermes_bench::{configs, cross, emit, run_grid, speedup_table, speedups, Scale};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;

fn main() {
    let scale = Scale::from_args();
    let (bt, bc) = configs::nopf();

    // (a) Ideal Hermes alone, Pythia, Pythia + Ideal: (row label, tag, config).
    let (pt, pc) = configs::pythia();
    let rows_a: Vec<(String, (String, SystemConfig))> = vec![
        (
            "Ideal Hermes".to_string(),
            configs::hermes_alone('o', PredictorKind::Ideal),
        ),
        ("Pythia (baseline)".to_string(), (pt.to_string(), pc)),
        (
            "Pythia + Ideal Hermes".to_string(),
            configs::pythia_hermes('o', PredictorKind::Ideal),
        ),
    ];

    // (b) Each prefetcher with and without Ideal Hermes.
    let mut rows_b = Vec::new();
    for pf in PrefetcherKind::PAPER_SET {
        if pf == PrefetcherKind::Pythia {
            continue; // covered in (a)
        }
        let cfg = SystemConfig::baseline_1c().with_prefetcher(pf);
        let cfg_h = cfg
            .clone()
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Ideal));
        rows_b.push((
            pf.label().to_string(),
            (format!("{}-only", pf.label()), cfg),
        ));
        rows_b.push((
            format!("{} + Ideal Hermes", pf.label()),
            (format!("{}+idealhermes", pf.label()), cfg_h),
        ));
    }

    let mut grid = vec![(bt.to_string(), bc)];
    grid.extend(rows_a.iter().chain(&rows_b).map(|(_, point)| point.clone()));
    let results = run_grid(cross(&grid, &scale.suite), &scale);
    let base = results.suite(bt, &scale.suite);
    let table = |rows: &[(String, (String, SystemConfig))]| {
        let rows: Vec<_> = rows
            .iter()
            .map(|(label, (tag, _))| {
                let runs = results.suite(tag, &scale.suite);
                (label.clone(), speedups(&base, &runs))
            })
            .collect();
        speedup_table(&rows)
    };

    let body = format!(
        "### (a) Ideal Hermes with the baseline prefetcher\n\n{}\n### (b) Ideal Hermes with other prefetchers\n\n{}",
        table(&rows_a),
        table(&rows_b),
    );
    emit(
        "fig04",
        "Potential performance of Ideal Hermes (speedup vs no-prefetching)",
        &body,
        &scale,
        &results,
    );
}
