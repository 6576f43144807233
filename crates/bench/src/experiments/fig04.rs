//! Fig. 4 — potential of Ideal Hermes: (a) by itself and with Pythia;
//! (b) combined with Bingo, SPP, MLOP, and SMS.

use crate::{configs, cross, speedup_table, speedups, Experiment, Point, Results, Scale};
use hermes::{HermesConfig, PredictorKind};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig04",
    title: "Potential performance of Ideal Hermes (speedup vs no-prefetching)",
    scale: Scale::clone,
    points,
    render,
};

/// A table row: its label, and the tagged configuration it plots.
type Row = (String, (String, SystemConfig));

/// The rows of (a) and (b).
fn rows() -> (Vec<Row>, Vec<Row>) {
    // (a) Ideal Hermes alone, Pythia, Pythia + Ideal: (row label, tag, config).
    let (pt, pc) = configs::pythia();
    let rows_a: Vec<Row> = vec![
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
    (rows_a, rows_b)
}

fn points(scale: &Scale) -> Vec<Point> {
    let (rows_a, rows_b) = rows();
    let (bt, bc) = configs::nopf();
    let mut grid = vec![(bt.to_string(), bc)];
    grid.extend(rows_a.into_iter().chain(rows_b).map(|(_, point)| point));
    cross(&grid, &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let (rows_a, rows_b) = rows();
    let base = results.suite(configs::nopf().0, &scale.suite);
    let table = |rows: &[Row]| {
        let rows: Vec<_> = rows
            .iter()
            .map(|(label, (tag, _))| {
                let runs = results.suite(tag, &scale.suite);
                (label.clone(), speedups(&base, &runs))
            })
            .collect();
        speedup_table(&rows)
    };

    format!(
        "### (a) Ideal Hermes with the baseline prefetcher\n\n{}\n### (b) Ideal Hermes with other prefetchers\n\n{}",
        table(&rows_a),
        table(&rows_b),
    )
}
