//! Fig. 18 — runtime dynamic power of Hermes, Pythia, and the
//! combination, normalized to the no-prefetching system.

use crate::{configs, cross, f3, Experiment, Point, Results, Scale, Table};
use hermes::PredictorKind;
use hermes_sim::SystemConfig;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig18p",
    title: "Normalized dynamic power",
    scale: Scale::clone,
    points,
    render,
};

/// Each row's label and tagged configuration.
fn named() -> [(&'static str, (String, SystemConfig)); 3] {
    [
        ("Hermes-O", configs::hermes_alone('o', PredictorKind::Popet)),
        ("Pythia", {
            let (t, c) = configs::pythia();
            (t.to_string(), c)
        }),
        (
            "Pythia + Hermes-O",
            configs::pythia_hermes('o', PredictorKind::Popet),
        ),
    ]
}

fn points(scale: &Scale) -> Vec<Point> {
    let (bt, bc) = configs::nopf();
    let mut grid = vec![(bt.to_string(), bc)];
    grid.extend(named().map(|(_, point)| point));
    cross(&grid, &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let base = results.suite(configs::nopf().0, &scale.suite);

    let mut t = Table::new(&[
        "config",
        "normalized dynamic power",
        "bus/DRAM share",
        "caches share",
        "metadata share",
    ]);
    let mut summary_vals = Vec::new();
    for (label, (tag, _)) in named() {
        let runs = results.suite(&tag, &scale.suite);
        // Normalized power = (energy / cycles) vs baseline, averaged.
        let ratios: Vec<f64> = base
            .iter()
            .zip(&runs)
            .map(|((_, b), (_, x))| (x.energy / x.cycles) / (b.energy / b.cycles))
            .collect();
        let p = hermes_types::mean(&ratios);
        summary_vals.push((label, p));
        let tot: f64 = runs.iter().map(|(_, r)| r.energy).sum();
        let bus: f64 = runs.iter().map(|(_, r)| r.energy_bus).sum();
        let caches: f64 = runs.iter().map(|(_, r)| r.energy_caches).sum();
        let meta: f64 = runs.iter().map(|(_, r)| r.energy_meta).sum();
        t.row(&[
            label.to_string(),
            f3(p),
            f3(bus / tot),
            f3(caches / tot),
            f3(meta / tot),
        ]);
    }
    let summary = format!(
        "Dynamic power over no-prefetching: Hermes {:+.1}%, Pythia {:+.1}%, both {:+.1}% (paper: +3.6%, +8.7%, +10.2%). Power here tracks (memory traffic)/(runtime): our suite is more memory-intensive than the paper's, so absolute deltas are larger; the per-performance cost ordering (Hermes cheaper per 1% speedup) is checked in fig15(b).",
        (summary_vals[0].1 - 1.0) * 100.0,
        (summary_vals[1].1 - 1.0) * 100.0,
        (summary_vals[2].1 - 1.0) * 100.0,
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
