//! Fig. 12 — single-core speedups: Hermes-P/O alone, Pythia, and
//! Pythia + Hermes-P/O, normalized to no-prefetching.

use crate::{configs, cross, speedup_table, speedups, Experiment, Point, Results, Scale};
use hermes::PredictorKind;
use hermes_sim::SystemConfig;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig12",
    title: "Single-core speedup",
    scale: Scale::clone,
    points,
    render,
};

/// Each bar's label and tagged configuration.
fn named() -> [(&'static str, (String, SystemConfig)); 5] {
    [
        ("Hermes-P", configs::hermes_alone('p', PredictorKind::Popet)),
        ("Hermes-O", configs::hermes_alone('o', PredictorKind::Popet)),
        ("Pythia (baseline)", {
            let (t, c) = configs::pythia();
            (t.to_string(), c)
        }),
        (
            "Pythia + Hermes-P",
            configs::pythia_hermes('p', PredictorKind::Popet),
        ),
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
    let rows: Vec<_> = named()
        .iter()
        .map(|(label, (tag, _))| {
            let runs = results.suite(tag, &scale.suite);
            (label.to_string(), speedups(&base, &runs))
        })
        .collect();
    let geo = |r: &Vec<(hermes_trace::Category, f64)>| {
        hermes_types::geomean(&r.iter().map(|&(_, v)| v).collect::<Vec<_>>())
    };
    let summary = format!(
        "Geomean speedups over no-prefetching: Hermes-P {:.3}, Hermes-O {:.3}, Pythia {:.3}, Pythia+Hermes-P {:.3}, Pythia+Hermes-O {:.3} (paper: 1.089, 1.115, 1.205, 1.247, 1.256). Shape check: Hermes stacks on Pythia; O beats P.",
        geo(&rows[0].1), geo(&rows[1].1), geo(&rows[2].1), geo(&rows[3].1), geo(&rows[4].1),
    );
    format!("{}\n{}", speedup_table(&rows), summary)
}
