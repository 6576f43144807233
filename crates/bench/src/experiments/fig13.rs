//! Fig. 13 — per-trace speedup line graph: Hermes-O, Pythia, and
//! Pythia + Hermes-O over no-prefetching, sorted by the combined system's
//! speedup.

use crate::{configs, cross, f3, Experiment, Point, Results, Scale, Table};
use hermes::PredictorKind;
use hermes_sim::SystemConfig;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig13",
    title: "Per-trace speedups (sorted)",
    scale: Scale::clone,
    points,
    render,
};

/// No-prefetching, Hermes-O alone, Pythia, and Pythia + Hermes-O.
fn grid() -> [(String, SystemConfig); 4] {
    let (bt, bc) = configs::nopf();
    let (pt, pc) = configs::pythia();
    [
        (bt.to_string(), bc),
        configs::hermes_alone('o', PredictorKind::Popet),
        (pt.to_string(), pc),
        configs::pythia_hermes('o', PredictorKind::Popet),
    ]
}

fn points(scale: &Scale) -> Vec<Point> {
    cross(&grid(), &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let [base, hermes, pythia, combo] = grid().map(|(tag, _)| results.suite(&tag, &scale.suite));

    let mut rows: Vec<(String, f64, f64, f64)> = base
        .iter()
        .enumerate()
        .map(|(i, (spec, b))| {
            (
                spec.name.clone(),
                hermes[i].1.ipc / b.ipc,
                pythia[i].1.ipc / b.ipc,
                combo[i].1.ipc / b.ipc,
            )
        })
        .collect();
    rows.sort_by(|a, b| a.3.partial_cmp(&b.3).expect("finite speedups"));

    let mut t = Table::new(&["trace (sorted)", "Hermes-O", "Pythia", "Pythia+Hermes-O"]);
    let mut hermes_wins = 0;
    let mut hermes_always_gains = true;
    let mut combo_beats_both = 0;
    for (name, h, p, c) in &rows {
        t.row(&[name.clone(), f3(*h), f3(*p), f3(*c)]);
        if h > p {
            hermes_wins += 1;
        }
        if *h < 1.0 {
            hermes_always_gains = false;
        }
        if *c >= h.max(*p) * 0.995 {
            combo_beats_both += 1;
        }
    }
    let summary = format!(
        "Hermes-O alone beats Pythia in {}/{} traces; Hermes alone ≥ no-prefetching in {} traces; the combination matches-or-beats both alone in {}/{} traces (paper: Hermes wins 51/110; Hermes alone always gains; combination wins almost everywhere).",
        hermes_wins,
        rows.len(),
        if hermes_always_gains { "all".to_string() } else { "not all".to_string() },
        combo_beats_both,
        rows.len(),
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
