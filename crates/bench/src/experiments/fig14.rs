//! Fig. 14 — Hermes with different off-chip predictors (HMP, TTP, POPET)
//! and the Ideal oracle, all combined with Pythia.

use crate::{configs, cross, speedup_table, speedups, Experiment, Point, Results, Scale};
use hermes::PredictorKind;
use hermes_sim::SystemConfig;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig14",
    title: "Hermes with different off-chip predictors",
    scale: Scale::clone,
    points,
    render,
};

/// Each bar's label and tagged configuration.
fn named() -> Vec<(String, (String, SystemConfig))> {
    let (pt, pc) = configs::pythia();
    let mut named = vec![("Pythia (baseline)".to_string(), (pt.to_string(), pc))];
    for pred in [
        PredictorKind::Hmp,
        PredictorKind::Ttp,
        PredictorKind::Popet,
        PredictorKind::Ideal,
    ] {
        let label = format!("Pythia + Hermes-{}", pred.label());
        named.push((label, configs::pythia_hermes('o', pred)));
    }
    named
}

fn points(scale: &Scale) -> Vec<Point> {
    let (bt, bc) = configs::nopf();
    let mut grid = vec![(bt.to_string(), bc)];
    grid.extend(named().into_iter().map(|(_, point)| point));
    cross(&grid, &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let base = results.suite(configs::nopf().0, &scale.suite);
    let rows: Vec<_> = named()
        .iter()
        .map(|(label, (tag, _))| {
            let runs = results.suite(tag, &scale.suite);
            (label.clone(), speedups(&base, &runs))
        })
        .collect();
    let geo = |r: &Vec<(hermes_trace::Category, f64)>| {
        hermes_types::geomean(&r.iter().map(|&(_, v)| v).collect::<Vec<_>>())
    };
    let popet_gain = geo(&rows[3].1) / geo(&rows[0].1) - 1.0;
    let ideal_gain = geo(&rows[4].1) / geo(&rows[0].1) - 1.0;
    let summary = format!(
        "Over Pythia: Hermes-HMP {:+.1}%, Hermes-TTP {:+.1}%, Hermes-POPET {:+.1}%, Ideal {:+.1}% (paper: +0.8%, +1.7%, +5.4%, +6.2%). POPET reaches {:.0}% of the Ideal upside (paper: ~90%). Caveat: at short windows TTP behaves near-ideal because the LLC never churns (see fig09 note); the paper's TTP penalty needs paper-scale windows.",
        (geo(&rows[1].1) / geo(&rows[0].1) - 1.0) * 100.0,
        (geo(&rows[2].1) / geo(&rows[0].1) - 1.0) * 100.0,
        popet_gain * 100.0,
        ideal_gain * 100.0,
        100.0 * popet_gain / ideal_gain.max(1e-9),
    );
    format!("{}\n{}", speedup_table(&rows), summary)
}
