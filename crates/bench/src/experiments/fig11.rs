//! Fig. 11 — per-trace accuracy and coverage of POPET with each single
//! feature: no one feature wins everywhere.

use crate::{cross, pct, Experiment, Point, Results, Scale, Table};
use hermes::{Feature, HermesConfig, PopetConfig, PredictorKind};
use hermes_sim::SystemConfig;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig11",
    title: "Per-trace single-feature accuracy/coverage",
    scale: Scale::clone,
    points,
    render,
};

fn tag(feat: Feature) -> String {
    format!("popet-f{:?}", feat)
}

fn points(scale: &Scale) -> Vec<Point> {
    let grid: Vec<(String, SystemConfig)> = Feature::SELECTED
        .iter()
        .map(|&feat| {
            let cfg = SystemConfig::baseline_1c()
                .with_popet(PopetConfig::with_features(&[feat]))
                .with_hermes(HermesConfig::passive(PredictorKind::Popet));
            (tag(feat), cfg)
        })
        .collect();
    cross(&grid, &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let features = Feature::SELECTED;
    // runs[f] = suite runs for that single feature.
    let runs: Vec<_> = features
        .iter()
        .map(|&feat| results.suite(&tag(feat), &scale.suite))
        .collect();

    let mut hdr: Vec<String> = vec!["trace".to_string()];
    hdr.extend(features.iter().map(|f| format!("{} acc/cov", f.label())));
    hdr.push("best feature".to_string());
    let hdr_refs: Vec<&str> = hdr.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&hdr_refs);

    let mut wins = vec![0usize; features.len()];
    for (i, (spec, _)) in runs[0].iter().enumerate() {
        let mut cells = vec![spec.name.clone()];
        let mut best = 0;
        for (fi, feat_runs) in runs.iter().enumerate() {
            let r = &feat_runs[i].1;
            cells.push(format!("{}/{}", pct(r.accuracy), pct(r.coverage)));
            if r.accuracy > runs[best][i].1.accuracy {
                best = fi;
            }
        }
        wins[best] += 1;
        cells.push(features[best].label().to_string());
        t.row(&cells);
    }
    let mut summary = String::from("Per-feature accuracy wins across traces: ");
    for (f, w) in features.iter().zip(&wins) {
        summary.push_str(&format!("{} = {}; ", f.label(), w));
    }
    summary.push_str(
        "(paper: 47/29/20/9/5 across 110 traces — the point being that no single feature dominates, motivating multi-feature learning).",
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
