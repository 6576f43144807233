//! Fig. 21 (Appendix B.3) — POPET accuracy/coverage under each baseline
//! prefetcher and with no prefetcher at all.

use crate::{cross, pct, Experiment, Point, Results, Scale, Table};
use hermes::{HermesConfig, PredictorKind};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig21",
    title: "POPET accuracy/coverage vs baseline prefetcher",
    scale: Scale::clone,
    points,
    render,
};

/// Every paper prefetcher, then none.
fn pfs() -> impl Iterator<Item = PrefetcherKind> {
    PrefetcherKind::PAPER_SET
        .into_iter()
        .chain([PrefetcherKind::None])
}

fn tag(pf: PrefetcherKind) -> String {
    format!("{}+hermesO-acc", pf.label())
}

fn points(scale: &Scale) -> Vec<Point> {
    let grid: Vec<(String, SystemConfig)> = pfs()
        .map(|pf| {
            let cfg = SystemConfig::baseline_1c()
                .with_prefetcher(pf)
                .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
            (tag(pf), cfg)
        })
        .collect();
    cross(&grid, &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let mut t = Table::new(&["system", "POPET accuracy", "POPET coverage"]);
    let mut rows = Vec::new();
    for pf in pfs() {
        let runs = results.suite(&tag(pf), &scale.suite);
        let n = runs.len() as f64;
        let acc: f64 = runs.iter().map(|(_, r)| r.accuracy).sum::<f64>() / n;
        let cov: f64 = runs.iter().map(|(_, r)| r.coverage).sum::<f64>() / n;
        let label = if pf == PrefetcherKind::None {
            "Hermes alone".to_string()
        } else {
            format!("{} + Hermes", pf.label())
        };
        rows.push((label.clone(), acc, cov));
        t.row(&[label, pct(acc), pct(cov)]);
    }
    let alone = rows.last().expect("ran at least one config");
    let with_pf_acc = hermes_types::mean(
        &rows[..rows.len() - 1]
            .iter()
            .map(|r| r.1)
            .collect::<Vec<_>>(),
    );
    let summary = format!(
        "Without a prefetcher POPET reaches {} accuracy vs {} averaged across prefetchers (paper: 88.9% vs 73–80%) — prefetch traffic genuinely makes off-chip prediction harder (§3.2, challenge 2).",
        pct(alone.1),
        pct(with_pf_acc),
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
