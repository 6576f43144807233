//! Fig. 21 (Appendix B.3) — POPET accuracy/coverage under each baseline
//! prefetcher and with no prefetcher at all.

use hermes::{HermesConfig, PredictorKind};
use hermes_bench::{cross, emit, pct, run_grid, Scale, Table};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;

fn main() {
    let scale = Scale::from_args();
    let pfs: Vec<PrefetcherKind> = PrefetcherKind::PAPER_SET
        .iter()
        .copied()
        .chain([PrefetcherKind::None])
        .collect();
    let tag = |pf: PrefetcherKind| format!("{}+hermesO-acc", pf.label());
    let grid: Vec<(String, SystemConfig)> = pfs
        .iter()
        .map(|&pf| {
            let cfg = SystemConfig::baseline_1c()
                .with_prefetcher(pf)
                .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
            (tag(pf), cfg)
        })
        .collect();
    let results = run_grid(cross(&grid, &scale.suite), &scale);

    let mut t = Table::new(&["system", "POPET accuracy", "POPET coverage"]);
    let mut rows = Vec::new();
    for pf in pfs {
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
    emit(
        "fig21",
        "POPET accuracy/coverage vs baseline prefetcher",
        &format!("{}\n{}", t.to_markdown(), summary),
        &scale,
        &results,
    );
}
