//! Fig. 17b — Hermes combined with each baseline prefetcher (Pythia,
//! Bingo, SPP, MLOP, SMS): prefetcher alone vs +Hermes-P vs +Hermes-O.

use crate::{configs, cross, f3, Experiment, Point, Results, Scale, Table};
use hermes::{HermesConfig, PredictorKind};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;
use hermes_types::geomean;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig17b",
    title: "Hermes with different baseline prefetchers",
    scale: Scale::clone,
    points,
    render,
};

/// Per prefetcher: alone, +Hermes-P, +Hermes-O.
fn point_cfgs(pf: PrefetcherKind) -> [(String, SystemConfig); 3] {
    let cfg = SystemConfig::baseline_1c().with_prefetcher(pf);
    [
        (format!("{}-only", pf.label()), cfg.clone()),
        (
            format!("{}+hermesP", pf.label()),
            cfg.clone()
                .with_hermes(HermesConfig::hermes_p(PredictorKind::Popet)),
        ),
        (
            format!("{}+hermesO", pf.label()),
            cfg.with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
    ]
}

fn points(scale: &Scale) -> Vec<Point> {
    let (bt, bc) = configs::nopf();
    let mut grid = vec![(bt.to_string(), bc)];
    grid.extend(PrefetcherKind::PAPER_SET.into_iter().flat_map(point_cfgs));
    cross(&grid, &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let base = results.suite(configs::nopf().0, &scale.suite);

    let mut t = Table::new(&[
        "prefetcher",
        "alone",
        "+Hermes-P",
        "+Hermes-O",
        "Hermes-O gain",
    ]);
    let mut all_positive = true;
    for pf in PrefetcherKind::PAPER_SET {
        let [alone, p, o] = point_cfgs(pf).map(|(tag, _)| {
            let runs = results.suite(&tag, &scale.suite);
            let v: Vec<f64> = base
                .iter()
                .zip(&runs)
                .map(|((_, b), (_, x))| x.ipc / b.ipc)
                .collect();
            geomean(&v)
        });
        if o < alone {
            all_positive = false;
        }
        t.row(&[
            pf.label().to_string(),
            f3(alone),
            f3(p),
            f3(o),
            format!("{:+.1}%", (o / alone - 1.0) * 100.0),
        ]);
    }
    let summary = format!(
        "Hermes-O on top of every prefetcher: {} (paper: consistent gains of +5.1%..+7.7% across Bingo/SPP/MLOP/SMS and +5.4% on Pythia).",
        if all_positive { "positive for all five" } else { "not uniformly positive at this scale" },
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
