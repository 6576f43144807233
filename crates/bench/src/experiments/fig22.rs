//! Fig. 22 (Appendix B.4) — main-memory request overhead of each
//! prefetcher alone and combined with Hermes.

use crate::{configs, cross, pct, Experiment, Point, Results, RunLite, Scale, Table};
use hermes::{HermesConfig, PredictorKind};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig22",
    title: "Main-memory request overhead by prefetcher",
    scale: Scale::clone,
    points,
    render,
};

fn alone_tag(pf: PrefetcherKind) -> String {
    format!("{}-only", pf.label())
}

fn hermes_tag(pf: PrefetcherKind) -> String {
    format!("{}+hermesO", pf.label())
}

fn points(scale: &Scale) -> Vec<Point> {
    let (bt, bc) = configs::nopf();
    let mut grid = vec![(bt.to_string(), bc)];
    for pf in PrefetcherKind::PAPER_SET {
        let cfg = SystemConfig::baseline_1c().with_prefetcher(pf);
        let cfg_h = cfg
            .clone()
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
        grid.push((alone_tag(pf), cfg));
        grid.push((hermes_tag(pf), cfg_h));
    }
    cross(&grid, &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let base = results.suite(configs::nopf().0, &scale.suite);

    let overhead = |runs: &[(hermes_trace::WorkloadSpec, RunLite)]| -> f64 {
        hermes_types::mean(
            &base
                .iter()
                .zip(runs)
                .map(|((_, b), (_, x))| x.mm_requests / b.mm_requests.max(1.0) - 1.0)
                .collect::<Vec<_>>(),
        )
    };

    let mut t = Table::new(&["prefetcher", "alone", "+Hermes-O", "Hermes adds"]);
    for pf in PrefetcherKind::PAPER_SET {
        let alone = overhead(&results.suite(&alone_tag(pf), &scale.suite));
        let with_h = overhead(&results.suite(&hermes_tag(pf), &scale.suite));
        t.row(&[
            pf.label().to_string(),
            pct(alone),
            pct(with_h),
            pct(with_h - alone),
        ]);
    }
    let summary = "Shape check vs paper (Fig. 22): adding Hermes to any prefetcher costs only a few percent extra main-memory requests (paper: +5.8%..+15.6%), far below the prefetchers' own overhead.";
    format!("{}\n{}", t.to_markdown(), summary)
}
