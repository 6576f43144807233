//! Fig. 3 — average ROB-stall cycles per off-chip load and the portion
//! removable by eliminating the on-chip cache-hierarchy access latency.

use crate::{configs, cross, f3, pct, Experiment, Point, Results, Scale, Table};
use hermes_trace::Category;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig03",
    title: "Stall cycles caused by off-chip loads",
    scale: Scale::clone,
    points,
    render,
};

fn points(scale: &Scale) -> Vec<Point> {
    let (tag, cfg) = configs::pythia();
    cross(&[(tag.to_string(), cfg)], &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let runs = results.suite(configs::pythia().0, &scale.suite);

    let mut t = Table::new(&[
        "category",
        "stall cycles per off-chip load",
        "on-chip (removable) portion",
        "removable share",
    ]);
    let mut all_stall = Vec::new();
    let mut all_onchip = Vec::new();
    for cat in Category::ALL {
        let rows: Vec<_> = runs.iter().filter(|(s, _)| s.category == cat).collect();
        if rows.is_empty() {
            continue;
        }
        let n = rows.len() as f64;
        let stall: f64 = rows.iter().map(|(_, r)| r.stalls_per_offchip).sum::<f64>() / n;
        let onchip: f64 = rows.iter().map(|(_, r)| r.onchip_portion).sum::<f64>() / n;
        all_stall.push(stall);
        all_onchip.push(onchip);
        t.row(&[
            cat.label().to_string(),
            f3(stall),
            f3(onchip),
            pct(onchip / stall.max(1e-9)),
        ]);
    }
    let avg_stall = hermes_types::mean(&all_stall);
    let avg_onchip = hermes_types::mean(&all_onchip);
    t.row(&[
        "AVG".to_string(),
        f3(avg_stall),
        f3(avg_onchip),
        pct(avg_onchip / avg_stall.max(1e-9)),
    ]);
    let summary = format!(
        "An off-chip load stalls the core for {:.1} cycles on average; {} of that is on-chip hierarchy traversal Hermes can remove (paper: 147.1 cycles, 40.1%).",
        avg_stall,
        pct(avg_onchip / avg_stall.max(1e-9)),
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
