//! Fig. 3 — average ROB-stall cycles per off-chip load and the portion
//! removable by eliminating the on-chip cache-hierarchy access latency.

use hermes_bench::{configs, cross, emit, f3, pct, run_grid, Scale, Table};
use hermes_trace::Category;

fn main() {
    let scale = Scale::from_args();
    let (tag, cfg) = configs::pythia();
    let results = run_grid(cross(&[(tag.to_string(), cfg)], &scale.suite), &scale);
    let runs = results.suite(tag, &scale.suite);

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
    emit(
        "fig03",
        "Stall cycles caused by off-chip loads",
        &format!("{}\n{}", t.to_markdown(), summary),
        &scale,
        &results,
    );
}
