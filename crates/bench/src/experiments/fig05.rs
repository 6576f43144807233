//! Fig. 5 — fraction of loads that go off-chip and LLC MPKI in the
//! baseline system with Pythia.

use crate::{configs, cross, f3, pct, Experiment, Point, Results, Scale, Table};
use hermes_trace::Category;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig05",
    title: "Off-chip load rate and LLC MPKI under Pythia",
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

    let mut t = Table::new(&["category", "off-chip load rate", "LLC MPKI"]);
    let mut rates = Vec::new();
    let mut mpkis = Vec::new();
    for cat in Category::ALL {
        let rows: Vec<_> = runs.iter().filter(|(s, _)| s.category == cat).collect();
        if rows.is_empty() {
            continue;
        }
        let n = rows.len() as f64;
        let rate: f64 = rows.iter().map(|(_, r)| r.offchip_rate).sum::<f64>() / n;
        let mpki: f64 = rows.iter().map(|(_, r)| r.llc_mpki).sum::<f64>() / n;
        rates.push(rate);
        mpkis.push(mpki);
        t.row(&[cat.label().to_string(), pct(rate), f3(mpki)]);
    }
    t.row(&[
        "AVG".to_string(),
        pct(hermes_types::mean(&rates)),
        f3(hermes_types::mean(&mpkis)),
    ]);
    let summary = format!(
        "With Pythia, {} of loads go off-chip at {:.1} LLC MPKI on average (paper: 5.1% and 7.9) — the class-imbalance challenge POPET must learn under.",
        pct(hermes_types::mean(&rates)),
        hermes_types::mean(&mpkis),
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
