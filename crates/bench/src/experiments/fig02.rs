//! Fig. 2 — distribution of ROB-blocking vs non-blocking off-chip loads
//! and LLC MPKI, in the no-prefetching system and with Pythia.

use crate::{configs, cross, f3, pct, Experiment, Point, Results, Scale, Table};
use hermes_trace::Category;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig02",
    title: "Blocking vs non-blocking off-chip loads",
    scale: Scale::clone,
    points,
    render,
};

fn points(scale: &Scale) -> Vec<Point> {
    let (t0, c0) = configs::nopf();
    let (t1, c1) = configs::pythia();
    cross(&[(t0.to_string(), c0), (t1.to_string(), c1)], &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let (t0, t1) = (configs::nopf().0, configs::pythia().0);
    let nopf = results.suite(t0, &scale.suite);
    let pythia = results.suite(t1, &scale.suite);

    let mut t = Table::new(&[
        "category",
        "config",
        "off-chip loads (vs no-pf)",
        "blocking share",
        "LLC MPKI",
    ]);
    for cat in Category::ALL {
        for (label, runs) in [("no-prefetching", &nopf), ("Pythia", &pythia)] {
            let rows: Vec<_> = runs.iter().filter(|(s, _)| s.category == cat).collect();
            if rows.is_empty() {
                continue;
            }
            let n = rows.len() as f64;
            let offchip: f64 = rows
                .iter()
                .map(|(_, r)| r.blocking + r.nonblocking)
                .sum::<f64>()
                / n;
            let base_off: f64 = nopf
                .iter()
                .filter(|(s, _)| s.category == cat)
                .map(|(_, r)| r.blocking + r.nonblocking)
                .sum::<f64>()
                / n;
            let blocking: f64 = rows.iter().map(|(_, r)| r.blocking).sum::<f64>() / n;
            let mpki: f64 = rows.iter().map(|(_, r)| r.llc_mpki).sum::<f64>() / n;
            t.row(&[
                cat.label().to_string(),
                label.to_string(),
                f3(offchip / base_off.max(1.0)),
                pct(blocking / offchip.max(1.0)),
                f3(mpki),
            ]);
        }
    }
    // Paper's headline numbers: Pythia removes ~half the off-chip loads;
    // ~71% of the remainder block retirement.
    let tot_nopf: f64 = nopf.iter().map(|(_, r)| r.blocking + r.nonblocking).sum();
    let tot_py: f64 = pythia.iter().map(|(_, r)| r.blocking + r.nonblocking).sum();
    let blk_py: f64 = pythia.iter().map(|(_, r)| r.blocking).sum();
    let summary = format!(
        "Pythia leaves {} of the no-prefetching system's off-chip loads; {} of the remaining off-chip loads block retirement (paper: ~50% and 71.4%).",
        pct(tot_py / tot_nopf.max(1.0)),
        pct(blk_py / tot_py.max(1.0)),
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
