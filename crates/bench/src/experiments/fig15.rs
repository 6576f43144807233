//! Fig. 15 — (a) reduction in off-chip-load stall cycles with Hermes
//! (box-and-whisker distribution); (b) overhead in main-memory requests.

use crate::{configs, cross, f3, pct, Experiment, Point, Results, RunLite, Scale, Table};
use hermes::PredictorKind;
use hermes_sim::SystemConfig;
use hermes_trace::WorkloadSpec;
use hermes_types::BoxplotSummary;

/// Pythia's off-chip stall cycles as a share of its cycles, below which a
/// trace is left out of the per-trace distribution in (a).
const MIN_STALL_SHARE: f64 = 0.01;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig15",
    title: "Stall-cycle reduction and memory-request overhead",
    scale: Scale::clone,
    points,
    render,
};

/// No-prefetching, Pythia, Hermes-O alone, and Pythia + Hermes-O.
fn grid() -> [(String, SystemConfig); 4] {
    let (bt, bc) = configs::nopf();
    let (pt, pc) = configs::pythia();
    [
        (bt.to_string(), bc),
        (pt.to_string(), pc),
        configs::hermes_alone('o', PredictorKind::Popet),
        configs::pythia_hermes('o', PredictorKind::Popet),
    ]
}

fn points(scale: &Scale) -> Vec<Point> {
    cross(&grid(), &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let [base, pythia, hermes_alone, combo] =
        grid().map(|(tag, _)| results.suite(&tag, &scale.suite));

    // (a) Off-chip stall-cycle reduction of Pythia+Hermes over Pythia. The
    // headline is the suite aggregate. A per-trace ratio divides by
    // Pythia's own stall count, which is near zero on traces where Pythia
    // already hides almost every off-chip load, so the distribution only
    // covers traces where Pythia still stalls for a real share of cycles.
    let total =
        |runs: &[(WorkloadSpec, RunLite)]| runs.iter().map(|(_, r)| r.stall_offchip).sum::<f64>();
    let aggregate = 1.0 - total(&combo) / total(&pythia).max(1.0);
    let reductions: Vec<f64> = pythia
        .iter()
        .zip(&combo)
        .filter(|((_, p), _)| p.stall_offchip >= MIN_STALL_SHARE * p.cycles)
        .map(|((_, p), (_, c))| 1.0 - c.stall_offchip / p.stall_offchip)
        .collect();
    let left_out = pythia.len() - reductions.len();
    let mut ta = Table::new(&["statistic", "stall-cycle reduction"]);
    if let Some(bp) = BoxplotSummary::from_samples(&reductions) {
        for (k, v) in [
            ("min", bp.min),
            ("whisker lo", bp.whisker_lo),
            ("q1", bp.q1),
            ("median", bp.median),
            ("mean", bp.mean),
            ("q3", bp.q3),
            ("whisker hi", bp.whisker_hi),
            ("max", bp.max),
        ] {
            ta.row(&[k.to_string(), pct(v)]);
        }
    }

    // (b) Main-memory request overhead over the no-prefetching system.
    let overhead = |runs: &[(WorkloadSpec, RunLite)]| -> f64 {
        let pairs: Vec<f64> = base
            .iter()
            .zip(runs)
            .map(|((_, b), (_, x))| x.mm_requests / b.mm_requests.max(1.0) - 1.0)
            .collect();
        hermes_types::mean(&pairs)
    };
    let (oh_h, oh_p, oh_c) = (overhead(&hermes_alone), overhead(&pythia), overhead(&combo));
    let mut tb = Table::new(&["config", "extra main-memory requests vs no-pf"]);
    tb.row(&["Hermes-O".to_string(), pct(oh_h)]);
    tb.row(&["Pythia".to_string(), pct(oh_p)]);
    tb.row(&["Pythia + Hermes-O".to_string(), pct(oh_c)]);

    let geo_sp = |runs: &[(WorkloadSpec, RunLite)]| {
        let v: Vec<f64> = base
            .iter()
            .zip(runs)
            .map(|((_, b), (_, x))| x.ipc / b.ipc)
            .collect();
        hermes_types::geomean(&v)
    };
    let summary = format!(
        "Suite-aggregate stall-cycle reduction {} (paper: 16.2% on average, up to 51.8%). Request overhead per 1% speedup: Hermes {} , Pythia {} (paper: ~0.5% vs ~2%).",
        pct(aggregate),
        f3(oh_h * 100.0 / ((geo_sp(&hermes_alone) - 1.0) * 100.0).max(1e-9)),
        f3(oh_p * 100.0 / ((geo_sp(&pythia) - 1.0) * 100.0).max(1e-9)),
    );
    format!(
        "### (a) Off-chip stall-cycle reduction (Pythia+Hermes vs Pythia)\n\n\
         Suite aggregate (1 - total Pythia+Hermes / total Pythia off-chip stall cycles): {}.\n\n\
         Per-trace distribution over the {} traces where Pythia stalls on off-chip loads for at least {} of its cycles ({} left out):\n\n{}\n\
         ### (b) Main-memory request overhead\n\n{}\n{}",
        pct(aggregate),
        reductions.len(),
        pct(MIN_STALL_SHARE),
        left_out,
        ta.to_markdown(),
        tb.to_markdown(),
        summary
    )
}
