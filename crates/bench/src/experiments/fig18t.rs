//! Fig. 17 (second, τ_act) — effect of the activation threshold on
//! POPET's accuracy/coverage and Hermes' speedup.

use crate::{configs, cross, f3, pct, Experiment, Point, Results, Scale, Table};
use hermes::{HermesConfig, PopetConfig, PredictorKind};
use hermes_sim::SystemConfig;
use hermes_types::geomean;

pub const EXPERIMENT: Experiment = Experiment {
    id: "fig18t",
    title: "Activation-threshold sweep",
    scale: Scale::clone,
    points,
    render,
};

fn taus() -> impl Iterator<Item = i32> {
    (-38..=2).step_by(4)
}

fn tau_tag(tau: i32) -> String {
    format!("pythia+hermes-tau{tau}")
}

fn points(scale: &Scale) -> Vec<Point> {
    let (bt, bc) = configs::nopf();
    let mut grid: Vec<(String, SystemConfig)> = vec![(bt.to_string(), bc)];
    for tau in taus() {
        let cfg = SystemConfig::baseline_1c()
            .with_popet(PopetConfig::paper().with_tau_act(tau))
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
        grid.push((tau_tag(tau), cfg));
    }
    cross(&grid, &scale.sweep_suite())
}

fn render(results: &Results, scale: &Scale) -> String {
    let subsuite = scale.sweep_suite();
    let bt = configs::nopf().0;

    let mut t = Table::new(&["tau_act", "accuracy", "coverage", "Pythia+Hermes speedup"]);
    let mut accs = Vec::new();
    let mut covs = Vec::new();
    for tau in taus() {
        let mut acc = Vec::new();
        let mut cov = Vec::new();
        let mut sp = Vec::new();
        for spec in &subsuite {
            let b = results.get(bt, spec);
            let r = results.get(&tau_tag(tau), spec);
            acc.push(r.accuracy);
            cov.push(r.coverage);
            sp.push(r.ipc / b.ipc);
        }
        let (a, c) = (hermes_types::mean(&acc), hermes_types::mean(&cov));
        accs.push(a);
        covs.push(c);
        t.row(&[tau.to_string(), pct(a), pct(c), f3(geomean(&sp))]);
    }
    let acc_rises = accs.windows(2).filter(|w| w[1] >= w[0] - 0.02).count();
    let cov_falls = covs.windows(2).filter(|w| w[1] <= w[0] + 0.02).count();
    let summary = format!(
        "As τ_act rises, accuracy rises ({}/{} steps) and coverage falls ({}/{} steps) — the paper's trade-off; τ_act = −18 balances both (Table 2).",
        acc_rises,
        accs.len() - 1,
        cov_falls,
        covs.len() - 1,
    );
    format!("{}\n{}", t.to_markdown(), summary)
}
