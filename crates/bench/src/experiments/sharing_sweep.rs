//! `sharing_sweep` — Hermes under genuine inter-core sharing, over the
//! directory-MESI coherence layer.
//!
//! Sweeps shared-access fraction × core count × {baseline, Hermes-O/
//! POPET} over the sharing suite (producer-consumer ring + shared-hot-set
//! server mix), every point with `SystemConfig::coherence` enabled — the
//! first experiment whose cores touch the *same* physical lines. The
//! trends under study: invalidation and dirty-intervention traffic grows
//! with the shared fraction and the core count; coherence misses are
//! *on-chip* events POPET must learn to separate from true off-chip
//! misses, so its accuracy — and Hermes's win — is squeezed exactly where
//! sharing is heaviest.
//!
//! Flags: the usual `--quick` / `--full` / `--record` / `--jobs N`.

use crate::{
    cross, f3, speedup_table, speedups, Experiment, Point, Results, RunLite, Scale, Table,
};
use hermes::{HermesConfig, PredictorKind};
use hermes_cache::CoherenceConfig;
use hermes_sim::SystemConfig;
use hermes_trace::{suite, WorkloadSpec};
use hermes_types::geomean;

pub const EXPERIMENT: Experiment = Experiment {
    id: "sharing_sweep",
    title: "Hermes under inter-core sharing (MESI coherence, shared fraction x cores)",
    scale: Scale::clone,
    points,
    render,
};

/// Every (cores, shared fraction) point and its tag, in table order.
fn sweep() -> Vec<(usize, u32, String)> {
    [2, 4]
        .into_iter()
        .flat_map(|cores| {
            [0, 250, 500]
                .into_iter()
                .map(move |frac| (cores, frac, format!("share{frac}-{cores}c")))
        })
        .collect()
}

fn points(_: &Scale) -> Vec<Point> {
    // The ring is identical at every fraction, so its repeats share one
    // simulation.
    let mut grid = Vec::new();
    for (cores, frac, tag) in sweep() {
        let cfg = SystemConfig {
            cores,
            ..SystemConfig::baseline_1c()
        }
        .with_coherence(CoherenceConfig::baseline());
        let hermes_cfg = cfg
            .clone()
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
        let configs = [
            (format!("{tag}-base"), cfg),
            (format!("{tag}-hermesO-popet"), hermes_cfg),
        ];
        grid.extend(cross(&configs, &suite::sharing_suite(frac)));
    }
    grid
}

fn render(results: &Results, scale: &Scale) -> String {
    let gm = |rs: &[(WorkloadSpec, RunLite)]| {
        geomean(&rs.iter().map(|(_, r)| r.ipc).collect::<Vec<_>>())
    };
    let mean = |rs: &[(WorkloadSpec, RunLite)], f: &dyn Fn(&RunLite) -> f64| {
        rs.iter().map(|(_, r)| f(r)).sum::<f64>() / rs.len() as f64
    };
    let mut t = Table::new(&[
        "cores",
        "shared",
        "inv/core",
        "fwd/core",
        "upg/core",
        "IPC base",
        "IPC +HermesO",
        "speedup",
    ]);
    let mut speedup_rows = Vec::new();
    for (cores, frac, tag) in sweep() {
        let specs = suite::sharing_suite(frac);
        let base = results.suite(&format!("{tag}-base"), &specs);
        let herm = results.suite(&format!("{tag}-hermesO-popet"), &specs);
        let (ipc_b, ipc_h) = (gm(&base), gm(&herm));
        t.row(&[
            cores.to_string(),
            format!("{:.0}%", frac as f64 / 10.0),
            f3(mean(&base, &|r| r.coh_invalidations)),
            f3(mean(&base, &|r| r.coh_dirty_forwards)),
            f3(mean(&base, &|r| r.coh_upgrades)),
            f3(ipc_b),
            f3(ipc_h),
            f3(ipc_h / ipc_b),
        ]);
        speedup_rows.push((tag, speedups(&base, &herm)));
    }

    format!(
        "Sharing suite (producer-consumer ring + shared-hot-set mix), \
         {}+{} instructions/core, MESI coherence on (24-cycle directory \
         round trip), homogeneous mixes (the core index selects each \
         core's role/lane). `shared` is the hot-set shared-access \
         fraction; the ring is inherently 100% shared. Coherence columns \
         are per-core means over the baseline runs.\n\n{}\n\
         Per-category Hermes-O/POPET speedup by sharing point:\n\n{}\n\
         Reading: invalidations and dirty interventions rise with the \
         shared fraction and core count; they are on-chip misses POPET \
         must learn *not* to call off-chip, so Hermes's edge narrows as \
         sharing grows — the honest multi-core regime Fig. 13 of the \
         paper runs in.",
        scale.warmup,
        scale.instr,
        t.to_markdown(),
        speedup_table(&speedup_rows),
    )
}
