//! `hier_sweep` — end-to-end comparison of 2-, 3-, and 4-level cache
//! topologies through the `hermes-exec` engine.
//!
//! For each topology the sweep runs the suite twice — baseline and
//! Hermes-O/POPET — and reports geomean IPC plus the per-category Hermes
//! speedup. The interesting trend: the deeper the hierarchy, the larger
//! the on-chip latency an off-chip load pays before reaching the memory
//! controller, and the more Hermes has to hide (§4 of the paper treats
//! the 55-cycle three-level walk as fixed; here it is a knob).
//!
//! Flags: the usual `--quick` / `--full` / `--record` / `--jobs N`.

use crate::{cross, f3, speedup_table, speedups, Experiment, Point, Results, Scale, Table};
use hermes::{HermesConfig, PredictorKind};
use hermes_cache::{CacheConfig, ReplacementKind};
use hermes_sim::SystemConfig;
use hermes_types::geomean;

pub const EXPERIMENT: Experiment = Experiment {
    id: "hier_sweep",
    title: "IPC and Hermes speedup across 2/3/4-level cache topologies",
    scale: Scale::clone,
    points,
    render,
};

/// The three topologies under comparison, shallow to deep.
fn topologies() -> Vec<(&'static str, SystemConfig)> {
    let base = SystemConfig::baseline_1c();
    let two = base.clone().with_levels(vec![
        base.levels[0].clone(),
        // No mid level, LLC latency unchanged: the on-chip walk shrinks
        // to 45 cycles (vs 55), so hier2 trades L2 capacity for a
        // shorter path — and gives Hermes 10 fewer cycles to hide.
        base.levels[2].clone(),
    ]);
    let three = base.clone();
    let four = base.clone().with_levels(vec![
        base.levels[0].clone(),
        base.levels[1].clone(),
        CacheConfig::new("L3", 2 << 20, 16, ReplacementKind::Lru, 48).with_latency(15),
        base.levels[2].clone(),
    ]);
    vec![("hier2", two), ("hier3", three), ("hier4", four)]
}

fn points(scale: &Scale) -> Vec<Point> {
    let mut grid = Vec::new();
    for (tag, cfg) in topologies() {
        let hermes_cfg = cfg
            .clone()
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
        grid.push((format!("{tag}-base"), cfg.clone()));
        grid.push((format!("{tag}-hermesO-popet"), hermes_cfg));
    }
    cross(&grid, &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let mut ipc_rows = Vec::new();
    let mut speedup_rows = Vec::new();
    for (tag, cfg) in topologies() {
        let base_runs = results.suite(&format!("{tag}-base"), &scale.suite);
        let hermes_runs = results.suite(&format!("{tag}-hermesO-popet"), &scale.suite);
        let base_ipc = geomean(&base_runs.iter().map(|(_, r)| r.ipc).collect::<Vec<_>>());
        let hermes_ipc = geomean(&hermes_runs.iter().map(|(_, r)| r.ipc).collect::<Vec<_>>());
        ipc_rows.push((
            tag,
            cfg.levels.len(),
            cfg.hierarchy_latency(),
            base_ipc,
            hermes_ipc,
        ));
        speedup_rows.push((tag.to_string(), speedups(&base_runs, &hermes_runs)));
    }

    let mut t = Table::new(&[
        "topology",
        "levels",
        "onchip latency",
        "geomean IPC",
        "geomean IPC +HermesO",
        "speedup",
    ]);
    for (tag, levels, lat, base, hermes) in &ipc_rows {
        t.row(&[
            tag.to_string(),
            levels.to_string(),
            format!("{lat} cyc"),
            f3(*base),
            f3(*hermes),
            f3(hermes / base),
        ]);
    }
    format!(
        "1-core, {} workloads, {}+{} instructions/core.\n\n{}\n\
         Per-category Hermes-O/POPET speedup by topology:\n\n{}",
        scale.suite.len(),
        scale.warmup,
        scale.instr,
        t.to_markdown(),
        speedup_table(&speedup_rows),
    )
}
