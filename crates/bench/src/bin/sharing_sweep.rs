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
//! Flags: the usual `--quick` / `--full` / `--record` / `--jobs N`, plus
//! `--smoke` — a CI-scale mode (2 cores, tiny windows, reduced grid)
//! proving nonzero invalidation traffic on every push.

use hermes::{HermesConfig, PredictorKind};
use hermes_bench::{cross, emit, f3, run_grid, speedup_table, speedups, RunLite, Scale, Table};
use hermes_cache::CoherenceConfig;
use hermes_sim::SystemConfig;
use hermes_trace::{suite, WorkloadSpec};
use hermes_types::geomean;

fn main() {
    let mut scale = Scale::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (core_counts, fractions): (&[usize], &[u32]) = if smoke {
        scale.warmup = 2_000;
        scale.instr = 6_000;
        (&[2], &[0, 500])
    } else {
        (&[2, 4], &[0, 250, 500])
    };

    // Every (cores, shared fraction) point's tag and workloads, in table
    // order; the ring is identical at every fraction, so its repeats share
    // one simulation.
    let mut sweep = Vec::new();
    let mut grid = Vec::new();
    for &cores in core_counts {
        for &frac in fractions {
            let specs = suite::sharing_suite(frac);
            let cfg = SystemConfig {
                cores,
                ..SystemConfig::baseline_1c()
            }
            .with_coherence(CoherenceConfig::baseline());
            let hermes_cfg = cfg
                .clone()
                .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
            let tag = format!("share{frac}-{cores}c");
            let configs = [
                (format!("{tag}-base"), cfg),
                (format!("{tag}-hermesO-popet"), hermes_cfg),
            ];
            grid.extend(cross(&configs, &specs));
            sweep.push((cores, frac, tag, specs));
        }
    }
    let results = run_grid(grid, &scale);

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
    for (cores, frac, tag, specs) in sweep {
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

    let body = format!(
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
    );
    emit(
        "sharing_sweep",
        "Hermes under inter-core sharing (MESI coherence, shared fraction x cores)",
        &body,
        &scale,
        &results,
    );
}
