//! System-level tests for the out-of-order core model (`hermes-ooo`).
//!
//! Three invariants: selecting `CoreModel::Legacy` explicitly is
//! indistinguishable from the default, idle-cycle fast-forward is
//! invisible in the statistics under `CoreModel::OoO` on both
//! single-core and coherent multi-core systems — including
//! configurations whose dispatch is structurally blocked most cycles —
//! and the OoO model behaves like a real window end-to-end: Hermes
//! still pays off, and deeper ROBs buy measurable memory-level
//! parallelism. The equivalences compare [`common::digest`], every
//! counter the run reports; the absolute results of both core models
//! are rows of the golden table ([`common::golden::GOLDEN`]).

mod common;

use common::golden;
use hermes_repro::hermes::{HermesConfig, PredictorKind};
use hermes_repro::hermes_cache::CoherenceConfig;
use hermes_repro::hermes_cpu::{CoreModel, OooConfig};
use hermes_repro::hermes_sim::{system::run_one, SchedulerModel, SystemConfig};
use hermes_repro::hermes_trace::suite;

fn ooo(cfg: SystemConfig) -> SystemConfig {
    cfg.with_core_model(CoreModel::OoO(OooConfig::baseline()))
}

/// The OoO core at the baseline 128/72 LQ/SQ (dispatch blocked on a
/// full RS most cycles) and at 16/8 (blocked on a full LQ/SQ), with and
/// without Hermes-O (POPET), on smoke-pagerank, smoke-stream and
/// spill-reload at warmup 3 000 / measure 8 000.
#[test]
fn ooo_core_matches_pinned_goldens() {
    golden::check(golden::ooo_core);
}

#[test]
fn explicit_legacy_model_matches_default() {
    let smoke = suite::smoke_suite();
    for spec in [&smoke[0], &smoke[1], &smoke[3]] {
        let one = std::slice::from_ref(spec);
        let (implicit, _) = common::run(SystemConfig::baseline_1c(), one, 3_000, 8_000);
        let explicit = SystemConfig::baseline_1c().with_core_model(CoreModel::Legacy);
        let (explicit, _) = common::run(explicit, one, 3_000, 8_000);
        assert_eq!(
            implicit, explicit,
            "explicit CoreModel::Legacy diverged from the default on {}",
            spec.name
        );
    }
}

#[test]
fn fast_forward_is_cycle_exact_under_ooo() {
    let smoke = suite::smoke_suite();
    let configs: Vec<(&str, SystemConfig)> = vec![
        ("ooo-base", ooo(SystemConfig::baseline_1c())),
        (
            "ooo+hermes",
            ooo(SystemConfig::baseline_1c())
                .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
        (
            "ooo-lsq16x8",
            ooo(SystemConfig::baseline_1c()).with_lq(16).with_sq(8),
        ),
        (
            "ooo-rs4",
            SystemConfig::baseline_1c().with_core_model(CoreModel::OoO(OooConfig {
                rs_entries: 4,
                ..OooConfig::baseline()
            })),
        ),
    ];
    let specs = [
        smoke[0].clone(),
        smoke[1].clone(),
        smoke[3].clone(),
        common::spill_reload(),
    ];
    for (name, cfg) in configs {
        for spec in &specs {
            // The reference ticks every core on every cycle: no span is
            // skipped, not even the calendar loop's one-cycle skips.
            let off = cfg
                .clone()
                .with_scheduler(SchedulerModel::Tick)
                .with_fast_forward(false);
            let one = std::slice::from_ref(spec);
            let (off, _) = common::run(off, one, 3_000, 8_000);
            let (on, _) = common::run(cfg.clone().with_fast_forward(true), one, 3_000, 8_000);
            assert_eq!(
                off, on,
                "fast-forward changed OoO results for {name}/{}",
                spec.name
            );
        }
    }
}

#[test]
fn fast_forward_is_cycle_exact_under_ooo_multicore_coherent() {
    let specs = suite::sharing_suite(500);
    for cores in [1usize, 4] {
        let cfg = |ff| {
            ooo(SystemConfig {
                cores,
                ..SystemConfig::baseline_1c()
            })
            .with_coherence(CoherenceConfig::baseline())
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
            .with_fast_forward(ff)
        };
        let (off, _) = common::run(cfg(false), &specs, 2_000, 6_000);
        let (on, _) = common::run(cfg(true), &specs, 2_000, 6_000);
        assert_eq!(
            off, on,
            "fast-forward changed coherent OoO results on {cores} cores"
        );
    }
}

#[test]
fn ooo_counters_populated_only_under_ooo() {
    let smoke = suite::smoke_suite();
    let legacy = run_one(SystemConfig::baseline_1c(), &smoke[1], 2_000, 6_000);
    let o = run_one(ooo(SystemConfig::baseline_1c()), &smoke[1], 2_000, 6_000);
    let lc = &legacy.cores[0].core;
    let oc = &o.cores[0].core;
    assert_eq!(
        lc.rob_occupancy_sum + lc.rs_full_stalls + lc.lsq_full_stalls + lc.forwarded_loads,
        0,
        "legacy model must never touch the OoO counters"
    );
    assert!(oc.rob_occupancy_sum > 0, "OoO run sampled no ROB occupancy");
    assert_eq!(o.cores[0].instructions, 6_000);
}

#[test]
fn ideal_hermes_speeds_up_chase_under_ooo() {
    // The headline claim survives the real window: firing the DRAM read
    // at dispatch still shortens the pointer chase when loads occupy
    // actual ROB/LSQ slots while in flight.
    let smoke = suite::smoke_suite();
    let base = run_one(ooo(SystemConfig::baseline_1c()), &smoke[0], 3_000, 8_000);
    let ideal = run_one(
        ooo(SystemConfig::baseline_1c()).with_hermes(HermesConfig::hermes_o(PredictorKind::Ideal)),
        &smoke[0],
        3_000,
        8_000,
    );
    assert!(
        ideal.total_cycles < base.total_cycles,
        "Ideal Hermes did not speed up smoke-chase under OoO: {} !< {}",
        ideal.total_cycles,
        base.total_cycles
    );
}

#[test]
fn deeper_rob_buys_mlp_under_ooo() {
    // pagerank has abundant independent loads; a 32-entry window cannot
    // keep enough of them in flight, a 512-entry window can. The legacy
    // model could not express this distinction at all.
    let smoke = suite::smoke_suite();
    let run_rob = |rob| {
        run_one(
            ooo(SystemConfig::baseline_1c().with_rob(rob)),
            &smoke[3],
            3_000,
            8_000,
        )
        .total_cycles
    };
    let (small, big) = (run_rob(32), run_rob(512));
    assert!(
        big < small,
        "512-entry ROB not faster than 32-entry on pagerank: {big} !< {small}"
    );
}
