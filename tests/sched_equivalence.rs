//! Cycle-exactness of the calendar-queue scheduler.
//!
//! `SchedulerModel::Calendar` (the default) must simulate the identical
//! trajectory to `SchedulerModel::Tick` — every counter, every probe
//! record, bit-for-bit — on every kind of configuration: single-core,
//! multi-core with MESI coherence (which saturates the L1 MSHRs and
//! exercises the retry queue heavily), address translation on, the
//! out-of-order core model, the probe attached, fast-forward off, and
//! heterogeneous 4-core mixes whose cores sit idle for long spans while
//! others run (the calendar loop counts those spans per core, lazily).
//! The comparison is the full `Debug` rendering of [`RunStats`], the
//! strongest equality the stats expose.

use hermes_repro::hermes::{HermesConfig, PredictorKind};
use hermes_repro::hermes_cache::CoherenceConfig;
use hermes_repro::hermes_cpu::{CoreModel, OooConfig};
use hermes_repro::hermes_probe::ProbeConfig;
use hermes_repro::hermes_sim::{RunStats, SchedulerModel, System, SystemConfig};
use hermes_repro::hermes_trace::{suite, WorkloadSpec};
use hermes_repro::hermes_vm::VmConfig;

/// Runs `cfg` under both scheduler models, asserts bit-identical
/// statistics and returns them.
fn assert_equivalent(
    tag: &str,
    cfg: SystemConfig,
    specs: &[WorkloadSpec],
    warmup: u64,
    sim: u64,
) -> RunStats {
    let tick =
        System::new(cfg.clone().with_scheduler(SchedulerModel::Tick), specs).run(warmup, sim);
    let cal = System::new(cfg.with_scheduler(SchedulerModel::Calendar), specs).run(warmup, sim);
    assert_eq!(
        format!("{tick:?}"),
        format!("{cal:?}"),
        "{tag}: calendar scheduler diverged from tick"
    );
    cal
}

#[test]
fn calendar_matches_tick_single_core() {
    let smoke = suite::smoke_suite();
    for wi in [0, 1, 3] {
        assert_equivalent(
            "1c-baseline",
            SystemConfig::baseline_1c(),
            &smoke[wi..=wi],
            3_000,
            10_000,
        );
        assert_equivalent(
            "1c-popet",
            SystemConfig::baseline_1c().with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
            &smoke[wi..=wi],
            3_000,
            10_000,
        );
    }
}

#[test]
fn calendar_matches_tick_4core_mesi() {
    // Heavy sharing on 4 coherent cores floods the L1 MSHRs: this is
    // the config where the retry queue holds thousands of parked
    // accesses and the epoch fast path does almost all the work.
    let cfg = SystemConfig {
        cores: 4,
        ..SystemConfig::baseline_1c()
    }
    .with_coherence(CoherenceConfig::baseline());
    let specs = suite::sharing_suite(500);
    assert_equivalent("4c-mesi", cfg.clone(), &specs, 1_000, 4_000);
    assert_equivalent(
        "4c-mesi-popet",
        cfg.with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        &specs,
        1_000,
        4_000,
    );
}

#[test]
fn calendar_matches_tick_vm_on() {
    let cfg = SystemConfig::baseline_1c()
        .with_vm(VmConfig::baseline())
        .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
    let specs = suite::tlb_suite();
    assert_equivalent("1c-vm", cfg, &specs[..1], 2_000, 8_000);
}

#[test]
fn calendar_matches_tick_ooo_core() {
    // The baseline dispatches into a full RS most cycles, LQ/SQ 16/8
    // into a full load or store queue, and a 4-entry RS fills behind
    // any load miss: every structural stall the calendar loop skips.
    let ooo = |o: OooConfig| SystemConfig::baseline_1c().with_core_model(CoreModel::OoO(o));
    let configs = [
        ("1c-ooo", ooo(OooConfig::baseline())),
        (
            "1c-ooo-lsq16x8",
            ooo(OooConfig::baseline()).with_lq(16).with_sq(8),
        ),
        (
            "1c-ooo-rs4",
            ooo(OooConfig {
                rs_entries: 4,
                ..OooConfig::baseline()
            }),
        ),
    ];
    let smoke = suite::smoke_suite();
    for (tag, cfg) in configs {
        for wi in [0, 1] {
            assert_equivalent(tag, cfg.clone(), &smoke[wi..=wi], 2_000, 8_000);
        }
    }
}

#[test]
fn calendar_matches_tick_with_probe() {
    // The probe's interval timeline and lifecycle records ride the same
    // trajectory; RunStats embeds the probe report, so this pins the
    // observability layer too.
    let cfg = SystemConfig::baseline_1c()
        .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
        .with_probe(ProbeConfig::default());
    let smoke = suite::smoke_suite();
    assert_equivalent("1c-probe", cfg, &smoke[..1], 2_000, 8_000);
}

#[test]
fn calendar_matches_tick_without_fast_forward() {
    // With fast-forward off the calendar loop steps every cycle but
    // still skips idle components; results must not move.
    let cfg = SystemConfig::baseline_1c().with_fast_forward(false);
    let smoke = suite::smoke_suite();
    assert_equivalent("1c-no-ff", cfg, &smoke[..1], 1_000, 4_000);
}

#[test]
fn calendar_never_stalls_with_work_pending() {
    // Quiescence: a calendar run must terminate with every core at its
    // retirement quota — if the queue ever reported "nothing due" while
    // work was pending, the forward-progress budget inside `run` would
    // trip (or retirement would stall short). Exercise the three
    // stressors at once: coherence, translation, and Hermes.
    let cfg = SystemConfig {
        cores: 2,
        ..SystemConfig::baseline_1c()
    }
    .with_coherence(CoherenceConfig::baseline())
    .with_vm(VmConfig::baseline())
    .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
    .with_scheduler(SchedulerModel::Calendar);
    let specs = suite::sharing_suite(250);
    let stats = System::new(cfg, &specs).run(1_000, 5_000);
    for c in &stats.cores {
        assert_eq!(c.instructions, 5_000, "{} stalled short", c.workload);
    }
    assert!(stats.total_cycles > 0);
}

/// The `mix-4c-vm` benchmark's traces, one per core: `tlb-chase` runs at
/// a small fraction of the others' IPC, so after the fast cores finish
/// their quota most cycles have one busy core and three idle ones whose
/// stall cycles the calendar loop counts in one step per idle span.
fn slow_fast_mix() -> Vec<WorkloadSpec> {
    let pick = |all: Vec<WorkloadSpec>, name: &str| {
        all.into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("suite lost trace {name}"))
    };
    vec![
        pick(suite::tlb_suite(), "tlb-chase"),
        pick(suite::default_suite(), "gcc_s-like"),
        pick(suite::tlb_suite(), "tlb-join"),
        pick(suite::default_suite(), "server-join"),
    ]
}

#[test]
fn calendar_matches_tick_4core_mix_vm_with_probe() {
    // Idle cores' owed stall cycles must be counted before their state
    // is read or reset: at the warmup reset, at the probe's interval
    // snapshots (several fire mid-run here) and at the end of the run.
    let cfg = SystemConfig {
        cores: 4,
        ..SystemConfig::baseline_1c()
    }
    .with_vm(VmConfig::baseline())
    .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
    .with_probe(ProbeConfig::default().with_interval(5_000));
    let stats = assert_equivalent("4c-mix-vm-probe", cfg, &slow_fast_mix(), 1_000, 3_000);
    let intervals = stats.probe.expect("probe on").intervals.len();
    assert!(intervals >= 4, "only {intervals} probe intervals");
}

#[test]
fn calendar_matches_tick_4core_ooo() {
    let cfg = SystemConfig {
        cores: 4,
        ..SystemConfig::baseline_1c()
    }
    .with_core_model(CoreModel::OoO(OooConfig::baseline()));
    assert_equivalent("4c-ooo-mix", cfg, &slow_fast_mix(), 1_000, 3_000);
}

#[test]
fn calendar_matches_tick_4core_mix_fp_stalls() {
    // The legacy core charges an idle span spent waiting on memory to
    // the ROB head's load, which outlives the warmup reset, so the
    // legacy rows above cannot see a catch-up missing at that reset. Here
    // `streamcluster-like` chains its distance terms through one FP
    // accumulator: a core idle at the warmup boundary waits on an
    // operand, and its owed cycles are counted as `stall_cycles_other`
    // in whichever window the catch-up runs.
    let mut mix = slow_fast_mix();
    mix[1] = suite::default_suite()
        .into_iter()
        .find(|s| s.name == "streamcluster-like")
        .expect("suite lost trace streamcluster-like");
    let cfg = SystemConfig {
        cores: 4,
        ..SystemConfig::baseline_1c()
    };
    assert_equivalent("4c-mix-fp", cfg, &mix, 1_000, 3_000);
}
