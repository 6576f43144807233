//! Equivalence tests for the generic N-level hierarchy and idle-cycle
//! fast-forward.
//!
//! Fast-forward must be invisible in the statistics at any topology,
//! with address translation on, and on several cores: it may only
//! change wall-clock time. Each check compares [`common::digest`], every
//! counter the run reports. The default topology's absolute results are
//! rows of the golden table ([`common::golden::GOLDEN`]).

mod common;

use common::{four_level, golden, two_level};
use hermes_repro::hermes::{HermesConfig, PredictorKind};
use hermes_repro::hermes_sim::{system::run_one, SystemConfig};
use hermes_repro::hermes_trace::suite;

/// The default three-level hierarchy, Pythia with and without Hermes-O
/// (POPET), on each smoke trace at warmup 5 000 / measure 20 000.
#[test]
fn generic_hierarchy_matches_pre_refactor_goldens() {
    golden::check(golden::pre_refactor_1core);
}

/// A 2-core mix (smoke-chase + smoke-stream, shared LLC contention) at
/// warmup 3 000 / measure 10 000.
#[test]
fn generic_hierarchy_matches_pre_refactor_goldens_2core() {
    golden::check(golden::pre_refactor_2core);
}

#[test]
fn fast_forward_is_cycle_exact_across_topologies() {
    let smoke = suite::smoke_suite();
    let configs: Vec<(&str, SystemConfig)> = vec![
        ("default-3l", SystemConfig::baseline_1c()),
        (
            "default-3l+hermes",
            SystemConfig::baseline_1c().with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
        ("2-level", two_level()),
        ("4-level", four_level()),
    ];
    for (name, cfg) in configs {
        for spec in [&smoke[0], &smoke[1]] {
            let one = std::slice::from_ref(spec);
            let (off, _) = common::run(cfg.clone().with_fast_forward(false), one, 3_000, 8_000);
            let (on, _) = common::run(cfg.clone().with_fast_forward(true), one, 3_000, 8_000);
            assert_eq!(
                off, on,
                "fast-forward changed results for {name}/{}",
                spec.name
            );
        }
    }
}

#[test]
fn fast_forward_is_cycle_exact_with_vm() {
    use hermes_repro::hermes_vm::{TlbConfig, VmConfig};
    let smoke = suite::smoke_suite();
    let vm = VmConfig::baseline().with_dtlb(TlbConfig::new(16, 4, 0));
    let configs: Vec<(&str, SystemConfig)> = vec![
        ("vm", SystemConfig::baseline_1c().with_vm(vm.clone())),
        (
            "vm+hermes",
            SystemConfig::baseline_1c()
                .with_vm(vm.clone().with_huge_page_pm(500))
                .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
    ];
    for (name, cfg) in configs {
        for spec in [&smoke[0], &smoke[1]] {
            let one = std::slice::from_ref(spec);
            let (off, _) = common::run(cfg.clone().with_fast_forward(false), one, 3_000, 8_000);
            let (on, _) = common::run(cfg.clone().with_fast_forward(true), one, 3_000, 8_000);
            assert_eq!(
                off, on,
                "fast-forward changed vm-enabled results for {name}/{}",
                spec.name
            );
        }
    }
}

#[test]
fn vm_multicore_shared_stlb_is_fast_forward_exact() {
    use hermes_repro::hermes_vm::{TlbConfig, VmConfig};
    let smoke = suite::smoke_suite();
    let cfg = |ff| SystemConfig {
        cores: 2,
        ..SystemConfig::baseline_1c()
            .with_vm(
                VmConfig::baseline()
                    .with_dtlb(TlbConfig::new(16, 4, 0))
                    .with_shared_stlb(true),
            )
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
            .with_fast_forward(ff)
    };
    let (off, stats) = common::run(cfg(false), &smoke[0..2], 2_000, 6_000);
    let (on, _) = common::run(cfg(true), &smoke[0..2], 2_000, 6_000);
    assert_eq!(off, on);
    // The shared walker path actually ran on both cores.
    for c in &stats.cores {
        assert!(
            c.hier.dtlb_accesses > 0,
            "{} never consulted the dTLB",
            c.workload
        );
    }
}

#[test]
fn fast_forward_is_cycle_exact_multicore() {
    let smoke = suite::smoke_suite();
    let cfg = |ff| SystemConfig {
        cores: 2,
        ..SystemConfig::baseline_1c()
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
            .with_fast_forward(ff)
    };
    let (off, _) = common::run(cfg(false), &smoke[0..2], 2_000, 6_000);
    let (on, _) = common::run(cfg(true), &smoke[0..2], 2_000, 6_000);
    assert_eq!(off, on);
}

#[test]
fn deeper_hierarchies_run_end_to_end() {
    // 2- and 4-level topologies complete the window, classify off-chip
    // loads sanely, and report the right on-chip latency to Hermes.
    let smoke = suite::smoke_suite();
    for (cfg, levels, latency) in [(two_level(), 2, 40), (four_level(), 4, 70)] {
        assert_eq!(cfg.levels.len(), levels);
        assert_eq!(cfg.hierarchy_latency(), latency);
        let r = run_one(cfg, &smoke[0], 2_000, 8_000);
        assert_eq!(r.cores[0].instructions, 8_000);
        assert!(
            r.cores[0].core.served_dram > 0,
            "{levels}-level chase must go off-chip"
        );
        assert!(r.dram.reads_demand > 0);
    }
}
