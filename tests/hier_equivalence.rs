//! Equivalence regression tests for the generic N-level hierarchy and
//! idle-cycle fast-forward.
//!
//! The golden digests below were captured from the pre-refactor
//! simulator (hardcoded L1/L2/LLC pipeline, no fast-forward) at fixed
//! seeds and windows. The generic `Vec<CacheLevel>` engine must
//! reproduce every counter bit-for-bit with the default topology, and
//! fast-forward must be invisible in the statistics at any topology —
//! it may only change wall-clock time.

use hermes_repro::hermes::{HermesConfig, PredictorKind};
use hermes_repro::hermes_cache::{CacheConfig, ReplacementKind};
use hermes_repro::hermes_sim::{system::run_one, RunStats, System, SystemConfig};
use hermes_repro::hermes_trace::suite;

/// Canonical rendering of every deterministic counter in a [`RunStats`].
fn digest(r: &RunStats) -> String {
    let mut s = format!("total_cycles={}", r.total_cycles);
    for c in &r.cores {
        s.push_str(&format!(
            ";[{} cyc={} ret={} ld={} st={} br={} bm={} l1={} l2={} llc={} dram={} ob={} onb={} sco={} scl={} sso={} erc={} hacc={} hmiss={} hreq={} pfi={} pfu={} l1a={} l2a={} ols={} oops={} ol={} tp={} fp={} fn={} tn={}]",
            c.workload,
            c.cycles,
            c.instructions,
            c.core.loads,
            c.core.stores,
            c.core.branches,
            c.core.branch_mispredicts,
            c.core.served_l1,
            c.core.served_l2,
            c.core.served_llc,
            c.core.served_dram,
            c.core.offchip_blocking,
            c.core.offchip_nonblocking,
            c.core.stall_cycles_offchip,
            c.core.stall_cycles_onchip_load,
            c.core.stall_cycles_other,
            c.core.empty_rob_cycles,
            c.hier.llc_demand_accesses,
            c.hier.llc_demand_misses,
            c.hier.hermes_requests,
            c.hier.prefetches_issued,
            c.hier.prefetches_useful,
            c.hier.l1_accesses,
            c.hier.l2_accesses,
            c.hier.offchip_latency_sum,
            c.hier.offchip_onchip_portion_sum,
            c.hier.offchip_loads,
            c.pred.tp,
            c.pred.fp,
            c.pred.fn_,
            c.pred.tn,
        ));
    }
    s.push_str(&format!(
        ";dram[rd={} rp={} rh={} w={} hit={} empty={} conf={} merged={} dropped={}]",
        r.dram.reads_demand,
        r.dram.reads_prefetch,
        r.dram.reads_hermes,
        r.dram.writes,
        r.dram.row_hits,
        r.dram.row_empty,
        r.dram.row_conflicts,
        r.dram.demand_merged_into_hermes,
        r.dram.hermes_dropped,
    ));
    s
}

fn config_for(tag: &str) -> SystemConfig {
    match tag {
        "baseline" => SystemConfig::baseline_1c(),
        "hermes-o-popet" => {
            SystemConfig::baseline_1c().with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
        }
        _ => panic!("unknown tag {tag}"),
    }
}

/// Pre-refactor digests: (config tag, smoke-suite workload index, digest)
/// at warmup 5 000 / measure 20 000.
const GOLDEN_1C: &[(&str, usize, &str)] = &[
    ("baseline", 0, "total_cycles=1067034;[smoke-chase cyc=1067034 ret=20000 ld=5000 st=0 br=5000 bm=0 l1=0 l2=0 llc=117 dram=4883 ob=4883 onb=0 sco=1045833 scl=6201 sso=15000 erc=0 hacc=5000 hmiss=4883 hreq=0 pfi=751 pfu=117 l1a=5000 l2a=5000 ols=1055599 oops=268565 ol=4883 tp=0 fp=0 fn=0 tn=0];dram[rd=4883 rp=751 rh=0 w=0 hit=600 empty=0 conf=5034 merged=0 dropped=0]"),
    ("baseline", 1, "total_cycles=22971;[smoke-stream cyc=22971 ret=20000 ld=5364 st=3001 br=5819 bm=0 l1=0 l2=0 llc=89 dram=5275 ob=216 onb=5059 sco=17541 scl=1743 sso=527 erc=0 hacc=935 hmiss=902 hreq=0 pfi=723 pfu=33 l1a=149601 l2a=936 ols=2469856 oops=290235 ol=5277 tp=0 fp=0 fn=0 tn=0];dram[rd=328 rp=723 rh=0 w=0 hit=874 empty=3 conf=174 merged=0 dropped=0]"),
    ("baseline", 3, "total_cycles=52651;[smoke-pagerank cyc=52651 ret=20000 ld=4992 st=2248 br=2248 bm=0 l1=717 l2=161 llc=611 dram=3503 ob=92 onb=3411 sco=10590 scl=0 sso=42061 erc=0 hacc=1961 hmiss=1645 hreq=0 pfi=1311 pfu=316 l1a=74361 l2a=2127 ols=1306786 oops=192610 ol=3502 tp=0 fp=0 fn=0 tn=0];dram[rd=1356 rp=1311 rh=0 w=0 hit=1119 empty=0 conf=1548 merged=0 dropped=0]"),
    ("hermes-o-popet", 0, "total_cycles=821263;[smoke-chase cyc=821263 ret=20000 ld=5000 st=0 br=5000 bm=0 l1=0 l2=0 llc=117 dram=4883 ob=4883 onb=0 sco=800062 scl=6201 sso=15000 erc=0 hacc=5000 hmiss=4883 hreq=5000 pfi=751 pfu=117 l1a=5000 l2a=5000 ols=809828 oops=268565 ol=4883 tp=4883 fp=117 fn=0 tn=0];dram[rd=0 rp=751 rh=5000 w=0 hit=618 empty=0 conf=5133 merged=4883 dropped=117]"),
    ("hermes-o-popet", 1, "total_cycles=22580;[smoke-stream cyc=22580 ret=20000 ld=5720 st=3197 br=5543 bm=0 l1=10 l2=0 llc=332 dram=5378 ob=246 onb=5132 sco=16202 scl=2692 sso=554 erc=0 hacc=892 hmiss=839 hreq=5707 pfi=689 pfu=53 l1a=147522 l2a=888 ols=1978989 oops=294690 ol=5358 tp=5349 fp=342 fn=9 tn=0];dram[rd=87 rp=356 rh=567 w=0 hit=822 empty=3 conf=185 merged=197 dropped=367]"),
    ("hermes-o-popet", 3, "total_cycles=71832;[smoke-pagerank cyc=71832 ret=20000 ld=4994 st=2248 br=2248 bm=0 l1=659 l2=167 llc=432 dram=3736 ob=247 onb=3489 sco=28338 scl=1423 sso=42070 erc=0 hacc=1943 hmiss=1719 hreq=4892 pfi=1247 pfu=224 l1a=120101 l2a=2114 ols=2010898 oops=206085 ol=3747 tp=3746 fp=1170 fn=1 tn=101];dram[rd=103 rp=1154 rh=2058 w=0 hit=879 empty=0 conf=2436 merged=1234 dropped=843]"),
];

/// Pre-refactor digest of a 2-core mix (smoke-chase + smoke-stream,
/// shared LLC contention) at warmup 3 000 / measure 10 000.
const GOLDEN_2C: &str = "total_cycles=1480530;[smoke-chase cyc=1480530 ret=10000 ld=2500 st=0 br=2500 bm=0 l1=0 l2=0 llc=43 dram=2457 ob=2457 onb=0 sco=1470751 scl=2279 sso=7500 erc=0 hacc=2500 hmiss=2457 hreq=0 pfi=1029 pfu=43 l1a=2500 l2a=2500 ols=1475665 oops=135135 ol=2457 tp=0 fp=0 fn=0 tn=0];[smoke-stream cyc=12637 ret=10000 ld=2690 st=1503 br=2904 bm=0 l1=14 l2=0 llc=468 dram=2208 ob=106 onb=2102 sco=10204 scl=648 sso=255 erc=0 hacc=453 hmiss=392 hreq=0 pfi=360 pfu=61 l1a=50251 l2a=456 ols=1215593 oops=122485 ol=2227 tp=0 fp=0 fn=0 tn=0];dram[rd=22076 rp=38219 rh=0 w=920 hit=44559 empty=0 conf=16656 merged=0 dropped=0]";

#[test]
fn generic_hierarchy_matches_pre_refactor_goldens() {
    let smoke = suite::smoke_suite();
    for (tag, wi, golden) in GOLDEN_1C {
        let r = run_one(config_for(tag), &smoke[*wi], 5_000, 20_000);
        assert_eq!(
            digest(&r),
            *golden,
            "{tag}/{} diverged from the pre-refactor simulator",
            smoke[*wi].name
        );
    }
}

#[test]
fn generic_hierarchy_matches_pre_refactor_goldens_2core() {
    let smoke = suite::smoke_suite();
    let cfg = SystemConfig {
        cores: 2,
        ..SystemConfig::baseline_1c()
    };
    let r = System::new(cfg, &smoke[0..2]).run(3_000, 10_000);
    assert_eq!(digest(&r), GOLDEN_2C, "2-core mix diverged");
}

/// A small 2-level topology: private L1 straight to a shared LLC.
fn two_level() -> SystemConfig {
    SystemConfig::baseline_1c().with_levels(vec![
        CacheConfig::new("L1D", 48 * 1024, 12, ReplacementKind::Lru, 16).with_latency(5),
        CacheConfig::new("LLC", 2 << 20, 16, ReplacementKind::Ship, 64).with_latency(35),
    ])
}

/// A 4-level topology: L1/L2, a private L3, and a shared LLC.
fn four_level() -> SystemConfig {
    let base = SystemConfig::baseline_1c();
    SystemConfig::baseline_1c().with_levels(vec![
        base.levels[0].clone(),
        base.levels[1].clone(),
        CacheConfig::new("L3", 2 << 20, 16, ReplacementKind::Lru, 48).with_latency(15),
        base.levels[2].clone(),
    ])
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
            let off = run_one(cfg.clone().with_fast_forward(false), spec, 3_000, 8_000);
            let on = run_one(cfg.clone().with_fast_forward(true), spec, 3_000, 8_000);
            assert_eq!(
                digest(&off),
                digest(&on),
                "fast-forward changed results for {name}/{}",
                spec.name
            );
        }
    }
}

/// The vm counters, appended to [`digest`] when comparing vm-enabled
/// runs (the pinned goldens predate the vm subsystem, so the base digest
/// format must stay frozen).
fn vm_digest(r: &RunStats) -> String {
    let mut s = digest(r);
    for c in &r.cores {
        s.push_str(&format!(
            ";vm[da={} dm={} sm={} w={} wc={} wa={} pwc={}]",
            c.hier.dtlb_accesses,
            c.hier.dtlb_misses,
            c.hier.stlb_misses,
            c.hier.walks_completed,
            c.hier.walk_cycles_sum,
            c.hier.walk_mem_accesses,
            c.hier.pwc_levels_skipped,
        ));
    }
    s
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
            let off = run_one(cfg.clone().with_fast_forward(false), spec, 3_000, 8_000);
            let on = run_one(cfg.clone().with_fast_forward(true), spec, 3_000, 8_000);
            assert_eq!(
                vm_digest(&off),
                vm_digest(&on),
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
    let off = System::new(cfg(false), &smoke[0..2]).run(2_000, 6_000);
    let on = System::new(cfg(true), &smoke[0..2]).run(2_000, 6_000);
    assert_eq!(vm_digest(&off), vm_digest(&on));
    // The shared walker path actually ran on both cores.
    for c in &off.cores {
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
    let off = System::new(cfg(false), &smoke[0..2]).run(2_000, 6_000);
    let on = System::new(cfg(true), &smoke[0..2]).run(2_000, 6_000);
    assert_eq!(digest(&off), digest(&on));
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
