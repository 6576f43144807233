//! System-level tests for the out-of-order core model (`hermes-ooo`).
//!
//! Four invariants: selecting `CoreModel::Legacy` explicitly is
//! indistinguishable from the default (the pinned goldens in
//! `hier_equivalence.rs` freeze the default itself), the OoO core's own
//! results are pinned bit-for-bit (`GOLDEN_OOO`), idle-cycle
//! fast-forward is invisible in the statistics under `CoreModel::OoO`
//! on both single-core and coherent multi-core systems — including
//! configurations whose dispatch is structurally blocked most cycles —
//! and the OoO model behaves like a real window end-to-end: Hermes
//! still pays off, and deeper ROBs buy measurable memory-level
//! parallelism.

use hermes_repro::hermes::{HermesConfig, PredictorKind};
use hermes_repro::hermes_cache::CoherenceConfig;
use hermes_repro::hermes_cpu::{CoreModel, OooConfig};
use hermes_repro::hermes_sim::{system::run_one, RunStats, SchedulerModel, System, SystemConfig};
use hermes_repro::hermes_trace::suite::{self, Category, GenConfig};
use hermes_repro::hermes_trace::WorkloadSpec;

/// Canonical rendering of every deterministic counter, including the
/// OoO-only ones (zero under the legacy model).
fn digest(r: &RunStats) -> String {
    let mut s = format!("total_cycles={}", r.total_cycles);
    for c in &r.cores {
        s.push_str(&format!(
            ";[{} cyc={} ret={} ld={} st={} br={} bm={} l1={} l2={} llc={} dram={} ob={} onb={} sco={} scl={} sso={} erc={} hreq={} tp={} fp={} fn={} tn={} robsum={} rsfull={} lsqfull={} fwd={} flush={}]",
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
            c.hier.hermes_requests,
            c.pred.tp,
            c.pred.fp,
            c.pred.fn_,
            c.pred.tn,
            c.core.rob_occupancy_sum,
            c.core.rs_full_stalls,
            c.core.lsq_full_stalls,
            c.core.forwarded_loads,
            c.core.flushes,
        ));
    }
    s.push_str(&format!(
        ";dram[rd={} rp={} rh={} w={} hit={} empty={} conf={}]",
        r.dram.reads_demand,
        r.dram.reads_prefetch,
        r.dram.reads_hermes,
        r.dram.writes,
        r.dram.row_hits,
        r.dram.row_empty,
        r.dram.row_conflicts,
    ));
    s
}

fn ooo(cfg: SystemConfig) -> SystemConfig {
    cfg.with_core_model(CoreModel::OoO(OooConfig::baseline()))
}

/// `ooo_sweep`'s store-heavy kernel: every store is reloaded moments
/// later, so loads park behind unknown store addresses and forward.
fn spill_reload() -> WorkloadSpec {
    WorkloadSpec::new(
        "spill-reload",
        Category::Spec17,
        GenConfig::WriteReload { slots: 64, work: 2 },
        11,
    )
}

/// Pinned OoO digests: (LQ size, SQ size, Hermes-O/POPET on, workload,
/// digest) at warmup 3 000 / measure 8 000, captured before the core
/// skipped structurally blocked dispatch cycles and indexed its LSQ, so
/// they show both host-speed changes left every counter in place. At
/// 16/8 dispatch is blocked on a full LQ/SQ partition, at the baseline
/// 128/72 on a full RS, for most cycles of every run.
const GOLDEN_OOO: &[(usize, usize, bool, &str, &str)] = &[
    (16, 8, false, "smoke-pagerank", "total_cycles=142905;[smoke-pagerank cyc=142905 ret=8000 ld=4837 st=496 br=496 bm=0 l1=2576 l2=221 llc=718 dram=1322 ob=1281 onb=41 sco=116484 scl=17237 sso=8687 erc=0 hreq=0 tp=0 fp=0 fn=0 tn=0 robsum=3853451 rsfull=0 lsqfull=142905 fwd=0 flush=0];dram[rd=1299 rp=1013 rh=0 w=0 hit=667 empty=0 conf=1645]"),
    (16, 8, false, "smoke-stream", "total_cycles=13580;[smoke-stream cyc=13580 ret=8000 ld=3200 st=1600 br=1600 bm=0 l1=2600 l2=0 llc=417 dram=183 ob=61 onb=122 sco=6130 scl=5450 sso=830 erc=0 hreq=0 tp=0 fp=0 fn=0 tn=0 robsum=544030 rsfull=0 lsqfull=12480 fwd=0 flush=0];dram[rd=30 rp=273 rh=0 w=0 hit=243 empty=3 conf=57]"),
    (16, 8, false, "spill-reload", "total_cycles=15656;[spill-reload cyc=15656 ret=8000 ld=3429 st=1142 br=1143 bm=0 l1=2857 l2=0 llc=276 dram=296 ob=74 onb=222 sco=8420 scl=5093 sso=1000 erc=0 hreq=0 tp=0 fp=0 fn=0 tn=0 robsum=603161 rsfull=0 lsqfull=15084 fwd=1141 flush=0];dram[rd=73 rp=71 rh=0 w=0 hit=139 empty=2 conf=3]"),
    (16, 8, true, "smoke-pagerank", "total_cycles=136027;[smoke-pagerank cyc=136027 ret=8000 ld=4837 st=496 br=496 bm=0 l1=2576 l2=221 llc=718 dram=1322 ob=1296 onb=26 sco=109600 scl=17243 sso=8687 erc=0 hreq=1891 tp=1290 fp=601 fn=32 tn=2914 robsum=3672840 rsfull=0 lsqfull=136027 fwd=0 flush=0];dram[rd=11 rp=1013 rh=1888 w=0 hit=622 empty=0 conf=2290]"),
    (16, 8, true, "smoke-stream", "total_cycles=12881;[smoke-stream cyc=12881 ret=8000 ld=3200 st=1600 br=1600 bm=0 l1=2600 l2=0 llc=411 dram=189 ob=63 onb=126 sco=5481 scl=5400 sso=831 erc=0 hreq=168 tp=130 fp=38 fn=59 tn=2973 robsum=516071 rsfull=0 lsqfull=11781 fwd=0 flush=0];dram[rd=14 rp=273 rh=18 w=0 hit=244 empty=3 conf=58]"),
    (16, 8, true, "spill-reload", "total_cycles=12108;[spill-reload cyc=12108 ret=8000 ld=3429 st=1142 br=1143 bm=0 l1=2857 l2=0 llc=276 dram=296 ob=74 onb=222 sco=4872 scl=5093 sso=1000 erc=0 hreq=339 tp=288 fp=51 fn=8 tn=1937 robsum=464789 rsfull=0 lsqfull=11536 fwd=1141 flush=0];dram[rd=1 rp=71 rh=98 w=0 hit=165 empty=2 conf=3]"),
    (128, 72, false, "smoke-pagerank", "total_cycles=140831;[smoke-pagerank cyc=140831 ret=8000 ld=4837 st=496 br=496 bm=0 l1=2550 l2=221 llc=742 dram=1324 ob=1290 onb=34 sco=114590 scl=17057 sso=8687 erc=0 hreq=0 tp=0 fp=0 fn=0 tn=0 robsum=16486847 rsfull=140486 lsqfull=0 fwd=0 flush=0];dram[rd=1306 rp=951 rh=0 w=0 hit=620 empty=0 conf=1637]"),
    (128, 72, false, "smoke-stream", "total_cycles=13580;[smoke-stream cyc=13580 ret=8000 ld=3200 st=1600 br=1600 bm=0 l1=2600 l2=0 llc=417 dram=183 ob=61 onb=122 sco=6130 scl=5450 sso=830 erc=0 hreq=0 tp=0 fp=0 fn=0 tn=0 robsum=3438540 rsfull=13580 lsqfull=0 fwd=0 flush=0];dram[rd=30 rp=273 rh=0 w=0 hit=243 empty=3 conf=57]"),
    (128, 72, false, "spill-reload", "total_cycles=15656;[spill-reload cyc=15656 ret=8000 ld=3429 st=1142 br=1143 bm=0 l1=2857 l2=0 llc=276 dram=296 ob=74 onb=222 sco=8420 scl=5093 sso=1000 erc=0 hreq=0 tp=0 fp=0 fn=0 tn=0 robsum=3816881 rsfull=15513 lsqfull=0 fwd=1141 flush=0];dram[rd=73 rp=71 rh=0 w=0 hit=139 empty=2 conf=3]"),
    (128, 72, true, "smoke-pagerank", "total_cycles=133562;[smoke-pagerank cyc=133562 ret=8000 ld=4837 st=496 br=496 bm=0 l1=2550 l2=221 llc=742 dram=1324 ob=1303 onb=21 sco=107315 scl=17063 sso=8687 erc=0 hreq=1875 tp=1298 fp=577 fn=26 tn=2936 robsum=15633507 rsfull=133217 lsqfull=0 fwd=0 flush=0];dram[rd=10 rp=951 rh=1872 w=0 hit=568 empty=0 conf=2265]"),
    (128, 72, true, "smoke-stream", "total_cycles=12881;[smoke-stream cyc=12881 ret=8000 ld=3200 st=1600 br=1600 bm=0 l1=2600 l2=0 llc=411 dram=189 ob=63 onb=126 sco=5481 scl=5400 sso=831 erc=0 hreq=168 tp=130 fp=38 fn=59 tn=2973 robsum=3261602 rsfull=12881 lsqfull=0 fwd=0 flush=0];dram[rd=14 rp=273 rh=18 w=0 hit=244 empty=3 conf=58]"),
    (128, 72, true, "spill-reload", "total_cycles=12108;[spill-reload cyc=12108 ret=8000 ld=3429 st=1142 br=1143 bm=0 l1=2857 l2=0 llc=276 dram=296 ob=74 onb=222 sco=4872 scl=5093 sso=1000 erc=0 hreq=339 tp=288 fp=51 fn=8 tn=1937 robsum=2940525 rsfull=11965 lsqfull=0 fwd=1141 flush=0];dram[rd=1 rp=71 rh=98 w=0 hit=165 empty=2 conf=3]"),
];

#[test]
fn ooo_core_matches_pinned_goldens() {
    let smoke = suite::smoke_suite();
    let specs = [smoke[3].clone(), smoke[1].clone(), spill_reload()];
    for &(lq, sq, hermes, name, golden) in GOLDEN_OOO {
        let spec = specs
            .iter()
            .find(|s| s.name == name)
            .expect("golden names a known workload");
        let mut cfg = ooo(SystemConfig::baseline_1c()).with_lq(lq).with_sq(sq);
        if hermes {
            cfg = cfg.with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
        }
        let r = run_one(cfg, spec, 3_000, 8_000);
        assert_eq!(
            digest(&r),
            golden,
            "OoO LQ/SQ {lq}/{sq} hermes={hermes} diverged on {name}"
        );
    }
}

#[test]
fn explicit_legacy_model_matches_default() {
    let smoke = suite::smoke_suite();
    for spec in [&smoke[0], &smoke[1], &smoke[3]] {
        let implicit = run_one(SystemConfig::baseline_1c(), spec, 3_000, 8_000);
        let explicit = run_one(
            SystemConfig::baseline_1c().with_core_model(CoreModel::Legacy),
            spec,
            3_000,
            8_000,
        );
        assert_eq!(
            digest(&implicit),
            digest(&explicit),
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
        spill_reload(),
    ];
    for (name, cfg) in configs {
        for spec in &specs {
            // The reference ticks every core on every cycle: no span is
            // skipped, not even the calendar loop's one-cycle skips.
            let off = cfg
                .clone()
                .with_scheduler(SchedulerModel::Tick)
                .with_fast_forward(false);
            let off = run_one(off, spec, 3_000, 8_000);
            let on = run_one(cfg.clone().with_fast_forward(true), spec, 3_000, 8_000);
            assert_eq!(
                digest(&off),
                digest(&on),
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
        let off = System::new(cfg(false), &specs).run(2_000, 6_000);
        let on = System::new(cfg(true), &specs).run(2_000, 6_000);
        assert_eq!(
            digest(&off),
            digest(&on),
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
