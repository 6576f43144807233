//! Absolute goldens for the runs `hier_equivalence`'s digests do not
//! cover: address translation with page walks through the caches, a
//! shared STLB, and MESI coherence on four cores.
//!
//! `hier_equivalence` pins vm-off runs absolutely, but vm and coherent
//! runs are otherwise only checked relationally (probe on/off,
//! fast-forward on/off, calendar/tick), which a change shared by both
//! sides of the comparison would slip past. The digests below fix every
//! walk, STLB, page-walk-cache and coherence counter plus each cache
//! level's aggregate statistics, so a refactor of the first-level
//! request path (where walker reads, loads and stores meet the MSHRs and
//! the retry queue) must reproduce them bit for bit.

use hermes_repro::hermes::{HermesConfig, PredictorKind};
use hermes_repro::hermes_cache::CoherenceConfig;
use hermes_repro::hermes_sim::{RunStats, System, SystemConfig};
use hermes_repro::hermes_trace::{suite, WorkloadSpec};
use hermes_repro::hermes_vm::{TlbConfig, VmConfig};

/// Canonical rendering of the per-core pipeline, hierarchy, vm and
/// coherence counters, the DRAM traffic, and every level's statistics.
fn digest(sys: &System, r: &RunStats) -> String {
    let mut s = format!("total_cycles={}", r.total_cycles);
    for c in &r.cores {
        let h = &c.hier;
        s.push_str(&format!(
            ";[{} cyc={} ret={} ld={} st={} l1={} l2={} llc={} dram={} l1a={} l2a={} hacc={} hmiss={} hreq={} ols={} ol={} \
             vm(da={} dm={} sm={} w={} wc={} wa={} pwc={}) \
             coh(up={} inv={} fwd={} back={}) spec(u={} w={}) pred(tp={} fp={} fn={} tn={})]",
            c.workload,
            c.cycles,
            c.instructions,
            c.core.loads,
            c.core.stores,
            c.core.served_l1,
            c.core.served_l2,
            c.core.served_llc,
            c.core.served_dram,
            h.l1_accesses,
            h.l2_accesses,
            h.llc_demand_accesses,
            h.llc_demand_misses,
            h.hermes_requests,
            h.offchip_latency_sum,
            h.offchip_loads,
            h.dtlb_accesses,
            h.dtlb_misses,
            h.stlb_misses,
            h.walks_completed,
            h.walk_cycles_sum,
            h.walk_mem_accesses,
            h.pwc_levels_skipped,
            h.coh_upgrades,
            h.coh_invalidations,
            h.coh_dirty_forwards,
            h.coh_back_invalidations,
            h.spec_reads_useful,
            h.spec_reads_wasted,
            c.pred.tp,
            c.pred.fp,
            c.pred.fn_,
            c.pred.tn,
        ));
    }
    s.push_str(&format!(
        ";dram[rd={} rp={} rh={} w={} merged={} dropped={}]",
        r.dram.reads_demand,
        r.dram.reads_prefetch,
        r.dram.reads_hermes,
        r.dram.writes,
        r.dram.demand_merged_into_hermes,
        r.dram.hermes_dropped,
    ));
    for (name, l) in sys.hierarchy().level_stats() {
        s.push_str(&format!(
            ";{name}[a={} h={} m={} f={} de={} rej={} inv={}]",
            l.accesses,
            l.hits,
            l.misses,
            l.fills,
            l.dirty_evictions,
            l.mshr_rejections,
            l.invalidations,
        ));
    }
    s
}

fn run(cfg: SystemConfig, specs: &[WorkloadSpec], warmup: u64, sim: u64) -> String {
    let mut sys = System::new(cfg, specs);
    let r = sys.run(warmup, sim);
    digest(&sys, &r)
}

/// One core, 4 KB pages, an 8-entry dTLB and a 32-entry STLB on the
/// graph workload: its misses keep the 16 L1 MSHRs full while it walks,
/// so walker reads park in the retry queue beside demand loads and
/// stores.
const GOLDEN_VM_1C: &str = "total_cycles=24766;[smoke-pagerank cyc=24766 ret=8000 ld=2048 st=919 l1=325 l2=18 llc=206 dram=1499 l1a=60322 l2a=871 hacc=854 hmiss=776 hreq=0 ols=723555 ol=1498 vm(da=2958 dm=1271 sm=785 w=459 wc=58195 wa=4389 pwc=1383) coh(up=0 inv=0 fwd=0 back=0) spec(u=0 w=0) pred(tp=0 fp=0 fn=0 tn=0)];dram[rd=733 rp=642 rh=0 w=0 merged=0 dropped=0];L1D[a=64711 h=807 m=63904 f=998 de=57 rej=61293 inv=0];L2[a=984 h=52 m=932 f=946 de=0 rej=0 inv=0];LLC[a=933 h=78 m=855 f=1394 de=0 rej=0 inv=0]";

/// Two cores sharing one STLB, Hermes-O/POPET on.
const GOLDEN_VM_SHARED_STLB_2C: &str = "total_cycles=1123335;[smoke-chase cyc=1123335 ret=6000 ld=1500 st=0 l1=0 l2=0 llc=20 dram=1480 l1a=1500 l2a=1500 hacc=1500 hmiss=1480 hreq=1500 ols=1120575 ol=1480 vm(da=1500 dm=1473 sm=480 w=481 wc=291624 wa=481 pwc=1440) coh(up=0 inv=0 fwd=0 back=0) spec(u=1480 w=20) pred(tp=1480 fp=20 fn=0 tn=0)];[smoke-stream cyc=12297 ret=6000 ld=1653 st=925 l1=3 l2=0 llc=50 dram=1600 l1a=120004 l2a=246 hacc=252 hmiss=220 hreq=1650 ols=1273476 ol=1600 vm(da=2578 dm=372 sm=372 w=4 wc=3174 wa=21 pwc=12) coh(up=0 inv=0 fwd=0 back=0) spec(u=1600 w=65) pred(tp=1600 fp=65 fn=0 tn=0)];dram[rd=7191 rp=22846 rh=18888 w=204 merged=10671 dropped=8219];L1D[a=4607971 h=2633 m=4605338 f=38276 de=11980 rej=4240924 inv=0];L2[a=38285 h=1 m=38284 f=38275 de=10129 rej=0 inv=0];LLC[a=38289 h=10712 m=27577 f=44525 de=204 rej=0 inv=0]";

/// Four cores on the sharing suite (producer/consumer ring and a shared
/// hot set) with MESI coherence and Hermes-O/POPET.
const GOLDEN_MESI_4C: &str = "total_cycles=40476;[pc-ring cyc=6752 ret=6000 ld=1126 st=750 l1=1126 l2=0 llc=0 dram=0 l1a=864072 l2a=109 hacc=110 hmiss=57 hreq=0 ols=0 ol=0 vm(da=0 dm=0 sm=0 w=0 wc=0 wa=0 pwc=0) coh(up=0 inv=53 fwd=53 back=0) spec(u=0 w=0) pred(tp=0 fp=0 fn=0 tn=1126)];[shared-hot-500 cyc=40476 ret=6000 ld=1499 st=66 l1=1075 l2=1 llc=45 dram=378 l1a=101451 l2a=459 hacc=461 hmiss=390 hreq=496 ols=827369 ol=354 vm(da=0 dm=0 sm=0 w=0 wc=0 wa=0 pwc=0) coh(up=1 inv=17 fwd=16 back=0) spec(u=354 w=128) pred(tp=354 fp=128 fn=0 tn=1092)];[pc-ring cyc=6752 ret=6000 ld=1126 st=751 l1=1126 l2=0 llc=0 dram=0 l1a=922287 l2a=57 hacc=57 hmiss=57 hreq=0 ols=0 ol=0 vm(da=0 dm=0 sm=0 w=0 wc=0 wa=0 pwc=0) coh(up=0 inv=0 fwd=0 back=0) spec(u=0 w=0) pred(tp=0 fp=0 fn=0 tn=1126)];[shared-hot-500 cyc=40425 ret=6000 ld=1505 st=70 l1=1090 l2=0 llc=46 dram=369 l1a=97728 l2a=455 hacc=452 hmiss=395 hreq=468 ols=811440 ol=346 vm(da=0 dm=0 sm=0 w=0 wc=0 wa=0 pwc=0) coh(up=4 inv=12 fwd=11 back=0) spec(u=346 w=104) pred(tp=346 fp=104 fn=0 tn=1087)];dram[rd=922 rp=1002 rh=966 w=0 merged=564 dropped=380];L1D[a=45128101 h=15847 m=45112254 f=1800 de=149 rej=45110436 inv=168];L2[a=1816 h=2 m=1814 f=1798 de=0 rej=0 inv=168];LLC[a=1816 h=300 m=1516 f=2447 de=0 rej=0 inv=0]";

#[test]
fn vm_tiny_tlbs_walks_through_full_l1_mshrs() {
    let smoke = suite::smoke_suite();
    let cfg = SystemConfig::baseline_1c().with_vm(
        VmConfig::baseline()
            .with_dtlb(TlbConfig::new(8, 2, 0))
            .with_stlb(TlbConfig::new(32, 4, 8)),
    );
    let pagerank = smoke.iter().find(|s| s.name == "smoke-pagerank").unwrap();
    let d = run(cfg, std::slice::from_ref(pagerank), 2_000, 8_000);
    assert_eq!(d, GOLDEN_VM_1C, "1-core vm run diverged");
}

#[test]
fn vm_shared_stlb_two_cores() {
    let smoke = suite::smoke_suite();
    let cfg = SystemConfig {
        cores: 2,
        ..SystemConfig::baseline_1c()
            .with_vm(
                VmConfig::baseline()
                    .with_dtlb(TlbConfig::new(16, 4, 0))
                    .with_shared_stlb(true),
            )
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
    };
    let d = run(cfg, &smoke[0..2], 2_000, 6_000);
    assert_eq!(
        d, GOLDEN_VM_SHARED_STLB_2C,
        "2-core shared-STLB run diverged"
    );
}

#[test]
fn mesi_four_cores_on_the_sharing_suite() {
    let cfg = SystemConfig {
        cores: 4,
        ..SystemConfig::baseline_1c()
            .with_coherence(CoherenceConfig::baseline())
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
    };
    let d = run(cfg, &suite::sharing_suite(500), 2_000, 6_000);
    assert_eq!(d, GOLDEN_MESI_4C, "4-core MESI run diverged");
}
