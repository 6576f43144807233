//! Format goldens for the `RunLite` record: the exact `key=value` cache
//! text and the manifest `"stats"` object of one fixed record.
//!
//! Cache entries written by an older build are reused as long as the
//! schema version is unchanged, so the field order and number formatting
//! of both encodings must never drift silently. A deliberate change to
//! the record (a stat added, removed or renamed) updates these goldens.

use std::time::Duration;

use hermes_exec::{Manifest, ManifestEntry, Provenance, RunLite};

/// Every field distinct and non-zero where possible, with values chosen
/// to exercise `f64` formatting: repeating fractions, integers, a large
/// and a tiny magnitude.
fn fixed_record() -> RunLite {
    RunLite {
        ipc: 1.0 / 3.0,
        llc_mpki: 7.5,
        offchip_rate: 0.1,
        accuracy: 0.77,
        coverage: 2.0 / 3.0,
        mm_requests: 1000.0,
        stall_offchip: 1e21,
        blocking: 30.0,
        nonblocking: 0.0,
        stalls_per_offchip: 1e-7,
        onchip_portion: 60.125,
        offchip_latency: 70.0,
        energy: 123456789.5,
        energy_bus: 90.0,
        energy_caches: 100.0,
        energy_meta: 1.5e-3,
        dtlb_mpki: 3.5,
        stlb_mpki: 1.25,
        walk_cycles: 42.0,
        coh_upgrades: 7.0,
        coh_invalidations: 11.0,
        coh_dirty_forwards: 2.5,
        spec_reads_useful: 9.0,
        spec_reads_wasted: 4.0,
        pred_tp: 600.0,
        pred_fp: 20.0,
        pred_fn: 30.0,
        pred_tn: 9000.0,
        rq_occ_mean: 3.25,
        rq_occ_p95: 12.0,
        wq_occ_p95: 5.0,
        dram_qdelay_p95: 127.0,
        offchip_lat_p50: 255.0,
        offchip_lat_p95: 511.0,
        offchip_lat_p99: 1023.0,
        llc_hit_lat_p50: 63.0,
        walk_lat_p95: 127.0,
        rob_occ_mean: 210.5,
        rs_full_stalls: 33.0,
        lsq_full_stalls: 17.0,
        forwarded_loads: 450.0,
        flushes: 12.0,
        cycles: 123.0,
    }
}

const KV_GOLDEN: &str = "\
ipc=0.3333333333333333
llc_mpki=7.5
offchip_rate=0.1
accuracy=0.77
coverage=0.6666666666666666
mm_requests=1000
stall_offchip=1000000000000000000000
blocking=30
nonblocking=0
stalls_per_offchip=0.0000001
onchip_portion=60.125
offchip_latency=70
energy=123456789.5
energy_bus=90
energy_caches=100
energy_meta=0.0015
dtlb_mpki=3.5
stlb_mpki=1.25
walk_cycles=42
coh_upgrades=7
coh_invalidations=11
coh_dirty_forwards=2.5
spec_reads_useful=9
spec_reads_wasted=4
pred_tp=600
pred_fp=20
pred_fn=30
pred_tn=9000
rq_occ_mean=3.25
rq_occ_p95=12
wq_occ_p95=5
dram_qdelay_p95=127
offchip_lat_p50=255
offchip_lat_p95=511
offchip_lat_p99=1023
llc_hit_lat_p50=63
walk_lat_p95=127
rob_occ_mean=210.5
rs_full_stalls=33
lsq_full_stalls=17
forwarded_loads=450
flushes=12
cycles=123
";

const STATS_GOLDEN: &str = "{\
    \"ipc\": 0.3333333333333333, \
    \"llc_mpki\": 7.5, \
    \"offchip_rate\": 0.1, \
    \"accuracy\": 0.77, \
    \"coverage\": 0.6666666666666666, \
    \"mm_requests\": 1000, \
    \"stall_offchip\": 1000000000000000000000, \
    \"blocking\": 30, \
    \"nonblocking\": 0, \
    \"stalls_per_offchip\": 0.0000001, \
    \"onchip_portion\": 60.125, \
    \"offchip_latency\": 70, \
    \"energy\": 123456789.5, \
    \"energy_bus\": 90, \
    \"energy_caches\": 100, \
    \"energy_meta\": 0.0015, \
    \"dtlb_mpki\": 3.5, \
    \"stlb_mpki\": 1.25, \
    \"walk_cycles\": 42, \
    \"coh_upgrades\": 7, \
    \"coh_invalidations\": 11, \
    \"coh_dirty_forwards\": 2.5, \
    \"spec_reads_useful\": 9, \
    \"spec_reads_wasted\": 4, \
    \"pred_tp\": 600, \
    \"pred_fp\": 20, \
    \"pred_fn\": 30, \
    \"pred_tn\": 9000, \
    \"rq_occ_mean\": 3.25, \
    \"rq_occ_p95\": 12, \
    \"wq_occ_p95\": 5, \
    \"dram_qdelay_p95\": 127, \
    \"offchip_lat_p50\": 255, \
    \"offchip_lat_p95\": 511, \
    \"offchip_lat_p99\": 1023, \
    \"llc_hit_lat_p50\": 63, \
    \"walk_lat_p95\": 127, \
    \"rob_occ_mean\": 210.5, \
    \"rs_full_stalls\": 33, \
    \"lsq_full_stalls\": 17, \
    \"forwarded_loads\": 450, \
    \"flushes\": 12, \
    \"cycles\": 123}";

#[test]
fn kv_text_is_pinned() {
    assert_eq!(fixed_record().to_kv(), KV_GOLDEN);
    assert_eq!(RunLite::from_kv(KV_GOLDEN), Some(fixed_record()));
}

#[test]
fn manifest_stats_object_is_pinned() {
    let m = Manifest {
        experiment: "golden".into(),
        jobs: 1,
        wall: Duration::ZERO,
        entries: vec![ManifestEntry {
            key: "k".into(),
            tag: "t".into(),
            workload: "w".into(),
            provenance: Provenance::Cache,
            wall: Duration::ZERO,
            stats: fixed_record(),
        }],
        deduped: 0,
    };
    let json = m.to_json();
    let start = json.find("\"stats\": ").expect("stats object") + "\"stats\": ".len();
    let end = start + json[start..].find('}').expect("stats object end") + 1;
    assert_eq!(&json[start..end], STATS_GOLDEN);
}

#[test]
fn kv_rejects_a_repeated_field() {
    // Same line count as a valid record: `ipc` twice, `flushes` missing.
    let dup = KV_GOLDEN.replace("flushes=12\n", "ipc=0.5\n");
    assert_eq!(dup.lines().count(), KV_GOLDEN.lines().count());
    assert!(RunLite::from_kv(&dup).is_none());
    // A repeat that restates the same value is still a corrupt entry.
    let same = KV_GOLDEN.replace("flushes=12\n", "cycles=123\n");
    assert!(RunLite::from_kv(&same).is_none());
}
