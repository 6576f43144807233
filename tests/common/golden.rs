//! The one table of absolute goldens, shared by the tests that check it.
//!
//! Each row names a configuration, the workloads of its cores, the core
//! count, the warmup and measured instructions per core, and the
//! [`fnv1a`] hash of the run's [`super::digest`], which renders every counter
//! the run reports. `hier_golden.rs`, `hier_equivalence.rs` and `ooo.rs`
//! check the rows of the runs they pinned before the table existed, each
//! test through one of the [`NAMED`] selectors; `golden.rs` checks every
//! other row, so one `cargo test` runs each row once. A failure lists
//! each moved row with its new hash and its readable digest.
//!
//! To re-pin on purpose: run `cargo test --no-fail-fast --test golden
//! --test hier_golden --test hier_equivalence --test ooo`, check that
//! the moved rows (and only they) are the ones the change should move,
//! and paste each printed `now` hash over that row's pinned one here.

use hermes_repro::hermes::{HermesConfig, PredictorKind};
use hermes_repro::hermes_cache::CoherenceConfig;
use hermes_repro::hermes_cpu::{CoreModel, OooConfig};
use hermes_repro::hermes_prefetch::PrefetcherKind;
use hermes_repro::hermes_sim::SystemConfig;
use hermes_repro::hermes_trace::{suite, WorkloadSpec};
use hermes_repro::hermes_vm::{TlbConfig, VmConfig};

use super::{fnv1a, four_level, run, spill_reload, two_level};

/// (config, workloads, cores, warmup, sim, digest). `config` is a base
/// configuration, optionally `+popet` or `+ideal` for Hermes-O with that
/// predictor (see [`config`]); a core count above the workload count
/// repeats the workloads.
pub type Row = (&'static str, &'static [&'static str], usize, u64, u64, u64);

#[rustfmt::skip]
pub const GOLDEN: &[Row] = &[
    // Address translation with page walks through full L1 MSHRs, a
    // shared STLB, and MESI coherence on the sharing suite.
    ("vm-tiny-tlbs", &["smoke-pagerank"], 1, 2_000, 8_000, 0xe47662c2c8b50337),
    ("vm-shared-stlb+popet", &["smoke-chase", "smoke-stream"], 2, 2_000, 6_000, 0xd3f88555309c12f6),
    ("mesi+popet", &["pc-ring", "shared-hot-500"], 4, 2_000, 6_000, 0xa990cff7eea3339b),
    // The 2- and 4-level topologies on two cores, and the DRAM's
    // dedicated write queue (920 writes, 34 full-queue stalls; the plain
    // `pythia` row of the same mix shares the read queue).
    ("hier2+popet", &["smoke-chase", "smoke-stream"], 2, 2_000, 6_000, 0x1356c7cfb5c53cde),
    ("hier4+popet", &["smoke-chase", "smoke-stream"], 2, 2_000, 6_000, 0x10652d9c78d2d359),
    ("pythia-wq", &["smoke-chase", "smoke-stream"], 2, 3_000, 10_000, 0xf41adc5162b6e764),
    // The default three-level hierarchy on one and two cores.
    ("pythia", &["smoke-chase"], 1, 5_000, 20_000, 0xcb320d62b5244c12),
    ("pythia", &["smoke-stream"], 1, 5_000, 20_000, 0x7781785d115d71ee),
    ("pythia", &["smoke-pagerank"], 1, 5_000, 20_000, 0x78588e9bca8d5117),
    ("pythia+popet", &["smoke-chase"], 1, 5_000, 20_000, 0x48016d95c1015763),
    ("pythia+popet", &["smoke-stream"], 1, 5_000, 20_000, 0x1f45c402c936c4cd),
    ("pythia+popet", &["smoke-pagerank"], 1, 5_000, 20_000, 0x279aecaac93ef036),
    ("pythia", &["smoke-chase", "smoke-stream"], 2, 3_000, 10_000, 0x2c68a1691d54d8a5),
    // The out-of-order core, dispatch blocked on a full 16/8 LQ/SQ or
    // (at the baseline 128/72) on a full RS for most cycles.
    ("ooo-lsq16x8", &["smoke-pagerank"], 1, 3_000, 8_000, 0xef902047ee1f748d),
    ("ooo-lsq16x8", &["smoke-stream"], 1, 3_000, 8_000, 0x08f2e6927e24f7c2),
    ("ooo-lsq16x8", &["spill-reload"], 1, 3_000, 8_000, 0x5fa21e4a09b168d7),
    ("ooo-lsq16x8+popet", &["smoke-pagerank"], 1, 3_000, 8_000, 0x88dd8be4c129c2ab),
    ("ooo-lsq16x8+popet", &["smoke-stream"], 1, 3_000, 8_000, 0x41595306c64ec212),
    ("ooo-lsq16x8+popet", &["spill-reload"], 1, 3_000, 8_000, 0x90fc7c5e5d7d659f),
    ("ooo", &["smoke-pagerank"], 1, 3_000, 8_000, 0x646c673f84632cf6),
    ("ooo", &["smoke-stream"], 1, 3_000, 8_000, 0x50873328ab932bc9),
    ("ooo", &["spill-reload"], 1, 3_000, 8_000, 0x91370f3967b3c67a),
    ("ooo+popet", &["smoke-pagerank"], 1, 3_000, 8_000, 0x69248701b29db93e),
    ("ooo+popet", &["smoke-stream"], 1, 3_000, 8_000, 0x4882db90f4e1b744),
    ("ooo+popet", &["spill-reload"], 1, 3_000, 8_000, 0x0ad8d58e76aa9728),
    // The paper suite (`default_suite`) on the default core: no
    // prefetching, Pythia, Pythia + Hermes-O/POPET, Pythia + Ideal Hermes-O.
    ("nopf", &["mcf-like"], 1, 2_000, 8_000, 0xd8310661724282f3),
    ("nopf", &["lbm-like"], 1, 2_000, 8_000, 0x118a166143ae39ff),
    ("nopf", &["cactus-like"], 1, 2_000, 8_000, 0x9db5599b69b46a13),
    ("nopf", &["omnetpp-like"], 1, 2_000, 8_000, 0x293f5ac90eb5f829),
    ("nopf", &["mcf_s-like"], 1, 2_000, 8_000, 0x4b69794599f0ab74),
    ("nopf", &["fotonik3d-like"], 1, 2_000, 8_000, 0xd2c3a809a54715ac),
    ("nopf", &["xalancbmk_s-like"], 1, 2_000, 8_000, 0x5795a10e9cac82b7),
    ("nopf", &["gcc_s-like"], 1, 2_000, 8_000, 0xd6219dc6871d96d3),
    ("nopf", &["canneal-like"], 1, 2_000, 8_000, 0xdc009eab1f076971),
    ("nopf", &["streamcluster-like"], 1, 2_000, 8_000, 0xd5c90428195144c1),
    ("nopf", &["facesim-like"], 1, 2_000, 8_000, 0x88f135271d16781d),
    ("nopf", &["raytrace-like"], 1, 2_000, 8_000, 0x93f3326d00b3297f),
    ("nopf", &["ligra-bfs"], 1, 2_000, 8_000, 0x7ea1d86bc68d6a8c),
    ("nopf", &["ligra-pagerank"], 1, 2_000, 8_000, 0x5e73c153ad681ab9),
    ("nopf", &["ligra-components"], 1, 2_000, 8_000, 0x1a3e936e9760f43d),
    ("nopf", &["ligra-triangle"], 1, 2_000, 8_000, 0x76670e69b41de247),
    ("nopf", &["server-int"], 1, 2_000, 8_000, 0x4db162eab54867c0),
    ("nopf", &["server-join"], 1, 2_000, 8_000, 0xde356f6114965dff),
    ("nopf", &["compute-fp"], 1, 2_000, 8_000, 0xdbd267e33affdc7a),
    ("nopf", &["compute-int"], 1, 2_000, 8_000, 0x3b7797b5354fe76f),
    ("pythia", &["mcf-like"], 1, 2_000, 8_000, 0x54bf16b7d5d1ba42),
    ("pythia", &["lbm-like"], 1, 2_000, 8_000, 0xe74d4527cd479b2f),
    ("pythia", &["cactus-like"], 1, 2_000, 8_000, 0x261e907740cc4cf3),
    ("pythia", &["omnetpp-like"], 1, 2_000, 8_000, 0x4f78db53f92d3e8b),
    ("pythia", &["mcf_s-like"], 1, 2_000, 8_000, 0x9d56fc4ddddf1a73),
    ("pythia", &["fotonik3d-like"], 1, 2_000, 8_000, 0xe0a2e3e014609331),
    ("pythia", &["xalancbmk_s-like"], 1, 2_000, 8_000, 0x0c012b83ec2b4f6a),
    ("pythia", &["gcc_s-like"], 1, 2_000, 8_000, 0x9fb9eb37304169ad),
    ("pythia", &["canneal-like"], 1, 2_000, 8_000, 0x61464f2d9a059d04),
    ("pythia", &["streamcluster-like"], 1, 2_000, 8_000, 0xd5c90428195144c1),
    ("pythia", &["facesim-like"], 1, 2_000, 8_000, 0xcc9d8182b048620e),
    ("pythia", &["raytrace-like"], 1, 2_000, 8_000, 0x6193b8b1e91e903b),
    ("pythia", &["ligra-bfs"], 1, 2_000, 8_000, 0x2dadc60f96debd77),
    ("pythia", &["ligra-pagerank"], 1, 2_000, 8_000, 0xfd204b2730e46625),
    ("pythia", &["ligra-components"], 1, 2_000, 8_000, 0x54d06d2d01a77766),
    ("pythia", &["ligra-triangle"], 1, 2_000, 8_000, 0xd4d5bd9dfee73bba),
    ("pythia", &["server-int"], 1, 2_000, 8_000, 0x0877d6fdf9d03b9c),
    ("pythia", &["server-join"], 1, 2_000, 8_000, 0x9d9012808d222ea6),
    ("pythia", &["compute-fp"], 1, 2_000, 8_000, 0x2b97a7e8f3b20151),
    ("pythia", &["compute-int"], 1, 2_000, 8_000, 0x7ac169a8ee81f390),
    ("pythia+popet", &["mcf-like"], 1, 2_000, 8_000, 0xa76f434e709b80bf),
    ("pythia+popet", &["lbm-like"], 1, 2_000, 8_000, 0x80ee92dacab78fdf),
    ("pythia+popet", &["cactus-like"], 1, 2_000, 8_000, 0xf704feb58be5c11c),
    ("pythia+popet", &["omnetpp-like"], 1, 2_000, 8_000, 0xcab72c3f5cc8c258),
    ("pythia+popet", &["mcf_s-like"], 1, 2_000, 8_000, 0xbc18c3dff9728a71),
    ("pythia+popet", &["fotonik3d-like"], 1, 2_000, 8_000, 0x192574db33a16bc2),
    ("pythia+popet", &["xalancbmk_s-like"], 1, 2_000, 8_000, 0xa3a7eff7fbf3c429),
    ("pythia+popet", &["gcc_s-like"], 1, 2_000, 8_000, 0xf1ea8ab8db1d51bc),
    ("pythia+popet", &["canneal-like"], 1, 2_000, 8_000, 0x675b306bf041fcfa),
    ("pythia+popet", &["streamcluster-like"], 1, 2_000, 8_000, 0xb791629f0e3c8731),
    ("pythia+popet", &["facesim-like"], 1, 2_000, 8_000, 0xa2b79e92a3f16d80),
    ("pythia+popet", &["raytrace-like"], 1, 2_000, 8_000, 0xa24729466ed37f8a),
    ("pythia+popet", &["ligra-bfs"], 1, 2_000, 8_000, 0xb5ec5115cd5a8e74),
    ("pythia+popet", &["ligra-pagerank"], 1, 2_000, 8_000, 0x5f80141160c198ce),
    ("pythia+popet", &["ligra-components"], 1, 2_000, 8_000, 0x7774fa09da15cff7),
    ("pythia+popet", &["ligra-triangle"], 1, 2_000, 8_000, 0xba814d04a24194b6),
    ("pythia+popet", &["server-int"], 1, 2_000, 8_000, 0xa097db2bcae984e8),
    ("pythia+popet", &["server-join"], 1, 2_000, 8_000, 0x339c79df2824a48d),
    ("pythia+popet", &["compute-fp"], 1, 2_000, 8_000, 0xbe27eb96598eef6f),
    ("pythia+popet", &["compute-int"], 1, 2_000, 8_000, 0x5604e887fb7da5cd),
    ("pythia+ideal", &["mcf-like"], 1, 2_000, 8_000, 0xa76f434e709b80bf),
    ("pythia+ideal", &["lbm-like"], 1, 2_000, 8_000, 0x8070bf4f4ae7b4f9),
    ("pythia+ideal", &["cactus-like"], 1, 2_000, 8_000, 0xf704feb58be5c11c),
    ("pythia+ideal", &["omnetpp-like"], 1, 2_000, 8_000, 0x1c4117973aa563a6),
    ("pythia+ideal", &["mcf_s-like"], 1, 2_000, 8_000, 0xe362273542b5c925),
    ("pythia+ideal", &["fotonik3d-like"], 1, 2_000, 8_000, 0xe33836f77656d298),
    ("pythia+ideal", &["xalancbmk_s-like"], 1, 2_000, 8_000, 0xa3a7eff7fbf3c429),
    ("pythia+ideal", &["gcc_s-like"], 1, 2_000, 8_000, 0x7c5f1cf83a418178),
    ("pythia+ideal", &["canneal-like"], 1, 2_000, 8_000, 0xb0af5e00cccd8cc8),
    ("pythia+ideal", &["streamcluster-like"], 1, 2_000, 8_000, 0xaf292eaedf7dcf2d),
    ("pythia+ideal", &["facesim-like"], 1, 2_000, 8_000, 0x9095d1d0f24c91e4),
    ("pythia+ideal", &["raytrace-like"], 1, 2_000, 8_000, 0x5c87d29f19e2dc94),
    ("pythia+ideal", &["ligra-bfs"], 1, 2_000, 8_000, 0xe59483e98c9df149),
    ("pythia+ideal", &["ligra-pagerank"], 1, 2_000, 8_000, 0xe10dcb5fc3302854),
    ("pythia+ideal", &["ligra-components"], 1, 2_000, 8_000, 0x2e4f368f887d496b),
    ("pythia+ideal", &["ligra-triangle"], 1, 2_000, 8_000, 0x60bfdc11e398d9cc),
    ("pythia+ideal", &["server-int"], 1, 2_000, 8_000, 0x9e67f3a7bfd56aa8),
    ("pythia+ideal", &["server-join"], 1, 2_000, 8_000, 0xd96ef4ab0d95f64f),
    ("pythia+ideal", &["compute-fp"], 1, 2_000, 8_000, 0x52eb807f450e5a47),
    ("pythia+ideal", &["compute-int"], 1, 2_000, 8_000, 0xe20280544194a743),
];

/// The configuration a row's tag names.
fn config(tag: &str) -> SystemConfig {
    let (base, hermes) = match tag.split_once('+') {
        Some((base, pred)) => (base, Some(pred)),
        None => (tag, None),
    };
    let pythia = SystemConfig::baseline_1c();
    let ooo = SystemConfig::baseline_1c().with_core_model(CoreModel::OoO(OooConfig::baseline()));
    let cfg = match base {
        "nopf" => pythia.with_prefetcher(PrefetcherKind::None),
        "pythia" => pythia,
        // Writebacks get their own 8-slot queue instead of read-queue
        // slots.
        "pythia-wq" => SystemConfig {
            dram: pythia.dram.clone().with_write_queue(8),
            ..pythia
        },
        "hier2" => two_level(),
        "hier4" => four_level(),
        // An 8-entry dTLB and a 32-entry STLB on 4 KB pages: walker
        // reads park in the retry queue beside demand loads and stores.
        "vm-tiny-tlbs" => pythia.with_vm(
            VmConfig::baseline()
                .with_dtlb(TlbConfig::new(8, 2, 0))
                .with_stlb(TlbConfig::new(32, 4, 8)),
        ),
        "vm-shared-stlb" => pythia.with_vm(
            VmConfig::baseline()
                .with_dtlb(TlbConfig::new(16, 4, 0))
                .with_shared_stlb(true),
        ),
        "mesi" => pythia.with_coherence(CoherenceConfig::baseline()),
        "ooo" => ooo,
        "ooo-lsq16x8" => ooo.with_lq(16).with_sq(8),
        _ => panic!("unknown base configuration {base}"),
    };
    match hermes {
        None => cfg,
        Some("popet") => cfg.with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        Some("ideal") => cfg.with_hermes(HermesConfig::hermes_o(PredictorKind::Ideal)),
        Some(p) => panic!("unknown predictor {p}"),
    }
}

/// Every workload a row may name: the smoke, sharing and paper suites
/// and the OoO sweep's spill-reload kernel.
fn workloads() -> Vec<WorkloadSpec> {
    let mut all = suite::smoke_suite();
    all.extend(suite::sharing_suite(500));
    all.extend(suite::default_suite());
    all.push(spill_reload());
    all
}

/// The rows of `hier_golden::vm_tiny_tlbs_walks_through_full_l1_mshrs`.
pub fn vm_tiny_tlbs(r: &Row) -> bool {
    r.0 == "vm-tiny-tlbs"
}

/// The rows of `hier_golden::vm_shared_stlb_two_cores`.
pub fn vm_shared_stlb(r: &Row) -> bool {
    r.0 == "vm-shared-stlb+popet"
}

/// The rows of `hier_golden::mesi_four_cores_on_the_sharing_suite`.
pub fn mesi_four_cores(r: &Row) -> bool {
    r.0 == "mesi+popet" && r.2 == 4
}

/// The rows of `hier_equivalence::generic_hierarchy_matches_pre_refactor_goldens`.
pub fn pre_refactor_1core(r: &Row) -> bool {
    r.0.starts_with("pythia") && r.2 == 1 && r.3 == 5_000
}

/// The rows of `hier_equivalence::generic_hierarchy_matches_pre_refactor_goldens_2core`.
pub fn pre_refactor_2core(r: &Row) -> bool {
    r.0 == "pythia" && r.2 == 2
}

/// The rows of `ooo::ooo_core_matches_pinned_goldens`.
pub fn ooo_core(r: &Row) -> bool {
    r.0.starts_with("ooo")
}

/// A set of rows, as a predicate.
pub type Select = fn(&Row) -> bool;

/// Every selector a named golden test uses, with the number of rows it
/// picks. `golden.rs` checks that they are disjoint and pick these
/// counts, and runs every row none of them picks.
pub const NAMED: [(Select, usize); 6] = [
    (vm_tiny_tlbs, 1),
    (vm_shared_stlb, 1),
    (mesi_four_cores, 1),
    (pre_refactor_1core, 6),
    (pre_refactor_2core, 1),
    (ooo_core, 12),
];

/// Runs every row that `select` picks; panics listing each picked row
/// whose digest moved.
pub fn check(select: impl Fn(&Row) -> bool) {
    let all = workloads();
    let rows: Vec<&Row> = GOLDEN.iter().filter(|r| select(r)).collect();
    let mut moved = Vec::new();
    for &&(tag, names, cores, warmup, sim, pinned) in &rows {
        let specs: Vec<WorkloadSpec> = names
            .iter()
            .map(|n| {
                all.iter()
                    .find(|s| s.name == *n)
                    .unwrap_or_else(|| panic!("no workload named {n}"))
                    .clone()
            })
            .collect();
        let cfg = SystemConfig {
            cores,
            ..config(tag)
        };
        let (digest, _) = run(cfg, &specs, warmup, sim);
        let now = fnv1a(&digest);
        if now != pinned {
            moved.push(format!(
                "({tag:?}, {names:?}, {cores}, {warmup}, {sim}): pinned {pinned:#018x}, now {now:#018x}\n{digest}"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "{} of {} rows moved:\n\n{}",
        moved.len(),
        rows.len(),
        moved.join("\n")
    );
}
