//! `tlb_sweep` — how address-translation pressure changes Hermes's win.
//!
//! Sweeps the vm subsystem over the TLB-stressing suite: dTLB sizes ×
//! page sizes (4 KB vs 2 MB huge pages) × {baseline, Hermes-O/POPET},
//! plus the historical free-translation reference (`vm: None`). The
//! tension under study: a TLB miss gates the *physical* address, and
//! Hermes-O cannot launch its speculative DRAM read before the PFN is
//! known — so the walk latency Hermes cannot hide grows exactly on the
//! loads it targets, while huge pages (512× the TLB reach, one fewer
//! radix level) claw the win back.
//!
//! Flags: the usual `--quick` / `--full` / `--record` / `--jobs N`.

use crate::{
    cross, f3, speedup_table, speedups, Experiment, Point, Results, RunLite, Scale, Table,
};
use hermes::{HermesConfig, PredictorKind};
use hermes_sim::SystemConfig;
use hermes_trace::{suite, WorkloadSpec};
use hermes_types::geomean;
use hermes_vm::{TlbConfig, VmConfig};

pub const EXPERIMENT: Experiment = Experiment {
    id: "tlb_sweep",
    title: "Hermes speedup under real address-translation pressure (TLB sizes x page sizes)",
    scale,
    points,
    render,
};

/// The TLB-stressing suite.
fn scale(scale: &Scale) -> Scale {
    Scale {
        suite: suite::tlb_suite(),
        ..scale.clone()
    }
}

/// The translation configurations in table order: (tag, dtlb label,
/// page label, vm config); `None` = free translation.
fn translations() -> Vec<(String, String, &'static str, Option<VmConfig>)> {
    let dtlb_sizes: &[usize] = &[16, 64, 256];
    let page_cfgs: &[(u32, &str)] = &[(0, "4K"), (1000, "2M")];

    let mut grid: Vec<(String, String, &str, Option<VmConfig>)> =
        vec![("novm".into(), "-".into(), "-", None)];
    for &(pm, pages) in page_cfgs {
        for &entries in dtlb_sizes {
            let vm = VmConfig::baseline()
                .with_dtlb(TlbConfig::new(entries, 4, 0))
                .with_huge_page_pm(pm);
            grid.push((
                format!("d{entries}-{pages}"),
                entries.to_string(),
                pages,
                Some(vm),
            ));
        }
    }
    grid
}

fn points(scale: &Scale) -> Vec<Point> {
    let mut configs = Vec::new();
    for (tag, _, _, vm) in translations() {
        let mut cfg = SystemConfig::baseline_1c();
        if let Some(vm) = vm {
            cfg = cfg.with_vm(vm);
        }
        let hermes_cfg = cfg
            .clone()
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
        configs.push((format!("tlb-{tag}-base"), cfg));
        configs.push((format!("tlb-{tag}-hermesO-popet"), hermes_cfg));
    }
    cross(&configs, &scale.suite)
}

fn render(results: &Results, scale: &Scale) -> String {
    let gm = |rs: &[(WorkloadSpec, RunLite)], f: &dyn Fn(&RunLite) -> f64| {
        geomean(&rs.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
    };
    let mean = |rs: &[(WorkloadSpec, RunLite)], f: &dyn Fn(&RunLite) -> f64| {
        rs.iter().map(|(_, r)| f(r)).sum::<f64>() / rs.len() as f64
    };
    let mut t = Table::new(&[
        "config",
        "dTLB",
        "pages",
        "dTLB MPKI",
        "STLB MPKI",
        "walk cyc",
        "IPC base",
        "IPC +HermesO",
        "speedup",
    ]);
    let mut speedup_rows = Vec::new();
    for (tag, dtlb, pages, _) in translations() {
        let base = results.suite(&format!("tlb-{tag}-base"), &scale.suite);
        let herm = results.suite(&format!("tlb-{tag}-hermesO-popet"), &scale.suite);
        let (ipc_b, ipc_h) = (gm(&base, &|r| r.ipc), gm(&herm, &|r| r.ipc));
        t.row(&[
            tag.clone(),
            dtlb,
            pages.to_string(),
            f3(mean(&base, &|r| r.dtlb_mpki)),
            f3(mean(&base, &|r| r.stlb_mpki)),
            f3(mean(&base, &|r| r.walk_cycles)),
            f3(ipc_b),
            f3(ipc_h),
            f3(ipc_h / ipc_b),
        ]);
        speedup_rows.push((tag, speedups(&base, &herm)));
    }

    format!(
        "1-core, {} TLB-stressing workloads, {}+{} instructions/core; \
         STLB {} per core, 32-entry page-walk cache. `novm` is the \
         historical free translation.\n\n{}\n\
         Per-category Hermes-O/POPET speedup by translation config:\n\n{}\n\
         Reading: translation pressure (small dTLB, 4 KB pages) adds \
         walk latency that gates Hermes's speculative issue, while 2 MB \
         pages recover most of the free-translation win (512x reach, one \
         fewer radix level per walk).",
        scale.suite.len(),
        scale.warmup,
        scale.instr,
        VmConfig::baseline().stlb.entries,
        t.to_markdown(),
        speedup_table(&speedup_rows),
    )
}
