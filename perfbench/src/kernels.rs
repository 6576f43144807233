//! Stand-alone kernels: one layer's hot entry point driven in a tight
//! loop, sampled repeatedly and reported as median and quartiles.
//!
//! Each kernel keeps its state across samples (the first, untimed
//! sample warms it), so the samples measure steady-state cost. Core
//! kernels are normalised per retired instruction, not per cycle: the
//! two core models retire at very different rates on the same mix.

use std::hint::black_box;
use std::time::Instant;

use hermes::{LoadContext, OffChipPredictor, Popet};
use hermes_cache::{CacheArray, CacheConfig, ReplacementKind};
use hermes_cpu::{
    Core, CoreConfig, CoreModel, LoadIssue, MemoryPort, OooConfig, ServedBy, StoreIssue,
};
use hermes_dram::{DramConfig, MemoryController, ReqKind};
use hermes_ooo::OooCore;
use hermes_prefetch::pythia::Pythia;
use hermes_prefetch::{AccessCtx, Prefetcher};
use hermes_trace::source::VecSource;
use hermes_trace::Instr;
use hermes_types::{mix64, Cycle, LineAddr, VirtAddr};

use crate::stats::Metrics;

/// Timed samples per kernel (after one untimed warm-up sample).
pub const SAMPLES: usize = 15;

/// Runs `sample` once untimed, then [`SAMPLES`] times timed; each call
/// returns how many units of work it did. Returns ns per unit per
/// sample.
fn sample_ns(mut sample: impl FnMut() -> u64) -> Vec<f64> {
    black_box(sample());
    (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let units = sample();
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect()
}

/// POPET inference plus training, per load.
pub fn popet_predict_train(ops: u64) -> Vec<f64> {
    let mut popet = Popet::default();
    let mut i = 0u64;
    sample_ns(|| {
        for _ in 0..ops {
            let ctx = LoadContext::identity(
                0x40_0100 + (i % 16) * 4,
                VirtAddr::new(0x10_0000 + (mix64(i) % (1 << 20)) * 64),
            );
            let p = popet.predict(black_box(&ctx));
            popet.train(&ctx, &p, i.is_multiple_of(5));
            black_box(p.go_offchip);
            i += 1;
        }
        ops
    })
}

/// LLC tag-array access with fill on miss (SHiP replacement), per access.
pub fn llc_access_fill(ops: u64) -> Vec<f64> {
    let cfg = CacheConfig::new("LLC", 3 << 20, 12, ReplacementKind::Ship, 64);
    let mut cache = CacheArray::new(&cfg);
    let mut i = 0u64;
    sample_ns(|| {
        for _ in 0..ops {
            // A 6 MB footprint over a 3 MB cache: about half the accesses
            // miss and fill.
            let line = LineAddr::new(mix64(i) % 98_304);
            let sig = (i % 4096) as u16;
            if !cache.access(black_box(line), sig).hit {
                cache.fill(line, false, false, sig);
            }
            i += 1;
        }
        ops
    })
}

/// One DRAM read from `MemoryController::enqueue_read` to its
/// `pop_completions`, per read.
pub fn dram_read(ops: u64) -> Vec<f64> {
    let mut mc = MemoryController::new(DramConfig::single_core());
    let mut out = Vec::new();
    let mut now: Cycle = 0;
    let mut i = 0u64;
    sample_ns(|| {
        for _ in 0..ops {
            // Runs of four lines per row, rows scattered: a mix of
            // row hits, empties and conflicts at a sustainable rate.
            let line = LineAddr::new((mix64(i / 4) % (1 << 22)) * 32 + i % 4);
            mc.enqueue_read(black_box(line), now, ReqKind::Demand);
            now += 60;
            mc.pop_completions(now, &mut out);
            black_box(out.len());
            i += 1;
        }
        ops
    })
}

/// Pythia observing one demand access and proposing prefetches, per
/// access.
pub fn pythia_access(ops: u64) -> Vec<f64> {
    let mut pf = Pythia::new();
    let mut out = Vec::new();
    let mut i = 0u64;
    sample_ns(|| {
        for _ in 0..ops {
            // Eight PCs, each streaming with its own stride.
            let pcid = i % 8;
            let line = LineAddr::new((pcid << 24) + (i / 8) * (1 + pcid));
            let ctx = AccessCtx {
                pc: 0x40_0000 + pcid * 4,
                line,
                hit: mix64(i).is_multiple_of(3),
            };
            out.clear();
            pf.on_access(black_box(&ctx), &mut out);
            black_box(out.len());
            i += 1;
        }
        ops
    })
}

/// Fixed-latency memory for the core kernels, so they measure pipeline
/// bookkeeping rather than the hierarchy.
#[derive(Default)]
struct FixedLat {
    pending: Vec<(Cycle, u64)>,
}

impl MemoryPort for FixedLat {
    fn issue_load(&mut self, req: LoadIssue, now: Cycle) {
        self.pending.push((now + 30, req.token));
    }

    fn issue_store(&mut self, _req: StoreIssue, _now: Cycle) {}
}

impl FixedLat {
    fn deliver(&mut self, now: Cycle, mut finish: impl FnMut(u64)) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                finish(self.pending.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
    }
}

/// An ALU/load/store/branch mix shaped like the suite's compute traces.
fn core_mix() -> Vec<Instr> {
    vec![
        Instr::load(0x40_0000, VirtAddr::new(0x1000), Some(1), [None, None]),
        Instr::alu(0x40_0004, Some(2), [Some(1), None]),
        Instr::alu(0x40_0008, Some(3), [Some(2), None]),
        Instr::store(0x40_000c, VirtAddr::new(0x2000), [Some(3), None]),
        Instr::branch(0x40_0010, true, Some(3)),
        Instr::alu(0x40_0014, Some(4), [None, None]),
    ]
}

/// Ticks a core until it retires `instrs` more instructions; returns
/// the count retired.
macro_rules! core_kernel {
    ($core:expr, $instrs:expr) => {{
        let mut core = $core;
        let mut mem = FixedLat::default();
        let mut now: Cycle = 0;
        sample_ns(|| {
            let start = core.retired();
            while core.retired() - start < $instrs {
                mem.deliver(now, |tok| core.finish_load(tok, now, ServedBy::L2));
                core.tick(now, &mut mem);
                now += 1;
            }
            core.retired() - start
        })
    }};
}

/// The legacy dependency-scheduled core, per retired instruction.
pub fn legacy_core(instrs: u64) -> Vec<f64> {
    core_kernel!(
        Core::new(
            0,
            CoreConfig::baseline(),
            Box::new(VecSource::new("mix", core_mix()))
        ),
        instrs
    )
}

/// The out-of-order core, per retired instruction.
pub fn ooo_core(instrs: u64) -> Vec<f64> {
    let cfg = CoreConfig::baseline().with_model(CoreModel::OoO(OooConfig::baseline()));
    core_kernel!(
        OooCore::new(
            0,
            cfg,
            OooConfig::baseline(),
            Box::new(VecSource::new("mix", core_mix()))
        ),
        instrs
    )
}

/// Work per sample: `(ops, core instructions)`.
#[derive(Debug, Clone, Copy)]
pub struct KernelSize {
    /// Operations per sample for the predictor, cache, DRAM and
    /// prefetcher kernels.
    pub ops: u64,
    /// Retired instructions per sample for the core kernels.
    pub instrs: u64,
}

impl KernelSize {
    /// The benchmark's sample size (a few ms per sample).
    pub const BENCH: KernelSize = KernelSize {
        ops: 50_000,
        instrs: 20_000,
    };
    /// Tiny samples for the harness's own tests.
    pub const TINY: KernelSize = KernelSize {
        ops: 200,
        instrs: 200,
    };
}

/// Runs every kernel and appends its median and quartiles.
pub fn run_all(size: KernelSize, m: &mut Metrics) {
    m.push_quartiles(
        "hermes.popet_predict_train_ns",
        "ns",
        &popet_predict_train(size.ops),
    );
    m.push_quartiles("cache.llc_access_fill_ns", "ns", &llc_access_fill(size.ops));
    m.push_quartiles("dram.read_ns", "ns", &dram_read(size.ops));
    m.push_quartiles("prefetch.pythia_ns", "ns", &pythia_access(size.ops));
    m.push_quartiles("cpu.kernel_ns_per_instr", "ns", &legacy_core(size.instrs));
    m.push_quartiles("ooo.kernel_ns_per_instr", "ns", &ooo_core(size.instrs));
}
