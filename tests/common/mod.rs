//! Helpers shared by the integration tests: one digest over every
//! counter a run reports, and the one table of absolute goldens
//! ([`golden`]).
//!
//! Each test binary compiles this module on its own and uses only part
//! of it, hence the `dead_code` allowance.
#![allow(dead_code)]

pub mod golden;

use std::fmt::Write;

use hermes_repro::hermes::PredictorStats;
use hermes_repro::hermes_cache::{CacheConfig, LevelStats, ReplacementKind};
use hermes_repro::hermes_cpu::CoreStats;
use hermes_repro::hermes_dram::controller::DramStats;
use hermes_repro::hermes_sim::hierarchy::CoreHierStats;
use hermes_repro::hermes_sim::stats::CoreRunStats;
use hermes_repro::hermes_sim::{RunStats, System, SystemConfig};
use hermes_repro::hermes_trace::suite::{Category, GenConfig};
use hermes_repro::hermes_trace::WorkloadSpec;
use hermes_repro::hermes_types::Hist;

/// One counter's value as the digest writes it.
trait Counter {
    fn render(&self, out: &mut String);
}

impl Counter for u64 {
    fn render(&self, out: &mut String) {
        write!(out, "{self}").unwrap();
    }
}

impl Counter for Hist {
    /// The non-empty buckets as `{bucket:count,...}`.
    fn render(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        for (i, n) in self.buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
            if !first {
                out.push(',');
            }
            first = false;
            write!(out, "{i}:{n}").unwrap();
        }
        out.push('}');
    }
}

/// Appends ` field=value` for every field of `$v`, a `&$ty`. The pattern
/// names each field, so a counter added to `$ty` later fails to compile
/// here until it is listed.
macro_rules! counters {
    ($out:expr, $v:expr, $ty:ident { $($f:ident),* $(,)? }) => {{
        let $ty { $($f),* } = $v;
        $(
            write!($out, " {}=", stringify!($f)).unwrap();
            Counter::render($f, $out);
        )*
    }};
}

/// Renders every counter of a finished run, one line each for the
/// total, each core (`CoreStats`, `CoreHierStats` and `PredictorStats`),
/// the DRAM and each cache level (`LevelStats`, all cores combined).
///
/// Every struct is destructured without `..`: a new field is a compile
/// error until it is rendered or, like `power` and `probe` below,
/// explicitly left out as `field: _`.
pub fn digest(sys: &System, r: &RunStats) -> String {
    let RunStats {
        cores,
        total_cycles,
        dram,
        // Derived from the counters below.
        power: _,
        // Compared in full by `sched_equivalence`.
        probe: _,
    } = r;
    let mut s = format!("total_cycles={total_cycles}\n");
    for (i, c) in cores.iter().enumerate() {
        let CoreRunStats {
            workload,
            category: _,
            instructions,
            cycles,
            core,
            hier,
            pred,
        } = c;
        write!(
            s,
            "core{i} {workload} cycles={cycles} instructions={instructions}"
        )
        .unwrap();
        #[rustfmt::skip]
        counters!(&mut s, core, CoreStats {
            retired, loads, stores, branches, branch_mispredicts,
            served_l1, served_l2, served_llc, served_dram,
            offchip_blocking, offchip_nonblocking,
            stall_cycles_offchip, stall_cycles_onchip_load, stall_cycles_other, empty_rob_cycles,
            rob_occupancy_sum, rs_full_stalls, lsq_full_stalls, forwarded_loads, flushes,
        });
        #[rustfmt::skip]
        counters!(&mut s, hier, CoreHierStats {
            llc_demand_accesses, llc_demand_misses, hermes_requests,
            prefetches_issued, prefetches_useful, l1_accesses, l2_accesses,
            offchip_latency_sum, offchip_onchip_portion_sum, offchip_loads,
            dtlb_accesses, dtlb_misses, stlb_misses, walks_completed, walk_cycles_sum,
            walk_mem_accesses, pwc_levels_skipped,
            coh_upgrades, coh_invalidations, coh_dirty_forwards, coh_back_invalidations,
            spec_reads_useful, spec_reads_wasted,
        });
        counters!(&mut s, pred, PredictorStats { tp, fp, fn_, tn });
        s.push('\n');
    }
    s.push_str("dram");
    #[rustfmt::skip]
    counters!(&mut s, dram, DramStats {
        reads_demand, reads_prefetch, reads_hermes, writes,
        row_hits, row_empty, row_conflicts,
        demand_merged_into_hermes, hermes_dropped,
        wq_occupancy_sum, wq_full_stalls,
        rq_occupancy_hist, wq_occupancy_hist, queue_delay_hist,
    });
    s.push('\n');
    for (name, l) in sys.hierarchy().level_stats() {
        s.push_str(&name);
        #[rustfmt::skip]
        counters!(&mut s, &l, LevelStats {
            accesses, hits, misses, fills, dirty_evictions, mshr_rejections, invalidations,
        });
        s.push('\n');
    }
    s
}

/// FNV-1a 64 of a [`digest`]: the value a golden pins.
pub fn fnv1a(digest: &str) -> u64 {
    digest.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Builds a system of `cfg` over `specs`, runs it, and returns its
/// [`digest`] together with the statistics.
pub fn run(cfg: SystemConfig, specs: &[WorkloadSpec], warmup: u64, sim: u64) -> (String, RunStats) {
    let mut sys = System::new(cfg, specs);
    let r = sys.run(warmup, sim);
    (digest(&sys, &r), r)
}

/// `ooo_sweep`'s store-heavy kernel: every store is reloaded moments
/// later, so loads park behind unknown store addresses and forward.
pub fn spill_reload() -> WorkloadSpec {
    WorkloadSpec::new(
        "spill-reload",
        Category::Spec17,
        GenConfig::WriteReload { slots: 64, work: 2 },
        11,
    )
}

/// A small 2-level topology: private L1 straight to a shared LLC.
pub fn two_level() -> SystemConfig {
    SystemConfig::baseline_1c().with_levels(vec![
        CacheConfig::new("L1D", 48 * 1024, 12, ReplacementKind::Lru, 16).with_latency(5),
        CacheConfig::new("LLC", 2 << 20, 16, ReplacementKind::Ship, 64).with_latency(35),
    ])
}

/// A 4-level topology: L1/L2, a private L3, and a shared LLC.
pub fn four_level() -> SystemConfig {
    let base = SystemConfig::baseline_1c();
    SystemConfig::baseline_1c().with_levels(vec![
        base.levels[0].clone(),
        base.levels[1].clone(),
        CacheConfig::new("L3", 2 << 20, 16, ReplacementKind::Lru, 48).with_latency(15),
        base.levels[2].clone(),
    ])
}
