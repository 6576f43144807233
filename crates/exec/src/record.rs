//! The flat per-run measurement record that flows through the engine and
//! the on-disk cache.
//!
//! `RunLite` is the unit of exchange between the simulator and every
//! figure/table binary: a fixed set of scalar measurements extracted from
//! [`RunStats`], serialisable to a line-oriented `key=value` format that
//! is stable, human-inspectable, and cheap to parse. It used to live in
//! `hermes-bench`; it moved here together with the cache so the engine
//! can own the full job lifecycle.
//!
//! Every stat is declared once, as a row of the `run_lite!` table
//! below: its doc comment, its name, and how it is read from
//! [`RunStats`]. The struct, the field order shared by the cache format
//! and the manifest, the extraction and the parser's lookup are all
//! generated from that row, so adding a stat is a one-row change.

use hermes_probe::{LatClass, ProbeReport};
use hermes_sim::stats::CoreRunStats;
use hermes_sim::RunStats;

/// Arithmetic mean of a per-core quantity (the core-0 value on a
/// single-core run).
fn mean(r: &RunStats, f: impl Fn(&CoreRunStats) -> f64) -> f64 {
    r.cores.iter().map(f).sum::<f64>() / r.cores.len() as f64
}

/// A quantity that only probed runs measure; 0 with the probe off (a
/// probe-off run is told apart from real data by `cycles > 0` together
/// with a zero `offchip_lat_p50`).
fn probe_or_0(r: &RunStats, f: impl Fn(&ProbeReport) -> f64) -> f64 {
    r.probe.as_ref().map(f).unwrap_or(0.0)
}

/// Generates `RunLite`, `FIELDS` and the per-field accessors from one
/// table with a row `name: |run| extraction,` per stat, in cache order.
macro_rules! run_lite {
    ($($(#[$doc:meta])* $name:ident: |$r:ident| $extract:expr,)*) => {
        /// Flat, cacheable per-run measurement record.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct RunLite {
            $($(#[$doc])* pub $name: f64,)*
        }

        /// Field order used by both the `key=value` cache format and the
        /// JSON manifest, so the two never drift apart.
        pub(crate) const FIELDS: &[&str] = &[$(stringify!($name)),*];

        impl RunLite {
            /// Extracts the record from full run statistics.
            pub fn from_stats(run: &RunStats) -> Self {
                Self { $($name: { let $r = run; $extract },)* }
            }

            /// `(name, value)` for every field, in [`FIELDS`] order.
            pub(crate) fn fields(&self) -> impl Iterator<Item = (&'static str, f64)> {
                FIELDS.iter().copied().zip([$(self.$name),*])
            }

            fn values_mut(&mut self) -> [&mut f64; FIELDS.len()] { [$(&mut self.$name),*] }
        }
    };
}

run_lite! {
    /// Instructions per cycle (core 0 for single-core runs; arithmetic
    /// mean across cores for multi-core runs).
    ipc: |r| mean(r, |c| c.ipc()),
    /// LLC demand misses per kilo-instruction.
    llc_mpki: |r| mean(r, |c| c.llc_mpki()),
    /// Fraction of loads served off-chip.
    offchip_rate: |r| mean(r, |c| c.offchip_rate()),
    /// Off-chip predictor accuracy (Eq. 3).
    accuracy: |r| r.pred_total().accuracy(),
    /// Off-chip predictor coverage (Eq. 4).
    coverage: |r| r.pred_total().coverage(),
    /// Total main-memory requests (reads + writes).
    mm_requests: |r| r.main_memory_requests() as f64,
    /// ROB stall cycles attributed to off-chip loads.
    stall_offchip: |r| mean(r, |c| c.core.stall_cycles_offchip as f64),
    /// Off-chip loads that blocked retirement.
    blocking: |r| mean(r, |c| c.core.offchip_blocking as f64),
    /// Off-chip loads that never blocked retirement.
    nonblocking: |r| mean(r, |c| c.core.offchip_nonblocking as f64),
    /// Average stall cycles per off-chip load.
    stalls_per_offchip: |r| mean(r, |c| c.core.stalls_per_offchip_load()),
    /// Average on-chip (hierarchy) portion of an off-chip load's latency.
    onchip_portion: |r| mean(r, |c| c.avg_onchip_portion()),
    /// Average total off-chip load latency.
    offchip_latency: |r| mean(r, |c| c.avg_offchip_latency()),
    /// Dynamic energy total (power model).
    energy: |r| r.power.total(),
    /// Dynamic energy in the DRAM/bus component.
    energy_bus: |r| r.power.bus,
    /// Dynamic energy in L1/L2/LLC.
    energy_caches: |r| r.power.l1 + r.power.l2 + r.power.llc,
    /// Dynamic energy in predictor + prefetcher metadata.
    energy_meta: |r| r.power.predictor + r.power.prefetcher,
    /// dTLB misses per kilo-instruction (zero with `vm: None`).
    dtlb_mpki: |r| mean(r, |c| c.dtlb_mpki()),
    /// STLB misses per kilo-instruction (each starts or joins a walk).
    stlb_mpki: |r| mean(r, |c| c.stlb_mpki()),
    /// Average page-walk latency in cycles.
    walk_cycles: |r| mean(r, |c| c.avg_walk_cycles()),
    /// Coherence write-permission upgrades per core (mean; zero with
    /// `coherence: None`).
    coh_upgrades: |r| mean(r, |c| c.hier.coh_upgrades as f64),
    /// Remote copies invalidated by this core's stores (mean per core).
    coh_invalidations: |r| mean(r, |c| c.hier.coh_invalidations as f64),
    /// Dirty interventions served to this core (mean per core).
    coh_dirty_forwards: |r| mean(r, |c| c.hier.coh_dirty_forwards as f64),
    /// Hermes speculative DRAM reads that paid off (mean per core; zero
    /// with Hermes off or passive).
    spec_reads_useful: |r| mean(r, |c| c.hier.spec_reads_useful as f64),
    /// Hermes speculative DRAM reads wasted on loads that resolved
    /// on-chip (mean per core).
    spec_reads_wasted: |r| mean(r, |c| c.hier.spec_reads_wasted as f64),
    /// Predictor confusion matrix, aggregated across cores: predicted
    /// off-chip and went off-chip.
    pred_tp: |r| r.pred_total().tp as f64,
    /// Predicted off-chip, served on-chip.
    pred_fp: |r| r.pred_total().fp as f64,
    /// Not predicted, went off-chip.
    pred_fn: |r| r.pred_total().fn_ as f64,
    /// Not predicted, served on-chip.
    pred_tn: |r| r.pred_total().tn as f64,
    /// Mean DRAM read-queue occupancy observed at demand-read enqueue
    /// (always measured, probe on or off — it replaces the old guess
    /// from `wq_occupancy_sum`-style averages with a real histogram).
    rq_occ_mean: |r| r.dram.rq_occupancy_hist.mean_linear(),
    /// 95th-percentile DRAM read-queue occupancy at enqueue.
    rq_occ_p95: |r| r.dram.rq_occupancy_hist.quantile_linear(0.95),
    /// 95th-percentile DRAM write-queue occupancy at enqueue.
    wq_occ_p95: |r| r.dram.wq_occupancy_hist.quantile_linear(0.95),
    /// 95th-percentile DRAM queue delay in cycles (enqueue to service
    /// start; log2-bucketed, reported as the bucket upper bound).
    dram_qdelay_p95: |r| r.dram.queue_delay_hist.quantile_log2(0.95),
    /// Median off-chip load latency (probe runs only; 0 with probe off).
    offchip_lat_p50: |r| probe_or_0(r, |p| p.lat_hist(LatClass::Offchip).quantile_log2(0.5)),
    /// 95th-percentile off-chip load latency (probe runs only).
    offchip_lat_p95: |r| probe_or_0(r, |p| p.lat_hist(LatClass::Offchip).quantile_log2(0.95)),
    /// 99th-percentile off-chip load latency (probe runs only).
    offchip_lat_p99: |r| probe_or_0(r, |p| p.lat_hist(LatClass::Offchip).quantile_log2(0.99)),
    /// Median LLC-hit load latency (probe runs only).
    llc_hit_lat_p50: |r| probe_or_0(r, |p| p.lat_hist(LatClass::Llc).quantile_log2(0.5)),
    /// 95th-percentile page-walk latency (probe runs with vm on only).
    walk_lat_p95: |r| probe_or_0(r, |p| p.lat_walk.quantile_log2(0.95)),
    /// Mean ROB occupancy over the measurement window (mean across
    /// cores; zero under the legacy dependency-scheduled model, which
    /// does not sample occupancy).
    rob_occ_mean: |r| mean(r, |c| {
        if c.cycles == 0 {
            0.0
        } else {
            c.core.rob_occupancy_sum as f64 / c.cycles as f64
        }
    }),
    /// Cycles dispatch stalled on a full reservation-station pool (mean
    /// per core; out-of-order model only).
    rs_full_stalls: |r| mean(r, |c| c.core.rs_full_stalls as f64),
    /// Cycles dispatch stalled on a full load/store queue (mean per
    /// core; out-of-order model only).
    lsq_full_stalls: |r| mean(r, |c| c.core.lsq_full_stalls as f64),
    /// Loads served by store-to-load forwarding (mean per core;
    /// out-of-order model only).
    forwarded_loads: |r| mean(r, |c| c.core.forwarded_loads as f64),
    /// Pipeline flushes from branch mispredictions (mean per core;
    /// out-of-order model only).
    flushes: |r| mean(r, |c| c.core.flushes as f64),
    /// Measured cycles.
    cycles: |r| r.total_cycles as f64,
}

// `from_kv` tracks the fields it has seen in a `u64`.
const _: () = assert!(FIELDS.len() <= 64);

impl RunLite {
    /// Serialises to the line-oriented `key=value` cache format.
    pub fn to_kv(&self) -> String {
        let mut s = String::new();
        for (field, v) in self.fields() {
            s.push_str(field);
            s.push('=');
            s.push_str(&v.to_string());
            s.push('\n');
        }
        s
    }

    /// Parses the `key=value` cache format; `None` on any corruption
    /// (unknown, repeated or missing key, bad number, truncation,
    /// zero-cycle record), so a damaged cache entry degrades to a miss
    /// instead of a panic.
    pub fn from_kv(s: &str) -> Option<Self> {
        let mut r = RunLite::default();
        let mut seen = 0u64;
        for line in s.lines() {
            let (k, v) = line.split_once('=')?;
            let i = FIELDS.iter().position(|&f| f == k)?;
            if seen & (1 << i) != 0 {
                return None;
            }
            seen |= 1 << i;
            *r.values_mut()[i] = v.parse().ok()?;
        }
        // A truncated or empty file (e.g. from an interrupted writer) must
        // be treated as a miss, not as an all-zero record.
        (seen.count_ones() as usize == FIELDS.len() && r.cycles > 0.0).then_some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record whose every field holds its 1-based index.
    fn indexed() -> RunLite {
        let mut r = RunLite::default();
        for (i, v) in r.values_mut().into_iter().enumerate() {
            *v = (i + 1) as f64;
        }
        r
    }

    #[test]
    fn runlite_kv_round_trip() {
        let r = indexed();
        assert_eq!(RunLite::from_kv(&r.to_kv()), Some(r));
    }

    #[test]
    fn kv_field_list_matches_struct() {
        // Names and values pair up in struct order.
        for (i, (field, v)) in indexed().fields().enumerate() {
            assert_eq!(field, FIELDS[i]);
            assert_eq!(v, (i + 1) as f64, "{field}");
        }
    }

    #[test]
    fn kv_rejects_garbage() {
        let first = FIELDS[0];
        assert!(RunLite::from_kv("bogus=1\n").is_none());
        assert!(RunLite::from_kv(&format!("{first}=notanumber\n")).is_none());
        assert!(
            RunLite::from_kv("").is_none(),
            "empty file must be a cache miss"
        );
        assert!(
            RunLite::from_kv(&format!("{first}=1.0\n")).is_none(),
            "partial file must be a cache miss"
        );
    }
}
