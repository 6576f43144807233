//! Run statistics: the measured quantities every figure in §8 is built
//! from.

use hermes::PredictorStats;
use hermes_cpu::CoreStats;
use hermes_dram::controller::DramStats;
use hermes_probe::ProbeReport;
use hermes_trace::Category;

use crate::hierarchy::CoreHierStats;
use crate::power::PowerBreakdown;

/// Measurement snapshot for one core over its simulation window.
#[derive(Debug, Clone)]
pub struct CoreRunStats {
    /// Workload name the core ran.
    pub workload: String,
    /// Workload category (for the paper's per-category aggregation).
    pub category: Category,
    /// Instructions measured (the configured `sim_instr`).
    pub instructions: u64,
    /// Cycles the core took to retire them.
    pub cycles: u64,
    /// Pipeline counters.
    pub core: CoreStats,
    /// Hierarchy counters.
    pub hier: CoreHierStats,
    /// Off-chip predictor confusion matrix.
    pub pred: PredictorStats,
}

impl CoreRunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// LLC misses per kilo-instruction (the paper's MPKI).
    pub fn llc_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.hier.llc_demand_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Fraction of demand loads that went off-chip (Fig. 5's left axis).
    pub fn offchip_rate(&self) -> f64 {
        if self.core.loads == 0 {
            0.0
        } else {
            self.core.served_dram as f64 / self.core.loads as f64
        }
    }

    /// Average total latency of an off-chip load.
    pub fn avg_offchip_latency(&self) -> f64 {
        if self.hier.offchip_loads == 0 {
            0.0
        } else {
            self.hier.offchip_latency_sum as f64 / self.hier.offchip_loads as f64
        }
    }

    /// Average on-chip (hierarchy traversal) portion of an off-chip
    /// load's latency — the removable part Fig. 3 highlights.
    pub fn avg_onchip_portion(&self) -> f64 {
        if self.hier.offchip_loads == 0 {
            0.0
        } else {
            self.hier.offchip_onchip_portion_sum as f64 / self.hier.offchip_loads as f64
        }
    }

    /// dTLB misses per kilo-instruction (zero with `vm: None`).
    pub fn dtlb_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.hier.dtlb_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// STLB misses per kilo-instruction — translation requests that had
    /// to start or join a hardware page walk.
    pub fn stlb_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.hier.stlb_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Average latency of a completed page walk in cycles (STLB-miss
    /// detection to PFN available).
    pub fn avg_walk_cycles(&self) -> f64 {
        if self.hier.walks_completed == 0 {
            0.0
        } else {
            self.hier.walk_cycles_sum as f64 / self.hier.walks_completed as f64
        }
    }
}

/// Complete results of one simulation run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Per-core measurements.
    pub cores: Vec<CoreRunStats>,
    /// Cycles until the slowest core finished its window.
    pub total_cycles: u64,
    /// DRAM statistics over the measurement window.
    pub dram: DramStats,
    /// Power-model breakdown.
    pub power: PowerBreakdown,
    /// Observability report (traces, interval timeline, latency
    /// histograms); `None` unless [`crate::SystemConfig::probe`] was
    /// set.
    pub probe: Option<ProbeReport>,
}

impl RunStats {
    /// IPC of one core.
    pub fn ipc(&self, core: usize) -> f64 {
        self.cores[core].ipc()
    }

    /// Total main-memory requests (reads of all kinds plus writes), the
    /// Fig. 15b / Fig. 22 overhead metric.
    pub fn main_memory_requests(&self) -> u64 {
        self.dram.total_reads() + self.dram.writes
    }

    /// Mean per-core IPC (single-number summary for multi-core runs).
    pub fn mean_ipc(&self) -> f64 {
        hermes_types::mean(&self.cores.iter().map(|c| c.ipc()).collect::<Vec<_>>())
    }

    /// Aggregate predictor stats across cores.
    pub fn pred_total(&self) -> PredictorStats {
        let mut t = PredictorStats::default();
        for c in &self.cores {
            t.tp += c.pred.tp;
            t.fp += c.pred.fp;
            t.fn_ += c.pred.fn_;
            t.tn += c.pred.tn;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_core() -> CoreRunStats {
        CoreRunStats {
            workload: "w".into(),
            category: Category::Spec06,
            instructions: 1000,
            cycles: 2000,
            core: CoreStats {
                loads: 100,
                served_dram: 10,
                ..Default::default()
            },
            hier: CoreHierStats {
                llc_demand_misses: 8,
                offchip_loads: 10,
                offchip_latency_sum: 2000,
                offchip_onchip_portion_sum: 550,
                dtlb_misses: 4,
                stlb_misses: 2,
                walks_completed: 2,
                walk_cycles_sum: 90,
                coh_upgrades: 3,
                coh_invalidations: 5,
                ..Default::default()
            },
            pred: PredictorStats::default(),
        }
    }

    #[test]
    fn derived_metrics() {
        let c = sample_core();
        assert_eq!(c.ipc(), 0.5);
        assert_eq!(c.llc_mpki(), 8.0);
        assert_eq!(c.offchip_rate(), 0.1);
        assert_eq!(c.avg_offchip_latency(), 200.0);
        assert_eq!(c.avg_onchip_portion(), 55.0);
        assert_eq!(c.dtlb_mpki(), 4.0);
        assert_eq!(c.stlb_mpki(), 2.0);
        assert_eq!(c.avg_walk_cycles(), 45.0);
    }

    #[test]
    fn zero_guards() {
        let c = CoreRunStats {
            instructions: 0,
            cycles: 0,
            ..sample_core()
        };
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.llc_mpki(), 0.0);
    }
}
