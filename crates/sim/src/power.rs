//! Event-energy power model (the §8.5 / Fig. 18 substitution for McPAT).
//!
//! Dynamic energy is event count × per-event energy, with per-structure
//! energies in the ratio a McPAT run of this configuration produces (SRAM
//! access energy grows with array size; DRAM channel traffic dominates the
//! "bus" component). Fig. 18 reports *normalized dynamic power*, which is
//! exactly the ratio of these totals per unit time — insensitive to the
//! absolute calibration constant, which is why an event-energy model
//! preserves the figure's shape.

use hermes_dram::controller::DramStats;

use crate::hierarchy::CoreHierStats;

/// Per-event energies in nanojoules (relative magnitudes follow McPAT
/// characterisations of comparable arrays at 22 nm).
///
/// The three cache energies map onto the N-level hierarchy by role, as
/// [`CoreHierStats`] does: `e_l1` prices first-level accesses, `e_l2`
/// every intermediate level, `e_llc` the last level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// One first-level (L1D) access.
    pub e_l1: f64,
    /// One intermediate-level (L2/L3) access.
    pub e_l2: f64,
    /// One last-level cache access.
    pub e_llc: f64,
    /// One DRAM read or write (line transfer, row activation amortised).
    pub e_dram: f64,
    /// One POPET prediction+training pass (five 5-bit table reads).
    pub e_popet: f64,
    /// One prefetcher table access.
    pub e_prefetcher: f64,
    /// Per-instruction core energy ("Others" in Fig. 18).
    pub e_instr: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            e_l1: 0.03,
            e_l2: 0.09,
            e_llc: 0.45,
            e_dram: 16.0,
            e_popet: 0.004,
            e_prefetcher: 0.03,
            e_instr: 0.08,
        }
    }
}

/// Dynamic-energy breakdown of a run, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// L1D dynamic energy.
    pub l1: f64,
    /// L2 dynamic energy.
    pub l2: f64,
    /// LLC dynamic energy.
    pub llc: f64,
    /// DRAM/bus dynamic energy.
    pub bus: f64,
    /// Off-chip predictor energy.
    pub predictor: f64,
    /// Prefetcher metadata energy.
    pub prefetcher: f64,
    /// Core/other energy.
    pub other: f64,
}

impl PowerBreakdown {
    /// Computes the breakdown from event counts.
    pub fn compute(
        model: &PowerModel,
        cores: &[CoreHierStats],
        dram: &DramStats,
        instructions: u64,
        predictions: u64,
        prefetcher_accesses: u64,
    ) -> Self {
        let l1_acc: u64 = cores.iter().map(|c| c.l1_accesses).sum();
        let l2_acc: u64 = cores.iter().map(|c| c.l2_accesses).sum();
        let llc_acc: u64 = cores.iter().map(|c| c.llc_demand_accesses).sum();
        Self {
            l1: l1_acc as f64 * model.e_l1,
            l2: l2_acc as f64 * model.e_l2,
            llc: llc_acc as f64 * model.e_llc,
            bus: (dram.total_reads() + dram.writes) as f64 * model.e_dram,
            predictor: predictions as f64 * model.e_popet,
            prefetcher: prefetcher_accesses as f64 * model.e_prefetcher,
            other: instructions as f64 * model.e_instr,
        }
    }

    /// Total dynamic energy.
    pub fn total(&self) -> f64 {
        self.l1 + self.l2 + self.llc + self.bus + self.predictor + self.prefetcher + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_dominates_for_memory_bound_runs() {
        let model = PowerModel::default();
        let cores = vec![CoreHierStats {
            l1_accesses: 1000,
            l2_accesses: 100,
            llc_demand_accesses: 50,
            ..Default::default()
        }];
        let dram = DramStats {
            reads_demand: 40,
            writes: 10,
            ..Default::default()
        };
        let p = PowerBreakdown::compute(&model, &cores, &dram, 5000, 1000, 50);
        assert!(p.bus > p.l1 + p.l2 + p.llc);
        assert!(p.total() > 0.0);
    }

    #[test]
    fn popet_energy_is_tiny() {
        let model = PowerModel::default();
        let cores = vec![CoreHierStats {
            l1_accesses: 1000,
            ..Default::default()
        }];
        let dram = DramStats::default();
        let p = PowerBreakdown::compute(&model, &cores, &dram, 1000, 1000, 0);
        assert!(
            p.predictor < 0.2 * p.l1,
            "POPET must cost far less than L1 traffic"
        );
    }
}
