//! Per-job correctness checks and stats digests.
//!
//! Every simulated job is checked against the accounting identities the
//! simulator maintains, and every repeated run of a job must reproduce
//! the same digest. A core that misses its quota trips `System::run`'s
//! forward-progress assert, which the benchmark catches as a failed job.
//! A failed check fails the job; the benchmark counts failed jobs against
//! attempted ones and exits nonzero.

use hermes_cache::LevelStats;
use hermes_sim::RunStats;

use crate::workloads::Point;

/// Everything one simulation of a point produced.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The run's statistics.
    pub stats: RunStats,
    /// Per-level cache statistics after the run, innermost first.
    pub levels: Vec<(String, LevelStats)>,
}

impl SimResult {
    /// FNV-1a 64 over the full `Debug` rendering of the statistics: equal
    /// exactly when every simulated counter is equal.
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{:?}{:?}", self.stats, self.levels).as_bytes())
    }
}

/// FNV-1a 64.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Combines per-job digests (in batch order) into one workload digest.
pub fn combine(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Checks one run of `p` against the simulator's accounting identities;
/// returns a description of every violation (empty when correct).
pub fn check_run(p: &Point, r: &SimResult) -> Vec<String> {
    let mut bad = Vec::new();
    for (i, c) in r.stats.cores.iter().enumerate() {
        let served = c.core.served_l1 + c.core.served_l2 + c.core.served_llc + c.core.served_dram;
        if served != c.core.loads {
            bad.push(format!(
                "core {i}: {} loads retired but {served} served",
                c.core.loads
            ));
        }
        // Hermes trains its predictor exactly once per finished demand
        // load, labelled by whether the load went off-chip.
        let h = &p.cfg.hermes;
        if !h.enabled() {
            if c.pred.total() != 0 || c.hier.hermes_requests != 0 {
                bad.push(format!("core {i}: predictor activity with Hermes off"));
            }
        } else if !h.coh_features && c.pred.tp + c.pred.fn_ != c.hier.offchip_loads {
            bad.push(format!(
                "core {i}: tp+fn = {} but {} off-chip loads finished",
                c.pred.tp + c.pred.fn_,
                c.hier.offchip_loads
            ));
        }
        if p.cfg.vm.is_none() && (c.hier.dtlb_accesses != 0 || c.hier.walks_completed != 0) {
            bad.push(format!("core {i}: translation activity with vm off"));
        }
    }
    for (name, l) in &r.levels {
        if l.hits + l.misses != l.accesses {
            bad.push(format!(
                "{name}: hits {} + misses {} != accesses {}",
                l.hits, l.misses, l.accesses
            ));
        }
    }
    bad
}
