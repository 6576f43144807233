//! Core configuration.

/// Which pipeline model a core instantiates.
///
/// `Legacy` is the original dependency-scheduled dataflow model
/// ([`crate::Core`]): completion times propagate eagerly through the
/// dependence graph with no issue-bandwidth limit, which is cheap and
/// pinned bit-for-bit by the repository goldens. `OoO` selects the
/// cycle-driven out-of-order core in `hermes-ooo` (RAT renaming, unified
/// reservation stations with wakeup/select, a load/store queue with
/// store-to-load forwarding) — the model the paper's deep-ROB overlap
/// argument actually needs.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum CoreModel {
    /// The dependency-scheduled model (default; byte-identical to every
    /// pre-`CoreModel` simulator output).
    #[default]
    Legacy,
    /// The cycle-driven ROB/RAT/RS/LSQ core.
    OoO(OooConfig),
}

/// Geometry of the out-of-order core's scheduling structures. ROB, load
/// queue, and store queue sizes come from the surrounding
/// [`CoreConfig`]; this adds only what the legacy model has no notion
/// of.
#[derive(Debug, Clone, PartialEq)]
pub struct OooConfig {
    /// Unified reservation-station entries shared by every instruction
    /// class (97, Table 4's scheduler size).
    pub rs_entries: usize,
    /// Instructions the select stage may start per cycle (6, matching
    /// fetch/retire width).
    pub issue_width: usize,
    /// Address-generation latency for loads and stores in cycles (1).
    pub agen_latency: u32,
}

impl OooConfig {
    /// The paper's baseline scheduler geometry.
    pub fn baseline() -> Self {
        Self {
            rs_entries: 97,
            issue_width: 6,
            agen_latency: 1,
        }
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized structures.
    pub fn validate(&self) {
        assert!(self.rs_entries > 0 && self.issue_width > 0);
        assert!(self.agen_latency > 0, "agen must take at least one cycle");
    }
}

impl Default for OooConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Static configuration of one out-of-order core (Table 4 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Instructions fetched/dispatched per cycle (6).
    pub fetch_width: usize,
    /// Instructions retired per cycle (6).
    pub retire_width: usize,
    /// Reorder-buffer entries (512; swept 256–1024 in Fig. 19).
    pub rob_size: usize,
    /// Load-queue entries (128).
    pub lq_size: usize,
    /// Store-queue entries (72).
    pub sq_size: usize,
    /// Branch misprediction penalty in cycles (17).
    pub branch_penalty: u32,
    /// Which pipeline model to instantiate.
    pub model: CoreModel,
}

impl CoreConfig {
    /// The paper's baseline core.
    pub fn baseline() -> Self {
        Self {
            fetch_width: 6,
            retire_width: 6,
            rob_size: 512,
            lq_size: 128,
            sq_size: 72,
            branch_penalty: 17,
            model: CoreModel::Legacy,
        }
    }

    /// Returns a copy with a different ROB size (Fig. 19 sweep).
    pub fn with_rob(mut self, rob: usize) -> Self {
        assert!(rob >= 16, "ROB too small to cover pipeline depth");
        self.rob_size = rob;
        self
    }

    /// Returns a copy with a different load-queue size (LSQ-pressure
    /// sweep).
    pub fn with_lq(mut self, lq: usize) -> Self {
        assert!(lq > 0, "load queue cannot be empty");
        self.lq_size = lq;
        self
    }

    /// Returns a copy with a different store-queue size (LSQ-pressure
    /// sweep).
    pub fn with_sq(mut self, sq: usize) -> Self {
        assert!(sq > 0, "store queue cannot be empty");
        self.sq_size = sq;
        self
    }

    /// Returns a copy running the given pipeline model.
    pub fn with_model(mut self, model: CoreModel) -> Self {
        self.model = model;
        self
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized structures.
    pub fn validate(&self) {
        assert!(self.fetch_width > 0 && self.retire_width > 0);
        assert!(self.rob_size > 0 && self.lq_size > 0 && self.sq_size > 0);
        if let CoreModel::OoO(o) = &self.model {
            o.validate();
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table4() {
        let c = CoreConfig::baseline();
        assert_eq!(c.rob_size, 512);
        assert_eq!(c.lq_size, 128);
        assert_eq!(c.sq_size, 72);
        assert_eq!(c.fetch_width, 6);
        assert_eq!(c.branch_penalty, 17);
        c.validate();
    }

    #[test]
    fn rob_sweep() {
        let c = CoreConfig::baseline().with_rob(1024);
        assert_eq!(c.rob_size, 1024);
    }

    #[test]
    #[should_panic]
    fn tiny_rob_rejected() {
        let _ = CoreConfig::baseline().with_rob(4);
    }

    #[test]
    fn default_model_is_legacy() {
        assert_eq!(CoreConfig::baseline().model, CoreModel::Legacy);
        assert_eq!(CoreModel::default(), CoreModel::Legacy);
    }

    #[test]
    fn ooo_model_validates() {
        let c = CoreConfig::baseline().with_model(CoreModel::OoO(OooConfig::baseline()));
        c.validate();
        assert_eq!(OooConfig::baseline().rs_entries, 97);
        assert_eq!(OooConfig::baseline().issue_width, 6);
    }

    #[test]
    #[should_panic]
    fn zero_rs_rejected() {
        let bad = OooConfig {
            rs_entries: 0,
            ..OooConfig::baseline()
        };
        CoreConfig::baseline()
            .with_model(CoreModel::OoO(bad))
            .validate();
    }
}
