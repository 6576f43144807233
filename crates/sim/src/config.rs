//! System configuration: the paper's Table 4 with builder-style sweeps
//! for every sensitivity study in §8.4 and Appendix B, plus N-level
//! cache topologies via [`SystemConfig::levels`].

use hermes::{HermesConfig, PopetConfig};
use hermes_cache::{CacheConfig, CoherenceConfig, ReplacementKind};
use hermes_cpu::CoreConfig;
use hermes_dram::DramConfig;
use hermes_prefetch::PrefetcherKind;
use hermes_probe::ProbeConfig;
use hermes_vm::VmConfig;

use crate::sched::SchedulerModel;

/// Complete description of a simulated system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of cores (1 or 8 in the paper).
    pub cores: usize,
    /// Core pipeline configuration.
    pub core: CoreConfig,
    /// Cache topology, innermost level first. [`SystemConfig::baseline_1c`]
    /// fills in Table 4's private L1D / private L2 / shared LLC. Each
    /// level's `latency` is the cycles it adds past the level inside it:
    /// 5 for an L1D hit, 10 more for a 15-cycle L2 load-to-use, and 40
    /// more for a 55-cycle LLC load-to-use.
    ///
    /// Sharing follows from position: every level but the last is
    /// private to each core, and the last is shared by all cores, its
    /// size given per core (3 MB/core for the LLC) and scaled with
    /// `cores`. Shape rule (enforced by [`SystemConfig::validate`]): at
    /// least two levels; the last is shared.
    pub levels: Vec<CacheConfig>,
    /// Main memory.
    pub dram: DramConfig,
    /// Address-translation subsystem (TLBs + hardware page-table walker).
    /// `None` — the default everywhere — keeps the historical free
    /// stateless translation, bit-identical to the pre-vm simulator;
    /// `Some` makes translation latency real: a dTLB hit stays parallel
    /// with the L1 (§3.1 of the paper), a miss walks the page table
    /// through this very cache hierarchy, and Hermes's speculative DRAM
    /// read cannot issue before the physical address is known.
    pub vm: Option<VmConfig>,
    /// Directory-style MESI coherence at the shared last level. `None` —
    /// the default everywhere — keeps the historical coherence-free
    /// hierarchy, bit-identical to the pre-coherence simulator (safe as
    /// long as cores touch disjoint physical footprints, which every
    /// non-sharing workload guarantees by construction). `Some` makes
    /// stores acquire write permission: an inclusive sharer directory
    /// piggybacks on the shared level's tags, store hits on Shared lines
    /// pay a directory round trip that invalidates remote copies, reads
    /// of remotely-Modified lines pay a dirty intervention, and shared-
    /// level evictions back-invalidate private copies to keep the
    /// directory inclusive (every level inside the shared last one is
    /// private, so the directory sees every copy). On a single core the
    /// protocol is vacuous (every line is trivially exclusive) and the
    /// simulation stays cycle-exact with `None`.
    pub coherence: Option<CoherenceConfig>,
    /// Data prefetcher at the last cache level (one instance per core).
    pub prefetcher: PrefetcherKind,
    /// Hermes configuration.
    pub hermes: HermesConfig,
    /// POPET configuration (feature set, table sizes, thresholds) used
    /// when `hermes.predictor` is POPET.
    pub popet: PopetConfig,
    /// Observability probe (per-load lifecycle traces, interval metrics
    /// timeline, latency histograms). `None` — the default everywhere —
    /// compiles every hook down to a skipped `if let`, keeps the
    /// simulation byte-identical to a probe-free build, and adds no
    /// allocation; `Some` samples loads deterministically (no RNG, so
    /// runs stay reproducible) and never feeds anything back into
    /// timing: a probed run and an unprobed run of the same workload
    /// produce identical statistics.
    pub probe: Option<ProbeConfig>,
    /// Idle-cycle fast-forward in [`crate::System::run`]: when every core
    /// is blocked on the memory system and no hierarchy event is due,
    /// jump simulated time straight to the next event instead of ticking
    /// through dead cycles. Statistics are provably identical either way
    /// (stall cycles are attributed in bulk); this is purely a wall-clock
    /// optimisation for memory-bound workloads.
    pub fast_forward: bool,
    /// Main-loop engine: the event-driven calendar queue (the default)
    /// or the legacy per-cycle tick loop. The two are cycle-exact on
    /// every config — see [`crate::sched`] — so this knob only affects
    /// wall-clock time (and exists so equivalence stays testable).
    pub scheduler: SchedulerModel,
}

impl SystemConfig {
    /// The single-core baseline of Table 4 — Pythia at the LLC, Hermes
    /// disabled. The L1D, L2 and LLC add 5, 10 and 40 cycles (55 to the
    /// memory controller); see [`SystemConfig::levels`].
    pub fn baseline_1c() -> Self {
        Self {
            cores: 1,
            core: CoreConfig::baseline(),
            levels: vec![
                CacheConfig::new("L1D", 48 * 1024, 12, ReplacementKind::Lru, 16).with_latency(5),
                CacheConfig::new("L2", 1280 * 1024, 20, ReplacementKind::Lru, 48).with_latency(10),
                CacheConfig::new("LLC", 3 << 20, 12, ReplacementKind::Ship, 64).with_latency(40),
            ],
            dram: DramConfig::single_core(),
            vm: None,
            coherence: None,
            prefetcher: PrefetcherKind::Pythia,
            hermes: HermesConfig::disabled(),
            popet: PopetConfig::paper(),
            probe: None,
            fast_forward: true,
            scheduler: SchedulerModel::default(),
        }
    }

    /// The eight-core configuration: shared 24 MB LLC, 4 DRAM channels.
    pub fn baseline_8c() -> Self {
        Self {
            cores: 8,
            dram: DramConfig::eight_core(),
            ..Self::baseline_1c()
        }
    }

    /// Replaces the prefetcher (Fig. 17b sweep).
    pub fn with_prefetcher(mut self, kind: PrefetcherKind) -> Self {
        self.prefetcher = kind;
        self
    }

    /// Replaces the Hermes configuration.
    pub fn with_hermes(mut self, hermes: HermesConfig) -> Self {
        self.hermes = hermes;
        self
    }

    /// Replaces the POPET configuration (feature ablations of Fig. 10/11,
    /// the τ_act sweep of Fig. 17).
    pub fn with_popet(mut self, popet: PopetConfig) -> Self {
        self.popet = popet;
        self
    }

    /// Replaces the ROB size (Fig. 19 sweep).
    pub fn with_rob(mut self, rob: usize) -> Self {
        self.core = self.core.with_rob(rob);
        self
    }

    /// Replaces the load-queue size (LSQ-pressure sweep).
    pub fn with_lq(mut self, lq: usize) -> Self {
        self.core = self.core.with_lq(lq);
        self
    }

    /// Replaces the store-queue size (LSQ-pressure sweep).
    pub fn with_sq(mut self, sq: usize) -> Self {
        self.core = self.core.with_sq(sq);
        self
    }

    /// Replaces the pipeline model (`CoreModel::Legacy`, the default, or
    /// `CoreModel::OoO` for the cycle-driven ROB/RAT/RS/LSQ core).
    pub fn with_core_model(mut self, model: hermes_cpu::CoreModel) -> Self {
        self.core = self.core.with_model(model);
        self
    }

    /// Replaces the per-core size of the last cache level (Fig. 20
    /// sweep), keeping its name, ways, replacement, MSHRs and latency.
    ///
    /// # Panics
    ///
    /// Panics if the size does not yield a power-of-two set count, or if
    /// `levels` is empty.
    pub fn with_llc_size(mut self, bytes_per_core: u64) -> Self {
        let llc = self.llc_mut();
        *llc = CacheConfig::new(
            llc.name.clone(),
            bytes_per_core,
            llc.ways,
            llc.replacement,
            llc.mshrs,
        )
        .with_latency(llc.latency);
        self
    }

    /// Replaces the latency the last cache level adds past the level
    /// inside it (Fig. 17d sweep: the paper varies the LLC access latency
    /// with L1/L2 unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn with_llc_latency(mut self, additional_cycles: u32) -> Self {
        self.llc_mut().latency = additional_cycles;
        self
    }

    fn llc_mut(&mut self) -> &mut CacheConfig {
        self.levels.last_mut().expect("levels is empty")
    }

    /// Replaces the DRAM transfer rate (Fig. 17a sweep).
    pub fn with_mtps(mut self, mtps: u64) -> Self {
        self.dram = self.dram.clone().with_mtps(mtps);
        self
    }

    /// Enables the address-translation subsystem (TLB-pressure sweeps).
    pub fn with_vm(mut self, vm: VmConfig) -> Self {
        self.vm = Some(vm);
        self
    }

    /// Enables directory-MESI coherence at the shared last level
    /// (required for any workload with inter-core shared data).
    pub fn with_coherence(mut self, coherence: CoherenceConfig) -> Self {
        self.coherence = Some(coherence);
        self
    }

    /// Replaces the whole cache topology (innermost level first).
    pub fn with_levels(mut self, levels: Vec<CacheConfig>) -> Self {
        self.levels = levels;
        self
    }

    /// Enables or disables idle-cycle fast-forward (on by default; never
    /// changes results, only wall-clock time).
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Selects the main-loop engine (calendar queue by default; never
    /// changes results, only wall-clock time — see [`crate::sched`]).
    pub fn with_scheduler(mut self, scheduler: SchedulerModel) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Attaches the observability probe (off by default; never changes
    /// results, only records them — see [`SystemConfig::probe`]).
    pub fn with_probe(mut self, probe: ProbeConfig) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Total one-way latency from issue to the memory controller — the
    /// sum of per-level lookup latencies (55 in the baseline): the cycles
    /// Hermes can shave off an off-chip load.
    pub fn hierarchy_latency(&self) -> u32 {
        self.levels.iter().map(|l| l.latency).sum()
    }

    /// The geometry of the last (shared) cache level as instantiated for
    /// this core count — Table 4's "3 MB/core" scaling.
    pub fn shared_llc(&self) -> CacheConfig {
        self.levels
            .last()
            .expect("validate() enforces >= 2 levels")
            .scaled(self.cores)
    }

    /// Validates the composite configuration.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters or a topology violating the
    /// shape rule of [`SystemConfig::levels`].
    pub fn validate(&self) {
        assert!(self.cores >= 1);
        self.core.validate();
        self.dram.validate();
        if let Some(vm) = &self.vm {
            vm.validate(self.cores);
        }
        let levels = &self.levels;
        assert!(
            levels.len() >= 2,
            "hierarchy needs at least two levels (got {})",
            levels.len()
        );
        // The shared level's scaled geometry must still index sets.
        let _ = self.shared_llc();
        if let Some(coh) = &self.coherence {
            coh.validate(self.cores);
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::baseline_1c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes::PredictorKind;

    #[test]
    fn baseline_matches_table4() {
        let c = SystemConfig::baseline_1c();
        assert_eq!(c.levels[0].sets(), 64);
        assert_eq!(c.levels[1].sets(), 1024);
        assert_eq!(c.levels[2].sets(), 4096);
        assert_eq!(c.hierarchy_latency(), 55);
        assert_eq!(c.prefetcher, PrefetcherKind::Pythia);
        assert!(!c.hermes.enabled());
        c.validate();
    }

    #[test]
    fn eight_core_scales_llc() {
        let c = SystemConfig::baseline_8c();
        assert_eq!(c.shared_llc().size_bytes, 24 << 20);
        assert_eq!(c.dram.channels, 4);
        c.validate();
    }

    #[test]
    fn default_topology_matches_classic_fields() {
        let c = SystemConfig::baseline_1c();
        assert!(c.fast_forward);
        let levels = &c.levels;
        assert_eq!(levels.len(), 3);
        assert_eq!(
            levels.iter().map(|l| l.latency).collect::<Vec<_>>(),
            vec![5, 10, 40]
        );
        // The shared last level scales exactly like shared_llc().
        let inst = levels[2].scaled(8);
        let llc = SystemConfig::baseline_8c().shared_llc();
        assert_eq!(inst.size_bytes, llc.size_bytes);
        assert_eq!(inst.mshrs, llc.mshrs);
    }

    /// L1D / L2 / a private 2 MB L3 / the shared LLC.
    fn four_level() -> SystemConfig {
        let base = SystemConfig::baseline_1c();
        base.clone().with_levels(vec![
            base.levels[0].clone(),
            base.levels[1].clone(),
            CacheConfig::new("L3", 2 << 20, 16, ReplacementKind::Lru, 48).with_latency(15),
            base.levels[2].clone(),
        ])
    }

    #[test]
    fn explicit_topology_drives_latency_and_validation() {
        let base = SystemConfig::baseline_1c();
        let c = four_level();
        assert_eq!(c.levels.len(), 4);
        assert_eq!(c.hierarchy_latency(), 70);
        c.validate();
        let two = base
            .clone()
            .with_levels(vec![base.levels[0].clone(), base.levels[2].clone()]);
        assert_eq!(two.hierarchy_latency(), 45);
        two.validate();
    }

    #[test]
    fn llc_builders_edit_last_level_of_explicit_topology() {
        let c = four_level();
        let base_latency = c.hierarchy_latency();
        let d = c.clone().with_llc_latency(40 + 7).with_llc_size(6 << 20);
        assert_eq!(d.hierarchy_latency(), base_latency + 7);
        assert_eq!(d.shared_llc().size_bytes, 6 << 20);
        let llc = &d.levels[3];
        assert_eq!(llc.name, "LLC");
        assert_eq!(
            (llc.ways, llc.replacement, llc.mshrs),
            (12, ReplacementKind::Ship, 64)
        );
        assert_eq!(d.levels[..3], c.levels[..3]);
        d.validate();
    }

    #[test]
    fn shared_llc_follows_explicit_topology() {
        let base = SystemConfig::baseline_1c();
        let c = base.clone().with_levels(vec![
            base.levels[0].clone(),
            CacheConfig::new("LLC", 1 << 20, 16, ReplacementKind::Lru, 32).with_latency(30),
        ]);
        let llc = c.shared_llc();
        assert_eq!(llc.size_bytes, 1 << 20);
        assert_eq!(llc.latency, 30);
    }

    #[test]
    #[should_panic(expected = "at least two levels")]
    fn single_level_topology_rejected() {
        let base = SystemConfig::baseline_1c();
        base.clone()
            .with_levels(vec![base.levels[2].clone()])
            .validate();
    }

    #[test]
    fn coherence_config_attaches_and_validates() {
        let c = SystemConfig::baseline_8c().with_coherence(CoherenceConfig::baseline());
        assert!(c.coherence.is_some());
        c.validate();
        assert!(
            SystemConfig::baseline_1c().coherence.is_none(),
            "coherence off by default"
        );
    }

    #[test]
    fn probe_config_attaches_and_defaults_off() {
        assert!(
            SystemConfig::baseline_1c().probe.is_none(),
            "probe off by default"
        );
        let c = SystemConfig::baseline_1c().with_probe(ProbeConfig::baseline());
        assert_eq!(c.probe.as_ref().map(|p| p.sample_period), Some(64));
        c.validate();
    }

    #[test]
    fn vm_config_attaches_and_validates() {
        let c = SystemConfig::baseline_1c().with_vm(VmConfig::baseline());
        assert!(c.vm.is_some());
        c.validate();
        assert!(
            SystemConfig::baseline_1c().vm.is_none(),
            "vm off by default"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_vm_geometry_rejected() {
        use hermes_vm::TlbConfig;
        SystemConfig::baseline_1c()
            .with_vm(VmConfig::baseline().with_dtlb(TlbConfig::new(48, 4, 0)))
            .validate();
    }

    #[test]
    fn sweep_builders() {
        let c = SystemConfig::baseline_1c()
            .with_prefetcher(PrefetcherKind::Bingo)
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
            .with_rob(256)
            .with_llc_size(6 << 20)
            .with_llc_latency(50)
            .with_mtps(1600);
        assert_eq!(c.prefetcher, PrefetcherKind::Bingo);
        assert!(c.hermes.enabled());
        assert_eq!(c.core.rob_size, 256);
        assert_eq!(c.shared_llc().size_bytes, 6 << 20);
        assert_eq!(c.hierarchy_latency(), 65);
        assert_eq!(c.dram.mtps, 1600);
        c.validate();
    }
}
