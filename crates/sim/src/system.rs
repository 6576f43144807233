//! The top-level simulation runner.

use hermes_cpu::ServedBy;
use hermes_ooo::AnyCore;
use hermes_probe::IntervalInput;
use hermes_trace::WorkloadSpec;
use hermes_types::Cycle;

use crate::config::SystemConfig;
use crate::hierarchy::Hierarchy;
use crate::power::{PowerBreakdown, PowerModel};
use crate::sched::{CalendarQueue, SchedulerModel};
use crate::stats::{CoreRunStats, RunStats};

/// A full simulated system: cores plus the shared memory hierarchy.
///
/// See the crate docs for an end-to-end example. The run methodology
/// follows §7 of the paper: warm up, reset statistics, measure until every
/// core has retired the measurement quota (cores that finish early keep
/// executing so multi-core contention stays live, as the paper's replay
/// rule prescribes).
pub struct System {
    cores: Vec<AnyCore>,
    hierarchy: Hierarchy,
    specs: Vec<WorkloadSpec>,
    cycle: Cycle,
    fast_forward: bool,
    scheduler: SchedulerModel,
    finished_buf: Vec<(usize, u64, ServedBy)>,
}

/// The calendar loop's state for one [`System::run`]: the
/// [`CalendarQueue`], which holds each source's cached wake-up time, and
/// each core's stall-accounting frontier.
///
/// Source 0 is the hierarchy (event heap, retry queue, page walks, DRAM
/// channels), sources 1..=n are the cores. A core's state changes only
/// through its own tick or a `finish_load` to it, so its `next_work_at`
/// is recomputed only then. A core that is not ticked at a cycle is
/// owed that cycle as a stall: `accounted[i]` is core `i`'s first cycle
/// not yet counted, and [`Calendar::catch_up`] counts the owed span in
/// one `skip_stalled` call before anything reads or changes the core.
/// Over that span the core's state is frozen, so one bulk call counts
/// exactly what per-cycle `skip_stalled(1)` calls would have.
struct Calendar {
    /// Source 0: the hierarchy's `next_event_at` after the last step;
    /// source `1 + i`: core `i`'s `next_work_at` after its last tick or
    /// delivery.
    queue: CalendarQueue,
    /// Each core's first cycle whose stall is not yet counted.
    accounted: Vec<Cycle>,
}

impl Calendar {
    /// Publishes every source's current wake-up time; every core is
    /// accounted up to `now`.
    fn new(hierarchy: &Hierarchy, cores: &[AnyCore], now: Cycle) -> Self {
        let mut cal = Self {
            queue: CalendarQueue::new(1 + cores.len()),
            accounted: vec![now; cores.len()],
        };
        cal.queue.publish(0, hierarchy.next_event_at());
        for (i, core) in cores.iter().enumerate() {
            cal.refresh(i, core);
        }
        cal
    }

    /// Re-reads and publishes core `i`'s wake-up time after its state
    /// changed.
    #[inline]
    fn refresh(&mut self, i: usize, core: &AnyCore) {
        self.queue.publish(1 + i, core.next_work_at());
    }

    /// Counts core `i`'s owed stall cycles up to (excluding) `to`.
    #[inline]
    fn catch_up(&mut self, i: usize, core: &mut AnyCore, to: Cycle) {
        core.skip_stalled(to - self.accounted[i]);
        self.accounted[i] = to;
    }
}

impl System {
    /// Builds a system; workload `i % workloads.len()` runs on core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty.
    pub fn new(cfg: SystemConfig, workloads: &[WorkloadSpec]) -> Self {
        assert!(!workloads.is_empty(), "need at least one workload");
        cfg.validate();
        let cores = (0..cfg.cores)
            .map(|i| {
                let spec = &workloads[i % workloads.len()];
                // Core-aware instantiation: sharing generators derive a
                // role/lane from the index; every historical generator
                // ignores it, keeping homogeneous mixes bit-identical.
                // `AnyCore` picks the pipeline model from `cfg.core.model`
                // (legacy dependency-scheduled by default).
                AnyCore::new(i, cfg.core.clone(), spec.build_for(i))
            })
            .collect();
        let specs: Vec<WorkloadSpec> = (0..cfg.cores)
            .map(|i| workloads[i % workloads.len()].clone())
            .collect();
        Self {
            cores,
            fast_forward: cfg.fast_forward,
            scheduler: cfg.scheduler,
            hierarchy: Hierarchy::new(cfg),
            specs,
            cycle: 0,
            finished_buf: Vec::new(),
        }
    }

    /// Idle-cycle fast-forward: if neither the hierarchy nor any core can
    /// do real work before some future cycle `t`, jump straight to `t`,
    /// attributing the skipped cycles to the cores' stall counters in
    /// bulk. Statistics are identical to ticking through the gap — every
    /// skipped tick would have been pure stall accounting — so this is
    /// purely a wall-clock optimisation (large on memory-bound phases
    /// where whole DRAM round trips idle the machine).
    fn fast_forward_jump(&mut self) {
        if !self.fast_forward {
            return;
        }
        let mut target = self.hierarchy.next_event_at();
        for core in &self.cores {
            target = target.min(core.next_work_at());
        }
        // `Cycle::MAX` means nothing will ever happen — fall through to
        // normal stepping so the forward-progress assertions fire.
        if target == Cycle::MAX || target <= self.cycle {
            return;
        }
        let skipped = target - self.cycle;
        for core in &mut self.cores {
            core.skip_stalled(skipped);
        }
        self.cycle = target;
    }

    fn step(&mut self) {
        let now = self.cycle;
        self.hierarchy.tick(now);
        self.hierarchy.drain_finished(&mut self.finished_buf);
        // Move completions out to appease the borrow checker cheaply.
        let completions = std::mem::take(&mut self.finished_buf);
        for &(core, token, served) in &completions {
            self.cores[core].finish_load(token, now, served);
        }
        self.finished_buf = completions;
        for core in &mut self.cores {
            core.tick(now, &mut self.hierarchy);
        }
        self.cycle += 1;
    }

    /// One iteration of the main loop under either scheduler model:
    /// advance simulated time to the next cycle with due work, then run
    /// that cycle.
    ///
    /// `cal` is `Some` exactly in calendar mode. The calendar iteration
    /// simulates the identical trajectory to `fast_forward_jump` +
    /// [`System::step`], but touches only due components: ticking the
    /// hierarchy strictly before its `next_event_at` is a no-op, and
    /// ticking a core strictly before its `next_work_at` is equivalent
    /// to `skip_stalled(1)` (the same contract idle-cycle fast-forward
    /// is built on). A core that is not due is not called at all; its
    /// idle cycles are owed and counted in one `skip_stalled` call
    /// ([`Calendar::catch_up`]) right before anything next reads or
    /// changes it. Due-ness of each core is evaluated *after* this
    /// cycle's load completions are delivered, since a delivery can wake
    /// a core at this very cycle.
    fn advance_and_step(&mut self, cal: Option<&mut Calendar>) {
        let Some(cal) = cal else {
            self.fast_forward_jump();
            self.step();
            return;
        };
        // Jump the gap to the earliest published event (gated on the
        // same knob as the tick loop's fast-forward; with it off the
        // loop still steps every cycle, only skipping idle components).
        // The skipped cycles are owed by every core, counted lazily.
        let target = cal.queue.next_due(self.cycle);
        if self.fast_forward && target != Cycle::MAX && target > self.cycle {
            self.cycle = target;
        }
        let now = self.cycle;
        if cal.queue.at(0) <= now {
            self.hierarchy.tick(now);
        }
        self.hierarchy.drain_finished(&mut self.finished_buf);
        let completions = std::mem::take(&mut self.finished_buf);
        for &(core, token, served) in &completions {
            cal.catch_up(core, &mut self.cores[core], now);
            self.cores[core].finish_load(token, now, served);
            cal.refresh(core, &self.cores[core]);
        }
        self.finished_buf = completions;
        for (i, core) in self.cores.iter_mut().enumerate() {
            if cal.queue.at(1 + i) <= now {
                cal.catch_up(i, core, now);
                core.tick(now, &mut self.hierarchy);
                cal.accounted[i] = now + 1;
                cal.refresh(i, core);
            }
        }
        self.cycle += 1;
        cal.queue.publish(0, self.hierarchy.next_event_at());
    }

    /// Runs `warmup` instructions per core untimed (statistics discarded),
    /// then measures until every core has retired `sim` instructions.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails to make forward progress (a cycle
    /// budget of 400 CPI per instruction is exceeded), which indicates a
    /// protocol bug rather than a slow workload.
    pub fn run(&mut self, warmup: u64, sim: u64) -> RunStats {
        assert!(sim > 0, "measurement window must be nonzero");
        let n = self.cores.len();
        let budget = (warmup + sim) * 400 + 2_000_000;

        // Calendar mode owns a `Calendar` (see its docs). It persists
        // across the warmup/measure boundary (resetting statistics never
        // moves an event). Its cores may owe stall cycles, so the warmup
        // reset, the probe's snapshots and the end of the run first
        // settle them; the tick loop owes none.
        let mut cal = match self.scheduler {
            SchedulerModel::Calendar => {
                Some(Calendar::new(&self.hierarchy, &self.cores, self.cycle))
            }
            SchedulerModel::Tick => None,
        };

        // Phase 1: warmup. The gap jump runs *before* each step, off the
        // state the previous step left behind, so the cycle recorded
        // after any step (measure boundaries, snapshots) is untouched by
        // skipping.
        while self.cores.iter().any(|c| c.retired() < warmup) {
            self.advance_and_step(cal.as_mut());
            assert!(self.cycle < budget, "no forward progress during warmup");
        }
        self.settle(cal.as_mut());
        for c in &mut self.cores {
            c.reset_stats();
        }
        self.hierarchy.reset_stats();
        let measure_start = self.cycle;

        // Phase 2: measurement.
        let probe_interval = self
            .hierarchy
            .probe_config()
            .map(|p| p.interval)
            .filter(|&iv| iv > 0);
        let mut next_snap = probe_interval.unwrap_or(0);
        let mut last_snap: Option<Cycle> = None;
        let mut snapshots: Vec<Option<CoreRunStats>> = vec![None; n];
        while snapshots.iter().any(|s| s.is_none()) {
            self.advance_and_step(cal.as_mut());
            assert!(
                self.cycle < measure_start + budget,
                "no forward progress during measurement"
            );
            if let Some(iv) = probe_interval {
                let elapsed = self.cycle - measure_start;
                if elapsed >= next_snap {
                    self.settle(cal.as_mut());
                    self.probe_snapshot(measure_start);
                    last_snap = Some(elapsed);
                    // One snapshot per crossing: a fast-forward jump
                    // spanning several boundaries collapses them into a
                    // single interval whose `dcycles` records the true
                    // span.
                    while next_snap <= elapsed {
                        next_snap += iv;
                    }
                }
            }
            for (i, snap) in snapshots.iter_mut().enumerate() {
                if snap.is_none() && self.cores[i].retired() >= sim {
                    // A core reaches its quota only by retiring, in its
                    // tick at this step, so it owes no stall cycles here.
                    debug_assert!(cal.as_ref().is_none_or(|c| c.accounted[i] == self.cycle));
                    *snap = Some(CoreRunStats {
                        workload: self.specs[i].name.clone(),
                        category: self.specs[i].category,
                        instructions: sim,
                        cycles: self.cycle - measure_start,
                        core: *self.cores[i].stats(),
                        hier: self.hierarchy.core_stats()[i],
                        pred: self.hierarchy.predictor_stats()[i],
                    });
                }
            }
        }
        // Leave every core fully accounted, as the tick loop does.
        self.settle(cal.as_mut());
        // A closing snapshot captures the tail interval (and guarantees
        // the timeline is nonempty on runs shorter than one interval).
        if probe_interval.is_some() && last_snap != Some(self.cycle - measure_start) {
            self.probe_snapshot(measure_start);
        }
        let cores: Vec<CoreRunStats> = snapshots
            .into_iter()
            .map(|s| s.expect("loop exits when all set"))
            .collect();

        let dram = *self.hierarchy.dram_stats();
        let instructions: u64 = cores.iter().map(|c| c.instructions).sum();
        let predictions: u64 = cores.iter().map(|c| c.pred.total()).sum();
        let pf_accesses: u64 = cores.iter().map(|c| c.hier.llc_demand_accesses).sum();
        let power = PowerBreakdown::compute(
            &PowerModel::default(),
            &cores.iter().map(|c| c.hier).collect::<Vec<_>>(),
            &dram,
            instructions,
            predictions,
            pf_accesses,
        );
        RunStats {
            total_cycles: self.cycle - measure_start,
            cores,
            dram,
            power,
            probe: self.hierarchy.probe_report(),
        }
    }

    /// Calendar mode: counts every core's owed stall cycles up to the
    /// current cycle (no-op in tick mode, where no core owes any).
    fn settle(&mut self, cal: Option<&mut Calendar>) {
        if let Some(cal) = cal {
            for (i, core) in self.cores.iter_mut().enumerate() {
                cal.catch_up(i, core, self.cycle);
            }
        }
    }

    /// Feeds the probe one interval snapshot built from the live
    /// measurement counters (no-op with the probe off).
    fn probe_snapshot(&mut self, measure_start: Cycle) {
        let (rq_busy, rq_cap, wq_busy, wq_cap) = self.hierarchy.dram_occupancy(self.cycle);
        let input = IntervalInput {
            cycle: self.cycle - measure_start,
            retired: self.cores.iter().map(|c| c.retired()).collect(),
            pred: self
                .hierarchy
                .predictor_stats()
                .iter()
                .map(|p| [p.tp, p.fp, p.fn_, p.tn])
                .collect(),
            spec: self
                .hierarchy
                .core_stats()
                .iter()
                .map(|s| [s.spec_reads_useful, s.spec_reads_wasted])
                .collect(),
            level_misses: self
                .hierarchy
                .level_stats()
                .into_iter()
                .map(|(name, s)| (name, s.misses))
                .collect(),
            rob_occ: self.cores.iter().map(|c| c.rob_occupancy()).collect(),
            lsq_occ: self.cores.iter().map(|c| c.lsq_occupancy()).collect(),
            dram_rq: (rq_busy, rq_cap),
            dram_wq: (wq_busy, wq_cap),
            walks_in_flight: self.hierarchy.walks_in_flight(),
        };
        self.hierarchy.probe_snapshot(input);
    }

    /// The hierarchy (for oracle-style inspection in tests).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }
}

/// Convenience: build-and-run a single-workload system.
pub fn run_one(cfg: SystemConfig, spec: &WorkloadSpec, warmup: u64, sim: u64) -> RunStats {
    System::new(cfg, std::slice::from_ref(spec)).run(warmup, sim)
}

/// Owned-argument variant of [`run_one`], usable as a job entry point on
/// worker threads (no borrowed data crosses the thread boundary). The
/// trace generator is instantiated inside the call, so every invocation
/// is independent and deterministic given `(cfg, spec, warmup, sim)`.
pub fn run_job(cfg: SystemConfig, spec: WorkloadSpec, warmup: u64, sim: u64) -> RunStats {
    run_one(cfg, &spec, warmup, sim)
}

// `run_job` must stay usable from parallel executors: everything that
// crosses into a worker thread has to be `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SystemConfig>();
    assert_send::<WorkloadSpec>();
    assert_send::<RunStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use hermes::{HermesConfig, PredictorKind};
    use hermes_prefetch::PrefetcherKind;
    use hermes_trace::suite;

    fn small_cfg() -> SystemConfig {
        SystemConfig::baseline_1c().with_prefetcher(PrefetcherKind::None)
    }

    #[test]
    fn baseline_run_produces_sane_stats() {
        let spec = &suite::smoke_suite()[0]; // pointer chase
        let stats = run_one(small_cfg(), spec, 2_000, 10_000);
        let c = &stats.cores[0];
        assert_eq!(c.instructions, 10_000);
        assert!(c.cycles > 0);
        assert!(c.ipc() > 0.01 && c.ipc() < 6.0, "IPC {}", c.ipc());
        assert!(c.core.loads > 0);
        assert!(c.hier.llc_demand_misses > 0, "chase must miss LLC");
        assert!(stats.dram.reads_demand > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = &suite::smoke_suite()[0];
        let a = run_one(small_cfg(), spec, 1_000, 5_000);
        let b = run_one(small_cfg(), spec, 1_000, 5_000);
        assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
        assert_eq!(a.dram.reads_demand, b.dram.reads_demand);
    }

    #[test]
    fn stream_hits_after_warmup_with_prefetcher() {
        let spec = &suite::smoke_suite()[1]; // stream
        let nopf = run_one(small_cfg(), spec, 5_000, 20_000);
        let pf = run_one(
            small_cfg().with_prefetcher(PrefetcherKind::Pythia),
            spec,
            5_000,
            20_000,
        );
        assert!(
            pf.cores[0].ipc() > nopf.cores[0].ipc() * 1.05,
            "Pythia must speed up a stream: {} vs {}",
            pf.cores[0].ipc(),
            nopf.cores[0].ipc()
        );
    }

    #[test]
    fn hermes_with_ideal_predictor_speeds_up_chase() {
        let spec = &suite::smoke_suite()[0]; // pointer chase: off-chip bound
        let base = run_one(small_cfg(), spec, 2_000, 10_000);
        let hermes = run_one(
            small_cfg().with_hermes(HermesConfig::hermes_o(PredictorKind::Ideal)),
            spec,
            2_000,
            10_000,
        );
        assert!(
            hermes.cores[0].ipc() > base.cores[0].ipc() * 1.05,
            "ideal Hermes must accelerate a chase: {} vs {}",
            hermes.cores[0].ipc(),
            base.cores[0].ipc()
        );
    }

    #[test]
    fn popet_accuracy_reasonable_on_chase() {
        let spec = &suite::smoke_suite()[0];
        let stats = run_one(
            small_cfg().with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
            spec,
            10_000,
            30_000,
        );
        let p = stats.cores[0].pred;
        assert!(p.total() > 0);
        assert!(
            p.accuracy() > 0.5,
            "POPET accuracy {} on a chase",
            p.accuracy()
        );
        assert!(
            p.coverage() > 0.5,
            "POPET coverage {} on a chase",
            p.coverage()
        );
    }

    #[test]
    fn multicore_completes_all_cores() {
        let cfg = SystemConfig {
            cores: 2,
            ..SystemConfig::baseline_1c().with_prefetcher(PrefetcherKind::None)
        };
        let specs = suite::smoke_suite();
        let stats = System::new(cfg, &specs[0..2]).run(1_000, 5_000);
        assert_eq!(stats.cores.len(), 2);
        for c in &stats.cores {
            assert_eq!(c.instructions, 5_000);
            assert!(c.cycles > 0);
        }
    }

    #[test]
    #[should_panic]
    fn zero_sim_window_rejected() {
        let spec = suite::smoke_suite().remove(0);
        let _ = run_one(small_cfg(), &spec, 0, 0);
    }

    #[test]
    fn probe_records_without_perturbing_results() {
        use hermes_probe::{LatClass, ProbeConfig};
        let spec = &suite::smoke_suite()[0];
        let cfg = small_cfg().with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
        let base = run_one(cfg.clone(), spec, 2_000, 10_000);
        let probed = run_one(
            cfg.with_probe(
                ProbeConfig::baseline()
                    .with_interval(2_000)
                    .with_sample_period(8),
            ),
            spec,
            2_000,
            10_000,
        );
        // The probe only observes: cycle-exact results either way.
        assert_eq!(base.cores[0].cycles, probed.cores[0].cycles);
        assert_eq!(base.dram.reads_demand, probed.dram.reads_demand);
        assert_eq!(base.cores[0].pred, probed.cores[0].pred);
        assert!(base.probe.is_none(), "probe off by default");
        let r = probed.probe.expect("probe report present");
        assert!(r.intervals.len() >= 2, "10k instr / 2k-cycle intervals");
        assert!(!r.traces.is_empty(), "1-in-8 sampling must catch loads");
        assert!(r.lat_hist(LatClass::Offchip).count() > 0);
        assert!(
            r.traces
                .iter()
                .any(|t| t.events.iter().any(|e| e.kind == "predict")),
            "sampled loads carry POPET predictions"
        );
    }

    #[test]
    fn vm_subsystem_runs_and_counts_translation() {
        use hermes_vm::{TlbConfig, VmConfig};
        let spec = &suite::smoke_suite()[0]; // chase: big random footprint
        let vm = VmConfig::baseline().with_dtlb(TlbConfig::new(16, 4, 0));
        let base = run_one(small_cfg(), spec, 2_000, 10_000);
        let v = run_one(small_cfg().with_vm(vm), spec, 2_000, 10_000);
        let h = &v.cores[0].hier;
        assert!(h.dtlb_accesses >= v.cores[0].core.loads);
        assert!(h.dtlb_misses > 0, "16-entry dTLB must miss on a chase");
        assert!(h.stlb_misses > 0 && h.walks_completed > 0);
        assert!(
            h.walk_mem_accesses >= h.walks_completed,
            "every walk reads at least the leaf PTE"
        );
        assert!(h.walk_cycles_sum > 0);
        // Translation latency is real: the run cannot get faster.
        assert!(
            v.cores[0].cycles >= base.cores[0].cycles,
            "vm on: {} cycles vs {} off",
            v.cores[0].cycles,
            base.cores[0].cycles
        );
        // The vm-off hierarchy reports no translation activity at all.
        assert_eq!(base.cores[0].hier.dtlb_accesses, 0);
        assert_eq!(base.cores[0].hier.walks_completed, 0);
    }

    #[test]
    fn huge_pages_relieve_tlb_pressure() {
        use hermes_vm::{TlbConfig, VmConfig};
        let spec = &suite::smoke_suite()[0];
        let tiny_tlb = VmConfig::baseline()
            .with_dtlb(TlbConfig::new(16, 4, 0))
            .with_stlb(TlbConfig::new(128, 8, 8));
        let small = run_one(small_cfg().with_vm(tiny_tlb.clone()), spec, 2_000, 10_000);
        let huge = run_one(
            small_cfg().with_vm(tiny_tlb.with_huge_page_pm(1000)),
            spec,
            2_000,
            10_000,
        );
        // A 2 MB page covers 512x the reach: misses must drop sharply.
        assert!(
            huge.cores[0].hier.stlb_misses * 4 < small.cores[0].hier.stlb_misses,
            "huge pages should slash STLB misses: {} vs {}",
            huge.cores[0].hier.stlb_misses,
            small.cores[0].hier.stlb_misses
        );
    }

    #[test]
    fn hermes_still_wins_under_translation_pressure() {
        use hermes_vm::VmConfig;
        let spec = &suite::smoke_suite()[0];
        let cfg = small_cfg().with_vm(VmConfig::baseline());
        let base = run_one(cfg.clone(), spec, 2_000, 10_000);
        let hermes = run_one(
            cfg.with_hermes(HermesConfig::hermes_o(PredictorKind::Ideal)),
            spec,
            2_000,
            10_000,
        );
        assert!(
            hermes.cores[0].ipc() > base.cores[0].ipc() * 1.02,
            "ideal Hermes must still accelerate a chase with vm on: {} vs {}",
            hermes.cores[0].ipc(),
            base.cores[0].ipc()
        );
    }
}
