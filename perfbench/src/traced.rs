//! The traced driver: a re-implementation of `System::new` +
//! `System::run` from the layers' public functions, with every call into
//! a layer timed from outside the program.
//!
//! The driver builds the `AnyCore`s and the `Hierarchy` itself and steps
//! them with the same main loop as `System::run` in its default mode
//! (the calendar queue with idle-cycle fast-forward; other modes are
//! refused). Two shims sit at the layer boundaries the loop cannot see:
//! [`TimedTrace`] wraps the `TraceSource` each core pulls instructions
//! from, and [`TimedPort`] wraps the `MemoryPort` each core tick issues
//! loads and stores through. A core tick's self time is its inclusive time minus the port
//! and trace time spent inside it. The traced run must reproduce the
//! untraced statistics exactly; the benchmark checks that on every job.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use hermes_cpu::{LoadIssue, MemoryPort, ServedBy, StoreIssue};
use hermes_ooo::AnyCore;
use hermes_sim::hierarchy::Hierarchy;
use hermes_sim::power::{PowerBreakdown, PowerModel};
use hermes_sim::sched::CalendarQueue;
use hermes_sim::stats::CoreRunStats;
use hermes_sim::{RunStats, SchedulerModel};
use hermes_trace::{Instr, TraceSource};
use hermes_types::{CoreId, Cycle};

use crate::checks::SimResult;
use crate::workloads::Point;

/// Host nanoseconds since `t`.
fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Accumulated host time and call count of one layer entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Host nanoseconds.
    pub ns: u64,
    /// Calls.
    pub calls: u64,
}

impl Span {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }

    /// Mean nanoseconds per call; `None` without calls.
    pub fn per_call(&self) -> Option<f64> {
        (self.calls > 0).then(|| self.ns as f64 / self.calls as f64)
    }

    /// Merges another span into this one.
    pub fn merge(&mut self, o: &Span) {
        self.ns += o.ns;
        self.calls += o.calls;
    }
}

/// Per-core-model spans, indexed by [`model_index`].
pub type PerModel<T> = [T; 2];

/// `0` for the legacy core, `1` for the out-of-order core.
fn model_index(c: &AnyCore) -> usize {
    match c {
        AnyCore::Legacy(_) => 0,
        AnyCore::Ooo(_) => 1,
    }
}

/// Everything the traced driver measured over one or more jobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// The main loop, warmup and measurement (inclusive).
    pub main_loop: Span,
    /// `Hierarchy::tick`.
    pub hier_tick: Span,
    /// `Hierarchy::issue_load` through the port shim.
    pub issue_load: Span,
    /// `Hierarchy::issue_store` through the port shim.
    pub issue_store: Span,
    /// `TraceSource::next_instr` through the trace shim.
    pub next_instr: Span,
    /// Core ticks, inclusive of port and trace calls, per core model.
    pub core_tick: PerModel<Span>,
    /// Port and trace time spent inside core ticks, per core model.
    pub core_tick_children_ns: PerModel<u64>,
    /// `AnyCore::finish_load`, per core model.
    pub finish_load: PerModel<Span>,
    /// Instructions retired (warmup included), per core model.
    pub retired: PerModel<u64>,
    /// Main-loop iterations (simulated steps).
    pub steps: u64,
    /// `WorkloadSpec::build_for` (trace generator construction).
    pub trace_build: Span,
    /// `Hierarchy::new`.
    pub hierarchy_new: Span,
    /// Sum over measurement steps of the MSHRs in flight (all levels).
    pub mshr_occ_sum: u64,
    /// Measurement steps sampled for `mshr_occ_sum`.
    pub mshr_occ_samples: u64,
    /// Whole traced jobs (set-up plus loop), wall time.
    pub job: Span,
}

impl LayerTimes {
    /// Merges another job's measurements into this one.
    pub fn merge(&mut self, o: &LayerTimes) {
        for (a, b) in [
            (&mut self.main_loop, &o.main_loop),
            (&mut self.hier_tick, &o.hier_tick),
            (&mut self.issue_load, &o.issue_load),
            (&mut self.issue_store, &o.issue_store),
            (&mut self.next_instr, &o.next_instr),
            (&mut self.trace_build, &o.trace_build),
            (&mut self.hierarchy_new, &o.hierarchy_new),
            (&mut self.job, &o.job),
        ] {
            a.merge(b);
        }
        for m in 0..2 {
            self.core_tick[m].merge(&o.core_tick[m]);
            self.core_tick_children_ns[m] += o.core_tick_children_ns[m];
            self.finish_load[m].merge(&o.finish_load[m]);
            self.retired[m] += o.retired[m];
        }
        self.steps += o.steps;
        self.mshr_occ_sum += o.mshr_occ_sum;
        self.mshr_occ_samples += o.mshr_occ_samples;
    }

    /// Instructions retired on every core, warmup included.
    pub fn retired_total(&self) -> u64 {
        self.retired.iter().sum()
    }

    /// Self time of the main loop: everything outside hierarchy ticks,
    /// core ticks and load completions — the fast-forward jump,
    /// `next_event_at`/`next_work_at` polling, the calendar queue and the
    /// completion drain.
    pub fn loop_self_ns(&self) -> u64 {
        let children = self.hier_tick.ns
            + self.core_tick.iter().map(|s| s.ns).sum::<u64>()
            + self.finish_load.iter().map(|s| s.ns).sum::<u64>();
        self.main_loop.ns.saturating_sub(children)
    }

    /// Self time of the core ticks of model `m`.
    pub fn core_tick_self_ns(&self, m: usize) -> u64 {
        self.core_tick[m]
            .ns
            .saturating_sub(self.core_tick_children_ns[m])
    }
}

/// Times every `next_instr` call of the wrapped source.
pub struct TimedTrace {
    inner: Box<dyn TraceSource>,
    span: Rc<Cell<Span>>,
}

impl TraceSource for TimedTrace {
    fn next_instr(&mut self) -> Instr {
        let t = Instant::now();
        let i = self.inner.next_instr();
        let mut s = self.span.get();
        s.add(ns(t));
        self.span.set(s);
        i
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times every load and store a core issues into the hierarchy.
struct TimedPort<'a> {
    hier: &'a mut Hierarchy,
    load: &'a mut Span,
    store: &'a mut Span,
}

impl MemoryPort for TimedPort<'_> {
    fn issue_load(&mut self, req: LoadIssue, now: Cycle) {
        let t = Instant::now();
        self.hier.issue_load(req, now);
        self.load.add(ns(t));
    }

    fn issue_store(&mut self, req: StoreIssue, now: Cycle) {
        let t = Instant::now();
        self.hier.issue_store(req, now);
        self.store.add(ns(t));
    }

    fn note_lifecycle(&mut self, core: CoreId, token: u64, at: Cycle, kind: &'static str) {
        self.hier.note_lifecycle(core, token, at, kind);
    }
}

/// The traced counterpart of `System`.
struct TracedSystem<'p> {
    point: &'p Point,
    cores: Vec<AnyCore>,
    hierarchy: Hierarchy,
    cycle: Cycle,
    /// Source 0 is the hierarchy, sources `1..=n` the cores, as in
    /// `System::run`.
    cal: CalendarQueue,
    finished_buf: Vec<(usize, u64, ServedBy)>,
    trace_span: Rc<Cell<Span>>,
    t: LayerTimes,
}

impl<'p> TracedSystem<'p> {
    /// Mirrors `System::new`.
    fn new(point: &'p Point) -> Self {
        let cfg = &point.cfg;
        assert!(
            cfg.probe.is_none(),
            "the traced driver does not replay probe snapshots"
        );
        assert!(
            cfg.scheduler == SchedulerModel::Calendar && cfg.fast_forward,
            "the traced driver mirrors only the calendar loop with fast-forward"
        );
        cfg.validate();
        let trace_span = Rc::new(Cell::new(Span::default()));
        let mut t = LayerTimes::default();
        let cores = (0..cfg.cores)
            .map(|i| {
                let spec = &point.specs[i % point.specs.len()];
                let t0 = Instant::now();
                let inner = spec.build_for(i);
                t.trace_build.add(ns(t0));
                let trace = TimedTrace {
                    inner,
                    span: Rc::clone(&trace_span),
                };
                AnyCore::new(i, cfg.core.clone(), Box::new(trace))
            })
            .collect();
        let t0 = Instant::now();
        let hierarchy = Hierarchy::new(cfg.clone());
        t.hierarchy_new.add(ns(t0));
        Self {
            point,
            cal: CalendarQueue::new(1 + cfg.cores),
            cores,
            hierarchy,
            cycle: 0,
            finished_buf: Vec::new(),
            trace_span,
            t,
        }
    }

    fn tick_hierarchy(&mut self, now: Cycle) {
        let t0 = Instant::now();
        self.hierarchy.tick(now);
        self.t.hier_tick.add(ns(t0));
    }

    fn deliver_completions(&mut self, now: Cycle) {
        self.hierarchy.drain_finished(&mut self.finished_buf);
        let completions = std::mem::take(&mut self.finished_buf);
        for &(core, token, served) in &completions {
            let c = &mut self.cores[core];
            let m = model_index(c);
            let t0 = Instant::now();
            c.finish_load(token, now, served);
            self.t.finish_load[m].add(ns(t0));
        }
        self.finished_buf = completions;
    }

    fn tick_core(&mut self, i: usize, now: Cycle) {
        let trace_before = self.trace_span.get().ns;
        let (load_before, store_before) = (self.t.issue_load.ns, self.t.issue_store.ns);
        let core = &mut self.cores[i];
        let m = model_index(core);
        let mut port = TimedPort {
            hier: &mut self.hierarchy,
            load: &mut self.t.issue_load,
            store: &mut self.t.issue_store,
        };
        let t0 = Instant::now();
        core.tick(now, &mut port);
        self.t.core_tick[m].add(ns(t0));
        self.t.core_tick_children_ns[m] += (self.trace_span.get().ns - trace_before)
            + (self.t.issue_load.ns - load_before)
            + (self.t.issue_store.ns - store_before);
    }

    /// Mirrors `System::advance_and_step` in calendar mode with
    /// fast-forward on.
    fn advance_and_step(&mut self) {
        self.t.steps += 1;
        let target = self.cal.next_due(self.cycle);
        if target != Cycle::MAX && target > self.cycle {
            let skipped = target - self.cycle;
            for core in &mut self.cores {
                core.skip_stalled(skipped);
            }
            self.cycle = target;
        }
        let now = self.cycle;
        if self.hierarchy.next_event_at() <= now {
            self.tick_hierarchy(now);
        }
        self.deliver_completions(now);
        for i in 0..self.cores.len() {
            if self.cores[i].next_work_at() <= now {
                self.tick_core(i, now);
            } else {
                self.cores[i].skip_stalled(1);
            }
        }
        self.cycle += 1;
        self.cal.publish(0, self.hierarchy.next_event_at());
        for (i, core) in self.cores.iter().enumerate() {
            self.cal.publish(1 + i, core.next_work_at());
        }
    }

    /// Mirrors `System::run` for a probe-free configuration.
    fn run(&mut self) -> RunStats {
        let (warmup, sim) = (self.point.warmup, self.point.instr);
        assert!(sim > 0, "measurement window must be nonzero");
        let n = self.cores.len();
        let budget = (warmup + sim) * 400 + 2_000_000;
        let loop_start = Instant::now();
        let mut sampling_ns = 0;

        while self.cores.iter().any(|c| c.retired() < warmup) {
            self.advance_and_step();
            assert!(self.cycle < budget, "no forward progress during warmup");
        }
        for c in &mut self.cores {
            self.t.retired[model_index(c)] += c.retired();
            c.reset_stats();
        }
        self.hierarchy.reset_stats();
        let measure_start = self.cycle;

        let mut snapshots: Vec<Option<CoreRunStats>> = vec![None; n];
        while snapshots.iter().any(|s| s.is_none()) {
            self.advance_and_step();
            assert!(
                self.cycle < measure_start + budget,
                "no forward progress during measurement"
            );
            // Back-pressure sample, kept out of the loop's self time.
            let t0 = Instant::now();
            self.t.mshr_occ_sum += self.hierarchy.mshrs_in_flight() as u64;
            self.t.mshr_occ_samples += 1;
            sampling_ns += ns(t0);
            for (i, snap) in snapshots.iter_mut().enumerate() {
                if snap.is_none() && self.cores[i].retired() >= sim {
                    let spec = &self.point.specs[i % self.point.specs.len()];
                    *snap = Some(CoreRunStats {
                        workload: spec.name.clone(),
                        category: spec.category,
                        instructions: sim,
                        cycles: self.cycle - measure_start,
                        core: *self.cores[i].stats(),
                        hier: self.hierarchy.core_stats()[i],
                        pred: self.hierarchy.predictor_stats()[i],
                    });
                }
            }
        }
        self.t
            .main_loop
            .add(ns(loop_start).saturating_sub(sampling_ns));
        for c in &self.cores {
            self.t.retired[model_index(c)] += c.retired();
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
}

/// Builds and runs `p` under the traced driver.
pub fn run_traced(p: &Point) -> (SimResult, LayerTimes) {
    let t0 = Instant::now();
    let mut sys = TracedSystem::new(p);
    let stats = sys.run();
    let levels = sys.hierarchy.level_stats();
    let mut t = sys.t;
    t.next_instr = sys.trace_span.get();
    t.job.add(ns(t0));
    (SimResult { stats, levels }, t)
}
