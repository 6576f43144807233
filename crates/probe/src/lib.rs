//! `hermes-probe` — the default-off observability layer of the Hermes
//! reproduction.
//!
//! Every subsystem finding so far was diagnosed from end-of-run
//! aggregate counters; this crate gives the simulator the telemetry the
//! paper's own analysis is built on:
//!
//! 1. **Per-load lifecycle tracing** — a deterministic 1-in-N sample of
//!    demand loads (by per-core sequence token, no RNG) records a
//!    timeline of events (issue, POPET prediction + confidence, filter
//!    verdict, per-level miss, speculative-read issue, TLB walk
//!    start/end, coherence intervention, DRAM enqueue/fill, retire),
//!    exported as Chrome/Perfetto `trace_event` JSON
//!    ([`ProbeReport::to_chrome_trace`]) so a run opens in
//!    `ui.perfetto.dev`.
//! 2. **Interval metrics timeline** — every K cycles of the measurement
//!    window a snapshot of per-core IPC, per-level MPKI, predictor
//!    confusion-matrix deltas, speculative-read useful/wasted counts,
//!    and DRAM queue occupancy lands in a JSONL stream
//!    ([`ProbeReport::to_interval_jsonl`]), making phase behaviour
//!    visible over time.
//! 3. **Latency histograms** — log2-bucketed distributions
//!    ([`hermes_types::Hist`]) of load latency per serving level
//!    (off-chip latency included) and page-walk latency.
//!
//! The probe is held by the simulator as `Option<Box<Probe>>` behind
//! `SystemConfig::probe`: with `None` (the default everywhere) no probe
//! code runs at all and results are byte-identical to a probe-less
//! build. With `Some`, every hook is observation-only — the probe never
//! feeds back into timing, so simulated statistics are bit-identical
//! either way (pinned by the `tests/probe.rs` equivalence suite).
//!
//! This crate depends only on `hermes-types`; the simulator passes
//! primitives (core ids, tokens, raw line addresses, cycle counts) so no
//! dependency cycle forms.

pub mod interval;
pub mod json;
pub mod trace;

use hermes_types::{Cycle, FastMap, Hist};

pub use interval::{CoreInterval, IntervalInput, IntervalSnapshot};
pub use json::{escape_json, validate_json};
pub use trace::{LoadEvent, TracedLoad};

/// Which class of serving level a finished load's latency belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatClass {
    /// First-level hit.
    L1,
    /// Intermediate-level hit.
    L2,
    /// Last-level (shared) hit.
    Llc,
    /// Off-chip (DRAM or coherence-served at the off-chip boundary).
    Offchip,
}

impl LatClass {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            LatClass::L1 => "l1",
            LatClass::L2 => "l2",
            LatClass::Llc => "llc",
            LatClass::Offchip => "offchip",
        }
    }
}

/// Probe configuration. All knobs are deterministic — sampling is by
/// sequence token, never by RNG or wall clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Trace one load in `sample_period` (by per-core load token;
    /// `token % sample_period == 0` is traced). 0 disables tracing.
    pub sample_period: u64,
    /// Cycles between interval snapshots during the measurement window.
    /// 0 disables the interval timeline.
    pub interval: u64,
    /// Hard cap on traced loads per run, bounding trace memory and
    /// export size.
    pub max_trace_loads: usize,
}

impl ProbeConfig {
    /// Defaults sized for a demo/diagnostic run: 1-in-64 loads traced,
    /// a snapshot every 20k cycles, at most 4096 traced loads.
    pub fn baseline() -> Self {
        Self {
            sample_period: 64,
            interval: 20_000,
            max_trace_loads: 4096,
        }
    }

    /// Replaces the trace sampling period.
    pub fn with_sample_period(mut self, p: u64) -> Self {
        self.sample_period = p;
        self
    }

    /// Replaces the interval-snapshot length.
    pub fn with_interval(mut self, k: u64) -> Self {
        self.interval = k;
        self
    }

    /// Replaces the traced-load cap.
    pub fn with_max_trace_loads(mut self, n: usize) -> Self {
        self.max_trace_loads = n;
        self
    }
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Everything a probe collected over one measurement window, detached
/// from the live simulator and ready for export. Carried on `RunStats`
/// when the probe was enabled.
#[derive(Debug, Clone, Default)]
pub struct ProbeReport {
    /// Load latency by serving class, log2-bucketed. Indexed by
    /// [`LatClass`] discriminant order: l1, l2, llc, offchip.
    pub lat: [Hist; 4],
    /// Completed page-walk latency, log2-bucketed.
    pub lat_walk: Hist,
    /// Sampled load lifecycles (retired and still-in-flight).
    pub traces: Vec<TracedLoad>,
    /// Interval timeline, oldest first.
    pub intervals: Vec<IntervalSnapshot>,
}

impl ProbeReport {
    /// The latency histogram for `class`.
    pub fn lat_hist(&self, class: LatClass) -> &Hist {
        &self.lat[class as usize]
    }
}

/// The live collector threaded through the memory hierarchy. All
/// methods are observation-only; none returns data the simulator acts
/// on.
#[derive(Debug)]
pub struct Probe {
    cfg: ProbeConfig,
    traces: Vec<TracedLoad>,
    /// Active traced loads by packed (core << 48 | token) key.
    by_key: FastMap<u64, usize>,
    /// Active traced loads by raw line address (several sampled loads
    /// may target one line).
    by_line: FastMap<u64, Vec<usize>>,
    lat: [Hist; 4],
    lat_walk: Hist,
    intervals: Vec<IntervalSnapshot>,
    /// Previous cumulative totals, for interval deltas.
    prev: Option<IntervalInput>,
}

fn key(core: usize, token: u64) -> u64 {
    ((core as u64) << 48) | token
}

impl Probe {
    /// Builds a probe for `cfg`.
    pub fn new(cfg: ProbeConfig) -> Self {
        Self {
            cfg,
            traces: Vec::new(),
            by_key: FastMap::default(),
            by_line: FastMap::default(),
            lat: [Hist::new(); 4],
            lat_walk: Hist::new(),
            intervals: Vec::new(),
            prev: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ProbeConfig {
        &self.cfg
    }

    /// Drops everything collected so far (warmup → measurement
    /// boundary): exports describe the measurement window only.
    pub fn reset(&mut self) {
        self.traces.clear();
        self.by_key.clear();
        self.by_line.clear();
        self.lat = [Hist::new(); 4];
        self.lat_walk = Hist::new();
        self.intervals.clear();
        self.prev = None;
    }

    /// Whether the load identified by `token` would be sampled.
    pub fn samples(&self, token: u64) -> bool {
        self.cfg.sample_period != 0 && token.is_multiple_of(self.cfg.sample_period)
    }

    /// A demand load issued. Starts a trace if the token falls on the
    /// sampling grid and the cap has room.
    pub fn on_issue(&mut self, core: usize, token: u64, pc: u64, line: u64, now: Cycle) {
        if !self.samples(token) || self.traces.len() >= self.cfg.max_trace_loads {
            return;
        }
        let idx = self.traces.len();
        self.traces
            .push(TracedLoad::new(core, token, pc, line, now));
        self.by_key.insert(key(core, token), idx);
        self.by_line.entry(line).or_default().push(idx);
    }

    /// The off-chip predictor spoke at issue: outcome, perceptron
    /// confidence, whether a speculative read fired, and the
    /// second-level filter's verdict (`None` when the filter was not
    /// consulted).
    pub fn on_prediction(
        &mut self,
        core: usize,
        token: u64,
        go_offchip: bool,
        confidence: i32,
        fired: bool,
        filter_allowed: Option<bool>,
    ) {
        let Some(&idx) = self.by_key.get(&key(core, token)) else {
            return;
        };
        let t = &mut self.traces[idx];
        let verdict = match filter_allowed {
            None => "",
            Some(true) => " filter=allow",
            Some(false) => " filter=veto",
        };
        t.push(
            t.issue,
            "predict",
            format!("offchip={go_offchip} conf={confidence} fired={fired}{verdict}"),
        );
    }

    /// A token-keyed lifecycle event (walk start/end, retire-adjacent
    /// markers).
    pub fn on_load_event(&mut self, core: usize, token: u64, now: Cycle, kind: &'static str) {
        if let Some(&idx) = self.by_key.get(&key(core, token)) {
            self.traces[idx].push(now, kind, String::new());
        }
    }

    /// A line-keyed event scoped to one core's traced loads (per-level
    /// miss, speculative-read issue, coherence intervention, DRAM
    /// enqueue).
    pub fn on_core_line_event(
        &mut self,
        core: usize,
        line: u64,
        now: Cycle,
        kind: &'static str,
        detail: &str,
    ) {
        let Some(idxs) = self.by_line.get(&line) else {
            return;
        };
        // Tiny vectors: the clone sidesteps the double borrow without
        // measurable cost on a sampled path.
        for idx in idxs.clone() {
            if self.traces[idx].core == core {
                self.traces[idx].push(now, kind, detail.to_string());
            }
        }
    }

    /// A line-keyed event visible to every core's traced loads of that
    /// line (a DRAM fill serves whichever cores merged on it).
    pub fn on_line_event(&mut self, line: u64, now: Cycle, kind: &'static str) {
        let Some(idxs) = self.by_line.get(&line) else {
            return;
        };
        for idx in idxs.clone() {
            self.traces[idx].push(now, kind, String::new());
        }
    }

    /// A demand load finished. Records its latency histogram sample
    /// (every load, sampled or not) and closes the trace if one is open.
    #[allow(clippy::too_many_arguments)]
    pub fn on_finish(
        &mut self,
        core: usize,
        token: u64,
        line: u64,
        class: LatClass,
        latency: Cycle,
        spec_fired: bool,
        now: Cycle,
    ) {
        self.lat[class as usize].record_log2(latency);
        // The token key stays registered: the out-of-order core reports
        // pipeline lifecycle markers (dispatch/complete/retire) at
        // retirement, after the memory system has finished the load, and
        // those must still append to the closed trace. Retention is
        // bounded: keys are only registered while `traces` has room
        // (`max_trace_loads`), and tokens are never reused.
        let Some(&idx) = self.by_key.get(&key(core, token)) else {
            return;
        };
        if let Some(v) = self.by_line.get_mut(&line) {
            v.retain(|&i| i != idx);
            if v.is_empty() {
                self.by_line.remove(&line);
            }
        }
        let t = &mut self.traces[idx];
        if spec_fired {
            let kind = if class == LatClass::Offchip {
                "spec_read_useful"
            } else {
                "spec_read_wasted"
            };
            t.push(now, kind, String::new());
        }
        t.finish(now, class.label());
    }

    /// A hardware page walk completed in `latency` cycles.
    pub fn record_walk_latency(&mut self, latency: Cycle) {
        self.lat_walk.record_log2(latency);
    }

    /// The interval length (0 = timeline disabled).
    pub fn interval(&self) -> u64 {
        self.cfg.interval
    }

    /// Takes an interval snapshot from cumulative `totals`, storing the
    /// delta against the previous snapshot.
    pub fn snapshot(&mut self, totals: IntervalInput) {
        let snap = IntervalSnapshot::delta(self.prev.as_ref(), &totals);
        self.intervals.push(snap);
        self.prev = Some(totals);
    }

    /// Number of snapshots taken so far.
    pub fn snapshots(&self) -> usize {
        self.intervals.len()
    }

    /// Detaches everything collected into an exportable report.
    pub fn report(&self) -> ProbeReport {
        ProbeReport {
            lat: self.lat,
            lat_walk: self.lat_walk,
            traces: self.traces.clone(),
            intervals: self.intervals.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe() -> Probe {
        Probe::new(ProbeConfig {
            sample_period: 2,
            interval: 100,
            max_trace_loads: 8,
        })
    }

    #[test]
    fn sampling_is_deterministic_by_token() {
        let p = probe();
        assert!(p.samples(0));
        assert!(!p.samples(1));
        assert!(p.samples(2));
        let off = Probe::new(ProbeConfig::baseline().with_sample_period(0));
        assert!(!off.samples(0));
    }

    #[test]
    fn lifecycle_events_attach_to_the_sampled_load() {
        let mut p = probe();
        p.on_issue(0, 0, 0x400, 0xAA, 10); // sampled
        p.on_issue(0, 1, 0x404, 0xBB, 11); // not sampled
        p.on_prediction(0, 0, true, 7, true, Some(true));
        p.on_core_line_event(0, 0xAA, 15, "llc_miss", "");
        p.on_core_line_event(1, 0xAA, 16, "llc_miss", ""); // other core: ignored
        p.on_line_event(0xAA, 200, "dram_fill");
        p.on_finish(0, 0, 0xAA, LatClass::Offchip, 190, true, 200);
        p.on_finish(0, 1, 0xBB, LatClass::L1, 5, false, 16);
        let r = p.report();
        assert_eq!(r.traces.len(), 1);
        let t = &r.traces[0];
        assert_eq!(t.retire, Some(200));
        assert_eq!(t.served, "offchip");
        let kinds: Vec<&str> = t.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            ["predict", "llc_miss", "dram_fill", "spec_read_useful"]
        );
        // Both loads' latencies landed in the histograms.
        assert_eq!(r.lat_hist(LatClass::Offchip).count(), 1);
        assert_eq!(r.lat_hist(LatClass::L1).count(), 1);
    }

    #[test]
    fn post_finish_lifecycle_events_still_attach() {
        // The out-of-order core reports dispatch/complete/retire markers
        // at retirement — after on_finish has closed the trace. They must
        // still append to the finished trace.
        let mut p = probe();
        p.on_issue(0, 0, 0x400, 0xAA, 10);
        p.on_finish(0, 0, 0xAA, LatClass::Offchip, 190, false, 200);
        p.on_load_event(0, 0, 5, "ooo_dispatch");
        p.on_load_event(0, 0, 200, "ooo_complete");
        p.on_load_event(0, 0, 210, "ooo_retire");
        let t = &p.report().traces[0];
        assert_eq!(t.retire, Some(200));
        let kinds: Vec<&str> = t.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["ooo_dispatch", "ooo_complete", "ooo_retire"]);
    }

    #[test]
    fn trace_cap_bounds_memory() {
        let mut p = Probe::new(ProbeConfig {
            sample_period: 1,
            interval: 0,
            max_trace_loads: 3,
        });
        for t in 0..10 {
            p.on_issue(0, t, 0, t, t);
        }
        assert_eq!(p.report().traces.len(), 3);
    }

    #[test]
    fn reset_drops_warmup_state() {
        let mut p = probe();
        p.on_issue(0, 0, 0, 1, 0);
        p.record_walk_latency(50);
        p.reset();
        let r = p.report();
        assert!(r.traces.is_empty());
        assert!(r.lat_walk.is_empty());
        // A post-reset finish for the dropped trace is a no-op on the
        // trace side but still records the latency sample.
        p.on_finish(0, 0, 1, LatClass::L1, 5, false, 10);
        assert_eq!(p.report().traces.len(), 0);
        assert_eq!(p.report().lat_hist(LatClass::L1).count(), 1);
    }
}
