//! `probe_demo` — exercises the hermes-probe observability layer
//! end-to-end and emits its artifacts.
//!
//! Runs Hermes-O/POPET on the pointer chase (with the vm subsystem on, so
//! page-walk events and walk-latency histograms are populated) with the
//! probe attached, then writes:
//!
//! * `target/experiments/probe_demo_trace.json` — sampled per-load
//!   lifecycle traces in Chrome/Perfetto `trace_event` format (open in
//!   `ui.perfetto.dev`);
//! * `target/experiments/probe_demo_intervals.jsonl` — the interval
//!   metrics timeline, one JSON object per interval.
//!
//! Both artifacts are validated with the probe's own JSON checker before
//! the experiment reports success, and the run's statistics are compared
//! against an identical probe-off run — the render panics on invalid
//! JSON, a missing timeline, or any statistics divergence, so the
//! experiment fails and its binary (or `run_all`) exits nonzero, which
//! makes it the CI gate for the observability layer. The experiment has
//! no grid points: its render runs the simulator directly (not through
//! the engine or its result cache), because its product is the
//! artifacts, not cacheable scalars.
//!
//! Flags: the usual `--quick` / `--full` / `--record` (`--jobs N` is
//! accepted but unused: the experiment submits no points).

use std::fs;
use std::path::PathBuf;

use crate::{f3, Experiment, Results, Scale, Table};
use hermes::{HermesConfig, PredictorKind};
use hermes_probe::{validate_json, LatClass, ProbeConfig};
use hermes_sim::system::run_one;
use hermes_sim::SystemConfig;
use hermes_trace::suite;
use hermes_vm::VmConfig;

pub const EXPERIMENT: Experiment = Experiment {
    id: "probe_demo",
    title: "Observability probe: lifecycle traces, interval timeline, latency histograms",
    scale: Scale::clone,
    points: |_| Vec::new(),
    render,
};

fn render(_: &Results, scale: &Scale) -> String {
    let spec = &suite::smoke_suite()[0]; // pointer chase: off-chip bound
    let cfg = SystemConfig::baseline_1c()
        .with_vm(VmConfig::baseline())
        .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
    // The baseline 20k-cycle interval gives ~20 snapshots on the
    // `--quick` window (a memory-bound chase runs at well under 0.1 IPC); 1-in-16
    // sampling keeps the trace readable while catching plenty of loads.
    let probe = ProbeConfig::baseline().with_sample_period(16);

    let plain = run_one(cfg.clone(), spec, scale.warmup, scale.instr);
    let probed = run_one(cfg.with_probe(probe), spec, scale.warmup, scale.instr);

    // The probe must be invisible to the simulation proper.
    let mut failures = Vec::new();
    if plain.total_cycles != probed.total_cycles
        || plain.dram.reads_demand != probed.dram.reads_demand
        || plain.cores[0].pred != probed.cores[0].pred
    {
        failures.push(format!(
            "probe perturbed the run: {} vs {} cycles",
            plain.total_cycles, probed.total_cycles
        ));
    }
    let report = probed.probe.as_ref().expect("probe was configured");

    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    let trace_path = dir.join("probe_demo_trace.json");
    let intervals_path = dir.join("probe_demo_intervals.jsonl");

    let trace = report.to_chrome_trace();
    if let Err((off, msg)) = validate_json(&trace) {
        failures.push(format!("trace JSON invalid at byte {off}: {msg}"));
    }
    fs::write(&trace_path, &trace).expect("write trace");

    let jsonl = report.to_interval_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    if lines.len() < 2 {
        failures.push(format!(
            "interval timeline has {} snapshots, need >= 2",
            lines.len()
        ));
    }
    for (i, l) in lines.iter().enumerate() {
        if let Err((off, msg)) = validate_json(l) {
            failures.push(format!("interval line {i} invalid at byte {off}: {msg}"));
        }
    }
    fs::write(&intervals_path, &jsonl).expect("write intervals");

    let mut t = Table::new(&["metric", "value"]);
    let off = report.lat_hist(LatClass::Offchip);
    t.row(&["traced loads".into(), format!("{}", report.traces.len())]);
    t.row(&[
        "lifecycle events".into(),
        format!(
            "{}",
            report
                .traces
                .iter()
                .map(|tr| tr.events.len())
                .sum::<usize>()
        ),
    ]);
    t.row(&["interval snapshots".into(), format!("{}", lines.len())]);
    t.row(&["off-chip loads (hist)".into(), format!("{}", off.count())]);
    t.row(&["off-chip latency p50".into(), f3(off.quantile_log2(0.5))]);
    t.row(&["off-chip latency p95".into(), f3(off.quantile_log2(0.95))]);
    t.row(&[
        "LLC-hit latency p50".into(),
        f3(report.lat_hist(LatClass::Llc).quantile_log2(0.5)),
    ]);
    t.row(&[
        "walk latency p95".into(),
        f3(report.lat_walk.quantile_log2(0.95)),
    ]);

    assert!(
        failures.is_empty(),
        "probe_demo self-check failed:\n{}",
        failures.join("\n")
    );
    eprintln!(
        "probe_demo OK: {} traces, {} snapshots, artifacts validated",
        report.traces.len(),
        lines.len()
    );
    format!(
        "Pointer chase, {}+{} instructions, Hermes-O/POPET with the vm \
         subsystem on, probe sampling 1-in-16 loads. A probe-off run of \
         the identical configuration produced identical statistics \
         (checked cycle-for-cycle by this binary). Artifacts:\n\n\
         * `{}` — Chrome/Perfetto trace (open in ui.perfetto.dev)\n\
         * `{}` — interval metrics timeline (JSONL)\n\n{}",
        scale.warmup,
        scale.instr,
        trace_path.display(),
        intervals_path.display(),
        t.to_markdown(),
    )
}
