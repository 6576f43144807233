//! Equivalence and export-validity tests for the hermes-probe
//! observability layer.
//!
//! The probe's contract is that it is *invisible*: attaching it to any
//! configuration must reproduce every deterministic counter bit-for-bit,
//! on single-core and multi-core coherent runs alike. The checks compare
//! [`common::digest`], every counter the simulator reports.

mod common;

use hermes_repro::hermes::{HermesConfig, PredictorKind};
use hermes_repro::hermes_probe::{validate_json, LatClass, ProbeConfig};
use hermes_repro::hermes_sim::{system::run_one, SystemConfig};
use hermes_repro::hermes_trace::suite;
use hermes_repro::hermes_vm::VmConfig;

/// An intrusive probe configuration: dense sampling and a short interval
/// so every hook path fires many times within a smoke window.
fn dense_probe() -> ProbeConfig {
    ProbeConfig::baseline()
        .with_sample_period(4)
        .with_interval(1_500)
}

#[test]
fn probe_is_invisible_1core() {
    let smoke = suite::smoke_suite();
    let configs: Vec<(&str, SystemConfig)> = vec![
        ("baseline", SystemConfig::baseline_1c()),
        (
            "hermes-o-popet",
            SystemConfig::baseline_1c().with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
        (
            "hermes+vm",
            SystemConfig::baseline_1c()
                .with_vm(VmConfig::baseline())
                .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
        ),
    ];
    for (name, cfg) in configs {
        for spec in [&smoke[0], &smoke[1]] {
            let one = std::slice::from_ref(spec);
            let (off_digest, off) = common::run(cfg.clone(), one, 3_000, 8_000);
            let (on_digest, on) =
                common::run(cfg.clone().with_probe(dense_probe()), one, 3_000, 8_000);
            assert_eq!(
                off_digest, on_digest,
                "probe perturbed {name}/{}",
                spec.name
            );
            assert!(off.probe.is_none(), "probe-off run must not carry a report");
            let report = on.probe.expect("probe-on run must carry a report");
            assert!(
                !report.intervals.is_empty(),
                "{name}/{}: empty interval timeline",
                spec.name
            );
        }
    }
}

#[test]
fn probe_is_invisible_4core_coherent() {
    use hermes_repro::hermes_cache::CoherenceConfig;
    let specs = suite::sharing_suite(500);
    let cfg = |probe: Option<ProbeConfig>| {
        let mut c = SystemConfig {
            cores: 4,
            ..SystemConfig::baseline_1c()
        }
        .with_coherence(CoherenceConfig::baseline())
        .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
        if let Some(p) = probe {
            c = c.with_probe(p);
        }
        c
    };
    for spec in &specs {
        let one = std::slice::from_ref(spec);
        let (off_digest, off) = common::run(cfg(None), one, 2_000, 6_000);
        let (on_digest, on) = common::run(cfg(Some(dense_probe())), one, 2_000, 6_000);
        assert_eq!(
            off_digest, on_digest,
            "probe perturbed 4-core coherent run of {}",
            spec.name
        );
        // The run actually exercised coherence, so the equivalence above
        // covered the intervention hook too.
        let traffic: u64 = off
            .cores
            .iter()
            .map(|c| c.hier.coh_invalidations + c.hier.coh_dirty_forwards)
            .sum();
        assert!(traffic > 0, "{} generated no coherence traffic", spec.name);
        assert!(!on.probe.expect("report").traces.is_empty());
    }
}

#[test]
fn probe_exports_are_valid_and_complete() {
    let smoke = suite::smoke_suite();
    let cfg = SystemConfig::baseline_1c()
        .with_vm(VmConfig::baseline())
        .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
        .with_probe(dense_probe());
    let r = run_one(cfg, &smoke[0], 3_000, 8_000);
    let report = r.probe.expect("probe report");

    // Chrome trace: one JSON document, non-trivial, machine-valid.
    let trace = report.to_chrome_trace();
    validate_json(&trace).unwrap_or_else(|(off, msg)| {
        panic!("chrome trace invalid at byte {off}: {msg}");
    });
    assert!(!report.traces.is_empty(), "chase must sample some loads");
    assert!(trace.contains("\"predict\""), "missing prediction events");
    assert!(
        trace.starts_with("{\"traceEvents\": ["),
        "missing format marker"
    );

    // Interval timeline: >= 2 snapshots, each line is valid JSON.
    let jsonl = report.to_interval_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() >= 2, "timeline has {} snapshots", lines.len());
    for (i, l) in lines.iter().enumerate() {
        validate_json(l).unwrap_or_else(|(off, msg)| {
            panic!("interval line {i} invalid at byte {off}: {msg}");
        });
    }

    // Latency histograms: the chase is off-chip bound, so the off-chip
    // class dominates, and every served load landed in exactly one class.
    let total: u64 = [LatClass::L1, LatClass::L2, LatClass::Llc, LatClass::Offchip]
        .iter()
        .map(|&c| report.lat_hist(c).count())
        .sum();
    let served: u64 = r.cores[0].core.served_l1
        + r.cores[0].core.served_l2
        + r.cores[0].core.served_llc
        + r.cores[0].core.served_dram;
    assert_eq!(total, served, "histograms must cover every served load");
    assert!(report.lat_hist(LatClass::Offchip).count() > 0);
    assert!(
        report.lat_hist(LatClass::Offchip).quantile_log2(0.5)
            > report.lat_hist(LatClass::L1).quantile_log2(0.5).max(1.0),
        "off-chip median latency must exceed L1's"
    );
    // The vm subsystem was on, so walks were timed.
    assert!(report.lat_walk.count() > 0, "no walk latency samples");
}

#[test]
fn probe_sampling_caps_trace_count() {
    let smoke = suite::smoke_suite();
    let capped = ProbeConfig::baseline()
        .with_sample_period(1)
        .with_max_trace_loads(10);
    let cfg = SystemConfig::baseline_1c()
        .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet))
        .with_probe(capped);
    let r = run_one(cfg, &smoke[0], 2_000, 6_000);
    let report = r.probe.expect("probe report");
    assert_eq!(
        report.traces.len(),
        10,
        "trace cap must bound memory, sampling period 1 must fill it"
    );
    // Histograms are not sampled: they still cover every served load.
    let total: u64 = [LatClass::L1, LatClass::L2, LatClass::Llc, LatClass::Offchip]
        .iter()
        .map(|&c| report.lat_hist(c).count())
        .sum();
    assert!(total > 10, "histograms must not be capped with the traces");
}
