//! Tests of the benchmark harness itself, at tiny windows.

use perfbench::checks::check_run;
use perfbench::e2e::{measure, run_direct};
use perfbench::kernels::KernelSize;
use perfbench::traced::run_traced;
use perfbench::workloads::{workload, Sizing, Workload, WORKLOADS};
use perfbench::{run, Options};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Held by every test that creates result-cache roots (engine passes and
/// the traced run's engine-overhead replay), so the leftover-root check
/// sees no other test's roots in flight.
static CACHE_ROOTS: Mutex<()> = Mutex::new(());

fn cache_roots() -> MutexGuard<'static, ()> {
    CACHE_ROOTS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tiny(name: &str, seed: u64) -> Workload {
    workload(name, seed, &Sizing::TINY).expect("known workload")
}

fn tiny_options(name: &str, trace: bool) -> Options {
    Options {
        sizing: Sizing::TINY,
        kernels: KernelSize::TINY,
        ..Options::bench(name, 0, 0.0, trace)
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares, in order.
fn declared_metrics() -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    text.split("{\"name\": \"")
        .skip(1)
        .filter_map(|frag| {
            let name = frag.split('"').next()?;
            let unit = frag.split("\"unit\": \"").nth(1)?.split('"').next()?;
            // Workload entries have a `why`, not a unit, before the next
            // object.
            (!frag.split('}').next()?.contains("\"why\""))
                .then(|| (name.to_string(), unit.to_string()))
        })
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_declared() {
    let _roots = cache_roots();
    let declared = declared_metrics();
    assert!(!declared.is_empty());
    for trace in [false, true] {
        let out = run(&tiny_options("mix-4c-vm", trace)).expect("runs");
        assert_eq!(out.failed, 0, "{}", out.report);
        for m in &out.metrics.0 {
            assert!(
                !m.name.is_empty()
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {:?}",
                m.name
            );
            assert!(
                declared.iter().any(|(n, u)| n == &m.name && u == m.unit),
                "{} ({}) missing from BENCHMARK.json",
                m.name,
                m.unit
            );
        }
        // The result line carries exactly the declared metrics of the mode.
        let emitted: Vec<&str> = out.metrics.0.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = declared
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| perfbench::END_TO_END.contains(n) != trace)
            .collect();
        let mut e = emitted.clone();
        let mut x = expected.clone();
        e.sort_unstable();
        x.sort_unstable();
        assert_eq!(e, x, "trace={trace}");
        assert!(out
            .json()
            .starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn traced_run_equals_untraced_on_one_job_per_workload() {
    for name in WORKLOADS {
        let w = tiny(name, 0);
        // The first job of every batch runs with Hermes off, the last
        // with Hermes on (on `single-core`: legacy core, then OoO core).
        let (first, last) = (&w.points[0], w.points.last().expect("nonempty batch"));
        assert!(!first.cfg.hermes.enabled() && last.cfg.hermes.enabled());
        for p in [first, last] {
            let untraced = run_direct(p).expect("untraced run").result;
            let (traced, times) = run_traced(p);
            assert!(check_run(p, &untraced).is_empty(), "{name}");
            assert!(check_run(p, &traced).is_empty(), "{name}");
            assert_eq!(untraced.digest(), traced.digest(), "{name}");
            assert_eq!(
                format!("{:?}", untraced.stats),
                format!("{:?}", traced.stats),
                "{name}"
            );
            assert!(times.retired_total() >= p.quota_instructions(), "{name}");
            assert!(
                times.hier_tick.calls > 0 && times.next_instr.calls > 0,
                "{name}"
            );
        }
    }
}

#[test]
fn different_seed_changes_the_traces() {
    for name in WORKLOADS {
        let (a, b) = (tiny(name, 0), tiny(name, 1));
        assert_eq!(a.points.len(), b.points.len());
        let (pa, pb) = (&a.points[0], &b.points[0]);
        assert_ne!(pa.specs[0].seed, pb.specs[0].seed, "{name}");
        let first = |s: &hermes_trace::WorkloadSpec| {
            let mut t = s.build_for(0);
            (0..2000)
                .map(|_| format!("{:?}", t.next_instr()))
                .collect::<String>()
        };
        assert!(
            pa.specs
                .iter()
                .zip(&pb.specs)
                .any(|(x, y)| first(x) != first(y)),
            "{name}: seed 1 generated the same instructions as seed 0"
        );
    }
}

#[test]
fn default_seed_keeps_the_historical_traces() {
    use hermes_trace::suite;
    let specs = |w: &Workload| -> Vec<hermes_trace::WorkloadSpec> {
        w.points.iter().flat_map(|p| p.specs.clone()).collect()
    };
    let single = specs(&tiny("single-core", 0));
    assert_eq!(single[..20], suite::default_suite()[..]);
    let sharing = specs(&tiny("sharing-mesi", 0));
    assert_eq!(sharing[..2], suite::sharing_suite(500)[..]);
    let mix = specs(&tiny("mix-4c-vm", 0));
    let historical = |name: &str| {
        suite::tlb_suite()
            .into_iter()
            .chain(suite::default_suite())
            .find(|s| s.name == name)
            .expect("suite trace")
    };
    for s in &mix[..4] {
        assert_eq!(*s, historical(&s.name));
    }
    // After the paper suite's 40 jobs come the out-of-order jobs.
    let ooo = &single[40..];
    for s in &ooo[..6] {
        assert_eq!(*s, historical(&s.name));
    }
    assert_eq!(ooo[6].name, "spill-reload");
    assert_eq!(ooo[6].seed, 11);
}

#[test]
fn end_to_end_run_is_cold_and_checked() {
    let _roots = cache_roots();
    let out = run(&tiny_options("sharing-mesi", false)).expect("runs");
    assert_eq!((out.attempted, out.failed), (4, 0), "{}", out.report);
    for name in perfbench::END_TO_END {
        assert!(out.metrics.get(name).is_some_and(|v| v > 0.0), "{name}");
    }
    assert!(out.digest.is_some());
    // Every pass's cache root is removed after the pass.
    let parent = std::path::Path::new(perfbench::e2e::CACHE_PARENT);
    let prefix = format!("{}-", std::process::id());
    let leftover = std::fs::read_dir(parent)
        .into_iter()
        .flatten()
        .flatten()
        .any(|d| d.file_name().to_string_lossy().starts_with(&prefix));
    assert!(!leftover, "a cache root outlived its pass");
}

#[test]
fn check_run_flags_each_broken_identity() {
    let w = tiny("sharing-mesi", 0);
    let (off, on) = (&w.points[0], w.points.last().expect("nonempty batch"));
    assert!(off.cfg.vm.is_none() && on.cfg.hermes.enabled());
    let base_off = run_direct(off).expect("untraced run").result;
    let base_on = run_direct(on).expect("untraced run").result;
    assert!(check_run(off, &base_off).is_empty());
    assert!(check_run(on, &base_on).is_empty());
    type Break = fn(&mut perfbench::checks::SimResult);
    let cases: [(&str, bool, Break); 5] = [
        ("hits", false, |r| r.levels[0].1.hits += 1),
        ("served", false, |r| r.stats.cores[0].core.loads += 1),
        ("Hermes off", false, |r| r.stats.cores[0].pred.tp += 1),
        ("vm off", false, |r| {
            r.stats.cores[0].hier.dtlb_accesses += 1
        }),
        ("tp+fn", true, |r| r.stats.cores[0].pred.fn_ += 1),
    ];
    for (what, hermes, break_it) in cases {
        let (p, mut r) = if hermes {
            (on, base_on.clone())
        } else {
            (off, base_off.clone())
        };
        break_it(&mut r);
        let bad = check_run(p, &r);
        assert!(bad.iter().any(|b| b.contains(what)), "{what}: {bad:?}");
    }
}

#[test]
fn a_panicking_job_is_counted_and_ends_the_run() {
    let _roots = cache_roots();
    // `sharing-mesi` goes through the engine, `mix-4c-vm` runs directly.
    for name in ["sharing-mesi", "mix-4c-vm"] {
        let mut w = tiny(name, 0);
        // A zero measurement window trips `System::run`'s assert.
        w.points[1].instr = 0;
        let e = measure(&w, 0.0);
        assert_eq!(
            e.failed.iter().copied().collect::<Vec<_>>(),
            vec![1],
            "{name}: {:?}",
            e.failures
        );
        assert!(e.failures.iter().all(|f| f.contains("panicked")), "{name}");
        for (i, samples) in e.wall.0.iter().enumerate() {
            assert!(i == 1 || samples.len() >= 2, "{name}: job {i}");
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run(&tiny_options("no-such-workload", false)).is_err());
}
