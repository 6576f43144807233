//! Engine-level guarantees: parallel determinism, in-batch dedup,
//! multi-engine cache sharing, and a cache that cannot be written.
//!
//! Simulations here use tiny instruction windows over the smoke suite so
//! the whole file runs in seconds; every test gets its own scratch cache
//! directory under the system temp dir.

use std::path::PathBuf;

use hermes::{HermesConfig, PredictorKind};
use hermes_exec::{Engine, Job, Provenance, ResultCache};
use hermes_prefetch::PrefetcherKind;
use hermes_sim::SystemConfig;
use hermes_trace::suite;

const WARMUP: u64 = 500;
const INSTR: u64 = 3_000;

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hermes-exec-engine-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A mixed batch shaped like a real figure: two configurations across the
/// smoke suite, sharing a baseline.
fn mixed_batch() -> Vec<Job> {
    let specs = suite::smoke_suite();
    let nopf = SystemConfig::baseline_1c().with_prefetcher(PrefetcherKind::None);
    let hermes = nopf
        .clone()
        .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
    let mut jobs = Vec::new();
    for spec in &specs {
        jobs.push(Job::new("nopf", nopf.clone(), spec.clone(), WARMUP, INSTR));
    }
    for spec in &specs {
        jobs.push(Job::new(
            "hermesO-popet",
            hermes.clone(),
            spec.clone(),
            WARMUP,
            INSTR,
        ));
    }
    jobs
}

/// Renders outcomes the way a figure table would consume them — a stable
/// byte string for exact comparison.
fn render(outs: &[hermes_exec::Outcome]) -> String {
    outs.iter()
        .map(|o| format!("{}|{}\n{}", o.tag, o.workload, o.result.to_kv()))
        .collect()
}

#[test]
fn parallel_run_is_byte_identical_to_serial() {
    let batch = mixed_batch();
    let serial = Engine::with_cache(1, ResultCache::new(scratch("det-serial")))
        .quiet()
        .run_batch(&batch);
    let parallel = Engine::with_cache(4, ResultCache::new(scratch("det-parallel")))
        .quiet()
        .run_batch(&batch);
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(
        render(&serial),
        render(&parallel),
        "jobs=4 must produce byte-identical tables/stats to jobs=1"
    );
}

#[test]
fn shared_baseline_simulates_exactly_once() {
    // Two "figures" both normalising to the same baseline point.
    let spec = suite::smoke_suite().into_iter().next().unwrap();
    let nopf = SystemConfig::baseline_1c().with_prefetcher(PrefetcherKind::None);
    let batch = vec![
        Job::new("nopf", nopf.clone(), spec.clone(), WARMUP, INSTR), // fig A baseline
        Job::new(
            "hermesO-popet",
            nopf.clone()
                .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet)),
            spec.clone(),
            WARMUP,
            INSTR,
        ),
        Job::new("nopf", nopf.clone(), spec.clone(), WARMUP, INSTR), // fig B, same baseline
        Job::new("fig-c-base", nopf, spec, WARMUP, INSTR),           // same point, another label
    ];
    let outs = Engine::with_cache(4, ResultCache::new(scratch("dedup")))
        .quiet()
        .run_batch(&batch);
    assert_eq!(outs.len(), 4);
    let computed = outs
        .iter()
        .filter(|o| o.provenance == Provenance::Computed)
        .count();
    assert_eq!(computed, 2, "two unique points, two simulations");
    assert_eq!(outs[2].provenance, Provenance::Deduped);
    assert_eq!(
        outs[0].result, outs[2].result,
        "duplicate shares the first occurrence's result"
    );
    assert_eq!(
        outs[3].provenance,
        Provenance::Deduped,
        "the tag is a label, not part of the point"
    );
    assert_eq!(outs[0].result, outs[3].result);
    assert_eq!(
        outs[3].tag, "fig-c-base",
        "a relabelled duplicate keeps its tag"
    );
}

#[test]
fn two_engines_sharing_a_cache_agree_and_leave_parseable_entries() {
    // Nothing serialises the two engines: both may simulate a point, and
    // each publishes its entry atomically.
    let root = scratch("shared");
    let batch = mixed_batch();
    let run = || {
        Engine::with_cache(2, ResultCache::new(&root))
            .quiet()
            .run_batch(&batch)
    };
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(run);
        let hb = s.spawn(run);
        (ha.join().expect("engine A"), hb.join().expect("engine B"))
    });
    assert_eq!(render(&a), render(&b), "both engines see identical results");

    // No torn entries: every key parses back from disk.
    let cache = ResultCache::new(&root);
    for out in &a {
        assert_eq!(
            cache.lookup(&out.key).as_ref(),
            Some(&out.result),
            "cache entry {} must exist and parse",
            out.key
        );
    }
}

#[test]
fn unwritable_cache_root_still_computes_every_point() {
    // A regular file where the cache root should be: nothing can be
    // published, and every point is simulated anyway.
    let root = scratch("unwritable");
    std::fs::write(&root, "not a directory").unwrap();
    let batch = mixed_batch();
    let outs = Engine::with_cache(2, ResultCache::new(&root))
        .quiet()
        .run_batch(&batch);
    assert!(outs.iter().all(|o| o.provenance == Provenance::Computed));
    let reference = Engine::with_cache(1, ResultCache::new(scratch("writable")))
        .quiet()
        .run_batch(&batch);
    assert_eq!(render(&outs), render(&reference));
    assert!(root.is_file(), "the root is left as it was");
}
