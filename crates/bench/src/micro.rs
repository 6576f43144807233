//! Fixed-iteration microbenchmarks of the simulator's per-cycle hot
//! paths, cheap enough to run inside `run_all` so their results ride the
//! tracked `BENCH_<n>.json` perf trajectory and live in git history.
//!
//! Methodology: each kernel runs a fixed iteration count around
//! `std::time::Instant` with an untimed warmup pass. That is deliberately
//! simpler than criterion (no outlier rejection, single sample), which is
//! fine for a trajectory: regressions worth acting on are multiples, not
//! percents, and the fixed count keeps a run under ~100 ms total.

use std::hint::black_box;
use std::time::Instant;

use hermes::{LoadContext, OffChipPredictor, Popet};
use hermes_cache::{CacheArray, CacheConfig, ReplacementKind};
use hermes_cpu::port::{LoadIssue, MemoryPort, ServedBy, StoreIssue};
use hermes_cpu::{Core, CoreConfig, CoreModel, OooConfig};
use hermes_ooo::OooCore;
use hermes_trace::source::VecSource;
use hermes_trace::Instr;
use hermes_types::{CoreId, Cycle, LineAddr, VirtAddr};

/// One microbenchmark measurement.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Kernel name (stable across runs; keys the trajectory).
    pub name: &'static str,
    /// Nanoseconds per operation (one predict+train, one cache access,
    /// one core cycle, ...).
    pub ns_per_op: f64,
}

fn time(name: &'static str, iters: u64, mut f: impl FnMut(u64)) -> MicroResult {
    // Untimed warmup: touch caches, fault in lazy state.
    for i in 0..iters / 10 {
        f(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    MicroResult {
        name,
        ns_per_op: start.elapsed().as_nanos() as f64 / iters as f64,
    }
}

/// POPET inference + training: the per-load predictor cost Hermes adds
/// to the issue path.
pub fn popet_predict_train() -> MicroResult {
    let mut popet = Popet::default();
    time("popet_predict_train", 200_000, |i| {
        let ctx = LoadContext::identity(0x400100 + (i % 16) * 4, VirtAddr::new(0x10_0000 + i * 64));
        let p = popet.predict(black_box(&ctx));
        popet.train(&ctx, &p, i.is_multiple_of(20));
        black_box(p.go_offchip);
    })
}

/// LLC array access+fill with SHiP replacement: the per-level cost of a
/// hierarchy lookup.
pub fn llc_access_fill() -> MicroResult {
    let cfg = CacheConfig::new("LLC", 3 << 20, 12, ReplacementKind::Ship, 64);
    let mut cache = CacheArray::new(&cfg);
    time("llc_access_fill_ship", 200_000, |i| {
        let line = LineAddr::new(i % 100_000);
        if !cache.access(black_box(line), (i % 4096) as u16).hit {
            cache.fill(line, false, false, (i % 4096) as u16);
        }
    })
}

/// Memory stub with a fixed on-chip-ish latency, so the core kernels
/// measure pipeline bookkeeping rather than memory modeling.
struct FixedLat {
    latency: Cycle,
    pending: Vec<(Cycle, u64)>,
}

impl MemoryPort for FixedLat {
    fn issue_load(&mut self, req: LoadIssue, now: Cycle) {
        self.pending.push((now + self.latency, req.token));
    }
    fn issue_store(&mut self, _req: StoreIssue, _now: Cycle) {}
}

/// An ALU/load/branch mix shaped like the suite's compute workloads.
fn mix() -> Vec<Instr> {
    vec![
        Instr::load(0x400000, VirtAddr::new(0x1000), Some(1), [None, None]),
        Instr::alu(0x400004, Some(2), [Some(1), None]),
        Instr::alu(0x400008, Some(3), [Some(2), None]),
        Instr::store(0x40000c, VirtAddr::new(0x2000), [Some(3), None]),
        Instr::branch(0x400010, true, Some(3)),
        Instr::alu(0x400014, Some(4), [None, None]),
    ]
}

/// One cycle of the legacy dependency-scheduled core on the mix.
pub fn legacy_core_cycle() -> MicroResult {
    let mut core = Core::new(
        0 as CoreId,
        CoreConfig::baseline(),
        Box::new(VecSource::new("mix", mix())),
    );
    let mut mem = FixedLat {
        latency: 30,
        pending: Vec::new(),
    };
    time("legacy_core_cycle", 200_000, |now| {
        deliver(&mut mem.pending, now, |tok| {
            core.finish_load(tok, now, ServedBy::L2)
        });
        core.tick(now, &mut mem);
    })
}

/// One cycle of the out-of-order ROB/RAT/RS/LSQ core on the same mix —
/// the trajectory line that makes the OoO model's per-cycle overhead
/// visible next to `legacy_core_cycle`.
pub fn ooo_core_cycle() -> MicroResult {
    let cfg = CoreConfig::baseline().with_model(CoreModel::OoO(OooConfig::baseline()));
    let mut core = OooCore::new(
        0 as CoreId,
        cfg,
        OooConfig::baseline(),
        Box::new(VecSource::new("mix", mix())),
    );
    let mut mem = FixedLat {
        latency: 30,
        pending: Vec::new(),
    };
    time("ooo_core_cycle", 200_000, |now| {
        deliver(&mut mem.pending, now, |tok| {
            core.finish_load(tok, now, ServedBy::L2)
        });
        core.tick(now, &mut mem);
    })
}

fn deliver(pending: &mut Vec<(Cycle, u64)>, now: Cycle, mut finish: impl FnMut(u64)) {
    let mut i = 0;
    while i < pending.len() {
        if pending[i].0 <= now {
            let (_, tok) = pending.swap_remove(i);
            finish(tok);
        } else {
            i += 1;
        }
    }
}

/// Runs every microbenchmark (order is the report order).
pub fn run_all_micro() -> Vec<MicroResult> {
    vec![
        popet_predict_train(),
        llc_access_fill(),
        legacy_core_cycle(),
        ooo_core_cycle(),
    ]
}

/// Renders results as a JSON array fragment (no trailing newline), e.g.
/// `[{"name": "popet_predict_train", "ns_per_op": 12.3}, ...]`.
pub fn to_json(results: &[MicroResult]) -> String {
    let mut s = String::from("[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"name\": \"{}\", \"ns_per_op\": {:.1}}}",
            r.name, r.ns_per_op
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_produce_positive_timings() {
        for r in run_all_micro() {
            assert!(r.ns_per_op > 0.0, "{} measured nothing", r.name);
            assert!(
                r.ns_per_op < 1_000_000.0,
                "{} implausibly slow: {} ns/op",
                r.name,
                r.ns_per_op
            );
        }
    }

    #[test]
    fn json_fragment_is_well_formed() {
        let out = to_json(&[
            MicroResult {
                name: "a",
                ns_per_op: 1.25,
            },
            MicroResult {
                name: "b",
                ns_per_op: 33.0,
            },
        ]);
        assert_eq!(
            out,
            "[{\"name\": \"a\", \"ns_per_op\": 1.2}, {\"name\": \"b\", \"ns_per_op\": 33.0}]"
        );
    }
}
