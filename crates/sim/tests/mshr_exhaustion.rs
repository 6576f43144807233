//! MSHR exhaustion and retry-path coverage at every configured level.
//!
//! Floods hierarchies with far more concurrent distinct-line loads than
//! any level has MSHRs, so allocation fails and the retry machinery runs
//! at each level: the first level's side retry queue and the
//! `retried`-lookup events at every outer level. Every load must still
//! complete exactly once, and no MSHR entry may remain allocated
//! afterwards (a stranded waiter would deadlock a real run).
//! Parameterised over 2-, 3-, and 4-level topologies, with and without
//! the address-translation subsystem: page-table-walker reads share the
//! same MSHR tables as demand traffic and must survive exhaustion (and
//! drive the retry queues) without stranding anyone.

use hermes_cache::{CacheConfig, ReplacementKind};
use hermes_cpu::{LoadIssue, MemoryPort, ServedBy};
use hermes_sim::hierarchy::Hierarchy;
use hermes_sim::SystemConfig;
use hermes_types::VirtAddr;
use hermes_vm::{TlbConfig, VmConfig};

/// Tiny caches (so everything misses) with `mshrs` registers per level.
fn tiny(name: &str, mshrs: usize) -> CacheConfig {
    // 2 sets x 2 ways.
    CacheConfig::new(name, 4 * 64, 2, ReplacementKind::Lru, mshrs).with_latency(2)
}

fn topology(depth: usize) -> Vec<CacheConfig> {
    assert!((2..=4).contains(&depth));
    // Strictly decreasing MSHR counts: with equal counts the innermost
    // table caps concurrency and outer tables could never fill
    // (pigeonhole); decreasing counts force a full table — and therefore
    // the retry path — at every single level.
    let mut v = vec![tiny("L1D", 8)];
    for i in 1..depth - 1 {
        v.push(tiny(&format!("L{}", i + 1), 5 - i));
    }
    v.push(tiny("LLC", 2));
    v
}

fn config(depth: usize) -> SystemConfig {
    SystemConfig {
        levels: topology(depth),
        ..SystemConfig::baseline_1c().with_prefetcher(hermes_prefetch::PrefetcherKind::None)
    }
}

/// Issues `n` distinct-line loads at cycle 0 and ticks to completion.
/// Returns the completions in finish order.
fn flood(depth: usize, n: u64) -> (Hierarchy, Vec<(usize, u64, ServedBy)>) {
    let mut h = Hierarchy::new(config(depth));
    for t in 0..n {
        h.issue_load(
            LoadIssue {
                core: 0,
                token: t,
                pc: 0x400_000 + t * 4,
                // Distinct lines within one page (no prefetcher anyway).
                vaddr: VirtAddr::new(t * 64),
            },
            0,
        );
    }
    let mut done = Vec::new();
    let mut buf = Vec::new();
    for now in 0..2_000_000 {
        h.tick(now);
        h.drain_finished(&mut buf);
        done.append(&mut buf);
        if done.len() as u64 == n {
            break;
        }
    }
    (h, done)
}

#[test]
fn exhaustion_retries_and_completes_at_every_depth() {
    for depth in [2usize, 3, 4] {
        let n = 24u64; // 12x the 2-register tables
        let (h, done) = flood(depth, n);
        assert_eq!(
            done.len() as u64,
            n,
            "{depth}-level: only {} of {n} loads completed",
            done.len()
        );

        // Exactly one completion per token, each off-chip (tiny caches).
        let mut tokens: Vec<u64> = done.iter().map(|&(_, t, _)| t).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..n).collect::<Vec<_>>(), "{depth}-level tokens");
        assert!(
            done.iter().all(|&(_, _, s)| s == ServedBy::Dram),
            "{depth}-level: all-miss flood must be served by DRAM"
        );

        // Every level was driven into MSHR exhaustion and recovered.
        let levels = h.level_stats();
        assert_eq!(levels.len(), depth);
        for (name, s) in &levels {
            assert!(
                s.mshr_rejections > 0,
                "{depth}-level: level {name} never hit a full MSHR table \
                 (rejections={})",
                s.mshr_rejections
            );
        }

        // No stranded waiters anywhere.
        assert_eq!(
            h.mshrs_in_flight(),
            0,
            "{depth}-level: MSHR entries left allocated after quiescence"
        );
    }
}

#[test]
fn merged_loads_under_exhaustion_all_complete() {
    // Same line issued many times: one entry, many waiters — merging must
    // not interact badly with concurrent exhaustion on other lines.
    for depth in [2usize, 3, 4] {
        let mut h = Hierarchy::new(config(depth));
        let n = 12u64;
        for t in 0..n {
            let line = if t % 2 == 0 { 0 } else { t * 64 };
            h.issue_load(
                LoadIssue {
                    core: 0,
                    token: t,
                    pc: 0x500_000 + t * 4,
                    vaddr: VirtAddr::new(line),
                },
                0,
            );
        }
        let mut done = Vec::new();
        let mut buf = Vec::new();
        for now in 0..2_000_000 {
            h.tick(now);
            h.drain_finished(&mut buf);
            done.append(&mut buf);
            if done.len() as u64 == n {
                break;
            }
        }
        assert_eq!(done.len() as u64, n, "{depth}-level merge flood");
        assert_eq!(h.mshrs_in_flight(), 0);
    }
}

#[test]
fn store_write_allocates_survive_exhaustion() {
    use hermes_cpu::StoreIssue;
    for depth in [2usize, 3, 4] {
        let mut h = Hierarchy::new(config(depth));
        // Stores have no tokens; completion is only observable through
        // quiescence and the absence of stranded MSHR entries.
        for t in 0..16u64 {
            h.issue_store(
                StoreIssue {
                    core: 0,
                    pc: 0x600_000 + t * 4,
                    vaddr: VirtAddr::new(t * 64),
                },
                0,
            );
        }
        let mut buf = Vec::new();
        for now in 0..2_000_000 {
            h.tick(now);
            h.drain_finished(&mut buf);
            if h.mshrs_in_flight() == 0 && h.next_event_at() == u64::MAX {
                break;
            }
        }
        assert_eq!(h.mshrs_in_flight(), 0, "{depth}-level store flood stranded");
        assert!(
            h.level_stats()[0].1.mshr_rejections > 0,
            "{depth}-level: store flood never exhausted the first level"
        );
    }
}

/// `config(depth)` plus a deliberately starved translation subsystem:
/// tiny TLBs and a 2-entry walk cache, so nearly every load drags a
/// multi-level page walk through the already-tiny MSHR tables.
fn vm_config(depth: usize) -> SystemConfig {
    SystemConfig {
        vm: Some(
            VmConfig::baseline()
                .with_dtlb(TlbConfig::new(4, 2, 0))
                .with_stlb(TlbConfig::new(8, 2, 2))
                .with_pwc_entries(2),
        ),
        ..config(depth)
    }
}

#[test]
fn walker_and_demand_share_mshrs_without_stranding() {
    for depth in [2usize, 3, 4] {
        let mut h = Hierarchy::new(vm_config(depth));
        let n = 24u64;
        for t in 0..n {
            h.issue_load(
                LoadIssue {
                    core: 0,
                    token: t,
                    pc: 0x700_000 + t * 4,
                    // Distinct pages with scattered radix prefixes, so
                    // walks cannot all share PTE lines.
                    vaddr: VirtAddr::new((t * 3 + 1) << 21),
                },
                0,
            );
        }
        let mut done = Vec::new();
        let mut buf = Vec::new();
        for now in 0..2_000_000 {
            h.tick(now);
            h.drain_finished(&mut buf);
            done.append(&mut buf);
            if done.len() as u64 == n {
                break;
            }
        }
        assert_eq!(
            done.len() as u64,
            n,
            "{depth}-level walker flood: only {} of {n} loads completed",
            done.len()
        );
        let mut tokens: Vec<u64> = done.iter().map(|&(_, t, _)| t).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..n).collect::<Vec<_>>(), "{depth}-level tokens");

        let s = h.core_stats()[0];
        assert!(s.walks_completed > 0, "{depth}-level: no walks ran");
        assert!(
            s.walk_mem_accesses >= s.walks_completed,
            "{depth}-level: every walk reads at least one PTE"
        );
        assert!(
            h.level_stats()[0].1.mshr_rejections > 0,
            "{depth}-level: the flood (demand + walker) never exhausted \
             the first-level MSHRs"
        );
        // Nothing stranded: no MSHR entries, no half-finished walks.
        assert_eq!(
            h.mshrs_in_flight(),
            0,
            "{depth}-level: MSHR entries left allocated after quiescence"
        );
        assert_eq!(
            h.walks_in_flight(),
            0,
            "{depth}-level: walks left in flight after quiescence"
        );
    }
}

#[test]
fn same_page_loads_merge_into_one_walk_under_exhaustion() {
    for depth in [2usize, 3, 4] {
        let mut h = Hierarchy::new(vm_config(depth));
        let n = 16u64;
        for t in 0..n {
            // Two pages, eight distinct lines each: walks merge while the
            // line misses still flood the tables.
            let page = (t % 2) << 21;
            h.issue_load(
                LoadIssue {
                    core: 0,
                    token: t,
                    pc: 0x800_000 + t * 4,
                    vaddr: VirtAddr::new(page + (t / 2) * 64),
                },
                0,
            );
        }
        let mut done = Vec::new();
        let mut buf = Vec::new();
        for now in 0..2_000_000 {
            h.tick(now);
            h.drain_finished(&mut buf);
            done.append(&mut buf);
            if done.len() as u64 == n {
                break;
            }
        }
        assert_eq!(done.len() as u64, n, "{depth}-level same-page merge");
        let s = h.core_stats()[0];
        assert!(
            s.walks_completed <= 2,
            "{depth}-level: two pages must need at most two walks, got {}",
            s.walks_completed
        );
        assert_eq!(h.mshrs_in_flight(), 0);
        assert_eq!(h.walks_in_flight(), 0);
    }
}

#[test]
fn store_write_allocates_with_walks_survive_exhaustion() {
    use hermes_cpu::StoreIssue;
    for depth in [2usize, 3, 4] {
        let mut h = Hierarchy::new(vm_config(depth));
        for t in 0..16u64 {
            h.issue_store(
                StoreIssue {
                    core: 0,
                    pc: 0x900_000 + t * 4,
                    vaddr: VirtAddr::new((t * 5 + 3) << 21),
                },
                0,
            );
        }
        let mut buf = Vec::new();
        for now in 0..2_000_000 {
            h.tick(now);
            h.drain_finished(&mut buf);
            if h.mshrs_in_flight() == 0 && h.walks_in_flight() == 0 && h.next_event_at() == u64::MAX
            {
                break;
            }
        }
        assert_eq!(
            h.mshrs_in_flight(),
            0,
            "{depth}-level store+walk flood stranded MSHRs"
        );
        assert_eq!(
            h.walks_in_flight(),
            0,
            "{depth}-level store+walk flood stranded walks"
        );
        let s = h.core_stats()[0];
        assert!(s.walks_completed > 0, "{depth}-level: stores walked too");
    }
}

/// A load completion: (cycle, core, token, served by).
type Completion = (u64, usize, u64, ServedBy);

/// Runs a 4-core MESI store+load flood over a shared pool of 48 lines on
/// 2-register first levels, issuing after each cycle's tick as the
/// system loop does, until quiescent. Returns the completions and a
/// rendering of every level's and every core's counters.
fn coherent_flood(probe: bool) -> (Vec<Completion>, String) {
    use hermes_cache::CoherenceConfig;
    use hermes_cpu::StoreIssue;
    use hermes_types::{mix64, SHARED_BASE};
    let mut cfg = SystemConfig {
        cores: 4,
        levels: vec![tiny("L1D", 2), tiny("L2", 4), tiny("LLC", 4)],
        ..SystemConfig::baseline_1c().with_prefetcher(hermes_prefetch::PrefetcherKind::None)
    }
    .with_coherence(CoherenceConfig::baseline());
    if probe {
        cfg = cfg.with_probe(hermes_probe::ProbeConfig::baseline().with_sample_period(1));
    }
    let mut h = Hierarchy::new(cfg);
    let (mut loads, mut requests) = (0u64, 0u64);
    let mut done = Vec::new();
    let mut buf = Vec::new();
    for now in 0..2_000_000u64 {
        h.tick(now);
        h.drain_finished(&mut buf);
        done.extend(buf.iter().map(|&(c, t, s)| (now, c, t, s)));
        if now < 600 {
            for core in 0..4 {
                let r = mix64(now << 8 | core as u64);
                let vaddr = VirtAddr::new(SHARED_BASE + (r >> 8) % 48 * 64);
                let pc = 0xa00_000 + (r >> 20) % 16 * 4;
                match r % 3 {
                    0 => continue,
                    1 => h.issue_store(StoreIssue { core, pc, vaddr }, now),
                    _ => {
                        let token = loads;
                        loads += 1;
                        h.issue_load(
                            LoadIssue {
                                core,
                                token,
                                pc,
                                vaddr,
                            },
                            now,
                        );
                    }
                }
                requests += 1;
            }
        } else if done.len() as u64 == loads && h.next_event_at() == u64::MAX {
            break;
        }
    }
    assert_eq!(done.len() as u64, loads, "coherent flood lost loads");
    assert_eq!(h.mshrs_in_flight(), 0, "coherent flood stranded MSHRs");
    let stats = format!("{:?} {:?}", h.level_stats(), h.core_stats());
    let retries = h.level_stats()[0].1.mshr_rejections;
    assert!(
        retries > 20 * requests,
        "{retries} first-level rejections for {requests} requests: no retry storm"
    );
    (done, stats)
}

/// The retry sweep's bulk refusals (probe off: entries whose core is
/// known to refuse them are re-parked untested, a whole due bucket in
/// one step, and their refused attempts charged per core in one call)
/// and its one-by-one replay (probe on: every refusal is attempted and
/// charged on its own) leave the same machine behind: the same
/// completions in the same cycles and order, and the same counters at
/// every level and core.
#[test]
fn retry_sweep_bulk_refusal_matches_one_by_one_replay() {
    let (off, on) = (coherent_flood(false), coherent_flood(true));
    assert_eq!(off.0, on.0, "completion order differs");
    assert_eq!(off.1, on.1, "counters differ");
}
