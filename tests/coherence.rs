//! Coherence regression and invariant tests.
//!
//! Covers the directory-MESI layer end to end — protocol state
//! transitions, the stable-state invariants (single writer, inclusive
//! directory), equivalence guarantees (`coherence: None` untouched,
//! single-core `Some` ≡ `None`, fast-forward invisibility) — plus the
//! writeback-path training fix: a dirty victim written back *into* the
//! LLC is not a fill returning to any core and must not train TTP. The
//! equivalences compare [`common::digest`], every counter the run
//! reports.

mod common;

use hermes_repro::hermes::{HermesConfig, PredictorKind};
use hermes_repro::hermes_cache::{CacheConfig, CoherenceConfig, Mesi, ReplacementKind};
use hermes_repro::hermes_cpu::{LoadIssue, MemoryPort, StoreIssue};
use hermes_repro::hermes_prefetch::PrefetcherKind;
use hermes_repro::hermes_sim::hierarchy::Hierarchy;
use hermes_repro::hermes_sim::{System, SystemConfig};
use hermes_repro::hermes_trace::suite;
use hermes_repro::hermes_types::{Cycle, LineAddr, VirtAddr, SHARED_BASE};
use hermes_repro::hermes_vm::page_map::translate;

/// Ticks the hierarchy until it is fully quiescent (no events, retries,
/// DRAM reads, walks, or outstanding MSHRs); returns the quiescent cycle.
fn quiesce(h: &mut Hierarchy, mut now: Cycle) -> Cycle {
    let mut buf = Vec::new();
    for _ in 0..2_000_000 {
        let at = h.next_event_at();
        if at == Cycle::MAX {
            if h.mshrs_in_flight() == 0 && h.walks_in_flight() == 0 {
                return now;
            }
            panic!("stranded state: MSHRs in flight with no pending event");
        }
        now = now.max(at) + 1;
        h.tick(now);
        h.drain_finished(&mut buf);
    }
    panic!("hierarchy failed to quiesce");
}

fn coherent_cfg(cores: usize) -> SystemConfig {
    SystemConfig {
        cores,
        ..SystemConfig::baseline_1c().with_prefetcher(PrefetcherKind::None)
    }
    .with_coherence(CoherenceConfig::baseline())
}

fn shared_vaddr(i: u64) -> VirtAddr {
    VirtAddr::new(SHARED_BASE + i * 64)
}

/// The physical line a shared virtual address maps to (identical for
/// every core by construction).
fn shared_line(i: u64) -> LineAddr {
    translate(0, shared_vaddr(i)).line()
}

fn load(core: usize, token: u64, vaddr: VirtAddr) -> LoadIssue {
    LoadIssue {
        core,
        token,
        pc: 0x400_100 + core as u64 * 4,
        vaddr,
    }
}

fn store(core: usize, vaddr: VirtAddr) -> StoreIssue {
    StoreIssue {
        core,
        pc: 0x400_200 + core as u64 * 4,
        vaddr,
    }
}

/// Stable-state MESI invariants over a set of candidate lines: a
/// Modified copy is the only private copy, the sharer directory is a
/// superset of the private holders, and private copies imply shared-
/// level residency (inclusion).
fn check_invariants(h: &Hierarchy, cores: usize, lines: &[LineAddr]) {
    for &line in lines {
        let holders: Vec<usize> = (0..cores).filter(|&c| h.privately_held(c, line)).collect();
        let modified: Vec<usize> = holders
            .iter()
            .copied()
            .filter(|&c| h.mesi_state(c, line) == Mesi::Modified)
            .collect();
        if !modified.is_empty() {
            assert_eq!(
                holders.len(),
                1,
                "{line:?}: Modified copy on core {} must be the only copy (holders {holders:?})",
                modified[0]
            );
        }
        let dir = h.directory_sharers(line);
        for &c in &holders {
            assert!(
                dir & (1 << c) != 0,
                "{line:?}: directory {dir:#b} misses holder {c}"
            );
            assert!(
                h.llc_holds(line),
                "{line:?}: private copy on core {c} without an LLC entry (inclusion broken)"
            );
        }
    }
}

#[test]
fn mesi_protocol_transitions() {
    let mut h = Hierarchy::new(coherent_cfg(2));
    let v = shared_vaddr(0);
    let line = shared_line(0);

    // Cold load by core 0: Exclusive.
    h.issue_load(load(0, 0, v), 0);
    let mut now = quiesce(&mut h, 0);
    assert_eq!(h.mesi_state(0, line), Mesi::Exclusive);
    assert_eq!(h.directory_sharers(line), 0b01);

    // Load by core 1: both Shared.
    h.issue_load(load(1, 0, v), now);
    now = quiesce(&mut h, now);
    assert_eq!(h.mesi_state(0, line), Mesi::Shared);
    assert_eq!(h.mesi_state(1, line), Mesi::Shared);
    assert_eq!(h.directory_sharers(line), 0b11);

    // Store by core 0: upgrade invalidates core 1; core 0 Modified.
    h.issue_store(store(0, v), now);
    now = quiesce(&mut h, now);
    assert_eq!(h.mesi_state(0, line), Mesi::Modified);
    assert_eq!(h.mesi_state(1, line), Mesi::Invalid);
    assert_eq!(h.directory_sharers(line), 0b01);
    let s = h.core_stats();
    assert_eq!(
        s[0].coh_upgrades, 1,
        "store on a Shared line pays an upgrade"
    );
    assert_eq!(s[0].coh_invalidations, 1, "core 1's copy was killed");

    // Load by core 1: dirty intervention downgrades core 0 to Shared.
    h.issue_load(load(1, 1, v), now);
    now = quiesce(&mut h, now);
    assert_eq!(h.mesi_state(0, line), Mesi::Shared);
    assert_eq!(h.mesi_state(1, line), Mesi::Shared);
    let s = h.core_stats();
    assert_eq!(
        s[1].coh_dirty_forwards, 1,
        "read of a Modified line forwards"
    );

    // Store by core 1 while core 0 shares: the mirror upgrade.
    h.issue_store(store(1, v), now);
    quiesce(&mut h, now);
    assert_eq!(h.mesi_state(1, line), Mesi::Modified);
    assert_eq!(h.mesi_state(0, line), Mesi::Invalid);
    check_invariants(&h, 2, &[line]);
}

#[test]
fn store_miss_rfo_invalidates_remote_copies() {
    let mut h = Hierarchy::new(coherent_cfg(2));
    let v = shared_vaddr(7);
    let line = shared_line(7);
    // Core 1 reads the line; core 0 then store-misses it (write-allocate
    // RFO): core 1 must lose its copy with no separate upgrade.
    h.issue_load(load(1, 0, v), 0);
    let now = quiesce(&mut h, 0);
    assert_eq!(h.mesi_state(1, line), Mesi::Exclusive);
    h.issue_store(store(0, v), now);
    quiesce(&mut h, now);
    assert_eq!(h.mesi_state(0, line), Mesi::Modified);
    assert_eq!(h.mesi_state(1, line), Mesi::Invalid);
    let s = h.core_stats();
    assert_eq!(s[0].coh_upgrades, 0, "an RFO is not a hit-upgrade");
    assert_eq!(s[0].coh_invalidations, 1);
    check_invariants(&h, 2, &[line]);
}

#[test]
fn upgrade_losing_the_race_redoes_the_store() {
    // Two cores store the same Shared line back to back: whichever
    // upgrade resolves second finds its copy gone and must re-execute
    // the store instead of dirtying a stale line. The end state is a
    // single Modified owner either way.
    let mut h = Hierarchy::new(coherent_cfg(2));
    let v = shared_vaddr(3);
    let line = shared_line(3);
    h.issue_load(load(0, 0, v), 0);
    let now = quiesce(&mut h, 0);
    h.issue_load(load(1, 0, v), now);
    let now = quiesce(&mut h, now);
    assert_eq!(h.directory_sharers(line), 0b11);
    // Same-cycle racing stores.
    h.issue_store(store(0, v), now);
    h.issue_store(store(1, v), now);
    quiesce(&mut h, now);
    let m: Vec<usize> = (0..2)
        .filter(|&c| h.mesi_state(c, line) == Mesi::Modified)
        .collect();
    assert_eq!(m.len(), 1, "exactly one winner must own the line");
    check_invariants(&h, 2, &[line]);
    let s = h.core_stats();
    assert_eq!(s[0].coh_upgrades + s[1].coh_upgrades, 2);
}

#[test]
fn back_to_back_stores_share_one_upgrade_transaction() {
    // Two stores to the same Shared line inside the directory round trip
    // are one logical write-permission transaction: the second is
    // subsumed by the in-flight upgrade, not double-counted.
    let mut h = Hierarchy::new(coherent_cfg(2));
    let v = shared_vaddr(5);
    h.issue_load(load(0, 0, v), 0);
    let now = quiesce(&mut h, 0);
    h.issue_load(load(1, 0, v), now);
    let now = quiesce(&mut h, now);
    h.issue_store(store(0, v), now);
    h.issue_store(store(0, v), now + 2); // within the 24-cycle round trip
    quiesce(&mut h, now);
    assert_eq!(h.mesi_state(0, shared_line(5)), Mesi::Modified);
    assert_eq!(
        h.core_stats()[0].coh_upgrades,
        1,
        "the second store must ride the first store's upgrade"
    );
}

#[test]
fn store_served_from_own_mid_level_still_pays_the_upgrade() {
    // A store that misses the L1 but hits the core's own private L2 on a
    // Shared line never visited the directory on its data path: the
    // write permission still costs the upgrade round trip and must be
    // counted (and must kill the remote copy).
    let mut h = Hierarchy::new(coherent_cfg(2));
    let v = shared_vaddr(9);
    let line = shared_line(9);
    h.issue_load(load(0, 0, v), 0);
    let mut now = quiesce(&mut h, 0);
    h.issue_load(load(1, 0, v), now);
    now = quiesce(&mut h, now);
    assert_eq!(h.mesi_state(0, line), Mesi::Shared);

    // Evict the line from core 0's L1 only: the baseline L1 is 64 sets x
    // 12 ways and the L2 1024 sets x 20 ways, so 12 extra lines in the
    // same L1 set land in 12 different L2 sets and leave the L2 copy
    // resident.
    for (token, cand) in (1u64..)
        .map(|i| VirtAddr::new(0x1100_0000_0000 + i * 64))
        .filter(|&cand| translate(0, cand).line().raw() % 64 == line.raw() % 64)
        .take(14)
        .enumerate()
    {
        h.issue_load(load(0, token as u64 + 1, cand), now);
        now = quiesce(&mut h, now);
    }
    // The L2 copy must have survived (privately_held scans L1 and L2).
    assert!(
        h.privately_held(0, line),
        "L2 copy should survive the L1-set flood"
    );

    let upgrades_before = h.core_stats()[0].coh_upgrades;
    h.issue_store(store(0, v), now);
    quiesce(&mut h, now);
    assert_eq!(
        h.core_stats()[0].coh_upgrades,
        upgrades_before + 1,
        "an own-L2 store hit on a Shared line must pay the upgrade"
    );
    assert_eq!(h.mesi_state(0, line), Mesi::Modified);
    assert_eq!(h.mesi_state(1, line), Mesi::Invalid);
    check_invariants(&h, 2, &[line]);
}

#[test]
fn mesi_invariants_hold_under_random_sharing() {
    // Pseudo-random loads/stores from 4 cores over a small set of shared
    // lines (plus per-core private traffic), invariants checked at
    // quiescent points throughout.
    for seed in [1u64, 7, 42] {
        let cores = 4;
        let mut h = Hierarchy::new(coherent_cfg(cores));
        let lines: Vec<LineAddr> = (0..24).map(shared_line).collect();
        let mut x = seed;
        let mut rng = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        };
        let mut now = 0;
        let mut tokens = vec![0u64; cores];
        for step in 0..600 {
            let r = rng();
            let core = (r % cores as u64) as usize;
            let li = (r >> 8) % 24;
            let v = if (r >> 20) % 5 == 0 {
                // Occasional private access mixed in.
                VirtAddr::new(0x1000_0000_0000 + (li + core as u64 * 64) * 64)
            } else {
                shared_vaddr(li)
            };
            if (r >> 16) % 3 == 0 {
                h.issue_store(store(core, v), now);
            } else {
                h.issue_load(load(core, tokens[core], v), now);
                tokens[core] += 1;
            }
            now += 1 + (r % 7);
            h.tick(now);
            if step % 50 == 49 {
                now = quiesce(&mut h, now);
                check_invariants(&h, cores, &lines);
            }
        }
        quiesce(&mut h, now);
        check_invariants(&h, cores, &lines);
        let total_inv: u64 = h.core_stats().iter().map(|s| s.coh_invalidations).sum();
        assert!(
            total_inv > 0,
            "seed {seed}: contended stores never invalidated anything"
        );
    }
}

#[test]
fn writeback_into_llc_does_not_train_ttp() {
    // Satellite bugfix regression: a dirty victim written back into the
    // LLC used to re-enter TTP via the fill-notification path, as if the
    // writeback were a demand fill returning to the core — teaching TTP
    // that an evicted (off-chip) line was on-chip.
    //
    // Tiny 2-level topology with the LLC *narrower* than the L1 (8 vs 4
    // sets), so lines can conflict in the LLC set while living in a
    // different L1 set: L1 8 sets x 2 ways, LLC 4 sets x 2 ways.
    let cfg = SystemConfig {
        cores: 1,
        ..SystemConfig::baseline_1c().with_prefetcher(PrefetcherKind::None)
    }
    .with_levels(vec![
        CacheConfig::new("L1D", 16 * 64, 2, ReplacementKind::Lru, 16).with_latency(5),
        CacheConfig::new("LLC", 8 * 64, 2, ReplacementKind::Lru, 32).with_latency(40),
    ])
    .with_hermes(HermesConfig::passive(PredictorKind::Ttp));
    let mut h = Hierarchy::new(cfg);

    // Conflicting vaddrs sharing the target's LLC set (line % 4) but NOT
    // its L1 set (line % 8) — they evict the LLC copy while the dirty L1
    // copy survives.
    let target = VirtAddr::new(0x5000_0000);
    let tline = translate(0, target).line();
    let conflicts: Vec<VirtAddr> = (1u64..)
        .map(|i| VirtAddr::new(0x5000_0000 + i * 64))
        .filter(|&v| {
            let l = translate(0, v).line();
            l.raw() % 4 == tline.raw() % 4 && l.raw() % 8 != tline.raw() % 8
        })
        .take(8)
        .collect();

    // Dirty the target in the L1 (store write-allocates), filling the
    // LLC on the way; TTP tracks it.
    h.issue_store(store(0, target), 0);
    let mut now = quiesce(&mut h, 0);
    assert_eq!(h.ttp_tracks(0, tline), Some(true));

    // Conflicting loads evict the target from the LLC (TTP forgets it —
    // the correct eviction notification) while the dirty copy still
    // sits untouched in its L1 set.
    for (i, &v) in conflicts.iter().enumerate() {
        h.issue_load(load(0, i as u64, v), now);
        now = quiesce(&mut h, now);
        if !h.llc_holds(tline) {
            break;
        }
    }
    assert!(
        !h.llc_holds(tline) && h.privately_held(0, tline),
        "setup must strand a dirty L1 line without an LLC copy"
    );
    assert_eq!(
        h.ttp_tracks(0, tline),
        Some(false),
        "LLC eviction must have removed the line from TTP"
    );

    // Now evict the dirty line from the L1: the writeback re-fills the
    // LLC. TTP must NOT see that as a fill returning to the core.
    let mut next_token = 100;
    for i in 1u64.. {
        let v = VirtAddr::new(0x6000_0000 + i * 64);
        let l = translate(0, v).line();
        if l.raw() % 8 != tline.raw() % 8 {
            continue;
        }
        h.issue_load(load(0, next_token, v), now);
        next_token += 1;
        now = quiesce(&mut h, now);
        if !h.privately_held(0, tline) {
            break;
        }
    }
    assert!(
        h.llc_holds(tline),
        "the dirty victim must have been written back into the LLC"
    );
    assert_eq!(
        h.ttp_tracks(0, tline),
        Some(false),
        "a writeback-initiated LLC fill must not train TTP"
    );
}

/// Issues `n` off-chip loads from one fixed PC (distinct cold pages,
/// identical in-page offset so every POPET feature hits the same weight
/// entries), quiescing after each, until the perceptron predicts
/// off-chip for that PC.
fn warm_popet_positive(
    h: &mut Hierarchy,
    pc: u64,
    n: u64,
    first_token: u64,
    mut now: Cycle,
) -> Cycle {
    for k in 0..n {
        let v = VirtAddr::new(0x2000_0000_0000 + k * 0x1000);
        h.issue_load(
            LoadIssue {
                core: 0,
                token: first_token + k,
                pc,
                vaddr: v,
            },
            now,
        );
        now = quiesce(h, now);
    }
    now
}

#[test]
fn dirty_intervention_served_load_trains_as_onchip() {
    // The tentpole's training-label half: a load whose data is forwarded
    // out of a remote Modified copy resolves *on-chip* — it must never
    // reach the predictor as an off-chip outcome.
    let cfg = coherent_cfg(2)
        .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet).with_coh_features());
    let mut h = Hierarchy::new(cfg);
    let v = shared_vaddr(0);
    let line = shared_line(0);

    // Core 0 takes the line Modified; core 1 then loads it through a
    // dirty intervention.
    h.issue_store(store(0, v), 0);
    let now = quiesce(&mut h, 0);
    assert_eq!(h.mesi_state(0, line), Mesi::Modified);
    h.issue_load(load(1, 0, v), now);
    quiesce(&mut h, now);
    assert_eq!(
        h.core_stats()[1].coh_dirty_forwards,
        1,
        "setup: intervention"
    );

    let p = h.predictor_stats()[1];
    assert_eq!(p.total(), 1, "exactly one resolved load on core 1");
    assert_eq!(
        (p.tp, p.fn_),
        (0, 0),
        "an intervention-served load must train as on-chip (got tp={} fn={})",
        p.tp,
        p.fn_
    );
}

#[test]
fn filter_vetoes_spec_read_for_remote_modified_line() {
    // The filter's hard-veto half: once a remote store has taken the
    // line Modified, a predicted-off-chip re-read must not launch its
    // speculative DRAM read — the data provably lives on-chip. The same
    // sequence without the filter fires the read and wastes it.
    let pc = 0x777_000;
    let run = |filter: bool| {
        let mut hermes = HermesConfig::hermes_o(PredictorKind::Popet).with_coh_features();
        if filter {
            hermes = hermes.with_filter();
        }
        let mut h = Hierarchy::new(coherent_cfg(2).with_hermes(hermes));

        // Make POPET predict off-chip for this PC (and, with the filter
        // on, let the PC earn an open gate through useful reads).
        let mut now = warm_popet_positive(&mut h, pc, 32, 0, 0);

        // Core 0 holds the shared line privately; core 1's store takes
        // it Modified, which records the remote-Modified event in core
        // 0's table.
        let v = shared_vaddr(0);
        h.issue_load(load(0, 100, v), now);
        now = quiesce(&mut h, now);
        h.issue_store(store(1, v), now);
        now = quiesce(&mut h, now);
        assert_eq!(h.mesi_state(1, shared_line(0)), Mesi::Modified);

        // Core 0 re-reads the line from the warmed PC: predicted
        // off-chip, served by a dirty intervention.
        let before = h.core_stats()[0].hermes_requests;
        h.issue_load(
            LoadIssue {
                core: 0,
                token: 101,
                pc,
                vaddr: v,
            },
            now,
        );
        quiesce(&mut h, now);
        let s = h.core_stats()[0];
        let p = h.predictor_stats()[0];
        (s.hermes_requests - before, s.spec_reads_wasted, p)
    };

    let (fired_nofilter, wasted_nofilter, p) = run(false);
    assert_eq!(
        fired_nofilter, 1,
        "without the filter the mispredicted load must fire its spec read \
         (predictor warm: tp={} fp={} fn={} tn={})",
        p.tp, p.fp, p.fn_, p.tn
    );
    assert!(
        wasted_nofilter >= 1,
        "the intervention-served load's spec read must count as wasted"
    );
    let (fired_filter, _, _) = run(true);
    assert_eq!(
        fired_filter, 0,
        "the remote-Modified veto must suppress the speculative read"
    );
}

#[test]
fn single_core_coherence_vacuous_with_coh_knobs_on() {
    // The coherence-aware knobs must not break the single-core
    // `coherence: Some` ≡ `None` equivalence: with one core no
    // invalidation ever happens, so the hint tables stay empty and the
    // filter sees identical inputs either way.
    let mut specs = suite::smoke_suite();
    specs.truncate(1);
    specs.extend(suite::sharing_suite(500));
    for spec in &specs {
        let hermes = HermesConfig::hermes_o(PredictorKind::Popet)
            .with_coh_features()
            .with_filter();
        let base = SystemConfig::baseline_1c().with_hermes(hermes);
        let with = base.clone().with_coherence(CoherenceConfig::baseline());
        let one = std::slice::from_ref(spec);
        let (a, _) = common::run(base, one, 3_000, 8_000);
        let (b, _) = common::run(with, one, 3_000, 8_000);
        assert_eq!(
            a, b,
            "single-core coherence must stay vacuous with coh knobs on for {}",
            spec.name
        );
    }
}

#[test]
fn single_core_coherence_is_cycle_exact() {
    let mut specs = suite::smoke_suite();
    specs.truncate(2);
    specs.extend(suite::sharing_suite(500));
    for spec in &specs {
        let base =
            SystemConfig::baseline_1c().with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
        let with = base.clone().with_coherence(CoherenceConfig::baseline());
        let one = std::slice::from_ref(spec);
        let (a, _) = common::run(base, one, 3_000, 8_000);
        let (b, _) = common::run(with, one, 3_000, 8_000);
        assert_eq!(
            a, b,
            "single-core coherence must be vacuous for {}",
            spec.name
        );
    }
}

#[test]
fn coherence_off_sharing_suite_still_runs() {
    // Disjoint-footprint workloads are unaffected by the coherence knob
    // being absent; the sharing suite *needs* it on multi-core, but must
    // still complete (incoherently) without it — the historical mode.
    let specs = suite::sharing_suite(250);
    let cfg = SystemConfig {
        cores: 2,
        ..SystemConfig::baseline_1c().with_prefetcher(PrefetcherKind::None)
    };
    let r = System::new(cfg, &specs).run(1_000, 5_000);
    assert_eq!(r.cores.len(), 2);
    for c in &r.cores {
        assert_eq!(c.hier.coh_upgrades, 0, "no protocol without the knob");
    }
}

#[test]
fn multicore_sharing_produces_invalidation_traffic() {
    // Homogeneous mixes, exactly the shape the experiment engine
    // dispatches: every core runs the same spec, the core index picks
    // the role/lane.
    for spec in &suite::sharing_suite(500) {
        let cfg = SystemConfig {
            cores: 2,
            ..SystemConfig::baseline_1c()
        }
        .with_coherence(CoherenceConfig::baseline());
        let r = System::new(cfg, std::slice::from_ref(spec)).run(2_000, 8_000);
        let invals: u64 = r.cores.iter().map(|c| c.hier.coh_invalidations).sum();
        let fwds: u64 = r.cores.iter().map(|c| c.hier.coh_dirty_forwards).sum();
        assert!(
            invals + fwds > 0,
            "{} must generate coherence traffic (invalidations={invals}, forwards={fwds})",
            spec.name
        );
    }
}

#[test]
fn fast_forward_is_cycle_exact_with_coherence() {
    let specs = suite::sharing_suite(500);
    for hermes in [false, true] {
        let cfg = |ff| {
            let mut c = SystemConfig {
                cores: 2,
                ..SystemConfig::baseline_1c()
            }
            .with_coherence(CoherenceConfig::baseline())
            .with_fast_forward(ff);
            if hermes {
                c = c.with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
            }
            c
        };
        let (off, _) = common::run(cfg(false), &specs, 2_000, 6_000);
        let (on, _) = common::run(cfg(true), &specs, 2_000, 6_000);
        assert_eq!(
            off, on,
            "fast-forward changed coherent results (hermes={hermes})"
        );
    }
}
