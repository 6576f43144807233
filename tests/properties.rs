//! Cross-crate property-based tests (proptest): invariants that must hold
//! for arbitrary inputs, seeds, and configurations.

use proptest::prelude::*;

use hermes_repro::hermes::{LoadContext, OffChipPredictor, Popet, PredictionMeta};
use hermes_repro::hermes_cache::{CacheArray, CacheConfig, MshrTable, ReplacementKind};
use hermes_repro::hermes_dram::{DramConfig, MemoryController, ReqKind};
use hermes_repro::hermes_trace::suite;
use hermes_repro::hermes_types::{LineAddr, VirtAddr};
use hermes_repro::hermes_vm::{PageMap, HUGE_PAGE_BITS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cache never holds more lines than its capacity, and a line just
    /// filled is present until something evicts it.
    #[test]
    fn cache_occupancy_bounded(addrs in prop::collection::vec(0u64..10_000, 1..400)) {
        let cfg = CacheConfig::new("t", 64 * 64, 4, ReplacementKind::Lru, 8);
        let mut c = CacheArray::new(&cfg);
        for a in addrs {
            let line = LineAddr::new(a);
            if !c.access(line, 0).hit {
                c.fill(line, false, false, 0);
            }
            prop_assert!(c.occupancy() <= cfg.lines());
            prop_assert!(c.probe(line), "line lost immediately after fill");
        }
    }

    /// SHiP behaves like a legal replacement policy: fills never exceed
    /// capacity and evictions only report lines that were resident.
    #[test]
    fn ship_evictions_are_resident_lines(addrs in prop::collection::vec(0u64..2_000, 1..300)) {
        let cfg = CacheConfig::new("t", 32 * 64, 4, ReplacementKind::Ship, 8);
        let mut c = CacheArray::new(&cfg);
        let mut resident = std::collections::HashSet::new();
        for a in addrs {
            let line = LineAddr::new(a);
            if !c.access(line, (a % 64) as u16).hit && !resident.contains(&line) {
                if let Some(ev) = c.fill(line, false, false, (a % 64) as u16) {
                    prop_assert!(resident.remove(&ev.line), "evicted non-resident {:?}", ev.line);
                }
                resident.insert(line);
            }
        }
    }

    /// MSHR: merges never exceed capacity, and completion returns every
    /// registered waiter exactly once.
    #[test]
    fn mshr_waiters_conserved(ops in prop::collection::vec((0u64..16, 0u32..100), 1..200)) {
        let mut t: MshrTable<u32> = MshrTable::new(4);
        let mut expected: std::collections::HashMap<u64, Vec<u32>> = Default::default();
        for (line, w) in ops {
            let l = LineAddr::new(line);
            match t.allocate(l, w, false) {
                Ok(_) => expected.entry(line).or_default().push(w),
                Err(_) => { /* full: caller retries later */ }
            }
            prop_assert!(t.in_use() <= 4);
        }
        for (line, ws) in expected {
            let (got, _) = t.complete(LineAddr::new(line)).expect("entry present");
            prop_assert_eq!(got, ws);
        }
        prop_assert_eq!(t.in_use(), 0);
    }

    /// DRAM: completion time is bounded below by the minimum access
    /// latency, and later arrivals never complete before the data they
    /// merged with.
    #[test]
    fn dram_latency_lower_bound(lines in prop::collection::vec(0u64..4096, 1..100)) {
        let mut mc = MemoryController::new(DramConfig::single_core());
        let min = mc.min_read_latency();
        let mut now = 0;
        let mut done = Vec::new();
        for l in lines {
            now += 3;
            // Honour the controller contract: completions are drained
            // continuously (as the hierarchy does every cycle).
            mc.pop_completions(now, &mut done);
            let r = mc.enqueue_read(LineAddr::new(l), now, ReqKind::Demand);
            if !r.merged {
                prop_assert!(r.completes_at >= now + min,
                    "read finished faster than a row hit: {} < {}", r.completes_at - now, min);
            } else {
                prop_assert!(r.completes_at >= now, "merged into an already-completed read");
            }
        }
    }

    /// POPET: the cumulative weight is always within the theoretical
    /// range of the active features, and prediction is a pure function of
    /// it (Wσ ≥ τ_act).
    #[test]
    fn popet_weight_bounds(
        pcs in prop::collection::vec(0u64..1024, 1..300),
        outcomes in prop::collection::vec(any::<bool>(), 300),
    ) {
        let mut p = Popet::default();
        let n_features = 5i32;
        for (i, pc) in pcs.iter().enumerate() {
            let ctx = LoadContext::identity(0x400000 + pc * 4, VirtAddr::new(pc * 4096 + i as u64 * 8));
            let pred = p.predict(&ctx);
            let PredictionMeta::Popet { wsum, .. } = pred.meta else {
                prop_assert!(false, "wrong meta");
                unreachable!();
            };
            prop_assert!((wsum as i32) >= -16 * n_features && (wsum as i32) <= 15 * n_features);
            prop_assert_eq!(pred.go_offchip, (wsum as i32) >= p.config().tau_act);
            p.train(&ctx, &pred, outcomes[i % outcomes.len()]);
        }
    }

    /// Translation invariants, vm on and off, 4 KB and 2 MB pages:
    /// page offsets survive translation, the mapping is a pure function,
    /// cores see disjoint frames, and with 4 KB pages the vm subsystem's
    /// map is bit-identical to the historical free translation (so
    /// enabling vm changes timing, never data placement).
    #[test]
    fn translation_invariants(
        raw in any::<u64>(),
        core in 0usize..8,
        pm_sel in 0usize..3,
    ) {
        use hermes_repro::hermes_vm::page_map::translate;
        let huge_pm = [0u32, 500, 1000][pm_sel];
        let v = VirtAddr::new(raw);
        let map = PageMap::new(huge_pm);
        let (p, huge) = map.translate(core, v);

        // Page-offset preservation: always at 4 KB granularity, and at
        // 2 MB granularity for huge pages.
        prop_assert_eq!(p.offset_in_page(), v.offset_in_page());
        if huge {
            let hmask = (1u64 << HUGE_PAGE_BITS) - 1;
            prop_assert_eq!(p.raw() & hmask, v.raw() & hmask);
        }

        // Determinism, and same page -> same frame.
        let (p2, huge2) = map.translate(core, v);
        prop_assert_eq!((p2, huge2), (p, huge));
        let sibling = VirtAddr::new(raw ^ (raw & 0xFFF) ^ 0x5A5);
        prop_assert_eq!(
            map.translate(core, sibling).0.page_number(),
            p.page_number()
        );

        // Per-core disjointness (distinct frames for all 8 cores) —
        // except in the shared region, where every core must see the
        // *same* frame (that aliasing is what the coherence layer
        // exists to police).
        let frames: std::collections::HashSet<u64> =
            (0..8).map(|c| map.translate(c, v).0.page_number()).collect();
        prop_assert_eq!(frames.len(), if v.is_shared() { 1 } else { 8 });

        // vm-off equivalence: the 4 KB formula is the historical one.
        if !huge {
            prop_assert_eq!(p, translate(core, v));
        }
    }

    /// Trace generators are deterministic and produce valid instructions
    /// (a register index never exceeds the register file).
    #[test]
    fn generators_deterministic_and_valid(which in 0usize..5, n in 100usize..500) {
        let specs = suite::smoke_suite();
        let spec = &specs[which];
        let mut a = spec.build();
        let mut b = spec.build();
        for _ in 0..n {
            let ia = a.next_instr();
            let ib = b.next_instr();
            prop_assert_eq!(ia, ib);
            for r in ia.src_regs.iter().flatten() {
                prop_assert!((*r as usize) < hermes_repro::hermes_trace::instr::NUM_REGS);
            }
            if let Some(d) = ia.dst_reg {
                prop_assert!((d as usize) < hermes_repro::hermes_trace::instr::NUM_REGS);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full-system runs complete and produce coherent counters for any
    /// smoke workload and any small window, translation subsystem on or
    /// off (and with either page size when on).
    #[test]
    fn system_runs_are_coherent(
        which in 0usize..5,
        instr in 5_000u64..15_000,
        vm in 0u32..3,
    ) {
        use hermes_repro::hermes::{HermesConfig, PredictorKind};
        use hermes_repro::hermes_sim::{system::run_one, SystemConfig};
        use hermes_repro::hermes_vm::VmConfig;
        let spec = &suite::smoke_suite()[which];
        let mut cfg = SystemConfig::baseline_1c()
            .with_hermes(HermesConfig::hermes_o(PredictorKind::Popet));
        match vm {
            1 => cfg = cfg.with_vm(VmConfig::baseline()),
            2 => cfg = cfg.with_vm(VmConfig::baseline().with_huge_page_pm(500)),
            _ => {}
        }
        let r = run_one(cfg, spec, 1_000, instr);
        let c = &r.cores[0];
        prop_assert_eq!(c.instructions, instr);
        prop_assert!(c.cycles > 0);
        prop_assert!(c.ipc() > 0.0 && c.ipc() <= 6.0);
        prop_assert!(c.core.offchip_blocking + c.core.offchip_nonblocking == c.core.served_dram);
        prop_assert!(c.offchip_rate() >= 0.0 && c.offchip_rate() <= 1.0);
        prop_assert!(c.pred.accuracy() >= 0.0 && c.pred.accuracy() <= 1.0);
        prop_assert!(c.pred.coverage() >= 0.0 && c.pred.coverage() <= 1.0);
        // Translation counters are internally coherent.
        let h = &c.hier;
        prop_assert!(h.dtlb_misses <= h.dtlb_accesses);
        prop_assert!(h.stlb_misses <= h.dtlb_misses);
        // Same-page requests merge, so walks never exceed STLB misses —
        // modulo walks in flight across the warmup stat reset (those
        // complete inside the window without a counted miss).
        prop_assert!(h.walks_completed <= h.stlb_misses + 256);
        if vm == 0 {
            prop_assert_eq!(h.dtlb_accesses, 0);
        } else {
            prop_assert!(h.dtlb_accesses > 0);
        }
    }
}
