//! Bingo: spatial footprint prefetching with dual-key history lookup
//! (Bakhshalipour et al., HPCA'19).
//!
//! Accesses are grouped into 2 KB regions. The first (trigger) access to a
//! region opens a *generation*: subsequent accesses accumulate a footprint
//! bitmap until the region is evicted from the accumulation table, at
//! which point the footprint is stored in a history table under both a
//! long key (PC+address) and a short key (PC+offset). A later trigger
//! access first probes the long key (most precise); on a miss it falls
//! back to the short key — Bingo's titular trick — and prefetches every
//! line in the recalled footprint.

use hermes_types::{FastMap, LineAddr};

use crate::{AccessCtx, PrefetchReq, Prefetcher};

/// Region size in lines (2 KB / 64 B).
const REGION_LINES: u64 = 32;
const ACC_ENTRIES: usize = 16;
const HISTORY_ENTRIES: usize = 4096;

#[derive(Debug, Clone, Copy, Default)]
struct AccEntry {
    region: u64,
    footprint: u32,
    trigger_pc: u64,
    trigger_offset: u8,
    valid: bool,
    lru: u64,
}

/// See [module docs](self).
#[derive(Debug, Clone)]
pub struct Bingo {
    acc: Vec<AccEntry>,
    /// Long-key history: (pc, region) -> footprint.
    hist_long: FastMap<u64, u32>,
    /// Short-key history: (pc, offset) -> footprint.
    hist_short: FastMap<u64, u32>,
    clock: u64,
}

impl Bingo {
    /// Builds Bingo with its paper configuration (~46 KB, Table 6).
    pub fn new() -> Self {
        Self {
            acc: vec![AccEntry::default(); ACC_ENTRIES],
            hist_long: FastMap::with_capacity_and_hasher(HISTORY_ENTRIES, Default::default()),
            hist_short: FastMap::with_capacity_and_hasher(HISTORY_ENTRIES, Default::default()),
            clock: 0,
        }
    }

    fn long_key(pc: u64, region: u64) -> u64 {
        pc ^ (region << 20)
    }

    fn short_key(pc: u64, offset: u8) -> u64 {
        pc ^ ((offset as u64) << 52)
    }

    fn store(&mut self, e: &AccEntry) {
        // Only remember footprints with some spatial density.
        if e.footprint.count_ones() < 2 {
            return;
        }
        if self.hist_long.len() >= HISTORY_ENTRIES {
            self.hist_long.clear(); // coarse generation-based flush
        }
        if self.hist_short.len() >= HISTORY_ENTRIES {
            self.hist_short.clear();
        }
        self.hist_long
            .insert(Self::long_key(e.trigger_pc, e.region), e.footprint);
        self.hist_short
            .insert(Self::short_key(e.trigger_pc, e.trigger_offset), e.footprint);
    }
}

impl Default for Bingo {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Bingo {
    fn on_access(&mut self, ctx: &AccessCtx, out: &mut Vec<PrefetchReq>) {
        self.clock += 1;
        let region = ctx.line.raw() / REGION_LINES;
        let offset = (ctx.line.raw() % REGION_LINES) as u8;

        if let Some(e) = self.acc.iter_mut().find(|e| e.valid && e.region == region) {
            e.footprint |= 1 << offset;
            e.lru = self.clock;
            return;
        }

        // Trigger access: recall footprint (long key, then short key).
        let footprint = self
            .hist_long
            .get(&Self::long_key(ctx.pc, region))
            .or_else(|| self.hist_short.get(&Self::short_key(ctx.pc, offset)))
            .copied();
        if let Some(fp) = footprint {
            let base = region * REGION_LINES;
            for bit in 0..REGION_LINES as u8 {
                if bit != offset && fp & (1 << bit) != 0 {
                    out.push(PrefetchReq {
                        line: LineAddr::new(base + bit as u64),
                    });
                }
            }
        }

        // Open a new generation, evicting the LRU accumulation entry.
        let idx = self
            .acc
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("acc nonzero");
        let old = self.acc[idx];
        if old.valid {
            self.store(&old);
        }
        self.acc[idx] = AccEntry {
            region,
            footprint: 1 << offset,
            trigger_pc: ctx.pc,
            trigger_offset: offset,
            valid: true,
            lru: self.clock,
        };
    }

    fn name(&self) -> &'static str {
        "Bingo"
    }

    fn storage_bits(&self) -> usize {
        // Accumulation: region tag 38b + footprint 32b + pc 32b + off 5b.
        let acc = ACC_ENTRIES * (38 + 32 + 32 + 5 + 16);
        // History: two tables of (tag 32b + footprint 32b).
        let hist = 2 * HISTORY_ENTRIES * (32 + 32);
        acc + hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks a fixed footprint {0,3,7,12} in many regions with one PC,
    /// returning how many accesses were anticipated.
    fn footprint_workload(p: &mut Bingo, regions: u64) -> usize {
        let pattern = [0u64, 3, 7, 12];
        let mut out = Vec::new();
        let mut predicted = std::collections::HashSet::new();
        let mut covered = 0;
        for r in 0..regions {
            let base = (0x5000 + r) * REGION_LINES;
            for &o in &pattern {
                let line = LineAddr::new(base + o);
                if predicted.contains(&line) {
                    covered += 1;
                }
                out.clear();
                p.on_access(
                    &AccessCtx {
                        pc: 0x400abc,
                        line,
                        hit: false,
                    },
                    &mut out,
                );
                for req in &out {
                    predicted.insert(req.line);
                }
            }
        }
        covered
    }

    #[test]
    fn recalls_recurring_footprints() {
        let mut p = Bingo::new();
        let covered = footprint_workload(&mut p, 500);
        // 3 of 4 accesses per region are coverable once history warms.
        assert!(covered > 700, "footprint coverage {covered}/2000");
    }

    #[test]
    fn no_prefetch_without_history() {
        let mut p = Bingo::new();
        let mut out = Vec::new();
        p.on_access(
            &AccessCtx {
                pc: 1,
                line: LineAddr::new(999),
                hit: false,
            },
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn prefetches_stay_in_region() {
        let mut p = Bingo::new();
        let _ = footprint_workload(&mut p, 100);
        let mut out = Vec::new();
        let line = LineAddr::new(0x9999 * REGION_LINES + 3);
        p.on_access(
            &AccessCtx {
                pc: 0x400abc,
                line,
                hit: false,
            },
            &mut out,
        );
        for r in &out {
            assert_eq!(r.line.raw() / REGION_LINES, line.raw() / REGION_LINES);
        }
    }

    #[test]
    fn storage_in_expected_band() {
        let kb = Bingo::new().storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            (30.0..70.0).contains(&kb),
            "Bingo storage {kb} KB (paper: 46 KB)"
        );
    }
}
