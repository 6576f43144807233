//! SPP: the Signature Path Prefetcher (Kim et al., MICRO'16) with the
//! perceptron prefetch filter of PPF (Bhatia et al., ISCA'19).
//!
//! Per-page delta history is compressed into a 12-bit *signature*; a
//! pattern table maps signatures to candidate deltas with confidence
//! counters. On each access SPP walks the signature path speculatively
//! ("lookahead"): it picks the highest-confidence delta, compounds the
//! path confidence, and keeps issuing deeper prefetches until the product
//! falls below a threshold. The PPF perceptron vetoes low-quality
//! candidates using hashed features, trained by prefetch usefulness
//! feedback.

use hermes_types::{hash_index, FastMap, LineAddr, SatWeight};

use crate::{AccessCtx, PrefetchReq, Prefetcher};

const SIG_BITS: u32 = 12;
const SIG_SHIFT: u32 = 3;
const PT_WAYS: usize = 4;
const ST_ENTRIES: usize = 256;
const LOOKAHEAD_MAX: usize = 8;
const CONF_THRESHOLD: f64 = 0.25;
const PPF_TABLE_BITS: u32 = 10;
const PPF_TABLES: usize = 3;
const PPF_THRESHOLD: i32 = -6;

#[derive(Debug, Clone, Copy, Default)]
struct SigEntry {
    page: u64,
    last_offset: u8,
    signature: u16,
    valid: bool,
    lru: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct PtWay {
    delta: i8,
    count: u8,
}

#[derive(Debug, Clone, Copy, Default)]
struct PtSet {
    ways: [PtWay; PT_WAYS],
    total: u8,
}

impl PtSet {
    fn update(&mut self, delta: i8) {
        if self.total == u8::MAX {
            // Halve on saturation to keep confidences adaptive.
            for w in &mut self.ways {
                w.count /= 2;
            }
            self.total /= 2;
        }
        self.total += 1;
        if let Some(w) = self
            .ways
            .iter_mut()
            .find(|w| w.delta == delta && w.count > 0)
        {
            w.count = w.count.saturating_add(1);
            return;
        }
        // Replace the weakest way.
        let w = self
            .ways
            .iter_mut()
            .min_by_key(|w| w.count)
            .expect("PT_WAYS nonzero");
        *w = PtWay { delta, count: 1 };
    }

    fn best(&self) -> Option<(i8, f64)> {
        if self.total == 0 {
            return None;
        }
        self.ways
            .iter()
            .filter(|w| w.count > 0)
            .max_by_key(|w| w.count)
            .map(|w| (w.delta, w.count as f64 / self.total as f64))
    }
}

/// The PPF perceptron filter: hashed features vote on each candidate.
#[derive(Debug, Clone)]
struct PpfFilter {
    tables: Vec<Vec<SatWeight>>,
    /// Issued-prefetch metadata for training: line -> feature indices.
    inflight: FastMap<u64, [u16; PPF_TABLES]>,
}

impl PpfFilter {
    fn new() -> Self {
        Self {
            tables: (0..PPF_TABLES)
                .map(|_| vec![SatWeight::new_bits(6); 1 << PPF_TABLE_BITS])
                .collect(),
            inflight: FastMap::default(),
        }
    }

    fn indices(pc: u64, sig: u16, delta: i8, depth: usize) -> [u16; PPF_TABLES] {
        [
            hash_index(pc ^ (delta as u64) << 20, PPF_TABLE_BITS) as u16,
            hash_index(sig as u64 ^ ((depth as u64) << 16), PPF_TABLE_BITS) as u16,
            hash_index(pc.rotate_left(17) ^ sig as u64, PPF_TABLE_BITS) as u16,
        ]
    }

    fn accept(&mut self, pc: u64, sig: u16, delta: i8, depth: usize, line: LineAddr) -> bool {
        let idx = Self::indices(pc, sig, delta, depth);
        let sum: i32 = idx
            .iter()
            .zip(&self.tables)
            .map(|(&i, t)| t[i as usize].get() as i32)
            .sum();
        let ok = sum >= PPF_THRESHOLD;
        if ok && self.inflight.len() < 4096 {
            self.inflight.insert(line.raw(), idx);
        }
        ok
    }

    fn train(&mut self, line: LineAddr, useful: bool) {
        if let Some(idx) = self.inflight.remove(&line.raw()) {
            for (&i, t) in idx.iter().zip(self.tables.iter_mut()) {
                t[i as usize].train(useful);
            }
        }
    }

    fn storage_bits(&self) -> usize {
        PPF_TABLES * (1 << PPF_TABLE_BITS) * 6
    }
}

/// See [module docs](self).
#[derive(Debug, Clone)]
pub struct Spp {
    st: Vec<SigEntry>,
    pt: Vec<PtSet>,
    ppf: PpfFilter,
    clock: u64,
}

impl Spp {
    /// Builds SPP+PPF with the paper-era configuration (~39 KB, Table 6).
    pub fn new() -> Self {
        Self {
            st: vec![SigEntry::default(); ST_ENTRIES],
            pt: vec![PtSet::default(); 1 << SIG_BITS],
            ppf: PpfFilter::new(),
            clock: 0,
        }
    }

    fn compose(sig: u16, delta: i8) -> u16 {
        let d = (delta as i16 & 0x3F) as u16;
        ((sig << SIG_SHIFT) ^ d) & ((1 << SIG_BITS) - 1)
    }
}

impl Default for Spp {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Spp {
    fn on_access(&mut self, ctx: &AccessCtx, out: &mut Vec<PrefetchReq>) {
        self.clock += 1;
        let page = ctx.line.page_number();
        let offset = ctx.line.offset_in_page() as u8;

        // Signature-table lookup / update.
        let slot = match self.st.iter().position(|e| e.valid && e.page == page) {
            Some(i) => i,
            None => {
                let i = self
                    .st
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
                    .map(|(i, _)| i)
                    .expect("ST nonzero");
                self.st[i] = SigEntry {
                    page,
                    last_offset: offset,
                    signature: 0,
                    valid: true,
                    lru: self.clock,
                };
                return; // first access to the page: no delta yet
            }
        };
        let e = &mut self.st[slot];
        e.lru = self.clock;
        let delta = offset as i16 - e.last_offset as i16;
        if delta == 0 {
            return;
        }
        let delta = delta.clamp(-63, 63) as i8;
        let old_sig = e.signature;
        // Train the pattern table with the observed transition.
        self.pt[old_sig as usize].update(delta);
        e.signature = Self::compose(old_sig, delta);
        e.last_offset = offset;
        let mut sig = e.signature;

        // Lookahead walk.
        let mut conf = 1.0f64;
        let mut pos = offset as i64;
        for depth in 0..LOOKAHEAD_MAX {
            let Some((d, c)) = self.pt[sig as usize].best() else {
                break;
            };
            conf *= c;
            if conf < CONF_THRESHOLD {
                break;
            }
            pos += d as i64;
            if !(0..64).contains(&pos) {
                break; // SPP stops at page boundaries
            }
            let line = LineAddr::new((page << 6) | pos as u64);
            if self.ppf.accept(ctx.pc, sig, d, depth, line) {
                out.push(PrefetchReq { line });
            }
            sig = Self::compose(sig, d);
        }
    }

    fn on_prefetch_hit(&mut self, line: LineAddr) {
        self.ppf.train(line, true);
    }

    fn on_unused_eviction(&mut self, line: LineAddr) {
        self.ppf.train(line, false);
    }

    fn on_late_prefetch(&mut self, line: LineAddr) {
        self.ppf.train(line, true);
    }

    fn name(&self) -> &'static str {
        "SPP"
    }

    fn storage_bits(&self) -> usize {
        // ST: page tag 36b + offset 6b + sig 12b + lru 16b per entry.
        let st = ST_ENTRIES * (36 + 6 + 12 + 16);
        // PT: 4 ways x (delta 7b + count 8b) + total 8b per set.
        let pt = (1 << SIG_BITS) * (PT_WAYS * 15 + 8);
        st + pt + self.ppf.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_unit_stride_stream() {
        let mut p = Spp::new();
        let cov = crate::testutil::stream_coverage(&mut p, 3000);
        assert!(cov > 0.7, "coverage {cov}");
    }

    #[test]
    fn learns_stride_2_within_pages() {
        let mut p = Spp::new();
        let mut out = Vec::new();
        let mut hits = 0;
        for i in 0..2000u64 {
            let line = LineAddr::new(0x40_0000 + i * 2);
            out.clear();
            p.on_access(
                &AccessCtx {
                    pc: 7,
                    line,
                    hit: false,
                },
                &mut out,
            );
            if out.iter().any(|r| r.line.raw() == line.raw() + 2) {
                hits += 1;
            }
        }
        assert!(hits > 800, "stride-2 prediction count {hits}");
    }

    #[test]
    fn lookahead_goes_multiple_deltas_deep() {
        let mut p = Spp::new();
        let mut out = Vec::new();
        let mut max_depth = 0usize;
        for i in 0..4000u64 {
            let line = LineAddr::new(0x80_0000 + i);
            out.clear();
            p.on_access(
                &AccessCtx {
                    pc: 9,
                    line,
                    hit: false,
                },
                &mut out,
            );
            max_depth = max_depth.max(out.len());
        }
        assert!(max_depth >= 2, "lookahead depth never exceeded 1");
    }

    #[test]
    fn stays_within_page() {
        let mut p = Spp::new();
        let mut out = Vec::new();
        for i in 0..5000u64 {
            let line = LineAddr::new(0xC0_0000 + i);
            out.clear();
            p.on_access(
                &AccessCtx {
                    pc: 3,
                    line,
                    hit: false,
                },
                &mut out,
            );
            for r in &out {
                assert_eq!(
                    r.line.page_number(),
                    line.page_number(),
                    "SPP must not cross pages"
                );
            }
        }
    }

    #[test]
    fn ppf_suppresses_after_useless_feedback() {
        let mut p = Spp::new();
        let mut out = Vec::new();
        // Train a stream, then report every prefetch useless; issue rate
        // must drop.
        let mut early = 0;
        let mut late = 0;
        for i in 0..6000u64 {
            let line = LineAddr::new(0x100_0000 + i);
            out.clear();
            p.on_access(
                &AccessCtx {
                    pc: 5,
                    line,
                    hit: false,
                },
                &mut out,
            );
            for r in out.iter() {
                p.on_unused_eviction(r.line);
            }
            if i < 1000 {
                early += out.len();
            }
            if i >= 5000 {
                late += out.len();
            }
        }
        assert!(
            late < early,
            "PPF did not throttle useless prefetches: {early} -> {late}"
        );
    }

    #[test]
    fn storage_in_expected_band() {
        let kb = Spp::new().storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            (20.0..45.0).contains(&kb),
            "SPP storage {kb} KB (paper: 39.3 KB)"
        );
    }
}
