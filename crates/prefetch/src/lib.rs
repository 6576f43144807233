//! Hardware data prefetchers.
//!
//! The paper evaluates Hermes on top of five recently-proposed
//! high-performance prefetchers (§7.2, §8.4.2); all five are implemented
//! here from their original descriptions:
//!
//! * [`pythia::Pythia`] — reinforcement-learning offset prefetcher
//!   (Bera et al., MICRO'21), the paper's baseline prefetcher.
//! * [`bingo::Bingo`] — spatial footprint prefetcher with dual-key lookup
//!   (Bakhshalipour et al., HPCA'19).
//! * [`spp::Spp`] — signature path prefetcher with lookahead and a
//!   perceptron prefetch filter (Kim et al., MICRO'16 + Bhatia et al.,
//!   ISCA'19).
//! * [`mlop::Mlop`] — multi-lookahead offset prefetcher (Shakerinava et
//!   al., DPC3'19).
//! * [`sms::Sms`] — spatial memory streaming (Somogyi et al., ISCA'06).
//!
//! Prefetchers are attached to one cache level by the hierarchy engine
//! (the LLC in the paper's Table 4) and observe demand accesses at that
//! level through [`Prefetcher::on_access`]; usefulness feedback arrives
//! through the fill/hit/eviction hooks, which Pythia's reward scheme and
//! SPP's perceptron filter consume.

pub mod bingo;
pub mod mlop;
pub mod pythia;
pub mod sms;
pub mod spp;

use hermes_types::LineAddr;

/// A demand access observed by a prefetcher at its cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCtx {
    /// PC of the demand load/store that caused the access.
    pub pc: u64,
    /// Physical line accessed.
    pub line: LineAddr,
    /// Whether the access hit at this level.
    pub hit: bool,
}

/// A prefetch candidate produced by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchReq {
    /// Line to fetch.
    pub line: LineAddr,
}

/// A hardware data prefetcher.
///
/// Implementations append candidates to `out` (the hierarchy engine
/// deduplicates against cache contents and MSHRs, enforces queue limits,
/// and reports usefulness back through the hooks).
pub trait Prefetcher {
    /// Observes a demand access and proposes prefetches.
    fn on_access(&mut self, ctx: &AccessCtx, out: &mut Vec<PrefetchReq>);

    /// A demand hit on a line this prefetcher brought in (a *useful*
    /// prefetch).
    fn on_prefetch_hit(&mut self, line: LineAddr) {
        let _ = line;
    }

    /// A prefetched line was evicted without ever being demanded (a
    /// *useless* prefetch).
    fn on_unused_eviction(&mut self, line: LineAddr) {
        let _ = line;
    }

    /// A demand arrived while this prefetch was still in flight — the
    /// prefetch was *accurate but late* (Pythia's R_AL reward class).
    fn on_late_prefetch(&mut self, line: LineAddr) {
        let _ = line;
    }

    /// Display name.
    fn name(&self) -> &'static str;

    /// Storage cost in bits (Table 6).
    fn storage_bits(&self) -> usize;
}

/// Which prefetcher a system configuration uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// No prefetching (the normalisation baseline of every figure).
    None,
    /// Signature path prefetcher + perceptron filter.
    Spp,
    /// Bingo spatial prefetcher.
    Bingo,
    /// Multi-lookahead offset prefetcher.
    Mlop,
    /// Spatial memory streaming.
    Sms,
    /// Pythia (RL-based), the paper's baseline.
    Pythia,
}

impl PrefetcherKind {
    /// All the high-performance prefetchers compared in Fig. 17b.
    pub const PAPER_SET: [PrefetcherKind; 5] = [
        PrefetcherKind::Pythia,
        PrefetcherKind::Bingo,
        PrefetcherKind::Spp,
        PrefetcherKind::Mlop,
        PrefetcherKind::Sms,
    ];

    /// Display label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PrefetcherKind::None => "no-prefetching",
            PrefetcherKind::Spp => "SPP",
            PrefetcherKind::Bingo => "Bingo",
            PrefetcherKind::Mlop => "MLOP",
            PrefetcherKind::Sms => "SMS",
            PrefetcherKind::Pythia => "Pythia",
        }
    }
}

/// A no-op prefetcher (the no-prefetching baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPrefetcher;

impl Prefetcher for NoPrefetcher {
    fn on_access(&mut self, _ctx: &AccessCtx, _out: &mut Vec<PrefetchReq>) {}

    fn name(&self) -> &'static str {
        "none"
    }

    fn storage_bits(&self) -> usize {
        0
    }
}

/// Builds the prefetcher selected by `kind` with its paper configuration.
pub fn build(kind: PrefetcherKind) -> Box<dyn Prefetcher> {
    match kind {
        PrefetcherKind::None => Box::new(NoPrefetcher),
        PrefetcherKind::Spp => Box::new(spp::Spp::new()),
        PrefetcherKind::Bingo => Box::new(bingo::Bingo::new()),
        PrefetcherKind::Mlop => Box::new(mlop::Mlop::new()),
        PrefetcherKind::Sms => Box::new(sms::Sms::new()),
        PrefetcherKind::Pythia => Box::new(pythia::Pythia::new()),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Feeds a sequential stream of `n` same-page-style accesses from one
    /// PC and returns the fraction of future lines covered by prefetches.
    pub fn stream_coverage(pf: &mut dyn Prefetcher, n: u64) -> f64 {
        let mut issued = std::collections::HashSet::new();
        let mut covered = 0u64;
        let mut out = Vec::new();
        for i in 0..n {
            let line = LineAddr::new(0x10_0000 + i);
            if issued.contains(&line) {
                covered += 1;
                pf.on_prefetch_hit(line);
            }
            out.clear();
            pf.on_access(
                &AccessCtx {
                    pc: 0x400100,
                    line,
                    hit: issued.contains(&line),
                },
                &mut out,
            );
            for r in &out {
                issued.insert(r.line);
            }
        }
        covered as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_constructs_every_kind() {
        for k in [
            PrefetcherKind::None,
            PrefetcherKind::Spp,
            PrefetcherKind::Bingo,
            PrefetcherKind::Mlop,
            PrefetcherKind::Sms,
            PrefetcherKind::Pythia,
        ] {
            let mut p = build(k);
            let mut out = Vec::new();
            p.on_access(
                &AccessCtx {
                    pc: 1,
                    line: LineAddr::new(100),
                    hit: false,
                },
                &mut out,
            );
        }
    }

    #[test]
    fn none_never_prefetches() {
        let mut p = NoPrefetcher;
        let mut out = Vec::new();
        for i in 0..100 {
            p.on_access(
                &AccessCtx {
                    pc: 1,
                    line: LineAddr::new(i),
                    hit: false,
                },
                &mut out,
            );
        }
        assert!(out.is_empty());
        assert_eq!(p.storage_bits(), 0);
    }

    #[test]
    fn paper_set_has_five() {
        assert_eq!(PrefetcherKind::PAPER_SET.len(), 5);
        assert_eq!(PrefetcherKind::PAPER_SET[0], PrefetcherKind::Pythia);
    }

    #[test]
    fn every_paper_prefetcher_covers_a_stream() {
        for k in PrefetcherKind::PAPER_SET {
            let mut p = build(k);
            let cov = testutil::stream_coverage(p.as_mut(), 3000);
            assert!(
                cov > 0.5,
                "{} covered only {cov:.2} of a pure stream",
                p.name()
            );
        }
    }
}
