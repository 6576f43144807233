//! Replacement policies: LRU and SHiP.
//!
//! Table 4 of the paper uses LRU at L1/L2 and SHiP (Wu et al., MICRO'11) at
//! the LLC. SHiP is SRRIP insertion steered by a signature history counter
//! table (SHCT): lines whose PC signature historically saw no reuse are
//! inserted at distant re-reference (RRPV 3) so they age out quickly.

use hermes_types::SatCounter;

/// Which policy a [`crate::CacheArray`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// Least-recently-used (exact, stamp-based).
    Lru,
    /// Signature-based hit prediction (SRRIP + SHCT), the paper's LLC
    /// policy.
    Ship,
}

/// Maximum RRPV for the 2-bit RRIP family (3 = distant re-reference).
const RRPV_MAX: u8 = 3;
/// SHiP's signature history counter table size (2^14 entries, as in the
/// original proposal).
const SHCT_BITS: u32 = 14;

/// Internal per-policy state; one instance per cache array.
#[derive(Debug, Clone)]
pub(crate) enum PolicyState {
    Lru {
        stamps: Vec<u64>,
        clock: u64,
    },
    Ship {
        rrpv: Vec<u8>,
        /// PC signature that filled each line.
        sig: Vec<u16>,
        /// Whether the line was re-referenced since fill.
        reused: Vec<bool>,
        shct: Vec<SatCounter>,
    },
}

impl PolicyState {
    pub(crate) fn new(kind: ReplacementKind, total_lines: usize) -> Self {
        match kind {
            ReplacementKind::Lru => PolicyState::Lru {
                stamps: vec![0; total_lines],
                clock: 0,
            },
            ReplacementKind::Ship => PolicyState::Ship {
                rrpv: vec![RRPV_MAX; total_lines],
                sig: vec![0; total_lines],
                reused: vec![false; total_lines],
                shct: vec![SatCounter::new_zero(3); 1 << SHCT_BITS],
            },
        }
    }

    /// Called when `idx` (a global line index) hits.
    pub(crate) fn on_hit(&mut self, idx: usize) {
        match self {
            PolicyState::Lru { stamps, clock } => {
                *clock += 1;
                stamps[idx] = *clock;
            }
            PolicyState::Ship {
                rrpv,
                sig,
                reused,
                shct,
            } => {
                rrpv[idx] = 0;
                if !reused[idx] {
                    reused[idx] = true;
                    shct[sig[idx] as usize].increment();
                }
            }
        }
    }

    /// Called when a new line fills `idx` with PC signature `signature`.
    pub(crate) fn on_fill(&mut self, idx: usize, signature: u16) {
        match self {
            PolicyState::Lru { stamps, clock } => {
                *clock += 1;
                stamps[idx] = *clock;
            }
            PolicyState::Ship {
                rrpv,
                sig,
                reused,
                shct,
            } => {
                sig[idx] = signature & ((1 << SHCT_BITS) - 1) as u16;
                reused[idx] = false;
                // Zero counter => this signature never shows reuse: insert
                // at distant RRPV so the line is evicted first.
                rrpv[idx] = if shct[sig[idx] as usize].get() == 0 {
                    RRPV_MAX
                } else {
                    RRPV_MAX - 1
                };
            }
        }
    }

    /// Called when `idx` is evicted (to train SHCT on dead lines).
    pub(crate) fn on_evict(&mut self, idx: usize) {
        if let PolicyState::Ship {
            sig, reused, shct, ..
        } = self
        {
            if !reused[idx] {
                shct[sig[idx] as usize].decrement();
            }
        }
    }

    /// Chooses a victim way among `base..base+ways` (all valid).
    pub(crate) fn victim(&mut self, base: usize, ways: usize) -> usize {
        match self {
            PolicyState::Lru { stamps, .. } => {
                let mut best = 0;
                let mut best_stamp = u64::MAX;
                for w in 0..ways {
                    if stamps[base + w] < best_stamp {
                        best_stamp = stamps[base + w];
                        best = w;
                    }
                }
                best
            }
            PolicyState::Ship { rrpv, .. } => loop {
                for w in 0..ways {
                    if rrpv[base + w] == RRPV_MAX {
                        return w;
                    }
                }
                for w in 0..ways {
                    rrpv[base + w] += 1;
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = PolicyState::new(ReplacementKind::Lru, 4);
        for i in 0..4 {
            p.on_fill(i, 0);
        }
        p.on_hit(0); // 0 becomes MRU; 1 is now LRU
        assert_eq!(p.victim(0, 4), 1);
    }

    // SHiP chooses victims with SRRIP's RRPV walk; these two pin it.

    #[test]
    fn srrip_victim_is_distant() {
        let mut p = PolicyState::new(ReplacementKind::Ship, 4);
        for i in 0..4 {
            p.on_fill(i, 0);
        }
        p.on_hit(2); // rrpv[2]=0, others distant
        let v = p.victim(0, 4);
        assert_ne!(v, 2, "recently-hit line chosen as victim");
    }

    #[test]
    fn srrip_ages_until_victim_found() {
        let mut p = PolicyState::new(ReplacementKind::Ship, 2);
        p.on_fill(0, 0);
        p.on_fill(1, 0);
        p.on_hit(0);
        p.on_hit(1);
        // Both at rrpv 0: policy must age and still terminate.
        let v = p.victim(0, 2);
        assert!(v < 2);
    }

    #[test]
    fn ship_dead_signature_inserted_distant() {
        let mut p = PolicyState::new(ReplacementKind::Ship, 8);
        let sig = 0x123u16;
        // Fill + evict without reuse several times: SHCT stays at zero.
        for _ in 0..3 {
            p.on_fill(0, sig);
            p.on_evict(0);
        }
        p.on_fill(0, sig);
        if let PolicyState::Ship { rrpv, .. } = &p {
            assert_eq!(rrpv[0], RRPV_MAX, "dead signature should insert distant");
        } else {
            unreachable!();
        }
    }

    #[test]
    fn ship_reused_signature_inserted_near() {
        let mut p = PolicyState::new(ReplacementKind::Ship, 8);
        let sig = 0x456u16;
        // Fill then hit: signature learns reuse.
        p.on_fill(1, sig);
        p.on_hit(1);
        p.on_fill(2, sig);
        if let PolicyState::Ship { rrpv, .. } = &p {
            assert_eq!(rrpv[2], RRPV_MAX - 1);
        } else {
            unreachable!();
        }
    }
}
