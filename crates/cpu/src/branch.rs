//! Branch direction predictor.
//!
//! Table 4 specifies a "Perceptron branch predictor" (ref. 61: Jiménez & Lin,
//! HPCA'01) with a 17-cycle misprediction penalty. We implement the hashed
//! variant (Tarjan & Skadron) — the same table-of-weights machinery POPET
//! itself is built from. Both core models hold one [`PerceptronBp`] each.

use hermes_types::{hash_index, SatWeight};

const PBP_TABLE_BITS: u32 = 12;
const PBP_TABLES: usize = 4;
const PBP_WEIGHT_BITS: u32 = 6;
/// Training threshold θ ≈ 1.93·h + 14 for history length h (Jiménez's
/// tuned value); with our effective history of 28 this is ~68.
const PBP_THETA: i32 = 68;

/// Hashed-perceptron direction predictor.
///
/// Four weight tables indexed by PC and PC⊕(global-history segments);
/// predict taken when the summed weights are non-negative; train on a
/// misprediction or when the sum's magnitude is below θ.
#[derive(Debug, Clone)]
pub struct PerceptronBp {
    tables: Vec<Vec<SatWeight>>,
    ghist: u64,
}

impl PerceptronBp {
    /// A predictor with the default geometry (4 × 4096 × 6-bit ≈ 12 KB).
    pub fn new() -> Self {
        Self {
            tables: (0..PBP_TABLES)
                .map(|_| vec![SatWeight::new_bits(PBP_WEIGHT_BITS); 1 << PBP_TABLE_BITS])
                .collect(),
            ghist: 0,
        }
    }

    fn indices(&self, pc: u64) -> [usize; PBP_TABLES] {
        [
            hash_index(pc, PBP_TABLE_BITS),
            hash_index(pc ^ (self.ghist & 0x3FF), PBP_TABLE_BITS),
            hash_index(
                pc ^ ((self.ghist >> 10) & 0x3FF).rotate_left(13),
                PBP_TABLE_BITS,
            ),
            hash_index(
                pc ^ ((self.ghist >> 20) & 0xFF).rotate_left(29),
                PBP_TABLE_BITS,
            ),
        ]
    }

    fn sum(&self, idx: &[usize; PBP_TABLES]) -> i32 {
        self.tables
            .iter()
            .zip(idx)
            .map(|(t, &i)| t[i].get() as i32)
            .sum()
    }

    /// Predicts the branch at `pc` (taken when the summed weights are
    /// non-negative), then trains with its resolved outcome `taken` and
    /// shifts the outcome into the history; returns the prediction. The
    /// indices and the sum are computed once per branch.
    pub fn predict_train(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.indices(pc);
        let s = self.sum(&idx);
        let predicted = s >= 0;
        if predicted != taken || s.abs() < PBP_THETA {
            for (t, &i) in self.tables.iter_mut().zip(&idx) {
                t[i].train(taken);
            }
        }
        self.ghist = (self.ghist << 1) | taken as u64;
        predicted
    }

    /// Storage cost in bits.
    pub fn storage_bits(&self) -> usize {
        PBP_TABLES * (1 << PBP_TABLE_BITS) * PBP_WEIGHT_BITS as usize + 64
    }
}

impl Default for PerceptronBp {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy(bp: &mut PerceptronBp, pattern: impl Fn(u64) -> bool, n: u64) -> f64 {
        let mut correct = 0;
        for i in 0..n {
            let pc = 0x400_000 + (i % 4) * 4;
            let taken = pattern(i);
            if bp.predict_train(pc, taken) == taken {
                correct += 1;
            }
        }
        correct as f64 / n as f64
    }

    #[test]
    fn perceptron_learns_biased_branches() {
        let mut bp = PerceptronBp::new();
        let acc = accuracy(&mut bp, |_| true, 2000);
        assert!(acc > 0.98, "always-taken pattern accuracy {acc}");
    }

    #[test]
    fn perceptron_learns_alternating_pattern() {
        let mut bp = PerceptronBp::new();
        let acc = accuracy(&mut bp, |i| i % 2 == 0, 4000);
        assert!(acc > 0.9, "alternating pattern accuracy {acc}");
    }

    #[test]
    fn perceptron_learns_correlated_pattern() {
        // Outcome correlated with history 3 branches ago.
        let mut bp = PerceptronBp::new();
        let acc = accuracy(&mut bp, |i| (i / 3).is_multiple_of(2), 6000);
        assert!(acc > 0.9, "correlated pattern accuracy {acc}");
    }

    #[test]
    fn storage_accounting_nonzero_for_tables() {
        assert!(PerceptronBp::new().storage_bits() > 8 * 1024);
    }
}
