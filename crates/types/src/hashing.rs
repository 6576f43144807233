//! Hash helpers for indexing perceptron weight tables and predictor
//! structures.
//!
//! The hashed-perceptron model (§6.1 of the paper, after Tarjan & Skadron)
//! hashes each feature value down to a small table index. We use a cheap
//! 64-bit finalizer ([`mix64`], the splitmix64 finalizer) followed by an
//! XOR-fold to the table's index width ([`fold_bits`]). These functions are
//! deterministic, allocation-free, and shared by POPET, the perceptron
//! branch predictor, SHiP signatures, and prefetcher table indexing.
//!
//! [`FastMap`] and [`FastSet`] are `std` hash maps over the same
//! finalizer, for simulator state keyed by tokens, line or page numbers
//! on per-load paths. Unlike the default `RandomState` they seed nothing
//! per run, and they cost one [`mix64`] per key word instead of SipHash.
//! They offer no defence against keys crafted to collide, so keep the
//! default hasher for maps whose keys come from outside the simulator.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Finalizes a 64-bit value into a well-mixed 64-bit hash.
///
/// This is the splitmix64 finalizer; it is bijective, so distinct inputs
/// never collide before folding.
///
/// # Example
///
/// ```
/// use hermes_types::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(42), mix64(42));
/// ```
#[inline]
pub const fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// XOR-folds a 64-bit value down to `bits` bits (an index in
/// `0..2^bits`).
///
/// Folding (rather than truncating) lets every input bit influence the
/// index, which is what keeps small perceptron tables from aliasing on the
/// low bits only.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 32.
///
/// # Example
///
/// ```
/// use hermes_types::fold_bits;
/// let idx = fold_bits(0xdead_beef_cafe_f00d, 10);
/// assert!(idx < 1024);
/// ```
#[inline]
pub fn fold_bits(value: u64, bits: u32) -> usize {
    assert!((1..=32).contains(&bits), "fold width out of range: {bits}");
    // Doubling fold: after pass k, bit i holds the XOR of the input's
    // bits i + j·bits for j < 2^(k+1) (shifts past bit 63 contribute
    // nothing). Six passes cover 64 chunks, every chunk of a 64-bit
    // value at width 1, so the loop count is fixed and unrolls; passes
    // whose shift reaches 64 are no-ops.
    let mut v = value;
    let mut shift = bits;
    for _ in 0..6 {
        v ^= v.checked_shr(shift).unwrap_or(0);
        shift <<= 1;
    }
    (v & ((1u64 << bits) - 1)) as usize
}

/// Hashes `value` into an index for a table of `1 << bits` entries.
///
/// Equivalent to `fold_bits(mix64(value), bits)`; this is the standard
/// indexing path for all hashed-perceptron tables in this repository.
#[inline]
pub fn hash_index(value: u64, bits: u32) -> usize {
    fold_bits(mix64(value), bits)
}

/// Combines a sequence of values into one 64-bit key via shifted XOR.
///
/// POPET's "last-4 load PCs" feature (§6.1.3, feature 5) is "computed as a
/// shifted-XOR of last four load PCs"; this helper implements exactly that
/// folding, with the most recent element shifted least.
///
/// # Example
///
/// ```
/// use hermes_types::hashing::shifted_xor;
/// let k = shifted_xor(&[0x400100, 0x400104, 0x400108, 0x40010c], 2);
/// assert_ne!(k, 0);
/// ```
#[inline]
pub fn shifted_xor(values: &[u64], shift_per_element: u32) -> u64 {
    let mut acc = 0u64;
    for (i, v) in values.iter().enumerate() {
        acc ^= v << (shift_per_element * i as u32);
    }
    acc
}

/// A [`Hasher`] that folds each written word into its state with
/// [`mix64`]. Built by [`FastBuildHasher`]; see the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = mix64(self.0 ^ n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Deterministic [`std::hash::BuildHasher`] for [`FastMap`] and
/// [`FastSet`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed with [`FastHasher`].
///
/// # Example
///
/// ```
/// use hermes_types::FastMap;
/// let mut m: FastMap<u64, u32> = FastMap::default();
/// m.insert(0x40_0000, 7);
/// assert_eq!(m.get(&0x40_0000), Some(&7));
/// ```
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` hashed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(123), mix64(123));
        // Consecutive inputs should land far apart after mixing.
        let a = mix64(1000);
        let b = mix64(1001);
        assert_ne!(a & 0xFFFF, b & 0xFFFF);
    }

    #[test]
    fn fold_bits_in_range() {
        for bits in 1..=20 {
            let idx = fold_bits(u64::MAX, bits);
            assert!(idx < (1usize << bits));
        }
    }

    #[test]
    fn fold_bits_uses_high_bits() {
        // Two values differing only in high bits must be able to differ
        // after folding.
        let a = fold_bits(0x1 << 60, 10);
        let b = fold_bits(0x2 << 60, 10);
        assert_ne!(a, b);
    }

    #[test]
    fn fold_bits_matches_chunk_by_chunk_fold() {
        // The fold as a loop over every `bits`-wide chunk until the
        // value runs out: the definition the doubling fold reproduces.
        fn chunk_fold(value: u64, bits: u32) -> usize {
            let mask = (1u64 << bits) - 1;
            let mut v = value;
            let mut acc = 0u64;
            while v != 0 {
                acc ^= v & mask;
                v >>= bits;
            }
            acc as usize
        }
        let edges = [
            0,
            1,
            u64::MAX,
            1 << 63,
            u64::MAX >> 1,
            0x5555_5555_5555_5555,
        ];
        for bits in 1..=32 {
            let mixed = (0..2_000u64).map(mix64);
            for v in edges.into_iter().chain(mixed) {
                assert_eq!(fold_bits(v, bits), chunk_fold(v, bits), "{v:#x} at {bits}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn fold_bits_rejects_zero_width() {
        let _ = fold_bits(1, 0);
    }

    #[test]
    fn hash_index_bounds() {
        for v in 0..1000u64 {
            assert!(hash_index(v, 7) < 128);
        }
    }

    #[test]
    fn shifted_xor_order_sensitive() {
        let a = shifted_xor(&[1, 2, 3, 4], 3);
        let b = shifted_xor(&[4, 3, 2, 1], 3);
        assert_ne!(a, b);
    }

    #[test]
    fn shifted_xor_empty_is_zero() {
        assert_eq!(shifted_xor(&[], 3), 0);
    }

    #[test]
    fn fast_hasher_is_deterministic_and_order_sensitive() {
        use std::hash::{BuildHasher, Hash};
        let hash = |v: &dyn Fn(&mut FastHasher)| {
            let mut h = FastBuildHasher::default().build_hasher();
            v(&mut h);
            h.finish()
        };
        assert_eq!(hash(&|h| 42u64.hash(h)), mix64(42));
        assert_eq!(
            hash(&|h| (1usize, 2u64).hash(h)),
            hash(&|h| (1usize, 2u64).hash(h))
        );
        assert_ne!(
            hash(&|h| (1usize, 2u64).hash(h)),
            hash(&|h| (2usize, 1u64).hash(h))
        );
        // Byte slices longer than a word use every chunk.
        assert_ne!(hash(&|h| h.write(&[0; 9])), hash(&|h| h.write(&[0; 8])));
    }

    #[test]
    fn fast_map_and_set_round_trip() {
        let mut m: FastMap<(usize, u64), u32> = FastMap::default();
        let mut s: FastSet<u64> = FastSet::default();
        for i in 0..1000u64 {
            m.insert((i as usize % 4, i << 6), i as u32);
            s.insert(i << 12);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(3, 999 << 6)), Some(&999));
        assert!(s.contains(&(500 << 12)));
        assert!(!s.contains(&1));
    }
}
