//! The host-speed reference: a fixed amount of simulator-like work that
//! calls no code of the program, timed right before every timed job.
//!
//! On a shared host the same job's time swings by up to 2× within
//! minutes, as other tenants load the machine. The reference swings with
//! it, so each job sample is scaled by [`REFERENCE_S`] over the reference
//! time measured just before it: the end-to-end times read as seconds at
//! a fixed host speed. The reference does not change with the program,
//! so a faster program still reads faster.
//!
//! The reference is the geometric mean of four kernels shaped like the
//! simulator's host work: a set-associative tag array with LRU ages,
//! hash-map and B-tree churn, and a sort.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// The reference's time, in seconds, at the speed the scaled metrics are
/// expressed at. On a shared 2-vCPU Xeon host at 2 GHz its median over a
/// run ranged from 0.6 to 1.0 times this.
pub const REFERENCE_S: f64 = 1.25e-3;

/// Sets of the reference tag array (8 ways each).
const SETS: usize = 1 << 14;

/// A small linear congruential generator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 17
    }
}

/// The reference kernels' persistent state (the tag array).
#[derive(Debug)]
pub struct HostSpeed {
    tags: Vec<u64>,
    ages: Vec<u8>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self {
            tags: vec![u64::MAX; SETS * 8],
            ages: (0..SETS * 8).map(|i| (i % 8) as u8).collect(),
        }
    }
}

impl HostSpeed {
    /// Runs the reference once; returns its time in seconds.
    pub fn reference_s(&mut self) -> f64 {
        let times = [
            timed(|| self.tag_array(30_000)),
            timed(|| hash_churn(15_000)),
            timed(|| sort(20_000)),
            timed(|| btree_churn(12_000)),
        ];
        hermes_types::geomean(&times)
    }

    /// The factor that scales a sample taken right after a reference of
    /// `reference_s` seconds to the reference host speed.
    pub fn scale(reference_s: f64) -> f64 {
        REFERENCE_S / reference_s
    }

    /// `accesses` lookups into an 8-way LRU tag array, a third of them
    /// sequential and the rest random over four times its capacity.
    fn tag_array(&mut self, accesses: usize) -> u64 {
        let mut rng = Lcg(3);
        let (mut hits, mut seq) = (0u64, 0u64);
        for i in 0..accesses {
            let addr = if i % 3 == 0 {
                seq += 1;
                seq
            } else {
                rng.next() % (SETS as u64 * 32)
            };
            let base = (addr as usize % SETS) * 8;
            let tag = addr / SETS as u64;
            let ways = &mut self.tags[base..base + 8];
            let ages = &mut self.ages[base..base + 8];
            let way = match ways.iter().position(|&t| t == tag) {
                Some(w) => {
                    hits += 1;
                    w
                }
                None => {
                    let victim = ages.iter().position(|&a| a == 7).unwrap_or(0);
                    ways[victim] = tag;
                    victim
                }
            };
            let old = ages[way];
            for a in ages.iter_mut() {
                if *a < old {
                    *a += 1;
                }
            }
            ages[way] = 0;
        }
        hits
    }
}

/// Host seconds `f` takes.
fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// `ops` inserts, lookups and removals on a hash map of up to 40k keys.
fn hash_churn(ops: usize) -> u64 {
    let mut m: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut rng = Lcg(5);
    let mut sum = 0;
    for _ in 0..ops {
        let k = rng.next() % 50_000;
        *m.entry(k).or_insert(0) += 1;
        sum += m.get(&(k ^ 1)).copied().unwrap_or(0);
        if m.len() > 40_000 {
            m.remove(&k);
        }
    }
    sum
}

/// Sorts `n` pseudo-random words.
fn sort(n: usize) -> u64 {
    let mut rng = Lcg(9);
    let mut v: Vec<u64> = (0..n).map(|_| rng.next()).collect();
    v.sort_unstable();
    v[n / 2]
}

/// `ops` inserts and successor removals on a B-tree of up to 20k keys.
fn btree_churn(ops: usize) -> usize {
    let mut m = BTreeMap::new();
    let mut rng = Lcg(11);
    for i in 0..ops {
        let k = rng.next() % 20_000;
        m.insert(k, i);
        if let Some(&next) = m.range(k + 1..).next().map(|(k, _)| k) {
            m.remove(&next);
        }
    }
    m.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_positive_and_does_fixed_work() {
        let mut h = HostSpeed::default();
        assert!(h.reference_s() > 0.0);
        let mut a = HostSpeed::default();
        let mut b = HostSpeed::default();
        assert_eq!(a.tag_array(1000), b.tag_array(1000));
        assert_eq!(hash_churn(500), hash_churn(500));
        assert_eq!(btree_churn(500), btree_churn(500));
        assert!(HostSpeed::scale(2.0 * REFERENCE_S) < 1.0);
    }
}
