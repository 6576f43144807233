//! A minimal thread pool over an indexed job set.
//!
//! Built on `std` alone (`thread::scope` and one `AtomicUsize`): the
//! workspace vendors its few dependencies, so no crossbeam/rayon. Each
//! worker claims the next unclaimed index from a shared counter, runs
//! it, and returns its `(index, result)` pairs when it joins. The job set
//! is fixed up front (no job spawns jobs), so a claim past the end means
//! every index is taken.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(0..n)` across `workers` threads and returns the results in
/// index order, regardless of execution order. With `workers <= 1` the
/// calls happen inline on the caller's thread in index order — the
/// deterministic serial baseline.
pub(crate) fn run_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(n)).map(|_| s.spawn(work)).collect();
        for h in handles {
            let done = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (i, r) in done {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_index_order() {
        for workers in [1, 2, 3, 8] {
            let out = run_indexed(workers, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = run_indexed(4, 100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(0, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(run_indexed(16, 1, |i| i), vec![0]);
    }
}
