//! A minimal work-stealing thread pool over an indexed job set.
//!
//! Built entirely on `std` (`thread::scope`, `Mutex<VecDeque>`): the
//! workspace vendors its few dependencies, so no crossbeam/rayon. Jobs
//! are dealt round-robin onto per-worker deques; a worker pops from the
//! front of its own deque and, when empty, steals from the *back* of a
//! victim's — the classic split that keeps owner and thief off the same
//! end. The job set is fixed up front (no job spawns jobs), so an empty
//! sweep over every deque is a correct termination condition.

use std::collections::VecDeque;
use std::sync::Mutex;

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
    let workers = workers.min(n);
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..n {
        queues[i % workers]
            .lock()
            .expect("queue poisoned")
            .push_back(i);
    }
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for w in 0..workers {
            let queues = &queues;
            let results = &results;
            let f = &f;
            s.spawn(move || {
                while let Some(i) = next_job(queues, w) {
                    let out = f(i);
                    *results[i].lock().expect("result poisoned") = Some(out);
                }
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result poisoned")
                .expect("every index executed")
        })
        .collect()
}

/// Pops from worker `w`'s own deque, else steals from the other deques.
/// `None` means every deque is empty — since the job set is fixed, that
/// is global completion.
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = queues[w].lock().expect("queue poisoned").pop_front() {
        return Some(i);
    }
    let k = queues.len();
    for off in 1..k {
        let victim = (w + off) % k;
        if let Some(i) = queues[victim].lock().expect("queue poisoned").pop_back() {
            return Some(i);
        }
    }
    None
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
