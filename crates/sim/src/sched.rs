//! Scheduler models for [`crate::System::run`]: the legacy per-cycle
//! tick loop and the event-driven calendar loop.
//!
//! Both models simulate the *identical* cycle trajectory — the calendar
//! loop is an execution engine, not a semantics change. Every
//! time-bearing component publishes the earliest cycle at which it can
//! do real work (`Hierarchy::next_event_at` covers the event heap, the
//! retry queue, pending page walks, and DRAM channel completions;
//! `Core::next_work_at` covers both pipeline models) into a
//! [`CalendarQueue`], and the runner advances straight to the minimum
//! of the published times — exactly like the tick loop's idle-cycle
//! fast-forward, but additionally skipping the per-cycle work of
//! components that are idle at a cycle where *some other* component is
//! busy. That skip is stat-neutral by the same contract fast-forward
//! relies on: ticking a core strictly before its `next_work_at` is
//! equivalent to `skip_stalled(1)`, and ticking the hierarchy strictly
//! before its `next_event_at` is a no-op.
//!
//! A step of the calendar loop calls only the due components. Each
//! core's `next_work_at` is cached and re-read only after its own tick
//! or a load delivered to it, the only calls that change a core. Cycles
//! a core is not ticked at, whether skipped by the jump or passed while
//! other components work, are counted per core, not per step: the
//! runner keeps the first cycle each core has not yet been charged for
//! and charges the whole idle span in one `skip_stalled` call right
//! before the core's next tick or delivery, the warmup statistics reset,
//! a probe interval snapshot, or the end of the run. The core's state is
//! frozen over the span, so the one call counts what a `skip_stalled(1)`
//! per cycle would have. The tick loop keeps its own accounting and
//! never owes a core anything. Cycle-exactness of the two models is
//! pinned by the golden digests and by `tests/sched_equivalence.rs`,
//! which compares every counter of the two models, stall counters
//! included: a stall cycle charged twice or never changes no cycle of
//! the trajectory, so that test is what catches a slip in the per-core
//! counting.

use hermes_types::Cycle;

/// Which main-loop engine [`crate::System::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerModel {
    /// The legacy loop: tick every component every cycle, with
    /// idle-cycle fast-forward jumping gaps where *nothing* is due.
    Tick,
    /// The event-driven loop (the default): components publish their
    /// next event time into a [`CalendarQueue`] and the runner advances
    /// event-to-event, ticking only due components. Cycle-exact with
    /// [`SchedulerModel::Tick`] on every config.
    #[default]
    Calendar,
}

/// The per-source wake-up times the calendar loop advances over.
///
/// Each source (the hierarchy, each core) owns exactly one *published*
/// time — the earliest cycle at which it can do real work, or
/// [`Cycle::MAX`] when it is fully blocked. [`CalendarQueue::publish`]
/// overwrites the source's time and [`CalendarQueue::at`] reads it back;
/// [`CalendarQueue::next_due`] returns the
/// earliest cycle at or after `from` at which any source is due, as a
/// plain min over the published times. With 1 + cores sources (at most
/// nine in every experiment) that scan is cheaper than maintaining a
/// bucketed time wheel.
#[derive(Debug)]
pub struct CalendarQueue {
    /// Current published wake time per source (`Cycle::MAX` = idle).
    published: Vec<Cycle>,
}

impl CalendarQueue {
    /// An empty queue for `sources` sources, all idle.
    pub fn new(sources: usize) -> Self {
        Self {
            published: vec![Cycle::MAX; sources],
        }
    }

    /// Publishes `src`'s next event time, superseding any previous one.
    /// `Cycle::MAX` parks the source as idle.
    #[inline]
    pub fn publish(&mut self, src: usize, at: Cycle) {
        self.published[src] = at;
    }

    /// `src`'s currently published time (`Cycle::MAX` = idle).
    #[inline]
    pub fn at(&self, src: usize) -> Cycle {
        self.published[src]
    }

    /// The earliest cycle `>= from` at which any source is due
    /// (`Cycle::MAX` when every source is idle). Times already in the
    /// past are due at `from`.
    #[inline]
    pub fn next_due(&mut self, from: Cycle) -> Cycle {
        // `Cycle::MAX.max(from)` stays `Cycle::MAX`: all idle.
        self.published
            .iter()
            .fold(Cycle::MAX, |m, &t| m.min(t))
            .max(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_queue_is_idle() {
        let mut q = CalendarQueue::new(3);
        assert_eq!(q.next_due(0), Cycle::MAX);
        assert_eq!(q.next_due(1_000_000), Cycle::MAX);
    }

    #[test]
    fn single_source_round_trip() {
        let mut q = CalendarQueue::new(1);
        q.publish(0, 17);
        assert_eq!(q.at(0), 17);
        assert_eq!(q.next_due(0), 17);
        assert_eq!(q.next_due(17), 17);
        // Past-due publishes surface at the asked-about cycle.
        assert_eq!(q.next_due(30), 30);
    }

    #[test]
    fn earliest_of_many_sources_wins() {
        let mut q = CalendarQueue::new(4);
        q.publish(0, 100);
        q.publish(1, 40);
        q.publish(2, Cycle::MAX);
        q.publish(3, 70);
        assert_eq!(q.next_due(0), 40);
        q.publish(1, 200); // supersede: stale 40 must be ignored
        assert_eq!(q.next_due(0), 70);
        q.publish(3, Cycle::MAX);
        assert_eq!(q.next_due(0), 100);
    }

    #[test]
    fn republish_same_time_is_stable() {
        let mut q = CalendarQueue::new(2);
        for _ in 0..10 {
            q.publish(0, 25);
        }
        assert_eq!(q.next_due(0), 25);
    }

    #[test]
    fn far_future_event() {
        let mut q = CalendarQueue::new(2);
        q.publish(0, 5_120);
        assert_eq!(q.next_due(0), 5_120);
        assert_eq!(q.next_due(5_120), 5_120);
    }

    #[test]
    fn distant_event_survives_small_steps() {
        let mut q = CalendarQueue::new(2);
        q.publish(0, 562);
        q.publish(1, 10);
        assert_eq!(q.next_due(0), 10);
        q.publish(1, Cycle::MAX);
        for c in (0..=90).map(|i| i * 6) {
            assert_eq!(q.next_due(c), 562);
        }
        // Once the asked-about cycle passes the event it clamps up.
        assert_eq!(q.next_due(572), 572);
    }

    #[test]
    fn interleaved_publish_and_advance() {
        // Simulates the runner's pattern: each "cycle" republish a
        // moving horizon and query; compare against a naive min. Some
        // publishes park the source (`Cycle::MAX`) or are already past
        // due when made.
        let mut q = CalendarQueue::new(3);
        let mut truth = [Cycle::MAX; 3];
        let mut cycle: Cycle = 0;
        for step in 0..2_000u64 {
            let src = (step % 3) as usize;
            let at = match step % 11 {
                0 => Cycle::MAX,
                4 => cycle.saturating_sub(step % 40),
                _ => cycle + (step * 7 % 90),
            };
            q.publish(src, at);
            truth[src] = at;
            let want = truth.iter().copied().min().unwrap().max(cycle);
            assert_eq!(q.next_due(cycle), want, "step {step} cycle {cycle}");
            cycle += step % 5;
        }
    }

    #[test]
    fn past_due_source_surfaces_after_large_jump() {
        let mut q = CalendarQueue::new(3);
        q.publish(0, 5);
        q.publish(1, 1_543);
        // Source 0's time is long past due at 1024: it is due right
        // there, not lost.
        assert_eq!(q.next_due(1_024), 1_024);
        q.publish(0, Cycle::MAX);
        assert_eq!(q.next_due(1_024), 1_543);
    }
}
