//! In-order command queue on a virtual device timeline.
//!
//! All device-side work (transfers, kernel launches) is serialized on one
//! in-order queue, as with a single OpenCL command queue. Enqueue calls are
//! *non-blocking*: they return an [`Event`] whose completion time lies on
//! the device timeline, and the caller (the GPU management thread in
//! `petal-rt`) polls events against the virtual clock — this is what lets
//! the manager "execute the next task in its queue right away" (§4.2).

/// Status of a queued operation relative to a virtual-time instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventStatus {
    /// The operation completes at or before the queried instant.
    Complete,
    /// The operation is still in flight at the queried instant.
    Pending,
}

/// Completion token for one enqueued device operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual time at which the device finishes the operation.
    pub complete_at: f64,
}

impl Event {
    /// Poll the event at virtual time `now`.
    #[must_use]
    pub fn status_at(&self, now: f64) -> EventStatus {
        if self.complete_at <= now {
            EventStatus::Complete
        } else {
            EventStatus::Pending
        }
    }
}

/// The in-order device timeline.
#[derive(Debug, Clone, Default)]
pub struct CommandQueue {
    busy_until: f64,
    busy_secs: f64,
    ops: usize,
}

impl CommandQueue {
    /// New, idle queue at virtual time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue an operation of `duration` seconds at time `now`; the
    /// operation starts when the device becomes free and runs to completion
    /// without preemption.
    pub fn enqueue(&mut self, now: f64, duration: f64) -> Event {
        debug_assert!(duration >= 0.0, "durations are non-negative");
        let start = self.busy_until.max(now);
        let end = start + duration;
        self.busy_until = end;
        self.busy_secs += duration;
        self.ops += 1;
        Event { complete_at: end }
    }

    /// Virtual time at which the device drains (becomes idle).
    #[must_use]
    pub fn busy_until(&self) -> f64 {
        self.busy_until
    }

    /// Total busy seconds accumulated (device utilization numerator).
    #[must_use]
    pub fn busy_secs(&self) -> f64 {
        self.busy_secs
    }

    /// Number of operations enqueued so far.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Forget all timing state (between autotuning trials).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_serialize_in_order() {
        let mut q = CommandQueue::new();
        let a = q.enqueue(0.0, 1.0);
        let b = q.enqueue(0.0, 2.0); // queued behind a
        assert_eq!(a.complete_at, 1.0);
        assert_eq!(b.complete_at, 3.0);
        assert_eq!(q.busy_until(), 3.0);
        assert_eq!(q.ops(), 2);
    }

    #[test]
    fn idle_gap_before_late_enqueue() {
        let mut q = CommandQueue::new();
        q.enqueue(0.0, 1.0);
        let e = q.enqueue(5.0, 1.0); // device idle from 1.0 to 5.0
        assert_eq!(e.complete_at, 6.0);
        assert_eq!(q.busy_secs(), 2.0);
    }

    #[test]
    fn event_polling() {
        let mut q = CommandQueue::new();
        let e = q.enqueue(0.0, 2.0);
        assert_eq!(e.status_at(1.0), EventStatus::Pending);
        assert_eq!(e.status_at(2.0), EventStatus::Complete);
    }

    #[test]
    fn reset_clears_timeline() {
        let mut q = CommandQueue::new();
        q.enqueue(0.0, 4.0);
        q.reset();
        assert_eq!(q.busy_until(), 0.0);
        assert_eq!(q.ops(), 0);
    }
}
