//! Discrete-event queue.
//!
//! The simulation advances by repeatedly popping the earliest scheduled
//! event. Ordering is a *total* order: ties on time are broken by insertion
//! sequence number, so two runs with the same seed produce byte-identical
//! histories — the property every experiment in `crates/bench` relies on.
//!
//! # The kernel ordering contract
//!
//! [`EventQueue`] promises exactly this, and `DESIGN.md` §5 pins it as the
//! replay contract:
//!
//! 1. **Total order.** Events pop sorted by `(time, seq)` where `seq` is the
//!    monotone insertion sequence number. Two events scheduled at the same
//!    nanosecond pop in FIFO insertion order.
//! 2. **Monotone clock.** The queue owns "now": popping advances the clock
//!    to the popped event's timestamp; scheduling before "now" is clamped
//!    (and asserts in debug builds).
//! 3. **`clear()` drops only the pending set.** The clock, the sequence
//!    counter and `scheduled_total` survive it.
//!
//! The queue is a binary heap over `(time, seq)`; `tests/event_kernel.rs`
//! checks it pop for pop against a naive model.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// An event of payload type `E` scheduled at a point in simulated time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    pub time: SimTime,
    /// Monotone insertion sequence; breaks ties deterministically.
    pub seq: u64,
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Earliest-first event queue with a monotone clock (see the module docs
/// for the ordering contract).
///
/// The queue owns the notion of "now": popping an event advances the clock
/// to that event's timestamp, and scheduling in the past is a logic error
/// (clamped to "now" with a debug assertion).
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    now: SimTime,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled (for run reports).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling before `now` is clamped to `now`; in debug builds it also
    /// asserts, since it almost always indicates a modelling bug.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < {:?}",
            self.now
        );
        let time = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(ScheduledEvent { time, seq, payload });
    }

    /// Schedule `payload` after a delay relative to `now`.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        let at = self.now + delay;
        self.schedule_at(at, payload);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        self.now = ev.time;
        Some(ev)
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Drop all pending events (e.g. at experiment horizon), keeping the
    /// clock, the sequence counter and `scheduled_total`.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// A deadline index over arbitrary keys, built on [`EventQueue`].
///
/// Consumers that used to scan *all* their records for "anything with
/// `deadline <= now`" on every tick (zk session expiry, shard-manager
/// migration phases) instead [`arm`] a key at its deadline and collect only
/// the [`due`] candidates — O(due) per tick instead of O(records).
///
/// Entries are lazily validated: `due` hands back keys in (deadline,
/// arm-order) order *as armed*, and the caller re-checks its own records,
/// re-arming any key whose real deadline has moved later (e.g. a session
/// that kept heartbeating). That way hot-path record updates never touch
/// the queue; only the infrequent "deadline actually fired" path does.
///
/// [`arm`]: DeadlineQueue::arm
/// [`due`]: DeadlineQueue::due
#[derive(Debug, Clone)]
pub struct DeadlineQueue<K> {
    queue: EventQueue<K>,
}

impl<K> Default for DeadlineQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> DeadlineQueue<K> {
    pub fn new() -> Self {
        DeadlineQueue {
            queue: EventQueue::new(),
        }
    }

    /// Number of armed entries (stale entries included until they fire).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Arm `key` to come due at `at`. Arming before the last `due`
    /// cut-off is clamped to it — the key simply comes back (for
    /// re-validation) on the next call.
    pub fn arm(&mut self, at: SimTime, key: K) {
        let at = at.max(self.queue.now());
        self.queue.schedule_at(at, key);
    }

    /// Drain every key armed at or before `now` into `out` (cleared
    /// first), in (deadline, arm-order) order. Callers re-validate each
    /// candidate against their own records.
    pub fn due(&mut self, now: SimTime, out: &mut Vec<K>) {
        out.clear();
        while self.queue.peek_time().is_some_and(|t| t <= now) {
            let Some(ev) = self.queue.pop() else { break };
            out.push(ev.payload);
        }
    }

    /// The earliest armed deadline, stale entries included.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Drop every armed entry.
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        assert_eq!(drain(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), 0u8);
        q.pop();
        q.schedule_after(SimDuration::from_secs(5), 1u8);
        let ev = q.pop().unwrap();
        assert_eq!(ev.time, SimTime::from_secs(15));
    }

    #[test]
    fn interleaved_scheduling_keeps_order() {
        // Events scheduled while processing still sort correctly.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 1u32);
        q.schedule_at(SimTime::from_secs(4), 4u32);
        let mut seen = Vec::new();
        while let Some(ev) = q.pop() {
            seen.push(ev.payload);
            if ev.payload == 1 {
                q.schedule_at(SimTime::from_secs(2), 2);
                q.schedule_at(SimTime::from_secs(3), 3);
            }
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        let near = SimTime::from_secs(1);
        let far = SimTime::from_secs(100 * 24 * 3_600); // 100 days
        let very_far = SimTime::from_secs(200 * 24 * 3_600);
        q.schedule_at(very_far, "z");
        q.schedule_at(near, "a");
        q.schedule_at(far, "m");
        assert_eq!(drain(&mut q), vec!["a", "m", "z"]);
        assert_eq!(q.now(), very_far);
    }

    #[test]
    fn times_of_every_magnitude_pop_in_order() {
        // One event each at 2^10, 2^16, …, 2^46 ns (plus 7), scheduled
        // latest first.
        let mut q = EventQueue::new();
        let shifts = [10, 16, 22, 28, 34, 40, 46];
        for (i, shift) in shifts.iter().enumerate().rev() {
            q.schedule_at(SimTime::from_nanos((1u64 << shift) | 7), i);
        }
        assert_eq!(drain(&mut q), (0..shifts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn equal_times_pop_fifo_and_adjacent_times_stay_apart() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_nanos(1_000);
        let t2 = SimTime::from_nanos(1_001);
        let t3 = SimTime::from_secs(9);
        for i in 0..5 {
            q.schedule_at(t1, i);
        }
        q.schedule_at(t2, 100);
        q.schedule_at(t3, 200);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.payload))
            .collect();
        assert_eq!(
            popped,
            vec![
                (t1, 0),
                (t1, 1),
                (t1, 2),
                (t1, 3),
                (t1, 4),
                (t2, 100),
                (t3, 200)
            ]
        );
        assert_eq!(q.now(), t3);
    }

    #[test]
    fn schedule_at_now_pops_after_pending_equal_times() {
        // A handler scheduling at its own timestamp (zero delay) sees that
        // event delivered at the same timestamp, after the ones already
        // pending there.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule_at(t, 0u32);
        q.schedule_at(t, 1u32);
        q.schedule_at(SimTime::from_secs(2), 99u32);
        let mut delivered = Vec::new();
        while let Some(ev) = q.pop() {
            if delivered.is_empty() {
                q.schedule_at(ev.time, 7u32);
            }
            delivered.push((ev.time, ev.payload));
        }
        assert_eq!(
            delivered,
            vec![(t, 0), (t, 1), (t, 7), (SimTime::from_secs(2), 99)]
        );
    }

    #[test]
    fn peek_then_schedule_earlier_still_pops_in_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        q.schedule_at(SimTime::from_secs(2), "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(drain(&mut q), vec!["early", "late"]);
    }

    #[test]
    fn clear_keeps_clock_and_counters() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(300 * 24 * 3_600), ());
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), SimTime::from_secs(1));
        assert_eq!(q.scheduled_total(), 2);
        // The queue remains usable after clear.
        q.schedule_after(SimDuration::from_secs(1), ());
        assert_eq!(q.pop().unwrap().time, SimTime::from_secs(2));
    }

    #[test]
    fn deadline_queue_fires_in_order_and_supports_rearm() {
        let mut dq: DeadlineQueue<&str> = DeadlineQueue::new();
        dq.arm(SimTime::from_secs(5), "b");
        dq.arm(SimTime::from_secs(2), "a");
        dq.arm(SimTime::from_secs(9), "c");
        let mut due = Vec::new();
        dq.due(SimTime::from_secs(5), &mut due);
        assert_eq!(due, vec!["a", "b"]);
        assert_eq!(dq.len(), 1);
        // Lazy re-validation: the caller re-arms a key whose real
        // deadline moved; arming "in the past" comes back immediately.
        dq.arm(SimTime::from_secs(1), "late");
        dq.due(SimTime::from_secs(5), &mut due);
        assert_eq!(due, vec!["late"]);
        dq.due(SimTime::from_secs(8), &mut due);
        assert!(due.is_empty());
        dq.due(SimTime::from_secs(9), &mut due);
        assert_eq!(due, vec!["c"]);
        assert!(dq.is_empty());
    }
}
