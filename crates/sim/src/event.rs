//! Discrete-event queue.
//!
//! The simulation advances by repeatedly popping the earliest scheduled
//! event. Ordering is a *total* order: ties on time are broken by insertion
//! sequence number, so two runs with the same seed produce byte-identical
//! histories — the property every experiment in `crates/bench` relies on.
//!
//! # The kernel ordering contract
//!
//! Both queue implementations in this module ([`EventQueue`], the calendar
//! wheel used in production, and [`ReferenceEventQueue`], the original
//! binary-heap model it is property-tested against) promise exactly this,
//! and `DESIGN.md` §5 pins it as the replay contract:
//!
//! 1. **Total order.** Events pop sorted by `(time, seq)` where `seq` is the
//!    monotone insertion sequence number. Two events scheduled at the same
//!    nanosecond pop in FIFO insertion order.
//! 2. **Monotone clock.** The queue owns "now": popping advances the clock
//!    to the popped event's timestamp; scheduling before "now" is clamped
//!    (and asserts in debug builds).
//! 3. **Tick granularity is invisible.** The calendar wheel buckets events
//!    by 2^10 ns (~1 µs) ticks internally, but ordering is always by the
//!    full nanosecond timestamp — the tick size affects throughput only,
//!    never pop order.
//! 4. **Overflow promotion is order-neutral.** Events beyond the wheel
//!    horizon (2^52 ns ≈ 52 simulated days ahead of the cursor) wait in a
//!    sorted overflow list and are promoted into the wheel in whole horizon
//!    blocks; promotion never reorders events.
//!
//! # Calendar wheel layout
//!
//! [`EventQueue`] is a hierarchical timer wheel over `SimTime` ticks
//! (1 tick = 2^10 ns): 7 levels of 64 slots, where a level-`l` slot spans
//! 64^l ticks. An event's level is the position of the highest bit in which
//! its tick differs from the cursor (`diff = tick ^ cursor`), so advancing
//! the cursor cascades far buckets into finer levels until every due event
//! reaches level 0. Level-0 buckets hold exactly one tick's worth of events;
//! draining one yields the "current batch", which [`EventQueue::pop_tick`]
//! can hand out a whole timestamp at a time. Payloads are interned in a slab
//! so wheel buckets shuffle small fixed-size refs instead of payloads, and
//! no allocation happens per event on the steady-state schedule/pop path.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

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

/// log2 of the wheel tick in nanoseconds: 1 tick = 2^10 ns ≈ 1 µs.
const TICK_BITS: u32 = 10;
/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels; a level-`l` slot spans `64^l` ticks.
const LEVELS: usize = 7;
/// Ticks covered by one wheel horizon block (64^7 = 2^42 ticks ≈ 52 days).
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// A slab-interned event: full-resolution timestamp, tie-break sequence,
/// and the payload's slab slot. Wheel buckets move these 24-byte refs
/// around instead of the (potentially large) payloads themselves.
#[derive(Debug, Clone, Copy)]
struct EventRef {
    time: u64,
    seq: u64,
    slot: u32,
}

/// Earliest-first event queue with a monotone clock, implemented as a
/// hierarchical calendar wheel (see the module docs for the layout and the
/// ordering contract).
///
/// The queue owns the notion of "now": popping an event advances the clock
/// to that event's timestamp, and scheduling in the past is a logic error
/// (clamped to "now" with a debug assertion).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `LEVELS * SLOTS` buckets, indexed `level * SLOTS + slot`.
    buckets: Vec<Vec<EventRef>>,
    /// Per-level bitmask of non-empty slots, for O(1) next-slot scans.
    occupied: [u64; LEVELS],
    /// Wheel position in ticks. Invariant: every wheel event's tick is
    /// `>= cursor` and within the cursor's horizon block, filed at the
    /// level of the highest differing tick bit.
    cursor: u64,
    /// The drained level-0 bucket currently being dispatched, sorted by
    /// `(time, seq)`; consumed from `head` to avoid shifting.
    current: Vec<EventRef>,
    head: usize,
    /// Tick of the current batch (equals `cursor` while the batch is live).
    current_tick: u64,
    /// Far-future events beyond the cursor's horizon block, sorted; whole
    /// blocks are promoted into the wheel when the cursor reaches them.
    overflow: BTreeMap<(u64, u64), u32>,
    /// Payload slab plus its free list.
    payloads: Vec<Option<E>>,
    free: Vec<u32>,
    /// Scratch buffer reused by cascades.
    spill: Vec<EventRef>,
    pending: usize,
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
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            cursor: 0,
            current: Vec::new(),
            head: 0,
            current_tick: 0,
            overflow: BTreeMap::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            spill: Vec::new(),
            pending: 0,
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
        self.pending
    }

    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total events ever scheduled (for run reports).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    fn alloc(&mut self, payload: E) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.payloads[slot as usize] = Some(payload);
            slot
        } else {
            let slot = self.payloads.len() as u32;
            self.payloads.push(Some(payload));
            slot
        }
    }

    /// `None` for a dead slab slot, which cannot happen for a ref that
    /// is still filed in the wheel; callers skip rather than panic.
    fn take_payload(&mut self, slot: u32) -> Option<E> {
        let payload = self.payloads.get_mut(slot as usize).and_then(|p| p.take())?;
        self.free.push(slot);
        Some(payload)
    }

    /// True while a drained tick batch still has undelivered events.
    fn batch_live(&self) -> bool {
        self.head < self.current.len()
    }

    /// File `r` into the wheel (or the overflow list) relative to the
    /// current cursor. Caller guarantees `r.time >> TICK_BITS >= cursor`.
    fn insert_ref(&mut self, r: EventRef) {
        let tick = r.time >> TICK_BITS;
        debug_assert!(tick >= self.cursor, "wheel insert behind cursor");
        let diff = tick ^ self.cursor;
        if diff >> WHEEL_BITS != 0 {
            // Beyond the cursor's horizon block: park in the sorted
            // overflow until the cursor's block catches up.
            self.overflow.insert((r.time, r.seq), r.slot);
            return;
        }
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
        };
        let slot = ((tick >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.buckets[level * SLOTS + slot].push(r);
        self.occupied[level] |= 1 << slot;
    }

    /// Advance the cursor to the earliest pending tick and drain its
    /// level-0 bucket into `current`. Returns false iff nothing is pending.
    fn refill(&mut self) -> bool {
        debug_assert!(!self.batch_live());
        loop {
            // Level 0 first: the earliest occupied slot at or after the
            // cursor holds exactly one tick's worth of events.
            let idx0 = (self.cursor & (SLOTS as u64 - 1)) as u32;
            let mask = self.occupied[0] & (!0u64 << idx0);
            if mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                self.occupied[0] &= !(1u64 << slot);
                let tick = (self.cursor & !(SLOTS as u64 - 1)) | slot as u64;
                self.cursor = tick;
                self.current_tick = tick;
                self.current.clear();
                self.head = 0;
                // Swap so bucket capacities circulate instead of being
                // reallocated on every drain.
                std::mem::swap(&mut self.current, &mut self.buckets[slot]);
                self.current.sort_unstable_by_key(|r| (r.time, r.seq));
                debug_assert!(self.current.iter().all(|r| r.time >> TICK_BITS == tick));
                return true;
            }

            // Higher levels: cascade the earliest occupied bucket down one
            // or more levels. Jumping the cursor to the slot's span start
            // re-files every event in the bucket at a strictly lower level.
            let mut cascaded = false;
            for level in 1..LEVELS {
                let shift = LEVEL_BITS * level as u32;
                let idx = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
                let mask = self.occupied[level] & (!0u64 << idx);
                if mask == 0 {
                    continue;
                }
                let slot = mask.trailing_zeros() as usize;
                self.occupied[level] &= !(1u64 << slot);
                let span_base = self.cursor & !((1u64 << (shift + LEVEL_BITS)) - 1);
                self.cursor = span_base | ((slot as u64) << shift);
                let mut spill = std::mem::take(&mut self.spill);
                std::mem::swap(&mut spill, &mut self.buckets[level * SLOTS + slot]);
                for r in spill.drain(..) {
                    self.insert_ref(r);
                }
                self.spill = spill;
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }

            // Wheel empty: promote the next horizon block from overflow.
            let Some((&(time, _), _)) = self.overflow.first_key_value() else {
                debug_assert_eq!(self.pending, 0);
                return false;
            };
            self.cursor = time >> TICK_BITS;
            let block = self.cursor >> WHEEL_BITS;
            while let Some((&(t, _), _)) = self.overflow.first_key_value() {
                if (t >> TICK_BITS) >> WHEEL_BITS != block {
                    break;
                }
                let Some(((t, seq), slot)) = self.overflow.pop_first() else {
                    break;
                };
                self.insert_ref(EventRef { time: t, seq, slot });
            }
        }
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
        let time = at.max(self.now).as_nanos();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.pending += 1;
        let slot = self.alloc(payload);
        let r = EventRef { time, seq, slot };
        let tick = time >> TICK_BITS;
        if self.batch_live() && tick <= self.current_tick {
            // Lands in (or before) the tick batch currently being
            // dispatched: splice it into the sorted run. Its seq is the
            // largest so the insertion point is purely by time.
            let pos = self.head
                + self.current[self.head..].partition_point(|e| e.time <= time);
            self.current.insert(pos, r);
        } else {
            self.insert_ref(r);
        }
    }

    /// Schedule `payload` after a delay relative to `now`.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        let at = self.now + delay;
        self.schedule_at(at, payload);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        loop {
            if !self.batch_live() && !self.refill() {
                return None;
            }
            let r = self.current[self.head];
            self.head += 1;
            if !self.batch_live() {
                self.current.clear();
                self.head = 0;
            }
            self.pending -= 1;
            self.now = SimTime::from_nanos(r.time);
            let Some(payload) = self.take_payload(r.slot) else {
                continue;
            };
            return Some(ScheduledEvent {
                time: self.now,
                seq: r.seq,
                payload,
            });
        }
    }

    /// Pop *every* event sharing the earliest pending timestamp into `out`
    /// (cleared first), advancing the clock to that timestamp. Returns the
    /// batch timestamp, or `None` if the queue is empty.
    ///
    /// Dispatch loops that would otherwise `pop` one event at a time can
    /// take a whole timestamp per iteration; delivery order within the
    /// batch is the contract order (FIFO by `seq`). Events scheduled at
    /// the same timestamp *while the batch is being handled* surface in
    /// the next `pop_tick` call, still at that timestamp — identical to
    /// the serial-pop schedule.
    pub fn pop_tick(&mut self, out: &mut Vec<ScheduledEvent<E>>) -> Option<SimTime> {
        out.clear();
        if !self.batch_live() && !self.refill() {
            return None;
        }
        let time = self.current[self.head].time;
        while self.batch_live() && self.current[self.head].time == time {
            let r = self.current[self.head];
            self.head += 1;
            self.pending -= 1;
            let Some(payload) = self.take_payload(r.slot) else {
                continue;
            };
            out.push(ScheduledEvent {
                time: SimTime::from_nanos(time),
                seq: r.seq,
                payload,
            });
        }
        if !self.batch_live() {
            self.current.clear();
            self.head = 0;
        }
        self.now = SimTime::from_nanos(time);
        Some(self.now)
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.batch_live() && !self.refill() {
            return None;
        }
        Some(SimTime::from_nanos(self.current[self.head].time))
    }

    /// Drain and discard all pending events (e.g. at experiment horizon).
    ///
    /// Keeps the clock, the sequence counter and `scheduled_total` — only
    /// the pending set is dropped, exactly like the reference model.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = [0; LEVELS];
        self.overflow.clear();
        self.current.clear();
        self.head = 0;
        self.payloads.clear();
        self.free.clear();
        self.pending = 0;
        self.cursor = self.now.as_nanos() >> TICK_BITS;
        self.current_tick = self.cursor;
    }
}

/// A deadline index over arbitrary keys, built on the calendar-wheel
/// [`EventQueue`].
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
#[derive(Debug)]
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

    /// The earliest armed deadline, stale entries included. `&mut`
    /// because the wheel may stage its next batch to answer.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Drop every armed entry.
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

/// The original binary-heap event queue, kept as the executable *reference
/// model* for the calendar wheel: `tests/event_kernel.rs` drives both
/// implementations with identical schedule/pop/clear sequences and asserts
/// bit-identical pop order. Not used on any hot path.
#[derive(Debug)]
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    now: SimTime,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> Default for ReferenceEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceEventQueue<E> {
    pub fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

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

    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        let at = self.now + delay;
        self.schedule_at(at, payload);
    }

    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        self.now = ev.time;
        Some(ev)
    }

    /// Same-timestamp batch pop, mirroring [`EventQueue::pop_tick`].
    pub fn pop_tick(&mut self, out: &mut Vec<ScheduledEvent<E>>) -> Option<SimTime> {
        out.clear();
        let first = self.heap.pop()?;
        let time = first.time;
        self.now = time;
        out.push(first);
        while self.heap.peek().map(|e| e.time) == Some(time) {
            let Some(ev) = self.heap.pop() else { break };
            out.push(ev);
        }
        Some(time)
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
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
    fn far_future_events_route_through_overflow() {
        // 52+ simulated days is beyond one wheel horizon block; the event
        // must park in overflow and still pop in order after promotion.
        let mut q = EventQueue::new();
        let near = SimTime::from_secs(1);
        let far = SimTime::from_secs(100 * 24 * 3_600); // 100 days
        let very_far = SimTime::from_secs(200 * 24 * 3_600);
        q.schedule_at(very_far, "z");
        q.schedule_at(near, "a");
        q.schedule_at(far, "m");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "m", "z"]);
        assert_eq!(q.now(), very_far);
    }

    #[test]
    fn cascade_spans_every_level() {
        // One event per wheel level distance, scheduled in reverse order.
        let mut q = EventQueue::new();
        let mut times = Vec::new();
        for level in 0..LEVELS as u32 {
            let tick = 1u64 << (LEVEL_BITS * level);
            times.push(SimTime::from_nanos((tick << TICK_BITS) | 7));
        }
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..LEVELS).collect::<Vec<_>>());
    }

    #[test]
    fn pop_tick_batches_exact_timestamps() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_nanos(1_000);
        let t2 = SimTime::from_nanos(1_001); // same wheel tick as t1
        let t3 = SimTime::from_secs(9);
        for i in 0..5 {
            q.schedule_at(t1, i);
        }
        q.schedule_at(t2, 100);
        q.schedule_at(t3, 200);
        let mut out = Vec::new();
        assert_eq!(q.pop_tick(&mut out), Some(t1));
        assert_eq!(out.iter().map(|e| e.payload).collect::<Vec<_>>(), vec![
            0, 1, 2, 3, 4
        ]);
        assert_eq!(q.pop_tick(&mut out), Some(t2));
        assert_eq!(out.len(), 1);
        assert_eq!(q.pop_tick(&mut out), Some(t3));
        assert_eq!(out[0].payload, 200);
        assert_eq!(q.pop_tick(&mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn schedule_at_current_timestamp_during_batch_is_delivered() {
        // A handler scheduling at the batch's own timestamp (zero delay)
        // must still see that event delivered at the same timestamp, after
        // the already-pending events — identical to serial pops.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule_at(t, 0u32);
        q.schedule_at(t, 1u32);
        q.schedule_at(SimTime::from_secs(2), 99u32);
        let mut out = Vec::new();
        let mut delivered = Vec::new();
        let mut spawned = false;
        while let Some(time) = q.pop_tick(&mut out) {
            for ev in out.drain(..) {
                delivered.push((time, ev.payload));
                if !spawned {
                    spawned = true;
                    q.schedule_at(time, 7u32);
                }
            }
        }
        assert_eq!(
            delivered,
            vec![(t, 0), (t, 1), (t, 7), (SimTime::from_secs(2), 99)]
        );
    }

    #[test]
    fn peek_then_schedule_earlier_still_pops_in_order() {
        // peek_time may advance the wheel cursor past "now"; a later
        // schedule at an earlier (but >= now) timestamp must still pop
        // first. This exercises the batch splice path.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        q.schedule_at(SimTime::from_secs(2), "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["early", "late"]);
    }

    #[test]
    fn clear_keeps_clock_and_counters() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), ());
        q.schedule_at(SimTime::from_secs(300 * 24 * 3_600), ()); // overflow
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
    fn slab_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.schedule_at(SimTime::from_nanos(round * 10), [round; 4]);
            q.pop();
        }
        // One live event at a time: the slab never grows past a handful.
        assert!(q.payloads.len() <= 2, "slab grew to {}", q.payloads.len());
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

    #[test]
    fn matches_reference_model_on_random_traces() {
        // Small in-crate smoke of the model equivalence; the full
        // property suite lives in tests/event_kernel.rs.
        let mut rng = SimRng::new(0xCA1E);
        for _ in 0..50 {
            let mut wheel = EventQueue::new();
            let mut model = ReferenceEventQueue::new();
            for _ in 0..200 {
                if rng.chance(0.6) || wheel.is_empty() {
                    let horizon = if rng.chance(0.05) {
                        90 * 24 * 3_600 * 1_000_000_000 // beyond the wheel
                    } else {
                        10_000_000
                    };
                    let at = SimTime::from_nanos(
                        wheel.now().as_nanos() + rng.below(horizon),
                    );
                    let tag = rng.below(u64::MAX);
                    wheel.schedule_at(at, tag);
                    model.schedule_at(at, tag);
                } else {
                    let a = wheel.pop().expect("non-empty");
                    let b = model.pop().expect("same occupancy");
                    assert_eq!((a.time, a.seq, a.payload), (b.time, b.seq, b.payload));
                    assert_eq!(wheel.now(), model.now());
                }
                assert_eq!(wheel.len(), model.len());
            }
            while let Some(a) = wheel.pop() {
                let b = model.pop().expect("same occupancy");
                assert_eq!((a.time, a.seq, a.payload), (b.time, b.seq, b.payload));
            }
            assert!(model.is_empty());
        }
    }
}
