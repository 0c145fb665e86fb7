//! Multi-tenant QoS admission control (the overload-robustness layer).
//!
//! "Enhancing OLAP Resilience at LinkedIn" documents the serving stack
//! the paper's figures presuppose but never model: every query carries a
//! tenant QoS class, and on overload the proxy *sheds or queues* instead
//! of letting the fleet melt. This module is the pure policy core:
//!
//! * work-conserving weighted shares — any class may use a free slot,
//!   but each class's concurrency is capped at its weight share of the
//!   pool (rounded up, minimum one slot), so a `Batch` flood can never
//!   monopolize the slots ahead of an `Interactive` burst, while idle
//!   capacity is never held back from whoever wants it;
//! * bounded per-class FIFO queues with deterministic deadline-based
//!   timeouts (armed on a [`DeadlineQueue`], expired by
//!   the experiment's event loop — never by wall clock), drained in
//!   strict priority order: `Interactive` always dequeues first;
//! * shed order follows queue headroom: `Batch` gets the smallest cap
//!   and the shortest queue, so on overload it sheds first.
//!
//! With `classful = false` the controller degrades to a single flat pool
//! plus one global FIFO — the shedding-OFF ablation — and with zero
//! queue capacity on top it is exactly the legacy `admit()` gate, which
//! is what [`AdmissionConfig::flat`] (the proxy's default) produces, so
//! pre-QoS experiments replay byte-identically.
//!
//! Like every sim-facing file it has no `unwrap`/`expect`/panic-family
//! macro (clippy) and no literal index (lint D7) outside tests.

use std::collections::VecDeque;

use scalewall_sim::{DeadlineQueue, SimDuration, SimTime};

/// Number of QoS classes.
pub const CLASS_COUNT: usize = 3;

/// Tenant QoS class, priority-ordered: `Interactive` is served first,
/// `Batch` is shed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QosClass {
    /// Dashboards and humans waiting on a spinner.
    Interactive,
    /// Programmatic consumers that tolerate queueing.
    BestEffort,
    /// Bulk/reporting traffic: first against the wall on overload.
    Batch,
}

impl QosClass {
    /// All classes, priority order (highest first).
    pub const ALL: [QosClass; CLASS_COUNT] =
        [QosClass::Interactive, QosClass::BestEffort, QosClass::Batch];

    pub fn index(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::BestEffort => 1,
            QosClass::Batch => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::BestEffort => "best_effort",
            QosClass::Batch => "batch",
        }
    }
}

/// Per-class admission policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPolicy {
    /// Fraction of `total_slots` this class may hold concurrently
    /// (rounded up, minimum one slot). Caps may oversubscribe the pool —
    /// the pool bound still applies — so idle capacity is usable by any
    /// class while no class can monopolize it.
    pub weight: f64,
    /// Queued queries this class may hold before shedding.
    pub queue_capacity: usize,
    /// How long a queued query may wait before it is timed out.
    pub queue_deadline: SimDuration,
}

/// Admission-controller tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Concurrent queries the deployment can absorb.
    pub total_slots: usize,
    /// Class-aware mode. `false` collapses to one flat pool + one global
    /// FIFO (the shedding-OFF ablation).
    pub classful: bool,
    /// Per-class policy, indexed by [`QosClass::index`].
    pub classes: [ClassPolicy; CLASS_COUNT],
    /// Shared-queue bound used when `classful` is off.
    pub flat_queue_capacity: usize,
    /// Shared-queue deadline used when `classful` is off.
    pub flat_queue_deadline: SimDuration,
}

impl AdmissionConfig {
    /// The legacy gate: one pool, no queueing — `offer` returns only
    /// `Admit` or `Shed`, exactly the old `admit()` semantics.
    pub fn flat(total_slots: usize) -> Self {
        AdmissionConfig {
            total_slots,
            classful: false,
            classes: [ClassPolicy {
                weight: 0.0,
                queue_capacity: 0,
                queue_deadline: SimDuration::ZERO,
            }; CLASS_COUNT],
            flat_queue_capacity: 0,
            flat_queue_deadline: SimDuration::ZERO,
        }
    }

    /// Flat pool with one class-blind shared FIFO: the shedding-OFF
    /// ablation of the QoS experiment.
    pub fn flat_queued(total_slots: usize, queue_capacity: usize, deadline: SimDuration) -> Self {
        AdmissionConfig {
            flat_queue_capacity: queue_capacity,
            flat_queue_deadline: deadline,
            ..AdmissionConfig::flat(total_slots)
        }
    }

    /// Production QoS defaults: `Interactive` may hold up to 60% of the
    /// pool with a short-deadline queue, `BestEffort` a quarter, `Batch`
    /// 15% with a small long-deadline queue — so on overload Batch backs
    /// up and sheds first while Interactive keeps headroom and priority.
    pub fn qos(total_slots: usize) -> Self {
        AdmissionConfig {
            total_slots,
            classful: true,
            classes: [
                ClassPolicy {
                    weight: 0.60,
                    queue_capacity: 4 * total_slots.max(1),
                    queue_deadline: SimDuration::from_secs(2),
                },
                ClassPolicy {
                    weight: 0.25,
                    queue_capacity: 4 * total_slots.max(1),
                    queue_deadline: SimDuration::from_secs(8),
                },
                ClassPolicy {
                    weight: 0.15,
                    queue_capacity: 2 * total_slots.max(1),
                    queue_deadline: SimDuration::from_secs(30),
                },
            ],
            flat_queue_capacity: 0,
            flat_queue_deadline: SimDuration::ZERO,
        }
    }
}

/// The proxy's default (`ProxyConfig::admission`): the flat gate with
/// 10,000 slots and no queueing.
impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::flat(10_000)
    }
}

/// Handle for a queued query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// What the controller decided for an offered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Run now; the caller owns a slot and must `complete` it.
    Admit,
    /// Wait in the class queue until `deadline`; the caller learns the
    /// outcome through `next_runnable` / `expire_due`.
    Queued { ticket: Ticket, deadline: SimTime },
    /// Overload: rejected outright.
    Shed,
}

#[derive(Debug, Clone, Copy)]
struct QueuedEntry {
    class: QosClass,
    enqueued_at: SimTime,
    deadline: SimTime,
}

/// The per-class weighted admission controller.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    /// Slots the faults of the moment have taken away (capacity
    /// coupling: a region outage removes its share of serving capacity).
    slots_offline: usize,
    in_flight: [usize; CLASS_COUNT],
    /// Per-class FIFO of queued tickets, classful mode only (the flat
    /// FIFO is the ticket order of `queued`). Entries are removed lazily:
    /// a ticket at the front that is no longer in `queued` was cancelled
    /// or expired and is skipped.
    queues: [VecDeque<Ticket>; CLASS_COUNT],
    /// Live queued tickets.
    queued: std::collections::BTreeMap<Ticket, QueuedEntry>,
    /// Live queued tickets per class: `queued` counted, moved by every
    /// insert and [`Self::dequeue`].
    depths: [usize; CLASS_COUNT],
    /// Deadline queue for queue timeouts.
    deadlines: DeadlineQueue<Ticket>,
    due_scratch: Vec<Ticket>,
    next_ticket: u64,
}

impl AdmissionController {
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            slots_offline: 0,
            in_flight: [0; CLASS_COUNT],
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            queued: std::collections::BTreeMap::new(),
            depths: [0; CLASS_COUNT],
            deadlines: DeadlineQueue::default(),
            due_scratch: Vec::new(),
            next_ticket: 0,
        }
    }

    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Currently usable slots (total minus fault-withdrawn capacity).
    pub fn effective_slots(&self) -> usize {
        self.config.total_slots.saturating_sub(self.slots_offline)
    }

    /// Withdraw/restore serving capacity (e.g. a region outage removes
    /// that region's share of slots; its repair returns them). In-flight
    /// queries are not interrupted — the pool just refills more slowly.
    pub fn set_slots_offline(&mut self, offline: usize) {
        self.slots_offline = offline.min(self.config.total_slots);
    }

    pub fn total_in_flight(&self) -> usize {
        self.in_flight.iter().sum()
    }

    pub fn in_flight(&self, class: QosClass) -> usize {
        self.in_flight[class.index()]
    }

    /// Live queue depth for a class (cancelled/expired entries excluded).
    pub fn queue_depth(&self, class: QosClass) -> usize {
        self.depths[class.index()]
    }

    /// Take `ticket` out of the live queue, if it is still there.
    fn dequeue(&mut self, ticket: Ticket) -> Option<QueuedEntry> {
        let entry = self.queued.remove(&ticket)?;
        let depth = &mut self.depths[entry.class.index()];
        *depth = depth.saturating_sub(1);
        Some(entry)
    }

    fn policy(&self, class: QosClass) -> ClassPolicy {
        self.classes_policy(class.index())
    }

    fn classes_policy(&self, idx: usize) -> ClassPolicy {
        // Defensive copy through `get` keeps this file literal-index
        // free; the index is always < CLASS_COUNT by construction.
        self.config
            .classes
            .get(idx)
            .copied()
            .unwrap_or(ClassPolicy {
                weight: 0.0,
                queue_capacity: 0,
                queue_deadline: SimDuration::ZERO,
            })
    }

    /// Concurrency cap for `class`: its weight share of the effective
    /// pool, rounded up, never below one slot.
    fn class_cap(&self, class: QosClass) -> usize {
        let slots = self.effective_slots();
        ((self.policy(class).weight * slots as f64).ceil() as usize).max(1)
    }

    /// Can `class` take a slot right now? Classful mode is
    /// work-conserving: any class may use a free slot, but no class may
    /// exceed its weight-share cap — so idle capacity is never wasted
    /// and no flood monopolizes the pool.
    fn may_admit(&self, class: QosClass) -> bool {
        let slots = self.effective_slots();
        let total = self.total_in_flight();
        if total >= slots {
            return false;
        }
        if !self.config.classful {
            return true;
        }
        self.in_flight[class.index()] < self.class_cap(class)
    }

    fn queue_limits(&self, class: QosClass) -> (usize, SimDuration) {
        if self.config.classful {
            let p = self.policy(class);
            (p.queue_capacity, p.queue_deadline)
        } else {
            (
                self.config.flat_queue_capacity,
                self.config.flat_queue_deadline,
            )
        }
    }

    /// Offer a query: admit it, queue it, or shed it.
    pub fn offer(&mut self, class: QosClass, now: SimTime) -> AdmissionDecision {
        if self.may_admit(class) {
            self.in_flight[class.index()] += 1;
            return AdmissionDecision::Admit;
        }
        let (capacity, deadline_after) = self.queue_limits(class);
        let depth = if self.config.classful {
            self.queue_depth(class)
        } else {
            self.queued.len()
        };
        if depth < capacity {
            let ticket = Ticket(self.next_ticket);
            self.next_ticket += 1;
            let deadline = now + deadline_after;
            if self.config.classful {
                self.queues[class.index()].push_back(ticket);
            }
            self.queued.insert(
                ticket,
                QueuedEntry {
                    class,
                    enqueued_at: now,
                    deadline,
                },
            );
            self.depths[class.index()] += 1;
            self.deadlines.arm(deadline, ticket);
            return AdmissionDecision::Queued { ticket, deadline };
        }
        AdmissionDecision::Shed
    }

    /// Release the slot of a completed (admitted) query.
    pub fn complete(&mut self, class: QosClass) {
        let idx = class.index();
        self.in_flight[idx] = self.in_flight[idx].saturating_sub(1);
    }

    /// Expire queued tickets whose deadline has passed. Returns the
    /// expired `(ticket, class, enqueued_at)` triples in deadline order.
    pub fn expire_due(&mut self, now: SimTime, out: &mut Vec<(Ticket, QosClass, SimTime)>) {
        out.clear();
        let mut due = std::mem::take(&mut self.due_scratch);
        self.deadlines.due(now, &mut due);
        for ticket in due.drain(..) {
            if let Some(entry) = self.dequeue(ticket) {
                out.push((ticket, entry.class, entry.enqueued_at));
            }
        }
        self.due_scratch = due;
    }

    /// Cancel a queued ticket (e.g. the caller abandoned it). Returns
    /// its class when it was still waiting.
    pub fn cancel_queued(&mut self, ticket: Ticket) -> Option<QosClass> {
        self.dequeue(ticket).map(|e| e.class)
    }

    /// Dequeue the next query that can run now, if any: classes in
    /// priority order (or global FIFO order when flat), skipping
    /// cancelled/expired entries. The returned ticket's query holds a
    /// slot — pair with `complete`.
    pub fn next_runnable(&mut self, now: SimTime) -> Option<(Ticket, QosClass, SimTime)> {
        if self.config.classful {
            for class in QosClass::ALL {
                if let Some(hit) = self.next_runnable_in(class, now) {
                    return Some(hit);
                }
            }
            None
        } else {
            // Flat: the live ticket with the smallest id is the global
            // FIFO head (tickets are issued monotonically).
            loop {
                let (ticket, entry) = self.queued.iter().next().map(|(&t, &e)| (t, e))?;
                if entry.deadline <= now {
                    // Deadline passed with no event in between: expire
                    // in place rather than serve a dead query.
                    self.dequeue(ticket);
                    continue;
                }
                if !self.may_admit(entry.class) {
                    return None;
                }
                self.dequeue(ticket);
                self.in_flight[entry.class.index()] += 1;
                return Some((ticket, entry.class, entry.enqueued_at));
            }
        }
    }

    fn next_runnable_in(
        &mut self,
        class: QosClass,
        now: SimTime,
    ) -> Option<(Ticket, QosClass, SimTime)> {
        loop {
            let &ticket = self.queues[class.index()].front()?;
            let Some(&entry) = self.queued.get(&ticket) else {
                // Cancelled or expired: drop the stale front and retry.
                self.queues[class.index()].pop_front();
                continue;
            };
            if entry.deadline <= now {
                // Deadline passed with no event in between: expire in
                // place rather than serve a dead query.
                self.queues[class.index()].pop_front();
                self.dequeue(ticket);
                continue;
            }
            if !self.may_admit(class) {
                return None;
            }
            self.queues[class.index()].pop_front();
            self.dequeue(ticket);
            self.in_flight[class.index()] += 1;
            return Some((ticket, class, entry.enqueued_at));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn flat_mode_is_the_legacy_gate() {
        let mut c = AdmissionController::new(AdmissionConfig::flat(2));
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Admit
        );
        assert_eq!(c.offer(QosClass::Batch, t(0)), AdmissionDecision::Admit);
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Shed
        );
        c.complete(QosClass::Batch);
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Admit
        );
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Shed,
            "no queue to wait in"
        );
    }

    #[test]
    fn batch_flood_cannot_monopolize_the_pool() {
        let mut c = AdmissionController::new(AdmissionConfig::qos(8));
        // Batch floods first: its concurrency cap is ⌈0.15 × 8⌉ = 2
        // slots, its queue holds 2 × 8 = 16, and the rest sheds.
        let mut batch_admitted = 0;
        let mut batch_queued = 0;
        let mut batch_shed = 0;
        for _ in 0..20 {
            match c.offer(QosClass::Batch, t(0)) {
                AdmissionDecision::Admit => batch_admitted += 1,
                AdmissionDecision::Queued { .. } => batch_queued += 1,
                AdmissionDecision::Shed => batch_shed += 1,
            }
        }
        assert_eq!(batch_admitted, 2, "batch stops at its weight-share cap");
        assert_eq!(batch_queued, 16, "then backs up into its bounded queue");
        assert_eq!(batch_shed, 2, "then sheds");
        // The six remaining slots are still free for interactive, up to
        // its own cap of ⌈0.6 × 8⌉ = 5.
        for _ in 0..5 {
            assert_eq!(
                c.offer(QosClass::Interactive, t(0)),
                AdmissionDecision::Admit
            );
        }
        let AdmissionDecision::Queued { .. } = c.offer(QosClass::Interactive, t(0)) else {
            panic!("interactive beyond its own cap queues");
        };
    }

    #[test]
    fn classful_mode_is_work_conserving() {
        // A lone batch tenant on an otherwise idle pool is not held
        // back by interactive's (unused) share — only by its own cap.
        let mut c = AdmissionController::new(AdmissionConfig::qos(4));
        assert_eq!(c.offer(QosClass::Batch, t(0)), AdmissionDecision::Admit);
        let AdmissionDecision::Queued { .. } = c.offer(QosClass::Batch, t(0)) else {
            panic!("cap of ⌈0.15 × 4⌉ = 1 reached, batch queues");
        };
        // Idle best-effort capacity is likewise usable immediately.
        assert_eq!(
            c.offer(QosClass::BestEffort, t(0)),
            AdmissionDecision::Admit
        );
        assert_eq!(c.total_in_flight(), 2);
    }

    #[test]
    fn queue_then_dequeue_in_priority_order() {
        let mut c = AdmissionController::new(AdmissionConfig::qos(2));
        // Fill the pool with interactive (its cap ⌈0.6 × 2⌉ = 2 covers
        // both slots).
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Admit
        );
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Admit
        );
        // Now both classes queue.
        let AdmissionDecision::Queued { ticket: tb, .. } = c.offer(QosClass::BestEffort, t(1))
        else {
            panic!("best-effort should queue");
        };
        let AdmissionDecision::Queued { ticket: ti, .. } = c.offer(QosClass::Interactive, t(2))
        else {
            panic!("interactive should queue");
        };
        assert!(tb < ti, "tickets are monotonic");
        // A slot frees: interactive dequeues first despite arriving later.
        c.complete(QosClass::Interactive);
        let (got, class, enq) = c.next_runnable(t(3)).expect("runnable");
        assert_eq!((got, class, enq), (ti, QosClass::Interactive, t(2)));
        // Next free slot goes to the queued best-effort query.
        c.complete(QosClass::Interactive);
        let (got, class, _) = c.next_runnable(t(4)).expect("runnable");
        assert_eq!((got, class), (tb, QosClass::BestEffort));
        assert!(c.next_runnable(t(5)).is_none(), "queues drained");
    }

    #[test]
    fn deadline_expiry_is_deterministic_and_boundary_exclusive() {
        let mut c = AdmissionController::new(AdmissionConfig::qos(1));
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Admit
        );
        let AdmissionDecision::Queued { ticket, deadline } = c.offer(QosClass::Interactive, t(10))
        else {
            panic!("should queue");
        };
        assert_eq!(deadline, t(12), "qos interactive deadline is 2 s");
        let mut out = Vec::new();
        // One tick before the deadline: nothing expires.
        c.expire_due(SimTime::from_nanos(deadline.as_nanos() - 1), &mut out);
        assert!(out.is_empty());
        // At the deadline: expired.
        c.expire_due(deadline, &mut out);
        assert_eq!(out, vec![(ticket, QosClass::Interactive, t(10))]);
        // Once: a later pass finds nothing left to time out.
        c.expire_due(t(20), &mut out);
        assert!(out.is_empty());
        // The stale queue entry is skipped, not double-served.
        c.complete(QosClass::Interactive);
        assert!(c.next_runnable(t(13)).is_none());
    }

    #[test]
    fn cancelled_ticket_is_not_served_or_expired() {
        let mut c = AdmissionController::new(AdmissionConfig::qos(1));
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Admit
        );
        let AdmissionDecision::Queued { ticket, deadline } = c.offer(QosClass::Interactive, t(0))
        else {
            panic!("should queue");
        };
        assert_eq!(c.cancel_queued(ticket), Some(QosClass::Interactive));
        assert_eq!(c.cancel_queued(ticket), None);
        let mut out = Vec::new();
        c.expire_due(deadline, &mut out);
        assert!(out.is_empty(), "cancelled ticket never expires");
        c.complete(QosClass::Interactive);
        assert!(c.next_runnable(deadline).is_none());
    }

    #[test]
    fn flat_queued_mode_is_class_blind_fifo() {
        let mut c = AdmissionController::new(AdmissionConfig::flat_queued(
            1,
            4,
            SimDuration::from_secs(8),
        ));
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Admit
        );
        let AdmissionDecision::Queued { ticket: tb, .. } = c.offer(QosClass::Batch, t(1)) else {
            panic!("batch queues in flat mode");
        };
        let AdmissionDecision::Queued { .. } = c.offer(QosClass::Interactive, t(2)) else {
            panic!("interactive queues behind batch");
        };
        c.complete(QosClass::Interactive);
        let (got, class, _) = c.next_runnable(t(3)).expect("runnable");
        assert_eq!((got, class), (tb, QosClass::Batch), "FIFO ignores class");
    }

    #[test]
    fn flat_queued_mode_leaves_no_ticket_in_the_class_deques() {
        const N: usize = 6;
        let mut c = AdmissionController::new(AdmissionConfig::flat_queued(
            1,
            N,
            SimDuration::from_secs(8),
        ));
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Admit
        );
        for class in QosClass::ALL.iter().cycle().take(N) {
            let AdmissionDecision::Queued { .. } = c.offer(*class, t(1)) else {
                panic!("{class:?} queues in flat mode");
            };
        }
        let mut running = QosClass::Interactive;
        for _ in 0..N {
            c.complete(running);
            running = c.next_runnable(t(2)).expect("a queued ticket is served").1;
        }
        c.complete(running);
        assert!(c.next_runnable(t(2)).is_none(), "all served");
        assert!(c.queues.iter().all(VecDeque::is_empty), "{:?}", c.queues);
    }

    #[test]
    fn offline_slots_shrink_capacity_and_restore() {
        let mut c = AdmissionController::new(AdmissionConfig::flat(3));
        c.set_slots_offline(2);
        assert_eq!(c.effective_slots(), 1);
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Admit
        );
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Shed
        );
        c.set_slots_offline(0);
        assert_eq!(
            c.offer(QosClass::Interactive, t(0)),
            AdmissionDecision::Admit
        );
    }

    #[derive(Debug, Clone, Copy)]
    enum QueueOp {
        Offer(QosClass),
        /// Expire what is due this many seconds on.
        Expire(u64),
        /// Cancel the ticket this many tickets before the newest.
        Cancel(u64),
        NextRunnable,
        Complete(QosClass),
    }

    /// The per-class count is the walk it replaced: after every offer,
    /// expiry, cancellation, dequeue and completion, in classful and flat
    /// mode, `queue_depth` equals the live tickets of the class counted.
    #[test]
    fn prop_counted_queue_depth_matches_the_walk() {
        use scalewall_sim::prop::{self, gen};
        prop::check_n(
            "prop_counted_queue_depth_matches_the_walk",
            128,
            |rng| {
                let classful = gen::any_bool(rng);
                let slots = rng.range(1, 4) as usize;
                let ops = gen::vec_with(rng, 1, 120, |r| {
                    let class = QosClass::ALL[r.below(3) as usize];
                    match r.below(8) {
                        0..=2 => QueueOp::Offer(class),
                        3 => QueueOp::Expire(r.below(12)),
                        4 => QueueOp::Cancel(r.below(6)),
                        5 | 6 => QueueOp::NextRunnable,
                        _ => QueueOp::Complete(class),
                    }
                });
                (classful, slots, ops)
            },
            |(classful, slots, ops)| {
                let config = if *classful {
                    AdmissionConfig::qos(*slots)
                } else {
                    AdmissionConfig::flat_queued(*slots, 3 * slots, SimDuration::from_secs(5))
                };
                let mut c = AdmissionController::new(config);
                let (mut now, mut out) = (t(0), Vec::new());
                for op in ops {
                    match *op {
                        QueueOp::Offer(class) => {
                            c.offer(class, now);
                        }
                        QueueOp::Expire(secs) => {
                            now += SimDuration::from_secs(secs);
                            c.expire_due(now, &mut out);
                        }
                        QueueOp::Cancel(back) => {
                            c.cancel_queued(Ticket(c.next_ticket.saturating_sub(back + 1)));
                        }
                        QueueOp::NextRunnable => {
                            c.next_runnable(now);
                        }
                        QueueOp::Complete(class) => c.complete(class),
                    }
                    for class in QosClass::ALL {
                        let walk = c.queued.values().filter(|e| e.class == class).count();
                        assert_eq!(c.queue_depth(class), walk, "{class:?} after {op:?}");
                    }
                }
            },
        );
    }
}
