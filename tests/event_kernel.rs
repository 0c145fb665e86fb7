//! Event-kernel contract suite (DESIGN.md §5): [`EventQueue`] must behave
//! exactly like a naive model written here — every pending event in a
//! `Vec`, popped at its minimum `(time, seq)`.
//!
//! Every property drives the queue and the model through the same
//! operation trace and compares every observable after every step: pop
//! order as exact `(time, seq, payload)` triples, `len`, `now`,
//! `scheduled_total`, and `peek_time`. The traces mix equal-time
//! collisions (FIFO tie-break), far-future times (more than 2^52 ns
//! ahead), and `clear()` mid-run, and the pinned `regression_*` cases keep
//! one named instance of each in the suite forever.

use scalewall::sim::prop::{self, gen};
use scalewall::sim::{EventQueue, SimDuration, SimRng, SimTime};

/// One step of a kernel trace. Offsets are relative to the queue's `now`
/// at apply time, so generated traces never schedule into the past.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `schedule_at(now + offset_ns)`.
    At(u64),
    /// `schedule_after(offset_ns)`.
    After(u64),
    Pop,
    Peek,
    Clear,
}

/// The contract, stated as plainly as possible: a scan for the minimum
/// `(time, seq)` on every pop.
#[derive(Default)]
struct NaiveModel {
    pending: Vec<(SimTime, u64, u64)>,
    now: SimTime,
    next_seq: u64,
    scheduled_total: u64,
}

impl NaiveModel {
    fn schedule_at(&mut self, at: SimTime, payload: u64) {
        self.pending.push((at.max(self.now), self.next_seq, payload));
        self.next_seq += 1;
        self.scheduled_total += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        let (at, _) = self.pending.iter().enumerate().min_by_key(|&(_, &(t, s, _))| (t, s))?;
        let event = self.pending.remove(at);
        self.now = event.0;
        Some(event)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.iter().map(|&(t, s, _)| (t, s)).min().map(|(t, _)| t)
    }
}

/// Apply `trace` to the queue and the model in lockstep, asserting every
/// observable matches at every step, then drain both dry.
fn assert_matches_model(trace: &[Op]) {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut model = NaiveModel::default();
    let mut next_payload = 0u64;

    let mut step = |queue: &mut EventQueue<u64>, model: &mut NaiveModel, i: usize, op: Op| {
        match op {
            Op::At(offset) => {
                let at = queue.now().saturating_add(SimDuration::from_nanos(offset));
                queue.schedule_at(at, next_payload);
                model.schedule_at(at, next_payload);
                next_payload += 1;
            }
            Op::After(offset) => {
                queue.schedule_after(SimDuration::from_nanos(offset), next_payload);
                model.schedule_at(model.now + SimDuration::from_nanos(offset), next_payload);
                next_payload += 1;
            }
            Op::Pop => {
                let got = queue.pop().map(|e| (e.time, e.seq, e.payload));
                assert_eq!(got, model.pop(), "pop diverged at op {i}");
            }
            Op::Peek => assert_eq!(queue.peek_time(), model.peek_time(), "peek_time diverged at op {i}"),
            Op::Clear => {
                queue.clear();
                model.pending.clear();
            }
        }
        assert_eq!(queue.len(), model.pending.len(), "len diverged after op {i} ({op:?})");
        assert_eq!(queue.now(), model.now, "now diverged after op {i} ({op:?})");
        assert_eq!(
            queue.scheduled_total(),
            model.scheduled_total,
            "scheduled_total diverged after op {i} ({op:?})"
        );
        assert_eq!(queue.is_empty(), model.pending.is_empty());
    };

    for (i, &op) in trace.iter().enumerate() {
        step(&mut queue, &mut model, i, op);
    }
    // Drain whatever the trace left behind: the tail of the pop order must
    // match too, far-future events included.
    let mut i = trace.len();
    while !model.pending.is_empty() || !queue.is_empty() {
        step(&mut queue, &mut model, i, Op::Pop);
        i += 1;
    }
    assert_eq!(queue.pop().map(|e| e.payload), None);
}

/// An offset in one of the interesting distance classes: a handful of
/// near offsets (forcing exact equal-time collisions once `now` catches
/// up), a short or a long horizon, or more than 2^52 ns ahead.
fn gen_offset(rng: &mut SimRng) -> u64 {
    match gen::usize_in(rng, 0, 10) {
        0..=3 => [0, 1, 513, 1_025][gen::usize_in(rng, 0, 4)],
        4..=5 => gen::any_u64(rng) % (64 << 10),
        // Up to ~52 simulated days.
        6..=8 => gen::any_u64(rng) % (1u64 << 52),
        _ => (1u64 << 52) + gen::any_u64(rng) % (1u64 << 58),
    }
}

/// A mixed trace weighted toward schedules so the queue builds real depth.
fn gen_trace(rng: &mut SimRng) -> Vec<Op> {
    gen::vec_with(rng, 1, 120, |rng| match gen::usize_in(rng, 0, 100) {
        0..=39 => Op::At(gen_offset(rng)),
        40..=54 => Op::After(gen_offset(rng)),
        55..=89 => Op::Pop,
        90..=97 => Op::Peek,
        _ => Op::Clear,
    })
}

/// Arbitrary mixed traces replay bit-identically on the queue and the
/// naive model.
#[test]
fn kernel_matches_naive_model_on_mixed_traces() {
    prop::check("event_kernel_mixed_traces", gen_trace, |trace| {
        assert_matches_model(trace)
    });
}

/// Long schedule-heavy traces, then a full drain.
#[test]
fn kernel_matches_naive_model_on_schedule_heavy_traces() {
    prop::check_n(
        "event_kernel_schedule_heavy",
        64,
        |rng| {
            gen::vec_with(rng, 50, 400, |rng| match gen::usize_in(rng, 0, 10) {
                0..=7 => Op::At(gen_offset(rng)),
                8 => Op::After(gen_offset(rng)),
                _ => Op::Pop,
            })
        },
        |trace| assert_matches_model(trace),
    );
}

/// Pinned: dense equal-time collisions with interleaved pops. The FIFO
/// tie-break (`seq` order within a timestamp) is the contract under test;
/// a queue that reorders equal-time events fails here first.
#[test]
fn regression_same_tick_tie_breaks() {
    prop::replay(
        "event_kernel_regression_same_tick",
        0x5EED_071E_u64,
        |rng| {
            gen::vec_with(rng, 30, 200, |rng| match gen::usize_in(rng, 0, 10) {
                0..=6 => Op::At([0, 0, 1, 513, 1_025][gen::usize_in(rng, 0, 5)]),
                _ => Op::Pop,
            })
        },
        |trace| assert_matches_model(trace),
    );
}

/// Pinned: events more than 2^52 ns ahead still pop in order, interleaved
/// with near-term events that must win every pop.
#[test]
fn regression_far_future_overflow() {
    prop::replay(
        "event_kernel_regression_overflow",
        0x000F_100D_u64,
        |rng| {
            gen::vec_with(rng, 20, 150, |rng| match gen::usize_in(rng, 0, 10) {
                0..=3 => Op::At((1u64 << 52) + gen::any_u64(rng) % (1u64 << 56)),
                4..=6 => Op::At(gen::any_u64(rng) % (1u64 << 30)),
                7 => Op::Peek,
                _ => Op::Pop,
            })
        },
        |trace| assert_matches_model(trace),
    );
}

/// Pinned: `clear()` mid-run. The contract keeps the clock, `next_seq`
/// and `scheduled_total` across a clear while dropping the pending set.
#[test]
fn regression_clear_mid_run() {
    prop::replay(
        "event_kernel_regression_clear",
        0x000C_1EA2_u64,
        |rng| {
            let mut trace = gen::vec_with(rng, 10, 60, |rng| match gen::usize_in(rng, 0, 10) {
                0..=5 => Op::At(gen_offset(rng)),
                _ => Op::Pop,
            });
            trace.push(Op::Clear);
            let tail = gen::vec_with(rng, 10, 60, |rng| match gen::usize_in(rng, 0, 10) {
                0..=6 => Op::At(gen_offset(rng)),
                _ => Op::Pop,
            });
            trace.extend(tail);
            trace
        },
        |trace| assert_matches_model(trace),
    );
}

/// Equal-time stress (kernel accounting contract): millions of events
/// spread over a handful of distinct timestamps. `scheduled_total` and
/// `len` must account for every event exactly, each timestamp must be
/// delivered whole in FIFO order, and the payload checksums prove no
/// event was dropped or duplicated.
#[test]
fn same_tick_stress_exact_accounting() {
    const TICKS: u64 = 5;
    const PER_TICK: u64 = 400_000;
    const TOTAL: u64 = TICKS * PER_TICK;

    let mut queue: EventQueue<u64> = EventQueue::new();
    // Five distinct timestamps. Payload ids are globally unique; id % TICKS
    // names the target timestamp.
    let times: Vec<SimTime> = (0..TICKS)
        .map(|k| SimTime::from_nanos(1_000_000 + k * 77_777_777))
        .collect();
    let mut expect_sum = [0u64; TICKS as usize];
    let mut expect_xor = [0u64; TICKS as usize];
    for id in 0..TOTAL {
        let k = (id % TICKS) as usize;
        queue.schedule_at(times[k], id);
        expect_sum[k] = expect_sum[k].wrapping_add(id);
        expect_xor[k] ^= id;
    }
    assert_eq!(queue.len(), TOTAL as usize);
    assert_eq!(queue.scheduled_total(), TOTAL);

    for (k, &time) in times.iter().enumerate() {
        let mut sum = 0u64;
        let mut xor = 0u64;
        let mut last_seq = None;
        for _ in 0..PER_TICK {
            let ev = queue.pop().unwrap_or_else(|| panic!("timestamp {k} ran short"));
            assert_eq!(ev.time, time);
            assert_eq!((ev.payload % TICKS) as usize, k, "event at wrong timestamp");
            // FIFO within the timestamp: seq strictly increasing.
            assert!(last_seq < Some(ev.seq), "tie-break order violated");
            last_seq = Some(ev.seq);
            sum = sum.wrapping_add(ev.payload);
            xor ^= ev.payload;
        }
        assert_eq!(sum, expect_sum[k], "timestamp {k} dropped/duplicated events");
        assert_eq!(xor, expect_xor[k], "timestamp {k} dropped/duplicated events");
        assert_eq!(queue.len() as u64, TOTAL - PER_TICK * (k as u64 + 1));
    }
    assert!(queue.is_empty());
    assert!(queue.pop().is_none());
    assert_eq!(queue.scheduled_total(), TOTAL);
    assert_eq!(queue.now(), *times.last().unwrap());
}
