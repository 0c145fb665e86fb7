//! Property-based test of the coordination store: under arbitrary
//! open / heartbeat / close / expire sequences, the session table agrees
//! with a naive model that keeps each session's last heartbeat and scans
//! them all on every expiry pass.

// Tests may unwrap, expect and panic; library code may not (DESIGN.md §5c).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use std::collections::BTreeMap;

use scalewall_sim::prop::{self, gen};
use scalewall_sim::{SimDuration, SimRng, SimTime};
use scalewall_zk::{SessionId, ZkStore, SESSION_TIMEOUT};

#[derive(Debug, Clone)]
enum Op {
    Open,
    Beat(u8),  // session index, taken modulo the sessions opened so far
    Close(u8), // session index
    Expire,
}

fn gen_steps(rng: &mut SimRng) -> Vec<(u64, Op)> {
    gen::vec_with(rng, 0, 120, |r| {
        let op = match r.below(4) {
            0 => Op::Open,
            1 => Op::Beat(gen::any_u8(r)),
            2 => Op::Close(gen::any_u8(r)),
            _ => Op::Expire,
        };
        (r.range(0, 6_000), op)
    })
}

fn check_against_model(steps: &[(u64, Op)]) {
    let mut zk = ZkStore::new();
    let mut model: BTreeMap<SessionId, SimTime> = BTreeMap::new();
    let mut opened: Vec<SessionId> = Vec::new();
    let mut now = SimTime::ZERO;
    for (advance_ms, op) in steps {
        now += SimDuration::from_millis(*advance_ms);
        let pick = |i: u8| opened.get(i as usize % opened.len().max(1)).copied();
        match *op {
            Op::Open => {
                let sid = zk.create_session(now);
                assert!(model.insert(sid, now).is_none(), "{sid} handed out twice");
                opened.push(sid);
            }
            Op::Beat(i) => {
                if let Some(sid) = pick(i) {
                    let live = model.get_mut(&sid).map(|last| *last = now).is_some();
                    assert_eq!(zk.refresh_session(sid, now), live, "beat of {sid}");
                }
            }
            Op::Close(i) => {
                if let Some(sid) = pick(i) {
                    zk.close_session(sid);
                    model.remove(&sid);
                }
            }
            Op::Expire => {
                let silent = |last: &SimTime| now.since(*last) > SESSION_TIMEOUT;
                let want: Vec<SessionId> = model
                    .iter()
                    .filter(|(_, last)| silent(last))
                    .map(|(&sid, _)| sid)
                    .collect();
                model.retain(|_, last| !silent(last));
                assert_eq!(zk.expire_sessions(now), want, "expiry at {now:?}");
            }
        }
        for &sid in &opened {
            let alive = model
                .get(&sid)
                .is_some_and(|last| now.since(*last) <= SESSION_TIMEOUT);
            assert_eq!(zk.session_alive(sid, now), alive, "{sid} at {now:?}");
        }
    }
}

/// Expiry removes exactly the sessions whose last heartbeat is older
/// than the timeout, in ascending id order; closed and live sessions are
/// never reported.
#[test]
fn expiry_matches_a_last_heartbeat_model() {
    prop::check(
        "expiry_matches_a_last_heartbeat_model",
        gen_steps,
        |steps| check_against_model(steps),
    );
}
