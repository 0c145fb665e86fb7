//! Property-based tests of the coordination store: the znode tree stays
//! a consistent tree under arbitrary operation sequences, and session
//! expiry removes exactly the expired sessions' ephemerals.

use scalewall_sim::prop::{self, gen};
use scalewall_sim::{SimRng, SimTime};
use scalewall_zk::{NodeKind, ZkStore};

#[derive(Debug, Clone)]
enum Op {
    Create(u8, u8), // parent index, name
    SetData(u8),    // node index
    Delete(u8),     // node index
}

fn gen_ops(rng: &mut SimRng) -> Vec<Op> {
    gen::vec_with(rng, 0, 120, |r| match r.below(3) {
        0 => Op::Create(gen::any_u8(r), gen::any_u8(r)),
        1 => Op::SetData(gen::any_u8(r)),
        _ => Op::Delete(gen::any_u8(r)),
    })
}

/// Shadow model: a set of paths forming a tree.
fn check_tree_invariants(zk: &ZkStore, paths: &[String]) {
    for path in paths {
        if path == "/" {
            continue; // the root has no parent to check against
        }
        if zk.exists(path) {
            // Parent exists for every existing node.
            if let Some(idx) = path.rfind('/') {
                let parent = if idx == 0 { "/" } else { &path[..idx] };
                assert!(zk.exists(parent), "orphan node {path}");
                // And the node is listed among the parent's children.
                let leaf = &path[idx + 1..];
                assert!(
                    zk.get_children(parent).unwrap().iter().any(|c| c == leaf),
                    "{path} missing from {parent}'s children"
                );
            }
        }
    }
}

/// Shared body: apply an operation sequence against both the store and a
/// naive shadow model, asserting they agree at every step.
fn check_tree_ops(ops: &[Op]) {
    let mut zk = ZkStore::default();
    let mut known: Vec<String> = vec!["/".to_string()];
    let mut shadow: std::collections::HashSet<String> = std::collections::HashSet::new();
    let now = SimTime::from_secs(1);
    for op in ops {
        match *op {
            Op::Create(p, n) => {
                let parent = known[(p as usize) % known.len()].clone();
                let path = if parent == "/" {
                    format!("/n{n}")
                } else {
                    format!("{parent}/n{n}")
                };
                let result = zk.create(&path, b"x", NodeKind::Persistent, None, now);
                let should_succeed =
                    !shadow.contains(&path) && (parent == "/" || shadow.contains(&parent));
                assert_eq!(result.is_ok(), should_succeed, "create {}", &path);
                if should_succeed {
                    shadow.insert(path.clone());
                    known.push(path);
                }
            }
            Op::SetData(i) => {
                let path = &known[(i as usize) % known.len()];
                let exists = path == "/" || shadow.contains(path);
                let before = zk.stat(path).map(|s| s.version).unwrap_or(0);
                let result = zk.set_data(path, b"y", None, now);
                assert_eq!(result.is_ok(), exists);
                if exists {
                    assert_eq!(zk.stat(path).unwrap().version, before + 1);
                }
            }
            Op::Delete(i) => {
                let path = known[(i as usize) % known.len()].clone();
                if path == "/" {
                    continue;
                }
                let has_children = shadow.iter().any(|p| p.starts_with(&format!("{path}/")));
                let result = zk.delete(&path, None, now);
                let should_succeed = shadow.contains(&path) && !has_children;
                assert_eq!(result.is_ok(), should_succeed, "delete {}", &path);
                if should_succeed {
                    shadow.remove(&path);
                }
            }
        }
    }
    check_tree_invariants(&zk, &known);
    assert_eq!(zk.len(), shadow.len());
}

/// Arbitrary create/set/delete sequences keep the tree consistent
/// and agree with a naive shadow model.
#[test]
fn tree_stays_consistent() {
    prop::check_n("tree_stays_consistent", 64, gen_ops, |ops| check_tree_ops(ops));
}

/// Regression (ported from the retired `props.proptest-regressions`
/// file): proptest once shrank a failure of this property to the empty
/// operation sequence — the store must report a consistent empty tree.
#[test]
fn regression_tree_consistent_on_empty_op_sequence() {
    check_tree_ops(&[]);
}

/// Expiry removes exactly the ephemerals of sessions that stopped
/// heartbeating; persistent nodes and live sessions are untouched.
#[test]
fn expiry_removes_exactly_expired_ephemerals() {
    prop::check(
        "expiry_removes_exactly_expired_ephemerals",
        |rng| (gen::usize_in(rng, 1, 8), gen::any_u8(rng)),
        |&(sessions, dead_mask)| {
            let mut zk = ZkStore::new();
            let t0 = SimTime::from_secs(0);
            zk.create("/eph", b"", NodeKind::Persistent, None, t0).unwrap();
            let ids: Vec<_> = (0..sessions).map(|_| zk.create_session(t0)).collect();
            for (i, &sid) in ids.iter().enumerate() {
                zk.create(&format!("/eph/s{i}"), b"", NodeKind::Ephemeral, Some(sid), t0)
                    .unwrap();
            }
            // Live sessions heartbeat at t=30; dead ones go silent after t0.
            let t30 = SimTime::from_secs(30);
            for (i, &sid) in ids.iter().enumerate() {
                if dead_mask & (1 << (i % 8)) == 0 {
                    zk.refresh_session(sid, t30);
                }
            }
            zk.expire_sessions(t30);
            for (i, _) in ids.iter().enumerate() {
                let dead = dead_mask & (1 << (i % 8)) != 0;
                assert_eq!(!zk.exists(&format!("/eph/s{i}")), dead, "session {}", i);
            }
            assert!(zk.exists("/eph"), "persistent parent survives");
        },
    );
}
