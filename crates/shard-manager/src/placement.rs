//! Placement: choosing a host for a shard replica.
//!
//! Pure functions over a snapshot of host state, so the policy is easy to
//! test and reuse from both initial allocation and migration targeting.
//! The policy implements SM's two goals (§III-A3): respect capacity, and
//! spread load evenly — here by ranking feasible hosts by *projected load
//! fraction* after the placement.

use crate::ids::{HostId, HostInfo, HostState};
use crate::spec::SpreadDomain;

/// Snapshot of one host as seen by the placement policy.
#[derive(Debug, Clone, Copy)]
pub struct HostSnapshot {
    pub info: HostInfo,
    pub state: HostState,
    /// Sum of weights of shards currently on the host, in the app metric.
    pub load: f64,
}

impl HostSnapshot {
    /// Load as a fraction of capacity (∞ for zero-capacity hosts, so they
    /// sort last and never win while any real host is feasible).
    pub fn load_fraction(&self) -> f64 {
        if self.info.capacity <= 0.0 {
            f64::INFINITY
        } else {
            self.load / self.info.capacity
        }
    }
}

/// A candidate placement produced by [`rank_candidates`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    pub host: HostId,
    /// Projected load fraction if the shard lands here.
    pub projected: f64,
}

/// Soft anti-affinity preferences: fault-domain-aware spread for shards
/// that belong to the same placement group (e.g. all shards carrying
/// partitions of one table).
///
/// Unlike `used_domains`, which is a **hard** same-shard replica
/// constraint, a hint only reorders candidates: a host (or rack) already
/// used by the group is deprioritized but still feasible, so placement
/// degrades gracefully when the group outgrows the topology (racks <
/// partitions, hosts < partitions). The §IV-A same-table anti-collision
/// veto at the application layer remains the hard backstop.
#[derive(Debug, Clone)]
pub struct SpreadHint {
    /// Hosts that already hold a shard of the group (avoid: collisions),
    /// ascending.
    pub avoid_hosts: Vec<HostId>,
    /// Failure-domain keys (at `domain_scope`) the group should steer
    /// clear of — typically the domains holding *more* group members than
    /// the least-occupied domain, so allocation round-robins and one
    /// outage never takes out more than a balanced share of the group.
    pub avoid_domains: Vec<u64>,
    /// Scope at which `avoid_domains` was computed.
    pub domain_scope: SpreadDomain,
}

impl Default for SpreadHint {
    fn default() -> Self {
        SpreadHint {
            avoid_hosts: Vec::new(),
            avoid_domains: Vec::new(),
            domain_scope: SpreadDomain::Rack,
        }
    }
}

impl SpreadHint {
    /// The neutral hint: ranking reduces to plain least-loaded.
    pub fn none() -> Self {
        SpreadHint::default()
    }

    pub fn is_empty(&self) -> bool {
        self.avoid_hosts.is_empty() && self.avoid_domains.is_empty()
    }

    /// Sort penalty for a host: avoided host (group collision) is worse
    /// than avoided rack (correlated loss), which is worse than clean.
    /// Public so callers that randomize within the ranking (placement
    /// jitter) can keep the draw inside the leading penalty class.
    pub fn penalty(&self, info: &HostInfo) -> u8 {
        if self.avoid_hosts.binary_search(&info.id).is_ok() {
            2
        } else if self.avoid_domains.contains(&info.domain(self.domain_scope)) {
            1
        } else {
            0
        }
    }
}

/// Rank feasible hosts for a replica of weight `weight`, best first.
///
/// Feasibility:
/// * host is [`HostState::placeable`],
/// * projected load stays within `headroom × capacity`,
/// * the host's failure domain (at `spread` scope) is not already used by
///   another replica of the same shard (`used_domains`),
/// * the host is not in `excluded` (e.g. the migration source, or hosts
///   that already vetoed this shard).
///
/// Ties on projected load break by host id for determinism.
pub fn rank_candidates(
    hosts: &[HostSnapshot],
    weight: f64,
    headroom: f64,
    spread: SpreadDomain,
    used_domains: &[u64],
    excluded: &[HostId],
) -> Vec<Candidate> {
    rank_candidates_hinted(
        hosts,
        weight,
        headroom,
        spread,
        used_domains,
        excluded,
        &SpreadHint::none(),
    )
}

/// [`rank_candidates`] with a soft anti-affinity [`SpreadHint`].
///
/// The hint never changes the feasible set — it only sorts group-avoided
/// hosts behind clean ones (penalty, then projected load, then host id),
/// so when every feasible host is avoided the least-loaded avoided host
/// still wins (graceful degradation).
#[allow(clippy::too_many_arguments)]
pub fn rank_candidates_hinted(
    hosts: &[HostSnapshot],
    weight: f64,
    headroom: f64,
    spread: SpreadDomain,
    used_domains: &[u64],
    excluded: &[HostId],
    hint: &SpreadHint,
) -> Vec<Candidate> {
    let score = |h: &HostSnapshot| score(h, weight, headroom, spread, used_domains, excluded, hint);
    let mut out: Vec<(u8, Candidate)> = hosts.iter().filter_map(score).collect();
    out.sort_by(rank_order);
    out.into_iter().map(|(_, c)| c).collect()
}

/// The head of [`rank_candidates_hinted`]'s ranking, its first `k`
/// candidates, and the length of its leading penalty class (the feasible
/// hosts sharing the best penalty): one pass over `hosts` through at most
/// `2k + 1` entries, sorting only the head.
#[allow(clippy::too_many_arguments)]
pub fn select_candidates(
    hosts: impl IntoIterator<Item = HostSnapshot>,
    weight: f64,
    headroom: f64,
    spread: SpreadDomain,
    used_domains: &[u64],
    excluded: &[HostId],
    hint: &SpreadHint,
    k: usize,
) -> (Vec<Candidate>, usize) {
    let mut best: Vec<(u8, Candidate)> = Vec::new();
    let (mut lead, mut class_len) = (u8::MAX, 0);
    for h in hosts {
        let Some(scored) = score(&h, weight, headroom, spread, used_domains, excluded, hint) else {
            continue;
        };
        if scored.0 < lead {
            (lead, class_len) = (scored.0, 0);
        }
        class_len += usize::from(scored.0 == lead);
        // A full buffer keeps only its best `k`: O(1) per host, amortized.
        best.push(scored);
        if best.len() > k.saturating_mul(2) {
            best.select_nth_unstable_by(k, rank_order);
            best.truncate(k);
        }
    }
    best.sort_by(rank_order);
    (
        best.into_iter().take(k).map(|(_, c)| c).collect(),
        class_len,
    )
}

/// A feasible host's penalty and candidate; `None` for an infeasible one.
fn score(
    h: &HostSnapshot,
    weight: f64,
    headroom: f64,
    spread: SpreadDomain,
    used_domains: &[u64],
    excluded: &[HostId],
    hint: &SpreadHint,
) -> Option<(u8, Candidate)> {
    let feasible = h.state.placeable()
        && !excluded.contains(&h.info.id)
        && !used_domains.contains(&h.info.domain(spread))
        && h.load + weight <= h.info.capacity * headroom;
    feasible.then(|| {
        let projected = if h.info.capacity > 0.0 {
            (h.load + weight) / h.info.capacity
        } else {
            f64::INFINITY
        };
        let host = h.info.id;
        (hint.penalty(&h.info), Candidate { host, projected })
    })
}

/// The ranking order: penalty, then projected load, then host id.
fn rank_order((pa, a): &(u8, Candidate), (pb, b): &(u8, Candidate)) -> std::cmp::Ordering {
    pa.cmp(pb)
        .then_with(|| a.projected.total_cmp(&b.projected))
        .then_with(|| a.host.0.cmp(&b.host.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Rack, Region};
    use scalewall_sim::prop::{self, gen};
    use scalewall_sim::SimRng;

    fn snap(id: u64, rack: u32, region: u32, capacity: f64, load: f64) -> HostSnapshot {
        HostSnapshot {
            info: HostInfo::new(HostId(id), Rack(rack), Region(region), capacity),
            state: HostState::Alive,
            load,
        }
    }

    #[test]
    fn prefers_least_loaded() {
        let hosts = [snap(1, 0, 0, 100.0, 50.0), snap(2, 1, 0, 100.0, 10.0)];
        let ranked = rank_candidates(&hosts, 5.0, 0.9, SpreadDomain::Host, &[], &[]);
        assert_eq!(ranked[0].host, HostId(2));
        assert!((ranked[0].projected - 0.15).abs() < 1e-12);
    }

    #[test]
    fn respects_headroom() {
        let hosts = [snap(1, 0, 0, 100.0, 88.0)];
        // 88 + 5 = 93 > 90 → infeasible.
        assert!(rank_candidates(&hosts, 5.0, 0.9, SpreadDomain::Host, &[], &[]).is_empty());
        // Smaller shard fits.
        assert_eq!(
            rank_candidates(&hosts, 2.0, 0.9, SpreadDomain::Host, &[], &[]).len(),
            1
        );
    }

    #[test]
    fn respects_spread_domains() {
        let hosts = [
            snap(1, 0, 0, 100.0, 0.0),
            snap(2, 0, 0, 100.0, 0.0),
            snap(3, 1, 0, 100.0, 50.0),
        ];
        // Rack 0 (region 0) already used → only host 3 is feasible.
        let used = [hosts[0].info.domain(SpreadDomain::Rack)];
        let ranked = rank_candidates(&hosts, 1.0, 0.9, SpreadDomain::Rack, &used, &[]);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].host, HostId(3));
    }

    #[test]
    fn excludes_and_state_filter() {
        let mut hosts = vec![snap(1, 0, 0, 100.0, 0.0), snap(2, 1, 0, 100.0, 0.0)];
        hosts[1].state = HostState::Draining;
        let ranked = rank_candidates(&hosts, 1.0, 0.9, SpreadDomain::Host, &[], &[HostId(1)]);
        assert!(ranked.is_empty(), "host 1 excluded, host 2 draining");
    }

    #[test]
    fn deterministic_tie_break() {
        let hosts = [snap(9, 0, 0, 100.0, 10.0), snap(4, 1, 0, 100.0, 10.0)];
        let ranked = rank_candidates(&hosts, 1.0, 0.9, SpreadDomain::Host, &[], &[]);
        assert_eq!(ranked[0].host, HostId(4), "equal load ties break by id");
    }

    #[test]
    fn zero_capacity_never_wins() {
        let hosts = [snap(1, 0, 0, 0.0, 0.0), snap(2, 1, 0, 100.0, 89.0)];
        let ranked = rank_candidates(&hosts, 1.0, 0.9, SpreadDomain::Host, &[], &[]);
        assert_eq!(ranked.first().unwrap().host, HostId(2));
    }

    #[test]
    fn hint_reorders_without_shrinking_feasible_set() {
        let hosts = [
            snap(1, 0, 0, 100.0, 0.0),
            snap(2, 0, 0, 100.0, 10.0),
            snap(3, 1, 0, 100.0, 20.0),
        ];
        let hint = SpreadHint {
            avoid_hosts: vec![HostId(1)],
            avoid_domains: vec![hosts[0].info.domain(SpreadDomain::Rack)],
            domain_scope: SpreadDomain::Rack,
        };
        let plain = rank_candidates(&hosts, 1.0, 0.9, SpreadDomain::Host, &[], &[]);
        let hinted = rank_candidates_hinted(&hosts, 1.0, 0.9, SpreadDomain::Host, &[], &[], &hint);
        // Same feasible set...
        let mut a: Vec<u64> = plain.iter().map(|c| c.host.0).collect();
        let mut b: Vec<u64> = hinted.iter().map(|c| c.host.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // ...but clean rack 1 first, avoided-rack host 2 next, avoided
        // host 1 last (despite being least loaded).
        let order: Vec<u64> = hinted.iter().map(|c| c.host.0).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn hint_degrades_gracefully_when_all_hosts_avoided() {
        let hosts = [snap(1, 0, 0, 100.0, 30.0), snap(2, 1, 0, 100.0, 10.0)];
        let hint = SpreadHint {
            avoid_hosts: vec![HostId(1), HostId(2)],
            avoid_domains: Vec::new(),
            domain_scope: SpreadDomain::Rack,
        };
        let ranked = rank_candidates_hinted(&hosts, 1.0, 0.9, SpreadDomain::Host, &[], &[], &hint);
        assert_eq!(ranked.len(), 2, "avoided hosts stay feasible");
        assert_eq!(ranked[0].host, HostId(2), "least-loaded among avoided wins");
    }

    #[test]
    fn heterogeneous_capacities_balance_by_fraction() {
        // Big host with more absolute load can still be the better target.
        let hosts = [snap(1, 0, 0, 1000.0, 300.0), snap(2, 1, 0, 100.0, 50.0)];
        let ranked = rank_candidates(&hosts, 10.0, 0.9, SpreadDomain::Host, &[], &[]);
        assert_eq!(
            ranked.first().unwrap().host,
            HostId(1),
            "31% projected beats 60%"
        );
    }

    /// `f` of about one host in four, in `hosts`' order.
    fn some_of<T>(rng: &mut SimRng, hosts: &[HostSnapshot], f: fn(&HostSnapshot) -> T) -> Vec<T> {
        hosts.iter().filter(|_| rng.below(4) == 0).map(f).collect()
    }

    /// A fleet, hint, exclusions, weight and `k` for the selection.
    type SelectionCase = (Vec<HostSnapshot>, SpreadHint, Vec<HostId>, f64, usize);

    /// The selection is the ranking's head: over random fleets (every
    /// host state, zero and uneven capacities, loads that often tie,
    /// three to five racks), hints, exclusions, weights and `k` in 1..=4,
    /// its `k` best are the ranking's first `k` and `class_len` is the
    /// length of the ranking's leading penalty class.
    #[test]
    fn prop_selection_is_the_head_of_the_ranking() {
        prop::check_n(
            "prop_selection_is_the_head_of_the_ranking",
            512,
            |rng| -> SelectionCase {
                let racks = rng.range(3, 6) as u32;
                let mut id = 0;
                let hosts = gen::vec_with(rng, 0, 24, |r| {
                    id += 1 + r.below(3);
                    let state = [HostState::Alive, HostState::Draining, HostState::Dead];
                    HostSnapshot {
                        info: HostInfo::new(
                            HostId(id),
                            Rack(r.below(u64::from(racks)) as u32),
                            Region(r.below(2) as u32),
                            [0.0, 50.0, 100.0, 100.0, 300.0][r.below(5) as usize],
                        ),
                        state: state[usize::from(r.below(4) == 0) + usize::from(r.below(8) == 0)],
                        load: r.below(5) as f64 * 20.0,
                    }
                });
                let avoid_hosts = some_of(rng, &hosts, |h| h.info.id);
                let avoid_domains = some_of(rng, &hosts, |h| h.info.domain(SpreadDomain::Rack));
                let excluded = some_of(rng, &hosts, |h| h.info.id);
                let hint = SpreadHint {
                    avoid_hosts,
                    avoid_domains,
                    domain_scope: SpreadDomain::Rack,
                };
                let weight = [1.0, 10.0, gen::f64_in(rng, 0.0, 400.0)][rng.below(3) as usize];
                (hosts, hint, excluded, weight, rng.range(1, 5) as usize)
            },
            |(hosts, hint, excluded, weight, k)| {
                let ranked = rank_candidates_hinted(
                    hosts,
                    *weight,
                    0.9,
                    SpreadDomain::Host,
                    &[],
                    excluded,
                    hint,
                );
                let (best, class_len) = select_candidates(
                    hosts.iter().copied(),
                    *weight,
                    0.9,
                    SpreadDomain::Host,
                    &[],
                    excluded,
                    hint,
                    *k,
                );
                let head = &ranked[..ranked.len().min(*k)];
                assert_eq!(best, head);
                let penalty = |c: &Candidate| {
                    let h = hosts.iter().find(|h| h.info.id == c.host).unwrap();
                    hint.penalty(&h.info)
                };
                let lead = ranked.first().map(penalty);
                let class = ranked.iter().take_while(|c| Some(penalty(c)) == lead);
                assert_eq!(class_len, class.count());
            },
        );
    }
}
