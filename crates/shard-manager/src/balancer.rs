//! Load balancing.
//!
//! SM "decouples measurement and management" (§III-A3): applications
//! export per-shard metrics and per-host capacities; SM owns the
//! distribution logic. This module implements that logic as a greedy
//! rebalancer: while the fleet is imbalanced beyond tolerance, move the
//! best-fitting shard from the most-loaded host (by load fraction) to the
//! least-loaded feasible host — up to the app's migration throttle.

use std::collections::BTreeMap;

use crate::ids::{HostId, ShardId};
use crate::placement::HostSnapshot;
use crate::spec::BalancerConfig;

/// One proposed migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceProposal {
    pub shard: ShardId,
    pub from: HostId,
    pub to: HostId,
    pub weight: f64,
}

/// Fleet-level load statistics (load measured as fraction of capacity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancerStats {
    pub hosts: usize,
    pub mean_fraction: f64,
    pub max_fraction: f64,
    pub min_fraction: f64,
}

impl BalancerStats {
    /// `max / mean` — the balancer's trigger metric (1.0 = perfectly flat).
    pub fn imbalance(&self) -> f64 {
        if self.mean_fraction <= 0.0 {
            1.0
        } else {
            self.max_fraction / self.mean_fraction
        }
    }
}

/// Compute fleet statistics over placeable hosts.
pub fn fleet_stats(hosts: &[HostSnapshot]) -> BalancerStats {
    let fractions: Vec<f64> = hosts
        .iter()
        .filter(|h| h.state.placeable() && h.info.capacity > 0.0)
        .map(|h| h.load_fraction())
        .collect();
    if fractions.is_empty() {
        return BalancerStats {
            hosts: 0,
            mean_fraction: 0.0,
            max_fraction: 0.0,
            min_fraction: 0.0,
        };
    }
    let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
    BalancerStats {
        hosts: fractions.len(),
        mean_fraction: mean,
        max_fraction: fractions.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        min_fraction: fractions.iter().copied().fold(f64::INFINITY, f64::min),
    }
}

/// Propose up to `config.max_migrations_per_run` migrations to flatten the
/// load distribution.
///
/// `shard_locations` maps each shard (with its weight) to the host holding
/// the replica under consideration. The proposals are *advisory*: the
/// server layer executes them through the migration workflow, where the
/// application may still veto individual targets.
pub fn propose_rebalance(
    hosts: &[HostSnapshot],
    shard_locations: &[(ShardId, HostId, f64)],
    config: &BalancerConfig,
) -> Vec<BalanceProposal> {
    rebalance(hosts, config, |host| {
        let on_host = shard_locations.iter().filter(|l| l.1 == host);
        on_host.map(|&(shard, _, weight)| (shard, weight)).collect()
    })
}

/// [`propose_rebalance`] with the shards on a host listed by `shards_of`,
/// called once per host, the first time that host donates: a balanced
/// fleet lists none (DESIGN.md "The balancer tests balance before it
/// lists a shard").
pub(crate) fn rebalance(
    hosts: &[HostSnapshot],
    config: &BalancerConfig,
    mut shards_of: impl FnMut(HostId) -> Vec<(ShardId, f64)>,
) -> Vec<BalanceProposal> {
    // Loads and capacities of the placeable hosts, a later snapshot of one
    // id winning. Ordered by id: the mean below sums float fractions in
    // this order, and donor / receiver ties go to the lower id.
    let mut fleet: BTreeMap<HostId, (f64, f64)> = BTreeMap::new();
    for h in hosts {
        if h.state.placeable() && h.info.capacity > 0.0 {
            fleet.insert(h.info.id, (h.load, h.info.capacity));
        }
    }
    let mut fleet: Vec<(HostId, f64, f64)> =
        fleet.into_iter().map(|(h, (l, c))| (h, l, c)).collect();
    if fleet.len() < 2 {
        return Vec::new();
    }
    let frac = |&(_, load, capacity): &(HostId, f64, f64)| load / capacity;

    // A donor's shards, heaviest first (moving big shards converges
    // fastest, mirroring "best-fit decreasing"), listed on its first
    // donation and kept for the run.
    let mut by_host: BTreeMap<HostId, Vec<(ShardId, f64)>> = BTreeMap::new();
    let mut proposals = Vec::new();
    while proposals.len() < config.max_migrations_per_run {
        let mean: f64 = fleet.iter().map(frac).sum::<f64>() / fleet.len() as f64;
        // Most-loaded host by fraction (ties by id, for determinism).
        let Some(d) = (0..fleet.len()).max_by(|&a, &b| {
            frac(&fleet[a])
                .total_cmp(&frac(&fleet[b]))
                .then_with(|| fleet[b].0 .0.cmp(&fleet[a].0 .0))
        }) else {
            break;
        };
        let (donor, donor_load, donor_capacity) = fleet[d];
        let donor_frac = donor_load / donor_capacity;
        if mean <= 0.0 || donor_frac / mean <= 1.0 + config.imbalance_tolerance {
            break; // balanced enough
        }

        // Find the shard on the donor whose move most reduces imbalance:
        // the heaviest shard that still fits on the best receiver without
        // pushing the receiver above the donor's new level (otherwise we
        // would oscillate).
        let donor_shards = by_host.entry(donor).or_insert_with(|| {
            let mut shards = shards_of(donor);
            shards.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
            shards
        });
        let mut chosen: Option<(usize, usize)> = None;
        for (idx, &(_, weight)) in donor_shards.iter().enumerate() {
            if weight <= 0.0 {
                continue;
            }
            let projected_donor = (donor_load - weight) / donor_capacity;
            // The receiver: the least projected fraction among the hosts
            // the move fits, ties to the lower id (`fleet` is in id order
            // and only a strictly smaller fraction replaces `best`).
            let mut best: Option<(f64, usize)> = None;
            for (r, &(_, load, capacity)) in fleet.iter().enumerate() {
                let projected_receiver = (load + weight) / capacity;
                let fits = load + weight <= capacity * config.capacity_headroom;
                if r != d && fits && projected_receiver < donor_frac && projected_receiver >= 0.0 {
                    // Accept only if the move strictly reduces the
                    // pairwise spread (prevents ping-pong).
                    let least = best.is_none_or(|(p, _)| projected_receiver.total_cmp(&p).is_lt());
                    if projected_receiver.max(projected_donor) < donor_frac && least {
                        best = Some((projected_receiver, r));
                    }
                }
            }
            if let Some((_, r)) = best {
                chosen = Some((idx, r));
                break;
            }
        }

        let Some((idx, r)) = chosen else { break };
        let (shard, weight) = donor_shards.remove(idx);
        fleet[d].1 -= weight;
        fleet[r].1 += weight;
        // Deliberately NOT added to the receiver's candidate list: a
        // shard moves at most once per run (each proposal is a real
        // migration — bouncing one shard twice would pay two copies for
        // the effect of one).
        proposals.push(BalanceProposal {
            shard,
            from: donor,
            to: fleet[r].0,
            weight,
        });
    }
    proposals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{HostInfo, HostState, Rack, Region};

    fn snap(id: u64, capacity: f64, load: f64) -> HostSnapshot {
        HostSnapshot {
            info: HostInfo::new(HostId(id), Rack(0), Region(0), capacity),
            state: HostState::Alive,
            load,
        }
    }

    fn apply(
        hosts: &mut [HostSnapshot],
        locations: &mut [(ShardId, HostId, f64)],
        proposals: &[BalanceProposal],
    ) {
        for p in proposals {
            for h in hosts.iter_mut() {
                if h.info.id == p.from {
                    h.load -= p.weight;
                }
                if h.info.id == p.to {
                    h.load += p.weight;
                }
            }
            for loc in locations.iter_mut() {
                if loc.0 == p.shard {
                    loc.1 = p.to;
                }
            }
        }
    }

    #[test]
    fn balanced_fleet_proposes_nothing() {
        let hosts = [snap(1, 100.0, 50.0), snap(2, 100.0, 50.0)];
        let locations = vec![(ShardId(1), HostId(1), 50.0), (ShardId(2), HostId(2), 50.0)];
        let proposals = propose_rebalance(&hosts, &locations, &BalancerConfig::default());
        assert!(proposals.is_empty());
    }

    #[test]
    fn skewed_fleet_flattens() {
        // Host 1 holds everything; hosts 2 and 3 are idle.
        let mut hosts = vec![
            snap(1, 100.0, 60.0),
            snap(2, 100.0, 0.0),
            snap(3, 100.0, 0.0),
        ];
        let mut locations: Vec<(ShardId, HostId, f64)> =
            (0..6).map(|i| (ShardId(i), HostId(1), 10.0)).collect();
        let config = BalancerConfig {
            max_migrations_per_run: 10,
            ..Default::default()
        };
        let proposals = propose_rebalance(&hosts, &locations, &config);
        assert!(!proposals.is_empty());
        apply(&mut hosts, &mut locations, &proposals);
        let stats = fleet_stats(&hosts);
        assert!(
            stats.imbalance() <= 1.0 + config.imbalance_tolerance + 1e-9,
            "imbalance {} after {:?}",
            stats.imbalance(),
            proposals
        );
    }

    #[test]
    fn throttle_caps_proposals() {
        let hosts = [snap(1, 100.0, 80.0), snap(2, 100.0, 0.0)];
        let locations: Vec<(ShardId, HostId, f64)> =
            (0..8).map(|i| (ShardId(i), HostId(1), 10.0)).collect();
        let config = BalancerConfig {
            max_migrations_per_run: 2,
            ..Default::default()
        };
        let proposals = propose_rebalance(&hosts, &locations, &config);
        assert_eq!(proposals.len(), 2);
    }

    #[test]
    fn respects_capacity_headroom_on_receiver() {
        // Receiver is nearly full: no proposal should overflow it.
        let hosts = [snap(1, 100.0, 60.0), snap(2, 100.0, 85.0)];
        let locations = vec![(ShardId(0), HostId(1), 30.0), (ShardId(1), HostId(1), 30.0)];
        let proposals = propose_rebalance(&hosts, &locations, &BalancerConfig::default());
        for p in &proposals {
            assert_ne!(p.to, HostId(2), "would exceed headroom");
        }
    }

    #[test]
    fn heterogeneous_capacity_balances_fractions() {
        // Small host at 80% vs big host at 10%: shard should move to big.
        let hosts = [snap(1, 100.0, 80.0), snap(2, 1000.0, 100.0)];
        let locations: Vec<(ShardId, HostId, f64)> =
            (0..8).map(|i| (ShardId(i), HostId(1), 10.0)).collect();
        let proposals = propose_rebalance(&hosts, &locations, &BalancerConfig::default());
        assert!(!proposals.is_empty());
        assert!(proposals.iter().all(|p| p.to == HostId(2)));
    }

    #[test]
    fn no_oscillation_with_one_giant_shard() {
        // A single indivisible shard dominating one host cannot be
        // improved by moving it to an equal host — proposals must be empty
        // rather than ping-ponging.
        let hosts = [snap(1, 100.0, 80.0), snap(2, 100.0, 0.0)];
        let locations = vec![(ShardId(0), HostId(1), 80.0)];
        let proposals = propose_rebalance(&hosts, &locations, &BalancerConfig::default());
        assert!(proposals.is_empty());
    }

    #[test]
    fn stats_imbalance() {
        let hosts = [snap(1, 100.0, 90.0), snap(2, 100.0, 30.0)];
        let stats = fleet_stats(&hosts);
        assert_eq!(stats.hosts, 2);
        assert!((stats.mean_fraction - 0.6).abs() < 1e-12);
        assert!((stats.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn dead_hosts_ignored() {
        let mut hosts = vec![snap(1, 100.0, 90.0), snap(2, 100.0, 0.0)];
        hosts[1].state = HostState::Dead;
        let locations = vec![(ShardId(0), HostId(1), 90.0)];
        let proposals = propose_rebalance(&hosts, &locations, &BalancerConfig::default());
        assert!(proposals.is_empty(), "only one live host — nowhere to move");
        assert_eq!(fleet_stats(&hosts).hosts, 1);
    }
}
