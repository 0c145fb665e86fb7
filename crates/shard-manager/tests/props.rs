//! Property-based tests of Shard Manager invariants: placement never
//! violates capacity or spread, the balancer converges and never
//! oscillates, allocation keeps the fleet consistent.

// Tests may unwrap, expect and panic; library code may not (DESIGN.md §5c).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use scalewall_shard_manager::app_server::{AppServer, AppServerRegistry, MockAppServer};
use scalewall_shard_manager::balancer::{fleet_stats, propose_rebalance, BalanceProposal};
use scalewall_shard_manager::placement::{
    rank_candidates, rank_candidates_hinted, HostSnapshot, SpreadHint,
};
use scalewall_shard_manager::{
    AppSpec, BalancerConfig, HostId, HostInfo, HostState, MigrationCause, MigrationPhase, Rack,
    Region, ShardId, SmConfig, SmServer, SpreadDomain,
};
use scalewall_sim::prop::{self, gen};
use scalewall_sim::{SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};

fn gen_snapshots(rng: &mut SimRng) -> Vec<HostSnapshot> {
    gen::vec_with(rng, 2, 30, |r| {
        let capacity = gen::f64_in(r, 10.0, 1_000.0);
        let load = gen::f64_in(r, 0.0, 800.0);
        let rack = r.below(4) as u32;
        let region = r.below(3) as u32;
        (capacity, load, rack, region)
    })
    .into_iter()
    .enumerate()
    .map(|(i, (capacity, load, rack, region))| HostSnapshot {
        info: HostInfo::new(HostId(i as u64), Rack(rack), Region(region), capacity),
        state: HostState::Alive,
        load: load.min(capacity),
    })
    .collect()
}

/// Placement candidates always respect headroom, exclusions and
/// spread, and are sorted by projected load fraction.
#[test]
fn placement_respects_constraints() {
    prop::check(
        "placement_respects_constraints",
        |rng| {
            (
                gen_snapshots(rng),
                gen::f64_in(rng, 0.1, 200.0),
                gen::f64_in(rng, 0.5, 1.0),
            )
        },
        |(hosts, weight, headroom)| {
            let (weight, headroom) = (*weight, *headroom);
            let excluded = vec![HostId(0)];
            let used = vec![hosts[hosts.len() - 1].info.domain(SpreadDomain::Rack)];
            let ranked = rank_candidates(
                hosts,
                weight,
                headroom,
                SpreadDomain::Rack,
                &used,
                &excluded,
            );
            let mut last = 0.0f64;
            for c in &ranked {
                assert!(!excluded.contains(&c.host));
                let snap = hosts.iter().find(|h| h.info.id == c.host).unwrap();
                assert!(snap.load + weight <= snap.info.capacity * headroom + 1e-9);
                assert!(!used.contains(&snap.info.domain(SpreadDomain::Rack)));
                assert!(c.projected >= last - 1e-12, "sorted by projected fraction");
                last = c.projected;
            }
        },
    );
}

/// Shared body for the balancer-safety property and its pinned
/// regression case.
///
/// Checks that proposals (a) never overflow a receiver past headroom,
/// (b) never move a shard back and forth in one run, and (c) never
/// increase the max load fraction.
fn check_balancer_proposals(loads: &[(u64, f64)], host_count: u64) {
    let mut hosts: Vec<HostSnapshot> = (0..host_count)
        .map(|i| HostSnapshot {
            info: HostInfo::new(HostId(i), Rack(0), Region(0), 1_000.0),
            state: HostState::Alive,
            load: 0.0,
        })
        .collect();
    let mut locations = Vec::new();
    for (si, &(host_pick, weight)) in loads.iter().enumerate() {
        let host = HostId(host_pick % host_count);
        locations.push((ShardId(si as u64), host, weight));
        hosts[(host_pick % host_count) as usize].load += weight;
    }
    let before = fleet_stats(&hosts);
    let config = BalancerConfig {
        max_migrations_per_run: 64,
        ..Default::default()
    };
    let proposals = propose_rebalance(&hosts, &locations, &config);

    // No shard proposed twice.
    let mut moved: Vec<u64> = proposals.iter().map(|p| p.shard.0).collect();
    moved.sort_unstable();
    let len = moved.len();
    moved.dedup();
    assert_eq!(moved.len(), len, "each shard moves at most once per run");

    // Apply and check invariants.
    let mut after = hosts.clone();
    for p in &proposals {
        for h in after.iter_mut() {
            if h.info.id == p.from {
                h.load -= p.weight;
            }
            if h.info.id == p.to {
                h.load += p.weight;
            }
        }
    }
    for h in &after {
        assert!(h.load >= -1e-9, "loads never negative");
        assert!(
            h.load <= h.info.capacity * config.capacity_headroom + 1e-6
                || hosts.iter().find(|o| o.info.id == h.info.id).unwrap().load >= h.load,
            "receivers stay within headroom"
        );
    }
    let after_stats = fleet_stats(&after);
    assert!(
        after_stats.max_fraction <= before.max_fraction + 1e-9,
        "max load never increases: {} -> {}",
        before.max_fraction,
        after_stats.max_fraction
    );
}

#[test]
fn balancer_proposals_safe() {
    prop::check(
        "balancer_proposals_safe",
        |rng| {
            let loads = gen::vec_with(rng, 5, 60, |r| (r.below(10), gen::f64_in(r, 0.5, 40.0)));
            let host_count = rng.range(3, 12);
            (loads, host_count)
        },
        |(loads, host_count)| check_balancer_proposals(loads, *host_count),
    );
}

/// Regression (ported from the retired `props.proptest-regressions`
/// file): a 38-shard layout over 9 hosts where proptest once shrank a
/// violation of the balancer-safety property. Keeps the exact shrunk
/// input as a named test.
#[test]
fn regression_balancer_38_shards_9_hosts() {
    let loads: [(u64, f64); 38] = [
        (9, 24.46421384895874),
        (8, 6.213805280250689),
        (1, 33.48136421037748),
        (4, 23.427350088139953),
        (8, 20.445966998868624),
        (4, 9.051030562137989),
        (5, 35.55932250133571),
        (9, 13.283134202335127),
        (9, 19.476617231842603),
        (1, 5.331920959970259),
        (5, 32.05575386563668),
        (1, 18.773100837373082),
        (7, 15.405006180515192),
        (5, 23.95296057959769),
        (0, 17.022334325535265),
        (1, 37.32435995431697),
        (4, 28.194777203975658),
        (5, 36.360268897500404),
        (3, 34.045686413326656),
        (5, 36.790093744100275),
        (5, 22.260253627175235),
        (3, 20.201289246466434),
        (0, 32.63486832815383),
        (1, 32.8905143297783),
        (0, 25.01842958590406),
        (7, 18.334292201327816),
        (3, 24.701937590238376),
        (4, 33.51050347673977),
        (6, 32.76485982086062),
        (5, 36.42526285169949),
        (1, 3.6510336910134487),
        (5, 24.695497611469378),
        (2, 37.65034870859291),
        (0, 26.301205526526765),
        (3, 21.27233941427683),
        (2, 31.077924310269292),
        (5, 29.277668758460212),
        (0, 11.289672098252101),
    ];
    check_balancer_proposals(&loads, 9);
}

/// The balancer as it was before it listed a donor's shards on demand:
/// every location indexed and sorted per host up front, the receivers
/// sorted per candidate shard. The oracle of
/// [`lazy_balancer_matches_the_eager_one`].
fn eager_propose_rebalance(
    hosts: &[HostSnapshot],
    shard_locations: &[(ShardId, HostId, f64)],
    config: &BalancerConfig,
) -> Vec<BalanceProposal> {
    let mut load: BTreeMap<HostId, f64> = BTreeMap::new();
    let mut capacity: BTreeMap<HostId, f64> = BTreeMap::new();
    for h in hosts {
        if h.state.placeable() && h.info.capacity > 0.0 {
            load.insert(h.info.id, h.load);
            capacity.insert(h.info.id, h.info.capacity);
        }
    }
    if load.len() < 2 {
        return Vec::new();
    }
    let mut by_host: BTreeMap<HostId, Vec<(ShardId, f64)>> = BTreeMap::new();
    for &(shard, host, weight) in shard_locations {
        if load.contains_key(&host) {
            by_host.entry(host).or_default().push((shard, weight));
        }
    }
    for shards in by_host.values_mut() {
        shards.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
    }
    let frac =
        |load: &BTreeMap<HostId, f64>, h: HostId, cap: &BTreeMap<HostId, f64>| load[&h] / cap[&h];
    let mut proposals = Vec::new();
    while proposals.len() < config.max_migrations_per_run {
        let mean: f64 = load.iter().map(|(h, l)| l / capacity[h]).sum::<f64>() / load.len() as f64;
        let Some(donor) = load.keys().copied().max_by(|a, b| {
            frac(&load, *a, &capacity)
                .total_cmp(&frac(&load, *b, &capacity))
                .then_with(|| b.0.cmp(&a.0))
        }) else {
            break;
        };
        let donor_frac = frac(&load, donor, &capacity);
        if mean <= 0.0 || donor_frac / mean <= 1.0 + config.imbalance_tolerance {
            break;
        }
        let Some(donor_shards) = by_host.get_mut(&donor) else {
            break;
        };
        let mut chosen: Option<(usize, HostId)> = None;
        'shard: for (idx, &(_, weight)) in donor_shards.iter().enumerate() {
            if weight <= 0.0 {
                continue;
            }
            let mut receivers: Vec<HostId> = load.keys().copied().filter(|h| *h != donor).collect();
            receivers.sort_by(|a, b| {
                ((load[a] + weight) / capacity[a])
                    .total_cmp(&((load[b] + weight) / capacity[b]))
                    .then_with(|| a.0.cmp(&b.0))
            });
            for r in receivers {
                let projected_receiver = (load[&r] + weight) / capacity[&r];
                let projected_donor = (load[&donor] - weight) / capacity[&donor];
                let fits = load[&r] + weight <= capacity[&r] * config.capacity_headroom;
                if fits
                    && projected_receiver < donor_frac
                    && projected_receiver >= 0.0
                    && projected_receiver.max(projected_donor) < donor_frac
                {
                    chosen = Some((idx, r));
                    break 'shard;
                }
            }
        }
        let Some((idx, receiver)) = chosen else { break };
        let (shard, weight) = donor_shards.remove(idx);
        *load.entry(donor).or_default() -= weight;
        *load.entry(receiver).or_default() += weight;
        proposals.push(BalanceProposal {
            shard,
            from: donor,
            to: receiver,
            weight,
        });
    }
    proposals
}

/// A fleet the balancer may meet: capacities mixed, zero among them,
/// some hosts draining or dead, now and then a second snapshot of one
/// id; shards piled on a few hosts in no weight order, some weightless,
/// some sharing a weight, some on hosts that cannot donate; load no shard
/// accounts for on some hosts (a donor with nothing to give); any
/// throttle from 1 to 64.
fn gen_balancer_case(
    rng: &mut SimRng,
) -> (
    Vec<HostSnapshot>,
    Vec<(ShardId, HostId, f64)>,
    BalancerConfig,
) {
    let host_count = rng.range(2, 25);
    let mut hosts: Vec<HostSnapshot> = (0..host_count)
        .map(|i| {
            let capacity = match rng.below(8) {
                0 => 0.0,
                1 => 100.0,
                _ => gen::f64_in(rng, 10.0, 1_000.0),
            };
            let state = match rng.below(10) {
                0 => HostState::Draining,
                1 => HostState::Dead,
                _ => HostState::Alive,
            };
            let unlisted = if rng.chance(0.2) {
                gen::f64_in(rng, 0.0, 500.0)
            } else {
                0.0
            };
            HostSnapshot {
                info: HostInfo::new(HostId(i), Rack(0), Region(0), capacity),
                state,
                load: unlisted,
            }
        })
        .collect();
    let hot = rng.range(1, 4).min(host_count);
    let locations: Vec<(ShardId, HostId, f64)> = gen::vec_with(rng, 0, 160, |r| {
        let host = if r.chance(0.6) {
            r.below(hot)
        } else {
            r.below(host_count)
        };
        let weight = match r.below(10) {
            0 => 0.0,
            1 | 2 => *r.pick(&[5.0, 10.0]),
            _ => gen::f64_in(r, 0.5, 60.0),
        };
        (host, weight)
    })
    .into_iter()
    .enumerate()
    .map(|(i, (host, weight))| (ShardId(i as u64), HostId(host), weight))
    .collect();
    for &(_, host, weight) in &locations {
        hosts[host.0 as usize].load += weight;
    }
    if rng.chance(0.1) {
        let mut again = hosts[rng.below(host_count) as usize];
        again.load = gen::f64_in(rng, 0.0, 300.0);
        hosts.push(again);
    }
    let config = BalancerConfig {
        imbalance_tolerance: *rng.pick(&[0.0, 0.05, 0.1, 0.3]),
        max_migrations_per_run: gen::usize_in(rng, 1, 64),
        capacity_headroom: *rng.pick(&[0.8, 0.9, 1.0]),
    };
    (hosts, locations, config)
}

/// `propose_rebalance` proposes what the eager balancer proposed, to the
/// bit, weights included, on fleets that cover the cases its shortcuts
/// rest on: balanced ones (nothing listed), donors with no shards or only
/// weightless ones, non-placeable and zero-capacity hosts, and a host
/// donating more than once in a run (its list kept, not rebuilt).
#[test]
fn lazy_balancer_matches_the_eager_one() {
    let donated_twice = std::cell::Cell::new(0u32);
    prop::check_n(
        "lazy_balancer_matches_the_eager_one",
        256,
        gen_balancer_case,
        |(hosts, locations, config)| {
            let bits = |proposals: Vec<BalanceProposal>| -> Vec<_> {
                let bits = |p: BalanceProposal| (p.shard, p.from, p.to, p.weight.to_bits());
                proposals.into_iter().map(bits).collect()
            };
            let want = bits(eager_propose_rebalance(hosts, locations, config));
            assert_eq!(bits(propose_rebalance(hosts, locations, config)), want);
            let donors: BTreeSet<HostId> = want.iter().map(|p| p.1).collect();
            if donors.len() < want.len() {
                donated_twice.set(donated_twice.get() + 1);
            }
        },
    );
    assert!(
        donated_twice.get() >= 16,
        "{} runs with a repeat donor",
        donated_twice.get()
    );
}

// ------------------------------------------------- full-server allocation

#[derive(Default)]
struct Fleet(HashMap<HostId, MockAppServer>);

impl AppServerRegistry for Fleet {
    fn server(&mut self, host: HostId) -> Option<&mut dyn AppServer> {
        self.0.get_mut(&host).map(|s| s as &mut dyn AppServer)
    }
}

/// Allocating any sequence of shards keeps the SM fleet consistent: every
/// shard has a host, that host's app server holds it, and the host loads
/// add up to the allocated weight.
#[test]
fn allocation_consistency() {
    prop::check_n(
        "allocation_consistency",
        32,
        |rng| {
            let mut shard_ids = BTreeSet::new();
            let target = gen::usize_in(rng, 1, 40);
            while shard_ids.len() < target {
                shard_ids.insert(rng.below(500));
            }
            (shard_ids, rng.range(2, 12))
        },
        |(shard_ids, hosts)| {
            let hosts = *hosts;
            let mut sm = SmServer::new(SmConfig::default(), AppSpec::primary_only("app", 1_000));
            let mut fleet = Fleet::default();
            for i in 0..hosts {
                sm.register_host(
                    HostInfo::new(HostId(i), Rack((i % 3) as u32), Region(0), 1e9),
                    SimTime::ZERO,
                )
                .unwrap();
                fleet.0.insert(HostId(i), MockAppServer::with_capacity(1e9));
            }
            for &s in shard_ids {
                sm.allocate_shard(ShardId(s), 1.0, None, SimTime::ZERO, &mut fleet)
                    .unwrap();
            }
            for &s in shard_ids {
                let host = sm.host_of(ShardId(s)).unwrap();
                assert!(fleet.0[&host].shards.contains_key(&s), "app server agrees");
            }
            // Load accounting adds up: total load = shards × weight.
            let total: f64 = (0..hosts).map(|i| sm.host_load(HostId(i))).sum();
            let expected = shard_ids.len() as f64;
            assert!((total - expected).abs() < 1e-6, "{total} vs {expected}");
        },
    );
}

// ------------------------------------- fault-domain-aware placement (ISSUE 2)

/// A [`SpreadHint`] is advisory only: hinted ranking returns exactly the
/// same feasible set as plain ranking, the winner always has the minimal
/// penalty among feasible hosts, and within one penalty class candidates
/// stay sorted by projected load. Random snapshots, random hints.
#[test]
fn hinted_ranking_reorders_but_never_filters() {
    prop::check(
        "hinted_ranking_reorders_but_never_filters",
        |rng| {
            let hosts = gen_snapshots(rng);
            let avoid_hosts: Vec<u64> = hosts
                .iter()
                .filter(|_| gen::any_bool(rng))
                .map(|h| h.info.id.0)
                .collect();
            let avoid_domains: Vec<u64> = hosts
                .iter()
                .filter(|_| gen::any_bool(rng))
                .map(|h| h.info.domain(SpreadDomain::Rack))
                .collect();
            let weight = gen::f64_in(rng, 0.1, 200.0);
            (hosts, avoid_hosts, avoid_domains, weight)
        },
        |(hosts, avoid_hosts, avoid_domains, weight)| {
            let hint = SpreadHint {
                avoid_hosts: avoid_hosts.iter().map(|&h| HostId(h)).collect(),
                avoid_domains: avoid_domains.clone(),
                domain_scope: SpreadDomain::Rack,
            };
            let plain = rank_candidates(hosts, *weight, 0.9, SpreadDomain::Rack, &[], &[]);
            let hinted =
                rank_candidates_hinted(hosts, *weight, 0.9, SpreadDomain::Rack, &[], &[], &hint);

            // (a) the feasible set is untouched.
            let mut a: Vec<u64> = plain.iter().map(|c| c.host.0).collect();
            let mut b: Vec<u64> = hinted.iter().map(|c| c.host.0).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "the hint must never change the feasible set");

            let penalty = |id: HostId| -> u8 {
                let info = &hosts.iter().find(|h| h.info.id == id).unwrap().info;
                if avoid_hosts.contains(&id.0) {
                    2
                } else if avoid_domains.contains(&info.domain(SpreadDomain::Rack)) {
                    1
                } else {
                    0
                }
            };
            // (b) the winner is as clean as any feasible host gets.
            if let Some(first) = hinted.first() {
                let best = hinted.iter().map(|c| penalty(c.host)).min().unwrap();
                assert_eq!(penalty(first.host), best, "winner has minimal penalty");
            }
            // (c) penalty classes are contiguous and load-sorted inside.
            let mut last: Option<(u8, f64)> = None;
            for c in &hinted {
                let p = penalty(c.host);
                if let Some((lp, lproj)) = last {
                    assert!(p >= lp, "penalty classes must be contiguous");
                    if p == lp {
                        assert!(c.projected >= lproj - 1e-12, "load-sorted within class");
                    }
                }
                last = Some((p, c.projected));
            }
        },
    );
}

/// Shared body for the group-spread property and its pinned regressions:
/// allocate `shards` group members over hosts with the given rack labels,
/// then check host- and rack-spread are as good as the topology allows.
fn check_group_spread(host_racks: &[u32], shards: u64) {
    let mut sm = SmServer::new(SmConfig::default(), AppSpec::primary_only("app", 1_000));
    let mut fleet = Fleet::default();
    for (i, &rack) in host_racks.iter().enumerate() {
        sm.register_host(
            HostInfo::new(HostId(i as u64), Rack(rack), Region(0), 1e9),
            SimTime::ZERO,
        )
        .unwrap();
        fleet
            .0
            .insert(HostId(i as u64), MockAppServer::with_capacity(1e9));
    }
    for s in 0..shards {
        sm.allocate_shard(ShardId(s), 1.0, Some(7), SimTime::ZERO, &mut fleet)
            .expect("group allocation must not fail while capacity remains");
    }
    let hosts_used: BTreeSet<u64> = (0..shards)
        .map(|s| sm.host_of(ShardId(s)).unwrap().0)
        .collect();
    let racks_used: BTreeSet<u32> = hosts_used.iter().map(|&h| host_racks[h as usize]).collect();
    let total_racks: BTreeSet<u32> = host_racks.iter().copied().collect();
    assert_eq!(
        hosts_used.len() as u64,
        shards.min(host_racks.len() as u64),
        "partitions double up on a host only once every host holds one"
    );
    assert_eq!(
        racks_used.len() as u64,
        shards.min(total_racks.len() as u64),
        "partitions share a rack only once every rack holds one"
    );
}

/// Fault-domain-aware group allocation over random topologies: a table's
/// partitions land on distinct hosts and distinct racks for as long as the
/// topology allows, and keep allocating cleanly once it does not — racks <
/// partitions (or hosts < partitions) degrades gracefully, never errors.
#[test]
fn group_allocation_spreads_across_random_topologies() {
    prop::check_n(
        "group_allocation_spreads_across_random_topologies",
        64,
        |rng| {
            let racks = rng.range(1, 6);
            let host_racks: Vec<u32> = gen::vec_with(rng, 2, 17, |r| r.below(racks) as u32);
            // Up to twice as many partitions as hosts: exercises both the
            // spread regime and the degradation regime.
            let shards = rng.range(1, 2 * host_racks.len() as u64 + 1);
            (host_racks, shards)
        },
        |(host_racks, shards)| check_group_spread(host_racks, *shards),
    );
}

/// On a *balanced* topology (r racks × k hosts, shards ≤ hosts), the
/// count-based rack hint bounds every rack's share of the group at
/// ⌈shards/racks⌉ — the blast-radius bound fig2b measures under a
/// single-rack outage.
#[test]
fn group_allocation_bounds_rack_share_on_balanced_topologies() {
    prop::check_n(
        "group_allocation_bounds_rack_share_on_balanced_topologies",
        64,
        |rng| {
            let racks = rng.range(2, 5);
            let per_rack = rng.range(2, 7);
            let shards = rng.range(1, racks * per_rack + 1);
            // Jitter > 1 must not weaken the bound: the randomized pick
            // stays inside the leading penalty class.
            let jitter = rng.range(1, 5) as usize;
            let seed = rng.next_u64();
            (racks, per_rack, shards, jitter, seed)
        },
        |&(racks, per_rack, shards, jitter, seed)| {
            let host_racks: Vec<u32> = (0..racks * per_rack).map(|i| (i % racks) as u32).collect();
            let config = SmConfig {
                placement_jitter: jitter,
                seed,
                ..Default::default()
            };
            let mut sm = SmServer::new(config, AppSpec::primary_only("app", 1_000));
            let mut fleet = Fleet::default();
            for (i, &rack) in host_racks.iter().enumerate() {
                sm.register_host(
                    HostInfo::new(HostId(i as u64), Rack(rack), Region(0), 1e9),
                    SimTime::ZERO,
                )
                .unwrap();
                fleet
                    .0
                    .insert(HostId(i as u64), MockAppServer::with_capacity(1e9));
            }
            for s in 0..shards {
                sm.allocate_shard(ShardId(s), 1.0, Some(7), SimTime::ZERO, &mut fleet)
                    .unwrap();
            }
            let mut per_rack_members = vec![0u64; racks as usize];
            for s in 0..shards {
                let h = sm.host_of(ShardId(s)).unwrap().0;
                per_rack_members[host_racks[h as usize] as usize] += 1;
            }
            let bound = shards.div_ceil(racks);
            for (r, &n) in per_rack_members.iter().enumerate() {
                assert!(
                    n <= bound,
                    "rack {r} holds {n} of {shards} group members (bound {bound})"
                );
            }
        },
    );
}

/// Regression: the fully degenerate topology — one rack, more partitions
/// than hosts. Rack-spread has nothing to work with and must reduce to
/// plain least-loaded without erroring or wedging.
#[test]
fn regression_group_spread_single_rack_overfull() {
    check_group_spread(&[0, 0, 0], 6);
}

/// Regression: unbalanced racks (one big, one tiny). The tiny rack must
/// still receive a partition before any rack takes its second.
#[test]
fn regression_group_spread_unbalanced_racks() {
    check_group_spread(&[0, 0, 0, 0, 0, 1], 4);
}

/// The §IV-A collision veto stays the hard backstop under hints: when
/// every hint-preferred host vetoes the shard, allocation retries on to
/// the hint-avoided host rather than failing or violating the veto.
#[test]
fn veto_overrides_spread_hint() {
    prop::check_n(
        "veto_overrides_spread_hint",
        64,
        |rng| rng.range(3, 10),
        |&hosts| {
            let mut sm = SmServer::new(SmConfig::default(), AppSpec::primary_only("app", 1_000));
            let mut fleet = Fleet::default();
            for i in 0..hosts {
                sm.register_host(
                    HostInfo::new(HostId(i), Rack(i as u32), Region(0), 1e9),
                    SimTime::ZERO,
                )
                .unwrap();
                fleet.0.insert(HostId(i), MockAppServer::with_capacity(1e9));
            }
            // Shard 0 of the group lands on host 0 (all-idle tie breaks by id).
            sm.allocate_shard(ShardId(0), 1.0, Some(7), SimTime::ZERO, &mut fleet)
                .unwrap();
            assert_eq!(sm.host_of(ShardId(0)), Some(HostId(0)));
            // Every *other* host — exactly the ones the spread hint now
            // prefers — vetoes shard 1.
            for i in 1..hosts {
                fleet.0.get_mut(&HostId(i)).unwrap().vetoed.insert(1);
            }
            sm.allocate_shard(ShardId(1), 1.0, Some(7), SimTime::ZERO, &mut fleet)
                .expect("allocation must retry past vetoes onto the avoided host");
            assert_eq!(
                sm.host_of(ShardId(1)),
                Some(HostId(0)),
                "the only non-vetoing host wins despite the hint"
            );
            assert!(
                fleet.0[&HostId(0)].shards.contains_key(&1),
                "app server agrees"
            );
        },
    );
}

// ------------------------------------------- one SM under churn, quiesced

const CHURN_HOSTS: u64 = 6;
const CHURN_SHARDS: u64 = 24;

/// One step of a churn scenario on one SM.
#[derive(Debug, Clone, Copy)]
enum Churn {
    Allocate(u64),
    Deallocate(u64),
    /// The servers report per-shard weights, SM polls them and balances.
    Balance,
    Migrate {
        shard: u64,
        to: u64,
        graceful: bool,
    },
    Fail(u64),
    Rejoin(u64),
    Drain(u64),
    /// A heartbeat round and a tick, `ms` after the last one.
    Tick(u64),
}

fn gen_churn(rng: &mut SimRng) -> Vec<Churn> {
    gen::vec_with(rng, 1, 60, |r| match r.below(9) {
        0 | 1 => Churn::Allocate(r.below(CHURN_SHARDS)),
        2 => Churn::Deallocate(r.below(CHURN_SHARDS)),
        3 => Churn::Balance,
        4 => Churn::Migrate {
            shard: r.below(CHURN_SHARDS),
            to: r.below(CHURN_HOSTS),
            graceful: gen::any_bool(r),
        },
        5 => Churn::Fail(r.below(CHURN_HOSTS)),
        6 => Churn::Rejoin(r.below(CHURN_HOSTS)),
        7 => Churn::Drain(r.below(CHURN_HOSTS)),
        _ => Churn::Tick(r.below(45_000)),
    })
}

/// Mock servers with crashed processes; every heartbeat round is a new
/// version of the fleet.
#[derive(Default)]
struct ChurnFleet {
    servers: BTreeMap<HostId, MockAppServer>,
    down: BTreeSet<HostId>,
    rounds: u64,
}

impl AppServerRegistry for ChurnFleet {
    fn server(&mut self, host: HostId) -> Option<&mut dyn AppServer> {
        if self.down.contains(&host) {
            return None;
        }
        self.servers.get_mut(&host).map(|s| s as &mut dyn AppServer)
    }
}

impl ChurnFleet {
    fn tick(&mut self, sm: &mut SmServer, now: SimTime) {
        let down = &self.down;
        let live = self.servers.keys().copied().filter(|h| !down.contains(h));
        let live: Vec<HostId> = live.collect();
        self.rounds += 1;
        sm.heartbeat_all(self.rounds, || live, now);
        sm.tick(now, self);
    }

    /// A dead host's process restarts empty on the same hardware and SM
    /// hands it back whatever it still assigns there.
    fn rejoin(&mut self, sm: &mut SmServer, host: HostId, now: SimTime) {
        if sm.host_state(host) != Some(HostState::Dead) {
            return;
        }
        self.down.remove(&host);
        self.servers.insert(host, MockAppServer::with_capacity(1e9));
        sm.rejoin_host(host, now, self)
            .expect("a dead host rejoins");
    }
}

/// Whatever sequence of allocations, releases, balancer passes, manual
/// migrations, failures, rejoins and drains one SM goes through, once
/// every dead host is back and no migration is left, the mapping it
/// published for every shard it ever allocated names the host it assigns
/// (none for a released shard), and that host's server holds the shard;
/// no server holds a shard elsewhere, nor is left prepared or forwarding.
/// And no migration completes while its shard is released: one under way
/// when the shard goes ends with it.
#[test]
fn published_mapping_matches_assignment_at_quiescence() {
    prop::check_n(
        "published_mapping_matches_assignment_at_quiescence",
        64,
        gen_churn,
        |steps| {
            let mut sm = SmServer::new(SmConfig::default(), AppSpec::primary_only("app", 1_000));
            let mut fleet = ChurnFleet::default();
            for i in 0..CHURN_HOSTS {
                let info = HostInfo::new(HostId(i), Rack((i % 3) as u32), Region(0), 1e9);
                sm.register_host(info, SimTime::ZERO).unwrap();
                fleet
                    .servers
                    .insert(HostId(i), MockAppServer::with_capacity(1e9));
            }
            let mut now = SimTime::ZERO;
            // Per shard, the instants it was allocated and released at.
            let mut lifetimes: BTreeMap<u64, Vec<(SimTime, Option<SimTime>)>> = BTreeMap::new();
            for &step in steps {
                match step {
                    Churn::Allocate(s) => {
                        let group = Some(s % 3);
                        if sm
                            .allocate_shard(ShardId(s), 1.0, group, now, &mut fleet)
                            .is_ok()
                        {
                            lifetimes.entry(s).or_default().push((now, None));
                        }
                    }
                    Churn::Deallocate(s) => {
                        if sm.deallocate_shard(ShardId(s), now, &mut fleet).is_ok() {
                            let lifetime = lifetimes.get_mut(&s).and_then(|l| l.last_mut());
                            lifetime.expect("a released shard was allocated").1 = Some(now);
                        }
                    }
                    Churn::Balance => {
                        for server in fleet.servers.values_mut() {
                            for (&s, w) in &mut server.shards {
                                *w = 1.0 + (s % 5) as f64;
                            }
                        }
                        sm.collect_metrics(&mut fleet);
                        sm.run_load_balancer(now, &mut fleet);
                    }
                    Churn::Migrate {
                        shard,
                        to,
                        graceful,
                    } => {
                        // A shard migrating onto the host it is on would be
                        // dropped there when the copy ends.
                        let (shard, to) = (ShardId(shard), HostId(to));
                        if sm.host_of(shard) != Some(to) {
                            let cause = MigrationCause::Manual;
                            let _ = sm.begin_migration(shard, to, graceful, cause, now, &mut fleet);
                        }
                    }
                    Churn::Fail(h) => {
                        fleet.down.insert(HostId(h));
                        sm.host_failed(HostId(h), now, &mut fleet).unwrap();
                    }
                    Churn::Rejoin(h) => fleet.rejoin(&mut sm, HostId(h), now),
                    Churn::Drain(h) => {
                        let _ = sm.drain_host(HostId(h), now, &mut fleet);
                    }
                    Churn::Tick(ms) => {
                        now += SimDuration::from_millis(ms);
                        fleet.tick(&mut sm, now);
                    }
                }
            }
            // Quiesce: every dead host back (a queued failover dissolves
            // once its shard's host is alive), then tick until no
            // migration is left.
            for host in (0..CHURN_HOSTS).map(HostId) {
                fleet.rejoin(&mut sm, host, now);
            }
            for _ in 0..600 {
                now += SimDuration::from_secs(1);
                fleet.tick(&mut sm, now);
                if sm.active_migration_count() == 0 {
                    break;
                }
            }
            assert_eq!(sm.active_migration_count(), 0, "not quiescent");
            for &s in lifetimes.keys() {
                let owner = sm.host_of(ShardId(s));
                let published = sm.mappings().latest(s).expect("allocated, so published");
                assert_eq!(published.host, owner.map(|h| h.0), "shard {s}");
                if let Some(host) = owner {
                    assert_ne!(sm.host_state(host), Some(HostState::Dead), "shard {s}");
                    let held = fleet.servers[&host].shards.contains_key(&s);
                    assert!(held, "shard {s}: {host} does not hold it");
                }
            }
            // No live server keeps a shard SM does not assign to it, and
            // with no migration left none is prepared or forwarding.
            for (&host, server) in &fleet.servers {
                for &s in server.shards.keys() {
                    let owner = sm.host_of(ShardId(s));
                    assert_eq!(owner, Some(host), "shard {s}: a ghost on {host}");
                }
                assert!(
                    server.prepared.is_empty(),
                    "{host} prepared {:?}",
                    server.prepared
                );
                assert!(
                    server.forwarding.is_empty(),
                    "{host} forwards {:?}",
                    server.forwarding
                );
            }
            for m in sm
                .migration_history()
                .iter()
                .filter(|m| m.phase == MigrationPhase::Done)
            {
                let done = m.finished_at.expect("a finished record has its instant");
                let live = |&(from, until): &(SimTime, Option<SimTime>)| {
                    from <= done && until.is_none_or(|until| done <= until)
                };
                assert!(
                    lifetimes[&m.shard.0].iter().any(live),
                    "{m:?} completed a released shard"
                );
            }
        },
    );
}
