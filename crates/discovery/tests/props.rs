//! Property-based tests of service discovery: resolution is always
//! drawn from published history, staleness is bounded by the delay
//! model, and per-subscriber views are monotone.

// Tests may unwrap, expect and panic; library code may not (DESIGN.md §5c).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use scalewall_discovery::{DelayModel, DiscoveryClient, MappingStore, Route, DELAY_SEED};
use scalewall_sim::prop::{self, gen};
use scalewall_sim::{SimDuration, SimRng, SimTime};

fn gen_publishes(rng: &mut SimRng, min: usize, max: usize) -> Vec<(u64, u64)> {
    gen::vec_with(rng, min, max, |r| (r.below(600), r.below(50)))
}

fn store_with(
    publishes: &[(u64, u64)], // (gap seconds, host)
) -> (MappingStore, Vec<(SimTime, u64)>) {
    let mut store = MappingStore::new();
    let mut t = SimTime::ZERO;
    let mut timeline = Vec::new();
    for &(gap, host) in publishes {
        t += SimDuration::from_secs(gap + 1);
        store.publish(0, Some(host), t);
        timeline.push((t, host));
    }
    (store, timeline)
}

/// A resolved host is always one that was actually published, and
/// never one published *after* the observation instant.
#[test]
fn resolution_is_causal() {
    prop::check(
        "resolution_is_causal",
        |rng| (gen_publishes(rng, 1, 12), rng.below(100), rng.below(3_600)),
        |(publishes, subscriber, observe_offset)| {
            let (store, timeline) = store_with(publishes);
            let model = DelayModel::new(DELAY_SEED);
            let client = DiscoveryClient::new(model, *subscriber);
            let last_publish = timeline.last().unwrap().0;
            let observe = last_publish + SimDuration::from_secs(*observe_offset);
            let resolved = client
                .resolve(&store, 0, observe)
                .expect("published key resolves");
            // The value must be from the retained history...
            let hosts_published: Vec<u64> = timeline.iter().map(|&(_, h)| h).collect();
            assert!(hosts_published.contains(&resolved.host.unwrap()));
            // ...and must not be from the future.
            assert!(resolved.published_at <= observe || resolved.published_at <= last_publish);
        },
    );
}

/// Far enough past the last publish, every subscriber converges on
/// the authoritative value (bounded staleness).
#[test]
fn eventual_convergence() {
    prop::check(
        "eventual_convergence",
        |rng| (gen_publishes(rng, 1, 12), rng.below(100)),
        |(publishes, subscriber)| {
            let (store, timeline) = store_with(publishes);
            let model = DelayModel::new(DELAY_SEED);
            let client = DiscoveryClient::new(model, *subscriber);
            let (_, last_host) = *timeline.last().unwrap();
            // The default model's delays are < 5 minutes with overwhelming
            // probability; one hour is decisive.
            let late = timeline.last().unwrap().0 + SimDuration::from_hours(1);
            let seen = client.resolve(&store, 0, late).and_then(|u| u.host);
            assert_eq!(seen, Some(last_host));
            // And it agrees with the authoritative store.
            let auth = store.latest(0).unwrap().host;
            assert_eq!(auth, Some(last_host));
        },
    );
}

/// A single subscriber's view never goes backwards in publish order.
#[test]
fn per_subscriber_monotonicity() {
    prop::check(
        "per_subscriber_monotonicity",
        |rng| {
            (
                gen_publishes(rng, 2, 12),
                rng.below(100),
                gen::usize_in(rng, 2, 40),
            )
        },
        |(publishes, subscriber, steps)| {
            let steps = *steps;
            let (store, timeline) = store_with(publishes);
            let model = DelayModel::new(DELAY_SEED);
            let client = DiscoveryClient::new(model, *subscriber);
            let horizon = timeline.last().unwrap().0 + SimDuration::from_hours(1);
            let mut last_seq = None;
            for i in 0..steps {
                let frac = i as f64 / steps as f64;
                let t = SimTime::from_nanos((horizon.as_nanos() as f64 * frac) as u64);
                if let Some(update) = client.resolve(&store, 0, t) {
                    if let Some(prev) = last_seq {
                        assert!(update.seq >= prev, "view went backwards");
                    }
                    last_seq = Some(update.seq);
                }
            }
        },
    );
}

// ------------------------------------------------------------------ routes

const ROUTE_KEYS: u64 = 16;

/// One step of a route scenario: a publish `gap_ms` after the previous
/// one (none when `publish` is `None`), then route lookups.
#[derive(Debug)]
struct RouteStep {
    /// `(key, host)`; a `None` host is an unassignment.
    publish: Option<(u64, Option<u64>)>,
    gap_ms: u64,
    /// A lookup instant anywhere in the scenario's span, so `now` jumps
    /// backwards as often as forwards.
    look_ms: u64,
    /// Picks which visibility boundaries get probed after this step.
    pick: u64,
}

fn gen_route_steps(rng: &mut SimRng) -> Vec<RouteStep> {
    gen::vec_with(rng, 1, 40, |r| RouteStep {
        // Half the publishes land on key 0, so its history overflows and
        // evicts; gaps are short against the ~8 s median delay, so
        // updates routinely become visible out of publish order.
        publish: (r.below(4) != 0).then(|| {
            let key = if gen::any_bool(r) {
                0
            } else {
                r.below(ROUTE_KEYS)
            };
            (key, (r.below(8) != 0).then(|| r.below(50)))
        }),
        gap_ms: r.below(4_000),
        look_ms: r.below(200_000),
        pick: r.next_u64(),
    })
}

/// The cached route equals the per-key reference at any instant, in any
/// order of instants, across publishes; and it never claims to be valid
/// past the first instant the reference answer changes.
#[test]
fn route_equals_per_key_reference() {
    prop::check(
        "route_equals_per_key_reference",
        |rng| (gen_route_steps(rng), rng.below(100)),
        |(steps, subscriber)| {
            let mut store = MappingStore::new();
            let model = DelayModel::new(DELAY_SEED);
            let client = DiscoveryClient::new(model, *subscriber);
            let mut route = Route::default();
            // Listed back to front: position and shard id differ.
            route.reset_shards().extend((0..ROUTE_KEYS).rev());
            let reference = |store: &MappingStore, now: SimTime| -> Vec<Option<u64>> {
                (0..ROUTE_KEYS)
                    .rev()
                    .map(|s| client.resolve(store, s, now).and_then(|u| u.host))
                    .collect()
            };

            let mut published_at = SimTime::ZERO;
            for step in steps {
                published_at += SimDuration::from_millis(step.gap_ms);
                if let Some((shard, host)) = step.publish {
                    store.publish(shard, host, published_at);
                }
                // Every instant at which some retained update becomes
                // visible: the only instants the reference can change at.
                let mut boundaries: Vec<SimTime> = (0..ROUTE_KEYS)
                    .flat_map(|s| store.history(s).to_vec())
                    .map(|u| client.visible_at(&u))
                    .collect();
                boundaries.sort();

                let mut probes = vec![SimTime::from_nanos(step.look_ms * 1_000_000)];
                let mut pick = SimRng::new(step.pick);
                for _ in 0..boundaries.len().min(6) {
                    let b = boundaries[pick.below(boundaries.len() as u64) as usize];
                    probes.push(SimTime::from_nanos(b.as_nanos() - 1));
                    probes.push(b);
                }
                pick.shuffle(&mut probes);

                let store = &store;
                for now in probes {
                    client.route(store, &mut route, now);
                    let want = reference(store, now);
                    assert_eq!(route.hosts(), want, "at {now:?}");
                    assert!(client.route(store, &mut route, now), "a refill is current");

                    // Up to `until` the route would answer from cache:
                    // the reference must not have moved at any boundary
                    // inside the window, nor a nanosecond before its end.
                    let until = route.until();
                    assert!(until > now);
                    for &b in boundaries.iter().filter(|&&b| now <= b && b < until) {
                        assert_eq!(
                            reference(store, b),
                            want,
                            "stale inside [{now:?}, {until:?})"
                        );
                    }
                    if until < SimTime::MAX {
                        let last = SimTime::from_nanos(until.as_nanos() - 1);
                        assert!(client.route(store, &mut route, last));
                        assert_eq!(route.hosts(), reference(store, last));
                        assert!(
                            !client.route(store, &mut route, until),
                            "window is half-open"
                        );
                        assert_eq!(route.hosts(), reference(store, until));
                    }
                }
            }
        },
    );
}

/// The scenario the window exists for, spelled out: two updates in quick
/// succession where the *later* publish reaches the subscriber first.
#[test]
fn route_window_ends_at_the_first_arrival_not_the_first_publish() {
    let mut store = MappingStore::new();
    let model = DelayModel::new(DELAY_SEED);
    store.publish(7, Some(1), SimTime::ZERO);
    // Find a subscriber for which seq 2 overtakes seq 1.
    let t = SimTime::from_secs(1_000);
    let second = store.publish(7, Some(2), t);
    let third = store.publish(7, Some(3), t + SimDuration::from_millis(1));
    let store = &store;
    let client = (0..1_000)
        .map(|s| DiscoveryClient::new(model, s))
        .find(|c| c.visible_at(&third) < c.visible_at(&second))
        .expect("some subscriber sees them out of order");
    let (early, late) = (client.visible_at(&third), client.visible_at(&second));

    let mut route = Route::default();
    route.reset_shards().push(7);
    assert!(!client.route(store, &mut route, t));
    assert_eq!((route.hosts(), route.until()), (&[Some(1)][..], early));
    // No publish happened since the fill; only the window can end it.
    assert!(!client.route(store, &mut route, early));
    assert_eq!(route.hosts(), [Some(3)]);
    // The overtaken update never shows: seq 3 is newer and visible.
    assert_eq!(route.until(), SimTime::MAX);
    assert!(client.route(store, &mut route, late));
    assert_eq!(client.resolve(store, 7, late).and_then(|u| u.host), Some(3));
    // Going back in time is a miss, not a stale hit.
    let before_early = SimTime::from_nanos(early.as_nanos() - 1);
    assert!(!client.route(store, &mut route, before_early));
    assert_eq!(route.hosts(), [Some(1)]);
}
