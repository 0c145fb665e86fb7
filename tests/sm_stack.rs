//! Integration of the shard-management stack: SM server + coordination
//! store + service discovery, exercised together the way Cubrick uses
//! them (without the database on top).

use scalewall::discovery::{DelayModel, DiscoveryClient, MappingStore, DELAY_SEED};
use scalewall::shard_manager::app_server::MockAppServer;
use scalewall::shard_manager::{
    AppServer, AppServerRegistry, AppSpec, AutomationEngine, HostId, HostInfo, HostState,
    MaintenanceRequest, MaintenanceVerdict, MigrationCause, Rack, Region, ShardId, SmConfig,
    SmServer,
};
use scalewall::sim::{SimDuration, SimRng, SimTime};
use std::collections::HashMap;

struct Fleet {
    servers: HashMap<HostId, MockAppServer>,
    down: std::collections::HashSet<HostId>,
}

impl AppServerRegistry for Fleet {
    fn server(&mut self, host: HostId) -> Option<&mut dyn AppServer> {
        if self.down.contains(&host) {
            return None;
        }
        self.servers.get_mut(&host).map(|s| s as &mut dyn AppServer)
    }
}

fn fleet(sm: &mut SmServer, hosts: u64) -> Fleet {
    let mut servers = HashMap::new();
    for i in 0..hosts {
        sm.register_host(
            HostInfo::new(HostId(i), Rack((i % 4) as u32), Region(0), 1_000.0),
            SimTime::ZERO,
        )
        .unwrap();
        servers.insert(HostId(i), MockAppServer::with_capacity(1_000.0));
    }
    Fleet {
        servers,
        down: Default::default(),
    }
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// The owner of `shard` that subscriber `subscriber` sees in
/// `sm`'s mappings at `now`.
fn seen_owner(sm: &SmServer, subscriber: u64, shard: u64, now: SimTime) -> Option<HostId> {
    let client = DiscoveryClient::new(DelayModel::new(DELAY_SEED), subscriber);
    client.resolve(sm.mappings(), shard, now)?.host.map(HostId)
}

#[test]
fn sm_client_sees_allocation_through_discovery_with_delay() {
    let mut sm = SmServer::new(SmConfig::default(), AppSpec::primary_only("svc", 1_000));
    let mut fleet = fleet(&mut sm, 4);

    let owner = sm
        .allocate_shard(ShardId(7), 10.0, None, t(100), &mut fleet)
        .unwrap();

    // First publish: visible immediately (fallback-to-oldest rule — a
    // brand-new key has no older state to serve).
    assert_eq!(seen_owner(&sm, 1, 7, t(100)), Some(owner));

    // Reassign: the client's view lags by the propagation delay.
    let target = (0..4).map(HostId).find(|&h| h != owner).unwrap();
    sm.begin_migration(
        ShardId(7),
        target,
        false,
        MigrationCause::Manual,
        t(200),
        &mut fleet,
    )
    .unwrap();
    sm.advance_migrations(t(200) + SimDuration::from_mins(10), &mut fleet);
    assert_eq!(sm.host_of(ShardId(7)), Some(target));

    // Immediately after the (simulated) publish, the client may still
    // resolve the old owner; after a generous delay it must see the new.
    let eventually = t(200) + SimDuration::from_mins(30);
    assert_eq!(seen_owner(&sm, 1, 7, eventually), Some(target));
}

#[test]
fn heartbeat_loss_drives_failover_and_discovery_update() {
    let mut sm = SmServer::new(SmConfig::default(), AppSpec::primary_only("svc", 1_000));
    let mut fleet = fleet(&mut sm, 3);
    sm.allocate_shard(ShardId(1), 5.0, None, t(0), &mut fleet)
        .unwrap();
    let victim = sm.host_of(ShardId(1)).unwrap();

    // Everyone heartbeats until t=30; then the victim goes silent. A
    // fleet without it is a fleet of a new version.
    let everyone = || (0..3).map(HostId);
    let survivors = || everyone().filter(move |&h| h != victim);
    for s in [10u64, 20, 30] {
        sm.heartbeat_all(0, everyone, t(s));
        sm.tick(t(s), &mut fleet);
    }
    fleet.down.insert(victim);
    for s in [35u64, 40, 45, 50] {
        sm.heartbeat_all(1, survivors, t(s));
        sm.tick(t(s), &mut fleet);
    }
    assert_eq!(sm.host_state(victim), Some(HostState::Dead));
    // Failover ran (or is running); let it finish. The survivors keep
    // heartbeating (a silent tick would expire them too — correctly).
    let later = t(50) + SimDuration::from_mins(30);
    sm.heartbeat_all(1, survivors, later);
    sm.tick(later, &mut fleet);
    let new_owner = sm.host_of(ShardId(1)).unwrap();
    assert_ne!(new_owner, victim);

    // Discovery eventually points clients at the new owner.
    let eventually = t(50) + SimDuration::from_hours(1);
    assert_eq!(seen_owner(&sm, 9, 1, eventually), Some(new_owner));
}

#[test]
fn automation_drain_respects_fault_tolerance_budget() {
    let mut sm = SmServer::new(SmConfig::default(), AppSpec::primary_only("svc", 1_000));
    let mut fleet = fleet(&mut sm, 20);
    for s in 0..40 {
        sm.allocate_shard(ShardId(s), 10.0, None, t(0), &mut fleet)
            .unwrap();
    }
    let mut automation = AutomationEngine::default();

    // One host: fine. Three hosts at once: 15% > 10% budget, denied.
    let ok = automation
        .submit(
            &mut sm,
            &MaintenanceRequest {
                hosts: vec![HostId(0)],
                reason: "ok".into(),
            },
            t(10),
            &mut fleet,
        )
        .unwrap();
    assert!(matches!(ok, MaintenanceVerdict::Approved { .. }));
    let too_many = automation
        .submit(
            &mut sm,
            &MaintenanceRequest {
                hosts: vec![HostId(1), HostId(2), HostId(3)],
                reason: "too many".into(),
            },
            t(10),
            &mut fleet,
        )
        .unwrap();
    assert!(matches!(too_many, MaintenanceVerdict::Denied { .. }));

    // Run the approved drain to completion: host 0 empties out.
    sm.advance_migrations(t(10) + SimDuration::from_hours(1), &mut fleet);
    sm.advance_migrations(t(10) + SimDuration::from_hours(2), &mut fleet);
    assert!(sm.shards_on("svc", HostId(0)).is_empty());
    assert_eq!(sm.host_state(HostId(0)), Some(HostState::Draining));
    sm.reactivate_host(HostId(0), t(10_000)).unwrap();
    assert_eq!(sm.host_state(HostId(0)), Some(HostState::Alive));
}

#[test]
fn discovery_staleness_is_bounded_and_monotone() {
    // A client never sees assignments out of order: once it observes
    // update N, it never resolves to update N-1 again.
    let mut store = MappingStore::new();
    let model = DelayModel::new(DELAY_SEED);
    let client = DiscoveryClient::new(model, 77);
    let mut rng = SimRng::new(5);
    let mut publish_time = SimTime::ZERO;
    let mut last_seen: Option<u64> = None;
    let mut observe = SimTime::ZERO;
    for host in 0..20u64 {
        publish_time += SimDuration::from_secs(60 + rng.below(600));
        store.publish(5, Some(host), publish_time);
        // Observe at several instants between publishes.
        for _ in 0..5 {
            observe = observe.max(publish_time) + SimDuration::from_secs(rng.below(30) + 1);
            if let Some(update) = client.resolve(&store, 5, observe) {
                let seen = update.host.unwrap();
                if let Some(prev) = last_seen {
                    assert!(seen >= prev, "client went backwards: {prev} → {seen}");
                }
                last_seen = Some(seen);
            }
        }
    }
}
