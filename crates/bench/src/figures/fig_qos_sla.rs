//! **QoS/SLA figure (extension)** — overload-robust serving under a
//! diurnal load curve with a region outage at peak.
//!
//! The paper's operational figures assume the fleet is sized for its
//! offered load; this figure asks what happens when it is not. We sweep
//! offered load from 0.5× to 4× serving capacity through the full
//! experiment engine: tenants arrive on a non-homogeneous Poisson curve
//! (diurnal sinusoid plus an evening flash crowd), every query carries a
//! QoS class drawn from the tenant mix, and a whole region goes dark for
//! ~8% of the run *centered on the diurnal peak* — overload and fault
//! land together, the worst case the admission plane must absorb.
//!
//! Two serving modes, same workload stream:
//!
//! * **shedding ON** — classful weighted admission
//!   ([`AdmissionConfig::qos`]): work-conserving per-class concurrency
//!   caps, bounded per-class queues with deadline timeouts drained in
//!   priority order, Batch sheds first; degraded mode returns typed
//!   partial results with per-shard coverage instead of failing.
//! * **shedding OFF** — the classless baseline
//!   ([`AdmissionConfig::flat_queued`]): one FIFO queue, first come
//!   first served, no partial results. Interactive queries wait behind
//!   Batch scans and miss their SLA.
//!
//! The reported metric is **SLA-met per class over *offered* queries**:
//! a shed or timed-out query is an SLA miss, not a denominator trim.
//! Acceptance shape (pinned in the tests): at 2× offered load the ON
//! mode keeps Interactive ≥ 0.95 while OFF drops below 0.8, and the
//! whole sweep replays bit-identically.

use cubrick::admission::{AdmissionConfig, QosClass};
use scalewall_cluster::experiment::{Experiment, ExperimentConfig, ExperimentStats};
use scalewall_cluster::fault::{FaultKind, FaultScript};
use scalewall_cluster::net::NetModelConfig;
use scalewall_cluster::report::{banner, TextTable};
use scalewall_cluster::traffic::{FlashCrowd, QosConfig, TrafficConfig};
use scalewall_cluster::workload::WorkloadConfig;
use scalewall_cluster::DeploymentConfig;
use scalewall_sim::{SimDuration, SimTime};

use crate::Profile;

/// Offered load as a multiple of serving capacity.
pub const LOADS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
/// Interactive SLA-met floor the shedding mode must hold at 2× load.
pub const INTERACTIVE_FLOOR: f64 = 0.95;
const SEED: u64 = 0x905;

/// One swept cell: a load multiple under one serving mode.
pub struct QosPoint {
    pub offered_load: f64,
    pub shedding: bool,
    pub stats: ExperimentStats,
}

fn slots(profile: Profile) -> usize {
    profile.pick(3, 8)
}

/// The experiment behind one cell. Serving capacity is coupled to the
/// admission slots, so `offered_load` is a true multiple of what the
/// fleet can serve even through the outage window. The
/// diurnal period equals the horizon — one full cycle, peak mid-run —
/// and the region outage window is centered on that peak.
pub fn config(profile: Profile, offered_load: f64, shedding: bool) -> ExperimentConfig {
    let slots = slots(profile);
    let duration = profile.pick(SimDuration::from_mins(30), SimDuration::from_hours(3));
    // Calibrated so that even the diurnal peak and the flash crowd at
    // 0.5× offered load fit inside the outage-reduced pool (~1.7 qps
    // true per-slot throughput at 400 ms median service, derated for
    // the withdrawn region share).
    let capacity_qps = slots as f64 * 0.8;
    let window = SimDuration::from_nanos(duration.as_nanos() / 12);
    let onset =
        SimTime::ZERO + SimDuration::from_nanos(duration.as_nanos() / 2 - window.as_nanos() / 2);
    let admission = if shedding {
        AdmissionConfig::qos(slots)
    } else {
        AdmissionConfig::flat_queued(slots, 4 * slots, SimDuration::from_secs(8))
    };
    ExperimentConfig {
        deployment: DeploymentConfig {
            regions: 3,
            hosts_per_region: 4,
            max_shards: 5_000,
            ..Default::default()
        },
        workload: WorkloadConfig {
            // Enough tenants that the weighted class draw reliably
            // populates all three QoS classes.
            tables: 24,
            ..Default::default()
        },
        net: NetModelConfig {
            median_service_ms: 400.0,
            ..Default::default()
        },
        duration,
        rows_per_table: 100,
        host_mtbf: SimDuration::from_days(3_650),
        drains_per_day: 0.0,
        faults: FaultScript::new().with(FaultKind::RegionOutage { region: 0 }, onset, window),
        seed: SEED,
        qos: Some(QosConfig {
            traffic: TrafficConfig {
                capacity_qps,
                offered_load,
                diurnal_amplitude: 0.5,
                diurnal_period: duration,
                flash_crowds: vec![FlashCrowd {
                    at: SimTime::ZERO + SimDuration::from_nanos(3 * duration.as_nanos() / 4),
                    duration: SimDuration::from_nanos(duration.as_nanos() / 24),
                    multiplier: 2.0,
                }],
                // Interactive's offered load stays inside its 0.6
                // weight-share cap across the whole sweep, so priority
                // dequeue alone decides whether its SLA survives.
                class_mix: [0.2, 0.4, 0.4],
            },
            admission,
            degraded: shedding,
        }),
        ..Default::default()
    }
}

/// Run the full sweep: every load multiple under both serving modes.
pub fn compute(profile: Profile) -> Vec<QosPoint> {
    let mut points = Vec::new();
    for &load in &LOADS {
        for shedding in [true, false] {
            points.push(QosPoint {
                offered_load: load,
                shedding,
                stats: Experiment::new(config(profile, load, shedding)).run(),
            });
        }
    }
    points
}

pub fn run(profile: Profile) -> String {
    let points = compute(profile);
    let mut table = TextTable::new(vec![
        "load",
        "mode",
        "offered",
        "sla_interactive",
        "sla_best_effort",
        "sla_batch",
        "shed",
        "queue_timeouts",
        "partials",
        "p99_ms",
    ]);
    for p in &points {
        let q = &p.stats.qos;
        let offered: u64 = q.classes.iter().map(|c| c.offered).sum();
        let shed: u64 = q.classes.iter().map(|c| c.shed).sum();
        let timeouts: u64 = q.classes.iter().map(|c| c.queue_timeouts).sum();
        let partials: u64 = q.classes.iter().map(|c| c.partials).sum();
        table.row(vec![
            format!("{:.1}x", p.offered_load),
            if p.shedding { "shed" } else { "flat" }.to_string(),
            offered.to_string(),
            format!("{:.4}", q.sla_met_ratio(QosClass::Interactive)),
            format!("{:.4}", q.sla_met_ratio(QosClass::BestEffort)),
            format!("{:.4}", q.sla_met_ratio(QosClass::Batch)),
            shed.to_string(),
            timeouts.to_string(),
            partials.to_string(),
            format!("{:.1}", p.stats.latency.quantile(0.99)),
        ]);
    }
    let mut out = banner(
        "QoS/SLA sweep",
        "SLA-met per class vs offered load, region outage at the diurnal peak",
    );
    out.push_str(&table.render());
    out.push_str(
        "\nreading: below capacity both modes serve nearly everything, but even\n\
         there the flat FIFO burns a slice of interactive SLAs during bursts —\n\
         queue position, not priority, decides who waits behind a batch scan.\n\
         Past 1x the flat baseline collapses for every class together, worst\n\
         for interactive (tightest SLA). Classful admission instead sheds\n\
         batch first, dequeues interactive first, and holds the interactive\n\
         SLA through the mid-peak region outage and the flash crowd, with\n\
         degraded answers returned as typed partial results (coverage +\n\
         per-shard status) instead of failures.\n",
    );
    out.push_str("\nCSV:\n");
    out.push_str(&table.to_csv());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(load: f64, shedding: bool) -> ExperimentStats {
        Experiment::new(config(Profile::Fast, load, shedding)).run()
    }

    /// The acceptance shape: at 2× offered load, classful shedding keeps
    /// Interactive ≥ 0.95 SLA-met through the mid-peak region outage
    /// while the flat baseline drops below 0.8.
    #[test]
    fn shedding_protects_interactive_at_twice_capacity() {
        let on = cell(2.0, true);
        let off = cell(2.0, false);
        let on_i = on.qos.sla_met_ratio(QosClass::Interactive);
        let off_i = off.qos.sla_met_ratio(QosClass::Interactive);
        assert_eq!(on.fault_injections, 1, "outage fired");
        assert_eq!(on.fault_repairs, 1, "outage healed");
        assert!(
            on_i >= INTERACTIVE_FLOOR,
            "shedding ON interactive SLA-met {on_i:.4} < {INTERACTIVE_FLOOR}"
        );
        assert!(
            off_i < 0.8,
            "shedding OFF interactive SLA-met {off_i:.4} should collapse"
        );
        assert!(
            on.qos.class(QosClass::Batch).shed > 0,
            "overload sheds batch: {:?}",
            on.qos
        );
        let partials: u64 = on.qos.classes.iter().map(|c| c.partials).sum();
        assert!(partials > 0, "degraded mode served partial results");
    }

    /// Under capacity both modes serve nearly everything: shedding is
    /// a burst-tail phenomenon, every class keeps ≥ 0.85 SLA-met, and
    /// the classful mode costs batch essentially nothing.
    #[test]
    fn below_capacity_both_modes_serve_every_class() {
        for shedding in [true, false] {
            let s = cell(0.5, shedding);
            let q = &s.qos;
            let offered: u64 = q.classes.iter().map(|c| c.offered).sum();
            let shed: u64 = q.classes.iter().map(|c| c.shed).sum();
            assert!(offered > 500, "{offered}");
            assert!(
                (shed as f64) < 0.08 * offered as f64,
                "mode {shedding}: shedding below capacity stays a burst tail: \
                 {shed}/{offered}"
            );
            for class in QosClass::ALL {
                assert!(
                    q.sla_met_ratio(class) > 0.85,
                    "mode {shedding}, {class:?} under 0.5x load: {q:?}"
                );
            }
        }
        // Priority dequeue keeps classful interactive spotless even
        // through the burst tails the flat FIFO stumbles on.
        let on = cell(0.5, true);
        assert!(on.qos.sla_met_ratio(QosClass::Interactive) > 0.99);
    }

    /// The whole cell — traffic, admission, outage, degraded serving —
    /// replays bit-identically.
    #[test]
    fn sweep_replays_bit_identically() {
        let a = cell(2.0, true);
        let b = cell(2.0, true);
        assert_eq!(a.qos, b.qos);
        assert_eq!(a.queries_ok, b.queries_ok);
        assert_eq!(a.queries_failed, b.queries_failed);
        assert_eq!(a.latency.summary(), b.latency.summary());
    }

    #[test]
    fn report_renders() {
        let report = run(Profile::Fast);
        assert!(report.contains("QoS/SLA sweep"));
        assert!(report.contains("sla_interactive"));
        assert!(report.contains("0.5x"));
        assert!(report.contains("4.0x"));
    }
}
