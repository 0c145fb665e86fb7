//! Production traffic: millions of users, diurnal load, QoS classes.
//!
//! The paper's fleet serves interactive dashboards for a very large user
//! base, so offered load is not a constant-rate query loop: it follows a
//! diurnal sinusoid, spikes when an incident sends everyone to the same
//! dashboard (a *flash crowd*), and is a mix of tenants with different
//! latency contracts. This module generates that arrival process as a
//! non-homogeneous Poisson stream — sampled by *thinning* (accept an
//! exponential candidate at the peak rate with probability
//! `rate(t)/peak`), so it composes with the event kernel
//! and stays bit-replayable.
//!
//! Tenants come from the same log-normal population as Fig 4b (see
//! [`crate::workload`]); each tenant is assigned a sticky
//! [`QosClass`] drawn from the configured mix, and every query it emits
//! is stamped with that class.

use cubrick::admission::{AdmissionConfig, QosClass, CLASS_COUNT};
use scalewall_sim::{Exponential, SimDuration, SimRng, SimTime};

/// A scripted load spike: `multiplier × capacity_qps` of extra offered
/// load over `[at, at + duration)`.
#[derive(Debug, Clone, Copy)]
pub struct FlashCrowd {
    pub at: SimTime,
    pub duration: SimDuration,
    /// Extra load, as a multiple of `capacity_qps`.
    pub multiplier: f64,
}

/// Knobs of the offered-load curve.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// The deployment's nominal serving capacity in queries/sec; every
    /// other rate is expressed relative to it.
    pub capacity_qps: f64,
    /// Mean offered load as a multiple of capacity (the sweep variable
    /// of the QoS figure: 0.5× is comfortable, 4× is a meltdown).
    pub offered_load: f64,
    /// Diurnal swing in `[0, 1)`: the rate runs between
    /// `mean × (1 − A)` (trough, at t = 0) and `mean × (1 + A)` (peak,
    /// at half a period).
    pub diurnal_amplitude: f64,
    pub diurnal_period: SimDuration,
    pub flash_crowds: Vec<FlashCrowd>,
    /// Fraction of tenants in each QoS class, [`QosClass::ALL`] order.
    /// Normalized at assignment time.
    pub class_mix: [f64; CLASS_COUNT],
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            capacity_qps: 100.0,
            offered_load: 1.0,
            diurnal_amplitude: 0.5,
            diurnal_period: SimDuration::from_secs(24 * 3_600),
            flash_crowds: Vec::new(),
            class_mix: [0.3, 0.4, 0.3],
        }
    }
}

impl TrafficConfig {
    /// Instantaneous offered rate (queries/sec) at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let mean = self.offered_load * self.capacity_qps;
        let phase = if self.diurnal_period > SimDuration::ZERO {
            let frac = t.as_nanos() as f64 / self.diurnal_period.as_nanos() as f64;
            frac * 2.0 * std::f64::consts::PI
        } else {
            0.0
        };
        let mut rate = mean * (1.0 - self.diurnal_amplitude * phase.cos());
        for crowd in &self.flash_crowds {
            if t >= crowd.at && t.since(crowd.at) < crowd.duration {
                rate += crowd.multiplier * self.capacity_qps;
            }
        }
        rate.max(0.0)
    }

    /// Upper bound on [`Self::rate_at`] over all time (assumes, worst
    /// case, that every flash crowd overlaps the diurnal peak).
    pub fn peak_rate(&self) -> f64 {
        let mut peak = self.offered_load * self.capacity_qps * (1.0 + self.diurnal_amplitude);
        for crowd in &self.flash_crowds {
            peak += crowd.multiplier * self.capacity_qps;
        }
        peak.max(0.0)
    }
}

/// Gap returned when the configured rate is zero everywhere: effectively
/// "never" for any experiment horizon, without overflowing `SimTime`.
const NEVER: SimDuration = SimDuration::from_secs(100 * 365 * 24 * 3_600);

/// The arrival process plus the sticky tenant → class assignment.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    config: TrafficConfig,
    /// Class of each tenant table, population index order.
    classes: Vec<QosClass>,
}

impl TrafficModel {
    /// Assign every tenant a class from the mix and freeze the model.
    /// Draws exactly `tables` values from `rng`.
    pub fn new(config: TrafficConfig, tables: usize, rng: &mut SimRng) -> Self {
        let total: f64 = config.class_mix.iter().copied().sum();
        let mut classes = Vec::with_capacity(tables);
        for _ in 0..tables {
            let mut u = rng.unit() * if total > 0.0 { total } else { 1.0 };
            let mut picked = QosClass::Interactive;
            for (i, class) in QosClass::ALL.iter().enumerate() {
                let w = if total > 0.0 {
                    config.class_mix.get(i).copied().unwrap_or(0.0)
                } else {
                    // Degenerate mix: everything interactive.
                    if i == 0 {
                        1.0
                    } else {
                        0.0
                    }
                };
                picked = *class;
                if u < w {
                    break;
                }
                u -= w;
            }
            classes.push(picked);
        }
        TrafficModel { config, classes }
    }

    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// QoS class of tenant `table_idx` (sticky for the model's life).
    pub fn class_of(&self, table_idx: usize) -> QosClass {
        self.classes
            .get(table_idx)
            .copied()
            .unwrap_or(QosClass::Interactive)
    }

    /// Gap from `now` to the next arrival, by thinning: candidate gaps
    /// are exponential at the peak rate, and a candidate at `t` is
    /// accepted with probability `rate_at(t) / peak`. Deterministic in
    /// the `rng` stream.
    pub fn next_arrival(&self, now: SimTime, rng: &mut SimRng) -> SimDuration {
        let peak = self.config.peak_rate();
        if peak <= 0.0 {
            return NEVER;
        }
        let candidate_gaps = Exponential::from_rate(peak);
        let mut t = now;
        // The acceptance probability is bounded below by
        // `(1 − A) × offered / peak` wherever the sinusoid bottoms out,
        // so this terminates quickly; the iteration cap is a guard
        // against pathological configs (rate ≈ 0 almost everywhere),
        // where it degrades to "roughly one peak-rate gap per cap".
        for _ in 0..100_000 {
            let gap = candidate_gaps.sample(rng).max(1e-9);
            t += SimDuration::from_secs_f64(gap);
            let rate = self.config.rate_at(t);
            if rate >= peak || rng.chance((rate / peak).clamp(0.0, 1.0)) {
                return t.since(now);
            }
        }
        t.since(now)
    }
}

/// End-to-end (queue wait + execution) latency SLA per class,
/// [`QosClass::ALL`] order.
pub const SLA: [SimDuration; CLASS_COUNT] = [
    SimDuration::from_secs(2),
    SimDuration::from_secs(8),
    SimDuration::from_secs(60),
];

/// Per-shard deadline handed to the driver in QoS mode.
pub const SHARD_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// Minimum coverage fraction for a partial answer to count as
/// SLA-meeting.
pub const MIN_COVERAGE: f64 = 0.85;

/// Everything the experiment layer needs to run in QoS mode: the
/// arrival curve, the admission policy and the serving mode; the
/// per-class serving contract is [`SLA`], [`SHARD_TIMEOUT`] and
/// [`MIN_COVERAGE`].
#[derive(Debug, Clone)]
pub struct QosConfig {
    pub traffic: TrafficConfig,
    pub admission: AdmissionConfig,
    /// Degraded-mode serving on (typed partial results) vs off (a
    /// failed shard fails the query).
    pub degraded: bool,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            traffic: TrafficConfig::default(),
            admission: AdmissionConfig::qos(8),
            degraded: true,
        }
    }
}

/// Per-class serving counters (the QoS figure's raw material).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Queries the traffic model offered (everything below partitions
    /// this: offered = shed + queue_timeouts + failed + completed +
    /// still-in-flight-at-horizon).
    pub offered: u64,
    /// Admitted straight into a slot.
    pub admitted: u64,
    /// Parked in the class queue (later admitted or timed out).
    pub queued: u64,
    /// Rejected outright at admission.
    pub shed: u64,
    /// Expired in the queue without ever getting a slot.
    pub queue_timeouts: u64,
    /// Finished successfully (complete or acceptable-partial).
    pub completed: u64,
    /// Of `completed`: answers that were partial.
    pub partials: u64,
    /// Finished unsuccessfully (typed error, or coverage below the
    /// acceptance floor).
    pub failed: u64,
    /// Of `completed`: met the class SLA (wait + latency within bound,
    /// coverage at or above the floor).
    pub sla_met: u64,
}

/// Per-class stats, [`QosClass::ALL`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QosStats {
    pub classes: [ClassCounters; CLASS_COUNT],
}

impl QosStats {
    pub fn class(&self, class: QosClass) -> &ClassCounters {
        &self.classes[class.index()]
    }

    pub fn class_mut(&mut self, class: QosClass) -> &mut ClassCounters {
        &mut self.classes[class.index()]
    }

    /// SLA-met fraction over *offered* load — shed and timed-out
    /// queries count against the class, which is exactly why shedding
    /// Batch to protect Interactive shows up in the figure.
    pub fn sla_met_ratio(&self, class: QosClass) -> f64 {
        let c = self.class(class);
        if c.offered == 0 {
            1.0
        } else {
            c.sla_met as f64 / c.offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> TrafficConfig {
        TrafficConfig {
            capacity_qps: 50.0,
            offered_load: 1.0,
            diurnal_amplitude: 0.5,
            diurnal_period: SimDuration::from_secs(1_000),
            ..Default::default()
        }
    }

    #[test]
    fn diurnal_curve_shape() {
        let c = config();
        // Trough at t = 0, mean at quarter period, peak at half period.
        assert_eq!(c.rate_at(SimTime::ZERO), 25.0);
        assert!((c.rate_at(SimTime::from_secs(250)) - 50.0).abs() < 1e-9);
        assert!((c.rate_at(SimTime::from_secs(500)) - 75.0).abs() < 1e-9);
        assert_eq!(c.peak_rate(), 75.0);
    }

    #[test]
    fn flash_crowd_is_a_rectangular_pulse() {
        let mut c = config();
        c.flash_crowds.push(FlashCrowd {
            at: SimTime::from_secs(100),
            duration: SimDuration::from_secs(50),
            multiplier: 2.0,
        });
        let base = |t: u64| {
            let mut plain = config();
            plain.flash_crowds.clear();
            plain.rate_at(SimTime::from_secs(t))
        };
        assert_eq!(c.rate_at(SimTime::from_secs(99)), base(99));
        assert_eq!(c.rate_at(SimTime::from_secs(100)), base(100) + 100.0);
        assert_eq!(c.rate_at(SimTime::from_secs(149)), base(149) + 100.0);
        assert_eq!(c.rate_at(SimTime::from_secs(150)), base(150));
        assert_eq!(c.peak_rate(), 175.0);
    }

    #[test]
    fn thinning_reproduces_the_mean_rate() {
        // Flat curve (amplitude 0): arrivals over 200 s at 50 qps
        // should count ~10 000.
        let mut c = config();
        c.diurnal_amplitude = 0.0;
        let mut rng = SimRng::new(42);
        let model = TrafficModel::new(c, 10, &mut rng);
        let mut now = SimTime::ZERO;
        let horizon = SimTime::from_secs(200);
        let mut n = 0u64;
        while now < horizon {
            now += model.next_arrival(now, &mut rng);
            n += 1;
        }
        assert!(
            (8_000..12_000).contains(&n),
            "≈10k arrivals expected, got {n}"
        );
    }

    #[test]
    fn arrivals_follow_the_diurnal_swing() {
        let mut rng = SimRng::new(43);
        let model = TrafficModel::new(config(), 10, &mut rng);
        let period = 1_000u64;
        let mut now = SimTime::ZERO;
        let horizon = SimTime::from_secs(period);
        // Count arrivals in the trough-centred vs peak-centred half.
        let (mut trough, mut peak) = (0u64, 0u64);
        while now < horizon {
            now += model.next_arrival(now, &mut rng);
            let s = now.as_nanos() / 1_000_000_000;
            if (250..750).contains(&(s % period)) {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > 1.5 * trough as f64,
            "peak half {peak} vs trough half {trough}"
        );
    }

    #[test]
    fn arrival_stream_replays_bit_identically() {
        let model = {
            let mut rng = SimRng::new(7);
            TrafficModel::new(config(), 100, &mut rng)
        };
        let run = || {
            let mut rng = SimRng::new(9);
            let mut now = SimTime::ZERO;
            let mut times = Vec::new();
            for _ in 0..500 {
                now += model.next_arrival(now, &mut rng);
                times.push(now.as_nanos());
            }
            times
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut rng = SimRng::new(1);
        let mut c = config();
        c.offered_load = 0.0;
        let model = TrafficModel::new(c, 1, &mut rng);
        assert_eq!(model.next_arrival(SimTime::ZERO, &mut rng), NEVER);
    }

    #[test]
    fn class_mix_is_sticky_and_roughly_proportional() {
        let mut rng = SimRng::new(11);
        let model = TrafficModel::new(
            TrafficConfig {
                class_mix: [0.2, 0.3, 0.5],
                ..config()
            },
            10_000,
            &mut rng,
        );
        let mut census = [0usize; CLASS_COUNT];
        for i in 0..10_000 {
            census[model.class_of(i).index()] += 1;
        }
        assert!((1_500..2_500).contains(&census[0]), "{census:?}");
        assert!((2_500..3_500).contains(&census[1]), "{census:?}");
        assert!((4_500..5_500).contains(&census[2]), "{census:?}");
        // Sticky: asking twice gives the same class.
        for i in 0..100 {
            assert_eq!(model.class_of(i), model.class_of(i));
        }
        // Out-of-range tenants default interactive rather than panic.
        assert_eq!(model.class_of(1 << 40), QosClass::Interactive);
    }

    #[test]
    fn qos_stats_ratio_counts_shed_against_the_class() {
        let mut stats = QosStats::default();
        let c = stats.class_mut(QosClass::Batch);
        c.offered = 10;
        c.sla_met = 4;
        c.shed = 6;
        assert_eq!(stats.sla_met_ratio(QosClass::Batch), 0.4);
        assert_eq!(stats.sla_met_ratio(QosClass::Interactive), 1.0);
    }
}
