//! Network and per-request failure model.
//!
//! The environment the paper's figures emerge from: each server answers a
//! sub-query after a log-normal body + rare Pareto tail service time, and
//! at any instant has a small probability of failing a request outright
//! (the "0.01 % chance of failure at any given time" of Figs 1 and 2).
//! A fan-out query's latency is the **max** over the servers it visits,
//! plus fixed coordinator costs — which is precisely why tail latency
//! amplifies with fan-out (Fig 5).

use scalewall_sim::{Bernoulli, SimDuration, SimRng, TailLatency};

/// Log-space sigma of the service-time body.
const SIGMA: f64 = 0.25;

/// Probability a request hits a heavy-tail event.
const TAIL_PROBABILITY: f64 = 1e-3;

/// Pareto scale (ms) of tail events.
const TAIL_MIN_MS: f64 = 200.0;

/// Pareto shape of tail events.
const TAIL_ALPHA: f64 = 1.5;

/// Upper bound on a single tail event (GC pauses, retransmit storms and
/// the like are long but bounded; the Pareto alone is not).
const TAIL_CAP_MS: f64 = 10_000.0;

/// One network round trip (coordinator → worker).
pub const RTT_MS: f64 = 0.5;

/// Coordinator-side merge cost per visited partition.
const MERGE_PER_PARTITION_MS: f64 = 0.05;

/// Extra cost when a request is forwarded by an old shard owner during
/// graceful migration.
const FORWARD_HOP_MS: f64 = 1.0;

/// Tunables for the network model.
#[derive(Debug, Clone, Copy)]
pub struct NetModelConfig {
    /// Median per-host service time for the experiment's standard query.
    pub median_service_ms: f64,
    /// Instantaneous probability a server fails a request.
    pub server_failure_probability: f64,
}

impl Default for NetModelConfig {
    fn default() -> Self {
        NetModelConfig {
            median_service_ms: 20.0,
            server_failure_probability: 1e-4, // the paper's 0.01 %
        }
    }
}

/// Sampled behaviour of one server answering one sub-query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerResponse {
    /// Answered after this much time.
    Ok(SimDuration),
    /// Failed the request (crash, corruption, timeout...).
    Failed,
}

/// The instantiated model.
///
/// Not `Copy`: the model carries mutable inter-region partition state
/// (see [`NetModel::cut`]); callers that need an independent model clone
/// it explicitly.
#[derive(Debug, Clone)]
pub struct NetModel {
    latency: TailLatency,
    failure: Bernoulli,
    /// Currently partitioned region pairs, stored normalized (lo, hi).
    /// A pair in this set is mutually unreachable: a coordinator in one
    /// region cannot fan a query out to the other.
    cuts: std::collections::BTreeSet<(u32, u32)>,
}

impl NetModel {
    pub fn new(config: NetModelConfig) -> Self {
        NetModel {
            latency: TailLatency::new(
                config.median_service_ms,
                SIGMA,
                TAIL_PROBABILITY,
                TAIL_MIN_MS,
                TAIL_ALPHA,
            ),
            failure: Bernoulli::new(config.server_failure_probability),
            cuts: std::collections::BTreeSet::new(),
        }
    }

    fn pair(a: u32, b: u32) -> (u32, u32) {
        (a.min(b), a.max(b))
    }

    /// Sever the inter-region link between `a` and `b` (both directions).
    pub fn cut(&mut self, a: u32, b: u32) {
        if a != b {
            self.cuts.insert(Self::pair(a, b));
        }
    }

    /// Restore the inter-region link between `a` and `b`.
    pub fn heal(&mut self, a: u32, b: u32) {
        self.cuts.remove(&Self::pair(a, b));
    }

    /// Can a coordinator in region `from` reach region `to`? Intra-region
    /// traffic is never partitioned by this model.
    pub fn reachable(&self, from: u32, to: u32) -> bool {
        from == to || !self.cuts.contains(&Self::pair(from, to))
    }

    /// Any inter-region links currently severed?
    pub fn partitioned(&self) -> bool {
        !self.cuts.is_empty()
    }

    /// Cost of discovering a region is unreachable: the client burns one
    /// connection-establishment round trip before giving up on the region.
    pub fn unreachable_probe(&self) -> SimDuration {
        self.rtt()
    }

    /// One server's response to one sub-query.
    pub fn server_response(&self, rng: &mut SimRng) -> ServerResponse {
        if self.failure.sample(rng) {
            ServerResponse::Failed
        } else {
            let ms = self.latency.sample_ms(rng).min(TAIL_CAP_MS);
            ServerResponse::Ok(scalewall_sim::SimDuration::from_millis_f64(ms))
        }
    }

    /// One network round trip.
    pub fn rtt(&self) -> SimDuration {
        SimDuration::from_millis_f64(RTT_MS)
    }

    /// Coordinator merge cost for a fan-out of `partitions`.
    pub fn merge_cost(&self, partitions: usize) -> SimDuration {
        SimDuration::from_millis_f64(MERGE_PER_PARTITION_MS * partitions as f64)
    }

    /// Forwarding overhead during graceful migration.
    pub fn forward_hop(&self) -> SimDuration {
        SimDuration::from_millis_f64(FORWARD_HOP_MS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(failure_p: f64) -> NetModel {
        NetModel::new(NetModelConfig {
            server_failure_probability: failure_p,
            ..Default::default()
        })
    }

    #[test]
    fn failure_rate_matches_config() {
        let m = model(0.01);
        let mut rng = SimRng::new(1);
        let failures = (0..100_000)
            .filter(|_| matches!(m.server_response(&mut rng), ServerResponse::Failed))
            .count();
        let rate = failures as f64 / 100_000.0;
        assert!((rate - 0.01).abs() < 0.002, "{rate}");
    }

    #[test]
    fn latencies_center_on_median() {
        let m = model(0.0);
        let mut rng = SimRng::new(2);
        let mut samples: Vec<f64> = (0..20_001)
            .map(|_| match m.server_response(&mut rng) {
                ServerResponse::Ok(d) => d.as_millis_f64(),
                ServerResponse::Failed => unreachable!(),
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[10_000];
        assert!((median - 20.0).abs() < 2.0, "{median}");
    }

    #[test]
    fn fanout_amplifies_tail_latency() {
        // The core Fig 5 mechanism: p99 of max-over-k grows with k.
        let m = model(0.0);
        let mut rng = SimRng::new(3);
        let p99_of_fanout = |k: usize, rng: &mut SimRng| {
            let mut maxes: Vec<f64> = (0..5_000)
                .map(|_| {
                    (0..k)
                        .map(|_| match m.server_response(rng) {
                            ServerResponse::Ok(d) => d.as_millis_f64(),
                            ServerResponse::Failed => unreachable!(),
                        })
                        .fold(0.0, f64::max)
                })
                .collect();
            maxes.sort_by(f64::total_cmp);
            maxes[4_950]
        };
        let p99_1 = p99_of_fanout(1, &mut rng);
        let p99_32 = p99_of_fanout(32, &mut rng);
        assert!(
            p99_32 > p99_1 * 1.5,
            "fan-out 1: {p99_1}, fan-out 32: {p99_32}"
        );
    }

    #[test]
    fn a_tail_event_is_capped_at_ten_seconds() {
        // Every response a tail event: dozens of 20k samples pass the cap.
        let m = NetModel {
            latency: TailLatency::new(5.0, SIGMA, 1.0, TAIL_MIN_MS, TAIL_ALPHA),
            ..model(0.0)
        };
        let mut rng = SimRng::new(5);
        let ms: Vec<f64> = (0..20_000)
            .map(|_| match m.server_response(&mut rng) {
                ServerResponse::Ok(d) => d.as_millis_f64(),
                ServerResponse::Failed => unreachable!(),
            })
            .collect();
        assert!(
            ms.iter().all(|&t| t <= TAIL_CAP_MS),
            "a response past the cap"
        );
        assert!(ms.contains(&TAIL_CAP_MS), "no tail event reached the cap");
    }

    #[test]
    fn partitions_cut_and_heal_symmetrically() {
        let mut m = model(0.0);
        assert!(m.reachable(0, 2));
        assert!(!m.partitioned());
        m.cut(2, 0);
        assert!(!m.reachable(0, 2));
        assert!(!m.reachable(2, 0), "cuts are bidirectional");
        assert!(m.reachable(0, 1), "other links unaffected");
        assert!(m.reachable(2, 2), "intra-region traffic never partitioned");
        assert!(m.partitioned());
        m.cut(0, 0); // self-cut is a no-op
        assert!(m.reachable(0, 0));
        m.heal(0, 2);
        assert!(m.reachable(0, 2));
        assert!(!m.partitioned());
        assert_eq!(m.unreachable_probe(), m.rtt());
    }

    #[test]
    fn fixed_costs() {
        let m = model(0.0);
        assert_eq!(m.rtt(), SimDuration::from_nanos(500_000));
        assert_eq!(m.merge_cost(8).as_millis_f64(), 0.4);
        assert!(m.forward_hop() > SimDuration::ZERO);
    }
}
