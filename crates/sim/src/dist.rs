//! Parametric distributions used by the paper's models.
//!
//! `rand` (the only sanctioned randomness crate) ships uniform sampling
//! only, so the families the paper's environment needs are implemented
//! here from first principles:
//!
//! * [`Exponential`] — inter-arrival times of the Poisson processes
//!   (queries, permanent host failures for Fig 4f, planned drains).
//! * [`Normal`] / [`LogNormal`] — body of service-time distributions.
//! * [`Pareto`] — heavy tail component of *The Tail at Scale* latencies.
//! * [`TailLatency`] — the mixture model used for per-host query service
//!   time: log-normal body with a small probability of a Pareto tail event
//!   (GC pause, network hiccup, noisy neighbour...).
//! * [`Zipf`] — skewed access popularity (hot/cold data blocks, Fig 4e).
//! * [`Bernoulli`] — instantaneous failure probability (Figs 1 and 2).

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Construct from rate. Panics unless `lambda > 0` and finite.
    pub fn from_rate(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "invalid rate {lambda}");
        Exponential { lambda }
    }

    /// Construct from mean (`1/lambda`).
    pub fn from_mean(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "invalid mean {mean}");
        Exponential { lambda: 1.0 / mean }
    }

    /// Inverse-CDF sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        // 1 - U in (0, 1] avoids ln(0).
        let u = 1.0 - rng.unit();
        -u.ln() / self.lambda
    }
}

/// Normal distribution sampled via Box–Muller.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Panics unless `sigma >= 0` and both parameters are finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "invalid normal({mu},{sigma})"
        );
        Normal { mu, sigma }
    }

    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        // Box–Muller; one variate per call is plenty for our volumes.
        let u1 = (1.0 - rng.unit()).max(f64::MIN_POSITIVE);
        let u2 = rng.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mu + self.sigma * z
    }
}

/// Log-normal distribution: `exp(Normal(mu, sigma))`.
///
/// Parameterized either directly or by the *median* (`exp(mu)`), which is
/// the more intuitive handle when modelling latency bodies.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            normal: Normal::new(mu, sigma),
        }
    }

    /// Construct from the distribution median and log-space sigma.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(
            median > 0.0 && median.is_finite(),
            "invalid median {median}"
        );
        LogNormal::new(median.ln(), sigma)
    }

    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.normal.sample(rng).exp()
    }
}

/// Pareto (type I) distribution with scale `x_min` and shape `alpha`.
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(
            x_min > 0.0 && alpha > 0.0,
            "invalid pareto({x_min},{alpha})"
        );
        Pareto { x_min, alpha }
    }

    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = (1.0 - rng.unit()).max(f64::MIN_POSITIVE);
        self.x_min / u.powf(1.0 / self.alpha)
    }
}

/// Bernoulli trial with fixed success probability.
#[derive(Debug, Clone, Copy)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// `p` is clamped to `[0, 1]`.
    pub fn new(p: f64) -> Self {
        Bernoulli {
            p: p.clamp(0.0, 1.0),
        }
    }

    pub fn p(&self) -> f64 {
        self.p
    }

    pub fn sample(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.p)
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Uses a precomputed CDF + binary search: exact sampling, O(log n) per
/// draw, O(n) memory — fine for the brick/table populations we model.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Panics if `n == 0` or `s` is not finite/non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over empty domain");
        assert!(s.is_finite() && s >= 0.0, "invalid zipf exponent {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Sample a rank in `0..n` (rank 0 is the most popular).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        // partition_point returns the first index with cdf > u.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Per-host service-time model: log-normal body + rare Pareto tail events.
///
/// This is the environment behind Fig 5: a host usually answers near the
/// median, but with probability `tail_p` experiences a heavy-tailed
/// slowdown. A query's latency is the *max* over the hosts it fans out to,
/// which is exactly why higher fan-out amplifies tails (Dean & Barroso).
#[derive(Debug, Clone, Copy)]
pub struct TailLatency {
    body: LogNormal,
    tail: Pareto,
    tail_p: f64,
}

impl TailLatency {
    /// * `median_ms` — median of the latency body, in milliseconds.
    /// * `sigma` — log-space spread of the body.
    /// * `tail_p` — probability a request hits a tail event.
    /// * `tail_min_ms`, `tail_alpha` — Pareto tail parameters.
    pub fn new(median_ms: f64, sigma: f64, tail_p: f64, tail_min_ms: f64, tail_alpha: f64) -> Self {
        TailLatency {
            body: LogNormal::from_median(median_ms, sigma),
            tail: Pareto::new(tail_min_ms, tail_alpha),
            tail_p: tail_p.clamp(0.0, 1.0),
        }
    }

    /// Sample one host's service time in milliseconds.
    pub fn sample_ms(&self, rng: &mut SimRng) -> f64 {
        let base = self.body.sample(rng);
        if rng.chance(self.tail_p) {
            base + self.tail.sample(rng)
        } else {
            base
        }
    }

    /// Sample one host's service time as a duration.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_millis_f64(self.sample_ms(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(mut f: impl FnMut(&mut SimRng) -> f64, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| f(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean() {
        for d in [Exponential::from_mean(4.0), Exponential::from_rate(0.25)] {
            let m = mean_of(|r| d.sample(r), 200_000, 1);
            assert!((m - 4.0).abs() < 0.05, "mean {m}");
        }
    }

    #[test]
    fn exponential_non_negative() {
        let d = Exponential::from_rate(2.0);
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 3.0);
        let mut rng = SimRng::new(3);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn lognormal_median() {
        let d = LogNormal::from_median(50.0, 0.5);
        let mut rng = SimRng::new(4);
        let mut samples: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[50_000];
        assert!((median - 50.0).abs() / 50.0 < 0.03, "median {median}");
        assert!(samples[0] > 0.0);
    }

    #[test]
    fn pareto_bounds_and_tail() {
        let d = Pareto::new(100.0, 2.0);
        let mut rng = SimRng::new(5);
        let mut above_200 = 0usize;
        for _ in 0..100_000 {
            let x = d.sample(&mut rng);
            assert!(x >= 100.0);
            if x > 200.0 {
                above_200 += 1;
            }
        }
        // P(X > 200) = (100/200)^2 = 0.25.
        let frac = above_200 as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "tail frac {frac}");
    }

    #[test]
    fn bernoulli_clamps_and_hits_rate() {
        assert_eq!(Bernoulli::new(2.0).p(), 1.0);
        assert_eq!(Bernoulli::new(-1.0).p(), 0.0);
        let d = Bernoulli::new(0.1);
        let mut rng = SimRng::new(6);
        let hits = (0..100_000).filter(|_| d.sample(&mut rng)).count();
        assert!((hits as f64 / 100_000.0 - 0.1).abs() < 0.01);
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let d = Zipf::new(100, 1.0);
        let mut rng = SimRng::new(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Rank 0 of Zipf(1.0, n=100) has probability 1/H_100 ≈ 0.193.
        let p0 = counts[0] as f64 / 100_000.0;
        assert!((p0 - 0.193).abs() < 0.01, "p0 {p0}");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let d = Zipf::new(10, 0.0);
        let mut rng = SimRng::new(8);
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 100_000.0 - 0.1).abs() < 0.01);
        }
    }

    #[test]
    fn tail_latency_tail_amplifies_high_percentiles() {
        let model = TailLatency::new(20.0, 0.25, 0.01, 500.0, 1.5);
        let mut rng = SimRng::new(10);
        let mut samples: Vec<f64> = (0..100_000).map(|_| model.sample_ms(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        let p50 = samples[50_000];
        let p999 = samples[99_900];
        assert!((p50 - 20.0).abs() < 2.0, "p50 {p50}");
        assert!(p999 > 400.0, "p99.9 {p999} should reflect the Pareto tail");
    }
}
