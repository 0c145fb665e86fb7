//! Online statistics for experiment reporting.
//!
//! * [`Histogram`] — log-bucketed value histogram with percentile queries
//!   (HdrHistogram-style, fixed relative error), used for latency series.
//! * [`DailyCounter`] — per-simulated-day event counts (Figs 4d, 4f).
//! * [`Summary`] — the percentile bundle printed in experiment tables.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Log-bucketed histogram over positive `f64` values.
///
/// Buckets grow geometrically by a fixed ratio, giving a constant relative
/// quantile error (~ half the growth factor). Values below `min` clamp into
/// the first bucket; values above `max` clamp into the last. This is the
/// standard shape for latency recording where dynamic range spans 1 ms to
/// minutes.
#[derive(Debug, Clone)]
pub struct Histogram {
    min: f64,
    growth: f64,
    log_growth: f64,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    observed_min: f64,
    observed_max: f64,
}

impl Histogram {
    /// Histogram covering `[min, max]` with the given per-bucket growth
    /// factor (e.g. `1.05` ⇒ ~2.5 % relative error).
    pub fn new(min: f64, max: f64, growth: f64) -> Self {
        assert!(min > 0.0 && max > min, "invalid range [{min},{max}]");
        assert!(growth > 1.0, "growth must exceed 1.0");
        let log_growth = growth.ln();
        let n = ((max / min).ln() / log_growth).ceil() as usize + 1;
        Histogram {
            min,
            growth,
            log_growth,
            buckets: vec![0; n],
            count: 0,
            sum: 0.0,
            observed_min: f64::INFINITY,
            observed_max: f64::NEG_INFINITY,
        }
    }

    /// Latency histogram in milliseconds: 0.01 ms .. 10 min, 2.5 % error.
    pub fn latency_ms() -> Self {
        Histogram::new(0.01, 600_000.0, 1.05)
    }

    fn bucket_index(&self, v: f64) -> usize {
        if v <= self.min {
            return 0;
        }
        let idx = ((v / self.min).ln() / self.log_growth) as usize;
        idx.min(self.buckets.len() - 1)
    }

    /// Record one observation. Non-finite or negative values are ignored
    /// (they would otherwise poison quantiles silently).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        let idx = self.bucket_index(v);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.observed_min = self.observed_min.min(v);
        self.observed_max = self.observed_max.max(v);
    }

    /// Record a duration in milliseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.observed_min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.observed_max
        }
    }

    /// Value at quantile `q` in `[0, 1]` (bucket upper edge; relative error
    /// bounded by the growth factor). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                // Upper edge of bucket i, clamped to what was observed.
                let edge = self.min * self.growth.powi(i as i32 + 1);
                return edge.min(self.observed_max).max(self.observed_min);
            }
        }
        self.observed_max
    }

    /// Standard percentile bundle for reports.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }

    /// Merge another histogram with identical bucketing into this one.
    ///
    /// Panics if the bucket layouts differ — merging histograms with
    /// different ranges silently corrupts quantiles.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram layouts differ"
        );
        assert!(
            (self.min - other.min).abs() < f64::EPSILON,
            "histogram layouts differ"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.observed_min = self.observed_min.min(other.observed_min);
        self.observed_max = self.observed_max.max(other.observed_max);
    }
}

/// Percentile bundle produced by [`Histogram::summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: u64,
    pub mean: f64,
    pub min: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} p50={:.2} p90={:.2} p99={:.2} p99.9={:.2} max={:.2}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.p999, self.max
        )
    }
}

/// Event counter bucketed by simulated day (for "per day" operational
/// figures such as shard migrations and host repairs).
#[derive(Debug, Clone, Default)]
pub struct DailyCounter {
    days: Vec<u64>,
}

impl DailyCounter {
    pub fn new() -> Self {
        DailyCounter::default()
    }

    /// Record `n` events at simulated time `t`.
    pub fn add(&mut self, t: SimTime, n: u64) {
        let day = t.day() as usize;
        if day >= self.days.len() {
            self.days.resize(day + 1, 0);
        }
        self.days[day] += n;
    }

    /// Record one event at simulated time `t`.
    pub fn incr(&mut self, t: SimTime) {
        self.add(t, 1);
    }

    /// Counts per day, index = day number.
    pub fn per_day(&self) -> &[u64] {
        &self.days
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_uniform() {
        let mut h = Histogram::new(1.0, 10_000.0, 1.01);
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 10_000);
        for (q, expect) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let v = h.quantile(q);
            let rel = (v - expect).abs() / expect;
            assert!(rel < 0.02, "q{q}: got {v}, want ~{expect}");
        }
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 10_000.0);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(1.0, 100.0, 1.5);
        h.record(0.001); // below min → first bucket
        h.record(1e9); // above max → last bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.0) >= 0.001);
    }

    #[test]
    fn histogram_ignores_garbage() {
        let mut h = Histogram::latency_ms();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-5.0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_empty_summary() {
        let h = Histogram::latency_ms();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(1.0, 1000.0, 1.05);
        let mut b = Histogram::new(1.0, 1000.0, 1.05);
        for i in 1..=100 {
            a.record(i as f64);
        }
        for i in 101..=200 {
            b.record(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        let p50 = a.quantile(0.5);
        assert!((p50 - 100.0).abs() / 100.0 < 0.06, "p50 {p50}");
    }

    #[test]
    #[should_panic(expected = "layouts differ")]
    fn histogram_merge_rejects_mismatched_layout() {
        let mut a = Histogram::new(1.0, 1000.0, 1.05);
        let b = Histogram::new(1.0, 2000.0, 1.05);
        a.merge(&b);
    }

    #[test]
    fn daily_counter_buckets_by_day() {
        let mut c = DailyCounter::new();
        c.incr(SimTime::from_secs(10)); // day 0
        c.incr(SimTime::from_secs(86_400 + 5)); // day 1
        c.add(SimTime::from_secs(3 * 86_400), 4); // day 3
        assert_eq!(c.per_day(), &[1, 1, 0, 4]);
    }
}
