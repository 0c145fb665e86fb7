//! Small numeric helpers: medians and quartiles of repetition samples,
//! quantiles read out of the repo's histogram, and the process's peak
//! resident set.

use scalewall_sim::Histogram;

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them. 0 with fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let mid = median(&v);
    if mid == 0.0 {
        0.0
    } else {
        (cut(3) - cut(1)) / mid
    }
}

/// Quantile `q` of `hist`, interpolated. `Histogram::quantile` answers
/// with the upper edge of a 5 %-wide bucket, so two runs whose latencies
/// differ by less than a bucket read exactly alike. The histogram's
/// public answers pin its cumulative distribution at every occupied
/// bucket edge; this walks to the two edges around rank `⌈q·n⌉` and
/// interpolates linearly between them, so the reading moves with the
/// data.
pub fn quantile(hist: &Histogram, q: f64) -> f64 {
    let n = hist.count();
    if n == 0 {
        return 0.0;
    }
    // `quantile(x)` targets rank ⌈x·n⌉; aim half a rank low so float
    // rounding cannot tip it to the next rank.
    let at_rank = |rank: u64| hist.quantile((rank as f64 - 0.5) / n as f64);
    let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    let edge = at_rank(target);
    // First and last rank answered by the same bucket edge.
    let (mut lo, mut hi) = (1u64, target);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at_rank(mid) < edge {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (target, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at_rank(mid) > edge {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let below = if first == 1 {
        hist.min()
    } else {
        at_rank(first - 1)
    };
    let share = (target - (first - 1)) as f64 / (last - (first - 1)) as f64;
    below + (edge - below) * share
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((iqr_share(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_bucket() {
        let mut h = Histogram::latency_ms();
        for i in 0..10_000 {
            h.record(20.0 + f64::from(i) * 0.001);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = 20.0 + q * 10.0;
            let read = quantile(&h, q);
            assert!(
                (read - exact).abs() / exact < 0.05,
                "{q}: {read} vs {exact}"
            );
            assert!(read <= h.quantile(q));
        }
        // Moves with the data where the bucketed reading cannot.
        let mut shifted = Histogram::latency_ms();
        for i in 0..10_000 {
            shifted.record(20.05 + f64::from(i) * 0.001);
        }
        assert_eq!(h.quantile(0.5), shifted.quantile(0.5));
        assert!(quantile(&shifted, 0.5) > quantile(&h, 0.5));
    }
}
