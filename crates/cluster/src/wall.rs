//! The scalability-wall model (Figs 1 and 2).
//!
//! If every server independently fails a request with instantaneous
//! probability `p`, a query that must visit `n` servers succeeds with
//! probability `(1 − p)^n`. The **wall point** for a success SLA `s` is
//! the largest `n` with `(1 − p)^n ≥ s` — about 100 servers for
//! p = 0.01 % and a 99 % SLA, the paper's headline example.

use scalewall_sim::SimRng;

/// Probability a query visiting `n` servers succeeds when each fails
/// with probability `p`.
pub fn success_ratio(n: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "invalid probability {p}");
    (1.0 - p).powf(n as f64)
}

/// The wall point: the largest fan-out `n` meeting the SLA, or 0 when
/// even a single server misses it.
pub fn wall_point(p: f64, sla: f64) -> u64 {
    assert!(
        (0.0..1.0).contains(&p) && p > 0.0,
        "invalid probability {p}"
    );
    assert!((0.0..1.0).contains(&sla) && sla > 0.0, "invalid SLA {sla}");
    // (1-p)^n >= sla  ⇔  n <= ln(sla) / ln(1-p)
    (sla.ln() / (1.0 - p).ln()).floor() as u64
}

/// Monte-Carlo estimate of the success ratio — the cross-check used by
/// the Fig 1/2 binaries to validate the analytic curve against the same
/// Bernoulli process the full simulation uses.
pub fn simulate_success_ratio(n: u64, p: f64, queries: u64, rng: &mut SimRng) -> f64 {
    let mut successes = 0u64;
    for _ in 0..queries {
        let mut ok = true;
        for _ in 0..n {
            if rng.chance(p) {
                ok = false;
                break;
            }
        }
        if ok {
            successes += 1;
        }
    }
    successes as f64 / queries as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_basics() {
        assert_eq!(success_ratio(0, 0.01), 1.0);
        assert!((success_ratio(1, 0.01) - 0.99).abs() < 1e-12);
        assert!((success_ratio(2, 0.5) - 0.25).abs() < 1e-12);
        // Monotone decreasing in n.
        assert!(success_ratio(10, 1e-4) > success_ratio(100, 1e-4));
    }

    #[test]
    fn paper_headline_wall_point() {
        // "a system with 99% query success SLA will hit the scalability
        // wall at about 100 servers" for p = 0.01 %.
        let wall = wall_point(1e-4, 0.99);
        assert!((95..=105).contains(&wall), "wall at {wall}");
        // Just below the wall the SLA holds; just above it breaks.
        assert!(success_ratio(wall, 1e-4) >= 0.99);
        assert!(success_ratio(wall + 1, 1e-4) < 0.99);
    }

    #[test]
    fn wall_scales_inversely_with_failure_probability() {
        let w1 = wall_point(1e-3, 0.99);
        let w2 = wall_point(1e-4, 0.99);
        let w3 = wall_point(1e-5, 0.99);
        assert!(w1 < w2 && w2 < w3);
        // Roughly 10× per decade of reliability.
        assert!((w2 as f64 / w1 as f64 - 10.0).abs() < 1.0);
        assert!((w3 as f64 / w2 as f64 - 10.0).abs() < 1.0);
    }

    #[test]
    fn monte_carlo_matches_analytic() {
        let mut rng = SimRng::new(42);
        for (n, p) in [(10u64, 1e-3), (100, 1e-4), (50, 1e-2)] {
            let analytic = success_ratio(n, p);
            let simulated = simulate_success_ratio(n, p, 50_000, &mut rng);
            assert!(
                (analytic - simulated).abs() < 0.01,
                "n={n} p={p}: analytic {analytic}, simulated {simulated}"
            );
        }
    }
}
