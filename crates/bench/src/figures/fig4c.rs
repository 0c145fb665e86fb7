//! **Figure 4c** — service-discovery propagation delay: how long the
//! multi-level SMC distribution tree takes to make a new shard→host
//! mapping visible to clients, in seconds.
//!
//! Sampled from the same propagation-delay model every discovery client
//! in the simulation resolves through, over many (subscriber, update)
//! pairs.

use scalewall_cluster::report::{banner, bar, TextTable};
use scalewall_discovery::{DelayModel, DELAY_SEED};
use scalewall_sim::Histogram;

use crate::Profile;

pub fn compute(profile: Profile) -> Histogram {
    let samples = profile.pick(20_000u64, 500_000u64);
    let model = DelayModel::new(DELAY_SEED);
    // Delay distribution across subscribers × updates (seconds).
    let mut hist = Histogram::new(0.05, 600.0, 1.15);
    let subscribers = 1_000;
    for i in 0..samples {
        let delay = model.delay(i % subscribers, i / subscribers);
        hist.record(delay.as_secs_f64());
    }
    hist
}

pub fn run(profile: Profile) -> String {
    let hist = compute(profile);
    let summary = hist.summary();
    let mut table = TextTable::new(vec!["delay_band_secs", "fraction", "histogram"]);
    let bands = [
        (0.0, 2.0),
        (2.0, 5.0),
        (5.0, 8.0),
        (8.0, 12.0),
        (12.0, 20.0),
        (20.0, 40.0),
        (40.0, f64::INFINITY),
    ];
    // Re-bin by quantile walking: cheap approximation via sampling quantiles.
    let total = hist.count() as f64;
    let mut fractions = Vec::new();
    for &(lo, hi) in &bands {
        // Fraction in band via inverse lookup over a fine quantile sweep.
        let mut in_band = 0u64;
        let steps = 2_000;
        for s in 0..steps {
            let q = (s as f64 + 0.5) / steps as f64;
            let v = hist.quantile(q);
            if v >= lo && v < hi {
                in_band += 1;
            }
        }
        fractions.push(in_band as f64 / steps as f64);
    }
    let max_frac = fractions.iter().copied().fold(0.0, f64::max);
    for (&(lo, hi), &frac) in bands.iter().zip(&fractions) {
        let label = if hi.is_infinite() {
            format!("≥{lo:.0}")
        } else {
            format!("{lo:.0}–{hi:.0}")
        };
        table.row(vec![
            label,
            format!("{:.1}%", frac * 100.0),
            bar(frac, max_frac, 40),
        ]);
    }
    let mut out = banner("Figure 4c", "SMC propagation delay to clients (seconds)");
    out.push_str(&format!(
        "{} samples: p50={:.1}s p90={:.1}s p99={:.1}s max={:.1}s\n",
        total, summary.p50, summary.p90, summary.p99, summary.max
    ));
    out.push_str(&table.render());
    out.push_str(
        "\npaper: SMC's multi-level distribution tree adds \"a small delay\" —\n\
         seconds-scale — before clients learn about shard reassignments; this\n\
         delay is why graceful migration must wait before dropping the old\n\
         replica (§IV-E).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_seconds_scale() {
        let hist = compute(Profile::Fast);
        let s = hist.summary();
        assert!(s.p50 > 2.0 && s.p50 < 15.0, "p50 {}", s.p50);
        assert!(s.p99 < 60.0, "p99 {}", s.p99);
        assert!(s.min >= 0.0);
    }
}
