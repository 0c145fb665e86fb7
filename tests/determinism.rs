//! Reproducibility contract (EXPERIMENTS.md: one run = one seed): the
//! same seed must replay a bit-identical operational experiment, and
//! forked RNG streams must be immune to sibling-stream activity.

use scalewall::cluster::deployment::DeploymentConfig;
use scalewall_bench::figures::fig5;
use scalewall::cluster::experiment::{Experiment, ExperimentConfig, ExperimentStats};
use scalewall::cluster::fault::{FaultKind, FaultScript};
use scalewall::cluster::workload::WorkloadConfig;
use scalewall::sim::{prop, RngRoot, SimDuration, SimRng, SimTime, Stream};

/// A small-but-real operational run: multi-region deployment, skewed
/// query traffic, failures, drains and load balancing, over half a
/// simulated day.
fn run_experiment(seed: u64) -> ExperimentStats {
    run_with_faults(seed, FaultScript::new())
}

fn run_with_faults(seed: u64, faults: FaultScript) -> ExperimentStats {
    let config = ExperimentConfig {
        deployment: DeploymentConfig {
            regions: 2,
            hosts_per_region: 6,
            max_shards: 100_000,
            ..Default::default()
        },
        workload: WorkloadConfig {
            tables: 6,
            ..Default::default()
        },
        duration: SimDuration::from_hours(12),
        query_rate: 0.02,
        rows_per_table: 200,
        host_mtbf: SimDuration::from_days(10),
        drains_per_day: 6.0,
        faults,
        seed,
        ..Default::default()
    };
    Experiment::new(config).run()
}

/// The mid-run fault script used by the fault-replay tests: one host
/// crash and one inter-region partition, both inside the 12h window.
fn test_script() -> FaultScript {
    FaultScript::new()
        .with(
            FaultKind::HostCrash { region: 0 },
            SimTime::from_secs(2 * 3_600),
            SimDuration::from_hours(1),
        )
        .with(
            FaultKind::RegionPartition { a: 0, b: 1 },
            SimTime::from_secs(5 * 3_600),
            SimDuration::from_mins(45),
        )
}

/// Every observable stat, reduced to exactly comparable form (floats by
/// bit pattern, histograms by count/extremes/quantile bits).
fn fingerprint(stats: &ExperimentStats) -> Vec<u64> {
    let mut f = vec![
        stats.queries_ok,
        stats.queries_failed,
        stats.latency.count(),
        stats.latency.mean().to_bits(),
        stats.latency.quantile(0.5).to_bits(),
        stats.latency.quantile(0.99).to_bits(),
        stats.drains_requested,
        stats.drains_denied,
        stats.fault_injections,
        stats.fault_repairs,
        stats.failover_migrations,
        stats.region_failovers,
        stats.same_table_collisions,
        stats.population_fingerprint,
    ];
    if stats.latency.count() > 0 {
        f.push(stats.latency.min().to_bits());
        f.push(stats.latency.max().to_bits());
    }
    f.extend(stats.migrations_per_day.iter().copied());
    f.extend(stats.repairs_per_day.iter().copied());
    f.extend(stats.final_hotness.iter().map(|&h| h as u64));
    f
}

/// Same seed → bit-identical experiment stats, for several distinct
/// seeds; different seeds → different histories.
#[test]
fn same_seed_replays_bit_identical_experiments() {
    let mut fingerprints = Vec::new();
    for seed in [0xE49, 7, 424_242] {
        let a = fingerprint(&run_experiment(seed));
        let b = fingerprint(&run_experiment(seed));
        assert_eq!(a, b, "seed {seed:#x} did not replay bit-identically");
        fingerprints.push(a);
    }
    assert_ne!(
        fingerprints[0], fingerprints[1],
        "distinct seeds should produce distinct histories"
    );
    assert_ne!(fingerprints[1], fingerprints[2]);
}

/// The replay-stability pitfall called out in `crates/sim/src/rng.rs`:
/// a stream obtained from `fork(label)` must not change when a sibling
/// stream adds draws. This is what lets a component gain new stochastic
/// behaviour without perturbing every other component's replay.
#[test]
fn forked_streams_unaffected_by_sibling_draws() {
    // World A: component 1 draws a little.
    let mut root_a = SimRng::new(99);
    let mut comp1_a = root_a.fork(1);
    let _ = comp1_a.next_u64();
    let mut comp2_a = root_a.fork(2);
    let seq_a: Vec<u64> = (0..64).map(|_| comp2_a.next_u64()).collect();

    // World B: component 1 draws a lot more (a code change added draws).
    let mut root_b = SimRng::new(99);
    let mut comp1_b = root_b.fork(1);
    for _ in 0..10_000 {
        let _ = comp1_b.next_u64();
    }
    let mut comp2_b = root_b.fork(2);
    let seq_b: Vec<u64> = (0..64).map(|_| comp2_b.next_u64()).collect();

    assert_eq!(
        seq_a, seq_b,
        "component 2's stream must not depend on component 1's draw count"
    );
}

/// The typed streams of `sim::rng` are the label forks they replaced:
/// for 64 generated seeds and indices, every `Stream` child, the fault
/// stream and every indexed child (of a root, a branch and a stream that
/// draws) equals over its first 32 draws what `fork(u64)` yields on an
/// equal parent, and leaves that parent at the same position.
#[test]
fn typed_streams_are_the_label_forks_they_replace() {
    const STREAMS: [Stream; 5] =
        [Stream::Population, Stream::Load, Stream::Fault, Stream::Traffic, Stream::RackTopology];
    let draws = |rng: &mut SimRng| -> Vec<u64> { (0..32).map(|_| rng.next_u64()).collect() };
    let gen = |rng: &mut SimRng| (rng.next_u64(), rng.next_u64());
    prop::check_n("typed_streams_are_label_forks", 64, gen, |&(seed, index)| {
        for stream in STREAMS {
            let (mut root, mut old) = (RngRoot::new(seed), SimRng::new(seed));
            assert_eq!(draws(&mut root.stream(stream)), draws(&mut old.fork(stream as u64)));
            let (mut branch, mut old_branch) = (root.branch(stream), old.fork(stream as u64));
            assert_eq!(draws(&mut branch.child(index)), draws(&mut old_branch.fork(index)));
            assert_eq!(draws(&mut branch.into_rng()), draws(&mut old_branch));
            assert_eq!(draws(&mut root.child(index)), draws(&mut old.fork(index)));
            assert_eq!(draws(&mut root.into_rng()), draws(&mut old));
        }
        // The fault stream draws only for victim selection: shuffling 33
        // elements is 32 draws.
        let (mut root, mut old) = (RngRoot::new(seed), SimRng::new(seed));
        let (mut typed, mut forked): (Vec<u32>, Vec<u32>) = ((0..33).collect(), (0..33).collect());
        root.fault().shuffle(&mut typed);
        old.fork(Stream::Fault as u64).shuffle(&mut forked);
        assert_eq!(typed, forked);
        assert_eq!(draws(&mut root.into_rng()), draws(&mut old));
        // A stream that draws, then forks by index (`Experiment`'s order).
        let (mut drawing, mut old) = (RngRoot::new(seed).into_rng(), SimRng::new(seed));
        assert_eq!(drawing.below(1 + index % 1_000), old.below(1 + index % 1_000));
        assert_eq!(draws(&mut drawing.child(index)), draws(&mut old.fork(index)));
        assert_eq!(draws(&mut drawing), draws(&mut old));
    });
}

/// Mid-run fault injection must also replay bit-identically: the fault
/// stream is forked, victim selection is deterministic, and the repair
/// machinery introduces no hidden nondeterminism.
#[test]
fn faulted_experiment_replays_bit_identically() {
    let a = run_with_faults(0xFA11, test_script());
    let b = run_with_faults(0xFA11, test_script());
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "faulted run did not replay bit-identically"
    );
    assert_eq!(a.fault_injections, 2);
    assert_eq!(a.fault_repairs, 2);
}

/// Fig-5-shaped replay at an elevated host count: the query path's
/// bit-identical-replay gate at cluster scale (the full figure runs the
/// same driver at 10,002 hosts — see `fig5::compute`). Floats are
/// compared by bit pattern: same seed, same bytes.
#[test]
fn fig5_shaped_kernel_replay_is_bit_identical() {
    fn fingerprint() -> Vec<u64> {
        // 1,200 hosts (vs the fast profile's 216) across three fan-out
        // levels; small per-level budget keeps this a smoke replay.
        let results = fig5::compute_custom(400, &[1, 16, 64], |_| 600);
        let mut f = Vec::new();
        for r in &results {
            f.push(r.fanout as u64);
            f.push(r.successes);
            f.push(r.failures);
            f.push(r.summary.p50.to_bits());
            f.push(r.summary.p90.to_bits());
            f.push(r.summary.p99.to_bits());
            f.push(r.summary.p999.to_bits());
            f.push(r.summary.max.to_bits());
        }
        f
    }
    assert_eq!(
        fingerprint(),
        fingerprint(),
        "fig5-shaped kernel workload did not replay bit-identically"
    );
}

/// Fork-stability under event injection: the fault scheduler draws all
/// of its randomness from `rng.fork(3)`, so attaching a fault script to
/// a seed must not perturb the population stream (`fork(1)`) that every
/// other stream's experiment design hangs off. The *in-run* histories
/// legitimately diverge — that is the fault doing its job.
#[test]
fn fault_stream_does_not_perturb_workload_streams() {
    let healthy = run_experiment(0xFA12);
    let faulted = run_with_faults(0xFA12, test_script());
    assert_eq!(
        healthy.population_fingerprint, faulted.population_fingerprint,
        "fault injection perturbed the population stream"
    );
    assert_eq!(healthy.fault_injections, 0);
    assert_eq!(faulted.fault_injections, 2);
    assert_ne!(
        fingerprint(&healthy),
        fingerprint(&faulted),
        "the injected faults should leave a visible mark on the history"
    );
}
