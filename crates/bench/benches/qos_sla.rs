//! QoS serving-plane micro-benchmarks: what the admission controller
//! costs on the per-query hot path, and what one full overload cell of
//! the QoS/SLA sweep costs end to end.
//!
//! * `offer_admit_complete` — steady-state cost of one admitted query
//!   through the classful controller (`offer` → `complete`): the fee
//!   every query pays once QoS mode is on.
//! * `queue_promote_cycle` — the congested path: a full pool, an offer
//!   that queues, a completion, and the priority-ordered promotion via
//!   `next_runnable` — the per-event work of the experiment's admission
//!   pump.
//! * `shed_under_flood` — the shed fast path with every queue full:
//!   overload must get *cheaper* per query, not dearer, or the
//!   controller melts exactly when it is needed.
//! * `overload_cell_2x` — wall clock of one complete fast-profile
//!   QoS/SLA sweep cell (2× offered load, shedding ON, region outage at
//!   peak), recorded via `push_record`: traffic thinning, admission,
//!   degraded serving, and the event loop together.
//!
//! Regenerate the trajectory from the repo root with (the bench binary's
//! cwd is `crates/bench`, hence the absolute path):
//! `cargo bench -p scalewall-bench --bench qos_sla -- --bench --json "$PWD/BENCH_qos_sla.json"`

use cubrick::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, QosClass};
use scalewall_bench::figures::fig_qos_sla;
use scalewall_bench::microbench::{Bench, Record};
use scalewall_bench::Profile;
use scalewall_cluster::experiment::Experiment;
use scalewall_sim::SimTime;
use std::time::Instant;

fn bench_offer_admit_complete(c: &mut Bench) {
    let mut ctl = AdmissionController::new(AdmissionConfig::qos(8));
    let mut group = c.group("qos_sla");
    group.sample_size(20);
    group.throughput(1);
    group.bench_function("offer_admit_complete", |b| {
        b.iter(|| {
            let d = ctl.offer(QosClass::Interactive, SimTime::from_secs(1));
            assert_eq!(d, AdmissionDecision::Admit, "idle pool admits");
            ctl.complete(QosClass::Interactive);
        })
    });
}

fn bench_queue_promote_cycle(c: &mut Bench) {
    let mut ctl = AdmissionController::new(AdmissionConfig::qos(4));
    // Saturate interactive's cap so further offers queue.
    let mut held = 0u32;
    while ctl.offer(QosClass::Interactive, SimTime::from_secs(1)) == AdmissionDecision::Admit {
        held += 1;
    }
    assert!(held > 0);
    let mut i = 0u64;
    let mut group = c.group("qos_sla");
    group.sample_size(20);
    group.throughput(1);
    group.bench_function("queue_promote_cycle", |b| {
        b.iter(|| {
            i += 1;
            let now = SimTime::from_secs(1) + scalewall_sim::SimDuration::from_nanos(i);
            let AdmissionDecision::Queued { .. } = ctl.offer(QosClass::Interactive, now) else {
                panic!("full pool queues");
            };
            ctl.complete(QosClass::Interactive);
            ctl.next_runnable(now).expect("priority promotion")
        })
    });
}

fn bench_shed_under_flood(c: &mut Bench) {
    let mut ctl = AdmissionController::new(AdmissionConfig::qos(4));
    // Fill batch's slot cap, then its queue, so every further offer is
    // a pure shed.
    while !matches!(
        ctl.offer(QosClass::Batch, SimTime::from_secs(1)),
        AdmissionDecision::Shed
    ) {}
    let mut group = c.group("qos_sla");
    group.sample_size(20);
    group.throughput(1);
    group.bench_function("shed_under_flood", |b| {
        b.iter(|| {
            let d = ctl.offer(QosClass::Batch, SimTime::from_secs(2));
            assert_eq!(d, AdmissionDecision::Shed);
            d
        })
    });
}

/// One full overload cell, timed as a single wall-clock shot (the cell
/// itself is deterministic; `cycles` repeats it for a stable median).
fn bench_overload_cell(c: &mut Bench) {
    let cycles: u64 = if c.timing() { 5 } else { 1 };
    let t0 = Instant::now();
    let mut served = 0u64;
    for _ in 0..cycles {
        let stats = Experiment::new(fig_qos_sla::config(Profile::Fast, 2.0, true)).run();
        served += stats.queries_ok;
    }
    assert!(served > 0, "cell serves queries");
    let elapsed_ns = t0.elapsed().as_nanos() as f64;
    c.push_record(Record {
        name: "qos_sla/overload_cell_2x".to_string(),
        mode: if c.timing() { "timed" } else { "smoke" }.to_string(),
        median_ns: elapsed_ns / cycles as f64,
        min_ns: elapsed_ns / cycles as f64,
        rate_per_sec: Some(cycles as f64 / (elapsed_ns * 1e-9)),
        samples: 1,
        iters_per_sample: cycles,
    });
}

fn main() {
    let mut bench = Bench::from_args();
    bench_offer_admit_complete(&mut bench);
    bench_queue_promote_cycle(&mut bench);
    bench_shed_under_flood(&mut bench);
    bench_overload_cell(&mut bench);
    bench.finish();
}
