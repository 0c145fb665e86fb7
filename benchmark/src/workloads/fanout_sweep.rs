//! `fanout_sweep`: the fig5 shape. 3×400 hosts, one empty table per
//! fan-out level, the same `count(*)` every 500 ms of simulated time with
//! `execute_data: false`. The engine never runs; the driver, proxy,
//! discovery, network model, event kernel and histogram do all the work.

use cubrick::catalog::RowMapping;
use cubrick::proxy::{CubrickProxy, ProxyConfig};
use cubrick::query::Query;
use cubrick::sharding::ShardMapping;
use scalewall_cluster::deployment::{Deployment, DeploymentConfig};
use scalewall_cluster::driver::{run_query, run_query_series, QueryOptions};
use scalewall_cluster::net::{NetModel, NetModelConfig};
use scalewall_cluster::workload::standard_schema;
use scalewall_sim::{EventQueue, Histogram, SimDuration, SimRng, SimTime};

use super::{closed_loop, sub_seed, ProbeSample, Scale, SimOutcome, Workload};
use crate::probes;
use crate::spec::Span;
use crate::trace::Trace;

pub const HOSTS_PER_REGION: u32 = 400;
pub const FANOUTS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
pub const QUERIES_PER_LEVEL: u64 = 20_000;
const INTERVAL: SimDuration = SimDuration::from_millis(500);
/// An hour in, so the initial discovery publishes have propagated.
const START: SimTime = SimTime::from_secs(3_600);

pub struct FanoutSweep {
    dep: Deployment,
    net: NetModel,
    seed: u64,
    queries_per_level: u64,
}

fn table(fanout: u32) -> String {
    format!("fanout_{fanout}")
}

const OPTS: QueryOptions = closed_loop(false);

impl Workload for FanoutSweep {
    fn setup(seed: u64, scale: Scale) -> Self {
        let mut dep = Deployment::new(DeploymentConfig {
            regions: 3,
            hosts_per_region: HOSTS_PER_REGION,
            racks_per_region: 8,
            max_shards: 100_000,
            seed: sub_seed(seed, 1),
            ..Default::default()
        });
        for fanout in FANOUTS {
            dep.create_table(
                &table(fanout),
                standard_schema(365),
                fanout,
                RowMapping::Hash,
                ShardMapping::Monotonic,
                SimTime::ZERO,
            )
            .expect("fresh deployment takes every table");
        }
        FanoutSweep {
            dep,
            net: NetModel::new(NetModelConfig::default()),
            seed,
            queries_per_level: scale.of(QUERIES_PER_LEVEL),
        }
    }

    fn run(mut self, mut trace: Option<&mut Trace>) -> SimOutcome {
        let count = self.queries_per_level;
        let mut out = SimOutcome::new(count * FANOUTS.len() as u64);
        let mut subqueries = 0u64;
        let mut attempts = 0u64;
        for fanout in FANOUTS {
            let mut proxy = CubrickProxy::new(ProxyConfig::default());
            let mut rng = SimRng::new(sub_seed(self.seed, 100 + u64::from(fanout)));
            let query = Query::count_star(table(fanout));
            let mut hist = Histogram::latency_ms();
            let (ok, failed) = match trace.as_deref_mut() {
                None => run_query_series(
                    &mut self.dep,
                    &mut proxy,
                    &self.net,
                    &query,
                    &OPTS,
                    START,
                    INTERVAL,
                    count,
                    &mut rng,
                    &mut hist,
                ),
                Some(t) => mirror_series(
                    &mut self.dep,
                    &mut proxy,
                    &self.net,
                    &query,
                    count,
                    &mut rng,
                    &mut hist,
                    t,
                ),
            };
            out.attempted += ok + failed;
            out.succeeded += ok;
            out.broken += failed;
            out.latency.merge(&hist);
            let level_attempts = count + proxy.stats.retries;
            attempts += level_attempts;
            subqueries += level_attempts * u64::from(fanout);
            out.extra.extend([ok, failed, proxy.stats.retries]);
        }
        let queries = out.attempted as f64;
        out.query_path(queries, attempts as f64, subqueries as f64);
        out.counts
            .insert("region_failovers", (attempts - out.attempted) as f64);
        out.calls.insert("sim.event.schedule_pop", queries);
        out.calls
            .insert("sim.stats.histogram_record", out.succeeded as f64);
        out
    }

    fn probes(seed: u64, scale: Scale) -> Vec<ProbeSample> {
        let state = Self::setup(seed, scale);
        // Fan-out 16 sits at the sweep's sub-query-weighted middle.
        probes::plumbing(&state.dep, &state.net, &table(16), sub_seed(seed, 900))
    }
}

/// `run_query_series` call for call, with a span around each: bulk
/// schedule, then pop → `run_query` → record per arrival. Outcomes and
/// RNG draw order equal the library loop's; the digest check enforces it.
#[allow(clippy::too_many_arguments)]
fn mirror_series(
    dep: &mut Deployment,
    proxy: &mut CubrickProxy,
    net: &NetModel,
    query: &Query,
    count: u64,
    rng: &mut SimRng,
    hist: &mut Histogram,
    trace: &mut Trace,
) -> (u64, u64) {
    let (mut ok, mut failed) = (0u64, 0u64);
    let mut queue: EventQueue<()> = EventQueue::new();
    let base = START.as_nanos();
    let step = INTERVAL.as_nanos();
    let open = trace.begin(Span::EventSchedule);
    for i in 0..count {
        queue.schedule_at(SimTime::from_nanos(base + i * step), ());
    }
    trace.end(open, count as u32);
    loop {
        let t0 = trace.now_ns();
        let Some(ev) = queue.pop() else { break };
        let t1 = trace.now_ns();
        let outcome = run_query(dep, proxy, net, query, &OPTS, ev.time, rng);
        let t2 = trace.now_ns();
        if outcome.success {
            ok += 1;
            hist.record_duration(outcome.latency);
        } else {
            failed += 1;
        }
        let t3 = trace.now_ns();
        trace.leaf(Span::EventPop, t0, t1, 1);
        trace.leaf(Span::RunQuery, t1, t2, 1);
        trace.leaf(Span::StatsRecord, t2, t3, 1);
    }
    (ok, failed)
}
