//! The benchmark's frozen vocabulary: workload names, metric names,
//! units, directions and regression bounds. `BENCHMARK.json` at the repo
//! root states the same set; `tests/smoke.rs` fails when the two drift.

/// Which way is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read from. Host-clock metrics are noisy and
/// judged against their bound; sim-clock metrics repeat bit for bit for
/// one seed, so any movement at a fixed seed is a behaviour change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        clock: Clock::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        clock: Clock::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        clock: Clock::Host,
        bound: 0.10,
    },
    EndToEnd {
        name: "success_share",
        unit: "ratio",
        better: Better::Higher,
        clock: Clock::Sim,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_p50_ms",
        unit: "ms",
        better: Better::Lower,
        clock: Clock::Sim,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_p90_ms",
        unit: "ms",
        better: Better::Lower,
        clock: Clock::Sim,
        bound: 0.15,
    },
];

pub struct WorkloadSpec {
    pub name: &'static str,
    /// What one operation of `ops_per_s` is.
    pub op: &'static str,
    /// Closed loop (next request after the previous completes) or open
    /// loop (arrivals on a simulated-time schedule).
    pub load: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "fanout_sweep",
        op: "query",
        load: "closed loop, 1 client",
        why: "fig5-shaped count(*) at fan-out 1..64 without data: only query-path plumbing runs, so engine changes must not show",
    },
    WorkloadSpec {
        name: "engine_scan",
        op: "query",
        load: "closed loop, 1 client",
        why: "five scan and group-by shapes over one loaded table: only execute_partition and the merge run, the control for plumbing changes",
    },
    WorkloadSpec {
        name: "ingest_pressure",
        op: "row ingested",
        load: "closed loop, 1 client",
        why: "ingest beside dashboards with data far above the memory budget: scans hit compressed bricks, so a scan gain paid by writes shows",
    },
    WorkloadSpec {
        name: "ops_churn",
        op: "simulated hour",
        load: "Experiment::run, 0.02 qps Poisson in sim time",
        why: "replicated control plane under drains, failures and a zk crash: tick, SM, zk and monitor passes do the work, queries little",
    },
    WorkloadSpec {
        name: "qos_overload",
        op: "offered query",
        load: "open loop in sim time, diurnal + flash-crowd NHPP at 2x capacity",
        why: "the only workload on the admission plane: shedding, deadline queues and partial results under a region outage at peak",
    },
];

/// Spans around the benchmark's own calls; each gives `.busy_s` and
/// `.calls` in the traced pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// The whole timed region; parent of every other span.
    Region,
    EventSchedule,
    EventPop,
    StatsRecord,
    RunQuery,
    RunQueryFull,
    RunQueryPruned,
    RunQueryGroupDs,
    RunQueryGroupEntity,
    RunQueryFilterEntity,
    GenRows,
    Ingest,
    DecayPass,
    MemoryMonitor,
    ExperimentNew,
    ExperimentRun,
}

impl Span {
    /// Every reported span, `Region` excluded.
    pub const REPORTED: [Span; 15] = [
        Span::EventSchedule,
        Span::EventPop,
        Span::StatsRecord,
        Span::RunQuery,
        Span::RunQueryFull,
        Span::RunQueryPruned,
        Span::RunQueryGroupDs,
        Span::RunQueryGroupEntity,
        Span::RunQueryFilterEntity,
        Span::GenRows,
        Span::Ingest,
        Span::DecayPass,
        Span::MemoryMonitor,
        Span::ExperimentNew,
        Span::ExperimentRun,
    ];

    /// The five `engine_scan` query shapes, round-robin order.
    pub const SHAPES: [Span; 5] = [
        Span::RunQueryFull,
        Span::RunQueryPruned,
        Span::RunQueryGroupDs,
        Span::RunQueryGroupEntity,
        Span::RunQueryFilterEntity,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::Region => "timed_region",
            Span::EventSchedule => "sim.event.schedule",
            Span::EventPop => "sim.event.pop",
            Span::StatsRecord => "sim.stats.record",
            Span::RunQuery => "cluster.driver.run_query",
            Span::RunQueryFull => "cluster.driver.run_query.full",
            Span::RunQueryPruned => "cluster.driver.run_query.pruned",
            Span::RunQueryGroupDs => "cluster.driver.run_query.group_ds",
            Span::RunQueryGroupEntity => "cluster.driver.run_query.group_entity",
            Span::RunQueryFilterEntity => "cluster.driver.run_query.filter_entity",
            Span::GenRows => "cluster.workload.gen_rows",
            Span::Ingest => "cluster.deployment.ingest",
            Span::DecayPass => "cubrick.node.decay_pass",
            Span::MemoryMonitor => "cubrick.node.run_memory_monitor",
            Span::ExperimentNew => "cluster.experiment.new",
            Span::ExperimentRun => "cluster.experiment.run",
        }
    }
}

/// The `execute_partition` probes, `Span::SHAPES` order.
pub const EXECUTE_PARTITION_PROBES: [&str; 5] = [
    "cubrick.query.execute_partition.full",
    "cubrick.query.execute_partition.pruned",
    "cubrick.query.execute_partition.group_ds",
    "cubrick.query.execute_partition.group_entity",
    "cubrick.query.execute_partition.filter_entity",
];

/// Probes: fixed-count calls into one layer's public function on the
/// workload's built state. `(name, per)` where `per` names what one call
/// covers; each gives `<name>.ns_per_<per>` and `<name>.est_share`.
pub const PROBES: [(&str, &str); 27] = [
    ("discovery.resolve", "call"),
    ("cluster.net.server_response", "call"),
    ("cubrick.proxy.choose", "call"),
    ("cubrick.catalog.get", "call"),
    ("cubrick.sharding.shard_of", "call"),
    ("cubrick.admission.offer_complete", "call"),
    ("cluster.traffic.next_arrival", "call"),
    ("cubrick.query.execute_partition.full", "row"),
    ("cubrick.query.execute_partition.pruned", "row"),
    ("cubrick.query.execute_partition.group_ds", "row"),
    ("cubrick.query.execute_partition.group_entity", "row"),
    ("cubrick.query.execute_partition.filter_entity", "row"),
    ("cubrick.coordinator.merge_partials", "call"),
    ("cubrick.store.ingest", "row"),
    ("cubrick.compression.compress", "brick"),
    ("cubrick.compression.decompress", "brick"),
    ("cubrick.store.run_memory_monitor", "call"),
    ("cubrick.store.decay_pass", "call"),
    ("cluster.deployment.tick", "call"),
    ("sm.server.collect_metrics", "call"),
    ("sm.server.run_load_balancer", "call"),
    ("sm.balancer.propose_rebalance", "call"),
    ("sm.placement.rank_candidates", "call"),
    ("zk.ensemble.commit", "op"),
    ("zk.plane.tick", "call"),
    ("sim.event.schedule_pop", "event"),
    ("sim.stats.histogram_record", "call"),
];

/// Counts and ratios read from public stats; exact per seed.
pub const COUNTS: [(&str, &str); 15] = [
    ("queries", "count"),
    ("subqueries", "count"),
    ("cluster.driver.attempts_per_query", "ratio"),
    ("region_failovers", "count"),
    ("sm.migrations", "count"),
    ("sm.failover_migrations", "count"),
    ("sm.drains_denied_share", "ratio"),
    ("zk.failovers", "count"),
    ("zk.session_moves", "count"),
    ("admission.shed", "count"),
    ("admission.queue_timeouts", "count"),
    ("admission.partials", "count"),
    ("admission.sla_met.interactive", "ratio"),
    ("sim.latency.p99_ms", "ms"),
    ("sim.latency.p999_ms", "ms"),
];

/// Every per-layer metric of the traced pass as `(name, unit, better)`,
/// in `BENCHMARK.json` order. Costs are better lower; the work done and
/// the SLA share are better higher.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for span in Span::REPORTED {
        out.push((format!("{}.busy_s", span.name()), "s", Better::Lower));
        out.push((format!("{}.calls", span.name()), "count", Better::Lower));
    }
    for span in Span::SHAPES {
        out.push((format!("{}.host_p50_us", span.name()), "us", Better::Lower));
    }
    for which in ["bricks_compressed", "bricks_decompressed"] {
        out.push((
            format!("{}.{which}", Span::MemoryMonitor.name()),
            "count",
            Better::Lower,
        ));
    }
    for (name, per) in PROBES {
        out.push((format!("{name}.ns_per_{per}"), "ns", Better::Lower));
        out.push((format!("{name}.est_share"), "ratio", Better::Lower));
    }
    for (name, unit) in COUNTS {
        let better = match name {
            "queries" | "subqueries" | "admission.sla_met.interactive" => Better::Higher,
            _ => Better::Lower,
        };
        out.push((name.to_string(), unit, better));
    }
    out.push(("unattributed_share".to_string(), "ratio", Better::Lower));
    out.push(("trace.overhead_share".to_string(), "ratio", Better::Lower));
    out
}
