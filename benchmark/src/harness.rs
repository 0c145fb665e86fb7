//! Runs one workload: correctness check, then repetitions of set-up and
//! timed region from fresh state until the time budget is spent, then the
//! report. The traced pass alternates untraced and traced repetitions and
//! adds the probes.
//!
//! Host-clock metrics are the median over the repetitions of
//! speed-corrected seconds (see `clock.rs`): a reference spin is timed
//! before set-up, between set-up and the timed region, and after it.
//! Every repetition's value and correction are kept in the detail file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::clock::{correction, spin_s};
use crate::spec::{self, Span};
use crate::stats::{self, median};
use crate::trace::Trace;
use crate::workloads::{Scale, SimOutcome, Workload};
use crate::SCHEMA;

/// Repetitions are from fresh state; fewer than three has no median
/// worth the name.
const MIN_ROUNDS: usize = 3;
/// `run_seconds` of `BENCHMARK.json`, the default budget.
const DEFAULT_SECONDS: f64 = 15.0;

pub struct Options {
    pub seed: u64,
    /// Measuring budget; `None` is 15 s, or just the minimum rounds for
    /// `--smoke`.
    pub seconds: Option<f64>,
    pub traced: bool,
    pub smoke: bool,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// One value per repetition for host-clock metrics; empty otherwise.
    pub samples: Vec<f64>,
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub smoke: bool,
    pub traced: bool,
    pub rounds: usize,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Speed correction of each untraced repetition's timed region.
    pub speed: Vec<f64>,
    pub trace: Option<Trace>,
}

/// One repetition's host times, in corrected seconds.
struct Round {
    setup_s: f64,
    region_s: f64,
    /// Correction applied to the timed region (above 1: the core ran
    /// boosted).
    speed: f64,
}

/// Set up from fresh state and run the timed region once.
fn round<W: Workload>(o: &Options, mut trace: Option<&mut Trace>) -> (Round, SimOutcome) {
    let spin0 = spin_s();
    let t0 = Instant::now();
    let open = match (trace.as_deref_mut(), W::SETUP_SPAN) {
        (Some(t), Some(span)) => Some(t.begin(span)),
        _ => None,
    };
    let state = W::setup(o.seed, Scale { smoke: o.smoke });
    if let (Some(t), Some(open)) = (trace.as_deref_mut(), open) {
        t.end(open, 1);
    }
    let setup_wall = t0.elapsed().as_secs_f64();
    let spin1 = spin_s();
    let t1 = Instant::now();
    let outcome = match trace {
        Some(t) => {
            let open = t.begin(Span::Region);
            let outcome = state.run(Some(t));
            t.end(open, 1);
            outcome
        }
        None => state.run(None),
    };
    let region_wall = t1.elapsed().as_secs_f64();
    let speed = correction(spin1, spin_s());
    let round = Round {
        setup_s: setup_wall * correction(spin0, spin1),
        region_s: region_wall * speed,
        speed,
    };
    (round, outcome)
}

pub fn drive<W: Workload>(name: &str, o: &Options) -> Result<Report, String> {
    let workload = spec::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map(|w| w.name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    W::check(o.seed, Scale { smoke: o.smoke })
        .map_err(|e| format!("{workload}: wrong answer before timing: {e}"))?;

    let budget =
        Duration::from_secs_f64(
            o.seconds
                .unwrap_or(if o.smoke { 0.0 } else { DEFAULT_SECONDS }),
        );
    let started = Instant::now();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut last_trace: Option<Trace> = None;
    let mut first: Option<SimOutcome> = None;
    let mut peak_rss_mib = 0.0;
    let min_rounds = if o.traced { 1 } else { MIN_ROUNDS };
    while untraced.len() < min_rounds || started.elapsed() < budget {
        let mut passes: Vec<Option<Trace>> = vec![None];
        if o.traced {
            passes.push(Some(Trace::new()));
        }
        for mut pass in passes {
            let (r, outcome) = round::<W>(o, pass.as_mut());
            match &first {
                None => {
                    // Read after one repetition: allocator reuse across
                    // later ones would make the peak depend on how many
                    // fit the budget.
                    peak_rss_mib = stats::peak_rss_mib()?;
                    first = Some(outcome);
                }
                Some(f) if f.digest() != outcome.digest() => {
                    return Err(format!(
                        "{workload}: simulation digest {:#018x} differs from the first \
                         repetition's {:#018x} ({} pass): same seed must replay bit for bit",
                        outcome.digest(),
                        f.digest(),
                        if pass.is_some() { "traced" } else { "untraced" },
                    ));
                }
                Some(_) => {}
            }
            match pass {
                Some(t) => {
                    traced.push(r);
                    last_trace = Some(t);
                }
                None => untraced.push(r),
            }
        }
    }
    let outcome = first.expect("at least one repetition ran");

    let region_s = median(&untraced.iter().map(|r| r.region_s).collect::<Vec<_>>());
    let metrics = if o.traced {
        let traced_s = median(&traced.iter().map(|r| r.region_s).collect::<Vec<_>>());
        let trace = last_trace.as_ref().expect("traced pass ran");
        let speed = traced.last().expect("traced pass ran").speed;
        per_layer::<W>(o, &outcome, trace, speed, region_s, traced_s)
    } else {
        end_to_end(&outcome, &untraced, peak_rss_mib)
    };
    Ok(Report {
        workload,
        seed: o.seed,
        smoke: o.smoke,
        traced: o.traced,
        rounds: untraced.len(),
        digest: outcome.digest(),
        attempted: outcome.attempted.max(1),
        failed: outcome.broken,
        metrics,
        speed: untraced.iter().map(|r| r.speed).collect(),
        trace: last_trace,
    })
}

fn end_to_end(outcome: &SimOutcome, rounds: &[Round], peak_rss_mib: f64) -> Vec<Metric> {
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let rate: Vec<f64> = rounds
        .iter()
        .map(|r| outcome.ops as f64 / r.region_s)
        .collect();
    let sim = |name: &str, value: f64| (name.to_string(), value, Vec::new());
    let values = [
        ("setup_s".to_string(), median(&setup), setup),
        ("ops_per_s".to_string(), median(&rate), rate),
        sim("peak_rss_mb", peak_rss_mib),
        sim(
            "success_share",
            outcome.succeeded as f64 / outcome.attempted.max(1) as f64,
        ),
        sim("sim_p50_ms", stats::quantile(&outcome.latency, 0.50)),
        sim("sim_p90_ms", stats::quantile(&outcome.latency, 0.90)),
    ];
    spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (name, value, samples))| {
            debug_assert_eq!(m.name, name);
            Metric {
                name,
                unit: m.unit,
                value,
                samples,
            }
        })
        .collect()
}

fn per_layer<W: Workload>(
    o: &Options,
    outcome: &SimOutcome,
    trace: &Trace,
    trace_speed: f64,
    region_s: f64,
    traced_s: f64,
) -> Vec<Metric> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for agg in trace.aggregate() {
        let name = agg.name.name();
        values.insert(format!("{name}.busy_s"), agg.busy_s * trace_speed);
        values.insert(format!("{name}.calls"), agg.calls as f64);
        if Span::SHAPES.contains(&agg.name) {
            let us: Vec<f64> = agg.durations_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
            values.insert(format!("{name}.host_p50_us"), median(&us) * trace_speed);
        }
    }
    // The unsuffixed query span also totals the per-shape ones.
    let run_query = Span::RunQuery.name();
    for field in ["busy_s", "calls"] {
        let shapes: f64 = Span::SHAPES
            .iter()
            .filter_map(|s| values.get(&format!("{}.{field}", s.name())))
            .sum();
        *values.entry(format!("{run_query}.{field}")).or_insert(0.0) += shapes;
    }
    for (name, value) in &outcome.counts {
        values.insert(name.to_string(), *value);
    }
    values.insert(
        "sim.latency.p99_ms".to_string(),
        stats::quantile(&outcome.latency, 0.99),
    );
    values.insert(
        "sim.latency.p999_ms".to_string(),
        stats::quantile(&outcome.latency, 0.999),
    );
    let mut attributed = 0.0;
    let samples = W::probes(o.seed, Scale { smoke: o.smoke });
    for (name, per) in spec::PROBES {
        let ns = samples
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.ns);
        let calls = outcome.calls.get(name).copied().unwrap_or(0.0);
        let share = ns * calls * 1e-9 / region_s;
        attributed += share;
        values.insert(format!("{name}.ns_per_{per}"), ns);
        values.insert(format!("{name}.est_share"), share);
    }
    values.insert("unattributed_share".to_string(), 1.0 - attributed);
    values.insert(
        "trace.overhead_share".to_string(),
        traced_s / region_s - 1.0,
    );
    spec::per_layer()
        .into_iter()
        .map(|(name, unit, _)| Metric {
            value: values.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
            samples: Vec::new(),
        })
        .collect()
}

fn json_number(v: f64) -> String {
    // Display for f64 is shortest-round-trip and valid JSON when finite.
    assert!(v.is_finite(), "non-finite metric value");
    format!("{v}")
}

impl Report {
    fn metrics_json(&self, with_samples: bool) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                m.name,
                json_number(m.value),
                m.unit
            );
            if with_samples && !m.samples.is_empty() {
                let samples: Vec<String> = m.samples.iter().map(|&s| json_number(s)).collect();
                let _ = write!(out, ",\"samples\":[{}]", samples.join(","));
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The driver's contract: exactly `correct`, `attempted`, `failed`,
    /// `metrics`. A wrong answer never gets here; it is an `Err` and a
    /// non-zero exit.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.attempted,
            self.failed,
            self.metrics_json(false)
        )
    }

    /// The result plus what `compare` needs: every repetition's value, the
    /// speed corrections behind them, and the simulation digest.
    pub fn detail_json(&self) -> String {
        let speed: Vec<String> = self.speed.iter().map(|&k| json_number(k)).collect();
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"workload\":\"{}\",\"seed\":{},\"smoke\":{},\
             \"traced\":{},\"rounds\":{},\"digest\":\"{:#018x}\",\"correct\":true,\
             \"attempted\":{},\"failed\":{},\"speed\":[{}],\"metrics\":{}}}",
            self.workload,
            self.seed,
            self.smoke,
            self.traced,
            self.rounds,
            self.digest,
            self.attempted,
            self.failed,
            speed.join(","),
            self.metrics_json(true)
        )
    }

    /// Every metric by name and unit, for people.
    pub fn table(&self) -> String {
        let mut out = format!(
            "# {} seed={} rounds={} digest={:#018x}{}{}\n",
            self.workload,
            self.seed,
            self.rounds,
            self.digest,
            if self.traced { " traced" } else { "" },
            if self.smoke { " smoke" } else { "" },
        );
        for m in &self.metrics {
            let _ = writeln!(out, "{:<58} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}
