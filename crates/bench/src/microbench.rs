//! Minimal wall-clock micro-benchmark runner.
//!
//! An in-repo replacement for the `criterion` dependency (the workspace is
//! hermetic; see DESIGN.md), keeping the same call-site shape the benches
//! already used: groups, per-function benchmarks, element throughput, and
//! batched iteration with untimed setup.
//!
//! Behaviour follows cargo's convention for `harness = false` targets:
//! `cargo bench` passes `--bench` to the binary, which selects full timing
//! mode; any other invocation (notably `cargo test`, which runs bench
//! targets as smoke tests) executes every benchmark body exactly once so a
//! broken bench fails the suite without burning minutes of wall clock.
//!
//! # Machine-readable output
//!
//! Every run also collects structured [`Record`]s, and two extra flags make
//! the results durable and checkable (this is how the `BENCH_*.json`
//! trajectory files at the repo root are produced and gated):
//!
//! * `--json <path>` — after the run, write all records as a JSON report
//!   (schema [`SCHEMA`]). Works in smoke mode too (single-shot timings),
//!   so CI can exercise the full emit path in seconds.
//! * `--validate <path>` — instead of running benchmarks, parse `<path>`
//!   with the workspace JSON codec and verify it is a well-formed report;
//!   exits non-zero with a diagnostic if not. `scripts/verify.sh` runs
//!   this over both a fresh smoke emission and the checked-in trajectory.

use std::hint::black_box;
use std::time::{Duration, Instant};

use scalewall_sim::json::escape_into;
/// The workspace codec, under the names report readers import from here.
pub use scalewall_sim::json::{parse as parse_json, Json};

/// Target wall time per timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);
/// Warm-up budget per benchmark before samples are taken.
const WARMUP: Duration = Duration::from_millis(100);

/// Schema tag stamped into (and required of) every JSON report.
pub const SCHEMA: &str = "scalewall-microbench/v1";

/// One benchmark's measured result.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// `group/function` name.
    pub name: String,
    /// `"timed"` (full sampling) or `"smoke"` (single untuned execution).
    pub mode: String,
    /// Median time per iteration.
    pub median_ns: f64,
    /// Fastest sample's time per iteration.
    pub min_ns: f64,
    /// Element throughput at the median, when the group declared one.
    pub rate_per_sec: Option<f64>,
    /// Samples collected (1 in smoke mode).
    pub samples: u32,
    /// Iterations per sample (1 in smoke mode).
    pub iters_per_sample: u64,
}

/// Top-level runner; one per bench binary.
pub struct Bench {
    timing: bool,
    filter: Option<String>,
    json_out: Option<String>,
    records: Vec<Record>,
}

impl Bench {
    /// Build from process args: `--bench` selects timing mode; `--json
    /// <path>` emits a JSON report on [`Bench::finish`]; `--validate
    /// <path>` validates an existing report and exits; the first free
    /// argument filters benchmarks by substring.
    pub fn from_args() -> Bench {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let timing = args.iter().any(|a| a == "--bench");
        let mut json_out = None;
        let mut filter = None;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--json" => json_out = it.next(),
                "--validate" => {
                    let path = it.next().unwrap_or_else(|| {
                        eprintln!("--validate requires a path");
                        std::process::exit(2);
                    });
                    match std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))
                        .and_then(|text| validate_report(&text))
                    {
                        Ok(n) => {
                            println!("{path}: valid microbench report ({n} records)");
                            std::process::exit(0);
                        }
                        Err(e) => {
                            eprintln!("{path}: malformed microbench report: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                a if !a.starts_with("--") => filter = Some(a.to_string()),
                _ => {}
            }
        }
        Bench {
            timing,
            filter,
            json_out,
            records: Vec::new(),
        }
    }

    /// Start a named group of related benchmarks.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            name: name.to_string(),
            bench: self,
            sample_size: 20,
            elements: None,
        }
    }

    /// Records collected so far (mainly for tests and custom reporters).
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Append an externally-measured record (e.g. a whole-figure wall
    /// clock timed by the bench binary itself rather than via `iter`).
    pub fn push_record(&mut self, record: Record) {
        self.records.push(record);
    }

    /// Whether this invocation is a timing run (`--bench`).
    pub fn timing(&self) -> bool {
        self.timing
    }

    /// Finish the run: write the JSON report if `--json` was given.
    /// Panics (failing the bench/test process) if the report cannot be
    /// written — a silently-missing trajectory file is worse than a
    /// failure.
    pub fn finish(self) {
        if let Some(path) = &self.json_out {
            let json = render_report(&self.records);
            // Belt and braces: never emit a report we would not accept.
            validate_report(&json).expect("emitted report must validate");
            std::fs::write(path, json)
                .unwrap_or_else(|e| panic!("cannot write bench report {path}: {e}"));
            println!("wrote {} records to {path}", self.records.len());
        }
    }
}

/// A named group of benchmarks sharing throughput/sample settings.
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    sample_size: u32,
    elements: Option<u64>,
}

impl Group<'_> {
    /// Report throughput as `elements` items per iteration.
    pub fn throughput(&mut self, elements: u64) -> &mut Self {
        self.elements = Some(elements);
        self
    }

    /// Number of timed samples to collect per benchmark.
    pub fn sample_size(&mut self, n: u32) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark. The closure receives a [`Bencher`] and must call
    /// [`Bencher::iter`] or [`Bencher::iter_batched`] exactly once.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        if let Some(filter) = &self.bench.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        if !self.bench.timing {
            // Smoke mode (`cargo test`): execute the body once. The single
            // execution is still timed so `--json` emits a structurally
            // complete (if statistically meaningless) report.
            let mut b = Bencher {
                mode: Mode::Smoke { elapsed: None },
                samples: Vec::new(),
            };
            f(&mut b);
            let elapsed = match b.mode {
                Mode::Smoke { elapsed } => elapsed.expect("bencher closure never called iter()"),
                _ => unreachable!(),
            };
            let ns = elapsed.as_nanos() as f64;
            self.bench.records.push(Record {
                name: full,
                mode: "smoke".to_string(),
                median_ns: ns,
                min_ns: ns,
                rate_per_sec: self.elements.map(|e| e as f64 / (ns * 1e-9).max(1e-12)),
                samples: 1,
                iters_per_sample: 1,
            });
            return self;
        }

        // Warm up and calibrate iterations per sample.
        let mut b = Bencher {
            mode: Mode::Calibrate { budget: WARMUP },
            samples: Vec::new(),
        };
        f(&mut b);
        let per_iter = match b.mode {
            Mode::Calibrate { .. } => unreachable!("bencher closure never called iter()"),
            Mode::Calibrated { per_iter } => per_iter,
            _ => unreachable!(),
        };
        let iters_per_sample = (SAMPLE_TARGET.as_nanos() / per_iter.as_nanos().max(1))
            .clamp(1, u32::MAX as u128) as u64;

        let mut b = Bencher {
            mode: Mode::Timed {
                samples_left: self.sample_size,
                iters_per_sample,
            },
            samples: Vec::new(),
        };
        f(&mut b);

        let mut per_iter_ns: Vec<f64> = b
            .samples
            .iter()
            .map(|&(elapsed, iters)| elapsed.as_nanos() as f64 / iters as f64)
            .collect();
        per_iter_ns.sort_by(f64::total_cmp);
        let median = per_iter_ns[per_iter_ns.len() / 2];
        let min = per_iter_ns[0];
        let rate = self.elements.map(|e| e as f64 / (median * 1e-9));
        let mut line = format!(
            "{full:<40} median {:>12}  min {:>12}",
            format_ns(median),
            format_ns(min)
        );
        if let Some(rate) = rate {
            line.push_str(&format!("  {:>14}", format_rate(rate)));
        }
        line.push_str(&format!(
            "  ({} samples x {} iters)",
            per_iter_ns.len(),
            iters_per_sample
        ));
        println!("{line}");
        self.bench.records.push(Record {
            name: full,
            mode: "timed".to_string(),
            median_ns: median,
            min_ns: min,
            rate_per_sec: rate,
            samples: per_iter_ns.len() as u32,
            iters_per_sample,
        });
        self
    }
}

enum Mode {
    /// Run the body once; record its (single-shot) duration.
    Smoke { elapsed: Option<Duration> },
    /// Run until `budget` elapses, estimating time per iteration.
    Calibrate { budget: Duration },
    /// Result of calibration.
    Calibrated { per_iter: Duration },
    /// Collect `samples_left` samples of `iters_per_sample` iterations.
    Timed {
        samples_left: u32,
        iters_per_sample: u64,
    },
}

/// Drives iterations of one benchmark body.
pub struct Bencher {
    mode: Mode,
    samples: Vec<(Duration, u64)>,
}

impl Bencher {
    /// Time `routine` back-to-back: a timed sample reads the clock once
    /// around all its iterations, so a body of a few ns is not swamped by
    /// two clock reads each.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        let Mode::Timed {
            samples_left,
            iters_per_sample,
        } = self.mode
        else {
            return self.iter_batched(|| (), |()| routine());
        };
        for _ in 0..samples_left {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            self.samples.push((t0.elapsed(), iters_per_sample));
        }
    }

    /// Time `routine` on fresh inputs from `setup`; setup is untimed, so
    /// each iteration is timed on its own (two clock reads).
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
    ) {
        match self.mode {
            Mode::Smoke { .. } => {
                let input = setup();
                let t0 = Instant::now();
                black_box(routine(input));
                self.mode = Mode::Smoke {
                    elapsed: Some(t0.elapsed()),
                };
            }
            Mode::Calibrate { budget } => {
                let started = Instant::now();
                let mut timed = Duration::ZERO;
                let mut iters = 0u64;
                while started.elapsed() < budget || iters == 0 {
                    let input = setup();
                    let t0 = Instant::now();
                    black_box(routine(input));
                    timed += t0.elapsed();
                    iters += 1;
                }
                self.mode = Mode::Calibrated {
                    per_iter: timed / iters.clamp(1, u32::MAX as u64) as u32,
                };
            }
            Mode::Calibrated { .. } => unreachable!(),
            Mode::Timed {
                samples_left,
                iters_per_sample,
            } => {
                for _ in 0..samples_left {
                    let mut timed = Duration::ZERO;
                    for _ in 0..iters_per_sample {
                        let input = setup();
                        let t0 = Instant::now();
                        black_box(routine(input));
                        timed += t0.elapsed();
                    }
                    self.samples.push((timed, iters_per_sample));
                }
            }
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

fn format_rate(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} Gelem/s", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} Melem/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} Kelem/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} elem/s")
    }
}

// ------------------------------------------------------------ JSON report

/// Render records as the `scalewall-microbench/v1` JSON report. Every
/// number is required to be finite.
pub fn render_report(records: &[Record]) -> String {
    let mut out = format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        assert!(
            r.median_ns.is_finite() && r.min_ns.is_finite(),
            "non-finite timing for {}",
            r.name
        );
        out.push_str("    {\"name\": ");
        escape_into(&r.name, &mut out);
        out.push_str(", \"mode\": ");
        escape_into(&r.mode, &mut out);
        // Rust's f64 Display is shortest-round-trip and always a valid
        // JSON number for finite values.
        out.push_str(&format!(
            ", \"median_ns\": {}, \"min_ns\": {}, ",
            r.median_ns, r.min_ns
        ));
        match r.rate_per_sec {
            Some(rate) => {
                assert!(rate.is_finite(), "non-finite rate for {}", r.name);
                out.push_str(&format!("\"rate_per_sec\": {rate}, "));
            }
            None => out.push_str("\"rate_per_sec\": null, "),
        }
        out.push_str(&format!(
            "\"samples\": {}, \"iters_per_sample\": {}}}",
            r.samples, r.iters_per_sample
        ));
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validate a microbench JSON report; returns the record count.
///
/// Checks the full structural contract the trajectory tooling relies on:
/// schema tag, a non-empty `results` array, and per-record field types
/// (finite non-negative timings, positive sample counts).
pub fn validate_report(text: &str) -> Result<usize, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    match doc.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        Some(Json::Str(s)) => return Err(format!("unknown schema '{s}'")),
        _ => return Err("missing schema tag".to_string()),
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing results array")?;
    if results.is_empty() {
        return Err("empty results array".to_string());
    }
    for (i, r) in results.iter().enumerate() {
        let name = match r.get("name") {
            Some(Json::Str(s)) if !s.is_empty() => s.clone(),
            _ => return Err(format!("result {i}: missing name")),
        };
        match r.get("mode") {
            Some(Json::Str(m)) if m == "timed" || m == "smoke" => {}
            _ => return Err(format!("{name}: mode must be 'timed' or 'smoke'")),
        }
        for field in ["median_ns", "min_ns"] {
            match r.get(field) {
                Some(Json::Num(v)) if v.is_finite() && *v >= 0.0 => {}
                _ => return Err(format!("{name}: {field} must be a finite number >= 0")),
            }
        }
        match r.get("rate_per_sec") {
            Some(Json::Null) => {}
            Some(Json::Num(v)) if v.is_finite() && *v >= 0.0 => {}
            _ => return Err(format!("{name}: rate_per_sec must be null or finite")),
        }
        for field in ["samples", "iters_per_sample"] {
            if r.get(field).and_then(Json::as_count).is_none_or(|n| n < 1) {
                return Err(format!("{name}: {field} must be a positive integer"));
            }
        }
    }
    Ok(results.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(timing: bool, filter: Option<&str>) -> Bench {
        Bench {
            timing,
            filter: filter.map(str::to_string),
            json_out: None,
            records: Vec::new(),
        }
    }

    #[test]
    fn smoke_mode_runs_body_once() {
        let mut b = bench(false, None);
        let mut calls = 0u32;
        let mut group = b.group("g");
        group.bench_function("f", |b| b.iter(|| calls += 1));
        drop(group);
        assert_eq!(calls, 1);
        assert_eq!(b.records().len(), 1);
        assert_eq!(b.records()[0].name, "g/f");
        assert_eq!(b.records()[0].mode, "smoke");
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut b = bench(false, Some("other"));
        let mut calls = 0u32;
        b.group("g").bench_function("f", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 0);
        assert!(b.records().is_empty());
    }

    #[test]
    fn timed_mode_collects_samples() {
        let mut b = bench(true, None);
        let mut group = b.group("g");
        group.sample_size(3).throughput(1);
        group.bench_function("spin", |b| b.iter(|| std::hint::black_box(1 + 1)));
        drop(group);
        let rec = &b.records()[0];
        assert_eq!(rec.mode, "timed");
        assert_eq!(rec.samples, 3);
        assert!(rec.rate_per_sec.is_some());
    }

    #[test]
    fn report_round_trips_through_validator() {
        let mut b = bench(false, None);
        let mut group = b.group("event_kernel");
        group.throughput(1_000);
        group.bench_function("schedule \"quoted\"", |b| b.iter(|| black_box(7)));
        group.bench_function("pop", |b| b.iter(|| black_box(8)));
        drop(group);
        let json = render_report(b.records());
        assert_eq!(validate_report(&json).unwrap(), 2);
        let doc = parse_json(&json).unwrap();
        let results = match doc.get("results") {
            Some(Json::Arr(items)) => items,
            _ => panic!("results missing"),
        };
        assert_eq!(
            results[0].get("name"),
            Some(&Json::Str("event_kernel/schedule \"quoted\"".to_string()))
        );
    }

    #[test]
    fn validator_rejects_malformed_reports() {
        // Not JSON at all.
        assert!(validate_report("not json").is_err());
        // JSON but wrong shape.
        assert!(validate_report("{}").is_err());
        assert!(validate_report("{\"schema\": \"bogus/v9\", \"results\": []}").is_err());
        assert!(
            validate_report(&format!("{{\"schema\": \"{SCHEMA}\", \"results\": []}}")).is_err(),
            "empty results must be rejected"
        );
        // A record with a broken field.
        let bad = format!(
            "{{\"schema\": \"{SCHEMA}\", \"results\": [{{\"name\": \"x\", \
             \"mode\": \"timed\", \"median_ns\": \"fast\", \"min_ns\": 1, \
             \"rate_per_sec\": null, \"samples\": 1, \"iters_per_sample\": 1}}]}}"
        );
        assert!(validate_report(&bad).is_err());
        // Truncated document.
        let good = render_report(&[Record {
            name: "a".into(),
            mode: "timed".into(),
            median_ns: 1.0,
            min_ns: 1.0,
            rate_per_sec: None,
            samples: 1,
            iters_per_sample: 1,
        }]);
        assert!(validate_report(&good[..good.len() / 2]).is_err());
        assert_eq!(validate_report(&good).unwrap(), 1);
    }
}
