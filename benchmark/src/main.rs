//! End-to-end benchmark of the scalewall stack: five workloads, six
//! end-to-end metrics, and a traced pass that attributes host time to the
//! repo's layers. See `README.md` here and `BENCHMARK.json` at the root.
//!
//! ```text
//! scalewall-benchmark run [--workload W] [--seed N] [--seconds S]
//!                         [--trace 0|1 | --traced] [--smoke]
//!                         [--out FILE] [--spans FILE]
//! scalewall-benchmark compare A.json B.json
//! scalewall-benchmark list
//! ```

mod clock;
mod compare;
mod harness;
mod oracle;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{drive, Options, Report};
use workloads::engine_scan::EngineScan;
use workloads::fanout_sweep::FanoutSweep;
use workloads::ingest_pressure::IngestPressure;
use workloads::ops_churn::OpsChurn;
use workloads::qos_overload::QosOverload;

pub const SCHEMA: &str = "scalewall-benchmark/v1";

struct RunArgs {
    workload: Option<String>,
    options: Options,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: None,
        options: Options {
            seed: 11,
            seconds: None,
            traced: false,
            smoke: false,
        },
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => run.workload = Some(value()?),
            "--seed" => {
                run.options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                run.options.seconds = Some(s);
            }
            "--trace" => {
                run.options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => run.options.traced = true,
            "--smoke" => run.options.smoke = true,
            "--out" => run.out = Some(PathBuf::from(value()?)),
            "--spans" => run.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(run)
}

fn run_one(name: &str, run: &RunArgs) -> Result<Report, String> {
    let o = &run.options;
    match name {
        "fanout_sweep" => drive::<FanoutSweep>(name, o),
        "engine_scan" => drive::<EngineScan>(name, o),
        "ingest_pressure" => drive::<IngestPressure>(name, o),
        "ops_churn" => drive::<OpsChurn>(name, o),
        "qos_overload" => drive::<QosOverload>(name, o),
        other => Err(format!("unknown workload {other:?}; `list` names the five")),
    }
}

/// One workload in this process: table, optional files, result line last.
fn run_workload(name: &str, run: &RunArgs) -> Result<(), String> {
    let report = run_one(name, run)?;
    print!("{}", report.table());
    if let Some(path) = &run.out {
        std::fs::write(path, report.detail_json() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let (Some(path), Some(trace)) = (&run.spans, &report.trace) {
        std::fs::write(path, trace.dump()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report.result_line());
    Ok(())
}

/// Every workload, one after another, each in a child process of its own
/// so that `peak_rss_mb` is per workload. With `--out`, each child's
/// detail lands beside it and is folded into the one result file.
fn run_suite(run: &RunArgs) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut details = Vec::new();
    for w in &spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name])
            .args(["--seed", &run.options.seed.to_string()])
            .args(["--trace", if run.options.traced { "1" } else { "0" }]);
        if let Some(s) = run.options.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if run.options.smoke {
            cmd.arg("--smoke");
        }
        let part = run.out.as_ref().map(|out| {
            let mut name = out.clone().into_os_string();
            name.push(format!(".{}.part", w.name));
            PathBuf::from(name)
        });
        if let Some(part) = &part {
            cmd.arg("--out").arg(part);
        }
        // The child's table and result line go straight to our stdout.
        let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
        if let Some(part) = &part {
            let text = std::fs::read_to_string(part);
            let _ = std::fs::remove_file(part);
            if status.success() {
                let text = text.map_err(|e| format!("{}: {e}", part.display()))?;
                details.push(text.trim_end().to_string());
            }
        }
        if !status.success() {
            return Err(format!("workload {} exited with {status}", w.name));
        }
    }
    if let Some(path) = &run.out {
        let text = format!(
            "{{\"schema\":\"{SCHEMA}\",\"seed\":{},\"smoke\":{},\"traced\":{},\"results\":[\n{}\n]}}\n",
            run.options.seed,
            run.options.smoke,
            run.options.traced,
            details.join(",\n")
        );
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn list() {
    println!("workloads:");
    for w in &spec::WORKLOADS {
        println!("  {:<16} op = {}; {}", w.name, w.op, w.load);
        println!("  {:<16} {}", "", w.why);
    }
    println!("end-to-end metrics (tracing off):");
    for m in &spec::END_TO_END {
        println!(
            "  {:<16} {:<6} better {}, {:?} clock, bound {}",
            m.name,
            m.unit,
            m.better.word(),
            m.clock,
            m.bound
        );
    }
    println!("per-layer metrics (--trace 1): {}", spec::per_layer().len());
    for (name, unit, better) in spec::per_layer() {
        println!("  {name} [{unit}] better {}", better.word());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|run| match &run.workload {
            Some(name) => run_workload(name, &run),
            None => run_suite(&run),
        }),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two result files".to_string()),
        },
        Some((cmd, [])) if cmd == "list" => {
            list();
            Ok(())
        }
        _ => Err("usage: scalewall-benchmark run|compare|list (see README.md)".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("scalewall-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}
