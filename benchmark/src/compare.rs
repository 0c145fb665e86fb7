//! `compare A.json B.json`: one row per (workload, end-to-end metric)
//! with both medians, the ratio with its base, the repetitions' spread and
//! a verdict against the metric's bound. Exits non-zero on any `worse`.

use std::path::Path;

use scalewall_bench::microbench::{parse_json, Json};

use crate::spec::{Better, Clock, END_TO_END};
use crate::stats::iqr_share;
use crate::SCHEMA;

fn num(v: Option<&Json>) -> Option<f64> {
    match v {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

fn text(v: Option<&Json>) -> Option<&str> {
    match v {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

struct ResultSet {
    seed: f64,
    results: Vec<Json>,
}

fn load(path: &Path) -> Result<ResultSet, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse_json(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
    if text(doc.get("schema")) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} result file", path.display()));
    }
    let seed = num(doc.get("seed")).ok_or_else(|| format!("{}: no seed", path.display()))?;
    // A suite file holds `results`; a single workload's `--out` is one.
    let results = match doc.get("results") {
        Some(Json::Arr(items)) => items.clone(),
        _ => vec![doc],
    };
    Ok(ResultSet { seed, results })
}

/// (value, per-repetition samples) of one metric in one workload result.
fn metric(result: &Json, name: &str) -> Option<(f64, Vec<f64>)> {
    let m = result.get("metrics")?.get(name)?;
    let samples = match m.get("samples") {
        Some(Json::Arr(items)) => items.iter().filter_map(|v| num(Some(v))).collect(),
        _ => Vec::new(),
    };
    Some((num(m.get("value"))?, samples))
}

pub fn compare(a_path: &Path, b_path: &Path) -> Result<(), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same_seed = a.seed == b.seed;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a", "spread", "bound"
    );
    let mut worse = 0usize;
    let mut rows = 0usize;
    for ra in &a.results {
        let Some(workload) = text(ra.get("workload")) else {
            return Err(format!(
                "{}: result without a workload name",
                a_path.display()
            ));
        };
        let Some(rb) = b
            .results
            .iter()
            .find(|r| text(r.get("workload")) == Some(workload))
        else {
            println!("{workload:<16} only in {}", a_path.display());
            continue;
        };
        for m in &END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) = (metric(ra, m.name), metric(rb, m.name)) else {
                continue;
            };
            rows += 1;
            // One seed replays the simulation bit for bit: a sim-clock
            // metric that moved at all is a behaviour change.
            let bound = if same_seed && m.clock == Clock::Sim {
                0.0
            } else {
                m.bound
            };
            let spread = iqr_share(&sa).max(iqr_share(&sb));
            let worse_by = match m.better {
                Better::Lower => (vb - va) / va.abs(),
                Better::Higher => (va - vb) / va.abs(),
            };
            let verdict = if spread > m.bound {
                "unresolved"
            } else if worse_by > bound {
                worse += 1;
                "worse"
            } else if worse_by < -bound {
                "better"
            } else {
                "ok"
            };
            println!(
                "{workload:<16} {:<14} {va:>14.6} {vb:>14.6} {:>9.4} {spread:>7.4} {bound:>7.2}  {verdict}",
                m.name,
                vb / va,
            );
        }
    }
    if rows == 0 {
        return Err("no (workload, metric) pair in common: nothing compared".to_string());
    }
    println!("ratio base: a = {}", a_path.display());
    if worse > 0 {
        return Err(format!("{worse} metric(s) worse than their bound"));
    }
    Ok(())
}
