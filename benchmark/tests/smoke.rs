//! Drives the built binary at `--smoke` scale and holds it to
//! `BENCHMARK.json`: the workloads it runs and the metrics it emits are
//! exactly the declared set, with the declared units, and every value is
//! finite. Also exercises `compare`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use scalewall_bench::microbench::{parse_json, Json};

const BIN: &str = env!("CARGO_BIN_EXE_scalewall-benchmark");

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

fn string<'a>(obj: &'a Json, key: &str) -> &'a str {
    match obj.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

/// name → unit of a declared metric list.
fn declared(doc: &Json, key: &str) -> BTreeMap<String, String> {
    items(doc, key)
        .iter()
        .map(|m| (string(m, "name").to_string(), string(m, "unit").to_string()))
        .collect()
}

/// Run one workload at smoke scale and return its result line, parsed.
fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(BIN)
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--smoke",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse_json(last).expect("result line is JSON")
}

fn assert_result_matches(result: &Json, want: &BTreeMap<String, String>, ctx: &str) {
    let Json::Obj(fields) = result else {
        panic!("{ctx}: result line is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{ctx}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{ctx}");
    match (result.get("attempted"), result.get("failed")) {
        (Some(Json::Num(a)), Some(Json::Num(f))) => {
            assert!(*a >= 1.0 && a.fract() == 0.0, "{ctx}: attempted {a}");
            assert!(*f == 0.0, "{ctx}: {f} operations failed");
        }
        other => panic!("{ctx}: attempted/failed are {other:?}"),
    }
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{ctx}: no metrics object");
    };
    let got: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            match m.get("value") {
                Some(Json::Num(v)) => assert!(v.is_finite(), "{ctx}: {name} = {v}"),
                other => panic!("{ctx}: {name} value is {other:?}"),
            }
            (name.clone(), string(m, "unit").to_string())
        })
        .collect();
    assert_eq!(
        &got, want,
        "{ctx}: emitted metrics differ from BENCHMARK.json"
    );
}

#[test]
fn emitted_names_are_exactly_the_declared_set() {
    let doc = contract();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    assert_eq!(end_to_end.get("setup_s").map(String::as_str), Some("s"));
    for w in items(&doc, "workloads") {
        let name = string(w, "name");
        assert_result_matches(&run(name, "0"), &end_to_end, &format!("{name} untraced"));
        let traced = run(name, "1");
        assert_result_matches(&traced, &per_layer, &format!("{name} traced"));
        // The layer estimates and the remainder account for the region.
        let metrics = traced.get("metrics").expect("checked above");
        let mut total = 0.0;
        for metric in per_layer.keys() {
            if metric.ends_with(".est_share") || metric == "unattributed_share" {
                if let Some(Json::Num(v)) = metrics.get(metric).and_then(|m| m.get("value")) {
                    total += v;
                }
            }
        }
        assert!((total - 1.0).abs() < 1e-9, "{name}: shares sum to {total}");
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

#[test]
fn suite_runs_the_declared_workloads_and_compare_judges_them() {
    let dir = scratch("suite");
    let a = dir.join("a.json");
    let status = Command::new(BIN)
        .args(["run", "--smoke", "--seed", "7", "--out"])
        .arg(&a)
        .status()
        .expect("suite runs");
    assert!(status.success());
    let text = std::fs::read_to_string(&a).expect("suite result file");
    let suite = parse_json(&text).expect("suite result parses");
    let ran: Vec<&str> = items(&suite, "results")
        .iter()
        .map(|r| string(r, "workload"))
        .collect();
    let doc = contract();
    let want: Vec<&str> = items(&doc, "workloads")
        .iter()
        .map(|w| string(w, "name"))
        .collect();
    assert_eq!(ran, want, "suite workloads differ from BENCHMARK.json");

    // A result set agrees with itself.
    let same = Command::new(BIN)
        .arg("compare")
        .arg(&a)
        .arg(&a)
        .status()
        .expect("compare runs");
    assert!(same.success());
    // Same seed, fewer successes: a behaviour change, however small.
    let b = dir.join("b.json");
    let marker = "\"success_share\":{\"value\":1,";
    assert!(text.contains(marker));
    std::fs::write(
        &b,
        text.replace(marker, "\"success_share\":{\"value\":0.999,"),
    )
    .expect("doctored copy");
    let worse = Command::new(BIN)
        .arg("compare")
        .arg(&a)
        .arg(&b)
        .status()
        .expect("compare runs");
    assert!(!worse.success(), "a lower success_share must fail compare");
}

#[test]
fn wrong_usage_exits_non_zero_without_a_result() {
    for args in [
        &["run", "--workload", "no_such_workload"][..],
        &["run", "--trace", "2"][..],
        &["frobnicate"][..],
    ] {
        let out = Command::new(BIN).args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
