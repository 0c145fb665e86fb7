//! `scalewall-lint` CLI.
//!
//! ```text
//! scalewall-lint --workspace [--root DIR] [--json PATH]  # tiered scan
//! scalewall-lint --tier sim FILE...      # lint files under one tier
//! scalewall-lint --validate PATH         # check a v2 JSON report
//! ```
//!
//! `--json` writes a `scalewall-lint/v2` report (`-` for stdout);
//! `--validate` parses one and cross-checks its summary counts.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/IO error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use scalewall_lint::{find_workspace_root, json, Analysis, RuleSet, WorkspaceReport};

fn usage() -> ExitCode {
    eprintln!(
        "usage: scalewall-lint --workspace [--root DIR] [--json PATH]\n       scalewall-lint --tier <sim|sim-rng-home|bench|plain> FILE...\n       scalewall-lint --validate PATH"
    );
    ExitCode::from(2)
}

fn print_report(report: &WorkspaceReport) {
    for file in &report.files {
        for v in &file.violations {
            println!("{}:{}: {}: {}", file.path, v.line, v.rule, v.message);
        }
    }
    if let Some((path, line)) = report.first_unscanned() {
        println!("{path}:{line}: shaper: stopped here, short of the end of the file — nothing behind it is in an item");
    }
    let inventory = report.pragma_inventory();
    if !inventory.is_empty() {
        println!("pragma allows ({}):", inventory.len());
        for (path, p) in &inventory {
            let rules: Vec<String> = p.rules.iter().map(|r| r.to_string()).collect();
            println!(
                "  {}:{}: allow({}) -- {} [suppressed {}]",
                path,
                p.line,
                rules.join(","),
                p.reason,
                p.suppressed
            );
        }
    }
    println!(
        "scalewall-lint: {} violation(s), {} suppressed, {} file(s) scanned",
        report.violation_count(),
        report.suppressed_count(),
        report.files_scanned
    );
}

fn emit_json(report: &WorkspaceReport, path: &str) -> Result<(), String> {
    let text = json::to_json(report);
    if path == "-" {
        print!("{text}");
        Ok(())
    } else {
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
    }
}

fn run_workspace(root_arg: Option<PathBuf>, json_out: Option<String>) -> ExitCode {
    let root = match root_arg {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("scalewall-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    match scalewall_lint::lint_workspace(&root) {
        Ok(report) => {
            if let Some(path) = &json_out {
                if let Err(e) = emit_json(&report, path) {
                    eprintln!("scalewall-lint: {e}");
                    return ExitCode::from(2);
                }
            }
            if json_out.as_deref() != Some("-") {
                print_report(&report);
                // What D5/D6 looked at: zero violations from a walk that
                // resolved no lock would not be a result.
                let census = &report.census;
                println!(
                    "semantic census: {} functions walked, {} lock identities, {} order edges, {} calls under a held lock, {} fork sites, {} calls carrying an RNG",
                    census.fns_walked,
                    census.lock_ids.len(),
                    census.order_edges.len(),
                    census.calls_under_lock,
                    census.fork_sites,
                    census.rng_calls
                );
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("scalewall-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_validate(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("scalewall-lint: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match json::validate(&text) {
        Ok((violations, pragmas)) => {
            println!(
                "scalewall-lint: {path}: valid {} report ({violations} violation(s), {pragmas} pragma(s))",
                json::SCHEMA
            );
            if violations == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("scalewall-lint: {path}: invalid report: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_files(tier: &str, files: &[String]) -> ExitCode {
    let rules = match tier {
        "sim" => RuleSet::SIM,
        "sim-rng-home" => RuleSet::SIM_RNG_HOME,
        "bench" => RuleSet::BENCH,
        "plain" => RuleSet::PLAIN,
        _ => return usage(),
    };
    if files.is_empty() {
        return usage();
    }
    let mut report = WorkspaceReport::default();
    for f in files {
        let src = match std::fs::read_to_string(Path::new(f)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("scalewall-lint: {f}: {e}");
                return ExitCode::from(2);
            }
        };
        let mut analysis = Analysis::new();
        analysis.add_source(f, &src, rules);
        report.files_scanned += 1;
        report.files.extend(analysis.finish());
    }
    print_report(&report);
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--workspace") => {
            let mut root = None;
            let mut json_out = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--root" => match args.get(i + 1) {
                        Some(dir) => {
                            root = Some(PathBuf::from(dir));
                            i += 2;
                        }
                        None => return usage(),
                    },
                    "--json" => match args.get(i + 1) {
                        Some(path) => {
                            json_out = Some(path.clone());
                            i += 2;
                        }
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            run_workspace(root, json_out)
        }
        Some("--tier") => match args.get(1) {
            Some(tier) => run_files(tier, &args[2..]),
            None => usage(),
        },
        Some("--validate") => match args.get(1) {
            Some(path) => run_validate(path),
            None => usage(),
        },
        _ => usage(),
    }
}
