//! `scalewall-lint` CLI.
//!
//! ```text
//! scalewall-lint --workspace [--root DIR]   # tiered scan
//! scalewall-lint --tier sim FILE...         # lint files under one tier
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/IO error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use scalewall_lint::{find_workspace_root, Analysis, RuleSet, WorkspaceReport};

fn usage() -> ExitCode {
    eprintln!(
        "usage: scalewall-lint --workspace [--root DIR]\n       scalewall-lint --tier <sim|sim-rng-home|bench|plain> FILE..."
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

fn run_workspace(root_arg: Option<PathBuf>) -> ExitCode {
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
            let root = match &args[1..] {
                [] => None,
                [flag, dir] if flag == "--root" => Some(PathBuf::from(dir)),
                _ => return usage(),
            };
            run_workspace(root)
        }
        Some("--tier") => match args.get(1) {
            Some(tier) => run_files(tier, &args[2..]),
            None => usage(),
        },
        _ => usage(),
    }
}
