//! `scalewall-lint` CLI.
//!
//! ```text
//! scalewall-lint --workspace [--root DIR]   # tiered scan
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use scalewall_lint::{find_workspace_root, WorkspaceReport};

fn usage() -> ExitCode {
    eprintln!("usage: scalewall-lint --workspace [--root DIR]\nexit: 0 clean, 1 violations found, 2 usage/IO error");
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
    println!(
        "scalewall-lint: {} violation(s), {} file(s) scanned",
        report.violation_count(),
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
            // What D6 looked at: zero violations from a walk that resolved
            // no lock would not be a result.
            let census = &report.census;
            println!(
                "semantic census: {} functions walked, {} lock identities, {} calls under a held lock",
                census.fns_walked,
                census.lock_ids.len(),
                census.calls_under_lock
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
        _ => usage(),
    }
}
