//! scenario — the fault-matrix runner.
//!
//! Runs every row of the committed matrix
//! ([`stool_bench::matrix::matrix`], see `docs/scenarios.md`) through
//! [`stool::run_scenario`], and emits one JSON object per row into a
//! `BENCH_matrix.json` that `benchgate --matrix` gates strictly.
//!
//! ```text
//! cargo run --release -p stool-bench --bin scenario
//! ```
//!
//! Exit codes: 0 = every scenario held its invariants, 1 = at least one
//! failed (the emit still contains the full results), 2 = unusable
//! arguments or an unwritable emit.

use std::path::PathBuf;
use std::process::ExitCode;

use stool::{matrix_json, run_scenario, ScenarioResult};
use stool_bench::matrix::{app_for, matrix};

struct Args {
    out: PathBuf,
    workdir: PathBuf,
}

fn usage() -> ! {
    // lint:allow(no-eprintln) — runner tooling reports on stderr by design.
    eprintln!(
        "usage: scenario [--out PATH] [--workdir DIR]\n\
         defaults: --out BENCH_matrix.json --workdir target/scenarios"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        out: PathBuf::from("BENCH_matrix.json"),
        workdir: PathBuf::from("target/scenarios"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => args.out = it.next().unwrap_or_else(|| usage()).into(),
            "--workdir" => args.workdir = it.next().unwrap_or_else(|| usage()).into(),
            _ => usage(),
        }
    }
    args
}

fn run() -> Result<Vec<ScenarioResult>, String> {
    let args = parse_args();
    let specs = matrix();
    println!("scenario: running {} rows", specs.len());

    let mut results = Vec::with_capacity(specs.len());
    for spec in &specs {
        let result = run_scenario(spec, app_for(spec).as_ref(), &args.workdir);
        let verdict = if result.passed() { "ok" } else { "FAILED" };
        println!(
            "scenario: {:<28} {} ({} kills, {} recovery rounds)",
            result.name, verdict, result.kills, result.recovery_rounds
        );
        for failure in &result.failures {
            // lint:allow(no-eprintln) — runner tooling reports on stderr by design.
            eprintln!("scenario: {}: {failure}", result.name);
        }
        results.push(result);
    }

    std::fs::write(&args.out, matrix_json(&results))
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!("scenario: wrote {}", args.out.display());
    Ok(results)
}

fn main() -> ExitCode {
    match run() {
        Err(msg) => {
            // lint:allow(no-eprintln) — runner tooling reports on stderr by design.
            eprintln!("scenario: FAIL: {msg}");
            ExitCode::from(2)
        }
        Ok(results) => {
            let failed = results.iter().filter(|r| !r.passed()).count();
            if failed == 0 {
                println!("scenario: PASS — all {} scenarios held", results.len());
                ExitCode::SUCCESS
            } else {
                // lint:allow(no-eprintln) — runner tooling reports on stderr by design.
                eprintln!(
                    "scenario: FAIL — {failed} of {} scenarios broke an invariant",
                    results.len()
                );
                ExitCode::FAILURE
            }
        }
    }
}
