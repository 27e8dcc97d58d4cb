//! scenario — the declarative fault-matrix runner.
//!
//! Reads a scenario matrix spec (see `benches/scenarios/matrix.toml` and
//! `docs/scenarios.md`), runs each selected row through
//! [`stool::run_scenario`], and emits one JSON object per row into a
//! `BENCH_matrix.json` that `benchgate --matrix` gates strictly.
//!
//! ```text
//! cargo run -p stool-bench --bin scenario -- --suite pr     # pinned CI subset
//! cargo run -p stool-bench --bin scenario -- --suite full   # nightly: every row
//! ```
//!
//! Exit codes: 0 = every selected scenario held its invariants, 1 = at
//! least one failed (the emit still contains the full results), 2 =
//! unusable spec or arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use stool::{matrix_json, parse_matrix, run_scenario, ScenarioResult, ScenarioSpec};
use stool_bench::matrix::app_for;

struct Args {
    spec: PathBuf,
    out: PathBuf,
    suite: String,
    workdir: PathBuf,
}

fn usage() -> ! {
    // lint:allow(no-eprintln) — runner tooling reports on stderr by design.
    eprintln!(
        "usage: scenario [--spec PATH] [--out PATH] [--suite pr|full] [--workdir DIR]\n\
         defaults: --spec benches/scenarios/matrix.toml --out BENCH_matrix.json \
         --suite pr --workdir target/scenarios"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: PathBuf::from("benches/scenarios/matrix.toml"),
        out: PathBuf::from("BENCH_matrix.json"),
        suite: "pr".into(),
        workdir: PathBuf::from("target/scenarios"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--spec" => args.spec = it.next().unwrap_or_else(|| usage()).into(),
            "--out" => args.out = it.next().unwrap_or_else(|| usage()).into(),
            "--suite" => args.suite = it.next().unwrap_or_else(|| usage()),
            "--workdir" => args.workdir = it.next().unwrap_or_else(|| usage()).into(),
            _ => usage(),
        }
    }
    if args.suite != "pr" && args.suite != "full" {
        usage();
    }
    args
}

fn run() -> Result<Vec<ScenarioResult>, String> {
    let args = parse_args();
    let text = std::fs::read_to_string(&args.spec)
        .map_err(|e| format!("cannot read {}: {e}", args.spec.display()))?;
    let specs = parse_matrix(&text).map_err(|e| format!("{}: {e}", args.spec.display()))?;
    // spec_scenarios is always the *full* matrix size, so the gate can hold
    // the ">= 24 scenarios" floor even when PR CI runs only the subset.
    let total = specs.len();
    let selected: Vec<&ScenarioSpec> = specs
        .iter()
        .filter(|s| args.suite == "full" || s.pr)
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "{}: suite '{}' selects no scenarios",
            args.spec.display(),
            args.suite
        ));
    }
    println!(
        "scenario: {} — running {} of {} rows (suite {})",
        args.spec.display(),
        selected.len(),
        total,
        args.suite
    );

    let mut results = Vec::with_capacity(selected.len());
    for spec in selected {
        let program = app_for(spec)?;
        let result = run_scenario(spec, program.as_ref(), &args.workdir);
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

    let json = matrix_json(&args.suite, total, &results);
    std::fs::write(&args.out, &json)
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!("scenario: wrote {}", args.out.display());
    Ok(results)
}

fn main() -> ExitCode {
    match run() {
        Err(msg) => {
            // lint:allow(no-eprintln) — runner tooling reports on stderr by design.
            eprintln!("scenario: FAIL (invalid input): {msg}");
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
