//! benchgate — the CI gate over the `BENCH_*.json` reports.
//!
//! Strictly validates the freshly emitted reports (a malformed emit fails
//! CI instead of uploading a broken artifact) and holds them against the
//! committed baselines under `benches/baselines/`, each through its table
//! in [`stool_bench::gate`].
//!
//! ```text
//! cargo run -p stool-bench --bin benchgate              # gate against baselines
//! cargo run -p stool-bench --bin benchgate -- --write-baselines   # refresh them
//! ```
//!
//! Exit codes: 0 = pass, 1 = regression, 2 = missing or malformed input.
//! See `docs/ci.md` for the workflow.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stool_bench::gate::{
    compare, read, GateOutcome, Json, Report, CKPT, FIGS, MATRIX, SCALE, TELEMETRY,
};

/// What a plain run gates. `--matrix PATH` gates [`MATRIX`] alone: the
/// perf gate and the correctness gate fail for different reasons and want
/// different remedies, so PR CI runs them as separately labelled steps.
const PERF: [&Report; 4] = [&CKPT, &SCALE, &TELEMETRY, &FIGS];

struct Args {
    reports: Vec<(&'static Report, PathBuf)>,
    baselines: PathBuf,
    write_baselines: bool,
}

fn usage() -> ! {
    // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
    eprintln!(
        "usage: benchgate [--ckpt|--scale|--telemetry|--figs PATH]... [--baselines DIR] \
         [--write-baselines]\n       benchgate --matrix PATH [--baselines DIR] [--write-baselines]\n\
         defaults: BENCH_<report>.json in the working directory, --baselines benches/baselines; \
         --matrix gates a scenario-matrix emit instead of the perf reports (docs/scenarios.md)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        reports: PERF.iter().map(|r| (*r, PathBuf::from(r.file()))).collect(),
        baselines: PathBuf::from("benches/baselines"),
        write_baselines: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-baselines" {
            args.write_baselines = true;
            continue;
        }
        let value = PathBuf::from(it.next().unwrap_or_else(|| usage()));
        let name = flag.strip_prefix("--").unwrap_or_else(|| usage());
        match args.reports.iter_mut().find(|(r, _)| r.name == name) {
            Some((_, path)) => *path = value,
            None if name == "matrix" => args.reports = vec![(&MATRIX, value)],
            None if name == "baselines" => args.baselines = value,
            None => usage(),
        }
    }
    args
}

fn read_report(report: &Report, path: &Path) -> Result<(String, Json), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = read(report, &text).map_err(|e| format!("{} is malformed: {e}", path.display()))?;
    Ok((text, doc))
}

fn run() -> Result<GateOutcome, String> {
    let args = parse_args();

    // Strict validation first: a fresh emit that does not parse is a CI
    // failure regardless of baselines, and must not refresh any of them.
    let mut fresh = Vec::new();
    for (report, path) in &args.reports {
        let (text, doc) = read_report(report, path)?;
        println!("benchgate: validated {}", path.display());
        fresh.push((*report, text, doc));
    }

    let mut out = GateOutcome::default();
    if args.write_baselines {
        std::fs::create_dir_all(&args.baselines)
            .map_err(|e| format!("cannot create {}: {e}", args.baselines.display()))?;
    }
    for (report, text, doc) in &fresh {
        let base_path = args.baselines.join(report.file());
        if args.write_baselines {
            std::fs::write(&base_path, text)
                .map_err(|e| format!("cannot write {}: {e}", base_path.display()))?;
            println!("benchgate: baseline refreshed at {}", base_path.display());
            continue;
        }
        let (_, base) = read_report(report, &base_path)?;
        let before = out.passed;
        compare(report, &mut out, &base, doc);
        println!(
            "benchgate: {}: {} gates held",
            report.name,
            out.passed - before
        );
    }
    Ok(out)
}

fn main() -> ExitCode {
    match run() {
        Err(msg) => {
            // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
            eprintln!("benchgate: FAIL (invalid input): {msg}");
            ExitCode::from(2)
        }
        Ok(out) => {
            for w in &out.warnings {
                println!("benchgate: warn: {w}");
            }
            if out.ok() {
                println!("benchgate: PASS — {} gates held", out.passed);
                ExitCode::SUCCESS
            } else {
                for r in &out.regressions {
                    // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
                    eprintln!("benchgate: REGRESSION: {r}");
                }
                // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
                eprintln!(
                    "benchgate: FAIL — {} regression(s); if intentional, refresh with \
                     `cargo run -p stool-bench --bin benchgate -- --write-baselines` \
                     and commit benches/baselines/",
                    out.regressions.len()
                );
                ExitCode::FAILURE
            }
        }
    }
}
