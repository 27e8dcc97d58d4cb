//! `stoolint` — the workspace invariant linter.
//!
//! Scans `crates/**/*.rs` (plus `tests/`, `benches/`, `examples/`,
//! `src/`) and every reachable `Cargo.toml` against the rule set in
//! [`sanity::lint::default_rules`]. Findings and the per-crate table of
//! library code lines go to stderr human-readable and to stdout as one
//! JSON report; exit code mirrors `benchgate`: 0 clean, 2 on any
//! violation, 1 on a driver error.
//!
//! ```text
//! stoolint [--root DIR] [--list-rules] [--quiet]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use sanity::lint;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(dir) = args.next() else {
                    // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
                    eprintln!("stoolint: --root requires a directory");
                    return ExitCode::from(1);
                };
                root = PathBuf::from(dir);
            }
            "--quiet" => quiet = true,
            "--list-rules" => {
                for rule in lint::default_rules() {
                    println!("{:<22} {}", rule.name, rule.invariant);
                }
                let manifest_rule = "shims-only-deps";
                println!(
                    "{manifest_rule:<22} every dependency resolves to a workspace path (shims/ or crates/); no registry deps"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
                eprintln!(
                    "stoolint: unknown argument `{other}` (try --root DIR, --list-rules, --quiet)"
                );
                return ExitCode::from(1);
            }
        }
    }

    let report = match lint::lint_tree(&root) {
        Ok(r) => r,
        Err(e) => {
            // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
            eprintln!("stoolint: FAIL (driver error): {e}");
            return ExitCode::from(1);
        }
    };

    if !quiet {
        for f in &report.findings {
            // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
            eprintln!("stoolint: VIOLATION: {f}");
        }
        // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
        eprintln!(
            "stoolint: {} file(s), {} manifest(s), {} violation(s)",
            report.files_scanned,
            report.manifests_scanned,
            report.findings.len()
        );
        let total: usize = report.lines_by_crate.values().sum();
        for (name, lines) in &report.lines_by_crate {
            // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
            eprintln!("stoolint: {lines:>7} code lines  {name}");
        }
        // lint:allow(no-eprintln) — gate tooling reports on stderr by design.
        eprintln!("stoolint: {total:>7} code lines  (library total, tests excluded)");
    }
    println!("{}", report.to_json());
    ExitCode::from(report.exit_code() as u8)
}
