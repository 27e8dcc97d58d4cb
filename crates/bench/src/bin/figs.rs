//! figs — the paper's Figs. 2–6 and the ablations, as `BENCH_figs.json`.
//!
//! ```text
//! cargo run --release -p stool-bench --bin figs             # the gated default sweep
//! cargo run --release -p stool-bench --bin figs -- --full   # the paper's own protocol
//! ```
//!
//! The default sweep (4 × 12 ranks, 1 B – 64 KiB, noise off; ≈ 5 s) is
//! what `benchgate` holds, number for number, against
//! `benches/baselines/BENCH_figs.json` and against the paper's bands
//! ([`stool_bench::gate::FIGS`]). `--full` runs 1 B – 256 KiB at OSU's
//! iteration counts, five seeded-jitter repeats and the calibrated
//! Fig. 5 applications — the medians behind the paper-scale plots, tens
//! of minutes; its report carries `"sweep": "full"` and is not comparable
//! with the committed default baseline.

use std::process::ExitCode;

use stool_bench::figs::{collect, Sweep};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sweep = match args.as_slice() {
        [] => Sweep::paper(),
        [flag] if flag == "--full" => Sweep::full(),
        _ => {
            // lint:allow(no-eprintln) — usage goes to stderr by design.
            eprintln!("usage: figs [--full]");
            return ExitCode::from(2);
        }
    };
    let doc = collect(&sweep).expect("every figure runs to completion");
    std::fs::write("BENCH_figs.json", &doc).expect("write BENCH_figs.json");
    println!(
        "figs: wrote BENCH_figs.json ({} sweep, {} rows)",
        sweep.name,
        doc.lines().filter(|l| l.starts_with("    {")).count()
    );
    ExitCode::SUCCESS
}
