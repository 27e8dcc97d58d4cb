//! `e2e`: the repo's benchmark.
//!
//! Four checkpoint/restart stories at the paper's 4 x 12 shape, each run
//! as one untimed warm-up repetition and then timed repetitions for
//! `--seconds`; every wall-derived metric is a quiet-machine estimate
//! over the timed repetitions (`report::quiet`). A traced run adds one
//! repetition under the span recorder and the per-layer probes. See
//! `README.md` for every metric.
//!
//! ```text
//! e2e [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!     [--workdir D] [--out D] [--selfcheck]
//! ```
//!
//! With `--workload` the last line of standard output is the one JSON
//! object the benchmark contract asks for. Without it all four workloads
//! run, each in a process of its own, exactly as the contract's driver
//! runs them. `--selfcheck` runs such sets alternately for two sides and compares the
//! sides' medians.

mod dirty_pages;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use report::Outcome;
use trace::Tracer;
use workloads::{timed_repetition, Kind, RepStats};

/// The default `--seed`. The README names a held-out seed that was not
/// used while the benchmark was written.
const DEFAULT_SEED: u64 = 20_250_311;

/// Fewest timed repetitions an estimate is taken over.
const MIN_REPS: usize = 3;
/// Most timed repetitions, however short they turn out to be.
const MAX_REPS: usize = 40;

/// Whether, and how, a run is traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trace {
    /// End-to-end metrics only.
    Off,
    /// Bare `--trace`: the full timed run, then the traced repetition
    /// and the layer probes.
    Full,
    /// `--trace 1`, the contract's traced run: only per-layer metrics are
    /// reported, so it times a third as long before tracing.
    LayersOnly,
}

#[derive(Debug, Clone)]
struct Options {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    workdir: PathBuf,
    out: PathBuf,
    selfcheck: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("e2e: {problem}");
    eprintln!(
        "usage: e2e [--workload osu_coll|wave_story|ckpt_storm|restart_read] [--seed N] \
         [--seconds S] [--trace [0|1]] [--workdir D] [--out D] [--selfcheck]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let here = Path::new("benches/e2e/out");
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 22.0,
        trace: Trace::Off,
        workdir: here.join("work"),
        out: here.to_path_buf(),
        selfcheck: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload");
                opts.workload = Some(
                    Kind::parse(&name).unwrap_or_else(|| usage(&format!("no workload {name}"))),
                );
            }
            "--seed" => {
                opts.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                opts.seconds = value("--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"));
            }
            "--trace" => {
                // `--trace 0|1` (the benchmark contract) or a bare flag.
                opts.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        Trace::Off
                    }
                    Some("1") => {
                        args.next();
                        Trace::LayersOnly
                    }
                    _ => Trace::Full,
                };
            }
            "--workdir" => opts.workdir = PathBuf::from(value("--workdir")),
            "--out" => opts.out = PathBuf::from(value("--out")),
            "--selfcheck" => opts.selfcheck = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    opts
}

/// Removes a work directory when the workload ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process so far, in MB. A per-layer metric,
/// not an end-to-end one: how many rank images and queued epochs overlap is
/// a matter of timing, and identical runs of `restart_read` peaked anywhere
/// from 300 to 420 MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Run one workload: set-up, warm-up, timed repetitions and - when
/// tracing - the traced repetition and the layer probes.
fn run_workload(kind: Kind, opts: &Options) -> Outcome {
    let layers_only = opts.trace == Trace::LayersOnly;
    let work = opts.workdir.join(kind.name());
    let _ = std::fs::remove_dir_all(&work);
    let _cleanup = WorkDir(work.clone());
    let mut off = Tracer::new(false);
    let mut story = workloads::build(kind, opts.seed);
    let mut outcome = Outcome::new(kind, opts.seed);

    // Set-up: reference runs, baselines, chain building, and one untimed
    // warm-up repetition (the first repetition of a process pays for
    // cold caches and first-touch allocation).
    let t_setup = Instant::now();
    let baselines = match story.setup(&work, &mut off) {
        Ok(baselines) => baselines,
        Err(why) => {
            println!("# FAILED: {}: set-up: {why}", kind.name());
            return Outcome::failed(kind, opts.seed);
        }
    };
    let mut rep_seq = 0;
    let mut repetition = |story: &mut dyn workloads::Story, tracer: &mut Tracer, keep: bool| {
        let dirs = work.join(format!("rep-{rep_seq}"));
        rep_seq += 1;
        let stats = timed_repetition(story, &dirs, tracer);
        if !keep {
            let _ = std::fs::remove_dir_all(&dirs);
        }
        (stats, dirs)
    };
    let (warm_up, _) = repetition(story.as_mut(), &mut off, false);
    let setup_s = t_setup.elapsed().as_secs_f64();
    outcome.count_ops(&warm_up);

    let budget = if layers_only {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let t_timed = Instant::now();
    let mut reps: Vec<RepStats> = Vec::new();
    while reps.len() < MAX_REPS
        && (reps.len() < MIN_REPS || t_timed.elapsed().as_secs_f64() < budget)
    {
        let (stats, _) = repetition(story.as_mut(), &mut off, false);
        outcome.count_ops(&stats);
        reps.push(stats);
    }
    outcome.timed_total_s = t_timed.elapsed().as_secs_f64();
    outcome.end_to_end = report::end_to_end(setup_s, &baselines, &reps);
    outcome.rep_wall_s = reps.iter().map(|r| r.wall_s).collect();
    if !layers_only {
        outcome.guard_short_run();
    }

    if opts.trace != Trace::Off {
        let mut tracer = Tracer::new(true);
        let layers = tracer.span(&format!("workload.{}", kind.name()), |t| {
            let (traced, dirs) = repetition(story.as_mut(), t, true);
            outcome.count_ops(&traced);
            // Read before the probes allocate buffers of their own.
            let peak_rss_mb = peak_rss_mb();
            let scratch = work.join("probes");
            let mut layers = probes::run_all(t, &scratch, &story.probe_chain(&dirs), &traced);
            let untraced = mpi_stool::simnet::median(&outcome.rep_wall_s);
            layers.put(
                "harness.trace_overhead_pct",
                (traced.wall_s - untraced) / untraced * 100.0,
                "%",
            );
            layers.put("harness.peak_rss_mb", peak_rss_mb, "MB");
            layers
        });
        outcome.per_layer = layers.0;
        let path = opts.out.join(format!("trace-{}.json", kind.name()));
        match tracer.write_chrome(&path) {
            Ok(()) => println!("# trace written to {}", path.display()),
            Err(e) => println!("# could not write {}: {e}", path.display()),
        }
    }
    outcome
}

/// Run every workload in a process of its own - a fresh heap and a fresh
/// peak-RSS reading each, as when the contract's driver runs them - and
/// read back what each wrote.
fn run_set(opts: &Options) -> Vec<Outcome> {
    let exe = std::env::current_exe().unwrap_or_else(|e| usage(&format!("current_exe: {e}")));
    let results = opts.out.join("results.json");
    Kind::ALL
        .into_iter()
        .map(|kind| {
            let _ = std::fs::remove_file(&results);
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", kind.name()])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .arg("--workdir")
                .arg(&opts.workdir)
                .arg("--out")
                .arg(&opts.out);
            if opts.trace != Trace::Off {
                child.arg("--trace");
            }
            // A child that fails exits non-zero but has still written
            // what it measured; one that wrote nothing counts as one
            // failed operation.
            if let Err(e) = child.status() {
                println!(
                    "# FAILED: {}: could not run {}: {e}",
                    kind.name(),
                    exe.display()
                );
            }
            std::fs::read_to_string(&results)
                .ok()
                .and_then(|text| stats::Json::parse(&text).ok())
                .and_then(|doc| Outcome::from_json(doc.get("workloads")?.items().first()?))
                .unwrap_or_else(|| Outcome::failed(kind, opts.seed))
        })
        .collect()
}

fn main() {
    let opts = parse_args();
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        usage(&format!("cannot create {}: {e}", opts.out.display()));
    }
    let ok = if opts.selfcheck {
        let rounds: Vec<Vec<Outcome>> = (0..2 * report::SELFCHECK_RUNS)
            .map(|_| run_set(&opts))
            .collect();
        report::selfcheck(&opts.out, &opts.workdir, &rounds)
    } else if let Some(kind) = opts.workload {
        let outcome = run_workload(kind, &opts);
        outcome.print_lines();
        report::write_results(&opts.out, &opts.workdir, std::slice::from_ref(&outcome));
        // The contract's result: the last line of standard output.
        println!("{}", outcome.contract_json(opts.trace != Trace::Off));
        outcome.correct()
    } else {
        let outcomes = run_set(&opts);
        report::write_results(&opts.out, &opts.workdir, &outcomes);
        outcomes.iter().all(Outcome::correct)
    };
    if !ok {
        std::process::exit(1);
    }
}
