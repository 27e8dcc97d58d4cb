//! Turning repetitions into named metrics, and metrics into output:
//! `workload/name value unit` lines, the contract's JSON line,
//! `results.json`, and the repeatability self-check.

use std::fmt::Write as _;
use std::path::Path;

use mpi_stool::simnet::median;

use crate::stats::{json_number, json_string, quartiles, Json};
use crate::workloads::{Baselines, Kind, RepStats};

/// A repetition shorter than this cannot resolve a 10 % change on a
/// shared 2-core box.
const MIN_REP_S: f64 = 1.0;
/// Least timed work per run.
const MIN_TIMED_TOTAL_S: f64 = 5.0;

/// End-to-end metrics that are deterministic counts or virtual times: two
/// runs with one seed must agree on them exactly.
const EXACT: [&str; 5] = [
    "virt_s",
    "overhead_pct",
    "ckpt_overhead_pct",
    "stored_bytes_per_image_byte",
    "tier_bytes_per_image_byte",
];

/// One named number: its value - the median over the timed repetitions,
/// or for a wall-derived metric the quiet-machine estimate - and the
/// repetitions' quartiles (all three equal for a number measured once per
/// run).
#[derive(Debug, Clone)]
pub struct Quantity {
    /// Fixed metric name.
    pub name: String,
    /// Unit string, as in `BENCHMARK.json`.
    pub unit: String,
    /// Median, or quiet-machine estimate.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quantity {
    /// A number measured once.
    pub fn exact(name: &str, unit: &str, value: f64) -> Quantity {
        Quantity {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            q1: value,
            q3: value,
        }
    }

    /// The median and quartiles of one value per repetition.
    fn over(name: &str, unit: &str, per_rep: &[f64]) -> Quantity {
        let (q1, q3) = quartiles(per_rep);
        Quantity {
            name: name.to_string(),
            unit: unit.to_string(),
            value: median(per_rep),
            q1,
            q3,
        }
    }
}

/// The quiet-machine estimate of a time sampled once per repetition: the
/// fastest sample. Other tenants of the host slow whole stretches of a
/// run by 1.3-2x (nothing in the guest reports it) and never speed one
/// up, so the fast end of the samples is what repeats from run to run;
/// the median does not.
pub fn quiet(samples: impl Iterator<Item = f64>) -> f64 {
    samples.fold(f64::INFINITY, f64::min)
}

/// The quiet-machine wall time of one story: every piece of a repetition
/// (each public call into a session, and the rest) gets its own
/// [`quiet`] estimate over the repetitions, and the pieces are summed. A
/// piece needs a quiet stretch only as long as itself, not as long as a
/// repetition. `only_restores` keeps the `restore_from_store` pieces
/// alone.
fn quiet_story_s(reps: &[RepStats], only_restores: bool) -> f64 {
    // A repetition that aborted has fewer pieces (and is a failed
    // operation already).
    let shape = reps.iter().map(|r| r.pieces.len()).max().unwrap_or(0);
    let whole: Vec<&RepStats> = reps.iter().filter(|r| r.pieces.len() == shape).collect();
    (0..shape)
        .filter(|&j| !only_restores || whole[0].pieces[j].restore)
        .map(|j| quiet(whole.iter().map(|r| r.pieces[j].wall_s)))
        .sum()
}

/// The end-to-end metrics of one run. Two of the issue's twelve are
/// elsewhere: `failed_ops_pct` is [`Outcome::failed_ops_pct`] (always 0
/// on a good run, so the contract carries it as `attempted`/`failed` and
/// not as a bounded metric), and peak RSS is the per-layer metric
/// `harness.peak_rss_mb` (timing decides it, not the code).
///
/// A wall-derived metric's value is built on [`quiet_story_s`]; its
/// quartiles are those of the whole repetitions, so `results.json` shows
/// how far the run was from quiet.
pub fn end_to_end(setup_s: f64, base: &Baselines, reps: &[RepStats]) -> Vec<Quantity> {
    let per_rep = |f: &dyn Fn(&RepStats) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let story_s = quiet_story_s(reps, false);
    // The same counts every repetition: what one story sends and moves.
    let msgs = median(&per_rep(&|r| r.msgs as f64));
    let image_mb = median(&per_rep(&|r| {
        (r.image_bytes_committed() + r.image_bytes_restored) as f64 / 1e6
    }));
    let restarts = median(&per_rep(&|r| r.restarts as f64));
    let quiet_over = |name: &str, unit: &str, value: f64, per_rep: &[f64]| Quantity {
        value,
        ..Quantity::over(name, unit, per_rep)
    };
    vec![
        Quantity::exact("setup_s", "s", setup_s),
        quiet_over("wall_s", "s", story_s, &per_rep(&|r| r.wall_s)),
        Quantity::over("virt_s", "s", &per_rep(&|r| r.virt_s)),
        Quantity::exact(
            "overhead_pct",
            "%",
            (base.full_s - base.native_s) / base.native_s * 100.0,
        ),
        Quantity::exact(
            "ckpt_overhead_pct",
            "%",
            (base.ckpt_s - base.full_s) / base.full_s * 100.0,
        ),
        quiet_over(
            "msgs_per_s",
            "1/s",
            msgs / story_s,
            &per_rep(&|r| r.msgs as f64 / r.wall_s),
        ),
        quiet_over(
            "image_mb_per_s",
            "MB/s",
            image_mb / story_s,
            &per_rep(&|r| {
                (r.image_bytes_committed() + r.image_bytes_restored) as f64 / 1e6 / r.wall_s
            }),
        ),
        quiet_over(
            "restart_s",
            "s",
            quiet_story_s(reps, true) / restarts,
            &per_rep(&|r| r.restart_wall_s / r.restarts as f64),
        ),
        Quantity::over(
            "stored_bytes_per_image_byte",
            "B/B",
            &per_rep(&|r| r.chain_bytes as f64 / r.chain_image_bytes() as f64),
        ),
        Quantity::over(
            "tier_bytes_per_image_byte",
            "B/B",
            &per_rep(&|r| r.tier_bytes as f64 / r.chain_image_bytes() as f64),
        ),
    ]
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Which workload.
    pub kind: Kind,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Wall time of the timed repetitions together.
    pub timed_total_s: f64,
    /// Wall time of each timed repetition.
    pub rep_wall_s: Vec<f64>,
    /// End-to-end metrics (empty if set-up failed).
    pub end_to_end: Vec<Quantity>,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Vec<Quantity>,
    /// Operations attempted, warm-up and traced repetitions included.
    pub ops_total: u64,
    /// Operations failed.
    pub ops_failed: u64,
    /// The run is too short to resolve what the bounds claim.
    pub short_run: bool,
}

impl Outcome {
    /// An empty outcome.
    pub fn new(kind: Kind, seed: u64) -> Outcome {
        Outcome {
            kind,
            seed,
            timed_total_s: 0.0,
            rep_wall_s: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            ops_total: 0,
            ops_failed: 0,
            short_run: false,
        }
    }

    /// The outcome of a run that measured nothing: one failed operation.
    pub fn failed(kind: Kind, seed: u64) -> Outcome {
        Outcome {
            ops_total: 1,
            ops_failed: 1,
            ..Outcome::new(kind, seed)
        }
    }

    /// Failed operations as a share of those attempted (launches,
    /// restarts, sealed- and shipped-epoch expectations, bit-identity
    /// checks; warm-up and traced repetitions included).
    pub fn failed_ops_pct(&self) -> f64 {
        self.ops_failed as f64 / self.ops_total.max(1) as f64 * 100.0
    }

    /// Add a repetition's operations to the run's totals.
    pub fn count_ops(&mut self, rep: &RepStats) {
        self.ops_total += rep.ops_total;
        self.ops_failed += rep.ops_failed;
    }

    /// Every operation succeeded and every metric was measured.
    pub fn correct(&self) -> bool {
        self.ops_failed == 0 && self.ops_total > 0 && !self.end_to_end.is_empty()
    }

    /// Flag a run whose timed region cannot carry its bounds: the failure
    /// of the first attempt at a repo benchmark (0.13-0.90 s single shots
    /// behind 2-3 s of set-up).
    pub fn guard_short_run(&mut self) {
        if self.rep_wall_s.is_empty() {
            return;
        }
        let name = self.kind.name();
        let median_rep = median(&self.rep_wall_s);
        let setup_s = self.metric("setup_s").map_or(0.0, |q| q.value);
        let mut warn = |why: String| {
            self.short_run = true;
            println!("# WARNING: {name}: short run: {why}");
        };
        if median_rep < MIN_REP_S {
            warn(format!(
                "median repetition {median_rep:.3} s < {MIN_REP_S} s"
            ));
        }
        if self.timed_total_s < MIN_TIMED_TOTAL_S {
            warn(format!(
                "timed total {:.3} s < {MIN_TIMED_TOTAL_S} s",
                self.timed_total_s
            ));
        }
        if setup_s > self.timed_total_s {
            warn(format!(
                "set-up {setup_s:.3} s exceeds the timed total {:.3} s",
                self.timed_total_s
            ));
        }
    }

    /// `workload/name value unit`, one line per metric.
    pub fn print_lines(&self) {
        let name = self.kind.name();
        for q in self.end_to_end.iter().chain(&self.per_layer) {
            println!("{name}/{} {} {}", q.name, json_number(q.value), q.unit);
        }
        println!(
            "{name}/failed_ops_pct {} %",
            json_number(self.failed_ops_pct())
        );
        println!("{name}/reps {} count", self.rep_wall_s.len());
        println!("{name}/ops_total {} count", self.ops_total);
        println!("{name}/ops_failed {} count", self.ops_failed);
        println!("{name}/short_run {} bool", self.short_run);
    }

    /// The contract's one JSON object: end-to-end metrics for an untraced
    /// run, per-layer metrics for a traced one.
    pub fn contract_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|q| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&q.name),
                    json_number(q.value),
                    json_string(&q.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops_total.max(1),
            self.ops_failed,
            body.join(", ")
        )
    }

    /// Read back one workload object of `results.json` (what a child
    /// process wrote).
    pub fn from_json(doc: &Json) -> Option<Outcome> {
        let number = |key: &str| doc.get(key).and_then(Json::as_f64);
        let quantities = |key: &str| -> Option<Vec<Quantity>> {
            doc.get(key)?
                .members()
                .iter()
                .map(|(name, q)| {
                    Some(Quantity {
                        name: name.clone(),
                        unit: q.get("unit")?.as_str()?.to_string(),
                        // A number that was not finite is written `null`.
                        value: q.get("value")?.as_f64().unwrap_or(f64::NAN),
                        q1: q.get("q1")?.as_f64().unwrap_or(f64::NAN),
                        q3: q.get("q3")?.as_f64().unwrap_or(f64::NAN),
                    })
                })
                .collect()
        };
        Some(Outcome {
            kind: Kind::parse(doc.get("name")?.as_str()?)?,
            seed: number("seed")? as u64,
            timed_total_s: number("timed_total_s")?,
            rep_wall_s: doc
                .get("rep_wall_s")?
                .items()
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
            end_to_end: quantities("end_to_end")?,
            per_layer: quantities("per_layer")?,
            ops_total: number("ops_total")? as u64,
            ops_failed: number("ops_failed")? as u64,
            short_run: doc.get("short_run")? == &Json::Bool(true),
        })
    }

    fn metric(&self, name: &str) -> Option<&Quantity> {
        self.end_to_end.iter().find(|q| q.name == name)
    }

    fn json(&self) -> String {
        let quantities = |qs: &[Quantity]| {
            let body: Vec<String> = qs
                .iter()
                .map(|q| {
                    format!(
                        "      {}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}}}",
                        json_string(&q.name),
                        json_number(q.value),
                        json_string(&q.unit),
                        json_number(q.q1),
                        json_number(q.q3)
                    )
                })
                .collect();
            format!("{{\n{}\n    }}", body.join(",\n"))
        };
        let walls: Vec<String> = self.rep_wall_s.iter().map(|w| json_number(*w)).collect();
        format!(
            "  {{\n    \"name\": {},\n    \"seed\": {},\n    \"reps\": {},\n    \
             \"rep_wall_s\": [{}],\n    \"timed_total_s\": {},\n    \"ops_total\": {},\n    \
             \"ops_failed\": {},\n    \"short_run\": {},\n    \"end_to_end\": {},\n    \
             \"per_layer\": {}\n  }}",
            json_string(self.kind.name()),
            self.seed,
            self.rep_wall_s.len(),
            walls.join(", "),
            json_number(self.timed_total_s),
            self.ops_total,
            self.ops_failed,
            self.short_run,
            quantities(&self.end_to_end),
            quantities(&self.per_layer),
        )
    }
}

/// Filesystem type of the mount `dir` lives on.
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            // "... <mount point> <options> ... - <fs type> <source> ..."
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split_whitespace().nth(4)?;
            dir.starts_with(mount_point)
                .then(|| (mount_point.len(), right.split_whitespace().next()))
        })
        .max_by_key(|(len, _)| *len)
        .and_then(|(_, fs)| fs)
        .unwrap_or("unknown")
        .to_string()
}

fn machine_json(workdir: &Path) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The work directory is gone once the workloads end; its parent is on
    // the same mount.
    let probe = workdir
        .ancestors()
        .find(|p| p.exists())
        .unwrap_or(Path::new("."));
    format!(
        "{{\"cores\": {cores}, \"workdir_fs\": {}}}",
        json_string(&fs_type(probe))
    )
}

/// Write `results.json`.
pub fn write_results(out: &Path, workdir: &Path, outcomes: &[Outcome]) {
    let body: Vec<String> = outcomes.iter().map(Outcome::json).collect();
    let text = format!(
        "{{\n\"machine\": {},\n\"workloads\": [\n{}\n]\n}}\n",
        machine_json(workdir),
        body.join(",\n")
    );
    let path = out.join("results.json");
    match std::fs::write(&path, text) {
        Ok(()) => println!("# results written to {}", path.display()),
        Err(e) => println!("# could not write {}: {e}", path.display()),
    }
}

/// Regression bounds by metric name, from the repo's `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = Json::parse(&text)?;
    doc.get("end_to_end")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name/bound".to_string())
        })
        .collect()
}

/// How many runs of each workload make one side of the self-check.
pub const SELFCHECK_RUNS: usize = 3;

/// Compare two sides of the same code. `rounds` holds complete sets of
/// runs, alternately first side, second side (alternating, so a machine
/// that drifts drifts under both). A side's value for a metric is the
/// median over its runs, as the contract's driver takes medians over its
/// ten; every pair must agree within its bound (exact metrics: every run
/// must agree exactly), no operation may have failed and no run may be
/// short. Writes `REPEATABILITY.md`.
pub fn selfcheck(out: &Path, workdir: &Path, rounds: &[Vec<Outcome>]) -> bool {
    let bounds = match bounds() {
        Ok(bounds) => bounds,
        Err(why) => {
            println!("# FAILED: selfcheck: {why}");
            return false;
        }
    };
    let mut ok = true;
    let mut md = format!(
        "# Repeatability\n\nTwo sides of the same code and seed (`run.sh --selfcheck`): \
         {SELFCHECK_RUNS} runs of every workload each, every run a process of its own, the \
         sides alternating. A cell is `median [q1, q3]` over a side's runs of the run's own \
         value (for a wall-derived metric the quiet-machine estimate: fastest sample per \
         piece, summed); `diff` is `|second - first| / first`. \
         Exact metrics must be equal in every run.\n\nMachine: `{}`\n\n",
        machine_json(workdir)
    );
    for (index, kind) in Kind::ALL.into_iter().enumerate() {
        let name = kind.name();
        // This workload's runs, split by side.
        let side = |parity: usize| -> Vec<&Outcome> {
            rounds
                .iter()
                .skip(parity)
                .step_by(2)
                .filter_map(|set| set.get(index))
                .collect()
        };
        let (first, second) = (side(0), side(1));
        let all = || first.iter().chain(&second);
        let _ = writeln!(
            md,
            "## {name}\n\nseed {}, timed repetitions per run {:?}, operations failed {} of {}\n",
            first[0].seed,
            all().map(|o| o.rep_wall_s.len()).collect::<Vec<_>>(),
            all().map(|o| o.ops_failed).sum::<u64>(),
            all().map(|o| o.ops_total).sum::<u64>(),
        );
        md.push_str("| metric | unit | first | second | diff | bound | verdict |\n");
        md.push_str("|---|---|---|---|---|---|---|\n");
        if all().any(|o| !o.correct() || o.short_run) {
            ok = false;
            println!("# FAILED: selfcheck: {name}: failed operations or a short run");
        }
        for (metric, bound) in &bounds {
            let values = |runs: &[&Outcome]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|o| o.metric(metric))
                    .map(|q| q.value)
                    .collect()
            };
            let (x, y) = (values(&first), values(&second));
            if x.len() != first.len() || y.len() != second.len() || x.is_empty() || y.is_empty() {
                ok = false;
                println!("# FAILED: selfcheck: {name}/{metric} was not reported by every run");
                continue;
            }
            let unit = first[0].metric(metric).map_or("", |q| q.unit.as_str());
            let exact = EXACT.contains(&metric.as_str());
            let diff = (median(&y) - median(&x)).abs() / median(&x).abs();
            let pass = if exact {
                x.iter().chain(&y).all(|v| *v == x[0])
            } else {
                diff <= *bound
            };
            if !pass {
                ok = false;
                println!(
                    "# FAILED: selfcheck: {name}/{metric}: {} vs {} (bound {bound})",
                    median(&x),
                    median(&y)
                );
            }
            let cell = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                if q1 == q3 {
                    format!("{:.6}", median(v))
                } else {
                    format!("{:.6} [{q1:.6}, {q3:.6}]", median(v))
                }
            };
            let _ = writeln!(
                md,
                "| {metric} | {unit} | {} | {} | {:.2} % | {} | {} |",
                cell(&x),
                cell(&y),
                diff * 100.0,
                if exact {
                    "equal".to_string()
                } else {
                    format!("{:.0} %", bound * 100.0)
                },
                if pass { "ok" } else { "FAILED" }
            );
        }
        md.push('\n');
    }
    let _ = writeln!(md, "Verdict: {}", if ok { "PASS" } else { "FAIL" });
    let path = out.join("REPEATABILITY.md");
    match std::fs::write(&path, md) {
        Ok(()) => println!("# selfcheck report written to {}", path.display()),
        Err(e) => println!("# could not write {}: {e}", path.display()),
    }
    if let Some(last) = rounds.last() {
        write_results(out, workdir, last);
    }
    println!("# selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    ok
}
