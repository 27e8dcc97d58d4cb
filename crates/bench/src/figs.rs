//! The paper's evaluation (§5, Figs. 2–6) and the ablations behind it, as
//! one data set: [`collect`] runs every experiment and returns the
//! `BENCH_figs.json` document that the `figs` bin writes, `benchgate`
//! holds to [`crate::gate::FIGS`], and `tests/overhead_bounds.rs` asserts
//! the paper's claims on.
//!
//! `points` holds one plotted point per row — `figure`, `series` (one
//! line of the figure), `x`, `y`, `unit` — where `x` is the message size
//! in bytes unless noted:
//!
//! | figure | series |
//! |---|---|
//! | `fig2_alltoall`, `fig3_bcast`, `fig4_allreduce` | per vendor: OSU latency `native` and under the `full` stack (µs), and the `overhead` between them (%) |
//! | `fig5_comd`, `fig5_wave_mpi` | the same three for the applications' completion time (s); `x` = time steps |
//! | `fig6_restart` | checkpoint under Open MPI, restart under MPICH: the two uninterrupted launches, `restarted` from memory and `restarted from store` |
//! | `layers` | MPICH alltoall `native`, `+muk`, `+mana`, `+muk+mana`: which layer costs what |
//! | `fsgsbase` | Fig. 3 again on a kernel ≥ 5.9 (the overhead's stated cause), and what that `saved` of the full-stack latency |
//! | `algorithms` | native MPICH over native Open MPI (a `ratio`) per figure: the collective algorithm families on one network model |
//! | `drain` | image size and checkpoint time vs `x` = messages in flight |
//! | `detred` | µs per allreduce of `x` doubles, and whether the vendors' sums are `bitwise equal`, under `vendor` and `canonical` rank-ordered reduction |
//!
//! `claims` (one row per vendor) and `restart` hold the §5.1–5.3
//! percentages that the gate's table keeps inside the paper's bands.

use std::sync::atomic::{AtomicUsize, Ordering};

use mpi_abi::{Datatype, Handle, ReduceOp};
use mpi_apps::{CoMdMini, OsuKernel, OsuLatency, WaveMpi};
use simnet::{median, ClusterSpec, KernelVersion, NoiseModel, VirtualTime};
use stool::{AppCtx, Checkpointer, CkptMode, MpiProgram, RunOutcome, Session, StoolResult, Vendor};

/// How much of the evaluation one [`collect`] runs.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The report's `sweep` tag.
    pub name: &'static str,
    /// Cluster shape: nodes, ranks per node.
    pub shape: (usize, usize),
    /// Largest OSU message size in bytes.
    pub max_size: usize,
    /// OSU warmup and timed iterations per size.
    pub iters: (usize, usize),
    /// Runs per configuration; the report holds their medians. More than
    /// one turns the seeded jitter on (the paper's error bars), one runs
    /// noise-free.
    pub repeats: u64,
    /// Fig. 5's CoMD.
    pub comd: CoMdMini,
    /// Fig. 5's wave_mpi.
    pub wave: WaveMpi,
}

impl Sweep {
    /// The gated default: the paper's 4 × 12 testbed, 1 B – 64 KiB, one
    /// noise-free run of each configuration.
    pub fn paper() -> Sweep {
        Sweep {
            name: "default",
            shape: (4, 12),
            max_size: 64 * 1024,
            iters: (1, 3),
            repeats: 1,
            comd: CoMdMini {
                nsteps: 10,
                ..CoMdMini::default()
            },
            // 100 grid points per rank per step, as in the original
            // wave_mpi defaults: a realistic compute-to-communication
            // ratio.
            wave: WaveMpi {
                npoints: 4800,
                nsteps: 200,
                gather_final: false,
                ..WaveMpi::default()
            },
        }
    }

    /// The paper's own protocol: 1 B – 256 KiB, OSU's iteration counts,
    /// five jittered repeats. The applications are calibrated to Fig. 5's
    /// *ratios*: CoMD's compute/communication mix sets MPICH / Open MPI
    /// ≈ 1.25 ×, and wave_mpi's latency-bound halo feels MPICH's
    /// small-message latency for the ≈ 3 × gap; step counts are ≈ 4 ×
    /// below the paper's absolute scale, which the ratios do not feel.
    pub fn full() -> Sweep {
        Sweep {
            name: "full",
            max_size: 256 * 1024,
            iters: (10, 100),
            repeats: 5,
            comd: CoMdMini {
                nx: 24,
                nsteps: 480,
                ns_per_pair: 13.7,
                ..CoMdMini::default()
            },
            wave: WaveMpi {
                npoints: 12_000,
                nsteps: 6_000,
                ..WaveMpi::default()
            },
            ..Sweep::paper()
        }
    }

    fn cluster(&self, kernel: KernelVersion, repeat: u64, sigma: f64) -> ClusterSpec {
        let mut spec = ClusterSpec::builder()
            .nodes(self.shape.0)
            .ranks_per_node(self.shape.1)
            .kernel(kernel)
            .build();
        if self.repeats > 1 {
            spec.noise = NoiseModel::with_sigma(sigma, 0xC0FFEE ^ repeat.wrapping_mul(0x9E37));
        }
        spec
    }

    fn osu(&self, fig: &Figure) -> OsuLatency {
        OsuLatency {
            kernel: fig.kernel,
            min_size: fig.min_size,
            max_size: self.max_size,
            warmup: self.iters.0,
            iters: self.iters.1,
            ckpt_window: None,
        }
    }
}

/// One of Figs. 2–4.
struct Figure {
    name: &'static str,
    kernel: OsuKernel,
    /// Jitter σ under repeats (the paper remarks on allreduce's larger
    /// deviation).
    sigma: f64,
    /// Smallest message (allreduce sums doubles).
    min_size: usize,
}

const fn figure(name: &'static str, kernel: OsuKernel, sigma: f64, min_size: usize) -> Figure {
    Figure {
        name,
        kernel,
        sigma,
        min_size,
    }
}

const FIGURES: [Figure; 3] = [
    figure("fig2_alltoall", OsuKernel::Alltoall, 0.06, 1),
    figure("fig3_bcast", OsuKernel::Bcast, 0.06, 1),
    figure("fig4_allreduce", OsuKernel::Allreduce, 0.10, 8),
];
const FIG2: usize = 0;
const FIG3: usize = 1;
const FIG4: usize = 2;

const VENDORS: [Vendor; 2] = [Vendor::Mpich, Vendor::OpenMpi];

/// Jitter σ of the Fig. 5 application runs under repeats.
const APP_SIGMA: f64 = 0.08;

/// A session with the Mukautuva shim and the MANA checkpointer each on
/// or off; both off is the native configuration, both on the full stack.
fn session(cluster: ClusterSpec, vendor: Vendor, muk: bool, mana: bool) -> StoolResult<Session> {
    let mut b = Session::builder().cluster(cluster).vendor(vendor);
    if !muk {
        b = b.native_abi();
    }
    if mana {
        b = b.checkpointer(Checkpointer::mana());
    }
    b.build()
}

fn latencies(out: &RunOutcome) -> StoolResult<Vec<f64>> {
    Ok(out.memories()?[0]
        .f64s("osu.lat_us")
        .expect("an OSU run records its latencies")
        .to_vec())
}

/// Per-index medians over repeats.
fn medians(runs: &[Vec<f64>]) -> Vec<f64> {
    (0..runs[0].len())
        .map(|i| median(&runs.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

fn max_of(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::NEG_INFINITY, f64::max)
}

/// The plotted points, one JSON row each.
#[derive(Default)]
struct Points(Vec<String>);

impl Points {
    fn push(&mut self, figure: &str, series: &str, unit: &str, x: usize, y: f64) {
        self.0.push(format!(
            "{{\"figure\": {figure:?}, \"series\": {series:?}, \"x\": {x}, \"y\": {y}, \"unit\": {unit:?}}}"
        ));
    }

    /// One line of a figure.
    fn curve(&mut self, figure: &str, series: &str, unit: &str, xs: &[usize], ys: &[f64]) {
        for (&x, &y) in xs.iter().zip(ys) {
            self.push(figure, series, unit, x, y);
        }
    }

    /// A vendor's three lines of a figure: `native`, under the `full`
    /// stack, and the relative `overhead` between them in percent, which
    /// is returned.
    fn stack(
        &mut self,
        figure: &str,
        vendor: Vendor,
        unit: &str,
        xs: &[usize],
        (native, full): (&[f64], &[f64]),
    ) -> Vec<f64> {
        let pairs = native.iter().zip(full);
        let pct: Vec<f64> = pairs.map(|(a, b)| (b / a - 1.0) * 100.0).collect();
        for (what, unit, ys) in [
            ("native", unit, native),
            ("full", unit, full),
            ("overhead", "pct", &pct),
        ] {
            self.curve(figure, &format!("{} {what}", vendor.name()), unit, xs, ys);
        }
        pct
    }
}

/// Leaves a controlled number of messages in flight at the checkpoint:
/// rank 0 sends them, rank 1 receives them only after the restart.
struct InFlight {
    in_flight: usize,
}

const IN_FLIGHT_BYTES: usize = 4096;

impl MpiProgram for InFlight {
    fn name(&self) -> &'static str {
        "drain-ablation"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let byte = Datatype::Byte.handle();
        if app.resume_step() == 0 {
            if app.rank() == 0 {
                let payload = vec![0xABu8; IN_FLIGHT_BYTES];
                for i in 0..self.in_flight {
                    app.mpi()
                        .send(&payload, byte, 1, i as i32, Handle::COMM_WORLD)?;
                }
            }
            if app.checkpoint_point(1)?.is_stop() {
                return Ok(());
            }
        }
        if app.rank() == 1 {
            let mut buf = vec![0u8; IN_FLIGHT_BYTES];
            for i in 0..self.in_flight {
                app.mpi()
                    .recv(&mut buf, byte, 0, i as i32, Handle::COMM_WORLD)?;
            }
        }
        Ok(())
    }
}

/// Sums an adversarial vector [`REDUCE_ITERS`] times and records a bit-exact
/// fingerprint of the result and the time per call.
struct ReduceBench {
    elems: usize,
}

const REDUCE_ITERS: usize = 10;

impl MpiProgram for ReduceBench {
    fn name(&self) -> &'static str {
        "detred-ablation"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        // Pseudo-random contributions spread over ~40 decades of
        // magnitude and both signs: sums of very different exponents
        // round differently under every association order, so any two
        // reduction trees disagree in the last bits of some element.
        let mut state = (app.rank() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let send: Vec<u8> = (0..self.elems)
            .flat_map(|_| {
                let r = next();
                let mantissa = (r >> 12) as f64 / (1u64 << 52) as f64;
                let exp = ((r >> 4) % 41) as i32 - 20;
                let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
                (sign * mantissa * 10f64.powi(exp)).to_le_bytes()
            })
            .collect();
        let t0 = app.now();
        let mut recv = vec![0u8; send.len()];
        for _ in 0..REDUCE_ITERS {
            app.mpi().allreduce(
                &send,
                &mut recv,
                Datatype::Double.handle(),
                ReduceOp::Sum.handle(),
                Handle::COMM_WORLD,
            )?;
        }
        let us_per_call = (app.now() - t0).as_micros_f64() / REDUCE_ITERS as f64;
        let fingerprint = recv.chunks_exact(8).fold(0u64, |acc, c| {
            acc.rotate_left(7) ^ u64::from_le_bytes(c.try_into().expect("8 bytes"))
        });
        app.mem.set_u64("detred.fingerprint", fingerprint);
        app.mem.set_f64("detred.us_per_call", us_per_call);
        Ok(())
    }
}

/// Run every figure and ablation of `sweep` and return the
/// `BENCH_figs.json` document. Every number is virtual time, so two
/// collections of one sweep are byte-identical.
pub fn collect(sweep: &Sweep) -> StoolResult<String> {
    // Per-index medians of one experiment over the sweep's repeats, each
    // on its own (jittered, when there are several) cluster.
    type Run<'r> = &'r dyn Fn(ClusterSpec) -> StoolResult<Vec<f64>>;
    let repeated = |kernel: KernelVersion, sigma: f64, run: Run| {
        let runs = (0..sweep.repeats).map(|rep| run(sweep.cluster(kernel, rep, sigma)));
        let runs: StoolResult<Vec<Vec<f64>>> = runs.collect();
        runs.map(|runs| medians(&runs))
    };
    // One OSU sweep: latency (µs) per message size.
    let osu = |fig: &Figure, kernel: KernelVersion, vendor: Vendor, muk: bool, mana: bool| {
        let bench = sweep.osu(fig);
        repeated(kernel, fig.sigma, &|cluster| {
            latencies(&session(cluster, vendor, muk, mana)?.launch(&bench)?)
        })
    };
    // One application run: completion time (s), as a one-point line.
    let makespan = |program: &dyn MpiProgram, vendor: Vendor, full: bool| {
        repeated(KernelVersion::CENTOS7, APP_SIGMA, &|cluster| {
            let out = session(cluster, vendor, full, full)?.launch(program)?;
            Ok(vec![out.makespan().as_secs_f64()])
        })
    };
    let quiet = sweep.cluster(KernelVersion::CENTOS7, 0, 0.0);
    let sizes = |fig: &Figure| sweep.osu(fig).sizes();
    let mut points = Points::default();

    // Figs. 2–4: [figure][vendor] = per-size latencies, native and under
    // the full stack, and the overhead between them. The native pair is
    // also the algorithm ablation: both vendors on the identical cluster
    // model differ only in their collective algorithms and per-message
    // software costs — why the paper's figures show two curve families.
    let (mut native, mut full, mut pct) = (Vec::new(), Vec::new(), Vec::new());
    for fig in &FIGURES {
        let run = |on: bool| -> StoolResult<Vec<Vec<f64>>> {
            let per_vendor = VENDORS.map(|v| osu(fig, KernelVersion::CENTOS7, v, on, on));
            per_vendor.into_iter().collect()
        };
        let (bare, stacked) = (run(false)?, run(true)?);
        let both = |v: usize| (&bare[v][..], &stacked[v][..]);
        pct.push([0, 1].map(|v| points.stack(fig.name, VENDORS[v], "us", &sizes(fig), both(v))));
        let ratio: Vec<f64> = bare[0].iter().zip(&bare[1]).map(|(m, o)| m / o).collect();
        points.curve("algorithms", fig.name, "ratio", &sizes(fig), &ratio);
        native.push(bare);
        full.push(stacked);
    }

    // Fig. 5: [vendor][CoMD, wave_mpi] = overhead.
    let mut app_pct = Vec::new();
    for vendor in VENDORS {
        let apps: [(&str, u64, &dyn MpiProgram); 2] = [
            ("fig5_comd", sweep.comd.nsteps, &sweep.comd),
            ("fig5_wave_mpi", sweep.wave.nsteps, &sweep.wave),
        ];
        for (figure, steps, program) in apps {
            let (bare, stacked) = (
                makespan(program, vendor, false)?,
                makespan(program, vendor, true)?,
            );
            let pct = points.stack(figure, vendor, "s", &[steps as usize], (&bare, &stacked));
            app_pct.push(pct[0]);
        }
    }

    // Fig. 6: the modified alltoall (a sleep window after warmup) is
    // launched under Open MPI + Mukautuva + MANA, checkpointed in the
    // window (safe-point step 1 is the first point after it), stopped,
    // and restarted under MPICH — once from the in-memory image, once
    // from the delta store's on-disk chain. The two uninterrupted
    // reference curves are Fig. 2's full-stack series: the window moves
    // every rank's clock by the same span, so the modified benchmark
    // measures the same latencies.
    let fig2 = &FIGURES[FIG2];
    let mut modified = sweep.osu(fig2);
    modified.ckpt_window = Some(VirtualTime::from_secs(10));
    let full_stack = |vendor: Vendor| {
        let b = Session::builder().cluster(quiet.clone()).vendor(vendor);
        b.checkpointer(Checkpointer::mana())
    };
    let stopping = || full_stack(Vendor::OpenMpi).checkpoint_at_step(1, CkptMode::Stop);
    let image = stopping().build()?.launch(&modified)?.into_image()?;
    assert_eq!(image.vendor_hint, "Open MPI");
    let from_memory = full_stack(Vendor::Mpich).build()?;
    let restarted = latencies(&from_memory.restore(&image, &modified)?)?;
    // One chain directory per collection, also within one process.
    static COLLECTIONS: AtomicUsize = AtomicUsize::new(0);
    let nth = COLLECTIONS.fetch_add(1, Ordering::Relaxed);
    let dir = format!("stool-figs-restart-{}-{nth}", std::process::id());
    let dir = std::env::temp_dir().join(dir);
    let _ = std::fs::remove_dir_all(&dir);
    let chain = || stool::DurabilityPolicy {
        store: Some(stool::StorePolicy::new(&dir)),
        ..Default::default()
    };
    // The stored run stops at its checkpoint and leaves it on the chain.
    let stored = stopping().durability(chain()).build()?.launch(&modified)?;
    assert!(matches!(stored, RunOutcome::Checkpointed { .. }));
    let from_store = full_stack(Vendor::Mpich).durability(chain()).build()?;
    let restarted_store = from_store.restore_from_store(&modified);
    std::fs::remove_dir_all(&dir).ok();
    let restarted_store = latencies(&restarted_store?)?;
    for (series, ys) in [
        ("launch Open MPI", &full[FIG2][1]),
        ("launch MPICH", &full[FIG2][0]),
        ("restarted", &restarted),
        ("restarted from store", &restarted_store),
    ] {
        points.curve("fig6_restart", series, "us", &sizes(fig2), ys);
    }
    let launch_mpich = restarted.iter().zip(&full[FIG2][0]);
    let mpich_dev_pct = max_of(launch_mpich.map(|(a, b)| ((a - b) / b).abs() * 100.0));
    let memory = restarted_store.iter().zip(&restarted);
    let store_gap_us = max_of(memory.map(|(a, b)| (a - b).abs()));

    // Which layer costs what: the gap Fig. 2 shows as one line pair,
    // split (MPICH; MANA alone is the old vendor-specific virtual-id
    // mode).
    let alone = |muk: bool| osu(fig2, KernelVersion::CENTOS7, Vendor::Mpich, muk, !muk);
    for (series, ys) in [
        ("native", &native[FIG2][0]),
        ("+muk", &alone(true)?),
        ("+mana", &alone(false)?),
        ("+muk+mana", &full[FIG2][0]),
    ] {
        points.curve("layers", series, "us", &sizes(fig2), ys);
    }

    // FSGSBASE: Fig. 3 again on a kernel ≥ 5.9, where a split-process
    // crossing is a register write instead of an `arch_prctl` syscall —
    // only the kernel version changes.
    let fig3 = &FIGURES[FIG3];
    let mut modern_1b_pct = Vec::new();
    for (v, vendor) in VENDORS.iter().enumerate() {
        let modern = |on: bool| osu(fig3, KernelVersion::MODERN, *vendor, on, on);
        let (bare, stacked) = (modern(false)?, modern(true)?);
        let pct = points.stack("fsgsbase", *vendor, "us", &sizes(fig3), (&bare, &stacked));
        let old = stacked.iter().zip(&full[FIG3][v]);
        let saved: Vec<f64> = old.map(|(new, old)| (1.0 - new / old) * 100.0).collect();
        let series = format!("{} saved", vendor.name());
        points.curve("fsgsbase", &series, "pct", &sizes(fig3), &saved);
        modern_1b_pct.push(pct[0]);
    }

    // Drain: the image grows by the bytes in flight, and the restart
    // (under the other vendor) delivers every drained message.
    let pair = ClusterSpec::builder().nodes(2).ranks_per_node(1).build();
    for in_flight in [0usize, 1, 8, 64, 256] {
        let program = InFlight { in_flight };
        let mana = |vendor: Vendor| {
            let b = Session::builder().cluster(pair.clone()).vendor(vendor);
            b.checkpointer(Checkpointer::mana())
        };
        let stopping = mana(Vendor::Mpich).checkpoint_at_step(1, CkptMode::Stop);
        let run = stopping.build()?.launch(&program)?;
        let ckpt_us = run.makespan().as_micros_f64();
        let image = run.into_image()?;
        mana(Vendor::OpenMpi).build()?.restore(&image, &program)?;
        let bytes = image.total_bytes() as f64;
        points.push("drain", "image", "bytes", in_flight, bytes);
        points.push("drain", "checkpoint", "us", in_flight, ckpt_us);
    }

    // Deterministic reductions: the vendors associate a float sum
    // differently, so a computation checkpointed under one and restarted
    // under the other can diverge in its reduction outputs; the shim's
    // canonical rank-ordered fold cannot — at the price of a gather +
    // bcast.
    for elems in [1usize, 64, 1024] {
        for (mode, canonical) in [("vendor", false), ("canonical", true)] {
            let bench = ReduceBench { elems };
            let mut fingerprints = Vec::new();
            for vendor in VENDORS {
                let mut b = Session::builder().cluster(quiet.clone()).vendor(vendor);
                if canonical {
                    b = b.deterministic_reductions();
                }
                let out = b.build()?.launch(&bench)?;
                let mem = &out.memories()?[0];
                fingerprints.push(mem.get_u64("detred.fingerprint").expect("fingerprint"));
                let us = mem.get_f64("detred.us_per_call").expect("time");
                let series = format!("{mode} {}", vendor.name());
                points.push("detred", &series, "us", elems, us);
            }
            let equal = f64::from(fingerprints[0] == fingerprints[1]);
            let series = format!("{mode} bitwise equal");
            points.push("detred", &series, "bool", elems, equal);
        }
    }

    // The §5.1–5.2 percentages, one row per vendor.
    let claims = (0..VENDORS.len()).map(|v| {
        let pct = |f: usize| &pct[f][v];
        let max = |f: usize| max_of(pct(f).iter().copied());
        let cells = [
            ("alltoall_1b_pct", pct(FIG2)[0]),
            ("alltoall_large_pct", *pct(FIG2).last().expect("sizes")),
            ("alltoall_max_pct", max(FIG2)),
            ("bcast_max_pct", max(FIG3)),
            ("allreduce_max_pct", max(FIG4)),
            ("bcast_allreduce_max_pct", max(FIG3).max(max(FIG4))),
            ("bcast_1b_pct", pct(FIG3)[0]),
            ("bcast_1b_modern_pct", modern_1b_pct[v]),
            ("comd_pct", app_pct[2 * v]),
            ("wave_pct", app_pct[2 * v + 1]),
        ];
        let cells = cells.map(|(k, x)| format!("{k:?}: {x}"));
        let vendor = VENDORS[v].name();
        format!("{{\"vendor\": {vendor:?}, {}}}", cells.join(", "))
    });
    let claims: Vec<String> = claims.collect();

    Ok(format!(
        "{{\n  \"bench\": \"figs\",\n  \"sweep\": {:?},\n  \"points\": [\n    {}\n  ],\n  \
         \"claims\": [\n    {}\n  ],\n  \"restart\": {{\"mpich_dev_pct\": {mpich_dev_pct}, \
         \"store_gap_us\": {store_gap_us}}}\n}}\n",
        sweep.name,
        points.0.join(",\n    "),
        claims.join(",\n    "),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{read, Json, FIGS};

    /// Every experiment, small: 2 × 4 ranks, 1 – 16 B.
    fn tiny() -> Sweep {
        Sweep {
            shape: (2, 4),
            max_size: 16,
            iters: (1, 4),
            comd: CoMdMini {
                nx: 6,
                nsteps: 10,
                print_rate: 5,
                ..CoMdMini::default()
            },
            wave: WaveMpi {
                npoints: 400,
                nsteps: 100,
                ..WaveMpi::default()
            },
            ..Sweep::paper()
        }
    }

    /// One line of one figure: its `y` values in `x` order.
    fn series(doc: &Json, figure: &str, series: &str) -> Vec<f64> {
        let points = doc.obj("figs").unwrap()["points"].arr("points").unwrap();
        let of_line = |p: &&Json| {
            let p = p.obj("point").unwrap();
            p["figure"] == Json::Str(figure.into()) && p["series"] == Json::Str(series.into())
        };
        let ys = points.iter().filter(of_line);
        ys.map(|p| p.obj("point").unwrap()["y"].num("y").unwrap())
            .collect()
    }

    #[test]
    fn collection_fits_its_schema_and_repeats_byte_for_byte() {
        let text = collect(&tiny()).unwrap();
        let doc = read(&FIGS, &text).unwrap();
        assert_eq!(text, collect(&tiny()).unwrap());
        // Figs. 2–4: three lines per vendor over the five sizes, and
        // interposition costs something at every one of them.
        for figure in ["fig2_alltoall", "fig3_bcast"] {
            for vendor in VENDORS {
                let line = |what: &str| series(&doc, figure, &format!("{} {what}", vendor.name()));
                assert_eq!(line("native").len(), 5);
                assert_eq!(line("full").len(), 5);
                assert!(line("overhead").iter().all(|&pct| pct > 0.0));
            }
        }
        assert_eq!(series(&doc, "fig4_allreduce", "MPICH full").len(), 2);
    }

    #[test]
    fn jittered_repeats_collect_reproducibly() {
        // The `--full` protocol in small: medians over seeded-jitter
        // repeats. A message's jitter is keyed on the message, so the
        // whole collection repeats to the byte — and is not the
        // noise-free one.
        let noisy = Sweep {
            repeats: 2,
            ..tiny()
        };
        let text = collect(&noisy).unwrap();
        assert!(read(&FIGS, &text).is_ok());
        assert_eq!(text, collect(&noisy).unwrap());
        assert_ne!(text, collect(&tiny()).unwrap());
    }

    #[test]
    fn restart_from_the_store_measures_what_restart_from_memory_does() {
        // Persisting the checkpoint as a delta chain and restarting from
        // it must not change a measured latency at all.
        let doc = read(&FIGS, &collect(&tiny()).unwrap()).unwrap();
        let memory = series(&doc, "fig6_restart", "restarted");
        let store = series(&doc, "fig6_restart", "restarted from store");
        assert_eq!(memory.len(), 5);
        for (a, b) in memory.iter().zip(&store) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "store roundtrip changed a latency"
            );
        }
        let restart = doc.obj("figs").unwrap()["restart"].obj("restart").unwrap();
        assert_eq!(restart["store_gap_us"], Json::Num(0.0));
    }

    #[test]
    fn restarted_series_tracks_launch_with_mpich() {
        // After restarting under MPICH the measured latencies follow the
        // launch-with-MPICH reference, not the Open MPI curve they left.
        let doc = read(&FIGS, &collect(&tiny()).unwrap()).unwrap();
        let restarted = series(&doc, "fig6_restart", "restarted");
        let mpich = series(&doc, "fig6_restart", "launch MPICH");
        for (a, b) in restarted.iter().zip(&mpich) {
            assert!((a - b).abs() / b < 0.05, "restarted {a} vs mpich {b}");
        }
        let restart = doc.obj("figs").unwrap()["restart"].obj("restart").unwrap();
        assert!(restart["mpich_dev_pct"].num("dev").unwrap() < 5.0);
    }

    #[test]
    fn sleep_window_does_not_move_the_latencies() {
        // Why Fig. 6's uninterrupted references can be Fig. 2's
        // full-stack curves: the modified benchmark, run to completion,
        // measures bit-for-bit what the unmodified one does.
        let sweep = tiny();
        let fig2 = &FIGURES[FIG2];
        let mut modified = sweep.osu(fig2);
        modified.ckpt_window = Some(VirtualTime::from_secs(10));
        for vendor in VENDORS {
            let run = |bench: &OsuLatency| {
                let cluster = sweep.cluster(KernelVersion::CENTOS7, 0, 0.0);
                latencies(&session(cluster, vendor, true, true)?.launch(bench)?)
            };
            assert_eq!(run(&modified).unwrap(), run(&sweep.osu(fig2)).unwrap());
        }
    }
}
