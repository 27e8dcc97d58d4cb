//! The four stories.
//!
//! Every story has the same shape: launch under vendor A with a
//! checkpoint policy through store + `FsTier` + 3 replicas, lose the job
//! (or stop it), `restore_from_store` under vendor B, run to completion,
//! and compare every rank's `Memory` with a reference. One story is one
//! repetition. Only public API is used; the rank threads the sessions
//! spawn are the system under test.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mpi_stool::apps::{OsuKernel, OsuLatency, WaveMpi};
use mpi_stool::simnet::ClusterSpec;
use mpi_stool::stool::{
    Checkpointer, CkptMode, DurabilityPolicy, EpochStats, Memory, MetricValue, MpiProgram,
    ReplicaPolicy, ReplicaStats, RunOutcome, Session, StoreConfig, StorePolicy, TierConfig,
    TierPolicy, TierStats, Vendor,
};

use crate::dirty_pages::{DirtyPages, Fill, Touch};
use crate::trace::Tracer;

/// splitmix64: turns the one `--seed` into as many inputs as needed.
pub struct Rng(pub u64);

impl Rng {
    /// Next 64 bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Which story.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Message-path dominated: OSU collectives, one checkpoint mid-run.
    OsuColl,
    /// The headline: wave_mpi, periodic small epochs, node kill, both
    /// directions.
    WaveStory,
    /// Checkpoint-write dominated: `DirtyPages` with an epoch every step.
    CkptStorm,
    /// Restart-read dominated: restarts from the longest legal chain.
    RestartRead,
}

impl Kind {
    /// All four, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::OsuColl,
        Kind::WaveStory,
        Kind::CkptStorm,
        Kind::RestartRead,
    ];

    /// The fixed workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OsuColl => "osu_coll",
            Kind::WaveStory => "wave_story",
            Kind::CkptStorm => "ckpt_storm",
            Kind::RestartRead => "restart_read",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The paper's testbed: 4 nodes x 12 ranks, CentOS 7 kernel.
fn cluster() -> ClusterSpec {
    ClusterSpec::discovery()
}

/// The vendor a story launches under; it restarts under the other.
const VENDOR_A: Vendor = Vendor::OpenMpi;

fn other(vendor: Vendor) -> Vendor {
    match vendor {
        Vendor::Mpich => Vendor::OpenMpi,
        Vendor::OpenMpi => Vendor::Mpich,
    }
}

/// The directories one chain lives in.
#[derive(Debug, Clone)]
pub struct Dirs {
    root: PathBuf,
}

impl Dirs {
    /// Directories under `root` (created on first use by the library).
    pub fn new(root: PathBuf) -> Dirs {
        Dirs { root }
    }

    /// The local delta chain.
    pub fn chain(&self) -> PathBuf {
        self.root.join("chain")
    }

    /// The remote tier.
    pub fn tier(&self) -> PathBuf {
        self.root.join("tier")
    }

    fn replicas(&self) -> PathBuf {
        self.root.join("replicas")
    }

    /// Store + tier: what a restart needs.
    fn store_and_tier(&self) -> DurabilityPolicy {
        DurabilityPolicy {
            store: Some(StorePolicy {
                dir: self.chain(),
                config: StoreConfig::default(),
                tier: None,
                tenant: String::new(),
            }),
            tier: Some(TierPolicy {
                dir: self.tier(),
                config: TierConfig::default(),
            }),
            replicas: None,
        }
    }

    /// Store + tier + 3 coordinator replicas: what a checkpointing run
    /// gets.
    fn full(&self) -> DurabilityPolicy {
        DurabilityPolicy {
            replicas: Some(ReplicaPolicy::new(self.replicas())),
            ..self.store_and_tier()
        }
    }

    /// Remove everything below the root.
    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Bytes of every regular file below `dir` (0 if it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The checkpoint policy of one run.
#[derive(Debug, Clone, Copy)]
enum Policy {
    None,
    Every(u64),
    StopAt(u64),
    ContinueAt(u64),
}

/// Full stack (app -> Mukautuva -> MANA -> vendor) on the paper's cluster.
fn full_stack(
    vendor: Vendor,
    policy: Policy,
    durability: Option<DurabilityPolicy>,
    kill: Option<(u64, usize)>,
) -> Result<Session, String> {
    let mut b = Session::builder()
        .cluster(cluster())
        .vendor(vendor)
        .checkpointer(Checkpointer::mana());
    b = match policy {
        Policy::None => b,
        Policy::Every(n) => b.checkpoint_every(n),
        Policy::StopAt(step) => b.checkpoint_at_step(step, CkptMode::Stop),
        Policy::ContinueAt(step) => b.checkpoint_at_step(step, CkptMode::Continue),
    };
    if let Some(durability) = durability {
        b = b.durability(durability);
    }
    if let Some((step, node)) = kill {
        b = b.inject_node_failure(step, node);
    }
    b.build().map_err(|e| e.to_string())
}

/// The application recompiled against the vendor: no shim, no MANA.
fn native(vendor: Vendor) -> Result<Session, String> {
    Session::builder()
        .cluster(cluster())
        .vendor(vendor)
        .native_abi()
        .build()
        .map_err(|e| e.to_string())
}

/// Virtual makespans of the set-up runs the two overhead metrics need.
#[derive(Debug, Clone, Copy, Default)]
pub struct Baselines {
    /// `native_abi()`, vendor A, no checkpoints.
    pub native_s: f64,
    /// Full stack, vendor A, no checkpoints.
    pub full_s: f64,
    /// Full stack, vendor A, the workload's checkpoint policy,
    /// uninterrupted.
    pub ckpt_s: f64,
}

/// One timed piece of a repetition.
#[derive(Debug, Clone, Copy)]
pub struct Piece {
    /// The piece is a `restore_from_store` run to completion.
    pub restore: bool,
    /// Its wall time.
    pub wall_s: f64,
}

/// What one repetition did.
#[derive(Debug, Clone, Default)]
pub struct RepStats {
    /// Wall time of the whole repetition.
    pub wall_s: f64,
    /// Sum of the simulated makespans of its runs.
    pub virt_s: f64,
    /// Messages the fabric carried (`fabric.sends`, summed over runs).
    pub msgs: u64,
    /// Image bytes restored (head image bytes per restart).
    pub image_bytes_restored: u64,
    /// Wall time spent inside `restore_from_store` until completion.
    pub restart_wall_s: f64,
    /// Restarts performed.
    pub restarts: u64,
    /// Bytes in the chain directory when the repetition ended.
    pub chain_bytes: u64,
    /// Bytes in the tier directory when the repetition ended.
    pub tier_bytes: u64,
    /// Image bytes of the chain those directories hold, when that chain
    /// was written in set-up and not by this repetition's own epochs.
    pub setup_chain_image_bytes: u64,
    /// Every epoch the repetition committed, in order.
    pub epochs: Vec<EpochStats>,
    /// Tier shipping totals.
    pub tier: TierStats,
    /// Replica group totals.
    pub replica: ReplicaStats,
    /// Wall time of each public call into a session, in story order, and
    /// last the rest of the repetition (session building, verification,
    /// directory upkeep): the pieces add up to `wall_s`.
    pub pieces: Vec<Piece>,
    /// Operations attempted: launches, restarts, sealed-epoch
    /// expectations, bit-identity checks.
    pub ops_total: u64,
    /// Operations that failed.
    pub ops_failed: u64,
}

impl RepStats {
    /// Image bytes the repetition committed.
    pub fn image_bytes_committed(&self) -> u64 {
        self.epochs.iter().map(|e| e.image_bytes).sum()
    }

    /// Image bytes of the chain the repetition's directories hold.
    pub fn chain_image_bytes(&self) -> u64 {
        if self.epochs.is_empty() {
            self.setup_chain_image_bytes
        } else {
            self.image_bytes_committed()
        }
    }
}

/// One repetition in progress: runs sessions inside spans and books what
/// they did.
struct Rep<'t> {
    stats: RepStats,
    tracer: &'t mut Tracer,
}

impl Rep<'_> {
    /// Book one operation.
    fn check(&mut self, what: &str, ok: bool) {
        self.stats.ops_total += 1;
        if !ok {
            self.stats.ops_failed += 1;
            println!("# FAILED: {what}");
        }
    }

    /// Fold the run's telemetry into the repetition.
    fn absorb(&mut self, session: &Session, outcome: &RunOutcome) {
        self.stats.virt_s += outcome.makespan().as_secs_f64();
        let Some(snap) = session.telemetry() else {
            return;
        };
        if let Some(MetricValue::Counter(sends)) = snap.metrics().get("fabric.sends") {
            self.stats.msgs += sends;
        }
        self.stats.epochs.extend(snap.epochs.iter().copied());
        if let Some(tier) = snap.tier {
            self.stats.tier.epochs_shipped += tier.epochs_shipped;
            self.stats.tier.bytes_shipped += tier.bytes_shipped;
            self.stats.tier.put_retries += tier.put_retries;
            self.stats.tier.ship_failures += tier.ship_failures;
        }
        if let Some(replica) = snap.replica {
            self.stats.replica.commits += replica.commits;
            self.stats.replica.elections += replica.elections;
            self.stats.replica.recoveries += replica.recoveries;
            self.stats.replica.re_adopted += replica.re_adopted;
            self.stats.replica.log_retries += replica.log_retries;
        }
    }

    fn launch(
        &mut self,
        session: &Session,
        program: &dyn MpiProgram,
    ) -> Result<RunOutcome, String> {
        let t0 = Instant::now();
        let result = self.tracer.span("launch", |_| session.launch(program));
        self.stats.pieces.push(Piece {
            restore: false,
            wall_s: t0.elapsed().as_secs_f64(),
        });
        self.check("launch", result.is_ok());
        let outcome = result.map_err(|e| format!("launch: {e}"))?;
        self.absorb(session, &outcome);
        Ok(outcome)
    }

    /// `restore_from_store` and run to completion; `image_bytes` is the
    /// size of the chain head it restores.
    fn restore(
        &mut self,
        session: &Session,
        program: &dyn MpiProgram,
        image_bytes: u64,
    ) -> Result<RunOutcome, String> {
        let t0 = Instant::now();
        let result = self
            .tracer
            .span("restore", |_| session.restore_from_store(program));
        let wall_s = t0.elapsed().as_secs_f64();
        self.stats.pieces.push(Piece {
            restore: true,
            wall_s,
        });
        self.stats.restart_wall_s += wall_s;
        self.stats.restarts += 1;
        self.stats.image_bytes_restored += image_bytes;
        self.check(
            "restore_from_store",
            result.as_ref().is_ok_and(RunOutcome::is_completed),
        );
        let outcome = result.map_err(|e| format!("restore_from_store: {e}"))?;
        self.absorb(session, &outcome);
        Ok(outcome)
    }

    /// The epochs a checkpointing launch must have sealed, shipped and
    /// quorum-committed. `first` is the index of its first epoch in
    /// `stats.epochs`.
    fn expect_sealed(&mut self, first: usize, expected: u64, shipped_before: u64) {
        let sealed = (self.stats.epochs.len() - first) as u64;
        self.check(
            &format!("{expected} epochs sealed (saw {sealed})"),
            sealed == expected,
        );
        let shipped = self.stats.tier.epochs_shipped - shipped_before;
        self.check(
            &format!("{expected} epochs shipped to the tier (saw {shipped})"),
            shipped == expected && self.stats.tier.ship_failures == 0,
        );
    }

    /// Bit-identity of every rank's memory with the reference.
    fn verify(&mut self, what: &str, outcome: &RunOutcome, reference: &[Memory]) {
        let same = self.tracer.span("verify", |_| {
            outcome.memories().is_ok_and(|got| got == reference)
        });
        self.check(&format!("{what}: memories bit-identical"), same);
    }

    /// Image bytes of the newest epoch this repetition committed.
    fn head_image_bytes(&self) -> u64 {
        self.stats.epochs.last().map_or(0, |e| e.image_bytes)
    }

    fn measure_dirs(&mut self, dirs: &Dirs) {
        self.stats.chain_bytes += dir_bytes(&dirs.chain());
        self.stats.tier_bytes += dir_bytes(&dirs.tier());
    }
}

/// A workload: set up once, then repeat.
pub trait Story {
    /// Reference runs, baselines and (for `restart_read`) the chain.
    fn setup(&mut self, work: &Path, tracer: &mut Tracer) -> Result<Baselines, String>;

    /// One story, on fresh directories below `dirs`.
    fn repetition(&mut self, dirs: &Path, tracer: &mut Tracer) -> Result<RepStats, String>;

    /// The chain whose epochs the traced run's layer probes replay: the
    /// one the repetition on `dirs` left behind, or the set-up chain.
    fn probe_chain(&self, dirs: &Path) -> Dirs;
}

/// Run `story.repetition` and time it; a repetition that cannot finish
/// counts as one failed operation.
pub fn timed_repetition(story: &mut dyn Story, dirs: &Path, tracer: &mut Tracer) -> RepStats {
    let t0 = Instant::now();
    let result = tracer.span("repetition", |t| story.repetition(dirs, t));
    let wall_s = t0.elapsed().as_secs_f64();
    match result {
        Ok(mut stats) => {
            stats.wall_s = wall_s;
            let calls: f64 = stats.pieces.iter().map(|p| p.wall_s).sum();
            stats.pieces.push(Piece {
                restore: false,
                wall_s: wall_s - calls,
            });
            stats
        }
        Err(why) => {
            println!("# FAILED: repetition aborted: {why}");
            RepStats {
                wall_s,
                ops_total: 1,
                ops_failed: 1,
                ..RepStats::default()
            }
        }
    }
}

/// Build the story for `kind` from `seed`.
pub fn build(kind: Kind, seed: u64) -> Box<dyn Story> {
    // Each workload draws from its own stream, so adding a draw to one
    // does not change another's inputs.
    let mut rng = Rng(seed ^ (kind as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    match kind {
        Kind::OsuColl => Box::new(OsuColl::generate(&mut rng)),
        Kind::WaveStory => Box::new(WaveStory::generate(&mut rng)),
        Kind::CkptStorm => Box::new(Pages::generate(&mut rng, PagesMode::Storm)),
        Kind::RestartRead => Box::new(Pages::generate(&mut rng, PagesMode::RestartRead)),
    }
}

fn completed_memories(outcome: RunOutcome) -> Result<Vec<Memory>, String> {
    match outcome {
        RunOutcome::Completed { memories, .. } => Ok(memories),
        _ => Err("reference run did not complete".to_string()),
    }
}

// ---------------------------------------------------------------------------
// osu_coll
// ---------------------------------------------------------------------------

/// One OSU kernel of the story and the safe-point step its checkpoint
/// lands on.
struct OsuLeg {
    program: OsuLatency,
    ckpt_step: u64,
    /// Expected `osu.lat_us`/`osu.sizes` per rank: see `OsuColl::setup`.
    reference: Vec<Memory>,
}

/// Fig. 6 on three OSU kernels.
struct OsuColl {
    legs: Vec<OsuLeg>,
}

impl OsuColl {
    fn generate(rng: &mut Rng) -> OsuColl {
        let kernel = |kernel, max_size| OsuLatency {
            kernel,
            min_size: 1,
            max_size,
            warmup: 2,
            iters: 10,
            ckpt_window: None,
        };
        let legs = [
            kernel(OsuKernel::Alltoall, 64 << 10),
            kernel(OsuKernel::Bcast, 256 << 10),
            kernel(OsuKernel::Allreduce, 256 << 10),
        ]
        .into_iter()
        .map(|program| {
            // The cut lands on the first size that runs a reduced
            // iteration count (8 KiB): about half of each kernel's
            // virtual time is behind it there. Every size the cut moves
            // shifts `virt_s` by 0.4-0.8 %, because the vendors price
            // each size differently, so the seed moves only the cut of
            // the least sensitive kernel, and by one size.
            let first_large = program.sizes().iter().position(|&s| s >= 8 << 10);
            let first_large = first_large.expect("sweeps reach 8 KiB") as u64 + 1;
            let nudge = match program.kernel {
                OsuKernel::Allreduce => rng.below(2),
                OsuKernel::Alltoall | OsuKernel::Bcast => 0,
            };
            OsuLeg {
                ckpt_step: first_large + nudge,
                program,
                reference: Vec::new(),
            }
        })
        .collect();
        OsuColl { legs }
    }
}

impl Story for OsuColl {
    fn setup(&mut self, work: &Path, tracer: &mut Tracer) -> Result<Baselines, String> {
        let mut base = Baselines::default();
        for (i, leg) in self.legs.iter_mut().enumerate() {
            let name = leg.program.name();
            base.native_s += tracer
                .span(&format!("setup.native.{name}"), |_| {
                    native(VENDOR_A)?
                        .launch(&leg.program)
                        .map_err(|e| e.to_string())
                })?
                .makespan()
                .as_secs_f64();
            // OSU records virtual latencies, and those depend on the
            // vendor that ran each size: no single-vendor run can match a
            // cross-vendor story bit for bit. The reference is the same
            // cut taken through an in-memory image - no store, no tier,
            // no replicas - which is also the uninterrupted-with-policy
            // run of `ckpt_overhead_pct` up to the cut.
            let full = tracer.span(&format!("setup.full.{name}"), |_| {
                full_stack(VENDOR_A, Policy::None, None, None)?
                    .launch(&leg.program)
                    .map_err(|e| e.to_string())
            })?;
            base.full_s += full.makespan().as_secs_f64();
            let dirs = Dirs::new(work.join(format!("setup-{i}")));
            let ckpt = tracer.span(&format!("setup.ckpt.{name}"), |_| {
                full_stack(
                    VENDOR_A,
                    Policy::ContinueAt(leg.ckpt_step),
                    Some(dirs.full()),
                    None,
                )?
                .launch(&leg.program)
                .map_err(|e| e.to_string())
            });
            dirs.remove();
            base.ckpt_s += ckpt?.makespan().as_secs_f64();
            leg.reference = tracer.span(&format!("setup.oracle.{name}"), |_| {
                let image = full_stack(VENDOR_A, Policy::StopAt(leg.ckpt_step), None, None)?
                    .launch(&leg.program)
                    .and_then(RunOutcome::into_image)
                    .map_err(|e| e.to_string())?;
                let restored = full_stack(other(VENDOR_A), Policy::None, None, None)?
                    .restore(&image, &leg.program)
                    .map_err(|e| e.to_string())?;
                completed_memories(restored)
            })?;
            // Sizes measured before the cut ran under vendor A in both:
            // they must equal the uninterrupted vendor-A run bit for bit.
            let before = (leg.ckpt_step - 1) as usize;
            let lat = |mem: &[Memory]| mem[0].f64s("osu.lat_us").map(|l| l[..before].to_vec());
            if lat(&leg.reference) != lat(full.memories().map_err(|e| e.to_string())?) {
                return Err(format!(
                    "{name}: pre-checkpoint latencies differ from the uninterrupted run"
                ));
            }
        }
        Ok(base)
    }

    fn repetition(&mut self, dirs: &Path, tracer: &mut Tracer) -> Result<RepStats, String> {
        let mut rep = Rep {
            stats: RepStats::default(),
            tracer,
        };
        for (i, leg) in self.legs.iter().enumerate() {
            let dirs = Dirs::new(dirs.join(format!("leg-{i}")));
            let first = rep.stats.epochs.len();
            let shipped = rep.stats.tier.epochs_shipped;
            let launch = full_stack(
                VENDOR_A,
                Policy::StopAt(leg.ckpt_step),
                Some(dirs.full()),
                None,
            )?;
            let stopped = rep.launch(&launch, &leg.program)?;
            rep.check(
                "launch stopped at its checkpoint",
                matches!(stopped, RunOutcome::Checkpointed { .. }),
            );
            rep.expect_sealed(first, 1, shipped);
            let restart = full_stack(
                other(VENDOR_A),
                Policy::None,
                Some(dirs.store_and_tier()),
                None,
            )?;
            let head = rep.head_image_bytes();
            let done = rep.restore(&restart, &leg.program, head)?;
            rep.verify(leg.program.name(), &done, &leg.reference);
            rep.measure_dirs(&dirs);
        }
        Ok(rep.stats)
    }

    fn probe_chain(&self, dirs: &Path) -> Dirs {
        // The alltoall leg: the largest image of the three.
        Dirs::new(dirs.join("leg-0"))
    }
}

// ---------------------------------------------------------------------------
// wave_story
// ---------------------------------------------------------------------------

/// The headline: wave_mpi with periodic epochs, a node kill, a restart
/// under the other vendor - in both directions.
struct WaveStory {
    program: WaveMpi,
    every: u64,
    kill_step: u64,
    kill_node: usize,
    reference: Vec<Memory>,
}

impl WaveStory {
    fn generate(rng: &mut Rng) -> WaveStory {
        let nsteps = 2_000;
        let every = 250;
        // A little after the sixth epoch: the seed moves the kill inside
        // a window of 0.4 % of the run, so the work redone after the
        // restart is all but constant.
        let last_epoch = every * 6;
        WaveStory {
            program: WaveMpi {
                npoints: 12_000,
                nsteps,
                ..WaveMpi::default()
            },
            every,
            kill_step: last_epoch + 1 + rng.below(8),
            kill_node: rng.below(cluster().nodes as u64) as usize,
            reference: Vec::new(),
        }
    }

    fn epochs_before_kill(&self) -> u64 {
        (self.kill_step - 1) / self.every
    }
}

impl Story for WaveStory {
    fn setup(&mut self, work: &Path, tracer: &mut Tracer) -> Result<Baselines, String> {
        let native_s = tracer
            .span("setup.native", |_| {
                native(VENDOR_A)?
                    .launch(&self.program)
                    .map_err(|e| e.to_string())
            })?
            .makespan()
            .as_secs_f64();
        // The trajectory is pure point-to-point dataflow plus one max
        // reduction: bit-identical under either vendor, so one
        // uninterrupted run is the reference for both directions.
        let full = tracer.span("setup.full", |_| {
            full_stack(VENDOR_A, Policy::None, None, None)?
                .launch(&self.program)
                .map_err(|e| e.to_string())
        })?;
        let full_s = full.makespan().as_secs_f64();
        self.reference = completed_memories(full)?;
        let dirs = Dirs::new(work.join("setup"));
        let ckpt = tracer.span("setup.ckpt", |_| {
            full_stack(VENDOR_A, Policy::Every(self.every), Some(dirs.full()), None)?
                .launch(&self.program)
                .map_err(|e| e.to_string())
        });
        dirs.remove();
        Ok(Baselines {
            native_s,
            full_s,
            ckpt_s: ckpt?.makespan().as_secs_f64(),
        })
    }

    fn repetition(&mut self, dirs: &Path, tracer: &mut Tracer) -> Result<RepStats, String> {
        let mut rep = Rep {
            stats: RepStats::default(),
            tracer,
        };
        for (i, from) in [VENDOR_A, other(VENDOR_A)].into_iter().enumerate() {
            let dirs = Dirs::new(dirs.join(format!("dir-{i}")));
            let first = rep.stats.epochs.len();
            let shipped = rep.stats.tier.epochs_shipped;
            let launch = full_stack(
                from,
                Policy::Every(self.every),
                Some(dirs.full()),
                Some((self.kill_step, self.kill_node)),
            )?;
            let killed = rep.launch(&launch, &self.program)?;
            rep.check(
                "launch died at the injected kill",
                matches!(killed, RunOutcome::Failed { failed_step, .. } if failed_step == self.kill_step),
            );
            rep.expect_sealed(first, self.epochs_before_kill(), shipped);
            let restart = full_stack(other(from), Policy::None, Some(dirs.store_and_tier()), None)?;
            let head = rep.head_image_bytes();
            let done = rep.restore(&restart, &self.program, head)?;
            rep.verify(from.name(), &done, &self.reference);
            rep.measure_dirs(&dirs);
        }
        Ok(rep.stats)
    }

    fn probe_chain(&self, dirs: &Path) -> Dirs {
        Dirs::new(dirs.join("dir-0"))
    }
}

// ---------------------------------------------------------------------------
// ckpt_storm and restart_read
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PagesMode {
    /// An epoch every step, then one cross-vendor restart.
    Storm,
    /// Restarts only, from a chain built in set-up.
    RestartRead,
}

/// The set-up chain `restart_read` restarts from.
struct BuiltChain {
    dirs: Dirs,
    head_image_bytes: u64,
    image_bytes: u64,
}

/// `DirtyPages` driven one of two ways.
struct Pages {
    mode: PagesMode,
    program: DirtyPages,
    reference: Vec<Memory>,
    chain: Option<BuiltChain>,
}

impl Pages {
    const SEGMENTS: usize = 16;
    const NOISE_SEGMENTS: usize = 2;

    fn generate(rng: &mut Rng, mode: PagesMode) -> Pages {
        let (segment_bytes, steps) = match mode {
            // 11 steps: epochs at steps 1..=10, so the chain crosses one
            // `max_chain = 8` rebase and `retain_epochs = 4` collection.
            PagesMode::Storm => (40 << 10, 11),
            // 10 steps: epochs at steps 1..=9, a base and 8 deltas - the
            // longest chain the default store allows.
            PagesMode::RestartRead => (64 << 10, 10),
        };
        // Fourteen compressible staircase segments and two of noise, in seeded
        // order. Mostly compressible on purpose: every stored byte is
        // written, shipped, read back and fsynced, and this sandbox's
        // disk stalls for seconds at a time, so a noise-heavy image would
        // measure the stalls and not the store.
        let mut fill: Vec<Fill> = (0..Self::SEGMENTS)
            .map(|s| {
                if s < Self::NOISE_SEGMENTS {
                    Fill::Noise(rng.next())
                } else {
                    Fill::Staircase
                }
            })
            .collect();
        for i in (1..fill.len()).rev() {
            fill.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let of_kind = |staircase: bool| -> Vec<usize> {
            (0..Self::SEGMENTS)
                .filter(|&s| (fill[s] == Fill::Staircase) == staircase)
                .collect()
        };
        // Each step dirties a quarter of 4 of the 16 segments: three staircase
        // and one noise. Each pool's segments x 3 interior positions are
        // walked round in one fixed order, so how ranges overlap from
        // step to step is the same for every seed, and no range touches
        // a segment's edge (the chunker rewrites less there): what the
        // store writes, dedups and collects does not depend on the seed.
        // The seed picks where each walk starts and what is written.
        let quarter = segment_bytes / 4;
        let walks = [(of_kind(true), 3), (of_kind(false), 1)]
            .map(|(pool, per_step)| (rng.below(pool.len() as u64 * 3) as usize, pool, per_step));
        let plan = (0..steps)
            .map(|step| {
                walks
                    .iter()
                    .flat_map(|(start, pool, per_step)| {
                        (0..*per_step).map(move |k| {
                            let slot = (start + per_step * step + k) % (pool.len() * 3);
                            (pool[slot % pool.len()], slot / pool.len())
                        })
                    })
                    .map(|(segment, position)| Touch {
                        segment,
                        offset: quarter / 2 + position * quarter,
                        len: quarter,
                        salt: rng.next(),
                    })
                    .collect()
            })
            .collect();
        // The seed also nudges the modelled compute intensity (under 1 %),
        // so virtual time is an input-dependent reading, not a constant.
        let ns_per_dirty_byte = 0.5 + rng.below(1000) as f64 * 5e-6;
        Pages {
            mode,
            program: DirtyPages {
                segment_bytes,
                fill,
                plan,
                ns_per_dirty_byte,
            },
            reference: Vec::new(),
            chain: None,
        }
    }

    fn epochs(&self) -> u64 {
        self.program.plan.len() as u64 - 1
    }
}

impl Story for Pages {
    fn setup(&mut self, work: &Path, tracer: &mut Tracer) -> Result<Baselines, String> {
        let native_s = tracer
            .span("setup.native", |_| {
                native(VENDOR_A)?
                    .launch(&self.program)
                    .map_err(|e| e.to_string())
            })?
            .makespan()
            .as_secs_f64();
        let full = tracer.span("setup.full", |_| {
            full_stack(VENDOR_A, Policy::None, None, None)?
                .launch(&self.program)
                .map_err(|e| e.to_string())
        })?;
        let full_s = full.makespan().as_secs_f64();
        self.reference = completed_memories(full)?;
        // The uninterrupted run with the checkpoint policy; for
        // `restart_read` its chain is the one every repetition reads.
        let dirs = Dirs::new(work.join("setup"));
        let session = full_stack(VENDOR_A, Policy::Every(1), Some(dirs.full()), None)?;
        let ckpt = tracer.span("setup.ckpt", |_| {
            session.launch(&self.program).map_err(|e| e.to_string())
        })?;
        let ckpt_s = ckpt.makespan().as_secs_f64();
        match self.mode {
            PagesMode::Storm => dirs.remove(),
            PagesMode::RestartRead => {
                let epochs = session.telemetry().map(|s| s.epochs).unwrap_or_default();
                if epochs.len() as u64 != self.epochs() {
                    return Err(format!(
                        "set-up chain has {} epochs, expected {}",
                        epochs.len(),
                        self.epochs()
                    ));
                }
                self.chain = Some(BuiltChain {
                    dirs,
                    head_image_bytes: epochs.last().map_or(0, |e| e.image_bytes),
                    image_bytes: epochs.iter().map(|e| e.image_bytes).sum(),
                });
            }
        }
        Ok(Baselines {
            native_s,
            full_s,
            ckpt_s,
        })
    }

    fn repetition(&mut self, dirs: &Path, tracer: &mut Tracer) -> Result<RepStats, String> {
        let mut rep = Rep {
            stats: RepStats::default(),
            tracer,
        };
        match self.mode {
            PagesMode::Storm => {
                let dirs = Dirs::new(dirs.to_path_buf());
                let launch = full_stack(VENDOR_A, Policy::Every(1), Some(dirs.full()), None)?;
                let ran = rep.launch(&launch, &self.program)?;
                rep.verify("checkpointing run", &ran, &self.reference);
                rep.expect_sealed(0, self.epochs(), 0);
                let restart = full_stack(
                    other(VENDOR_A),
                    Policy::None,
                    Some(dirs.store_and_tier()),
                    None,
                )?;
                let head = rep.head_image_bytes();
                let done = rep.restore(&restart, &self.program, head)?;
                rep.verify("restart", &done, &self.reference);
                rep.measure_dirs(&dirs);
            }
            PagesMode::RestartRead => {
                let chain = self
                    .chain
                    .as_ref()
                    .ok_or("restart_read repeated before set-up")?;
                // Hydrate + restart under B, local restart under A,
                // hydrate + restart under A, local restart under B.
                for vendor in [other(VENDOR_A), VENDOR_A] {
                    std::fs::remove_dir_all(chain.dirs.chain())
                        .map_err(|e| format!("delete local chain: {e}"))?;
                    for restarting in [vendor, other(vendor)] {
                        let session = full_stack(
                            restarting,
                            Policy::None,
                            Some(chain.dirs.store_and_tier()),
                            None,
                        )?;
                        let done = rep.restore(&session, &self.program, chain.head_image_bytes)?;
                        rep.verify(restarting.name(), &done, &self.reference);
                    }
                }
                rep.check("no epoch committed", rep.stats.epochs.is_empty());
                rep.stats.setup_chain_image_bytes = chain.image_bytes;
                rep.measure_dirs(&chain.dirs);
            }
        }
        Ok(rep.stats)
    }

    fn probe_chain(&self, dirs: &Path) -> Dirs {
        match &self.chain {
            Some(chain) => chain.dirs.clone(),
            None => Dirs::new(dirs.to_path_buf()),
        }
    }
}
