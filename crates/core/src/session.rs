//! Sessions: binding the three legs of the stool at run time.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dmtcp_sim::coordinator::{CkptMode, Coordinator};
use dmtcp_sim::image::WorldImage;
use dmtcp_sim::memory::Memory;
use dmtcp_sim::replica::{Clock, ReplicaConfig, ReplicaGroup, SystemClock};
use dmtcp_sim::store::{DeltaStore, SharedStoreWriter, StoreConfig, StoreError, TenantSink};
use dmtcp_sim::testing::{Fault, Op, Script};
use dmtcp_sim::tier::{tenant_namespace, FsTier, ObjectTier, SharedTier, TierConfig, TierError};
use mana_sim::ckpt::restore_rank;
use mana_sim::ManaConfig;
use muk::Vendor;
use simnet::rank::RankCounters;
use simnet::{ClusterSpec, Fabric, RunPlan, VirtualTime, WorkerPool, World};

use crate::error::{to_sim, StoolError, StoolResult};
use crate::program::{AppCtx, MpiProgram};
use crate::scenario::{FaultSchedule, KillEvent, Victims};
use crate::stack::{Stack, StackSpec};
use crate::telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};

/// The checkpointing leg of the stool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Checkpointer {
    /// No checkpointing package (the "native"/"+Mukautuva" baselines).
    None,
    /// The MANA-like package with its cost model.
    Mana(ManaConfig),
}

impl Checkpointer {
    /// MANA with default costs.
    pub fn mana() -> Checkpointer {
        Checkpointer::Mana(ManaConfig::default())
    }
}

/// When the session itself should trigger a checkpoint (deterministic,
/// step-keyed — every rank requests at the same safe point, so the
/// coordinated quiesce cannot deadlock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptPolicy {
    /// Checkpoint when the application reaches this safe-point step.
    pub at_step: Option<u64>,
    /// Additionally checkpoint every N safe-point steps (periodic
    /// checkpointing; always [`CkptMode::Continue`]).
    pub every_steps: Option<u64>,
    /// What to do after the `at_step` checkpoint.
    pub mode: CkptMode,
}

impl Default for CkptPolicy {
    fn default() -> Self {
        CkptPolicy {
            at_step: None,
            every_steps: None,
            mode: CkptMode::Continue,
        }
    }
}

/// Where (and how) completed checkpoint epochs are persisted when the
/// session attaches the asynchronous delta-checkpoint store
/// ([`dmtcp_sim::store`]). With a store attached, ranks hand their images
/// to a background writer pool at the rendezvous barrier and pay only the
/// submit overhead; epochs land on disk as a delta chain that
/// [`Session::restore_from_store`] (or `DeltaStore::open` directly) can
/// restart — under any vendor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorePolicy {
    /// Chain directory.
    pub dir: PathBuf,
    /// Store tunables: block size, retention, chain length, writer
    /// threads, per-block [`dmtcp_sim::Compression`] and dirty-segment
    /// tracking.
    pub config: StoreConfig,
    /// Remote second tier, if attached: sealed epochs are shipped
    /// to it in the background, retention GC waits for upload
    /// durability, and a restore with missing/corrupt local epochs
    /// hydrates from it transparently.
    pub tier: Option<TierPolicy>,
    /// The tenant that owns this chain directory (empty = a classic
    /// untagged single-session store). The first tenant-tagged open
    /// writes a `TENANT` marker into the directory; any later open under
    /// a different tenant (or untagged) gets a structured
    /// [`StoreError::TenantMismatch`] instead of silently interleaving
    /// its epochs into a foreign chain.
    pub tenant: String,
}

impl StorePolicy {
    /// An untagged, tierless chain at `dir` with default tunables.
    pub fn new(dir: impl Into<PathBuf>) -> StorePolicy {
        StorePolicy {
            dir: dir.into(),
            config: StoreConfig::default(),
            tier: None,
            tenant: String::new(),
        }
    }

    /// Open the policy's store for its configured tenant: plain when no
    /// tier is configured, with the filesystem-backed tier attached
    /// (shipping reconciled, missing local epochs hydrated) when one is.
    /// The tenant's claim on the chain directory is durable: a `TENANT`
    /// marker file next to the chain records the owner, and mismatched
    /// opens fail with [`StoreError::TenantMismatch`] before touching the
    /// chain.
    pub fn open_store(&self) -> Result<DeltaStore, StoreError> {
        self.open_store_scripted(&[], &[], None)
    }

    /// [`StorePolicy::open_store`] with upload/download fault scripts:
    /// when either is non-empty, a [`dmtcp_sim::testing::ScriptedVol`]
    /// running them sits between the store and its tier (which it then
    /// requires). [`wire_runs`] scripts the run's `puts` (torn/failed
    /// uploads mid-ship) and, for a restore from the chain, its `gets`
    /// (torn/failed downloads during hydration). `tel` is attached before
    /// the tier, so the open's hydration reports to it.
    pub(crate) fn open_store_scripted(
        &self,
        puts: &[Fault],
        gets: &[Fault],
        tel: Option<&Arc<Telemetry>>,
    ) -> Result<DeltaStore, StoreError> {
        self.claim()?;
        let scripted = !(puts.is_empty() && gets.is_empty());
        if scripted && self.tier.is_none() {
            return Err(StoreError::NoTier);
        }
        let mut store = DeltaStore::open_with(&self.dir, self.config)?;
        if let Some(tel) = tel {
            store.attach_telemetry(tel.clone());
        }
        if let Some(t) = &self.tier {
            let mut tier: Arc<dyn ObjectTier> =
                Arc::new(FsTier::open(&t.dir).map_err(StoreError::Tier)?);
            if scripted {
                let script = Script::new();
                script.push(Op::Put, puts.iter().copied());
                script.push(Op::Get, gets.iter().copied());
                tier = script.wrap(tier);
            }
            store.attach_tier(tier, t.config)?;
        }
        Ok(store)
    }

    /// Check (and on first tenant-tagged open, write) the `TENANT`
    /// ownership marker, an object of the chain's own volume. Only a
    /// missing marker leaves the chain unclaimed: a marker that cannot
    /// be read is an error, and one that is not UTF-8 names no tenant
    /// this open could be.
    fn claim(&self) -> Result<(), StoreError> {
        let tenant = self.tenant.as_str();
        // `FsTier::open` names the directory itself in its error.
        let vol = FsTier::open(&self.dir).map_err(|e| StoreError::volume(Path::new(""), e))?;
        let io = |e| StoreError::volume(&self.dir, e);
        match vol.get("TENANT") {
            Ok(found) => {
                if std::str::from_utf8(&found).map(str::trim) != Ok(tenant) {
                    return Err(StoreError::TenantMismatch {
                        dir: self.dir.clone(),
                        expected: tenant.to_string(),
                        found: String::from_utf8_lossy(&found).trim().to_string(),
                    });
                }
                Ok(())
            }
            // No marker: untagged opens stay untagged; the first
            // tenant-tagged open claims the directory.
            Err(TierError::NotFound { .. }) if tenant.is_empty() => Ok(()),
            Err(TierError::NotFound { .. }) => vol.put("TENANT", tenant.as_bytes()).map_err(io),
            Err(e) => Err(io(e)),
        }
    }
}

/// Where (and how) the delta store's remote second tier lives. The
/// in-tree tier is filesystem-backed ([`dmtcp_sim::FsTier`]: atomic
/// renames modelling object storage); the directory typically sits on a
/// different filesystem than the chain itself — that separation is the
/// point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierPolicy {
    /// Tier root directory.
    pub dir: PathBuf,
    /// Shipper tunables: upload attempts and retry backoff.
    pub config: TierConfig,
}

/// Replicated-coordinator configuration: a quorum group of 3+ coordinator
/// replicas whose `ObjectTier`-backed logs must accept every epoch record
/// before the coordinator releases the rendezvous barrier. With this
/// attached, the coordinator/store-writer process stops being a single
/// point of failure: a leader replica killed at any barrier phase is
/// replaced at the next commit and the round either commits on quorum
/// or aborts atomically (see `dmtcp_sim::replica`).
/// Scripted replica faults live on the run's [`FaultSchedule`]
/// (`replica`, [`FaultSchedule::kill_leader_at`]).
#[derive(Debug, Clone)]
pub struct ReplicaPolicy {
    /// Root directory; each replica's log lives in `replica_NN/` below it.
    pub dir: PathBuf,
    /// Group size (≥ 3) and log retry tunables.
    pub config: ReplicaConfig,
}

impl ReplicaPolicy {
    /// The [`ReplicaConfig`] default group rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> ReplicaPolicy {
        ReplicaPolicy {
            dir: dir.into(),
            config: ReplicaConfig::default(),
        }
    }
}

/// The durability leg of a session in one composable value: local delta
/// store, remote second tier and coordinator replication — installed with
/// [`SessionBuilder::durability`], the only spelling. Plain sessions and
/// [`crate::cluster::ClusterBuilder`] tenants consume the same policy, so
/// a config tuned for a single session drops into a multi-tenant cluster
/// unchanged.
#[derive(Debug, Clone, Default)]
pub struct DurabilityPolicy {
    /// Asynchronous delta-checkpoint store, if attached.
    pub store: Option<StorePolicy>,
    /// Remote second tier requested free-standing (folded into the store
    /// policy by [`DurabilityPolicy::resolve`]; requesting one without a
    /// store is a validation error).
    pub tier: Option<TierPolicy>,
    /// Replicated coordinator, if attached: epoch records are
    /// quorum-committed to the replica logs before any round completes.
    pub replicas: Option<ReplicaPolicy>,
}

impl DurabilityPolicy {
    /// Check internal consistency (a tier requires a store, a replica
    /// group needs ≥ 3 members), then fold the free-standing tier into the
    /// store policy (the canonical form every run path consumes).
    pub fn resolve(mut self) -> StoolResult<DurabilityPolicy> {
        if self.tier.is_some() && self.store.is_none() {
            return Err(StoolError::Config(
                "a remote tier requires a checkpoint store in the durability policy".into(),
            ));
        }
        if let Some(replicas) = &self.replicas {
            if replicas.config.replicas < 3 {
                return Err(StoolError::Config(format!(
                    "a replica group needs at least 3 replicas to survive one failure \
                     (got {})",
                    replicas.config.replicas
                )));
            }
        }
        if let Some(tier) = self.tier.take() {
            if let Some(store) = &mut self.store {
                store.tier = Some(tier);
            }
        }
        Ok(self)
    }
}

/// Full session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The (simulated) cluster to run on.
    pub cluster: ClusterSpec,
    /// The MPI library (leg 2).
    pub vendor: Vendor,
    /// Route calls through the Mukautuva shim? `false` models an
    /// application recompiled against the vendor's native headers.
    pub use_muk: bool,
    /// The checkpointing package (leg 3).
    pub checkpointer: Checkpointer,
    /// Session-driven checkpoint policy.
    pub policy: CkptPolicy,
    /// The durability leg: delta store, remote tier, coordinator
    /// replication — one composable [`DurabilityPolicy`].
    pub durability: DurabilityPolicy,
    /// Composable fault schedule: scheduled kills (injected node failures
    /// included), stragglers, tier fault scripts and replica fault scripts
    /// in one data value.
    pub schedule: FaultSchedule,
    /// Canonical rank-ordered reductions through the shim (bitwise
    /// reproducible across vendors; requires `use_muk`).
    pub deterministic_reductions: bool,
    /// Where the end-of-run crash-dump timeline is written when the run
    /// records incidents or fails. Defaults to the `STOOL_DUMP_DIR`
    /// environment variable; `None` disables dumping (events stay
    /// queryable through [`Session::telemetry`]).
    pub dump_dir: Option<PathBuf>,
}

/// Builder for [`Session`].
pub struct SessionBuilder {
    config: SessionConfig,
    /// Kills from [`SessionBuilder::inject_node_failure`], appended to the
    /// schedule's at build time so the two compose in either call order.
    injected: Vec<KillEvent>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            config: SessionConfig {
                cluster: ClusterSpec::discovery(),
                vendor: Vendor::Mpich,
                use_muk: true,
                checkpointer: Checkpointer::None,
                policy: CkptPolicy::default(),
                durability: DurabilityPolicy::default(),
                schedule: FaultSchedule::default(),
                deterministic_reductions: false,
                dump_dir: std::env::var_os("STOOL_DUMP_DIR").map(PathBuf::from),
            },
            injected: Vec::new(),
        }
    }
}

impl SessionBuilder {
    /// Set the cluster.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.config.cluster = cluster;
        self
    }

    /// Choose the MPI library.
    pub fn vendor(mut self, vendor: Vendor) -> Self {
        self.config.vendor = vendor;
        self
    }

    /// Bypass the Mukautuva shim (native-ABI baseline).
    pub fn native_abi(mut self) -> Self {
        self.config.use_muk = false;
        self
    }

    /// Make reductions bitwise reproducible across MPI implementations:
    /// the Mukautuva shim gathers contributions and folds them in world
    /// rank order, on the vendor's own reduction kernels, instead of
    /// trusting the vendor's association (see `muk::shim`). Matters when a
    /// job checkpoints under one vendor and restarts under another and its
    /// output must not depend on where it ran. Costs a gather and a bcast
    /// (a scatter for a scan) per reduction.
    pub fn deterministic_reductions(mut self) -> Self {
        self.config.deterministic_reductions = true;
        self
    }

    /// Choose the checkpointing package.
    pub fn checkpointer(mut self, ckpt: Checkpointer) -> Self {
        self.config.checkpointer = ckpt;
        self
    }

    /// Checkpoint (and continue or stop) when the application reaches the
    /// given safe-point step.
    pub fn checkpoint_at_step(mut self, step: u64, mode: CkptMode) -> Self {
        self.config.policy.at_step = Some(step);
        self.config.policy.mode = mode;
        self
    }

    /// Take a periodic checkpoint every `n` safe-point steps and keep
    /// running (classic interval checkpointing: a failed run names the
    /// last one, and [`Session::restore_from_store`] restarts from it).
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.config.policy.every_steps = Some(n);
        self
    }

    /// Install the session's [`DurabilityPolicy`]: an asynchronous delta
    /// store (ranks hand completed epochs to a background writer at the
    /// rendezvous, and only content-changed blocks reach the disk), its
    /// remote second tier, and a replicated coordinator — the same value
    /// [`crate::cluster::ClusterBuilder`] tenants take.
    pub fn durability(mut self, policy: DurabilityPolicy) -> Self {
        self.config.durability = policy;
        self
    }

    /// Write the merged crash-dump timeline (JSON lines + Chrome
    /// `trace_event`) under `dir` at the end of any run that recorded
    /// incidents — recovery elections, quorum losses, sink errors,
    /// failed tier ships, rank unwinds — or failed outright. Defaults to
    /// the `STOOL_DUMP_DIR` environment variable.
    pub fn crash_dump_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.dump_dir = Some(dir.into());
        self
    }

    /// Inject a global failure when the application reaches `step`,
    /// attributed to `node`: one more node-group [`KillEvent`] on the
    /// session's fault schedule. Failure is observed *globally*, like an
    /// `MPI_Abort` under a non-fault-tolerant MPI — every rank unwinds at
    /// the same safe point, and recovery is a Reinit-style global restart
    /// from the last completed checkpoint (the run/restart loop of
    /// [`crate::run_scenario`]).
    pub fn inject_node_failure(mut self, step: u64, node: usize) -> Self {
        self.injected.push(KillEvent {
            at_step: step,
            victims: Victims::Nodes(vec![node]),
        });
        self
    }

    /// Install a composable [`FaultSchedule`]: scheduled rank/node/world
    /// kills, slow-but-alive stragglers, FIFO tier upload/download fault
    /// scripts and coordinator-replica fault scripts in one data value
    /// (the scenario-matrix harness, `stool::scenario`). Composes with
    /// [`SessionBuilder::inject_node_failure`] in either call order: the
    /// injected kills follow the schedule's own in its kill list.
    pub fn fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Validate and build.
    pub fn build(mut self) -> StoolResult<Session> {
        self.config.durability = std::mem::take(&mut self.config.durability).resolve()?;
        self.config.schedule.kills.append(&mut self.injected);
        let c = &self.config;
        c.cluster.validate().map_err(StoolError::Config)?;
        if (c.policy.at_step.is_some() || c.policy.every_steps.is_some())
            && matches!(c.checkpointer, Checkpointer::None)
        {
            return Err(StoolError::Config(
                "a checkpoint policy requires a checkpointing package".into(),
            ));
        }
        if c.policy.every_steps == Some(0) {
            return Err(StoolError::Config(
                "checkpoint_every(0) is meaningless".into(),
            ));
        }
        if c.durability.store.is_some() && matches!(c.checkpointer, Checkpointer::None) {
            return Err(StoolError::Config(
                "a checkpoint store requires a checkpointing package".into(),
            ));
        }
        if c.durability.replicas.is_some() && matches!(c.checkpointer, Checkpointer::None) {
            return Err(StoolError::Config(
                "a replicated coordinator requires a checkpointing package".into(),
            ));
        }
        if c.deterministic_reductions && !c.use_muk {
            return Err(StoolError::Config(
                "deterministic reductions are a feature of the Mukautuva shim; \
                 they are unavailable with native_abi()"
                    .into(),
            ));
        }
        c.schedule
            .validate(&c.cluster)
            .map_err(StoolError::Config)?;
        if !c.schedule.is_empty() && matches!(c.checkpointer, Checkpointer::None) {
            return Err(StoolError::Config(
                "a fault schedule requires a checkpointing package".into(),
            ));
        }
        if (!c.schedule.tier_puts.is_empty() || !c.schedule.tier_gets.is_empty())
            && c.durability.store.as_ref().is_none_or(|s| s.tier.is_none())
        {
            return Err(StoolError::Config(
                "tier fault scripts require a remote tier in the durability policy".into(),
            ));
        }
        if !c.schedule.replica.is_empty() && c.durability.replicas.is_none() {
            return Err(StoolError::Config(
                "replica fault scripts require a replicated coordinator".into(),
            ));
        }
        Ok(Session::with_config(self.config))
    }
}

/// A bound three-legged stool, ready to launch programs.
#[derive(Debug)]
pub struct Session {
    /// The configuration in force.
    pub config: SessionConfig,
    /// The last run's unified observability snapshot.
    last_telemetry: Mutex<Option<TelemetrySnapshot>>,
}

/// The result of running a program under a session.
#[derive(Debug)]
pub enum RunOutcome {
    /// The program ran to completion.
    Completed {
        /// Per-rank final memories (the program's outputs).
        memories: Vec<Memory>,
        /// Per-rank final virtual clocks.
        clocks: Vec<VirtualTime>,
        /// Per-rank communication counters.
        counters: Vec<RankCounters>,
    },
    /// A checkpoint-and-stop was taken; it restarts under any vendor.
    Checkpointed {
        /// Where the checkpoint is.
        checkpoint: Checkpoint,
        /// Per-rank clocks at stop time.
        clocks: Vec<VirtualTime>,
        /// Per-rank communication counters at stop time.
        counters: Vec<RankCounters>,
    },
    /// An injected failure killed the job (see [`FaultSchedule`]).
    Failed {
        /// The last *completed* periodic checkpoint before the failure, if
        /// any — the recovery point for a Reinit-style global restart.
        checkpoint: Option<Checkpoint>,
        /// The safe-point step at which the failure struck.
        failed_step: u64,
        /// Per-rank clocks at failure time.
        clocks: Vec<VirtualTime>,
        /// Per-rank communication counters at failure time.
        counters: Vec<RankCounters>,
    },
}

/// Where a run left its newest completed checkpoint. Nothing on the way
/// back to the caller reads it: the restart is its one reader.
#[derive(Debug)]
pub enum Checkpoint {
    /// A store-less run's only copy, the coordinator's staged image:
    /// ready for [`Session::restore`].
    Image(WorldImage),
    /// The head of a storing run's chain, left on disk for
    /// [`Session::restore_from_store`].
    Stored {
        /// The head's epoch.
        epoch: u64,
    },
}

impl RunOutcome {
    /// Whether the program completed (vs. checkpoint-stopped).
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
    }

    /// Whether the run was killed by an injected failure.
    pub fn is_failed(&self) -> bool {
        matches!(self, RunOutcome::Failed { .. })
    }

    /// The makespan: max final clock across ranks.
    pub fn makespan(&self) -> VirtualTime {
        let clocks = match self {
            RunOutcome::Completed { clocks, .. } => clocks,
            RunOutcome::Checkpointed { clocks, .. } => clocks,
            RunOutcome::Failed { clocks, .. } => clocks,
        };
        clocks
            .iter()
            .copied()
            .fold(VirtualTime::ZERO, VirtualTime::max)
    }

    /// Per-rank communication counters, however the run ended.
    pub fn counters(&self) -> &[RankCounters] {
        match self {
            RunOutcome::Completed { counters, .. }
            | RunOutcome::Checkpointed { counters, .. }
            | RunOutcome::Failed { counters, .. } => counters,
        }
    }

    /// Per-rank memories of a completed run.
    pub fn memories(&self) -> StoolResult<&[Memory]> {
        match self {
            RunOutcome::Completed { memories, .. } => Ok(memories),
            RunOutcome::Checkpointed { .. } => Err(StoolError::App(
                "run was checkpoint-stopped, no final memories".into(),
            )),
            RunOutcome::Failed { failed_step, .. } => Err(StoolError::App(format!(
                "run failed at step {failed_step}, no final memories"
            ))),
        }
    }

    /// The world image of a store-less run's checkpoint.
    pub fn into_image(self) -> StoolResult<WorldImage> {
        let checkpoint = match self {
            RunOutcome::Checkpointed { checkpoint, .. } => Some(checkpoint),
            RunOutcome::Failed { checkpoint, .. } => checkpoint,
            RunOutcome::Completed { .. } => None,
        };
        match checkpoint {
            Some(Checkpoint::Image(image)) => Ok(image),
            Some(Checkpoint::Stored { epoch }) => Err(StoolError::App(format!(
                "the checkpoint is epoch {epoch} of the session's store: \
                 restart it with Session::restore_from_store"
            ))),
            None => Err(StoolError::App("the run left no checkpoint".into())),
        }
    }
}

/// What one run is wired to before its world starts: its flight
/// recorder, its lane of the committer (if it checkpoints through a
/// store; the lane holds the run's one handle on its chain, and hands it
/// back here when the world ends) and, for a restart from the chain, the
/// chain head it restores.
pub(crate) struct RunWiring {
    /// The run's flight recorder, tagged with the tenant id in a cluster.
    pub tel: Arc<Telemetry>,
    /// The committer and this run's lane in it.
    pub sink: Option<(Arc<SharedStoreWriter>, usize)>,
    /// The run's store once its world has ended and the committer has
    /// handed it back. Kept here, after `sink`, not in `run_inner`: a
    /// lone session then drops the store and joins its tier shipper
    /// after the committer thread exits, as when the committer owned
    /// it. Which thread exits first decides which malloc arena the next
    /// run's threads reuse; with the shipper first, a restore's head
    /// load faulted in about a third more fresh pages (2 cores, glibc).
    pub store: OnceLock<DeltaStore>,
    /// The chain head, when the run restarts from it: loaded through the
    /// handle that becomes the run's committer lane, and moved out into
    /// the restore, so the run does not hold a second copy of it.
    pub head: Option<WorldImage>,
}

/// Wire N runs: the only place a run's chain is opened. Each
/// run gets a recorder (one lane per rank plus the subsystem lanes,
/// tagged with its tenant id if any, echoing when `CKPT_TRACE` is set,
/// dumping into its own subdirectory so concurrent runs sharing one
/// configured directory never overwrite each other's timelines). A
/// storing run's chain is claimed and opened with its private tier
/// behind the run's upload-fault script, or attached to `shared_tier`
/// under the tenant's namespace; then every store becomes one lane of a
/// single committer. With `load_head` the open is also behind the run's
/// download-fault script, and the chain head is loaded through it before
/// it becomes the run's lane: one open per restore. A [`Session`] is the
/// one-run case, a [`crate::cluster::Cluster`] the N-run case.
pub(crate) fn wire_runs(
    runs: &[(&SessionConfig, Option<&str>)],
    shared_tier: Option<&SharedTier>,
    load_head: bool,
) -> StoolResult<Vec<RunWiring>> {
    static RUN_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut stores = Vec::new();
    let mut wired = Vec::with_capacity(runs.len());
    for &(config, tenant) in runs {
        let tel = Arc::new(Telemetry::with_config(
            config.cluster.nranks(),
            TelemetryConfig {
                dump_dir: config.dump_dir.as_ref().map(|d| {
                    let seq = RUN_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    d.join(format!("run-{}-{seq}", std::process::id()))
                }),
                echo: std::env::var_os("CKPT_TRACE").is_some(),
                tag: tenant.map(str::to_string),
                ..TelemetryConfig::default()
            },
        ));
        let (mut lane, mut head) = (None, None);
        if let Some(policy) = &config.durability.store {
            let open_us = tel.metrics().histogram("store.open_us");
            let started = Instant::now();
            let gets = load_head.then_some(&config.schedule.tier_gets[..]);
            let gets = gets.unwrap_or_default();
            let mut store =
                policy.open_store_scripted(&config.schedule.tier_puts, gets, Some(&tel))?;
            if let (Some(shared), Some(id)) = (shared_tier, tenant) {
                let ns = tenant_namespace(id).map_err(StoreError::Tier)?;
                store.attach_shared_tier(shared, &ns)?;
            }
            open_us.observe(started.elapsed().as_micros() as u64);
            head = load_head.then(|| store.load_latest()).transpose()?;
            lane = Some(stores.len());
            stores.push(store);
        }
        wired.push((tel, lane, head));
    }
    let writer = (!stores.is_empty()).then(|| Arc::new(SharedStoreWriter::spawn_stores(stores)));
    Ok(wired
        .into_iter()
        .map(|(tel, lane, head)| RunWiring {
            tel,
            sink: lane.zip(writer.clone()).map(|(lane, w)| (w, lane)),
            store: OnceLock::new(),
            head,
        })
        .collect())
}

impl Session {
    /// Begin building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// A session over a validated configuration.
    fn with_config(config: SessionConfig) -> Session {
        Session {
            config,
            last_telemetry: Mutex::new(None),
        }
    }

    /// The unified observability snapshot of the most recent run under
    /// this session — the flight recorder's merged event timeline and
    /// metrics registry, plus the delta store's per-epoch stats, the
    /// tier's shipping stats and the replica group's stats in one place.
    /// `None` before the first launch/restore.
    pub fn telemetry(&self) -> Option<TelemetrySnapshot> {
        self.last_telemetry
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The effective MANA configuration: the configured one, with
    /// asynchronous image writes switched on when a store is attached.
    fn mana_config(&self) -> Option<ManaConfig> {
        match self.config.checkpointer {
            Checkpointer::Mana(mut cfg) => {
                cfg.async_image_writes = self.config.durability.store.is_some();
                Some(cfg)
            }
            Checkpointer::None => None,
        }
    }

    /// The stack specification implied by the configuration.
    pub fn stack_spec(&self) -> StackSpec {
        StackSpec {
            vendor: self.config.vendor,
            muk: self.config.use_muk,
            mana: self.mana_config(),
            deterministic_reductions: self.config.deterministic_reductions,
        }
    }

    /// A human-readable label of the configuration (paper legend style).
    pub fn label(&self) -> String {
        self.stack_spec().label()
    }

    /// Launch a program fresh.
    pub fn launch(&self, program: &dyn MpiProgram) -> StoolResult<RunOutcome> {
        self.run_alone(program, None, false)
    }

    /// Restore a checkpointed world image and continue the program —
    /// possibly under a different vendor than it was checkpointed with.
    pub fn restore(&self, image: &WorldImage, program: &dyn MpiProgram) -> StoolResult<RunOutcome> {
        self.run_alone(program, Some(image.clone()), false)
    }

    /// Restart from the newest epoch of the session's attached delta
    /// store — under this session's vendor, which may differ from the
    /// vendor the chain was checkpointed under (the paper's headline
    /// scenario, now directly from deltas on disk). A scheduled
    /// download-fault script makes the hydration path itself flaky
    /// (torn/failed tier gets while the chain is pulled).
    pub fn restore_from_store(&self, program: &dyn MpiProgram) -> StoolResult<RunOutcome> {
        if self.config.durability.store.is_none() {
            return Err(StoolError::Config(
                "restore_from_store requires a checkpoint store in the durability policy".into(),
            ));
        }
        self.run_alone(program, None, true)
    }

    /// This session as the one run of its own wiring, on a pool as wide
    /// as its world, restoring `image` or, with `from_head`, the head of
    /// its own chain, which moves out of the wiring into the restore.
    fn run_alone(
        &self,
        program: &dyn MpiProgram,
        image: Option<WorldImage>,
        from_head: bool,
    ) -> StoolResult<RunOutcome> {
        let pool = WorkerPool::new(self.config.cluster.nranks());
        let mut wiring = wire_runs(&[(&self.config, None)], None, from_head)?;
        let image = image.or_else(|| wiring[0].head.take());
        self.run_inner(program, image, &pool, &wiring[0])
    }

    /// One run over its [`RunWiring`]: the world gang-admits onto `pool`,
    /// checkpoints through the wiring's committer lane, and reports
    /// through its recorder. With `image`, the run restores it: under
    /// MANA, into a world of the image's size, each rank moving its own
    /// image out of a slot of its own.
    pub(crate) fn run_inner(
        &self,
        program: &dyn MpiProgram,
        image: Option<WorldImage>,
        pool: &WorkerPool,
        wiring: &RunWiring,
    ) -> StoolResult<RunOutcome> {
        let spec = self.stack_spec();
        let cluster = &self.config.cluster;
        let restore = match image {
            None => None,
            Some(image) => {
                let mana_cfg = spec.mana.ok_or_else(|| {
                    StoolError::Config(
                        "restoring requires the MANA checkpointer in the session".into(),
                    )
                })?;
                if image.nranks() != cluster.nranks() {
                    return Err(StoolError::Restore(format!(
                        "image has {} ranks, cluster has {}",
                        image.nranks(),
                        cluster.nranks()
                    )));
                }
                let slots: Vec<_> = image.ranks.into_iter().map(Mutex::new).collect();
                Some((slots, mana_cfg))
            }
        };
        // The recorder is attached to every layer below before any rank
        // starts. On incident (or failure) its merged virtual-clock
        // timeline is dumped at the end of the run.
        let tel = &wiring.tel;
        let coordinator = match self.config.checkpointer {
            Checkpointer::Mana(_) => {
                let coord = Coordinator::new(cluster.nranks());
                coord.attach_telemetry(tel.clone());
                Some(coord)
            }
            Checkpointer::None => None,
        };
        // With a replicated coordinator, every epoch record must reach a
        // quorum of the replicas' durable logs before any round becomes
        // observable; the scripted faults drive the failover battery.
        if let (Some(policy), Some(coord)) = (&self.config.durability.replicas, &coordinator) {
            let logs: Vec<Arc<dyn ObjectTier>> = (0..policy.config.replicas)
                .map(|i| {
                    let dir = policy.dir.join(format!("replica_{i:02}"));
                    FsTier::open(&dir)
                        .map(|t| Arc::new(t) as Arc<dyn ObjectTier>)
                        .map_err(|e| StoolError::Replica(e.into()))
                })
                .collect::<StoolResult<_>>()?;
            let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
            let mut group =
                ReplicaGroup::new(policy.config, clock, logs).map_err(StoolError::Replica)?;
            // The schedule's replica faults are FIFO-consumed at barrier
            // phases.
            let scripted = !self.config.schedule.replica.is_empty();
            group.script_faults(self.config.schedule.replica.clone());
            group.attach_telemetry(tel.clone());
            if scripted {
                // A phase-scripted leader kill needs an incumbent from the
                // very first epoch barrier; elect one now instead of
                // lazily inside that barrier's commit.
                group.prime().map_err(StoolError::Replica)?;
            }
            coord.attach_replicas(Arc::new(group));
        }
        // With a store attached, the committer takes ownership of each
        // completed epoch at the rendezvous barrier and persists it as a
        // delta chain on the run's lane while the ranks run on.
        let sink = &wiring.sink;
        if let (Some(coord), Some((writer, lane))) = (&coordinator, sink) {
            let tenant_sink = Arc::new(TenantSink::new(writer.clone(), *lane));
            coord.attach_sink(tenant_sink, self.config.vendor.name());
        }
        let policy = self.config.policy;
        // The schedule's kill list resolves into one sorted kill
        // sequence, shared read-only by every rank.
        let kills = Arc::new(self.config.schedule.resolved_kills(cluster));

        let plan = RunPlan::auto(cluster.nranks());
        // Build the fabric here (instead of letting `World::run` do
        // it) so the recorder's hot-path counters attach before any rank
        // sends its first message.
        let cluster_arc = Arc::new(cluster.clone());
        let (fabric, endpoints) = Fabric::new(&cluster_arc);
        fabric.attach_telemetry(tel.clone());
        // The world gang-admits onto the pool: all of its rank permits
        // are taken at once (FIFO-ticketed, so a wide tenant is never
        // starved by narrow ones) and held for the whole run.
        let _gang = pool.acquire(cluster.nranks());
        let run_result = World::run_plan(cluster_arc, fabric, endpoints, plan, |ctx| {
            let (mut stack, mut mem, resume) = match &restore {
                None => (Stack::build(&spec, &ctx), Memory::new(), None),
                Some((slots, mana_cfg)) => {
                    let lower = spec.build_lower(&ctx);
                    let img = std::mem::take(&mut *slots[ctx.rank()].lock().expect("rank-owned"));
                    let restored = restore_rank(ctx.clone(), *mana_cfg, lower, img)
                        .map_err(|e| to_sim(StoolError::Restore(e)))?;
                    (
                        Stack::Mana(Box::new(restored.mana)),
                        restored.memory,
                        Some(restored.resume_step),
                    )
                }
            };
            let agent = coordinator.as_ref().map(|c| c.agent(ctx.rank()));
            let mut app = AppCtx {
                stack: &mut stack,
                mem: &mut mem,
                straggle: self.config.schedule.straggler_for(ctx.rank()),
                sim: ctx.clone(),
                resume,
                policy,
                kills: kills.clone(),
                tel: tel.clone(),
                coordinator: coordinator.clone(),
                agent,
                stopped: false,
                failed_at: None,
            };
            program.run(&mut app).map_err(to_sim)?;
            let stopped = app.was_stopped();
            let failed_at = app.failed_at();
            Ok((mem, stopped, failed_at))
        });

        // Every submitted epoch must be durable before the outcome is
        // inspected (restart may read the chain immediately). Retired
        // even when the run failed: the committer hands the run's store
        // back, so the telemetry snapshot, the crash dump and the head
        // epoch below see the final store/tier state through the one
        // handle.
        let (flush_result, store) = sink.as_ref().map_or((Ok(()), None), |(w, l)| w.retire(*l));
        let store = store.map(|s| wiring.store.get_or_init(|| s));
        // Local durability settled; now drain the background tier shipper
        // too, so the snapshot below reports final shipping statistics
        // (upload retries included) instead of racing the thread. A
        // sticky ship error is not a run error — it shows up as
        // `ship_failures`/`TierFail` in the telemetry it exists to feed.
        if let (Ok(()), Some(store)) = (&flush_result, store) {
            let _ = store.tier_flush();
        }

        // Fold any lock-discipline findings (cycles, guards carried into
        // a rendezvous) into the recorder before deciding whether to
        // dump: a lockcheck hit is an incident like any other and must
        // show up as `LockCycle` events in the timeline.
        let lock_incidents = sanity::lockcheck::take_incidents();
        if !lock_incidents.is_empty() {
            tel.note_lock_incidents(tel.coord_lane(), &lock_incidents);
        }

        // Unify the run's observability: the recorder plus every
        // subsystem's statistics in one snapshot, and — when the run
        // recorded incidents or failed outright — the one-shot merged
        // crash-dump timeline.
        let reason = if run_result.is_err() {
            "run failed: rank panic or unwind"
        } else if flush_result.is_err() {
            "checkpoint store writer failed"
        } else {
            "incidents recorded during the run"
        };
        let dump = if tel.incidents() > 0 || run_result.is_err() || flush_result.is_err() {
            tel.dump(reason)
        } else {
            None
        };
        let snapshot = TelemetrySnapshot {
            recorder: tel.clone(),
            epochs: store.map_or_else(Vec::new, |s| s.stats().to_vec()),
            tier: store.and_then(DeltaStore::tier_stats),
            replica: coordinator
                .as_ref()
                .and_then(|c| c.replicas())
                .map(|g| g.stats()),
            dump,
        };
        *self
            .last_telemetry
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = Some(snapshot);

        let outcome = run_result.map_err(StoolError::Sim)?;
        flush_result.map_err(StoolError::Store)?;
        // The last checkpoint this run completed: the staged image, or —
        // when the store consumed the staged images at the rendezvous —
        // the head epoch of the run's chain, which only a restart reads.
        let checkpoint = |c: &Coordinator| -> Option<Checkpoint> {
            if c.completed_rounds() == 0 {
                return None;
            }
            match store {
                Some(store) => store.latest().map(|epoch| Checkpoint::Stored { epoch }),
                None => c
                    .take_world_image(self.config.vendor.name())
                    .map(Checkpoint::Image),
            }
        };

        let failed: Vec<Option<u64>> = outcome.results.iter().map(|(_, _, f)| *f).collect();
        if let Some(&Some(step)) = failed.iter().find(|f| f.is_some()) {
            if !failed.iter().all(|&f| f == Some(step)) {
                return Err(StoolError::Config(
                    "inconsistent failure across ranks (programs must share safe-point steps)"
                        .into(),
                ));
            }
            return Ok(RunOutcome::Failed {
                checkpoint: coordinator.as_ref().and_then(checkpoint),
                failed_step: step,
                clocks: outcome.clocks,
                counters: outcome.counters,
            });
        }

        let stopped: Vec<bool> = outcome.results.iter().map(|(_, s, _)| *s).collect();
        if stopped.iter().any(|&s| s) {
            if !stopped.iter().all(|&s| s) {
                return Err(StoolError::Config(
                    "inconsistent checkpoint stop across ranks (program must unwind on Flow::Stop)"
                        .into(),
                ));
            }
            let coordinator = coordinator
                .ok_or_else(|| StoolError::Config("stopped without a coordinator".into()))?;
            let checkpoint = checkpoint(&coordinator)
                .ok_or_else(|| StoolError::Config("stop without a complete checkpoint".into()))?;
            return Ok(RunOutcome::Checkpointed {
                checkpoint,
                clocks: outcome.clocks,
                counters: outcome.counters,
            });
        }

        Ok(RunOutcome::Completed {
            memories: outcome.results.into_iter().map(|(m, _, _)| m).collect(),
            clocks: outcome.clocks,
            counters: outcome.counters,
        })
    }
}
