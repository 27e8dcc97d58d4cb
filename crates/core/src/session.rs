//! Sessions: binding the three legs of the stool at run time.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dmtcp_sim::coordinator::{BarrierTopology, CkptMode, Coordinator};
use dmtcp_sim::image::WorldImage;
use dmtcp_sim::memory::Memory;
use dmtcp_sim::replica::{Clock, ReplicaConfig, ReplicaFault, ReplicaGroup, SystemClock};
use dmtcp_sim::store::{DeltaStore, SharedStoreWriter, StoreConfig, StoreError, TenantSink};
use dmtcp_sim::tier::{
    FlakyTier, FsTier, GetFault, ObjectTier, PutFault, TierConfig, TierStatsHandle,
};
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
        self.open_store_flaky(&[], &[])
    }

    /// [`StorePolicy::open_store`] with FIFO upload/download fault
    /// scripts: when either is non-empty, a fault-injection wrapper
    /// ([`dmtcp_sim::FlakyTier`]) sits between the store and its tier
    /// (which it then requires). Used by the fault-schedule harness: the
    /// run's sink open scripts `puts` (torn/failed uploads mid-ship), the
    /// restore open scripts `gets` (torn/failed downloads during
    /// hydration).
    pub(crate) fn open_store_flaky(
        &self,
        puts: &[PutFault],
        gets: &[GetFault],
    ) -> Result<DeltaStore, StoreError> {
        self.claim()?;
        let scripted = !(puts.is_empty() && gets.is_empty());
        let t = match &self.tier {
            Some(t) => t,
            None if scripted => return Err(StoreError::NoTier),
            None => return DeltaStore::open_with(&self.dir, self.config),
        };
        let mut tier: Arc<dyn ObjectTier> =
            Arc::new(FsTier::open(&t.dir).map_err(StoreError::Tier)?);
        if scripted {
            let flaky = FlakyTier::new(tier);
            flaky.script_puts(puts.to_vec());
            flaky.script_gets(gets.to_vec());
            tier = Arc::new(flaky);
        }
        DeltaStore::open_with_tier(&self.dir, self.config, tier, t.config)
    }

    /// Check (and on first tenant-tagged open, write) the directory's
    /// `TENANT` ownership marker.
    fn claim(&self) -> Result<(), StoreError> {
        let tenant = self.tenant.as_str();
        let marker = self.dir.join("TENANT");
        match std::fs::read_to_string(&marker) {
            Ok(found) => {
                let found = found.trim();
                if found != tenant {
                    return Err(StoreError::TenantMismatch {
                        dir: self.dir.clone(),
                        expected: tenant.to_string(),
                        found: found.to_string(),
                    });
                }
                Ok(())
            }
            Err(_) => {
                // No marker: untagged opens stay untagged (full
                // back-compat); the first tenant-tagged open claims the
                // directory.
                if tenant.is_empty() {
                    return Ok(());
                }
                std::fs::create_dir_all(&self.dir).map_err(|e| StoreError::Io {
                    op: "create",
                    path: self.dir.clone(),
                    msg: e.to_string(),
                })?;
                std::fs::write(&marker, tenant).map_err(|e| StoreError::Io {
                    op: "write",
                    path: marker.clone(),
                    msg: e.to_string(),
                })
            }
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
/// replaced within the election timeout and the round either commits on
/// quorum or aborts atomically (see `dmtcp_sim::replica`).
#[derive(Debug, Clone)]
pub struct ReplicaPolicy {
    /// Root directory; each replica's log lives in `replica_NN/` below it.
    pub dir: PathBuf,
    /// Group size (must be ≥ 3; quorum is a majority).
    pub replicas: usize,
    /// Election timeout: how long a dead leader goes unnoticed before a
    /// follower takes over.
    pub election_timeout: std::time::Duration,
    /// Retry/backoff tunables for the replica log puts and gets.
    pub log: TierConfig,
    /// Scripted replica faults for failover tests (consumed in order as
    /// the leader passes barrier phases).
    pub faults: Vec<ReplicaFault>,
}

impl ReplicaPolicy {
    /// Default policy rooted at `dir`: 3 replicas, the
    /// [`ReplicaConfig`] default election timeout, no scripted faults.
    pub fn new(dir: impl Into<PathBuf>) -> ReplicaPolicy {
        let defaults = ReplicaConfig::default();
        ReplicaPolicy {
            dir: dir.into(),
            replicas: defaults.replicas,
            election_timeout: defaults.election_timeout,
            log: defaults.log,
            faults: Vec::new(),
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
            if replicas.replicas < 3 {
                return Err(StoolError::Config(format!(
                    "a replica group needs at least 3 replicas to survive one failure \
                     (got {})",
                    replicas.replicas
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
    /// Per-rank thread stack size override; `None` lets the world pick by
    /// size (bounded stacks for ≥ 128-rank worlds, OS default below).
    pub rank_stack_bytes: Option<usize>,
    /// Checkpoint-coordinator barrier topology override; `None` lets the
    /// coordinator pick by world size (flat ≤ 64 ranks, tree beyond).
    pub barrier_topology: Option<BarrierTopology>,
    /// Echo every flight-recorder event to stderr as it is emitted (the
    /// trace-level filter; default quiet, or on when the `CKPT_TRACE`
    /// environment variable is set).
    pub telemetry_echo: bool,
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
                rank_stack_bytes: None,
                barrier_topology: None,
                telemetry_echo: std::env::var_os("CKPT_TRACE").is_some(),
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
    /// running (classic interval checkpointing; feeds
    /// [`Session::run_resilient`]).
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

    /// Override the per-rank thread stack size. Without this the world
    /// auto-bounds stacks once it reaches 128 ranks (see
    /// [`simnet::RunPlan::auto`]) so 512–1024-rank worlds spin up without
    /// a per-rank address-space explosion.
    pub fn rank_stack_bytes(mut self, bytes: usize) -> Self {
        self.config.rank_stack_bytes = Some(bytes);
        self
    }

    /// Override the checkpoint coordinator's rendezvous barrier topology
    /// (default: auto by world size — flat up to 64 ranks, radix-32 tree
    /// beyond).
    pub fn barrier_topology(mut self, topology: BarrierTopology) -> Self {
        self.config.barrier_topology = Some(topology);
        self
    }

    /// Echo every flight-recorder event to stderr as it is emitted — the
    /// trace knob that replaced the old ad-hoc `CKPT_TRACE` prints
    /// (setting that environment variable still turns echoing on by
    /// default).
    pub fn telemetry_echo(mut self, on: bool) -> Self {
        self.config.telemetry_echo = on;
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
    /// from the last completed checkpoint ([`Session::run_resilient`]).
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
                "deterministic reductions are a feature of the Mukautuva shim;                  they are unavailable with native_abi()"
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
    /// A checkpoint-and-stop was taken; the world image is ready for
    /// [`Session::restore`] — under any vendor.
    Checkpointed {
        /// The collected world image.
        image: WorldImage,
        /// Per-rank clocks at stop time.
        clocks: Vec<VirtualTime>,
        /// Per-rank communication counters at stop time.
        counters: Vec<RankCounters>,
    },
    /// An injected failure killed the job (see [`FaultSchedule`]).
    Failed {
        /// The last *completed* periodic checkpoint before the failure, if
        /// any — the recovery point for a Reinit-style global restart.
        image: Option<WorldImage>,
        /// The safe-point step at which the failure struck.
        failed_step: u64,
        /// Per-rank clocks at failure time.
        clocks: Vec<VirtualTime>,
        /// Per-rank communication counters at failure time.
        counters: Vec<RankCounters>,
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

    /// The world image of a checkpoint-stopped run.
    pub fn into_image(self) -> StoolResult<WorldImage> {
        match self {
            RunOutcome::Checkpointed { image, .. } => Ok(image),
            RunOutcome::Failed {
                image: Some(image), ..
            } => Ok(image),
            RunOutcome::Failed {
                image: None,
                failed_step,
                ..
            } => Err(StoolError::App(format!(
                "run failed at step {failed_step} before any checkpoint completed"
            ))),
            RunOutcome::Completed { .. } => {
                Err(StoolError::App("run completed, no checkpoint image".into()))
            }
        }
    }
}

/// One recovery performed by [`Session::run_resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// The safe-point step at which the failure struck.
    pub failed_at: u64,
    /// Whether recovery used a checkpoint image (`false` = no checkpoint
    /// had completed yet, so the job restarted from scratch).
    pub from_image: bool,
}

/// What [`Session::run_resilient`] did to finish the job.
#[derive(Debug)]
pub struct ResilienceReport {
    /// The final (completed) outcome.
    pub outcome: RunOutcome,
    /// The global restarts that were needed, in order.
    pub recoveries: Vec<Recovery>,
}

/// What a cluster tenant's run shares with its siblings: the bounded
/// worker pool its world gang-admits onto, its lane of the one shared
/// store writer (if it checkpoints through a store), a live view of its
/// tier-shipping lane, and a pre-tagged flight recorder.
pub(crate) struct TenantShared<'p> {
    /// The cluster-wide bounded worker pool.
    pub pool: &'p WorkerPool,
    /// The shared committer and this tenant's lane in it.
    pub writer: Option<(Arc<SharedStoreWriter>, usize)>,
    /// Live view of the tenant's tier-shipping lane stats, if a shared
    /// tier is attached.
    pub tier_stats: Option<TierStatsHandle>,
    /// The tenant's flight recorder, tagged with its id.
    pub tel: Arc<Telemetry>,
}

/// Build a run's flight recorder: one lane per rank plus the four
/// subsystem lanes, optionally tagged (cluster tenants stamp their id
/// into every echo line and dump header). Each run dumps into its own
/// subdirectory so concurrent runs sharing one configured directory
/// (e.g. a CI-wide `STOOL_DUMP_DIR`) never overwrite each other's
/// timelines.
pub(crate) fn recorder_for(config: &SessionConfig, tag: Option<String>) -> Arc<Telemetry> {
    Arc::new(Telemetry::with_config(
        config.cluster.nranks(),
        TelemetryConfig {
            dump_dir: config.dump_dir.as_ref().map(|d| {
                static RUN_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                d.join(format!(
                    "run-{}-{}",
                    std::process::id(),
                    RUN_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                ))
            }),
            echo: config.telemetry_echo,
            tag,
            ..TelemetryConfig::default()
        },
    ))
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

    /// Carry a retry session's last snapshot over to this session, so
    /// [`Session::run_resilient`] callers see the final attempt's
    /// telemetry through [`Session::telemetry`].
    fn adopt_telemetry(&self, retry: &Session) {
        if let Some(snap) = retry.telemetry() {
            *self
                .last_telemetry
                .lock()
                .unwrap_or_else(|p| p.into_inner()) = Some(snap);
        }
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
        self.run_inner(program, None, None)
    }

    /// Internal: one tenant's run inside a [`crate::cluster::Cluster`] —
    /// the same wiring path as [`Session::launch`], with the cluster's
    /// shared pool, writer lane and tagged recorder attached.
    pub(crate) fn run_shared(
        &self,
        program: &dyn MpiProgram,
        shared: &TenantShared<'_>,
    ) -> StoolResult<RunOutcome> {
        self.run_inner(program, None, Some(shared))
    }

    /// Restore a checkpointed world image and continue the program —
    /// possibly under a different vendor than it was checkpointed with.
    pub fn restore(&self, image: &WorldImage, program: &dyn MpiProgram) -> StoolResult<RunOutcome> {
        let mana_cfg = self.mana_config().ok_or_else(|| {
            StoolError::Config("restoring requires the MANA checkpointer in the session".into())
        })?;
        if image.nranks() != self.config.cluster.nranks() {
            return Err(StoolError::Restore(format!(
                "image has {} ranks, cluster has {}",
                image.nranks(),
                self.config.cluster.nranks()
            )));
        }
        self.run_inner(program, Some((image, mana_cfg)), None)
    }

    /// Restart from the newest epoch of the session's attached delta
    /// store — under this session's vendor, which may differ from the
    /// vendor the chain was checkpointed under (the paper's headline
    /// scenario, now directly from deltas on disk).
    pub fn restore_from_store(&self, program: &dyn MpiProgram) -> StoolResult<RunOutcome> {
        let policy = self.config.durability.store.as_ref().ok_or_else(|| {
            StoolError::Config(
                "restore_from_store requires a checkpoint store in the durability policy".into(),
            )
        })?;
        // A scheduled download-fault script makes the hydration path
        // itself flaky (torn/failed tier gets while the chain is pulled).
        let store = policy.open_store_flaky(&[], &self.config.schedule.tier_gets)?;
        let image = store.load_latest()?;
        self.restore(&image, program)
    }

    fn run_inner(
        &self,
        program: &dyn MpiProgram,
        restore: Option<(&WorldImage, ManaConfig)>,
        shared: Option<&TenantShared<'_>>,
    ) -> StoolResult<RunOutcome> {
        let spec = self.stack_spec();
        let cluster = &self.config.cluster;
        // The run's flight recorder: one lane per rank plus the four
        // subsystem lanes, attached to every layer below before any rank
        // starts. On incident (or failure) its merged virtual-clock
        // timeline is dumped at the end of the run. Cluster tenants
        // arrive with their own id-tagged recorder, already attached to
        // their store lane.
        let tel = match shared {
            Some(ts) => ts.tel.clone(),
            None => recorder_for(&self.config, None),
        };
        let coordinator = match self.config.checkpointer {
            Checkpointer::Mana(_) => {
                let topology = self
                    .config
                    .barrier_topology
                    .unwrap_or_else(|| BarrierTopology::auto(cluster.nranks()));
                let coord = Coordinator::with_topology(cluster.nranks(), topology);
                coord.attach_telemetry(tel.clone());
                Some(coord)
            }
            Checkpointer::None => None,
        };
        // With a replicated coordinator, every epoch record must reach a
        // quorum of the replicas' durable logs before any round becomes
        // observable; the scripted faults drive the failover battery.
        if let (Some(policy), Some(coord)) = (&self.config.durability.replicas, &coordinator) {
            let config = ReplicaConfig {
                replicas: policy.replicas,
                election_timeout: policy.election_timeout,
                log: policy.log,
            };
            let logs: Vec<Arc<dyn ObjectTier>> = (0..policy.replicas)
                .map(|i| {
                    let dir = policy.dir.join(format!("replica_{i:02}"));
                    FsTier::open(&dir)
                        .map(|t| Arc::new(t) as Arc<dyn ObjectTier>)
                        .map_err(|e| StoolError::Replica(e.into()))
                })
                .collect::<StoolResult<_>>()?;
            let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
            let group = ReplicaGroup::new(config, clock, logs).map_err(StoolError::Replica)?;
            // The policy's own scripted faults run first, then the fault
            // schedule's (both are FIFO-consumed at barrier phases).
            let mut faults = policy.faults.clone();
            faults.extend(self.config.schedule.replica.iter().cloned());
            let scripted = !faults.is_empty();
            group.script_faults(faults);
            group.attach_telemetry(tel.clone());
            if scripted {
                // A phase-scripted leader kill needs an incumbent from the
                // very first epoch barrier; elect one now instead of
                // lazily inside that barrier's commit.
                group.prime().map_err(StoolError::Replica)?;
            }
            coord.attach_replicas(Arc::new(group));
        }
        // With a store attached, a background committer takes ownership
        // of each completed epoch at the rendezvous barrier and persists
        // it as a delta chain while the ranks run on: lane 0 of a private
        // one-lane writer for a classic session, the tenant's lane of the
        // ONE shared committer inside a cluster.
        let mut tier_stats = shared.and_then(|ts| ts.tier_stats.clone());
        let sink: Option<(Arc<SharedStoreWriter>, usize)> = match (&coordinator, shared) {
            (Some(_), Some(ts)) => ts.writer.clone(),
            (Some(_), None) => match &self.config.durability.store {
                Some(policy) => {
                    // Open the store first so the recorder (and a live
                    // view of the tier shipper's stats) can attach before
                    // the store moves into the background writer thread.
                    // A scheduled upload-fault script wraps the tier in
                    // its fault-injection double for this run only.
                    let mut store = policy
                        .open_store_flaky(&self.config.schedule.tier_puts, &[])
                        .map_err(StoolError::Store)?;
                    store.attach_telemetry(tel.clone());
                    tier_stats = store.tier_stats_handle();
                    let writer = SharedStoreWriter::spawn_stores(vec![store]);
                    Some((Arc::new(writer), 0))
                }
                None => None,
            },
            _ => None,
        };
        if let (Some(coord), Some((writer, lane))) = (&coordinator, &sink) {
            let tenant_sink = Arc::new(TenantSink::new(writer.clone(), *lane));
            coord.attach_sink(tenant_sink, self.config.vendor.name());
        }
        let policy = self.config.policy;
        // The schedule's kill list resolves into one sorted kill
        // sequence, shared read-only by every rank.
        let kills = Arc::new(self.config.schedule.resolved_kills(cluster));

        let plan = match self.config.rank_stack_bytes {
            Some(bytes) => RunPlan::with_stack_bytes(bytes),
            None => RunPlan::auto(cluster.nranks()),
        };
        // Build the fabric here (instead of letting `World::run` do
        // it) so the recorder's hot-path counters attach before any rank
        // sends its first message.
        let cluster_arc = Arc::new(cluster.clone());
        let (fabric, endpoints) = Fabric::new(&cluster_arc);
        fabric.attach_telemetry(tel.clone());
        // Inside a cluster, the tenant's world gang-admits onto the
        // shared bounded pool: all of its rank permits are taken at once
        // (FIFO-ticketed, so a wide tenant is never starved by narrow
        // ones) and held for the whole run.
        let _gang = shared.map(|ts| ts.pool.acquire(cluster.nranks()));
        let run_result = World::run_plan(cluster_arc, fabric, endpoints, plan, |ctx| {
            let (mut stack, mut mem, resume) = match restore {
                None => (Stack::build(&spec, &ctx), Memory::new(), None),
                Some((img, mana_cfg)) => {
                    let lower = spec.build_lower(&ctx);
                    let restored =
                        restore_rank(ctx.clone(), mana_cfg, lower, &img.ranks[ctx.rank()])
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
        // inspected (restart may read the chain immediately). Flushed
        // even when the run failed, so the telemetry snapshot and the
        // crash dump below see the final store/tier state.
        let flush_result = match &sink {
            Some((writer, lane)) => writer.flush_lane(*lane),
            None => Ok(()),
        };
        // Local durability settled; now drain the background tier shipper
        // too, so the snapshot below reports final shipping statistics
        // (upload retries included) instead of racing the thread. A
        // sticky ship error is not a run error — it shows up as
        // `ship_failures`/`TierFail` in the telemetry it exists to feed.
        if flush_result.is_ok() {
            if let Some(handle) = &tier_stats {
                let _ = handle.wait_durable();
            }
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
            epochs: match &sink {
                Some((writer, lane)) => writer.lane_stats(*lane),
                None => Vec::new(),
            },
            tier: tier_stats.as_ref().map(|h| h.stats()),
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
        // Collect the image of the last checkpoint this run completed:
        // from the staging area, or — when the store consumed the staged
        // images at the rendezvous — by rebuilding the chain head.
        let collect_image = |c: &Coordinator| -> StoolResult<Option<WorldImage>> {
            if c.completed_epoch() == 0 {
                return Ok(None);
            }
            match &self.config.durability.store {
                Some(policy) => {
                    let store = policy.open_store().map_err(StoolError::Store)?;
                    match store.load_latest() {
                        Ok(img) => Ok(Some(img)),
                        Err(StoreError::Empty) => Ok(None),
                        Err(e) => Err(StoolError::Store(e)),
                    }
                }
                None => Ok(c.take_world_image(self.config.vendor.name())),
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
            // Salvage the last completed periodic checkpoint, if any.
            let image = match &coordinator {
                Some(c) => collect_image(c)?,
                None => None,
            };
            return Ok(RunOutcome::Failed {
                image,
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
            let image = collect_image(&coordinator)?
                .ok_or_else(|| StoolError::Config("stop without a complete image".into()))?;
            return Ok(RunOutcome::Checkpointed {
                image,
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

    /// Run to completion through failures: Reinit-style global restart.
    ///
    /// Launches the program under this session's configuration (typically
    /// with [`SessionBuilder::checkpoint_every`] for periodic checkpoints
    /// and [`SessionBuilder::inject_node_failure`] for the experiment's
    /// fault). Each time the job fails, it is restarted from the last
    /// completed checkpoint image — or from scratch if none exists —
    /// treating injected faults as transient (they are not re-injected on
    /// the retry, like a crashed node that was replaced).
    ///
    /// `max_restarts` bounds the number of recoveries.
    pub fn run_resilient(
        &self,
        program: &dyn MpiProgram,
        max_restarts: usize,
    ) -> StoolResult<ResilienceReport> {
        if matches!(self.config.checkpointer, Checkpointer::None) {
            return Err(StoolError::Config(
                "run_resilient requires the MANA checkpointer".into(),
            ));
        }
        let mut recoveries = Vec::new();
        let mut pending_image: Option<WorldImage> = None;
        loop {
            let outcome = match &pending_image {
                None => self.launch(program)?,
                Some(image) => {
                    // The retry session: same stack, kills cleared — the
                    // crashed node was replaced.
                    let mut retry = Session::with_config(self.config.clone());
                    retry.config.schedule.kills.clear();
                    let outcome = retry.restore(image, program)?;
                    self.adopt_telemetry(&retry);
                    outcome
                }
            };
            match outcome {
                RunOutcome::Failed {
                    image, failed_step, ..
                } => {
                    if recoveries.len() >= max_restarts {
                        return Err(StoolError::App(format!(
                            "job failed at step {failed_step} after {} restarts",
                            recoveries.len()
                        )));
                    }
                    recoveries.push(Recovery {
                        failed_at: failed_step,
                        from_image: image.is_some(),
                    });
                    pending_image = image;
                    // After the first failure the fault is spent; a fresh
                    // from-scratch launch must not re-fail, so clear it by
                    // retrying through a fault-free session when no image
                    // exists either.
                    if pending_image.is_none() {
                        let mut retry = Session::with_config(self.config.clone());
                        retry.config.schedule.kills.clear();
                        let outcome = retry.launch(program)?;
                        self.adopt_telemetry(&retry);
                        return Ok(ResilienceReport {
                            outcome,
                            recoveries,
                        });
                    }
                }
                done => {
                    return Ok(ResilienceReport {
                        outcome: done,
                        recoveries,
                    })
                }
            }
        }
    }
}
