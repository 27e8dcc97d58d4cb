//! Declarative fault-schedule scenarios: the matrix harness.
//!
//! The paper's core claim is that cross-vendor restart survives *any*
//! failure the runtime can throw. This module turns "any failure" into
//! **data**: a [`FaultSchedule`] is a composable value describing rank
//! fail-storms, correlated node-group kills, slow/straggler ranks, torn
//! tier uploads mid-ship and coordinator leader-kills at a chosen barrier
//! phase — and a [`ScenarioSpec`] is one row of a matrix (app × vendor
//! pair × world size × durability policy × schedule), a plain Rust value
//! checked by [`ScenarioSpec::validate`].
//!
//! [`run_scenario`] executes one row and asserts the same three
//! invariants for every schedule:
//!
//! 1. **Consistent unwind** — every rank observes the same failure step,
//!    the run returns (no hang), and the epoch chain holds no partial or
//!    quarantined epoch;
//! 2. **Cross-vendor bit-identical restart** — the job restarted from the
//!    chain under the *other* vendor finishes with memories bitwise equal
//!    to an uninterrupted reference run;
//! 3. **Expected incidents in the flight recorder** — kills surface as
//!    [`EventKind::RankKill`] incidents, stragglers as
//!    [`EventKind::RankStall`], torn uploads as tier `put_retries`,
//!    leader-kills as replica recoveries.
//!
//! The committed matrix is `stool_bench::matrix::matrix()`; the
//! `scenario` binary in `stool-bench` runs every row and emits one
//! structured JSON result per row into `BENCH_matrix.json`, which
//! `benchgate --matrix` gates exactly. See `docs/scenarios.md`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use dmtcp_sim::memory::Memory;
use dmtcp_sim::replica::{BarrierPhase, ReplicaFault};
use dmtcp_sim::store::{DeltaStore, StoreConfig, StoreError};
use dmtcp_sim::testing::Fault;
use dmtcp_sim::tier::TierConfig;
use muk::Vendor;
use sanity::json_string;
use simnet::telemetry::EventKind;
use simnet::{ClusterSpec, VirtualTime};

use crate::program::MpiProgram;
use crate::session::{
    Checkpointer, DurabilityPolicy, ReplicaPolicy, RunOutcome, Session, StorePolicy, TierPolicy,
};
use crate::telemetry::TelemetrySnapshot;

// ---------------------------------------------------------------------------
// The fault schedule: failures as data
// ---------------------------------------------------------------------------

/// Who a [`KillEvent`] strikes. The failure is still observed *globally*
/// (every rank unwinds at the same safe point, like an `MPI_Abort`); the
/// victims determine which ranks the flight recorder blames with
/// [`EventKind::RankKill`] and which node-group carries the blame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Victims {
    /// The whole world (a cluster-wide outage).
    World,
    /// A fail-storm of specific ranks.
    Ranks(Vec<usize>),
    /// A correlated node-group failure: every rank on the named nodes.
    Nodes(Vec<usize>),
}

impl Victims {
    /// The ranks this selection blames on `cluster`, sorted and deduped.
    pub fn resolve(&self, cluster: &ClusterSpec) -> Vec<usize> {
        let mut ranks: Vec<usize> = match self {
            Victims::World => (0..cluster.nranks()).collect(),
            Victims::Ranks(list) => list.clone(),
            Victims::Nodes(nodes) => (0..cluster.nranks())
                .filter(|&r| nodes.contains(&cluster.node_of(r)))
                .collect(),
        };
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// The node-group blamed for the failure (the first victim's node).
    pub fn blamed_node(&self, cluster: &ClusterSpec) -> usize {
        match self {
            Victims::World => 0,
            Victims::Nodes(nodes) => nodes.first().copied().unwrap_or(0),
            Victims::Ranks(ranks) => ranks.first().map(|&r| cluster.node_of(r)).unwrap_or(0),
        }
    }
}

/// One scheduled kill: the job dies globally when the application reaches
/// `at_step`, blamed on `victims`. A schedule may hold several kills,
/// consumed one per run as the job is restarted from the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillEvent {
    /// The safe-point step at which this kill strikes.
    pub at_step: u64,
    /// The blamed ranks/nodes.
    pub victims: Victims,
}

/// A slow-but-alive rank: every checkpoint safe point in
/// `[from_step, until_step)` costs this rank an extra `delay` of virtual
/// time before it arrives. Models an overheated node or a noisy
/// neighbour; correctness (the tree barrier, the cut) must not depend on
/// arrival skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Straggler {
    /// The delayed rank.
    pub rank: usize,
    /// First safe-point step that stalls (inclusive).
    pub from_step: u64,
    /// First safe-point step that no longer stalls (exclusive).
    pub until_step: u64,
    /// The injected per-safe-point delay.
    pub delay: VirtualTime,
}

/// A composable fault schedule: everything the runtime can throw at one
/// run, as one data value. Consumed by `Session::run_inner` — attach with
/// [`crate::SessionBuilder::fault_schedule`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// Scheduled global kills, blamed on ranks or node-groups.
    pub kills: Vec<KillEvent>,
    /// Slow-but-alive ranks (virtual-clock delay injection).
    pub stragglers: Vec<Straggler>,
    /// The remote tier's put script during the run (torn/failed uploads
    /// mid-ship; entry i faults the i-th put). Requires an attached tier.
    pub tier_puts: Vec<Fault>,
    /// The remote tier's get script while `restore_from_store` hydrates
    /// the chain. Requires an attached tier.
    pub tier_gets: Vec<Fault>,
    /// Scripted coordinator-replica faults (leader kills at a chosen
    /// barrier phase). Requires a replicated coordinator.
    pub replica: Vec<ReplicaFault>,
}

impl FaultSchedule {
    /// Whether the schedule injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
            && self.stragglers.is_empty()
            && self.tier_puts.is_empty()
            && self.tier_gets.is_empty()
            && self.replica.is_empty()
    }

    /// Add a fail-storm of `ranks` at `step`.
    pub fn kill_ranks(mut self, step: u64, ranks: impl Into<Vec<usize>>) -> Self {
        self.kills.push(KillEvent {
            at_step: step,
            victims: Victims::Ranks(ranks.into()),
        });
        self
    }

    /// Add a correlated node-group kill at `step`.
    pub fn kill_nodes(mut self, step: u64, nodes: impl Into<Vec<usize>>) -> Self {
        self.kills.push(KillEvent {
            at_step: step,
            victims: Victims::Nodes(nodes.into()),
        });
        self
    }

    /// Add a cluster-wide outage at `step`.
    pub fn kill_world(mut self, step: u64) -> Self {
        self.kills.push(KillEvent {
            at_step: step,
            victims: Victims::World,
        });
        self
    }

    /// Delay `rank` by `delay` at every safe point in `[from, until)`.
    pub fn straggle(mut self, rank: usize, from: u64, until: u64, delay: VirtualTime) -> Self {
        self.stragglers.push(Straggler {
            rank,
            from_step: from,
            until_step: until,
            delay,
        });
        self
    }

    /// Append tier upload faults to the put script.
    pub fn tier_put_faults(mut self, faults: impl IntoIterator<Item = Fault>) -> Self {
        self.tier_puts.extend(faults);
        self
    }

    /// Append tier download faults to the hydration script.
    pub fn tier_get_faults(mut self, faults: impl IntoIterator<Item = Fault>) -> Self {
        self.tier_gets.extend(faults);
        self
    }

    /// Kill the coordinator-replica leader at `phase`.
    pub fn kill_leader_at(mut self, phase: BarrierPhase) -> Self {
        self.replica.push(ReplicaFault::KillLeaderAt(phase));
        self
    }

    /// The step of the earliest scheduled kill, if any.
    pub fn first_kill_step(&self) -> Option<u64> {
        self.kills.iter().map(|k| k.at_step).min()
    }

    /// The straggler entry covering `rank`, if any.
    pub(crate) fn straggler_for(&self, rank: usize) -> Option<Straggler> {
        self.stragglers.iter().find(|s| s.rank == rank).copied()
    }

    /// Internal-consistency checks against the cluster the schedule will
    /// run on. `Hold` and `PowerLoss` tier faults are rejected: a held
    /// object would hang the scenario, and a lost tier wedge every later
    /// upload, instead of failing it. A rank gets one straggler window:
    /// [`Self::straggler_for`] would drop a second.
    pub fn validate(&self, cluster: &ClusterSpec) -> Result<(), String> {
        for kill in &self.kills {
            match &kill.victims {
                Victims::World => {}
                Victims::Ranks(ranks) => {
                    if ranks.is_empty() {
                        return Err(format!("kill at step {}: empty rank list", kill.at_step));
                    }
                    if let Some(&r) = ranks.iter().find(|&&r| r >= cluster.nranks()) {
                        return Err(format!(
                            "kill at step {} blames rank {r} but the world has {} ranks",
                            kill.at_step,
                            cluster.nranks()
                        ));
                    }
                }
                Victims::Nodes(nodes) => {
                    if nodes.is_empty() {
                        return Err(format!("kill at step {}: empty node list", kill.at_step));
                    }
                    if let Some(&n) = nodes.iter().find(|&&n| n >= cluster.nodes) {
                        return Err(format!(
                            "kill at step {} blames node {n} but the cluster has {} nodes",
                            kill.at_step, cluster.nodes
                        ));
                    }
                }
            }
        }
        for (i, s) in self.stragglers.iter().enumerate() {
            if self.stragglers[..i].iter().any(|o| o.rank == s.rank) {
                return Err(format!("straggler rank {}: a second window", s.rank));
            }
            if s.rank >= cluster.nranks() {
                return Err(format!(
                    "straggler rank {} out of range (world has {} ranks)",
                    s.rank,
                    cluster.nranks()
                ));
            }
            if s.from_step >= s.until_step {
                return Err(format!(
                    "straggler rank {}: empty step window [{}, {})",
                    s.rank, s.from_step, s.until_step
                ));
            }
            if s.delay == VirtualTime::ZERO {
                return Err(format!("straggler rank {}: zero delay", s.rank));
            }
        }
        let mut scripts = self.tier_puts.iter().chain(&self.tier_gets);
        if let Some(f) = scripts.find(|f| matches!(f, Fault::Hold | Fault::PowerLoss)) {
            return Err(format!("a tier {f:?} would wedge a scenario"));
        }
        Ok(())
    }

    /// The schedule that remains after a run failed at `failed_step`:
    /// kills at or before that step are consumed, as are the upload
    /// script (spent against the failed run's shipper) and the replica
    /// script (spent against its group). Stragglers and the hydration
    /// script persist — they apply to the restart.
    pub fn after_failure(&self, failed_step: u64) -> FaultSchedule {
        FaultSchedule {
            kills: self
                .kills
                .iter()
                .filter(|k| k.at_step > failed_step)
                .cloned()
                .collect(),
            stragglers: self.stragglers.clone(),
            tier_puts: Vec::new(),
            tier_gets: self.tier_gets.clone(),
            replica: Vec::new(),
        }
    }

    /// Resolve the kill list against the cluster: sorted by step, victims
    /// expanded to rank lists, same-step events merged (the first one
    /// listed names the blamed node-group).
    pub(crate) fn resolved_kills(&self, cluster: &ClusterSpec) -> Vec<ResolvedKill> {
        let mut by_step: BTreeMap<u64, (Vec<usize>, usize)> = BTreeMap::new();
        for kill in &self.kills {
            let node = kill.victims.blamed_node(cluster);
            let entry = by_step
                .entry(kill.at_step)
                .or_insert_with(|| (Vec::new(), node));
            entry.0.extend(kill.victims.resolve(cluster));
        }
        by_step
            .into_iter()
            .map(|(at_step, (mut victims, node))| {
                victims.sort_unstable();
                victims.dedup();
                ResolvedKill {
                    at_step,
                    victims,
                    node,
                }
            })
            .collect()
    }
}

/// A kill event resolved against a concrete cluster (victims expanded to
/// ranks). Consumed by `AppCtx::checkpoint_point`.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedKill {
    pub(crate) at_step: u64,
    pub(crate) victims: Vec<usize>,
    pub(crate) node: usize,
}

// ---------------------------------------------------------------------------
// Scenario specs
// ---------------------------------------------------------------------------

/// Which durability legs a scenario attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityKind {
    /// Local delta store only.
    Store,
    /// Delta store + remote second tier.
    Tier,
    /// Delta store + replicated coordinator.
    Replica,
    /// Delta store + tier + replicated coordinator.
    TierReplica,
}

impl DurabilityKind {
    /// Whether a remote tier is attached.
    pub fn has_tier(self) -> bool {
        matches!(self, DurabilityKind::Tier | DurabilityKind::TierReplica)
    }

    /// Whether a replicated coordinator is attached.
    pub fn has_replicas(self) -> bool {
        matches!(self, DurabilityKind::Replica | DurabilityKind::TierReplica)
    }
}

/// The application a scenario row runs; the runner's program factory
/// (`stool_bench::matrix::app_for`) instantiates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// `stool::programs::RingPings`, the session smoke ring.
    Ring,
    /// `stool::programs::SleepyProgram`, compute-free napping steps.
    Sleepy,
    /// The paper's §5 wave_mpi stencil.
    Wave,
    /// The paper's §5 CoMD mini-MD.
    Comd,
}

impl App {
    /// The name `BENCH_matrix.json` reports.
    pub fn name(self) -> &'static str {
        match self {
            App::Ring => "ring",
            App::Sleepy => "sleepy",
            App::Wave => "wave",
            App::Comd => "comd",
        }
    }
}

/// One row of the scenario matrix: app × vendor pair × world size ×
/// durability policy × [`FaultSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Row name: unique within a matrix, non-empty `[a-z0-9-]` (it names
    /// the row's directory under the runner's workdir).
    pub name: String,
    /// The application.
    pub app: App,
    /// The vendor the job launches under; restarts alternate to the
    /// *other* vendor first (the paper's headline).
    pub vendor: Vendor,
    /// Cluster nodes.
    pub nodes: usize,
    /// Ranks per node.
    pub ranks_per_node: usize,
    /// Application steps (safe points).
    pub steps: u64,
    /// Application size knob (payload doubles, grid points, lattice edge —
    /// per-app meaning, resolved by the program factory).
    pub payload: u64,
    /// Periodic checkpoint interval (safe-point steps).
    pub ckpt_every: u64,
    /// Durability legs to attach.
    pub durability: DurabilityKind,
    /// Canonical rank-ordered reductions (required for apps whose
    /// floating-point reductions are not bitwise vendor-independent).
    pub det: bool,
    /// Delete the local chain before the first restart, forcing hydration
    /// from the remote tier alone. Requires a tier.
    pub wipe_local: bool,
    /// The fault schedule.
    pub schedule: FaultSchedule,
}

impl ScenarioSpec {
    /// A spec with defaults (small ring world) under `name`.
    pub fn named(name: impl Into<String>) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            app: App::Ring,
            vendor: Vendor::Mpich,
            nodes: 3,
            ranks_per_node: 2,
            steps: 24,
            payload: 64,
            ckpt_every: 8,
            durability: DurabilityKind::Store,
            det: false,
            wipe_local: false,
            schedule: FaultSchedule::default(),
        }
    }

    /// The cluster this row runs on.
    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec::builder()
            .nodes(self.nodes)
            .ranks_per_node(self.ranks_per_node)
            .build()
    }

    /// The *other* vendor — what the first restart runs under.
    pub fn restart_vendor(&self) -> Vendor {
        other_vendor(self.vendor)
    }

    /// Internal-consistency checks (name, bounds, durability
    /// compatibility). Every kill must land strictly between the first
    /// checkpoint and the last step, or it could never be recovered from
    /// or never fire.
    pub fn validate(&self) -> Result<(), String> {
        let ctx = |msg: String| format!("scenario \"{}\": {msg}", self.name);
        let name_ok = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-';
        if self.name.is_empty() || !self.name.chars().all(name_ok) {
            return Err(ctx("name must be non-empty [a-z0-9-]".into()));
        }
        if self.steps == 0 {
            return Err(ctx("steps must be positive".into()));
        }
        if self.ckpt_every == 0 || self.ckpt_every >= self.steps {
            return Err(ctx(format!(
                "ckpt_every {} must be in 1..steps ({})",
                self.ckpt_every, self.steps
            )));
        }
        self.schedule.validate(&self.cluster()).map_err(ctx)?;
        if !self.durability.has_tier()
            && (!self.schedule.tier_puts.is_empty() || !self.schedule.tier_gets.is_empty())
        {
            return Err(ctx(format!(
                "tier faults need durability Tier or TierReplica (got {:?})",
                self.durability
            )));
        }
        if !self.durability.has_replicas() && !self.schedule.replica.is_empty() {
            return Err(ctx(format!(
                "leader kills need durability Replica or TierReplica (got {:?})",
                self.durability
            )));
        }
        if self.wipe_local && !self.durability.has_tier() {
            return Err(ctx("wipe_local needs a remote tier to hydrate from".into()));
        }
        for kill in &self.schedule.kills {
            if kill.at_step <= self.ckpt_every {
                return Err(ctx(format!(
                    "kill at step {} precedes the first checkpoint \
                     (ckpt_every = {}); recovery would restart from scratch",
                    kill.at_step, self.ckpt_every
                )));
            }
            if kill.at_step >= self.steps {
                return Err(ctx(format!(
                    "kill at step {} is past the last step ({})",
                    kill.at_step, self.steps
                )));
            }
        }
        Ok(())
    }
}

fn other_vendor(v: Vendor) -> Vendor {
    match v {
        Vendor::Mpich => Vendor::OpenMpi,
        Vendor::OpenMpi => Vendor::Mpich,
    }
}

// ---------------------------------------------------------------------------
// The scenario engine
// ---------------------------------------------------------------------------

/// What one executed scenario reported. `failures` is empty iff the row
/// passed; metrics are deterministic (virtual time, scripted faults) and
/// feed `BENCH_matrix.json`.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Row name.
    pub name: String,
    /// The application.
    pub app: App,
    /// Launch vendor.
    pub vendor: Vendor,
    /// Invariant failures (empty = passed).
    pub failures: Vec<String>,
    /// Global restarts forced by kill events.
    pub recovery_rounds: u64,
    /// Kill events consumed across the scenario.
    pub kills: u64,
    /// Epochs left on the final chain.
    pub epochs: u64,
    /// Tier upload retries observed (torn/failed uploads recovered).
    pub put_retries: u64,
    /// Straggler stalls recorded by the flight recorder.
    pub stalls: u64,
    /// Replica failover recoveries observed.
    pub elections: u64,
}

impl ScenarioResult {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Accumulated telemetry across a scenario's runs.
#[derive(Default)]
struct Observed {
    rank_kills: u64,
    stalls: u64,
    put_retries: u64,
    recoveries: u64,
    incidents_in_failed_runs: u64,
}

impl Observed {
    fn absorb(&mut self, snap: &TelemetrySnapshot, run_failed: bool) {
        self.rank_kills += snap.emitted(EventKind::RankKill);
        self.stalls += snap.emitted(EventKind::RankStall);
        if let Some(tier) = &snap.tier {
            self.put_retries += tier.put_retries;
        }
        if let Some(replica) = &snap.replica {
            self.recoveries += replica.recoveries;
        }
        if run_failed {
            self.incidents_in_failed_runs += snap.incidents();
        }
    }
}

/// Execute one scenario row: reference run, faulted run, restart chain
/// under the alternating vendor, and the three invariants. Never panics on
/// an invariant violation — failures are collected into the result so a
/// matrix run reports every broken row, not just the first.
///
/// `program` must implement the row's `app` for the row's `steps`/`payload`
/// (the runner's program factory does this mapping); `workdir` hosts the
/// row's chain/tier/replica directories (wiped on entry).
pub fn run_scenario(
    spec: &ScenarioSpec,
    program: &dyn MpiProgram,
    workdir: &Path,
) -> ScenarioResult {
    let mut result = ScenarioResult {
        name: spec.name.clone(),
        app: spec.app,
        vendor: spec.vendor,
        failures: Vec::new(),
        recovery_rounds: 0,
        kills: 0,
        epochs: 0,
        put_retries: 0,
        stalls: 0,
        elections: 0,
    };
    if let Err(msg) = spec.validate() {
        result.failures.push(msg);
        return result;
    }
    let base = workdir.join(&spec.name);
    // lint:allow(one-persistence-path) — clears the row's scratch directory before it runs; no checkpoint is read.
    let _ = std::fs::remove_dir_all(&base);
    let durability = durability_for(spec, &base);
    let mut observed = Observed::default();
    let mut references: BTreeMap<&'static str, Vec<Memory>> = BTreeMap::new();

    // The run/restart chain: launch once under the primary vendor with
    // the full schedule; each kill fails the run globally, and the job is
    // restored from the chain under the alternating vendor with the
    // remaining schedule. There is no other way back.
    let mut remaining = spec.schedule.clone();
    let mut vendor = spec.vendor;
    let max_rounds = spec.schedule.kills.len() as u64 + 2;
    let final_memories = loop {
        let restart = result.recovery_rounds > 0;
        let session = match build_session(spec, vendor, durability.clone(), remaining.clone()) {
            Ok(s) => s,
            Err(e) => {
                result.failures.push(format!("session build: {e}"));
                break None;
            }
        };
        let outcome = if restart {
            session.restore_from_store(program)
        } else {
            session.launch(program)
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                result.failures.push(format!(
                    "{} run under {} errored: {e}",
                    if restart { "restart" } else { "launch" },
                    vendor.name()
                ));
                break None;
            }
        };
        let run_failed = outcome.is_failed();
        if let Some(snap) = session.telemetry() {
            observed.absorb(&snap, run_failed);
            let round = result.recovery_rounds;
            let run = match round {
                0 => format!("launch under {}", vendor.name()),
                r => format!("restart round {r} under {}", vendor.name()),
            };
            check_head_loads(spec, &snap, round, &run, &mut result.failures);
        }
        match outcome {
            RunOutcome::Completed { memories, .. } => break Some((memories, vendor)),
            RunOutcome::Checkpointed { .. } => {
                result
                    .failures
                    .push("run checkpoint-stopped; scenarios never schedule a Stop".into());
                break None;
            }
            RunOutcome::Failed {
                checkpoint,
                failed_step,
                ..
            } => {
                result.kills += 1;
                // Invariant 1a: the failure lands exactly where the
                // schedule says (every rank agreed, or run_inner would
                // have errored above).
                match remaining.first_kill_step() {
                    Some(expected) if expected == failed_step => {}
                    Some(expected) => result.failures.push(format!(
                        "failed at step {failed_step}, schedule expected {expected}"
                    )),
                    None => result
                        .failures
                        .push(format!("unscheduled failure at step {failed_step}")),
                }
                // A restart restores the newest checkpoint; without one
                // the job could only relaunch from step 0.
                if checkpoint.is_none() {
                    result.failures.push(format!(
                        "failed at step {failed_step} with no completed checkpoint to restore"
                    ));
                    break None;
                }
                // Invariant 1b: the chain survived the unwind whole.
                check_chain(&durability, &mut result.failures);
                result.recovery_rounds += 1;
                if result.recovery_rounds >= max_rounds {
                    result
                        .failures
                        .push(format!("no convergence after {max_rounds} restarts"));
                    break None;
                }
                remaining = remaining.after_failure(failed_step);
                if spec.wipe_local && result.recovery_rounds == 1 {
                    if let Err(msg) = wipe_local_chain(&durability) {
                        result.failures.push(msg);
                        break None;
                    }
                }
                // Restarts alternate vendors, starting with the other one
                // (the paper's headline restart).
                vendor = if result.recovery_rounds % 2 == 1 {
                    spec.restart_vendor()
                } else {
                    spec.vendor
                };
            }
        }
    };

    // Invariant 2: bit-identical final state vs an uninterrupted
    // reference run under the finishing vendor.
    if let Some((memories, final_vendor)) = &final_memories {
        match reference_for(spec, *final_vendor, program, &mut references) {
            Ok(reference) => {
                if let Some(msg) = memories_differ(reference, memories) {
                    result
                        .failures
                        .push(format!("final state under {}: {msg}", final_vendor.name()));
                }
            }
            Err(e) => result.failures.push(e),
        }
        // Rows whose schedule kills nothing still must prove the
        // cross-vendor restart: restore the chain under the other vendor
        // and compare that run too.
        if result.recovery_rounds == 0 {
            verify_restart(spec, program, &durability, &mut references, &mut result);
        }
    }

    // Invariant 3: the flight recorder holds the schedule's expected
    // incident events.
    let expected_victims: u64 = spec
        .schedule
        .resolved_kills(&spec.cluster())
        .iter()
        .map(|k| k.victims.len() as u64)
        .sum();
    if expected_victims > 0 {
        if observed.rank_kills < expected_victims {
            result.failures.push(format!(
                "expected >= {expected_victims} RankKill events, recorder saw {}",
                observed.rank_kills
            ));
        }
        if observed.incidents_in_failed_runs == 0 {
            result
                .failures
                .push("kills recorded no incidents (crash dump would not trigger)".into());
        }
    }
    if !spec.schedule.stragglers.is_empty() && observed.stalls == 0 {
        result
            .failures
            .push("stragglers scheduled but no RankStall events recorded".into());
    }
    if !spec.schedule.tier_puts.is_empty()
        && observed.put_retries < spec.schedule.tier_puts.len() as u64
    {
        result.failures.push(format!(
            "expected >= {} tier put retries (one per scripted upload fault), saw {}",
            spec.schedule.tier_puts.len(),
            observed.put_retries
        ));
    }
    if !spec.schedule.replica.is_empty() && observed.recoveries < spec.schedule.replica.len() as u64
    {
        result.failures.push(format!(
            "expected >= {} replica failover recoveries, saw {}",
            spec.schedule.replica.len(),
            observed.recoveries
        ));
    }

    result.epochs = final_epoch_count(&durability);
    result.put_retries = observed.put_retries;
    result.stalls = observed.stalls;
    result.elections = observed.recoveries;
    result
}

/// Store/tier tunables small enough for matrix worlds: tiny blocks find
/// dedup on tiny images; fast, bounded retries keep torn-upload rows
/// quick and deterministic.
fn durability_for(spec: &ScenarioSpec, base: &Path) -> DurabilityPolicy {
    let store = StorePolicy {
        dir: base.join("chain"),
        config: StoreConfig {
            block_size: 128,
            retain_epochs: 4,
            max_chain: 4,
            ..StoreConfig::default()
        },
        tier: None,
        tenant: String::new(),
    };
    let tier = spec.durability.has_tier().then(|| TierPolicy {
        dir: base.join("tier"),
        config: TierConfig {
            max_attempts: 6,
            backoff: Duration::from_millis(1),
        },
    });
    let replicas = spec.durability.has_replicas().then(|| {
        let mut policy = ReplicaPolicy::new(base.join("replicas"));
        policy.config.log.backoff = Duration::from_millis(1);
        policy
    });
    DurabilityPolicy {
        store: Some(store),
        tier,
        replicas,
    }
}

fn build_session(
    spec: &ScenarioSpec,
    vendor: Vendor,
    durability: DurabilityPolicy,
    schedule: FaultSchedule,
) -> crate::error::StoolResult<Session> {
    let mut b = Session::builder()
        .cluster(spec.cluster())
        .vendor(vendor)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(spec.ckpt_every)
        .durability(durability)
        .fault_schedule(schedule);
    if spec.det {
        b = b.deterministic_reductions();
    }
    b.build()
}

/// The uninterrupted reference run under `vendor` (memoized per vendor —
/// a scenario needs at most two).
fn reference_for<'m>(
    spec: &ScenarioSpec,
    vendor: Vendor,
    program: &dyn MpiProgram,
    cache: &'m mut BTreeMap<&'static str, Vec<Memory>>,
) -> Result<&'m [Memory], String> {
    if !cache.contains_key(vendor.name()) {
        let mut b = Session::builder()
            .cluster(spec.cluster())
            .vendor(vendor)
            .checkpointer(Checkpointer::mana());
        if spec.det {
            b = b.deterministic_reductions();
        }
        let memories = b
            .build()
            .and_then(|s| s.launch(program))
            .and_then(|o| o.memories().map(<[Memory]>::to_vec))
            .map_err(|e| format!("reference run under {}: {e}", vendor.name()))?;
        cache.insert(vendor.name(), memories);
    }
    Ok(cache.get(vendor.name()).expect("just inserted"))
}

/// For kill-free rows: restore the final chain under the other vendor and
/// run the tail to completion; its memories must match that vendor's
/// reference bitwise.
fn verify_restart(
    spec: &ScenarioSpec,
    program: &dyn MpiProgram,
    durability: &DurabilityPolicy,
    references: &mut BTreeMap<&'static str, Vec<Memory>>,
    result: &mut ScenarioResult,
) {
    if spec.wipe_local {
        if let Err(msg) = wipe_local_chain(durability) {
            result.failures.push(msg);
            return;
        }
    }
    let vendor = spec.restart_vendor();
    let restart = FaultSchedule {
        tier_gets: spec.schedule.tier_gets.clone(),
        stragglers: spec.schedule.stragglers.clone(),
        ..FaultSchedule::default()
    };
    let run = format!("verification restart under {}", vendor.name());
    let memories = build_session(spec, vendor, durability.clone(), restart).and_then(|s| {
        let outcome = s.restore_from_store(program)?;
        if let Some(snap) = s.telemetry() {
            check_head_loads(spec, &snap, 1, &run, &mut result.failures);
        }
        outcome.memories().map(<[Memory]>::to_vec)
    });
    let diverged = memories.map_err(|e| format!("{run}: {e}")).and_then(|got| {
        let reference = reference_for(spec, vendor, program, references)?;
        Ok(memories_differ(reference, &got))
    });
    match diverged {
        Err(e) => result.failures.push(e),
        Ok(Some(msg)) => result.failures.push(format!("{run} diverged: {msg}")),
        Ok(None) => {}
    }
}

/// One reader of a checkpoint: a launch (`round` 0) loads no chain head,
/// and a restore from the store loads exactly one, through the handle
/// that then commits the run — a failed or stopped run names its head's
/// epoch and leaves the reading to the restart. The first restore after
/// `wipe_local` hydrated that head from the tier in its own run.
fn check_head_loads(
    spec: &ScenarioSpec,
    snap: &TelemetrySnapshot,
    round: u64,
    run: &str,
    failures: &mut Vec<String>,
) {
    let count = |name: &str| snap.recorder.metrics().histogram(name).count();
    let (loads, want) = (count("store.load.read_us"), u64::from(round > 0));
    if loads != want {
        failures.push(format!("{run} loaded {loads} chain heads, want {want}"));
    }
    if spec.wipe_local && round == 1 && count("tier.hydrate_us") == 0 {
        failures.push(format!("{run} hydrated nothing from the wiped disk's tier"));
    }
}

/// The local chain alone, opened by its directory without the tier: what
/// the node's disk holds.
fn local_chain(durability: &DurabilityPolicy) -> Option<Result<DeltaStore, StoreError>> {
    let policy = durability.store.as_ref()?;
    Some(DeltaStore::open_with(&policy.dir, policy.config))
}

/// Invariant 1b: after a failed run the chain must be whole — strictly
/// ascending epochs, nothing quarantined, newest epoch loadable.
fn check_chain(durability: &DurabilityPolicy, failures: &mut Vec<String>) {
    let Some(opened) = local_chain(durability) else {
        return;
    };
    match opened {
        Err(e) => failures.push(format!("chain reopen after failure: {e}")),
        Ok(store) => {
            if !store.quarantined().is_empty() {
                failures.push(format!(
                    "partial epoch(s) quarantined after unwind: {:?}",
                    store.quarantined()
                ));
            }
            let epochs = store.epochs();
            if epochs.windows(2).any(|w| w[0] >= w[1]) {
                failures.push(format!("epoch chain not strictly ascending: {epochs:?}"));
            }
            if !epochs.is_empty() {
                if let Err(e) = store.load_latest() {
                    failures.push(format!("newest epoch unreadable after unwind: {e}"));
                }
            }
        }
    }
}

/// Delete the local chain: the whole local disk lost. The run before
/// drained its tier shipper when it ended, so the next restart must
/// hydrate from the tier alone.
fn wipe_local_chain(durability: &DurabilityPolicy) -> Result<(), String> {
    let policy = durability
        .store
        .as_ref()
        .ok_or("wipe_local without a store policy")?;
    // lint:allow(one-persistence-path) — the fault under test is the whole local disk lost, not a store operation.
    std::fs::remove_dir_all(&policy.dir)
        .map_err(|e| format!("wipe_local remove {}: {e}", policy.dir.display()))
}

fn final_epoch_count(durability: &DurabilityPolicy) -> u64 {
    match local_chain(durability) {
        Some(Ok(store)) => store.epochs().len() as u64,
        _ => 0,
    }
}

/// Bitwise memory comparison across every typed view. Returns the first
/// difference as a message, `None` when identical.
fn memories_differ(expect: &[Memory], got: &[Memory]) -> Option<String> {
    if expect.len() != got.len() {
        return Some(format!(
            "{} ranks expected, {} produced",
            expect.len(),
            got.len()
        ));
    }
    for (rank, (a, b)) in expect.iter().zip(got).enumerate() {
        let mut names_a: Vec<&str> = a.names().collect();
        let mut names_b: Vec<&str> = b.names().collect();
        names_a.sort_unstable();
        names_b.sort_unstable();
        if names_a != names_b {
            return Some(format!(
                "rank {rank}: memory layout differs ({names_a:?} vs {names_b:?})"
            ));
        }
        for name in names_a {
            if let (Some(xa), Some(xb)) = (a.f64s(name), b.f64s(name)) {
                if xa.len() != xb.len() {
                    return Some(format!("rank {rank} segment {name}: length differs"));
                }
                for (i, (x, y)) in xa.iter().zip(xb).enumerate() {
                    if x.to_bits() != y.to_bits() {
                        return Some(format!(
                            "rank {rank} segment {name}[{i}]: {x:?} vs {y:?} (bitwise)"
                        ));
                    }
                }
                continue;
            }
            if a.bytes(name) != b.bytes(name)
                || a.u64s(name) != b.u64s(name)
                || a.i64s(name) != b.i64s(name)
            {
                return Some(format!("rank {rank} segment {name}: contents differ"));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// JSON emission (consumed by benchgate --matrix)
// ---------------------------------------------------------------------------

/// Render a matrix run as the `BENCH_matrix.json` document `benchgate
/// --matrix` validates: the row count, and one structured row per
/// scenario.
pub fn matrix_json(results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"spec_scenarios\": {},\n", results.len()));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        let failures: Vec<String> = r.failures.iter().map(|f| json_string(f)).collect();
        out.push_str(&format!(
            "    {{\"name\": {}, \"app\": \"{}\", \"vendor\": \"{}\", \
             \"passed\": {}, \"recovery_rounds\": {}, \"kills\": {}, \"epochs\": {}, \
             \"put_retries\": {}, \"stalls\": {}, \"elections\": {}, \"failures\": [{}]}}{}\n",
            json_string(&r.name),
            r.app.name(),
            r.vendor.name(),
            r.passed(),
            r.recovery_rounds,
            r.kills,
            r.epochs,
            r.put_retries,
            r.stalls,
            r.elections,
            failures.join(", "),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        ClusterSpec::builder().nodes(3).ranks_per_node(2).build()
    }

    #[test]
    fn victims_resolve_and_blame() {
        let c = cluster();
        assert_eq!(Victims::World.resolve(&c), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(Victims::Nodes(vec![1]).resolve(&c), vec![2, 3]);
        assert_eq!(Victims::Ranks(vec![5, 1, 5]).resolve(&c), vec![1, 5]);
        assert_eq!(Victims::Ranks(vec![4]).blamed_node(&c), 2);
        assert_eq!(Victims::Nodes(vec![1, 2]).blamed_node(&c), 1);
    }

    #[test]
    fn resolved_kills_merge_and_sort() {
        // Two scheduled kills, then the node-group events
        // `inject_node_failure` appends: one on a step of its own, one on
        // a scheduled kill's step.
        let schedule = FaultSchedule::default()
            .kill_ranks(20, vec![5])
            .kill_nodes(10, vec![2])
            .kill_nodes(15, vec![0])
            .kill_nodes(20, vec![0]);
        let kills = schedule.resolved_kills(&cluster());
        assert_eq!(kills.len(), 3);
        assert_eq!(kills[0].at_step, 10);
        assert_eq!(kills[0].victims, vec![4, 5]);
        assert_eq!(kills[1].at_step, 15);
        assert_eq!(kills[1].victims, vec![0, 1]);
        assert_eq!(kills[1].node, 0);
        assert_eq!(kills[2].at_step, 20);
        assert_eq!(kills[2].victims, vec![0, 1, 5]);
        assert_eq!(kills[2].node, 2, "the first-listed kill names the node");
    }

    #[test]
    fn schedule_validation_catches_bounds_and_holds() {
        let c = cluster();
        assert!(FaultSchedule::default()
            .kill_ranks(5, vec![6])
            .validate(&c)
            .is_err());
        assert!(FaultSchedule::default()
            .kill_nodes(5, vec![3])
            .validate(&c)
            .is_err());
        assert!(FaultSchedule::default()
            .straggle(9, 0, 4, VirtualTime::from_micros(5))
            .validate(&c)
            .is_err());
        assert!(FaultSchedule::default()
            .straggle(1, 4, 4, VirtualTime::from_micros(5))
            .validate(&c)
            .is_err());
        assert!(FaultSchedule::default()
            .tier_put_faults([Fault::Hold])
            .validate(&c)
            .is_err());
        let lost = FaultSchedule {
            tier_gets: vec![Fault::PowerLoss],
            ..FaultSchedule::default()
        };
        assert!(lost.validate(&c).is_err());
        assert!(FaultSchedule::default()
            .kill_nodes(3, vec![0])
            .straggle(1, 0, 4, VirtualTime::from_micros(5))
            .validate(&c)
            .is_ok());
    }

    #[test]
    fn a_later_kill_past_the_last_step_is_refused() {
        // The first kill is in range; the second would never fire and the
        // row would fail late on a missing RankKill.
        let mut spec = ScenarioSpec::named("late-kill");
        spec.schedule = FaultSchedule::default()
            .kill_ranks(12, vec![1])
            .kill_ranks(spec.steps, vec![2]);
        let err = spec.validate().unwrap_err();
        assert!(err.contains("past the last step"), "{err}");
    }

    #[test]
    fn a_second_straggler_window_on_one_rank_is_refused() {
        // `straggler_for` applies one window per rank; a second one would
        // be dropped without a word.
        let schedule = FaultSchedule::default()
            .straggle(2, 4, 8, VirtualTime::from_micros(5))
            .straggle(2, 12, 16, VirtualTime::from_micros(5));
        let err = schedule.validate(&cluster()).unwrap_err();
        assert!(err.contains("second window"), "{err}");
    }

    #[test]
    fn after_failure_consumes_spent_faults() {
        let schedule = FaultSchedule {
            tier_gets: vec![Fault::Torn],
            ..FaultSchedule::default()
                .kill_ranks(10, vec![1])
                .kill_ranks(20, vec![2])
                .straggle(0, 5, 25, VirtualTime::from_micros(9))
                .tier_put_faults([Fault::Torn])
                .kill_leader_at(BarrierPhase::PreSeal)
        };
        let rest = schedule.after_failure(10);
        assert_eq!(rest.kills.len(), 1);
        assert_eq!(rest.kills[0].at_step, 20);
        assert_eq!(rest.stragglers.len(), 1);
        assert!(rest.tier_puts.is_empty());
        assert_eq!(rest.tier_gets.len(), 1);
        assert!(rest.replica.is_empty());
    }

    #[test]
    fn matrix_json_shape_round_trips_escapes() {
        let r = ScenarioResult {
            name: "a-b".into(),
            app: App::Ring,
            vendor: Vendor::Mpich,
            failures: vec!["a \"quoted\" reason".into()],
            recovery_rounds: 1,
            kills: 1,
            epochs: 2,
            put_retries: 0,
            stalls: 0,
            elections: 0,
        };
        let doc = matrix_json(&[r]);
        assert!(doc.contains("\"spec_scenarios\": 1"));
        assert!(doc.contains("\"app\": \"ring\""));
        assert!(doc.contains("\\\"quoted\\\""));
        assert!(doc.contains("\"passed\": false"));
    }
}
