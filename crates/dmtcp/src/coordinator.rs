//! The checkpoint coordinator.
//!
//! DMTCP runs a coordinator process that user commands (or timers) poke to
//! trigger a checkpoint; every application process runs a checkpoint thread
//! that cooperates in a barrier-phased protocol. Here the coordinator is a
//! shared-state object and each rank holds a [`RankAgent`] that it polls at
//! every application *safe point* (a point with no incomplete nonblocking
//! requests, between two steps of the main loop).
//!
//! # The coordinated quiesce: a scheduled cut
//!
//! A round opens only at a scheduled cut: every rank runs the same
//! checkpoint policy and announces the step with
//! [`Coordinator::schedule_checkpoint_at`] *before* polling there. The
//! first announcement opens the round with its cut pinned to that step;
//! the others join it. A rank polling below the cut runs on, and every
//! rank enters the checkpoint barrier exactly at the cut. "Everyone stops
//! at their next safe point" would deadlock — a rank parked at step *s*
//! has not yet executed its step-*s* sends, so a peer blocked in a step-*s*
//! receive never reaches its own safe point — but nobody stops early
//! here: a rank waiting at the cut has already executed every send below
//! it (and the transport is eager), so a rank below the cut never waits on
//! a rank at it, and the rendezvous always forms. Which step the cut is
//! never depends on how the OS scheduled the ranks.
//!
//! Inside the rendezvous, phases proceed over a poisonable barrier:
//! counter exchange (publish per-peer send/receive counts, learn the
//! in-flight deficit), *drain* (performed by the MANA layer through the
//! MPI library itself), image submission, and a final barrier that closes
//! the round and returns the continue/stop decision.
//!
//! # Scaling to ≥ 512-rank worlds
//!
//! The coordinator is sharded in two ways so a 1024-rank rendezvous does
//! not serialize on single locks:
//!
//! * the rendezvous barrier is a **tree** ([`BarrierTopology`]) beyond 64
//!   ranks: ranks synchronize in groups of `radix`, group leaders meet at
//!   a root cell, and the release cascades back down, bounding every
//!   condvar herd by the radix instead of the world size;
//! * counter and image **staging is striped** over up to 64 independent
//!   locks (`ShardedSlots`), so per-rank submissions before a barrier
//!   contend on `n/64` peers rather than all of them.
//!
//! The safe-point contract this imposes on applications: reach the cut.
//! A rank may number its safe points below the cut however it likes, but
//! it must poll at the cut step itself; a rank whose poll in an open round
//! is already past the cut is reported as [`CkptError::Overrun`] rather
//! than deadlocking. A rank that resigns (finishes its program or dies)
//! closes any open round, and so does a failed round; either way no later
//! round opens (a world image missing a rank is not restorable, and every
//! checkpoint failure ends the job). If anyone had entered the rendezvous
//! when a rank resigned, the barrier is poisoned first so the survivors
//! unwind with [`CkptError::Poisoned`] instead of hanging.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use sanity::lockcheck::{self, TrackedCondvar, TrackedMutex};

use simnet::telemetry::{EventKind, Telemetry};

use crate::image::{RankImage, WorldImage};
use crate::replica::{phase_code, BarrierPhase, ReplicaError, ReplicaGroup, ReplicaRecord};
use crate::store::StoreError;

/// A consumer of completed world images, attached to the coordinator with
/// [`Coordinator::attach_sink`]. The paradigm case is the asynchronous
/// delta-checkpoint store ([`crate::store::TenantSink`]): the sink takes
/// ownership of the staged images inside the final rendezvous barrier so
/// the ranks resume computing while the I/O proceeds in the background.
///
/// `submit` must be fast (hand the image to a queue); it may block briefly
/// for backpressure but must never wait on the ranks it was called from.
pub trait ImageSink: Send + Sync {
    /// Take ownership of one completed epoch's world image.
    fn submit(&self, image: WorldImage) -> Result<(), StoreError>;
}

/// What the world should do after the checkpoint is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptMode {
    /// Keep running after the checkpoint (classic periodic checkpointing).
    Continue,
    /// Stop the world after the checkpoint (checkpoint-and-exit; the mode
    /// used for the paper's Fig. 6 cross-vendor restart experiment).
    Stop,
}

/// Why a checkpoint round failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// A participant died mid-round; the protocol barrier was poisoned so
    /// the survivors unwind instead of hanging.
    Poisoned,
    /// A rank polled past the cut of an open round without polling at the
    /// cut itself (the application broke the one safe-point contract:
    /// reach the cut).
    Overrun {
        /// The agreed cut step.
        cut: u64,
        /// The step the rank presented.
        got: u64,
    },
    /// The attached [`ImageSink`] (the asynchronous checkpoint store)
    /// failed to accept a completed epoch; every participant of the round
    /// observes the same error so the world unwinds consistently.
    Store(StoreError),
    /// The attached replica group could not commit the epoch seal to a
    /// quorum: the round aborted atomically (the staged epoch was
    /// discarded, nothing became durable anywhere) and every participant
    /// observes the same error.
    Replica(ReplicaError),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Poisoned => write!(f, "checkpoint round poisoned: a participant died"),
            CkptError::Overrun { cut, got } => {
                write!(
                    f,
                    "rank overran the checkpoint cut (cut {cut}, reached {got})"
                )
            }
            CkptError::Store(e) => write!(f, "checkpoint store failed: {e}"),
            CkptError::Replica(e) => write!(f, "replica quorum commit failed: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// How the rendezvous barrier synchronizes its participants.
///
/// The flat barrier is one counter + condvar: every arrival contends on
/// one lock and the release `notify_all`s every participant at once — a
/// thundering herd that grows linearly with world size. The tree barrier
/// synchronizes ranks in groups of `radix`; the last arriver of each
/// group carries the group's arrival to a root cell, and the release
/// cascades root → group leaders → group members, so each condvar wakes
/// at most `radix − 1` (or `⌈n/radix⌉ − 1`) sleepers and finish() latency
/// grows with the tree depth, not the world size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierTopology {
    /// One shared counter and condvar; every release wakes all N waiters.
    Flat,
    /// Two-level tree with groups of `radix` ranks (clamped to ≥ 2).
    Tree {
        /// Group size; also bounds every wakeup herd.
        radix: usize,
    },
}

impl BarrierTopology {
    /// Default group size for auto-selected tree barriers.
    pub const DEFAULT_RADIX: usize = 32;

    /// The topology [`Coordinator::new`] picks for a world of `nranks`:
    /// flat up to 64 ranks (where one lock is cheapest), a radix-32 tree
    /// beyond that.
    pub fn auto(nranks: usize) -> BarrierTopology {
        if nranks <= 64 {
            BarrierTopology::Flat
        } else {
            BarrierTopology::Tree {
                radix: Self::DEFAULT_RADIX,
            }
        }
    }
}

/// One poisonable arrive/release cell (a counter, a generation, and the
/// condvar its waiters sleep on). Building block for both barrier shapes.
struct WaitCell {
    state: TrackedMutex<CellState>,
    cv: TrackedCondvar,
}

struct CellState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl WaitCell {
    fn new() -> WaitCell {
        WaitCell {
            state: TrackedMutex::named(
                "coord.waitcell",
                CellState {
                    arrived: 0,
                    generation: 0,
                    poisoned: false,
                },
            ),
            cv: TrackedCondvar::new(),
        }
    }

    /// Arrive at the cell. The `n`-th arriver returns `Ok(true)` *without
    /// blocking and without releasing the others* — it must eventually
    /// call [`WaitCell::release`]; everyone else blocks until the release
    /// (returning `Ok(false)`) or a poison (`Err`).
    fn arrive_or_wait(&self, n: usize) -> Result<bool, CkptError> {
        let mut st = self.state.lock().expect("waitcell lock");
        if st.poisoned {
            return Err(CkptError::Poisoned);
        }
        st.arrived += 1;
        if st.arrived == n {
            return Ok(true);
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            st = self.cv.wait(st).expect("waitcell wait");
        }
        if st.poisoned {
            Err(CkptError::Poisoned)
        } else {
            Ok(false)
        }
    }

    /// Release the current generation: reset the arrival count, bump the
    /// generation, and wake every waiter. Called by the `Ok(true)` arriver.
    fn release(&self) {
        let mut st = self.state.lock().expect("waitcell lock");
        st.arrived = 0;
        st.generation += 1;
        self.cv.notify_all();
    }

    fn poison(&self) {
        let mut st = self.state.lock().expect("waitcell lock");
        st.poisoned = true;
        self.cv.notify_all();
    }
}

/// A reusable, poisonable rendezvous barrier over all ranks (std's
/// `Barrier` would hang waiters forever when a participant dies), in
/// either flat or tree shape.
struct SyncPoint {
    nranks: usize,
    shape: SyncShape,
}

enum SyncShape {
    Flat(WaitCell),
    Tree {
        radix: usize,
        /// One cell per group of `radix` consecutive ranks.
        groups: Vec<WaitCell>,
        /// The cell the group leaders synchronize on.
        root: WaitCell,
    },
}

impl SyncPoint {
    fn new(nranks: usize, topology: BarrierTopology) -> SyncPoint {
        let shape = match topology {
            BarrierTopology::Flat => SyncShape::Flat(WaitCell::new()),
            BarrierTopology::Tree { radix } => {
                let radix = radix.max(2);
                let ngroups = nranks.max(1).div_ceil(radix);
                SyncShape::Tree {
                    radix,
                    groups: (0..ngroups).map(|_| WaitCell::new()).collect(),
                    root: WaitCell::new(),
                }
            }
        };
        SyncPoint { nranks, shape }
    }

    /// Wait for every rank. Returns `true` on exactly one caller per
    /// generation (the leader).
    fn wait(&self, rank: usize) -> Result<bool, CkptError> {
        // The rank is about to park until the whole world arrives: any
        // tracked guard still held here starves every peer (the PR 6
        // deadlock class). Lockcheck reports it before we block.
        lockcheck::rendezvous_crossing("coord.rendezvous");
        match &self.shape {
            SyncShape::Flat(cell) => {
                let leader = cell.arrive_or_wait(self.nranks)?;
                if leader {
                    cell.release();
                }
                Ok(leader)
            }
            SyncShape::Tree {
                radix,
                groups,
                root,
            } => {
                let g = rank / radix;
                let gsize = (self.nranks - g * radix).min(*radix);
                if !groups[g].arrive_or_wait(gsize)? {
                    // Released by our group leader after the root completed.
                    return Ok(false);
                }
                // Group leader: carry this group's arrival to the root.
                // If the root poisons while we are there, our group members
                // are released by SyncPoint::poison, which poisons every
                // cell.
                let leader = root.arrive_or_wait(groups.len())?;
                if leader {
                    root.release();
                }
                groups[g].release();
                Ok(leader)
            }
        }
    }

    /// Permanently poison the barrier, releasing all waiters with
    /// [`CkptError::Poisoned`].
    fn poison(&self) {
        match &self.shape {
            SyncShape::Flat(cell) => cell.poison(),
            SyncShape::Tree { groups, root, .. } => {
                root.poison();
                for cell in groups {
                    cell.poison();
                }
            }
        }
    }
}

/// Per-rank staging slots sharded over independent locks, so a 1024-rank
/// world submitting counters or images at the rendezvous does not
/// serialize on a single mutex. Rank `r` lives in shard `r % nshards` at
/// slot `r / nshards`.
struct ShardedSlots<T> {
    nranks: usize,
    shards: Vec<TrackedMutex<Vec<Option<T>>>>,
}

impl<T> ShardedSlots<T> {
    /// At most 64 shards; never more than one slot-vector per rank.
    fn new(nranks: usize) -> ShardedSlots<T> {
        let nshards = nranks.clamp(1, 64);
        let shards = (0..nshards)
            .map(|s| {
                let slots = nranks / nshards + usize::from(s < nranks % nshards);
                TrackedMutex::named("coord.shard", (0..slots).map(|_| None).collect())
            })
            .collect();
        ShardedSlots { nranks, shards }
    }

    fn put(&self, rank: usize, value: T) {
        let shard = rank % self.shards.len();
        self.shards[shard].lock().expect("shard lock")[rank / self.shards.len()] = Some(value);
    }

    /// Visit every occupied slot in an unspecified order, one shard lock
    /// at a time. Returns how many slots were occupied.
    fn for_each(&self, mut f: impl FnMut(usize, &T)) -> usize {
        let mut seen = 0;
        for (s, shard) in self.shards.iter().enumerate() {
            let slots = shard.lock().expect("shard lock");
            for (i, slot) in slots.iter().enumerate() {
                if let Some(v) = slot {
                    f(s + i * self.shards.len(), v);
                    seen += 1;
                }
            }
        }
        seen
    }

    /// Take every slot if all are occupied (returned in rank order);
    /// leaves the slots untouched otherwise.
    fn take_all_if_complete(&self) -> Option<Vec<T>> {
        let mut guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock"))
            .collect();
        if guards.iter().any(|g| g.iter().any(Option::is_none)) {
            return None;
        }
        Some(
            (0..self.nranks)
                .map(|r| {
                    guards[r % self.shards.len()][r / self.shards.len()]
                        .take()
                        .expect("checked complete")
                })
                .collect(),
        )
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("shard lock").fill_with(|| None);
        }
    }
}

/// Where a checkpoint round stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No round in progress.
    Idle,
    /// A cut is scheduled; ranks are running forward to it.
    Rendezvous {
        /// The step every rank checkpoints at.
        cut: u64,
        /// This round's epoch: `completed_rounds + 1`, latched when the
        /// round opened.
        epoch: u64,
        /// The continue/stop decision, latched when the cut was scheduled.
        mode: CkptMode,
    },
}

/// One rank's drain bookkeeping: (sent_to, received_from) per-peer counts.
type DrainCounters = (Vec<u64>, Vec<u64>);

struct Round {
    phase: Phase,
    /// Set by a resignation or a failed round: no later round opens.
    closed: bool,
    /// Ranks that have entered the rendezvous barrier this round. While
    /// zero, a resignation can still abort the round cleanly; once any
    /// rank is inside the barrier, a resignation must poison it.
    entered: usize,
}

struct Shared {
    nranks: usize,
    /// Whether the phase is `Rendezvous`: set when a round opens, cleared
    /// when it closes, always under the round lock. A poll reads it alone,
    /// so a safe point outside any round costs one atomic load.
    open: AtomicBool,
    round: TrackedMutex<Round>,
    sync: SyncPoint,
    /// Per-rank (sent_to, received_from) matrices for the drain protocol.
    counters: ShardedSlots<DrainCounters>,
    images: ShardedSlots<RankImage>,
    completed_rounds: AtomicU64,
    /// Attached image consumer plus the vendor hint to stamp on forwarded
    /// world images, if any. Attached before any rank starts.
    sink: OnceLock<(Arc<dyn ImageSink>, String)>,
    /// Attached coordinator replica group, if any, attached before any
    /// rank starts. When present, every completed round's epoch seal
    /// must reach a quorum of replica logs before the leader bumps
    /// `completed_rounds` or releases the barrier.
    replicas: OnceLock<Arc<ReplicaGroup>>,
    /// The failure of the failed round (a quorum or sink failure),
    /// latched by the `finish()` leader so every participant unwinds with
    /// the same error. A failed round closes the coordinator, so no
    /// later round reads it.
    error: TrackedMutex<Option<CkptError>>,
    /// Attached flight recorder, if any. All coordinator protocol events
    /// land on its dedicated coordinator lane, stamped with the latest
    /// virtual clock the ranks have reported through
    /// [`RankAgent::poll_at`].
    telemetry: OnceLock<Arc<Telemetry>>,
}

impl Shared {
    /// Emit a protocol event on the coordinator lane, if a recorder is
    /// attached. Stamped with the most recently observed virtual clock.
    fn emit(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        if let Some(tel) = self.telemetry.get() {
            tel.emit(tel.coord_lane(), kind, tel.observed_now(), a, b, c);
        }
    }
}

/// Coordinator handle (cheap to clone; shared across threads).
#[derive(Clone)]
pub struct Coordinator {
    shared: Arc<Shared>,
}

impl Coordinator {
    /// Create a coordinator for a world of `nranks`, with the rendezvous
    /// barrier topology auto-selected by world size
    /// ([`BarrierTopology::auto`]: flat up to 64 ranks, a radix-32 tree
    /// beyond).
    pub fn new(nranks: usize) -> Coordinator {
        Coordinator::with_topology(nranks, BarrierTopology::auto(nranks))
    }

    /// Create a coordinator with an explicit barrier topology (the scale
    /// bench uses this to record the flat-vs-tree finish() latency curves).
    pub fn with_topology(nranks: usize, topology: BarrierTopology) -> Coordinator {
        Coordinator {
            shared: Arc::new(Shared {
                nranks,
                open: AtomicBool::new(false),
                round: TrackedMutex::named(
                    "coord.round",
                    Round {
                        phase: Phase::Idle,
                        closed: false,
                        entered: 0,
                    },
                ),
                sync: SyncPoint::new(nranks, topology),
                counters: ShardedSlots::new(nranks),
                images: ShardedSlots::new(nranks),
                completed_rounds: AtomicU64::new(0),
                sink: OnceLock::new(),
                replicas: OnceLock::new(),
                error: TrackedMutex::named("coord.error", None),
                telemetry: OnceLock::new(),
            }),
        }
    }

    /// Attach an [`ImageSink`]: every completed round's world image is
    /// handed to it (stamped with `vendor_hint`) inside the final barrier
    /// instead of waiting in the staging area for
    /// [`Coordinator::take_world_image`]. This is how the asynchronous
    /// delta-checkpoint store takes ownership of images at the rendezvous
    /// so that ranks resume while the write proceeds. Attach before any
    /// rank starts; first attachment wins, later calls are ignored.
    pub fn attach_sink(&self, sink: Arc<dyn ImageSink>, vendor_hint: &str) {
        let _ = self.shared.sink.set((sink, vendor_hint.to_string()));
    }

    /// Attach a [`ReplicaGroup`]: from now on every round's epoch seal
    /// is quorum-committed to the replica logs *before* the round's epoch
    /// becomes observable or its image reaches the sink. If the quorum is
    /// unreachable the round aborts atomically — the staged images are
    /// discarded and every participant unwinds with
    /// [`CkptError::Replica`]. Attach before any rank starts; first
    /// attachment wins, later calls are ignored.
    pub fn attach_replicas(&self, group: Arc<ReplicaGroup>) {
        let _ = self.shared.replicas.set(group);
    }

    /// The attached replica group, if any.
    pub fn replicas(&self) -> Option<Arc<ReplicaGroup>> {
        self.shared.replicas.get().cloned()
    }

    /// Attach a flight recorder: every protocol transition (scheduled
    /// cuts, rendezvous entries, barrier phases, epoch seals,
    /// resignations, poisons) is emitted as a
    /// structured event on the recorder's coordinator lane. First
    /// attachment wins; later calls are ignored.
    pub fn attach_telemetry(&self, tel: Arc<Telemetry>) {
        let _ = self.shared.telemetry.set(tel);
    }

    /// The attached flight recorder, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.shared.telemetry.get()
    }

    /// World size this coordinator serves.
    pub fn nranks(&self) -> usize {
        self.shared.nranks
    }

    /// Schedule a checkpoint at an exact safe-point step: the one way a
    /// round opens. Every rank runs the same policy and calls this at the
    /// *same* step, so the cut is pinned to `step` exactly. Idempotent
    /// across ranks; the first caller opens the round and latches its
    /// `mode`, the others join it.
    ///
    /// A rank must call this at its own `step` safe point *before* polling
    /// there. Once any rank has resigned, or a round has failed, no round
    /// opens again: the call opens nothing and the poll there runs on.
    pub fn schedule_checkpoint_at(&self, step: u64, mode: CkptMode) {
        let mut round = self.shared.round.lock().expect("round lock");
        if round.phase == Phase::Idle && !round.closed {
            let round_no = self.shared.completed_rounds.load(Ordering::SeqCst) + 1;
            round.phase = Phase::Rendezvous {
                cut: step,
                epoch: round_no,
                mode,
            };
            self.shared.open.store(true, Ordering::SeqCst);
            self.shared.emit(
                EventKind::CkptScheduled,
                step,
                u64::from(mode == CkptMode::Stop),
                round_no,
            );
        }
    }

    /// How many checkpoint rounds have completed; also the epoch of the
    /// most recent one (0 = none yet).
    pub fn completed_rounds(&self) -> u64 {
        self.shared.completed_rounds.load(Ordering::SeqCst)
    }

    /// Collect the world image of the last completed checkpoint, if every
    /// rank submitted one. Clears the staging area.
    pub fn take_world_image(&self, vendor_hint: &str) -> Option<WorldImage> {
        let ranks = self.shared.images.take_all_if_complete()?;
        Some(WorldImage::new(vendor_hint.to_string(), ranks))
    }

    /// Create the per-rank agent (called inside each rank's thread).
    pub fn agent(&self, rank: usize) -> RankAgent {
        assert!(rank < self.shared.nranks, "agent rank out of range");
        RankAgent {
            shared: self.shared.clone(),
            rank,
            resigned: false,
        }
    }
}

/// What [`RankAgent::poll`] decided at a safe point.
pub enum Poll<'a> {
    /// This safe point is not a cut; run on.
    None,
    /// This safe point is the cut: run the checkpoint protocol now.
    Enter(CkptSession<'a>),
}

/// A rank's connection to the coordinator (DMTCP's checkpoint thread).
pub struct RankAgent {
    shared: Arc<Shared>,
    rank: usize,
    resigned: bool,
}

impl RankAgent {
    /// This agent's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Like [`RankAgent::poll`], but first reports the rank's current
    /// virtual-clock position to the attached flight recorder, so that
    /// coordinator/store/tier/replica events emitted from clockless
    /// threads are stamped with a virtual time no earlier than the ranks
    /// that caused them. `vclock_ns` only ever advances the observed
    /// clock (a stale value is ignored).
    pub fn poll_at(&mut self, next_step: u64, vclock_ns: u64) -> Result<Poll<'_>, CkptError> {
        if let Some(tel) = self.shared.telemetry.get() {
            tel.observe_time(vclock_ns);
        }
        self.poll(next_step)
    }

    /// Poll at an application safe point. `next_step` is the step about to
    /// execute (and the resume position recorded if the checkpoint happens
    /// here). Below the cut of an open round a poll runs on, whatever steps
    /// came before it; at the cut it enters; past the cut it is an
    /// [`CkptError::Overrun`]. Outside a round it costs one atomic load.
    pub fn poll(&mut self, next_step: u64) -> Result<Poll<'_>, CkptError> {
        if !self.shared.open.load(Ordering::Relaxed) {
            return Ok(Poll::None);
        }
        let shared = self.shared.clone();
        let mut round = shared.round.lock().expect("round lock");
        match round.phase {
            Phase::Idle => Ok(Poll::None),
            Phase::Rendezvous { cut, epoch, mode } => {
                if next_step < cut {
                    return Ok(Poll::None);
                }
                if next_step > cut {
                    return Err(CkptError::Overrun {
                        cut,
                        got: next_step,
                    });
                }
                self.shared
                    .emit(EventKind::RendezvousEnter, self.rank as u64, cut, epoch);
                round.entered += 1;
                Ok(Poll::Enter(CkptSession {
                    agent: self,
                    cut,
                    epoch,
                    mode,
                }))
            }
        }
    }

    /// Declare that this rank will reach no further safe points (its
    /// program completed or it is unwinding from a failure). Idempotent;
    /// also invoked on drop. Closes any open round and keeps every later
    /// one from opening; a rendezvous someone entered is poisoned first so
    /// waiting peers unwind.
    pub fn resign(&mut self) {
        if self.resigned {
            return;
        }
        self.resigned = true;
        let mut round = self.shared.round.lock().expect("round lock");
        round.closed = true;
        let mid_round_death = matches!(round.phase, Phase::Rendezvous { .. });
        if let Phase::Rendezvous { epoch, .. } = round.phase {
            if round.entered > 0 {
                // Peers are inside the barrier; without us it can never
                // fill. Release them with an error.
                self.shared.emit(EventKind::Poison, epoch, 0, 0);
                self.shared.sync.poison();
            }
            round.phase = Phase::Idle;
            self.shared.open.store(false, Ordering::SeqCst);
        }
        drop(round);
        self.shared.emit(
            EventKind::Resign,
            self.rank as u64,
            self.shared.completed_rounds.load(Ordering::SeqCst),
            mid_round_death as u64,
        );
    }
}

impl Drop for RankAgent {
    fn drop(&mut self) {
        self.resign();
    }
}

/// An in-progress checkpoint on one rank (the rendezvous was reached).
pub struct CkptSession<'a> {
    agent: &'a mut RankAgent,
    cut: u64,
    epoch: u64,
    mode: CkptMode,
}

impl CkptSession<'_> {
    /// The epoch being checkpointed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The agreed cut step (every rank's resume position).
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// This participant's rank.
    pub fn rank(&self) -> usize {
        self.agent.rank
    }

    /// Publish this rank's per-peer counters and learn how many messages
    /// are still in flight *towards* this rank from each peer:
    /// `pending_from[j] = sent_to[j][me] − received_from[me][j]`.
    pub fn exchange_counters(
        &self,
        sent_to: &[u64],
        received_from: &[u64],
    ) -> Result<Vec<u64>, CkptError> {
        let shared = &self.agent.shared;
        shared
            .counters
            .put(self.agent.rank, (sent_to.to_vec(), received_from.to_vec()));
        shared.sync.wait(self.agent.rank)?;
        let mut pending = vec![0u64; shared.nranks];
        let me = self.agent.rank;
        let published = shared.counters.for_each(|j, (sent, _)| {
            pending[j] = sent[me].saturating_sub(received_from[j]);
        });
        debug_assert_eq!(published, shared.nranks, "all ranks published");
        Ok(pending)
    }

    /// Submit this rank's serialized image.
    pub fn submit_image(&self, image: RankImage) {
        self.agent.shared.images.put(self.agent.rank, image);
    }

    /// Final barrier: the checkpoint is globally complete. The leader
    /// closes the round between the two barrier waits; every participant
    /// returns the mode (continue or stop) latched when the round opened.
    pub fn finish(self) -> Result<CkptMode, CkptError> {
        let shared = self.agent.shared.clone();
        let leader = shared.sync.wait(self.agent.rank)?;
        if leader {
            // Only now is every participant done reading the exchanged
            // counter matrices; clearing any earlier races peers still
            // computing their drain deficits.
            shared.counters.clear();
            // Quorum-commit the epoch seal before anything about this
            // round becomes observable. The scripted fault hooks model a
            // coordinator leader dying at each barrier phase; the commit
            // itself rides out leader death via election and retry, and
            // only an unreachable quorum fails the round.
            let replicas = shared.replicas.get();
            let mut failure = None;
            if let Some(group) = replicas {
                let phase = |p: BarrierPhase| {
                    shared.emit(EventKind::BarrierPhase, phase_code(p), self.epoch, self.cut);
                    group.notify_phase(p);
                };
                phase(BarrierPhase::Arrive);
                let vendor = shared
                    .sink
                    .get()
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default();
                let record = ReplicaRecord::EpochSeal {
                    epoch: self.epoch,
                    cut: self.cut,
                    stop: self.mode == CkptMode::Stop,
                    vendor,
                };
                phase(BarrierPhase::PreSeal);
                match group.commit(record) {
                    Ok(_) => phase(BarrierPhase::PostSeal),
                    Err(e) => failure = Some(CkptError::Replica(e)),
                }
            }
            // All participants are parked between the two barriers, so
            // none polls again before the round is closed.
            let mut round = shared.round.lock().expect("round lock");
            round.phase = Phase::Idle;
            shared.open.store(false, Ordering::SeqCst);
            round.entered = 0;
            if failure.is_none() {
                shared.completed_rounds.fetch_add(1, Ordering::SeqCst);
                shared.emit(
                    EventKind::EpochCommit,
                    self.epoch,
                    self.cut,
                    (self.mode == CkptMode::Stop) as u64,
                );
            }
            drop(round);
            if failure.is_none() {
                // Hand the completed epoch to the attached sink (the async
                // store). Every rank has submitted its image before reaching
                // the barrier above, so the staging area is complete; the sink
                // takes ownership and the ranks resume while I/O proceeds.
                if let Some((sink, vendor_hint)) = shared.sink.get() {
                    if let Some(ranks) = shared.images.take_all_if_complete() {
                        if let Err(e) = sink.submit(WorldImage::new(vendor_hint.clone(), ranks)) {
                            shared.emit(EventKind::SinkError, self.epoch, 0, 0);
                            if let Some(tel) = shared.telemetry.get() {
                                tel.note_incident();
                            }
                            failure = Some(CkptError::Store(e));
                        }
                    }
                }
            }
            if let Some(e) = failure {
                // A failed round ends the job, so it closes the coordinator
                // as a resignation does. Nothing of an epoch the quorum
                // never accepted may survive: its staged images are dropped
                // (a failed sink already took them), and it never counted
                // in completed_rounds.
                shared.images.clear();
                shared.round.lock().expect("round lock").closed = true;
                *shared.error.lock().expect("error lock") = Some(e);
            }
            if let Some(group) = replicas {
                shared.emit(
                    EventKind::BarrierPhase,
                    phase_code(BarrierPhase::Release),
                    self.epoch,
                    self.cut,
                );
                group.notify_phase(BarrierPhase::Release);
            }
        }
        shared.sync.wait(self.agent.rank)?;
        if let Some(e) = shared.error.lock().expect("error lock").clone() {
            // Observed by every participant after the final barrier: the
            // world unwinds with one consistent error.
            return Err(e);
        }
        Ok(self.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Announce a cut at `step` and poll there: the session must open.
    fn enter<'a>(
        coord: &Coordinator,
        agent: &'a mut RankAgent,
        step: u64,
        mode: CkptMode,
    ) -> CkptSession<'a> {
        coord.schedule_checkpoint_at(step, mode);
        match agent.poll(step).expect("poll") {
            Poll::Enter(session) => session,
            Poll::None => panic!("a scheduled cut enters at its own step"),
        }
    }

    /// One rank's side of a round scheduled at `step` with no traffic.
    /// Returns the cut and the agreed mode.
    pub(super) fn checkpoint_at(
        coord: &Coordinator,
        agent: &mut RankAgent,
        step: u64,
        mode: CkptMode,
    ) -> (u64, CkptMode) {
        let session = enter(coord, agent, step, mode);
        let n = coord.nranks();
        let zeros = vec![0u64; n];
        let pending = session.exchange_counters(&zeros, &zeros).expect("counters");
        assert!(pending.iter().all(|&p| p == 0), "no traffic in these tests");
        session.submit_image(RankImage::new(session.rank(), n, session.epoch()));
        let cut = session.cut();
        (cut, session.finish().expect("finish"))
    }

    #[test]
    fn full_protocol_over_threads() {
        // Every rank polls the steps below the cut, then announces the
        // cut at step 3 and polls there: one round serves all four
        // announcements, and the cut is the scheduled step everywhere.
        let n = 4;
        let coord = Coordinator::new(n);
        let cuts = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for rank in 0..n {
                let coord = coord.clone();
                let cuts = &cuts;
                s.spawn(move || {
                    let mut agent = coord.agent(rank);
                    for step in 0..3 {
                        assert!(matches!(agent.poll(step), Ok(Poll::None)));
                    }
                    let (cut, mode) = checkpoint_at(&coord, &mut agent, 3, CkptMode::Continue);
                    assert_eq!(mode, CkptMode::Continue);
                    assert!(matches!(agent.poll(4), Ok(Poll::None)));
                    cuts.lock().unwrap().push(cut);
                });
            }
        });
        assert_eq!(cuts.into_inner().unwrap(), vec![3; n]);
        assert_eq!(
            coord.completed_rounds(),
            1,
            "one round serves every request"
        );
        let world = coord.take_world_image("test").expect("all images staged");
        assert_eq!(world.nranks(), n);
        // Taking again yields nothing: staging was drained.
        assert!(coord.take_world_image("test").is_none());
    }

    #[test]
    fn tree_barrier_death_mid_rendezvous_poisons_all_groups() {
        // A resignation inside the rendezvous must release waiters in
        // *every* tree group, not only the victim's.
        let n = 6;
        let coord = Coordinator::with_topology(n, BarrierTopology::Tree { radix: 2 });
        let committed = std::sync::Barrier::new(n);
        std::thread::scope(|s| {
            for rank in 0..n - 1 {
                let coord = coord.clone();
                let committed = &committed;
                s.spawn(move || {
                    let mut agent = coord.agent(rank);
                    let session = enter(&coord, &mut agent, 0, CkptMode::Continue);
                    committed.wait();
                    let zeros = vec![0u64; n];
                    let err = session.exchange_counters(&zeros, &zeros).unwrap_err();
                    assert_eq!(err, CkptError::Poisoned, "rank {rank}");
                });
            }
            let coord = coord.clone();
            let committed = &committed;
            s.spawn(move || {
                let mut agent = coord.agent(n - 1);
                // Die once every survivor is inside the barrier.
                committed.wait();
                agent.resign();
            });
        });
    }

    #[test]
    fn topology_auto_switches_at_64_ranks() {
        assert_eq!(BarrierTopology::auto(48), BarrierTopology::Flat);
        assert_eq!(BarrierTopology::auto(64), BarrierTopology::Flat);
        assert_eq!(
            BarrierTopology::auto(65),
            BarrierTopology::Tree {
                radix: BarrierTopology::DEFAULT_RADIX
            }
        );
    }

    #[test]
    fn sharded_slots_roundtrip_and_clear() {
        let slots: ShardedSlots<u64> = ShardedSlots::new(130);
        for r in 0..130 {
            slots.put(r, r as u64 * 3);
        }
        let mut seen = [false; 130];
        let n = slots.for_each(|rank, v| {
            assert_eq!(*v, rank as u64 * 3);
            seen[rank] = true;
        });
        assert_eq!(n, 130);
        assert!(seen.iter().all(|&s| s));
        let all = slots.take_all_if_complete().expect("complete");
        assert_eq!(all.len(), 130);
        assert!(all.iter().enumerate().all(|(r, &v)| v == r as u64 * 3));
        // Drained: a second take reports incomplete.
        assert!(slots.take_all_if_complete().is_none());
        slots.put(7, 1);
        assert!(slots.take_all_if_complete().is_none());
        slots.clear();
        assert_eq!(slots.for_each(|_, _| {}), 0);
    }

    #[test]
    fn counter_deficit_computed_from_peer_matrices() {
        let n = 4;
        let coord = Coordinator::new(n);
        std::thread::scope(|s| {
            for rank in 0..n {
                let coord = coord.clone();
                s.spawn(move || {
                    let mut agent = coord.agent(rank);
                    let session = enter(&coord, &mut agent, 0, CkptMode::Continue);
                    // Rank r has sent r messages to each peer; rank 2
                    // pretends it missed one message from rank 3.
                    let sent = vec![rank as u64; n];
                    let mut rcvd: Vec<u64> = (0..n).map(|j| j as u64).collect();
                    if rank == 2 {
                        rcvd[3] = 2;
                    }
                    let pending = session.exchange_counters(&sent, &rcvd).expect("counters");
                    for (j, &p) in pending.iter().enumerate() {
                        let expect = if rank == 2 && j == 3 { 1 } else { 0 };
                        assert_eq!(p, expect, "rank {rank} peer {j}");
                    }
                    session.submit_image(RankImage::new(rank, n, session.epoch()));
                    session.finish().expect("finish");
                });
            }
        });
    }

    #[test]
    fn stop_mode_propagates() {
        let n = 2;
        let coord = Coordinator::new(n);
        std::thread::scope(|s| {
            for rank in 0..n {
                let coord = coord.clone();
                s.spawn(move || {
                    let mut agent = coord.agent(rank);
                    let (_, mode) = checkpoint_at(&coord, &mut agent, 4, CkptMode::Stop);
                    assert_eq!(mode, CkptMode::Stop);
                });
            }
        });
    }

    #[test]
    fn no_schedule_means_no_round() {
        let coord = Coordinator::new(1);
        let mut agent = coord.agent(0);
        assert!(matches!(agent.poll(0), Ok(Poll::None)));
        assert_eq!(coord.completed_rounds(), 0);
        assert!(coord.take_world_image("x").is_none());
    }

    #[test]
    fn single_rank_enters_at_the_scheduled_step() {
        let coord = Coordinator::new(1);
        let mut agent = coord.agent(0);
        assert_eq!(
            checkpoint_at(&coord, &mut agent, 7, CkptMode::Continue),
            (7, CkptMode::Continue)
        );
        assert!(matches!(agent.poll(8), Ok(Poll::None)));
    }

    #[test]
    fn multiple_epochs() {
        let coord = Coordinator::new(1);
        let mut agent = coord.agent(0);
        let once = (0, CkptMode::Continue);
        assert_eq!(
            checkpoint_at(&coord, &mut agent, 0, CkptMode::Continue),
            once
        );
        let _ = coord.take_world_image("v");
        assert!(matches!(agent.poll(1), Ok(Poll::None)));
        let twice = (5, CkptMode::Continue);
        assert_eq!(
            checkpoint_at(&coord, &mut agent, 5, CkptMode::Continue),
            twice
        );
        assert_eq!(coord.completed_rounds(), 2);
    }

    #[test]
    fn attached_sink_takes_ownership_of_each_epoch() {
        struct Collect(std::sync::Mutex<Vec<WorldImage>>);
        impl ImageSink for Collect {
            fn submit(&self, image: WorldImage) -> Result<(), StoreError> {
                self.0.lock().unwrap().push(image);
                Ok(())
            }
        }
        let n = 3;
        let coord = Coordinator::new(n);
        let sink = Arc::new(Collect(std::sync::Mutex::new(Vec::new())));
        coord.attach_sink(sink.clone(), "MPICH");
        std::thread::scope(|s| {
            for rank in 0..n {
                let coord = coord.clone();
                s.spawn(move || {
                    let mut agent = coord.agent(rank);
                    checkpoint_at(&coord, &mut agent, 0, CkptMode::Continue);
                });
            }
        });
        let got = sink.0.lock().unwrap();
        assert_eq!(got.len(), 1, "one round, one forwarded image");
        assert_eq!(got[0].nranks(), n);
        assert_eq!(got[0].vendor_hint, "MPICH");
        drop(got);
        // The sink consumed the staging area at the rendezvous.
        assert!(coord.take_world_image("x").is_none());
    }

    #[test]
    fn failing_sink_unwinds_every_participant() {
        fn disk_full() -> StoreError {
            StoreError::Io {
                op: "write",
                path: "epoch_000001.tmp/blocks.bin".into(),
                msg: "disk full".into(),
            }
        }
        struct Fail;
        impl ImageSink for Fail {
            fn submit(&self, _: WorldImage) -> Result<(), StoreError> {
                Err(disk_full())
            }
        }
        let n = 2;
        let coord = Coordinator::new(n);
        coord.attach_sink(Arc::new(Fail), "MPICH");
        std::thread::scope(|s| {
            for rank in 0..n {
                let coord = coord.clone();
                s.spawn(move || {
                    let mut agent = coord.agent(rank);
                    let zeros = vec![0u64; n];
                    let session = enter(&coord, &mut agent, 0, CkptMode::Continue);
                    session.exchange_counters(&zeros, &zeros).expect("counters");
                    session.submit_image(RankImage::new(rank, n, session.epoch()));
                    // Every participant — leader or not — observes the
                    // persistence failure with the same error.
                    assert_eq!(session.finish(), Err(CkptError::Store(disk_full())));
                });
            }
        });
    }

    #[test]
    fn resign_before_anyone_entered_abandons_the_round() {
        let coord = Coordinator::new(2);
        let tel = Arc::new(Telemetry::new(2));
        coord.attach_telemetry(tel.clone());
        let mut a0 = coord.agent(0);
        let mut a1 = coord.agent(1);
        coord.schedule_checkpoint_at(5, CkptMode::Continue);
        // Rank 1 finishes its program before reaching the cut.
        a1.resign();
        // The resignation closed the round: rank 0 runs on at the cut.
        assert!(matches!(a0.poll(5), Ok(Poll::None)));
        assert!(matches!(a0.poll(6), Ok(Poll::None)));
        assert_eq!(tel.emitted(EventKind::Poison), 0, "nobody was inside");
        assert_eq!(coord.completed_rounds(), 0);
    }

    #[test]
    fn cuts_after_any_resignation_open_nothing() {
        let coord = Coordinator::new(2);
        let mut a0 = coord.agent(0);
        let mut a1 = coord.agent(1);
        a1.resign();
        coord.schedule_checkpoint_at(0, CkptMode::Stop);
        // No round can ever complete, so none opens.
        assert!(matches!(a0.poll(0), Ok(Poll::None)));
        assert!(matches!(a0.poll(1), Ok(Poll::None)));
        assert_eq!(coord.completed_rounds(), 0);
    }

    #[test]
    fn resign_after_an_entry_poisons_then_closes_the_round() {
        let coord = Coordinator::new(3);
        let tel = Arc::new(Telemetry::new(3));
        coord.attach_telemetry(tel.clone());
        let (mut a, mut b, mut c) = (coord.agent(0), coord.agent(1), coord.agent(2));
        let session = enter(&coord, &mut a, 5, CkptMode::Continue);
        // Rank 1 dies with rank 0 inside the rendezvous.
        b.resign();
        let zeros = [0u64; 3];
        assert_eq!(
            session.exchange_counters(&zeros, &zeros).unwrap_err(),
            CkptError::Poisoned
        );
        // Rank 2 reaches the cut after the round was closed: it runs on.
        coord.schedule_checkpoint_at(5, CkptMode::Continue);
        assert!(matches!(c.poll(5), Ok(Poll::None)));
        assert_eq!(tel.emitted(EventKind::Poison), 1);
        assert_eq!(coord.completed_rounds(), 0);
    }

    #[test]
    fn death_mid_rendezvous_poisons_waiters() {
        let n = 2;
        let coord = Coordinator::new(n);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let c0 = coord.clone();
            let b = &barrier;
            s.spawn(move || {
                let mut agent = c0.agent(0);
                let session = enter(&c0, &mut agent, 0, CkptMode::Continue);
                b.wait(); // let rank 1 die only once we are committed
                let err = session.exchange_counters(&[0, 0], &[0, 0]).unwrap_err();
                assert_eq!(err, CkptError::Poisoned);
            });
            let c1 = coord.clone();
            s.spawn(move || {
                let mut agent = c1.agent(1);
                b.wait();
                agent.resign(); // dies mid-round → poison
            });
        });
    }

    #[test]
    fn a_rank_that_reaches_the_cut_enters_and_one_past_it_overruns() {
        let coord = Coordinator::new(2);
        coord.schedule_checkpoint_at(9, CkptMode::Continue);
        // Rank 0 skips steps 6–8 below the cut: it still enters at 9.
        let mut a0 = coord.agent(0);
        assert!(matches!(a0.poll(5), Ok(Poll::None)));
        assert!(matches!(a0.poll(9), Ok(Poll::Enter(_))));
        // Rank 1's first poll in the open round is past the cut.
        let mut a1 = coord.agent(1);
        match a1.poll(10) {
            Err(e) => assert_eq!(e, CkptError::Overrun { cut: 9, got: 10 }),
            Ok(_) => panic!("a poll past the cut must overrun"),
        }
    }
}

#[cfg(test)]
/// The replica-group attachment, in isolation from the session layer:
/// `finish()` quorum-commits an epoch record per round and the barrier
/// protocol is unchanged by the extra leader work.
mod replica_tests {
    use super::*;
    use crate::replica::{ReplicaConfig, ReplicaGroup, SystemClock};

    #[test]
    fn finish_with_replicas_attached_completes() {
        let n = 3;
        let coord = Coordinator::new(n);
        let group = Arc::new(ReplicaGroup::in_memory(
            ReplicaConfig::default(),
            Arc::new(SystemClock::new()),
        ));
        coord.attach_replicas(group.clone());
        std::thread::scope(|s| {
            for rank in 0..n {
                let coord = coord.clone();
                s.spawn(move || {
                    let mut agent = coord.agent(rank);
                    super::tests::checkpoint_at(&coord, &mut agent, 0, CkptMode::Continue);
                });
            }
        });
        assert_eq!(coord.completed_rounds(), 1);
        assert_eq!(group.stats().commits, 1);
    }
}
