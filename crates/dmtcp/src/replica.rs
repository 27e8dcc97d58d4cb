//! Replicated coordinator commit log: a quorum of coordinator replicas
//! accepting the coordinator's one commit point, the epoch seal.
//!
//! After the remote tier (PR 4–5) the checkpoint chain survives disk loss
//! and rank fail-stop, but the coordinator/store-writer process itself is
//! still a single point of failure: a coordinator killed mid-rendezvous
//! poisons the world. This module removes that last SPOF the way the
//! paper's related work (FTHP-MPI) layers replication over a
//! fault-intolerant substrate:
//!
//! * a [`ReplicaGroup`] of 3+ replicas runs **single-decree Paxos per log
//!   slot** over [`ReplicaRecord`]s (epoch seals);
//! * each replica persists its acceptor state to an [`ObjectTier`]-backed
//!   log using the same checksummed-record discipline as the tier's epoch
//!   seal (magic + version + payload + FNV trailer, written with
//!   read-back verification): the seal format *is* the log-entry
//!   encoding, there is no second commit path;
//! * a [`LivenessTimer`] (election timeout + heartbeats over an
//!   injectable [`Clock`]) detects a dead leader; the next commit elects
//!   a successor, which **re-adopts** the highest in-flight accepted
//!   record (or finds none and proposes cleanly) before resuming — so a
//!   leader killed at any barrier phase poisons nothing;
//! * a scripted [`ReplicaFault`] harness kills the current leader at
//!   named [`BarrierPhase`]s, which is how the failover battery in
//!   `tests/replica_failover.rs` exercises every takeover window
//!   deterministically.
//!
//! The coordinator drives this through
//! [`crate::coordinator::Coordinator::attach_replicas`]: the `finish()`
//! leader commits the epoch record to a quorum *before* releasing the
//! final barrier, so an epoch the ranks observe as complete is always
//! recoverable from a majority of replica logs.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use simnet::telemetry::{Counter, EventKind, Telemetry};

use crate::codec::{crc32, CodecError, Reader, Writer};
use crate::tier::{get_retried, put_verified, ObjectTier, TierConfig, TierError};

/// Magic prefix of a replicated log record ("REPLOG", two bytes short).
const RECORD_MAGIC: u64 = 0x5245_504C_4F47_0001;
/// Log record format version.
const RECORD_V1: u64 = 1;
/// The tag byte of an epoch seal, the one record kind.
const SEAL_TAG: u8 = 0;

// ---------------------------------------------------------------------------
// Clocks and the liveness timer
// ---------------------------------------------------------------------------

/// A monotonic clock the liveness machinery reads and sleeps on.
///
/// Production code uses [`SystemClock`]; tests inject a [`TestClock`] so
/// election timeouts are deterministic (a "sleep" advances the test
/// clock instead of stalling the test).
pub trait Clock: Send + Sync {
    /// Time elapsed since the clock's origin.
    fn now(&self) -> Duration;
    /// Sleep for `d` (or, for a test clock, advance time by `d`).
    fn sleep(&self, d: Duration);
}

/// The real monotonic clock ([`Instant`]-based).
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is now.
    pub fn new() -> SystemClock {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep(&self, d: Duration) {
        // lint:allow(no-sleep-poll) — the SystemClock impl IS the sanctioned OS sleep behind `Clock`.
        std::thread::sleep(d);
    }
}

/// A manually advanced clock for deterministic tests: `sleep` advances
/// time instead of blocking, so an election timeout "elapses" instantly
/// and reproducibly.
pub struct TestClock {
    now: Mutex<Duration>,
}

impl TestClock {
    /// A test clock starting at zero.
    pub fn new() -> TestClock {
        TestClock {
            now: Mutex::new(Duration::ZERO),
        }
    }

    /// Advance the clock by `d`.
    pub fn advance(&self, d: Duration) {
        *self.now.lock().expect("test clock lock") += d;
    }
}

impl Default for TestClock {
    fn default() -> Self {
        TestClock::new()
    }
}

impl Clock for TestClock {
    fn now(&self) -> Duration {
        *self.now.lock().expect("test clock lock")
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

/// Election timeout + heartbeat bookkeeping over an injectable clock.
///
/// The leader (or any successful leader-driven operation) calls
/// [`LivenessTimer::beat`]; a follower that finds the leader unresponsive
/// waits for [`LivenessTimer::expired`] before starting an election —
/// takeover happens *within* the election timeout, never before it.
pub struct LivenessTimer {
    clock: Arc<dyn Clock>,
    timeout: Duration,
    last_beat: Mutex<Duration>,
}

impl LivenessTimer {
    /// A timer that expires `timeout` after the most recent beat.
    pub fn new(clock: Arc<dyn Clock>, timeout: Duration) -> LivenessTimer {
        let now = clock.now();
        LivenessTimer {
            clock,
            timeout,
            last_beat: Mutex::new(now),
        }
    }

    /// Record a heartbeat (leader activity observed now).
    pub fn beat(&self) {
        *self.last_beat.lock().expect("timer lock") = self.clock.now();
    }

    /// Whether the election timeout has elapsed since the last beat.
    pub fn expired(&self) -> bool {
        let last = *self.last_beat.lock().expect("timer lock");
        self.clock.now().saturating_sub(last) >= self.timeout
    }

    /// Time left until expiry (zero if already expired).
    pub fn remaining(&self) -> Duration {
        let last = *self.last_beat.lock().expect("timer lock");
        (last + self.timeout).saturating_sub(self.clock.now())
    }

    /// Sleep (on the injected clock) until the timer expires.
    pub fn wait_expiry(&self) {
        while !self.expired() {
            let d = self.remaining().max(Duration::from_micros(100));
            self.clock.sleep(d);
        }
    }

    /// The configured election timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }
}

// ---------------------------------------------------------------------------
// Records and errors
// ---------------------------------------------------------------------------

/// One entry of the replicated coordinator log: the coordinator's one
/// commit point. An enum of one kind, tagged on the wire so a log written
/// today stays readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaRecord {
    /// A checkpoint epoch sealed at the rendezvous: the coordinator's
    /// `finish()` leader commits this to a quorum before releasing the
    /// final barrier.
    EpochSeal {
        /// The completed epoch number.
        epoch: u64,
        /// The agreed cut step (every rank's resume position).
        cut: u64,
        /// Whether the round agreed to stop the world afterwards.
        stop: bool,
        /// The vendor the epoch's world image is stamped with.
        vendor: String,
    },
}

impl ReplicaRecord {
    /// Encode with the same checksummed-seal discipline as the tier's
    /// epoch seal: magic, version, tag 0, payload, FNV trailer.
    pub fn encode(&self) -> Vec<u8> {
        let ReplicaRecord::EpochSeal {
            epoch,
            cut,
            stop,
            vendor,
        } = self;
        let mut w = Writer::new();
        w.u64(RECORD_MAGIC);
        w.u64(RECORD_V1);
        w.u8(SEAL_TAG);
        w.u64(*epoch);
        w.u64(*cut);
        w.u8(u8::from(*stop));
        w.string(vendor);
        w.finish()
    }

    /// Decode a record; a corrupt buffer (bad trailer, magic, version or
    /// tag: only a seal's tag 0 is accepted) is rejected, never silently
    /// accepted.
    pub fn decode(buf: &[u8]) -> Result<ReplicaRecord, CodecError> {
        let mut r = Reader::checked(buf)?;
        r.expect_magic(RECORD_MAGIC)?;
        let version = r.u64()?;
        if version != RECORD_V1 {
            return Err(CodecError::BadMagic {
                expected: RECORD_V1,
                found: version,
            });
        }
        let tag = r.u8()?;
        if tag != SEAL_TAG {
            return Err(CodecError::BadMagic {
                expected: u64::from(SEAL_TAG),
                found: u64::from(tag),
            });
        }
        Ok(ReplicaRecord::EpochSeal {
            epoch: r.u64()?,
            cut: r.u64()?,
            stop: r.u8()? != 0,
            vendor: r.string()?,
        })
    }
}

/// Why a replicated-log operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaError {
    /// A quorum of replicas could not be reached: the record is not
    /// durable and the round must abort atomically.
    NoQuorum {
        /// Acceptances needed (majority of the group).
        need: usize,
        /// Acceptances obtained.
        have: usize,
    },
    /// The group was built with fewer than three replicas (or more log
    /// tiers than replicas).
    Config(String),
    /// A replica's durable log failed underneath the protocol.
    Log(TierError),
    /// A persisted log object failed to decode.
    Corrupt {
        /// The offending log key.
        key: String,
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::NoQuorum { need, have } => {
                write!(f, "replica quorum unreachable: need {need}, have {have}")
            }
            ReplicaError::Config(m) => write!(f, "replica group misconfigured: {m}"),
            ReplicaError::Log(e) => write!(f, "replica log failed: {e}"),
            ReplicaError::Corrupt { key, detail } => {
                write!(f, "replica log object {key} corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<TierError> for ReplicaError {
    fn from(e: TierError) -> ReplicaError {
        ReplicaError::Log(e)
    }
}

// ---------------------------------------------------------------------------
// Fault scripting
// ---------------------------------------------------------------------------

/// The barrier phases at which the failover battery can kill the leader.
/// Announced by the coordinator's `finish()` leader via
/// [`ReplicaGroup::notify_phase`] in this order per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierPhase {
    /// The finish() leader arrived at the final barrier (round closed,
    /// no replica work done yet).
    Arrive,
    /// The epoch record is built, about to ship to the replicas.
    PreSeal,
    /// The record is quorum-accepted (the epoch is durable).
    PostSeal,
    /// The final barrier is about to release the waiting ranks.
    Release,
}

/// Stable numeric code of a barrier phase, as recorded in telemetry
/// events (0=Arrive, 1=PreSeal, 2=PostSeal, 3=Release).
pub fn phase_code(phase: BarrierPhase) -> u64 {
    match phase {
        BarrierPhase::Arrive => 0,
        BarrierPhase::PreSeal => 1,
        BarrierPhase::PostSeal => 2,
        BarrierPhase::Release => 3,
    }
}

/// One scripted fault for the failover battery, consumed in script order
/// when its phase is announced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaFault {
    /// Fail-stop the current leader replica when the given phase is
    /// announced (a no-op if no live leader exists at that moment).
    KillLeaderAt(BarrierPhase),
}

// ---------------------------------------------------------------------------
// Acceptors
// ---------------------------------------------------------------------------

/// Log key of one replica's promise marker.
fn promised_key() -> &'static str {
    "promised"
}

/// Log key of one replica's accepted record for `slot`.
fn slot_key(slot: u64) -> String {
    format!("slot_{slot:06}/accepted")
}

/// Per-slot accepted `(ballot, record)` pairs of one acceptor.
type AcceptedSlots = BTreeMap<u64, (u64, ReplicaRecord)>;

/// One replica's single-decree acceptor state for every slot.
struct AcceptorState {
    /// Highest ballot promised (never accept below it).
    promised: u64,
    /// Per-slot accepted `(ballot, record)`.
    accepted: AcceptedSlots,
}

/// A coordinator replica: the acceptor role plus its durable log.
struct Acceptor {
    id: usize,
    alive: AtomicBool,
    log: Arc<dyn ObjectTier>,
    state: Mutex<AcceptorState>,
}

/// Encode an accepted `(ballot, record)` pair for the durable log; the
/// record's own trailer rides inside as a byte field, so a torn slot
/// object is detected at either layer.
fn encode_accepted(ballot: u64, record: &ReplicaRecord) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(RECORD_MAGIC);
    w.u64(ballot);
    w.bytes(&record.encode());
    w.finish()
}

fn decode_accepted(key: &str, buf: &[u8]) -> Result<(u64, ReplicaRecord), ReplicaError> {
    let corrupt = |detail: String| ReplicaError::Corrupt {
        key: key.to_string(),
        detail,
    };
    let mut r = Reader::checked(buf).map_err(|e| corrupt(format!("outer trailer: {e}")))?;
    r.expect_magic(RECORD_MAGIC)
        .map_err(|e| corrupt(format!("magic: {e}")))?;
    let ballot = r.u64().map_err(|e| corrupt(format!("ballot: {e}")))?;
    let payload = r.bytes().map_err(|e| corrupt(format!("payload: {e}")))?;
    let record = ReplicaRecord::decode(payload).map_err(|e| corrupt(format!("record: {e}")))?;
    Ok((ballot, record))
}

/// Every accepted slot of one replica's log, in key order: each
/// `slot_NNNNNN/accepted` object read through the retrying get path and
/// decoded into its `(ballot, record)`.
fn accepted_slots(log: &dyn ObjectTier, config: TierConfig) -> Result<AcceptedSlots, ReplicaError> {
    let mut slots = AcceptedSlots::new();
    for key in log.list("slot_")? {
        let Some(digits) = key
            .strip_prefix("slot_")
            .and_then(|r| r.strip_suffix("/accepted"))
        else {
            continue;
        };
        let Ok(slot) = digits.parse::<u64>() else {
            continue;
        };
        let buf = get_retried(log, config, &key, Ok)?;
        slots.insert(slot, decode_accepted(&key, &buf)?);
    }
    Ok(slots)
}

impl Acceptor {
    /// Open an acceptor over its durable log, replaying any persisted
    /// promise and accepted slots (the restart path: a replica rejoins
    /// with exactly the state it had durably acknowledged).
    fn open(
        id: usize,
        log: Arc<dyn ObjectTier>,
        config: TierConfig,
    ) -> Result<Acceptor, ReplicaError> {
        let mut promised = 0;
        match get_retried(&*log, config, promised_key(), Ok) {
            Ok(buf) => {
                let mut r = Reader::checked(&buf).map_err(|e| ReplicaError::Corrupt {
                    key: promised_key().to_string(),
                    detail: format!("promise trailer: {e}"),
                })?;
                promised = r.u64().map_err(|e| ReplicaError::Corrupt {
                    key: promised_key().to_string(),
                    detail: format!("promise ballot: {e}"),
                })?;
            }
            Err(TierError::NotFound { .. }) => {}
            Err(e) => return Err(ReplicaError::Log(e)),
        }
        let accepted = accepted_slots(&*log, config)?;
        Ok(Acceptor {
            id,
            alive: AtomicBool::new(true),
            log,
            state: Mutex::new(AcceptorState { promised, accepted }),
        })
    }

    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Phase 1: promise `ballot` if it is the highest seen, returning the
    /// acceptor's accepted slots so the proposer can re-adopt in-flight
    /// records. `None` = rejected (a higher promise exists).
    fn prepare(
        &self,
        ballot: u64,
        config: TierConfig,
        retries: &mut u64,
    ) -> Result<Option<AcceptedSlots>, ReplicaError> {
        if !self.is_alive() {
            return Ok(None);
        }
        let mut st = self.state.lock().expect("acceptor lock");
        if ballot <= st.promised {
            return Ok(None);
        }
        let mut w = Writer::new();
        w.u64(ballot);
        // lint:allow(guard-across-barrier) — `w.finish()` seals the local byte Writer, not the rank barrier.
        let buf = w.finish();
        put_verified(
            &*self.log,
            config,
            promised_key(),
            &buf,
            crc32(&buf),
            retries,
        )?;
        st.promised = ballot;
        Ok(Some(st.accepted.clone()))
    }

    /// Phase 2: accept `(ballot, record)` at `slot` unless a higher
    /// promise exists. The acceptance is durable (written to the log with
    /// read-back verification) *before* it is acknowledged.
    fn accept(
        &self,
        ballot: u64,
        slot: u64,
        record: &ReplicaRecord,
        config: TierConfig,
        retries: &mut u64,
    ) -> Result<bool, ReplicaError> {
        if !self.is_alive() {
            return Ok(false);
        }
        let mut st = self.state.lock().expect("acceptor lock");
        if ballot < st.promised {
            return Ok(false);
        }
        let buf = encode_accepted(ballot, record);
        put_verified(
            &*self.log,
            config,
            &slot_key(slot),
            &buf,
            crc32(&buf),
            retries,
        )?;
        st.promised = ballot;
        st.accepted.insert(slot, (ballot, record.clone()));
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// The replica group
// ---------------------------------------------------------------------------

/// Tunables of a [`ReplicaGroup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Number of replicas (≥ 3; quorum is a majority).
    pub replicas: usize,
    /// How long a dead leader goes undetected before takeover.
    pub election_timeout: Duration,
    /// Retry/backoff/deadline policy for the replicas' durable log I/O
    /// (the same knobs as the tier shipper).
    pub log: TierConfig,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            replicas: 3,
            election_timeout: Duration::from_millis(50),
            log: TierConfig::default(),
        }
    }
}

/// What the group has done so far: a view of the group's recorder,
/// built on read from its registry's `replica.*` counters
/// ([`ReplicaGroup::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Records committed to a quorum.
    pub commits: u64,
    /// Elections run (including the initial one).
    pub elections: u64,
    /// Elections that replaced a dead incumbent (the failover count).
    pub recoveries: u64,
    /// In-flight records a new leader re-adopted and re-drove to quorum.
    pub re_adopted: u64,
    /// Log-write retry attempts beyond the first, across replicas.
    pub log_retries: u64,
}

struct GroupState {
    /// The current leader replica, if one has been elected and is not
    /// known dead.
    leader: Option<usize>,
    /// The leader's ballot (0 = no ballot issued yet).
    ballot: u64,
    /// Highest ballot observed anywhere (elections must exceed it).
    max_ballot: u64,
    /// Next unassigned log slot.
    next_slot: u64,
    /// Scripted faults, consumed front-first as phases are announced.
    faults: VecDeque<ReplicaFault>,
}

/// A group of coordinator replicas running single-decree Paxos per log
/// slot, with timeout-driven leader failover.
///
/// The handle is the *proposer side*: the coordinator's `finish()` leader
/// calls [`ReplicaGroup::commit`] with the epoch record and the call
/// returns only once a majority of replicas has durably accepted it (or
/// errs with [`ReplicaError::NoQuorum`], in which case the round aborts
/// atomically). Replica fail-stop is modelled with [`ReplicaGroup::kill`];
/// a killed leader is detected via the [`LivenessTimer`] and replaced on
/// the next commit, re-adopting whatever record was in flight.
pub struct ReplicaGroup {
    config: ReplicaConfig,
    timer: LivenessTimer,
    acceptors: Vec<Acceptor>,
    state: Mutex<GroupState>,
    /// Held for the whole of a [`ReplicaGroup::commit`]: one proposal in
    /// flight at a time, so two callers can never claim the same slot.
    /// The coordinator's `finish()` leader is the one proposer in the
    /// library; the lock guards the public API against any other caller.
    proposing: Mutex<()>,
    /// The group's flight recorder — the run's once attached, a
    /// detached one until then: elections, accepts and quorum losses
    /// land on its replica lane, and their counts on its registry.
    telemetry: Arc<Telemetry>,
}

impl ReplicaGroup {
    /// Build a group over explicit per-replica durable logs (one
    /// [`ObjectTier`] each — `FsTier` directories in production,
    /// `MemTier`s, or a `ScriptedVol` over one, in tests). Replays any state the logs
    /// already hold, so re-opening the same logs resumes the group.
    pub fn new(
        config: ReplicaConfig,
        clock: Arc<dyn Clock>,
        logs: Vec<Arc<dyn ObjectTier>>,
    ) -> Result<ReplicaGroup, ReplicaError> {
        if config.replicas < 3 {
            return Err(ReplicaError::Config(format!(
                "need at least 3 replicas, got {}",
                config.replicas
            )));
        }
        if logs.len() != config.replicas {
            return Err(ReplicaError::Config(format!(
                "{} replicas but {} logs",
                config.replicas,
                logs.len()
            )));
        }
        let mut acceptors = Vec::with_capacity(logs.len());
        let mut max_ballot = 0;
        let mut next_slot = 0;
        for (id, log) in logs.into_iter().enumerate() {
            let acceptor = Acceptor::open(id, log, config.log)?;
            {
                let st = acceptor.state.lock().expect("acceptor lock");
                max_ballot = max_ballot.max(st.promised);
                if let Some((&slot, _)) = st.accepted.last_key_value() {
                    next_slot = next_slot.max(slot + 1);
                }
            }
            acceptors.push(acceptor);
        }
        let timer = LivenessTimer::new(clock, config.election_timeout);
        Ok(ReplicaGroup {
            config,
            timer,
            acceptors,
            state: Mutex::new(GroupState {
                leader: None,
                ballot: 0,
                max_ballot,
                next_slot,
                faults: VecDeque::new(),
            }),
            proposing: Mutex::new(()),
            telemetry: Telemetry::detached(),
        })
    }

    /// Move the group onto the run's recorder `tel`: elections,
    /// per-slot accepts and quorum losses flow onto its replica lane, and
    /// every count into its registry. Attach before the group counts
    /// anything (before [`ReplicaGroup::prime`] or a commit): what it
    /// counted so far stays in the detached recorder it was built with.
    pub fn attach_telemetry(&mut self, tel: Arc<Telemetry>) {
        self.telemetry = tel;
    }

    /// Emit one event on the replica lane, stamped with the recorder's
    /// observed virtual clock (the group runs on a wall [`Clock`] and has
    /// no virtual time of its own).
    fn emit(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        let tel = &self.telemetry;
        tel.emit_system(tel.replica_lane(), kind, a, b, c);
    }

    /// The registry counter `replica.{name}`.
    fn counter(&self, name: &str) -> Counter {
        self.telemetry.metrics().counter(&format!("replica.{name}"))
    }

    /// A group over fresh in-memory logs (tests and benches).
    pub fn in_memory(config: ReplicaConfig, clock: Arc<dyn Clock>) -> ReplicaGroup {
        let logs = (0..config.replicas)
            .map(|_| Arc::new(crate::tier::MemTier::new()) as Arc<dyn ObjectTier>)
            .collect();
        ReplicaGroup::new(config, clock, logs).expect("in-memory replica group")
    }

    /// Majority size of the group.
    pub fn quorum(&self) -> usize {
        self.config.replicas / 2 + 1
    }

    /// The current leader replica, if any.
    pub fn leader(&self) -> Option<usize> {
        self.state.lock().expect("group lock").leader
    }

    /// Live replica count.
    pub fn live(&self) -> usize {
        self.acceptors.iter().filter(|a| a.is_alive()).count()
    }

    /// Fail-stop replica `id` (idempotent). A killed leader stays leader
    /// on paper until the liveness timeout expires and the next commit
    /// elects a successor.
    pub fn kill(&self, id: usize) {
        if let Some(a) = self.acceptors.get(id) {
            a.alive.store(false, Ordering::SeqCst);
        }
    }

    /// Revive replica `id` (a replaced node rejoining). Its acceptor
    /// state was never lost — the durable log is the state.
    pub fn revive(&self, id: usize) {
        if let Some(a) = self.acceptors.get(id) {
            a.alive.store(true, Ordering::SeqCst);
        }
    }

    /// Append scripted faults for the failover battery.
    pub fn script_faults(&self, faults: impl IntoIterator<Item = ReplicaFault>) {
        self.state.lock().expect("group lock").faults.extend(faults);
    }

    /// Install the initial leader now instead of lazily at the first
    /// commit. Idempotent. Sessions running a phase-scripted failover
    /// battery prime the group on attach so a `KillLeaderAt` fault has an
    /// incumbent to strike from the very first epoch barrier (otherwise
    /// the first round's kill waits for a leader that is only elected
    /// *inside* that round's commit).
    pub fn prime(&self) -> Result<(), ReplicaError> {
        self.ensure_leader()
    }

    /// Announce a barrier phase (called by the coordinator's `finish()`
    /// leader). If the front of the fault script names this phase *and* a
    /// live leader exists, that leader is fail-stopped here; with no live
    /// leader the fault stays scripted (it waits for a later round that
    /// has one — a priming round must not consume it as a no-op).
    pub fn notify_phase(&self, phase: BarrierPhase) {
        let victim = {
            let mut st = self.state.lock().expect("group lock");
            match st.faults.front() {
                Some(ReplicaFault::KillLeaderAt(p)) if *p == phase => {
                    let victim = st.leader.filter(|&id| self.acceptors[id].is_alive());
                    if victim.is_some() {
                        st.faults.pop_front();
                    }
                    victim
                }
                _ => None,
            }
        };
        if let Some(id) = victim {
            self.emit(EventKind::FaultKill, id as u64, phase_code(phase), 0);
            self.kill(id);
        }
    }

    /// The group's liveness timer (election timeout + heartbeats).
    pub fn timer(&self) -> &LivenessTimer {
        &self.timer
    }

    /// Statistics so far, read from the recorder's registry.
    pub fn stats(&self) -> ReplicaStats {
        ReplicaStats {
            commits: self.counter("commits").get(),
            elections: self.counter("elections").get(),
            recoveries: self.counter("recoveries").get(),
            re_adopted: self.counter("re_adopted").get(),
            log_retries: self.counter("log_retries").get(),
        }
    }

    /// Commit one record to a quorum, transparently failing over if the
    /// leader is dead: the caller never sees a takeover, only the commit
    /// completing under whichever leader survived. Returns the log slot.
    ///
    /// Errs with [`ReplicaError::NoQuorum`] only when a majority of
    /// replicas is unreachable — dead, or unable to write its log — and
    /// the caller must then abort its round atomically (nothing was
    /// committed anywhere).
    ///
    /// Callers on different threads are served one at a time: the slot is
    /// read here and claimed only after the accept phase, and a second
    /// proposer let in between would be acknowledged in the same slot and
    /// overwrite the first one's record.
    pub fn commit(&self, record: ReplicaRecord) -> Result<u64, ReplicaError> {
        let _turn = self.proposing.lock().expect("proposer lock");
        // Bounded retries: each iteration either commits or replaces the
        // leader; with every replica failing at most once, 2N + 2 rounds
        // cover any schedule the fault scripts can produce.
        for _ in 0..2 * self.config.replicas + 2 {
            self.ensure_leader()?;
            let (ballot, slot) = {
                let st = self.state.lock().expect("group lock");
                (st.ballot, st.next_slot)
            };
            if self.drive_accept(ballot, slot, &record)? {
                self.state.lock().expect("group lock").next_slot = slot + 1;
                self.counter("commits").incr();
                self.timer.beat();
                return Ok(slot);
            }
            // The leader lost its ballot (superseded) or died under us:
            // demote and retry through an election.
            let mut st = self.state.lock().expect("group lock");
            if st.ballot == ballot {
                st.leader = None;
            }
        }
        self.emit(EventKind::QuorumLost, self.quorum() as u64, 0, 0);
        self.telemetry.note_incident();
        Err(ReplicaError::NoQuorum {
            need: self.quorum(),
            have: 0,
        })
    }

    /// Replay the quorum-committed log from the replicas' durable logs:
    /// for each slot, the highest-ballot record a majority of logs agree
    /// on. This is the restart path — it reads *only* the logs (through
    /// the retrying, fault-injectable get path), not in-memory state.
    pub fn committed(&self) -> Result<Vec<(u64, ReplicaRecord)>, ReplicaError> {
        let mut by_slot: BTreeMap<u64, Vec<(u64, ReplicaRecord)>> = BTreeMap::new();
        for acceptor in &self.acceptors {
            // A killed replica's *process* is gone but its durable log
            // survives (that is the restart story); replay reads every
            // log that still exists.
            for (slot, entry) in accepted_slots(&*acceptor.log, self.config.log)? {
                by_slot.entry(slot).or_default().push(entry);
            }
        }
        let quorum = self.quorum();
        let mut out = Vec::new();
        for (slot, entries) in by_slot {
            // Count agreement on the highest ballot present; a slot that
            // never reached a majority is in flight, not committed.
            let Some(&(top, _)) = entries.iter().max_by_key(|(b, _)| *b) else {
                continue;
            };
            let agree: Vec<_> = entries.iter().filter(|(b, _)| *b == top).collect();
            if agree.len() >= quorum {
                out.push((slot, agree[0].1.clone()));
            }
        }
        Ok(out)
    }

    /// Make sure a live leader with a valid ballot exists, electing one
    /// if needed. Detection of a dead incumbent waits out the election
    /// timeout first (that is what "within the election timeout" means).
    fn ensure_leader(&self) -> Result<(), ReplicaError> {
        let incumbent = {
            let st = self.state.lock().expect("group lock");
            st.leader
        };
        match incumbent {
            Some(id) if self.acceptors[id].is_alive() => {
                self.timer.beat();
                Ok(())
            }
            Some(_) => {
                // The leader is dead but nobody knows yet: followers
                // notice only when the heartbeat goes silent for the
                // full election timeout.
                self.timer.wait_expiry();
                self.elect(true)
            }
            None => self.elect(false),
        }
    }

    /// Run phase 1 with a fresh ballot from the lowest-id live replica,
    /// re-adopting the highest in-flight accepted record if one exists.
    fn elect(&self, recovery: bool) -> Result<(), ReplicaError> {
        let candidate = self
            .acceptors
            .iter()
            .find(|a| a.is_alive())
            .map(|a| a.id)
            .ok_or(ReplicaError::NoQuorum {
                need: self.quorum(),
                have: 0,
            })?;
        let n = self.config.replicas as u64;
        let ballot = {
            let st = self.state.lock().expect("group lock");
            (st.max_ballot / n + 1) * n + candidate as u64
        };
        let mut retries = 0u64;
        let mut promises = Vec::new();
        for acceptor in &self.acceptors {
            // A replica whose log write failed did not promise: one
            // missing promise, like a dead replica's.
            let accepted = acceptor
                .prepare(ballot, self.config.log, &mut retries)
                .unwrap_or(None);
            self.emit(
                EventKind::Prepare,
                ballot,
                acceptor.id as u64,
                accepted.is_some() as u64,
            );
            if let Some(accepted) = accepted {
                promises.push(accepted);
            }
        }
        {
            let mut st = self.state.lock().expect("group lock");
            st.max_ballot = st.max_ballot.max(ballot);
        }
        self.counter("log_retries").add(retries);
        if promises.len() < self.quorum() {
            self.emit(
                EventKind::QuorumLost,
                self.quorum() as u64,
                promises.len() as u64,
                0,
            );
            self.telemetry.note_incident();
            return Err(ReplicaError::NoQuorum {
                need: self.quorum(),
                have: promises.len(),
            });
        }
        // The new leader's view of the log: everything below the highest
        // accepted slot is already quorum-committed (slots advance only
        // after commit); the highest slot itself may be in flight and
        // must be re-adopted so the old leader's proposal survives it.
        let mut in_flight: Option<(u64, u64, ReplicaRecord)> = None;
        for accepted in &promises {
            if let Some((&slot, (b, record))) = accepted.last_key_value() {
                let better = match &in_flight {
                    None => true,
                    Some((s, ib, _)) => slot > *s || (slot == *s && *b > *ib),
                };
                if better {
                    in_flight = Some((slot, *b, record.clone()));
                }
            }
        }
        {
            let mut st = self.state.lock().expect("group lock");
            st.leader = Some(candidate);
            st.ballot = ballot;
        }
        self.counter("elections").incr();
        self.counter("recoveries").add(recovery as u64);
        self.timer.beat();
        if let Some((slot, _, record)) = in_flight {
            let next = {
                let st = self.state.lock().expect("group lock");
                st.next_slot
            };
            if slot >= next {
                // Replay: re-drive the in-flight record to quorum under
                // the new ballot before accepting new proposals.
                if self.drive_accept(ballot, slot, &record)? {
                    self.state.lock().expect("group lock").next_slot = slot + 1;
                    self.counter("re_adopted").incr();
                } else {
                    let mut st = self.state.lock().expect("group lock");
                    st.leader = None;
                }
            }
        }
        self.emit(
            EventKind::BallotWon,
            ballot,
            candidate as u64,
            promises.len() as u64,
        );
        self.emit(
            EventKind::LeaderElected,
            candidate as u64,
            ballot,
            recovery as u64,
        );
        if recovery {
            // A takeover is the incident the flight recorder exists for:
            // make sure the session dumps this round's timeline.
            self.telemetry.note_incident();
        }
        Ok(())
    }

    /// Phase 2 for one slot: true once a quorum durably accepted, false
    /// if the ballot was superseded or too few replicas acknowledged.
    fn drive_accept(
        &self,
        ballot: u64,
        slot: u64,
        record: &ReplicaRecord,
    ) -> Result<bool, ReplicaError> {
        let mut acks = 0;
        let mut retries = 0u64;
        for acceptor in &self.acceptors {
            // A failed log write is a missing ack: the others may still
            // make a quorum, and then the record is committed.
            if acceptor.accept(ballot, slot, record, self.config.log, &mut retries) == Ok(true) {
                self.emit(EventKind::Accept, ballot, slot, acceptor.id as u64);
                acks += 1;
            }
        }
        self.counter("log_retries").add(retries);
        if acks >= self.quorum() {
            self.emit(EventKind::SlotCommit, slot, ballot, 0);
            return Ok(true);
        }
        if self.live() < self.quorum() {
            self.emit(EventKind::QuorumLost, self.quorum() as u64, acks as u64, 0);
            self.telemetry.note_incident();
            return Err(ReplicaError::NoQuorum {
                need: self.quorum(),
                have: acks,
            });
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::MemTier;

    fn group3() -> ReplicaGroup {
        ReplicaGroup::in_memory(ReplicaConfig::default(), Arc::new(TestClock::new()))
    }

    fn seal(epoch: u64) -> ReplicaRecord {
        ReplicaRecord::EpochSeal {
            epoch,
            cut: epoch * 10,
            stop: false,
            vendor: "MPICH".to_string(),
        }
    }

    #[test]
    fn record_roundtrip_all_kinds() {
        let record = seal(7);
        assert_eq!(ReplicaRecord::decode(&record.encode()).unwrap(), record);
        // A tag-1 record (a retired kind) with a valid trailer is rejected.
        let mut w = Writer::new();
        w.u64(RECORD_MAGIC);
        w.u64(RECORD_V1);
        w.u8(1);
        w.u64(3);
        w.u8(0);
        assert_eq!(
            ReplicaRecord::decode(&w.finish()),
            Err(CodecError::BadMagic {
                expected: 0,
                found: 1
            })
        );
    }

    #[test]
    fn a_seal_written_by_the_three_kind_encoder_decodes_byte_equal() {
        // `EpochSeal { epoch: 7, cut: 70, stop: true, vendor: "MPICH" }` as
        // encoded when the log also had membership and abort records.
        const OLD: &str = "0100474f4c504552010000000000000000070000000000000046000000\
                           000000000105000000000000004d50494348507dbab2f6f2589b";
        let old: Vec<u8> = (0..OLD.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&OLD[i..i + 2], 16).unwrap())
            .collect();
        let record = ReplicaRecord::EpochSeal {
            epoch: 7,
            cut: 70,
            stop: true,
            vendor: "MPICH".to_string(),
        };
        assert_eq!(ReplicaRecord::decode(&old).unwrap(), record);
        assert_eq!(record.encode(), old);
    }

    #[test]
    fn corrupt_record_rejected() {
        let mut buf = seal(1).encode();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        assert!(ReplicaRecord::decode(&buf).is_err());
    }

    #[test]
    fn commits_reach_quorum_and_replay() {
        let g = group3();
        for e in 1..=3 {
            let slot = g.commit(seal(e)).unwrap();
            assert_eq!(slot, e - 1);
        }
        let committed = g.committed().unwrap();
        assert_eq!(committed.len(), 3);
        for (i, (slot, record)) in committed.iter().enumerate() {
            assert_eq!(*slot, i as u64);
            assert_eq!(*record, seal(i as u64 + 1));
        }
        assert_eq!(g.stats().commits, 3);
        assert_eq!(g.stats().elections, 1);
        assert_eq!(g.stats().recoveries, 0);
    }

    #[test]
    fn dead_leader_replaced_within_timeout() {
        let clock = Arc::new(TestClock::new());
        let g = ReplicaGroup::in_memory(ReplicaConfig::default(), clock.clone());
        g.commit(seal(1)).unwrap();
        let leader = g.leader().unwrap();
        let before = clock.now();
        g.kill(leader);
        g.commit(seal(2)).unwrap();
        let waited = clock.now() - before;
        assert!(
            waited >= Duration::from_millis(1),
            "takeover waited the timeout"
        );
        assert_ne!(g.leader().unwrap(), leader);
        assert_eq!(g.stats().recoveries, 1);
        assert_eq!(g.committed().unwrap().len(), 2);
    }

    #[test]
    fn minority_kills_never_lose_commits() {
        let clock = Arc::new(TestClock::new());
        let config = ReplicaConfig {
            replicas: 5,
            ..ReplicaConfig::default()
        };
        let g = ReplicaGroup::in_memory(config, clock);
        g.commit(seal(1)).unwrap();
        g.kill(g.leader().unwrap());
        g.commit(seal(2)).unwrap();
        g.kill(g.leader().unwrap());
        g.commit(seal(3)).unwrap();
        let committed = g.committed().unwrap();
        assert_eq!(committed.len(), 3);
        assert_eq!(g.stats().recoveries, 2);
    }

    #[test]
    fn majority_loss_is_no_quorum() {
        let g = group3();
        g.commit(seal(1)).unwrap();
        g.kill(0);
        g.kill(1);
        match g.commit(seal(2)) {
            Err(ReplicaError::NoQuorum { need, .. }) => assert_eq!(need, 2),
            other => panic!("expected NoQuorum, got {other:?}"),
        }
        // The committed prefix survives untouched.
        assert_eq!(g.committed().unwrap().len(), 1);
        // Reviving one replica restores the quorum: the group is not
        // wedged by the failed commit.
        g.revive(1);
        g.commit(seal(2)).unwrap();
        assert_eq!(g.committed().unwrap().len(), 2);
    }

    #[test]
    fn reopened_logs_resume_the_group() {
        let logs: Vec<Arc<dyn ObjectTier>> = (0..3)
            .map(|_| Arc::new(MemTier::new()) as Arc<dyn ObjectTier>)
            .collect();
        let clock: Arc<dyn Clock> = Arc::new(TestClock::new());
        {
            let g =
                ReplicaGroup::new(ReplicaConfig::default(), clock.clone(), logs.clone()).unwrap();
            g.commit(seal(1)).unwrap();
            g.commit(seal(2)).unwrap();
        }
        let g = ReplicaGroup::new(ReplicaConfig::default(), clock, logs).unwrap();
        let committed = g.committed().unwrap();
        assert_eq!(committed.len(), 2);
        // New proposals land after the replayed log, not over it.
        let slot = g.commit(seal(3)).unwrap();
        assert_eq!(slot, 2);
    }

    #[test]
    fn scripted_fault_kills_leader_at_phase() {
        let g = group3();
        g.commit(seal(1)).unwrap();
        let leader = g.leader().unwrap();
        g.script_faults([ReplicaFault::KillLeaderAt(BarrierPhase::PreSeal)]);
        g.notify_phase(BarrierPhase::Arrive); // does not match: no kill
        assert!(g.acceptors[leader].is_alive());
        g.notify_phase(BarrierPhase::PreSeal);
        assert!(!g.acceptors[leader].is_alive());
        // The next commit recovers transparently.
        g.commit(seal(2)).unwrap();
        assert_eq!(g.stats().recoveries, 1);
        assert_eq!(g.committed().unwrap().len(), 2);
    }
}
