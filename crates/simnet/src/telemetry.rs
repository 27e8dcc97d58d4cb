//! Flight-recorder telemetry: lock-free per-lane event rings, a
//! process-wide metrics registry, and merged crash-dump timelines.
//!
//! Every layer of the stack (fabric/matching, coordinator, store, tier,
//! replica group) emits fixed-size structured [`Event`]s into bounded
//! ring buffers — one *lane* per rank plus one per subsystem — stamped
//! with both wall time and the simnet virtual clock. The hot path is
//! **zero-alloc and lock-free**: an emit is one `fetch_add` ticket plus
//! eight stores into a seqlock-style slot, published with a release
//! store, so a rank that panics mid-emit can never leave a lock
//! poisoned, and the dump path (which only *reads* atomics) can always
//! produce a post-mortem.
//!
//! * **An emit touches only its own lane.** A lane keeps its ring, its
//!   per-kind emitted counts and its clock high-water mark on cache lines
//!   of its own; the recorder's totals are summed (and the high-water
//!   mark maxed) over the lanes on read. A matched message writes no
//!   cell another rank's messages write.
//! * **Rings are flight recorders.** When a lane wraps, the oldest
//!   events are overwritten; per-kind emitted counters survive the wrap,
//!   so registry metrics stay exact even when the ring holds only the
//!   recent tail.
//! * **Torn slots are skipped, never trusted.** A slot's sequence word
//!   is `2·ticket+1` while a writer is mid-flight and `2·ticket+2` once
//!   published; readers double-check it around the field reads and drop
//!   anything in between — a writer killed between the two stores costs
//!   one event, not a deadlock or a garbage record.
//! * **Timelines merge on the virtual clock.** [`Telemetry::events`]
//!   collects every lane and sorts by `(virtual time, wall time, lane,
//!   ticket)`; [`Telemetry::dump`] writes the merged timeline as JSON
//!   lines and as a Chrome `trace_event` file (open in
//!   `chrome://tracing` or Perfetto) under a one-shot atomic claim.
//!
//! Emitters that do not carry a rank's virtual clock (the store writer,
//! the tier shipper, the replica group) stamp events with
//! [`Telemetry::observed_now`], the high-water mark of every virtual
//! timestamp the recorder has seen — background work sorts after the
//! rank activity that caused it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sanity::json_string;

/// Number of system lanes appended after the rank lanes:
/// coordinator, store, tier, replica.
pub const SYSTEM_LANES: usize = 4;

/// Default ring capacity of one rank lane (events).
pub const DEFAULT_RANK_RING: usize = 256;

/// Default ring capacity of one system lane (events). System lanes
/// carry the control-plane story (barrier phases, commits, elections),
/// so they keep a deeper tail than the per-rank message lanes.
pub const DEFAULT_SYSTEM_RING: usize = 1024;

// ---------------------------------------------------------------------------
// Event kinds
// ---------------------------------------------------------------------------

/// Number of event kinds (the size of the per-kind counter table).
pub const KIND_COUNT: usize = 25;

/// What happened. Each kind carries up to three `u64` payload fields
/// whose meanings are given by [`EventKind::field_names`].
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A posted receive matched a message (rank lane): `src`, `tag`, `seq`.
    MsgMatch = 0,
    /// A checkpoint cut was scheduled: `cut`, `mode`, `epoch`.
    CkptScheduled = 1,
    /// A rank entered the rendezvous: `rank`, `cut`, `epoch`.
    RendezvousEnter = 2,
    /// A rank resigned (fail-stop): `rank`, `epoch`, `aborted`.
    Resign = 3,
    /// The finish() leader announced a barrier phase: `phase` (0=Arrive,
    /// 1=PreSeal, 2=PostSeal, 3=Release), `epoch`, `cut`.
    BarrierPhase = 4,
    /// A coordinator epoch sealed at the rendezvous: `epoch`, `cut`, `stop`.
    EpochCommit = 5,
    /// A barrier was poisoned (a waiter unwound): `epoch`.
    Poison = 6,
    /// The delta store committed a chain epoch: `epoch`, `full`, `blocks_new`.
    StoreCommit = 7,
    /// Retention GC ran: `deleted`, `kept`, `guarded` (undurable epochs
    /// the tier guard pinned locally).
    GcDecision = 8,
    /// An epoch with an unreadable manifest was renamed aside: `epoch`.
    Quarantine = 9,
    /// The tier shipper started uploading an epoch: `epoch`.
    TierShip = 10,
    /// An epoch's seal landed durably in the tier: `epoch`, `bytes`,
    /// `retries`.
    SealDurable = 11,
    /// The shipper abandoned an epoch (sticky error): `epoch`, `retries`.
    TierFail = 12,
    /// Paxos phase 1 sent to one acceptor: `ballot`, `acceptor`,
    /// `promised` (1 if the acceptor promised).
    Prepare = 13,
    /// Paxos phase 2 durably accepted by one acceptor: `ballot`, `slot`,
    /// `acceptor`.
    Accept = 14,
    /// A record reached quorum at a log slot: `slot`, `ballot`.
    SlotCommit = 15,
    /// A candidate's ballot won a quorum of promises: `ballot`,
    /// `candidate`, `promises`.
    BallotWon = 16,
    /// A leader took over the replica group: `leader`, `ballot`,
    /// `recovery` (1 if it replaced a dead incumbent).
    LeaderElected = 17,
    /// A majority of replicas was unreachable: `need`, `have`.
    QuorumLost = 18,
    /// The fault script killed a replica: `victim`, `phase`.
    FaultKill = 19,
    /// The image sink reported a failure: `epoch`.
    SinkError = 20,
    /// A rank body unwound (panic or error): `rank`.
    RankUnwind = 21,
    /// The lockcheck detector flagged a lock-order hazard: `code`
    /// (0 = ordering cycle, 1 = reentrant acquisition, 2 = guard held
    /// across a rendezvous point), `locks` involved, `fingerprint`
    /// (stable hash of the lock-name set, for dedup across dumps).
    LockCycle = 22,
    /// An injected straggler delay stalled a rank at a safe point (rank
    /// lane): `rank`, `delay_ns`, `step`.
    RankStall = 23,
    /// A fault-schedule kill event struck a rank (rank lane): `victim`,
    /// `step`, `node` (the blamed node-group).
    RankKill = 24,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; KIND_COUNT] = [
        EventKind::MsgMatch,
        EventKind::CkptScheduled,
        EventKind::RendezvousEnter,
        EventKind::Resign,
        EventKind::BarrierPhase,
        EventKind::EpochCommit,
        EventKind::Poison,
        EventKind::StoreCommit,
        EventKind::GcDecision,
        EventKind::Quarantine,
        EventKind::TierShip,
        EventKind::SealDurable,
        EventKind::TierFail,
        EventKind::Prepare,
        EventKind::Accept,
        EventKind::SlotCommit,
        EventKind::BallotWon,
        EventKind::LeaderElected,
        EventKind::QuorumLost,
        EventKind::FaultKill,
        EventKind::SinkError,
        EventKind::RankUnwind,
        EventKind::LockCycle,
        EventKind::RankStall,
        EventKind::RankKill,
    ];

    /// The kind's stable name (used in dumps and metric keys).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::MsgMatch => "MsgMatch",
            EventKind::CkptScheduled => "CkptScheduled",
            EventKind::RendezvousEnter => "RendezvousEnter",
            EventKind::Resign => "Resign",
            EventKind::BarrierPhase => "BarrierPhase",
            EventKind::EpochCommit => "EpochCommit",
            EventKind::Poison => "Poison",
            EventKind::StoreCommit => "StoreCommit",
            EventKind::GcDecision => "GcDecision",
            EventKind::Quarantine => "Quarantine",
            EventKind::TierShip => "TierShip",
            EventKind::SealDurable => "SealDurable",
            EventKind::TierFail => "TierFail",
            EventKind::Prepare => "Prepare",
            EventKind::Accept => "Accept",
            EventKind::SlotCommit => "SlotCommit",
            EventKind::BallotWon => "BallotWon",
            EventKind::LeaderElected => "LeaderElected",
            EventKind::QuorumLost => "QuorumLost",
            EventKind::FaultKill => "FaultKill",
            EventKind::SinkError => "SinkError",
            EventKind::RankUnwind => "RankUnwind",
            EventKind::LockCycle => "LockCycle",
            EventKind::RankStall => "RankStall",
            EventKind::RankKill => "RankKill",
        }
    }

    /// Names of the three payload fields (`"_"` = unused; dumps omit it).
    pub fn field_names(self) -> [&'static str; 3] {
        match self {
            EventKind::MsgMatch => ["src", "tag", "seq"],
            EventKind::CkptScheduled => ["cut", "mode", "epoch"],
            EventKind::RendezvousEnter => ["rank", "cut", "epoch"],
            EventKind::Resign => ["rank", "epoch", "aborted"],
            EventKind::BarrierPhase => ["phase", "epoch", "cut"],
            EventKind::EpochCommit => ["epoch", "cut", "stop"],
            EventKind::Poison => ["epoch", "_", "_"],
            EventKind::StoreCommit => ["epoch", "full", "blocks_new"],
            EventKind::GcDecision => ["deleted", "kept", "guarded"],
            EventKind::Quarantine => ["epoch", "_", "_"],
            EventKind::TierShip => ["epoch", "_", "_"],
            EventKind::SealDurable => ["epoch", "bytes", "retries"],
            EventKind::TierFail => ["epoch", "retries", "_"],
            EventKind::Prepare => ["ballot", "acceptor", "promised"],
            EventKind::Accept => ["ballot", "slot", "acceptor"],
            EventKind::SlotCommit => ["slot", "ballot", "_"],
            EventKind::BallotWon => ["ballot", "candidate", "promises"],
            EventKind::LeaderElected => ["leader", "ballot", "recovery"],
            EventKind::QuorumLost => ["need", "have", "_"],
            EventKind::FaultKill => ["victim", "phase", "_"],
            EventKind::SinkError => ["epoch", "_", "_"],
            EventKind::RankUnwind => ["rank", "_", "_"],
            EventKind::LockCycle => ["code", "locks", "fingerprint"],
            EventKind::RankStall => ["rank", "delay_ns", "step"],
            EventKind::RankKill => ["victim", "step", "node"],
        }
    }

    fn from_u64(v: u64) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }
}

/// One recorded event, as read back out of a lane ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// The lane it was recorded on (rank id, or a system lane).
    pub lane: u32,
    /// The lane-local emit ticket (monotonic per lane).
    pub ticket: u64,
    /// Virtual-clock timestamp in nanoseconds (0 if the emitter had no
    /// clock and nothing had been observed yet).
    pub vclock_ns: u64,
    /// Wall-clock timestamp in nanoseconds since the Unix epoch.
    pub wall_ns: u64,
    /// First payload field (see [`EventKind::field_names`]).
    pub a: u64,
    /// Second payload field.
    pub b: u64,
    /// Third payload field.
    pub c: u64,
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Number of power-of-two histogram buckets: bucket `i` counts values
/// whose bit length is `i` (bucket 0 holds zero; the last bucket
/// saturates).
pub const HISTOGRAM_BUCKETS: usize = 33;

/// A monotonically increasing named counter. Cloning shares the cell;
/// increments are single atomic adds (cache the handle on hot paths).
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram over power-of-two value ranges: bucket `i`
/// counts observations with bit length `i`, so byte sizes and latencies
/// land in log-scaled buckets without configuration.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::SeqCst)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::SeqCst)
    }

    /// Bucket counts (bucket `i` = values of bit length `i`).
    pub fn buckets(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::SeqCst))
            .collect()
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Histogram(Histogram),
}

/// A point-in-time reading of one registry metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Histogram reading.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Per-bucket counts.
        buckets: Vec<u64>,
    },
}

impl MetricValue {
    /// The scalar view: a counter's value, or a histogram's sum.
    pub fn scalar(&self) -> u64 {
        match self {
            MetricValue::Counter(v) => *v,
            MetricValue::Histogram { sum, .. } => *sum,
        }
    }
}

/// The process-wide named metrics registry. Registration takes a short
/// mutex; reads and writes through the returned handles are lock-free.
/// Every lock acquisition is poison-safe: a thread that panicked while
/// registering cannot wedge later registrations or the dump path.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

/// Recover the map even if a panicking thread poisoned the lock: the
/// registry's invariants hold at every await-free step, so the data is
/// always consistent.
fn registry_lock(m: &Mutex<BTreeMap<String, Metric>>) -> MutexGuard<'_, BTreeMap<String, Metric>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or register the counter `name`. A name already registered as
    /// a different metric type yields a fresh detached counter rather
    /// than panicking (the dump shows the originally registered metric).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = registry_lock(&self.inner);
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = registry_lock(&self.inner);
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::default(),
        }
    }

    /// A point-in-time reading of every registered metric, by name.
    pub fn snapshot(&self) -> BTreeMap<String, MetricValue> {
        let map = registry_lock(&self.inner);
        map.iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.buckets(),
                    },
                };
                (name.clone(), value)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The lane rings
// ---------------------------------------------------------------------------

/// One seqlock-style ring slot: `seq` is `2·ticket+1` while a writer is
/// mid-flight and `2·ticket+2` once published; readers validate it on
/// both sides of the field reads.
struct Slot {
    seq: AtomicU64,
    kind: AtomicU64,
    vclock: AtomicU64,
    wall: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            vclock: AtomicU64::new(0),
            wall: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            c: AtomicU64::new(0),
        }
    }
}

/// One bounded event ring (power-of-two capacity) plus the counts of
/// every emit it took. Cache-line aligned, so one lane's emits never
/// write a line another lane's emits write.
#[repr(align(64))]
struct Lane {
    head: AtomicU64,
    /// The highest virtual-clock stamp emitted on this lane.
    observed: AtomicU64,
    /// Events ever emitted on this lane, per kind (survive ring wrap).
    emitted: [AtomicU64; KIND_COUNT],
    slots: Vec<Slot>,
}

impl Lane {
    fn new(capacity: usize) -> Lane {
        let cap = capacity.max(2).next_power_of_two();
        Lane {
            head: AtomicU64::new(0),
            observed: AtomicU64::new(0),
            emitted: std::array::from_fn(|_| AtomicU64::new(0)),
            slots: (0..cap).map(|_| Slot::new()).collect(),
        }
    }

    #[inline]
    fn slot_for(&self, ticket: u64) -> &Slot {
        &self.slots[(ticket as usize) & (self.slots.len() - 1)]
    }

    /// Read every published event still resident in the ring, in ticket
    /// order, skipping torn or overwritten slots.
    fn collect(&self, lane_id: u32, into: &mut Vec<Event>) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        for ticket in start..head {
            let slot = self.slot_for(ticket);
            let published = 2 * ticket + 2;
            // Acquire pairs with the writer's publishing store: the
            // fields it wrote before publishing are visible below.
            if slot.seq.load(Ordering::Acquire) != published {
                continue;
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let vclock = slot.vclock.load(Ordering::Relaxed);
            let wall = slot.wall.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let c = slot.c.load(Ordering::Relaxed);
            // Re-check: a concurrent writer lapping this slot between the
            // reads would have bumped seq; drop the torn read. The fence
            // pairs with the writer's release fence, so a field read that
            // saw a lapping write also sees its odd seq here.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != published {
                continue;
            }
            let Some(kind) = EventKind::from_u64(kind) else {
                continue;
            };
            into.push(Event {
                kind,
                lane: lane_id,
                ticket,
                vclock_ns: vclock,
                wall_ns: wall,
                a,
                b,
                c,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

/// Construction knobs of a [`Telemetry`] recorder.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Ring capacity per rank lane (0 = [`DEFAULT_RANK_RING`]).
    pub rank_ring: usize,
    /// Ring capacity per system lane (0 = [`DEFAULT_SYSTEM_RING`]).
    pub system_ring: usize,
    /// Where [`Telemetry::dump`] writes the crash-dump timeline; `None`
    /// disables dumping (events are still snapshot-able in memory).
    pub dump_dir: Option<PathBuf>,
    /// Echo every emitted event to stderr (the trace-level filter;
    /// default quiet).
    pub echo: bool,
    /// Label this recorder belongs to one tenant of a multi-tenant
    /// cluster; stamped into dump headers and echo lines so interleaved
    /// output from concurrent worlds stays attributable.
    pub tag: Option<String>,
}

/// The flight recorder: per-rank + per-subsystem event lanes (each with
/// per-kind emitted counts that survive ring wrap), the metrics
/// registry, and the one-shot crash-dump path.
pub struct Telemetry {
    nranks: usize,
    lanes: Vec<Lane>,
    registry: MetricsRegistry,
    /// Clock observations that came without an emit
    /// ([`Telemetry::observe_time`]).
    observed: AtomicU64,
    incidents: AtomicU64,
    dumped: AtomicBool,
    dump_dir: Option<PathBuf>,
    echo: AtomicBool,
    tag: Option<String>,
}

impl Telemetry {
    /// A recorder for a world of `nranks` ranks with default ring sizes.
    pub fn new(nranks: usize) -> Telemetry {
        Telemetry::with_config(nranks, TelemetryConfig::default())
    }

    /// A recorder with explicit knobs.
    pub fn with_config(nranks: usize, config: TelemetryConfig) -> Telemetry {
        let rank_cap = if config.rank_ring == 0 {
            DEFAULT_RANK_RING
        } else {
            config.rank_ring
        };
        let sys_cap = if config.system_ring == 0 {
            DEFAULT_SYSTEM_RING
        } else {
            config.system_ring
        };
        let lanes = (0..nranks + SYSTEM_LANES)
            .map(|i| Lane::new(if i < nranks { rank_cap } else { sys_cap }))
            .collect();
        Telemetry {
            nranks,
            lanes,
            registry: MetricsRegistry::new(),
            observed: AtomicU64::new(0),
            incidents: AtomicU64::new(0),
            dumped: AtomicBool::new(false),
            dump_dir: config.dump_dir,
            echo: AtomicBool::new(config.echo),
            tag: config.tag,
        }
    }

    /// A recorder of no world, for a store, tier lane or replica group
    /// that no run has attached yet: its registry is the handle's one
    /// home for counts, and its two-slot system rings keep almost no
    /// events.
    pub fn detached() -> Arc<Telemetry> {
        let config = TelemetryConfig {
            system_ring: 2,
            ..TelemetryConfig::default()
        };
        Arc::new(Telemetry::with_config(0, config))
    }

    /// The tenant tag this recorder was built with, if any.
    pub fn tag(&self) -> Option<&str> {
        self.tag.as_deref()
    }

    /// World size this recorder was built for.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The coordinator system lane.
    pub fn coord_lane(&self) -> u32 {
        self.nranks as u32
    }

    /// The delta-store system lane.
    pub fn store_lane(&self) -> u32 {
        self.nranks as u32 + 1
    }

    /// The tier-shipper system lane.
    pub fn tier_lane(&self) -> u32 {
        self.nranks as u32 + 2
    }

    /// The replica-group system lane.
    pub fn replica_lane(&self) -> u32 {
        self.nranks as u32 + 3
    }

    /// Human name of a lane (used in dumps).
    pub fn lane_name(&self, lane: u32) -> String {
        let n = self.nranks as u32;
        match lane.checked_sub(n) {
            None => format!("rank{lane}"),
            Some(0) => "coord".to_string(),
            Some(1) => "store".to_string(),
            Some(2) => "tier".to_string(),
            Some(3) => "replica".to_string(),
            Some(_) => format!("lane{lane}"),
        }
    }

    /// The process-wide metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Whether event echo is on.
    pub fn echo(&self) -> bool {
        self.echo.load(Ordering::SeqCst)
    }

    /// Fold a virtual-clock observation into the recorder's high-water
    /// mark (emitters without a clock stamp with [`Telemetry::observed_now`]).
    #[inline]
    pub fn observe_time(&self, vclock_ns: u64) {
        self.observed.fetch_max(vclock_ns, Ordering::Relaxed);
    }

    /// The highest virtual-clock timestamp observed so far: the maximum
    /// over every lane's emits and [`Telemetry::observe_time`].
    pub fn observed_now(&self) -> u64 {
        self.lanes
            .iter()
            .map(|lane| lane.observed.load(Ordering::Relaxed))
            .fold(self.observed.load(Ordering::Relaxed), u64::max)
    }

    /// Record an incident (failover, quorum loss, sink failure, rank
    /// unwind). A session that saw any incident dumps its timeline at
    /// the end of the run.
    pub fn note_incident(&self) {
        self.incidents.fetch_add(1, Ordering::SeqCst);
    }

    /// Incidents recorded so far.
    pub fn incidents(&self) -> u64 {
        self.incidents.load(Ordering::SeqCst)
    }

    /// Fold lockcheck findings into the recorder: one [`EventKind::LockCycle`]
    /// event on `lane` per incident (payload: hazard code, lock count,
    /// stable fingerprint), plus an incident note each so the session
    /// dumps its timeline at the end of the run.
    pub fn note_lock_incidents(&self, lane: u32, incidents: &[sanity::lockcheck::LockIncident]) {
        for inc in incidents {
            self.emit_system(
                lane,
                EventKind::LockCycle,
                inc.code(),
                inc.locks(),
                inc.fingerprint(),
            );
            self.note_incident();
        }
    }

    /// Emit one event onto `lane` with an explicit virtual-clock stamp.
    /// Lock-free and alloc-free unless echo is on. Out-of-range lanes
    /// clamp to the last system lane rather than panicking — a telemetry
    /// bug must never take down the workload it observes.
    pub fn emit(&self, lane: u32, kind: EventKind, vclock_ns: u64, a: u64, b: u64, c: u64) {
        let lane_ref = self
            .lanes
            .get(lane as usize)
            .unwrap_or_else(|| &self.lanes[self.lanes.len() - 1]);
        // lint:region-start(no-alloc-in-emit) — the seqlock store sequence:
        // a killed writer must leave at worst a torn slot, never a held
        // allocator lock, so nothing here may allocate.
        lane_ref.observed.fetch_max(vclock_ns, Ordering::Relaxed);
        lane_ref.emitted[kind as usize].fetch_add(1, Ordering::Relaxed);
        let ticket = lane_ref.head.fetch_add(1, Ordering::Relaxed);
        let slot = lane_ref.slot_for(ticket);
        slot.seq.store(2 * ticket + 1, Ordering::Relaxed);
        // Orders the odd seq before the field stores (pairs with the
        // reader's acquire fence).
        fence(Ordering::Release);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.vclock.store(vclock_ns, Ordering::Relaxed);
        slot.wall.store(wall_now_ns(), Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        slot.seq.store(2 * ticket + 2, Ordering::Release);
        // lint:region-end(no-alloc-in-emit)
        if self.echo() {
            match self.tag.as_deref() {
                // lint:allow(no-eprintln) — echo mode mirrors events to stderr on request.
                Some(tag) => eprintln!(
                    "[tel:{tag}] {} vt={}ns {} a={a} b={b} c={c}",
                    self.lane_name(lane),
                    vclock_ns,
                    kind.name(),
                ),
                // lint:allow(no-eprintln) — echo mode mirrors events to stderr on request.
                None => eprintln!(
                    "[tel] {} vt={}ns {} a={a} b={b} c={c}",
                    self.lane_name(lane),
                    vclock_ns,
                    kind.name(),
                ),
            }
        }
    }

    /// Emit onto a rank lane with an explicit virtual-clock stamp.
    #[inline]
    pub fn emit_rank(&self, rank: usize, kind: EventKind, vclock_ns: u64, a: u64, b: u64, c: u64) {
        self.emit(rank as u32, kind, vclock_ns, a, b, c);
    }

    /// Emit onto a system lane stamped with [`Telemetry::observed_now`]
    /// (for emitters that do not carry a rank's virtual clock).
    #[inline]
    pub fn emit_system(&self, lane: u32, kind: EventKind, a: u64, b: u64, c: u64) {
        self.emit(lane, kind, self.observed_now(), a, b, c);
    }

    /// How many events of `kind` were ever emitted (survives ring wrap),
    /// summed over the lanes.
    pub fn emitted(&self, kind: EventKind) -> u64 {
        self.lanes
            .iter()
            .map(|lane| lane.emitted[kind as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Total events ever emitted across all kinds.
    pub fn emitted_total(&self) -> u64 {
        EventKind::ALL.iter().map(|&k| self.emitted(k)).sum()
    }

    /// Per-kind emitted counts, in [`EventKind::ALL`] order.
    pub fn emitted_by_kind(&self) -> Vec<(EventKind, u64)> {
        EventKind::ALL
            .iter()
            .map(|&k| (k, self.emitted(k)))
            .collect()
    }

    /// The merged timeline: every resident event from every lane,
    /// sorted by `(virtual clock, wall clock, lane, ticket)`.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for (i, lane) in self.lanes.iter().enumerate() {
            lane.collect(i as u32, &mut out);
        }
        out.sort_by_key(|e| (e.vclock_ns, e.wall_ns, e.lane, e.ticket));
        out
    }

    /// Start an emit on `lane` and abandon it mid-flight, exactly as a
    /// rank killed between the seqlock stores would. Test hook for the
    /// poison-safety guarantee: the dump path must skip the torn slot.
    #[doc(hidden)]
    pub fn begin_torn_emit(&self, lane: u32) {
        let lane_ref = self
            .lanes
            .get(lane as usize)
            .unwrap_or_else(|| &self.lanes[self.lanes.len() - 1]);
        // lint:region-start(no-alloc-in-emit) — mirrors the real emit path.
        let ticket = lane_ref.head.fetch_add(1, Ordering::Relaxed);
        let slot = lane_ref.slot_for(ticket);
        slot.seq.store(2 * ticket + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.kind
            .store(EventKind::MsgMatch as u64, Ordering::Relaxed);
        // ... and the writer dies here: seq never reaches 2·ticket+2.
        // lint:region-end(no-alloc-in-emit)
    }

    /// Dump the merged timeline to the configured directory, once: the
    /// first caller wins an atomic claim, every later (or concurrent)
    /// call is a no-op. The write path takes no lock an emitting thread
    /// could hold, so a panicking rank mid-emit cannot deadlock it.
    ///
    /// Returns the JSON-lines path on the winning call.
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        let dir = self.dump_dir.clone()?;
        if self.dumped.swap(true, Ordering::SeqCst) {
            return None;
        }
        self.write_dump(&dir, reason).ok()
    }

    /// Whether [`Telemetry::dump`] has already claimed its one shot.
    pub fn dump_claimed(&self) -> bool {
        self.dumped.load(Ordering::SeqCst)
    }

    /// Write the merged timeline under `dir` unconditionally (the
    /// engine behind [`Telemetry::dump`]; tests call it directly).
    /// Produces `flight.jsonl` (one JSON object per event) and
    /// `flight.trace.json` (Chrome `trace_event` format).
    pub fn write_dump(&self, dir: &Path, reason: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let events = self.events();
        let jsonl_path = dir.join("flight.jsonl");
        let trace_path = dir.join("flight.trace.json");

        let mut jsonl = String::new();
        jsonl.push_str(&format!(
            "{{\"type\":\"header\",\"reason\":{},\"tenant\":{},\"nranks\":{},\"events\":{},\"incidents\":{}}}\n",
            json_string(reason),
            json_string(self.tag.as_deref().unwrap_or("")),
            self.nranks,
            events.len(),
            self.incidents(),
        ));
        for e in &events {
            jsonl.push_str(&self.event_json(e));
            jsonl.push('\n');
        }
        jsonl.push_str(&format!(
            "{{\"type\":\"metrics\",\"values\":{}}}\n",
            metrics_json(&self.registry.snapshot())
        ));
        std::fs::write(&jsonl_path, jsonl)?;

        let mut trace = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"reason\":");
        trace.push_str(&json_string(reason));
        trace.push_str("},\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                trace.push(',');
            }
            trace.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{}.{:03},\"pid\":0,\"tid\":{},\"args\":{}}}",
                json_string(e.kind.name()),
                json_string(&self.lane_name(e.lane)),
                e.vclock_ns / 1_000,
                e.vclock_ns % 1_000,
                e.lane,
                args_json(e),
            ));
        }
        trace.push_str("]}");
        std::fs::write(&trace_path, trace)?;
        Ok(jsonl_path)
    }

    /// One event as a JSON-lines object.
    fn event_json(&self, e: &Event) -> String {
        format!(
            "{{\"type\":\"event\",\"kind\":{},\"lane\":{},\"lane_name\":{},\"ticket\":{},\"vt_ns\":{},\"wall_ns\":{},\"args\":{}}}",
            json_string(e.kind.name()),
            e.lane,
            json_string(&self.lane_name(e.lane)),
            e.ticket,
            e.vclock_ns,
            e.wall_ns,
            args_json(e),
        )
    }
}

/// Wall-clock nanoseconds since the Unix epoch (0 if the system clock
/// is before the epoch).
fn wall_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// An event's named payload fields as a JSON object (unused fields
/// omitted).
fn args_json(e: &Event) -> String {
    let names = e.kind.field_names();
    let values = [e.a, e.b, e.c];
    let mut out = String::from("{");
    let mut first = true;
    for (name, value) in names.iter().zip(values) {
        if *name == "_" {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{}:{}", json_string(name), value));
    }
    out.push('}');
    out
}

/// The registry snapshot as a JSON object.
fn metrics_json(snapshot: &BTreeMap<String, MetricValue>) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for (name, value) in snapshot {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&json_string(name));
        out.push(':');
        match value {
            MetricValue::Counter(v) => out.push_str(&v.to_string()),
            MetricValue::Histogram { count, sum, .. } => {
                out.push_str(&format!("{{\"count\":{count},\"sum\":{sum}}}"));
            }
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_and_read_back_round_trip() {
        let tel = Telemetry::new(2);
        tel.emit_rank(0, EventKind::MsgMatch, 100, 1, 7, 0);
        tel.emit_system(tel.coord_lane(), EventKind::EpochCommit, 3, 40, 0);
        let events = tel.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::MsgMatch);
        assert_eq!(events[0].vclock_ns, 100);
        // The system emit stamped with the observed high-water mark.
        assert_eq!(events[1].kind, EventKind::EpochCommit);
        assert_eq!(events[1].vclock_ns, 100);
        assert_eq!(tel.emitted(EventKind::MsgMatch), 1);
        assert_eq!(tel.emitted_total(), 2);
    }

    #[test]
    fn ring_wrap_keeps_the_tail_and_the_counters() {
        let tel = Telemetry::with_config(
            1,
            TelemetryConfig {
                rank_ring: 8,
                ..TelemetryConfig::default()
            },
        );
        for i in 0..100u64 {
            tel.emit_rank(0, EventKind::MsgMatch, i, i, 0, 0);
        }
        let events = tel.events();
        // Only the last 8 survive in the ring ...
        assert_eq!(events.len(), 8);
        let tickets: Vec<u64> = events.iter().map(|e| e.ticket).collect();
        assert_eq!(tickets, (92..100).collect::<Vec<_>>());
        assert_eq!(events.last().unwrap().a, 99);
        // ... but the per-kind counter saw all 100.
        assert_eq!(tel.emitted(EventKind::MsgMatch), 100);
    }

    #[test]
    fn merged_timeline_is_vclock_sorted() {
        let tel = Telemetry::new(3);
        tel.emit_rank(2, EventKind::MsgMatch, 300, 0, 0, 0);
        tel.emit_rank(0, EventKind::MsgMatch, 100, 0, 0, 0);
        tel.emit_rank(1, EventKind::MsgMatch, 200, 0, 0, 0);
        let events = tel.events();
        let clocks: Vec<u64> = events.iter().map(|e| e.vclock_ns).collect();
        assert_eq!(clocks, vec![100, 200, 300]);
    }

    #[test]
    fn torn_emit_is_skipped_not_trusted() {
        let tel = Telemetry::new(1);
        tel.emit_rank(0, EventKind::MsgMatch, 1, 0, 0, 0);
        tel.begin_torn_emit(0);
        tel.emit_rank(0, EventKind::MsgMatch, 2, 0, 0, 0);
        let events = tel.events();
        assert_eq!(events.len(), 2, "torn slot must be dropped");
        assert!(events.iter().all(|e| e.vclock_ns > 0));
    }

    #[test]
    fn registry_counters_and_histograms() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.count");
        c.incr();
        c.add(4);
        // Re-registration returns the same cell.
        assert_eq!(reg.counter("a.count").get(), 5);
        let h = reg.histogram("c.hist");
        h.observe(0);
        h.observe(1);
        h.observe(1000);
        let snap = reg.snapshot();
        assert_eq!(snap["a.count"], MetricValue::Counter(5));
        match &snap["c.hist"] {
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                assert_eq!(*count, 3);
                assert_eq!(*sum, 1001);
                assert_eq!(buckets[0], 1); // zero
                assert_eq!(buckets[1], 1); // one
                assert_eq!(buckets[10], 1); // 1000 has bit length 10
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn dump_writes_jsonl_and_trace_once() {
        let dir = std::env::temp_dir().join(format!(
            "stool_tel_dump_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let tel = Telemetry::with_config(
            1,
            TelemetryConfig {
                dump_dir: Some(dir.clone()),
                ..TelemetryConfig::default()
            },
        );
        tel.emit_rank(0, EventKind::MsgMatch, 5, 1, 2, 3);
        tel.begin_torn_emit(0); // must not break the dump
        let path = tel.dump("test \"quoted\" reason").expect("first dump wins");
        assert!(path.exists());
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"kind\":\"MsgMatch\""));
        assert!(body.contains("test \\\"quoted\\\" reason"));
        let trace = std::fs::read_to_string(dir.join("flight.trace.json")).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"name\":\"MsgMatch\""));
        // Second dump is a no-op under the atomic claim.
        assert!(tel.dump("again").is_none());
        assert!(tel.dump_claimed());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lane_names_and_system_lanes() {
        let tel = Telemetry::new(4);
        assert_eq!(tel.lane_name(0), "rank0");
        assert_eq!(tel.lane_name(tel.coord_lane()), "coord");
        assert_eq!(tel.lane_name(tel.store_lane()), "store");
        assert_eq!(tel.lane_name(tel.tier_lane()), "tier");
        assert_eq!(tel.lane_name(tel.replica_lane()), "replica");
    }
}
