//! Unified observability for sessions.
//!
//! The flight recorder itself lives in [`simnet::telemetry`] (the layer
//! that owns the virtual clock); this module re-exports it and adds the
//! session-level [`TelemetrySnapshot`], which unifies the recorder's
//! event/metric state with the per-subsystem statistics the run
//! produced — the delta store's [`EpochStats`], the remote tier's
//! [`TierStats`] and the replicated coordinator's [`ReplicaStats`] —
//! behind one [`crate::Session::telemetry`] call. Each fact is counted
//! once, into the run's registry: the tier and replica stats are views
//! of its `tier.*` and `replica.*` entries, built when the snapshot is
//! taken, and the epoch stats are the store's commit log.
//!
//! See `docs/observability.md` for the event taxonomy, the crash-dump
//! timeline formats and how to open them.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dmtcp_sim::{EpochStats, ReplicaStats, TierStats};

pub use simnet::telemetry::{
    Counter, Event, EventKind, Histogram, MetricValue, MetricsRegistry, Telemetry, TelemetryConfig,
};

/// Everything one run recorded, in one place: the flight recorder
/// (events + metrics registry) plus the statistics of every attached
/// subsystem. Returned by [`crate::Session::telemetry`] after a launch
/// or a restore; cheap to clone (the recorder is shared).
#[derive(Clone)]
pub struct TelemetrySnapshot {
    /// The run's flight recorder: merged event timeline, metrics
    /// registry, per-kind emitted counters, incident count.
    pub recorder: Arc<Telemetry>,
    /// Per-epoch delta-store commit statistics, in commit order (empty
    /// when the session attached no store).
    pub epochs: Vec<EpochStats>,
    /// Remote-tier shipping statistics, read from the recorder's
    /// `tier.*` entries (`None` when the session attached no tier).
    pub tier: Option<TierStats>,
    /// Replica-group statistics, read from the recorder's `replica.*`
    /// counters (`None` when the session attached no replicated
    /// coordinator).
    pub replica: Option<ReplicaStats>,
    /// Where the end-of-run crash-dump timeline was written, if the run
    /// recorded incidents (or failed) and a dump directory was
    /// configured. Points at the `flight.jsonl` file; the Chrome
    /// `flight.trace.json` sits next to it.
    pub dump: Option<PathBuf>,
}

impl TelemetrySnapshot {
    /// The merged event timeline, ordered by virtual clock (then wall
    /// clock, lane, ticket).
    pub fn events(&self) -> Vec<Event> {
        self.recorder.events()
    }

    /// A point-in-time copy of every registered metric.
    pub fn metrics(&self) -> BTreeMap<String, MetricValue> {
        self.recorder.metrics().snapshot()
    }

    /// How many events of `kind` the run emitted — counted at emit time,
    /// so the number survives ring wrap.
    pub fn emitted(&self, kind: EventKind) -> u64 {
        self.recorder.emitted(kind)
    }

    /// Total events emitted across all kinds.
    pub fn emitted_total(&self) -> u64 {
        self.recorder.emitted_total()
    }

    /// Per-kind emit counts, in kind order, zero entries omitted.
    pub fn emitted_by_kind(&self) -> Vec<(EventKind, u64)> {
        self.recorder.emitted_by_kind()
    }

    /// How many incidents (recovery elections, quorum losses, sink
    /// errors, failed tier ships, rank unwinds) the run recorded.
    pub fn incidents(&self) -> u64 {
        self.recorder.incidents()
    }

    /// Write the merged timeline under `dir` regardless of the one-shot
    /// end-of-run dump (post-mortem export of a healthy run). Returns
    /// the `flight.jsonl` path.
    pub fn write_dump(&self, dir: &Path, reason: &str) -> std::io::Result<PathBuf> {
        self.recorder.write_dump(dir, reason)
    }
}

impl fmt::Debug for TelemetrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetrySnapshot")
            .field("events", &self.recorder.emitted_total())
            .field("incidents", &self.recorder.incidents())
            .field("epochs", &self.epochs.len())
            .field("tier", &self.tier)
            .field("replica", &self.replica)
            .field("dump", &self.dump)
            .finish()
    }
}
