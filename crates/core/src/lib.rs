//! # stool — the three-legged stool
//!
//! The paper's contribution is a *paradigm*: with a standard MPI ABI, three
//! concerns become independently replaceable —
//!
//! 1. **the application binary** (compiled once against the standard ABI),
//! 2. **the MPI library** (chosen at launch; made ABI-compliant by the
//!    Mukautuva-like shim), and
//! 3. **the transparent checkpointing package** (MANA, itself talking only
//!    to the standard ABI).
//!
//! This crate is that paradigm as an API. A [`Session`] binds the three
//! legs together at *run time*:
//!
//! ```
//! use stool::{Session, Vendor, Checkpointer};
//! use stool::programs::RingPings;
//! use simnet::ClusterSpec;
//!
//! let program = RingPings { rounds: 4, payload: 64 };
//! // Compiled once; now pick the legs independently:
//! let session = Session::builder()
//!     .cluster(ClusterSpec::builder().nodes(2).ranks_per_node(2).build())
//!     .vendor(Vendor::OpenMpi)          // leg 2: the MPI library
//!     .checkpointer(Checkpointer::mana()) // leg 3: the checkpointer
//!     .build()
//!     .unwrap();
//! let outcome = session.launch(&program).unwrap();
//! assert!(outcome.is_completed());
//! ```
//!
//! The headline capability (paper §5.3 / Fig. 6): [`Session::launch`] a
//! program under one vendor with a checkpoint policy, get back a
//! [`RunOutcome::Checkpointed`] [`Checkpoint`], then [`Session::restore`]
//! its image (or [`Session::restore_from_store`] its chain epoch) under
//! the *other* vendor and run to completion.
//!
//! Applications implement [`MpiProgram`] against [`AppCtx`], which exposes
//! the standard ABI (plus typed convenience helpers in [`mpix`]), the
//! checkpointable [`dmtcp_sim::Memory`], and the virtual-time clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod error;
pub mod mpix;
pub mod program;
pub mod programs;
pub mod scenario;
pub mod session;
pub mod stack;
pub mod telemetry;

pub use cluster::{Cluster, ClusterBuilder, ClusterReport, TenantReport};
pub use dmtcp_sim::memory::Memory;
pub use dmtcp_sim::testing::Fault;
pub use dmtcp_sim::{
    tenant_namespace, FsTier, MemTier, ObjectTier, SharedTier, TierConfig, TierError, TierStats,
};
pub use dmtcp_sim::{
    BarrierPhase, ReplicaConfig, ReplicaError, ReplicaFault, ReplicaGroup, ReplicaRecord,
    ReplicaStats,
};
pub use dmtcp_sim::{CkptMode, WorldImage};
pub use dmtcp_sim::{
    Compression, DeltaStore, EpochStats, SharedStoreWriter, StoreConfig, StoreError, TenantSink,
};
pub use error::{StoolError, StoolResult};
pub use mana_sim::ManaConfig;
pub use muk::Vendor;
pub use program::{AppCtx, Flow, MpiProgram};
pub use scenario::{
    matrix_json, run_scenario, App, DurabilityKind, FaultSchedule, KillEvent, ScenarioResult,
    ScenarioSpec, Straggler, Victims,
};
pub use session::{
    Checkpoint, Checkpointer, CkptPolicy, DurabilityPolicy, ReplicaPolicy, RunOutcome, Session,
    SessionBuilder, StorePolicy, TierPolicy,
};
pub use telemetry::{
    Event, EventKind, MetricValue, MetricsRegistry, Telemetry, TelemetryConfig, TelemetrySnapshot,
};
