//! # simnet — deterministic virtual-time cluster substrate
//!
//! The paper's experiments ran on a real 4-node cluster (48 Intel Xeon cores,
//! 10 GbE, CentOS 7 / Linux 3.10). This crate replaces that hardware with a
//! faithful synthetic equivalent:
//!
//! * **Ranks are real OS threads** exchanging **real byte buffers** over
//!   lock-free channels — correctness is exercised, not just timing.
//! * **Time is virtual.** Every rank carries a logical clock (nanoseconds)
//!   advanced by a LogGP-style cost model: per-link latency `α`, inverse
//!   bandwidth `β`, and per-message CPU overheads `o_send`/`o_recv`.
//!   Latency figures reported by the benchmark harnesses are virtual time, so
//!   they are deterministic (bit-identical across runs when jitter is off)
//!   and independent of the host machine.
//! * **Topology matters.** Ranks are block-mapped onto nodes; intra-node
//!   messages use a shared-memory link model, inter-node messages use the
//!   configured interconnect (default: 10 GbE, as in the paper).
//! * **The kernel matters.** [`KernelVersion`] models the one OS feature the
//!   paper calls out: user-space access to the FSGSBASE register (Linux
//!   ≥ 5.9). On older kernels a split-process context switch needs a syscall,
//!   which is the paper's stated cause of MANA's small-message overhead.
//!
//! The substrate itself is MPI-agnostic: it moves [`Envelope`]s between
//! endpoints in FIFO order per sender/receiver pair and accounts time.
//! MPI semantics sit on top of it once, in [`mpi`]: one engine (matching
//! over [`matching`], point-to-point, requests, communicators, datatypes,
//! reduction kernels) generic over a vendor's native header. The vendor
//! libraries (`mpich-sim`, `ompi-sim`) supply that header, their object
//! representation, tuning, arrival cost model and collective algorithms —
//! mirroring how real MPI libraries differ in ABI and tuning but agree on
//! semantics.
//!
//! ## Transport architecture: event-driven mailboxes + indexed matching
//!
//! The transport is designed so the *translation and checkpoint layers*
//! being measured on top of it — not the harness — dominate observed cost:
//!
//! * **Zero-poll striped fabric** ([`fabric`]). Each rank owns a
//!   mailbox split into lock **stripes** keyed by source rank, so
//!   concurrent senders to one destination contend per stripe, not on one
//!   lock; a per-destination arrival stamp merges the stripes back into
//!   global arrival order. Senders push under their stripe's lock and
//!   wake a registered receiver; blocked receivers sleep on the mailbox
//!   condvar. [`Fabric::shutdown`], the one broadcast wake, flips an
//!   atomic flag, briefly acquires each mailbox gate, and `notify_all`s,
//!   so shutdown latency is one condvar wakeup — there is no polling
//!   interval, and a failed world unwinds instantly. A failure ends the
//!   job (the paper's non-fault-tolerant MPI): there is no failed-rank
//!   state for a send or a receive to check.
//! * **Indexed matching** ([`matching`]). Unexpected messages are
//!   bucketed per exact `(ctx_id, src, tag)` triple (FIFO per bucket) and
//!   stamped with a global arrival sequence at ingest. Fully-specified
//!   receives are O(1) hash probes; `ANY_SOURCE`/`ANY_TAG` receives
//!   compare candidate bucket *fronts* by sequence, preserving
//!   non-overtaking and cross-sender arrival order without a linear scan
//!   of the queue.
//! * **Small-message fast path**. Payloads ≤ 64 B are stored inline in
//!   the `Bytes` handle itself (see the workspace `bytes` shim): no heap
//!   allocation at send time, no refcount traffic on clone. Progress
//!   calls batch-drain every queued envelope under one lock acquisition
//!   ([`Endpoint::drain_raw_into`]) instead of locking per message.
//!
//! ## Example
//!
//! ```
//! use simnet::{ClusterSpec, World};
//!
//! let spec = ClusterSpec::builder().nodes(2).ranks_per_node(2).build();
//! let outcome = World::run(&spec, |ctx| {
//!     // A trivial ring: rank r sends its rank id to (r+1) % n.
//!     let n = ctx.nranks();
//!     let next = (ctx.rank() + 1) % n;
//!     let prev = (ctx.rank() + n - 1) % n;
//!     ctx.endpoint().send_raw(next, 0, 7, bytes::Bytes::from(vec![ctx.rank() as u8]), &ctx);
//!     let env = ctx.endpoint().recv_raw().unwrap();
//!     assert_eq!(env.src, prev);
//!     // The receive itself is free; the clock moves to the arrival.
//!     ctx.advance_to(ctx.arrival_time(&env));
//!     Ok(ctx.now())
//! })
//! .unwrap();
//! assert_eq!(outcome.results.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod envelope;
pub mod error;
pub mod fabric;
pub mod link;
pub mod matching;
pub mod mpi;
pub mod noise;
pub mod pool;
pub mod rank;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod world;

pub use cluster::{ClusterSpec, ClusterSpecBuilder, Interconnect, KernelVersion};
pub use envelope::Envelope;
pub use error::{SimError, SimResult};
pub use fabric::{Endpoint, Fabric};
pub use link::{LinkClass, LinkModel};
pub use matching::{ArrivalModel, MatchCore, MatchedMsg, SrcPattern, TagPattern, WireArrival};
pub use noise::NoiseModel;
pub use pool::{PoolGuard, WorkerPool};
pub use rank::RankCtx;
pub use stats::{mean, median, stddev, Summary};
pub use telemetry::{
    Counter, Event, EventKind, Histogram, MetricValue, MetricsRegistry, Telemetry, TelemetryConfig,
};
pub use time::VirtualTime;
pub use world::{RunPlan, World, WorldOutcome};
