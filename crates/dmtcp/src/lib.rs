//! # dmtcp-sim — a DMTCP-like transparent checkpointing platform
//!
//! DMTCP (Distributed MultiThreaded CheckPointing) is the platform MANA is
//! built on: a coordinator process orchestrates checkpoints across ranks,
//! each process's state is serialized into an image file, and *process
//! virtualization* lets the restarted process rebuild kernel resources from
//! virtual references.
//!
//! This crate reproduces the platform layer, MPI-agnostically:
//!
//! * [`codec`] — a self-describing, checksummed binary format for images
//!   (hand-rolled: the offline crate set has no serde format crate, and a
//!   checkpointing system wants explicit control of its wire format anyway);
//! * [`memory`] — [`memory::Memory`]: the "upper-half memory" abstraction,
//!   named typed segments that stand in for the application's writable
//!   address space (see DESIGN.md §1 for why Rust needs this cooperative
//!   substitute for raw page capture);
//! * [`image`] — per-rank checkpoint images ([`image::RankImage`]) grouped
//!   into a world image ([`image::WorldImage`]); the [`store`] is their
//!   only on-disk format;
//! * [`coordinator`] — the checkpoint coordinator: epoch-based requests,
//!   phase barriers, counter exchange used by the MANA drain protocol, and
//!   image collection;
//! * [`store`] — the asynchronous delta-checkpoint store: epoch chains of
//!   content-hashed blocks with per-block CRC32, atomic commits and
//!   retention GC;
//! * [`lanes`] — the lane multiplexer under the store's background
//!   committer and the tier's shipper: one thread, N fair-share lanes;
//! * [`replica`] — coordinator replication: a [`replica::ReplicaGroup`]
//!   quorum-commits every epoch record (single-decree Paxos per log slot)
//!   to `ObjectTier`-backed logs before the coordinator releases the final
//!   barrier, with timeout-driven leader failover so a dead coordinator
//!   leader poisons nothing;
//! * [`testing`] — the lockstep loop that multi-round coordinator
//!   harnesses advance their rank agents through, and
//!   [`testing::ScriptedVol`], the one fault-injecting volume.
//!
//! In the DMTCP analogy, the [`store`] plays the role of the checkpoint
//! *image sink* behind the coordinator: where stock DMTCP has every
//! process write its whole `ckpt_*.dmtcp` file synchronously at the
//! checkpoint barrier (and forked-checkpointing/incremental-page plugins
//! exist precisely because that write dominates checkpoint cost), here the
//! coordinator's final barrier hands the complete epoch to a background
//! writer pool and the ranks resume immediately. Only content-new blocks
//! reach the disk, so steady-state epochs cost proportional to *change*,
//! not to image size — and because the chain stores vendor-neutral
//! [`image::RankImage`]s, a chain written under one MPI library restarts
//! under another exactly like a plain image does.
//!
//! The MPI-specific parts (split process, virtual ids, drain) live in
//! `mana-sim`, which plugs into this platform exactly as MANA plugs into
//! DMTCP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod coordinator;
pub mod image;
pub mod lanes;
pub mod memory;
pub mod replica;
pub mod store;
pub mod testing;
pub mod tier;

pub use codec::{CodecError, Reader, Writer};
pub use coordinator::{
    BarrierTopology, CkptError, CkptMode, CkptSession, Coordinator, ImageSink, Poll, RankAgent,
};
pub use image::{RankImage, WorldImage};
pub use memory::Memory;
pub use replica::{
    BarrierPhase, Clock, ReplicaConfig, ReplicaError, ReplicaFault, ReplicaGroup, ReplicaRecord,
    ReplicaStats, SystemClock,
};
pub use store::{
    Compression, DeltaStore, EpochStats, SharedStoreWriter, StoreConfig, StoreError, TenantSink,
    QUEUE_DEPTH,
};
pub use tier::{
    tenant_namespace, FsTier, MemTier, ObjectTier, SharedTier, TierConfig, TierError, TierStats,
};
