//! The asynchronous delta-checkpoint store: epoch chains of content-hashed
//! blocks.
//!
//! This module is the only code that writes a checkpoint, and the chain
//! it writes is the only on-disk image format. It writes through one
//! seam, [`crate::tier::ObjectTier`]: the chain directory is an
//! [`crate::tier::FsTier`] volume, and [`crate::tier`] ships the chain's
//! objects as they are (the `one-persistence-path` lint keeps `std::fs`
//! inside `tier.rs`). A world image
//! ([`crate::image::WorldImage`]) enters at the coordinator's final
//! rendezvous and comes back through [`DeltaStore::load_latest`]. Two
//! properties keep checkpoint latency off the ranks' critical path and
//! proportional to what changed, not to the total image size:
//!
//! * **Asynchrony** — one lane of a [`SharedStoreWriter`] is attached to
//!   the coordinator as an [`crate::coordinator::ImageSink`]
//!   ([`TenantSink`]). At the final rendezvous barrier the round leader
//!   hands the complete set of [`RankImage`]s to the lane's bounded
//!   queue (the double buffer, [`QUEUE_DEPTH`]) and every rank resumes
//!   computing; a background thread performs the chunking, hashing and
//!   I/O.
//! * **Deltas** — each section of each rank image is chunked into blocks
//!   with *content-defined* boundaries (Gear rolling hash, FastCDC-style
//!   min/max bounds), identified by a 128-bit content hash. An epoch
//!   writes only the blocks that are not already present in the current
//!   chain; unchanged blocks are *references* to the epoch that first
//!   wrote them. Content-defined boundaries make dedup robust to
//!   insertions: when a rank's arrays grow or shrink between epochs (atom
//!   migration, appended diagnostics), only the blocks near the edit
//!   change, not every block downstream of the shift.
//!
//! # On-disk chain format
//!
//! ```text
//! store_dir/
//!   epoch_000001/            # a FULL epoch (chain base)
//!     blocks.bin             #   concatenated new blocks, referenced by offset
//!     manifest.bin           #   checksummed manifest (see below)
//!   epoch_000002/            # a DELTA epoch
//!     blocks.bin             #   only the blocks that changed
//!     manifest.bin
//!   epoch_000003.bad/        # a quarantined head (kept for forensics)
//!   .inflight/               # the volume's staging files (never read)
//! ```
//!
//! The manifest lists, for every rank and section, the ordered block
//! references `(content key, source epoch, offset, stored length, raw
//! length, CRC32, codec)` that reconstruct the section. The content key
//! is the block's 128-bit [`crate::codec::content_key`] (two word-at-a-time
//! lanes). The tree reads and writes one manifest version, **v3**; a
//! retired v1 or v2 manifest fails to decode, and `open` quarantines such
//! a head like any other undecodable one. A manifest is self-contained: restart loads exactly one manifest and then walks the
//! chain only to fetch block bytes from the `blocks.bin` files it
//! references. Every block is CRC32-checked on read, so corruption is
//! reported as the exact `(epoch, offset)` that rotted — never silently
//! loaded. Commits are crash-safe: the volume's puts are atomic and
//! durable on return, and a commit puts `blocks.bin` first and the
//! `manifest.bin` that publishes it last, so a torn write can never be
//! half-parsed and an epoch without a manifest is uncommitted (open
//! deletes it; an `epoch_NNNNNN.tmp` left by an older build goes the
//! same way). An epoch whose manifest *did* rot on disk is quarantined
//! at open (moved to `epoch_NNNNNN.bad`) and the store falls back to the
//! newest readable epoch, so one broken head never makes the whole chain
//! unrestorable. docs/store.md, "Crash consistency", argues each path.
//!
//! # Block compression and dirty-segment tracking
//!
//! The manifest carries two cost reducers, both per-block/per-section
//! and both off the ranks' critical path:
//!
//! * **Compression** ([`Compression::Lz4`], the default): each newly
//!   written block is stored under the codec that wins for its bytes —
//!   raw, LZ4, or byte-shuffled LZ4 (the classic 8-stride shuffle filter,
//!   which groups the slowly-varying high bytes of `f64` lattice data
//!   into long runs LZ4 can fold). The codec byte travels in the block
//!   reference.
//! * **Dirty-segment tracking** ([`StoreConfig::dirty_tracking`]): image
//!   sections may carry a producer generation stamp
//!   ([`crate::image::RankImage::put_section_hinted`], fed by
//!   [`crate::memory::Memory::generation`]). A section whose stamp has
//!   not moved since the previous commit of this handle is re-referenced
//!   wholesale — no chunking, no hashing, not a single byte read — which
//!   turns the per-epoch hash cost from O(image) into O(changed state).
//!   The hint is advice, not trust-the-caller: it is only honored for
//!   the section (same rank, same name, same length) cached from the
//!   immediately preceding commit of this handle, never across reopen.
//!   It is honored across a full base: the base takes the clean
//!   section's chunk list from the cached refs instead of re-chunking
//!   it, and still writes every block it references into its own
//!   `blocks.bin`.
//!
//! A rebase writes those blocks for less where it can: a block an epoch
//! this handle committed already stores is copied from that epoch's
//! `blocks.bin` (stored bytes, codec and CRC, once the copy passes its
//! CRC) instead of encoded again, since encoding is a pure function of
//! the block's bytes and the handle's compression.
//!
//! # Retention and GC
//!
//! After [`StoreConfig::max_chain`] consecutive deltas the next epoch is
//! written as a fresh **full base**, bounding how long any restart chain
//! can grow. After each commit, epochs beyond the newest
//! [`StoreConfig::retain_epochs`] restorable epochs are deleted — except
//! those still referenced by a retained manifest (a delta keeps its base
//! alive), so every retained epoch stays restorable. The handle remembers
//! which epochs each manifest it committed references, so GC decodes a
//! manifest only for an epoch it has not seen commit.
//!
//! # Cross-vendor restart
//!
//! The chain stores vendor-neutral [`RankImage`]s, so the paper's headline
//! scenario holds end to end: checkpoint epochs under the MPICH engine,
//! kill the world, reopen the chain and restart the reconstructed
//! [`WorldImage`] under the Open MPI engine through the Mukautuva shim.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::codec::CodecError;
use crate::tier::TierError;

mod block;
mod chunk;
mod delta;
mod hydrate;
mod manifest;
mod writer;

pub use delta::DeltaStore;
pub(crate) use delta::{epoch_key, BLOCKS, MANIFEST};
pub use writer::{SharedStoreWriter, TenantSink, QUEUE_DEPTH};

/// Per-block compression applied to newly written blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Store raw block bytes.
    None,
    /// Per block, keep the smallest of: raw, LZ4, byte-shuffled LZ4
    /// (the shuffle transposes the block's 8-aligned prefix — the `f64`
    /// shape — and passes the tail through; both candidates are tried
    /// for every block ≥ 64 bytes, each stopped once it cannot win, on
    /// the background writer's thread).
    /// The choice is recorded in the block reference, so mixed chains
    /// decode.
    #[default]
    Lz4,
}

/// Tunables of the delta store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Target mean block size for content-defined chunking (bytes);
    /// actual blocks stay within `[block_size/4, 4*block_size]`. Smaller
    /// blocks find more unchanged data; larger blocks mean less manifest
    /// overhead.
    pub block_size: usize,
    /// Keep this many of the newest restorable epochs; older epochs are
    /// garbage-collected unless a retained manifest still references them.
    pub retain_epochs: usize,
    /// Maximum consecutive delta epochs before a fresh full base is
    /// written (bounds restart chain length).
    pub max_chain: usize,
    /// Threads used to chunk and hash rank images in parallel during a
    /// commit.
    pub writer_threads: usize,
    /// Per-block compression of newly written blocks.
    pub compression: Compression,
    /// Honor clean-segment generation hints: a hinted section whose
    /// stamp did not move since the previous commit is re-referenced
    /// without being chunked or hashed.
    pub dirty_tracking: bool,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            block_size: 4096,
            retain_epochs: 4,
            max_chain: 8,
            writer_threads: 2,
            compression: Compression::default(),
            dirty_tracking: true,
        }
    }
}

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An operation on the chain's own volume failed.
    Io {
        /// The operation ("put", "get", "list", "delete", ...).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The OS error, stringified (keeps the error cloneable).
        msg: String,
    },
    /// An epoch manifest failed to decode (truncated or corrupted).
    Manifest {
        /// The epoch whose manifest broke.
        epoch: u64,
        /// The codec-level cause.
        source: CodecError,
    },
    /// A block's CRC32 did not match its manifest entry.
    BlockCorrupt {
        /// The epoch being loaded.
        epoch: u64,
        /// The epoch whose `blocks.bin` holds the rotten block.
        src_epoch: u64,
        /// Byte offset of the block within that file.
        offset: u64,
        /// The rank whose section was being reconstructed.
        rank: usize,
        /// The section name.
        section: String,
    },
    /// A referenced epoch's object does not exist (GC'd or never written).
    MissingEpoch {
        /// The epoch that is gone.
        epoch: u64,
    },
    /// A submitted world image is malformed (mixed epochs, sparse ranks).
    InconsistentImage(String),
    /// The store holds no epochs.
    Empty,
    /// The background writer was shut down.
    Closed,
    /// A remote-tier operation failed (upload, listing, or a fetched
    /// object that failed its seal verification). A failure of the
    /// chain's own volume is [`StoreError::Io`].
    Tier(TierError),
    /// A tier operation was requested but no tier is attached.
    NoTier,
    /// The store directory is claimed by a different tenant: two tenants
    /// (or a tenant and an untagged session) pointed at one chain
    /// directory, which would silently interleave their epochs.
    TenantMismatch {
        /// The chain directory in dispute.
        dir: PathBuf,
        /// The tenant that tried to open the store (empty = untagged).
        expected: String,
        /// The tenant recorded in the directory's `TENANT` marker.
        found: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, msg } => write!(f, "{op} {}: {msg}", path.display()),
            StoreError::Manifest { epoch, source } => {
                write!(f, "epoch {epoch} manifest: {source}")
            }
            StoreError::BlockCorrupt {
                epoch,
                src_epoch,
                offset,
                rank,
                section,
            } => write!(
                f,
                "epoch {epoch}, rank {rank}, section {section}: block at \
                 epoch {src_epoch} offset {offset} failed its CRC32 check"
            ),
            StoreError::MissingEpoch { epoch } => {
                write!(f, "referenced epoch {epoch} is missing from the chain")
            }
            StoreError::InconsistentImage(m) => write!(f, "inconsistent world image: {m}"),
            StoreError::Empty => write!(f, "checkpoint store holds no epochs"),
            StoreError::Closed => write!(f, "checkpoint store writer is shut down"),
            StoreError::Tier(e) => write!(f, "remote tier: {e}"),
            StoreError::NoTier => write!(f, "no remote tier attached to the store"),
            StoreError::TenantMismatch {
                dir,
                expected,
                found,
            } => write!(
                f,
                "store {} is claimed by tenant {found:?}, not {expected:?}: \
                 distinct tenants must not share a chain directory",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Manifest { source, .. } => Some(source),
            StoreError::Tier(source) => Some(source),
            _ => None,
        }
    }
}

impl From<TierError> for StoreError {
    fn from(e: TierError) -> StoreError {
        StoreError::Tier(e)
    }
}

impl StoreError {
    /// A failure of a chain's volume rooted at `root`, as the store
    /// reports it: [`StoreError::Io`] on the object's path.
    pub fn volume(root: &Path, e: TierError) -> StoreError {
        match e {
            TierError::Io { op, key, msg } => StoreError::Io {
                op,
                path: root.join(key),
                msg,
            },
            other => StoreError::Io {
                op: "volume",
                path: root.to_path_buf(),
                msg: other.to_string(),
            },
        }
    }
}

/// What one committed epoch cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStats {
    /// The chain sequence number assigned to the commit.
    pub epoch: u64,
    /// Whether it was written as a full base (vs a delta).
    pub full: bool,
    /// Logical image payload (what a full-image write would cost).
    pub image_bytes: u64,
    /// Bytes actually written to disk (new blocks, post-compression, +
    /// manifest).
    pub bytes_written: u64,
    /// Bytes of section payload the commit chunked and hashed. With
    /// dirty tracking, clean hinted sections are re-referenced without
    /// being read, so this falls below `image_bytes`.
    pub bytes_hashed: u64,
    /// Uncompressed size of the newly written blocks — what the epoch
    /// would have put on disk (excluding the manifest) without
    /// compression.
    pub new_block_raw_bytes: u64,
    /// Blocks referenced by the epoch in total.
    pub blocks_total: u64,
    /// Blocks newly written by the epoch.
    pub blocks_new: u64,
}

#[cfg(test)]
mod testutil {
    use std::path::PathBuf;

    use super::StoreConfig;
    use crate::image::{RankImage, WorldImage};

    pub(super) fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "stool_store_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Deterministic pseudorandom bytes (xorshift64*): realistic content
    /// that does not collapse under intra-epoch dedup the way constant
    /// runs would.
    pub(super) fn fill_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    pub(super) fn image(epoch: u64, nranks: usize, fill: u8, static_len: usize) -> WorldImage {
        let ranks = (0..nranks)
            .map(|r| {
                let mut img = RankImage::new(r, nranks, epoch);
                // "static" depends only on the rank: unchanged across
                // epochs. "hot" depends on `fill`: changes when it does.
                img.put_section("static", fill_bytes(r as u64 + 1, static_len));
                img.put_section("hot", fill_bytes((fill as u64) << 8 | r as u64, 600));
                img
            })
            .collect();
        WorldImage::new("MPICH".to_string(), ranks)
    }

    pub(super) fn small_cfg() -> StoreConfig {
        StoreConfig {
            block_size: 128,
            retain_epochs: 3,
            max_chain: 4,
            writer_threads: 2,
            ..StoreConfig::default()
        }
    }

    /// Like [`image`], with generation hints attached to the memory-like
    /// sections: "static" is stamped per rank and never moves, "hot" is
    /// stamped from `fill` so it moves whenever the content does.
    pub(super) fn hinted_image(
        epoch: u64,
        nranks: usize,
        fill: u8,
        static_len: usize,
    ) -> WorldImage {
        let ranks = (0..nranks)
            .map(|r| {
                let mut img = RankImage::new(r, nranks, epoch);
                img.put_section_hinted("static", fill_bytes(r as u64 + 1, static_len), 1);
                img.put_section_hinted(
                    "hot",
                    fill_bytes((fill as u64) << 8 | r as u64, 600),
                    100 + fill as u64,
                );
                img
            })
            .collect();
        WorldImage::new("MPICH".to_string(), ranks)
    }

    /// Low-entropy but non-constant content: compresses well under LZ4
    /// without collapsing into one deduped block the way constant runs
    /// would.
    pub(super) fn compressible_image(
        epoch: u64,
        nranks: usize,
        fill: u8,
        len: usize,
    ) -> WorldImage {
        let ranks = (0..nranks)
            .map(|r| {
                let mut img = RankImage::new(r, nranks, epoch);
                // f64-shaped: slowly varying words whose high lanes are
                // near-constant (what the shuffle filter exists for).
                let words = len / 8;
                let mut data = Vec::with_capacity(words * 8);
                for i in 0..words {
                    let v = 0x3FF0_0000_0000_0000u64
                        | ((r as u64) << 32)
                        | ((i as u64).wrapping_mul(fill as u64 + 3) & 0xFFFF);
                    data.extend_from_slice(&v.to_le_bytes());
                }
                img.put_section("lattice", data);
                img
            })
            .collect();
        WorldImage::new("MPICH".to_string(), ranks)
    }
}
