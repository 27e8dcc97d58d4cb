//! The asynchronous delta-checkpoint store: epoch chains of content-hashed
//! blocks.
//!
//! `WorldImage::save_dir` writes every rank's full image on the rank's
//! critical path, so checkpoint latency scales with total image size even
//! when almost nothing changed since the previous epoch. This module is the
//! layer between the coordinator and the filesystem that removes both
//! costs:
//!
//! * **Asynchrony** — a [`StoreWriter`] is attached to the coordinator as
//!   an [`crate::coordinator::ImageSink`]. At the final rendezvous barrier
//!   the round leader hands the complete set of [`RankImage`]s to the
//!   writer's bounded queue (the double buffer) and every rank resumes
//!   computing; a background thread performs the chunking, hashing and I/O.
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
//!   epoch_000003.tmp/        # an interrupted commit (ignored, cleaned up)
//! ```
//!
//! The manifest lists, for every rank and section, the ordered block
//! references `(content key, source epoch, offset, stored length, raw
//! length, CRC32, codec)` that reconstruct the section. A manifest is
//! self-contained: restart loads exactly one manifest and then walks the
//! chain only to fetch block bytes from the `blocks.bin` files it
//! references. Every block is CRC32-checked on read, so corruption is
//! reported as the exact `(epoch, offset)` that rotted — never silently
//! loaded. Commits are crash-safe: an epoch is assembled in an
//! `epoch_NNNNNN.tmp` directory and atomically renamed into place, so a
//! torn write can never be half-parsed. An epoch whose manifest *did*
//! rot on disk is quarantined at open (renamed to `epoch_NNNNNN.bad`)
//! and the store falls back to the newest readable epoch, so one broken
//! head never makes the whole chain unrestorable.
//!
//! # Block compression and dirty-segment tracking
//!
//! Manifest **v2** adds two cost reducers, both per-block/per-section and
//! both off the ranks' critical path:
//!
//! * **Compression** ([`Compression::Lz4`], the default): each newly
//!   written block is stored under the codec that wins for its bytes —
//!   raw, LZ4, or byte-shuffled LZ4 (the classic 8-stride shuffle filter,
//!   which groups the slowly-varying high bytes of `f64` lattice data
//!   into long runs LZ4 can fold). The codec byte travels in the block
//!   reference; v1 chains (raw-only) still decode.
//! * **Dirty-segment tracking** ([`StoreConfig::dirty_tracking`]): image
//!   sections may carry a producer generation stamp
//!   ([`crate::image::RankImage::put_section_hinted`], fed by
//!   [`crate::memory::Memory::generation`]). A section whose stamp has
//!   not moved since the previous commit of this handle is re-referenced
//!   wholesale — no chunking, no hashing, not a single byte read — which
//!   turns the per-epoch hash cost from O(image) into O(changed state).
//!   The hint is advice, not trust-the-caller: it is only honored for
//!   the section (same rank, same name, same length) cached from the
//!   immediately preceding commit, never across reopen or a full base.
//!
//! # Retention and GC
//!
//! After [`StoreConfig::max_chain`] consecutive deltas the next epoch is
//! written as a fresh **full base**, bounding how long any restart chain
//! can grow. After each commit, epochs beyond the newest
//! [`StoreConfig::retain_epochs`] restorable epochs are deleted — except
//! those still referenced by a retained manifest (a delta keeps its base
//! alive), so every retained epoch stays restorable.
//!
//! # Cross-vendor restart
//!
//! The chain stores vendor-neutral [`RankImage`]s, so the paper's headline
//! scenario holds end to end: checkpoint epochs under the MPICH engine,
//! kill the world, reopen the chain and restart the reconstructed
//! [`WorldImage`] under the Open MPI engine through the Mukautuva shim.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::{Read, Write as IoWrite};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use simnet::telemetry::Telemetry;

use crate::codec::{crc32, fnv1a, fnv1a_seeded, CodecError, Reader, Writer, FNV_PRIME};
use crate::coordinator::ImageSink;
use crate::image::{ImageError, RankImage, WorldImage};
use crate::tier::{
    fetch_sealed_epoch, sealed_epochs, ObjectTier, SharedTier, TierConfig, TierError, TierRuntime,
    TierStats,
};

const MANIFEST_MAGIC: u64 = 0x434B_5054_4348_4E31; // "CKPTCHN1"
/// The legacy (PR 2) manifest version: raw blocks, 40-byte references.
const MANIFEST_V1: u64 = 1;
/// Current manifest version: per-block codec byte + raw length, and a
/// `bytes_hashed` header field recording what the commit actually hashed.
const MANIFEST_V2: u64 = 2;
/// Bytes of one block reference on disk, per manifest version.
const BLOCK_REC_V1: usize = 40;
const BLOCK_REC_V2: usize = 45;
/// Minimum bytes a rank header (rank, world, epoch, nsections) consumes.
const RANK_REC_MIN: usize = 32;
/// Minimum bytes a section (name length prefix + nblocks) consumes.
const SECTION_REC_MIN: usize = 16;
/// Blocks shorter than this are never worth a compression attempt.
const MIN_COMPRESS_LEN: usize = 64;

/// Per-block compression applied to newly written blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Store raw block bytes (the v1 behavior).
    None,
    /// Per block, keep the smallest of: raw, LZ4, byte-shuffled LZ4
    /// (the shuffle transposes the block's 8-aligned prefix — the `f64`
    /// shape — and passes the tail through; both candidates are tried
    /// for every block ≥ 64 bytes, on the background writer's thread).
    /// The choice is recorded in the block reference, so mixed chains
    /// decode.
    #[default]
    Lz4,
}

/// Which manifest format commits write. Decoding always accepts both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ManifestFormat {
    /// The legacy PR 2 format: raw blocks only, no codec byte. A
    /// compatibility knob (it forces [`Compression::None`] and disables
    /// dirty tracking) kept so tests and mixed-version deployments can
    /// produce chains for older readers.
    V1,
    /// The current format: compressed blocks, hashed-bytes accounting.
    #[default]
    V2,
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
    /// Submit queue depth of the background writer (the double buffer):
    /// ranks block on submit only when this many epochs are already
    /// waiting.
    pub queue_depth: usize,
    /// Per-block compression of newly written blocks.
    pub compression: Compression,
    /// Honor clean-segment generation hints: a hinted section whose
    /// stamp did not move since the previous commit is re-referenced
    /// without being chunked or hashed.
    pub dirty_tracking: bool,
    /// Manifest format written by commits ([`ManifestFormat::V1`] is a
    /// compatibility knob; both formats always decode).
    pub format: ManifestFormat,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            block_size: 4096,
            retain_epochs: 4,
            max_chain: 8,
            writer_threads: 2,
            queue_depth: 2,
            compression: Compression::default(),
            dirty_tracking: true,
            format: ManifestFormat::default(),
        }
    }
}

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// The operation ("create", "read", "rename", ...).
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
    /// A referenced epoch directory does not exist (GC'd or never written).
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
    /// object that failed its seal verification).
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
    fn io(op: &'static str, path: &Path, e: std::io::Error) -> StoreError {
        StoreError::Io {
            op,
            path: path.to_path_buf(),
            msg: e.to_string(),
        }
    }

    /// Fold into the image-layer error type (threaded through
    /// `CkptError::Image` by the coordinator).
    pub fn into_image_error(self, epoch: u64) -> ImageError {
        ImageError::Store {
            epoch,
            msg: self.to_string(),
        }
    }
}

/// 128-bit content identity of a block: two differently-seeded FNV-1a
/// streams. A key collision would dedup distinct content (the manifest
/// would reference the older block, whose bytes pass their own CRC), so
/// the collision risk is *accepted*, not detected — acceptable because
/// the streams disagree on any single-byte difference and the joint
/// collision odds at simulation scales are negligible.
type BlockKey = (u64, u64);

/// How a block's bytes are stored on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockCodec {
    /// Raw bytes (always the case in v1 chains).
    Raw,
    /// LZ4 block compression.
    Lz4,
    /// 8-stride byte shuffle, then LZ4 (the `f64` filter).
    ShuffleLz4,
}

impl BlockCodec {
    fn to_u8(self) -> u8 {
        match self {
            BlockCodec::Raw => 0,
            BlockCodec::Lz4 => 1,
            BlockCodec::ShuffleLz4 => 2,
        }
    }

    fn from_u8(b: u8) -> Result<BlockCodec, CodecError> {
        match b {
            0 => Ok(BlockCodec::Raw),
            1 => Ok(BlockCodec::Lz4),
            2 => Ok(BlockCodec::ShuffleLz4),
            other => Err(CodecError::LengthOutOfBounds(other as u64)),
        }
    }
}

/// Where a block's bytes live on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockLoc {
    /// The epoch whose `blocks.bin` holds the bytes.
    epoch: u64,
    /// Byte offset within that file.
    offset: u64,
    /// Stored (possibly compressed) length in bytes.
    len: u32,
    /// Uncompressed length in bytes (`== len` for raw blocks).
    raw_len: u32,
    /// CRC32 of the *stored* bytes — corruption is detected before any
    /// decompression is attempted.
    crc: u32,
    /// How the stored bytes encode the raw bytes.
    codec: BlockCodec,
}

/// One chunked block of a section, before dedup placement.
#[derive(Debug, PartialEq, Eq)]
struct ChunkRec {
    key: BlockKey,
    start: usize,
    len: usize,
}

/// A section's ordered block references inside a manifest.
type SectionRefs = (String, Vec<(BlockKey, BlockLoc)>);

/// One rank's chunked sections, as produced by the writer pool. A `None`
/// chunk list marks a section skipped by dirty tracking (re-referenced
/// from the previous commit instead of re-chunked).
type RankChunks = Vec<(String, Option<Vec<ChunkRec>>)>;

/// In-memory form of one epoch's manifest.
struct Manifest {
    epoch: u64,
    full: bool,
    vendor_hint: String,
    /// Bytes of section payload this commit actually chunked and hashed
    /// (v1 manifests, which predate dirty tracking, report the full
    /// payload here).
    bytes_hashed: u64,
    /// Per rank: the `RankImage` header plus its sections' block refs.
    ranks: Vec<(usize, usize, u64, Vec<SectionRefs>)>,
}

impl Manifest {
    fn encode(&self, format: ManifestFormat) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(MANIFEST_MAGIC);
        w.u64(match format {
            ManifestFormat::V1 => MANIFEST_V1,
            ManifestFormat::V2 => MANIFEST_V2,
        });
        w.u64(self.epoch);
        w.u8(self.full as u8);
        w.string(&self.vendor_hint);
        if format == ManifestFormat::V2 {
            w.u64(self.bytes_hashed);
        }
        w.u64(self.ranks.len() as u64);
        for (rank, nranks, epoch, sections) in &self.ranks {
            w.u64(*rank as u64);
            w.u64(*nranks as u64);
            w.u64(*epoch);
            w.u64(sections.len() as u64);
            for (name, blocks) in sections {
                w.string(name);
                w.u64(blocks.len() as u64);
                for (key, loc) in blocks {
                    w.u64(key.0);
                    w.u64(key.1);
                    w.u64(loc.epoch);
                    w.u64(loc.offset);
                    w.u32(loc.len);
                    if format == ManifestFormat::V2 {
                        w.u32(loc.raw_len);
                    } else {
                        debug_assert_eq!(
                            loc.codec,
                            BlockCodec::Raw,
                            "v1 manifests cannot reference compressed blocks"
                        );
                    }
                    w.u32(loc.crc);
                    if format == ManifestFormat::V2 {
                        w.u8(loc.codec.to_u8());
                    }
                }
            }
        }
        w.finish()
    }

    /// Decode either manifest version. Every count field is clamped
    /// against the bytes actually remaining in the buffer (each record
    /// has a known minimum size) and every block's `raw_len` against its
    /// stored length, so a corrupted or hostile count or length can
    /// never drive a multi-gigabyte allocation — it returns
    /// [`CodecError::LengthOutOfBounds`] instead of aborting the process.
    fn decode(buf: &[u8]) -> Result<Manifest, CodecError> {
        let mut r = Reader::checked(buf)?;
        r.expect_magic(MANIFEST_MAGIC)?;
        let version = r.u64()?;
        if version != MANIFEST_V1 && version != MANIFEST_V2 {
            return Err(CodecError::BadMagic {
                expected: MANIFEST_V2,
                found: version,
            });
        }
        let epoch = r.u64()?;
        let full = r.u8()? != 0;
        let vendor_hint = r.string()?;
        let mut bytes_hashed = if version == MANIFEST_V2 { r.u64()? } else { 0 };
        let block_rec = if version == MANIFEST_V2 {
            BLOCK_REC_V2
        } else {
            BLOCK_REC_V1
        };
        let clamp = |count: u64, rec_min: usize, remaining: usize| -> Result<usize, CodecError> {
            if (count as u128) * (rec_min as u128) > remaining as u128 {
                return Err(CodecError::LengthOutOfBounds(count));
            }
            Ok(count as usize)
        };
        let nranks = r.u64()?;
        let nranks = clamp(nranks, RANK_REC_MIN, r.remaining())?;
        let mut ranks = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            let rank = r.u64()? as usize;
            let world = r.u64()? as usize;
            let rank_epoch = r.u64()?;
            let nsections = r.u64()?;
            let nsections = clamp(nsections, SECTION_REC_MIN, r.remaining())?;
            let mut sections = Vec::with_capacity(nsections);
            for _ in 0..nsections {
                let name = r.string()?;
                let nblocks = r.u64()?;
                let nblocks = clamp(nblocks, block_rec, r.remaining())?;
                let mut blocks = Vec::with_capacity(nblocks);
                for _ in 0..nblocks {
                    let key = (r.u64()?, r.u64()?);
                    let src_epoch = r.u64()?;
                    let offset = r.u64()?;
                    let len = r.u32()?;
                    let (raw_len, crc, codec) = if version == MANIFEST_V2 {
                        let raw_len = r.u32()?;
                        let crc = r.u32()?;
                        let codec = BlockCodec::from_u8(r.u8()?)?;
                        (raw_len, crc, codec)
                    } else {
                        (len, r.u32()?, BlockCodec::Raw)
                    };
                    // `raw_len` sizes the section buffer before any block
                    // is CRC-checked, so it is bounded here like the
                    // counts: raw blocks store what they hold, and the
                    // LZ4 block format cannot expand a byte 255-fold.
                    let plausible = match codec {
                        BlockCodec::Raw => raw_len == len,
                        BlockCodec::Lz4 | BlockCodec::ShuffleLz4 => {
                            raw_len as u64 <= 255 * len as u64
                        }
                    };
                    if !plausible {
                        return Err(CodecError::LengthOutOfBounds(raw_len as u64));
                    }
                    blocks.push((
                        key,
                        BlockLoc {
                            epoch: src_epoch,
                            offset,
                            len,
                            raw_len,
                            crc,
                            codec,
                        },
                    ));
                    if version == MANIFEST_V1 {
                        // v1 commits always hashed every referenced byte.
                        bytes_hashed += raw_len as u64;
                    }
                }
                sections.push((name, blocks));
            }
            ranks.push((rank, world, rank_epoch, sections));
        }
        Ok(Manifest {
            epoch,
            full,
            vendor_hint,
            bytes_hashed,
            ranks,
        })
    }
}

/// 8-stride byte shuffle (the classic HDF5/Blosc filter): lane `k` of
/// every 8-byte word is grouped contiguously, so the slowly-varying high
/// bytes of `f64` data become long near-constant runs LZ4 can fold.
/// Content-defined chunk boundaries are rarely 8-aligned, so the filter
/// transposes the 8-aligned prefix and passes the `< 8`-byte tail
/// through raw — both directions derive the split from the length alone.
fn shuffle8(data: &[u8]) -> Vec<u8> {
    let words = data.len() / 8;
    let (body, tail) = data.split_at(words * 8);
    let mut out = vec![0u8; data.len()];
    // One pass per lane: lane `k` of the output takes byte `k` of every
    // input word. (`max(1)`: a chunk size of zero panics, and a body
    // shorter than one word has no lanes anyway.)
    for (k, lane) in out[..body.len()].chunks_exact_mut(words.max(1)).enumerate() {
        for (o, word) in lane.iter_mut().zip(body.chunks_exact(8)) {
            *o = word[k];
        }
    }
    out[body.len()..].copy_from_slice(tail);
    out
}

/// Inverse of [`shuffle8`], written into `out` (same length as `data`).
fn unshuffle8(data: &[u8], out: &mut [u8]) {
    let words = data.len() / 8;
    let (body, tail) = data.split_at(words * 8);
    for (k, lane) in body.chunks_exact(words.max(1)).enumerate() {
        for (word, &b) in out[..body.len()].chunks_exact_mut(8).zip(lane) {
            word[k] = b;
        }
    }
    out[body.len()..].copy_from_slice(tail);
}

/// Map `f(index, item)` over `items` on up to `threads` scoped threads,
/// one contiguous slice each, and return the results in item order. One
/// thread or one item runs inline on the caller.
fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let per = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(per)
            .enumerate()
            .map(|(c, slice)| {
                s.spawn(move || {
                    let at = |(i, t)| f(c * per + i, t);
                    slice.iter().enumerate().map(at).collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fan-out thread"))
            .collect()
    })
}

/// Pick the smallest stored form of a raw block under the configured
/// compression. Returns the codec and, for compressed codecs, the stored
/// bytes (`None` means "store raw"). Deterministic per content.
fn encode_block(raw: &[u8], compression: Compression) -> (BlockCodec, Option<Vec<u8>>) {
    if compression == Compression::None || raw.len() < MIN_COMPRESS_LEN {
        return (BlockCodec::Raw, None);
    }
    let mut best = (BlockCodec::Raw, None);
    let mut best_len = raw.len();
    let lz = lz4_flex::compress(raw);
    if lz.len() < best_len {
        best_len = lz.len();
        best = (BlockCodec::Lz4, Some(lz));
    }
    let sh = lz4_flex::compress(&shuffle8(raw));
    if sh.len() < best_len {
        best = (BlockCodec::ShuffleLz4, Some(sh));
    }
    best
}

/// Decode one stored block straight into `out`, the block's own
/// `raw_len`-byte span of its section buffer. Nothing is allocated per
/// block: `scratch` is the caller's buffer, reused from block to block,
/// for the still-shuffled bytes of a `ShuffleLz4` block. The stored
/// slice has already passed its CRC, so `false` here means the manifest
/// and the block bytes disagree — reported as corruption by the caller.
fn decode_block(stored: &[u8], codec: BlockCodec, out: &mut [u8], scratch: &mut Vec<u8>) -> bool {
    match codec {
        BlockCodec::Raw => {
            let fits = stored.len() == out.len();
            if fits {
                out.copy_from_slice(stored);
            }
            fits
        }
        BlockCodec::Lz4 => lz4_flex::decompress_into(stored, out) == Ok(out.len()),
        BlockCodec::ShuffleLz4 => {
            scratch.resize(out.len(), 0);
            let ok = lz4_flex::decompress_into(stored, scratch) == Ok(out.len());
            if ok {
                unshuffle8(scratch, out);
            }
            ok
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

/// What one scrub pass did (see [`DeltaStore::scrub`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Quarantined epochs re-fetched from the tier, verified, and
    /// reinstated in the local chain.
    pub healed: Vec<u64>,
    /// Stale `.bad` directories removed because a healthy live epoch of
    /// the same number already exists (a later commit reused the number,
    /// or an earlier heal already ran).
    pub cleaned: Vec<u64>,
    /// Quarantined epochs the tier could not supply (no seal, or the
    /// tier copy failed verification): their `.bad` directories are left
    /// in place for forensics.
    pub missing: Vec<u64>,
    /// Live epochs whose manifests were verified readable.
    pub verified: usize,
}

impl ScrubReport {
    /// Whether the pass changed nothing on disk (the idempotence
    /// property: scrubbing a healthy chain, or scrubbing twice, is a
    /// no-op).
    pub fn is_noop(&self) -> bool {
        self.healed.is_empty() && self.cleaned.is_empty()
    }
}

/// The refs one hinted section resolved to at the previous commit of
/// this handle, keyed by the producer's generation stamp.
struct SectionCache {
    generation: u64,
    raw_len: usize,
    refs: Vec<(BlockKey, BlockLoc)>,
}

/// One store's attachment to a tier shipper runtime: the runtime may be
/// private to this store (the classic [`DeltaStore::attach_tier`] path,
/// lane 0 of a runtime nobody else sees) or shared by many tenants'
/// stores ([`DeltaStore::attach_shared_tier`]), in which case `lane`
/// scopes this store's queue/durable-set/sticky-error and `ns` prefixes
/// its keys in the tier.
struct TierAttachment {
    runtime: Arc<TierRuntime>,
    lane: usize,
    ns: String,
}

/// The synchronous store core: chunking, dedup, chain layout, GC, restore.
/// Wrap it in a [`StoreWriter`] to take it off the ranks' critical path.
pub struct DeltaStore {
    dir: PathBuf,
    config: StoreConfig,
    /// Committed epochs, ascending.
    epochs: Vec<u64>,
    /// Consecutive delta epochs since the last full base.
    chain_len: usize,
    /// Content index of the chain head: every block the latest epoch
    /// references, so the next commit can dedup against the live image.
    index: HashMap<BlockKey, BlockLoc>,
    /// Dirty tracking: per `(rank, section)`, the hinted generation and
    /// block refs of the previous commit. A section whose hint matches
    /// is re-referenced without chunking or hashing. Run-local — never
    /// persisted, cleared by full bases and pruned with GC.
    section_cache: HashMap<(usize, String), SectionCache>,
    /// Epochs whose manifests were unreadable at open and were renamed
    /// aside to `epoch_NNNNNN.bad` so restart could fall back.
    quarantined: Vec<u64>,
    /// Stats of the commits performed by this handle.
    stats: Vec<EpochStats>,
    /// The remote second tier, when attached: this store's lane in a
    /// (possibly shared) shipper runtime, plus its key namespace.
    tier: Option<TierAttachment>,
    /// Attached flight recorder: commits, GC decisions and quarantines
    /// land on its store lane.
    telemetry: Option<Arc<Telemetry>>,
}

impl DeltaStore {
    /// Open (or initialize) a store directory with default tunables.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DeltaStore, StoreError> {
        DeltaStore::open_with(dir, StoreConfig::default())
    }

    /// Open (or initialize) a store directory. Leftover `*.tmp` epoch
    /// directories from interrupted commits are removed; committed epochs
    /// are discovered and the chain head's content index is rebuilt so
    /// subsequent commits continue the delta chain.
    ///
    /// A chain head whose manifest is structurally broken (fails to
    /// decode, or the `manifest.bin` file is missing — e.g. half-written
    /// by a pre-atomic-commit writer) is **quarantined**: the epoch
    /// directory is renamed to `epoch_NNNNNN.bad` (preserved for
    /// forensics, invisible to the chain) and the open falls back to the
    /// newest *readable* epoch — restart proceeds from older state
    /// instead of failing outright. Quarantined epochs are listed by
    /// [`DeltaStore::quarantined`]. Transient I/O failures (permissions,
    /// fd exhaustion) are returned as errors, never quarantined.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        config: StoreConfig,
    ) -> Result<DeltaStore, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io("create dir", &dir, e))?;
        let mut epochs = Vec::new();
        let entries = std::fs::read_dir(&dir).map_err(|e| StoreError::io("read dir", &dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io("read dir", &dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name.strip_prefix("epoch_") {
                if let Some(stem) = rest.strip_suffix(".tmp") {
                    // An interrupted commit: never renamed, safe to drop.
                    if stem.chars().all(|c| c.is_ascii_digit()) {
                        std::fs::remove_dir_all(entry.path())
                            .map_err(|e| StoreError::io("remove tmp", &entry.path(), e))?;
                    }
                } else if rest.chars().all(|c| c.is_ascii_digit()) {
                    if let Ok(e) = rest.parse::<u64>() {
                        epochs.push(e);
                    }
                }
                // `epoch_NNNNNN.bad` (quarantined earlier) is ignored.
            }
        }
        epochs.sort_unstable();
        // The v1 format predates both compression and hashed-bytes
        // accounting; writing it forces the matching legacy behavior.
        let config = if config.format == ManifestFormat::V1 {
            StoreConfig {
                compression: Compression::None,
                dirty_tracking: false,
                ..config
            }
        } else {
            config
        };
        let mut store = DeltaStore {
            dir,
            config: StoreConfig {
                block_size: config.block_size.max(1),
                retain_epochs: config.retain_epochs.max(1),
                writer_threads: config.writer_threads.max(1),
                queue_depth: config.queue_depth.max(1),
                ..config
            },
            epochs,
            chain_len: 0,
            index: HashMap::new(),
            section_cache: HashMap::new(),
            quarantined: Vec::new(),
            stats: Vec::new(),
            tier: None,
            telemetry: None,
        };
        store.rebuild_head_state()?;
        Ok(store)
    }

    /// Attach a flight recorder. Commit/GC/quarantine events flow onto
    /// its store lane; an attached tier runtime inherits it for its
    /// ship/seal events.
    pub fn attach_telemetry(&mut self, tel: Arc<Telemetry>) {
        if let Some(tier) = &self.tier {
            tier.runtime.attach_telemetry(tier.lane, tel.clone());
        }
        self.telemetry = Some(tel);
    }

    /// Emit one event on the store lane, stamped with the recorder's
    /// observed virtual-clock high-water mark (the store writer runs on
    /// a background thread with no virtual clock of its own).
    fn emit(&self, kind: simnet::telemetry::EventKind, a: u64, b: u64, c: u64) {
        if let Some(tel) = &self.telemetry {
            tel.emit(tel.store_lane(), kind, tel.observed_now(), a, b, c);
        }
    }

    /// Like [`DeltaStore::open_with`], with a remote second tier attached
    /// (see [`DeltaStore::attach_tier`]): local epochs missing from the
    /// tier are queued for upload, and a chain whose newest epochs are
    /// missing or corrupt locally is transparently hydrated from the
    /// tier — including the extreme case of an empty (deleted) local
    /// store directory and a remote-only chain.
    pub fn open_with_tier(
        dir: impl Into<PathBuf>,
        config: StoreConfig,
        tier: Arc<dyn ObjectTier>,
        tier_config: TierConfig,
    ) -> Result<DeltaStore, StoreError> {
        let mut store = DeltaStore::open_with(dir, config)?;
        store.attach_tier(tier, tier_config)?;
        Ok(store)
    }

    /// Head repair + content-index rebuild: quarantine unreadable heads
    /// until a manifest decodes (or the chain is empty), then rebuild
    /// the dedup index and chain length from the surviving head.
    /// Quarantine is reserved for *structural* damage — a manifest that
    /// fails to decode, or an epoch directory missing its manifest file
    /// (a pre-atomic-commit torn write). A transient I/O failure
    /// (permissions, fd exhaustion, a flaky network mount) propagates as
    /// an error instead: renaming a healthy newest epoch aside over a
    /// hiccup would silently discard committed state.
    ///
    /// Also run after tier hydration and scrubbing, both of which can
    /// change which epoch is the chain head.
    fn rebuild_head_state(&mut self) -> Result<(), StoreError> {
        self.index.clear();
        self.section_cache.clear();
        self.chain_len = 0;
        let store = self;
        while let Some(&latest) = store.epochs.last() {
            let manifest = match store.read_manifest(latest) {
                Ok(m) => m,
                Err(StoreError::Manifest { .. }) => {
                    store.quarantine(latest)?;
                    continue;
                }
                Err(StoreError::MissingEpoch { .. }) => {
                    // The directory vanished under us: drop it from the
                    // view, nothing on disk to rename.
                    store.epochs.retain(|&e| e != latest);
                    continue;
                }
                Err(err) => {
                    if store
                        .epoch_dir(latest)
                        .join("manifest.bin")
                        .try_exists()
                        .map_err(|e| {
                            StoreError::io("stat", &store.epoch_dir(latest).join("manifest.bin"), e)
                        })?
                    {
                        // The file is there but unreadable right now:
                        // surface the I/O error, do not destroy state.
                        return Err(err);
                    }
                    store.quarantine(latest)?;
                    continue;
                }
            };
            for (_, _, _, sections) in &manifest.ranks {
                for (_, blocks) in sections {
                    for &(key, loc) in blocks {
                        store.index.insert(key, loc);
                    }
                }
            }
            if store.config.format == ManifestFormat::V1 {
                // A v1 writer over a v2 chain head: compressed blocks in
                // the dedup index would let a delta reference a codec a
                // v1 manifest cannot express (its decoder would hand the
                // LZ4 bitstream back as section content). Dedup only
                // against blocks v1 can reference.
                store.index.retain(|_, loc| loc.codec == BlockCodec::Raw);
            }
            // Chain length = epochs since the newest full base. An
            // unreadable *older* manifest leaves the head restorable
            // (manifests are self-contained) but the chain length
            // unknowable: pin it to `max_chain` so the next commit
            // starts a fresh full base instead of extending a chain of
            // unknown depth.
            store.chain_len = 0;
            for &e in store.epochs.iter().rev() {
                let full = if e == latest {
                    manifest.full
                } else {
                    match store.read_manifest(e) {
                        Ok(m) => m.full,
                        Err(_) => {
                            store.chain_len = store.config.max_chain;
                            break;
                        }
                    }
                };
                if full {
                    break;
                }
                store.chain_len += 1;
            }
            break;
        }
        Ok(())
    }

    /// Rename an epoch whose manifest cannot be read to
    /// `epoch_NNNNNN.bad` and drop it from the chain view.
    fn quarantine(&mut self, epoch: u64) -> Result<(), StoreError> {
        let from = self.epoch_dir(epoch);
        let to = self.dir.join(format!("epoch_{epoch:06}.bad"));
        // A stale `.bad` from an earlier quarantine of the same epoch
        // number must not block the rename.
        if to.exists() {
            std::fs::remove_dir_all(&to).map_err(|e| StoreError::io("remove bad", &to, e))?;
        }
        match std::fs::rename(&from, &to) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::io("quarantine", &from, e)),
        }
        self.epochs.retain(|&e| e != epoch);
        self.quarantined.push(epoch);
        self.emit(simnet::telemetry::EventKind::Quarantine, epoch, 0, 0);
        Ok(())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The tunables in force.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Committed epochs, ascending (restorable ones after GC).
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// The newest committed epoch.
    pub fn latest(&self) -> Option<u64> {
        self.epochs.last().copied()
    }

    /// Epochs whose manifests were unreadable at open and were renamed
    /// aside (`epoch_NNNNNN.bad`) so the chain could fall back to older
    /// state.
    pub fn quarantined(&self) -> &[u64] {
        &self.quarantined
    }

    /// Stats of the commits performed through this handle, in order.
    pub fn stats(&self) -> &[EpochStats] {
        &self.stats
    }

    // -----------------------------------------------------------------
    // The remote second tier
    // -----------------------------------------------------------------

    /// Attach a remote tier and spawn its background shipper.
    ///
    /// Reconciles both directions in one tier sweep: local epochs whose
    /// content the tier does not durably hold are queued for upload, and
    /// epochs the restore target needs but the local chain is missing
    /// (a behind or deleted local store) hydrate down (see
    /// [`DeltaStore::hydrate_from_tier`]). A seal only counts as durable
    /// for a *locally present* epoch when its recorded manifest CRC
    /// matches the local manifest: after a quarantine the chain reuses
    /// epoch numbers, and a stale seal left by the quarantined
    /// predecessor must neither let GC delete the only copy of the
    /// current content nor let a remote-only restore resurrect the stale
    /// state — mismatched epochs are re-shipped (the upload overwrites
    /// the tier objects, seal last).
    ///
    /// From here on every commit is queued for upload after its local
    /// rename, and retention GC refuses to delete any local epoch whose
    /// upload is not yet durable.
    ///
    /// Returns the epochs hydrated from the tier, ascending.
    pub fn attach_tier(
        &mut self,
        tier: Arc<dyn ObjectTier>,
        config: TierConfig,
    ) -> Result<Vec<u64>, StoreError> {
        let runtime = Arc::new(TierRuntime::spawn(tier, config));
        self.attach_runtime(runtime, String::new())
    }

    /// Attach this store as one tenant lane of a [`SharedTier`]: epochs
    /// ship through the shared shipper thread under `ns`-prefixed keys
    /// (see [`crate::tier::tenant_namespace`]), with this store's own
    /// queue, durable set, and sticky error. Reconcile/hydrate semantics
    /// are exactly [`DeltaStore::attach_tier`]'s, scoped to the
    /// namespace.
    pub fn attach_shared_tier(
        &mut self,
        shared: &SharedTier,
        ns: &str,
    ) -> Result<Vec<u64>, StoreError> {
        self.attach_runtime(shared.runtime().clone(), ns.to_string())
    }

    /// The shared attach engine: reconcile against the tier under `ns`,
    /// register a lane, hydrate, queue the unshipped backlog.
    fn attach_runtime(
        &mut self,
        runtime: Arc<TierRuntime>,
        ns: String,
    ) -> Result<Vec<u64>, StoreError> {
        let tier = runtime.tier.clone();
        let config = runtime.config;
        let seals = crate::tier::sealed_seals(&*tier, config, &ns)?;
        let mut durable: BTreeSet<u64> = BTreeSet::new();
        for (&epoch, seal) in &seals {
            let manifest_path = self.epoch_dir(epoch).join("manifest.bin");
            if manifest_path.is_file() {
                let local = Self::read_file(&manifest_path)?;
                if local.len() as u64 == seal.manifest_len && crc32(&local) == seal.manifest_crc {
                    durable.insert(epoch);
                }
                // Mismatch: the tier holds a different epoch under this
                // number (quarantine + reuse). Not durable — re-shipped
                // below.
            } else {
                // No local copy: the tier copy is the (only) truth.
                durable.insert(epoch);
            }
        }
        let sealed: BTreeSet<u64> = seals.keys().copied().collect();
        let lane = runtime.add_lane(self.dir.clone(), ns.clone(), durable.clone());
        if let Some(tel) = &self.telemetry {
            runtime.attach_telemetry(lane, tel.clone());
        }
        self.tier = Some(TierAttachment { runtime, lane, ns });
        let att = self.tier.as_ref().expect("tier just attached");
        let ns = att.ns.clone();
        let hydrated = self.hydrate_with(&*tier, config, &ns, &sealed)?;
        let att = self.tier.as_ref().expect("tier just attached");
        for &e in &self.epochs {
            if !durable.contains(&e) {
                att.runtime.enqueue(att.lane, e);
            }
        }
        Ok(hydrated)
    }

    /// Whether a remote tier is attached.
    pub fn has_tier(&self) -> bool {
        self.tier.is_some()
    }

    /// Wait until every queued epoch upload is durable in the tier.
    /// Returns the shipper's sticky error, if any; trivially succeeds
    /// with no tier attached.
    pub fn tier_flush(&self) -> Result<(), StoreError> {
        match &self.tier {
            Some(t) => t.runtime.flush(t.lane).map_err(StoreError::Tier),
            None => Ok(()),
        }
    }

    /// Epochs whose upload is durable (their seal is in the tier).
    pub fn tier_durable(&self) -> Vec<u64> {
        self.tier
            .as_ref()
            .map(|t| t.runtime.durable(t.lane).into_iter().collect())
            .unwrap_or_default()
    }

    /// Shipping statistics, if a tier is attached.
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.tier.as_ref().map(|t| t.runtime.stats(t.lane))
    }

    /// A cloneable live view of the shipper's statistics, if a tier is
    /// attached. Survives the store moving into a background writer
    /// thread ([`StoreWriter::from_store`]), which is how a session keeps
    /// reporting tier stats in its telemetry snapshot.
    pub fn tier_stats_handle(&self) -> Option<crate::tier::TierStatsHandle> {
        self.tier.as_ref().map(|t| t.runtime.stats_handle(t.lane))
    }

    /// This store's lane's sticky shipper error, if it has failed.
    pub fn tier_error(&self) -> Option<TierError> {
        self.tier.as_ref().and_then(|t| t.runtime.error(t.lane))
    }

    /// Install one verified epoch's bytes as a local epoch directory,
    /// atomically (tmp dir + rename), replacing any existing directory
    /// of that number.
    fn install_epoch(&self, epoch: u64, blocks: &[u8], manifest: &[u8]) -> Result<(), StoreError> {
        let tmp = self.dir.join(format!("epoch_{epoch:06}.tmp"));
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp).map_err(|e| StoreError::io("remove tmp", &tmp, e))?;
        }
        std::fs::create_dir_all(&tmp).map_err(|e| StoreError::io("create tmp", &tmp, e))?;
        for (name, data) in [("blocks.bin", blocks), ("manifest.bin", manifest)] {
            let path = tmp.join(name);
            let mut f =
                std::fs::File::create(&path).map_err(|e| StoreError::io("create", &path, e))?;
            f.write_all(data)
                .map_err(|e| StoreError::io("write", &path, e))?;
            f.sync_all().map_err(|e| StoreError::io("sync", &path, e))?;
        }
        let final_dir = self.epoch_dir(epoch);
        if final_dir.exists() {
            std::fs::remove_dir_all(&final_dir)
                .map_err(|e| StoreError::io("remove stale epoch", &final_dir, e))?;
        }
        std::fs::rename(&tmp, &final_dir).map_err(|e| StoreError::io("rename", &final_dir, e))
    }

    /// After an epoch is reinstated locally, drop its stale `.bad` twin
    /// (if any) and its quarantine listing, and splice it into the
    /// chain view.
    fn adopt_epoch(&mut self, epoch: u64) -> Result<(), StoreError> {
        let bad = self.dir.join(format!("epoch_{epoch:06}.bad"));
        if bad.exists() {
            std::fs::remove_dir_all(&bad).map_err(|e| StoreError::io("remove bad", &bad, e))?;
        }
        self.quarantined.retain(|&q| q != epoch);
        if !self.epochs.contains(&epoch) {
            self.epochs.push(epoch);
            self.epochs.sort_unstable();
        }
        Ok(())
    }

    /// Hydrate the chain from the attached tier: determine the restore
    /// target (the newer of the local and tier chain heads), and
    /// download every epoch that target's manifest references but the
    /// local chain is missing — verified against its seal — then rebuild
    /// the head state. Covers both directions of damage: a local chain
    /// that is behind or entirely gone (remote-only restore pulls the
    /// tier head plus its bases), and a current local head whose *base*
    /// epochs were lost (partial disk damage pulls just the bases back).
    /// Epochs already present locally are left untouched.
    ///
    /// Returns the epochs installed, ascending.
    pub fn hydrate_from_tier(&mut self) -> Result<Vec<u64>, StoreError> {
        let att = self.tier.as_ref().ok_or(StoreError::NoTier)?;
        let tier = att.runtime.tier.clone();
        let config = att.runtime.config;
        let ns = att.ns.clone();
        let sealed = sealed_epochs(&*tier, config, &ns)?;
        self.hydrate_with(&*tier, config, &ns, &sealed)
    }

    /// [`DeltaStore::hydrate_from_tier`] against an explicit tier handle
    /// and a pre-listed seal set (so attach does one sweep, not two).
    fn hydrate_with(
        &mut self,
        tier: &dyn ObjectTier,
        config: TierConfig,
        ns: &str,
        sealed: &BTreeSet<u64>,
    ) -> Result<Vec<u64>, StoreError> {
        let tier_head = sealed.last().copied();
        let local_head = self.latest();
        // The restore target: the newer of the two heads.
        let Some(target) = local_head.max(tier_head) else {
            return Ok(Vec::new());
        };
        // Pulling a *new* head down is all-or-nothing (installing a head
        // whose bases the tier cannot supply would advertise a chain
        // that cannot restore); repairing bases under a current local
        // head is best-effort (skipping leaves the chain no worse).
        let pulling_new_head = local_head.is_none_or(|l| target > l);
        let mut fetched_target: Option<(Vec<u8>, Vec<u8>)> = None;
        let manifest_buf = if self.epoch_dir(target).is_dir() {
            Self::read_file(&self.epoch_dir(target).join("manifest.bin"))?
        } else {
            let pair = fetch_sealed_epoch(tier, config, ns, target)?;
            let buf = pair.1.clone();
            fetched_target = Some(pair);
            buf
        };
        let manifest = Manifest::decode(&manifest_buf).map_err(|source| StoreError::Manifest {
            epoch: target,
            source,
        })?;
        // The target plus every epoch whose blocks it references:
        // exactly the set a restore of the target will read.
        let mut needed: BTreeSet<u64> = [target].into();
        for (_, _, _, sections) in &manifest.ranks {
            for (_, blocks) in sections {
                for (_, loc) in blocks {
                    needed.insert(loc.epoch);
                }
            }
        }
        let mut installed = Vec::new();
        for &epoch in &needed {
            if self.epoch_dir(epoch).is_dir() {
                continue;
            }
            if !sealed.contains(&epoch) {
                if pulling_new_head {
                    return Err(StoreError::MissingEpoch { epoch });
                }
                // The tier cannot supply it and the local chain did not
                // get worse: leave the gap for load-time reporting.
                continue;
            }
            let (blocks, manifest) = match fetched_target.take() {
                Some(pair) if epoch == target => pair,
                other => {
                    fetched_target = other;
                    fetch_sealed_epoch(tier, config, ns, epoch)?
                }
            };
            self.install_epoch(epoch, &blocks, &manifest)?;
            self.adopt_epoch(epoch)?;
            installed.push(epoch);
        }
        if !installed.is_empty() {
            self.rebuild_head_state()?;
        }
        Ok(installed)
    }

    /// Scrub the quarantine: heal `.bad` epochs from the attached tier.
    ///
    /// For every `epoch_NNNNNN.bad` directory on disk (and every epoch
    /// this handle quarantined at open):
    ///
    /// * if a healthy live epoch of the same number exists (a later
    ///   commit reused the number), the stale `.bad` directory is
    ///   removed (`cleaned`);
    /// * otherwise the epoch is fetched from the tier, verified against
    ///   its seal CRCs and its manifest decode, installed atomically,
    ///   and the `.bad` directory dropped (`healed`);
    /// * if the tier has no verifiable copy, the `.bad` directory is
    ///   left in place for forensics (`missing`).
    ///
    /// Every remaining live epoch's manifest is then verified readable
    /// (`verified`); a live epoch that fails is healed from the tier the
    /// same way. Scrubbing is idempotent: a healthy chain is a verified
    /// no-op, and a second pass after a heal finds nothing to do.
    pub fn scrub(&mut self) -> Result<ScrubReport, StoreError> {
        let att = self.tier.as_ref().ok_or(StoreError::NoTier)?;
        let tier = att.runtime.tier.clone();
        let config = att.runtime.config;
        let ns = att.ns.clone();
        self.scrub_with(&*tier, config, &ns)
    }

    /// The scrub pass against an explicit tier handle (what
    /// [`crate::tier::Scrubber`] calls; [`DeltaStore::scrub`] uses the
    /// attached tier).
    pub(crate) fn scrub_with(
        &mut self,
        tier: &dyn ObjectTier,
        config: TierConfig,
        ns: &str,
    ) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport::default();
        // Candidates: every .bad directory on disk (durable evidence of
        // past quarantines) plus this handle's own quarantine list.
        let mut candidates: BTreeSet<u64> = self.quarantined.iter().copied().collect();
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| StoreError::io("read dir", &self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io("read dir", &self.dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name
                .strip_prefix("epoch_")
                .and_then(|r| r.strip_suffix(".bad"))
            {
                if stem.chars().all(|c| c.is_ascii_digit()) {
                    if let Ok(e) = stem.parse::<u64>() {
                        candidates.insert(e);
                    }
                }
            }
        }
        // One tier sweep serves the whole pass (quarantine healing and
        // live-chain repair both consult it).
        let sealed = sealed_epochs(tier, config, ns)?;
        for &epoch in &candidates {
            let live_ok = self.epoch_dir(epoch).is_dir() && self.read_manifest(epoch).is_ok();
            if live_ok {
                self.adopt_epoch(epoch)?;
                report.cleaned.push(epoch);
                continue;
            }
            if !sealed.contains(&epoch) {
                report.missing.push(epoch);
                continue;
            }
            match fetch_sealed_epoch(tier, config, ns, epoch) {
                Ok((blocks, manifest_buf)) => {
                    // Verify the manifest decodes before trusting the
                    // tier copy over the quarantined one.
                    if Manifest::decode(&manifest_buf).is_err() {
                        report.missing.push(epoch);
                        continue;
                    }
                    self.install_epoch(epoch, &blocks, &manifest_buf)?;
                    self.adopt_epoch(epoch)?;
                    report.healed.push(epoch);
                }
                Err(TierError::NotFound { .. } | TierError::Corrupt { .. }) => {
                    report.missing.push(epoch);
                }
                Err(e) => return Err(StoreError::Tier(e)),
            }
        }
        // Verify the live chain; heal in place anything that rotted
        // since open (an older epoch's manifest, say).
        for epoch in self.epochs.clone() {
            match self.read_manifest(epoch) {
                Ok(_) => report.verified += 1,
                Err(StoreError::Manifest { .. } | StoreError::MissingEpoch { .. }) => {
                    if !sealed.contains(&epoch) {
                        report.missing.push(epoch);
                        continue;
                    }
                    match fetch_sealed_epoch(tier, config, ns, epoch) {
                        Ok((blocks, manifest_buf)) if Manifest::decode(&manifest_buf).is_ok() => {
                            self.install_epoch(epoch, &blocks, &manifest_buf)?;
                            report.healed.push(epoch);
                        }
                        Ok(_) | Err(TierError::NotFound { .. } | TierError::Corrupt { .. }) => {
                            report.missing.push(epoch);
                        }
                        Err(e) => return Err(StoreError::Tier(e)),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if !report.healed.is_empty() {
            report.healed.sort_unstable();
            report.healed.dedup();
            self.rebuild_head_state()?;
        }
        Ok(report)
    }

    fn epoch_dir(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch_{epoch:06}"))
    }

    fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
        let mut buf = Vec::new();
        std::fs::File::open(path)
            .map_err(|e| StoreError::io("open", path, e))?
            .read_to_end(&mut buf)
            .map_err(|e| StoreError::io("read", path, e))?;
        Ok(buf)
    }

    fn read_manifest(&self, epoch: u64) -> Result<Manifest, StoreError> {
        let dir = self.epoch_dir(epoch);
        if !dir.is_dir() {
            return Err(StoreError::MissingEpoch { epoch });
        }
        let buf = Self::read_file(&dir.join("manifest.bin"))?;
        Manifest::decode(&buf).map_err(|source| StoreError::Manifest { epoch, source })
    }

    /// The Gear table for content-defined chunking: one pseudorandom u64
    /// per byte value (splitmix64 of the byte).
    fn gear_table() -> &'static [u64; 256] {
        static TABLE: std::sync::OnceLock<[u64; 256]> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| {
            let mut t = [0u64; 256];
            for (i, e) in t.iter_mut().enumerate() {
                let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *e = z ^ (z >> 31);
            }
            t
        })
    }

    /// Cut one section into content-defined chunks (Gear rolling hash,
    /// FastCDC-style bounds) and key each chunk, in one scan: boundaries
    /// follow the *content*, so an insertion or deletion early in a
    /// section shifts block boundaries only locally and the unchanged
    /// tail still dedups — exactly the shape of a rank whose arrays grow
    /// or shrink between epochs (e.g. atom migration). `avg` is the
    /// target mean chunk size; actual chunks stay within [avg/4, 4*avg].
    /// The Gear hash and the two FNV-1a lanes of the [`BlockKey`] are
    /// three independent dependency chains over the same byte, so every
    /// dirty byte is read once.
    fn cut_and_hash(data: &[u8], avg: usize) -> Vec<ChunkRec> {
        let gear = Self::gear_table();
        let mask = (avg.next_power_of_two() as u64).wrapping_sub(1);
        let min = (avg / 4).max(1);
        let max = avg * 4;
        let mut recs = Vec::with_capacity(data.len() / avg + 1);
        let mut start = 0;
        while start < data.len() {
            let window = &data[start..(start + max).min(data.len())];
            let (mut h, mut a, mut b) = (0u64, fnv1a(&[]), fnv1a_seeded(0x5EED, &[]));
            let mut len = 0;
            for &byte in window {
                a = (a ^ byte as u64).wrapping_mul(FNV_PRIME);
                b = (b ^ byte as u64).wrapping_mul(FNV_PRIME);
                h = (h << 1).wrapping_add(gear[byte as usize]);
                len += 1;
                // No boundary inside the minimum region.
                if len >= min && h & mask == 0 {
                    break;
                }
            }
            recs.push(ChunkRec {
                key: (a, b),
                start,
                len,
            });
            start += len;
        }
        recs
    }

    /// Chunk one rank image's sections into keyed block records.
    /// Sections named in `skip` (clean per their generation hints) are
    /// passed through unchunked — not a byte of them is read here.
    fn chunk_rank(img: &RankImage, block_size: usize, skip: &HashSet<String>) -> RankChunks {
        img.sections()
            .map(|(name, data)| {
                let dirty = !skip.contains(name);
                let recs = dirty.then(|| Self::cut_and_hash(data, block_size));
                (name.to_string(), recs)
            })
            .collect()
    }

    /// Commit one epoch: write a full base or a delta against the chain
    /// head, atomically (temp directory + rename), then garbage-collect.
    ///
    /// The chain assigns its own monotonic sequence number (the manifest
    /// epoch and directory name); the coordinator-assigned epochs inside
    /// the [`RankImage`]s are preserved verbatim. The two diverge exactly
    /// when one chain spans several runs — coordinator epochs restart at 1
    /// after every restore, the chain keeps counting.
    pub fn commit(&mut self, image: &WorldImage) -> Result<EpochStats, StoreError> {
        // Validate the image: dense ranks, one consistent image epoch.
        if image.ranks.is_empty() {
            return Err(StoreError::InconsistentImage("no ranks".into()));
        }
        let img_epoch = image.ranks[0].epoch;
        for (i, r) in image.ranks.iter().enumerate() {
            if r.rank != i {
                return Err(StoreError::InconsistentImage(format!(
                    "slot {i} holds rank {}",
                    r.rank
                )));
            }
            if r.epoch != img_epoch {
                return Err(StoreError::InconsistentImage(format!(
                    "rank {i} is epoch {}, rank 0 is epoch {img_epoch}",
                    r.epoch
                )));
            }
            if r.nranks != image.ranks.len() {
                return Err(StoreError::InconsistentImage(format!(
                    "rank {i} claims a {}-rank world, image has {}",
                    r.nranks,
                    image.ranks.len()
                )));
            }
        }
        let epoch = self.epochs.last().map_or(1, |&l| l + 1);
        let full = self.epochs.is_empty() || self.chain_len >= self.config.max_chain;
        let started = Instant::now();
        // A base references nothing older: it dedups only within itself
        // and reuses no previous-commit section refs. The handle's own
        // maps are read, never written, until the epoch is on disk.
        let (no_index, no_cache) = (HashMap::new(), HashMap::new());
        let (index, cache) = if full {
            (&no_index, &no_cache)
        } else {
            (&self.index, &self.section_cache)
        };

        // Dirty tracking: a hinted section whose generation stamp (and
        // length) matches what this handle cached at the previous commit
        // is provably unchanged — plan to re-reference it wholesale.
        let skips: Vec<HashSet<String>> = image
            .ranks
            .iter()
            .map(|img| {
                let mut skip = HashSet::new();
                if self.config.dirty_tracking {
                    for (name, data) in img.sections() {
                        let hint = img.section_hint(name);
                        let cache = cache.get(&(img.rank, name.to_string()));
                        if let (Some(generation), Some(cache)) = (hint, cache) {
                            if cache.generation == generation && cache.raw_len == data.len() {
                                skip.insert(name.to_string());
                            }
                        }
                    }
                }
                skip
            })
            .collect();

        // Chunk + hash every dirty section, fanned out over the writer
        // pool.
        let block_size = self.config.block_size;
        let threads = self.config.writer_threads;
        let chunked: Vec<RankChunks> = fan_out(&image.ranks, threads, |i, r| {
            Self::chunk_rank(r, block_size, &skips[i])
        });

        // Deterministic dedup plan: walk ranks/sections/blocks in order
        // and list the content the chain does not hold yet, first
        // occurrence of a key first.
        let mut plan: Vec<&[u8]> = Vec::new();
        let mut planned: HashMap<BlockKey, usize> = HashMap::new();
        for (img, sections) in image.ranks.iter().zip(&chunked) {
            for (name, recs) in sections {
                let data = img.section(name).expect("section exists");
                for rec in recs.iter().flatten() {
                    if !index.contains_key(&rec.key) {
                        planned.entry(rec.key).or_insert_with(|| {
                            plan.push(&data[rec.start..rec.start + rec.len]);
                            plan.len() - 1
                        });
                    }
                }
            }
        }
        let chunk_done = Instant::now();

        // Encode the planned blocks, one contiguous slice of the plan and
        // one output buffer per worker. A block's stored form depends on
        // its bytes alone and the buffers concatenate in plan order, so
        // `blocks.bin` does not depend on where the slices were cut.
        let compression = self.config.compression;
        let parts: Vec<&[&[u8]]> = plan.chunks(plan.len().div_ceil(threads).max(1)).collect();
        let encoded: Vec<(Vec<u8>, Vec<BlockLoc>)> = fan_out(&parts, threads, |_, part| {
            let (mut buf, mut locs) = (Vec::new(), Vec::with_capacity(part.len()));
            for raw in part.iter() {
                let (codec, stored) = encode_block(raw, compression);
                let stored = stored.as_deref().unwrap_or(raw);
                buf.extend_from_slice(stored);
                locs.push(BlockLoc {
                    epoch,
                    offset: 0, // assigned below, once the buffers are in line
                    len: stored.len() as u32,
                    raw_len: raw.len() as u32,
                    crc: crc32(stored),
                    codec,
                });
            }
            (buf, locs)
        });
        // Append: blocks lie end to end in plan order, so a block starts
        // where the stored lengths before it end.
        let mut new_locs: Vec<BlockLoc> = encoded.iter().flat_map(|(_, l)| l).copied().collect();
        let mut blocks_len = 0u64;
        for loc in &mut new_locs {
            loc.offset = blocks_len;
            blocks_len += loc.len as u64;
        }

        // Resolve every block reference; skipped sections re-reference
        // their previous refs untouched.
        let mut blocks_total = 0u64;
        let mut bytes_hashed = 0u64;
        let mut new_cache: HashMap<(usize, String), SectionCache> = HashMap::new();
        let mut ranks_manifest = Vec::with_capacity(image.ranks.len());
        for (img, sections) in image.ranks.iter().zip(chunked) {
            let mut section_refs: Vec<SectionRefs> = Vec::with_capacity(sections.len());
            for (name, recs) in sections {
                let data = img.section(&name).expect("section exists");
                let refs: Vec<(BlockKey, BlockLoc)> = match recs {
                    // Clean per its hint: reuse the previous refs.
                    None => cache[&(img.rank, name.clone())].refs.clone(),
                    Some(recs) => {
                        bytes_hashed += data.len() as u64;
                        let loc = |key| index.get(key).unwrap_or_else(|| &new_locs[planned[key]]);
                        recs.iter().map(|rec| (rec.key, *loc(&rec.key))).collect()
                    }
                };
                blocks_total += refs.len() as u64;
                if let Some(generation) = img.section_hint(&name) {
                    new_cache.insert(
                        (img.rank, name.clone()),
                        SectionCache {
                            generation,
                            raw_len: data.len(),
                            refs: refs.clone(),
                        },
                    );
                }
                section_refs.push((name, refs));
            }
            ranks_manifest.push((img.rank, img.nranks, img.epoch, section_refs));
        }

        let manifest = Manifest {
            epoch,
            full,
            vendor_hint: image.vendor_hint.clone(),
            bytes_hashed,
            ranks: ranks_manifest,
        };
        let manifest_buf = manifest.encode(self.config.format);
        let encode_done = Instant::now();

        // Crash-safe commit: assemble in a temp dir, rename into place.
        let tmp = self.dir.join(format!("epoch_{epoch:06}.tmp"));
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp).map_err(|e| StoreError::io("remove tmp", &tmp, e))?;
        }
        std::fs::create_dir_all(&tmp).map_err(|e| StoreError::io("create tmp", &tmp, e))?;
        let write = |name: &str, parts: &[&[u8]]| -> Result<(), StoreError> {
            let path = tmp.join(name);
            let mut f =
                std::fs::File::create(&path).map_err(|e| StoreError::io("create", &path, e))?;
            for part in parts {
                f.write_all(part)
                    .map_err(|e| StoreError::io("write", &path, e))?;
            }
            f.sync_all().map_err(|e| StoreError::io("sync", &path, e))
        };
        let block_parts: Vec<&[u8]> = encoded.iter().map(|(buf, _)| buf.as_slice()).collect();
        write("blocks.bin", &block_parts)?;
        write("manifest.bin", &[&manifest_buf])?;
        let final_dir = self.epoch_dir(epoch);
        std::fs::rename(&tmp, &final_dir).map_err(|e| StoreError::io("rename", &final_dir, e))?;
        let write_done = Instant::now();

        // Publish: the epoch is durable, so the handle may now know it.
        // Every error return is above this line — a failed commit leaves
        // the handle, like the chain, as it was.
        if full {
            self.index.clear();
        }
        self.index
            .extend(planned.iter().map(|(&key, &i)| (key, new_locs[i])));
        self.epochs.push(epoch);
        self.chain_len = if full { 0 } else { self.chain_len + 1 };
        self.section_cache = new_cache;
        // Queue the sealed epoch for upload before GC runs: the epoch is
        // undurable until its seal lands, so the guard below keeps it
        // (and everything it references) on local disk meanwhile.
        if let Some(tier) = &self.tier {
            tier.runtime.enqueue(tier.lane, epoch);
        }
        self.gc();

        let stats = EpochStats {
            epoch,
            full,
            image_bytes: image.total_bytes() as u64,
            bytes_written: blocks_len + manifest_buf.len() as u64,
            bytes_hashed,
            new_block_raw_bytes: plan.iter().map(|raw| raw.len() as u64).sum(),
            blocks_total,
            blocks_new: plan.len() as u64,
        };
        self.stats.push(stats);
        self.emit(
            simnet::telemetry::EventKind::StoreCommit,
            epoch,
            full as u64,
            stats.blocks_new,
        );
        if let Some(tel) = &self.telemetry {
            tel.metrics().counter("store.commits").incr();
            tel.metrics()
                .histogram("store.commit_bytes")
                .observe(stats.bytes_written);
            // Where the commit's wall went: one histogram per stage.
            let marks = [started, chunk_done, encode_done, write_done, Instant::now()];
            let stages = [
                "store.commit.chunk_us",
                "store.commit.encode_us",
                "store.commit.write_us",
                "store.commit.gc_us",
            ];
            for (name, span) in stages.iter().zip(marks.windows(2)) {
                let us = (span[1] - span[0]).as_micros() as u64;
                tel.metrics().histogram(name).observe(us);
            }
        }
        Ok(stats)
    }

    /// Retention: keep the newest `retain_epochs` epochs plus everything
    /// their manifests still reference (a delta keeps its base alive),
    /// delete the rest.
    ///
    /// Housekeeping failures are non-fatal: the epoch just committed is
    /// already durable, so a stale directory that cannot be read or
    /// removed right now stays listed and is retried on the next commit —
    /// GC must never tear down a run whose checkpoints are all intact.
    fn gc(&mut self) {
        if self.epochs.len() <= self.config.retain_epochs {
            return;
        }
        let kept: Vec<u64> = self.epochs[self.epochs.len() - self.config.retain_epochs..].to_vec();
        let mut live: BTreeSet<u64> = kept.iter().copied().collect();
        // Upload-durability guard: with a tier attached, an epoch whose
        // upload is not yet sealed remotely is the *only* copy of its
        // state — retention must not race a slow (or failed) shipper
        // into deleting it. Undurable epochs count as live; they become
        // collectable on the first GC after their seal lands.
        let mut guarded = 0u64;
        if let Some(tier) = &self.tier {
            let durable = tier.runtime.durable(tier.lane);
            for &e in &self.epochs {
                if !durable.contains(&e) && live.insert(e) {
                    guarded += 1;
                }
            }
        }
        // Every retained epoch (retention window *and* undurable-guard
        // survivors) keeps the epochs its manifest references alive — a
        // delta keeps its base restorable locally.
        let roots: Vec<u64> = live.iter().copied().collect();
        for e in roots {
            match self.read_manifest(e) {
                Ok(manifest) => {
                    for (_, _, _, sections) in &manifest.ranks {
                        for (_, blocks) in sections {
                            for (_, loc) in blocks {
                                live.insert(loc.epoch);
                            }
                        }
                    }
                }
                // Can't prove what this manifest references: skip GC
                // entirely rather than risk deleting a live base.
                Err(_) => return,
            }
        }
        let dir = self.dir.clone();
        let before = self.epochs.len();
        self.epochs.retain(|e| {
            if live.contains(e) {
                return true;
            }
            match std::fs::remove_dir_all(dir.join(format!("epoch_{e:06}"))) {
                Ok(()) => false,
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => false,
                // Deletion failed: keep it listed so the view matches the
                // disk and the next commit retries.
                Err(_) => true,
            }
        });
        self.emit(
            simnet::telemetry::EventKind::GcDecision,
            (before - self.epochs.len()) as u64,
            self.epochs.len() as u64,
            guarded,
        );
        // Prune the dedup index of blocks whose epochs are gone; without
        // this, a later commit could reference a deleted epoch and
        // produce a manifest that cannot be restored. The section cache
        // holds the same kind of refs and gets the same treatment.
        let alive: BTreeSet<u64> = self.epochs.iter().copied().collect();
        self.index.retain(|_, loc| alive.contains(&loc.epoch));
        self.section_cache
            .retain(|_, c| c.refs.iter().all(|(_, loc)| alive.contains(&loc.epoch)));
    }

    /// Reconstruct the newest epoch's world image.
    pub fn load_latest(&self) -> Result<WorldImage, StoreError> {
        let epoch = self.latest().ok_or(StoreError::Empty)?;
        self.load_epoch(epoch)
    }

    /// Reconstruct one epoch's world image by walking the chain: read its
    /// manifest and every `blocks.bin` it references once, then
    /// reassemble the ranks fanned out over `writer_threads` (see
    /// [`fan_out`]). Each block is CRC32-verified and then decoded
    /// straight into its span of the section buffer. Results join in rank
    /// order, so the error reported is the lowest failing rank's first
    /// bad block — never whichever loader thread lost the race.
    pub fn load_epoch(&self, epoch: u64) -> Result<WorldImage, StoreError> {
        let manifest = self.read_manifest(epoch)?;
        // A file that cannot be read fails the first block that needs it.
        let mut files: HashMap<u64, Result<Vec<u8>, StoreError>> = HashMap::new();
        for (_, _, _, sections) in &manifest.ranks {
            for (_, loc) in sections.iter().flat_map(|(_, blocks)| blocks) {
                files.entry(loc.epoch).or_insert_with(|| {
                    let dir = self.epoch_dir(loc.epoch);
                    if !dir.is_dir() {
                        return Err(StoreError::MissingEpoch { epoch: loc.epoch });
                    }
                    Self::read_file(&dir.join("blocks.bin"))
                });
            }
        }
        let assemble = |slot: usize, rec: &(usize, usize, u64, Vec<SectionRefs>)| {
            let (rank, nranks, rank_epoch, sections) = rec;
            if *rank != slot {
                return Err(StoreError::InconsistentImage(format!(
                    "manifest slot {slot} holds rank {rank}"
                )));
            }
            let mut img = RankImage::new(*rank, *nranks, *rank_epoch);
            let mut scratch = Vec::new();
            for (name, blocks) in sections {
                let total: usize = blocks.iter().map(|(_, l)| l.raw_len as usize).sum();
                let mut data = vec![0u8; total];
                let mut rest = data.as_mut_slice();
                for (_, loc) in blocks {
                    let file = files[&loc.epoch].as_ref().map_err(StoreError::clone)?;
                    let corrupt = || StoreError::BlockCorrupt {
                        epoch,
                        src_epoch: loc.epoch,
                        offset: loc.offset,
                        rank: *rank,
                        section: name.clone(),
                    };
                    let slice = file
                        .get(loc.offset as usize..)
                        .and_then(|from| from.get(..loc.len as usize))
                        .ok_or_else(corrupt)?;
                    // CRC the stored bytes first, then decode them: a
                    // decode failure after a CRC pass means the manifest
                    // itself disagrees with the block — still corruption,
                    // localized to the same (epoch, offset).
                    if crc32(slice) != loc.crc {
                        return Err(corrupt());
                    }
                    let (out, tail) = rest.split_at_mut(loc.raw_len as usize);
                    rest = tail;
                    if !decode_block(slice, loc.codec, out, &mut scratch) {
                        return Err(corrupt());
                    }
                }
                img.put_section(name, data);
            }
            Ok(img)
        };
        let ranks = fan_out(&manifest.ranks, self.config.writer_threads, assemble)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(WorldImage::new(manifest.vendor_hint, ranks))
    }

    /// Recompute per-epoch stats from the on-disk manifests (usable after
    /// a reopen, when [`DeltaStore::stats`] is empty). `bytes_written`
    /// counts the epoch's own files; `image_bytes` is the logical payload
    /// its manifest reconstructs.
    pub fn epoch_stats_on_disk(&self) -> Result<Vec<EpochStats>, StoreError> {
        let mut out = Vec::with_capacity(self.epochs.len());
        for &epoch in &self.epochs {
            let manifest = self.read_manifest(epoch)?;
            let dir = self.epoch_dir(epoch);
            let mut stats = EpochStats {
                epoch,
                full: manifest.full,
                image_bytes: 0,
                bytes_written: 0,
                bytes_hashed: manifest.bytes_hashed,
                new_block_raw_bytes: 0,
                blocks_total: 0,
                blocks_new: 0,
            };
            // A section may reference the same own-epoch block many times
            // (intra-epoch dedup); "new" counts distinct written blocks.
            let mut own: BTreeMap<u64, u64> = BTreeMap::new();
            for (_, _, _, sections) in &manifest.ranks {
                for (_, blocks) in sections {
                    for (_, loc) in blocks {
                        stats.blocks_total += 1;
                        stats.image_bytes += loc.raw_len as u64;
                        if loc.epoch == epoch {
                            own.insert(loc.offset, loc.raw_len as u64);
                        }
                    }
                }
            }
            stats.blocks_new = own.len() as u64;
            stats.new_block_raw_bytes = own.values().sum();
            for name in ["blocks.bin", "manifest.bin"] {
                let path = dir.join(name);
                let meta =
                    std::fs::metadata(&path).map_err(|e| StoreError::io("stat", &path, e))?;
                stats.bytes_written += meta.len();
            }
            out.push(stats);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// The background writer
// ---------------------------------------------------------------------------

/// Per-tenant admission limits on the shared writer: how much a tenant
/// may have waiting (epochs and bytes) before its *own* submits block.
/// Quotas isolate, they never share: a tenant over budget waits on its
/// own backlog draining while every other tenant's submits proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum queued (not yet finished) epochs; a submit beyond this
    /// blocks. At least 1 is always allowed.
    pub max_queue: usize,
    /// Maximum bytes of world images queued or mid-commit. A single
    /// image larger than the budget is admitted when the lane is empty
    /// (otherwise it could never ship at all).
    pub max_inflight_bytes: u64,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota {
            max_queue: StoreConfig::default().queue_depth,
            max_inflight_bytes: u64::MAX,
        }
    }
}

struct MuxLane {
    queue: VecDeque<WorldImage>,
    /// Bytes of every queued image plus the one mid-commit.
    queued_bytes: u64,
    in_flight: bool,
    error: Option<StoreError>,
    stats: Vec<EpochStats>,
    quota: TenantQuota,
    /// Submits that had to block on this lane's own quota.
    quota_waits: u64,
}

struct MuxState {
    lanes: Vec<MuxLane>,
    closed: bool,
    /// Round-robin cursor over lanes, so one tenant's burst cannot
    /// starve the others of the single committer thread.
    rr: usize,
    /// Test hook: while held, the committer dispatches nothing, letting
    /// tests fill quotas deterministically.
    held: bool,
}

struct MuxShared {
    state: Mutex<MuxState>,
    cv: Condvar,
}

/// The multi-tenant asynchronous face of the store: ONE background
/// committer thread owns every tenant's [`DeltaStore`] and drains their
/// bounded submit queues fair-share round-robin. Per lane, everything is
/// scoped to the tenant: its queue, its [`TenantQuota`] backpressure,
/// its sticky error, its [`EpochStats`]. The single-store
/// [`StoreWriter`] is a one-lane wrapper over this.
pub struct SharedStoreWriter {
    shared: Arc<MuxShared>,
    worker: Mutex<Option<std::thread::JoinHandle<Vec<DeltaStore>>>>,
}

impl SharedStoreWriter {
    /// Spawn the committer over one store per lane, in lane order.
    pub fn spawn_stores(stores: Vec<(DeltaStore, TenantQuota)>) -> SharedStoreWriter {
        let mut owned = Vec::with_capacity(stores.len());
        let mut lanes = Vec::with_capacity(stores.len());
        for (store, quota) in stores {
            owned.push(store);
            lanes.push(MuxLane {
                queue: VecDeque::new(),
                queued_bytes: 0,
                in_flight: false,
                error: None,
                stats: Vec::new(),
                quota,
                quota_waits: 0,
            });
        }
        let shared = Arc::new(MuxShared {
            state: Mutex::new(MuxState {
                lanes,
                closed: false,
                rr: 0,
                held: false,
            }),
            cv: Condvar::new(),
        });
        let worker_shared = shared.clone();
        let worker = std::thread::Builder::new()
            .name("ckpt-store-writer".into())
            .spawn(move || Self::committer(owned, worker_shared))
            .expect("spawn store writer");
        SharedStoreWriter {
            shared,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// The committer thread: fair-share drain of every lane.
    fn committer(mut stores: Vec<DeltaStore>, shared: Arc<MuxShared>) -> Vec<DeltaStore> {
        loop {
            let (lane, image) = {
                let mut st = shared.state.lock().expect("writer lock");
                'wait: loop {
                    if !st.held {
                        let n = st.lanes.len();
                        for i in 0..n {
                            let idx = (st.rr + i) % n.max(1);
                            if let Some(img) = st.lanes[idx].queue.pop_front() {
                                st.lanes[idx].in_flight = true;
                                st.rr = (idx + 1) % n;
                                break 'wait (idx, img);
                            }
                        }
                        if st.closed {
                            return stores;
                        }
                    }
                    st = shared.cv.wait(st).expect("writer wait");
                }
            };
            // A queue slot just freed: wake blocked submitters early
            // (their bytes stay accounted until the commit finishes).
            shared.cv.notify_all();
            let image_bytes = image.total_bytes() as u64;
            let result = stores[lane].commit(&image);
            if result.is_err() {
                // A failing sink is a flight-recorder incident: record it
                // before the error goes sticky so the session's crash
                // dump explains the red run.
                if let Some(tel) = &stores[lane].telemetry {
                    let epoch = image.ranks.first().map_or(0, |r| r.epoch);
                    tel.emit(
                        tel.store_lane(),
                        simnet::telemetry::EventKind::SinkError,
                        tel.observed_now(),
                        epoch,
                        0,
                        0,
                    );
                    tel.note_incident();
                }
            }
            let mut st = shared.state.lock().expect("writer lock");
            let l = &mut st.lanes[lane];
            l.in_flight = false;
            l.queued_bytes = l.queued_bytes.saturating_sub(image_bytes);
            match result {
                Ok(s) => l.stats.push(s),
                Err(e) => {
                    l.error.get_or_insert(e);
                }
            }
            shared.cv.notify_all();
        }
    }

    /// How many lanes (tenants) this writer multiplexes.
    pub fn lanes(&self) -> usize {
        self.shared.state.lock().expect("writer lock").lanes.len()
    }

    /// Hand one epoch's world image to the background committer on
    /// `lane`. Blocks only while THIS lane is over its [`TenantQuota`]
    /// (queued epochs or in-flight bytes); a neighbor's backlog never
    /// blocks it. The lane's sticky error is returned to the caller and
    /// every later submitter.
    pub fn submit(&self, lane: usize, image: WorldImage) -> Result<(), StoreError> {
        let bytes = image.total_bytes() as u64;
        let mut st = self.shared.state.lock().expect("writer lock");
        let mut waited = false;
        loop {
            if let Some(e) = &st.lanes[lane].error {
                return Err(e.clone());
            }
            if st.closed {
                return Err(StoreError::Closed);
            }
            if !Self::over_quota(&st.lanes[lane], bytes) {
                let l = &mut st.lanes[lane];
                l.queue.push_back(image);
                l.queued_bytes += bytes;
                self.shared.cv.notify_all();
                return Ok(());
            }
            if !waited {
                waited = true;
                st.lanes[lane].quota_waits += 1;
            }
            st = self.shared.cv.wait(st).expect("writer wait");
        }
    }

    fn over_quota(lane: &MuxLane, incoming_bytes: u64) -> bool {
        let pending = lane.queued_bytes;
        lane.queue.len() >= lane.quota.max_queue.max(1)
            || (pending > 0
                && pending.saturating_add(incoming_bytes) > lane.quota.max_inflight_bytes)
    }

    /// Whether a submit of `bytes` on `lane` would block right now
    /// (quota probe for tests and admission-aware schedulers).
    pub fn would_block(&self, lane: usize, bytes: u64) -> bool {
        let st = self.shared.state.lock().expect("writer lock");
        Self::over_quota(&st.lanes[lane], bytes)
    }

    /// Submits that had to block on `lane`'s quota so far.
    pub fn quota_waits(&self, lane: usize) -> u64 {
        self.shared.state.lock().expect("writer lock").lanes[lane].quota_waits
    }

    /// Test hook: stop dispatching commits (current one finishes) until
    /// [`SharedStoreWriter::release_commits`], so tests can fill a
    /// lane's quota deterministically.
    pub fn hold_commits(&self) {
        self.shared.state.lock().expect("writer lock").held = true;
    }

    /// Resume dispatching after [`SharedStoreWriter::hold_commits`].
    pub fn release_commits(&self) {
        let mut st = self.shared.state.lock().expect("writer lock");
        st.held = false;
        self.shared.cv.notify_all();
    }

    /// Wait until every epoch submitted on `lane` is durably committed
    /// (or the lane failed). Returns the lane's sticky error, if any.
    pub fn flush_lane(&self, lane: usize) -> Result<(), StoreError> {
        let mut st = self.shared.state.lock().expect("writer lock");
        while (!st.lanes[lane].queue.is_empty() || st.lanes[lane].in_flight)
            && st.lanes[lane].error.is_none()
        {
            st = self.shared.cv.wait(st).expect("writer wait");
        }
        match &st.lanes[lane].error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Stats of the epochs committed on `lane` so far, in commit order.
    pub fn lane_stats(&self, lane: usize) -> Vec<EpochStats> {
        self.shared.state.lock().expect("writer lock").lanes[lane]
            .stats
            .clone()
    }

    /// The lane's sticky error, if its commits have failed.
    pub fn lane_error(&self, lane: usize) -> Option<StoreError> {
        self.shared.state.lock().expect("writer lock").lanes[lane]
            .error
            .clone()
    }

    /// Close every queue, drain them, join the committer and hand back
    /// the underlying stores in lane order. Lanes with a sticky error
    /// return their store too — the chain on disk is still the restart
    /// source; read the error first via
    /// [`SharedStoreWriter::lane_error`].
    pub fn finish(self) -> Result<Vec<DeltaStore>, StoreError> {
        self.shutdown().ok_or(StoreError::Closed)
    }

    /// Mark closed and join the worker; idempotent.
    fn shutdown(&self) -> Option<Vec<DeltaStore>> {
        {
            let mut st = self.shared.state.lock().expect("writer lock");
            st.closed = true;
            st.held = false;
            self.shared.cv.notify_all();
        }
        let handle = self.worker.lock().expect("worker lock").take()?;
        Some(handle.join().expect("store writer thread"))
    }
}

impl Drop for SharedStoreWriter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One tenant's [`ImageSink`] face of a [`SharedStoreWriter`]: what the
/// tenant's coordinator attaches, so its rendezvous hands epochs to its
/// own lane of the shared committer.
pub struct TenantSink {
    writer: Arc<SharedStoreWriter>,
    lane: usize,
}

impl TenantSink {
    /// The sink for `lane` of `writer`.
    pub fn new(writer: Arc<SharedStoreWriter>, lane: usize) -> TenantSink {
        TenantSink { writer, lane }
    }
}

impl ImageSink for TenantSink {
    fn submit(&self, image: WorldImage) -> Result<(), ImageError> {
        let epoch = image.ranks.first().map(|r| r.epoch).unwrap_or(0);
        self.writer
            .submit(self.lane, image)
            .map_err(|e| e.into_image_error(epoch))
    }
}

/// The asynchronous face of a single store: a background thread owns a
/// [`DeltaStore`] and drains a bounded submit queue. Attach it to the
/// coordinator ([`crate::coordinator::Coordinator::attach_sink`]) and the
/// round leader hands each completed epoch over inside the rendezvous —
/// the ranks resume while chunking, hashing and I/O proceed here.
///
/// Backpressure is the double buffer: a submit blocks only when
/// [`StoreConfig::queue_depth`] epochs are already waiting, which bounds
/// memory at `queue_depth + 1` in-flight world images.
///
/// Since the multi-tenant redesign this is a one-lane
/// [`SharedStoreWriter`]: same thread name, same queue semantics, one
/// tenant.
pub struct StoreWriter {
    inner: SharedStoreWriter,
}

impl StoreWriter {
    /// Open the store at `dir` and spawn the background writer.
    pub fn spawn(dir: impl Into<PathBuf>, config: StoreConfig) -> Result<StoreWriter, StoreError> {
        let store = DeltaStore::open_with(dir, config)?;
        Ok(StoreWriter::from_store(store))
    }

    /// Like [`StoreWriter::spawn`], with a remote second tier attached:
    /// the underlying store queues every committed epoch for upload and
    /// hydrates a behind (or empty) local chain from the tier at open.
    pub fn spawn_with_tier(
        dir: impl Into<PathBuf>,
        config: StoreConfig,
        tier: Arc<dyn ObjectTier>,
        tier_config: TierConfig,
    ) -> Result<StoreWriter, StoreError> {
        let store = DeltaStore::open_with_tier(dir, config, tier, tier_config)?;
        Ok(StoreWriter::from_store(store))
    }

    /// Spawn the background writer around a store the caller opened (and
    /// possibly configured — e.g. attached a flight recorder to) itself.
    pub fn from_store(store: DeltaStore) -> StoreWriter {
        let quota = TenantQuota {
            max_queue: store.config.queue_depth,
            max_inflight_bytes: u64::MAX,
        };
        StoreWriter {
            inner: SharedStoreWriter::spawn_stores(vec![(store, quota)]),
        }
    }

    /// Hand one epoch's world image to the background writer. Blocks only
    /// while the bounded queue is full (backpressure); a sticky writer
    /// error is returned to the caller and every later submitter.
    pub fn submit(&self, image: WorldImage) -> Result<(), StoreError> {
        self.inner.submit(0, image)
    }

    /// Wait until every submitted epoch is durably committed (or the
    /// writer failed). Returns the sticky error, if any.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush_lane(0)
    }

    /// Stats of the epochs committed so far, in commit order.
    pub fn stats(&self) -> Vec<EpochStats> {
        self.inner.lane_stats(0)
    }

    /// Close the queue, drain it, join the worker and hand back the
    /// underlying [`DeltaStore`] (e.g. to restart from the chain).
    pub fn finish(self) -> Result<(DeltaStore, Vec<EpochStats>), StoreError> {
        self.flush()?;
        let mut stores = self.inner.finish()?;
        let store = stores.pop().ok_or(StoreError::Closed)?;
        let stats = store.stats.clone();
        Ok((store, stats))
    }
}

impl ImageSink for StoreWriter {
    fn submit(&self, image: WorldImage) -> Result<(), ImageError> {
        let epoch = image.ranks.first().map(|r| r.epoch).unwrap_or(0);
        StoreWriter::submit(self, image).map_err(|e| e.into_image_error(epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
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
    fn fill_bytes(seed: u64, len: usize) -> Vec<u8> {
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

    fn image(epoch: u64, nranks: usize, fill: u8, static_len: usize) -> WorldImage {
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

    fn small_cfg() -> StoreConfig {
        StoreConfig {
            block_size: 128,
            retain_epochs: 3,
            max_chain: 4,
            writer_threads: 2,
            queue_depth: 2,
            ..StoreConfig::default()
        }
    }

    #[test]
    fn full_then_delta_roundtrip() {
        let dir = tmp_dir("rt");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        let img1 = image(1, 3, 0x11, 3000);
        let img2 = image(2, 3, 0x22, 3000);
        let s1 = store.commit(&img1).unwrap();
        let s2 = store.commit(&img2).unwrap();
        assert!(s1.full && !s2.full);
        // The static sections dedup: the delta writes far fewer bytes.
        assert!(
            s2.bytes_written < s1.bytes_written / 2,
            "delta {} vs full {}",
            s2.bytes_written,
            s1.bytes_written
        );
        assert!(s2.blocks_new < s2.blocks_total);
        assert_eq!(store.load_epoch(1).unwrap(), img1);
        assert_eq!(store.load_epoch(2).unwrap(), img2);
        assert_eq!(store.load_latest().unwrap(), img2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identical_epoch_writes_almost_nothing() {
        let dir = tmp_dir("ident");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        let img1 = image(1, 2, 0x33, 4000);
        let mut img2 = image(2, 2, 0x33, 4000);
        img2.vendor_hint = "Open MPI".to_string();
        let s1 = store.commit(&img1).unwrap();
        let s2 = store.commit(&img2).unwrap();
        assert_eq!(s2.blocks_new, 0, "no content changed");
        assert!(
            s2.bytes_written < s1.bytes_written / 3,
            "manifest-only delta {} vs full {}",
            s2.bytes_written,
            s1.bytes_written
        );
        let back = store.load_epoch(2).unwrap();
        assert_eq!(back, img2);
        assert_eq!(back.vendor_hint, "Open MPI");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chain_rolls_over_to_full_base() {
        let dir = tmp_dir("roll");
        let cfg = StoreConfig {
            max_chain: 2,
            retain_epochs: 10,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        let mut fulls = Vec::new();
        for e in 1..=6 {
            let s = store.commit(&image(e, 2, e as u8, 500)).unwrap();
            fulls.push(s.full);
        }
        // Base, two deltas, base, two deltas.
        assert_eq!(fulls, vec![true, false, false, true, false, false]);
        for e in 1..=6 {
            assert_eq!(store.load_epoch(e).unwrap(), image(e, 2, e as u8, 500));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_retains_restorable_epochs_and_their_bases() {
        let dir = tmp_dir("gc");
        let cfg = StoreConfig {
            retain_epochs: 2,
            max_chain: 8,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        for e in 1..=5 {
            store.commit(&image(e, 2, e as u8, 500)).unwrap();
        }
        // Epoch 1 is the base of the whole chain: it must survive GC even
        // though only {4, 5} are in the retention window.
        let kept = store.epochs().to_vec();
        assert!(kept.contains(&1), "base retained: {kept:?}");
        assert!(kept.contains(&4) && kept.contains(&5));
        assert!(
            !kept.contains(&2) || !kept.contains(&3),
            "middle GC'd: {kept:?}"
        );
        // Everything still advertised is restorable.
        for &e in store.epochs() {
            store.load_epoch(e).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recurring_content_after_gc_is_rewritten_not_dangled() {
        // Regression: content A -> B -> A with aggressive retention. After
        // GC deletes epoch 1, the dedup index must not hand epoch 3 a
        // reference into the deleted epoch — the recurring content has to
        // be rewritten so the committed epoch stays restorable.
        let dir = tmp_dir("regc");
        let cfg = StoreConfig {
            retain_epochs: 1,
            max_chain: 8,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        let a1 = image(1, 2, 0xA0, 900);
        let b = image(2, 2, 0xB1, 900);
        let mut a2 = image(3, 2, 0xA0, 900);
        // Fully distinct content in the middle epoch: change "static" too.
        let b = {
            let mut img = b;
            for r in img.ranks.iter_mut() {
                let flipped: Vec<u8> = r.section("static").unwrap().iter().map(|x| !x).collect();
                r.put_section("static", flipped);
            }
            img
        };
        a2.ranks.iter_mut().for_each(|r| r.epoch = 3);
        store.commit(&a1).unwrap();
        store.commit(&b).unwrap();
        assert_eq!(store.epochs(), &[2], "epoch 1 GC'd");
        let s3 = store.commit(&a2).unwrap();
        assert!(s3.blocks_new > 0, "recurring content must be rewritten");
        assert_eq!(store.load_epoch(3).unwrap(), a2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_block_detected_by_crc() {
        let dir = tmp_dir("crc");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        store.commit(&image(1, 2, 0x44, 800)).unwrap();
        let blocks = dir.join("epoch_000001").join("blocks.bin");
        let mut buf = std::fs::read(&blocks).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        std::fs::write(&blocks, &buf).unwrap();
        match store.load_epoch(1) {
            Err(StoreError::BlockCorrupt {
                epoch: 1,
                src_epoch: 1,
                ..
            }) => {}
            other => panic!("expected BlockCorrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lowest_corrupt_rank_is_reported_whichever_loader_thread_finishes_first() {
        let dir = tmp_dir("rankerr");
        let cfg = StoreConfig {
            writer_threads: 7,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        store.commit(&image(1, 48, 0x11, 3000)).unwrap();
        store.commit(&image(2, 48, 0x22, 3000)).unwrap();
        // Rot the last block of one section: the blocks before it still
        // load, so it is the first error its rank meets.
        let manifest = store.read_manifest(2).unwrap();
        let rot = |rank: usize, section: &str| {
            let (_, blocks) = manifest.ranks[rank]
                .3
                .iter()
                .find(|(name, _)| name == section)
                .unwrap();
            let loc = blocks.last().unwrap().1;
            let path = dir
                .join(format!("epoch_{:06}", loc.epoch))
                .join("blocks.bin");
            let mut buf = std::fs::read(&path).unwrap();
            buf[loc.offset as usize] ^= 0x01;
            std::fs::write(&path, &buf).unwrap();
            StoreError::BlockCorrupt {
                epoch: 2,
                src_epoch: loc.epoch,
                offset: loc.offset,
                rank,
                section: section.to_string(),
            }
        };
        // Rank 31's delta block (epoch 2) and rank 5's base block
        // (epoch 1) land on different loader threads (7 ranks each).
        let later = rot(31, "hot");
        let first = rot(5, "static");
        assert!(matches!(
            later,
            StoreError::BlockCorrupt { src_epoch: 2, .. }
        ));
        assert!(matches!(
            first,
            StoreError::BlockCorrupt { src_epoch: 1, .. }
        ));
        for _ in 0..20 {
            assert_eq!(store.load_epoch(2).unwrap_err(), first);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_detected_by_checksum() {
        let dir = tmp_dir("man");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        store.commit(&image(1, 2, 0x55, 300)).unwrap();
        let path = dir.join("epoch_000001").join("manifest.bin");
        let mut buf = std::fs::read(&path).unwrap();
        buf[10] ^= 0xFF;
        std::fs::write(&path, &buf).unwrap();
        assert!(matches!(
            store.load_epoch(1),
            Err(StoreError::Manifest { epoch: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_continues_the_delta_chain() {
        let dir = tmp_dir("reopen");
        {
            let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
            store.commit(&image(1, 2, 0x66, 1500)).unwrap();
            store.commit(&image(2, 2, 0x67, 1500)).unwrap();
        }
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        assert_eq!(store.epochs(), &[1, 2]);
        let s3 = store.commit(&image(3, 2, 0x68, 1500)).unwrap();
        assert!(!s3.full, "reopened chain continues as deltas");
        assert!(s3.blocks_new < s3.blocks_total, "dedup vs reopened index");
        assert_eq!(store.load_epoch(3).unwrap(), image(3, 2, 0x68, 1500));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_commit_is_cleaned_on_open() {
        let dir = tmp_dir("torn");
        {
            let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
            store.commit(&image(1, 2, 0x70, 400)).unwrap();
        }
        // Simulate a crash mid-commit: a temp epoch dir that never renamed.
        let torn = dir.join("epoch_000002.tmp");
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(torn.join("blocks.bin"), b"half").unwrap();
        let store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        assert_eq!(store.epochs(), &[1], "torn epoch invisible");
        assert!(!torn.exists(), "torn tmp dir removed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inconsistent_images_rejected_and_chain_owns_its_sequence() {
        let dir = tmp_dir("mono");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        // Coordinator epochs restart across runs; the chain sequence keeps
        // counting regardless of what the images claim.
        let s1 = store.commit(&image(5, 2, 0x71, 100)).unwrap();
        let s2 = store.commit(&image(1, 2, 0x72, 100)).unwrap();
        assert_eq!((s1.epoch, s2.epoch), (1, 2));
        assert_eq!(store.load_epoch(2).unwrap().ranks[0].epoch, 1);
        let mut bad = image(6, 2, 0x73, 100);
        bad.ranks[1].epoch = 7;
        assert!(matches!(
            store.commit(&bad),
            Err(StoreError::InconsistentImage(_))
        ));
        let mut sparse = image(6, 2, 0x74, 100);
        sparse.ranks.swap(0, 1);
        assert!(matches!(
            store.commit(&sparse),
            Err(StoreError::InconsistentImage(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_pool_commits_in_background_and_flushes() {
        let dir = tmp_dir("writer");
        let writer = StoreWriter::spawn(&dir, small_cfg()).unwrap();
        for e in 1..=3 {
            writer.submit(image(e, 3, e as u8, 1200)).unwrap();
        }
        writer.flush().unwrap();
        let stats = writer.stats();
        assert_eq!(stats.len(), 3);
        assert!(stats[0].full && !stats[1].full && !stats[2].full);
        let (store, _) = writer.finish().unwrap();
        assert_eq!(store.load_latest().unwrap(), image(3, 3, 3, 1200));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_error_is_sticky_for_submitters() {
        let dir = tmp_dir("sticky");
        let writer = StoreWriter::spawn(&dir, small_cfg()).unwrap();
        writer.submit(image(1, 2, 0x11, 100)).unwrap();
        writer.flush().unwrap();
        // A malformed image fails in the background...
        let mut bad = image(2, 2, 0x12, 100);
        bad.ranks[1].epoch = 9;
        writer.submit(bad).unwrap();
        writer.flush().unwrap_err();
        // ...and every later submit sees the same error.
        let err = writer.submit(image(3, 2, 0x13, 100)).unwrap_err();
        assert!(matches!(err, StoreError::InconsistentImage(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The separate passes [`DeltaStore::cut_and_hash`] fused, kept as
    /// its reference: the Gear boundary scan, then one `fnv1a` and one
    /// `fnv1a_seeded` pass over each chunk.
    fn cut_points(data: &[u8], avg: usize) -> Vec<(usize, usize)> {
        let gear = DeltaStore::gear_table();
        let mask = (avg.next_power_of_two() as u64).wrapping_sub(1);
        let min = (avg / 4).max(1);
        let max = avg * 4;
        let mut cuts = Vec::with_capacity(data.len() / avg + 1);
        let mut start = 0;
        while start < data.len() {
            let mut h: u64 = 0;
            let hard_end = (start + max).min(data.len());
            let mut end = hard_end;
            let scan_from = (start + min).min(data.len());
            // Warm the rolling hash over the minimum region, then look
            // for a content-defined boundary.
            for (i, &b) in data[start..hard_end].iter().enumerate() {
                h = (h << 1).wrapping_add(gear[b as usize]);
                if start + i + 1 >= scan_from && h & mask == 0 {
                    end = start + i + 1;
                    break;
                }
            }
            cuts.push((start, end - start));
            start = end;
        }
        cuts
    }

    fn cut_and_hash_reference(data: &[u8], avg: usize) -> Vec<ChunkRec> {
        let rec = |(start, len): (usize, usize)| {
            let chunk = &data[start..start + len];
            ChunkRec {
                key: (fnv1a(chunk), fnv1a_seeded(0x5EED, chunk)),
                start,
                len,
            }
        };
        cut_points(data, avg).into_iter().map(rec).collect()
    }

    #[test]
    fn fused_scan_equals_the_separate_passes_at_the_edges() {
        let gear = DeltaStore::gear_table();
        for avg in [64usize, 128, 4096] {
            let (min, max) = (avg / 4, avg * 4);
            let mask = avg as u64 - 1;
            // A constant fill cuts at `min` every time or never: the
            // rolling hash settles at `-gear[b]` in the masked bits.
            let never = (0..=255u8).find(|&b| gear[b as usize] & mask != 0).unwrap();
            let mut cases = vec![
                Vec::new(),
                vec![7],
                fill_bytes(3, min - 1),
                fill_bytes(4, min),
                vec![never; max],
                vec![never; max + 1],
                vec![never; 3 * max + min],
            ];
            if let Some(always) = (0..=255u8).find(|&b| gear[b as usize] & mask == 0) {
                cases.push(vec![always; 5 * min + 3]);
            }
            // A section ending one byte after a content-defined cut.
            let noise = fill_bytes(avg as u64, 6 * max);
            let first = cut_points(&noise, avg)[0].1;
            assert!(first < max, "a content-defined cut, not the hard bound");
            cases.push(noise[..first + 1].to_vec());
            cases.push(noise);
            for data in &cases {
                let fused = DeltaStore::cut_and_hash(data, avg);
                assert_eq!(fused, cut_and_hash_reference(data, avg), "avg {avg}");
            }
            assert_eq!(DeltaStore::cut_and_hash(&cases[4], avg).len(), 1);
        }
    }

    #[test]
    fn cut_points_cover_and_respect_bounds() {
        for len in [0usize, 1, 31, 128, 5000] {
            let data = fill_bytes(len as u64 + 7, len);
            let cuts = DeltaStore::cut_and_hash(&data, 64);
            let total: usize = cuts.iter().map(|c| c.len).sum();
            assert_eq!(total, len, "cuts must tile the section");
            let mut pos = 0;
            for c in &cuts {
                assert_eq!(c.start, pos, "cuts must be contiguous");
                assert!((1..=64 * 4).contains(&c.len), "bounds violated: {}", c.len);
                pos += c.len;
            }
        }
    }

    #[test]
    fn content_defined_chunking_survives_insertions() {
        // Insert bytes near the front of a section: with content-defined
        // boundaries the unchanged tail still dedups, which fixed-offset
        // blocks could never do.
        let tail = fill_bytes(42, 8000);
        let mut v1 = fill_bytes(7, 512);
        v1.extend_from_slice(&tail);
        let mut v2 = fill_bytes(9, 700); // different, longer prefix
        v2.extend_from_slice(&tail);
        // The fused scan itself: past the edit, the same chunks come
        // back, shifted by the growth of the prefix.
        let v2_cuts: HashSet<(usize, usize)> = DeltaStore::cut_and_hash(&v2, 256)
            .iter()
            .map(|c| (c.start, c.len))
            .collect();
        let v1_cuts = DeltaStore::cut_and_hash(&v1, 256);
        let kept = v1_cuts
            .iter()
            .filter(|c| v2_cuts.contains(&(c.start + 700 - 512, c.len)))
            .count();
        assert!(
            kept * 10 >= v1_cuts.len() * 8,
            "{kept} of {}",
            v1_cuts.len()
        );
        let make = |epoch: u64, data: &[u8]| {
            let mut img = RankImage::new(0, 1, epoch);
            img.put_section("grown", data.to_vec());
            WorldImage::new("MPICH".to_string(), vec![img])
        };
        let dir = tmp_dir("cdc");
        let cfg = StoreConfig {
            block_size: 256,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        let s1 = store.commit(&make(1, &v1)).unwrap();
        let s2 = store.commit(&make(2, &v2)).unwrap();
        assert!(
            s2.bytes_written * 3 < s1.bytes_written,
            "shifted tail must dedup: delta {} vs full {}",
            s2.bytes_written,
            s1.bytes_written
        );
        assert_eq!(store.load_epoch(2).unwrap(), make(2, &v2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Like [`image`], with generation hints attached to the memory-like
    /// sections: "static" is stamped per rank and never moves, "hot" is
    /// stamped from `fill` so it moves whenever the content does.
    fn hinted_image(epoch: u64, nranks: usize, fill: u8, static_len: usize) -> WorldImage {
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
    fn compressible_image(epoch: u64, nranks: usize, fill: u8, len: usize) -> WorldImage {
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

    /// The index formula the lane-wise loops replaced: byte `i` of the
    /// 8-aligned body goes to lane `i % 8`, word `i / 8`.
    fn shuffle8_by_index(data: &[u8]) -> Vec<u8> {
        let words = data.len() / 8;
        let cut = words * 8;
        let mut out = vec![0u8; data.len()];
        for (i, &b) in data[..cut].iter().enumerate() {
            out[(i % 8) * words + i / 8] = b;
        }
        out[cut..].copy_from_slice(&data[cut..]);
        out
    }

    #[test]
    fn lane_wise_shuffle_equals_the_index_formula_and_round_trips() {
        for len in 0..=130usize {
            let data = fill_bytes(len as u64 + 1, len);
            let shuffled = shuffle8(&data);
            assert_eq!(shuffled, shuffle8_by_index(&data), "shuffle, len {len}");
            let mut back = vec![0xEEu8; len];
            unshuffle8(&shuffled, &mut back);
            assert_eq!(back, data, "round trip, len {len}");
        }
    }

    #[test]
    fn compression_shrinks_disk_bytes_and_roundtrips() {
        let dir = tmp_dir("comp");
        let cfg = StoreConfig {
            block_size: 512,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        let img = compressible_image(1, 2, 0x11, 16_384);
        let s = store.commit(&img).unwrap();
        assert!(
            s.bytes_written < s.new_block_raw_bytes,
            "compressed epoch ({} B) must undercut its raw payload ({} B)",
            s.bytes_written,
            s.new_block_raw_bytes
        );
        assert_eq!(store.load_epoch(1).unwrap(), img, "bit-identical reload");

        // The same content stored uncompressed is strictly larger on disk.
        let dir_raw = tmp_dir("comp_raw");
        let raw_cfg = StoreConfig {
            compression: Compression::None,
            ..cfg
        };
        let mut raw_store = DeltaStore::open_with(&dir_raw, raw_cfg).unwrap();
        let s_raw = raw_store.commit(&img).unwrap();
        assert!(s.bytes_written < s_raw.bytes_written);
        assert_eq!(s.new_block_raw_bytes, s_raw.new_block_raw_bytes);
        assert_eq!(raw_store.load_epoch(1).unwrap(), img);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir_raw).unwrap();
    }

    #[test]
    fn incompressible_blocks_stay_raw() {
        // Pseudorandom content defeats LZ4; the store must fall back to
        // raw blocks rather than grow the chain.
        let dir = tmp_dir("incomp");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        let img = image(1, 2, 0x42, 4000);
        let s = store.commit(&img).unwrap();
        let blocks_len = std::fs::metadata(dir.join("epoch_000001").join("blocks.bin"))
            .unwrap()
            .len();
        assert_eq!(
            blocks_len, s.new_block_raw_bytes,
            "raw fallback stores exactly the raw bytes"
        );
        assert_eq!(store.load_epoch(1).unwrap(), img);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirty_tracking_skips_hashing_clean_sections() {
        let dir = tmp_dir("dirty");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        let img1 = hinted_image(1, 3, 0x11, 4000);
        let s1 = store.commit(&img1).unwrap();
        // The full base hashes everything, hints or not.
        assert_eq!(s1.bytes_hashed, img1.total_bytes() as u64);

        // Same static stamp, moved hot stamp: only "hot" is hashed.
        let img2 = hinted_image(2, 3, 0x22, 4000);
        let s2 = store.commit(&img2).unwrap();
        let hot_bytes: u64 = img2
            .ranks
            .iter()
            .map(|r| r.section("hot").unwrap().len() as u64)
            .sum();
        assert_eq!(
            s2.bytes_hashed, hot_bytes,
            "clean static sections must not be hashed"
        );
        assert!(s2.bytes_hashed * 2 < img2.total_bytes() as u64);
        // Skipping must not change what lands on disk or reloads.
        assert_eq!(store.load_epoch(2).unwrap(), img2);

        // The same epochs with dirty tracking off hash every byte but
        // write the identical delta (dedup finds the same unchanged
        // blocks the hints prove unchanged).
        let dir_full = tmp_dir("dirty_off");
        let cfg_full = StoreConfig {
            dirty_tracking: false,
            ..small_cfg()
        };
        let mut full_store = DeltaStore::open_with(&dir_full, cfg_full).unwrap();
        let f1 = full_store.commit(&img1).unwrap();
        let f2 = full_store.commit(&img2).unwrap();
        assert_eq!(f2.bytes_hashed, img2.total_bytes() as u64);
        assert_eq!(f1.bytes_written, s1.bytes_written);
        assert_eq!(f2.bytes_written, s2.bytes_written);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir_full).unwrap();
    }

    #[test]
    fn stale_or_missing_hints_are_rehashed_not_trusted() {
        let dir = tmp_dir("hints");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        store.commit(&hinted_image(1, 2, 0x11, 2000)).unwrap();

        // A moved stamp on unchanged content re-hashes it (and dedup
        // still finds it unchanged). The "hot" sections keep both their
        // stamps and their content, so they are legitimately skipped.
        let mut img2 = hinted_image(2, 2, 0x11, 2000);
        for r in img2.ranks.iter_mut() {
            let data = r.section("static").unwrap().to_vec();
            r.put_section_hinted("static", data, 999);
        }
        let static_bytes = |img: &WorldImage| -> u64 {
            img.ranks
                .iter()
                .map(|r| r.section("static").unwrap().len() as u64)
                .sum()
        };
        let s2 = store.commit(&img2).unwrap();
        assert_eq!(
            s2.bytes_hashed,
            static_bytes(&img2),
            "moved stamp re-hashes, clean hot sections skip"
        );
        assert_eq!(s2.blocks_new, 0, "content unchanged, dedup still wins");

        // A matching stamp with a different *length* is not trusted.
        let mut img3 = hinted_image(3, 2, 0x11, 2000);
        for r in img3.ranks.iter_mut() {
            let mut data = r.section("static").unwrap().to_vec();
            data.extend_from_slice(b"grown");
            r.put_section_hinted("static", data, 999);
        }
        let s3 = store.commit(&img3).unwrap();
        assert_eq!(s3.bytes_hashed, static_bytes(&img3));
        assert_eq!(store.load_epoch(3).unwrap(), img3);

        // Unhinted sections (a reloaded image carries no hints) always
        // hash fully.
        let reloaded = store.load_epoch(3).unwrap();
        let s4 = store.commit(&reloaded).unwrap();
        assert_eq!(s4.bytes_hashed, reloaded.total_bytes() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirty_tracking_never_reuses_across_a_full_base() {
        let dir = tmp_dir("dirty_base");
        let cfg = StoreConfig {
            max_chain: 1,
            retain_epochs: 10,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        store.commit(&hinted_image(1, 2, 0x11, 1500)).unwrap(); // base
        store.commit(&hinted_image(2, 2, 0x22, 1500)).unwrap(); // delta
        let s3 = store.commit(&hinted_image(3, 2, 0x33, 1500)).unwrap(); // base again
        assert!(s3.full);
        assert_eq!(
            s3.bytes_hashed,
            hinted_image(3, 2, 0x33, 1500).total_bytes() as u64,
            "a full base re-hashes everything: it may reference nothing older"
        );
        for e in 1..=3 {
            assert_eq!(
                store.load_epoch(e).unwrap(),
                hinted_image(e, 2, (e as u8) * 0x11, 1500)
            );
        }
        // A full base is self-contained: it references nothing older, so
        // it must still load after every earlier epoch is gone.
        for e in 1..=2 {
            std::fs::remove_dir_all(dir.join(format!("epoch_{e:06}"))).unwrap();
        }
        assert_eq!(store.load_epoch(3).unwrap(), hinted_image(3, 2, 0x33, 1500));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_chain_writes_and_new_reader_decodes_it() {
        let dir = tmp_dir("v1");
        let v1_cfg = StoreConfig {
            format: ManifestFormat::V1,
            ..small_cfg()
        };
        {
            let mut store = DeltaStore::open_with(&dir, v1_cfg).unwrap();
            // The compat knob forces legacy behavior.
            assert_eq!(store.config().compression, Compression::None);
            assert!(!store.config().dirty_tracking);
            store.commit(&hinted_image(1, 2, 0x11, 2000)).unwrap();
            let s2 = store.commit(&hinted_image(2, 2, 0x22, 2000)).unwrap();
            assert_eq!(
                s2.bytes_hashed,
                hinted_image(2, 2, 0x22, 2000).total_bytes() as u64
            );
        }
        // A current-config store opens the v1 chain, reads it, and
        // extends it with v2 epochs in one mixed chain.
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        assert_eq!(store.epochs(), &[1, 2]);
        assert_eq!(store.load_epoch(1).unwrap(), hinted_image(1, 2, 0x11, 2000));
        assert_eq!(store.load_epoch(2).unwrap(), hinted_image(2, 2, 0x22, 2000));
        let disk = store.epoch_stats_on_disk().unwrap();
        assert_eq!(
            disk[1].bytes_hashed, disk[1].image_bytes,
            "v1 manifests report the full-hash cost"
        );
        let s3 = store.commit(&hinted_image(3, 2, 0x33, 2000)).unwrap();
        assert!(!s3.full, "the mixed chain continues as deltas");
        assert_eq!(store.load_epoch(3).unwrap(), hinted_image(3, 2, 0x33, 2000));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_head_is_quarantined_and_chain_falls_back() {
        let dir = tmp_dir("quar");
        let cfg = StoreConfig {
            retain_epochs: 10,
            ..small_cfg()
        };
        {
            let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
            for e in 1..=3 {
                store.commit(&image(e, 2, e as u8, 1000)).unwrap();
            }
        }
        // Rot the head's manifest.
        let head_manifest = dir.join("epoch_000003").join("manifest.bin");
        let mut buf = std::fs::read(&head_manifest).unwrap();
        buf[20] ^= 0xFF;
        std::fs::write(&head_manifest, &buf).unwrap();

        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        assert_eq!(store.quarantined(), &[3]);
        assert_eq!(store.epochs(), &[1, 2], "chain fell back to epoch 2");
        assert!(dir.join("epoch_000003.bad").is_dir(), "head kept aside");
        assert!(!dir.join("epoch_000003").exists());
        assert_eq!(store.load_latest().unwrap(), image(2, 2, 2, 1000));
        // The chain continues — and reuses the quarantined head's number.
        let s = store.commit(&image(3, 2, 9, 1000)).unwrap();
        assert_eq!(s.epoch, 3);
        assert_eq!(store.load_latest().unwrap(), image(3, 2, 9, 1000));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_writer_over_v2_head_never_references_compressed_blocks() {
        // Regression: opening a compressed (v2) chain with the V1 compat
        // format rebuilds the dedup index from the v2 head. Without
        // filtering, a v1 delta could reference an Lz4 block — a codec a
        // v1 manifest cannot express, which a reader would hand back as
        // raw section content (silent corruption). The v1 commit must
        // rewrite such content instead.
        let dir = tmp_dir("v1_over_v2");
        let img1 = compressible_image(1, 2, 0x11, 8192);
        let img2 = compressible_image(2, 2, 0x11, 8192);
        {
            let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
            let s1 = store.commit(&img1).unwrap();
            assert!(
                s1.bytes_written < s1.new_block_raw_bytes,
                "precondition: the v2 head holds compressed blocks"
            );
        }
        let v1_cfg = StoreConfig {
            format: ManifestFormat::V1,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, v1_cfg).unwrap();
        let s2 = store.commit(&img2).unwrap();
        assert!(
            s2.blocks_new > 0,
            "identical content must be rewritten raw, not deduped into Lz4 refs"
        );
        assert_eq!(store.load_epoch(2).unwrap(), img2, "bit-identical reload");
        // And the mixed chain still reads under the current config.
        let store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        assert_eq!(store.load_epoch(1).unwrap(), img1);
        assert_eq!(store.load_epoch(2).unwrap(), img2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_file_quarantines_but_io_failure_propagates() {
        let dir = tmp_dir("quar_io");
        {
            let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
            store.commit(&image(1, 2, 1, 500)).unwrap();
            store.commit(&image(2, 2, 2, 500)).unwrap();
        }
        // manifest.bin present but unreadable (it is a directory →
        // EISDIR): a transient-I/O-shaped failure must propagate, not
        // rename the newest committed epoch aside.
        let head_manifest = dir.join("epoch_000002").join("manifest.bin");
        std::fs::remove_file(&head_manifest).unwrap();
        std::fs::create_dir(&head_manifest).unwrap();
        match DeltaStore::open_with(&dir, small_cfg()) {
            Err(StoreError::Io { .. }) => {}
            other => panic!("expected an I/O error, got {:?}", other.map(|_| "store")),
        }
        assert!(
            dir.join("epoch_000002").is_dir(),
            "healthy-looking epoch must not be quarantined on I/O failure"
        );

        // manifest.bin *gone* from an existing epoch dir is structural
        // (a torn pre-atomic write): quarantine and fall back.
        std::fs::remove_dir(&head_manifest).unwrap();
        let store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        assert_eq!(store.quarantined(), &[2]);
        assert_eq!(store.load_latest().unwrap(), image(1, 2, 1, 500));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fully_rotted_store_quarantines_every_epoch_and_reports_empty() {
        let dir = tmp_dir("quar_all");
        {
            let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
            store.commit(&image(1, 2, 1, 500)).unwrap();
            store.commit(&image(2, 2, 2, 500)).unwrap();
        }
        for e in 1..=2 {
            std::fs::write(
                dir.join(format!("epoch_{e:06}")).join("manifest.bin"),
                b"garbage",
            )
            .unwrap();
        }
        let store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        assert_eq!(store.quarantined(), &[2, 1], "newest first");
        assert!(store.epochs().is_empty());
        assert!(matches!(store.load_latest(), Err(StoreError::Empty)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn huge_counts_with_valid_checksum_reject_without_allocating() {
        // The FNV trailer is not collision-proof: a systematically
        // corrupted (or hostile) manifest can carry a valid checksum and
        // absurd counts. Every count must be clamped against the bytes
        // that actually remain — the old `1 << 32` bound let a ~160 GiB
        // Vec::with_capacity abort the process.
        let huge_at = |field: usize| {
            let mut w = Writer::new();
            w.u64(MANIFEST_MAGIC);
            w.u64(MANIFEST_V2);
            w.u64(1); // epoch
            w.u8(1); // full
            w.string("MPICH");
            w.u64(0); // bytes_hashed
            let counts = [1u64, 1, 1]; // nranks, nsections, nblocks
            w.u64(if field == 0 { u64::MAX / 64 } else { counts[0] });
            w.u64(0); // rank
            w.u64(1); // world
            w.u64(1); // rank epoch
            w.u64(if field == 1 { 1 << 40 } else { counts[1] });
            w.string("memory");
            w.u64(if field == 2 { 1 << 31 } else { counts[2] });
            w.finish()
        };
        for field in 0..3 {
            match Manifest::decode(&huge_at(field)) {
                Err(CodecError::LengthOutOfBounds(_)) => {}
                Err(other) => panic!("field {field}: expected LengthOutOfBounds, got {other:?}"),
                Ok(_) => panic!("field {field}: hostile manifest decoded"),
            }
        }
    }

    #[test]
    fn hostile_raw_len_with_valid_checksum_rejects_at_decode() {
        // Same class of bug as the counts above, on the length that sizes
        // the section buffer: `load_epoch` allocates the sum of `raw_len`
        // before any block is CRC-checked, so a few thousand blocks
        // claiming `u32::MAX` raw bytes each would abort the restart.
        let with_block = |codec: BlockCodec, len: u32, raw_len: u32| {
            let loc = BlockLoc {
                epoch: 1,
                offset: 0,
                len,
                raw_len,
                crc: 0,
                codec,
            };
            let manifest = Manifest {
                epoch: 1,
                full: true,
                vendor_hint: "MPICH".to_string(),
                bytes_hashed: 0,
                ranks: vec![(0, 1, 1, vec![("memory".to_string(), vec![((1, 2), loc)])])],
            };
            Manifest::decode(&manifest.encode(ManifestFormat::V2))
        };
        for (codec, len, raw_len) in [
            (BlockCodec::Raw, 4096, u32::MAX),
            (BlockCodec::Raw, 4096, 4095),
            (BlockCodec::Lz4, 4096, u32::MAX),
            (BlockCodec::Lz4, 16, 255 * 16 + 1),
            (BlockCodec::ShuffleLz4, 0, 1),
            (BlockCodec::ShuffleLz4, 1 << 24, u32::MAX),
        ] {
            match with_block(codec, len, raw_len) {
                Err(CodecError::LengthOutOfBounds(n)) => assert_eq!(n, raw_len as u64),
                Err(other) => panic!("{codec:?} {len}->{raw_len}: got {other:?}"),
                Ok(_) => panic!("{codec:?} {len}->{raw_len}: hostile manifest decoded"),
            }
        }
        // The bound itself is legal: the densest LZ4 stream there is.
        for (codec, len, raw_len) in [
            (BlockCodec::Raw, 4096, 4096),
            (BlockCodec::Lz4, 16, 255 * 16),
            (BlockCodec::ShuffleLz4, 4096, 16384),
        ] {
            assert!(with_block(codec, len, raw_len).is_ok());
        }
    }

    #[test]
    fn manifest_truncated_at_every_offset_errors_never_panics() {
        let dir = tmp_dir("trunc");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        store.commit(&hinted_image(1, 2, 0x11, 600)).unwrap();
        let buf = std::fs::read(dir.join("epoch_000001").join("manifest.bin")).unwrap();
        Manifest::decode(&buf).expect("intact manifest decodes");
        for cut in 0..buf.len() {
            assert!(
                Manifest::decode(&buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_commit_cleanup_continues_chain_with_correct_length() {
        // A crash mid-commit leaves `epoch_NNNNNN.tmp`; reopening must
        // clean it, keep the committed chain, and continue the delta
        // chain with the right length (the next commit is a delta, and
        // the base rollover still happens at the configured depth).
        let dir = tmp_dir("torn_chain");
        let cfg = StoreConfig {
            max_chain: 3,
            retain_epochs: 10,
            ..small_cfg()
        };
        {
            let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
            store.commit(&image(1, 2, 1, 800)).unwrap(); // base, chain_len 0
            store.commit(&image(2, 2, 2, 800)).unwrap(); // delta, chain_len 1
        }
        let torn = dir.join("epoch_000003.tmp");
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(torn.join("blocks.bin"), b"half a block").unwrap();

        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        assert!(!torn.exists(), "torn tmp dir removed");
        assert_eq!(store.epochs(), &[1, 2]);
        let s3 = store.commit(&image(3, 2, 3, 800)).unwrap(); // chain_len 2
        let s4 = store.commit(&image(4, 2, 4, 800)).unwrap(); // chain_len 3
        let s5 = store.commit(&image(5, 2, 5, 800)).unwrap(); // rollover
        assert!(!s3.full && !s4.full, "reopened chain continues as deltas");
        assert!(s5.full, "base rollover at max_chain across the reopen");
        for e in 1..=5 {
            assert_eq!(store.load_epoch(e).unwrap(), image(e, 2, e as u8, 800));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_stats_on_disk_match_live_stats() {
        let dir = tmp_dir("stats");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        for e in 1..=3 {
            store.commit(&hinted_image(e, 2, e as u8, 900)).unwrap();
        }
        let disk = store.epoch_stats_on_disk().unwrap();
        assert_eq!(disk.len(), store.stats().len());
        for (d, l) in disk.iter().zip(store.stats()) {
            assert_eq!(d.epoch, l.epoch);
            assert_eq!(d.full, l.full);
            assert_eq!(d.blocks_total, l.blocks_total);
            assert_eq!(d.blocks_new, l.blocks_new);
            assert_eq!(d.image_bytes, l.image_bytes);
            assert_eq!(d.bytes_written, l.bytes_written);
            assert_eq!(
                d.bytes_hashed, l.bytes_hashed,
                "manifest records the hash cost"
            );
            assert_eq!(d.new_block_raw_bytes, l.new_block_raw_bytes);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The fixed chain behind the golden digests: a base, a delta and a
    /// hinted-clean delta over shuffle-compressible, LZ4-compressible
    /// and noise sections, with ranks 3 and 4 sharing their noise so
    /// first-occurrence-wins placement is on the path.
    fn golden_image(step: u64) -> WorldImage {
        let ranks = (0..5usize)
            .map(|r| {
                let mut img = RankImage::new(r, 5, step);
                let lattice = (0..1024u64).flat_map(|i| {
                    let low = i.wrapping_mul(step + 3) & 0xFFFF;
                    (0x3FF0_0000_0000_0000u64 | (r as u64) << 32 | low).to_le_bytes()
                });
                img.put_section("lattice", lattice.collect());
                let text =
                    (0..4000usize).map(|i| b"checkpoint "[(i * 7 + r) % 11] + (i / 500) as u8);
                img.put_section("text", text.collect());
                let moved = step.min(2);
                img.put_section("noise", fill_bytes(moved << 8 | r.min(3) as u64, 6000));
                img.put_section_hinted("static", fill_bytes(77 + r as u64, 3000), 1);
                img.put_section_hinted("hot", fill_bytes(moved * 1000 + r as u64, 2000), moved);
                img
            })
            .collect();
        WorldImage::new("MPICH".to_string(), ranks)
    }

    fn golden_cfg(writer_threads: usize) -> StoreConfig {
        StoreConfig {
            block_size: 256,
            writer_threads,
            ..small_cfg()
        }
    }

    #[test]
    fn golden_chain_bytes_are_independent_of_writer_threads() {
        // FNV-1a of epoch 1..=3's `blocks.bin`, `manifest.bin`, recorded
        // from commit 2a4cbf1 — before the commit path was rebuilt.
        const GOLDEN: [u64; 6] = [
            0x14060a241737892c,
            0x9421518e6075b165,
            0x3f81f03ee5f36e8f,
            0xe253ff24ad068e5e,
            0xd3fafaa8e4965aaa,
            0xafcdef05d17ba927,
        ];
        let mut chains = Vec::new();
        for threads in [1usize, 2, 7] {
            let dir = tmp_dir(&format!("golden{threads}"));
            let mut store = DeltaStore::open_with(&dir, golden_cfg(threads)).unwrap();
            let mut files = Vec::new();
            for step in 1..=3u64 {
                let s = store.commit(&golden_image(step)).unwrap();
                assert_eq!(s.full, step == 1);
                for name in ["blocks.bin", "manifest.bin"] {
                    files.push(std::fs::read(store.epoch_dir(step).join(name)).unwrap());
                }
            }
            // Every codec and both kinds of skip are on the path.
            let refs = |e: u64| -> Vec<BlockLoc> {
                let m = store.read_manifest(e).unwrap();
                let sections = m.ranks.iter().flat_map(|r| &r.3);
                sections.flat_map(|(_, b)| b.iter().map(|x| x.1)).collect()
            };
            for codec in [BlockCodec::Raw, BlockCodec::Lz4, BlockCodec::ShuffleLz4] {
                assert!(refs(1).iter().any(|l| l.codec == codec), "{codec:?} unused");
            }
            assert!(store.stats()[2].bytes_hashed < store.stats()[1].bytes_hashed);
            assert!(store.stats()[2].blocks_new > 0);
            assert_eq!(store.load_epoch(3).unwrap(), golden_image(3));
            chains.push(files);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert!(
            chains[0] == chains[1] && chains[0] == chains[2],
            "bytes moved with writer_threads"
        );
        let digests: Vec<u64> = chains[0].iter().map(|f| fnv1a(f)).collect();
        assert_eq!(digests, GOLDEN, "chain bytes moved: {digests:#018x?}");
    }

    #[test]
    fn repeated_commits_of_one_image_yield_identical_stats() {
        let mut seen: Vec<Vec<EpochStats>> = Vec::new();
        for _ in 0..20 {
            let dir = tmp_dir("samestats");
            let mut store = DeltaStore::open_with(&dir, golden_cfg(7)).unwrap();
            for step in 1..=2 {
                store.commit(&golden_image(step)).unwrap();
            }
            assert_eq!(store.stats(), store.epoch_stats_on_disk().unwrap());
            seen.push(store.stats().to_vec());
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert!(seen.iter().all(|s| *s == seen[0]), "{seen:?}");
    }

    /// Everything a commit publishes into the handle, in comparable form.
    fn handle_state(store: &DeltaStore) -> impl PartialEq + std::fmt::Debug {
        let index: BTreeMap<BlockKey, (u64, u64)> = store
            .index
            .iter()
            .map(|(&k, l)| (k, (l.epoch, l.offset)))
            .collect();
        let cache: BTreeMap<(usize, String), (u64, usize)> = store
            .section_cache
            .iter()
            .map(|(k, c)| (k.clone(), (c.generation, c.refs.len())))
            .collect();
        let stats = store.stats.clone();
        (store.epochs.clone(), store.chain_len, index, cache, stats)
    }

    #[test]
    fn failed_commit_leaves_the_handle_unchanged_and_a_retry_restores() {
        let dir = tmp_dir("failed_commit");
        let cfg = StoreConfig {
            max_chain: 1,
            retain_epochs: 10,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        store.commit(&hinted_image(1, 3, 0x11, 3000)).unwrap();
        // Epoch 2 is a delta attempt, epoch 3 a `full` rebase attempt.
        for epoch in [2u64, 3] {
            let img = hinted_image(epoch, 3, 0x11 * epoch as u8, 3000);
            // A non-empty directory in the epoch's place fails the rename.
            let obstacle = store.epoch_dir(epoch);
            std::fs::create_dir_all(obstacle.join("squatter")).unwrap();
            let before = handle_state(&store);
            match store.commit(&img) {
                Err(StoreError::Io { op: "rename", .. }) => {}
                other => panic!("expected the rename to fail, got {other:?}"),
            }
            assert!(
                handle_state(&store) == before,
                "a failed commit moved the handle"
            );
            assert_eq!(
                store.load_latest().unwrap().ranks[0].epoch,
                epoch - 1,
                "the chain still restores its head"
            );
            std::fs::remove_dir_all(&obstacle).unwrap();
            let s = store.commit(&img).unwrap();
            assert_eq!((s.epoch, s.full), (epoch, epoch == 3));
            assert!(
                s.blocks_new > 0,
                "the retry writes what the attempt could not"
            );
            assert_eq!(store.load_latest().unwrap(), img);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // -----------------------------------------------------------------
    // Corruption fuzz: decode must *return* errors, never panic or
    // allocate absurdly, on any mangled input.
    // -----------------------------------------------------------------

    /// A representative in-memory manifest (both formats), encoded
    /// without touching disk.
    fn sample_manifest_buf(format: ManifestFormat) -> Vec<u8> {
        let block = |e: u64, off: u64, codec: BlockCodec| {
            (
                (0x1111 + off, 0x2222 + off),
                BlockLoc {
                    epoch: e,
                    offset: off,
                    len: 96,
                    raw_len: if codec == BlockCodec::Raw { 96 } else { 128 },
                    crc: 0xDEAD_BEEF,
                    codec,
                },
            )
        };
        let codec = |i: u64| match (format, i % 3) {
            (ManifestFormat::V1, _) => BlockCodec::Raw,
            (_, 0) => BlockCodec::Raw,
            (_, 1) => BlockCodec::Lz4,
            _ => BlockCodec::ShuffleLz4,
        };
        let manifest = Manifest {
            epoch: 9,
            full: false,
            vendor_hint: "Open MPI".to_string(),
            bytes_hashed: 4096,
            ranks: (0..3usize)
                .map(|r| {
                    (
                        r,
                        3,
                        9u64,
                        vec![
                            (
                                "memory/u".to_string(),
                                (0..4).map(|i| block(9 - i % 2, i * 96, codec(i))).collect(),
                            ),
                            (
                                "meta".to_string(),
                                vec![block(9, 1000 + r as u64, BlockCodec::Raw)],
                            ),
                        ],
                    )
                })
                .collect(),
        };
        manifest.encode(format)
    }

    proptest::proptest! {
        #[test]
        fn fused_scan_equals_the_separate_passes(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24_000),
            avg in 0usize..3,
        ) {
            let avg = [64, 128, 4096][avg];
            proptest::prop_assert_eq!(
                DeltaStore::cut_and_hash(&data, avg),
                cut_and_hash_reference(&data, avg)
            );
        }

        #[test]
        fn flipped_manifest_bytes_always_error(
            pos in 0usize..10_000,
            xor in 1u8..=255,
            v1 in proptest::prelude::any::<bool>(),
        ) {
            let format = if v1 { ManifestFormat::V1 } else { ManifestFormat::V2 };
            let mut buf = sample_manifest_buf(format);
            let pos = pos % buf.len();
            buf[pos] ^= xor;
            // Any single-byte flip breaks the FNV trailer (or the
            // trailer itself): decode must report it, never panic.
            proptest::prop_assert!(Manifest::decode(&buf).is_err());
        }

        #[test]
        fn truncated_or_padded_manifests_never_panic(
            cut in 0usize..10_000,
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            v1 in proptest::prelude::any::<bool>(),
        ) {
            let format = if v1 { ManifestFormat::V1 } else { ManifestFormat::V2 };
            let mut buf = sample_manifest_buf(format);
            buf.truncate(cut % (buf.len() + 1));
            buf.extend_from_slice(&tail);
            // Outcome may be Ok only for the untouched buffer; all that
            // is *required* is no panic and no absurd allocation.
            let _ = Manifest::decode(&buf);
        }

        #[test]
        fn random_garbage_manifests_never_panic(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            // An accidental FNV-trailer match on random bytes is a
            // ~2^-64 event: random garbage must always be rejected.
            proptest::prop_assert!(Manifest::decode(&data).is_err());
        }
    }
}
