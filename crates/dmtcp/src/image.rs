//! Checkpoint images: one per rank, grouped per world, savable to files.
//!
//! A [`RankImage`] is a set of named sections, each an opaque byte blob
//! produced by a layer of the stack (the platform writes `memory` and
//! `meta`; the MANA layer adds `mana.vids`, `mana.pool`, `mana.counters`).
//! This sectioning mirrors how DMTCP plugins contribute areas to a real
//! `.dmtcp` image.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write as IoWrite};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec::{CodecError, Reader, Writer};

const RANK_MAGIC: u64 = 0x4D50_4953_544F_4F4C; // "MPISTOOL"
const IMAGE_VERSION: u64 = 1;

/// What went wrong saving or loading a checkpoint image, with enough
/// context (rank, epoch, path) to name the exact artifact at fault — a
/// torn restart must say *which* file of *which* rank broke, not just
/// "parse error".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// A filesystem operation failed. `rank` is `None` for world-level
    /// files (`world.meta`).
    Io {
        /// The operation that failed ("create", "open", "read", ...).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The rank whose image was being handled, if any.
        rank: Option<usize>,
        /// The OS error, stringified (keeps the error cloneable).
        msg: String,
    },
    /// A rank image failed to decode (truncated, corrupted, bad magic).
    Decode {
        /// The rank whose image failed.
        rank: usize,
        /// The path read.
        path: PathBuf,
        /// The codec-level cause.
        source: CodecError,
    },
    /// The world metadata file failed to decode.
    Meta {
        /// The path read.
        path: PathBuf,
        /// The codec-level cause.
        source: CodecError,
    },
    /// A rank image's header does not belong where it was found.
    RankMismatch {
        /// The rank expected from the file name / slot.
        expected: usize,
        /// The rank the image header claims.
        found: usize,
        /// The path read.
        path: PathBuf,
    },
    /// The delta-checkpoint store failed while persisting or rebuilding an
    /// epoch (see [`crate::store`]); carried here so checkpoint-protocol
    /// callers see one error type.
    Store {
        /// The epoch involved (0 when unknown).
        epoch: u64,
        /// The store-level cause, stringified.
        msg: String,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Io {
                op,
                path,
                rank,
                msg,
            } => match rank {
                Some(r) => write!(f, "{op} {} (rank {r} image): {msg}", path.display()),
                None => write!(f, "{op} {}: {msg}", path.display()),
            },
            ImageError::Decode { rank, path, source } => {
                write!(f, "rank {rank} image {}: {source}", path.display())
            }
            ImageError::Meta { path, source } => {
                write!(f, "world metadata {}: {source}", path.display())
            }
            ImageError::RankMismatch {
                expected,
                found,
                path,
            } => write!(
                f,
                "rank image {} claims rank {found}, expected rank {expected}",
                path.display()
            ),
            ImageError::Store { epoch, msg } => {
                write!(f, "checkpoint store (epoch {epoch}): {msg}")
            }
        }
    }
}

impl std::error::Error for ImageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImageError::Decode { source, .. } | ImageError::Meta { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ImageError {
    fn io(op: &'static str, path: &Path, rank: Option<usize>, e: std::io::Error) -> ImageError {
        ImageError::Io {
            op,
            path: path.to_path_buf(),
            rank,
            msg: e.to_string(),
        }
    }
}

/// Write `data` to `path` crash-safely: write to a sibling temp file, then
/// atomically rename over the destination. An interrupted writer can leave
/// a stray `*.tmp`, never a torn destination file.
pub(crate) fn write_atomic(
    path: &Path,
    data: &[u8],
    rank: Option<usize>,
) -> Result<(), ImageError> {
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp).map_err(|e| ImageError::io("create", &tmp, rank, e))?;
    f.write_all(data)
        .map_err(|e| ImageError::io("write", &tmp, rank, e))?;
    f.sync_all()
        .map_err(|e| ImageError::io("sync", &tmp, rank, e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| ImageError::io("rename", path, rank, e))
}

/// A single rank's checkpoint image.
///
/// Sections are shared, immutable `Arc<Vec<u8>>` buffers: a clone of the
/// image, or a section a producer that keeps its encoded state between
/// checkpoints hands over with [`RankImage::put_section_shared`], copies
/// no bytes. Sharing is invisible to [`RankImage::section`], equality and
/// the codec.
#[derive(Debug, Clone, Default)]
pub struct RankImage {
    /// Rank id within the world at checkpoint time.
    pub rank: usize,
    /// World size at checkpoint time.
    pub nranks: usize,
    /// Checkpoint epoch (coordinator-assigned, monotonic).
    pub epoch: u64,
    /// Named sections, possibly shared with their producer.
    sections: BTreeMap<String, Arc<Vec<u8>>>,
    /// Transient clean-segment hints: per section, the producer's
    /// generation stamp (see [`crate::memory::Memory::generation`]). The
    /// delta store skips chunking and hashing a section whose hint has
    /// not moved since the store handle's previous commit. Hints are run-local
    /// advice — never serialized, never part of image equality — so a
    /// reloaded image simply carries none and is fully re-hashed.
    hints: BTreeMap<String, u64>,
}

/// Equality is over the durable payload (header + sections); the
/// transient dirty-tracking hints never participate, so an image
/// reconstructed from disk compares equal to the one checkpointed.
impl PartialEq for RankImage {
    fn eq(&self, other: &RankImage) -> bool {
        self.rank == other.rank
            && self.nranks == other.nranks
            && self.epoch == other.epoch
            && self.sections == other.sections
    }
}

impl Eq for RankImage {}

impl RankImage {
    /// New empty image for a rank.
    pub fn new(rank: usize, nranks: usize, epoch: u64) -> RankImage {
        RankImage {
            rank,
            nranks,
            epoch,
            sections: BTreeMap::new(),
            hints: BTreeMap::new(),
        }
    }

    /// Add or replace a section.
    pub fn put_section(&mut self, name: &str, data: Vec<u8>) {
        self.hints.remove(name);
        self.sections.insert(name.to_string(), Arc::new(data));
    }

    /// Add or replace a section together with its producer generation
    /// stamp (the clean-segment hint the delta store uses to skip
    /// hashing unchanged sections). The stamp must move whenever the
    /// data may have changed; a conservative producer that cannot tell
    /// should use [`RankImage::put_section`] instead.
    pub fn put_section_hinted(&mut self, name: &str, data: Vec<u8>, generation: u64) {
        self.put_section_shared(name, Arc::new(data), generation);
    }

    /// [`RankImage::put_section_hinted`] with bytes the producer keeps a
    /// reference to: a producer that caches each section's encoding by
    /// its generation stamp re-references an unchanged one here instead
    /// of encoding it again.
    pub fn put_section_shared(&mut self, name: &str, data: Arc<Vec<u8>>, generation: u64) {
        self.sections.insert(name.to_string(), data);
        self.hints.insert(name.to_string(), generation);
    }

    /// The clean-segment hint of a section, if its producer supplied one.
    pub fn section_hint(&self, name: &str) -> Option<u64> {
        self.hints.get(name).copied()
    }

    /// Fetch a section.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections.get(name).map(|data| data.as_slice())
    }

    /// Section names in deterministic order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }

    /// All sections as `(name, data)` pairs in deterministic order (the
    /// delta store chunks each section independently).
    pub fn sections(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.sections
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Total payload size (what would hit the parallel filesystem).
    pub fn total_bytes(&self) -> usize {
        self.sections.values().map(|data| data.len()).sum()
    }

    /// Serialize with magic, version and checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(RANK_MAGIC);
        w.u64(IMAGE_VERSION);
        w.u64(self.rank as u64);
        w.u64(self.nranks as u64);
        w.u64(self.epoch);
        w.u64(self.sections.len() as u64);
        for (name, data) in &self.sections {
            w.string(name);
            w.bytes(data);
        }
        w.finish()
    }

    /// Deserialize, verifying checksum and magic.
    pub fn decode(buf: &[u8]) -> Result<RankImage, CodecError> {
        let mut r = Reader::checked(buf)?;
        r.expect_magic(RANK_MAGIC)?;
        r.expect_magic(IMAGE_VERSION)?;
        let rank = r.u64()? as usize;
        let nranks = r.u64()? as usize;
        let epoch = r.u64()?;
        let nsections = r.u64()?;
        if nsections > 4096 {
            return Err(CodecError::LengthOutOfBounds(nsections));
        }
        let mut sections = BTreeMap::new();
        for _ in 0..nsections {
            let name = r.string()?;
            let data = r.bytes()?.to_vec();
            sections.insert(name, Arc::new(data));
        }
        Ok(RankImage {
            rank,
            nranks,
            epoch,
            sections,
            hints: BTreeMap::new(),
        })
    }
}

/// The set of images of one checkpointed world, plus world-level metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldImage {
    /// Which MPI library the world ran under when checkpointed (hint only:
    /// the whole point of the paper is that restart may pick another).
    pub vendor_hint: String,
    /// Per-rank images, indexed by rank.
    pub ranks: Vec<RankImage>,
}

impl WorldImage {
    /// Assemble from per-rank images (must be dense in rank order).
    pub fn new(vendor_hint: String, ranks: Vec<RankImage>) -> WorldImage {
        WorldImage { vendor_hint, ranks }
    }

    /// World size.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Total bytes across all rank images.
    pub fn total_bytes(&self) -> usize {
        self.ranks.iter().map(RankImage::total_bytes).sum()
    }

    /// File path of one rank's image under `dir`.
    pub fn rank_path(dir: &Path, rank: usize) -> PathBuf {
        dir.join(format!("ckpt_rank_{rank:05}.img"))
    }

    /// Save all rank images under a directory (like `ckpt_*.dmtcp` files).
    ///
    /// Crash-safe: every file is written to a temp path and atomically
    /// renamed into place, so an interrupted save can leave stray `*.tmp`
    /// files but never a torn image that [`WorldImage::load_dir`]
    /// half-parses.
    pub fn save_dir(&self, dir: &Path) -> Result<(), ImageError> {
        std::fs::create_dir_all(dir).map_err(|e| ImageError::io("create dir", dir, None, e))?;
        let mut meta = Writer::new();
        meta.u64(RANK_MAGIC);
        meta.string(&self.vendor_hint);
        meta.u64(self.ranks.len() as u64);
        write_atomic(&dir.join("world.meta"), &meta.finish(), None)?;
        for img in &self.ranks {
            let path = Self::rank_path(dir, img.rank);
            write_atomic(&path, &img.encode(), Some(img.rank))?;
        }
        Ok(())
    }

    /// Load a world image from a directory.
    pub fn load_dir(dir: &Path) -> Result<WorldImage, ImageError> {
        let meta_path = dir.join("world.meta");
        let read_file = |path: &Path, rank: Option<usize>| -> Result<Vec<u8>, ImageError> {
            let mut buf = Vec::new();
            std::fs::File::open(path)
                .map_err(|e| ImageError::io("open", path, rank, e))?
                .read_to_end(&mut buf)
                .map_err(|e| ImageError::io("read", path, rank, e))?;
            Ok(buf)
        };
        let meta_buf = read_file(&meta_path, None)?;
        let meta_err = |source: CodecError| ImageError::Meta {
            path: meta_path.clone(),
            source,
        };
        let mut r = Reader::checked(&meta_buf).map_err(meta_err)?;
        r.expect_magic(RANK_MAGIC).map_err(meta_err)?;
        let vendor_hint = r.string().map_err(meta_err)?;
        let nranks = r.u64().map_err(meta_err)? as usize;
        let mut ranks = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            let path = Self::rank_path(dir, rank);
            let buf = read_file(&path, Some(rank))?;
            let img = RankImage::decode(&buf).map_err(|source| ImageError::Decode {
                rank,
                path: path.clone(),
                source,
            })?;
            if img.rank != rank {
                return Err(ImageError::RankMismatch {
                    expected: rank,
                    found: img.rank,
                    path,
                });
            }
            ranks.push(img);
        }
        Ok(WorldImage { vendor_hint, ranks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image(rank: usize) -> RankImage {
        let mut img = RankImage::new(rank, 4, 3);
        img.put_section("memory", vec![1, 2, 3, rank as u8]);
        img.put_section("mana.vids", vec![9; 16]);
        img
    }

    #[test]
    fn rank_image_round_trip() {
        let img = sample_image(2);
        let buf = img.encode();
        let back = RankImage::decode(&buf).unwrap();
        assert_eq!(img, back);
        assert_eq!(back.section("memory").unwrap(), &[1, 2, 3, 2]);
        assert_eq!(back.total_bytes(), 20);
        assert_eq!(
            back.section_names().collect::<Vec<_>>(),
            vec!["mana.vids", "memory"]
        );
    }

    #[test]
    fn a_shared_section_is_a_plain_section_to_equality_and_the_codec() {
        let data = Arc::new(vec![7u8; 32]);
        let mut shared = sample_image(1);
        shared.put_section_shared("memory/u", data.clone(), 9);
        let mut copied = sample_image(1);
        copied.put_section_hinted("memory/u", vec![7u8; 32], 3);
        assert_eq!(shared, copied);
        assert_eq!(shared.encode(), copied.encode());
        assert_eq!(shared.section_hint("memory/u"), Some(9));
        assert_eq!(Arc::strong_count(&data), 2, "shared, not copied");
    }

    #[test]
    fn corrupted_rank_image_rejected() {
        let img = sample_image(0);
        let mut buf = img.encode();
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        assert!(RankImage::decode(&buf).is_err());
    }

    #[test]
    fn world_image_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("stool_img_test_{}", std::process::id()));
        let world = WorldImage::new("Open MPI".to_string(), (0..4).map(sample_image).collect());
        world.save_dir(&dir).unwrap();
        let back = WorldImage::load_dir(&dir).unwrap();
        assert_eq!(world, back);
        assert_eq!(back.vendor_hint, "Open MPI");
        assert_eq!(back.nranks(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_image_file_detected() {
        let dir = std::env::temp_dir().join(format!("stool_img_trunc_{}", std::process::id()));
        let world = WorldImage::new("MPICH".to_string(), (0..2).map(sample_image).collect());
        world.save_dir(&dir).unwrap();
        // Truncate one rank's file.
        let path = WorldImage::rank_path(&dir, 1);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = WorldImage::load_dir(&dir).unwrap_err();
        assert!(matches!(err, ImageError::Decode { rank: 1, .. }), "{err}");
        assert!(err.to_string().contains("rank 1"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_temp_file_does_not_confuse_load() {
        // A crashed save may leave `*.tmp` files; the committed image must
        // still load, and the stray must not shadow a real rank file.
        let dir = std::env::temp_dir().join(format!("stool_img_tmp_{}", std::process::id()));
        let world = WorldImage::new("MPICH".to_string(), (0..2).map(sample_image).collect());
        world.save_dir(&dir).unwrap();
        std::fs::write(
            WorldImage::rank_path(&dir, 0).with_extension("tmp"),
            b"torn",
        )
        .unwrap();
        let back = WorldImage::load_dir(&dir).unwrap();
        assert_eq!(world, back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_rank_file_names_the_rank() {
        let dir = std::env::temp_dir().join(format!("stool_img_miss_{}", std::process::id()));
        let world = WorldImage::new("MPICH".to_string(), (0..2).map(sample_image).collect());
        world.save_dir(&dir).unwrap();
        std::fs::remove_file(WorldImage::rank_path(&dir, 1)).unwrap();
        let err = WorldImage::load_dir(&dir).unwrap_err();
        assert!(matches!(err, ImageError::Io { rank: Some(1), .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
