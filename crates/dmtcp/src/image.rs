//! Checkpoint images: one per rank, grouped per world.
//!
//! A [`RankImage`] is a set of named sections, each an opaque byte blob
//! produced by a layer of the stack (the platform writes `memory` and
//! `meta`; the MANA layer adds `mana.vids`, `mana.pool`, `mana.counters`).
//! This sectioning mirrors how DMTCP plugins contribute areas to a real
//! `.dmtcp` image. A [`WorldImage`] reaches disk only as an epoch of the
//! delta chain ([`crate::store`]); [`RankImage::encode`] is a checksummed
//! in-memory codec for one rank's image, not a file format.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::codec::{CodecError, Reader, Writer};

const RANK_MAGIC: u64 = 0x4D50_4953_544F_4F4C; // "MPISTOOL"
const IMAGE_VERSION: u64 = 1;

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

    /// Remove a section and hand over its bytes: moved when this image
    /// alone holds them, copied when they are shared (with a clone of the
    /// image, or with a producer's cache).
    pub fn take_section(&mut self, name: &str) -> Option<Vec<u8>> {
        self.hints.remove(name);
        self.sections.remove(name).map(Arc::unwrap_or_clone)
    }

    /// The clean-segment hint of a section, if its producer supplied one.
    pub fn section_hint(&self, name: &str) -> Option<u64> {
        self.hints.get(name).copied()
    }

    /// Fetch a section.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections.get(name).map(|data| data.as_slice())
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

/// A borrowed image as an owned one that shares its sections: taking a
/// section from it copies the bytes and leaves `image` as it was.
impl From<&RankImage> for RankImage {
    fn from(image: &RankImage) -> RankImage {
        image.clone()
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
            back.sections().map(|(name, _)| name).collect::<Vec<_>>(),
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
    fn a_section_the_image_alone_holds_moves_and_a_shared_one_is_copied() {
        let mut img = sample_image(0);
        let held = img.section("memory").unwrap().as_ptr();
        let shared = img.clone();
        // Shared with `shared`: a copy, and the other holder keeps its own.
        let copy = img.take_section("memory").unwrap();
        assert_ne!(copy.as_ptr(), held);
        assert_eq!(copy, [1, 2, 3, 0]);
        assert_eq!(shared.section("memory").unwrap().as_ptr(), held);
        assert_eq!(shared, sample_image(0));
        assert_eq!(img.section("memory"), None);
        // Held by this image alone: the buffer itself.
        let mut img = RankImage::from(&shared);
        drop(shared);
        let moved = img.take_section("memory").unwrap();
        assert_eq!(moved.as_ptr(), held);
        assert_eq!(img.take_section("memory"), None);
    }

    #[test]
    fn corrupted_rank_image_rejected() {
        let img = sample_image(0);
        let mut buf = img.encode();
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        assert!(RankImage::decode(&buf).is_err());
    }
}
