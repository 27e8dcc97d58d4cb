//! The manifest codec: one epoch's block references, checksummed (see the
//! chain format in [`super`]).

use std::collections::BTreeSet;

use crate::codec::{CodecError, Reader, Writer};

use super::block::BlockCodec;

const MANIFEST_MAGIC: u64 = 0x434B_5054_4348_4E31; // "CKPTCHN1"
/// The one manifest version the tree reads and writes: a per-block
/// codec byte and raw length, a `bytes_hashed` header field, and
/// [`crate::codec::content_key`]s. Versions 1 and 2 (FNV-1a keys) are
/// retired: they fail to decode like any other unknown version.
const MANIFEST_V3: u64 = 3;
/// Bytes of one block reference on disk.
const BLOCK_REC: usize = 45;
/// Minimum bytes a rank header (rank, world, epoch, nsections) consumes.
const RANK_REC_MIN: usize = 32;
/// Minimum bytes a section (name length prefix + nblocks) consumes.
const SECTION_REC_MIN: usize = 16;

/// 128-bit content identity of a block: its
/// [`crate::codec::content_key`]. A key collision would dedup distinct
/// content (the manifest would reference the older block, whose bytes
/// pass their own CRC), so the collision risk is *accepted*, not detected
/// — acceptable because two equal-length blocks that differ in one word
/// always get different keys, and the joint collision odds at simulation
/// scales are negligible.
pub(super) type BlockKey = (u64, u64);

/// Where a block's bytes live on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct BlockLoc {
    /// The epoch whose `blocks.bin` holds the bytes.
    pub(super) epoch: u64,
    /// Byte offset within that file.
    pub(super) offset: u64,
    /// Stored (possibly compressed) length in bytes.
    pub(super) len: u32,
    /// Uncompressed length in bytes (`== len` for raw blocks).
    pub(super) raw_len: u32,
    /// CRC32 of the *stored* bytes — corruption is detected before any
    /// decompression is attempted.
    pub(super) crc: u32,
    /// How the stored bytes encode the raw bytes.
    pub(super) codec: BlockCodec,
}

/// A section's ordered block references inside a manifest.
pub(super) type SectionRefs = (String, Vec<(BlockKey, BlockLoc)>);

/// In-memory form of one epoch's manifest.
pub(super) struct Manifest {
    pub(super) epoch: u64,
    pub(super) full: bool,
    pub(super) vendor_hint: String,
    /// Bytes of section payload this commit actually chunked and hashed.
    pub(super) bytes_hashed: u64,
    /// Per rank: the `RankImage` header plus its sections' block refs.
    pub(super) ranks: Vec<(usize, usize, u64, Vec<SectionRefs>)>,
}

impl Manifest {
    /// The epochs whose `blocks.bin` this manifest's refs point into.
    pub(super) fn referenced_epochs(&self) -> BTreeSet<u64> {
        let sections = self.ranks.iter().flat_map(|(_, _, _, sections)| sections);
        let refs = sections.flat_map(|(_, blocks)| blocks);
        refs.map(|(_, loc)| loc.epoch).collect()
    }

    /// Encode as V3, the one format the tree writes.
    pub(super) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(MANIFEST_MAGIC);
        w.u64(MANIFEST_V3);
        w.u64(self.epoch);
        w.u8(self.full as u8);
        w.string(&self.vendor_hint);
        w.u64(self.bytes_hashed);
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
                    w.u32(loc.raw_len);
                    w.u32(loc.crc);
                    w.u8(loc.codec.to_u8());
                }
            }
        }
        w.finish()
    }

    /// Decode a V3 manifest. Every count field is clamped
    /// against the bytes actually remaining in the buffer (each record
    /// has a known minimum size) and every block's `raw_len` against its
    /// stored length, so a corrupted or hostile count or length can
    /// never drive a multi-gigabyte allocation — it returns
    /// [`CodecError::LengthOutOfBounds`] instead of aborting the process.
    pub(super) fn decode(buf: &[u8]) -> Result<Manifest, CodecError> {
        let mut r = Reader::checked(buf)?;
        r.expect_magic(MANIFEST_MAGIC)?;
        let version = r.u64()?;
        if version != MANIFEST_V3 {
            return Err(CodecError::BadMagic {
                expected: MANIFEST_V3,
                found: version,
            });
        }
        let epoch = r.u64()?;
        let full = r.u8()? != 0;
        let vendor_hint = r.string()?;
        let bytes_hashed = r.u64()?;
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
                let nblocks = clamp(nblocks, BLOCK_REC, r.remaining())?;
                let mut blocks = Vec::with_capacity(nblocks);
                for _ in 0..nblocks {
                    let key = (r.u64()?, r.u64()?);
                    let src_epoch = r.u64()?;
                    let offset = r.u64()?;
                    let len = r.u32()?;
                    let raw_len = r.u32()?;
                    let crc = r.u32()?;
                    let codec = BlockCodec::from_u8(r.u8()?)?;
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

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::DeltaStore;
    use super::*;

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
            w.u64(MANIFEST_V3);
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
            Manifest::decode(&manifest.encode())
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

    // -----------------------------------------------------------------
    // Corruption fuzz: decode must *return* errors, never panic or
    // allocate absurdly, on any mangled input.
    // -----------------------------------------------------------------

    #[test]
    fn a_retired_version_is_an_unknown_version_error() {
        // A V3 buffer relabelled version 1, its trailer re-sealed so the
        // checksum passes: the version check alone must refuse it.
        let mut buf = sample_manifest_buf();
        buf.truncate(buf.len() - 8);
        buf[8..16].copy_from_slice(&1u64.to_le_bytes());
        let sum = crate::codec::fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        match Manifest::decode(&buf) {
            Err(CodecError::BadMagic { expected, found }) => {
                assert_eq!((expected, found), (MANIFEST_V3, 1));
            }
            Err(other) => panic!("expected the unknown-version error, got {other:?}"),
            Ok(_) => panic!("a version-1 manifest decoded"),
        }
    }

    /// A representative manifest, V3 encoded in memory without touching
    /// disk.
    fn sample_manifest_buf() -> Vec<u8> {
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
        let codec = |i: u64| match i % 3 {
            0 => BlockCodec::Raw,
            1 => BlockCodec::Lz4,
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
        manifest.encode()
    }

    proptest::proptest! {
        #[test]
        fn flipped_manifest_bytes_always_error(
            pos in 0usize..10_000,
            xor in 1u8..=255,
        ) {
            let mut buf = sample_manifest_buf();
            let pos = pos % buf.len();
            buf[pos] ^= xor;
            // Any single-byte flip breaks the FNV trailer (or the
            // trailer itself): decode must report it, never panic.
            proptest::prop_assert!(Manifest::decode(&buf).is_err());
        }
    }

    proptest::proptest! {
        #[test]
        fn truncated_or_padded_manifests_never_panic(
            cut in 0usize..10_000,
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let mut buf = sample_manifest_buf();
            buf.truncate(cut % (buf.len() + 1));
            buf.extend_from_slice(&tail);
            // Outcome may be Ok only for the untouched buffer; all that
            // is *required* is no panic and no absurd allocation.
            let _ = Manifest::decode(&buf);
        }
    }

    proptest::proptest! {
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
