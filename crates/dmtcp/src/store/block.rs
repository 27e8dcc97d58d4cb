//! The block codec — raw, LZ4 or byte-shuffled LZ4 per block — and the
//! scoped-thread fan-out commit and load share.

use crate::codec::CodecError;

use super::Compression;

/// Blocks shorter than this are never worth a compression attempt.
const MIN_COMPRESS_LEN: usize = 64;

/// How a block's bytes are stored on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum BlockCodec {
    /// Raw bytes (always the case in v1 chains).
    Raw,
    /// LZ4 block compression.
    Lz4,
    /// 8-stride byte shuffle, then LZ4 (the `f64` filter).
    ShuffleLz4,
}

impl BlockCodec {
    pub(super) fn to_u8(self) -> u8 {
        match self {
            BlockCodec::Raw => 0,
            BlockCodec::Lz4 => 1,
            BlockCodec::ShuffleLz4 => 2,
        }
    }

    pub(super) fn from_u8(b: u8) -> Result<BlockCodec, CodecError> {
        match b {
            0 => Ok(BlockCodec::Raw),
            1 => Ok(BlockCodec::Lz4),
            2 => Ok(BlockCodec::ShuffleLz4),
            other => Err(CodecError::LengthOutOfBounds(other as u64)),
        }
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
pub(super) fn fan_out<T: Sync, R: Send>(
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
pub(super) fn encode_block(raw: &[u8], compression: Compression) -> (BlockCodec, Option<Vec<u8>>) {
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
pub(super) fn decode_block(
    stored: &[u8],
    codec: BlockCodec,
    out: &mut [u8],
    scratch: &mut Vec<u8>,
) -> bool {
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

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::{DeltaStore, StoreConfig};
    use super::*;

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
}
