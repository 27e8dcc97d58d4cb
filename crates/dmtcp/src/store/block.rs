//! The block codec — raw, LZ4 or byte-shuffled LZ4 per block — and the
//! scoped-thread fan-out commit and load share.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::codec::CodecError;

use super::Compression;

/// Blocks shorter than this are never worth a compression attempt.
const MIN_COMPRESS_LEN: usize = 64;

/// How a block's bytes are stored on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum BlockCodec {
    /// Raw bytes.
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
/// Each group of eight words is one [`transpose8`]: eight words in, eight
/// bytes of each lane out; the words past the last group move byte by
/// byte. Written into `out` (same length as `data`).
fn shuffle8(data: &[u8], out: &mut [u8]) {
    let words = data.len() / 8;
    let grouped = words / 8 * 8;
    for (g, group) in data[..grouped * 8].chunks_exact(64).enumerate() {
        let mut m: [u64; 8] = std::array::from_fn(|r| load64(&group[8 * r..]));
        transpose8(&mut m);
        for (k, lane) in m.iter().enumerate() {
            out[k * words + 8 * g..][..8].copy_from_slice(&lane.to_le_bytes());
        }
    }
    for (k, w) in (0..8).flat_map(|k| (grouped..words).map(move |w| (k, w))) {
        out[k * words + w] = data[8 * w + k];
    }
    out[words * 8..].copy_from_slice(&data[words * 8..]);
}

/// Inverse of [`shuffle8`], written into `out` (same length as `data`).
fn unshuffle8(data: &[u8], out: &mut [u8]) {
    let words = data.len() / 8;
    let grouped = words / 8 * 8;
    for (g, group) in out[..grouped * 8].chunks_exact_mut(64).enumerate() {
        let mut m: [u64; 8] = std::array::from_fn(|k| load64(&data[k * words + 8 * g..]));
        transpose8(&mut m);
        for (word, row) in group.chunks_exact_mut(8).zip(m) {
            word.copy_from_slice(&row.to_le_bytes());
        }
    }
    for (k, w) in (0..8).flat_map(|k| (grouped..words).map(move |w| (k, w))) {
        out[8 * w + k] = data[k * words + w];
    }
    out[words * 8..].copy_from_slice(&data[words * 8..]);
}

/// The little-endian `u64` at the start of `bytes`.
fn load64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Transpose an 8 × 8 byte matrix held as eight little-endian rows, in
/// place: byte `c` of `m[r]` trades places with byte `r` of `m[c]`. Three
/// mask-and-shift rounds swap the off-diagonal 4 × 4, 2 × 2 and 1 × 1
/// blocks.
fn transpose8(m: &mut [u64; 8]) {
    let rounds = [
        (4, 0x0000_0000_FFFF_FFFF, [0, 1, 2, 3]),
        (2, 0x0000_FFFF_0000_FFFF, [0, 1, 4, 5]),
        (1, 0x00FF_00FF_00FF_00FF, [0, 2, 4, 6]),
    ];
    for (s, mask, rows) in rounds {
        for r in rows {
            let t = (m[r] >> (8 * s) ^ m[r + s]) & mask;
            m[r] ^= t << (8 * s);
            m[r + s] ^= t;
        }
    }
}

/// Map `f(index, item)` over `items` on up to `threads` scoped threads
/// and return the results in item order. Each thread takes the next
/// unclaimed item from a shared cursor, so one heavy item (a chain's
/// base) does not leave a thread idle behind it. One thread or one item
/// runs inline on the caller.
pub(super) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // `Relaxed`: the cursor only hands out indices; each result comes
    // back to the caller through its thread's join.
    let next = AtomicUsize::new(0);
    let work = || {
        let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < items.len());
        std::iter::from_fn(claim)
            .map(|i| (i, f(i, &items[i])))
            .collect::<Vec<_>>()
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(work)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fan-out thread"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// One encode worker's buffers, kept from block to block: the shuffled
/// bytes and one output slice per LZ4 attempt.
#[derive(Default)]
pub(super) struct EncodeScratch {
    shuffled: Vec<u8>,
    sh: Vec<u8>,
    lz: Vec<u8>,
}

/// The first `len` bytes of `buf`, grown (never shrunk) to hold them.
fn first(buf: &mut Vec<u8>, len: usize) -> &mut [u8] {
    if buf.len() < len {
        buf.resize(len, 0);
    }
    &mut buf[..len]
}

/// Pick the smallest stored form of a raw block under the configured
/// compression: the codec and the bytes to store, `raw` itself or a slice
/// of `scratch`. A compressed form must be strictly smaller than `raw`,
/// and ties go to `Lz4` before `ShuffleLz4`, so each attempt gets exactly
/// the room it would win in and gives up past it: the shuffled one
/// `raw.len() - 1` bytes, then plain LZ4 the shuffled length, or
/// `raw.len() - 1` if the shuffled attempt did not fit. Deterministic per
/// content.
pub(super) fn encode_block<'a>(
    raw: &'a [u8],
    compression: Compression,
    scratch: &'a mut EncodeScratch,
) -> (BlockCodec, &'a [u8]) {
    if compression == Compression::None || raw.len() < MIN_COMPRESS_LEN {
        return (BlockCodec::Raw, raw);
    }
    let EncodeScratch { shuffled, sh, lz } = scratch;
    let shuffled = first(shuffled, raw.len());
    shuffle8(raw, shuffled);
    let sh_len = lz4_flex::compress_into(shuffled, first(sh, raw.len() - 1)).ok();
    let lz_room = first(lz, sh_len.unwrap_or(raw.len() - 1));
    match (lz4_flex::compress_into(raw, lz_room), sh_len) {
        (Ok(n), _) => (BlockCodec::Lz4, &lz[..n]),
        (Err(_), Some(n)) => (BlockCodec::ShuffleLz4, &sh[..n]),
        (Err(_), None) => (BlockCodec::Raw, raw),
    }
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
        for len in (0..=600usize).chain(4087..=4105) {
            let data = fill_bytes(len as u64 + 1, len);
            let mut shuffled = vec![0xEEu8; len];
            shuffle8(&data, &mut shuffled);
            assert_eq!(shuffled, shuffle8_by_index(&data), "shuffle, len {len}");
            let mut back = vec![0xEEu8; len];
            unshuffle8(&shuffled, &mut back);
            assert_eq!(back, data, "round trip, len {len}");
        }
    }

    /// The rule [`encode_block`]'s bounded attempts implement: compress
    /// both forms in full, keep the strictly smallest, `Lz4` before
    /// `ShuffleLz4` before `Raw`.
    fn encode_block_reference(raw: &[u8]) -> (BlockCodec, Vec<u8>) {
        let full = |data: &[u8]| {
            let mut out = vec![0u8; lz4_flex::get_maximum_output_size(data.len())];
            let n = lz4_flex::compress_into(data, &mut out).expect("maximum size fits");
            out[..n].to_vec()
        };
        let mut shuffled = vec![0u8; raw.len()];
        shuffle8(raw, &mut shuffled);
        let (lz, sh) = (full(raw), full(&shuffled));
        if raw.len() < MIN_COMPRESS_LEN {
            (BlockCodec::Raw, raw.to_vec())
        } else if lz.len() < raw.len() && lz.len() <= sh.len() {
            (BlockCodec::Lz4, lz)
        } else if sh.len() < raw.len() {
            (BlockCodec::ShuffleLz4, sh)
        } else {
            (BlockCodec::Raw, raw.to_vec())
        }
    }

    #[test]
    fn bounded_attempts_pick_what_compressing_both_in_full_picks() {
        let staircase = |n: u64| (0..n).flat_map(|i| ((i / 8) as f64).to_le_bytes());
        let text = |n: usize| (0..n).map(|i| b"checkpoint "[(i * 7) % 11] + (i / 500) as u8);
        // Large blocks first, then small ones: a reused buffer holds stale
        // bytes past every later block's length.
        let blocks: Vec<Vec<u8>> = vec![
            fill_bytes(1, 16_384),
            staircase(2048).collect(),
            text(8000).collect(),
            vec![0x5A; 4096],
            staircase(8).collect(),
            fill_bytes(2, 64),
            text(64).collect(),
            vec![0; 64],
            fill_bytes(3, 63),
        ];
        let mut scratch = EncodeScratch::default();
        let mut codecs = Vec::new();
        for raw in &blocks {
            let (codec, stored) = encode_block(raw, Compression::Lz4, &mut scratch);
            let (want_codec, want) = encode_block_reference(raw);
            assert_eq!(
                (codec, stored),
                (want_codec, &want[..]),
                "len {}",
                raw.len()
            );
            codecs.push(codec);
        }
        for codec in [BlockCodec::Raw, BlockCodec::Lz4, BlockCodec::ShuffleLz4] {
            assert!(
                codecs.contains(&codec),
                "{codec:?} never chosen: {codecs:?}"
            );
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
