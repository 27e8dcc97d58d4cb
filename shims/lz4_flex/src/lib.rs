//! Offline stand-in for the `lz4_flex` crate.
//!
//! Implements the LZ4 *block* format (the real crate's `block` module
//! surface this workspace uses): a greedy hash-table matcher on the
//! compression side, LSIC-extended literal/match lengths, 16-bit offsets,
//! and an overlap-aware copy on the decompression side. Every read on the
//! decode path is bounds-checked and the output is capped at the caller's
//! expected size, so malformed or hostile input returns
//! [`DecompressError`] — it can never panic or balloon memory.
//!
//! Format rules honored (LZ4 block spec): a match is at least 4 bytes, a
//! match never starts within the last 12 bytes of the input, the last 5
//! bytes are always literals, and the final sequence is literals-only.

#![forbid(unsafe_code)]

use std::fmt;

/// Shortest representable match.
const MIN_MATCH: usize = 4;
/// A match must not start within this many bytes of the input end.
const MFLIMIT: usize = 12;
/// The last bytes of the input are always emitted as literals.
const LAST_LITERALS: usize = 5;
/// log2 of the matcher hash-table size.
const HASH_BITS: u32 = 13;

/// Why decompression failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// The compressed stream ended inside a token, length, offset or run.
    Truncated,
    /// A match offset was zero or reached before the output start.
    BadOffset,
    /// The output exceeded the size the caller declared.
    OutputTooLarge {
        /// The declared expected size.
        expected: usize,
    },
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed block truncated"),
            DecompressError::BadOffset => write!(f, "match offset outside decoded output"),
            DecompressError::OutputTooLarge { expected } => {
                write!(f, "decoded output exceeds expected {expected} bytes")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

fn hash(seq: u32) -> usize {
    (seq.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Append an LSIC-extended length (already reduced by the 15 carried in
/// the token nibble).
fn push_lsic(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

fn emit(out: &mut Vec<u8>, literals: &[u8], m: Option<(u16, usize)>) {
    let lit_nibble = literals.len().min(15);
    let match_nibble = m.map_or(0, |(_, len)| (len - MIN_MATCH).min(15));
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if literals.len() >= 15 {
        push_lsic(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, len)) = m {
        out.extend_from_slice(&offset.to_le_bytes());
        if len - MIN_MATCH >= 15 {
            push_lsic(out, len - MIN_MATCH - 15);
        }
    }
}

/// Compress `input` as one LZ4 block. Deterministic; an incompressible
/// input grows by at most `input.len()/255 + 16` bytes of framing.
pub fn compress(input: &[u8]) -> Vec<u8> {
    // Every position of an input this short fits a 16-bit slot: a
    // quarter of the table to zero per call, and it lives on the stack
    // (the real crate's `HashTable4KU16`).
    if input.len() <= u16::MAX as usize {
        compress_with(input, &mut [0u16; 1 << HASH_BITS])
    } else {
        compress_with(input, &mut vec![0usize; 1 << HASH_BITS])
    }
}

/// The greedy matcher over a zeroed `table` of `1 << HASH_BITS` slots
/// holding positions +1, so 0 means "empty slot". The slot width never
/// shows in the output: [`compress`] picks one that holds every position.
fn compress_with<S>(input: &[u8], table: &mut [S]) -> Vec<u8>
where
    S: Copy + TryFrom<usize> + Into<usize>,
{
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n < MFLIMIT + 1 {
        emit(&mut out, input, None);
        return out;
    }
    let match_limit = n - MFLIMIT;
    let extend_limit = n - LAST_LITERALS;
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i < match_limit {
        let seq = u32::from_le_bytes(input[i..i + 4].try_into().expect("4 bytes"));
        let slot = hash(seq);
        let cand: usize = table[slot].into();
        let Ok(here) = S::try_from(i + 1) else {
            unreachable!("compress picked a slot too narrow for position {i}")
        };
        table[slot] = here;
        if cand != 0 {
            let c = cand - 1;
            if i - c <= u16::MAX as usize && input[c..c + 4] == input[i..i + 4] {
                let mut len = MIN_MATCH;
                while i + len < extend_limit && input[c + len] == input[i + len] {
                    len += 1;
                }
                emit(&mut out, &input[anchor..i], Some(((i - c) as u16, len)));
                i += len;
                anchor = i;
                continue;
            }
        }
        i += 1;
    }
    emit(&mut out, &input[anchor..], None);
    out
}

/// Copy the `len`-byte match that starts `offset` bytes before `pos` to
/// `pos`. An offset shorter than the match legitimately overlaps
/// (run-length encoding of periodic data): the bytes already written
/// repeat with period `offset`, so every pass may copy everything
/// written so far and the span doubles. The caller has checked
/// `1 <= offset <= pos` and `pos + len <= out.len()`.
fn copy_match(out: &mut [u8], pos: usize, offset: usize, len: usize) {
    let start = pos - offset;
    let mut done = 0;
    while done < len {
        let n = (offset + done).min(len - done);
        out.copy_within(start..start + n, pos + done);
        done += n;
    }
}

/// Decompress one LZ4 block straight into `output`, returning how many
/// bytes were written. `output.len()` is the bound: a stream that decodes
/// to more is an error (that is what keeps hostile input from ballooning
/// memory), one that decodes to less leaves the rest untouched.
pub fn decompress_into(input: &[u8], output: &mut [u8]) -> Result<usize, DecompressError> {
    let expected = output.len();
    let mut pos = 0usize;
    let mut i = 0usize;
    let read_lsic = |i: &mut usize, base: usize| -> Result<usize, DecompressError> {
        let mut len = base;
        if base == 15 {
            loop {
                let b = *input.get(*i).ok_or(DecompressError::Truncated)?;
                *i += 1;
                len += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        Ok(len)
    };
    loop {
        let token = *input.get(i).ok_or(DecompressError::Truncated)?;
        i += 1;
        let lit_len = read_lsic(&mut i, (token >> 4) as usize)?;
        let lits = input
            .get(i..i + lit_len)
            .ok_or(DecompressError::Truncated)?;
        i += lit_len;
        if lit_len > expected - pos {
            return Err(DecompressError::OutputTooLarge { expected });
        }
        output[pos..pos + lit_len].copy_from_slice(lits);
        pos += lit_len;
        if i == input.len() {
            // The final sequence is literals-only.
            return Ok(pos);
        }
        let off = input.get(i..i + 2).ok_or(DecompressError::Truncated)?;
        let offset = u16::from_le_bytes(off.try_into().expect("2 bytes")) as usize;
        i += 2;
        if offset == 0 || offset > pos {
            return Err(DecompressError::BadOffset);
        }
        let match_len = read_lsic(&mut i, (token & 0x0F) as usize)? + MIN_MATCH;
        if match_len > expected - pos {
            return Err(DecompressError::OutputTooLarge { expected });
        }
        copy_match(output, pos, offset, match_len);
        pos += match_len;
    }
}

/// Decompress one LZ4 block into a fresh buffer. `expected` is the
/// uncompressed size the caller recorded at compression time; output
/// beyond it is an error.
pub fn decompress(input: &[u8], expected: usize) -> Result<Vec<u8>, DecompressError> {
    let mut out = vec![0u8; expected];
    let n = decompress_into(input, &mut out)?;
    out.truncate(n);
    Ok(out)
}

/// Compress with the uncompressed size prepended as a little-endian u32
/// (the real crate's convenience framing).
pub fn compress_prepend_size(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 20);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    out.extend_from_slice(&compress(input));
    out
}

/// Decompress a [`compress_prepend_size`] buffer.
pub fn decompress_size_prepended(input: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let size = input.get(..4).ok_or(DecompressError::Truncated)?;
    let expected = u32::from_le_bytes(size.try_into().expect("4 bytes")) as usize;
    let out = decompress(&input[4..], expected)?;
    if out.len() != expected {
        return Err(DecompressError::Truncated);
    }
    Ok(out)
}

/// The real crate exposes the block API under `block` too.
pub mod block {
    pub use super::{
        compress, compress_prepend_size, decompress, decompress_into, decompress_size_prepended,
        DecompressError,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data, "roundtrip failed for len {}", data.len());
        let framed = compress_prepend_size(data);
        assert_eq!(decompress_size_prepended(&framed).unwrap(), data);
    }

    #[test]
    fn roundtrips_edge_sizes() {
        for len in [0usize, 1, 4, 11, 12, 13, 64, 255, 256, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i % 7) as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn roundtrips_incompressible() {
        let mut x = 0x9E3779B97F4A7C15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn compresses_runs_and_periodic_data() {
        let runs = vec![0xABu8; 10_000];
        assert!(compress(&runs).len() < 100);
        roundtrip(&runs);
        let periodic: Vec<u8> = (0..8192).map(|i| (i % 16) as u8).collect();
        assert!(compress(&periodic).len() < periodic.len() / 4);
        roundtrip(&periodic);
    }

    #[test]
    fn long_literal_and_match_lsic_paths() {
        // > 255+15 literals then a long run exercises both LSIC loops.
        let mut data: Vec<u8> = (0..300).map(|i| (i * 17 % 251) as u8).collect();
        data.extend(std::iter::repeat_n(0x5A, 600));
        roundtrip(&data);
    }

    /// xorshift noise with a run every 64 bytes: literals and matches.
    fn mixed(len: usize) -> Vec<u8> {
        let mut x = 0x9E3779B97F4A7C15u64;
        let noisy = |i: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i % 64 < 24 {
                (i / 64) as u8
            } else {
                (x >> 56) as u8
            }
        };
        (0..len).map(noisy).collect()
    }

    #[test]
    fn slot_width_never_shows_in_the_output() {
        let mut corpus: Vec<Vec<u8>> = [0usize, 1, 4, 11, 12, 13, 64, 255, 256, 4096]
            .iter()
            .map(|&len| (0..len).map(|i| (i % 7) as u8).collect())
            .collect();
        corpus.push(vec![0xAB; 10_000]);
        corpus.push((0..8192).map(|i| (i % 16) as u8).collect());
        corpus.push(mixed(4096));
        // The widest inputs the 16-bit table takes, and the first it
        // does not (where `compress` itself must still round-trip).
        corpus.extend([65_534, 65_535, 65_536].map(mixed));
        for data in &corpus {
            let wide = compress_with(data, &mut vec![0usize; 1 << HASH_BITS]);
            assert_eq!(compress(data), wide, "len {}", data.len());
            if data.len() <= u16::MAX as usize {
                let narrow = compress_with(data, &mut [0u16; 1 << HASH_BITS]);
                assert_eq!(narrow, wide, "len {}", data.len());
            }
            roundtrip(data);
        }
    }

    /// The byte-at-a-time match copy the decoder used to run: the
    /// reference [`copy_match`] must equal.
    fn copy_match_bytewise(out: &mut [u8], pos: usize, offset: usize, len: usize) {
        for k in 0..len {
            out[pos + k] = out[pos - offset + k];
        }
    }

    #[test]
    fn copy_match_equals_bytewise_reference() {
        for offset in 1..=40usize {
            for len in 4..=300usize {
                // A prefix longer than the offset, so the copy must start
                // at `pos - offset` and not at the buffer start.
                let pos = offset + 3;
                let mut fast: Vec<u8> = (0..pos + len + 2).map(|i| (i * 31 + 7) as u8).collect();
                let mut slow = fast.clone();
                copy_match(&mut fast, pos, offset, len);
                copy_match_bytewise(&mut slow, pos, offset, len);
                assert_eq!(fast, slow, "offset {offset} len {len}");
            }
        }
    }

    /// Both entry points, one verdict: `decompress` is `decompress_into`
    /// over a fresh buffer, and the tests hold it to that.
    fn decode_both(input: &[u8], expected: usize) -> Result<Vec<u8>, DecompressError> {
        let owned = decompress(input, expected);
        let mut buf = vec![0xEEu8; expected];
        let into = decompress_into(input, &mut buf).map(|n| buf[..n].to_vec());
        assert_eq!(owned, into, "decompress and decompress_into disagree");
        owned
    }

    #[test]
    fn hostile_input_errors_never_panics() {
        // Truncations of a valid stream.
        let data: Vec<u8> = (0..512).map(|i| (i % 9) as u8).collect();
        let c = compress(&data);
        assert_eq!(decode_both(&c, data.len()).unwrap(), data);
        for cut in 0..c.len() {
            let _ = decode_both(&c[..cut], data.len());
        }
        // Bad offset (reaches before output start).
        let bad = [0x01u8, 0x41, 0xFF, 0xFF];
        assert!(decode_both(&bad, 64).is_err());
        // Output larger than declared: every shorter output slice, down
        // to the empty one.
        for short in [data.len() - 1, data.len() / 2, 1, 0] {
            assert!(matches!(
                decode_both(&c, short),
                Err(DecompressError::OutputTooLarge { .. })
            ));
        }
        // Zero offset.
        let zero = [0x11u8, 0x41, 0x00, 0x00, 0x00];
        assert!(matches!(
            decode_both(&zero, 64),
            Err(DecompressError::BadOffset)
        ));
        // An offset one byte past what has been written so far: it would
        // read before the start of the output slice.
        let before_start = [0x20u8, 0x41, 0x42, 0x03, 0x00, 0x00];
        assert!(matches!(
            decode_both(&before_start, 64),
            Err(DecompressError::BadOffset)
        ));
        // A longer output slice than the stream fills is not an error:
        // the count says how much was written, the rest is untouched.
        let mut roomy = vec![0xEEu8; data.len() + 8];
        assert_eq!(decompress_into(&c, &mut roomy), Ok(data.len()));
        assert_eq!(roomy[..data.len()], data[..]);
        assert_eq!(roomy[data.len()..], [0xEE; 8]);
    }

    #[test]
    fn empty_input() {
        assert_eq!(decompress(&compress(&[]), 0).unwrap(), Vec::<u8>::new());
        assert_eq!(decompress_into(&compress(&[]), &mut []), Ok(0));
    }
}
