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
//!
//! There is one matcher, and it writes into the caller's slice:
//! [`compress_into`]. It returns [`CompressError::OutputTooSmall`] as soon
//! as the stream provably cannot fit — when the bytes already emitted,
//! plus one token, plus the literals pending since the last match exceed
//! `output.len()`, or when the exact size of the next sequence does. So a
//! caller that only wants a stream shorter than some bound stops paying at
//! the bound, and `Ok` comes back exactly when the whole stream fits, with
//! the same bytes [`compress`] returns over a [`get_maximum_output_size`]
//! buffer. On the miss path the empty-slot test, the 16-bit offset bound
//! and the 4-byte content test are one compare,
//! `(cand_word ^ seq) | (cand == 0) | (offset > 65535) == 0`: the table
//! holds positions + 1, an empty slot reads position 0 and is masked out
//! by `cand == 0`, and the only branch left per input byte is "match
//! found". The offset term is compiled out of the 16-bit table, which
//! serves inputs too short to hold a position out of reach. A match then
//! extends eight bytes at a time.

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

/// Why compression failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// The compressed stream does not fit the output slice.
    OutputTooSmall,
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compressed block does not fit the output slice")
    }
}

impl std::error::Error for CompressError {}

fn hash(seq: u32) -> usize {
    (seq.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// One slot of the matcher's table: position + 1 of the last input word
/// that hashed there, 0 when empty.
trait Slot: Copy {
    /// Whether a stored position can lie more than 65 535 bytes back.
    const FAR: bool;
    fn pos(self) -> usize;
    fn at(pos: usize) -> Self;
}

/// The slot for inputs of at most 65 535 bytes (`compress_with` asserts
/// it), so every position + 1 fits and none is ever out of reach.
impl Slot for u16 {
    const FAR: bool = false;
    fn pos(self) -> usize {
        self as usize
    }
    fn at(pos: usize) -> u16 {
        pos as u16
    }
}

impl Slot for usize {
    const FAR: bool = true;
    fn pos(self) -> usize {
        self
    }
    fn at(pos: usize) -> usize {
        pos
    }
}

fn read_u32(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(input[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(input: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(input[at..at + 8].try_into().expect("8 bytes"))
}

/// Bytes the LSIC extension of a length takes beyond its token nibble.
fn lsic_len(len: usize) -> usize {
    if len >= 15 {
        (len - 15) / 255 + 1
    } else {
        0
    }
}

/// How many bytes from `a` on equal those from `b` on (`a < b`), with
/// the run from `b` stopping at `limit`: eight at a time, then bytewise.
fn common_len(input: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut len = 0;
    while b + len + 8 <= limit {
        let diff = read_u64(input, a + len) ^ read_u64(input, b + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while b + len < limit && input[a + len] == input[b + len] {
        len += 1;
    }
    len
}

/// The caller's output slice and how much of it the stream has filled.
struct Sink<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl Sink<'_> {
    fn put(&mut self, b: u8) {
        self.buf[self.pos] = b;
        self.pos += 1;
    }

    /// Append an LSIC-extended length (already reduced by the 15 carried
    /// in the token nibble).
    fn put_lsic(&mut self, mut v: usize) {
        while v >= 255 {
            self.put(255);
            v -= 255;
        }
        self.put(v as u8);
    }

    /// Append one sequence: the literals, then the match `(offset, len)`
    /// if there is one. Writes nothing if its exact size does not fit.
    fn sequence(&mut self, literals: &[u8], m: Option<(u16, usize)>) -> Result<(), CompressError> {
        let match_len = m.map_or(0, |(_, len)| len - MIN_MATCH);
        let size = 1
            + lsic_len(literals.len())
            + literals.len()
            + m.map_or(0, |_| 2 + lsic_len(match_len));
        if size > self.buf.len() - self.pos {
            return Err(CompressError::OutputTooSmall);
        }
        self.put(((literals.len().min(15) as u8) << 4) | match_len.min(15) as u8);
        if literals.len() >= 15 {
            self.put_lsic(literals.len() - 15);
        }
        self.buf[self.pos..self.pos + literals.len()].copy_from_slice(literals);
        self.pos += literals.len();
        if let Some((offset, _)) = m {
            self.buf[self.pos..self.pos + 2].copy_from_slice(&offset.to_le_bytes());
            self.pos += 2;
            if match_len >= 15 {
                self.put_lsic(match_len - 15);
            }
        }
        Ok(())
    }
}

/// The largest stream [`compress_into`] can write for an input of this
/// length: all literals, one LSIC byte per 255 of them, and a token.
pub fn get_maximum_output_size(input_len: usize) -> usize {
    input_len + input_len / 255 + 16
}

/// Compress `input` as one LZ4 block into `output`, returning the stream's
/// length. Fails with [`CompressError::OutputTooSmall`] exactly when the
/// stream is longer than `output`, and stops as soon as that is certain
/// (see the module doc); what was written before then is unspecified.
pub fn compress_into(input: &[u8], output: &mut [u8]) -> Result<usize, CompressError> {
    // Every position of an input this short fits a 16-bit slot: a
    // quarter of the table to zero per call, and it lives on the stack
    // (the real crate's `HashTable4KU16`).
    if input.len() <= u16::MAX as usize {
        compress_with(input, output, &mut [0u16; 1 << HASH_BITS])
    } else {
        let mut table = vec![0usize; 1 << HASH_BITS];
        let table = table.as_mut_slice().try_into().expect("one slot per hash");
        compress_with(input, output, table)
    }
}

/// Compress `input` as one LZ4 block. Deterministic; an incompressible
/// input grows by at most `input.len()/255 + 16` bytes of framing.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; get_maximum_output_size(input.len())];
    let n = compress_into(input, &mut out).expect("the maximum output size always fits");
    out.truncate(n);
    out
}

/// The greedy matcher over a zeroed table, one [`Slot`] per hash. The
/// slot width never shows in the output: [`compress_into`] picks one that
/// holds every position.
fn compress_with<S: Slot>(
    input: &[u8],
    output: &mut [u8],
    table: &mut [S; 1 << HASH_BITS],
) -> Result<usize, CompressError> {
    let n = input.len();
    // The stream's offsets depend on it: a narrow slot must hold every
    // position + 1, or a truncated one would point out of reach.
    assert!(
        S::FAR || n <= u16::MAX as usize,
        "16-bit slots for {n} bytes"
    );
    let mut out = Sink {
        buf: output,
        pos: 0,
    };
    if n < MFLIMIT + 1 {
        out.sequence(input, None)?;
        return Ok(out.pos);
    }
    let match_limit = n - MFLIMIT;
    let extend_limit = n - LAST_LITERALS;
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i < match_limit {
        // From `stop` on, what is out, one token and the literals pending
        // since `anchor` overrun the slice: the stream cannot fit.
        let room = out.buf.len().checked_sub(out.pos + 1);
        let room = room.ok_or(CompressError::OutputTooSmall)?;
        let stop = match_limit.min(anchor + room + 1);
        let mut found = None;
        while i < stop {
            let seq = read_u32(input, i);
            let slot = hash(seq);
            let cand = table[slot].pos();
            table[slot] = S::at(i + 1);
            // One compare for "empty slot", "offset past 16 bits" and
            // "different first 4 bytes"; an empty slot reads position 0.
            let c = cand.saturating_sub(1);
            let miss = (read_u32(input, c) ^ seq)
                | (cand == 0) as u32
                | (S::FAR && i - c > u16::MAX as usize) as u32;
            if miss == 0 {
                found = Some(c);
                break;
            }
            i += 1;
        }
        let Some(c) = found else {
            if i < match_limit {
                return Err(CompressError::OutputTooSmall);
            }
            break;
        };
        let len = MIN_MATCH + common_len(input, c + MIN_MATCH, i + MIN_MATCH, extend_limit);
        out.sequence(&input[anchor..i], Some(((i - c) as u16, len)))?;
        i += len;
        anchor = i;
    }
    out.sequence(&input[anchor..], None)?;
    Ok(out.pos)
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
        compress, compress_into, compress_prepend_size, decompress, decompress_into,
        decompress_size_prepended, get_maximum_output_size, CompressError, DecompressError,
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

    /// The matcher [`compress_with`] replaced, kept as its reference: the
    /// same greedy parse into a growing `Vec`, unbounded, with the
    /// empty-slot, offset and content tests as separate branches and a
    /// bytewise match extension.
    fn compress_reference<S>(input: &[u8], table: &mut [S]) -> Vec<u8>
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
            let seq = read_u32(input, i);
            let slot = hash(seq);
            let cand: usize = table[slot].into();
            let Ok(here) = S::try_from(i + 1) else {
                unreachable!("slot too narrow for position {i}")
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

    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 56) as u8
        };
        (0..len).map(|_| next()).collect()
    }

    /// Noise, runs, every period up to 40, an `f64` staircase, mixed
    /// literals and matches, the short lengths around `MFLIMIT`, and the
    /// widest inputs either slot width takes.
    fn differential_corpus() -> Vec<Vec<u8>> {
        let mut corpus: Vec<Vec<u8>> = (0..=13usize)
            .chain([64])
            .flat_map(|len| {
                [
                    (0..len).map(|i| (i % 7) as u8).collect(),
                    noise(len as u64, len),
                ]
            })
            .collect();
        corpus.extend((1..=40usize).map(|p| (0..4096).map(|i| (i % p * 37) as u8).collect()));
        corpus.push(vec![0xAB; 10_000]);
        corpus.push((0..10_000usize).map(|i| (i / 37) as u8).collect());
        corpus.push(
            (0..2048u32)
                .flat_map(|i| f64::from(i / 8).to_le_bytes())
                .collect(),
        );
        corpus.push(noise(7, 4096));
        corpus.push(mixed(4096));
        for len in [65_535, 65_536] {
            corpus.extend([mixed(len), noise(len as u64, len), vec![0x5A; len]]);
        }
        // Content that recurs only beyond the 16-bit offset reach.
        corpus.push(noise(9, 70_000).repeat(2));
        corpus
    }

    #[test]
    fn compress_into_equals_the_reference_at_every_output_bound() {
        for data in differential_corpus() {
            let n = data.len();
            let want = compress_reference(&data, &mut vec![0usize; 1 << HASH_BITS]);
            assert_eq!(compress(&data), want, "compress, len {n}");
            let narrow = n <= u16::MAX as usize;
            if narrow {
                let short = compress_reference(&data, &mut [0u16; 1 << HASH_BITS]);
                assert_eq!(short, want, "the slot width shows, len {n}");
            }
            let max = get_maximum_output_size(n);
            // A short stream is cut at every length, so every sequence
            // meets the bound once with a byte to spare and once without.
            let bounds: Vec<usize> = match want.len() {
                len if len <= 512 => (0..=len + 1).chain([max]).collect(),
                len => vec![0, len - 1, len, len + 1, max],
            };
            for bound in bounds {
                let mut wide_out = vec![0xEEu8; bound];
                let mut narrow_out = vec![0xEEu8; bound];
                let mut runs = vec![(
                    compress_with(&data, &mut wide_out, &mut [0usize; 1 << HASH_BITS]),
                    &wide_out,
                )];
                if narrow {
                    let got = compress_with(&data, &mut narrow_out, &mut [0u16; 1 << HASH_BITS]);
                    runs.push((got, &narrow_out));
                }
                for (got, out) in runs {
                    if bound >= want.len() {
                        assert_eq!(got, Ok(want.len()), "len {n}, bound {bound}");
                        assert_eq!(out[..want.len()], want[..], "len {n}, bound {bound}");
                    } else {
                        assert_eq!(got, Err(CompressError::OutputTooSmall), "len {n}");
                    }
                }
            }
            roundtrip(&data);
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
