//! The "upper-half memory": the application state a checkpoint captures.
//!
//! MANA saves the upper-half program's writable memory pages. Safe Rust
//! cannot serialize a live stack, so applications in this reproduction keep
//! their evolving state in a [`Memory`] — named, typed segments that the
//! checkpointer can snapshot and restore byte-exactly. The application code
//! path is otherwise unchanged, and a restored run must be bit-identical,
//! which the integration tests verify.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{CodecError, Reader, Writer};

/// Stamps one [`Memory`] reserves at a time from [`STAMPS`].
const STAMP_RANGE: u64 = 1 << 32;

/// The process-wide stamp clock. Every `Memory` hands out stamps from a
/// range reserved here, so no two memories ever share a stamp: a memory
/// swapped in for another cannot pass a rewritten segment off as the old
/// one's clean copy.
static STAMPS: AtomicU64 = AtomicU64::new(1);

/// Reserve a fresh stamp range: `(first, end)`.
fn reserve_stamps() -> (u64, u64) {
    let first = STAMPS.fetch_add(STAMP_RANGE, Ordering::Relaxed);
    (first, first + STAMP_RANGE)
}

/// One typed segment of application memory.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// 64-bit floats.
    F64(Vec<f64>),
    /// Signed 64-bit integers.
    I64(Vec<i64>),
    /// Unsigned 64-bit integers.
    U64(Vec<u64>),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Segment {
    fn tag(&self) -> u8 {
        match self {
            Segment::F64(_) => 0,
            Segment::I64(_) => 1,
            Segment::U64(_) => 2,
            Segment::Bytes(_) => 3,
        }
    }

    /// Approximate in-memory size in bytes (for image size accounting).
    pub fn byte_len(&self) -> usize {
        match self {
            Segment::F64(v) => v.len() * 8,
            Segment::I64(v) => v.len() * 8,
            Segment::U64(v) => v.len() * 8,
            Segment::Bytes(v) => v.len(),
        }
    }
}

/// Named, typed application memory. Iteration order is deterministic
/// (BTreeMap), so serialized images are byte-stable.
///
/// Every segment carries a **generation**: a stamp drawn from a range
/// this memory reserved from one process-wide clock, re-stamped each time
/// the segment is handed out mutably (or replaced). The checkpoint path forwards the
/// generation as a *clean-segment hint* to the delta store: a segment
/// whose generation has not moved since the previous epoch provably was
/// not written through this API, so the store can skip chunking and
/// hashing it entirely (see `dmtcp::store`). The tracking is
/// conservative — taking a `*_mut` borrow counts as a write even if the
/// caller never stores through it — so a stale hint can only cause
/// extra hashing, never a stale checkpoint. Generations are run-local:
/// they are not serialized, and a restored memory stamps from a fresh
/// range. A clone keeps its source's stamps (it holds the same bytes) but
/// reserves a range of its own for what it writes next.
#[derive(Debug)]
pub struct Memory {
    segments: BTreeMap<String, Segment>,
    /// Generation stamp per segment. Stamps are never reused in the
    /// process (a removed and re-created segment gets a fresh stamp, and
    /// every memory stamps from its own range), so "same name, same
    /// generation" implies "same unmutated data".
    gens: BTreeMap<String, u64>,
    /// The next generation stamp to hand out, and the end of the range
    /// it comes from. A local increment: the apps' hot loops take `*_mut`
    /// borrows, and a shared atomic there would contend.
    next_gen: u64,
    gen_end: u64,
}

impl Default for Memory {
    fn default() -> Memory {
        let (next_gen, gen_end) = reserve_stamps();
        Memory {
            segments: BTreeMap::new(),
            gens: BTreeMap::new(),
            next_gen,
            gen_end,
        }
    }
}

impl Clone for Memory {
    fn clone(&self) -> Memory {
        Memory {
            segments: self.segments.clone(),
            gens: self.gens.clone(),
            ..Memory::default()
        }
    }
}

/// Equality is over the segment *contents* only: generations are
/// run-local bookkeeping, and a restored memory must compare equal to
/// the one that was checkpointed.
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.segments == other.segments
    }
}

impl Memory {
    /// Empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether no segments exist.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total payload bytes across segments.
    pub fn total_bytes(&self) -> usize {
        self.segments.values().map(Segment::byte_len).sum()
    }

    /// Segment names in deterministic order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.segments.keys().map(String::as_str)
    }

    /// Stamp `name` with a fresh generation (any mutable hand-out or
    /// replacement counts as a write).
    fn touch(&mut self, name: &str) {
        if self.next_gen == self.gen_end {
            (self.next_gen, self.gen_end) = reserve_stamps();
        }
        self.gens.insert(name.to_string(), self.next_gen);
        self.next_gen += 1;
    }

    /// The segment's current generation, or `None` if it does not exist.
    /// Two equal generations for the same name guarantee the segment was
    /// not mutably accessed in between (the clean-segment hint the
    /// checkpoint path forwards to the delta store).
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.gens.get(name).copied()
    }

    /// Remove a segment.
    pub fn remove(&mut self, name: &str) -> Option<Segment> {
        self.gens.remove(name);
        self.segments.remove(name)
    }

    /// Whether a segment exists.
    pub fn contains(&self, name: &str) -> bool {
        self.segments.contains_key(name)
    }

    /// Get or create an `f64` segment of the given initial length.
    pub fn f64s_mut(&mut self, name: &str, default_len: usize) -> &mut Vec<f64> {
        self.touch(name);
        let seg = self
            .segments
            .entry(name.to_string())
            .or_insert_with(|| Segment::F64(vec![0.0; default_len]));
        match seg {
            Segment::F64(v) => v,
            other => panic!("segment {name:?} is {other:?}, not F64"),
        }
    }

    /// Read-only view of an `f64` segment.
    pub fn f64s(&self, name: &str) -> Option<&[f64]> {
        match self.segments.get(name) {
            Some(Segment::F64(v)) => Some(v),
            _ => None,
        }
    }

    /// Get or create an `i64` segment.
    pub fn i64s_mut(&mut self, name: &str, default_len: usize) -> &mut Vec<i64> {
        self.touch(name);
        let seg = self
            .segments
            .entry(name.to_string())
            .or_insert_with(|| Segment::I64(vec![0; default_len]));
        match seg {
            Segment::I64(v) => v,
            other => panic!("segment {name:?} is {other:?}, not I64"),
        }
    }

    /// Read-only view of an `i64` segment.
    pub fn i64s(&self, name: &str) -> Option<&[i64]> {
        match self.segments.get(name) {
            Some(Segment::I64(v)) => Some(v),
            _ => None,
        }
    }

    /// Get or create a `u64` segment.
    pub fn u64s_mut(&mut self, name: &str, default_len: usize) -> &mut Vec<u64> {
        self.touch(name);
        let seg = self
            .segments
            .entry(name.to_string())
            .or_insert_with(|| Segment::U64(vec![0; default_len]));
        match seg {
            Segment::U64(v) => v,
            other => panic!("segment {name:?} is {other:?}, not U64"),
        }
    }

    /// Read-only view of a `u64` segment.
    pub fn u64s(&self, name: &str) -> Option<&[u64]> {
        match self.segments.get(name) {
            Some(Segment::U64(v)) => Some(v),
            _ => None,
        }
    }

    /// Get or create a byte segment.
    pub fn bytes_mut(&mut self, name: &str, default_len: usize) -> &mut Vec<u8> {
        self.touch(name);
        let seg = self
            .segments
            .entry(name.to_string())
            .or_insert_with(|| Segment::Bytes(vec![0; default_len]));
        match seg {
            Segment::Bytes(v) => v,
            other => panic!("segment {name:?} is {other:?}, not Bytes"),
        }
    }

    /// Read-only view of a byte segment.
    pub fn bytes(&self, name: &str) -> Option<&[u8]> {
        match self.segments.get(name) {
            Some(Segment::Bytes(v)) => Some(v),
            _ => None,
        }
    }

    /// Store a scalar convenience value.
    pub fn set_u64(&mut self, name: &str, v: u64) {
        self.touch(name);
        self.segments
            .insert(name.to_string(), Segment::U64(vec![v]));
    }

    /// Load a scalar convenience value.
    pub fn get_u64(&self, name: &str) -> Option<u64> {
        self.u64s(name).and_then(|v| v.first().copied())
    }

    /// Store a scalar `f64`.
    pub fn set_f64(&mut self, name: &str, v: f64) {
        self.touch(name);
        self.segments
            .insert(name.to_string(), Segment::F64(vec![v]));
    }

    /// Load a scalar `f64`.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.f64s(name).and_then(|v| v.first().copied())
    }

    /// Serialize one segment (tag + payload, no name) on its own — the
    /// per-segment checkpoint image sections. Returns `None` for a name
    /// this memory does not hold.
    pub fn encode_segment(&self, name: &str) -> Option<Vec<u8>> {
        let seg = self.segments.get(name)?;
        let mut w = Writer::new();
        Self::encode_seg(seg, &mut w);
        Some(w.into_raw())
    }

    /// Insert one segment from its [`Self::encode_segment`] bytes. A
    /// byte segment keeps `buf` itself, its tag and length dropped in
    /// place; a typed one is decoded into a vector sized by the bytes
    /// present, never by the length they claim.
    pub fn insert_segment(&mut self, name: &str, mut buf: Vec<u8>) -> Result<(), CodecError> {
        let mut r = Reader::raw(&buf);
        let (tag, len) = (r.u8()?, r.u64()?);
        let width = match tag {
            0..=2 => 8,
            3 => 1,
            t => return Err(CodecError::LengthOutOfBounds(t as u64)),
        };
        // The claim must cover the bytes present exactly: none missing,
        // none trailing.
        if len.saturating_mul(width) != r.remaining() as u64 {
            return Err(CodecError::LengthOutOfBounds(len));
        }
        let header = buf.len() - r.remaining();
        let words = buf[header..]
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
        let seg = match tag {
            0 => Segment::F64(words.map(f64::from_bits).collect()),
            1 => Segment::I64(words.map(|w| w as i64).collect()),
            2 => Segment::U64(words.collect()),
            _ => {
                buf.drain(..header);
                Segment::Bytes(buf)
            }
        };
        self.touch(name);
        self.segments.insert(name.to_string(), seg);
        Ok(())
    }

    fn encode_seg(seg: &Segment, w: &mut Writer) {
        w.u8(seg.tag());
        match seg {
            Segment::F64(v) => {
                w.u64(v.len() as u64);
                for &x in v {
                    w.f64(x);
                }
            }
            Segment::I64(v) => {
                w.u64(v.len() as u64);
                for &x in v {
                    w.i64(x);
                }
            }
            Segment::U64(v) => {
                w.u64(v.len() as u64);
                for &x in v {
                    w.u64(x);
                }
            }
            Segment::Bytes(v) => w.bytes(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_segments_round_trip() {
        let mut m = Memory::new();
        m.f64s_mut("u", 3).copy_from_slice(&[1.5, -2.5, 3.25]);
        m.i64s_mut("steps", 2).copy_from_slice(&[-7, 9]);
        m.u64s_mut("seeds", 1)[0] = 42;
        m.bytes_mut("blob", 4).copy_from_slice(b"\x01\x02\x03\x04");
        m.set_f64("energy", -1.25e6);

        let mut m2 = Memory::new();
        for name in m.names() {
            let section = m.encode_segment(name).unwrap();
            m2.insert_segment(name, section).unwrap();
        }
        assert_eq!(m, m2);
        assert_eq!(m2.f64s("u").unwrap(), &[1.5, -2.5, 3.25]);
        assert_eq!(m2.get_f64("energy"), Some(-1.25e6));
        assert_eq!(m2.get_u64("seeds"), Some(42));
    }

    /// A segment's bytes as [`Memory::encode_segment`] lays them out: a
    /// tag, a little-endian length, then `body`.
    fn encoded(tag: u8, len: u64, body: &[u8]) -> Vec<u8> {
        [&[tag][..], &len.to_le_bytes(), body].concat()
    }

    #[test]
    fn malformed_segments_are_errors_and_insert_nothing() {
        let cases = [
            ("unknown tag", encoded(4, 1, &[0; 8])),
            ("bytes past the end", encoded(3, 10, &[0; 5])),
            ("f64s past the end", encoded(0, 3, &[0; 16])),
            ("trailing bytes", encoded(3, 2, &[0; 5])),
            ("trailing words", encoded(2, 1, &[0; 16])),
            ("no length", vec![3, 0, 0]),
            ("empty", Vec::new()),
            // Decoding sized by these claims would allocate gigabytes, or
            // panic on a capacity overflow.
            (
                "bytes above MAX_FIELD_LEN",
                encoded(3, (1 << 32) + 1, &[0; 4]),
            ),
            ("f64s above any capacity", encoded(0, u64::MAX / 4, &[0; 8])),
            ("u64s whose size overflows", encoded(2, u64::MAX, &[0; 8])),
        ];
        let mut m = Memory::new();
        for (what, buf) in cases {
            assert!(m.insert_segment("x", buf).is_err(), "{what}");
        }
        assert!(m.is_empty() && m.generation("x").is_none());
        m.insert_segment("x", encoded(1, 1, &(-3i64).to_le_bytes()))
            .unwrap();
        assert_eq!(m.i64s("x"), Some(&[-3][..]));
    }

    #[test]
    fn a_restored_byte_segment_keeps_its_section_buffer() {
        use crate::image::RankImage;
        let mut m = Memory::new();
        m.bytes_mut("blob", 4096).fill(7);
        let mut img = RankImage::new(0, 1, 1);
        img.put_section("memory/blob", m.encode_segment("blob").unwrap());
        let held = img.section("memory/blob").unwrap().as_ptr();

        // Shared with another holder: the restore copies, the holder keeps
        // its bytes.
        let other = img.clone();
        let mut copied = Memory::new();
        let section = RankImage::from(&img).take_section("memory/blob").unwrap();
        copied.insert_segment("blob", section).unwrap();
        assert_ne!(copied.bytes("blob").unwrap().as_ptr(), held);
        assert_eq!(other.section("memory/blob").unwrap().as_ptr(), held);
        assert_eq!(other, img);
        drop(other);

        // Held by the image alone: the segment is the section's buffer.
        let mut moved = Memory::new();
        let section = img.take_section("memory/blob").unwrap();
        moved.insert_segment("blob", section).unwrap();
        assert_eq!(moved.bytes("blob").unwrap().as_ptr(), held);
        assert_eq!(moved, m);
        assert_eq!(moved, copied);
    }

    #[test]
    fn growth_and_defaults() {
        let mut m = Memory::new();
        assert!(m.is_empty());
        let v = m.f64s_mut("x", 5);
        assert_eq!(v.len(), 5);
        v.push(9.0);
        // Re-fetch keeps the grown data, ignores default_len.
        assert_eq!(m.f64s_mut("x", 1).len(), 6);
        assert_eq!(m.total_bytes(), 48);
        assert_eq!(m.len(), 1);
        assert!(m.contains("x"));
        assert!(!m.contains("y"));
    }

    #[test]
    #[should_panic(expected = "not F64")]
    fn type_confusion_panics() {
        let mut m = Memory::new();
        m.bytes_mut("x", 1);
        let _ = m.f64s_mut("x", 1);
    }

    #[test]
    fn deterministic_encoding_order() {
        let mut a = Memory::new();
        a.set_u64("zeta", 1);
        a.set_u64("alpha", 2);
        let mut b = Memory::new();
        b.set_u64("alpha", 2);
        b.set_u64("zeta", 1);
        let enc = |m: &Memory| -> Vec<(String, Vec<u8>)> {
            m.names()
                .map(|name| (name.to_string(), m.encode_segment(name).unwrap()))
                .collect()
        };
        assert_eq!(
            enc(&a),
            enc(&b),
            "insertion order must not leak into images"
        );
    }

    #[test]
    fn generations_move_only_on_mutation_and_never_repeat() {
        let mut m = Memory::new();
        m.f64s_mut("hot", 4);
        m.f64s_mut("cold", 4);
        let hot1 = m.generation("hot").unwrap();
        let cold1 = m.generation("cold").unwrap();
        assert_ne!(hot1, cold1);
        // Reads never move the clock.
        let _ = m.f64s("hot");
        let _ = m.get_f64("cold");
        assert_eq!(m.generation("hot"), Some(hot1));
        assert_eq!(m.generation("cold"), Some(cold1));
        // A mutable hand-out re-stamps, even without a store through it.
        m.f64s_mut("hot", 4);
        let hot2 = m.generation("hot").unwrap();
        assert!(hot2 > hot1);
        assert_eq!(m.generation("cold"), Some(cold1), "untouched stays put");
        // Remove + re-create must not resurrect an old stamp: "same name,
        // same generation" has to imply "same unmutated data".
        m.remove("cold");
        assert_eq!(m.generation("cold"), None);
        m.f64s_mut("cold", 4);
        assert!(m.generation("cold").unwrap() > cold1);
        // Generations are bookkeeping, not content: equality ignores them.
        let mut a = Memory::new();
        a.set_u64("x", 7);
        let mut b = Memory::new();
        b.set_u64("x", 7);
        b.u64s_mut("x", 1);
        assert_eq!(a, b);
        assert_ne!(a.generation("x"), b.generation("x"));
    }

    #[test]
    fn fresh_and_cloned_memories_never_share_a_stamp() {
        let mut m = Memory::new();
        m.bytes_mut("state", 8);
        // The same first write into a fresh memory gets another stamp.
        let mut fresh = Memory::new();
        fresh.bytes_mut("state", 8);
        assert_ne!(fresh.generation("state"), m.generation("state"));
        // A clone keeps the stamps of the bytes it copied, then both
        // sides stamp their next writes apart.
        let mut twin = m.clone();
        assert_eq!(twin.generation("state"), m.generation("state"));
        twin.bytes_mut("state", 8);
        m.bytes_mut("state", 8);
        assert_ne!(twin.generation("state"), m.generation("state"));
    }

    #[test]
    fn wrong_type_reads_return_none() {
        let mut m = Memory::new();
        m.set_u64("n", 3);
        assert!(m.f64s("n").is_none());
        assert!(m.bytes("n").is_none());
        assert!(m.i64s("n").is_none());
        assert_eq!(m.remove("n").map(|s| s.byte_len()), Some(8));
        assert!(m.remove("n").is_none());
    }
}
