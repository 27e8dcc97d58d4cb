//! The checkpoint image wire format.
//!
//! Little-endian, length-prefixed primitives with an FNV-1a checksum
//! trailer. Every multi-byte read is bounds-checked: a truncated or
//! corrupted image must fail loudly, never yield garbage state.

use std::fmt;

/// Errors raised while decoding an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the expected data.
    UnexpectedEof {
        /// Bytes needed.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// The checksum trailer did not match the content.
    ChecksumMismatch {
        /// Stored checksum.
        stored: u64,
        /// Computed checksum.
        computed: u64,
    },
    /// A magic/version marker did not match.
    BadMagic {
        /// What was expected.
        expected: u64,
        /// What was found.
        found: u64,
    },
    /// A string was not valid UTF-8.
    BadString,
    /// A length field exceeded sanity bounds.
    LengthOutOfBounds(u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "image truncated: needed {needed} bytes, {remaining} remain"
                )
            }
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "image corrupt: checksum {stored:#x} != computed {computed:#x}"
                )
            }
            CodecError::BadMagic { expected, found } => {
                write!(
                    f,
                    "bad image magic: expected {expected:#x}, found {found:#x}"
                )
            }
            CodecError::BadString => write!(f, "image contains invalid UTF-8 string"),
            CodecError::LengthOutOfBounds(l) => write!(f, "length field {l} out of bounds"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The 64-bit FNV prime: one FNV-1a step is `(hash ^ byte) * FNV_PRIME`.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a, 64-bit, seeded: a second independent-enough hash stream used
/// together with [`fnv1a`] to form the 128-bit content key of checkpoint
/// store blocks (see [`crate::store`]).
pub fn fnv1a_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(29);
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8: `t[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight input bytes
/// fold in with eight independent table loads instead of eight dependent
/// ones. Used as the per-block integrity check of the delta-checkpoint
/// store: unlike the whole-file FNV trailer, a CRC per block localizes
/// corruption to the exact (epoch, offset) that rotted on disk.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        for k in 1..8 {
            t[k] = t[k - 1].map(|prev| t[0][(prev & 0xFF) as usize] ^ (prev >> 8));
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = (0..4).fold(0, |acc, k| {
            acc ^ t[7 - k][(lo >> (8 * k) & 0xFF) as usize] ^ t[3 - k][w[4 + k] as usize]
        });
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Maximum length accepted for any single field (guards against decoding
/// garbage as a multi-gigabyte allocation).
const MAX_FIELD_LEN: u64 = 1 << 32;

/// Binary writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a u8.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an i32.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 (bit pattern).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append length-prefixed bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Finish: append the checksum trailer and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }

    /// Raw buffer access (for nesting without a trailer).
    pub fn into_raw(self) -> Vec<u8> {
        self.buf
    }
}

/// Binary reader.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Verify the checksum trailer and return a reader over the content.
    pub fn checked(buf: &'a [u8]) -> Result<Reader<'a>, CodecError> {
        if buf.len() < 8 {
            return Err(CodecError::UnexpectedEof {
                needed: 8,
                remaining: buf.len(),
            });
        }
        let (content, trailer) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        let computed = fnv1a(content);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        Ok(Reader {
            buf: content,
            pos: 0,
        })
    }

    /// Reader over raw content (no trailer).
    pub fn raw(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a u8.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read an i32.
    pub fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read an i64.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read an f64.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u64()?;
        if len > MAX_FIELD_LEN {
            return Err(CodecError::LengthOutOfBounds(len));
        }
        self.take(len as usize)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::BadString)
    }

    /// Read and verify a magic marker.
    pub fn expect_magic(&mut self, expected: u64) -> Result<(), CodecError> {
        let found = self.u64()?;
        if found != expected {
            return Err(CodecError::BadMagic { expected, found });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i32(-42);
        w.i64(i64::MIN);
        w.f64(std::f64::consts::PI);
        w.bytes(b"payload");
        w.string("hello \u{1F680}");
        let buf = w.finish();

        let mut r = Reader::checked(&buf).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.string().unwrap(), "hello \u{1F680}");
        assert!(r.is_exhausted());
    }

    #[test]
    fn corruption_detected() {
        let mut w = Writer::new();
        w.string("important state");
        let mut buf = w.finish();
        buf[3] ^= 0x40;
        assert!(matches!(
            Reader::checked(&buf),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.u64(123);
        let buf = w.finish();
        assert!(matches!(
            Reader::checked(&buf[..buf.len() - 3]),
            Err(CodecError::ChecksumMismatch { .. }) | Err(CodecError::UnexpectedEof { .. })
        ));
        // Truncation *inside* the content after a valid re-checksum is
        // caught by field bounds checks.
        let mut r = Reader::raw(&buf[..4]);
        assert!(matches!(r.u64(), Err(CodecError::UnexpectedEof { .. })));
    }

    #[test]
    fn magic_mismatch() {
        let mut w = Writer::new();
        w.u64(0xABCD);
        let buf = w.finish();
        let mut r = Reader::checked(&buf).unwrap();
        assert!(matches!(
            r.expect_magic(0xEF01),
            Err(CodecError::BadMagic { .. })
        ));
    }

    #[test]
    fn absurd_length_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2); // a fake huge length prefix
        let buf = w.into_raw();
        let mut r = Reader::raw(&buf);
        assert!(matches!(r.bytes(), Err(CodecError::LengthOutOfBounds(_))));
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn crc32_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The one-table, one-byte-per-step CRC-32 that [`crc32`] must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc32_equals_bytewise_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..80u32).map(|i| (i * 151 + 43) as u8).collect();
        for start in 0..8 {
            for len in 0..=67 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn seeded_fnv_differs_from_plain() {
        let data = b"block payload";
        assert_ne!(fnv1a(data), fnv1a_seeded(1, data));
        assert_ne!(fnv1a_seeded(1, data), fnv1a_seeded(2, data));
        assert_eq!(fnv1a_seeded(7, data), fnv1a_seeded(7, data));
    }
}
