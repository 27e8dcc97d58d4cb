//! Offline stand-in for the `bytes` crate, API-compatible with the subset
//! this workspace uses.
//!
//! Beyond plain API compatibility, this implementation is the transport's
//! **small-message fast path**: payloads of at most [`Bytes::INLINE_CAP`]
//! (64) bytes are stored *inline in the handle itself* — no heap
//! allocation on construction and no atomic refcount traffic on clone.
//! Larger buffers are a shared `Arc<Vec<u8>>`, so fan-out sends of one big
//! buffer still cost one allocation total and clones are pointer-equal
//! views of it (which `Envelope` fan-out tests rely on). A `Vec<u8>` moves
//! in without a copy. [`BytesMut`] owns the same shared header, so
//! [`BytesMut::freeze`] allocates nothing, and the sole holder of a shared
//! buffer gets it back as a `BytesMut` ([`Bytes::try_into_mut`]): that is
//! how the transport recycles payload buffers, header and all.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Maximum payload length stored inline (no heap allocation).
const INLINE_CAP: usize = 64;

#[derive(Clone)]
enum Repr {
    /// Borrowed static data (e.g. string literals): zero-copy forever.
    Static(&'static [u8]),
    /// Small buffer stored in the handle itself.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    /// Shared heap buffer; clones bump a refcount and alias one allocation.
    Shared(Arc<Vec<u8>>),
}

/// A cheaply cloneable, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

impl Bytes {
    /// Payloads up to this many bytes are stored inline in the handle:
    /// constructing or cloning them performs no heap allocation and no
    /// atomic operations.
    pub const INLINE_CAP: usize = INLINE_CAP;

    /// An empty buffer. Never allocates.
    pub const fn new() -> Bytes {
        Bytes {
            repr: Repr::Static(&[]),
        }
    }

    /// Wrap a static slice without copying.
    pub const fn from_static(data: &'static [u8]) -> Bytes {
        Bytes {
            repr: Repr::Static(data),
        }
    }

    /// Copy a slice into a new buffer. Slices of at most
    /// [`Bytes::INLINE_CAP`] bytes are stored inline (no allocation).
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        if data.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..data.len()].copy_from_slice(data);
            Bytes {
                repr: Repr::Inline {
                    len: data.len() as u8,
                    buf,
                },
            }
        } else {
            Bytes {
                repr: Repr::Shared(Arc::new(data.to_vec())),
            }
        }
    }

    /// Whether this buffer is stored inline (diagnostic for the
    /// small-message fast path).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// The shared buffer back as a [`BytesMut`], header included, if this
    /// handle alone holds it; otherwise the handle unchanged. Static and
    /// inline data have no shared buffer and always come back.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        match self.repr {
            Repr::Shared(buf) if Arc::strong_count(&buf) == 1 => Ok(BytesMut { buf }),
            repr => Err(Bytes { repr }),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// View as a slice.
    fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => s,
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Shared(arc) => arc,
        }
    }

    /// Copy out to an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        if v.len() <= INLINE_CAP {
            Bytes::copy_from_slice(&v)
        } else {
            Bytes {
                repr: Repr::Shared(Arc::new(v)),
            }
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A unique, growable byte buffer. It owns the shared header a frozen
/// [`Bytes`] points at, so [`BytesMut::freeze`] neither copies nor
/// allocates.
#[derive(Debug)]
pub struct BytesMut {
    /// Never shared while it is a `BytesMut`.
    buf: Arc<Vec<u8>>,
}

impl BytesMut {
    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            buf: Arc::new(Vec::with_capacity(capacity)),
        }
    }

    fn vec(&mut self) -> &mut Vec<u8> {
        Arc::get_mut(&mut self.buf).expect("a BytesMut is its buffer's only handle")
    }

    /// Drop the contents, keeping the capacity.
    pub fn clear(&mut self) {
        self.vec().clear();
    }

    /// Append `data`, growing if it does not fit.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.vec().extend_from_slice(data);
    }

    /// Bytes the buffer holds without growing.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// An immutable handle on the same buffer (shared, never inline).
    pub fn freeze(self) -> Bytes {
        Bytes {
            repr: Repr::Shared(self.buf),
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for e in std::ascii::escape_default(b) {
                write!(f, "{}", e as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_payloads_are_inline() {
        assert!(Bytes::copy_from_slice(&[1u8; 64]).is_inline());
        assert!(Bytes::from(vec![2u8; 17]).is_inline());
        assert!(!Bytes::copy_from_slice(&[1u8; 65]).is_inline());
        assert!(!Bytes::from(vec![2u8; 65]).is_inline());
    }

    #[test]
    fn large_clones_share_storage() {
        let a = Bytes::from(vec![7u8; 1024]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn freeze_then_try_into_mut_keeps_the_buffer() {
        let mut m = BytesMut::with_capacity(1000);
        m.extend_from_slice(&[3u8; 1000]);
        let frozen = m.freeze();
        let ptr = frozen.as_ptr();
        assert!(!frozen.is_inline());
        let mut back = frozen.try_into_mut().expect("the only handle");
        assert_eq!(back.capacity(), 1000);
        back.clear();
        back.extend_from_slice(&[4u8; 900]);
        let again = back.freeze();
        assert_eq!(again.as_ptr(), ptr, "the same buffer, refilled in place");
        assert_eq!(&again[..], &[4u8; 900][..]);
    }

    #[test]
    fn a_live_clone_makes_try_into_mut_fail() {
        let a = Bytes::from(vec![5u8; 1000]);
        let b = a.clone();
        let a = a
            .try_into_mut()
            .expect_err("a clone still holds the buffer");
        assert_eq!(a.as_ptr(), b.as_ptr());
        drop(b);
        assert!(a.try_into_mut().is_ok(), "the last handle gets it back");
        assert!(Bytes::from_static(b"static").try_into_mut().is_err());
        assert!(Bytes::copy_from_slice(b"inline").try_into_mut().is_err());
    }

    #[test]
    fn roundtrip_and_compare() {
        let a = Bytes::copy_from_slice(b"hello");
        assert_eq!(&a[..], b"hello");
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
        assert_eq!(a.to_vec(), b"hello".to_vec());
        assert_eq!(a, Bytes::from_static(b"hello"));
        assert_eq!(a[0], b'h');
    }

    #[test]
    fn empty_never_allocates() {
        let e = Bytes::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(Bytes::default(), e);
    }
}
