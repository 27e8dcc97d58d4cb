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
//! in without a copy, and the sole holder of a shared buffer gets the
//! `Vec` back out ([`Bytes::is_unique`]), which is how the transport
//! recycles payload buffers.

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

    /// Whether this handle alone owns its bytes, so converting it into a
    /// `Vec<u8>` moves the buffer out instead of copying it. Static data
    /// is never unique.
    pub fn is_unique(&self) -> bool {
        match &self.repr {
            Repr::Static(_) => false,
            Repr::Inline { .. } => true,
            Repr::Shared(arc) => Arc::strong_count(arc) == 1,
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

impl From<Bytes> for Vec<u8> {
    /// Moves a unique shared buffer out; copies anything else.
    fn from(b: Bytes) -> Vec<u8> {
        match b.repr {
            Repr::Shared(arc) => Arc::try_unwrap(arc).unwrap_or_else(|arc| arc.to_vec()),
            _ => b.to_vec(),
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
    fn a_unique_buffer_moves_out_and_a_shared_one_is_copied() {
        let v = vec![3u8; 1000];
        let ptr = v.as_ptr();
        let a = Bytes::from(v);
        assert_eq!(a.as_ptr(), ptr, "a Vec moves in without a copy");
        let b = a.clone();
        assert!(!a.is_unique() && !b.is_unique());
        let copied = Vec::from(b);
        assert_ne!(copied.as_ptr(), ptr);
        assert!(a.is_unique());
        let moved = Vec::from(a);
        assert_eq!(moved.as_ptr(), ptr);
        assert_eq!(moved, vec![3u8; 1000]);
        assert!(!Bytes::from_static(b"static").is_unique());
        assert!(Bytes::copy_from_slice(b"inline").is_unique());
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
