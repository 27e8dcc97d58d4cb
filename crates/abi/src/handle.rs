//! Standardized opaque handles.
//!
//! The ABI working group's central design question is how `MPI_Comm` and
//! friends are represented in memory, since MPICH uses `int` handles and
//! Open MPI uses pointers. The standard ABI resolves this with a fixed-width
//! opaque integer whose *values* are standardized for predefined objects.
//!
//! Our encoding (documented so the shim and checkpointer can rely on it):
//!
//! ```text
//!  63            56 55                32 31                             0
//! ┌────────────────┬────────────────────┬────────────────────────────────┐
//! │ kind tag (u8)  │ flags (reserved)   │ object index (u32)             │
//! └────────────────┴────────────────────┴────────────────────────────────┘
//! ```
//!
//! * Predefined objects have index < [`Handle::FIRST_DYNAMIC_INDEX`].
//! * `Handle(0)` is the universal null handle (`MPI_*_NULL` for every kind
//!   compares equal to it after masking the kind tag; kind-specific nulls
//!   use index 0 with the kind tag set).

use std::fmt;

/// What kind of MPI object a handle names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum HandleKind {
    /// An invalid/unknown handle.
    Invalid = 0x00,
    /// Communicator.
    Comm = 0x01,
    /// Process group.
    Group = 0x02,
    /// Datatype.
    Datatype = 0x03,
    /// Reduction operation.
    Op = 0x04,
    /// Nonblocking-operation request.
    Request = 0x05,
    /// Error handler.
    Errhandler = 0x06,
}

impl HandleKind {
    /// All meaningful kinds (excludes `Invalid`).
    pub const ALL: [HandleKind; 6] = [
        HandleKind::Comm,
        HandleKind::Group,
        HandleKind::Datatype,
        HandleKind::Op,
        HandleKind::Request,
        HandleKind::Errhandler,
    ];

    fn from_tag(tag: u8) -> HandleKind {
        match tag {
            0x01 => HandleKind::Comm,
            0x02 => HandleKind::Group,
            0x03 => HandleKind::Datatype,
            0x04 => HandleKind::Op,
            0x05 => HandleKind::Request,
            0x06 => HandleKind::Errhandler,
            _ => HandleKind::Invalid,
        }
    }
}

/// A standardized 64-bit opaque MPI handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Handle(pub u64);

impl Handle {
    /// Dynamic (library-created) objects get indices from here up;
    /// everything below is reserved for predefined objects.
    pub const FIRST_DYNAMIC_INDEX: u32 = 0x1000;

    /// The absolute null handle.
    pub const NULL: Handle = Handle(0);

    // ---- Predefined communicators -------------------------------------

    /// `MPI_COMM_NULL`.
    pub const COMM_NULL: Handle = Handle::predefined(HandleKind::Comm, 0);
    /// `MPI_COMM_WORLD`.
    pub const COMM_WORLD: Handle = Handle::predefined(HandleKind::Comm, 1);
    /// `MPI_COMM_SELF`.
    pub const COMM_SELF: Handle = Handle::predefined(HandleKind::Comm, 2);

    // ---- Predefined requests -------------------------------------------

    /// `MPI_REQUEST_NULL`.
    pub const REQUEST_NULL: Handle = Handle::predefined(HandleKind::Request, 0);

    // ---- Predefined ops (values mirrored in [`crate::op`]) -------------

    /// `MPI_OP_NULL`.
    pub const OP_NULL: Handle = Handle::predefined(HandleKind::Op, 0);

    // ---- Predefined datatypes (values mirrored in [`crate::datatype`]) -

    /// `MPI_DATATYPE_NULL`.
    pub const DATATYPE_NULL: Handle = Handle::predefined(HandleKind::Datatype, 0);

    /// Build a predefined handle (const-friendly).
    pub const fn predefined(kind: HandleKind, index: u32) -> Handle {
        Handle(((kind as u64) << 56) | index as u64)
    }

    /// Build a dynamic handle for a library-created object.
    ///
    /// # Panics
    /// If `slot` collides with the predefined range.
    pub fn dynamic(kind: HandleKind, slot: u32) -> Handle {
        assert!(
            slot >= Self::FIRST_DYNAMIC_INDEX,
            "dynamic handle slot {slot:#x} collides with predefined range"
        );
        Handle(((kind as u64) << 56) | slot as u64)
    }

    /// The kind tag.
    pub fn kind(self) -> HandleKind {
        HandleKind::from_tag((self.0 >> 56) as u8)
    }

    /// The object index within its kind.
    pub fn index(self) -> u32 {
        (self.0 & 0xFFFF_FFFF) as u32
    }

    /// Whether this is a predefined object of its kind.
    pub fn is_predefined(self) -> bool {
        self.kind() != HandleKind::Invalid && self.index() < Self::FIRST_DYNAMIC_INDEX
    }

    /// Whether this is the null handle of its kind (index 0) or the
    /// absolute null.
    pub fn is_null(self) -> bool {
        self.index() == 0
    }

    /// Raw 64-bit value (what would cross a C ABI boundary).
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstruct from a raw 64-bit value.
    pub const fn from_raw(raw: u64) -> Handle {
        Handle(raw)
    }
}

impl fmt::Debug for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}#{}{}",
            self.kind(),
            self.index(),
            if self.is_predefined() { "*" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predefined_values_are_fixed() {
        // These exact numeric values are the ABI contract: they must never
        // change, or previously "compiled" applications would break.
        assert_eq!(Handle::COMM_WORLD.raw(), 0x0100_0000_0000_0001);
        assert_eq!(Handle::COMM_SELF.raw(), 0x0100_0000_0000_0002);
        assert_eq!(Handle::COMM_NULL.raw(), 0x0100_0000_0000_0000);
        assert_eq!(Handle::REQUEST_NULL.raw(), 0x0500_0000_0000_0000);
    }

    #[test]
    fn kind_and_index_round_trip() {
        for kind in HandleKind::ALL {
            let h = Handle::predefined(kind, 7);
            assert_eq!(h.kind(), kind);
            assert_eq!(h.index(), 7);
            assert!(h.is_predefined());
            let d = Handle::dynamic(kind, 0x2000);
            assert_eq!(d.kind(), kind);
            assert_eq!(d.index(), 0x2000);
            assert!(!d.is_predefined());
        }
    }

    #[test]
    fn null_detection() {
        assert!(Handle::NULL.is_null());
        assert!(Handle::COMM_NULL.is_null());
        assert!(!Handle::COMM_WORLD.is_null());
    }

    #[test]
    #[should_panic(expected = "collides with predefined range")]
    fn dynamic_slot_in_predefined_range_panics() {
        let _ = Handle::dynamic(HandleKind::Comm, 3);
    }

    #[test]
    fn raw_round_trip() {
        let h = Handle::dynamic(HandleKind::Request, 0x1234);
        assert_eq!(Handle::from_raw(h.raw()), h);
    }

    #[test]
    fn debug_format_is_readable() {
        assert_eq!(format!("{:?}", Handle::COMM_WORLD), "Comm#1*");
        assert_eq!(
            format!("{:?}", Handle::dynamic(HandleKind::Op, 0x1001)),
            "Op#4097"
        );
    }
}
