//! Standardized predefined datatypes.
//!
//! The ABI fixes the handle values of the predefined datatypes and their
//! sizes, so a binary compiled against the standard `mpi.h` can pass
//! `MPI_DOUBLE` to any compliant library. (Datatype handle translation is
//! one of the concrete problem areas Hammond et al. report from building
//! Mukautuva; the `muk` crate has a table-driven translator for exactly
//! this reason.)

use crate::handle::{Handle, HandleKind};

/// The predefined datatypes of the standard ABI.
///
/// Derived datatypes (contiguous, etc.) are library-created objects and get
/// dynamic handles; this enum covers the predefined set, which is what the
/// workloads in the paper's evaluation use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Datatype {
    /// Untyped bytes (`MPI_BYTE`).
    Byte,
    /// `MPI_CHAR` (1 byte).
    Char,
    /// `MPI_INT8_T`.
    Int8,
    /// `MPI_UINT8_T`.
    Uint8,
    /// `MPI_INT16_T`.
    Int16,
    /// `MPI_UINT16_T`.
    Uint16,
    /// `MPI_INT32_T` / `MPI_INT` on LP64.
    Int32,
    /// `MPI_UINT32_T`.
    Uint32,
    /// `MPI_INT64_T` / `MPI_LONG` on LP64.
    Int64,
    /// `MPI_UINT64_T`.
    Uint64,
    /// `MPI_FLOAT`.
    Float,
    /// `MPI_DOUBLE`.
    Double,
}

impl Datatype {
    /// All predefined datatypes, in ABI index order.
    pub const ALL: [Datatype; 12] = [
        Datatype::Byte,
        Datatype::Char,
        Datatype::Int8,
        Datatype::Uint8,
        Datatype::Int16,
        Datatype::Uint16,
        Datatype::Int32,
        Datatype::Uint32,
        Datatype::Int64,
        Datatype::Uint64,
        Datatype::Float,
        Datatype::Double,
    ];

    /// The ABI handle index for this datatype (1-based; 0 is
    /// `MPI_DATATYPE_NULL`).
    pub const fn abi_index(self) -> u32 {
        match self {
            Datatype::Byte => 1,
            Datatype::Char => 2,
            Datatype::Int8 => 3,
            Datatype::Uint8 => 4,
            Datatype::Int16 => 5,
            Datatype::Uint16 => 6,
            Datatype::Int32 => 7,
            Datatype::Uint32 => 8,
            Datatype::Int64 => 9,
            Datatype::Uint64 => 10,
            Datatype::Float => 11,
            Datatype::Double => 12,
        }
    }

    /// The standardized handle value.
    pub const fn handle(self) -> Handle {
        Handle::predefined(HandleKind::Datatype, self.abi_index())
    }

    /// Recover the datatype from a standardized handle, if predefined.
    pub fn from_handle(h: Handle) -> Option<Datatype> {
        if h.kind() != HandleKind::Datatype {
            return None;
        }
        Datatype::ALL
            .into_iter()
            .find(|d| d.abi_index() == h.index())
    }

    /// Size in bytes of one element.
    pub const fn size(self) -> usize {
        match self {
            Datatype::Byte | Datatype::Char | Datatype::Int8 | Datatype::Uint8 => 1,
            Datatype::Int16 | Datatype::Uint16 => 2,
            Datatype::Int32 | Datatype::Uint32 | Datatype::Float => 4,
            Datatype::Int64 | Datatype::Uint64 | Datatype::Double => 8,
        }
    }

    /// Total buffer length in bytes for `count` elements.
    pub const fn extent(self, count: usize) -> usize {
        self.size() * count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_round_trip() {
        for d in Datatype::ALL {
            assert_eq!(Datatype::from_handle(d.handle()), Some(d));
            assert!(d.handle().is_predefined());
        }
    }

    #[test]
    fn null_and_foreign_handles_rejected() {
        assert_eq!(Datatype::from_handle(Handle::DATATYPE_NULL), None);
        assert_eq!(Datatype::from_handle(Handle::COMM_WORLD), None);
        assert_eq!(
            Datatype::from_handle(Handle::dynamic(HandleKind::Datatype, 0x1001)),
            None
        );
    }

    #[test]
    fn sizes_match_rust_layouts() {
        assert_eq!(Datatype::Double.size(), std::mem::size_of::<f64>());
        assert_eq!(Datatype::Float.size(), std::mem::size_of::<f32>());
        assert_eq!(Datatype::Int32.size(), std::mem::size_of::<i32>());
        assert_eq!(Datatype::Int64.size(), std::mem::size_of::<i64>());
        assert_eq!(Datatype::Byte.size(), 1);
    }

    #[test]
    fn abi_indices_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in Datatype::ALL {
            assert!(seen.insert(d.abi_index()), "duplicate abi index for {d:?}");
            assert_ne!(d.abi_index(), 0, "index 0 is DATATYPE_NULL");
        }
    }

    #[test]
    fn extent_multiplies() {
        assert_eq!(Datatype::Double.extent(10), 80);
        assert_eq!(Datatype::Byte.extent(10), 10);
    }
}
