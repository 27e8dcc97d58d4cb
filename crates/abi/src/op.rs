//! Standardized predefined reduction operations.

use crate::handle::{Handle, HandleKind};

/// The predefined reduction operations of the standard ABI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// `MPI_SUM`.
    Sum,
    /// `MPI_PROD`.
    Prod,
    /// `MPI_MIN`.
    Min,
    /// `MPI_MAX`.
    Max,
    /// `MPI_LAND` — logical and.
    Land,
    /// `MPI_LOR` — logical or.
    Lor,
    /// `MPI_LXOR` — logical xor.
    Lxor,
    /// `MPI_BAND` — bitwise and.
    Band,
    /// `MPI_BOR` — bitwise or.
    Bor,
    /// `MPI_BXOR` — bitwise xor.
    Bxor,
}

impl ReduceOp {
    /// All predefined operations, in ABI index order.
    pub const ALL: [ReduceOp; 10] = [
        ReduceOp::Sum,
        ReduceOp::Prod,
        ReduceOp::Min,
        ReduceOp::Max,
        ReduceOp::Land,
        ReduceOp::Lor,
        ReduceOp::Lxor,
        ReduceOp::Band,
        ReduceOp::Bor,
        ReduceOp::Bxor,
    ];

    /// The ABI handle index (1-based; 0 is `MPI_OP_NULL`).
    pub const fn abi_index(self) -> u32 {
        match self {
            ReduceOp::Sum => 1,
            ReduceOp::Prod => 2,
            ReduceOp::Min => 3,
            ReduceOp::Max => 4,
            ReduceOp::Land => 5,
            ReduceOp::Lor => 6,
            ReduceOp::Lxor => 7,
            ReduceOp::Band => 8,
            ReduceOp::Bor => 9,
            ReduceOp::Bxor => 10,
        }
    }

    /// The standardized handle value.
    pub const fn handle(self) -> Handle {
        Handle::predefined(HandleKind::Op, self.abi_index())
    }

    /// Recover the operation from a standardized handle, if predefined.
    pub fn from_handle(h: Handle) -> Option<ReduceOp> {
        if h.kind() != HandleKind::Op {
            return None;
        }
        ReduceOp::ALL
            .into_iter()
            .find(|o| o.abi_index() == h.index())
    }

    /// Whether the op is defined for non-numeric types (`Byte`/`Char`):
    /// only the bitwise family is.
    pub const fn is_bitwise(self) -> bool {
        matches!(self, ReduceOp::Band | ReduceOp::Bor | ReduceOp::Bxor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_round_trip() {
        for op in ReduceOp::ALL {
            assert_eq!(ReduceOp::from_handle(op.handle()), Some(op));
            assert!(op.handle().is_predefined());
        }
    }

    #[test]
    fn null_and_foreign_handles_rejected() {
        assert_eq!(ReduceOp::from_handle(Handle::OP_NULL), None);
        assert_eq!(ReduceOp::from_handle(Handle::COMM_WORLD), None);
    }

    #[test]
    fn indices_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for op in ReduceOp::ALL {
            assert!(seen.insert(op.abi_index()));
            assert_ne!(op.abi_index(), 0);
        }
    }

    #[test]
    fn bitwise_classification() {
        assert!(ReduceOp::Band.is_bitwise());
        assert!(!ReduceOp::Sum.is_bitwise());
    }
}
