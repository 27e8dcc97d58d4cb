//! The standardized status object.
//!
//! The fields of `MPI_Status` are one of the specific pain points Hammond
//! et al. report for ABI standardization: MPICH and Open MPI lay the public
//! fields out differently and keep different private fields. The standard
//! ABI fixes one layout; the vendor simulations in this workspace each use
//! their own incompatible layout, and the `muk` shim converts.

use crate::consts;

/// Standardized receive status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbiStatus {
    /// Rank of the message source.
    pub source: i32,
    /// Message tag.
    pub tag: i32,
    /// Error code for this operation (used by `waitall` semantics).
    pub error: i32,
    /// Number of **bytes** actually transferred.
    pub count_bytes: u64,
}

impl AbiStatus {
    /// An empty status (used for operations with no meaningful status, like
    /// sends — mirrors `MPI_STATUS_IGNORE` semantics).
    pub fn empty() -> AbiStatus {
        AbiStatus {
            source: consts::ANY_SOURCE,
            tag: consts::ANY_TAG,
            error: 0,
            count_bytes: 0,
        }
    }

    /// Construct a status for a completed receive.
    pub fn for_receive(source: i32, tag: i32, count_bytes: usize) -> AbiStatus {
        AbiStatus {
            source,
            tag,
            error: 0,
            count_bytes: count_bytes as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_status_is_wildcarded() {
        let st = AbiStatus::empty();
        assert_eq!(st.source, consts::ANY_SOURCE);
        assert_eq!(st.tag, consts::ANY_TAG);
        assert_eq!(st.error, 0);
        assert_eq!(st.count_bytes, 0);
    }
}
