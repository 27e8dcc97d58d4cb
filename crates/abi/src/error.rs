//! Standardized error classes and code values.

use std::fmt;

use crate::handle::HandleKind;

/// Result alias for ABI-level operations.
pub type AbiResult<T> = Result<T, AbiError>;

/// Standardized MPI error classes (a practical subset, plus the
/// fault-tolerance classes used by the failure-injection extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbiError {
    /// Invalid buffer pointer / length mismatch.
    Buffer,
    /// Invalid count argument.
    Count,
    /// Invalid datatype handle.
    Datatype,
    /// Invalid tag argument.
    Tag,
    /// Invalid communicator handle.
    Comm,
    /// Invalid rank.
    Rank,
    /// Invalid request handle.
    Request,
    /// Invalid root.
    Root,
    /// Invalid group handle.
    Group,
    /// Invalid reduction operation handle.
    Op,
    /// Message truncated on receive.
    Truncate,
    /// Invalid generic argument.
    Arg,
    /// Unknown/other error, with a description.
    Other,
    /// Internal library error (bug in a vendor simulation surfaced at the
    /// ABI boundary).
    Intern,
    /// A peer process failed (fault-tolerance extension, ULFM-style).
    ProcFailed,
    /// The communication substrate shut down underneath the library.
    Shutdown,
    /// The library has been finalized.
    Finalized,
    /// Feature not supported by this library.
    Unsupported,
    /// The coordinated checkpoint protocol failed (a rank died or the
    /// application violated the safe-point contract mid-round).
    Ckpt,
}

impl AbiError {
    /// The standardized integer code for this class. `MPI_SUCCESS` is 0 and
    /// is represented by `Ok(_)` on the Rust side, so all codes here are
    /// positive.
    pub const fn code(self) -> i32 {
        match self {
            AbiError::Buffer => 1,
            AbiError::Count => 2,
            AbiError::Datatype => 3,
            AbiError::Tag => 4,
            AbiError::Comm => 5,
            AbiError::Rank => 6,
            AbiError::Request => 7,
            AbiError::Root => 8,
            AbiError::Group => 9,
            AbiError::Op => 10,
            AbiError::Truncate => 15,
            AbiError::Arg => 13,
            AbiError::Other => 16,
            AbiError::Intern => 17,
            AbiError::ProcFailed => 75,
            AbiError::Shutdown => 76,
            AbiError::Finalized => 50,
            AbiError::Unsupported => 51,
            AbiError::Ckpt => 52,
        }
    }

    /// All error classes.
    pub const ALL: [AbiError; 19] = [
        AbiError::Buffer,
        AbiError::Count,
        AbiError::Datatype,
        AbiError::Tag,
        AbiError::Comm,
        AbiError::Rank,
        AbiError::Request,
        AbiError::Root,
        AbiError::Group,
        AbiError::Op,
        AbiError::Truncate,
        AbiError::Arg,
        AbiError::Other,
        AbiError::Intern,
        AbiError::ProcFailed,
        AbiError::Shutdown,
        AbiError::Finalized,
        AbiError::Unsupported,
        AbiError::Ckpt,
    ];

    /// The "invalid handle" error class for a given handle kind.
    pub fn for_kind(kind: HandleKind) -> AbiError {
        match kind {
            HandleKind::Comm => AbiError::Comm,
            HandleKind::Group => AbiError::Group,
            HandleKind::Datatype => AbiError::Datatype,
            HandleKind::Op => AbiError::Op,
            HandleKind::Request => AbiError::Request,
            HandleKind::Errhandler | HandleKind::Invalid => AbiError::Arg,
        }
    }
}

impl fmt::Display for AbiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            AbiError::Buffer => "invalid buffer",
            AbiError::Count => "invalid count",
            AbiError::Datatype => "invalid datatype handle",
            AbiError::Tag => "invalid tag",
            AbiError::Comm => "invalid communicator handle",
            AbiError::Rank => "invalid rank",
            AbiError::Request => "invalid request handle",
            AbiError::Root => "invalid root",
            AbiError::Group => "invalid group handle",
            AbiError::Op => "invalid reduction operation",
            AbiError::Truncate => "message truncated on receive",
            AbiError::Arg => "invalid argument",
            AbiError::Other => "unknown error",
            AbiError::Intern => "internal library error",
            AbiError::ProcFailed => "peer process failed",
            AbiError::Shutdown => "communication substrate shut down",
            AbiError::Finalized => "library already finalized",
            AbiError::Unsupported => "operation not supported",
            AbiError::Ckpt => "checkpoint protocol failed",
        };
        write!(f, "MPI error {}: {}", self.code(), text)
    }
}

impl std::error::Error for AbiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_unique_and_positive() {
        let mut seen = std::collections::HashSet::new();
        for e in AbiError::ALL {
            assert!(e.code() > 0, "{e:?} must have positive code");
            assert!(seen.insert(e.code()), "duplicate code for {e:?}");
        }
    }

    #[test]
    fn kind_mapping() {
        assert_eq!(AbiError::for_kind(HandleKind::Comm), AbiError::Comm);
        assert_eq!(AbiError::for_kind(HandleKind::Datatype), AbiError::Datatype);
        assert_eq!(AbiError::for_kind(HandleKind::Invalid), AbiError::Arg);
    }

    #[test]
    fn display_contains_code() {
        assert!(AbiError::Truncate.to_string().contains("15"));
    }
}
