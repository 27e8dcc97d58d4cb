//! Substrate-level errors.

use std::fmt;

/// Result alias for substrate operations.
pub type SimResult<T> = Result<T, SimError>;

/// Errors raised by the simulated cluster substrate.
///
/// These model transport-level failures (the kind a real MPI library would
/// observe from its network layer), not MPI semantic errors — those are the
/// business of the vendor libraries built on top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Destination rank is out of range for the fabric.
    NoSuchRank {
        /// The offending rank id.
        rank: usize,
        /// Number of ranks in the fabric.
        nranks: usize,
    },
    /// The fabric has been shut down (all senders dropped).
    Disconnected,
    /// A rank thread panicked during a `World::run` and the run was aborted.
    RankPanicked {
        /// The rank whose thread panicked.
        rank: usize,
        /// Panic payload rendered to text, when available.
        message: String,
    },
    /// A configuration was rejected (e.g. zero ranks).
    InvalidConfig(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoSuchRank { rank, nranks } => {
                write!(f, "no such rank {rank} (fabric has {nranks} ranks)")
            }
            SimError::Disconnected => write!(f, "fabric disconnected"),
            SimError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::InvalidConfig(msg) => write!(f, "invalid cluster configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::NoSuchRank { rank: 9, nranks: 4 };
        assert!(e.to_string().contains("rank 9"));
        assert!(e.to_string().contains("4 ranks"));
        let e = SimError::RankPanicked {
            rank: 2,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
    }
}
