//! Errors of the session layer.

use std::fmt;

use dmtcp_sim::replica::ReplicaError;
use dmtcp_sim::store::StoreError;
use mpi_abi::AbiError;
use simnet::SimError;

/// Result alias for session-layer operations.
pub type StoolResult<T> = Result<T, StoolError>;

/// Anything that can go wrong assembling or running the three-legged stool.
#[derive(Debug, Clone, PartialEq)]
pub enum StoolError {
    /// An MPI call failed (standard error class).
    Abi(AbiError),
    /// The simulated cluster substrate failed.
    Sim(SimError),
    /// The session configuration is inconsistent.
    Config(String),
    /// A checkpoint image could not be restored.
    Restore(String),
    /// The delta-checkpoint store failed (committing, flushing or
    /// rebuilding an epoch chain).
    Store(StoreError),
    /// The replicated coordinator could not quorum-commit an epoch
    /// record (the checkpoint aborted atomically).
    Replica(ReplicaError),
    /// The application reported an error.
    App(String),
}

impl fmt::Display for StoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoolError::Abi(e) => write!(f, "MPI error: {e}"),
            StoolError::Sim(e) => write!(f, "cluster error: {e}"),
            StoolError::Config(m) => write!(f, "session configuration error: {m}"),
            StoolError::Restore(m) => write!(f, "restore error: {m}"),
            StoolError::Store(e) => write!(f, "checkpoint store error: {e}"),
            StoolError::Replica(e) => write!(f, "coordinator replication error: {e}"),
            StoolError::App(m) => write!(f, "application error: {m}"),
        }
    }
}

impl std::error::Error for StoolError {}

impl From<AbiError> for StoolError {
    fn from(e: AbiError) -> Self {
        StoolError::Abi(e)
    }
}

impl From<SimError> for StoolError {
    fn from(e: SimError) -> Self {
        StoolError::Sim(e)
    }
}

impl From<StoreError> for StoolError {
    fn from(e: StoreError) -> Self {
        StoolError::Store(e)
    }
}

impl From<ReplicaError> for StoolError {
    fn from(e: ReplicaError) -> Self {
        StoolError::Replica(e)
    }
}

/// Internal: smuggle a `StoolError` through the substrate's error type
/// (rank closures must return `SimResult`).
pub(crate) fn to_sim(e: StoolError) -> SimError {
    match e {
        StoolError::Sim(e) => e,
        other => SimError::InvalidConfig(format!("[stool] {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: StoolError = AbiError::Truncate.into();
        assert!(e.to_string().contains("truncated"));
        let e: StoolError = SimError::Disconnected.into();
        assert!(e.to_string().contains("disconnected"));
        let e = StoolError::Config("no vendor".into());
        assert!(e.to_string().contains("no vendor"));
    }

    #[test]
    fn sim_round_trip() {
        let e = to_sim(StoolError::Sim(SimError::Disconnected));
        assert_eq!(e, SimError::Disconnected);
        let e = to_sim(StoolError::App("boom".into()));
        assert!(matches!(e, SimError::InvalidConfig(m) if m.contains("boom")));
    }
}
