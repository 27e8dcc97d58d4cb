//! The lockstep harness shared by the multi-round coordinator batteries
//! (`coordinator_stress`, `replica_failover`); it lives in
//! `dmtcp::testing` so the `scale` bench drives its failover section
//! through the same loop.

pub use mpi_stool::dmtcp::testing::lockstep;
