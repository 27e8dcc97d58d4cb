//! # mpich-sim — an MPICH-flavoured MPI implementation
//!
//! One of the two **vendor MPI libraries** of the reproduction (the other is
//! `ompi-sim`). Its job is to be a complete, working MPI with the MPICH
//! family's characteristic choices:
//!
//! * **Native ABI** ([`mpih`]): 32-bit *integer* handles with bit-packed
//!   kind/size fields, MPICH constant values (`MPI_ANY_SOURCE = -2`, …) and
//!   MPICH's `MPI_Status` layout. This ABI is deliberately incompatible with
//!   `ompi-sim`'s pointer-style ABI — the incompatibility the paper's
//!   standard-ABI + Mukautuva stack exists to bridge.
//! * **Collective algorithms** ([`coll`]): Bruck and pairwise-exchange
//!   alltoall, binomial and van de Geijn broadcast, recursive-doubling and
//!   Rabenseifner allreduce — the MPICH lineage, with MPICH-like switchover
//!   thresholds ([`tuning::Tuning`]).
//! * **Tuning and cost model** ([`tuning`]): per-message software costs,
//!   protocol thresholds, and the ch3:sock arrival model
//!   ([`tuning::SockArrival`]).
//! * **Object representation** ([`objects`]): slot tables behind the
//!   bit-packed handles.
//!
//! Everything else — matching, point-to-point, requests, communicator and
//! datatype management, reduction kernels — is the engine every vendor
//! shares, [`simnet::mpi`], instantiated with this library's header
//! ([`mpih::Mpich`]). MPI libraries differ in ABI and tuning, not in
//! semantics.
//!
//! The library is instantiated per rank ([`MpichProcess::init`]) inside a
//! `simnet` world and charges all costs to the rank's virtual clock.
//!
//! This crate knows nothing about the standard ABI, Mukautuva, or MANA:
//! dependency-wise it sits at the bottom of the stool, exactly like a real
//! vendor MPI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coll;
pub mod mpih;
pub mod objects;
pub mod proc;
pub mod tuning;

pub use mpih::Mpich;
pub use proc::MpichProcess;
pub use tuning::Tuning;
