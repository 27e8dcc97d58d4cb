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
//! * **Tuning** ([`tuning`]): per-message software costs, the ch3:sock
//!   arrival model ([`tuning::SockArrival`]), and the selection table —
//!   Bruck and pairwise-exchange alltoall, binomial and van de Geijn
//!   broadcast, recursive-doubling and Rabenseifner allreduce, the MPICH
//!   lineage with MPICH-like switch-over points (the table is in
//!   [`tuning`]'s docs).
//! * **Object representation** ([`objects`]): slot tables behind the
//!   bit-packed handles.
//!
//! Everything else — matching, point-to-point, requests, communicator and
//! datatype management, the collective algorithms, reduction kernels — is
//! the library every vendor shares, [`simnet::mpi`], instantiated with
//! this crate's marker ([`mpih::Mpich`]). MPI libraries differ in ABI and
//! tuning, not in semantics.
//!
//! The library is instantiated per rank (`Process::<Mpich>::init`) inside
//! a `simnet` world and charges all costs to the rank's virtual clock.
//!
//! This crate knows nothing about the standard ABI, Mukautuva, or MANA:
//! dependency-wise it sits at the bottom of the stool, exactly like a real
//! vendor MPI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mpih;
pub mod objects;
pub mod tuning;

pub use mpih::Mpich;
