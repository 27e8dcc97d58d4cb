//! # ompi-sim — an Open MPI-flavoured MPI implementation
//!
//! The second of the two **vendor MPI libraries** of the reproduction (its
//! sibling is `mpich-sim`). A complete, working MPI with the Open MPI
//! family's characteristic choices:
//!
//! * **Native ABI** ([`ompi_h`]): **pointer-style** handles (newtyped
//!   addresses of library-owned objects; predefined objects at fixed symbol
//!   "addresses"), Open MPI constant values (`MPI_ANY_SOURCE = -1`,
//!   `MPI_PROC_NULL = -2` — note the swap against MPICH!), Open MPI's
//!   `MPI_Status` field order.
//! * **Tuning** ([`tuning`]): a leaner per-message software path than the
//!   MPICH flavour and the `coll/tuned` selection table — binary-tree and
//!   pipelined-chain broadcast, ring allreduce, posted and pairwise
//!   alltoall, with its own switch-over points (the table is in
//!   [`tuning`]'s docs).
//! * **Object representation** ([`objects`]): a heap of records behind
//!   the pointer-style handles.
//!
//! Everything else — matching, point-to-point, requests, communicator and
//! datatype management, the collective algorithms, reduction kernels — is
//! the library every vendor shares, [`simnet::mpi`], instantiated with
//! this crate's marker ([`ompi_h::OpenMpi`]). MPI libraries differ in ABI
//! and tuning, not in semantics.
//!
//! Like a real vendor library, this crate knows nothing about the standard
//! ABI, Mukautuva, or MANA.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod objects;
pub mod ompi_h;
pub mod tuning;

pub use ompi_h::OpenMpi;
