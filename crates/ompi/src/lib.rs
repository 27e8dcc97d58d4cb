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
//! * **Collective algorithms** ([`coll`]): the `coll/tuned` lineage —
//!   binary-tree and pipelined-chain broadcast, ring allreduce, linear and
//!   pairwise alltoall, with its own thresholds ([`tuning::Tuning`]) and a
//!   leaner per-message software path than the MPICH flavour.
//! * **Object representation** ([`objects`]): a heap of records behind
//!   the pointer-style handles.
//!
//! Everything else — matching, point-to-point, requests, communicator and
//! datatype management, reduction kernels — is the engine every vendor
//! shares, [`simnet::mpi`], instantiated with this library's header
//! ([`ompi_h::OpenMpi`]) and the plain wire-arrival cost model. MPI
//! libraries differ in ABI and tuning, not in semantics.
//!
//! Like a real vendor library, this crate knows nothing about the standard
//! ABI, Mukautuva, or MANA.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coll;
pub mod objects;
pub mod ompi_h;
pub mod proc;
pub mod tuning;

pub use ompi_h::OpenMpi;
pub use proc::OmpiProcess;
pub use tuning::Tuning;
