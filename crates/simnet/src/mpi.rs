//! The one MPI engine both vendor libraries are built from.
//!
//! What differs between MPI libraries is the *native ABI* — handle
//! representation, constant values, status layout, error codes — and the
//! tuning, not the semantics. So the semantics live here once, generic
//! over the vendor's native header:
//!
//! * [`NativeAbi`] is that header as a trait: handle and status types,
//!   sentinel and error values, the predefined datatype and op tables,
//!   the arrival cost model and the object representation. Each vendor
//!   crate implements it for a zero-sized marker beside its `mpi.h`
//!   module.
//! * [`Process`] is one rank's library instance: lifecycle,
//!   point-to-point, requests, communicator / datatype / op management
//!   and the helpers the collective algorithms share, over
//!   [`crate::matching::MatchCore`].
//! * [`ObjectStore`] is what a vendor's object representation (integer
//!   slot tables, strided addresses) must answer; the records it stores
//!   ([`CommInfo`], [`DerivedType`], [`UserOp`], [`Request`]) exist once.
//! * [`kernels`] is the reduction arithmetic.
//! * [`Collectives`] is the collective entry points a vendor implements
//!   with its own algorithms on [`Process::xsend`] / [`Process::xrecv`].
//!
//! Dispatch is static: everything is monomorphised per vendor, nothing
//! on a message's path is a trait object.

mod abi;
pub mod kernels;
mod objects;
mod process;

pub use abi::{Collectives, MpiResult, NativeAbi, NativeStatus};
pub use kernels::{BuiltinOp, ElemKind};
pub use objects::{
    comm_rank_of_world, CommInfo, DerivedType, ObjectStore, PostedRecv, Request, UserFn, UserOp,
};
pub use process::{chunk_lengths, P2pCosts, Process};
