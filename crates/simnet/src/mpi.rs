//! The one MPI library every vendor is built from.
//!
//! What differs between MPI libraries is the *native ABI* — handle
//! representation, constant values, status layout, error codes — and the
//! tuning, not the semantics. So the semantics live here once, generic
//! over the vendor's marker type:
//!
//! * [`NativeAbi`] is the vendor's header as a trait: handle and status
//!   types, sentinel and error values, the predefined datatype and op
//!   tables and the object representation. Each vendor crate implements
//!   it for a zero-sized marker beside its `mpi.h` module.
//! * [`Tuning`] is the vendor's `tuning.rs` as a trait on the same
//!   marker: per-message costs, the arrival model, the reduction rate and
//!   the selection table — which [`algos`] function runs each collective
//!   for a call's [`Shape`].
//! * [`Process`] is one rank's library instance: lifecycle,
//!   point-to-point, requests, communicator / datatype / op management
//!   and the nine collective entry points, over
//!   [`crate::matching::MatchCore`].
//! * [`algos`] is every collective algorithm, one function each.
//! * [`ObjectStore`] is what a vendor's object representation (integer
//!   slot tables, strided addresses) must answer; the records it stores
//!   ([`CommInfo`], [`DerivedType`], [`UserOp`], [`Request`]) exist once.
//! * [`kernels`] is the reduction arithmetic.
//!
//! Dispatch is static: everything is monomorphised per vendor, nothing
//! on a message's path is a trait object. The transport the algorithms
//! are built on is private to this module.

mod abi;
pub mod algos;
mod coll;
pub mod kernels;
mod objects;
mod process;

pub use abi::{MpiResult, NativeAbi, NativeStatus, Shape, Tuning};
pub use kernels::{BuiltinOp, ElemKind};
pub use objects::{
    comm_rank_of_world, CommInfo, DerivedType, ObjectStore, PostedRecv, Request, UserFn, UserOp,
};
pub use process::{P2pCosts, Process};
