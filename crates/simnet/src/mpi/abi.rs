//! The vendor's native header and its tuning, as two traits on one marker.

use std::fmt::Debug;
use std::hash::Hash;

use super::algos::{Allgather, Allreduce, Alltoall, Barrier, Bcast, Gather, Reduce, Scan, Scatter};
use super::kernels::{BuiltinOp, ElemKind};
use super::objects::ObjectStore;
use super::process::P2pCosts;
use crate::matching::ArrivalModel;

/// Result of a native call: the error is the vendor's native code.
pub type MpiResult<T> = Result<T, i32>;

/// A vendor's `MPI_Status` layout.
pub trait NativeStatus: Copy + Default + PartialEq + Debug {
    /// Status of a completed receive of `bytes` bytes.
    fn for_receive(source: i32, tag: i32, bytes: usize) -> Self;
    /// `status.MPI_SOURCE`.
    fn source(&self) -> i32;
    /// `status.MPI_TAG`.
    fn tag(&self) -> i32;
    /// `status.MPI_ERROR`.
    fn error(&self) -> i32;
    /// Bytes transferred (`MPI_Get_count` precursor).
    fn count_bytes(&self) -> u64;
}

/// The shape of one collective call: everything a selection table reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Communicator size.
    pub ranks: usize,
    /// Bytes of one rank's buffer — one block for gather, scatter,
    /// allgather and alltoall.
    pub bytes: usize,
    /// Elements in `bytes`.
    pub count: usize,
    /// Whether the reduction op commutes: predefined ops do, a user op
    /// says so at `MPI_Op_create`; `true` where nothing is reduced.
    pub commute: bool,
}

/// What a vendor's `tuning.rs` fixes — its message path's cost model and
/// which algorithm runs each collective — implemented by the same marker
/// as [`NativeAbi`]. Selection is a pure function of the call's
/// [`Shape`]; the algorithms are [`super::algos`], shared by every vendor.
pub trait Tuning {
    /// When a message on the wire becomes visible to the matcher: the
    /// vendor's progress-engine cost model.
    type Arrival: ArrivalModel;
    /// The arrival model every rank's matcher starts with.
    const ARRIVAL: Self::Arrival;
    /// The per-message software costs of the point-to-point path.
    const P2P: P2pCosts;
    /// Effective combine rate of the reduction loop (bytes per virtual
    /// nanosecond), charged by the collectives per combined byte.
    const REDUCE_BYTES_PER_NS: f64;

    /// `MPI_Barrier`'s algorithm.
    fn barrier(shape: Shape) -> Barrier;
    /// `MPI_Bcast`'s algorithm.
    fn bcast(shape: Shape) -> Bcast;
    /// `MPI_Reduce`'s algorithm.
    fn reduce(shape: Shape) -> Reduce;
    /// `MPI_Allreduce`'s algorithm.
    fn allreduce(shape: Shape) -> Allreduce;
    /// `MPI_Gather`'s algorithm.
    fn gather(shape: Shape) -> Gather;
    /// `MPI_Scatter`'s algorithm.
    fn scatter(shape: Shape) -> Scatter;
    /// `MPI_Allgather`'s algorithm.
    fn allgather(shape: Shape) -> Allgather;
    /// `MPI_Alltoall`'s algorithm.
    fn alltoall(shape: Shape) -> Alltoall;
    /// `MPI_Scan`'s algorithm.
    fn scan(shape: Shape) -> Scan;
}

/// What a vendor's `mpi.h` fixes — implemented by a zero-sized marker
/// beside the header module. The engine, the wrap library and the tests
/// are generic over it; the values stay the vendor's own.
pub trait NativeAbi: Tuning + Copy + Debug + Sized + 'static {
    /// Native communicator handle.
    type Comm: Copy + Eq + Hash + Debug;
    /// Native datatype handle.
    type Datatype: Copy + Eq + Hash + Debug;
    /// Native reduction-op handle.
    type Op: Copy + Eq + Hash + Debug;
    /// Native request handle.
    type Request: Copy + Eq + Hash + Debug;
    /// Native `MPI_Status`.
    type Status: NativeStatus;
    /// How the library represents its objects behind the handles.
    type Store: ObjectStore<Self>;

    /// Library identification string.
    const VERSION: &'static str;

    /// `MPI_ANY_SOURCE`.
    const ANY_SOURCE: i32;
    /// `MPI_PROC_NULL`.
    const PROC_NULL: i32;
    /// `MPI_ANY_TAG`.
    const ANY_TAG: i32;
    /// Largest supported tag.
    const TAG_UB: i32;
    /// `MPI_UNDEFINED`.
    const UNDEFINED: i32;
    /// `MPI_COMM_WORLD`.
    const COMM_WORLD: Self::Comm;
    /// `MPI_COMM_SELF`.
    const COMM_SELF: Self::Comm;
    /// `MPI_COMM_NULL`.
    const COMM_NULL: Self::Comm;
    /// `MPI_REQUEST_NULL`.
    const REQUEST_NULL: Self::Request;

    /// `MPI_SUCCESS`.
    const SUCCESS: i32;
    /// `MPI_ERR_BUFFER`.
    const ERR_BUFFER: i32;
    /// `MPI_ERR_COUNT`.
    const ERR_COUNT: i32;
    /// `MPI_ERR_TYPE`.
    const ERR_TYPE: i32;
    /// `MPI_ERR_TAG`.
    const ERR_TAG: i32;
    /// `MPI_ERR_COMM`.
    const ERR_COMM: i32;
    /// `MPI_ERR_RANK`.
    const ERR_RANK: i32;
    /// `MPI_ERR_ROOT`.
    const ERR_ROOT: i32;
    /// `MPI_ERR_GROUP`.
    const ERR_GROUP: i32;
    /// `MPI_ERR_OP`.
    const ERR_OP: i32;
    /// `MPI_ERR_REQUEST`.
    const ERR_REQUEST: i32;
    /// `MPI_ERR_TRUNCATE`.
    const ERR_TRUNCATE: i32;
    /// `MPI_ERR_ARG`.
    const ERR_ARG: i32;
    /// `MPI_ERR_OTHER`.
    const ERR_OTHER: i32;
    /// `MPI_ERR_INTERN`.
    const ERR_INTERN: i32;
    /// A peer process failed (FT extension).
    const ERR_PROC_FAILED: i32;
    /// The substrate shut down underneath the library.
    const ERR_SHUTDOWN: i32;
    /// The library has been finalized.
    const ERR_FINALIZED: i32;

    /// The predefined datatypes — handle, element size, reduction kind —
    /// in the order byte, char, int8, uint8, int16, uint16, int32,
    /// uint32, int64, uint64, float, double.
    const DATATYPES: [(Self::Datatype, usize, ElemKind); 12];
    /// The predefined reduction ops, in [`BuiltinOp::ALL`] order.
    const OPS: [Self::Op; 10];

    /// Size and reduction kind of a predefined datatype handle.
    fn builtin_type(dt: Self::Datatype) -> Option<(usize, ElemKind)> {
        Self::DATATYPES
            .iter()
            .find(|entry| entry.0 == dt)
            .map(|entry| (entry.1, entry.2))
    }

    /// The predefined op a handle names, if it names one.
    fn builtin_op(op: Self::Op) -> Option<BuiltinOp> {
        Self::OPS
            .iter()
            .position(|&native| native == op)
            .map(|at| BuiltinOp::ALL[at])
    }
}
