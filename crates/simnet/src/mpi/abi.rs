//! The vendor's native header as a trait, and the collective entry points
//! a vendor library implements.

use std::fmt::Debug;
use std::hash::Hash;
use std::ops::DerefMut;

use super::kernels::{BuiltinOp, ElemKind};
use super::objects::ObjectStore;
use super::process::Process;
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

/// What a vendor's `mpi.h` fixes — implemented by a zero-sized marker
/// beside the header module. The engine, the wrap library and the tests
/// are generic over it; the values stay the vendor's own.
pub trait NativeAbi: Copy + Debug + Sized + 'static {
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
    /// When a message on the wire becomes visible to the matcher: the
    /// vendor's progress-engine cost model.
    type Arrival: ArrivalModel;
    /// How the library represents its objects behind the handles.
    type Store: ObjectStore<Self>;
    /// The library a binary compiled against this header links: a
    /// [`Process`] plus the vendor's collective algorithms.
    type Library: Collectives<Self>;

    /// Library identification string.
    const VERSION: &'static str;
    /// Effective combine rate of the reduction loop (bytes per virtual
    /// nanosecond), charged by the collectives per combined byte.
    const REDUCE_BYTES_PER_NS: f64;

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

/// The collective entry points, implemented by each vendor library with
/// its own algorithm family on [`Process::xsend`] / [`Process::xrecv`].
pub trait Collectives<V: NativeAbi>: DerefMut<Target = Process<V>> {
    /// `MPI_Barrier`.
    fn barrier(&mut self, comm: V::Comm) -> MpiResult<()>;

    /// `MPI_Bcast`.
    fn bcast(&mut self, buf: &mut [u8], dt: V::Datatype, root: i32, comm: V::Comm)
        -> MpiResult<()>;

    /// `MPI_Reduce`. `recvbuf` must equal `sendbuf` in length at the root
    /// (it may be empty elsewhere).
    fn reduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        op: V::Op,
        root: i32,
        comm: V::Comm,
    ) -> MpiResult<()>;

    /// `MPI_Allreduce`.
    fn allreduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        op: V::Op,
        comm: V::Comm,
    ) -> MpiResult<()>;

    /// `MPI_Gather` (equal contributions; `recvbuf` significant at root).
    fn gather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        root: i32,
        comm: V::Comm,
    ) -> MpiResult<()>;

    /// `MPI_Scatter` (equal blocks; `sendbuf` significant at root).
    fn scatter(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        root: i32,
        comm: V::Comm,
    ) -> MpiResult<()>;

    /// `MPI_Allgather` (equal contributions).
    fn allgather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        comm: V::Comm,
    ) -> MpiResult<()>;

    /// `MPI_Alltoall` (equal blocks).
    fn alltoall(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        comm: V::Comm,
    ) -> MpiResult<()>;

    /// `MPI_Scan` (inclusive prefix reduction).
    fn scan(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        op: V::Op,
        comm: V::Comm,
    ) -> MpiResult<()>;
}
