//! The standard ABI function table.
//!
//! [`MpiAbi`] is the Rust analogue of the symbol set an ABI-compliant
//! `libmpi.so` exports. A per-rank library instance implements it; an
//! "application binary" holds only a `&mut dyn MpiAbi` plus the encodings
//! from this crate — nothing vendor-specific — and is therefore *compiled
//! once* and runnable over:
//!
//! * the Mukautuva-like shim (`muk` crate) bound to either vendor library;
//! * the MANA wrapper (`mana-sim`), which itself wraps the shim and adds
//!   transparent checkpointing — the full three-legged stool.
//!
//! ## Deviations from the C API (deliberate, safety-driven)
//!
//! * Buffers are byte slices; the element **count is implied** by
//!   `buf.len() / datatype.size()` (a mismatch is [`crate::AbiError::Count`]).
//! * Nonblocking receives cannot safely borrow the caller's buffer across
//!   calls in safe Rust, so [`MpiAbi::wait`] returns the received payload as
//!   a reference-counted [`Bytes`] for receive requests (`None` for sends).
//!   This models the common eager-protocol path where the library owns the
//!   landing buffer; the portable layer in the `stool` crate copies into
//!   the application's typed buffer.
//! * `MPI_SUCCESS` is `Ok(_)`; error classes are [`crate::AbiError`] values whose
//!   integer codes are standardized in [`crate::error`].

use bytes::Bytes;

use crate::error::AbiResult;
use crate::handle::Handle;
use crate::status::AbiStatus;
use crate::version::AbiVersion;

/// A user-defined reduction function: combines `invec` into `inoutvec`
/// element-wise. `elem_size` is the datatype size in bytes; the function
/// must handle `invec.len() / elem_size` elements.
pub type UserOpFn = fn(invec: &[u8], inoutvec: &mut [u8], elem_size: usize);

/// The complete standard-ABI function table (one instance per rank).
///
/// A library instance is thread-local to its rank (like a real MPI library
/// initialized in a single-threaded process), so the trait does not require
/// `Send`.
///
/// Method order follows the MPI standard's chapter order: environment,
/// point-to-point, collectives, communicators, datatypes, ops.
pub trait MpiAbi {
    // ------------------------------------------------------------------
    // Environment & identity
    // ------------------------------------------------------------------

    /// Human-readable library identification (`MPI_Get_library_version`),
    /// e.g. `"mpich-sim 3.3.2 (native ABI: integer handles)"`. The Fig. 6
    /// harness uses this to prove which vendor is live after a restart.
    fn library_version(&self) -> String;

    /// The standard-ABI version this library implements.
    fn abi_version(&self) -> AbiVersion {
        AbiVersion::CURRENT
    }

    /// Release library resources. Further calls (except queries) fail with
    /// [`crate::AbiError::Finalized`].
    fn finalize(&mut self) -> AbiResult<()>;

    /// Whether [`MpiAbi::finalize`] has been called.
    fn is_finalized(&self) -> bool;

    /// Virtual wall-clock time in seconds (`MPI_Wtime`).
    fn wtime(&mut self) -> f64;

    // ------------------------------------------------------------------
    // Communicator queries
    // ------------------------------------------------------------------

    /// Number of ranks in `comm` (`MPI_Comm_size`).
    fn comm_size(&mut self, comm: Handle) -> AbiResult<i32>;

    /// This process's rank in `comm` (`MPI_Comm_rank`).
    fn comm_rank(&mut self, comm: Handle) -> AbiResult<i32>;

    /// Translate a rank in `comm` to the corresponding rank in the world
    /// communicator (the `MPI_Group_translate_ranks` use case; the MANA
    /// drain protocol depends on it).
    fn comm_translate_rank(&mut self, comm: Handle, rank: i32) -> AbiResult<i32>;

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Blocking standard-mode send (`MPI_Send`).
    fn send(
        &mut self,
        buf: &[u8],
        datatype: Handle,
        dest: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<()>;

    /// Blocking receive (`MPI_Recv`). `src`/`tag` accept the wildcards
    /// [`crate::consts::ANY_SOURCE`] / [`crate::consts::ANY_TAG`].
    /// Receiving a message longer than `buf` is [`crate::AbiError::Truncate`].
    fn recv(
        &mut self,
        buf: &mut [u8],
        datatype: Handle,
        src: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<AbiStatus>;

    /// Nonblocking send (`MPI_Isend`); completes via [`MpiAbi::wait`].
    fn isend(
        &mut self,
        buf: &[u8],
        datatype: Handle,
        dest: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<Handle>;

    /// Nonblocking receive (`MPI_Irecv`) for up to `max_bytes` bytes.
    /// The payload is returned by [`MpiAbi::wait`].
    fn irecv(
        &mut self,
        max_bytes: usize,
        datatype: Handle,
        src: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<Handle>;

    /// Block until a request completes (`MPI_Wait`). Returns the status
    /// and, for receive requests, the received payload.
    fn wait(&mut self, request: Handle) -> AbiResult<(AbiStatus, Option<Bytes>)>;

    /// Nonblocking completion test (`MPI_Test`).
    fn test(&mut self, request: Handle) -> AbiResult<Option<(AbiStatus, Option<Bytes>)>>;

    /// Complete all requests (`MPI_Waitall`), in index order.
    fn waitall(&mut self, requests: &[Handle]) -> AbiResult<Vec<(AbiStatus, Option<Bytes>)>> {
        requests.iter().map(|&r| self.wait(r)).collect()
    }

    /// Combined send+receive (`MPI_Sendrecv`), deadlock-free.
    /// The argument list mirrors the MPI binding one-to-one.
    #[allow(clippy::too_many_arguments)]
    fn sendrecv(
        &mut self,
        sendbuf: &[u8],
        dest: i32,
        sendtag: i32,
        recvbuf: &mut [u8],
        src: i32,
        recvtag: i32,
        datatype: Handle,
        comm: Handle,
    ) -> AbiResult<AbiStatus>;

    /// Blocking probe (`MPI_Probe`): wait until a matching message is
    /// available and describe it without receiving it.
    fn probe(&mut self, src: i32, tag: i32, comm: Handle) -> AbiResult<AbiStatus>;

    /// Nonblocking probe (`MPI_Iprobe`). The MANA drain protocol is built
    /// on this, exactly as in the real system.
    fn iprobe(&mut self, src: i32, tag: i32, comm: Handle) -> AbiResult<Option<AbiStatus>>;

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// `MPI_Barrier`.
    fn barrier(&mut self, comm: Handle) -> AbiResult<()>;

    /// `MPI_Bcast`: `buf` is input at `root`, output elsewhere.
    fn bcast(&mut self, buf: &mut [u8], datatype: Handle, root: i32, comm: Handle)
        -> AbiResult<()>;

    /// `MPI_Reduce`: element-wise reduction into `recvbuf` at `root`.
    /// Non-root ranks may pass an empty `recvbuf`.
    fn reduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()>;

    /// `MPI_Allreduce`.
    fn allreduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: Handle,
        comm: Handle,
    ) -> AbiResult<()>;

    /// `MPI_Gather`: concatenate equal-size contributions at `root`
    /// (`recvbuf.len() == nranks * sendbuf.len()` at root, 0 elsewhere).
    fn gather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()>;

    /// `MPI_Scatter`: inverse of gather.
    fn scatter(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()>;

    /// `MPI_Allgather`.
    fn allgather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        comm: Handle,
    ) -> AbiResult<()>;

    /// `MPI_Alltoall`: personalized all-to-all exchange of equal blocks.
    fn alltoall(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        comm: Handle,
    ) -> AbiResult<()>;

    /// `MPI_Scan`: inclusive prefix reduction.
    fn scan(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: Handle,
        comm: Handle,
    ) -> AbiResult<()>;

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// `MPI_Comm_dup`: duplicate with a fresh context id (collective).
    fn comm_dup(&mut self, comm: Handle) -> AbiResult<Handle>;

    /// `MPI_Comm_split` (collective). Ranks passing
    /// [`crate::consts::UNDEFINED`] as `color` get [`Handle::COMM_NULL`].
    fn comm_split(&mut self, comm: Handle, color: i32, key: i32) -> AbiResult<Handle>;

    /// `MPI_Comm_free`.
    fn comm_free(&mut self, comm: Handle) -> AbiResult<()>;

    // ------------------------------------------------------------------
    // Datatypes
    // ------------------------------------------------------------------

    /// `MPI_Type_size` in bytes (predefined or derived).
    fn type_size(&mut self, datatype: Handle) -> AbiResult<usize>;

    /// `MPI_Type_contiguous`: a derived type of `count` copies of `oldtype`.
    fn type_contiguous(&mut self, count: i32, oldtype: Handle) -> AbiResult<Handle>;

    /// `MPI_Type_commit`.
    fn type_commit(&mut self, datatype: Handle) -> AbiResult<()>;

    /// `MPI_Type_free`.
    fn type_free(&mut self, datatype: Handle) -> AbiResult<()>;

    // ------------------------------------------------------------------
    // Reduction operations
    // ------------------------------------------------------------------

    /// `MPI_Op_create`: register a user-defined reduction.
    fn op_create(&mut self, function: UserOpFn, commute: bool) -> AbiResult<Handle>;

    /// `MPI_Op_free`.
    fn op_free(&mut self, op: Handle) -> AbiResult<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait must stay object safe: application binaries hold
    /// `&mut dyn MpiAbi` and nothing else.
    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_: &mut dyn MpiAbi) {}
        fn _boxed(_: Box<dyn MpiAbi>) {}
    }
}
