//! The records behind the native handles, and what a vendor's object
//! representation must answer about them.
//!
//! The records are the same in every MPI library; how a handle finds its
//! record (bit-packed slot numbers, addresses) is the vendor's
//! [`ObjectStore`].

use std::marker::PhantomData;
use std::sync::Arc;

use bytes::Bytes;

use super::abi::{MpiResult, NativeAbi};
use super::kernels::ElemKind;
use crate::matching::{SrcPattern, TagPattern};

/// A user-defined reduction function (same shape as the standard ABI's
/// `UserOpFn`, declared independently: a vendor library does not know
/// about the standard ABI).
pub type UserFn = fn(invec: &[u8], inoutvec: &mut [u8], elem_size: usize);

/// Communicator rank of world rank `world` in a member list (index =
/// communicator rank, value = world rank), if a member. Every receive
/// translates its source through here, so identity-mapped communicators
/// (`MPI_COMM_WORLD` and its dups) answer in O(1); members are unique, so
/// `ranks[world] == world` is the only position `world` can have.
pub fn comm_rank_of_world(ranks: &[usize], world: usize) -> Option<i32> {
    if ranks.get(world) == Some(&world) {
        return Some(world as i32);
    }
    ranks.iter().position(|&w| w == world).map(|p| p as i32)
}

/// Cheap-to-clone communicator facts used throughout the library.
#[derive(Debug, Clone)]
pub struct CommInfo<V> {
    /// Context-id base: point-to-point traffic uses `ctx_base`, collective
    /// traffic `ctx_base + 1`.
    pub ctx_base: u64,
    /// Members: index = communicator rank, value = world (fabric) rank.
    pub ranks: Arc<Vec<usize>>,
    /// This process's rank within the communicator.
    pub my_rank: i32,
    abi: PhantomData<V>,
}

impl<V: NativeAbi> CommInfo<V> {
    /// A communicator over `ranks` in which this process is `my_rank`.
    pub fn new(ctx_base: u64, ranks: Arc<Vec<usize>>, my_rank: i32) -> Self {
        CommInfo {
            ctx_base,
            ranks,
            my_rank,
            abi: PhantomData,
        }
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// World rank of a communicator rank, validating range.
    pub fn world_of(&self, comm_rank: i32) -> MpiResult<usize> {
        usize::try_from(comm_rank)
            .ok()
            .and_then(|r| self.ranks.get(r).copied())
            .ok_or(V::ERR_RANK)
    }

    /// Communicator rank of a world rank, if a member.
    pub fn comm_rank_of_world(&self, world: usize) -> Option<i32> {
        comm_rank_of_world(&self.ranks, world)
    }

    /// The point-to-point context id.
    pub fn p2p_ctx(&self) -> u64 {
        self.ctx_base
    }

    /// The collective context id.
    pub fn coll_ctx(&self) -> u64 {
        self.ctx_base + 1
    }
}

/// A derived datatype record.
#[derive(Debug, Clone)]
pub struct DerivedType {
    /// Total size in bytes of one element of the derived type.
    pub size: usize,
    /// Element kind when reductions are meaningful (contiguous of builtin).
    pub elem: Option<ElemKind>,
    /// Whether `MPI_Type_commit` has been called.
    pub committed: bool,
}

/// A reduction-op record (only user-defined ops are stored; builtins are
/// recognized by handle value).
pub struct UserOp {
    /// The combining function.
    pub func: UserFn,
    /// Whether the op is commutative.
    pub commute: bool,
}

/// What a posted receive waits for.
pub struct PostedRecv {
    /// Context id to match.
    pub ctx_id: u64,
    /// Source selector (world rank).
    pub src: SrcPattern,
    /// Tag selector.
    pub tag: TagPattern,
    /// Posted buffer capacity in bytes.
    pub max_bytes: usize,
    /// The communicator's member list (for status source translation).
    pub ranks: Arc<Vec<usize>>,
}

/// Nonblocking-request state.
pub enum Request<S> {
    /// An eager send: complete at post time.
    SendDone,
    /// A receive that has not yet matched.
    RecvPending(PostedRecv),
    /// A receive complete at post time (from `MPI_PROC_NULL`).
    RecvDone {
        /// Completed status.
        status: S,
        /// Received payload.
        payload: Bytes,
    },
}

/// A vendor's object representation: how native handles are made and
/// how they find their records. One per library instance (one per rank).
pub trait ObjectStore<V: NativeAbi>: Sized {
    /// A store holding `MPI_COMM_WORLD` and `MPI_COMM_SELF` at their
    /// predefined handles and nothing else.
    fn with_predefined(world: CommInfo<V>, self_comm: CommInfo<V>) -> Self;

    /// The store of world rank `my_world_rank` in a world of `world_size`:
    /// the world uses context ids 0/1, self 2/3.
    fn new(world_size: usize, my_world_rank: usize) -> Self {
        Self::with_predefined(
            CommInfo::new(0, Arc::new((0..world_size).collect()), my_world_rank as i32),
            CommInfo::new(2, Arc::new(vec![my_world_rank]), 0),
        )
    }

    /// Resolve a communicator handle.
    fn comm(&self, comm: V::Comm) -> MpiResult<&CommInfo<V>>;
    /// Install a new communicator; returns its handle.
    fn add_comm(&mut self, info: CommInfo<V>) -> V::Comm;
    /// Free a dynamic communicator (predefined ones cannot be freed).
    fn free_comm(&mut self, comm: V::Comm) -> MpiResult<()>;

    /// Resolve a derived datatype handle.
    fn derived(&self, dt: V::Datatype) -> MpiResult<&DerivedType>;
    /// Install a derived datatype; returns its handle.
    fn add_derived(&mut self, derived: DerivedType) -> V::Datatype;
    /// Mark a derived type committed.
    fn commit_type(&mut self, dt: V::Datatype) -> MpiResult<()>;
    /// Free a derived type.
    fn free_type(&mut self, dt: V::Datatype) -> MpiResult<()>;

    /// Size in bytes of one element of `dt` (predefined or derived).
    fn type_size(&self, dt: V::Datatype) -> MpiResult<usize> {
        match V::builtin_type(dt) {
            Some((size, _)) => Ok(size),
            None => self.derived(dt).map(|d| d.size),
        }
    }

    /// Element kind for reductions: predefined kinds directly, or the
    /// base kind of a contiguous derived type.
    fn elem_kind(&self, dt: V::Datatype) -> MpiResult<ElemKind> {
        match V::builtin_type(dt) {
            Some((_, kind)) => Ok(kind),
            None => self.derived(dt)?.elem.ok_or(V::ERR_TYPE),
        }
    }

    /// Resolve a user-defined op handle.
    fn user_op(&self, op: V::Op) -> MpiResult<&UserOp>;
    /// Install a user-defined op; returns its handle.
    fn add_user_op(&mut self, op: UserOp) -> V::Op;
    /// Free a user-defined op.
    fn free_op(&mut self, op: V::Op) -> MpiResult<()>;

    /// Install a request; returns its handle. Handles of completed
    /// requests may come back.
    fn add_request(&mut self, request: Request<V::Status>) -> V::Request;
    /// Take a request out (it completes exactly once).
    fn take_request(&mut self, req: V::Request) -> MpiResult<Request<V::Status>>;
    /// Put a still-pending request back under the handle it was just
    /// taken from (`test` on no completion).
    fn put_back_request(&mut self, req: V::Request, request: Request<V::Status>) -> MpiResult<()>;
    /// `(live requests, request slots held)`: the second is what a
    /// long-running job's memory follows.
    fn request_footprint(&self) -> (usize, usize);
}
