//! Library-internal object tables, Open MPI style: objects are
//! heap-"allocated" records addressed by pointer-like handles.
//!
//! Unlike the MPICH flavour's slot-indexed arrays, these tables are keyed
//! by handle address, with a bump "allocator" handing out fresh addresses —
//! the same determinism property (addresses never reused) that MANA's
//! replay log needs, achieved through a different mechanism than MPICH's.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;

use crate::kernels::ElemKind;
use crate::ompi_h::{
    self, MpiComm, MpiDatatype, MpiOp, MpiRequest, MpiStatus, OmpiResult, HANDLE_STRIDE,
};

/// A user-defined reduction function.
pub type OmpiUserFn = fn(invec: &[u8], inoutvec: &mut [u8], elem_size: usize);

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

/// Communicator record.
#[derive(Debug, Clone)]
pub struct CommRec {
    /// Context-id base (p2p traffic = `ctx_base`, collectives = `+1`).
    pub ctx_base: u64,
    /// Members: index = communicator rank, value = world rank.
    pub ranks: Arc<Vec<usize>>,
    /// This process's rank within the communicator.
    pub my_rank: i32,
}

impl CommRec {
    /// Communicator size.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// World rank of a communicator rank.
    pub fn world_of(&self, comm_rank: i32) -> OmpiResult<usize> {
        usize::try_from(comm_rank)
            .ok()
            .and_then(|r| self.ranks.get(r).copied())
            .ok_or(ompi_h::MPI_ERR_RANK)
    }

    /// Communicator rank of a world rank, if a member.
    pub fn comm_rank_of_world(&self, world: usize) -> Option<i32> {
        comm_rank_of_world(&self.ranks, world)
    }

    /// Point-to-point context id.
    pub fn p2p_ctx(&self) -> u64 {
        self.ctx_base
    }

    /// Collective context id.
    pub fn coll_ctx(&self) -> u64 {
        self.ctx_base + 1
    }
}

/// Derived datatype record.
#[derive(Debug, Clone)]
pub struct TypeRec {
    /// Size in bytes of one element.
    pub size: usize,
    /// Element kind for reductions, when meaningful.
    pub elem: Option<ElemKind>,
    /// Whether committed.
    pub committed: bool,
}

/// User-defined op record.
pub struct OpRec {
    /// Combining function.
    pub func: OmpiUserFn,
    /// Commutativity flag.
    pub commute: bool,
}

/// Request state.
pub enum ReqRec {
    /// Eager send, complete at post.
    SendDone,
    /// Unmatched receive.
    RecvPending {
        /// Context id to match on.
        ctx_id: u64,
        /// Specific source world rank, or any.
        src_world: Option<usize>,
        /// Specific tag, or any.
        tag: Option<i32>,
        /// Posted capacity.
        max_bytes: usize,
        /// Member list for status translation.
        ranks: Arc<Vec<usize>>,
    },
    /// Receive completed early.
    RecvDone {
        /// Status.
        status: MpiStatus,
        /// Payload.
        payload: Bytes,
    },
}

/// The object "heap" of one library instance.
pub struct Heap {
    comms: HashMap<usize, CommRec>,
    types: HashMap<usize, TypeRec>,
    ops: HashMap<usize, OpRec>,
    requests: HashMap<usize, ReqRec>,
    next_comm: usize,
    next_type: usize,
    next_op: usize,
    next_request: usize,
}

impl Heap {
    /// Create the heap with `MPI_COMM_WORLD` and `MPI_COMM_SELF` installed
    /// at their sentinel addresses.
    pub fn new(world_size: usize, my_world_rank: usize) -> Heap {
        let mut comms = HashMap::new();
        comms.insert(
            ompi_h::MPI_COMM_WORLD.0,
            CommRec {
                ctx_base: 0,
                ranks: Arc::new((0..world_size).collect()),
                my_rank: my_world_rank as i32,
            },
        );
        comms.insert(
            ompi_h::MPI_COMM_SELF.0,
            CommRec {
                ctx_base: 2,
                ranks: Arc::new(vec![my_world_rank]),
                my_rank: 0,
            },
        );
        Heap {
            comms,
            types: HashMap::new(),
            ops: HashMap::new(),
            requests: HashMap::new(),
            next_comm: ompi_h::DYN_COMM_BASE,
            next_type: ompi_h::DYN_TYPE_BASE,
            next_op: ompi_h::DYN_OP_BASE,
            next_request: ompi_h::DYN_REQUEST_BASE,
        }
    }

    // ---- communicators -------------------------------------------------

    /// Resolve a communicator handle.
    pub fn comm(&self, c: MpiComm) -> OmpiResult<&CommRec> {
        self.comms.get(&c.0).ok_or(ompi_h::MPI_ERR_COMM)
    }

    /// Allocate a new communicator.
    pub fn add_comm(&mut self, rec: CommRec) -> MpiComm {
        let addr = self.next_comm;
        self.next_comm += HANDLE_STRIDE;
        self.comms.insert(addr, rec);
        MpiComm(addr)
    }

    /// Free a dynamic communicator.
    pub fn free_comm(&mut self, c: MpiComm) -> OmpiResult<()> {
        if c == ompi_h::MPI_COMM_WORLD || c == ompi_h::MPI_COMM_SELF {
            return Err(ompi_h::MPI_ERR_COMM);
        }
        self.comms
            .remove(&c.0)
            .map(|_| ())
            .ok_or(ompi_h::MPI_ERR_COMM)
    }

    // ---- datatypes -------------------------------------------------------

    /// Size in bytes of one element of `dt`.
    pub fn type_size(&self, dt: MpiDatatype) -> OmpiResult<usize> {
        if let Some(&(_, size)) = ompi_h::PREDEFINED_DATATYPES.iter().find(|(h, _)| *h == dt) {
            return Ok(size);
        }
        self.types
            .get(&dt.0)
            .map(|t| t.size)
            .ok_or(ompi_h::MPI_ERR_TYPE)
    }

    /// Element kind for reductions.
    pub fn elem_kind(&self, dt: MpiDatatype) -> OmpiResult<ElemKind> {
        if let Some(kind) = ElemKind::of_builtin(dt) {
            return Ok(kind);
        }
        self.types
            .get(&dt.0)
            .ok_or(ompi_h::MPI_ERR_TYPE)?
            .elem
            .ok_or(ompi_h::MPI_ERR_TYPE)
    }

    /// Resolve a derived type record.
    pub fn derived(&self, dt: MpiDatatype) -> OmpiResult<&TypeRec> {
        self.types.get(&dt.0).ok_or(ompi_h::MPI_ERR_TYPE)
    }

    /// Allocate a derived type.
    pub fn add_type(&mut self, rec: TypeRec) -> MpiDatatype {
        let addr = self.next_type;
        self.next_type += HANDLE_STRIDE;
        self.types.insert(addr, rec);
        MpiDatatype(addr)
    }

    /// Commit a derived type.
    pub fn commit_type(&mut self, dt: MpiDatatype) -> OmpiResult<()> {
        self.types
            .get_mut(&dt.0)
            .map(|t| t.committed = true)
            .ok_or(ompi_h::MPI_ERR_TYPE)
    }

    /// Free a derived type.
    pub fn free_type(&mut self, dt: MpiDatatype) -> OmpiResult<()> {
        self.types
            .remove(&dt.0)
            .map(|_| ())
            .ok_or(ompi_h::MPI_ERR_TYPE)
    }

    // ---- ops ---------------------------------------------------------------

    /// Whether `op` is predefined.
    pub fn is_builtin_op(op: MpiOp) -> bool {
        (ompi_h::MPI_MAX.0..=ompi_h::MPI_BXOR.0).contains(&op.0)
            && (op.0 - ompi_h::MPI_MAX.0).is_multiple_of(HANDLE_STRIDE)
    }

    /// Resolve a user op.
    pub fn user_op(&self, op: MpiOp) -> OmpiResult<&OpRec> {
        self.ops.get(&op.0).ok_or(ompi_h::MPI_ERR_OP)
    }

    /// Allocate a user op.
    pub fn add_op(&mut self, rec: OpRec) -> MpiOp {
        let addr = self.next_op;
        self.next_op += HANDLE_STRIDE;
        self.ops.insert(addr, rec);
        MpiOp(addr)
    }

    /// Free a user op.
    pub fn free_op(&mut self, op: MpiOp) -> OmpiResult<()> {
        self.ops.remove(&op.0).map(|_| ()).ok_or(ompi_h::MPI_ERR_OP)
    }

    // ---- requests -------------------------------------------------------

    /// Allocate a request.
    pub fn add_request(&mut self, rec: ReqRec) -> MpiRequest {
        let addr = self.next_request;
        self.next_request += HANDLE_STRIDE;
        self.requests.insert(addr, rec);
        MpiRequest(addr)
    }

    /// Take a request out (completes exactly once).
    pub fn take_request(&mut self, r: MpiRequest) -> OmpiResult<ReqRec> {
        if r == ompi_h::MPI_REQUEST_NULL {
            return Err(ompi_h::MPI_ERR_REQUEST);
        }
        self.requests.remove(&r.0).ok_or(ompi_h::MPI_ERR_REQUEST)
    }

    /// Reinstall a still-pending request (after a failed `test`).
    pub fn put_back_request(&mut self, r: MpiRequest, rec: ReqRec) -> OmpiResult<()> {
        if self.requests.insert(r.0, rec).is_some() {
            return Err(ompi_h::MPI_ERR_INTERN);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_translation_on_world_and_on_a_split() {
        // Identity-mapped (world and its dups): the O(1) answer.
        let world: Vec<usize> = (0..48).collect();
        for w in [0, 1, 31, 47] {
            assert_eq!(comm_rank_of_world(&world, w), Some(w as i32));
        }
        assert_eq!(comm_rank_of_world(&world, 48), None);
        // A split (world ranks 0, 7, …, 42) falls back to the scan; rank 0
        // happens to sit at its own index and must still be right.
        let split: Vec<usize> = (0..48).step_by(7).collect();
        for (cr, &w) in split.iter().enumerate() {
            assert_eq!(comm_rank_of_world(&split, w), Some(cr as i32));
        }
        assert_eq!(comm_rank_of_world(&split, 1), None);
        assert_eq!(comm_rank_of_world(&split, 6), None);
        // Reordered by key: index 1 holds world 1, the others do not.
        assert_eq!(comm_rank_of_world(&[2, 1, 0], 0), Some(2));
        assert_eq!(comm_rank_of_world(&[2, 1, 0], 1), Some(1));
        assert_eq!(comm_rank_of_world(&[2, 1, 0], 2), Some(0));
    }

    #[test]
    fn predefined_comms_at_sentinel_addresses() {
        let h = Heap::new(6, 2);
        assert_eq!(h.comm(ompi_h::MPI_COMM_WORLD).unwrap().size(), 6);
        assert_eq!(h.comm(ompi_h::MPI_COMM_WORLD).unwrap().my_rank, 2);
        assert_eq!(h.comm(ompi_h::MPI_COMM_SELF).unwrap().size(), 1);
        assert!(h.comm(ompi_h::MPI_COMM_NULL).is_err());
        assert!(h.comm(MpiComm(0xdead_beef)).is_err());
    }

    #[test]
    fn comm_allocation_addresses_advance_by_stride() {
        let mut h = Heap::new(2, 0);
        let a = h.add_comm(CommRec {
            ctx_base: 4,
            ranks: Arc::new(vec![0]),
            my_rank: 0,
        });
        let b = h.add_comm(CommRec {
            ctx_base: 6,
            ranks: Arc::new(vec![0]),
            my_rank: 0,
        });
        assert_eq!(b.0 - a.0, HANDLE_STRIDE);
        h.free_comm(a).unwrap();
        let c = h.add_comm(CommRec {
            ctx_base: 8,
            ranks: Arc::new(vec![0]),
            my_rank: 0,
        });
        assert!(c.0 > b.0, "addresses are never reused");
        assert!(h.free_comm(ompi_h::MPI_COMM_WORLD).is_err());
    }

    #[test]
    fn type_sizes() {
        let mut h = Heap::new(2, 0);
        assert_eq!(h.type_size(ompi_h::MPI_DOUBLE).unwrap(), 8);
        assert_eq!(h.type_size(ompi_h::MPI_INT16_T).unwrap(), 2);
        let t = h.add_type(TypeRec {
            size: 40,
            elem: Some(ElemKind::Float(8)),
            committed: false,
        });
        assert_eq!(h.type_size(t).unwrap(), 40);
        h.commit_type(t).unwrap();
        assert!(h.derived(t).unwrap().committed);
        h.free_type(t).unwrap();
        assert!(h.type_size(t).is_err());
    }

    #[test]
    fn builtin_op_detection_respects_stride() {
        assert!(Heap::is_builtin_op(ompi_h::MPI_SUM));
        assert!(Heap::is_builtin_op(ompi_h::MPI_BXOR));
        assert!(!Heap::is_builtin_op(ompi_h::MPI_OP_NULL));
        // An address between two predefined ops is not a valid handle.
        assert!(!Heap::is_builtin_op(MpiOp(ompi_h::MPI_SUM.0 + 1)));
    }

    #[test]
    fn request_lifecycle() {
        let mut h = Heap::new(2, 0);
        let r = h.add_request(ReqRec::SendDone);
        assert!(matches!(h.take_request(r).unwrap(), ReqRec::SendDone));
        assert!(h.take_request(r).is_err());
        h.put_back_request(r, ReqRec::SendDone).unwrap();
        assert!(h.take_request(r).is_ok());
        assert!(h.take_request(ompi_h::MPI_REQUEST_NULL).is_err());
    }
}
