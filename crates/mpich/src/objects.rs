//! Library-internal object tables: communicators, datatypes, reduction ops,
//! requests.
//!
//! Slot allocation is strictly monotonic (freed slots are never reused).
//! That keeps handle allocation deterministic across ranks and across
//! checkpoint/restart replays — the property MANA's virtual-id replay log
//! relies on.

use std::sync::Arc;

use bytes::Bytes;

use crate::kernels::ElemKind;
use crate::mpih::{self, MpiComm, MpiDatatype, MpiOp, MpiRequest, MpiStatus, MpichResult};

/// A user-defined reduction function (same shape as the standard ABI's
/// `UserOpFn`, declared independently: this library does not know about the
/// standard ABI).
pub type MpichUserFn = fn(invec: &[u8], inoutvec: &mut [u8], elem_size: usize);

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
pub struct CommInfo {
    /// Context-id base: point-to-point traffic uses `ctx_base`, collective
    /// traffic `ctx_base + 1` (the MPICH context-id pairing trick).
    pub ctx_base: u64,
    /// Members: index = communicator rank, value = world (fabric) rank.
    pub ranks: Arc<Vec<usize>>,
    /// This process's rank within the communicator.
    pub my_rank: i32,
}

impl CommInfo {
    /// Communicator size.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// World rank of a communicator rank, validating range.
    pub fn world_of(&self, comm_rank: i32) -> MpichResult<usize> {
        usize::try_from(comm_rank)
            .ok()
            .and_then(|r| self.ranks.get(r).copied())
            .ok_or(mpih::MPI_ERR_RANK)
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

/// A reduction-op record (only user-defined ops live in the table; builtins
/// are recognized by handle value).
pub struct UserOp {
    /// The combining function.
    pub func: MpichUserFn,
    /// Whether the op is commutative.
    pub commute: bool,
}

/// Nonblocking-request state.
pub enum RequestObj {
    /// An eager send: complete at post time.
    SendDone,
    /// A receive that has not yet matched.
    RecvPending {
        /// Context id to match.
        ctx_id: u64,
        /// Source selector: communicator members, or any.
        src_world: Option<usize>,
        /// Tag selector (`None` = any tag).
        tag: Option<i32>,
        /// Posted buffer capacity in bytes.
        max_bytes: usize,
        /// The communicator's member list (for status source translation).
        ranks: Arc<Vec<usize>>,
    },
    /// A receive completed early (matched while progressing another call).
    RecvDone {
        /// Completed status.
        status: MpiStatus,
        /// Received payload.
        payload: Bytes,
    },
}

/// All object tables of one library instance (one per rank).
pub struct Tables {
    comms: Vec<Option<CommInfo>>,
    dtypes: Vec<Option<DerivedType>>,
    ops: Vec<Option<UserOp>>,
    requests: Vec<Option<RequestObj>>,
}

impl Tables {
    /// Create tables with `MPI_COMM_WORLD` (slot 0) and `MPI_COMM_SELF`
    /// (slot 1) installed.
    pub fn new(world_size: usize, my_world_rank: usize) -> Tables {
        let world = CommInfo {
            ctx_base: 0,
            ranks: Arc::new((0..world_size).collect()),
            my_rank: my_world_rank as i32,
        };
        let selfc = CommInfo {
            ctx_base: 2,
            ranks: Arc::new(vec![my_world_rank]),
            my_rank: 0,
        };
        Tables {
            comms: vec![Some(world), Some(selfc)],
            dtypes: Vec::new(),
            ops: Vec::new(),
            requests: Vec::new(),
        }
    }

    // ---- communicators -------------------------------------------------

    /// Resolve a native communicator handle.
    pub fn comm(&self, comm: MpiComm) -> MpichResult<&CommInfo> {
        let slot = match comm {
            mpih::MPI_COMM_WORLD => 0,
            mpih::MPI_COMM_SELF => 1,
            c if (c as u32) & 0xFF00_0000 == mpih::DYN_COMM_BASE as u32 => {
                ((c as u32) & 0x00FF_FFFF) as usize
            }
            _ => return Err(mpih::MPI_ERR_COMM),
        };
        self.comms
            .get(slot)
            .and_then(|o| o.as_ref())
            .ok_or(mpih::MPI_ERR_COMM)
    }

    /// Install a new communicator; returns its native handle.
    pub fn add_comm(&mut self, info: CommInfo) -> MpiComm {
        let slot = self.comms.len();
        assert!(
            (2..0x00FF_FFFF).contains(&slot),
            "communicator table exhausted"
        );
        self.comms.push(Some(info));
        mpih::DYN_COMM_BASE | slot as i32
    }

    /// Free a dynamic communicator (predefined comms cannot be freed).
    pub fn free_comm(&mut self, comm: MpiComm) -> MpichResult<()> {
        if comm == mpih::MPI_COMM_WORLD || comm == mpih::MPI_COMM_SELF {
            return Err(mpih::MPI_ERR_COMM);
        }
        let slot = if (comm as u32) & 0xFF00_0000 == mpih::DYN_COMM_BASE as u32 {
            ((comm as u32) & 0x00FF_FFFF) as usize
        } else {
            return Err(mpih::MPI_ERR_COMM);
        };
        match self.comms.get_mut(slot) {
            Some(entry @ Some(_)) => {
                *entry = None;
                Ok(())
            }
            _ => Err(mpih::MPI_ERR_COMM),
        }
    }

    // ---- datatypes ------------------------------------------------------

    /// Size in bytes of one element of `dt` (builtin or derived).
    pub fn type_size(&self, dt: MpiDatatype) -> MpichResult<usize> {
        if mpih::PREDEFINED_DATATYPES.contains(&dt) {
            return Ok(mpih::builtin_type_size(dt));
        }
        self.derived(dt).map(|d| d.size)
    }

    /// Element kind for reductions: builtin kinds directly, or the base
    /// kind of a contiguous derived type.
    pub fn elem_kind(&self, dt: MpiDatatype) -> MpichResult<ElemKind> {
        if let Some(kind) = ElemKind::of_builtin(dt) {
            return Ok(kind);
        }
        self.derived(dt)?.elem.ok_or(mpih::MPI_ERR_TYPE)
    }

    /// Resolve a derived datatype handle.
    pub fn derived(&self, dt: MpiDatatype) -> MpichResult<&DerivedType> {
        let slot = self.derived_slot(dt)?;
        self.dtypes
            .get(slot)
            .and_then(|o| o.as_ref())
            .ok_or(mpih::MPI_ERR_TYPE)
    }

    fn derived_slot(&self, dt: MpiDatatype) -> MpichResult<usize> {
        if (dt as u32) & 0xFF00_0000 == mpih::DYN_TYPE_BASE as u32 {
            Ok(((dt as u32) & 0x00FF_FFFF) as usize)
        } else {
            Err(mpih::MPI_ERR_TYPE)
        }
    }

    /// Install a derived datatype; returns its native handle.
    pub fn add_derived(&mut self, d: DerivedType) -> MpiDatatype {
        let slot = self.dtypes.len();
        assert!(slot < 0x00FF_FFFF, "datatype table exhausted");
        self.dtypes.push(Some(d));
        mpih::DYN_TYPE_BASE | slot as i32
    }

    /// Mark a derived type committed.
    pub fn commit_type(&mut self, dt: MpiDatatype) -> MpichResult<()> {
        let slot = self.derived_slot(dt)?;
        match self.dtypes.get_mut(slot).and_then(|o| o.as_mut()) {
            Some(d) => {
                d.committed = true;
                Ok(())
            }
            None => Err(mpih::MPI_ERR_TYPE),
        }
    }

    /// Free a derived type.
    pub fn free_type(&mut self, dt: MpiDatatype) -> MpichResult<()> {
        let slot = self.derived_slot(dt)?;
        match self.dtypes.get_mut(slot) {
            Some(entry @ Some(_)) => {
                *entry = None;
                Ok(())
            }
            _ => Err(mpih::MPI_ERR_TYPE),
        }
    }

    // ---- reduction ops --------------------------------------------------

    /// Whether `op` is one of the predefined reduction handles.
    pub fn is_builtin_op(op: MpiOp) -> bool {
        (mpih::MPI_MAX..=mpih::MPI_BXOR).contains(&op)
    }

    /// Resolve a user-defined op handle.
    pub fn user_op(&self, op: MpiOp) -> MpichResult<&UserOp> {
        if (op as u32) & 0xFF00_0000 != mpih::DYN_OP_BASE as u32 {
            return Err(mpih::MPI_ERR_OP);
        }
        let slot = ((op as u32) & 0x00FF_FFFF) as usize;
        self.ops
            .get(slot)
            .and_then(|o| o.as_ref())
            .ok_or(mpih::MPI_ERR_OP)
    }

    /// Install a user-defined op; returns its native handle.
    pub fn add_user_op(&mut self, op: UserOp) -> MpiOp {
        let slot = self.ops.len();
        assert!(slot < 0x00FF_FFFF, "op table exhausted");
        self.ops.push(Some(op));
        mpih::DYN_OP_BASE | slot as i32
    }

    /// Free a user-defined op.
    pub fn free_op(&mut self, op: MpiOp) -> MpichResult<()> {
        if (op as u32) & 0xFF00_0000 != mpih::DYN_OP_BASE as u32 {
            return Err(mpih::MPI_ERR_OP);
        }
        let slot = ((op as u32) & 0x00FF_FFFF) as usize;
        match self.ops.get_mut(slot) {
            Some(entry @ Some(_)) => {
                *entry = None;
                Ok(())
            }
            _ => Err(mpih::MPI_ERR_OP),
        }
    }

    // ---- requests --------------------------------------------------------

    /// Install a request; returns its native handle.
    pub fn add_request(&mut self, r: RequestObj) -> MpiRequest {
        let slot = self.requests.len();
        assert!(slot < 0x00FF_FFFE, "request table exhausted");
        self.requests.push(Some(r));
        mpih::DYN_REQUEST_BASE | (slot + 1) as i32
    }

    /// Take a request out of the table (it completes exactly once).
    pub fn take_request(&mut self, req: MpiRequest) -> MpichResult<RequestObj> {
        let slot = self.request_slot(req)?;
        self.requests
            .get_mut(slot)
            .and_then(|o| o.take())
            .ok_or(mpih::MPI_ERR_REQUEST)
    }

    /// Put a still-pending request back (used by `test` on no-completion).
    pub fn put_back_request(&mut self, req: MpiRequest, r: RequestObj) -> MpichResult<()> {
        let slot = self.request_slot(req)?;
        match self.requests.get_mut(slot) {
            Some(entry @ None) => {
                *entry = Some(r);
                Ok(())
            }
            _ => Err(mpih::MPI_ERR_REQUEST),
        }
    }

    fn request_slot(&self, req: MpiRequest) -> MpichResult<usize> {
        if req == mpih::MPI_REQUEST_NULL {
            return Err(mpih::MPI_ERR_REQUEST);
        }
        if (req as u32) & 0xFF00_0000 == mpih::DYN_REQUEST_BASE as u32 {
            let slot = ((req as u32) & 0x00FF_FFFF) as usize;
            if slot == 0 {
                return Err(mpih::MPI_ERR_REQUEST);
            }
            Ok(slot - 1)
        } else {
            Err(mpih::MPI_ERR_REQUEST)
        }
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
    fn world_and_self_preinstalled() {
        let t = Tables::new(8, 3);
        let w = t.comm(mpih::MPI_COMM_WORLD).unwrap();
        assert_eq!(w.size(), 8);
        assert_eq!(w.my_rank, 3);
        assert_eq!(w.p2p_ctx(), 0);
        assert_eq!(w.coll_ctx(), 1);
        let s = t.comm(mpih::MPI_COMM_SELF).unwrap();
        assert_eq!(s.size(), 1);
        assert_eq!(s.my_rank, 0);
        assert!(t.comm(mpih::MPI_COMM_NULL).is_err());
        assert!(t.comm(0x1234_5678).is_err());
    }

    #[test]
    fn comm_info_rank_translation() {
        let info = CommInfo {
            ctx_base: 4,
            ranks: Arc::new(vec![5, 9, 2]),
            my_rank: 1,
        };
        assert_eq!(info.world_of(0).unwrap(), 5);
        assert_eq!(info.world_of(2).unwrap(), 2);
        assert!(info.world_of(3).is_err());
        assert!(info.world_of(-1).is_err());
        assert_eq!(info.comm_rank_of_world(9), Some(1));
        assert_eq!(info.comm_rank_of_world(7), None);
    }

    #[test]
    fn dynamic_comm_lifecycle() {
        let mut t = Tables::new(4, 0);
        let info = CommInfo {
            ctx_base: 4,
            ranks: Arc::new(vec![0, 1]),
            my_rank: 0,
        };
        let h = t.add_comm(info);
        assert_eq!((h as u32) & 0xFF00_0000, mpih::DYN_COMM_BASE as u32);
        assert_eq!(t.comm(h).unwrap().size(), 2);
        t.free_comm(h).unwrap();
        assert!(t.comm(h).is_err());
        assert_eq!(t.free_comm(h), Err(mpih::MPI_ERR_COMM));
        assert_eq!(t.free_comm(mpih::MPI_COMM_WORLD), Err(mpih::MPI_ERR_COMM));
    }

    #[test]
    fn slots_are_not_reused_after_free() {
        let mut t = Tables::new(4, 0);
        let a = t.add_comm(CommInfo {
            ctx_base: 4,
            ranks: Arc::new(vec![0]),
            my_rank: 0,
        });
        t.free_comm(a).unwrap();
        let b = t.add_comm(CommInfo {
            ctx_base: 6,
            ranks: Arc::new(vec![0]),
            my_rank: 0,
        });
        assert_ne!(a, b, "freed slots must not be recycled (determinism)");
    }

    #[test]
    fn datatype_sizes_builtin_and_derived() {
        let mut t = Tables::new(2, 0);
        assert_eq!(t.type_size(mpih::MPI_DOUBLE).unwrap(), 8);
        let h = t.add_derived(DerivedType {
            size: 24,
            elem: Some(ElemKind::Float(8)),
            committed: false,
        });
        assert_eq!(t.type_size(h).unwrap(), 24);
        assert!(!t.derived(h).unwrap().committed);
        t.commit_type(h).unwrap();
        assert!(t.derived(h).unwrap().committed);
        t.free_type(h).unwrap();
        assert!(t.type_size(h).is_err());
        assert!(t.type_size(0x7777).is_err());
    }

    #[test]
    fn elem_kind_through_contiguous() {
        let mut t = Tables::new(2, 0);
        assert_eq!(t.elem_kind(mpih::MPI_INT).unwrap(), ElemKind::Int(4));
        let h = t.add_derived(DerivedType {
            size: 32,
            elem: Some(ElemKind::Float(8)),
            committed: true,
        });
        assert_eq!(t.elem_kind(h).unwrap(), ElemKind::Float(8));
        let opaque = t.add_derived(DerivedType {
            size: 3,
            elem: None,
            committed: true,
        });
        assert_eq!(t.elem_kind(opaque), Err(mpih::MPI_ERR_TYPE));
    }

    #[test]
    fn op_table() {
        fn my_op(a: &[u8], b: &mut [u8], _s: usize) {
            for (x, y) in a.iter().zip(b.iter_mut()) {
                *y ^= x;
            }
        }
        let mut t = Tables::new(2, 0);
        assert!(Tables::is_builtin_op(mpih::MPI_SUM));
        assert!(!Tables::is_builtin_op(mpih::MPI_OP_NULL));
        let h = t.add_user_op(UserOp {
            func: my_op,
            commute: true,
        });
        assert!(t.user_op(h).unwrap().commute);
        assert!(t.user_op(mpih::MPI_SUM).is_err());
        t.free_op(h).unwrap();
        assert!(t.user_op(h).is_err());
    }

    #[test]
    fn request_take_and_put_back() {
        let mut t = Tables::new(2, 0);
        let h = t.add_request(RequestObj::SendDone);
        assert_ne!(h, mpih::MPI_REQUEST_NULL);
        let obj = t.take_request(h).unwrap();
        assert!(matches!(obj, RequestObj::SendDone));
        // Double-complete is an error.
        assert!(t.take_request(h).is_err());
        // Put back then take again.
        t.put_back_request(h, RequestObj::SendDone).unwrap();
        assert!(t.take_request(h).is_ok());
        assert!(t.take_request(mpih::MPI_REQUEST_NULL).is_err());
    }
}
