//! Open MPI's object representation: objects are heap-"allocated"
//! records addressed by pointer-like handles.
//!
//! Unlike the MPICH flavour's slot-indexed arrays, these tables are keyed
//! by handle address, with a bump "allocator" handing out fresh addresses —
//! the same determinism property (addresses never reused) that MANA's
//! replay log needs, achieved through a different mechanism than MPICH's.
//! A completed request's record is freed; its address is not handed out
//! again.

use std::collections::HashMap;

use simnet::mpi::{DerivedType, MpiResult, ObjectStore, UserOp};

use crate::ompi_h::{self, MpiComm, MpiDatatype, MpiOp, MpiRequest, OpenMpi, HANDLE_STRIDE};

/// Communicator facts, with Open MPI's error codes.
pub type CommInfo = simnet::mpi::CommInfo<OpenMpi>;
/// Nonblocking-request state, with Open MPI's status layout.
pub type Request = simnet::mpi::Request<ompi_h::MpiStatus>;

/// The object "heap" of one library instance.
pub struct Heap {
    comms: HashMap<usize, CommInfo>,
    types: HashMap<usize, DerivedType>,
    ops: HashMap<usize, UserOp>,
    requests: HashMap<usize, Request>,
    next_comm: usize,
    next_type: usize,
    next_op: usize,
    next_request: usize,
}

/// "Allocate" `record` at the next address of its kind.
fn allocate<T>(table: &mut HashMap<usize, T>, next: &mut usize, record: T) -> usize {
    let addr = *next;
    *next += HANDLE_STRIDE;
    table.insert(addr, record);
    addr
}

impl ObjectStore<OpenMpi> for Heap {
    /// `MPI_COMM_WORLD` and `MPI_COMM_SELF` live at their sentinel
    /// addresses.
    fn with_predefined(world: CommInfo, self_comm: CommInfo) -> Heap {
        Heap {
            comms: HashMap::from([
                (ompi_h::MPI_COMM_WORLD.0, world),
                (ompi_h::MPI_COMM_SELF.0, self_comm),
            ]),
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

    fn comm(&self, c: MpiComm) -> MpiResult<&CommInfo> {
        self.comms.get(&c.0).ok_or(ompi_h::MPI_ERR_COMM)
    }

    fn add_comm(&mut self, info: CommInfo) -> MpiComm {
        MpiComm(allocate(&mut self.comms, &mut self.next_comm, info))
    }

    fn free_comm(&mut self, c: MpiComm) -> MpiResult<()> {
        if c == ompi_h::MPI_COMM_WORLD || c == ompi_h::MPI_COMM_SELF {
            return Err(ompi_h::MPI_ERR_COMM);
        }
        self.comms
            .remove(&c.0)
            .map(|_| ())
            .ok_or(ompi_h::MPI_ERR_COMM)
    }

    // ---- datatypes -------------------------------------------------------

    fn derived(&self, dt: MpiDatatype) -> MpiResult<&DerivedType> {
        self.types.get(&dt.0).ok_or(ompi_h::MPI_ERR_TYPE)
    }

    fn add_derived(&mut self, d: DerivedType) -> MpiDatatype {
        MpiDatatype(allocate(&mut self.types, &mut self.next_type, d))
    }

    fn commit_type(&mut self, dt: MpiDatatype) -> MpiResult<()> {
        self.types
            .get_mut(&dt.0)
            .map(|t| t.committed = true)
            .ok_or(ompi_h::MPI_ERR_TYPE)
    }

    fn free_type(&mut self, dt: MpiDatatype) -> MpiResult<()> {
        self.types
            .remove(&dt.0)
            .map(|_| ())
            .ok_or(ompi_h::MPI_ERR_TYPE)
    }

    // ---- ops ---------------------------------------------------------------

    fn user_op(&self, op: MpiOp) -> MpiResult<&UserOp> {
        self.ops.get(&op.0).ok_or(ompi_h::MPI_ERR_OP)
    }

    fn add_user_op(&mut self, op: UserOp) -> MpiOp {
        MpiOp(allocate(&mut self.ops, &mut self.next_op, op))
    }

    fn free_op(&mut self, op: MpiOp) -> MpiResult<()> {
        self.ops.remove(&op.0).map(|_| ()).ok_or(ompi_h::MPI_ERR_OP)
    }

    // ---- requests -------------------------------------------------------

    fn add_request(&mut self, r: Request) -> MpiRequest {
        MpiRequest(allocate(&mut self.requests, &mut self.next_request, r))
    }

    fn take_request(&mut self, r: MpiRequest) -> MpiResult<Request> {
        self.requests.remove(&r.0).ok_or(ompi_h::MPI_ERR_REQUEST)
    }

    fn put_back_request(&mut self, r: MpiRequest, request: Request) -> MpiResult<()> {
        if self.requests.insert(r.0, request).is_some() {
            return Err(ompi_h::MPI_ERR_INTERN);
        }
        Ok(())
    }

    fn request_footprint(&self) -> (usize, usize) {
        (self.requests.len(), self.requests.capacity())
    }
}

#[cfg(test)]
mod tests {
    //! What is Open MPI's own here: sentinel addresses and the bump
    //! allocator. What every store must do is in
    //! `tests/vendor_battery.rs`.

    use super::*;
    use simnet::mpi::NativeAbi;
    use std::sync::Arc;

    fn solo(ctx_base: u64) -> CommInfo {
        CommInfo::new(ctx_base, Arc::new(vec![0]), 0)
    }

    #[test]
    fn handles_are_addresses_at_a_fixed_stride() {
        let mut h = Heap::new(2, 0);
        let a = h.add_comm(solo(4));
        let b = h.add_comm(solo(6));
        assert_eq!(a, MpiComm(ompi_h::DYN_COMM_BASE));
        assert_eq!(b.0 - a.0, HANDLE_STRIDE);
        h.free_comm(a).unwrap();
        let c = h.add_comm(solo(8));
        assert!(c.0 > b.0, "addresses are never reused");
        assert!(h.comm(MpiComm(0xdead_beef)).is_err());
        assert!(h.comm(MpiComm(ompi_h::MPI_COMM_WORLD.0 + 1)).is_err());
    }

    #[test]
    fn builtin_detection_respects_the_stride() {
        assert!(OpenMpi::builtin_op(ompi_h::MPI_SUM).is_some());
        assert!(OpenMpi::builtin_op(ompi_h::MPI_BXOR).is_some());
        assert_eq!(OpenMpi::builtin_op(ompi_h::MPI_OP_NULL), None);
        // An address between two predefined ops is not a valid handle.
        assert_eq!(OpenMpi::builtin_op(MpiOp(ompi_h::MPI_SUM.0 + 1)), None);
        assert_eq!(OpenMpi::builtin_type(ompi_h::MPI_DATATYPE_NULL), None);
        let h = Heap::new(2, 0);
        assert_eq!(
            h.user_op(ompi_h::MPI_OP_NULL).err(),
            Some(ompi_h::MPI_ERR_OP)
        );
        assert_eq!(
            h.type_size(MpiDatatype(ompi_h::MPI_INT.0 + 1)),
            Err(ompi_h::MPI_ERR_TYPE)
        );
        assert_eq!(
            OpenMpi::DATATYPES.map(|(handle, size, _)| (handle, size)),
            ompi_h::PREDEFINED_DATATYPES
        );
    }

    #[test]
    fn a_completed_request_is_freed_and_its_address_retired() {
        let mut h = Heap::new(2, 0);
        let a = h.add_request(Request::SendDone);
        h.take_request(a).unwrap();
        let b = h.add_request(Request::SendDone);
        assert_eq!(b.0, a.0 + HANDLE_STRIDE);
        assert_eq!(h.request_footprint().0, 1);
        assert_eq!(
            h.put_back_request(b, Request::SendDone),
            Err(ompi_h::MPI_ERR_INTERN),
            "occupied"
        );
    }
}
