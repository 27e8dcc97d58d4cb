//! MPICH's object representation: slot-indexed tables behind bit-packed
//! integer handles (`kind bits | slot`).
//!
//! Communicator, datatype and op slots are allocated strictly
//! monotonically (freed slots are never reused). That keeps handle
//! allocation deterministic across ranks and across checkpoint/restart
//! replays — the property MANA's virtual-id replay log relies on.
//! Request slots are different: a request lives from post to completion
//! and a long-running job posts millions, so completed slots are recycled
//! (last freed, first reused — as deterministic as the program), the way
//! real MPICH reuses request handles.

use simnet::mpi::{DerivedType, MpiResult, ObjectStore, UserOp};

use crate::mpih::{self, MpiComm, MpiDatatype, MpiOp, MpiRequest, Mpich};

/// Communicator facts, with MPICH's error codes.
pub type CommInfo = simnet::mpi::CommInfo<Mpich>;
/// Nonblocking-request state, with MPICH's status layout.
pub type Request = simnet::mpi::Request<mpih::MpiStatus>;

const KIND_MASK: u32 = 0xFF00_0000;
const SLOT_MASK: u32 = 0x00FF_FFFF;

/// The slot a dynamic handle of kind `base` names.
fn slot_of(handle: i32, base: i32) -> Option<usize> {
    ((handle as u32) & KIND_MASK == base as u32).then_some(((handle as u32) & SLOT_MASK) as usize)
}

/// `base | slot`, for a slot that fits the handle's slot bits.
fn handle_of(base: i32, slot: usize, what: &str) -> i32 {
    assert!(slot < SLOT_MASK as usize, "{what} table exhausted");
    base | slot as i32
}

/// Empty an occupied slot; `err` if the handle names none.
fn free_slot<T>(table: &mut [Option<T>], slot: Option<usize>, err: i32) -> MpiResult<T> {
    slot.and_then(|s| table.get_mut(s))
        .and_then(Option::take)
        .ok_or(err)
}

/// All object tables of one library instance (one per rank).
pub struct Tables {
    comms: Vec<Option<CommInfo>>,
    dtypes: Vec<Option<DerivedType>>,
    ops: Vec<Option<UserOp>>,
    requests: Vec<Option<Request>>,
    /// Empty request slots, most recently completed last.
    free_requests: Vec<usize>,
}

impl Tables {
    fn comm_slot(comm: MpiComm) -> MpiResult<usize> {
        match comm {
            mpih::MPI_COMM_WORLD => Ok(0),
            mpih::MPI_COMM_SELF => Ok(1),
            c => slot_of(c, mpih::DYN_COMM_BASE).ok_or(mpih::MPI_ERR_COMM),
        }
    }

    /// Request handles are `DYN_REQUEST_BASE | (slot + 1)`: slot bits of
    /// zero are `MPI_REQUEST_NULL`.
    fn request_slot(req: MpiRequest) -> MpiResult<usize> {
        slot_of(req, mpih::DYN_REQUEST_BASE)
            .and_then(|s| s.checked_sub(1))
            .ok_or(mpih::MPI_ERR_REQUEST)
    }
}

impl ObjectStore<Mpich> for Tables {
    /// `MPI_COMM_WORLD` is slot 0, `MPI_COMM_SELF` slot 1.
    fn with_predefined(world: CommInfo, self_comm: CommInfo) -> Tables {
        Tables {
            comms: vec![Some(world), Some(self_comm)],
            dtypes: Vec::new(),
            ops: Vec::new(),
            requests: Vec::new(),
            free_requests: Vec::new(),
        }
    }

    // ---- communicators -------------------------------------------------

    fn comm(&self, comm: MpiComm) -> MpiResult<&CommInfo> {
        self.comms
            .get(Self::comm_slot(comm)?)
            .and_then(|o| o.as_ref())
            .ok_or(mpih::MPI_ERR_COMM)
    }

    fn add_comm(&mut self, info: CommInfo) -> MpiComm {
        self.comms.push(Some(info));
        handle_of(mpih::DYN_COMM_BASE, self.comms.len() - 1, "communicator")
    }

    fn free_comm(&mut self, comm: MpiComm) -> MpiResult<()> {
        // Slots 0 and 1 are the predefined communicators.
        let slot = slot_of(comm, mpih::DYN_COMM_BASE).filter(|&slot| slot >= 2);
        free_slot(&mut self.comms, slot, mpih::MPI_ERR_COMM).map(|_| ())
    }

    // ---- datatypes ------------------------------------------------------

    fn derived(&self, dt: MpiDatatype) -> MpiResult<&DerivedType> {
        slot_of(dt, mpih::DYN_TYPE_BASE)
            .and_then(|slot| self.dtypes.get(slot))
            .and_then(|o| o.as_ref())
            .ok_or(mpih::MPI_ERR_TYPE)
    }

    fn add_derived(&mut self, d: DerivedType) -> MpiDatatype {
        self.dtypes.push(Some(d));
        handle_of(mpih::DYN_TYPE_BASE, self.dtypes.len() - 1, "datatype")
    }

    fn commit_type(&mut self, dt: MpiDatatype) -> MpiResult<()> {
        slot_of(dt, mpih::DYN_TYPE_BASE)
            .and_then(|slot| self.dtypes.get_mut(slot))
            .and_then(|o| o.as_mut())
            .map(|d| d.committed = true)
            .ok_or(mpih::MPI_ERR_TYPE)
    }

    fn free_type(&mut self, dt: MpiDatatype) -> MpiResult<()> {
        let slot = slot_of(dt, mpih::DYN_TYPE_BASE);
        free_slot(&mut self.dtypes, slot, mpih::MPI_ERR_TYPE).map(|_| ())
    }

    // ---- reduction ops --------------------------------------------------

    fn user_op(&self, op: MpiOp) -> MpiResult<&UserOp> {
        slot_of(op, mpih::DYN_OP_BASE)
            .and_then(|slot| self.ops.get(slot))
            .and_then(|o| o.as_ref())
            .ok_or(mpih::MPI_ERR_OP)
    }

    fn add_user_op(&mut self, op: UserOp) -> MpiOp {
        self.ops.push(Some(op));
        handle_of(mpih::DYN_OP_BASE, self.ops.len() - 1, "op")
    }

    fn free_op(&mut self, op: MpiOp) -> MpiResult<()> {
        let slot = slot_of(op, mpih::DYN_OP_BASE);
        free_slot(&mut self.ops, slot, mpih::MPI_ERR_OP).map(|_| ())
    }

    // ---- requests --------------------------------------------------------

    fn add_request(&mut self, r: Request) -> MpiRequest {
        let slot = self.free_requests.pop().unwrap_or_else(|| {
            self.requests.push(None);
            self.requests.len() - 1
        });
        self.requests[slot] = Some(r);
        handle_of(mpih::DYN_REQUEST_BASE, slot + 1, "request")
    }

    fn take_request(&mut self, req: MpiRequest) -> MpiResult<Request> {
        let slot = Self::request_slot(req)?;
        let taken = free_slot(&mut self.requests, Some(slot), mpih::MPI_ERR_REQUEST)?;
        self.free_requests.push(slot);
        Ok(taken)
    }

    fn put_back_request(&mut self, req: MpiRequest, r: Request) -> MpiResult<()> {
        let slot = Self::request_slot(req)?;
        // Only the slot the last take emptied can still be this handle's.
        if self.free_requests.last() != Some(&slot) {
            return Err(mpih::MPI_ERR_REQUEST);
        }
        self.free_requests.pop();
        self.requests[slot] = Some(r);
        Ok(())
    }

    fn request_footprint(&self) -> (usize, usize) {
        let slots = self.requests.len();
        (slots - self.free_requests.len(), slots)
    }
}

#[cfg(test)]
mod tests {
    //! What is MPICH's own here: the handle encoding and the slot policy.
    //! What every store must do is in `tests/vendor_battery.rs`.

    use super::*;
    use simnet::mpi::NativeAbi;
    use std::sync::Arc;

    fn opaque(size: usize) -> DerivedType {
        DerivedType {
            size,
            elem: None,
            committed: false,
        }
    }

    #[test]
    fn handles_are_kind_bits_over_a_slot() {
        let mut t = Tables::new(4, 0);
        let c = t.add_comm(CommInfo::new(4, Arc::new(vec![0, 1]), 0));
        assert_eq!(
            c,
            mpih::DYN_COMM_BASE | 2,
            "slots 0 and 1 are world and self"
        );
        assert_eq!(t.add_derived(opaque(24)), mpih::DYN_TYPE_BASE);
        assert_eq!(t.add_derived(opaque(3)), mpih::DYN_TYPE_BASE | 1);
        let r = t.add_request(Request::SendDone);
        assert_eq!(
            r,
            mpih::DYN_REQUEST_BASE | 1,
            "slot bits of zero are MPI_REQUEST_NULL"
        );
        // Values that are not handles, and handles of the wrong kind.
        assert_eq!(t.comm(0x1234_5678).unwrap_err(), mpih::MPI_ERR_COMM);
        assert_eq!(t.type_size(0x7777), Err(mpih::MPI_ERR_TYPE));
        assert!(t.derived(c).is_err());
        assert!(t.take_request(c).is_err());
        // A forged dynamic handle naming a predefined slot frees nothing.
        assert_eq!(t.free_comm(mpih::DYN_COMM_BASE), Err(mpih::MPI_ERR_COMM));
        assert!(t.comm(mpih::MPI_COMM_WORLD).is_ok());
    }

    #[test]
    fn null_and_unknown_handles_are_not_builtins() {
        assert_eq!(Mpich::builtin_op(mpih::MPI_OP_NULL), None);
        assert_eq!(Mpich::builtin_type(mpih::MPI_DATATYPE_NULL), None);
        assert_eq!(Mpich::builtin_type(0x1234), None);
        let t = Tables::new(2, 0);
        assert_eq!(t.user_op(mpih::MPI_SUM).err(), Some(mpih::MPI_ERR_OP));
        assert_eq!(t.user_op(mpih::MPI_OP_NULL).err(), Some(mpih::MPI_ERR_OP));
        for (handle, size, _) in Mpich::DATATYPES {
            assert_eq!(
                mpih::builtin_type_size(handle),
                size,
                "the size is in the handle"
            );
        }
    }

    #[test]
    fn completed_request_slots_come_back_last_freed_first() {
        let mut t = Tables::new(2, 0);
        let a = t.add_request(Request::SendDone);
        let b = t.add_request(Request::SendDone);
        t.take_request(a).unwrap();
        t.take_request(b).unwrap();
        assert_eq!(t.add_request(Request::SendDone), b);
        assert_eq!(t.add_request(Request::SendDone), a);
        let c = t.add_request(Request::SendDone);
        assert_eq!(c, mpih::DYN_REQUEST_BASE | 3, "no free slot: a new one");
        assert_eq!(t.request_footprint(), (3, 3));
        // A request goes back only under the handle just taken from.
        t.take_request(a).unwrap();
        t.take_request(c).unwrap();
        assert_eq!(
            t.put_back_request(a, Request::SendDone),
            Err(mpih::MPI_ERR_REQUEST)
        );
        t.put_back_request(c, Request::SendDone).unwrap();
        assert_eq!(
            t.put_back_request(c, Request::SendDone),
            Err(mpih::MPI_ERR_REQUEST),
            "occupied"
        );
        assert_eq!(t.request_footprint(), (2, 3));
    }
}
