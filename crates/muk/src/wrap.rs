//! The wrap library's per-header half: what makes a vendor library speak
//! the standard ABI.
//!
//! Real Mukautuva's wrap library is **one** source compiled once per MPI
//! against that MPI's `mpi.h` (`libmpich-wrap.so`, `libompi-wrap.so`).
//! [`Wrap<V>`] holds what that source keeps per header `V` — the vendor
//! library's [`Process<V>`] and the four standard↔native handle tables —
//! and the translation helpers. It is the only place outside a vendor
//! crate that touches the vendor's native handle encodings, constants,
//! status layout and error codes, and it reads all of them through
//! [`NativeAbi`]. The per-call bodies that use it are written once, in
//! [`crate::shim`]; with the ABI as a table, the translation is
//! table-driven.

use mpi_abi::{consts, AbiError, AbiResult, AbiStatus, Datatype, Handle, HandleKind, ReduceOp};
use simnet::mpi::{BuiltinOp, ElemKind, MpiResult, NativeAbi, NativeStatus, Process};

use crate::bimap::BiMap;

/// Translate a native error code of `V` to a standard error class.
fn err_from_native<V: NativeAbi>(code: i32) -> AbiError {
    let classes = [
        (V::ERR_BUFFER, AbiError::Buffer),
        (V::ERR_COUNT, AbiError::Count),
        (V::ERR_TYPE, AbiError::Datatype),
        (V::ERR_TAG, AbiError::Tag),
        (V::ERR_COMM, AbiError::Comm),
        (V::ERR_RANK, AbiError::Rank),
        (V::ERR_ROOT, AbiError::Root),
        (V::ERR_GROUP, AbiError::Group),
        (V::ERR_OP, AbiError::Op),
        (V::ERR_REQUEST, AbiError::Request),
        (V::ERR_TRUNCATE, AbiError::Truncate),
        (V::ERR_ARG, AbiError::Arg),
        (V::ERR_INTERN, AbiError::Intern),
        (V::ERR_PROC_FAILED, AbiError::ProcFailed),
        (V::ERR_SHUTDOWN, AbiError::Shutdown),
        (V::ERR_FINALIZED, AbiError::Finalized),
    ];
    classes
        .iter()
        .find(|(native, _)| *native == code)
        .map_or(AbiError::Other, |&(_, class)| class)
}

/// The predefined datatype translation (standard → native): the header's
/// table is in ABI index order.
fn dtype_native_of<V: NativeAbi>(d: Datatype) -> V::Datatype {
    V::DATATYPES[d.abi_index() as usize - 1].0
}

/// The predefined reduction-op translation (standard → native).
fn op_native_of<V: NativeAbi>(op: ReduceOp) -> V::Op {
    V::OPS[op.abi_index() as usize - 1]
}

/// `value`, with the sentinel `from` replaced by `to`.
fn swap(value: i32, from: i32, to: i32) -> i32 {
    if value == from {
        to
    } else {
        value
    }
}

/// The wrap library's state over the vendor library whose header is `V`.
pub(crate) struct Wrap<V: NativeAbi> {
    pub(crate) native: Process<V>,
    pub(crate) comms: BiMap<V::Comm>,
    pub(crate) dtypes: BiMap<V::Datatype>,
    pub(crate) ops: BiMap<V::Op>,
    pub(crate) reqs: BiMap<V::Request>,
}

impl<V: NativeAbi> Wrap<V> {
    /// "Load" the wrap library over an initialized vendor library.
    pub(crate) fn open(native: Process<V>) -> Wrap<V> {
        Wrap {
            native,
            comms: BiMap::new(HandleKind::Comm),
            dtypes: BiMap::new(HandleKind::Datatype),
            ops: BiMap::new(HandleKind::Op),
            reqs: BiMap::new(HandleKind::Request),
        }
    }

    // ---- argument translation ------------------------------------------

    pub(crate) fn comm_in(&self, h: Handle) -> AbiResult<V::Comm> {
        match h {
            Handle::COMM_WORLD => Ok(V::COMM_WORLD),
            Handle::COMM_SELF => Ok(V::COMM_SELF),
            Handle::COMM_NULL => Err(AbiError::Comm),
            h => self.comms.native_of(h).ok_or(AbiError::Comm),
        }
    }

    pub(crate) fn dtype_in(&self, h: Handle) -> AbiResult<V::Datatype> {
        if let Some(d) = Datatype::from_handle(h) {
            return Ok(dtype_native_of::<V>(d));
        }
        self.dtypes.native_of(h).ok_or(AbiError::Datatype)
    }

    pub(crate) fn op_in(&self, h: Handle) -> AbiResult<V::Op> {
        if let Some(op) = ReduceOp::from_handle(h) {
            return Ok(op_native_of::<V>(op));
        }
        self.ops.native_of(h).ok_or(AbiError::Op)
    }

    pub(crate) fn src_in(src: i32) -> i32 {
        match src {
            consts::ANY_SOURCE => V::ANY_SOURCE,
            consts::PROC_NULL => V::PROC_NULL,
            r => r,
        }
    }

    pub(crate) fn dest_in(dest: i32) -> i32 {
        swap(dest, consts::PROC_NULL, V::PROC_NULL)
    }

    pub(crate) fn tag_in(tag: i32) -> i32 {
        swap(tag, consts::ANY_TAG, V::ANY_TAG)
    }

    pub(crate) fn color_in(color: i32) -> i32 {
        swap(color, consts::UNDEFINED, V::UNDEFINED)
    }

    /// The predefined op and element kind two native handles name, read
    /// from the header's `OPS` / `DATATYPES` tables; `None` for a user op
    /// or a derived type.
    pub(crate) fn builtin(dt: V::Datatype, op: V::Op) -> Option<(BuiltinOp, ElemKind)> {
        Some((V::builtin_op(op)?, V::builtin_type(dt)?.1))
    }

    // ---- result translation --------------------------------------------

    /// A communicator the vendor created, as a standard handle.
    pub(crate) fn comm_out(&mut self, comm: V::Comm) -> Handle {
        if comm == V::COMM_NULL {
            Handle::COMM_NULL
        } else {
            self.comms.intern(comm)
        }
    }

    pub(crate) fn status_out(st: V::Status) -> AbiStatus {
        let source = match st.source() {
            r if r == V::PROC_NULL => consts::PROC_NULL,
            r if r == V::ANY_SOURCE => consts::ANY_SOURCE,
            r => r,
        };
        AbiStatus {
            source,
            tag: swap(st.tag(), V::ANY_TAG, consts::ANY_TAG),
            error: if st.error() == V::SUCCESS {
                0
            } else {
                err_from_native::<V>(st.error()).code()
            },
            count_bytes: st.count_bytes(),
        }
    }

    pub(crate) fn lift<T>(r: MpiResult<T>) -> AbiResult<T> {
        r.map_err(err_from_native::<V>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpich_sim::Mpich;
    use ompi_sim::OpenMpi;

    /// Run each generic case against both headers.
    macro_rules! for_both_vendors {
        ($($case:ident),* $(,)?) => {
            mod mpich {
                $(#[test] fn $case() { super::$case::<super::Mpich>() })*
            }
            mod openmpi {
                $(#[test] fn $case() { super::$case::<super::OpenMpi>() })*
            }
        };
    }

    for_both_vendors!(
        constant_translation_tables,
        status_layout_conversion,
        error_code_translation,
        predefined_dtype_and_op_tables_are_total,
    );

    fn constant_translation_tables<V: NativeAbi>() {
        assert_eq!(Wrap::<V>::src_in(consts::ANY_SOURCE), V::ANY_SOURCE);
        assert_eq!(Wrap::<V>::src_in(consts::PROC_NULL), V::PROC_NULL);
        assert_eq!(Wrap::<V>::src_in(5), 5);
        assert_eq!(Wrap::<V>::dest_in(consts::PROC_NULL), V::PROC_NULL);
        assert_eq!(Wrap::<V>::dest_in(3), 3);
        assert_eq!(Wrap::<V>::tag_in(consts::ANY_TAG), V::ANY_TAG);
        assert_eq!(Wrap::<V>::tag_in(42), 42);
        assert_eq!(Wrap::<V>::color_in(consts::UNDEFINED), V::UNDEFINED);
        assert_eq!(Wrap::<V>::color_in(1), 1);
    }

    fn status_layout_conversion<V: NativeAbi>() {
        let native = V::Status::for_receive(V::PROC_NULL, 7, 144);
        let std = Wrap::<V>::status_out(native);
        assert_eq!(std.source, consts::PROC_NULL);
        assert_eq!(std.tag, 7);
        assert_eq!(std.count_bytes, 144);
        assert_eq!(std.error, 0);
        let wild = Wrap::<V>::status_out(V::Status::for_receive(V::ANY_SOURCE, V::ANY_TAG, 0));
        assert_eq!(
            (wild.source, wild.tag),
            (consts::ANY_SOURCE, consts::ANY_TAG)
        );
    }

    fn error_code_translation<V: NativeAbi>() {
        assert_eq!(err_from_native::<V>(V::ERR_TRUNCATE), AbiError::Truncate);
        assert_eq!(err_from_native::<V>(V::ERR_REQUEST), AbiError::Request);
        assert_eq!(
            err_from_native::<V>(V::ERR_PROC_FAILED),
            AbiError::ProcFailed
        );
        assert_eq!(err_from_native::<V>(V::ERR_OTHER), AbiError::Other);
        assert_eq!(err_from_native::<V>(9999), AbiError::Other);
        assert_eq!(err_from_native::<V>(-5), AbiError::Other);
    }

    fn predefined_dtype_and_op_tables_are_total<V: NativeAbi>() {
        for d in Datatype::ALL {
            // Every predefined standard type maps to a native type of the
            // same size.
            let (size, _) = V::builtin_type(dtype_native_of::<V>(d)).expect("native type exists");
            assert_eq!(size, d.size(), "{d:?}");
        }
        for op in ReduceOp::ALL {
            // The header's op table and the standard's agree by name.
            let builtin = V::builtin_op(op_native_of::<V>(op)).expect("native op exists");
            assert_eq!(format!("{builtin:?}"), format!("{op:?}"));
        }
    }

    #[test]
    fn wildcard_translation_is_the_swapped_pair() {
        // Standard ANY_SOURCE (−1) happens to equal Open MPI's value, while
        // PROC_NULL (−3) maps to −2; on the MPICH side the same standard
        // values map to −2/−1. The swap is exactly the hazard the paper's
        // ABI standardization removes.
        assert_eq!(Wrap::<Mpich>::src_in(consts::ANY_SOURCE), -2);
        assert_eq!(Wrap::<Mpich>::src_in(consts::PROC_NULL), -1);
        assert_eq!(Wrap::<OpenMpi>::src_in(consts::ANY_SOURCE), -1);
        assert_eq!(Wrap::<OpenMpi>::src_in(consts::PROC_NULL), -2);
        // Same class, different native values.
        assert_eq!(err_from_native::<Mpich>(19), AbiError::Request);
        assert_eq!(err_from_native::<OpenMpi>(7), AbiError::Request);
        assert_eq!(err_from_native::<Mpich>(7), AbiError::Root);
    }
}
