//! The Open MPI-flavoured **native ABI**: what this library's `mpi.h`
//! exposes.
//!
//! Everything here mirrors the representation choices of the Open MPI
//! family — and is deliberately incompatible with `mpich-sim`'s:
//!
//! * handles are **pointers** (modelled as newtyped `usize` addresses into
//!   library-owned object tables; predefined objects live at fixed sentinel
//!   "addresses" the way `&ompi_mpi_comm_world` is a fixed symbol address);
//! * `MPI_Status` has Open MPI's field order, with private `_cancelled` and
//!   `_ucount` fields after the public ones;
//! * wildcard/sentinel constants have Open MPI's values
//!   (`MPI_ANY_SOURCE = -1`, `MPI_PROC_NULL = -2`, …).
//!
//! A binary "compiled against" this module cannot run on `mpich-sim`, and
//! vice versa. Bridging this is the `muk` shim's whole job.

use simnet::mpi::{ElemKind, NativeAbi, NativeStatus};

/// Native communicator handle: a pointer-like address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MpiComm(pub usize);
/// Native datatype handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MpiDatatype(pub usize);
/// Native reduction-op handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MpiOp(pub usize);
/// Native request handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MpiRequest(pub usize);

// Sentinel "addresses" for predefined objects. Spaced like real symbol
// addresses in a loaded shared object.
const BASE: usize = 0x7f2a_0000_0000;

/// `MPI_COMM_NULL` (the null pointer sentinel of the comm kind).
pub const MPI_COMM_NULL: MpiComm = MpiComm(BASE);
/// `&ompi_mpi_comm_world`.
pub const MPI_COMM_WORLD: MpiComm = MpiComm(BASE + 0x1000);
/// `&ompi_mpi_comm_self`.
pub const MPI_COMM_SELF: MpiComm = MpiComm(BASE + 0x1040);
/// Dynamically created communicators are handed out from this address up,
/// in steps of [`HANDLE_STRIDE`].
pub const DYN_COMM_BASE: usize = BASE + 0x1000_0000;

/// Address stride between dynamic objects (like malloc'd structs).
pub const HANDLE_STRIDE: usize = 0x40;

/// `MPI_DATATYPE_NULL`.
pub const MPI_DATATYPE_NULL: MpiDatatype = MpiDatatype(BASE + 0x2000);
/// `&ompi_mpi_byte`.
pub const MPI_BYTE: MpiDatatype = MpiDatatype(BASE + 0x2040);
/// `&ompi_mpi_char`.
pub const MPI_CHAR: MpiDatatype = MpiDatatype(BASE + 0x2080);
/// `&ompi_mpi_int8_t`.
pub const MPI_INT8_T: MpiDatatype = MpiDatatype(BASE + 0x20c0);
/// `&ompi_mpi_uint8_t`.
pub const MPI_UINT8_T: MpiDatatype = MpiDatatype(BASE + 0x2100);
/// `&ompi_mpi_int16_t`.
pub const MPI_INT16_T: MpiDatatype = MpiDatatype(BASE + 0x2140);
/// `&ompi_mpi_uint16_t`.
pub const MPI_UINT16_T: MpiDatatype = MpiDatatype(BASE + 0x2180);
/// `&ompi_mpi_int` (32-bit).
pub const MPI_INT: MpiDatatype = MpiDatatype(BASE + 0x21c0);
/// `&ompi_mpi_uint32_t`.
pub const MPI_UINT32_T: MpiDatatype = MpiDatatype(BASE + 0x2200);
/// `&ompi_mpi_int64_t`.
pub const MPI_INT64_T: MpiDatatype = MpiDatatype(BASE + 0x2240);
/// `&ompi_mpi_uint64_t`.
pub const MPI_UINT64_T: MpiDatatype = MpiDatatype(BASE + 0x2280);
/// `&ompi_mpi_float`.
pub const MPI_FLOAT: MpiDatatype = MpiDatatype(BASE + 0x22c0);
/// `&ompi_mpi_double`.
pub const MPI_DOUBLE: MpiDatatype = MpiDatatype(BASE + 0x2300);
/// Dynamic (derived) datatypes are handed out from here.
pub const DYN_TYPE_BASE: usize = BASE + 0x2000_0000;

/// All predefined (non-null) datatypes with their element sizes.
pub const PREDEFINED_DATATYPES: [(MpiDatatype, usize); 12] = [
    (MPI_BYTE, 1),
    (MPI_CHAR, 1),
    (MPI_INT8_T, 1),
    (MPI_UINT8_T, 1),
    (MPI_INT16_T, 2),
    (MPI_UINT16_T, 2),
    (MPI_INT, 4),
    (MPI_UINT32_T, 4),
    (MPI_INT64_T, 8),
    (MPI_UINT64_T, 8),
    (MPI_FLOAT, 4),
    (MPI_DOUBLE, 8),
];

/// `MPI_OP_NULL`.
pub const MPI_OP_NULL: MpiOp = MpiOp(BASE + 0x3000);
/// `&ompi_mpi_op_max`.
pub const MPI_MAX: MpiOp = MpiOp(BASE + 0x3040);
/// `&ompi_mpi_op_min`.
pub const MPI_MIN: MpiOp = MpiOp(BASE + 0x3080);
/// `&ompi_mpi_op_sum`.
pub const MPI_SUM: MpiOp = MpiOp(BASE + 0x30c0);
/// `&ompi_mpi_op_prod`.
pub const MPI_PROD: MpiOp = MpiOp(BASE + 0x3100);
/// `&ompi_mpi_op_land`.
pub const MPI_LAND: MpiOp = MpiOp(BASE + 0x3140);
/// `&ompi_mpi_op_band`.
pub const MPI_BAND: MpiOp = MpiOp(BASE + 0x3180);
/// `&ompi_mpi_op_lor`.
pub const MPI_LOR: MpiOp = MpiOp(BASE + 0x31c0);
/// `&ompi_mpi_op_bor`.
pub const MPI_BOR: MpiOp = MpiOp(BASE + 0x3200);
/// `&ompi_mpi_op_lxor`.
pub const MPI_LXOR: MpiOp = MpiOp(BASE + 0x3240);
/// `&ompi_mpi_op_bxor`.
pub const MPI_BXOR: MpiOp = MpiOp(BASE + 0x3280);
/// Dynamic (user) ops are handed out from here.
pub const DYN_OP_BASE: usize = BASE + 0x3000_0000;

/// `MPI_REQUEST_NULL`.
pub const MPI_REQUEST_NULL: MpiRequest = MpiRequest(BASE + 0x4000);
/// Dynamic requests are handed out from here.
pub const DYN_REQUEST_BASE: usize = BASE + 0x4000_0000;

// ---------------------------------------------------------------------
// Wildcards & sentinels (Open MPI values — differ from MPICH's!)
// ---------------------------------------------------------------------

/// `MPI_ANY_SOURCE` (Open MPI: −1; MPICH uses −2).
pub const MPI_ANY_SOURCE: i32 = -1;
/// `MPI_ANY_TAG` (Open MPI: −1).
pub const MPI_ANY_TAG: i32 = -1;
/// `MPI_PROC_NULL` (Open MPI: −2; MPICH uses −1).
pub const MPI_PROC_NULL: i32 = -2;
/// `MPI_ROOT`.
pub const MPI_ROOT: i32 = -4;
/// `MPI_UNDEFINED`.
pub const MPI_UNDEFINED: i32 = -32766;
/// Largest supported tag.
pub const MPI_TAG_UB: i32 = 0x7FFF_FFF0;

// ---------------------------------------------------------------------
// Status (Open MPI field layout)
// ---------------------------------------------------------------------

/// `MPI_Status`, Open MPI layout: public fields first, then the private
/// `_cancelled` flag and `_ucount` byte count.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MpiStatus {
    /// `status.MPI_SOURCE`.
    pub mpi_source: i32,
    /// `status.MPI_TAG`.
    pub mpi_tag: i32,
    /// `status.MPI_ERROR`.
    pub mpi_error: i32,
    /// Private: cancelled flag.
    pub cancelled: i32,
    /// Private: bytes transferred.
    pub ucount: usize,
}

impl MpiStatus {
    /// Build a status for a completed receive.
    pub fn for_receive(source: i32, tag: i32, count_bytes: usize) -> MpiStatus {
        MpiStatus {
            mpi_source: source,
            mpi_tag: tag,
            mpi_error: MPI_SUCCESS,
            cancelled: 0,
            ucount: count_bytes,
        }
    }

    /// Total byte count.
    pub fn count_bytes(&self) -> usize {
        self.ucount
    }
}

// ---------------------------------------------------------------------
// Error codes (Open MPI's table; some values differ from MPICH's)
// ---------------------------------------------------------------------

/// `MPI_SUCCESS`.
pub const MPI_SUCCESS: i32 = 0;
/// `MPI_ERR_BUFFER`.
pub const MPI_ERR_BUFFER: i32 = 1;
/// `MPI_ERR_COUNT`.
pub const MPI_ERR_COUNT: i32 = 2;
/// `MPI_ERR_TYPE`.
pub const MPI_ERR_TYPE: i32 = 3;
/// `MPI_ERR_TAG`.
pub const MPI_ERR_TAG: i32 = 4;
/// `MPI_ERR_COMM`.
pub const MPI_ERR_COMM: i32 = 5;
/// `MPI_ERR_RANK`.
pub const MPI_ERR_RANK: i32 = 6;
/// `MPI_ERR_REQUEST` (Open MPI: 7; MPICH uses 19).
pub const MPI_ERR_REQUEST: i32 = 7;
/// `MPI_ERR_ROOT`.
pub const MPI_ERR_ROOT: i32 = 8;
/// `MPI_ERR_GROUP`.
pub const MPI_ERR_GROUP: i32 = 9;
/// `MPI_ERR_OP`.
pub const MPI_ERR_OP: i32 = 10;
/// `MPI_ERR_ARG`.
pub const MPI_ERR_ARG: i32 = 13;
/// `MPI_ERR_TRUNCATE`.
pub const MPI_ERR_TRUNCATE: i32 = 15;
/// `MPI_ERR_OTHER`.
pub const MPI_ERR_OTHER: i32 = 16;
/// `MPI_ERR_INTERN`.
pub const MPI_ERR_INTERN: i32 = 17;
/// Process failed (FT extension; Open MPI/ULFM value).
pub const MPI_ERR_PROC_FAILED: i32 = 57;
/// Substrate shut down underneath the library.
pub const MPI_ERR_SHUTDOWN: i32 = 58;
/// Library finalized.
pub const MPI_ERR_FINALIZED: i32 = 59;

// ---------------------------------------------------------------------
// This header, as the shared engine reads it
// ---------------------------------------------------------------------

/// The Open MPI-flavoured native ABI: the marker `simnet::mpi` is generic
/// over. Every value below is one of this module's constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenMpi;

impl NativeStatus for MpiStatus {
    fn for_receive(source: i32, tag: i32, bytes: usize) -> MpiStatus {
        MpiStatus::for_receive(source, tag, bytes)
    }

    fn source(&self) -> i32 {
        self.mpi_source
    }

    fn tag(&self) -> i32 {
        self.mpi_tag
    }

    fn error(&self) -> i32 {
        self.mpi_error
    }

    fn count_bytes(&self) -> u64 {
        self.ucount as u64
    }
}

impl NativeAbi for OpenMpi {
    type Comm = MpiComm;
    type Datatype = MpiDatatype;
    type Op = MpiOp;
    type Request = MpiRequest;
    type Status = MpiStatus;
    type Store = crate::objects::Heap;

    const VERSION: &'static str = "ompi-sim 3.1.2 (native ABI: pointer handles)";

    const ANY_SOURCE: i32 = MPI_ANY_SOURCE;
    const PROC_NULL: i32 = MPI_PROC_NULL;
    const ANY_TAG: i32 = MPI_ANY_TAG;
    const TAG_UB: i32 = MPI_TAG_UB;
    const UNDEFINED: i32 = MPI_UNDEFINED;
    const COMM_WORLD: MpiComm = MPI_COMM_WORLD;
    const COMM_SELF: MpiComm = MPI_COMM_SELF;
    const COMM_NULL: MpiComm = MPI_COMM_NULL;
    const REQUEST_NULL: MpiRequest = MPI_REQUEST_NULL;

    const SUCCESS: i32 = MPI_SUCCESS;
    const ERR_BUFFER: i32 = MPI_ERR_BUFFER;
    const ERR_COUNT: i32 = MPI_ERR_COUNT;
    const ERR_TYPE: i32 = MPI_ERR_TYPE;
    const ERR_TAG: i32 = MPI_ERR_TAG;
    const ERR_COMM: i32 = MPI_ERR_COMM;
    const ERR_RANK: i32 = MPI_ERR_RANK;
    const ERR_ROOT: i32 = MPI_ERR_ROOT;
    const ERR_GROUP: i32 = MPI_ERR_GROUP;
    const ERR_OP: i32 = MPI_ERR_OP;
    const ERR_REQUEST: i32 = MPI_ERR_REQUEST;
    const ERR_TRUNCATE: i32 = MPI_ERR_TRUNCATE;
    const ERR_ARG: i32 = MPI_ERR_ARG;
    const ERR_OTHER: i32 = MPI_ERR_OTHER;
    const ERR_INTERN: i32 = MPI_ERR_INTERN;
    const ERR_PROC_FAILED: i32 = MPI_ERR_PROC_FAILED;
    const ERR_SHUTDOWN: i32 = MPI_ERR_SHUTDOWN;
    const ERR_FINALIZED: i32 = MPI_ERR_FINALIZED;

    const DATATYPES: [(MpiDatatype, usize, ElemKind); 12] = [
        (MPI_BYTE, 1, ElemKind::Uint(1)),
        (MPI_CHAR, 1, ElemKind::Uint(1)),
        (MPI_INT8_T, 1, ElemKind::Int(1)),
        (MPI_UINT8_T, 1, ElemKind::Uint(1)),
        (MPI_INT16_T, 2, ElemKind::Int(2)),
        (MPI_UINT16_T, 2, ElemKind::Uint(2)),
        (MPI_INT, 4, ElemKind::Int(4)),
        (MPI_UINT32_T, 4, ElemKind::Uint(4)),
        (MPI_INT64_T, 8, ElemKind::Int(8)),
        (MPI_UINT64_T, 8, ElemKind::Uint(8)),
        (MPI_FLOAT, 4, ElemKind::Float(4)),
        (MPI_DOUBLE, 8, ElemKind::Float(8)),
    ];
    const OPS: [MpiOp; 10] = [
        MPI_SUM, MPI_PROD, MPI_MIN, MPI_MAX, MPI_LAND, MPI_LOR, MPI_LXOR, MPI_BAND, MPI_BOR,
        MPI_BXOR,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predefined_addresses_are_distinct_and_strided() {
        let addrs: Vec<usize> = PREDEFINED_DATATYPES.iter().map(|(d, _)| d.0).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), addrs.len());
        for w in addrs.windows(2) {
            assert_eq!(
                w[1] - w[0],
                HANDLE_STRIDE,
                "symbols laid out at fixed stride"
            );
        }
    }

    #[test]
    fn wildcards_differ_from_mpich_flavour() {
        // MPICH: ANY_SOURCE=-2, PROC_NULL=-1. Open MPI: ANY_SOURCE=-1,
        // PROC_NULL=-2. Swapped! This is the classic silent-corruption
        // hazard the standard ABI eliminates.
        assert_eq!(MPI_ANY_SOURCE, -1);
        assert_eq!(MPI_PROC_NULL, -2);
    }

    #[test]
    fn status_layout_has_public_fields_first() {
        let st = MpiStatus::for_receive(3, 9, 128);
        assert_eq!(st.mpi_source, 3);
        assert_eq!(st.mpi_tag, 9);
        assert_eq!(st.count_bytes(), 128);
        assert_eq!(st.cancelled, 0);
    }

    #[test]
    fn dynamic_ranges_do_not_overlap_predefined() {
        // Compile-time facts, asserted in a const block.
        const {
            assert!(DYN_COMM_BASE > MPI_COMM_SELF.0);
            assert!(DYN_TYPE_BASE > MPI_DOUBLE.0);
            assert!(DYN_OP_BASE > MPI_BXOR.0);
            assert!(DYN_REQUEST_BASE > MPI_REQUEST_NULL.0);
        }
    }
}
