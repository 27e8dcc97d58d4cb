//! The MPICH-flavoured **native ABI**: what this library's `mpi.h` exposes.
//!
//! Everything here mirrors the representation choices of the real MPICH
//! family, which is what made MANA's original implementation MPICH-specific:
//!
//! * handles are **32-bit integers** with kind/size information packed into
//!   bit fields (predefined objects are compile-time constants like
//!   `0x44000000`);
//! * `MPI_Status` has MPICH's field order, with the transfer count split
//!   across two words;
//! * wildcard/sentinel constants have MPICH's values (`MPI_ANY_SOURCE = -2`,
//!   `MPI_PROC_NULL = -1`, …), which differ from both the Open MPI flavour
//!   and the standard ABI.
//!
//! A binary "compiled against" this module cannot run on `ompi-sim` — the
//! handle values and status layout are meaningless there. That failure (and
//! its repair by the `muk` shim) is demonstrated in `examples/abi_mismatch.rs`.

use simnet::mpi::{ElemKind, NativeAbi, NativeStatus};

/// Native communicator handle: a 32-bit integer, MPICH style.
pub type MpiComm = i32;
/// Native datatype handle.
pub type MpiDatatype = i32;
/// Native reduction-op handle.
pub type MpiOp = i32;
/// Native request handle.
pub type MpiRequest = i32;

// ---------------------------------------------------------------------
// Predefined communicators (MPICH bit patterns)
// ---------------------------------------------------------------------

/// `MPI_COMM_WORLD` — note the MPICH magic `0x44000000`.
pub const MPI_COMM_WORLD: MpiComm = 0x4400_0000;
/// `MPI_COMM_SELF`.
pub const MPI_COMM_SELF: MpiComm = 0x4400_0001;
/// `MPI_COMM_NULL`.
pub const MPI_COMM_NULL: MpiComm = 0x0400_0000;
/// Dynamic communicators: `DYN_COMM_BASE | slot`.
pub const DYN_COMM_BASE: MpiComm = 0x8400_0000u32 as i32;

// ---------------------------------------------------------------------
// Predefined datatypes: 0x4c000000 | (size_in_bytes << 8) | index
// (the size-in-handle trick is exactly what real MPICH does)
// ---------------------------------------------------------------------

/// `MPI_DATATYPE_NULL`.
pub const MPI_DATATYPE_NULL: MpiDatatype = 0x0c00_0000;
/// `MPI_BYTE`.
pub const MPI_BYTE: MpiDatatype = 0x4c00_0101;
/// `MPI_CHAR`.
pub const MPI_CHAR: MpiDatatype = 0x4c00_0102;
/// `MPI_INT8_T`.
pub const MPI_INT8_T: MpiDatatype = 0x4c00_0103;
/// `MPI_UINT8_T`.
pub const MPI_UINT8_T: MpiDatatype = 0x4c00_0104;
/// `MPI_INT16_T`.
pub const MPI_INT16_T: MpiDatatype = 0x4c00_0205;
/// `MPI_UINT16_T`.
pub const MPI_UINT16_T: MpiDatatype = 0x4c00_0206;
/// `MPI_INT` (32-bit).
pub const MPI_INT: MpiDatatype = 0x4c00_0407;
/// `MPI_UINT32_T`.
pub const MPI_UINT32_T: MpiDatatype = 0x4c00_0408;
/// `MPI_INT64_T`.
pub const MPI_INT64_T: MpiDatatype = 0x4c00_0809;
/// `MPI_UINT64_T`.
pub const MPI_UINT64_T: MpiDatatype = 0x4c00_080a;
/// `MPI_FLOAT`.
pub const MPI_FLOAT: MpiDatatype = 0x4c00_040b;
/// `MPI_DOUBLE`.
pub const MPI_DOUBLE: MpiDatatype = 0x4c00_080c;
/// Derived datatypes: `DYN_TYPE_BASE | slot`.
pub const DYN_TYPE_BASE: MpiDatatype = 0x8c00_0000u32 as i32;

/// All predefined (non-null) datatypes.
pub const PREDEFINED_DATATYPES: [MpiDatatype; 12] = [
    MPI_BYTE,
    MPI_CHAR,
    MPI_INT8_T,
    MPI_UINT8_T,
    MPI_INT16_T,
    MPI_UINT16_T,
    MPI_INT,
    MPI_UINT32_T,
    MPI_INT64_T,
    MPI_UINT64_T,
    MPI_FLOAT,
    MPI_DOUBLE,
];

/// Element size encoded in a predefined datatype handle (MPICH packs the
/// size into bits 8..16 of the handle).
pub const fn builtin_type_size(dt: MpiDatatype) -> usize {
    ((dt >> 8) & 0xFF) as usize
}

// ---------------------------------------------------------------------
// Predefined reduction ops (real MPICH values: 0x58000001..)
// ---------------------------------------------------------------------

/// `MPI_OP_NULL`.
pub const MPI_OP_NULL: MpiOp = 0x1800_0000;
/// `MPI_MAX`.
pub const MPI_MAX: MpiOp = 0x5800_0001;
/// `MPI_MIN`.
pub const MPI_MIN: MpiOp = 0x5800_0002;
/// `MPI_SUM`.
pub const MPI_SUM: MpiOp = 0x5800_0003;
/// `MPI_PROD`.
pub const MPI_PROD: MpiOp = 0x5800_0004;
/// `MPI_LAND`.
pub const MPI_LAND: MpiOp = 0x5800_0005;
/// `MPI_BAND`.
pub const MPI_BAND: MpiOp = 0x5800_0006;
/// `MPI_LOR`.
pub const MPI_LOR: MpiOp = 0x5800_0007;
/// `MPI_BOR`.
pub const MPI_BOR: MpiOp = 0x5800_0008;
/// `MPI_LXOR`.
pub const MPI_LXOR: MpiOp = 0x5800_0009;
/// `MPI_BXOR`.
pub const MPI_BXOR: MpiOp = 0x5800_000a;
/// User-defined ops: `DYN_OP_BASE | slot`.
pub const DYN_OP_BASE: MpiOp = 0x9800_0000u32 as i32;

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// `MPI_REQUEST_NULL`.
pub const MPI_REQUEST_NULL: MpiRequest = 0x2c00_0000;
/// Dynamic requests: `DYN_REQUEST_BASE | slot` (slot ≥ 1).
pub const DYN_REQUEST_BASE: MpiRequest = 0x2c00_0000;

// ---------------------------------------------------------------------
// Wildcards & sentinels (MPICH values — differ from Open MPI's!)
// ---------------------------------------------------------------------

/// `MPI_ANY_SOURCE` (MPICH: −2; Open MPI uses −1).
pub const MPI_ANY_SOURCE: i32 = -2;
/// `MPI_ANY_TAG` (MPICH: −1).
pub const MPI_ANY_TAG: i32 = -1;
/// `MPI_PROC_NULL` (MPICH: −1; Open MPI uses −2).
pub const MPI_PROC_NULL: i32 = -1;
/// `MPI_ROOT`.
pub const MPI_ROOT: i32 = -3;
/// `MPI_UNDEFINED`.
pub const MPI_UNDEFINED: i32 = -32766;
/// Largest supported tag.
pub const MPI_TAG_UB: i32 = 0x3FFF_FFFF;

// ---------------------------------------------------------------------
// Status (MPICH field layout)
// ---------------------------------------------------------------------

/// `MPI_Status`, MPICH layout: the transfer count is split across the two
/// leading words (`count_lo`, and the low bits of `count_hi_and_cancelled`),
/// followed by the public fields.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MpiStatus {
    /// Low 32 bits of the byte count.
    pub count_lo: i32,
    /// Bits 0..31 of this word: high bits of the count; bit 31: cancelled.
    pub count_hi_and_cancelled: i32,
    /// `status.MPI_SOURCE`.
    pub mpi_source: i32,
    /// `status.MPI_TAG`.
    pub mpi_tag: i32,
    /// `status.MPI_ERROR`.
    pub mpi_error: i32,
}

impl MpiStatus {
    /// Build a status for a completed receive.
    pub fn for_receive(source: i32, tag: i32, count_bytes: u64) -> MpiStatus {
        MpiStatus {
            count_lo: (count_bytes & 0xFFFF_FFFF) as i32,
            count_hi_and_cancelled: ((count_bytes >> 32) & 0x7FFF_FFFF) as i32,
            mpi_source: source,
            mpi_tag: tag,
            mpi_error: MPI_SUCCESS,
        }
    }

    /// Total byte count (`MPI_Get_count` precursor).
    pub fn count_bytes(&self) -> u64 {
        (self.count_lo as u32 as u64)
            | (((self.count_hi_and_cancelled as u32 as u64) & 0x7FFF_FFFF) << 32)
    }
}

// ---------------------------------------------------------------------
// Error codes (MPICH's low consecutive integers)
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
/// `MPI_ERR_ROOT`.
pub const MPI_ERR_ROOT: i32 = 7;
/// `MPI_ERR_GROUP`.
pub const MPI_ERR_GROUP: i32 = 8;
/// `MPI_ERR_OP`.
pub const MPI_ERR_OP: i32 = 9;
/// `MPI_ERR_REQUEST`.
pub const MPI_ERR_REQUEST: i32 = 19;
/// `MPI_ERR_TRUNCATE`.
pub const MPI_ERR_TRUNCATE: i32 = 14;
/// `MPI_ERR_ARG`.
pub const MPI_ERR_ARG: i32 = 12;
/// `MPI_ERR_OTHER`.
pub const MPI_ERR_OTHER: i32 = 15;
/// `MPI_ERR_INTERN`.
pub const MPI_ERR_INTERN: i32 = 16;
/// Process failed (FT extension).
pub const MPI_ERR_PROC_FAILED: i32 = 108;
/// Substrate shut down underneath the library.
pub const MPI_ERR_SHUTDOWN: i32 = 109;
/// Library finalized.
pub const MPI_ERR_FINALIZED: i32 = 110;

// ---------------------------------------------------------------------
// This header, as the shared engine reads it
// ---------------------------------------------------------------------

/// The MPICH-flavoured native ABI: the marker `simnet::mpi` is generic
/// over. Every value below is one of this module's constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mpich;

impl NativeStatus for MpiStatus {
    fn for_receive(source: i32, tag: i32, bytes: usize) -> MpiStatus {
        MpiStatus::for_receive(source, tag, bytes as u64)
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
        MpiStatus::count_bytes(self)
    }
}

impl NativeAbi for Mpich {
    type Comm = MpiComm;
    type Datatype = MpiDatatype;
    type Op = MpiOp;
    type Request = MpiRequest;
    type Status = MpiStatus;
    type Store = crate::objects::Tables;

    const VERSION: &'static str = "mpich-sim 3.3.2 (native ABI: integer handles)";

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
    fn builtin_sizes_are_packed_in_handles() {
        assert_eq!(builtin_type_size(MPI_BYTE), 1);
        assert_eq!(builtin_type_size(MPI_CHAR), 1);
        assert_eq!(builtin_type_size(MPI_INT16_T), 2);
        assert_eq!(builtin_type_size(MPI_INT), 4);
        assert_eq!(builtin_type_size(MPI_FLOAT), 4);
        assert_eq!(builtin_type_size(MPI_DOUBLE), 8);
        assert_eq!(builtin_type_size(MPI_INT64_T), 8);
    }

    #[test]
    fn predefined_handles_are_distinct() {
        let mut all: Vec<i32> = PREDEFINED_DATATYPES.to_vec();
        all.extend([MPI_COMM_WORLD, MPI_COMM_SELF, MPI_COMM_NULL]);
        all.extend([
            MPI_SUM, MPI_PROD, MPI_MIN, MPI_MAX, MPI_LAND, MPI_LOR, MPI_LXOR,
        ]);
        all.extend([MPI_BAND, MPI_BOR, MPI_BXOR, MPI_OP_NULL, MPI_REQUEST_NULL]);
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            n,
            "native handle values must be pairwise distinct"
        );
    }

    #[test]
    fn status_count_round_trips_across_split_words() {
        let small = MpiStatus::for_receive(3, 9, 1234);
        assert_eq!(small.count_bytes(), 1234);
        assert_eq!(small.mpi_source, 3);
        assert_eq!(small.mpi_tag, 9);
        // A count needing the high word.
        let big = MpiStatus::for_receive(0, 0, (7u64 << 32) | 42);
        assert_eq!(big.count_bytes(), (7u64 << 32) | 42);
    }

    #[test]
    fn mpich_constants_differ_from_standard_abi() {
        // The whole point of the shim: MPICH's wildcards are NOT the
        // standard ABI's values.
        assert_ne!(MPI_ANY_SOURCE, mpi_abi_any_source());
        fn mpi_abi_any_source() -> i32 {
            // Inline to avoid a dev-dependency cycle: the standard value.
            -1
        }
    }
}
