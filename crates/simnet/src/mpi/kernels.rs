//! Reduction arithmetic on raw byte buffers.
//!
//! All wire data is little-endian (the simulated cluster is x86-64, like
//! the paper's). A vendor header only says which [`ElemKind`] each of its
//! datatype handles is and which [`BuiltinOp`] each of its op handles is;
//! the arithmetic is here.

use super::abi::{MpiResult, NativeAbi};

/// The element kind a reduction operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemKind {
    /// Signed integers of width 1, 2, 4, 8.
    Int(usize),
    /// Unsigned integers of width 1, 2, 4, 8.
    Uint(usize),
    /// IEEE-754 floats of width 4 or 8.
    Float(usize),
}

impl ElemKind {
    /// Element width in bytes.
    pub fn size(self) -> usize {
        match self {
            ElemKind::Int(s) | ElemKind::Uint(s) | ElemKind::Float(s) => s,
        }
    }
}

/// The predefined reduction operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinOp {
    /// `MPI_SUM`.
    Sum,
    /// `MPI_PROD`.
    Prod,
    /// `MPI_MIN`.
    Min,
    /// `MPI_MAX`.
    Max,
    /// `MPI_LAND`.
    Land,
    /// `MPI_LOR`.
    Lor,
    /// `MPI_LXOR`.
    Lxor,
    /// `MPI_BAND`.
    Band,
    /// `MPI_BOR`.
    Bor,
    /// `MPI_BXOR`.
    Bxor,
}

impl BuiltinOp {
    /// Every predefined op, in the order of [`NativeAbi::OPS`].
    pub const ALL: [BuiltinOp; 10] = [
        BuiltinOp::Sum,
        BuiltinOp::Prod,
        BuiltinOp::Min,
        BuiltinOp::Max,
        BuiltinOp::Land,
        BuiltinOp::Lor,
        BuiltinOp::Lxor,
        BuiltinOp::Band,
        BuiltinOp::Bor,
        BuiltinOp::Bxor,
    ];
}

macro_rules! combine_as {
    ($ty:ty, $acc:expr, $other:expr, $f:expr) => {{
        const W: usize = std::mem::size_of::<$ty>();
        for (a, b) in $acc.chunks_exact_mut(W).zip($other.chunks_exact(W)) {
            let x = <$ty>::from_le_bytes(a.try_into().unwrap());
            let y = <$ty>::from_le_bytes(b.try_into().unwrap());
            let f: fn($ty, $ty) -> $ty = $f;
            a.copy_from_slice(&f(x, y).to_le_bytes());
        }
    }};
}

macro_rules! int_ops {
    ($ty:ty, $op:expr, $acc:expr, $other:expr) => {
        match $op {
            BuiltinOp::Sum => combine_as!($ty, $acc, $other, |x, y| x.wrapping_add(y)),
            BuiltinOp::Prod => combine_as!($ty, $acc, $other, |x, y| x.wrapping_mul(y)),
            BuiltinOp::Min => combine_as!($ty, $acc, $other, |x, y| x.min(y)),
            BuiltinOp::Max => combine_as!($ty, $acc, $other, |x, y| x.max(y)),
            BuiltinOp::Land => {
                combine_as!($ty, $acc, $other, |x, y| ((x != 0) && (y != 0)) as $ty)
            }
            BuiltinOp::Lor => combine_as!($ty, $acc, $other, |x, y| ((x != 0) || (y != 0)) as $ty),
            BuiltinOp::Lxor => {
                combine_as!($ty, $acc, $other, |x, y| ((x != 0) ^ (y != 0)) as $ty)
            }
            BuiltinOp::Band => combine_as!($ty, $acc, $other, |x, y| x & y),
            BuiltinOp::Bor => combine_as!($ty, $acc, $other, |x, y| x | y),
            BuiltinOp::Bxor => combine_as!($ty, $acc, $other, |x, y| x ^ y),
        }
    };
}

macro_rules! float_ops {
    ($V:ty, $ty:ty, $op:expr, $acc:expr, $other:expr) => {
        match $op {
            BuiltinOp::Sum => combine_as!($ty, $acc, $other, |x, y| x + y),
            BuiltinOp::Prod => combine_as!($ty, $acc, $other, |x, y| x * y),
            BuiltinOp::Min => combine_as!($ty, $acc, $other, |x, y| x.min(y)),
            BuiltinOp::Max => combine_as!($ty, $acc, $other, |x, y| x.max(y)),
            BuiltinOp::Land => {
                combine_as!($ty, $acc, $other, |x, y| ((x != 0.0) && (y != 0.0)) as u8
                    as $ty)
            }
            BuiltinOp::Lor => {
                combine_as!($ty, $acc, $other, |x, y| ((x != 0.0) || (y != 0.0)) as u8
                    as $ty)
            }
            BuiltinOp::Lxor => {
                combine_as!($ty, $acc, $other, |x, y| ((x != 0.0) ^ (y != 0.0)) as u8
                    as $ty)
            }
            BuiltinOp::Band | BuiltinOp::Bor | BuiltinOp::Bxor => return Err(<$V>::ERR_OP),
        }
    };
}

/// Element-wise `acc = op(acc, other)` for a predefined op; errors are
/// `V`'s native codes.
///
/// `acc` and `other` must be equal-length multiples of the element size.
pub fn combine<V: NativeAbi>(
    op: BuiltinOp,
    kind: ElemKind,
    acc: &mut [u8],
    other: &[u8],
) -> MpiResult<()> {
    if acc.len() != other.len() || !acc.len().is_multiple_of(kind.size()) {
        return Err(V::ERR_COUNT);
    }
    match kind {
        ElemKind::Int(1) => int_ops!(i8, op, acc, other),
        ElemKind::Int(2) => int_ops!(i16, op, acc, other),
        ElemKind::Int(4) => int_ops!(i32, op, acc, other),
        ElemKind::Int(8) => int_ops!(i64, op, acc, other),
        ElemKind::Uint(1) => int_ops!(u8, op, acc, other),
        ElemKind::Uint(2) => int_ops!(u16, op, acc, other),
        ElemKind::Uint(4) => int_ops!(u32, op, acc, other),
        ElemKind::Uint(8) => int_ops!(u64, op, acc, other),
        ElemKind::Float(4) => float_ops!(V, f32, op, acc, other),
        ElemKind::Float(8) => float_ops!(V, f64, op, acc, other),
        _ => return Err(V::ERR_TYPE),
    }
    Ok(())
}
