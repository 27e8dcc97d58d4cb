//! The collective algorithms, once, for every vendor.
//!
//! MPI libraries differ in *which* algorithm runs a collective at a given
//! message and communicator size, not in the algorithms: those come from
//! the same literature. Each algorithm here is one function over
//! `&mut Process<V>`, built on the engine's own point-to-point transport,
//! so its virtual-time cost — rounds × link costs × `V`'s per-message
//! costs — emerges from its structure. It takes as arguments only what
//! really differs between the libraries that run it: the segment size of
//! a pipeline, the fold rule of recursive doubling ([`Fold`]). A vendor
//! picks among them per call through its [`super::Tuning`] table, which
//! returns one of the enums below; each variant names the function that
//! runs it.
//!
//! Every function expects the validated arguments of its entry point
//! (`coll.rs`): buffer lengths that fit the communicator, a root in
//! range, more than one rank.

use bytes::Bytes;

use super::abi::{MpiResult, NativeAbi};
use super::objects::CommInfo;
use super::process::Process;
use crate::matching::{SrcPattern, TagPattern};

// One tag per algorithm phase, on the collective context. Tags are not
// part of virtual time; they only keep phases apart.
const DISSEMINATION: i32 = 0x01;
const FOLD_IN: i32 = 0x02;
const DOUBLING: i32 = 0x03;
const FOLD_OUT: i32 = 0x04;
const HALVING_SCATTER: i32 = 0x05;
const HALVING_GATHER: i32 = 0x06;
const RING_SCATTER: i32 = 0x07;
const RING_GATHER: i32 = 0x08;
const BINOMIAL_BCAST: i32 = 0x09;
const CHUNK_SCATTER: i32 = 0x0a;
const CHUNK_RING: i32 = 0x0b;
const BINARY_TREE: i32 = 0x0c;
const CHAIN_BCAST: i32 = 0x0d;
const BINOMIAL_REDUCE: i32 = 0x0e;
const REDUCE_FORWARD: i32 = 0x0f;
const LINEAR_REDUCE: i32 = 0x10;
const CHAIN_REDUCE: i32 = 0x11;
const BINOMIAL_GATHER: i32 = 0x12;
const LINEAR_GATHER: i32 = 0x13;
const BINOMIAL_SCATTER: i32 = 0x14;
const LINEAR_SCATTER: i32 = 0x15;
const BRUCK_ALLGATHER: i32 = 0x16;
const DOUBLING_ALLGATHER: i32 = 0x17;
const RING_ALLGATHER: i32 = 0x18;
const BRUCK_ALLTOALL: i32 = 0x19;
const POSTED_ALLTOALL: i32 = 0x1a;
const PAIRWISE_ALLTOALL: i32 = 0x1b;
const DOUBLING_SCAN: i32 = 0x1c;
const CHAIN_SCAN: i32 = 0x1d;

/// How recursive doubling folds in the ranks beyond the largest power of
/// two `pof2 ≤ n` before the exchange, and hands them the result after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Rank `2i` hands its data to `2i + 1` for `i < n − pof2` (MPICH):
    /// every survivor holds a run of consecutive ranks.
    EvenIntoOdd,
    /// Rank `pof2 + i` hands its data to `i` (Open MPI).
    UpperIntoLower,
}

/// `MPI_Barrier` algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Barrier {
    /// [`barrier_dissemination`].
    Dissemination,
    /// [`barrier_doubling`].
    RecursiveDoubling(Fold),
}

/// `MPI_Bcast` algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bcast {
    /// [`bcast_binomial`].
    Binomial,
    /// [`bcast_scatter_ring`] (van de Geijn).
    ScatterRing,
    /// [`bcast_binary_tree`].
    BinaryTree,
    /// [`bcast_chain`] in segments of this many bytes.
    Chain {
        /// Pipeline segment in bytes.
        segment: usize,
    },
}

/// `MPI_Reduce` algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// [`reduce_binomial`].
    Binomial,
    /// [`reduce_linear`].
    Linear,
    /// [`reduce_chain`] in segments of this many bytes.
    Chain {
        /// Pipeline segment in bytes.
        segment: usize,
    },
}

/// `MPI_Allreduce` algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allreduce {
    /// [`allreduce_doubling`].
    RecursiveDoubling(Fold),
    /// [`allreduce_rabenseifner`].
    Rabenseifner(Fold),
    /// [`allreduce_ring`].
    Ring,
    /// The collective's own `reduce` to rank 0, then its own `bcast`
    /// from rank 0 (Open MPI's "nonoverlapping").
    ReduceBcast,
}

/// `MPI_Gather` algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gather {
    /// [`gather_binomial`].
    Binomial,
    /// [`gather_linear`].
    Linear,
}

/// `MPI_Scatter` algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scatter {
    /// [`scatter_binomial`].
    Binomial,
    /// [`scatter_linear`].
    Linear,
}

/// `MPI_Allgather` algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allgather {
    /// [`allgather_bruck`].
    Bruck,
    /// [`allgather_doubling`] (power-of-two communicators only).
    RecursiveDoubling,
    /// [`allgather_ring`].
    Ring,
}

/// `MPI_Alltoall` algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alltoall {
    /// [`alltoall_bruck`].
    Bruck,
    /// [`alltoall_posted`].
    Posted,
    /// [`alltoall_pairwise`].
    Pairwise,
}

/// `MPI_Scan` algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan {
    /// [`scan_doubling`].
    RecursiveDoubling,
    /// [`scan_chain`].
    Chain,
}

/// What a reducing algorithm combines with.
#[derive(Debug, Clone, Copy)]
pub struct Reduction<V: NativeAbi> {
    /// The op handle (predefined or user-defined).
    pub op: V::Op,
    /// The datatype handle.
    pub dt: V::Datatype,
    /// Whether the op commutes.
    pub commute: bool,
}

/// Byte offsets of `total_elems` elements of `elem` bytes split into
/// `parts` chunks, the remainder front-loaded (one more element in each
/// of the first `total_elems % parts`): chunk `i` starts at `off(i)` and
/// ends at `off(i + 1)`, so chunks `[lo, hi)` are `off(lo)..off(hi)`.
fn chunk_offsets(total_elems: usize, parts: usize, elem: usize) -> impl Fn(usize) -> usize {
    let (base, rem) = (total_elems / parts, total_elems % parts);
    move |i| (i * base + i.min(rem)) * elem
}

/// Lowest set bit (a binomial subtree's span); `v` must be non-zero.
fn lsb(v: usize) -> usize {
    1 << v.trailing_zeros()
}

/// A binomial-tree node at relative rank `rel` of `n`: the relative
/// ranks `[rel, rel + span)` it covers, and its parent's relative rank.
fn binomial_span(rel: usize, n: usize) -> (usize, Option<usize>) {
    if rel == 0 {
        (n, None)
    } else {
        (lsb(rel).min(n - rel), Some(rel - lsb(rel)))
    }
}

/// The largest child distance a binomial node at `rel` sends to first.
fn binomial_top(rel: usize, n: usize) -> usize {
    if rel == 0 {
        1 << (usize::BITS - n.saturating_sub(1).leading_zeros()).saturating_sub(1)
    } else {
        lsb(rel) >> 1
    }
}

impl<V: NativeAbi> Process<V> {
    /// Send a copy of `data` to comm rank `dst` on the collective context.
    fn coll_send(
        &mut self,
        info: &CommInfo<V>,
        dst: usize,
        tag: i32,
        data: &[u8],
    ) -> MpiResult<()> {
        let payload = self.payload(data);
        self.xsend(info, true, dst as i32, tag, payload)
    }

    /// Receive exactly `len` bytes from comm rank `src` on the collective
    /// context.
    fn coll_recv(
        &mut self,
        info: &CommInfo<V>,
        src: usize,
        tag: i32,
        len: usize,
    ) -> MpiResult<Bytes> {
        let from = SrcPattern::Is(info.world_of(src as i32)?);
        let got = self.xrecv(info, true, from, TagPattern::Is(tag))?;
        if got.env.len() != len {
            return Err(V::ERR_TRUNCATE);
        }
        Ok(got.env.payload)
    }

    /// Receive exactly `acc.len()` bytes from comm rank `src` on the
    /// collective context into `acc`: copied in, or with `red` =
    /// `(reduction, other_first)` combined in rank order
    /// ([`Process::combine_ordered`]).
    fn coll_recv_into(
        &mut self,
        info: &CommInfo<V>,
        src: usize,
        tag: i32,
        acc: &mut [u8],
        red: Option<(Reduction<V>, bool)>,
    ) -> MpiResult<()> {
        let got = self.coll_recv(info, src, tag, acc.len())?;
        match red {
            Some((red, other_first)) => self.combine_ordered(red, acc, &got, other_first)?,
            None => acc.copy_from_slice(&got),
        }
        self.recycle(got);
        Ok(())
    }

    /// One hop of a broadcast tree into `buf`: receive it from comm rank
    /// `parent` (none at the root), copying it in once, and return the
    /// payload to forward when the rank `forwards` — the received one
    /// itself, or at the root a copy of `buf`. A rank that forwards
    /// nothing hands the received payload back to the pool.
    fn bcast_hop(
        &mut self,
        info: &CommInfo<V>,
        parent: Option<usize>,
        tag: i32,
        buf: &mut [u8],
        forwards: bool,
    ) -> MpiResult<Option<Bytes>> {
        let payload = match parent {
            Some(src) => {
                let got = self.coll_recv(info, src, tag, buf.len())?;
                buf.copy_from_slice(&got);
                got
            }
            None if forwards => self.payload(buf),
            None => return Ok(None),
        };
        if forwards {
            return Ok(Some(payload));
        }
        self.recycle(payload);
        Ok(None)
    }
}

/// A rank's part in recursive doubling.
enum Part {
    /// Folded into comm rank `into`, which hands the result back.
    Extra { into: usize },
    /// In the power-of-two exchange as `newrank`, holding `extra`'s data.
    Survivor {
        newrank: usize,
        extra: Option<usize>,
    },
}

/// Recursive doubling's view of an `n`-rank communicator under a fold.
struct Doubling {
    pof2: usize,
    rem: usize,
    fold: Fold,
}

impl Doubling {
    fn new(n: usize, fold: Fold) -> Doubling {
        let pof2 = 1 << n.ilog2();
        Doubling {
            pof2,
            rem: n - pof2,
            fold,
        }
    }

    fn part(&self, me: usize) -> Part {
        match self.fold {
            Fold::EvenIntoOdd if me < 2 * self.rem => {
                if me.is_multiple_of(2) {
                    Part::Extra { into: me + 1 }
                } else {
                    Part::Survivor {
                        newrank: me / 2,
                        extra: Some(me - 1),
                    }
                }
            }
            Fold::EvenIntoOdd => Part::Survivor {
                newrank: me - self.rem,
                extra: None,
            },
            Fold::UpperIntoLower if me >= self.pof2 => Part::Extra {
                into: me - self.pof2,
            },
            Fold::UpperIntoLower => Part::Survivor {
                newrank: me,
                extra: (me < self.rem).then_some(me + self.pof2),
            },
        }
    }

    /// The comm rank of a survivor.
    fn rank_of(&self, newrank: usize) -> usize {
        match self.fold {
            Fold::EvenIntoOdd if newrank < self.rem => newrank * 2 + 1,
            Fold::EvenIntoOdd => newrank + self.rem,
            Fold::UpperIntoLower => newrank,
        }
    }

    /// Fold the extras in: an extra sends `acc`, its survivor combines
    /// it (in rank order) when there is a reduction.
    fn fold_in<V: NativeAbi>(
        &self,
        p: &mut Process<V>,
        info: &CommInfo<V>,
        acc: &mut [u8],
        red: Option<Reduction<V>>,
    ) -> MpiResult<Part> {
        let me = info.my_rank as usize;
        let part = self.part(me);
        match part {
            Part::Extra { into } => p.coll_send(info, into, FOLD_IN, acc)?,
            Part::Survivor {
                extra: Some(extra), ..
            } => p.coll_recv_into(info, extra, FOLD_IN, acc, red.map(|r| (r, extra < me)))?,
            Part::Survivor { extra: None, .. } => {}
        }
        Ok(part)
    }

    /// Hand the result back to the extras.
    fn fold_out<V: NativeAbi>(
        &self,
        p: &mut Process<V>,
        info: &CommInfo<V>,
        acc: &mut [u8],
        part: Part,
    ) -> MpiResult<()> {
        match part {
            Part::Extra { into } => p.coll_recv_into(info, into, FOLD_OUT, acc, None)?,
            Part::Survivor {
                extra: Some(extra), ..
            } => p.coll_send(info, extra, FOLD_OUT, acc)?,
            Part::Survivor { extra: None, .. } => {}
        }
        Ok(())
    }
}

/// Recursive doubling over `acc`: the extras fold in, the survivors
/// exchange `acc` with partner `newrank ^ mask` for each mask, the extras
/// get the result. With a reduction every step combines in rank order;
/// without one (and an empty `acc`) it is a barrier.
fn doubling<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    acc: &mut [u8],
    red: Option<Reduction<V>>,
    fold: Fold,
) -> MpiResult<()> {
    let me = info.my_rank as usize;
    let d = Doubling::new(info.size(), fold);
    let part = d.fold_in(p, info, acc, red)?;
    if let Part::Survivor { newrank, .. } = part {
        let mut mask = 1;
        while mask < d.pof2 {
            let partner = d.rank_of(newrank ^ mask);
            p.coll_send(info, partner, DOUBLING, acc)?;
            let red = red.map(|r| (r, partner < me));
            p.coll_recv_into(info, partner, DOUBLING, acc, red)?;
            mask <<= 1;
        }
    }
    d.fold_out(p, info, acc, part)
}

// ----------------------------------------------------------------------
// Barrier
// ----------------------------------------------------------------------

/// Dissemination: in round `k` send to `me + 2^k` and hear from
/// `me − 2^k`; ⌈log₂ n⌉ rounds.
pub fn barrier_dissemination<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
) -> MpiResult<()> {
    let n = info.size();
    let me = info.my_rank as usize;
    let mut k = 1;
    while k < n {
        p.coll_send(info, (me + k) % n, DISSEMINATION, &[])?;
        p.coll_recv(info, (me + n - k) % n, DISSEMINATION, 0)?;
        k <<= 1;
    }
    Ok(())
}

/// Recursive doubling of empty messages, extras folded by `fold`.
pub fn barrier_doubling<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    fold: Fold,
) -> MpiResult<()> {
    doubling(p, info, &mut [], None, fold)
}

// ----------------------------------------------------------------------
// Bcast
// ----------------------------------------------------------------------

/// Binomial tree: each rank receives the whole buffer from its parent
/// and forwards it to its children, largest subtree first.
pub fn bcast_binomial<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    buf: &mut [u8],
    root: usize,
) -> MpiResult<()> {
    let n = info.size();
    let rel = (info.my_rank as usize + n - root) % n;
    let parent = binomial_span(rel, n).1.map(|parent| (parent + root) % n);
    let mut mask = binomial_top(rel, n);
    // A rank with children has child rel + 1.
    let forwards = mask > 0 && rel + 1 < n;
    let Some(payload) = p.bcast_hop(info, parent, BINOMIAL_BCAST, buf, forwards)? else {
        return Ok(());
    };
    while mask > 0 {
        if rel + mask < n {
            let child = (rel + mask + root) % n;
            p.xsend(info, true, child as i32, BINOMIAL_BCAST, payload.clone())?;
        }
        mask >>= 1;
    }
    p.recycle(payload);
    Ok(())
}

/// van de Geijn: a binomial scatter of `n` element-aligned chunks
/// (relative chunk `i` to relative rank `i`), then a ring allgather of
/// the chunks.
pub fn bcast_scatter_ring<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    buf: &mut [u8],
    elem: usize,
    root: usize,
) -> MpiResult<()> {
    let n = info.size();
    let rel = (info.my_rank as usize + n - root) % n;
    let off = chunk_offsets(buf.len() / elem, n, elem);
    let range = |lo, hi| off(lo)..off(hi);

    let (span, parent) = binomial_span(rel, n);
    if let Some(parent) = parent {
        let mine = range(rel, rel + span);
        let parent = (parent + root) % n;
        p.coll_recv_into(info, parent, CHUNK_SCATTER, &mut buf[mine], None)?;
    }
    let mut mask = binomial_top(rel, n);
    while mask > 0 {
        let child = rel + mask;
        if child < n {
            let theirs = range(child, child + mask.min(n - child));
            p.coll_send(info, (child + root) % n, CHUNK_SCATTER, &buf[theirs])?;
        }
        mask >>= 1;
    }

    // At step s relative rank rel sends chunk rel − s and receives chunk
    // rel − s − 1 (mod n).
    let right = ((rel + 1) % n + root) % n;
    let left = ((rel + n - 1) % n + root) % n;
    for s in 0..n - 1 {
        let send_i = (rel + n - s) % n;
        let recv_i = (rel + n - s - 1) % n;
        p.coll_send(info, right, CHUNK_RING, &buf[range(send_i, send_i + 1)])?;
        let theirs = &mut buf[range(recv_i, recv_i + 1)];
        p.coll_recv_into(info, left, CHUNK_RING, theirs, None)?;
    }
    Ok(())
}

/// Binary tree: relative rank `r` receives from `(r − 1) / 2` and
/// forwards to `2r + 1` and `2r + 2`.
pub fn bcast_binary_tree<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    buf: &mut [u8],
    root: usize,
) -> MpiResult<()> {
    let n = info.size();
    let rel = (info.my_rank as usize + n - root) % n;
    let parent = (rel != 0).then(|| ((rel - 1) / 2 + root) % n);
    let forwards = 2 * rel + 1 < n;
    let Some(payload) = p.bcast_hop(info, parent, BINARY_TREE, buf, forwards)? else {
        return Ok(());
    };
    for child in [2 * rel + 1, 2 * rel + 2] {
        if child < n {
            let child = ((child + root) % n) as i32;
            p.xsend(info, true, child, BINARY_TREE, payload.clone())?;
        }
    }
    p.recycle(payload);
    Ok(())
}

/// Pipelined chain from the root in relative rank order, `segment`
/// bytes at a time.
pub fn bcast_chain<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    buf: &mut [u8],
    root: usize,
    segment: usize,
) -> MpiResult<()> {
    let n = info.size();
    let rel = (info.my_rank as usize + n - root) % n;
    let prev = (rel > 0).then(|| (rel - 1 + root) % n);
    let next = (rel + 1 < n).then(|| (rel + 1 + root) % n);
    let seg = segment.max(1);
    for lo in (0..buf.len()).step_by(seg) {
        let hi = (lo + seg).min(buf.len());
        let segment = &mut buf[lo..hi];
        let hop = p.bcast_hop(info, prev, CHAIN_BCAST, segment, next.is_some())?;
        if let (Some(next), Some(payload)) = (next, hop) {
            p.xsend(info, true, next as i32, CHAIN_BCAST, payload)?;
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Reduce
// ----------------------------------------------------------------------

/// Binomial tree: each rank combines its children's subtrees (higher
/// relative ranks) into its own and passes the result to its parent. A
/// non-commutative op is reduced at rank 0, where relative order is rank
/// order, and the result forwarded to the root (MPICH).
pub fn reduce_binomial<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
    red: Reduction<V>,
    root: usize,
) -> MpiResult<()> {
    let n = info.size();
    let me = info.my_rank as usize;
    let tree_root = if red.commute { root } else { 0 };
    let rel = (me + n - tree_root) % n;
    let mut acc = send.to_vec();
    let mut mask = 1;
    while mask < n && rel & mask == 0 {
        let child = rel | mask;
        if child < n {
            let from = (child + tree_root) % n;
            p.coll_recv_into(info, from, BINOMIAL_REDUCE, &mut acc, Some((red, false)))?;
        }
        mask <<= 1;
    }
    if mask < n {
        let parent = (rel - mask + tree_root) % n;
        p.coll_send(info, parent, BINOMIAL_REDUCE, &acc)?;
    } else if me == root {
        recv.copy_from_slice(&acc);
    } else {
        p.coll_send(info, root, REDUCE_FORWARD, &acc)?;
    }
    if me == root && tree_root != root {
        p.coll_recv_into(info, tree_root, REDUCE_FORWARD, recv, None)?;
    }
    Ok(())
}

/// Linear: every rank sends to the root, which combines in rank order.
pub fn reduce_linear<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
    red: Reduction<V>,
    root: usize,
) -> MpiResult<()> {
    let me = info.my_rank as usize;
    if me != root {
        return p.coll_send(info, root, LINEAR_REDUCE, send);
    }
    // Rank 0's contribution seeds the result; later ranks combine in.
    if me == 0 {
        recv.copy_from_slice(send);
    } else {
        p.coll_recv_into(info, 0, LINEAR_REDUCE, recv, None)?;
    }
    for cr in 1..info.size() {
        if cr == me {
            p.combine_ordered(red, recv, send, false)?;
        } else {
            p.coll_recv_into(info, cr, LINEAR_REDUCE, recv, Some((red, false)))?;
        }
    }
    Ok(())
}

/// Pipelined chain in relative rank order with the root last, `segment`
/// bytes at a time; each rank combines what the chain brings (the ranks
/// before it) ahead of its own data.
pub fn reduce_chain<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
    red: Reduction<V>,
    root: usize,
    segment: usize,
) -> MpiResult<()> {
    let n = info.size();
    let me = info.my_rank as usize;
    // Relative rank 0 is root + 1; the root is n − 1.
    let rel = (me + n - root + n - 1) % n;
    let prev = (rel > 0).then(|| (rel + root) % n);
    let next = (rel + 1 < n).then(|| (rel + 2 + root) % n);
    let seg = segment.max(1);
    let mut acc = send.to_vec();
    for lo in (0..acc.len()).step_by(seg) {
        let hi = (lo + seg).min(acc.len());
        if let Some(prev) = prev {
            let seg = &mut acc[lo..hi];
            p.coll_recv_into(info, prev, CHAIN_REDUCE, seg, Some((red, true)))?;
        }
        if let Some(next) = next {
            p.coll_send(info, next, CHAIN_REDUCE, &acc[lo..hi])?;
        }
    }
    if me == root {
        recv.copy_from_slice(&acc);
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Allreduce (in place: `acc` holds this rank's contribution on entry)
// ----------------------------------------------------------------------

/// Recursive doubling of the whole vector, extras folded by `fold`.
pub fn allreduce_doubling<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    acc: &mut [u8],
    red: Reduction<V>,
    fold: Fold,
) -> MpiResult<()> {
    doubling(p, info, acc, Some(red), fold)
}

/// Rabenseifner: extras folded by `fold`, then a reduce-scatter by
/// recursive halving over `pof2` element-aligned chunks and an allgather
/// that replays the halving exchanges in reverse.
pub fn allreduce_rabenseifner<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    acc: &mut [u8],
    elem: usize,
    red: Reduction<V>,
    fold: Fold,
) -> MpiResult<()> {
    let me = info.my_rank as usize;
    let d = Doubling::new(info.size(), fold);
    let part = d.fold_in(p, info, acc, Some(red))?;
    if let Part::Survivor { newrank, .. } = part {
        let off = chunk_offsets(acc.len() / elem, d.pof2, elem);
        let range = |lo, hi| off(lo)..off(hi);
        // Each halving step records the range it halved and the partner.
        let mut steps = Vec::new();
        let (mut lo, mut hi) = (0, d.pof2);
        while hi - lo > 1 {
            let half = (hi - lo) / 2;
            let mid = lo + half;
            let (partner, keep, give) = if newrank < mid {
                (newrank + half, (lo, mid), (mid, hi))
            } else {
                (newrank - half, (mid, hi), (lo, mid))
            };
            let partner = d.rank_of(partner);
            p.coll_send(info, partner, HALVING_SCATTER, &acc[range(give.0, give.1)])?;
            let kept = &mut acc[range(keep.0, keep.1)];
            let red = Some((red, partner < me));
            p.coll_recv_into(info, partner, HALVING_SCATTER, kept, red)?;
            steps.push((lo, hi, partner));
            (lo, hi) = keep;
        }
        for &(parent_lo, parent_hi, partner) in steps.iter().rev() {
            p.coll_send(info, partner, HALVING_GATHER, &acc[range(lo, hi)])?;
            let theirs = if lo == parent_lo {
                range(hi, parent_hi)
            } else {
                range(parent_lo, lo)
            };
            p.coll_recv_into(info, partner, HALVING_GATHER, &mut acc[theirs], None)?;
            (lo, hi) = (parent_lo, parent_hi);
        }
    }
    d.fold_out(p, info, acc, part)
}

/// Ring: a reduce-scatter ring then an allgather ring over `n`
/// element-aligned chunks, 2(n − 1) steps. Ring order is not rank order:
/// commutative ops only.
pub fn allreduce_ring<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    acc: &mut [u8],
    elem: usize,
    red: Reduction<V>,
) -> MpiResult<()> {
    let n = info.size();
    let me = info.my_rank as usize;
    let off = chunk_offsets(acc.len() / elem, n, elem);
    let chunk = |c| off(c)..off(c + 1);
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    for s in 0..n - 1 {
        let (send_c, recv_c) = ((me + n - s) % n, (me + n - s - 1) % n);
        p.coll_send(info, next, RING_SCATTER, &acc[chunk(send_c)])?;
        let theirs = &mut acc[chunk(recv_c)];
        p.coll_recv_into(info, prev, RING_SCATTER, theirs, Some((red, true)))?;
    }
    for s in 0..n - 1 {
        let (send_c, recv_c) = ((me + 1 + n - s) % n, (me + n - s) % n);
        p.coll_send(info, next, RING_GATHER, &acc[chunk(send_c)])?;
        p.coll_recv_into(info, prev, RING_GATHER, &mut acc[chunk(recv_c)], None)?;
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Gather / Scatter (one `block`-byte block per rank)
// ----------------------------------------------------------------------

/// Binomial tree: each rank gathers its subtree's blocks in relative
/// order and passes them to its parent; the root rotates them into place.
pub fn gather_binomial<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
    root: usize,
) -> MpiResult<()> {
    let n = info.size();
    let block = send.len();
    let rel = (info.my_rank as usize + n - root) % n;
    let (span, parent) = binomial_span(rel, n);
    // Relative blocks [rel, rel + span).
    let mut tmp = vec![0u8; block * span];
    tmp[..block].copy_from_slice(send);
    let mut mask = 1;
    while mask < span {
        let child = rel + mask;
        let child_span = mask.min(n - child);
        let from = (child + root) % n;
        let theirs = &mut tmp[block * mask..block * (mask + child_span)];
        p.coll_recv_into(info, from, BINOMIAL_GATHER, theirs, None)?;
        mask <<= 1;
    }
    match parent {
        Some(parent) => p.coll_send(info, (parent + root) % n, BINOMIAL_GATHER, &tmp),
        None => {
            for i in 0..n {
                let at = (i + root) % n * block;
                recv[at..at + block].copy_from_slice(&tmp[i * block..(i + 1) * block]);
            }
            Ok(())
        }
    }
}

/// Linear: every rank sends its block straight to the root.
pub fn gather_linear<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
    root: usize,
) -> MpiResult<()> {
    let me = info.my_rank as usize;
    let block = send.len();
    if me != root {
        return p.coll_send(info, root, LINEAR_GATHER, send);
    }
    recv[me * block..(me + 1) * block].copy_from_slice(send);
    for cr in (0..info.size()).filter(|&cr| cr != me) {
        let theirs = &mut recv[cr * block..(cr + 1) * block];
        p.coll_recv_into(info, cr, LINEAR_GATHER, theirs, None)?;
    }
    Ok(())
}

/// Binomial tree: the root packs the blocks in relative order, each rank
/// keeps its own and hands each child its subtree's, largest first.
pub fn scatter_binomial<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
    root: usize,
) -> MpiResult<()> {
    let n = info.size();
    let block = recv.len();
    let rel = (info.my_rank as usize + n - root) % n;
    let (span, parent) = binomial_span(rel, n);
    let mut tmp = vec![0u8; block * span];
    match parent {
        None => {
            for i in 0..n {
                let at = (i + root) % n * block;
                tmp[i * block..(i + 1) * block].copy_from_slice(&send[at..at + block]);
            }
        }
        Some(parent) => {
            p.coll_recv_into(info, (parent + root) % n, BINOMIAL_SCATTER, &mut tmp, None)?
        }
    }
    let mut mask = binomial_top(rel, n);
    while mask > 0 {
        let child = rel + mask;
        if child < n {
            let child_span = mask.min(n - child);
            let theirs = &tmp[block * mask..block * (mask + child_span)];
            p.coll_send(info, (child + root) % n, BINOMIAL_SCATTER, theirs)?;
        }
        mask >>= 1;
    }
    recv.copy_from_slice(&tmp[..block]);
    Ok(())
}

/// Linear: the root sends every other rank its block.
pub fn scatter_linear<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
    root: usize,
) -> MpiResult<()> {
    let me = info.my_rank as usize;
    let block = recv.len();
    if me != root {
        return p.coll_recv_into(info, root, LINEAR_SCATTER, recv, None);
    }
    for cr in (0..info.size()).filter(|&cr| cr != me) {
        let theirs = &send[cr * block..(cr + 1) * block];
        p.coll_send(info, cr, LINEAR_SCATTER, theirs)?;
    }
    recv.copy_from_slice(&send[me * block..(me + 1) * block]);
    Ok(())
}

// ----------------------------------------------------------------------
// Allgather (`send` is one block, `recv` one block per rank)
// ----------------------------------------------------------------------

/// Bruck: ⌈log₂ n⌉ rounds, in round `k` send the first `2^k` blocks
/// gathered so far to `me − 2^k`; a final rotation puts them in place.
pub fn allgather_bruck<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
) -> MpiResult<()> {
    let n = info.size();
    let me = info.my_rank as usize;
    let block = send.len();
    // tmp[i] = block of rank (me + i) % n once filled.
    let mut tmp = vec![0u8; block * n];
    tmp[..block].copy_from_slice(send);
    let (mut have, mut pof2) = (1, 1);
    while pof2 < n {
        let cnt = pof2.min(n - have);
        let to = (me + n - pof2) % n;
        p.coll_send(info, to, BRUCK_ALLGATHER, &tmp[..block * cnt])?;
        let theirs = &mut tmp[block * have..block * (have + cnt)];
        p.coll_recv_into(info, (me + pof2) % n, BRUCK_ALLGATHER, theirs, None)?;
        have += cnt;
        pof2 <<= 1;
    }
    for i in 0..n {
        let at = (me + i) % n * block;
        recv[at..at + block].copy_from_slice(&tmp[i * block..(i + 1) * block]);
    }
    Ok(())
}

/// Recursive doubling: in round `k` exchange the `2^k` aligned blocks
/// held so far with `me ^ 2^k`. Power-of-two communicators only.
pub fn allgather_doubling<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
) -> MpiResult<()> {
    let n = info.size();
    let me = info.my_rank as usize;
    let block = send.len();
    recv[me * block..(me + 1) * block].copy_from_slice(send);
    let mut mask = 1;
    while mask < n {
        let partner = me ^ mask;
        let mine = (me & !(mask - 1)) * block;
        let theirs = (partner & !(mask - 1)) * block;
        let held = &recv[mine..mine + mask * block];
        p.coll_send(info, partner, DOUBLING_ALLGATHER, held)?;
        let theirs = &mut recv[theirs..theirs + mask * block];
        p.coll_recv_into(info, partner, DOUBLING_ALLGATHER, theirs, None)?;
        mask <<= 1;
    }
    Ok(())
}

/// Ring: n − 1 steps, in step `s` pass block `me − s` to the right and
/// take block `me − s − 1` from the left.
pub fn allgather_ring<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
) -> MpiResult<()> {
    let n = info.size();
    let me = info.my_rank as usize;
    let block = send.len();
    recv[me * block..(me + 1) * block].copy_from_slice(send);
    let (right, left) = ((me + 1) % n, (me + n - 1) % n);
    for s in 0..n - 1 {
        let (send_i, recv_i) = ((me + n - s) % n, (me + n - s - 1) % n);
        let mine = &recv[send_i * block..(send_i + 1) * block];
        p.coll_send(info, right, RING_ALLGATHER, mine)?;
        let theirs = &mut recv[recv_i * block..(recv_i + 1) * block];
        p.coll_recv_into(info, left, RING_ALLGATHER, theirs, None)?;
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Alltoall (one block per destination / source)
// ----------------------------------------------------------------------

/// Bruck: rotate, ⌈log₂ n⌉ rounds that each forward the blocks whose
/// index has bit `k` set to `me + 2^k`, rotate back.
pub fn alltoall_bruck<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
) -> MpiResult<()> {
    let n = info.size();
    let me = info.my_rank as usize;
    let block = send.len() / n;
    // tmp[i] = block destined to rank (me + i) % n.
    let mut tmp = vec![0u8; block * n];
    for i in 0..n {
        let at = (me + i) % n * block;
        tmp[i * block..(i + 1) * block].copy_from_slice(&send[at..at + block]);
    }
    let mut packed = Vec::with_capacity(block * n.div_ceil(2));
    let mut pof2 = 1;
    while pof2 < n {
        let indices: Vec<usize> = (0..n).filter(|i| i & pof2 != 0).collect();
        packed.clear();
        for &i in &indices {
            packed.extend_from_slice(&tmp[i * block..(i + 1) * block]);
        }
        p.coll_send(info, (me + pof2) % n, BRUCK_ALLTOALL, &packed)?;
        let from = (me + n - pof2) % n;
        let got = p.coll_recv(info, from, BRUCK_ALLTOALL, indices.len() * block)?;
        for (k, &i) in indices.iter().enumerate() {
            tmp[i * block..(i + 1) * block].copy_from_slice(&got[k * block..(k + 1) * block]);
        }
        p.recycle(got);
        pof2 <<= 1;
    }
    // The block now at tmp[i] came from rank (me − i) % n.
    for i in 0..n {
        let at = (me + n - i) % n * block;
        recv[at..at + block].copy_from_slice(&tmp[i * block..(i + 1) * block]);
    }
    Ok(())
}

/// Posted: all n − 1 sends go out eagerly, then all receives drain.
pub fn alltoall_posted<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
) -> MpiResult<()> {
    let n = info.size();
    let me = info.my_rank as usize;
    let block = send.len() / n;
    recv[me * block..(me + 1) * block].copy_from_slice(&send[me * block..(me + 1) * block]);
    for off in 1..n {
        let dst = (me + off) % n;
        let theirs = &send[dst * block..(dst + 1) * block];
        p.coll_send(info, dst, POSTED_ALLTOALL, theirs)?;
    }
    for off in 1..n {
        let src = (me + n - off) % n;
        let theirs = &mut recv[src * block..(src + 1) * block];
        p.coll_recv_into(info, src, POSTED_ALLTOALL, theirs, None)?;
    }
    Ok(())
}

/// Pairwise exchange: n − 1 steps, in step `s` send to `me + s` and
/// receive from `me − s`.
pub fn alltoall_pairwise<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
) -> MpiResult<()> {
    let n = info.size();
    let me = info.my_rank as usize;
    let block = send.len() / n;
    recv[me * block..(me + 1) * block].copy_from_slice(&send[me * block..(me + 1) * block]);
    for step in 1..n {
        let (dst, src) = ((me + step) % n, (me + n - step) % n);
        let theirs = &send[dst * block..(dst + 1) * block];
        p.coll_send(info, dst, PAIRWISE_ALLTOALL, theirs)?;
        let theirs = &mut recv[src * block..(src + 1) * block];
        p.coll_recv_into(info, src, PAIRWISE_ALLTOALL, theirs, None)?;
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Scan
// ----------------------------------------------------------------------

/// Recursive doubling (Hillis–Steele): in round `k` pass the combination
/// of the `2^k` ranks ending at me to `me + 2^k`. Sends nothing for an
/// empty buffer (MPICH).
pub fn scan_doubling<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
    red: Reduction<V>,
) -> MpiResult<()> {
    let n = info.size();
    let me = info.my_rank as usize;
    recv.copy_from_slice(send);
    if send.is_empty() {
        return Ok(());
    }
    let mut partial = send.to_vec();
    let mut d = 1;
    while d < n {
        if me + d < n {
            p.coll_send(info, me + d, DOUBLING_SCAN, &partial)?;
        }
        if me >= d {
            // What arrives covers the ranks just below my run.
            let got = p.coll_recv(info, me - d, DOUBLING_SCAN, partial.len())?;
            p.combine_ordered(red, &mut partial, &got, true)?;
            p.combine_ordered(red, recv, &got, true)?;
            p.recycle(got);
        }
        d <<= 1;
    }
    Ok(())
}

/// Linear chain: receive the prefix of the ranks below, combine, pass on.
pub fn scan_chain<V: NativeAbi>(
    p: &mut Process<V>,
    info: &CommInfo<V>,
    send: &[u8],
    recv: &mut [u8],
    red: Reduction<V>,
) -> MpiResult<()> {
    let me = info.my_rank as usize;
    recv.copy_from_slice(send);
    if me > 0 {
        p.coll_recv_into(info, me - 1, CHAIN_SCAN, recv, Some((red, true)))?;
    }
    if me + 1 < info.size() {
        p.coll_send(info, me + 1, CHAIN_SCAN, recv)?;
    }
    Ok(())
}
