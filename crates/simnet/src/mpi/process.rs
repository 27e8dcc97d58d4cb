//! The per-rank library instance: lifecycle, point-to-point messaging,
//! requests, object management, and the transport and validation helpers
//! the collectives (`coll.rs`, `algos.rs`) are built on.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use super::abi::{MpiResult, NativeAbi, NativeStatus};
use super::algos::Reduction;
use super::kernels;
use super::objects::{
    comm_rank_of_world, CommInfo, DerivedType, ObjectStore, PostedRecv, Request, UserFn, UserOp,
};
use crate::error::SimError;
use crate::fabric::PAYLOAD_ALLOCS;
use crate::matching::{MatchCore, MatchedMsg, SrcPattern, TagPattern};
use crate::rank::RankCtx;
use crate::time::VirtualTime;

// Internal protocol tags of communicator creation (collective context;
// replies use the tag + 1). Disjoint from the collective algorithms'
// phase tags (`algos.rs`, below `0x0100`).
const CTX_TAG: i32 = 0x0200;
const SPLIT_TAG: i32 = 0x0202;

/// The most payload buffers a rank keeps for reuse.
const PAYLOAD_POOL_BUFFERS: usize = 64;
/// The most bytes of capacity a rank's pooled payload buffers hold
/// together: a 48-rank alltoall's 47 blocks of 64 KiB fit.
const PAYLOAD_POOL_BYTES: usize = 4 << 20;

/// A rank's free list of payload buffers. A send of more than
/// [`Bytes::INLINE_CAP`] bytes copies into one; a receive that copies its
/// payload out hands back a buffer it alone holds. Buffers move between
/// ranks with the messages, each with its shared header, so in steady
/// state neither a send nor a receive allocates.
#[derive(Default)]
struct PayloadPool {
    free: Vec<BytesMut>,
    /// Total capacity of `free`.
    bytes: usize,
}

impl PayloadPool {
    /// A payload holding `data`, and whether it took a new allocation.
    fn fill(&mut self, data: &[u8]) -> (Bytes, bool) {
        if data.len() <= Bytes::INLINE_CAP {
            return (Bytes::copy_from_slice(data), false);
        }
        let pooled = self.free.pop().inspect(|buf| self.bytes -= buf.capacity());
        // A buffer too small (or none) is replaced at the payload's
        // length, not grown: growing would copy its stale bytes.
        let (mut buf, miss) = match pooled {
            Some(buf) if buf.capacity() >= data.len() => (buf, false),
            _ => (BytesMut::with_capacity(data.len()), true),
        };
        buf.clear();
        buf.extend_from_slice(data);
        (buf.freeze(), miss)
    }

    /// Keep `payload`'s buffer if this handle alone holds it and the
    /// pool is under both bounds; otherwise just drop the handle.
    fn give(&mut self, payload: Bytes) {
        let Ok(buf) = payload.try_into_mut() else {
            return;
        };
        let room = self.free.len() < PAYLOAD_POOL_BUFFERS;
        if room && self.bytes + buf.capacity() <= PAYLOAD_POOL_BYTES {
            self.bytes += buf.capacity();
            self.free.push(buf);
        }
    }
}

/// The per-message software costs of a vendor's point-to-point path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2pCosts {
    /// CPU time charged on the sender per message.
    pub o_send: VirtualTime,
    /// CPU time charged on the receiver per matched message.
    pub o_recv: VirtualTime,
    /// Messages larger than this use the rendezvous protocol, which costs
    /// an extra round trip of the link latency before data flows.
    pub eager_threshold: usize,
}

/// One rank's instance of the MPI library whose native ABI and tuning
/// are `V`.
///
/// Used through native calls that mirror the C API; every error is one
/// of `V`'s native codes. Collectives run the algorithm `V`'s selection
/// table picks, from the one library in `algos.rs`.
pub struct Process<V: NativeAbi> {
    ctx: Rc<RankCtx>,
    store: V::Store,
    matcher: MatchCore<V::Arrival>,
    pool: PayloadPool,
    /// Scratch of [`Process::combine_ordered`]'s swapped-role combine.
    scratch: Vec<u8>,
    next_ctx_base: u64,
    finalized: bool,
    /// The status of the message the last truncated receive consumed.
    truncated: Cell<Option<V::Status>>,
}

impl<V: NativeAbi> Process<V> {
    /// `MPI_Init`: attach to the fabric and set up predefined objects,
    /// with `V`'s costs and arrival model.
    pub fn init(ctx: Rc<RankCtx>) -> Self {
        let store = V::Store::new(ctx.nranks(), ctx.rank());
        Process {
            ctx,
            store,
            matcher: MatchCore::with_model(V::ARRIVAL),
            pool: PayloadPool::default(),
            scratch: Vec::new(),
            // World uses 0/1, self 2/3; dynamic communicators start at 4.
            next_ctx_base: 4,
            finalized: false,
            truncated: Cell::new(None),
        }
    }

    /// Map a substrate error to a native error code.
    fn sim_err(e: SimError) -> i32 {
        match e {
            SimError::NoSuchRank { .. } => V::ERR_RANK,
            SimError::Disconnected | SimError::RankPanicked { .. } => V::ERR_SHUTDOWN,
            SimError::InvalidConfig(_) => V::ERR_OTHER,
        }
    }

    /// Library identification string.
    pub fn version(&self) -> &'static str {
        V::VERSION
    }

    /// `MPI_Finalize`.
    pub fn finalize(&mut self) -> MpiResult<()> {
        self.check_live()?;
        self.finalized = true;
        Ok(())
    }

    /// Whether `finalize` has been called.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// `MPI_Wtime` (virtual seconds).
    pub fn wtime(&self) -> f64 {
        self.ctx.now().as_secs_f64()
    }

    /// The object store (diagnostics).
    pub fn store(&self) -> &V::Store {
        &self.store
    }

    fn check_live(&self) -> MpiResult<()> {
        if self.finalized {
            Err(V::ERR_FINALIZED)
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// `MPI_Comm_size`.
    pub fn comm_size(&self, comm: V::Comm) -> MpiResult<i32> {
        Ok(self.store.comm(comm)?.size() as i32)
    }

    /// `MPI_Comm_rank`.
    pub fn comm_rank(&self, comm: V::Comm) -> MpiResult<i32> {
        Ok(self.store.comm(comm)?.my_rank)
    }

    /// Translate a communicator rank to a world rank
    /// (`MPI_Group_translate_ranks` against the world group).
    pub fn comm_translate_rank(&self, comm: V::Comm, rank: i32) -> MpiResult<i32> {
        Ok(self.store.comm(comm)?.world_of(rank)? as i32)
    }

    /// Cheap clone of communicator facts.
    fn info(&self, comm: V::Comm) -> MpiResult<CommInfo<V>> {
        self.store.comm(comm).cloned()
    }

    /// Validate a (buffer, datatype) pair; returns the element size.
    fn check_typed_buf(&self, dt: V::Datatype, len: usize) -> MpiResult<usize> {
        let size = self.store.type_size(dt)?;
        if size == 0 || !len.is_multiple_of(size) {
            return Err(V::ERR_COUNT);
        }
        Ok(size)
    }

    // ------------------------------------------------------------------
    // Internal transport primitives (shared by p2p and collectives)
    // ------------------------------------------------------------------

    fn ctx_id(info: &CommInfo<V>, coll: bool) -> u64 {
        if coll {
            info.coll_ctx()
        } else {
            info.p2p_ctx()
        }
    }

    /// Send `payload` to communicator rank `dst_cr` on the p2p or collective
    /// context. Charges the per-message sender overhead, and for messages
    /// beyond the eager threshold a rendezvous round-trip of the link.
    pub(super) fn xsend(
        &mut self,
        info: &CommInfo<V>,
        coll: bool,
        dst_cr: i32,
        tag: i32,
        payload: Bytes,
    ) -> MpiResult<()> {
        let dst_world = info.world_of(dst_cr)?;
        self.ctx.advance(V::P2P.o_send);
        if payload.len() > V::P2P.eager_threshold {
            // Rendezvous: RTS/CTS handshake before the data moves.
            let link = self.ctx.spec().link_between(self.ctx.rank(), dst_world);
            self.ctx.advance(link.alpha + link.alpha);
        }
        self.ctx
            .endpoint()
            .send_raw(dst_world, Self::ctx_id(info, coll), tag, payload, &self.ctx)
            .map_err(Self::sim_err)
    }

    /// Blocking matched receive on a communicator context. Charges arrival
    /// and the per-message receiver overhead.
    pub(super) fn xrecv(
        &mut self,
        info: &CommInfo<V>,
        coll: bool,
        src: SrcPattern,
        tag: TagPattern,
    ) -> MpiResult<MatchedMsg> {
        let got = self
            .matcher
            .match_blocking(&self.ctx, Self::ctx_id(info, coll), src, tag)
            .map_err(Self::sim_err)?;
        self.charge_receive(&got);
        Ok(got)
    }

    /// A payload holding a copy of `data`, in a recycled buffer when the
    /// pool has one; a miss counts into `fabric.payload_allocs`.
    pub(super) fn payload(&mut self, data: &[u8]) -> Bytes {
        let (payload, miss) = self.pool.fill(data);
        if miss {
            self.ctx.endpoint().count(PAYLOAD_ALLOCS);
        }
        payload
    }

    /// Hand a payload whose bytes have been copied out back to the pool.
    pub(super) fn recycle(&mut self, payload: Bytes) {
        self.pool.give(payload);
    }

    fn charge_receive(&self, got: &MatchedMsg) {
        self.ctx.advance_to(got.arrival);
        self.ctx.advance(V::P2P.o_recv);
    }

    /// Translate a communicator-rank source argument to a world selector.
    fn src_sel(info: &CommInfo<V>, src: i32) -> MpiResult<SrcPattern> {
        if src == V::ANY_SOURCE {
            Ok(SrcPattern::Any)
        } else {
            Ok(SrcPattern::Is(info.world_of(src)?))
        }
    }

    fn tag_sel(tag: i32) -> MpiResult<TagPattern> {
        if tag == V::ANY_TAG {
            Ok(TagPattern::Any)
        } else {
            Self::send_tag(tag).map(TagPattern::Is)
        }
    }

    fn send_tag(tag: i32) -> MpiResult<i32> {
        if (0..=V::TAG_UB).contains(&tag) {
            Ok(tag)
        } else {
            Err(V::ERR_TAG)
        }
    }

    /// Build the native status for a matched message.
    fn status_of(ranks: &[usize], got: &MatchedMsg) -> V::Status {
        let source = comm_rank_of_world(ranks, got.env.src).unwrap_or(V::ANY_SOURCE);
        V::Status::for_receive(source, got.env.tag, got.env.len())
    }

    /// `ERR_TRUNCATE`, keeping `status` for [`Process::take_truncated`].
    fn truncate(&self, status: V::Status) -> i32 {
        self.truncated.set(Some(status));
        V::ERR_TRUNCATE
    }

    /// The status of the message the last receive that failed with
    /// `ERR_TRUNCATE` consumed, once: MPI fills a truncated receive's
    /// `MPI_SOURCE` and `MPI_TAG` as it does a completed one's.
    pub fn take_truncated(&self) -> Option<V::Status> {
        self.truncated.take()
    }

    fn proc_null_status() -> V::Status {
        V::Status::for_receive(V::PROC_NULL, V::ANY_TAG, 0)
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// `MPI_Send`.
    pub fn send(
        &mut self,
        buf: &[u8],
        dt: V::Datatype,
        dest: i32,
        tag: i32,
        comm: V::Comm,
    ) -> MpiResult<()> {
        self.check_live()?;
        self.check_typed_buf(dt, buf.len())?;
        let tag = Self::send_tag(tag)?;
        if dest == V::PROC_NULL {
            return Ok(());
        }
        let info = self.info(comm)?;
        let payload = self.payload(buf);
        self.xsend(&info, false, dest, tag, payload)
    }

    /// `MPI_Recv`.
    pub fn recv(
        &mut self,
        buf: &mut [u8],
        dt: V::Datatype,
        src: i32,
        tag: i32,
        comm: V::Comm,
    ) -> MpiResult<V::Status> {
        self.check_live()?;
        self.check_typed_buf(dt, buf.len())?;
        let tag_sel = Self::tag_sel(tag)?;
        if src == V::PROC_NULL {
            return Ok(Self::proc_null_status());
        }
        let info = self.info(comm)?;
        let src_sel = Self::src_sel(&info, src)?;
        let got = self.xrecv(&info, false, src_sel, tag_sel)?;
        if got.env.len() > buf.len() {
            return Err(self.truncate(Self::status_of(&info.ranks, &got)));
        }
        buf[..got.env.len()].copy_from_slice(&got.env.payload);
        let status = Self::status_of(&info.ranks, &got);
        self.recycle(got.env.payload);
        Ok(status)
    }

    /// `MPI_Isend` (eager: the data leaves immediately; the request is a
    /// completion token).
    pub fn isend(
        &mut self,
        buf: &[u8],
        dt: V::Datatype,
        dest: i32,
        tag: i32,
        comm: V::Comm,
    ) -> MpiResult<V::Request> {
        self.send(buf, dt, dest, tag, comm)?;
        Ok(self.store.add_request(Request::SendDone))
    }

    /// `MPI_Irecv`.
    pub fn irecv(
        &mut self,
        max_bytes: usize,
        dt: V::Datatype,
        src: i32,
        tag: i32,
        comm: V::Comm,
    ) -> MpiResult<V::Request> {
        self.check_live()?;
        self.check_typed_buf(dt, max_bytes)?;
        let tag = Self::tag_sel(tag)?;
        if src == V::PROC_NULL {
            return Ok(self.store.add_request(Request::RecvDone {
                status: Self::proc_null_status(),
                payload: Bytes::new(),
            }));
        }
        let info = self.info(comm)?;
        let posted = PostedRecv {
            ctx_id: info.p2p_ctx(),
            src: Self::src_sel(&info, src)?,
            tag,
            max_bytes,
            ranks: info.ranks,
        };
        Ok(self.store.add_request(Request::RecvPending(posted)))
    }

    /// Deliver the message a posted receive matched.
    fn complete_recv(
        &self,
        posted: &PostedRecv,
        got: MatchedMsg,
    ) -> MpiResult<(V::Status, Option<Bytes>)> {
        self.charge_receive(&got);
        if got.env.len() > posted.max_bytes {
            return Err(self.truncate(Self::status_of(&posted.ranks, &got)));
        }
        let status = Self::status_of(&posted.ranks, &got);
        Ok((status, Some(got.env.payload)))
    }

    /// `MPI_Wait`: complete a request; receive payloads are returned.
    pub fn wait(&mut self, req: V::Request) -> MpiResult<(V::Status, Option<Bytes>)> {
        self.check_live()?;
        match self.store.take_request(req)? {
            Request::SendDone => Ok((V::Status::default(), None)),
            Request::RecvDone { status, payload } => Ok((status, Some(payload))),
            Request::RecvPending(posted) => {
                let got = self
                    .matcher
                    .match_blocking(&self.ctx, posted.ctx_id, posted.src, posted.tag)
                    .map_err(Self::sim_err)?;
                self.complete_recv(&posted, got)
            }
        }
    }

    /// `MPI_Test`.
    pub fn test(&mut self, req: V::Request) -> MpiResult<Option<(V::Status, Option<Bytes>)>> {
        self.check_live()?;
        match self.store.take_request(req)? {
            Request::SendDone => Ok(Some((V::Status::default(), None))),
            Request::RecvDone { status, payload } => Ok(Some((status, Some(payload)))),
            Request::RecvPending(posted) => {
                let got = self
                    .matcher
                    .try_match(&self.ctx, posted.ctx_id, posted.src, posted.tag)
                    .map_err(Self::sim_err)?;
                match got {
                    Some(got) => self.complete_recv(&posted, got).map(Some),
                    None => {
                        self.store
                            .put_back_request(req, Request::RecvPending(posted))?;
                        Ok(None)
                    }
                }
            }
        }
    }

    /// `MPI_Waitall`.
    pub fn waitall(&mut self, reqs: &[V::Request]) -> MpiResult<Vec<(V::Status, Option<Bytes>)>> {
        reqs.iter().map(|&r| self.wait(r)).collect()
    }

    /// `MPI_Sendrecv`.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &mut self,
        sendbuf: &[u8],
        dest: i32,
        sendtag: i32,
        recvbuf: &mut [u8],
        src: i32,
        recvtag: i32,
        dt: V::Datatype,
        comm: V::Comm,
    ) -> MpiResult<V::Status> {
        // Eager transport cannot deadlock: send first, then receive.
        self.send(sendbuf, dt, dest, sendtag, comm)?;
        self.recv(recvbuf, dt, src, recvtag, comm)
    }

    /// `MPI_Probe`.
    pub fn probe(&mut self, src: i32, tag: i32, comm: V::Comm) -> MpiResult<V::Status> {
        self.check_live()?;
        let info = self.info(comm)?;
        let src_sel = Self::src_sel(&info, src)?;
        let tag_sel = Self::tag_sel(tag)?;
        let got = self
            .matcher
            .peek_blocking(&self.ctx, info.p2p_ctx(), src_sel, tag_sel)
            .map_err(Self::sim_err)?;
        Ok(Self::status_of(&info.ranks, &got))
    }

    /// `MPI_Iprobe`.
    pub fn iprobe(&mut self, src: i32, tag: i32, comm: V::Comm) -> MpiResult<Option<V::Status>> {
        self.check_live()?;
        let info = self.info(comm)?;
        let src_sel = Self::src_sel(&info, src)?;
        let tag_sel = Self::tag_sel(tag)?;
        let got = self
            .matcher
            .try_peek(&self.ctx, info.p2p_ctx(), src_sel, tag_sel)
            .map_err(Self::sim_err)?;
        Ok(got.map(|g| Self::status_of(&info.ranks, &g)))
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// `MPI_Comm_dup` (collective over `comm`).
    pub fn comm_dup(&mut self, comm: V::Comm) -> MpiResult<V::Comm> {
        self.check_live()?;
        let info = self.info(comm)?;
        let base = self.agree_ctx_base(&info)?;
        self.next_ctx_base = base + 2;
        Ok(self
            .store
            .add_comm(CommInfo::new(base, info.ranks, info.my_rank)))
    }

    /// `MPI_Comm_split` (collective over `comm`).
    pub fn comm_split(&mut self, comm: V::Comm, color: i32, key: i32) -> MpiResult<V::Comm> {
        self.check_live()?;
        let info = self.info(comm)?;
        let base = self.agree_ctx_base(&info)?;

        // Everyone learns every member's (color, key), in parent-rank
        // order. Deterministic and simple; communicator creation is not
        // on the critical path.
        let mut mine = Vec::with_capacity(8);
        mine.extend_from_slice(&color.to_le_bytes());
        mine.extend_from_slice(&key.to_le_bytes());
        let flat = self.exchange_through_root(&info, SPLIT_TAG, mine.into(), |all| {
            Bytes::from(all.concat())
        })?;
        let int = |b: &[u8]| i32::from_le_bytes(b.try_into().expect("4 bytes"));
        let table: Vec<[i32; 2]> = flat
            .chunks_exact(8)
            .map(|ck| [int(&ck[..4]), int(&ck[4..])])
            .collect();

        // Distinct colors in sorted order; each gets ctx base + 2*index.
        let mut colors: Vec<i32> = table
            .iter()
            .map(|ck| ck[0])
            .filter(|&c| c != V::UNDEFINED)
            .collect();
        colors.sort_unstable();
        colors.dedup();
        self.next_ctx_base = base + 2 * colors.len().max(1) as u64;

        if color == V::UNDEFINED {
            return Ok(V::COMM_NULL);
        }
        let color_idx = colors.binary_search(&color).map_err(|_| V::ERR_INTERN)?;
        // Members of my color, ordered by (key, parent rank).
        let mut members: Vec<(i32, usize)> = table
            .iter()
            .enumerate()
            .filter(|(_, ck)| ck[0] == color)
            .map(|(cr, ck)| (ck[1], cr))
            .collect();
        members.sort_unstable();
        let world_ranks: Vec<usize> = members.iter().map(|&(_, cr)| info.ranks[cr]).collect();
        let me = info.my_rank as usize;
        let my_new_rank = members
            .iter()
            .position(|&(_, cr)| cr == me)
            .ok_or(V::ERR_INTERN)? as i32;
        Ok(self.store.add_comm(CommInfo::new(
            base + 2 * color_idx as u64,
            Arc::new(world_ranks),
            my_new_rank,
        )))
    }

    /// `MPI_Comm_free`.
    pub fn comm_free(&mut self, comm: V::Comm) -> MpiResult<()> {
        self.check_live()?;
        self.store.free_comm(comm)
    }

    /// Agree on a context-id base across the communicator: the maximum of
    /// every member's `next_ctx_base` (the analogue of MPICH's context-id
    /// allocation protocol).
    fn agree_ctx_base(&mut self, info: &CommInfo<V>) -> MpiResult<u64> {
        let word = |b: &Bytes| u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let mine = Bytes::copy_from_slice(&self.next_ctx_base.to_le_bytes());
        let agreed = self.exchange_through_root(info, CTX_TAG, mine, |all| {
            let max = all.iter().map(word).max().expect("own contribution");
            Bytes::copy_from_slice(&max.to_le_bytes())
        })?;
        Ok(word(&agreed))
    }

    /// Gather one contribution per member at comm rank 0, which `merge`s
    /// them (in rank order) and hands the result to everyone. Rank 0
    /// receives from ranks `1..n` in rank order, never from any source:
    /// its clock — and after its reply everyone's — must not depend on
    /// the order the host delivered the contributions. Senders are eager,
    /// so a fixed order cannot deadlock.
    fn exchange_through_root(
        &mut self,
        info: &CommInfo<V>,
        tag: i32,
        mine: Bytes,
        merge: impl FnOnce(&[Bytes]) -> Bytes,
    ) -> MpiResult<Bytes> {
        let n = info.size();
        if info.my_rank != 0 {
            self.xsend(info, true, 0, tag, mine)?;
            let root = SrcPattern::Is(info.world_of(0)?);
            return Ok(self
                .xrecv(info, true, root, TagPattern::Is(tag + 1))?
                .env
                .payload);
        }
        let mut all = vec![mine];
        for cr in 1..n {
            let src = SrcPattern::Is(info.world_of(cr as i32)?);
            all.push(
                self.xrecv(info, true, src, TagPattern::Is(tag))?
                    .env
                    .payload,
            );
        }
        let merged = merge(&all);
        for dst in 1..n {
            self.xsend(info, true, dst as i32, tag + 1, merged.clone())?;
        }
        Ok(merged)
    }

    // ------------------------------------------------------------------
    // Datatypes
    // ------------------------------------------------------------------

    /// `MPI_Type_size`.
    pub fn type_size(&self, dt: V::Datatype) -> MpiResult<usize> {
        self.store.type_size(dt)
    }

    /// `MPI_Type_contiguous`.
    pub fn type_contiguous(&mut self, count: i32, oldtype: V::Datatype) -> MpiResult<V::Datatype> {
        self.check_live()?;
        if count < 0 {
            return Err(V::ERR_COUNT);
        }
        let base_size = self.store.type_size(oldtype)?;
        Ok(self.store.add_derived(DerivedType {
            size: base_size * count as usize,
            elem: self.store.elem_kind(oldtype).ok(),
            committed: false,
        }))
    }

    /// `MPI_Type_commit`.
    pub fn type_commit(&mut self, dt: V::Datatype) -> MpiResult<()> {
        self.check_live()?;
        if V::builtin_type(dt).is_some() {
            return Ok(()); // committing a predefined type is a no-op
        }
        self.store.commit_type(dt)
    }

    /// `MPI_Type_free`.
    pub fn type_free(&mut self, dt: V::Datatype) -> MpiResult<()> {
        self.check_live()?;
        self.store.free_type(dt)
    }

    // ------------------------------------------------------------------
    // Reduction ops
    // ------------------------------------------------------------------

    /// `MPI_Op_create`.
    pub fn op_create(&mut self, func: UserFn, commute: bool) -> MpiResult<V::Op> {
        self.check_live()?;
        Ok(self.store.add_user_op(UserOp { func, commute }))
    }

    /// `MPI_Op_free`.
    pub fn op_free(&mut self, op: V::Op) -> MpiResult<()> {
        self.check_live()?;
        self.store.free_op(op)
    }

    /// Element-wise `acc = op(other, acc)` with op/datatype resolution.
    fn combine_with(&self, red: Reduction<V>, acc: &mut [u8], other: &[u8]) -> MpiResult<()> {
        if let Some(builtin) = V::builtin_op(red.op) {
            let kind = self.store.elem_kind(red.dt)?;
            return kernels::combine::<V>(builtin, kind, acc, other);
        }
        let user = self.store.user_op(red.op)?;
        if acc.len() != other.len() {
            return Err(V::ERR_COUNT);
        }
        let elem_size = self.store.type_size(red.dt)?;
        (user.func)(other, acc, elem_size);
        Ok(())
    }

    /// Charge the CPU cost of reducing `bytes` bytes.
    fn charge_reduce_cost(&self, bytes: usize) {
        let ns = bytes as f64 / V::REDUCE_BYTES_PER_NS;
        self.ctx.advance(VirtualTime::from_nanos(ns as u64));
    }

    // ------------------------------------------------------------------
    // What the collectives share
    // ------------------------------------------------------------------

    /// Validate a collective's communicator and (buffer, datatype) pair;
    /// returns the communicator facts and the element size.
    pub(super) fn validate_coll(
        &self,
        comm: V::Comm,
        dt: V::Datatype,
        buf_len: usize,
    ) -> MpiResult<(CommInfo<V>, usize)> {
        self.check_live()?;
        let info = self.info(comm)?;
        let elem = self.check_typed_buf(dt, buf_len)?;
        Ok((info, elem))
    }

    /// Validate a root argument; returns it as a communicator rank.
    pub(super) fn validate_root(info: &CommInfo<V>, root: i32) -> MpiResult<usize> {
        if root < 0 || root as usize >= info.size() {
            Err(V::ERR_ROOT)
        } else {
            Ok(root as usize)
        }
    }

    /// Validate a reduction-op handle; returns whether the op commutes
    /// (every predefined op does).
    pub(super) fn validate_op(&self, op: V::Op) -> MpiResult<bool> {
        if V::builtin_op(op).is_some() {
            Ok(true)
        } else {
            self.store.user_op(op).map(|user| user.commute)
        }
    }

    /// Ordered combine: `acc = lower op higher` where `other_first` says the
    /// incoming data precedes `acc` in rank order. Charges reduction CPU.
    pub(super) fn combine_ordered(
        &mut self,
        red: Reduction<V>,
        acc: &mut [u8],
        other: &[u8],
        other_first: bool,
    ) -> MpiResult<()> {
        self.charge_reduce_cost(acc.len());
        if other_first {
            self.combine_with(red, acc, other)
        } else {
            // acc op other: run the user/builtin fn with roles swapped,
            // in the rank's scratch buffer.
            let mut tmp = std::mem::take(&mut self.scratch);
            tmp.clear();
            tmp.extend_from_slice(other);
            let done = self.combine_with(red, &mut tmp, acc);
            self.scratch = tmp;
            done.map(|()| acc.copy_from_slice(&self.scratch))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pool_never_exceeds_its_bounds() {
        let mut pool = PayloadPool::default();
        for _ in 0..2 * PAYLOAD_POOL_BUFFERS {
            pool.give(Bytes::from(vec![1u8; 1024]));
            assert!(pool.free.len() <= PAYLOAD_POOL_BUFFERS);
        }
        assert_eq!(pool.free.len(), PAYLOAD_POOL_BUFFERS);

        let mut pool = PayloadPool::default();
        let big = PAYLOAD_POOL_BYTES / 3;
        for _ in 0..5 {
            pool.give(Bytes::from(vec![2u8; big]));
            assert!(pool.bytes <= PAYLOAD_POOL_BYTES);
            assert_eq!(pool.bytes, pool.free.iter().map(BytesMut::capacity).sum());
        }
        assert_eq!(pool.free.len(), 3);
    }

    #[test]
    fn a_fanned_out_payload_is_recycled_only_by_its_last_holder() {
        let mut pool = PayloadPool::default();
        let (sent, miss) = pool.fill(&[7u8; 1000]);
        assert!(miss, "an empty pool allocates");
        let clone = sent.clone();
        pool.give(sent);
        assert!(pool.free.is_empty(), "a clone still holds the buffer");
        assert_eq!(&clone[..], &[7u8; 1000][..], "and its bytes are intact");
        let ptr = clone.as_ptr();
        pool.give(clone);
        assert_eq!(pool.free.len(), 1);

        let (again, miss) = pool.fill(&[9u8; 800]);
        assert!(!miss);
        assert_eq!(again.as_ptr(), ptr, "the next send reuses the buffer");
        assert_eq!(&again[..], &[9u8; 800][..]);
    }

    #[test]
    fn inline_payloads_skip_the_pool_and_small_buffers_are_replaced() {
        let mut pool = PayloadPool::default();
        let (small, miss) = pool.fill(&[1u8; Bytes::INLINE_CAP]);
        assert!(!miss && small.is_inline());
        pool.give(small);
        assert!(pool.free.is_empty());

        let (short, _) = pool.fill(&[0u8; 100]);
        let short_ptr = short.as_ptr();
        pool.give(short);
        let (fresh, miss) = pool.fill(&[3u8; 200]);
        assert!(miss, "a buffer too small for the payload is a miss");
        assert_ne!(fresh.as_ptr(), short_ptr, "and is replaced, not grown");
        assert!(pool.free.is_empty() && pool.bytes == 0);
        assert_eq!(&fresh[..], &[3u8; 200][..]);
        pool.give(fresh);
        assert_eq!(pool.bytes, 200, "the replacement is sized to the payload");
    }
}
