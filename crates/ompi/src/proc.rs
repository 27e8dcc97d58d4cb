//! The per-rank library instance: lifecycle, point-to-point messaging, and
//! object management. Collective algorithms live in [`crate::coll`].

use std::rc::Rc;

use bytes::Bytes;

use simnet::{RankCtx, SimError, VirtualTime};

use crate::engine::{Progress, Pulled, Want, WantTag};
use crate::kernels;
use crate::objects::{comm_rank_of_world, CommRec, Heap, OmpiUserFn, OpRec, ReqRec, TypeRec};
use crate::ompi_h::{self, MpiComm, MpiDatatype, MpiOp, MpiRequest, MpiStatus, OmpiResult};
use crate::tuning::Tuning;

/// Map a substrate error to a native error code.
pub(crate) fn sim_err(e: SimError) -> i32 {
    match e {
        SimError::NoSuchRank { .. } => ompi_h::MPI_ERR_RANK,
        SimError::PeerFailed { .. } | SimError::SelfFailed => ompi_h::MPI_ERR_PROC_FAILED,
        SimError::Disconnected | SimError::RankPanicked { .. } => ompi_h::MPI_ERR_SHUTDOWN,
        SimError::InvalidConfig(_) => ompi_h::MPI_ERR_OTHER,
    }
}

/// One rank's instance of the Open MPI-flavoured library.
pub struct OmpiProcess {
    pub(crate) ctx: Rc<RankCtx>,
    pub(crate) tuning: Tuning,
    pub(crate) heap: Heap,
    pub(crate) progress: Progress,
    pub(crate) next_ctx_base: u64,
    pub(crate) finalized: bool,
}

impl OmpiProcess {
    /// `MPI_Init`.
    pub fn init(ctx: Rc<RankCtx>) -> OmpiProcess {
        Self::init_with_tuning(ctx, Tuning::default())
    }

    /// `MPI_Init` with explicit tuning.
    pub fn init_with_tuning(ctx: Rc<RankCtx>, tuning: Tuning) -> OmpiProcess {
        let heap = Heap::new(ctx.nranks(), ctx.rank());
        OmpiProcess {
            ctx,
            tuning,
            heap,
            progress: Progress::new(),
            next_ctx_base: 4,
            finalized: false,
        }
    }

    /// Library identification string.
    pub fn version(&self) -> &'static str {
        Tuning::VERSION
    }

    /// `MPI_Finalize`.
    pub fn finalize(&mut self) -> OmpiResult<()> {
        if self.finalized {
            return Err(ompi_h::MPI_ERR_FINALIZED);
        }
        self.finalized = true;
        Ok(())
    }

    /// Whether finalized.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// `MPI_Wtime` (virtual seconds).
    pub fn wtime(&self) -> f64 {
        self.ctx.now().as_secs_f64()
    }

    /// The rank context.
    pub fn rank_ctx(&self) -> &Rc<RankCtx> {
        &self.ctx
    }

    fn check_live(&self) -> OmpiResult<()> {
        if self.finalized {
            Err(ompi_h::MPI_ERR_FINALIZED)
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// `MPI_Comm_size`.
    pub fn comm_size(&self, comm: MpiComm) -> OmpiResult<i32> {
        Ok(self.heap.comm(comm)?.size() as i32)
    }

    /// `MPI_Comm_rank`.
    pub fn comm_rank(&self, comm: MpiComm) -> OmpiResult<i32> {
        Ok(self.heap.comm(comm)?.my_rank)
    }

    /// Translate a communicator rank to a world rank.
    pub fn comm_translate_rank(&self, comm: MpiComm, rank: i32) -> OmpiResult<i32> {
        Ok(self.heap.comm(comm)?.world_of(rank)? as i32)
    }

    pub(crate) fn rec(&self, comm: MpiComm) -> OmpiResult<CommRec> {
        self.heap.comm(comm).cloned()
    }

    pub(crate) fn check_typed_buf(&self, dt: MpiDatatype, len: usize) -> OmpiResult<usize> {
        let size = self.heap.type_size(dt)?;
        if size == 0 || !len.is_multiple_of(size) {
            return Err(ompi_h::MPI_ERR_COUNT);
        }
        Ok(size)
    }

    // ------------------------------------------------------------------
    // Internal transport primitives
    // ------------------------------------------------------------------

    pub(crate) fn xsend(
        &mut self,
        rec: &CommRec,
        coll: bool,
        dst_cr: i32,
        tag: i32,
        payload: Bytes,
    ) -> OmpiResult<()> {
        let dst_world = rec.world_of(dst_cr)?;
        self.ctx.advance(self.tuning.o_send);
        if payload.len() > self.tuning.eager_threshold {
            let link = self.ctx.spec().link_between(self.ctx.rank(), dst_world);
            self.ctx.advance(link.alpha + link.alpha);
        }
        let ctx_id = if coll { rec.coll_ctx() } else { rec.p2p_ctx() };
        self.ctx
            .endpoint()
            .send_raw(dst_world, ctx_id, tag, payload, &self.ctx)
            .map_err(sim_err)
    }

    pub(crate) fn xrecv(
        &mut self,
        rec: &CommRec,
        coll: bool,
        src: Want,
        tag: WantTag,
    ) -> OmpiResult<Pulled> {
        let ctx_id = if coll { rec.coll_ctx() } else { rec.p2p_ctx() };
        let got = self
            .progress
            .match_wait(&self.ctx, ctx_id, src, tag)
            .map_err(sim_err)?;
        self.ctx.advance_to(got.arrival);
        self.ctx.advance(self.tuning.o_recv);
        Ok(got)
    }

    fn src_sel(&self, rec: &CommRec, src: i32) -> OmpiResult<Want> {
        if src == ompi_h::MPI_ANY_SOURCE {
            Ok(Want::AnySrc)
        } else {
            Ok(Want::Src(rec.world_of(src)?))
        }
    }

    fn tag_sel(tag: i32) -> OmpiResult<WantTag> {
        if tag == ompi_h::MPI_ANY_TAG {
            Ok(WantTag::AnyTag)
        } else if (0..=ompi_h::MPI_TAG_UB).contains(&tag) {
            Ok(WantTag::Tag(tag))
        } else {
            Err(ompi_h::MPI_ERR_TAG)
        }
    }

    fn send_tag(tag: i32) -> OmpiResult<i32> {
        if (0..=ompi_h::MPI_TAG_UB).contains(&tag) {
            Ok(tag)
        } else {
            Err(ompi_h::MPI_ERR_TAG)
        }
    }

    fn status_of(&self, rec: &CommRec, got: &Pulled) -> MpiStatus {
        let source = rec
            .comm_rank_of_world(got.env.src)
            .unwrap_or(ompi_h::MPI_ANY_SOURCE);
        MpiStatus::for_receive(source, got.env.tag, got.env.len())
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// `MPI_Send`.
    pub fn send(
        &mut self,
        buf: &[u8],
        dt: MpiDatatype,
        dest: i32,
        tag: i32,
        comm: MpiComm,
    ) -> OmpiResult<()> {
        self.check_live()?;
        self.check_typed_buf(dt, buf.len())?;
        let tag = Self::send_tag(tag)?;
        if dest == ompi_h::MPI_PROC_NULL {
            return Ok(());
        }
        let rec = self.rec(comm)?;
        self.xsend(&rec, false, dest, tag, Bytes::copy_from_slice(buf))
    }

    /// `MPI_Recv`.
    pub fn recv(
        &mut self,
        buf: &mut [u8],
        dt: MpiDatatype,
        src: i32,
        tag: i32,
        comm: MpiComm,
    ) -> OmpiResult<MpiStatus> {
        self.check_live()?;
        self.check_typed_buf(dt, buf.len())?;
        let tag_sel = Self::tag_sel(tag)?;
        if src == ompi_h::MPI_PROC_NULL {
            return Ok(MpiStatus::for_receive(
                ompi_h::MPI_PROC_NULL,
                ompi_h::MPI_ANY_TAG,
                0,
            ));
        }
        let rec = self.rec(comm)?;
        let src_sel = self.src_sel(&rec, src)?;
        let got = self.xrecv(&rec, false, src_sel, tag_sel)?;
        if got.env.len() > buf.len() {
            return Err(ompi_h::MPI_ERR_TRUNCATE);
        }
        buf[..got.env.len()].copy_from_slice(&got.env.payload);
        Ok(self.status_of(&rec, &got))
    }

    /// `MPI_Isend`.
    pub fn isend(
        &mut self,
        buf: &[u8],
        dt: MpiDatatype,
        dest: i32,
        tag: i32,
        comm: MpiComm,
    ) -> OmpiResult<MpiRequest> {
        self.check_live()?;
        self.check_typed_buf(dt, buf.len())?;
        let tag = Self::send_tag(tag)?;
        if dest != ompi_h::MPI_PROC_NULL {
            let rec = self.rec(comm)?;
            self.xsend(&rec, false, dest, tag, Bytes::copy_from_slice(buf))?;
        }
        Ok(self.heap.add_request(ReqRec::SendDone))
    }

    /// `MPI_Irecv`.
    pub fn irecv(
        &mut self,
        max_bytes: usize,
        dt: MpiDatatype,
        src: i32,
        tag: i32,
        comm: MpiComm,
    ) -> OmpiResult<MpiRequest> {
        self.check_live()?;
        self.check_typed_buf(dt, max_bytes)?;
        let tag_sel = Self::tag_sel(tag)?;
        if src == ompi_h::MPI_PROC_NULL {
            return Ok(self.heap.add_request(ReqRec::RecvDone {
                status: MpiStatus::for_receive(ompi_h::MPI_PROC_NULL, ompi_h::MPI_ANY_TAG, 0),
                payload: Bytes::new(),
            }));
        }
        let rec = self.rec(comm)?;
        let src_world = match self.src_sel(&rec, src)? {
            Want::AnySrc => None,
            Want::Src(w) => Some(w),
        };
        let tag_opt = match tag_sel {
            WantTag::AnyTag => None,
            WantTag::Tag(t) => Some(t),
        };
        Ok(self.heap.add_request(ReqRec::RecvPending {
            ctx_id: rec.p2p_ctx(),
            src_world,
            tag: tag_opt,
            max_bytes,
            ranks: rec.ranks.clone(),
        }))
    }

    /// `MPI_Wait`.
    pub fn wait(&mut self, req: MpiRequest) -> OmpiResult<(MpiStatus, Option<Bytes>)> {
        self.check_live()?;
        match self.heap.take_request(req)? {
            ReqRec::SendDone => Ok((MpiStatus::default(), None)),
            ReqRec::RecvDone { status, payload } => Ok((status, Some(payload))),
            ReqRec::RecvPending {
                ctx_id,
                src_world,
                tag,
                max_bytes,
                ranks,
            } => {
                let src = src_world.map_or(Want::AnySrc, Want::Src);
                let tag_sel = tag.map_or(WantTag::AnyTag, WantTag::Tag);
                let got = self
                    .progress
                    .match_wait(&self.ctx, ctx_id, src, tag_sel)
                    .map_err(sim_err)?;
                self.ctx.advance_to(got.arrival);
                self.ctx.advance(self.tuning.o_recv);
                if got.env.len() > max_bytes {
                    return Err(ompi_h::MPI_ERR_TRUNCATE);
                }
                let source =
                    comm_rank_of_world(&ranks, got.env.src).unwrap_or(ompi_h::MPI_ANY_SOURCE);
                Ok((
                    MpiStatus::for_receive(source, got.env.tag, got.env.len()),
                    Some(got.env.payload),
                ))
            }
        }
    }

    /// `MPI_Test`.
    pub fn test(&mut self, req: MpiRequest) -> OmpiResult<Option<(MpiStatus, Option<Bytes>)>> {
        self.check_live()?;
        match self.heap.take_request(req)? {
            ReqRec::SendDone => Ok(Some((MpiStatus::default(), None))),
            ReqRec::RecvDone { status, payload } => Ok(Some((status, Some(payload)))),
            pending @ ReqRec::RecvPending { .. } => {
                let (ctx_id, src, tag_sel, max_bytes, ranks) = match &pending {
                    ReqRec::RecvPending {
                        ctx_id,
                        src_world,
                        tag,
                        max_bytes,
                        ranks,
                    } => (
                        *ctx_id,
                        src_world.map_or(Want::AnySrc, Want::Src),
                        tag.map_or(WantTag::AnyTag, WantTag::Tag),
                        *max_bytes,
                        ranks.clone(),
                    ),
                    _ => unreachable!(),
                };
                match self
                    .progress
                    .try_match(&self.ctx, ctx_id, src, tag_sel)
                    .map_err(sim_err)?
                {
                    None => {
                        self.heap.put_back_request(req, pending)?;
                        Ok(None)
                    }
                    Some(got) => {
                        self.ctx.advance_to(got.arrival);
                        self.ctx.advance(self.tuning.o_recv);
                        if got.env.len() > max_bytes {
                            return Err(ompi_h::MPI_ERR_TRUNCATE);
                        }
                        let source = comm_rank_of_world(&ranks, got.env.src)
                            .unwrap_or(ompi_h::MPI_ANY_SOURCE);
                        Ok(Some((
                            MpiStatus::for_receive(source, got.env.tag, got.env.len()),
                            Some(got.env.payload),
                        )))
                    }
                }
            }
        }
    }

    /// `MPI_Waitall`.
    pub fn waitall(&mut self, reqs: &[MpiRequest]) -> OmpiResult<Vec<(MpiStatus, Option<Bytes>)>> {
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
        dt: MpiDatatype,
        comm: MpiComm,
    ) -> OmpiResult<MpiStatus> {
        self.send(sendbuf, dt, dest, sendtag, comm)?;
        self.recv(recvbuf, dt, src, recvtag, comm)
    }

    /// `MPI_Probe`.
    pub fn probe(&mut self, src: i32, tag: i32, comm: MpiComm) -> OmpiResult<MpiStatus> {
        self.check_live()?;
        let rec = self.rec(comm)?;
        let src_sel = self.src_sel(&rec, src)?;
        let tag_sel = Self::tag_sel(tag)?;
        let got = self
            .progress
            .peek_wait(&self.ctx, rec.p2p_ctx(), src_sel, tag_sel)
            .map_err(sim_err)?;
        Ok(self.status_of(&rec, &got))
    }

    /// `MPI_Iprobe`.
    pub fn iprobe(&mut self, src: i32, tag: i32, comm: MpiComm) -> OmpiResult<Option<MpiStatus>> {
        self.check_live()?;
        let rec = self.rec(comm)?;
        let src_sel = self.src_sel(&rec, src)?;
        let tag_sel = Self::tag_sel(tag)?;
        let got = self
            .progress
            .try_peek(&self.ctx, rec.p2p_ctx(), src_sel, tag_sel)
            .map_err(sim_err)?;
        Ok(got.map(|g| self.status_of(&rec, &g)))
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// `MPI_Comm_dup` (collective).
    pub fn comm_dup(&mut self, comm: MpiComm) -> OmpiResult<MpiComm> {
        self.check_live()?;
        let rec = self.rec(comm)?;
        let base = self.agree_ctx_base(&rec)?;
        self.next_ctx_base = base + 2;
        Ok(self.heap.add_comm(CommRec {
            ctx_base: base,
            ranks: rec.ranks.clone(),
            my_rank: rec.my_rank,
        }))
    }

    /// `MPI_Comm_split` (collective).
    pub fn comm_split(&mut self, comm: MpiComm, color: i32, key: i32) -> OmpiResult<MpiComm> {
        self.check_live()?;
        let rec = self.rec(comm)?;
        let base = self.agree_ctx_base(&rec)?;
        let n = rec.size();
        let me = rec.my_rank as usize;
        const SPLIT_TAG: i32 = 0x0300;
        let mut table: Vec<[i32; 2]> = vec![[0; 2]; n];
        if me == 0 {
            table[0] = [color, key];
            for _ in 1..n {
                let got = self.xrecv(&rec, true, Want::AnySrc, WantTag::Tag(SPLIT_TAG))?;
                let cr = rec
                    .comm_rank_of_world(got.env.src)
                    .ok_or(ompi_h::MPI_ERR_INTERN)? as usize;
                table[cr] = [
                    i32::from_le_bytes(got.env.payload[0..4].try_into().unwrap()),
                    i32::from_le_bytes(got.env.payload[4..8].try_into().unwrap()),
                ];
            }
            let mut flat = Vec::with_capacity(n * 8);
            for ck in &table {
                flat.extend_from_slice(&ck[0].to_le_bytes());
                flat.extend_from_slice(&ck[1].to_le_bytes());
            }
            let payload = Bytes::from(flat);
            for dst in 1..n {
                self.xsend(&rec, true, dst as i32, SPLIT_TAG + 1, payload.clone())?;
            }
        } else {
            let mut mine = Vec::with_capacity(8);
            mine.extend_from_slice(&color.to_le_bytes());
            mine.extend_from_slice(&key.to_le_bytes());
            self.xsend(&rec, true, 0, SPLIT_TAG, Bytes::from(mine))?;
            let got = self.xrecv(
                &rec,
                true,
                Want::Src(rec.world_of(0)?),
                WantTag::Tag(SPLIT_TAG + 1),
            )?;
            for (cr, chunk) in got.env.payload.chunks_exact(8).enumerate() {
                table[cr] = [
                    i32::from_le_bytes(chunk[0..4].try_into().unwrap()),
                    i32::from_le_bytes(chunk[4..8].try_into().unwrap()),
                ];
            }
        }

        let mut colors: Vec<i32> = table
            .iter()
            .map(|ck| ck[0])
            .filter(|&c| c != ompi_h::MPI_UNDEFINED)
            .collect();
        colors.sort_unstable();
        colors.dedup();
        self.next_ctx_base = base + 2 * colors.len().max(1) as u64;
        if color == ompi_h::MPI_UNDEFINED {
            return Ok(ompi_h::MPI_COMM_NULL);
        }
        let color_idx = colors
            .binary_search(&color)
            .map_err(|_| ompi_h::MPI_ERR_INTERN)?;
        let mut members: Vec<(i32, usize)> = table
            .iter()
            .enumerate()
            .filter(|(_, ck)| ck[0] == color)
            .map(|(cr, ck)| (ck[1], cr))
            .collect();
        members.sort_unstable();
        let world_ranks: Vec<usize> = members.iter().map(|&(_, cr)| rec.ranks[cr]).collect();
        let my_new_rank = members
            .iter()
            .position(|&(_, cr)| cr == me)
            .ok_or(ompi_h::MPI_ERR_INTERN)? as i32;
        Ok(self.heap.add_comm(CommRec {
            ctx_base: base + 2 * color_idx as u64,
            ranks: std::sync::Arc::new(world_ranks),
            my_rank: my_new_rank,
        }))
    }

    /// `MPI_Comm_free`.
    pub fn comm_free(&mut self, comm: MpiComm) -> OmpiResult<()> {
        self.check_live()?;
        self.heap.free_comm(comm)
    }

    fn agree_ctx_base(&mut self, rec: &CommRec) -> OmpiResult<u64> {
        const CTX_TAG: i32 = 0x0301;
        let n = rec.size();
        let me = rec.my_rank as usize;
        let mut agreed = self.next_ctx_base;
        if n == 1 {
            return Ok(agreed);
        }
        if me == 0 {
            for _ in 1..n {
                let got = self.xrecv(rec, true, Want::AnySrc, WantTag::Tag(CTX_TAG))?;
                agreed = agreed.max(u64::from_le_bytes(got.env.payload[..8].try_into().unwrap()));
            }
            let payload = Bytes::copy_from_slice(&agreed.to_le_bytes());
            for dst in 1..n {
                self.xsend(rec, true, dst as i32, CTX_TAG + 1, payload.clone())?;
            }
        } else {
            self.xsend(
                rec,
                true,
                0,
                CTX_TAG,
                Bytes::copy_from_slice(&self.next_ctx_base.to_le_bytes()),
            )?;
            let got = self.xrecv(
                rec,
                true,
                Want::Src(rec.world_of(0)?),
                WantTag::Tag(CTX_TAG + 1),
            )?;
            agreed = u64::from_le_bytes(got.env.payload[..8].try_into().unwrap());
        }
        Ok(agreed)
    }

    // ------------------------------------------------------------------
    // Datatypes & ops
    // ------------------------------------------------------------------

    /// `MPI_Type_size`.
    pub fn type_size(&self, dt: MpiDatatype) -> OmpiResult<usize> {
        self.heap.type_size(dt)
    }

    /// `MPI_Type_contiguous`.
    pub fn type_contiguous(&mut self, count: i32, oldtype: MpiDatatype) -> OmpiResult<MpiDatatype> {
        self.check_live()?;
        if count < 0 {
            return Err(ompi_h::MPI_ERR_COUNT);
        }
        let base_size = self.heap.type_size(oldtype)?;
        let elem = kernels::ElemKind::of_builtin(oldtype)
            .or_else(|| self.heap.derived(oldtype).ok().and_then(|t| t.elem));
        Ok(self.heap.add_type(TypeRec {
            size: base_size * count as usize,
            elem,
            committed: false,
        }))
    }

    /// `MPI_Type_commit`.
    pub fn type_commit(&mut self, dt: MpiDatatype) -> OmpiResult<()> {
        self.check_live()?;
        if ompi_h::PREDEFINED_DATATYPES.iter().any(|(h, _)| *h == dt) {
            return Ok(());
        }
        self.heap.commit_type(dt)
    }

    /// `MPI_Type_free`.
    pub fn type_free(&mut self, dt: MpiDatatype) -> OmpiResult<()> {
        self.check_live()?;
        self.heap.free_type(dt)
    }

    /// `MPI_Op_create`.
    pub fn op_create(&mut self, func: OmpiUserFn, commute: bool) -> OmpiResult<MpiOp> {
        self.check_live()?;
        Ok(self.heap.add_op(OpRec { func, commute }))
    }

    /// `MPI_Op_free`.
    pub fn op_free(&mut self, op: MpiOp) -> OmpiResult<()> {
        self.check_live()?;
        self.heap.free_op(op)
    }

    pub(crate) fn combine_with(
        &self,
        op: MpiOp,
        dt: MpiDatatype,
        acc: &mut [u8],
        other: &[u8],
    ) -> OmpiResult<()> {
        if Heap::is_builtin_op(op) {
            let kind = self.heap.elem_kind(dt)?;
            kernels::combine(op, kind, acc, other)
        } else {
            let rec = self.heap.user_op(op)?;
            if acc.len() != other.len() {
                return Err(ompi_h::MPI_ERR_COUNT);
            }
            let elem_size = self.heap.type_size(dt)?;
            (rec.func)(other, acc, elem_size);
            Ok(())
        }
    }

    pub(crate) fn charge_reduce_cost(&self, bytes: usize) {
        // Slightly faster combine loop than the MPICH flavour (different
        // compiler flags in the fiction; a real vendor-to-vendor delta).
        let ns = bytes as f64 / 1.8;
        self.ctx.compute(VirtualTime::from_nanos(ns as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{ClusterSpec, World};

    fn run_world<R: Send>(
        nranks: usize,
        f: impl Fn(&mut OmpiProcess) -> OmpiResult<R> + Sync,
    ) -> Vec<R> {
        let spec = ClusterSpec::builder()
            .nodes(1)
            .ranks_per_node(nranks)
            .build();
        World::run(&spec, |ctx| {
            let mut p = OmpiProcess::init(ctx);
            f(&mut p)
                .map_err(|code| simnet::SimError::InvalidConfig(format!("native error {code}")))
        })
        .unwrap()
        .results
    }

    #[test]
    fn ring_with_pointer_handles() {
        let out = run_world(4, |p| {
            let n = p.comm_size(ompi_h::MPI_COMM_WORLD)?;
            let me = p.comm_rank(ompi_h::MPI_COMM_WORLD)?;
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;
            p.send(
                &me.to_le_bytes(),
                ompi_h::MPI_INT,
                next,
                3,
                ompi_h::MPI_COMM_WORLD,
            )?;
            let mut buf = [0u8; 4];
            let st = p.recv(&mut buf, ompi_h::MPI_INT, prev, 3, ompi_h::MPI_COMM_WORLD)?;
            assert_eq!(st.mpi_source, prev);
            assert_eq!(st.count_bytes(), 4);
            Ok(i32::from_le_bytes(buf))
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn proc_null_uses_ompi_value() {
        run_world(1, |p| {
            // −2 is PROC_NULL here (it is ANY_SOURCE in the MPICH flavour!).
            p.send(
                &[0u8; 4],
                ompi_h::MPI_INT,
                ompi_h::MPI_PROC_NULL,
                0,
                ompi_h::MPI_COMM_WORLD,
            )?;
            let mut b = [0u8; 4];
            let st = p.recv(
                &mut b,
                ompi_h::MPI_INT,
                ompi_h::MPI_PROC_NULL,
                0,
                ompi_h::MPI_COMM_WORLD,
            )?;
            assert_eq!(st.mpi_source, ompi_h::MPI_PROC_NULL);
            Ok(())
        });
    }

    #[test]
    fn nonblocking_and_test() {
        let out = run_world(2, |p| {
            let me = p.comm_rank(ompi_h::MPI_COMM_WORLD)?;
            let other = 1 - me;
            let r = p.irecv(4, ompi_h::MPI_INT, other, 0, ompi_h::MPI_COMM_WORLD)?;
            p.send(
                &me.to_le_bytes(),
                ompi_h::MPI_INT,
                other,
                0,
                ompi_h::MPI_COMM_WORLD,
            )?;
            // Spin on test until completion.
            loop {
                if let Some((st, data)) = p.test(r)? {
                    assert_eq!(st.mpi_source, other);
                    return Ok(i32::from_le_bytes(data.unwrap()[..].try_into().unwrap()));
                }
            }
        });
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn comm_split_with_ompi_undefined() {
        let out = run_world(4, |p| {
            let me = p.comm_rank(ompi_h::MPI_COMM_WORLD)?;
            let color = if me == 0 {
                ompi_h::MPI_UNDEFINED
            } else {
                me % 2
            };
            let sub = p.comm_split(ompi_h::MPI_COMM_WORLD, color, -me)?;
            if sub == ompi_h::MPI_COMM_NULL {
                return Ok((-1, -1));
            }
            // Negative keys reverse the order within each color.
            Ok((p.comm_rank(sub)?, p.comm_size(sub)?))
        });
        assert_eq!(out[0], (-1, -1));
        // color 0: rank 2 only (me%2==0 for me=2). color 1: ranks 1,3 with
        // keys -1,-3 => rank 3 first.
        assert_eq!(out[2], (0, 1));
        assert_eq!(out[1], (1, 2));
        assert_eq!(out[3], (0, 2));
    }

    #[test]
    fn truncation_error_value_is_ompis() {
        let out = run_world(2, |p| {
            let me = p.comm_rank(ompi_h::MPI_COMM_WORLD)?;
            if me == 0 {
                p.send(&[0u8; 16], ompi_h::MPI_BYTE, 1, 0, ompi_h::MPI_COMM_WORLD)?;
                Ok(0)
            } else {
                let mut small = [0u8; 4];
                Ok(
                    p.recv(&mut small, ompi_h::MPI_BYTE, 0, 0, ompi_h::MPI_COMM_WORLD)
                        .unwrap_err(),
                )
            }
        });
        assert_eq!(out[1], ompi_h::MPI_ERR_TRUNCATE);
    }

    #[test]
    fn wtime_and_version() {
        run_world(1, |p| {
            assert!(p.version().contains("ompi-sim"));
            assert!(p.wtime() >= 0.0);
            Ok(())
        });
    }
}
