//! The per-rank library instance: lifecycle, point-to-point messaging, and
//! object management. Collective algorithms live in [`crate::coll`].

use std::rc::Rc;

use bytes::Bytes;

use simnet::{RankCtx, SimError, VirtualTime};

use crate::engine::{Arrived, MatchEngine, SrcSel, TagSel};
use crate::kernels;
use crate::mpih::{self, MpiComm, MpiDatatype, MpiOp, MpiRequest, MpiStatus, MpichResult};
use crate::objects::{
    comm_rank_of_world, CommInfo, DerivedType, MpichUserFn, RequestObj, Tables, UserOp,
};
use crate::tuning::Tuning;

/// Map a substrate error to a native MPICH-flavour error code.
pub(crate) fn sim_err(e: SimError) -> i32 {
    match e {
        SimError::NoSuchRank { .. } => mpih::MPI_ERR_RANK,
        SimError::PeerFailed { .. } | SimError::SelfFailed => mpih::MPI_ERR_PROC_FAILED,
        SimError::Disconnected | SimError::RankPanicked { .. } => mpih::MPI_ERR_SHUTDOWN,
        SimError::InvalidConfig(_) => mpih::MPI_ERR_OTHER,
    }
}

/// One rank's instance of the MPICH-flavoured library.
///
/// Constructed by `init` (the analogue of `MPI_Init`), used through native
/// calls that mirror the C API, destroyed by `finalize` + drop.
pub struct MpichProcess {
    pub(crate) ctx: Rc<RankCtx>,
    pub(crate) tuning: Tuning,
    pub(crate) tables: Tables,
    pub(crate) engine: MatchEngine,
    pub(crate) next_ctx_base: u64,
    pub(crate) finalized: bool,
}

impl MpichProcess {
    /// `MPI_Init`: attach to the fabric and set up predefined objects.
    pub fn init(ctx: Rc<RankCtx>) -> MpichProcess {
        Self::init_with_tuning(ctx, Tuning::default())
    }

    /// `MPI_Init` with explicit tuning (used by ablation benchmarks).
    pub fn init_with_tuning(ctx: Rc<RankCtx>, tuning: Tuning) -> MpichProcess {
        let tables = Tables::new(ctx.nranks(), ctx.rank());
        MpichProcess {
            ctx,
            tuning,
            tables,
            engine: MatchEngine::with_sock_latency(
                tuning.sock_small_latency,
                tuning.sock_small_max,
            ),
            // World uses 0/1, self 2/3; dynamic communicators start at 4.
            next_ctx_base: 4,
            finalized: false,
        }
    }

    /// Library identification string.
    pub fn version(&self) -> &'static str {
        Tuning::VERSION
    }

    /// `MPI_Finalize`.
    pub fn finalize(&mut self) -> MpichResult<()> {
        if self.finalized {
            return Err(mpih::MPI_ERR_FINALIZED);
        }
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

    /// The rank context (used by upper layers for time accounting).
    pub fn rank_ctx(&self) -> &Rc<RankCtx> {
        &self.ctx
    }

    fn check_live(&self) -> MpichResult<()> {
        if self.finalized {
            Err(mpih::MPI_ERR_FINALIZED)
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// `MPI_Comm_size`.
    pub fn comm_size(&self, comm: MpiComm) -> MpichResult<i32> {
        Ok(self.tables.comm(comm)?.size() as i32)
    }

    /// `MPI_Comm_rank`.
    pub fn comm_rank(&self, comm: MpiComm) -> MpichResult<i32> {
        Ok(self.tables.comm(comm)?.my_rank)
    }

    /// Translate a communicator rank to a world rank
    /// (`MPI_Group_translate_ranks` against the world group).
    pub fn comm_translate_rank(&self, comm: MpiComm, rank: i32) -> MpichResult<i32> {
        Ok(self.tables.comm(comm)?.world_of(rank)? as i32)
    }

    /// Cheap clone of communicator facts (internal).
    pub(crate) fn info(&self, comm: MpiComm) -> MpichResult<CommInfo> {
        self.tables.comm(comm).cloned()
    }

    /// Validate a (buffer, datatype) pair; returns the element size.
    pub(crate) fn check_typed_buf(&self, dt: MpiDatatype, len: usize) -> MpichResult<usize> {
        let size = self.tables.type_size(dt)?;
        if size == 0 || !len.is_multiple_of(size) {
            return Err(mpih::MPI_ERR_COUNT);
        }
        Ok(size)
    }

    // ------------------------------------------------------------------
    // Internal transport primitives (shared by p2p and collectives)
    // ------------------------------------------------------------------

    /// Send `payload` to communicator rank `dst_cr` on the p2p or collective
    /// context. Charges the per-message sender overhead, and for messages
    /// beyond the eager threshold a rendezvous round-trip of the link.
    pub(crate) fn xsend(
        &mut self,
        info: &CommInfo,
        coll: bool,
        dst_cr: i32,
        tag: i32,
        payload: Bytes,
    ) -> MpichResult<()> {
        let dst_world = info.world_of(dst_cr)?;
        self.ctx.advance(self.tuning.o_send);
        if payload.len() > self.tuning.eager_threshold {
            // Rendezvous: RTS/CTS handshake before the data moves.
            let link = self.ctx.spec().link_between(self.ctx.rank(), dst_world);
            self.ctx.advance(link.alpha + link.alpha);
        }
        let ctx_id = if coll {
            info.coll_ctx()
        } else {
            info.p2p_ctx()
        };
        self.ctx
            .endpoint()
            .send_raw(dst_world, ctx_id, tag, payload, &self.ctx)
            .map_err(sim_err)
    }

    /// Blocking matched receive on a communicator context. Charges arrival
    /// and the per-message receiver overhead.
    pub(crate) fn xrecv(
        &mut self,
        info: &CommInfo,
        coll: bool,
        src: SrcSel,
        tag: TagSel,
    ) -> MpichResult<Arrived> {
        let ctx_id = if coll {
            info.coll_ctx()
        } else {
            info.p2p_ctx()
        };
        let got = self
            .engine
            .match_blocking(&self.ctx, ctx_id, src, tag)
            .map_err(sim_err)?;
        self.ctx.advance_to(got.arrival);
        self.ctx.advance(self.tuning.o_recv);
        Ok(got)
    }

    /// Translate a communicator-rank source argument to a world selector.
    fn src_sel(&self, info: &CommInfo, src: i32) -> MpichResult<SrcSel> {
        if src == mpih::MPI_ANY_SOURCE {
            Ok(SrcSel::Any)
        } else {
            Ok(SrcSel::World(info.world_of(src)?))
        }
    }

    fn tag_sel(tag: i32) -> MpichResult<TagSel> {
        if tag == mpih::MPI_ANY_TAG {
            Ok(TagSel::Any)
        } else if (0..=mpih::MPI_TAG_UB).contains(&tag) {
            Ok(TagSel::Is(tag))
        } else {
            Err(mpih::MPI_ERR_TAG)
        }
    }

    fn send_tag(tag: i32) -> MpichResult<i32> {
        if (0..=mpih::MPI_TAG_UB).contains(&tag) {
            Ok(tag)
        } else {
            Err(mpih::MPI_ERR_TAG)
        }
    }

    /// Build the native status for a matched message.
    fn status_of(&self, info: &CommInfo, got: &Arrived) -> MpiStatus {
        let source = info
            .comm_rank_of_world(got.env.src)
            .unwrap_or(mpih::MPI_ANY_SOURCE);
        MpiStatus::for_receive(source, got.env.tag, got.env.len() as u64)
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
    ) -> MpichResult<()> {
        self.check_live()?;
        self.check_typed_buf(dt, buf.len())?;
        let tag = Self::send_tag(tag)?;
        if dest == mpih::MPI_PROC_NULL {
            return Ok(());
        }
        let info = self.info(comm)?;
        self.xsend(&info, false, dest, tag, Bytes::copy_from_slice(buf))
    }

    /// `MPI_Recv`.
    pub fn recv(
        &mut self,
        buf: &mut [u8],
        dt: MpiDatatype,
        src: i32,
        tag: i32,
        comm: MpiComm,
    ) -> MpichResult<MpiStatus> {
        self.check_live()?;
        self.check_typed_buf(dt, buf.len())?;
        let tag_sel = Self::tag_sel(tag)?;
        if src == mpih::MPI_PROC_NULL {
            return Ok(MpiStatus::for_receive(
                mpih::MPI_PROC_NULL,
                mpih::MPI_ANY_TAG,
                0,
            ));
        }
        let info = self.info(comm)?;
        let src_sel = self.src_sel(&info, src)?;
        let got = self.xrecv(&info, false, src_sel, tag_sel)?;
        if got.env.len() > buf.len() {
            return Err(mpih::MPI_ERR_TRUNCATE);
        }
        buf[..got.env.len()].copy_from_slice(&got.env.payload);
        Ok(self.status_of(&info, &got))
    }

    /// `MPI_Isend` (eager: the data leaves immediately; the request is a
    /// completion token).
    pub fn isend(
        &mut self,
        buf: &[u8],
        dt: MpiDatatype,
        dest: i32,
        tag: i32,
        comm: MpiComm,
    ) -> MpichResult<MpiRequest> {
        self.check_live()?;
        self.check_typed_buf(dt, buf.len())?;
        let tag = Self::send_tag(tag)?;
        if dest != mpih::MPI_PROC_NULL {
            let info = self.info(comm)?;
            self.xsend(&info, false, dest, tag, Bytes::copy_from_slice(buf))?;
        }
        Ok(self.tables.add_request(RequestObj::SendDone))
    }

    /// `MPI_Irecv`.
    pub fn irecv(
        &mut self,
        max_bytes: usize,
        dt: MpiDatatype,
        src: i32,
        tag: i32,
        comm: MpiComm,
    ) -> MpichResult<MpiRequest> {
        self.check_live()?;
        self.check_typed_buf(dt, max_bytes)?;
        let tag_sel = Self::tag_sel(tag)?;
        if src == mpih::MPI_PROC_NULL {
            return Ok(self.tables.add_request(RequestObj::RecvDone {
                status: MpiStatus::for_receive(mpih::MPI_PROC_NULL, mpih::MPI_ANY_TAG, 0),
                payload: Bytes::new(),
            }));
        }
        let info = self.info(comm)?;
        let src_world = match self.src_sel(&info, src)? {
            SrcSel::Any => None,
            SrcSel::World(w) => Some(w),
        };
        let tag_opt = match tag_sel {
            TagSel::Any => None,
            TagSel::Is(t) => Some(t),
        };
        Ok(self.tables.add_request(RequestObj::RecvPending {
            ctx_id: info.p2p_ctx(),
            src_world,
            tag: tag_opt,
            max_bytes,
            ranks: info.ranks.clone(),
        }))
    }

    /// `MPI_Wait`: complete a request; receive payloads are returned.
    pub fn wait(&mut self, req: MpiRequest) -> MpichResult<(MpiStatus, Option<Bytes>)> {
        self.check_live()?;
        match self.tables.take_request(req)? {
            RequestObj::SendDone => Ok((MpiStatus::default(), None)),
            RequestObj::RecvDone { status, payload } => Ok((status, Some(payload))),
            RequestObj::RecvPending {
                ctx_id,
                src_world,
                tag,
                max_bytes,
                ranks,
            } => {
                let src = src_world.map_or(SrcSel::Any, SrcSel::World);
                let tag_sel = tag.map_or(TagSel::Any, TagSel::Is);
                let got = self
                    .engine
                    .match_blocking(&self.ctx, ctx_id, src, tag_sel)
                    .map_err(sim_err)?;
                self.ctx.advance_to(got.arrival);
                self.ctx.advance(self.tuning.o_recv);
                if got.env.len() > max_bytes {
                    return Err(mpih::MPI_ERR_TRUNCATE);
                }
                let source =
                    comm_rank_of_world(&ranks, got.env.src).unwrap_or(mpih::MPI_ANY_SOURCE);
                let status = MpiStatus::for_receive(source, got.env.tag, got.env.len() as u64);
                Ok((status, Some(got.env.payload)))
            }
        }
    }

    /// `MPI_Test`.
    pub fn test(&mut self, req: MpiRequest) -> MpichResult<Option<(MpiStatus, Option<Bytes>)>> {
        self.check_live()?;
        match self.tables.take_request(req)? {
            RequestObj::SendDone => Ok(Some((MpiStatus::default(), None))),
            RequestObj::RecvDone { status, payload } => Ok(Some((status, Some(payload)))),
            pending @ RequestObj::RecvPending { .. } => {
                let (ctx_id, src, tag_sel, max_bytes, ranks) = match &pending {
                    RequestObj::RecvPending {
                        ctx_id,
                        src_world,
                        tag,
                        max_bytes,
                        ranks,
                    } => (
                        *ctx_id,
                        src_world.map_or(SrcSel::Any, SrcSel::World),
                        tag.map_or(TagSel::Any, TagSel::Is),
                        *max_bytes,
                        ranks.clone(),
                    ),
                    _ => unreachable!(),
                };
                match self
                    .engine
                    .match_nonblocking(&self.ctx, ctx_id, src, tag_sel)
                    .map_err(sim_err)?
                {
                    None => {
                        self.tables.put_back_request(req, pending)?;
                        Ok(None)
                    }
                    Some(got) => {
                        self.ctx.advance_to(got.arrival);
                        self.ctx.advance(self.tuning.o_recv);
                        if got.env.len() > max_bytes {
                            return Err(mpih::MPI_ERR_TRUNCATE);
                        }
                        let source =
                            comm_rank_of_world(&ranks, got.env.src).unwrap_or(mpih::MPI_ANY_SOURCE);
                        let status =
                            MpiStatus::for_receive(source, got.env.tag, got.env.len() as u64);
                        Ok(Some((status, Some(got.env.payload))))
                    }
                }
            }
        }
    }

    /// `MPI_Waitall`.
    pub fn waitall(&mut self, reqs: &[MpiRequest]) -> MpichResult<Vec<(MpiStatus, Option<Bytes>)>> {
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
    ) -> MpichResult<MpiStatus> {
        // Eager transport cannot deadlock: send first, then receive.
        self.send(sendbuf, dt, dest, sendtag, comm)?;
        self.recv(recvbuf, dt, src, recvtag, comm)
    }

    /// `MPI_Probe`.
    pub fn probe(&mut self, src: i32, tag: i32, comm: MpiComm) -> MpichResult<MpiStatus> {
        self.check_live()?;
        let info = self.info(comm)?;
        let src_sel = self.src_sel(&info, src)?;
        let tag_sel = Self::tag_sel(tag)?;
        let got = self
            .engine
            .peek_blocking(&self.ctx, info.p2p_ctx(), src_sel, tag_sel)
            .map_err(sim_err)?;
        Ok(self.status_of(&info, &got))
    }

    /// `MPI_Iprobe`.
    pub fn iprobe(&mut self, src: i32, tag: i32, comm: MpiComm) -> MpichResult<Option<MpiStatus>> {
        self.check_live()?;
        let info = self.info(comm)?;
        let src_sel = self.src_sel(&info, src)?;
        let tag_sel = Self::tag_sel(tag)?;
        let got = self
            .engine
            .peek_nonblocking(&self.ctx, info.p2p_ctx(), src_sel, tag_sel)
            .map_err(sim_err)?;
        Ok(got.map(|g| self.status_of(&info, &g)))
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// `MPI_Comm_dup` (collective over `comm`).
    pub fn comm_dup(&mut self, comm: MpiComm) -> MpichResult<MpiComm> {
        self.check_live()?;
        let info = self.info(comm)?;
        let base = self.agree_ctx_base(&info)?;
        self.next_ctx_base = base + 2;
        let dup = CommInfo {
            ctx_base: base,
            ranks: info.ranks.clone(),
            my_rank: info.my_rank,
        };
        Ok(self.tables.add_comm(dup))
    }

    /// `MPI_Comm_split` (collective over `comm`).
    pub fn comm_split(&mut self, comm: MpiComm, color: i32, key: i32) -> MpichResult<MpiComm> {
        self.check_live()?;
        let info = self.info(comm)?;
        let base = self.agree_ctx_base(&info)?;

        // Gather (color, key) from every member via the collective context,
        // through rank 0, then broadcast the full table. Deterministic and
        // simple; communicator creation is not on the critical path.
        let my = [color, key];
        let n = info.size();
        let me = info.my_rank as usize;
        let mut table: Vec<[i32; 2]> = vec![[0; 2]; n];
        const SPLIT_TAG: i32 = 0x0200;
        if me == 0 {
            table[0] = my;
            for _ in 1..n {
                let got = self.xrecv(&info, true, SrcSel::Any, TagSel::Is(SPLIT_TAG))?;
                let cr = info
                    .comm_rank_of_world(got.env.src)
                    .ok_or(mpih::MPI_ERR_INTERN)? as usize;
                let b = &got.env.payload;
                table[cr] = [
                    i32::from_le_bytes(b[0..4].try_into().unwrap()),
                    i32::from_le_bytes(b[4..8].try_into().unwrap()),
                ];
            }
            let mut flat = Vec::with_capacity(n * 8);
            for ck in &table {
                flat.extend_from_slice(&ck[0].to_le_bytes());
                flat.extend_from_slice(&ck[1].to_le_bytes());
            }
            let payload = Bytes::from(flat);
            for dst in 1..n {
                self.xsend(&info, true, dst as i32, SPLIT_TAG + 1, payload.clone())?;
            }
        } else {
            let mut buf = Vec::with_capacity(8);
            buf.extend_from_slice(&my[0].to_le_bytes());
            buf.extend_from_slice(&my[1].to_le_bytes());
            self.xsend(&info, true, 0, SPLIT_TAG, Bytes::from(buf))?;
            let got = self.xrecv(
                &info,
                true,
                SrcSel::World(info.world_of(0)?),
                TagSel::Is(SPLIT_TAG + 1),
            )?;
            for (cr, chunk) in got.env.payload.chunks_exact(8).enumerate() {
                table[cr] = [
                    i32::from_le_bytes(chunk[0..4].try_into().unwrap()),
                    i32::from_le_bytes(chunk[4..8].try_into().unwrap()),
                ];
            }
        }

        // Distinct colors in sorted order; each gets ctx base + 2*index.
        let mut colors: Vec<i32> = table
            .iter()
            .map(|ck| ck[0])
            .filter(|&c| c != mpih::MPI_UNDEFINED)
            .collect();
        colors.sort_unstable();
        colors.dedup();
        self.next_ctx_base = base + 2 * colors.len().max(1) as u64;

        if color == mpih::MPI_UNDEFINED {
            return Ok(mpih::MPI_COMM_NULL);
        }
        let color_idx = colors
            .binary_search(&color)
            .map_err(|_| mpih::MPI_ERR_INTERN)?;
        // Members of my color, ordered by (key, parent rank).
        let mut members: Vec<(i32, usize)> = table
            .iter()
            .enumerate()
            .filter(|(_, ck)| ck[0] == color)
            .map(|(cr, ck)| (ck[1], cr))
            .collect();
        members.sort_unstable();
        let world_ranks: Vec<usize> = members.iter().map(|&(_, cr)| info.ranks[cr]).collect();
        let my_new_rank = members
            .iter()
            .position(|&(_, cr)| cr == me)
            .ok_or(mpih::MPI_ERR_INTERN)? as i32;
        let new_info = CommInfo {
            ctx_base: base + 2 * color_idx as u64,
            ranks: std::sync::Arc::new(world_ranks),
            my_rank: my_new_rank,
        };
        Ok(self.tables.add_comm(new_info))
    }

    /// `MPI_Comm_free`.
    pub fn comm_free(&mut self, comm: MpiComm) -> MpichResult<()> {
        self.check_live()?;
        self.tables.free_comm(comm)
    }

    /// Agree on a context-id base across the communicator: an all-reduce
    /// max of every member's `next_ctx_base` (the analogue of MPICH's
    /// context-id allocation protocol).
    fn agree_ctx_base(&mut self, info: &CommInfo) -> MpichResult<u64> {
        const CTX_TAG: i32 = 0x0201;
        let n = info.size();
        let me = info.my_rank as usize;
        let mut agreed = self.next_ctx_base;
        if n == 1 {
            return Ok(agreed);
        }
        // Recursive-doubling max over possibly non-power-of-two sizes:
        // everyone exchanges with rank^mask partners when in range; ranks
        // without a partner at a given round skip it, then a final
        // broadcast from rank 0 aligns everyone.
        // Simpler and fully correct: gather-to-0 + bcast.
        if me == 0 {
            for _ in 1..n {
                let got = self.xrecv(&info.clone(), true, SrcSel::Any, TagSel::Is(CTX_TAG))?;
                let v = u64::from_le_bytes(got.env.payload[..8].try_into().unwrap());
                agreed = agreed.max(v);
            }
            let payload = Bytes::copy_from_slice(&agreed.to_le_bytes());
            for dst in 1..n {
                self.xsend(
                    &info.clone(),
                    true,
                    dst as i32,
                    CTX_TAG + 1,
                    payload.clone(),
                )?;
            }
        } else {
            let payload = Bytes::copy_from_slice(&self.next_ctx_base.to_le_bytes());
            self.xsend(&info.clone(), true, 0, CTX_TAG, payload)?;
            let got = self.xrecv(
                &info.clone(),
                true,
                SrcSel::World(info.world_of(0)?),
                TagSel::Is(CTX_TAG + 1),
            )?;
            agreed = u64::from_le_bytes(got.env.payload[..8].try_into().unwrap());
        }
        Ok(agreed)
    }

    // ------------------------------------------------------------------
    // Datatypes
    // ------------------------------------------------------------------

    /// `MPI_Type_size`.
    pub fn type_size(&self, dt: MpiDatatype) -> MpichResult<usize> {
        self.tables.type_size(dt)
    }

    /// `MPI_Type_contiguous`.
    pub fn type_contiguous(
        &mut self,
        count: i32,
        oldtype: MpiDatatype,
    ) -> MpichResult<MpiDatatype> {
        self.check_live()?;
        if count < 0 {
            return Err(mpih::MPI_ERR_COUNT);
        }
        let base_size = self.tables.type_size(oldtype)?;
        let elem = if kernels::ElemKind::of_builtin(oldtype).is_some() {
            kernels::ElemKind::of_builtin(oldtype)
        } else {
            self.tables.derived(oldtype)?.elem
        };
        Ok(self.tables.add_derived(DerivedType {
            size: base_size * count as usize,
            elem,
            committed: false,
        }))
    }

    /// `MPI_Type_commit`.
    pub fn type_commit(&mut self, dt: MpiDatatype) -> MpichResult<()> {
        self.check_live()?;
        if mpih::PREDEFINED_DATATYPES.contains(&dt) {
            return Ok(()); // committing a predefined type is a no-op
        }
        self.tables.commit_type(dt)
    }

    /// `MPI_Type_free`.
    pub fn type_free(&mut self, dt: MpiDatatype) -> MpichResult<()> {
        self.check_live()?;
        self.tables.free_type(dt)
    }

    // ------------------------------------------------------------------
    // Reduction ops
    // ------------------------------------------------------------------

    /// `MPI_Op_create`.
    pub fn op_create(&mut self, func: MpichUserFn, commute: bool) -> MpichResult<MpiOp> {
        self.check_live()?;
        Ok(self.tables.add_user_op(UserOp { func, commute }))
    }

    /// `MPI_Op_free`.
    pub fn op_free(&mut self, op: MpiOp) -> MpichResult<()> {
        self.check_live()?;
        self.tables.free_op(op)
    }

    /// Element-wise `acc = op(other, acc)` with op/datatype resolution.
    pub(crate) fn combine_with(
        &self,
        op: MpiOp,
        dt: MpiDatatype,
        acc: &mut [u8],
        other: &[u8],
    ) -> MpichResult<()> {
        if Tables::is_builtin_op(op) {
            let kind = self.tables.elem_kind(dt)?;
            kernels::combine(op, kind, acc, other)
        } else {
            let user = self.tables.user_op(op)?;
            if acc.len() != other.len() {
                return Err(mpih::MPI_ERR_COUNT);
            }
            let elem_size = self.tables.type_size(dt)?;
            // Reduction work costs CPU time proportional to the data.
            (user.func)(other, acc, elem_size);
            Ok(())
        }
    }

    /// Charge the CPU cost of reducing `bytes` bytes (used by collectives).
    pub(crate) fn charge_reduce_cost(&self, bytes: usize) {
        // ~1.5 GB/s effective combine rate on the simulated Xeon.
        let ns = bytes as f64 / 1.5;
        self.ctx.compute(VirtualTime::from_nanos(ns as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{ClusterSpec, World};

    fn run_world<R: Send>(
        nranks: usize,
        f: impl Fn(&mut MpichProcess) -> MpichResult<R> + Sync,
    ) -> Vec<R> {
        let spec = ClusterSpec::builder()
            .nodes(1)
            .ranks_per_node(nranks)
            .build();
        World::run(&spec, |ctx| {
            let mut proc = MpichProcess::init(ctx);
            f(&mut proc)
                .map_err(|code| simnet::SimError::InvalidConfig(format!("native MPI error {code}")))
        })
        .unwrap()
        .results
    }

    #[test]
    fn init_queries() {
        let sizes = run_world(4, |p| {
            assert_eq!(p.comm_rank(mpih::MPI_COMM_SELF)?, 0);
            assert_eq!(p.comm_size(mpih::MPI_COMM_SELF)?, 1);
            Ok((
                p.comm_size(mpih::MPI_COMM_WORLD)?,
                p.comm_rank(mpih::MPI_COMM_WORLD)?,
            ))
        });
        assert_eq!(sizes, vec![(4, 0), (4, 1), (4, 2), (4, 3)]);
    }

    #[test]
    fn blocking_ring() {
        let out = run_world(4, |p| {
            let n = p.comm_size(mpih::MPI_COMM_WORLD)?;
            let me = p.comm_rank(mpih::MPI_COMM_WORLD)?;
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;
            p.send(
                &me.to_le_bytes(),
                mpih::MPI_INT,
                next,
                7,
                mpih::MPI_COMM_WORLD,
            )?;
            let mut buf = [0u8; 4];
            let st = p.recv(&mut buf, mpih::MPI_INT, prev, 7, mpih::MPI_COMM_WORLD)?;
            assert_eq!(st.mpi_source, prev);
            assert_eq!(st.mpi_tag, 7);
            assert_eq!(st.count_bytes(), 4);
            Ok(i32::from_le_bytes(buf))
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn nonblocking_exchange() {
        let out = run_world(2, |p| {
            let me = p.comm_rank(mpih::MPI_COMM_WORLD)?;
            let other = 1 - me;
            let r1 = p.irecv(8, mpih::MPI_DOUBLE, other, 1, mpih::MPI_COMM_WORLD)?;
            let payload = (me as f64 + 1.5).to_le_bytes();
            let r2 = p.isend(&payload, mpih::MPI_DOUBLE, other, 1, mpih::MPI_COMM_WORLD)?;
            let results = p.waitall(&[r1, r2])?;
            let (st, data) = &results[0];
            assert_eq!(st.mpi_source, other);
            Ok(f64::from_le_bytes(
                data.as_ref().unwrap()[..].try_into().unwrap(),
            ))
        });
        assert_eq!(out, vec![2.5, 1.5]);
    }

    #[test]
    fn sendrecv_swaps() {
        let out = run_world(2, |p| {
            let me = p.comm_rank(mpih::MPI_COMM_WORLD)?;
            let other = 1 - me;
            let mut got = [0u8; 4];
            p.sendrecv(
                &me.to_le_bytes(),
                other,
                3,
                &mut got,
                other,
                3,
                mpih::MPI_INT,
                mpih::MPI_COMM_WORLD,
            )?;
            Ok(i32::from_le_bytes(got))
        });
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn proc_null_is_a_black_hole() {
        run_world(1, |p| {
            p.send(
                &[1, 2, 3, 4],
                mpih::MPI_INT,
                mpih::MPI_PROC_NULL,
                0,
                mpih::MPI_COMM_WORLD,
            )?;
            let mut buf = [0u8; 4];
            let st = p.recv(
                &mut buf,
                mpih::MPI_INT,
                mpih::MPI_PROC_NULL,
                0,
                mpih::MPI_COMM_WORLD,
            )?;
            assert_eq!(st.mpi_source, mpih::MPI_PROC_NULL);
            assert_eq!(st.count_bytes(), 0);
            Ok(())
        });
    }

    #[test]
    fn truncation_detected() {
        let out = run_world(2, |p| {
            let me = p.comm_rank(mpih::MPI_COMM_WORLD)?;
            if me == 0 {
                p.send(&[0u8; 16], mpih::MPI_BYTE, 1, 0, mpih::MPI_COMM_WORLD)?;
                Ok(0)
            } else {
                let mut small = [0u8; 8];
                let err = p
                    .recv(&mut small, mpih::MPI_BYTE, 0, 0, mpih::MPI_COMM_WORLD)
                    .unwrap_err();
                Ok(err)
            }
        });
        assert_eq!(out[1], mpih::MPI_ERR_TRUNCATE);
    }

    #[test]
    fn any_source_any_tag() {
        let out = run_world(3, |p| {
            let me = p.comm_rank(mpih::MPI_COMM_WORLD)?;
            if me == 0 {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let mut buf = [0u8; 4];
                    let st = p.recv(
                        &mut buf,
                        mpih::MPI_INT,
                        mpih::MPI_ANY_SOURCE,
                        mpih::MPI_ANY_TAG,
                        mpih::MPI_COMM_WORLD,
                    )?;
                    assert_eq!(st.mpi_source, i32::from_le_bytes(buf));
                    seen.push(st.mpi_source);
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![1, 2]);
                Ok(true)
            } else {
                p.send(
                    &me.to_le_bytes(),
                    mpih::MPI_INT,
                    0,
                    10 + me,
                    mpih::MPI_COMM_WORLD,
                )?;
                Ok(false)
            }
        });
        assert!(out[0]);
    }

    #[test]
    fn probe_then_sized_recv() {
        run_world(2, |p| {
            let me = p.comm_rank(mpih::MPI_COMM_WORLD)?;
            if me == 0 {
                p.send(&[7u8; 24], mpih::MPI_BYTE, 1, 9, mpih::MPI_COMM_WORLD)?;
            } else {
                assert!(p.iprobe(0, 99, mpih::MPI_COMM_WORLD)?.is_none());
                let st = p.probe(0, 9, mpih::MPI_COMM_WORLD)?;
                assert_eq!(st.count_bytes(), 24);
                let mut buf = vec![0u8; st.count_bytes() as usize];
                p.recv(&mut buf, mpih::MPI_BYTE, 0, 9, mpih::MPI_COMM_WORLD)?;
                assert!(buf.iter().all(|&b| b == 7));
            }
            Ok(())
        });
    }

    #[test]
    fn comm_dup_isolates_traffic() {
        let out = run_world(2, |p| {
            let dup = p.comm_dup(mpih::MPI_COMM_WORLD)?;
            let me = p.comm_rank(dup)?;
            assert_eq!(p.comm_size(dup)?, 2);
            let other = 1 - me;
            // Send on dup with tag 5; a recv on WORLD tag 5 must NOT see it.
            p.send(&me.to_le_bytes(), mpih::MPI_INT, other, 5, dup)?;
            assert!(p.iprobe(other, 5, mpih::MPI_COMM_WORLD)?.is_none());
            let mut buf = [0u8; 4];
            p.recv(&mut buf, mpih::MPI_INT, other, 5, dup)?;
            p.comm_free(dup)?;
            Ok(i32::from_le_bytes(buf))
        });
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn comm_split_even_odd() {
        let out = run_world(4, |p| {
            let me = p.comm_rank(mpih::MPI_COMM_WORLD)?;
            let sub = p.comm_split(mpih::MPI_COMM_WORLD, me % 2, me)?;
            let sub_rank = p.comm_rank(sub)?;
            let sub_size = p.comm_size(sub)?;
            // Exchange inside the subcommunicator.
            let peer = 1 - sub_rank;
            let mut got = [0u8; 4];
            p.sendrecv(
                &me.to_le_bytes(),
                peer,
                0,
                &mut got,
                peer,
                0,
                mpih::MPI_INT,
                sub,
            )?;
            Ok((sub_rank, sub_size, i32::from_le_bytes(got)))
        });
        // Ranks 0,2 form color 0; ranks 1,3 color 1; keys order by rank.
        assert_eq!(out[0], (0, 2, 2));
        assert_eq!(out[1], (0, 2, 3));
        assert_eq!(out[2], (1, 2, 0));
        assert_eq!(out[3], (1, 2, 1));
    }

    #[test]
    fn comm_split_undefined_gets_null() {
        let out = run_world(3, |p| {
            let me = p.comm_rank(mpih::MPI_COMM_WORLD)?;
            let color = if me == 2 { mpih::MPI_UNDEFINED } else { 0 };
            let sub = p.comm_split(mpih::MPI_COMM_WORLD, color, 0)?;
            Ok(sub == mpih::MPI_COMM_NULL)
        });
        assert_eq!(out, vec![false, false, true]);
    }

    #[test]
    fn derived_contiguous_type() {
        run_world(2, |p| {
            let vec3 = p.type_contiguous(3, mpih::MPI_DOUBLE)?;
            assert_eq!(p.type_size(vec3)?, 24);
            p.type_commit(vec3)?;
            let me = p.comm_rank(mpih::MPI_COMM_WORLD)?;
            if me == 0 {
                let data: Vec<u8> = [1.0f64, 2.0, 3.0]
                    .iter()
                    .flat_map(|x| x.to_le_bytes())
                    .collect();
                p.send(&data, vec3, 1, 0, mpih::MPI_COMM_WORLD)?;
            } else {
                let mut buf = vec![0u8; 24];
                let st = p.recv(&mut buf, vec3, 0, 0, mpih::MPI_COMM_WORLD)?;
                assert_eq!(st.count_bytes(), 24);
                let x = f64::from_le_bytes(buf[8..16].try_into().unwrap());
                assert_eq!(x, 2.0);
            }
            p.type_free(vec3)?;
            Ok(())
        });
    }

    #[test]
    fn finalize_blocks_further_calls() {
        run_world(1, |p| {
            p.finalize()?;
            assert!(p.is_finalized());
            let err = p
                .send(
                    &[0u8; 4],
                    mpih::MPI_INT,
                    mpih::MPI_PROC_NULL,
                    0,
                    mpih::MPI_COMM_WORLD,
                )
                .unwrap_err();
            assert_eq!(err, mpih::MPI_ERR_FINALIZED);
            assert_eq!(p.finalize().unwrap_err(), mpih::MPI_ERR_FINALIZED);
            Ok(())
        });
    }

    #[test]
    fn bad_arguments_rejected() {
        run_world(1, |p| {
            // Unaligned buffer length for the datatype.
            let err = p.send(
                &[0u8; 3],
                mpih::MPI_INT,
                mpih::MPI_PROC_NULL,
                0,
                mpih::MPI_COMM_WORLD,
            );
            assert_eq!(err.unwrap_err(), mpih::MPI_ERR_COUNT);
            // Negative tag.
            let err = p.send(&[0u8; 4], mpih::MPI_INT, 0, -5, mpih::MPI_COMM_WORLD);
            assert_eq!(err.unwrap_err(), mpih::MPI_ERR_TAG);
            // Bad communicator.
            let err = p.comm_size(0x1111_2222);
            assert_eq!(err.unwrap_err(), mpih::MPI_ERR_COMM);
            // Rank out of range.
            let mut b = [0u8; 4];
            let err = p.recv(&mut b, mpih::MPI_INT, 7, 0, mpih::MPI_COMM_WORLD);
            assert_eq!(err.unwrap_err(), mpih::MPI_ERR_RANK);
            Ok(())
        });
    }

    #[test]
    fn wtime_advances_with_communication() {
        let out = run_world(2, |p| {
            let t0 = p.wtime();
            let me = p.comm_rank(mpih::MPI_COMM_WORLD)?;
            let other = 1 - me;
            let mut buf = [0u8; 4];
            p.sendrecv(
                &[1, 2, 3, 4],
                other,
                0,
                &mut buf,
                other,
                0,
                mpih::MPI_INT,
                mpih::MPI_COMM_WORLD,
            )?;
            Ok(p.wtime() - t0)
        });
        assert!(
            out.iter().all(|&dt| dt > 0.0),
            "communication must take virtual time"
        );
    }
}
