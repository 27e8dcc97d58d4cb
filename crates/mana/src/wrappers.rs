//! `libmana.so`: the upper-half wrapper library.
//!
//! [`ManaMpi`] implements the standard ABI and interposes on every call,
//! exactly as MANA's `LD_PRELOAD`ed wrappers do (paper §4.3, Fig. 1):
//!
//! * the application only ever holds **virtual** handles; every call
//!   translates them to the current lower half's real handles;
//! * every call charges the **split-process crossing cost** — two context
//!   switches whose price depends on the kernel's FSGSBASE support;
//! * point-to-point traffic is **counted** per peer (world ranks) for the
//!   checkpoint drain protocol;
//! * receives consult the **drained-message pool** before the network, so
//!   messages caught in flight by a checkpoint are delivered after restart;
//! * object-creating calls are recorded in the **replay log** so a fresh
//!   lower half (same or different vendor) can rebuild equivalent objects.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;

use mpi_abi::{consts, AbiError, AbiResult, AbiStatus, Handle, HandleKind, MpiAbi, UserOpFn};
use simnet::RankCtx;

use crate::config::ManaConfig;
use crate::ops;
use crate::pool::DrainPool;
use crate::vids::{LogEntry, Recipe, VidTable};

pub(crate) enum ReqEntry {
    /// Forwarded to the lower half.
    Real {
        real: Handle,
        vcomm: Handle,
        is_recv: bool,
    },
    /// Satisfied from the drained pool at post time.
    Pooled { status: AbiStatus, payload: Bytes },
}

/// The MANA wrapper library: one instance per rank's upper half.
pub struct ManaMpi {
    pub(crate) ctx: Rc<RankCtx>,
    pub(crate) config: ManaConfig,
    pub(crate) lower: Box<dyn MpiAbi>,
    pub(crate) vids: VidTable,
    pub(crate) pool: DrainPool,
    pub(crate) sent_to: Vec<u64>,
    pub(crate) rcvd_from: Vec<u64>,
    pub(crate) reqs: HashMap<Handle, ReqEntry>,
    pub(crate) outstanding: usize,
    /// Per upper-half memory segment: the generation stamp it was last
    /// encoded at and those encoded bytes. A checkpoint re-references a
    /// segment whose stamp has not moved instead of encoding it again.
    pub(crate) segments: HashMap<String, (u64, Arc<Vec<u8>>)>,
}

impl ManaMpi {
    /// Launch the wrapper over a freshly initialized lower half.
    pub fn launch(ctx: Rc<RankCtx>, config: ManaConfig, lower: Box<dyn MpiAbi>) -> ManaMpi {
        let n = ctx.nranks();
        ManaMpi {
            ctx,
            config,
            lower,
            vids: VidTable::new(n),
            pool: DrainPool::new(),
            sent_to: vec![0; n],
            rcvd_from: vec![0; n],
            reqs: HashMap::new(),
            outstanding: 0,
            segments: HashMap::new(),
        }
    }

    /// Number of incomplete nonblocking requests (checkpoints require 0).
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Number of messages currently buffered in the drained pool.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// The cost model in effect.
    pub fn config(&self) -> &ManaConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Cost accounting
    // ------------------------------------------------------------------

    /// Charge one wrapper crossing (upper → lower → upper).
    #[inline]
    fn cross(&self) {
        self.ctx.count_context_switch();
        self.ctx.count_context_switch();
        self.ctx
            .advance(self.config.crossing_cost(self.ctx.spec().kernel));
    }

    /// Charge the collective sequence-bookkeeping extra for a communicator.
    fn coll_extra(&self, vcomm: Handle) {
        let size = self
            .vids
            .comm_size_of(vcomm)
            .unwrap_or_else(|| self.ctx.nranks());
        self.ctx
            .advance(self.config.collective_extra(self.ctx.spec().kernel, size));
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn real(&self, vid: Handle) -> AbiResult<Handle> {
        self.vids.real_of(vid)
    }

    /// World rank of a communicator rank (for the drain counters).
    fn world_of(&mut self, vcomm: Handle, comm_rank: i32) -> AbiResult<usize> {
        let real = self.real(vcomm)?;
        let w = self.lower.comm_translate_rank(real, comm_rank)?;
        usize::try_from(w).map_err(|_| AbiError::Rank)
    }

    fn count_send(&mut self, vcomm: Handle, dest: i32) -> AbiResult<()> {
        if dest != consts::PROC_NULL {
            let w = self.world_of(vcomm, dest)?;
            self.sent_to[w] += 1;
        }
        Ok(())
    }

    fn count_recv_status(&mut self, vcomm: Handle, status: &AbiStatus) -> AbiResult<()> {
        if status.source >= 0 {
            let w = self.world_of(vcomm, status.source)?;
            self.rcvd_from[w] += 1;
        }
        Ok(())
    }

    fn alloc_vreq(&mut self) -> Handle {
        self.vids.alloc(HandleKind::Request)
    }
}

impl MpiAbi for ManaMpi {
    fn library_version(&self) -> String {
        format!(
            "MANA (split process, virtual ids) over [{}]",
            self.lower.library_version()
        )
    }

    fn finalize(&mut self) -> AbiResult<()> {
        self.cross();
        self.lower.finalize()
    }

    fn is_finalized(&self) -> bool {
        self.lower.is_finalized()
    }

    fn wtime(&mut self) -> f64 {
        self.cross();
        self.lower.wtime()
    }

    fn comm_size(&mut self, comm: Handle) -> AbiResult<i32> {
        self.cross();
        let real = self.real(comm)?;
        self.lower.comm_size(real)
    }

    fn comm_rank(&mut self, comm: Handle) -> AbiResult<i32> {
        self.cross();
        let real = self.real(comm)?;
        self.lower.comm_rank(real)
    }

    fn comm_translate_rank(&mut self, comm: Handle, rank: i32) -> AbiResult<i32> {
        self.cross();
        let real = self.real(comm)?;
        self.lower.comm_translate_rank(real, rank)
    }

    fn send(
        &mut self,
        buf: &[u8],
        datatype: Handle,
        dest: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        self.cross();
        self.count_send(comm, dest)?;
        let (dt, c) = (self.real(datatype)?, self.real(comm)?);
        self.lower.send(buf, dt, dest, tag, c)
    }

    fn recv(
        &mut self,
        buf: &mut [u8],
        datatype: Handle,
        src: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<AbiStatus> {
        self.cross();
        // Drained messages first: they were in flight when the checkpoint
        // was taken and must be delivered before anything newer.
        if let Some(m) = self.pool.take_match(comm, src, tag) {
            if m.payload.len() > buf.len() {
                return Err(AbiError::Truncate);
            }
            buf[..m.payload.len()].copy_from_slice(&m.payload);
            // NOT counted: the drain already counted it as received.
            return Ok(AbiStatus::for_receive(m.src, m.tag, m.payload.len()));
        }
        let (dt, c) = (self.real(datatype)?, self.real(comm)?);
        let status = self.lower.recv(buf, dt, src, tag, c)?;
        self.count_recv_status(comm, &status)?;
        Ok(status)
    }

    fn isend(
        &mut self,
        buf: &[u8],
        datatype: Handle,
        dest: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<Handle> {
        self.cross();
        self.count_send(comm, dest)?;
        let (dt, c) = (self.real(datatype)?, self.real(comm)?);
        let real = self.lower.isend(buf, dt, dest, tag, c)?;
        let vreq = self.alloc_vreq();
        self.reqs.insert(
            vreq,
            ReqEntry::Real {
                real,
                vcomm: comm,
                is_recv: false,
            },
        );
        self.outstanding += 1;
        Ok(vreq)
    }

    fn irecv(
        &mut self,
        max_bytes: usize,
        datatype: Handle,
        src: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<Handle> {
        self.cross();
        if let Some(m) = self.pool.take_match(comm, src, tag) {
            if m.payload.len() > max_bytes {
                return Err(AbiError::Truncate);
            }
            let status = AbiStatus::for_receive(m.src, m.tag, m.payload.len());
            let vreq = self.alloc_vreq();
            self.reqs.insert(
                vreq,
                ReqEntry::Pooled {
                    status,
                    payload: Bytes::from(m.payload),
                },
            );
            self.outstanding += 1;
            return Ok(vreq);
        }
        let (dt, c) = (self.real(datatype)?, self.real(comm)?);
        let real = self.lower.irecv(max_bytes, dt, src, tag, c)?;
        let vreq = self.alloc_vreq();
        self.reqs.insert(
            vreq,
            ReqEntry::Real {
                real,
                vcomm: comm,
                is_recv: true,
            },
        );
        self.outstanding += 1;
        Ok(vreq)
    }

    fn wait(&mut self, request: Handle) -> AbiResult<(AbiStatus, Option<Bytes>)> {
        self.cross();
        let entry = self.reqs.remove(&request).ok_or(AbiError::Request)?;
        self.outstanding -= 1;
        match entry {
            ReqEntry::Pooled { status, payload } => Ok((status, Some(payload))),
            ReqEntry::Real {
                real,
                vcomm,
                is_recv,
            } => {
                let (status, payload) = self.lower.wait(real)?;
                if is_recv {
                    self.count_recv_status(vcomm, &status)?;
                }
                Ok((status, payload))
            }
        }
    }

    fn test(&mut self, request: Handle) -> AbiResult<Option<(AbiStatus, Option<Bytes>)>> {
        self.cross();
        let entry = self.reqs.remove(&request).ok_or(AbiError::Request)?;
        match entry {
            ReqEntry::Pooled { status, payload } => {
                self.outstanding -= 1;
                Ok(Some((status, Some(payload))))
            }
            ReqEntry::Real {
                real,
                vcomm,
                is_recv,
            } => match self.lower.test(real)? {
                None => {
                    self.reqs.insert(
                        request,
                        ReqEntry::Real {
                            real,
                            vcomm,
                            is_recv,
                        },
                    );
                    Ok(None)
                }
                Some((status, payload)) => {
                    self.outstanding -= 1;
                    if is_recv {
                        self.count_recv_status(vcomm, &status)?;
                    }
                    Ok(Some((status, payload)))
                }
            },
        }
    }

    fn sendrecv(
        &mut self,
        sendbuf: &[u8],
        dest: i32,
        sendtag: i32,
        recvbuf: &mut [u8],
        src: i32,
        recvtag: i32,
        datatype: Handle,
        comm: Handle,
    ) -> AbiResult<AbiStatus> {
        self.cross();
        self.count_send(comm, dest)?;
        let (dt, c) = (self.real(datatype)?, self.real(comm)?);
        self.lower.send(sendbuf, dt, dest, sendtag, c)?;
        if let Some(m) = self.pool.take_match(comm, src, recvtag) {
            if m.payload.len() > recvbuf.len() {
                return Err(AbiError::Truncate);
            }
            recvbuf[..m.payload.len()].copy_from_slice(&m.payload);
            return Ok(AbiStatus::for_receive(m.src, m.tag, m.payload.len()));
        }
        let status = self.lower.recv(recvbuf, dt, src, recvtag, c)?;
        self.count_recv_status(comm, &status)?;
        Ok(status)
    }

    fn probe(&mut self, src: i32, tag: i32, comm: Handle) -> AbiResult<AbiStatus> {
        self.cross();
        if let Some(m) = self.pool.peek_match(comm, src, tag) {
            return Ok(AbiStatus::for_receive(m.src, m.tag, m.payload.len()));
        }
        let c = self.real(comm)?;
        self.lower.probe(src, tag, c)
    }

    fn iprobe(&mut self, src: i32, tag: i32, comm: Handle) -> AbiResult<Option<AbiStatus>> {
        self.cross();
        if let Some(m) = self.pool.peek_match(comm, src, tag) {
            return Ok(Some(AbiStatus::for_receive(m.src, m.tag, m.payload.len())));
        }
        let c = self.real(comm)?;
        self.lower.iprobe(src, tag, c)
    }

    fn barrier(&mut self, comm: Handle) -> AbiResult<()> {
        self.cross();
        self.coll_extra(comm);
        let c = self.real(comm)?;
        self.lower.barrier(c)
    }

    fn bcast(
        &mut self,
        buf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        self.cross();
        self.coll_extra(comm);
        let (dt, c) = (self.real(datatype)?, self.real(comm)?);
        self.lower.bcast(buf, dt, root, c)
    }

    fn reduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        self.cross();
        self.coll_extra(comm);
        let (dt, o, c) = (self.real(datatype)?, self.real(op)?, self.real(comm)?);
        self.lower.reduce(sendbuf, recvbuf, dt, o, root, c)
    }

    fn allreduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        self.cross();
        self.coll_extra(comm);
        let (dt, o, c) = (self.real(datatype)?, self.real(op)?, self.real(comm)?);
        self.lower.allreduce(sendbuf, recvbuf, dt, o, c)
    }

    fn gather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        self.cross();
        self.coll_extra(comm);
        let (dt, c) = (self.real(datatype)?, self.real(comm)?);
        self.lower.gather(sendbuf, recvbuf, dt, root, c)
    }

    fn scatter(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        self.cross();
        self.coll_extra(comm);
        let (dt, c) = (self.real(datatype)?, self.real(comm)?);
        self.lower.scatter(sendbuf, recvbuf, dt, root, c)
    }

    fn allgather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        self.cross();
        self.coll_extra(comm);
        let (dt, c) = (self.real(datatype)?, self.real(comm)?);
        self.lower.allgather(sendbuf, recvbuf, dt, c)
    }

    fn alltoall(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        self.cross();
        self.coll_extra(comm);
        let (dt, c) = (self.real(datatype)?, self.real(comm)?);
        self.lower.alltoall(sendbuf, recvbuf, dt, c)
    }

    fn scan(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        self.cross();
        self.coll_extra(comm);
        let (dt, o, c) = (self.real(datatype)?, self.real(op)?, self.real(comm)?);
        self.lower.scan(sendbuf, recvbuf, dt, o, c)
    }

    fn comm_dup(&mut self, comm: Handle) -> AbiResult<Handle> {
        self.cross();
        self.coll_extra(comm);
        let parent_real = self.real(comm)?;
        let real = self.lower.comm_dup(parent_real)?;
        let vid = self.vids.alloc(HandleKind::Comm);
        self.vids.bind(vid, real);
        let size = self.lower.comm_size(real)? as usize;
        self.vids.cache_comm_size(vid, size);
        self.vids.record(LogEntry::Create {
            vid,
            recipe: Recipe::CommDup { parent: comm },
        });
        Ok(vid)
    }

    fn comm_split(&mut self, comm: Handle, color: i32, key: i32) -> AbiResult<Handle> {
        self.cross();
        self.coll_extra(comm);
        let parent_real = self.real(comm)?;
        let real = self.lower.comm_split(parent_real, color, key)?;
        if real == Handle::COMM_NULL {
            self.vids.record(LogEntry::Create {
                vid: Handle::COMM_NULL,
                recipe: Recipe::CommSplit {
                    parent: comm,
                    color,
                    key,
                },
            });
            return Ok(Handle::COMM_NULL);
        }
        let vid = self.vids.alloc(HandleKind::Comm);
        self.vids.bind(vid, real);
        let size = self.lower.comm_size(real)? as usize;
        self.vids.cache_comm_size(vid, size);
        self.vids.record(LogEntry::Create {
            vid,
            recipe: Recipe::CommSplit {
                parent: comm,
                color,
                key,
            },
        });
        Ok(vid)
    }

    fn comm_free(&mut self, comm: Handle) -> AbiResult<()> {
        self.cross();
        let real = self.vids.unbind(comm).ok_or(AbiError::Comm)?;
        self.vids.record(LogEntry::Free { vid: comm });
        self.lower.comm_free(real)
    }

    fn type_size(&mut self, datatype: Handle) -> AbiResult<usize> {
        self.cross();
        let dt = self.real(datatype)?;
        self.lower.type_size(dt)
    }

    fn type_contiguous(&mut self, count: i32, oldtype: Handle) -> AbiResult<Handle> {
        self.cross();
        let old_real = self.real(oldtype)?;
        let real = self.lower.type_contiguous(count, old_real)?;
        let vid = self.vids.alloc(HandleKind::Datatype);
        self.vids.bind(vid, real);
        self.vids.record(LogEntry::Create {
            vid,
            recipe: Recipe::TypeContiguous {
                count,
                base: oldtype,
            },
        });
        Ok(vid)
    }

    fn type_commit(&mut self, datatype: Handle) -> AbiResult<()> {
        self.cross();
        if datatype.is_predefined() {
            return Ok(());
        }
        let real = self.real(datatype)?;
        self.vids.record(LogEntry::Commit { vid: datatype });
        self.lower.type_commit(real)
    }

    fn type_free(&mut self, datatype: Handle) -> AbiResult<()> {
        self.cross();
        let real = self.vids.unbind(datatype).ok_or(AbiError::Datatype)?;
        self.vids.record(LogEntry::Free { vid: datatype });
        self.lower.type_free(real)
    }

    fn op_create(&mut self, function: UserOpFn, commute: bool) -> AbiResult<Handle> {
        self.cross();
        // Transparent restart needs to re-resolve the function; require it
        // to be registered (the analogue of living at a known symbol).
        let name = ops::name_of(function).ok_or(AbiError::Unsupported)?;
        let real = self.lower.op_create(function, commute)?;
        let vid = self.vids.alloc(HandleKind::Op);
        self.vids.bind(vid, real);
        self.vids.record(LogEntry::Create {
            vid,
            recipe: Recipe::OpUser { name, commute },
        });
        Ok(vid)
    }

    fn op_free(&mut self, op: Handle) -> AbiResult<()> {
        self.cross();
        let real = self.vids.unbind(op).ok_or(AbiError::Op)?;
        self.vids.record(LogEntry::Free { vid: op });
        self.lower.op_free(real)
    }
}
