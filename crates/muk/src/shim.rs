//! `libmuk.so` over the wrap library it opens: the one standard-ABI type.
//!
//! [`MukShim`] is what an ABI-compliant application (or the MANA wrappers)
//! links against. It opens the wrap library of a vendor chosen at runtime
//! — `Lib` has one variant per registered soname, the `dlopen` — and every
//! standard-ABI call runs the one wrap body: written once below, inside
//! the `wrap!` match, and so compiled once per header, over
//! the `wrap` module's per-header state and translation helpers.
//!
//! With Mukautuva in front, each call is first charged its translation
//! cost to the rank's virtual clock ([`crate::overhead`]): a fixed
//! per-call cost, a table-lookup cost for each dynamic handle argument
//! (predefined handles translate by constant-time arithmetic) and a
//! conversion cost for each status returned. Without it the same type is
//! the native baseline — the application recompiled against the vendor's
//! header — and charges nothing.
//!
//! **Deterministic reductions.** Vendors associate floating-point
//! reductions differently (recursive doubling, ring, Rabenseifner), so
//! the same `MPI_Allreduce` can return different bits under MPICH and
//! Open MPI, which a checkpoint under one and a restart under the other
//! runs straight into. In that mode the shim routes `MPI_Reduce`,
//! `MPI_Allreduce` and `MPI_Scan` on predefined ops and types through its
//! own policy instead of the vendor's algorithm: gather every
//! contribution at the root, fold them there in rank order (rank 0
//! first) on the header's own reduction kernels, then bcast or scatter
//! the result. The answer is a pure function of the inputs, identical
//! under every vendor, at the price of a less scalable algorithm. User
//! ops and derived types keep the vendor path (MPI already requires user
//! ops to tolerate implementation-defined association).

use std::rc::Rc;

use bytes::Bytes;

use mpi_abi::{AbiError, AbiResult, AbiStatus, Handle, MpiAbi, UserOpFn};
use mpich_sim::Mpich;
use ompi_sim::OpenMpi;
use simnet::mpi::{kernels, BuiltinOp, ElemKind, MpiResult, NativeAbi, Process};
use simnet::{RankCtx, VirtualTime};

use crate::overhead::{PER_CALL_NS, PER_DYNAMIC_HANDLE_NS, PER_STATUS_NS};
use crate::registry::{soname_for, Vendor};
use crate::wrap::Wrap;

/// The opened wrap library: one variant per registered soname.
enum Lib {
    Mpich(Wrap<Mpich>),
    OpenMpi(Wrap<OpenMpi>),
}

/// Run `$body` on the opened wrap library, with `$w` bound to its
/// `Wrap<V>` and `$W` naming that type: the one wrap source, compiled per
/// header.
macro_rules! wrap {
    ($lib:expr, |$w:ident, $W:ident| $body:expr) => {
        match $lib {
            Lib::Mpich($w) => {
                #[allow(dead_code)]
                type $W = Wrap<Mpich>;
                $body
            }
            Lib::OpenMpi($w) => {
                #[allow(dead_code)]
                type $W = Wrap<OpenMpi>;
                $body
            }
        }
    };
}

/// Charge one call's translation (`$handles`, `$statuses`), then run its
/// wrap body.
macro_rules! call {
    ($shim:ident, $handles:expr, $statuses:expr, |$w:ident, $W:ident| $body:expr) => {{
        $shim.charge($handles, $statuses);
        wrap!(&mut $shim.lib, |$w, $W| $body)
    }};
}

/// A vendor's wrap library, with or without the Mukautuva shim in front.
pub struct MukShim {
    ctx: Rc<RankCtx>,
    lib: Lib,
    vendor: Vendor,
    /// Mukautuva is in front: calls are charged, the version says so.
    muk: bool,
    deterministic_reductions: bool,
}

impl MukShim {
    /// Load the shim for a vendor (detect + `dlopen` the wrap library).
    pub fn load(vendor: Vendor, ctx: Rc<RankCtx>) -> MukShim {
        MukShim::open(vendor, ctx, true, false)
    }

    /// Open `vendor`'s wrap library over a freshly initialized vendor
    /// library, with Mukautuva in front when `muk` (otherwise the native
    /// baseline). `deterministic_reductions` turns on the rank-order fold
    /// (module docs); it is a feature of the shim, so it needs `muk`.
    pub fn open(
        vendor: Vendor,
        ctx: Rc<RankCtx>,
        muk: bool,
        deterministic_reductions: bool,
    ) -> MukShim {
        let lib = match vendor {
            Vendor::Mpich => Lib::Mpich(Wrap::open(Process::init(ctx.clone()))),
            Vendor::OpenMpi => Lib::OpenMpi(Wrap::open(Process::init(ctx.clone()))),
        };
        MukShim {
            ctx,
            lib,
            vendor,
            muk,
            deterministic_reductions: muk && deterministic_reductions,
        }
    }

    /// Charge the translation cost of one call, when Mukautuva is in
    /// front: fixed part plus dynamic handle lookups plus status
    /// conversions.
    fn charge(&self, handles: &[Handle], statuses: u64) {
        if self.muk {
            let dynamic = handles.iter().filter(|h| !h.is_predefined()).count() as u64;
            self.ctx.advance(VirtualTime::from_nanos(
                PER_CALL_NS + PER_DYNAMIC_HANDLE_NS * dynamic + PER_STATUS_NS * statuses,
            ));
        }
    }
}

/// Deterministic reductions: gather every rank's block at `root` and
/// there replace the blocks by their rank-order prefixes `b0`, `b0·b1`,
/// …, `b0·…·b(n−1)` — a left fold on the header's own kernels, charging
/// no reduction CPU. `None` off the root; at the root a receive buffer
/// of other than one block is `ERR_COUNT`.
fn rank_order_prefixes<V: NativeAbi>(
    p: &mut Process<V>,
    (op, kind): (BuiltinOp, ElemKind),
    sendbuf: &[u8],
    recv_len: usize,
    dt: V::Datatype,
    root: i32,
    comm: V::Comm,
) -> MpiResult<Option<Vec<u8>>> {
    let n = p.comm_size(comm)? as usize;
    let at_root = p.comm_rank(comm)? == root;
    let block = sendbuf.len();
    let mut blocks = vec![0u8; if at_root { block * n } else { 0 }];
    p.gather(sendbuf, &mut blocks, dt, root, comm)?;
    if !at_root {
        return Ok(None);
    }
    if recv_len != block {
        return Err(V::ERR_COUNT);
    }
    let mut acc = blocks[..block].to_vec();
    for r in 1..n {
        let next = r * block..(r + 1) * block;
        kernels::combine::<V>(op, kind, &mut acc, &blocks[next.clone()])?;
        blocks[next].copy_from_slice(&acc);
    }
    Ok(Some(blocks))
}

/// Copy the fold of all ranks — the last prefix — into `recvbuf`.
fn last_prefix(prefixes: Option<Vec<u8>>, recvbuf: &mut [u8]) {
    if let Some(prefixes) = prefixes {
        recvbuf.copy_from_slice(&prefixes[prefixes.len() - recvbuf.len()..]);
    }
}

impl MpiAbi for MukShim {
    fn library_version(&self) -> String {
        let native = wrap!(&self.lib, |w, W| w.native.version());
        if self.muk {
            format!("Mukautuva 1.0 via {} [{native}]", soname_for(self.vendor))
        } else {
            native.to_string()
        }
    }

    fn finalize(&mut self) -> AbiResult<()> {
        call!(self, &[], 0, |w, W| W::lift(w.native.finalize()))
    }

    fn is_finalized(&self) -> bool {
        wrap!(&self.lib, |w, W| w.native.is_finalized())
    }

    fn wtime(&mut self) -> f64 {
        wrap!(&self.lib, |w, W| w.native.wtime())
    }

    fn comm_size(&mut self, comm: Handle) -> AbiResult<i32> {
        call!(self, &[comm], 0, |w, W| {
            W::lift(w.native.comm_size(w.comm_in(comm)?))
        })
    }

    fn comm_rank(&mut self, comm: Handle) -> AbiResult<i32> {
        call!(self, &[comm], 0, |w, W| {
            W::lift(w.native.comm_rank(w.comm_in(comm)?))
        })
    }

    fn comm_translate_rank(&mut self, comm: Handle, rank: i32) -> AbiResult<i32> {
        call!(self, &[comm], 0, |w, W| {
            W::lift(w.native.comm_translate_rank(w.comm_in(comm)?, rank))
        })
    }

    fn send(
        &mut self,
        buf: &[u8],
        datatype: Handle,
        dest: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        call!(self, &[datatype, comm], 0, |w, W| {
            let (dt, c) = (w.dtype_in(datatype)?, w.comm_in(comm)?);
            W::lift(w.native.send(buf, dt, W::dest_in(dest), tag, c))
        })
    }

    fn recv(
        &mut self,
        buf: &mut [u8],
        datatype: Handle,
        src: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<AbiStatus> {
        call!(self, &[datatype, comm], 1, |w, W| {
            let (dt, c) = (w.dtype_in(datatype)?, w.comm_in(comm)?);
            let st = W::lift(w.native.recv(buf, dt, W::src_in(src), W::tag_in(tag), c))?;
            Ok(W::status_out(st))
        })
    }

    fn isend(
        &mut self,
        buf: &[u8],
        datatype: Handle,
        dest: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<Handle> {
        call!(self, &[datatype, comm], 0, |w, W| {
            let (dt, c) = (w.dtype_in(datatype)?, w.comm_in(comm)?);
            let req = W::lift(w.native.isend(buf, dt, W::dest_in(dest), tag, c))?;
            Ok(w.reqs.intern(req))
        })
    }

    fn irecv(
        &mut self,
        max_bytes: usize,
        datatype: Handle,
        src: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<Handle> {
        call!(self, &[datatype, comm], 0, |w, W| {
            let (dt, c) = (w.dtype_in(datatype)?, w.comm_in(comm)?);
            let (src, tag) = (W::src_in(src), W::tag_in(tag));
            let req = W::lift(w.native.irecv(max_bytes, dt, src, tag, c))?;
            Ok(w.reqs.intern(req))
        })
    }

    fn wait(&mut self, request: Handle) -> AbiResult<(AbiStatus, Option<Bytes>)> {
        call!(self, &[request], 1, |w, W| {
            let native = w.reqs.remove(request).ok_or(AbiError::Request)?;
            let (st, payload) = W::lift(w.native.wait(native))?;
            Ok((W::status_out(st), payload))
        })
    }

    fn truncated_status(&mut self) -> Option<AbiStatus> {
        wrap!(&mut self.lib, |w, W| w
            .native
            .take_truncated()
            .map(W::status_out))
    }

    fn test(&mut self, request: Handle) -> AbiResult<Option<(AbiStatus, Option<Bytes>)>> {
        call!(self, &[request], 1, |w, W| {
            let native = w.reqs.native_of(request).ok_or(AbiError::Request)?;
            let done = W::lift(w.native.test(native));
            // Completed or failed, the vendor has consumed the request:
            // the mapping goes too, so no stale standard handle can reach
            // a native handle the vendor hands out again.
            if !matches!(done, Ok(None)) {
                w.reqs.remove(request);
            }
            Ok(done?.map(|(st, payload)| (W::status_out(st), payload)))
        })
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
        call!(self, &[datatype, comm], 1, |w, W| {
            let (dt, c) = (w.dtype_in(datatype)?, w.comm_in(comm)?);
            let st = W::lift(w.native.sendrecv(
                sendbuf,
                W::dest_in(dest),
                sendtag,
                recvbuf,
                W::src_in(src),
                W::tag_in(recvtag),
                dt,
                c,
            ))?;
            Ok(W::status_out(st))
        })
    }

    fn probe(&mut self, src: i32, tag: i32, comm: Handle) -> AbiResult<AbiStatus> {
        call!(self, &[comm], 1, |w, W| {
            let c = w.comm_in(comm)?;
            let st = W::lift(w.native.probe(W::src_in(src), W::tag_in(tag), c))?;
            Ok(W::status_out(st))
        })
    }

    fn iprobe(&mut self, src: i32, tag: i32, comm: Handle) -> AbiResult<Option<AbiStatus>> {
        call!(self, &[comm], 1, |w, W| {
            let c = w.comm_in(comm)?;
            let st = W::lift(w.native.iprobe(W::src_in(src), W::tag_in(tag), c))?;
            Ok(st.map(W::status_out))
        })
    }

    fn barrier(&mut self, comm: Handle) -> AbiResult<()> {
        call!(self, &[comm], 0, |w, W| {
            let c = w.comm_in(comm)?;
            W::lift(w.native.barrier(c))
        })
    }

    fn bcast(
        &mut self,
        buf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        call!(self, &[datatype, comm], 0, |w, W| {
            let (dt, c) = (w.dtype_in(datatype)?, w.comm_in(comm)?);
            W::lift(w.native.bcast(buf, dt, root, c))
        })
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
        call!(self, &[datatype, op, comm], 0, |w, W| {
            let (dt, o, c) = (w.dtype_in(datatype)?, w.op_in(op)?, w.comm_in(comm)?);
            let Some(red) = W::builtin(dt, o).filter(|_| self.deterministic_reductions) else {
                return W::lift(w.native.reduce(sendbuf, recvbuf, dt, o, root, c));
            };
            let p = &mut w.native;
            let prefixes = rank_order_prefixes(p, red, sendbuf, recvbuf.len(), dt, root, c);
            last_prefix(W::lift(prefixes)?, recvbuf);
            Ok(())
        })
    }

    fn allreduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        call!(self, &[datatype, op, comm], 0, |w, W| {
            let (dt, o) = (w.dtype_in(datatype)?, w.op_in(op)?);
            let Some(red) = W::builtin(dt, o).filter(|_| self.deterministic_reductions) else {
                let c = w.comm_in(comm)?;
                return W::lift(w.native.allreduce(sendbuf, recvbuf, dt, o, c));
            };
            if recvbuf.len() != sendbuf.len() {
                return Err(AbiError::Count);
            }
            let c = w.comm_in(comm)?;
            let p = &mut w.native;
            let prefixes = rank_order_prefixes(p, red, sendbuf, recvbuf.len(), dt, 0, c);
            last_prefix(W::lift(prefixes)?, recvbuf);
            W::lift(p.bcast(recvbuf, dt, 0, c))
        })
    }

    fn gather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        call!(self, &[datatype, comm], 0, |w, W| {
            let (dt, c) = (w.dtype_in(datatype)?, w.comm_in(comm)?);
            W::lift(w.native.gather(sendbuf, recvbuf, dt, root, c))
        })
    }

    fn scatter(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        call!(self, &[datatype, comm], 0, |w, W| {
            let (dt, c) = (w.dtype_in(datatype)?, w.comm_in(comm)?);
            W::lift(w.native.scatter(sendbuf, recvbuf, dt, root, c))
        })
    }

    fn allgather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        call!(self, &[datatype, comm], 0, |w, W| {
            let (dt, c) = (w.dtype_in(datatype)?, w.comm_in(comm)?);
            W::lift(w.native.allgather(sendbuf, recvbuf, dt, c))
        })
    }

    fn alltoall(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        call!(self, &[datatype, comm], 0, |w, W| {
            let (dt, c) = (w.dtype_in(datatype)?, w.comm_in(comm)?);
            W::lift(w.native.alltoall(sendbuf, recvbuf, dt, c))
        })
    }

    fn scan(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        call!(self, &[datatype, op, comm], 0, |w, W| {
            let (dt, o) = (w.dtype_in(datatype)?, w.op_in(op)?);
            let Some(red) = W::builtin(dt, o).filter(|_| self.deterministic_reductions) else {
                let c = w.comm_in(comm)?;
                return W::lift(w.native.scan(sendbuf, recvbuf, dt, o, c));
            };
            if recvbuf.len() != sendbuf.len() {
                return Err(AbiError::Count);
            }
            let c = w.comm_in(comm)?;
            let p = &mut w.native;
            let prefixes = rank_order_prefixes(p, red, sendbuf, recvbuf.len(), dt, 0, c);
            let prefixes = W::lift(prefixes)?.unwrap_or_default();
            W::lift(p.scatter(&prefixes, recvbuf, dt, 0, c))
        })
    }

    fn comm_dup(&mut self, comm: Handle) -> AbiResult<Handle> {
        call!(self, &[comm], 0, |w, W| {
            let c = w.comm_in(comm)?;
            let dup = W::lift(w.native.comm_dup(c))?;
            Ok(w.comms.intern(dup))
        })
    }

    fn comm_split(&mut self, comm: Handle, color: i32, key: i32) -> AbiResult<Handle> {
        call!(self, &[comm], 0, |w, W| {
            let c = w.comm_in(comm)?;
            let sub = W::lift(w.native.comm_split(c, W::color_in(color), key))?;
            Ok(w.comm_out(sub))
        })
    }

    fn comm_free(&mut self, comm: Handle) -> AbiResult<()> {
        call!(self, &[comm], 0, |w, W| {
            let native = w.comms.remove(comm).ok_or(AbiError::Comm)?;
            W::lift(w.native.comm_free(native))
        })
    }

    fn type_size(&mut self, datatype: Handle) -> AbiResult<usize> {
        call!(self, &[datatype], 0, |w, W| {
            W::lift(w.native.type_size(w.dtype_in(datatype)?))
        })
    }

    fn type_contiguous(&mut self, count: i32, oldtype: Handle) -> AbiResult<Handle> {
        call!(self, &[oldtype], 0, |w, W| {
            let old = w.dtype_in(oldtype)?;
            let new = W::lift(w.native.type_contiguous(count, old))?;
            Ok(w.dtypes.intern(new))
        })
    }

    fn type_commit(&mut self, datatype: Handle) -> AbiResult<()> {
        call!(self, &[datatype], 0, |w, W| {
            let dt = w.dtype_in(datatype)?;
            W::lift(w.native.type_commit(dt))
        })
    }

    fn type_free(&mut self, datatype: Handle) -> AbiResult<()> {
        call!(self, &[datatype], 0, |w, W| {
            let native = w.dtypes.remove(datatype).ok_or(AbiError::Datatype)?;
            W::lift(w.native.type_free(native))
        })
    }

    fn op_create(&mut self, function: UserOpFn, commute: bool) -> AbiResult<Handle> {
        call!(self, &[], 0, |w, W| {
            // `UserOpFn` and the vendor's user-fn type have identical
            // shapes; the function pointer passes straight through, as in C.
            let native = W::lift(w.native.op_create(function, commute))?;
            Ok(w.ops.intern(native))
        })
    }

    fn op_free(&mut self, op: Handle) -> AbiResult<()> {
        call!(self, &[op], 0, |w, W| {
            let native = w.ops.remove(op).ok_or(AbiError::Op)?;
            W::lift(w.native.op_free(native))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_abi::Datatype;
    use simnet::{ClusterSpec, World};

    fn live_requests(shim: &MukShim) -> usize {
        wrap!(&shim.lib, |w, W| w.reqs.len())
    }

    /// A `test` the vendor fails has consumed the request: the mapping
    /// goes, and the next request — whose native handle MPICH recycles —
    /// gets a fresh standard handle.
    #[test]
    fn failed_test_drops_the_request_mapping_on_both_vendors() {
        let spec = ClusterSpec::builder().nodes(1).ranks_per_node(1).build();
        for vendor in Vendor::ALL {
            World::run(&spec, |ctx| {
                let mut shim = MukShim::open(vendor, ctx, false, false);
                let byte = Datatype::Byte.handle();
                let first = shim.irecv(4, byte, 0, 0, Handle::COMM_WORLD).unwrap();
                shim.send(&[0; 16], byte, 0, 0, Handle::COMM_WORLD).unwrap();
                assert_eq!(shim.test(first), Err(AbiError::Truncate));
                assert_eq!(live_requests(&shim), 0);
                assert_eq!(shim.test(first), Err(AbiError::Request));
                let second = shim.irecv(4, byte, 0, 1, Handle::COMM_WORLD).unwrap();
                assert_ne!(second, first);
                assert_eq!(shim.test(second), Ok(None));
                assert_eq!(live_requests(&shim), 1);
                Ok(())
            })
            .unwrap();
        }
    }
}
