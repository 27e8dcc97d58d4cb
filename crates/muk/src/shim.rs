//! `libmuk.so`: the standard-ABI front end.
//!
//! [`MukShim`] is what an ABI-compliant application (or the MANA wrappers)
//! links against. It owns a wrap library chosen at runtime via the
//! [`crate::registry`], forwards every standard-ABI call through it, and
//! charges the translation cost of the call to the rank's virtual clock —
//! a fixed per-call cost, plus a table-lookup cost for each dynamic handle
//! argument (predefined handles translate by constant-time arithmetic) and
//! a conversion cost for each status returned.

use std::rc::Rc;

use bytes::Bytes;

use mpi_abi::{AbiError, AbiResult, AbiStatus, Datatype, Handle, MpiAbi, ReduceOp, UserOpFn};
use simnet::RankCtx;

use crate::fold;
use crate::overhead::MukOverhead;
use crate::registry::{open_wrap, soname_for, Vendor};

/// The Mukautuva shim: a standard-ABI library bound to one vendor.
pub struct MukShim {
    ctx: Rc<RankCtx>,
    inner: Box<dyn MpiAbi>,
    vendor: Vendor,
    overhead: MukOverhead,
    deterministic_reductions: bool,
}

impl MukShim {
    /// Load the shim for a vendor (detect + `dlopen` the wrap library).
    pub fn load(vendor: Vendor, ctx: Rc<RankCtx>) -> MukShim {
        Self::load_with_overhead(vendor, ctx, MukOverhead::default())
    }

    /// Load with an explicit overhead model (ablations).
    pub fn load_with_overhead(vendor: Vendor, ctx: Rc<RankCtx>, overhead: MukOverhead) -> MukShim {
        let inner = open_wrap(soname_for(vendor), ctx.clone()).expect("known vendor");
        MukShim {
            ctx,
            inner,
            vendor,
            overhead,
            deterministic_reductions: false,
        }
    }

    /// Which vendor this shim instance is bound to.
    pub fn vendor(&self) -> Vendor {
        self.vendor
    }

    /// Route `MPI_Reduce`/`MPI_Allreduce`/`MPI_Scan` on predefined types
    /// and operations through a canonical rank-ordered fold (gather +
    /// left fold + redistribute) instead of the vendor's native
    /// algorithm. The result becomes bitwise identical across MPI
    /// implementations — at the cost of a less scalable algorithm — which
    /// matters when a computation is checkpointed under one vendor and
    /// restarted under another (see `crate::fold`). User-defined
    /// operations and derived datatypes still use the vendor path.
    pub fn set_deterministic_reductions(&mut self, on: bool) {
        self.deterministic_reductions = on;
    }

    /// Whether deterministic reductions are enabled.
    pub fn deterministic_reductions(&self) -> bool {
        self.deterministic_reductions
    }

    /// The (op, datatype) pair if this reduction is eligible for the
    /// canonical fold.
    fn foldable(&self, op: Handle, datatype: Handle) -> Option<(ReduceOp, Datatype)> {
        if !self.deterministic_reductions {
            return None;
        }
        Some((ReduceOp::from_handle(op)?, Datatype::from_handle(datatype)?))
    }

    /// Canonical allreduce: gather to rank 0, left-fold in rank order,
    /// broadcast the folded result.
    fn allreduce_canonical(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: ReduceOp,
        dt: Datatype,
        comm: Handle,
    ) -> AbiResult<()> {
        let n = self.inner.comm_size(comm)? as usize;
        let me = self.inner.comm_rank(comm)?;
        let mut gathered = vec![0u8; if me == 0 { sendbuf.len() * n } else { 0 }];
        self.inner
            .gather(sendbuf, &mut gathered, datatype, 0, comm)?;
        if me == 0 {
            fold::fold_ranks(op, dt, &gathered, n, recvbuf)?;
        }
        self.inner.bcast(recvbuf, datatype, 0, comm)?;
        Ok(())
    }

    /// Charge the translation cost of one call: fixed part plus dynamic
    /// handle lookups plus status conversions.
    fn charge(&self, handles: &[Handle], statuses: usize) {
        let dynamic = handles.iter().filter(|h| !h.is_predefined()).count() as u64;
        let cost = self
            .overhead
            .per_call
            .0
            .saturating_add(self.overhead.per_dynamic_handle.0.saturating_mul(dynamic))
            .saturating_add(self.overhead.per_status.0.saturating_mul(statuses as u64));
        self.ctx.advance(simnet::VirtualTime(cost));
    }
}

impl MpiAbi for MukShim {
    fn library_version(&self) -> String {
        format!(
            "Mukautuva 1.0 via {} [{}]",
            soname_for(self.vendor),
            self.inner.library_version()
        )
    }

    fn finalize(&mut self) -> AbiResult<()> {
        self.charge(&[], 0);
        self.inner.finalize()
    }

    fn is_finalized(&self) -> bool {
        self.inner.is_finalized()
    }

    fn wtime(&mut self) -> f64 {
        self.inner.wtime()
    }

    fn comm_size(&mut self, comm: Handle) -> AbiResult<i32> {
        self.charge(&[comm], 0);
        self.inner.comm_size(comm)
    }

    fn comm_rank(&mut self, comm: Handle) -> AbiResult<i32> {
        self.charge(&[comm], 0);
        self.inner.comm_rank(comm)
    }

    fn comm_translate_rank(&mut self, comm: Handle, rank: i32) -> AbiResult<i32> {
        self.charge(&[comm], 0);
        self.inner.comm_translate_rank(comm, rank)
    }

    fn send(
        &mut self,
        buf: &[u8],
        datatype: Handle,
        dest: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        self.charge(&[datatype, comm], 0);
        self.inner.send(buf, datatype, dest, tag, comm)
    }

    fn recv(
        &mut self,
        buf: &mut [u8],
        datatype: Handle,
        src: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<AbiStatus> {
        self.charge(&[datatype, comm], 1);
        self.inner.recv(buf, datatype, src, tag, comm)
    }

    fn isend(
        &mut self,
        buf: &[u8],
        datatype: Handle,
        dest: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<Handle> {
        self.charge(&[datatype, comm], 0);
        self.inner.isend(buf, datatype, dest, tag, comm)
    }

    fn irecv(
        &mut self,
        max_bytes: usize,
        datatype: Handle,
        src: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<Handle> {
        self.charge(&[datatype, comm], 0);
        self.inner.irecv(max_bytes, datatype, src, tag, comm)
    }

    fn wait(&mut self, request: Handle) -> AbiResult<(AbiStatus, Option<Bytes>)> {
        self.charge(&[request], 1);
        self.inner.wait(request)
    }

    fn test(&mut self, request: Handle) -> AbiResult<Option<(AbiStatus, Option<Bytes>)>> {
        self.charge(&[request], 1);
        self.inner.test(request)
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
        self.charge(&[datatype, comm], 1);
        self.inner.sendrecv(
            sendbuf, dest, sendtag, recvbuf, src, recvtag, datatype, comm,
        )
    }

    fn probe(&mut self, src: i32, tag: i32, comm: Handle) -> AbiResult<AbiStatus> {
        self.charge(&[comm], 1);
        self.inner.probe(src, tag, comm)
    }

    fn iprobe(&mut self, src: i32, tag: i32, comm: Handle) -> AbiResult<Option<AbiStatus>> {
        self.charge(&[comm], 1);
        self.inner.iprobe(src, tag, comm)
    }

    fn barrier(&mut self, comm: Handle) -> AbiResult<()> {
        self.charge(&[comm], 0);
        self.inner.barrier(comm)
    }

    fn bcast(
        &mut self,
        buf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        self.charge(&[datatype, comm], 0);
        self.inner.bcast(buf, datatype, root, comm)
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
        self.charge(&[datatype, op, comm], 0);
        if let Some((rop, dt)) = self.foldable(op, datatype) {
            let n = self.inner.comm_size(comm)? as usize;
            let me = self.inner.comm_rank(comm)?;
            let mut gathered = vec![0u8; if me == root { sendbuf.len() * n } else { 0 }];
            self.inner
                .gather(sendbuf, &mut gathered, datatype, root, comm)?;
            if me == root {
                fold::fold_ranks(rop, dt, &gathered, n, recvbuf)?;
            }
            return Ok(());
        }
        self.inner
            .reduce(sendbuf, recvbuf, datatype, op, root, comm)
    }

    fn allreduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        self.charge(&[datatype, op, comm], 0);
        if let Some((rop, dt)) = self.foldable(op, datatype) {
            if recvbuf.len() != sendbuf.len() {
                return Err(AbiError::Count);
            }
            return self.allreduce_canonical(sendbuf, recvbuf, datatype, rop, dt, comm);
        }
        self.inner.allreduce(sendbuf, recvbuf, datatype, op, comm)
    }

    fn gather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        self.charge(&[datatype, comm], 0);
        self.inner.gather(sendbuf, recvbuf, datatype, root, comm)
    }

    fn scatter(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        self.charge(&[datatype, comm], 0);
        self.inner.scatter(sendbuf, recvbuf, datatype, root, comm)
    }

    fn allgather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        self.charge(&[datatype, comm], 0);
        self.inner.allgather(sendbuf, recvbuf, datatype, comm)
    }

    fn alltoall(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        self.charge(&[datatype, comm], 0);
        self.inner.alltoall(sendbuf, recvbuf, datatype, comm)
    }

    fn scan(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        self.charge(&[datatype, op, comm], 0);
        if let Some((rop, dt)) = self.foldable(op, datatype) {
            if recvbuf.len() != sendbuf.len() {
                return Err(AbiError::Count);
            }
            // Gather to rank 0, compute all rank-ordered prefixes, scatter.
            let n = self.inner.comm_size(comm)? as usize;
            let me = self.inner.comm_rank(comm)?;
            let block = sendbuf.len();
            let mut gathered = vec![0u8; if me == 0 { block * n } else { 0 }];
            self.inner
                .gather(sendbuf, &mut gathered, datatype, 0, comm)?;
            let mut prefixes = vec![0u8; if me == 0 { block * n } else { 0 }];
            if me == 0 {
                let mut acc = gathered[..block].to_vec();
                prefixes[..block].copy_from_slice(&acc);
                for r in 1..n {
                    fold::combine(rop, dt, &mut acc, &gathered[r * block..(r + 1) * block])?;
                    prefixes[r * block..(r + 1) * block].copy_from_slice(&acc);
                }
            }
            return self.inner.scatter(&prefixes, recvbuf, datatype, 0, comm);
        }
        self.inner.scan(sendbuf, recvbuf, datatype, op, comm)
    }

    fn comm_dup(&mut self, comm: Handle) -> AbiResult<Handle> {
        self.charge(&[comm], 0);
        self.inner.comm_dup(comm)
    }

    fn comm_split(&mut self, comm: Handle, color: i32, key: i32) -> AbiResult<Handle> {
        self.charge(&[comm], 0);
        self.inner.comm_split(comm, color, key)
    }

    fn comm_free(&mut self, comm: Handle) -> AbiResult<()> {
        self.charge(&[comm], 0);
        self.inner.comm_free(comm)
    }

    fn type_size(&mut self, datatype: Handle) -> AbiResult<usize> {
        self.charge(&[datatype], 0);
        self.inner.type_size(datatype)
    }

    fn type_contiguous(&mut self, count: i32, oldtype: Handle) -> AbiResult<Handle> {
        self.charge(&[oldtype], 0);
        self.inner.type_contiguous(count, oldtype)
    }

    fn type_commit(&mut self, datatype: Handle) -> AbiResult<()> {
        self.charge(&[datatype], 0);
        self.inner.type_commit(datatype)
    }

    fn type_free(&mut self, datatype: Handle) -> AbiResult<()> {
        self.charge(&[datatype], 0);
        self.inner.type_free(datatype)
    }

    fn op_create(&mut self, function: UserOpFn, commute: bool) -> AbiResult<Handle> {
        self.charge(&[], 0);
        self.inner.op_create(function, commute)
    }

    fn op_free(&mut self, op: Handle) -> AbiResult<()> {
        self.charge(&[op], 0);
        self.inner.op_free(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_abi::{consts, Datatype};
    use simnet::{ClusterSpec, World};

    fn err(e: mpi_abi::AbiError) -> simnet::SimError {
        simnet::SimError::InvalidConfig(e.to_string())
    }

    #[test]
    fn same_binary_runs_on_both_vendors() {
        // The "compiled once" property: identical application code over
        // both vendors, via the standard ABI only.
        let app = |mpi: &mut dyn MpiAbi| -> AbiResult<Vec<f64>> {
            let n = mpi.comm_size(Handle::COMM_WORLD)?;
            let me = mpi.comm_rank(Handle::COMM_WORLD)?;
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;
            mpi.send(
                &(me as f64).to_le_bytes(),
                Datatype::Double.handle(),
                next,
                1,
                Handle::COMM_WORLD,
            )?;
            let mut buf = [0u8; 8];
            let st = mpi.recv(
                &mut buf,
                Datatype::Double.handle(),
                prev,
                1,
                Handle::COMM_WORLD,
            )?;
            assert_eq!(st.source, prev);
            let got = f64::from_le_bytes(buf);
            let mut sum = vec![0u8; 8];
            mpi.allreduce(
                &(me as f64).to_le_bytes(),
                &mut sum,
                Datatype::Double.handle(),
                mpi_abi::ReduceOp::Sum.handle(),
                Handle::COMM_WORLD,
            )?;
            Ok(vec![got, f64::from_le_bytes(sum[..].try_into().unwrap())])
        };

        let spec = ClusterSpec::builder().nodes(2).ranks_per_node(2).build();
        for vendor in Vendor::ALL {
            let out = World::run(&spec, |ctx| {
                let mut shim = MukShim::load(vendor, ctx);
                app(&mut shim).map_err(err)
            })
            .unwrap()
            .results;
            // Ring neighbour value and world sum are vendor-independent.
            for (me, r) in out.iter().enumerate() {
                assert_eq!(r[0], ((me + 3) % 4) as f64, "{vendor}");
                assert_eq!(r[1], 6.0, "{vendor}");
            }
        }
    }

    #[test]
    fn version_reports_both_layers() {
        let spec = ClusterSpec::builder().nodes(1).ranks_per_node(1).build();
        World::run(&spec, |ctx| {
            let shim = MukShim::load(Vendor::OpenMpi, ctx);
            let v = shim.library_version();
            assert!(v.contains("Mukautuva"));
            assert!(v.contains("libompi-wrap.so"));
            assert!(v.contains("ompi-sim"));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn translation_overhead_is_charged() {
        let spec = ClusterSpec::builder().nodes(1).ranks_per_node(1).build();
        World::run(&spec, |ctx| {
            let mut shim = MukShim::load(Vendor::Mpich, ctx.clone());
            let t0 = ctx.now();
            for _ in 0..100 {
                shim.comm_rank(Handle::COMM_WORLD).map_err(err)?;
            }
            let charged = ctx.now() - t0;
            let expected = MukOverhead::default().per_call.as_nanos() * 100;
            assert!(charged.as_nanos() >= expected, "{charged:?} < {expected}ns");
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn standard_wildcards_work_on_both_vendors() {
        let spec = ClusterSpec::builder().nodes(1).ranks_per_node(2).build();
        for vendor in Vendor::ALL {
            let out = World::run(&spec, |ctx| {
                let mut shim = MukShim::load(vendor, ctx.clone());
                let me = shim.comm_rank(Handle::COMM_WORLD).map_err(err)?;
                if me == 0 {
                    shim.send(b"ping", Datatype::Byte.handle(), 1, 9, Handle::COMM_WORLD)
                        .map_err(err)?;
                    Ok(0)
                } else {
                    let mut buf = [0u8; 4];
                    let st = shim
                        .recv(
                            &mut buf,
                            Datatype::Byte.handle(),
                            consts::ANY_SOURCE,
                            consts::ANY_TAG,
                            Handle::COMM_WORLD,
                        )
                        .map_err(err)?;
                    assert_eq!(st.source, 0);
                    assert_eq!(st.tag, 9);
                    Ok(1)
                }
            })
            .unwrap()
            .results;
            assert_eq!(out, vec![0, 1], "{vendor}");
        }
    }

    #[test]
    fn proc_null_translation_both_vendors() {
        let spec = ClusterSpec::builder().nodes(1).ranks_per_node(1).build();
        for vendor in Vendor::ALL {
            World::run(&spec, |ctx| {
                let mut shim = MukShim::load(vendor, ctx);
                shim.send(
                    &[1u8],
                    Datatype::Byte.handle(),
                    consts::PROC_NULL,
                    0,
                    Handle::COMM_WORLD,
                )
                .map_err(err)?;
                let mut b = [0u8; 1];
                let st = shim
                    .recv(
                        &mut b,
                        Datatype::Byte.handle(),
                        consts::PROC_NULL,
                        0,
                        Handle::COMM_WORLD,
                    )
                    .map_err(err)?;
                assert_eq!(
                    st.source,
                    consts::PROC_NULL,
                    "{vendor}: PROC_NULL must round-trip"
                );
                assert_eq!(st.count_bytes, 0);
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn dynamic_objects_through_the_shim() {
        let spec = ClusterSpec::builder().nodes(1).ranks_per_node(2).build();
        for vendor in Vendor::ALL {
            World::run(&spec, |ctx| {
                let mut shim = MukShim::load(vendor, ctx);
                let dup = shim.comm_dup(Handle::COMM_WORLD).map_err(err)?;
                assert!(!dup.is_predefined());
                assert_eq!(shim.comm_size(dup).map_err(err)?, 2);
                let vec3 = shim
                    .type_contiguous(3, Datatype::Double.handle())
                    .map_err(err)?;
                assert_eq!(shim.type_size(vec3).map_err(err)?, 24);
                shim.type_commit(vec3).map_err(err)?;
                // Exchange using the derived type over the dup'd comm.
                let me = shim.comm_rank(dup).map_err(err)?;
                let other = 1 - me;
                let data: Vec<u8> = [me as f64; 3]
                    .iter()
                    .flat_map(|x| x.to_le_bytes())
                    .collect();
                let mut got = vec![0u8; 24];
                shim.sendrecv(&data, other, 0, &mut got, other, 0, vec3, dup)
                    .map_err(err)?;
                assert_eq!(
                    f64::from_le_bytes(got[0..8].try_into().unwrap()),
                    other as f64
                );
                shim.type_free(vec3).map_err(err)?;
                shim.comm_free(dup).map_err(err)?;
                assert!(shim.comm_size(dup).is_err());
                Ok(())
            })
            .unwrap();
        }
    }
}
