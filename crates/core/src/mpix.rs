//! Typed convenience layer over the standard ABI.
//!
//! The ABI moves raw little-endian bytes (as a C ABI does); applications
//! prefer typed slices. [`Pmpi`] is a thin, zero-magic adapter — every
//! method lowers to exactly one ABI call, so interposition layers see the
//! same call stream the raw interface would produce.

use mpi_abi::{AbiResult, AbiStatus, Datatype, Handle, MpiAbi, ReduceOp};

/// Convert a f64 slice to wire bytes.
pub fn f64s_to_bytes(xs: &[f64]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Convert wire bytes to f64s (panics on length mismatch — caller sizes
/// buffers from element counts).
pub fn bytes_to_f64s(b: &[u8], out: &mut [f64]) {
    assert_eq!(b.len(), out.len() * 8, "byte/element length mismatch");
    for (chunk, slot) in b.chunks_exact(8).zip(out.iter_mut()) {
        *slot = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
}

/// Typed MPI operations over any ABI implementation.
pub struct Pmpi<'a> {
    mpi: &'a mut dyn MpiAbi,
}

impl<'a> Pmpi<'a> {
    /// Wrap an ABI handle.
    pub fn new(mpi: &'a mut dyn MpiAbi) -> Pmpi<'a> {
        Pmpi { mpi }
    }

    /// The raw ABI (escape hatch).
    pub fn raw(&mut self) -> &mut dyn MpiAbi {
        self.mpi
    }

    /// World size of a communicator.
    pub fn size(&mut self, comm: Handle) -> AbiResult<usize> {
        Ok(self.mpi.comm_size(comm)? as usize)
    }

    /// Rank within a communicator.
    pub fn rank(&mut self, comm: Handle) -> AbiResult<usize> {
        Ok(self.mpi.comm_rank(comm)? as usize)
    }

    /// Virtual wall clock in seconds.
    pub fn wtime(&mut self) -> f64 {
        self.mpi.wtime()
    }

    /// Blocking typed send.
    pub fn send_f64s(&mut self, data: &[f64], dest: i32, tag: i32, comm: Handle) -> AbiResult<()> {
        self.mpi.send(
            &f64s_to_bytes(data),
            Datatype::Double.handle(),
            dest,
            tag,
            comm,
        )
    }

    /// Blocking typed receive (exact length).
    pub fn recv_f64s(
        &mut self,
        out: &mut [f64],
        src: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<AbiStatus> {
        let mut buf = vec![0u8; out.len() * 8];
        let st = self
            .mpi
            .recv(&mut buf, Datatype::Double.handle(), src, tag, comm)?;
        bytes_to_f64s(
            &buf[..st.count_bytes as usize],
            &mut out[..st.count_bytes as usize / 8],
        );
        Ok(st)
    }

    /// Combined typed exchange.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv_f64s(
        &mut self,
        send: &[f64],
        dest: i32,
        sendtag: i32,
        recv: &mut [f64],
        src: i32,
        recvtag: i32,
        comm: Handle,
    ) -> AbiResult<AbiStatus> {
        let mut buf = vec![0u8; recv.len() * 8];
        let st = self.mpi.sendrecv(
            &f64s_to_bytes(send),
            dest,
            sendtag,
            &mut buf,
            src,
            recvtag,
            Datatype::Double.handle(),
            comm,
        )?;
        bytes_to_f64s(
            &buf[..st.count_bytes as usize],
            &mut recv[..st.count_bytes as usize / 8],
        );
        Ok(st)
    }

    /// Barrier.
    pub fn barrier(&mut self, comm: Handle) -> AbiResult<()> {
        self.mpi.barrier(comm)
    }

    /// Typed allreduce.
    pub fn allreduce_f64s(
        &mut self,
        send: &[f64],
        recv: &mut [f64],
        op: ReduceOp,
        comm: Handle,
    ) -> AbiResult<()> {
        let mut buf = vec![0u8; recv.len() * 8];
        self.mpi.allreduce(
            &f64s_to_bytes(send),
            &mut buf,
            Datatype::Double.handle(),
            op.handle(),
            comm,
        )?;
        bytes_to_f64s(&buf, recv);
        Ok(())
    }

    /// Scalar allreduce convenience.
    pub fn allreduce_f64(&mut self, x: f64, op: ReduceOp, comm: Handle) -> AbiResult<f64> {
        let mut out = [0.0];
        self.allreduce_f64s(&[x], &mut out, op, comm)?;
        Ok(out[0])
    }

    /// Typed gather of equal contributions to `root` (recv sized
    /// `nranks × send.len()` there, empty elsewhere).
    pub fn gather_f64s(
        &mut self,
        send: &[f64],
        recv: &mut [f64],
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        let mut buf = vec![0u8; recv.len() * 8];
        self.mpi.gather(
            &f64s_to_bytes(send),
            &mut buf,
            Datatype::Double.handle(),
            root,
            comm,
        )?;
        bytes_to_f64s(&buf, recv);
        Ok(())
    }

    /// Raw-byte alltoall (what the OSU kernels use).
    pub fn alltoall_bytes(&mut self, send: &[u8], recv: &mut [u8], comm: Handle) -> AbiResult<()> {
        self.mpi.alltoall(send, recv, Datatype::Byte.handle(), comm)
    }

    /// Raw-byte broadcast.
    pub fn bcast_bytes(&mut self, buf: &mut [u8], root: i32, comm: Handle) -> AbiResult<()> {
        self.mpi.bcast(buf, Datatype::Byte.handle(), root, comm)
    }

    /// Raw-byte allreduce with a numeric type view (f64 elements).
    pub fn allreduce_bytes_f64(
        &mut self,
        send: &[u8],
        recv: &mut [u8],
        op: ReduceOp,
        comm: Handle,
    ) -> AbiResult<()> {
        self.mpi
            .allreduce(send, recv, Datatype::Double.handle(), op.handle(), comm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{Stack, StackSpec};
    use muk::Vendor;
    use simnet::{ClusterSpec, World};

    #[test]
    fn conversions_round_trip() {
        let xs = [1.5, -2.25, 1e300, f64::MIN_POSITIVE];
        let b = f64s_to_bytes(&xs);
        let mut back = [0.0; 4];
        bytes_to_f64s(&b, &mut back);
        assert_eq!(xs, back);
    }

    #[test]
    fn typed_ops_over_both_vendors() {
        let cluster = ClusterSpec::builder().nodes(1).ranks_per_node(3).build();
        for vendor in [Vendor::Mpich, Vendor::OpenMpi] {
            let out = World::run(&cluster, |ctx| {
                let ss = StackSpec::native(vendor);
                let mut stack = Stack::build(&ss, &ctx);
                let p = Pmpi::new(stack.mpi());
                let run = || -> AbiResult<f64> {
                    let mut p = p;
                    let me = p.rank(Handle::COMM_WORLD)? as f64;
                    p.allreduce_f64(me + 1.0, ReduceOp::Sum, Handle::COMM_WORLD)
                };
                run().map_err(|e| simnet::SimError::InvalidConfig(e.to_string()))
            })
            .unwrap();
            assert_eq!(out.results, vec![6.0; 3]);
        }
    }
}
