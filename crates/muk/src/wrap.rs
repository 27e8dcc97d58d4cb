//! The wrap library: what makes a vendor library speak the standard ABI.
//!
//! Real Mukautuva's wrap library is **one** source compiled once per MPI
//! against that MPI's `mpi.h` (`libmpich-wrap.so`, `libompi-wrap.so`).
//! [`Wrap<V>`] is that source and `V` is the header: it is the only place
//! outside a vendor crate that touches the vendor's native handle
//! encodings, constants, status layout and error codes, and it reads all
//! of them through [`NativeAbi`]. Every standard-ABI call is translated
//! argument by argument, exactly the per-call work real wrap libraries
//! do; with the ABI as a table, the translation is table-driven.

use bytes::Bytes;

use mpi_abi::{
    consts, AbiError, AbiResult, AbiStatus, Datatype, Handle, HandleKind, MpiAbi, ReduceOp,
    UserOpFn,
};
use simnet::mpi::{MpiResult, NativeAbi, NativeStatus, Process};

use crate::bimap::BiMap;

/// Translate a native error code of `V` to a standard error class.
fn err_from_native<V: NativeAbi>(code: i32) -> AbiError {
    let classes = [
        (V::ERR_BUFFER, AbiError::Buffer),
        (V::ERR_COUNT, AbiError::Count),
        (V::ERR_TYPE, AbiError::Datatype),
        (V::ERR_TAG, AbiError::Tag),
        (V::ERR_COMM, AbiError::Comm),
        (V::ERR_RANK, AbiError::Rank),
        (V::ERR_ROOT, AbiError::Root),
        (V::ERR_GROUP, AbiError::Group),
        (V::ERR_OP, AbiError::Op),
        (V::ERR_REQUEST, AbiError::Request),
        (V::ERR_TRUNCATE, AbiError::Truncate),
        (V::ERR_ARG, AbiError::Arg),
        (V::ERR_INTERN, AbiError::Intern),
        (V::ERR_PROC_FAILED, AbiError::ProcFailed),
        (V::ERR_SHUTDOWN, AbiError::Shutdown),
        (V::ERR_FINALIZED, AbiError::Finalized),
    ];
    classes
        .iter()
        .find(|(native, _)| *native == code)
        .map_or(AbiError::Other, |&(_, class)| class)
}

/// The predefined datatype translation (standard → native): the header's
/// table is in ABI index order.
fn dtype_native_of<V: NativeAbi>(d: Datatype) -> V::Datatype {
    V::DATATYPES[d.abi_index() as usize - 1].0
}

/// The predefined reduction-op translation (standard → native).
fn op_native_of<V: NativeAbi>(op: ReduceOp) -> V::Op {
    V::OPS[op.abi_index() as usize - 1]
}

/// The wrap library over the vendor library whose header is `V`.
pub struct Wrap<V: NativeAbi> {
    native: Process<V>,
    comms: BiMap<V::Comm>,
    dtypes: BiMap<V::Datatype>,
    ops: BiMap<V::Op>,
    reqs: BiMap<V::Request>,
}

impl<V: NativeAbi> Wrap<V> {
    /// "Load" the wrap library over an initialized vendor library.
    pub fn open(native: Process<V>) -> Wrap<V> {
        Wrap {
            native,
            comms: BiMap::new(HandleKind::Comm),
            dtypes: BiMap::new(HandleKind::Datatype),
            ops: BiMap::new(HandleKind::Op),
            reqs: BiMap::new(HandleKind::Request),
        }
    }

    // ---- argument translation ------------------------------------------

    fn comm_in(&self, h: Handle) -> AbiResult<V::Comm> {
        match h {
            Handle::COMM_WORLD => Ok(V::COMM_WORLD),
            Handle::COMM_SELF => Ok(V::COMM_SELF),
            Handle::COMM_NULL => Err(AbiError::Comm),
            h => self.comms.native_of(h).ok_or(AbiError::Comm),
        }
    }

    fn dtype_in(&self, h: Handle) -> AbiResult<V::Datatype> {
        if let Some(d) = Datatype::from_handle(h) {
            return Ok(dtype_native_of::<V>(d));
        }
        self.dtypes.native_of(h).ok_or(AbiError::Datatype)
    }

    fn op_in(&self, h: Handle) -> AbiResult<V::Op> {
        if let Some(op) = ReduceOp::from_handle(h) {
            return Ok(op_native_of::<V>(op));
        }
        self.ops.native_of(h).ok_or(AbiError::Op)
    }

    fn src_in(src: i32) -> i32 {
        match src {
            consts::ANY_SOURCE => V::ANY_SOURCE,
            consts::PROC_NULL => V::PROC_NULL,
            r => r,
        }
    }

    fn dest_in(dest: i32) -> i32 {
        if dest == consts::PROC_NULL {
            V::PROC_NULL
        } else {
            dest
        }
    }

    fn tag_in(tag: i32) -> i32 {
        if tag == consts::ANY_TAG {
            V::ANY_TAG
        } else {
            tag
        }
    }

    fn status_out(st: V::Status) -> AbiStatus {
        let source = match st.source() {
            r if r == V::PROC_NULL => consts::PROC_NULL,
            r if r == V::ANY_SOURCE => consts::ANY_SOURCE,
            r => r,
        };
        let tag = if st.tag() == V::ANY_TAG {
            consts::ANY_TAG
        } else {
            st.tag()
        };
        AbiStatus {
            source,
            tag,
            error: if st.error() == V::SUCCESS {
                0
            } else {
                err_from_native::<V>(st.error()).code()
            },
            count_bytes: st.count_bytes(),
        }
    }

    fn lift<T>(r: MpiResult<T>) -> AbiResult<T> {
        r.map_err(err_from_native::<V>)
    }
}

impl<V: NativeAbi> MpiAbi for Wrap<V> {
    fn library_version(&self) -> String {
        self.native.version().to_string()
    }

    fn finalize(&mut self) -> AbiResult<()> {
        Self::lift(self.native.finalize())
    }

    fn is_finalized(&self) -> bool {
        self.native.is_finalized()
    }

    fn wtime(&mut self) -> f64 {
        self.native.wtime()
    }

    fn comm_size(&mut self, comm: Handle) -> AbiResult<i32> {
        let c = self.comm_in(comm)?;
        Self::lift(self.native.comm_size(c))
    }

    fn comm_rank(&mut self, comm: Handle) -> AbiResult<i32> {
        let c = self.comm_in(comm)?;
        Self::lift(self.native.comm_rank(c))
    }

    fn comm_translate_rank(&mut self, comm: Handle, rank: i32) -> AbiResult<i32> {
        let c = self.comm_in(comm)?;
        Self::lift(self.native.comm_translate_rank(c, rank))
    }

    fn send(
        &mut self,
        buf: &[u8],
        datatype: Handle,
        dest: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        let (dt, c) = (self.dtype_in(datatype)?, self.comm_in(comm)?);
        Self::lift(self.native.send(buf, dt, Self::dest_in(dest), tag, c))
    }

    fn recv(
        &mut self,
        buf: &mut [u8],
        datatype: Handle,
        src: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<AbiStatus> {
        let (dt, c) = (self.dtype_in(datatype)?, self.comm_in(comm)?);
        let st = Self::lift(
            self.native
                .recv(buf, dt, Self::src_in(src), Self::tag_in(tag), c),
        )?;
        Ok(Self::status_out(st))
    }

    fn isend(
        &mut self,
        buf: &[u8],
        datatype: Handle,
        dest: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<Handle> {
        let (dt, c) = (self.dtype_in(datatype)?, self.comm_in(comm)?);
        let req = Self::lift(self.native.isend(buf, dt, Self::dest_in(dest), tag, c))?;
        Ok(self.reqs.intern(req))
    }

    fn irecv(
        &mut self,
        max_bytes: usize,
        datatype: Handle,
        src: i32,
        tag: i32,
        comm: Handle,
    ) -> AbiResult<Handle> {
        let (dt, c) = (self.dtype_in(datatype)?, self.comm_in(comm)?);
        let req =
            Self::lift(
                self.native
                    .irecv(max_bytes, dt, Self::src_in(src), Self::tag_in(tag), c),
            )?;
        Ok(self.reqs.intern(req))
    }

    fn wait(&mut self, request: Handle) -> AbiResult<(AbiStatus, Option<Bytes>)> {
        let native = self.reqs.remove(request).ok_or(AbiError::Request)?;
        let (st, payload) = Self::lift(self.native.wait(native))?;
        Ok((Self::status_out(st), payload))
    }

    fn test(&mut self, request: Handle) -> AbiResult<Option<(AbiStatus, Option<Bytes>)>> {
        let native = self.reqs.native_of(request).ok_or(AbiError::Request)?;
        let done = Self::lift(self.native.test(native));
        // Completed or failed, the vendor has consumed the request: the
        // mapping goes too, so no stale standard handle can reach a
        // native handle the vendor hands out again.
        if !matches!(done, Ok(None)) {
            self.reqs.remove(request);
        }
        Ok(done?.map(|(st, payload)| (Self::status_out(st), payload)))
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
        let (dt, c) = (self.dtype_in(datatype)?, self.comm_in(comm)?);
        let st = Self::lift(self.native.sendrecv(
            sendbuf,
            Self::dest_in(dest),
            sendtag,
            recvbuf,
            Self::src_in(src),
            Self::tag_in(recvtag),
            dt,
            c,
        ))?;
        Ok(Self::status_out(st))
    }

    fn probe(&mut self, src: i32, tag: i32, comm: Handle) -> AbiResult<AbiStatus> {
        let c = self.comm_in(comm)?;
        let st = Self::lift(self.native.probe(Self::src_in(src), Self::tag_in(tag), c))?;
        Ok(Self::status_out(st))
    }

    fn iprobe(&mut self, src: i32, tag: i32, comm: Handle) -> AbiResult<Option<AbiStatus>> {
        let c = self.comm_in(comm)?;
        let st = Self::lift(self.native.iprobe(Self::src_in(src), Self::tag_in(tag), c))?;
        Ok(st.map(Self::status_out))
    }

    fn barrier(&mut self, comm: Handle) -> AbiResult<()> {
        let c = self.comm_in(comm)?;
        Self::lift(self.native.barrier(c))
    }

    fn bcast(
        &mut self,
        buf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        let (dt, c) = (self.dtype_in(datatype)?, self.comm_in(comm)?);
        Self::lift(self.native.bcast(buf, dt, root, c))
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
        let (dt, o, c) = (
            self.dtype_in(datatype)?,
            self.op_in(op)?,
            self.comm_in(comm)?,
        );
        Self::lift(self.native.reduce(sendbuf, recvbuf, dt, o, root, c))
    }

    fn allreduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        let (dt, o, c) = (
            self.dtype_in(datatype)?,
            self.op_in(op)?,
            self.comm_in(comm)?,
        );
        Self::lift(self.native.allreduce(sendbuf, recvbuf, dt, o, c))
    }

    fn gather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        let (dt, c) = (self.dtype_in(datatype)?, self.comm_in(comm)?);
        Self::lift(self.native.gather(sendbuf, recvbuf, dt, root, c))
    }

    fn scatter(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        root: i32,
        comm: Handle,
    ) -> AbiResult<()> {
        let (dt, c) = (self.dtype_in(datatype)?, self.comm_in(comm)?);
        Self::lift(self.native.scatter(sendbuf, recvbuf, dt, root, c))
    }

    fn allgather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        let (dt, c) = (self.dtype_in(datatype)?, self.comm_in(comm)?);
        Self::lift(self.native.allgather(sendbuf, recvbuf, dt, c))
    }

    fn alltoall(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        let (dt, c) = (self.dtype_in(datatype)?, self.comm_in(comm)?);
        Self::lift(self.native.alltoall(sendbuf, recvbuf, dt, c))
    }

    fn scan(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        datatype: Handle,
        op: Handle,
        comm: Handle,
    ) -> AbiResult<()> {
        let (dt, o, c) = (
            self.dtype_in(datatype)?,
            self.op_in(op)?,
            self.comm_in(comm)?,
        );
        Self::lift(self.native.scan(sendbuf, recvbuf, dt, o, c))
    }

    fn comm_dup(&mut self, comm: Handle) -> AbiResult<Handle> {
        let c = self.comm_in(comm)?;
        let dup = Self::lift(self.native.comm_dup(c))?;
        Ok(self.comms.intern(dup))
    }

    fn comm_split(&mut self, comm: Handle, color: i32, key: i32) -> AbiResult<Handle> {
        let c = self.comm_in(comm)?;
        let color = if color == consts::UNDEFINED {
            V::UNDEFINED
        } else {
            color
        };
        let sub = Self::lift(self.native.comm_split(c, color, key))?;
        if sub == V::COMM_NULL {
            Ok(Handle::COMM_NULL)
        } else {
            Ok(self.comms.intern(sub))
        }
    }

    fn comm_free(&mut self, comm: Handle) -> AbiResult<()> {
        let native = self.comms.remove(comm).ok_or(AbiError::Comm)?;
        Self::lift(self.native.comm_free(native))
    }

    fn type_size(&mut self, datatype: Handle) -> AbiResult<usize> {
        let dt = self.dtype_in(datatype)?;
        Self::lift(self.native.type_size(dt))
    }

    fn type_contiguous(&mut self, count: i32, oldtype: Handle) -> AbiResult<Handle> {
        let old = self.dtype_in(oldtype)?;
        let new = Self::lift(self.native.type_contiguous(count, old))?;
        Ok(self.dtypes.intern(new))
    }

    fn type_commit(&mut self, datatype: Handle) -> AbiResult<()> {
        let dt = self.dtype_in(datatype)?;
        Self::lift(self.native.type_commit(dt))
    }

    fn type_free(&mut self, datatype: Handle) -> AbiResult<()> {
        let native = self.dtypes.remove(datatype).ok_or(AbiError::Datatype)?;
        Self::lift(self.native.type_free(native))
    }

    fn op_create(&mut self, function: UserOpFn, commute: bool) -> AbiResult<Handle> {
        // `UserOpFn` and the vendor's user-fn type have identical shapes;
        // the function pointer passes straight through, as in C.
        let native = Self::lift(self.native.op_create(function, commute))?;
        Ok(self.ops.intern(native))
    }

    fn op_free(&mut self, op: Handle) -> AbiResult<()> {
        let native = self.ops.remove(op).ok_or(AbiError::Op)?;
        Self::lift(self.native.op_free(native))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpich_sim::Mpich;
    use ompi_sim::OpenMpi;
    use simnet::{ClusterSpec, World};

    /// Run each generic case against both headers.
    macro_rules! for_both_vendors {
        ($($case:ident),* $(,)?) => {
            mod mpich {
                $(#[test] fn $case() { super::$case::<super::Mpich>() })*
            }
            mod openmpi {
                $(#[test] fn $case() { super::$case::<super::OpenMpi>() })*
            }
        };
    }

    for_both_vendors!(
        constant_translation_tables,
        status_layout_conversion,
        error_code_translation,
        predefined_dtype_and_op_tables_are_total,
    );

    fn constant_translation_tables<V: NativeAbi>() {
        assert_eq!(Wrap::<V>::src_in(consts::ANY_SOURCE), V::ANY_SOURCE);
        assert_eq!(Wrap::<V>::src_in(consts::PROC_NULL), V::PROC_NULL);
        assert_eq!(Wrap::<V>::src_in(5), 5);
        assert_eq!(Wrap::<V>::dest_in(consts::PROC_NULL), V::PROC_NULL);
        assert_eq!(Wrap::<V>::dest_in(3), 3);
        assert_eq!(Wrap::<V>::tag_in(consts::ANY_TAG), V::ANY_TAG);
        assert_eq!(Wrap::<V>::tag_in(42), 42);
    }

    fn status_layout_conversion<V: NativeAbi>() {
        let native = V::Status::for_receive(V::PROC_NULL, 7, 144);
        let std = Wrap::<V>::status_out(native);
        assert_eq!(std.source, consts::PROC_NULL);
        assert_eq!(std.tag, 7);
        assert_eq!(std.count_bytes, 144);
        assert_eq!(std.error, 0);
        let wild = Wrap::<V>::status_out(V::Status::for_receive(V::ANY_SOURCE, V::ANY_TAG, 0));
        assert_eq!(
            (wild.source, wild.tag),
            (consts::ANY_SOURCE, consts::ANY_TAG)
        );
    }

    fn error_code_translation<V: NativeAbi>() {
        assert_eq!(err_from_native::<V>(V::ERR_TRUNCATE), AbiError::Truncate);
        assert_eq!(err_from_native::<V>(V::ERR_REQUEST), AbiError::Request);
        assert_eq!(
            err_from_native::<V>(V::ERR_PROC_FAILED),
            AbiError::ProcFailed
        );
        assert_eq!(err_from_native::<V>(V::ERR_OTHER), AbiError::Other);
        assert_eq!(err_from_native::<V>(9999), AbiError::Other);
        assert_eq!(err_from_native::<V>(-5), AbiError::Other);
    }

    fn predefined_dtype_and_op_tables_are_total<V: NativeAbi>() {
        for d in Datatype::ALL {
            // Every predefined standard type maps to a native type of the
            // same size.
            let (size, _) = V::builtin_type(dtype_native_of::<V>(d)).expect("native type exists");
            assert_eq!(size, d.size(), "{d:?}");
        }
        for op in ReduceOp::ALL {
            // The header's op table and the standard's agree by name.
            let builtin = V::builtin_op(op_native_of::<V>(op)).expect("native op exists");
            assert_eq!(format!("{builtin:?}"), format!("{op:?}"));
        }
    }

    #[test]
    fn wildcard_translation_is_the_swapped_pair() {
        // Standard ANY_SOURCE (−1) happens to equal Open MPI's value, while
        // PROC_NULL (−3) maps to −2; on the MPICH side the same standard
        // values map to −2/−1. The swap is exactly the hazard the paper's
        // ABI standardization removes.
        assert_eq!(Wrap::<Mpich>::src_in(consts::ANY_SOURCE), -2);
        assert_eq!(Wrap::<Mpich>::src_in(consts::PROC_NULL), -1);
        assert_eq!(Wrap::<OpenMpi>::src_in(consts::ANY_SOURCE), -1);
        assert_eq!(Wrap::<OpenMpi>::src_in(consts::PROC_NULL), -2);
        // Same class, different native values.
        assert_eq!(err_from_native::<Mpich>(19), AbiError::Request);
        assert_eq!(err_from_native::<OpenMpi>(7), AbiError::Request);
        assert_eq!(err_from_native::<Mpich>(7), AbiError::Root);
    }

    /// A `test` the vendor fails has consumed the request: the mapping
    /// goes, and the next request — whose native handle MPICH recycles —
    /// gets a fresh standard handle.
    fn failed_test_drops_the_request_mapping<V: NativeAbi>() {
        let spec = ClusterSpec::builder().nodes(1).ranks_per_node(1).build();
        World::run(&spec, |ctx| {
            let mut wrap = Wrap::<V>::open(Process::init(ctx));
            let byte = Datatype::Byte.handle();
            let first = wrap.irecv(4, byte, 0, 0, Handle::COMM_WORLD).unwrap();
            wrap.send(&[0; 16], byte, 0, 0, Handle::COMM_WORLD).unwrap();
            assert_eq!(wrap.test(first), Err(AbiError::Truncate));
            assert_eq!(wrap.reqs.len(), 0);
            assert_eq!(wrap.test(first), Err(AbiError::Request));
            let second = wrap.irecv(4, byte, 0, 1, Handle::COMM_WORLD).unwrap();
            assert_ne!(second, first);
            assert_eq!(wrap.test(second), Ok(None));
            assert_eq!(wrap.reqs.len(), 1);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn failed_test_drops_the_request_mapping_on_both_vendors() {
        failed_test_drops_the_request_mapping::<Mpich>();
        failed_test_drops_the_request_mapping::<OpenMpi>();
    }
}
