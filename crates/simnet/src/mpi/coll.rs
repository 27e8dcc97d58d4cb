//! The nine collective entry points, once for every vendor: argument
//! validation, count checks and the one-rank shortcuts, then the
//! algorithm `V`'s [`Tuning`](super::Tuning) table picks for the call's
//! [`Shape`]. Dispatch is a `match` on that table's enum: static, no
//! trait object on the message path.

use super::abi::{MpiResult, NativeAbi, Shape};
use super::algos::{
    self, Allgather, Allreduce, Alltoall, Barrier, Bcast, Gather, Reduce, Reduction, Scan, Scatter,
};
use super::objects::CommInfo;
use super::process::Process;

/// The shape of a call over `info` on `bytes` of `elem`-byte elements.
fn shape<V: NativeAbi>(info: &CommInfo<V>, bytes: usize, elem: usize, commute: bool) -> Shape {
    Shape {
        ranks: info.size(),
        bytes,
        count: bytes / elem,
        commute,
    }
}

impl<V: NativeAbi> Process<V> {
    /// `MPI_Barrier`.
    pub fn barrier(&mut self, comm: V::Comm) -> MpiResult<()> {
        // No buffer: an empty one of `MPI_BYTE`.
        let (info, elem) = self.validate_coll(comm, V::DATATYPES[0].0, 0)?;
        if info.size() == 1 {
            return Ok(());
        }
        match V::barrier(shape(&info, 0, elem, true)) {
            Barrier::Dissemination => algos::barrier_dissemination(self, &info),
            Barrier::RecursiveDoubling(fold) => algos::barrier_doubling(self, &info, fold),
        }
    }

    /// `MPI_Bcast`.
    pub fn bcast(
        &mut self,
        buf: &mut [u8],
        dt: V::Datatype,
        root: i32,
        comm: V::Comm,
    ) -> MpiResult<()> {
        let (info, elem) = self.validate_coll(comm, dt, buf.len())?;
        let root = Self::validate_root(&info, root)?;
        if info.size() == 1 || buf.is_empty() {
            return Ok(());
        }
        self.bcast_with(&info, buf, elem, root)
    }

    /// `V`'s bcast algorithm on validated arguments.
    fn bcast_with(
        &mut self,
        info: &CommInfo<V>,
        buf: &mut [u8],
        elem: usize,
        root: usize,
    ) -> MpiResult<()> {
        match V::bcast(shape(info, buf.len(), elem, true)) {
            Bcast::Binomial => algos::bcast_binomial(self, info, buf, root),
            Bcast::ScatterRing => algos::bcast_scatter_ring(self, info, buf, elem, root),
            Bcast::BinaryTree => algos::bcast_binary_tree(self, info, buf, root),
            Bcast::Chain { segment } => algos::bcast_chain(self, info, buf, root, segment),
        }
    }

    /// `MPI_Reduce`. `recvbuf` must equal `sendbuf` in length at the root
    /// (it may be empty elsewhere).
    pub fn reduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        op: V::Op,
        root: i32,
        comm: V::Comm,
    ) -> MpiResult<()> {
        let (info, elem) = self.validate_coll(comm, dt, sendbuf.len())?;
        let root = Self::validate_root(&info, root)?;
        let commute = self.validate_op(op)?;
        if info.my_rank as usize == root && recvbuf.len() != sendbuf.len() {
            return Err(V::ERR_COUNT);
        }
        if info.size() == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        let red = Reduction { op, dt, commute };
        self.reduce_with(&info, sendbuf, recvbuf, elem, red, root)
    }

    /// `V`'s reduce algorithm on validated arguments.
    fn reduce_with(
        &mut self,
        info: &CommInfo<V>,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        elem: usize,
        red: Reduction<V>,
        root: usize,
    ) -> MpiResult<()> {
        match V::reduce(shape(info, sendbuf.len(), elem, red.commute)) {
            Reduce::Binomial => algos::reduce_binomial(self, info, sendbuf, recvbuf, red, root),
            Reduce::Linear => algos::reduce_linear(self, info, sendbuf, recvbuf, red, root),
            Reduce::Chain { segment } => {
                algos::reduce_chain(self, info, sendbuf, recvbuf, red, root, segment)
            }
        }
    }

    /// `MPI_Allreduce`.
    pub fn allreduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        op: V::Op,
        comm: V::Comm,
    ) -> MpiResult<()> {
        let (info, elem) = self.validate_coll(comm, dt, sendbuf.len())?;
        let commute = self.validate_op(op)?;
        if recvbuf.len() != sendbuf.len() {
            return Err(V::ERR_COUNT);
        }
        recvbuf.copy_from_slice(sendbuf);
        if info.size() == 1 || sendbuf.is_empty() {
            return Ok(());
        }
        let red = Reduction { op, dt, commute };
        match V::allreduce(shape(&info, sendbuf.len(), elem, commute)) {
            Allreduce::RecursiveDoubling(fold) => {
                algos::allreduce_doubling(self, &info, recvbuf, red, fold)
            }
            Allreduce::Rabenseifner(fold) => {
                algos::allreduce_rabenseifner(self, &info, recvbuf, elem, red, fold)
            }
            Allreduce::Ring => algos::allreduce_ring(self, &info, recvbuf, elem, red),
            Allreduce::ReduceBcast => {
                self.reduce_with(&info, sendbuf, recvbuf, elem, red, 0)?;
                self.bcast_with(&info, recvbuf, elem, 0)
            }
        }
    }

    /// `MPI_Gather` (equal contributions; `recvbuf` significant at root).
    pub fn gather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        root: i32,
        comm: V::Comm,
    ) -> MpiResult<()> {
        let (info, elem) = self.validate_coll(comm, dt, sendbuf.len())?;
        let root = Self::validate_root(&info, root)?;
        if info.my_rank as usize == root && recvbuf.len() != sendbuf.len() * info.size() {
            return Err(V::ERR_COUNT);
        }
        if info.size() == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        match V::gather(shape(&info, sendbuf.len(), elem, true)) {
            Gather::Binomial => algos::gather_binomial(self, &info, sendbuf, recvbuf, root),
            Gather::Linear => algos::gather_linear(self, &info, sendbuf, recvbuf, root),
        }
    }

    /// `MPI_Scatter` (equal blocks; `sendbuf` significant at root).
    pub fn scatter(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        root: i32,
        comm: V::Comm,
    ) -> MpiResult<()> {
        let (info, elem) = self.validate_coll(comm, dt, recvbuf.len())?;
        let root = Self::validate_root(&info, root)?;
        if info.my_rank as usize == root && sendbuf.len() != recvbuf.len() * info.size() {
            return Err(V::ERR_COUNT);
        }
        if info.size() == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        match V::scatter(shape(&info, recvbuf.len(), elem, true)) {
            Scatter::Binomial => algos::scatter_binomial(self, &info, sendbuf, recvbuf, root),
            Scatter::Linear => algos::scatter_linear(self, &info, sendbuf, recvbuf, root),
        }
    }

    /// `MPI_Allgather` (equal contributions).
    pub fn allgather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        comm: V::Comm,
    ) -> MpiResult<()> {
        let (info, elem) = self.validate_coll(comm, dt, sendbuf.len())?;
        if recvbuf.len() != sendbuf.len() * info.size() {
            return Err(V::ERR_COUNT);
        }
        if info.size() == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        match V::allgather(shape(&info, sendbuf.len(), elem, true)) {
            Allgather::Bruck => algos::allgather_bruck(self, &info, sendbuf, recvbuf),
            Allgather::RecursiveDoubling => {
                algos::allgather_doubling(self, &info, sendbuf, recvbuf)
            }
            Allgather::Ring => algos::allgather_ring(self, &info, sendbuf, recvbuf),
        }
    }

    /// `MPI_Alltoall` (equal blocks).
    pub fn alltoall(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        comm: V::Comm,
    ) -> MpiResult<()> {
        let (info, elem) = self.validate_coll(comm, dt, sendbuf.len())?;
        let n = info.size();
        if sendbuf.len() != recvbuf.len() || !sendbuf.len().is_multiple_of(n) {
            return Err(V::ERR_COUNT);
        }
        if n == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        match V::alltoall(shape(&info, sendbuf.len() / n, elem, true)) {
            Alltoall::Bruck => algos::alltoall_bruck(self, &info, sendbuf, recvbuf),
            Alltoall::Posted => algos::alltoall_posted(self, &info, sendbuf, recvbuf),
            Alltoall::Pairwise => algos::alltoall_pairwise(self, &info, sendbuf, recvbuf),
        }
    }

    /// `MPI_Scan` (inclusive prefix reduction).
    pub fn scan(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: V::Datatype,
        op: V::Op,
        comm: V::Comm,
    ) -> MpiResult<()> {
        let (info, elem) = self.validate_coll(comm, dt, sendbuf.len())?;
        let commute = self.validate_op(op)?;
        if recvbuf.len() != sendbuf.len() {
            return Err(V::ERR_COUNT);
        }
        if info.size() == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        let red = Reduction { op, dt, commute };
        match V::scan(shape(&info, sendbuf.len(), elem, commute)) {
            Scan::RecursiveDoubling => algos::scan_doubling(self, &info, sendbuf, recvbuf, red),
            Scan::Chain => algos::scan_chain(self, &info, sendbuf, recvbuf, red),
        }
    }
}
