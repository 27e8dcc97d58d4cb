//! Open MPI-family collective algorithms (the `coll/tuned` lineage).
//!
//! Deliberately a different family from the MPICH flavour's:
//!
//! | collective  | small messages              | large messages              |
//! |-------------|-----------------------------|-----------------------------|
//! | `bcast`     | binary tree                 | pipelined segmented chain   |
//! | `allreduce` | recursive doubling          | ring (reduce-scatter + allgather) |
//! | `alltoall`  | posted linear               | pairwise exchange           |
//! | `allgather` | recursive doubling (p2) / ring | ring                     |
//! | `reduce`    | linear (root receives all)  | pipelined segmented chain   |
//! | `gather`    | linear                      | linear                      |
//! | `scatter`   | linear                      | linear                      |
//! | `scan`      | linear chain                | linear chain                |
//! | `barrier`   | recursive doubling          | recursive doubling          |
//!
//! The different round counts and message granularity are what separate the
//! two vendors' latency curves in the paper's Figs. 2–4.

use bytes::Bytes;

use simnet::mpi::{chunk_lengths, Collectives, Process};
use simnet::{SrcPattern, TagPattern};

use crate::objects::CommInfo;
use crate::ompi_h::{self, MpiComm, MpiDatatype, MpiOp, OmpiResult, OpenMpi};
use crate::proc::OmpiProcess;

const TAG_BARRIER: i32 = 0x0401;
const TAG_BCAST: i32 = 0x0402;
const TAG_REDUCE: i32 = 0x0403;
const TAG_ALLREDUCE: i32 = 0x0404;
const TAG_GATHER: i32 = 0x0405;
const TAG_SCATTER: i32 = 0x0406;
const TAG_ALLGATHER: i32 = 0x0407;
const TAG_ALLTOALL: i32 = 0x0408;
const TAG_SCAN: i32 = 0x0409;

fn offsets(lens: &[usize]) -> Vec<usize> {
    lens.iter()
        .scan(0usize, |a, &l| {
            let o = *a;
            *a += l;
            Some(o)
        })
        .collect()
}

impl Collectives<OpenMpi> for OmpiProcess {
    // ------------------------------------------------------------------
    // Barrier: recursive doubling with non-power-of-two fold
    // ------------------------------------------------------------------

    /// `MPI_Barrier`.
    fn barrier(&mut self, comm: MpiComm) -> OmpiResult<()> {
        let (rec, _) = self.validate_coll(comm, ompi_h::MPI_BYTE, 0)?;
        let n = rec.size();
        if n == 1 {
            return Ok(());
        }
        let me = rec.my_rank as usize;
        let pof2 = n.next_power_of_two() / if n.is_power_of_two() { 1 } else { 2 };
        let rem = n - pof2;
        // Extras notify their partner and wait for release.
        if me >= pof2 {
            let partner = (me - pof2) as i32;
            self.xsend(&rec, true, partner, TAG_BARRIER, Bytes::new())?;
            let src = rec.world_of(partner)?;
            self.xrecv(
                &rec,
                true,
                SrcPattern::Is(src),
                TagPattern::Is(TAG_BARRIER + 2),
            )?;
            return Ok(());
        }
        if me < rem {
            let src = rec.world_of((me + pof2) as i32)?;
            self.xrecv(&rec, true, SrcPattern::Is(src), TagPattern::Is(TAG_BARRIER))?;
        }
        let mut mask = 1usize;
        while mask < pof2 {
            let partner = (me ^ mask) as i32;
            self.xsend(&rec, true, partner, TAG_BARRIER + 1, Bytes::new())?;
            let src = rec.world_of(partner)?;
            self.xrecv(
                &rec,
                true,
                SrcPattern::Is(src),
                TagPattern::Is(TAG_BARRIER + 1),
            )?;
            mask <<= 1;
        }
        if me < rem {
            self.xsend(
                &rec,
                true,
                (me + pof2) as i32,
                TAG_BARRIER + 2,
                Bytes::new(),
            )?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bcast: binary tree / pipelined chain
    // ------------------------------------------------------------------

    /// `MPI_Bcast`.
    fn bcast(
        &mut self,
        buf: &mut [u8],
        dt: MpiDatatype,
        root: i32,
        comm: MpiComm,
    ) -> OmpiResult<()> {
        let (rec, _) = self.validate_coll(comm, dt, buf.len())?;
        let root = Process::validate_root(&rec, root)?;
        if rec.size() == 1 || buf.is_empty() {
            return Ok(());
        }
        if buf.len() <= self.tuning.bcast_bintree_max {
            self.bcast_bintree(&rec, buf, root)
        } else {
            self.bcast_pipeline(&rec, buf, root)
        }
    }

    // ------------------------------------------------------------------
    // Reduce: linear / pipelined chain
    // ------------------------------------------------------------------

    /// `MPI_Reduce`.
    fn reduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        op: MpiOp,
        root: i32,
        comm: MpiComm,
    ) -> OmpiResult<()> {
        let (rec, _) = self.validate_coll(comm, dt, sendbuf.len())?;
        let root = Process::validate_root(&rec, root)?;
        self.validate_op(op)?;
        let me = rec.my_rank as usize;
        if me == root && recvbuf.len() != sendbuf.len() {
            return Err(ompi_h::MPI_ERR_COUNT);
        }
        if rec.size() == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        if sendbuf.len() <= self.tuning.pipeline_segment {
            self.reduce_linear(&rec, sendbuf, recvbuf, dt, op, root)
        } else {
            self.reduce_pipeline(&rec, sendbuf, recvbuf, dt, op, root)
        }
    }

    // ------------------------------------------------------------------
    // Allreduce: recursive doubling / ring
    // ------------------------------------------------------------------

    /// `MPI_Allreduce`.
    fn allreduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        op: MpiOp,
        comm: MpiComm,
    ) -> OmpiResult<()> {
        let (rec, elem) = self.validate_coll(comm, dt, sendbuf.len())?;
        self.validate_op(op)?;
        if recvbuf.len() != sendbuf.len() {
            return Err(ompi_h::MPI_ERR_COUNT);
        }
        recvbuf.copy_from_slice(sendbuf);
        let n = rec.size();
        if n == 1 || sendbuf.is_empty() {
            return Ok(());
        }
        if sendbuf.len() <= self.tuning.allreduce_recdbl_max || sendbuf.len() / elem < n {
            self.allreduce_recdbl(&rec, recvbuf, dt, op)
        } else {
            self.allreduce_ring(&rec, recvbuf, elem, dt, op)
        }
    }

    // ------------------------------------------------------------------
    // Gather / Scatter: linear
    // ------------------------------------------------------------------

    /// `MPI_Gather` (linear: every rank sends straight to the root).
    fn gather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        root: i32,
        comm: MpiComm,
    ) -> OmpiResult<()> {
        let (rec, _) = self.validate_coll(comm, dt, sendbuf.len())?;
        let root = Process::validate_root(&rec, root)?;
        let n = rec.size();
        let me = rec.my_rank as usize;
        let block = sendbuf.len();
        if me == root {
            if recvbuf.len() != block * n {
                return Err(ompi_h::MPI_ERR_COUNT);
            }
            recvbuf[me * block..(me + 1) * block].copy_from_slice(sendbuf);
            for cr in (0..n).filter(|&cr| cr != me) {
                let got = self.xrecv(
                    &rec,
                    true,
                    SrcPattern::Is(rec.world_of(cr as i32)?),
                    TagPattern::Is(TAG_GATHER),
                )?;
                if got.env.len() != block {
                    return Err(ompi_h::MPI_ERR_TRUNCATE);
                }
                recvbuf[cr * block..(cr + 1) * block].copy_from_slice(&got.env.payload);
            }
            Ok(())
        } else {
            self.xsend(
                &rec,
                true,
                root as i32,
                TAG_GATHER,
                Bytes::copy_from_slice(sendbuf),
            )
        }
    }

    /// `MPI_Scatter` (linear).
    fn scatter(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        root: i32,
        comm: MpiComm,
    ) -> OmpiResult<()> {
        let (rec, _) = self.validate_coll(comm, dt, recvbuf.len())?;
        let root = Process::validate_root(&rec, root)?;
        let n = rec.size();
        let me = rec.my_rank as usize;
        let block = recvbuf.len();
        if me == root {
            if sendbuf.len() != block * n {
                return Err(ompi_h::MPI_ERR_COUNT);
            }
            for cr in (0..n).filter(|&cr| cr != me) {
                let payload = Bytes::copy_from_slice(&sendbuf[cr * block..(cr + 1) * block]);
                self.xsend(&rec, true, cr as i32, TAG_SCATTER, payload)?;
            }
            recvbuf.copy_from_slice(&sendbuf[me * block..(me + 1) * block]);
            Ok(())
        } else {
            let got = self.xrecv(
                &rec,
                true,
                SrcPattern::Is(rec.world_of(root as i32)?),
                TagPattern::Is(TAG_SCATTER),
            )?;
            if got.env.len() != block {
                return Err(ompi_h::MPI_ERR_TRUNCATE);
            }
            recvbuf.copy_from_slice(&got.env.payload);
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // Allgather: recursive doubling (p2) / ring
    // ------------------------------------------------------------------

    /// `MPI_Allgather`.
    fn allgather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        comm: MpiComm,
    ) -> OmpiResult<()> {
        let (rec, _) = self.validate_coll(comm, dt, sendbuf.len())?;
        let n = rec.size();
        let block = sendbuf.len();
        if recvbuf.len() != block * n {
            return Err(ompi_h::MPI_ERR_COUNT);
        }
        if n == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        let small = block * n <= self.tuning.allgather_neighbor_max;
        if small && n.is_power_of_two() {
            self.allgather_recdbl(&rec, sendbuf, recvbuf, block)
        } else {
            self.allgather_ring(&rec, sendbuf, recvbuf, block)
        }
    }

    // ------------------------------------------------------------------
    // Alltoall: posted linear / pairwise
    // ------------------------------------------------------------------

    /// `MPI_Alltoall`.
    fn alltoall(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        comm: MpiComm,
    ) -> OmpiResult<()> {
        let (rec, _) = self.validate_coll(comm, dt, sendbuf.len())?;
        let n = rec.size();
        if sendbuf.len() != recvbuf.len() || !sendbuf.len().is_multiple_of(n) {
            return Err(ompi_h::MPI_ERR_COUNT);
        }
        let block = sendbuf.len() / n;
        if n == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        if block <= self.tuning.alltoall_linear_max {
            self.alltoall_linear(&rec, sendbuf, recvbuf, block)
        } else {
            self.alltoall_pairwise(&rec, sendbuf, recvbuf, block)
        }
    }

    // ------------------------------------------------------------------
    // Scan: linear chain
    // ------------------------------------------------------------------

    /// `MPI_Scan` (inclusive prefix; linear chain, Open MPI `basic` style).
    fn scan(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        op: MpiOp,
        comm: MpiComm,
    ) -> OmpiResult<()> {
        let (rec, _) = self.validate_coll(comm, dt, sendbuf.len())?;
        self.validate_op(op)?;
        if recvbuf.len() != sendbuf.len() {
            return Err(ompi_h::MPI_ERR_COUNT);
        }
        let n = rec.size();
        let me = rec.my_rank as usize;
        recvbuf.copy_from_slice(sendbuf);
        if me > 0 {
            let src = rec.world_of((me - 1) as i32)?;
            let got = self.xrecv(&rec, true, SrcPattern::Is(src), TagPattern::Is(TAG_SCAN))?;
            if got.env.len() != recvbuf.len() {
                return Err(ompi_h::MPI_ERR_TRUNCATE);
            }
            self.combine_ordered(op, dt, recvbuf, &got.env.payload, true)?;
        }
        if me + 1 < n {
            self.xsend(
                &rec,
                true,
                (me + 1) as i32,
                TAG_SCAN,
                Bytes::copy_from_slice(recvbuf),
            )?;
        }
        Ok(())
    }
}

// The algorithms behind the entry points above.
impl OmpiProcess {
    fn bcast_bintree(&mut self, rec: &CommInfo, buf: &mut [u8], root: usize) -> OmpiResult<()> {
        let n = rec.size();
        let me = rec.my_rank as usize;
        let rel = (me + n - root) % n;
        if rel != 0 {
            let parent_rel = (rel - 1) / 2;
            let parent = (parent_rel + root) % n;
            let got = self.xrecv(
                rec,
                true,
                SrcPattern::Is(rec.world_of(parent as i32)?),
                TagPattern::Is(TAG_BCAST),
            )?;
            if got.env.len() != buf.len() {
                return Err(ompi_h::MPI_ERR_TRUNCATE);
            }
            buf.copy_from_slice(&got.env.payload);
        }
        let payload = Bytes::copy_from_slice(buf);
        for child_rel in [2 * rel + 1, 2 * rel + 2] {
            if child_rel < n {
                let child = (child_rel + root) % n;
                self.xsend(rec, true, child as i32, TAG_BCAST, payload.clone())?;
            }
        }
        Ok(())
    }

    fn bcast_pipeline(&mut self, rec: &CommInfo, buf: &mut [u8], root: usize) -> OmpiResult<()> {
        let n = rec.size();
        let me = rec.my_rank as usize;
        let rel = (me + n - root) % n;
        let seg = self.tuning.pipeline_segment.max(1);
        let nseg = buf.len().div_ceil(seg);
        let prev = if rel > 0 {
            Some(((rel - 1) + root) % n)
        } else {
            None
        };
        let next = if rel + 1 < n {
            Some(((rel + 1) + root) % n)
        } else {
            None
        };
        for k in 0..nseg {
            let lo = k * seg;
            let hi = (lo + seg).min(buf.len());
            if let Some(p) = prev {
                let got = self.xrecv(
                    rec,
                    true,
                    SrcPattern::Is(rec.world_of(p as i32)?),
                    TagPattern::Is(TAG_BCAST + 1),
                )?;
                if got.env.len() != hi - lo {
                    return Err(ompi_h::MPI_ERR_TRUNCATE);
                }
                buf[lo..hi].copy_from_slice(&got.env.payload);
            }
            if let Some(nx) = next {
                let payload = Bytes::copy_from_slice(&buf[lo..hi]);
                self.xsend(rec, true, nx as i32, TAG_BCAST + 1, payload)?;
            }
        }
        Ok(())
    }

    fn reduce_linear(
        &mut self,
        rec: &CommInfo,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        op: MpiOp,
        root: usize,
    ) -> OmpiResult<()> {
        let n = rec.size();
        let me = rec.my_rank as usize;
        if me != root {
            return self.xsend(
                rec,
                true,
                root as i32,
                TAG_REDUCE,
                Bytes::copy_from_slice(sendbuf),
            );
        }
        // Root combines contributions in strict rank order.
        let mut acc: Option<Vec<u8>> = None;
        for cr in 0..n {
            let contribution: Vec<u8> = if cr == me {
                sendbuf.to_vec()
            } else {
                let got = self.xrecv(
                    rec,
                    true,
                    SrcPattern::Is(rec.world_of(cr as i32)?),
                    TagPattern::Is(TAG_REDUCE),
                )?;
                if got.env.len() != sendbuf.len() {
                    return Err(ompi_h::MPI_ERR_TRUNCATE);
                }
                got.env.payload.to_vec()
            };
            acc = Some(match acc {
                None => contribution,
                Some(mut a) => {
                    self.combine_ordered(op, dt, &mut a, &contribution, false)?;
                    a
                }
            });
        }
        recvbuf.copy_from_slice(&acc.expect("n >= 1"));
        Ok(())
    }

    fn reduce_pipeline(
        &mut self,
        rec: &CommInfo,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        op: MpiOp,
        root: usize,
    ) -> OmpiResult<()> {
        let n = rec.size();
        let me = rec.my_rank as usize;
        // Chain in relative order with the root last: rel 0 → 1 → … → n−1.
        let rel = (me + n - root + n - 1) % n; // root gets rel n−1
        let seg = self.tuning.pipeline_segment.max(1);
        let nseg = sendbuf.len().div_ceil(seg);
        let prev = if rel > 0 {
            Some((rel - 1 + root + 1) % n)
        } else {
            None
        };
        let next = if rel + 1 < n {
            Some((rel + 1 + root + 1) % n)
        } else {
            None
        };
        let mut acc = sendbuf.to_vec();
        for k in 0..nseg {
            let lo = k * seg;
            let hi = (lo + seg).min(acc.len());
            if let Some(p) = prev {
                let got = self.xrecv(
                    rec,
                    true,
                    SrcPattern::Is(rec.world_of(p as i32)?),
                    TagPattern::Is(TAG_REDUCE + 1),
                )?;
                if got.env.len() != hi - lo {
                    return Err(ompi_h::MPI_ERR_TRUNCATE);
                }
                // Incoming covers chain-earlier ranks.
                self.combine_ordered(op, dt, &mut acc[lo..hi], &got.env.payload, true)?;
            }
            if let Some(nx) = next {
                let payload = Bytes::copy_from_slice(&acc[lo..hi]);
                self.xsend(rec, true, nx as i32, TAG_REDUCE + 1, payload)?;
            }
        }
        if me == root {
            recvbuf.copy_from_slice(&acc);
        }
        Ok(())
    }

    fn allreduce_recdbl(
        &mut self,
        rec: &CommInfo,
        acc: &mut [u8],
        dt: MpiDatatype,
        op: MpiOp,
    ) -> OmpiResult<()> {
        let n = rec.size();
        let me = rec.my_rank as usize;
        let pof2 = n.next_power_of_two() / if n.is_power_of_two() { 1 } else { 2 };
        let rem = n - pof2;
        // Fold extras: ranks ≥ pof2 hand their data to (me − pof2).
        let newrank = if me >= pof2 {
            self.xsend(
                &rec.clone(),
                true,
                (me - pof2) as i32,
                TAG_ALLREDUCE,
                Bytes::copy_from_slice(acc),
            )?;
            None
        } else {
            if me < rem {
                let src = rec.world_of((me + pof2) as i32)?;
                let got = self.xrecv(
                    rec,
                    true,
                    SrcPattern::Is(src),
                    TagPattern::Is(TAG_ALLREDUCE),
                )?;
                if got.env.len() != acc.len() {
                    return Err(ompi_h::MPI_ERR_TRUNCATE);
                }
                // The extra (me + pof2) follows me in rank order.
                self.combine_ordered(op, dt, acc, &got.env.payload, false)?;
            }
            Some(me)
        };
        if let Some(nr) = newrank {
            let mut mask = 1usize;
            while mask < pof2 {
                let partner = nr ^ mask;
                self.xsend(
                    rec,
                    true,
                    partner as i32,
                    TAG_ALLREDUCE + 1,
                    Bytes::copy_from_slice(acc),
                )?;
                let got = self.xrecv(
                    rec,
                    true,
                    SrcPattern::Is(rec.world_of(partner as i32)?),
                    TagPattern::Is(TAG_ALLREDUCE + 1),
                )?;
                if got.env.len() != acc.len() {
                    return Err(ompi_h::MPI_ERR_TRUNCATE);
                }
                self.combine_ordered(op, dt, acc, &got.env.payload, partner < nr)?;
                mask <<= 1;
            }
            if nr < rem {
                self.xsend(
                    rec,
                    true,
                    (nr + pof2) as i32,
                    TAG_ALLREDUCE + 2,
                    Bytes::copy_from_slice(acc),
                )?;
            }
        } else {
            let src = rec.world_of((me - pof2) as i32)?;
            let got = self.xrecv(
                rec,
                true,
                SrcPattern::Is(src),
                TagPattern::Is(TAG_ALLREDUCE + 2),
            )?;
            acc.copy_from_slice(&got.env.payload);
        }
        Ok(())
    }

    /// Ring allreduce: reduce-scatter ring then allgather ring, 2(n−1)
    /// steps of 1/n-sized chunks — the bandwidth-optimal large-message
    /// algorithm.
    fn allreduce_ring(
        &mut self,
        rec: &CommInfo,
        acc: &mut [u8],
        elem: usize,
        dt: MpiDatatype,
        op: MpiOp,
    ) -> OmpiResult<()> {
        let n = rec.size();
        let me = rec.my_rank as usize;
        let lens: Vec<usize> = chunk_lengths(acc.len() / elem, n)
            .into_iter()
            .map(|l| l * elem)
            .collect();
        let offs = offsets(&lens);
        let next = ((me + 1) % n) as i32;
        let prev_world = rec.world_of(((me + n - 1) % n) as i32)?;

        // Reduce-scatter phase.
        for s in 0..n - 1 {
            let send_c = (me + n - s) % n;
            let recv_c = (me + n - s - 1) % n;
            let payload = Bytes::copy_from_slice(&acc[offs[send_c]..offs[send_c] + lens[send_c]]);
            self.xsend(rec, true, next, TAG_ALLREDUCE + 3, payload)?;
            let got = self.xrecv(
                rec,
                true,
                SrcPattern::Is(prev_world),
                TagPattern::Is(TAG_ALLREDUCE + 3),
            )?;
            if got.env.len() != lens[recv_c] {
                return Err(ompi_h::MPI_ERR_TRUNCATE);
            }
            let span = &mut acc[offs[recv_c]..offs[recv_c] + lens[recv_c]];
            // Ring ordering is not rank ordering; fine for the commutative
            // predefined ops (user ops must be commutative for ring — the
            // tuned decision function respects `commute` in real Open MPI;
            // we document the same requirement).
            self.combine_ordered(op, dt, span, &got.env.payload, true)?;
        }
        // Allgather phase.
        for s in 0..n - 1 {
            let send_c = (me + 1 + n - s) % n;
            let recv_c = (me + n - s) % n;
            let payload = Bytes::copy_from_slice(&acc[offs[send_c]..offs[send_c] + lens[send_c]]);
            self.xsend(rec, true, next, TAG_ALLREDUCE + 4, payload)?;
            let got = self.xrecv(
                rec,
                true,
                SrcPattern::Is(prev_world),
                TagPattern::Is(TAG_ALLREDUCE + 4),
            )?;
            if got.env.len() != lens[recv_c] {
                return Err(ompi_h::MPI_ERR_TRUNCATE);
            }
            acc[offs[recv_c]..offs[recv_c] + lens[recv_c]].copy_from_slice(&got.env.payload);
        }
        Ok(())
    }

    fn allgather_recdbl(
        &mut self,
        rec: &CommInfo,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        block: usize,
    ) -> OmpiResult<()> {
        let n = rec.size();
        let me = rec.my_rank as usize;
        recvbuf[me * block..(me + 1) * block].copy_from_slice(sendbuf);
        let mut mask = 1usize;
        while mask < n {
            let partner = me ^ mask;
            let my_lo = me & !(mask - 1);
            let their_lo = partner & !(mask - 1);
            let payload = Bytes::copy_from_slice(&recvbuf[my_lo * block..(my_lo + mask) * block]);
            self.xsend(rec, true, partner as i32, TAG_ALLGATHER, payload)?;
            let got = self.xrecv(
                rec,
                true,
                SrcPattern::Is(rec.world_of(partner as i32)?),
                TagPattern::Is(TAG_ALLGATHER),
            )?;
            if got.env.len() != mask * block {
                return Err(ompi_h::MPI_ERR_TRUNCATE);
            }
            recvbuf[their_lo * block..(their_lo + mask) * block].copy_from_slice(&got.env.payload);
            mask <<= 1;
        }
        Ok(())
    }

    fn allgather_ring(
        &mut self,
        rec: &CommInfo,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        block: usize,
    ) -> OmpiResult<()> {
        let n = rec.size();
        let me = rec.my_rank as usize;
        recvbuf[me * block..(me + 1) * block].copy_from_slice(sendbuf);
        let next = ((me + 1) % n) as i32;
        let prev_world = rec.world_of(((me + n - 1) % n) as i32)?;
        for s in 0..n - 1 {
            let send_i = (me + n - s) % n;
            let recv_i = (me + n - s - 1) % n;
            let payload = Bytes::copy_from_slice(&recvbuf[send_i * block..(send_i + 1) * block]);
            self.xsend(rec, true, next, TAG_ALLGATHER + 1, payload)?;
            let got = self.xrecv(
                rec,
                true,
                SrcPattern::Is(prev_world),
                TagPattern::Is(TAG_ALLGATHER + 1),
            )?;
            if got.env.len() != block {
                return Err(ompi_h::MPI_ERR_TRUNCATE);
            }
            recvbuf[recv_i * block..(recv_i + 1) * block].copy_from_slice(&got.env.payload);
        }
        Ok(())
    }

    fn alltoall_linear(
        &mut self,
        rec: &CommInfo,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        block: usize,
    ) -> OmpiResult<()> {
        let n = rec.size();
        let me = rec.my_rank as usize;
        recvbuf[me * block..(me + 1) * block]
            .copy_from_slice(&sendbuf[me * block..(me + 1) * block]);
        for off in 1..n {
            let dst = (me + off) % n;
            let payload = Bytes::copy_from_slice(&sendbuf[dst * block..(dst + 1) * block]);
            self.xsend(rec, true, dst as i32, TAG_ALLTOALL, payload)?;
        }
        for off in 1..n {
            let src = (me + n - off) % n;
            let got = self.xrecv(
                rec,
                true,
                SrcPattern::Is(rec.world_of(src as i32)?),
                TagPattern::Is(TAG_ALLTOALL),
            )?;
            if got.env.len() != block {
                return Err(ompi_h::MPI_ERR_TRUNCATE);
            }
            recvbuf[src * block..(src + 1) * block].copy_from_slice(&got.env.payload);
        }
        Ok(())
    }

    fn alltoall_pairwise(
        &mut self,
        rec: &CommInfo,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        block: usize,
    ) -> OmpiResult<()> {
        let n = rec.size();
        let me = rec.my_rank as usize;
        recvbuf[me * block..(me + 1) * block]
            .copy_from_slice(&sendbuf[me * block..(me + 1) * block]);
        for step in 1..n {
            let dst = (me + step) % n;
            let src = (me + n - step) % n;
            let payload = Bytes::copy_from_slice(&sendbuf[dst * block..(dst + 1) * block]);
            self.xsend(rec, true, dst as i32, TAG_ALLTOALL + 1, payload)?;
            let got = self.xrecv(
                rec,
                true,
                SrcPattern::Is(rec.world_of(src as i32)?),
                TagPattern::Is(TAG_ALLTOALL + 1),
            )?;
            if got.env.len() != block {
                return Err(ompi_h::MPI_ERR_TRUNCATE);
            }
            recvbuf[src * block..(src + 1) * block].copy_from_slice(&got.env.payload);
        }
        Ok(())
    }
}
