//! MPICH-family collective algorithms.
//!
//! Algorithm selection mirrors the MPICH lineage the paper benchmarks:
//!
//! | collective  | small messages            | large messages                     |
//! |-------------|---------------------------|------------------------------------|
//! | `bcast`     | binomial tree             | van de Geijn (scatter + allgather) |
//! | `allreduce` | recursive doubling        | Rabenseifner (RS + allgather)      |
//! | `alltoall`  | Bruck                     | pairwise exchange (posted nonblocking in between) |
//! | `allgather` | Bruck                     | ring                               |
//! | `reduce`    | binomial tree             | binomial tree                      |
//! | `gather`    | binomial tree             | binomial tree                      |
//! | `scatter`   | binomial tree             | binomial tree                      |
//! | `scan`      | recursive doubling        | recursive doubling                 |
//! | `barrier`   | dissemination             | dissemination                      |
//!
//! All algorithms are built on the library's own point-to-point primitives
//! (`xsend`/`xrecv`), so their virtual-time cost — number of rounds × link
//! costs — emerges from the algorithm structure, which is what shapes the
//! per-vendor curves in the paper's Figs. 2–4.

use bytes::Bytes;

use simnet::mpi::{chunk_lengths, Collectives, Process};
use simnet::{SrcPattern, TagPattern};

use crate::mpih::{self, MpiComm, MpiDatatype, MpiOp, Mpich, MpichResult};
use crate::objects::CommInfo;
use crate::proc::MpichProcess;

// Collective protocol tags (collective context, so they can never collide
// with application point-to-point traffic).
const TAG_BARRIER: i32 = 0x0101;
const TAG_BCAST: i32 = 0x0102;
const TAG_REDUCE: i32 = 0x0103;
const TAG_ALLREDUCE: i32 = 0x0104;
const TAG_GATHER: i32 = 0x0105;
const TAG_SCATTER: i32 = 0x0106;
const TAG_ALLGATHER: i32 = 0x0107;
const TAG_ALLTOALL: i32 = 0x0108;
const TAG_SCAN: i32 = 0x0109;

/// Lowest set bit (subtree span in the binomial trees); `None` for zero.
fn lsb(v: usize) -> Option<usize> {
    if v == 0 {
        None
    } else {
        Some(1 << v.trailing_zeros())
    }
}

fn ceil_log2(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

impl Collectives<Mpich> for MpichProcess {
    // ------------------------------------------------------------------
    // Barrier: dissemination
    // ------------------------------------------------------------------

    /// `MPI_Barrier` — dissemination algorithm, ⌈log₂ n⌉ rounds.
    fn barrier(&mut self, comm: MpiComm) -> MpichResult<()> {
        let (info, _) = self.validate_coll(comm, mpih::MPI_BYTE, 0)?;
        let n = info.size();
        if n == 1 {
            return Ok(());
        }
        let me = info.my_rank as usize;
        let mut k = 1usize;
        while k < n {
            let dst = ((me + k) % n) as i32;
            let src = info.world_of(((me + n - k) % n) as i32)?;
            self.xsend(&info, true, dst, TAG_BARRIER, Bytes::new())?;
            self.xrecv(
                &info,
                true,
                SrcPattern::Is(src),
                TagPattern::Is(TAG_BARRIER),
            )?;
            k <<= 1;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bcast: binomial (small) / van de Geijn (large)
    // ------------------------------------------------------------------

    /// `MPI_Bcast`.
    fn bcast(
        &mut self,
        buf: &mut [u8],
        dt: MpiDatatype,
        root: i32,
        comm: MpiComm,
    ) -> MpichResult<()> {
        let (info, elem) = self.validate_coll(comm, dt, buf.len())?;
        let root = Process::validate_root(&info, root)?;
        if info.size() == 1 || buf.is_empty() {
            return Ok(());
        }
        if buf.len() <= self.tuning.bcast_binomial_max {
            self.bcast_binomial(&info, buf, root)
        } else {
            self.bcast_vandegeijn(&info, buf, elem, root)
        }
    }

    // ------------------------------------------------------------------
    // Reduce: binomial tree
    // ------------------------------------------------------------------

    /// `MPI_Reduce`. `recvbuf` must equal `sendbuf` in length at the root
    /// (it may be empty elsewhere).
    fn reduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        op: MpiOp,
        root: i32,
        comm: MpiComm,
    ) -> MpichResult<()> {
        let (info, _) = self.validate_coll(comm, dt, sendbuf.len())?;
        let root = Process::validate_root(&info, root)?;
        self.validate_op(op)?;
        let me = info.my_rank as usize;
        if me == root && recvbuf.len() != sendbuf.len() {
            return Err(mpih::MPI_ERR_COUNT);
        }
        let n = info.size();
        let mut acc = sendbuf.to_vec();
        let rel = (me + n - root) % n;
        let mut mask = 1usize;
        while mask < n {
            if rel & mask != 0 {
                // Interior/leaf node: pass the subtree result to the parent.
                let parent = ((rel - mask) + root) % n;
                self.xsend(&info, true, parent as i32, TAG_REDUCE, Bytes::from(acc))?;
                return Ok(());
            }
            let child_rel = rel | mask;
            if child_rel < n {
                let child = (child_rel + root) % n;
                let got = self.xrecv(
                    &info,
                    true,
                    SrcPattern::Is(info.world_of(child as i32)?),
                    TagPattern::Is(TAG_REDUCE),
                )?;
                if got.env.len() != acc.len() {
                    return Err(mpih::MPI_ERR_TRUNCATE);
                }
                // Child subtree holds higher relative ranks: acc ∘ child.
                self.combine_ordered(op, dt, &mut acc, &got.env.payload, false)?;
            }
            mask <<= 1;
        }
        recvbuf.copy_from_slice(&acc);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Allreduce: recursive doubling / Rabenseifner
    // ------------------------------------------------------------------

    /// `MPI_Allreduce`.
    fn allreduce(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        op: MpiOp,
        comm: MpiComm,
    ) -> MpichResult<()> {
        let (info, elem) = self.validate_coll(comm, dt, sendbuf.len())?;
        self.validate_op(op)?;
        if recvbuf.len() != sendbuf.len() {
            return Err(mpih::MPI_ERR_COUNT);
        }
        recvbuf.copy_from_slice(sendbuf);
        if info.size() == 1 || sendbuf.is_empty() {
            return Ok(());
        }
        if sendbuf.len() <= self.tuning.allreduce_recdbl_max || sendbuf.len() / elem < info.size() {
            self.allreduce_recdbl(&info, recvbuf, dt, op)
        } else {
            self.allreduce_rabenseifner(&info, recvbuf, elem, dt, op)
        }
    }

    // ------------------------------------------------------------------
    // Gather / Scatter: binomial trees
    // ------------------------------------------------------------------

    /// `MPI_Gather` (equal contributions; `recvbuf` significant at root).
    fn gather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        root: i32,
        comm: MpiComm,
    ) -> MpichResult<()> {
        let (info, _) = self.validate_coll(comm, dt, sendbuf.len())?;
        let root = Process::validate_root(&info, root)?;
        let n = info.size();
        let me = info.my_rank as usize;
        let block = sendbuf.len();
        if me == root && recvbuf.len() != block * n {
            return Err(mpih::MPI_ERR_COUNT);
        }
        if n == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        let rel = (me + n - root) % n;
        let myspan = if rel == 0 {
            n
        } else {
            lsb(rel).unwrap().min(n - rel)
        };
        // tmp holds relative blocks [rel, rel+myspan).
        let mut tmp = vec![0u8; block * myspan];
        tmp[..block].copy_from_slice(sendbuf);
        let limit = if rel == 0 { n } else { lsb(rel).unwrap() };
        let mut mask = 1usize;
        while mask < limit {
            let child_rel = rel + mask;
            if child_rel < n {
                let child_span = mask.min(n - child_rel);
                let child = (child_rel + root) % n;
                let got = self.xrecv(
                    &info,
                    true,
                    SrcPattern::Is(info.world_of(child as i32)?),
                    TagPattern::Is(TAG_GATHER),
                )?;
                if got.env.len() != block * child_span {
                    return Err(mpih::MPI_ERR_TRUNCATE);
                }
                tmp[block * mask..block * (mask + child_span)].copy_from_slice(&got.env.payload);
            }
            mask <<= 1;
        }
        if rel != 0 {
            let parent = ((rel - lsb(rel).unwrap()) + root) % n;
            self.xsend(&info, true, parent as i32, TAG_GATHER, Bytes::from(tmp))?;
        } else {
            // Root: rotate relative order back to absolute ranks.
            for i in 0..n {
                let abs = (i + root) % n;
                recvbuf[abs * block..(abs + 1) * block]
                    .copy_from_slice(&tmp[i * block..(i + 1) * block]);
            }
        }
        Ok(())
    }

    /// `MPI_Scatter` (equal blocks; `sendbuf` significant at root).
    fn scatter(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        root: i32,
        comm: MpiComm,
    ) -> MpichResult<()> {
        let (info, _) = self.validate_coll(comm, dt, recvbuf.len())?;
        let root = Process::validate_root(&info, root)?;
        let n = info.size();
        let me = info.my_rank as usize;
        let block = recvbuf.len();
        if me == root && sendbuf.len() != block * n {
            return Err(mpih::MPI_ERR_COUNT);
        }
        if n == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        let rel = (me + n - root) % n;
        let myspan = if rel == 0 {
            n
        } else {
            lsb(rel).unwrap().min(n - rel)
        };
        let mut tmp = vec![0u8; block * myspan];
        if rel == 0 {
            // Pack into relative order.
            for i in 0..n {
                let abs = (i + root) % n;
                tmp[i * block..(i + 1) * block]
                    .copy_from_slice(&sendbuf[abs * block..(abs + 1) * block]);
            }
        } else {
            let parent = ((rel - lsb(rel).unwrap()) + root) % n;
            let got = self.xrecv(
                &info,
                true,
                SrcPattern::Is(info.world_of(parent as i32)?),
                TagPattern::Is(TAG_SCATTER),
            )?;
            if got.env.len() != tmp.len() {
                return Err(mpih::MPI_ERR_TRUNCATE);
            }
            tmp.copy_from_slice(&got.env.payload);
        }
        // Send sub-spans to children, largest child first.
        let mut mask = if rel == 0 {
            1usize << (ceil_log2(n).saturating_sub(1))
        } else {
            lsb(rel).unwrap() >> 1
        };
        while mask > 0 {
            let child_rel = rel + mask;
            if child_rel < n {
                let child_span = mask.min(n - child_rel);
                let child = (child_rel + root) % n;
                let payload =
                    Bytes::copy_from_slice(&tmp[block * mask..block * (mask + child_span)]);
                self.xsend(&info, true, child as i32, TAG_SCATTER, payload)?;
            }
            mask >>= 1;
        }
        recvbuf.copy_from_slice(&tmp[..block]);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Allgather: Bruck (small) / ring (large)
    // ------------------------------------------------------------------

    /// `MPI_Allgather` (equal contributions).
    fn allgather(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        comm: MpiComm,
    ) -> MpichResult<()> {
        let (info, _) = self.validate_coll(comm, dt, sendbuf.len())?;
        let n = info.size();
        let block = sendbuf.len();
        if recvbuf.len() != block * n {
            return Err(mpih::MPI_ERR_COUNT);
        }
        if n == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        if block * n <= self.tuning.allgather_bruck_max {
            self.allgather_bruck(&info, sendbuf, recvbuf, block)
        } else {
            self.allgather_ring(&info, sendbuf, recvbuf, block)
        }
    }

    // ------------------------------------------------------------------
    // Alltoall: Bruck / posted nonblocking / pairwise
    // ------------------------------------------------------------------

    /// `MPI_Alltoall` (equal blocks).
    fn alltoall(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        comm: MpiComm,
    ) -> MpichResult<()> {
        let (info, _) = self.validate_coll(comm, dt, sendbuf.len())?;
        let n = info.size();
        if sendbuf.len() != recvbuf.len() || !sendbuf.len().is_multiple_of(n) {
            return Err(mpih::MPI_ERR_COUNT);
        }
        let block = sendbuf.len() / n;
        if n == 1 {
            recvbuf.copy_from_slice(sendbuf);
            return Ok(());
        }
        if block <= self.tuning.alltoall_bruck_max {
            self.alltoall_bruck(&info, sendbuf, recvbuf, block)
        } else if block >= self.tuning.alltoall_pairwise_min {
            self.alltoall_pairwise(&info, sendbuf, recvbuf, block)
        } else {
            self.alltoall_posted(&info, sendbuf, recvbuf, block)
        }
    }

    // ------------------------------------------------------------------
    // Scan: recursive doubling (Hillis–Steele)
    // ------------------------------------------------------------------

    /// `MPI_Scan` (inclusive prefix reduction).
    fn scan(
        &mut self,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        dt: MpiDatatype,
        op: MpiOp,
        comm: MpiComm,
    ) -> MpichResult<()> {
        let (info, _) = self.validate_coll(comm, dt, sendbuf.len())?;
        self.validate_op(op)?;
        if recvbuf.len() != sendbuf.len() {
            return Err(mpih::MPI_ERR_COUNT);
        }
        let n = info.size();
        let me = info.my_rank as usize;
        recvbuf.copy_from_slice(sendbuf);
        if n == 1 || sendbuf.is_empty() {
            return Ok(());
        }
        // `partial` is the running combination of a contiguous block of
        // ranks ending at me; `recvbuf` accumulates the full prefix.
        let mut partial = sendbuf.to_vec();
        let mut d = 1usize;
        while d < n {
            if me + d < n {
                self.xsend(
                    &info,
                    true,
                    (me + d) as i32,
                    TAG_SCAN,
                    Bytes::copy_from_slice(&partial),
                )?;
            }
            if me >= d {
                let src = info.world_of((me - d) as i32)?;
                let got = self.xrecv(&info, true, SrcPattern::Is(src), TagPattern::Is(TAG_SCAN))?;
                if got.env.len() != partial.len() {
                    return Err(mpih::MPI_ERR_TRUNCATE);
                }
                // Incoming covers ranks strictly below my block.
                self.combine_ordered(op, dt, &mut partial, &got.env.payload, true)?;
                self.combine_ordered(op, dt, recvbuf, &got.env.payload, true)?;
            }
            d <<= 1;
        }
        Ok(())
    }
}

// The algorithms behind the entry points above.
impl MpichProcess {
    fn bcast_binomial(&mut self, info: &CommInfo, buf: &mut [u8], root: usize) -> MpichResult<()> {
        let n = info.size();
        let me = info.my_rank as usize;
        let rel = (me + n - root) % n;
        let mut mask = 1usize;
        while mask < n {
            if rel & mask != 0 {
                let parent = ((rel - mask) + root) % n;
                let got = self.xrecv(
                    info,
                    true,
                    SrcPattern::Is(info.world_of(parent as i32)?),
                    TagPattern::Is(TAG_BCAST),
                )?;
                if got.env.len() != buf.len() {
                    return Err(mpih::MPI_ERR_TRUNCATE);
                }
                buf.copy_from_slice(&got.env.payload);
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        let payload = Bytes::copy_from_slice(buf);
        while mask > 0 {
            if rel + mask < n {
                let child = ((rel + mask) + root) % n;
                self.xsend(info, true, child as i32, TAG_BCAST, payload.clone())?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// van de Geijn: binomial scatter of chunks, then ring allgather.
    fn bcast_vandegeijn(
        &mut self,
        info: &CommInfo,
        buf: &mut [u8],
        elem: usize,
        root: usize,
    ) -> MpichResult<()> {
        let n = info.size();
        let me = info.my_rank as usize;
        let rel = (me + n - root) % n;
        let lens: Vec<usize> = chunk_lengths(buf.len() / elem, n)
            .into_iter()
            .map(|l| l * elem)
            .collect();
        let offs: Vec<usize> = lens
            .iter()
            .scan(0usize, |acc, &l| {
                let o = *acc;
                *acc += l;
                Some(o)
            })
            .collect();

        // Phase 1: binomial scatter of chunks in *relative* index space:
        // relative chunk i lives at rank (root + i) % n.
        let myspan = if rel == 0 {
            n
        } else {
            lsb(rel).unwrap().min(n - rel)
        };
        if rel != 0 {
            let parent = ((rel - lsb(rel).unwrap()) + root) % n;
            let got = self.xrecv(
                info,
                true,
                SrcPattern::Is(info.world_of(parent as i32)?),
                TagPattern::Is(TAG_BCAST),
            )?;
            // Chunk span [rel, rel+myspan) arrives packed.
            let mut off = 0usize;
            for i in rel..rel + myspan {
                let b = offs[i];
                let l = lens[i];
                if off + l > got.env.len() {
                    return Err(mpih::MPI_ERR_TRUNCATE);
                }
                buf[b..b + l].copy_from_slice(&got.env.payload[off..off + l]);
                off += l;
            }
        }
        let mut mask = if rel == 0 {
            1usize << (ceil_log2(n).saturating_sub(1))
        } else {
            lsb(rel).unwrap() >> 1
        };
        while mask > 0 {
            if rel + mask < n {
                let child_rel = rel + mask;
                let child_span = mask.min(n - child_rel);
                let mut packed = Vec::new();
                for i in child_rel..child_rel + child_span {
                    packed.extend_from_slice(&buf[offs[i]..offs[i] + lens[i]]);
                }
                let child = (child_rel + root) % n;
                self.xsend(info, true, child as i32, TAG_BCAST, Bytes::from(packed))?;
            }
            mask >>= 1;
        }

        // Phase 2: ring allgather of the chunks (relative index space).
        // At step s, relative rank rel sends chunk (rel − s) and receives
        // chunk (rel − s − 1), both mod n.
        let right = ((rel + 1) % n + root) % n;
        let left_world = info.world_of((((rel + n - 1) % n + root) % n) as i32)?;
        for s in 0..n - 1 {
            let send_i = (rel + n - s) % n;
            let recv_i = (rel + n - s - 1) % n;
            let payload = Bytes::copy_from_slice(&buf[offs[send_i]..offs[send_i] + lens[send_i]]);
            self.xsend(info, true, right as i32, TAG_BCAST + 0x10, payload)?;
            let got = self.xrecv(
                info,
                true,
                SrcPattern::Is(left_world),
                TagPattern::Is(TAG_BCAST + 0x10),
            )?;
            if got.env.len() != lens[recv_i] {
                return Err(mpih::MPI_ERR_TRUNCATE);
            }
            buf[offs[recv_i]..offs[recv_i] + lens[recv_i]].copy_from_slice(&got.env.payload);
        }
        Ok(())
    }

    /// Fold non-power-of-two ranks: returns `Some(newrank)` for ranks that
    /// participate in the power-of-two phase, `None` for parked ranks.
    /// On entry `acc` holds this rank's contribution; parked ranks' data is
    /// absorbed by their partners.
    fn fold_extras_pre(
        &mut self,
        info: &CommInfo,
        acc: &mut [u8],
        dt: MpiDatatype,
        op: MpiOp,
        tag: i32,
    ) -> MpichResult<Option<usize>> {
        let n = info.size();
        let me = info.my_rank as usize;
        let pof2 = 1usize << (ceil_log2(n + 1) - 1).min(63);
        let pof2 = if pof2 > n { pof2 >> 1 } else { pof2 };
        let rem = n - pof2;
        if me < 2 * rem {
            if me.is_multiple_of(2) {
                // Parked: give my data to the odd neighbour.
                self.xsend(
                    info,
                    true,
                    (me + 1) as i32,
                    tag,
                    Bytes::copy_from_slice(acc),
                )?;
                Ok(None)
            } else {
                let src = info.world_of((me - 1) as i32)?;
                let got = self.xrecv(info, true, SrcPattern::Is(src), TagPattern::Is(tag))?;
                if got.env.len() != acc.len() {
                    return Err(mpih::MPI_ERR_TRUNCATE);
                }
                // Neighbour (me−1) precedes me in rank order.
                self.combine_ordered(op, dt, acc, &got.env.payload, true)?;
                Ok(Some(me / 2))
            }
        } else {
            Ok(Some(me - rem))
        }
    }

    /// Map a folded "newrank" back to the real communicator rank.
    fn unfold(newrank: usize, rem: usize) -> usize {
        if newrank < rem {
            newrank * 2 + 1
        } else {
            newrank + rem
        }
    }

    /// Deliver results back to parked ranks after the power-of-two phase.
    fn fold_extras_post(
        &mut self,
        info: &CommInfo,
        acc: &mut [u8],
        participating: Option<usize>,
        tag: i32,
    ) -> MpichResult<()> {
        let n = info.size();
        let me = info.my_rank as usize;
        let pof2 = {
            let p = 1usize << (ceil_log2(n + 1) - 1).min(63);
            if p > n {
                p >> 1
            } else {
                p
            }
        };
        let rem = n - pof2;
        if me < 2 * rem {
            if participating.is_some() {
                self.xsend(
                    info,
                    true,
                    (me - 1) as i32,
                    tag,
                    Bytes::copy_from_slice(acc),
                )?;
            } else {
                let src = info.world_of((me + 1) as i32)?;
                let got = self.xrecv(info, true, SrcPattern::Is(src), TagPattern::Is(tag))?;
                if got.env.len() != acc.len() {
                    return Err(mpih::MPI_ERR_TRUNCATE);
                }
                acc.copy_from_slice(&got.env.payload);
            }
        }
        Ok(())
    }

    fn allreduce_recdbl(
        &mut self,
        info: &CommInfo,
        acc: &mut [u8],
        dt: MpiDatatype,
        op: MpiOp,
    ) -> MpichResult<()> {
        let n = info.size();
        let pof2 = {
            let p = 1usize << (ceil_log2(n + 1) - 1).min(63);
            if p > n {
                p >> 1
            } else {
                p
            }
        };
        let rem = n - pof2;
        let newrank = self.fold_extras_pre(info, acc, dt, op, TAG_ALLREDUCE)?;
        if let Some(nr) = newrank {
            let mut mask = 1usize;
            while mask < pof2 {
                let partner_new = nr ^ mask;
                let partner = Self::unfold(partner_new, rem);
                let me_real = info.my_rank as usize;
                self.xsend(
                    info,
                    true,
                    partner as i32,
                    TAG_ALLREDUCE + 1,
                    Bytes::copy_from_slice(acc),
                )?;
                let got = self.xrecv(
                    info,
                    true,
                    SrcPattern::Is(info.world_of(partner as i32)?),
                    TagPattern::Is(TAG_ALLREDUCE + 1),
                )?;
                if got.env.len() != acc.len() {
                    return Err(mpih::MPI_ERR_TRUNCATE);
                }
                self.combine_ordered(op, dt, acc, &got.env.payload, partner < me_real)?;
                mask <<= 1;
            }
        }
        self.fold_extras_post(info, acc, newrank, TAG_ALLREDUCE + 2)
    }

    /// Rabenseifner: reduce-scatter by recursive halving, then allgather by
    /// replaying the halving exchanges in reverse.
    fn allreduce_rabenseifner(
        &mut self,
        info: &CommInfo,
        acc: &mut [u8],
        elem: usize,
        dt: MpiDatatype,
        op: MpiOp,
    ) -> MpichResult<()> {
        let n = info.size();
        let pof2 = {
            let p = 1usize << (ceil_log2(n + 1) - 1).min(63);
            if p > n {
                p >> 1
            } else {
                p
            }
        };
        let rem = n - pof2;
        let newrank = self.fold_extras_pre(info, acc, dt, op, TAG_ALLREDUCE)?;
        if let Some(nr) = newrank {
            let total_elems = acc.len() / elem;
            let lens: Vec<usize> = chunk_lengths(total_elems, pof2)
                .into_iter()
                .map(|l| l * elem)
                .collect();
            let offs: Vec<usize> = lens
                .iter()
                .scan(0usize, |a, &l| {
                    let o = *a;
                    *a += l;
                    Some(o)
                })
                .collect();
            let span = |lo: usize, hi: usize| (offs[lo], offs[hi - 1] + lens[hi - 1]);

            // Reduce-scatter by recursive halving over chunk ranges.
            // Each step records the PARENT range and partner so the
            // allgather phase can replay the exchanges in reverse.
            let mut steps: Vec<(usize, usize, usize)> = Vec::new(); // (parent_lo, parent_hi, partner)
            let (mut lo, mut hi) = (0usize, pof2);
            while hi - lo > 1 {
                let (parent_lo, parent_hi) = (lo, hi);
                let half = (hi - lo) / 2;
                let mid = lo + half;
                let partner_new = if nr < mid { nr + half } else { nr - half };
                let partner = Self::unfold(partner_new, rem);
                let me_real = info.my_rank as usize;
                // Send the half I am NOT keeping; combine the half I keep.
                let (keep_lo, keep_hi, send_lo, send_hi) = if nr < mid {
                    (lo, mid, mid, hi)
                } else {
                    (mid, hi, lo, mid)
                };
                let (sb, se) = span(send_lo, send_hi);
                self.xsend(
                    info,
                    true,
                    partner as i32,
                    TAG_ALLREDUCE + 3,
                    Bytes::copy_from_slice(&acc[sb..se]),
                )?;
                let got = self.xrecv(
                    info,
                    true,
                    SrcPattern::Is(info.world_of(partner as i32)?),
                    TagPattern::Is(TAG_ALLREDUCE + 3),
                )?;
                let (kb, ke) = span(keep_lo, keep_hi);
                if got.env.len() != ke - kb {
                    return Err(mpih::MPI_ERR_TRUNCATE);
                }
                self.combine_ordered(
                    op,
                    dt,
                    &mut acc[kb..ke],
                    &got.env.payload,
                    partner < me_real,
                )?;
                steps.push((parent_lo, parent_hi, partner));
                lo = keep_lo;
                hi = keep_hi;
            }

            // Allgather: replay the exchanges in reverse; at each step I own
            // [lo, hi) and my partner owns the sibling half.
            for &(slo, shi, partner) in steps.iter().rev() {
                // After the halving step, I owned [lo, hi) ⊆ [slo, shi).
                // Now I own [lo, hi) = current; partner owns the sibling of
                // my range within (slo, shi).
                let (ob, oe) = span(lo, hi);
                self.xsend(
                    info,
                    true,
                    partner as i32,
                    TAG_ALLREDUCE + 4,
                    Bytes::copy_from_slice(&acc[ob..oe]),
                )?;
                let got = self.xrecv(
                    info,
                    true,
                    SrcPattern::Is(info.world_of(partner as i32)?),
                    TagPattern::Is(TAG_ALLREDUCE + 4),
                )?;
                // The partner's range is [slo..lo) or [hi..shi).
                let (pb, pe) = if lo == slo {
                    span(hi, shi)
                } else {
                    span(slo, lo)
                };
                if got.env.len() != pe - pb {
                    return Err(mpih::MPI_ERR_TRUNCATE);
                }
                acc[pb..pe].copy_from_slice(&got.env.payload);
                lo = slo;
                hi = shi;
            }
        }
        self.fold_extras_post(info, acc, newrank, TAG_ALLREDUCE + 5)
    }

    fn allgather_bruck(
        &mut self,
        info: &CommInfo,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        block: usize,
    ) -> MpichResult<()> {
        let n = info.size();
        let me = info.my_rank as usize;
        // tmp[i] = block of rank (me + i) % n once filled.
        let mut tmp = vec![0u8; block * n];
        tmp[..block].copy_from_slice(sendbuf);
        let mut have = 1usize;
        let mut pof2 = 1usize;
        while pof2 < n {
            let cnt = pof2.min(n - have);
            let dst = ((me + n - pof2) % n) as i32;
            let src = info.world_of(((me + pof2) % n) as i32)?;
            let payload = Bytes::copy_from_slice(&tmp[..block * cnt]);
            self.xsend(info, true, dst, TAG_ALLGATHER, payload)?;
            let got = self.xrecv(
                info,
                true,
                SrcPattern::Is(src),
                TagPattern::Is(TAG_ALLGATHER),
            )?;
            if got.env.len() != block * cnt {
                return Err(mpih::MPI_ERR_TRUNCATE);
            }
            tmp[block * have..block * (have + cnt)].copy_from_slice(&got.env.payload);
            have += cnt;
            pof2 <<= 1;
        }
        for i in 0..n {
            let abs = (me + i) % n;
            recvbuf[abs * block..(abs + 1) * block]
                .copy_from_slice(&tmp[i * block..(i + 1) * block]);
        }
        Ok(())
    }

    fn allgather_ring(
        &mut self,
        info: &CommInfo,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        block: usize,
    ) -> MpichResult<()> {
        let n = info.size();
        let me = info.my_rank as usize;
        recvbuf[me * block..(me + 1) * block].copy_from_slice(sendbuf);
        let right = ((me + 1) % n) as i32;
        let left_world = info.world_of(((me + n - 1) % n) as i32)?;
        for s in 0..n - 1 {
            let send_i = (me + n - s) % n;
            let recv_i = (me + n - s - 1) % n;
            let payload = Bytes::copy_from_slice(&recvbuf[send_i * block..(send_i + 1) * block]);
            self.xsend(info, true, right, TAG_ALLGATHER + 1, payload)?;
            let got = self.xrecv(
                info,
                true,
                SrcPattern::Is(left_world),
                TagPattern::Is(TAG_ALLGATHER + 1),
            )?;
            if got.env.len() != block {
                return Err(mpih::MPI_ERR_TRUNCATE);
            }
            recvbuf[recv_i * block..(recv_i + 1) * block].copy_from_slice(&got.env.payload);
        }
        Ok(())
    }

    fn alltoall_bruck(
        &mut self,
        info: &CommInfo,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        block: usize,
    ) -> MpichResult<()> {
        let n = info.size();
        let me = info.my_rank as usize;
        // Phase 1: rotation — tmp[i] = block destined to rank (me + i) % n.
        let mut tmp = vec![0u8; block * n];
        for i in 0..n {
            let src_block = (me + i) % n;
            tmp[i * block..(i + 1) * block]
                .copy_from_slice(&sendbuf[src_block * block..(src_block + 1) * block]);
        }
        // Phase 2: log₂(n) rounds of combined-block exchanges.
        let mut pof2 = 1usize;
        while pof2 < n {
            let indices: Vec<usize> = (0..n).filter(|i| i & pof2 != 0).collect();
            let mut packed = Vec::with_capacity(indices.len() * block);
            for &i in &indices {
                packed.extend_from_slice(&tmp[i * block..(i + 1) * block]);
            }
            let dst = ((me + pof2) % n) as i32;
            let src = info.world_of(((me + n - pof2) % n) as i32)?;
            self.xsend(info, true, dst, TAG_ALLTOALL, Bytes::from(packed))?;
            let got = self.xrecv(
                info,
                true,
                SrcPattern::Is(src),
                TagPattern::Is(TAG_ALLTOALL),
            )?;
            if got.env.len() != indices.len() * block {
                return Err(mpih::MPI_ERR_TRUNCATE);
            }
            for (k, &i) in indices.iter().enumerate() {
                tmp[i * block..(i + 1) * block]
                    .copy_from_slice(&got.env.payload[k * block..(k + 1) * block]);
            }
            pof2 <<= 1;
        }
        // Phase 3: inverse rotation — the block now at tmp[i] came from
        // rank (me − i + n) % n.
        for i in 0..n {
            let from = (me + n - i) % n;
            recvbuf[from * block..(from + 1) * block]
                .copy_from_slice(&tmp[i * block..(i + 1) * block]);
        }
        Ok(())
    }

    fn alltoall_posted(
        &mut self,
        info: &CommInfo,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        block: usize,
    ) -> MpichResult<()> {
        let n = info.size();
        let me = info.my_rank as usize;
        recvbuf[me * block..(me + 1) * block]
            .copy_from_slice(&sendbuf[me * block..(me + 1) * block]);
        // Post all sends (eager), then drain all receives.
        for off in 1..n {
            let dst = (me + off) % n;
            let payload = Bytes::copy_from_slice(&sendbuf[dst * block..(dst + 1) * block]);
            self.xsend(info, true, dst as i32, TAG_ALLTOALL + 1, payload)?;
        }
        for off in 1..n {
            let src = (me + n - off) % n;
            let got = self.xrecv(
                info,
                true,
                SrcPattern::Is(info.world_of(src as i32)?),
                TagPattern::Is(TAG_ALLTOALL + 1),
            )?;
            if got.env.len() != block {
                return Err(mpih::MPI_ERR_TRUNCATE);
            }
            recvbuf[src * block..(src + 1) * block].copy_from_slice(&got.env.payload);
        }
        Ok(())
    }

    fn alltoall_pairwise(
        &mut self,
        info: &CommInfo,
        sendbuf: &[u8],
        recvbuf: &mut [u8],
        block: usize,
    ) -> MpichResult<()> {
        let n = info.size();
        let me = info.my_rank as usize;
        recvbuf[me * block..(me + 1) * block]
            .copy_from_slice(&sendbuf[me * block..(me + 1) * block]);
        for step in 1..n {
            let dst = (me + step) % n;
            let src = (me + n - step) % n;
            let payload = Bytes::copy_from_slice(&sendbuf[dst * block..(dst + 1) * block]);
            self.xsend(info, true, dst as i32, TAG_ALLTOALL + 2, payload)?;
            let got = self.xrecv(
                info,
                true,
                SrcPattern::Is(info.world_of(src as i32)?),
                TagPattern::Is(TAG_ALLTOALL + 2),
            )?;
            if got.env.len() != block {
                return Err(mpih::MPI_ERR_TRUNCATE);
            }
            recvbuf[src * block..(src + 1) * block].copy_from_slice(&got.env.payload);
        }
        Ok(())
    }
}
