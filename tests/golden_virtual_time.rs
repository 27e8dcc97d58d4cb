//! Golden virtual-time witness: the in-tree form of "`virt_s` is
//! bit-equal to the parent".
//!
//! Host-side optimisations of the message path (fabric wake-ups, the
//! matcher, payload slicing) must be invisible to virtual time and to the
//! data. For {MPICH, Open MPI} × {barrier, bcast, allreduce, alltoall, a
//! `sendrecv` ring, an any-source gather} × block sizes straddling every
//! `tuning.rs` switch-over (and 64 B / 65 B, the `Bytes` inline edge), on
//! the paper's 48-rank world and on a 7-rank split communicator, an FNV
//! digest over every rank's virtual clock and receive buffer after each
//! call equals a constant recorded by running this same file on commit
//! 105a1a8 (the parent of the targeted-wake PR). A digest that moves
//! means virtual time or a payload moved: that is a behaviour change, not
//! an optimisation — re-record only in a PR that is *about* moving it.
//!
//! The any-source legs digest receive buffers only: the order in which a
//! wildcard receive sees concurrent senders is thread timing, and the
//! receiver's clock follows that order.

use mpi_stool::abi::consts::ANY_SOURCE;
use mpi_stool::abi::{Datatype, Handle, ReduceOp};
use mpi_stool::simnet::{ClusterSpec, VirtualTime};
use mpi_stool::stool::{AppCtx, MpiProgram, Session, StoolResult, Vendor};

/// Every rank idles to this instant before its first leg. Communicator
/// creation (and anything else at start-up that gathers through
/// any-source receives) leaves clocks that depend on thread timing; a
/// fixed start makes every later clock a pure function of the program.
const START: VirtualTime = VirtualTime::from_secs(1);

/// World ranks 0, 7, …, 42 of the 4 × 12 cluster: seven members on all
/// four nodes, not identity-mapped, not a power of two.
fn in_sub7(world_rank: usize) -> bool {
    world_rank.is_multiple_of(7)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Barrier,
    Bcast,
    Allreduce,
    Alltoall,
    Ring,
    AnySourceGather,
}

const OPS: [Op; 6] = [
    Op::Barrier,
    Op::Bcast,
    Op::Allreduce,
    Op::Alltoall,
    Op::Ring,
    Op::AnySourceGather,
];

impl Op {
    /// Payload sizes in bytes (per block for alltoall). Switch-overs
    /// straddled: inline 64; MPICH sock-small / Bruck 256, pairwise
    /// 32 KiB, eager 64 KiB, recursive doubling 32 KiB, binomial 512 KiB;
    /// Open MPI binary tree 2 KiB, eager / pipeline segment 8 KiB,
    /// recursive doubling 1 KiB, linear alltoall 64 KiB.
    fn sizes(self, sub7: bool) -> &'static [usize] {
        match self {
            Op::Barrier => &[0, 0, 0],
            Op::Bcast => &[
                1, 64, 65, 256, 257, 2048, 2049, 8192, 8193, 20000, 65536, 65537, 524288, 524289,
            ],
            Op::Allreduce => &[
                8, 64, 72, 256, 264, 1024, 1032, 8192, 8200, 32768, 32776, 65536, 65544,
            ],
            // The two top switch-overs only on seven ranks: 48 × 48
            // blocks of 64 KiB is 150 MB in flight.
            Op::Alltoall if sub7 => &[
                1, 64, 65, 256, 257, 2048, 8192, 8193, 32767, 32768, 65536, 65537,
            ],
            Op::Alltoall => &[1, 64, 65, 256, 257, 2048, 8192, 8193],
            Op::Ring => &[1, 64, 65, 256, 257, 8192, 8193, 65536, 65537],
            Op::AnySourceGather => &[1, 64, 65, 257, 8192, 8193],
        }
    }
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The deterministic `len`-byte payload sent by comm rank `rank`.
fn filled(rank: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (rank * 131 + i * 7 + len) as u8).collect()
}

/// One op family on one communicator, every size in turn.
struct GoldenLeg {
    op: Op,
    sub7: bool,
}

impl MpiProgram for GoldenLeg {
    fn name(&self) -> &'static str {
        "golden-leg"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let member = !self.sub7 || in_sub7(app.rank());
        let comm = if self.sub7 {
            let key = app.rank() as i32;
            app.mpi()
                .comm_split(Handle::COMM_WORLD, !member as i32, key)?
        } else {
            Handle::COMM_WORLD
        };
        app.sleep(START.saturating_since(app.now()));
        let mut digest = Fnv::new();
        if member {
            let me = app.mpi().comm_rank(comm)? as usize;
            let n = app.mpi().comm_size(comm)? as usize;
            for (leg, &len) in self.op.sizes(self.sub7).iter().enumerate() {
                let recv = self.leg(app, comm, me, n, leg, len)?;
                if self.op != Op::AnySourceGather {
                    digest.u64(app.now().as_nanos());
                }
                digest.bytes(&recv);
            }
        }
        app.mem.set_u64("golden.digest", digest.0);
        Ok(())
    }
}

impl GoldenLeg {
    /// Run one call; returns what the rank received.
    fn leg(
        &self,
        app: &mut AppCtx<'_>,
        comm: Handle,
        me: usize,
        n: usize,
        leg: usize,
        len: usize,
    ) -> StoolResult<Vec<u8>> {
        let byte = Datatype::Byte.handle();
        let mpi = app.mpi();
        Ok(match self.op {
            Op::Barrier => {
                mpi.barrier(comm)?;
                Vec::new()
            }
            Op::Bcast => {
                let root = leg % n;
                let mut buf = if me == root {
                    filled(root, len)
                } else {
                    vec![0; len]
                };
                mpi.bcast(&mut buf, byte, root as i32, comm)?;
                buf
            }
            Op::Allreduce => {
                // Non-representable addends: the digest also pins the
                // order in which each algorithm combines them.
                let send: Vec<u8> = (0..len / 8)
                    .flat_map(|i| ((me + 1) as f64 * 0.1 + i as f64 * 1e-3).to_le_bytes())
                    .collect();
                let mut recv = vec![0; len];
                mpi.allreduce(
                    &send,
                    &mut recv,
                    Datatype::Double.handle(),
                    ReduceOp::Sum.handle(),
                    comm,
                )?;
                recv
            }
            Op::Alltoall => {
                let send = filled(me, len * n);
                let mut recv = vec![0; len * n];
                mpi.alltoall(&send, &mut recv, byte, comm)?;
                recv
            }
            Op::Ring => {
                let send = filled(me, len);
                let mut recv = vec![0; len];
                let next = ((me + 1) % n) as i32;
                let prev = ((me + n - 1) % n) as i32;
                mpi.sendrecv(&send, next, 11, &mut recv, prev, 11, byte, comm)?;
                recv
            }
            Op::AnySourceGather => {
                // One tag per leg, so a fast sender's next block cannot
                // match this leg's wildcard receive.
                let tag = 100 + leg as i32;
                if me != 0 {
                    mpi.send(&filled(me, len), byte, 0, tag, comm)?;
                    return Ok(Vec::new());
                }
                let mut all = vec![0; len * n];
                let mut block = vec![0; len];
                for _ in 1..n {
                    let status = mpi.recv(&mut block, byte, ANY_SOURCE, tag, comm)?;
                    let from = status.source as usize;
                    all[from * len..(from + 1) * len].copy_from_slice(&block);
                }
                all
            }
        })
    }
}

/// Digest of one op family on one communicator: every rank's digest,
/// folded in rank order.
fn witness(vendor: Vendor, op: Op, sub7: bool) -> u64 {
    let outcome = Session::builder()
        .cluster(ClusterSpec::discovery())
        .vendor(vendor)
        .build()
        .expect("session")
        .launch(&GoldenLeg { op, sub7 })
        .expect("launch");
    let mut fold = Fnv::new();
    for mem in outcome.memories().expect("completed") {
        fold.u64(mem.get_u64("golden.digest").expect("rank digest"));
    }
    fold.0
}

/// `(world, sub7)` digests per op, in [`OPS`] order.
fn check(vendor: Vendor, golden: [(u64, u64); 6]) {
    let got: Vec<(u64, u64)> = OPS
        .iter()
        .map(|&op| (witness(vendor, op, false), witness(vendor, op, true)))
        .collect();
    let table: Vec<String> = OPS
        .iter()
        .zip(&got)
        .map(|(op, (w, s))| format!("            ({w:#018x}, {s:#018x}), // {op:?}"))
        .collect();
    assert!(
        got == golden,
        "virtual time or a receive buffer moved under {vendor:?}; measured:\n{}",
        table.join("\n")
    );
}

#[test]
fn mpich_clocks_and_buffers_equal_the_recorded_parent() {
    check(
        Vendor::Mpich,
        [
            (0x01b10aeceee2af1d, 0x1da52fd5d7adc071), // Barrier
            (0xe5f36e2073f35795, 0xbdfce2472b5141e1), // Bcast
            (0xdad84e26f3786141, 0x7c829c91da1b0e9c), // Allreduce
            (0xadbb6b406785e5c8, 0x43fa0f801af0ae77), // Alltoall
            (0x08141b64e0793829, 0xc8f6b79ea34bcc94), // Ring
            (0x66e4b38b0d28248e, 0x8e876c656f6a21f2), // AnySourceGather
        ],
    );
}

#[test]
fn openmpi_clocks_and_buffers_equal_the_recorded_parent() {
    check(
        Vendor::OpenMpi,
        [
            (0xd49b6ff55801ad35, 0xdde7f784c1fca5c8), // Barrier
            (0xdf450f682de37c09, 0x25687ad53e380530), // Bcast
            (0x90318ebc201ba050, 0x2a9c4c2045de7e15), // Allreduce
            (0x17a49bd9da8b87ac, 0x6c9dac7499c1441f), // Alltoall
            (0x2d1f7a26d4cb9dc2, 0x5e70dfbe3d4a9081), // Ring
            (0x66e4b38b0d28248e, 0x8e876c656f6a21f2), // AnySourceGather
        ],
    );
}
