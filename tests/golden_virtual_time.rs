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
//!
//! The second pair of tests pins what the first six operations do not
//! reach and a vendor hoist moves — rooted and prefix collectives,
//! nonblocking requests, probe, user-defined ops and derived datatypes —
//! to constants recorded the same way on commit 5be1877 (the parent of
//! the one-engine PR). The last pair pins the clocks communicator
//! creation leaves behind, which since that PR are a function of the
//! program alone.

use mpi_stool::abi::consts::{ANY_SOURCE, UNDEFINED};
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
    Reduce,
    Gather,
    Scatter,
    Allgather,
    Scan,
    Halo,
    ProbeRecv,
    UserOpAllreduce,
    DerivedBcast,
}

const OPS: [Op; 6] = [
    Op::Barrier,
    Op::Bcast,
    Op::Allreduce,
    Op::Alltoall,
    Op::Ring,
    Op::AnySourceGather,
];

/// What [`OPS`] does not reach: the rooted and prefix collectives, the
/// request path, probe, user-defined ops and derived datatypes.
const HOISTED_OPS: [Op; 9] = [
    Op::Reduce,
    Op::Gather,
    Op::Scatter,
    Op::Allgather,
    Op::Scan,
    Op::Halo,
    Op::ProbeRecv,
    Op::UserOpAllreduce,
    Op::DerivedBcast,
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
            // Open MPI: linear up to the 8 KiB pipeline segment.
            Op::Reduce => &[8, 64, 72, 256, 264, 8192, 8200, 65536, 65544],
            Op::Gather | Op::Scatter => &[1, 64, 65, 256, 257, 2048, 8192, 8193],
            // MPICH: Bruck up to 4 KiB of gathered data, ring above —
            // 85 / 86 bytes per block on 48 ranks, 585 / 586 on seven.
            Op::Allgather => &[1, 64, 65, 85, 86, 585, 586, 8192, 8193],
            Op::Scan => &[8, 64, 72, 256, 264, 8192, 8200],
            Op::Halo | Op::ProbeRecv => &[1, 64, 65, 256, 257, 8192, 8193, 65536, 65537],
            // 16-byte elements; Open MPI recursive doubling 1 KiB, MPICH
            // 32 KiB.
            Op::UserOpAllreduce => &[16, 64, 80, 256, 272, 1024, 1040, 32768, 32784],
            // 24-byte elements around the byte-typed bcast's switch-overs.
            Op::DerivedBcast => &[
                24, 48, 72, 264, 2040, 2064, 8184, 8208, 65520, 65544, 524280, 524304,
            ],
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

/// `len` bytes of doubles that are not representable sums: the digest
/// also pins the order in which each algorithm combines them.
fn addends(rank: usize, len: usize) -> Vec<u8> {
    (0..len / 8)
        .flat_map(|i| ((rank + 1) as f64 * 0.1 + i as f64 * 1e-3).to_le_bytes())
        .collect()
}

/// `len` bytes of `(a, b)` pairs of `u64`, each the map `x -> a·x + b`.
fn affine_maps(rank: usize, len: usize) -> Vec<u8> {
    (0..len / 16)
        .flat_map(|i| {
            let a = 2 * (rank * 7 + i) as u64 + 3;
            let b = (rank * 1_000_003 + i) as u64;
            a.to_le_bytes().into_iter().chain(b.to_le_bytes())
        })
        .collect()
}

/// User-defined reduction: composition of affine maps over wrapping
/// `u64`, `inout = in ∘ inout`. Associative and **not** commutative, so
/// the result depends on every algorithm keeping rank order.
fn affine_compose(invec: &[u8], inoutvec: &mut [u8], elem_size: usize) {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    for (f, g) in invec
        .chunks_exact(elem_size)
        .zip(inoutvec.chunks_exact_mut(elem_size))
    {
        let (a1, b1) = (word(&f[..8]), word(&f[8..16]));
        let (a2, b2) = (word(&g[..8]), word(&g[8..16]));
        g[..8].copy_from_slice(&a1.wrapping_mul(a2).to_le_bytes());
        g[8..16].copy_from_slice(&a1.wrapping_mul(b2).wrapping_add(b1).to_le_bytes());
    }
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
        // The objects a leg needs are made before the common start.
        let mpi = app.mpi();
        let (dtype, user_op) = match self.op {
            Op::UserOpAllreduce => {
                let pair = mpi.type_contiguous(2, Datatype::Uint64.handle())?;
                mpi.type_commit(pair)?;
                (pair, Some(mpi.op_create(affine_compose, false)?))
            }
            Op::DerivedBcast => {
                let vec3 = mpi.type_contiguous(3, Datatype::Double.handle())?;
                mpi.type_commit(vec3)?;
                (vec3, None)
            }
            _ => (Datatype::Byte.handle(), None),
        };
        app.sleep(START.saturating_since(app.now()));
        let mut digest = Fnv::new();
        if member {
            let me = app.mpi().comm_rank(comm)? as usize;
            let n = app.mpi().comm_size(comm)? as usize;
            for (leg, &len) in self.op.sizes(self.sub7).iter().enumerate() {
                let recv = self.leg(app, comm, me, n, leg, len, dtype, user_op)?;
                if self.op != Op::AnySourceGather {
                    digest.u64(app.now().as_nanos());
                }
                digest.bytes(&recv);
            }
        }
        if dtype != Datatype::Byte.handle() {
            app.mpi().type_free(dtype)?;
        }
        if let Some(op) = user_op {
            app.mpi().op_free(op)?;
        }
        app.mem.set_u64("golden.digest", digest.0);
        Ok(())
    }
}

impl GoldenLeg {
    /// Run one call; returns what the rank received. `dtype` and
    /// `user_op` are the objects `run` made for this op family.
    #[allow(clippy::too_many_arguments)]
    fn leg(
        &self,
        app: &mut AppCtx<'_>,
        comm: Handle,
        me: usize,
        n: usize,
        leg: usize,
        len: usize,
        dtype: Handle,
        user_op: Option<Handle>,
    ) -> StoolResult<Vec<u8>> {
        let byte = Datatype::Byte.handle();
        let double = Datatype::Double.handle();
        let sum = ReduceOp::Sum.handle();
        let root = leg % n;
        let next = ((me + 1) % n) as i32;
        let prev = ((me + n - 1) % n) as i32;
        let mpi = app.mpi();
        Ok(match self.op {
            Op::Barrier => {
                mpi.barrier(comm)?;
                Vec::new()
            }
            Op::Bcast => {
                let mut buf = if me == root {
                    filled(root, len)
                } else {
                    vec![0; len]
                };
                mpi.bcast(&mut buf, byte, root as i32, comm)?;
                buf
            }
            Op::Allreduce => {
                let mut recv = vec![0; len];
                mpi.allreduce(&addends(me, len), &mut recv, double, sum, comm)?;
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
            Op::Reduce => {
                let mut recv = vec![0; if me == root { len } else { 0 }];
                mpi.reduce(&addends(me, len), &mut recv, double, sum, root as i32, comm)?;
                recv
            }
            Op::Gather => {
                let mut recv = vec![0; if me == root { len * n } else { 0 }];
                mpi.gather(&filled(me, len), &mut recv, byte, root as i32, comm)?;
                recv
            }
            Op::Scatter => {
                let send = if me == root {
                    filled(root, len * n)
                } else {
                    Vec::new()
                };
                let mut recv = vec![0; len];
                mpi.scatter(&send, &mut recv, byte, root as i32, comm)?;
                recv
            }
            Op::Allgather => {
                let mut recv = vec![0; len * n];
                mpi.allgather(&filled(me, len), &mut recv, byte, comm)?;
                recv
            }
            Op::Scan => {
                let mut recv = vec![0; len];
                mpi.scan(&addends(me, len), &mut recv, double, sum, comm)?;
                recv
            }
            Op::Halo => {
                // Both neighbours, receives posted first, one waitall.
                let send = filled(me, len);
                let requests = [
                    mpi.irecv(len, byte, prev, 21, comm)?,
                    mpi.irecv(len, byte, next, 22, comm)?,
                    mpi.isend(&send, byte, next, 21, comm)?,
                    mpi.isend(&send, byte, prev, 22, comm)?,
                ];
                let mut halo = Vec::with_capacity(2 * len);
                for (_, payload) in mpi.waitall(&requests)? {
                    halo.extend_from_slice(&payload.unwrap_or_default());
                }
                halo
            }
            Op::ProbeRecv => {
                mpi.send(&filled(me, len), byte, next, 31, comm)?;
                let status = mpi.probe(prev, 31, comm)?;
                let mut recv = vec![0; status.count_bytes as usize];
                mpi.recv(&mut recv, byte, prev, 31, comm)?;
                recv
            }
            Op::UserOpAllreduce => {
                let op = user_op.expect("made by run");
                let mut recv = vec![0; len];
                mpi.allreduce(&affine_maps(me, len), &mut recv, dtype, op, comm)?;
                recv
            }
            Op::DerivedBcast => {
                let mut buf = if me == root {
                    filled(root, len)
                } else {
                    vec![0; len]
                };
                mpi.bcast(&mut buf, dtype, root as i32, comm)?;
                buf
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

/// `(world, sub7)` digests per op, in the order of `ops`.
fn check(vendor: Vendor, ops: &[Op], golden: &[(u64, u64)]) {
    let got: Vec<(u64, u64)> = ops
        .iter()
        .map(|&op| (witness(vendor, op, false), witness(vendor, op, true)))
        .collect();
    let table: Vec<String> = ops
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
        &OPS,
        &[
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
        &OPS,
        &[
            (0xd49b6ff55801ad35, 0xdde7f784c1fca5c8), // Barrier
            (0xdf450f682de37c09, 0x25687ad53e380530), // Bcast
            (0x90318ebc201ba050, 0x2a9c4c2045de7e15), // Allreduce
            (0x17a49bd9da8b87ac, 0x6c9dac7499c1441f), // Alltoall
            (0x2d1f7a26d4cb9dc2, 0x5e70dfbe3d4a9081), // Ring
            (0x66e4b38b0d28248e, 0x8e876c656f6a21f2), // AnySourceGather
        ],
    );
}

#[test]
fn mpich_hoisted_paths_equal_the_recorded_parent() {
    check(
        Vendor::Mpich,
        &HOISTED_OPS,
        &[
            (0xb881661aae2a3ca3, 0x3133a169fa57ca66), // Reduce
            (0x7504bf3417d574c4, 0x9cf980d00efa9b2b), // Gather
            (0x176bbec2d262a8c1, 0x09f8b72a50a296dd), // Scatter
            (0x2355f77b80723a25, 0x6bff6bf5f339dc7e), // Allgather
            (0x8a421a1f9158e25c, 0x573313c4b1924740), // Scan
            (0x42f5dbf3df5f7d21, 0x2b71c32de994aaba), // Halo
            (0x478bfe4ed79a4056, 0xa71b503852cb9702), // ProbeRecv
            (0xe88ade077e76b719, 0x77ee70b9bb4e07bf), // UserOpAllreduce
            (0x5ee18f60d7fb6ea5, 0x242651b35cab044f), // DerivedBcast
        ],
    );
}

#[test]
fn openmpi_hoisted_paths_equal_the_recorded_parent() {
    check(
        Vendor::OpenMpi,
        &HOISTED_OPS,
        &[
            (0x2059da96ada85633, 0x2cbc197d2e2666c4), // Reduce
            (0xcd2eb876febb877a, 0xa6fcaa67522110b9), // Gather
            (0x257eb6927d7af80b, 0xc45c7a7b3b869108), // Scatter
            (0x0d63ae7a5a88b2c5, 0x8e11c7408ae30515), // Allgather
            (0x34b39c177e2c8e0c, 0x6952ba8a80a5fc35), // Scan
            (0xe6d64ba45a6086db, 0xe6608d4c888ec930), // Halo
            (0xb94b95d714741341, 0x36412a6de9e2403c), // ProbeRecv
            (0xfb65a8f6837881b4, 0x327dc7ab0ead8e4b), // UserOpAllreduce
            (0x7b042bfde6e6fbc0, 0x2b979658270f3b26), // DerivedBcast
        ],
    );
}

/// `comm_split` (three colours, every fifth rank opting out) and a
/// `comm_dup` of the world, entered with a rank-dependent skew so the
/// contributions reach comm rank 0 spread out and out of rank order.
struct CommCreation;

impl MpiProgram for CommCreation {
    fn name(&self) -> &'static str {
        "comm-creation"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let me = app.rank();
        app.sleep(VirtualTime::from_micros((me * 37 % 48) as u64 * 5));
        let color = if me % 5 == 4 {
            UNDEFINED
        } else {
            (me % 3) as i32
        };
        let mut digest = Fnv::new();
        let sub = app
            .mpi()
            .comm_split(Handle::COMM_WORLD, color, -(me as i32))?;
        digest.u64(app.now().as_nanos());
        let dup = app.mpi().comm_dup(Handle::COMM_WORLD)?;
        digest.u64(app.now().as_nanos());
        if sub != Handle::COMM_NULL {
            digest.u64(app.mpi().comm_rank(sub)? as u64);
            app.mpi().comm_free(sub)?;
        }
        app.mpi().comm_free(dup)?;
        app.mem.set_u64("golden.digest", digest.0);
        Ok(())
    }
}

/// Every rank's clock after communicator creation, folded in rank order,
/// is the same value on each of 20 launches.
fn check_comm_creation(vendor: Vendor, golden: u64) {
    for run in 0..20 {
        let outcome = Session::builder()
            .cluster(ClusterSpec::discovery())
            .vendor(vendor)
            .build()
            .expect("session")
            .launch(&CommCreation)
            .expect("launch");
        let mut fold = Fnv::new();
        for mem in outcome.memories().expect("completed") {
            fold.u64(mem.get_u64("golden.digest").expect("rank digest"));
        }
        assert!(
            fold.0 == golden,
            "run {run}: clocks after comm_split + comm_dup under {vendor:?} are {:#018x}",
            fold.0
        );
    }
}

#[test]
fn mpich_comm_creation_clocks_are_a_function_of_the_program() {
    check_comm_creation(Vendor::Mpich, 0x70991fa110ba4b3a);
}

#[test]
fn openmpi_comm_creation_clocks_are_a_function_of_the_program() {
    check_comm_creation(Vendor::OpenMpi, 0xa1a434e624d716fe);
}
