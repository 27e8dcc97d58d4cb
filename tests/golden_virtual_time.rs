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
//! the one-engine PR). The third pair runs all fifteen families on a
//! 32-rank power-of-two split, each size list led by a 0-byte leg, with
//! constants recorded on commit 1682949 (the parent of the
//! one-collectives-library PR): the no-fold recursive-doubling paths and
//! the empty-buffer cases the other two communicators never reach.
//!
//! One family was re-recorded on purpose: `UserOpAllreduce` (a
//! non-commutative user op) on every communicator, in the commit that
//! made both vendors combine such ops in rank order. Its legs assert the
//! rank-order fold before they digest, and
//! `non_commutative_ops_combine_in_rank_order` holds every reducing
//! collective to the same rule.
//!
//! The last pair pins the clocks communicator creation leaves behind,
//! which since the one-engine PR are a function of the program alone.

use mpi_stool::abi::consts::{ANY_SOURCE, UNDEFINED};
use mpi_stool::abi::{Datatype, Handle, ReduceOp};
use mpi_stool::simnet::{ClusterSpec, VirtualTime};
use mpi_stool::stool::{AppCtx, MpiProgram, Session, StoolResult, Vendor};

/// Every rank idles to this instant before its first leg. Communicator
/// creation (and anything else at start-up that gathers through
/// any-source receives) leaves clocks that depend on thread timing; a
/// fixed start makes every later clock a pure function of the program.
const START: VirtualTime = VirtualTime::from_secs(1);

/// The communicator a leg runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Comm {
    /// The paper's 48-rank world.
    World,
    /// World ranks 0, 7, …, 42 of the 4 × 12 cluster: seven members on
    /// all four nodes, not identity-mapped, not a power of two.
    Sub7,
    /// World ranks `r % 3 != 2`: 32 members on all four nodes, not
    /// identity-mapped, a power of two.
    Sub32,
}

impl Comm {
    fn member(self, world_rank: usize) -> bool {
        match self {
            Comm::World => true,
            Comm::Sub7 => world_rank.is_multiple_of(7),
            Comm::Sub32 => world_rank % 3 != 2,
        }
    }

    /// Members on the 4 × 12 cluster.
    fn size(self) -> usize {
        (0..48).filter(|&r| self.member(r)).count()
    }

    /// Create the communicator (collective over the world); `None` on
    /// ranks outside it.
    fn open(self, app: &mut AppCtx<'_>) -> StoolResult<Option<Handle>> {
        let member = self.member(app.rank());
        let handle = match self {
            Comm::World => Handle::COMM_WORLD,
            Comm::Sub7 | Comm::Sub32 => {
                let key = app.rank() as i32;
                app.mpi()
                    .comm_split(Handle::COMM_WORLD, !member as i32, key)?
            }
        };
        Ok(member.then_some(handle))
    }
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
    /// recursive doubling 1 KiB, linear alltoall 64 KiB. The 32-rank
    /// split leads every list with a 0-byte leg.
    fn sizes(self, comm: Comm) -> Vec<usize> {
        let sub7 = comm == Comm::Sub7;
        let sizes: &[usize] = match self {
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
            // On 32 ranks: Open MPI recursive doubling up to 2 KiB of
            // gathered data (64 bytes per block), MPICH Bruck up to 4 KiB
            // (128).
            Op::Allgather if comm == Comm::Sub32 => &[1, 64, 65, 128, 129, 8192, 8193],
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
        };
        let empty: &[usize] = if comm == Comm::Sub32 { &[0] } else { &[] };
        [empty, sizes].concat()
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

/// What the standard says a reduction of `affine_compose` over comm ranks
/// `0..n` is, for every prefix: `x0 ∘ x1 ∘ … ∘ xk` at index `k`.
fn rank_order_prefixes(n: usize, len: usize) -> Vec<Vec<u8>> {
    let mut prefixes: Vec<Vec<u8>> = Vec::with_capacity(n);
    for rank in 0..n {
        let mut next = affine_maps(rank, len);
        if let Some(lower) = prefixes.last() {
            affine_compose(lower, &mut next, 16);
        }
        prefixes.push(next);
    }
    prefixes
}

/// One op family on one communicator, every size in turn.
struct GoldenLeg {
    op: Op,
    comm: Comm,
    /// `UserOpAllreduce`: the rank-order fold per leg.
    folds: Vec<Vec<u8>>,
}

impl MpiProgram for GoldenLeg {
    fn name(&self) -> &'static str {
        "golden-leg"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let comm = self.comm.open(app)?;
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
        if let Some(comm) = comm {
            let me = app.mpi().comm_rank(comm)? as usize;
            let n = app.mpi().comm_size(comm)? as usize;
            for (leg, len) in self.op.sizes(self.comm).into_iter().enumerate() {
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
                assert!(
                    recv == self.folds[leg],
                    "{len} B not combined in rank order"
                );
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
fn witness(vendor: Vendor, op: Op, comm: Comm) -> u64 {
    let folds = match op {
        Op::UserOpAllreduce => op
            .sizes(comm)
            .into_iter()
            .map(|len| {
                rank_order_prefixes(comm.size(), len)
                    .pop()
                    .unwrap_or_default()
            })
            .collect(),
        _ => Vec::new(),
    };
    let outcome = Session::builder()
        .cluster(ClusterSpec::discovery())
        .vendor(vendor)
        .build()
        .expect("session")
        .launch(&GoldenLeg { op, comm, folds })
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
        .map(|&op| {
            (
                witness(vendor, op, Comm::World),
                witness(vendor, op, Comm::Sub7),
            )
        })
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
            (0x8394c6f9bfac81c1, 0x5e6a533a098b9365), // UserOpAllreduce
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
            (0x45e5bf528129f601, 0xaca3bb079856f2cc), // UserOpAllreduce
            (0x7b042bfde6e6fbc0, 0x2b979658270f3b26), // DerivedBcast
        ],
    );
}

/// The 32-rank split's digest per op, over [`OPS`] then [`HOISTED_OPS`].
fn check_sub32(vendor: Vendor, golden: &[u64]) {
    let ops = [&OPS[..], &HOISTED_OPS[..]].concat();
    let got: Vec<u64> = ops
        .iter()
        .map(|&op| witness(vendor, op, Comm::Sub32))
        .collect();
    let table: Vec<String> = ops
        .iter()
        .zip(&got)
        .map(|(op, d)| format!("            {d:#018x}, // {op:?}"))
        .collect();
    assert!(
        got == golden,
        "virtual time or a receive buffer moved on the 32-rank split under {vendor:?}; \
         measured:\n{}",
        table.join("\n")
    );
}

#[test]
fn mpich_power_of_two_split_equals_the_recorded_parent() {
    check_sub32(
        Vendor::Mpich,
        &[
            0xb2e6fcc1514a06c5, // Barrier
            0x1d9f576b0e1b805f, // Bcast
            0xc00a93c17366d89b, // Allreduce
            0xe78360c8da8a4d57, // Alltoall
            0x22f6dae22e478db8, // Ring
            0xda0afb247eac2c2a, // AnySourceGather
            0xffbbcc9d19ffb85f, // Reduce
            0xdc821adb9f5e90c7, // Gather
            0xfae66f474b2b3a11, // Scatter
            0x669b8accaed2d185, // Allgather
            0xdd0201cbdf07c758, // Scan
            0x81b3a8754b880865, // Halo
            0x2c574a229548299f, // ProbeRecv
            0xc25c1fbaa7e3c6a5, // UserOpAllreduce
            0x5f0dfbe1e3f819af, // DerivedBcast
        ],
    );
}

#[test]
fn openmpi_power_of_two_split_equals_the_recorded_parent() {
    check_sub32(
        Vendor::OpenMpi,
        &[
            0x7b01f5fdea6e9aa5, // Barrier
            0xb5a306e25eb213bc, // Bcast
            0x1f20674e337343ff, // Allreduce
            0xd8986bea69df40be, // Alltoall
            0x0e6748a7e1f96b2a, // Ring
            0xda0afb247eac2c2a, // AnySourceGather
            0x4ee1ac24c19ca6f1, // Reduce
            0x1315c86100295d1a, // Gather
            0xf143d642c19cb948, // Scatter
            0x0b22f3e6357e093d, // Allgather
            0x53f41d58f01eac44, // Scan
            0x306986573263895c, // Halo
            0x1fa5de913725ace4, // ProbeRecv
            0x50a15aa2848d7f85, // UserOpAllreduce
            0xd7546b2060025c30, // DerivedBcast
        ],
    );
}

/// The reducing calls [`RankOrder`] makes, in order.
const RANK_ORDER_CALLS: [&str; 4] = [
    "allreduce",
    "reduce to rank 0",
    "reduce to rank n-1",
    "scan",
];

/// Sizes straddling every switch-over a non-commutative reduction can
/// meet: Open MPI recursive doubling 1 KiB and pipeline segment 8 KiB,
/// MPICH recursive doubling 32 KiB.
const RANK_ORDER_SIZES: [usize; 8] = [0, 16, 1024, 1040, 8192, 8208, 32768, 32784];

/// Every reducing collective with `affine_compose` (`commute = false`)
/// on one communicator; each rank records the `(call, size)` pairs whose
/// result is not the rank-order fold.
struct RankOrder {
    comm: Comm,
    /// [`rank_order_prefixes`] per entry of [`RANK_ORDER_SIZES`].
    prefixes: Vec<Vec<Vec<u8>>>,
}

impl MpiProgram for RankOrder {
    fn name(&self) -> &'static str {
        "rank-order"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let Some(comm) = self.comm.open(app)? else {
            return Ok(());
        };
        let mpi = app.mpi();
        let pair = mpi.type_contiguous(2, Datatype::Uint64.handle())?;
        mpi.type_commit(pair)?;
        let op = mpi.op_create(affine_compose, false)?;
        let me = mpi.comm_rank(comm)? as usize;
        let n = mpi.comm_size(comm)? as usize;
        let mut wrong = Vec::new();
        for (len, prefixes) in RANK_ORDER_SIZES.into_iter().zip(&self.prefixes) {
            let mine = affine_maps(me, len);
            let mut all = vec![0; len];
            mpi.allreduce(&mine, &mut all, pair, op, comm)?;
            // (call, what this rank got, what the standard says)
            let mut results = vec![(0, all, &prefixes[n - 1])];
            for (call, root) in [(1, 0), (2, n - 1)] {
                let mut at_root = vec![0; if me == root { len } else { 0 }];
                mpi.reduce(&mine, &mut at_root, pair, op, root as i32, comm)?;
                if me == root {
                    results.push((call, at_root, &prefixes[n - 1]));
                }
            }
            let mut prefix = vec![0; len];
            mpi.scan(&mine, &mut prefix, pair, op, comm)?;
            results.push((3, prefix, &prefixes[me]));
            for (call, got, want) in results {
                if got != *want {
                    wrong.extend([call, len as u64]);
                }
            }
        }
        mpi.op_free(op)?;
        mpi.type_free(pair)?;
        *app.mem.u64s_mut("rank_order.wrong", 0) = wrong;
        Ok(())
    }
}

/// `MPI_Op_create(…, commute = false)`: every reducing collective must
/// combine in ascending rank order, under both vendors, on every
/// communicator shape, on both sides of every switch-over.
#[test]
fn non_commutative_ops_combine_in_rank_order() {
    let mut wrong = Vec::new();
    for vendor in [Vendor::Mpich, Vendor::OpenMpi] {
        for comm in [Comm::World, Comm::Sub32, Comm::Sub7] {
            let prefixes = RANK_ORDER_SIZES
                .iter()
                .map(|&len| rank_order_prefixes(comm.size(), len))
                .collect();
            let outcome = Session::builder()
                .cluster(ClusterSpec::discovery())
                .vendor(vendor)
                .build()
                .expect("session")
                .launch(&RankOrder { comm, prefixes })
                .expect("launch");
            for mem in outcome.memories().expect("completed") {
                for pair in mem.u64s("rank_order.wrong").unwrap_or_default().chunks(2) {
                    let call = RANK_ORDER_CALLS[pair[0] as usize];
                    wrong.push(format!("{vendor:?} {comm:?}: {call} of {} B", pair[1]));
                }
            }
        }
    }
    wrong.sort();
    wrong.dedup();
    assert!(
        wrong.is_empty(),
        "not combined in rank order:\n{}",
        wrong.join("\n")
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
