//! The collective library, algorithm by algorithm, and each vendor's
//! selection table, row by row.
//!
//! Every `simnet::mpi::algos` function runs directly — not through a
//! selection — under both native headers, at communicator sizes
//! {1, 2, 3, 4, 5, 7, 8, 12, 16} spread over two nodes, every root for
//! the rooted ones, and its result is checked against a naive reference.
//! The reducing algorithms a selection can pick for a non-commutative op
//! are also checked with one (composition of affine maps), against the
//! rank-order fold. The boundary tests check every selection row at its
//! threshold and one past it.

use std::rc::Rc;

use mpi_stool::mpich::{self, Mpich};
use mpi_stool::ompi::{self, OpenMpi};
use mpi_stool::simnet::mpi::algos::{
    self, Allgather, Allreduce, Alltoall, Barrier, Bcast, Fold, Gather, Reduce, Reduction, Scan,
    Scatter,
};
use mpi_stool::simnet::mpi::{BuiltinOp, CommInfo, MpiResult, NativeAbi, ObjectStore, Process};
use mpi_stool::simnet::mpi::{Shape, Tuning};
use mpi_stool::simnet::{ClusterSpec, RankCtx, SimError, VirtualTime, World};

const SIZES: [usize; 9] = [1, 2, 3, 4, 5, 7, 8, 12, 16];

/// Elements per rank: not a multiple of most sizes, so chunked
/// algorithms get ragged chunks, and more than one 16-byte segment.
const ELEMS: usize = 13;

/// Rank `rank`'s `u64` vector.
fn data(rank: usize) -> Vec<u8> {
    (0..ELEMS)
        .flat_map(|i| (rank as u64 * 1000 + i as u64 + 1).to_le_bytes())
        .collect()
}

/// Element-wise wrapping sum of ranks `ranks`' vectors.
fn sum(ranks: impl Iterator<Item = usize>) -> Vec<u8> {
    let mut acc = [0u64; ELEMS];
    for rank in ranks {
        for (a, b) in acc.iter_mut().zip(data(rank).chunks_exact(8)) {
            *a = a.wrapping_add(u64::from_le_bytes(b.try_into().unwrap()));
        }
    }
    acc.iter().flat_map(|a| a.to_le_bytes()).collect()
}

/// Rank `rank`'s `(a, b)` pairs of `u64`, each the map `x -> a·x + b`.
fn affine_maps(rank: usize) -> Vec<u8> {
    (0..ELEMS)
        .flat_map(|i| {
            let a = 2 * (rank * 7 + i) as u64 + 3;
            let b = (rank * 1_000_003 + i) as u64;
            a.to_le_bytes().into_iter().chain(b.to_le_bytes())
        })
        .collect()
}

/// `inout = in ∘ inout` over affine maps: associative, not commutative.
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

/// `x0 ∘ x1 ∘ … ∘ x(k−1)` over ranks `0..k`.
fn compose(k: usize) -> Vec<u8> {
    let mut acc = affine_maps(0);
    for rank in 1..k {
        let mut next = affine_maps(rank);
        affine_compose(&acc, &mut next, 16);
        acc = next;
    }
    acc
}

/// One rank's view while it runs the table: what went wrong so far.
struct Case<'a, V: NativeAbi> {
    p: &'a mut Process<V>,
    info: CommInfo<V>,
    me: usize,
    n: usize,
    /// `u64` sum: commutative.
    sum: Reduction<V>,
    /// Affine composition: not commutative.
    affine: Reduction<V>,
    wrong: Vec<String>,
}

impl<V: NativeAbi> Case<'_, V> {
    fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.wrong.push(format!("{what} on {} ranks", self.n));
        }
    }

    /// A rooted algorithm at every root: `run(case, root)` returns what
    /// the rank got and what it should have got.
    fn every_root(
        &mut self,
        what: &str,
        run: impl Fn(&mut Self, usize) -> MpiResult<(Vec<u8>, Vec<u8>)>,
    ) -> MpiResult<()> {
        for root in 0..self.n {
            let (got, want) = run(self, root)?;
            self.check(&format!("{what} at root {root}"), got == want);
        }
        Ok(())
    }
}

/// Every algorithm once on this rank; the names of wrong results.
fn table<V: NativeAbi>(case: &mut Case<'_, V>, ctx: &RankCtx) -> MpiResult<()> {
    let (me, n) = (case.me, case.n);
    let info = case.info.clone();
    let len = ELEMS * 8;

    // Barrier: rank r enters 5 µs × r after a common instant; nobody
    // leaves before the last one has entered.
    type BarrierFn<V> = fn(&mut Process<V>, &CommInfo<V>) -> MpiResult<()>;
    let barriers: [(&str, BarrierFn<V>); 3] = [
        ("barrier_dissemination", algos::barrier_dissemination),
        ("barrier_doubling even-into-odd", |p, i| {
            algos::barrier_doubling(p, i, Fold::EvenIntoOdd)
        }),
        ("barrier_doubling upper-into-lower", |p, i| {
            algos::barrier_doubling(p, i, Fold::UpperIntoLower)
        }),
    ];
    for (k, (what, barrier)) in barriers.into_iter().enumerate() {
        let enter = |rank: usize| {
            VirtualTime::from_secs(k as u64 + 1) + VirtualTime::from_micros(5 * rank as u64)
        };
        ctx.sleep(enter(me).saturating_since(ctx.now()));
        barrier(case.p, &info)?;
        case.check(what, ctx.now() >= enter(n - 1));
    }

    // Bcast of the root's vector.
    type BcastFn<V> = fn(&mut Process<V>, &CommInfo<V>, &mut [u8], usize) -> MpiResult<()>;
    let bcasts: [(&str, BcastFn<V>); 4] = [
        ("bcast_binomial", algos::bcast_binomial),
        ("bcast_scatter_ring", |p, i, b, r| {
            algos::bcast_scatter_ring(p, i, b, 8, r)
        }),
        ("bcast_binary_tree", algos::bcast_binary_tree),
        ("bcast_chain", |p, i, b, r| {
            algos::bcast_chain(p, i, b, r, 16)
        }),
    ];
    for (what, bcast) in bcasts {
        case.every_root(what, |c, root| {
            let mut buf = if me == root { data(root) } else { vec![0; len] };
            bcast(c.p, &info, &mut buf, root)?;
            Ok((buf, data(root)))
        })?;
    }

    // Reduce: the sum at the root; the rank-order composition where a
    // selection may pick the algorithm for a non-commutative op.
    type ReduceFn<V> =
        fn(&mut Process<V>, &CommInfo<V>, &[u8], &mut [u8], Reduction<V>, usize) -> MpiResult<()>;
    let reduces: [(&str, ReduceFn<V>, bool); 3] = [
        ("reduce_binomial", algos::reduce_binomial, true),
        ("reduce_linear", algos::reduce_linear, true),
        (
            "reduce_chain",
            |p, i, s, r, red, root| algos::reduce_chain(p, i, s, r, red, root, 16),
            false,
        ),
    ];
    for (what, reduce, rank_order) in reduces {
        let red = case.sum;
        case.every_root(what, |c, root| {
            let mut got = vec![0; if me == root { len } else { 0 }];
            reduce(c.p, &info, &data(me), &mut got, red, root)?;
            let want = if me == root { sum(0..n) } else { Vec::new() };
            Ok((got, want))
        })?;
        if rank_order {
            let affine = case.affine;
            case.every_root(&format!("{what} non-commutative"), |c, root| {
                let mut got = vec![0; if me == root { 2 * len } else { 0 }];
                reduce(c.p, &info, &affine_maps(me), &mut got, affine, root)?;
                let want = if me == root { compose(n) } else { Vec::new() };
                Ok((got, want))
            })?;
        }
    }

    // Allreduce, in place.
    type AllreduceFn<V> =
        fn(&mut Process<V>, &CommInfo<V>, &mut [u8], Reduction<V>) -> MpiResult<()>;
    let allreduces: [(&str, AllreduceFn<V>, bool); 5] = [
        (
            "allreduce_doubling even-into-odd",
            |p, i, a, red| algos::allreduce_doubling(p, i, a, red, Fold::EvenIntoOdd),
            true,
        ),
        (
            "allreduce_doubling upper-into-lower",
            |p, i, a, red| algos::allreduce_doubling(p, i, a, red, Fold::UpperIntoLower),
            false,
        ),
        (
            "allreduce_rabenseifner even-into-odd",
            |p, i, a, red| algos::allreduce_rabenseifner(p, i, a, 8, red, Fold::EvenIntoOdd),
            false,
        ),
        (
            "allreduce_rabenseifner upper-into-lower",
            |p, i, a, red| algos::allreduce_rabenseifner(p, i, a, 8, red, Fold::UpperIntoLower),
            false,
        ),
        (
            "allreduce_ring",
            |p, i, a, red| algos::allreduce_ring(p, i, a, 8, red),
            false,
        ),
    ];
    for (what, allreduce, rank_order) in allreduces {
        let mut acc = data(me);
        allreduce(case.p, &info, &mut acc, case.sum)?;
        case.check(what, acc == sum(0..n));
        if rank_order {
            let mut acc = affine_maps(me);
            allreduce(case.p, &info, &mut acc, case.affine)?;
            case.check(&format!("{what} non-commutative"), acc == compose(n));
        }
    }

    // Gather / scatter of one vector per rank.
    type RootedFn<V> = fn(&mut Process<V>, &CommInfo<V>, &[u8], &mut [u8], usize) -> MpiResult<()>;
    let gathers: [(&str, RootedFn<V>); 2] = [
        ("gather_binomial", algos::gather_binomial),
        ("gather_linear", algos::gather_linear),
    ];
    let everyone: Vec<u8> = (0..n).flat_map(data).collect();
    for (what, gather) in gathers {
        case.every_root(what, |c, root| {
            let mut got = vec![0; if me == root { len * n } else { 0 }];
            gather(c.p, &info, &data(me), &mut got, root)?;
            let want = if me == root {
                everyone.clone()
            } else {
                Vec::new()
            };
            Ok((got, want))
        })?;
    }
    let scatters: [(&str, RootedFn<V>); 2] = [
        ("scatter_binomial", algos::scatter_binomial),
        ("scatter_linear", algos::scatter_linear),
    ];
    for (what, scatter) in scatters {
        case.every_root(what, |c, root| {
            let send = if me == root {
                everyone.clone()
            } else {
                Vec::new()
            };
            let mut got = vec![0; len];
            scatter(c.p, &info, &send, &mut got, root)?;
            Ok((got, data(me)))
        })?;
    }

    // Allgather of one vector per rank; alltoall of one per pair.
    type AllFn<V> = fn(&mut Process<V>, &CommInfo<V>, &[u8], &mut [u8]) -> MpiResult<()>;
    let mut allgathers: Vec<(&str, AllFn<V>)> = vec![
        ("allgather_bruck", algos::allgather_bruck),
        ("allgather_ring", algos::allgather_ring),
    ];
    if n.is_power_of_two() {
        allgathers.push(("allgather_doubling", algos::allgather_doubling));
    }
    for (what, allgather) in allgathers {
        let mut got = vec![0; len * n];
        allgather(case.p, &info, &data(me), &mut got)?;
        case.check(what, got == everyone);
    }
    // Block `to` of rank `from`'s send buffer: one u64 naming the pair.
    let block = |from: usize, to: usize| ((from * 100 + to) as u64).to_le_bytes();
    let alltoalls: [(&str, AllFn<V>); 3] = [
        ("alltoall_bruck", algos::alltoall_bruck),
        ("alltoall_posted", algos::alltoall_posted),
        ("alltoall_pairwise", algos::alltoall_pairwise),
    ];
    for (what, alltoall) in alltoalls {
        let send: Vec<u8> = (0..n).flat_map(|to| block(me, to)).collect();
        let mut got = vec![0; 8 * n];
        alltoall(case.p, &info, &send, &mut got)?;
        let want: Vec<u8> = (0..n).flat_map(|from| block(from, me)).collect();
        case.check(what, got == want);
    }

    // Scan: both are picked for non-commutative ops.
    type ScanFn<V> =
        fn(&mut Process<V>, &CommInfo<V>, &[u8], &mut [u8], Reduction<V>) -> MpiResult<()>;
    let scans: [(&str, ScanFn<V>); 2] = [
        ("scan_doubling", algos::scan_doubling),
        ("scan_chain", algos::scan_chain),
    ];
    for (what, scan) in scans {
        let mut got = vec![0; len];
        scan(case.p, &info, &data(me), &mut got, case.sum)?;
        case.check(what, got == sum(0..=me));
        let mut got = vec![0; 2 * len];
        scan(case.p, &info, &affine_maps(me), &mut got, case.affine)?;
        case.check(&format!("{what} non-commutative"), got == compose(me + 1));
    }
    Ok(())
}

/// Run [`table`] on an `n`-rank communicator split off a two-node world;
/// every rank's wrong results.
fn run_table<V: NativeAbi>(n: usize) -> Vec<String> {
    let nodes = n.min(2);
    let spec = ClusterSpec::builder()
        .nodes(nodes)
        .ranks_per_node(n.div_ceil(nodes))
        .build();
    World::run(&spec, |ctx: Rc<RankCtx>| {
        let native = |code| SimError::InvalidConfig(format!("native MPI error {code}"));
        let mut p = Process::<V>::init(ctx.clone());
        let me = ctx.rank();
        let color = if me < n { 0 } else { V::UNDEFINED };
        let sub = p.comm_split(V::COMM_WORLD, color, 0).map_err(native)?;
        if sub == V::COMM_NULL {
            return Ok(Vec::new());
        }
        let info = p.store().comm(sub).map_err(native)?.clone();
        let pair = p.type_contiguous(2, V::DATATYPES[9].0).map_err(native)?;
        let affine = p.op_create(affine_compose, false).map_err(native)?;
        let mut case = Case {
            info,
            me,
            n,
            sum: Reduction {
                op: V::OPS[BuiltinOp::Sum as usize],
                dt: V::DATATYPES[9].0,
                commute: true,
            },
            affine: Reduction {
                op: affine,
                dt: pair,
                commute: false,
            },
            wrong: Vec::new(),
            p: &mut p,
        };
        table(&mut case, &ctx).map_err(native)?;
        Ok(case.wrong)
    })
    .unwrap()
    .results
    .concat()
}

fn every_algorithm_matches_its_reference<V: NativeAbi>() {
    let mut wrong: Vec<String> = SIZES.into_iter().flat_map(run_table::<V>).collect();
    wrong.sort();
    wrong.dedup();
    assert!(wrong.is_empty(), "wrong results:\n{}", wrong.join("\n"));
}

#[test]
fn every_algorithm_matches_its_reference_under_mpich() {
    every_algorithm_matches_its_reference::<Mpich>();
}

#[test]
fn every_algorithm_matches_its_reference_under_openmpi() {
    every_algorithm_matches_its_reference::<OpenMpi>();
}

// ----------------------------------------------------------------------
// The selection tables
// ----------------------------------------------------------------------

/// A call of `bytes` bytes of `u64`s over `ranks` ranks.
fn shape(ranks: usize, bytes: usize, commute: bool) -> Shape {
    Shape {
        ranks,
        bytes,
        count: bytes / 8,
        commute,
    }
}

#[test]
fn mpich_selection_rows_switch_at_their_thresholds() {
    use mpich::tuning::*;
    let n = 48;
    let at = |bytes| shape(n, bytes, true);
    assert_eq!(Mpich::barrier(at(0)), Barrier::Dissemination);
    assert_eq!(Mpich::bcast(at(BCAST_BINOMIAL_MAX)), Bcast::Binomial);
    assert_eq!(Mpich::bcast(at(BCAST_BINOMIAL_MAX + 1)), Bcast::ScatterRing);
    assert_eq!(Mpich::reduce(at(1 << 20)), Reduce::Binomial);
    assert_eq!(Mpich::reduce(shape(n, 1 << 20, false)), Reduce::Binomial);
    let doubling = Allreduce::RecursiveDoubling(Fold::EvenIntoOdd);
    let rabenseifner = Allreduce::Rabenseifner(Fold::EvenIntoOdd);
    assert_eq!(Mpich::allreduce(at(ALLREDUCE_DOUBLING_MAX)), doubling);
    assert_eq!(
        Mpich::allreduce(at(ALLREDUCE_DOUBLING_MAX + 8)),
        rabenseifner
    );
    // Fewer elements than ranks, or a non-commutative op: doubling.
    let few = Shape {
        ranks: 1 << 13,
        ..at(1 << 16)
    };
    assert_eq!(Mpich::allreduce(few), rabenseifner);
    assert_eq!(
        Mpich::allreduce(Shape {
            ranks: few.ranks + 1,
            ..few
        }),
        doubling
    );
    assert_eq!(Mpich::allreduce(shape(n, 1 << 20, false)), doubling);
    assert_eq!(Mpich::gather(at(1 << 20)), Gather::Binomial);
    assert_eq!(Mpich::scatter(at(1 << 20)), Scatter::Binomial);
    // Gathered bytes: 4 ranks × one block.
    let blocks = |block| shape(4, block, true);
    assert_eq!(
        Mpich::allgather(blocks(ALLGATHER_BRUCK_MAX / 4)),
        Allgather::Bruck
    );
    assert_eq!(
        Mpich::allgather(blocks(ALLGATHER_BRUCK_MAX / 4 + 1)),
        Allgather::Ring
    );
    assert_eq!(Mpich::alltoall(at(ALLTOALL_BRUCK_MAX)), Alltoall::Bruck);
    assert_eq!(
        Mpich::alltoall(at(ALLTOALL_BRUCK_MAX + 1)),
        Alltoall::Posted
    );
    assert_eq!(
        Mpich::alltoall(at(ALLTOALL_PAIRWISE_MIN - 1)),
        Alltoall::Posted
    );
    assert_eq!(
        Mpich::alltoall(at(ALLTOALL_PAIRWISE_MIN)),
        Alltoall::Pairwise
    );
    assert_eq!(Mpich::scan(shape(n, 0, false)), Scan::RecursiveDoubling);
}

#[test]
fn openmpi_selection_rows_switch_at_their_thresholds() {
    use ompi::tuning::*;
    let n = 48;
    let at = |bytes| shape(n, bytes, true);
    let fold = Fold::UpperIntoLower;
    assert_eq!(OpenMpi::barrier(at(0)), Barrier::RecursiveDoubling(fold));
    let chain = Bcast::Chain {
        segment: PIPELINE_SEGMENT,
    };
    assert_eq!(OpenMpi::bcast(at(BCAST_BINARY_TREE_MAX)), Bcast::BinaryTree);
    assert_eq!(OpenMpi::bcast(at(BCAST_BINARY_TREE_MAX + 1)), chain);
    let chain = Reduce::Chain {
        segment: PIPELINE_SEGMENT,
    };
    assert_eq!(OpenMpi::reduce(at(PIPELINE_SEGMENT)), Reduce::Linear);
    assert_eq!(OpenMpi::reduce(at(PIPELINE_SEGMENT + 8)), chain);
    assert_eq!(
        OpenMpi::reduce(shape(n, PIPELINE_SEGMENT + 8, false)),
        Reduce::Linear
    );
    let doubling = Allreduce::RecursiveDoubling(fold);
    assert_eq!(OpenMpi::allreduce(at(ALLREDUCE_DOUBLING_MAX)), doubling);
    assert_eq!(
        OpenMpi::allreduce(at(ALLREDUCE_DOUBLING_MAX + 8)),
        Allreduce::Ring
    );
    let few = Shape {
        ranks: 1 << 13,
        ..at(1 << 16)
    };
    assert_eq!(
        OpenMpi::allreduce(Shape {
            ranks: few.ranks + 1,
            ..few
        }),
        doubling
    );
    assert_eq!(OpenMpi::allreduce(few), Allreduce::Ring);
    for bytes in [16, ALLREDUCE_DOUBLING_MAX + 8] {
        let reorder = shape(n, bytes, false);
        assert_eq!(OpenMpi::allreduce(reorder), Allreduce::ReduceBcast);
    }
    assert_eq!(OpenMpi::gather(at(8)), Gather::Linear);
    assert_eq!(OpenMpi::scatter(at(8)), Scatter::Linear);
    // Gathered bytes; recursive doubling only on a power of two.
    let pof2 = |block| shape(4, block, true);
    let max = ALLGATHER_DOUBLING_MAX / 4;
    assert_eq!(OpenMpi::allgather(pof2(max)), Allgather::RecursiveDoubling);
    assert_eq!(OpenMpi::allgather(pof2(max + 1)), Allgather::Ring);
    assert_eq!(OpenMpi::allgather(shape(3, 8, true)), Allgather::Ring);
    assert_eq!(OpenMpi::alltoall(at(ALLTOALL_POSTED_MAX)), Alltoall::Posted);
    assert_eq!(
        OpenMpi::alltoall(at(ALLTOALL_POSTED_MAX + 1)),
        Alltoall::Pairwise
    );
    assert_eq!(OpenMpi::scan(shape(n, 0, false)), Scan::Chain);
}
