//! One battery for both vendor libraries.
//!
//! Point-to-point, requests, communicators, datatypes, ops, the object
//! store and the reduction kernels are one engine (`simnet::mpi`)
//! instantiated per native header, so they have one set of cases,
//! instantiated per native header: every case below runs as
//! `mpich::<case>` and `openmpi::<case>` and speaks only through
//! [`NativeAbi`] — handles, sentinels and error codes are whatever the
//! vendor's `mpi.h` says. What a vendor *represents* differently
//! (bit-packed slots vs. strided addresses, status layouts, the values
//! themselves) is tested beside that representation, in the vendor
//! crates' `objects.rs`, `mpih.rs` / `ompi_h.rs`, and in `muk::wrap`.

use std::sync::Arc;

use mpi_stool::mpich::Mpich;
use mpi_stool::ompi::OpenMpi;
use mpi_stool::simnet::mpi::{
    comm_rank_of_world, kernels, BuiltinOp, CommInfo, DerivedType, ElemKind, MpiResult, NativeAbi,
    NativeStatus, ObjectStore, Process, Request, UserOp,
};
use mpi_stool::simnet::{ClusterSpec, SimError, World};

// Indices into `NativeAbi::DATATYPES` (its documented order).
const BYTE: usize = 0;
const INT16: usize = 4;
const INT: usize = 6;
const DOUBLE: usize = 11;

fn dt<V: NativeAbi>(index: usize) -> V::Datatype {
    V::DATATYPES[index].0
}

fn op<V: NativeAbi>(op: BuiltinOp) -> V::Op {
    V::OPS[op as usize]
}

/// Run `f` on every rank of a one-node world of `nranks`.
fn run_world<V: NativeAbi, R: Send>(
    nranks: usize,
    f: impl Fn(&mut Process<V>) -> MpiResult<R> + Sync,
) -> Vec<R> {
    let spec = ClusterSpec::builder()
        .nodes(1)
        .ranks_per_node(nranks)
        .build();
    World::run(&spec, |ctx| {
        let mut proc = Process::<V>::init(ctx);
        f(&mut proc).map_err(|code| SimError::InvalidConfig(format!("native MPI error {code}")))
    })
    .unwrap()
    .results
}

/// Instantiate every case for both headers.
macro_rules! battery {
    ($($case:ident),* $(,)?) => {
        mod mpich {
            $(#[test] fn $case() { super::$case::<super::Mpich>() })*
        }
        mod openmpi {
            $(#[test] fn $case() { super::$case::<super::OpenMpi>() })*
        }
    };
}

battery!(
    // the library through its native calls
    init_queries,
    blocking_ring,
    nonblocking_exchange,
    nonblocking_and_test,
    sendrecv_swaps,
    proc_null_is_a_black_hole,
    truncation_detected,
    any_source_any_tag,
    probe_then_sized_recv,
    comm_dup_isolates_traffic,
    comm_split_even_odd,
    comm_split_undefined_gets_null,
    comm_split_orders_by_key,
    derived_contiguous_type,
    finalize_blocks_further_calls,
    bad_arguments_rejected,
    wtime_advances_with_communication,
    request_cycles_leave_no_footprint,
    // the object store through its trait
    world_and_self_preinstalled,
    comm_info_rank_translation,
    dynamic_comm_lifecycle,
    comm_handles_are_not_reused_after_free,
    datatype_sizes_builtin_and_derived,
    elem_kind_through_contiguous,
    op_table,
    request_take_and_put_back,
    // the reduction kernels
    f64_sum_and_max,
    wrapping_sum_and_bitwise,
    logical_ops_normalize_to_zero_one,
    bad_combines_rejected,
    builtin_tables,
);

// ----------------------------------------------------------------------
// The library through its native calls
// ----------------------------------------------------------------------

fn init_queries<V: NativeAbi>() {
    let sizes = run_world::<V, _>(4, |p| {
        assert_eq!(p.comm_rank(V::COMM_SELF)?, 0);
        assert_eq!(p.comm_size(V::COMM_SELF)?, 1);
        assert_eq!(p.version(), V::VERSION);
        assert!(p.wtime() >= 0.0);
        Ok((p.comm_size(V::COMM_WORLD)?, p.comm_rank(V::COMM_WORLD)?))
    });
    assert_eq!(sizes, vec![(4, 0), (4, 1), (4, 2), (4, 3)]);
}

fn blocking_ring<V: NativeAbi>() {
    let out = run_world::<V, _>(4, |p| {
        let n = p.comm_size(V::COMM_WORLD)?;
        let me = p.comm_rank(V::COMM_WORLD)?;
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        p.send(&me.to_le_bytes(), dt::<V>(INT), next, 7, V::COMM_WORLD)?;
        let mut buf = [0u8; 4];
        let st = p.recv(&mut buf, dt::<V>(INT), prev, 7, V::COMM_WORLD)?;
        assert_eq!(st.source(), prev);
        assert_eq!(st.tag(), 7);
        assert_eq!(st.count_bytes(), 4);
        assert_eq!(st.error(), V::SUCCESS);
        Ok(i32::from_le_bytes(buf))
    });
    assert_eq!(out, vec![3, 0, 1, 2]);
}

fn nonblocking_exchange<V: NativeAbi>() {
    let out = run_world::<V, _>(2, |p| {
        let me = p.comm_rank(V::COMM_WORLD)?;
        let other = 1 - me;
        let r1 = p.irecv(8, dt::<V>(DOUBLE), other, 1, V::COMM_WORLD)?;
        let payload = (me as f64 + 1.5).to_le_bytes();
        let r2 = p.isend(&payload, dt::<V>(DOUBLE), other, 1, V::COMM_WORLD)?;
        let results = p.waitall(&[r1, r2])?;
        let (st, data) = &results[0];
        assert_eq!(st.source(), other);
        assert!(results[1].1.is_none(), "a send carries no payload");
        Ok(f64::from_le_bytes(
            data.as_ref().unwrap()[..].try_into().unwrap(),
        ))
    });
    assert_eq!(out, vec![2.5, 1.5]);
}

fn nonblocking_and_test<V: NativeAbi>() {
    let out = run_world::<V, _>(2, |p| {
        let me = p.comm_rank(V::COMM_WORLD)?;
        let other = 1 - me;
        let r = p.irecv(4, dt::<V>(INT), other, 0, V::COMM_WORLD)?;
        p.send(&me.to_le_bytes(), dt::<V>(INT), other, 0, V::COMM_WORLD)?;
        // Spin on test until completion.
        loop {
            if let Some((st, data)) = p.test(r)? {
                assert_eq!(st.source(), other);
                assert_eq!(p.test(r), Err(V::ERR_REQUEST), "completes exactly once");
                return Ok(i32::from_le_bytes(data.unwrap()[..].try_into().unwrap()));
            }
        }
    });
    assert_eq!(out, vec![1, 0]);
}

fn sendrecv_swaps<V: NativeAbi>() {
    let out = run_world::<V, _>(2, |p| {
        let me = p.comm_rank(V::COMM_WORLD)?;
        let other = 1 - me;
        let mut got = [0u8; 4];
        p.sendrecv(
            &me.to_le_bytes(),
            other,
            3,
            &mut got,
            other,
            3,
            dt::<V>(INT),
            V::COMM_WORLD,
        )?;
        Ok(i32::from_le_bytes(got))
    });
    assert_eq!(out, vec![1, 0]);
}

fn proc_null_is_a_black_hole<V: NativeAbi>() {
    run_world::<V, _>(1, |p| {
        p.send(&[1, 2, 3, 4], dt::<V>(INT), V::PROC_NULL, 0, V::COMM_WORLD)?;
        let mut buf = [0u8; 4];
        let st = p.recv(&mut buf, dt::<V>(INT), V::PROC_NULL, 0, V::COMM_WORLD)?;
        assert_eq!(st.source(), V::PROC_NULL);
        assert_eq!(st.count_bytes(), 0);
        let r = p.irecv(4, dt::<V>(INT), V::PROC_NULL, 0, V::COMM_WORLD)?;
        let (st, data) = p.wait(r)?;
        assert_eq!(st.source(), V::PROC_NULL);
        assert!(data.unwrap().is_empty());
        Ok(())
    });
}

fn truncation_detected<V: NativeAbi>() {
    let out = run_world::<V, _>(2, |p| {
        let me = p.comm_rank(V::COMM_WORLD)?;
        if me == 0 {
            p.send(&[0u8; 16], dt::<V>(BYTE), 1, 0, V::COMM_WORLD)?;
            Ok(0)
        } else {
            let mut small = [0u8; 8];
            let err = p
                .recv(&mut small, dt::<V>(BYTE), 0, 0, V::COMM_WORLD)
                .unwrap_err();
            Ok(err)
        }
    });
    assert_eq!(out[1], V::ERR_TRUNCATE);
}

fn any_source_any_tag<V: NativeAbi>() {
    let out = run_world::<V, _>(3, |p| {
        let me = p.comm_rank(V::COMM_WORLD)?;
        if me == 0 {
            let mut seen = Vec::new();
            for _ in 0..2 {
                let mut buf = [0u8; 4];
                let st = p.recv(
                    &mut buf,
                    dt::<V>(INT),
                    V::ANY_SOURCE,
                    V::ANY_TAG,
                    V::COMM_WORLD,
                )?;
                assert_eq!(st.source(), i32::from_le_bytes(buf));
                assert_eq!(st.tag(), 10 + st.source());
                seen.push(st.source());
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![1, 2]);
            Ok(true)
        } else {
            p.send(&me.to_le_bytes(), dt::<V>(INT), 0, 10 + me, V::COMM_WORLD)?;
            Ok(false)
        }
    });
    assert!(out[0]);
}

fn probe_then_sized_recv<V: NativeAbi>() {
    run_world::<V, _>(2, |p| {
        let me = p.comm_rank(V::COMM_WORLD)?;
        if me == 0 {
            p.send(&[7u8; 24], dt::<V>(BYTE), 1, 9, V::COMM_WORLD)?;
        } else {
            assert!(p.iprobe(0, 99, V::COMM_WORLD)?.is_none());
            let st = p.probe(0, 9, V::COMM_WORLD)?;
            assert_eq!(st.count_bytes(), 24);
            assert_eq!(p.iprobe(0, 9, V::COMM_WORLD)?, Some(st));
            let mut buf = vec![0u8; st.count_bytes() as usize];
            p.recv(&mut buf, dt::<V>(BYTE), 0, 9, V::COMM_WORLD)?;
            assert!(buf.iter().all(|&b| b == 7));
        }
        Ok(())
    });
}

fn comm_dup_isolates_traffic<V: NativeAbi>() {
    let out = run_world::<V, _>(2, |p| {
        let dup = p.comm_dup(V::COMM_WORLD)?;
        let me = p.comm_rank(dup)?;
        assert_eq!(p.comm_size(dup)?, 2);
        let other = 1 - me;
        // Send on dup with tag 5; a recv on WORLD tag 5 must NOT see it.
        p.send(&me.to_le_bytes(), dt::<V>(INT), other, 5, dup)?;
        assert!(p.iprobe(other, 5, V::COMM_WORLD)?.is_none());
        let mut buf = [0u8; 4];
        p.recv(&mut buf, dt::<V>(INT), other, 5, dup)?;
        p.comm_free(dup)?;
        assert_eq!(p.comm_size(dup), Err(V::ERR_COMM));
        Ok(i32::from_le_bytes(buf))
    });
    assert_eq!(out, vec![1, 0]);
}

fn comm_split_even_odd<V: NativeAbi>() {
    let out = run_world::<V, _>(4, |p| {
        let me = p.comm_rank(V::COMM_WORLD)?;
        let sub = p.comm_split(V::COMM_WORLD, me % 2, me)?;
        let sub_rank = p.comm_rank(sub)?;
        let sub_size = p.comm_size(sub)?;
        assert_eq!(p.comm_translate_rank(sub, sub_rank)?, me);
        // Exchange inside the subcommunicator.
        let peer = 1 - sub_rank;
        let mut got = [0u8; 4];
        p.sendrecv(
            &me.to_le_bytes(),
            peer,
            0,
            &mut got,
            peer,
            0,
            dt::<V>(INT),
            sub,
        )?;
        Ok((sub_rank, sub_size, i32::from_le_bytes(got)))
    });
    // Ranks 0,2 form color 0; ranks 1,3 color 1; keys order by rank.
    assert_eq!(out[0], (0, 2, 2));
    assert_eq!(out[1], (0, 2, 3));
    assert_eq!(out[2], (1, 2, 0));
    assert_eq!(out[3], (1, 2, 1));
}

fn comm_split_undefined_gets_null<V: NativeAbi>() {
    let out = run_world::<V, _>(3, |p| {
        let me = p.comm_rank(V::COMM_WORLD)?;
        let color = if me == 2 { V::UNDEFINED } else { 0 };
        let sub = p.comm_split(V::COMM_WORLD, color, 0)?;
        Ok(sub == V::COMM_NULL)
    });
    assert_eq!(out, vec![false, false, true]);
}

fn comm_split_orders_by_key<V: NativeAbi>() {
    let out = run_world::<V, _>(4, |p| {
        let me = p.comm_rank(V::COMM_WORLD)?;
        let color = if me == 0 { V::UNDEFINED } else { me % 2 };
        let sub = p.comm_split(V::COMM_WORLD, color, -me)?;
        if sub == V::COMM_NULL {
            return Ok((-1, -1));
        }
        // Negative keys reverse the order within each color.
        Ok((p.comm_rank(sub)?, p.comm_size(sub)?))
    });
    assert_eq!(out[0], (-1, -1));
    // color 0: rank 2 only. color 1: ranks 1,3 with keys -1,-3 => rank 3
    // first.
    assert_eq!(out[2], (0, 1));
    assert_eq!(out[1], (1, 2));
    assert_eq!(out[3], (0, 2));
}

fn derived_contiguous_type<V: NativeAbi>() {
    run_world::<V, _>(2, |p| {
        let vec3 = p.type_contiguous(3, dt::<V>(DOUBLE))?;
        assert_eq!(p.type_size(vec3)?, 24);
        p.type_commit(vec3)?;
        p.type_commit(dt::<V>(DOUBLE))?; // a predefined type: no-op
        assert_eq!(p.type_contiguous(-1, vec3), Err(V::ERR_COUNT));
        let me = p.comm_rank(V::COMM_WORLD)?;
        if me == 0 {
            let data: Vec<u8> = [1.0f64, 2.0, 3.0]
                .iter()
                .flat_map(|x| x.to_le_bytes())
                .collect();
            p.send(&data, vec3, 1, 0, V::COMM_WORLD)?;
        } else {
            let mut buf = vec![0u8; 24];
            let st = p.recv(&mut buf, vec3, 0, 0, V::COMM_WORLD)?;
            assert_eq!(st.count_bytes(), 24);
            let x = f64::from_le_bytes(buf[8..16].try_into().unwrap());
            assert_eq!(x, 2.0);
        }
        p.type_free(vec3)?;
        assert_eq!(p.type_size(vec3), Err(V::ERR_TYPE));
        Ok(())
    });
}

fn finalize_blocks_further_calls<V: NativeAbi>() {
    run_world::<V, _>(1, |p| {
        p.finalize()?;
        assert!(p.is_finalized());
        let err = p
            .send(&[0u8; 4], dt::<V>(INT), V::PROC_NULL, 0, V::COMM_WORLD)
            .unwrap_err();
        assert_eq!(err, V::ERR_FINALIZED);
        assert_eq!(p.finalize().unwrap_err(), V::ERR_FINALIZED);
        Ok(())
    });
}

fn bad_arguments_rejected<V: NativeAbi>() {
    run_world::<V, _>(1, |p| {
        // Unaligned buffer length for the datatype.
        let err = p.send(&[0u8; 3], dt::<V>(INT), V::PROC_NULL, 0, V::COMM_WORLD);
        assert_eq!(err.unwrap_err(), V::ERR_COUNT);
        // Negative tag, and one past the upper bound.
        let err = p.send(&[0u8; 4], dt::<V>(INT), 0, -5, V::COMM_WORLD);
        assert_eq!(err.unwrap_err(), V::ERR_TAG);
        if let Some(over) = V::TAG_UB.checked_add(1) {
            let err = p.send(&[0u8; 4], dt::<V>(INT), 0, over, V::COMM_WORLD);
            assert_eq!(err.unwrap_err(), V::ERR_TAG);
        }
        // Bad communicator.
        assert_eq!(p.comm_size(V::COMM_NULL).unwrap_err(), V::ERR_COMM);
        // Rank out of range.
        let mut b = [0u8; 4];
        let err = p.recv(&mut b, dt::<V>(INT), 7, 0, V::COMM_WORLD);
        assert_eq!(err.unwrap_err(), V::ERR_RANK);
        // The null request.
        assert_eq!(p.wait(V::REQUEST_NULL).unwrap_err(), V::ERR_REQUEST);
        Ok(())
    });
}

fn wtime_advances_with_communication<V: NativeAbi>() {
    let out = run_world::<V, _>(2, |p| {
        let t0 = p.wtime();
        let me = p.comm_rank(V::COMM_WORLD)?;
        let other = 1 - me;
        let mut buf = [0u8; 4];
        p.sendrecv(
            &[1, 2, 3, 4],
            other,
            0,
            &mut buf,
            other,
            0,
            dt::<V>(INT),
            V::COMM_WORLD,
        )?;
        Ok(p.wtime() - t0)
    });
    assert!(
        out.iter().all(|&dt| dt > 0.0),
        "communication must take virtual time"
    );
}

/// A long-running job posts requests without end; what the library holds
/// for them must follow the number outstanding, not the number ever
/// posted. (MPICH's table used to grow one slot per request and abort
/// the rank after 16.7 M.)
fn request_cycles_leave_no_footprint<V: NativeAbi>() {
    run_world::<V, _>(1, |p| {
        let int = dt::<V>(INT);
        for i in 0..100_000i32 {
            let r = p.irecv(4, int, 0, 1, V::COMM_WORLD)?;
            let s = p.isend(&i.to_le_bytes(), int, 0, 1, V::COMM_WORLD)?;
            p.wait(s)?;
            let (_, data) = p.wait(r)?;
            assert_eq!(data.unwrap()[..], i.to_le_bytes());
        }
        // Polling: `test` takes the request out, puts it back, and the
        // handle stays good until the message is there.
        for i in 0..1_000i32 {
            let r = p.irecv(4, int, 0, 2, V::COMM_WORLD)?;
            assert_eq!(p.test(r)?, None);
            assert_eq!(p.test(r)?, None);
            let s = p.isend(&i.to_le_bytes(), int, 0, 2, V::COMM_WORLD)?;
            let (_, data) = p.test(r)?.expect("the message is here");
            assert_eq!(data.unwrap()[..], i.to_le_bytes());
            assert!(p.test(s)?.is_some());
        }
        let (live, held) = p.store().request_footprint();
        assert_eq!(live, 0);
        // Never more than two were outstanding.
        assert!(held <= 4, "{held} request slots held for a peak of 2");
        Ok(())
    });
}

// ----------------------------------------------------------------------
// The object store through its trait
// ----------------------------------------------------------------------

#[test]
fn source_translation_on_world_and_on_a_split() {
    // Identity-mapped (world and its dups): the O(1) answer.
    let world: Vec<usize> = (0..48).collect();
    for w in [0, 1, 31, 47] {
        assert_eq!(comm_rank_of_world(&world, w), Some(w as i32));
    }
    assert_eq!(comm_rank_of_world(&world, 48), None);
    // A split (world ranks 0, 7, …, 42) falls back to the scan; rank 0
    // happens to sit at its own index and must still be right.
    let split: Vec<usize> = (0..48).step_by(7).collect();
    for (cr, &w) in split.iter().enumerate() {
        assert_eq!(comm_rank_of_world(&split, w), Some(cr as i32));
    }
    assert_eq!(comm_rank_of_world(&split, 1), None);
    assert_eq!(comm_rank_of_world(&split, 6), None);
    // Reordered by key: index 1 holds world 1, the others do not.
    assert_eq!(comm_rank_of_world(&[2, 1, 0], 0), Some(2));
    assert_eq!(comm_rank_of_world(&[2, 1, 0], 1), Some(1));
    assert_eq!(comm_rank_of_world(&[2, 1, 0], 2), Some(0));
}

fn solo<V: NativeAbi>(ctx_base: u64) -> CommInfo<V> {
    CommInfo::new(ctx_base, Arc::new(vec![0]), 0)
}

fn world_and_self_preinstalled<V: NativeAbi>() {
    let t = V::Store::new(8, 3);
    let w = t.comm(V::COMM_WORLD).unwrap();
    assert_eq!(w.size(), 8);
    assert_eq!(w.my_rank, 3);
    assert_eq!(w.p2p_ctx(), 0);
    assert_eq!(w.coll_ctx(), 1);
    let s = t.comm(V::COMM_SELF).unwrap();
    assert_eq!(s.size(), 1);
    assert_eq!(s.my_rank, 0);
    assert_eq!(s.world_of(0), Ok(3));
    assert_eq!(s.p2p_ctx(), 2);
    assert_eq!(t.comm(V::COMM_NULL).unwrap_err(), V::ERR_COMM);
}

fn comm_info_rank_translation<V: NativeAbi>() {
    let info = CommInfo::<V>::new(4, Arc::new(vec![5, 9, 2]), 1);
    assert_eq!(info.world_of(0), Ok(5));
    assert_eq!(info.world_of(2), Ok(2));
    assert_eq!(info.world_of(3), Err(V::ERR_RANK));
    assert_eq!(info.world_of(-1), Err(V::ERR_RANK));
    assert_eq!(info.comm_rank_of_world(9), Some(1));
    assert_eq!(info.comm_rank_of_world(7), None);
}

fn dynamic_comm_lifecycle<V: NativeAbi>() {
    let mut t = V::Store::new(4, 0);
    let h = t.add_comm(CommInfo::new(4, Arc::new(vec![0, 1]), 0));
    assert_eq!(t.comm(h).unwrap().size(), 2);
    t.free_comm(h).unwrap();
    assert_eq!(t.comm(h).unwrap_err(), V::ERR_COMM);
    assert_eq!(t.free_comm(h), Err(V::ERR_COMM));
    assert_eq!(t.free_comm(V::COMM_WORLD), Err(V::ERR_COMM));
    assert_eq!(t.free_comm(V::COMM_SELF), Err(V::ERR_COMM));
    assert_eq!(t.free_comm(V::COMM_NULL), Err(V::ERR_COMM));
    assert!(t.comm(V::COMM_WORLD).is_ok());
}

fn comm_handles_are_not_reused_after_free<V: NativeAbi>() {
    let mut t = V::Store::new(4, 0);
    let a = t.add_comm(solo(4));
    let b = t.add_comm(solo(6));
    t.free_comm(a).unwrap();
    let c = t.add_comm(solo(8));
    assert!(
        c != a && c != b,
        "freed handles must not be recycled (determinism)"
    );
    assert_eq!(t.comm(c).unwrap().ctx_base, 8);
}

fn contiguous(size: usize, elem: Option<ElemKind>) -> DerivedType {
    DerivedType {
        size,
        elem,
        committed: false,
    }
}

fn datatype_sizes_builtin_and_derived<V: NativeAbi>() {
    let mut t = V::Store::new(2, 0);
    assert_eq!(t.type_size(dt::<V>(DOUBLE)), Ok(8));
    assert_eq!(t.type_size(dt::<V>(INT16)), Ok(2));
    let h = t.add_derived(contiguous(24, Some(ElemKind::Float(8))));
    assert_eq!(t.type_size(h), Ok(24));
    assert!(!t.derived(h).unwrap().committed);
    t.commit_type(h).unwrap();
    assert!(t.derived(h).unwrap().committed);
    t.free_type(h).unwrap();
    assert_eq!(t.type_size(h), Err(V::ERR_TYPE));
    assert_eq!(t.commit_type(h), Err(V::ERR_TYPE));
    assert_eq!(t.free_type(h), Err(V::ERR_TYPE));
    assert!(t.derived(dt::<V>(DOUBLE)).is_err(), "not a derived type");
}

fn elem_kind_through_contiguous<V: NativeAbi>() {
    let mut t = V::Store::new(2, 0);
    assert_eq!(t.elem_kind(dt::<V>(INT)), Ok(ElemKind::Int(4)));
    let h = t.add_derived(contiguous(32, Some(ElemKind::Float(8))));
    assert_eq!(t.elem_kind(h), Ok(ElemKind::Float(8)));
    let opaque = t.add_derived(contiguous(3, None));
    assert_eq!(t.elem_kind(opaque), Err(V::ERR_TYPE));
}

fn op_table<V: NativeAbi>() {
    fn my_op(a: &[u8], b: &mut [u8], _s: usize) {
        for (x, y) in a.iter().zip(b.iter_mut()) {
            *y ^= x;
        }
    }
    let mut t = V::Store::new(2, 0);
    let h = t.add_user_op(UserOp {
        func: my_op,
        commute: true,
    });
    assert!(t.user_op(h).unwrap().commute);
    assert_eq!(V::builtin_op(h), None);
    assert!(t.user_op(op::<V>(BuiltinOp::Sum)).is_err());
    t.free_op(h).unwrap();
    assert_eq!(t.user_op(h).err(), Some(V::ERR_OP));
    assert_eq!(t.free_op(h), Err(V::ERR_OP));
}

fn request_take_and_put_back<V: NativeAbi>() {
    type Req<V> = Request<<V as NativeAbi>::Status>;
    let mut t = V::Store::new(2, 0);
    let h = t.add_request(Req::<V>::SendDone);
    assert_ne!(h, V::REQUEST_NULL);
    assert_eq!(t.request_footprint().0, 1);
    assert!(matches!(t.take_request(h), Ok(Request::SendDone)));
    // Double-complete is an error.
    assert_eq!(t.take_request(h).err(), Some(V::ERR_REQUEST));
    // Put back then take again.
    t.put_back_request(h, Request::SendDone).unwrap();
    assert_eq!(t.request_footprint().0, 1);
    assert!(t.take_request(h).is_ok());
    assert_eq!(t.take_request(V::REQUEST_NULL).err(), Some(V::ERR_REQUEST));
    assert_eq!(t.request_footprint().0, 0);
}

// ----------------------------------------------------------------------
// The reduction kernels
// ----------------------------------------------------------------------

fn f64s(xs: &[f64]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn to_f64s(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn f64_sum_and_max<V: NativeAbi>() {
    let kind = ElemKind::Float(8);
    let mut acc = f64s(&[1.0, 2.0, 3.0]);
    kernels::combine::<V>(BuiltinOp::Sum, kind, &mut acc, &f64s(&[10.0, 20.0, 30.0])).unwrap();
    assert_eq!(to_f64s(&acc), vec![11.0, 22.0, 33.0]);
    kernels::combine::<V>(BuiltinOp::Max, kind, &mut acc, &f64s(&[100.0, 0.0, 100.0])).unwrap();
    assert_eq!(to_f64s(&acc), vec![100.0, 22.0, 100.0]);
}

fn wrapping_sum_and_bitwise<V: NativeAbi>() {
    let i32_of = |b: &[u8]| i32::from_le_bytes(b.try_into().unwrap());
    let mut acc = i32::MAX.to_le_bytes().to_vec();
    kernels::combine::<V>(
        BuiltinOp::Sum,
        ElemKind::Int(4),
        &mut acc,
        &1i32.to_le_bytes(),
    )
    .unwrap();
    assert_eq!(i32_of(&acc), i32::MIN);
    let mut acc = 0b1100i32.to_le_bytes().to_vec();
    kernels::combine::<V>(
        BuiltinOp::Band,
        ElemKind::Int(4),
        &mut acc,
        &0b1010i32.to_le_bytes(),
    )
    .unwrap();
    assert_eq!(i32_of(&acc), 0b1000);
    let mut acc = 0b1100u64.to_le_bytes().to_vec();
    kernels::combine::<V>(
        BuiltinOp::Bxor,
        ElemKind::Uint(8),
        &mut acc,
        &0b1010u64.to_le_bytes(),
    )
    .unwrap();
    assert_eq!(u64::from_le_bytes(acc[..].try_into().unwrap()), 0b0110);
}

fn logical_ops_normalize_to_zero_one<V: NativeAbi>() {
    let i32_of = |b: &[u8]| i32::from_le_bytes(b.try_into().unwrap());
    let mut acc = 5i32.to_le_bytes().to_vec();
    kernels::combine::<V>(
        BuiltinOp::Land,
        ElemKind::Int(4),
        &mut acc,
        &3i32.to_le_bytes(),
    )
    .unwrap();
    assert_eq!(i32_of(&acc), 1);
    let mut acc = 0i32.to_le_bytes().to_vec();
    kernels::combine::<V>(
        BuiltinOp::Lor,
        ElemKind::Int(4),
        &mut acc,
        &0i32.to_le_bytes(),
    )
    .unwrap();
    assert_eq!(i32_of(&acc), 0);
}

fn bad_combines_rejected<V: NativeAbi>() {
    let mut acc = vec![0u8; 8];
    assert_eq!(
        kernels::combine::<V>(BuiltinOp::Sum, ElemKind::Float(8), &mut acc, &[0u8; 16]),
        Err(V::ERR_COUNT),
        "length mismatch"
    );
    assert_eq!(
        kernels::combine::<V>(BuiltinOp::Band, ElemKind::Float(8), &mut acc, &[0u8; 8]),
        Err(V::ERR_OP),
        "bitwise on floats"
    );
    assert_eq!(
        kernels::combine::<V>(BuiltinOp::Sum, ElemKind::Int(3), &mut [0u8; 3], &[0u8; 3]),
        Err(V::ERR_TYPE),
        "no such element width"
    );
}

fn builtin_tables<V: NativeAbi>() {
    assert_eq!(
        V::builtin_type(dt::<V>(DOUBLE)),
        Some((8, ElemKind::Float(8)))
    );
    assert_eq!(V::builtin_type(dt::<V>(INT)), Some((4, ElemKind::Int(4))));
    assert_eq!(V::builtin_type(dt::<V>(BYTE)), Some((1, ElemKind::Uint(1))));
    for (index, (handle, size, kind)) in V::DATATYPES.into_iter().enumerate() {
        assert_eq!(size, kind.size(), "datatype {index}");
        assert_eq!(V::builtin_type(handle), Some((size, kind)));
    }
    for builtin in BuiltinOp::ALL {
        assert_eq!(V::builtin_op(op::<V>(builtin)), Some(builtin));
    }
}
