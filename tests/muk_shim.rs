//! The Mukautuva shim through the standard ABI only, on both vendors: the
//! compiled-once property, constant and handle translation, the version
//! string, the exact translation charge against the native baseline, and
//! deterministic reductions against a serial rank-order fold.

use mpi_stool::abi::{consts, AbiError, AbiResult, Datatype, Handle, MpiAbi, ReduceOp};
use mpi_stool::muk::registry::open_vendor;
use mpi_stool::muk::{MukShim, Vendor};
use mpi_stool::simnet::{ClusterSpec, SimError, World};
use mpi_stool::stool::stack::StackSpec;

fn err(e: AbiError) -> SimError {
    SimError::InvalidConfig(e.to_string())
}

fn one_node(ranks: usize) -> ClusterSpec {
    ClusterSpec::builder()
        .nodes(1)
        .ranks_per_node(ranks)
        .build()
}

#[test]
fn same_binary_runs_on_both_vendors() {
    // The "compiled once" property: identical application code over
    // both vendors, via the standard ABI only.
    let app = |mpi: &mut dyn MpiAbi| -> AbiResult<Vec<f64>> {
        let n = mpi.comm_size(Handle::COMM_WORLD)?;
        let me = mpi.comm_rank(Handle::COMM_WORLD)?;
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        mpi.send(
            &(me as f64).to_le_bytes(),
            Datatype::Double.handle(),
            next,
            1,
            Handle::COMM_WORLD,
        )?;
        let mut buf = [0u8; 8];
        let st = mpi.recv(
            &mut buf,
            Datatype::Double.handle(),
            prev,
            1,
            Handle::COMM_WORLD,
        )?;
        assert_eq!(st.source, prev);
        let got = f64::from_le_bytes(buf);
        let mut sum = vec![0u8; 8];
        mpi.allreduce(
            &(me as f64).to_le_bytes(),
            &mut sum,
            Datatype::Double.handle(),
            ReduceOp::Sum.handle(),
            Handle::COMM_WORLD,
        )?;
        Ok(vec![got, f64::from_le_bytes(sum[..].try_into().unwrap())])
    };

    let spec = ClusterSpec::builder().nodes(2).ranks_per_node(2).build();
    for vendor in Vendor::ALL {
        let out = World::run(&spec, |ctx| {
            let mut shim = MukShim::load(vendor, ctx);
            app(&mut shim).map_err(err)
        })
        .unwrap()
        .results;
        // Ring neighbour value and world sum are vendor-independent.
        for (me, r) in out.iter().enumerate() {
            assert_eq!(r[0], ((me + 3) % 4) as f64, "{vendor}");
            assert_eq!(r[1], 6.0, "{vendor}");
        }
    }
}

#[test]
fn version_reports_both_layers() {
    World::run(&one_node(1), |ctx| {
        let v = MukShim::load(Vendor::OpenMpi, ctx.clone()).library_version();
        assert!(v.contains("Mukautuva"));
        assert!(v.contains("libompi-wrap.so"));
        assert!(v.contains("ompi-sim"));
        // The native baseline is the vendor library alone.
        let native = open_vendor(Vendor::OpenMpi, ctx).library_version();
        assert!(native.starts_with("ompi-sim"), "{native}");
        assert!(!native.contains("Mukautuva"), "{native}");
        Ok(())
    })
    .unwrap();
}

/// The modelled translation cost of one call: 60 ns, plus 25 ns per
/// dynamic handle argument, plus 15 ns per status returned.
fn charge(handles: &[Handle], statuses: u64) -> u64 {
    let dynamic = handles.iter().filter(|h| !h.is_predefined()).count() as u64;
    60 + 25 * dynamic + 15 * statuses
}

fn ignore(_: &[u8], _: &mut [u8], _: usize) {}

/// Object lifecycles, `PROC_NULL` traffic and an empty probe on a 1-rank
/// world: nothing waits on a message arrival, so the shim's charge adds
/// up exactly. Returns what the shim should charge for the script.
fn script(mpi: &mut dyn MpiAbi) -> AbiResult<u64> {
    let world = Handle::COMM_WORLD;
    let byte = Datatype::Byte.handle();
    let mut due = 0;
    let dup = mpi.comm_dup(world)?;
    due += charge(&[world], 0);
    let split = mpi.comm_split(dup, 0, 0)?;
    due += charge(&[dup], 0);
    let vec4 = mpi.type_contiguous(4, Datatype::Double.handle())?;
    due += charge(&[Datatype::Double.handle()], 0);
    mpi.type_commit(vec4)?;
    due += charge(&[vec4], 0);
    let op = mpi.op_create(ignore, true)?;
    due += charge(&[], 0);
    let req = mpi.isend(&[7u8; 32], vec4, consts::PROC_NULL, 5, dup)?;
    due += charge(&[vec4, dup], 0);
    mpi.wait(req)?;
    due += charge(&[req], 1);
    let req = mpi.irecv(32, vec4, consts::PROC_NULL, 5, split)?;
    due += charge(&[vec4, split], 0);
    assert!(
        mpi.test(req)?.is_some(),
        "a PROC_NULL receive completes at once"
    );
    due += charge(&[req], 1);
    mpi.recv(&mut [0u8; 8], byte, consts::PROC_NULL, 5, world)?;
    due += charge(&[byte, world], 1);
    assert_eq!(
        mpi.iprobe(consts::ANY_SOURCE, consts::ANY_TAG, split)?,
        None
    );
    due += charge(&[split], 1);
    mpi.op_free(op)?;
    due += charge(&[op], 0);
    mpi.type_free(vec4)?;
    due += charge(&[vec4], 0);
    mpi.comm_free(split)?;
    due += charge(&[split], 0);
    mpi.comm_free(dup)?;
    due += charge(&[dup], 0);
    Ok(due)
}

#[test]
fn translation_charge_is_exact_against_the_native_baseline() {
    for vendor in Vendor::ALL {
        let run = |shimmed: bool| {
            World::run(&one_node(1), |ctx| {
                let mut mpi: Box<dyn MpiAbi> = if shimmed {
                    Box::new(MukShim::load(vendor, ctx.clone()))
                } else {
                    open_vendor(vendor, ctx.clone())
                };
                let t0 = ctx.now();
                let due = script(mpi.as_mut()).map_err(err)?;
                Ok(((ctx.now() - t0).as_nanos(), due))
            })
            .unwrap()
            .results[0]
        };
        let (native, due) = run(false);
        let (shimmed, _) = run(true);
        assert_eq!(due, 1285, "the script's modelled charge");
        assert_eq!(
            shimmed - native,
            due,
            "{vendor}: shim {shimmed} ns, native {native} ns"
        );
    }
}

#[test]
fn standard_wildcards_work_on_both_vendors() {
    for vendor in Vendor::ALL {
        let out = World::run(&one_node(2), |ctx| {
            let mut shim = MukShim::load(vendor, ctx.clone());
            let me = shim.comm_rank(Handle::COMM_WORLD).map_err(err)?;
            if me == 0 {
                shim.send(b"ping", Datatype::Byte.handle(), 1, 9, Handle::COMM_WORLD)
                    .map_err(err)?;
                Ok(0)
            } else {
                let mut buf = [0u8; 4];
                let st = shim
                    .recv(
                        &mut buf,
                        Datatype::Byte.handle(),
                        consts::ANY_SOURCE,
                        consts::ANY_TAG,
                        Handle::COMM_WORLD,
                    )
                    .map_err(err)?;
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 9);
                Ok(1)
            }
        })
        .unwrap()
        .results;
        assert_eq!(out, vec![0, 1], "{vendor}");
    }
}

#[test]
fn proc_null_translation_both_vendors() {
    for vendor in Vendor::ALL {
        World::run(&one_node(1), |ctx| {
            let mut shim = MukShim::load(vendor, ctx);
            shim.send(
                &[1u8],
                Datatype::Byte.handle(),
                consts::PROC_NULL,
                0,
                Handle::COMM_WORLD,
            )
            .map_err(err)?;
            let mut b = [0u8; 1];
            let st = shim
                .recv(
                    &mut b,
                    Datatype::Byte.handle(),
                    consts::PROC_NULL,
                    0,
                    Handle::COMM_WORLD,
                )
                .map_err(err)?;
            assert_eq!(
                st.source,
                consts::PROC_NULL,
                "{vendor}: PROC_NULL must round-trip"
            );
            assert_eq!(st.count_bytes, 0);
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn dynamic_objects_through_the_shim() {
    for vendor in Vendor::ALL {
        World::run(&one_node(2), |ctx| {
            let mut shim = MukShim::load(vendor, ctx);
            let dup = shim.comm_dup(Handle::COMM_WORLD).map_err(err)?;
            assert!(!dup.is_predefined());
            assert_eq!(shim.comm_size(dup).map_err(err)?, 2);
            let vec3 = shim
                .type_contiguous(3, Datatype::Double.handle())
                .map_err(err)?;
            assert_eq!(shim.type_size(vec3).map_err(err)?, 24);
            shim.type_commit(vec3).map_err(err)?;
            // Exchange using the derived type over the dup'd comm.
            let me = shim.comm_rank(dup).map_err(err)?;
            let other = 1 - me;
            let data: Vec<u8> = [me as f64; 3]
                .iter()
                .flat_map(|x| x.to_le_bytes())
                .collect();
            let mut got = vec![0u8; 24];
            shim.sendrecv(&data, other, 0, &mut got, other, 0, vec3, dup)
                .map_err(err)?;
            assert_eq!(
                f64::from_le_bytes(got[0..8].try_into().unwrap()),
                other as f64
            );
            shim.type_free(vec3).map_err(err)?;
            shim.comm_free(dup).map_err(err)?;
            assert!(shim.comm_size(dup).is_err());
            Ok(())
        })
        .unwrap();
    }
}

// ---------------------------------------------------------------------------
// Deterministic reductions: every predefined op on every predefined type
// ---------------------------------------------------------------------------

const RANKS: usize = 5;
const ROOT: usize = 3;

/// How the oracle reads a predefined datatype's elements. `MPI_BYTE` and
/// `MPI_CHAR` reduce as unsigned bytes.
#[derive(Debug, Clone, Copy)]
enum Elem {
    Int { width: usize, signed: bool },
    F32,
    F64,
}

fn elem(dt: Datatype) -> Elem {
    let int = |width, signed| Elem::Int { width, signed };
    match dt {
        Datatype::Byte | Datatype::Char | Datatype::Uint8 => int(1, false),
        Datatype::Int8 => int(1, true),
        Datatype::Int16 => int(2, true),
        Datatype::Uint16 => int(2, false),
        Datatype::Int32 => int(4, true),
        Datatype::Uint32 => int(4, false),
        Datatype::Int64 => int(8, true),
        Datatype::Uint64 => int(8, false),
        Datatype::Float => Elem::F32,
        Datatype::Double => Elem::F64,
    }
}

/// Rank `r`'s three elements. The first float of ranks 0, 1, 2 is 1,
/// 1e16, −1e16: `(1 + 1e16) − 1e16` is 0, any other association is not,
/// so only a left fold in rank order gives the expected sum.
fn contribution(dt: Datatype, r: usize) -> Vec<u8> {
    let floats = [
        [1.0, 1e16, -1e16, 0.5, 0.25][r],
        r as f64 * -1.5 + 2.0,
        if r.is_multiple_of(2) { 0.0 } else { r as f64 },
    ];
    let i = r as i64;
    let ints = [
        i * 37 - 50,
        (i + 1) * 1_000_003,
        if r.is_multiple_of(2) { 0 } else { -i - 1 },
    ];
    match elem(dt) {
        Elem::Int { width, .. } => ints
            .iter()
            .flat_map(|v| v.to_le_bytes()[..width].to_vec())
            .collect(),
        Elem::F32 => floats
            .iter()
            .flat_map(|&v| (v as f32).to_le_bytes())
            .collect(),
        Elem::F64 => floats.iter().flat_map(|v| v.to_le_bytes()).collect(),
    }
}

/// `a op b` on one element, or `None` where the standard leaves the op
/// undefined (bitwise ops on floats).
fn apply(op: ReduceOp, e: Elem, a: &[u8], b: &[u8]) -> Option<Vec<u8>> {
    let logical = |x: bool, y: bool| match op {
        ReduceOp::Land => x && y,
        ReduceOp::Lor => x || y,
        _ => x ^ y,
    };
    macro_rules! float {
        ($t:ty) => {{
            let (x, y) = (
                <$t>::from_le_bytes(a.try_into().unwrap()),
                <$t>::from_le_bytes(b.try_into().unwrap()),
            );
            let v = match op {
                ReduceOp::Sum => x + y,
                ReduceOp::Prod => x * y,
                ReduceOp::Min => x.min(y),
                ReduceOp::Max => x.max(y),
                ReduceOp::Land | ReduceOp::Lor | ReduceOp::Lxor => {
                    <$t>::from(u8::from(logical(x != 0.0, y != 0.0)))
                }
                ReduceOp::Band | ReduceOp::Bor | ReduceOp::Bxor => return None,
            };
            Some(v.to_le_bytes().to_vec())
        }};
    }
    match e {
        Elem::Int { width, signed } => {
            let read = |bytes: &[u8]| {
                let mut wide = [0u8; 16];
                wide[..width].copy_from_slice(bytes);
                let shift = 128 - 8 * width as u32;
                let v = i128::from_le_bytes(wide) << shift;
                if signed {
                    v >> shift
                } else {
                    ((v as u128) >> shift) as i128
                }
            };
            let (x, y) = (read(a), read(b));
            let v = match op {
                ReduceOp::Sum => x.wrapping_add(y),
                ReduceOp::Prod => x.wrapping_mul(y),
                ReduceOp::Min => x.min(y),
                ReduceOp::Max => x.max(y),
                ReduceOp::Land | ReduceOp::Lor | ReduceOp::Lxor => {
                    i128::from(logical(x != 0, y != 0))
                }
                ReduceOp::Band => x & y,
                ReduceOp::Bor => x | y,
                ReduceOp::Bxor => x ^ y,
            };
            Some(v.to_le_bytes()[..width].to_vec())
        }
        Elem::F32 => float!(f32),
        Elem::F64 => float!(f64),
    }
}

/// The serial left fold in rank order: prefix `r` is
/// `((in_0 op in_1) op …) op in_r`.
fn serial_prefixes(op: ReduceOp, dt: Datatype, inputs: &[Vec<u8>]) -> Option<Vec<Vec<u8>>> {
    let mut acc = inputs[0].clone();
    let mut prefixes = vec![acc.clone()];
    for next in &inputs[1..] {
        acc = acc
            .chunks(dt.size())
            .zip(next.chunks(dt.size()))
            .map(|(a, b)| apply(op, elem(dt), a, b))
            .collect::<Option<Vec<_>>>()?
            .concat();
        prefixes.push(acc.clone());
    }
    Some(prefixes)
}

/// Every predefined op × every predefined type through `reduce` (to a
/// non-zero root), `allreduce` and `scan` with deterministic reductions,
/// on 5 ranks, against the serial fold.
fn fold_table(vendor: Vendor) {
    let stack = StackSpec {
        deterministic_reductions: true,
        ..StackSpec::with_muk(vendor)
    };
    let world = Handle::COMM_WORLD;
    let mismatches = World::run(&one_node(RANKS), |ctx| {
        let mut mpi = stack.build_lower(&ctx);
        let me = ctx.rank();
        let mut bad = Vec::new();
        for op in ReduceOp::ALL {
            for dt in Datatype::ALL {
                let inputs: Vec<Vec<u8>> = (0..RANKS).map(|r| contribution(dt, r)).collect();
                let (d, o) = (dt.handle(), op.handle());
                let mut out = vec![0u8; inputs[me].len()];
                let reduced = mpi.reduce(&inputs[me], &mut out, d, o, ROOT as i32, world);
                let Some(want) = serial_prefixes(op, dt, &inputs) else {
                    // Undefined: the root's fold rejects it. Allreduce and
                    // scan fold at rank 0 too, whose error would leave the
                    // other ranks waiting in the bcast / scatter that
                    // follows, so they are not called.
                    if me == ROOT && reduced != Err(AbiError::Op) {
                        bad.push(format!("{op:?} {dt:?} reduce: {reduced:?}"));
                    }
                    continue;
                };
                let total = &want[RANKS - 1];
                if reduced.is_err() || (me == ROOT && &out != total) {
                    bad.push(format!("{op:?} {dt:?} reduce: {reduced:?} {out:?}"));
                }
                let reduced = mpi.allreduce(&inputs[me], &mut out, d, o, world);
                if reduced.is_err() || &out != total {
                    bad.push(format!("{op:?} {dt:?} allreduce: {reduced:?} {out:?}"));
                }
                let scanned = mpi.scan(&inputs[me], &mut out, d, o, world);
                if scanned.is_err() || out != want[me] {
                    bad.push(format!("{op:?} {dt:?} scan: {scanned:?} {out:?}"));
                }
            }
        }
        // A receive buffer of other than one block: allreduce and scan
        // refuse it on every rank before any traffic, reduce at the root
        // after the gather.
        let (d, o) = (Datatype::Int32.handle(), ReduceOp::Sum.handle());
        let mine = contribution(Datatype::Int32, me);
        let mut short = vec![0u8; mine.len() - 4];
        let got = mpi.allreduce(&mine, &mut short, d, o, world);
        if got != Err(AbiError::Count) {
            bad.push(format!("short allreduce: {got:?}"));
        }
        let got = mpi.scan(&mine, &mut short, d, o, world);
        if got != Err(AbiError::Count) {
            bad.push(format!("short scan: {got:?}"));
        }
        let got = mpi.reduce(&mine, &mut short, d, o, ROOT as i32, world);
        if got
            != if me == ROOT {
                Err(AbiError::Count)
            } else {
                Ok(())
            }
        {
            bad.push(format!("short reduce: {got:?}"));
        }
        Ok(bad)
    })
    .unwrap()
    .results;
    assert!(
        mismatches.iter().all(Vec::is_empty),
        "{vendor}: {mismatches:?}"
    );
}

#[test]
fn the_fold_table_distinguishes_association() {
    let inputs: Vec<Vec<u8>> = (0..RANKS)
        .map(|r| contribution(Datatype::Double, r))
        .collect();
    let sum = serial_prefixes(ReduceOp::Sum, Datatype::Double, &inputs).unwrap();
    let first = |bytes: &[u8]| f64::from_le_bytes(bytes[..8].try_into().unwrap());
    assert_eq!(first(&sum[2]), 0.0, "(1 + 1e16) - 1e16");
    assert_eq!(first(&sum[RANKS - 1]), 0.75);
    assert_ne!(1.0 + (1e16 + -1e16), 0.0, "another association");
    // Bitwise ops on floats are undefined; on integers they are not.
    assert!(serial_prefixes(ReduceOp::Band, Datatype::Float, &inputs).is_none());
    let ints: Vec<Vec<u8>> = (0..RANKS)
        .map(|r| contribution(Datatype::Int8, r))
        .collect();
    assert!(serial_prefixes(ReduceOp::Band, Datatype::Int8, &ints).is_some());
}

#[test]
fn deterministic_reductions_fold_in_rank_order_under_mpich() {
    fold_table(Vendor::Mpich);
}

#[test]
fn deterministic_reductions_fold_in_rank_order_under_openmpi() {
    fold_table(Vendor::OpenMpi);
}
