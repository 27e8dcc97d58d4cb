//! Correctness of every MPICH-flavour collective algorithm against naive
//! references, across communicator sizes (including non-powers-of-two, which
//! exercise the fold/unfold paths) and across the algorithm switchover
//! thresholds (forced via custom tuning).

use mpich_sim::{mpih, MpichProcess, Tuning};
use simnet::mpi::Collectives;
use simnet::{ClusterSpec, World};

/// Tuning that forces the *large-message* algorithm everywhere.
fn force_large() -> Tuning {
    Tuning {
        alltoall_bruck_max: 0,
        alltoall_pairwise_min: 1,
        bcast_binomial_max: 0,
        allreduce_recdbl_max: 0,
        allgather_bruck_max: 0,
        ..Tuning::default()
    }
}

/// Tuning that forces the *small-message* algorithm everywhere.
fn force_small() -> Tuning {
    Tuning {
        alltoall_bruck_max: usize::MAX,
        alltoall_pairwise_min: usize::MAX,
        bcast_binomial_max: usize::MAX,
        allreduce_recdbl_max: usize::MAX,
        allgather_bruck_max: usize::MAX,
        ..Tuning::default()
    }
}

/// The mid alltoall path (posted nonblocking).
fn force_mid_alltoall() -> Tuning {
    Tuning {
        alltoall_bruck_max: 0,
        alltoall_pairwise_min: usize::MAX,
        ..Tuning::default()
    }
}

fn run<R: Send>(
    nranks: usize,
    tuning: Tuning,
    f: impl Fn(&mut MpichProcess) -> Result<R, i32> + Sync,
) -> Vec<R> {
    // Spread over two "nodes" so inter- and intra-node paths both run.
    let rpn = nranks.div_ceil(2).max(1);
    let nodes = nranks.div_ceil(rpn);
    let spec = ClusterSpec::builder()
        .nodes(nodes)
        .ranks_per_node(rpn)
        .build();
    // The spec may round the world up; restrict by splitting off exactly
    // nranks via a subcommunicator when needed.
    let world_n = spec.nranks();
    World::run(&spec, |ctx| {
        let mut p = MpichProcess::init_with_tuning(ctx, tuning);
        let me = p.comm_rank(mpih::MPI_COMM_WORLD).unwrap();
        let color = if (me as usize) < nranks {
            0
        } else {
            mpih::MPI_UNDEFINED
        };
        let sub = p.comm_split(mpih::MPI_COMM_WORLD, color, me).unwrap();
        if sub == mpih::MPI_COMM_NULL {
            return Ok(None);
        }
        let out = f_with_comm(&f, &mut p, sub)
            .map_err(|code| simnet::SimError::InvalidConfig(format!("native error {code}")))?;
        Ok(Some(out))
    })
    .unwrap()
    .results
    .into_iter()
    .flatten()
    .take(world_n)
    .collect()
}

/// Adapter: tests are written against "the communicator" abstractly.
fn f_with_comm<R>(
    f: &(impl Fn(&mut MpichProcess) -> Result<R, i32> + Sync),
    p: &mut MpichProcess,
    comm: i32,
) -> Result<R, i32> {
    COMM.with(|c| c.set(comm));
    f(p)
}

thread_local! {
    static COMM: std::cell::Cell<i32> = const { std::cell::Cell::new(mpih::MPI_COMM_WORLD) };
}

fn comm() -> i32 {
    COMM.with(|c| c.get())
}

fn f64s(xs: &[f64]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn to_f64s(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

const SIZES: &[usize] = &[2, 3, 4, 5, 7, 8, 12];

#[test]
fn barrier_completes_at_all_sizes() {
    for &n in SIZES {
        let out = run(n, Tuning::default(), |p| {
            p.barrier(comm())?;
            p.barrier(comm())?;
            Ok(true)
        });
        assert_eq!(out.len(), n, "n={n}");
    }
}

#[test]
fn bcast_both_algorithms_all_roots() {
    for tuning in [force_small(), force_large()] {
        for &n in SIZES {
            let out = run(n, tuning, |p| {
                let me = p.comm_rank(comm())?;
                let n = p.comm_size(comm())? as usize;
                let mut all_ok = true;
                for root in 0..n as i32 {
                    // 10 elements so large-path chunking has remainders.
                    let truth: Vec<f64> =
                        (0..10).map(|i| (root as f64) * 100.0 + i as f64).collect();
                    let mut buf = if me == root {
                        f64s(&truth)
                    } else {
                        vec![0u8; 80]
                    };
                    p.bcast(&mut buf, mpih::MPI_DOUBLE, root, comm())?;
                    all_ok &= to_f64s(&buf) == truth;
                }
                Ok(all_ok)
            });
            assert!(out.iter().all(|&ok| ok), "bcast n={n}");
        }
    }
}

#[test]
fn reduce_sum_all_roots() {
    for &n in SIZES {
        let out = run(n, Tuning::default(), |p| {
            let me = p.comm_rank(comm())?;
            let size = p.comm_size(comm())? as usize;
            let mut ok = true;
            for root in 0..size as i32 {
                let mine: Vec<f64> = (0..6).map(|i| (me as f64) + i as f64 * 0.5).collect();
                let mut out = if me == root {
                    vec![0u8; 48]
                } else {
                    Vec::new()
                };
                p.reduce(
                    &f64s(&mine),
                    &mut out,
                    mpih::MPI_DOUBLE,
                    mpih::MPI_SUM,
                    root,
                    comm(),
                )?;
                if me == root {
                    let expect: Vec<f64> = (0..6)
                        .map(|i| (0..size).map(|r| r as f64 + i as f64 * 0.5).sum::<f64>())
                        .collect();
                    ok &= to_f64s(&out)
                        .iter()
                        .zip(&expect)
                        .all(|(a, b)| (a - b).abs() < 1e-9);
                }
            }
            Ok(ok)
        });
        assert!(out.iter().all(|&ok| ok), "reduce n={n}");
    }
}

#[test]
fn allreduce_recdbl_and_rabenseifner_match_reference() {
    for tuning in [force_small(), force_large()] {
        for &n in SIZES {
            let out = run(n, tuning, |p| {
                let me = p.comm_rank(comm())?;
                let size = p.comm_size(comm())? as usize;
                // 13 elements: not divisible by most rank counts, so the
                // Rabenseifner chunking gets ragged chunks.
                let mine: Vec<f64> = (0..13).map(|i| (me + 1) as f64 * (i + 1) as f64).collect();
                let mut out = vec![0u8; 13 * 8];
                p.allreduce(
                    &f64s(&mine),
                    &mut out,
                    mpih::MPI_DOUBLE,
                    mpih::MPI_SUM,
                    comm(),
                )?;
                let expect: Vec<f64> = (0..13)
                    .map(|i| (0..size).map(|r| (r + 1) as f64 * (i + 1) as f64).sum())
                    .collect();
                Ok(to_f64s(&out)
                    .iter()
                    .zip(&expect)
                    .all(|(a, b)| (a - b).abs() < 1e-9))
            });
            assert!(out.iter().all(|&ok| ok), "allreduce n={n}");
        }
    }
}

#[test]
fn allreduce_min_max_int() {
    for &n in SIZES {
        let out = run(n, Tuning::default(), |p| {
            let me = p.comm_rank(comm())?;
            let size = p.comm_size(comm())?;
            let mine = [me * 3, -me, 7i32];
            let bytes: Vec<u8> = mine.iter().flat_map(|x| x.to_le_bytes()).collect();
            let mut mx = vec![0u8; 12];
            p.allreduce(&bytes, &mut mx, mpih::MPI_INT, mpih::MPI_MAX, comm())?;
            let mut mn = vec![0u8; 12];
            p.allreduce(&bytes, &mut mn, mpih::MPI_INT, mpih::MPI_MIN, comm())?;
            let rd =
                |b: &[u8], i: usize| i32::from_le_bytes(b[i * 4..(i + 1) * 4].try_into().unwrap());
            Ok(rd(&mx, 0) == (size - 1) * 3
                && rd(&mx, 1) == 0
                && rd(&mx, 2) == 7
                && rd(&mn, 0) == 0
                && rd(&mn, 1) == -(size - 1)
                && rd(&mn, 2) == 7)
        });
        assert!(out.iter().all(|&ok| ok), "minmax n={n}");
    }
}

#[test]
fn gather_binomial_all_roots() {
    for &n in SIZES {
        let out = run(n, Tuning::default(), |p| {
            let me = p.comm_rank(comm())?;
            let size = p.comm_size(comm())? as usize;
            let mut ok = true;
            for root in 0..size as i32 {
                let mine = [me as f64, me as f64 * 10.0];
                let mut out = if me == root {
                    vec![0u8; 16 * size]
                } else {
                    Vec::new()
                };
                p.gather(&f64s(&mine), &mut out, mpih::MPI_DOUBLE, root, comm())?;
                if me == root {
                    let got = to_f64s(&out);
                    ok &= (0..size)
                        .all(|r| got[2 * r] == r as f64 && got[2 * r + 1] == r as f64 * 10.0);
                }
            }
            Ok(ok)
        });
        assert!(out.iter().all(|&ok| ok), "gather n={n}");
    }
}

#[test]
fn scatter_binomial_all_roots() {
    for &n in SIZES {
        let out = run(n, Tuning::default(), |p| {
            let me = p.comm_rank(comm())?;
            let size = p.comm_size(comm())? as usize;
            let mut ok = true;
            for root in 0..size as i32 {
                let all: Vec<f64> = (0..2 * size)
                    .map(|i| i as f64 + root as f64 * 0.25)
                    .collect();
                let send = if me == root { f64s(&all) } else { Vec::new() };
                let mut recv = vec![0u8; 16];
                p.scatter(&send, &mut recv, mpih::MPI_DOUBLE, root, comm())?;
                let got = to_f64s(&recv);
                ok &= got[0] == all_for(me as usize, root)[0]
                    && got[1] == all_for(me as usize, root)[1];
                fn all_for(me: usize, root: i32) -> [f64; 2] {
                    [
                        2.0 * me as f64 + root as f64 * 0.25,
                        2.0 * me as f64 + 1.0 + root as f64 * 0.25,
                    ]
                }
            }
            Ok(ok)
        });
        assert!(out.iter().all(|&ok| ok), "scatter n={n}");
    }
}

#[test]
fn allgather_bruck_and_ring() {
    for tuning in [force_small(), force_large()] {
        for &n in SIZES {
            let out = run(n, tuning, |p| {
                let me = p.comm_rank(comm())?;
                let size = p.comm_size(comm())? as usize;
                let mine = [me as f64 * 2.0, me as f64 * 2.0 + 1.0];
                let mut out = vec![0u8; 16 * size];
                p.allgather(&f64s(&mine), &mut out, mpih::MPI_DOUBLE, comm())?;
                let got = to_f64s(&out);
                Ok((0..size).all(|r| {
                    got[2 * r] == r as f64 * 2.0 && got[2 * r + 1] == r as f64 * 2.0 + 1.0
                }))
            });
            assert!(out.iter().all(|&ok| ok), "allgather n={n}");
        }
    }
}

#[test]
fn alltoall_all_three_algorithms() {
    for tuning in [force_small(), force_mid_alltoall(), force_large()] {
        for &n in SIZES {
            let out =
                run(n, tuning, |p| {
                    let me = p.comm_rank(comm())? as usize;
                    let size = p.comm_size(comm())? as usize;
                    // Block i carries the pair (me, i) so mismatches localize.
                    let send: Vec<f64> = (0..size).flat_map(|i| [me as f64, i as f64]).collect();
                    let mut recv = vec![0u8; 16 * size];
                    p.alltoall(&f64s(&send), &mut recv, mpih::MPI_DOUBLE, comm())?;
                    let got = to_f64s(&recv);
                    Ok((0..size)
                        .all(|src| got[2 * src] == src as f64 && got[2 * src + 1] == me as f64))
                });
            assert!(out.iter().all(|&ok| ok), "alltoall n={n}");
        }
    }
}

#[test]
fn scan_inclusive_prefix() {
    for &n in SIZES {
        let out = run(n, Tuning::default(), |p| {
            let me = p.comm_rank(comm())?;
            let mine = [(me + 1) as f64, 1.0];
            let mut out = vec![0u8; 16];
            p.scan(
                &f64s(&mine),
                &mut out,
                mpih::MPI_DOUBLE,
                mpih::MPI_SUM,
                comm(),
            )?;
            let got = to_f64s(&out);
            let expect0: f64 = (1..=me + 1).map(|r| r as f64).sum();
            Ok(got[0] == expect0 && got[1] == (me + 1) as f64)
        });
        assert!(out.iter().all(|&ok| ok), "scan n={n}");
    }
}

#[test]
fn user_defined_op_in_allreduce() {
    fn xor_combine(invec: &[u8], inoutvec: &mut [u8], _elem: usize) {
        for (a, b) in invec.iter().zip(inoutvec.iter_mut()) {
            *b ^= a;
        }
    }
    let out = run(4, Tuning::default(), |p| {
        let me = p.comm_rank(comm())?;
        let op = p.op_create(xor_combine, true)?;
        let mine = [(1u32 << me).to_le_bytes()].concat();
        let mut out = vec![0u8; 4];
        p.allreduce(&mine, &mut out, mpih::MPI_UINT32_T, op, comm())?;
        p.op_free(op)?;
        Ok(u32::from_le_bytes(out[..].try_into().unwrap()))
    });
    assert_eq!(out, vec![0b1111; 4]);
}

#[test]
fn collectives_advance_virtual_time_consistently() {
    // Alltoall must cost more virtual time than barrier at the same size,
    // and large payloads more than small ones.
    let spec = ClusterSpec::builder().nodes(2).ranks_per_node(4).build();
    let outcome = World::run(&spec, |ctx| {
        let mut p = MpichProcess::init(ctx.clone());
        let n = p.comm_size(mpih::MPI_COMM_WORLD).unwrap() as usize;
        let t0 = ctx.now();
        p.barrier(mpih::MPI_COMM_WORLD).unwrap();
        let t1 = ctx.now();
        let send = vec![1u8; n * 8];
        let mut recv = vec![0u8; n * 8];
        p.alltoall(&send, &mut recv, mpih::MPI_BYTE, mpih::MPI_COMM_WORLD)
            .unwrap();
        let t2 = ctx.now();
        let send = vec![1u8; n * 65536];
        let mut recv = vec![0u8; n * 65536];
        p.alltoall(&send, &mut recv, mpih::MPI_BYTE, mpih::MPI_COMM_WORLD)
            .unwrap();
        let t3 = ctx.now();
        Ok((
            (t1 - t0).as_nanos(),
            (t2 - t1).as_nanos(),
            (t3 - t2).as_nanos(),
        ))
    })
    .unwrap();
    for &(bar, small, large) in &outcome.results {
        assert!(bar > 0);
        assert!(small > 0);
        assert!(
            large > small,
            "large alltoall ({large}) must cost more than small ({small})"
        );
    }
}

#[test]
fn deterministic_virtual_time_across_runs() {
    let spec = ClusterSpec::builder().nodes(2).ranks_per_node(3).build();
    let run_once = || {
        World::run(&spec, |ctx| {
            let mut p = MpichProcess::init(ctx.clone());
            let n = p.comm_size(mpih::MPI_COMM_WORLD).unwrap() as usize;
            let send = vec![7u8; n * 64];
            let mut recv = vec![0u8; n * 64];
            for _ in 0..3 {
                p.alltoall(&send, &mut recv, mpih::MPI_BYTE, mpih::MPI_COMM_WORLD)
                    .unwrap();
                let mut buf = vec![1u8; 256];
                p.bcast(&mut buf, mpih::MPI_BYTE, 0, mpih::MPI_COMM_WORLD)
                    .unwrap();
            }
            Ok(ctx.now().as_nanos())
        })
        .unwrap()
        .results
    };
    assert_eq!(run_once(), run_once());
}
