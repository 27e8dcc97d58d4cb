//! Correctness of every Open MPI-flavour collective algorithm against naive
//! references, across communicator sizes and across algorithm thresholds.

use ompi_sim::{ompi_h, OmpiProcess, Tuning};
use simnet::mpi::Collectives;
use simnet::{ClusterSpec, World};

/// Force the large-message algorithms everywhere.
fn force_large() -> Tuning {
    Tuning {
        bcast_bintree_max: 0,
        allreduce_recdbl_max: 0,
        alltoall_linear_max: 0,
        allgather_neighbor_max: 0,
        // Tiny segments so pipelines have many segments even on test data.
        pipeline_segment: 16,
        ..Tuning::default()
    }
}

/// Force the small-message algorithms everywhere.
fn force_small() -> Tuning {
    Tuning {
        bcast_bintree_max: usize::MAX,
        allreduce_recdbl_max: usize::MAX,
        alltoall_linear_max: usize::MAX,
        allgather_neighbor_max: usize::MAX,
        pipeline_segment: usize::MAX,
        ..Tuning::default()
    }
}

fn run<R: Send>(
    nranks: usize,
    tuning: Tuning,
    f: impl Fn(&mut OmpiProcess, ompi_h::MpiComm) -> Result<R, i32> + Sync,
) -> Vec<R> {
    let rpn = nranks.div_ceil(2).max(1);
    let nodes = nranks.div_ceil(rpn);
    let spec = ClusterSpec::builder()
        .nodes(nodes)
        .ranks_per_node(rpn)
        .build();
    World::run(&spec, |ctx| {
        let mut p = OmpiProcess::init_with_tuning(ctx, tuning);
        let me = p.comm_rank(ompi_h::MPI_COMM_WORLD).unwrap();
        let color = if (me as usize) < nranks {
            0
        } else {
            ompi_h::MPI_UNDEFINED
        };
        let sub = p.comm_split(ompi_h::MPI_COMM_WORLD, color, me).unwrap();
        if sub == ompi_h::MPI_COMM_NULL {
            return Ok(None);
        }
        f(&mut p, sub)
            .map(Some)
            .map_err(|code| simnet::SimError::InvalidConfig(format!("native error {code}")))
    })
    .unwrap()
    .results
    .into_iter()
    .flatten()
    .collect()
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
fn barrier_all_sizes() {
    for &n in SIZES {
        let out = run(n, Tuning::default(), |p, c| {
            p.barrier(c)?;
            p.barrier(c)?;
            Ok(true)
        });
        assert_eq!(out.len(), n);
    }
}

#[test]
fn bcast_bintree_and_pipeline_all_roots() {
    for tuning in [force_small(), force_large()] {
        for &n in SIZES {
            let out = run(n, tuning, |p, c| {
                let me = p.comm_rank(c)?;
                let size = p.comm_size(c)? as usize;
                let mut ok = true;
                for root in 0..size as i32 {
                    // 33 doubles: does not divide evenly into 16-byte
                    // pipeline segments, exercising the tail segment.
                    let truth: Vec<f64> =
                        (0..33).map(|i| root as f64 * 1000.0 + i as f64).collect();
                    let mut buf = if me == root {
                        f64s(&truth)
                    } else {
                        vec![0u8; 264]
                    };
                    p.bcast(&mut buf, ompi_h::MPI_DOUBLE, root, c)?;
                    ok &= to_f64s(&buf) == truth;
                }
                Ok(ok)
            });
            assert!(out.iter().all(|&ok| ok), "bcast n={n}");
        }
    }
}

#[test]
fn reduce_linear_and_pipeline() {
    for tuning in [force_small(), force_large()] {
        for &n in SIZES {
            let out = run(n, tuning, |p, c| {
                let me = p.comm_rank(c)?;
                let size = p.comm_size(c)? as usize;
                let mut ok = true;
                for root in 0..size as i32 {
                    let mine: Vec<f64> = (0..9).map(|i| me as f64 + i as f64).collect();
                    let mut out = if me == root {
                        vec![0u8; 72]
                    } else {
                        Vec::new()
                    };
                    p.reduce(
                        &f64s(&mine),
                        &mut out,
                        ompi_h::MPI_DOUBLE,
                        ompi_h::MPI_SUM,
                        root,
                        c,
                    )?;
                    if me == root {
                        let expect: Vec<f64> = (0..9)
                            .map(|i| (0..size).map(|r| r as f64 + i as f64).sum())
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
}

#[test]
fn allreduce_recdbl_and_ring() {
    for tuning in [force_small(), force_large()] {
        for &n in SIZES {
            let out = run(n, tuning, |p, c| {
                let me = p.comm_rank(c)?;
                let size = p.comm_size(c)? as usize;
                let mine: Vec<f64> = (0..17).map(|i| (me + 1) as f64 * (i + 1) as f64).collect();
                let mut out = vec![0u8; 17 * 8];
                p.allreduce(
                    &f64s(&mine),
                    &mut out,
                    ompi_h::MPI_DOUBLE,
                    ompi_h::MPI_SUM,
                    c,
                )?;
                let expect: Vec<f64> = (0..17)
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
fn gather_scatter_linear() {
    for &n in SIZES {
        let out = run(n, Tuning::default(), |p, c| {
            let me = p.comm_rank(c)?;
            let size = p.comm_size(c)? as usize;
            let mut ok = true;
            for root in 0..size as i32 {
                // Gather.
                let mine = [me as f64, -(me as f64)];
                let mut g = if me == root {
                    vec![0u8; 16 * size]
                } else {
                    Vec::new()
                };
                p.gather(&f64s(&mine), &mut g, ompi_h::MPI_DOUBLE, root, c)?;
                if me == root {
                    let got = to_f64s(&g);
                    ok &=
                        (0..size).all(|r| got[2 * r] == r as f64 && got[2 * r + 1] == -(r as f64));
                }
                // Scatter.
                let all: Vec<f64> = (0..2 * size).map(|i| i as f64 * 3.0).collect();
                let send = if me == root { f64s(&all) } else { Vec::new() };
                let mut recv = vec![0u8; 16];
                p.scatter(&send, &mut recv, ompi_h::MPI_DOUBLE, root, c)?;
                let got = to_f64s(&recv);
                ok &= got[0] == (2 * me) as f64 * 3.0 && got[1] == (2 * me + 1) as f64 * 3.0;
            }
            Ok(ok)
        });
        assert!(out.iter().all(|&ok| ok), "gather/scatter n={n}");
    }
}

#[test]
fn allgather_recdbl_and_ring() {
    for tuning in [force_small(), force_large()] {
        for &n in SIZES {
            let out = run(n, tuning, |p, c| {
                let me = p.comm_rank(c)? as usize;
                let size = p.comm_size(c)? as usize;
                let mine = [me as f64 * 7.0];
                let mut out = vec![0u8; 8 * size];
                p.allgather(&f64s(&mine), &mut out, ompi_h::MPI_DOUBLE, c)?;
                let got = to_f64s(&out);
                Ok((0..size).all(|r| got[r] == r as f64 * 7.0))
            });
            assert!(out.iter().all(|&ok| ok), "allgather n={n}");
        }
    }
}

#[test]
fn alltoall_linear_and_pairwise() {
    for tuning in [force_small(), force_large()] {
        for &n in SIZES {
            let out =
                run(n, tuning, |p, c| {
                    let me = p.comm_rank(c)? as usize;
                    let size = p.comm_size(c)? as usize;
                    let send: Vec<f64> = (0..size).flat_map(|i| [me as f64, i as f64]).collect();
                    let mut recv = vec![0u8; 16 * size];
                    p.alltoall(&f64s(&send), &mut recv, ompi_h::MPI_DOUBLE, c)?;
                    let got = to_f64s(&recv);
                    Ok((0..size)
                        .all(|src| got[2 * src] == src as f64 && got[2 * src + 1] == me as f64))
                });
            assert!(out.iter().all(|&ok| ok), "alltoall n={n}");
        }
    }
}

#[test]
fn scan_linear_chain() {
    for &n in SIZES {
        let out = run(n, Tuning::default(), |p, c| {
            let me = p.comm_rank(c)?;
            let mine = [(me + 1) as f64];
            let mut out = vec![0u8; 8];
            p.scan(
                &f64s(&mine),
                &mut out,
                ompi_h::MPI_DOUBLE,
                ompi_h::MPI_SUM,
                c,
            )?;
            let expect: f64 = (1..=me + 1).map(|r| r as f64).sum();
            Ok(to_f64s(&out)[0] == expect)
        });
        assert!(out.iter().all(|&ok| ok), "scan n={n}");
    }
}

#[test]
fn vendor_timing_differs_from_mpich_flavour() {
    // Same workload on both vendors: virtual completion times must differ
    // (different algorithms and overheads). This pins the property that
    // gives the paper's figures two distinct curve families.
    let spec = ClusterSpec::builder().nodes(2).ranks_per_node(4).build();
    let ompi_time = World::run(&spec, |ctx| {
        let mut p = OmpiProcess::init(ctx.clone());
        let n = p.comm_size(ompi_h::MPI_COMM_WORLD).unwrap() as usize;
        let send = vec![1u8; n * 1024];
        let mut recv = vec![0u8; n * 1024];
        for _ in 0..4 {
            p.alltoall(&send, &mut recv, ompi_h::MPI_BYTE, ompi_h::MPI_COMM_WORLD)
                .unwrap();
        }
        Ok(ctx.now().as_nanos())
    })
    .unwrap()
    .results;
    let mpich_time = World::run(&spec, |ctx| {
        let mut p = mpich_sim_shim::init(ctx.clone());
        let n = 8usize;
        let send = vec![1u8; n * 1024];
        let mut recv = vec![0u8; n * 1024];
        for _ in 0..4 {
            mpich_sim_shim::alltoall(&mut p, &send, &mut recv).unwrap();
        }
        Ok(ctx.now().as_nanos())
    })
    .unwrap()
    .results;
    assert_ne!(
        ompi_time, mpich_time,
        "vendors must have distinct timing profiles"
    );
}

/// Minimal dev-dependency-free access to the sibling vendor for the timing
/// comparison test (kept local to avoid a circular dev-dependency).
mod mpich_sim_shim {
    use simnet::mpi::Collectives;
    use std::rc::Rc;

    pub fn init(ctx: Rc<simnet::RankCtx>) -> mpich_sim::MpichProcess {
        mpich_sim::MpichProcess::init(ctx)
    }

    pub fn alltoall(
        p: &mut mpich_sim::MpichProcess,
        send: &[u8],
        recv: &mut [u8],
    ) -> Result<(), i32> {
        p.alltoall(
            send,
            recv,
            mpich_sim::mpih::MPI_BYTE,
            mpich_sim::mpih::MPI_COMM_WORLD,
        )
    }
}
