//! ≥ 512-rank worlds: the striped fabric, the tree-barrier coordinator,
//! and the full vendor stack at scale.
//!
//! These are the integration-level guarantees behind the scale rework:
//! a fail-stop in a 512-rank world must unwind *every* blocked receiver
//! via one condvar cascade (no polling, no stragglers), the tree barrier
//! must complete a 512-rank rendezvous with a uniform cut, and the
//! collectives must still be correct when the world is 10× the paper's
//! testbed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mpi_stool::abi::{Handle, ReduceOp};
use mpi_stool::dmtcp::{BarrierTopology, CkptMode, Coordinator, Poll, RankImage};
use mpi_stool::simnet::{ClusterSpec, Fabric, NoiseModel, RankCtx, SimError};
use mpi_stool::stool::{AppCtx, Checkpointer, MpiProgram, Session, StoolResult, Vendor};

fn big_cluster(nranks: usize) -> ClusterSpec {
    ClusterSpec::builder()
        .nodes(nranks / 64)
        .ranks_per_node(64)
        .build()
}

/// 512 blocked receivers; one rank fails. Every survivor must be woken by
/// the condvar cascade and unwind with `PeerFailed`; the victim itself
/// reports `SelfFailed`. No polling exists in the fabric, so a missed
/// wakeup would hang this test — completion *is* the assertion, the
/// counters make it explicit.
#[test]
fn fail_stop_unwinds_all_512_blocked_receivers() {
    let n = 512;
    let victim = 137;
    let spec = Arc::new(big_cluster(n));
    let (fabric, endpoints) = Fabric::new(&spec);
    fabric.enable_failure_detection();

    let peer_failed = AtomicUsize::new(0);
    let self_failed = AtomicUsize::new(0);
    let blocked = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        for (rank, ep) in endpoints.into_iter().enumerate() {
            let spec = spec.clone();
            let blocked = blocked.clone();
            let peer_failed = &peer_failed;
            let self_failed = &self_failed;
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn_scoped(s, move || {
                    let ctx =
                        RankCtx::new(rank, spec, ep, NoiseModel::disabled().stream_for_rank(rank));
                    blocked.fetch_add(1, Ordering::SeqCst);
                    match ctx.endpoint().recv_raw() {
                        Err(SimError::PeerFailed { rank: r }) => {
                            assert_eq!(r, victim);
                            peer_failed.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(SimError::SelfFailed) => {
                            assert_eq!(rank, victim);
                            self_failed.fetch_add(1, Ordering::SeqCst);
                        }
                        other => panic!("rank {rank}: unexpected {other:?}"),
                    }
                })
                .expect("spawn");
        }
        // Inject the failure once every rank is at least at the brink of
        // its blocking receive (they may still be pre-wait: the wakeup
        // must cover both the about-to-sleep and the asleep).
        let fabric = fabric.clone();
        let blocked = blocked.clone();
        s.spawn(move || {
            while blocked.load(Ordering::SeqCst) < n {
                // lint:allow(no-free-running-harness) — waits until every rank has reached its receive
                std::thread::yield_now();
            }
            // lint:allow(no-free-running-harness) — lets most receivers park; both the parked and the about-to-park must wake, so the outcome holds either way
            std::thread::sleep(std::time::Duration::from_millis(2));
            fabric.fail_rank(victim);
        });
    });

    assert_eq!(peer_failed.load(Ordering::SeqCst), n - 1);
    assert_eq!(self_failed.load(Ordering::SeqCst), 1);
}

/// A 512-rank checkpoint rendezvous over the tree barrier: one round at
/// the scheduled cut, complete image staging.
#[test]
fn tree_barrier_rendezvous_512_ranks_uniform_cut() {
    let n = 512;
    let cut = 3;
    let coord = Coordinator::with_topology(n, BarrierTopology::Tree { radix: 32 });
    let cuts = std::sync::Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for rank in 0..n {
            let coord = coord.clone();
            let cuts = &cuts;
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn_scoped(s, move || {
                    let mut agent = coord.agent(rank);
                    let zeros = vec![0u64; n];
                    for step in 0..cut {
                        assert!(matches!(agent.poll(step), Ok(Poll::None)));
                    }
                    coord.schedule_checkpoint_at(cut, CkptMode::Continue);
                    let Poll::Enter(session) = agent.poll(cut).expect("poll") else {
                        panic!("rank {rank}: a scheduled cut enters at its own step");
                    };
                    let got = session.cut();
                    let pending = session.exchange_counters(&zeros, &zeros).expect("exchange");
                    assert!(pending.iter().all(|&p| p == 0));
                    session.submit_image(RankImage::new(rank, n, session.epoch()));
                    session.finish().expect("finish");
                    cuts.lock().unwrap().push(got);
                })
                .expect("spawn");
        }
    });
    assert_eq!(cuts.into_inner().unwrap(), vec![cut; n], "uniform cut");
    assert_eq!(coord.completed_rounds(), 1);
    let world = coord.take_world_image("scale").expect("all staged");
    assert_eq!(world.nranks(), n);
}

/// The full stack at 512 ranks: an allreduce through vendor engine +
/// shim must still produce the exact closed-form sum on every rank.
struct BigAllreduce;

impl MpiProgram for BigAllreduce {
    fn name(&self) -> &'static str {
        "scale-allreduce-512"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let mine = app.rank() as f64;
        let total = app
            .pmpi()
            .allreduce_f64(mine, ReduceOp::Sum, Handle::COMM_WORLD)?;
        app.mem.set_f64("total", total);
        Ok(())
    }
}

#[test]
fn allreduce_512_ranks_both_vendors() {
    let n = 512usize;
    let expect = (n * (n - 1) / 2) as f64;
    for vendor in [Vendor::Mpich, Vendor::OpenMpi] {
        let out = Session::builder()
            .cluster(big_cluster(n))
            .vendor(vendor)
            .build()
            .expect("session")
            .launch(&BigAllreduce)
            .expect("launch");
        let memories = out.memories().expect("completed");
        assert_eq!(memories.len(), n);
        for (rank, m) in memories.iter().enumerate() {
            let got = m.get_f64("total").expect("total");
            assert!(
                (got - expect).abs() <= 1e-9 * expect,
                "{vendor:?} rank {rank}: {got} != {expect}"
            );
        }
    }
}

/// A policy-driven checkpoint at 512 ranks through the full Session stack
/// (MANA drain + tree-barrier rendezvous + image staging), then keep
/// running to completion.
struct SteppedLoop {
    steps: u64,
}

impl MpiProgram for SteppedLoop {
    fn name(&self) -> &'static str {
        "scale-stepped-loop"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        app.mem.f64s_mut("x", 1);
        for step in app.resume_step()..self.steps {
            if app.checkpoint_point(step)?.is_stop() {
                return Ok(());
            }
            app.mem.f64s_mut("x", 1)[0] += 1.0;
        }
        Ok(())
    }
}

#[test]
fn full_stack_checkpoint_at_512_ranks() {
    let n = 512usize;
    let session = Session::builder()
        .cluster(big_cluster(n))
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_at_step(2, CkptMode::Continue)
        .build()
        .expect("session");
    let out = session.launch(&SteppedLoop { steps: 4 }).expect("launch");
    assert!(out.is_completed());
    let memories = out.memories().expect("completed");
    assert_eq!(memories.len(), n);
    assert!(memories
        .iter()
        .all(|m| m.f64s("x").expect("segment")[0] == 4.0));
}
