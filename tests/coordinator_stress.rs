//! Stress tests for the checkpoint coordinator's scheduled-cut protocol:
//! under arbitrary thread interleavings, every rank checkpoints exactly
//! at the steps the policy scheduled — never at a step the OS schedule
//! picked, never deadlocked, never at different steps on different ranks.
//!
//! (The bug class this guards against: a rank stopping at an earlier
//! safe point than its peers and parking in the barrier while still
//! owing messages — see `dmtcp_sim::coordinator`.)

mod common;

use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};

use mpi_stool::dmtcp::{
    BarrierTopology, CkptMode, Coordinator, Poll, RankImage, ReplicaConfig, ReplicaGroup,
    SystemClock,
};

/// Drive `n` ranks through `steps` safe points each, every rank
/// announcing a checkpoint at each step in `cuts` before polling there,
/// with injected yields as scheduling noise. Returns each rank's cuts, in
/// the order it took them.
fn drive(n: usize, steps: u64, cuts: &[u64], mode: CkptMode, seed: u64) -> Vec<Vec<u64>> {
    let coord = Coordinator::new(n);
    let taken = Mutex::new(vec![Vec::new(); n]);
    std::thread::scope(|s| {
        for rank in 0..n {
            let coord = coord.clone();
            let taken = &taken;
            s.spawn(move || {
                let mut agent = coord.agent(rank);
                let zeros = vec![0u64; n];
                for step in 0..steps {
                    // Scheduling noise: some ranks burn extra yields, so
                    // interleavings vary run to run and rank to rank.
                    for _ in 0..((seed ^ rank as u64 ^ step) % 4) {
                        // lint:allow(no-free-running-harness) — scheduling noise only; the cut list is asserted exactly
                        std::thread::yield_now();
                    }
                    if cuts.contains(&step) {
                        coord.schedule_checkpoint_at(step, mode);
                    }
                    let Poll::Enter(session) = agent.poll(step).expect("protocol never errors")
                    else {
                        continue;
                    };
                    assert_eq!(session.cut(), step, "entered away from the cut");
                    let pending = session.exchange_counters(&zeros, &zeros).expect("exchange");
                    assert!(pending.iter().all(|&p| p == 0));
                    session.submit_image(RankImage::new(rank, n, session.epoch()));
                    let got = session.finish().expect("finish");
                    assert_eq!(got, mode);
                    taken.lock().unwrap()[rank].push(step);
                    if got == CkptMode::Stop {
                        return;
                    }
                }
            });
        }
    });
    taken.into_inner().unwrap()
}

#[test]
fn randomized_interleavings_cut_exactly_at_the_scheduled_steps() {
    for n in [1usize, 2, 3, 5, 8] {
        for seed in 0..6u64 {
            for &mode in &[CkptMode::Continue, CkptMode::Stop] {
                let first = 1 + (seed * 7) % 20;
                let cuts = [first, first + 9, first + 17];
                // A stop ends the world at its cut; a continue takes all.
                let expect = match mode {
                    CkptMode::Continue => cuts.to_vec(),
                    CkptMode::Stop => vec![first],
                };
                assert_eq!(
                    drive(n, 40, &cuts, mode, seed),
                    vec![expect; n],
                    "n={n} seed={seed} mode={mode:?}"
                );
            }
        }
    }
}

#[test]
fn tree_barrier_full_protocol_uniform_cut() {
    // Odd world size with a tiny radix: groups of 3 with a ragged tail,
    // so leader election, cascade release, and the last short group are
    // all exercised over several back-to-back rounds (the barrier cells
    // must be reusable generation after generation).
    let n = 10;
    let coord = Coordinator::with_topology(n, BarrierTopology::Tree { radix: 3 });
    let zeros = vec![0u64; n];
    let entered = Mutex::new(vec![Vec::new(); n]);
    common::lockstep(&coord, n, 120, &[5, 45, 85], |rank, session| {
        let cut = session.cut();
        session.exchange_counters(&zeros, &zeros).expect("exchange");
        session.submit_image(RankImage::new(rank, n, session.epoch()));
        session.finish().expect("finish");
        entered.lock().unwrap()[rank].push(cut);
        ControlFlow::Continue(())
    });
    assert_eq!(entered.into_inner().unwrap(), vec![vec![5, 45, 85]; n]);
    assert_eq!(coord.completed_rounds(), 3);
    let world = coord.take_world_image("tree").expect("staged");
    assert_eq!(world.nranks(), n);
}

#[test]
fn three_pressed_rounds_with_replicas_complete() {
    let n = 3;
    let coord = Coordinator::new(n);
    let group = Arc::new(ReplicaGroup::in_memory(
        ReplicaConfig::default(),
        Arc::new(SystemClock::new()),
    ));
    coord.attach_replicas(group.clone());
    let zeros = vec![0u64; n];
    common::lockstep(&coord, n, 40, &[5, 15, 25], |rank, session| {
        session.exchange_counters(&zeros, &zeros).expect("exchange");
        session.submit_image(RankImage::new(rank, n, session.epoch()));
        session.finish().expect("finish");
        ControlFlow::Continue(())
    });
    assert_eq!(coord.completed_rounds(), 3);
    assert_eq!(group.stats().commits, 3);
}
