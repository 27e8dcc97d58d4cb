//! Stress tests for the checkpoint coordinator's gather/rendezvous
//! protocol: under arbitrary thread interleavings and request timings,
//! every round must either complete with a *uniform* cut or abort
//! cleanly — never deadlock, never checkpoint ranks at different steps.
//!
//! (The bug class this guards against: a rank observing a request at an
//! earlier safe point than the requester and parking in the barrier while
//! still owing messages — see `dmtcp_sim::coordinator`.)

mod common;

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mpi_stool::dmtcp::{
    BarrierTopology, CkptMode, Coordinator, Poll, RankImage, ReplicaConfig, ReplicaGroup, TestClock,
};

/// Drive `n` ranks through `steps` safe points each, with the button
/// pressed from outside at a staggered moment. Returns the cuts taken.
fn drive(n: usize, steps: u64, press_after_polls: u64, mode: CkptMode, seed: u64) -> Vec<u64> {
    let coord = Coordinator::new(n);
    let cuts = Mutex::new(Vec::new());
    let polls = AtomicU64::new(0);
    let pressed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for rank in 0..n {
            let coord = coord.clone();
            let cuts = &cuts;
            let polls = &polls;
            let pressed = &pressed;
            s.spawn(move || {
                let mut agent = coord.agent(rank);
                let zeros = vec![0u64; n];
                let mut step = 0u64;
                while step < steps {
                    // Scheduling noise: some ranks burn extra yields, so
                    // interleavings vary run to run and rank to rank.
                    for _ in 0..((seed ^ rank as u64 ^ step) % 4) {
                        std::thread::yield_now();
                    }
                    let total = polls.fetch_add(1, Ordering::SeqCst) + 1;
                    if total == press_after_polls
                        && pressed
                            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                    {
                        coord.request_checkpoint(mode);
                    }
                    match agent.poll(step).expect("protocol never errors here") {
                        Poll::None | Poll::KeepRunning => {
                            step += 1;
                        }
                        Poll::Enter(session) => {
                            let cut = session.cut();
                            assert_eq!(cut, step, "entered away from the cut");
                            let pending =
                                session.exchange_counters(&zeros, &zeros).expect("exchange");
                            assert!(pending.iter().all(|&p| p == 0));
                            session.submit_image(RankImage::new(rank, n, session.epoch()));
                            let got = session.finish().expect("finish");
                            assert_eq!(got, mode);
                            cuts.lock().unwrap().push(cut);
                            if got == CkptMode::Stop {
                                return;
                            }
                            step += 1;
                        }
                    }
                }
            });
        }
    });
    cuts.into_inner().unwrap()
}

#[test]
fn randomized_button_timing_never_deadlocks_and_cuts_are_uniform() {
    for n in [1usize, 2, 3, 5, 8] {
        for seed in 0..6u64 {
            for &mode in &[CkptMode::Continue, CkptMode::Stop] {
                let press = 1 + (seed * 7) % 20;
                let cuts = drive(n, 40, press, mode, seed);
                // Either the round completed on every rank with one cut,
                // or it aborted (a rank finished first) and nobody cut.
                assert!(
                    cuts.is_empty() || cuts.len() == n,
                    "n={n} seed={seed} mode={mode:?}: partial round {cuts:?}"
                );
                if let Some(&first) = cuts.first() {
                    assert!(
                        cuts.iter().all(|&c| c == first),
                        "n={n} seed={seed}: non-uniform cuts {cuts:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn press_near_program_end_aborts_instead_of_hanging() {
    // The request lands so late that some ranks may run out of safe
    // points mid-gather: the round must abort, not deadlock or poison.
    for seed in 0..10u64 {
        let cuts = drive(4, 6, 20 + seed, CkptMode::Continue, seed);
        assert!(
            cuts.is_empty() || cuts.len() == 4,
            "seed={seed}: partial round {cuts:?}"
        );
    }
}

#[test]
fn back_to_back_requests_each_get_a_round_or_merge() {
    let n = 4;
    let coord = Coordinator::new(n);
    let zeros = vec![0u64; n];
    common::lockstep(
        &coord,
        n,
        60,
        // Rank 0 presses the button three times as it runs.
        |step| {
            if [5, 20, 35].contains(&step) {
                coord.request_checkpoint(CkptMode::Continue);
            }
        },
        |rank, session| {
            session.exchange_counters(&zeros, &zeros).expect("exchange");
            session.submit_image(RankImage::new(rank, n, session.epoch()));
            session.finish().expect("finish");
            ControlFlow::Continue(())
        },
    );
    // Requests spaced well apart across 60 steps: every press is served
    // by some round (merging is only possible for presses landing inside
    // an open round, which 15-step spacing prevents here).
    assert_eq!(coord.completed_rounds(), 3, "three presses, three rounds");
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
    // The step every rank is polling: rank 0 sets it before the barrier
    // that releases the step's polls.
    let now = AtomicU64::new(0);
    let entered = Mutex::new(vec![Vec::new(); n]);
    common::lockstep(
        &coord,
        n,
        120,
        // Rank 0 presses the button three times, spaced so each press
        // lands outside any open round.
        |step| {
            now.store(step, Ordering::SeqCst);
            if [5, 45, 85].contains(&step) {
                coord.request_checkpoint(CkptMode::Continue);
            }
        },
        |rank, session| {
            let step = now.load(Ordering::SeqCst);
            let cut = session.cut();
            session.exchange_counters(&zeros, &zeros).expect("exchange");
            session.submit_image(RankImage::new(rank, n, session.epoch()));
            session.finish().expect("finish");
            entered.lock().unwrap()[rank].push((cut, step));
            ControlFlow::Continue(())
        },
    );
    let entered = entered.into_inner().unwrap();
    for per_rank in &entered {
        assert_eq!(per_rank.len(), 3, "three rounds everywhere: {entered:?}");
        assert_eq!(per_rank, &entered[0], "uniform cuts: {entered:?}");
        assert!(
            per_rank.iter().all(|(cut, step)| cut == step),
            "entered away from the cut: {entered:?}"
        );
    }
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
        Arc::new(TestClock::new()),
    ));
    coord.attach_replicas(group.clone());
    let zeros = vec![0u64; n];
    common::lockstep(
        &coord,
        n,
        40,
        |step| {
            if [5, 15, 25].contains(&step) {
                coord.request_checkpoint(CkptMode::Continue);
            }
        },
        |rank, session| {
            session.exchange_counters(&zeros, &zeros).expect("exchange");
            session.submit_image(RankImage::new(rank, n, session.epoch()));
            session.finish().expect("finish");
            ControlFlow::Continue(())
        },
    );
    assert_eq!(coord.completed_rounds(), 3);
    assert_eq!(group.stats().commits, 3);
}
