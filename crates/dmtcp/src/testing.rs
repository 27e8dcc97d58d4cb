//! Deterministic stepping for multi-round coordinator harnesses: the test
//! batteries and the `scale` bench's failover section advance their rank
//! agents through [`lockstep`], never through a free-running step budget
//! whose outcome depends on which thread the OS runs first.

use std::ops::ControlFlow;
use std::sync::Barrier;

use crate::coordinator::{CkptSession, Coordinator, Poll};

/// Drive `n` long-lived rank agents through safe points `0..steps` in
/// lockstep. Before each step every rank waits at a barrier, rank 0 runs
/// `press(step)` (request a checkpoint, revive a replica, ...), and a
/// second barrier makes the press visible before anyone polls that step:
/// every rank polls step *s* after the press for *s*, and nobody finishes
/// (an agent's `Drop` is a resign) while a press is still to come. What
/// the rounds do is a function of the script, not of the scheduler.
///
/// A rank that polls [`Poll::Enter`] hands the session to
/// `round(rank, session)`; `Break` makes it leave for good, which every
/// rank must then do at the same step (the barriers count `n` parties).
pub fn lockstep(
    coord: &Coordinator,
    n: usize,
    steps: u64,
    press: impl Fn(u64) + Sync,
    round: impl Fn(usize, CkptSession<'_>) -> ControlFlow<()> + Sync,
) {
    let gate = Barrier::new(n);
    std::thread::scope(|s| {
        for rank in 0..n {
            let (gate, press, round) = (&gate, &press, &round);
            s.spawn(move || {
                let mut agent = coord.agent(rank);
                for step in 0..steps {
                    gate.wait();
                    if rank == 0 {
                        press(step);
                    }
                    gate.wait();
                    if let Poll::Enter(session) = agent.poll(step).expect("poll") {
                        if round(rank, session).is_break() {
                            return;
                        }
                    }
                }
            });
        }
    });
}
