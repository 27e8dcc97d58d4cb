//! The coordinator failover battery (ISSUE 6 acceptance): with a
//! 3-replica group attached, killing the leader replica at any scripted
//! barrier phase — arrive, pre-seal, post-seal, release — never poisons
//! surviving ranks. A new leader takes over at the next commit, the
//! checkpoint either commits on quorum or aborts atomically, and a
//! restart from the delta store after a failover is bit-identical under
//! both vendors.

mod common;

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mpi_stool::apps::WaveMpi;
use mpi_stool::dmtcp::replica::Clock;
use mpi_stool::dmtcp::testing::{Fault, Op, Script};
use mpi_stool::dmtcp::{
    BarrierPhase, CkptError, CkptMode, Coordinator, FsTier, MemTier, ObjectTier, RankImage,
    ReplicaConfig, ReplicaError, ReplicaFault, ReplicaGroup, ReplicaRecord, SystemClock,
    TierConfig,
};
use mpi_stool::stool::{
    Checkpointer, DurabilityPolicy, FaultSchedule, ReplicaPolicy, Session, StorePolicy, Vendor,
};

const PHASES: [BarrierPhase; 4] = [
    BarrierPhase::Arrive,
    BarrierPhase::PreSeal,
    BarrierPhase::PostSeal,
    BarrierPhase::Release,
];

/// Drive `n` long-lived rank agents through `steps` safe points in
/// lockstep with a checkpoint at each step in `cuts`; `after(rank,
/// outcome)` runs on every rank once its `finish()` returns. Returns every
/// `finish()` result, round by round per rank.
fn drive_rounds(
    coord: &Coordinator,
    n: usize,
    steps: u64,
    cuts: &[u64],
    after: impl Fn(usize, &Result<CkptMode, CkptError>) + Sync,
) -> Vec<Result<CkptMode, CkptError>> {
    let results = Mutex::new(Vec::new());
    let zeros = vec![0u64; n];
    common::lockstep(coord, n, steps, cuts, |rank, session| {
        session.exchange_counters(&zeros, &zeros).expect("exchange");
        session.submit_image(RankImage::new(rank, n, session.epoch()));
        // Finish *before* taking the results lock: the final barrier
        // parks this thread until every rank arrives.
        let outcome = session.finish();
        after(rank, &outcome);
        results.lock().unwrap().push(outcome);
        ControlFlow::Continue(())
    });
    results.into_inner().unwrap()
}

fn group3(clock: Arc<dyn Clock>) -> ReplicaGroup {
    ReplicaGroup::in_memory(
        ReplicaConfig {
            log: TierConfig {
                backoff: Duration::from_millis(1),
                ..TierConfig::default()
            },
            ..ReplicaConfig::default()
        },
        clock,
    )
}

/// Tentpole acceptance, coordinator level: one scenario per barrier
/// phase. A priming round elects the leader, the scripted fault kills it
/// at the named phase of the next round, and a trailing round proves the
/// group recovered. Every rank's every `finish()` succeeds — nothing is
/// poisoned — and each scenario records exactly one takeover.
#[test]
fn leader_killed_at_every_phase_never_poisons_survivors() {
    for phase in PHASES {
        let n = 3;
        let coord = Coordinator::new(n);
        let group = Arc::new(group3(Arc::new(SystemClock::new())));
        group.script_faults([ReplicaFault::KillLeaderAt(phase)]);
        coord.attach_replicas(group.clone());

        let results = drive_rounds(&coord, n, 40, &[5, 15, 25], |_, _| {});
        assert_eq!(results.len(), 3 * n, "{phase:?}: three full rounds");
        for r in &results {
            assert!(r.is_ok(), "{phase:?}: a finish() was poisoned: {r:?}");
        }
        assert_eq!(coord.completed_rounds(), 3, "{phase:?}");

        let stats = group.stats();
        assert_eq!(stats.commits, 3, "{phase:?}: every round reached quorum");
        assert_eq!(
            stats.recoveries, 1,
            "{phase:?}: exactly one leader takeover"
        );

        // The quorum log replays all three epochs, in order.
        let committed = group.committed().unwrap();
        assert_eq!(committed.len(), 3, "{phase:?}");
        for (i, (slot, record)) in committed.iter().enumerate() {
            assert_eq!(*slot, i as u64, "{phase:?}: dense slots");
            assert!(
                matches!(record, ReplicaRecord::EpochSeal { epoch, .. } if *epoch == i as u64 + 1),
                "{phase:?}: slot {slot} holds {record:?}"
            );
        }
    }
}

/// Losing the quorum (two of three replicas) aborts the round atomically:
/// every participant unwinds with the same `CkptError::Replica`, no epoch
/// is observable, and the staged images are discarded.
#[test]
fn quorum_loss_aborts_the_round_atomically() {
    let n = 2;
    let coord = Coordinator::new(n);
    let group = Arc::new(group3(Arc::new(SystemClock::new())));
    group.kill(1);
    group.kill(2);
    coord.attach_replicas(group.clone());

    let results = drive_rounds(&coord, n, 20, &[5], |_, _| {});
    assert_eq!(results.len(), n);
    for r in &results {
        match r {
            Err(CkptError::Replica(ReplicaError::NoQuorum { need, .. })) => {
                assert_eq!(*need, 2)
            }
            other => panic!("expected NoQuorum on every rank, got {other:?}"),
        }
    }
    // Atomic abort: nothing became observable anywhere.
    assert_eq!(coord.completed_rounds(), 0);
    assert!(
        coord.take_world_image("ANY").is_none(),
        "staged images must be discarded on abort"
    );
    assert!(group.committed().unwrap().is_empty());
}

/// A failed round ends the job: after a quorum loss aborts the first
/// round, no later round opens, even once a revived replica has restored
/// the quorum. Both ranks poll through the second cut without entering.
#[test]
fn no_round_opens_after_an_abort() {
    let n = 2;
    let coord = Coordinator::new(n);
    let group = Arc::new(group3(Arc::new(SystemClock::new())));
    group.kill(1);
    group.kill(2);
    coord.attach_replicas(group.clone());

    let results = drive_rounds(&coord, n, 30, &[5, 15], |rank, outcome| {
        if rank == 0 && outcome.is_err() {
            group.revive(1);
        }
    });

    assert_eq!(results.len(), n, "only the aborted round was entered");
    assert!(results.iter().all(Result::is_err), "{results:?}");
    assert_eq!(coord.completed_rounds(), 0);
    assert!(group.committed().unwrap().is_empty());
}

/// A rank dying mid-round poisons the barrier for the survivors, and the
/// quorum log, which holds only epoch seals, stays empty.
#[test]
fn rank_failstop_poisons_survivors_and_logs_nothing() {
    let n = 3;
    let coord = Coordinator::new(n);
    let group = Arc::new(group3(Arc::new(SystemClock::new())));
    coord.attach_replicas(group.clone());

    let poisoned = AtomicU64::new(0);
    let zeros = vec![0u64; n];
    common::lockstep(&coord, n, 30, &[5], |rank, session| {
        // Every rank leaves at this round. Rank 2 fail-stops inside it:
        // past the exchange (so its peers are committed to the barrier),
        // before the final barrier — dropping the session and then the
        // agent resigns it. The survivors must find the round poisoned,
        // at the exchange's release or at the final barrier.
        let mut committed = session.exchange_counters(&zeros, &zeros).is_ok();
        if rank == 2 {
            return ControlFlow::Break(());
        }
        if committed {
            session.submit_image(RankImage::new(rank, n, session.epoch()));
            committed = session.finish().is_ok();
        }
        if !committed {
            poisoned.fetch_add(1, Ordering::SeqCst);
        }
        ControlFlow::Break(())
    });

    assert_eq!(
        poisoned.load(Ordering::SeqCst),
        2,
        "the survivors observe the poisoned round"
    );
    assert!(group.committed().unwrap().is_empty());
}

// ---------------------------------------------------------------------------
// Session-level battery: transparent failover under a real program, then a
// bit-identical cross-vendor restart from the quorum-backed chain.
// ---------------------------------------------------------------------------

fn cluster() -> mpi_stool::simnet::ClusterSpec {
    mpi_stool::simnet::ClusterSpec::builder()
        .nodes(2)
        .ranks_per_node(2)
        .build()
}

fn solver() -> WaveMpi {
    WaveMpi {
        npoints: 400,
        nsteps: 70,
        gather_final: true,
        ..WaveMpi::default()
    }
}

fn reference_memories(vendor: Vendor) -> Vec<mpi_stool::stool::Memory> {
    Session::builder()
        .cluster(cluster())
        .vendor(vendor)
        .checkpointer(Checkpointer::mana())
        .build()
        .unwrap()
        .launch(&solver())
        .unwrap()
        .memories()
        .unwrap()
        .to_vec()
}

fn assert_memories_equal(a: &[mpi_stool::stool::Memory], b: &[mpi_stool::stool::Memory]) {
    assert_eq!(a.len(), b.len());
    for (rank, (ma, mb)) in a.iter().zip(b).enumerate() {
        let mut names_a: Vec<&str> = ma.names().collect();
        let mut names_b: Vec<&str> = mb.names().collect();
        names_a.sort_unstable();
        names_b.sort_unstable();
        assert_eq!(names_a, names_b, "rank {rank}: memory layout differs");
        for name in names_a {
            assert_eq!(ma.bytes(name), mb.bytes(name), "rank {rank} segment {name}");
        }
    }
}

/// The acceptance scenario end to end, once per barrier phase: a session
/// checkpoints periodically through the delta store with a replicated
/// coordinator; the scripted fault kills the leader replica mid-battery;
/// the job then dies to an injected node failure — and the restart from
/// the quorum-backed chain is bit-identical under both vendors.
#[test]
fn session_failover_restart_is_bit_identical_across_vendors() {
    let expect = reference_memories(Vendor::Mpich);
    for (i, phase) in PHASES.iter().enumerate() {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("stool-failover-chain-{pid}-{i}"));
        let rdir = std::env::temp_dir().join(format!("stool-failover-replicas-{pid}-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&rdir);

        let mut policy = ReplicaPolicy::new(&rdir);
        policy.config.log.backoff = Duration::from_millis(1);

        // Epoch 1 at step 20 primes the group (elects the leader); epoch
        // 2 at step 40 consumes the scripted kill and fails over; the
        // node failure at 55 then kills the job with two quorum-committed
        // epochs on disk.
        let out = Session::builder()
            .cluster(cluster())
            .vendor(Vendor::Mpich)
            .checkpointer(Checkpointer::mana())
            .checkpoint_every(20)
            .durability(DurabilityPolicy {
                store: Some(StorePolicy::new(&dir)),
                replicas: Some(policy),
                ..DurabilityPolicy::default()
            })
            .fault_schedule(FaultSchedule::default().kill_leader_at(*phase))
            .inject_node_failure(55, 0)
            .build()
            .unwrap()
            .launch(&solver())
            .unwrap();
        assert!(
            out.is_failed(),
            "{phase:?}: the injected failure kills the world"
        );

        // The quorum log survives the job: reopening the replica logs
        // replays both sealed epochs (the failover lost nothing).
        let logs: Vec<Arc<dyn ObjectTier>> = (0..3)
            .map(|r| {
                Arc::new(FsTier::open(rdir.join(format!("replica_{r:02}"))).unwrap())
                    as Arc<dyn ObjectTier>
            })
            .collect();
        let group = ReplicaGroup::new(ReplicaConfig::default(), Arc::new(SystemClock::new()), logs)
            .unwrap();
        let committed = group.committed().unwrap();
        let seals: Vec<u64> = committed
            .iter()
            .map(|(_, ReplicaRecord::EpochSeal { epoch, vendor, .. })| {
                assert_eq!(vendor, "MPICH", "{phase:?}");
                *epoch
            })
            .collect();
        assert_eq!(seals, vec![1, 2], "{phase:?}: both epochs quorum-committed");

        // Restart from the chain under both vendors: bit-identical.
        for vendor in [Vendor::Mpich, Vendor::OpenMpi] {
            let got = Session::builder()
                .cluster(cluster())
                .vendor(vendor)
                .checkpointer(Checkpointer::mana())
                .durability(DurabilityPolicy {
                    store: Some(StorePolicy::new(&dir)),
                    ..DurabilityPolicy::default()
                })
                .build()
                .unwrap()
                .restore_from_store(&solver())
                .unwrap()
                .memories()
                .unwrap()
                .to_vec();
            assert_memories_equal(&expect, &got);
        }

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&rdir).ok();
    }
}

/// Flight-recorder acceptance: a forced leader kill mid-battery makes the
/// session write a merged crash-dump timeline at the end of the run, and
/// the dump contains the failed round's `BarrierPhase`, `LeaderElected`
/// and `EpochCommit` events — in that order, sorted by virtual clock.
#[test]
fn leader_kill_writes_a_merged_crash_dump_timeline() {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("stool-dump-chain-{pid}"));
    let rdir = std::env::temp_dir().join(format!("stool-dump-replicas-{pid}"));
    let ddir = std::env::temp_dir().join(format!("stool-dump-out-{pid}"));
    for d in [&dir, &rdir, &ddir] {
        let _ = std::fs::remove_dir_all(d);
    }

    let mut policy = ReplicaPolicy::new(&rdir);
    policy.config.log.backoff = Duration::from_millis(1);

    let session = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(20)
        .durability(DurabilityPolicy {
            store: Some(StorePolicy::new(&dir)),
            replicas: Some(policy),
            ..DurabilityPolicy::default()
        })
        // A fault-scripted session primes the group with its initial
        // election on attach, so epoch 1 (step 20) already has an
        // incumbent to strike: the scripted kill fires in the very first
        // round — the "failed round" — and its commit rides the failover
        // election.
        .fault_schedule(FaultSchedule::default().kill_leader_at(BarrierPhase::PreSeal))
        .crash_dump_dir(&ddir)
        .build()
        .unwrap();
    let out = session.launch(&solver()).unwrap();
    assert!(out.is_completed(), "the takeover is transparent to the job");

    // The unified snapshot: recorder + store + replica stats in one place.
    let snap = session.telemetry().expect("telemetry after launch");
    assert!(snap.incidents() >= 1, "a recovery election is an incident");
    assert!(snap.replica.expect("replica stats in snapshot").recoveries >= 1);
    assert!(
        !snap.epochs.is_empty(),
        "store epoch stats unified in the snapshot"
    );

    // The end-of-run dump fired because the run recorded incidents, even
    // though the job itself completed.
    let jsonl = snap.dump.clone().expect("crash dump written");
    let text = std::fs::read_to_string(&jsonl).unwrap();
    assert!(
        jsonl.with_file_name("flight.trace.json").exists(),
        "Chrome trace written next to the JSON lines"
    );

    // The timeline is virtual-clock sorted.
    let vt = |line: &str| -> u64 {
        let at = line.find("\"vt_ns\":").expect("event has vt_ns") + 8;
        line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let events: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"type\":\"event\""))
        .collect();
    assert!(
        events.windows(2).all(|w| vt(w[0]) <= vt(w[1])),
        "merged timeline must be ordered by virtual clock"
    );

    // The failed round's events, in virtual-clock order: its barrier
    // phases, the recovery election that rode out the kill, then the
    // round's eventual quorum commit.
    let index_of = |pred: &dyn Fn(&str) -> bool, what: &str| -> usize {
        events
            .iter()
            .position(|l| pred(l))
            .unwrap_or_else(|| panic!("{what} missing from the dump"))
    };
    let barrier = index_of(
        &|l| l.contains("\"kind\":\"BarrierPhase\"") && l.contains("\"epoch\":1"),
        "BarrierPhase of the failed round",
    );
    let elected = index_of(
        &|l| l.contains("\"kind\":\"LeaderElected\"") && l.contains("\"recovery\":1"),
        "recovery LeaderElected",
    );
    let commit = index_of(
        &|l| l.contains("\"kind\":\"EpochCommit\"") && l.contains("\"epoch\":1"),
        "EpochCommit of the failed round",
    );
    assert!(
        barrier < elected && elected < commit,
        "failed round must read arrive → takeover → commit \
         (got BarrierPhase@{barrier}, LeaderElected@{elected}, EpochCommit@{commit})"
    );

    for d in [&dir, &rdir, &ddir] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// An epoch seal for the group-level tests.
fn seal(epoch: u64) -> ReplicaRecord {
    ReplicaRecord::EpochSeal {
        epoch,
        cut: epoch * 10,
        stop: false,
        vendor: "MPICH".to_string(),
    }
}

/// A group over three scripted logs that has committed `before`; then
/// the logs named in `failing` fail their next `faults` puts.
fn group_with_failing_logs(
    before: &[ReplicaRecord],
    failing: &[usize],
    faults: usize,
) -> ReplicaGroup {
    let scripts: Vec<Arc<Script>> = (0..3).map(|_| Script::new()).collect();
    let config = ReplicaConfig {
        log: TierConfig {
            backoff: Duration::from_millis(1),
            ..TierConfig::default()
        },
        ..ReplicaConfig::default()
    };
    let logs = scripts
        .iter()
        .map(|s| s.wrap(Arc::new(MemTier::new())) as Arc<dyn ObjectTier>)
        .collect();
    let group = ReplicaGroup::new(config, Arc::new(SystemClock::new()), logs).unwrap();
    for record in before {
        group.commit(record.clone()).unwrap();
    }
    for &id in failing {
        scripts[id].push(Op::Put, vec![Fault::Fail; faults]);
    }
    group
}

/// One acceptor whose log write fails is one missing ack, not a failed
/// commit: the other two make a quorum, and the record replays.
#[test]
fn one_failing_log_is_a_missing_ack_and_the_quorum_commits() {
    let group = group_with_failing_logs(&[], &[2], 1000);
    let record = seal(4);
    let slot = group.commit(record.clone()).expect("a quorum accepted");
    assert_eq!(group.committed().unwrap(), vec![(slot, record)]);
}

/// Two failing logs leave no quorum: the commit says so, and nothing
/// replays as committed.
#[test]
fn two_failing_logs_are_no_quorum_and_nothing_replays() {
    let group = group_with_failing_logs(&[], &[1, 2], 1000);
    match group.commit(seal(4)) {
        Err(ReplicaError::NoQuorum { need: 2, .. }) => {}
        other => panic!("expected NoQuorum, got {other:?}"),
    }
    assert_eq!(group.committed().unwrap(), vec![]);
}

/// Regression, found by the lockstep harness when ranks resigning inside
/// a round still logged their departure: two proposers that read the next
/// free slot before either had claimed it both "committed" there, and the
/// slower one's record overwrote the other's in every log. The finish
/// leader is now the library's one proposer; the proposer lock keeps the
/// public `commit` safe for any other caller. Held here in
/// the one interleaving that shows it: proposer A parked inside its last
/// acceptor's log write while proposer B runs. B's first put, its accept
/// at the first log, is held too, so the test waits on where B is, never
/// on the clock: under the proposer lock B reaches that put only after A
/// has claimed its slot.
#[test]
fn concurrent_commits_never_share_a_log_slot() {
    let logs: Vec<Arc<Script>> = (0..3).map(|_| Script::new()).collect();
    let group = ReplicaGroup::new(
        ReplicaConfig::default(),
        Arc::new(SystemClock::new()),
        logs.iter()
            .map(|l| l.wrap(Arc::new(MemTier::new())) as Arc<dyn ObjectTier>)
            .collect(),
    )
    .unwrap();
    group.commit(seal(9)).unwrap(); // elects the leader, fills slot 0

    let wait_for = |log: &Script| {
        while log.injected() == 0 {
            // lint:allow(no-free-running-harness) — waits until the proposer reaches the held log put
            std::thread::yield_now();
        }
    };
    logs[2].push(Op::Put, [Fault::Hold]);
    let b_started = AtomicBool::new(false);
    let (slot_a, slot_b) = std::thread::scope(|s| {
        let a = s.spawn(|| group.commit(seal(0)).unwrap());
        wait_for(&logs[2]); // A has read its slot and not claimed it
        logs[0].push(Op::Put, [Fault::Hold]);
        let b = s.spawn(|| {
            b_started.store(true, Ordering::SeqCst);
            group.commit(seal(1)).unwrap()
        });
        while !b_started.load(Ordering::SeqCst) {
            // lint:allow(no-free-running-harness) — waits until proposer B's thread has started
            std::thread::yield_now();
        }
        logs[2].hold(false);
        let slot_a = a.join().unwrap();
        wait_for(&logs[0]); // B has read its slot
        logs[0].hold(false);
        (slot_a, b.join().unwrap())
    });
    assert_ne!(slot_a, slot_b, "two commits acknowledged in one slot");
    let committed = group.committed().unwrap();
    for epoch in [9, 0, 1] {
        assert!(
            committed.iter().any(|(_, r)| *r == seal(epoch)),
            "epoch {epoch}'s seal was overwritten: {committed:?}"
        );
    }
}

/// One commit owns one slot. Logs 1 and 2 fail the four puts of the
/// first accept (every attempt), so the seal reaches quorum only on the
/// retry under a new ballot: at its own slot, once.
#[test]
fn a_commit_retried_under_a_new_ballot_keeps_its_one_slot() {
    let group = group_with_failing_logs(&[seal(9)], &[1, 2], 4);
    assert_eq!(group.commit(seal(4)).unwrap(), 1);
    assert_eq!(
        group.committed().unwrap(),
        vec![(0, seal(9)), (1, seal(4))],
        "seal 4 is committed once, at slot 1"
    );
    assert_eq!(group.stats().re_adopted, 1, "it reached quorum on a retry");
}

/// A failed commit leaves nothing that `committed()` replays. Logs 1 and
/// 2 fail the accept and the re-election's promise, so seal 4 is
/// `NoQuorum` with one copy in log 0; the next commit takes the next
/// slot, and seal 4 never becomes committed.
#[test]
fn a_failed_commit_is_never_replayed() {
    let group = group_with_failing_logs(&[seal(9)], &[1, 2], 8);
    match group.commit(seal(4)) {
        Err(ReplicaError::NoQuorum { need: 2, .. }) => {}
        other => panic!("expected NoQuorum, got {other:?}"),
    }
    assert_eq!(group.commit(seal(5)).unwrap(), 2);
    assert_eq!(
        group.committed().unwrap(),
        vec![(0, seal(9)), (2, seal(5))],
        "the failed seal 4 must not replay"
    );
}
