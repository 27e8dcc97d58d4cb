//! Fault tolerance (the paper's motivating context): periodic
//! checkpoints + injected node failure + Reinit-style global restart,
//! through `Session::run_resilient`.

use mpi_stool::simnet::ClusterSpec;
use mpi_stool::stool::programs::RingPings;
use mpi_stool::stool::{Checkpointer, EventKind, FaultSchedule, RunOutcome, Session, Vendor};

fn cluster() -> ClusterSpec {
    ClusterSpec::builder().nodes(2).ranks_per_node(2).build()
}

fn clean_total(program: &RingPings, vendor: Vendor) -> f64 {
    let out = Session::builder()
        .cluster(cluster())
        .vendor(vendor)
        .checkpointer(Checkpointer::mana())
        .build()
        .unwrap()
        .launch(program)
        .unwrap();
    out.memories().unwrap()[0].get_f64("ring.total").unwrap()
}

#[test]
fn failure_recovers_from_periodic_checkpoint() {
    let program = RingPings {
        rounds: 12,
        payload: 8,
    };
    let expect = clean_total(&program, Vendor::Mpich);

    let session = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(4)
        .inject_node_failure(9, 1)
        .build()
        .unwrap();
    let report = session.run_resilient(&program, 3).unwrap();
    assert_eq!(report.recoveries.len(), 1, "one failure, one recovery");
    assert_eq!(report.recoveries[0].failed_at, 9);
    assert!(
        report.recoveries[0].from_image,
        "a checkpoint (step 4 or 8) must predate the step-9 failure"
    );
    let got = report.outcome.memories().unwrap()[0]
        .get_f64("ring.total")
        .unwrap();
    assert_eq!(
        got, expect,
        "recovered run must finish the same computation"
    );
}

#[test]
fn failure_before_first_checkpoint_restarts_from_scratch() {
    let program = RingPings {
        rounds: 8,
        payload: 8,
    };
    let expect = clean_total(&program, Vendor::OpenMpi);

    let session = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::OpenMpi)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(6)
        .inject_node_failure(3, 0) // dies before the step-6 checkpoint
        .build()
        .unwrap();
    let report = session.run_resilient(&program, 3).unwrap();
    assert_eq!(report.recoveries.len(), 1);
    assert!(
        !report.recoveries[0].from_image,
        "no checkpoint had completed; recovery is a from-scratch restart"
    );
    let got = report.outcome.memories().unwrap()[0]
        .get_f64("ring.total")
        .unwrap();
    assert_eq!(got, expect);
}

#[test]
fn restart_budget_exhaustion_is_an_error() {
    let program = RingPings {
        rounds: 8,
        payload: 8,
    };
    let session = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .inject_node_failure(2, 0)
        .build()
        .unwrap();
    let err = session.run_resilient(&program, 0).unwrap_err();
    assert!(err.to_string().contains("after 0 restarts"), "{err}");
}

#[test]
fn resilience_requires_a_checkpointer() {
    let program = RingPings {
        rounds: 4,
        payload: 8,
    };
    let session = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .build()
        .unwrap();
    let err = session.run_resilient(&program, 1).unwrap_err();
    assert!(err.to_string().contains("MANA"), "{err}");
}

#[test]
fn failed_runs_salvage_image_for_manual_cross_vendor_recovery() {
    // The paper's combined story: a job dies on cluster A (MPICH); the
    // operator restarts the salvaged image on cluster B under Open MPI.
    let program = RingPings {
        rounds: 10,
        payload: 8,
    };
    let expect = clean_total(&program, Vendor::Mpich);

    let outcome = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(3)
        .inject_node_failure(8, 1)
        .build()
        .unwrap()
        .launch(&program)
        .unwrap();
    assert!(outcome.is_failed());
    let image = outcome.into_image().expect("periodic image salvaged");
    assert_eq!(image.vendor_hint, "MPICH");

    let recovered = Session::builder()
        .cluster(ClusterSpec::builder().nodes(4).ranks_per_node(1).build())
        .vendor(Vendor::OpenMpi)
        .checkpointer(Checkpointer::mana())
        .build()
        .unwrap()
        .restore(&image, &program)
        .unwrap();
    let got = recovered.memories().unwrap()[0]
        .get_f64("ring.total")
        .unwrap();
    assert_eq!(got, expect, "cross-vendor, cross-cluster recovery");
}

#[test]
fn fault_on_checkpoint_step_loses_that_checkpoint() {
    // Adversarial ordering: the failure fires on entry to the step where
    // a periodic checkpoint was due — the job must recover from the
    // *previous* image, not the never-taken one.
    let program = RingPings {
        rounds: 12,
        payload: 8,
    };
    let expect = clean_total(&program, Vendor::Mpich);
    let session = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(4)
        .inject_node_failure(8, 0)
        .build()
        .unwrap();
    let report = session.run_resilient(&program, 2).unwrap();
    assert_eq!(report.recoveries.len(), 1);
    assert!(report.recoveries[0].from_image);
    let got = report.outcome.memories().unwrap()[0]
        .get_f64("ring.total")
        .unwrap();
    assert_eq!(got, expect);
}

#[test]
fn injected_and_scheduled_kills_compose_in_either_call_order() {
    // One kill list whichever builder call comes first: the schedule's
    // own kills, then the injected ones — so on a shared step the
    // schedule's victims name the blamed node-group.
    let schedule = || {
        FaultSchedule::default()
            .kill_ranks(9, vec![3])
            .kill_ranks(5, vec![2])
    };
    let base = || {
        Session::builder()
            .cluster(cluster())
            .vendor(Vendor::Mpich)
            .checkpointer(Checkpointer::mana())
            .checkpoint_every(4)
    };
    let inject_first = base()
        .inject_node_failure(5, 0)
        .fault_schedule(schedule())
        .build()
        .unwrap();
    let schedule_first = base()
        .fault_schedule(schedule())
        .inject_node_failure(5, 0)
        .build()
        .unwrap();
    let expect = schedule().kill_nodes(5, vec![0]);
    assert_eq!(inject_first.config.schedule, expect);
    assert_eq!(schedule_first.config.schedule, expect);

    let program = RingPings {
        rounds: 12,
        payload: 8,
    };
    for session in [inject_first, schedule_first] {
        let out = session.launch(&program).unwrap();
        assert!(matches!(out, RunOutcome::Failed { failed_step: 5, .. }));
        // Step 5 kills rank 2 (scheduled, node 1) and node 0's ranks
        // (injected); all three blame the schedule's node.
        let kills: Vec<(u64, u64)> = session
            .telemetry()
            .unwrap()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::RankKill)
            .map(|e| (e.a, e.c))
            .collect();
        assert_eq!(kills.len(), 3, "{kills:?}");
        for rank in [0, 1, 2] {
            assert!(kills.contains(&(rank, 1)), "rank {rank}: {kills:?}");
        }
        // Both kills are spent by the time the job is restarted.
        let report = session.run_resilient(&program, 3).unwrap();
        assert_eq!(report.recoveries.len(), 1);
        assert_eq!(report.recoveries[0].failed_at, 5);
    }
}
