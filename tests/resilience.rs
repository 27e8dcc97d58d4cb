//! Fault tolerance (the paper's motivating context): periodic
//! checkpoints + injected node failure + Reinit-style global restart.
//! A failed storing run names its last checkpoint's chain epoch and reads
//! nothing back; the job comes back through `Session::restore_from_store`
//! — the one restart path and the one reader of the chain head, which the
//! scenario harness's run/restart loop drives row by row.

use std::path::{Path, PathBuf};

use mpi_stool::simnet::ClusterSpec;
use mpi_stool::stool::programs::RingPings;
use mpi_stool::stool::{
    run_scenario, Checkpoint, Checkpointer, DurabilityPolicy, EventKind, FaultSchedule, RunOutcome,
    Session, StorePolicy, Vendor,
};

fn cluster() -> ClusterSpec {
    ClusterSpec::builder().nodes(2).ranks_per_node(2).build()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stool_resilience_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// A session that checkpoints every 4 steps into the chain at `dir`.
fn stored(vendor: Vendor, dir: &Path, schedule: FaultSchedule) -> Session {
    Session::builder()
        .cluster(cluster())
        .vendor(vendor)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(4)
        .durability(DurabilityPolicy {
            store: Some(StorePolicy::new(dir)),
            ..DurabilityPolicy::default()
        })
        .fault_schedule(schedule)
        .build()
        .unwrap()
}

#[test]
fn failure_recovers_from_periodic_checkpoint() {
    // Fail under MPICH at step 9, after the step-4 and step-8 epochs;
    // restore the chain under Open MPI with what is left of the schedule.
    let program = RingPings {
        rounds: 12,
        payload: 8,
    };
    let expect = clean_total(&program, Vendor::OpenMpi);
    let dir = tmp_dir("periodic");
    let schedule = FaultSchedule::default().kill_nodes(9, vec![1]);
    let failed = stored(Vendor::Mpich, &dir, schedule.clone())
        .launch(&program)
        .unwrap();
    assert!(
        matches!(
            failed,
            RunOutcome::Failed {
                checkpoint: Some(Checkpoint::Stored { epoch: 2 }),
                failed_step: 9,
                ..
            }
        ),
        "a checkpointed run must fail at step 9 after the step-8 epoch: {failed:?}"
    );

    let restart = stored(Vendor::OpenMpi, &dir, schedule.after_failure(9));
    let got = restart
        .restore_from_store(&program)
        .unwrap()
        .memories()
        .unwrap()[0]
        .get_f64("ring.total")
        .unwrap();
    assert_eq!(
        got, expect,
        "recovered run must finish the same computation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resilience_requires_a_checkpointer() {
    let err = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .inject_node_failure(2, 0)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("checkpointing package"), "{err}");
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
    // Adversarial ordering: the committed matrix row kills on entry to
    // the step where a periodic checkpoint was due. The run names the
    // *previous* epoch, not the never-taken one, and the row restarts
    // from it under the other vendor bit-identically.
    let specs = stool_bench::matrix::matrix();
    let spec = specs
        .iter()
        .find(|s| s.name == "ckpt-step-kill-mpich")
        .expect("committed matrix lost the ckpt-step-kill-mpich row");
    let step = 2 * spec.ckpt_every;
    assert_eq!(spec.schedule.first_kill_step(), Some(step));
    let program = RingPings {
        rounds: spec.steps,
        payload: spec.payload as usize,
    };
    let dir = tmp_dir("ckpt_step");
    let failed = Session::builder()
        .cluster(spec.cluster())
        .vendor(spec.vendor)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(spec.ckpt_every)
        .durability(DurabilityPolicy {
            store: Some(StorePolicy::new(dir.join("chain"))),
            ..DurabilityPolicy::default()
        })
        .fault_schedule(spec.schedule.clone())
        .build()
        .unwrap()
        .launch(&program)
        .unwrap();
    assert!(
        matches!(
            failed,
            RunOutcome::Failed {
                checkpoint: Some(Checkpoint::Stored { epoch: 1 }),
                failed_step,
                ..
            } if failed_step == step
        ),
        "expected a failure at step {step} after the first epoch: {failed:?}"
    );

    let result = run_scenario(spec, &program, &dir);
    assert!(result.passed(), "{:?}", result.failures);
    assert_eq!((result.kills, result.recovery_rounds), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
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
        // The restart's schedule drops both step-5 kills and keeps the
        // step-9 one.
        let rest = session.config.schedule.after_failure(5);
        assert_eq!(rest.kills, schedule().kills[..1]);
    }
}
