//! The scenario-matrix battery: the committed matrix is well-formed and
//! covers every fault family, representative rows hold their
//! invariants through `run_scenario`, a 10x straggler cannot poison the
//! barrier or skew the cut, and random small fault schedules always
//! unwind into a bit-identical cross-vendor restart (proptest).

use std::path::PathBuf;

use mpi_stool::stool::programs::RingPings;
use mpi_stool::stool::{
    run_scenario, App, Checkpointer, DurabilityKind, DurabilityPolicy, EventKind, Fault,
    FaultSchedule, ScenarioSpec, Session, StorePolicy, Vendor, Victims,
};
use proptest::prelude::*;
use simnet::{ClusterSpec, VirtualTime};
use stool_bench::matrix::matrix;

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stool_scenarios_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ring_for(spec: &ScenarioSpec) -> RingPings {
    assert_eq!(
        spec.app,
        App::Ring,
        "this battery instantiates ring rows only"
    );
    RingPings {
        rounds: spec.steps,
        payload: spec.payload as usize,
    }
}

// ---------------------------------------------------------------------------
// The committed matrix
// ---------------------------------------------------------------------------

#[test]
fn committed_matrix_meets_the_coverage_floor() {
    let specs = matrix();
    assert!(
        specs.len() >= 24,
        "the matrix must keep >= 24 scenarios, found {}",
        specs.len()
    );
    // Every row is valid and names its own directory under the workdir.
    let mut names = std::collections::BTreeSet::new();
    for spec in &specs {
        spec.validate().unwrap();
        assert!(names.insert(&spec.name), "duplicate row {}", spec.name);
    }

    // Every fault family is represented, each under both vendors.
    let family = |pred: &dyn Fn(&ScenarioSpec) -> bool, what: &str| {
        for vendor in [Vendor::Mpich, Vendor::OpenMpi] {
            assert!(
                specs.iter().any(|s| s.vendor == vendor && pred(s)),
                "no {what} row under {}",
                vendor.name()
            );
        }
    };
    family(
        &|s| {
            s.schedule
                .kills
                .iter()
                .any(|k| matches!(k.victims, Victims::Ranks(_) | Victims::World))
        },
        "rank fail-storm",
    );
    family(
        &|s| {
            s.schedule
                .kills
                .iter()
                .any(|k| matches!(k.victims, Victims::Nodes(_)))
        },
        "node-group kill",
    );
    family(&|s| !s.schedule.stragglers.is_empty(), "straggler");
    family(
        &|s| !s.schedule.tier_puts.is_empty() || !s.schedule.tier_gets.is_empty(),
        "torn tier upload",
    );
    family(
        &|s| !s.schedule.replica.is_empty(),
        "coordinator leader-kill",
    );

    // Applications beyond the smoke ring: the paper's §5 workloads.
    for app in [App::Wave, App::Comd] {
        assert!(
            specs.iter().any(|s| s.app == app),
            "matrix must cover the {} workload",
            app.name()
        );
    }
}

#[test]
fn validate_rejects_drifted_specs() {
    // A row whose kill precedes the first checkpoint can never recover
    // from a chain; validation must reject it, not let the row fail late.
    let early_kill = ScenarioSpec {
        ckpt_every: 8,
        schedule: FaultSchedule::default().kill_ranks(4, [1]),
        ..ScenarioSpec::named("bad")
    };
    let err = early_kill.validate().unwrap_err();
    assert!(err.contains("precedes the first checkpoint"), "{err}");

    let tierless_fault = ScenarioSpec {
        schedule: FaultSchedule::default().tier_put_faults([Fault::Torn]),
        ..ScenarioSpec::named("bad")
    };
    let err = tierless_fault.validate().unwrap_err();
    assert!(err.contains("tier faults need durability"), "{err}");
    let tiered = ScenarioSpec {
        durability: DurabilityKind::Tier,
        ..tierless_fault
    };
    assert!(tiered.validate().is_ok());

    // The row name becomes a directory under the runner's workdir.
    for bad in ["", "Ring-Storm", "a/b", "a b"] {
        let err = ScenarioSpec::named(bad).validate().unwrap_err();
        assert!(err.contains("[a-z0-9-]"), "{bad:?}: {err}");
    }
}

// ---------------------------------------------------------------------------
// Engine battery on representative committed rows
// ---------------------------------------------------------------------------

#[test]
fn committed_storm_rows_hold_their_invariants() {
    let specs = matrix();
    let dir = workdir("storm");
    for name in ["ring-storm-mpich", "ring-storm-openmpi", "node-kill-mpich"] {
        let spec = specs
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("committed matrix lost row {name}"));
        let result = run_scenario(spec, &ring_for(spec), &dir);
        assert!(result.passed(), "{name}: {:?}", result.failures);
        assert_eq!(result.kills, 1, "{name}");
        assert_eq!(result.recovery_rounds, 1, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tests/tier_faults.rs port: `torn_object_is_rejected_by_crc_and_
/// reuploaded`, driven end-to-end through the committed matrix row
/// instead of a hand-built store. Same assertions, bigger machine: the
/// torn and failed uploads are caught by read-back CRC and re-shipped
/// (`put_retries` counts one retry per scripted fault), the local chain
/// is wiped before the restart so hydration comes from the tier copy
/// alone, and the cross-vendor restart still converges bit-identically
/// (the row fails otherwise).
#[test]
fn torn_upload_row_reships_and_hydrates_from_the_tier() {
    let specs = matrix();
    let spec = specs
        .iter()
        .find(|s| s.name == "torn-ship-hydrate")
        .expect("committed matrix lost the torn-ship-hydrate row");
    assert!(spec.wipe_local, "the row must force tier-only hydration");
    let scripted = spec.schedule.tier_puts.len() as u64;
    assert!(scripted >= 2, "torn + fail uploads are both scripted");

    let dir = workdir("torn");
    let result = run_scenario(spec, &ring_for(spec), &dir);
    assert!(result.passed(), "{:?}", result.failures);
    assert!(
        result.put_retries >= scripted,
        "one re-upload per scripted fault: {} < {scripted}",
        result.put_retries
    );
    assert!(result.epochs >= 1, "the hydrated chain holds the epochs");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every wiped-disk row restores from the tier: the restart after the
/// wipe resumes from a checkpoint instead of relaunching from step 0,
/// and hydrates that checkpoint in its own run (`run_scenario` fails
/// the row otherwise).
#[test]
fn wiped_disk_rows_hydrate_and_resume_from_the_tier() {
    let specs = matrix();
    let wiped: Vec<&ScenarioSpec> = specs.iter().filter(|s| s.wipe_local).collect();
    assert!(wiped.len() >= 3, "the matrix keeps its wiped-disk rows");
    let dir = workdir("wiped");
    for spec in wiped {
        let result = run_scenario(spec, &ring_for(spec), &dir);
        assert!(result.passed(), "{}: {:?}", spec.name, result.failures);
        assert!(result.recovery_rounds >= 1, "{}", spec.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Straggler satellite: slow is not dead
// ---------------------------------------------------------------------------

/// A rank delayed 10x the per-step compute at its safe point must not
/// poison the checkpoint barrier (the run completes, no incident) or skew
/// the cut: a straggle only advances the rank's virtual clock while the
/// barrier waits in wall time, and the coordinator pins the cut to the
/// announced step, so the straggled run commits the same epochs and
/// computes bit-identical results as the undisturbed one.
#[test]
fn straggler_cannot_poison_the_barrier_or_skew_cut() {
    let program = RingPings {
        rounds: 24,
        payload: 64,
    };
    // Ring charges 5 us of compute per step; 50 us is the 10x straggle.
    let run = |schedule: FaultSchedule, tag: &str| {
        let dir = workdir(tag);
        let session = Session::builder()
            .cluster(ClusterSpec::builder().nodes(3).ranks_per_node(2).build())
            .vendor(Vendor::Mpich)
            .checkpointer(Checkpointer::mana())
            .checkpoint_every(8)
            .durability(DurabilityPolicy {
                store: Some(StorePolicy::new(&dir)),
                ..DurabilityPolicy::default()
            })
            .fault_schedule(schedule)
            .build()
            .unwrap();
        let out = session.launch(&program).unwrap();
        let snap = session.telemetry().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (out, snap)
    };
    let slow = FaultSchedule::default().straggle(2, 4, 20, VirtualTime::from_micros(50));
    let (slow_out, slow_snap) = run(slow, "straggle_slow");
    let (fast_out, fast_snap) = run(FaultSchedule::default(), "straggle_fast");

    assert!(
        slow_out.is_completed(),
        "slow is not dead: the run finishes"
    );
    assert!(
        slow_snap.emitted(EventKind::RankStall) >= 16,
        "stalls traced"
    );
    assert_eq!(slow_snap.incidents(), 0, "a straggler is not an incident");

    // Same epochs committed at the same cuts (no skew), same answer.
    let epochs = |snap: &mpi_stool::stool::TelemetrySnapshot| {
        snap.epochs.iter().map(|e| e.epoch).collect::<Vec<_>>()
    };
    assert_eq!(epochs(&slow_snap), epochs(&fast_snap));
    assert!(!epochs(&slow_snap).is_empty(), "periodic checkpoints ran");
    let totals = |memories: &[mpi_stool::stool::Memory]| {
        memories
            .iter()
            .map(|m| m.get_f64("ring.total").unwrap().to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        totals(slow_out.memories().unwrap()),
        totals(fast_out.memories().unwrap()),
        "a slow rank must not change the computation"
    );
}

// ---------------------------------------------------------------------------
// Proptest satellite: random small schedules always converge
// ---------------------------------------------------------------------------

/// Strategy for a small valid schedule on a 3x2 world with steps=18 and
/// ckpt_every=6: one or two kills strictly inside (ckpt_every, steps),
/// optionally a straggler window.
fn small_schedule() -> impl Strategy<Value = FaultSchedule> {
    let kill = (7u64..18, prop::collection::vec(0usize..6, 1..3));
    (
        prop::collection::vec(kill, 1..3),
        any::<bool>(),
        (0usize..6, 2u64..6, 8u64..18, 10u64..100),
    )
        .prop_map(|(kills, straggles, (rank, from, until, delay_us))| {
            let mut schedule = FaultSchedule::default();
            for (step, ranks) in kills {
                schedule = schedule.kill_ranks(step, ranks);
            }
            if straggles {
                schedule = schedule.straggle(rank, from, until, VirtualTime::from_micros(delay_us));
            }
            schedule
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Invariants 1 + 2 under random fault schedules: every run unwinds
    /// (no hang, no partial epoch) and the restart chain converges to the
    /// bit-identical final state under the alternating vendor.
    #[test]
    fn random_schedules_unwind_and_restart_bit_identically(
        schedule in small_schedule(),
        openmpi_first in any::<bool>(),
    ) {
        let mut spec = ScenarioSpec::named("prop");
        spec.steps = 18;
        spec.ckpt_every = 6;
        spec.vendor = if openmpi_first { Vendor::OpenMpi } else { Vendor::Mpich };
        spec.schedule = schedule;
        prop_assume!(spec.validate().is_ok());
        let dir = workdir("prop");
        let result = run_scenario(&spec, &ring_for(&spec), &dir);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(result.passed(), "{:?}", result.failures);
        // Kill events sharing a step merge into one global failure.
        let distinct_steps = spec.schedule.kills.iter()
            .map(|k| k.at_step)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        prop_assert_eq!(result.kills as usize, distinct_steps);
    }
}
