//! Multi-tenant cluster battery: N concurrent worlds behind one worker
//! pool, one shared store committer and one shared tier shipper. The
//! invariants under test are the redesign's acceptance criteria: every
//! tenant commits all of its epochs, per-tenant restores are
//! bit-identical, a full queue throttles only its own tenant, and a killed
//! tenant leaves its siblings untouched.

use std::sync::Arc;

use mpi_stool::dmtcp::{
    DeltaStore, RankImage, SharedStoreWriter, StoreConfig, StoreError, WorldImage, QUEUE_DEPTH,
};
use mpi_stool::simnet::ClusterSpec;
use mpi_stool::stool::cluster::{Cluster, ClusterBuilder};
use mpi_stool::stool::programs::RingPings;
use mpi_stool::stool::{
    Checkpointer, DurabilityPolicy, Fault, FaultSchedule, RunOutcome, Session, StorePolicy,
    TierConfig, TierPolicy, Vendor,
};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stool_cluster_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fill_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

fn world_image(epoch: u64, nranks: usize, fill: u8) -> WorldImage {
    let ranks = (0..nranks)
        .map(|r| {
            let mut img = RankImage::new(r, nranks, epoch);
            img.put_section("static", fill_bytes(r as u64 + 1, 512));
            img.put_section("hot", fill_bytes((fill as u64) << 8 | r as u64, 700));
            img
        })
        .collect();
    WorldImage::new("MPICH".to_string(), ranks)
}

fn small_world() -> ClusterSpec {
    ClusterSpec::builder().nodes(1).ranks_per_node(2).build()
}

fn vendor_for(i: usize) -> Vendor {
    if i.is_multiple_of(2) {
        Vendor::Mpich
    } else {
        Vendor::OpenMpi
    }
}

/// A delta store at `dir` and nothing else.
fn stored(dir: impl Into<std::path::PathBuf>) -> DurabilityPolicy {
    DurabilityPolicy {
        store: Some(StorePolicy::new(dir)),
        ..DurabilityPolicy::default()
    }
}

/// A checkpointing tenant: own chain dir, a checkpoint every step.
fn tenant(root: &std::path::Path, i: usize, rounds: u64) -> Session {
    let _ = rounds;
    Session::builder()
        .cluster(small_world())
        .vendor(vendor_for(i))
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(1)
        .durability(stored(root.join(format!("chain_{i}"))))
        .build()
        .unwrap()
}

fn eight_tenant_cluster(root: &std::path::Path, rounds: u64) -> ClusterBuilder {
    let mut builder = Cluster::builder().worker_threads(4).tier(root.join("tier"));
    for i in 0..8 {
        builder = builder.tenant(format!("t{i}"), tenant(root, i, rounds));
    }
    builder
}

/// The deterministic answer a RingPings world must produce, computed by
/// an uninterrupted solo session under the same vendor.
fn reference_total(vendor: Vendor, program: &RingPings) -> f64 {
    Session::builder()
        .cluster(small_world())
        .vendor(vendor)
        .checkpointer(Checkpointer::mana())
        .build()
        .unwrap()
        .launch(program)
        .unwrap()
        .memories()
        .unwrap()[0]
        .get_f64("ring.total")
        .unwrap()
}

#[test]
fn eight_tenants_churn_through_one_shared_writer_and_tier() {
    let root = tmp_dir("saturate");
    let program = RingPings {
        rounds: 6,
        payload: 16,
    };
    let cluster = eight_tenant_cluster(&root, program.rounds).build().unwrap();
    let programs: Vec<(&str, &dyn mpi_stool::stool::MpiProgram)> = (0..8)
        .map(|i| {
            (
                ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"][i],
                &program as &dyn mpi_stool::stool::MpiProgram,
            )
        })
        .collect();
    let report = cluster.run(&programs).unwrap();
    assert!(report.all_completed(), "all 8 tenants must complete");

    let epoch_counts: Vec<usize> = (0..8)
        .map(|i| report.tenant(&format!("t{i}")).unwrap().epochs.len())
        .collect();
    for (i, &n) in epoch_counts.iter().enumerate() {
        assert!(n >= 4, "tenant t{i} committed only {n} epochs");
        assert_eq!(
            n, epoch_counts[0],
            "identical tenants must commit identical epoch counts"
        );
        assert!(report
            .tenant(&format!("t{i}"))
            .unwrap()
            .store_error
            .is_none());
    }

    // The shared tier holds 8 disjoint per-tenant chains.
    for i in 0..8 {
        let ns_root = root.join("tier").join("tenant").join(format!("t{i}"));
        let sealed = std::fs::read_dir(&ns_root)
            .unwrap_or_else(|_| panic!("tier namespace for t{i} missing"))
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("epoch_"))
            .count();
        assert!(sealed >= 1, "tenant t{i} shipped no sealed epochs");
    }

    // Per-tenant restore from its own chain is bit-identical: the
    // restored run finishes with exactly the solo reference answer.
    for i in 0..8 {
        let expect = reference_total(vendor_for(i), &program);
        let session = cluster.session(&format!("t{i}")).unwrap();
        let done = session.restore_from_store(&program).unwrap();
        let memories = done.memories().unwrap();
        for m in memories {
            assert_eq!(
                m.get_f64("ring.total").map(f64::to_bits),
                Some(expect.to_bits()),
                "tenant t{i} restore must be bit-identical to the reference"
            );
        }
    }
}

#[test]
fn killing_one_tenant_leaves_the_other_seven_unaffected() {
    let root = tmp_dir("fault");
    let program = RingPings {
        rounds: 6,
        payload: 8,
    };
    let mut builder = Cluster::builder().worker_threads(4);
    for i in 0..8 {
        let mut b = Session::builder()
            .cluster(small_world())
            .vendor(vendor_for(i))
            .checkpointer(Checkpointer::mana())
            .checkpoint_every(2)
            .durability(stored(root.join(format!("chain_{i}"))));
        if i == 3 {
            // Tenant t3 dies mid-round.
            b = b.inject_node_failure(3, 0);
        }
        builder = builder.tenant(format!("t{i}"), b.build().unwrap());
    }
    let cluster = builder.build().unwrap();
    let ids = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];
    let programs: Vec<(&str, &dyn mpi_stool::stool::MpiProgram)> = ids
        .iter()
        .map(|id| (*id, &program as &dyn mpi_stool::stool::MpiProgram))
        .collect();
    let report = cluster.run(&programs).unwrap();

    match &report.tenant("t3").unwrap().outcome {
        Ok(RunOutcome::Failed { failed_step, .. }) => assert_eq!(*failed_step, 3),
        other => panic!("t3 should have failed, got {other:?}"),
    }
    for id in ids.iter().filter(|id| **id != "t3") {
        let t = report.tenant(id).unwrap();
        match &t.outcome {
            Ok(outcome) if outcome.is_completed() => {}
            other => panic!("{id} should have completed, got {other:?}"),
        }
        assert!(t.store_error.is_none(), "{id} lane must stay clean");
    }
    // The dead tenant's committed epochs are still a valid recovery
    // point for it.
    let salvage = DeltaStore::open(root.join("chain_3")).unwrap();
    assert!(!salvage.epochs().is_empty(), "t3's chain must survive");
}

#[test]
fn quota_backpressure_throttles_only_the_over_budget_tenant() {
    let dir_a = tmp_dir("quota_a");
    let dir_b = tmp_dir("quota_b");
    let cfg = StoreConfig {
        block_size: 128,
        ..StoreConfig::default()
    };
    let store_a = DeltaStore::open_with(&dir_a, cfg).unwrap();
    let store_b = DeltaStore::open_with(&dir_b, cfg).unwrap();
    let writer = Arc::new(SharedStoreWriter::spawn_stores(vec![store_a, store_b]));

    // Freeze the committer so lane 0's queue fills deterministically.
    writer.hold_commits();
    for e in 1..=QUEUE_DEPTH as u64 {
        writer.submit(0, world_image(e, 2, e as u8)).unwrap();
    }

    // One more submit on the full lane blocks: lane 0 is at its bound...
    let next = QUEUE_DEPTH as u64 + 1;
    let blocked = {
        let writer = writer.clone();
        std::thread::spawn(move || writer.submit(0, world_image(next, 2, next as u8)))
    };
    // A wait until the blocked thread has registered, not a step budget:
    // the count moves exactly once, and nothing else can move it.
    while writer.quota_waits(0) == 0 {
        // lint:allow(no-free-running-harness) — waits until the blocked submit has registered its quota wait
        std::thread::yield_now();
    }
    // ...while the other tenant's submit returns: lanes are isolated.
    writer.submit(1, world_image(1, 2, 9)).unwrap();
    assert_eq!(writer.quota_waits(1), 0);

    writer.release_commits();
    blocked.join().unwrap().unwrap();
    writer.flush_lane(0).unwrap();
    writer.flush_lane(1).unwrap();
    assert!(writer.quota_waits(0) >= 1);

    let writer = Arc::try_unwrap(writer).ok().expect("sole owner");
    let stores = writer.finish().unwrap();
    assert_eq!(stores.len(), 2);
    assert_eq!(stores[0].stats().len(), 3);
    assert_eq!(stores[1].stats().len(), 1);
    assert_eq!(stores[0].epochs(), vec![1, 2, 3]);
    assert_eq!(stores[1].epochs(), vec![1]);
}

#[test]
fn a_submit_queued_behind_a_failed_commit_is_never_committed() {
    let dir = tmp_dir("behind_failure");
    let writer = SharedStoreWriter::spawn_stores(vec![DeltaStore::open(&dir).unwrap()]);
    writer.submit(0, world_image(1, 2, 1)).unwrap();
    writer.flush_lane(0).unwrap();

    // Both submits land before the failure: a malformed image (ranks
    // disagree on the epoch), then a good one queued behind it.
    writer.hold_commits();
    let mut bad = world_image(2, 2, 2);
    bad.ranks[1] = RankImage::new(1, 2, 7);
    writer.submit(0, bad).unwrap();
    writer.submit(0, world_image(3, 2, 3)).unwrap();
    writer.release_commits();
    assert!(writer.flush_lane(0).is_err());

    // A failed lane is never dispatched again, so the good image does
    // not reach the chain behind the failure, whatever the timing.
    let stores = writer.finish().unwrap();
    assert_eq!(stores[0].epochs(), vec![1]);
}

#[test]
fn sticky_commit_errors_latch_per_lane() {
    let dir_a = tmp_dir("sticky_a");
    let dir_b = tmp_dir("sticky_b");
    let store_a = DeltaStore::open(&dir_a).unwrap();
    let store_b = DeltaStore::open(&dir_b).unwrap();
    let writer = Arc::new(SharedStoreWriter::spawn_stores(vec![store_a, store_b]));

    // Lane 0 commits a malformed image (ranks disagree on the epoch):
    // its error latches, its later submits bounce.
    let mut bad = world_image(1, 2, 1);
    bad.ranks[1] = RankImage::new(1, 2, 7);
    writer.submit(0, bad).unwrap();
    assert!(writer.flush_lane(0).is_err());
    assert!(writer.lane_error(0).is_some());
    assert!(writer.submit(0, world_image(2, 2, 2)).is_err());

    // Lane 1 never notices.
    writer.submit(1, world_image(1, 2, 3)).unwrap();
    let (flushed, store_b) = writer.retire(1);
    flushed.unwrap();
    assert!(writer.lane_error(1).is_none());
    assert_eq!(store_b.unwrap().stats().len(), 1);
}

#[test]
fn cluster_builder_rejects_misconfigured_tenancy() {
    let root = tmp_dir("validate");
    let session = |dir: &str| {
        Session::builder()
            .cluster(small_world())
            .checkpointer(Checkpointer::mana())
            .durability(stored(root.join(dir)))
            .build()
            .unwrap()
    };

    // Two tenants, one chain directory: rejected up front.
    let err = Cluster::builder()
        .tenant("a", session("shared"))
        .tenant("b", session("shared"))
        .build()
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("distinct store directories"));

    // Ids must be unique...
    let err = Cluster::builder()
        .tenant("a", session("c1"))
        .tenant("a", session("c2"))
        .build()
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("duplicate tenant id"));

    // ...and valid single-segment tier namespaces.
    for bad in ["", "a/b", "..", ".inflight"] {
        let err = Cluster::builder()
            .tenant(bad, session("c3"))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(
            err.to_string().contains("not a valid tier namespace"),
            "{bad:?} should be rejected"
        );
    }

    // A cluster needs tenants at all.
    assert!(Cluster::builder().build().is_err());
}

#[test]
fn tenant_marker_rejects_foreign_and_untagged_opens() {
    let dir = tmp_dir("marker");
    let as_tenant = |tenant: &str| StorePolicy {
        tenant: tenant.to_string(),
        ..StorePolicy::new(&dir)
    };

    // First tenant-tagged open claims the directory...
    drop(as_tenant("alice").open_store().unwrap());
    // ...the same tenant may come back...
    drop(as_tenant("alice").open_store().unwrap());
    // ...but another tenant (or an untagged session) is refused with a
    // structured error instead of silently interleaving epochs.
    for intruder in ["bob", ""] {
        match as_tenant(intruder).open_store() {
            Err(StoreError::TenantMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, intruder);
                assert_eq!(found, "alice");
            }
            Ok(_) => panic!("tenant {intruder:?} must not open alice's store"),
            Err(e) => panic!("expected TenantMismatch, got {e}"),
        }
    }

    // Untagged directories keep full back-compat: repeated untagged
    // opens stay legal and never write a marker.
    let legacy = StorePolicy::new(tmp_dir("marker_legacy"));
    drop(legacy.open_store().unwrap());
    drop(legacy.open_store().unwrap());
    assert!(!legacy.dir.join("TENANT").exists());
}

/// A marker that does not decode is a claim nobody can match, not an
/// absent one: the open is refused and the marker is left as it was.
#[test]
fn an_undecodable_tenant_marker_refuses_the_open() {
    let dir = tmp_dir("marker_garbage");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("TENANT"), b"\xff").unwrap();
    let policy = StorePolicy {
        tenant: "alice".to_string(),
        ..StorePolicy::new(&dir)
    };
    match policy.open_store() {
        Err(StoreError::TenantMismatch {
            expected, found, ..
        }) => {
            assert_eq!(expected, "alice");
            assert_eq!(found, "\u{fffd}");
        }
        Ok(_) => panic!("an undecodable marker must not be overwritten by a claim"),
        Err(e) => panic!("expected TenantMismatch, got {e}"),
    }
    assert_eq!(std::fs::read(dir.join("TENANT")).unwrap(), b"\xff");
}

/// A tenant's whole fault plan applies inside a cluster: the upload-fault
/// script of a tenant with a private tier reaches that tier's shipper,
/// exactly as it would for the same session run alone.
#[test]
fn a_tenants_scripted_upload_faults_reach_its_private_tier() {
    let root = tmp_dir("tenant_put_faults");
    let tier = TierPolicy {
        dir: root.join("tier"),
        config: TierConfig {
            backoff: std::time::Duration::from_millis(1),
            ..TierConfig::default()
        },
    };
    let session = Session::builder()
        .cluster(small_world())
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(1)
        .durability(DurabilityPolicy {
            tier: Some(tier),
            ..stored(root.join("chain"))
        })
        .fault_schedule(FaultSchedule::default().tier_put_faults([Fault::Fail, Fault::Fail]))
        .build()
        .unwrap();
    let cluster = Cluster::builder().tenant("t0", session).build().unwrap();
    let program = RingPings {
        rounds: 3,
        payload: 16,
    };
    let report = cluster.run(&[("t0", &program)]).unwrap();
    assert!(report.all_completed(), "{report:?}");

    let snap = cluster.session("t0").unwrap().telemetry().unwrap();
    let tier = snap
        .tier
        .expect("the tenant's private tier reports its stats");
    assert!(
        tier.put_retries >= 2,
        "both scripted failures retried: {tier:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
