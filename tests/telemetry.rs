//! The flight recorder's own battery: ring-buffer semantics (wraparound,
//! lost-write-freedom under heavy concurrency, per-lane ordering), the
//! poison-safety of the crash-dump path, the virtual-clock sort of the
//! merged timeline, and the session-level snapshot that unifies events,
//! metrics and subsystem statistics.

use proptest::collection::vec;
use proptest::prelude::*;

use mpi_stool::dmtcp::TierConfig;
use mpi_stool::simnet::{ClusterSpec, EventKind, MetricValue, Telemetry, TelemetryConfig};
use mpi_stool::stool::programs::RingPings;
use mpi_stool::stool::{
    Checkpointer, CkptMode, DurabilityPolicy, RunOutcome, Session, SessionBuilder, StorePolicy,
    TierPolicy, Vendor,
};

/// A delta store at `dir` and nothing else.
fn stored(dir: impl Into<std::path::PathBuf>) -> DurabilityPolicy {
    DurabilityPolicy {
        store: Some(StorePolicy::new(dir)),
        ..DurabilityPolicy::default()
    }
}

/// Wrap is flight-recorder overwrite: the ring keeps the newest events,
/// the per-kind counters keep the true totals.
#[test]
fn ring_wraparound_keeps_newest_events_and_true_counts() {
    let tel = Telemetry::with_config(
        1,
        TelemetryConfig {
            rank_ring: 8,
            ..TelemetryConfig::default()
        },
    );
    for i in 0..100u64 {
        tel.emit_rank(0, EventKind::MsgMatch, i, i, 0, 0);
    }
    assert_eq!(
        tel.emitted(EventKind::MsgMatch),
        100,
        "counters survive wrap"
    );

    let events: Vec<_> = tel.events().into_iter().filter(|e| e.lane == 0).collect();
    assert_eq!(events.len(), 8, "the ring holds its capacity");
    let vclocks: Vec<u64> = events.iter().map(|e| e.vclock_ns).collect();
    assert_eq!(
        vclocks,
        (92..100).collect::<Vec<u64>>(),
        "the survivors are the newest events, in order"
    );
}

/// ≥ 256 threads hammering the recorder concurrently: every emit is
/// counted, no torn slot becomes visible, and each lane's resident
/// events carry strictly increasing tickets (per-rank ordering).
#[test]
fn concurrent_emit_from_256_threads_loses_no_writes() {
    const THREADS: usize = 256;
    const PER_THREAD: u64 = 64;
    let nranks = 8;
    let tel = std::sync::Arc::new(Telemetry::new(nranks));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let tel = tel.clone();
            s.spawn(move || {
                let lane = t % nranks;
                for i in 0..PER_THREAD {
                    tel.emit_rank(lane, EventKind::MsgMatch, i, t as u64, i, 0);
                }
            });
        }
    });

    assert_eq!(
        tel.emitted(EventKind::MsgMatch),
        (THREADS as u64) * PER_THREAD,
        "every concurrent emit is counted"
    );
    let events = tel.events();
    assert!(!events.is_empty());
    for lane in 0..nranks as u32 {
        let tickets: Vec<u64> = {
            let mut v: Vec<_> = events
                .iter()
                .filter(|e| e.lane == lane)
                .map(|e| e.ticket)
                .collect();
            v.sort_unstable();
            v
        };
        assert!(
            tickets.windows(2).all(|w| w[0] < w[1]),
            "lane {lane}: duplicate ticket surfaced — a torn or doubled slot"
        );
    }
}

/// A rank killed between the seqlock stores (mid-emit) must not deadlock
/// or corrupt the dump: the torn slot is skipped, later emits on the
/// same lane still land, and the dump writes cleanly.
#[test]
fn torn_emit_never_reaches_the_dump() {
    let tel = Telemetry::new(2);
    tel.emit_rank(0, EventKind::MsgMatch, 10, 1, 2, 3);
    tel.begin_torn_emit(0); // the writer dies here
    tel.emit_rank(0, EventKind::MsgMatch, 30, 7, 8, 9);
    tel.emit_rank(1, EventKind::MsgMatch, 20, 4, 5, 6);

    let events = tel.events();
    assert_eq!(events.len(), 3, "the torn slot must not surface");
    assert!(events.windows(2).all(|w| w[0].vclock_ns <= w[1].vclock_ns));

    let dir = std::env::temp_dir().join(format!("stool-torn-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = tel
        .write_dump(&dir, "torn-emit test")
        .expect("dump proceeds past the torn slot");
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        text.lines()
            .filter(|l| l.contains("\"type\":\"event\""))
            .count(),
        3
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The one-shot dump claim: with a configured directory, the first
/// `dump()` wins and every later call is a no-op.
#[test]
fn dump_is_one_shot() {
    let dir = std::env::temp_dir().join(format!("stool-oneshot-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tel = Telemetry::with_config(
        1,
        TelemetryConfig {
            dump_dir: Some(dir.clone()),
            ..TelemetryConfig::default()
        },
    );
    tel.emit_rank(0, EventKind::MsgMatch, 1, 0, 0, 0);
    assert!(tel.dump("first").is_some());
    assert!(tel.dump("second").is_none(), "the claim is one-shot");
    assert!(tel.dump_claimed());
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// However events are scattered across lanes and clocks, the merged
    /// timeline comes back sorted by virtual clock.
    #[test]
    fn merged_timeline_is_virtual_clock_sorted(
        emits in vec((0u32..6, 0u64..1_000_000), 1..200)
    ) {
        let tel = Telemetry::new(4);
        for (lane, vclock) in &emits {
            tel.emit(*lane, EventKind::MsgMatch, *vclock, 0, 0, 0);
        }
        let events = tel.events();
        prop_assert_eq!(events.len(), emits.len());
        prop_assert!(
            events.windows(2).all(|w| w[0].vclock_ns <= w[1].vclock_ns),
            "merged timeline must be virtual-clock sorted"
        );
    }
}

/// The session wires the recorder through every layer: a checkpointing
/// run surfaces transport metrics, match events, store commits and epoch
/// stats through one `Session::telemetry()` snapshot.
#[test]
fn session_snapshot_unifies_events_metrics_and_store_stats() {
    let dir = std::env::temp_dir().join(format!("stool-tel-chain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let session = Session::builder()
        .cluster(ClusterSpec::builder().nodes(2).ranks_per_node(2).build())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(4)
        .durability(stored(&dir))
        .build()
        .unwrap();
    let launched = std::time::Instant::now();
    let out = session
        .launch(&RingPings {
            rounds: 10,
            payload: 32,
        })
        .unwrap();
    let launch_us = launched.elapsed().as_micros() as u64;
    assert!(out.is_completed());

    let snap = session.telemetry().expect("snapshot after launch");
    assert_eq!(snap.incidents(), 0, "a clean run records no incidents");
    assert!(snap.dump.is_none(), "no dump without incidents");

    // Transport layer: every send and match was counted, and a send
    // either found nobody registered, notified, or skipped the notify.
    // (How the three split depends on the core count; the benchmark
    // reports that ratio, nothing asserts it.)
    let metrics = snap.metrics();
    assert!(metrics["fabric.sends"].scalar() > 0);
    assert!(metrics["match.hits"].scalar() > 0);
    assert!(snap.emitted(EventKind::MsgMatch) > 0);
    let [wakeups, skips, _parks, _yield_hits] = ["wakeups", "wake_skips", "parks", "yield_hits"]
        .map(|name| {
            metrics
                .get(&format!("fabric.{name}"))
                .unwrap_or_else(|| panic!("fabric.{name} missing from the snapshot"))
                .scalar()
        });
    assert!(wakeups + skips <= metrics["fabric.sends"].scalar());

    // Coordinator + store layers: one commit per completed round, and
    // the per-epoch stats ride in the same snapshot.
    let rounds = snap.emitted(EventKind::EpochCommit);
    assert!(rounds >= 2, "periodic checkpoints completed");
    assert_eq!(metrics["store.commits"].scalar(), rounds);
    // Every commit says where its wall went; the launch flushes the
    // writer, so all of that wall lies inside it.
    let stages = ["chunk", "encode", "write", "gc"].map(|stage| {
        match &metrics[&format!("store.commit.{stage}_us")] {
            MetricValue::Histogram { count, sum, .. } => {
                assert_eq!(*count, rounds, "one {stage} reading per commit");
                *sum
            }
            other => panic!("store.commit.{stage}_us is not a histogram: {other:?}"),
        }
    });
    assert!(
        stages.iter().sum::<u64>() <= launch_us,
        "stages {stages:?} exceed the launch's {launch_us} us"
    );
    assert_eq!(snap.epochs.len() as u64, rounds);
    assert_eq!(snap.tier, None, "no tier attached");
    assert_eq!(snap.replica, None, "no replica group attached");

    // The timeline is virtual-clock sorted and the checkpoint rounds
    // appear in epoch order.
    let events = snap.events();
    assert!(events.windows(2).all(|w| w[0].vclock_ns <= w[1].vclock_ns));
    let commits: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::EpochCommit)
        .map(|e| e.a)
        .collect();
    let sorted = {
        let mut v = commits.clone();
        v.sort_unstable();
        v
    };
    assert_eq!(commits, sorted, "epoch commits in epoch order");

    std::fs::remove_dir_all(&dir).ok();
}

/// With a tier attached, every shipped epoch records what it uploaded and
/// how long the upload took, once each.
#[test]
fn every_shipped_epoch_records_its_bytes_and_its_wall() {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("stool-tel-ship-{pid}"));
    let tier_dir = std::env::temp_dir().join(format!("stool-tel-ship-tier-{pid}"));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&tier_dir);
    let session = Session::builder()
        .cluster(ClusterSpec::builder().nodes(2).ranks_per_node(2).build())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(4)
        .durability(DurabilityPolicy {
            tier: Some(TierPolicy {
                dir: tier_dir.clone(),
                config: TierConfig::default(),
            }),
            ..stored(&dir)
        })
        .build()
        .unwrap();
    let out = session
        .launch(&RingPings {
            rounds: 10,
            payload: 32,
        })
        .unwrap();
    assert!(out.is_completed());

    let snap = session.telemetry().expect("snapshot after launch");
    let shipped = snap.tier.expect("a tier is attached").epochs_shipped;
    assert!(shipped >= 2, "periodic checkpoints shipped: {shipped}");
    let metrics = snap.metrics();
    for name in ["tier.ship_bytes", "tier.ship_us"] {
        match &metrics[name] {
            MetricValue::Histogram { count, .. } => assert_eq!(*count, shipped, "{name}"),
            other => panic!("{name} is not a histogram: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&tier_dir).ok();
}

/// `fabric.sends` and `match.hits` are counted per endpoint and folded
/// into the registry when the endpoint parks or drops. However the run
/// ends — to completion, at a checkpoint-stop, by a node kill — the
/// snapshot's totals equal the ranks' own counters: nothing is left
/// behind in an endpoint, nothing is folded twice.
#[test]
fn transport_counters_are_exact_however_the_run_ends() {
    let dir = std::env::temp_dir().join(format!("stool-tel-exact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    type Ending = fn(SessionBuilder) -> SessionBuilder;
    type EndedSo = fn(&RunOutcome) -> bool;
    let endings: [(&str, Ending, EndedSo); 3] = [
        ("completed", |b| b, RunOutcome::is_completed),
        (
            "checkpoint-stop",
            |b| b.checkpoint_at_step(6, CkptMode::Stop),
            |out| matches!(out, RunOutcome::Checkpointed { .. }),
        ),
        (
            "node kill",
            |b| b.checkpoint_every(3).inject_node_failure(7, 1),
            RunOutcome::is_failed,
        ),
    ];
    for (name, ending, ended_so) in endings {
        let builder = Session::builder()
            .cluster(ClusterSpec::builder().nodes(2).ranks_per_node(3).build())
            .vendor(Vendor::OpenMpi)
            .checkpointer(Checkpointer::mana())
            .durability(stored(dir.join(name)));
        let session = ending(builder).build().unwrap();
        let out = session
            .launch(&RingPings {
                rounds: 10,
                payload: 32,
            })
            .unwrap();
        assert!(ended_so(&out), "{name}");

        let snap = session.telemetry().expect("snapshot after launch");
        let metrics = snap.metrics();
        let sent: u64 = out.counters().iter().map(|c| c.msgs_sent).sum();
        let received: u64 = out.counters().iter().map(|c| c.msgs_received).sum();
        assert!(sent > 0 && received > 0, "{name}");
        assert_eq!(metrics["fabric.sends"].scalar(), sent, "{name}");
        assert_eq!(metrics["match.hits"].scalar(), received, "{name}");
        assert_eq!(snap.emitted(EventKind::MsgMatch), received, "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
