//! The flight recorder — what always-on telemetry costs.
//!
//! Two angles. The **deterministic** one: a fixed checkpointing workload
//! is replayed and the control-plane events the run emits per committed
//! epoch are counted from the recorder's per-kind counters; instrumented
//! code paths are deterministic under virtual time, so this gates hard —
//! a drop means instrumentation was lost, a rise means the control plane
//! got chatty. The **wall-clock** one: the hot ring is hammered from
//! several threads to measure nanoseconds per `emit` (machine-dependent,
//! warns only).
//!
//! Emits `BENCH_telemetry.json` at the workspace root for the benchgate
//! flow.

use std::time::Instant;

use simnet::ClusterSpec;
use stool::programs::RingPings;
use stool::{Checkpointer, DurabilityPolicy, EventKind, Session, StorePolicy, Telemetry, Vendor};

/// The kinds the coordinator/store control plane emits on a clean
/// (no-replica, no-tier) checkpointing run. Per-round counts are a pure
/// function of the virtual-time schedule.
const CONTROL_PLANE: &[EventKind] = &[
    EventKind::CkptScheduled,
    EventKind::RendezvousEnter,
    EventKind::BarrierPhase,
    EventKind::EpochCommit,
    EventKind::StoreCommit,
    EventKind::GcDecision,
];

/// Run the fixed workload and count control-plane events per committed
/// epoch. Returns `(events_per_round, rounds)`.
fn measure_session() -> (f64, u64) {
    let dir = std::env::temp_dir().join(format!("stool_bench_telemetry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::builder()
        .cluster(ClusterSpec::builder().nodes(2).ranks_per_node(3).build())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(6)
        .durability(DurabilityPolicy {
            store: Some(StorePolicy::new(&dir)),
            ..DurabilityPolicy::default()
        })
        .build()
        .expect("session");
    let out = session
        .launch(&RingPings {
            rounds: 48,
            payload: 64,
        })
        .expect("launch");
    assert!(out.is_completed(), "bench workload must complete");
    let snap = session.telemetry().expect("telemetry snapshot");
    assert_eq!(snap.incidents(), 0, "bench workload must run clean");
    let rounds = snap.emitted(EventKind::EpochCommit);
    assert!(rounds > 0, "bench workload must commit epochs");
    let events: u64 = CONTROL_PLANE.iter().map(|&k| snap.emitted(k)).sum();
    std::fs::remove_dir_all(&dir).ok();
    (events as f64 / rounds as f64, rounds)
}

/// Hammer the hot ring from four threads and time the emits. Returns
/// `(emit_wall_ns, events_per_sec_wall)`.
fn measure_emit_wall() -> (f64, f64) {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 200_000;
    let tel = std::sync::Arc::new(Telemetry::new(THREADS));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let tel = tel.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    tel.emit_rank(t, EventKind::MsgMatch, i, t as u64, i, 0);
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let events = (THREADS as u64 * PER_THREAD) as f64;
    assert_eq!(tel.emitted(EventKind::MsgMatch) as f64, events);
    (
        elapsed.as_nanos() as f64 / events,
        events / elapsed.as_secs_f64(),
    )
}

fn emit_json(events_per_round: f64, rounds: u64, emit_wall_ns: f64, events_per_sec_wall: f64) {
    let json = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"events_per_round\": {events_per_round:.6},\n  \
         \"rounds\": {rounds},\n  \"emit_wall_ns\": {emit_wall_ns:.3},\n  \
         \"events_per_sec_wall\": {events_per_sec_wall:.1}\n}}\n"
    );
    // Land at the workspace root regardless of the bench CWD, so CI picks
    // one stable path up.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_telemetry.json");
    std::fs::write(path, json).expect("write BENCH_telemetry.json");
}

fn main() {
    let (events_per_round, rounds) = measure_session();
    let (emit_wall_ns, events_per_sec_wall) = measure_emit_wall();
    println!(
        "telemetry: {events_per_round:.2} control-plane events/round over {rounds} rounds, \
         hot emit {emit_wall_ns:.1} ns ({events_per_sec_wall:.0} events/s, 4 threads)"
    );
    emit_json(events_per_round, rounds, emit_wall_ns, events_per_sec_wall);
}
