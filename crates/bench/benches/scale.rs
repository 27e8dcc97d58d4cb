//! ≥ 512-rank worlds — striped mailboxes, tree-barrier rendezvous, and
//! the vendor stacks at 64…1024 ranks.
//!
//! Emits `BENCH_scale.json` at the workspace root so CI records the scale
//! trajectory and `benchgate` can compare it against the committed
//! baselines:
//!
//! * `rendezvous_wallclock` — wall-clock of one full checkpoint
//!   rendezvous round (gather → counters → image → finish) over the
//!   **flat** and **tree** coordinator barriers, per world size. This is
//!   the tentpole curve: flat grows linearly with the world (one lock,
//!   N-thread thundering herd), the radix-32 tree stays near-logarithmic.
//! * `p2p_drain` / `allreduce` / `ckpt_rendezvous` — deterministic
//!   **virtual-time** makespans through the full Session stack under both
//!   vendors (these gate hard in benchgate; wall-clock only warns).
//! * `cluster` — the multi-tenant saturation battery: a fixed-config
//!   [`stool::cluster::Cluster`] of checkpointing tenants churning
//!   through ONE shared committer and ONE shared tier. Tenant count and
//!   total committed epochs gate exactly; the fairness spread
//!   ((max − min) / mean of the tenants' virtual makespans) gates at
//!   benchgate's tolerance; wall-clock only warns.
//!
//! `BENCH_SCALE_MAX` caps the largest world (default 1024) so constrained
//! environments can trim the sweep; benchgate then compares only the rows
//! present on both sides but requires ≥ 512 ranks in the fresh emit.
//! `BENCH_CLUSTER_TENANTS` (nightly stress knob) additionally runs a
//! bigger tenant sweep, printed and completion-asserted only — the gated
//! `cluster` JSON section always comes from the fixed config.

use std::ops::ControlFlow;
use std::time::Instant;

use dmtcp_sim::replica::Clock;
use dmtcp_sim::testing::lockstep;
use dmtcp_sim::{
    BarrierPhase, BarrierTopology, CkptMode, Coordinator, Poll, RankImage, ReplicaConfig,
    ReplicaFault, ReplicaGroup, TestClock,
};
use mpi_abi::{Handle, ReduceOp};
use simnet::{ClusterSpec, Fabric, Interconnect};
use std::sync::Arc;
use stool::cluster::Cluster;
use stool::programs::RingPings;
use stool::{
    AppCtx, Checkpointer, DurabilityPolicy, MpiProgram, Session, StoolResult, StorePolicy, Vendor,
};

/// World sizes for the sweep; ranks per node stays at 64 (16 nodes at the
/// top end), mirroring a fat modern CPU partition.
const SIZES: &[usize] = &[64, 128, 256, 512, 1024];
const RANKS_PER_NODE: usize = 64;

fn sizes() -> Vec<usize> {
    let max = std::env::var("BENCH_SCALE_MAX")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(1024);
    SIZES.iter().copied().filter(|&n| n <= max).collect()
}

fn cluster(nranks: usize) -> ClusterSpec {
    ClusterSpec::builder()
        .nodes(nranks.div_ceil(RANKS_PER_NODE))
        .ranks_per_node(RANKS_PER_NODE.min(nranks))
        .interconnect(Interconnect::HundredGbE)
        .build()
}

// ---------------------------------------------------------------------------
// Coordinator rendezvous: flat vs tree barrier, wall clock
// ---------------------------------------------------------------------------

/// Average wall-clock milliseconds of one checkpoint rendezvous round
/// (counter-exchange barrier → image staging → double finish barrier)
/// over `n` agent threads.
///
/// The cut is pinned with `schedule_checkpoint_at` (the policy-driven
/// path), so each rank polls exactly once per round and the measured
/// region is the *rendezvous* — barrier cascades and sharded staging —
/// not the gather's safe-point polling.
fn rendezvous_round_ms(n: usize, topology: BarrierTopology) -> f64 {
    /// One untimed warmup round (absorbs thread start-up and first-touch
    /// costs) followed by the timed rounds.
    const WARMUP: u64 = 1;
    const TIMED: u64 = 6;
    let coord = Coordinator::with_topology(n, topology);
    let warm = std::sync::Barrier::new(n + 1);
    let done = std::sync::Barrier::new(n + 1);
    let ms = std::thread::scope(|s| {
        for rank in 0..n {
            let coord = coord.clone();
            let warm = &warm;
            let done = &done;
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn_scoped(s, move || {
                    let mut agent = coord.agent(rank);
                    let zeros = vec![0u64; n];
                    for round in 0..WARMUP + TIMED {
                        if round == WARMUP {
                            warm.wait();
                        }
                        // Every rank announces the same pinned cut; the
                        // first caller opens the round, the rest merge.
                        coord.schedule_checkpoint_at(round, CkptMode::Continue);
                        match agent.poll(round).expect("poll") {
                            Poll::Enter(session) => {
                                session
                                    .exchange_counters(&zeros, &zeros)
                                    .expect("exchange_counters");
                                session.submit_image(RankImage::new(rank, n, session.epoch()));
                                session.finish().expect("finish");
                            }
                            _ => unreachable!("pinned cut must enter at its own step"),
                        }
                    }
                    done.wait();
                })
                .expect("spawn agent thread");
        }
        warm.wait();
        let start = Instant::now();
        done.wait();
        start.elapsed().as_secs_f64() * 1e3 / TIMED as f64
    });
    assert_eq!(coord.completed_rounds(), WARMUP + TIMED);
    // Keep wall-clock rows strictly positive for the gate's schema.
    ms.max(1e-6)
}

// ---------------------------------------------------------------------------
// Virtual-time programs through the full Session stack
// ---------------------------------------------------------------------------

/// Neighbor p2p drain: each rank pushes `rounds` messages at its right
/// neighbor, then drains the matching inbound traffic — the striped
/// mailbox + indexed-matcher path under load.
struct RingDrain {
    rounds: usize,
    count: usize,
}

impl MpiProgram for RingDrain {
    fn name(&self) -> &'static str {
        "scale-ring-drain"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let me = app.rank() as i32;
        let n = app.nranks() as i32;
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        let payload = vec![me as f64; self.count];
        let mut incoming = vec![0.0; self.count];
        let mut p = app.pmpi();
        for round in 0..self.rounds {
            p.send_f64s(&payload, next, round as i32, Handle::COMM_WORLD)?;
        }
        for round in 0..self.rounds {
            p.recv_f64s(&mut incoming, prev, round as i32, Handle::COMM_WORLD)?;
        }
        Ok(())
    }
}

/// A couple of allreduces: the collective tree at scale.
struct AllreduceSweep {
    repeats: usize,
}

impl MpiProgram for AllreduceSweep {
    fn name(&self) -> &'static str {
        "scale-allreduce"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let mine = app.rank() as f64;
        let n = app.nranks() as f64;
        let expect = n * (n - 1.0) / 2.0;
        for _ in 0..self.repeats {
            let total = app
                .pmpi()
                .allreduce_f64(mine, ReduceOp::Sum, Handle::COMM_WORLD)?;
            assert!((total - expect).abs() <= 1e-6 * expect.max(1.0));
        }
        Ok(())
    }
}

/// A short stepped loop with one policy-driven checkpoint in the middle:
/// the full-stack rendezvous (MANA drain + image encode + coordinator
/// barrier) in virtual time.
struct CkptOnce {
    steps: u64,
}

impl MpiProgram for CkptOnce {
    fn name(&self) -> &'static str {
        "scale-ckpt-once"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        app.mem.f64s_mut("state", 4);
        for step in app.resume_step()..self.steps {
            if app.checkpoint_point(step)?.is_stop() {
                return Ok(());
            }
            app.mem.f64s_mut("state", 4)[0] += step as f64;
        }
        Ok(())
    }
}

fn virt_makespan(nranks: usize, vendor: Vendor, program: &dyn MpiProgram, ckpt: bool) -> f64 {
    let mut builder = Session::builder().cluster(cluster(nranks)).vendor(vendor);
    if ckpt {
        builder = builder
            .checkpointer(Checkpointer::mana())
            .checkpoint_at_step(2, CkptMode::Continue);
    }
    let session = builder.build().expect("session");
    let out = session.launch(program).expect("launch");
    out.makespan().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Coordinator failover battery (deterministic)
// ---------------------------------------------------------------------------

/// Run the replicated-coordinator failover battery and return the total
/// leader takeovers recovered across it: one scenario per barrier phase
/// (arrive, pre-seal, post-seal, release), each a fresh 3-rank world with
/// a fresh 3-replica group whose leader is killed at that phase of the
/// middle round. The ranks advance through the lockstep loop, rank 0
/// pressing at steps 5, 15 and 25 of 40, so every press opens its own
/// round whatever the OS schedule. Every scenario must complete all three
/// rounds with exactly one election-timeout takeover, so the metric is
/// exactly 4 — fully deterministic, gated as such.
fn failover_recovery_rounds() -> u64 {
    const PHASES: [BarrierPhase; 4] = [
        BarrierPhase::Arrive,
        BarrierPhase::PreSeal,
        BarrierPhase::PostSeal,
        BarrierPhase::Release,
    ];
    let n = 3;
    let mut recoveries = 0;
    for phase in PHASES {
        let coord = Coordinator::new(n);
        let clock: Arc<dyn Clock> = Arc::new(TestClock::new());
        let group = Arc::new(ReplicaGroup::in_memory(ReplicaConfig::default(), clock));
        group.script_faults([ReplicaFault::KillLeaderAt(phase)]);
        coord.attach_replicas(group.clone());
        let press = |step| {
            if [5, 15, 25].contains(&step) {
                coord.request_checkpoint(CkptMode::Continue);
            }
        };
        let zeros = vec![0u64; n];
        lockstep(&coord, n, 40, press, |rank, session| {
            session
                .exchange_counters(&zeros, &zeros)
                .expect("exchange_counters");
            session.submit_image(RankImage::new(rank, n, session.epoch()));
            session.finish().expect("failover must not poison finish");
            ControlFlow::Continue(())
        });
        assert_eq!(coord.completed_rounds(), 3, "{phase:?}");
        let stats = group.stats();
        assert_eq!(stats.commits, 3, "{phase:?}");
        recoveries += stats.recoveries;
    }
    recoveries
}

// ---------------------------------------------------------------------------
// Multi-tenant cluster saturation (deterministic fairness, wall warns)
// ---------------------------------------------------------------------------

/// Tenants in the *gated* saturation run. Fixed: the emitted `cluster`
/// section must be a pure function of this config so benchgate can gate
/// it, whatever knobs a nightly sweep adds on top.
const CLUSTER_TENANTS: usize = 4;

struct ClusterNumbers {
    tenants: usize,
    epochs_total: u64,
    fairness_spread: f64,
    wall_ms: f64,
}

/// Run `tenants` checkpointing worlds concurrently through ONE shared
/// committer and ONE shared tier, alternating vendors, and distill the
/// run into the gated numbers:
///
/// * `epochs_total` — committed epochs summed over every tenant lane.
///   The per-tenant policy is fixed, so this is exact-deterministic.
/// * `fairness_spread` — `(max − min) / mean` of the tenants' virtual
///   makespans. Virtual time is per-world and independent of pool
///   scheduling, so the spread is a deterministic function of the
///   vendor mix: it widening means a shared component started taxing
///   some tenants more than others.
/// * `wall_ms` — wall-clock of the whole cluster run (machine-bound).
fn cluster_saturation(tenants: usize) -> ClusterNumbers {
    let root = std::env::temp_dir().join(format!(
        "stool-bench-cluster-{}-{tenants}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let mut builder = Cluster::builder().worker_threads(4).tier(root.join("tier"));
    for i in 0..tenants {
        let vendor = if i.is_multiple_of(2) {
            Vendor::Mpich
        } else {
            Vendor::OpenMpi
        };
        let session = Session::builder()
            .cluster(ClusterSpec::builder().nodes(1).ranks_per_node(2).build())
            .vendor(vendor)
            .checkpointer(Checkpointer::mana())
            .checkpoint_every(2)
            .durability(DurabilityPolicy {
                store: Some(StorePolicy::new(root.join(format!("chain_{i}")))),
                ..DurabilityPolicy::default()
            })
            .build()
            .expect("tenant session");
        builder = builder.tenant(format!("t{i}"), session);
    }
    let cluster = builder.build().expect("cluster");
    let program = RingPings {
        rounds: 6,
        payload: 64,
    };
    let ids: Vec<String> = (0..tenants).map(|i| format!("t{i}")).collect();
    let programs: Vec<(&str, &dyn MpiProgram)> = ids
        .iter()
        .map(|id| (id.as_str(), &program as &dyn MpiProgram))
        .collect();
    let start = Instant::now();
    let report = cluster.run(&programs).expect("cluster run");
    let wall_ms = (start.elapsed().as_secs_f64() * 1e3).max(1e-6);
    assert!(
        report.all_completed(),
        "every saturation tenant must complete"
    );
    let epochs_total = report.tenants.values().map(|t| t.epochs.len() as u64).sum();
    let makespans: Vec<f64> = report
        .tenants
        .values()
        .map(|t| match &t.outcome {
            Ok(o) => o.makespan().as_secs_f64(),
            Err(e) => unreachable!("completed tenant with error: {e}"),
        })
        .collect();
    let max = makespans.iter().fold(f64::MIN, |a, &b| a.max(b));
    let min = makespans.iter().fold(f64::MAX, |a, &b| a.min(b));
    let mean = makespans.iter().sum::<f64>() / makespans.len() as f64;
    let _ = std::fs::remove_dir_all(&root);
    ClusterNumbers {
        tenants,
        epochs_total,
        fairness_spread: (max - min) / mean,
        wall_ms,
    }
}

// ---------------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------------

struct Measurements {
    rendezvous: Vec<(usize, f64, f64)>,
    p2p: Vec<(usize, &'static str, f64)>,
    allreduce: Vec<(usize, &'static str, f64)>,
    ckpt: Vec<(usize, &'static str, f64)>,
    failover_recovery_rounds: u64,
    cluster: ClusterNumbers,
}

fn vendor_rows(json: &mut String, key: &str, rows: &[(usize, &'static str, f64)]) {
    json.push_str(&format!("  \"{key}\": [\n"));
    for (i, (ranks, vendor, s)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"ranks\": {ranks}, \"vendor\": \"{vendor}\", \"virt_makespan_s\": {s:.9}}}{}\n",
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]");
}

fn emit_json(m: &Measurements, stripes: usize) {
    let mut json = String::from("{\n  \"bench\": \"scale\",\n");
    json.push_str(&format!("  \"stripes\": {stripes},\n"));
    json.push_str(&format!(
        "  \"failover_recovery_rounds\": {},\n",
        m.failover_recovery_rounds
    ));
    json.push_str("  \"rendezvous_wallclock\": [\n");
    for (i, (ranks, flat, tree)) in m.rendezvous.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"ranks\": {ranks}, \"flat_ms\": {flat:.6}, \"tree_ms\": {tree:.6}}}{}\n",
            if i + 1 == m.rendezvous.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    vendor_rows(&mut json, "p2p_drain", &m.p2p);
    json.push_str(",\n");
    vendor_rows(&mut json, "allreduce", &m.allreduce);
    json.push_str(",\n");
    vendor_rows(&mut json, "ckpt_rendezvous", &m.ckpt);
    json.push_str(",\n");
    json.push_str(&format!(
        "  \"cluster\": {{\"tenants\": {}, \"epochs_total\": {}, \
         \"fairness_spread\": {:.9}, \"wall_ms\": {:.6}}}\n",
        m.cluster.tenants, m.cluster.epochs_total, m.cluster.fairness_spread, m.cluster.wall_ms
    ));
    json.push_str("}\n");
    // Land at the workspace root regardless of the bench CWD, so CI picks
    // one stable path up.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scale.json");
    std::fs::write(path, json).expect("write BENCH_scale.json");
}

fn measure_all() -> Measurements {
    let sizes = sizes();
    let mut m = Measurements {
        rendezvous: Vec::new(),
        p2p: Vec::new(),
        allreduce: Vec::new(),
        ckpt: Vec::new(),
        failover_recovery_rounds: 0,
        cluster: cluster_saturation(CLUSTER_TENANTS),
    };
    m.failover_recovery_rounds = failover_recovery_rounds();
    println!(
        "scale/failover battery: {} takeovers recovered",
        m.failover_recovery_rounds
    );
    println!(
        "scale/cluster: {} tenants, {} epochs, fairness spread {:.6}, {:.1} ms wall",
        m.cluster.tenants, m.cluster.epochs_total, m.cluster.fairness_spread, m.cluster.wall_ms
    );
    // Nightly stress knob: a bigger tenant sweep, printed and
    // completion-asserted only — never fed into the gated JSON above.
    if let Some(n) = std::env::var("BENCH_CLUSTER_TENANTS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        if n > CLUSTER_TENANTS {
            let big = cluster_saturation(n);
            println!(
                "scale/cluster nightly sweep: {} tenants, {} epochs, fairness spread {:.6}, \
                 {:.1} ms wall (not gated)",
                big.tenants, big.epochs_total, big.fairness_spread, big.wall_ms
            );
        }
    }
    let p2p = RingDrain {
        rounds: 4,
        count: 16,
    };
    let allreduce = AllreduceSweep { repeats: 2 };
    let ckpt = CkptOnce { steps: 4 };
    for &n in &sizes {
        let flat = rendezvous_round_ms(n, BarrierTopology::Flat);
        let tree = rendezvous_round_ms(
            n,
            BarrierTopology::Tree {
                radix: BarrierTopology::DEFAULT_RADIX,
            },
        );
        println!("scale/rendezvous {n} ranks: flat {flat:.3} ms, tree {tree:.3} ms");
        m.rendezvous.push((n, flat, tree));
        for vendor in [Vendor::Mpich, Vendor::OpenMpi] {
            let label = vendor.name();
            let p = virt_makespan(n, vendor, &p2p, false);
            let a = virt_makespan(n, vendor, &allreduce, false);
            let c = virt_makespan(n, vendor, &ckpt, true);
            println!(
                "scale/{label} {n} ranks: p2p {p:.6} s, allreduce {a:.6} s, ckpt {c:.6} s (virtual)"
            );
            m.p2p.push((n, label, p));
            m.allreduce.push((n, label, a));
            m.ckpt.push((n, label, c));
        }
    }
    m
}

fn main() {
    let m = measure_all();
    let (fabric, _eps) = Fabric::new(&cluster(64));
    emit_json(&m, fabric.stripes());
}
