//! The delta-checkpoint store — full-base vs delta bytes written, the
//! bytes-hashed savings of dirty-segment tracking, the on-disk savings of
//! per-block compression, and the sync vs async checkpoint latency the
//! store buys on the wave/CoMD workloads.
//!
//! Emits `BENCH_ckpt.json` at the workspace root for `benchgate`, so CI
//! records the perf trajectory: per-workload full vs delta bytes, bytes hashed
//! per delta epoch with and without dirty tracking, on-disk delta bytes
//! with and without compression, the wall-clock commit makespan, and the
//! virtual-time makespan with synchronous image writes vs the async
//! store.

use dmtcp_sim::store::{Compression, DeltaStore, StoreConfig};
use dmtcp_sim::tier::{FsTier, ObjectTier};
use dmtcp_sim::WorldImage;
use mpi_apps::{CoMdMini, WaveMpi};
use simnet::ClusterSpec;
use stool::{
    Checkpointer, DurabilityPolicy, ManaConfig, MpiProgram, Session, StoreError, StorePolicy,
    TierConfig, TierPolicy, Vendor,
};

fn bench_cluster() -> ClusterSpec {
    ClusterSpec::builder().nodes(2).ranks_per_node(3).build()
}

/// The store with this PR's cost reducers on (the defaults).
fn store_cfg() -> StoreConfig {
    StoreConfig {
        block_size: 1024,
        retain_epochs: 32,
        max_chain: 16,
        ..StoreConfig::default()
    }
}

/// The PR 2 path: every byte hashed every epoch, raw blocks on disk.
fn legacy_cfg() -> StoreConfig {
    StoreConfig {
        compression: Compression::None,
        dirty_tracking: false,
        ..store_cfg()
    }
}

/// MANA with a realistic static upper half: program text + rodata that
/// every rank image carries but no epoch ever changes (64 KiB models a
/// small binary; real MANA images are dominated by this part).
fn bench_mana() -> Checkpointer {
    Checkpointer::Mana(ManaConfig {
        static_image_bytes: 64 << 10,
        ..ManaConfig::default()
    })
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stool_bench_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct WorkloadRow {
    name: &'static str,
    epochs: usize,
    full_bytes: u64,
    delta_bytes_avg: u64,
    delta_raw_bytes_avg: u64,
    hashed_dirty_avg: u64,
    hashed_full_avg: u64,
    image_bytes: u64,
    /// Average bytes shipped to the remote tier per sealed epoch
    /// (blocks + manifest + seal; only content-new blocks ship, so
    /// `image_bytes / tier_shipped_bytes_avg` is the dedup-at-tier
    /// ratio the gate tracks).
    tier_shipped_bytes_avg: u64,
    commit_wall_ms: f64,
    sync_makespan_s: f64,
    async_makespan_s: f64,
}

/// Average a per-delta-epoch metric.
fn delta_avg(stats: &[dmtcp_sim::EpochStats], f: impl Fn(&dmtcp_sim::EpochStats) -> u64) -> u64 {
    let deltas: Vec<u64> = stats.iter().filter(|s| !s.full).map(&f).collect();
    if deltas.is_empty() {
        0
    } else {
        deltas.iter().sum::<u64>() / deltas.len() as u64
    }
}

/// Run one workload with periodic checkpoints three ways — sync (no
/// store), the current store (dirty tracking + compression), and the
/// PR 2 full-hash/raw-block store — and measure what each epoch cost.
fn measure_workload(
    name: &'static str,
    program: &dyn MpiProgram,
    every: u64,
) -> Result<WorkloadRow, StoreError> {
    let run = |store: Option<(&std::path::Path, StoreConfig, Option<&std::path::Path>)>| {
        let mut builder = Session::builder()
            .cluster(bench_cluster())
            .vendor(Vendor::Mpich)
            .checkpointer(bench_mana())
            .checkpoint_every(every);
        if let Some((dir, config, tier)) = store {
            builder = builder.durability(DurabilityPolicy {
                store: Some(StorePolicy {
                    config,
                    ..StorePolicy::new(dir)
                }),
                tier: tier.map(|dir| TierPolicy {
                    dir: dir.to_path_buf(),
                    config: TierConfig::default(),
                }),
                replicas: None,
            });
        }
        let session = builder.build().expect("session");
        session.launch(program).expect("launch")
    };

    let sync_out = run(None);
    let dir = tmp_dir(name);
    // The modern run ships every sealed epoch to a remote second tier.
    let tier_dir = tmp_dir(&format!("{name}_tier"));
    let async_out = run(Some((&dir, store_cfg(), Some(&tier_dir))));
    let dir_legacy = tmp_dir(&format!("{name}_legacy"));
    run(Some((&dir_legacy, legacy_cfg(), None)));

    // Dedup at the tier: each sealed epoch uploaded only its new blocks
    // plus manifest and seal. Sum what actually landed remotely.
    let tier = FsTier::open(&tier_dir)?;
    let mut tier_bytes = 0u64;
    let mut seals = 0u64;
    for key in tier.list("")? {
        tier_bytes += tier.get(&key)?.len() as u64;
        if key.ends_with("/seal") {
            seals += 1;
        }
    }
    let tier_shipped_bytes_avg = tier_bytes / seals.max(1);

    let store = DeltaStore::open_with(&dir, store_cfg())?;
    let stats = store.epoch_stats_on_disk()?;
    let legacy = DeltaStore::open_with(&dir_legacy, legacy_cfg())?;
    let legacy_stats = legacy.epoch_stats_on_disk()?;

    // Wall-clock commit makespan: replay the chain's epochs through a
    // fresh store (chunk + hash + compress + write, the background
    // writer's whole pipeline).
    let epochs: Vec<WorldImage> = store
        .epochs()
        .iter()
        .map(|&e| store.load_epoch(e))
        .collect::<Result<_, _>>()?;
    let replay_dir = tmp_dir(&format!("{name}_replay"));
    let mut replay = DeltaStore::open_with(&replay_dir, store_cfg())?;
    let t0 = std::time::Instant::now();
    for img in &epochs {
        replay.commit(img)?;
    }
    let commit_wall_ms = t0.elapsed().as_secs_f64() * 1e3 / epochs.len().max(1) as f64;

    let row = WorkloadRow {
        name,
        epochs: stats.len(),
        full_bytes: stats
            .iter()
            .find(|s| s.full)
            .map(|s| s.bytes_written)
            .unwrap_or(0),
        delta_bytes_avg: delta_avg(&stats, |s| s.bytes_written),
        delta_raw_bytes_avg: delta_avg(&legacy_stats, |s| s.bytes_written),
        hashed_dirty_avg: delta_avg(&stats, |s| s.bytes_hashed),
        hashed_full_avg: delta_avg(&legacy_stats, |s| s.bytes_hashed),
        image_bytes: stats.last().map(|s| s.image_bytes).unwrap_or(0),
        tier_shipped_bytes_avg,
        commit_wall_ms,
        sync_makespan_s: sync_out.makespan().as_secs_f64(),
        async_makespan_s: async_out.makespan().as_secs_f64(),
    };
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir_legacy).ok();
    std::fs::remove_dir_all(&replay_dir).ok();
    std::fs::remove_dir_all(&tier_dir).ok();
    Ok(row)
}

fn emit_json(rows: &[WorkloadRow]) {
    let mut json = String::from("{\n  \"bench\": \"ckpt_store\",\n  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"epochs\": {}, \"full_base_bytes\": {}, \
             \"delta_bytes_avg\": {}, \"delta_raw_bytes_avg\": {}, \
             \"hashed_dirty_avg\": {}, \"hashed_full_avg\": {}, \
             \"image_bytes\": {}, \"tier_shipped_bytes_avg\": {}, \
             \"commit_wall_ms\": {:.6}, \
             \"sync_makespan_s\": {:.9}, \"async_makespan_s\": {:.9}}}{}\n",
            r.name,
            r.epochs,
            r.full_bytes,
            r.delta_bytes_avg,
            r.delta_raw_bytes_avg,
            r.hashed_dirty_avg,
            r.hashed_full_avg,
            r.image_bytes,
            r.tier_shipped_bytes_avg,
            r.commit_wall_ms,
            r.sync_makespan_s,
            r.async_makespan_s,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    // Land at the workspace root regardless of the bench CWD, so CI picks
    // one stable path up.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_ckpt.json");
    std::fs::write(path, json).expect("write BENCH_ckpt.json");
}

fn main() {
    // The measured rows (also what BENCH_ckpt.json records).
    let wave = WaveMpi {
        npoints: 20_000,
        nsteps: 40,
        gather_final: false,
        ..WaveMpi::default()
    };
    let comd = CoMdMini {
        nsteps: 24,
        ..CoMdMini::default()
    };
    let rows = vec![
        measure_workload("wave_mpi", &wave, 8).expect("wave row"),
        measure_workload("CoMD", &comd, 6).expect("comd row"),
    ];
    for r in &rows {
        println!(
            "store/{}: {} epochs, full base {} B, avg delta {} B (raw {} B, \
             {:.2}x compression), hashed/delta {} B dirty vs {} B full \
             ({:.2}x less hashing), image {} B, tier ship {} B/epoch \
             ({:.2}x dedup at tier), \
             commit {:.3} ms, makespan sync {:.6} s vs async {:.6} s",
            r.name,
            r.epochs,
            r.full_bytes,
            r.delta_bytes_avg,
            r.delta_raw_bytes_avg,
            r.delta_raw_bytes_avg as f64 / r.delta_bytes_avg.max(1) as f64,
            r.hashed_dirty_avg,
            r.hashed_full_avg,
            r.hashed_full_avg as f64 / r.hashed_dirty_avg.max(1) as f64,
            r.image_bytes,
            r.tier_shipped_bytes_avg,
            r.image_bytes as f64 / r.tier_shipped_bytes_avg.max(1) as f64,
            r.commit_wall_ms,
            r.sync_makespan_s,
            r.async_makespan_s,
        );
    }
    emit_json(&rows);
}
