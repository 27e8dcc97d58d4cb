//! The headline capability (paper §5.3, Fig. 6): checkpoint under one MPI
//! implementation, restart under another, with no change to the answer.

use mpi_stool::abi::Handle;
use mpi_stool::apps::{CoMdMini, OsuKernel, OsuLatency, WaveMpi};
use mpi_stool::dmtcp::testing::Fault;
use mpi_stool::dmtcp::{CkptMode, DeltaStore, StoreConfig, TierConfig, WorldImage};
use mpi_stool::simnet::{ClusterSpec, Interconnect, KernelVersion, VirtualTime};
use mpi_stool::stool::programs::RingPings;
use mpi_stool::stool::{
    AppCtx, Checkpoint, Checkpointer, DurabilityPolicy, FaultSchedule, Memory, MetricValue,
    MpiProgram, RunOutcome, Session, StoolResult, StorePolicy, TierPolicy, Vendor,
};
use std::path::Path;

/// A delta store at `dir` with `config`, optionally shipped to a remote
/// tier, and nothing else.
fn stored(dir: &Path, config: StoreConfig, tier: Option<&Path>) -> DurabilityPolicy {
    DurabilityPolicy {
        store: Some(StorePolicy {
            config,
            ..StorePolicy::new(dir)
        }),
        tier: tier.map(|dir| TierPolicy {
            dir: dir.to_path_buf(),
            config: TierConfig::default(),
        }),
        replicas: None,
    }
}

fn cluster() -> ClusterSpec {
    ClusterSpec::builder().nodes(2).ranks_per_node(3).build()
}

fn reference_memories(program: &dyn MpiProgram, vendor: Vendor) -> Vec<mpi_stool::stool::Memory> {
    Session::builder()
        .cluster(cluster())
        .vendor(vendor)
        .checkpointer(Checkpointer::mana())
        .build()
        .unwrap()
        .launch(program)
        .unwrap()
        .memories()
        .unwrap()
        .to_vec()
}

/// Like the plain helpers but with the shim's canonical rank-ordered
/// reductions enabled in every session.
mod det {
    use super::*;

    pub fn reference(program: &dyn MpiProgram, vendor: Vendor) -> Vec<mpi_stool::stool::Memory> {
        Session::builder()
            .cluster(cluster())
            .vendor(vendor)
            .checkpointer(Checkpointer::mana())
            .deterministic_reductions()
            .build()
            .unwrap()
            .launch(program)
            .unwrap()
            .memories()
            .unwrap()
            .to_vec()
    }

    pub fn checkpoint_at(program: &dyn MpiProgram, vendor: Vendor, step: u64) -> WorldImage {
        Session::builder()
            .cluster(cluster())
            .vendor(vendor)
            .checkpointer(Checkpointer::mana())
            .deterministic_reductions()
            .checkpoint_at_step(step, CkptMode::Stop)
            .build()
            .unwrap()
            .launch(program)
            .unwrap()
            .into_image()
            .unwrap()
    }

    pub fn restore_under(
        program: &dyn MpiProgram,
        image: &WorldImage,
        vendor: Vendor,
    ) -> Vec<mpi_stool::stool::Memory> {
        Session::builder()
            .cluster(cluster())
            .vendor(vendor)
            .checkpointer(Checkpointer::mana())
            .deterministic_reductions()
            .build()
            .unwrap()
            .restore(image, program)
            .unwrap()
            .memories()
            .unwrap()
            .to_vec()
    }
}

fn checkpoint_at(program: &dyn MpiProgram, vendor: Vendor, step: u64) -> WorldImage {
    Session::builder()
        .cluster(cluster())
        .vendor(vendor)
        .checkpointer(Checkpointer::mana())
        .checkpoint_at_step(step, CkptMode::Stop)
        .build()
        .unwrap()
        .launch(program)
        .unwrap()
        .into_image()
        .unwrap()
}

fn restore_under(
    program: &dyn MpiProgram,
    image: &WorldImage,
    vendor: Vendor,
) -> Vec<mpi_stool::stool::Memory> {
    Session::builder()
        .cluster(cluster())
        .vendor(vendor)
        .checkpointer(Checkpointer::mana())
        .build()
        .unwrap()
        .restore(image, program)
        .unwrap()
        .memories()
        .unwrap()
        .to_vec()
}

/// Bitwise memory comparison, with named exceptions compared to within a
/// few ULPs instead. The exceptions are floating-point *reduction results*:
/// real MPI implementations (and our vendor simulations, faithfully) use
/// different association orders in `MPI_Allreduce`, so a value computed
/// under MPICH may differ in its last bits from the same value computed
/// under Open MPI. Everything else — all point-to-point-driven state — must
/// match exactly.
fn assert_memories_equal_with_ulps(
    a: &[mpi_stool::stool::Memory],
    b: &[mpi_stool::stool::Memory],
    ulp_segments: &[&str],
    max_ulps: u64,
) {
    assert_eq!(a.len(), b.len());
    for (rank, (ma, mb)) in a.iter().zip(b).enumerate() {
        let mut names_a: Vec<&str> = ma.names().collect();
        let mut names_b: Vec<&str> = mb.names().collect();
        names_a.sort_unstable();
        names_b.sort_unstable();
        assert_eq!(names_a, names_b, "rank {rank}: memory layout differs");
        for name in names_a {
            let loose = ulp_segments.contains(&name);
            let (wa, wb) = (ma.f64s(name), mb.f64s(name));
            match (wa, wb) {
                (Some(xa), Some(xb)) => {
                    assert_eq!(xa.len(), xb.len(), "rank {rank} segment {name}");
                    for (i, (x, y)) in xa.iter().zip(xb).enumerate() {
                        if loose {
                            let (bx, by) = (x.to_bits() as i64, y.to_bits() as i64);
                            assert!(
                                bx.abs_diff(by) <= max_ulps,
                                "rank {rank} segment {name}[{i}]: {x} vs {y}                                  differ by more than {max_ulps} ULPs"
                            );
                        } else {
                            assert_eq!(x.to_bits(), y.to_bits(), "rank {rank} segment {name}[{i}]");
                        }
                    }
                }
                _ => {
                    assert_eq!(ma.bytes(name), mb.bytes(name), "rank {rank} segment {name}");
                    assert_eq!(ma.u64s(name), mb.u64s(name), "rank {rank} segment {name}");
                    assert_eq!(ma.i64s(name), mb.i64s(name), "rank {rank} segment {name}");
                }
            }
        }
    }
}

fn assert_memories_equal(a: &[mpi_stool::stool::Memory], b: &[mpi_stool::stool::Memory]) {
    assert_memories_equal_with_ulps(a, b, &[], 0);
}

#[test]
fn ring_openmpi_to_mpich() {
    let program = RingPings {
        rounds: 10,
        payload: 8,
    };
    let expect = reference_memories(&program, Vendor::OpenMpi);
    let image = checkpoint_at(&program, Vendor::OpenMpi, 5);
    let got = restore_under(&program, &image, Vendor::Mpich);
    assert_memories_equal(&expect, &got);
}

#[test]
fn ring_mpich_to_openmpi() {
    // The paper demonstrates both directions ("and vice versa").
    let program = RingPings {
        rounds: 10,
        payload: 8,
    };
    let expect = reference_memories(&program, Vendor::Mpich);
    let image = checkpoint_at(&program, Vendor::Mpich, 5);
    let got = restore_under(&program, &image, Vendor::OpenMpi);
    assert_memories_equal(&expect, &got);
}

#[test]
fn wave_cross_vendor_bitwise_identical() {
    let solver = WaveMpi {
        npoints: 200,
        nsteps: 100,
        gather_final: true,
        ..WaveMpi::default()
    };
    let expect = reference_memories(&solver, Vendor::OpenMpi);
    let image = checkpoint_at(&solver, Vendor::OpenMpi, 50);
    let got = restore_under(&solver, &image, Vendor::Mpich);
    assert_memories_equal(&expect, &got);
}

#[test]
fn comd_cross_vendor_bitwise_with_deterministic_reductions() {
    // With the shim folding reductions in canonical rank order, even the
    // f64 energy diagnostics become a pure function of the inputs: the
    // whole memory image is bitwise identical across the vendor switch —
    // no ULP tolerance needed anywhere.
    let md = CoMdMini {
        nsteps: 24,
        ..CoMdMini::default()
    };
    let expect = det::reference(&md, Vendor::Mpich);
    let image = det::checkpoint_at(&md, Vendor::Mpich, 12);
    let got = det::restore_under(&md, &image, Vendor::OpenMpi);
    assert_memories_equal(&expect, &got);
}

#[test]
fn deterministic_reductions_match_vendor_answers_on_integers() {
    // On exactly-representable data the canonical fold must agree with
    // the vendor algorithms (it only changes association, not values).
    let program = RingPings {
        rounds: 6,
        payload: 4,
    };
    let plain = reference_memories(&program, Vendor::OpenMpi);
    let det = det::reference(&program, Vendor::OpenMpi);
    assert_memories_equal(&plain, &det);
}

#[test]
fn deterministic_reductions_require_the_shim() {
    let err = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .native_abi()
        .deterministic_reductions()
        .build()
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "session configuration error: deterministic reductions are a feature of the \
         Mukautuva shim; they are unavailable with native_abi()"
    );
}

#[test]
fn comd_cross_vendor_trajectory_identical() {
    let md = CoMdMini {
        nsteps: 24,
        ..CoMdMini::default()
    };
    let expect = reference_memories(&md, Vendor::Mpich);
    let image = checkpoint_at(&md, Vendor::Mpich, 12);
    let got = restore_under(&md, &image, Vendor::OpenMpi);
    // Positions and velocities evolve through deterministic point-to-point
    // halo exchange: bitwise identical across the vendor switch. The
    // energy *diagnostics* are f64 allreduce results; entries recorded
    // after the restore were reduced under Open MPI's association order
    // and may differ in the last bits — exactly as with the real
    // libraries.
    assert_memories_equal_with_ulps(&expect, &got, &["comd.energy", "comd.ke", "comd.pe"], 4);
}

#[test]
fn osu_checkpoint_in_sleep_window_like_fig6() {
    // The paper's §5.3 protocol: the modified alltoall sleeps after warmup;
    // the checkpoint lands in that window (step 1 = first measured size,
    // requested at the safe point right after the window).
    let bench = OsuLatency {
        kernel: OsuKernel::Alltoall,
        min_size: 1,
        max_size: 512,
        warmup: 2,
        iters: 4,
        ckpt_window: Some(VirtualTime::from_secs(10)),
    };
    let expect = reference_memories(&bench, Vendor::OpenMpi);
    let image = checkpoint_at(&bench, Vendor::OpenMpi, 1);
    let got = restore_under(&bench, &image, Vendor::Mpich);
    // Latencies differ between vendors (that is Fig. 6's point: the curve
    // after restart follows MPICH); only the *shape* of memory matches.
    assert_eq!(expect.len(), got.len());
    let lat = got[0].f64s("osu.lat_us").expect("latencies");
    assert_eq!(lat.len(), bench.sizes().len());
    assert!(lat.iter().all(|&l| l > 0.0));
}

#[test]
fn restart_on_a_different_cluster() {
    // Migration across heterogeneous clusters (paper §1): restore onto a
    // cluster with a different interconnect and newer kernel.
    let program = RingPings {
        rounds: 8,
        payload: 16,
    };
    let expect = reference_memories(&program, Vendor::OpenMpi);
    let image = checkpoint_at(&program, Vendor::OpenMpi, 4);

    let new_cluster = ClusterSpec::builder()
        .nodes(3)
        .ranks_per_node(2) // same world size, different layout
        .interconnect(Interconnect::Infiniband)
        .kernel(KernelVersion::MODERN)
        .build();
    let got = Session::builder()
        .cluster(new_cluster)
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .build()
        .unwrap()
        .restore(&image, &program)
        .unwrap()
        .memories()
        .unwrap()
        .to_vec();
    assert_memories_equal(&expect, &got);
}

#[test]
fn image_survives_a_store_roundtrip() {
    let program = RingPings {
        rounds: 6,
        payload: 8,
    };
    let image = checkpoint_at(&program, Vendor::OpenMpi, 3);
    let dir = std::env::temp_dir().join(format!("stool-image-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    DeltaStore::open(&dir)
        .and_then(|mut store| store.commit(&image))
        .expect("commit");
    let loaded = DeltaStore::open(&dir)
        .and_then(|store| store.load_latest())
        .expect("reopen and load");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(loaded, image);

    let expect = reference_memories(&program, Vendor::OpenMpi);
    let got = restore_under(&program, &loaded, Vendor::Mpich);
    assert_memories_equal(&expect, &got);
}

#[test]
fn wave_delta_chain_mpich_kill_restart_openmpi() {
    // The tentpole scenario: periodic delta checkpoints into the epoch
    // chain under MPICH, the world killed by an injected failure, restart
    // reconstructed from the chain under Open MPI (through the shim) with
    // bit-identical application state.
    let solver = WaveMpi {
        npoints: 1200,
        nsteps: 100,
        gather_final: true,
        ..WaveMpi::default()
    };
    let expect = reference_memories(&solver, Vendor::Mpich);

    let dir = std::env::temp_dir().join(format!("stool-delta-chain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_cfg = StoreConfig {
        block_size: 256,
        ..StoreConfig::default()
    };
    let out = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(20)
        .durability(stored(&dir, store_cfg, None))
        .inject_node_failure(75, 1)
        .build()
        .unwrap()
        .launch(&solver)
        .unwrap();
    assert!(out.is_failed(), "the injected failure must kill the world");

    // Epochs at steps 20/40/60 landed on disk as a chain: one full base,
    // then deltas that write less than the logical image.
    let store = DeltaStore::open_with(&dir, store_cfg).unwrap();
    assert!(
        store.epochs().len() >= 3,
        "expected >= 3 epochs, got {:?}",
        store.epochs()
    );
    let stats = store.epoch_stats_on_disk().unwrap();
    assert!(stats[0].full, "the chain starts with a full base");
    for s in &stats[1..] {
        assert!(!s.full, "later epochs are deltas: {s:?}");
        assert!(
            s.bytes_written < stats[0].bytes_written,
            "delta epoch must write fewer bytes than the full base: {s:?} vs {:?}",
            stats[0]
        );
        assert!(
            s.blocks_new < s.blocks_total,
            "unchanged blocks dedup: {s:?}"
        );
    }

    let image = store.load_latest().unwrap();
    assert_eq!(image.vendor_hint, "MPICH");

    // Restart the reconstructed image under the other vendor.
    let got = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::OpenMpi)
        .checkpointer(Checkpointer::mana())
        .build()
        .unwrap()
        .restore(&image, &solver)
        .unwrap()
        .memories()
        .unwrap()
        .to_vec();
    assert_memories_equal(&expect, &got);
    std::fs::remove_dir_all(&dir).ok();
}

/// Throws its memory away at step 1 and writes a segment of the same name
/// and length into the fresh one, then passes the segment's sum around
/// the ring. A fresh `Memory` must never hand out a stamp the discarded
/// one had, or a clean-segment hint would make the new bytes look like
/// the old ones.
struct SwapsItsMemory;

impl MpiProgram for SwapsItsMemory {
    fn name(&self) -> &'static str {
        "swaps-its-memory"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let me = app.rank() as i32;
        let n = app.nranks() as i32;
        for step in app.resume_step()..4 {
            if app.checkpoint_point(step)?.is_stop() {
                return Ok(());
            }
            match step {
                0 => app.mem.bytes_mut("state", 4096).fill(0xA0 + me as u8),
                1 => {
                    *app.mem = Memory::new();
                    app.mem.bytes_mut("state", 4096).fill(0xB0 + me as u8);
                }
                _ => {
                    let state = app.mem.bytes("state").expect("written at step 1");
                    let local = [state.iter().map(|&b| b as f64).sum::<f64>()];
                    let mut incoming = [0.0];
                    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
                    app.pmpi().sendrecv_f64s(
                        &local,
                        next,
                        7,
                        &mut incoming,
                        prev,
                        7,
                        Handle::COMM_WORLD,
                    )?;
                    let acc = app.mem.get_f64("acc").unwrap_or(0.0);
                    app.mem.set_f64("acc", acc + incoming[0]);
                }
            }
        }
        Ok(())
    }
}

#[test]
fn a_swapped_in_memory_never_forges_a_clean_hint() {
    let program = SwapsItsMemory;
    let expect = reference_memories(&program, Vendor::Mpich);
    let dir = std::env::temp_dir().join(format!("stool-swapped-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = || stored(&dir, StoreConfig::default(), None);
    // Epoch 1 holds the old memory's segment, epoch 2 (a delta) the new.
    let out = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(1)
        .checkpoint_at_step(2, CkptMode::Stop)
        .durability(durability())
        .build()
        .unwrap()
        .launch(&program)
        .unwrap();
    assert!(!out.is_completed(), "stopped at step 2");
    let got = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::OpenMpi)
        .checkpointer(Checkpointer::mana())
        .durability(durability())
        .build()
        .unwrap()
        .restore_from_store(&program)
        .unwrap()
        .memories()
        .unwrap()
        .to_vec();
    assert_memories_equal(&expect, &got);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wave_restarts_from_quarantined_head_chain() {
    // A rotted chain-head manifest must not strand the job: open
    // quarantines the broken head (renamed *.bad) and restart proceeds
    // from the newest readable epoch — older state, same final answer.
    let solver = WaveMpi {
        npoints: 600,
        nsteps: 80,
        gather_final: true,
        ..WaveMpi::default()
    };
    let expect = reference_memories(&solver, Vendor::Mpich);

    let dir = std::env::temp_dir().join(format!("stool-quarantine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_cfg = StoreConfig {
        block_size: 256,
        retain_epochs: 8,
        ..StoreConfig::default()
    };
    let out = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(20)
        .durability(stored(&dir, store_cfg, None))
        .inject_node_failure(65, 1)
        .build()
        .unwrap()
        .launch(&solver)
        .unwrap();
    assert!(out.is_failed());

    // Rot the head epoch's manifest on disk.
    let head = {
        let store = DeltaStore::open_with(&dir, store_cfg).unwrap();
        assert!(store.epochs().len() >= 2, "epochs: {:?}", store.epochs());
        *store.epochs().last().unwrap()
    };
    let manifest = dir.join(format!("epoch_{head:06}")).join("manifest.bin");
    let mut buf = std::fs::read(&manifest).unwrap();
    let mid = buf.len() / 2;
    buf[mid] ^= 0xFF;
    std::fs::write(&manifest, &buf).unwrap();

    let store = DeltaStore::open_with(&dir, store_cfg).unwrap();
    assert_eq!(store.quarantined(), &[head], "broken head set aside");
    assert_eq!(store.latest(), Some(head - 1), "fell back one epoch");
    assert!(
        dir.join(format!("epoch_{head:06}.bad")).is_dir(),
        "quarantined head preserved for forensics"
    );

    let image = store.load_latest().unwrap();
    assert_eq!(image.vendor_hint, "MPICH");
    let got = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::OpenMpi)
        .checkpointer(Checkpointer::mana())
        .build()
        .unwrap()
        .restore(&image, &solver)
        .unwrap()
        .memories()
        .unwrap()
        .to_vec();
    assert_memories_equal(&expect, &got);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wave_remote_tier_only_restart_under_other_vendor() {
    // The PR 5 headline: periodic delta checkpoints under MPICH ship to
    // the remote second tier; the node dies AND takes its local store
    // directory with it; restart under Open MPI hydrates the chain from
    // the tier alone and the application state is bit-identical.
    let solver = WaveMpi {
        npoints: 900,
        nsteps: 100,
        gather_final: true,
        ..WaveMpi::default()
    };
    let expect = reference_memories(&solver, Vendor::Mpich);

    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("stool-tier-chain-{pid}"));
    let tier_dir = std::env::temp_dir().join(format!("stool-tier-remote-{pid}"));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&tier_dir);
    let store_cfg = StoreConfig {
        block_size: 256,
        ..StoreConfig::default()
    };
    let out = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(20)
        .durability(stored(&dir, store_cfg, Some(&tier_dir)))
        .inject_node_failure(75, 1)
        .build()
        .unwrap()
        .launch(&solver)
        .unwrap();
    assert!(out.is_failed(), "the injected failure must kill the world");

    // The chain shipped: every local epoch is sealed in the tier.
    {
        let store = DeltaStore::open_with_tier(
            &dir,
            store_cfg,
            std::sync::Arc::new(mpi_stool::dmtcp::FsTier::open(&tier_dir).unwrap()),
            TierConfig::default(),
        )
        .unwrap();
        store.tier_flush().unwrap();
        let durable = store.tier_durable();
        assert!(
            store.epochs().iter().all(|e| durable.contains(e)),
            "epochs {:?} vs durable {durable:?}",
            store.epochs()
        );
        assert!(durable.len() >= 3, "expected >= 3 shipped epochs");
    }

    // The storage boundary: the node-local chain is gone entirely.
    std::fs::remove_dir_all(&dir).unwrap();

    // Restore under the other vendor, from the remote tier alone.
    let got = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::OpenMpi)
        .checkpointer(Checkpointer::mana())
        .durability(stored(&dir, store_cfg, Some(&tier_dir)))
        .build()
        .unwrap()
        .restore_from_store(&solver)
        .unwrap()
        .memories()
        .unwrap()
        .to_vec();
    assert_memories_equal(&expect, &got);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&tier_dir).ok();
}

#[test]
fn restore_from_store_under_other_vendor() {
    // The one-call path: a store-backed session restarts its own chain
    // directly, under a different vendor than wrote it. The stopped run
    // names the chain head's epoch and reads nothing back; the restart
    // is the one reader.
    let program = RingPings {
        rounds: 12,
        payload: 16,
    };
    let expect = reference_memories(&program, Vendor::OpenMpi);
    let dir = std::env::temp_dir().join(format!("stool-store-restore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let stopping = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::OpenMpi)
        .checkpointer(Checkpointer::mana())
        .checkpoint_at_step(5, CkptMode::Stop)
        .durability(stored(&dir, StoreConfig::default(), None))
        .build()
        .unwrap();
    let out = stopping.launch(&program).unwrap();
    assert!(
        matches!(
            out,
            RunOutcome::Checkpointed {
                checkpoint: Checkpoint::Stored { epoch: 1 },
                ..
            }
        ),
        "{out:?}"
    );
    assert_eq!(readings(&stopping, "store.load.read_us"), 0);
    let err = out.into_image().unwrap_err().to_string();
    assert!(
        err.contains("epoch 1") && err.contains("restore_from_store"),
        "{err}"
    );

    let restart = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .durability(stored(&dir, StoreConfig::default(), None))
        .build()
        .unwrap();
    let got = restart
        .restore_from_store(&program)
        .unwrap()
        .memories()
        .unwrap()
        .to_vec();
    assert_eq!(readings(&restart, "store.load.read_us"), 1);
    assert_memories_equal(&expect, &got);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_checkpoint_restart_chain() {
    // Checkpoint, restore, checkpoint again under the other vendor, restore
    // again under the first: a full zig-zag.
    let program = RingPings {
        rounds: 12,
        payload: 8,
    };
    let expect = reference_memories(&program, Vendor::Mpich);

    let image1 = checkpoint_at(&program, Vendor::OpenMpi, 3);
    // Restore under MPICH but stop again at step 8.
    let image2 = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .checkpoint_at_step(8, CkptMode::Stop)
        .build()
        .unwrap()
        .restore(&image1, &program)
        .unwrap()
        .into_image()
        .unwrap();
    assert_eq!(image2.vendor_hint, "MPICH");
    let got = restore_under(&program, &image2, Vendor::OpenMpi);
    assert_memories_equal(&expect, &got);
}

#[test]
fn checkpoint_at_every_step_gives_same_answer() {
    let program = RingPings {
        rounds: 6,
        payload: 4,
    };
    let expect = reference_memories(&program, Vendor::Mpich);
    for step in 0..6 {
        let image = checkpoint_at(&program, Vendor::OpenMpi, step);
        let got = restore_under(&program, &image, Vendor::Mpich);
        assert_memories_equal(&expect, &got);
    }
}

/// The number of readings of histogram `name` in a run's recorder.
fn readings(session: &Session, name: &str) -> u64 {
    let metrics = session.telemetry().expect("the session ran").metrics();
    match metrics.get(name) {
        Some(MetricValue::Histogram { count, .. }) => *count,
        other => panic!("{name}: expected a histogram, got {other:?}"),
    }
}

/// A stopped run of `program` under Open MPI that left its chain in
/// `dir`, shipped to `tier_dir`: the epochs it sealed.
fn shipped_chain(program: &RingPings, dir: &Path, tier_dir: &Path) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(tier_dir);
    let session = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::OpenMpi)
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(2)
        .checkpoint_at_step(7, CkptMode::Stop)
        .durability(stored(dir, StoreConfig::default(), Some(tier_dir)))
        .build()
        .unwrap();
    let out = session.launch(program).unwrap();
    assert!(matches!(out, RunOutcome::Checkpointed { .. }), "{out:?}");
    let tier = session.telemetry().unwrap().tier.unwrap();
    assert_eq!(tier.ship_failures, 0);
    tier.epochs_shipped
}

#[test]
fn restore_from_store_opens_its_chain_once() {
    // A restart from the tier alone: the one open hydrates the chain,
    // the head is loaded through it, and it commits the run.
    let program = RingPings {
        rounds: 12,
        payload: 16,
    };
    let expect = reference_memories(&program, Vendor::OpenMpi);
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("stool-open-once-{pid}"));
    let tier_dir = std::env::temp_dir().join(format!("stool-open-once-tier-{pid}"));
    assert!(shipped_chain(&program, &dir, &tier_dir) >= 3);
    std::fs::remove_dir_all(&dir).unwrap();

    let session = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .durability(stored(&dir, StoreConfig::default(), Some(&tier_dir)))
        .build()
        .unwrap();
    let got = session.restore_from_store(&program).unwrap();
    assert_memories_equal(&expect, got.memories().unwrap());
    for name in [
        "store.open_us",
        "tier.hydrate_us",
        "store.load.read_us",
        "store.load.decode_us",
    ] {
        assert_eq!(readings(&session, name), 1, "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&tier_dir).ok();
}

#[test]
fn download_faults_left_over_by_hydration_never_reach_the_shipper() {
    // Every attempt at every seal download is torn (a torn seal is read
    // again up to `max_attempts` times), so the open finds nothing sealed
    // and queues the whole local chain for upload again; three more torn
    // downloads are scripted than the open makes. The run's shipper
    // re-ships the chain through the same handle, and its read-back
    // verification must see none of them.
    let program = RingPings {
        rounds: 12,
        payload: 16,
    };
    let expect = reference_memories(&program, Vendor::OpenMpi);
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("stool-gets-left-{pid}"));
    let tier_dir = std::env::temp_dir().join(format!("stool-gets-left-tier-{pid}"));
    let sealed = shipped_chain(&program, &dir, &tier_dir);
    assert!(sealed >= 3);
    let torn = sealed * u64::from(TierConfig::default().max_attempts) + 3;

    let session = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .durability(stored(&dir, StoreConfig::default(), Some(&tier_dir)))
        .fault_schedule(FaultSchedule {
            tier_gets: vec![Fault::Torn; torn as usize],
            ..FaultSchedule::default()
        })
        .build()
        .unwrap();
    let got = session.restore_from_store(&program).unwrap();
    assert_memories_equal(&expect, got.memories().unwrap());
    let tier = session.telemetry().unwrap().tier.unwrap();
    assert_eq!(tier.epochs_shipped, sealed, "the chain is shipped again");
    assert_eq!(tier.put_retries, 0, "no injected get reached a read-back");
    assert_eq!(tier.ship_failures, 0);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&tier_dir).ok();
}
