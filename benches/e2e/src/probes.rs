//! Layer probes: each layer of the stack timed from outside, through its
//! public API, on the workload's own inputs where the layer's cost
//! depends on them (the store, tier, image and MANA probes replay the
//! epochs the traced repetition wrote).
//!
//! A probe is a span; its phases are child spans. Probes run after the
//! traced repetition, never inside a timed one.

use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use mpi_stool::abi::{AbiError, Handle, MpiAbi, ReduceOp};
use mpi_stool::dmtcp::codec::{crc32, fnv1a};
use mpi_stool::dmtcp::coordinator::Poll;
use mpi_stool::dmtcp::{
    Clock, Coordinator, DeltaStore, FsTier, ObjectTier, RankImage, ReplicaConfig, ReplicaGroup,
    ReplicaRecord, StoreConfig, SystemClock, TierConfig, WorldImage,
};
use mpi_stool::mana::ckpt::{maybe_checkpoint, restore_rank};
use mpi_stool::mana::vids::VidTable;
use mpi_stool::mana::{ManaConfig, ManaMpi};
use mpi_stool::muk::registry::open_vendor;
use mpi_stool::muk::{MukShim, Vendor};
use mpi_stool::simnet::matching::{MatchCore, SrcPattern, TagPattern};
use mpi_stool::simnet::telemetry::{EventKind, Telemetry};
use mpi_stool::simnet::{
    median, ClusterSpec, Fabric, NoiseModel, RankCtx, SimError, VirtualTime, World,
};
use mpi_stool::stool::mpix::Pmpi;
use mpi_stool::stool::programs::SleepyProgram;
use mpi_stool::stool::stack::StackSpec;
use mpi_stool::stool::{Checkpointer, CkptMode, Session};

use crate::report::Quantity;
use crate::trace::Tracer;
use crate::workloads::{dir_bytes, Dirs, RepStats};

/// The per-layer metrics of one traced run.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<Quantity>);

impl Layers {
    /// Report one number under its fixed name.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push(Quantity::exact(name, unit, value));
    }
}

fn abi(e: AbiError) -> SimError {
    SimError::InvalidConfig(e.to_string())
}

fn mb_per_s(bytes: u64, elapsed: Duration) -> f64 {
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

fn vendor_key(vendor: Vendor) -> &'static str {
    match vendor {
        Vendor::Mpich => "mpich",
        Vendor::OpenMpi => "ompi",
    }
}

/// Median over `batches` runs of `f`.
fn median_of(batches: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..batches).map(|_| f()).collect();
    median(&samples)
}

// ---------------------------------------------------------------------------
// muk and mana: per-call translation cost in a 1-rank world
// ---------------------------------------------------------------------------

const CALLS: usize = 10_000;

/// Host ns per call that `call(true)` costs beyond `call(false)`: the
/// median over 21 back-to-back pairs of [`CALLS`]-call batches. A layer's
/// translation costs a few ns per call, so the two sides are interleaved:
/// a machine that slows for a moment slows both.
fn paired_delta_ns(mut call: impl FnMut(bool)) -> f64 {
    let mut batch_ns = |variant: bool| {
        let t0 = Instant::now();
        for _ in 0..CALLS {
            call(variant);
        }
        t0.elapsed().as_nanos() as f64 / CALLS as f64
    };
    median_of(21, || {
        let base = batch_ns(false);
        batch_ns(true) - base
    })
}

fn comm_rank(mpi: &mut dyn MpiAbi, comm: Handle) {
    black_box(mpi.comm_rank(black_box(comm)).expect("comm_rank"));
}

/// Run `f` on the single rank of a 1-rank world.
fn one_rank<T: Send>(f: impl Fn(Rc<RankCtx>) -> T + Sync) -> T {
    let spec = ClusterSpec::builder().nodes(1).ranks_per_node(1).build();
    World::run(&spec, |ctx| Ok(f(ctx)))
        .expect("1-rank world")
        .results
        .remove(0)
}

fn translation_probes(out: &mut Layers, tracer: &mut Tracer) {
    tracer.span("probe.muk.call", |_| {
        for vendor in Vendor::ALL {
            let ns = one_rank(|ctx| {
                let mut native = open_vendor(vendor, ctx.clone());
                let mut shim = MukShim::load(vendor, ctx);
                paired_delta_ns(|through_shim| {
                    if through_shim {
                        comm_rank(&mut shim, Handle::COMM_WORLD);
                    } else {
                        comm_rank(native.as_mut(), Handle::COMM_WORLD);
                    }
                })
            });
            out.put(&format!("muk.{}.call_ns", vendor_key(vendor)), ns, "ns");
        }
    });
    tracer.span("probe.muk.handle_xlate", |_| {
        let ns = one_rank(|ctx| {
            let mut shim = MukShim::load(Vendor::OpenMpi, ctx);
            let dup = shim.comm_dup(Handle::COMM_WORLD).expect("comm_dup");
            let ns = paired_delta_ns(|dynamic| {
                comm_rank(&mut shim, if dynamic { dup } else { Handle::COMM_WORLD });
            });
            shim.comm_free(dup).expect("comm_free");
            ns
        });
        out.put("muk.handle_xlate_ns", ns, "ns");
    });
    tracer.span("probe.muk.coll_call", |_| {
        // Argument translation of one alltoall: the same call through the
        // shim, minus the vendor called directly. In a 1-rank world: at 48
        // ranks one alltoall costs milliseconds of wake-ups, and the
        // difference of two such runs is noise a thousand times the size
        // of what the shim adds.
        let ns = one_rank(|ctx| {
            let mut native = open_vendor(Vendor::OpenMpi, ctx.clone());
            let mut shim = MukShim::load(Vendor::OpenMpi, ctx);
            let (send, mut recv) = ([0x5Au8; 1], [0u8; 1]);
            paired_delta_ns(|through_shim| {
                let mpi: &mut dyn MpiAbi = if through_shim {
                    &mut shim
                } else {
                    native.as_mut()
                };
                Pmpi::new(mpi)
                    .alltoall_bytes(black_box(&send), &mut recv, Handle::COMM_WORLD)
                    .expect("alltoall");
            })
        });
        out.put("muk.coll_call_ns", ns, "ns");
    });
    tracer.span("probe.mana.call", |_| {
        let ns = one_rank(|ctx| {
            let mut shim = MukShim::load(Vendor::Mpich, ctx.clone());
            let lower = Box::new(MukShim::load(Vendor::Mpich, ctx.clone()));
            let mut mana = ManaMpi::launch(ctx, ManaConfig::default(), lower);
            paired_delta_ns(|through_mana| {
                if through_mana {
                    comm_rank(&mut mana, Handle::COMM_WORLD);
                } else {
                    comm_rank(&mut shim, Handle::COMM_WORLD);
                }
            })
        });
        out.put("mana.call_ns", ns, "ns");
    });
    tracer.span("probe.mana.vid_lookup", |_| {
        let mut vids = VidTable::new(48);
        let lookups = 1_000_000u32;
        let ns = median_of(5, || {
            let t0 = Instant::now();
            for _ in 0..lookups {
                black_box(
                    vids.real_of(black_box(Handle::COMM_WORLD))
                        .expect("bound at creation"),
                );
            }
            t0.elapsed().as_nanos() as f64 / f64::from(lookups)
        });
        // Keep the table alive (and mutable state observable) to the end.
        black_box(&mut vids);
        out.put("mana.vid_lookup_ns", ns, "ns");
    });
}

// ---------------------------------------------------------------------------
// Vendor engines: collectives and p2p at 48 ranks
// ---------------------------------------------------------------------------

/// Run `call` `iters` times on every rank of the paper's cluster, all
/// ranks released together. Returns host µs per call (rank 0's clock
/// from the common release to the last rank done) and virtual µs per
/// call (the slowest rank).
fn timed_at_48(
    build: &(dyn Fn(&Rc<RankCtx>) -> Box<dyn MpiAbi> + Sync),
    call: &(dyn Fn(&mut Pmpi<'_>, usize, usize) -> Result<(), AbiError> + Sync),
    iters: usize,
) -> (f64, f64) {
    let spec = ClusterSpec::discovery();
    let gate = Barrier::new(spec.nranks());
    let outcome = World::run(&spec, |ctx| {
        let mut lib = build(&ctx);
        let mut p = Pmpi::new(lib.as_mut());
        let (me, n) = (ctx.rank(), ctx.nranks());
        for _ in 0..2 {
            call(&mut p, me, n).map_err(abi)?;
        }
        p.barrier(Handle::COMM_WORLD).map_err(abi)?;
        gate.wait();
        let (t0, v0) = (Instant::now(), ctx.now());
        for _ in 0..iters {
            call(&mut p, me, n).map_err(abi)?;
        }
        let virt = ctx.now() - v0;
        gate.wait();
        Ok((t0.elapsed(), virt))
    })
    .expect("48-rank probe world");
    let host_us = outcome.results[0].0.as_secs_f64() * 1e6 / iters as f64;
    let virt_us = outcome
        .results
        .iter()
        .map(|(_, v)| v.as_micros_f64())
        .fold(0.0, f64::max)
        / iters as f64;
    (host_us, virt_us)
}

fn alltoall(block: usize) -> impl Fn(&mut Pmpi<'_>, usize, usize) -> Result<(), AbiError> + Sync {
    move |p, _, n| {
        let send = vec![0x5Au8; block * n];
        let mut recv = vec![0u8; block * n];
        p.alltoall_bytes(&send, &mut recv, Handle::COMM_WORLD)
    }
}

fn vendor_probes(out: &mut Layers, tracer: &mut Tracer) {
    for vendor in Vendor::ALL {
        let key = vendor_key(vendor);
        let native = move |ctx: &Rc<RankCtx>| open_vendor(vendor, ctx.clone());
        tracer.span(&format!("probe.{key}.collectives"), |t| {
            for (suffix, block, iters) in [("1b", 1, 40), ("64k", 64 << 10, 3)] {
                let (host, virt) = t.span(&format!("alltoall_{suffix}"), |_| {
                    timed_at_48(&native, &alltoall(block), iters)
                });
                out.put(&format!("{key}.alltoall_us_{suffix}"), host, "us");
                out.put(&format!("{key}.alltoall_virt_us_{suffix}"), virt, "us");
            }
            let (host, _) = t.span("bcast_64k", |_| {
                timed_at_48(
                    &native,
                    &|p, _, _| p.bcast_bytes(&mut vec![0x5Au8; 64 << 10], 0, Handle::COMM_WORLD),
                    20,
                )
            });
            out.put(&format!("{key}.bcast_us_64k"), host, "us");
            let (host, _) = t.span("allreduce_8b", |_| {
                timed_at_48(
                    &native,
                    &|p, me, _| {
                        p.allreduce_f64(me as f64, ReduceOp::Sum, Handle::COMM_WORLD)
                            .map(|_| ())
                    },
                    40,
                )
            });
            out.put(&format!("{key}.allreduce_us_8b"), host, "us");
        });
        tracer.span(&format!("probe.{key}.p2p"), |_| {
            // A ring shift: every rank sends one 8-byte message per call.
            let (host, _) = timed_at_48(
                &native,
                &|p, me, n| {
                    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
                    let mut incoming = [0.0f64];
                    p.sendrecv_f64s(
                        &[me as f64],
                        next as i32,
                        7,
                        &mut incoming,
                        prev as i32,
                        7,
                        Handle::COMM_WORLD,
                    )
                    .map(|_| ())
                },
                400,
            );
            out.put(&format!("{key}.p2p_ns_per_msg"), host * 1e3 / 48.0, "ns");
        });
    }
}

// ---------------------------------------------------------------------------
// simnet: fabric, matching, world spawn, telemetry
// ---------------------------------------------------------------------------

fn rank_ctxs(spec: &Arc<ClusterSpec>) -> Vec<RankCtx> {
    let (_fabric, endpoints) = Fabric::new(spec);
    endpoints
        .into_iter()
        .enumerate()
        .map(|(rank, ep)| {
            RankCtx::new(
                rank,
                spec.clone(),
                ep,
                NoiseModel::disabled().stream_for_rank(rank),
            )
        })
        .collect()
}

fn simnet_probes(out: &mut Layers, tracer: &mut Tracer) {
    tracer.span("probe.simnet.fabric.msg", |_| {
        let spec = Arc::new(ClusterSpec::builder().nodes(1).ranks_per_node(2).build());
        let ctxs = rank_ctxs(&spec);
        let (tx, rx) = (&ctxs[0], &ctxs[1]);
        const BURST: usize = 1024;
        for (name, len) in [
            ("simnet.fabric.msg_ns_64b", 64),
            ("simnet.fabric.msg_ns_4k", 4096),
        ] {
            let payload = Bytes::from(vec![7u8; len]);
            let mut drained = Vec::with_capacity(BURST);
            let ns = median_of(20, || {
                let t0 = Instant::now();
                for _ in 0..BURST {
                    tx.endpoint()
                        .send_raw(1, 0, 0, payload.clone(), tx)
                        .expect("send_raw");
                }
                drained.clear();
                let n = rx.endpoint().drain_raw_into(&mut drained).expect("drain");
                assert_eq!(n, BURST);
                t0.elapsed().as_nanos() as f64 / BURST as f64
            });
            out.put(name, ns, "ns");
        }
    });
    tracer.span("probe.simnet.fabric.wakeup", |_| {
        let spec = Arc::new(ClusterSpec::builder().nodes(1).ranks_per_node(2).build());
        let (fabric, mut endpoints) = Fabric::new(&spec);
        let ep1 = endpoints.pop().expect("two endpoints");
        let ep0 = endpoints.pop().expect("two endpoints");
        let us = std::thread::scope(|scope| {
            let echo_spec = spec.clone();
            scope.spawn(move || {
                let ctx =
                    RankCtx::new(1, echo_spec, ep1, NoiseModel::disabled().stream_for_rank(1));
                // Ends when the fabric shuts down under the blocked
                // receive.
                while let Ok(env) = ctx.endpoint().recv_raw() {
                    if ctx
                        .endpoint()
                        .send_raw(0, env.ctx_id, env.tag, env.payload, &ctx)
                        .is_err()
                    {
                        break;
                    }
                }
            });
            let ctx0 = RankCtx::new(
                0,
                spec.clone(),
                ep0,
                NoiseModel::disabled().stream_for_rank(0),
            );
            let us = median_of(200, || {
                // Untimed: let the echo thread block in its receive.
                std::thread::sleep(Duration::from_micros(100));
                let t0 = Instant::now();
                ctx0.endpoint()
                    .send_raw(1, 0, 0, Bytes::copy_from_slice(&[1u8; 8]), &ctx0)
                    .expect("send_raw");
                ctx0.endpoint().recv_raw().expect("echo");
                t0.elapsed().as_secs_f64() * 1e6
            });
            fabric.shutdown();
            us
        });
        out.put("simnet.fabric.wakeup_us", us, "us");
    });
    tracer.span("probe.simnet.matching", |_| {
        let spec = Arc::new(ClusterSpec::discovery());
        let ctxs = rank_ctxs(&spec);
        let peers = spec.nranks() - 1;
        let mut core: MatchCore = MatchCore::new();
        let ns = median_of(200, || {
            for (src, ctx) in ctxs.iter().enumerate().skip(1) {
                ctx.endpoint()
                    .send_raw(
                        0,
                        3,
                        src as i32,
                        Bytes::copy_from_slice(&[src as u8; 32]),
                        ctx,
                    )
                    .expect("send_raw");
            }
            // 47 unexpected messages; each receive names its exact
            // (context, source, tag).
            let t0 = Instant::now();
            for src in 1..=peers {
                let m = core
                    .try_match(&ctxs[0], 3, SrcPattern::Is(src), TagPattern::Is(src as i32))
                    .expect("try_match")
                    .expect("message was sent");
                assert_eq!(m.env.src, src);
            }
            t0.elapsed().as_nanos() as f64 / peers as f64
        });
        out.put("simnet.matching.match_ns", ns, "ns");
    });
    tracer.span("probe.simnet.world.spawn", |_| {
        let spec = ClusterSpec::discovery();
        let ms = median_of(10, || {
            let t0 = Instant::now();
            World::run(&spec, |_| Ok(())).expect("empty world");
            t0.elapsed().as_secs_f64() * 1e3
        });
        out.put("simnet.world.spawn_ms", ms, "ms");
    });
    tracer.span("probe.simnet.telemetry.emit", |_| {
        let tel = Telemetry::new(48);
        let emits = 1_000_000u64;
        let ns = median_of(5, || {
            let t0 = Instant::now();
            for i in 0..emits {
                tel.emit_rank((i % 48) as usize, EventKind::MsgMatch, i, i, 0, 0);
            }
            t0.elapsed().as_nanos() as f64 / emits as f64
        });
        out.put("simnet.telemetry.emit_ns", ns, "ns");
    });
}

// ---------------------------------------------------------------------------
// dmtcp: coordinator, replica, store, tier, codecs
// ---------------------------------------------------------------------------

/// Wall µs of one rendezvous round over 48 agent threads staging empty
/// images (one untimed warm-up round, then `TIMED`).
fn rendezvous_round_us(coord: &Coordinator) -> f64 {
    const WARMUP: u64 = 1;
    const TIMED: u64 = 10;
    let n = coord.nranks();
    let warm = Barrier::new(n + 1);
    let done = Barrier::new(n + 1);
    std::thread::scope(|s| {
        for rank in 0..n {
            let (warm, done) = (&warm, &done);
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn_scoped(s, move || {
                    let mut agent = coord.agent(rank);
                    let zeros = vec![0u64; n];
                    for round in 0..WARMUP + TIMED {
                        if round == WARMUP {
                            warm.wait();
                        }
                        coord.schedule_checkpoint_at(round, CkptMode::Continue);
                        match agent.poll(round).expect("poll") {
                            Poll::Enter(session) => {
                                session
                                    .exchange_counters(&zeros, &zeros)
                                    .expect("exchange_counters");
                                session.submit_image(RankImage::new(rank, n, session.epoch()));
                                session.finish().expect("final barrier");
                            }
                            _ => unreachable!("a pinned cut enters at its own step"),
                        }
                    }
                    done.wait();
                })
                .expect("spawn agent thread");
        }
        warm.wait();
        let t0 = Instant::now();
        done.wait();
        t0.elapsed().as_secs_f64() * 1e6 / TIMED as f64
    })
}

fn fs_replica_group(dir: &Path) -> ReplicaGroup {
    let config = ReplicaConfig::default();
    let logs = (0..config.replicas)
        .map(|i| {
            Arc::new(FsTier::open(dir.join(format!("replica_{i:02}"))).expect("replica log"))
                as Arc<dyn ObjectTier>
        })
        .collect();
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    ReplicaGroup::new(config, clock, logs).expect("replica group")
}

fn seal(epoch: u64) -> ReplicaRecord {
    ReplicaRecord::EpochSeal {
        epoch,
        cut: epoch,
        stop: false,
        vendor: "Open MPI".to_string(),
    }
}

fn coordination_probes(out: &mut Layers, tracer: &mut Tracer, scratch: &Path, rep: &RepStats) {
    tracer.span("probe.dmtcp.coordinator.round", |_| {
        out.put(
            "dmtcp.coordinator.round_us",
            rendezvous_round_us(&Coordinator::new(48)),
            "us",
        );
    });
    tracer.span("probe.dmtcp.coordinator.round_replicated", |_| {
        let coord = Coordinator::new(48);
        coord.attach_replicas(Arc::new(fs_replica_group(&scratch.join("coord-replicas"))));
        out.put(
            "dmtcp.coordinator.round_replicated_us",
            rendezvous_round_us(&coord),
            "us",
        );
    });
    tracer.span("probe.dmtcp.replica.commit", |_| {
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let mem = ReplicaGroup::in_memory(ReplicaConfig::default(), clock);
        let fs = fs_replica_group(&scratch.join("replicas"));
        for (name, group, commits) in [
            ("dmtcp.replica.commit_mem_us", &mem, 200),
            ("dmtcp.replica.commit_fs_us", &fs, 40),
        ] {
            let mut epoch = 0;
            let us = median_of(commits, || {
                epoch += 1;
                let t0 = Instant::now();
                group.commit(seal(epoch)).expect("quorum commit");
                t0.elapsed().as_secs_f64() * 1e6
            });
            out.put(name, us, "us");
        }
    });
    // What the traced repetition's own replica group did.
    let epochs = rep.epochs.len().max(1) as f64;
    out.put(
        "dmtcp.replica.commits_per_epoch",
        rep.replica.commits as f64 / epochs,
        "count",
    );
    out.put(
        "dmtcp.replica.elections",
        rep.replica.elections as f64,
        "count",
    );
    out.put(
        "dmtcp.replica.log_retries",
        rep.replica.log_retries as f64,
        "count",
    );
}

/// Every epoch the chain still holds, oldest first.
fn load_chain(chain: &Dirs) -> Vec<WorldImage> {
    let store = DeltaStore::open_with(chain.chain(), StoreConfig::default()).expect("open chain");
    store
        .epochs()
        .iter()
        .map(|&e| store.load_epoch(e).expect("load epoch"))
        .collect()
}

fn storage_probes(
    out: &mut Layers,
    tracer: &mut Tracer,
    scratch: &Path,
    chain: &Dirs,
    rep: &RepStats,
) {
    let epochs = tracer.span("probe.dmtcp.store.load_chain", |_| load_chain(chain));
    let head = epochs.last().expect("the chain holds an epoch");
    let head_bytes = head.total_bytes() as u64;

    tracer.span("probe.dmtcp.store.commit", |t| {
        let dir = scratch.join("replay");
        let mut store = DeltaStore::open_with(&dir, StoreConfig::default()).expect("fresh store");
        let t0 = Instant::now();
        t.span("commit_full", |_| store.commit(&epochs[0]).expect("commit"));
        out.put(
            "dmtcp.store.commit_full_mb_per_s",
            mb_per_s(epochs[0].total_bytes() as u64, t0.elapsed()),
            "MB/s",
        );
        // A workload with one epoch commits it again: an all-clean
        // delta, what a second checkpoint of an idle job costs.
        let deltas: Vec<&WorldImage> = if epochs.len() > 1 {
            epochs[1..].iter().collect()
        } else {
            vec![&epochs[0]]
        };
        let t0 = Instant::now();
        for image in &deltas {
            t.span("commit_delta", |_| store.commit(image).expect("commit"));
        }
        let bytes: u64 = deltas.iter().map(|i| i.total_bytes() as u64).sum();
        out.put(
            "dmtcp.store.commit_delta_mb_per_s",
            mb_per_s(bytes, t0.elapsed()),
            "MB/s",
        );
    });
    tracer.span("probe.dmtcp.store.open_load", |_| {
        let open_ms = median_of(5, || {
            let t0 = Instant::now();
            black_box(
                DeltaStore::open_with(chain.chain(), StoreConfig::default()).expect("open chain"),
            );
            t0.elapsed().as_secs_f64() * 1e3
        });
        out.put("dmtcp.store.open_ms", open_ms, "ms");
        let store =
            DeltaStore::open_with(chain.chain(), StoreConfig::default()).expect("open chain");
        let load = median_of(3, || {
            let t0 = Instant::now();
            black_box(store.load_latest().expect("load_latest"));
            mb_per_s(head_bytes, t0.elapsed())
        });
        out.put("dmtcp.store.load_mb_per_s", load, "MB/s");
    });
    // Ratios of the epochs the traced repetition committed (a repetition
    // that commits nothing reports what its chain's manifests record).
    let on_disk;
    let stats = if rep.epochs.is_empty() {
        on_disk = DeltaStore::open_with(chain.chain(), StoreConfig::default())
            .and_then(|s| s.epoch_stats_on_disk())
            .expect("chain stats");
        &on_disk
    } else {
        &rep.epochs
    };
    let image_bytes: u64 = stats.iter().map(|e| e.image_bytes).sum();
    let per_image_byte = |f: fn(&mpi_stool::stool::EpochStats) -> u64| {
        stats.iter().map(f).sum::<u64>() as f64 / image_bytes as f64
    };
    out.put(
        "dmtcp.store.hashed_bytes_per_image_byte",
        per_image_byte(|e| e.bytes_hashed),
        "B/B",
    );
    out.put(
        "dmtcp.store.new_block_bytes_per_image_byte",
        per_image_byte(|e| e.new_block_raw_bytes),
        "B/B",
    );
    out.put(
        "dmtcp.store.blocks_new_per_epoch",
        stats.iter().map(|e| e.blocks_new).sum::<u64>() as f64 / stats.len() as f64,
        "count",
    );

    tracer.span("probe.dmtcp.codec", |_| {
        let encoded: Vec<Vec<u8>> = head.ranks.iter().map(RankImage::encode).collect();
        let bytes: u64 = encoded.iter().map(|e| e.len() as u64).sum();
        let t0 = Instant::now();
        for buf in &encoded {
            black_box(fnv1a(black_box(buf)));
        }
        out.put(
            "dmtcp.codec.fnv_mb_per_s",
            mb_per_s(bytes, t0.elapsed()),
            "MB/s",
        );
        let t0 = Instant::now();
        for buf in &encoded {
            black_box(crc32(black_box(buf)));
        }
        out.put(
            "dmtcp.codec.crc32_mb_per_s",
            mb_per_s(bytes, t0.elapsed()),
            "MB/s",
        );
        let t0 = Instant::now();
        for rank in &head.ranks {
            black_box(rank.encode());
        }
        out.put(
            "dmtcp.image.encode_mb_per_s",
            mb_per_s(bytes, t0.elapsed()),
            "MB/s",
        );
        let t0 = Instant::now();
        for buf in &encoded {
            black_box(RankImage::decode(buf).expect("decode"));
        }
        out.put(
            "dmtcp.image.decode_mb_per_s",
            mb_per_s(bytes, t0.elapsed()),
            "MB/s",
        );
    });

    tracer.span("probe.dmtcp.tier", |t| {
        let source = FsTier::open(chain.tier()).expect("workload tier");
        let keys = source.list("").expect("list tier");
        let objects: Vec<(String, Vec<u8>)> = keys
            .into_iter()
            .map(|key| {
                let data = source.get(&key).expect("get");
                (key, data)
            })
            .collect();
        let bytes: u64 = objects.iter().map(|(_, d)| d.len() as u64).sum();
        let sealed = objects.iter().filter(|(k, _)| k.ends_with("/seal")).count();
        let target = FsTier::open(scratch.join("tier-put")).expect("fresh tier");
        let t0 = Instant::now();
        t.span("put", |_| {
            for (key, data) in &objects {
                target.put(key, data).expect("put");
            }
        });
        out.put(
            "dmtcp.tier.put_mb_per_s",
            mb_per_s(bytes, t0.elapsed()),
            "MB/s",
        );
        out.put(
            "dmtcp.tier.puts_per_epoch",
            objects.len() as f64 / sealed.max(1) as f64,
            "count",
        );
        // Restart from the tier alone: an empty local directory, every
        // sealed epoch pulled and verified.
        let tier: Arc<dyn ObjectTier> = Arc::new(source);
        let t0 = Instant::now();
        t.span("hydrate", |_| {
            DeltaStore::open_with_tier(
                scratch.join("hydrated"),
                StoreConfig::default(),
                tier,
                TierConfig::default(),
            )
            .expect("hydrate from tier")
        });
        out.put(
            "dmtcp.tier.hydrate_mb_per_s",
            mb_per_s(dir_bytes(&chain.tier()), t0.elapsed()),
            "MB/s",
        );
    });
    out.put(
        "dmtcp.tier.bytes_shipped_per_image_byte",
        if rep.epochs.is_empty() {
            rep.tier_bytes as f64 / image_bytes as f64
        } else {
            rep.tier.bytes_shipped as f64 / image_bytes as f64
        },
        "B/B",
    );
    out.put(
        "dmtcp.tier.put_retries",
        rep.tier.put_retries as f64,
        "count",
    );

    // MANA's two halves of a checkpoint, on the workload's head image:
    // every rank rebuilds its upper half over a fresh lower half, then
    // snapshots it through one coordinated round.
    tracer.span("probe.mana.image", |_| {
        let spec = ClusterSpec::discovery();
        let n = spec.nranks();
        let coord = Coordinator::new(n);
        let gate = Barrier::new(n);
        let stack = StackSpec::full(Vendor::Mpich);
        let config = ManaConfig::default();
        let outcome = World::run(&spec, |ctx| {
            let rank = ctx.rank();
            gate.wait();
            let t0 = Instant::now();
            let lower = stack.build_lower(&ctx);
            let mut restored = restore_rank(ctx.clone(), config, lower, &head.ranks[rank])
                .map_err(SimError::InvalidConfig)?;
            gate.wait();
            let restore = t0.elapsed();
            let mut agent = coord.agent(rank);
            let step = restored.resume_step;
            coord.schedule_checkpoint_at(step, CkptMode::Continue);
            let t1 = Instant::now();
            maybe_checkpoint(&mut restored.mana, &mut agent, &restored.memory, step)
                .map_err(abi)?;
            gate.wait();
            Ok((restore, t1.elapsed()))
        })
        .expect("mana image probe world");
        let (restore, snapshot) = outcome.results[0];
        out.put(
            "mana.restore_mb_per_s",
            mb_per_s(head_bytes, restore),
            "MB/s",
        );
        out.put(
            "mana.snapshot_mb_per_s",
            mb_per_s(head_bytes, snapshot),
            "MB/s",
        );
        out.put(
            "mana.image_bytes_per_rank",
            head_bytes as f64 / n as f64,
            "B",
        );
    });
}

// ---------------------------------------------------------------------------
// core and harness
// ---------------------------------------------------------------------------

fn session_probes(out: &mut Layers, tracer: &mut Tracer) {
    let session = |stop_at: Option<u64>| {
        let mut b = Session::builder()
            .cluster(ClusterSpec::discovery())
            .vendor(Vendor::Mpich)
            .checkpointer(Checkpointer::mana());
        if let Some(step) = stop_at {
            b = b.checkpoint_at_step(step, CkptMode::Stop);
        }
        b.build().expect("session")
    };
    let nap = VirtualTime::from_micros(1);
    tracer.span("probe.core.session.launch_noop", |_| {
        let program = SleepyProgram { steps: 1, nap };
        let plain = session(None);
        let ms = median_of(5, || {
            let t0 = Instant::now();
            plain.launch(&program).expect("launch");
            t0.elapsed().as_secs_f64() * 1e3
        });
        out.put("core.session.launch_noop_ms", ms, "ms");
    });
    tracer.span("probe.core.session.restore_noop", |_| {
        let program = SleepyProgram { steps: 2, nap };
        let image = session(Some(1))
            .launch(&program)
            .and_then(|o| o.into_image())
            .expect("checkpoint-stop");
        let plain = session(None);
        let ms = median_of(5, || {
            let t0 = Instant::now();
            plain.restore(&image, &program).expect("restore");
            t0.elapsed().as_secs_f64() * 1e3
        });
        out.put("core.session.restore_noop_ms", ms, "ms");
    });
}

/// memcpy + FNV over a fixed 64 MiB buffer: tells a slow machine from a
/// slow program.
pub fn calibration_mb_per_s() -> f64 {
    let src = vec![0xA5u8; 64 << 20];
    let mut dst = vec![0u8; src.len()];
    median_of(3, || {
        let t0 = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(fnv1a(black_box(&dst)));
        mb_per_s(src.len() as u64, t0.elapsed())
    })
}

/// Run every probe. `chain` is the chain the traced repetition left (or
/// the set-up chain), `rep` what that repetition did, `scratch` an empty
/// directory the probes may fill.
pub fn run_all(tracer: &mut Tracer, scratch: &Path, chain: &Dirs, rep: &RepStats) -> Layers {
    let mut out = Layers::default();
    tracer.span("probes", |t| {
        translation_probes(&mut out, t);
        vendor_probes(&mut out, t);
        simnet_probes(&mut out, t);
        coordination_probes(&mut out, t, scratch, rep);
        storage_probes(&mut out, t, scratch, chain, rep);
        session_probes(&mut out, t);
        t.span("probe.harness.calib", |_| {
            out.put("harness.calib_mb_per_s", calibration_mb_per_s(), "MB/s");
        });
    });
    out
}
