//! End-to-end MANA tests: interposition, drain, checkpoint, and restart —
//! including the paper's headline move, checkpoint under one MPI
//! implementation and restart under the other.

use std::rc::Rc;

use dmtcp_sim::coordinator::{CkptMode, Coordinator};
use dmtcp_sim::memory::Memory;
use mana_sim::ckpt::{maybe_checkpoint, restore_rank, CkptAction};
use mana_sim::config::{SWITCH_FSGSBASE, SWITCH_SYSCALL};
use mana_sim::{ManaConfig, ManaMpi};
use mpi_abi::{consts, AbiResult, Datatype, Handle, MpiAbi, ReduceOp};
use muk::{MukShim, Vendor};
use simnet::{ClusterSpec, RankCtx, World, WorldOutcome};

fn err(e: impl std::fmt::Display) -> simnet::SimError {
    simnet::SimError::InvalidConfig(e.to_string())
}

fn stack(vendor: Vendor, ctx: &Rc<RankCtx>) -> ManaMpi {
    let shim = MukShim::load(vendor, ctx.clone());
    ManaMpi::launch(ctx.clone(), ManaConfig::default(), Box::new(shim))
}

#[test]
fn wrapper_forwards_and_counts() {
    let spec = ClusterSpec::builder().nodes(1).ranks_per_node(2).build();
    let out = World::run(&spec, |ctx| {
        let mut mana = stack(Vendor::Mpich, &ctx);
        let me = mana.comm_rank(Handle::COMM_WORLD).map_err(err)?;
        let other = 1 - me;
        mana.send(
            &[9u8; 8],
            Datatype::Byte.handle(),
            other,
            5,
            Handle::COMM_WORLD,
        )
        .map_err(err)?;
        let mut buf = [0u8; 8];
        let st = mana
            .recv(
                &mut buf,
                Datatype::Byte.handle(),
                other,
                5,
                Handle::COMM_WORLD,
            )
            .map_err(err)?;
        assert_eq!(st.source, other);
        assert_eq!(buf, [9u8; 8]);
        // Counters: one send to `other`, one receive from `other`.
        Ok((ctx.counters().context_switches, me))
    })
    .unwrap();
    // Every wrapper call crosses twice; at least send+recv+comm_rank = 3
    // calls = 6 switches.
    for (switches, _) in out.results {
        assert!(
            switches >= 6,
            "context switches must be counted, got {switches}"
        );
    }
}

#[test]
fn mana_overhead_visible_on_old_kernel_only() {
    let time_with = |kernel| {
        let spec = ClusterSpec::builder()
            .nodes(1)
            .ranks_per_node(2)
            .kernel(kernel)
            .build();
        let out: WorldOutcome<u64> = World::run(&spec, |ctx| {
            let mut mana = stack(Vendor::Mpich, &ctx);
            let me = mana.comm_rank(Handle::COMM_WORLD).map_err(err)?;
            let other = 1 - me;
            let mut buf = [0u8; 8];
            for _ in 0..100 {
                mana.sendrecv(
                    &[1u8; 8],
                    other,
                    0,
                    &mut buf,
                    other,
                    0,
                    Datatype::Byte.handle(),
                    Handle::COMM_WORLD,
                )
                .map_err(err)?;
            }
            Ok(ctx.now().as_nanos())
        })
        .unwrap();
        out.results[0]
    };
    let old = time_with(simnet::KernelVersion::CENTOS7);
    let new = time_with(simnet::KernelVersion::MODERN);
    assert!(
        old > new,
        "FSGSBASE syscall fallback must cost extra virtual time: old={old} new={new}"
    );
    // 101 wrapper calls cross the split-process boundary: one comm_rank
    // plus the 100 sendrecvs.
    let per_call = 2 * (SWITCH_SYSCALL.as_nanos() - SWITCH_FSGSBASE.as_nanos());
    assert_eq!(
        old - new,
        101 * per_call,
        "delta must be exactly the switch-cost difference"
    );
}

/// A tiny stateful "application" for checkpoint tests: accumulates a ring
/// value into memory across steps.
fn ring_step(mana: &mut ManaMpi, mem: &mut Memory, step: u64) -> AbiResult<()> {
    let me = mana.comm_rank(Handle::COMM_WORLD)?;
    let n = mana.comm_size(Handle::COMM_WORLD)?;
    let next = (me + 1) % n;
    let prev = (me + n - 1) % n;
    let acc = mem.f64s_mut("acc", 1);
    let payload = (acc[0] + me as f64 + step as f64).to_le_bytes();
    mana.send(
        &payload,
        Datatype::Double.handle(),
        next,
        7,
        Handle::COMM_WORLD,
    )?;
    let mut buf = [0u8; 8];
    mana.recv(
        &mut buf,
        Datatype::Double.handle(),
        prev,
        7,
        Handle::COMM_WORLD,
    )?;
    mem.f64s_mut("acc", 1)[0] += f64::from_le_bytes(buf);
    Ok(())
}

fn run_ring_uninterrupted(vendor: Vendor, nsteps: u64) -> Vec<f64> {
    let spec = ClusterSpec::builder().nodes(1).ranks_per_node(3).build();
    World::run(&spec, |ctx| {
        let mut mana = stack(vendor, &ctx);
        let mut mem = Memory::new();
        mem.f64s_mut("acc", 1);
        for step in 0..nsteps {
            ring_step(&mut mana, &mut mem, step).map_err(err)?;
        }
        Ok(mem.f64s("acc").unwrap()[0])
    })
    .unwrap()
    .results
}

#[test]
fn checkpoint_stop_restart_other_vendor_same_answer() {
    let nsteps = 8u64;
    let ckpt_at = 3u64;
    let expect = run_ring_uninterrupted(Vendor::OpenMpi, nsteps);

    // Phase 1: run under Open MPI, checkpoint-and-stop at step 3.
    let spec = ClusterSpec::builder().nodes(1).ranks_per_node(3).build();
    let coord = Coordinator::new(spec.nranks());
    let coord_for_ranks = coord.clone();
    let outcome = World::run(&spec, move |ctx| {
        let coord = coord_for_ranks.clone();
        let mut agent = coord.agent(ctx.rank());
        let mut mana = stack(Vendor::OpenMpi, &ctx);
        let mut mem = Memory::new();
        mem.f64s_mut("acc", 1);
        for step in 0..nsteps {
            // Safe point between steps: every rank announces the cut
            // before polling there, as a session's policy does.
            if step == ckpt_at {
                coord.schedule_checkpoint_at(step, CkptMode::Stop);
            }
            match maybe_checkpoint(&mut mana, &mut agent, &mem, step).map_err(err)? {
                CkptAction::Stop { .. } => return Ok(None),
                CkptAction::Taken { .. } | CkptAction::None => {}
            }
            ring_step(&mut mana, &mut mem, step).map_err(err)?;
        }
        Ok(Some(mem.f64s("acc").unwrap()[0]))
    })
    .unwrap();
    assert!(
        outcome.results.iter().all(Option::is_none),
        "world must stop at checkpoint"
    );
    let image = coord
        .take_world_image("Open MPI")
        .expect("checkpoint image collected");
    assert_eq!(image.vendor_hint, "Open MPI");
    assert_eq!(image.nranks(), 3);

    // Phase 2: restart under MPICH and finish.
    let images = std::sync::Arc::new(image);
    let out = World::run(&spec, move |ctx| {
        let shim = MukShim::load(Vendor::Mpich, ctx.clone());
        let restored = restore_rank(
            ctx.clone(),
            ManaConfig::default(),
            Box::new(shim),
            &images.ranks[ctx.rank()],
        )
        .map_err(err)?;
        let mut mana = restored.mana;
        let mut mem = restored.memory;
        assert!(mana.library_version().contains("mpich-sim"));
        for step in restored.resume_step..nsteps {
            ring_step(&mut mana, &mut mem, step).map_err(err)?;
        }
        Ok(mem.f64s("acc").unwrap()[0])
    })
    .unwrap();
    assert_eq!(
        out.results, expect,
        "cross-vendor restart must preserve the computation"
    );
}

#[test]
fn in_flight_messages_survive_checkpoint_via_pool() {
    // Rank 0 sends BEFORE the checkpoint; rank 1 receives only AFTER the
    // restart. The message must travel through the drain pool.
    let nsteps_msg = 0xBEEFu64;
    let spec = ClusterSpec::builder().nodes(1).ranks_per_node(2).build();
    let coord = Coordinator::new(2);
    let coord_for_ranks = coord.clone();
    let _ = World::run(&spec, move |ctx| {
        let mut agent = coord_for_ranks.agent(ctx.rank());
        let mut mana = stack(Vendor::Mpich, &ctx);
        let mut mem = Memory::new();
        if ctx.rank() == 0 {
            mana.send(
                &nsteps_msg.to_le_bytes(),
                Datatype::Uint64.handle(),
                1,
                42,
                Handle::COMM_WORLD,
            )
            .map_err(err)?;
        }
        // Both ranks checkpoint at a cut scheduled at step 0; rank 1
        // never posted the recv, so the message is still in flight there.
        coord_for_ranks.schedule_checkpoint_at(0, CkptMode::Stop);
        let action = maybe_checkpoint(&mut mana, &mut agent, &mem, 0).map_err(err)?;
        assert!(matches!(action, CkptAction::Stop { .. }), "mode was Stop");
        if ctx.rank() == 1 {
            assert_eq!(mana.pooled(), 1, "the in-flight message must be drained");
        }
        mem.set_u64("done", 1);
        Ok(())
    })
    .unwrap();
    let image = coord.take_world_image("MPICH").expect("image");

    // Restart under the OTHER vendor; rank 1 now receives.
    let images = std::sync::Arc::new(image);
    let out = World::run(&spec, move |ctx| {
        let shim = MukShim::load(Vendor::OpenMpi, ctx.clone());
        let restored = restore_rank(
            ctx.clone(),
            ManaConfig::default(),
            Box::new(shim),
            &images.ranks[ctx.rank()],
        )
        .map_err(err)?;
        let mut mana = restored.mana;
        if ctx.rank() == 1 {
            // Probe sees the pooled message, then receive it.
            let st = mana
                .iprobe(consts::ANY_SOURCE, consts::ANY_TAG, Handle::COMM_WORLD)
                .map_err(err)?
                .expect("pooled message visible to probe");
            assert_eq!(st.source, 0);
            assert_eq!(st.tag, 42);
            let mut buf = [0u8; 8];
            let st = mana
                .recv(
                    &mut buf,
                    Datatype::Uint64.handle(),
                    0,
                    42,
                    Handle::COMM_WORLD,
                )
                .map_err(err)?;
            assert_eq!(st.source, 0);
            return Ok(u64::from_le_bytes(buf));
        }
        Ok(0)
    })
    .unwrap();
    assert_eq!(out.results[1], 0xBEEF);
}

#[test]
fn dynamic_objects_replayed_across_vendors() {
    // Create a dup, a split, and a derived type before the checkpoint;
    // use them after a cross-vendor restart.
    let spec = ClusterSpec::builder().nodes(1).ranks_per_node(4).build();
    let coord = Coordinator::new(4);
    let coord_for_ranks = coord.clone();
    let _ = World::run(&spec, move |ctx| {
        let mut agent = coord_for_ranks.agent(ctx.rank());
        let mut mana = stack(Vendor::OpenMpi, &ctx);
        let mut mem = Memory::new();
        let me = mana.comm_rank(Handle::COMM_WORLD).map_err(err)?;
        let dup = mana.comm_dup(Handle::COMM_WORLD).map_err(err)?;
        let sub = mana
            .comm_split(Handle::COMM_WORLD, me % 2, me)
            .map_err(err)?;
        let vec2 = mana
            .type_contiguous(2, Datatype::Double.handle())
            .map_err(err)?;
        mana.type_commit(vec2).map_err(err)?;
        // Remember the virtual handles in checkpointed memory — they are
        // plain u64s, exactly what "the application keeps references" means.
        mem.set_u64("dup", dup.raw());
        mem.set_u64("sub", sub.raw());
        mem.set_u64("vec2", vec2.raw());
        // Everyone checkpoints at a cut scheduled at step 1.
        coord_for_ranks.schedule_checkpoint_at(1, CkptMode::Stop);
        let action = maybe_checkpoint(&mut mana, &mut agent, &mem, 1).map_err(err)?;
        assert!(matches!(action, CkptAction::Stop { .. }), "mode was Stop");
        Ok(())
    })
    .unwrap();
    let image = coord.take_world_image("Open MPI").expect("image");

    let images = std::sync::Arc::new(image);
    let out = World::run(&spec, move |ctx| {
        let shim = MukShim::load(Vendor::Mpich, ctx.clone());
        let restored = restore_rank(
            ctx.clone(),
            ManaConfig::default(),
            Box::new(shim),
            &images.ranks[ctx.rank()],
        )
        .map_err(err)?;
        let mut mana = restored.mana;
        let mem = restored.memory;
        let dup = Handle::from_raw(mem.get_u64("dup").unwrap());
        let sub = Handle::from_raw(mem.get_u64("sub").unwrap());
        let vec2 = Handle::from_raw(mem.get_u64("vec2").unwrap());
        // The virtual handles still work over the NEW vendor.
        assert_eq!(mana.comm_size(dup).map_err(err)?, 4);
        assert_eq!(mana.comm_size(sub).map_err(err)?, 2);
        assert_eq!(mana.type_size(vec2).map_err(err)?, 16);
        // And they carry real traffic: allreduce over the split comm.
        let me_sub = mana.comm_rank(sub).map_err(err)?;
        let mut out = vec![0u8; 8];
        mana.allreduce(
            &(me_sub as f64 + 1.0).to_le_bytes(),
            &mut out,
            Datatype::Double.handle(),
            ReduceOp::Sum.handle(),
            sub,
        )
        .map_err(err)?;
        Ok(f64::from_le_bytes(out[..].try_into().unwrap()))
    })
    .unwrap();
    // Each split half has ranks {0,1} → sum = 1+2 = 3.
    assert_eq!(out.results, vec![3.0; 4]);
}

#[test]
fn user_op_requires_registration() {
    fn my_min(inv: &[u8], io: &mut [u8], _e: usize) {
        for (a, b) in inv.chunks_exact(8).zip(io.chunks_exact_mut(8)) {
            let x = f64::from_le_bytes(a.try_into().unwrap());
            let y = f64::from_le_bytes(b.try_into().unwrap());
            b.copy_from_slice(&x.min(y).to_le_bytes());
        }
    }
    fn unregistered(_: &[u8], _: &mut [u8], _e: usize) {}

    let spec = ClusterSpec::builder().nodes(1).ranks_per_node(2).build();
    mana_sim::ops::register("test.my_min", my_min);
    let out = World::run(&spec, |ctx| {
        let mut mana = stack(Vendor::Mpich, &ctx);
        // Unregistered op fails with Unsupported.
        assert_eq!(
            mana.op_create(unregistered, true),
            Err(mpi_abi::AbiError::Unsupported)
        );
        // Registered op works end-to-end.
        let op = mana.op_create(my_min, true).map_err(err)?;
        let me = mana.comm_rank(Handle::COMM_WORLD).map_err(err)?;
        let mine = ((me + 2) as f64).to_le_bytes();
        let mut out = vec![0u8; 8];
        mana.allreduce(
            &mine,
            &mut out,
            Datatype::Double.handle(),
            op,
            Handle::COMM_WORLD,
        )
        .map_err(err)?;
        Ok(f64::from_le_bytes(out[..].try_into().unwrap()))
    })
    .unwrap();
    assert_eq!(out.results, vec![2.0, 2.0]);
}
