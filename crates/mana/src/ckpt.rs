//! Checkpoint execution and restart.
//!
//! The sequence (per rank, coordinated by the `dmtcp-sim` coordinator):
//!
//! 1. **Quiesce** — the application sits at a wrapper safe point with no
//!    incomplete nonblocking requests (enforced);
//! 2. **Counter exchange** — every rank publishes how many point-to-point
//!    messages it has sent to / received from every peer;
//! 3. **Drain** — each rank receives its in-flight deficit through the MPI
//!    library itself (`iprobe` + `recv` per live communicator, exactly the
//!    real MANA mechanism) into the upper-half [`crate::pool::DrainPool`];
//! 4. **Serialize** — upper-half memory + virtual-id replay log + pool +
//!    counters + resume position become a [`dmtcp_sim::RankImage`];
//! 5. **Resume or stop** — per the coordinator's mode.
//!
//! **Restart** (possibly under a different MPI vendor): build a fresh lower
//! half, replay the log to rebind virtual ids, restore pool/counters/memory
//! and hand the application its resume position.

use std::rc::Rc;
use std::sync::Arc;

use dmtcp_sim::codec::{Reader, Writer};
use dmtcp_sim::coordinator::{CkptMode, Poll, RankAgent};
use dmtcp_sim::image::RankImage;
use dmtcp_sim::memory::Memory;
use mpi_abi::{consts, AbiError, AbiResult, Datatype, MpiAbi};
use simnet::RankCtx;

use crate::config::{ManaConfig, DRAIN_MSG_OVERHEAD};
use crate::pool::{DrainPool, PooledMsg};
use crate::vids::VidTable;
use crate::wrappers::ManaMpi;

/// Section names within a rank image.
pub mod sections {
    /// Resume metadata (step counter).
    pub const META: &str = "meta";
    /// The modelled static upper half (program text/rodata), present
    /// when [`crate::ManaConfig::static_image_bytes`] is nonzero. Its
    /// content is a pure function of `(rank, size)`, so it is carried
    /// with a constant clean-segment hint and the delta store never
    /// re-hashes it after the chain base.
    pub const TEXT: &str = "text";
    /// The ordered list of upper-half memory segment names (upper-half
    /// memory is one section per segment, see [`MEMORY_PREFIX`]).
    pub const MEMORY_INDEX: &str = "memory.index";
    /// Prefix of per-segment memory sections (`memory/<segment>`). One
    /// image section per segment keeps the delta store's chunk boundaries
    /// aligned with the natural structure of the application state: an
    /// unchanged segment dedups wholesale no matter how its neighbours
    /// grew or shrank.
    pub const MEMORY_PREFIX: &str = "memory/";
    /// Virtual-id replay log.
    pub const VIDS: &str = "mana.vids";
    /// Drained in-flight messages.
    pub const POOL: &str = "mana.pool";
    /// Point-to-point counters.
    pub const COUNTERS: &str = "mana.counters";
}

/// What happened at a checkpoint safe point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptAction {
    /// No checkpoint was requested; keep running.
    None,
    /// A checkpoint was taken; keep running (mode `Continue`).
    Taken {
        /// Bytes written to the image.
        image_bytes: usize,
    },
    /// A checkpoint was taken and the world must stop (mode `Stop`).
    Stop {
        /// Bytes written to the image.
        image_bytes: usize,
    },
}

/// Poll the coordinator at an application safe point, and take the
/// checkpoint if this safe point is a scheduled cut. Called by the
/// run-time's `checkpoint_point` after it has announced any cut at this
/// step (`Coordinator::schedule_checkpoint_at`). `resume_step` is the step
/// about to execute; every rank announces the same cut before polling
/// there, so the checkpoint happens at the *same* step on every rank (see
/// `dmtcp_sim::coordinator` for the protocol and its deadlock argument).
pub fn maybe_checkpoint(
    mana: &mut ManaMpi,
    agent: &mut RankAgent,
    memory: &Memory,
    resume_step: u64,
) -> AbiResult<CkptAction> {
    // Report this rank's virtual-clock position alongside the poll so
    // flight-recorder events from the coordinator and its background
    // threads are stamped no earlier than the safe point that caused them.
    let vnow = mana.ctx.now().as_nanos();
    let session = match agent
        .poll_at(resume_step, vnow)
        .map_err(|_| AbiError::Ckpt)?
    {
        Poll::None => return Ok(CkptAction::None),
        Poll::Enter(session) => session,
    };
    if mana.outstanding() > 0 {
        // MANA drains *network* traffic; application-level requests must be
        // complete at a safe point (our workloads always are).
        return Err(AbiError::Unsupported);
    }
    let rank = session.rank();
    let epoch = session.epoch();
    let pending = session
        .exchange_counters(&mana.sent_to, &mana.rcvd_from)
        .map_err(|_| AbiError::Ckpt)?;
    drain(mana, &pending)?;

    let image = build_image(mana, memory, resume_step, rank, epoch);
    let image_bytes = image.total_bytes();
    // Charge what the checkpoint costs this rank: the synchronous image
    // write to the parallel filesystem, or — when the session attached an
    // asynchronous delta store — only the hand-off to the background
    // writer (the store takes ownership at the rendezvous barrier).
    mana.ctx
        .advance(mana.config.ckpt_critical_path_time(image_bytes));
    session.submit_image(image);
    match session.finish().map_err(|_| AbiError::Ckpt)? {
        CkptMode::Continue => Ok(CkptAction::Taken { image_bytes }),
        CkptMode::Stop => Ok(CkptAction::Stop { image_bytes }),
    }
}

/// Receive every in-flight message into the pool. `pending[j]` is how many
/// messages from world rank `j` are still on the wire towards this rank.
/// A pass that receives nothing while a deficit remains is
/// [`AbiError::Ckpt`]: no later pass could find more.
fn drain(mana: &mut ManaMpi, pending: &[u64]) -> AbiResult<()> {
    let mut remaining: Vec<u64> = pending.to_vec();
    let mut total: u64 = remaining.iter().sum();
    while total > 0 {
        let mut progressed = false;
        for vcomm in mana.vids.live_comms() {
            let real = mana.vids.real_of(vcomm)?;
            while let Some(st) = mana
                .lower
                .iprobe(consts::ANY_SOURCE, consts::ANY_TAG, real)?
            {
                let mut buf = vec![0u8; st.count_bytes as usize];
                let st =
                    mana.lower
                        .recv(&mut buf, Datatype::Byte.handle(), st.source, st.tag, real)?;
                let world = mana.lower.comm_translate_rank(real, st.source)?;
                let world = usize::try_from(world).map_err(|_| AbiError::Rank)?;
                mana.rcvd_from[world] += 1;
                remaining[world] = remaining[world].saturating_sub(1);
                mana.pool.push(PooledMsg {
                    vcomm,
                    src: st.source,
                    tag: st.tag,
                    payload: buf,
                });
                mana.ctx.advance(DRAIN_MSG_OVERHEAD);
                progressed = true;
            }
        }
        total = remaining.iter().sum();
        if total > 0 && !progressed {
            // The transport is eager: every counted send was in a mailbox
            // before the counter exchange. A pass that finds nothing owes
            // a message no live communicator holds (one sent on a
            // communicator this rank has freed), and a retry would spin.
            return Err(AbiError::Ckpt);
        }
    }
    Ok(())
}

/// Serialize one rank's state into an image.
fn build_image(
    mana: &mut ManaMpi,
    memory: &Memory,
    resume_step: u64,
    rank: usize,
    epoch: u64,
) -> RankImage {
    let nranks = mana.ctx.nranks();
    let mut image = RankImage::new(rank, nranks, epoch);

    let mut w = Writer::new();
    w.u64(resume_step);
    image.put_section(sections::META, w.finish());

    // The modelled static upper half: deterministic per (rank, size),
    // hinted clean with a constant stamp so the delta store skips both
    // hashing and rewriting it on every epoch after the base — exactly
    // what real program text costs a checkpoint after the first image.
    if mana.config.static_image_bytes > 0 {
        image.put_section_hinted(
            sections::TEXT,
            static_text(rank, mana.config.static_image_bytes),
            0,
        );
    }

    // Upper-half memory: one image section per segment plus an index, so
    // the delta store sees segment boundaries as section boundaries.
    // Each segment travels with its generation stamp — the clean-segment
    // hint that lets the store skip chunking and hashing segments the
    // application has not touched since the previous epoch. The same
    // stamp lets this rank re-reference the bytes it encoded then: stamps
    // are unique in the process, so an unmoved one means unchanged bytes.
    let mut idx = Writer::new();
    let names: Vec<&str> = memory.names().collect();
    idx.u64(names.len() as u64);
    for name in &names {
        idx.string(name);
    }
    image.put_section(sections::MEMORY_INDEX, idx.into_raw());
    let mut cached = std::mem::take(&mut mana.segments);
    for name in names {
        let generation = memory.generation(name).expect("name from names()");
        let data = match cached.remove(name) {
            Some((stamp, data)) if stamp == generation => data,
            _ => Arc::new(memory.encode_segment(name).expect("name from names()")),
        };
        let section = format!("{}{name}", sections::MEMORY_PREFIX);
        image.put_section_shared(&section, data.clone(), generation);
        mana.segments.insert(name.to_string(), (generation, data));
    }

    let mut w = Writer::new();
    mana.vids.encode_log(&mut w);
    image.put_section(sections::VIDS, w.finish());

    let mut w = Writer::new();
    mana.pool.encode(&mut w);
    image.put_section(sections::POOL, w.finish());

    let mut w = Writer::new();
    w.u64(mana.sent_to.len() as u64);
    for &v in &mana.sent_to {
        w.u64(v);
    }
    for &v in &mana.rcvd_from {
        w.u64(v);
    }
    image.put_section(sections::COUNTERS, w.finish());

    image
}

/// The modelled static upper half of one rank: pointer-table-shaped
/// 64-bit words (realistically compressible under the store's shuffled
/// LZ filter, unlike random noise; realistically *unique* per offset,
/// unlike constant fill that would collapse under dedup).
fn static_text(rank: usize, bytes: usize) -> Vec<u8> {
    let words = bytes / 8;
    let base = 0x5555_0000_0000u64 + ((rank as u64) << 32);
    let mut v = Vec::with_capacity(words * 8);
    for i in 0..words as u64 {
        v.extend_from_slice(&(base + i * 64 + (i % 7) * 13).to_le_bytes());
    }
    v
}

/// The restored state of one rank.
pub struct Restored {
    /// The wrapper, bound to the (possibly different) new lower half with
    /// all virtual ids replayed.
    pub mana: ManaMpi,
    /// The application's upper-half memory.
    pub memory: Memory,
    /// Where the application should resume.
    pub resume_step: u64,
}

/// Restore a rank from its image over a **fresh lower half** — the lower
/// half may be a different MPI implementation than the one checkpointed
/// under; the image never references vendor state. The memory sections
/// move into the restored [`Memory`] when `image` alone holds them; a
/// borrowed image (`&RankImage`) shares them, and they are copied.
pub fn restore_rank(
    ctx: Rc<RankCtx>,
    config: ManaConfig,
    mut lower: Box<dyn MpiAbi>,
    image: impl Into<RankImage>,
) -> Result<Restored, String> {
    let mut image = image.into();
    if image.nranks != ctx.nranks() {
        return Err(format!(
            "image is for a {}-rank world, cluster has {} ranks",
            image.nranks,
            ctx.nranks()
        ));
    }
    if image.rank != ctx.rank() {
        return Err(format!(
            "image rank {} restored on rank {}",
            image.rank,
            ctx.rank()
        ));
    }

    let meta = image
        .section(sections::META)
        .ok_or("missing meta section")?;
    let mut r = Reader::checked(meta).map_err(|e| e.to_string())?;
    let resume_step = r.u64().map_err(|e| e.to_string())?;

    let idx = image
        .take_section(sections::MEMORY_INDEX)
        .ok_or("missing memory index section")?;
    let mut r = Reader::raw(&idx);
    let count = r.u64().map_err(|e| e.to_string())?;
    if count > 1 << 24 {
        return Err(format!("memory index claims {count} segments"));
    }
    let mut memory = Memory::new();
    for _ in 0..count {
        let name = r.string().map_err(|e| e.to_string())?;
        let data = image
            .take_section(&format!("{}{name}", sections::MEMORY_PREFIX))
            .ok_or_else(|| format!("missing memory segment {name}"))?;
        memory
            .insert_segment(&name, data)
            .map_err(|e| format!("memory segment {name}: {e}"))?;
    }

    let vids_bytes = image
        .section(sections::VIDS)
        .ok_or("missing vids section")?;
    let mut r = Reader::checked(vids_bytes).map_err(|e| e.to_string())?;
    let log = VidTable::decode_log(&mut r).map_err(|e| e.to_string())?;
    // Replay the creation log against the new lower half (collective:
    // every rank of the restored world runs this in lockstep).
    let vids = VidTable::replay(log, ctx.nranks(), lower.as_mut())
        .map_err(|e| format!("vid replay failed: {e}"))?;

    let pool_bytes = image
        .section(sections::POOL)
        .ok_or("missing pool section")?;
    let mut r = Reader::checked(pool_bytes).map_err(|e| e.to_string())?;
    let pool = DrainPool::decode(&mut r).map_err(|e| e.to_string())?;

    let ctr_bytes = image
        .section(sections::COUNTERS)
        .ok_or("missing counters section")?;
    let mut r = Reader::checked(ctr_bytes).map_err(|e| e.to_string())?;
    let n = r.u64().map_err(|e| e.to_string())? as usize;
    if n != ctx.nranks() {
        return Err("counter matrix size mismatch".to_string());
    }
    let mut sent_to = Vec::with_capacity(n);
    for _ in 0..n {
        sent_to.push(r.u64().map_err(|e| e.to_string())?);
    }
    let mut rcvd_from = Vec::with_capacity(n);
    for _ in 0..n {
        rcvd_from.push(r.u64().map_err(|e| e.to_string())?);
    }

    let mana = ManaMpi {
        ctx,
        config,
        lower,
        vids,
        pool,
        sent_to,
        rcvd_from,
        reqs: std::collections::HashMap::new(),
        segments: std::collections::HashMap::new(),
    };
    Ok(Restored {
        mana,
        memory,
        resume_step,
    })
}
