//! Work counters of the message path: once a rank's payload pool is
//! warm, a message allocates nothing.
//!
//! A counting `#[global_allocator]` lives in this test binary only (a
//! library crate never installs one), and the binary holds one `#[test]`
//! so no other test allocates while it counts. Two worlds run under it:
//!
//! * a two-rank MPICH ping-pong through `Process::send` / `recv`, inline
//!   (8 B) and pooled (128 B, 4 KiB) payloads, counting every allocation;
//! * a small full stack (MANA over the standard ABI over MPICH) running
//!   the OSU alltoall at a block above the inline cap, so every payload
//!   is a heap buffer: posted alltoall at 4 KiB, each rank sending to
//!   every other before it receives, counting large allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use mpi_stool::apps::{OsuKernel, OsuLatency};
use mpi_stool::mpich::mpih::{Mpich, MPI_BYTE, MPI_COMM_WORLD};
use mpi_stool::simnet::mpi::Process;
use mpi_stool::simnet::{ClusterSpec, SimError, World};
use mpi_stool::stool::{Checkpointer, Session, Vendor};

/// Counts heap allocations of at least [`COUNT_FROM`] bytes.
struct Counting;

/// Allocations this large or larger are counted; `usize::MAX` counts
/// none, 0 counts all.
static COUNT_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);
static COUNTED: AtomicU64 = AtomicU64::new(0);

impl Counting {
    fn note(size: usize) {
        if size >= COUNT_FROM.load(Ordering::Relaxed) {
            COUNTED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// `f`'s result, and the allocations of at least `from` bytes made
/// while it ran.
fn counted<R>(from: usize, f: impl FnOnce() -> R) -> (R, u64) {
    COUNTED.store(0, Ordering::SeqCst);
    COUNT_FROM.store(from, Ordering::SeqCst);
    let out = f();
    COUNT_FROM.store(usize::MAX, Ordering::SeqCst);
    (out, COUNTED.load(Ordering::SeqCst))
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const BLOCK: usize = 4096;
const NODES: usize = 2;
const RANKS_PER_NODE: usize = 3;

/// Ping-pong sizes: inline, and two pooled payloads.
const PING_SIZES: [usize; 3] = [8, 128, 4096];
const PING_WARMUP: usize = 3;
const PING_ROUNDS: usize = 100;

/// A two-rank MPICH ping-pong: per size, [`PING_WARMUP`] round trips,
/// then [`PING_ROUNDS`] counted ones. Rank 0 counts every allocation of
/// the process from its first counted send to its last reply, and only
/// then releases rank 1 with one more message, so nothing outside the
/// round trips runs while it counts. Returns the count per size.
fn ping_pong() -> Vec<u64> {
    let spec = ClusterSpec::builder().nodes(1).ranks_per_node(2).build();
    let out = World::run(&spec, |ctx| {
        let native = |code| SimError::InvalidConfig(format!("native MPI error {code}"));
        let mut p = Process::<Mpich>::init(ctx.clone());
        let me = ctx.rank() as i32;
        let mut per_size = Vec::new();
        for size in PING_SIZES {
            let mut buf = vec![me as u8; size];
            let round = |p: &mut Process<Mpich>, buf: &mut [u8]| -> Result<(), i32> {
                if me == 0 {
                    p.send(buf, MPI_BYTE, 1, 0, MPI_COMM_WORLD)?;
                    p.recv(buf, MPI_BYTE, 1, 0, MPI_COMM_WORLD)?;
                } else {
                    p.recv(buf, MPI_BYTE, 0, 0, MPI_COMM_WORLD)?;
                    p.send(buf, MPI_BYTE, 0, 0, MPI_COMM_WORLD)?;
                }
                Ok(())
            };
            for _ in 0..PING_WARMUP {
                round(&mut p, &mut buf).map_err(native)?;
            }
            if me == 0 {
                let (res, allocs) = counted(0, || {
                    (0..PING_ROUNDS).try_for_each(|_| round(&mut p, &mut buf))
                });
                res.map_err(native)?;
                per_size.push(allocs);
                p.send(&buf, MPI_BYTE, 1, 1, MPI_COMM_WORLD)
                    .map_err(native)?;
            } else {
                for _ in 0..PING_ROUNDS {
                    round(&mut p, &mut buf).map_err(native)?;
                }
                p.recv(&mut buf, MPI_BYTE, 0, 1, MPI_COMM_WORLD)
                    .map_err(native)?;
            }
        }
        Ok(per_size)
    });
    out.unwrap().results.swap_remove(0)
}

/// One launch of the alltoall world at `iters` timed iterations; returns
/// the large allocations it made and its `fabric.payload_allocs`.
fn launch(iters: usize) -> (u64, u64) {
    let session = Session::builder()
        .cluster(
            ClusterSpec::builder()
                .nodes(NODES)
                .ranks_per_node(RANKS_PER_NODE)
                .build(),
        )
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .build()
        .unwrap();
    let bench = OsuLatency {
        kernel: OsuKernel::Alltoall,
        min_size: BLOCK,
        max_size: BLOCK,
        warmup: 1,
        iters,
        ckpt_window: None,
    };
    let (out, large) = counted(BLOCK, || session.launch(&bench).unwrap());
    assert!(out.is_completed());
    drop(out);
    let metrics = session
        .telemetry()
        .expect("snapshot after launch")
        .metrics();
    let misses = metrics
        .get("fabric.payload_allocs")
        .map_or(0, |m| m.scalar());
    (large, misses)
}

/// A warm ping-pong allocates nothing at any size: not a payload, not
/// its shared header, not a matcher index entry. In the alltoall, large
/// allocations do not grow with the iteration count, and the pool misses
/// exactly once per (sender, receiver) pair: the first alltoall fills
/// each rank's pool with the n − 1 buffers its peers sent it, and every
/// later send takes one of those.
#[test]
fn a_warm_message_allocates_nothing() {
    assert_eq!(
        ping_pong(),
        vec![0; PING_SIZES.len()],
        "allocations over {PING_ROUNDS} warm round trips at {PING_SIZES:?} B"
    );
    let ranks = (NODES * RANKS_PER_NODE) as u64;
    let (large_2, misses_2) = launch(2);
    let (large_8, misses_8) = launch(8);
    assert_eq!(
        large_2, large_8,
        "allocations of ≥ {BLOCK} B grew with the iteration count"
    );
    assert_eq!(misses_2, ranks * (ranks - 1));
    assert_eq!(misses_8, ranks * (ranks - 1));
}
