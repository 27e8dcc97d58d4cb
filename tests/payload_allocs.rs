//! Work counters of the message path: once a rank's payload pool is
//! warm, a large message allocates nothing.
//!
//! A counting `#[global_allocator]` lives in this test binary only (a
//! library crate never installs one), and the binary holds one `#[test]`
//! so no other test allocates while it counts. The world is a small
//! full stack (MANA over the standard ABI over MPICH) running the OSU
//! alltoall at a block above the inline cap, so every payload is a heap
//! buffer: posted alltoall at 4 KiB, each rank sending to every other
//! before it receives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use mpi_stool::apps::{OsuKernel, OsuLatency};
use mpi_stool::simnet::ClusterSpec;
use mpi_stool::stool::{Checkpointer, Session, Vendor};

/// Counts heap allocations of at least [`LARGE_FROM`] bytes.
struct Counting;

/// Allocations this large or larger are counted; `usize::MAX` counts none.
static LARGE_FROM: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicU64 = AtomicU64::new(0);

impl Counting {
    fn note(size: usize) {
        if size >= LARGE_FROM.load(Ordering::Relaxed) {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
    }
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
    LARGE.store(0, Ordering::SeqCst);
    LARGE_FROM.store(BLOCK, Ordering::SeqCst);
    let out = session.launch(&bench).unwrap();
    LARGE_FROM.store(usize::MAX, Ordering::SeqCst);
    let large = LARGE.load(Ordering::SeqCst);
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

/// Large allocations do not grow with the iteration count, and the pool
/// misses exactly once per (sender, receiver) pair: the first alltoall
/// fills each rank's pool with the n − 1 buffers its peers sent it, and
/// every later send takes one of those.
#[test]
fn a_warm_alltoall_allocates_no_payload() {
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
