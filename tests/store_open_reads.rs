//! What an open of the checkpoint store reads, and why reading less does
//! not change what the next commit writes.
//!
//! An open decodes the head manifest only. The chain length behind a
//! delta head — how many deltas since the newest full base — is walked
//! back by the first commit that needs it. A load reads, of each
//! `blocks.bin` the head references, only the ranges it references.
//! These tests count the manifests and block bytes an open and a load
//! read, and hold a handle reopened after any commit to the full/delta
//! sequence and the stored bytes of a handle that never closed.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpi_stool::dmtcp::testing::{Op, Script};
use mpi_stool::dmtcp::{
    DeltaStore, MemTier, ObjectTier, RankImage, StoreConfig, TierError, WorldImage,
};
use mpi_stool::simnet::telemetry::Telemetry;

/// A volume that counts the `blocks.bin` bytes its reads deliver.
struct Metered {
    inner: Arc<dyn ObjectTier>,
    block_bytes: AtomicU64,
}

impl Metered {
    fn count(&self, key: &str, read: Result<Vec<u8>, TierError>) -> Result<Vec<u8>, TierError> {
        if let (true, Ok(data)) = (key.ends_with("/blocks.bin"), &read) {
            self.block_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        read
    }

    fn block_bytes(&self) -> u64 {
        self.block_bytes.load(Ordering::Relaxed)
    }
}

impl ObjectTier for Metered {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), TierError> {
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, TierError> {
        self.count(key, self.inner.get(key))
    }

    fn get_ranges(&self, key: &str, ranges: &[Range<u64>]) -> Result<Vec<u8>, TierError> {
        self.count(key, self.inner.get_ranges(key, ranges))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, TierError> {
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<(), TierError> {
        self.inner.delete(key)
    }
}

/// Every object on `vol`, by key.
fn objects(vol: &dyn ObjectTier) -> BTreeMap<String, Vec<u8>> {
    let keys = vol.list("").unwrap();
    keys.into_iter()
        .map(|key| {
            let data = vol.get(&key).unwrap();
            (key, data)
        })
        .collect()
}

fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

/// The image committed at `step`: a static section every epoch shares
/// and a hot one no other epoch holds. No section carries a hint, so a
/// reopened handle chunks exactly what a running one does.
fn world(step: u64) -> WorldImage {
    let ranks = (0..3usize)
        .map(|r| {
            let mut img = RankImage::new(r, 3, step);
            img.put_section("static", noise(r as u64 + 1, 3000));
            img.put_section("hot", noise(step << 8 | r as u64, 600));
            img
        })
        .collect();
    WorldImage::new("MPICH".to_string(), ranks)
}

/// `max_chain` deltas per base, and nothing collected.
fn cfg(max_chain: usize) -> StoreConfig {
    StoreConfig {
        block_size: 128,
        retain_epochs: 64,
        max_chain,
        writer_threads: 2,
        ..StoreConfig::default()
    }
}

#[test]
fn an_open_and_a_load_read_the_head_manifest_twice_and_no_other() {
    let script = Script::new();
    let vol = Arc::new(Metered {
        inner: script.wrap(Arc::new(MemTier::new())),
        block_bytes: AtomicU64::new(0),
    });
    let mut store = DeltaStore::open_on(vol.clone(), cfg(8)).unwrap();
    for step in 1..=9 {
        store.commit(&world(step)).unwrap();
    }
    assert_eq!(
        store.stats().iter().map(|s| s.full).collect::<Vec<_>>(),
        [[true].as_slice(), &[false; 8]].concat(),
        "a base and eight deltas"
    );
    drop(store);
    let size = |epoch: u64| {
        let key = format!("epoch_{epoch:06}/blocks.bin");
        vol.inner.get(&key).unwrap().len() as u64
    };
    let chain: u64 = (1..=9).map(size).sum();
    // Noise is stored raw: the base holds each rank's 600 B "hot" section
    // then its 3000 B "static" one, the head its three "hot" sections.
    let (base, head) = (size(1), size(9));
    assert_eq!((base, head), (3 * 3600, 3 * 600));

    let manifest_gets = || script.calls(Op::Get, Some("manifest.bin"));
    let block_gets = || script.calls(Op::Get, Some("blocks.bin"));
    let before = (manifest_gets(), block_gets(), vol.block_bytes());
    let mut store = DeltaStore::open_on(vol.clone(), cfg(8)).unwrap();
    let tel = Telemetry::detached();
    store.attach_telemetry(tel.clone());
    assert_eq!(store.load_latest().unwrap(), world(9));
    // One decode at open, one at load: the eight manifests behind the
    // head are not read.
    assert_eq!(manifest_gets() - before.0, 2);
    // One get of each blocks.bin the head references: the base's and
    // its own.
    assert_eq!(block_gets() - before.1, 2);
    // The head references every "static" block of the base and every
    // block of its own. The base's first 600 B (rank 0's old "hot") are
    // not read; the 600 B gaps between the "static" sections are, as
    // part of one merged range.
    let referenced = base - 600 + head;
    assert_eq!(vol.block_bytes() - before.2, referenced);
    let read_bytes = tel.metrics().counter("store.load.read_bytes").get();
    assert_eq!(read_bytes, referenced);
    assert!(
        referenced < chain,
        "{referenced} B of the chain's {chain} B"
    );
}

/// Commit `steps` images, reopening the handle after commit `reopen_at`
/// (never, with `None`): the full/delta sequence and the volume after.
fn chain(
    max_chain: usize,
    steps: u64,
    reopen_at: Option<u64>,
) -> (Vec<bool>, BTreeMap<String, Vec<u8>>) {
    let vol: Arc<dyn ObjectTier> = Arc::new(MemTier::new());
    let mut store = DeltaStore::open_on(vol.clone(), cfg(max_chain)).unwrap();
    let mut fulls = Vec::new();
    for step in 1..=steps {
        fulls.push(store.commit(&world(step)).unwrap().full);
        if reopen_at == Some(step) {
            drop(store);
            store = DeltaStore::open_on(vol.clone(), cfg(max_chain)).unwrap();
        }
    }
    (fulls, objects(&*vol))
}

#[test]
fn a_handle_reopened_after_any_commit_writes_what_a_running_one_writes() {
    for max_chain in [1, 3] {
        // Two full rebases and a delta after the second.
        let steps = 2 * (max_chain as u64 + 1) + 1;
        let (fulls, objects) = chain(max_chain, steps, None);
        let bases = fulls.iter().filter(|&&f| f).count();
        assert_eq!(bases, 3, "max_chain {max_chain}: {fulls:?}");
        for k in 0..=max_chain as u64 + 1 {
            let (reopened, after) = chain(max_chain, steps, Some(k));
            assert_eq!(reopened, fulls, "max_chain {max_chain}, reopened after {k}");
            assert!(
                after == objects,
                "max_chain {max_chain}, reopened after {k}: the stored bytes differ"
            );
        }
    }
}

#[test]
fn an_unreadable_older_manifest_makes_the_next_commit_a_base() {
    let vol: Arc<dyn ObjectTier> = Arc::new(MemTier::new());
    let mut store = DeltaStore::open_on(vol.clone(), cfg(8)).unwrap();
    for step in 1..=3 {
        store.commit(&world(step)).unwrap();
    }
    drop(store);
    // Rot the manifest of epoch 2, a delta behind the head.
    let key = "epoch_000002/manifest.bin";
    let mut manifest = vol.get(key).unwrap();
    manifest[0] ^= 0xFF;
    vol.put(key, &manifest).unwrap();

    let mut store = DeltaStore::open_on(vol.clone(), cfg(8)).unwrap();
    assert_eq!(store.epochs(), [1, 2, 3], "only a head is quarantined");
    assert_eq!(store.load_latest().unwrap(), world(3));
    // The chain length behind the head is unknowable: start a new base.
    let next = store.commit(&world(4)).unwrap();
    assert!(next.full, "the next commit must be a full base");
    assert_eq!(store.load_latest().unwrap(), world(4));
}
