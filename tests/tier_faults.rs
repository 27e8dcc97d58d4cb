//! Fault-injection battery for the delta store's remote second tier:
//! scripted upload errors, torn objects, and slow tiers racing retention
//! GC — in every scenario the chain must stay restorable, locally or
//! from the tier.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mpi_stool::apps::WaveMpi;
use mpi_stool::dmtcp::testing::{Fault, Op, Script};
use mpi_stool::dmtcp::{
    DeltaStore, FsTier, MemTier, ObjectTier, RankImage, SharedStoreWriter, StoreConfig, StoreError,
    TierConfig, TierError, WorldImage,
};
use mpi_stool::simnet::telemetry::{Histogram, Telemetry};
use mpi_stool::simnet::ClusterSpec;
use mpi_stool::stool::{
    Checkpoint, Checkpointer, DurabilityPolicy, FaultSchedule, RunOutcome, Session, StorePolicy,
    TierPolicy,
};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stool_tier_faults_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic pseudorandom bytes (xorshift64*): realistic content
/// that neither dedups away nor compresses to nothing.
fn fill_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

/// A world image whose "static" section is stable per rank and whose
/// "hot" section follows `fill`.
fn image(epoch: u64, nranks: usize, fill: u8, static_len: usize) -> WorldImage {
    let ranks = (0..nranks)
        .map(|r| {
            let mut img = RankImage::new(r, nranks, epoch);
            img.put_section("static", fill_bytes(r as u64 + 1, static_len));
            img.put_section("hot", fill_bytes((fill as u64) << 8 | r as u64, 700));
            img
        })
        .collect();
    WorldImage::new("MPICH".to_string(), ranks)
}

fn small_cfg() -> StoreConfig {
    StoreConfig {
        block_size: 128,
        retain_epochs: 4,
        max_chain: 4,
        ..StoreConfig::default()
    }
}

/// Fast-retry shipper config for fault tests.
fn tier_cfg() -> TierConfig {
    TierConfig {
        max_attempts: 4,
        backoff: Duration::from_millis(1),
    }
}

#[test]
fn upload_errors_mid_epoch_are_retried_with_backoff() {
    let store_dir = tmp_dir("retry_store");
    let tier_dir = tmp_dir("retry_tier");
    let script = Script::new();
    let tier = script.wrap(Arc::new(FsTier::open(&tier_dir).unwrap()));
    // Two failures strike in the middle of the epoch's object sequence
    // (blocks, manifest, seal): the shipper must retry past both.
    script.push(Op::Put, [Fault::Fail, Fault::Fail]);

    let mut store =
        DeltaStore::open_with_tier(&store_dir, small_cfg(), tier.clone(), tier_cfg()).unwrap();
    store.commit(&image(1, 2, 0x11, 2000)).unwrap();
    store.tier_flush().expect("retries must absorb both faults");
    assert_eq!(store.tier_durable(), vec![1]);
    let stats = store.tier_stats().unwrap();
    assert_eq!(stats.epochs_shipped, 1);
    assert!(stats.put_retries >= 2, "stats: {stats:?}");
    assert!(stats.bytes_shipped > 0);
    // Restore still succeeds — locally and from the tier alone.
    assert_eq!(store.load_latest().unwrap(), image(1, 2, 0x11, 2000));
    drop(store);
    std::fs::remove_dir_all(&store_dir).unwrap();
    let hydrated = DeltaStore::open_with_tier(&store_dir, small_cfg(), tier, tier_cfg()).unwrap();
    assert_eq!(hydrated.load_latest().unwrap(), image(1, 2, 0x11, 2000));
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

#[test]
fn persistent_upload_failure_goes_sticky_but_never_loses_local_state() {
    let store_dir = tmp_dir("sticky_store");
    let tier_dir = tmp_dir("sticky_tier");
    let script = Script::new();
    let tier = script.wrap(Arc::new(FsTier::open(&tier_dir).unwrap()));
    // More consecutive failures than the attempt budget: the shipper
    // error goes sticky after max_attempts.
    script.push(Op::Put, [Fault::Fail; 32]);

    let cfg = StoreConfig {
        retain_epochs: 1,
        max_chain: 0, // every epoch a full base: GC would normally keep 1
        ..small_cfg()
    };
    let mut store = DeltaStore::open_with_tier(&store_dir, cfg, tier, tier_cfg()).unwrap();
    for e in 1..=5 {
        store.commit(&image(e, 2, e as u8, 1500)).unwrap();
    }
    match store.tier_flush() {
        Err(StoreError::Tier(TierError::Io { .. })) => {}
        other => panic!("expected the sticky injected failure, got {other:?}"),
    }
    let stats = store.tier_stats().unwrap();
    assert_eq!(stats.epochs_shipped, 0);
    assert_eq!(stats.ship_failures, 1, "first epoch failed, then sticky");
    // Nothing is durable remotely, so the GC guard retained every epoch
    // a plain store would have collected.
    assert!(store.tier_durable().is_empty());
    assert_eq!(store.epochs(), &[1, 2, 3, 4, 5]);
    // Every epoch still restores from the local chain.
    for e in 1..=5 {
        assert_eq!(store.load_epoch(e).unwrap(), image(e, 2, e as u8, 1500));
    }
    drop(store);
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

#[test]
fn torn_object_is_rejected_by_crc_and_reuploaded() {
    let store_dir = tmp_dir("torn_store");
    let tier_dir = tmp_dir("torn_tier");
    let script = Script::new();
    let tier = script.wrap(Arc::new(FsTier::open(&tier_dir).unwrap()));
    // Every object of the first epoch lands torn once: the put reports
    // success but the stored bytes are short. Only read-back CRC
    // verification can catch this; each object must be re-uploaded.
    script.push(Op::Put, [Fault::Torn; 3]);

    let mut store =
        DeltaStore::open_with_tier(&store_dir, small_cfg(), tier.clone(), tier_cfg()).unwrap();
    store.commit(&image(1, 2, 0x33, 2500)).unwrap();
    store
        .tier_flush()
        .expect("torn uploads must be re-uploaded");
    let stats = store.tier_stats().unwrap();
    assert!(
        stats.put_retries >= 3,
        "one re-upload per torn object: {stats:?}"
    );
    assert_eq!(store.tier_durable(), vec![1]);
    drop(store);

    // The tier copy is bit-perfect: delete the whole local store and
    // hydrate from the tier alone.
    std::fs::remove_dir_all(&store_dir).unwrap();
    let store = DeltaStore::open_with_tier(&store_dir, small_cfg(), tier, tier_cfg()).unwrap();
    assert_eq!(store.epochs(), &[1]);
    assert_eq!(store.load_latest().unwrap(), image(1, 2, 0x33, 2500));
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

#[test]
fn slow_tier_cannot_race_gc_into_deleting_an_unshipped_epoch() {
    // The durability-guard regression test: retention is aggressive
    // (keep 1, all-full-base epochs) but the tier is stalled, so GC must
    // retain every unshipped epoch; once the tier drains, the next
    // commit collects them.
    let store_dir = tmp_dir("gcrace_store");
    let tier_dir = tmp_dir("gcrace_tier");
    let script = Script::new();
    let tier = script.wrap(Arc::new(FsTier::open(&tier_dir).unwrap()));
    script.hold(true);

    let cfg = StoreConfig {
        retain_epochs: 1,
        max_chain: 0, // every epoch a self-contained full base
        ..small_cfg()
    };
    let mut store = DeltaStore::open_with_tier(&store_dir, cfg, tier.clone(), tier_cfg()).unwrap();
    for e in 1..=5 {
        let s = store.commit(&image(e, 2, e as u8, 1200)).unwrap();
        assert!(s.full);
    }
    // The shipper is wedged inside the held upload: nothing durable,
    // nothing deletable — retain_epochs=1 notwithstanding.
    assert!(store.tier_durable().is_empty());
    assert_eq!(store.epochs(), &[1, 2, 3, 4, 5]);
    for e in 1..=5 {
        assert_eq!(store.load_epoch(e).unwrap(), image(e, 2, e as u8, 1200));
    }

    // Release the tier; once every epoch is durable the next commit's GC
    // applies the configured retention again.
    script.hold(false);
    store.tier_flush().unwrap();
    assert_eq!(store.tier_durable(), vec![1, 2, 3, 4, 5]);
    store.commit(&image(6, 2, 6, 1200)).unwrap();
    store.tier_flush().unwrap();
    assert!(
        store.epochs().len() <= 2,
        "durable epochs must be collectable again: {:?}",
        store.epochs()
    );
    assert_eq!(store.load_latest().unwrap(), image(6, 2, 6, 1200));
    drop(store);

    // And the collected epochs live on in the tier: a remote-only
    // restore of the newest epoch works.
    std::fs::remove_dir_all(&store_dir).unwrap();
    let store = DeltaStore::open_with_tier(&store_dir, cfg, tier, tier_cfg()).unwrap();
    assert_eq!(store.load_latest().unwrap(), image(6, 2, 6, 1200));
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

#[test]
fn open_with_tier_heals_a_quarantined_head_from_the_tier() {
    let store_dir = tmp_dir("heal_store");
    let tier_dir = tmp_dir("heal_tier");
    let tier: Arc<dyn ObjectTier> = Arc::new(FsTier::open(&tier_dir).unwrap());
    {
        let mut store =
            DeltaStore::open_with_tier(&store_dir, small_cfg(), tier.clone(), tier_cfg()).unwrap();
        for e in 1..=3 {
            store.commit(&image(e, 2, e as u8, 1800)).unwrap();
        }
        store.tier_flush().unwrap();
    }
    // Rot the chain head's manifest on disk: the open quarantines it.
    let head_manifest = store_dir.join("epoch_000003").join("manifest.bin");
    let mut buf = std::fs::read(&head_manifest).unwrap();
    let mid = buf.len() / 2;
    buf[mid] ^= 0xFF;
    std::fs::write(&head_manifest, &buf).unwrap();

    // The tier-attached open hydrates the quarantined head back from its
    // sealed copy and drops the `.bad` twin.
    let mut store = DeltaStore::open_with_tier(&store_dir, small_cfg(), tier, tier_cfg()).unwrap();
    assert!(store.quarantined().is_empty(), "quarantine list cleared");
    assert_eq!(store.epochs(), &[1, 2, 3]);
    assert!(!store_dir.join("epoch_000003.bad").exists(), ".bad dropped");
    assert_eq!(store.load_latest().unwrap(), image(3, 2, 3, 1800));

    // The healed chain keeps working: the next commit extends it.
    let s4 = store.commit(&image(4, 2, 4, 1800)).unwrap();
    assert!(!s4.full, "healed head serves as the delta base");
    assert_eq!(store.load_latest().unwrap(), image(4, 2, 4, 1800));
    // Dropping the store joins its shipper, which may still be putting
    // epoch 4 into the tier directory.
    drop(store);
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

#[test]
fn a_quarantined_head_without_a_tier_copy_stays_for_forensics() {
    let store_dir = tmp_dir("noheal_store");
    let tier_dir = tmp_dir("noheal_tier");
    {
        let mut store = DeltaStore::open_with(&store_dir, small_cfg()).unwrap();
        for e in 1..=2 {
            store.commit(&image(e, 2, e as u8, 900)).unwrap();
        }
    }
    let head_manifest = store_dir.join("epoch_000002").join("manifest.bin");
    std::fs::write(&head_manifest, b"garbage").unwrap();

    // An empty tier has nothing to hydrate from: the .bad directory stays.
    let tier: Arc<dyn ObjectTier> = Arc::new(FsTier::open(&tier_dir).unwrap());
    let store = DeltaStore::open_with_tier(&store_dir, small_cfg(), tier, tier_cfg()).unwrap();
    assert_eq!(store.quarantined(), &[2]);
    assert!(
        store_dir.join("epoch_000002.bad").is_dir(),
        "kept for forensics"
    );
    // The fallback chain still restores.
    assert_eq!(store.load_latest().unwrap(), image(1, 2, 1, 900));
    drop(store);
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

#[test]
fn missing_base_under_a_current_head_is_hydrated_back() {
    // Partial disk damage: the chain head survives but its *base* epoch
    // directory is lost. The tier-attached open must notice the head's
    // manifest references a missing epoch and pull exactly that epoch
    // back — the local head being current is no excuse to skip repair.
    let store_dir = tmp_dir("basegap_store");
    let tier_dir = tmp_dir("basegap_tier");
    let tier: Arc<dyn ObjectTier> = Arc::new(FsTier::open(&tier_dir).unwrap());
    {
        let mut store =
            DeltaStore::open_with_tier(&store_dir, small_cfg(), tier.clone(), tier_cfg()).unwrap();
        store.commit(&image(1, 2, 1, 2000)).unwrap(); // full base
        store.commit(&image(2, 2, 2, 2000)).unwrap(); // delta on 1
        store.commit(&image(3, 2, 3, 2000)).unwrap(); // delta on 1
        store.tier_flush().unwrap();
    }
    // The base vanishes; the head (epoch 3) is intact and current.
    std::fs::remove_dir_all(store_dir.join("epoch_000001")).unwrap();
    {
        // Without the tier the chain is broken at restore time.
        let broken = DeltaStore::open_with(&store_dir, small_cfg()).unwrap();
        assert!(matches!(
            broken.load_latest(),
            Err(StoreError::MissingEpoch { epoch: 1 })
        ));
    }
    let store = DeltaStore::open_with_tier(&store_dir, small_cfg(), tier, tier_cfg()).unwrap();
    assert!(
        store_dir.join("epoch_000001").is_dir(),
        "base hydrated back"
    );
    assert_eq!(store.load_latest().unwrap(), image(3, 2, 3, 2000));
    assert_eq!(store.load_epoch(1).unwrap(), image(1, 2, 1, 2000));
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

#[test]
fn stale_seal_from_a_quarantined_predecessor_is_reshipped_not_trusted() {
    // Quarantine + epoch-number reuse: the tier still holds the
    // quarantined predecessor's content under the reused number. The
    // reconcile must notice the seal's manifest CRC disagrees with the
    // local epoch, treat it as NOT durable (GC must not delete the only
    // copy of the current content), and re-ship — so a remote-only
    // restore returns the *current* state, never the stale one.
    let store_dir = tmp_dir("staleseal_store");
    let tier_dir = tmp_dir("staleseal_tier");
    let tier: Arc<dyn ObjectTier> = Arc::new(FsTier::open(&tier_dir).unwrap());
    {
        let mut store =
            DeltaStore::open_with_tier(&store_dir, small_cfg(), tier.clone(), tier_cfg()).unwrap();
        store.commit(&image(1, 2, 1, 1200)).unwrap();
        store.commit(&image(2, 2, 0xAA, 1200)).unwrap(); // content A ships
        store.tier_flush().unwrap();
    }
    // Epoch 2's local manifest rots; a tier-less open quarantines it and
    // the next commit reuses number 2 with content B.
    let manifest = store_dir.join("epoch_000002").join("manifest.bin");
    std::fs::write(&manifest, b"garbage").unwrap();
    {
        let mut store = DeltaStore::open_with(&store_dir, small_cfg()).unwrap();
        assert_eq!(store.quarantined(), &[2]);
        let s = store.commit(&image(2, 2, 0xBB, 1200)).unwrap(); // content B
        assert_eq!(s.epoch, 2);
    }
    // Reattach the tier: the stale seal must not count as durable.
    {
        let store =
            DeltaStore::open_with_tier(&store_dir, small_cfg(), tier.clone(), tier_cfg()).unwrap();
        store.tier_flush().unwrap();
        assert_eq!(store.tier_durable(), vec![1, 2]);
        let stats = store.tier_stats().unwrap();
        assert!(
            stats.epochs_shipped >= 1,
            "the mismatched epoch must be re-shipped: {stats:?}"
        );
    }
    // Remote-only restore now returns content B, bit-identically.
    std::fs::remove_dir_all(&store_dir).unwrap();
    let store = DeltaStore::open_with_tier(&store_dir, small_cfg(), tier, tier_cfg()).unwrap();
    assert_eq!(store.load_latest().unwrap(), image(2, 2, 0xBB, 1200));
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

#[test]
fn background_writer_ships_through_the_tier_end_to_end() {
    // The full async pipeline: the writer commits in the background, the
    // shipper uploads behind it, and a remote-only reopen restores.
    let store_dir = tmp_dir("writer_store");
    let tier_dir = tmp_dir("writer_tier");
    let tier: Arc<dyn ObjectTier> = Arc::new(FsTier::open(&tier_dir).unwrap());
    let store =
        DeltaStore::open_with_tier(&store_dir, small_cfg(), tier.clone(), tier_cfg()).unwrap();
    let writer = SharedStoreWriter::spawn_stores(vec![store]);
    for e in 1..=3 {
        writer.submit(0, image(e, 3, e as u8, 1400)).unwrap();
    }
    writer.flush_lane(0).unwrap();
    let store = writer.finish().unwrap().pop().unwrap();
    assert_eq!(store.stats().len(), 3);
    store.tier_flush().unwrap();
    assert_eq!(store.tier_durable(), vec![1, 2, 3]);
    drop(store);

    std::fs::remove_dir_all(&store_dir).unwrap();
    let store = DeltaStore::open_with_tier(&store_dir, small_cfg(), tier, tier_cfg()).unwrap();
    assert_eq!(store.load_latest().unwrap(), image(3, 3, 3, 1400));
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

#[test]
fn download_errors_during_hydration_are_retried() {
    let store_dir = tmp_dir("get_retry_store");
    let tier_dir = tmp_dir("get_retry_tier");
    let script = Script::new();
    let tier = script.wrap(Arc::new(FsTier::open(&tier_dir).unwrap()));
    let mut store =
        DeltaStore::open_with_tier(&store_dir, small_cfg(), tier.clone(), tier_cfg()).unwrap();
    store.commit(&image(1, 2, 0x21, 1500)).unwrap();
    store.tier_flush().unwrap();
    drop(store);

    // Remote-only reopen with two transient download failures in the
    // middle of the hydration object sequence: the retrying get path
    // must absorb both.
    std::fs::remove_dir_all(&store_dir).unwrap();
    script.push(Op::Get, [Fault::Fail, Fault::Fail]);
    let hydrated =
        DeltaStore::open_with_tier(&store_dir, small_cfg(), tier.clone(), tier_cfg()).unwrap();
    assert_eq!(hydrated.load_latest().unwrap(), image(1, 2, 0x21, 1500));
    assert!(
        script.injected() >= 2,
        "both scripted faults fired: {}",
        script.injected()
    );
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

/// The image of epoch `head` of a chain in which every epoch adds a
/// section the later ones keep.
fn grown(head: u64) -> WorldImage {
    let ranks = (0..3)
        .map(|r| {
            let mut img = RankImage::new(r, 3, head);
            for e in 1..=head {
                img.put_section(&format!("e{e}"), fill_bytes(e << 8 | r as u64, 2000));
            }
            img
        })
        .collect();
    WorldImage::new("MPICH".to_string(), ranks)
}

/// A tier holding a shipped base and three deltas of [`grown`]: the
/// head references all four epochs.
fn shipped_grown_chain() -> Arc<MemTier> {
    let tier = Arc::new(MemTier::new());
    let mut store = DeltaStore::open_on(Arc::new(MemTier::new()), small_cfg()).unwrap();
    store.attach_tier(tier.clone(), tier_cfg()).unwrap();
    for epoch in 1..=4 {
        store.commit(&grown(epoch)).unwrap();
    }
    store.tier_flush().unwrap();
    tier
}

#[test]
fn a_failed_blocks_put_installs_no_manifest_and_the_retry_installs_the_chain() {
    let tier = shipped_grown_chain();

    // Hydrating into an empty volume, the third put fails. The four
    // blocks puts race each other on the writer threads, but every one
    // of them comes before the first manifest, so whichever put gets the
    // fault, the hydration fails with no epoch committed.
    let script = Script::new();
    script.at(Op::Put, 2, Fault::Fail);
    let local = script.wrap(Arc::new(MemTier::new()));
    let attach = || {
        let mut store = DeltaStore::open_on(local.clone(), small_cfg())?;
        let installed = store.attach_tier(tier.clone(), tier_cfg())?;
        Ok::<_, StoreError>((store, installed))
    };
    assert!(attach().is_err(), "the failed put fails the hydration");
    assert_eq!(script.injected(), 1);
    assert_eq!(script.calls(Op::Put, Some("blocks.bin")), 4);
    assert_eq!(script.calls(Op::Put, Some("manifest.bin")), 0);

    // The retried attach installs the whole chain, byte-equal to the tier.
    let (store, installed) = attach().unwrap();
    assert_eq!(installed, vec![1, 2, 3, 4]);
    assert_eq!(store.load_latest().unwrap(), grown(4));
    let objects = local.list("").unwrap();
    assert_eq!(objects.len(), 8, "{objects:?}");
    for key in objects {
        assert_eq!(local.get(&key).unwrap(), tier.get(&key).unwrap(), "{key}");
    }
}

/// A local volume that logs its puts and deletes in order and counts the
/// `blocks.bin` bytes its reads deliver. With `fail_after`, its first
/// `blocks.bin` put waits for a reading of that histogram, then fails.
struct Logged {
    inner: MemTier,
    log: Mutex<Vec<String>>,
    block_bytes: AtomicU64,
    fail_after: Option<Histogram>,
}

impl Logged {
    fn new(fail_after: Option<Histogram>) -> Arc<Logged> {
        Arc::new(Logged {
            inner: MemTier::new(),
            log: Mutex::new(Vec::new()),
            block_bytes: AtomicU64::new(0),
            fail_after,
        })
    }

    fn log(&self) -> Vec<String> {
        self.log.lock().unwrap().clone()
    }

    fn read(&self, key: &str, read: Result<Vec<u8>, TierError>) -> Result<Vec<u8>, TierError> {
        if let (true, Ok(data)) = (key.ends_with("/blocks.bin"), &read) {
            self.block_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        read
    }
}

impl ObjectTier for Logged {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), TierError> {
        let first_blocks = {
            let mut log = self.log.lock().unwrap();
            log.push(format!("put {key}"));
            let blocks = log
                .iter()
                .filter(|l| l.starts_with("put") && l.ends_with("blocks.bin"));
            key.ends_with("/blocks.bin") && blocks.count() == 1
        };
        if let (Some(decoding), true) = (&self.fail_after, first_blocks) {
            while decoding.count() == 0 {
                // lint:allow(no-free-running-harness) — until the head's decode has read its manifest
                std::thread::yield_now();
            }
            let msg = "injected while the head decodes".to_string();
            return Err(TierError::Io {
                op: "put",
                key: key.to_string(),
                msg,
            });
        }
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, TierError> {
        self.read(key, self.inner.get(key))
    }

    fn get_ranges(&self, key: &str, ranges: &[Range<u64>]) -> Result<Vec<u8>, TierError> {
        self.read(key, self.inner.get_ranges(key, ranges))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, TierError> {
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<(), TierError> {
        self.log.lock().unwrap().push(format!("delete {key}"));
        self.inner.delete(key)
    }
}

#[test]
fn a_hydrating_restore_decodes_the_fetched_bytes_and_installs_them_as_before() {
    let tier = shipped_grown_chain();
    let local = Logged::new(None);
    let mut store = DeltaStore::open_on(local.clone(), small_cfg()).unwrap();
    let tel = Telemetry::detached();
    store.attach_telemetry(tel.clone());
    let (hydrated, head) = store
        .attach_tier_and_load(tier.clone(), tier_cfg())
        .unwrap();
    assert_eq!(hydrated, vec![1, 2, 3, 4]);
    assert_eq!(head, grown(4));
    // The load read the fetched bytes, not their local copies: every
    // block of the four epochs is referenced, so it read them all.
    assert_eq!(local.block_bytes.load(Ordering::Relaxed), 0);
    let epoch_blocks = |e: u64| tier.get(&format!("epoch_{e:06}/blocks.bin")).unwrap();
    let referenced: u64 = (1..=4).map(|e| epoch_blocks(e).len() as u64).sum();
    let read_bytes = tel.metrics().counter("store.load.read_bytes").get();
    assert_eq!(read_bytes, referenced);
    // The install: the four blocks puts in any order, then per epoch,
    // oldest first, its manifest and the deletes of a stale `.bad` twin.
    let log = local.log();
    let (mut blocks, rest) = (log[..4].to_vec(), &log[4..]);
    blocks.sort();
    let key = |e: u64, dir: &str, name: &str| format!("epoch_{e:06}{dir}/{name}");
    let want: Vec<String> = (1..=4)
        .map(|e| format!("put {}", key(e, "", "blocks.bin")))
        .collect();
    assert_eq!(blocks, want);
    let want: Vec<String> = (1..=4)
        .flat_map(|e| {
            [
                format!("put {}", key(e, "", "manifest.bin")),
                format!("delete {}", key(e, ".bad", "manifest.bin")),
                format!("delete {}", key(e, ".bad", "blocks.bin")),
            ]
        })
        .collect();
    assert_eq!(rest, want);
    // The installed chain restores the same head from its own volume.
    assert_eq!(store.load_latest().unwrap(), head);
    assert!(local.block_bytes.load(Ordering::Relaxed) > 0);
}

#[test]
fn a_blocks_put_failing_while_the_head_decodes_fails_the_restore_and_installs_no_manifest() {
    let tier = shipped_grown_chain();
    let tel = Telemetry::detached();
    let local = Logged::new(Some(tel.metrics().histogram("store.load.manifest_us")));
    let mut store = DeltaStore::open_on(local.clone(), small_cfg()).unwrap();
    store.attach_telemetry(tel.clone());
    let err = store.attach_tier_and_load(tier, tier_cfg()).unwrap_err();
    assert!(
        err.to_string().contains("injected while the head decodes"),
        "{err}"
    );
    let manifests = local
        .log()
        .into_iter()
        .filter(|l| l.ends_with("manifest.bin"));
    assert_eq!(manifests.count(), 0, "{:?}", local.log());
    assert!(store.epochs().is_empty(), "{:?}", store.epochs());
    let reopened = DeltaStore::open_on(local.clone(), small_cfg()).unwrap();
    assert!(reopened.epochs().is_empty());
}

#[test]
fn torn_seal_download_hides_the_epoch_never_installs_garbage() {
    let store_dir = tmp_dir("get_torn_store");
    let tier_dir = tmp_dir("get_torn_tier");
    let script = Script::new();
    let tier = script.wrap(Arc::new(FsTier::open(&tier_dir).unwrap()));
    let mut store =
        DeltaStore::open_with_tier(&store_dir, small_cfg(), tier.clone(), tier_cfg()).unwrap();
    store.commit(&image(1, 2, 0x31, 1500)).unwrap();
    store.tier_flush().unwrap();
    drop(store);
    let open = || DeltaStore::open_with_tier(&store_dir, small_cfg(), tier.clone(), tier_cfg());

    // A torn seal download "succeeds" with bad bytes; only its checksum
    // can catch it. One torn read is read again, and the epoch installs.
    std::fs::remove_dir_all(&store_dir).unwrap();
    script.push(Op::Get, [Fault::Torn]);
    let seal_gets = script.calls(Op::Get, Some("seal"));
    let hydrated = open().unwrap();
    assert_eq!(hydrated.load_latest().unwrap(), image(1, 2, 0x31, 1500));
    assert_eq!(
        script.calls(Op::Get, Some("seal")) - seal_gets,
        3,
        "the listing re-reads the torn seal, then the fetch reads it once"
    );
    drop(hydrated);

    // A seal torn on every attempt hides the epoch: the listing treats it
    // as unsealed, never installs anything from it.
    std::fs::remove_dir_all(&store_dir).unwrap();
    script.push(Op::Get, [Fault::Torn; 4]);
    let hydrated = open().unwrap();
    assert!(
        matches!(hydrated.load_latest(), Err(StoreError::Empty)),
        "a seal torn on every read must hide the epoch, not install garbage"
    );
    drop(hydrated);
    std::fs::remove_dir_all(&store_dir).unwrap();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

#[test]
fn rotted_tier_object_surfaces_corrupt_not_garbage() {
    let store_dir = tmp_dir("rot_store");
    let tier_dir = tmp_dir("rot_tier");
    let fs: Arc<FsTier> = Arc::new(FsTier::open(&tier_dir).unwrap());
    let mut store =
        DeltaStore::open_with_tier(&store_dir, small_cfg(), fs.clone(), tier_cfg()).unwrap();
    store.commit(&image(1, 2, 0x51, 1500)).unwrap();
    store.tier_flush().unwrap();
    drop(store);

    // The tier-side blocks object rots (truncated in place): the seal
    // still decodes, so hydration fetches the epoch — and must refuse
    // the payload on the seal's length/CRC verification.
    let mut blocks = fs.get("epoch_000001/blocks.bin").unwrap();
    blocks.pop();
    fs.put("epoch_000001/blocks.bin", &blocks).unwrap();
    std::fs::remove_dir_all(&store_dir).unwrap();
    let err = DeltaStore::open_with_tier(&store_dir, small_cfg(), fs, tier_cfg())
        .map(|_| ())
        .expect_err("a rotted object must not hydrate");
    assert!(
        matches!(err, StoreError::Tier(TierError::Corrupt { .. })),
        "expected Corrupt, got {err:?}"
    );
    std::fs::remove_dir_all(&store_dir).ok();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

#[test]
fn unreachable_tier_fails_the_hydrating_open_after_max_attempts() {
    let store_dir = tmp_dir("get_unreachable_store");
    let tier_dir = tmp_dir("get_unreachable_tier");
    let script = Script::new();
    let tier = script.wrap(Arc::new(FsTier::open(&tier_dir).unwrap()));
    let mut store =
        DeltaStore::open_with_tier(&store_dir, small_cfg(), tier.clone(), tier_cfg()).unwrap();
    store.commit(&image(1, 2, 0x41, 1500)).unwrap();
    store.tier_flush().unwrap();
    drop(store);

    // Every download fails: the hydration tries its first get
    // `max_attempts` times, without sleeping, and fails the open with the
    // last attempt's error.
    std::fs::remove_dir_all(&store_dir).unwrap();
    script.push(Op::Get, [Fault::Fail; 64]);
    let gets = script.calls(Op::Get, None);
    let cfg = TierConfig {
        max_attempts: 5,
        backoff: Duration::ZERO,
    };
    let err = DeltaStore::open_with_tier(&store_dir, small_cfg(), tier, cfg)
        .map(|_| ())
        .expect_err("an unreachable tier must not hydrate");
    assert!(
        matches!(&err, StoreError::Tier(TierError::Io { op: "get", msg, .. }) if msg.contains("Fail")),
        "expected the last get's injected failure, got {err:?}"
    );
    assert_eq!(script.calls(Op::Get, None) - gets, 5, "one get per attempt");
    std::fs::remove_dir_all(&store_dir).ok();
    std::fs::remove_dir_all(&tier_dir).unwrap();
}

#[test]
fn a_killed_run_ships_nothing_past_its_sticky_shipper() {
    // One scripted upload failure at one attempt makes the run's shipper
    // sticky; the node kill then fails the run, which names its chain
    // head. Nothing may reach the tier behind the run's recorder: no
    // seal, and the snapshot's count of shipped epochs stays at zero.
    let root = tmp_dir("killed_sticky");
    let tier_dir = root.join("tier");
    let mut store = StorePolicy::new(root.join("chain"));
    store.tier = Some(TierPolicy {
        dir: tier_dir.clone(),
        config: TierConfig {
            max_attempts: 1,
            backoff: Duration::from_millis(1),
        },
    });
    let session = Session::builder()
        .cluster(ClusterSpec::builder().nodes(2).ranks_per_node(3).build())
        .checkpointer(Checkpointer::mana())
        .checkpoint_every(20)
        .durability(DurabilityPolicy {
            store: Some(store),
            ..DurabilityPolicy::default()
        })
        .fault_schedule(
            FaultSchedule::default()
                .tier_put_faults([Fault::Fail])
                .kill_nodes(75, [1]),
        )
        .build()
        .unwrap();
    let solver = WaveMpi {
        npoints: 900,
        nsteps: 100,
        ..WaveMpi::default()
    };
    let outcome = session.launch(&solver).unwrap();
    assert!(
        matches!(
            outcome,
            RunOutcome::Failed {
                checkpoint: Some(Checkpoint::Stored { .. }),
                ..
            }
        ),
        "the kill fails the run, which names its last epoch"
    );
    let tier = FsTier::open(&tier_dir).unwrap();
    let seals: Vec<String> = tier
        .list("")
        .unwrap()
        .into_iter()
        .filter(|k| k.ends_with("/seal"))
        .collect();
    assert!(seals.is_empty(), "the tier holds seals: {seals:?}");
    let snap = session.telemetry().unwrap();
    let stats = snap.tier.unwrap();
    assert_eq!(stats.epochs_shipped, 0, "{stats:?}");
    assert_eq!(snap.metrics()["tier.ship_failures"].scalar(), 1);
    std::fs::remove_dir_all(&root).unwrap();
}
