//! Every crash point of the checkpoint store's durability protocols,
//! enumerated.
//!
//! One script drives a `DeltaStore` directly: six commits across a rebase
//! (so a base copies blocks its own epochs stored) and two collections,
//! each shipped to a second volume standing in for the remote tier, then a
//! hydrate of that tier into an empty volume. Every volume is a
//! [`CrashVol`] over a `MemTier`, and all of them count their mutating
//! operations (`put`, `delete`) on one counter. A remote put waits until
//! the script ships, so the order of operations depends on the script
//! alone, never on the shipper thread.
//!
//! Armed with `k`, the run either fails operation `k` and goes on, or
//! loses power before it: operation `k` and every later one fail. Then the
//! state the run left behind must hold up:
//!
//! * the local chain, reopened as it was frozen, lists only epochs that
//!   restore bit-identically to the image committed as that epoch, its
//!   head is no older than the newest commit that returned, and a retried
//!   commit restores;
//! * the tier, hydrated into an empty volume, restores its newest sealed
//!   epoch bit-identically (an epoch whose seal never landed is not
//!   shipped);
//! * the volume the script itself hydrated into, reopened, lists only
//!   epochs that restore.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mpi_stool::dmtcp::{
    DeltaStore, MemTier, ObjectTier, RankImage, StoreConfig, TierConfig, TierError, WorldImage,
};

/// Commits in the script: a base, two deltas, a rebase, two deltas.
const STEPS: u64 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Crash {
    /// Mutating operation `k` fails; the run goes on.
    Fail(u64),
    /// Power is lost before operation `k`: it and every later one fail.
    PowerLoss(u64),
}

/// What every volume of one run shares: the armed crash, the counter of
/// mutating operations, and the gate remote puts wait on.
struct Machine {
    crash: Option<Crash>,
    ops: AtomicU64,
    shipping: Mutex<bool>,
    cv: Condvar,
}

impl Machine {
    fn new(crash: Option<Crash>) -> Arc<Machine> {
        Arc::new(Machine {
            crash,
            ops: AtomicU64::new(0),
            shipping: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    /// Count one mutating operation: whether it fails.
    fn fails(&self) -> bool {
        let k = self.ops.fetch_add(1, Ordering::SeqCst);
        match self.crash {
            Some(Crash::Fail(at)) => k == at,
            Some(Crash::PowerLoss(at)) => k >= at,
            None => false,
        }
    }

    fn set_shipping(&self, open: bool) {
        *self.shipping.lock().unwrap() = open;
        self.cv.notify_all();
    }

    fn wait_shipping(&self) {
        let mut open = self.shipping.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
}

/// A `MemTier` whose mutating operations count on the machine and fail
/// as it is armed. A remote volume's puts also wait for the script to
/// ship.
struct CrashVol {
    inner: MemTier,
    machine: Arc<Machine>,
    remote: bool,
}

impl CrashVol {
    fn new(machine: &Arc<Machine>, remote: bool) -> Arc<CrashVol> {
        Arc::new(CrashVol {
            inner: MemTier::new(),
            machine: machine.clone(),
            remote,
        })
    }

    /// A writable copy of what the volume holds now.
    fn frozen(&self) -> Arc<MemTier> {
        let copy = MemTier::new();
        for key in self.inner.list("").unwrap() {
            copy.put(&key, &self.inner.get(&key).unwrap()).unwrap();
        }
        Arc::new(copy)
    }

    fn crashed(op: &'static str, key: &str) -> TierError {
        TierError::Io {
            op,
            key: key.to_string(),
            msg: "crash point".to_string(),
        }
    }
}

impl ObjectTier for CrashVol {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), TierError> {
        if self.remote {
            self.machine.wait_shipping();
        }
        if self.machine.fails() {
            return Err(CrashVol::crashed("put", key));
        }
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, TierError> {
        self.inner.get(key)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, TierError> {
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<(), TierError> {
        if self.machine.fails() {
            return Err(CrashVol::crashed("delete", key));
        }
        self.inner.delete(key)
    }
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

/// The image committed at `step`: a per-rank static section whose hint
/// never moves (a rebase copies its stored blocks) and a hot one that
/// changes every step.
fn world(step: u64) -> WorldImage {
    let ranks = (0..3usize)
        .map(|r| {
            let mut img = RankImage::new(r, 3, step);
            img.put_section_hinted("static", noise(r as u64 + 1, 3000), 1);
            img.put_section_hinted("hot", noise(step << 8 | r as u64, 600), 100 + step);
            img
        })
        .collect();
    WorldImage::new("MPICH".to_string(), ranks)
}

fn store_cfg() -> StoreConfig {
    StoreConfig {
        block_size: 128,
        retain_epochs: 2,
        max_chain: 2,
        writer_threads: 2,
        ..StoreConfig::default()
    }
}

/// One retry per upload, without sleeping: a single failed put heals.
fn tier_cfg() -> TierConfig {
    TierConfig {
        max_attempts: 2,
        backoff: Duration::ZERO,
        jitter_permille: 0,
        deadline: None,
    }
}

/// What one run of the script left behind.
struct Run {
    local: Arc<CrashVol>,
    remote: Arc<CrashVol>,
    hydrated: Arc<CrashVol>,
    /// The image meant for each epoch number, set before its commit.
    images: BTreeMap<u64, WorldImage>,
    /// The newest epoch whose commit returned.
    acked: Option<u64>,
    /// Whether the chain crossed a rebase and a collection.
    rebased: bool,
    collected: bool,
}

/// Open `vol` and attach `tier` to it, once more if the first try fails.
fn open_attached(vol: &Arc<CrashVol>, tier: &Arc<CrashVol>) -> Option<DeltaStore> {
    let attach = || {
        let mut store = DeltaStore::open_on(vol.clone(), store_cfg())?;
        store.attach_tier(tier.clone(), tier_cfg())?;
        Ok::<_, mpi_stool::dmtcp::StoreError>(store)
    };
    attach().or_else(|_| attach()).ok()
}

fn script(machine: &Arc<Machine>) -> Run {
    let mut run = Run {
        local: CrashVol::new(machine, false),
        remote: CrashVol::new(machine, true),
        hydrated: CrashVol::new(machine, false),
        images: BTreeMap::new(),
        acked: None,
        rebased: false,
        collected: false,
    };
    'script: {
        let Some(mut store) = open_attached(&run.local, &run.remote) else {
            break 'script;
        };
        for step in 1..=STEPS {
            let epoch = store.latest().map_or(1, |l| l + 1);
            let image = world(step);
            run.images.insert(epoch, image.clone());
            let committed = store.commit(&image).or_else(|_| store.commit(&image));
            machine.set_shipping(true);
            let shipped = store.tier_flush();
            machine.set_shipping(false);
            let Ok(stats) = committed else {
                break 'script;
            };
            run.acked = Some(stats.epoch);
            run.rebased |= stats.full && stats.epoch > 1;
            run.collected |= store.epochs().len() < stats.epoch as usize;
            if shipped.is_err() {
                break 'script;
            }
        }
        drop(store);
        open_attached(&run.hydrated, &run.remote);
    }
    machine.set_shipping(true);
    run
}

/// Every listed epoch of `store` restores to the image meant for it.
fn assert_listed_epochs_restore(store: &DeltaStore, run: &Run, what: &str) {
    for &epoch in store.epochs() {
        let back = store.load_epoch(epoch);
        assert!(
            back.as_ref().ok() == run.images.get(&epoch),
            "{what}: epoch {epoch} does not restore: {:?}",
            back.err()
        );
    }
}

fn check(crash: Crash, run: &Run) {
    let what = format!("{crash:?}");
    // The local chain as the crash froze it.
    let mut local = DeltaStore::open_on(run.local.frozen(), store_cfg())
        .unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
    assert!(
        local.latest() >= run.acked,
        "{what}: head {:?} lost the returned commit {:?}",
        local.latest(),
        run.acked
    );
    assert_listed_epochs_restore(&local, run, &what);
    let retry = world(STEPS + 1);
    local
        .commit(&retry)
        .unwrap_or_else(|e| panic!("{what}: retried commit failed: {e}"));
    assert!(local.load_latest().ok() == Some(retry), "{what}: retry");

    // The tier, hydrated into an empty volume: its newest sealed epoch.
    let tier = run.remote.frozen();
    let tier_head = (tier.list("").unwrap().iter())
        .filter_map(|key| {
            key.strip_prefix("epoch_")?
                .strip_suffix("/seal")?
                .parse()
                .ok()
        })
        .max();
    let mut from_tier = DeltaStore::open_on(Arc::new(MemTier::new()), store_cfg()).unwrap();
    from_tier
        .attach_tier(tier, tier_cfg())
        .unwrap_or_else(|e| panic!("{what}: hydrate failed: {e}"));
    assert_eq!(from_tier.latest(), tier_head, "{what}: tier head");
    assert_listed_epochs_restore(&from_tier, run, &format!("{what}, tier"));

    // The volume the script hydrated into.
    let hydrated = DeltaStore::open_on(run.hydrated.frozen(), store_cfg())
        .unwrap_or_else(|e| panic!("{what}: reopen of the hydrated volume failed: {e}"));
    assert_listed_epochs_restore(&hydrated, run, &format!("{what}, hydrated"));
}

#[test]
fn every_crash_point_leaves_a_chain_that_restores() {
    let clean = Machine::new(None);
    let run = script(&clean);
    let total = clean.ops.load(Ordering::SeqCst);
    assert_eq!(
        run.acked,
        Some(STEPS),
        "the unarmed script commits every step"
    );
    assert!(
        run.rebased && run.collected,
        "the chain rebases and collects"
    );
    let hydrated = DeltaStore::open_on(run.hydrated.frozen(), store_cfg()).unwrap();
    assert_eq!(hydrated.latest(), Some(STEPS), "the hydrate pulls the head");
    // Guard the enumeration's reach: commits, ships, collections and the
    // hydrate all put or delete.
    assert!(total >= 40, "only {total} mutating operations");

    let mut enumerated = 0;
    for k in 0..total {
        for crash in [Crash::Fail(k), Crash::PowerLoss(k)] {
            let machine = Machine::new(Some(crash));
            let run = script(&machine);
            check(crash, &run);
            enumerated += 1;
        }
    }
    println!("{enumerated} crash points over {total} mutating operations");
}
