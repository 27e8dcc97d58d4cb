//! Every crash point of the checkpoint store's durability protocols,
//! enumerated.
//!
//! One script drives a `DeltaStore` directly: six commits across a rebase
//! (so a base copies blocks its own epochs stored) and two collections,
//! each shipped to a second volume standing in for the remote tier, then a
//! hydrate of that tier into an empty volume. Every volume is a
//! `ScriptedVol` over a `MemTier`, and all of them run one machine's
//! `Script`: their mutating operations (`put`, `delete`) count on one
//! counter. A remote put is held until the script ships, so the order of
//! operations depends on the script alone, never on the shipper thread.
//! The one race left is the hydrate's: its `blocks.bin` puts run on the
//! store's writer threads, so operation `k` among them strikes whichever
//! put comes `k`-th. All of them precede the first `manifest.bin` put,
//! so every such crash leaves the same state: blocks, no manifest.
//!
//! Armed with `k`, the run either fails operation `k` and goes on, or
//! loses power at it: operation `k` and every later one fail. Then the
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
use std::sync::Arc;
use std::time::Duration;

use mpi_stool::dmtcp::testing::{Fault, Op, Script, ScriptedVol};
use mpi_stool::dmtcp::{
    DeltaStore, MemTier, ObjectTier, RankImage, StoreConfig, TierConfig, WorldImage,
};

/// Commits in the script: a base, two deltas, a rebase, two deltas.
const STEPS: u64 = 6;

/// A writable copy of what `vol` holds now.
fn frozen(vol: &dyn ObjectTier) -> Arc<MemTier> {
    let copy = MemTier::new();
    for key in vol.list("").unwrap() {
        copy.put(&key, &vol.get(&key).unwrap()).unwrap();
    }
    Arc::new(copy)
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
        deadline: None,
    }
}

/// What one run of the script left behind.
struct Run {
    /// The script every volume runs: the armed crash and the counter.
    machine: Arc<Script>,
    local: Arc<ScriptedVol>,
    remote: Arc<ScriptedVol>,
    hydrated: Arc<ScriptedVol>,
    /// The image meant for each epoch number, set before its commit.
    images: BTreeMap<u64, WorldImage>,
    /// The newest epoch whose commit returned.
    acked: Option<u64>,
    /// Whether the chain crossed a rebase and a collection.
    rebased: bool,
    collected: bool,
}

/// Open `vol` and attach `tier` to it, once more if the first try fails.
fn open_attached(vol: &Arc<ScriptedVol>, tier: &Arc<ScriptedVol>) -> Option<DeltaStore> {
    let attach = || {
        let mut store = DeltaStore::open_on(vol.clone(), store_cfg())?;
        store.attach_tier(tier.clone(), tier_cfg())?;
        Ok::<_, mpi_stool::dmtcp::StoreError>(store)
    };
    attach().or_else(|_| attach()).ok()
}

/// Run the script with `crash` (a fault and the mutating operation it
/// strikes) armed.
fn script(crash: Option<(Fault, u64)>) -> Run {
    let machine = Script::new();
    if let Some((fault, k)) = crash {
        machine.at(Op::Mutate, k, fault);
    }
    // Remote puts are held until the script ships.
    let shipping = Script::new();
    shipping.hold(true);
    let vol = || machine.wrap(Arc::new(MemTier::new()));
    let mut run = Run {
        local: vol(),
        remote: shipping.wrap(vol()),
        hydrated: vol(),
        machine,
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
            shipping.hold(false);
            let shipped = store.tier_flush();
            shipping.hold(true);
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
    shipping.hold(false);
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

fn check(what: &str, run: &Run) {
    // The local chain as the crash froze it.
    let mut local = DeltaStore::open_on(frozen(&*run.local), store_cfg())
        .unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
    assert!(
        local.latest() >= run.acked,
        "{what}: head {:?} lost the returned commit {:?}",
        local.latest(),
        run.acked
    );
    assert_listed_epochs_restore(&local, run, what);
    let retry = world(STEPS + 1);
    local
        .commit(&retry)
        .unwrap_or_else(|e| panic!("{what}: retried commit failed: {e}"));
    assert!(local.load_latest().ok() == Some(retry), "{what}: retry");

    // The tier, hydrated into an empty volume: its newest sealed epoch.
    let tier = frozen(&*run.remote);
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
    let hydrated = DeltaStore::open_on(frozen(&*run.hydrated), store_cfg())
        .unwrap_or_else(|e| panic!("{what}: reopen of the hydrated volume failed: {e}"));
    assert_listed_epochs_restore(&hydrated, run, &format!("{what}, hydrated"));
}

#[test]
fn every_crash_point_leaves_a_chain_that_restores() {
    let run = script(None);
    let total = run.machine.calls(Op::Mutate, None);
    assert_eq!(
        run.acked,
        Some(STEPS),
        "the unarmed script commits every step"
    );
    assert!(
        run.rebased && run.collected,
        "the chain rebases and collects"
    );
    let hydrated = DeltaStore::open_on(frozen(&*run.hydrated), store_cfg()).unwrap();
    assert_eq!(hydrated.latest(), Some(STEPS), "the hydrate pulls the head");
    // Pin the enumeration's reach: commits, ships, collections and the
    // hydrate all put or delete.
    assert_eq!(total, 44, "mutating operations of the script");

    let mut enumerated = 0;
    for k in 0..total {
        for fault in [Fault::Fail, Fault::PowerLoss] {
            let run = script(Some((fault, k)));
            check(&format!("{fault:?} at operation {k}"), &run);
            enumerated += 1;
        }
    }
    assert_eq!(enumerated, 88, "crash points");
    println!("{enumerated} crash points over {total} mutating operations");
}
