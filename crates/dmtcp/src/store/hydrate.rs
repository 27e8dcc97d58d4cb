//! The store's remote second tier: attach and reconcile, and hydrate a
//! behind or damaged local chain — the one way an epoch comes back from
//! the tier.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::codec::crc32;
use crate::image::WorldImage;
use crate::tier::{
    fetch_sealed_epoch, MemTier, ObjectTier, SharedTier, TierConfig, TierRuntime, TierStats,
};

use super::block::fan_out;
use super::delta::{epoch_key, BLOCKS, MANIFEST};
use super::manifest::Manifest;
use super::{DeltaStore, StoreConfig, StoreError};

/// One store's attachment to a tier shipper runtime: the runtime may be
/// private to this store (the classic [`DeltaStore::attach_tier`] path,
/// lane 0 of a runtime nobody else sees) or shared by many tenants'
/// stores ([`DeltaStore::attach_shared_tier`]), in which case `lane`
/// scopes this store's queue/durable-set/sticky-error (and the lane's
/// namespace prefixes its keys in the tier).
pub(super) struct TierAttachment {
    pub(super) runtime: Arc<TierRuntime>,
    pub(super) lane: usize,
}

/// One fetched epoch's `blocks.bin` and `manifest.bin`, shared by its
/// install and a restore's staging volume.
type Fetched = (Arc<Vec<u8>>, Arc<Vec<u8>>);

impl DeltaStore {
    /// Like [`DeltaStore::open_with`], with a remote second tier attached
    /// (see [`DeltaStore::attach_tier`]): local epochs missing from the
    /// tier are queued for upload, and a chain whose newest epochs are
    /// missing or corrupt locally is transparently hydrated from the
    /// tier — including the extreme case of an empty (deleted) local
    /// store directory and a remote-only chain.
    pub fn open_with_tier(
        dir: impl Into<PathBuf>,
        config: StoreConfig,
        tier: Arc<dyn ObjectTier>,
        tier_config: TierConfig,
    ) -> Result<DeltaStore, StoreError> {
        let mut store = DeltaStore::open_with(dir, config)?;
        store.attach_tier(tier, tier_config)?;
        Ok(store)
    }

    /// Attach a remote tier and spawn its background shipper.
    ///
    /// Reconciles both directions in one tier sweep: local epochs whose
    /// content the tier does not durably hold are queued for upload, and
    /// epochs the restore target needs but the local chain is missing
    /// (a behind or deleted local store) hydrate down, from the same
    /// listing. A seal only counts as durable
    /// for a *locally present* epoch when its recorded manifest CRC
    /// matches the local manifest: after a quarantine the chain reuses
    /// epoch numbers, and a stale seal left by the quarantined
    /// predecessor must neither let GC delete the only copy of the
    /// current content nor let a remote-only restore resurrect the stale
    /// state — mismatched epochs are re-shipped (the upload overwrites
    /// the tier objects, seal last).
    ///
    /// From here on every commit is queued for upload once its manifest
    /// is put, and retention GC refuses to delete any local epoch whose
    /// upload is not yet durable.
    ///
    /// Returns the epochs hydrated from the tier, ascending.
    pub fn attach_tier(
        &mut self,
        tier: Arc<dyn ObjectTier>,
        config: TierConfig,
    ) -> Result<Vec<u64>, StoreError> {
        let runtime = Arc::new(TierRuntime::spawn(tier, config));
        Ok(self.attach_runtime(runtime, String::new(), false)?.0)
    }

    /// [`DeltaStore::attach_tier`], then the chain head's image, as
    /// [`DeltaStore::load_latest`] returns it: a restore's one open. When
    /// the attach fetches every epoch the head references, the head is
    /// decoded from the fetched bytes while they are installed locally.
    ///
    /// Returns the epochs hydrated from the tier, ascending, and the head.
    pub fn attach_tier_and_load(
        &mut self,
        tier: Arc<dyn ObjectTier>,
        config: TierConfig,
    ) -> Result<(Vec<u64>, WorldImage), StoreError> {
        let runtime = Arc::new(TierRuntime::spawn(tier, config));
        let (hydrated, staged) = self.attach_runtime(runtime, String::new(), true)?;
        let head = staged.map_or_else(|| self.load_latest(), Ok)?;
        Ok((hydrated, head))
    }

    /// Attach this store as one tenant lane of a [`SharedTier`]: epochs
    /// ship through the shared shipper thread under `ns`-prefixed keys
    /// (see [`crate::tier::tenant_namespace`]), with this store's own
    /// queue, durable set, and sticky error. Reconcile/hydrate semantics
    /// are exactly [`DeltaStore::attach_tier`]'s, scoped to the
    /// namespace.
    pub fn attach_shared_tier(
        &mut self,
        shared: &SharedTier,
        ns: &str,
    ) -> Result<Vec<u64>, StoreError> {
        Ok(self
            .attach_runtime(shared.runtime().clone(), ns.to_string(), false)?
            .0)
    }

    /// The shared attach engine: reconcile against the tier under `ns`,
    /// register a lane, hydrate, queue the unshipped backlog. With
    /// `load_head`, a hydration that fetches every epoch the head
    /// references also returns the head, decoded from the fetched bytes.
    fn attach_runtime(
        &mut self,
        runtime: Arc<TierRuntime>,
        ns: String,
        load_head: bool,
    ) -> Result<(Vec<u64>, Option<WorldImage>), StoreError> {
        let tier = runtime.tier.clone();
        let config = runtime.config;
        let seals = crate::tier::sealed_seals(&*tier, config, &ns)?;
        let mut durable: BTreeSet<u64> = BTreeSet::new();
        for (&epoch, seal) in &seals {
            // No local copy: the tier copy is the (only) truth. A
            // mismatch: the tier holds a different epoch under this
            // number (quarantine + reuse). Not durable — re-shipped below.
            let same =
                |l: &Vec<u8>| l.len() as u64 == seal.manifest_len && crc32(l) == seal.manifest_crc;
            if self
                .get(&epoch_key(epoch, "", MANIFEST))?
                .as_ref()
                .is_none_or(same)
            {
                durable.insert(epoch);
            }
        }
        let sealed: BTreeSet<u64> = seals.keys().copied().collect();
        let lane = runtime.add_lane(
            self.vol.clone(),
            ns.clone(),
            durable.clone(),
            self.telemetry.clone(),
        );
        self.tier = Some(TierAttachment {
            runtime: runtime.clone(),
            lane,
        });
        let hydrated = self.hydrate_with(&*tier, config, &ns, &sealed, load_head)?;
        for &e in self.epochs.iter().filter(|e| !durable.contains(e)) {
            runtime.enqueue(lane, e);
        }
        Ok(hydrated)
    }

    /// Whether a remote tier is attached.
    pub fn has_tier(&self) -> bool {
        self.tier.is_some()
    }

    /// Wait until every queued epoch upload is durable in the tier.
    /// Returns the shipper's sticky error, if any; trivially succeeds
    /// with no tier attached.
    pub fn tier_flush(&self) -> Result<(), StoreError> {
        match &self.tier {
            Some(t) => t.runtime.mux.lanes.flush(t.lane).map_err(StoreError::Tier),
            None => Ok(()),
        }
    }

    /// Epochs whose upload is durable (their seal is in the tier).
    pub fn tier_durable(&self) -> Vec<u64> {
        self.tier
            .as_ref()
            .map(|t| t.runtime.durable(t.lane).into_iter().collect())
            .unwrap_or_default()
    }

    /// Shipping statistics, read from the handle's recorder, if a tier
    /// is attached.
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.tier.as_ref().map(|t| t.runtime.stats(t.lane))
    }

    /// Hydrate the chain from `tier` under `ns`, given its listed seals:
    /// determine the restore target (the newer of the local and tier
    /// chain heads), and download every epoch that target's manifest
    /// references but the local chain is missing — verified against its
    /// seal — then rebuild the head state. Covers both directions of
    /// damage: a local chain that is behind or entirely gone
    /// (remote-only restore pulls the tier head plus its bases), and a
    /// current local head whose *base* epochs were lost (partial disk
    /// damage pulls just the bases back). Epochs already present locally
    /// are left untouched.
    ///
    /// Every epoch is fetched first, over `writer_threads`. Then a scoped
    /// thread installs them: every `blocks.bin` (fanned out over
    /// `writer_threads`) before any `manifest.bin`, and the manifests in
    /// ascending epoch order, so a crash anywhere leaves every installed
    /// manifest with all of its blocks. With `load_head`, when every
    /// epoch the target references was fetched, the caller meanwhile
    /// decodes the target from a staging [`MemTier`] holding the fetched
    /// objects. Both join before the handle adopts anything: an install
    /// error wins over the decode's, and a failed install adopts nothing.
    ///
    /// Returns the epochs installed, ascending, and the decoded target.
    fn hydrate_with(
        &mut self,
        tier: &dyn ObjectTier,
        config: TierConfig,
        ns: &str,
        sealed: &BTreeSet<u64>,
        load_head: bool,
    ) -> Result<(Vec<u64>, Option<WorldImage>), StoreError> {
        let started = Instant::now();
        let tier_head = sealed.last().copied();
        let local_head = self.latest();
        // The restore target: the newer of the two heads.
        let Some(target) = local_head.max(tier_head) else {
            return Ok((Vec::new(), None));
        };
        // Pulling a *new* head down is all-or-nothing (installing a head
        // whose bases the tier cannot supply would advertise a chain
        // that cannot restore); repairing bases under a current local
        // head is best-effort (skipping leaves the chain no worse).
        let pulling_new_head = local_head.is_none_or(|l| target > l);
        let mut fetched_target = None;
        let manifest = if self.epochs.contains(&target) {
            self.read_manifest(target)?
        } else {
            let pair = fetch_sealed_epoch(tier, config, ns, target)?;
            let manifest = Manifest::decode(&pair.1).map_err(|source| StoreError::Manifest {
                epoch: target,
                source,
            })?;
            fetched_target = Some(pair);
            manifest
        };
        // The target plus every epoch whose blocks it references:
        // exactly the set a restore of the target will read.
        let mut needed = manifest.referenced_epochs();
        needed.insert(target);
        let mut install = Vec::new();
        for &epoch in &needed {
            if self.epochs.contains(&epoch) {
                continue;
            }
            if !sealed.contains(&epoch) {
                if pulling_new_head {
                    return Err(StoreError::MissingEpoch { epoch });
                }
                // The tier cannot supply it and the local chain did not
                // get worse: leave the gap for load-time reporting.
                continue;
            }
            install.push(epoch);
        }
        if install.is_empty() {
            return Ok((install, None));
        }
        // Fetched and checked against their seals, every epoch before
        // any put. A fetched target is the newest epoch, so the last.
        let [.., hydrate_us, fetch_us, _] = self.restore_us.clone();
        let rest = &install[..install.len() - usize::from(fetched_target.is_some())];
        let fetch = |_, &epoch: &u64| fetch_sealed_epoch(tier, config, ns, epoch);
        let fetched = fan_out(rest, self.config().writer_threads, fetch);
        let fetched = fetched.into_iter().chain(fetched_target.map(Ok));
        let fetched = fetched
            .map(|pair| pair.map(|(blocks, manifest)| (Arc::new(blocks), Arc::new(manifest))))
            .collect::<Result<Vec<_>, _>>()?;
        fetch_us.observe(started.elapsed().as_micros() as u64);
        let staging = (load_head && install.len() == needed.len()).then(|| {
            let objects = install
                .iter()
                .zip(&fetched)
                .flat_map(|(&epoch, (blocks, manifest))| {
                    [
                        (epoch_key(epoch, "", BLOCKS), blocks.clone()),
                        (epoch_key(epoch, "", MANIFEST), manifest.clone()),
                    ]
                });
            MemTier::holding(objects)
        });
        let store = &*self;
        let (installed, head) = std::thread::scope(|s| {
            let installing = s.spawn(|| store.install(&install, &fetched));
            let head = staging.map(|vol| store.load_epoch_on(&vol, target));
            (installing.join().expect("install thread"), head)
        });
        installed?;
        let head = head.transpose()?;
        for &epoch in &install {
            self.quarantined.retain(|&q| q != epoch);
            self.epochs.push(epoch);
        }
        self.epochs.sort_unstable();
        self.rebuild_head_state()?;
        hydrate_us.observe(started.elapsed().as_micros() as u64);
        Ok((install, head))
    }

    /// Put fetched epochs into the local chain: every `blocks.bin` over
    /// the writer threads, then each `manifest.bin`, oldest first, so
    /// each lands after those of the epochs it references, followed by
    /// the removal of the epoch's stale `.bad` twin, if any.
    fn install(&self, epochs: &[u64], fetched: &[Fetched]) -> Result<(), StoreError> {
        let started = Instant::now();
        let puts = fan_out(fetched, self.config().writer_threads, |i, (blocks, _)| {
            self.put(&epoch_key(epochs[i], "", BLOCKS), blocks)
        });
        puts.into_iter().collect::<Result<(), _>>()?;
        for (&epoch, (_, manifest)) in epochs.iter().zip(fetched) {
            self.put(&epoch_key(epoch, "", MANIFEST), manifest)?;
            self.delete_epoch(epoch, ".bad")?;
        }
        let [.., install_us] = &self.restore_us;
        install_us.observe(started.elapsed().as_micros() as u64);
        Ok(())
    }
}
