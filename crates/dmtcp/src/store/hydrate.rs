//! The store's remote second tier: attach and reconcile, hydrate a
//! behind or damaged local chain, scrub the quarantine.

use std::collections::BTreeSet;
use std::io::Write as IoWrite;
use std::path::PathBuf;
use std::sync::Arc;

use crate::codec::crc32;
use crate::tier::{
    fetch_sealed_epoch, sealed_epochs, ObjectTier, SharedTier, TierConfig, TierError, TierRuntime,
    TierStats,
};

use super::manifest::Manifest;
use super::{DeltaStore, ScrubReport, StoreConfig, StoreError};

/// One store's attachment to a tier shipper runtime: the runtime may be
/// private to this store (the classic [`DeltaStore::attach_tier`] path,
/// lane 0 of a runtime nobody else sees) or shared by many tenants'
/// stores ([`DeltaStore::attach_shared_tier`]), in which case `lane`
/// scopes this store's queue/durable-set/sticky-error and `ns` prefixes
/// its keys in the tier.
pub(super) struct TierAttachment {
    pub(super) runtime: Arc<TierRuntime>,
    pub(super) lane: usize,
    pub(super) ns: String,
}

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
    /// (a behind or deleted local store) hydrate down (see
    /// [`DeltaStore::hydrate_from_tier`]). A seal only counts as durable
    /// for a *locally present* epoch when its recorded manifest CRC
    /// matches the local manifest: after a quarantine the chain reuses
    /// epoch numbers, and a stale seal left by the quarantined
    /// predecessor must neither let GC delete the only copy of the
    /// current content nor let a remote-only restore resurrect the stale
    /// state — mismatched epochs are re-shipped (the upload overwrites
    /// the tier objects, seal last).
    ///
    /// From here on every commit is queued for upload after its local
    /// rename, and retention GC refuses to delete any local epoch whose
    /// upload is not yet durable.
    ///
    /// Returns the epochs hydrated from the tier, ascending.
    pub fn attach_tier(
        &mut self,
        tier: Arc<dyn ObjectTier>,
        config: TierConfig,
    ) -> Result<Vec<u64>, StoreError> {
        let runtime = Arc::new(TierRuntime::spawn(tier, config));
        self.attach_runtime(runtime, String::new())
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
        self.attach_runtime(shared.runtime().clone(), ns.to_string())
    }

    /// The shared attach engine: reconcile against the tier under `ns`,
    /// register a lane, hydrate, queue the unshipped backlog.
    fn attach_runtime(
        &mut self,
        runtime: Arc<TierRuntime>,
        ns: String,
    ) -> Result<Vec<u64>, StoreError> {
        let tier = runtime.tier.clone();
        let config = runtime.config;
        let seals = crate::tier::sealed_seals(&*tier, config, &ns)?;
        let mut durable: BTreeSet<u64> = BTreeSet::new();
        for (&epoch, seal) in &seals {
            let manifest_path = self.epoch_dir(epoch).join("manifest.bin");
            if manifest_path.is_file() {
                let local = Self::read_file(&manifest_path)?;
                if local.len() as u64 == seal.manifest_len && crc32(&local) == seal.manifest_crc {
                    durable.insert(epoch);
                }
                // Mismatch: the tier holds a different epoch under this
                // number (quarantine + reuse). Not durable — re-shipped
                // below.
            } else {
                // No local copy: the tier copy is the (only) truth.
                durable.insert(epoch);
            }
        }
        let sealed: BTreeSet<u64> = seals.keys().copied().collect();
        let lane = runtime.add_lane(self.dir.clone(), ns.clone(), durable.clone());
        if let Some(tel) = &self.telemetry {
            runtime.attach_telemetry(lane, tel.clone());
        }
        self.tier = Some(TierAttachment { runtime, lane, ns });
        let att = self.tier.as_ref().expect("tier just attached");
        let ns = att.ns.clone();
        let hydrated = self.hydrate_with(&*tier, config, &ns, &sealed)?;
        let att = self.tier.as_ref().expect("tier just attached");
        for &e in &self.epochs {
            if !durable.contains(&e) {
                att.runtime.enqueue(att.lane, e);
            }
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

    /// Shipping statistics, if a tier is attached.
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.tier.as_ref().map(|t| t.runtime.stats(t.lane))
    }

    /// A cloneable live view of the shipper's statistics, if a tier is
    /// attached. Survives the store moving into the background writer
    /// thread ([`SharedStoreWriter::spawn_stores`]), which is how a
    /// session keeps reporting tier stats in its telemetry snapshot.
    pub fn tier_stats_handle(&self) -> Option<crate::tier::TierStatsHandle> {
        self.tier.as_ref().map(|t| t.runtime.stats_handle(t.lane))
    }

    /// Install one verified epoch's bytes as a local epoch directory,
    /// atomically (tmp dir + rename), replacing any existing directory
    /// of that number.
    fn install_epoch(&self, epoch: u64, blocks: &[u8], manifest: &[u8]) -> Result<(), StoreError> {
        let tmp = self.dir.join(format!("epoch_{epoch:06}.tmp"));
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp).map_err(|e| StoreError::io("remove tmp", &tmp, e))?;
        }
        std::fs::create_dir_all(&tmp).map_err(|e| StoreError::io("create tmp", &tmp, e))?;
        for (name, data) in [("blocks.bin", blocks), ("manifest.bin", manifest)] {
            let path = tmp.join(name);
            let mut f =
                std::fs::File::create(&path).map_err(|e| StoreError::io("create", &path, e))?;
            f.write_all(data)
                .map_err(|e| StoreError::io("write", &path, e))?;
            f.sync_all().map_err(|e| StoreError::io("sync", &path, e))?;
        }
        let final_dir = self.epoch_dir(epoch);
        if final_dir.exists() {
            std::fs::remove_dir_all(&final_dir)
                .map_err(|e| StoreError::io("remove stale epoch", &final_dir, e))?;
        }
        std::fs::rename(&tmp, &final_dir).map_err(|e| StoreError::io("rename", &final_dir, e))
    }

    /// After an epoch is reinstated locally, drop its stale `.bad` twin
    /// (if any) and its quarantine listing, and splice it into the
    /// chain view.
    fn adopt_epoch(&mut self, epoch: u64) -> Result<(), StoreError> {
        let bad = self.dir.join(format!("epoch_{epoch:06}.bad"));
        if bad.exists() {
            std::fs::remove_dir_all(&bad).map_err(|e| StoreError::io("remove bad", &bad, e))?;
        }
        self.quarantined.retain(|&q| q != epoch);
        if !self.epochs.contains(&epoch) {
            self.epochs.push(epoch);
            self.epochs.sort_unstable();
        }
        Ok(())
    }

    /// Hydrate the chain from the attached tier: determine the restore
    /// target (the newer of the local and tier chain heads), and
    /// download every epoch that target's manifest references but the
    /// local chain is missing — verified against its seal — then rebuild
    /// the head state. Covers both directions of damage: a local chain
    /// that is behind or entirely gone (remote-only restore pulls the
    /// tier head plus its bases), and a current local head whose *base*
    /// epochs were lost (partial disk damage pulls just the bases back).
    /// Epochs already present locally are left untouched.
    ///
    /// Returns the epochs installed, ascending.
    pub fn hydrate_from_tier(&mut self) -> Result<Vec<u64>, StoreError> {
        let att = self.tier.as_ref().ok_or(StoreError::NoTier)?;
        let tier = att.runtime.tier.clone();
        let config = att.runtime.config;
        let ns = att.ns.clone();
        let sealed = sealed_epochs(&*tier, config, &ns)?;
        self.hydrate_with(&*tier, config, &ns, &sealed)
    }

    /// [`DeltaStore::hydrate_from_tier`] against an explicit tier handle
    /// and a pre-listed seal set (so attach does one sweep, not two).
    fn hydrate_with(
        &mut self,
        tier: &dyn ObjectTier,
        config: TierConfig,
        ns: &str,
        sealed: &BTreeSet<u64>,
    ) -> Result<Vec<u64>, StoreError> {
        let tier_head = sealed.last().copied();
        let local_head = self.latest();
        // The restore target: the newer of the two heads.
        let Some(target) = local_head.max(tier_head) else {
            return Ok(Vec::new());
        };
        // Pulling a *new* head down is all-or-nothing (installing a head
        // whose bases the tier cannot supply would advertise a chain
        // that cannot restore); repairing bases under a current local
        // head is best-effort (skipping leaves the chain no worse).
        let pulling_new_head = local_head.is_none_or(|l| target > l);
        let mut fetched_target: Option<(Vec<u8>, Vec<u8>)> = None;
        let manifest_buf = if self.epoch_dir(target).is_dir() {
            Self::read_file(&self.epoch_dir(target).join("manifest.bin"))?
        } else {
            let pair = fetch_sealed_epoch(tier, config, ns, target)?;
            let buf = pair.1.clone();
            fetched_target = Some(pair);
            buf
        };
        let manifest = Manifest::decode(&manifest_buf).map_err(|source| StoreError::Manifest {
            epoch: target,
            source,
        })?;
        // The target plus every epoch whose blocks it references:
        // exactly the set a restore of the target will read.
        let mut needed = manifest.referenced_epochs();
        needed.insert(target);
        let mut installed = Vec::new();
        for &epoch in &needed {
            if self.epoch_dir(epoch).is_dir() {
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
            let (blocks, manifest) = match fetched_target.take() {
                Some(pair) if epoch == target => pair,
                other => {
                    fetched_target = other;
                    fetch_sealed_epoch(tier, config, ns, epoch)?
                }
            };
            self.install_epoch(epoch, &blocks, &manifest)?;
            self.adopt_epoch(epoch)?;
            installed.push(epoch);
        }
        if !installed.is_empty() {
            self.rebuild_head_state()?;
        }
        Ok(installed)
    }

    /// Scrub the quarantine: heal `.bad` epochs from the attached tier.
    ///
    /// For every `epoch_NNNNNN.bad` directory on disk (and every epoch
    /// this handle quarantined at open):
    ///
    /// * if a healthy live epoch of the same number exists (a later
    ///   commit reused the number), the stale `.bad` directory is
    ///   removed (`cleaned`);
    /// * otherwise the epoch is fetched from the tier, verified against
    ///   its seal CRCs and its manifest decode, installed atomically,
    ///   and the `.bad` directory dropped (`healed`);
    /// * if the tier has no verifiable copy, the `.bad` directory is
    ///   left in place for forensics (`missing`).
    ///
    /// Every remaining live epoch's manifest is then verified readable
    /// (`verified`); a live epoch that fails is healed from the tier the
    /// same way. Scrubbing is idempotent: a healthy chain is a verified
    /// no-op, and a second pass after a heal finds nothing to do.
    pub fn scrub(&mut self) -> Result<ScrubReport, StoreError> {
        let att = self.tier.as_ref().ok_or(StoreError::NoTier)?;
        let tier = att.runtime.tier.clone();
        let config = att.runtime.config;
        let ns = att.ns.clone();
        self.scrub_with(&*tier, config, &ns)
    }

    /// [`DeltaStore::scrub`] against an explicit tier handle, retry
    /// policy and key namespace — for a store that did not attach the
    /// tier at open (e.g. forensic repair of a chain opened without
    /// tier credentials).
    pub fn scrub_with(
        &mut self,
        tier: &dyn ObjectTier,
        config: TierConfig,
        ns: &str,
    ) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport::default();
        // Candidates: every .bad directory on disk (durable evidence of
        // past quarantines) plus this handle's own quarantine list.
        let mut candidates: BTreeSet<u64> = self.quarantined.iter().copied().collect();
        let entries =
            std::fs::read_dir(&self.dir).map_err(|e| StoreError::io("read dir", &self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io("read dir", &self.dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name
                .strip_prefix("epoch_")
                .and_then(|r| r.strip_suffix(".bad"))
            {
                if stem.chars().all(|c| c.is_ascii_digit()) {
                    if let Ok(e) = stem.parse::<u64>() {
                        candidates.insert(e);
                    }
                }
            }
        }
        // One tier sweep serves the whole pass (quarantine healing and
        // live-chain repair both consult it).
        let sealed = sealed_epochs(tier, config, ns)?;
        for &epoch in &candidates {
            let live_ok = self.epoch_dir(epoch).is_dir() && self.read_manifest(epoch).is_ok();
            if live_ok {
                self.adopt_epoch(epoch)?;
                report.cleaned.push(epoch);
                continue;
            }
            if !sealed.contains(&epoch) {
                report.missing.push(epoch);
                continue;
            }
            match fetch_sealed_epoch(tier, config, ns, epoch) {
                Ok((blocks, manifest_buf)) => {
                    // Verify the manifest decodes before trusting the
                    // tier copy over the quarantined one.
                    if Manifest::decode(&manifest_buf).is_err() {
                        report.missing.push(epoch);
                        continue;
                    }
                    self.install_epoch(epoch, &blocks, &manifest_buf)?;
                    self.adopt_epoch(epoch)?;
                    report.healed.push(epoch);
                }
                Err(TierError::NotFound { .. } | TierError::Corrupt { .. }) => {
                    report.missing.push(epoch);
                }
                Err(e) => return Err(StoreError::Tier(e)),
            }
        }
        // Verify the live chain; heal in place anything that rotted
        // since open (an older epoch's manifest, say).
        for epoch in self.epochs.clone() {
            match self.read_manifest(epoch) {
                Ok(_) => report.verified += 1,
                Err(StoreError::Manifest { .. } | StoreError::MissingEpoch { .. }) => {
                    if !sealed.contains(&epoch) {
                        report.missing.push(epoch);
                        continue;
                    }
                    match fetch_sealed_epoch(tier, config, ns, epoch) {
                        Ok((blocks, manifest_buf)) if Manifest::decode(&manifest_buf).is_ok() => {
                            self.install_epoch(epoch, &blocks, &manifest_buf)?;
                            report.healed.push(epoch);
                        }
                        Ok(_) | Err(TierError::NotFound { .. } | TierError::Corrupt { .. }) => {
                            report.missing.push(epoch);
                        }
                        Err(e) => return Err(StoreError::Tier(e)),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if !report.healed.is_empty() {
            report.healed.sort_unstable();
            report.healed.dedup();
            self.rebuild_head_state()?;
        }
        Ok(report)
    }
}
