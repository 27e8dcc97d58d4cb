//! `DeltaStore`: the synchronous store core — open and head repair, the
//! commit pipeline, retention GC and the loader.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use simnet::telemetry::{Histogram, Telemetry};

use crate::codec::crc32;
use crate::image::{RankImage, WorldImage};
use crate::tier::{FsTier, ObjectTier, TierError};

use super::block::{decode_block, encode_block, fan_out, EncodeScratch};
use super::chunk::RankChunks;
use super::hydrate::TierAttachment;
use super::manifest::{BlockKey, BlockLoc, Manifest, SectionRefs};
use super::{EpochStats, StoreConfig, StoreError};

/// The restore path's wall-µs histograms on `tel`: `blocks.bin` reads,
/// CRC + decode, hydration.
fn restore_us(tel: &Telemetry) -> [Histogram; 3] {
    [
        "store.load.read_us",
        "store.load.decode_us",
        "tier.hydrate_us",
    ]
    .map(|name| tel.metrics().histogram(name))
}

/// The stored-block file of an epoch directory.
pub(crate) const BLOCKS: &str = "blocks.bin";
/// The manifest of an epoch directory: the object that commits it.
pub(crate) const MANIFEST: &str = "manifest.bin";

/// The chain key of object `name` in epoch `epoch`'s directory, live
/// (`suffix` `""`) or quarantined (`".bad"`).
pub(crate) fn epoch_key(epoch: u64, suffix: &str, name: &str) -> String {
    format!("epoch_{epoch:06}{suffix}/{name}")
}

/// Split a chain key into its epoch, its directory suffix (`""`, `".bad"`,
/// or a legacy staging directory's `".tmp"`) and its object name.
pub(super) fn parse_key(key: &str) -> Option<(u64, &str, &str)> {
    let (dir, name) = key.strip_prefix("epoch_")?.split_once('/')?;
    let digits = dir.find(|c: char| !c.is_ascii_digit()).unwrap_or(dir.len());
    let (epoch, suffix) = dir.split_at(digits);
    Some((epoch.parse().ok()?, suffix, name))
}

/// Referenced spans of one `blocks.bin` that lie less than this far
/// apart are read as one range: a gap this short costs less to read than
/// another request.
const MERGE_GAP: u64 = 4096;

/// The referenced ranges of one epoch's `blocks.bin`, concatenated in
/// `data`, and per range, ascending, where it starts in the file and in
/// `data`.
struct BlockFile {
    starts: Vec<(u64, usize)>,
    data: Vec<u8>,
}

/// Each referenced epoch's `blocks.bin`, read once; an unreadable file is
/// kept as its error, for the first block that needs it.
type BlockFiles = HashMap<u64, Result<BlockFile, StoreError>>;

/// `spans` (`offset..end`, in any order) merged where they overlap or lie
/// less than [`MERGE_GAP`] apart.
fn merge_spans(mut spans: Vec<Range<u64>>) -> Vec<Range<u64>> {
    spans.sort_unstable_by_key(|r| r.start);
    let mut merged: Vec<Range<u64>> = Vec::new();
    for span in spans {
        match merged.last_mut() {
            Some(last) if span.start < last.end.saturating_add(MERGE_GAP) => {
                last.end = last.end.max(span.end);
            }
            _ => merged.push(span),
        }
    }
    merged
}

/// The stored bytes `loc` names in `files`, once they pass their CRC:
/// `Ok(None)` when they lie outside what was read or fail it.
fn stored_block<'f>(files: &'f BlockFiles, loc: &BlockLoc) -> Result<Option<&'f [u8]>, StoreError> {
    let file = files[&loc.epoch].as_ref().map_err(StoreError::clone)?;
    let i = file
        .starts
        .partition_point(|&(start, _)| start <= loc.offset);
    let (start, at) = file.starts[i.checked_sub(1).expect("a read range holds every loc")];
    Ok(file
        .data
        .get(at + (loc.offset - start) as usize..)
        .and_then(|from| from.get(..loc.len as usize))
        .filter(|stored| crc32(stored) == loc.crc))
}

/// The refs one hinted section resolved to at the previous commit of
/// this handle, keyed by the producer's generation stamp.
struct SectionCache {
    generation: u64,
    raw_len: usize,
    refs: Vec<(BlockKey, BlockLoc)>,
}

/// The synchronous store core: chunking, dedup, chain layout, GC, restore.
/// Hand it to a [`SharedStoreWriter`] to take it off the ranks' critical
/// path.
pub struct DeltaStore {
    /// The chain's volume: every object of the chain is read and written
    /// through it, so a commit, a hydrate and a ship share one put
    /// protocol.
    pub(super) vol: Arc<dyn ObjectTier>,
    /// Where the volume lives, for the paths of its errors (empty for a
    /// volume handed to [`DeltaStore::open_on`]).
    root: PathBuf,
    config: StoreConfig,
    /// Committed epochs, ascending.
    pub(super) epochs: Vec<u64>,
    /// Consecutive delta epochs since the last full base: `Some(0)` on a
    /// base head, `None` behind a delta head until the first commit walks
    /// the chain back (`chain_len()`).
    chain_len: Option<usize>,
    /// Content index of the chain head: every block the latest epoch
    /// references, so the next commit can dedup against the live image.
    index: HashMap<BlockKey, BlockLoc>,
    /// Dirty tracking: per `(rank, section)`, the hinted generation and
    /// block refs of the previous commit. A section whose hint matches
    /// is re-referenced (by a base: re-planned) without chunking or
    /// hashing. Run-local — never persisted, replaced by every commit,
    /// cleared on reopen and pruned with GC.
    section_cache: HashMap<(usize, String), SectionCache>,
    /// The first epoch this handle committed itself (`latest + 1` when
    /// the head state was last rebuilt). A rebase copies stored blocks
    /// only from these: an older writer, or another config, may have
    /// written the epochs below it.
    own_from: u64,
    /// Per epoch, the epochs its manifest references: what GC needs to
    /// keep a delta's bases alive, without decoding manifests. Filled at
    /// commit (or by GC on a miss), pruned with collected epochs.
    refs_of: BTreeMap<u64, BTreeSet<u64>>,
    /// Epochs whose manifests did not decode at open and were moved
    /// aside to `epoch_NNNNNN.bad` so restart could fall back.
    pub(super) quarantined: Vec<u64>,
    /// Stats of the commits performed by this handle.
    stats: Vec<EpochStats>,
    /// The remote second tier, when attached: this store's lane in a
    /// (possibly shared) shipper runtime, plus its key namespace.
    pub(super) tier: Option<TierAttachment>,
    /// The handle's flight recorder — the run's once attached, a
    /// detached one until then: commits, GC decisions and quarantines
    /// land on its store lane, and the commit stages on its registry.
    pub(super) telemetry: Arc<Telemetry>,
    /// The restore path's histograms on that recorder, registered with
    /// it so that a reading neither locks nor allocates.
    pub(super) restore_us: [Histogram; 3],
}

impl DeltaStore {
    /// Open (or initialize) a store directory with default tunables.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DeltaStore, StoreError> {
        DeltaStore::open_with(dir, StoreConfig::default())
    }

    /// Open (or initialize) the chain in directory `dir`: an [`FsTier`]
    /// rooted there is its volume (see [`DeltaStore::open_on`]).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        config: StoreConfig,
    ) -> Result<DeltaStore, StoreError> {
        let dir = dir.into();
        // `FsTier::open` names the directory itself in its error.
        let vol = FsTier::open(&dir).map_err(|e| StoreError::volume(Path::new(""), e))?;
        DeltaStore::open_at(Arc::new(vol), dir, config)
    }

    /// Open (or initialize) the chain on any volume. Committed epochs are
    /// discovered by listing keys, and the chain head's content index is
    /// rebuilt so subsequent commits continue the delta chain.
    ///
    /// An epoch is committed exactly when its `manifest.bin` exists (the
    /// commit puts it last). Objects of an epoch without one were left by
    /// an interrupted commit, GC or quarantine, and are deleted — unless
    /// the head's manifest references that epoch: its blocks stay, and a
    /// load that needs what is missing reports it. A legacy
    /// `epoch_NNNNNN.tmp/` staging directory is deleted the same way.
    ///
    /// A chain head whose manifest does not decode is **quarantined**:
    /// its objects move to `epoch_NNNNNN.bad/` (preserved for forensics,
    /// invisible to the chain) and the open falls back to the newest
    /// *readable* epoch — restart proceeds from older state instead of
    /// failing outright. Quarantined epochs are listed by
    /// [`DeltaStore::quarantined`]. A manifest that cannot be read
    /// (permissions, fd exhaustion) is an error, never quarantined.
    pub fn open_on(
        vol: Arc<dyn ObjectTier>,
        config: StoreConfig,
    ) -> Result<DeltaStore, StoreError> {
        DeltaStore::open_at(vol, PathBuf::new(), config)
    }

    fn open_at(
        vol: Arc<dyn ObjectTier>,
        root: PathBuf,
        config: StoreConfig,
    ) -> Result<DeltaStore, StoreError> {
        let telemetry = Telemetry::detached();
        let mut store = DeltaStore {
            vol,
            root,
            config: StoreConfig {
                block_size: config.block_size.max(1),
                retain_epochs: config.retain_epochs.max(1),
                writer_threads: config.writer_threads.max(1),
                ..config
            },
            epochs: Vec::new(),
            chain_len: Some(0),
            index: HashMap::new(),
            section_cache: HashMap::new(),
            own_from: 1,
            refs_of: BTreeMap::new(),
            quarantined: Vec::new(),
            stats: Vec::new(),
            tier: None,
            restore_us: restore_us(&telemetry),
            telemetry,
        };
        let mut committed = BTreeSet::new();
        let mut loose: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        let mut staged = Vec::new();
        for key in store.list()? {
            match parse_key(&key) {
                Some((epoch, "", MANIFEST)) => _ = committed.insert(epoch),
                Some((epoch, "", _)) => loose.entry(epoch).or_default().push(key),
                Some((_, ".tmp", _)) => staged.push(key),
                _ => {}
            }
        }
        loose.retain(|epoch, _| !committed.contains(epoch));
        store.epochs = committed.into_iter().collect();
        store.rebuild_head_state()?;
        let keep = store
            .latest()
            .and_then(|head| store.refs_of.get(&head).cloned())
            .unwrap_or_default();
        for (epoch, keys) in loose {
            // Listed without a manifest; a read makes sure — a manifest
            // that is there but cannot be read is an error, not garbage.
            if keep.contains(&epoch) || store.get(&epoch_key(epoch, "", MANIFEST))?.is_some() {
                continue;
            }
            staged.extend(keys);
        }
        for key in staged {
            store.delete(&key)?;
        }
        Ok(store)
    }

    /// Move this handle, and its tier lane if one is attached, onto the
    /// run's recorder `tel`: commit/GC/quarantine events flow onto its
    /// store lane, ship/seal events onto its tier lane, and every count
    /// into its registry. Attach before the handle counts anything: what
    /// it counted so far stays in the detached recorder it opened with.
    pub fn attach_telemetry(&mut self, tel: Arc<Telemetry>) {
        if let Some(tier) = &self.tier {
            tier.runtime.attach_telemetry(tier.lane, tel.clone());
        }
        self.restore_us = restore_us(&tel);
        self.telemetry = tel;
    }

    /// Emit one event on the store lane, stamped with the recorder's
    /// observed virtual-clock high-water mark (the store writer runs on
    /// a background thread with no virtual clock of its own).
    pub(super) fn emit(&self, kind: simnet::telemetry::EventKind, a: u64, b: u64, c: u64) {
        let tel = &self.telemetry;
        tel.emit(tel.store_lane(), kind, tel.observed_now(), a, b, c);
    }

    /// Head repair + content-index rebuild: quarantine undecodable heads
    /// until a manifest decodes (or the chain is empty), then rebuild
    /// the dedup index from the surviving head. Only the head's manifest
    /// is read: the chain length behind a delta head waits for the first
    /// commit (`chain_len()`).
    /// Quarantine is reserved for *structural* damage — a manifest that
    /// fails to decode. A transient I/O failure (permissions, fd
    /// exhaustion, a flaky network mount) propagates as an error
    /// instead: moving a healthy newest epoch aside over a hiccup would
    /// silently discard committed state.
    ///
    /// Also run after tier hydration, which can change which epoch is
    /// the chain head.
    pub(super) fn rebuild_head_state(&mut self) -> Result<(), StoreError> {
        self.index.clear();
        self.section_cache.clear();
        self.refs_of.clear();
        self.chain_len = Some(0);
        while let Some(&latest) = self.epochs.last() {
            let manifest = match self.read_manifest(latest) {
                Ok(m) => m,
                Err(StoreError::Manifest { .. }) => {
                    self.quarantine(latest)?;
                    continue;
                }
                Err(StoreError::MissingEpoch { .. }) => {
                    // The manifest vanished under us: drop the epoch from
                    // the view, nothing to move aside.
                    self.epochs.retain(|&e| e != latest);
                    continue;
                }
                Err(err) => return Err(err),
            };
            for (_, _, _, sections) in &manifest.ranks {
                let refs = sections.iter().flat_map(|(_, blocks)| blocks);
                self.index.extend(refs.copied());
            }
            self.chain_len = manifest.full.then_some(0);
            self.refs_of.insert(latest, manifest.referenced_epochs());
            break;
        }
        self.own_from = self.latest().map_or(1, |l| l + 1);
        Ok(())
    }

    /// Chain length = epochs since the newest full base, walked back from
    /// a delta head by the first commit that needs it. An unreadable
    /// *older* manifest leaves the head restorable (manifests are
    /// self-contained) but the chain length unknowable: pin it to
    /// `max_chain` so the next commit starts a fresh full base instead of
    /// extending a chain of unknown depth.
    fn chain_len(&mut self) -> usize {
        let len = self.chain_len.unwrap_or_else(|| {
            (self.epochs.iter().rev().skip(1)) // behind the delta head
                .map(|&e| self.read_manifest(e).map(|m| m.full))
                .take_while(|full| !matches!(full, Ok(true)))
                .try_fold(1, |len, full| full.map(|_| len + 1))
                .unwrap_or(self.config.max_chain)
        });
        *self.chain_len.insert(len)
    }

    /// Move an epoch whose manifest does not decode aside to
    /// `epoch_NNNNNN.bad/` and drop it from the chain view: copy its
    /// objects there (replacing a stale copy of the same number), then
    /// delete the originals, manifest first.
    fn quarantine(&mut self, epoch: u64) -> Result<(), StoreError> {
        for name in [BLOCKS, MANIFEST] {
            match self.get(&epoch_key(epoch, "", name))? {
                Some(buf) => self.put(&epoch_key(epoch, ".bad", name), &buf)?,
                None => self.delete(&epoch_key(epoch, ".bad", name))?,
            }
        }
        self.delete_epoch(epoch, "")?;
        self.epochs.retain(|&e| e != epoch);
        self.quarantined.push(epoch);
        self.emit(simnet::telemetry::EventKind::Quarantine, epoch, 0, 0);
        Ok(())
    }

    /// The tunables in force.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Committed epochs, ascending (restorable ones after GC).
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// The newest committed epoch.
    pub fn latest(&self) -> Option<u64> {
        self.epochs.last().copied()
    }

    /// Epochs whose manifests did not decode at open and were moved
    /// aside (`epoch_NNNNNN.bad`) so the chain could fall back to older
    /// state.
    pub fn quarantined(&self) -> &[u64] {
        &self.quarantined
    }

    /// Stats of the commits performed through this handle, in order.
    pub fn stats(&self) -> &[EpochStats] {
        &self.stats
    }

    /// Every key of the chain's epoch directories, live or not.
    pub(super) fn list(&self) -> Result<Vec<String>, StoreError> {
        self.vol.list("epoch_").map_err(|e| self.vol_err(e))
    }

    /// Fetch one object of the chain: `None` when it does not exist.
    pub(super) fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        match self.vol.get(key) {
            Ok(buf) => Ok(Some(buf)),
            Err(TierError::NotFound { .. }) => Ok(None),
            Err(e) => Err(self.vol_err(e)),
        }
    }

    /// Put one object of the chain, durably.
    pub(super) fn put(&self, key: &str, data: &[u8]) -> Result<(), StoreError> {
        self.vol.put(key, data).map_err(|e| self.vol_err(e))
    }

    pub(super) fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.vol.delete(key).map_err(|e| self.vol_err(e))
    }

    /// Put an epoch's objects — a commit's, or a verified copy from the
    /// tier — blocks first, then the manifest that publishes them, each
    /// replacing the object of that name. A crash in between leaves an
    /// uncommitted epoch, which the next open deletes.
    pub(super) fn publish(
        &self,
        epoch: u64,
        blocks: &[u8],
        manifest: &[u8],
    ) -> Result<(), StoreError> {
        self.put(&epoch_key(epoch, "", BLOCKS), blocks)?;
        self.put(&epoch_key(epoch, "", MANIFEST), manifest)
    }

    /// Delete an epoch directory's objects, manifest first: once the
    /// manifest is gone the epoch is uncommitted, whatever happens to
    /// the rest.
    pub(super) fn delete_epoch(&self, epoch: u64, suffix: &str) -> Result<(), StoreError> {
        self.delete(&epoch_key(epoch, suffix, MANIFEST))?;
        self.delete(&epoch_key(epoch, suffix, BLOCKS))
    }

    fn vol_err(&self, e: TierError) -> StoreError {
        StoreError::volume(&self.root, e)
    }

    pub(super) fn read_manifest(&self, epoch: u64) -> Result<Manifest, StoreError> {
        let buf = self
            .get(&epoch_key(epoch, "", MANIFEST))?
            .ok_or(StoreError::MissingEpoch { epoch })?;
        Manifest::decode(&buf).map_err(|source| StoreError::Manifest { epoch, source })
    }

    /// The blocks `locs` reference, one ranged read of each `blocks.bin`
    /// they lie in.
    fn read_blocks<'l>(&self, locs: impl IntoIterator<Item = &'l BlockLoc>) -> BlockFiles {
        let mut spans: BTreeMap<u64, Vec<Range<u64>>> = BTreeMap::new();
        for loc in locs {
            let end = loc.offset.saturating_add(loc.len as u64);
            spans.entry(loc.epoch).or_default().push(loc.offset..end);
        }
        let read = |epoch: u64, ranges: Vec<Range<u64>>| {
            let key = epoch_key(epoch, "", BLOCKS);
            let data = match self.vol.get_ranges(&key, &ranges) {
                Err(TierError::NotFound { .. }) => Err(StoreError::MissingEpoch { epoch }),
                read => read.map_err(|e| self.vol_err(e)),
            }?;
            let at = ranges.iter().scan(0, |at, r| {
                Some(std::mem::replace(at, *at + (r.end - r.start) as usize))
            });
            let starts = ranges.iter().map(|r| r.start).zip(at).collect();
            Ok(BlockFile { starts, data })
        };
        spans
            .into_iter()
            .map(|(epoch, spans)| (epoch, read(epoch, merge_spans(spans))))
            .collect()
    }

    /// Commit one epoch: write a full base or a delta against the chain
    /// head, publishing it with its manifest last, then garbage-collect.
    ///
    /// The chain assigns its own monotonic sequence number (the manifest
    /// epoch and directory name); the coordinator-assigned epochs inside
    /// the [`RankImage`]s are preserved verbatim. The two diverge exactly
    /// when one chain spans several runs — coordinator epochs restart at 1
    /// after every restore, the chain keeps counting.
    pub fn commit(&mut self, image: &WorldImage) -> Result<EpochStats, StoreError> {
        // Validate the image: dense ranks, one consistent image epoch.
        if image.ranks.is_empty() {
            return Err(StoreError::InconsistentImage("no ranks".into()));
        }
        let img_epoch = image.ranks[0].epoch;
        for (i, r) in image.ranks.iter().enumerate() {
            if r.rank != i {
                return Err(StoreError::InconsistentImage(format!(
                    "slot {i} holds rank {}",
                    r.rank
                )));
            }
            if r.epoch != img_epoch {
                return Err(StoreError::InconsistentImage(format!(
                    "rank {i} is epoch {}, rank 0 is epoch {img_epoch}",
                    r.epoch
                )));
            }
            if r.nranks != image.ranks.len() {
                return Err(StoreError::InconsistentImage(format!(
                    "rank {i} claims a {}-rank world, image has {}",
                    r.nranks,
                    image.ranks.len()
                )));
            }
        }
        let epoch = self.epochs.last().map_or(1, |&l| l + 1);
        let full = self.epochs.is_empty() || self.chain_len() >= self.config.max_chain;
        let started = Instant::now();
        // A base references nothing older: it dedups only within itself.
        // It still uses what the handle knows of the content — a clean
        // section's chunk list, where an own epoch stores a block — to
        // write the same bytes for less. The handle's own maps are read,
        // never written, until the epoch is on disk.
        let no_index = HashMap::new();
        let index = if full { &no_index } else { &self.index };
        let cache = &self.section_cache;

        // Dirty tracking: a hinted section whose generation stamp (and
        // length) matches what this handle cached at the previous commit
        // is provably unchanged — plan to re-reference it wholesale.
        let skips: Vec<HashSet<String>> = image
            .ranks
            .iter()
            .map(|img| {
                let mut skip = HashSet::new();
                if self.config.dirty_tracking {
                    for (name, data) in img.sections() {
                        let hint = img.section_hint(name);
                        let cache = cache.get(&(img.rank, name.to_string()));
                        if let (Some(generation), Some(cache)) = (hint, cache) {
                            if cache.generation == generation && cache.raw_len == data.len() {
                                skip.insert(name.to_string());
                            }
                        }
                    }
                }
                skip
            })
            .collect();

        // Chunk + hash every dirty section, fanned out over the writer
        // pool.
        let block_size = self.config.block_size;
        let threads = self.config.writer_threads;
        let mut chunked: Vec<RankChunks> = fan_out(&image.ranks, threads, |i, r| {
            Self::chunk_rank(r, block_size, &skips[i])
        });
        let bytes_hashed: u64 = (image.ranks.iter().zip(&skips))
            .flat_map(|(img, skip)| img.sections().filter(|(name, _)| !skip.contains(*name)))
            .map(|(_, data)| data.len() as u64)
            .sum();
        // A base plans what chunking every section would plan: a clean
        // section takes its chunk list, keys and lengths in order, from
        // its cached refs.
        if full {
            for (img, sections) in image.ranks.iter().zip(&mut chunked) {
                for (name, recs) in sections.iter_mut().filter(|(_, recs)| recs.is_none()) {
                    *recs = Some(Self::chunks_of(&cache[&(img.rank, name.clone())].refs));
                }
            }
        }

        // Deterministic dedup plan: walk ranks/sections/blocks in order
        // and list the content the chain does not hold yet, first
        // occurrence of a key first, with where an epoch this handle
        // wrote already stores it (only a base can find one).
        let mut plan: Vec<(&[u8], Option<BlockLoc>)> = Vec::new();
        let mut planned: HashMap<BlockKey, usize> = HashMap::new();
        for (img, sections) in image.ranks.iter().zip(&chunked) {
            for (name, recs) in sections {
                let data = img.section(name).expect("section exists");
                for rec in recs.iter().flatten() {
                    if !index.contains_key(&rec.key) {
                        planned.entry(rec.key).or_insert_with(|| {
                            let stored = self.index.get(&rec.key).copied();
                            let own = |l: &BlockLoc| {
                                l.epoch >= self.own_from && l.raw_len as usize == rec.len
                            };
                            plan.push((&data[rec.start..rec.start + rec.len], stored.filter(own)));
                            plan.len() - 1
                        });
                    }
                }
            }
        }
        let chunk_done = Instant::now();

        // Encode the planned blocks, one contiguous slice of the plan and
        // one output buffer per worker. A block's stored form depends on
        // its bytes alone and the buffers concatenate in plan order, so
        // `blocks.bin` does not depend on where the slices were cut.
        // Nothing is allocated per block: the scratch lives as long as the
        // worker, and `buf` grows by doubling. (Sizing it for the slice's
        // raw bytes up front raised `ckpt_storm`'s peak RSS by a third.)
        // A block an own epoch stores is copied — stored bytes, codec and
        // CRC — once the copy passes that CRC: `encode_block` is a pure
        // function of the raw bytes and the handle's compression, so the
        // copy is what encoding would write. A source that cannot be read
        // is encoded instead.
        let compression = self.config.compression;
        let sources = self.read_blocks(plan.iter().filter_map(|(_, s)| s.as_ref()));
        let parts: Vec<&[(&[u8], Option<BlockLoc>)]> =
            plan.chunks(plan.len().div_ceil(threads).max(1)).collect();
        let encoded: Vec<(Vec<u8>, Vec<BlockLoc>, u64)> = fan_out(&parts, threads, |_, part| {
            let (mut buf, mut locs, mut reused) = (Vec::new(), Vec::with_capacity(part.len()), 0);
            let mut scratch = EncodeScratch::default();
            for &(raw, stored) in part.iter() {
                let copy = |l: BlockLoc| Some((l, stored_block(&sources, &l).ok().flatten()?));
                if let Some((loc, bytes)) = stored.and_then(copy) {
                    buf.extend_from_slice(bytes);
                    locs.push(BlockLoc {
                        epoch,
                        offset: 0, // assigned below, with the encoded blocks'
                        ..loc
                    });
                    reused += loc.len as u64;
                    continue;
                }
                let (codec, stored) = encode_block(raw, compression, &mut scratch);
                buf.extend_from_slice(stored);
                locs.push(BlockLoc {
                    epoch,
                    offset: 0, // assigned below, once the buffers are in line
                    len: stored.len() as u32,
                    raw_len: raw.len() as u32,
                    crc: crc32(stored),
                    codec,
                });
            }
            (buf, locs, reused)
        });
        let reused_bytes: u64 = encoded.iter().map(|(_, _, reused)| reused).sum();
        // Append: blocks lie end to end in plan order, so a block starts
        // where the stored lengths before it end.
        let mut new_locs: Vec<BlockLoc> = encoded.iter().flat_map(|(_, l, _)| l).copied().collect();
        let mut blocks_len = 0u64;
        for loc in &mut new_locs {
            loc.offset = blocks_len;
            blocks_len += loc.len as u64;
        }

        // Resolve every block reference; skipped sections re-reference
        // their previous refs untouched.
        let mut blocks_total = 0u64;
        let mut new_cache: HashMap<(usize, String), SectionCache> = HashMap::new();
        let mut ranks_manifest = Vec::with_capacity(image.ranks.len());
        for (img, sections) in image.ranks.iter().zip(chunked) {
            let mut section_refs: Vec<SectionRefs> = Vec::with_capacity(sections.len());
            for (name, recs) in sections {
                let data = img.section(&name).expect("section exists");
                let refs: Vec<(BlockKey, BlockLoc)> = match recs {
                    // Clean per its hint: reuse the previous refs.
                    None => cache[&(img.rank, name.clone())].refs.clone(),
                    Some(recs) => {
                        let loc = |key| index.get(key).unwrap_or_else(|| &new_locs[planned[key]]);
                        recs.iter().map(|rec| (rec.key, *loc(&rec.key))).collect()
                    }
                };
                blocks_total += refs.len() as u64;
                if let Some(generation) = img.section_hint(&name) {
                    new_cache.insert(
                        (img.rank, name.clone()),
                        SectionCache {
                            generation,
                            raw_len: data.len(),
                            refs: refs.clone(),
                        },
                    );
                }
                section_refs.push((name, refs));
            }
            ranks_manifest.push((img.rank, img.nranks, img.epoch, section_refs));
        }

        let manifest = Manifest {
            epoch,
            full,
            vendor_hint: image.vendor_hint.clone(),
            bytes_hashed,
            ranks: ranks_manifest,
        };
        let manifest_buf = manifest.encode();
        let refs = manifest.referenced_epochs();
        let mut bufs = encoded.into_iter().map(|(buf, ..)| buf);
        let mut blocks = bufs.next().unwrap_or_default();
        blocks.reserve_exact(blocks_len as usize - blocks.len());
        bufs.for_each(|buf| blocks.extend_from_slice(&buf));
        let encode_done = Instant::now();

        // Never publish over a committed epoch.
        let manifest_key = epoch_key(epoch, "", MANIFEST);
        if self.get(&manifest_key)?.is_some() {
            return Err(StoreError::Io {
                op: "commit",
                path: self.root.join(&manifest_key),
                msg: format!("epoch {epoch} is already committed"),
            });
        }
        self.publish(epoch, &blocks, &manifest_buf)?;
        let write_done = Instant::now();

        // Publish: the epoch is durable, so the handle may now know it.
        // Every error return is above this line — a failed commit leaves
        // the handle, like the chain, as it was.
        if full {
            self.index.clear();
        }
        self.index
            .extend(planned.iter().map(|(&key, &i)| (key, new_locs[i])));
        self.epochs.push(epoch);
        self.chain_len = Some(if full { 0 } else { self.chain_len() + 1 });
        self.section_cache = new_cache;
        self.refs_of.insert(epoch, refs);
        // Queue the sealed epoch for upload before GC runs: the epoch is
        // undurable until its seal lands, so the guard below keeps it
        // (and everything it references) on local disk meanwhile.
        if let Some(tier) = &self.tier {
            tier.runtime.enqueue(tier.lane, epoch);
        }
        self.gc();

        let stats = EpochStats {
            epoch,
            full,
            image_bytes: image.total_bytes() as u64,
            bytes_written: blocks_len + manifest_buf.len() as u64,
            bytes_hashed,
            new_block_raw_bytes: plan.iter().map(|(raw, _)| raw.len() as u64).sum(),
            blocks_total,
            blocks_new: plan.len() as u64,
        };
        self.stats.push(stats);
        self.emit(
            simnet::telemetry::EventKind::StoreCommit,
            epoch,
            full as u64,
            stats.blocks_new,
        );
        // Where the commit's wall went: one histogram per stage.
        let metrics = self.telemetry.metrics();
        let marks = [started, chunk_done, encode_done, write_done, Instant::now()];
        let stages = [
            "store.commit.chunk_us",
            "store.commit.encode_us",
            "store.commit.write_us",
            "store.commit.gc_us",
        ];
        for (name, span) in stages.iter().zip(marks.windows(2)) {
            let us = (span[1] - span[0]).as_micros() as u64;
            metrics.histogram(name).observe(us);
        }
        metrics
            .histogram("store.commit.reused_bytes")
            .observe(reused_bytes);
        Ok(stats)
    }

    /// Retention: keep the newest `retain_epochs` epochs plus everything
    /// their manifests still reference (a delta keeps its base alive),
    /// delete the rest.
    ///
    /// Epochs go newest first, each manifest first: a delta is gone
    /// before the bases it references, so a crash mid-collection never
    /// leaves a committed epoch whose blocks are gone.
    ///
    /// Housekeeping failures are non-fatal: the epoch just committed is
    /// already durable, so when a manifest cannot be deleted right now the
    /// collection stops there — that epoch and everything older stay
    /// listed and are retried on the next commit. GC must never tear down
    /// a run whose checkpoints are all intact. An epoch whose blocks fail
    /// to delete is uncommitted already, and the next open drops them.
    fn gc(&mut self) {
        if self.epochs.len() <= self.config.retain_epochs {
            return;
        }
        let kept: Vec<u64> = self.epochs[self.epochs.len() - self.config.retain_epochs..].to_vec();
        let mut live: BTreeSet<u64> = kept.iter().copied().collect();
        // Upload-durability guard: with a tier attached, an epoch whose
        // upload is not yet sealed remotely is the *only* copy of its
        // state — retention must not race a slow (or failed) shipper
        // into deleting it. Undurable epochs count as live; they become
        // collectable on the first GC after their seal lands.
        let mut guarded = 0u64;
        if let Some(tier) = &self.tier {
            let durable = tier.runtime.durable(tier.lane);
            for &e in &self.epochs {
                if !durable.contains(&e) && live.insert(e) {
                    guarded += 1;
                }
            }
        }
        // Every retained epoch (retention window *and* undurable-guard
        // survivors) keeps the epochs its manifest references alive — a
        // delta keeps its base restorable locally.
        let roots: Vec<u64> = live.iter().copied().collect();
        for e in roots {
            if !self.refs_of.contains_key(&e) {
                match self.read_manifest(e) {
                    Ok(manifest) => _ = self.refs_of.insert(e, manifest.referenced_epochs()),
                    // Can't prove what this manifest references: skip GC
                    // entirely rather than risk deleting a live base.
                    Err(_) => return,
                }
            }
            live.extend(&self.refs_of[&e]);
        }
        let before = self.epochs.len();
        let mut doomed = self.epochs.clone();
        doomed.retain(|e| !live.contains(e));
        for &e in doomed.iter().rev() {
            if self.delete(&epoch_key(e, "", MANIFEST)).is_err() {
                break;
            }
            let _ = self.delete(&epoch_key(e, "", BLOCKS));
            self.epochs.retain(|&x| x != e);
        }
        self.emit(
            simnet::telemetry::EventKind::GcDecision,
            (before - self.epochs.len()) as u64,
            self.epochs.len() as u64,
            guarded,
        );
        // Prune the dedup index of blocks whose epochs are gone; without
        // this, a later commit could reference a deleted epoch and
        // produce a manifest that cannot be restored. The section cache
        // holds the same kind of refs and gets the same treatment.
        let alive: BTreeSet<u64> = self.epochs.iter().copied().collect();
        self.index.retain(|_, loc| alive.contains(&loc.epoch));
        self.refs_of.retain(|e, _| alive.contains(e));
        self.section_cache
            .retain(|_, c| c.refs.iter().all(|(_, loc)| alive.contains(&loc.epoch)));
    }

    /// Reconstruct the newest epoch's world image.
    pub fn load_latest(&self) -> Result<WorldImage, StoreError> {
        let epoch = self.latest().ok_or(StoreError::Empty)?;
        self.load_epoch(epoch)
    }

    /// Reconstruct one epoch's world image by walking the chain: read its
    /// manifest and, in one ranged read per `blocks.bin` it references,
    /// the blocks it references (see [`merge_spans`]), then
    /// reassemble the ranks fanned out over `writer_threads` (see
    /// [`fan_out`]). Each block is CRC32-verified and then decoded
    /// straight into its span of the section buffer. Results join in rank
    /// order, so the error reported is the lowest failing rank's first
    /// bad block — never whichever loader thread lost the race.
    pub fn load_epoch(&self, epoch: u64) -> Result<WorldImage, StoreError> {
        let manifest = self.read_manifest(epoch)?;
        let locs = manifest
            .ranks
            .iter()
            .flat_map(|(_, _, _, sections)| sections);
        let started = Instant::now();
        let files = self.read_blocks(locs.flat_map(|(_, blocks)| blocks.iter().map(|(_, l)| l)));
        let read = started.elapsed();
        let read_bytes = files.values().flatten().map(|f| f.data.len() as u64).sum();
        self.telemetry
            .metrics()
            .counter("store.load.read_bytes")
            .add(read_bytes);
        let assemble = |slot: usize, rec: &(usize, usize, u64, Vec<SectionRefs>)| {
            let (rank, nranks, rank_epoch, sections) = rec;
            if *rank != slot {
                return Err(StoreError::InconsistentImage(format!(
                    "manifest slot {slot} holds rank {rank}"
                )));
            }
            let mut img = RankImage::new(*rank, *nranks, *rank_epoch);
            let mut scratch = Vec::new();
            for (name, blocks) in sections {
                let total: usize = blocks.iter().map(|(_, l)| l.raw_len as usize).sum();
                let mut data = vec![0u8; total];
                let mut rest = data.as_mut_slice();
                for (_, loc) in blocks {
                    let corrupt = || StoreError::BlockCorrupt {
                        epoch,
                        src_epoch: loc.epoch,
                        offset: loc.offset,
                        rank: *rank,
                        section: name.clone(),
                    };
                    // CRC the stored bytes first, then decode them: a
                    // decode failure after a CRC pass means the manifest
                    // itself disagrees with the block — still corruption,
                    // localized to the same (epoch, offset).
                    let slice = stored_block(&files, loc)?.ok_or_else(corrupt)?;
                    let (out, tail) = rest.split_at_mut(loc.raw_len as usize);
                    rest = tail;
                    if !decode_block(slice, loc.codec, out, &mut scratch) {
                        return Err(corrupt());
                    }
                }
                img.put_section(name, data);
            }
            Ok(img)
        };
        let ranks = fan_out(&manifest.ranks, self.config.writer_threads, assemble);
        let [read_us, decode_us, _] = &self.restore_us;
        read_us.observe(read.as_micros() as u64);
        decode_us.observe((started.elapsed() - read).as_micros() as u64);
        let ranks = ranks.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(WorldImage::new(manifest.vendor_hint, ranks))
    }

    /// Recompute per-epoch stats from the on-disk manifests (usable after
    /// a reopen, when [`DeltaStore::stats`] is empty). `bytes_written`
    /// counts the epoch's own files; `image_bytes` is the logical payload
    /// its manifest reconstructs.
    pub fn epoch_stats_on_disk(&self) -> Result<Vec<EpochStats>, StoreError> {
        let mut out = Vec::with_capacity(self.epochs.len());
        for &epoch in &self.epochs {
            let manifest = self.read_manifest(epoch)?;
            let mut stats = EpochStats {
                epoch,
                full: manifest.full,
                image_bytes: 0,
                bytes_written: 0,
                bytes_hashed: manifest.bytes_hashed,
                new_block_raw_bytes: 0,
                blocks_total: 0,
                blocks_new: 0,
            };
            // A section may reference the same own-epoch block many times
            // (intra-epoch dedup); "new" counts distinct written blocks.
            let mut own: BTreeMap<u64, u64> = BTreeMap::new();
            for (_, _, _, sections) in &manifest.ranks {
                for (_, blocks) in sections {
                    for (_, loc) in blocks {
                        stats.blocks_total += 1;
                        stats.image_bytes += loc.raw_len as u64;
                        if loc.epoch == epoch {
                            own.insert(loc.offset, loc.raw_len as u64);
                        }
                    }
                }
            }
            stats.blocks_new = own.len() as u64;
            stats.new_block_raw_bytes = own.values().sum();
            for name in [BLOCKS, MANIFEST] {
                let file = self.get(&epoch_key(epoch, "", name))?;
                stats.bytes_written += file.ok_or(StoreError::MissingEpoch { epoch })?.len() as u64;
            }
            out.push(stats);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::super::block::BlockCodec;
    use super::super::testutil::*;
    use super::*;
    use crate::codec::fnv1a;
    use crate::testing::{Fault, Op, Script};
    use crate::tier::MemTier;

    #[test]
    fn full_then_delta_roundtrip() {
        let dir = tmp_dir("rt");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        let img1 = image(1, 3, 0x11, 3000);
        let img2 = image(2, 3, 0x22, 3000);
        let s1 = store.commit(&img1).unwrap();
        let s2 = store.commit(&img2).unwrap();
        assert!(s1.full && !s2.full);
        // The static sections dedup: the delta writes far fewer bytes.
        assert!(
            s2.bytes_written < s1.bytes_written / 2,
            "delta {} vs full {}",
            s2.bytes_written,
            s1.bytes_written
        );
        assert!(s2.blocks_new < s2.blocks_total);
        assert_eq!(store.load_epoch(1).unwrap(), img1);
        assert_eq!(store.load_epoch(2).unwrap(), img2);
        assert_eq!(store.load_latest().unwrap(), img2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identical_epoch_writes_almost_nothing() {
        let dir = tmp_dir("ident");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        let img1 = image(1, 2, 0x33, 4000);
        let mut img2 = image(2, 2, 0x33, 4000);
        img2.vendor_hint = "Open MPI".to_string();
        let s1 = store.commit(&img1).unwrap();
        let s2 = store.commit(&img2).unwrap();
        assert_eq!(s2.blocks_new, 0, "no content changed");
        assert!(
            s2.bytes_written < s1.bytes_written / 3,
            "manifest-only delta {} vs full {}",
            s2.bytes_written,
            s1.bytes_written
        );
        let back = store.load_epoch(2).unwrap();
        assert_eq!(back, img2);
        assert_eq!(back.vendor_hint, "Open MPI");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chain_rolls_over_to_full_base() {
        let dir = tmp_dir("roll");
        let cfg = StoreConfig {
            max_chain: 2,
            retain_epochs: 10,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        let mut fulls = Vec::new();
        for e in 1..=6 {
            let s = store.commit(&image(e, 2, e as u8, 500)).unwrap();
            fulls.push(s.full);
        }
        // Base, two deltas, base, two deltas.
        assert_eq!(fulls, vec![true, false, false, true, false, false]);
        for e in 1..=6 {
            assert_eq!(store.load_epoch(e).unwrap(), image(e, 2, e as u8, 500));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_retains_restorable_epochs_and_their_bases() {
        let dir = tmp_dir("gc");
        let cfg = StoreConfig {
            retain_epochs: 2,
            max_chain: 8,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        for e in 1..=5 {
            store.commit(&image(e, 2, e as u8, 500)).unwrap();
        }
        // Epoch 1 is the base of the whole chain: it must survive GC even
        // though only {4, 5} are in the retention window.
        let kept = store.epochs().to_vec();
        assert!(kept.contains(&1), "base retained: {kept:?}");
        assert!(kept.contains(&4) && kept.contains(&5));
        assert!(
            !kept.contains(&2) || !kept.contains(&3),
            "middle GC'd: {kept:?}"
        );
        // Everything still advertised is restorable.
        for &e in store.epochs() {
            store.load_epoch(e).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recurring_content_after_gc_is_rewritten_not_dangled() {
        // Regression: content A -> B -> A with aggressive retention. After
        // GC deletes epoch 1, the dedup index must not hand epoch 3 a
        // reference into the deleted epoch — the recurring content has to
        // be rewritten so the committed epoch stays restorable.
        let dir = tmp_dir("regc");
        let cfg = StoreConfig {
            retain_epochs: 1,
            max_chain: 8,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        let a1 = image(1, 2, 0xA0, 900);
        let b = image(2, 2, 0xB1, 900);
        let mut a2 = image(3, 2, 0xA0, 900);
        // Fully distinct content in the middle epoch: change "static" too.
        let b = {
            let mut img = b;
            for r in img.ranks.iter_mut() {
                let flipped: Vec<u8> = r.section("static").unwrap().iter().map(|x| !x).collect();
                r.put_section("static", flipped);
            }
            img
        };
        a2.ranks.iter_mut().for_each(|r| r.epoch = 3);
        store.commit(&a1).unwrap();
        store.commit(&b).unwrap();
        assert_eq!(store.epochs(), &[2], "epoch 1 GC'd");
        let s3 = store.commit(&a2).unwrap();
        assert!(s3.blocks_new > 0, "recurring content must be rewritten");
        assert_eq!(store.load_epoch(3).unwrap(), a2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_block_detected_by_crc() {
        let dir = tmp_dir("crc");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        store.commit(&image(1, 2, 0x44, 800)).unwrap();
        let blocks = dir.join("epoch_000001").join("blocks.bin");
        let mut buf = std::fs::read(&blocks).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        std::fs::write(&blocks, &buf).unwrap();
        match store.load_epoch(1) {
            Err(StoreError::BlockCorrupt {
                epoch: 1,
                src_epoch: 1,
                ..
            }) => {}
            other => panic!("expected BlockCorrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_truncated_blocks_file_reports_the_block_the_cut_falls_in() {
        let dir = tmp_dir("trunc");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        store.commit(&image(1, 3, 0x44, 3000)).unwrap();
        store.commit(&image(2, 3, 0x55, 3000)).unwrap();
        // Cut the base's blocks.bin in the middle of rank 1's third
        // "static" block: rank 0, rank 1's "hot" (epoch 2) and its first
        // two base blocks still load, so that block is the first error.
        let manifest = store.read_manifest(2).unwrap();
        let (name, blocks) = &manifest.ranks[1].3[1];
        assert_eq!(name, "static");
        let loc = blocks[2].1;
        assert_eq!(loc.epoch, 1);
        let path = dir.join("epoch_000001").join("blocks.bin");
        let buf = std::fs::read(&path).unwrap();
        std::fs::write(&path, &buf[..(loc.offset + loc.len as u64 / 2) as usize]).unwrap();
        assert_eq!(
            store.load_epoch(2).unwrap_err(),
            StoreError::BlockCorrupt {
                epoch: 2,
                src_epoch: 1,
                offset: loc.offset,
                rank: 1,
                section: "static".to_string(),
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spans_less_than_4_kib_apart_are_read_as_one_range() {
        assert_eq!(
            merge_spans(vec![8295..8300, 0..100, 50..60, 4196..4200, 100..100]),
            [0..100, 4196..8300],
            "a gap of 4096 B keeps spans apart, one of 4095 B merges them"
        );
        assert!(merge_spans(Vec::new()).is_empty());
    }

    #[test]
    fn lowest_corrupt_rank_is_reported_whichever_loader_thread_finishes_first() {
        let dir = tmp_dir("rankerr");
        let cfg = StoreConfig {
            writer_threads: 7,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        store.commit(&image(1, 48, 0x11, 3000)).unwrap();
        store.commit(&image(2, 48, 0x22, 3000)).unwrap();
        // Rot the last block of one section: the blocks before it still
        // load, so it is the first error its rank meets.
        let manifest = store.read_manifest(2).unwrap();
        let rot = |rank: usize, section: &str| {
            let (_, blocks) = manifest.ranks[rank]
                .3
                .iter()
                .find(|(name, _)| name == section)
                .unwrap();
            let loc = blocks.last().unwrap().1;
            let path = dir
                .join(format!("epoch_{:06}", loc.epoch))
                .join("blocks.bin");
            let mut buf = std::fs::read(&path).unwrap();
            buf[loc.offset as usize] ^= 0x01;
            std::fs::write(&path, &buf).unwrap();
            StoreError::BlockCorrupt {
                epoch: 2,
                src_epoch: loc.epoch,
                offset: loc.offset,
                rank,
                section: section.to_string(),
            }
        };
        // Rank 31's delta block (epoch 2) and rank 5's base block
        // (epoch 1) land on different loader threads (7 ranks each).
        let later = rot(31, "hot");
        let first = rot(5, "static");
        assert!(matches!(
            later,
            StoreError::BlockCorrupt { src_epoch: 2, .. }
        ));
        assert!(matches!(
            first,
            StoreError::BlockCorrupt { src_epoch: 1, .. }
        ));
        for _ in 0..20 {
            assert_eq!(store.load_epoch(2).unwrap_err(), first);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_detected_by_checksum() {
        let dir = tmp_dir("man");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        store.commit(&image(1, 2, 0x55, 300)).unwrap();
        let path = dir.join("epoch_000001").join("manifest.bin");
        let mut buf = std::fs::read(&path).unwrap();
        buf[10] ^= 0xFF;
        std::fs::write(&path, &buf).unwrap();
        assert!(matches!(
            store.load_epoch(1),
            Err(StoreError::Manifest { epoch: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_continues_the_delta_chain() {
        let dir = tmp_dir("reopen");
        {
            let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
            store.commit(&image(1, 2, 0x66, 1500)).unwrap();
            store.commit(&image(2, 2, 0x67, 1500)).unwrap();
        }
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        assert_eq!(store.epochs(), &[1, 2]);
        let s3 = store.commit(&image(3, 2, 0x68, 1500)).unwrap();
        assert!(!s3.full, "reopened chain continues as deltas");
        assert!(s3.blocks_new < s3.blocks_total, "dedup vs reopened index");
        assert_eq!(store.load_epoch(3).unwrap(), image(3, 2, 0x68, 1500));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_commit_is_cleaned_on_open() {
        let dir = tmp_dir("torn");
        {
            let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
            store.commit(&image(1, 2, 0x70, 400)).unwrap();
        }
        // A crash mid-commit: blocks put, manifest never. And the staging
        // directory an older build left when it never renamed.
        let torn = dir.join("epoch_000002");
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(torn.join(BLOCKS), b"half").unwrap();
        let staged = dir.join("epoch_000003.tmp");
        std::fs::create_dir_all(&staged).unwrap();
        std::fs::write(staged.join(BLOCKS), b"half").unwrap();
        let store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        assert_eq!(store.epochs(), &[1], "torn epoch invisible");
        assert!(!torn.exists(), "uncommitted epoch removed");
        assert!(!staged.exists(), "torn tmp dir removed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inconsistent_images_rejected_and_chain_owns_its_sequence() {
        let dir = tmp_dir("mono");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        // Coordinator epochs restart across runs; the chain sequence keeps
        // counting regardless of what the images claim.
        let s1 = store.commit(&image(5, 2, 0x71, 100)).unwrap();
        let s2 = store.commit(&image(1, 2, 0x72, 100)).unwrap();
        assert_eq!((s1.epoch, s2.epoch), (1, 2));
        assert_eq!(store.load_epoch(2).unwrap().ranks[0].epoch, 1);
        let mut bad = image(6, 2, 0x73, 100);
        bad.ranks[1].epoch = 7;
        assert!(matches!(
            store.commit(&bad),
            Err(StoreError::InconsistentImage(_))
        ));
        let mut sparse = image(6, 2, 0x74, 100);
        sparse.ranks.swap(0, 1);
        assert!(matches!(
            store.commit(&sparse),
            Err(StoreError::InconsistentImage(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirty_tracking_skips_hashing_clean_sections() {
        let dir = tmp_dir("dirty");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        let img1 = hinted_image(1, 3, 0x11, 4000);
        let s1 = store.commit(&img1).unwrap();
        // The first base hashes everything: no hint is cached yet.
        assert_eq!(s1.bytes_hashed, img1.total_bytes() as u64);

        // Same static stamp, moved hot stamp: only "hot" is hashed.
        let img2 = hinted_image(2, 3, 0x22, 4000);
        let s2 = store.commit(&img2).unwrap();
        let hot_bytes: u64 = img2
            .ranks
            .iter()
            .map(|r| r.section("hot").unwrap().len() as u64)
            .sum();
        assert_eq!(
            s2.bytes_hashed, hot_bytes,
            "clean static sections must not be hashed"
        );
        assert!(s2.bytes_hashed * 2 < img2.total_bytes() as u64);
        // Skipping must not change what lands on disk or reloads.
        assert_eq!(store.load_epoch(2).unwrap(), img2);

        // The same epochs with dirty tracking off hash every byte but
        // write the identical delta (dedup finds the same unchanged
        // blocks the hints prove unchanged).
        let dir_full = tmp_dir("dirty_off");
        let cfg_full = StoreConfig {
            dirty_tracking: false,
            ..small_cfg()
        };
        let mut full_store = DeltaStore::open_with(&dir_full, cfg_full).unwrap();
        let f1 = full_store.commit(&img1).unwrap();
        let f2 = full_store.commit(&img2).unwrap();
        assert_eq!(f2.bytes_hashed, img2.total_bytes() as u64);
        assert_eq!(f1.bytes_written, s1.bytes_written);
        assert_eq!(f2.bytes_written, s2.bytes_written);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir_full).unwrap();
    }

    #[test]
    fn stale_or_missing_hints_are_rehashed_not_trusted() {
        let dir = tmp_dir("hints");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        store.commit(&hinted_image(1, 2, 0x11, 2000)).unwrap();

        // A moved stamp on unchanged content re-hashes it (and dedup
        // still finds it unchanged). The "hot" sections keep both their
        // stamps and their content, so they are legitimately skipped.
        let mut img2 = hinted_image(2, 2, 0x11, 2000);
        for r in img2.ranks.iter_mut() {
            let data = r.section("static").unwrap().to_vec();
            r.put_section_hinted("static", data, 999);
        }
        let static_bytes = |img: &WorldImage| -> u64 {
            img.ranks
                .iter()
                .map(|r| r.section("static").unwrap().len() as u64)
                .sum()
        };
        let s2 = store.commit(&img2).unwrap();
        assert_eq!(
            s2.bytes_hashed,
            static_bytes(&img2),
            "moved stamp re-hashes, clean hot sections skip"
        );
        assert_eq!(s2.blocks_new, 0, "content unchanged, dedup still wins");

        // A matching stamp with a different *length* is not trusted.
        let mut img3 = hinted_image(3, 2, 0x11, 2000);
        for r in img3.ranks.iter_mut() {
            let mut data = r.section("static").unwrap().to_vec();
            data.extend_from_slice(b"grown");
            r.put_section_hinted("static", data, 999);
        }
        let s3 = store.commit(&img3).unwrap();
        assert_eq!(s3.bytes_hashed, static_bytes(&img3));
        assert_eq!(store.load_epoch(3).unwrap(), img3);

        // Unhinted sections (a reloaded image carries no hints) always
        // hash fully.
        let reloaded = store.load_epoch(3).unwrap();
        let s4 = store.commit(&reloaded).unwrap();
        assert_eq!(s4.bytes_hashed, reloaded.total_bytes() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_rebase_rehashes_only_dirty_sections_and_references_nothing_older() {
        let dir = tmp_dir("dirty_base");
        let cfg = StoreConfig {
            max_chain: 1,
            retain_epochs: 10,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        store.commit(&hinted_image(1, 2, 0x11, 1500)).unwrap(); // base
        store.commit(&hinted_image(2, 2, 0x22, 1500)).unwrap(); // delta
        let img3 = hinted_image(3, 2, 0x33, 1500);
        let s3 = store.commit(&img3).unwrap(); // base again
        assert!(s3.full);
        let hot: usize = img3
            .ranks
            .iter()
            .map(|r| r.section("hot").unwrap().len())
            .sum();
        assert_eq!(
            s3.bytes_hashed, hot as u64,
            "a base takes a clean section's chunk list from its cached refs"
        );
        let refs = store.read_manifest(3).unwrap().referenced_epochs();
        assert_eq!(refs, [3].into(), "every block is the base's own");
        for e in 1..=3 {
            assert_eq!(
                store.load_epoch(e).unwrap(),
                hinted_image(e, 2, (e as u8) * 0x11, 1500)
            );
        }
        // A full base is self-contained: it references nothing older, so
        // it must still load after every earlier epoch is gone.
        for e in 1..=2 {
            std::fs::remove_dir_all(dir.join(format!("epoch_{e:06}"))).unwrap();
        }
        assert_eq!(store.load_epoch(3).unwrap(), hinted_image(3, 2, 0x33, 1500));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_head_is_quarantined_and_chain_falls_back() {
        let dir = tmp_dir("quar");
        let cfg = StoreConfig {
            retain_epochs: 10,
            ..small_cfg()
        };
        {
            let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
            for e in 1..=3 {
                store.commit(&image(e, 2, e as u8, 1000)).unwrap();
            }
        }
        // Rot the head's manifest.
        let head_manifest = dir.join("epoch_000003").join("manifest.bin");
        let mut buf = std::fs::read(&head_manifest).unwrap();
        buf[20] ^= 0xFF;
        std::fs::write(&head_manifest, &buf).unwrap();

        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        assert_eq!(store.quarantined(), &[3]);
        assert_eq!(store.epochs(), &[1, 2], "chain fell back to epoch 2");
        assert!(dir.join("epoch_000003.bad").is_dir(), "head kept aside");
        assert!(!dir.join("epoch_000003").exists());
        assert_eq!(store.load_latest().unwrap(), image(2, 2, 2, 1000));
        // The chain continues — and reuses the quarantined head's number.
        let s = store.commit(&image(3, 2, 9, 1000)).unwrap();
        assert_eq!(s.epoch, 3);
        assert_eq!(store.load_latest().unwrap(), image(3, 2, 9, 1000));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_file_quarantines_but_io_failure_propagates() {
        let dir = tmp_dir("quar_io");
        {
            let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
            store.commit(&image(1, 2, 1, 500)).unwrap();
            store.commit(&image(2, 2, 2, 500)).unwrap();
        }
        // manifest.bin present but unreadable (it is a directory →
        // EISDIR): a transient-I/O-shaped failure must propagate, not
        // rename the newest committed epoch aside.
        let head_manifest = dir.join("epoch_000002").join("manifest.bin");
        std::fs::remove_file(&head_manifest).unwrap();
        std::fs::create_dir(&head_manifest).unwrap();
        match DeltaStore::open_with(&dir, small_cfg()) {
            Err(StoreError::Io { .. }) => {}
            other => panic!("expected an I/O error, got {:?}", other.map(|_| "store")),
        }
        assert!(
            dir.join("epoch_000002").is_dir(),
            "healthy-looking epoch must not be quarantined on I/O failure"
        );

        // manifest.bin *gone* leaves the epoch uncommitted: open drops
        // what is left of it and falls back.
        std::fs::remove_dir(&head_manifest).unwrap();
        let store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        assert!(store.quarantined().is_empty());
        assert_eq!(store.epochs(), &[1]);
        assert!(
            !dir.join("epoch_000002").exists(),
            "uncommitted head dropped"
        );
        assert_eq!(store.load_latest().unwrap(), image(1, 2, 1, 500));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_uncommitted_epoch_the_head_references_keeps_its_blocks() {
        let dir = tmp_dir("head_refs");
        {
            let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
            store.commit(&image(1, 2, 1, 900)).unwrap();
            store.commit(&image(2, 2, 2, 900)).unwrap();
        }
        // The delta head references its base, whose manifest is gone.
        std::fs::remove_file(dir.join("epoch_000001").join(MANIFEST)).unwrap();
        let store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        assert_eq!(store.epochs(), &[2]);
        assert!(dir.join("epoch_000001").join(BLOCKS).is_file());
        assert_eq!(store.load_latest().unwrap(), image(2, 2, 2, 900));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fully_rotted_store_quarantines_every_epoch_and_reports_empty() {
        let dir = tmp_dir("quar_all");
        {
            let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
            store.commit(&image(1, 2, 1, 500)).unwrap();
            store.commit(&image(2, 2, 2, 500)).unwrap();
        }
        for e in 1..=2 {
            std::fs::write(
                dir.join(format!("epoch_{e:06}")).join("manifest.bin"),
                b"garbage",
            )
            .unwrap();
        }
        let store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        assert_eq!(store.quarantined(), &[2, 1], "newest first");
        assert!(store.epochs().is_empty());
        assert!(matches!(store.load_latest(), Err(StoreError::Empty)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_commit_cleanup_continues_chain_with_correct_length() {
        // A crash mid-commit leaves `epoch_NNNNNN.tmp`; reopening must
        // clean it, keep the committed chain, and continue the delta
        // chain with the right length (the next commit is a delta, and
        // the base rollover still happens at the configured depth).
        let dir = tmp_dir("torn_chain");
        let cfg = StoreConfig {
            max_chain: 3,
            retain_epochs: 10,
            ..small_cfg()
        };
        {
            let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
            store.commit(&image(1, 2, 1, 800)).unwrap(); // base, chain_len 0
            store.commit(&image(2, 2, 2, 800)).unwrap(); // delta, chain_len 1
        }
        let torn = dir.join("epoch_000003.tmp");
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(torn.join("blocks.bin"), b"half a block").unwrap();

        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        assert!(!torn.exists(), "torn tmp dir removed");
        assert_eq!(store.epochs(), &[1, 2]);
        let s3 = store.commit(&image(3, 2, 3, 800)).unwrap(); // chain_len 2
        let s4 = store.commit(&image(4, 2, 4, 800)).unwrap(); // chain_len 3
        let s5 = store.commit(&image(5, 2, 5, 800)).unwrap(); // rollover
        assert!(!s3.full && !s4.full, "reopened chain continues as deltas");
        assert!(s5.full, "base rollover at max_chain across the reopen");
        for e in 1..=5 {
            assert_eq!(store.load_epoch(e).unwrap(), image(e, 2, e as u8, 800));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_stats_on_disk_match_live_stats() {
        let dir = tmp_dir("stats");
        let mut store = DeltaStore::open_with(&dir, small_cfg()).unwrap();
        for e in 1..=3 {
            store.commit(&hinted_image(e, 2, e as u8, 900)).unwrap();
        }
        let disk = store.epoch_stats_on_disk().unwrap();
        assert_eq!(disk.len(), store.stats().len());
        for (d, l) in disk.iter().zip(store.stats()) {
            assert_eq!(d.epoch, l.epoch);
            assert_eq!(d.full, l.full);
            assert_eq!(d.blocks_total, l.blocks_total);
            assert_eq!(d.blocks_new, l.blocks_new);
            assert_eq!(d.image_bytes, l.image_bytes);
            assert_eq!(d.bytes_written, l.bytes_written);
            assert_eq!(
                d.bytes_hashed, l.bytes_hashed,
                "manifest records the hash cost"
            );
            assert_eq!(d.new_block_raw_bytes, l.new_block_raw_bytes);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The fixed chain behind the golden digests: a base, a delta and a
    /// hinted-clean delta over shuffle-compressible, LZ4-compressible
    /// and noise sections, with ranks 3 and 4 sharing their noise so
    /// first-occurrence-wins placement is on the path.
    fn golden_image(step: u64) -> WorldImage {
        let ranks = (0..5usize)
            .map(|r| {
                let mut img = RankImage::new(r, 5, step);
                let lattice = (0..1024u64).flat_map(|i| {
                    let low = i.wrapping_mul(step + 3) & 0xFFFF;
                    (0x3FF0_0000_0000_0000u64 | (r as u64) << 32 | low).to_le_bytes()
                });
                img.put_section("lattice", lattice.collect());
                let text =
                    (0..4000usize).map(|i| b"checkpoint "[(i * 7 + r) % 11] + (i / 500) as u8);
                img.put_section("text", text.collect());
                let moved = step.min(2);
                img.put_section("noise", fill_bytes(moved << 8 | r.min(3) as u64, 6000));
                img.put_section_hinted("static", fill_bytes(77 + r as u64, 3000), 1);
                img.put_section_hinted("hot", fill_bytes(moved * 1000 + r as u64, 2000), moved);
                img
            })
            .collect();
        WorldImage::new("MPICH".to_string(), ranks)
    }

    fn golden_cfg(writer_threads: usize) -> StoreConfig {
        StoreConfig {
            block_size: 256,
            writer_threads,
            ..small_cfg()
        }
    }

    #[test]
    fn golden_chain_bytes_are_independent_of_writer_threads() {
        // FNV-1a of epoch 1..=3's `blocks.bin`, `manifest.bin`, recorded
        // from commit 2a4cbf1 — before the commit path was rebuilt. The
        // manifest digests were re-recorded when the keys became
        // `content_key`s (manifest V3); the blocks did not move.
        const GOLDEN: [u64; 6] = [
            0x14060a241737892c,
            0x6d2c673fe4e75e2f,
            0x3f81f03ee5f36e8f,
            0xba0dbaa8bf2e6915,
            0xd3fafaa8e4965aaa,
            0x59bc6ddbb3fe9682,
        ];
        let mut chains = Vec::new();
        for threads in [1usize, 2, 7] {
            let dir = tmp_dir(&format!("golden{threads}"));
            let mut store = DeltaStore::open_with(&dir, golden_cfg(threads)).unwrap();
            let mut files = Vec::new();
            for step in 1..=3u64 {
                let s = store.commit(&golden_image(step)).unwrap();
                assert_eq!(s.full, step == 1);
                for name in [BLOCKS, MANIFEST] {
                    files.push(store.get(&epoch_key(step, "", name)).unwrap().unwrap());
                }
            }
            // Every codec and both kinds of skip are on the path.
            let refs = |e: u64| -> Vec<BlockLoc> {
                let m = store.read_manifest(e).unwrap();
                let sections = m.ranks.iter().flat_map(|r| &r.3);
                sections.flat_map(|(_, b)| b.iter().map(|x| x.1)).collect()
            };
            for codec in [BlockCodec::Raw, BlockCodec::Lz4, BlockCodec::ShuffleLz4] {
                assert!(refs(1).iter().any(|l| l.codec == codec), "{codec:?} unused");
            }
            assert!(store.stats()[2].bytes_hashed < store.stats()[1].bytes_hashed);
            assert!(store.stats()[2].blocks_new > 0);
            assert_eq!(store.load_epoch(3).unwrap(), golden_image(3));
            chains.push(files);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert!(
            chains[0] == chains[1] && chains[0] == chains[2],
            "bytes moved with writer_threads"
        );
        let digests: Vec<u64> = chains[0].iter().map(|f| fnv1a(f)).collect();
        assert_eq!(digests, GOLDEN, "chain bytes moved: {digests:#018x?}");
    }

    #[test]
    fn repeated_commits_of_one_image_yield_identical_stats() {
        let mut seen: Vec<Vec<EpochStats>> = Vec::new();
        for _ in 0..20 {
            let dir = tmp_dir("samestats");
            let mut store = DeltaStore::open_with(&dir, golden_cfg(7)).unwrap();
            for step in 1..=2 {
                store.commit(&golden_image(step)).unwrap();
            }
            assert_eq!(store.stats(), store.epoch_stats_on_disk().unwrap());
            seen.push(store.stats().to_vec());
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert!(seen.iter().all(|s| *s == seen[0]), "{seen:?}");
    }

    /// Everything a commit publishes into the handle, in comparable form.
    fn handle_state(store: &DeltaStore) -> impl PartialEq + std::fmt::Debug {
        let index: BTreeMap<BlockKey, (u64, u64)> = store
            .index
            .iter()
            .map(|(&k, l)| (k, (l.epoch, l.offset)))
            .collect();
        let cache: BTreeMap<(usize, String), (u64, usize)> = store
            .section_cache
            .iter()
            .map(|(k, c)| (k.clone(), (c.generation, c.refs.len())))
            .collect();
        let stats = store.stats.clone();
        let refs_of = store.refs_of.clone();
        (
            store.epochs.clone(),
            store.chain_len,
            index,
            cache,
            stats,
            refs_of,
        )
    }

    #[test]
    fn failed_commit_leaves_the_handle_unchanged_and_a_retry_restores() {
        let cfg = StoreConfig {
            max_chain: 1,
            retain_epochs: 10,
            ..small_cfg()
        };
        let script = Script::new();
        let mut store = DeltaStore::open_on(script.wrap(Arc::new(MemTier::new())), cfg).unwrap();
        store.commit(&hinted_image(1, 3, 0x11, 3000)).unwrap();
        // Epoch 2 is a delta attempt, epoch 3 a `full` rebase attempt.
        for epoch in [2u64, 3] {
            let img = hinted_image(epoch, 3, 0x11 * epoch as u8, 3000);
            // The volume fails the commit's first put.
            script.push(Op::Put, [Fault::Fail]);
            let before = handle_state(&store);
            match store.commit(&img) {
                Err(StoreError::Io { op: "put", .. }) => {}
                other => panic!("expected the put to fail, got {other:?}"),
            }
            assert!(
                handle_state(&store) == before,
                "a failed commit moved the handle"
            );
            assert_eq!(
                store.load_latest().unwrap().ranks[0].epoch,
                epoch - 1,
                "the chain still restores its head"
            );
            let s = store.commit(&img).unwrap();
            assert_eq!((s.epoch, s.full), (epoch, epoch == 3));
            assert!(
                s.blocks_new > 0,
                "the retry writes what the attempt could not"
            );
            assert_eq!(store.load_latest().unwrap(), img);
        }
    }
}
