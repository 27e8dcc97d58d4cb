//! The one seam for durable bytes, and the remote second tier of the
//! delta-checkpoint store: sealed-epoch shipping to object storage.
//!
//! Every checkpoint byte that reaches a disk goes through [`ObjectTier`]:
//! the node-local chain is an [`FsTier`] rooted at the chain directory
//! ([`crate::store::DeltaStore`] commits, hydrates, quarantines and
//! collects through it), and so are the remote tier and the replica
//! logs. This file is the only one that calls `std::fs` for them.
//!
//! A node-local delta chain survives process failures, but the disk it
//! lives on is itself a single point of failure — and the quarantine path
//! (`epoch_NNNNNN.bad`) loses state *permanently* when the only copy of a
//! manifest rots. This module adds redundancy one layer out:
//!
//! * [`ObjectTier`] — a minimal put/get/list/delete interface over opaque
//!   sealed objects, deliberately shaped like an object store (S3-style:
//!   whole-object writes, no partial updates, keys not paths). A put
//!   that returns `Ok` is durable.
//! * [`FsTier`] — the in-tree implementation, modelling object storage on
//!   a filesystem: every `put` lands in a staging file under `.inflight/`,
//!   is fsynced, atomically renamed into place, and the directories the
//!   rename changed are fsynced, so a torn local write can never be
//!   observed as an object and a returned put survives power loss.
//! * [`MemTier`] — an in-memory volume for tests and benches; faults are
//!   injected by wrapping any volume in a
//!   [`crate::testing::ScriptedVol`].
//! * `TierRuntime` (crate-internal) — the background shipper thread, a
//!   `crate::lanes::LaneMux`: each locally committed epoch is queued,
//!   its `blocks.bin` and `manifest.bin` are read from the local volume
//!   and uploaded with read-back CRC
//!   verification and exponential-backoff retries, and a small
//!   checksummed **seal** object is written last.
//!   An epoch is *durable in the tier* only once its seal is up; the
//!   store's retention GC never deletes a local epoch that is not.
//!
//! An epoch comes back from the tier one way: a tier-attached open
//! hydrates what the restore target needs and the local chain lacks —
//! a wiped or behind chain, a lost base, a quarantined head — verified
//! against its seal and installed manifest last
//! (`crate::store::DeltaStore::attach_tier`). A download whose bytes fail
//! their check is read again within the retry budget.
//!
//! The tier stores exactly the vendor-neutral on-disk epoch format, so a
//! chain hydrated from the tier restores under either MPI engine
//! bit-identically — the paper's cross-vendor claim extended across the
//! storage boundary.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use simnet::telemetry::{EventKind, Telemetry};

use crate::codec::{crc32, CodecError, Reader, Writer};
use crate::lanes::{LaneMux, LaneWorker, Lanes};
use crate::store::{epoch_key, BLOCKS, MANIFEST};

/// Magic prefix of a seal object ("TIERSEAL", one byte short).
const SEAL_MAGIC: u64 = 0x5449_4552_5345_414C;
/// Seal format version.
const SEAL_V1: u64 = 1;

/// Why a tier operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierError {
    /// An I/O-level failure talking to the tier.
    Io {
        /// The operation ("put", "get", "list", "delete").
        op: &'static str,
        /// The object key involved.
        key: String,
        /// The underlying error, stringified (keeps the error cloneable).
        msg: String,
    },
    /// The requested object does not exist.
    NotFound {
        /// The missing key.
        key: String,
    },
    /// An object exists but its content failed verification (length or
    /// CRC mismatch against its seal, or an undecodable seal/manifest).
    Corrupt {
        /// The offending key.
        key: String,
        /// What disagreed.
        detail: String,
    },
    /// A key is not a valid tier key (absolute, empty, or escaping).
    BadKey {
        /// The rejected key.
        key: String,
    },
}

impl fmt::Display for TierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TierError::Io { op, key, msg } => write!(f, "tier {op} {key}: {msg}"),
            TierError::NotFound { key } => write!(f, "tier object {key} not found"),
            TierError::Corrupt { key, detail } => write!(f, "tier object {key} corrupt: {detail}"),
            TierError::BadKey { key } => write!(f, "invalid tier key {key:?}"),
        }
    }
}

impl std::error::Error for TierError {}

/// A second storage tier holding opaque sealed objects.
///
/// The interface is deliberately the lowest common denominator of object
/// stores: whole-object put/get, ranged get, flat keys with `/` as a
/// naming (not filesystem) convention, idempotent delete, prefix
/// listing. Everything the store ships through it is self-verifying
/// (seal CRCs + the manifest's own checksum trailer), so a tier
/// implementation does not need read-after-write consistency stronger
/// than "a completed put is eventually observable".
///
/// A returned put is durable: the object survives a crash or power loss
/// of the caller from that moment on. Every publish protocol built on the
/// trait (the chain's manifest-last commit, the tier's seal-last ship)
/// orders its puts and relies on exactly this. A delete promises less:
/// it may be undone by a power loss, so no protocol lets a restore
/// depend on an object being gone (docs/store.md, "Crash consistency").
pub trait ObjectTier: Send + Sync {
    /// Store `data` under `key`, replacing any existing object; durable
    /// on return.
    fn put(&self, key: &str, data: &[u8]) -> Result<(), TierError>;
    /// Fetch the object at `key`.
    fn get(&self, key: &str) -> Result<Vec<u8>, TierError>;
    /// Fetch the byte ranges `ranges` of the object at `key`, concatenated
    /// in order. A range past the end of the object reads short, down to
    /// nothing, and never errs. The default is an [`ObjectTier::get`] plus
    /// a copy, so a wrapper's scripts and counts see one get.
    fn get_ranges(&self, key: &str, ranges: &[Range<u64>]) -> Result<Vec<u8>, TierError> {
        Ok(concat_ranges(&self.get(key)?, ranges))
    }
    /// List every key starting with `prefix` (pass `""` for all keys).
    fn list(&self, prefix: &str) -> Result<Vec<String>, TierError>;
    /// Delete the object at `key`; deleting a missing object succeeds.
    fn delete(&self, key: &str) -> Result<(), TierError>;
}

/// `r` within an object of `len` bytes: a range past the end reads short.
fn clip(r: &Range<u64>, len: u64) -> Range<usize> {
    let start = r.start.min(len);
    start as usize..r.end.clamp(start, len) as usize
}

/// The bytes of `data` that `ranges` name, concatenated.
fn concat_ranges(data: &[u8], ranges: &[Range<u64>]) -> Vec<u8> {
    let len = data.len() as u64;
    let mut out = Vec::with_capacity(ranges.iter().map(|r| clip(r, len).len()).sum());
    for r in ranges {
        out.extend_from_slice(&data[clip(r, len)]);
    }
    out
}

/// Jitter applied to every backoff step, in permille of the step: each
/// sleep is the step ± up to 25%. Derived deterministically from the key
/// and attempt number, so retries are de-synchronized across objects
/// without making tests flaky.
const JITTER_PERMILLE: u128 = 250;

/// Tunables of the tier shipper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Attempts per object upload before the shipper error goes sticky
    /// (each attempt is a put followed by a read-back CRC verification).
    pub max_attempts: u32,
    /// Base backoff between attempts; doubles per retry, and each sleep
    /// is jittered by up to ±25% (`JITTER_PERMILLE`).
    pub backoff: Duration,
}

impl Default for TierConfig {
    fn default() -> TierConfig {
        TierConfig {
            max_attempts: 4,
            backoff: Duration::from_millis(10),
        }
    }
}

/// What the shipper has done so far: a view of the lane's recorder,
/// built on read from its registry ([`crate::DeltaStore::tier_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Epochs whose seal is durably in the tier.
    pub epochs_shipped: u64,
    /// Bytes uploaded for those epochs (blocks + manifest + seal — only
    /// the epoch's *new* blocks ship, so this is the dedup-at-tier
    /// number).
    pub bytes_shipped: u64,
    /// Upload attempts beyond the first, across all objects.
    pub put_retries: u64,
    /// Epochs abandoned after `max_attempts` (the sticky error).
    pub ship_failures: u64,
}

// ---------------------------------------------------------------------------
// Object keys and the seal record
// ---------------------------------------------------------------------------

/// Tier keys of one epoch's objects under a namespace prefix:
/// `(blocks, manifest, seal)`. The prefix is `""` for the legacy
/// single-tenant layout, or `tenant/<id>/` for one tenant of a shared
/// tier (see [`tenant_namespace`]).
pub(crate) fn epoch_keys(ns: &str, epoch: u64) -> (String, String, String) {
    let key = |name| format!("{ns}{}", epoch_key(epoch, "", name));
    (key(BLOCKS), key(MANIFEST), key("seal"))
}

/// The tier key namespace of one tenant: `tenant/<id>/`. Rejects ids
/// that are not a single legal key segment (empty, containing `/` or
/// `\`, `.`, `..`, or the reserved `.inflight`), so a tenant id can
/// never escape its namespace or collide with another tenant's.
pub fn tenant_namespace(id: &str) -> Result<String, TierError> {
    let bad = id.is_empty()
        || id == "."
        || id == ".."
        || id == ".inflight"
        || id.contains('/')
        || id.contains('\\');
    if bad {
        return Err(TierError::BadKey {
            key: format!("tenant/{id}/"),
        });
    }
    Ok(format!("tenant/{id}/"))
}

/// The seal record: written to the tier *after* an epoch's blocks and
/// manifest, it is the durable commit point of a shipped epoch and
/// carries the lengths and CRCs that hydration verifies downloads
/// against. An epoch whose seal does not decode on any download attempt
/// is treated as never shipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Seal {
    pub epoch: u64,
    pub blocks_len: u64,
    pub blocks_crc: u32,
    pub manifest_len: u64,
    pub manifest_crc: u32,
}

impl Seal {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(SEAL_MAGIC);
        w.u64(SEAL_V1);
        w.u64(self.epoch);
        w.u64(self.blocks_len);
        w.u32(self.blocks_crc);
        w.u64(self.manifest_len);
        w.u32(self.manifest_crc);
        w.finish()
    }

    pub(crate) fn decode(buf: &[u8]) -> Result<Seal, CodecError> {
        let mut r = Reader::checked(buf)?;
        r.expect_magic(SEAL_MAGIC)?;
        let version = r.u64()?;
        if version != SEAL_V1 {
            return Err(CodecError::BadMagic {
                expected: SEAL_V1,
                found: version,
            });
        }
        Ok(Seal {
            epoch: r.u64()?,
            blocks_len: r.u64()?,
            blocks_crc: r.u32()?,
            manifest_len: r.u64()?,
            manifest_crc: r.u32()?,
        })
    }
}

/// Download and decode the seal of `epoch`: bytes that do not decode, or
/// name another epoch, are a failed attempt and read again.
fn get_seal(
    tier: &dyn ObjectTier,
    config: TierConfig,
    key: &str,
    epoch: u64,
) -> Result<Seal, TierError> {
    get_retried(tier, config, key, |buf| match Seal::decode(&buf) {
        Ok(seal) if seal.epoch == epoch => Ok(seal),
        Ok(seal) => Err(format!(
            "seal names epoch {}, key names {epoch}",
            seal.epoch
        )),
        Err(e) => Err(format!("seal does not decode: {e}")),
    })
}

/// Decode every seal in the tier, keyed by epoch. A seal that fails to
/// decode (or names another epoch) on every download attempt counts as
/// "not shipped" (the shipper will re-upload), never as an error: the
/// seal is the commit record, and a torn commit record means the commit
/// did not happen.
pub(crate) fn sealed_seals(
    tier: &dyn ObjectTier,
    config: TierConfig,
    ns: &str,
) -> Result<BTreeMap<u64, Seal>, TierError> {
    let mut sealed = BTreeMap::new();
    let prefix = format!("{ns}epoch_");
    for key in tier.list(&prefix)? {
        let Some(rest) = key.strip_prefix(&prefix) else {
            continue;
        };
        let Some(digits) = rest.strip_suffix("/seal") else {
            continue;
        };
        if !digits.chars().all(|c| c.is_ascii_digit()) {
            continue;
        }
        let Ok(epoch) = digits.parse::<u64>() else {
            continue;
        };
        match get_seal(tier, config, &key, epoch) {
            Ok(seal) => _ = sealed.insert(epoch, seal),
            Err(TierError::NotFound { .. } | TierError::Corrupt { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(sealed)
}

/// Fetch one sealed epoch, fully verified: the seal decodes, and both
/// objects match the lengths and CRCs it records. Returns
/// `(blocks, manifest)` bytes ready to install locally. Downloads go
/// through the retrying get path, so transient tier faults and torn
/// downloads heal; bytes that fail their check on every attempt are
/// [`TierError::Corrupt`].
pub(crate) fn fetch_sealed_epoch(
    tier: &dyn ObjectTier,
    config: TierConfig,
    ns: &str,
    epoch: u64,
) -> Result<(Vec<u8>, Vec<u8>), TierError> {
    let (blocks_key, manifest_key, seal_key) = epoch_keys(ns, epoch);
    let seal = get_seal(tier, config, &seal_key, epoch)?;
    let verified = |key: String, want_len: u64, want_crc: u32| {
        get_retried(tier, config, &key, |buf| {
            let crc = crc32(&buf);
            if buf.len() as u64 == want_len && crc == want_crc {
                return Ok(buf);
            }
            Err(format!(
                "got {} bytes (crc {crc:08x}), seal says {want_len} bytes (crc {want_crc:08x})",
                buf.len()
            ))
        })
    };
    let blocks = verified(blocks_key, seal.blocks_len, seal.blocks_crc)?;
    let manifest = verified(manifest_key, seal.manifest_len, seal.manifest_crc)?;
    Ok((blocks, manifest))
}

// ---------------------------------------------------------------------------
// FsTier
// ---------------------------------------------------------------------------

/// Staging-file sequence shared by every [`FsTier`] of the process: one
/// root has several handles (a chain's store and its tenant claim), so a
/// per-handle counter would hand two puts the same staging name.
static STAGE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A filesystem directory standing in for an object store.
///
/// Writes are atomic the way object stores are: the bytes land in a
/// staging file `.inflight/{pid}_{n}` and are fsynced, then a single
/// `rename` publishes the object. Readers can therefore never observe a
/// half-written object — exactly the property the store's seal protocol
/// assumes. A put returns only after the directories it changed are
/// fsynced too: the object's parent, and the parent of every directory
/// the put created. POSIX makes a rename durable only then.
///
/// A delete is not fsynced (see [`ObjectTier`]); it removes the object's
/// directory when it was the last entry, so an epoch whose objects are
/// all deleted leaves no directory behind.
pub struct FsTier {
    root: PathBuf,
}

impl FsTier {
    /// Open (or initialize) a tier rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<FsTier, TierError> {
        let root = root.into();
        std::fs::create_dir_all(root.join(".inflight")).map_err(|e| TierError::Io {
            op: "create",
            key: root.display().to_string(),
            msg: e.to_string(),
        })?;
        Ok(FsTier { root })
    }

    fn io(op: &'static str, key: &str, e: std::io::Error) -> TierError {
        TierError::Io {
            op,
            key: key.to_string(),
            msg: e.to_string(),
        }
    }

    /// A read's error: a missing file is [`TierError::NotFound`].
    fn get_err(key: &str, e: std::io::Error) -> TierError {
        match e.kind() {
            std::io::ErrorKind::NotFound => TierError::NotFound {
                key: key.to_string(),
            },
            _ => Self::io("get", key, e),
        }
    }

    /// Map an object key to a path under the root, rejecting keys that
    /// would escape it or collide with the staging area.
    fn key_path(&self, key: &str) -> Result<PathBuf, TierError> {
        let bad = || TierError::BadKey {
            key: key.to_string(),
        };
        if key.is_empty() || key.starts_with('/') || key.ends_with('/') || key.contains('\\') {
            return Err(bad());
        }
        for part in key.split('/') {
            if part.is_empty() || part == "." || part == ".." || part == ".inflight" {
                return Err(bad());
            }
        }
        Ok(self.root.join(key))
    }

    fn walk(&self, dir: &Path, rel: &str, out: &mut Vec<String>) -> Result<(), TierError> {
        let entries = std::fs::read_dir(dir).map_err(|e| Self::io("list", rel, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| Self::io("list", rel, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if rel.is_empty() && name == ".inflight" {
                continue;
            }
            let child_rel = if rel.is_empty() {
                name
            } else {
                format!("{rel}/{name}")
            };
            let path = entry.path();
            if path.is_dir() {
                self.walk(&path, &child_rel, out)?;
            } else {
                out.push(child_rel);
            }
        }
        Ok(())
    }
}

impl ObjectTier for FsTier {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), TierError> {
        use std::io::Write as _;
        let path = self.key_path(key)?;
        let io = |e| Self::io("put", key, e);
        let stage = self.root.join(".inflight").join(format!(
            "{}_{}",
            std::process::id(),
            STAGE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = std::fs::File::create(&stage).map_err(io)?;
            f.write_all(data).map_err(io)?;
            f.sync_all().map_err(io)?;
        }
        let parent = path
            .parent()
            .expect("a valid key names a file under the root");
        // The rename changes `parent`; each directory made for it changes
        // its own parent.
        let made = parent.ancestors().take_while(|d| !d.is_dir());
        let mut changed: Vec<&Path> = made.filter_map(Path::parent).collect();
        changed.push(parent);
        std::fs::create_dir_all(parent).map_err(io)?;
        std::fs::rename(&stage, &path).map_err(io)?;
        for dir in changed {
            std::fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(io)?;
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, TierError> {
        std::fs::read(self.key_path(key)?).map_err(|e| Self::get_err(key, e))
    }

    /// Positioned reads of `ranges`, each clipped to the file's length.
    fn get_ranges(&self, key: &str, ranges: &[Range<u64>]) -> Result<Vec<u8>, TierError> {
        use std::os::unix::fs::FileExt as _;
        let io = |e| Self::get_err(key, e);
        let file = std::fs::File::open(self.key_path(key)?).map_err(io)?;
        let len = file.metadata().map_err(io)?.len();
        let clipped: Vec<Range<usize>> = ranges.iter().map(|r| clip(r, len)).collect();
        let mut out = vec![0u8; clipped.iter().map(Range::len).sum()];
        let mut rest = out.as_mut_slice();
        for r in clipped {
            let (buf, tail) = rest.split_at_mut(r.len());
            file.read_exact_at(buf, r.start as u64).map_err(io)?;
            rest = tail;
        }
        Ok(out)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, TierError> {
        let mut out = Vec::new();
        self.walk(&self.root.clone(), "", &mut out)?;
        out.retain(|k| k.starts_with(prefix));
        out.sort_unstable();
        Ok(out)
    }

    fn delete(&self, key: &str) -> Result<(), TierError> {
        let path = self.key_path(key)?;
        match std::fs::remove_file(&path) {
            Ok(()) => {
                // Fails, harmlessly, while the directory holds anything else.
                if let Some(dir) = path.parent().filter(|&d| d != self.root) {
                    let _ = std::fs::remove_dir(dir);
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Self::io("delete", key, e)),
        }
    }
}

// ---------------------------------------------------------------------------
// MemTier
// ---------------------------------------------------------------------------

/// An in-memory [`ObjectTier`]: a mutex-guarded map standing in for
/// object storage in tests and benches (the replica logs use it where a
/// filesystem directory would add noise without coverage).
#[derive(Default)]
pub struct MemTier {
    objects: Mutex<BTreeMap<String, Arc<Vec<u8>>>>,
}

impl MemTier {
    /// An empty tier.
    pub fn new() -> MemTier {
        MemTier::default()
    }

    /// A tier holding `objects`, shared with the caller, not copied.
    pub(crate) fn holding(objects: impl IntoIterator<Item = (String, Arc<Vec<u8>>)>) -> MemTier {
        MemTier {
            objects: Mutex::new(objects.into_iter().collect()),
        }
    }

    /// `read` of the object at `key`, under the lock.
    fn read(
        &self,
        key: &str,
        read: impl FnOnce(&Vec<u8>) -> Vec<u8>,
    ) -> Result<Vec<u8>, TierError> {
        check_key(key)?;
        let objects = self.objects.lock().expect("mem tier lock");
        let data = objects.get(key).ok_or_else(|| TierError::NotFound {
            key: key.to_string(),
        })?;
        Ok(read(data))
    }
}

fn check_key(key: &str) -> Result<(), TierError> {
    let bad = key.is_empty()
        || key.starts_with('/')
        || key
            .split('/')
            .any(|c| c.is_empty() || c == "." || c == "..");
    if bad {
        return Err(TierError::BadKey {
            key: key.to_string(),
        });
    }
    Ok(())
}

impl ObjectTier for MemTier {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), TierError> {
        check_key(key)?;
        self.objects
            .lock()
            .expect("mem tier lock")
            .insert(key.to_string(), Arc::new(data.to_vec()));
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, TierError> {
        self.read(key, Vec::clone)
    }

    fn get_ranges(&self, key: &str, ranges: &[Range<u64>]) -> Result<Vec<u8>, TierError> {
        self.read(key, |data| concat_ranges(data, ranges))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, TierError> {
        Ok(self
            .objects
            .lock()
            .expect("mem tier lock")
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect())
    }

    fn delete(&self, key: &str) -> Result<(), TierError> {
        check_key(key)?;
        self.objects.lock().expect("mem tier lock").remove(key);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The background shipper
// ---------------------------------------------------------------------------

/// One tenant's share of the shipper: its local chain volume, its key
/// namespace in the tier, its *own* durable set and its recorder (the
/// mux adds its queue and sticky error). A lane whose uploads go sticky
/// stops shipping without touching its neighbors: the error is scoped
/// to the tenant whose tier config is dead, never to the runtime.
pub(crate) struct ShipLane {
    vol: Arc<dyn ObjectTier>,
    ns: String,
    durable: BTreeSet<u64>,
    /// The store's recorder, read per job: every ship is counted once,
    /// into its registry.
    telemetry: Arc<Telemetry>,
}

/// The shipper thread's worker: the tier handle and its retry policy.
pub(crate) struct Shipper {
    tier: Arc<dyn ObjectTier>,
    config: TierConfig,
}

impl LaneWorker for Shipper {
    const NAME: &'static str = "ckpt-tier-shipper";
    /// An epoch number: the bytes are read on the shipper's thread.
    type Job = u64;
    type Lane = ShipLane;
    type Error = TierError;

    fn run(&mut self, lanes: &Lanes<Self>, lane: usize, epoch: u64) -> Result<(), TierError> {
        let (vol, ns, tel) =
            lanes.with_lane(lane, |l| (l.vol.clone(), l.ns.clone(), l.telemetry.clone()));
        let emit = |kind, a, b, c| tel.emit(tel.tier_lane(), kind, tel.observed_now(), a, b, c);
        emit(EventKind::TierShip, epoch, 0, 0);
        let mut retries = 0u64;
        let started = std::time::Instant::now();
        let result = ship_epoch(&*self.tier, self.config, &*vol, &ns, epoch, &mut retries);
        let ship_us = started.elapsed().as_micros() as u64;
        let metrics = tel.metrics();
        metrics.counter("tier.put_retries").add(retries);
        match &result {
            Ok(bytes) => {
                emit(EventKind::SealDurable, epoch, *bytes, retries);
                metrics.histogram("tier.ship_bytes").observe(*bytes);
                metrics.histogram("tier.ship_us").observe(ship_us);
                lanes.with_lane(lane, |l| l.durable.insert(epoch));
            }
            Err(_) => {
                // An abandoned upload leaves this epoch's only durable
                // copy local: an incident worth a dump. Sticky FOR THIS
                // LANE ONLY: its queued epochs stay undurable (the GC
                // guard translates that into local retention) while every
                // other lane keeps shipping.
                emit(EventKind::TierFail, epoch, retries, 0);
                metrics.counter("tier.ship_failures").incr();
                tel.note_incident();
            }
        }
        result.map(|_| ())
    }
}

/// The live tier attachment of one or many [`crate::store::DeltaStore`]s: the tier
/// handle, its config, and ONE background shipper thread (a
/// [`LaneMux`]) multiplexing sealed-epoch uploads from every registered
/// lane, fair-share round-robin. Each lane's queue holds only epoch
/// numbers and never blocks a submit, so a slow tier pins no images in
/// memory. Sticky first error *per lane*; drain-and-join on drop of the
/// last handle.
pub(crate) struct TierRuntime {
    pub(crate) tier: Arc<dyn ObjectTier>,
    pub(crate) config: TierConfig,
    pub(crate) mux: LaneMux<Shipper>,
}

impl TierRuntime {
    /// Spawn the shipper with no lanes yet; stores register via
    /// [`TierRuntime::add_lane`].
    pub(crate) fn spawn(tier: Arc<dyn ObjectTier>, config: TierConfig) -> TierRuntime {
        let shipper = Shipper {
            tier: tier.clone(),
            config,
        };
        TierRuntime {
            tier,
            config,
            mux: LaneMux::spawn(shipper, Vec::new()),
        }
    }

    /// Register one store's lane: its local chain volume, its key
    /// namespace, the epochs already durably sealed in the tier (from a
    /// reconcile listing) and the store's recorder. Returns the lane
    /// index.
    pub(crate) fn add_lane(
        &self,
        vol: Arc<dyn ObjectTier>,
        ns: String,
        durable: BTreeSet<u64>,
        telemetry: Arc<Telemetry>,
    ) -> usize {
        self.mux.lanes.add_lane(ShipLane {
            vol,
            ns,
            durable,
            telemetry,
        })
    }

    /// Move one lane onto the run's recorder, with its store: ship
    /// starts, durable seals and abandoned uploads flow onto its tier
    /// lane, and their counts into its registry.
    pub(crate) fn attach_telemetry(&self, lane: usize, tel: Arc<Telemetry>) {
        self.mux.lanes.with_lane(lane, |l| l.telemetry = tel);
    }

    /// Queue one committed epoch for upload on `lane`. Never blocks and
    /// never fails: after the lane's sticky error the enqueue is dropped
    /// (the epoch stays undurable and locally retained).
    pub(crate) fn enqueue(&self, lane: usize, epoch: u64) {
        let _ = self.mux.lanes.submit(lane, epoch);
    }

    /// Epochs whose seal is durably in the tier, for `lane`.
    pub(crate) fn durable(&self, lane: usize) -> BTreeSet<u64> {
        self.mux.lanes.with_lane(lane, |l| l.durable.clone())
    }

    /// Shipping statistics of `lane` so far, read from its recorder's
    /// registry.
    pub(crate) fn stats(&self, lane: usize) -> TierStats {
        let tel = self.mux.lanes.with_lane(lane, |l| l.telemetry.clone());
        let metrics = tel.metrics();
        let shipped = metrics.histogram("tier.ship_bytes");
        TierStats {
            epochs_shipped: shipped.count(),
            bytes_shipped: shipped.sum(),
            put_retries: metrics.counter("tier.put_retries").get(),
            ship_failures: metrics.counter("tier.ship_failures").get(),
        }
    }
}

/// A tier shipper shared by many stores: ONE background upload thread
/// multiplexing every tenant's sealed epochs, fair-share round-robin,
/// with per-tenant (per-lane) sticky errors, durable sets, and stats.
/// Clone handles freely; the shipper drains and joins when the last
/// handle (including every attached store) drops.
#[derive(Clone)]
pub struct SharedTier {
    runtime: Arc<TierRuntime>,
}

impl SharedTier {
    /// Spawn a shared shipper over `tier`.
    pub fn new(tier: Arc<dyn ObjectTier>, config: TierConfig) -> SharedTier {
        SharedTier {
            runtime: Arc::new(TierRuntime::spawn(tier, config)),
        }
    }

    /// The underlying object-tier handle.
    pub fn tier(&self) -> Arc<dyn ObjectTier> {
        self.runtime.tier.clone()
    }

    /// The retry/backoff policy every lane ships with.
    pub fn config(&self) -> TierConfig {
        self.runtime.config
    }

    pub(crate) fn runtime(&self) -> &Arc<TierRuntime> {
        &self.runtime
    }
}

/// The sleep before retry `attempt` (1-based): exponential backoff with
/// deterministic jitter. The jitter offset is hashed from the key and
/// attempt number, so concurrent retries on different objects
/// de-synchronize while every test run sleeps identically.
fn backoff_step(config: TierConfig, key: &str, attempt: u32) -> Duration {
    let step = config.backoff * (1 << (attempt - 1).min(10));
    let span = step.as_nanos() * JITTER_PERMILLE / 1000;
    if span == 0 {
        return step;
    }
    let h = crate::codec::fnv1a_seeded(attempt as u64, key.as_bytes()) as u128;
    let offset = h % (2 * span + 1); // 0 ..= 2*span
    let nanos = step.as_nanos() + offset - span; // step ± span
    Duration::from_nanos(nanos.min(u64::MAX as u128) as u64)
}

/// The one retry loop: run `attempt` up to [`TierConfig::max_attempts`]
/// times, sleeping [`backoff_step`] between tries. An error for which
/// `is_final` holds is returned at once, and so is the last attempt's
/// error. `retries` counts the sleeps taken.
fn retry<T>(
    config: TierConfig,
    key: &str,
    retries: &mut u64,
    is_final: fn(&TierError) -> bool,
    mut attempt: impl FnMut() -> Result<T, TierError>,
) -> Result<T, TierError> {
    let mut n = 1;
    loop {
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) if is_final(&e) || n >= config.max_attempts.max(1) => return Err(e),
            Err(_) => {}
        }
        *retries += 1;
        // lint:allow(no-sleep-poll) — jittered retry backoff on the tier upload path, not a poll loop.
        std::thread::sleep(backoff_step(config, key, n));
        n += 1;
    }
}

/// Upload one object with read-back verification and jittered
/// exponential backoff. `want` is the caller's `crc32(data)`. A put that
/// "succeeds" but stores bytes whose CRC disagrees (a torn object) counts
/// as a failed attempt and is re-uploaded.
pub(crate) fn put_verified(
    tier: &dyn ObjectTier,
    config: TierConfig,
    key: &str,
    data: &[u8],
    want: u32,
    retries: &mut u64,
) -> Result<(), TierError> {
    let upload = || {
        tier.put(key, data)?;
        let back = tier.get(key)?;
        if back.len() == data.len() && crc32(&back) == want {
            return Ok(());
        }
        Err(TierError::Corrupt {
            key: key.to_string(),
            detail: format!(
                "read-back verification failed: stored {} bytes, sent {}",
                back.len(),
                data.len()
            ),
        })
    };
    retry(config, key, retries, |_| false, upload)
}

/// Download one object with the same jittered-backoff retry policy as
/// [`put_verified`]: transient I/O failures retry, and so do bytes that
/// fail `check` (a torn download reads again), while a missing object
/// does not (absence is an answer, not a fault). Bytes that fail `check`
/// on every attempt are [`TierError::Corrupt`]. Hydration and the
/// replica-log replay read through this, so scripted get faults exercise
/// their retry paths.
pub(crate) fn get_retried<T>(
    tier: &dyn ObjectTier,
    config: TierConfig,
    key: &str,
    check: impl Fn(Vec<u8>) -> Result<T, String>,
) -> Result<T, TierError> {
    let is_final =
        |e: &TierError| matches!(e, TierError::NotFound { .. } | TierError::BadKey { .. });
    retry(config, key, &mut 0, is_final, || {
        check(tier.get(key)?).map_err(|detail| TierError::Corrupt {
            key: key.to_string(),
            detail,
        })
    })
}

/// Ship one locally committed epoch: copy its objects from the local
/// volume `vol` — blocks, then manifest — then put the seal (the durable
/// commit point). Returns the bytes uploaded.
fn ship_epoch(
    tier: &dyn ObjectTier,
    config: TierConfig,
    vol: &dyn ObjectTier,
    ns: &str,
    epoch: u64,
    retries: &mut u64,
) -> Result<u64, TierError> {
    let (local_blocks, local_manifest, _) = epoch_keys("", epoch);
    let read_local = |key: &str| -> Result<Vec<u8>, TierError> {
        vol.get(key).map_err(|e| TierError::Io {
            op: "read local epoch",
            key: format!("{ns}{key}"),
            msg: e.to_string(),
        })
    };
    let blocks = read_local(&local_blocks)?;
    let manifest = read_local(&local_manifest)?;
    let seal = Seal {
        epoch,
        blocks_len: blocks.len() as u64,
        blocks_crc: crc32(&blocks),
        manifest_len: manifest.len() as u64,
        manifest_crc: crc32(&manifest),
    };
    let sealed = seal.encode();
    let (blocks_key, manifest_key, seal_key) = epoch_keys(ns, epoch);
    put_verified(tier, config, &blocks_key, &blocks, seal.blocks_crc, retries)?;
    put_verified(
        tier,
        config,
        &manifest_key,
        &manifest,
        seal.manifest_crc,
        retries,
    )?;
    put_verified(tier, config, &seal_key, &sealed, crc32(&sealed), retries)?;
    Ok((blocks.len() + manifest.len() + sealed.len()) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{Fault, Op, Script};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "stool_tier_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fs_tier_put_get_list_delete_roundtrip() {
        let root = tmp_dir("rt");
        let tier = FsTier::open(&root).unwrap();
        tier.put("epoch_000001/blocks.bin", b"blocks").unwrap();
        tier.put("epoch_000001/seal", b"seal").unwrap();
        tier.put("epoch_000002/seal", b"seal2").unwrap();
        assert_eq!(tier.get("epoch_000001/blocks.bin").unwrap(), b"blocks");
        assert_eq!(
            tier.list("").unwrap(),
            vec![
                "epoch_000001/blocks.bin",
                "epoch_000001/seal",
                "epoch_000002/seal"
            ]
        );
        assert_eq!(
            tier.list("epoch_000002").unwrap(),
            vec!["epoch_000002/seal"]
        );
        tier.delete("epoch_000001/seal").unwrap();
        tier.delete("epoch_000001/seal").unwrap(); // idempotent
        assert!(matches!(
            tier.get("epoch_000001/seal"),
            Err(TierError::NotFound { .. })
        ));
        // Overwrite replaces.
        tier.put("epoch_000002/seal", b"replaced").unwrap();
        assert_eq!(tier.get("epoch_000002/seal").unwrap(), b"replaced");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn every_volume_reads_ranges_alike_and_short_at_the_end() {
        let root = tmp_dir("ranges");
        let script = Script::new();
        let vols: [Arc<dyn ObjectTier>; 3] = [
            Arc::new(FsTier::open(&root).unwrap()),
            Arc::new(MemTier::new()),
            script.wrap(Arc::new(MemTier::new())),
        ];
        for vol in vols {
            vol.put("e/blocks.bin", b"0123456789").unwrap();
            let read = |ranges: &[Range<u64>]| vol.get_ranges("e/blocks.bin", ranges).unwrap();
            assert_eq!(read(&[1..3, 5..5, 6..9]), b"12678");
            assert_eq!(read(&[8..12, 20..30]), b"89", "past the end reads short");
            assert_eq!(read(&[]), b"");
            assert!(matches!(
                vol.get_ranges("e/missing", &[0..1, 2..3]),
                Err(TierError::NotFound { .. })
            ));
        }
        // The default is one get, so a script sees and faults it as one.
        assert_eq!(script.calls(Op::Get, None), 4);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fs_tier_rejects_escaping_keys() {
        let root = tmp_dir("keys");
        let tier = FsTier::open(&root).unwrap();
        for bad in ["", "/abs", "a/../b", "..", "a//b", "tail/", ".inflight/x"] {
            assert!(
                matches!(tier.put(bad, b"x"), Err(TierError::BadKey { .. })),
                "accepted {bad:?}"
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn seal_roundtrips_and_rejects_corruption() {
        let seal = Seal {
            epoch: 7,
            blocks_len: 1234,
            blocks_crc: 0xDEAD_BEEF,
            manifest_len: 99,
            manifest_crc: 0x0BAD_F00D,
        };
        let buf = seal.encode();
        assert_eq!(Seal::decode(&buf).unwrap(), seal);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            assert!(Seal::decode(&bad).is_err(), "flip at {i} accepted");
        }
        assert!(Seal::decode(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn put_verified_retries_torn_and_failed_uploads() {
        let root = tmp_dir("verify");
        let script = Script::new();
        let tier = script.wrap(Arc::new(FsTier::open(&root).unwrap()));
        script.push(Op::Put, [Fault::Fail, Fault::Torn]);
        let cfg = TierConfig {
            max_attempts: 4,
            backoff: Duration::from_millis(1),
        };
        let mut retries = 0;
        let data = b"payload bytes";
        put_verified(&*tier, cfg, "obj", data, crc32(data), &mut retries).unwrap();
        assert_eq!(retries, 2, "one retry per injected fault");
        assert_eq!(tier.get("obj").unwrap(), data);
        // Exhausting the budget surfaces the last error.
        script.push(Op::Put, [Fault::Fail; 8]);
        let mut retries = 0;
        assert!(put_verified(&*tier, cfg, "obj2", b"x", crc32(b"x"), &mut retries).is_err());
        assert_eq!(retries, cfg.max_attempts as u64 - 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn get_retried_rides_out_scripted_failures() {
        let script = Script::new();
        let tier = script.wrap(Arc::new(MemTier::new()));
        tier.put("k", b"payload").unwrap();
        script.push(Op::Get, [Fault::Fail, Fault::Fail]);
        let cfg = TierConfig {
            max_attempts: 4,
            backoff: Duration::from_millis(1),
        };
        assert_eq!(get_retried(&*tier, cfg, "k", Ok).unwrap(), b"payload");
        // Absence is an answer, not a fault: no retry budget is spent.
        assert!(matches!(
            get_retried(&*tier, cfg, "missing", Ok),
            Err(TierError::NotFound { .. })
        ));
        assert_eq!(
            script.calls(Op::Get, None),
            4,
            "three for `k`, one for `missing`"
        );
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let cfg = TierConfig {
            backoff: Duration::from_millis(100),
            ..TierConfig::default()
        };
        let jitter = JITTER_PERMILLE as f64 / 1000.0;
        for attempt in 1..=4u32 {
            let step = cfg.backoff * (1 << (attempt - 1));
            let lo = step - step.mul_f64(jitter);
            let hi = step + step.mul_f64(jitter);
            let a = backoff_step(cfg, "epoch_000001/blocks.bin", attempt);
            let b = backoff_step(cfg, "epoch_000001/blocks.bin", attempt);
            assert_eq!(a, b, "same key+attempt sleeps identically");
            assert!(
                a >= lo && a <= hi,
                "attempt {attempt}: {a:?} not in [{lo:?}, {hi:?}]"
            );
        }
        // Different keys de-synchronize; a zero backoff never sleeps.
        assert_ne!(
            backoff_step(cfg, "epoch_000001/blocks.bin", 1),
            backoff_step(cfg, "epoch_000002/blocks.bin", 1),
        );
        let plain = TierConfig {
            backoff: Duration::ZERO,
            ..cfg
        };
        assert_eq!(backoff_step(plain, "k", 3), Duration::ZERO);
    }
}
