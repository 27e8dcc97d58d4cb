//! The remote second tier of the delta-checkpoint store: sealed-epoch
//! shipping to object storage.
//!
//! A node-local delta chain survives process failures, but the disk it
//! lives on is itself a single point of failure — and the quarantine path
//! (`epoch_NNNNNN.bad`) loses state *permanently* when the only copy of a
//! manifest rots. This module adds redundancy one layer out:
//!
//! * [`ObjectTier`] — a minimal put/get/list/delete interface over opaque
//!   sealed objects, deliberately shaped like an object store (S3-style:
//!   whole-object writes, no partial updates, keys not paths).
//! * [`FsTier`] — the in-tree implementation, modelling object storage on
//!   a filesystem: every `put` lands in a staging file named by a content
//!   hash and is atomically renamed into place, so a torn local write can
//!   never be observed as a committed object.
//! * [`FlakyTier`] — a fault-injecting wrapper for tests: scripted upload
//!   errors, torn writes (the object lands corrupted while the put
//!   reports success), and held uploads (a put blocks until the test
//!   releases it — the "slow tier" that tries to race retention GC).
//! * `TierRuntime` (crate-internal) — the background shipper thread, a
//!   `crate::lanes::LaneMux`: each locally committed epoch is queued,
//!   its `blocks.bin` and `manifest.bin` are uploaded with read-back CRC
//!   verification and exponential-backoff retries, and a small
//!   checksummed **seal** object is written last.
//!   An epoch is *durable in the tier* only once its seal is up; the
//!   store's retention GC never deletes a local epoch that is not.
//!
//! The healing pass over `.bad` quarantine directories lives with the
//! store ([`crate::store::DeltaStore::scrub`]): re-fetch the epoch from
//! the tier, verify seal CRCs and manifest decode, and atomically
//! reinstate the epoch in the local chain.
//!
//! The tier stores exactly the vendor-neutral on-disk epoch format, so a
//! chain hydrated from the tier restores under either MPI engine
//! bit-identically — the paper's cross-vendor claim extended across the
//! storage boundary.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use simnet::telemetry::{EventKind, Telemetry};

use crate::codec::{content_key, crc32, CodecError, Reader, Writer};
use crate::lanes::{LaneMux, LaneWorker, Lanes};

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
    /// Retrying the operation exceeded the configured wall-clock
    /// deadline ([`TierConfig::deadline`]) before it could succeed.
    Timeout {
        /// The operation ("put", "get").
        op: &'static str,
        /// The object key involved.
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
            TierError::Timeout { op, key } => {
                write!(f, "tier {op} {key}: retry deadline exceeded")
            }
        }
    }
}

impl std::error::Error for TierError {}

/// A second storage tier holding opaque sealed objects.
///
/// The interface is deliberately the lowest common denominator of object
/// stores: whole-object put/get, flat keys with `/` as a naming (not
/// filesystem) convention, idempotent delete, prefix listing. Everything
/// the store ships through it is self-verifying (seal CRCs + the
/// manifest's own checksum trailer), so a tier implementation does not
/// need read-after-write consistency stronger than "a completed put is
/// eventually observable".
pub trait ObjectTier: Send + Sync {
    /// Store `data` under `key`, replacing any existing object.
    fn put(&self, key: &str, data: &[u8]) -> Result<(), TierError>;
    /// Fetch the object at `key`.
    fn get(&self, key: &str) -> Result<Vec<u8>, TierError>;
    /// List every key starting with `prefix` (pass `""` for all keys).
    fn list(&self, prefix: &str) -> Result<Vec<String>, TierError>;
    /// Delete the object at `key`; deleting a missing object succeeds.
    fn delete(&self, key: &str) -> Result<(), TierError>;
}

/// Tunables of the tier shipper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Attempts per object upload before the shipper error goes sticky
    /// (each attempt is a put followed by a read-back CRC verification).
    pub max_attempts: u32,
    /// Base backoff between attempts; doubles per retry.
    pub backoff: Duration,
    /// Jitter applied to every backoff step, in permille of the step
    /// (`250` = each sleep is the step ± up to 25%). Derived
    /// deterministically from the key and attempt number, so retries are
    /// de-synchronized across objects without making tests flaky.
    pub jitter_permille: u32,
    /// Cap on the total retry wall-clock per object: once the next sleep
    /// would cross the deadline, the retry loop surfaces
    /// [`TierError::Timeout`] instead of waiting on. `None` = retries are
    /// bounded only by `max_attempts`.
    pub deadline: Option<Duration>,
}

impl Default for TierConfig {
    fn default() -> TierConfig {
        TierConfig {
            max_attempts: 4,
            backoff: Duration::from_millis(10),
            jitter_permille: 250,
            deadline: None,
        }
    }
}

/// What the shipper has done so far.
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
    (
        format!("{ns}epoch_{epoch:06}/blocks.bin"),
        format!("{ns}epoch_{epoch:06}/manifest.bin"),
        format!("{ns}epoch_{epoch:06}/seal"),
    )
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
/// against. An epoch without a (decodable) seal is treated as never
/// shipped.
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

/// Decode every seal in the tier, keyed by epoch. An undecodable seal
/// counts as "not shipped" (the shipper will re-upload), never as an
/// error: the seal is the commit record, and a torn commit record means
/// the commit did not happen. Seals whose recorded epoch disagrees with
/// their key are skipped the same way.
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
        match get_retried(tier, config, &key) {
            Ok(buf) => {
                if let Ok(seal) = Seal::decode(&buf) {
                    if seal.epoch == epoch {
                        sealed.insert(epoch, seal);
                    }
                }
            }
            Err(TierError::NotFound { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(sealed)
}

/// The epochs with a decodable seal in the tier.
pub(crate) fn sealed_epochs(
    tier: &dyn ObjectTier,
    config: TierConfig,
    ns: &str,
) -> Result<BTreeSet<u64>, TierError> {
    Ok(sealed_seals(tier, config, ns)?.into_keys().collect())
}

/// Fetch one sealed epoch, fully verified: the seal decodes, and both
/// objects match the lengths and CRCs it records. Returns
/// `(blocks, manifest)` bytes ready to install locally. Downloads go
/// through the retrying get path, so transient tier faults heal and a
/// configured deadline bounds the wait.
pub(crate) fn fetch_sealed_epoch(
    tier: &dyn ObjectTier,
    config: TierConfig,
    ns: &str,
    epoch: u64,
) -> Result<(Vec<u8>, Vec<u8>), TierError> {
    let (blocks_key, manifest_key, seal_key) = epoch_keys(ns, epoch);
    let seal_buf = get_retried(tier, config, &seal_key)?;
    let seal = Seal::decode(&seal_buf).map_err(|e| TierError::Corrupt {
        key: seal_key.clone(),
        detail: format!("seal does not decode: {e}"),
    })?;
    if seal.epoch != epoch {
        return Err(TierError::Corrupt {
            key: seal_key,
            detail: format!("seal names epoch {}, key names {epoch}", seal.epoch),
        });
    }
    let verified = |key: String, want_len: u64, want_crc: u32| -> Result<Vec<u8>, TierError> {
        let buf = get_retried(tier, config, &key)?;
        if buf.len() as u64 != want_len || crc32(&buf) != want_crc {
            return Err(TierError::Corrupt {
                key,
                detail: format!(
                    "got {} bytes (crc {:08x}), seal says {} bytes (crc {:08x})",
                    buf.len(),
                    crc32(&buf),
                    want_len,
                    want_crc
                ),
            });
        }
        Ok(buf)
    };
    let blocks = verified(blocks_key, seal.blocks_len, seal.blocks_crc)?;
    let manifest = verified(manifest_key, seal.manifest_len, seal.manifest_crc)?;
    Ok((blocks, manifest))
}

// ---------------------------------------------------------------------------
// FsTier
// ---------------------------------------------------------------------------

/// A filesystem directory standing in for an object store.
///
/// Writes are atomic the way object stores are: the bytes land in a
/// staging file under `.inflight/` named by the object's 128-bit
/// [`crate::codec::content_key`] (content addressing keeps concurrent
/// writers of identical objects from clobbering each other's staging),
/// then a single `rename` publishes the object. Readers can therefore
/// never observe a half-written object — exactly the property the
/// store's seal protocol assumes.
pub struct FsTier {
    root: PathBuf,
    stage_seq: AtomicU64,
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
        Ok(FsTier {
            root,
            stage_seq: AtomicU64::new(0),
        })
    }

    fn io(op: &'static str, key: &str, e: std::io::Error) -> TierError {
        TierError::Io {
            op,
            key: key.to_string(),
            msg: e.to_string(),
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
        // Content-addressed staging name, from the object's 128-bit
        // content key: identical content stages to the same file,
        // distinct content never collides (a per-handle sequence number
        // breaks ties between concurrent distinct puts).
        let (a, b) = content_key(data);
        let stage = self.root.join(".inflight").join(format!(
            "{a:016x}{b:016x}_{}_{}",
            std::process::id(),
            self.stage_seq.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = std::fs::File::create(&stage).map_err(|e| Self::io("put", key, e))?;
            f.write_all(data).map_err(|e| Self::io("put", key, e))?;
            f.sync_all().map_err(|e| Self::io("put", key, e))?;
        }
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| Self::io("put", key, e))?;
        }
        std::fs::rename(&stage, &path).map_err(|e| Self::io("put", key, e))
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, TierError> {
        let path = self.key_path(key)?;
        match std::fs::read(&path) {
            Ok(buf) => Ok(buf),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(TierError::NotFound {
                key: key.to_string(),
            }),
            Err(e) => Err(Self::io("get", key, e)),
        }
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
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Self::io("delete", key, e)),
        }
    }
}

// ---------------------------------------------------------------------------
// FlakyTier
// ---------------------------------------------------------------------------

/// A scripted fault applied to one `put` call, in script order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutFault {
    /// The upload fails outright (an I/O error).
    Fail,
    /// The upload *reports success* but the stored object is torn: its
    /// last byte is dropped (or a lone garbage byte is stored for empty
    /// objects). Only read-back verification can catch this.
    Torn,
    /// The upload blocks until [`FlakyTier::release`] — the slow tier.
    Hold,
}

/// A scripted fault applied to one `get` call, in script order.
/// Mirrors [`PutFault`] so download/hydration/log-replay retry paths are
/// fault-injectable, not just uploads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetFault {
    /// The download fails outright (an I/O error).
    Fail,
    /// The download *reports success* but returns torn bytes: the last
    /// byte is dropped (or a lone garbage byte for empty objects). Only
    /// checksum verification downstream can catch this.
    Torn,
    /// The download blocks until [`FlakyTier::release`] — the slow tier.
    Hold,
}

/// A fault-injecting [`ObjectTier`] wrapper for tests.
///
/// Faults come from three sources: a FIFO *script* of [`PutFault`]s
/// consumed one per put, a FIFO script of [`GetFault`]s consumed one per
/// get, and a *hold-all* switch that blocks every put until
/// [`FlakyTier::release`]. Lists and deletes pass straight through to
/// the inner tier.
pub struct FlakyTier {
    inner: Arc<dyn ObjectTier>,
    state: Mutex<FlakyState>,
    cv: Condvar,
}

struct FlakyState {
    script: VecDeque<PutFault>,
    get_script: VecDeque<GetFault>,
    hold_all: bool,
    released: bool,
    puts: u64,
    gets: u64,
    injected: u64,
}

impl FlakyTier {
    /// Wrap `inner` with an empty fault script.
    pub fn new(inner: Arc<dyn ObjectTier>) -> FlakyTier {
        FlakyTier {
            inner,
            state: Mutex::new(FlakyState {
                script: VecDeque::new(),
                get_script: VecDeque::new(),
                hold_all: false,
                released: false,
                puts: 0,
                gets: 0,
                injected: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Append faults to the script; each subsequent `put` consumes one.
    pub fn script_puts(&self, faults: impl IntoIterator<Item = PutFault>) {
        self.state.lock().expect("flaky lock").script.extend(faults);
    }

    /// Append faults to the get script; each subsequent `get` consumes
    /// one.
    pub fn script_gets(&self, faults: impl IntoIterator<Item = GetFault>) {
        self.state
            .lock()
            .expect("flaky lock")
            .get_script
            .extend(faults);
    }

    /// Make every `put` (script aside) block until [`FlakyTier::release`].
    pub fn hold_all(&self) {
        self.state.lock().expect("flaky lock").hold_all = true;
    }

    /// Release every held `put`, current and future.
    pub fn release(&self) {
        let mut st = self.state.lock().expect("flaky lock");
        st.released = true;
        st.hold_all = false;
        self.cv.notify_all();
    }

    /// Total `put` calls observed.
    pub fn puts(&self) -> u64 {
        self.state.lock().expect("flaky lock").puts
    }

    /// Total `get` calls observed.
    pub fn gets(&self) -> u64 {
        self.state.lock().expect("flaky lock").gets
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().expect("flaky lock").injected
    }
}

impl ObjectTier for FlakyTier {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), TierError> {
        let fault = {
            let mut st = self.state.lock().expect("flaky lock");
            st.puts += 1;
            let fault = st.script.pop_front().or({
                if st.hold_all && !st.released {
                    Some(PutFault::Hold)
                } else {
                    None
                }
            });
            if fault.is_some() {
                st.injected += 1;
            }
            fault
        };
        match fault {
            None => self.inner.put(key, data),
            Some(PutFault::Fail) => Err(TierError::Io {
                op: "put",
                key: key.to_string(),
                msg: "injected upload failure".to_string(),
            }),
            Some(PutFault::Torn) => {
                let torn: &[u8] = if data.is_empty() {
                    &[0xFF]
                } else {
                    &data[..data.len() - 1]
                };
                self.inner.put(key, torn)
            }
            Some(PutFault::Hold) => {
                let mut st = self.state.lock().expect("flaky lock");
                while !st.released {
                    st = self.cv.wait(st).expect("flaky wait");
                }
                drop(st);
                self.inner.put(key, data)
            }
        }
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, TierError> {
        let fault = {
            let mut st = self.state.lock().expect("flaky lock");
            st.gets += 1;
            let fault = st.get_script.pop_front();
            if fault.is_some() {
                st.injected += 1;
            }
            fault
        };
        match fault {
            None => self.inner.get(key),
            Some(GetFault::Fail) => Err(TierError::Io {
                op: "get",
                key: key.to_string(),
                msg: "injected download failure".to_string(),
            }),
            Some(GetFault::Torn) => {
                let mut data = self.inner.get(key)?;
                if data.is_empty() {
                    data.push(0xFF);
                } else {
                    data.pop();
                }
                Ok(data)
            }
            Some(GetFault::Hold) => {
                let mut st = self.state.lock().expect("flaky lock");
                while !st.released {
                    st = self.cv.wait(st).expect("flaky wait");
                }
                drop(st);
                self.inner.get(key)
            }
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, TierError> {
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<(), TierError> {
        self.inner.delete(key)
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
    objects: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemTier {
    /// An empty tier.
    pub fn new() -> MemTier {
        MemTier::default()
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
            .insert(key.to_string(), data.to_vec());
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, TierError> {
        check_key(key)?;
        self.objects
            .lock()
            .expect("mem tier lock")
            .get(key)
            .cloned()
            .ok_or_else(|| TierError::NotFound {
                key: key.to_string(),
            })
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

/// One tenant's share of the shipper: its local store directory, its
/// key namespace in the tier, and its *own* durable set and stats (the
/// mux adds its queue and sticky error). A lane whose uploads go sticky
/// stops shipping without touching its neighbors: the error is scoped
/// to the tenant whose tier config is dead, never to the runtime.
pub(crate) struct ShipLane {
    dir: PathBuf,
    ns: String,
    durable: BTreeSet<u64>,
    stats: TierStats,
    /// Attached flight recorder of this lane's tenant, read per job.
    telemetry: Option<Arc<Telemetry>>,
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
        let (dir, ns, tel) =
            lanes.with_lane(lane, |l| (l.dir.clone(), l.ns.clone(), l.telemetry.clone()));
        let emit = |kind, a, b, c| {
            if let Some(tel) = &tel {
                tel.emit(tel.tier_lane(), kind, tel.observed_now(), a, b, c);
            }
        };
        emit(EventKind::TierShip, epoch, 0, 0);
        let mut retries = 0u64;
        let started = std::time::Instant::now();
        let result = ship_epoch(&*self.tier, self.config, &dir, &ns, epoch, &mut retries);
        let ship_us = started.elapsed().as_micros() as u64;
        if let Some(tel) = &tel {
            if retries > 0 {
                tel.metrics().counter("tier.put_retries").add(retries);
            }
            match &result {
                Ok(bytes) => {
                    emit(EventKind::SealDurable, epoch, *bytes, retries);
                    tel.metrics().histogram("tier.ship_bytes").observe(*bytes);
                    tel.metrics().histogram("tier.ship_us").observe(ship_us);
                }
                Err(_) => {
                    // An abandoned upload leaves this epoch's only durable
                    // copy local: an incident worth a dump.
                    emit(EventKind::TierFail, epoch, retries, 0);
                    tel.note_incident();
                }
            }
        }
        lanes.with_lane(lane, |l| {
            l.stats.put_retries += retries;
            match result {
                Ok(bytes) => {
                    l.durable.insert(epoch);
                    l.stats.epochs_shipped += 1;
                    l.stats.bytes_shipped += bytes;
                    Ok(())
                }
                Err(e) => {
                    // Sticky FOR THIS LANE ONLY: its queued epochs stay
                    // undurable (the GC guard translates that into local
                    // retention) while every other lane keeps shipping.
                    l.stats.ship_failures += 1;
                    Err(e)
                }
            }
        })
    }
}

/// A cloneable live view of one lane's [`TierStats`], detached from
/// the store that owns the shipper. Lets a session keep reading
/// shipping statistics after the store has moved into the background
/// writer thread ([`crate::store::SharedStoreWriter`]).
#[derive(Clone)]
pub struct TierStatsHandle {
    lanes: Arc<Lanes<Shipper>>,
    lane: usize,
}

impl TierStatsHandle {
    /// The lane's shipping statistics right now.
    pub fn stats(&self) -> TierStats {
        self.lanes.with_lane(self.lane, |l| l.stats)
    }

    /// Block until every upload queued on this lane so far is durable or
    /// the lane's sticky error is set (the shipper's flush). Unlike
    /// `DeltaStore::tier_flush` this works after the store has moved
    /// into the writer thread — sessions drain the shipper through it so
    /// a telemetry snapshot sees final shipping statistics instead of
    /// racing the background thread.
    pub fn wait_durable(&self) -> Result<(), TierError> {
        self.lanes.flush(self.lane)
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

    /// Register one store's lane: its local chain directory, its key
    /// namespace, and the epochs already durably sealed in the tier
    /// (from a reconcile listing). Returns the lane index.
    pub(crate) fn add_lane(&self, dir: PathBuf, ns: String, durable: BTreeSet<u64>) -> usize {
        self.mux.lanes.add_lane(ShipLane {
            dir,
            ns,
            durable,
            stats: TierStats::default(),
            telemetry: None,
        })
    }

    /// Attach a flight recorder to one lane (first attachment wins).
    /// Ship starts, durable seals, and abandoned uploads flow onto its
    /// tier lane.
    pub(crate) fn attach_telemetry(&self, lane: usize, tel: Arc<Telemetry>) {
        self.mux.lanes.with_lane(lane, |l| {
            l.telemetry.get_or_insert(tel);
        });
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

    /// Shipping statistics of `lane` so far.
    pub(crate) fn stats(&self, lane: usize) -> TierStats {
        self.mux.lanes.with_lane(lane, |l| l.stats)
    }

    /// A cloneable handle that keeps reading one lane's live statistics
    /// after the owning store has moved to another thread.
    pub(crate) fn stats_handle(&self, lane: usize) -> TierStatsHandle {
        TierStatsHandle {
            lanes: self.mux.lanes.clone(),
            lane,
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
    let jitter = config.jitter_permille.min(1000) as u128;
    if jitter == 0 || step.is_zero() {
        return step;
    }
    let span = step.as_nanos() * jitter / 1000;
    if span == 0 {
        return step;
    }
    let h = crate::codec::fnv1a_seeded(attempt as u64, key.as_bytes()) as u128;
    let offset = h % (2 * span + 1); // 0 ..= 2*span
    let nanos = step.as_nanos() + offset - span; // step ± span
    Duration::from_nanos(nanos.min(u64::MAX as u128) as u64)
}

/// Sleep before retry `attempt`, honoring the deadline: if the sleep
/// would cross [`TierConfig::deadline`] (measured from `start`), surface
/// [`TierError::Timeout`] instead of waiting on.
fn backoff_or_timeout(
    config: TierConfig,
    start: std::time::Instant,
    op: &'static str,
    key: &str,
    attempt: u32,
    retries: &mut u64,
) -> Result<(), TierError> {
    let sleep = backoff_step(config, key, attempt);
    if let Some(deadline) = config.deadline {
        if start.elapsed() + sleep > deadline {
            return Err(TierError::Timeout {
                op,
                key: key.to_string(),
            });
        }
    }
    *retries += 1;
    // lint:allow(no-sleep-poll) — jittered retry backoff on the tier upload path, not a poll loop.
    std::thread::sleep(sleep);
    Ok(())
}

/// Upload one object with read-back verification and jittered
/// exponential backoff. `want` is the caller's `crc32(data)`. A put that
/// "succeeds" but stores bytes whose CRC disagrees (a torn object) counts
/// as a failed attempt and is re-uploaded. A configured deadline bounds
/// the total retry wall-clock ([`TierError::Timeout`]).
pub(crate) fn put_verified(
    tier: &dyn ObjectTier,
    config: TierConfig,
    key: &str,
    data: &[u8],
    want: u32,
    retries: &mut u64,
) -> Result<(), TierError> {
    let start = std::time::Instant::now();
    let mut last = TierError::Io {
        op: "put",
        key: key.to_string(),
        msg: "no attempts made".to_string(),
    };
    for attempt in 0..config.max_attempts.max(1) {
        if attempt > 0 {
            backoff_or_timeout(config, start, "put", key, attempt, retries)?;
        }
        if let Err(e) = tier.put(key, data) {
            last = e;
            continue;
        }
        match tier.get(key) {
            Ok(back) if back.len() == data.len() && crc32(&back) == want => return Ok(()),
            Ok(back) => {
                last = TierError::Corrupt {
                    key: key.to_string(),
                    detail: format!(
                        "read-back verification failed: stored {} bytes, sent {}",
                        back.len(),
                        data.len()
                    ),
                };
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Download one object with the same jittered-backoff retry policy as
/// [`put_verified`]: transient I/O failures retry, a missing object does
/// not (absence is an answer, not a fault), and a configured deadline
/// bounds the total wait. Hydration and the replica-log replay read
/// through this, so [`GetFault`] scripts exercise their retry paths.
pub(crate) fn get_retried(
    tier: &dyn ObjectTier,
    config: TierConfig,
    key: &str,
) -> Result<Vec<u8>, TierError> {
    let start = std::time::Instant::now();
    let mut retries = 0u64;
    let mut last = TierError::Io {
        op: "get",
        key: key.to_string(),
        msg: "no attempts made".to_string(),
    };
    for attempt in 0..config.max_attempts.max(1) {
        if attempt > 0 {
            backoff_or_timeout(config, start, "get", key, attempt, &mut retries)?;
        }
        match tier.get(key) {
            Ok(buf) => return Ok(buf),
            Err(e @ TierError::NotFound { .. }) | Err(e @ TierError::BadKey { .. }) => {
                return Err(e)
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Ship one locally committed epoch: blocks, then manifest, then the
/// seal (the durable commit point). Returns the bytes uploaded.
fn ship_epoch(
    tier: &dyn ObjectTier,
    config: TierConfig,
    dir: &Path,
    ns: &str,
    epoch: u64,
    retries: &mut u64,
) -> Result<u64, TierError> {
    let edir = dir.join(format!("epoch_{epoch:06}"));
    let read_local = |name: &str| -> Result<Vec<u8>, TierError> {
        std::fs::read(edir.join(name)).map_err(|e| TierError::Io {
            op: "read local epoch",
            key: format!("{ns}epoch_{epoch:06}/{name}"),
            msg: e.to_string(),
        })
    };
    let blocks = read_local("blocks.bin")?;
    let manifest = read_local("manifest.bin")?;
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
    fn flaky_tier_scripts_faults_in_order() {
        let root = tmp_dir("flaky");
        let tier = FlakyTier::new(Arc::new(FsTier::open(&root).unwrap()));
        tier.script_puts([PutFault::Fail, PutFault::Torn]);
        assert!(matches!(tier.put("k", b"data"), Err(TierError::Io { .. })));
        tier.put("k", b"data").unwrap(); // torn: reports success...
        assert_eq!(tier.get("k").unwrap(), b"dat"); // ...but stored torn
        tier.put("k", b"data").unwrap(); // script exhausted: clean
        assert_eq!(tier.get("k").unwrap(), b"data");
        assert_eq!(tier.puts(), 3);
        assert_eq!(tier.injected(), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn flaky_tier_hold_blocks_until_release() {
        let root = tmp_dir("hold");
        let tier = Arc::new(FlakyTier::new(Arc::new(FsTier::open(&root).unwrap())));
        tier.hold_all();
        let t2 = tier.clone();
        let handle = std::thread::spawn(move || t2.put("held", b"v"));
        // The put must not complete while held.
        std::thread::sleep(Duration::from_millis(20));
        assert!(matches!(tier.get("held"), Err(TierError::NotFound { .. })));
        tier.release();
        handle.join().unwrap().unwrap();
        assert_eq!(tier.get("held").unwrap(), b"v");
        // After release, future puts pass straight through.
        tier.put("after", b"w").unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn put_verified_retries_torn_and_failed_uploads() {
        let root = tmp_dir("verify");
        let tier = FlakyTier::new(Arc::new(FsTier::open(&root).unwrap()));
        tier.script_puts([PutFault::Fail, PutFault::Torn]);
        let cfg = TierConfig {
            max_attempts: 4,
            backoff: Duration::from_millis(1),
            ..TierConfig::default()
        };
        let mut retries = 0;
        let data = b"payload bytes";
        put_verified(&tier, cfg, "obj", data, crc32(data), &mut retries).unwrap();
        assert_eq!(retries, 2, "one retry per injected fault");
        assert_eq!(tier.get("obj").unwrap(), data);
        // Exhausting the budget surfaces the last error.
        tier.script_puts(std::iter::repeat_n(PutFault::Fail, 8));
        let mut retries = 0;
        assert!(put_verified(&tier, cfg, "obj2", b"x", crc32(b"x"), &mut retries).is_err());
        assert_eq!(retries, cfg.max_attempts as u64 - 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn flaky_tier_scripts_get_faults_in_order() {
        let tier = FlakyTier::new(Arc::new(MemTier::new()));
        tier.put("k", b"data").unwrap();
        tier.script_gets([GetFault::Fail, GetFault::Torn]);
        assert!(matches!(tier.get("k"), Err(TierError::Io { .. })));
        assert_eq!(tier.get("k").unwrap(), b"dat"); // torn: last byte gone
        assert_eq!(tier.get("k").unwrap(), b"data"); // script exhausted
        assert_eq!(tier.gets(), 3);
        assert_eq!(tier.injected(), 2);
    }

    #[test]
    fn get_retried_rides_out_scripted_failures() {
        let tier = FlakyTier::new(Arc::new(MemTier::new()));
        tier.put("k", b"payload").unwrap();
        tier.script_gets([GetFault::Fail, GetFault::Fail]);
        let cfg = TierConfig {
            max_attempts: 4,
            backoff: Duration::from_millis(1),
            ..TierConfig::default()
        };
        assert_eq!(get_retried(&tier, cfg, "k").unwrap(), b"payload");
        // Absence is an answer, not a fault: no retry budget is spent.
        assert!(matches!(
            get_retried(&tier, cfg, "missing"),
            Err(TierError::NotFound { .. })
        ));
        assert_eq!(tier.gets(), 4, "three for `k`, one for `missing`");
    }

    #[test]
    fn get_retried_surfaces_timeout_at_the_deadline() {
        let tier = FlakyTier::new(Arc::new(MemTier::new()));
        tier.put("k", b"payload").unwrap();
        tier.script_gets(std::iter::repeat_n(GetFault::Fail, 16));
        let cfg = TierConfig {
            max_attempts: 16,
            backoff: Duration::from_millis(50),
            deadline: Some(Duration::from_millis(5)),
            ..TierConfig::default()
        };
        // The first backoff sleep alone would cross the deadline: the
        // retry loop surfaces Timeout instead of waiting it out.
        assert!(matches!(
            get_retried(&tier, cfg, "k"),
            Err(TierError::Timeout { op: "get", .. })
        ));
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let cfg = TierConfig {
            backoff: Duration::from_millis(100),
            jitter_permille: 250,
            ..TierConfig::default()
        };
        for attempt in 1..=4u32 {
            let step = cfg.backoff * (1 << (attempt - 1));
            let lo = step - step.mul_f64(0.25);
            let hi = step + step.mul_f64(0.25);
            let a = backoff_step(cfg, "epoch_000001/blocks.bin", attempt);
            let b = backoff_step(cfg, "epoch_000001/blocks.bin", attempt);
            assert_eq!(a, b, "same key+attempt sleeps identically");
            assert!(
                a >= lo && a <= hi,
                "attempt {attempt}: {a:?} not in [{lo:?}, {hi:?}]"
            );
        }
        // Different keys de-synchronize; zero jitter is exact.
        assert_ne!(
            backoff_step(cfg, "epoch_000001/blocks.bin", 1),
            backoff_step(cfg, "epoch_000002/blocks.bin", 1),
        );
        let plain = TierConfig {
            jitter_permille: 0,
            ..cfg
        };
        assert_eq!(backoff_step(plain, "k", 3), plain.backoff * 4);
    }
}
