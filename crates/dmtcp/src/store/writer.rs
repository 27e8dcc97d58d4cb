//! The background writer: one committer thread draining per-tenant lanes.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use crate::coordinator::ImageSink;
use crate::image::{ImageError, WorldImage};

use super::{DeltaStore, EpochStats, StoreConfig, StoreError};

/// Per-tenant admission limits on the shared writer: how much a tenant
/// may have waiting (epochs and bytes) before its *own* submits block.
/// Quotas isolate, they never share: a tenant over budget waits on its
/// own backlog draining while every other tenant's submits proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum queued (not yet finished) epochs; a submit beyond this
    /// blocks. At least 1 is always allowed.
    pub max_queue: usize,
    /// Maximum bytes of world images queued or mid-commit. A single
    /// image larger than the budget is admitted when the lane is empty
    /// (otherwise it could never ship at all).
    pub max_inflight_bytes: u64,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota {
            max_queue: StoreConfig::default().queue_depth,
            max_inflight_bytes: u64::MAX,
        }
    }
}

struct MuxLane {
    queue: VecDeque<WorldImage>,
    /// Bytes of every queued image plus the one mid-commit.
    queued_bytes: u64,
    in_flight: bool,
    error: Option<StoreError>,
    stats: Vec<EpochStats>,
    quota: TenantQuota,
    /// Submits that had to block on this lane's own quota.
    quota_waits: u64,
}

struct MuxState {
    lanes: Vec<MuxLane>,
    closed: bool,
    /// Round-robin cursor over lanes, so one tenant's burst cannot
    /// starve the others of the single committer thread.
    rr: usize,
    /// Test hook: while held, the committer dispatches nothing, letting
    /// tests fill quotas deterministically.
    held: bool,
}

impl MuxState {
    /// Pop the next image to commit, fair-share round-robin across lanes
    /// (the twin of `tier::ShipState::next_work`): scan from the cursor
    /// and park it one past the lane served. Nothing is dispatched while
    /// the test hook holds the committer.
    fn pop_next(&mut self) -> Option<(usize, WorldImage)> {
        if self.held {
            return None;
        }
        let n = self.lanes.len();
        for i in 0..n {
            let idx = (self.rr + i) % n;
            if let Some(image) = self.lanes[idx].queue.pop_front() {
                self.lanes[idx].in_flight = true;
                self.rr = (idx + 1) % n;
                return Some((idx, image));
            }
        }
        None
    }
}

struct MuxShared {
    state: Mutex<MuxState>,
    cv: Condvar,
}

/// The multi-tenant asynchronous face of the store: ONE background
/// committer thread owns every tenant's [`DeltaStore`] and drains their
/// bounded submit queues fair-share round-robin. Per lane, everything is
/// scoped to the tenant: its queue, its [`TenantQuota`] backpressure,
/// its sticky error, its [`EpochStats`]. A single session is the
/// one-lane case: backpressure is then the double buffer — a submit
/// blocks only when [`StoreConfig::queue_depth`] epochs are already
/// waiting, which bounds memory at `queue_depth + 1` in-flight world
/// images.
pub struct SharedStoreWriter {
    shared: Arc<MuxShared>,
    worker: Mutex<Option<std::thread::JoinHandle<Vec<DeltaStore>>>>,
}

impl SharedStoreWriter {
    /// Spawn the committer over one store per lane, in lane order.
    pub fn spawn_stores(stores: Vec<(DeltaStore, TenantQuota)>) -> SharedStoreWriter {
        let mut owned = Vec::with_capacity(stores.len());
        let mut lanes = Vec::with_capacity(stores.len());
        for (store, quota) in stores {
            owned.push(store);
            lanes.push(MuxLane {
                queue: VecDeque::new(),
                queued_bytes: 0,
                in_flight: false,
                error: None,
                stats: Vec::new(),
                quota,
                quota_waits: 0,
            });
        }
        let shared = Arc::new(MuxShared {
            state: Mutex::new(MuxState {
                lanes,
                closed: false,
                rr: 0,
                held: false,
            }),
            cv: Condvar::new(),
        });
        let worker_shared = shared.clone();
        let worker = std::thread::Builder::new()
            .name("ckpt-store-writer".into())
            .spawn(move || Self::committer(owned, worker_shared))
            .expect("spawn store writer");
        SharedStoreWriter {
            shared,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// The committer thread: fair-share drain of every lane.
    fn committer(mut stores: Vec<DeltaStore>, shared: Arc<MuxShared>) -> Vec<DeltaStore> {
        loop {
            let (lane, image) = {
                let mut st = shared.state.lock().expect("writer lock");
                loop {
                    if let Some(work) = st.pop_next() {
                        break work;
                    }
                    if st.closed && !st.held {
                        return stores;
                    }
                    st = shared.cv.wait(st).expect("writer wait");
                }
            };
            // A queue slot just freed: wake blocked submitters early
            // (their bytes stay accounted until the commit finishes).
            shared.cv.notify_all();
            let image_bytes = image.total_bytes() as u64;
            let result = stores[lane].commit(&image);
            if result.is_err() {
                // A failing sink is a flight-recorder incident: record it
                // before the error goes sticky so the session's crash
                // dump explains the red run.
                if let Some(tel) = &stores[lane].telemetry {
                    let epoch = image.ranks.first().map_or(0, |r| r.epoch);
                    tel.emit(
                        tel.store_lane(),
                        simnet::telemetry::EventKind::SinkError,
                        tel.observed_now(),
                        epoch,
                        0,
                        0,
                    );
                    tel.note_incident();
                }
            }
            let mut st = shared.state.lock().expect("writer lock");
            let l = &mut st.lanes[lane];
            l.in_flight = false;
            l.queued_bytes = l.queued_bytes.saturating_sub(image_bytes);
            match result {
                Ok(s) => l.stats.push(s),
                Err(e) => {
                    l.error.get_or_insert(e);
                }
            }
            shared.cv.notify_all();
        }
    }

    /// How many lanes (tenants) this writer multiplexes.
    pub fn lanes(&self) -> usize {
        self.shared.state.lock().expect("writer lock").lanes.len()
    }

    /// Hand one epoch's world image to the background committer on
    /// `lane`. Blocks only while THIS lane is over its [`TenantQuota`]
    /// (queued epochs or in-flight bytes); a neighbor's backlog never
    /// blocks it. The lane's sticky error is returned to the caller and
    /// every later submitter.
    pub fn submit(&self, lane: usize, image: WorldImage) -> Result<(), StoreError> {
        let bytes = image.total_bytes() as u64;
        let mut st = self.shared.state.lock().expect("writer lock");
        let mut waited = false;
        loop {
            if let Some(e) = &st.lanes[lane].error {
                return Err(e.clone());
            }
            if st.closed {
                return Err(StoreError::Closed);
            }
            if !Self::over_quota(&st.lanes[lane], bytes) {
                let l = &mut st.lanes[lane];
                l.queue.push_back(image);
                l.queued_bytes += bytes;
                self.shared.cv.notify_all();
                return Ok(());
            }
            if !waited {
                waited = true;
                st.lanes[lane].quota_waits += 1;
            }
            st = self.shared.cv.wait(st).expect("writer wait");
        }
    }

    fn over_quota(lane: &MuxLane, incoming_bytes: u64) -> bool {
        let pending = lane.queued_bytes;
        lane.queue.len() >= lane.quota.max_queue.max(1)
            || (pending > 0
                && pending.saturating_add(incoming_bytes) > lane.quota.max_inflight_bytes)
    }

    /// Whether a submit of `bytes` on `lane` would block right now
    /// (quota probe for tests and admission-aware schedulers).
    pub fn would_block(&self, lane: usize, bytes: u64) -> bool {
        let st = self.shared.state.lock().expect("writer lock");
        Self::over_quota(&st.lanes[lane], bytes)
    }

    /// Submits that had to block on `lane`'s quota so far.
    pub fn quota_waits(&self, lane: usize) -> u64 {
        self.shared.state.lock().expect("writer lock").lanes[lane].quota_waits
    }

    /// Test hook: stop dispatching commits (current one finishes) until
    /// [`SharedStoreWriter::release_commits`], so tests can fill a
    /// lane's quota deterministically.
    pub fn hold_commits(&self) {
        self.shared.state.lock().expect("writer lock").held = true;
    }

    /// Resume dispatching after [`SharedStoreWriter::hold_commits`].
    pub fn release_commits(&self) {
        let mut st = self.shared.state.lock().expect("writer lock");
        st.held = false;
        self.shared.cv.notify_all();
    }

    /// Wait until every epoch submitted on `lane` is durably committed
    /// (or the lane failed). Returns the lane's sticky error, if any.
    pub fn flush_lane(&self, lane: usize) -> Result<(), StoreError> {
        let mut st = self.shared.state.lock().expect("writer lock");
        while (!st.lanes[lane].queue.is_empty() || st.lanes[lane].in_flight)
            && st.lanes[lane].error.is_none()
        {
            st = self.shared.cv.wait(st).expect("writer wait");
        }
        match &st.lanes[lane].error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Stats of the epochs committed on `lane` so far, in commit order.
    pub fn lane_stats(&self, lane: usize) -> Vec<EpochStats> {
        self.shared.state.lock().expect("writer lock").lanes[lane]
            .stats
            .clone()
    }

    /// The lane's sticky error, if its commits have failed.
    pub fn lane_error(&self, lane: usize) -> Option<StoreError> {
        self.shared.state.lock().expect("writer lock").lanes[lane]
            .error
            .clone()
    }

    /// Close every queue, drain them, join the committer and hand back
    /// the underlying stores in lane order. Lanes with a sticky error
    /// return their store too — the chain on disk is still the restart
    /// source; read the error first via
    /// [`SharedStoreWriter::lane_error`].
    pub fn finish(self) -> Result<Vec<DeltaStore>, StoreError> {
        self.shutdown().ok_or(StoreError::Closed)
    }

    /// Mark closed and join the worker; idempotent.
    fn shutdown(&self) -> Option<Vec<DeltaStore>> {
        {
            let mut st = self.shared.state.lock().expect("writer lock");
            st.closed = true;
            st.held = false;
            self.shared.cv.notify_all();
        }
        let handle = self.worker.lock().expect("worker lock").take()?;
        Some(handle.join().expect("store writer thread"))
    }
}

impl Drop for SharedStoreWriter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One tenant's [`ImageSink`] face of a [`SharedStoreWriter`]: what the
/// tenant's coordinator attaches, so its rendezvous hands epochs to its
/// own lane of the shared committer.
pub struct TenantSink {
    writer: Arc<SharedStoreWriter>,
    lane: usize,
}

impl TenantSink {
    /// The sink for `lane` of `writer`.
    pub fn new(writer: Arc<SharedStoreWriter>, lane: usize) -> TenantSink {
        TenantSink { writer, lane }
    }
}

impl ImageSink for TenantSink {
    fn submit(&self, image: WorldImage) -> Result<(), ImageError> {
        let epoch = image.ranks.first().map(|r| r.epoch).unwrap_or(0);
        self.writer
            .submit(self.lane, image)
            .map_err(|e| e.into_image_error(epoch))
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::super::testutil::*;
    use super::*;

    /// What a single session spawns: one lane, default quota.
    fn one_lane_writer(dir: &Path) -> SharedStoreWriter {
        let store = DeltaStore::open_with(dir, small_cfg()).unwrap();
        SharedStoreWriter::spawn_stores(vec![(store, TenantQuota::default())])
    }

    #[test]
    fn writer_pool_commits_in_background_and_flushes() {
        let dir = tmp_dir("writer");
        let writer = one_lane_writer(&dir);
        for e in 1..=3 {
            writer.submit(0, image(e, 3, e as u8, 1200)).unwrap();
        }
        writer.flush_lane(0).unwrap();
        let stats = writer.lane_stats(0);
        assert_eq!(stats.len(), 3);
        assert!(stats[0].full && !stats[1].full && !stats[2].full);
        let store = writer.finish().unwrap().pop().unwrap();
        assert_eq!(store.stats(), stats);
        assert_eq!(store.load_latest().unwrap(), image(3, 3, 3, 1200));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_error_is_sticky_for_submitters() {
        let dir = tmp_dir("sticky");
        let writer = one_lane_writer(&dir);
        writer.submit(0, image(1, 2, 0x11, 100)).unwrap();
        writer.flush_lane(0).unwrap();
        // A malformed image fails in the background...
        let mut bad = image(2, 2, 0x12, 100);
        bad.ranks[1].epoch = 9;
        writer.submit(0, bad).unwrap();
        writer.flush_lane(0).unwrap_err();
        // ...and every later submit sees the same error.
        let err = writer.submit(0, image(3, 2, 0x13, 100)).unwrap_err();
        assert!(matches!(err, StoreError::InconsistentImage(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
