//! The background writer: one committer thread draining per-tenant lanes.

use std::sync::Arc;

use crate::coordinator::ImageSink;
use crate::image::WorldImage;
use crate::lanes::{LaneMux, LaneWorker, Lanes};

use super::{DeltaStore, StoreError};

/// Epochs a lane may hold queued before its next submit blocks: the
/// double buffer. A lane pins at most `QUEUE_DEPTH + 1` world images in
/// memory, the queued ones and the one being committed.
pub const QUEUE_DEPTH: usize = 2;

/// The committer thread's worker. A lane's state is its store, which
/// leaves the lane only while one of its epochs commits.
struct Committer;

impl LaneWorker for Committer {
    const NAME: &'static str = "ckpt-store-writer";
    const BOUND: usize = QUEUE_DEPTH;
    type Job = WorldImage;
    type Lane = Option<DeltaStore>;
    type Error = StoreError;

    fn run(
        &mut self,
        lanes: &Lanes<Self>,
        lane: usize,
        image: WorldImage,
    ) -> Result<(), StoreError> {
        let mut store = lanes
            .with_lane(lane, Option::take)
            .expect("a dispatched lane holds its store");
        let result = store.commit(&image);
        if result.is_err() {
            // A failing sink is a flight-recorder incident: record it
            // before the error goes sticky so the session's crash dump
            // explains the red run.
            let epoch = image.ranks.first().map_or(0, |r| r.epoch);
            store.emit(simnet::telemetry::EventKind::SinkError, epoch, 0, 0);
            store.telemetry.note_incident();
        }
        // Back before the lane goes idle, so a flush or a retire that
        // sees it idle finds its store, a failed commit's too.
        lanes.with_lane(lane, |slot| *slot = Some(store));
        result.map(|_| ())
    }
}

/// The multi-tenant asynchronous face of the store: ONE background
/// committer thread holds every tenant's [`DeltaStore`] and drains their
/// submit queues fair-share round-robin (a `LaneMux`). Per lane,
/// everything is scoped to the tenant: its store, its queue of at most
/// [`QUEUE_DEPTH`] epochs and its sticky error. A lane whose commit
/// failed is never dispatched again, so no image queued behind the
/// failure reaches the chain. [`SharedStoreWriter::retire`] hands one
/// lane's store back while the other lanes commit on. A single session
/// is the one-lane case.
pub struct SharedStoreWriter {
    mux: LaneMux<Committer>,
}

impl SharedStoreWriter {
    /// Spawn the committer over one store per lane, in lane order.
    pub fn spawn_stores(stores: Vec<DeltaStore>) -> SharedStoreWriter {
        let lanes = stores.into_iter().map(Some).collect();
        SharedStoreWriter {
            mux: LaneMux::spawn(Committer, lanes),
        }
    }

    /// Hand one epoch's world image to the background committer on
    /// `lane`. Blocks only while THIS lane already holds [`QUEUE_DEPTH`]
    /// epochs; a neighbor's backlog never blocks it. The lane's sticky
    /// error is returned to the caller and every later submitter.
    pub fn submit(&self, lane: usize, image: WorldImage) -> Result<(), StoreError> {
        self.mux
            .lanes
            .submit(lane, image)
            .map_err(|e| e.unwrap_or(StoreError::Closed))
    }

    /// Submits on `lane` that blocked on its full queue so far.
    pub fn quota_waits(&self, lane: usize) -> u64 {
        self.mux.lanes.blocked(lane)
    }

    /// Test hook: stop dispatching commits (current one finishes) until
    /// [`SharedStoreWriter::release_commits`], so tests can fill a
    /// lane's queue deterministically.
    pub fn hold_commits(&self) {
        self.mux.lanes.hold(true);
    }

    /// Resume dispatching after [`SharedStoreWriter::hold_commits`].
    pub fn release_commits(&self) {
        self.mux.lanes.hold(false);
    }

    /// Wait until every epoch submitted on `lane` is durably committed
    /// (or the lane failed). Returns the lane's sticky error, if any.
    pub fn flush_lane(&self, lane: usize) -> Result<(), StoreError> {
        self.mux.lanes.flush(lane)
    }

    /// Flush `lane`, then take its store out: a later submit on it
    /// fails with [`StoreError::Closed`], while every other lane commits
    /// on. Returns the flush result and the store, which a failed lane
    /// hands back too (the chain on disk is still the restart source);
    /// `None` once the lane is retired.
    pub fn retire(&self, lane: usize) -> (Result<(), StoreError>, Option<DeltaStore>) {
        self.mux.lanes.retire(lane)
    }

    /// The lane's sticky error, if its commits have failed.
    pub fn lane_error(&self, lane: usize) -> Option<StoreError> {
        self.mux.lanes.error(lane)
    }

    /// Close every queue, drain the lanes that have not failed, join the
    /// committer and hand back the stores not retired, in lane order.
    /// Lanes with a sticky error return their store too — the chain on
    /// disk is still the restart source; read the error first via
    /// [`SharedStoreWriter::lane_error`].
    pub fn finish(mut self) -> Result<Vec<DeltaStore>, StoreError> {
        self.mux.join().ok_or(StoreError::Closed)?;
        Ok(self.mux.lanes.take_all().into_iter().flatten().collect())
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
    fn submit(&self, image: WorldImage) -> Result<(), StoreError> {
        self.writer.submit(self.lane, image)
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::super::testutil::*;
    use super::*;

    /// What a single session spawns: one lane.
    fn one_lane_writer(dir: &Path) -> SharedStoreWriter {
        let store = DeltaStore::open_with(dir, small_cfg()).unwrap();
        SharedStoreWriter::spawn_stores(vec![store])
    }

    #[test]
    fn writer_pool_commits_in_background_and_flushes() {
        let dir = tmp_dir("writer");
        let writer = one_lane_writer(&dir);
        for e in 1..=3 {
            writer.submit(0, image(e, 3, e as u8, 1200)).unwrap();
        }
        writer.flush_lane(0).unwrap();
        let store = writer.finish().unwrap().pop().unwrap();
        let stats = store.stats();
        assert_eq!(stats.len(), 3);
        assert!(stats[0].full && !stats[1].full && !stats[2].full);
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

    /// Two lanes over their own chains under `tag`.
    fn two_lane_writer(tag: &str) -> (SharedStoreWriter, [std::path::PathBuf; 2]) {
        let dirs = [tmp_dir(&format!("{tag}_a")), tmp_dir(&format!("{tag}_b"))];
        let stores = dirs
            .iter()
            .map(|d| DeltaStore::open_with(d, small_cfg()).unwrap())
            .collect();
        (SharedStoreWriter::spawn_stores(stores), dirs)
    }

    #[test]
    fn retire_flushes_and_hands_the_store_back() {
        let dir = tmp_dir("retire");
        let writer = one_lane_writer(&dir);
        for e in 1..=2 {
            writer.submit(0, image(e, 2, e as u8, 600)).unwrap();
        }
        let (flushed, store) = writer.retire(0);
        flushed.unwrap();
        let store = store.expect("the lane's store");
        assert_eq!(store.stats().len(), 2);
        assert_eq!(store.load_latest().unwrap(), image(2, 2, 2, 600));
        // Retired once: the lane holds no store any more.
        assert!(writer.retire(0).1.is_none());
        assert!(writer.finish().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_submit_after_retiring_fails_closed() {
        let dir = tmp_dir("retire_closed");
        let writer = one_lane_writer(&dir);
        let (flushed, store) = writer.retire(0);
        flushed.unwrap();
        let err = writer.submit(0, image(1, 2, 1, 100)).unwrap_err();
        assert!(matches!(err, StoreError::Closed), "{err:?}");
        assert!(store.unwrap().stats().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_neighbouring_lane_commits_on_after_a_retire() {
        let (writer, dirs) = two_lane_writer("retire_neighbour");
        writer.submit(0, image(1, 2, 1, 300)).unwrap();
        let (flushed, store_a) = writer.retire(0);
        flushed.unwrap();
        for e in 1..=3 {
            writer.submit(1, image(e, 2, e as u8, 300)).unwrap();
        }
        writer.flush_lane(1).unwrap();
        assert_eq!(store_a.unwrap().stats().len(), 1);
        let stores = writer.finish().unwrap();
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0].stats().len(), 3);
        assert_eq!(stores[0].epochs(), vec![1, 2, 3]);
        dirs.iter()
            .for_each(|d| std::fs::remove_dir_all(d).unwrap());
    }

    #[test]
    fn a_failed_lane_still_hands_its_store_back() {
        let (writer, dirs) = two_lane_writer("retire_failed");
        writer.submit(0, image(1, 2, 1, 300)).unwrap();
        let mut bad = image(2, 2, 2, 300);
        bad.ranks[1].epoch = 9;
        writer.submit(0, bad).unwrap();
        let (flushed, store) = writer.retire(0);
        assert!(matches!(flushed, Err(StoreError::InconsistentImage(_))));
        let store = store.expect("a failed lane's store");
        assert_eq!(store.epochs(), vec![1]);
        assert_eq!(store.load_latest().unwrap(), image(1, 2, 1, 300));
        // The failure is this lane's alone.
        writer.submit(1, image(1, 2, 3, 300)).unwrap();
        writer.flush_lane(1).unwrap();
        dirs.iter()
            .for_each(|d| std::fs::remove_dir_all(d).unwrap());
    }
}
