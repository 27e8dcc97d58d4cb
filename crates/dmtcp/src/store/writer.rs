//! The background writer: one committer thread draining per-tenant lanes.

use std::sync::Arc;

use crate::coordinator::ImageSink;
use crate::image::WorldImage;
use crate::lanes::{LaneMux, LaneWorker, Lanes};

use super::{DeltaStore, EpochStats, StoreError};

/// Epochs a lane may hold queued before its next submit blocks: the
/// double buffer. A lane pins at most `QUEUE_DEPTH + 1` world images in
/// memory, the queued ones and the one being committed.
pub const QUEUE_DEPTH: usize = 2;

/// The committer thread's worker: it owns every lane's store.
struct Committer {
    stores: Vec<DeltaStore>,
}

impl LaneWorker for Committer {
    const NAME: &'static str = "ckpt-store-writer";
    const BOUND: usize = QUEUE_DEPTH;
    type Job = WorldImage;
    type Lane = Vec<EpochStats>;
    type Error = StoreError;

    fn run(
        &mut self,
        lanes: &Lanes<Self>,
        lane: usize,
        image: WorldImage,
    ) -> Result<(), StoreError> {
        let store = &mut self.stores[lane];
        let result = store.commit(&image);
        if result.is_err() {
            // A failing sink is a flight-recorder incident: record it
            // before the error goes sticky so the session's crash dump
            // explains the red run.
            if let Some(tel) = &store.telemetry {
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
        let stats = result?;
        lanes.with_lane(lane, |committed| committed.push(stats));
        Ok(())
    }
}

/// The multi-tenant asynchronous face of the store: ONE background
/// committer thread owns every tenant's [`DeltaStore`] and drains their
/// submit queues fair-share round-robin (a `LaneMux`). Per lane,
/// everything is scoped to the tenant: its queue of at most
/// [`QUEUE_DEPTH`] epochs, its sticky error, its [`EpochStats`]. A lane
/// whose commit failed is never dispatched again, so no image queued
/// behind the failure reaches the chain. A single session is the
/// one-lane case.
pub struct SharedStoreWriter {
    mux: LaneMux<Committer>,
}

impl SharedStoreWriter {
    /// Spawn the committer over one store per lane, in lane order.
    pub fn spawn_stores(stores: Vec<DeltaStore>) -> SharedStoreWriter {
        let lanes = vec![Vec::new(); stores.len()];
        SharedStoreWriter {
            mux: LaneMux::spawn(Committer { stores }, lanes),
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

    /// Stats of the epochs committed on `lane` so far, in commit order.
    pub fn lane_stats(&self, lane: usize) -> Vec<EpochStats> {
        self.mux.lanes.with_lane(lane, |stats| stats.clone())
    }

    /// The lane's sticky error, if its commits have failed.
    pub fn lane_error(&self, lane: usize) -> Option<StoreError> {
        self.mux.lanes.error(lane)
    }

    /// Close every queue, drain the lanes that have not failed, join the
    /// committer and hand back the underlying stores in lane order.
    /// Lanes with a sticky error return their store too — the chain on
    /// disk is still the restart source; read the error first via
    /// [`SharedStoreWriter::lane_error`].
    pub fn finish(mut self) -> Result<Vec<DeltaStore>, StoreError> {
        self.mux
            .join()
            .map(|committer| committer.stores)
            .ok_or(StoreError::Closed)
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
