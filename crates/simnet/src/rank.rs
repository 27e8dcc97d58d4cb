//! Per-rank execution context: the virtual clock and its cost accounting.

use std::cell::Cell;
use std::sync::Arc;

use crate::cluster::ClusterSpec;
use crate::envelope::Envelope;
use crate::fabric::Endpoint;
use crate::noise::NoiseStream;
use crate::time::VirtualTime;

/// Communication counters kept per rank (used by reports and by drain
/// diagnostics in the checkpointing layers).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RankCounters {
    /// Messages sent by this rank.
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Split-process context switches charged (MANA accounting).
    pub context_switches: u64,
    /// Injected straggler stalls served (fault-schedule slow-rank model).
    pub stalls: u64,
}

/// The execution context handed to each rank's thread.
///
/// Owns the rank's virtual clock. All methods take `&self`: the context is
/// thread-local to its rank (it is not `Sync`), so interior mutability via
/// `Cell` is safe and keeps call sites ergonomic.
pub struct RankCtx {
    rank: usize,
    spec: Arc<ClusterSpec>,
    clock: Cell<u64>,
    endpoint: Endpoint,
    counters: Cell<RankCounters>,
}

impl RankCtx {
    /// Construct a context. Normally done by [`crate::World::run`];
    /// public for tests and custom launchers. No cost draws from the
    /// rank's program-order noise stream (message jitter is a function
    /// of the message, [`crate::NoiseModel::message_factor`]), so
    /// `_noise` is accepted and dropped.
    pub fn new(
        rank: usize,
        spec: Arc<ClusterSpec>,
        endpoint: Endpoint,
        _noise: NoiseStream,
    ) -> RankCtx {
        RankCtx {
            rank,
            spec,
            clock: Cell::new(0),
            endpoint,
            counters: Cell::new(RankCounters::default()),
        }
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks in the cluster.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.spec.nranks()
    }

    /// The cluster description.
    #[inline]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The rank's fabric endpoint.
    #[inline]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Current virtual time on this rank.
    #[inline]
    pub fn now(&self) -> VirtualTime {
        VirtualTime(self.clock.get())
    }

    /// Advance the clock by a span.
    #[inline]
    pub fn advance(&self, dt: VirtualTime) {
        self.clock.set(self.clock.get().saturating_add(dt.0));
    }

    /// Advance the clock to at least `t` (no-op if already past).
    #[inline]
    pub fn advance_to(&self, t: VirtualTime) {
        if t.0 > self.clock.get() {
            self.clock.set(t.0);
        }
    }

    /// Injected straggler delay: stall this rank's virtual clock by `dt`
    /// and count the stall. A straggler models external slowness (an
    /// overheated node, a noisy neighbour), not application work. Used by
    /// the fault-schedule harness to model slow-but-alive ranks.
    pub fn stall(&self, dt: VirtualTime) {
        self.advance(dt);
        let mut c = self.counters.get();
        c.stalls += 1;
        self.counters.set(c);
    }

    /// When an envelope arrives at this rank: departure (which already
    /// includes the sender-side serialization, see
    /// [`crate::fabric::Endpoint::send_raw`]) plus the link's propagation
    /// latency, jittered by the message's own factor
    /// ([`crate::NoiseModel::message_factor`]) — a function of the message,
    /// not of when this rank's matcher happened to ingest it.
    pub fn arrival_time(&self, env: &Envelope) -> VirtualTime {
        let link = self.spec.link_between(env.src, self.rank);
        let factor = self.spec.noise.message_factor(self.rank, env.src, env.seq);
        env.depart + link.alpha.scale(factor)
    }

    /// Snapshot of this rank's counters.
    pub fn counters(&self) -> RankCounters {
        self.counters.get()
    }

    pub(crate) fn count_send(&self, bytes: usize) {
        let mut c = self.counters.get();
        c.msgs_sent += 1;
        c.bytes_sent += bytes as u64;
        self.counters.set(c);
    }

    /// Record a consumed (matched) incoming message. Called by vendor
    /// matching engines at the moment a message is delivered to the
    /// application; the raw fabric cannot know when matching happens.
    pub fn count_recv(&self, bytes: usize) {
        let mut c = self.counters.get();
        c.msgs_received += 1;
        c.bytes_received += bytes as u64;
        self.counters.set(c);
    }

    /// Record a split-process context switch (called by the MANA layer).
    pub fn count_context_switch(&self) {
        let mut c = self.counters.get();
        c.context_switches += 1;
        self.counters.set(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::fabric::Fabric;
    use crate::noise::NoiseModel;

    fn make_ctx() -> RankCtx {
        let spec = Arc::new(ClusterSpec::builder().nodes(1).ranks_per_node(1).build());
        let (_fabric, mut eps) = Fabric::new(&spec);
        RankCtx::new(
            0,
            spec,
            eps.pop().unwrap(),
            NoiseModel::disabled().stream_for_rank(0),
        )
    }

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let ctx = make_ctx();
        assert_eq!(ctx.now(), VirtualTime::ZERO);
        ctx.advance(VirtualTime::from_micros(3));
        assert_eq!(ctx.now(), VirtualTime::from_micros(3));
        ctx.advance_to(VirtualTime::from_micros(2)); // already past: no-op
        assert_eq!(ctx.now(), VirtualTime::from_micros(3));
        ctx.advance_to(VirtualTime::from_micros(10));
        assert_eq!(ctx.now(), VirtualTime::from_micros(10));
        // A 10 s window (the OSU checkpoint sleep) lands exactly.
        ctx.advance(VirtualTime::from_secs(10));
        assert_eq!(ctx.now(), VirtualTime::from_nanos(10_000_010_000));
    }

    #[test]
    fn counters_track_context_switches() {
        let ctx = make_ctx();
        assert_eq!(ctx.counters().context_switches, 0);
        ctx.count_context_switch();
        ctx.count_context_switch();
        assert_eq!(ctx.counters().context_switches, 2);
    }
}
