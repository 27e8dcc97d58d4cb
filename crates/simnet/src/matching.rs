//! Indexed (context, source, tag) message matching, shared by the vendor
//! MPI progress engines.
//!
//! Real MPI libraries keep an *unexpected message queue* per process;
//! posted receives first search it, then block on the network. The naive
//! implementation — one flat queue scanned linearly per receive — costs
//! O(queue length) even for fully-specified receives. This module keeps
//! the unexpected store **indexed**:
//!
//! * Messages are bucketed by their exact `(ctx_id, src, tag)` triple in
//!   one map, each bucket a FIFO in arrival order. A fully-specified
//!   receive is a hash lookup plus a front pop: **O(1)**, no scan. A
//!   bucket lives exactly while it holds a message: the pop that empties
//!   it removes it, and nothing else indexes it.
//! * Every message is stamped with a per-process **arrival sequence
//!   number** at ingest. Wildcard receives (`MPI_ANY_SOURCE` /
//!   `MPI_ANY_TAG`) compare the *front* of every live bucket their
//!   pattern admits, in any context, and take the smallest sequence:
//!   O(#live buckets), never O(#queued messages). Wildcards are rare (a
//!   drain's probe, an any-source application receive), so the exact
//!   path keeps no second index for them.
//!
//! Why this preserves MPI's matching semantics: the fabric delivers
//! per-(src, dst) FIFO, and ingest stamps sequence numbers in delivery
//! order, so within a bucket (one sender, one tag, one context) sequence
//! order *is* send order — exact matches pop in send order
//! (non-overtaking). Across buckets, a wildcard receive picks the
//! matching message with the minimal sequence number over all candidate
//! bucket fronts; any other matching message in those buckets has a
//! larger sequence, so no later message from the same sender can overtake
//! an earlier one, and cross-sender selection follows arrival order,
//! which is how a hardware matching unit breaks wildcard ties.
//!
//! Vendor cost models stay pluggable: an [`ArrivalModel`] maps a raw
//! envelope to its arrival time at this rank (MPICH's ch3:sock adds a
//! small-message progress-engine latency; Open MPI's OB1 uses the wire
//! arrival as-is). Jitter is drawn exactly once per message, at ingest.
//!
//! Ingest itself is batched: one drain per progress call moves every
//! queued envelope into a reused buffer, one lock per stripe (none on an
//! empty mailbox) instead of one per message. A blocking match parks with
//! its pattern as the wake filter ([`crate::fabric`]'s *want*).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::envelope::Envelope;
use crate::error::SimResult;
use crate::fabric::{Stamped, Want, MATCH_HITS};
use crate::rank::RankCtx;
use crate::telemetry::EventKind;
use crate::time::VirtualTime;

/// Maps a raw envelope to its arrival time at this rank — the hook where
/// vendor progress-engine cost models plug in.
pub trait ArrivalModel {
    /// When `env` becomes visible to the matching engine on this rank.
    fn arrival(&self, ctx: &RankCtx, env: &Envelope) -> VirtualTime {
        ctx.arrival_time(env)
    }
}

/// The default model: wire arrival time only (departure + link latency
/// with the message's jitter factor), no extra engine cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireArrival;

impl ArrivalModel for WireArrival {}

/// Source pattern of a posted receive (world ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcPattern {
    /// `MPI_ANY_SOURCE`.
    Any,
    /// A specific world rank.
    Is(usize),
}

/// Tag pattern of a posted receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagPattern {
    /// `MPI_ANY_TAG`.
    Any,
    /// A specific tag.
    Is(i32),
}

/// A message delivered by the matcher: the envelope, its arrival time
/// (computed once, at ingest), and its per-process arrival sequence
/// number.
#[derive(Debug, Clone)]
pub struct MatchedMsg {
    /// The message.
    pub env: Envelope,
    /// When it reached this rank, per the engine's [`ArrivalModel`].
    pub arrival: VirtualTime,
    /// Global arrival order at this rank (monotonic per process).
    pub seq: u64,
}

/// Exact-match bucket key.
type Key = (u64, usize, i32);

/// Multiply-mix hasher for the matcher's integer keys. Context ids, world
/// ranks and tags are made by this program, never by outside input, so
/// SipHash's collision resistance bought nothing for most of a match's cost.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    /// One mix per byte; the matcher's keys never come this way.
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    /// One multiply-mix: how a key's context id comes.
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// A source rank, mixed as one word.
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// A tag, mixed as one word.
    fn write_i32(&mut self, n: i32) {
        self.write_u64(n as u32 as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes with the low ones.
        self.0 ^ (self.0 >> 32)
    }
}

type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;
const SPARE_BUCKETS: usize = 64;

/// The shared indexed matching core. One per rank per vendor engine.
pub struct MatchCore<M: ArrivalModel = WireArrival> {
    model: M,
    /// Per-(ctx, src, tag) FIFO buckets in arrival order; only nonempty
    /// ones are present.
    buckets: MixMap<Key, VecDeque<MatchedMsg>>,
    /// Up to `SPARE_BUCKETS` emptied queues of evicted buckets, so the common
    /// one-message bucket does not allocate and free a `VecDeque` per message.
    spare: Vec<VecDeque<MatchedMsg>>,
    /// Next arrival sequence number.
    next_seq: u64,
    /// Total queued messages across all buckets.
    total: usize,
    /// Reused batch-drain buffer (amortizes the per-pump allocation).
    scratch: Vec<Stamped>,
}

/// The fabric wake filter equivalent to a receive pattern.
fn want(ctx_id: u64, src: SrcPattern, tag: TagPattern) -> Want {
    Want {
        ctx_id: Some(ctx_id),
        src: match src {
            SrcPattern::Any => None,
            SrcPattern::Is(s) => Some(s),
        },
        tag: match tag {
            TagPattern::Any => None,
            TagPattern::Is(t) => Some(t),
        },
    }
}

impl<M: ArrivalModel + Default> Default for MatchCore<M> {
    fn default() -> Self {
        MatchCore::with_model(M::default())
    }
}

impl MatchCore<WireArrival> {
    /// An empty core with the default wire-arrival cost model.
    pub fn new() -> Self {
        MatchCore::default()
    }
}

impl<M: ArrivalModel> MatchCore<M> {
    /// An empty core with a vendor-specific arrival cost model.
    pub fn with_model(model: M) -> Self {
        MatchCore {
            model,
            buckets: MixMap::default(),
            spare: Vec::new(),
            next_seq: 0,
            total: 0,
            scratch: Vec::new(),
        }
    }

    /// The vendor cost model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Number of queued unexpected messages (diagnostics / drain).
    pub fn unexpected_len(&self) -> usize {
        self.total
    }

    /// Stamp, cost, and index one envelope.
    fn ingest(&mut self, ctx: &RankCtx, env: Envelope) {
        let arrival = self.model.arrival(ctx, &env);
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = (env.ctx_id, env.src, env.tag);
        let bucket = self
            .buckets
            .entry(key)
            .or_insert_with(|| self.spare.pop().unwrap_or_default());
        bucket.push_back(MatchedMsg { env, arrival, seq });
        self.total += 1;
    }

    /// Batch-drain everything currently on the wire into the index: one
    /// lock acquisition per mailbox stripe per call, none when the
    /// mailbox is empty.
    pub fn pump(&mut self, ctx: &RankCtx) -> SimResult<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        ctx.endpoint().drain_stamped_into(&mut scratch);
        for (_, env) in scratch.drain(..) {
            self.ingest(ctx, env);
        }
        self.scratch = scratch;
        Ok(())
    }

    /// The key of the only bucket that can hold the first match for the
    /// pattern, plus how many bucket fronts a wildcard compared. An exact
    /// pattern *is* its key — not probed here, so the caller's lookup is
    /// the one hash probe of an exact match; a wildcard compares the
    /// fronts of the live buckets it admits by arrival sequence and names
    /// a live bucket.
    fn locate(&self, ctx_id: u64, src: SrcPattern, tag: TagPattern) -> (Option<Key>, usize) {
        if let (SrcPattern::Is(s), TagPattern::Is(t)) = (src, tag) {
            return (Some((ctx_id, s, t)), 0);
        }
        let want = want(ctx_id, src, tag);
        let mut best: Option<(u64, Key)> = None;
        let mut compared = 0;
        for (&key, bucket) in &self.buckets {
            if !want.admits(key.0, key.1, key.2) {
                continue;
            }
            compared += 1;
            let front_seq = bucket.front().expect("live buckets are nonempty").seq;
            if best.is_none_or(|(seq, _)| front_seq < seq) {
                best = Some((front_seq, key));
            }
        }
        (best.map(|(_, key)| key), compared)
    }

    /// Non-blocking match: pump the wire, then deliver the first matching
    /// message in arrival order, if one is here. Consumes the message and
    /// records it in the rank's receive counters.
    pub fn try_match(
        &mut self,
        ctx: &RankCtx,
        ctx_id: u64,
        src: SrcPattern,
        tag: TagPattern,
    ) -> SimResult<Option<MatchedMsg>> {
        self.pump(ctx)?;
        let (located, scanned) = self.locate(ctx_id, src, tag);
        note_scan(ctx, scanned);
        let Some(Entry::Occupied(mut bucket)) = located.map(|key| self.buckets.entry(key)) else {
            return Ok(None);
        };
        let msg = bucket.get_mut().pop_front().expect("buckets are nonempty");
        // Evict emptied buckets so no per-(ctx, src, tag) state
        // accumulates over communicator churn. Only the emptied queue's
        // allocation is kept, for the next key.
        if bucket.get().is_empty() {
            let queue = bucket.remove();
            if self.spare.len() < SPARE_BUCKETS {
                self.spare.push(queue);
            }
        }
        self.total -= 1;
        ctx.count_recv(msg.env.len());
        note_match(ctx, &msg);
        Ok(Some(msg))
    }

    /// Blocking match: waits (event-driven, no polling) for a matching
    /// message.
    pub fn match_blocking(
        &mut self,
        ctx: &RankCtx,
        ctx_id: u64,
        src: SrcPattern,
        tag: TagPattern,
    ) -> SimResult<MatchedMsg> {
        loop {
            if let Some(m) = self.try_match(ctx, ctx_id, src, tag)? {
                return Ok(m);
            }
            // Nothing matched and the wire is drained: sleep until an
            // envelope the pattern admits (or a shutdown/failure wakeup),
            // then retry — its pump batch-drains whatever else arrived.
            let env = ctx.endpoint().recv_raw_wanting(want(ctx_id, src, tag))?;
            self.ingest(ctx, env);
        }
    }

    /// Non-blocking peek (for `MPI_Iprobe`): like [`MatchCore::try_match`]
    /// but leaves the message queued and does not count a receive.
    pub fn try_peek(
        &mut self,
        ctx: &RankCtx,
        ctx_id: u64,
        src: SrcPattern,
        tag: TagPattern,
    ) -> SimResult<Option<MatchedMsg>> {
        self.pump(ctx)?;
        let (located, scanned) = self.locate(ctx_id, src, tag);
        note_scan(ctx, scanned);
        Ok(located
            .and_then(|key| self.buckets.get(&key))
            .and_then(|bucket| bucket.front().cloned()))
    }

    /// Blocking peek (for `MPI_Probe`).
    pub fn peek_blocking(
        &mut self,
        ctx: &RankCtx,
        ctx_id: u64,
        src: SrcPattern,
        tag: TagPattern,
    ) -> SimResult<MatchedMsg> {
        loop {
            if let Some(m) = self.try_peek(ctx, ctx_id, src, tag)? {
                return Ok(m);
            }
            let env = ctx.endpoint().recv_raw_wanting(want(ctx_id, src, tag))?;
            self.ingest(ctx, env);
        }
    }
}

/// Record a successful match on the rank's telemetry lane (if the
/// fabric has a recorder attached): one `MsgMatch` event stamped with
/// the message's virtual arrival time, plus the match-hit counter.
#[inline]
fn note_match(ctx: &RankCtx, msg: &MatchedMsg) {
    ctx.endpoint().count(MATCH_HITS);
    if let Some(ft) = ctx.endpoint().fabric().tel_handles() {
        ft.tel.emit_rank(
            ctx.rank(),
            EventKind::MsgMatch,
            msg.arrival.as_nanos(),
            msg.env.src as u64,
            msg.env.tag as u32 as u64,
            msg.seq,
        );
    }
}

/// Record a wildcard front scan over `scanned` candidate buckets
/// (exact-probe lookups pass 0 and cost one branch).
#[inline]
fn note_scan(ctx: &RankCtx, scanned: usize) {
    if scanned > 0 {
        if let Some(ft) = ctx.endpoint().fabric().tel_handles() {
            ft.wildcard_scans.incr();
            ft.wildcard_scanned.add(scanned as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::fabric::Fabric;
    use crate::noise::NoiseModel;
    use bytes::Bytes;
    use std::sync::Arc;

    fn pair() -> (RankCtx, RankCtx) {
        let spec = Arc::new(ClusterSpec::builder().nodes(1).ranks_per_node(2).build());
        let (_fabric, mut eps) = Fabric::new(&spec);
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        (
            RankCtx::new(
                0,
                spec.clone(),
                ep0,
                NoiseModel::disabled().stream_for_rank(0),
            ),
            RankCtx::new(1, spec, ep1, NoiseModel::disabled().stream_for_rank(1)),
        )
    }

    fn send(c: &RankCtx, dst: usize, ctx_id: u64, tag: i32, data: &[u8]) {
        c.endpoint()
            .send_raw(dst, ctx_id, tag, Bytes::copy_from_slice(data), c)
            .unwrap();
    }

    #[test]
    fn exact_match_pops_fifo_per_key() {
        let (c0, c1) = pair();
        for i in 0..8u8 {
            send(&c0, 1, 3, 7, &[i]);
        }
        let mut core = MatchCore::new();
        // A miss on the tag or on the source leaves the queue as it was.
        for (src, tag) in [(0, 8), (1, 7)] {
            let miss = core.try_match(&c1, 3, SrcPattern::Is(src), TagPattern::Is(tag));
            assert!(miss.unwrap().is_none());
        }
        assert_eq!(core.unexpected_len(), 8);
        for i in 0..8u8 {
            let m = core
                .try_match(&c1, 3, SrcPattern::Is(0), TagPattern::Is(7))
                .unwrap()
                .unwrap();
            assert_eq!(m.env.payload[0], i);
        }
        assert_eq!(core.unexpected_len(), 0);
    }

    #[test]
    fn wildcard_follows_global_arrival_order() {
        let (c0, c1) = pair();
        send(&c0, 1, 3, 42, b"first");
        send(&c0, 1, 3, 43, b"second");
        send(&c0, 1, 3, 42, b"third");
        let mut core = MatchCore::new();
        let a = core
            .try_match(&c1, 3, SrcPattern::Any, TagPattern::Any)
            .unwrap()
            .unwrap();
        let b = core
            .try_match(&c1, 3, SrcPattern::Any, TagPattern::Any)
            .unwrap()
            .unwrap();
        let c = core
            .try_match(&c1, 3, SrcPattern::Any, TagPattern::Any)
            .unwrap()
            .unwrap();
        assert_eq!(&a.env.payload[..], b"first");
        assert_eq!(&b.env.payload[..], b"second");
        assert_eq!(&c.env.payload[..], b"third");
        assert!(a.seq < b.seq && b.seq < c.seq);
    }

    #[test]
    fn contexts_are_isolated() {
        let (c0, c1) = pair();
        send(&c0, 1, 10, 0, b"ten");
        send(&c0, 1, 20, 0, b"twenty");
        let mut core = MatchCore::new();
        let got = core
            .try_match(&c1, 20, SrcPattern::Any, TagPattern::Any)
            .unwrap()
            .unwrap();
        assert_eq!(&got.env.payload[..], b"twenty");
        assert_eq!(core.unexpected_len(), 1);
        assert!(core
            .try_match(&c1, 99, SrcPattern::Any, TagPattern::Any)
            .unwrap()
            .is_none());
    }

    #[test]
    fn peek_leaves_message_and_keeps_arrival_stable() {
        let (c0, c1) = pair();
        send(&c0, 1, 3, 7, b"x");
        let mut core = MatchCore::new();
        let p = core
            .try_peek(&c1, 3, SrcPattern::Any, TagPattern::Any)
            .unwrap()
            .unwrap();
        assert_eq!(core.unexpected_len(), 1);
        let m = core
            .try_match(&c1, 3, SrcPattern::Any, TagPattern::Any)
            .unwrap()
            .unwrap();
        assert_eq!(p.arrival, m.arrival, "arrival computed once, at ingest");
        assert_eq!(core.unexpected_len(), 0);
    }

    #[test]
    fn blocking_match_parks_with_its_pattern_as_the_wake_filter() {
        let spec = Arc::new(ClusterSpec::builder().nodes(1).ranks_per_node(2).build());
        let (fabric, mut eps) = Fabric::new(&spec);
        let tel = Arc::new(crate::telemetry::Telemetry::new(2));
        fabric.attach_telemetry(tel.clone());
        let count = |name: &str| tel.metrics().counter(name).get();
        let c1 = RankCtx::new(
            1,
            spec.clone(),
            eps.pop().unwrap(),
            NoiseModel::disabled().stream_for_rank(1),
        );
        let c0 = RankCtx::new(
            0,
            spec,
            eps.pop().unwrap(),
            NoiseModel::disabled().stream_for_rank(0),
        );
        let receiver = std::thread::spawn(move || {
            let mut core = MatchCore::new();
            let m = core
                .match_blocking(&c1, 3, SrcPattern::Is(0), TagPattern::Is(7))
                .unwrap();
            (m, core.unexpected_len())
        });
        while count("fabric.parks") == 0 {
            std::thread::yield_now();
        }
        // Wrong tag, wrong context: the matcher sleeps through both.
        send(&c0, 1, 3, 8, b"a");
        send(&c0, 1, 4, 7, b"b");
        assert_eq!(count("fabric.wakeups"), 0);
        send(&c0, 1, 3, 7, b"c");
        assert_eq!(count("fabric.wakeups"), 1);
        let (m, left) = receiver.join().unwrap();
        assert_eq!(&m.env.payload[..], b"c");
        assert_eq!(m.seq, 2, "the backlog was ingested first, in arrival order");
        assert_eq!(left, 2);
        assert_eq!(count("fabric.parks"), 1);
        // Endpoints fold their per-message counts in when they drop.
        drop(c0);
        assert_eq!(count("fabric.wake_skips"), 2);
        assert_eq!(count("fabric.sends"), 3);
        assert_eq!(
            count("match.hits"),
            1,
            "the receiver's endpoint is gone too"
        );
    }

    #[test]
    fn empty_buckets_are_pruned_and_reusable() {
        let (c0, c1) = pair();
        let mut core = MatchCore::new();
        for round in 0..3 {
            send(&c0, 1, 5, 1, &[round]);
            send(&c0, 1, 5, 2, &[round]);
            let a = core
                .try_match(&c1, 5, SrcPattern::Any, TagPattern::Is(1))
                .unwrap()
                .unwrap();
            let b = core
                .try_match(&c1, 5, SrcPattern::Any, TagPattern::Is(2))
                .unwrap()
                .unwrap();
            assert_eq!(a.env.payload[0], round);
            assert_eq!(b.env.payload[0], round);
        }
        // Emptied buckets are evicted: no per-key state accumulates, and
        // the two queues wait in `spare`, reused by every round's keys.
        assert!(core.buckets.is_empty());
        assert_eq!(core.spare.len(), 2);
    }

    #[test]
    fn mixed_exact_and_wildcard_respect_non_overtaking() {
        let (c0, c1) = pair();
        // Same (src, tag): an exact receive and a wildcard receive must
        // both observe send order.
        for i in 0..4u8 {
            send(&c0, 1, 9, 5, &[i]);
        }
        let mut core = MatchCore::new();
        let a = core
            .try_match(&c1, 9, SrcPattern::Is(0), TagPattern::Is(5))
            .unwrap()
            .unwrap();
        let b = core
            .try_match(&c1, 9, SrcPattern::Any, TagPattern::Any)
            .unwrap()
            .unwrap();
        let c = core
            .try_match(&c1, 9, SrcPattern::Is(0), TagPattern::Any)
            .unwrap()
            .unwrap();
        let d = core
            .try_match(&c1, 9, SrcPattern::Any, TagPattern::Is(5))
            .unwrap()
            .unwrap();
        assert_eq!(
            [
                a.env.payload[0],
                b.env.payload[0],
                c.env.payload[0],
                d.env.payload[0]
            ],
            [0, 1, 2, 3]
        );
    }

    #[test]
    fn custom_arrival_model_is_applied_once_at_ingest() {
        struct PlusTen;
        impl ArrivalModel for PlusTen {
            fn arrival(&self, ctx: &RankCtx, env: &Envelope) -> VirtualTime {
                ctx.arrival_time(env) + VirtualTime::from_micros(10)
            }
        }
        let (c0, c1) = pair();
        send(&c0, 1, 0, 0, b"y");
        let mut core = MatchCore::with_model(PlusTen);
        let m = core
            .try_match(&c1, 0, SrcPattern::Is(0), TagPattern::Is(0))
            .unwrap()
            .unwrap();
        assert!(m.arrival >= VirtualTime::from_micros(10));
    }
}
