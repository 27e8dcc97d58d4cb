//! The fabric: rank-to-rank FIFO mailboxes and a shutdown switch.
//!
//! Each destination rank owns a **striped mailbox**: the arrival queue is
//! split into `nstripes` lock stripes keyed by *source* rank
//! (`src % nstripes`), so concurrent senders to the same destination only
//! contend when they share a stripe — and senders in different stripes
//! never touch the same lock. Per (src, dst) pair, delivery order equals
//! send order (one source always lands in one stripe, whose queue is
//! FIFO), which is exactly the non-overtaking guarantee MPI point-to-point
//! semantics require from the transport. Cross-sender arrival order is
//! defined by a per-destination atomic **arrival stamp** taken at push
//! time; receivers merge the stripes in stamp order, so a single-threaded
//! send schedule is observed exactly in send order, as before striping.
//!
//! The fabric is **event-driven**: a blocked receiver sleeps on its
//! mailbox's condition variable and is woken by an envelope it waits for
//! or by [`Fabric::shutdown`], the one broadcast wake — no polling
//! interval, so shutdown latency is one condvar wakeup, not a timer tick.
//!
//! **The gate guards the want.** The condvar's mutex (the *gate*) holds
//! what the parked receiver waits for, a [`Want`] `{ctx_id, src, tag}`
//! with `None` = wildcard. A receiver about to park takes the gate, writes
//! its want, registers in `waiters`, re-checks `queued` and the shutdown
//! flag, and sleeps. A sender that reads `waiters > 0` after its push
//! takes the gate and notifies **only if the want admits its envelope**;
//! any other envelope waits in its stripe until the admitted one arrives
//! and the receiver's next pump drains the lot, in arrival order. With no
//! receiver registered a send takes one stripe lock and no gate (the
//! 512-rank incast fast path). Shutdown ignores the want: gate, then
//! `notify_all`.
//!
//! **No lost wake-up.** A sender bumps `queued` before it loads `waiters`;
//! a receiver, holding the gate, writes its want and bumps `waiters`
//! before its last look at `queued` (all `SeqCst`). A sender that reads
//! `waiters == 0` is thus one whose envelope that look will see. One that
//! reads `waiters > 0` takes the gate, which a parking receiver holds
//! until `Condvar::wait` lets go of it, so the notify cannot fall between
//! look and sleep. The count may be stale — a receiver deregisters only
//! after waking — and then the want under the gate is the finished park's
//! (a wrong filter, but the receiver is awake and its next park's look
//! comes after this sender's bump) or a later park's, the filter of the
//! sleep in progress. Modelled in `tests/loom_models.rs`
//! (`targeted_wake_*`); change one side, change both.
//!
//! **Yield, then park.** An empty-handed receiver first calls
//! `yield_now()` and looks again, at most [`YIELDS_BEFORE_PARK`] times:
//! with more rank threads than cores that hands the core to a runnable
//! sender, which then finds `waiters == 0` and skips gate and futex. The
//! phase is bounded by a constant and falls through to the same park: no
//! sleep, no timer, no second wake path.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use bytes::Bytes;

use crate::cluster::ClusterSpec;
use crate::envelope::Envelope;
use crate::error::{SimError, SimResult};
use crate::rank::RankCtx;
use crate::telemetry::{Counter, Telemetry};

/// Default number of lock stripes per destination mailbox. Eight stripes
/// keep the per-mailbox footprint trivial while making an all-to-one
/// incast from hundreds of senders contend on eight locks instead of one.
pub const DEFAULT_STRIPES: usize = 8;

/// `yield_now()` + re-check rounds an empty-handed receiver makes before
/// it parks. Swept on 2 cores (48 rank threads), `benches/e2e` `msgs_per_s`
/// in k/s, median of 3 runs of 22 s, K = 0 / 4 / 8 / 16 / 32: `osu_coll`
/// 496 / 675 / 655 / 634 / 695, `wave_story` 316 / 424 / 456 / 462 / 498
/// (run-to-run spread ≈ ±8 %). 8 is the smallest within noise of the best.
const YIELDS_BEFORE_PARK: u32 = 8;

/// A queued envelope tagged with its destination-wide arrival stamp.
pub(crate) type Stamped = (u64, Envelope);

/// A held stripe lock during the take-next front scan.
type StripeGuard<'a> = std::sync::MutexGuard<'a, VecDeque<Stamped>>;

/// What a parked receiver waits for: the filter senders read under the
/// gate. `None` is a wildcard, so the default admits anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Want {
    pub(crate) ctx_id: Option<u64>,
    pub(crate) src: Option<usize>,
    pub(crate) tag: Option<i32>,
}

impl Want {
    /// Whether an envelope with this header is one the receiver waits for.
    pub(crate) fn admits(&self, ctx_id: u64, src: usize, tag: i32) -> bool {
        self.ctx_id.is_none_or(|c| c == ctx_id)
            && self.src.is_none_or(|s| s == src)
            && self.tag.is_none_or(|t| t == tag)
    }
}

/// One lock stripe of a mailbox: envelopes from sources mapping to this
/// stripe, each tagged with its destination-wide arrival stamp.
#[derive(Default)]
struct Stripe {
    queue: Mutex<VecDeque<Stamped>>,
}

/// One rank's inbox: striped arrival queues, the merge stamp, and the
/// condvar blocked receivers sleep on.
struct Mailbox {
    /// Next arrival stamp for this destination; the stripe merge key.
    arrivals: AtomicU64,
    /// Envelopes currently queued across all stripes.
    queued: AtomicUsize,
    /// Receivers currently registered on the condvar. Senders skip the
    /// gate lock + notify when this is zero.
    waiters: AtomicUsize,
    stripes: Vec<Stripe>,
    /// Guard mutex for the sleep; holds what the parked receiver wants.
    gate: Mutex<Want>,
    arrived: Condvar,
}

impl Mailbox {
    fn new(nstripes: usize) -> Mailbox {
        Mailbox {
            arrivals: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            waiters: AtomicUsize::new(0),
            stripes: (0..nstripes.max(1)).map(|_| Stripe::default()).collect(),
            gate: Mutex::new(Want::default()),
            arrived: Condvar::new(),
        }
    }

    /// Enqueue one envelope from `src`; only the stripe lock is taken on
    /// the fast path. If a receiver is registered, returns whether its want
    /// admitted the envelope — notified — or it was left asleep.
    fn push(&self, src: usize, env: Envelope) -> Option<bool> {
        let (ctx_id, tag) = (env.ctx_id, env.tag);
        let stamp = self.arrivals.fetch_add(1, Ordering::SeqCst);
        let stripe = &self.stripes[src % self.stripes.len()];
        {
            let mut queue = stripe.queue.lock().expect("stripe lock poisoned");
            queue.push_back((stamp, env));
            // Incremented while the stripe lock is held: a receiver that
            // pops or drains this envelope first had to acquire the same
            // lock, so its matching decrement can never run before this
            // increment (`queued` counts down but never underflows).
            self.queued.fetch_add(1, Ordering::SeqCst);
        }
        // The receiver registers in `waiters` *before* its final emptiness
        // check (both SeqCst): if we read zero here, the receiver's check
        // is ordered after our `queued` increment and it will not sleep.
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let gate = self.gate.lock().expect("mailbox gate poisoned");
        if !gate.admits(ctx_id, src, tag) {
            return Some(false);
        }
        // Released first, so the woken receiver does not run into it.
        drop(gate);
        self.arrived.notify_one();
        Some(true)
    }

    /// Pop the queued envelope with the smallest arrival stamp, if any.
    /// Only the owning endpoint pops, so a peeked front cannot be stolen.
    fn take_next(&self) -> Option<Envelope> {
        // Empty-mailbox fast path: one atomic load instead of a scan over
        // every stripe lock (this is what recv_raw's wakeup retries and
        // poll-shaped progress loops hit most of the time).
        if self.queued.load(Ordering::SeqCst) == 0 {
            return None;
        }
        // Scan stripe fronts keeping the current winner's guard, so the
        // winning stripe is not re-locked to pop. At most two stripe locks
        // are held at once and only by the single receiver — senders take
        // exactly one — so no lock cycle can form.
        let mut best: Option<(u64, StripeGuard<'_>)> = None;
        for stripe in &self.stripes {
            let guard = stripe.queue.lock().expect("stripe lock poisoned");
            let stamp = match guard.front() {
                Some((stamp, _)) => *stamp,
                None => continue,
            };
            if best.as_ref().is_none_or(|(s, _)| stamp < *s) {
                best = Some((stamp, guard));
            }
        }
        let (_, mut queue) = best?;
        let (_, env) = queue
            .pop_front()
            .expect("front cannot vanish under the single receiver");
        self.queued.fetch_sub(1, Ordering::SeqCst);
        Some(env)
    }

    /// Drain every stripe onto the end of `into`, merged in arrival-stamp
    /// order. An empty mailbox costs one atomic load, no stripe lock.
    fn drain_into(&self, into: &mut Vec<Stamped>) -> usize {
        if self.queued.load(Ordering::SeqCst) == 0 {
            return 0;
        }
        let start = into.len();
        for stripe in &self.stripes {
            let mut queue = stripe.queue.lock().expect("stripe lock poisoned");
            // Decremented under the stripe lock, like the push increment,
            // so the counter cannot transiently underflow.
            self.queued.fetch_sub(queue.len(), Ordering::SeqCst);
            into.extend(queue.drain(..));
        }
        into[start..].sort_unstable_by_key(|(stamp, _)| *stamp);
        into.len() - start
    }

    /// Wake every receiver blocked on this mailbox, whatever it wants
    /// (shutdown). Passing through the gate first puts the notify either
    /// before a parking receiver's check of the flag (it sees the new
    /// state) or after its wait released the gate (it is woken).
    fn wake_all(&self) {
        drop(self.gate.lock().expect("mailbox gate poisoned"));
        self.arrived.notify_all();
    }
}

/// Counters an endpoint keeps in cells of its own and folds into the
/// registry when it parks and when it drops, so 48 rank threads do not
/// bounce a cache line per message. Exact once the rank threads are joined.
const FOLDED: [&str; 6] = [
    "fabric.sends",
    "fabric.wake_skips",
    "fabric.yield_hits",
    "fabric.parks",
    "match.hits",
    "fabric.payload_allocs",
];
const SENDS: usize = 0;
const WAKE_SKIPS: usize = 1;
const YIELD_HITS: usize = 2;
const PARKS: usize = 3;
pub(crate) const MATCH_HITS: usize = 4;
/// Payload sends the rank's buffer pool could not serve (`simnet::mpi`).
pub(crate) const PAYLOAD_ALLOCS: usize = 5;

/// The fabric's attached flight recorder plus cached counter handles, so
/// no hot path pays a registry lookup.
pub(crate) struct FabricTelemetry {
    pub(crate) tel: Arc<Telemetry>,
    folded: [Counter; 6],
    /// Notifies issued for an envelope the parked receiver waits for.
    wakeups: Counter,
    broadcast_wakeups: Counter,
    /// Wildcard receives that had to scan candidate bucket fronts.
    pub(crate) wildcard_scans: Counter,
    /// Total candidate buckets compared across all wildcard scans.
    pub(crate) wildcard_scanned: Counter,
}

struct Shared {
    nranks: usize,
    shutdown: AtomicBool,
    mailboxes: Vec<Mailbox>,
    /// Attached at most once, before ranks start; absent on bare fabrics.
    telemetry: OnceLock<FabricTelemetry>,
}

/// Handle to the whole fabric: constructs endpoints, forces shutdown.
#[derive(Clone)]
pub struct Fabric {
    shared: Arc<Shared>,
}

impl Fabric {
    /// Build a fabric for `spec` with the default stripe count and hand
    /// out one endpoint per rank.
    pub fn new(spec: &ClusterSpec) -> (Fabric, Vec<Endpoint>) {
        Fabric::with_stripes(spec, DEFAULT_STRIPES)
    }

    /// Like [`Fabric::new`] with an explicit number of mailbox lock
    /// stripes per destination (clamped to at least one). One stripe
    /// reproduces the pre-striping single-lock mailbox exactly.
    pub fn with_stripes(spec: &ClusterSpec, nstripes: usize) -> (Fabric, Vec<Endpoint>) {
        let nranks = spec.nranks();
        let nstripes = nstripes.clamp(1, nranks.max(1));
        let shared = Arc::new(Shared {
            nranks,
            shutdown: AtomicBool::new(false),
            mailboxes: (0..nranks).map(|_| Mailbox::new(nstripes)).collect(),
            telemetry: OnceLock::new(),
        });
        let fabric = Fabric { shared };
        let endpoints = (0..nranks)
            .map(|rank| Endpoint {
                rank,
                fabric: fabric.clone(),
                next_seq: Cell::new(0),
                counts: Default::default(),
            })
            .collect();
        (fabric, endpoints)
    }

    /// Number of ranks on the fabric.
    pub fn nranks(&self) -> usize {
        self.shared.nranks
    }

    /// Number of lock stripes per destination mailbox.
    pub fn stripes(&self) -> usize {
        self.shared
            .mailboxes
            .first()
            .map_or(1, |mb| mb.stripes.len())
    }

    /// Attach a flight recorder to the fabric. First attachment wins;
    /// later calls are no-ops. Send/wakeup counters and message-match
    /// events flow into it from every endpoint.
    pub fn attach_telemetry(&self, tel: Arc<Telemetry>) {
        let _ = self.shared.telemetry.set(FabricTelemetry {
            folded: FOLDED.map(|name| tel.metrics().counter(name)),
            wakeups: tel.metrics().counter("fabric.wakeups"),
            broadcast_wakeups: tel.metrics().counter("fabric.broadcast_wakeups"),
            wildcard_scans: tel.metrics().counter("match.wildcard_scans"),
            wildcard_scanned: tel.metrics().counter("match.wildcard_scanned_buckets"),
            tel,
        });
    }

    /// The attached flight recorder, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.shared.telemetry.get().map(|ft| &ft.tel)
    }

    /// Cached counter handles for same-crate hot paths (matching).
    pub(crate) fn tel_handles(&self) -> Option<&FabricTelemetry> {
        self.shared.telemetry.get()
    }

    /// Tear the fabric down: every blocked receive returns
    /// [`SimError::Disconnected`] immediately. Used when a rank errors or
    /// panics so the remaining ranks unwind instead of deadlocking.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(ft) = self.shared.telemetry.get() {
            ft.broadcast_wakeups.incr();
        }
        for mb in &self.shared.mailboxes {
            mb.wake_all();
        }
    }
}

/// A rank's attachment point to the fabric.
pub struct Endpoint {
    rank: usize,
    fabric: Fabric,
    next_seq: Cell<u64>,
    /// [`FOLDED`] counts not yet folded into the shared counters.
    counts: [Cell<u64>; 6],
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.fold_counts();
    }
}

impl Endpoint {
    /// This endpoint's rank id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The fabric this endpoint belongs to.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Move this endpoint's local counts into the shared counters.
    fn fold_counts(&self) {
        if let Some(ft) = self.fabric.shared.telemetry.get() {
            for (local, shared) in self.counts.iter().zip(&ft.folded) {
                shared.add(local.take());
            }
        }
    }

    /// Count one [`FOLDED`] event on this endpoint.
    pub(crate) fn count(&self, which: usize) {
        self.counts[which].set(self.counts[which].get() + 1);
    }

    /// Whether a blocked receiver must stop waiting: the fabric is shut
    /// down. Message delivery takes precedence: callers check the queue
    /// first.
    fn is_shut_down(&self) -> bool {
        self.fabric.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Send a raw envelope. The sender's clock first advances by the
    /// message's **serialization time** (LogGP's per-byte gap: a NIC or
    /// shared-memory copy engine pushes bytes out one at a time, so
    /// back-to-back sends serialize on the sender — this is what makes a
    /// 48-peer posted all-to-all pay for its volume). The message then
    /// departs at the sender's clock and the *receiver* accounts the wire
    /// latency on arrival (see [`RankCtx::arrival_time`]). The caller (a
    /// vendor MPI library) is responsible for charging its own
    /// per-message CPU overhead before calling this.
    pub fn send_raw(
        &self,
        dst: usize,
        ctx_id: u64,
        tag: i32,
        payload: Bytes,
        ctx: &RankCtx,
    ) -> SimResult<()> {
        let shared = &self.fabric.shared;
        if dst >= shared.nranks {
            return Err(SimError::NoSuchRank {
                rank: dst,
                nranks: shared.nranks,
            });
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(SimError::Disconnected);
        }
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        let wire_bytes = payload.len() + ctx.spec().header_bytes;
        let link = ctx.spec().link_between(self.rank, dst);
        ctx.advance(link.serialize_time(wire_bytes));
        let env = Envelope {
            src: self.rank,
            dst,
            ctx_id,
            tag,
            payload,
            depart: ctx.now(),
            wire_bytes,
            seq,
        };
        ctx.count_send(env.len());
        self.count(SENDS);
        match shared.mailboxes[dst].push(self.rank, env) {
            None => {}
            Some(false) => self.count(WAKE_SKIPS),
            Some(true) => {
                if let Some(ft) = shared.telemetry.get() {
                    ft.wakeups.incr();
                }
            }
        }
        Ok(())
    }

    /// Batch-drain every envelope currently queued into `into`, acquiring
    /// each stripe lock exactly once and merging the stripes in arrival
    /// order. Returns how many were appended.
    ///
    /// This is the progress engines' fast path: one lock round-trip per
    /// stripe per progress call instead of one per message.
    pub fn drain_raw_into(&self, into: &mut Vec<Envelope>) -> SimResult<usize> {
        let mailbox = &self.fabric.shared.mailboxes[self.rank];
        let mut stamped = Vec::with_capacity(mailbox.queued.load(Ordering::SeqCst));
        let n = mailbox.drain_into(&mut stamped);
        into.extend(stamped.into_iter().map(|(_, env)| env));
        Ok(n)
    }

    /// [`Endpoint::drain_raw_into`] with the arrival stamps left on, so a
    /// caller that pumps per receive can reuse one buffer.
    pub(crate) fn drain_stamped_into(&self, into: &mut Vec<Stamped>) -> usize {
        self.fabric.shared.mailboxes[self.rank].drain_into(into)
    }

    /// Blocking pull of the next raw envelope (no time accounting).
    ///
    /// Parks on the mailbox condvar after a bounded yield phase — no
    /// polling. Unblocks with [`SimError::Disconnected`] if the fabric
    /// shuts down; queued messages are always delivered before that error.
    pub fn recv_raw(&self) -> SimResult<Envelope> {
        self.recv_raw_wanting(Want::default())
    }

    /// The blocking receive loop. Returns the next envelope in arrival
    /// order, whatever it is: `want` only says which arrivals are worth
    /// waking this receiver for once it is parked; anything else waits in
    /// its stripe for the next time the receiver is awake.
    pub(crate) fn recv_raw_wanting(&self, want: Want) -> SimResult<Envelope> {
        let mailbox = &self.fabric.shared.mailboxes[self.rank];
        loop {
            if let Some(env) = mailbox.take_next() {
                return Ok(env);
            }
            // Nothing queued: offer the core to a runnable sender a few
            // times before paying for a park.
            for _ in 0..YIELDS_BEFORE_PARK {
                std::thread::yield_now();
                if let Some(env) = mailbox.take_next() {
                    self.count(YIELD_HITS);
                    return Ok(env);
                }
            }
            // Still nothing: publish the want and register on the condvar,
            // then re-check the queues and the shutdown flag *after*
            // registering, so a concurrent push or shutdown cannot be
            // missed (module docs; shutdown always notifies via the gate).
            let mut gate = mailbox.gate.lock().expect("mailbox gate poisoned");
            *gate = want;
            mailbox.waiters.fetch_add(1, Ordering::SeqCst);
            let wake_now = mailbox.queued.load(Ordering::SeqCst) > 0 || self.is_shut_down();
            if !wake_now {
                self.count(PARKS);
                self.fold_counts();
                drop(
                    mailbox
                        .arrived
                        .wait(gate)
                        .expect("mailbox gate poisoned in wait"),
                );
            }
            mailbox.waiters.fetch_sub(1, Ordering::SeqCst);
            if let Some(env) = mailbox.take_next() {
                return Ok(env);
            }
            if self.is_shut_down() {
                return Err(SimError::Disconnected);
            }
            // Spurious wakeup or a racing pop: go around again.
        }
    }
}

/// Blocking receive **with** arrival-time accounting, for the crate's
/// tests: advances the rank's clock to `max(now, arrival)`. Vendor
/// libraries use [`Endpoint::recv_raw`] plus their own matching.
#[cfg(test)]
pub(crate) fn recv_raw_blocking(ctx: &RankCtx) -> SimResult<Envelope> {
    let env = ctx.endpoint().recv_raw()?;
    ctx.advance_to(ctx.arrival_time(&env));
    ctx.count_recv(env.len());
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::noise::NoiseModel;
    use crate::rank::RankCtx;
    use crate::telemetry::Telemetry;
    use std::sync::Arc as StdArc;
    use std::time::Duration;

    fn two_rank_setup() -> (Fabric, Vec<Endpoint>, StdArc<ClusterSpec>) {
        let spec = StdArc::new(ClusterSpec::builder().nodes(1).ranks_per_node(2).build());
        let (fabric, eps) = Fabric::new(&spec);
        (fabric, eps, spec)
    }

    fn ctx_for(rank: usize, spec: &StdArc<ClusterSpec>, ep: Endpoint) -> RankCtx {
        RankCtx::new(
            rank,
            spec.clone(),
            ep,
            NoiseModel::disabled().stream_for_rank(rank),
        )
    }

    #[test]
    fn send_and_receive_round_trip() {
        let (_fabric, mut eps, spec) = two_rank_setup();
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let ctx0 = ctx_for(0, &spec, ep0);
        let ctx1 = ctx_for(1, &spec, ep1);
        ctx0.endpoint()
            .send_raw(1, 42, 7, Bytes::from_static(b"hello"), &ctx0)
            .unwrap();
        let env = recv_raw_blocking(&ctx1).unwrap();
        assert_eq!(env.src, 0);
        assert_eq!(env.ctx_id, 42);
        assert_eq!(env.tag, 7);
        assert_eq!(&env.payload[..], b"hello");
        // Receiver clock advanced by at least the link alpha.
        assert!(ctx1.now() >= spec.link_between(0, 1).alpha);
    }

    #[test]
    fn fifo_per_pair() {
        let (_fabric, mut eps, spec) = two_rank_setup();
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let ctx0 = ctx_for(0, &spec, ep0);
        let ctx1 = ctx_for(1, &spec, ep1);
        for i in 0..16u8 {
            ctx0.endpoint()
                .send_raw(1, 0, 0, Bytes::from(vec![i]), &ctx0)
                .unwrap();
        }
        for i in 0..16u8 {
            let env = recv_raw_blocking(&ctx1).unwrap();
            assert_eq!(env.payload[0], i);
            assert_eq!(env.seq, i as u64);
        }
    }

    #[test]
    fn cross_stripe_sends_merge_in_send_order() {
        // Senders 0..4 land on different stripes of rank 5's mailbox; a
        // single-threaded interleaved schedule must still be observed in
        // exact global send order (the arrival-stamp merge).
        let spec = StdArc::new(ClusterSpec::builder().nodes(1).ranks_per_node(6).build());
        let (fabric, eps) = Fabric::with_stripes(&spec, 4);
        assert_eq!(fabric.stripes(), 4);
        let mut ctxs: Vec<RankCtx> = eps
            .into_iter()
            .enumerate()
            .map(|(r, ep)| ctx_for(r, &spec, ep))
            .collect();
        let receiver = ctxs.pop().unwrap();
        let schedule: Vec<usize> = vec![0, 3, 1, 4, 2, 0, 4, 1, 3, 2, 2, 0];
        for (i, &src) in schedule.iter().enumerate() {
            ctxs[src]
                .endpoint()
                .send_raw(5, 0, 0, Bytes::from(vec![i as u8]), &ctxs[src])
                .unwrap();
        }
        // recv path: stamp-merged one at a time.
        for i in 0..6u8 {
            let env = receiver.endpoint().recv_raw().unwrap();
            assert_eq!(env.payload[0], i, "recv order broke at {i}");
            assert_eq!(env.src, schedule[i as usize]);
        }
        // drain path: the rest arrives merged in one batch.
        let mut rest = Vec::new();
        assert_eq!(receiver.endpoint().drain_raw_into(&mut rest).unwrap(), 6);
        for (k, env) in rest.iter().enumerate() {
            assert_eq!(env.payload[0] as usize, 6 + k, "drain order broke");
        }
    }

    #[test]
    fn single_stripe_fabric_still_works() {
        let spec = StdArc::new(ClusterSpec::builder().nodes(1).ranks_per_node(2).build());
        let (fabric, mut eps) = Fabric::with_stripes(&spec, 1);
        assert_eq!(fabric.stripes(), 1);
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let ctx0 = ctx_for(0, &spec, ep0);
        let ctx1 = ctx_for(1, &spec, ep1);
        for i in 0..4u8 {
            ctx0.endpoint()
                .send_raw(1, 0, 0, Bytes::from(vec![i]), &ctx0)
                .unwrap();
        }
        for i in 0..4u8 {
            assert_eq!(ctx1.endpoint().recv_raw().unwrap().payload[0], i);
        }
    }

    #[test]
    fn concurrent_incast_preserves_per_pair_fifo() {
        // Many sender threads hammer one destination across stripes; the
        // receiver must see every message, each source in send order.
        let nsenders = 8usize;
        let per_sender = 100u64;
        let spec = StdArc::new(
            ClusterSpec::builder()
                .nodes(1)
                .ranks_per_node(nsenders + 1)
                .build(),
        );
        let (_fabric, eps) = Fabric::with_stripes(&spec, 4);
        let mut ctxs: Vec<RankCtx> = eps
            .into_iter()
            .enumerate()
            .map(|(r, ep)| ctx_for(r, &spec, ep))
            .collect();
        let receiver = ctxs.pop().unwrap();
        std::thread::scope(|s| {
            for ctx in ctxs {
                s.spawn(move || {
                    for i in 0..per_sender {
                        ctx.endpoint()
                            .send_raw(nsenders, 0, 0, Bytes::from(i.to_le_bytes().to_vec()), &ctx)
                            .unwrap();
                    }
                });
            }
            let mut last: Vec<Option<u64>> = vec![None; nsenders];
            for _ in 0..(nsenders as u64 * per_sender) {
                let env = receiver.endpoint().recv_raw().unwrap();
                let i = u64::from_le_bytes(env.payload[..8].try_into().unwrap());
                if let Some(prev) = last[env.src] {
                    assert!(i > prev, "src {} overtook: {} after {}", env.src, i, prev);
                }
                last[env.src] = Some(i);
            }
            for (src, seen) in last.iter().enumerate() {
                assert_eq!(*seen, Some(per_sender - 1), "src {src} incomplete");
            }
        });
    }

    #[test]
    fn send_to_out_of_range_rank_errors() {
        let (_fabric, mut eps, spec) = two_rank_setup();
        let _ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let ctx0 = ctx_for(0, &spec, ep0);
        let err = ctx0
            .endpoint()
            .send_raw(9, 0, 0, Bytes::new(), &ctx0)
            .unwrap_err();
        assert_eq!(err, SimError::NoSuchRank { rank: 9, nranks: 2 });
    }

    #[test]
    fn blocked_recv_unblocks_on_shutdown() {
        let (fabric, mut eps, spec) = two_rank_setup();
        let ep1 = eps.pop().unwrap();
        let _ep0 = eps.pop().unwrap();
        let ctx1 = ctx_for(1, &spec, ep1);
        let handle = std::thread::spawn({
            let fabric = fabric.clone();
            move || {
                std::thread::sleep(Duration::from_millis(5));
                fabric.shutdown();
            }
        });
        let err = ctx1.endpoint().recv_raw().unwrap_err();
        assert_eq!(err, SimError::Disconnected);
        handle.join().unwrap();
    }

    /// An 8-rank fabric with a recorder attached and rank 0 asleep in
    /// `recv_raw_wanting(want)` on a thread of its own. `then` runs on that
    /// thread with what the receive returned.
    struct Parked<R> {
        fabric: Fabric,
        tel: StdArc<Telemetry>,
        /// Ranks 1..8, index = rank - 1, driven from the test thread.
        senders: Vec<RankCtx>,
        receiver: std::thread::JoinHandle<R>,
    }

    impl<R> Parked<R> {
        fn count(&self, name: &str) -> u64 {
            self.tel.metrics().counter(name).get()
        }

        fn send(&self, src: usize, ctx_id: u64, tag: i32, data: &[u8]) {
            let ctx = &self.senders[src - 1];
            ctx.endpoint()
                .send_raw(0, ctx_id, tag, Bytes::copy_from_slice(data), ctx)
                .unwrap();
        }
    }

    fn park_rank0<R: Send + 'static>(
        want: Want,
        then: impl FnOnce(&RankCtx, SimResult<Envelope>) -> R + Send + 'static,
    ) -> Parked<R> {
        let spec = StdArc::new(ClusterSpec::builder().nodes(1).ranks_per_node(8).build());
        let (fabric, eps) = Fabric::new(&spec);
        let tel = StdArc::new(Telemetry::new(8));
        fabric.attach_telemetry(tel.clone());
        let mut ctxs = eps
            .into_iter()
            .enumerate()
            .map(|(r, ep)| ctx_for(r, &spec, ep));
        let ctx0 = ctxs.next().unwrap();
        let receiver = std::thread::spawn(move || {
            let first = ctx0.endpoint().recv_raw_wanting(want);
            then(&ctx0, first)
        });
        let parked = Parked {
            fabric,
            tel,
            senders: ctxs.collect(),
            receiver,
        };
        // Wait for the state, not for a while: `fabric.parks` is bumped
        // under the gate on the way into the condvar wait, and a sender
        // takes that gate before it decides whether to notify.
        while parked.count("fabric.parks") == 0 {
            std::thread::yield_now();
        }
        parked
    }

    const NARROW: Want = Want {
        ctx_id: Some(3),
        src: Some(5),
        tag: Some(7),
    };

    #[test]
    fn parked_receiver_is_woken_only_by_the_envelope_it_wants() {
        let mut parked = park_rank0(NARROW, |ctx, first| {
            let mut all = vec![first.unwrap()];
            ctx.endpoint().drain_raw_into(&mut all).unwrap();
            all
        });
        // 40 envelopes that each miss the want in the context, the source
        // or the tag (source 5 included, under the wrong tag or context).
        for i in 0..40u8 {
            let src = 1 + i as usize % 7;
            let (ctx_id, tag) = match i % 3 {
                0 => (4, 7),
                1 => (3, 8),
                _ if src == 5 => (3, 9),
                _ => (3, 7),
            };
            parked.send(src, ctx_id, tag, &[i]);
        }
        assert_eq!(parked.count("fabric.wakeups"), 0, "nobody wanted those");
        assert_eq!(parked.count("fabric.parks"), 1, "and nobody woke up");
        parked.send(5, 3, 7, &[40]);
        assert_eq!(parked.count("fabric.wakeups"), 1, "the wanted one notifies");
        // Woken once, the receiver finds all 41 in arrival order: the
        // oldest from the receive, the rest in the one drain after it.
        // Skips are counted on the senders' endpoints and folded in when
        // those drop.
        parked.senders.clear();
        assert_eq!(parked.count("fabric.wake_skips"), 40);
        assert_eq!(parked.count("fabric.sends"), 41);
        assert_eq!(parked.count("fabric.wakeups"), 1);
        assert_eq!(parked.count("fabric.parks"), 1);
        let all = parked.receiver.join().unwrap();
        let order: Vec<u8> = all.iter().map(|env| env.payload[0]).collect();
        assert_eq!(order, (0..=40).collect::<Vec<u8>>());
    }

    #[test]
    fn wildcard_wants_admit_what_their_pattern_matches() {
        let any_src = Want {
            src: None,
            ..NARROW
        };
        let any_tag = Want {
            tag: None,
            ..NARROW
        };
        // (want, envelopes it must sleep through, the one that wakes it),
        // each envelope as (src, ctx, tag).
        type Header = (usize, u64, i32);
        let cases: [(Want, &[Header], Header); 3] = [
            (any_src, &[(5, 4, 7), (5, 3, 8), (2, 3, 6)], (2, 3, 7)),
            (any_tag, &[(4, 3, 7), (5, 4, 7), (6, 3, 99)], (5, 3, 99)),
            (Want::default(), &[], (6, 9, -4)),
        ];
        for (want, unwanted, wanted) in cases {
            let parked = park_rank0(want, |_, first| first.unwrap());
            for &(src, ctx_id, tag) in unwanted {
                parked.send(src, ctx_id, tag, b"no");
            }
            assert_eq!(parked.count("fabric.wakeups"), 0, "{want:?}");
            let (src, ctx_id, tag) = wanted;
            parked.send(src, ctx_id, tag, b"yes");
            assert_eq!(parked.count("fabric.wakeups"), 1, "{want:?}");
            // Arrival order still rules what the receive returns.
            let first = parked.receiver.join().unwrap();
            let (src, ctx_id, tag) = unwanted.first().copied().unwrap_or(wanted);
            assert_eq!((first.src, first.ctx_id, first.tag), (src, ctx_id, tag));
        }
    }

    #[test]
    fn narrow_want_still_unblocks_on_shutdown() {
        let parked = park_rank0(NARROW, |ctx, first| {
            (first, ctx.endpoint().recv_raw_wanting(NARROW))
        });
        // Not wanted, so it only sits in its stripe — and must still come
        // out before the error does.
        parked.send(2, 3, 7, b"queued");
        assert_eq!(parked.count("fabric.wakeups"), 0);
        parked.fabric.shutdown();
        assert_eq!(parked.count("fabric.broadcast_wakeups"), 1);
        let (first, second) = parked.receiver.join().unwrap();
        assert_eq!(&first.unwrap().payload[..], b"queued");
        assert_eq!(second.unwrap_err(), SimError::Disconnected);
    }

    #[test]
    fn queued_messages_delivered_before_shutdown_error() {
        let (fabric, mut eps, spec) = two_rank_setup();
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let ctx0 = ctx_for(0, &spec, ep0);
        let ctx1 = ctx_for(1, &spec, ep1);
        ctx0.endpoint()
            .send_raw(1, 0, 0, Bytes::from_static(b"last"), &ctx0)
            .unwrap();
        fabric.shutdown();
        // The queued message still comes out; only then does the receiver
        // observe the shutdown.
        let env = ctx1.endpoint().recv_raw().unwrap();
        assert_eq!(&env.payload[..], b"last");
        assert_eq!(
            ctx1.endpoint().recv_raw().unwrap_err(),
            SimError::Disconnected
        );
    }

    #[test]
    fn drain_collects_everything_in_order() {
        let (_fabric, mut eps, spec) = two_rank_setup();
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let ctx0 = ctx_for(0, &spec, ep0);
        let ctx1 = ctx_for(1, &spec, ep1);
        for i in 0..10u8 {
            ctx0.endpoint()
                .send_raw(1, 0, i as i32, Bytes::from(vec![i]), &ctx0)
                .unwrap();
        }
        let mut buf = Vec::new();
        let n = ctx1.endpoint().drain_raw_into(&mut buf).unwrap();
        assert_eq!(n, 10);
        assert_eq!(buf.len(), 10);
        for (i, env) in buf.iter().enumerate() {
            assert_eq!(env.payload[0] as usize, i);
        }
        // Queue is now empty.
        assert_eq!(ctx1.endpoint().drain_raw_into(&mut buf).unwrap(), 0);
    }

    #[test]
    fn small_payloads_ride_inline() {
        // The ≤64 B fast path: the payload handed to the receiver is the
        // inline representation — no heap allocation was retained.
        let (_fabric, mut eps, spec) = two_rank_setup();
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let ctx0 = ctx_for(0, &spec, ep0);
        let ctx1 = ctx_for(1, &spec, ep1);
        ctx0.endpoint()
            .send_raw(1, 0, 0, Bytes::copy_from_slice(&[9u8; 64]), &ctx0)
            .unwrap();
        let env = recv_raw_blocking(&ctx1).unwrap();
        assert!(env.payload.is_inline());
        assert_eq!(env.payload.len(), 64);
    }
}
