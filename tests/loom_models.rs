//! Loom models of the workspace's hand-rolled concurrency protocols:
//! the telemetry seqlock (`simnet::telemetry::Telemetry::emit` vs. the
//! reader's double-checked collect), the lane multiplexer's dispatch
//! (`dmtcp::lanes::Dispatch`, under the store's committer and the
//! tier's shipper) and the fabric's targeted-wake handshake
//! (`simnet::fabric`: `Mailbox::push` vs. `Endpoint::recv_raw_wanting`).
//!
//! The mux models drive the production `Dispatch` itself, inside a
//! model-checked mutex: it holds no lock of its own. The seqlock and
//! wake models *mirror* their protocols (the production types bundle
//! I/O and rings the model checker has no business exploring); each
//! names the code it shadows, and `docs/static-analysis.md` records the
//! pairing so protocol changes update both sides. Exploration is
//! exhaustive at the default bounds — see `shims/loom` for exactly what
//! that claims.

use std::sync::Arc;

use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use loom::sync::Mutex;
use loom::thread;
use mpi_stool::dmtcp::lanes::Dispatch;

/// Mirror of one telemetry ring slot mid-emit (telemetry.rs `emit`):
/// the writer stores `seq = 2·ticket+1`, the payload fields, then
/// publishes `seq = 2·ticket+2`. A reader (`Lane::collect`) reads the
/// seq, the payload, then the seq again, and surfaces the payload only
/// if both reads saw the same published value. The property: no
/// interleaving lets a reader surface a torn (half-written) slot.
#[test]
fn seqlock_reader_never_surfaces_a_torn_slot() {
    loom::model(|| {
        let seq = Arc::new(AtomicU64::new(0));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));

        let writer = {
            let (seq, a, b) = (seq.clone(), a.clone(), b.clone());
            thread::spawn(move || {
                // Ticket 0: 2·0+1 mid-write, 2·0+2 published.
                seq.store(1, SeqCst);
                a.store(7, SeqCst);
                b.store(9, SeqCst);
                seq.store(2, SeqCst);
            })
        };

        // Concurrent reader, double-check protocol of `Lane::collect`.
        let s1 = seq.load(SeqCst);
        if s1 == 2 {
            let ra = a.load(SeqCst);
            let rb = b.load(SeqCst);
            let s2 = seq.load(SeqCst);
            if s2 == s1 {
                // Both checks passed: the payload must be complete.
                assert_eq!((ra, rb), (7, 9), "published slot read torn");
            }
        }
        // Odd (mid-write) or zero (empty) seq: the reader skips the
        // slot — there is no payload assertion to get wrong.

        writer.join().unwrap();
        // Once the writer retires, the slot is published and intact.
        assert_eq!(seq.load(SeqCst), 2);
        assert_eq!((a.load(SeqCst), b.load(SeqCst)), (7, 9));
    });
}

/// Mirror of two concurrent emitters on one lane: each takes a unique
/// ticket from the lane head (`head.fetch_add`) and publishes its own
/// slot. The property: tickets never collide, so no write is lost —
/// both slots end up published with their writer's payload.
#[test]
fn concurrent_emitters_never_lose_a_write() {
    loom::model(|| {
        let head = Arc::new(AtomicU64::new(0));
        let seqs: Vec<Arc<AtomicU64>> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let vals: Vec<Arc<AtomicU64>> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();

        let handles: Vec<_> = (0..2u64)
            .map(|w| {
                let head = head.clone();
                let seqs = seqs.clone();
                let vals = vals.clone();
                thread::spawn(move || {
                    let ticket = head.fetch_add(1, SeqCst);
                    let slot = ticket as usize;
                    seqs[slot].store(2 * ticket + 1, SeqCst);
                    vals[slot].store(100 + w, SeqCst);
                    seqs[slot].store(2 * ticket + 2, SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        assert_eq!(head.load(SeqCst), 2, "each emitter took one ticket");
        let published: Vec<u64> = (0..2)
            .map(|s| {
                assert_eq!(seqs[s].load(SeqCst), 2 * s as u64 + 2, "slot {s} published");
                vals[s].load(SeqCst)
            })
            .collect();
        let mut sorted = published.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![100, 101], "no write lost, none duplicated");
    });
}

/// `lanes::Dispatch` with `backlog[i]` jobs queued on lane `i`.
fn backlogged(backlog: &[usize]) -> Dispatch<(), ()> {
    let mut dispatch = Dispatch::with_lanes(backlog.len());
    for (lane, &jobs) in backlog.iter().enumerate() {
        for _ in 0..jobs {
            dispatch.push(lane, ());
        }
    }
    dispatch
}

/// With two backlogged lanes, the cursor alternates strictly — a
/// tenant refilling lane 0 mid-drain (any interleaving) cannot starve
/// lane 1.
#[test]
fn mux_cursor_alternates_under_a_backlogged_lane() {
    loom::model(|| {
        let st = Arc::new(Mutex::new(backlogged(&[2, 2])));
        let pusher = {
            let st = st.clone();
            thread::spawn(move || {
                // Lane 0's tenant keeps feeding it mid-drain.
                st.lock().unwrap().push(0, ());
            })
        };

        let mut popped = Vec::new();
        for _ in 0..4 {
            let next = st.lock().unwrap().pop();
            if let Some((idx, ())) = next {
                popped.push(idx);
                st.lock().unwrap().done(idx, Ok(()));
            }
        }
        pusher.join().unwrap();

        assert_eq!(
            popped,
            vec![0, 1, 0, 1],
            "strict alternation regardless of when the push lands"
        );
    });
}

/// A lane whose error latches concurrently (a failed job of it
/// finishing) is never served after the latch, and every other lane
/// drains exactly its backlog, in every interleaving of the latch.
#[test]
fn mux_never_serves_a_lane_after_its_error_latches() {
    loom::model(|| {
        // The dispatch state, and whether lane 0's error has latched.
        let st = Arc::new(Mutex::new((backlogged(&[2, 2, 2]), false)));
        let latcher = {
            let st = st.clone();
            thread::spawn(move || {
                let mut g = st.lock().unwrap();
                g.0.done(0, Err(()));
                g.1 = true;
            })
        };

        // The drain thread: finish the previous job and pop the next one
        // in one critical section, until nothing is dispatchable.
        let mut served = [0usize; 3];
        let mut running = None;
        loop {
            let (next, latched) = {
                let mut g = st.lock().unwrap();
                if let Some(idx) = running {
                    g.0.done(idx, Ok(()));
                }
                (g.0.pop(), g.1)
            };
            let Some((idx, ())) = next else {
                break;
            };
            assert!(
                idx != 0 || !latched,
                "served lane 0 after its error latched"
            );
            served[idx] += 1;
            running = Some(idx);
        }
        latcher.join().unwrap();

        assert!(st.lock().unwrap().0.pop().is_none(), "a job left behind");
        assert_eq!(served[1..], [2, 2], "every other lane drained exactly");
        assert!(served[0] <= 2);
    });
}

/// While the global hold is set nothing is dispatched, and once a
/// concurrent release lands every lane drains exactly once.
#[test]
fn mux_dispatches_nothing_while_held_and_drains_every_lane_after_release() {
    loom::model(|| {
        let mut held = backlogged(&[1, 1, 1]);
        held.hold(true);
        // The dispatch state, and whether the hold has been released.
        let st = Arc::new(Mutex::new((held, false)));
        let releaser = {
            let st = st.clone();
            thread::spawn(move || {
                let mut g = st.lock().unwrap();
                g.0.hold(false);
                g.1 = true;
            })
        };

        let mut popped = Vec::new();
        for _ in 0..2 {
            let (next, released) = {
                let mut g = st.lock().unwrap();
                (g.0.pop(), g.1)
            };
            if let Some((idx, ())) = next {
                assert!(released, "dispatched lane {idx} while held");
                popped.push(idx);
            }
        }
        releaser.join().unwrap();
        while let Some((idx, ())) = st.lock().unwrap().0.pop() {
            popped.push(idx);
        }

        popped.sort_unstable();
        assert_eq!(popped, vec![0, 1, 2], "every lane drained exactly once");
    });
}

/// Mirror of one fabric mailbox (fabric.rs `Mailbox`) as the wake
/// handshake sees it. `queued` counts envelopes in the stripes; a
/// sender adds [`WANTED`] or [`UNWANTED`], so the model can tell which
/// kind is there. The gate holds the parked receiver's want — here just
/// the source it waits for — and `asleep`, which stands for "inside
/// `Condvar::wait`": the receiver sets it as it lets go of the gate
/// (wait releases and sleeps atomically) and a notify clears it; a
/// notify that finds nobody asleep is lost, as a real one is.
///
/// The model notifies while it still holds the gate; production
/// notifies just after releasing it. Whoever is asleep at the earlier
/// moment is still asleep at the later one, so the real notify wakes
/// every sleeper the model's does: a receiver the model never strands
/// is not stranded in production either.
struct MailboxModel {
    queued: AtomicUsize,
    waiters: AtomicUsize,
    gate: Mutex<Gate>,
    /// Which of the receiver's looks at `queued` (0, 1, 2) is the first
    /// to find the unwanted sender's envelope; see [`Self::look`].
    unwanted_at: usize,
}

struct Gate {
    want: usize,
    asleep: bool,
}

/// The source the receiver waits for, and its envelope's `queued` weight.
const WANTED_SRC: usize = 1;
const WANTED: usize = 0x10;
/// Another source's envelope.
const UNWANTED: usize = 0x01;
/// The receiver looks at `queued` three times; 3 = "after all of them".
const LOOKS: usize = 3;

impl MailboxModel {
    fn new(waiters: usize, want: usize, unwanted_at: usize) -> Arc<MailboxModel> {
        Arc::new(MailboxModel {
            queued: AtomicUsize::new(0),
            waiters: AtomicUsize::new(waiters),
            gate: Mutex::new(Gate {
                want,
                asleep: false,
            }),
            unwanted_at,
        })
    }

    /// `Mailbox::push` of the wanted envelope: enqueue, then — only if a
    /// receiver is registered — read its want under the gate and notify
    /// if it admits source 1.
    fn push_wanted(&self) {
        self.queued.fetch_add(WANTED, SeqCst);
        if self.waiters.load(SeqCst) == 0 {
            return;
        }
        let mut gate = self.gate.lock().unwrap();
        if gate.want == WANTED_SRC {
            gate.asleep = false;
        }
    }

    /// `Mailbox::push` from the source the receiver never waits for, as
    /// far as anyone can tell it happened. Its notify is always skipped,
    /// and what leads up to the skip — a load of `waiters`, the gate
    /// taken for a read — changes nothing anyone else can see; that
    /// leaves its enqueue, which only the receiver's looks at `queued`
    /// observe. So instead of a third thread (3 threads put the search
    /// past 40 000 interleavings) the model is run once per place the
    /// enqueue can fall among those looks, and makes it there.
    fn look(&self, nth: usize) {
        if nth == self.unwanted_at {
            self.queued.fetch_add(UNWANTED, SeqCst);
        }
    }

    /// The park of `recv_raw_wanting`: publish the want and register
    /// under the gate, re-check `queued`, sleep if it is empty. Returns
    /// whether the receiver went to sleep.
    fn park(&self, look: usize) -> bool {
        let mut gate = self.gate.lock().unwrap();
        gate.want = WANTED_SRC;
        self.waiters.fetch_add(1, SeqCst);
        self.look(look);
        gate.asleep = self.queued.load(SeqCst) == 0;
        gate.asleep
    }

    /// The receive loop, from the moment the receiver has found the
    /// mailbox empty, until it sleeps or has the wanted envelope within
    /// reach. The unwanted envelope can make it take one lap: deregister
    /// (late, as production does), take what is there, park again. After
    /// that lap the only envelope that can keep it awake is the wanted
    /// one.
    fn receive(&self) {
        if self.park(0) {
            return;
        }
        self.waiters.fetch_sub(1, SeqCst);
        self.look(1);
        let taken = self.queued.swap(0, SeqCst);
        if taken & WANTED == 0 {
            self.park(2);
        }
    }

    /// With every sender retired: a receiver still asleep while the
    /// envelope it wants sits in the mailbox will sleep forever.
    fn assert_not_stranded(&self) {
        let asleep = self.gate.lock().unwrap().asleep;
        let stranded = asleep && self.queued.load(SeqCst) & WANTED != 0;
        assert!(!stranded, "receiver asleep with its envelope queued");
    }
}

/// One receiver wanting source 1, a sender it wants and one it does
/// not: in no interleaving does the receiver end up asleep with the
/// wanted envelope queued — the unwanted envelope making the receiver
/// take a lap (and leave `waiters` briefly stale), and the wanted
/// sender reading `waiters` or the want at any point in between,
/// included.
#[test]
fn targeted_wake_never_strands_a_receiver_whose_envelope_is_queued() {
    for unwanted_at in 0..=LOOKS {
        loom::model(move || {
            let mb = MailboxModel::new(0, WANTED_SRC, unwanted_at);
            let wanted = {
                let mb = mb.clone();
                thread::spawn(move || mb.push_wanted())
            };
            mb.receive();
            wanted.join().unwrap();
            mb.assert_not_stranded();
        });
    }
}

/// The stale-`waiters` window on its own (fabric.rs module docs, "No
/// lost wake-up", case (c)): the receiver has just been woken from a
/// park that wanted *another* source — `waiters` is still 1 and the
/// gate still holds that want — and goes round to park for source 1
/// while source 1's sender runs. The sender may see the stale count
/// and, under the gate, either want; the receiver must not end up
/// asleep with the envelope queued.
#[test]
fn targeted_wake_survives_a_stale_waiter_count_and_a_stale_want() {
    loom::model(|| {
        let mb = MailboxModel::new(1, 2, LOOKS);
        let sender = {
            let mb = mb.clone();
            thread::spawn(move || mb.push_wanted())
        };
        mb.waiters.fetch_sub(1, SeqCst);
        mb.receive();
        sender.join().unwrap();
        mb.assert_not_stranded();
    });
}
