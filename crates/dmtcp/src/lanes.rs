//! One lane multiplexer: per-tenant FIFO lanes drained by ONE named
//! background thread, fair-share round robin.
//!
//! The store's committer ([`crate::store::SharedStoreWriter`]) and the
//! tier's shipper are both a `LaneMux`. Each supplies a
//! `LaneWorker`: its job function and its per-lane state. The mux owns
//! everything else:
//!
//! * per-lane queues and an `in_flight` flag;
//! * a sticky first error per lane: a failed lane is never dispatched
//!   again and refuses later submits, while every other lane drains on;
//! * a round-robin cursor parked one past the lane served, so one lane's
//!   backlog cannot starve the others;
//! * a global hold (nothing is dispatched while it is set);
//! * a flush that waits until a lane is idle or has failed;
//! * a count of submits that blocked on `LaneWorker::BOUND`;
//! * close, drain and join on drop.
//!
//! The dispatch state ([`Dispatch`]) holds no lock, so the loom models
//! in `tests/loom_models.rs` check this very type inside a model-checked
//! mutex; it is the module's one public item, the rest is crate-private.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// What a [`LaneMux`]'s thread does with a job: [`LaneWorker::run`] it
/// outside the lock.
pub(crate) trait LaneWorker: Send + Sized + 'static {
    /// The thread's name.
    const NAME: &'static str;
    /// Jobs a lane may hold queued before a submit blocks.
    const BOUND: usize = usize::MAX;
    /// What a submit queues.
    type Job: Send + 'static;
    /// Per-lane state beside the queue.
    type Lane: Send + 'static;
    /// A lane's sticky error.
    type Error: Clone + Send + 'static;

    /// Run one job of lane `lane`, outside the lock; the job reads and
    /// updates its lane's state under it ([`Lanes::with_lane`]). An `Err`
    /// becomes the lane's sticky error unless it already has one.
    fn run(&mut self, lanes: &Lanes<Self>, lane: usize, job: Self::Job) -> Result<(), Self::Error>;
}

struct Queue<J, E> {
    jobs: VecDeque<J>,
    in_flight: bool,
    error: Option<E>,
    /// Submits that blocked on the bound.
    blocked: u64,
}

/// A `LaneMux`'s dispatch state, with no lock inside: per-lane queues,
/// `in_flight` flags and sticky errors, the round-robin cursor and the
/// global hold.
pub struct Dispatch<J, E> {
    lanes: Vec<Queue<J, E>>,
    rr: usize,
    held: bool,
}

impl<J, E> Dispatch<J, E> {
    /// `n` empty lanes, not held.
    pub fn with_lanes(n: usize) -> Self {
        let mut dispatch = Dispatch {
            lanes: Vec::new(),
            rr: 0,
            held: false,
        };
        for _ in 0..n {
            dispatch.add_lane();
        }
        dispatch
    }

    /// Register an empty lane; returns its index.
    pub fn add_lane(&mut self) -> usize {
        self.lanes.push(Queue {
            jobs: VecDeque::new(),
            in_flight: false,
            error: None,
            blocked: 0,
        });
        self.lanes.len() - 1
    }

    /// Queue `job` at the back of `lane`.
    pub fn push(&mut self, lane: usize, job: J) {
        self.lanes[lane].jobs.push_back(job);
    }

    /// The next job to run: scan the lanes from the cursor, skip every
    /// lane with a sticky error, mark the lane served in flight and park
    /// the cursor one past it. Nothing while the hold is set.
    pub fn pop(&mut self) -> Option<(usize, J)> {
        if self.held {
            return None;
        }
        let n = self.lanes.len();
        for i in 0..n {
            let idx = (self.rr + i) % n;
            let lane = &mut self.lanes[idx];
            if lane.error.is_some() {
                continue;
            }
            if let Some(job) = lane.jobs.pop_front() {
                lane.in_flight = true;
                self.rr = (idx + 1) % n;
                return Some((idx, job));
            }
        }
        None
    }

    /// `lane`'s job finished: clear its in-flight flag and latch an
    /// error unless the lane already has one.
    pub fn done(&mut self, lane: usize, result: Result<(), E>) {
        let lane = &mut self.lanes[lane];
        lane.in_flight = false;
        if let Err(e) = result {
            lane.error.get_or_insert(e);
        }
    }

    /// Set or clear the global hold.
    pub fn hold(&mut self, held: bool) {
        self.held = held;
    }
}

struct State<W: LaneWorker> {
    dispatch: Dispatch<W::Job, W::Error>,
    lanes: Vec<W::Lane>,
    closed: bool,
}

/// The shared half of a [`LaneMux`]: its state under one lock and the
/// condvar every wait sleeps on. An `Arc` of it reads the lanes without
/// keeping the thread alive.
pub(crate) struct Lanes<W: LaneWorker> {
    state: Mutex<State<W>>,
    cv: Condvar,
}

impl<W: LaneWorker> Lanes<W> {
    fn lock(&self) -> MutexGuard<'_, State<W>> {
        self.state.lock().expect("lane mux lock")
    }

    /// Register a lane; returns its index.
    pub fn add_lane(&self, lane: W::Lane) -> usize {
        let mut st = self.lock();
        st.lanes.push(lane);
        st.dispatch.add_lane()
    }

    /// Queue `job` on `lane`, blocking while the lane holds
    /// [`LaneWorker::BOUND`] jobs; another lane's backlog never blocks
    /// it. `Err(Some(e))` is the lane's sticky error, `Err(None)` a
    /// closed mux.
    pub fn submit(&self, lane: usize, job: W::Job) -> Result<(), Option<W::Error>> {
        let mut st = self.lock();
        let mut waited = false;
        loop {
            let closed = st.closed;
            let queue = &mut st.dispatch.lanes[lane];
            if let Some(e) = &queue.error {
                return Err(Some(e.clone()));
            }
            if closed {
                return Err(None);
            }
            if queue.jobs.len() < W::BOUND {
                queue.jobs.push_back(job);
                self.cv.notify_all();
                return Ok(());
            }
            if !waited {
                waited = true;
                queue.blocked += 1;
            }
            st = self.cv.wait(st).expect("lane mux wait");
        }
    }

    /// Wait until `lane` has nothing queued or running, or has failed.
    /// Returns the lane's sticky error, if any.
    pub fn flush(&self, lane: usize) -> Result<(), W::Error> {
        let mut st = self.lock();
        loop {
            let queue = &st.dispatch.lanes[lane];
            if let Some(e) = &queue.error {
                return Err(e.clone());
            }
            if queue.jobs.is_empty() && !queue.in_flight {
                return Ok(());
            }
            st = self.cv.wait(st).expect("lane mux wait");
        }
    }

    /// Read or update `lane`'s state under the lock.
    pub fn with_lane<R>(&self, lane: usize, f: impl FnOnce(&mut W::Lane) -> R) -> R {
        f(&mut self.lock().lanes[lane])
    }

    /// `lane`'s sticky error, if a job of it has failed.
    pub fn error(&self, lane: usize) -> Option<W::Error> {
        self.lock().dispatch.lanes[lane].error.clone()
    }

    /// Submits on `lane` that blocked on the bound so far.
    pub fn blocked(&self, lane: usize) -> u64 {
        self.lock().dispatch.lanes[lane].blocked
    }

    /// Set or clear the global hold. The job running when the hold is
    /// set finishes; nothing else is dispatched until it is cleared.
    pub fn hold(&self, held: bool) {
        self.lock().dispatch.hold(held);
        self.cv.notify_all();
    }

    /// The thread's loop: dispatch and run, until closed and drained.
    fn drain(&self, mut worker: W) -> W {
        loop {
            let (lane, job) = {
                let mut st = self.lock();
                loop {
                    if let Some(next) = st.dispatch.pop() {
                        break next;
                    }
                    if st.closed {
                        return worker;
                    }
                    st = self.cv.wait(st).expect("lane mux wait");
                }
            };
            // A queue slot just freed: wake a submitter blocked on it.
            self.cv.notify_all();
            let result = worker.run(self, lane, job);
            self.lock().dispatch.done(lane, result);
            self.cv.notify_all();
        }
    }
}

/// One background thread draining N lanes of [`LaneWorker::Job`]s. See
/// the [module docs](self).
pub(crate) struct LaneMux<W: LaneWorker> {
    /// The lanes; clone the `Arc` to read them from elsewhere.
    pub(crate) lanes: Arc<Lanes<W>>,
    thread: Option<JoinHandle<W>>,
}

impl<W: LaneWorker> LaneMux<W> {
    /// Spawn the thread over `worker` and an initial set of lanes.
    pub fn spawn(worker: W, lanes: Vec<W::Lane>) -> LaneMux<W> {
        let state = State {
            dispatch: Dispatch::with_lanes(lanes.len()),
            lanes,
            closed: false,
        };
        let lanes = Arc::new(Lanes {
            state: Mutex::new(state),
            cv: Condvar::new(),
        });
        let drain = lanes.clone();
        let thread = std::thread::Builder::new()
            .name(W::NAME.into())
            .spawn(move || drain.drain(worker))
            .expect("spawn lane mux thread");
        LaneMux {
            lanes,
            thread: Some(thread),
        }
    }

    /// Close every lane (later submits fail), clear the hold, let the
    /// thread drain every lane that has not failed, and join it. Returns
    /// the worker; `None` once joined.
    pub fn join(&mut self) -> Option<W> {
        {
            let mut st = self.lanes.lock();
            st.closed = true;
            st.dispatch.hold(false);
        }
        self.lanes.cv.notify_all();
        Some(self.thread.take()?.join().expect(W::NAME))
    }
}

impl<W: LaneWorker> Drop for LaneMux<W> {
    fn drop(&mut self) {
        self.join();
    }
}
