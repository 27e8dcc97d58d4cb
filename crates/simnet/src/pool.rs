//! A shared bounded worker pool with FIFO gang admission.
//!
//! The multi-tenant cluster layer runs MANY communicating worlds in one
//! process and must bound their rank threads: each world needs *all* of
//! its ranks live at once — gang admission, because a communicating world
//! deadlocks if only half its ranks exist — so a tenant takes its whole
//! world's permits against one shared [`WorkerPool`] before it launches.
//!
//! Admission is strictly FIFO by ticket: a large gang waiting at the head
//! of the queue cannot be starved by a stream of small requests slipping
//! past it. A gang larger than the pool's whole capacity is admitted
//! alone, once the pool is fully idle — it borrows every permit rather
//! than deadlocking on permits that can never all exist.

use std::sync::Arc;

use sanity::lockcheck::{self, TrackedCondvar, TrackedMutex};

/// Bounded permit pool with FIFO (ticketed) gang admission.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    capacity: usize,
    state: TrackedMutex<PoolState>,
    cv: TrackedCondvar,
}

struct PoolState {
    available: usize,
    /// Next ticket to hand out to an arriving acquirer.
    next_ticket: u64,
    /// Ticket currently at the head of the admission queue.
    serving: u64,
}

impl WorkerPool {
    /// A pool of `capacity` worker permits (clamped to at least 1).
    pub fn new(capacity: usize) -> WorkerPool {
        let capacity = capacity.max(1);
        WorkerPool {
            inner: Arc::new(PoolInner {
                capacity,
                state: TrackedMutex::named(
                    "pool.state",
                    PoolState {
                        available: capacity,
                        next_ticket: 0,
                        serving: 0,
                    },
                ),
                cv: TrackedCondvar::new(),
            }),
        }
    }

    /// Total permits this pool was built with.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Permits not currently held (snapshot; racy by nature).
    pub fn available(&self) -> usize {
        self.inner.state.lock().expect("pool lock").available
    }

    /// Block until `n` permits can be taken as one gang, FIFO-ordered
    /// against every other acquirer. A gang wider than the pool's
    /// capacity waits for the pool to be fully idle and borrows all
    /// `capacity` permits (it runs alone).
    pub fn acquire(&self, n: usize) -> PoolGuard {
        let want = n.max(1).min(self.inner.capacity);
        // Gang admission parks the caller until the whole gang fits: a
        // tracked guard carried in from outside would block every peer.
        lockcheck::rendezvous_crossing("pool.acquire");
        let mut state = self.inner.state.lock().expect("pool lock");
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        while state.serving != ticket || state.available < want {
            state = self.inner.cv.wait(state).expect("pool wait");
        }
        state.available -= want;
        state.serving += 1;
        // The next ticket may already be satisfiable with what's left.
        self.inner.cv.notify_all();
        PoolGuard {
            inner: self.inner.clone(),
            permits: want,
        }
    }
}

/// Permits held from a [`WorkerPool`]; returned on drop.
pub struct PoolGuard {
    inner: Arc<PoolInner>,
    permits: usize,
}

impl PoolGuard {
    /// How many permits this gang holds.
    pub fn permits(&self) -> usize {
        self.permits
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().expect("pool lock");
        state.available += self.permits;
        self.inner.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn permits_bound_concurrency() {
        let pool = WorkerPool::new(3);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..12 {
                s.spawn(|| {
                    let _g = pool.acquire(1);
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn oversized_gang_admitted_alone() {
        let pool = WorkerPool::new(4);
        let g = pool.acquire(9);
        assert_eq!(g.permits(), 4, "oversized gang borrows full capacity");
        assert_eq!(pool.available(), 0);
        drop(g);
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn fifo_gang_not_starved_by_singles() {
        // A width-4 gang queued behind one single must get in before
        // singles that arrived after it, even though singles would fit
        // sooner — FIFO tickets forbid overtaking.
        let pool = WorkerPool::new(4);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            let first = pool.acquire(4);
            s.spawn(|| {
                let _g = pool.acquire(4);
                order.lock().unwrap().push("gang");
            });
            // Give the gang time to take its ticket.
            std::thread::sleep(Duration::from_millis(5));
            s.spawn(|| {
                let _g = pool.acquire(1);
                order.lock().unwrap().push("single");
            });
            std::thread::sleep(Duration::from_millis(5));
            drop(first);
        });
        assert_eq!(*order.lock().unwrap(), vec!["gang", "single"]);
    }
}
