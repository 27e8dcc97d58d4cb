//! Runtime lock-order detection: `TrackedMutex` / `TrackedCondvar`.
//!
//! The static `guard-across-barrier` lint catches the lexical form of
//! the PR 6 deadlock; this module catches the *dynamic* forms a lint
//! cannot see — a lock-acquisition cycle built across call boundaries,
//! or a guard still held when a thread walks into a rendezvous.
//!
//! The wrappers are **zero-cost passthroughs** unless the `lockcheck`
//! feature is enabled: without it, every method is an `#[inline]`
//! delegate to `std::sync` and the types carry no extra state. With it,
//! each mutex gets a process-global id and every acquisition:
//!
//! 1. records `held -> acquiring` edges into a global acquisition-order
//!    graph (deduplicated), and walks the graph for a cycle **before**
//!    blocking — a potential deadlock is reported even when this
//!    particular schedule happens to survive;
//! 2. maintains a thread-local held-lock set, so
//!    [`rendezvous_crossing`] (called at barrier entries: the
//!    coordinator rendezvous, gang admission) can flag any guard being
//!    carried into a blocking rank-synchronization point.
//!
//! Incidents accumulate in a global buffer; the session layer drains
//! them with [`take_incidents`] and reports through the flight recorder
//! (`EventKind::LockCycle` + `note_incident`), so a lockcheck hit shows
//! up in the end-of-run crash-dump timeline like any other incident.

use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

#[cfg(feature = "lockcheck")]
mod graph {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    use super::LockIncident;

    pub(super) static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    pub(super) fn fresh_id() -> u64 {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    #[derive(Default)]
    pub(super) struct GraphState {
        /// Deduplicated `from -> to` acquisition-order edges.
        pub edges: BTreeMap<u64, BTreeSet<u64>>,
        /// Lock id -> the name it was registered under.
        pub names: BTreeMap<u64, String>,
        /// Edge pairs already reported (one incident per cycle edge).
        pub reported: BTreeSet<(u64, u64)>,
        /// Incidents awaiting [`super::take_incidents`].
        pub incidents: Vec<LockIncident>,
    }

    pub(super) fn with_graph<R>(f: impl FnOnce(&mut GraphState) -> R) -> R {
        static GRAPH: OnceLock<Mutex<GraphState>> = OnceLock::new();
        let m = GRAPH.get_or_init(|| Mutex::new(GraphState::default()));
        let mut g = m.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut g)
    }

    /// Is `to` reachable from `from` over recorded edges?
    pub(super) fn reachable(g: &GraphState, from: u64, to: u64) -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = g.edges.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    thread_local! {
        /// Lock ids (with names) this thread currently holds, in
        /// acquisition order.
        pub(super) static HELD: RefCell<Vec<(u64, String)>> = const { RefCell::new(Vec::new()) };
    }
}

/// One detected lock-discipline violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockIncident {
    /// Acquiring `acquire` while holding `held` closes a cycle in the
    /// acquisition-order graph: another thread (now or in a future
    /// schedule) can take them in the opposite order and deadlock.
    Cycle {
        /// Name of the lock already held.
        held: String,
        /// Name of the lock being acquired.
        acquire: String,
    },
    /// A thread re-entered a lock it already holds (self-deadlock with
    /// `std::sync::Mutex`).
    Reentrant {
        /// Name of the re-entered lock.
        lock: String,
    },
    /// A thread reached a rendezvous point (rank barrier, gang
    /// admission) while still holding guards — the PR 6 class: the
    /// barrier parks the thread, the guard blocks every peer.
    GuardAcrossRendezvous {
        /// Label of the crossing point.
        barrier: String,
        /// Names of the guards still held.
        held: Vec<String>,
    },
}

impl LockIncident {
    /// Stable small-int code for telemetry payloads (0 = cycle,
    /// 1 = reentrant, 2 = guard-across-rendezvous).
    pub fn code(&self) -> u64 {
        match self {
            LockIncident::Cycle { .. } => 0,
            LockIncident::Reentrant { .. } => 1,
            LockIncident::GuardAcrossRendezvous { .. } => 2,
        }
    }

    /// How many locks the incident involves.
    pub fn locks(&self) -> u64 {
        match self {
            LockIncident::Cycle { .. } => 2,
            LockIncident::Reentrant { .. } => 1,
            LockIncident::GuardAcrossRendezvous { held, .. } => held.len() as u64,
        }
    }

    /// One-line human description.
    pub fn summary(&self) -> String {
        match self {
            LockIncident::Cycle { held, acquire } => {
                format!("lock-order cycle: `{acquire}` acquired while holding `{held}` closes a reverse-order path")
            }
            LockIncident::Reentrant { lock } => {
                format!("re-entrant acquisition of `{lock}` (self-deadlock)")
            }
            LockIncident::GuardAcrossRendezvous { barrier, held } => {
                format!("guard(s) {held:?} held across rendezvous `{barrier}`")
            }
        }
    }

    /// FNV-1a hash of the summary — a stable fingerprint that fits a
    /// telemetry payload word.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.summary().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Whether lockcheck bookkeeping is compiled in.
pub fn enabled() -> bool {
    cfg!(feature = "lockcheck")
}

/// Drain every incident recorded since the last call. Always callable;
/// returns empty when the `lockcheck` feature is off.
pub fn take_incidents() -> Vec<LockIncident> {
    #[cfg(feature = "lockcheck")]
    {
        graph::with_graph(|g| std::mem::take(&mut g.incidents))
    }
    #[cfg(not(feature = "lockcheck"))]
    {
        Vec::new()
    }
}

/// Declare a rendezvous crossing: the calling thread is about to park
/// in a rank-synchronization point (`finish()` barrier, gang
/// admission). With `lockcheck` on, any tracked guard still held by
/// this thread is reported as a [`LockIncident::GuardAcrossRendezvous`].
#[inline]
pub fn rendezvous_crossing(label: &str) {
    #[cfg(feature = "lockcheck")]
    {
        let held: Vec<String> =
            graph::HELD.with(|h| h.borrow().iter().map(|(_, n)| n.clone()).collect());
        if !held.is_empty() {
            graph::with_graph(|g| {
                g.incidents.push(LockIncident::GuardAcrossRendezvous {
                    barrier: label.to_string(),
                    held,
                });
            });
        }
    }
    #[cfg(not(feature = "lockcheck"))]
    {
        let _ = label;
    }
}

// ---------------------------------------------------------------------------
// TrackedMutex
// ---------------------------------------------------------------------------

/// A `std::sync::Mutex` that, under the `lockcheck` feature, feeds the
/// global acquisition-order graph. API mirrors `std` (`lock` returns a
/// `LockResult`), so adoption is a type change, not a call-site change.
pub struct TrackedMutex<T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    id: u64,
    #[cfg(feature = "lockcheck")]
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// An anonymous tracked mutex (named by its id in reports).
    pub fn new(value: T) -> TrackedMutex<T> {
        Self::named("mutex", value)
    }

    /// A tracked mutex carrying a diagnostic name.
    pub fn named(name: &'static str, value: T) -> TrackedMutex<T> {
        #[cfg(not(feature = "lockcheck"))]
        {
            let _ = name;
        }
        TrackedMutex {
            #[cfg(feature = "lockcheck")]
            id: graph::fresh_id(),
            #[cfg(feature = "lockcheck")]
            name,
            inner: Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    /// Acquire, recording acquisition-order edges and checking for
    /// cycles *before* blocking when `lockcheck` is on.
    #[inline]
    pub fn lock(&self) -> LockResult<TrackedMutexGuard<'_, T>> {
        #[cfg(feature = "lockcheck")]
        self.before_lock();
        match self.inner.lock() {
            Ok(g) => Ok(self.wrap(g)),
            Err(p) => Err(PoisonError::new(self.wrap(p.into_inner()))),
        }
    }

    /// Mutable access without locking (mirrors `std`).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.inner.get_mut()
    }

    fn wrap<'a>(&'a self, inner: MutexGuard<'a, T>) -> TrackedMutexGuard<'a, T> {
        #[cfg(feature = "lockcheck")]
        graph::HELD.with(|h| h.borrow_mut().push((self.id, self.name.to_string())));
        TrackedMutexGuard {
            #[cfg(feature = "lockcheck")]
            id: self.id,
            #[cfg(feature = "lockcheck")]
            name: self.name,
            inner: Some(inner),
        }
    }

    #[cfg(feature = "lockcheck")]
    fn before_lock(&self) {
        let held: Vec<(u64, String)> = graph::HELD.with(|h| h.borrow().clone());
        if held.is_empty() {
            return;
        }
        graph::with_graph(|g| {
            g.names
                .entry(self.id)
                .or_insert_with(|| self.name.to_string());
            if held.iter().any(|(id, _)| *id == self.id) {
                g.incidents.push(LockIncident::Reentrant {
                    lock: self.name.to_string(),
                });
                return;
            }
            for (held_id, held_name) in &held {
                let new_edge = g.edges.entry(*held_id).or_default().insert(self.id);
                g.names.entry(*held_id).or_insert_with(|| held_name.clone());
                if new_edge
                    && graph::reachable(g, self.id, *held_id)
                    && g.reported.insert((*held_id, self.id))
                {
                    g.incidents.push(LockIncident::Cycle {
                        held: held_name.clone(),
                        acquire: self.name.to_string(),
                    });
                }
            }
        });
    }
}

impl<T: Default> Default for TrackedMutex<T> {
    fn default() -> TrackedMutex<T> {
        TrackedMutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// Guard of a [`TrackedMutex`]; removes itself from the thread's
/// held-lock set on drop.
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    #[cfg(feature = "lockcheck")]
    id: u64,
    #[cfg(feature = "lockcheck")]
    #[allow(dead_code)]
    name: &'static str,
    /// `Option` so [`TrackedCondvar::wait`] can take the inner guard
    /// out while the thread sleeps (the lock is not held then).
    inner: Option<MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T: ?Sized> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "lockcheck")]
        if self.inner.is_some() {
            unregister(self.id);
        }
    }
}

#[cfg(feature = "lockcheck")]
fn unregister(id: u64) {
    graph::HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|(i, _)| *i == id) {
            held.remove(pos);
        }
    });
}

#[cfg(feature = "lockcheck")]
fn reregister(id: u64, name: &'static str) {
    graph::HELD.with(|h| h.borrow_mut().push((id, name.to_string())));
}

// ---------------------------------------------------------------------------
// TrackedCondvar
// ---------------------------------------------------------------------------

/// A `std::sync::Condvar` over [`TrackedMutex`] guards. While a thread
/// waits, the guard leaves its held-lock set (the lock really is
/// released) and re-enters it on wake.
#[derive(Default)]
pub struct TrackedCondvar {
    inner: Condvar,
}

impl TrackedCondvar {
    /// A new condition variable.
    pub fn new() -> TrackedCondvar {
        TrackedCondvar {
            inner: Condvar::new(),
        }
    }

    /// Wake one waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Block until notified, releasing (and re-taking) the guard.
    pub fn wait<'a, T>(
        &self,
        mut guard: TrackedMutexGuard<'a, T>,
    ) -> LockResult<TrackedMutexGuard<'a, T>> {
        let inner = guard.inner.take().expect("guard taken");
        #[cfg(feature = "lockcheck")]
        let (id, name) = (guard.id, guard.name);
        #[cfg(feature = "lockcheck")]
        unregister(id);
        let result = self.inner.wait(inner);
        #[cfg(feature = "lockcheck")]
        reregister(id, name);
        match result {
            Ok(g) => {
                guard.inner = Some(g);
                Ok(guard)
            }
            Err(p) => {
                guard.inner = Some(p.into_inner());
                Err(PoisonError::new(guard))
            }
        }
    }

    /// Block until notified or `dur` elapses.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: TrackedMutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(TrackedMutexGuard<'a, T>, std::sync::WaitTimeoutResult)> {
        let inner = guard.inner.take().expect("guard taken");
        #[cfg(feature = "lockcheck")]
        let (id, name) = (guard.id, guard.name);
        #[cfg(feature = "lockcheck")]
        unregister(id);
        let result = self.inner.wait_timeout(inner, dur);
        #[cfg(feature = "lockcheck")]
        reregister(id, name);
        match result {
            Ok((g, t)) => {
                guard.inner = Some(g);
                Ok((guard, t))
            }
            Err(p) => {
                let (g, t) = p.into_inner();
                guard.inner = Some(g);
                Err(PoisonError::new((guard, t)))
            }
        }
    }
}

#[cfg(all(test, feature = "lockcheck"))]
mod tests {
    use super::*;

    // One #[test] on purpose: the incident buffer is process-global and
    // `take_incidents` drains it, so parallel tests would steal each
    // other's reports.
    #[test]
    fn cycle_rendezvous_and_condvar_detection() {
        cycle_and_rendezvous_detection();
        condvar_wait_releases_the_held_set();
    }

    fn cycle_and_rendezvous_detection() {
        // Thread 1 takes A then B; thread 2 takes B then A: the second
        // ordering closes a cycle in the global graph.
        let a = std::sync::Arc::new(TrackedMutex::named("cycle.a", 0u32));
        let b = std::sync::Arc::new(TrackedMutex::named("cycle.b", 0u32));
        {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
        }
        let incidents = take_incidents();
        assert!(
            incidents
                .iter()
                .any(|i| matches!(i, LockIncident::Cycle { .. })),
            "BA after AB must report a cycle, got {incidents:?}"
        );

        // A guard carried into a rendezvous crossing is its own incident.
        let _g = a.lock().unwrap();
        rendezvous_crossing("test.barrier");
        let incidents = take_incidents();
        assert!(
            incidents.iter().any(|i| matches!(
                i,
                LockIncident::GuardAcrossRendezvous { barrier, .. } if barrier == "test.barrier"
            )),
            "crossing with a held guard must report, got {incidents:?}"
        );
    }

    fn condvar_wait_releases_the_held_set() {
        let m = TrackedMutex::named("cv.m", false);
        let cv = TrackedCondvar::new();
        let guard = m.lock().unwrap();
        let (guard, timed_out) = cv.wait_timeout(guard, Duration::from_millis(1)).unwrap();
        assert!(timed_out.timed_out());
        drop(guard);
        // No guard held now: crossing is clean. (Scoped to this test's
        // barrier label — the incident buffer is process-global.)
        rendezvous_crossing("cv.barrier");
        let incidents = take_incidents();
        assert!(
            !incidents.iter().any(|i| matches!(
                i,
                LockIncident::GuardAcrossRendezvous { barrier, .. } if barrier == "cv.barrier"
            )),
            "clean crossing must not report, got {incidents:?}"
        );
    }
}
