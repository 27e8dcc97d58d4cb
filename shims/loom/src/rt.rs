//! The exploration engine: a token-passing scheduler plus a DFS over
//! the schedule-choice tree.
//!
//! One execution = one run of the model closure. Threads are real OS
//! threads, but only the thread holding the token executes; every
//! visible operation ends with [`Execution::schedule`], which picks the
//! next thread to run. Where more than one thread is runnable, that
//! pick is a recorded *branch*; [`explore`] re-runs the closure,
//! advancing the deepest unexhausted branch each time, until the whole
//! tree is visited.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Search bounds. Exceeding any bound fails the model — a proof that
/// no longer covers the space must say so, not silently truncate.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Maximum live threads per execution (including the model thread).
    pub max_threads: usize,
    /// Maximum scheduling branches (choice points) per execution;
    /// tripping this usually means an unbounded spin loop in the model.
    pub max_branches: usize,
    /// Maximum executions (distinct interleavings) per model.
    pub max_executions: u64,
}

impl Default for Bounds {
    fn default() -> Bounds {
        Bounds {
            max_threads: 4,
            max_branches: 2_000,
            max_executions: 250_000,
        }
    }
}

/// One recorded choice point: which of `options` runnable threads ran.
#[derive(Debug, Clone, Copy)]
struct Choice {
    taken: usize,
    options: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    Blocked(BlockOn),
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockOn {
    Lock(usize),
    Join(usize),
    Cond(usize),
}

struct State {
    threads: Vec<ThreadState>,
    /// Thread currently holding the token.
    active: usize,
    /// Mutex slots registered this execution (`held_by` = owner tid).
    locks: Vec<Option<usize>>,
    /// Condvars registered this execution.
    conds: usize,
    /// The DFS path: prefix replayed from earlier executions, suffix
    /// appended as this execution reaches new choice points.
    path: Vec<Choice>,
    /// Next path slot this execution will consume.
    cursor: usize,
    /// Every unfinished thread must unwind now (a failure was recorded).
    abort: bool,
    /// First failure of this execution (assert, deadlock, bound).
    failure: Option<String>,
    bounds: Bounds,
}

pub(crate) struct Execution {
    state: Mutex<State>,
    cv: Condvar,
}

thread_local! {
    /// (execution, my thread id) for threads participating in a model.
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// The calling thread's execution context; panics outside `model`.
pub(crate) fn current() -> (Arc<Execution>, usize) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("loom primitives may only be used inside loom::model")
    })
}

/// Bind a spawned OS thread to its model-thread identity.
pub(crate) fn adopt(exec: Arc<Execution>, tid: usize) {
    CURRENT.with(|c| *c.borrow_mut() = Some((exec, tid)));
}

/// Clear the binding before the OS thread exits.
pub(crate) fn disown() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

impl Execution {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record `msg` as this execution's failure and wake every thread
    /// so it can unwind.
    fn fail(&self, st: &mut State, msg: String) -> ! {
        if st.failure.is_none() {
            st.failure = Some(msg.clone());
        }
        st.abort = true;
        self.cv.notify_all();
        panic!("loom execution failed: {msg}");
    }

    /// The scheduling point: pick the next thread to run (a recorded
    /// branch when several are runnable), hand it the token, and block
    /// until this thread is granted the token again (immediately, if it
    /// picked itself). `tid` may have marked itself `Blocked` first.
    pub(crate) fn schedule(&self, tid: usize) {
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            panic!("loom execution aborted");
        }
        let runnable: Vec<usize> = (0..st.threads.len())
            .filter(|&t| st.threads[t] == ThreadState::Runnable)
            .collect();
        if runnable.is_empty() {
            if st.threads.iter().any(|t| *t != ThreadState::Finished) {
                let held: Vec<usize> = st
                    .locks
                    .iter()
                    .enumerate()
                    .filter_map(|(i, o)| o.map(|_| i))
                    .collect();
                let msg = format!(
                    "deadlock: every unfinished thread is blocked \
                     (threads {:?}, locks held {held:?}, schedule {})",
                    st.threads,
                    path_string(&st.path, st.cursor),
                );
                self.fail(&mut st, msg);
            }
            // Everything finished: nothing to hand the token to.
            return;
        }
        let chosen = if runnable.len() == 1 {
            runnable[0]
        } else {
            let branches_so_far = st.cursor;
            if branches_so_far >= st.bounds.max_branches {
                let msg = format!(
                    "branch bound {} exceeded (unbounded loop in the model?)",
                    st.bounds.max_branches
                );
                self.fail(&mut st, msg);
            }
            let idx = if st.cursor < st.path.len() {
                st.path[st.cursor].taken
            } else {
                st.path.push(Choice {
                    taken: 0,
                    options: runnable.len(),
                });
                0
            };
            st.cursor += 1;
            runnable[idx]
        };
        st.active = chosen;
        self.cv.notify_all();
        while !(st.abort || (st.active == tid && st.threads[tid] == ThreadState::Runnable)) {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if st.abort {
            drop(st);
            panic!("loom execution aborted");
        }
    }

    /// Block until this thread is granted the token (no branch is
    /// recorded — the grant was someone else's scheduling decision).
    pub(crate) fn wait_for_token(&self, tid: usize) {
        let mut st = self.lock_state();
        while !(st.abort || (st.active == tid && st.threads[tid] == ThreadState::Runnable)) {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if st.abort {
            drop(st);
            panic!("loom execution aborted");
        }
    }

    /// Register a new thread slot; the real OS thread is spawned by the
    /// caller. The new thread is runnable but waits for the token.
    pub(crate) fn register_thread(&self) -> usize {
        let mut st = self.lock_state();
        if st.threads.len() >= st.bounds.max_threads {
            let msg = format!("thread bound {} exceeded", st.bounds.max_threads);
            self.fail(&mut st, msg);
        }
        st.threads.push(ThreadState::Runnable);
        st.threads.len() - 1
    }

    /// Mark `tid` finished, wake joiners, and hand the token onward.
    pub(crate) fn finish_thread(&self, tid: usize, panicked: bool) {
        let mut st = self.lock_state();
        st.threads[tid] = ThreadState::Finished;
        if panicked && st.failure.is_none() {
            st.failure = Some(format!(
                "thread {tid} panicked (schedule {})",
                path_string(&st.path, st.cursor)
            ));
            st.abort = true;
        }
        for t in 0..st.threads.len() {
            if st.threads[t] == ThreadState::Blocked(BlockOn::Join(tid)) {
                st.threads[t] = ThreadState::Runnable;
            }
        }
        // Hand off without waiting: this thread is done. Pick any
        // runnable successor deterministically (a single-candidate
        // handoff; if several are runnable the *next* schedule() by the
        // chosen thread records the real branch).
        if let Some(next) = (0..st.threads.len()).find(|&t| st.threads[t] == ThreadState::Runnable)
        {
            st.active = next;
        } else if st.threads.iter().any(|t| *t != ThreadState::Finished) && !st.abort {
            // The last runnable thread left the others asleep on a
            // condvar nobody will notify.
            st.failure = Some(format!(
                "deadlock: thread {tid} finished with every other thread blocked \
                 (threads {:?}, schedule {})",
                st.threads,
                path_string(&st.path, st.cursor),
            ));
            st.abort = true;
        }
        self.cv.notify_all();
    }

    /// Block until `target` finishes (a scheduling point).
    pub(crate) fn join_thread(&self, tid: usize, target: usize) {
        {
            let mut st = self.lock_state();
            if st.threads[target] != ThreadState::Finished {
                st.threads[tid] = ThreadState::Blocked(BlockOn::Join(target));
            }
        }
        self.schedule(tid);
    }

    /// Register a fresh mutex slot for this execution.
    pub(crate) fn register_lock(&self) -> usize {
        let mut st = self.lock_state();
        st.locks.push(None);
        st.locks.len() - 1
    }

    /// Acquire mutex `id` (a scheduling point; blocks while held).
    pub(crate) fn lock_acquire(&self, tid: usize, id: usize) {
        loop {
            {
                let mut st = self.lock_state();
                if st.abort {
                    drop(st);
                    panic!("loom execution aborted");
                }
                match st.locks[id] {
                    None => {
                        st.locks[id] = Some(tid);
                        drop(st);
                        self.schedule(tid);
                        return;
                    }
                    Some(owner) if owner == tid => {
                        let msg = format!("thread {tid} re-locked mutex {id} (self-deadlock)");
                        self.fail(&mut st, msg);
                    }
                    Some(_) => {
                        st.threads[tid] = ThreadState::Blocked(BlockOn::Lock(id));
                    }
                }
            }
            // Blocked: hand the token off and re-contend when woken.
            self.schedule(tid);
        }
    }

    /// Register a fresh condvar for this execution.
    pub(crate) fn register_cond(&self) -> usize {
        let mut st = self.lock_state();
        st.conds += 1;
        st.conds - 1
    }

    /// Release mutex `lock` and sleep on condvar `cond` in one step, so
    /// no notify slips in between; once notified, re-acquire the mutex.
    /// A thread nobody notifies stays asleep: a lost wake-up surfaces as
    /// a deadlock.
    pub(crate) fn cond_wait(&self, tid: usize, cond: usize, lock: usize) {
        self.lock_state().threads[tid] = ThreadState::Blocked(BlockOn::Cond(cond));
        self.lock_release(tid, lock);
        self.lock_acquire(tid, lock);
    }

    /// Wake every thread asleep on condvar `cond` (a scheduling point).
    pub(crate) fn cond_notify_all(&self, tid: usize, cond: usize) {
        {
            let mut st = self.lock_state();
            for t in st.threads.iter_mut() {
                if *t == ThreadState::Blocked(BlockOn::Cond(cond)) {
                    *t = ThreadState::Runnable;
                }
            }
        }
        self.schedule(tid);
    }

    /// Release mutex `id`, waking its waiters (a scheduling point).
    pub(crate) fn lock_release(&self, tid: usize, id: usize) {
        self.lock_release_quiet(tid, id);
        self.schedule(tid);
    }

    /// Release without a scheduling point and without ever panicking —
    /// the path guard destructors take while a thread is unwinding
    /// (scheduling there would double-panic in a destructor).
    pub(crate) fn lock_release_quiet(&self, tid: usize, id: usize) {
        let mut st = self.lock_state();
        debug_assert_eq!(st.locks[id], Some(tid), "unlock by non-owner");
        st.locks[id] = None;
        for t in 0..st.threads.len() {
            if st.threads[t] == ThreadState::Blocked(BlockOn::Lock(id)) {
                st.threads[t] = ThreadState::Runnable;
            }
        }
        self.cv.notify_all();
    }
}

/// Render a schedule path for failure messages: `2/3` = option 2 of 3.
fn path_string(path: &[Choice], upto: usize) -> String {
    let steps: Vec<String> = path
        .iter()
        .take(upto)
        .map(|c| format!("{}/{}", c.taken, c.options))
        .collect();
    format!("[{}]", steps.join(" "))
}

/// Advance `path` to the next unexplored interleaving (DFS backtrack).
/// Returns `false` when the whole tree has been visited.
fn next_path(path: &mut Vec<Choice>) -> bool {
    while let Some(last) = path.last_mut() {
        if last.taken + 1 < last.options {
            last.taken += 1;
            return true;
        }
        path.pop();
    }
    false
}

/// Run `f` under every interleaving within `bounds`.
pub(crate) fn explore(bounds: Bounds, f: Arc<dyn Fn() + Send + Sync>) {
    let mut path: Vec<Choice> = Vec::new();
    let mut executions: u64 = 0;
    loop {
        if executions >= bounds.max_executions {
            panic!(
                "loom: execution bound {} exceeded after {executions} interleavings",
                bounds.max_executions
            );
        }
        executions += 1;

        let exec = Arc::new(Execution {
            state: Mutex::new(State {
                threads: vec![ThreadState::Runnable],
                active: 0,
                locks: Vec::new(),
                conds: 0,
                path: std::mem::take(&mut path),
                cursor: 0,
                abort: false,
                failure: None,
                bounds,
            }),
            cv: Condvar::new(),
        });

        CURRENT.with(|c| *c.borrow_mut() = Some((exec.clone(), 0)));
        let result = catch_unwind(AssertUnwindSafe(|| f()));
        CURRENT.with(|c| *c.borrow_mut() = None);

        // Whatever happened, no spawned thread may outlive the
        // execution: abort stragglers and wait for them to unwind.
        {
            let mut st = exec.lock_state();
            let leaked = st.threads[1..].iter().any(|t| *t != ThreadState::Finished);
            if leaked {
                if result.is_ok() && st.failure.is_none() {
                    st.failure = Some("model closure returned with unjoined threads".to_string());
                }
                st.abort = true;
                exec.cv.notify_all();
            }
            while st.threads[1..].iter().any(|t| *t != ThreadState::Finished) {
                st = exec.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            st.threads[0] = ThreadState::Finished;
        }

        let st = exec.lock_state();
        if result.is_err() || st.failure.is_some() {
            let detail = st
                .failure
                .clone()
                .unwrap_or_else(|| "assertion failed in model thread".to_string());
            panic!(
                "loom: failing interleaving #{executions}: {detail} — schedule {}",
                path_string(&st.path, st.cursor)
            );
        }
        path = st.path.clone();
        drop(st);

        if !next_path(&mut path) {
            return;
        }
    }
}
