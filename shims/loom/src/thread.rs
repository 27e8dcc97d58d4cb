//! `loom::thread`: model-checked thread spawn/join.

use std::sync::{Arc, Mutex};

use crate::rt;

/// Handle to a model thread; mirrors `std::thread::JoinHandle`.
pub struct JoinHandle<T> {
    tid: usize,
    exec: Arc<rt::Execution>,
    real: Option<std::thread::JoinHandle<()>>,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to finish and return its value. A thread
    /// that panicked aborts the whole model (the failing schedule is
    /// reported by [`crate::model`]), so this returns `Err` only on
    /// that unwind path.
    pub fn join(self) -> std::thread::Result<T> {
        let JoinHandle {
            tid,
            exec,
            mut real,
            result,
        } = self;
        exec.join_thread(rt::current().1, tid);
        if let Some(h) = real.take() {
            // The model thread is Finished; the OS thread exits promptly.
            let _ = h.join();
        }
        let value = result.lock().unwrap_or_else(|p| p.into_inner()).take();
        match value {
            Some(v) => Ok(v),
            None => Err(Box::new("loom model thread panicked")),
        }
    }
}

/// Spawn a model thread (a scheduling point). The closure runs under
/// the exploration scheduler: it starts only when the schedule hands it
/// the token.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (exec, me) = rt::current();
    let tid = exec.register_thread();
    let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let real = {
        let exec = exec.clone();
        let result = result.clone();
        std::thread::spawn(move || {
            rt::adopt(exec.clone(), tid);
            // The wait is inside the unwind guard: an execution that
            // fails before this thread first runs aborts the wait, and
            // the thread must still finish or `explore` waits forever.
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.wait_for_token(tid);
                f()
            }));
            let panicked = out.is_err();
            if let Ok(v) = out {
                *result.lock().unwrap_or_else(|p| p.into_inner()) = Some(v);
            }
            rt::disown();
            exec.finish_thread(tid, panicked);
        })
    };
    exec.schedule(me);
    JoinHandle {
        tid,
        exec,
        real: Some(real),
        result,
    }
}

/// Voluntarily hand the token back to the scheduler (a scheduling
/// point with no other effect).
pub fn yield_now() {
    let (exec, me) = rt::current();
    exec.schedule(me);
}
