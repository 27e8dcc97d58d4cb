//! Offline, API-compatible subset of the [`loom`] model checker.
//!
//! [`model`] runs a closure under **every** thread interleaving the
//! schedule bounds admit: threads spawned with [`thread::spawn`] are
//! real OS threads, but a token-passing scheduler lets exactly one run
//! at a time and inserts a *scheduling point* at every visible
//! operation ([`sync::Mutex`] lock/unlock, [`sync::Condvar`]
//! wait/notify, every [`sync::atomic`] op, spawn, join,
//! [`thread::yield_now`]). At each point where more than
//! one thread could proceed, the choice is recorded on a path; when an
//! execution finishes, the last not-yet-exhausted choice is advanced
//! and the closure re-runs. The search is a plain DFS over those paths,
//! so for the small protocol models this shim targets (two or three
//! threads, a dozen operations) it is exhaustive.
//!
//! Scope, honestly stated:
//!
//! * **Sequential consistency only.** Every atomic op behaves `SeqCst`
//!   regardless of the `Ordering` passed; the weak-memory reorderings
//!   real loom models are not explored. The store's mux-lane cursor is
//!   written with `SeqCst` ops, so SC exploration matches what ships;
//!   the telemetry seqlock publishes with release/acquire fences, so
//!   its model checks the interleavings, and the fence placement rests
//!   on the standard seqlock argument (the writer's release fence after
//!   the odd sequence store, the reader's acquire fence before its
//!   re-check).
//! * **Deadlocks are detected**: if every unfinished thread is blocked,
//!   the execution fails with the offending schedule path.
//! * **Panics propagate**: an assertion failure in any thread aborts
//!   the run and re-panics on the caller with the schedule path that
//!   produced it, so a failing interleaving is reproducible by eye.
//! * Bounds ([`Bounds`]) cap threads per execution, scheduling branches
//!   per execution, and total executions. Exceeding a bound is a
//!   *failure*, not a truncation — a model that outgrows its bounds no
//!   longer proves anything, and says so.
//!
//! [`loom`]: https://docs.rs/loom

use std::sync::Arc;

mod rt;

pub mod sync;
pub mod thread;

pub use rt::Bounds;

/// Exhaustively explore every interleaving of `f` under the default
/// [`Bounds`]. Panics (with the schedule path) on the first failing
/// interleaving: assertion failure, deadlock, or exceeded bound.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    model_with(Bounds::default(), f)
}

/// [`model`] with explicit bounds.
pub fn model_with<F>(bounds: Bounds, f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    rt::explore(bounds, Arc::new(f));
}
