//! `loom::sync`: model-checked mutexes, condvars and atomics.
//!
//! Mutual exclusion is enforced by the scheduler (exactly one model
//! thread runs at a time), so the data cells here are plain
//! `UnsafeCell`s; what the types add is the *scheduling point* at every
//! visible operation and the blocked/runnable bookkeeping that lets the
//! engine detect deadlocks.

use std::cell::UnsafeCell;
use std::sync::LockResult;

use crate::rt;

/// A model-checked mutex; mirrors the `std::sync::Mutex` API subset
/// the workspace uses (`new`, `lock`, guard deref).
pub struct Mutex<T> {
    id: usize,
    cell: UnsafeCell<T>,
}

// SAFETY: the exploration scheduler runs exactly one model thread at a
// time, and `lock` blocks until the engine grants exclusive ownership,
// so the cell is never accessed concurrently.
unsafe impl<T: Send> Send for Mutex<T> {}
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// A new mutex registered with the current execution.
    pub fn new(value: T) -> Mutex<T> {
        let (exec, _) = rt::current();
        Mutex {
            id: exec.register_lock(),
            cell: UnsafeCell::new(value),
        }
    }

    /// Acquire (a scheduling point; blocks while another model thread
    /// holds the lock). Never poisoned: a panicking thread aborts the
    /// whole model instead.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let (exec, me) = rt::current();
        exec.lock_acquire(me, self.id);
        Ok(MutexGuard { mx: self })
    }
}

/// Guard for [`Mutex`]; releases (and reschedules) on drop.
pub struct MutexGuard<'a, T> {
    mx: &'a Mutex<T>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the engine granted this thread exclusive ownership.
        unsafe { &*self.mx.cell.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above; `&mut self` forbids aliased guards too.
        unsafe { &mut *self.mx.cell.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let (exec, me) = rt::current();
        if std::thread::panicking() {
            // Unwinding (assertion, deadlock, abort): release the lock
            // state but do not reschedule — scheduling can panic, and a
            // panic inside this destructor would abort the process.
            exec.lock_release_quiet(me, self.mx.id);
        } else {
            exec.lock_release(me, self.mx.id);
        }
    }
}

/// A model-checked condition variable; mirrors the `std::sync::Condvar`
/// API subset the workspace uses (`new`, `wait`, `notify_all`). A
/// notify wakes only the threads already asleep, so a notify sent
/// before the wait is lost, as a real one is. Spurious wake-ups are not
/// explored.
pub struct Condvar {
    id: usize,
}

impl Condvar {
    /// A new condvar registered with the current execution.
    pub fn new() -> Condvar {
        let (exec, _) = rt::current();
        Condvar {
            id: exec.register_cond(),
        }
    }

    /// Release `guard`'s mutex and sleep until notified, then re-acquire
    /// it (scheduling points on both sides).
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let (exec, me) = rt::current();
        let mx = guard.mx;
        // The engine releases and re-takes the lock itself.
        std::mem::forget(guard);
        exec.cond_wait(me, self.id, mx.id);
        Ok(MutexGuard { mx })
    }

    /// Wake every thread waiting on this condvar (a scheduling point).
    pub fn notify_all(&self) {
        let (exec, me) = rt::current();
        exec.cond_notify_all(me, self.id);
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

pub mod atomic {
    //! Model-checked atomics. Every operation is a scheduling point;
    //! all orderings behave `SeqCst` (see the crate docs).

    use std::cell::UnsafeCell;

    use crate::rt;

    pub use std::sync::atomic::Ordering;

    macro_rules! model_atomic {
        ($name:ident, $ty:ty) => {
            /// Model-checked atomic; every op is a scheduling point.
            pub struct $name {
                cell: UnsafeCell<$ty>,
            }

            // SAFETY: only the token-holding model thread touches the
            // cell, and each access completes before the token moves.
            unsafe impl Send for $name {}
            unsafe impl Sync for $name {}

            impl $name {
                /// A new atomic with `value`.
                pub fn new(value: $ty) -> $name {
                    $name {
                        cell: UnsafeCell::new(value),
                    }
                }

                fn with<R>(&self, f: impl FnOnce(&mut $ty) -> R) -> R {
                    let (exec, me) = rt::current();
                    // SAFETY: exclusive by token scheduling.
                    let out = f(unsafe { &mut *self.cell.get() });
                    exec.schedule(me);
                    out
                }

                /// Atomic load (`SeqCst` regardless of `order`).
                pub fn load(&self, _order: Ordering) -> $ty {
                    self.with(|v| *v)
                }

                /// Atomic store (`SeqCst` regardless of `order`).
                pub fn store(&self, value: $ty, _order: Ordering) {
                    self.with(|v| *v = value)
                }

                /// Atomic swap, returning the previous value.
                pub fn swap(&self, value: $ty, _order: Ordering) -> $ty {
                    self.with(|v| std::mem::replace(v, value))
                }

                /// Atomic compare-exchange (`Ok(previous)` on success).
                pub fn compare_exchange(
                    &self,
                    expect: $ty,
                    new: $ty,
                    _success: Ordering,
                    _failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.with(|v| {
                        if *v == expect {
                            *v = new;
                            Ok(expect)
                        } else {
                            Err(*v)
                        }
                    })
                }
            }
        };
    }

    model_atomic!(AtomicBool, bool);
    model_atomic!(AtomicUsize, usize);
    model_atomic!(AtomicU64, u64);

    macro_rules! model_atomic_arith {
        ($name:ident, $ty:ty) => {
            impl $name {
                /// Atomic add, returning the previous value.
                pub fn fetch_add(&self, delta: $ty, _order: Ordering) -> $ty {
                    self.with(|v| {
                        let prev = *v;
                        *v = prev.wrapping_add(delta);
                        prev
                    })
                }

                /// Atomic subtract, returning the previous value.
                pub fn fetch_sub(&self, delta: $ty, _order: Ordering) -> $ty {
                    self.with(|v| {
                        let prev = *v;
                        *v = prev.wrapping_sub(delta);
                        prev
                    })
                }

                /// Atomic max, returning the previous value.
                pub fn fetch_max(&self, value: $ty, _order: Ordering) -> $ty {
                    self.with(|v| {
                        let prev = *v;
                        *v = prev.max(value);
                        prev
                    })
                }
            }
        };
    }

    model_atomic_arith!(AtomicUsize, usize);
    model_atomic_arith!(AtomicU64, u64);

    /// An atomic fence: a scheduling point, and under sequential
    /// consistency nothing more (see the crate docs).
    pub fn fence(_order: Ordering) {
        let (exec, me) = rt::current();
        exec.schedule(me);
    }
}
