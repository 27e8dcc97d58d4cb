//! Engine self-checks: the explorer must accept correct protocols,
//! and — the part that earns trust — *find* the bad interleaving in
//! broken ones.

use std::sync::Arc;

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Mutex;
use loom::thread;

#[test]
fn mutex_counter_is_exact_under_all_interleavings() {
    loom::model(|| {
        let counter = Arc::new(Mutex::new(0usize));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = counter.clone();
                thread::spawn(move || {
                    *counter.lock().unwrap() += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock().unwrap(), 2);
    });
}

#[test]
#[should_panic(expected = "failing interleaving")]
fn finds_the_lost_update_in_a_naive_rmw() {
    loom::model(|| {
        let a = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let a = a.clone();
                thread::spawn(move || {
                    // Non-atomic read-modify-write: some schedule loses
                    // one increment, and the explorer must find it.
                    let v = a.load(Ordering::SeqCst);
                    a.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::SeqCst), 2);
    });
}

#[test]
#[should_panic(expected = "deadlock")]
fn finds_the_ab_ba_deadlock() {
    loom::model(|| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let t = {
            let (a, b) = (a.clone(), b.clone());
            thread::spawn(move || {
                let _ga = a.lock().unwrap();
                let _gb = b.lock().unwrap();
            })
        };
        {
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
        }
        t.join().unwrap();
    });
}

#[test]
#[should_panic(expected = "failing interleaving")]
fn a_failure_before_a_spawned_thread_first_runs_is_reported() {
    // The first schedule keeps the spawned thread waiting for the token
    // while the model fails: the abort must unwind that waiting thread,
    // not leave `explore` waiting for it forever.
    loom::model(|| {
        let flag = Arc::new(AtomicUsize::new(0));
        let t = {
            let flag = flag.clone();
            thread::spawn(move || flag.store(1, Ordering::SeqCst))
        };
        assert_eq!(flag.load(Ordering::SeqCst), 1, "spawned thread not run");
        t.join().unwrap();
    });
}

#[test]
fn yield_is_a_plain_scheduling_point() {
    loom::model(|| {
        let flag = Arc::new(AtomicUsize::new(0));
        let t = {
            let flag = flag.clone();
            thread::spawn(move || flag.store(1, Ordering::SeqCst))
        };
        thread::yield_now();
        // Either order is legal; the value is 1 after the join always.
        t.join().unwrap();
        assert_eq!(flag.load(Ordering::SeqCst), 1);
    });
}
