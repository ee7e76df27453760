//! dlsm-check: concurrency correctness tooling for the dLSM reproduction.
//!
//! Two independent halves, both dependency-free in the spirit of
//! `crates/telemetry` and `crates/trace`:
//!
//! * **Model checker** ([`Checker`] + [`shim`]): a loom-style deterministic
//!   scheduler that exhaustively explores thread interleavings of small
//!   model programs under a preemption bound, with an acquire/release
//!   visibility model for the shim atomics. `crates/skiplist`,
//!   `crates/trace`, and `crates/telemetry` compile their sync primitives
//!   through [`shim`] when built with their `shim` feature, so the model
//!   tests in `crates/check/tests` drive the *real* data-structure code.
//! * **Source lint** ([`lint`] + the `dlsm_lint` binary): a hand-rolled
//!   scanner (no syn, no proc macros) that fails CI on an untagged
//!   `Ordering::Relaxed`, and on a panic site or blocking call in an engine
//!   crate without its `PANIC-SAFE:` / `HOTPATH:` tag. Tag conventions are
//!   described in DESIGN.md §9; undocumented `unsafe` is clippy's.
//!
//! See DESIGN.md §9 "Correctness tooling" for how to write a model test.

mod exec;
mod explore;
pub mod lint;
pub mod shim;

pub use explore::{Checker, Report, Violation};

#[cfg(test)]
mod tests {
    use super::shim::{fence, thread, AtomicBool, AtomicU64, Mutex, Ordering};
    use super::Checker;
    use std::sync::Arc;

    /// Passthrough sanity: shim types behave like std outside a model.
    #[test]
    fn passthrough_outside_model() {
        let a = AtomicU64::new(7);
        assert_eq!(a.load(Ordering::SeqCst), 7);
        a.store(9, Ordering::SeqCst);
        assert_eq!(a.fetch_add(1, Ordering::SeqCst), 9);
        assert_eq!(a.compare_exchange(10, 11, Ordering::SeqCst, Ordering::SeqCst), Ok(10));
        let m = Mutex::new(5u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        let h = thread::spawn(|| 42u32);
        assert_eq!(h.join().unwrap(), 42);
    }

    /// Two unsynchronized increments lose an update in some interleaving:
    /// the checker must find it (and report a schedule).
    #[test]
    fn finds_lost_update() {
        let report = Checker::new("lost-update").explore(|| {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = thread::spawn(move || {
                let v = c2.load(Ordering::Acquire);
                c2.store(v + 1, Ordering::Release);
            });
            let v = c.load(Ordering::Acquire);
            c.store(v + 1, Ordering::Release);
            t.join().unwrap();
            assert_eq!(c.load(Ordering::Acquire), 2, "lost update");
        });
        let v = report.violation.expect("checker must find the lost update");
        assert!(v.message.contains("lost update"), "unexpected violation: {}", v.message);
        assert!(!v.schedule.is_empty());
    }

    /// The same program with fetch_add is correct and must verify completely.
    #[test]
    fn atomic_increment_is_exhaustively_correct() {
        let report = Checker::new("rmw-increment").check(|| {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = thread::spawn(move || {
                c2.fetch_add(1, Ordering::AcqRel);
            });
            c.fetch_add(1, Ordering::AcqRel);
            t.join().unwrap();
            assert_eq!(c.load(Ordering::Acquire), 2);
        });
        assert!(report.complete);
        assert!(report.executions > 1, "must explore more than one interleaving");
    }

    /// Message-passing litmus: Relaxed publication lets the consumer observe
    /// the flag without the data — the visibility model must expose it.
    #[test]
    fn relaxed_publication_races() {
        let report = Checker::new("mp-relaxed").explore(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicBool::new(false));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let t = thread::spawn(move || {
                d2.store(1, Ordering::Relaxed);
                f2.store(true, Ordering::Relaxed);
            });
            if flag.load(Ordering::Relaxed) {
                assert_eq!(data.load(Ordering::Relaxed), 1, "saw flag but stale data");
            }
            t.join().unwrap();
        });
        assert!(
            report.violation.is_some(),
            "relaxed message passing must exhibit the stale read ({} interleavings explored)",
            report.executions
        );
    }

    /// Same litmus with Release/Acquire is correct.
    #[test]
    fn release_acquire_publication_is_safe() {
        let report = Checker::new("mp-relacq").check(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicBool::new(false));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let t = thread::spawn(move || {
                d2.store(1, Ordering::Relaxed);
                f2.store(true, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) {
                assert_eq!(data.load(Ordering::Relaxed), 1);
            }
            t.join().unwrap();
        });
        assert!(report.complete);
    }

    /// Fence-based publication (the seqlock write pattern) is also safe:
    /// relaxed stores after a Release fence carry the fence's view.
    #[test]
    fn release_fence_publication_is_safe() {
        let report = Checker::new("mp-fence").check(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicU64::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let t = thread::spawn(move || {
                d2.store(1, Ordering::Relaxed);
                fence(Ordering::Release);
                f2.store(1, Ordering::Relaxed);
            });
            if flag.load(Ordering::Relaxed) == 1 {
                fence(Ordering::Acquire);
                assert_eq!(data.load(Ordering::Relaxed), 1);
            }
            t.join().unwrap();
        });
        assert!(report.complete);
    }

    /// Mutexes serialize and publish: unsynchronized counter behind a shim
    /// Mutex is exhaustively correct, and a deadlock (lock order inversion)
    /// is detected.
    #[test]
    fn mutex_counter_and_deadlock() {
        let report = Checker::new("mutex-counter").check(|| {
            let c = Arc::new(Mutex::new(0u64));
            let c2 = Arc::clone(&c);
            let t = thread::spawn(move || {
                *c2.lock() += 1;
            });
            *c.lock() += 1;
            t.join().unwrap();
            assert_eq!(*c.lock(), 2);
        });
        assert!(report.complete);

        let report = Checker::new("lock-inversion").explore(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop(_ga);
            drop(_gb);
            t.join().unwrap();
        });
        let v = report.violation.expect("lock inversion must deadlock in some interleaving");
        assert!(v.message.contains("deadlock"), "unexpected violation: {}", v.message);
    }

    /// model_rand_u64 is deterministic per (thread, call) across replays —
    /// the same schedule must see the same values.
    #[test]
    fn model_rng_replay_stable() {
        use std::sync::Mutex as StdMutex;
        let seen: Arc<StdMutex<Option<Vec<u64>>>> = Arc::new(StdMutex::new(None));
        let seen2 = Arc::clone(&seen);
        let report = Checker::new("rng").check(move || {
            let vals: Vec<u64> =
                (0..4).map(|_| super::shim::model_rand_u64().expect("in model")).collect();
            let mut g = seen2.lock().unwrap();
            match &*g {
                None => *g = Some(vals),
                Some(prev) => assert_eq!(prev, &vals, "model rng not replay-stable"),
            }
        });
        assert!(report.complete);
    }
}
