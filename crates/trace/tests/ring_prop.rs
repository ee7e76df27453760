//! Property tests for the seqlock span ring (ISSUE satellite): under
//! concurrent writers and a racing collector, a drained event is never a
//! torn mixture of two records, and after writers quiesce the ring holds
//! exactly the newest `min(n, RING_CAP)` records per thread.
//!
//! These run the *real* thread-local recorder over real OS threads; the
//! exhaustive small-state interleaving proof for the same protocol lives in
//! `crates/check/tests/model_seqlock.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use dlsm_trace::{clear, collect_events, instant, set_level, Category, EventKind, Level, RING_CAP};
use proptest::prelude::*;

/// The trace registry and enable flag are process-global; serialize every
/// test in this binary against them.
fn global_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// One distinct `&'static str` per writer; an event's name word pair and
/// its arg word are stored in the same seqlock-guarded slot, so checking
/// them against each other detects cross-record tearing.
const NAMES: [&str; 4] = ["ring-writer-0", "ring-writer-1", "ring-writer-2", "ring-writer-3"];

fn writer_id(name: &str) -> Option<u64> {
    NAMES.iter().position(|&n| n == name).map(|i| i as u64)
}

const SEQ_BITS: u64 = 32;

fn arg_of(writer: u64, seq: u64) -> u64 {
    writer << SEQ_BITS | seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N writer threads each publish `counts[w]` instants tagged
    /// `(writer, seq)` while the main thread keeps draining. Every drained
    /// event must be internally consistent (name matches the writer encoded
    /// in arg; seq in range; instants carry zero duration) — the seqlock
    /// must hide mid-write slots rather than expose torn ones. After the
    /// writers join, one quiescent drain must see exactly the newest
    /// `min(count, RING_CAP)` records of each writer, each exactly once.
    #[test]
    fn concurrent_drain_never_tears_and_quiescent_drain_is_exact(
        counts in prop::collection::vec(1usize..700, 1..=4),
        racing_drains in 1usize..5,
    ) {
        let _g = global_lock();
        set_level(Level::All);
        clear();

        let stop = AtomicBool::new(false);
        let check_event = |e: &dlsm_trace::Event| -> Result<Option<(u64, u64)>, TestCaseError> {
            // Rings from other tests/cases are zeroed by `clear`, but names
            // outside `NAMES` (none are emitted here) would mean a torn
            // name-pointer pair.
            let w = writer_id(e.name);
            prop_assert!(w.is_some(), "unknown event name {:?}: torn name ptr/len", e.name);
            let w = w.unwrap();
            let (aw, seq) = (e.arg >> SEQ_BITS, e.arg & ((1 << SEQ_BITS) - 1));
            prop_assert_eq!(aw, w, "name {:?} paired with writer-{} arg: torn slot", e.name, aw);
            prop_assert!(w < counts.len() as u64, "writer id out of range");
            prop_assert!((seq as usize) < counts[w as usize], "seq {} never written", seq);
            prop_assert_eq!(e.kind, EventKind::Instant);
            prop_assert_eq!(e.dur_us, 0, "instant with nonzero duration: torn slot");
            Ok(Some((w, seq)))
        };

        std::thread::scope(|s| -> Result<(), TestCaseError> {
            for (w, &count) in counts.iter().enumerate() {
                s.spawn(move || {
                    for seq in 0..count as u64 {
                        instant(Category::Db, NAMES[w], arg_of(w as u64, seq));
                    }
                });
            }
            // Race the collector against the writers: anything it returns
            // must already be consistent.
            let mut drains = 0;
            // ORDERING: relaxed — best-effort stop flag; scope join synchronizes.
            while !stop.load(Ordering::Relaxed) && drains < racing_drains {
                for e in collect_events() {
                    check_event(&e)?;
                }
                drains += 1;
            }
            // ORDERING: relaxed — best-effort stop flag; scope join synchronizes.
            stop.store(true, Ordering::Relaxed);
            Ok(())
        })?;

        // Quiescent drain: exact newest-suffix contents, no duplicates.
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); counts.len()];
        for e in collect_events() {
            if let Some((w, seq)) = check_event(&e)? {
                seen[w as usize].push(seq);
            }
        }
        for (w, &count) in counts.iter().enumerate() {
            let got = &mut seen[w];
            got.sort_unstable();
            let keep = count.min(RING_CAP);
            let expect: Vec<u64> = ((count - keep) as u64..count as u64).collect();
            prop_assert_eq!(
                got,
                &expect,
                "writer {} with {} writes: ring must hold exactly the newest {}",
                w,
                count,
                keep
            );
        }

        set_level(Level::Off);
        clear();
    }
}
