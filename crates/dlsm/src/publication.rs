//! In-order sequence publication.
//!
//! Concurrent writers draw sequence numbers with `fetch_add` (paper Sec. IV)
//! and insert lock-free, so inserts *complete* out of order. If readers took
//! the raw counter as their snapshot horizon, a read could observe sequence
//! `s` but miss a still-in-flight `s' < s` — and a later read could then
//! surface `s'`'s older sibling, a non-monotone anomaly. LevelDB/RocksDB
//! avoid this by only advancing the visible `last_sequence` once every
//! earlier write has landed; this module provides that publication order for
//! concurrent writers.
//!
//! Every drawn sequence block is published exactly once — after its insert
//! completes, or immediately when a writer abandons it (stale range, arena
//! full), or by the switch path for counter jumps — and the visible horizon
//! `upto` advances only across a contiguous published prefix. Out-of-order
//! publishers park their block in a side map; the publisher of the gap
//! drains the parked prefix. The fast path (in-order publish) is a single
//! compare-free store under the parked lock only when parking is possible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::collections::BTreeMap;

use dlsm_sstable::key::SeqNo;
use parking_lot::Mutex;

/// Tracks the contiguous prefix of published sequence numbers.
pub struct Publication {
    /// First unpublished sequence number. `horizon() = upto - 1`.
    upto: AtomicU64,
    /// Blocks published out of order: start → length.
    parked: Mutex<BTreeMap<SeqNo, u64>>,
}

impl Publication {
    /// Start with `first` as the first sequence number ever drawn.
    pub fn new(first: SeqNo) -> Publication {
        Publication { upto: AtomicU64::new(first), parked: Mutex::new(BTreeMap::new()) }
    }

    /// The snapshot horizon: every sequence number ≤ this is either inserted
    /// or permanently unused.
    pub fn horizon(&self) -> SeqNo {
        self.upto.load(Ordering::Acquire).saturating_sub(1)
    }

    /// Publish the block `[first, first + n)`. Never blocks on other
    /// publishers beyond the parked-map lock.
    pub fn publish(&self, first: SeqNo, n: u64) {
        if n == 0 {
            return;
        }
        let mut parked = self.parked.lock();
        let cur = self.upto.load(Ordering::Acquire);
        debug_assert!(cur <= first, "block {first} (+{n}) published twice (upto {cur})");
        if cur != first {
            parked.insert(first, n);
            return;
        }
        // We close the gap: drain the contiguous parked prefix.
        let mut end = first + n;
        while let Some((&s, &c)) = parked.first_key_value() {
            if s == end {
                parked.remove(&s);
                end += c;
            } else {
                debug_assert!(s > end, "parked block {s} overlaps published prefix {end}");
                break;
            }
        }
        self.upto.store(end, Ordering::Release);
    }

    /// Spin (with yields) until `seq` is visible — i.e. every write up to and
    /// including `seq` is published. Writers call this before returning so
    /// callers get read-your-writes.
    pub fn wait_visible(&self, seq: SeqNo) {
        let mut spins = 0u32;
        while self.upto.load(Ordering::Acquire) <= seq {
            spins += 1;
            if spins.is_multiple_of(16) {
                // HOTPATH: read-your-writes publication wait; gaps close in
                // nanoseconds (a racing writer's store), so spinning beats a
                // parked wait. Bounding it is ROADMAP's parked completion-driven runtime.
                std::thread::yield_now();
            } else {
                // HOTPATH: same publication wait (see above).
                std::hint::spin_loop();
            }
        }
    }
}

impl std::fmt::Debug for Publication {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publication")
            // ORDERING: relaxed — Debug formatting only.
            .field("upto", &self.upto.load(Ordering::Relaxed))
            .field("parked", &self.parked.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn in_order_publish_advances() {
        let p = Publication::new(1);
        assert_eq!(p.horizon(), 0);
        p.publish(1, 1);
        assert_eq!(p.horizon(), 1);
        p.publish(2, 3);
        assert_eq!(p.horizon(), 4);
    }

    #[test]
    fn out_of_order_parks_then_drains() {
        let p = Publication::new(1);
        p.publish(3, 1); // parked
        p.publish(2, 1); // parked
        assert_eq!(p.horizon(), 0);
        p.publish(1, 1); // closes the gap, drains 2 and 3
        assert_eq!(p.horizon(), 3);
    }

    #[test]
    fn jump_blocks_cover_unfetched_ranges() {
        let p = Publication::new(1);
        p.publish(1, 1);
        // A switch jumped the counter from 2 to 100.
        p.publish(2, 98);
        p.publish(100, 1);
        assert_eq!(p.horizon(), 100);
    }

    #[test]
    fn wait_visible_returns_once_published() {
        let p = Arc::new(Publication::new(1));
        let p2 = Arc::clone(&p);
        let t = std::thread::spawn(move || {
            p2.wait_visible(3);
            p2.horizon()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        p.publish(2, 2); // parked
        p.publish(1, 1); // drains through 3
        assert!(t.join().unwrap() >= 3);
    }

    #[test]
    fn concurrent_publishers_form_contiguous_prefix() {
        let p = Arc::new(Publication::new(0));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    // Each thread publishes the blocks congruent to t mod 8.
                    for b in (t..800).step_by(8) {
                        p.publish(b, 1);
                    }
                });
            }
        });
        assert_eq!(p.horizon(), 799);
    }
}
