//! The one seqlock of the observability crates (DESIGN.md §8a): a version
//! word plus `N` payload words. The trace rings (each thread's op ring and
//! lifecycle ring) and the exemplar store (`dlsm-telemetry`) encode their
//! records into a [`SeqSlot`] and decode them back out; the protocol, its
//! fences and its model-checked proof (`crates/check/tests/model_seqlock.rs`)
//! live here once.
//!
//! The version counts publishes: odd while a writer is mid-write, even once
//! the payload is stable, and it never repeats, so a reader that sees the
//! same even version before and after its copy read one whole record. The
//! top bit marks a slot with no record (never written, or cleared).

use crate::sync::{fence, AtomicU64, Ordering};

/// Set in the version word while the slot holds no record.
const EMPTY: u64 = 1 << 63;

/// One seqlock-guarded record of `N` words.
pub struct SeqSlot<const N: usize> {
    version: AtomicU64,
    words: [AtomicU64; N],
}

impl<const N: usize> Default for SeqSlot<N> {
    fn default() -> Self {
        SeqSlot::new()
    }
}

impl<const N: usize> SeqSlot<N> {
    /// An empty slot: [`read`](Self::read) returns `None` until a publish.
    pub fn new() -> Self {
        SeqSlot {
            version: AtomicU64::new(EMPTY),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Publish `payload`. The caller must be the slot's only writer: the
    /// thread that owns a trace ring.
    pub fn publish(&self, payload: [u64; N]) {
        // ORDERING: relaxed — the Release fence below orders this odd
        // version before the payload stores.
        let v = self.version.fetch_add(1, Ordering::Relaxed) & !EMPTY;
        fence(Ordering::Release);
        self.write(payload, v);
    }

    /// Claim the slot with one CAS and publish `payload()`; `false` (the
    /// sample dropped, `payload` never called) when another writer holds
    /// the slot. Writers never block and never spin.
    pub fn try_publish(&self, payload: impl FnOnce() -> [u64; N]) -> bool {
        // ORDERING: relaxed — the claim CAS below is the synchronization
        // point; this load only seeds it.
        let seen = self.version.load(Ordering::Relaxed);
        if seen & 1 == 1 {
            return false;
        }
        let v = seen & !EMPTY;
        // ORDERING: relaxed CAS — mutual exclusion among writers only; the
        // Release fence below orders the odd version before the payload.
        if self.version.compare_exchange(seen, v + 1, Ordering::Relaxed, Ordering::Relaxed).is_err() {
            return false;
        }
        fence(Ordering::Release);
        self.write(payload(), v);
        true
    }

    fn write(&self, payload: [u64; N], v: u64) {
        for (w, x) in self.words.iter().zip(payload) {
            // ORDERING: relaxed payload stores — after the odd version by the
            // caller's Release fence, published by the Release store below.
            w.store(x, Ordering::Relaxed);
        }
        self.version.store(v + 2, Ordering::Release);
    }

    /// One read attempt: the record, or `None` when the slot is empty,
    /// mid-write, or was overwritten during the copy (torn — never returned).
    pub fn read(&self) -> Option<[u64; N]> {
        let v1 = self.version.load(Ordering::Acquire);
        if v1 & (EMPTY | 1) != 0 {
            return None;
        }
        // ORDERING: relaxed copies — the Acquire fence below plus the version
        // recheck discard any torn combination.
        let copy = std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed));
        fence(Ordering::Acquire);
        // ORDERING: relaxed — ordered after the copies by the fence above.
        (self.version.load(Ordering::Relaxed) == v1).then_some(copy)
    }

    /// Drop the record: reads return `None` until the next publish. A slot
    /// mid-write is left to its writer, whose record lands after the clear.
    /// The version keeps counting, so a reader racing a clear and a
    /// republish still sees its recheck fail.
    pub fn clear(&self) {
        // ORDERING: relaxed — setting EMPTY publishes no payload; a writer
        // that moves the version first simply wins the CAS race.
        let v = self.version.load(Ordering::Relaxed);
        if v & 1 == 0 {
            // ORDERING: relaxed — as above.
            let _ = self.version.compare_exchange(v, v | EMPTY, Ordering::Relaxed, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_publish_read_clear() {
        let s = SeqSlot::<3>::new();
        assert_eq!(s.read(), None);
        s.publish([1, 2, 3]);
        assert_eq!(s.read(), Some([1, 2, 3]));
        s.publish([4, 5, 6]);
        assert_eq!(s.read(), Some([4, 5, 6]));
        s.clear();
        assert_eq!(s.read(), None);
        s.publish([7, 8, 9]);
        assert_eq!(s.read(), Some([7, 8, 9]));
    }

    #[test]
    fn try_publish_drops_while_the_slot_is_held() {
        let s = SeqSlot::<1>::new();
        let mut nested = None;
        assert!(s.try_publish(|| {
            nested = Some(s.try_publish(|| [99]));
            [1]
        }));
        assert_eq!(nested, Some(false), "a held slot must refuse a second writer");
        assert_eq!(s.read(), Some([1]));
        s.clear();
        assert!(s.try_publish(|| [2]));
        assert_eq!(s.read(), Some([2]));
    }
}
