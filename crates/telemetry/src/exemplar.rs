//! Histogram exemplars: every high-latency bucket remembers *which trace*
//! last landed in it (DESIGN.md §8a).
//!
//! A percentile alone says *how slow*; an exemplar pins the number to a
//! concrete op so `p999` in the bench JSON resolves to a complete trace in
//! the slowest-traces cut. One [`ExemplarStore`] sits next to a
//! [`Histogram`](crate::Histogram): per bucket, a [`SeqSlot`] holding
//! `[value_ns, trace_id, seq]`. Recorders are *try-lock* writers
//! ([`SeqSlot::try_publish`]) — a slot mid-claim is simply skipped (the
//! exemplar is "a recent sample", not an exact one), so the hot path never
//! blocks and never spins: one load, one CAS, three stores on success.

use crate::hist::{bucket_floor, bucket_index, bucket_max, BUCKETS};
use dlsm_trace::sync::{AtomicU64, Ordering};
use dlsm_trace::SeqSlot;

/// One captured exemplar: a recent sample that landed in `bucket`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Histogram bucket index (same scale as [`bucket_index`]).
    pub bucket: usize,
    /// The sampled latency, nanoseconds.
    pub value_ns: u64,
    /// Trace id of the op that produced the sample (dlsm-trace namespace).
    pub trace_id: u64,
    /// Store-local claim order; strictly increasing per [`ExemplarStore`],
    /// so "newer exemplar for the same bucket" is decidable.
    pub seq: u64,
}

impl Exemplar {
    /// Lower bound (ns) of the bucket this exemplar landed in.
    pub fn bucket_floor_ns(&self) -> u64 {
        bucket_floor(self.bucket)
    }

    /// Upper bound (ns) of the bucket this exemplar landed in.
    pub fn bucket_max_ns(&self) -> u64 {
        bucket_max(self.bucket)
    }
}

/// Per-bucket latest-exemplar slots for one histogram. Multi-writer
/// (try-lock seqlock per slot), any-reader.
pub struct ExemplarStore {
    slots: Box<[SeqSlot<3>]>,
    next_seq: AtomicU64,
}

impl Default for ExemplarStore {
    fn default() -> ExemplarStore {
        ExemplarStore::new()
    }
}

impl std::fmt::Debug for ExemplarStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ORDERING: relaxed — debug-only approximate count.
        write!(f, "ExemplarStore {{ recorded: {} }}", self.next_seq.load(Ordering::Relaxed))
    }
}

impl ExemplarStore {
    pub fn new() -> ExemplarStore {
        ExemplarStore {
            slots: (0..BUCKETS).map(|_| SeqSlot::new()).collect(),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Try to install `(value_ns, trace_id)` as its bucket's exemplar.
    /// Lossy by design: if another recorder holds the slot the sample is
    /// dropped. A `trace_id` of 0 (no trace open) is ignored.
    pub fn record(&self, value_ns: u64, trace_id: u64) {
        if trace_id == 0 {
            return;
        }
        self.slots[bucket_index(value_ns)].try_publish(|| {
            // ORDERING: relaxed — seq claim under the slot claim;
            // uniqueness/monotonicity only.
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
            [value_ns, trace_id, seq]
        });
    }

    /// True while no exemplar was ever offered with a trace id.
    pub fn is_empty(&self) -> bool {
        // ORDERING: relaxed — a hint: a record racing this read may be missed,
        // as it may be by a snapshot.
        self.next_seq.load(Ordering::Relaxed) == 0
    }

    /// One seqlock read of a bucket slot; `None` if never written or torn.
    fn read(&self, bucket: usize) -> Option<Exemplar> {
        let [value_ns, trace_id, seq] = self.slots[bucket].read()?;
        Some(Exemplar { bucket, value_ns, trace_id, seq })
    }

    /// Every captured exemplar, ascending by bucket.
    pub fn snapshot(&self) -> Vec<Exemplar> {
        (0..BUCKETS).filter_map(|b| self.read(b)).collect()
    }

    /// Exemplars whose bucket can hold `threshold_ns` or slower samples —
    /// the "≥ p99" cut: pass a p99 and get one exemplar per occupied high
    /// bucket, pinning the tail (p999, max) to concrete traces.
    pub fn snapshot_above(&self, threshold_ns: u64) -> Vec<Exemplar> {
        let lo = bucket_index(threshold_ns);
        (lo..BUCKETS).filter_map(|b| self.read(b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_latest_per_bucket_and_filters() {
        let s = ExemplarStore::new();
        s.record(1_000, 0xA);
        s.record(1_000, 0xB); // same bucket: replaces
        s.record(1_000_000, 0xC);
        let all = s.snapshot();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].trace_id, 0xB);
        assert_eq!(all[0].bucket, bucket_index(1_000));
        assert!(all[0].seq < all[1].seq);
        let high = s.snapshot_above(500_000);
        assert_eq!(high.len(), 1);
        assert_eq!(high[0].trace_id, 0xC);
        assert!(high[0].bucket_floor_ns() <= 1_000_000);
        assert!(high[0].bucket_max_ns() >= 1_000_000);
    }

    #[test]
    fn zero_trace_id_is_ignored() {
        let s = ExemplarStore::new();
        s.record(5_000, 0);
        assert!(s.snapshot().is_empty());
    }
}
