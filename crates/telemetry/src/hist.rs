//! Lock-free log-bucketed histograms.
//!
//! The bucket layout is the classic log-linear scheme (HdrHistogram,
//! DDSketch's integer cousin): values below `2 * SUB` get one bucket each
//! (exact), and every power-of-two octave above that is split into `SUB`
//! linear sub-buckets. With `SUB = 8` the relative width of any bucket is
//! at most 1/8, so a quantile read off a bucket boundary is within 12.5%
//! of the true value — and always within *one bucket* of the bucket the
//! true value falls in, which is the bound the property tests assert.
//!
//! Three faces of the same layout:
//!
//! * [`Histogram`] — shared, concurrent recording; plain `AtomicU64`
//!   buckets with `Relaxed` ordering (three atomic RMWs per record, no
//!   locks anywhere).
//! * [`LocalHist`] — thread-local recording for benchmark inner loops
//!   (plain integer adds), merged into a [`Histogram`] at phase end.
//! * [`HistSnapshot`] — a frozen copy supporting quantiles, merge and
//!   delta; this is what crosses thread/process boundaries and lands in
//!   JSON.

use dlsm_trace::sync::{AtomicU64, Ordering};

/// log2 of the number of linear sub-buckets per octave.
const SUB_BITS: u32 = 3;
/// Linear sub-buckets per octave (8 → ≤12.5% bucket width).
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: indexes 0..=15 are exact, then 60 octaves × 8.
pub const BUCKETS: usize = 496;

/// Map a value to its bucket index. Total order preserving: monotone in
/// `v`, exact for `v < 16`, and `bucket_floor(i) <= v <= bucket_max(i)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 2 * SUB {
        v as usize
    } else {
        let bits = 64 - v.leading_zeros(); // 2^(bits-1) <= v < 2^bits
        let shift = bits - 1 - SUB_BITS;
        (shift as usize) * (SUB as usize) + (v >> shift) as usize
    }
}

/// Smallest value mapping to bucket `i`.
#[inline]
pub fn bucket_floor(i: usize) -> u64 {
    if i < (2 * SUB) as usize {
        i as u64
    } else {
        let shift = (i as u64) / SUB - 1;
        let m = (i as u64) - shift * SUB; // 8..=15
        m << shift
    }
}

/// Largest value mapping to bucket `i` (saturating at `u64::MAX`).
#[inline]
pub fn bucket_max(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_floor(i + 1) - 1
    }
}

/// Shared concurrent histogram. Recording is three `Relaxed` atomic RMWs
/// (bucket, sum, max); there is no lock and no CAS loop beyond what
/// `fetch_max` needs. Snapshots taken while writers run are "torn" only in
/// the sense that they cut between atomic ops — every recorded value is in
/// exactly one bucket, none is lost.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram({})", self.snapshot())
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        let buckets = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value (typically nanoseconds).
    #[inline]
    pub fn record(&self, v: u64) {
        // RMWs never lose an update regardless of ordering, and the three
        // words are not read as a consistent triple: snapshots are
        // ORDERING: relaxed — explicitly approximate while recording.
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record an elapsed [`std::time::Duration`] in nanoseconds.
    #[inline]
    pub fn record_elapsed(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// [`Histogram::record`] for a histogram only one thread records into
    /// (a block owned by that thread): a plain load + store per word
    /// instead of three atomic read-modify-writes. Snapshots from other
    /// threads stay exact; a second concurrent recorder would lose updates.
    #[inline]
    pub fn record_exclusive(&self, v: u64) {
        self.record_exclusive_n(v, 1);
    }

    /// [`Histogram::record_exclusive`] of `n` samples of value `v` at once:
    /// a recorder that measures one event in `n` gives the measured one the
    /// weight of all, and count and sum stay those of every event.
    #[inline]
    pub fn record_exclusive_n(&self, v: u64, n: u64) {
        let bucket = &self.buckets[bucket_index(v)];
        // ORDERING: relaxed — single-writer words (see above); snapshots
        // are approximate while recording, as for `record`.
        bucket.store(bucket.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        let total = v.wrapping_mul(n);
        // ORDERING: relaxed — same single-writer discipline.
        self.sum.store(self.sum.load(Ordering::Relaxed).wrapping_add(total), Ordering::Relaxed);
        // ORDERING: relaxed — same single-writer discipline.
        if v > self.max.load(Ordering::Relaxed) {
            // ORDERING: relaxed — same single-writer discipline.
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// Fold a thread-local histogram in (one atomic add per non-empty
    /// bucket — the benchmark-phase merge path).
    pub fn merge_local(&self, local: &LocalHist) {
        for (i, &n) in local.buckets.iter().enumerate() {
            if n != 0 {
                // ORDERING: relaxed — same rationale as record().
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        if local.sum != 0 {
            // ORDERING: relaxed — same rationale as record().
            self.sum.fetch_add(local.sum, Ordering::Relaxed);
        }
        // ORDERING: relaxed — same rationale as record().
        self.max.fetch_max(local.max, Ordering::Relaxed);
    }

    /// Freeze the current contents.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        let mut count = 0u64;
        for (b, a) in buckets.iter_mut().zip(self.buckets.iter()) {
            // ORDERING: relaxed — snapshots taken while recorders are live
            // are approximate by contract; quiescent readers (benchmark
            // end) are ordered by the thread join.
            *b = a.load(Ordering::Relaxed);
            count += *b;
        }
        HistSnapshot {
            buckets,
            count,
            // ORDERING: relaxed — see the bucket loads above.
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Unsynchronized histogram for a single thread's inner loop: recording is
/// two integer adds and a compare. Merge into a shared [`Histogram`] (or
/// another `LocalHist`) when the phase ends.
#[derive(Clone)]
pub struct LocalHist {
    buckets: Box<[u64]>,
    sum: u64,
    max: u64,
}

impl Default for LocalHist {
    fn default() -> Self {
        LocalHist::new()
    }
}

impl LocalHist {
    pub fn new() -> LocalHist {
        LocalHist { buckets: vec![0u64; BUCKETS].into_boxed_slice(), sum: 0, max: 0 }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        // Wrapping, to match `AtomicU64::fetch_add` semantics in the shared
        // histogram (a wrapped sum only garbles `mean`, never quantiles).
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    #[inline]
    pub fn record_elapsed(&mut self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn merge(&mut self, other: &LocalHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self.buckets.to_vec(),
            count: self.buckets.iter().sum(),
            sum: self.sum,
            max: self.max,
        }
    }
}

/// A frozen histogram: quantiles, mean, merge, delta. Values are whatever
/// unit was recorded (nanoseconds throughout this workspace).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot { buckets: vec![0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl HistSnapshot {
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest single value recorded. Note: carried through [`delta`]
    /// unchanged (it is a lifetime high-water mark, not differential).
    ///
    /// [`delta`]: HistSnapshot::delta
    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q * count)`-th smallest sample, clamped to the
    /// observed max. Within one log-bucket (≤12.5% relative error) of the
    /// true order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_max(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Pointwise sum — the cross-thread / cross-shard combine. Associative
    /// and commutative; total count is preserved (property-tested).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded since `earlier` was taken (pointwise saturating
    /// subtraction; both snapshots must come from the same histogram).
    /// `max` stays the lifetime high-water mark — see [`HistSnapshot::max`].
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut buckets = self.buckets.clone();
        for (a, b) in buckets.iter_mut().zip(earlier.buckets.iter()) {
            *a = a.saturating_sub(*b);
        }
        HistSnapshot {
            count: buckets.iter().sum(),
            buckets,
            // Wrapping: sums wrap on record, so the wrapped difference is
            // exactly the (wrapped) sum of the in-between samples.
            sum: self.sum.wrapping_sub(earlier.sum),
            max: self.max,
        }
    }

    /// Iterate non-empty buckets as `(floor, count)` — the JSON dump form.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n != 0)
            .map(|(i, &n)| (bucket_floor(i), n))
    }

    /// Iterate non-empty buckets as `(upper_bound, cumulative_count)` —
    /// the Prometheus `_bucket{le=...}` form. Counts are cumulative and
    /// therefore non-decreasing; the last yielded pair (if any) has
    /// cumulative count == `count()`. The final bucket's bound saturates
    /// at `u64::MAX` (rendered as `+Inf` by the exporter).
    pub fn cumulative_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cum = 0u64;
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n != 0)
            .map(move |(i, &n)| {
                cum += n;
                (bucket_max(i), cum)
            })
    }
}

impl std::fmt::Display for HistSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1}us p50={:.1}us p99={:.1}us max={:.1}us",
            self.count,
            self.mean() / 1_000.0,
            self.p50() as f64 / 1_000.0,
            self.p99() as f64 / 1_000.0,
            self.max as f64 / 1_000.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_inverse() {
        // Exhaustive over the small range, spot checks above.
        let mut prev = 0;
        for v in 0..4096u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            prev = i;
            assert!(bucket_floor(i) <= v && v <= bucket_max(i), "v={v} i={i}");
        }
        for shift in 4..63 {
            for off in [0u64, 1, 7] {
                let v = (1u64 << shift) + off;
                let i = bucket_index(v);
                assert!(bucket_floor(i) <= v && v <= bucket_max(i));
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
    }

    #[test]
    fn bucket_width_within_one_eighth() {
        for i in 16..BUCKETS - 1 {
            let floor = bucket_floor(i);
            let width = bucket_max(i) - floor + 1;
            assert!(width * 8 <= floor, "bucket {i}: width {width} floor {floor}");
        }
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max(), 1000);
        // p50 of 1..=1000 is 500; bucket upper bound of 500's bucket.
        let p50 = s.p50();
        assert_eq!(bucket_index(p50), bucket_index(500), "p50={p50}");
        let p99 = s.p99();
        assert_eq!(bucket_index(p99), bucket_index(990), "p99={p99}");
        assert!(s.quantile(1.0) <= 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn local_merge_equals_direct() {
        let shared = Histogram::new();
        let mut local = LocalHist::new();
        for v in [0u64, 1, 17, 300, 5_000_000, u64::MAX] {
            shared.record(v);
            local.record(v);
        }
        let dst = Histogram::new();
        dst.merge_local(&local);
        assert_eq!(dst.snapshot(), shared.snapshot());
        assert_eq!(local.snapshot(), shared.snapshot());
    }

    #[test]
    fn delta_subtracts() {
        let h = Histogram::new();
        h.record(100);
        h.record(200);
        let before = h.snapshot();
        h.record(300);
        h.record(100);
        let after = h.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 400);
        assert_eq!(after.delta(&after).count(), 0);
    }

    #[test]
    fn cumulative_buckets_monotone_and_total() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 17, 300, 300, 300, 5_000_000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let pairs: Vec<(u64, u64)> = s.cumulative_buckets().collect();
        assert!(!pairs.is_empty());
        // Bounds strictly increase, cumulative counts never decrease.
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(pairs.last().unwrap().1, s.count());
        // u64::MAX lands in the last bucket, whose bound saturates.
        assert_eq!(pairs.last().unwrap().0, u64::MAX);
        // Cross-check against the per-bucket view: cumulative of floors.
        let total: u64 = s.nonzero_buckets().map(|(_, n)| n).sum();
        assert_eq!(total, s.count());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 4;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..per {
                        h.record(t * 1_000 + (i % 97));
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), threads * per);
    }
}
