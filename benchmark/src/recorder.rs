//! The benchmark's own latency recorder: a log-linear histogram of
//! nanosecond values with 128 sub-buckets per octave (bucket width ≤ 1/128
//! of its lower bound, so a reported quantile is within 1 % of the true
//! one), and quantiles interpolated inside the bucket so that two runs do
//! not read the same value merely because they share a bucket.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB as usize;

#[derive(Clone)]
pub struct Recorder {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (((shift as u64 + 1) << SUB_BITS) + ((v >> shift) - SUB)) as usize
}

/// `(lower bound, width)` of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < 2 * SUB {
        return (idx, 1);
    }
    let shift = (idx >> SUB_BITS) - 1;
    ((SUB + (idx & (SUB - 1))) << shift, 1 << shift)
}

impl Recorder {
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum += nanos;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Forget every value, keeping the allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
    }

    pub fn merge(&mut self, other: &Recorder) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = bucket_range(idx);
                let into = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + width as f64 * into;
            }
            below += c;
        }
        unreachable!("rank is at most count");
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn buckets_tile_the_range() {
        let mut expect_lo = 0u64;
        for idx in 0..2000 {
            let (lo, width) = bucket_range(idx);
            assert_eq!(lo, expect_lo, "bucket {idx}");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + width - 1), idx);
            assert!(idx < 256 || width as f64 / lo as f64 <= 1.0 / 128.0);
            expect_lo = lo + width;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_are_within_one_percent_of_exact() {
        // Log-uniform latencies from 100 ns to 10 ms, like a put/get mix.
        let mut rng = Rng::new(42);
        let mut values: Vec<u64> = (0..200_000)
            .map(|_| (100.0 * 10f64.powf(rng.unit() * 5.0)) as u64)
            .collect();
        let mut rec = Recorder::default();
        values.iter().for_each(|&v| rec.record(v));
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = values[((q * values.len() as f64) as usize).min(values.len() - 1)] as f64;
            let got = rec.quantile(q);
            assert!(
                (got - exact).abs() / exact <= 0.01,
                "q{q}: got {got}, exact {exact}"
            );
        }
        let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        assert!((rec.mean() - mean).abs() < 1e-6 * mean);
    }

    #[test]
    fn merge_adds_up() {
        let (mut a, mut b) = (Recorder::default(), Recorder::default());
        (0..1000).for_each(|v| a.record(v));
        (1000..2000).for_each(|v| b.record(v));
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        assert!((a.quantile(0.5) - 1000.0).abs() <= 10.0);
    }
}
