//! Fabric-wide traffic statistics.
//!
//! Experiments use these counters to report how much data crossed the
//! simulated network — e.g. to show that near-data compaction collapses
//! compaction traffic to (almost) zero.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::verbs::Verb;

/// Per-verb counters of one queue pair. A `QueuePair` posts through
/// `&mut self`, so every word has one writer at a time: an increment is a
/// plain load + store on a line no other poster touches, and a reader on
/// any thread still sees an exact value. This block is the only place a
/// posted verb is counted; [`FabricStats`] sums the blocks.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct QpTraffic {
    ops: [AtomicU64; 6],
    bytes: [AtomicU64; 6],
}

impl QpTraffic {
    pub(crate) fn accumulate(&self, verb: Verb, bytes: usize) {
        let (ops, total) = (&self.ops[verb as usize], &self.bytes[verb as usize]);
        // ORDERING: relaxed — single-writer statistics (see the type docs);
        // ownership of the queue pair moves between threads with its own
        // happens-before edge.
        ops.store(ops.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        // ORDERING: relaxed — same single-writer counter discipline.
        total.store(total.load(Ordering::Relaxed) + bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for i in 0..6 {
            // ORDERING: relaxed — stats reads; each word is exact on its own.
            s.ops[i] = self.ops[i].load(Ordering::Relaxed);
            s.bytes[i] = self.bytes[i].load(Ordering::Relaxed);
        }
        s
    }
}

/// Per-verb operation/byte counters for one fabric: the sum of every live
/// queue pair's block plus the total of the queue pairs already dropped.
#[derive(Default)]
pub struct FabricStats {
    blocks: Mutex<Blocks>,
}

#[derive(Default)]
struct Blocks {
    retired: StatsSnapshot,
    live: Vec<Arc<QpTraffic>>,
}

impl Blocks {
    /// Fold into `retired` every block whose queue pair is gone (the
    /// registry holds the last reference, so nobody can post to it again).
    fn sweep(&mut self) {
        let retired = &mut self.retired;
        // `get_mut` succeeds only for the last reference, and acquires the
        // dropped queue pair's release of its own: its last counts are
        // visible.
        self.live.retain_mut(|block| match Arc::get_mut(block) {
            Some(block) => {
                retired.merge(&block.snapshot());
                false
            }
            None => true,
        });
    }
}

impl FabricStats {
    /// A fresh counter block for a new queue pair.
    pub(crate) fn register(&self) -> Arc<QpTraffic> {
        let block = Arc::new(QpTraffic::default());
        let mut blocks = self.blocks.lock();
        blocks.sweep();
        blocks.live.push(Arc::clone(&block));
        block
    }

    /// Number of operations posted with `verb` so far.
    pub fn ops(&self, verb: Verb) -> u64 {
        self.snapshot().ops(verb)
    }

    /// Payload bytes moved by `verb` so far.
    pub fn bytes(&self, verb: Verb) -> u64 {
        self.snapshot().bytes(verb)
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut blocks = self.blocks.lock();
        blocks.sweep();
        let mut s = blocks.retired;
        for block in &blocks.live {
            s.merge(&block.snapshot());
        }
        s
    }
}

/// An immutable copy of [`FabricStats`], supporting deltas.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    ops: [u64; 6],
    bytes: [u64; 6],
}

impl StatsSnapshot {
    /// Operations posted with `verb`.
    pub fn ops(&self, verb: Verb) -> u64 {
        self.ops[verb as usize]
    }

    /// Payload bytes moved by `verb`.
    pub fn bytes(&self, verb: Verb) -> u64 {
        self.bytes[verb as usize]
    }

    /// Total operations across all verbs.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Total payload bytes across all verbs.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Count one operation (for building expected values in tests and
    /// folding traffic outside a fabric).
    pub fn accumulate(&mut self, verb: Verb, bytes: usize) {
        self.ops[verb as usize] += 1;
        self.bytes[verb as usize] += bytes as u64;
    }

    /// Counter-wise sum (e.g. folding per-QP traffic across clients).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        for i in 0..6 {
            self.ops[i] += other.ops[i];
            self.bytes[i] += other.bytes[i];
        }
    }

    /// Counter-wise `self - earlier` (saturating), for measuring one
    /// experiment phase.
    #[must_use]
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut out = StatsSnapshot::default();
        for i in 0..6 {
            out.ops[i] = self.ops[i].saturating_sub(earlier.ops[i]);
            out.bytes[i] = self.bytes[i].saturating_sub(earlier.bytes[i]);
        }
        out
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for v in Verb::ALL {
            let (ops, bytes) = (self.ops(v), self.bytes(v));
            if ops != 0 {
                write!(f, "{}: {} ops / {:.1} MiB; ", v.name(), ops, bytes as f64 / (1 << 20) as f64)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = FabricStats::default();
        let qp = s.register();
        qp.accumulate(Verb::Read, 100);
        qp.accumulate(Verb::Read, 50);
        s.register().accumulate(Verb::Write, 7); // block dropped at once: retired
        assert_eq!(s.ops(Verb::Read), 2);
        assert_eq!(s.bytes(Verb::Read), 150);
        let snap = s.snapshot();
        assert_eq!(snap.ops(Verb::Write), 1);
        assert_eq!(snap.total_ops(), 3);
        assert_eq!(snap.total_bytes(), 157);
    }

    #[test]
    fn delta_measures_a_phase() {
        let s = FabricStats::default();
        let qp = s.register();
        qp.accumulate(Verb::Send, 10);
        let before = s.snapshot();
        qp.accumulate(Verb::Send, 20);
        qp.accumulate(Verb::FetchAdd, 8);
        drop(qp); // retiring a block neither loses nor repeats its counts
        let d = s.snapshot().delta(&before);
        assert_eq!(d.ops(Verb::Send), 1);
        assert_eq!(d.bytes(Verb::Send), 20);
        assert_eq!(d.ops(Verb::FetchAdd), 1);
        assert_eq!(d.ops(Verb::Read), 0);
    }

    #[test]
    fn display_skips_idle_verbs() {
        let s = FabricStats::default();
        s.register().accumulate(Verb::Write, 1 << 20);
        let text = s.snapshot().to_string();
        assert!(text.contains("write"));
        assert!(!text.contains("cas"));
    }
}
