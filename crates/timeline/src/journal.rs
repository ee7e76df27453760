//! The engine event journal: a fixed-capacity, lock-free ring of
//! structured lifecycle events (DESIGN.md §14).
//!
//! Unlike the trace rings (per-thread, overwriting flight recorders), the
//! journal is **shared by every poster and never wraps**: a post claims a
//! unique slot ticket with one `fetch_add`, and once the capacity is
//! exhausted further posts are *dropped and counted exactly* rather than
//! overwriting history. That keeps every slot single-writer-once, so the
//! slot's [`SeqSlot`] only has to defend readers against a post still in
//! flight — the overwrite races the trace ring must survive cannot occur.
//!
//! Each record is six words behind the slot's version word: `[ts_us,
//! trace_id, kind, arg0, arg1, tid]`. `ts_us` is [`dlsm_trace::now_us`] at
//! post time and `trace_id` the poster's active trace (0 when none), so
//! journal rows join against trace dumps and exemplars.

use dlsm_trace::sync::{AtomicU64, Ordering};
use dlsm_trace::SeqSlot;

/// Slots in the default process-global journal: 64 Ki events at 56 bytes
/// each (3.5 MiB). Engine lifecycle events are low-rate (flushes,
/// compactions, stall episodes), so a bench run sits far below this.
pub const JOURNAL_CAP: usize = 1 << 16;

/// A structured engine lifecycle event. Reasons use the trace arg codes
/// ([`dlsm_trace::STALL_IMM_QUEUE`], [`dlsm_trace::STALL_L0_LIMIT`]) so
/// journal rows and `write_stall` spans agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// The active MemTable was swapped out; `mem_id` is the retired table.
    MemtableSwitch { mem_id: u64 },
    /// A flush worker picked up MemTable `mem_id`.
    FlushStart { mem_id: u64 },
    /// MemTable `mem_id` is serialized and installed; `bytes` is the
    /// remote extent written (0 when the flush was abandoned on shutdown).
    FlushEnd { mem_id: u64, bytes: u64 },
    /// A compaction at `level` → `level + 1` started.
    CompactionStart { level: u64 },
    /// That compaction installed; `bytes` is its output extent total.
    CompactionEnd { level: u64, bytes: u64 },
    /// A writer began stalling for `reason` (trace arg code).
    StallBegin { reason: u64 },
    /// That writer resumed after `micros` — the exact value fed to the
    /// engine's `stall_*_micros` counters, so episode sums reconcile.
    StallEnd { reason: u64, micros: u64 },
    /// The read cache purged table `table_id` at version install.
    CacheInvalidate { table_id: u64 },
    /// An RPC client recreated its queue pair to memory node `node_id`.
    MemnodeReconnect { node_id: u64 },
}

impl EngineEvent {
    /// Stable machine-readable kind name (JSON / report key).
    pub fn kind_name(self) -> &'static str {
        match self {
            EngineEvent::MemtableSwitch { .. } => "memtable_switch",
            EngineEvent::FlushStart { .. } => "flush_start",
            EngineEvent::FlushEnd { .. } => "flush_end",
            EngineEvent::CompactionStart { .. } => "compaction_start",
            EngineEvent::CompactionEnd { .. } => "compaction_end",
            EngineEvent::StallBegin { .. } => "stall_begin",
            EngineEvent::StallEnd { .. } => "stall_end",
            EngineEvent::CacheInvalidate { .. } => "cache_invalidate",
            EngineEvent::MemnodeReconnect { .. } => "memnode_reconnect",
        }
    }

    fn encode(self) -> (u64, u64, u64) {
        match self {
            EngineEvent::MemtableSwitch { mem_id } => (1, mem_id, 0),
            EngineEvent::FlushStart { mem_id } => (2, mem_id, 0),
            EngineEvent::FlushEnd { mem_id, bytes } => (3, mem_id, bytes),
            EngineEvent::CompactionStart { level } => (4, level, 0),
            EngineEvent::CompactionEnd { level, bytes } => (5, level, bytes),
            EngineEvent::StallBegin { reason } => (6, reason, 0),
            EngineEvent::StallEnd { reason, micros } => (7, reason, micros),
            EngineEvent::CacheInvalidate { table_id } => (8, table_id, 0),
            EngineEvent::MemnodeReconnect { node_id } => (9, node_id, 0),
        }
    }

    fn decode(kind: u64, arg0: u64, arg1: u64) -> Option<EngineEvent> {
        Some(match kind {
            1 => EngineEvent::MemtableSwitch { mem_id: arg0 },
            2 => EngineEvent::FlushStart { mem_id: arg0 },
            3 => EngineEvent::FlushEnd { mem_id: arg0, bytes: arg1 },
            4 => EngineEvent::CompactionStart { level: arg0 },
            5 => EngineEvent::CompactionEnd { level: arg0, bytes: arg1 },
            6 => EngineEvent::StallBegin { reason: arg0 },
            7 => EngineEvent::StallEnd { reason: arg0, micros: arg1 },
            8 => EngineEvent::CacheInvalidate { table_id: arg0 },
            9 => EngineEvent::MemnodeReconnect { node_id: arg0 },
            _ => return None,
        })
    }
}

/// One decoded journal row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// Post order (= slot index; tickets are never reused).
    pub seq: u64,
    /// Microseconds since the trace epoch at post time.
    pub ts_us: u64,
    /// The poster's active trace id, 0 when no trace was open.
    pub trace_id: u64,
    /// Journal-local poster thread id (stable per OS thread).
    pub tid: u64,
    /// The event itself.
    pub event: EngineEvent,
}

/// A fixed-capacity engine event journal. See the module docs for the
/// slot protocol; [`crate::post`] feeds the process-global instance.
pub struct Journal {
    /// Total post attempts; the slot ticket is the pre-increment value.
    attempts: AtomicU64,
    /// Posts rejected because every slot was already claimed.
    drops: AtomicU64,
    slots: Box<[SeqSlot<6>]>,
}

impl Journal {
    /// A journal with `cap` slots (the process-global one uses
    /// [`JOURNAL_CAP`]; tests and the model suite use tiny capacities).
    pub fn with_capacity(cap: usize) -> Journal {
        Journal {
            attempts: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            slots: (0..cap).map(|_| SeqSlot::new()).collect(),
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Publish one event stamped by the caller. Returns `false` when the
    /// journal is full and the event was dropped (and counted).
    pub fn post_at(&self, ts_us: u64, trace_id: u64, tid: u64, event: EngineEvent) -> bool {
        // ORDERING: relaxed — ticket claim; uniqueness only. Tickets are
        // never reused (past-capacity posts drop instead of wrapping), so
        // each slot has exactly one writer ever.
        let ticket = self.attempts.fetch_add(1, Ordering::Relaxed);
        if ticket >= self.slots.len() as u64 {
            // ORDERING: relaxed — drop accounting, read for reporting only.
            self.drops.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let (kind, arg0, arg1) = event.encode();
        self.slots[ticket as usize].publish([ts_us, trace_id, kind, arg0, arg1, tid]);
        true
    }

    /// Seqlock read of one slot; `None` when unwritten, mid-post, or the
    /// version recheck failed (torn — rejected, never returned).
    pub fn read(&self, idx: usize) -> Option<JournalRecord> {
        let [ts_us, trace_id, kind, arg0, arg1, tid] = self.slots.get(idx)?.read()?;
        let event = EngineEvent::decode(kind, arg0, arg1)?;
        Some(JournalRecord { seq: idx as u64, ts_us, trace_id, tid, event })
    }

    /// Total post attempts, dropped posts included.
    pub fn attempts(&self) -> u64 {
        // ORDERING: relaxed — reporting read of a monotone counter.
        self.attempts.load(Ordering::Relaxed)
    }

    /// Posts rejected for capacity. Always exactly
    /// `attempts().saturating_sub(capacity())`.
    pub fn drops(&self) -> u64 {
        // ORDERING: relaxed — reporting read of a monotone counter.
        self.drops.load(Ordering::Relaxed)
    }

    /// Slots claimed (published or still mid-post).
    pub fn posted(&self) -> u64 {
        self.attempts().min(self.slots.len() as u64)
    }

    /// Drain every published record, post order. Slots still mid-post are
    /// skipped (their writers finish after this snapshot).
    pub fn collect(&self) -> Vec<JournalRecord> {
        (0..self.posted() as usize).filter_map(|i| self.read(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_every_event_kind() {
        let j = Journal::with_capacity(16);
        let events = [
            EngineEvent::MemtableSwitch { mem_id: 7 },
            EngineEvent::FlushStart { mem_id: 7 },
            EngineEvent::FlushEnd { mem_id: 7, bytes: 4096 },
            EngineEvent::CompactionStart { level: 1 },
            EngineEvent::CompactionEnd { level: 1, bytes: 9999 },
            EngineEvent::StallBegin { reason: dlsm_trace::STALL_IMM_QUEUE },
            EngineEvent::StallEnd { reason: dlsm_trace::STALL_IMM_QUEUE, micros: 1234 },
            EngineEvent::CacheInvalidate { table_id: 42 },
            EngineEvent::MemnodeReconnect { node_id: 1 },
        ];
        for (i, e) in events.iter().enumerate() {
            assert!(j.post_at(100 + i as u64, i as u64, 1, *e));
        }
        let got = j.collect();
        assert_eq!(got.len(), events.len());
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.event, events[i]);
            assert_eq!(r.ts_us, 100 + i as u64);
            assert_eq!(r.trace_id, i as u64);
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn full_journal_drops_and_counts_exactly() {
        let j = Journal::with_capacity(2);
        assert!(j.post_at(1, 0, 1, EngineEvent::MemtableSwitch { mem_id: 1 }));
        assert!(j.post_at(2, 0, 1, EngineEvent::MemtableSwitch { mem_id: 2 }));
        assert!(!j.post_at(3, 0, 1, EngineEvent::MemtableSwitch { mem_id: 3 }));
        assert!(!j.post_at(4, 0, 1, EngineEvent::MemtableSwitch { mem_id: 4 }));
        assert_eq!(j.attempts(), 4);
        assert_eq!(j.drops(), 2);
        assert_eq!(j.drops(), j.attempts() - j.capacity() as u64);
        let got = j.collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].event, EngineEvent::MemtableSwitch { mem_id: 1 });
        assert_eq!(got[1].event, EngineEvent::MemtableSwitch { mem_id: 2 });
    }

    #[test]
    fn unwritten_and_out_of_range_slots_read_none() {
        let j = Journal::with_capacity(4);
        assert!(j.read(0).is_none());
        assert!(j.read(100).is_none());
        j.post_at(1, 0, 1, EngineEvent::FlushStart { mem_id: 0 });
        assert!(j.read(0).is_some());
        assert!(j.read(1).is_none());
    }
}
