//! Database counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::telemetry::{Readers, StallReason};

/// Counters exported by one [`crate::Db`]: shared atomics for background
/// work, per-thread slots (summed on read) for foreground ops.
#[derive(Debug, Default)]
pub struct DbStats {
    /// The per-thread slots, summed for `puts`, `deletes`, `gets`, `get_hits`.
    pub(crate) readers: Readers,
    /// MemTable switches.
    pub switches: AtomicU64,
    /// MemTable arenas allocated rather than recycled (the first table's
    /// included).
    pub memtable_allocs: AtomicU64,
    /// Sequence numbers abandoned and re-fetched (stale or arena-full).
    pub reseqs: AtomicU64,
    /// Completed MemTable flushes.
    pub flushes: AtomicU64,
    /// Bytes written to remote memory by flushes.
    pub flush_bytes: AtomicU64,
    /// Tombstones carried into remote memory by flushes (delete churn that
    /// compaction must later reclaim).
    pub flush_tombstones: AtomicU64,
    /// Completed compactions.
    pub compactions: AtomicU64,
    /// Completed L0 → L1 compactions.
    pub compaction_l0_jobs: AtomicU64,
    /// L0 tables those compactions retired.
    pub compaction_l0_input_tables: AtomicU64,
    /// Sub-compaction tasks issued.
    pub compaction_subtasks: AtomicU64,
    /// Records read by compactions.
    pub compaction_records_in: AtomicU64,
    /// Records written by compactions.
    pub compaction_records_out: AtomicU64,
    /// Bytes written to remote memory by compaction outputs.
    pub compaction_bytes_out: AtomicU64,
    /// Bytes of near-data compaction replies, as framed on the wire.
    pub compaction_reply_bytes: AtomicU64,
    /// Compaction output tables admitted to the read cache at install.
    pub cache_carried_tables: AtomicU64,
    /// Extent bytes of those tables.
    pub cache_carried_bytes: AtomicU64,
    /// Write-stall episodes and the microseconds they lasted, per
    /// [`StallReason`]; [`DbStats::note_stall`] alone writes them.
    stalls: [(AtomicU64, AtomicU64); 2],
    /// Batched remote-free RPCs issued.
    pub gc_batches: AtomicU64,
    /// Extents freed remotely.
    pub gc_extents: AtomicU64,
}

impl DbStats {
    pub(crate) fn add(counter: &AtomicU64, v: u64) {
        // ORDERING: relaxed — monotonic stats counters; readers tolerate staleness and the RMW never loses an increment.
        counter.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        // ORDERING: relaxed — see bump_by above.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Read a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        // ORDERING: relaxed — stats read; tolerates staleness.
        counter.load(Ordering::Relaxed)
    }

    /// Account one finished stall episode to its cause, and record it as a
    /// `write_stall` span of exactly that length: the one place stalls are
    /// counted.
    pub(crate) fn note_stall(&self, reason: StallReason, micros: u64) {
        let (events, total) = &self.stalls[reason as usize];
        Self::bump(events);
        Self::add(total, micros);
        // The span lasts exactly the micros added to the counter above, so
        // summed episode durations reconcile with the stall_*_micros deltas
        // (`artifact_check timeline`'s invariant).
        let arg = reason.trace_arg();
        dlsm_trace::span_ended(dlsm_trace::Category::Stall, "write_stall", arg, micros);
    }

    /// `(episodes, microseconds)` stalled: `[imm queue, L0 limit]`.
    pub(crate) fn stalls(&self) -> [(u64, u64); 2] {
        self.stalls.each_ref().map(|(events, micros)| (Self::get(events), Self::get(micros)))
    }

    /// A plain point-in-time copy of every counter. Call sites should use
    /// this instead of reaching into the atomics one `Relaxed` load at a
    /// time — the snapshot is `Copy`, diffable, and printable.
    pub fn snapshot(&self) -> DbStatsSnapshot {
        let stalls = self.stalls();
        let [puts, deletes, gets, get_hits, ..] = self.readers.counters();
        DbStatsSnapshot {
            puts,
            deletes,
            gets,
            get_hits,
            switches: Self::get(&self.switches),
            memtable_allocs: Self::get(&self.memtable_allocs),
            reseqs: Self::get(&self.reseqs),
            flushes: Self::get(&self.flushes),
            flush_bytes: Self::get(&self.flush_bytes),
            flush_tombstones: Self::get(&self.flush_tombstones),
            compactions: Self::get(&self.compactions),
            compaction_l0_jobs: Self::get(&self.compaction_l0_jobs),
            compaction_l0_input_tables: Self::get(&self.compaction_l0_input_tables),
            compaction_subtasks: Self::get(&self.compaction_subtasks),
            compaction_records_in: Self::get(&self.compaction_records_in),
            compaction_records_out: Self::get(&self.compaction_records_out),
            compaction_bytes_out: Self::get(&self.compaction_bytes_out),
            compaction_reply_bytes: Self::get(&self.compaction_reply_bytes),
            cache_carried_tables: Self::get(&self.cache_carried_tables),
            cache_carried_bytes: Self::get(&self.cache_carried_bytes),
            stall_events: stalls.iter().map(|&(events, _)| events).sum(),
            stall_nanos: 1_000 * stalls.iter().map(|&(_, micros)| micros).sum::<u64>(),
            gc_batches: Self::get(&self.gc_batches),
            gc_extents: Self::get(&self.gc_extents),
        }
    }
}

/// A frozen copy of [`DbStats`] — plain integers, `Copy`, with delta and
/// merge for phase measurement and shard aggregation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DbStatsSnapshot {
    /// Successful `put`s.
    pub puts: u64,
    /// Successful `delete`s.
    pub deletes: u64,
    /// `get` calls.
    pub gets: u64,
    /// `get` calls that found a live value.
    pub get_hits: u64,
    /// MemTable switches.
    pub switches: u64,
    /// MemTable arenas allocated rather than recycled.
    pub memtable_allocs: u64,
    /// Sequence numbers abandoned and re-fetched.
    pub reseqs: u64,
    /// Completed MemTable flushes.
    pub flushes: u64,
    /// Bytes written to remote memory by flushes.
    pub flush_bytes: u64,
    /// Tombstones carried into remote memory by flushes.
    pub flush_tombstones: u64,
    /// Completed compactions.
    pub compactions: u64,
    /// Completed L0 → L1 compactions.
    pub compaction_l0_jobs: u64,
    /// L0 tables those compactions retired.
    pub compaction_l0_input_tables: u64,
    /// Sub-compaction tasks issued.
    pub compaction_subtasks: u64,
    /// Records read by compactions.
    pub compaction_records_in: u64,
    /// Records written by compactions.
    pub compaction_records_out: u64,
    /// Bytes written to remote memory by compaction outputs.
    pub compaction_bytes_out: u64,
    /// Bytes of near-data compaction replies, as framed on the wire.
    pub compaction_reply_bytes: u64,
    /// Compaction output tables admitted to the read cache at install.
    pub cache_carried_tables: u64,
    /// Extent bytes of those tables.
    pub cache_carried_bytes: u64,
    /// Write-stall episodes.
    pub stall_events: u64,
    /// Total nanoseconds writers spent stalled (counted in whole
    /// microseconds, so a multiple of 1000).
    pub stall_nanos: u64,
    /// Batched remote-free RPCs issued.
    pub gc_batches: u64,
    /// Extents freed remotely.
    pub gc_extents: u64,
}

impl DbStatsSnapshot {
    /// Total time writers spent stalled.
    pub fn stall_time(&self) -> Duration {
        Duration::from_nanos(self.stall_nanos)
    }

    /// Field-wise `self - earlier` (saturating).
    #[must_use]
    pub fn delta(&self, earlier: &DbStatsSnapshot) -> DbStatsSnapshot {
        let mut out = *self;
        out.for_each_field(earlier, |a, b| *a = a.saturating_sub(b));
        out
    }

    /// Field-wise sum (shard aggregation).
    pub fn merge(&mut self, other: &DbStatsSnapshot) {
        self.for_each_field(other, |a, b| *a += b);
    }

    fn for_each_field(&mut self, other: &DbStatsSnapshot, f: impl Fn(&mut u64, u64)) {
        f(&mut self.puts, other.puts);
        f(&mut self.deletes, other.deletes);
        f(&mut self.gets, other.gets);
        f(&mut self.get_hits, other.get_hits);
        f(&mut self.switches, other.switches);
        f(&mut self.memtable_allocs, other.memtable_allocs);
        f(&mut self.reseqs, other.reseqs);
        f(&mut self.flushes, other.flushes);
        f(&mut self.flush_bytes, other.flush_bytes);
        f(&mut self.flush_tombstones, other.flush_tombstones);
        f(&mut self.compactions, other.compactions);
        f(&mut self.compaction_l0_jobs, other.compaction_l0_jobs);
        f(&mut self.compaction_l0_input_tables, other.compaction_l0_input_tables);
        f(&mut self.compaction_subtasks, other.compaction_subtasks);
        f(&mut self.compaction_records_in, other.compaction_records_in);
        f(&mut self.compaction_records_out, other.compaction_records_out);
        f(&mut self.compaction_bytes_out, other.compaction_bytes_out);
        f(&mut self.compaction_reply_bytes, other.compaction_reply_bytes);
        f(&mut self.cache_carried_tables, other.cache_carried_tables);
        f(&mut self.cache_carried_bytes, other.cache_carried_bytes);
        f(&mut self.stall_events, other.stall_events);
        f(&mut self.stall_nanos, other.stall_nanos);
        f(&mut self.gc_batches, other.gc_batches);
        f(&mut self.gc_extents, other.gc_extents);
    }

    /// The counters as `(name, value)` pairs, for telemetry export. The
    /// stall totals are left out: telemetry carries them per reason.
    pub fn named_counters(&self) -> [(&'static str, u64); 22] {
        [
            ("puts", self.puts),
            ("deletes", self.deletes),
            ("gets", self.gets),
            ("get_hits", self.get_hits),
            ("switches", self.switches),
            ("memtable_allocs", self.memtable_allocs),
            ("reseqs", self.reseqs),
            ("flushes", self.flushes),
            ("flush_bytes", self.flush_bytes),
            ("flush_tombstones", self.flush_tombstones),
            ("compactions", self.compactions),
            ("compaction_l0_jobs", self.compaction_l0_jobs),
            ("compaction_l0_input_tables", self.compaction_l0_input_tables),
            ("compaction_subtasks", self.compaction_subtasks),
            ("compaction_records_in", self.compaction_records_in),
            ("compaction_records_out", self.compaction_records_out),
            ("compaction_bytes_out", self.compaction_bytes_out),
            ("compaction_reply_bytes", self.compaction_reply_bytes),
            ("cache_carried_tables", self.cache_carried_tables),
            ("cache_carried_bytes", self.cache_carried_bytes),
            ("gc_batches", self.gc_batches),
            ("gc_extents", self.gc_extents),
        ]
    }
}

impl std::fmt::Display for DbStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "puts={} gets={} (hits={}) switches={} memtable_allocs={} flushes={} ({} MiB) compactions={} (subtasks={}, {}→{} records) stalls={} ({:?}) gc_batches={}",
            self.puts,
            self.gets,
            self.get_hits,
            self.switches,
            self.memtable_allocs,
            self.flushes,
            self.flush_bytes >> 20,
            self.compactions,
            self.compaction_subtasks,
            self.compaction_records_in,
            self.compaction_records_out,
            self.stall_events,
            self.stall_time(),
            self.gc_batches,
        )
    }
}

impl std::fmt::Display for DbStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::SlotCounter;

    #[test]
    fn counters_accumulate() {
        let s = DbStats::default();
        s.readers.register().stats.add(SlotCounter::Puts, 1);
        DbStats::add(&s.flush_bytes, 1 << 21);
        assert_eq!(s.snapshot().puts, 1);
        assert_eq!(DbStats::get(&s.flush_bytes), 1 << 21);
        let text = s.to_string();
        assert!(text.contains("puts=1"));
        assert!(text.contains("2 MiB"));
    }

    #[test]
    fn snapshot_copies_and_diffs() {
        let s = DbStats::default();
        let writer = s.readers.register();
        writer.stats.add(SlotCounter::Puts, 1);
        DbStats::add(&s.flush_bytes, 100);
        let before = s.snapshot();
        assert_eq!(before.puts, 1);
        assert_eq!(before.flush_bytes, 100);
        assert_eq!(before.to_string(), s.to_string());
        writer.stats.add(SlotCounter::Puts, 1);
        s.readers.register().stats.add(SlotCounter::Gets, 1);
        let d = s.snapshot().delta(&before);
        assert_eq!(d.puts, 1);
        assert_eq!(d.gets, 1);
        assert_eq!(d.flush_bytes, 0);
    }

    #[test]
    fn snapshot_merges_across_shards() {
        let a = DbStats::default();
        let b = DbStats::default();
        a.readers.register().stats.add(SlotCounter::Puts, 3);
        b.readers.register().stats.add(SlotCounter::Puts, 4);
        b.note_stall(StallReason::L0Limit, 40);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.puts, 7);
        assert_eq!(m.stall_events, 1);
        let named: std::collections::HashMap<_, _> = m.named_counters().into_iter().collect();
        assert_eq!(named["puts"], 7);
        assert_eq!(named.len(), 22);
    }

    #[test]
    fn stalls_are_counted_once_per_reason_and_summed_by_the_snapshot() {
        let s = DbStats::default();
        s.note_stall(StallReason::ImmQueueFull, 1_500);
        s.note_stall(StallReason::ImmQueueFull, 500);
        s.note_stall(StallReason::L0Limit, 40);
        assert_eq!(s.stalls(), [(2, 2_000), (1, 40)]);
        let snap = s.snapshot();
        assert_eq!(snap.stall_events, 3);
        assert_eq!(snap.stall_nanos, 2_040_000);
        assert_eq!(StallReason::ImmQueueFull.trace_arg(), dlsm_trace::STALL_IMM_QUEUE);
        assert_eq!(StallReason::L0Limit.trace_arg(), dlsm_trace::STALL_L0_LIMIT);
    }
}
