//! Compute-side telemetry: op-class latency histograms, read-path breakdown
//! spans, and RPC/RDMA accounting (DESIGN.md §8).
//!
//! The write side records into the one [`DbTelemetry`] in each
//! [`crate::Db`]'s shared state (a few relaxed atomic RMWs per op); the read
//! side records into a [`ReadStats`] block per [`crate::DbReader`], which
//! only that reader writes, so readers never meet on a cache line. Reading
//! freezes the shared half plus every reader block into one
//! [`TelemetrySnapshot`], which merges across shards and diffs against an
//! earlier snapshot for phase measurement.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlsm_memnode::ClientNetStats;
use dlsm_telemetry::{Histogram, OpClass, OpHistograms, TelemetrySnapshot, VerbTraffic};
use parking_lot::Mutex;

use crate::scan::SAMPLE_EVERY;
use crate::version::ReadView;

/// Lock-free write-side telemetry shared by one database instance and every
/// flush thread and compaction coordinator it spawns.
#[derive(Debug, Default)]
pub struct DbTelemetry {
    /// Latency per write-side op class (put, flush, compaction round-trip);
    /// get and scan-next latencies live in the reader blocks.
    pub ops: OpHistograms,
    /// RPC retry/reconnect totals aggregated over every client this
    /// database opens (flush, GC, compaction pool, two-sided readers).
    pub net: Arc<ClientNetStats>,
    /// Write stalls whose blocking condition was the immutable queue.
    pub stall_imm_events: AtomicU64,
    /// Microseconds writers spent stalled on a full immutable queue.
    pub stall_imm_micros: AtomicU64,
    /// Write stalls whose blocking condition was the L0 stop-writes limit.
    pub stall_l0_events: AtomicU64,
    /// Microseconds writers spent stalled on the L0 stop-writes limit.
    pub stall_l0_micros: AtomicU64,
    /// A timed put's phases, in [`PUT_PHASES`] order.
    pub put_phases: [Histogram; 4],
}

/// A put's phases: the stall gate, sequence reservation plus the table
/// guard (and any switch), the skip-list insert, the publication wait.
pub const PUT_PHASES: [&str; 4] = ["put_stall", "put_reserve", "put_insert", "put_publish"];

/// The phase [`PutClock::mark`] closes, in [`PUT_PHASES`] order.
pub(crate) enum PutPhase { Stall, Reserve, Insert, Publish }

thread_local! {
    /// This thread's puts so far, and what its last timed put took (ns).
    static PUTS: (Cell<u64>, Cell<u64>) = const { (Cell::new(0), Cell::new(0)) };
}

/// The clock of one put (DESIGN.md §8): a writer thread times one put in
/// [`SAMPLE_EVERY`], every put while tracing is on, and a put that stalls
/// or switches a table from then on. An untimed put records its thread's
/// last timed latency, so `Put`'s count is exact; only timed puts feed
/// [`PUT_PHASES`].
pub(crate) struct PutClock {
    called: Option<Instant>,
    last: Option<Instant>,
    phases: [u64; 4],
}

impl PutClock {
    pub(crate) fn start() -> PutClock {
        let n = PUTS.with(|(puts, _)| puts.replace(puts.get() + 1));
        let now = (n.is_multiple_of(SAMPLE_EVERY) || dlsm_trace::enabled()).then(Instant::now);
        PutClock { called: now, last: now, phases: [0; 4] }
    }

    /// Time the rest of this put, if it is not timed already.
    pub(crate) fn time_rest(&mut self) {
        if self.called.is_none() {
            let now = Some(Instant::now());
            (self.called, self.last) = (now, now);
        }
    }

    /// Add the time since the last mark to `phase`, if this put is timed.
    pub(crate) fn mark(&mut self, phase: PutPhase) {
        if let Some(last) = self.last {
            let now = Instant::now();
            self.phases[phase as usize] += nanos(now - last);
            self.last = Some(now);
        }
    }

    /// Record the put's one `Put` sample and, if it was timed, its phases.
    pub(crate) fn finish(self, t: &DbTelemetry) {
        if let (Some(called), Some(now)) = (self.called, self.last) {
            PUTS.with(|(_, last)| last.set(nanos(now - called)));
            t.put_phases.iter().zip(self.phases).for_each(|(hist, ns)| hist.record(ns));
        }
        let took = PUTS.with(|(_, last)| last.get());
        record_op(&t.ops, OpClass::Put, Duration::from_nanos(took));
    }
}

// LOSSY: ~584 years of nanoseconds fit in u64.
pub(crate) fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Why a writer stalled in `wait_for_write_room` (the condition that was
/// failing when the stall began).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The immutable-MemTable queue is at `max_immutables` (flushes are
    /// behind).
    ImmQueueFull,
    /// The L0 table count reached `l0_stop_writes_trigger` (compaction is
    /// behind).
    L0Limit,
}

impl StallReason {
    /// The reason code carried as the `arg` of a `write_stall` trace span.
    pub fn trace_arg(self) -> u64 {
        match self {
            StallReason::ImmQueueFull => dlsm_trace::STALL_IMM_QUEUE,
            StallReason::L0Limit => dlsm_trace::STALL_L0_LIMIT,
        }
    }
}

/// Record one finished op, pinning the sample to the op's open trace (if
/// any) so high-bucket latencies carry an exemplar trace id. Call while the
/// op span is still open; with tracing off this is exactly
/// `ops.record_elapsed`.
#[inline]
pub(crate) fn record_op(ops: &OpHistograms, class: OpClass, d: Duration) {
    match dlsm_trace::current_ctx() {
        Some(ctx) => ops.record_traced(class, nanos(d), ctx.trace_id),
        None => ops.record(class, nanos(d)),
    }
}

/// Freeze `ops` (histograms and their ≥ p99 exemplars) into `s`.
fn freeze_ops(ops: &OpHistograms, s: &mut TelemetrySnapshot) {
    s.ops = ops.snapshot().to_vec();
    for class in OpClass::ALL {
        let high = ops.exemplars_above_p99(class);
        if !high.is_empty() {
            s.set_exemplars(class.name(), high);
        }
    }
}

/// The read side's event counters, by index into a [`ReadStats`] block.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReadCounter {
    /// Keys looked up (`get` counts one, `multi_get` one per key).
    Gets,
    /// Lookups that found a live value.
    GetHits,
    /// Byte-addressable table probes answered `NotFound` from compute-local
    /// metadata (bloom filter / index rejection) — zero RDMA reads issued.
    BloomSkips,
    /// Records served from a compute-local table image (hot-extent pool).
    L0CacheHits,
    /// Lookups answered "absent" by a tombstone (as opposed to never
    /// finding any version of the key). Delete-heavy workloads watch this
    /// to verify that deletes actually shadow older values.
    GetTombstones,
}

const READ_COUNTER_NAMES: [&str; 5] =
    ["gets", "get_hits", "bloom_skips", "l0_cache_hits", "get_tombstones"];

/// Everything the read side records, owned by one [`crate::DbReader`] (and
/// the scans it opens, which stay on its thread). One writer, so a counter
/// increment is a plain load + store and a histogram record touches only
/// lines no other reader writes; any thread may read, and sees exact values.
#[derive(Debug, Default)]
pub struct ReadStats {
    /// `GetHit` / `GetMiss` / `ScanNext` latency. A `multi_get` call feeds
    /// no latency histogram: its keys overlap in time, so none has a
    /// latency of its own (DESIGN.md §8).
    pub ops: OpHistograms,
    /// Time a `get` spends probing MemTables (every get enters this phase).
    pub get_memtable: Histogram,
    /// Time a `get` spends on overlapping L0 tables, the record fetch
    /// included when L0 holds the key (only gets that miss the MemTables).
    pub get_l0: Histogram,
    /// Time a `get` spends on levels ≥ 1, likewise.
    pub get_deep: Histogram,
    counters: [AtomicU64; 5],
}

impl ReadStats {
    #[inline]
    pub(crate) fn add(&self, counter: ReadCounter, n: u64) {
        let c = &self.counters[counter as usize];
        // ORDERING: relaxed — single-writer statistics (see the type docs).
        c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    fn counter(&self, counter: ReadCounter) -> u64 {
        // ORDERING: relaxed — stats read; each word is exact on its own.
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// [`record_op`] into this block, for `n` ops of which one was timed, at
    /// `d`: same exemplar rule, single-writer histogram record.
    #[inline]
    pub(crate) fn record_ops(&self, class: OpClass, d: Duration, n: u64) {
        self.ops.hist(class).record_exclusive_n(nanos(d), n);
        if let Some(ctx) = dlsm_trace::current_ctx() {
            self.ops.exemplars(class).record(nanos(d), ctx.trace_id);
        }
    }

    fn snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        freeze_ops(&self.ops, &mut s);
        s.set_breakdown("get_memtable", self.get_memtable.snapshot());
        s.set_breakdown("get_l0", self.get_l0.snapshot());
        s.set_breakdown("get_deep", self.get_deep.snapshot());
        for (c, name) in self.counters.iter().zip(READ_COUNTER_NAMES) {
            // ORDERING: relaxed — stats read; each word is exact on its own.
            s.set_counter(name, c.load(Ordering::Relaxed));
        }
        s
    }
}

/// What one [`crate::DbReader`] registers with its database: the
/// [`ReadView`] it keeps between calls, and its counters.
#[derive(Default)]
pub(crate) struct ReaderSlot {
    /// The reader's view while the reader is idle. A call checks it out
    /// (the slot is empty while the call runs — the in-use mark) and puts
    /// it back only if it is still the published one; whoever publishes a
    /// view empties the idle slots it superseded. The lock is held for the
    /// pointer move only, never across the call.
    pub(crate) view: Mutex<Option<Arc<ReadView>>>,
    pub(crate) stats: ReadStats,
}

/// Every reader slot of one database: the live ones, plus the frozen sum of
/// the blocks whose reader (and scans) are gone. Totals are retired + Σ
/// live, so they are exact at any instant with no flush call.
#[derive(Default)]
pub(crate) struct Readers {
    inner: Mutex<ReadersInner>,
}

#[derive(Default)]
struct ReadersInner {
    retired: TelemetrySnapshot,
    live: Vec<Arc<ReaderSlot>>,
}

impl ReadersInner {
    /// Fold into `retired` every slot nobody but this registry holds: its
    /// reader and scans are dropped, so it will never change again.
    fn sweep(&mut self) {
        let retired = &mut self.retired;
        // `get_mut` succeeds only for the last reference, and acquires the
        // last owner's release of its own: its final records are visible.
        self.live.retain_mut(|slot| match Arc::get_mut(slot) {
            Some(slot) => {
                retired.merge(&slot.stats.snapshot());
                false
            }
            None => true,
        });
    }
}

impl Readers {
    pub(crate) fn register(&self) -> Arc<ReaderSlot> {
        let slot = Arc::new(ReaderSlot::default());
        let mut inner = self.inner.lock();
        inner.sweep();
        inner.live.push(Arc::clone(&slot));
        slot
    }

    /// Visit the slot of every reader that is still alive.
    pub(crate) fn for_each_live(&self, mut f: impl FnMut(&ReaderSlot)) {
        let mut inner = self.inner.lock();
        inner.sweep();
        inner.live.iter().for_each(|slot| f(slot));
    }

    /// One counter's total over all readers, past and present.
    pub(crate) fn counter(&self, counter: ReadCounter) -> u64 {
        let mut inner = self.inner.lock();
        inner.sweep();
        inner.retired.counter(READ_COUNTER_NAMES[counter as usize])
            + inner.live.iter().map(|slot| slot.stats.counter(counter)).sum::<u64>()
    }

    /// Histograms and counters summed over all readers, past and present.
    pub(crate) fn snapshot(&self) -> TelemetrySnapshot {
        let mut inner = self.inner.lock();
        inner.sweep();
        let mut s = inner.retired.clone();
        for slot in &inner.live {
            s.merge(&slot.stats.snapshot());
        }
        s
    }
}

impl std::fmt::Debug for Readers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Readers({} live)", self.inner.lock().live.len())
    }
}

impl DbTelemetry {

    /// Account one finished stall episode to its cause.
    pub(crate) fn note_stall(&self, reason: StallReason, micros: u64) {
        let (events, total) = match reason {
            StallReason::ImmQueueFull => (&self.stall_imm_events, &self.stall_imm_micros),
            StallReason::L0Limit => (&self.stall_l0_events, &self.stall_l0_micros),
        };
        // ORDERING: relaxed — event/total pair is read independently for averages; approximate by design.
        events.fetch_add(1, Ordering::Relaxed);
        total.fetch_add(micros, Ordering::Relaxed);
        // The journaled episode carries the exact micros added to the
        // counter above, so summed episode durations reconcile with the
        // stall_*_micros deltas (`artifact_check timeline`'s invariant).
        dlsm_timeline::post(dlsm_timeline::EngineEvent::StallEnd {
            reason: reason.trace_arg(),
            micros,
        });
    }

    /// Freeze the write-side op histograms and counters; the read side is
    /// merged in by [`crate::Db::telemetry_snapshot`]. RDMA verb traffic is
    /// attached by callers that own a channel or fabric (see
    /// [`verb_traffic`]) so shard merges never double-count the fabric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::new();
        freeze_ops(&self.ops, &mut s);
        let (retries, reconnects) = self.net.totals();
        s.set_counter("rpc_retries", retries);
        s.set_counter("rpc_reconnects", reconnects);
        // ORDERING: relaxed — stats-report reads of monotonic counters.
        s.set_counter("stall_imm_events", self.stall_imm_events.load(Ordering::Relaxed));
        s.set_counter("stall_imm_micros", self.stall_imm_micros.load(Ordering::Relaxed));
        s.set_counter("stall_l0_events", self.stall_l0_events.load(Ordering::Relaxed));
        // ORDERING: relaxed — stats-report reads of monotonic counters.
        s.set_counter("stall_l0_micros", self.stall_l0_micros.load(Ordering::Relaxed));
        for (hist, name) in self.put_phases.iter().zip(PUT_PHASES) {
            s.set_breakdown(name, hist.snapshot());
        }
        s
    }

    /// `(events, micros)` stalled for one reason, from the live counters.
    pub fn stall_micros(&self, reason: StallReason) -> (u64, u64) {
        match reason {
            StallReason::ImmQueueFull => (
                // ORDERING: relaxed — stall gauge reads; tolerate staleness.
                self.stall_imm_events.load(Ordering::Relaxed),
                self.stall_imm_micros.load(Ordering::Relaxed),
            ),
            StallReason::L0Limit => (
                // ORDERING: relaxed — stall gauge reads; tolerate staleness.
                self.stall_l0_events.load(Ordering::Relaxed),
                self.stall_l0_micros.load(Ordering::Relaxed),
            ),
        }
    }
}

/// Convert an `rdma-sim` traffic snapshot into telemetry verb rows (verbs
/// with zero ops are omitted).
pub fn verb_traffic(stats: &rdma_sim::StatsSnapshot) -> Vec<VerbTraffic> {
    rdma_sim::Verb::ALL
        .iter()
        .filter(|&&v| stats.ops(v) != 0 || stats.bytes(v) != 0)
        .map(|&v| VerbTraffic {
            verb: v.name().to_string(),
            ops: stats.ops(v),
            bytes: stats.bytes(v),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsm_telemetry::OpClass;

    #[test]
    fn reader_blocks_sum_exactly_before_and_after_retirement() {
        let readers = Readers::default();
        let a = readers.register();
        let b = readers.register();
        a.stats.ops.record(OpClass::GetHit, 1_000);
        a.stats.get_memtable.record(200);
        a.stats.add(ReadCounter::BloomSkips, 2);
        b.stats.add(ReadCounter::BloomSkips, 1);
        b.stats.add(ReadCounter::GetTombstones, 1);
        let check = |readers: &Readers| {
            let s = readers.snapshot();
            assert_eq!(s.op(OpClass::GetHit).count(), 1);
            assert_eq!(s.breakdown_hist("get_memtable").count(), 1);
            assert_eq!(s.counter("bloom_skips"), 3);
            assert_eq!(s.counter("get_tombstones"), 1);
            assert_eq!(readers.counter(ReadCounter::BloomSkips), 3);
        };
        check(&readers);
        drop(a); // folded into the retired total at the next look
        check(&readers);
        drop(b);
        check(&readers);
        let mut live = 0;
        readers.for_each_live(|_| live += 1);
        assert_eq!(live, 0);
        assert_eq!(DbTelemetry::default().snapshot().counter("rpc_retries"), 0);
    }

    #[test]
    fn stall_attribution_by_reason() {
        let t = DbTelemetry::default();
        t.note_stall(StallReason::ImmQueueFull, 1_500);
        t.note_stall(StallReason::ImmQueueFull, 500);
        t.note_stall(StallReason::L0Limit, 40);
        assert_eq!(t.stall_micros(StallReason::ImmQueueFull), (2, 2_000));
        assert_eq!(t.stall_micros(StallReason::L0Limit), (1, 40));
        let s = t.snapshot();
        assert_eq!(s.counter("stall_imm_events"), 2);
        assert_eq!(s.counter("stall_imm_micros"), 2_000);
        assert_eq!(s.counter("stall_l0_events"), 1);
        assert_eq!(s.counter("stall_l0_micros"), 40);
        assert_eq!(StallReason::ImmQueueFull.trace_arg(), dlsm_trace::STALL_IMM_QUEUE);
        assert_eq!(StallReason::L0Limit.trace_arg(), dlsm_trace::STALL_L0_LIMIT);
    }

    #[test]
    fn verb_traffic_skips_idle_verbs() {
        use rdma_sim::Verb;
        let mut raw = rdma_sim::StatsSnapshot::default();
        raw.accumulate(Verb::Read, 64);
        raw.accumulate(Verb::Read, 64);
        raw.accumulate(Verb::Send, 32);
        let rows = verb_traffic(&raw);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.verb == "read" && r.ops == 2 && r.bytes == 128));
        assert!(!rows.iter().any(|r| r.verb == "cas"));
    }
}
