//! Compute-side telemetry (DESIGN.md §8): every foreground op records into
//! a [`ReaderSlot`] only its thread writes — a [`crate::DbReader`]'s, or a
//! writer thread's in each database it writes to — timed by one [`OpClock`];
//! flushes and compactions record into the shared [`DbTelemetry`]. Reading
//! freezes both into one [`TelemetrySnapshot`], which merges across shards
//! and diffs against an earlier snapshot for phase measurement.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlsm_memnode::ClientNetStats;
use dlsm_telemetry::{Histogram, OpClass, OpHistograms, TelemetrySnapshot, VerbTraffic};
use parking_lot::Mutex;

use crate::version::ReadView;

/// Lock-free telemetry shared by one database instance and every flush
/// thread and compaction coordinator it spawns.
#[derive(Debug, Default)]
pub struct DbTelemetry {
    /// `Flush` and `CompactRpc` latency, one sample per job.
    pub ops: OpHistograms,
    /// RPC retry/reconnect totals aggregated over every client this
    /// database opens (flush, GC, compaction pool, two-sided readers).
    pub net: Arc<ClientNetStats>,
}

/// A put's phases: the stall gate, sequence reservation plus the table
/// guard (and any switch), the skip-list insert, the publication wait.
pub const PUT_PHASES: [&str; 4] = ["put_stall", "put_reserve", "put_insert", "put_publish"];

/// Indexes into [`PUT_PHASES`].
pub(crate) const STALL: usize = 0;
pub(crate) const RESERVE: usize = 1;
pub(crate) const INSERT: usize = 2;

/// A get's phases: the MemTables, L0, the deeper levels. A record fetch
/// belongs to the phase that located the record.
pub const GET_PHASES: [&str; 3] = ["get_memtable", "get_l0", "get_deep"];

/// A slot times one op of each family in this many (DESIGN.md §8).
pub(crate) const SAMPLE_EVERY: u64 = 16;

/// Read a word of a slot.
fn load(word: &AtomicU64) -> u64 {
    // ORDERING: relaxed — a slot word has one writer; each word is exact on its own.
    word.load(Ordering::Relaxed)
}

/// Write a word of a slot; only the slot's owner calls this.
fn store(word: &AtomicU64, v: u64) {
    // ORDERING: relaxed — single-writer word (see `load`).
    word.store(v, Ordering::Relaxed);
}

/// The one op clock (DESIGN.md §8): the `N` phases of an op tile its call.
/// A slot times one op of each family in [`SAMPLE_EVERY`] (all while
/// tracing), and an untimed one from a stall, a switch or a phase the slot
/// has no value for; a stretch the clock did not see repeats the slot's
/// last timed value for that class and phase. `finish` records each phase
/// passed and the call as their sum; a failed op records nothing. The
/// clock's own work falls inside the call it times.
pub(crate) struct OpClock<const N: usize> {
    /// The family's rows of `SlotStats::repeats`: its first class's, then
    /// its other's (the same row for one class).
    rows: [usize; 2],
    /// Its first phase in `SlotStats::phases` (scan-next's is the call).
    hists: Option<usize>,
    scheduled: bool,
    /// Phases the slot had no value for when the op began.
    fresh: [bool; N],
    /// The last mark, once the clock runs.
    last: Option<Instant>,
    /// The phase the op is in; marks move it forward only.
    pub(crate) phase: usize,
    /// Per phase: the ns measured, and whether a stretch went unseen.
    took: [Option<u64>; N],
    repeated: [bool; N],
}

impl<const N: usize> OpClock<N> {
    fn start(slot: &SlotStats, rows: [usize; 2], hists: Option<usize>) -> Self {
        let begun = &slot.begun[rows[0]];
        let n = load(begun);
        store(begun, n + 1);
        let scheduled = n.is_multiple_of(SAMPLE_EVERY) || dlsm_trace::enabled();
        let last = scheduled.then(Instant::now);
        let fresh = std::array::from_fn(|p| slot.repeat(rows, rows[0], p) == 0);
        let (took, repeated) = ([None; N], [false; N]);
        let mut clock = OpClock { rows, hists, scheduled, fresh, last, phase: 0, took, repeated };
        clock.enter(0);
        clock
    }

    fn enter(&mut self, phase: usize) {
        self.phase = phase;
        if self.fresh[phase] {
            self.time_rest();
        }
    }

    /// Time the rest of the op from here (a stall, a MemTable switch).
    pub(crate) fn time_rest(&mut self) {
        self.last.get_or_insert_with(Instant::now);
    }

    /// The stretch since the last mark belongs to `phase`; an op at or
    /// before `phase` then enters the next one.
    pub(crate) fn mark(&mut self, phase: usize) {
        self.close(phase);
        if phase >= self.phase && phase + 1 < N {
            self.enter(phase + 1);
        }
    }

    fn close(&mut self, phase: usize) {
        match self.last {
            Some(last) => {
                let now = Instant::now();
                *self.took[phase].get_or_insert(0) += nanos(now - last);
                self.last = Some(now);
            }
            None => self.repeated[phase] = true,
        }
    }

    /// Record the op into `slot` as `class`: each phase it passed (the last
    /// stretch closes once the phases before it are in) and the call as their sum.
    pub(crate) fn finish(mut self, slot: &SlotStats, class: OpClass) {
        let row = self.rows[usize::from(class == OpClass::GetMiss)];
        let mut call = 0;
        for p in 0..N {
            if p == self.phase {
                self.close(p);
            }
            if !self.repeated[p] && self.took[p].is_none() {
                continue;
            }
            let took = self.took[p].unwrap_or(0);
            let ns = took + if self.repeated[p] { slot.repeat(self.rows, row, p) } else { 0 };
            // A stall's or a switch's time is never repeated.
            if !self.repeated[p] && (self.scheduled || self.fresh[p]) {
                store(&slot.repeats[row][p], took);
            }
            self.hists.inspect(|at| slot.phases[at + p].record_exclusive(ns));
            call += ns;
        }
        slot.ops.hist(class).record_exclusive(call);
        // Tracing schedules every op, so an untimed one has no trace.
        if let Some(ctx) = self.scheduled.then(dlsm_trace::current_ctx).flatten() {
            slot.ops.exemplars(class).record(call, ctx.trace_id);
        }
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
    ImmQueueFull = 0,
    /// The L0 table count reached `l0_stop_writes_trigger` (compaction is
    /// behind).
    L0Limit = 1,
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
/// op span is still open; with tracing off this is exactly `ops.record`.
#[inline]
pub(crate) fn record_op(ops: &OpHistograms, class: OpClass, d: Duration) {
    match dlsm_trace::current_ctx() {
        Some(ctx) => ops.record_traced(class, nanos(d), ctx.trace_id),
        None => ops.record(class, nanos(d)),
    }
}

/// A slot's event counters, by index into a [`SlotStats`] block.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SlotCounter {
    /// Entries written by `put` and by `delete` (a batch counts each).
    Puts,
    Deletes,
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

const COUNTER_NAMES: [&str; 7] =
    ["puts", "deletes", "gets", "get_hits", "bloom_skips", "l0_cache_hits", "get_tombstones"];

/// Everything the foreground ops of one thread record in one database: a
/// [`crate::DbReader`]'s gets and the scans it opens, or a writer thread's
/// puts, deletes and batches. One writer, so a counter increment is a plain
/// load + store and a histogram record touches only lines no other thread
/// writes; any thread may read, and sees exact values.
#[derive(Debug, Default)]
pub struct SlotStats {
    /// `Put`, `GetHit`, `GetMiss` and `ScanNext` latency, one sample per call
    /// (none for a `multi_get`: its keys overlap in time; DESIGN.md §8).
    pub ops: OpHistograms,
    /// [`PUT_PHASES`] (one sample per put), then [`GET_PHASES`] (one per
    /// get that entered the phase).
    pub phases: [Histogram; 7],
    counters: [AtomicU64; 7],
    /// The clocks' repeat values: per class (put, get hit, get miss,
    /// scan-next) what its last timed op measured in each phase, 0 while
    /// there is none.
    repeats: [[AtomicU64; 4]; 4],
    /// Ops begun per family, at its first class's index: the schedule.
    begun: [AtomicU64; 4],
}

impl SlotStats {
    #[inline]
    pub(crate) fn add(&self, counter: SlotCounter, n: u64) {
        let c = &self.counters[counter as usize];
        store(c, load(c) + n);
    }

    pub(crate) fn put_clock(&self) -> OpClock<4> {
        OpClock::start(self, [0, 0], Some(0))
    }

    pub(crate) fn get_clock(&self) -> OpClock<3> {
        OpClock::start(self, [1, 2], Some(PUT_PHASES.len()))
    }

    pub(crate) fn scan_clock(&self) -> OpClock<1> {
        OpClock::start(self, [3, 3], None)
    }

    /// What the class in row `row` of `rows` last measured in `phase`, or
    /// the other class's value while it has none (0: the slot has none).
    fn repeat(&self, rows: [usize; 2], row: usize, phase: usize) -> u64 {
        let mine = load(&self.repeats[row][phase]);
        if mine != 0 { mine } else { load(&self.repeats[rows[usize::from(row == rows[0])]][phase]) }
    }

    /// Add this slot's histograms, exemplars and counters to `s`: the one
    /// path by which a slot reaches a snapshot, live or retired.
    fn fold_into(&self, s: &mut TelemetrySnapshot) {
        self.ops.fold_into(s);
        for (hist, name) in self.phases.iter().zip(PUT_PHASES.iter().chain(&GET_PHASES)) {
            hist.fold_into(s.breakdown_mut(name));
        }
        for (c, name) in self.counters.iter().zip(COUNTER_NAMES) {
            s.add_counter(name, load(c));
        }
    }
}

/// What one thread registers with a database: for a [`crate::DbReader`],
/// the [`ReadView`] it keeps between calls, and the [`SlotStats`] its ops
/// record into.
#[derive(Default)]
pub(crate) struct ReaderSlot {
    /// The reader's view while the reader is idle. A call checks it out
    /// (the slot is empty while the call runs — the in-use mark) and puts
    /// it back only if it is still the published one; whoever publishes a
    /// view empties the idle slots it superseded. The lock is held for the
    /// pointer move only, never across the call. A writer's slot holds none.
    pub(crate) view: Mutex<Option<Arc<ReadView>>>,
    pub(crate) stats: SlotStats,
}

/// Every slot of one database: the live ones, plus the frozen sum of the
/// blocks whose owner (reader and scans, or writer thread) is gone. Totals
/// are retired + Σ live, so they are exact at any instant with no flush call.
#[derive(Default)]
pub(crate) struct Readers {
    inner: Mutex<ReadersInner>,
}

#[derive(Default)]
struct ReadersInner {
    retired: TelemetrySnapshot,
    live: Vec<Arc<ReaderSlot>>,
}

impl Readers {
    /// The registry, with every slot nobody else holds folded into
    /// `retired`: its owner is gone, so it will never change again.
    fn swept(&self) -> parking_lot::MutexGuard<'_, ReadersInner> {
        let mut inner = self.inner.lock();
        let ReadersInner { retired, live } = &mut *inner;
        // `get_mut` succeeds only for the last reference, and acquires the
        // last owner's release of its own: its final records are visible.
        live.retain_mut(|slot| Arc::get_mut(slot).map(|slot| slot.stats.fold_into(retired)).is_none());
        inner
    }

    pub(crate) fn register(&self) -> Arc<ReaderSlot> {
        let slot = Arc::new(ReaderSlot::default());
        self.swept().live.push(Arc::clone(&slot));
        slot
    }

    /// Visit every slot that is still alive.
    pub(crate) fn for_each_live(&self, f: impl FnMut(&Arc<ReaderSlot>)) {
        self.swept().live.iter().for_each(f);
    }

    /// Every counter's total over all slots, past and present, in
    /// [`SlotCounter`] order.
    pub(crate) fn counters(&self) -> [u64; 7] {
        let inner = self.swept();
        std::array::from_fn(|i| {
            let live = inner.live.iter().map(|slot| load(&slot.stats.counters[i]));
            inner.retired.counter(COUNTER_NAMES[i]) + live.sum::<u64>()
        })
    }

    /// Add histograms and counters summed over all slots, past and
    /// present, to `s`.
    pub(crate) fn fold_into(&self, s: &mut TelemetrySnapshot) {
        let inner = self.swept();
        s.merge(&inner.retired);
        for slot in &inner.live {
            slot.stats.fold_into(s);
        }
    }
}

impl std::fmt::Debug for Readers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Readers({} live)", self.inner.lock().live.len())
    }
}

impl DbTelemetry {
    /// Freeze the flush and compaction histograms and the RPC counters; the
    /// slots are merged in by [`crate::Db::telemetry_snapshot`]. RDMA verb
    /// traffic is attached by callers that own a channel or fabric (see
    /// [`verb_traffic`]) so shard merges never double-count the fabric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::default();
        self.ops.fold_into(&mut s);
        let (retries, reconnects) = self.net.totals();
        s.set_counter("rpc_retries", retries);
        s.set_counter("rpc_reconnects", reconnects);
        s
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
    fn slots_sum_exactly_before_and_after_retirement() {
        let readers = Readers::default();
        let a = readers.register();
        let b = readers.register();
        a.stats.ops.record(OpClass::GetHit, 1_000);
        a.stats.phases[PUT_PHASES.len()].record(200);
        a.stats.add(SlotCounter::BloomSkips, 2);
        b.stats.add(SlotCounter::BloomSkips, 1);
        b.stats.add(SlotCounter::GetTombstones, 1);
        b.stats.add(SlotCounter::Puts, 4);
        let check = |readers: &Readers| {
            let mut s = TelemetrySnapshot::default();
            readers.fold_into(&mut s);
            assert_eq!(s.op(OpClass::GetHit).count(), 1);
            assert_eq!(s.breakdown_hist("get_memtable").count(), 1);
            assert_eq!(s.counter("bloom_skips"), 3);
            assert_eq!(s.counter("get_tombstones"), 1);
            assert_eq!(readers.counters(), [4, 0, 0, 0, 3, 0, 1]);
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

    /// The clock's rules on one slot: the first get of each class is
    /// timed, untimed gets repeat per class (the other class's value while
    /// theirs has none), a phase with no value is timed where it is
    /// entered, and the phases sum to the calls at every step.
    #[test]
    fn op_clock_phases_sum_to_the_calls() {
        let slot = SlotStats::default();
        let ledger = |slot: &SlotStats| {
            let mut s = TelemetrySnapshot::default();
            slot.fold_into(&mut s);
            let calls = [OpClass::GetHit, OpClass::GetMiss].map(|c| s.op(c));
            let phases = GET_PHASES.map(|p| s.breakdown_hist(p));
            let count = |h: &[dlsm_telemetry::HistSnapshot]| h.iter().map(|h| h.count()).collect::<Vec<_>>();
            let sum = |h: &[dlsm_telemetry::HistSnapshot]| h.iter().map(|h| h.sum()).sum::<u64>();
            (count(&calls), count(&phases), sum(&calls), sum(&phases))
        };
        let get = |deepest: usize, class: OpClass| {
            let mut clock = slot.get_clock();
            for p in 0..deepest {
                std::thread::sleep(Duration::from_micros(20));
                clock.mark(p);
            }
            std::thread::sleep(Duration::from_micros(20));
            clock.finish(&slot, class);
        };
        get(0, OpClass::GetHit); // scheduled: the MemTable phase has a value
        get(2, OpClass::GetMiss); // untimed; times L0 and deeper, fresh
        get(1, OpClass::GetHit);
        let (calls, phases, call_sum, phase_sum) = ledger(&slot);
        assert_eq!((calls, phases), (vec![2, 1], vec![3, 2, 1]));
        assert_eq!(call_sum, phase_sum);
        let repeats = |row: usize| slot.repeats[row][..3].iter().map(load).collect::<Vec<_>>();
        assert!(repeats(1)[0] > 0 && repeats(1)[1..] == [0, 0], "{:?}", repeats(1));
        assert!(repeats(2)[0] == 0 && repeats(2)[1] > 0 && repeats(2)[2] > 0, "{:?}", repeats(2));
        for n in 3..40 {
            get(n % 3, [OpClass::GetHit, OpClass::GetMiss][n % 2]);
            let (calls, phases, call_sum, phase_sum) = ledger(&slot);
            assert_eq!(calls.iter().sum::<u64>(), n as u64 + 1);
            assert_eq!(phases[0], n as u64 + 1);
            assert_eq!(call_sum, phase_sum);
        }
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
