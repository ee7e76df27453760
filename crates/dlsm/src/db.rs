//! The dLSM database: write path, read path, background work, snapshots.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use dlsm_memnode::RpcClient;
use dlsm_sstable::bloom::bloom_hash;
use dlsm_sstable::byte_addr::{TableGet, TableMeta};
use dlsm_sstable::coding::{get_len_prefixed, get_u32, get_u64, put_len_prefixed, put_u32, put_u64};
use dlsm_sstable::key::{SeqNo, ValueType};
use dlsm_telemetry::OpClass;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::compaction::{l0_trigger, pick_compaction, run_local, run_near_data};
use crate::config::{DbConfig, SwitchProtocol};
use crate::context::{ComputeContext, MemNodeHandle};
use crate::flush::flush_memtable;
use crate::handle::{Extent, GcSink, MetaKind, Origin, TableHandle};
use crate::memtable::{MemGet, MemTable, ENTRY_OVERHEAD};
use crate::remote::{fetch_wave, table_step, Channel, RecordFetch, Step};
use crate::scan::DbScan;
use crate::stats::DbStats;
use crate::telemetry::{record_op, OpClock, ReaderSlot, SlotCounter, SlotStats, GET_PHASES, INSERT, RESERVE, STALL};
use crate::version::{ReadView, Version, VersionEdit};
use crate::{DbError, Result};

thread_local! {
    /// This thread's write slot in each database it has written to.
    static WRITE_SLOTS: RefCell<Vec<(Weak<Shared>, Arc<ReaderSlot>)>> = const { RefCell::new(Vec::new()) };
}

pub(crate) struct Shared {
    pub(crate) ctx: Arc<ComputeContext>,
    pub(crate) memnode: Arc<MemNodeHandle>,
    pub(crate) cfg: DbConfig,
    /// Next sequence number to assign.
    pub(crate) seq: AtomicU64,
    /// The MemTable writers insert into; readers never take this lock.
    pub(crate) current: RwLock<Arc<MemTable>>,
    /// The engine's one monitor (DESIGN.md §5.6): it serializes the three
    /// publishers (switch, flush install, compaction install); a reader
    /// takes it only to refresh.
    view: Mutex<Monitor>,
    /// The monitor's one condvar, which every engine wait parks on.
    signal: Condvar,
    /// Id of the published view — the one word a read loads to validate
    /// the view it cached.
    view_id: ViewId,
    pub(crate) imm_count: AtomicUsize,
    switch_lock: Mutex<()>,
    /// The arena of the last retired MemTable its last holder dropped; the
    /// next switch takes it (DESIGN.md §5.3).
    spare: Arc<dlsm_skiplist::SpareArena>,
    /// Table/MemTable id generator (L0 ordering relies on flush ids).
    next_id: AtomicU64,
    l0_count: AtomicUsize,
    pub(crate) gc: Arc<GcSink>,
    pub(crate) stats: DbStats,
    pub(crate) telemetry: Arc<crate::telemetry::DbTelemetry>,
    stopping: AtomicBool,
    snapshots: Mutex<BTreeMap<SeqNo, usize>>,
    /// The L0 trigger of the compactor's last pick ([`l0_trigger`]).
    l0_trigger: AtomicUsize,
    /// Global write mutex for `serialized_writes` (baseline emulation).
    write_serializer: Mutex<()>,
    /// In-order sequence publication (the visible snapshot horizon).
    publication: crate::publication::Publication,
    /// Compute-side read cache (blocks + hot extents); `None` when disabled.
    pub(crate) cache: Option<Arc<dlsm_cache::ReadCache>>,
    /// When this shard was opened (the stats report's uptime).
    pub(crate) opened_at: Instant,
}

/// What [`Shared::view`] guards.
struct Monitor {
    /// The published view. Its immutables, newest first, are the retired
    /// MemTables in retirement order: the last one installs next.
    view: Arc<ReadView>,
    /// Retired MemTables no flush thread has taken yet, oldest first.
    queue: VecDeque<Arc<MemTable>>,
    /// Retired MemTables queued or being flushed (the flush-queue gauge).
    in_flight: usize,
    /// The compactor found no job at its last pick.
    compactor_idle: bool,
}

/// On a line of its own: every read loads it, and it must not share a line
/// with counters the write path bumps.
#[repr(align(64))]
struct ViewId(AtomicU64);

impl Shared {
    /// The L0 trigger the compactor last picked with: what exported level
    /// scores divide by, so a score ≥ 1 is a level the picker takes.
    pub(crate) fn l0_trigger(&self) -> usize {
        // ORDERING: relaxed — gauge read of a value the compactor alone writes.
        self.l0_trigger.load(Ordering::Relaxed)
    }

    /// Oldest sequence number any live snapshot may still read.
    fn smallest_snapshot(&self) -> SeqNo {
        self.snapshots
            .lock()
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.read_horizon())
    }

    /// The read horizon: the largest *published* sequence number. Every
    /// write at or below it is fully inserted (or permanently unused), so
    /// reads are monotone and snapshots are consistent even with concurrent
    /// out-of-order writers.
    fn read_horizon(&self) -> SeqNo {
        self.publication.horizon()
    }

    /// A new data channel to the memory node, for the calling thread.
    pub(crate) fn channel(&self) -> Result<Channel> {
        Channel::open(&self.ctx, &self.memnode, &self.cfg, &self.telemetry.net)
    }

    /// See [`Db::telemetry_snapshot`]; also what the metrics collector
    /// exports.
    pub(crate) fn telemetry_snapshot(&self) -> dlsm_telemetry::TelemetrySnapshot {
        let mut s = self.telemetry.snapshot();
        self.stats.readers.fold_into(&mut s);
        for (name, v) in self.stats.snapshot().named_counters() {
            s.set_counter(name, v);
        }
        let [(imm_events, imm_micros), (l0_events, l0_micros)] = self.stats.stalls();
        s.set_counter("stall_imm_events", imm_events);
        s.set_counter("stall_imm_micros", imm_micros);
        s.set_counter("stall_l0_events", l0_events);
        s.set_counter("stall_l0_micros", l0_micros);
        if let Some(cache) = &self.cache {
            for (name, v) in crate::named_cache_counters(&cache.snapshot()) {
                s.set_counter(name, v);
            }
        }
        s
    }

    /// Pin the published view: the refresh path of a reader whose cached
    /// view was superseded, and how a snapshot is taken.
    pub(crate) fn pin(&self) -> Arc<ReadView> {
        Arc::clone(&self.view.lock().view)
    }

    /// Retired MemTables queued or being flushed.
    pub(crate) fn flush_queue_len(&self) -> usize {
        self.view.lock().in_flight
    }

    /// Publish, under the monitor `m`, the successor of the current view,
    /// built by `next` from it, and wake every waiter. The only place the
    /// read-visible set changes. Two rules keep reads consistent (DESIGN.md
    /// §5.5, model-checked in `model_readview.rs`): a reader loads its
    /// horizon *before* it validates its view against `view_id`, and a view
    /// is published *before* anything it newly holds can accept a write —
    /// so whatever a horizon covers is in the view that passes validation
    /// after it.
    fn publish_view(&self, m: &mut Monitor, next: impl FnOnce(&ReadView) -> (Vec<Arc<MemTable>>, Arc<Version>)) {
        let (mems, version) = next(&m.view);
        self.imm_count.store(mems.len() - 1, Ordering::Release);
        self.l0_count.store(version.level(0).len(), Ordering::Release);
        m.view = Arc::new(ReadView { id: m.view.id + 1, mems, version });
        self.view_id.0.store(m.view.id, Ordering::Release);
        self.signal.notify_all();
    }

    /// Publish the current version with `edit` applied.
    fn install_edit(&self, edit: &VersionEdit) {
        self.publish_view(&mut self.view.lock(), |view| (view.mems.clone(), Arc::new(view.version.apply(edit))));
    }

    /// After a publication: empty the slot of every idle reader whose view
    /// was superseded, so it pins neither MemTables nor dead tables' remote
    /// extents. A reader that is mid-call holds its view itself and drops
    /// it at call end, when it finds the id moved.
    fn release_idle_views(&self) {
        let id = self.view_id.0.load(Ordering::Acquire);
        let mut stale = Vec::new();
        self.stats.readers.for_each_live(|slot| {
            let mut parked = slot.view.lock();
            if parked.as_ref().is_some_and(|v| v.id != id) {
                stale.extend(parked.take());
            }
        });
        // Dropped outside the registry lock: the last reference frees
        // MemTables and queues extents for GC.
        drop(stale);
    }

    /// Switch because `seq` ran past the current range's end `expected_end`
    /// (the dLSM protocol, Sec. IV) — double-checked under the switch lock.
    fn switch_at(&self, expected_end: SeqNo) {
        let _g = self.switch_lock.lock();
        {
            let cur = self.current.read();
            if cur.range.end != expected_end {
                return; // somebody already switched
            }
        }
        self.do_switch(expected_end);
    }

    /// Switch because the table filled early (size trigger or arena-full).
    fn switch_full(&self, full_id: u64) {
        let _g = self.switch_lock.lock();
        let end = {
            let cur = self.current.read();
            if cur.id != full_id {
                return; // already switched past the full table
            }
            cur.range.end
        };
        self.do_switch(end);
    }

    /// Must hold `switch_lock`. Installs a new table whose range starts at
    /// `start` (= old range end, keeping ranges consecutive and disjoint)
    /// and bumps the sequence counter to it so stale writers re-fetch
    /// instead of targeting the retired table. A whole-space table (the
    /// naive protocol) starts at 0, so the counter stays where it is.
    fn do_switch(&self, start: SeqNo) {
        let _sp = dlsm_trace::span(dlsm_trace::Category::Db, "memtable_switch");
        // ORDERING: relaxed — id generation needs uniqueness only, which the atomic RMW provides at any ordering.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let new = memtable(&self.cfg, &self.spare, &self.stats, id, start);
        let start = new.range.start;
        let queued = {
            // Under the write lock no insert is in flight, so "empty" is
            // final, and the view that holds `new` is published before the
            // swap lets any writer reach `new`. The retiring table stays
            // in the view until its flush installs, and is queued under the
            // same guard: the publication's notify announces it.
            let mut cur = self.current.write();
            let keep_old = !cur.is_empty();
            let mut m = self.view.lock();
            self.publish_view(&mut m, |view| {
                let mut mems = vec![Arc::clone(&new)];
                mems.extend_from_slice(&view.mems[usize::from(!keep_old)..]);
                (mems, Arc::clone(&view.version))
            });
            let old = std::mem::replace(&mut *cur, new);
            keep_old.then(|| {
                m.queue.push_back(old);
                m.in_flight += 1;
                m.in_flight
            })
        };
        self.release_idle_views();
        let prev = self.seq.fetch_max(start, Ordering::AcqRel);
        if prev < start {
            // The skipped range [prev, start) was never handed to any
            // writer; publish it so the horizon can advance past it.
            self.publication.publish(prev, start - prev);
        }
        DbStats::bump(&self.stats.switches);
        if let Some(queued) = queued {
            dlsm_trace::instant(dlsm_trace::Category::Flush, "flush_enqueue", queued as u64);
        }
    }

    fn write_stall_check(&self) -> bool {
        let imm_ok = self.imm_count.load(Ordering::Acquire) < self.cfg.max_immutables;
        let l0_ok = self
            .cfg
            .l0_stop_writes_trigger
            .is_none_or(|t| self.l0_count.load(Ordering::Acquire) < t);
        imm_ok && l0_ok
    }

    /// Which condition is currently blocking writers. Checked once when a
    /// stall begins: the queue that was full at that moment is the cause we
    /// attribute the whole episode to, even if the other limit trips later.
    fn stall_reason(&self) -> crate::telemetry::StallReason {
        if self.imm_count.load(Ordering::Acquire) >= self.cfg.max_immutables {
            crate::telemetry::StallReason::ImmQueueFull
        } else {
            crate::telemetry::StallReason::L0Limit
        }
    }

    /// The stall gate; a put that stalls is timed from the stall on.
    fn wait_for_write_room(&self, clock: &mut OpClock<4>) -> Result<()> {
        if self.write_stall_check() {
            return Ok(());
        }
        let reason = self.stall_reason();
        clock.time_rest();
        let t0 = Instant::now();
        // `publish_view` stores both counts under the monitor.
        let mut m = self.view.lock();
        while !self.write_stall_check() {
            if self.stopping.load(Ordering::Acquire) {
                return Err(DbError::ShuttingDown);
            }
            // HOTPATH: write stall is the intended backpressure point (paper
            // Sec. X-C); a writer parks on the monitor until a publication
            // frees room, or shutdown.
            self.signal.wait(&mut m);
        }
        drop(m);
        self.stats.note_stall(reason, t0.elapsed().as_micros() as u64);
        Ok(())
    }

    /// The one write path (Sec. II-C, IV; DESIGN.md §5.4): `entries` — a
    /// batch, or a put or delete as a batch of one — draw one block of
    /// consecutive sequence numbers, and the pre-assigned range of the
    /// current MemTable decides whether the whole block belongs to it.
    /// In-range writers never lock. Under the naive protocol every table
    /// spans the whole sequence space, so only the size and arena triggers
    /// switch. The call and its phases record into `slot`, the writing
    /// thread's own.
    fn write_batch<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        &self,
        slot: &SlotStats,
        entries: &[(ValueType, K, V)],
    ) -> Result<crate::batch::BatchCommit> {
        let n = entries.len() as u64;
        if n == 0 {
            return Ok(crate::batch::BatchCommit { first_seq: 0, count: 0 });
        }
        // A block that no empty MemTable holds would switch tables forever.
        let (width, arena) = (self.cfg.seq_range_width(), self.cfg.arena_capacity());
        let bytes: usize =
            entries.iter().map(|(_, k, v)| k.as_ref().len() + v.as_ref().len() + ENTRY_OVERHEAD).sum();
        if n >= width || bytes > arena {
            return Err(DbError::InvalidArgument(format!(
                "batch of {n} entries and up to {bytes} bytes does not fit a MemTable \
                 (sequence-range width {width}, arena {arena} bytes)"
            )));
        }
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Db, "put", n);
        let mut clock = slot.put_clock();
        self.wait_for_write_room(&mut clock)?;
        clock.mark(STALL);
        let _serializer = self.cfg.serialized_writes.then(|| self.write_serializer.lock());
        'refetch: loop {
            let base = self.seq.fetch_add(n, Ordering::AcqRel);
            loop {
                let guard = self.current.read();
                if base < guard.range.start {
                    // The table for this block was already retired: abandon
                    // it (nothing was inserted under it). Gaps are harmless.
                    drop(guard);
                    DbStats::bump(&self.stats.reseqs);
                    self.publication.publish(base, n);
                    continue 'refetch;
                }
                if base + n > guard.range.end {
                    // The block must fit entirely inside one table.
                    let end = guard.range.end;
                    drop(guard);
                    clock.time_rest();
                    self.switch_at(end);
                    if base >= end {
                        continue; // retry the same block against the new table
                    }
                    DbStats::bump(&self.stats.reseqs);
                    self.publication.publish(base, n);
                    continue 'refetch; // block straddles: take a fresh one
                }
                // Insert under the read guard so a switch (write lock)
                // cannot complete mid-block.
                clock.mark(RESERVE);
                let added = (base..)
                    .zip(entries)
                    .all(|(seq, (vt, k, v))| guard.add(seq, *vt, k.as_ref(), v.as_ref()).is_ok());
                clock.mark(INSERT);
                if !added {
                    // Arena full mid-block: rotate and re-apply the whole
                    // block (the inserted prefix is shadowed by the retry).
                    let id = guard.id;
                    drop(guard);
                    DbStats::bump(&self.stats.reseqs);
                    self.publication.publish(base, n);
                    clock.time_rest();
                    self.switch_full(id);
                    continue 'refetch;
                }
                let rotate = guard.is_full().then(|| guard.id);
                drop(guard);
                self.publication.publish(base, n);
                if let Some(id) = rotate {
                    clock.time_rest();
                    self.switch_full(id);
                    clock.mark(RESERVE);
                }
                // Read-your-writes: return once the block is visible.
                self.publication.wait_visible(base + n - 1);
                let deletes = entries.iter().filter(|(vt, _, _)| *vt == ValueType::Deletion).count() as u64;
                slot.add(SlotCounter::Puts, n - deletes);
                slot.add(SlotCounter::Deletes, deletes);
                // One Put sample per call (not per entry); the last stretch
                // is the publication wait.
                clock.finish(slot, OpClass::Put);
                return Ok(crate::batch::BatchCommit { first_seq: base, count: n });
            }
        }
    }
}

/// A MemTable whose pre-assigned range starts at `start` (Sec. IV), over
/// the spare arena when there is one. The naive protocol has no range
/// discipline, so its tables span the whole sequence space and the write
/// loop's range checks never fire.
fn memtable(
    cfg: &DbConfig,
    spare: &Arc<dlsm_skiplist::SpareArena>,
    stats: &DbStats,
    id: u64,
    start: SeqNo,
) -> Arc<MemTable> {
    let range = match cfg.switch_protocol {
        SwitchProtocol::SeqRange => start..start + cfg.seq_range_width(),
        SwitchProtocol::NaiveDoubleChecked => 0..dlsm_sstable::key::MAX_SEQ,
    };
    let (mem, allocated) = MemTable::recycling(id, range, cfg.memtable_size, cfg.arena_capacity(), spare);
    if allocated {
        DbStats::bump(&stats.memtable_allocs);
    }
    Arc::new(mem)
}

/// A dLSM database instance — one shard: one LSM-tree whose MemTables live
/// on this compute node and whose SSTables live on one memory node.
pub struct Db {
    shared: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    down: AtomicBool,
}

impl Db {
    /// Open a database against `memnode`, spawning flush threads and the
    /// compaction coordinator.
    pub fn open(
        ctx: Arc<ComputeContext>,
        memnode: Arc<MemNodeHandle>,
        cfg: DbConfig,
    ) -> Result<Db> {
        let cfg = cfg.normalized();
        let gc = GcSink::new(Arc::clone(memnode.flush_alloc()));
        let (spare, stats) = (Arc::default(), DbStats::default());
        let first = memtable(&cfg, &spare, &stats, 0, 1);
        let view = ReadView { id: 0, mems: vec![Arc::clone(&first)], version: Arc::new(Version::empty(cfg.max_levels)) };
        let shared = Arc::new(Shared {
            ctx,
            memnode,
            seq: AtomicU64::new(1),
            view: Mutex::new(Monitor {
                view: Arc::new(view),
                queue: VecDeque::new(),
                in_flight: 0,
                compactor_idle: true,
            }),
            signal: Condvar::new(),
            view_id: ViewId(AtomicU64::new(0)),
            current: RwLock::new(first),
            imm_count: AtomicUsize::new(0),
            switch_lock: Mutex::new(()),
            spare,
            next_id: AtomicU64::new(1),
            l0_count: AtomicUsize::new(0),
            gc,
            stats,
            telemetry: Arc::new(crate::telemetry::DbTelemetry::default()),
            stopping: AtomicBool::new(false),
            snapshots: Mutex::new(BTreeMap::new()),
            l0_trigger: AtomicUsize::new(cfg.l0_compaction_trigger),
            write_serializer: Mutex::new(()),
            publication: crate::publication::Publication::new(1),
            cache: dlsm_cache::ReadCache::new(cfg.cache.clone()),
            opened_at: Instant::now(),
            cfg,
        });

        let mut threads = Vec::new();
        for _ in 0..shared.cfg.flush_threads.max(1) {
            let s = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || flush_loop(s)));
        }
        {
            let s = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || compaction_loop(s)));
        }
        Ok(Db { shared, threads: Mutex::new(threads), down: AtomicBool::new(false) })
    }

    /// Insert or overwrite `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<SeqNo> {
        Ok(self.with_write_slot(|slot| self.shared.write_batch(slot, &[(ValueType::Value, key, value)]))?.first_seq)
    }

    /// Apply `batch` atomically-in-order under one consecutive sequence
    /// block (paper Sec. II-C).
    pub fn write(&self, batch: &crate::batch::WriteBatch) -> Result<crate::batch::BatchCommit> {
        self.with_write_slot(|slot| self.shared.write_batch(slot, &batch.entries))
    }

    /// Delete `key` (writes a tombstone).
    pub fn delete(&self, key: &[u8]) -> Result<SeqNo> {
        Ok(self.with_write_slot(|slot| self.shared.write_batch(slot, &[(ValueType::Deletion, key, b"")]))?.first_seq)
    }

    /// Run `f` on this thread's write slot here, registered at its first
    /// write and retired by the registry once the thread exits; a hit touches
    /// no reference count. Where the thread-local is gone (thread teardown)
    /// or busy, `f` gets a slot of its own, which retires once dropped.
    fn with_write_slot<T>(&self, f: impl FnOnce(&SlotStats) -> T) -> T {
        if WRITE_SLOTS.try_with(|_| ()).is_err() {
            return f(&self.shared.stats.readers.register().stats);
        }
        // `with` panics only on a destroyed thread-local, ruled out above.
        WRITE_SLOTS.with(|slots| {
            if let Ok(slots) = slots.try_borrow() {
                if let Some((_, slot)) = slots.iter().find(|(db, _)| std::ptr::eq(db.as_ptr(), Arc::as_ptr(&self.shared))) {
                    return f(&slot.stats);
                }
            }
            let slot = self.shared.stats.readers.register();
            if let Ok(mut slots) = slots.try_borrow_mut() {
                // A miss prunes the slots of databases that are gone.
                slots.retain(|(db, _)| db.strong_count() > 0);
                slots.push((Arc::downgrade(&self.shared), Arc::clone(&slot)));
            }
            f(&slot.stats)
        })
    }

    /// The current sequence horizon (reads at this snapshot see every
    /// completed write).
    pub fn current_seq(&self) -> SeqNo {
        self.shared.read_horizon()
    }

    /// A thread-local read handle with its own queue pair (or RPC client,
    /// for the two-sided data path). Fails only if the fabric refuses a new
    /// connection to the memnode (e.g. during a partition window).
    pub fn try_reader(&self) -> Result<DbReader> {
        let channel = self.shared.channel()?;
        let slot = self.shared.stats.readers.register();
        Ok(DbReader { shared: Arc::clone(&self.shared), channel, slot })
    }

    /// Infallible convenience wrapper over [`Db::try_reader`] for benches,
    /// examples, and tests that run against a healthy fabric.
    pub fn reader(&self) -> DbReader {
        // PANIC-SAFE: convenience API; connection setup was already proven
        // possible by Db::open, and data-path code uses try_reader().
        self.try_reader().expect("reader channel")
    }

    /// Pin a consistent snapshot (Sec. V-B: the pinned metadata pins every
    /// SSTable it references).
    pub fn snapshot(&self) -> Snapshot {
        // Taken and registered under the lock `smallest_snapshot` takes: a
        // compaction sees this snapshot or read its own horizon first, which
        // `seq` is then not below — either way it keeps what `seq` reads.
        let seq = {
            let mut snapshots = self.shared.snapshots.lock();
            let seq = self.current_seq();
            *snapshots.entry(seq).or_insert(0) += 1;
            seq
        };
        Snapshot { seq, view: self.shared.pin(), shared: Arc::clone(&self.shared) }
    }

    /// Database counters.
    pub fn stats(&self) -> &DbStats {
        &self.shared.stats
    }

    /// Internal shared state, for sibling modules (`crate::metrics`,
    /// `crate::report`) that register collectors or build stats reports.
    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// A frozen telemetry snapshot: op/breakdown histograms — the shared
    /// write-side ones plus the sum over every reader's block — and every
    /// [`DbStats`] counter. RDMA verb traffic is *not* included — attach it
    /// from the fabric (or a reader's channel) with
    /// [`crate::telemetry::verb_traffic`], so merging shard snapshots never
    /// double-counts shared fabric counters.
    pub fn telemetry_snapshot(&self) -> dlsm_telemetry::TelemetrySnapshot {
        self.shared.telemetry_snapshot()
    }

    /// Read-cache counters and occupancy, if the cache is enabled.
    pub fn cache_stats(&self) -> Option<dlsm_cache::CacheStatsSnapshot> {
        self.shared.cache.as_ref().map(|c| c.snapshot())
    }

    /// The read cache's image of table `id`, if resident (a peek: no lookup counted).
    pub fn cached_image(&self, id: u64) -> Option<crate::compaction::Image> {
        Some(self.shared.cache.as_ref()?.extent_peek(id)?.0)
    }

    /// The current table layout, pinned.
    pub fn version(&self) -> Arc<Version> {
        Arc::clone(&self.shared.pin().version)
    }

    /// Tables per level of the current version.
    pub fn level_shape(&self) -> Vec<usize> {
        self.version().shape()
    }

    /// Bytes resident in the remote flush zone + compute-visible metadata.
    pub fn remote_flush_in_use(&self) -> u64 {
        self.shared.memnode.flush_alloc().in_use()
    }

    /// Every extent referenced by the current version, as
    /// `(origin, offset, len)` with `len` rounded up to the allocator's
    /// 8-byte granule. Chaos tests compare this against the allocators'
    /// `in_use()` figures to prove that retried flushes and compactions
    /// leak no remote memory.
    pub fn live_extents(&self) -> Vec<(Origin, u64, u64)> {
        let version = self.version();
        let mut out = Vec::new();
        for level in 0..version.level_count() {
            for table in version.level(level) {
                out.push((table.origin, table.extent.offset, table.extent.len.div_ceil(8) * 8));
            }
        }
        out
    }

    /// Force the current MemTable out and wait until every immutable
    /// MemTable has been flushed.
    pub fn force_flush(&self) -> Result<()> {
        {
            let cur = self.shared.current.read();
            if !cur.is_empty() {
                let id = cur.id;
                drop(cur);
                self.shared.switch_full(id);
            }
        }
        let shared = &self.shared;
        let mut m = shared.view.lock();
        loop {
            // Checked first: a flush cut short by shutdown installs nothing.
            if shared.stopping.load(Ordering::Acquire) {
                return Err(DbError::ShuttingDown);
            }
            if m.view.mems.len() == 1 && m.in_flight == 0 {
                return Ok(());
            }
            // HOTPATH: `force_flush` blocks by contract; puts and gets never call it.
            shared.signal.wait(&mut m);
        }
    }

    /// Block until no flush or compaction work remains (used by read-only
    /// benchmarks that start "after all background compaction finishes"),
    /// or the database shuts down.
    pub fn wait_until_quiescent(&self) {
        let (shared, cfg) = (&self.shared, &self.shared.cfg);
        let mut m = shared.view.lock();
        loop {
            let flushed = m.view.mems.len() == 1 && m.in_flight == 0;
            // Judged as the compactor judges once writes stop (its tick finds
            // them stopped): quiescent means L0 below `l0_compaction_trigger`.
            let pending = pick_compaction(&m.view.version, cfg, l0_trigger(cfg, false), &mut Vec::new()).is_some();
            if (flushed && m.compactor_idle && !pending) || shared.stopping.load(Ordering::Acquire) {
                return;
            }
            // HOTPATH: `wait_until_quiescent` blocks by contract (benchmark set-up).
            shared.signal.wait(&mut m);
        }
    }

    /// Serialize a transactionally-consistent checkpoint of the table layout
    /// (call [`Db::force_flush`] first to include MemTable contents). The
    /// checkpoint references remote extents in place; restoring yields
    /// handles that are never garbage-collected ([`Origin::External`]).
    pub fn checkpoint(&self) -> Vec<u8> {
        let snap = self.snapshot();
        let mut out = Vec::new();
        put_u64(&mut out, snap.seq);
        let version = &snap.view.version;
        put_u32(&mut out, version.level_count() as u32);
        for level in 0..version.level_count() {
            let tables = version.level(level);
            put_u32(&mut out, tables.len() as u32);
            for t in tables {
                put_u64(&mut out, t.id);
                put_u64(&mut out, t.extent.offset);
                put_u64(&mut out, t.extent.len);
                put_len_prefixed(&mut out, &t.smallest);
                put_len_prefixed(&mut out, &t.largest);
                put_u64(&mut out, t.num_entries);
                match &t.meta {
                    MetaKind::ByteAddr(meta) => {
                        out.push(0);
                        put_len_prefixed(&mut out, &meta.encode());
                    }
                    MetaKind::Block(_, bs) => {
                        out.push(1);
                        put_u32(&mut out, *bs);
                    }
                }
            }
        }
        out
    }

    /// Rebuild a database from a checkpoint produced by [`Db::checkpoint`]
    /// against the same memory node. Restored tables are `External` (not
    /// GC'd), mirroring recovery from a command log + checkpoint (Sec. VIII).
    pub fn restore(
        ctx: Arc<ComputeContext>,
        memnode: Arc<MemNodeHandle>,
        cfg: DbConfig,
        checkpoint: &[u8],
    ) -> Result<Db> {
        let db = Db::open(ctx, memnode, cfg)?;
        let shared = &db.shared;
        let seq = get_u64(checkpoint, 0)?;
        let levels = get_u32(checkpoint, 8)? as usize;
        let mut off = 12;
        let mut edit = VersionEdit::default();
        let mut max_id = 0u64;
        let channel = shared.channel()?;
        for level in 0..levels.min(shared.cfg.max_levels) {
            let count = get_u32(checkpoint, off)? as usize;
            off += 4;
            for _ in 0..count {
                let id = get_u64(checkpoint, off)?;
                let offset = get_u64(checkpoint, off + 8)?;
                let len = get_u64(checkpoint, off + 16)?;
                off += 24;
                let (smallest, n) = get_len_prefixed(checkpoint, off)?;
                off += n;
                let (largest, n) = get_len_prefixed(checkpoint, off)?;
                off += n;
                let num_entries = get_u64(checkpoint, off)?;
                off += 8;
                let kind = checkpoint
                    .get(off)
                    .copied()
                    .ok_or_else(|| DbError::Sst("truncated checkpoint".into()))?;
                off += 1;
                let meta = match kind {
                    0 => {
                        let (bytes, n) = get_len_prefixed(checkpoint, off)?;
                        off += n;
                        let (meta, _) = TableMeta::decode(bytes)?;
                        MetaKind::ByteAddr(Arc::new(meta))
                    }
                    1 => {
                        let bs = get_u32(checkpoint, off)?;
                        off += 4;
                        let source = crate::remote::RemoteSource::new(
                            channel.clone(),
                            shared.memnode.remote().addr(offset),
                            len,
                        );
                        let reader = dlsm_sstable::block::BlockTableReader::open(source)?;
                        MetaKind::Block(reader.meta_cache(), bs)
                    }
                    other => return Err(DbError::Sst(format!("bad meta kind {other}"))),
                };
                max_id = max_id.max(id);
                edit.add(
                    level,
                    TableHandle::new(
                        id,
                        shared.memnode.remote(),
                        Extent { offset, len },
                        Origin::External,
                        meta,
                        smallest.to_vec(),
                        largest.to_vec(),
                        num_entries,
                        None,
                    ),
                );
            }
        }
        shared.install_edit(&edit);
        let prev = shared.seq.fetch_max(seq, Ordering::AcqRel);
        if prev < seq {
            shared.publication.publish(prev, seq - prev);
        }
        shared.next_id.fetch_max(max_id + 1, Ordering::AcqRel);
        // The restored sequence horizon starts a fresh MemTable range (the
        // empty initial table is dropped by the switch, not retired).
        let start = shared.seq.load(Ordering::Acquire);
        {
            let _g = shared.switch_lock.lock();
            shared.do_switch(start);
        }
        Ok(db)
    }

    /// Stop background work, flush queued MemTables, drain remote GC, and
    /// join all threads. Idempotent.
    pub fn shutdown(&self) {
        if self.down.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            // Stored under the monitor: a waiter sees it or is parked.
            let _m = self.shared.view.lock();
            self.shared.stopping.store(true, Ordering::Release);
            self.shared.signal.notify_all();
        }
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
        // Final remote-GC drain.
        if let Some(batch) = self.shared.gc.take_remote_batch() {
            if let Ok(client) = RpcClient::new(
                self.shared.ctx.fabric(),
                self.shared.ctx.node(),
                self.shared.memnode.node_id(),
                64 << 10,
            ) {
                let mut client = client
                    .with_policy(self.shared.cfg.rpc_retry)
                    .with_net_stats(Arc::clone(&self.shared.telemetry.net));
                let _ = client.free_batch(&batch, Duration::from_secs(5));
            }
        }
    }

}

impl Drop for Db {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A pinned, immutable view of the database at one sequence horizon.
pub struct Snapshot {
    seq: SeqNo,
    view: Arc<ReadView>,
    shared: Arc<Shared>,
}

impl Snapshot {
    /// The snapshot's sequence horizon.
    pub fn seq(&self) -> SeqNo {
        self.seq
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut snaps = self.shared.snapshots.lock();
        if let Some(n) = snaps.get_mut(&self.seq) {
            *n -= 1;
            if *n == 0 {
                snaps.remove(&self.seq);
            }
        }
    }
}

/// A thread-local read handle: owns one queue pair shared by all table
/// readers/iterators it creates (Sec. X-B: thread-local queue pairs), the
/// [`ReadView`] it keeps between calls, and the counters its reads feed —
/// a read writes no cache line another reader touches.
pub struct DbReader {
    shared: Arc<Shared>,
    channel: Channel,
    slot: Arc<ReaderSlot>,
}

/// How one key's walk over a pinned view ended.
enum Walk<'v> {
    /// The newest visible version, from a MemTable, the cache or a block
    /// table.
    Found(Vec<u8>),
    /// No visible version, or a tombstone.
    Absent,
    /// The newest visible version is this remote record; its READ joins the
    /// caller's wave.
    Fetch(RecordFetch<'v>),
}

/// Observer of a walk. `get` times the phases with it, `get_traced` writes
/// down every source consulted, `multi_get` passes `()`.
trait WalkVisitor {
    /// The walk moves on: MemTables → L0 → deeper levels.
    fn next_phase(&mut self) {}
    /// One source answered; `level` is `None` for a MemTable.
    fn source(&mut self, _level: Option<usize>, _id: u64, _answer: &dyn std::fmt::Debug) {}
}

impl WalkVisitor for () {}

/// A `get`'s [`WalkVisitor`]: its [`OpClock`] marks each phase the walk
/// leaves, and the running phase's trace span stays open.
struct GetClock(OpClock<3>, Option<dlsm_trace::Span>);

impl WalkVisitor for GetClock {
    fn next_phase(&mut self) {
        self.1 = None;
        self.0.mark(self.0.phase);
        self.1 = Some(dlsm_trace::span(dlsm_trace::Category::Db, GET_PHASES[self.0.phase]));
    }
}

/// The [`WalkVisitor`] of `get_traced`.
struct SourceLog(String);

impl WalkVisitor for SourceLog {
    fn source(&mut self, level: Option<usize>, id: u64, answer: &dyn std::fmt::Debug) {
        use std::fmt::Write as _;
        let _ = match level {
            None => writeln!(self.0, "  mem id={id} -> {answer:?}"),
            Some(level) => writeln!(self.0, "  L{level} id={id} -> {answer:?}"),
        };
    }
}

impl DbReader {
    /// Lifetime RDMA traffic carried by this reader's channel. Deltas
    /// around a single `get` attribute its exact fetch/byte cost — e.g.
    /// one point get on a byte-addressable table costs exactly one RDMA
    /// READ (Sec. VI).
    pub fn traffic(&self) -> rdma_sim::StatsSnapshot {
        self.channel.traffic()
    }

    /// Run `f` at the current horizon over the published view, pinned
    /// without writing a shared cache line: the view comes out of this
    /// reader's slot and is revalidated by one load of the published id
    /// (only a superseded view takes the refresh path through
    /// `Shared::pin`). The horizon is loaded first — see
    /// `Shared::publish_view` for why the order matters.
    fn with_view<T>(&self, f: impl FnOnce(SeqNo, &Arc<ReadView>) -> T) -> T {
        let mut seq = self.shared.read_horizon();
        let parked = self.slot.view.lock().take();
        let mut id = self.shared.view_id.0.load(Ordering::Acquire);
        let view = match parked {
            Some(view) if view.id == id => view,
            // Superseded. A view published after the horizon was loaded may
            // come from a compaction that began after it too, and dropped
            // versions only that older horizon could see: take horizon and
            // view again until no publication falls between the two.
            _ => loop {
                seq = self.shared.read_horizon();
                let view = self.shared.pin();
                if view.id == id {
                    break view;
                }
                id = view.id;
            },
        };
        let out = f(seq, &view);
        // Back into the slot only while it is still the published view.
        // The id is read under the slot lock, which the publisher's sweep
        // also takes: a view parked before the sweep is found by it, and
        // after the sweep the new id is visible here — either way a
        // superseded view is released, exactly once, and no idle reader
        // keeps one.
        let mut slot = self.slot.view.lock();
        if view.id == self.shared.view_id.0.load(Ordering::Acquire) {
            *slot = Some(view);
        }
        out
    }

    /// Read the newest visible version of `key` at the current horizon.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.with_view(|seq, view| self.get_in(view, seq, key))
    }

    /// Diagnostic twin of [`DbReader::get`]: also returns a trace of every
    /// source consulted. Test-only; not part of the public contract.
    #[doc(hidden)]
    pub fn get_traced(&mut self, key: &[u8]) -> Result<(Option<Vec<u8>>, String)> {
        self.with_view(|seq, view| {
            let mut log = SourceLog(format!("horizon={seq}\n"));
            let got = self.lookup(view, seq, key, &mut log)?;
            Ok((got, log.0))
        })
    }

    /// Read at a pinned snapshot.
    pub fn get_at(&mut self, snap: &Snapshot, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_in(&snap.view, snap.seq, key)
    }

    fn get_in(&self, view: &ReadView, seq: SeqNo, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _sp = dlsm_trace::span(dlsm_trace::Category::Db, "get");
        let stats = &self.slot.stats;
        let span = dlsm_trace::span(dlsm_trace::Category::Db, GET_PHASES[0]);
        let mut clock = GetClock(stats.get_clock(), Some(span));
        let found = self.lookup(view, seq, key, &mut clock)?;
        stats.add(SlotCounter::GetHits, u64::from(found.is_some()));
        drop(clock.1);
        clock.0.finish(stats, if found.is_some() { OpClass::GetHit } else { OpClass::GetMiss });
        Ok(found)
    }

    /// A point lookup: the one-key, one-wave case of [`DbReader::multi_get`].
    fn lookup(
        &self,
        view: &ReadView,
        seq: SeqNo,
        key: &[u8],
        visitor: &mut impl WalkVisitor,
    ) -> Result<Option<Vec<u8>>> {
        Ok(match self.walk(view, seq, key, visitor)? {
            Walk::Found(v) => Some(v),
            Walk::Absent => None,
            Walk::Fetch(mut fetch) => {
                fetch_wave(&self.channel, std::slice::from_mut(&mut fetch))?;
                Some(fetch.finish(self.shared.cache.as_ref())?)
            }
        })
    }

    /// Walk one key down the pinned sources — the one walk every lookup
    /// takes — until a source settles it or the one remote record that
    /// holds its value is located.
    fn walk<'v>(
        &self,
        view: &'v ReadView,
        seq: SeqNo,
        key: &[u8],
        visitor: &mut impl WalkVisitor,
    ) -> Result<Walk<'v>> {
        let stats = &self.slot.stats;
        stats.add(SlotCounter::Gets, 1);
        // MemTables, newest first. The first table holding any visible
        // version wins — correct because table seq ranges are disjoint and
        // ordered (Sec. IV).
        for mem in &view.mems {
            let got = mem.get(key, seq);
            visitor.source(None, mem.id, &got);
            match got {
                MemGet::Found(v) => return Ok(Walk::Found(v)),
                MemGet::Deleted => {
                    stats.add(SlotCounter::GetTombstones, 1);
                    return Ok(Walk::Absent);
                }
                MemGet::NotFound => {}
            }
        }
        visitor.next_phase();
        // Every table's filter takes the same hash of the key.
        let key = (key, bloom_hash(key));
        // L0: overlapping tables, newest first.
        for t in view.version.level(0) {
            if t.smallest_user() <= key.0 && key.0 <= t.largest_user() {
                if let Some(end) = self.walk_table(0, t, seq, key, visitor)? {
                    return Ok(end);
                }
            }
        }
        visitor.next_phase();
        // Deeper levels: at most one candidate table per level.
        for level in 1..view.version.level_count() {
            if let Some(t) = view.version.table_for_key(level, key.0) {
                if let Some(end) = self.walk_table(level, t, seq, key, visitor)? {
                    return Ok(end);
                }
            }
        }
        Ok(Walk::Absent)
    }

    /// One table of the walk; `None` when it holds no visible version and
    /// the walk goes on.
    fn walk_table<'v>(
        &self,
        level: usize,
        t: &'v TableHandle,
        seq: SeqNo,
        (key, hash): (&[u8], u32),
        visitor: &mut impl WalkVisitor,
    ) -> Result<Option<Walk<'v>>> {
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Db, "table_probe", t.id);
        let stats = &self.slot.stats;
        let cache = self.shared.cache.as_ref();
        let got = match table_step(&self.channel, t, key, hash, seq, cache, stats)? {
            Step::Done(got) => got,
            Step::Fetch(fetch) => {
                visitor.source(Some(level), t.id, &"remote record");
                return Ok(Some(Walk::Fetch(fetch)));
            }
        };
        visitor.source(Some(level), t.id, &got);
        Ok(match got {
            TableGet::Found(v) => Some(Walk::Found(v)),
            TableGet::Deleted => {
                stats.add(SlotCounter::GetTombstones, 1);
                Some(Walk::Absent)
            }
            TableGet::NotFound => None,
        })
    }

    /// Batched point lookups: every key takes the same walk as a `get`,
    /// and the remote records the walks end in are fetched as one wave —
    /// all READs posted on the reader's queue pair, then polled together,
    /// amortizing the round trip — the read-side counterpart of the
    /// asynchronous flush pipeline (Sec. X-C). Results are positionally
    /// aligned with `keys`.
    pub fn multi_get(&mut self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        self.with_view(|seq, view| {
            let _sp =
                dlsm_trace::span_arg(dlsm_trace::Category::Db, "multi_get", keys.len() as u64);
            let mut out = Vec::with_capacity(keys.len());
            let (mut waiting, mut wave) = (Vec::new(), Vec::new());
            for key in keys {
                out.push(match self.walk(view, seq, key, &mut ())? {
                    Walk::Found(v) => Some(v),
                    Walk::Absent => None,
                    Walk::Fetch(fetch) => {
                        waiting.push(out.len());
                        wave.push(fetch);
                        None
                    }
                });
            }
            fetch_wave(&self.channel, &mut wave)?;
            for (i, fetch) in waiting.into_iter().zip(wave) {
                out[i] = Some(fetch.finish(self.shared.cache.as_ref())?);
            }
            let hits = out.iter().filter(|v| v.is_some()).count();
            self.slot.stats.add(SlotCounter::GetHits, hits as u64);
            Ok(out)
        })
    }

    /// Range scan from `start` (inclusive) at the current horizon. With no
    /// bound the scan may stop anywhere, so its fetches start small and grow
    /// as it goes on (DESIGN.md §5.11); prefer [`DbReader::scan_range`] when
    /// the end is known.
    pub fn scan(&mut self, start: &[u8]) -> Result<DbScan> {
        self.scan_range(start, &[])
    }

    /// Bounded range scan: user keys in `[start, end)` at the current
    /// horizon (empty `end` = unbounded). Fetches exactly the bytes of
    /// each sorted run that the range covers.
    pub fn scan_range(&mut self, start: &[u8], end: &[u8]) -> Result<DbScan> {
        self.with_view(|seq, view| self.scan_in(Arc::clone(view), seq, start, end))
    }

    /// Range scan at a pinned snapshot.
    pub fn scan_at(&mut self, snap: &Snapshot, start: &[u8]) -> Result<DbScan> {
        self.scan_in(Arc::clone(&snap.view), snap.seq, start, &[])
    }

    fn scan_in(&self, view: Arc<ReadView>, seq: SeqNo, start: &[u8], end: &[u8]) -> Result<DbScan> {
        DbScan::build(&self.shared, &self.channel, Arc::clone(&self.slot), view, seq, start, end)
    }
}

impl Drop for DbReader {
    fn drop(&mut self) {
        // Release the parked view now rather than at the registry's next
        // sweep of dropped readers.
        self.slot.view.lock().take();
    }
}

fn flush_loop(shared: Arc<Shared>) {
    let Ok(channel) = shared.channel() else { return };
    loop {
        let mem = {
            let mut m = shared.view.lock();
            loop {
                if let Some(mem) = m.queue.pop_front() {
                    break mem;
                }
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                // HOTPATH: a flush thread idles on the monitor until a
                // switch enqueues a MemTable, or shutdown.
                shared.signal.wait(&mut m);
            }
        };
        // Mirror this table into the extent cache if an image of its size
        // would fit a shard (the cache's own policy evicts colder images).
        let want_local = shared
            .cache
            .as_ref()
            .is_some_and(|c| c.wants_flush_image(mem.memory_usage() as u64));
        // Retry on remote-memory pressure or transient RPC trouble: GC or
        // compaction may free space, and a starved dispatcher recovers.
        let mut attempts = 0u32;
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Flush, "flush", mem.id);
        let out = loop {
            attempts += 1;
            let t_flush = Instant::now();
            match flush_memtable(
                &mem,
                &shared.memnode,
                &channel,
                shared.cfg.format,
                shared.cfg.bits_per_key,
                shared.cfg.flush_buf_size,
                shared.cfg.flush_buf_count,
                want_local,
            ) {
                Ok(out) => {
                    record_op(&shared.telemetry.ops, dlsm_telemetry::OpClass::Flush, t_flush.elapsed());
                    break Some(out);
                }
                Err(DbError::OutOfRemoteMemory { .. }) => {
                    if shared.stopping.load(Ordering::Acquire) {
                        break None;
                    }
                    shared.signal.notify_all(); // nudge compaction/GC
                    // HOTPATH: flush-thread backoff while GC and compaction free space.
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    if shared.stopping.load(Ordering::Acquire) {
                        break None;
                    }
                    if attempts.is_multiple_of(8) || attempts <= 2 {
                        eprintln!(
                            "dlsm: flush of memtable {} failed (attempt {attempts}): {e}; retrying",
                            mem.id
                        );
                    }
                    // Losing a MemTable is never acceptable while running;
                    // transient fabric/RPC trouble clears, so keep trying
                    // with backoff.
                    // HOTPATH: flush-thread backoff on transient fabric/RPC trouble.
                    std::thread::sleep(Duration::from_millis((10 * attempts as u64).min(500)));
                }
            }
        };
        let mut edit = VersionEdit::default();
        if let Some(mut out) = out {
            DbStats::add(&shared.stats.flush_bytes, out.extent.len);
            DbStats::add(&shared.stats.flush_tombstones, mem.tombstones());
            let handle = TableHandle::new(
                mem.id,
                shared.memnode.remote(),
                out.extent,
                Origin::Compute,
                out.meta,
                std::mem::take(&mut out.smallest),
                std::mem::take(&mut out.largest),
                out.num_entries,
                Some(Arc::clone(&shared.gc)),
            );
            if let (Some(c), Some(image)) = (&shared.cache, out.local_image.take()) {
                // Flush-time admission: the freshest L0 table is by
                // definition hot (every read consults it first).
                c.extent_admit(handle.id, Arc::new(image));
            }
            edit.add(0, handle);
            DbStats::bump(&shared.stats.flushes);
        }
        {
            let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Flush, "install", mem.id);
            let mut m = shared.view.lock();
            // Serialization ran in parallel; installs go in retirement order,
            // which the view records: a flush installs once its table is the
            // oldest immutable. During shutdown it installs anyway rather
            // than wait on a thread that has exited.
            while !m.view.mems.last().is_some_and(|oldest| Arc::ptr_eq(oldest, &mem))
                && !shared.stopping.load(Ordering::Acquire)
            {
                // HOTPATH: a flush thread waits on the monitor for its
                // install turn; foreground ops never install.
                shared.signal.wait(&mut m);
            }
            // One publication adds the table and retires the MemTable: no
            // view holds both or neither.
            shared.publish_view(&mut m, |view| {
                let mems = view.mems.iter().filter(|m| m.id != mem.id).cloned().collect();
                (mems, Arc::new(view.version.apply(&edit)))
            });
        }
        shared.release_idle_views();
        // Let go of the table before the queue says it is done: a quiesced
        // shard pins no retired MemTable, so its arena is the spare.
        drop(mem);
        shared.view.lock().in_flight -= 1;
        shared.signal.notify_all();
    }
}

fn compaction_loop(shared: Arc<Shared>) {
    let mut compact_pointer: Vec<Vec<u8>> = Vec::new();
    let mut gc_client: Option<RpcClient> = None;
    let mut consecutive_failures = 0u32;
    // Reusable per-subtask RPC clients (registered buffers live as long as
    // the coordinator; Sec. X-B).
    let mut rpc_pool: Vec<RpcClient> = Vec::new();
    let mut last_seq = shared.seq.load(Ordering::Acquire);
    loop {
        // Batched remote GC (Sec. V-B): everything that accumulated since
        // the last cycle ships as one FreeBatch RPC. Draining every cycle
        // (rather than above a count threshold) keeps the compaction zone
        // from filling with dead tables while compactions are in flight.
        if let Some(batch) = shared.gc.take_remote_batch() {
            if gc_client.is_none() {
                gc_client = RpcClient::new(
                    shared.ctx.fabric(),
                    shared.ctx.node(),
                    shared.memnode.node_id(),
                    256 << 10,
                )
                .map(|c| {
                    c.with_policy(shared.cfg.rpc_retry)
                        .with_net_stats(Arc::clone(&shared.telemetry.net))
                })
                .ok();
            }
            if let Some(c) = gc_client.as_mut() {
                if c.free_batch(&batch, Duration::from_secs(10)).is_ok() {
                    DbStats::bump(&shared.stats.gc_batches);
                    DbStats::add(&shared.stats.gc_extents, batch.len() as u64);
                }
            }
        }

        if shared.stopping.load(Ordering::Acquire) {
            return;
        }

        // Writes are arriving if the sequence counter moved since the last
        // pick; once they stop, the next wake-up finds it still and compacts
        // L0 at its base trigger (DESIGN.md §5.7 "L0 waits while writes flow").
        let seq = shared.seq.load(Ordering::Acquire);
        let trigger = l0_trigger(&shared.cfg, seq != last_seq);
        last_seq = seq;
        // ORDERING: relaxed — read only by gauges and reports.
        shared.l0_trigger.store(trigger, Ordering::Relaxed);
        let version = Arc::clone(&shared.pin().version);
        let job = pick_compaction(&version, &shared.cfg, trigger, &mut compact_pointer);
        let Some(job) = job else {
            let mut m = shared.view.lock();
            if !m.compactor_idle {
                m.compactor_idle = true;
                shared.signal.notify_all();
            }
            if !shared.stopping.load(Ordering::Acquire) {
                // HOTPATH: the compaction thread idles on the monitor; its
                // 10 ms tick is how it sees `seq` stand still (DESIGN.md §5.7).
                shared.signal.wait_for(&mut m, Duration::from_millis(10));
            }
            continue;
        };
        shared.view.lock().compactor_idle = false;

        let smallest_snapshot = shared.smallest_snapshot();
        // ORDERING: relaxed — id generation; uniqueness only.
        let next_id = || shared.next_id.fetch_add(1, Ordering::Relaxed);
        let t_compact = Instant::now();
        let _sp =
            dlsm_trace::span_arg(dlsm_trace::Category::Compact, "compaction", job.level as u64);
        let result = if shared.cfg.near_data_compaction {
            run_near_data(
                &job,
                &shared.ctx,
                &shared.memnode,
                &shared.cfg,
                smallest_snapshot,
                &shared.gc,
                &next_id,
                &mut rpc_pool,
                &shared.telemetry.net,
                shared.cache.as_ref(),
            )
        } else {
            run_local(
                &job,
                &shared.ctx,
                &shared.memnode,
                &shared.cfg,
                smallest_snapshot,
                &shared.gc,
                &next_id,
                &shared.telemetry.net,
            )
        };
        match result {
            Ok(outcome) => {
                record_op(
                    &shared.telemetry.ops,
                    dlsm_telemetry::OpClass::CompactRpc,
                    t_compact.elapsed(),
                );
                consecutive_failures = 0;
                let mut edit = VersionEdit::default();
                edit.delete(job.level, job.inputs_lo.iter().map(|t| t.id).collect());
                edit.delete(job.level + 1, job.inputs_hi.iter().map(|t| t.id).collect());
                let subtasks = shared.cfg.compaction_subtasks.max(1) as u64;
                for (t, image) in outcome.outputs.iter().zip(outcome.images) {
                    edit.add(job.level + 1, Arc::clone(t));
                    // Born cached, like a flushed table: admitted before the
                    // version is published, so no reader of it finds the
                    // table missing (and promotes it over the fabric).
                    if let (Some(c), Some(image)) = (&shared.cache, image) {
                        if c.extent_admit(t.id, image) {
                            DbStats::bump(&shared.stats.cache_carried_tables);
                            DbStats::add(&shared.stats.cache_carried_bytes, t.extent.len);
                        }
                    }
                }
                shared.install_edit(&edit);
                shared.release_idle_views();
                if let Some(c) = &shared.cache {
                    // Version-aware invalidation: the inputs this edit
                    // obsoleted are purged and their ids fenced *at install*
                    // — before GC can recycle the extents — so no cached
                    // block can outlive (or be refilled for) a dead table.
                    // Pinned snapshots still read those tables correctly:
                    // they fall back to the fabric, and the ids are never
                    // reused.
                    for t in job.inputs_lo.iter().chain(job.inputs_hi.iter()) {
                        c.invalidate_table(t.id);
                    }
                }
                DbStats::bump(&shared.stats.compactions);
                if job.level == 0 {
                    DbStats::bump(&shared.stats.compaction_l0_jobs);
                    DbStats::add(&shared.stats.compaction_l0_input_tables, job.inputs_lo.len() as u64);
                }
                DbStats::add(&shared.stats.compaction_subtasks, subtasks);
                DbStats::add(&shared.stats.compaction_records_in, outcome.records_in);
                DbStats::add(&shared.stats.compaction_records_out, outcome.records_out);
                DbStats::add(&shared.stats.compaction_reply_bytes, outcome.reply_bytes);
                DbStats::add(
                    &shared.stats.compaction_bytes_out,
                    outcome.outputs.iter().map(|t| t.extent.len).sum::<u64>(),
                );
            }
            Err(e) => {
                consecutive_failures += 1;
                if consecutive_failures <= 3 || consecutive_failures.is_power_of_two() {
                    let alloc = shared.memnode.flush_alloc();
                    eprintln!(
                        "dlsm: compaction at L{} failed ({} in a row): {e} \
                         [flush zone {}/{} MiB in use, {} fragments; shape {:?}]",
                        job.level,
                        consecutive_failures,
                        alloc.in_use() >> 20,
                        alloc.capacity() >> 20,
                        alloc.fragments(),
                        version.shape(),
                    );
                }
                // Back off: out-of-memory only clears once GC frees space.
                let backoff = (20 * consecutive_failures as u64).min(1_000);
                // HOTPATH: compaction-thread backoff after a failed job.
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedDb;
    use dlsm_memnode::{MemServer, MemServerConfig};
    use dlsm_telemetry::OpClass;
    use rdma_sim::{Fabric, NetworkProfile};

    fn live_slots(db: &Db) -> usize {
        let mut n = 0;
        db.shared.stats.readers.for_each_live(|_| n += 1);
        n
    }

    fn cached_slots() -> usize {
        WRITE_SLOTS.with(|slots| slots.borrow().len())
    }

    fn assert_puts(db: &Db, n: u64) {
        assert_eq!(db.stats().snapshot().puts, n);
        assert_eq!(db.telemetry_snapshot().op(OpClass::Put).count(), n);
    }

    /// A writer thread holds one slot per database it writes to, found
    /// again on every later write; a database that is gone leaves the
    /// thread-local at the next miss, and a thread that is gone leaves the
    /// registry at its next sweep, its counts kept.
    #[test]
    fn a_writer_thread_holds_one_slot_per_database() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let cfg = MemServerConfig { region_size: 64 << 20, flush_zone: 32 << 20, compaction_workers: 1, dispatchers: 1 };
        let server = MemServer::start(&fabric, cfg);
        let mem = MemNodeHandle::from_server(&server);
        let ctx = ComputeContext::new(&fabric);
        let open = || Db::open(Arc::clone(&ctx), Arc::clone(&mem), DbConfig::small()).unwrap();
        let (a, b) = (Arc::new(open()), open());
        let sharded = ShardedDb::open(Arc::clone(&ctx), &[Arc::clone(&mem)], DbConfig::small(), 2).unwrap();
        let key = |i: u64| i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes();
        for i in 0..300u64 {
            a.put(&key(i), b"a").unwrap();
            b.put(&key(i), b"b").unwrap();
            sharded.put(&key(i), b"s").unwrap();
        }
        let all = || [&*a, &b].into_iter().chain(sharded.shards());
        assert!(all().all(|db| live_slots(db) == 1));
        assert_eq!(cached_slots(), 4);
        assert_puts(&a, 300);
        assert_puts(&b, 300);
        let per_shard: Vec<u64> = sharded.shards().iter().map(|db| db.stats().snapshot().puts).collect();
        assert_eq!(per_shard.iter().sum::<u64>(), 300, "{per_shard:?}");
        assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");

        drop(b);
        a.put(&key(300), b"a").unwrap();
        assert_eq!(cached_slots(), 4, "a hit prunes nothing");
        let c = open();
        c.put(&key(0), b"c").unwrap();
        assert_eq!(cached_slots(), 4, "the miss pruned the dropped database's slot");
        assert_eq!(live_slots(&c), 1);

        // `join` returns once the thread, its thread-locals included, is gone.
        let writer = Arc::clone(&a);
        std::thread::spawn(move || writer.put(&key(301), b"a").unwrap()).join().unwrap();
        assert_eq!(live_slots(&a), 1, "the exited writer's slot is retired");
        assert_puts(&a, 302);
        drop((c, sharded));
        a.shutdown();
        server.shutdown();
    }
}
