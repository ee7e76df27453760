//! Model-check the published read view from `crates/dlsm/src/db.rs`
//! (ISSUE 17, DESIGN.md §5.5), re-implemented over the dlsm-check shim in
//! miniature: one writer, one thread that switches the MemTable and then
//! flushes the retired one (publishing a view each time and sweeping the
//! reader's slot after), and one reader that keeps its view in a slot
//! between calls. Two rules are under test.
//!
//! **Publish before writable.** The reader loads the horizon *before* it
//! validates its cached view against the published id, and the view that
//! holds a new MemTable is published *before* the swap lets a writer reach
//! it. Property: no read pairs a horizon with a view missing the MemTable
//! (or flushed table) that holds a sequence number at or below it. The
//! straw man publishes *after* the swap, and the checker must catch the
//! stale read: a write lands in the new table and advances the horizon
//! while the reader's old view still validates.
//!
//! **In-use / obsolete handshake.** A call checks the view out of the slot
//! (an empty slot is the in-use mark) and parks it again only if, under the
//! slot lock, it is still the published one; whoever publishes sweeps the
//! idle slot afterwards. Properties: every view the reader pinned is
//! released exactly once, none is touched after its release, and an idle
//! reader never keeps a superseded view. The straw man has no in-use mark
//! — the reader reads through the slot without checking the view out — so
//! the sweep cannot tell a busy slot from an idle one, releases the view
//! mid-read, and the checker must catch the use after release.
//!
//! **No horizon older than the view** (found under CPU load by
//! `tests/read_path.rs`, ISSUE 21; its own miniature below). A compaction
//! drops the versions that the horizon *it* loaded shadows, so a reader may
//! pair a view only with a horizon at least that new. A parked view that
//! still validates was published before the horizon was loaded; a reader
//! that has to refresh takes horizon and view again until no publication
//! falls between the two. The straw man keeps the horizon it loaded first
//! and must be caught reading through a view whose compaction began later.
//!
//! **A snapshot registers with its horizon** (ISSUE 23; last miniature).
//! `Db::snapshot` takes its sequence number and enters it in `snapshots`
//! under the lock `smallest_snapshot` reads both under, so a compaction
//! either sees the snapshot or loaded a horizon the snapshot's is not below.
//! The straw man loads, then registers, and must be caught pinning a view
//! whose compaction began in between.

use std::sync::Arc;

use dlsm_check::shim::{thread, AtomicBool, AtomicU64, Mutex, Ordering, RwLock};
use dlsm_check::Checker;

/// A MemTable in miniature: the set of sequence numbers inserted, as a
/// bit mask (one atomic word keeps the state space small).
struct MiniMem {
    rows: AtomicU64,
}

impl MiniMem {
    fn new() -> Arc<MiniMem> {
        Arc::new(MiniMem { rows: AtomicU64::new(0) })
    }
}

/// `ReadView` in miniature. `Arc` clones here are plain pointers; the one
/// *logical* reference the reader holds is tracked by `pinned`/`released`,
/// so "use after release" is an assertion, not undefined behaviour.
struct MiniView {
    id: u64,
    mems: Vec<Arc<MiniMem>>,
    /// Sequence numbers already flushed into tables (bit mask).
    tables: u64,
    pinned: AtomicBool,
    released: AtomicBool,
}

impl MiniView {
    fn holds(&self, seq: u64) -> bool {
        let in_mems = self.mems.iter().fold(0, |all, m| all | m.rows.load(Ordering::Acquire));
        (self.tables | in_mems) & (1 << seq) != 0
    }

    fn pin(self: &Arc<Self>) -> Arc<MiniView> {
        assert!(!self.pinned.swap(true, Ordering::AcqRel), "view {} pinned twice", self.id);
        Arc::clone(self)
    }

    fn release(&self) {
        assert!(!self.released.swap(true, Ordering::AcqRel), "view {} released twice", self.id);
    }

    fn touch(&self, horizon: u64) {
        assert!(!self.released.load(Ordering::Acquire), "view {} used after release", self.id);
        for seq in 1..=horizon {
            assert!(self.holds(seq), "horizon {horizon} read with view {} missing seq {seq}", self.id);
        }
    }
}

struct MiniDb {
    horizon: AtomicU64,
    current: RwLock<Arc<MiniMem>>,
    view: Mutex<Arc<MiniView>>,
    view_id: AtomicU64,
    /// The one reader's slot.
    slot: Mutex<Option<Arc<MiniView>>>,
    /// Every view ever published, for the end-of-run oracle (a plain lock:
    /// bookkeeping of the test, not a step of the protocol).
    history: std::sync::Mutex<Vec<Arc<MiniView>>>,
}

impl MiniDb {
    fn new() -> Arc<MiniDb> {
        let first = MiniMem::new();
        let view = Arc::new(MiniView {
            id: 0,
            mems: vec![Arc::clone(&first)],
            tables: 0,
            pinned: AtomicBool::new(false),
            released: AtomicBool::new(false),
        });
        Arc::new(MiniDb {
            horizon: AtomicU64::new(0),
            current: RwLock::new(first),
            view: Mutex::new(Arc::clone(&view)),
            view_id: AtomicU64::new(0),
            slot: Mutex::new(None),
            history: std::sync::Mutex::new(vec![view]),
        })
    }

    /// `Shared::write`: insert under the read lock, then publish the seq.
    fn write(&self, seq: u64) {
        self.current.read().rows.fetch_or(1 << seq, Ordering::AcqRel);
        self.horizon.store(seq, Ordering::Release);
    }

    /// `Shared::publish_view`.
    fn publish(&self, next: impl FnOnce(&MiniView) -> (Vec<Arc<MiniMem>>, u64)) {
        let mut view = self.view.lock();
        let (mems, tables) = next(&view);
        *view = Arc::new(MiniView {
            id: view.id + 1,
            mems,
            tables,
            pinned: AtomicBool::new(false),
            released: AtomicBool::new(false),
        });
        self.history.lock().unwrap().push(Arc::clone(&view));
        self.view_id.store(view.id, Ordering::Release);
    }

    /// `Shared::release_idle_views`: a parked view that is no longer the
    /// published one is released. (A checked-out view is not in the slot.)
    fn sweep(&self) {
        let id = self.view_id.load(Ordering::Acquire);
        let mut parked = self.slot.lock();
        if parked.as_ref().is_some_and(|v| v.id != id) {
            if let Some(stale) = parked.take() {
                stale.release();
            }
        }
    }

    /// `Shared::do_switch`. `PUBLISH_FIRST = false` is the straw man: the
    /// swap makes the new table writable before the view that holds it is
    /// published.
    fn switch<const PUBLISH_FIRST: bool>(&self) -> Arc<MiniMem> {
        let new = MiniMem::new();
        let with_new = |view: &MiniView| {
            let mut mems = vec![Arc::clone(&new)];
            mems.extend_from_slice(&view.mems);
            (mems, view.tables)
        };
        let old = {
            let mut cur = self.current.write();
            if PUBLISH_FIRST {
                self.publish(with_new);
            }
            std::mem::replace(&mut *cur, Arc::clone(&new))
        };
        if !PUBLISH_FIRST {
            self.publish(with_new);
        }
        self.sweep();
        old
    }

    /// Flush install: one publication retires the MemTable and adds its
    /// table.
    fn flush(&self, mem: &Arc<MiniMem>) {
        self.publish(|view| {
            let mems = view.mems.iter().filter(|m| !Arc::ptr_eq(m, mem)).cloned().collect();
            (mems, view.tables | mem.rows.load(Ordering::Acquire))
        });
        self.sweep();
    }

    /// `DbReader::with_view`. `CHECK_OUT = false` is the straw man: the
    /// view stays in the slot while the call reads it.
    fn read<const CHECK_OUT: bool>(&self) {
        let horizon = self.horizon.load(Ordering::Acquire);
        if !CHECK_OUT {
            let view = {
                let mut parked = self.slot.lock();
                let id = self.view_id.load(Ordering::Acquire);
                if parked.as_ref().is_none_or(|v| v.id != id) {
                    if let Some(stale) = parked.replace(self.view.lock().pin()) {
                        stale.release();
                    }
                }
                parked.clone()
            };
            view.iter().for_each(|v| v.touch(horizon));
            return;
        }
        let parked = self.slot.lock().take();
        let id = self.view_id.load(Ordering::Acquire);
        let view = match parked {
            Some(view) if view.id == id => view,
            stale => {
                stale.iter().for_each(|v| v.release());
                self.view.lock().pin()
            }
        };
        view.touch(horizon);
        let mut slot = self.slot.lock();
        if view.id == self.view_id.load(Ordering::Acquire) {
            *slot = Some(view);
        } else {
            drop(slot);
            view.release();
        }
    }
}

fn explore<const PUBLISH_FIRST: bool, const CHECK_OUT: bool>(name: &str) -> dlsm_check::Report {
    Checker::new(name).preemption_bound(2).explore(|| {
        let db = MiniDb::new();

        let d = Arc::clone(&db);
        let writer = thread::spawn(move || {
            d.write(1);
            d.write(2);
        });
        let d = Arc::clone(&db);
        let reader = thread::spawn(move || {
            d.read::<CHECK_OUT>();
            d.read::<CHECK_OUT>();
        });
        // Background work: switch, then flush the retired table.
        let retired = db.switch::<PUBLISH_FIRST>();
        db.flush(&retired);

        writer.join().unwrap();
        reader.join().unwrap();

        // The reader is idle and every publication has been swept: what it
        // still keeps is the published view.
        let current = db.view_id.load(Ordering::Acquire);
        if let Some(parked) = db.slot.lock().take() {
            assert_eq!(parked.id, current, "idle reader keeps superseded view {}", parked.id);
            parked.release(); // `Drop for DbReader`
        }
        // Exactly once: `release` refuses a second one; here, no pin is
        // left without its release and nothing unpinned was released.
        for view in db.history.lock().unwrap().iter() {
            assert_eq!(
                view.pinned.load(Ordering::Acquire),
                view.released.load(Ordering::Acquire),
                "view {} pinned and released unevenly",
                view.id
            );
        }
        // Nothing written was lost on the way from MemTable to table.
        let last = db.view.lock();
        assert!(last.holds(1) && last.holds(2), "view {} lost a write", last.id);
    })
}

/// The protocol as implemented holds all four properties across every
/// interleaving. Exhaustive over >= 1000 interleavings (ISSUE 17).
#[test]
fn published_view_is_consistent_and_released_exactly_once() {
    let report = explore::<true, true>("readview");
    assert!(report.violation.is_none(), "read-view violation: {:?}", report.violation);
    assert!(report.complete, "state space truncated at {} executions", report.executions);
    assert!(
        report.executions >= 1000,
        "expected >= 1000 interleavings, explored {}",
        report.executions
    );
}

/// Publish-after-swap *must* be caught pairing a fresh horizon with a view
/// that lacks the MemTable holding it. If the checker stops finding this,
/// the model (or the scheduler) broke.
#[test]
fn publish_after_swap_is_caught_reading_stale() {
    let report = explore::<false, true>("readview-publish-after-swap");
    let v = report.violation.expect("checker failed to catch the stale read");
    assert!(v.message.contains("missing seq"), "unexpected violation: {}", v.message);
}

/// Without the in-use mark the sweep *must* be caught releasing a view
/// that a call is still reading.
#[test]
fn sweep_blind_to_in_use_is_caught_using_after_release() {
    let report = explore::<true, false>("readview-no-in-use-mark");
    let v = report.violation.expect("checker failed to catch the use after release");
    assert!(v.message.contains("used after release"), "unexpected violation: {}", v.message);
}

/// The third rule's miniature: a horizon, and a published view that
/// remembers the newest horizon any compaction in it dropped versions by.
struct MiniGc {
    horizon: AtomicU64,
    /// `(id, dropped_at)`.
    view: Mutex<(u64, u64)>,
    view_id: AtomicU64,
}

impl MiniGc {
    /// The refresh path of `DbReader::with_view` (no parked view). `RELOAD =
    /// false` is the straw man: pin whatever is published, keep the horizon.
    fn read<const RELOAD: bool>(&self) {
        let mut horizon = self.horizon.load(Ordering::Acquire);
        let mut id = self.view_id.load(Ordering::Acquire);
        let view = loop {
            if RELOAD {
                horizon = self.horizon.load(Ordering::Acquire);
            }
            let view = *self.view.lock();
            if !RELOAD || view.0 == id {
                break view;
            }
            id = view.0;
        };
        assert!(
            view.1 <= horizon,
            "horizon {horizon} read through view {} whose compaction dropped what horizon {} shadows",
            view.0,
            view.1
        );
    }
}

fn explore_gc<const RELOAD: bool>(name: &str) -> dlsm_check::Report {
    Checker::new(name).preemption_bound(3).explore(|| {
        let db = Arc::new(MiniGc {
            horizon: AtomicU64::new(0),
            view: Mutex::new((0, 0)),
            view_id: AtomicU64::new(0),
        });
        let d = Arc::clone(&db);
        let writer = thread::spawn(move || {
            d.horizon.store(1, Ordering::Release);
            d.horizon.store(2, Ordering::Release);
        });
        let d = Arc::clone(&db);
        let reader = thread::spawn(move || {
            d.read::<RELOAD>();
            d.read::<RELOAD>();
        });
        // Two compactions: each loads its horizon, merges, installs.
        for _ in 0..2 {
            let dropped_at = db.horizon.load(Ordering::Acquire);
            let mut view = db.view.lock();
            *view = (view.0 + 1, dropped_at);
            db.view_id.store(view.0, Ordering::Release);
        }
        writer.join().unwrap();
        reader.join().unwrap();
    })
}

#[test]
fn a_refreshed_view_is_read_at_a_horizon_no_older_than_its_compactions() {
    let report = explore_gc::<true>("readview-gc");
    assert!(report.violation.is_none(), "violation: {:?}", report.violation);
    assert!(report.complete, "state space truncated at {} executions", report.executions);
    assert!(report.executions >= 100, "explored only {} interleavings", report.executions);
}

/// Keeping the first horizon across a refresh *must* be caught reading
/// through a view a later compaction built.
#[test]
fn a_stale_horizon_is_caught_reading_through_a_newer_compaction() {
    let report = explore_gc::<false>("readview-gc-stale-horizon");
    let v = report.violation.expect("checker failed to catch the stale horizon");
    assert!(v.message.contains("dropped what horizon"), "unexpected violation: {}", v.message);
}

/// `Db::snapshot` in miniature: a compaction drops what the smallest
/// registered snapshot — the horizon, when none is registered — shadows, so a
/// snapshot must not pin a view whose compactions dropped by a newer horizon
/// than its own.
struct MiniSnap {
    horizon: AtomicU64,
    /// The registered snapshot's sequence number.
    snapshots: Mutex<Option<u64>>,
    /// `(id, dropped_at)`.
    view: Mutex<(u64, u64)>,
}

impl MiniSnap {
    /// `LOCKED = false` is the straw man: load the horizon, then register it.
    fn snapshot<const LOCKED: bool>(&self) {
        let seq = if LOCKED {
            let mut snapshots = self.snapshots.lock();
            let seq = self.horizon.load(Ordering::Acquire);
            *snapshots = Some(seq);
            seq
        } else {
            let seq = self.horizon.load(Ordering::Acquire);
            *self.snapshots.lock() = Some(seq);
            seq
        };
        let view = *self.view.lock();
        assert!(
            view.1 <= seq,
            "snapshot {seq} pinned view {} whose compaction dropped what horizon {} shadows",
            view.0,
            view.1
        );
    }

    /// `Shared::smallest_snapshot`: the horizon is read under the lock.
    fn smallest_snapshot(&self) -> u64 {
        let snapshots = self.snapshots.lock();
        snapshots.unwrap_or_else(|| self.horizon.load(Ordering::Acquire))
    }
}

fn explore_snapshot<const LOCKED: bool>(name: &str) -> dlsm_check::Report {
    Checker::new(name).preemption_bound(3).explore(|| {
        let db = Arc::new(MiniSnap {
            horizon: AtomicU64::new(0),
            snapshots: Mutex::new(None),
            view: Mutex::new((0, 0)),
        });
        let d = Arc::clone(&db);
        let writer = thread::spawn(move || {
            d.horizon.store(1, Ordering::Release);
            d.horizon.store(2, Ordering::Release);
        });
        let d = Arc::clone(&db);
        let snapshotter = thread::spawn(move || d.snapshot::<LOCKED>());
        // Two compactions: each takes its drop horizon, merges, installs.
        for _ in 0..2 {
            let dropped_at = db.smallest_snapshot();
            let mut view = db.view.lock();
            *view = (view.0 + 1, view.1.max(dropped_at));
        }
        writer.join().unwrap();
        snapshotter.join().unwrap();
    })
}

#[test]
fn a_snapshot_registered_with_its_horizon_keeps_every_version_it_reads() {
    let report = explore_snapshot::<true>("readview-snapshot");
    assert!(report.violation.is_none(), "violation: {:?}", report.violation);
    assert!(report.complete, "state space truncated at {} executions", report.executions);
    assert!(report.executions >= 50, "explored only {} interleavings", report.executions);
}

/// Load-then-register *must* be caught losing a version to a compaction
/// that started in between.
#[test]
fn a_snapshot_registered_late_is_caught_losing_a_version() {
    let report = explore_snapshot::<false>("readview-snapshot-late");
    let v = report.violation.expect("checker failed to catch the late registration");
    assert!(v.message.contains("dropped what horizon"), "unexpected violation: {}", v.message);
}
