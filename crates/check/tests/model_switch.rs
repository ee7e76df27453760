//! Model-check the write pipeline from `crates/dlsm/src/db.rs` (Sec. II-C and
//! IV of the paper), re-implemented over the dlsm-check shim in miniature:
//! the same block fetch, range checks, double-checked switch and size-triggered
//! rotation as `Shared::write_batch`, minus the arena/flush machinery. The
//! property under test is the one the paper's protocol exists for: **no write
//! ever lands in an older MemTable than a concurrent write with a smaller
//! sequence number** (otherwise L0, ordered by flush id, would shadow new data
//! with old).
//!
//! The naive protocol — the same loop over tables that span the whole
//! sequence space, kept for the ablation — violates exactly this; the checker
//! must find that too.

use std::ops::Range;
use std::sync::Arc;

use dlsm_check::shim::{thread, Mutex, Ordering, RwLock};
use dlsm_check::shim::AtomicU64;
use dlsm_check::{Checker, Report};

struct MiniTable {
    id: u64,
    range: Range<u64>,
    cap: usize,
    rows: Mutex<Vec<u64>>,
}

impl MiniTable {
    fn new(id: u64, range: Range<u64>, cap: usize) -> Arc<MiniTable> {
        Arc::new(MiniTable { id, range, cap, rows: Mutex::new(Vec::new()) })
    }
}

struct MiniDb {
    seq: AtomicU64,
    current: RwLock<Arc<MiniTable>>,
    retired: Mutex<Vec<Arc<MiniTable>>>,
    switch_lock: Mutex<()>,
    next_id: AtomicU64,
    /// Sequence numbers per table; `None` is the naive protocol's whole space.
    width: Option<u64>,
    cap: usize,
}

impl MiniDb {
    fn new(width: Option<u64>, cap: usize) -> MiniDb {
        MiniDb {
            seq: AtomicU64::new(0),
            current: RwLock::new(MiniTable::new(0, range(width, 0), cap)),
            retired: Mutex::new(Vec::new()),
            switch_lock: Mutex::new(()),
            next_id: AtomicU64::new(1),
            width,
            cap,
        }
    }

    /// `Shared::do_switch` in miniature: replace current, retire the old
    /// table, jump the counter to the new range's start.
    fn do_switch(&self, start: u64) {
        let new = MiniTable::new(
            self.next_id.fetch_add(1, Ordering::AcqRel),
            range(self.width, start),
            self.cap,
        );
        let start = new.range.start;
        let old = {
            let mut w = self.current.write();
            std::mem::replace(&mut *w, new)
        };
        self.seq.fetch_max(start, Ordering::AcqRel);
        self.retired.lock().push(old);
    }

    /// `Shared::switch_at`: double-checked under `switch_lock`.
    fn switch_at(&self, expected_end: u64) {
        let _g = self.switch_lock.lock();
        if self.current.read().range.end != expected_end {
            return; // somebody already switched
        }
        self.do_switch(expected_end);
    }

    fn switch_full(&self, full_id: u64) {
        let _g = self.switch_lock.lock();
        let end = {
            let cur = self.current.read();
            if cur.id != full_id {
                return;
            }
            cur.range.end
        };
        self.do_switch(end);
    }

    /// `Shared::write_batch`: one block of `n` sequence numbers, all in one
    /// table; returns the block's first number.
    fn write(&self, n: u64) -> u64 {
        'refetch: loop {
            let base = self.seq.fetch_add(n, Ordering::AcqRel);
            loop {
                let guard = self.current.read();
                if base < guard.range.start {
                    drop(guard);
                    continue 'refetch; // table retired; abandon the block
                }
                if base + n > guard.range.end {
                    let end = guard.range.end;
                    drop(guard);
                    self.switch_at(end);
                    if base >= end {
                        continue; // retry the same block against the new table
                    }
                    continue 'refetch; // block straddles: take a fresh one
                }
                let mut rows = guard.rows.lock();
                rows.extend(base..base + n);
                let full = rows.len() >= guard.cap;
                drop(rows);
                let id = guard.id;
                drop(guard);
                if full {
                    self.switch_full(id);
                }
                return base;
            }
        }
    }

    /// All tables oldest-first, retired then current.
    fn tables(&self) -> Vec<Arc<MiniTable>> {
        let mut v: Vec<Arc<MiniTable>> = self.retired.lock().clone();
        v.push(Arc::clone(&*self.current.read()));
        v.sort_by_key(|t| t.id);
        v
    }
}

/// The engine's `memtable` range rule.
fn range(width: Option<u64>, start: u64) -> Range<u64> {
    match width {
        Some(width) => start..start + width,
        None => 0..u64::MAX,
    }
}

/// Two writers issue blocks of the given sizes against `width`-wide tables.
/// Every sequence number must land inside its table's pre-assigned range —
/// ranges are consecutive and disjoint, so that IS the no-older-table
/// property — each block in one table, none lost or duplicated.
fn explore_seq_range(name: &str, width: u64, writers: [&'static [u64]; 2]) -> Report {
    let report = Checker::new(name).preemption_bound(3).explore(move || {
        let db = Arc::new(MiniDb::new(Some(width), usize::MAX));
        let handles = writers.map(|blocks| {
            let db = Arc::clone(&db);
            thread::spawn(move || blocks.iter().map(|&n| (db.write(n), n)).collect::<Vec<_>>())
        });
        let committed: Vec<(u64, u64)> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect();

        let mut all = Vec::new();
        for t in db.tables() {
            let rows = t.rows.lock();
            for &seq in rows.iter() {
                assert!(
                    t.range.contains(&seq),
                    "seq {seq} landed in table {} with range {:?}",
                    t.id,
                    t.range
                );
            }
            for &(base, n) in &committed {
                let held = (base..base + n).filter(|s| rows.contains(s)).count() as u64;
                assert!(held == 0 || held == n, "block {base}+{n} split across tables");
            }
            all.extend(rows.iter().copied());
        }
        let entries: u64 = writers.iter().flat_map(|b| b.iter()).sum();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, entries, "writes lost or duplicated: {all:?}");
    });
    assert!(report.violation.is_none(), "{name}: violation: {:?}", report.violation);
    assert!(report.complete, "{name}: state space truncated at {} executions", report.executions);
    report
}

/// Width 2 and 2 writers x 2 + 1 single-entry writes forces at least one
/// switch. Exhaustive over >= 1000 interleavings.
#[test]
fn seq_range_protocol_never_misfiles_a_write() {
    let report = explore_seq_range("memtable-switch-seq-range", 2, [&[1, 1], &[1]]);
    assert!(report.executions >= 1000, "expected >= 1000 interleavings, explored {}", report.executions);
}

/// Two 2-entry blocks cannot share a width-3 range: whichever draws second
/// straddles its end, switches and takes a fresh block in the next table.
#[test]
fn a_block_that_straddles_a_range_end_moves_whole_to_the_next_table() {
    let report = explore_seq_range("memtable-switch-straddle", 3, [&[2], &[2, 1]]);
    assert!(report.executions >= 1000, "expected >= 1000 interleavings, explored {}", report.executions);
}

/// The straw-man protocol *must* exhibit the inversion the paper describes:
/// a larger sequence number filed in an older table than a smaller one.
/// If the checker stops finding this, the model (or the scheduler) broke.
#[test]
fn naive_protocol_misfiles_under_concurrency() {
    let report = Checker::new("memtable-switch-naive")
        .preemption_bound(2)
        .explore(|| {
            // Whole-space tables that rotate after every write.
            let db = Arc::new(MiniDb::new(None, 1));
            let d1 = Arc::clone(&db);
            let t1 = thread::spawn(move || {
                d1.write(1);
            });
            db.write(1);
            t1.join().unwrap();

            // Inversion: some table holds a seq smaller than a seq in an
            // *older* table (tables() is sorted oldest-first by id).
            let tables = db.tables();
            let mut prev_tables_max: Option<u64> = None;
            for t in &tables {
                let rows = t.rows.lock();
                if let Some(m) = prev_tables_max {
                    for &seq in rows.iter() {
                        assert!(seq > m, "seq {seq} filed in a newer table than seq {m}");
                    }
                }
                let table_max = rows.iter().copied().max();
                prev_tables_max = prev_tables_max.max(table_max);
            }
        });
    assert!(
        report.violation.is_some(),
        "checker failed to find the naive-protocol inversion in {} executions",
        report.executions
    );
}
