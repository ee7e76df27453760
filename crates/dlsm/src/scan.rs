//! Range scans (paper Sec. VI, "supporting point and range queries";
//! DESIGN.md §5.11).
//!
//! A scan merges one sub-iterator per MemTable and per *sorted run* — an L0
//! table, or a deeper level as a lazy concatenation of its disjoint tables
//! — and applies snapshot visibility: for each user key, the newest version
//! at or below the snapshot horizon is surfaced, tombstones hide the key.
//! It opens as plan → wave → merge: the compute-resident index of every
//! table says which bytes of it the range `[start, end)` needs before any
//! is fetched, the first chunk of every run crosses the fabric in one wave,
//! and a run with nothing in range costs neither a READ nor a merge child.

use std::rc::Rc;
use std::sync::Arc;

use dlsm_sstable::byte_addr::ByteAddrIter;
use dlsm_sstable::iter::{ForwardIter, MergingIter};
use dlsm_sstable::key::{self, InternalKey, SeqNo, ValueType};

use crate::db::Shared;
use crate::handle::TableHandle;
use crate::remote::{fetch_wave, table_scan, Fetch, Channel, RemoteSource, TableScan};
use crate::telemetry::ReaderSlot;
use crate::version::ReadView;
use crate::Result;

/// How one scan opens a table: [`table_scan`] with the scan's channel, cache
/// (peek-only: scans must not perturb it), bound and ceiling, for a sorted
/// run that has fetched so many bytes.
type OpenTable = dyn Fn(&TableHandle, u64) -> TableScan;

/// Lazy concatenation over one sorted run's disjoint, sorted tables: only
/// the table under the cursor is open (LevelDB's two-level iterator).
struct LevelConcatIter {
    tables: Vec<Arc<TableHandle>>,
    open_table: Rc<OpenTable>,
    /// Bytes fetched from the tables opened so far. The fetch window is a
    /// function of it ([`ByteAddrIter::scan_to`]), so the window belongs to
    /// the run: the next table continues where the last one stopped.
    fetched: u64,
    idx: usize,
    cur: Option<Box<dyn ForwardIter>>,
}

impl LevelConcatIter {
    /// Open table `i` for a seek to `ikey` (`None`: to its first record),
    /// unless it is the one that is open.
    fn open(&mut self, i: usize, ikey: Option<&[u8]>) -> dlsm_sstable::Result<()> {
        if i == self.idx && self.cur.is_some() {
            return Ok(());
        }
        self.cur = None;
        let Some(t) = self.tables.get(i) else { return Ok(()) };
        let scan = (self.open_table)(t, self.fetched);
        if let TableScan::Wave(it) = &scan {
            if let Some((wanted, _)) = it.plan(ikey)? {
                self.fetched += wanted.end - wanted.start;
            }
        }
        self.cur = Some(scan.boxed());
        self.idx = i;
        Ok(())
    }

    /// Move forward past exhausted tables.
    fn skip_empty_forward(&mut self) -> dlsm_sstable::Result<()> {
        while let Some(cur) = &self.cur {
            if cur.valid() {
                return Ok(());
            }
            self.open(self.idx + 1, None)?;
            if let Some(c) = &mut self.cur {
                c.seek_to_first()?;
            }
        }
        Ok(())
    }

    /// The run as a merge child: a run of one table is that table.
    fn into_child(mut self) -> Box<dyn ForwardIter> {
        match self.cur.take() {
            Some(cur) if self.tables.len() == 1 => cur,
            cur => Box::new(LevelConcatIter { cur, ..self }),
        }
    }
}

impl ForwardIter for LevelConcatIter {
    fn valid(&self) -> bool {
        self.cur.as_ref().is_some_and(|c| c.valid())
    }

    // `valid()` comes before use (the `ForwardIter` contract): an invalid
    // iterator has no key and no value to give.
    fn key(&self) -> &[u8] {
        self.cur.as_ref().map_or(&[], |c| c.key())
    }

    fn value(&self) -> &[u8] {
        self.cur.as_ref().map_or(&[], |c| c.value())
    }

    fn next(&mut self) -> dlsm_sstable::Result<()> {
        if let Some(c) = &mut self.cur {
            c.next()?;
        }
        self.skip_empty_forward()
    }

    fn seek(&mut self, ikey: &[u8]) -> dlsm_sstable::Result<()> {
        let user = key::user_key(ikey);
        self.open(self.tables.partition_point(|t| t.largest_user() < user), Some(ikey))?;
        if let Some(c) = &mut self.cur {
            c.seek(ikey)?;
        }
        self.skip_empty_forward()
    }

    fn seek_to_first(&mut self) -> dlsm_sstable::Result<()> {
        self.open(0, None)?;
        if let Some(c) = &mut self.cur {
            c.seek_to_first()?;
        }
        self.skip_empty_forward()
    }
}

/// The tables of a sorted run that can hold a user key in `[start, end)`
/// (empty `end` = unbounded).
fn in_range<'v>(run: &'v [Arc<TableHandle>], start: &[u8], end: &[u8]) -> &'v [Arc<TableHandle>] {
    let from = run.partition_point(|t| t.largest_user() < start);
    let to = run.partition_point(|t| end.is_empty() || t.smallest_user() < end);
    run.get(from..to).unwrap_or(&[])
}

/// A streaming range scan. Yields `(user_key, value)` pairs in key order,
/// newest visible version per key, tombstoned keys skipped.
pub struct DbScan {
    merged: MergingIter<Box<dyn ForwardIter>>,
    snapshot: SeqNo,
    last_user: Vec<u8>,
    have_last: bool,
    /// Exclusive upper bound on user keys (empty = unbounded).
    end: Vec<u8>,
    /// The slot of the reader that opened the scan: each entry yielded is one
    /// `ScanNext` call on its op clock (the scan stays on the reader's thread).
    reader: Arc<ReaderSlot>,
    // Pin: the view's version handles keep SSTable extents alive for as
    // long as the scan runs, whatever is published meanwhile.
    _view: Arc<ReadView>,
}

impl DbScan {
    /// Open a scan of user keys in `[start, end)` (empty `end` =
    /// unbounded): plan every sorted run from compute-resident metadata,
    /// fetch their first chunks in one wave, merge.
    pub(crate) fn build(
        shared: &Arc<Shared>,
        channel: &Channel,
        reader: Arc<ReaderSlot>,
        view: Arc<ReadView>,
        snapshot: SeqNo,
        start: &[u8],
        end: &[u8],
    ) -> Result<DbScan> {
        let sp = dlsm_trace::span(dlsm_trace::Category::Db, "scan_seek");
        let version = &view.version;
        let target = InternalKey::for_lookup(start, snapshot);
        let ceiling = shared.cfg.scan_prefetch;
        // A bound makes the bytes up to it known to be wanted: fetch them
        // ceiling-sized from the first chunk. An unbounded scan may stop
        // anywhere and ramps up from nothing.
        let fetched = if end.is_empty() { 0 } else { ceiling as u64 };
        let (chan, cache, bound) = (channel.clone(), shared.cache.clone(), end.to_vec());
        let open_table: Rc<OpenTable> = Rc::new(move |t: &TableHandle, fetched| {
            table_scan(&chan, t, &bound, fetched, ceiling, cache.as_ref())
        });
        let mut runs: Vec<LevelConcatIter> = Vec::new();
        let mut wave: Vec<Fetch<'_, (usize, ByteAddrIter<RemoteSource>)>> = Vec::new();
        let l0 = version.level(0).iter().map(std::slice::from_ref);
        for run in l0.chain((1..version.level_count()).map(|level| version.level(level))) {
            let tables = in_range(run, start, end);
            let Some(first) = tables.first() else { continue };
            let (tables, open_table) = (tables.to_vec(), Rc::clone(&open_table));
            let mut run = LevelConcatIter { tables, open_table, fetched, idx: 0, cur: None };
            match (run.open_table)(first, fetched) {
                TableScan::Own(it) => run.cur = Some(it),
                TableScan::Wave(it) => match it.plan(Some(target.as_bytes()))? {
                    Some((wanted, len)) => {
                        run.fetched += wanted.end - wanted.start;
                        let (offset, buf, what) = (wanted.start, vec![0u8; len], (runs.len(), it));
                        wave.push(Fetch { table: first, offset, buf, what });
                    }
                    // Nothing of the run's only table is in range: no
                    // READ, no merge child.
                    None if run.tables.len() == 1 => continue,
                    None => run.cur = Some(Box::new(it)),
                },
            }
            runs.push(run);
        }
        fetch_wave(channel, &mut wave)?;
        for Fetch { offset, buf, what: (run, mut it), .. } in wave {
            it.prime(offset, buf);
            runs[run].cur = Some(Box::new(it));
        }
        let mems = view.mems.iter().map(|mem| Box::new(mem.iter()) as Box<dyn ForwardIter>);
        let children = mems.chain(runs.into_iter().map(LevelConcatIter::into_child)).collect();
        // Every table child finds its first record in the chunk it holds.
        let mut merged = MergingIter::new(children);
        merged.seek(target.as_bytes())?;
        drop(sp);
        Ok(DbScan {
            merged,
            snapshot,
            last_user: Vec::new(),
            have_last: false,
            end: end.to_vec(),
            reader,
            _view: view,
        })
    }


    fn step(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        while self.merged.valid() {
            let (user, seq, vt) = match key::split(self.merged.key()) {
                Some(parts) => parts,
                None => {
                    self.merged.next()?;
                    continue;
                }
            };
            // Past the bound: the merged stream is key-ordered, so stop.
            if !self.end.is_empty() && user >= self.end.as_slice() {
                return Ok(None);
            }
            // Invisible to the snapshot.
            if seq > self.snapshot {
                self.merged.next()?;
                continue;
            }
            // Older version of a user key we already emitted/skipped.
            if self.have_last && user == self.last_user.as_slice() {
                self.merged.next()?;
                continue;
            }
            self.last_user.clear();
            self.last_user.extend_from_slice(user);
            self.have_last = true;
            let out = match vt {
                ValueType::Value => Some((user.to_vec(), self.merged.value().to_vec())),
                ValueType::Deletion => None,
            };
            self.merged.next()?;
            if let Some(pair) = out {
                return Ok(Some(pair));
            }
        }
        Ok(None)
    }
}

impl Iterator for DbScan {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let clock = self.reader.stats.scan_clock();
        let item = self.step().transpose();
        if let Some(Ok(_)) = &item {
            clock.finish(&self.reader.stats, dlsm_telemetry::OpClass::ScanNext);
        }
        item
    }
}
