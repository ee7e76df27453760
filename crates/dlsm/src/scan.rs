//! Range scans (paper Sec. VI, "supporting point and range queries").
//!
//! A scan builds one sub-iterator per MemTable, per L0 table, and per deeper
//! *level* (a lazy concatenation over that level's disjoint tables), merges
//! them, and applies snapshot visibility: for each user key, the newest
//! version at or below the snapshot horizon is surfaced, tombstones hide the
//! key. Table sub-iterators prefetch multi-MB chunks so sequential scans pay
//! one RDMA round trip per chunk instead of per record.

use std::sync::Arc;

use dlsm_sstable::iter::{ForwardIter, MergingIter};
use dlsm_sstable::key::{self, InternalKey, SeqNo, ValueType};

use crate::db::Shared;
use crate::handle::TableHandle;
use crate::remote::{table_iter, ReadChannel};
use crate::telemetry::ReaderSlot;
use crate::version::ReadView;
use crate::{DbError, Result};

/// Lazy concatenation over one level's disjoint, sorted tables: only the
/// table under the cursor is open (LevelDB's two-level iterator).
pub struct LevelConcatIter {
    tables: Vec<Arc<TableHandle>>,
    channel: ReadChannel,
    prefetch: usize,
    idx: usize,
    cur: Option<Box<dyn ForwardIter>>,
    /// Read cache, consulted peek-only (scans must not perturb it).
    cache: Option<Arc<dlsm_cache::ReadCache>>,
}

impl LevelConcatIter {
    /// Iterate over `tables` (sorted by smallest key, non-overlapping).
    pub fn new(
        tables: Vec<Arc<TableHandle>>,
        channel: ReadChannel,
        prefetch: usize,
        cache: Option<Arc<dlsm_cache::ReadCache>>,
    ) -> LevelConcatIter {
        LevelConcatIter { tables, channel, prefetch, idx: usize::MAX, cur: None, cache }
    }

    fn open(&mut self, i: usize) {
        self.idx = i;
        self.cur = (i < self.tables.len()).then(|| {
            table_iter(&self.channel, &self.tables[i], self.prefetch, self.cache.as_ref())
        });
    }

    /// Move forward past exhausted tables.
    fn skip_empty_forward(&mut self) -> dlsm_sstable::Result<()> {
        while let Some(cur) = &self.cur {
            if cur.valid() {
                return Ok(());
            }
            let next = self.idx + 1;
            if next >= self.tables.len() {
                self.cur = None;
                return Ok(());
            }
            self.open(next);
            if let Some(c) = &mut self.cur {
                c.seek_to_first()?;
            }
        }
        Ok(())
    }
}

impl ForwardIter for LevelConcatIter {
    fn valid(&self) -> bool {
        self.cur.as_ref().is_some_and(|c| c.valid())
    }

    fn key(&self) -> &[u8] {
        self.cur.as_ref().expect("valid").key()
    }

    fn value(&self) -> &[u8] {
        self.cur.as_ref().expect("valid").value()
    }

    fn next(&mut self) -> dlsm_sstable::Result<()> {
        self.cur.as_mut().expect("valid").next()?;
        self.skip_empty_forward()
    }

    fn seek(&mut self, ikey: &[u8]) -> dlsm_sstable::Result<()> {
        let user = key::user_key(ikey);
        let i = self.tables.partition_point(|t| t.largest_user() < user);
        if i >= self.tables.len() {
            self.cur = None;
            return Ok(());
        }
        self.open(i);
        if let Some(c) = &mut self.cur {
            c.seek(ikey)?;
        }
        self.skip_empty_forward()
    }

    fn seek_to_first(&mut self) -> dlsm_sstable::Result<()> {
        if self.tables.is_empty() {
            self.cur = None;
            return Ok(());
        }
        self.open(0);
        if let Some(c) = &mut self.cur {
            c.seek_to_first()?;
        }
        self.skip_empty_forward()
    }
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
    /// The slot of the reader that opened the scan (its `ScanNext`
    /// histogram; the scan stays on that reader's thread).
    reader: Arc<ReaderSlot>,
    // Pin: the view's version handles keep SSTable extents alive for as
    // long as the scan runs, whatever is published meanwhile.
    _view: Arc<ReadView>,
}

impl DbScan {
    pub(crate) fn build(
        shared: &Arc<Shared>,
        channel: &ReadChannel,
        reader: Arc<ReaderSlot>,
        view: Arc<ReadView>,
        snapshot: SeqNo,
        start: &[u8],
        prefetch: usize,
    ) -> Result<DbScan> {
        let version = &view.version;
        let mut children: Vec<Box<dyn ForwardIter>> = Vec::new();
        for mem in &view.mems {
            children.push(Box::new(mem.iter()));
        }
        for t in version.level(0) {
            children.push(table_iter(channel, t, prefetch, shared.cache.as_ref()));
        }
        for level in 1..version.level_count() {
            if !version.level(level).is_empty() {
                children.push(Box::new(LevelConcatIter::new(
                    version.level(level).to_vec(),
                    channel.clone(),
                    prefetch,
                    shared.cache.clone(),
                )));
            }
        }
        let children_count = children.len();
        let mut merged = MergingIter::new(children);
        let target = InternalKey::for_lookup(start, snapshot);
        {
            let _sp = dlsm_trace::span_arg(
                dlsm_trace::Category::Db,
                "scan_seek",
                children_count as u64,
            );
            merged
                .seek(target.as_bytes())
                .map_err(|e| DbError::Sst(e.to_string()))?;
        }
        Ok(DbScan {
            merged,
            snapshot,
            last_user: Vec::new(),
            have_last: false,
            end: Vec::new(),
            reader,
            _view: view,
        })
    }

    /// Restrict the scan to user keys strictly below `end` (builder-style).
    #[must_use]
    pub fn until(mut self, end: &[u8]) -> DbScan {
        self.end = end.to_vec();
        self
    }

    fn step(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        while self.merged.valid() {
            let (user, seq, vt) = match key::split(self.merged.key()) {
                Some(parts) => parts,
                None => {
                    self.merged.next().map_err(|e| DbError::Sst(e.to_string()))?;
                    continue;
                }
            };
            // Past the bound: the merged stream is key-ordered, so stop.
            if !self.end.is_empty() && user >= self.end.as_slice() {
                return Ok(None);
            }
            // Invisible to the snapshot.
            if seq > self.snapshot {
                self.merged.next().map_err(|e| DbError::Sst(e.to_string()))?;
                continue;
            }
            // Older version of a user key we already emitted/skipped.
            if self.have_last && user == self.last_user.as_slice() {
                self.merged.next().map_err(|e| DbError::Sst(e.to_string()))?;
                continue;
            }
            self.last_user.clear();
            self.last_user.extend_from_slice(user);
            self.have_last = true;
            let out = match vt {
                ValueType::Value => Some((user.to_vec(), self.merged.value().to_vec())),
                ValueType::Deletion => None,
            };
            self.merged.next().map_err(|e| DbError::Sst(e.to_string()))?;
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
        let t0 = std::time::Instant::now();
        let item = self.step().transpose();
        if item.is_some() {
            self.reader.stats.record_op(dlsm_telemetry::OpClass::ScanNext, t0.elapsed());
        }
        item
    }
}
