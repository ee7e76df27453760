//! Copy-on-write LSM-tree metadata (paper Sec. III, V-B).
//!
//! A [`Version`] is an immutable snapshot of the table layout: one `Vec` of
//! table handles per level. Installing an edit clones the affected levels
//! under a short mutex (the paper measures a metadata change every ~0.02 s,
//! so a mutex is plenty). Readers pin a version by cloning its `Arc`; the
//! pinned `Arc`s of the handles inside keep every referenced SSTable alive,
//! which is the entire snapshot-GC story.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::handle::TableHandle;
use crate::memtable::MemTable;

/// Everything a read pins, published by the database as one immutable
/// object (DESIGN.md §5.5). A new view is built whenever the set changes —
/// MemTable switch, flush install, compaction install — so a reader that
/// holds one view sees every write at or below its horizon exactly once: a
/// flushed MemTable leaves the view in the same step that adds its table.
pub struct ReadView {
    /// Publication number. A reader's cached view is current iff this
    /// equals the id the database last published.
    pub(crate) id: u64,
    /// The current MemTable, then the immutables newest first.
    pub(crate) mems: Vec<Arc<MemTable>>,
    /// The table layout.
    pub(crate) version: Arc<Version>,
}

/// Immutable table layout. Level 0 is ordered newest-first and may overlap;
/// levels ≥ 1 are ordered by smallest key and are disjoint.
#[derive(Clone)]
pub struct Version {
    levels: Vec<Vec<Arc<TableHandle>>>,
}

impl Version {
    /// An empty layout with `levels` levels (including L0).
    pub fn empty(levels: usize) -> Version {
        Version { levels: vec![Vec::new(); levels] }
    }

    /// Number of levels (including L0).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Tables at `level`.
    pub fn level(&self, level: usize) -> &[Arc<TableHandle>] {
        &self.levels[level]
    }

    /// Total number of tables.
    pub fn table_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Total data bytes at `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|t| t.extent.len).sum()
    }

    /// Tables at `level` whose user-key range intersects `[lo, hi]`.
    pub fn overlapping(&self, level: usize, lo: &[u8], hi: &[u8]) -> Vec<Arc<TableHandle>> {
        self.levels[level]
            .iter()
            .filter(|t| t.overlaps_user_range(lo, hi))
            .cloned()
            .collect()
    }

    /// For levels ≥ 1: the single table that may contain `user_key`.
    pub fn table_for_key(&self, level: usize, user_key: &[u8]) -> Option<&Arc<TableHandle>> {
        debug_assert!(level >= 1);
        let tables = &self.levels[level];
        // First table whose largest user key is >= user_key.
        let i = tables.partition_point(|t| t.largest_user() < user_key);
        let t = tables.get(i)?;
        (t.smallest_user() <= user_key).then_some(t)
    }

    /// Apply `edit`, producing the next version.
    fn apply(&self, edit: &VersionEdit) -> Version {
        let mut next = self.clone();
        for (level, ids) in &edit.deleted {
            next.levels[*level].retain(|t| !ids.contains(&t.id));
        }
        for (level, table) in &edit.added {
            let lvl = &mut next.levels[*level];
            if *level == 0 {
                // L0: newest first, ordered by descending table id (flush
                // order). Compaction outputs never land in L0.
                let pos = lvl.partition_point(|t| t.id > table.id);
                lvl.insert(pos, Arc::clone(table));
            } else {
                let pos = lvl.partition_point(|t| {
                    dlsm_sstable::key::compare_internal(&t.smallest, &table.smallest)
                        == std::cmp::Ordering::Less
                });
                lvl.insert(pos, Arc::clone(table));
            }
        }
        next
    }

    /// Debug summary like `[3, 1, 0, ...]` (tables per level).
    pub fn shape(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }
}

impl std::fmt::Debug for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Version{:?}", self.shape())
    }
}

/// A batch of table additions/removals applied atomically.
#[derive(Default)]
pub struct VersionEdit {
    added: Vec<(usize, Arc<TableHandle>)>,
    deleted: Vec<(usize, Vec<u64>)>,
}

impl VersionEdit {
    /// Add `table` at `level`.
    pub fn add(&mut self, level: usize, table: Arc<TableHandle>) -> &mut Self {
        self.added.push((level, table));
        self
    }

    /// Remove the tables with the given ids from `level`.
    pub fn delete(&mut self, level: usize, ids: Vec<u64>) -> &mut Self {
        self.deleted.push((level, ids));
        self
    }
}

/// The mutable head of the version chain.
pub struct VersionSet {
    current: Mutex<Arc<Version>>,
}

impl VersionSet {
    /// Start with an empty layout.
    pub fn new(levels: usize) -> VersionSet {
        VersionSet { current: Mutex::new(Arc::new(Version::empty(levels))) }
    }

    /// Pin the current version (cheap `Arc` clone).
    pub fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current.lock())
    }

    /// Atomically apply `edit` on top of the current version.
    pub fn install(&self, edit: &VersionEdit) -> Arc<Version> {
        let mut cur = self.current.lock();
        let next = Arc::new(cur.apply(edit));
        *cur = Arc::clone(&next);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::RemoteRegion;
    use crate::handle::{Extent, MetaKind, Origin};
    use dlsm_sstable::byte_addr::ByteAddrBuilder;
    use dlsm_sstable::key::{InternalKey, ValueType};
    use rdma_sim::{MrId, NodeId};

    fn handle(id: u64, lo: &str, hi: &str) -> Arc<TableHandle> {
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        b.add(InternalKey::new(lo.as_bytes(), 9, ValueType::Value).as_bytes(), b"v").unwrap();
        if hi != lo {
            b.add(InternalKey::new(hi.as_bytes(), 9, ValueType::Value).as_bytes(), b"v").unwrap();
        }
        let (_, meta) = b.finish();
        let s = meta.smallest().unwrap().to_vec();
        let l = meta.largest().unwrap().to_vec();
        TableHandle::new(
            id,
            RemoteRegion { node: NodeId(0), mr: MrId(0), rkey: 0, len: 1 << 20 },
            Extent { offset: id * 4096, len: 100 },
            Origin::External,
            MetaKind::ByteAddr(Arc::new(meta)),
            s,
            l,
            2,
            None,
        )
    }

    #[test]
    fn l0_orders_newest_first() {
        let vs = VersionSet::new(3);
        let mut e = VersionEdit::default();
        e.add(0, handle(1, "a", "z"));
        vs.install(&e);
        let mut e = VersionEdit::default();
        e.add(0, handle(3, "a", "z"));
        e.add(0, handle(2, "a", "z"));
        let v = vs.install(&e);
        let ids: Vec<u64> = v.level(0).iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![3, 2, 1]);
    }

    #[test]
    fn deeper_levels_order_by_smallest_key() {
        let vs = VersionSet::new(3);
        let mut e = VersionEdit::default();
        e.add(1, handle(1, "m", "p"));
        e.add(1, handle(2, "a", "c"));
        e.add(1, handle(3, "x", "z"));
        let v = vs.install(&e);
        let ids: Vec<u64> = v.level(1).iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![2, 1, 3]);
    }

    #[test]
    fn table_for_key_binary_search() {
        let vs = VersionSet::new(3);
        let mut e = VersionEdit::default();
        e.add(1, handle(1, "a", "c"));
        e.add(1, handle(2, "m", "p"));
        let v = vs.install(&e);
        assert_eq!(v.table_for_key(1, b"b").unwrap().id, 1);
        assert_eq!(v.table_for_key(1, b"m").unwrap().id, 2);
        assert_eq!(v.table_for_key(1, b"p").unwrap().id, 2);
        assert!(v.table_for_key(1, b"d").is_none());
        assert!(v.table_for_key(1, b"q").is_none());
    }

    #[test]
    fn edits_are_copy_on_write() {
        let vs = VersionSet::new(2);
        let mut e = VersionEdit::default();
        e.add(0, handle(1, "a", "b"));
        let v1 = vs.install(&e);
        let mut e = VersionEdit::default();
        e.delete(0, vec![1]);
        e.add(1, handle(2, "a", "b"));
        let v2 = vs.install(&e);
        // The old pinned version still sees the old layout.
        assert_eq!(v1.shape(), vec![1, 0]);
        assert_eq!(v2.shape(), vec![0, 1]);
        assert_eq!(vs.current().shape(), vec![0, 1]);
    }

    #[test]
    fn overlapping_filters_by_range() {
        let vs = VersionSet::new(2);
        let mut e = VersionEdit::default();
        e.add(1, handle(1, "a", "c"));
        e.add(1, handle(2, "f", "h"));
        e.add(1, handle(3, "m", "z"));
        let v = vs.install(&e);
        let ids: Vec<u64> = v.overlapping(1, b"b", b"g").iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert!(v.overlapping(1, b"d", b"e").is_empty());
    }

    #[test]
    fn level_bytes_sums_extents() {
        let vs = VersionSet::new(2);
        let mut e = VersionEdit::default();
        e.add(1, handle(1, "a", "b"));
        e.add(1, handle(2, "c", "d"));
        let v = vs.install(&e);
        assert_eq!(v.level_bytes(1), 200);
        assert_eq!(v.table_count(), 2);
    }
}
