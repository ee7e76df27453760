//! MemTables with pre-assigned sequence-number ranges (paper Sec. IV).

use std::ops::Range;
use std::sync::Arc;

use dlsm_skiplist::{ArcSkipIter, ArenaFull, SkipList};
use dlsm_sstable::iter::ForwardIter;
use dlsm_sstable::key::{self, InternalKey, InternalKeyComparator, SeqNo, ValueType};

/// Result of a MemTable point lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemGet {
    /// Newest visible version is a live value.
    Found(Vec<u8>),
    /// Newest visible version is a tombstone.
    Deleted,
    /// No visible version of the key in this table.
    NotFound,
}

/// One MemTable: a lock-free skip list plus the sequence-number range
/// `[range.start, range.end)` pre-assigned at creation. Every entry stored
/// here has its sequence number within the range, which is what guarantees
/// that a newer version of a key can never sit in an older table (Fig. 3).
pub struct MemTable {
    /// Monotone table id (also orders L0 files produced from this table).
    pub id: u64,
    /// Pre-assigned sequence range.
    pub range: Range<SeqNo>,
    /// Retirement order, assigned when the table becomes immutable. Flush
    /// results MUST be installed in this order: a newer table reaching L0
    /// (or deeper, via compaction) before an older one is installed would
    /// put newer versions *below* older ones and break reads.
    pub flush_order: std::sync::atomic::AtomicU64,
    /// Tombstones successfully inserted into this table, so the flush path
    /// can account delete traffic without re-walking the skip list.
    tombstones: std::sync::atomic::AtomicU64,
    list: Arc<SkipList<InternalKeyComparator>>,
    size_limit: usize,
}

impl MemTable {
    /// Create a table covering `range` with an arena of `arena_bytes`.
    pub fn new(id: u64, range: Range<SeqNo>, size_limit: usize, arena_bytes: usize) -> MemTable {
        MemTable {
            id,
            range,
            flush_order: std::sync::atomic::AtomicU64::new(u64::MAX),
            tombstones: std::sync::atomic::AtomicU64::new(0),
            list: Arc::new(SkipList::with_capacity(InternalKeyComparator, arena_bytes)),
            size_limit,
        }
    }

    /// Whether `seq` belongs to this table.
    #[inline]
    pub fn covers(&self, seq: SeqNo) -> bool {
        self.range.contains(&seq)
    }

    /// Insert one entry. `seq` must be within the table's range.
    pub fn add(
        &self,
        seq: SeqNo,
        vt: ValueType,
        user_key: &[u8],
        value: &[u8],
    ) -> Result<(), ArenaFull> {
        debug_assert!(self.covers(seq), "seq {seq} outside range {:?}", self.range);
        let ikey = InternalKey::new(user_key, seq, vt);
        let out = self.list.insert(ikey.as_bytes(), value);
        if out.is_ok() && vt == ValueType::Deletion {
            // ORDERING: relaxed — monotonic stats counter; only read after
            // the table is immutable (flush accounting tolerates staleness).
            self.tombstones.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        out
    }

    /// Tombstones inserted into this table so far.
    pub fn tombstones(&self) -> u64 {
        // ORDERING: relaxed — stats read; tolerates staleness.
        self.tombstones.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Newest version of `user_key` visible at `snapshot`.
    pub fn get(&self, user_key: &[u8], snapshot: SeqNo) -> MemGet {
        match key::with_lookup_key(user_key, snapshot, |lookup| self.list.seek_ge(lookup)) {
            Some((ikey, value)) => match key::split(ikey) {
                Some((ukey, _, vt)) if ukey == user_key => match vt {
                    ValueType::Value => MemGet::Found(value.to_vec()),
                    ValueType::Deletion => MemGet::Deleted,
                },
                _ => MemGet::NotFound,
            },
            None => MemGet::NotFound,
        }
    }

    /// Bytes used in the arena (the flush-size upper bound).
    pub fn memory_usage(&self) -> usize {
        self.list.memory_usage()
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when no entries were inserted.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Whether the size trigger should rotate this table.
    pub fn is_full(&self) -> bool {
        self.memory_usage() >= self.size_limit
    }

    /// Owned forward iterator over the table (pins the skip list).
    pub fn iter(&self) -> MemTableIter {
        MemTableIter { it: ArcSkipIter::new(Arc::clone(&self.list)), started: false }
    }
}

impl std::fmt::Debug for MemTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTable")
            .field("id", &self.id)
            .field("range", &self.range)
            .field("len", &self.len())
            .field("bytes", &self.memory_usage())
            .finish()
    }
}

/// [`ForwardIter`] over a MemTable; owns an `Arc` of the skip list so scans
/// can hold it past the table's removal from the active list.
pub struct MemTableIter {
    it: ArcSkipIter<InternalKeyComparator>,
    started: bool,
}

impl ForwardIter for MemTableIter {
    fn valid(&self) -> bool {
        self.started && self.it.valid()
    }

    fn key(&self) -> &[u8] {
        self.it.key()
    }

    fn value(&self) -> &[u8] {
        self.it.value()
    }

    fn next(&mut self) -> dlsm_sstable::Result<()> {
        self.it.advance();
        Ok(())
    }

    fn seek(&mut self, ikey: &[u8]) -> dlsm_sstable::Result<()> {
        self.it.seek(ikey);
        self.started = true;
        Ok(())
    }

    fn seek_to_first(&mut self) -> dlsm_sstable::Result<()> {
        self.it.seek_to_first();
        self.started = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MemTable {
        MemTable::new(1, 100..200, 64 << 10, 256 << 10)
    }

    #[test]
    fn covers_respects_range() {
        let m = table();
        assert!(!m.covers(99));
        assert!(m.covers(100));
        assert!(m.covers(199));
        assert!(!m.covers(200));
    }

    #[test]
    fn get_visibility_by_snapshot() {
        let m = table();
        m.add(110, ValueType::Value, b"k", b"v110").unwrap();
        m.add(120, ValueType::Value, b"k", b"v120").unwrap();
        assert_eq!(m.get(b"k", 115), MemGet::Found(b"v110".to_vec()));
        assert_eq!(m.get(b"k", 120), MemGet::Found(b"v120".to_vec()));
        assert_eq!(m.get(b"k", 109), MemGet::NotFound);
        assert_eq!(m.get(b"other", 150), MemGet::NotFound);
    }

    #[test]
    fn tombstone_visible() {
        let m = table();
        m.add(110, ValueType::Value, b"k", b"v").unwrap();
        m.add(120, ValueType::Deletion, b"k", b"").unwrap();
        assert_eq!(m.get(b"k", 130), MemGet::Deleted);
        assert_eq!(m.get(b"k", 115), MemGet::Found(b"v".to_vec()));
    }

    #[test]
    fn iter_yields_internal_order() {
        let m = table();
        m.add(110, ValueType::Value, b"b", b"1").unwrap();
        m.add(111, ValueType::Value, b"a", b"2").unwrap();
        m.add(112, ValueType::Value, b"b", b"3").unwrap();
        let mut it = m.iter();
        it.seek_to_first().unwrap();
        let mut got = Vec::new();
        while it.valid() {
            let (u, s, _) = key::split(it.key()).unwrap();
            got.push((u.to_vec(), s));
            it.next().unwrap();
        }
        // a@111, then b newest-first: b@112, b@110.
        assert_eq!(got, vec![(b"a".to_vec(), 111), (b"b".to_vec(), 112), (b"b".to_vec(), 110)]);
    }

    #[test]
    fn size_trigger() {
        let m = MemTable::new(1, 0..1000, 4 << 10, 64 << 10);
        assert!(!m.is_full());
        for i in 0..40u64 {
            m.add(i, ValueType::Value, format!("key{i}").as_bytes(), &[7u8; 100]).unwrap();
        }
        assert!(m.is_full());
    }
}
