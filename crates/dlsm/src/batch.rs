//! Write batches (paper Sec. II-C).
//!
//! "Inserts, updates, and deletes are all appended entries into a write
//! buffer. The entries are first written into a write batch that are
//! committed all at once. Then, the write batches are assigned with sequence
//! numbers to reflect the time order of the entries."
//!
//! A [`WriteBatch`] is applied with one sequence-number block
//! (`fetch_add(n)`), so its entries are consecutive in time order and land
//! in a single MemTable (the sequence-range switch protocol guarantees the
//! whole block belongs to one table; if the block straddles a range
//! boundary or the arena fills mid-batch, the batch re-fetches a fresh
//! block and re-applies — the partial prefix of a failed attempt is
//! harmlessly shadowed by the retry's higher sequence numbers). `Db::put`
//! and `Db::delete` take the same path as a block of one. A batch wider
//! than a MemTable's sequence range, or larger than its arena, is refused
//! with `DbError::InvalidArgument` before it draws a sequence number.

use dlsm_sstable::key::{SeqNo, ValueType};

/// A buffered group of writes applied together.
///
/// ```
/// use dlsm::WriteBatch;
/// let mut batch = WriteBatch::new();
/// batch.put(b"account:alice", b"90");
/// batch.put(b"account:bob", b"110");
/// batch.delete(b"pending:transfer-42");
/// assert_eq!(batch.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    pub(crate) entries: Vec<(ValueType, Vec<u8>, Vec<u8>)>,
    bytes: usize,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Queue an insert/overwrite.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.bytes += key.len() + value.len();
        self.entries.push((ValueType::Value, key.to_vec(), value.to_vec()));
        self
    }

    /// Queue a delete.
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        self.bytes += key.len();
        self.entries.push((ValueType::Deletion, key.to_vec(), Vec::new()));
        self
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate payload bytes queued.
    pub fn approximate_bytes(&self) -> usize {
        self.bytes
    }

    /// Drop all queued entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }
}

/// Outcome of applying a batch: the sequence block it received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchCommit {
    /// Sequence number of the first entry.
    pub first_seq: SeqNo,
    /// Number of entries committed.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder() {
        let mut b = WriteBatch::new();
        assert!(b.is_empty());
        b.put(b"a", b"1").put(b"b", b"2").delete(b"c");
        assert_eq!(b.len(), 3);
        assert_eq!(b.approximate_bytes(), 2 + 2 + 1);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.approximate_bytes(), 0);
    }
}
