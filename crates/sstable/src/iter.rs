//! Positional iterators and the k-way merging iterator.

use std::cmp::Ordering;

use crate::key::compare_internal;
use crate::Result;

/// LevelDB-style positional iterator over `(internal_key, value)` records in
/// internal-key order.
///
/// After construction an iterator is *invalid*; position it with
/// [`ForwardIter::seek`] or [`ForwardIter::seek_to_first`]. `key`/`value`
/// may only be called while `valid()`.
#[allow(clippy::should_implement_trait)] // positional `next`, LevelDB-style
pub trait ForwardIter {
    /// Whether the iterator points at a record.
    fn valid(&self) -> bool;

    /// Internal key at the current position.
    fn key(&self) -> &[u8];

    /// Value at the current position.
    fn value(&self) -> &[u8];

    /// Advance to the next record (may become invalid).
    fn next(&mut self) -> Result<()>;

    /// Position at the first record with key ≥ `ikey`.
    fn seek(&mut self, ikey: &[u8]) -> Result<()>;

    /// Position at the first record.
    fn seek_to_first(&mut self) -> Result<()>;
}

impl<T: ForwardIter + ?Sized> ForwardIter for Box<T> {
    fn valid(&self) -> bool {
        (**self).valid()
    }
    fn key(&self) -> &[u8] {
        (**self).key()
    }
    fn value(&self) -> &[u8] {
        (**self).value()
    }
    fn next(&mut self) -> Result<()> {
        (**self).next()
    }
    fn seek(&mut self, ikey: &[u8]) -> Result<()> {
        (**self).seek(ikey)
    }
    fn seek_to_first(&mut self) -> Result<()> {
        (**self).seek_to_first()
    }
}

/// An iterator over an in-memory `Vec` of records (tests, small merges).
#[derive(Debug, Clone, Default)]
pub struct VecIter {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    pos: usize,
}

impl VecIter {
    /// Wrap `entries`, which must already be sorted by internal key.
    pub fn new(entries: Vec<(Vec<u8>, Vec<u8>)>) -> VecIter {
        debug_assert!(entries.windows(2).all(|w| compare_internal(&w[0].0, &w[1].0) == Ordering::Less));
        VecIter { entries, pos: usize::MAX }
    }
}

impl ForwardIter for VecIter {
    fn valid(&self) -> bool {
        self.pos < self.entries.len()
    }
    fn key(&self) -> &[u8] {
        &self.entries[self.pos].0
    }
    fn value(&self) -> &[u8] {
        &self.entries[self.pos].1
    }
    fn next(&mut self) -> Result<()> {
        debug_assert!(self.valid());
        self.pos += 1;
        Ok(())
    }
    fn seek(&mut self, ikey: &[u8]) -> Result<()> {
        self.pos = self.entries.partition_point(|(k, _)| compare_internal(k, ikey) == Ordering::Less);
        Ok(())
    }
    fn seek_to_first(&mut self) -> Result<()> {
        self.pos = 0;
        Ok(())
    }
}

/// K-way merge of child iterators into one internal-key-ordered stream.
///
/// The level count of an LSM-tree is small (≤ 8 here), so the merge keeps no
/// heap: it remembers the child holding the smallest key and the *runner-up*,
/// the smallest among the rest. A step moves only the leading child, so one
/// comparison against the runner-up says whether it still leads; the other
/// children are rescanned only when the lead changes. Ties (which cannot
/// happen between well-formed LSM inputs, as sequence numbers are unique)
/// resolve to the earliest child, which in LSM usage is the *newest* data.
pub struct MergingIter<I: ForwardIter> {
    children: Vec<I>,
    current: Option<usize>,
    runner_up: Option<usize>,
}

impl<I: ForwardIter> MergingIter<I> {
    /// Merge `children`. The result starts invalid.
    pub fn new(children: Vec<I>) -> MergingIter<I> {
        MergingIter { children, current: None, runner_up: None }
    }

    /// Number of child iterators.
    pub fn child_count(&self) -> usize {
        self.children.len()
    }

    /// The leading child — the one `key()` and `value()` read — and its
    /// position among the children; `None` while the merge is invalid.
    pub fn leader(&self) -> Option<(usize, &I)> {
        self.current.map(|c| (c, &self.children[c]))
    }

    /// Whether valid child `a` comes before valid child `b` in the merge.
    #[inline]
    fn leads(&self, a: usize, b: usize) -> bool {
        match compare_internal(self.children[a].key(), self.children[b].key()) {
            Ordering::Less => true,
            Ordering::Equal => a < b,
            Ordering::Greater => false,
        }
    }

    /// The leading valid child, `except` left out.
    fn smallest_except(&self, except: Option<usize>) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, c) in self.children.iter().enumerate() {
            if Some(i) != except && c.valid() && best.is_none_or(|b| self.leads(i, b)) {
                best = Some(i);
            }
        }
        best
    }

    /// Every child has been positioned: find the leader and its runner-up.
    fn rank_all(&mut self) {
        self.current = self.smallest_except(None);
        self.runner_up = self.smallest_except(self.current);
    }
}

impl<I: ForwardIter> ForwardIter for MergingIter<I> {
    fn valid(&self) -> bool {
        self.current.is_some()
    }

    // `valid()` comes before use (the `ForwardIter` contract): an invalid
    // merge has no key and no value to give, and does not move.
    fn key(&self) -> &[u8] {
        self.current.map_or(&[], |c| self.children[c].key())
    }

    fn value(&self) -> &[u8] {
        self.current.map_or(&[], |c| self.children[c].value())
    }

    fn next(&mut self) -> Result<()> {
        // A child that fails is in no state to be asked again: the merge
        // stays invalid behind the error.
        let Some(cur) = self.current.take() else { return Ok(()) };
        self.children[cur].next()?;
        // No other child moved, so the runner-up is still the smallest of
        // the rest: the stepped child leads if it is ahead of that one.
        if self.children[cur].valid() && self.runner_up.is_none_or(|r| self.leads(cur, r)) {
            self.current = Some(cur);
        } else {
            self.current = self.runner_up;
            self.runner_up = self.smallest_except(self.current);
        }
        Ok(())
    }

    fn seek(&mut self, ikey: &[u8]) -> Result<()> {
        self.current = None;
        for c in &mut self.children {
            c.seek(ikey)?;
        }
        self.rank_all();
        Ok(())
    }

    fn seek_to_first(&mut self) -> Result<()> {
        self.current = None;
        for c in &mut self.children {
            c.seek_to_first()?;
        }
        self.rank_all();
        Ok(())
    }
}

/// Restrict an iterator to user keys in `[lo, hi)` (empty bound = open).
///
/// Compactions are split into disjoint user-key sub-ranges executed in
/// parallel (dLSM's sub-compaction); the clamp guarantees every version of a
/// user key goes to exactly one sub-task.
pub struct ClampIter<I: ForwardIter> {
    inner: I,
    lo: Vec<u8>,
    hi: Vec<u8>,
}

impl<I: ForwardIter> ClampIter<I> {
    /// Clamp `inner` to user keys in `[lo, hi)`; empty bounds are open.
    pub fn new(inner: I, lo: Vec<u8>, hi: Vec<u8>) -> ClampIter<I> {
        ClampIter { inner, lo, hi }
    }

    fn in_range(&self) -> bool {
        if !self.inner.valid() {
            return false;
        }
        if self.hi.is_empty() {
            return true;
        }
        crate::key::user_key(self.inner.key()) < self.hi.as_slice()
    }
}

impl<I: ForwardIter> ForwardIter for ClampIter<I> {
    fn valid(&self) -> bool {
        self.in_range()
    }
    fn key(&self) -> &[u8] {
        self.inner.key()
    }
    fn value(&self) -> &[u8] {
        self.inner.value()
    }
    fn next(&mut self) -> Result<()> {
        self.inner.next()
    }
    fn seek(&mut self, ikey: &[u8]) -> Result<()> {
        self.inner.seek(ikey)
    }
    fn seek_to_first(&mut self) -> Result<()> {
        if self.lo.is_empty() {
            self.inner.seek_to_first()
        } else {
            let target = crate::key::InternalKey::for_lookup(&self.lo, crate::key::MAX_SEQ);
            self.inner.seek(target.as_bytes())
        }
    }
}

/// Drain an iterator into owned `(key, value)` pairs — test/debug helper.
pub fn collect_all<I: ForwardIter>(iter: &mut I) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut out = Vec::new();
    iter.seek_to_first()?;
    while iter.valid() {
        out.push((iter.key().to_vec(), iter.value().to_vec()));
        iter.next()?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{InternalKey, ValueType};

    fn ik(user: &str, seq: u64) -> Vec<u8> {
        InternalKey::new(user.as_bytes(), seq, ValueType::Value).into_bytes()
    }

    fn vec_iter(entries: &[(&str, u64, &str)]) -> VecIter {
        VecIter::new(
            entries
                .iter()
                .map(|(k, s, v)| (ik(k, *s), v.as_bytes().to_vec()))
                .collect(),
        )
    }

    #[test]
    fn merge_interleaves_sorted_children() {
        let a = vec_iter(&[("a", 1, "x"), ("c", 1, "x"), ("e", 1, "x")]);
        let b = vec_iter(&[("b", 1, "y"), ("d", 1, "y")]);
        let mut m = MergingIter::new(vec![a, b]);
        let keys: Vec<Vec<u8>> = collect_all(&mut m)
            .unwrap()
            .into_iter()
            .map(|(k, _)| crate::key::user_key(&k).to_vec())
            .collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec(), b"e".to_vec()]);
    }

    #[test]
    fn merge_orders_same_user_key_newest_first() {
        let newer = vec_iter(&[("k", 9, "new")]);
        let older = vec_iter(&[("k", 3, "old")]);
        let mut m = MergingIter::new(vec![older, newer]);
        let all = collect_all(&mut m).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1, b"new");
        assert_eq!(all[1].1, b"old");
    }

    #[test]
    fn merge_seek() {
        let a = vec_iter(&[("a", 1, "1"), ("d", 1, "2")]);
        let b = vec_iter(&[("b", 1, "3"), ("e", 1, "4")]);
        let mut m = MergingIter::new(vec![a, b]);
        m.seek(&ik("c", (1 << 56) - 1)).unwrap();
        assert!(m.valid());
        assert_eq!(crate::key::user_key(m.key()), b"d");
        m.next().unwrap();
        assert_eq!(crate::key::user_key(m.key()), b"e");
        m.next().unwrap();
        assert!(!m.valid());
    }

    #[test]
    fn merge_of_empty_children_is_invalid() {
        let mut m = MergingIter::new(vec![VecIter::default(), VecIter::default()]);
        m.seek_to_first().unwrap();
        assert!(!m.valid());
    }

    #[test]
    fn clamp_restricts_user_key_range() {
        let i = vec_iter(&[("a", 1, "1"), ("b", 2, "2"), ("c", 3, "3"), ("d", 4, "4")]);
        let mut c = ClampIter::new(i, b"b".to_vec(), b"d".to_vec());
        let got: Vec<Vec<u8>> = collect_all(&mut c)
            .unwrap()
            .into_iter()
            .map(|(k, _)| crate::key::user_key(&k).to_vec())
            .collect();
        assert_eq!(got, vec![b"b".to_vec(), b"c".to_vec()]);
        // Open bounds pass everything through.
        let i = vec_iter(&[("a", 1, "1"), ("b", 2, "2")]);
        let mut c = ClampIter::new(i, Vec::new(), Vec::new());
        assert_eq!(collect_all(&mut c).unwrap().len(), 2);
    }

    #[test]
    fn boxed_iterator_works() {
        let boxed: Box<dyn ForwardIter> = Box::new(vec_iter(&[("x", 1, "v")]));
        let mut m = MergingIter::new(vec![boxed]);
        let all = collect_all(&mut m).unwrap();
        assert_eq!(all.len(), 1);
    }
}
