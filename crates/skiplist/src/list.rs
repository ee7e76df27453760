//! The lock-free skip list.

use crate::sync::{AtomicU32, AtomicUsize, Ordering as AtOrd};
use std::cmp::Ordering;
use std::mem::ManuallyDrop;
use std::sync::Arc;

use crate::arena::{Arena, ArenaFull, SpareArena};
use crate::comparator::Comparator;

/// Tallest tower; with branching factor 4 this covers far more entries than
/// any bounded MemTable holds.
pub const MAX_HEIGHT: usize = 12;
const BRANCHING: u64 = 4;

/// Node layout at the arena's front (`#[repr(C)]`): this header, then
/// `height` atomic `u32` forward links, then the key bytes. The value sits
/// at the arena's back, taken by the same reservation, so a search that
/// steps over a node touches its header, link and key and never its value.
#[repr(C)]
struct NodeHeader {
    key_len: u32,
    val_off: u32,
    val_len: u32,
    height: u32,
}

const HEADER_SIZE: usize = std::mem::size_of::<NodeHeader>();

/// The most arena bytes one entry takes besides its key and value: the node
/// header, the tallest tower and the front's alignment padding.
pub const MAX_NODE_OVERHEAD: usize = HEADER_SIZE + 4 * MAX_HEIGHT + 3;

/// Arena bytes a list takes besides its `capacity`: room for the head node.
const HEAD_SLACK: usize = 256;

/// The largest `capacity` a list accepts: its arena's offsets are 32-bit.
pub const MAX_CAPACITY: usize = (u32::MAX as usize & !7) - HEAD_SLACK;

/// `len` on a line of its own: every insert bumps it, and no seek reads it.
#[repr(align(64))]
struct Len(AtomicUsize);

/// A concurrent skip list ordered by a [`Comparator`].
///
/// Inserts are lock-free (CAS per level with splice re-search on
/// contention); reads are wait-free. Keys must be unique under the
/// comparator — LSM MemTables guarantee this because every entry carries a
/// distinct sequence number.
///
/// ```
/// use dlsm_skiplist::{BytewiseComparator, SkipList};
/// let list = SkipList::with_capacity(BytewiseComparator, 4096);
/// list.insert(b"b", b"2").unwrap();
/// list.insert(b"a", b"1").unwrap();
/// assert_eq!(list.get(b"a"), Some(&b"1"[..]));
/// let pairs: Vec<_> = list.iter().collect();
/// assert_eq!(pairs, vec![(&b"a"[..], &b"1"[..]), (&b"b"[..], &b"2"[..])]);
/// ```
pub struct SkipList<C: Comparator> {
    /// Returned to `spare` when the list drops.
    arena: ManuallyDrop<Arena>,
    spare: Arc<SpareArena>,
    cmp: C,
    head: u32,
    max_height: AtomicUsize,
    len: Len,
}

impl<C: Comparator> SkipList<C> {
    /// Create a list whose arena holds `capacity` bytes of nodes + keys +
    /// values. Inserting beyond capacity returns [`ArenaFull`].
    ///
    /// # Panics
    /// Panics if `capacity` exceeds [`MAX_CAPACITY`].
    pub fn with_capacity(cmp: C, capacity: usize) -> SkipList<C> {
        Self::recycling(cmp, capacity, &Arc::default()).0
    }

    /// A list like [`Self::with_capacity`] whose arena is `spare`'s when it
    /// keeps one of this size, and goes back to `spare` when the list
    /// drops: the last holder of a list returns it, so no reader of this
    /// list ever sees its bytes reused. The flag says the arena was
    /// allocated rather than recycled.
    pub fn recycling(cmp: C, capacity: usize, spare: &Arc<SpareArena>) -> (SkipList<C>, bool) {
        let (arena, allocated) = spare.take(capacity + HEAD_SLACK);
        // PANIC-SAFE: the HEAD_SLACK added to every capacity guarantees the
        // head node (fixed, 64 bytes) always fits in an empty arena.
        let head = Self::alloc_node_in(&arena, MAX_HEIGHT, b"", b"")
            .expect("arena sized for at least the head node");
        let (arena, spare) = (ManuallyDrop::new(arena), Arc::clone(spare));
        let list = SkipList { arena, spare, cmp, head, max_height: AtomicUsize::new(1), len: Len(AtomicUsize::new(0)) };
        (list, allocated)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        // ORDERING: relaxed — monotonic gauge; callers wanting
        // read-your-writes go through get(), not len().
        self.len.0.load(AtOrd::Relaxed)
    }

    /// True when no entries have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes consumed in the arena (nodes + keys from the front, values
    /// from the back, padding) — the MemTable's "is it full?" metric.
    pub fn memory_usage(&self) -> usize {
        self.arena.allocated()
    }

    /// Arena capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Reserve a node of `height` with its key at the front and its value
    /// at the back in one step, and write all of it: header, key, value and
    /// a tower of null links. The arena may hold any bytes, so no word of
    /// the node is left unwritten.
    fn alloc_node_in(arena: &Arena, height: usize, key: &[u8], value: &[u8]) -> Result<u32, ArenaFull> {
        let tower = HEADER_SIZE + height * 4;
        let (node, val_off) = arena.reserve(tower + key.len(), value.len())?;
        // SAFETY: both ranges are this thread's until the node is published;
        // the node is in bounds and 4-aligned, and the tower written below
        // lies inside it. Lengths fit in u32: the reservation did.
        unsafe {
            let hdr = arena.ptr_at(node) as *mut NodeHeader;
            let (key_len, val_len) = (key.len() as u32, value.len() as u32);
            hdr.write(NodeHeader { key_len, val_off, val_len, height: height as u32 });
            for level in 0..height {
                let link = &*(arena.ptr_at(node + (HEADER_SIZE + level * 4) as u32) as *const AtomicU32);
                // ORDERING: relaxed — pre-publication store to a private
                // node; the Release CAS that links it publishes it.
                link.store(0, AtOrd::Relaxed);
            }
            arena.write(node + tower as u32, key);
            arena.write(val_off, value);
        }
        Ok(node)
    }

    /// # Safety
    /// `node` must be an offset returned by `alloc_node_in` on this list's
    /// arena (header fully initialized, in bounds, 4-aligned).
    #[inline]
    unsafe fn header(&self, node: u32) -> &NodeHeader {
        &*(self.arena.ptr_at(node) as *const NodeHeader)
    }

    /// # Safety
    /// `node` as for [`Self::header`]; `alloc_node_in` stored every word of
    /// the link array before the node could be reached, so reading any level
    /// below the node's height is sound.
    #[inline]
    unsafe fn link(&self, node: u32, level: usize) -> &AtomicU32 {
        debug_assert!(level < self.header(node).height as usize);
        &*(self.arena.ptr_at(node + HEADER_SIZE as u32 + (level * 4) as u32) as *const AtomicU32)
    }

    #[inline]
    fn next(&self, node: u32, level: usize) -> u32 {
        // SAFETY: `node` is a published node offset.
        unsafe { self.link(node, level).load(AtOrd::Acquire) }
    }

    #[inline]
    fn node_key(&self, node: u32) -> &[u8] {
        // SAFETY: key bytes were fully written before the node was published.
        unsafe {
            let h = self.header(node);
            self.arena.slice(node + (HEADER_SIZE + h.height as usize * 4) as u32, h.key_len as usize)
        }
    }

    #[inline]
    fn node_value(&self, node: u32) -> &[u8] {
        // SAFETY: as for `node_key`.
        unsafe {
            let h = self.header(node);
            self.arena.slice(h.val_off, h.val_len as usize)
        }
    }

    fn random_height() -> usize {
        // Under the model checker, tower heights must be a deterministic
        // function of (model thread, call number) or schedule replay would
        // diverge; outside a model execution the hook returns None.
        #[cfg(feature = "shim")]
        if let Some(mut x) = dlsm_check::shim::model_rand_u64() {
            let mut height = 1;
            while height < MAX_HEIGHT && x & (BRANCHING - 1) == 0 {
                height += 1;
                x >>= 2;
            }
            return height;
        }
        use std::cell::Cell;
        thread_local! {
            static RNG: Cell<u64> = const { Cell::new(0) };
        }
        RNG.with(|state| {
            let mut x = state.get();
            if x == 0 {
                // Seed from the thread-local's address + a global counter.
                static SEED: AtomicUsize = AtomicUsize::new(0x9E3779B97F4A7C15);
                // ORDERING: relaxed — RNG seeding; only distinctness matters.
                x = SEED.fetch_add(0x2545F4914F6CDD1D, AtOrd::Relaxed) as u64
                    | (state as *const _ as u64) << 1
                    | 1;
            }
            let mut height = 1;
            while height < MAX_HEIGHT {
                // xorshift64*
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                let r = x.wrapping_mul(0x2545F4914F6CDD1D);
                if r % BRANCHING != 0 {
                    break;
                }
                height += 1;
            }
            state.set(x);
            height
        })
    }

    /// Starting at `before` (whose key is < `key`), walk level `level` until
    /// the gap containing `key` is found; returns `(prev, next)`.
    fn find_splice_for_level(&self, key: &[u8], mut before: u32, level: usize) -> (u32, u32) {
        loop {
            let after = self.next(before, level);
            if after == 0 || self.cmp.cmp(self.node_key(after), key) != Ordering::Less {
                return (before, after);
            }
            before = after;
        }
    }

    fn find_splice(&self, key: &[u8], prev: &mut [u32; MAX_HEIGHT], next: &mut [u32; MAX_HEIGHT]) {
        let mut before = self.head;
        for level in (0..MAX_HEIGHT).rev() {
            let (p, n) = self.find_splice_for_level(key, before, level);
            prev[level] = p;
            next[level] = n;
            before = p;
        }
    }

    /// Insert a key/value pair. `key` must be distinct from every key already
    /// in the list (guaranteed by unique sequence numbers in LSM usage).
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), ArenaFull> {
        let height = Self::random_height();
        let node = Self::alloc_node_in(&self.arena, height, key, value)?;

        // Raise the list height if needed. A racing reader that still sees
        // the old height just misses the taller levels (correctness is
        // unaffected; head links at those levels are null until we link).
        // max_height is a search hint, not a publication: stale-low just
        // skips tall levels, stale-high hits null head links. The node is
        // ORDERING: relaxed — published by the predecessor-link CAS below.
        let mut max_h = self.max_height.load(AtOrd::Relaxed);
        while height > max_h {
            match self.max_height.compare_exchange_weak(
                max_h,
                height,
                // ORDERING: relaxed — see the hint rationale above.
                AtOrd::Relaxed,
                AtOrd::Relaxed,
            ) {
                Ok(_) => break,
                Err(h) => max_h = h,
            }
        }

        let mut prev = [0u32; MAX_HEIGHT];
        let mut next = [0u32; MAX_HEIGHT];
        self.find_splice(key, &mut prev, &mut next);
        debug_assert!(
            next[0] == 0 || self.cmp.cmp(self.node_key(next[0]), key) != Ordering::Equal,
            "duplicate key inserted into skip list"
        );

        for level in 0..height {
            loop {
                let (p, n) = (prev[level], next[level]);
                // SAFETY: `node` is ours until the CAS below publishes it.
                // ORDERING: relaxed — pre-publication store to a private
                // node; the Release CAS below makes it visible.
                unsafe { self.link(node, level).store(n, AtOrd::Relaxed) };
                // Publish: Release so the node's fields (and lower links)
                // are visible to any reader that observes this link.
                // SAFETY: `p` is head or a published node offset returned
                // by the splice search.
                let cas = unsafe {
                    self.link(p, level).compare_exchange(
                        n,
                        node,
                        AtOrd::Release,
                        // ORDERING: relaxed on failure — we re-search the
                        // splice with Acquire loads before retrying.
                        AtOrd::Relaxed,
                    )
                };
                if cas.is_ok() {
                    break;
                }
                // Contended: somebody linked here first; re-search the
                // splice for this level starting from the last known prev.
                let (np, nn) = self.find_splice_for_level(key, p, level);
                prev[level] = np;
                next[level] = nn;
            }
        }
        // ORDERING: relaxed — len is a gauge (see len()).
        self.len.0.fetch_add(1, AtOrd::Relaxed);
        Ok(())
    }

    /// First node with key ≥ `key` (offset), or 0.
    ///
    /// Returns the successor found by the level-0 splice search itself —
    /// NOT a re-read of `before`'s level-0 link: a concurrent insert could
    /// link a node *smaller than `key`* right after `before` between the
    /// search and the re-read, and returning it would violate seek_ge's
    /// postcondition (observed as spurious misses in the LSM read path).
    fn seek_node(&self, key: &[u8]) -> u32 {
        let mut before = self.head;
        let mut after = 0;
        // ORDERING: relaxed — height hint only (see insert).
        let top = self.max_height.load(AtOrd::Relaxed).max(1);
        for level in (0..top).rev() {
            let (p, a) = self.find_splice_for_level(key, before, level);
            before = p;
            after = a;
        }
        after
    }

    /// Exact-match lookup.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let node = self.seek_node(key);
        if node != 0 && self.cmp.cmp(self.node_key(node), key) == Ordering::Equal {
            Some(self.node_value(node))
        } else {
            None
        }
    }

    /// True if `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// First entry with key ≥ `key`.
    pub fn seek_ge(&self, key: &[u8]) -> Option<(&[u8], &[u8])> {
        let node = self.seek_node(key);
        (node != 0).then(|| (self.node_key(node), self.node_value(node)))
    }

    /// Streaming iterator positioned before the first entry.
    pub fn iter(&self) -> SkipListIter<'_, C> {
        Cursor::new(self)
    }
}

impl<C: Comparator> std::fmt::Debug for SkipList<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipList")
            .field("len", &self.len())
            .field("memory_usage", &self.memory_usage())
            .finish()
    }
}

impl<C: Comparator> Drop for SkipList<C> {
    fn drop(&mut self) {
        // SAFETY: the list is being dropped, so `arena` is never used again.
        self.spare.put(unsafe { ManuallyDrop::take(&mut self.arena) });
    }
}

/// Forward cursor over a [`SkipList`] reached through `L` — a borrow
/// ([`SkipListIter`]) or an `Arc` ([`ArcSkipIter`]). Usable positionally
/// (`seek`/`valid`/`key`/`value`/`advance`) like LevelDB iterators; the
/// borrowing one is also an [`Iterator`].
pub struct Cursor<L> {
    list: L,
    node: u32,
}

/// A [`Cursor`] borrowing its list.
pub type SkipListIter<'a, C> = Cursor<&'a SkipList<C>>;

/// A [`Cursor`] that *owns* an `Arc` of its list, so it can be stored in
/// long-lived scan objects (e.g. a database iterator pinning a MemTable)
/// without borrowing issues. Key/value slices borrow from the arena, which
/// the `Arc` keeps alive.
pub type ArcSkipIter<C> = Cursor<std::sync::Arc<SkipList<C>>>;

impl<C: Comparator, L: std::ops::Deref<Target = SkipList<C>>> Cursor<L> {
    /// Create a cursor positioned at the first entry.
    pub fn new(list: L) -> Cursor<L> {
        Cursor { node: list.next(list.head, 0), list }
    }

    /// Position at the first entry with key ≥ `key`.
    pub fn seek(&mut self, key: &[u8]) {
        self.node = self.list.seek_node(key);
    }

    /// Position at the first entry.
    pub fn seek_to_first(&mut self) {
        self.node = self.list.next(self.list.head, 0);
    }

    /// Whether the cursor points at an entry.
    pub fn valid(&self) -> bool {
        self.node != 0
    }

    /// Key at the current position. Panics if `!valid()`.
    pub fn key(&self) -> &[u8] {
        // PANIC-SAFE: the `ForwardIter` contract — callers check `valid()`
        // first; `MergingIter` touches valid children only.
        assert!(self.valid());
        self.list.node_key(self.node)
    }

    /// Value at the current position. Panics if `!valid()`.
    pub fn value(&self) -> &[u8] {
        // PANIC-SAFE: as in `key`.
        assert!(self.valid());
        self.list.node_value(self.node)
    }

    /// Move to the next entry.
    pub fn advance(&mut self) {
        // PANIC-SAFE: as in `key`.
        assert!(self.valid());
        self.node = self.list.next(self.node, 0);
    }
}

impl<'a, C: Comparator> Iterator for SkipListIter<'a, C> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.node == 0 {
            return None;
        }
        let list: &'a SkipList<C> = self.list;
        let item = (list.node_key(self.node), list.node_value(self.node));
        self.node = list.next(self.node, 0);
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::BytewiseComparator;
    use std::sync::Arc;

    fn list(cap: usize) -> SkipList<BytewiseComparator> {
        SkipList::with_capacity(BytewiseComparator, cap)
    }

    #[test]
    fn empty_list() {
        let l = list(1024);
        assert!(l.is_empty());
        assert_eq!(l.get(b"k"), None);
        assert!(l.iter().next().is_none());
        assert!(l.seek_ge(b"").is_none());
    }

    #[test]
    fn insert_and_get() {
        let l = list(1 << 16);
        l.insert(b"key2", b"v2").unwrap();
        l.insert(b"key1", b"v1").unwrap();
        l.insert(b"key3", b"v3").unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l.get(b"key1"), Some(&b"v1"[..]));
        assert_eq!(l.get(b"key2"), Some(&b"v2"[..]));
        assert_eq!(l.get(b"key3"), Some(&b"v3"[..]));
        assert_eq!(l.get(b"key0"), None);
        assert_eq!(l.get(b"key4"), None);
    }

    #[test]
    fn iteration_is_sorted() {
        let l = list(1 << 20);
        let mut keys: Vec<String> = (0..500).map(|i| format!("k{:05}", (i * 7919) % 500)).collect();
        for k in &keys {
            l.insert(k.as_bytes(), b"v").unwrap();
        }
        keys.sort();
        let got: Vec<Vec<u8>> = l.iter().map(|(k, _)| k.to_vec()).collect();
        let want: Vec<Vec<u8>> = keys.iter().map(|k| k.clone().into_bytes()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn seek_ge_finds_lower_bound() {
        let l = list(1 << 16);
        for k in [b"b".as_ref(), b"d", b"f"] {
            l.insert(k, b"v").unwrap();
        }
        assert_eq!(l.seek_ge(b"a").unwrap().0, b"b");
        assert_eq!(l.seek_ge(b"b").unwrap().0, b"b");
        assert_eq!(l.seek_ge(b"c").unwrap().0, b"d");
        assert_eq!(l.seek_ge(b"f").unwrap().0, b"f");
        assert!(l.seek_ge(b"g").is_none());
    }

    #[test]
    fn iterator_seek_and_advance() {
        let l = list(1 << 16);
        for k in [b"a".as_ref(), b"c", b"e"] {
            l.insert(k, k).unwrap();
        }
        let mut it = l.iter();
        it.seek(b"b");
        assert!(it.valid());
        assert_eq!(it.key(), b"c");
        assert_eq!(it.value(), b"c");
        it.advance();
        assert_eq!(it.key(), b"e");
        it.advance();
        assert!(!it.valid());
        it.seek_to_first();
        assert_eq!(it.key(), b"a");
    }

    #[test]
    fn arena_full_surfaces() {
        let l = list(256);
        let big = vec![0u8; 4096];
        assert!(l.insert(b"k", &big).is_err());
        // The list stays usable for smaller entries.
        l.insert(b"k", b"small").unwrap();
        assert_eq!(l.get(b"k"), Some(&b"small"[..]));
    }

    #[test]
    fn empty_key_and_value_supported() {
        let l = list(1024);
        l.insert(b"", b"").unwrap();
        assert_eq!(l.get(b""), Some(&b""[..]));
    }

    #[test]
    fn memory_usage_grows() {
        let l = list(1 << 16);
        let before = l.memory_usage();
        l.insert(b"some-key", &[0u8; 512]).unwrap();
        assert!(l.memory_usage() >= before + 512);
    }

    #[test]
    fn arc_iter_owns_its_list() {
        let l = Arc::new(list(1 << 16));
        for k in [b"a".as_ref(), b"c", b"e"] {
            l.insert(k, k).unwrap();
        }
        let mut it = ArcSkipIter::new(Arc::clone(&l));
        drop(l); // iterator keeps the list alive
        assert!(it.valid());
        assert_eq!(it.key(), b"a");
        it.seek(b"b");
        assert_eq!(it.key(), b"c");
        it.advance();
        assert_eq!(it.value(), b"e");
        it.advance();
        assert!(!it.valid());
        it.seek_to_first();
        assert_eq!(it.key(), b"a");
    }

    #[test]
    fn concurrent_inserts_all_visible_and_sorted() {
        let l = Arc::new(list(8 << 20));
        let threads = 8;
        let per = 2_000;
        let mut handles = Vec::new();
        for t in 0..threads {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let key = format!("{:02}-{:06}", t, i);
                    l.insert(key.as_bytes(), key.as_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.len(), threads * per);
        // Sorted, no dup, nothing lost.
        let mut count = 0;
        let mut last: Option<Vec<u8>> = None;
        for (k, v) in l.iter() {
            assert_eq!(k, v);
            if let Some(prev) = &last {
                assert!(prev.as_slice() < k, "out of order");
            }
            last = Some(k.to_vec());
            count += 1;
        }
        assert_eq!(count, threads * per);
        for t in 0..threads {
            for i in (0..per).step_by(97) {
                let key = format!("{:02}-{:06}", t, i);
                assert!(l.contains(key.as_bytes()));
            }
        }
    }

    #[test]
    fn concurrent_readers_during_writes_see_consistent_prefix_order() {
        let l = Arc::new(list(4 << 20));
        let stop = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let writer = {
            let l = Arc::clone(&l);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for i in 0..20_000u32 {
                    let key = format!("{:08}", i.reverse_bits());
                    l.insert(key.as_bytes(), b"v").unwrap();
                }
                stop.store(1, AtOrd::Release);
            })
        };
        let mut max_seen = 0;
        while stop.load(AtOrd::Acquire) == 0 {
            let mut prev: Option<Vec<u8>> = None;
            let mut n = 0;
            for (k, _) in l.iter() {
                if let Some(p) = &prev {
                    assert!(p.as_slice() < k, "reader observed disorder");
                }
                prev = Some(k.to_vec());
                n += 1;
            }
            max_seen = max_seen.max(n);
        }
        writer.join().unwrap();
        assert_eq!(l.len(), 20_000);
    }

    /// A tombstone first, so its empty value sits at the back edge, then
    /// values of every length from 0 to 39 B; returns what a scan reads.
    fn fill_and_read(l: &SkipList<BytewiseComparator>) -> Vec<(Vec<u8>, Vec<u8>)> {
        l.insert(b"tomb", b"").unwrap();
        for i in 0..40u8 {
            l.insert(&[b'k', i], &vec![i; i as usize]).unwrap();
        }
        let tomb = l.seek_node(b"tomb");
        // SAFETY: `tomb` is a published node of this list.
        assert_eq!(unsafe { l.header(tomb) }.val_off as usize, l.capacity(), "tombstone off the back edge");
        assert_eq!(l.get(b"tomb"), Some(&b""[..]));
        l.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
    }

    /// A recycled arena whose every byte is 0xA5 (so every stale tower word
    /// points far outside it) reads exactly like a fresh one, and a list
    /// returns its arena only when its last holder drops it.
    #[test]
    fn a_recycled_dirty_arena_reads_like_a_fresh_one() {
        const CAP: usize = 4 << 10;
        let fresh = fill_and_read(&list(CAP));
        let spare = Arc::new(SpareArena::default());
        let (dirty, allocated) = spare.take(CAP + HEAD_SLACK);
        assert!(allocated);
        let (all, _) = dirty.reserve(dirty.capacity() - 8, 0).unwrap();
        // SAFETY: the whole arena was just reserved here.
        unsafe { dirty.write(all, &vec![0xA5; dirty.capacity() - 8]) };
        spare.put(dirty);

        let (l, allocated) = SkipList::recycling(BytewiseComparator, CAP, &spare);
        assert!(!allocated, "the spare arena was not reused");
        assert_eq!((l.len(), l.memory_usage()), (0, list(CAP).memory_usage()));
        assert!(l.iter().next().is_none() && l.seek_ge(b"").is_none());
        assert_eq!(fill_and_read(&l), fresh);

        let l = Arc::new(l);
        let pinned = ArcSkipIter::new(Arc::clone(&l));
        drop(l);
        assert!(spare.take(CAP + HEAD_SLACK).1, "a pinned list gave its arena back");
        assert_eq!(pinned.key(), b"k\0");
        drop(pinned);
        let (l, allocated) = SkipList::recycling(BytewiseComparator, CAP, &spare);
        assert!(!allocated, "the last holder did not give the arena back");
        assert_eq!(fill_and_read(&l), fresh);
    }
}
