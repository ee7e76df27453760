//! Concurrent two-ended bump arena.
//!
//! A fixed-capacity, 8-byte-aligned memory block. One reservation
//! takes a 4-aligned range from the front and a range from the back in a
//! single CAS on a packed `front | back << 32` word, so a skip-list node
//! (header, tower, key) and its value come from one atomic step and the
//! nodes a search walks pack densely, away from the values it skips.
//! Nothing is freed individually; the whole arena is emptied at once, when
//! a [`SpareArena`] hands it out again or when it is dropped. Its bytes start
//! as whatever the allocator or the last user left there: the skip list
//! stores every word it reads before it publishes it. Offsets (not pointers)
//! are handed out so the skip list can store 4-byte links.

use crate::sync::{AtomicU64, Ordering};
use std::alloc::{alloc, dealloc, Layout};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Error returned when the arena has no room for a reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaFull {
    /// Bytes requested.
    pub requested: usize,
    /// Bytes remaining (before alignment).
    pub remaining: usize,
}

impl std::fmt::Display for ArenaFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "arena full: requested {} bytes, {} remaining", self.requested, self.remaining)
    }
}

impl std::error::Error for ArenaFull {}

/// Alignment of every front reservation (node headers and links are `u32`s).
const FRONT_ALIGN: u64 = 4;

/// Fixed-capacity concurrent two-ended bump allocator.
///
/// Offset 0 is reserved (used as the null link by the skip list); the first
/// front reservation starts at offset 8. The back grows down from the end.
pub struct Arena {
    ptr: *mut u8,
    cap: usize,
    bump: Bump,
}

/// `front | back << 32`: the bytes taken from each end. On a line of its
/// own: every insert writes it, and every seek loads the arena pointer.
#[repr(align(64))]
struct Bump(AtomicU64);

// SAFETY: the arena hands out disjoint ranges; all mutation of a given
// range happens on the thread that reserved it before the containing node
// is published (release/acquire on the skip-list links orders it).
unsafe impl Send for Arena {}
// SAFETY: as for `Send`: shared use only bumps the packed word atomically
// and reads ranges whose publication the skip-list links order.
unsafe impl Sync for Arena {}

impl Arena {
    /// Create an arena with `cap` bytes of capacity (rounded up to 8).
    ///
    /// # Panics
    /// Panics if `cap` exceeds `u32::MAX` (offsets are 32-bit).
    pub fn with_capacity(cap: usize) -> Arena {
        let cap = cap.max(16).next_multiple_of(8);
        // PANIC-SAFE: the # Panics contract; `DbConfig::normalized` refuses
        // at open a MemTable whose arena is past `list::MAX_CAPACITY`.
        assert!(cap <= u32::MAX as usize, "arena capacity must fit in u32 offsets");
        // PANIC-SAFE: (cap <= u32::MAX, align 8) is always a valid Layout.
        let layout = Layout::from_size_align(cap, 8).expect("arena layout");
        // SAFETY: non-zero size. The bytes are uninitialized; nothing reads
        // one before a reservation has written it.
        let ptr = unsafe { alloc(layout) };
        // PANIC-SAFE: aborting on OOM matches std collection behaviour.
        assert!(!ptr.is_null(), "arena allocation of {cap} bytes failed");
        Arena { ptr, cap, bump: Bump(AtomicU64::new(8)) }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Bytes reserved so far from both ends (including alignment padding).
    pub fn allocated(&self) -> usize {
        // ORDERING: relaxed — usage gauge for the is-full check; staleness
        // only delays a rotation by one write.
        let word = self.bump.0.load(Ordering::Relaxed);
        ((word & u64::from(u32::MAX)) + (word >> 32)) as usize
    }

    /// Reserve `front` bytes, 4-aligned, at the low end and `back` bytes at
    /// the high end, in one step. Returns both offsets; a zero-length back
    /// range sits at the back edge (offset `capacity()` while nothing has
    /// been taken from the back).
    pub fn reserve(&self, front: usize, back: usize) -> Result<(u32, u32), ArenaFull> {
        let (cap, requested) = (self.cap as u64, front.saturating_add(back));
        // Each end only *reserves* a range; it publishes no data. What a
        // reservation holds — every byte of it the list will read, tower
        // words included — is written by the reserving thread and
        // published by the skip list's Release CAS.
        // ORDERING: relaxed — reservation only; see above.
        let mut word = self.bump.0.load(Ordering::Relaxed);
        loop {
            let (lo, hi) = (word & u64::from(u32::MAX), word >> 32);
            let start = lo.next_multiple_of(FRONT_ALIGN);
            // Both lengths are at most `cap` < 2^32 here, so nothing overflows.
            if front as u64 > cap || back as u64 > cap || start + front as u64 + hi + back as u64 > cap {
                return Err(ArenaFull { requested, remaining: (cap - lo - hi) as usize });
            }
            let (end, top) = (start + front as u64, hi + back as u64);
            // ORDERING: relaxed — reservation only; see above.
            match self.bump.0.compare_exchange_weak(word, end | top << 32, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Ok((start as u32, (cap - top) as u32)),
                Err(actual) => word = actual,
            }
        }
    }

    /// Copy `data` into a reserved range at `offset`.
    ///
    /// # Safety
    /// `offset..offset + data.len()` must lie in a range this thread
    /// reserved and has not yet published.
    pub unsafe fn write(&self, offset: u32, data: &[u8]) {
        debug_assert!(offset as usize + data.len() <= self.cap);
        std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.add(offset as usize), data.len());
    }

    /// Raw pointer to `offset`.
    ///
    /// # Safety
    /// `offset` must come from a front reservation on this arena and
    /// accesses must stay within it.
    pub unsafe fn ptr_at(&self, offset: u32) -> *mut u8 {
        debug_assert!((offset as usize) < self.cap);
        self.ptr.add(offset as usize)
    }

    /// Borrow `len` bytes at `offset` (a zero-length range may sit at the
    /// back edge).
    ///
    /// # Safety
    /// The range must be fully initialized and no longer being written
    /// (skip-list publication guarantees this for node data).
    pub unsafe fn slice(&self, offset: u32, len: usize) -> &[u8] {
        debug_assert!(offset as usize + len <= self.cap);
        std::slice::from_raw_parts(self.ptr.add(offset as usize), len)
    }
}

/// One spare arena for a user that builds lists of one size again and again
/// (a database shard's MemTables): [`crate::SkipList::recycling`] takes it
/// from here and gives it back when the list drops, so in steady state a new
/// list allocates nothing. One slot: an arena returned while one is kept
/// replaces it, and the older is freed.
#[derive(Debug, Default)]
pub struct SpareArena(Mutex<Option<Arena>>);

impl SpareArena {
    /// An empty arena of at least `cap` bytes: the spare if it is that
    /// large, else a new allocation. The flag says it was allocated.
    pub fn take(&self, cap: usize) -> (Arena, bool) {
        let spare = self.slot().take();
        match spare {
            Some(mut arena) if arena.cap >= cap => {
                // Every reservation forgotten; the bytes stay as the last
                // user left them. Owning the arena proves nobody reads them.
                arena.bump = Bump(AtomicU64::new(8));
                (arena, false)
            }
            _ => (Arena::with_capacity(cap), true),
        }
    }

    /// Keep `arena` as the spare.
    pub fn put(&self, arena: Arena) {
        // The older spare, if any, is freed after the lock is released.
        let _older = self.slot().replace(arena);
    }

    fn slot(&self) -> MutexGuard<'_, Option<Arena>> {
        // A panic under this lock leaves the slot whole: it only moves an arena.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        // PANIC-SAFE: the same layout was built in `with_capacity`.
        let layout = Layout::from_size_align(self.cap, 8).expect("arena layout");
        // SAFETY: allocated with the identical layout.
        unsafe { dealloc(self.ptr, layout) };
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("capacity", &self.cap)
            .field("allocated", &self.allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn offset_zero_is_reserved() {
        let a = Arena::with_capacity(1024);
        let (front, _) = a.reserve(4, 0).unwrap();
        assert!(front >= 8);
    }

    #[test]
    fn front_is_four_aligned() {
        let a = Arena::with_capacity(1024);
        a.reserve(3, 0).unwrap();
        let (front, _) = a.reserve(8, 0).unwrap();
        assert_eq!(front % 4, 0);
        assert_eq!(a.allocated(), 8 + 4 + 8);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = Arena::with_capacity(1024);
        let (front, back) = a.reserve(4, 8).unwrap();
        // SAFETY: both ranges were just reserved here and nothing else writes them.
        let (f, b) = unsafe {
            a.write(front, b"node");
            a.write(back, b"memtable");
            (a.slice(front, 4), a.slice(back, 8))
        };
        assert_eq!((f, b), (&b"node"[..], &b"memtable"[..]));
        assert_eq!(back as usize, a.capacity() - 8);
    }

    #[test]
    fn full_arena_reports_error() {
        let a = Arena::with_capacity(64);
        let err = a.reserve(1024, 0).unwrap_err();
        assert_eq!((err.requested, err.remaining), (1024, 56));
        assert!(a.reserve(0, 1024).is_err());
        assert!(a.reserve(16, 16).is_ok());
    }

    /// Front and back never cross: the arena fills to the last byte, every
    /// front range ends at or below every back range, and the reservation
    /// that would cross them fails without moving either end.
    #[test]
    fn front_and_back_never_cross() {
        let a = Arena::with_capacity(64);
        let (front, back) = a.reserve(28, 28).unwrap();
        assert_eq!((front, back), (8, 36));
        assert_eq!(a.allocated(), 64);
        assert!(a.reserve(0, 1).is_err());
        assert!(a.reserve(1, 0).is_err());
        assert_eq!(a.allocated(), 64);

        let a = Arena::with_capacity(1024);
        let mut ranges = Vec::new();
        while let Ok((front, back)) = a.reserve(21, 13) {
            ranges.push((front, back));
        }
        let highest_front_end = ranges.iter().map(|&(f, _)| f + 21).max().unwrap();
        let lowest_back = ranges.iter().map(|&(_, b)| b).min().unwrap();
        assert!(highest_front_end <= lowest_back, "{highest_front_end} > {lowest_back}");
        assert!(a.allocated() + 3 + 21 + 13 > a.capacity());
        assert_eq!(a.allocated(), 8 + 24 * (ranges.len() - 1) + 21 + 13 * ranges.len());
    }

    /// A zero-length back range (a tombstone's value) sits at the back
    /// edge, which is the arena's end until anything is taken from the back.
    #[test]
    fn zero_length_back_sits_at_the_back_edge() {
        let a = Arena::with_capacity(256);
        let (_, edge) = a.reserve(8, 0).unwrap();
        assert_eq!(edge as usize, a.capacity());
        // SAFETY: an empty range; nothing is read.
        assert!(unsafe { a.slice(edge, 0) }.is_empty());
        let (_, value) = a.reserve(8, 5).unwrap();
        assert_eq!(value as usize, a.capacity() - 5);
        let (_, edge) = a.reserve(8, 0).unwrap();
        assert_eq!(edge, value);
        // SAFETY: an empty range; nothing is read.
        assert!(unsafe { a.slice(edge, 0) }.is_empty());
    }

    #[test]
    fn concurrent_reservations_are_disjoint() {
        let a = Arc::new(Arena::with_capacity(1 << 20));
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut offs = Vec::new();
                for i in 0..1000u32 {
                    let data = [t, (i % 251) as u8, 3, 4];
                    let (front, back) = a.reserve(4, 4).unwrap();
                    // SAFETY: both ranges are this thread's own reservation.
                    unsafe {
                        a.write(front, &data);
                        a.write(back, &data);
                    }
                    offs.push((front, back, data));
                }
                offs
            }));
        }
        let mut all: Vec<(u32, u32, [u8; 4])> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        // No two ranges overlap and every range kept its bytes.
        let mut starts: Vec<u32> = all.iter().flat_map(|&(f, b, _)| [f, b]).collect();
        starts.sort_unstable();
        for w in starts.windows(2) {
            assert!(w[1] - w[0] >= 4, "reservations overlap");
        }
        for (front, back, data) in &all {
            // SAFETY: every writer thread has been joined; each range holds its 4 bytes.
            unsafe {
                assert_eq!(a.slice(*front, 4), data);
                assert_eq!(a.slice(*back, 4), data);
            }
        }
    }
}
