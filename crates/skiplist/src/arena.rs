//! Concurrent bump arena.
//!
//! A fixed-capacity, 8-byte-aligned memory block with an atomic bump
//! pointer. Allocations never fail spuriously and are never freed
//! individually; the whole arena is released when dropped. Offsets (not
//! pointers) are handed out so the skip list can store 4-byte links.

use crate::sync::{AtomicUsize, Ordering};
use std::alloc::{alloc_zeroed, dealloc, Layout};

/// Error returned when the arena has no room for an allocation.
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

/// Fixed-capacity concurrent bump allocator.
///
/// Offset 0 is reserved (used as the null link by the skip list); the first
/// real allocation starts at offset 8.
pub struct Arena {
    ptr: *mut u8,
    cap: usize,
    pos: AtomicUsize,
}

// SAFETY: the arena hands out disjoint offsets; all mutation of a given
// allocation happens on the thread that allocated it before the containing
// node is published (release/acquire on the skip-list links orders it).
unsafe impl Send for Arena {}
// SAFETY: as for `Send`: shared use only bumps `pos` atomically and reads
// allocations whose publication the skip-list links order.
unsafe impl Sync for Arena {}

impl Arena {
    /// Create an arena with `cap` bytes of capacity (rounded up to 8).
    ///
    /// # Panics
    /// Panics if `cap` is zero or exceeds `u32::MAX` (offsets are 32-bit).
    pub fn with_capacity(cap: usize) -> Arena {
        let cap = cap.max(16).next_multiple_of(8);
        // PANIC-SAFE: documented constructor contract (see # Panics); arena
        // sizes come from DbConfig, not from user data. Allocation failure
        // has no recovery at this layer.
        assert!(cap <= u32::MAX as usize, "arena capacity must fit in u32 offsets");
        // PANIC-SAFE: (cap <= u32::MAX, align 8) is always a valid Layout.
        let layout = Layout::from_size_align(cap, 8).expect("arena layout");
        // SAFETY: non-zero size. Zeroed so atomic link words start as null.
        let ptr = unsafe { alloc_zeroed(layout) };
        // PANIC-SAFE: aborting on OOM matches std collection behaviour.
        assert!(!ptr.is_null(), "arena allocation of {cap} bytes failed");
        Arena { ptr, cap, pos: AtomicUsize::new(8) }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Bytes allocated so far (including alignment padding).
    pub fn allocated(&self) -> usize {
        // ORDERING: relaxed — usage gauge for the is-full check; staleness
        // only delays a rotation by one write.
        self.pos.load(Ordering::Relaxed).min(self.cap)
    }

    /// Allocate `size` bytes aligned to `align` (a power of two ≤ 8).
    /// Returns the offset of the allocation.
    pub fn alloc(&self, size: usize, align: usize) -> Result<u32, ArenaFull> {
        debug_assert!(align.is_power_of_two() && align <= 8);
        // The bump pointer only *reserves* a range; it publishes no data.
        // The memory was zeroed before the arena was shared, and node
        // contents written into a reservation are published by the skip
        // ORDERING: relaxed — list's Release CAS, not by this counter.
        let mut cur = self.pos.load(Ordering::Relaxed);
        loop {
            let start = cur.next_multiple_of(align);
            let end = match start.checked_add(size) {
                Some(e) => e,
                None => {
                    return Err(ArenaFull { requested: size, remaining: 0 });
                }
            };
            if end > self.cap {
                return Err(ArenaFull {
                    requested: size,
                    remaining: self.cap.saturating_sub(cur),
                });
            }
            // ORDERING: relaxed — reservation only; see above.
            match self.pos.compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Ok(start as u32),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Allocate and fill with `data`; returns the offset.
    pub fn alloc_bytes(&self, data: &[u8]) -> Result<u32, ArenaFull> {
        let off = self.alloc(data.len(), 1)?;
        // SAFETY: freshly-allocated disjoint range.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.add(off as usize), data.len());
        }
        Ok(off)
    }

    /// Raw pointer to `offset`.
    ///
    /// # Safety
    /// `offset` must come from [`Arena::alloc`] on this arena and accesses
    /// must stay within the allocation.
    pub unsafe fn ptr_at(&self, offset: u32) -> *mut u8 {
        debug_assert!((offset as usize) < self.cap);
        self.ptr.add(offset as usize)
    }

    /// Borrow `len` bytes at `offset`.
    ///
    /// # Safety
    /// The range must be a fully-initialized allocation that is no longer
    /// being written (skip-list publication guarantees this for node data).
    pub unsafe fn slice(&self, offset: u32, len: usize) -> &[u8] {
        debug_assert!(offset as usize + len <= self.cap);
        std::slice::from_raw_parts(self.ptr.add(offset as usize), len)
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
        let off = a.alloc(4, 1).unwrap();
        assert!(off >= 8);
    }

    #[test]
    fn alignment_respected() {
        let a = Arena::with_capacity(1024);
        a.alloc(3, 1).unwrap();
        let off = a.alloc(8, 8).unwrap();
        assert_eq!(off % 8, 0);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = Arena::with_capacity(1024);
        let off = a.alloc_bytes(b"memtable").unwrap();
        // SAFETY: `off` holds the 8 bytes just written, and nothing writes them.
        assert_eq!(unsafe { a.slice(off, 8) }, b"memtable");
    }

    #[test]
    fn full_arena_reports_error() {
        let a = Arena::with_capacity(64);
        let err = a.alloc(1024, 1).unwrap_err();
        assert_eq!(err.requested, 1024);
        assert!(a.alloc(16, 1).is_ok());
    }

    #[test]
    fn concurrent_allocations_are_disjoint() {
        let a = Arc::new(Arena::with_capacity(1 << 20));
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut offs = Vec::new();
                for i in 0..1000u32 {
                    let data = [t, (i % 251) as u8, 3, 4];
                    let off = a.alloc_bytes(&data).unwrap();
                    offs.push((off, data));
                }
                offs
            }));
        }
        let mut all: Vec<(u32, [u8; 4])> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        // No two allocations overlap and every allocation kept its bytes.
        let mut ranges: Vec<u32> = all.iter().map(|(o, _)| *o).collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[1] - w[0] >= 4, "allocations overlap");
        }
        for (off, data) in &all {
            // SAFETY: every writer thread has been joined; `off` holds its 4 bytes.
            assert_eq!(unsafe { a.slice(*off, 4) }, data);
        }
    }
}
