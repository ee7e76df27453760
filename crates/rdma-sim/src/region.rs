//! Registered memory regions.
//!
//! A [`MemoryRegion`] is the simulated equivalent of memory pinned with
//! `ibv_reg_mr`: a contiguous byte range owned by one node, addressable from
//! remote nodes via `(node, mr, offset)` plus the region's `rkey`.
//!
//! The owning node may also access the region *locally* at zero network cost
//! ([`MemoryRegion::local_read`] / [`MemoryRegion::local_write`] /
//! [`MemoryRegion::local_slice`]); this models a memory node's CPU touching
//! its own DRAM and is the substrate for near-data compaction.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::node::NodeId;
use crate::verbs::RdmaError;

/// Identifier of a memory region within one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MrId(pub u32);

/// A fully-qualified remote address: which node, which region, where in it.
///
/// Carries the `rkey` capability; the fabric rejects operations whose rkey
/// does not match the region's registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteAddr {
    /// Owning node.
    pub node: NodeId,
    /// Region within the node.
    pub mr: MrId,
    /// Byte offset within the region.
    pub offset: u64,
    /// Remote-access key issued at registration.
    pub rkey: u32,
}

impl RemoteAddr {
    /// The same region, `delta` bytes further in.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // verb-style API, not arithmetic
    pub fn add(self, delta: u64) -> RemoteAddr {
        RemoteAddr { offset: self.offset + delta, ..self }
    }
}

/// Raw, 8-byte-aligned, heap-allocated slab. Interior mutability via raw
/// pointers; see the module docs for the (RDMA-like) aliasing contract.
struct Slab {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the slab is plain memory; synchronization of access is delegated to
// callers exactly as real RDMA delegates it to the application. All
// simulator-internal copies are `copy_nonoverlapping` on ranges the caller
// promises are not concurrently written.
unsafe impl Send for Slab {}
// SAFETY: same contract as Send above — concurrent access discipline is the
// caller's, as with real RDMA-registered memory.
unsafe impl Sync for Slab {}

impl Slab {
    fn new(len: usize) -> Slab {
        // PANIC-SAFE: `register_region` takes a non-empty length that fits a
        // `Layout` (≤ isize::MAX).
        assert!(len > 0, "cannot register an empty region");
        let layout = Layout::from_size_align(len, 8).expect("slab layout");
        // SAFETY: layout has non-zero size.
        let ptr = unsafe { alloc_zeroed(layout) };
        // PANIC-SAFE: out of memory; std's collections give up there too.
        assert!(!ptr.is_null(), "slab allocation of {len} bytes failed");
        Slab { ptr, len }
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        // PANIC-SAFE: the same layout was built in `new`.
        let layout = Layout::from_size_align(self.len, 8).expect("slab layout");
        // SAFETY: allocated with the identical layout in `new`.
        unsafe { dealloc(self.ptr, layout) };
    }
}

/// A registered memory region.
pub struct MemoryRegion {
    node: NodeId,
    mr: MrId,
    rkey: u32,
    slab: Slab,
}

impl MemoryRegion {
    pub(crate) fn new(node: NodeId, mr: MrId, rkey: u32, len: usize) -> MemoryRegion {
        MemoryRegion { node, mr, rkey, slab: Slab::new(len) }
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.slab.len
    }

    /// True if the region has zero capacity (never: registration requires a
    /// non-empty region), provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.slab.len == 0
    }

    /// The node that owns this region.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The region id within its node.
    pub fn mr(&self) -> MrId {
        self.mr
    }

    /// The remote-access key issued at registration.
    pub fn rkey(&self) -> u32 {
        self.rkey
    }

    /// A [`RemoteAddr`] pointing at `offset` within this region.
    pub fn addr(&self, offset: u64) -> RemoteAddr {
        RemoteAddr { node: self.node, mr: self.mr, offset, rkey: self.rkey }
    }

    pub(crate) fn check_rkey(&self, rkey: u32) -> Result<(), RdmaError> {
        if rkey != self.rkey {
            return Err(RdmaError::BadRkey { node: self.node.0, mr: self.mr.0 });
        }
        Ok(())
    }

    fn check_bounds(&self, offset: u64, len: usize) -> Result<(), RdmaError> {
        let end = offset.checked_add(len as u64);
        match end {
            Some(end) if end <= self.slab.len as u64 => Ok(()),
            _ => Err(RdmaError::OutOfBounds {
                node: self.node.0,
                mr: self.mr.0,
                offset,
                len,
                region_len: self.slab.len,
            }),
        }
    }

    /// Copy `dst.len()` bytes out of the region, starting at `offset`.
    ///
    /// Zero network cost: this is the owning node touching its own DRAM.
    pub fn local_read(&self, offset: u64, dst: &mut [u8]) -> Result<(), RdmaError> {
        self.check_bounds(offset, dst.len())?;
        // SAFETY: bounds checked; caller upholds the no-conflicting-writers
        // contract for the range.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.slab.ptr.add(offset as usize),
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
        Ok(())
    }

    /// Copy `src` into the region at `offset`. Zero network cost.
    pub fn local_write(&self, offset: u64, src: &[u8]) -> Result<(), RdmaError> {
        self.check_bounds(offset, src.len())?;
        // SAFETY: bounds checked; caller upholds the disjointness contract.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                self.slab.ptr.add(offset as usize),
                src.len(),
            );
        }
        Ok(())
    }

    /// Borrow `len` bytes at `offset` as a shared slice, for zero-copy local
    /// reads by the owning node (e.g. a compaction worker scanning an
    /// SSTable in place).
    ///
    /// # Safety
    ///
    /// The caller must guarantee no concurrent writer mutates the range for
    /// the lifetime of the returned slice. In the LSM systems built on this
    /// crate, SSTable bytes are written once (before publication) and never
    /// mutated, so published table ranges always satisfy this.
    pub unsafe fn local_slice(&self, offset: u64, len: usize) -> Result<&[u8], RdmaError> {
        self.check_bounds(offset, len)?;
        Ok(std::slice::from_raw_parts(self.slab.ptr.add(offset as usize), len))
    }

    /// View the 8 bytes at `offset` as an atomic word (target of remote
    /// FETCH_ADD / CAS, and of local atomics by the owning node).
    pub fn atomic_u64(&self, offset: u64) -> Result<&AtomicU64, RdmaError> {
        self.check_bounds(offset, 8)?;
        if !offset.is_multiple_of(8) {
            return Err(RdmaError::Unaligned { offset });
        }
        // SAFETY: in-bounds, 8-aligned (slab base is 8-aligned), and
        // AtomicU64 may alias plain memory that is only accessed atomically.
        let ptr = unsafe { self.slab.ptr.add(offset as usize) } as *const AtomicU64;
        // SAFETY: `ptr` is in-bounds and aligned (above), and the slab lives
        // as long as `&self`.
        Ok(unsafe { &*ptr })
    }

    /// Read a `u64` at `offset` with a single atomic load (used by pollers
    /// watching a flag word).
    pub fn atomic_load(&self, offset: u64) -> Result<u64, RdmaError> {
        Ok(self.atomic_u64(offset)?.load(Ordering::Acquire))
    }
}

impl std::fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryRegion")
            .field("node", &self.node)
            .field("mr", &self.mr)
            .field("len", &self.slab.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(len: usize) -> MemoryRegion {
        MemoryRegion::new(NodeId(0), MrId(0), 42, len)
    }

    #[test]
    fn local_roundtrip() {
        let r = region(128);
        r.local_write(10, b"hello").unwrap();
        let mut buf = [0u8; 5];
        r.local_read(10, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn region_starts_zeroed() {
        let r = region(64);
        let mut buf = [1u8; 64];
        r.local_read(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let r = region(16);
        let mut buf = [0u8; 8];
        assert!(matches!(r.local_read(12, &mut buf), Err(RdmaError::OutOfBounds { .. })));
        // Overflowing offset must not wrap.
        assert!(matches!(r.local_read(u64::MAX, &mut buf), Err(RdmaError::OutOfBounds { .. })));
    }

    #[test]
    fn out_of_bounds_write_rejected() {
        let r = region(16);
        assert!(r.local_write(16, b"x").is_err());
        assert!(r.local_write(0, &[0u8; 17]).is_err());
        assert!(r.local_write(0, &[0u8; 16]).is_ok());
    }

    #[test]
    fn atomic_word_requires_alignment() {
        let r = region(64);
        assert!(matches!(r.atomic_u64(4), Err(RdmaError::Unaligned { .. })));
        let a = r.atomic_u64(8).unwrap();
        a.store(7, Ordering::Release);
        assert_eq!(r.atomic_load(8).unwrap(), 7);
        // The atomic view aliases the byte view.
        let mut buf = [0u8; 8];
        r.local_read(8, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 7);
    }

    #[test]
    fn rkey_checked() {
        let r = region(8);
        assert!(r.check_rkey(42).is_ok());
        assert!(matches!(r.check_rkey(41), Err(RdmaError::BadRkey { .. })));
    }

    #[test]
    fn remote_addr_add() {
        let r = region(8);
        let a = r.addr(0).add(5);
        assert_eq!(a.offset, 5);
        assert_eq!(a.rkey, r.rkey());
    }

    #[test]
    fn local_slice_reads_written_bytes() {
        let r = region(32);
        r.local_write(0, b"abcdef").unwrap();
        // SAFETY: no concurrent writers in this test.
        let s = unsafe { r.local_slice(2, 3).unwrap() };
        assert_eq!(s, b"cde");
        // SAFETY: out of bounds: the call fails before it touches memory.
        assert!(unsafe { r.local_slice(30, 4) }.is_err());
    }
}
