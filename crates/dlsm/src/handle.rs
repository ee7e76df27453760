//! SSTable handles and owner-aware garbage collection (paper Sec. V-B).

use std::sync::Arc;

use dlsm_memnode::RegionAllocator;
use dlsm_sstable::block::BlockMetaCache;
use dlsm_sstable::byte_addr::TableMeta;
use parking_lot::Mutex;

use crate::context::RemoteRegion;

/// An extent of remote memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Offset within the memory node's region.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Who allocated (and therefore who frees) a table's remote memory.
///
/// The paper's rule: memory allocated for flushing is recycled by the
/// compute node's local allocator; memory allocated for near-data compaction
/// is recycled by the memory node, via a *batched* free RPC. The handle
/// records the origin so the garbage collector can route the free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Allocated by the compute node (flush zone).
    Compute,
    /// Allocated by the memory node (compaction zone).
    MemNode,
    /// Not owned by this database instance (e.g. a restored checkpoint);
    /// never freed.
    External,
}

/// Compute-node-cached metadata of a table, by format.
#[derive(Debug, Clone)]
pub enum MetaKind {
    /// Byte-addressable: per-record index + bloom (paper Sec. VI).
    ByteAddr(Arc<TableMeta>),
    /// Block format: parsed index block + bloom, with the block size used.
    Block(BlockMetaCache, u32),
}

/// One SSTable as the compute node sees it. Dropping the last `Arc` of a
/// handle enqueues its extent for garbage collection — snapshots pin tables
/// simply by holding the `Arc`s (Sec. V-B).
pub struct TableHandle {
    /// Unique table id.
    pub id: u64,
    /// Which memory node holds the table.
    pub home: RemoteRegion,
    /// The table's extent in that node's region.
    pub extent: Extent,
    /// Who frees the extent.
    pub origin: Origin,
    /// Cached metadata.
    pub meta: MetaKind,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
    /// Number of records.
    pub num_entries: u64,
    gc: Option<Arc<GcSink>>,
}

impl TableHandle {
    /// Create a handle whose extent will be GC'd through `gc` on last drop.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u64,
        home: RemoteRegion,
        extent: Extent,
        origin: Origin,
        meta: MetaKind,
        smallest: Vec<u8>,
        largest: Vec<u8>,
        num_entries: u64,
        gc: Option<Arc<GcSink>>,
    ) -> Arc<TableHandle> {
        Arc::new(TableHandle {
            id,
            home,
            extent,
            origin,
            meta,
            smallest,
            largest,
            num_entries,
            gc,
        })
    }

    /// Smallest user key.
    pub fn smallest_user(&self) -> &[u8] {
        dlsm_sstable::key::user_key(&self.smallest)
    }

    /// Largest user key.
    pub fn largest_user(&self) -> &[u8] {
        dlsm_sstable::key::user_key(&self.largest)
    }

    /// Whether the table's user-key range intersects `[lo, hi]` (inclusive).
    pub fn overlaps_user_range(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.smallest_user() <= hi && lo <= self.largest_user()
    }
}

impl std::fmt::Debug for TableHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableHandle")
            .field("id", &self.id)
            .field("extent", &self.extent)
            .field("origin", &self.origin)
            .field("entries", &self.num_entries)
            .finish()
    }
}

impl Drop for TableHandle {
    fn drop(&mut self) {
        if let Some(gc) = &self.gc {
            gc.enqueue(self.origin, self.extent);
        }
    }
}

/// Routes frees to the right owner: compute-allocated extents go straight to
/// the local flush allocator; memnode-allocated extents queue up for the
/// next batched `FreeBatch` RPC (Sec. V-B).
pub struct GcSink {
    flush_alloc: Arc<RegionAllocator>,
    remote_pending: Mutex<Vec<(u64, u64)>>,
}

impl GcSink {
    /// Create a sink backed by the compute node's flush allocator.
    pub fn new(flush_alloc: Arc<RegionAllocator>) -> Arc<GcSink> {
        Arc::new(GcSink { flush_alloc, remote_pending: Mutex::new(Vec::new()) })
    }

    /// Record that `extent` is dead.
    pub fn enqueue(&self, origin: Origin, extent: Extent) {
        match origin {
            Origin::Compute => self.flush_alloc.free(extent.offset, extent.len),
            Origin::MemNode => self.remote_pending.lock().push((extent.offset, extent.len)),
            Origin::External => {}
        }
    }

    /// Take every pending remote free, if there is one: the compaction loop
    /// ships them as one batch each cycle, shutdown the rest.
    pub fn take_remote_batch(&self) -> Option<Vec<(u64, u64)>> {
        let mut pending = self.remote_pending.lock();
        (!pending.is_empty()).then(|| std::mem::take(&mut *pending))
    }

    /// Number of remote frees waiting to be batched.
    pub fn remote_pending_len(&self) -> usize {
        self.remote_pending.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsm_sstable::byte_addr::ByteAddrBuilder;
    use dlsm_sstable::key::{InternalKey, ValueType};
    use rdma_sim::{MrId, NodeId};

    fn region() -> RemoteRegion {
        RemoteRegion { node: NodeId(1), mr: MrId(0), rkey: 1, len: 1 << 20 }
    }

    fn meta_for(keys: &[&str]) -> (MetaKind, Vec<u8>, Vec<u8>) {
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for k in keys {
            b.add(InternalKey::new(k.as_bytes(), 5, ValueType::Value).as_bytes(), b"v").unwrap();
        }
        let (_, meta) = b.finish();
        let s = meta.smallest().unwrap().to_vec();
        let l = meta.largest().unwrap().to_vec();
        (MetaKind::ByteAddr(Arc::new(meta)), s, l)
    }

    #[test]
    fn drop_routes_compute_extent_to_flush_alloc() {
        let alloc = Arc::new(RegionAllocator::new(0, 1 << 16));
        let off = alloc.alloc(1024).unwrap();
        let gc = GcSink::new(Arc::clone(&alloc));
        let (meta, s, l) = meta_for(&["a"]);
        let h = TableHandle::new(
            1,
            region(),
            Extent { offset: off, len: 1024 },
            Origin::Compute,
            meta,
            s,
            l,
            1,
            Some(Arc::clone(&gc)),
        );
        assert_eq!(alloc.in_use(), 1024);
        drop(h);
        assert_eq!(alloc.in_use(), 0, "compute extent freed locally on drop");
        assert_eq!(gc.remote_pending_len(), 0);
    }

    #[test]
    fn drop_queues_memnode_extent_for_batch() {
        let alloc = Arc::new(RegionAllocator::new(0, 1 << 16));
        let gc = GcSink::new(alloc);
        let (meta, s, l) = meta_for(&["a"]);
        let h = TableHandle::new(
            2,
            region(),
            Extent { offset: 4096, len: 512 },
            Origin::MemNode,
            meta,
            s,
            l,
            1,
            Some(Arc::clone(&gc)),
        );
        drop(h);
        assert_eq!(gc.remote_pending_len(), 1);
        assert_eq!(gc.take_remote_batch().unwrap(), vec![(4096, 512)]);
        assert_eq!(gc.remote_pending_len(), 0);
        assert!(gc.take_remote_batch().is_none(), "nothing pending, no batch");
    }

    #[test]
    fn snapshot_pinning_via_arc() {
        let alloc = Arc::new(RegionAllocator::new(0, 1 << 16));
        let off = alloc.alloc(256).unwrap();
        let gc = GcSink::new(Arc::clone(&alloc));
        let (meta, s, l) = meta_for(&["a"]);
        let h = TableHandle::new(
            3,
            region(),
            Extent { offset: off, len: 256 },
            Origin::Compute,
            meta,
            s,
            l,
            1,
            Some(gc),
        );
        let pinned = Arc::clone(&h);
        drop(h);
        assert_eq!(alloc.in_use(), 256, "pinned table must not be freed");
        drop(pinned);
        assert_eq!(alloc.in_use(), 0);
    }

    #[test]
    fn external_tables_are_never_freed() {
        let alloc = Arc::new(RegionAllocator::new(0, 1 << 16));
        let gc = GcSink::new(Arc::clone(&alloc));
        let (meta, s, l) = meta_for(&["a"]);
        let h = TableHandle::new(
            4,
            region(),
            Extent { offset: 0, len: 256 },
            Origin::External,
            meta,
            s,
            l,
            1,
            Some(Arc::clone(&gc)),
        );
        drop(h);
        assert_eq!(gc.remote_pending_len(), 0);
    }

    #[test]
    fn overlap_check() {
        let (meta, s, l) = meta_for(&["bbb", "ddd"]);
        let h = TableHandle::new(5, region(), Extent { offset: 0, len: 1 }, Origin::External, meta, s, l, 2, None);
        assert!(h.overlaps_user_range(b"aaa", b"bbb"));
        assert!(h.overlaps_user_range(b"ccc", b"ccc"));
        assert!(h.overlaps_user_range(b"ddd", b"zzz"));
        assert!(!h.overlaps_user_range(b"a", b"b"));
        assert!(!h.overlaps_user_range(b"e", b"z"));
    }
}
