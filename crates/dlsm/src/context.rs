//! Compute-node context and memory-node connection handles.

use std::sync::Arc;

use dlsm_memnode::{ImmWaiter, MemServer, RegionAllocator};
use rdma_sim::{Fabric, MemoryRegion, MrId, Node, NodeId, RemoteAddr};

/// Everything dLSM needs from "this compute node": its fabric endpoint and
/// the (single, node-wide) immediate-event notifier thread.
///
/// One `ComputeContext` is shared by every shard ([`crate::Db`]) running on
/// the node, exactly as the paper's RDMA manager is shared process-wide
/// (Sec. X-B).
pub struct ComputeContext {
    fabric: Arc<Fabric>,
    node: Arc<Node>,
    waiter: Arc<ImmWaiter>,
}

impl ComputeContext {
    /// Attach a new compute node to `fabric` and start its notifier.
    pub fn new(fabric: &Arc<Fabric>) -> Arc<ComputeContext> {
        let node = fabric.add_node();
        let waiter = Arc::new(ImmWaiter::start(Arc::clone(&node)));
        Arc::new(ComputeContext { fabric: Arc::clone(fabric), node, waiter })
    }

    /// The fabric this node is attached to.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// This compute node's fabric endpoint.
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// The node-wide immediate-event notifier (wakes sleeping compaction
    /// requesters).
    pub fn waiter(&self) -> &Arc<ImmWaiter> {
        &self.waiter
    }
}

/// Connection metadata for one remote region: what a compute node learns at
/// connection setup (node id, region id, rkey, length). This is all that is
/// needed to address remote memory; the bytes themselves stay remote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteRegion {
    /// Owning memory node.
    pub node: NodeId,
    /// Region id within the node.
    pub mr: MrId,
    /// Remote-access key.
    pub rkey: u32,
    /// Region length in bytes.
    pub len: u64,
}

impl RemoteRegion {
    /// Capture the registration info of `region`.
    pub fn of(region: &MemoryRegion) -> RemoteRegion {
        RemoteRegion {
            node: region.node(),
            mr: region.mr(),
            rkey: region.rkey(),
            len: region.len() as u64,
        }
    }

    /// A fabric address at `offset` within the region.
    pub fn addr(&self, offset: u64) -> RemoteAddr {
        RemoteAddr { node: self.node, mr: self.mr, offset, rkey: self.rkey }
    }
}

/// The compute node's view of one memory node: addressing info plus the
/// compute-side allocator over (a window of) the flush zone.
///
/// The flush zone is *controlled and allocated by the compute node* so a
/// MemTable flush needs no allocation round trip (paper Sec. V-A). With
/// several compute nodes sharing one memory node, each gets a disjoint
/// window of the flush zone.
pub struct MemNodeHandle {
    remote: RemoteRegion,
    flush_alloc: Arc<RegionAllocator>,
    flush_zone_end: u64,
}

impl MemNodeHandle {
    /// A handle covering the server's entire flush zone (single-compute-node
    /// deployments).
    pub fn from_server(server: &MemServer) -> Arc<MemNodeHandle> {
        Self::with_window(RemoteRegion::of(server.region()), 0, server.flush_zone())
    }

    /// A handle whose flush allocations come from `[window_lo, window_hi)`
    /// of the flush zone (multi-compute-node deployments partition the zone).
    pub fn with_window(remote: RemoteRegion, window_lo: u64, window_hi: u64) -> Arc<MemNodeHandle> {
        // PANIC-SAFE: set-up argument check; every deployment carves its
        // windows out of `server.flush_zone()`.
        assert!(window_lo <= window_hi && window_hi <= remote.len);
        Arc::new(MemNodeHandle {
            remote,
            flush_alloc: Arc::new(RegionAllocator::new(window_lo, window_hi - window_lo)),
            flush_zone_end: window_hi,
        })
    }

    /// Addressing info for the memory node's region.
    pub fn remote(&self) -> RemoteRegion {
        self.remote
    }

    /// The memory node's fabric id.
    pub fn node_id(&self) -> NodeId {
        self.remote.node
    }

    /// The compute-side allocator over this node's flush window.
    pub fn flush_alloc(&self) -> &Arc<RegionAllocator> {
        &self.flush_alloc
    }

    /// End of this handle's flush window.
    pub fn flush_zone_end(&self) -> u64 {
        self.flush_zone_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsm_memnode::MemServerConfig;
    use rdma_sim::NetworkProfile;

    #[test]
    fn remote_region_addressing() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let node = fabric.add_node();
        let region = node.register_region(4096);
        let rr = RemoteRegion::of(&region);
        let addr = rr.addr(100);
        assert_eq!(addr.node, node.id());
        assert_eq!(addr.offset, 100);
        assert_eq!(addr.rkey, region.rkey());
    }

    #[test]
    fn handle_windows_are_disjoint() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let server = MemServer::start(
            &fabric,
            MemServerConfig { region_size: 1 << 20, flush_zone: 512 << 10, compaction_workers: 1, dispatchers: 1 },
        );
        let rr = RemoteRegion::of(server.region());
        let a = MemNodeHandle::with_window(rr, 0, 256 << 10);
        let b = MemNodeHandle::with_window(rr, 256 << 10, 512 << 10);
        let oa = a.flush_alloc().alloc(1024).unwrap();
        let ob = b.flush_alloc().alloc(1024).unwrap();
        assert!(oa < 256 << 10);
        assert!((256 << 10..512 << 10).contains(&ob));
        server.shutdown();
    }

    #[test]
    fn compute_context_starts_waiter() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let ctx = ComputeContext::new(&fabric);
        assert_eq!(ctx.node().id().0, 0);
        assert!(Arc::strong_count(ctx.waiter()) >= 1);
    }
}
