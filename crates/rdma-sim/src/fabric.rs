//! The fabric: the set of nodes, the cost model, statistics and faults.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::clock::{Clock, SimTime};
use crate::fault::FaultHook;
use crate::node::{Node, NodeId};
use crate::profile::NetworkProfile;
use crate::stats::FabricStats;
use crate::verbs::RdmaError;

/// A simulated RDMA network connecting any number of nodes.
///
/// ```
/// use rdma_sim::{Fabric, NetworkProfile};
/// let fabric = Fabric::new(NetworkProfile::instant());
/// let compute = fabric.add_node();
/// let memory = fabric.add_node();
/// let region = memory.register_region(4096);
///
/// let mut qp = fabric.create_qp(compute.id(), memory.id()).unwrap();
/// qp.write_sync(b"hello", region.addr(100)).unwrap();
/// let mut buf = [0u8; 5];
/// qp.read_sync(region.addr(100), &mut buf).unwrap();
/// assert_eq!(&buf, b"hello");
/// ```
pub struct Fabric {
    profile: NetworkProfile,
    clock: Clock,
    nodes: RwLock<Vec<Arc<Node>>>,
    stats: FabricStats,
    fault: RwLock<Option<Arc<dyn FaultHook>>>,
    /// Whether `fault` holds a hook. Read-mostly, so posting a verb on a
    /// healthy fabric takes no lock.
    fault_armed: AtomicBool,
}

impl Fabric {
    /// Create an empty fabric with the given cost model.
    pub fn new(profile: NetworkProfile) -> Arc<Fabric> {
        Arc::new(Fabric {
            profile,
            clock: Clock::new(),
            nodes: RwLock::new(Vec::new()),
            stats: FabricStats::default(),
            fault: RwLock::new(None),
            fault_armed: AtomicBool::new(false),
        })
    }

    /// The fabric's cost model.
    pub fn profile(&self) -> &NetworkProfile {
        &self.profile
    }

    /// The fabric's clock: every deadline and fault window is on it.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Wait until [`Fabric::now`] reaches `t`; returns at once if it has.
    pub fn wait_until(&self, t: SimTime) {
        self.clock.wait_until(t);
    }

    /// Attach a new node and return its handle.
    pub fn add_node(self: &Arc<Self>) -> Arc<Node> {
        let mut nodes = self.nodes.write();
        let node = Arc::new(Node::new(NodeId(nodes.len() as u32), self.clock));
        nodes.push(Arc::clone(&node));
        node
    }

    /// Look up a node by id.
    pub fn node(&self, id: NodeId) -> Result<Arc<Node>, RdmaError> {
        self.nodes
            .read()
            .get(id.0 as usize)
            .cloned()
            .ok_or(RdmaError::UnknownNode { node: id.0 })
    }

    /// Number of attached nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.read().len()
    }

    /// Create a queue pair from `local` to `remote`. Per the dLSM design,
    /// every worker thread creates its own queue pair (Sec. X-B), so this is
    /// expected to be called once per thread per peer.
    pub fn create_qp(
        self: &Arc<Self>,
        local: NodeId,
        remote: NodeId,
    ) -> Result<crate::qp::QueuePair, RdmaError> {
        // Validate both endpoints exist now, not at first post; the queue
        // pair keeps its peer so no verb looks it up again.
        self.node(local)?;
        let peer = self.node(remote)?;
        Ok(crate::qp::QueuePair::new(Arc::clone(self), local, peer))
    }

    /// Traffic counters.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Install (or clear) a fault-injection hook.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        let mut slot = self.fault.write();
        // Flag flipped under the write lock: a poster that sees it set
        // waits on the lock and finds the hook.
        self.fault_armed.store(hook.is_some(), Ordering::Release);
        *slot = hook;
    }

    pub(crate) fn fault(&self) -> Option<Arc<dyn FaultHook>> {
        if !self.fault_armed.load(Ordering::Acquire) {
            return None;
        }
        self.fault.read().clone()
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("nodes", &self.node_count())
            .field("profile", &self.profile)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_get_sequential_ids() {
        let f = Fabric::new(NetworkProfile::instant());
        let a = f.add_node();
        let b = f.add_node();
        assert_eq!(a.id(), NodeId(0));
        assert_eq!(b.id(), NodeId(1));
        assert_eq!(f.node_count(), 2);
        assert!(f.node(NodeId(1)).is_ok());
        assert!(f.node(NodeId(2)).is_err());
    }

    #[test]
    fn qp_creation_validates_endpoints() {
        let f = Fabric::new(NetworkProfile::instant());
        let a = f.add_node();
        assert!(f.create_qp(a.id(), NodeId(5)).is_err());
        let b = f.add_node();
        assert!(f.create_qp(a.id(), b.id()).is_ok());
    }
}
