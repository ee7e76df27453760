//! Fabric nodes: memory-region registry, message inbox, immediate events.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;

use crate::clock::Clock;
use crate::msg::{ImmEvent, Message};
use crate::region::{MemoryRegion, MrId};
use crate::verbs::RdmaError;

/// Identifier of a node on the fabric (compute or memory node alike — the
/// fabric does not distinguish; roles are a property of the software running
/// on them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// One endpoint on the fabric.
pub struct Node {
    id: NodeId,
    /// The fabric's clock: receives wait out a delivery's deadline on it.
    clock: Clock,
    regions: RwLock<Vec<Arc<MemoryRegion>>>,
    next_rkey: AtomicU32,
    pub(crate) inbox_tx: Sender<Message>,
    inbox_rx: Receiver<Message>,
    pub(crate) imm_tx: Sender<ImmEvent>,
    imm_rx: Receiver<ImmEvent>,
}

impl Node {
    pub(crate) fn new(id: NodeId, clock: Clock) -> Node {
        let (inbox_tx, inbox_rx) = unbounded();
        let (imm_tx, imm_rx) = unbounded();
        Node {
            id,
            clock,
            regions: RwLock::new(Vec::new()),
            next_rkey: AtomicU32::new(0x5EED_0001),
            inbox_tx,
            inbox_rx,
            imm_tx,
            imm_rx,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Register (pin) `len` bytes of this node's memory, mirroring
    /// `ibv_reg_mr`. Returns the region handle; remote peers address it with
    /// [`MemoryRegion::addr`]'s `(node, mr, offset, rkey)`.
    ///
    /// Registration is deliberately coarse-grained in dLSM: large regions are
    /// registered once up front and sub-allocated in user space (Sec. X-B).
    pub fn register_region(&self, len: usize) -> Arc<MemoryRegion> {
        // ORDERING: relaxed — rkey generation needs uniqueness only.
        let rkey = self.next_rkey.fetch_add(1, Ordering::Relaxed);
        let mut regions = self.regions.write();
        let mr = MrId(regions.len() as u32);
        let region = Arc::new(MemoryRegion::new(self.id, mr, rkey, len));
        regions.push(Arc::clone(&region));
        region
    }

    /// Look up a registered region by id.
    pub fn region(&self, mr: MrId) -> Result<Arc<MemoryRegion>, RdmaError> {
        self.regions
            .read()
            .get(mr.0 as usize)
            .cloned()
            .ok_or(RdmaError::UnknownRegion { node: self.id.0, mr: mr.0 })
    }

    /// Block until a two-sided message arrives (or `timeout` elapses).
    ///
    /// The timeout bounds the wait for a message to be *posted*; once one is
    /// taken off the queue it is always delivered, after spinning out its
    /// remaining wire time (events are never dropped — a popped completion
    /// on real hardware is never lost either).
    ///
    /// Safe to call from multiple dispatcher threads concurrently; each
    /// message is delivered to exactly one receiver.
    pub fn recv(&self, timeout: Duration) -> Result<Message, RdmaError> {
        // HOTPATH: a two-sided receive blocks by design. Its callers are the
        // memory node's dispatcher threads; the compute node reads one-sided.
        let msg = self.inbox_rx.recv_timeout(timeout).map_err(|_| RdmaError::RecvTimeout)?;
        self.clock.wait_until(msg.ready_at);
        Ok(msg)
    }

    /// Block until an immediate event (from WRITE-with-IMMEDIATE) arrives.
    /// As with [`Node::recv`], a popped event is never dropped.
    pub fn recv_imm(&self, timeout: Duration) -> Result<ImmEvent, RdmaError> {
        // HOTPATH: as `recv`; the caller is `ImmWaiter`'s notifier thread.
        let ev = self.imm_rx.recv_timeout(timeout).map_err(|_| RdmaError::RecvTimeout)?;
        self.clock.wait_until(ev.ready_at);
        Ok(ev)
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("regions", &self.regions.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimTime;

    #[test]
    fn register_and_lookup_regions() {
        let n = Node::new(NodeId(3), Clock::new());
        let r0 = n.register_region(64);
        let r1 = n.register_region(128);
        assert_ne!(r0.rkey(), r1.rkey());
        assert_eq!(n.region(MrId(0)).unwrap().len(), 64);
        assert_eq!(n.region(MrId(1)).unwrap().len(), 128);
        assert!(n.region(MrId(2)).is_err());
    }

    #[test]
    fn recv_times_out_on_empty_inbox() {
        let n = Node::new(NodeId(0), Clock::new());
        let err = n.recv(Duration::from_millis(5)).unwrap_err();
        assert_eq!(err, RdmaError::RecvTimeout);
    }

    #[test]
    fn ready_message_is_received() {
        let n = Node::new(NodeId(0), Clock::new());
        n.inbox_tx
            .send(Message { src: NodeId(9), payload: vec![1, 2, 3], ready_at: SimTime::ZERO })
            .unwrap();
        let m = n.recv(Duration::from_secs(1)).unwrap();
        assert_eq!(m.src, NodeId(9));
        assert_eq!(m.payload, vec![1, 2, 3]);
    }
}
