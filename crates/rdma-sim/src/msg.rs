//! Two-sided message and immediate-event types.

use crate::clock::SimTime;
use crate::node::NodeId;

/// A two-sided message delivered to a node's inbox via SEND.
///
/// The fabric stamps each message with the simulated time at which it is
/// allowed to become visible; receivers spin until then, so two-sided verbs
/// pay the full network cost at the receiver just like on real hardware.
#[derive(Debug)]
pub struct Message {
    /// Sender node.
    pub src: NodeId,
    /// Message payload (ownership transferred to the receiver).
    pub payload: Vec<u8>,
    pub(crate) ready_at: SimTime,
}

/// An immediate event raised at the target node by WRITE-with-IMMEDIATE.
///
/// dLSM's compaction RPC uses the 32-bit immediate as a requester id so the
/// memory node's reply can wake exactly the sleeping requester thread
/// (paper Sec. X-D).
#[derive(Debug, Clone, Copy)]
pub struct ImmEvent {
    /// Node that issued the write.
    pub src: NodeId,
    /// The 32-bit immediate value.
    pub imm: u32,
    /// Payload length of the carrying write.
    pub bytes: usize,
    pub(crate) ready_at: SimTime,
}
