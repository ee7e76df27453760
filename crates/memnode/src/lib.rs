//! # dlsm-memnode — the memory-node runtime
//!
//! Everything that *runs on the memory node* in dLSM's architecture (paper
//! Sec. V, X-D), plus the compute-side client half of the RPC protocol:
//!
//! * [`alloc`] — a free-list sub-allocator over one registered region. The
//!   region is split into two disjoint zones: a **flush zone** whose
//!   allocation is controlled by the compute node (MemTable flushes) and a
//!   **compaction zone** controlled by the memory node itself, so near-data
//!   compaction can allocate outputs without a network round trip
//!   (Sec. V-A).
//! * [`wire`] — hand-rolled little-endian request/reply formats; every reply
//!   is one [`ReplyFrame`], `[status][payload]`.
//! * [`server`] — the dispatcher + worker threads: general-purpose RPCs
//!   (ping, read, write, free-batch) are executed inline, compaction
//!   requests by a core-budgeted worker pool (the Fig. 12 knob). Every
//!   request is answered the same way, **bypassing the requester's
//!   dispatcher** with a one-sided RDMA write into its reply buffer, and a
//!   raised flag word: polled for (Sec. X-D1), or, for a compaction, a
//!   WRITE-with-IMMEDIATE that wakes the sleeping requester (Sec. X-D2).
//! * [`compactor`] — executes a compaction entirely against local DRAM:
//!   merge inputs with the shared [`dlsm_sstable::merge::CompactionIter`],
//!   build outputs in the compaction zone, return their metadata.
//! * [`client`] — the compute-node side: `RpcClient` (thread-local queue
//!   pair + registered reply/argument buffers, one retry loop) and
//!   `ImmWaiter` (the thread notifier that routes immediate events to
//!   sleeping compaction requesters by unique id).

pub mod alloc;
pub mod client;
pub mod compactor;
pub mod server;
pub mod sink;
pub mod wire;

pub use alloc::RegionAllocator;
pub use client::{ClientNetStats, ImmWaiter, RetryPolicy, RpcClient};
pub use compactor::execute_compaction;
pub use server::{CachedReply, DedupDecision, DedupMap, MemServer, MemServerConfig, ServerStats};
pub use sink::RegionSink;
pub use wire::{CompactArgs, CompactReply, InputTable, OutputTable, ReplyFrame, TableFormat};

/// Errors from the memory-node runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemNodeError {
    /// RDMA-level failure.
    Rdma(String),
    /// Table format failure.
    Sst(String),
    /// Malformed RPC bytes.
    BadMessage(String),
    /// Allocation failure in the requested zone.
    OutOfMemory {
        /// Bytes that could not be allocated.
        requested: u64,
    },
    /// The remote side reported an error status.
    RemoteError(String),
    /// Timed out waiting for a reply.
    Timeout,
}

impl std::fmt::Display for MemNodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemNodeError::Rdma(m) => write!(f, "rdma: {m}"),
            MemNodeError::Sst(m) => write!(f, "sstable: {m}"),
            MemNodeError::BadMessage(m) => write!(f, "bad rpc message: {m}"),
            MemNodeError::OutOfMemory { requested } => {
                write!(f, "memory node out of memory ({requested} bytes requested)")
            }
            MemNodeError::RemoteError(m) => write!(f, "remote error: {m}"),
            MemNodeError::Timeout => write!(f, "rpc timeout"),
        }
    }
}

impl std::error::Error for MemNodeError {}

impl From<rdma_sim::RdmaError> for MemNodeError {
    fn from(e: rdma_sim::RdmaError) -> Self {
        MemNodeError::Rdma(e.to_string())
    }
}

impl From<dlsm_sstable::SstError> for MemNodeError {
    fn from(e: dlsm_sstable::SstError) -> Self {
        MemNodeError::Sst(e.to_string())
    }
}

/// Result alias for memory-node operations.
pub type Result<T> = std::result::Result<T, MemNodeError>;
