//! # rdma-sim — a simulated RDMA fabric for disaggregated-memory research
//!
//! This crate models the subset of the ibverbs programming model that the
//! dLSM paper (ICDE 2023) builds on, without requiring RDMA hardware:
//!
//! * **Nodes** ([`Node`]) own registered **memory regions** ([`MemoryRegion`])
//!   addressed by `(node, mr, offset)` plus an `rkey` capability, mirroring
//!   `ibv_reg_mr`.
//! * **Queue pairs** ([`QueuePair`]) connect a local node to a remote node and
//!   carry one-sided READ / WRITE / WRITE-with-IMMEDIATE and atomic
//!   FETCH_ADD / CAS work requests, plus two-sided SEND. Each queue pair owns
//!   a **completion queue**; work requests complete asynchronously and in
//!   FIFO order per queue pair, exactly the property dLSM's flush-buffer
//!   recycling relies on (paper Sec. X-C).
//! * A **cost model** ([`NetworkProfile`]) charges every verb a base latency
//!   plus a size-proportional bandwidth term. Deadlines are [`SimTime`]s on
//!   the fabric's one clock ([`Fabric::now`]); a completion only becomes
//!   pollable once its deadline has passed, and [`Fabric::wait_until`] is
//!   the one wait (today both run on the host's wall clock).
//!   The profile for a Mellanox EDR ConnectX-4 NIC reproduces the paper's
//!   observation of a ~100x efficiency gap between 64 B and 1 MB transfers.
//! * The node that *owns* a region may access it directly through
//!   [`MemoryRegion::local_read`] / [`MemoryRegion::local_write`] at zero
//!   network cost — this asymmetry is what makes near-data compaction
//!   profitable.
//! * Fabric-wide **statistics** ([`FabricStats`]) count operations and bytes
//!   per verb so experiments can report network traffic.
//! * Optional **fault injection** ([`FaultHook`], [`ChaosPlan`]) adds delay,
//!   drops completions or blackholes a node over a window of fabric time, to
//!   exercise timeout/retry paths.
//!
//! Like real RDMA, the simulator does **not** police concurrent conflicting
//! access to the same bytes; higher layers must ensure disjointness (the LSM
//! structures here are write-once).

pub mod clock;
pub mod fabric;
pub mod fault;
pub mod msg;
pub mod node;
pub mod profile;
pub mod qp;
pub mod region;
pub mod stats;
pub mod verbs;

pub use clock::SimTime;
pub use fabric::Fabric;
pub use fault::{ChaosPlan, FaultAction, FaultHook, OpContext};
pub use msg::{ImmEvent, Message};
pub use node::{Node, NodeId};
pub use profile::NetworkProfile;
pub use qp::{CompletionQueue, QueuePair};
pub use region::{MemoryRegion, MrId, RemoteAddr};
pub use stats::{FabricStats, StatsSnapshot};
pub use verbs::{Completion, RdmaError, Verb, WrId};

/// Result alias for fabric operations.
pub type Result<T> = std::result::Result<T, RdmaError>;
