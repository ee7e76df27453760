//! Work-request verbs, completions and error types.

use std::fmt;
use std::time::Instant;

/// Opaque caller-chosen work-request identifier, echoed in the completion
/// (mirrors `ibv_wr_id`). dLSM uses it to identify which flush buffer a
/// completion refers to.
pub type WrId = u64;

/// The verb an operation was posted with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// One-sided remote read.
    Read,
    /// One-sided remote write.
    Write,
    /// One-sided remote write carrying a 32-bit immediate that raises an
    /// event at the remote node (consumes a receive slot on real hardware).
    WriteImm,
    /// Two-sided send (paired with a remote receive).
    Send,
    /// Remote atomic fetch-and-add on an 8-byte word.
    FetchAdd,
    /// Remote atomic compare-and-swap on an 8-byte word.
    CompareSwap,
}

impl Verb {
    /// All verbs, for iterating stats tables.
    pub const ALL: [Verb; 6] = [
        Verb::Read,
        Verb::Write,
        Verb::WriteImm,
        Verb::Send,
        Verb::FetchAdd,
        Verb::CompareSwap,
    ];

    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Read => "read",
            Verb::Write => "write",
            Verb::WriteImm => "write_imm",
            Verb::Send => "send",
            Verb::FetchAdd => "fetch_add",
            Verb::CompareSwap => "cas",
        }
    }
}

/// A completion-queue entry (mirrors `ibv_wc`).
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The caller's work-request id.
    pub wr_id: WrId,
    /// Which verb completed.
    pub verb: Verb,
    /// Payload size in bytes.
    pub bytes: usize,
    /// For atomics: the value read from remote memory before the operation.
    pub old_value: u64,
    /// Simulated hardware timestamp at which the op completed.
    pub completed_at: Instant,
}

/// Errors surfaced by the simulated fabric.
///
/// These map onto the failure classes a real verbs program must handle:
/// addressing/protection faults, capability (rkey) mismatches, queue
/// exhaustion, and injected transport faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// `(node, mr)` does not name a registered memory region.
    UnknownRegion { node: u32, mr: u32 },
    /// The supplied rkey does not match the region's registration.
    BadRkey { node: u32, mr: u32 },
    /// Access outside the registered region (remote protection fault).
    OutOfBounds {
        node: u32,
        mr: u32,
        offset: u64,
        len: usize,
        region_len: usize,
    },
    /// Atomic target not 8-byte aligned.
    Unaligned { offset: u64 },
    /// Send queue is full (too many outstanding work requests).
    SendQueueFull { depth: usize },
    /// Destination node does not exist.
    UnknownNode { node: u32 },
    /// A fault hook dropped this operation.
    Dropped,
    /// A receive was attempted but the inbox is closed or timed out.
    RecvTimeout,
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::UnknownRegion { node, mr } => {
                write!(f, "unknown memory region mr={mr} on node {node}")
            }
            RdmaError::BadRkey { node, mr } => {
                write!(f, "rkey mismatch for mr={mr} on node {node}")
            }
            RdmaError::OutOfBounds { node, mr, offset, len, region_len } => write!(
                f,
                "remote access [{offset}, {offset}+{len}) out of bounds for mr={mr} (len {region_len}) on node {node}"
            ),
            RdmaError::Unaligned { offset } => {
                write!(f, "atomic target offset {offset} is not 8-byte aligned")
            }
            RdmaError::SendQueueFull { depth } => {
                write!(f, "send queue full (depth {depth})")
            }
            RdmaError::UnknownNode { node } => write!(f, "unknown node {node}"),
            RdmaError::Dropped => write!(f, "operation dropped by fault injection"),
            RdmaError::RecvTimeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for RdmaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_names_are_unique() {
        let mut names: Vec<_> = Verb::ALL.iter().map(|v| v.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Verb::ALL.len());
        // Stats tables index by discriminant.
        for (i, v) in Verb::ALL.iter().enumerate() {
            assert_eq!(*v as usize, i);
        }
    }

    #[test]
    fn errors_display() {
        let e = RdmaError::OutOfBounds { node: 1, mr: 2, offset: 10, len: 4, region_len: 8 };
        let s = e.to_string();
        assert!(s.contains("out of bounds"));
        assert!(RdmaError::Dropped.to_string().contains("fault"));
    }
}
