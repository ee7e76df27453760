//! # dlsm-sstable — SSTable formats for disaggregated memory
//!
//! Two on-"disk" (remote-memory) table formats, shared by dLSM and the
//! baselines, plus the pieces every LSM needs around them:
//!
//! * [`key`] — internal-key encoding `(user_key, seq, type)` and the
//!   internal-key comparator (user key ascending, sequence descending).
//! * [`bloom`] — LevelDB-style bloom filter (double hashing).
//! * [`byte_addr`] — dLSM's **byte-addressable** format (paper Sec. VI):
//!   no blocks; sorted raw key-value records in remote memory, with the
//!   per-record index `(key, offset, len)` and bloom filter kept on the
//!   compute node, so a point read fetches exactly one record with one RDMA
//!   read and a scan prefetches MB-sized chunks.
//! * [`block`] — the conventional **block-based** format (RocksDB-style)
//!   used by the RocksDB-RDMA baselines and the dLSM-Block ablation: data
//!   blocks of a configured size, an index block, a bloom filter and a
//!   footer, all stored remotely; point reads fetch whole blocks.
//! * [`iter`] — the `ForwardIter` positional-iterator trait and a merging
//!   iterator across tables/levels.
//! * [`merge`] — the compaction merge: newest-version-wins de-duplication
//!   and bottom-level tombstone dropping, shared by compute-side and
//!   near-data compaction so both produce bit-identical outputs.
//! * [`source`] — the [`source::DataSource`] abstraction over *where* table
//!   bytes live: a local slice (memory-node compaction reads its own DRAM
//!   for free) or a remote region behind a queue pair (compute-node reads
//!   pay the network cost).

pub mod block;
pub mod bloom;
pub mod byte_addr;
pub mod coding;
pub mod iter;
pub mod key;
pub mod merge;
pub mod source;

pub use bloom::BloomFilter;
pub use iter::{ClampIter, ForwardIter, MergingIter};
pub use key::{InternalKey, InternalKeyComparator, SeqNo, ValueType, MAX_SEQ};
pub use block::BlockFetcher;
pub use source::{DataSource, SliceSource};

/// Errors surfaced by table building and reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SstError {
    /// Malformed table bytes.
    Corrupt(String),
    /// The data source failed (e.g. an RDMA error).
    Source(String),
    /// The output sink is out of space.
    SinkFull,
}

impl std::fmt::Display for SstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SstError::Corrupt(m) => write!(f, "corrupt sstable: {m}"),
            SstError::Source(m) => write!(f, "data source error: {m}"),
            SstError::SinkFull => write!(f, "output sink full"),
        }
    }
}

impl std::error::Error for SstError {}

/// Result alias for table operations.
pub type Result<T> = std::result::Result<T, SstError>;
