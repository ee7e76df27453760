//! # dlsm — an LSM-based index for disaggregated memory
//!
//! A from-scratch Rust reproduction of **dLSM** (ICDE 2023): an LSM-tree
//! whose MemTables live on the compute node and whose SSTables live in
//! remote memory behind a (simulated) RDMA fabric.
//!
//! The headline mechanisms, each mapped to its module:
//!
//! * **Minimal software overhead** ([`memtable`], [`db`]) — lock-free
//!   skip-list MemTables with *pre-assigned sequence-number ranges*: a
//!   writer whose sequence number falls outside the current table's range
//!   triggers the switch under double-checked locking, so a newer version
//!   of a key can never land in an older MemTable (paper Sec. IV, Fig. 3).
//! * **Near-data compaction** ([`compaction`]) — the compute node picks the
//!   compaction and ships only metadata; the memory node merges SSTables in
//!   its own DRAM and replies with new-table metadata (Sec. V). Large L0
//!   compactions are split into parallel key-range sub-compactions.
//! * **Byte-addressable SSTables** ([`dlsm_sstable::byte_addr`]) — point
//!   reads fetch exactly one record with one RDMA read; the per-record
//!   index and bloom filters stay in compute-node memory (Sec. VI).
//! * **Asynchronous flushing** ([`flush`]) — MemTables serialize straight
//!   into a FIFO ring of RDMA buffers recycled on completion (Sec. X-C).
//! * **Snapshot isolation & GC** ([`version`], [`handle`]) — copy-on-write
//!   version metadata pinned by `Arc`; owner-aware, batched garbage
//!   collection of remote extents (Sec. V-B).
//! * **Sharding and scale-out** ([`shard`], [`cluster`]) — λ range shards
//!   per compute node, placed round-robin over memory nodes (Sec. VII, IX).
//!
//! Quick start:
//!
//! ```
//! use dlsm::{ComputeContext, Db, DbConfig, MemNodeHandle};
//! use dlsm_memnode::{MemServer, MemServerConfig};
//! use rdma_sim::{Fabric, NetworkProfile};
//!
//! let fabric = Fabric::new(NetworkProfile::instant());
//! let server = MemServer::start(&fabric, MemServerConfig {
//!     region_size: 64 << 20, flush_zone: 24 << 20,
//!     compaction_workers: 2, dispatchers: 1,
//! });
//! let ctx = ComputeContext::new(&fabric);
//! let mem = MemNodeHandle::from_server(&server);
//! let db = Db::open(ctx, mem, DbConfig::small()).unwrap();
//!
//! db.put(b"hello", b"world").unwrap();
//! let mut reader = db.reader();
//! assert_eq!(reader.get(b"hello").unwrap(), Some(b"world".to_vec()));
//! db.shutdown();
//! server.shutdown();
//! ```

pub mod batch;
pub mod cluster;
pub mod compaction;
pub mod config;
pub mod context;
pub mod db;
pub mod flush;
pub mod handle;
pub mod memtable;
pub mod metrics;
pub mod publication;
pub mod remote;
pub mod report;
pub mod scan;
pub mod shard;
pub mod stats;
pub mod telemetry;
pub mod version;

pub use batch::{BatchCommit, WriteBatch};
pub use cluster::{Cluster, ClusterConfig};
pub use config::{DataPath, DbConfig, SwitchProtocol};
pub use context::{ComputeContext, MemNodeHandle};
pub use db::{Db, DbReader, Snapshot};
pub use dlsm_cache::{CacheConfig, CacheStatsSnapshot, ReadCache};
pub use report::{LevelStats, StatsReport};
pub use shard::ShardedDb;
pub use stats::{DbStats, DbStatsSnapshot};
pub use telemetry::{DbTelemetry, StallReason};

/// The read cache's counters as `(name, value)` telemetry rows, with the
/// `cache_` prefix every consumer (stats report, Prometheus exporter,
/// bench JSON, telemetry oracles) keys on. Counters merge additively
/// across shards; `cache_resident_bytes` / `cache_capacity_bytes` sum to
/// fleet totals.
pub fn named_cache_counters(cs: &dlsm_cache::CacheStatsSnapshot) -> Vec<(&'static str, u64)> {
    vec![
        ("cache_block_hits", cs.block_hits),
        ("cache_block_misses", cs.block_misses),
        ("cache_extent_hits", cs.extent_hits),
        ("cache_extent_misses", cs.extent_misses),
        ("cache_inserts", cs.inserts),
        ("cache_evictions", cs.evictions),
        ("cache_invalidations", cs.invalidations),
        ("cache_bytes_saved", cs.bytes_saved),
        ("cache_extent_promotions", cs.extent_promotions),
        ("cache_promoted_bytes", cs.promoted_bytes),
        ("cache_resident_bytes", cs.resident_bytes),
        ("cache_capacity_bytes", cs.capacity_bytes),
    ]
}

/// Errors surfaced by the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// RDMA-level failure.
    Rdma(String),
    /// Table format failure.
    Sst(String),
    /// Memory-node RPC failure.
    MemNode(String),
    /// The flush zone is exhausted (remote memory full).
    OutOfRemoteMemory {
        /// Bytes requested.
        requested: u64,
    },
    /// The database is shutting down.
    ShuttingDown,
    /// The caller passed an argument the engine cannot serve (e.g. a write
    /// wider than a MemTable's sequence range or larger than its arena).
    InvalidArgument(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Rdma(m) => write!(f, "rdma: {m}"),
            DbError::Sst(m) => write!(f, "sstable: {m}"),
            DbError::MemNode(m) => write!(f, "memory node: {m}"),
            DbError::OutOfRemoteMemory { requested } => {
                write!(f, "out of remote memory ({requested} bytes requested)")
            }
            DbError::ShuttingDown => write!(f, "database is shutting down"),
            DbError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<rdma_sim::RdmaError> for DbError {
    fn from(e: rdma_sim::RdmaError) -> Self {
        DbError::Rdma(e.to_string())
    }
}

impl From<dlsm_sstable::SstError> for DbError {
    fn from(e: dlsm_sstable::SstError) -> Self {
        DbError::Sst(e.to_string())
    }
}

impl From<dlsm_memnode::MemNodeError> for DbError {
    fn from(e: dlsm_memnode::MemNodeError) -> Self {
        DbError::MemNode(e.to_string())
    }
}

/// Result alias for database operations.
pub type Result<T> = std::result::Result<T, DbError>;
