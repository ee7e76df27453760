//! Database configuration.

use std::time::Duration;

use dlsm_cache::CacheConfig;
use dlsm_memnode::{RetryPolicy, TableFormat};

/// How the MemTable is switched when it fills (paper Sec. IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchProtocol {
    /// dLSM's approach: every MemTable owns a pre-assigned sequence-number
    /// range; a writer whose sequence number falls past the range triggers
    /// the switch (double-checked locking). Writers within range never take
    /// a lock on the write path.
    SeqRange,
    /// The straw-man the paper argues against: writers check the table's
    /// *size* after inserting and switch under double-checked locking.
    /// Kept for the ablation benchmark; it permits the
    /// newer-version-in-older-table anomaly the paper describes.
    NaiveDoubleChecked,
}

/// How SSTable bytes move between compute and memory nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPath {
    /// One-sided RDMA reads/writes (dLSM and the RocksDB-RDMA ports).
    OneSided,
    /// Two-sided RPC file reads/writes through the memory node's CPU — the
    /// Nova-LSM-on-tmpfs data path with its extra memory copy.
    TwoSidedRpc,
}

/// Tuning knobs for one [`crate::Db`] (one shard).
///
/// Defaults follow the paper's parameter table (Sec. XI-B) scaled down so
/// experiments run at laptop scale: the paper's 64 MB MemTable/SSTable with
/// 100 M keys becomes configurable, with the same *ratios* preserved.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// MemTable size limit in bytes (paper: 64 MB).
    pub memtable_size: usize,
    /// Sequence-number range width pre-assigned to each MemTable. The skip
    /// list arena is sized for `memtable_size`, so this should be roughly
    /// `memtable_size / expected_entry_bytes`; a size-triggered switch also
    /// rotates the table early if entries run large.
    pub seq_range_width: u64,
    /// Maximum immutable MemTables awaiting flush before writers stall
    /// (paper: 16).
    pub max_immutables: usize,
    /// Background flush threads (paper: 4).
    pub flush_threads: usize,
    /// Compaction sub-task fan-out (paper: 12 subcompaction workers).
    pub compaction_subtasks: usize,
    /// Number of L0 tables that triggers a compaction (RocksDB default: 4);
    /// up to twice this while writes are arriving
    /// ([`crate::compaction::l0_trigger`]).
    pub l0_compaction_trigger: usize,
    /// Number of L0 tables at which writers stall; `None` = bulkload mode
    /// (paper Fig. 7(b): `level0_stop_writes_trigger` = infinity).
    pub l0_stop_writes_trigger: Option<usize>,
    /// Target SSTable data size (paper: 64 MB).
    pub sstable_size: u64,
    /// Bloom-filter bits per key (paper: 10).
    pub bits_per_key: usize,
    /// Level size multiplier (L1 = `l1_max_bytes`, Ln = L1 * mult^(n-1)).
    pub level_multiplier: u64,
    /// Max bytes at L1 before compaction into L2.
    pub l1_max_bytes: u64,
    /// Number of levels below L0.
    pub max_levels: usize,
    /// Offload compaction to the memory node (near-data compaction). When
    /// false, the compute node pulls inputs over the network, merges
    /// locally, and writes outputs back — the Fig. 12 comparison bar.
    pub near_data_compaction: bool,
    /// SSTable format: dLSM proper uses [`TableFormat::ByteAddr`]; the
    /// dLSM-Block ablation (Fig. 13) uses `Block(8192)`.
    pub format: TableFormat,
    /// Flush-buffer size for the asynchronous flush pipeline (Sec. X-C).
    pub flush_buf_size: usize,
    /// Number of in-flight flush buffers before the flusher must recycle.
    pub flush_buf_count: usize,
    /// The most one scan fetch may ask for (paper: several MB). A ceiling,
    /// not a price: a scan fetches only the bytes its range covers, and
    /// without a bound ramps up to this from 16 KiB (DESIGN.md §5.11).
    pub scan_prefetch: usize,
    /// RPC reply/argument buffer size. It must hold a sub-compaction's reply:
    /// about 1 byte per input record plus 1.25 per output record (the merge
    /// trace and the bloom filters; a reply that does not fit fails the job).
    pub rpc_buf_size: usize,
    /// MemTable switch protocol (ablation knob).
    pub switch_protocol: SwitchProtocol,
    /// How table bytes cross the network.
    pub data_path: DataPath,
    /// Serialize the whole write path behind one mutex, emulating the
    /// single-writer queue of disk-era LSM implementations — the software
    /// overhead dLSM removes (used by the RocksDB-RDMA baselines and the
    /// Fig. 7(b) comparison).
    pub serialized_writes: bool,
    /// Compute-side read cache (blocks + hot extents, ghost-gated admission,
    /// version-aware invalidation — DESIGN.md §11). `capacity_bytes == 0`
    /// disables caching and reads behave exactly as before.
    pub cache: CacheConfig,
    /// Retry/backoff policy applied to every RPC client the database opens
    /// (flush, GC, read channels, near-data compaction). Timed-out calls
    /// are re-issued under the same request id; the memory node dedups.
    pub rpc_retry: RetryPolicy,
    /// How long the one-sided flush pipeline waits for a single WRITE
    /// completion before failing the flush (which frees the extent and
    /// lets the flush loop retry the whole MemTable). Keep short under
    /// fault injection so a dropped completion cannot stall a flush
    /// thread for long.
    pub flush_poll_timeout: Duration,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            memtable_size: 8 << 20,
            seq_range_width: 0, // derived in `normalized`
            max_immutables: 16,
            flush_threads: 4,
            compaction_subtasks: 12,
            l0_compaction_trigger: 4,
            l0_stop_writes_trigger: Some(36),
            sstable_size: 8 << 20,
            bits_per_key: 10,
            level_multiplier: 10,
            l1_max_bytes: 32 << 20,
            max_levels: 6,
            near_data_compaction: true,
            format: TableFormat::ByteAddr,
            flush_buf_size: 512 << 10,
            flush_buf_count: 8,
            scan_prefetch: 2 << 20,
            rpc_buf_size: 24 << 20,
            switch_protocol: SwitchProtocol::SeqRange,
            data_path: DataPath::OneSided,
            serialized_writes: false,
            cache: CacheConfig::default(),
            rpc_retry: RetryPolicy::default(),
            flush_poll_timeout: Duration::from_secs(10),
        }
    }
}

impl DbConfig {
    /// A tiny configuration for unit tests: small tables so flushes and
    /// compactions happen after a few hundred writes.
    pub fn small() -> DbConfig {
        DbConfig {
            memtable_size: 64 << 10,
            max_immutables: 4,
            flush_threads: 2,
            compaction_subtasks: 2,
            sstable_size: 64 << 10,
            l1_max_bytes: 256 << 10,
            flush_buf_size: 8 << 10,
            rpc_buf_size: 4 << 20,
            ..DbConfig::default()
        }
    }

    /// Fill in derived fields (currently `seq_range_width`) and sanity-check.
    pub fn normalized(mut self, expected_entry_bytes: usize) -> DbConfig {
        if self.seq_range_width == 0 {
            // A range roughly matching the MemTable capacity; the size
            // trigger rotates early when entries run large, and ranges this
            // wide mean the switch lock is touched once per table.
            let per_entry = expected_entry_bytes.max(16);
            self.seq_range_width = (self.memtable_size / per_entry).max(64) as u64;
        }
        assert!(self.max_levels >= 2, "need at least L0 and L1");
        assert!(self.flush_buf_size >= 4 << 10, "flush buffers must hold a record");
        self
    }

    /// Bytes to reserve in the skip-list arena for one MemTable: the size
    /// limit plus slack for node/link overhead so a size-triggered switch
    /// fires before the arena does.
    pub fn arena_capacity(&self) -> usize {
        self.memtable_size * 2 + (self.seq_range_width as usize) * 48 + (64 << 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper_ratios() {
        let c = DbConfig::default();
        assert_eq!(c.memtable_size as u64, c.sstable_size);
        assert_eq!(c.max_immutables, 16);
        assert_eq!(c.flush_threads, 4);
        assert_eq!(c.compaction_subtasks, 12);
        assert_eq!(c.l0_stop_writes_trigger, Some(36));
        assert_eq!(c.bits_per_key, 10);
        assert!(c.near_data_compaction);
    }

    #[test]
    fn normalized_derives_range_width() {
        let c = DbConfig::default().normalized(428);
        assert!(c.seq_range_width > 0);
        assert_eq!(c.seq_range_width, (c.memtable_size / 428) as u64);
        // Explicit width survives normalization.
        let c2 = DbConfig { seq_range_width: 1234, ..DbConfig::default() }.normalized(428);
        assert_eq!(c2.seq_range_width, 1234);
    }

    #[test]
    fn arena_capacity_exceeds_memtable_size() {
        let c = DbConfig::small().normalized(64);
        assert!(c.arena_capacity() > c.memtable_size);
    }
}
