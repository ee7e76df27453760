//! λ-way range sharding (paper Sec. VII).
//!
//! The key space is divided into λ static ranges; each shard is an
//! independent [`Db`] (own MemTables, own LSM-tree, own L0). Sharding adds
//! parallelism to L0 compaction and shrinks the number of overlapping L0
//! tables a reader must probe — the mixed-workload fix evaluated in the
//! paper's Fig. 10.
//!
//! Routing interprets the first 8 bytes of the user key as a big-endian
//! fraction of the key space, matching the uniform fixed-width keys of
//! db_bench-style workloads; keys shorter than 8 bytes are zero-padded.

use std::sync::Arc;

use dlsm_sstable::key::SeqNo;

use crate::config::DbConfig;
use crate::context::{ComputeContext, MemNodeHandle};
use crate::db::{Db, DbReader};
use crate::Result;

/// A λ-sharded dLSM: λ independent LSM-trees over one (or more) memory
/// nodes.
pub struct ShardedDb {
    shards: Vec<Db>,
}

/// Route `key` to one of `n` shards by its leading 8 bytes.
pub fn shard_of(key: &[u8], n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let mut prefix = [0u8; 8];
    let take = key.len().min(8);
    prefix[..take].copy_from_slice(&key[..take]);
    let x = u64::from_be_bytes(prefix);
    // Map the 64-bit fraction onto [0, n).
    ((x as u128 * n as u128) >> 64) as usize
}

/// Divide the read-cache budget across λ shards: `cfg.cache.capacity_bytes`
/// is the *node-wide* budget, and each per-shard `Db` owns its own cache, so
/// the total stays what the caller configured.
fn split_cache_budget(mut cfg: DbConfig, lambda: usize) -> DbConfig {
    if cfg.cache.enabled() && lambda > 1 {
        cfg.cache.capacity_bytes = (cfg.cache.capacity_bytes / lambda as u64).max(1 << 20);
        cfg.cache.ghost_entries = (cfg.cache.ghost_entries / lambda).max(1024);
    }
    cfg
}

impl ShardedDb {
    /// Open λ shards on one compute node against the given memory nodes
    /// (shard *i* uses `memnodes[i % memnodes.len()]` — round-robin
    /// placement, Sec. IX).
    pub fn open(
        ctx: Arc<ComputeContext>,
        memnodes: &[Arc<MemNodeHandle>],
        cfg: DbConfig,
        lambda: usize,
    ) -> Result<ShardedDb> {
        // PANIC-SAFE: open-time argument check, before any shard exists.
        assert!(!memnodes.is_empty(), "need at least one memory node");
        let cfg = split_cache_budget(cfg, lambda.max(1));
        let mut shards = Vec::with_capacity(lambda.max(1));
        for i in 0..lambda.max(1) {
            let mem = Arc::clone(&memnodes[i % memnodes.len()]);
            shards.push(Db::open(Arc::clone(&ctx), mem, cfg.clone())?);
        }
        Ok(ShardedDb { shards })
    }

    /// Open shards with an explicit memory-node handle per shard (used by
    /// [`crate::Cluster`], where each shard gets its own flush window).
    pub fn open_with_handles(
        ctx: Arc<ComputeContext>,
        handles: Vec<Arc<MemNodeHandle>>,
        cfg: DbConfig,
    ) -> Result<ShardedDb> {
        // PANIC-SAFE: open-time argument check, before any shard exists.
        assert!(!handles.is_empty(), "need at least one shard handle");
        let cfg = split_cache_budget(cfg, handles.len());
        let mut shards = Vec::with_capacity(handles.len());
        for mem in handles {
            shards.push(Db::open(Arc::clone(&ctx), mem, cfg.clone())?);
        }
        Ok(ShardedDb { shards })
    }

    /// Number of shards (λ).
    pub fn lambda(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `key`.
    pub fn shard_for(&self, key: &[u8]) -> &Db {
        &self.shards[shard_of(key, self.shards.len())]
    }

    /// All shards.
    pub fn shards(&self) -> &[Db] {
        &self.shards
    }

    /// Insert or overwrite `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<SeqNo> {
        let _sp = dlsm_trace::span(dlsm_trace::Category::Db, "shard_put");
        self.shard_for(key).put(key, value)
    }

    /// Delete `key`.
    pub fn delete(&self, key: &[u8]) -> Result<SeqNo> {
        self.shard_for(key).delete(key)
    }

    /// A read handle holding one reader per shard. Fails if any shard's
    /// fabric connection is refused (see [`Db::try_reader`]).
    pub fn try_reader(&self) -> Result<ShardedReader> {
        Ok(ShardedReader {
            readers: self.shards.iter().map(Db::try_reader).collect::<Result<_>>()?,
            lambda: self.shards.len(),
        })
    }

    /// Infallible convenience wrapper over [`ShardedDb::try_reader`].
    pub fn reader(&self) -> ShardedReader {
        // PANIC-SAFE: convenience API mirroring Db::reader; data-path code
        // uses try_reader().
        self.try_reader().expect("sharded reader channels")
    }

    /// Merged telemetry across all shards: histograms merge pointwise,
    /// counters add. RDMA verb traffic is attached by the caller from the
    /// fabric (shards share it; see [`crate::telemetry::verb_traffic`]).
    pub fn telemetry_snapshot(&self) -> dlsm_telemetry::TelemetrySnapshot {
        let mut merged = dlsm_telemetry::TelemetrySnapshot::new();
        for s in &self.shards {
            merged.merge(&s.telemetry_snapshot());
        }
        merged
    }

    /// Merged [`crate::DbStatsSnapshot`] across all shards.
    pub fn stats_snapshot(&self) -> crate::stats::DbStatsSnapshot {
        let mut merged = crate::stats::DbStatsSnapshot::default();
        for s in &self.shards {
            merged.merge(&s.stats().snapshot());
        }
        merged
    }

    /// Wait for every shard to become quiescent.
    pub fn wait_until_quiescent(&self) {
        for s in &self.shards {
            s.wait_until_quiescent();
        }
    }

    /// Shut down every shard.
    pub fn shutdown(&self) {
        for s in &self.shards {
            s.shutdown();
        }
    }
}

/// Per-thread read handle over all shards.
pub struct ShardedReader {
    readers: Vec<DbReader>,
    lambda: usize,
}

impl ShardedReader {
    /// Point lookup, routed to the owning shard.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let i = shard_of(key, self.lambda);
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Db, "shard_get", i as u64);
        self.readers[i].get(key)
    }

    /// Scan from `start` across all shards in key order.
    ///
    /// Shards own contiguous key ranges, so scanning shard `i` to exhaustion
    /// before opening shard `i + 1` preserves global order.
    pub fn scan(&mut self, start: &[u8]) -> Result<ShardedScan<'_>> {
        self.scan_range(start, &[])
    }

    /// Bounded scan: user keys in `[start, end)` (empty `end` = unbounded),
    /// each shard fetching only what the range covers of it.
    pub fn scan_range(&mut self, start: &[u8], end: &[u8]) -> Result<ShardedScan<'_>> {
        let shard = shard_of(start, self.lambda);
        let last = if end.is_empty() { self.lambda - 1 } else { shard_of(end, self.lambda) };
        let cur = Some(self.readers[shard].scan_range(start, end)?);
        Ok(ShardedScan { readers: &mut self.readers, shard, last, end: end.to_vec(), cur })
    }
}

/// Cross-shard scan: drains shards in range order.
pub struct ShardedScan<'r> {
    readers: &'r mut Vec<DbReader>,
    shard: usize,
    /// The last shard the range reaches, and its bound.
    last: usize,
    end: Vec<u8>,
    cur: Option<crate::scan::DbScan>,
}

impl<'r> Iterator for ShardedScan<'r> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(scan) = &mut self.cur {
                if let Some(item) = scan.next() {
                    return Some(item);
                }
            }
            self.shard += 1;
            if self.shard > self.last {
                return None;
            }
            match self.readers[self.shard].scan_range(b"", &self.end) {
                Ok(s) => self.cur = Some(s),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_balanced_and_stable() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for i in 0..8000u64 {
            // Uniform fixed-width binary keys, like the benchmark workload:
            // an 8-byte big-endian prefix followed by padding.
            let mut key = i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec();
            key.extend_from_slice(b"-pad-pad-pad");
            let s = shard_of(&key, n);
            assert_eq!(s, shard_of(&key, n), "stable");
            counts[s] += 1;
        }
        for &c in &counts {
            assert!(c > 8000 / n / 2, "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn shard_routing_is_range_ordered() {
        // Larger keys route to equal-or-larger shards (range partitioning).
        let n = 4;
        let keys: Vec<Vec<u8>> = [0u64 << 62, 1 << 62, 2 << 62, 3 << 62]
            .iter()
            .map(|v| v.to_be_bytes().to_vec())
            .collect();
        let shards: Vec<usize> = keys.iter().map(|k| shard_of(k, n)).collect();
        let mut sorted = shards.clone();
        sorted.sort_unstable();
        assert_eq!(shards, sorted);
        assert_eq!(shard_of(b"", 4), 0);
        assert_eq!(shard_of(b"\xff\xff\xff\xff\xff\xff\xff\xff", 4), 3);
    }

    #[test]
    fn single_shard_short_circuits() {
        assert_eq!(shard_of(b"anything", 1), 0);
        assert_eq!(shard_of(b"anything", 0), 0);
    }
}
