//! Engine presets: dLSM and the four LSM baselines as configurations.
//!
//! The architectural knobs per system (everything else is held equal, as the
//! paper holds SSTable sizes, MemTable sizes, bloom budgets etc. equal):
//!
//! | system              | format       | compaction   | data path | writes      | λ  |
//! |---------------------|--------------|--------------|-----------|-------------|----|
//! | dLSM                | byte-addr    | near-data    | one-sided | seq-range   | cfg|
//! | dLSM-Block          | block 8 KB   | near-data    | one-sided | seq-range   | cfg|
//! | RocksDB-RDMA (8 KB) | block 8 KB   | compute-side | one-sided | serialized  | 1  |
//! | RocksDB-RDMA (2 KB) | block 2 KB   | compute-side | one-sided | serialized  | 1  |
//! | Memory-RocksDB-RDMA | block = KV   | compute-side | one-sided | serialized  | 1  |
//! | Nova-LSM            | block 8 KB   | compute-side | two-sided | naive switch| 64 |

use std::sync::Arc;

use dlsm::{ComputeContext, DataPath, DbConfig, MemNodeHandle, ShardedDb, SwitchProtocol};
use dlsm_memnode::TableFormat;

use crate::engine::{Engine, EngineError, EngineReader, Result};

/// What every engine needs: a compute context and the memory node(s).
#[derive(Clone)]
pub struct EngineDeps {
    /// This compute node.
    pub ctx: Arc<ComputeContext>,
    /// Memory nodes (shards are placed round-robin).
    pub memnodes: Vec<Arc<MemNodeHandle>>,
}

/// Any LSM variant: a named [`ShardedDb`].
pub struct DlsmEngine {
    name: String,
    db: ShardedDb,
}

impl DlsmEngine {
    /// Wrap an already-open database.
    pub fn new(name: impl Into<String>, db: ShardedDb) -> DlsmEngine {
        DlsmEngine { name: name.into(), db }
    }

    /// The underlying database.
    pub fn db(&self) -> &ShardedDb {
        &self.db
    }
}

impl Engine for DlsmEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.db.put(key, value)?;
        Ok(())
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.db.delete(key)?;
        Ok(())
    }

    fn reader(&self) -> Box<dyn EngineReader + '_> {
        Box::new(LsmReader { inner: self.db.reader() })
    }

    fn wait_until_quiescent(&self) {
        self.db.wait_until_quiescent();
    }

    fn shutdown(&self) {
        self.db.shutdown();
    }

    fn remote_space_used(&self) -> u64 {
        self.db.shards().iter().map(|s| s.remote_flush_in_use()).sum()
    }

    fn telemetry(&self) -> Option<dlsm_telemetry::TelemetrySnapshot> {
        Some(self.db.telemetry_snapshot())
    }

    fn register_metrics(&self, reg: &dlsm_metrics::MetricsRegistry) {
        self.db.register_metrics(reg);
    }

    fn stats_report(&self) -> Option<String> {
        Some(self.db.stats_report())
    }
}

struct LsmReader {
    inner: dlsm::shard::ShardedReader,
}

impl EngineReader for LsmReader {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.get(key).map_err(EngineError::from)
    }

    fn scan_all(&mut self) -> Result<u64> {
        let mut n = 0;
        for item in self.inner.scan(b"")? {
            item?;
            n += 1;
        }
        Ok(n)
    }

    fn scan_from(
        &mut self,
        start: &[u8],
        limit: u64,
        visit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<u64> {
        let mut n = 0;
        // `take` stops at the limit without pulling (and maybe fetching
        // for) an entry past it.
        for item in self.inner.scan(start)?.take(usize::try_from(limit).unwrap_or(usize::MAX)) {
            let (k, v) = item?;
            visit(&k, &v);
            n += 1;
        }
        Ok(n)
    }
}

fn open(deps: &EngineDeps, cfg: DbConfig, lambda: usize, name: &str) -> Result<DlsmEngine> {
    let db = ShardedDb::open(Arc::clone(&deps.ctx), &deps.memnodes, cfg, lambda)?;
    Ok(DlsmEngine::new(name, db))
}

/// Split a per-tree L0 budget across λ shards: with λ independent trees the
/// *total* L0 backlog (and the remote memory pinned by it) should stay in
/// the same ballpark as the unsharded configuration.
fn shard_trigger(total: usize, lambda: usize) -> usize {
    (total / lambda.max(1)).max(6)
}

/// Split the per-tree background thread budget across λ shards (the paper's
/// thread counts are per database, not per shard — 64 subranges must not
/// mean 256 flush threads).
fn shard_threads(total: usize, lambda: usize) -> usize {
    (total / lambda.max(1)).max(1)
}

/// dLSM proper (paper configuration, λ shards).
pub fn build_dlsm(deps: &EngineDeps, base: DbConfig, lambda: usize) -> Result<DlsmEngine> {
    let cfg = DbConfig {
        format: TableFormat::ByteAddr,
        near_data_compaction: true,
        data_path: DataPath::OneSided,
        switch_protocol: SwitchProtocol::SeqRange,
        serialized_writes: false,
        l0_stop_writes_trigger: base
            .l0_stop_writes_trigger
            .map(|t| shard_trigger(t, lambda)),
        flush_threads: shard_threads(base.flush_threads, lambda),
        ..base
    };
    let name = if lambda > 1 { format!("dLSM-{lambda}") } else { "dLSM".into() };
    open(deps, cfg, lambda, &name)
}

/// dLSM with block SSTables (the Fig. 13 ablation).
pub fn build_dlsm_block(deps: &EngineDeps, base: DbConfig, block_size: u32) -> Result<DlsmEngine> {
    let cfg = DbConfig {
        format: TableFormat::Block(block_size),
        near_data_compaction: true,
        data_path: DataPath::OneSided,
        switch_protocol: SwitchProtocol::SeqRange,
        serialized_writes: false,
        ..base
    };
    open(deps, cfg, 1, "dLSM-Block")
}

/// RocksDB-RDMA: block SSTables over one-sided RDMA, single-writer-queue
/// software overhead, compute-side compaction.
pub fn build_rocksdb_rdma(deps: &EngineDeps, base: DbConfig, block_size: u32) -> Result<DlsmEngine> {
    let cfg = DbConfig {
        format: TableFormat::Block(block_size),
        near_data_compaction: false,
        data_path: DataPath::OneSided,
        switch_protocol: SwitchProtocol::NaiveDoubleChecked,
        serialized_writes: true,
        // Baselines run without the dLSM compute-side read cache.
        cache: dlsm::CacheConfig::default(),
        ..base
    };
    let name = format!("RocksDB-RDMA ({} KB)", block_size >> 10);
    open(deps, cfg, 1, &name)
}

/// Memory-RocksDB-RDMA: one key-value pair per block, indexes cached on the
/// compute node, prefetching enabled.
pub fn build_memory_rocksdb(deps: &EngineDeps, base: DbConfig) -> Result<DlsmEngine> {
    let cfg = DbConfig {
        format: TableFormat::Block(0),
        near_data_compaction: false,
        data_path: DataPath::OneSided,
        switch_protocol: SwitchProtocol::NaiveDoubleChecked,
        serialized_writes: true,
        // Baselines run without the dLSM compute-side read cache.
        cache: dlsm::CacheConfig::default(),
        ..base
    };
    open(deps, cfg, 1, "Memory-RocksDB-RDMA")
}

/// Nova-LSM-style: subranged LSM whose data path is the two-sided tmpfs RPC
/// (request → server memcpy → reply), compute-side compaction.
pub fn build_nova_lsm(deps: &EngineDeps, base: DbConfig, subranges: usize) -> Result<DlsmEngine> {
    let cfg = DbConfig {
        format: TableFormat::Block(8192),
        near_data_compaction: false,
        data_path: DataPath::TwoSidedRpc,
        switch_protocol: SwitchProtocol::NaiveDoubleChecked,
        serialized_writes: false,
        // Baselines run without the dLSM compute-side read cache.
        cache: dlsm::CacheConfig::default(),
        l0_stop_writes_trigger: base
            .l0_stop_writes_trigger
            .map(|t| shard_trigger(t, subranges)),
        flush_threads: shard_threads(base.flush_threads, subranges),
        ..base
    };
    open(deps, cfg, subranges, "Nova-LSM")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsm_memnode::{MemServer, MemServerConfig};
    use rdma_sim::{Fabric, NetworkProfile};

    fn deps(fabric: &Arc<Fabric>, server: &MemServer) -> EngineDeps {
        EngineDeps {
            ctx: ComputeContext::new(fabric),
            memnodes: vec![MemNodeHandle::from_server(server)],
        }
    }

    fn server(fabric: &Arc<Fabric>) -> MemServer {
        MemServer::start(
            fabric,
            MemServerConfig {
                region_size: 96 << 20,
                flush_zone: 40 << 20,
                compaction_workers: 2,
                dispatchers: 1,
            },
        )
    }

    fn exercise(engine: &dyn Engine, n: u64) {
        for i in 0..n {
            let mut k = i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec();
            k.extend_from_slice(format!("-{i:06}").as_bytes());
            engine.put(&k, format!("v{i}").as_bytes()).unwrap();
        }
        engine.wait_until_quiescent();
        let mut r = engine.reader();
        for i in (0..n).step_by(59) {
            let mut k = i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec();
            k.extend_from_slice(format!("-{i:06}").as_bytes());
            assert_eq!(
                r.get(&k).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "{}: key {i} lost",
                engine.name()
            );
        }
        assert_eq!(r.scan_all().unwrap(), n, "{}: scan count", engine.name());
    }

    #[test]
    fn every_lsm_preset_works() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let server = server(&fabric);
        let d = deps(&fabric, &server);
        let base = DbConfig::small();
        let engines: Vec<DlsmEngine> = vec![
            build_dlsm(&d, base.clone(), 1).unwrap(),
            build_dlsm(&d, base.clone(), 2).unwrap(),
            build_dlsm_block(&d, base.clone(), 2048).unwrap(),
            build_rocksdb_rdma(&d, base.clone(), 8192).unwrap(),
            build_rocksdb_rdma(&d, base.clone(), 2048).unwrap(),
            build_memory_rocksdb(&d, base.clone()).unwrap(),
            build_nova_lsm(&d, base.clone(), 4).unwrap(),
        ];
        for e in &engines {
            exercise(e, 1_200);
            let tel = e.telemetry().expect("LSM engines expose telemetry");
            assert_eq!(tel.counter("puts"), 1_200, "{}", e.name());
            assert_eq!(tel.op(dlsm_telemetry::OpClass::Put).count(), 1_200, "{}", e.name());
            e.shutdown();
        }
        server.shutdown();
    }
}
