//! Scenario construction: fabric + memory node(s) + engine, with the
//! paper's parameter *ratios* (Sec. XI-B) at laptop scale.

use std::sync::Arc;

use dlsm::{ComputeContext, DbConfig, MemNodeHandle};
use dlsm_baselines::{
    build_dlsm, build_dlsm_block, build_memory_rocksdb, build_nova_lsm, build_rocksdb_rdma,
    Engine, EngineDeps, Sherman,
};
use dlsm_memnode::{MemServer, MemServerConfig};
use rdma_sim::{Fabric, NetworkProfile};

use crate::workload::WorkloadSpec;

/// Which system to instantiate (one per bar/line in the figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// dLSM with λ shards.
    Dlsm {
        /// Shard count.
        lambda: usize,
    },
    /// dLSM with block SSTables (Fig. 13).
    DlsmBlock,
    /// RocksDB-RDMA with the given block size.
    RocksDbRdma {
        /// Block size in bytes.
        block: u32,
    },
    /// Memory-RocksDB-RDMA (KV-sized blocks).
    MemoryRocksDb,
    /// Nova-LSM-style (two-sided tmpfs data path).
    NovaLsm,
    /// Sherman-style B+-tree.
    Sherman,
    /// dLSM with compaction forced onto the compute node (Fig. 12 bar).
    DlsmComputeCompaction,
}

impl SystemKind {
    /// The full line-up of Fig. 7/8/9.
    pub fn lineup() -> Vec<SystemKind> {
        vec![
            SystemKind::Dlsm { lambda: 1 },
            SystemKind::RocksDbRdma { block: 8192 },
            SystemKind::RocksDbRdma { block: 2048 },
            SystemKind::MemoryRocksDb,
            SystemKind::NovaLsm,
            SystemKind::Sherman,
        ]
    }
}

/// One live benchmark scenario: fabric, server(s), engine.
pub struct Scenario {
    /// The fabric (for traffic stats).
    pub fabric: Arc<Fabric>,
    /// Memory-node servers.
    pub servers: Vec<MemServer>,
    /// The engine under test.
    pub engine: Box<dyn Engine>,
}

impl Scenario {
    /// Tear everything down.
    pub fn shutdown(self) {
        self.engine.shutdown();
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// Paper-ratio database configuration scaled to the workload: MemTable =
/// SSTable = clamp(data/24, 2–64 MiB), L1 = 4 SSTables, multiplier 10,
/// everything else straight from Sec. XI-B.
pub fn scaled_db_config(spec: &WorkloadSpec) -> DbConfig {
    let table = (spec.data_bytes() / 24).clamp(2 << 20, 64 << 20);
    // The paper runs 12 sub-compaction workers on a 24-core memory node. A
    // sub-task re-scans the inputs up to its range, so fan-out only pays off
    // with real cores to run on; clamp to the host's parallelism.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    DbConfig {
        memtable_size: table as usize,
        sstable_size: table,
        l1_max_bytes: table * 4,
        max_immutables: 16,
        flush_threads: 4,
        compaction_subtasks: 12.min(host_cores),
        l0_compaction_trigger: 4,
        l0_stop_writes_trigger: Some(36),
        // Compute-side read cache: ON by default for dLSM engines, sized so
        // the extent pool can hold the *live* remote data (logical data
        // plus transient write amplification) within a laptop-plausible
        // local-DRAM budget — a pool smaller than the working set serves
        // only the share of the reads its images hold. The RocksDB/Nova
        // baseline builders zero this — the cache is part of the dLSM
        // design under test, not of the comparison systems.
        cache: dlsm::CacheConfig {
            capacity_bytes: (spec.data_bytes() * 2).clamp(32 << 20, 1 << 30),
            extent_percent: 75,
            ..dlsm::CacheConfig::default()
        },
        ..DbConfig::default()
    }
}

/// Memory-node sizing for `bytes_on_node` of logical data (amplification
/// headroom included) and the given worker-core budget.
pub fn server_config(bytes_on_node: u64, workers: usize) -> MemServerConfig {
    // Worst case at the paper's ratios: a full 36-table L0 backlog (1.5x
    // the data at the 1/24 MemTable ratio) plus every deeper level (~2x the
    // data with transient write amplification) — and for compute-side-
    // compaction engines all of that lives in the flush zone. Region = 9x
    // data, flush zone 2/3 of it, compaction zone the rest.
    let region = (bytes_on_node * 9).max(256 << 20).next_multiple_of(1 << 20) as usize;
    MemServerConfig {
        region_size: region,
        flush_zone: region as u64 * 2 / 3,
        compaction_workers: workers,
        dispatchers: 1,
    }
}

/// Remote-memory headroom multiplier (≥ 1) for a set of workload phases.
/// Delete churn pins tombstones plus the dead versions they shadow in the
/// flush zone until compaction reclaims them, and insert/update-heavy mixes
/// accumulate overwritten versions the same way — both make the steady-state
/// sizing in [`server_config`] too tight.
pub fn workload_headroom(cfgs: &[crate::workload::WorkloadCfg]) -> u64 {
    let churny = |c: &crate::workload::WorkloadCfg| {
        c.mix.has_deletes() || (c.mix.insert + c.mix.update + c.mix.rmw) >= 40
    };
    if cfgs.iter().any(churny) {
        2
    } else {
        1
    }
}

/// Build a single-compute / single-memory-node scenario for `kind`.
pub fn build_scenario(
    kind: SystemKind,
    spec: &WorkloadSpec,
    profile: NetworkProfile,
    remote_workers: usize,
) -> Scenario {
    build_scenario_sized(kind, spec, profile, remote_workers, 1, |c| c)
}

/// [`build_scenario`] with a configuration hook (e.g. bulkload mode).
pub fn build_scenario_with(
    kind: SystemKind,
    spec: &WorkloadSpec,
    profile: NetworkProfile,
    remote_workers: usize,
    mutate: impl Fn(DbConfig) -> DbConfig,
) -> Scenario {
    build_scenario_sized(kind, spec, profile, remote_workers, 1, mutate)
}

/// [`build_scenario_with`] plus a remote-memory headroom multiplier (see
/// [`workload_headroom`]).
pub fn build_scenario_sized(
    kind: SystemKind,
    spec: &WorkloadSpec,
    profile: NetworkProfile,
    remote_workers: usize,
    headroom: u64,
    mutate: impl Fn(DbConfig) -> DbConfig,
) -> Scenario {
    let fabric = Fabric::new(profile);
    let server = MemServer::start(
        &fabric,
        server_config(spec.data_bytes() * headroom.max(1), remote_workers),
    );
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    let deps = EngineDeps { ctx: Arc::clone(&ctx), memnodes: vec![Arc::clone(&mem)] };
    let cfg = mutate(scaled_db_config(spec));
    let engine: Box<dyn Engine> = match kind {
        SystemKind::Dlsm { lambda } => Box::new(build_dlsm(&deps, cfg, lambda).expect("dlsm")),
        SystemKind::DlsmBlock => Box::new(build_dlsm_block(&deps, cfg, 8192).expect("dlsm-block")),
        SystemKind::RocksDbRdma { block } => {
            Box::new(build_rocksdb_rdma(&deps, cfg, block).expect("rocksdb-rdma"))
        }
        SystemKind::MemoryRocksDb => {
            Box::new(build_memory_rocksdb(&deps, cfg).expect("memory-rocksdb"))
        }
        SystemKind::NovaLsm => {
            // The paper configures Nova-LSM with 64 subranges; scale to the
            // dataset so tiny runs do not drown in per-shard overhead.
            let subranges = if spec.num_kv >= 100_000 { 64 } else { 8 };
            Box::new(build_nova_lsm(&deps, cfg, subranges).expect("nova"))
        }
        SystemKind::Sherman => Box::new(Sherman::new(ctx, mem).expect("sherman")),
        SystemKind::DlsmComputeCompaction => {
            let cfg = DbConfig { near_data_compaction: false, ..cfg };
            let db = dlsm::ShardedDb::open(deps.ctx.clone(), &deps.memnodes, cfg, 1)
                .expect("dlsm-compute-compaction");
            Box::new(dlsm_baselines::DlsmEngine::new("dLSM (compute compaction)", db))
        }
    };
    Scenario { fabric, servers: vec![server], engine }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_config_tracks_data_size() {
        let small = scaled_db_config(&WorkloadSpec { num_kv: 10_000, ..Default::default() });
        assert_eq!(small.memtable_size, 2 << 20);
        let big = scaled_db_config(&WorkloadSpec { num_kv: 10_000_000, ..Default::default() });
        assert!(big.memtable_size > small.memtable_size);
        assert_eq!(big.sstable_size as usize, big.memtable_size);
    }

    #[test]
    fn headroom_doubles_for_churny_mixes() {
        let steady = crate::workload::preset("ycsb-c").unwrap();
        let churn = crate::workload::preset("delete-churn").unwrap();
        assert_eq!(workload_headroom(std::slice::from_ref(&steady)), 1);
        assert_eq!(workload_headroom(&[steady, churn]), 2);
        assert_eq!(workload_headroom(&[]), 1);
    }

    #[test]
    fn scenario_builds_and_works() {
        let spec = WorkloadSpec { num_kv: 2_000, value_size: 64, ..Default::default() };
        let sc = build_scenario(
            SystemKind::Dlsm { lambda: 1 },
            &spec,
            NetworkProfile::instant(),
            2,
        );
        sc.engine.put(b"k", b"v").unwrap();
        assert_eq!(sc.engine.reader().get(b"k").unwrap(), Some(b"v".to_vec()));
        sc.shutdown();
    }
}
