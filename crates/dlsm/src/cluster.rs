//! Multi-compute / multi-memory deployment (paper Sec. IX, Fig. 5).
//!
//! A [`Cluster`] runs `c` compute nodes × `m` memory nodes on one fabric.
//! Each compute node hosts λ range shards; the `c·λ` shards are assigned to
//! memory nodes round-robin so each shard's data stays within a single
//! memory node (keeping near-data compaction local) while load spreads
//! across the pool. Compute nodes sharing a memory node get disjoint
//! windows of its flush zone, so flush allocation stays coordination-free.

use std::sync::Arc;

use dlsm_memnode::{MemServer, MemServerConfig};
use rdma_sim::Fabric;

use crate::config::DbConfig;
use crate::context::{ComputeContext, MemNodeHandle, RemoteRegion};
use crate::shard::ShardedDb;
use crate::Result;

/// Cluster topology and per-node parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Compute nodes.
    pub compute_nodes: usize,
    /// Memory nodes.
    pub memory_nodes: usize,
    /// Range shards per compute node (λ).
    pub lambda: usize,
    /// Memory-node parameters (region size, flush zone, worker cores).
    pub mem_cfg: MemServerConfig,
    /// Per-shard database parameters.
    pub db_cfg: DbConfig,
}

/// A running cluster: the memory-node servers plus one [`ShardedDb`] per
/// compute node.
pub struct Cluster {
    servers: Vec<MemServer>,
    computes: Vec<ClusterCompute>,
}

/// One compute node's sharded database.
pub struct ClusterCompute {
    /// The compute node's context.
    pub ctx: Arc<ComputeContext>,
    /// The λ-sharded database hosted on it.
    pub db: ShardedDb,
}

impl Cluster {
    /// Start `memory_nodes` servers and `compute_nodes` sharded databases on
    /// `fabric`, with round-robin shard placement.
    pub fn start(fabric: &Arc<Fabric>, cfg: ClusterConfig) -> Result<Cluster> {
        // PANIC-SAFE: start-up argument check, before any server or thread
        // exists; a cluster without nodes is a caller bug.
        assert!(cfg.compute_nodes >= 1 && cfg.memory_nodes >= 1);
        let servers: Vec<MemServer> = (0..cfg.memory_nodes)
            .map(|_| MemServer::start(fabric, cfg.mem_cfg.clone()))
            .collect();

        // Round-robin placement of the c·λ shards over memory nodes
        // (Fig. 5): shard (c, s) -> memory node (c·λ + s) mod m.
        // First pass: count shards per memory node to size flush windows.
        let m = cfg.memory_nodes;
        let mut shards_per_node = vec![0usize; m];
        for c in 0..cfg.compute_nodes {
            for s in 0..cfg.lambda {
                shards_per_node[(c * cfg.lambda + s) % m] += 1;
            }
        }
        // Window cursors per memory node.
        let mut cursor = vec![0u64; m];

        let mut computes = Vec::with_capacity(cfg.compute_nodes);
        for c in 0..cfg.compute_nodes {
            let ctx = ComputeContext::new(fabric);
            let mut handles: Vec<Arc<MemNodeHandle>> = Vec::with_capacity(cfg.lambda);
            for s in 0..cfg.lambda {
                let node = (c * cfg.lambda + s) % m;
                let server = &servers[node];
                let window = server.flush_zone() / shards_per_node[node] as u64;
                let lo = cursor[node];
                let hi = (lo + window).min(server.flush_zone());
                cursor[node] = hi;
                handles.push(MemNodeHandle::with_window(
                    RemoteRegion::of(server.region()),
                    lo,
                    hi,
                ));
            }
            let db = ShardedDb::open_with_handles(Arc::clone(&ctx), handles, cfg.db_cfg.clone())?;
            computes.push(ClusterCompute { ctx, db });
        }
        Ok(Cluster { servers, computes })
    }

    /// The per-compute-node databases.
    pub fn computes(&self) -> &[ClusterCompute] {
        &self.computes
    }

    /// The memory-node servers.
    pub fn servers(&self) -> &[MemServer] {
        &self.servers
    }

    /// Wait until every shard on every compute node is quiescent.
    pub fn wait_until_quiescent(&self) {
        for c in &self.computes {
            c.db.wait_until_quiescent();
        }
    }

    /// Shut down all databases, then all servers.
    pub fn shutdown(self) {
        for c in &self.computes {
            c.db.shutdown();
        }
        for s in self.servers {
            s.shutdown();
        }
    }
}
