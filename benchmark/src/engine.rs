//! The system under test, opened one fixed way for every workload, plus the paced
//! preload and the counter snapshot every window is measured against.
//! Everything here goes through public functions of the engine crates; the
//! full list is in README.md ("Engine surface").

use std::sync::Arc;
use std::time::Duration;

use dlsm::{
    CacheConfig, CacheStatsSnapshot, ComputeContext, Db, DbConfig, DbStatsSnapshot, MemNodeHandle,
};
use dlsm_memnode::{MemServer, MemServerConfig};
use rdma_sim::{Fabric, NetworkProfile, StatsSnapshot};

use crate::gen::{self, Rng, KEY_LEN};

const REGION_BYTES: usize = 4 << 30;
const FLUSH_ZONE_BYTES: u64 = 1 << 30;
pub const COMPACTION_WORKERS: usize = 2;

/// Writers stop at 12 L0 tables, not the default 36. With 36, one
/// stall-compact cycle of `fill` takes ~3 s on this host, so a 10 s window
/// holds three of them and throughput swings ±15 % with where the window
/// ends; with 12 a window holds a dozen. It also bounds how many tables one
/// L0 compaction merges, which matters because of the next constant.
const L0_STOP_TRIGGER: usize = 12;

/// The engine hangs forever when a near-data compaction's reply (it carries
/// every output record's index entry) outgrows the RPC buffer: the memory
/// node logs "compaction reply too large" and the requester is never woken.
/// The default 24 MiB is reached by a 36-table L0 backlog; 64 MiB keeps the
/// benchmark clear of it. The buffers are zero pages until written.
pub const RPC_BUF_BYTES: usize = 64 << 20;

/// Puts between forced flushes during preload: just under what one 8 MiB
/// MemTable holds, so the engine never switches tables on its own and every
/// preload of one seed flushes the same tables in the same order.
pub const PRELOAD_BATCH: usize = 16_384;

pub struct Engine {
    pub fabric: Arc<Fabric>,
    pub server: MemServer,
    pub db: Db,
}

/// All counters the benchmark reads, taken at one instant.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub db: DbStatsSnapshot,
    pub cache: CacheStatsSnapshot,
    pub fabric: StatsSnapshot,
    pub memnode_busy_nanos: u64,
    pub memnode_rpcs: u64,
    pub cpu_seconds: f64,
}

impl Engine {
    /// `Fabric(edr_100g)` + one memory node + one `Db`; `cache_bytes == 0`
    /// leaves the read cache off.
    pub fn open(cache_bytes: u64) -> Engine {
        let fabric = Fabric::new(NetworkProfile::edr_100g());
        let server = MemServer::start(
            &fabric,
            MemServerConfig {
                region_size: REGION_BYTES,
                flush_zone: FLUSH_ZONE_BYTES,
                compaction_workers: COMPACTION_WORKERS,
                dispatchers: 1,
            },
        );
        let ctx = ComputeContext::new(&fabric);
        let mem = MemNodeHandle::from_server(&server);
        let cache = if cache_bytes == 0 {
            CacheConfig::default()
        } else {
            CacheConfig::with_capacity(cache_bytes)
        };
        let cfg = DbConfig {
            cache,
            compaction_subtasks: 2,
            l0_stop_writes_trigger: Some(L0_STOP_TRIGGER),
            rpc_buf_size: RPC_BUF_BYTES,
            ..DbConfig::default()
        };
        let db = Db::open(ctx, mem, cfg).expect("open db");
        Engine { fabric, server, db }
    }

    /// Write keys `0..n` at version 1 in seeded-shuffle order from one
    /// thread, draining flush and compaction after every batch so that the
    /// resulting level shape depends on the seed alone, not on timing.
    pub fn preload(&self, n: u64, seed: u64) {
        let order = gen::shuffled(n, &mut Rng::stream(seed, u64::MAX));
        let mut key = [0u8; KEY_LEN];
        let mut value = gen::value_template();
        for batch in order.chunks(PRELOAD_BATCH) {
            for &index in batch {
                gen::write_key(&mut key, gen::present_slot(index as u64));
                gen::write_value(&mut value, index as u64, 1);
                self.db.put(&key, &value).expect("preload put");
            }
            self.quiesce();
        }
    }

    /// Flush the MemTable and wait until no flush or compaction is pending.
    pub fn quiesce(&self) {
        self.db.force_flush().expect("force_flush");
        self.db.wait_until_quiescent();
    }

    pub fn counters(&self) -> Counters {
        let server = self.server.stats();
        // ORDERING: relaxed — statistics reads.
        let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
        Counters {
            db: self.db.stats().snapshot(),
            cache: self.db.cache_stats().unwrap_or_default(),
            fabric: self.fabric.stats().snapshot(),
            memnode_busy_nanos: load(&server.busy_nanos),
            memnode_rpcs: load(&server.rpcs),
            cpu_seconds: process_cpu_seconds(),
        }
    }

    /// Bytes of remote memory holding tables right now.
    pub fn remote_bytes_in_use(&self) -> u64 {
        self.db.remote_flush_in_use() + self.server.compaction_zone_in_use()
    }

    pub fn shutdown(self) {
        self.db.shutdown();
        self.server.shutdown();
    }
}

impl Counters {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let c = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            db: self.db.delta(&earlier.db),
            cache: CacheStatsSnapshot {
                block_hits: c(self.cache.block_hits, earlier.cache.block_hits),
                block_misses: c(self.cache.block_misses, earlier.cache.block_misses),
                extent_hits: c(self.cache.extent_hits, earlier.cache.extent_hits),
                extent_misses: c(self.cache.extent_misses, earlier.cache.extent_misses),
                inserts: c(self.cache.inserts, earlier.cache.inserts),
                evictions: c(self.cache.evictions, earlier.cache.evictions),
                invalidations: c(self.cache.invalidations, earlier.cache.invalidations),
                bytes_saved: c(self.cache.bytes_saved, earlier.cache.bytes_saved),
                extent_promotions: c(
                    self.cache.extent_promotions,
                    earlier.cache.extent_promotions,
                ),
                promoted_bytes: c(self.cache.promoted_bytes, earlier.cache.promoted_bytes),
                // Gauges, not counters: keep the later reading.
                resident_bytes: self.cache.resident_bytes,
                capacity_bytes: self.cache.capacity_bytes,
            },
            fabric: self.fabric.delta(&earlier.fabric),
            memnode_busy_nanos: c(self.memnode_busy_nanos, earlier.memnode_busy_nanos),
            memnode_rpcs: c(self.memnode_rpcs, earlier.memnode_rpcs),
            cpu_seconds: self.cpu_seconds - earlier.cpu_seconds,
        }
    }
}

/// User + system CPU seconds of this process, from `/proc/self/stat`
/// (0 where that file does not exist).
fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, in clock ticks (100/s on Linux).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Sleep in small steps until `deadline`; the measuring thread holds no core.
pub fn sleep_until(deadline: std::time::Instant) {
    while let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) {
        std::thread::sleep(left.min(Duration::from_millis(20)));
    }
}
