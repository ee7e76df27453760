//! Live gauge collectors for [`Db`] and [`ShardedDb`] (DESIGN.md §8b).
//!
//! Each shard registers one closure with a
//! [`dlsm_metrics::MetricsRegistry`]; every `gather()` renders one fresh
//! [`crate::StatsReport`] — MemTable occupancy and sequence-range
//! headroom, flush-ring depth, per-level shape and compaction scores,
//! write-stall fractions, live remote extents split by GC origin,
//! flush-zone allocator utilization, GC backlog and cache occupancy — as
//! gauges, alongside every [`crate::DbStats`] counter and telemetry
//! histogram. The collector reads no live state of its own, so the
//! report's sampling-consistency invariant (`crate::report`) holds for
//! every scrape.

use std::sync::{Arc, Weak};

use dlsm_metrics::{MetricsRegistry, MetricsServer, Sample};

use crate::db::{Db, Shared};
use crate::report::ORIGIN_NAMES;
use crate::shard::ShardedDb;

impl Db {
    /// Register this database's live-state collector with `reg` (no
    /// `shard` label; see [`ShardedDb::register_metrics`] for the sharded
    /// form). The collector holds only a weak reference — dropping the
    /// `Db` turns it into a no-op rather than keeping state alive.
    pub fn register_metrics(&self, reg: &MetricsRegistry) {
        register_shard(Arc::downgrade(self.shared()), None, reg);
    }

    /// Serve `GET /metrics` for this database on `addr` (`"127.0.0.1:0"`
    /// binds an ephemeral port); every scrape gathers live.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<MetricsServer> {
        let reg = MetricsRegistry::new();
        self.register_metrics(&reg);
        dlsm_metrics::serve(reg, addr)
    }
}

impl ShardedDb {
    /// Register one collector per shard, each labeling its series with
    /// `shard="<index>"`.
    pub fn register_metrics(&self, reg: &MetricsRegistry) {
        for (i, db) in self.shards().iter().enumerate() {
            register_shard(Arc::downgrade(db.shared()), Some(i), reg);
        }
    }

    /// Serve `GET /metrics` for all shards on one listener. See
    /// [`Db::serve_metrics`].
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<MetricsServer> {
        let reg = MetricsRegistry::new();
        self.register_metrics(&reg);
        dlsm_metrics::serve(reg, addr)
    }
}

fn register_shard(shared: Weak<Shared>, shard: Option<usize>, reg: &MetricsRegistry) {
    let shard_label = shard.map(|i| i.to_string());
    reg.register(move |out: &mut Sample| {
        let Some(shared) = shared.upgrade() else { return };
        let labels: Vec<(&'static str, &str)> = match &shard_label {
            Some(s) => vec![("shard", s.as_str())],
            None => Vec::new(),
        };
        collect_shard(&shared, &labels, out);
    });
}

fn collect_shard(shared: &Shared, labels: &[(&'static str, &str)], out: &mut Sample) {
    let r = shared.stats_report();
    out.gauge_with("dlsm_memtable_bytes", labels, r.memtable_bytes as f64);
    out.gauge_with("dlsm_memtable_limit_bytes", labels, r.memtable_limit as f64);
    out.gauge_with("dlsm_memtable_entries", labels, r.memtable_entries as f64);
    out.gauge_with("dlsm_seq_headroom", labels, r.seq_headroom as f64);
    out.gauge_with("dlsm_imm_queue_depth", labels, r.imm_count as f64);
    out.gauge_with("dlsm_flush_queue_depth", labels, r.flush_queue_len as f64);
    out.gauge_with("dlsm_uptime_seconds", labels, r.uptime.as_secs_f64());

    for l in &r.levels {
        let lvl = l.level.to_string();
        let mut ls = labels.to_vec();
        ls.push(("level", lvl.as_str()));
        out.gauge_with("dlsm_level_files", &ls, l.files as f64);
        out.gauge_with("dlsm_level_bytes", &ls, l.bytes as f64);
        out.gauge_with("dlsm_level_score", &ls, l.score);
    }
    for (i, name) in ORIGIN_NAMES.iter().enumerate() {
        let mut ls = labels.to_vec();
        ls.push(("origin", name));
        out.gauge_with("dlsm_live_extent_bytes", &ls, r.live_bytes[i] as f64);
        out.gauge_with("dlsm_live_extents", &ls, r.live_extents[i] as f64);
    }
    out.gauge_with("dlsm_flush_zone_used_bytes", labels, r.flush_zone_used as f64);
    out.gauge_with("dlsm_flush_zone_capacity_bytes", labels, r.flush_zone_capacity as f64);
    out.gauge_with("dlsm_flush_zone_fragments", labels, r.flush_zone_fragments as f64);
    out.gauge_with("dlsm_gc_backlog_extents", labels, r.gc_backlog as f64);

    let uptime_micros = (r.uptime.as_micros().max(1)) as f64;
    for (micros, name) in [(r.stall_imm_micros, "imm_queue"), (r.stall_l0_micros, "l0_limit")] {
        let mut ls = labels.to_vec();
        ls.push(("reason", name));
        // Can exceed 1.0 when several writers stall concurrently.
        out.gauge_with("dlsm_stall_fraction", &ls, micros as f64 / uptime_micros);
    }

    // Occupancy only: the cache's event counts are telemetry counters.
    if let Some(cs) = &r.cache {
        out.gauge_with("dlsm_cache_hit_ratio", labels, cs.hit_ratio());
        out.gauge_with("dlsm_cache_resident_bytes", labels, cs.resident_bytes as f64);
        out.gauge_with("dlsm_cache_capacity_bytes", labels, cs.capacity_bytes as f64);
    }

    out.push_telemetry("dlsm_", labels, &shared.telemetry_snapshot());
}
