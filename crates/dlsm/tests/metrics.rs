//! Live-introspection tests (DESIGN.md §8b): the gauge collectors, the
//! collector's consistency invariant under concurrent writers, and the
//! stats-report ↔ `live_extents` reconciliation the ISSUE demands.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dlsm::{CacheConfig, ComputeContext, Db, DbConfig, MemNodeHandle, ShardedDb};
use dlsm_memnode::{MemServer, MemServerConfig};
use dlsm_metrics::MetricsRegistry;
use rdma_sim::{Fabric, NetworkProfile};

fn server(fabric: &Arc<Fabric>) -> MemServer {
    MemServer::start(
        fabric,
        MemServerConfig {
            region_size: 128 << 20,
            flush_zone: 48 << 20,
            compaction_workers: 2,
            dispatchers: 1,
        },
    )
}

fn open_db(fabric: &Arc<Fabric>, srv: &MemServer) -> Db {
    let ctx = ComputeContext::new(fabric);
    let mem = MemNodeHandle::from_server(srv);
    Db::open(ctx, mem, DbConfig::small()).unwrap()
}

fn key(i: u64) -> Vec<u8> {
    let mut k = (i.wrapping_mul(0x9E3779B97F4A7C15)).to_be_bytes().to_vec();
    k.extend_from_slice(format!("-{i:08}").as_bytes());
    k
}

#[test]
fn gauges_cover_live_state_and_every_level() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let srv = server(&fabric);
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&srv);
    let cfg = DbConfig { cache: CacheConfig::with_capacity(4 << 20), ..DbConfig::small() };
    let db = Db::open(ctx, mem, cfg).unwrap();
    for i in 0..5_000u64 {
        db.put(&key(i), format!("v{i}").as_bytes()).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();

    let reg = MetricsRegistry::new();
    db.register_metrics(&reg);
    let sample = reg.gather();

    assert!(sample.gauge_value("dlsm_memtable_limit_bytes", &[]).unwrap() > 0.0);
    assert!(sample.gauge_value("dlsm_uptime_seconds", &[]).unwrap() > 0.0);
    assert!(sample.gauge_value("dlsm_flush_zone_capacity_bytes", &[]).unwrap() > 0.0);
    // Every level reports files/bytes/score, and something actually flushed.
    assert!(sample.gauge_value("dlsm_level_files", &[("level", "0")]).is_some());
    assert!(sample.gauge_value("dlsm_level_score", &[("level", "1")]).is_some());
    assert!(sample.gauge_sum("dlsm_level_files") > 0.0);
    assert!(sample.gauge_sum("dlsm_live_extent_bytes") > 0.0);
    // Counters and histograms ride along from telemetry.
    let text = reg.render();
    assert!(text.contains("dlsm_puts_total"), "{text}");
    assert!(text.contains("dlsm_op_latency_ns_bucket"), "{text}");

    // Every number is served once: no name is both a gauge `X` and a
    // counter `X_total` (the cache's occupancy is a gauge, its event counts
    // are counters).
    assert!(sample.gauge_value("dlsm_cache_resident_bytes", &[]).is_some(), "{text}");
    let families = |kind: &str| -> std::collections::HashSet<String> {
        text.lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.strip_suffix(kind))
            .map(|name| name.trim().to_string())
            .collect()
    };
    let gauges = families(" gauge");
    for counter in families(" counter") {
        let name = counter.strip_suffix("_total").unwrap_or(&counter);
        assert!(!gauges.contains(name), "{name} is served as a gauge and as {counter}");
    }
    // At quiescence the level gauges add up to the stats report's tables.
    assert_eq!(sample.gauge_sum("dlsm_level_files") as usize, db.stats_report().total_files());

    db.shutdown();
    srv.shutdown();
}

#[test]
fn dropping_the_db_turns_collectors_into_noops() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let srv = server(&fabric);
    let db = open_db(&fabric, &srv);
    db.put(b"k", b"v").unwrap();

    let reg = MetricsRegistry::new();
    db.register_metrics(&reg);
    assert!(!reg.gather().gauges.is_empty());
    db.shutdown();
    drop(db);
    assert!(reg.gather().gauges.is_empty(), "weak collector must go quiet");
    srv.shutdown();
}

/// The ISSUE's consistency criterion: because the collector pins the
/// version before reading the allocator, a sampled compute-origin live
/// byte count can never exceed the sampled flush-zone `in_use` — no matter
/// how writers, flushes and GC interleave with a gather.
#[test]
fn sampled_live_bytes_never_exceed_allocator_in_use() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let srv = server(&fabric);
    let db = Arc::new(open_db(&fabric, &srv));

    let reg = MetricsRegistry::new();
    db.register_metrics(&reg);

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..3u64)
        .map(|t| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = t * 1_000_000;
                while !stop.load(Ordering::Relaxed) {
                    db.put(&key(i), &[0u8; 256]).unwrap();
                    i += 1;
                }
            })
        })
        .collect();

    let deadline = std::time::Instant::now() + Duration::from_millis(600);
    let mut checked = 0u32;
    while std::time::Instant::now() < deadline {
        let sample = reg.gather();
        let live = sample
            .gauge_value("dlsm_live_extent_bytes", &[("origin", "compute")])
            .unwrap();
        let in_use = sample.gauge_value("dlsm_flush_zone_used_bytes", &[]).unwrap();
        assert!(
            live <= in_use,
            "sampled compute-origin live bytes {live} exceed flush-zone in_use {in_use}"
        );
        checked += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    assert!(checked > 50, "only {checked} samples inspected");

    db.shutdown();
    srv.shutdown();
}

/// Acceptance criterion: the stats report's per-level byte totals reconcile
/// exactly with `live_extents()` — same tables, same 8-byte rounding.
#[test]
fn stats_report_reconciles_with_live_extents() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let srv = server(&fabric);
    let db = open_db(&fabric, &srv);
    for i in 0..20_000u64 {
        db.put(&key(i % 4_000), format!("value-{i:08}").as_bytes()).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();

    let report = db.stats_report();
    let extents = db.live_extents();
    assert!(report.total_files() > 0, "nothing flushed:\n{report}");
    assert_eq!(report.total_files(), extents.len(), "{report}");
    let live_sum: u64 = extents.iter().map(|(_, _, len)| len).sum();
    assert_eq!(report.total_bytes(), live_sum, "{report}");
    assert_eq!(report.live_total_bytes(), report.total_bytes(), "{report}");
    // And the flush zone holds at least the compute-origin tables.
    assert!(report.live_bytes[0] <= report.flush_zone_used, "{report}");
    assert!(report.write_amp >= 1.0, "{report}");
    assert!(report.read_amp >= 1, "{report}");

    // The rendered form carries the table and the remote-memory section.
    let text = report.to_string();
    assert!(text.contains("** dLSM stats report"), "{text}");
    assert!(text.contains("L0"), "{text}");
    assert!(text.contains("Remote memory:"), "{text}");

    db.shutdown();
    srv.shutdown();
}

#[test]
fn sharded_db_labels_shards_and_renders_reports() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let srv = server(&fabric);
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&srv);
    let db = ShardedDb::open(ctx, &[mem], DbConfig::small(), 2).unwrap();
    for i in 0..2_000u64 {
        db.put(&key(i), b"v").unwrap();
    }

    let reg = MetricsRegistry::new();
    db.register_metrics(&reg);
    let sample = reg.gather();
    for shard in ["0", "1"] {
        assert!(
            sample.gauge_value("dlsm_memtable_bytes", &[("shard", shard)]).is_some(),
            "missing shard {shard}"
        );
    }
    let text = db.stats_report();
    assert!(text.contains("--- shard 0 ---"), "{text}");
    assert!(text.contains("--- shard 1 ---"), "{text}");
    assert_eq!(db.stats_reports().len(), 2);

    db.shutdown();
    srv.shutdown();
}
