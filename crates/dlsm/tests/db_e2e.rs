//! End-to-end tests of the dLSM engine over the simulated fabric.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use dlsm::{CacheConfig, Cluster, ClusterConfig, ComputeContext, Db, DbConfig, MemNodeHandle, ShardedDb};
use dlsm_memnode::{MemServer, MemServerConfig, TableFormat};
use rdma_sim::{Fabric, NetworkProfile, Verb};

fn small_server(fabric: &Arc<Fabric>) -> MemServer {
    MemServer::start(
        fabric,
        MemServerConfig {
            region_size: 128 << 20,
            flush_zone: 48 << 20,
            compaction_workers: 4,
            dispatchers: 1,
        },
    )
}

fn open_db(fabric: &Arc<Fabric>, server: &MemServer, cfg: DbConfig) -> Db {
    let ctx = ComputeContext::new(fabric);
    let mem = MemNodeHandle::from_server(server);
    Db::open(ctx, mem, cfg).unwrap()
}

fn key(i: u64) -> Vec<u8> {
    // 8-byte big-endian prefix (uniformly spread) + readable suffix.
    let mut k = (i.wrapping_mul(0x9E3779B97F4A7C15)).to_be_bytes().to_vec();
    k.extend_from_slice(format!("-{i:08}").as_bytes());
    k
}

#[test]
fn write_read_within_memtable() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    db.put(b"alpha", b"1").unwrap();
    db.put(b"beta", b"2").unwrap();
    db.delete(b"alpha").unwrap();
    let mut r = db.reader();
    assert_eq!(r.get(b"alpha").unwrap(), None);
    assert_eq!(r.get(b"beta").unwrap(), Some(b"2".to_vec()));
    assert_eq!(r.get(b"gamma").unwrap(), None);
    db.shutdown();
    server.shutdown();
}

#[test]
fn overwrite_returns_latest() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    for v in 0..20 {
        db.put(b"hot", format!("v{v}").as_bytes()).unwrap();
    }
    let mut r = db.reader();
    assert_eq!(r.get(b"hot").unwrap(), Some(b"v19".to_vec()));
    db.shutdown();
    server.shutdown();
}

#[test]
fn data_survives_flush_and_compaction() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    let n = 4_000u64;
    for i in 0..n {
        db.put(&key(i), format!("value-{i}").as_bytes()).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let shape = db.level_shape();
    assert!(shape.iter().skip(1).any(|&c| c > 0), "compaction moved data below L0: {shape:?}");
    let mut r = db.reader();
    for i in (0..n).step_by(37) {
        assert_eq!(
            r.get(&key(i)).unwrap(),
            Some(format!("value-{i}").into_bytes()),
            "key {i} lost"
        );
    }
    assert!(db.stats().snapshot().flushes > 1);
    assert!(db.stats().snapshot().compactions >= 1);
    db.shutdown();
    server.shutdown();
}

#[test]
fn deletes_survive_compaction() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    for i in 0..2_000u64 {
        db.put(&key(i), b"live").unwrap();
    }
    for i in (0..2_000u64).step_by(2) {
        db.delete(&key(i)).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let mut r = db.reader();
    for i in (0..2_000u64).step_by(101) {
        let got = r.get(&key(i)).unwrap();
        if i % 2 == 0 {
            assert_eq!(got, None, "deleted key {i} resurfaced");
        } else {
            assert_eq!(got, Some(b"live".to_vec()), "live key {i} lost");
        }
    }
    db.shutdown();
    server.shutdown();
}

#[test]
fn snapshot_isolation_across_flush() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    db.put(b"k", b"old").unwrap();
    let snap = db.snapshot();
    db.put(b"k", b"new").unwrap();
    // Push everything through flush + compaction; the snapshot must still
    // see the old value.
    for i in 0..3_000u64 {
        db.put(&key(i), b"filler").unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let mut r = db.reader();
    assert_eq!(r.get_at(&snap, b"k").unwrap(), Some(b"old".to_vec()));
    assert_eq!(r.get(b"k").unwrap(), Some(b"new".to_vec()));
    db.shutdown();
    server.shutdown();
}

/// A snapshot taken while compactions run reads, for as long as it lives,
/// the newest version acknowledged before it was taken — never an older one
/// because a compaction that began beside it dropped the version only it
/// could see (ISSUE 23: the horizon is registered under the `snapshots` lock;
/// model twin in `crates/check/tests/model_readview.rs`).
#[test]
fn snapshots_taken_beside_compactions_keep_their_version() {
    use std::sync::atomic::AtomicU64;
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig { memtable_size: 16 << 10, ..DbConfig::small() });
    let acked = AtomicU64::new(0);
    let value = |got: Option<Vec<u8>>| u64::from_be_bytes(got.expect("hot key lost")[..8].try_into().unwrap());
    db.put(b"hot", &0u64.to_be_bytes()).unwrap();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for i in 1..=20_000u64 {
                db.put(b"hot", &i.to_be_bytes()).unwrap();
                // ORDERING: the put returned, so its sequence number is published.
                acked.store(i, Ordering::Release);
                db.put(&key(i % 512), &[i as u8; 64]).unwrap();
            }
        });
        let mut reader = db.reader();
        let mut taken = 0u64;
        while !writer.is_finished() {
            let floor = acked.load(Ordering::Acquire);
            let snap = db.snapshot();
            let first = value(reader.get_at(&snap, b"hot").unwrap());
            assert!(first >= floor, "snapshot {} reads {first}, older than acknowledged {floor}", snap.seq());
            std::thread::yield_now();
            assert_eq!(value(reader.get_at(&snap, b"hot").unwrap()), first, "snapshot {} moved", snap.seq());
            taken += 1;
        }
        assert!(taken > 10, "only {taken} snapshots taken");
    });
    assert!(db.stats().snapshot().compactions >= 3);
    db.shutdown();
    server.shutdown();
}

#[test]
fn scan_returns_sorted_visible_versions() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    let n = 3_000u64;
    for i in 0..n {
        db.put(&key(i), format!("v{i}").as_bytes()).unwrap();
    }
    // Overwrite some, delete some, leave part of it in the MemTable.
    for i in (0..n).step_by(3) {
        db.put(&key(i), b"overwritten").unwrap();
    }
    for i in (0..n).step_by(5) {
        db.delete(&key(i)).unwrap();
    }
    let mut r = db.reader();
    let mut count = 0u64;
    let mut last: Option<Vec<u8>> = None;
    for item in r.scan(b"").unwrap() {
        let (k, v) = item.unwrap();
        if let Some(prev) = &last {
            assert!(prev < &k, "scan out of order");
        }
        assert!(v == b"overwritten" || v.starts_with(b"v"));
        last = Some(k);
        count += 1;
    }
    let expected = n - n.div_ceil(5);
    assert_eq!(count, expected);
    db.shutdown();
    server.shutdown();
}

#[test]
fn concurrent_writers_no_lost_updates() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = Arc::new(open_db(&fabric, &server, DbConfig::small()));
    let threads = 8;
    let per = 1_500u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 0..per {
                    let k = key(t * per + i);
                    db.put(&k, format!("w{t}-{i}").as_bytes()).unwrap();
                }
            });
        }
    });
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let mut r = db.reader();
    for t in 0..threads {
        for i in (0..per).step_by(97) {
            let k = key(t * per + i);
            assert_eq!(r.get(&k).unwrap(), Some(format!("w{t}-{i}").into_bytes()));
        }
    }
    assert_eq!(db.stats().snapshot().puts, threads * per);
    db.shutdown();
    server.shutdown();
}

#[test]
fn concurrent_reads_during_writes_are_consistent() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = Arc::new(open_db(&fabric, &server, DbConfig::small()));
    // Pre-load so readers always find something.
    for i in 0..500u64 {
        db.put(&key(i), b"stable").unwrap();
    }
    std::thread::scope(|s| {
        let writer_db = Arc::clone(&db);
        let w = s.spawn(move || {
            for i in 500..4_000u64 {
                writer_db.put(&key(i), b"stable").unwrap();
            }
        });
        for _ in 0..4 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                let mut r = db.reader();
                for round in 0..300u64 {
                    let i = round % 500;
                    assert_eq!(
                        r.get(&key(i)).unwrap(),
                        Some(b"stable".to_vec()),
                        "pre-loaded key {i} must stay visible"
                    );
                }
            });
        }
        w.join().unwrap();
    });
    db.shutdown();
    server.shutdown();
}

#[test]
fn near_data_compaction_moves_no_table_data() {
    // Compare network read traffic during compaction: near-data compaction
    // only ships metadata, so remote reads during the compact phase must be
    // tiny compared to the table bytes merged.
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    let before = fabric.stats().snapshot();
    for i in 0..4_000u64 {
        db.put(&key(i), &[7u8; 120]).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let delta = fabric.stats().snapshot().delta(&before);
    let merged = db.stats().snapshot().compaction_records_in * 150;
    assert!(db.stats().snapshot().compactions >= 1);
    assert!(
        delta.bytes(Verb::Read) < merged / 4,
        "near-data compaction read {} bytes over the network for ~{merged} bytes merged",
        delta.bytes(Verb::Read)
    );
    db.shutdown();
    server.shutdown();
}

#[test]
fn compute_side_compaction_pays_the_network() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let cfg = DbConfig { near_data_compaction: false, ..DbConfig::small() };
    let db = open_db(&fabric, &server, cfg);
    let before = fabric.stats().snapshot();
    for i in 0..4_000u64 {
        db.put(&key(i), &[7u8; 120]).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let delta = fabric.stats().snapshot().delta(&before);
    let merged = db.stats().snapshot().compaction_records_in * 130;
    assert!(db.stats().snapshot().compactions >= 1);
    assert!(
        delta.bytes(Verb::Read) > merged / 2,
        "compute-side compaction must pull inputs over the network (read {} of ~{merged})",
        delta.bytes(Verb::Read)
    );
    // Correctness is unaffected.
    let mut r = db.reader();
    for i in (0..4_000u64).step_by(113) {
        assert_eq!(r.get(&key(i)).unwrap(), Some(vec![7u8; 120]));
    }
    db.shutdown();
    server.shutdown();
}

#[test]
fn block_format_db_works_end_to_end() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let cfg = DbConfig { format: TableFormat::Block(2048), ..DbConfig::small() };
    let db = open_db(&fabric, &server, cfg);
    for i in 0..3_000u64 {
        db.put(&key(i), format!("bv{i}").as_bytes()).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let mut r = db.reader();
    for i in (0..3_000u64).step_by(61) {
        assert_eq!(r.get(&key(i)).unwrap(), Some(format!("bv{i}").into_bytes()));
    }
    let count = r.scan(b"").unwrap().count();
    assert_eq!(count, 3_000);
    db.shutdown();
    server.shutdown();
}

#[test]
fn gc_reclaims_remote_memory() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    for i in 0..6_000u64 {
        db.put(&key(i), &[3u8; 100]).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    // Compactions replaced L0 tables; their flush-zone extents must have
    // been freed locally, so flush-zone usage ≈ live L0 bytes only.
    let shape = db.level_shape();
    let stats = db.stats();
    assert!(stats.snapshot().compactions >= 1, "shape {shape:?}");
    let in_use = db.remote_flush_in_use();
    let total_written = stats.snapshot().flush_bytes;
    assert!(
        in_use < total_written,
        "flush zone usage {in_use} should be below total flushed {total_written}"
    );
    db.shutdown();
    // After shutdown the GC drained remote frees for dead compaction tables.
    assert!(server.stats().freed_extents.load(Ordering::Relaxed) > 0 || in_use < total_written);
    server.shutdown();
}

#[test]
fn checkpoint_and_restore() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    let db = Db::open(Arc::clone(&ctx), Arc::clone(&mem), DbConfig::small()).unwrap();
    for i in 0..2_000u64 {
        db.put(&key(i), format!("ck{i}").as_bytes()).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let checkpoint = db.checkpoint();

    // Restore into a second instance against the same remote memory.
    let db2 = Db::restore(ctx, mem, DbConfig::small(), &checkpoint).unwrap();
    let mut r = db2.reader();
    for i in (0..2_000u64).step_by(77) {
        assert_eq!(r.get(&key(i)).unwrap(), Some(format!("ck{i}").into_bytes()));
    }
    // The restored instance accepts new writes.
    db2.put(b"post-restore", b"yes").unwrap();
    assert_eq!(r.get(b"post-restore").unwrap(), Some(b"yes".to_vec()));
    db2.shutdown();
    db.shutdown();
    server.shutdown();
}

#[test]
fn sharded_db_routes_and_scans() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    let db = ShardedDb::open(ctx, &[mem], DbConfig::small(), 4).unwrap();
    let n = 4_000u64;
    for i in 0..n {
        db.put(&key(i), format!("s{i}").as_bytes()).unwrap();
    }
    // Writes spread across shards.
    let busy = db.shards().iter().filter(|s| s.stats().snapshot().puts > 0).count();
    assert!(busy >= 3, "only {busy} shards used");
    db.wait_until_quiescent();
    let mut r = db.reader();
    for i in (0..n).step_by(53) {
        assert_eq!(r.get(&key(i)).unwrap(), Some(format!("s{i}").into_bytes()));
    }
    // Global scan is sorted and complete.
    let mut count = 0;
    let mut last: Option<Vec<u8>> = None;
    for item in r.scan(b"").unwrap() {
        let (k, _) = item.unwrap();
        if let Some(prev) = &last {
            assert!(prev < &k, "cross-shard scan out of order");
        }
        last = Some(k);
        count += 1;
    }
    assert_eq!(count, n);
    // A bounded scan is the same scan cut at its end, inside one shard or
    // across several, and empty when the bounds are inverted.
    let all: Vec<Vec<u8>> = r.scan(b"").unwrap().map(|item| item.unwrap().0).collect();
    for (from, to) in [(10, 20), (900, 3_100), (0, 4_000), (3_990, 4_000), (50, 50), (70, 60)] {
        let end = all.get(to).map_or(&[][..], |k| k.as_slice());
        let got: Vec<Vec<u8>> = r.scan_range(&all[from], end).unwrap().map(|item| item.unwrap().0).collect();
        assert_eq!(got, all[from..to.max(from)], "[{from}, {to})");
    }
    db.shutdown();
    server.shutdown();
}

#[test]
fn cluster_multi_node_roundtrip() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let cluster = Cluster::start(
        &fabric,
        ClusterConfig {
            compute_nodes: 2,
            memory_nodes: 2,
            lambda: 2,
            mem_cfg: MemServerConfig {
                region_size: 64 << 20,
                flush_zone: 24 << 20,
                compaction_workers: 2,
                dispatchers: 1,
            },
            db_cfg: DbConfig::small(),
        },
    )
    .unwrap();
    let n = 1_500u64;
    for (c, compute) in cluster.computes().iter().enumerate() {
        for i in 0..n {
            let k = key(i + c as u64 * n);
            compute.db.put(&k, format!("c{c}-{i}").as_bytes()).unwrap();
        }
    }
    cluster.wait_until_quiescent();
    for (c, compute) in cluster.computes().iter().enumerate() {
        let mut r = compute.db.reader();
        for i in (0..n).step_by(41) {
            let k = key(i + c as u64 * n);
            assert_eq!(r.get(&k).unwrap(), Some(format!("c{c}-{i}").into_bytes()));
        }
    }
    cluster.shutdown();
}

#[test]
fn bulkload_mode_never_stalls() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    // Bulkload mode: no L0 stop trigger, and an immutable-list limit high
    // enough that flushing never backpressures the front end.
    let cfg = DbConfig {
        l0_stop_writes_trigger: None,
        max_immutables: 1_000,
        ..DbConfig::small()
    };
    let db = open_db(&fabric, &server, cfg);
    for i in 0..5_000u64 {
        db.put(&key(i), &[1u8; 64]).unwrap();
    }
    assert_eq!(db.stats().snapshot().stall_events, 0);
    db.shutdown();
    server.shutdown();
}

#[test]
fn naive_switch_protocol_still_functions_single_threaded() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let cfg = DbConfig {
        switch_protocol: dlsm::SwitchProtocol::NaiveDoubleChecked,
        ..DbConfig::small()
    };
    let db = open_db(&fabric, &server, cfg);
    for i in 0..2_000u64 {
        db.put(&key(i), b"naive").unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let mut r = db.reader();
    for i in (0..2_000u64).step_by(111) {
        assert_eq!(r.get(&key(i)).unwrap(), Some(b"naive".to_vec()));
    }
    db.shutdown();
    server.shutdown();
}

#[test]
fn write_batch_commits_consecutively() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    let mut batch = dlsm::WriteBatch::new();
    batch.put(b"acct:a", b"90");
    batch.put(b"acct:b", b"110");
    batch.delete(b"acct:c");
    let commit = db.write(&batch).unwrap();
    assert_eq!(commit.count, 3);
    let mut r = db.reader();
    assert_eq!(r.get(b"acct:a").unwrap(), Some(b"90".to_vec()));
    assert_eq!(r.get(b"acct:b").unwrap(), Some(b"110".to_vec()));
    assert_eq!(r.get(b"acct:c").unwrap(), None);
    // A second batch gets a strictly later block.
    let commit2 = db.write(&batch).unwrap();
    assert!(commit2.first_seq >= commit.first_seq + commit.count);
    // Empty batches are no-ops.
    let empty = dlsm::WriteBatch::new();
    assert_eq!(db.write(&empty).unwrap().count, 0);
    db.shutdown();
    server.shutdown();
}

#[test]
fn write_batches_survive_flush_and_retries() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    // Many batches, sized to regularly straddle MemTable boundaries so the
    // re-fetch path is exercised.
    for round in 0..200u64 {
        let mut batch = dlsm::WriteBatch::new();
        for j in 0..25u64 {
            let k = key(round * 25 + j);
            batch.put(&k, format!("b{round}-{j}").as_bytes());
        }
        db.write(&batch).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let mut r = db.reader();
    for round in (0..200u64).step_by(13) {
        for j in (0..25u64).step_by(7) {
            let k = key(round * 25 + j);
            assert_eq!(
                r.get(&k).unwrap(),
                Some(format!("b{round}-{j}").into_bytes()),
                "batch entry {round}/{j} lost"
            );
        }
    }
    db.shutdown();
    server.shutdown();
}

#[test]
fn concurrent_batches_with_overlapping_keys_converge() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = Arc::new(open_db(&fabric, &server, DbConfig::small()));
    // All threads overwrite the same 10 keys in batches; afterwards each key
    // must hold a complete batch image from *some* thread (per-batch entries
    // have consecutive seqs, so the max-seq batch wins wholesale per key).
    std::thread::scope(|s| {
        for t in 0..6u64 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for round in 0..100u64 {
                    let mut batch = dlsm::WriteBatch::new();
                    for k in 0..10u64 {
                        batch.put(&key(k), format!("t{t}r{round}").as_bytes());
                    }
                    db.write(&batch).unwrap();
                }
            });
        }
    });
    let mut r = db.reader();
    let v0 = r.get(&key(0)).unwrap().unwrap();
    assert!(v0.starts_with(b"t"), "unexpected value {v0:?}");
    for k in 0..10u64 {
        assert!(r.get(&key(k)).unwrap().is_some());
    }
    db.shutdown();
    server.shutdown();
}

#[test]
fn local_l0_cache_serves_reads_without_network() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let cfg = DbConfig {
        // Disable compaction churn so L0 tables (and their local mirrors)
        // stay put: raise the trigger beyond what this test creates.
        l0_compaction_trigger: 1_000,
        l0_stop_writes_trigger: None,
        cache: CacheConfig { capacity_bytes: 32 << 20, extent_percent: 100, promote_extent_after: 0, ..CacheConfig::default() },
        ..DbConfig::small()
    };
    let db = open_db(&fabric, &server, cfg);
    for i in 0..2_000u64 {
        db.put(&key(i), format!("hot{i}").as_bytes()).unwrap();
    }
    db.force_flush().unwrap();
    let mut r = db.reader();
    let before = fabric.stats().snapshot();
    for i in (0..2_000u64).step_by(29) {
        assert_eq!(r.get(&key(i)).unwrap(), Some(format!("hot{i}").into_bytes()));
    }
    let delta = fabric.stats().snapshot().delta(&before);
    assert_eq!(
        delta.ops(Verb::Read),
        0,
        "hot-L0 cache must serve reads from local memory"
    );
    // Scans also run locally.
    let before = fabric.stats().snapshot();
    assert_eq!(r.scan(b"").unwrap().count(), 2_000);
    assert_eq!(fabric.stats().snapshot().delta(&before).ops(Verb::Read), 0);
    db.shutdown();
    server.shutdown();
}

/// Block-format tables go through the same cache, at block granularity: a
/// resident image serves the block with no READ at all, and without one the
/// block pool serves every lookup of a block after its first.
#[test]
fn block_tables_read_through_the_cache() {
    let keep_l0 = |cache: CacheConfig| DbConfig {
        format: TableFormat::Block(1024),
        l0_compaction_trigger: 1_000,
        l0_stop_writes_trigger: None,
        cache,
        ..DbConfig::small()
    };
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let blocks_only =
        CacheConfig { extent_percent: 0, promote_extent_after: 0, ..CacheConfig::with_capacity(8 << 20) };
    for (cache, first_pass_reads) in [(CacheConfig::with_capacity(32 << 20), false), (blocks_only, true)] {
        let db = open_db(&fabric, &server, keep_l0(cache));
        for i in 0..1_000u64 {
            db.put(&key(i), format!("blk{i}").as_bytes()).unwrap();
        }
        db.force_flush().unwrap();
        let mut r = db.reader();
        let mut reads = [0u64; 2];
        for pass in &mut reads {
            let before = r.traffic().ops(Verb::Read);
            for i in (0..1_000u64).step_by(13) {
                assert_eq!(r.get(&key(i)).unwrap(), Some(format!("blk{i}").into_bytes()));
                assert_eq!(r.get(&key(i + 5_000)).unwrap(), None);
            }
            *pass = r.traffic().ops(Verb::Read) - before;
        }
        assert_eq!(reads[0] > 0, first_pass_reads, "first pass issued {} READs", reads[0]);
        assert_eq!(reads[1], 0, "second pass must be served from the cache");
        let hits = db.telemetry_snapshot().counter("l0_cache_hits");
        assert_eq!(hits > 0, !first_pass_reads, "image hits: {hits}");
        db.shutdown();
    }
    server.shutdown();
}

#[test]
fn local_l0_cache_budget_is_respected_and_recycled() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let cfg = DbConfig {
        // Extent pool only, roughly one small MemTable.
        cache: CacheConfig { capacity_bytes: 96 << 10, extent_percent: 100, promote_extent_after: 0, ..CacheConfig::default() },
        ..DbConfig::small()
    };
    let db = open_db(&fabric, &server, cfg);
    // Push many MemTables through; most flushes exceed the budget, and the
    // cached ones release their budget when compaction retires them.
    for i in 0..6_000u64 {
        db.put(&key(i), &[5u8; 100]).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let mut r = db.reader();
    for i in (0..6_000u64).step_by(101) {
        assert_eq!(r.get(&key(i)).unwrap(), Some(vec![5u8; 100]));
    }
    db.shutdown();
    server.shutdown();
}

#[test]
fn multi_get_matches_get_everywhere() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    let n = 3_000u64;
    for i in 0..n {
        db.put(&key(i), format!("mg{i}").as_bytes()).unwrap();
    }
    for i in (0..n).step_by(4) {
        db.delete(&key(i)).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    // A few more writes so the MemTable path is covered too.
    for i in 0..50u64 {
        db.put(&key(i), b"fresh").unwrap();
    }
    let mut r = db.reader();
    let probe: Vec<Vec<u8>> = (0..n + 40).step_by(7).map(key).collect();
    let refs: Vec<&[u8]> = probe.iter().map(Vec::as_slice).collect();
    let batched = r.multi_get(&refs).unwrap();
    for (k, got) in refs.iter().zip(&batched) {
        let single = r.get(k).unwrap();
        assert_eq!(got, &single, "multi_get diverged on {k:?}");
    }
    db.shutdown();
    server.shutdown();
}

#[test]
fn multi_get_batches_reads_on_one_wave() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    // No compaction: everything stays in L0, one probe wave resolves all.
    let cfg = DbConfig {
        l0_compaction_trigger: 1_000,
        l0_stop_writes_trigger: None,
        ..DbConfig::small()
    };
    let db = open_db(&fabric, &server, cfg);
    for i in 0..1_000u64 {
        db.put(&key(i), b"wave").unwrap();
    }
    db.force_flush().unwrap();
    let mut r = db.reader();
    let probe: Vec<Vec<u8>> = (0..1_000u64).step_by(11).map(key).collect();
    let refs: Vec<&[u8]> = probe.iter().map(Vec::as_slice).collect();
    let got = r.multi_get(&refs).unwrap();
    assert!(got.iter().all(|v| v.as_deref() == Some(b"wave".as_ref())));
    db.shutdown();
    server.shutdown();
}
