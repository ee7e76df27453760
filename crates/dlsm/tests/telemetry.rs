//! Telemetry integration: op histograms, breakdown spans, and per-reader
//! RDMA attribution (DESIGN.md §8).

use std::sync::Arc;

use dlsm::{CacheConfig, ComputeContext, Db, DbConfig, MemNodeHandle};
use dlsm_memnode::{MemServer, MemServerConfig};
use dlsm_telemetry::OpClass;
use rdma_sim::{Fabric, NetworkProfile, Verb};

fn small_server(fabric: &Arc<Fabric>) -> MemServer {
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

fn open_db(fabric: &Arc<Fabric>, server: &MemServer, cfg: DbConfig) -> Db {
    let ctx = ComputeContext::new(fabric);
    let mem = MemNodeHandle::from_server(server);
    Db::open(ctx, mem, cfg).unwrap()
}

fn key(i: u64) -> Vec<u8> {
    let mut k = (i.wrapping_mul(0x9E3779B97F4A7C15)).to_be_bytes().to_vec();
    k.extend_from_slice(format!("-{i:08}").as_bytes());
    k
}

/// The paper's headline read-path property, now visible through telemetry:
/// a point get on a byte-addressable SSTable costs exactly one RDMA READ,
/// and that read is attributable to the reader's own channel.
#[test]
fn point_get_attributes_exactly_one_rdma_read() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    // No read cache (the default): every table probe must go to remote memory.
    let cfg = DbConfig::small();
    let db = open_db(&fabric, &server, cfg);
    let n = 500u64;
    for i in 0..n {
        db.put(&key(i), format!("value-{i}").as_bytes()).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    // The single L0/Ln table layout may still overlap; pick a key and make
    // sure the get resolves from an SSTable (MemTables were flushed).
    let mut r = db.reader();
    let before = r.traffic();
    assert_eq!(r.get(&key(42)).unwrap(), Some(b"value-42".to_vec()));
    let d = r.traffic().delta(&before);
    assert_eq!(d.ops(Verb::Read), 1, "one point get must cost exactly one RDMA READ");
    assert!(d.bytes(Verb::Read) < 256, "read a record, not a block: {} bytes", d.bytes(Verb::Read));

    // A miss stops at compute-local metadata: zero reads.
    let before = r.traffic();
    assert_eq!(r.get(b"absent-key-000").unwrap(), None);
    let d = r.traffic().delta(&before);
    assert_eq!(d.ops(Verb::Read), 0, "bloom/index miss must cost zero RDMA reads");

    let snap = db.telemetry_snapshot();
    assert!(snap.counter("bloom_skips") >= 1, "miss should count a bloom/index skip");
    db.shutdown();
    server.shutdown();
}

#[test]
fn op_histograms_cover_the_op_classes() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    let n = 3_000u64;
    for i in 0..n {
        db.put(&key(i), &[5u8; 120]).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let mut r = db.reader();
    for i in (0..n).step_by(17) {
        assert!(r.get(&key(i)).unwrap().is_some());
    }
    assert_eq!(r.get(b"never-written").unwrap(), None);
    let scanned = r.scan(b"").unwrap().take(100).count();
    assert_eq!(scanned, 100);

    let snap = db.telemetry_snapshot();
    assert_eq!(snap.op(OpClass::Put).count(), n);
    assert_eq!(snap.op(OpClass::GetHit).count(), (n).div_ceil(17));
    assert!(snap.op(OpClass::GetMiss).count() >= 1);
    assert_eq!(snap.op(OpClass::ScanNext).count(), 100);
    assert!(snap.op(OpClass::Flush).count() >= 1);
    assert!(snap.op(OpClass::CompactRpc).count() >= 1);
    // Quantiles are well-formed.
    let put = snap.op(OpClass::Put);
    assert!(put.p50() <= put.p99());
    assert!(put.p99() <= put.max());

    // Breakdown spans: every get probed the MemTables; SSTable-resolved
    // gets also probed L0 or deeper.
    let gets = snap.op(OpClass::GetHit).count() + snap.op(OpClass::GetMiss).count();
    assert_eq!(snap.breakdown_hist("get_memtable").count(), gets);
    assert!(
        snap.breakdown_hist("get_l0").count() + snap.breakdown_hist("get_deep").count() > 0,
        "flushed data must be probed below the MemTables"
    );

    // The DbStats counters ride along in the snapshot.
    assert_eq!(snap.counter("puts"), n);
    assert_eq!(snap.counter("flushes"), db.stats().snapshot().flushes);
    db.shutdown();
    server.shutdown();
}

#[test]
fn snapshot_delta_isolates_a_phase() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    for i in 0..200u64 {
        db.put(&key(i), b"warmup").unwrap();
    }
    let before = db.telemetry_snapshot();
    for i in 200..300u64 {
        db.put(&key(i), b"phase").unwrap();
    }
    let d = db.telemetry_snapshot().delta(&before);
    assert_eq!(d.op(OpClass::Put).count(), 100);
    assert_eq!(d.counter("puts"), 100);
    db.shutdown();
    server.shutdown();
}

#[test]
fn local_l0_cache_hits_are_counted_and_cost_no_reads() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let cache = CacheConfig { capacity_bytes: 32 << 20, extent_percent: 100, promote_extent_after: 0, ..CacheConfig::default() };
    let cfg = DbConfig { cache, ..DbConfig::small() };
    let db = open_db(&fabric, &server, cfg);
    for i in 0..300u64 {
        db.put(&key(i), b"cached").unwrap();
    }
    db.force_flush().unwrap();
    // Do not wait for compaction: freshly-flushed L0 tables carry local
    // images. Probe keys now resident only in L0.
    let mut r = db.reader();
    let before = r.traffic();
    let mut hits = 0;
    for i in 0..300u64 {
        if r.get(&key(i)).unwrap().is_some() {
            hits += 1;
        }
    }
    assert_eq!(hits, 300);
    let snap = db.telemetry_snapshot();
    let cache_hits = snap.counter("l0_cache_hits");
    let d = r.traffic().delta(&before);
    assert!(cache_hits > 0, "L0 cache should serve some probes");
    assert!(
        d.ops(Verb::Read) <= 300 - cache_hits,
        "each cache hit must save at least one RDMA read ({} reads, {cache_hits} hits)",
        d.ops(Verb::Read)
    );
    db.shutdown();
    server.shutdown();
}

#[test]
fn telemetry_json_is_emitted_with_stable_keys() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = small_server(&fabric);
    let db = open_db(&fabric, &server, DbConfig::small());
    for i in 0..100u64 {
        db.put(&key(i), b"x").unwrap();
    }
    let mut snap = db.telemetry_snapshot();
    snap.rdma = dlsm::telemetry::verb_traffic(&fabric.stats().snapshot());
    let json = snap.to_json();
    for k in ["\"ops\"", "\"put\"", "\"p50_ns\"", "\"p99_ns\"", "\"breakdown\"", "\"counters\"", "\"rdma\""] {
        assert!(json.contains(k), "missing {k}");
    }
    // Traffic flowed (flush writes at minimum).
    assert!(snap.rdma_total().0 > 0 || db.stats().snapshot().flushes == 0);
    db.shutdown();
    server.shutdown();
}
