//! End-to-end tracing over a real deep tree (DESIGN.md §8a): a traced
//! point get descending below L0 records its table probes and then at most
//! one `rdma_read` span — the wave that fetches the one located record
//! (byte-addressable tables, Sec. VI — the trace must agree with the
//! fabric's own READ counters) — inside the phase span that located it,
//! and an RPC carries its trace context across the wire so the server's
//! dispatch span is a child of the compute-side call span.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dlsm::{ComputeContext, Db, DbConfig, MemNodeHandle};
use dlsm_memnode::{MemServer, MemServerConfig, RpcClient};
use dlsm_telemetry::{OpClass, TelemetrySnapshot};
use dlsm_trace::{Category, Event, EventKind, Level};
use rdma_sim::{Fabric, NetworkProfile, Verb};

/// Spans named `name` that descend from `outer` by `parent_id` — causal
/// nesting. Timestamp containment is not: sub-µs sibling spans all share
/// one microsecond and would each "contain" the others.
fn within<'a>(events: &'a [Event], outer: &Event, name: &str) -> Vec<&'a Event> {
    let parent: HashMap<u64, u64> = events.iter().map(|e| (e.span_id, e.parent_id)).collect();
    let descends = |mut id: u64| {
        while let Some(&p) = parent.get(&id) {
            if p == outer.span_id {
                return true;
            }
            id = p;
        }
        false
    };
    events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == name && descends(e.span_id))
        .collect()
}

/// One test at a time: the trace level and the rings are process-wide.
static TRACING: Mutex<()> = Mutex::new(());

fn deep_key(i: u64) -> Vec<u8> {
    format!("trace{:06}", i * 7919 % 100_000).into_bytes()
}

/// A tree whose keys `0..3_000` (at generation 4) reach L2 or deeper.
fn deep_tree(fabric: &Arc<Fabric>) -> (MemServer, Db) {
    let server = MemServer::start(
        fabric,
        MemServerConfig {
            region_size: 256 << 20,
            flush_zone: 128 << 20,
            compaction_workers: 2,
            dispatchers: 1,
        },
    );
    let ctx = ComputeContext::new(fabric);
    let mem = MemNodeHandle::from_server(&server);
    // Tiny tables so the tree reaches L2 quickly; no read cache (the
    // default) so every deep probe that fetches goes over the fabric.
    let cfg = DbConfig {
        memtable_size: 16 << 10,
        sstable_size: 16 << 10,
        l1_max_bytes: 48 << 10,
        level_multiplier: 4,
        max_levels: 6,
        ..DbConfig::small()
    };
    let db = Db::open(ctx, mem, cfg).unwrap();
    for generation in 0..5u64 {
        for i in 0..3_000u64 {
            db.put(&deep_key(i), &generation.to_le_bytes()).unwrap();
        }
        db.force_flush().unwrap();
    }
    db.wait_until_quiescent();
    let shape = db.level_shape();
    let deepest = shape.iter().rposition(|&c| c > 0).unwrap_or(0);
    assert!(deepest >= 2, "tree never grew deep: {shape:?}");
    (server, db)
}

#[test]
fn traced_get_and_cross_node_dispatch() {
    let _one = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let fabric = Fabric::new(NetworkProfile::instant());
    let (server, db) = deep_tree(&fabric);
    let key = deep_key;
    let shape = db.level_shape();

    // ---- Traced point gets: probes, then one rdma_read for the record. ----
    let mut reader = db.reader();
    dlsm_trace::clear();
    dlsm_trace::set_level(dlsm_trace::Level::All);
    let mut deep_read_seen = false;
    for i in (0..3_000u64).step_by(61) {
        let before = reader.traffic().ops(Verb::Read);
        assert_eq!(reader.get(&key(i)).unwrap(), Some(4u64.to_le_bytes().to_vec()));
        let fabric_reads = reader.traffic().ops(Verb::Read) - before;

        dlsm_trace::set_level(dlsm_trace::Level::Off);
        let events = dlsm_trace::collect_events();
        dlsm_trace::clear();
        dlsm_trace::set_level(dlsm_trace::Level::All);

        let get = events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.name == "get")
            .max_by_key(|e| e.ts_us)
            .expect("traced get span");
        // Timing is sampled (one get in 16) only while tracing is off: every
        // traced get carries its phase spans.
        assert_eq!(within(&events, get, "get_memtable").len(), 1, "key {i}");
        assert_eq!(within(&events, get, "get_l0").len(), 1, "key {i}");
        let probes = within(&events, get, "table_probe");
        let reads = within(&events, get, "rdma_read");
        // The trace agrees exactly with the fabric's READ counter, and a
        // point get never needs more than the one record (Sec. VI).
        assert_eq!(reads.len() as u64, fabric_reads, "key {i}");
        assert!(reads.len() <= 1, "key {i} issued {} READs", reads.len());
        // The READ follows the probe that located the record (probes are
        // compute-local: no READ runs inside one) and lies inside exactly
        // one phase span.
        for r in &reads {
            let last_probe = probes.iter().map(|p| p.end_us()).max().expect("a probe located it");
            assert!(last_probe <= r.ts_us, "rdma_read started before the walk ended");
            let owners = ["get_memtable", "get_l0", "get_deep"]
                .iter()
                .flat_map(|phase| within(&events, get, phase))
                .filter(|p| within(&events, p, "rdma_read").iter().any(|x| x.span_id == r.span_id))
                .count();
            assert_eq!(owners, 1, "rdma_read outside a phase span");
        }
        if !within(&events, get, "get_deep")
            .first()
            .map(|deep| within(&events, deep, "rdma_read").is_empty())
            .unwrap_or(true)
        {
            deep_read_seen = true;
        }
    }
    assert!(deep_read_seen, "no traced get ever fetched below L0 (shape {shape:?})");

    // ---- Cross-node propagation: server dispatch is our span's child. ----
    dlsm_trace::clear();
    let client_ctx = ComputeContext::new(&fabric);
    let mut client =
        RpcClient::new(client_ctx.fabric(), client_ctx.node(), server.node_id(), 64 << 10)
            .unwrap();
    let root = dlsm_trace::span(Category::Rpc, "test_root");
    client.ping(b"trace me", Duration::from_secs(5)).unwrap();
    drop(root);
    // The dispatcher records on the server's own thread; give it a beat.
    std::thread::sleep(Duration::from_millis(50));
    dlsm_trace::set_level(dlsm_trace::Level::Off);
    let events = dlsm_trace::collect_events();

    let dispatch = events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == "server_dispatch")
        .max_by_key(|e| e.ts_us)
        .expect("server recorded a dispatch span");
    assert!(dispatch.node_id >= 1, "dispatch not attributed to a memnode");
    let call = events
        .iter()
        .find(|e| e.span_id == dispatch.parent_id)
        .expect("dispatch's parent span was recorded");
    assert_eq!(call.name, "rpc_call");
    assert_eq!(call.node_id, 0, "parent call span must be compute-side");
    assert_eq!(call.trace_id, dispatch.trace_id);
    let root_ev = events.iter().find(|e| e.span_id == call.parent_id).expect("root span");
    assert_eq!(root_ev.name, "test_root");

    db.shutdown();
    server.shutdown();
}

/// Each class's phases tile its calls (DESIGN.md §8), with tracing off and
/// with every op traced: Σ put phases = `put`, Σ get phases = `get_hit` +
/// `get_miss` over gets that end in a MemTable, in L0 and deeper, hit or
/// miss, and `scan_next` counts a scan's entries as they are yielded,
/// whether it is dropped part-way or run to its end.
#[test]
fn every_op_class_ledger_adds_up_at_every_trace_level() {
    let _one = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let fabric = Fabric::new(NetworkProfile::instant());
    let (server, db) = deep_tree(&fabric);
    let mut reader = db.reader();
    let check = |before: &TelemetrySnapshot, ops: u64| {
        let d = db.telemetry_snapshot().delta(before);
        let sums = |names: &[&str]| names.iter().map(|p| d.breakdown_hist(p).sum()).sum::<u64>();
        let put = d.op(OpClass::Put);
        assert_eq!(sums(&dlsm::telemetry::PUT_PHASES), put.sum());
        assert!(dlsm::telemetry::PUT_PHASES.iter().all(|p| d.breakdown_hist(p).count() == put.count()));
        let (hit, miss) = (d.op(OpClass::GetHit), d.op(OpClass::GetMiss));
        assert_eq!(sums(&dlsm::telemetry::GET_PHASES), hit.sum() + miss.sum());
        assert_eq!(d.breakdown_hist("get_memtable").count(), hit.count() + miss.count());
        assert_eq!(put.count() + hit.count() + miss.count() + d.op(OpClass::ScanNext).count(), ops);
        d
    };
    for (level, generation) in [(Level::Off, 5u64), (Level::All, 6)] {
        dlsm_trace::set_level(level);
        let before = db.telemetry_snapshot();
        // Puts: keys 0..100 move to the MemTable.
        for i in 0..100u64 {
            db.put(&deep_key(i), &generation.to_le_bytes()).unwrap();
        }
        let mut ops = check(&before, 100).op(OpClass::Put).count();
        // Gets: MemTable hits, hits below it, misses.
        for i in (0..3_000u64).step_by(7) {
            let want = if i < 100 { generation } else { 4 };
            assert_eq!(reader.get(&deep_key(i)).unwrap(), Some(want.to_le_bytes().to_vec()));
            assert_eq!(reader.get(format!("absent{i:06}").as_bytes()).unwrap(), None);
            ops += 2;
        }
        let d = check(&before, ops);
        assert!(["get_l0", "get_deep"].iter().all(|p| d.breakdown_hist(p).count() > 0), "{level:?}");
        // Scans: partial, dropped mid-way, run to the end.
        ops += reader.scan(b"").unwrap().take(20).count() as u64;
        check(&before, ops);
        let mut scan = reader.scan(b"trace01").unwrap();
        for _ in 0..37 {
            scan.next().unwrap().unwrap();
            ops += 1;
            check(&before, ops);
        }
        drop(scan);
        ops += reader.scan_range(b"trace02", b"trace03").unwrap().count() as u64;
        check(&before, ops);
    }
    dlsm_trace::set_level(Level::Off);
    drop(reader);
    db.shutdown();
    server.shutdown();
}
