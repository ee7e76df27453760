//! End-to-end tracing over a real deep tree (DESIGN.md §8a): a traced
//! point get descending below L0 records its table probes and then at most
//! one `rdma_read` span — the wave that fetches the one located record
//! (byte-addressable tables, Sec. VI — the trace must agree with the
//! fabric's own READ counters) — inside the phase span that located it,
//! and an RPC carries its trace context across the wire so the server's
//! dispatch span is a child of the compute-side call span.

use std::collections::HashMap;
use std::time::Duration;

use dlsm::{ComputeContext, Db, DbConfig, MemNodeHandle};
use dlsm_memnode::{MemServer, MemServerConfig, RpcClient};
use dlsm_trace::{Category, Event, EventKind};
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

#[test]
fn traced_get_and_cross_node_dispatch() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = MemServer::start(
        &fabric,
        MemServerConfig {
            region_size: 256 << 20,
            flush_zone: 128 << 20,
            compaction_workers: 2,
            dispatchers: 1,
        },
    );
    let ctx = ComputeContext::new(&fabric);
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

    let key = |i: u64| format!("trace{:06}", i * 7919 % 100_000).into_bytes();
    for generation in 0..5u64 {
        for i in 0..3_000u64 {
            db.put(&key(i), &generation.to_le_bytes()).unwrap();
        }
        db.force_flush().unwrap();
    }
    db.wait_until_quiescent();
    let shape = db.level_shape();
    let deepest = shape.iter().rposition(|&c| c > 0).unwrap_or(0);
    assert!(deepest >= 2, "tree never grew deep: {shape:?}");

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
