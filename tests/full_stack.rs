//! Cross-crate integration tests: the full stack from fabric to engines.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use dlsm_repro::baselines::{
    build_dlsm, build_memory_rocksdb, build_nova_lsm, build_rocksdb_rdma, Engine, EngineDeps,
    Sherman,
};
use dlsm_repro::dlsm::{ComputeContext, DbConfig, MemNodeHandle};
use dlsm_repro::memnode::{MemServer, MemServerConfig};
use dlsm_repro::rdma_sim::{Fabric, FaultAction, FaultHook, NetworkProfile, NodeId, OpContext, Verb};

fn server(fabric: &Arc<Fabric>) -> MemServer {
    MemServer::start(
        fabric,
        MemServerConfig {
            region_size: 192 << 20,
            flush_zone: 96 << 20,
            compaction_workers: 2,
            dispatchers: 1,
        },
    )
}

fn deps(fabric: &Arc<Fabric>, srv: &MemServer) -> EngineDeps {
    EngineDeps {
        ctx: ComputeContext::new(fabric),
        memnodes: vec![MemNodeHandle::from_server(srv)],
    }
}

fn key(i: u64) -> Vec<u8> {
    let mut k = i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec();
    k.extend_from_slice(format!("-{i:07}").as_bytes());
    k
}

/// Every engine must pass the same black-box contract: everything written is
/// readable, deletes hide keys, scans are sorted and complete.
fn contract(engine: &dyn Engine, n: u64) {
    for i in 0..n {
        engine.put(&key(i), format!("v{i}").as_bytes()).unwrap();
    }
    for i in (0..n).step_by(10) {
        engine.delete(&key(i)).unwrap();
    }
    engine.wait_until_quiescent();
    let mut reader = engine.reader();
    for i in (0..n).step_by(23) {
        let got = reader.get(&key(i)).unwrap();
        if i % 10 == 0 {
            assert_eq!(got, None, "{}: deleted key {i} visible", engine.name());
        } else {
            assert_eq!(
                got,
                Some(format!("v{i}").into_bytes()),
                "{}: key {i} wrong/lost",
                engine.name()
            );
        }
    }
    let live = n - n.div_ceil(10);
    assert_eq!(reader.scan_all().unwrap(), live, "{}: scan count", engine.name());
}

/// Which verbs each node posted; perturbs nothing.
#[derive(Default)]
struct PostedVerbs(Mutex<BTreeSet<(NodeId, String)>>);

impl FaultHook for PostedVerbs {
    fn action(&self, op: &OpContext) -> FaultAction {
        self.0.lock().unwrap().insert((op.src, format!("{:?}", op.verb)));
        FaultAction::Deliver
    }
}

impl PostedVerbs {
    fn by(&self, node: NodeId) -> Vec<String> {
        self.0.lock().unwrap().iter().filter(|(src, _)| *src == node).map(|(_, verb)| verb.clone()).collect()
    }
}

#[test]
fn all_lsm_engines_fulfil_the_contract() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let srv = server(&fabric);
    let cfg = DbConfig::small();
    let d = deps(&fabric, &srv);
    contract(&build_dlsm(&d, cfg.clone(), 1).unwrap(), 3_000);
    contract(&build_dlsm(&d, cfg.clone(), 4).unwrap(), 3_000);
    contract(&build_rocksdb_rdma(&d, cfg.clone(), 8192).unwrap(), 3_000);
    contract(&build_memory_rocksdb(&d, cfg.clone()).unwrap(), 2_000);
    contract(&build_nova_lsm(&d, cfg.clone(), 4).unwrap(), 2_000);
    // Nova-LSM again, on a compute node of its own and with tables small
    // enough that it flushes and compacts: two-sided for every byte it
    // moves, compute-side compaction and block tables included.
    let nova = deps(&fabric, &srv);
    let posted = Arc::new(PostedVerbs::default());
    fabric.set_fault_hook(Some(posted.clone()));
    let small = DbConfig { memtable_size: 16 << 10, sstable_size: 16 << 10, l0_compaction_trigger: 2, ..cfg };
    let engine = build_nova_lsm(&nova, small, 4).unwrap();
    contract(&engine, 8_000);
    let stats = engine.db().stats_snapshot();
    assert!(stats.flushes > 0 && stats.compactions > 0, "{} flushes, {} compactions", stats.flushes, stats.compactions);
    engine.shutdown();
    assert_eq!(posted.by(nova.ctx.node().id()), ["Send"], "Nova-LSM posted a one-sided verb");
    srv.shutdown();
}

#[test]
fn sherman_fulfils_the_contract() {
    let fabric = Fabric::new(NetworkProfile::instant());
    let srv = server(&fabric);
    let d = deps(&fabric, &srv);
    let tree = Sherman::new(d.ctx, d.memnodes[0].clone()).unwrap();
    contract(&tree, 2_000);
    srv.shutdown();
}

#[test]
fn near_data_vs_compute_side_traffic_asymmetry() {
    // The architectural heart of the paper: identical workload, identical
    // results, wildly different network traffic.
    let run = |near_data: bool| -> (u64, u64) {
        let fabric = Fabric::new(NetworkProfile::instant());
        let srv = server(&fabric);
        let d = deps(&fabric, &srv);
        // Open the database directly (the dLSM preset would force the flag
        // back on).
        let cfg = DbConfig { near_data_compaction: near_data, ..DbConfig::small() };
        let db = dlsm_repro::dlsm::ShardedDb::open(d.ctx.clone(), &d.memnodes, cfg, 1).unwrap();
        let engine = dlsm_repro::baselines::DlsmEngine::new("dLSM", db);
        for i in 0..5_000u64 {
            engine.put(&key(i), &[9u8; 120]).unwrap();
        }
        engine.wait_until_quiescent();
        let snap = fabric.stats().snapshot();
        let reads = snap.bytes(Verb::Read);
        // Everything still readable.
        let mut r = engine.reader();
        assert_eq!(r.get(&key(123)).unwrap(), Some(vec![9u8; 120]));
        engine.shutdown();
        srv.shutdown();
        (reads, snap.bytes(Verb::Write))
    };
    let (near_reads, _) = run(true);
    let (far_reads, _) = run(false);
    assert!(
        far_reads > near_reads.saturating_mul(5),
        "compute-side compaction must read much more remotely: near={near_reads} far={far_reads}"
    );
}

#[test]
fn fabric_delay_fault_does_not_break_correctness() {
    use dlsm_repro::rdma_sim::{FaultHook, OpContext};
    use std::time::Duration;
    /// Delays every operation by exactly 200 µs.
    struct DelayAll;
    impl FaultHook for DelayAll {
        fn delay(&self, _: &OpContext) -> Duration {
            Duration::from_micros(200)
        }
    }
    let fabric = Fabric::new(NetworkProfile::instant());
    let srv = server(&fabric);
    let d = deps(&fabric, &srv);
    // Every operation delayed by 200 us: slow, but correct.
    fabric.set_fault_hook(Some(Arc::new(DelayAll)));
    let engine = build_dlsm(&d, DbConfig::small(), 1).unwrap();
    for i in 0..300u64 {
        engine.put(&key(i), b"delayed").unwrap();
    }
    engine.wait_until_quiescent();
    let mut r = engine.reader();
    for i in (0..300).step_by(17) {
        assert_eq!(r.get(&key(i)).unwrap(), Some(b"delayed".to_vec()));
    }
    fabric.set_fault_hook(None);
    engine.shutdown();
    srv.shutdown();
}

#[test]
fn umbrella_reexports_compose() {
    // The umbrella crate's re-exports must be sufficient to build a working
    // deployment (what the README quickstart shows).
    let fabric = dlsm_repro::rdma_sim::Fabric::new(NetworkProfile::instant());
    let srv = server(&fabric);
    let ctx = dlsm_repro::dlsm::ComputeContext::new(&fabric);
    let mem = dlsm_repro::dlsm::MemNodeHandle::from_server(&srv);
    let db = dlsm_repro::dlsm::Db::open(ctx, mem, DbConfig::small()).unwrap();
    db.put(b"works", b"yes").unwrap();
    assert_eq!(db.reader().get(b"works").unwrap(), Some(b"yes".to_vec()));
    db.shutdown();
    srv.shutdown();
}
