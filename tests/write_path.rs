//! The write path's picking policy, by counts (none of these is timed): while
//! writes are arriving, L0 waits for twice its trigger before a job rewrites
//! L1, and once they stop the engine settles below the base trigger
//! (DESIGN.md §5.7 "L0 waits while writes flow"). `DbStats` says how many L0
//! tables each L0 → L1 job retired, and every flushed table is accounted for.

use std::collections::BTreeMap;

use dlsm_repro::dlsm::{ComputeContext, Db, DbConfig, DbStatsSnapshot, MemNodeHandle};
use dlsm_repro::memnode::{MemServer, MemServerConfig};
use dlsm_repro::rdma_sim::{Fabric, NetworkProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn open() -> (MemServer, Db) {
    let fabric = Fabric::new(NetworkProfile::instant());
    let cfg = MemServerConfig { region_size: 96 << 20, flush_zone: 48 << 20, compaction_workers: 2, dispatchers: 1 };
    let server = MemServer::start(&fabric, cfg);
    let ctx = ComputeContext::new(&fabric);
    let db = Db::open(ctx, MemNodeHandle::from_server(&server), DbConfig::small()).unwrap();
    (server, db)
}

fn key(k: u64) -> Vec<u8> {
    format!("{:016x}-{k:06}", k.wrapping_mul(0x9E3779B97F4A7C15)).into_bytes()
}

fn value(k: u64, version: u64) -> Vec<u8> {
    [version.to_le_bytes().to_vec(), vec![k as u8; 120]].concat()
}

/// Every table a flush adds enters L0, and only an L0 → L1 job takes it out:
/// the tables L0 jobs retired are the flushed ones no longer in L0.
fn assert_l0_tables_accounted_for(stats: &DbStatsSnapshot, db: &Db) {
    let left = db.level_shape()[0] as u64;
    assert_eq!(stats.compaction_l0_input_tables + left, stats.flushes, "{stats}, {left} tables in L0");
}

#[test]
fn a_continuous_writer_batches_l0_and_settles_below_the_trigger() {
    let (server, db) = open();
    let trigger = DbConfig::small().l0_compaction_trigger;
    let mut rng = SmallRng::seed_from_u64(26);
    let mut model = BTreeMap::new();
    for version in 0..40_000u64 {
        let k = rng.gen_range(0..5_000u64);
        db.put(&key(k), &value(k, version)).unwrap();
        model.insert(k, version);
    }
    let writing = db.stats().snapshot();
    let per_job = writing.compaction_l0_input_tables as f64 / writing.compaction_l0_jobs as f64;
    assert!(writing.compaction_l0_jobs >= 3, "{writing}");
    assert!(per_job >= 1.5 * trigger as f64, "{per_job:.2} L0 tables per L0 job: {writing}");

    // Writes stopped: the next pick uses the base trigger.
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    assert!(db.level_shape()[0] < trigger, "{:?}", db.level_shape());
    let settled = db.stats().snapshot();
    assert_l0_tables_accounted_for(&settled, &db);
    let mut reader = db.reader();
    for (&k, &version) in &model {
        assert_eq!(reader.get(&key(k)).unwrap(), Some(value(k, version)), "key {k}");
    }
    drop(reader);
    db.shutdown();
    server.shutdown();
}

#[test]
fn a_paced_load_is_below_the_trigger_after_every_quiesce() {
    let (server, db) = open();
    let trigger = DbConfig::small().l0_compaction_trigger;
    // 128 records fit one MemTable's sequence range: one flush per step.
    for k in 0..8_192u64 {
        db.put(&key(k), &value(k, 1)).unwrap();
        if k % 128 == 127 {
            db.force_flush().unwrap();
            db.wait_until_quiescent();
            assert!(db.level_shape()[0] < trigger, "after key {k}: {:?}", db.level_shape());
        }
    }
    let stats = db.stats().snapshot();
    assert!(stats.flushes == 64 && stats.compaction_l0_jobs >= 16, "{stats}");
    assert_l0_tables_accounted_for(&stats, &db);
    db.shutdown();
    server.shutdown();
}
