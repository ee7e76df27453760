//! Model-based testing: the database must behave exactly like a `BTreeMap`
//! under arbitrary single-threaded op sequences, across flushes and
//! compactions, in every configuration.

use std::collections::BTreeMap;
use std::sync::Arc;

use dlsm::{ComputeContext, Db, DbConfig, MemNodeHandle, SwitchProtocol};
use dlsm_memnode::{MemServer, MemServerConfig, TableFormat};
use rdma_sim::{Fabric, NetworkProfile};

struct Rig {
    server: MemServer,
    db: Db,
}

fn rig(cfg: DbConfig) -> Rig {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = MemServer::start(
        &fabric,
        MemServerConfig {
            region_size: 128 << 20,
            flush_zone: 64 << 20,
            compaction_workers: 2,
            dispatchers: 1,
        },
    );
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    let db = Db::open(ctx, mem, cfg).unwrap();
    Rig { server, db }
}

/// Deterministic op script from a seed (xorshift).
fn script(seed: u64, ops: usize, key_space: u64) -> Vec<(bool, u64, u64)> {
    let mut x = seed | 1;
    let mut out = Vec::with_capacity(ops);
    for i in 0..ops {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let r = x.wrapping_mul(0x2545F4914F6CDD1D);
        out.push((!r.is_multiple_of(10), r % key_space, i as u64)); // 10% deletes
    }
    out
}

fn kb(k: u64) -> Vec<u8> {
    let mut v = k.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec();
    v.extend_from_slice(format!("#{k:06}").as_bytes());
    v
}

fn run_model(cfg: DbConfig, seed: u64) {
    let r = rig(cfg);
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for (is_put, k, version) in script(seed, 8_000, 900) {
        if is_put {
            let value = format!("v{k}@{version}").into_bytes();
            r.db.put(&kb(k), &value).unwrap();
            model.insert(k, value);
        } else {
            r.db.delete(&kb(k)).unwrap();
            model.remove(&k);
        }
    }
    r.db.force_flush().unwrap();
    r.db.wait_until_quiescent();

    // Point reads agree for present and absent keys.
    let mut reader = r.db.reader();
    for k in 0..900 {
        assert_eq!(
            reader.get(&kb(k)).unwrap(),
            model.get(&k).cloned(),
            "key {k} diverged (seed {seed})"
        );
    }
    // Full scan agrees in content and order.
    let want: Vec<(Vec<u8>, Vec<u8>)> = {
        let mut v: Vec<_> = model.iter().map(|(k, val)| (kb(*k), val.clone())).collect();
        v.sort();
        v
    };
    let got: Vec<(Vec<u8>, Vec<u8>)> =
        reader.scan(b"").unwrap().map(|i| i.unwrap()).collect();
    assert_eq!(got, want, "scan diverged (seed {seed})");
    r.db.shutdown();
    r.server.shutdown();
}

#[test]
fn model_default_config() {
    run_model(DbConfig::small(), 0xA11CE);
}

#[test]
fn model_block_format() {
    run_model(DbConfig { format: TableFormat::Block(1024), ..DbConfig::small() }, 0xB0B);
}

#[test]
fn model_compute_side_compaction() {
    run_model(DbConfig { near_data_compaction: false, ..DbConfig::small() }, 0xC0DE);
}

#[test]
fn model_naive_switch() {
    run_model(
        DbConfig { switch_protocol: SwitchProtocol::NaiveDoubleChecked, ..DbConfig::small() },
        0xD00D,
    );
}

#[test]
fn model_two_sided_data_path() {
    run_model(DbConfig { data_path: dlsm::DataPath::TwoSidedRpc, ..DbConfig::small() }, 0xE66);
}

#[test]
fn model_single_subtask() {
    run_model(DbConfig { compaction_subtasks: 1, ..DbConfig::small() }, 0xF00);
}

#[test]
fn model_many_subtasks() {
    run_model(DbConfig { compaction_subtasks: 8, ..DbConfig::small() }, 0xAB);
}

/// Snapshots must stay frozen while the model keeps evolving.
#[test]
fn snapshots_stay_frozen_under_churn() {
    let r = rig(DbConfig::small());
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut pinned: Vec<(dlsm::Snapshot, BTreeMap<u64, Vec<u8>>)> = Vec::new();
    for (round, (is_put, k, version)) in script(77, 6_000, 400).into_iter().enumerate() {
        if is_put {
            let value = format!("v{k}@{version}").into_bytes();
            r.db.put(&kb(k), &value).unwrap();
            model.insert(k, value);
        } else {
            r.db.delete(&kb(k)).unwrap();
            model.remove(&k);
        }
        if round % 1500 == 747 {
            pinned.push((r.db.snapshot(), model.clone()));
        }
    }
    r.db.force_flush().unwrap();
    r.db.wait_until_quiescent();
    let mut reader = r.db.reader();
    for (snap, frozen) in &pinned {
        for k in (0..400).step_by(7) {
            assert_eq!(
                reader.get_at(snap, &kb(k)).unwrap(),
                frozen.get(&k).cloned(),
                "snapshot diverged at key {k}"
            );
        }
    }
    // Scans at snapshots agree too.
    for (snap, frozen) in &pinned {
        let got: Vec<(Vec<u8>, Vec<u8>)> =
            reader.scan_at(snap, b"").unwrap().map(|i| i.unwrap()).collect();
        let mut want: Vec<(Vec<u8>, Vec<u8>)> =
            frozen.iter().map(|(k, v)| (kb(*k), v.clone())).collect();
        want.sort();
        assert_eq!(got, want);
    }
    r.db.shutdown();
    r.server.shutdown();
}

/// The GC must eventually return dead compaction outputs: total remote usage
/// stays bounded while the same keys are overwritten again and again.
#[test]
fn remote_usage_stays_bounded_under_overwrites() {
    let r = rig(DbConfig::small());
    let mut peak = 0u64;
    for round in 0..8u64 {
        for k in 0..1_500u64 {
            r.db.put(&kb(k), &[round as u8; 120]).unwrap();
        }
        r.db.force_flush().unwrap();
        r.db.wait_until_quiescent();
        let flush = r.db.remote_flush_in_use();
        let compact = r.server.compaction_zone_in_use();
        peak = peak.max(flush + compact);
    }
    // 1500 keys x ~150B = ~230 KiB live; allow generous amplification but
    // catch unbounded growth (8 rounds of leaks would exceed this).
    assert!(
        peak < 24 << 20,
        "remote usage grew unboundedly: peak {} KiB",
        peak >> 10
    );
    let mut reader = r.db.reader();
    assert_eq!(reader.get(&kb(3)).unwrap(), Some(vec![7u8; 120]));
    r.db.shutdown();
    r.server.shutdown();
}

/// Readers racing a writer never observe a torn or out-of-order view.
#[test]
fn concurrent_reader_writer_model() {
    let r = rig(DbConfig::small());
    let db = Arc::new(r.db);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // seqs[k] = (version, seq) of the latest completed put for key k.
    let seqs: Arc<Vec<std::sync::atomic::AtomicU64>> =
        Arc::new((0..80).map(|_| std::sync::atomic::AtomicU64::new(0)).collect());
    std::thread::scope(|s| {
        {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let seqs = Arc::clone(&seqs);
            s.spawn(move || {
                // Monotone versions per key: readers must never see version
                // regress.
                for version in 0..200u64 {
                    for k in 0..40u64 {
                        let seq = db.put(&kb(k), &version.to_le_bytes()).unwrap();
                        seqs[k as usize * 2].store(version, std::sync::atomic::Ordering::Release);
                        seqs[k as usize * 2 + 1].store(seq, std::sync::atomic::Ordering::Release);
                    }
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
        }
        for _ in 0..2 {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let seqs = Arc::clone(&seqs);
            s.spawn(move || {
                let mut reader = db.reader();
                let mut last_seen: BTreeMap<u64, u64> = BTreeMap::new();
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    for k in 0..40u64 {
                        let (got, trace) = reader.get_traced(&kb(k)).unwrap();
                        if let Some(v) = got {
                            let version = u64::from_le_bytes(v.try_into().expect("8B version"));
                            let prev = last_seen.insert(k, version).unwrap_or(0);
                            if version < prev {
                                // Classify: transient visibility blip or
                                // durable loss?
                                let horizon = db.current_seq();
                                let wv = seqs[k as usize * 2].load(std::sync::atomic::Ordering::Acquire);
                                let ws = seqs[k as usize * 2 + 1].load(std::sync::atomic::Ordering::Acquire);
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                let reread = reader
                                    .get(&kb(k))
                                    .unwrap()
                                    .map(|v| u64::from_le_bytes(v.try_into().expect("8B")));
                                let (_, now) = reader.get_traced(&kb(k)).unwrap();
                                panic!(
                                    "version regressed on key {k}: prev={prev} got={version} reread={reread:?} horizon={horizon} latest_put=(v{wv}, seq {ws}) shape={:?}\nfailing read trace:\n{trace}\nread trace now:\n{now}",
                                    db.level_shape(),
                                );
                            }
                        }
                    }
                }
            });
        }
    });
    db.shutdown();
    r.server.shutdown();
}
