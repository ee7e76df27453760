//! The write path, by counts (none of these is timed). A put, a delete and a
//! batch take one pipeline (DESIGN.md §5.4): every call draws one block of
//! consecutive sequence numbers, the counters add up exactly, and a write no
//! empty MemTable holds is refused up front. The picking policy: while writes
//! are arriving, L0 waits for twice its trigger before a job rewrites L1, and
//! once they stop the engine settles below the base trigger (DESIGN.md §5.7
//! "L0 waits while writes flow"). `DbStats` says how many L0 tables each
//! L0 → L1 job retired, and every flushed table is accounted for.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use dlsm_repro::dlsm::memtable::ENTRY_OVERHEAD;
use dlsm_repro::dlsm::telemetry::PUT_PHASES;
use dlsm_repro::dlsm::{
    ComputeContext, Db, DbConfig, DbError, DbStatsSnapshot, MemNodeHandle, SwitchProtocol, WriteBatch,
};
use dlsm_repro::memnode::{MemServer, MemServerConfig};
use dlsm_repro::rdma_sim::{Fabric, NetworkProfile};
use dlsm_repro::telemetry::OpClass;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn open() -> (MemServer, Db) {
    open_with(DbConfig::small())
}

fn open_with(db_cfg: DbConfig) -> (MemServer, Db) {
    let fabric = Fabric::new(NetworkProfile::instant());
    let cfg = MemServerConfig { region_size: 96 << 20, flush_zone: 48 << 20, compaction_workers: 2, dispatchers: 1 };
    let server = MemServer::start(&fabric, cfg);
    let ctx = ComputeContext::new(&fabric);
    let db = Db::open(ctx, MemNodeHandle::from_server(&server), db_cfg).unwrap();
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

/// A write that no empty MemTable's arena holds used to rotate tables
/// forever: arena full → switch the (empty) table → draw again. It is
/// refused before it draws a sequence number, whether one value is too large
/// or a batch's entries add up past the arena. Run on a helper thread so a
/// livelock fails the test instead of hanging it.
#[test]
fn a_write_larger_than_a_memtable_is_refused_before_it_draws_a_sequence_number() {
    let (server, db) = open();
    let db = Arc::new(db);
    db.put(b"small", b"before").unwrap();
    let before = db.stats().snapshot();
    let horizon = db.current_seq();
    let (tx, rx) = mpsc::channel();
    let writer = Arc::clone(&db);
    let helper = std::thread::spawn(move || {
        let put = writer.put(b"big", &[7; 1 << 20]);
        // Each entry fits an arena (≈ 199 KiB); the four together do not.
        let mut batch = WriteBatch::new();
        for i in 0..4u8 {
            batch.put(&[b'b', i], &[i; 64 << 10]);
        }
        let _ = tx.send((put, writer.write(&batch)));
    });
    let (put, batch) = rx.recv_timeout(Duration::from_secs(10)).expect("an oversized write made no progress");
    helper.join().unwrap();
    assert!(matches!(put, Err(DbError::InvalidArgument(_))), "{put:?}");
    assert!(matches!(batch, Err(DbError::InvalidArgument(_))), "{batch:?}");
    let after = db.stats().snapshot();
    assert_eq!((after.switches, after.reseqs, after.puts), (before.switches, before.reseqs, before.puts), "{after}");
    assert_eq!(db.current_seq(), horizon);

    db.put(b"after", b"ok").unwrap();
    let mut reader = db.reader();
    assert_eq!(reader.get(b"small").unwrap(), Some(b"before".to_vec()));
    assert_eq!(reader.get(b"after").unwrap(), Some(b"ok".to_vec()));
    assert_eq!(reader.get(b"big").unwrap(), None);
    drop(reader);
    db.shutdown();
    server.shutdown();
}

/// The refusal is exact: the largest key + value an empty MemTable's arena
/// holds is written and read back, and one byte more is refused.
#[test]
fn the_largest_write_an_empty_memtable_holds_is_accepted_and_one_byte_more_is_refused() {
    let (server, db) = open();
    let largest = DbConfig::small().arena_capacity() - ENTRY_OVERHEAD;
    let value = vec![0x5A; largest - b"largest".len()];
    db.put(b"largest", &value).unwrap();
    let before = db.stats().snapshot();
    let put = db.put(b"largest+", &value);
    assert!(matches!(put, Err(DbError::InvalidArgument(_))), "{put:?}");
    assert_eq!(db.stats().snapshot().puts, before.puts);
    let mut reader = db.reader();
    assert_eq!(reader.get(b"largest").unwrap().as_deref(), Some(&value[..]));
    db.wait_until_quiescent();
    assert_eq!(db.stats().snapshot().flushes, 1);
    assert_eq!(reader.get(b"largest").unwrap().as_deref(), Some(&value[..]));
    drop(reader);
    db.shutdown();
    server.shutdown();
}

/// The phase histograms of the puts `db` timed, in `PUT_PHASES` order.
fn put_phases(db: &Db) -> Vec<(u64, u64)> {
    let s = db.telemetry_snapshot();
    PUT_PHASES.iter().map(|p| s.breakdown_hist(p)).map(|h| (h.count(), h.sum())).collect()
}

/// `n` puts from a writer thread of its own (its one-in-16 count starts at 0).
fn put_from_a_new_thread(db: &Db, n: u64, value_len: usize) {
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0..n {
                db.put(&key(k), &vec![k as u8; value_len]).unwrap();
            }
        });
    });
}

/// The put's ledger (DESIGN.md §8): every put is one `Put` sample; a writer
/// thread times one put in 16, and every put that switches a table, stalls
/// or runs under tracing; only timed puts feed the four phase histograms,
/// whose sum is at most the calls' latency.
#[test]
fn one_put_in_sixteen_is_timed_and_its_phases_fit_inside_the_call() {
    // No switch: puts 0, 16, …, 96 are timed.
    let (server, db) = open();
    put_from_a_new_thread(&db, 100, 128);
    assert_eq!(db.stats().snapshot().switches, 0);
    assert_eq!(db.telemetry_snapshot().op(OpClass::Put).count(), 100);
    assert!(put_phases(&db).iter().all(|&(count, _)| count == 7), "{:?}", put_phases(&db));
    db.shutdown();
    server.shutdown();

    // Every put fills its table and switches it (some stall too): all timed.
    let (server, db) = open_with(DbConfig { memtable_size: 4 << 10, ..DbConfig::small() });
    put_from_a_new_thread(&db, 40, 5 << 10);
    let stats = db.stats().snapshot();
    assert_eq!(stats.switches, 40, "{stats}");
    assert_eq!(db.telemetry_snapshot().op(OpClass::Put).count(), 40);
    assert!(put_phases(&db).iter().all(|&(count, _)| count == 40), "{:?}", put_phases(&db));
    db.shutdown();
    server.shutdown();

    // Under tracing every put is timed, and its phases sum to at most its call.
    let (server, db) = open();
    dlsm_trace::set_level(dlsm_trace::Level::All);
    put_from_a_new_thread(&db, 50, 128);
    dlsm_trace::set_level(dlsm_trace::Level::Off);
    let put = db.telemetry_snapshot().op(OpClass::Put);
    let phases = put_phases(&db);
    assert!(phases.iter().all(|&(count, _)| count == 50), "{phases:?}");
    let phase_sum: u64 = phases.iter().map(|&(_, sum)| sum).sum();
    assert!(phase_sum <= put.sum(), "phases {phase_sum} ns > calls {} ns", put.sum());
    assert!(phase_sum > 0);
    db.shutdown();
    server.shutdown();
}

/// A put timed only because it stalled (or switched) records its own
/// latency once: the untimed puts after it repeat the thread's last
/// *scheduled* latency, not the stall. Every fabric op here costs 30 ms, so
/// with one immutable slot the first put after the first switch waits about
/// that long for the flush; no other put comes near 10 ms.
#[test]
fn a_stalled_put_is_one_slow_sample_not_a_repeated_one() {
    const SLOW_NS: u64 = 10_000_000;
    const SAMPLE_EVERY: u64 = 16;
    let slow_fabric = NetworkProfile { base_latency: Duration::from_millis(30), ..NetworkProfile::instant() };
    let fabric = Fabric::new(slow_fabric);
    let cfg = MemServerConfig { region_size: 96 << 20, flush_zone: 48 << 20, compaction_workers: 2, dispatchers: 1 };
    let server = MemServer::start(&fabric, cfg);
    let db_cfg = DbConfig { max_immutables: 1, flush_threads: 1, ..DbConfig::small() };
    let ctx = ComputeContext::new(&fabric);
    let db = Db::open(ctx, MemNodeHandle::from_server(&server), db_cfg).unwrap();
    // The writer's own count starts at 0: puts 0, 16, 32, … are scheduled.
    let (stalled, stall_ns, total) = std::thread::scope(|s| {
        s.spawn(|| {
            let mut k = 0;
            while db.stats().snapshot().switches == 0 {
                db.put(&key(k), &value(k, 0)).unwrap();
                k += 1;
            }
            let stalled = k;
            let t = std::time::Instant::now();
            db.put(&key(k), &value(k, 0)).unwrap();
            let stall_ns = t.elapsed().as_nanos() as u64;
            for k in k + 1..k + 40 {
                db.put(&key(k), &value(k, 0)).unwrap();
            }
            (stalled, stall_ns, k + 40)
        })
        .join()
        .unwrap()
    });
    let put = db.telemetry_snapshot().op(OpClass::Put);
    let stats = db.stats().snapshot();
    db.shutdown();
    server.shutdown();
    assert!(stall_ns >= 2 * SLOW_NS, "put {stalled} took {stall_ns} ns: it did not stall");
    assert_eq!(stats.stall_events, 1, "{stats}");
    let within_schedule = stalled % SAMPLE_EVERY;
    assert!(
        (1..SAMPLE_EVERY - 1).contains(&within_schedule),
        "put {stalled} must be followed by unscheduled puts"
    );
    assert_eq!(put.count(), total, "one Put sample per put");
    let slow: u64 =
        put.nonzero_buckets().filter(|&(floor, _)| floor >= SLOW_NS).map(|(_, n)| n).sum();
    assert_eq!(slow, 1, "the stalled put must be the one slow sample");
}

/// Calls per writer of the mixed load: a third each puts, deletes and batches.
const CALLS: u64 = 1_000;

/// One writer's share of the mixed load, over keys no other writer touches,
/// so the final state is known whatever the interleaving.
#[derive(Default)]
struct Load {
    model: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// `(first_seq, count)` of every call.
    blocks: Vec<(u64, u64)>,
    entries: u64,
}

fn mixed_load(db: &Db, writer: u64) -> Load {
    let mut rng = SmallRng::seed_from_u64(writer);
    let mut load = Load::default();
    let next_key = |rng: &mut SmallRng| key(writer * 1_000 + rng.gen_range(0..300));
    for call in 0..CALLS {
        let k = next_key(&mut rng);
        let v = value(writer, call);
        let block = match call % 3 {
            0 => {
                load.model.insert(k.clone(), Some(v.clone()));
                (db.put(&k, &v).unwrap(), 1)
            }
            1 => {
                load.model.insert(k.clone(), None);
                (db.delete(&k).unwrap(), 1)
            }
            _ => {
                let mut batch = WriteBatch::new();
                batch.put(&k, &v);
                load.model.insert(k, Some(v));
                for _ in 1..rng.gen_range(2..9u32) {
                    let k = next_key(&mut rng);
                    if rng.gen_range(0..4u32) == 0 {
                        batch.delete(&k);
                        load.model.insert(k, None);
                    } else {
                        let v = value(writer, call + rng.gen_range(0..1_000));
                        batch.put(&k, &v);
                        load.model.insert(k, Some(v));
                    }
                }
                let commit = db.write(&batch).unwrap();
                assert_eq!(commit.count, batch.len() as u64);
                (commit.first_seq, commit.count)
            }
        };
        load.entries += block.1;
        load.blocks.push(block);
    }
    load
}

/// The counts of a finished mixed load, then every key's value once the
/// engine is quiescent.
fn check_mixed(db: &Db, loads: &[Load]) -> BTreeMap<Vec<u8>, Option<Vec<u8>>> {
    let stats = db.stats().snapshot();
    let entries: u64 = loads.iter().map(|l| l.entries).sum();
    assert_eq!(stats.puts + stats.deletes, entries, "{stats}");
    let calls = CALLS * loads.len() as u64;
    assert_eq!(db.telemetry_snapshot().op(OpClass::Put).count(), calls);
    let mut blocks: Vec<(u64, u64)> = loads.iter().flat_map(|l| l.blocks.iter().copied()).collect();
    blocks.sort_unstable();
    for pair in blocks.windows(2) {
        assert!(pair[0].0 + pair[0].1 <= pair[1].0, "blocks {:?} and {:?} share a sequence number", pair[0], pair[1]);
    }
    let (last, count) = blocks[blocks.len() - 1];
    assert!(last + count - 1 <= db.current_seq());

    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let mut reader = db.reader();
    let mut state = BTreeMap::new();
    for (k, v) in loads.iter().flat_map(|l| &l.model) {
        assert_eq!(&reader.get(k).unwrap(), v, "key {}", String::from_utf8_lossy(k));
        state.insert(k.clone(), v.clone());
    }
    state
}

#[test]
fn puts_deletes_and_batches_share_one_pipeline_with_exact_counts() {
    let (server, db) = open();
    let loads: Vec<Load> = std::thread::scope(|s| {
        let db = &db;
        let writers: Vec<_> = (0..4).map(|w| s.spawn(move || mixed_load(db, w))).collect();
        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let switches = db.stats().snapshot().switches;
    assert!(switches >= 50, "{switches} MemTable switches");
    let state = check_mixed(&db, &loads);
    db.shutdown();
    server.shutdown();

    // The naive protocol is the same loop over whole-space tables: only the
    // size trigger switches, and one writer ends in the same state.
    let (server, db) =
        open_with(DbConfig { switch_protocol: SwitchProtocol::NaiveDoubleChecked, ..DbConfig::small() });
    let loads: Vec<Load> = (0..4).map(|w| mixed_load(&db, w)).collect();
    assert!(db.stats().snapshot().switches > 0);
    assert_eq!(check_mixed(&db, &loads), state);
    db.shutdown();
    server.shutdown();
}
