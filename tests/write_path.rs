//! The write path, by counts (none of these is timed). A put, a delete and a
//! batch take one pipeline (DESIGN.md §5.4): every call draws one block of
//! consecutive sequence numbers, the counters add up exactly, and a write no
//! empty MemTable holds is refused up front. The picking policy: while writes
//! are arriving, L0 waits for twice its trigger before a job rewrites L1, and
//! once they stop the engine settles below the base trigger (DESIGN.md §5.7
//! "L0 waits while writes flow"). `DbStats` says how many L0 tables each
//! L0 → L1 job retired, and every flushed table is accounted for.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dlsm_repro::dlsm::memtable::ENTRY_OVERHEAD;
use dlsm_repro::dlsm::telemetry::PUT_PHASES;
use dlsm_repro::dlsm::{
    ComputeContext, Db, DbConfig, DbError, DbStatsSnapshot, MemNodeHandle, SwitchProtocol, WriteBatch,
};
use dlsm_repro::memnode::{MemServer, MemServerConfig, RetryPolicy};
use dlsm_repro::rdma_sim::{Fabric, FaultAction, FaultHook, NetworkProfile, OpContext, Verb};
use dlsm_repro::telemetry::OpClass;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn open() -> (MemServer, Db) {
    open_with(DbConfig::small())
}

fn open_with(db_cfg: DbConfig) -> (MemServer, Db) {
    open_on(&Fabric::new(NetworkProfile::instant()), db_cfg)
}

fn open_on(fabric: &Arc<Fabric>, db_cfg: DbConfig) -> (MemServer, Db) {
    let cfg = MemServerConfig { region_size: 96 << 20, flush_zone: 48 << 20, compaction_workers: 2, dispatchers: 1 };
    let server = MemServer::start(fabric, cfg);
    let ctx = ComputeContext::new(fabric);
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
        // Each entry fits an arena (≈ 137 KiB); the four together do not.
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

/// `n` puts of keys `0..n` whose values are all `fill`, then the table
/// switched and flushed and the engine quiesced.
fn fill_one_table(db: &Db, n: u64, fill: u8) {
    for k in 0..n {
        db.put(&key(k), &[fill; 128]).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
}

/// A switch allocates nothing once a retired table's arena has come back
/// (DESIGN.md §5.3): when every table is flushed and let go before the next
/// one fills, two arenas serve 50 switches — the first table's and the
/// second's, taken while the first was still being flushed.
#[test]
fn a_quiesced_writer_switches_fifty_times_over_two_arenas() {
    let (server, db) = open();
    for table in 0..50u8 {
        fill_one_table(&db, 100, table);
    }
    let stats = db.stats().snapshot();
    assert_eq!((stats.switches, stats.memtable_allocs), (50, 2), "{stats}");
    db.shutdown();
    server.shutdown();
}

/// An arena returns only when the last holder of its table lets go: a scan
/// opened on a table keeps reading its own bytes over nine switches while
/// eight later tables write other bytes into recycled arenas, and the arena
/// it pins is one allocation more than the quiesced writer's two.
#[test]
fn a_pinned_memtable_is_never_recycled_under_its_scan() {
    let (server, db) = open();
    for k in 0..100 {
        db.put(&key(k), &[0xEE; 128]).unwrap();
    }
    let mut reader = db.reader();
    let mut scan = reader.scan(b"").unwrap();
    let first = scan.next().unwrap().unwrap();
    for table in 0..8u8 {
        fill_one_table(&db, 100, table);
    }
    let stats = db.stats().snapshot();
    assert_eq!((stats.switches, stats.memtable_allocs), (9, 3), "{stats}");
    let mut want: Vec<_> = (0..100).map(|k| (key(k), vec![0xEE; 128])).collect();
    want.sort();
    let got: Vec<_> = std::iter::once(Ok(first)).chain(scan).collect::<Result<_, _>>().unwrap();
    assert!(got == want, "the scan read bytes that are not its table's");
    drop(reader);
    db.shutdown();
    server.shutdown();
}

/// `(count, sum)` of each put phase histogram, in `PUT_PHASES` order.
fn put_phases(db: &Db) -> Vec<(u64, u64)> {
    let s = db.telemetry_snapshot();
    PUT_PHASES.iter().map(|p| s.breakdown_hist(p)).map(|h| (h.count(), h.sum())).collect()
}

/// The put ledger's identity: `n` puts, each in every phase histogram once,
/// and the phases' sums add up to the calls' sum exactly.
fn assert_put_ledger(db: &Db, n: u64) {
    let put = db.telemetry_snapshot().op(OpClass::Put);
    let phases = put_phases(db);
    assert_eq!(put.count(), n);
    assert_eq!(db.stats().snapshot().puts, n);
    assert!(phases.iter().all(|&(count, _)| count == n), "{phases:?}, {n} puts");
    assert_eq!(phases.iter().map(|&(_, sum)| sum).sum::<u64>(), put.sum(), "{phases:?}");
    assert!(put.sum() > 0);
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

/// The put's ledger (DESIGN.md §8): a writer thread times one put in 16,
/// and every put that switches a table, stalls or runs under tracing; an
/// untimed put repeats, phase by phase, what its slot last timed. Either
/// way every put is one sample in `Put` and one in each of the four phase
/// histograms, and the phases tile the call: their sums add up to `Put`'s.
#[test]
fn every_put_is_in_each_phase_and_the_phases_sum_to_the_calls() {
    // No switch: puts 0, 16, …, 96 are timed, the other 93 repeat.
    let (server, db) = open();
    put_from_a_new_thread(&db, 100, 128);
    assert_eq!(db.stats().snapshot().switches, 0);
    assert_put_ledger(&db, 100);
    db.shutdown();
    server.shutdown();

    // Every put fills its table and switches it (some stall too): all timed.
    let (server, db) = open_with(DbConfig { memtable_size: 4 << 10, ..DbConfig::small() });
    put_from_a_new_thread(&db, 40, 5 << 10);
    let stats = db.stats().snapshot();
    assert_eq!(stats.switches, 40, "{stats}");
    assert_put_ledger(&db, 40);
    db.shutdown();
    server.shutdown();

    // Under tracing every put is timed.
    let (server, db) = open();
    dlsm_trace::set_level(dlsm_trace::Level::All);
    put_from_a_new_thread(&db, 50, 128);
    dlsm_trace::set_level(dlsm_trace::Level::Off);
    assert_put_ledger(&db, 50);
    db.shutdown();
    server.shutdown();
}

/// Two writer threads record into a slot each: the put ledger is exact
/// while both live (their slots are read live) and after they exit (their
/// slots are folded into the retired total), with switches on the way.
#[test]
fn two_writer_threads_keep_the_put_ledger_exact_while_they_live() {
    const PER_WRITER: u64 = 3_000;
    let (server, db) = open();
    let done = std::sync::Barrier::new(3);
    let checked = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        for w in 0..2u64 {
            let (db, done, checked) = (&db, &done, &checked);
            s.spawn(move || {
                for k in 0..PER_WRITER {
                    db.put(&key(w * PER_WRITER + k), &value(k, w)).unwrap();
                }
                done.wait();
                checked.wait();
            });
        }
        done.wait();
        assert_put_ledger(&db, 2 * PER_WRITER);
        checked.wait();
    });
    assert!(db.stats().snapshot().switches > 0, "the load must switch MemTables");
    assert_put_ledger(&db, 2 * PER_WRITER);
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

/// The engine's one monitor (DESIGN.md §5.6): installs follow MemTable
/// order even when the flushes finish out of order, and every wait on the
/// monitor hears shutdown.
mod monitor {
    use super::*;
    use std::sync::OnceLock;

    /// How long a slowed WRITE's completion is held back.
    const SLOW: Duration = Duration::from_millis(200);

    /// Slows every WRITE posted while armed (flushes are the only WRITEs)
    /// and notes when it slowed the first.
    #[derive(Default)]
    struct SlowWrites {
        armed: AtomicBool,
        first: OnceLock<Instant>,
    }

    impl FaultHook for SlowWrites {
        fn delay(&self, op: &OpContext) -> Duration {
            if op.verb != Verb::Write || !self.armed.load(Ordering::Acquire) {
                return Duration::ZERO;
            }
            self.first.get_or_init(Instant::now);
            SLOW
        }
    }

    /// Puts filler keys from `next` on until the database has switched
    /// `switches` times in all; returns the next filler key.
    fn put_until_switched(db: &Db, mut next: u64, switches: u64) -> u64 {
        while db.stats().snapshot().switches < switches {
            db.put(&key(next), &value(next, 0)).unwrap();
            next += 1;
        }
        next
    }

    /// Key K holds an old value in MemTable A and a new one in B, the next.
    /// A's flush WRITE completes 200 ms late, so B's flush, on the other
    /// flush thread, finishes first and must wait for A's turn: until A's
    /// WRITE can have completed, L0 stays empty, and a reader polling K
    /// never goes back to the old value after it has seen the new one.
    #[test]
    fn installs_follow_memtable_order_when_flushes_finish_out_of_order() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let hook = Arc::new(SlowWrites::default());
        fabric.set_fault_hook(Some(hook.clone()));
        let cfg = DbConfig { memtable_size: 4 << 10, flush_threads: 2, ..DbConfig::small() };
        let (server, db) = open_on(&fabric, cfg);
        let k = key(u64::MAX);
        hook.armed.store(true, Ordering::Release);
        db.put(&k, b"old").unwrap();
        let next = put_until_switched(&db, 0, 1);
        let a_posted = loop {
            if let Some(&at) = hook.first.get() {
                break at;
            }
            std::thread::yield_now();
        };
        hook.armed.store(false, Ordering::Release);
        db.put(&k, b"new").unwrap();
        let stop = AtomicBool::new(false);
        let (polls, b_waited) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut reader = db.reader();
                let mut polls = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let got = reader.get(&k).unwrap();
                    assert_eq!(got.as_deref(), Some(&b"new"[..]), "poll {polls} read the older value after the newer one was acknowledged");
                    polls += 1;
                }
                polls
            });
            put_until_switched(&db, next, 2);
            // A flush counts itself before it waits for its turn, so the
            // one flush done before A's WRITE can complete is B's.
            let mut b_waited = false;
            while a_posted.elapsed() < SLOW - Duration::from_millis(20) {
                let flushes = db.stats().snapshot().flushes;
                assert_eq!(db.level_shape()[0], 0, "a table reached L0 before the older flush finished");
                b_waited |= flushes == 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            db.force_flush().unwrap();
            stop.store(true, Ordering::Release);
            (reader.join().unwrap(), b_waited)
        });
        assert!(b_waited, "B's flush did not finish within A's delay, so it never waited for its turn");
        assert!(polls > 0);
        let stats = db.stats().snapshot();
        assert_eq!((stats.flushes, db.level_shape()[0]), (2, 2), "{stats}");
        assert_eq!(db.reader().get(&k).unwrap().as_deref(), Some(&b"new"[..]));
        db.shutdown();
        server.shutdown();
    }

    /// Loses every WRITE: no flush ever completes.
    struct NoWrites;

    impl FaultHook for NoWrites {
        fn action(&self, op: &OpContext) -> FaultAction {
            if op.verb == Verb::Write {
                FaultAction::Blackhole
            } else {
                FaultAction::Deliver
            }
        }
    }

    /// With every flush failing and room for one immutable MemTable, a
    /// writer parks at the stall gate and a caller in `force_flush`. Their
    /// waits have no timeout, so only a notify ends them: both return
    /// `ShuttingDown` within 2 s of shutdown, and `shutdown` returns, having
    /// joined every engine thread — an idle database's too, whose flush
    /// threads only shutdown's own notify wakes. A lost wakeup fails the
    /// test rather than hanging it.
    #[test]
    fn no_waiter_misses_shutdown() {
        let fabric = Fabric::new(NetworkProfile::instant());
        fabric.set_fault_hook(Some(Arc::new(NoWrites)));
        let rpc_retry = RetryPolicy { attempt_timeout: Some(Duration::from_millis(50)), ..RetryPolicy::default() };
        let cfg = DbConfig { max_immutables: 1, rpc_retry, ..DbConfig::small() };
        let (server, db) = open_on(&fabric, cfg);
        let (idle_server, idle) = open_on(&fabric, DbConfig::small());
        let (db, puts) = (Arc::new(db), Arc::new(AtomicU64::new(0)));
        let (tx, rx) = mpsc::channel();
        let writer = {
            let (db, puts, tx) = (Arc::clone(&db), Arc::clone(&puts), tx.clone());
            std::thread::spawn(move || loop {
                let n = puts.load(Ordering::Acquire);
                if let Err(e) = db.put(&key(n), &value(n, 0)) {
                    return tx.send(("writer", Some(e))).unwrap();
                }
                puts.fetch_add(1, Ordering::AcqRel);
            })
        };
        // Parked: a table retired, and the writer stopped moving.
        let mut last = u64::MAX;
        while db.stats().snapshot().switches == 0 || puts.load(Ordering::Acquire) != last {
            last = puts.load(Ordering::Acquire);
            std::thread::sleep(Duration::from_millis(100));
        }
        let flusher = {
            let (db, tx) = (Arc::clone(&db), tx.clone());
            std::thread::spawn(move || tx.send(("force_flush", db.force_flush().err())).unwrap())
        };
        std::thread::sleep(Duration::from_millis(200));
        assert!(!writer.is_finished() && !flusher.is_finished(), "both must be parked");
        let shut_at = Instant::now();
        let shutdown = Arc::clone(&db);
        std::thread::spawn(move || {
            shutdown.shutdown();
            idle.shutdown();
            tx.send(("shutdown", None)).unwrap()
        });
        for _ in 0..3 {
            let (who, got) = rx.recv_timeout(Duration::from_secs(10)).expect("a waiter missed shutdown");
            let after = shut_at.elapsed();
            if who != "shutdown" {
                assert!(matches!(got, Some(DbError::ShuttingDown)), "the {who} got {got:?}");
                assert!(after < Duration::from_secs(2), "the {who} returned {after:?} after shutdown");
            }
        }
        server.shutdown();
        idle_server.shutdown();
    }
}
