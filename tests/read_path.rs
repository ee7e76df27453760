//! The point-read path, by counts and values (ISSUE 17; none of these is
//! timed): what a get may touch, what it must count, what an idle reader
//! may pin, and what it must see.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use dlsm_repro::dlsm::handle::Origin;
use dlsm_repro::dlsm::{CacheConfig, ComputeContext, Db, DbConfig, MemNodeHandle, ShardedDb};
use dlsm_repro::memnode::{MemServer, MemServerConfig};
use dlsm_repro::rdma_sim::{Fabric, NetworkProfile, Verb};
use dlsm_repro::telemetry::OpClass;

struct Rig {
    server: MemServer,
    ctx: Arc<ComputeContext>,
    mem: Arc<MemNodeHandle>,
}

fn rig() -> Rig {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = MemServer::start(
        &fabric,
        MemServerConfig {
            region_size: 192 << 20,
            flush_zone: 96 << 20,
            compaction_workers: 2,
            dispatchers: 1,
        },
    );
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    Rig { server, ctx, mem }
}

impl Rig {
    fn open(&self, cfg: DbConfig) -> Db {
        Db::open(Arc::clone(&self.ctx), Arc::clone(&self.mem), cfg).unwrap()
    }
}

/// One flush thread and one compaction subtask: what ends up where depends
/// on the order of calls below, not on a race between workers.
fn paced(cache: CacheConfig) -> DbConfig {
    DbConfig { flush_threads: 1, compaction_subtasks: 1, cache, ..DbConfig::small() }
}

/// A block pool only: no table image is ever resident, so every located
/// record is a block-pool lookup.
fn blocks_only() -> CacheConfig {
    CacheConfig { extent_percent: 0, promote_extent_after: 0, ..CacheConfig::with_capacity(4 << 20) }
}

fn key(i: u64) -> Vec<u8> {
    let mut k = i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec();
    k.extend_from_slice(format!("-{i:07}").as_bytes());
    k
}

/// Same spread over the key space as `key`, never written.
fn absent(i: u64) -> Vec<u8> {
    let mut k = i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec();
    k.extend_from_slice(b"-absent!");
    k
}

fn settle(db: &Db) {
    db.force_flush().unwrap();
    db.wait_until_quiescent();
}

/// Write keys `range` at `version` in MemTable-sized steps, each flushed
/// and compacted to quiescence before the next.
fn load(db: &Db, range: std::ops::Range<u64>, version: u64) {
    for i in range {
        db.put(&key(i), &value(i, version)).unwrap();
        if i % 256 == 255 {
            settle(db);
        }
    }
    settle(db);
}

fn value(i: u64, version: u64) -> Vec<u8> {
    let mut v = version.to_le_bytes().to_vec();
    v.extend_from_slice(&[i as u8; 120]);
    v
}

fn version_of(value: &[u8]) -> u64 {
    u64::from_le_bytes(value[..8].try_into().unwrap())
}

#[test]
fn bloom_negative_gets_touch_neither_cache_nor_fabric() {
    let r = rig();
    let db = r.open(paced(CacheConfig::with_capacity(4 << 20)));
    load(&db, 0..2_000, 1);
    assert!(db.level_shape().iter().sum::<usize>() >= 3, "want several tables to reject");
    let mut reader = db.reader();
    assert_eq!(reader.get(&key(7)).unwrap(), Some(value(7, 1))); // view cached, cache in use

    let cache_before = db.cache_stats().unwrap();
    let traffic_before = reader.traffic();
    let skips_before = db.telemetry_snapshot().counter("bloom_skips");
    for i in 0..10_000 {
        assert_eq!(reader.get(&absent(i)).unwrap(), None);
    }
    // The tables' filters and indexes said no (a few keys fall between two
    // tables' ranges and meet no filter at all), and that was all: no pool
    // was asked, nothing was admitted or evicted, nothing crossed the fabric.
    let skips = db.telemetry_snapshot().counter("bloom_skips") - skips_before;
    assert!(skips >= 9_000, "only {skips} filter rejections in 10 000 absent gets");
    assert_eq!(db.cache_stats().unwrap(), cache_before);
    assert_eq!(reader.traffic(), traffic_before);
    db.shutdown();
    r.server.shutdown();
}

#[test]
fn present_remote_get_is_one_read_one_lookup_one_admission() {
    let r = rig();
    let db = r.open(paced(blocks_only()));
    load(&db, 0..2_000, 1);
    let mut reader = db.reader();
    for i in [3u64, 777, 1_999] {
        let (cache0, reads0) = (db.cache_stats().unwrap(), reader.traffic().ops(Verb::Read));
        assert_eq!(reader.get(&key(i)).unwrap(), Some(value(i, 1)));
        let (cache1, reads1) = (db.cache_stats().unwrap(), reader.traffic().ops(Verb::Read));
        assert_eq!(reads1 - reads0, 1, "key {i}: one record, one READ");
        assert_eq!(cache1.block_misses - cache0.block_misses, 1, "key {i}: one pool lookup");
        assert_eq!(cache1.block_hits, cache0.block_hits);
        assert_eq!(cache1.inserts - cache0.inserts, 1, "key {i}: one admission");

        assert_eq!(reader.get(&key(i)).unwrap(), Some(value(i, 1)));
        let (cache2, reads2) = (db.cache_stats().unwrap(), reader.traffic().ops(Verb::Read));
        assert_eq!(reads2, reads1, "key {i}: the repeat is served from the cache");
        assert_eq!(cache2.block_hits - cache1.block_hits, 1);
        assert_eq!(cache2.inserts, cache1.inserts);
    }
    db.shutdown();
    r.server.shutdown();
}

/// One get of a present key, as `(READs, pool lookups, pool hits, inserts,
/// evictions)`.
fn get_cost(db: &Db, reader: &mut dlsm_repro::dlsm::DbReader, i: u64) -> [u64; 5] {
    let (cache0, reads0) = (db.cache_stats().unwrap(), reader.traffic().ops(Verb::Read));
    assert_eq!(reader.get(&key(i)).unwrap(), Some(value(i, 1)), "key {i}");
    let cache1 = db.cache_stats().unwrap();
    [
        reader.traffic().ops(Verb::Read) - reads0,
        cache1.block_hits + cache1.block_misses - cache0.block_hits - cache0.block_misses,
        cache1.block_hits - cache0.block_hits,
        cache1.inserts - cache0.inserts,
        cache1.evictions - cache0.evictions,
    ]
}

/// [`blocks_only`] with room for about `records` of the test's records, in
/// `shards` shards.
fn small_pool(records: u64, shards: usize, ghost_entries: usize) -> CacheConfig {
    // One record: two length bytes, a 24-byte internal key, a 128-byte
    // value — plus the pool's 96-byte charge per entry.
    CacheConfig { capacity_bytes: records * (154 + 96), shards, ghost_entries, ..blocks_only() }
}

#[test]
fn a_full_pool_admits_a_record_on_its_second_miss() {
    let r = rig();
    let db = r.open(paced(small_pool(200, 1, 1 << 10)));
    load(&db, 0..2_000, 1);
    let mut reader = db.reader();
    // Fill the pool; from then on a key seen for the first time costs its
    // READ and its one lookup, and leaves the pool as it was.
    for i in 0..400 {
        let cost = get_cost(&db, &mut reader, i);
        assert_eq!(cost[..3], [1, 1, 0], "key {i}: one READ, one lookup, a miss");
        // Room for about 200 records: admitted while it lasts.
        assert!(cost[3] == u64::from(i < 150) || (150..250).contains(&i), "key {i}: {cost:?}");
        assert_eq!(cost[4], 0, "key {i}: nothing admitted, nothing evicted");
    }
    for i in [1_000u64, 1_500, 1_999] {
        assert_eq!(get_cost(&db, &mut reader, i), [1, 1, 0, 0, 0], "key {i}: first miss");
        // Missed again while the ghost table remembers it: admitted, and
        // something colder makes room.
        assert_eq!(get_cost(&db, &mut reader, i), [1, 1, 0, 1, 1], "key {i}: second miss");
        assert_eq!(get_cost(&db, &mut reader, i), [0, 1, 1, 0, 0], "key {i}: third get is a hit");
    }
    db.shutdown();
    r.server.shutdown();
}

#[test]
fn a_uniform_sweep_keeps_its_hits_and_evicts_next_to_nothing() {
    const KEYS: u64 = 2_100;
    let r = rig();
    // A pool of a seventh of the data whose ghost table remembers the last
    // 64 misses, 3 % of the keys (get-remote: 8 192 of 500 000).
    let db = r.open(paced(small_pool(KEYS / 7, 1, 64)));
    load(&db, 0..KEYS, 1);
    let mut reader = db.reader();
    let mut x = 1u64;
    let mut uniform = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % KEYS
    };
    for _ in 0..2 * KEYS {
        let i = uniform();
        assert_eq!(reader.get(&key(i)).unwrap(), Some(value(i, 1))); // warm up: fill the pool
    }
    let before = db.cache_stats().unwrap();
    let gets = 7 * KEYS;
    for _ in 0..gets {
        let i = uniform();
        assert_eq!(reader.get(&key(i)).unwrap(), Some(value(i, 1)));
    }
    let after = db.cache_stats().unwrap();
    let evictions = after.evictions - before.evictions;
    assert!(evictions * 10 <= gets, "{evictions} evictions in {gets} gets");
    let resident = (after.inserts - after.evictions - after.invalidations) as f64 / KEYS as f64;
    let hits = (after.block_hits - before.block_hits) as f64 / gets as f64;
    assert!(resident > 0.12, "the pool holds {resident:.3} of the keys, sized for 1/7");
    assert!(hits >= 0.8 * resident, "hit fraction {hits:.3} with {resident:.3} of the keys resident");
    db.shutdown();
    r.server.shutdown();
}

#[test]
fn a_hot_set_takes_over_a_pool_full_of_cold_records() {
    let r = rig();
    let db = r.open(paced(small_pool(2_000, 4, CacheConfig::default().ghost_entries)));
    load(&db, 0..4_000, 1);
    let mut reader = db.reader();
    for i in 1_000..4_000 {
        assert_eq!(reader.get(&key(i)).unwrap(), Some(value(i, 1))); // cold: one touch each
    }
    let full = db.cache_stats().unwrap();
    assert!(full.resident_bytes * 10 >= full.capacity_bytes * 9, "pool not full: {full:?}");
    let mut pass = || (0..1_000).filter(|&i| get_cost(&db, &mut reader, i)[2] == 1).count();
    let hits = [pass(), pass(), pass()];
    assert_eq!(hits[..2], [0, 0], "first pass remembered, second admitted");
    assert!(hits[2] >= 900, "third pass of the hot set hit {} times in 1 000", hits[2]);
    db.shutdown();
    r.server.shutdown();
}

#[test]
fn reader_counters_are_exact_while_the_readers_live() {
    let r = rig();
    let db = r.open(paced(CacheConfig::default()));
    load(&db, 0..1_000, 1);
    const PER_READER: u64 = 1_500;
    let before = (db.stats().snapshot(), db.telemetry_snapshot());
    // Both readers finish their gets, then stay alive across the first
    // barrier while the totals are read.
    let done = Barrier::new(3);
    let checked = Barrier::new(3);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (db, done, checked) = (&db, &done, &checked);
            s.spawn(move || {
                let mut reader = db.reader();
                for i in 0..PER_READER {
                    // Two in three present.
                    let k = if i % 3 == 0 { absent(i + t) } else { key((i * 7 + t) % 1_000) };
                    assert_eq!(reader.get(&k).unwrap().is_some(), i % 3 != 0);
                }
                done.wait();
                checked.wait();
            });
        }
        done.wait();
        let stats = db.stats().snapshot().delta(&before.0);
        let tel = db.telemetry_snapshot().delta(&before.1);
        assert_eq!(stats.gets, 2 * PER_READER);
        assert_eq!(stats.get_hits, 2 * (PER_READER - PER_READER / 3));
        assert_eq!(
            tel.op(OpClass::GetHit).count() + tel.op(OpClass::GetMiss).count(),
            2 * PER_READER
        );
        assert_eq!(tel.op(OpClass::GetHit).count(), stats.get_hits);
        assert_eq!(tel.breakdown_hist("get_memtable").count(), 2 * PER_READER);
        assert_eq!(tel.counter("gets"), 2 * PER_READER);
        checked.wait();
    });
    // ...and nothing is lost or repeated when the blocks retire.
    let stats = db.stats().snapshot().delta(&before.0);
    assert_eq!(stats.gets, 2 * PER_READER);
    assert_eq!(
        db.telemetry_snapshot().delta(&before.1).breakdown_hist("get_memtable").count(),
        2 * PER_READER
    );
    db.shutdown();
    r.server.shutdown();
}

/// A get is timed one time in sixteen and the other fifteen repeat what that
/// one measured; on a stationary stream the histogram this fills reads as
/// one filled by timing every get.
#[test]
fn sampled_get_latency_agrees_with_timing_every_get() {
    use dlsm_repro::telemetry::{bucket_index, Histogram};
    // A fabric whose READ takes ≈ 2 µs: next to it this test's own two
    // clock reads per get, which the reader's clock does not see, are small.
    let fabric = Fabric::new(NetworkProfile::edr_100g());
    let server = MemServer::start(
        &fabric,
        MemServerConfig { region_size: 64 << 20, flush_zone: 32 << 20, compaction_workers: 2, dispatchers: 1 },
    );
    let db = Db::open(
        ComputeContext::new(&fabric),
        MemNodeHandle::from_server(&server),
        paced(CacheConfig::default()),
    )
    .unwrap();
    load(&db, 0..1_000, 1);
    let mut reader = db.reader();
    let before = db.telemetry_snapshot();
    let every = Histogram::new();
    const GETS: u64 = 32_000;
    for n in 0..GETS {
        let (i, k) = (n * 7 % 1_000, key(n * 7 % 1_000));
        let t0 = std::time::Instant::now();
        let got = reader.get(&k).unwrap();
        every.record(t0.elapsed().as_nanos() as u64);
        assert_eq!(got, Some(value(i, 1)));
    }
    let sampled = db.telemetry_snapshot().delta(&before).op(OpClass::GetHit).clone();
    assert_eq!(sampled.count(), GETS, "every get is in the histogram");
    let (sampled, every) = (sampled.p50(), every.snapshot().p50());
    assert!(
        bucket_index(sampled).abs_diff(bucket_index(every)) <= 1,
        "p50 of one get in 16: {sampled} ns, of every get: {every} ns"
    );
    db.shutdown();
    server.shutdown();
}

/// What the remote side holds at the end of `idle_reader_run`: live extents
/// as sorted `(origin, length)`, and the bytes in use in the flush zone and
/// in the compaction zone.
type Footprint = (Vec<(u8, u64)>, u64, u64);

/// Load, (optionally) let a reader get once and go idle, overwrite every
/// key, flush, compact, quiesce.
fn idle_reader_run(with_idle_reader: bool) -> Footprint {
    let r = rig();
    let db = r.open(paced(CacheConfig::default()));
    load(&db, 0..1_500, 1);
    // One more flush, below the compaction trigger: the view the reader is
    // about to keep holds flush-zone tables as well as compacted ones.
    for i in 1_500..1_700 {
        db.put(&key(i), &value(i, 1)).unwrap();
    }
    db.force_flush().unwrap();
    assert!(db.level_shape()[0] >= 1);
    let mut idle = with_idle_reader.then(|| db.reader());
    if let Some(reader) = &mut idle {
        assert_eq!(reader.get(&key(42)).unwrap(), Some(value(42, 1)));
    }
    load(&db, 0..1_700, 2);
    assert!(db.stats().snapshot().compactions >= 1);

    let mut extents: Vec<(u8, u64)> = db
        .live_extents()
        .into_iter()
        .map(|(origin, _offset, len)| (origin as u8, len))
        .collect();
    extents.sort_unstable();
    let live = |zone: Origin| -> u64 {
        db.live_extents().iter().filter(|(origin, ..)| *origin == zone).map(|(.., len)| len).sum()
    };
    // Nothing but the live tables holds remote memory — no superseded view
    // is pinned anywhere. (Compaction-zone frees travel in batches; give
    // the last one a moment.)
    assert_eq!(db.remote_flush_in_use(), live(Origin::Compute), "idle reader: {with_idle_reader}");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while r.server.compaction_zone_in_use() != live(Origin::MemNode) {
        assert!(
            std::time::Instant::now() < deadline,
            "compaction zone holds {} B, live tables {} B (idle reader: {with_idle_reader})",
            r.server.compaction_zone_in_use(),
            live(Origin::MemNode)
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let footprint = (extents, db.remote_flush_in_use(), r.server.compaction_zone_in_use());

    if let Some(reader) = &mut idle {
        assert_eq!(reader.get(&key(42)).unwrap(), Some(value(42, 2)), "newest value");
    }
    drop(idle);
    db.shutdown();
    r.server.shutdown();
    footprint
}

#[test]
fn idle_reader_pins_nothing_and_reads_the_newest_value() {
    assert_eq!(idle_reader_run(true), idle_reader_run(false));
}

/// One writer overwrites `KEYS` keys round after round and publishes each
/// version once its put has returned; `get` (on a reader that keeps its
/// view between calls) must never return an older one. Runs until the
/// writer has switched MemTables `switches` times.
fn read_your_writes(
    put: impl Fn(&[u8], &[u8]) + Sync,
    mut get: impl FnMut(&[u8]) -> Option<Vec<u8>>,
    switches_so_far: impl Fn() -> u64 + Sync,
    switches: u64,
) {
    const KEYS: u64 = 24;
    let acked: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut version = 0;
            while switches_so_far() < switches {
                version += 1;
                for k in 0..KEYS {
                    put(&key(k), &value(k, version));
                    acked[k as usize].store(version, Ordering::Release);
                }
            }
            stop.store(true, Ordering::Release);
        });
        let mut reads = 0u64;
        while !stop.load(Ordering::Acquire) {
            for k in 0..KEYS {
                let floor = acked[k as usize].load(Ordering::Acquire);
                let got = get(&key(k)).map_or(0, |v| version_of(&v));
                assert!(got >= floor, "key {k}: read version {got} after {floor} was acknowledged");
                reads += 1;
            }
        }
        assert!(reads > 0);
    });
}

#[test]
fn read_your_writes_across_memtable_switches() {
    let r = rig();
    let db = r.open(DbConfig::small());
    let mut reader = db.reader();
    read_your_writes(
        |k, v| {
            db.put(k, v).unwrap();
        },
        |k| reader.get(k).unwrap(),
        || db.stats().snapshot().switches,
        60,
    );
    db.shutdown();

    let sharded =
        ShardedDb::open(Arc::clone(&r.ctx), &[Arc::clone(&r.mem)], DbConfig::small(), 2).unwrap();
    let mut reader = sharded.reader();
    read_your_writes(
        |k, v| {
            sharded.put(k, v).unwrap();
        },
        |k| reader.get(k).unwrap(),
        || sharded.stats_snapshot().switches,
        120,
    );
    sharded.shutdown();
    r.server.shutdown();
}

/// The get-side counters a lookup may move, as deltas against `before`.
fn get_side(db: &Db, before: [u64; 5]) -> [u64; 5] {
    let s = db.telemetry_snapshot();
    let now =
        ["gets", "get_hits", "bloom_skips", "get_tombstones", "l0_cache_hits"].map(|c| s.counter(c));
    std::array::from_fn(|i| now[i] - before[i])
}

#[test]
fn multi_get_counts_exactly_as_the_same_gets_would() {
    // Two fresh databases taken through the same steps: old keys end up in
    // compacted tables with no local image, the last flush leaves an L0
    // table whose image is resident, and a few tombstones sit on top.
    let build = |r: &Rig| {
        let cache =
            CacheConfig { promote_extent_after: 0, ..CacheConfig::with_capacity(1 << 20) };
        let db = r.open(paced(cache));
        load(&db, 0..1_200, 1);
        for i in 1_200..1_300 {
            db.put(&key(i), &value(i, 1)).unwrap();
        }
        for i in (0..1_300).step_by(100) {
            db.delete(&key(i)).unwrap();
        }
        db.force_flush().unwrap(); // no quiesce: the image-bearing table stays in L0
        for i in (50..1_300).step_by(100) {
            db.delete(&key(i)).unwrap(); // tombstones in the MemTable
        }
        db
    };
    // Present (remote and image-resident), absent, deleted (in a table and
    // in the MemTable) — no key twice, so no lookup warms the next.
    let keys: Vec<Vec<u8>> = (0..1_300)
        .step_by(25)
        .map(key)
        .chain((0..40).map(absent))
        .collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();

    let (r1, r2) = (rig(), rig());
    let (one_by_one, batched) = (build(&r1), build(&r2));
    assert_eq!(one_by_one.level_shape(), batched.level_shape());

    let mut reader = one_by_one.reader();
    let before = get_side(&one_by_one, [0; 5]);
    let singles: Vec<Option<Vec<u8>>> = refs.iter().map(|k| reader.get(k).unwrap()).collect();
    let single_counts = get_side(&one_by_one, before);
    let single_reads = reader.traffic().ops(Verb::Read);

    let mut reader = batched.reader();
    let before = get_side(&batched, [0; 5]);
    let batch = reader.multi_get(&refs).unwrap();
    let batch_counts = get_side(&batched, before);
    let batch_reads = reader.traffic().ops(Verb::Read);

    assert_eq!(batch, singles);
    assert_eq!(batch_counts, single_counts, "[gets, hits, bloom skips, tombstones, image hits]");
    assert_eq!(batch_reads, single_reads);
    // The key list does exercise every counter, and the fabric.
    assert!(single_counts.iter().all(|&c| c > 0), "{single_counts:?}");
    assert!(single_reads > 0);
    for db in [one_by_one, batched] {
        db.shutdown();
    }
    r1.server.shutdown();
    r2.server.shutdown();
}
