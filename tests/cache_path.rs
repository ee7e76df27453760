//! Cached table images survive compaction (ISSUE 24; counts and bytes, none
//! of these is timed): a near-data compaction's outputs inherit their inputs'
//! images — gathered locally while the reply is replayed — when somebody reads
//! those inputs, are admitted before the new version is published, and are
//! byte for byte what the memory node wrote.
//!
//! Promotions that pay ((g)–(j)): a table enters a full extent pool
//! only in place of images readers stopped hitting, so uniform traffic
//! promotes nothing, a moved or skewed hot set still moves the pool, and a
//! working set just larger than the pool cannot thrash it.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dlsm_repro::dlsm::compaction::{run_near_data, CompactionJob, CompactionOutcome, Image};
use dlsm_repro::dlsm::handle::{Extent, GcSink, MetaKind, Origin, TableHandle};
use dlsm_repro::dlsm::{CacheConfig, ComputeContext, Db, DbConfig, DbReader, MemNodeHandle, ReadCache};
use dlsm_repro::memnode::{ClientNetStats, MemServer, MemServerConfig};
use dlsm_repro::rdma_sim::{Fabric, NetworkProfile, Verb};
use dlsm_repro::sstable::byte_addr::ByteAddrBuilder;
use dlsm_repro::sstable::key;
use dlsm_repro::sstable::{InternalKey, ValueType};

struct Rig {
    fabric: Arc<Fabric>,
    server: MemServer,
    ctx: Arc<ComputeContext>,
    mem: Arc<MemNodeHandle>,
}

fn rig() -> Rig {
    let fabric = Fabric::new(NetworkProfile::instant());
    let cfg = MemServerConfig { region_size: 192 << 20, flush_zone: 96 << 20, compaction_workers: 2, dispatchers: 1 };
    let server = MemServer::start(&fabric, cfg);
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    Rig { fabric, server, ctx, mem }
}

impl Rig {
    fn open(&self, cfg: DbConfig) -> Db {
        Db::open(Arc::clone(&self.ctx), Arc::clone(&self.mem), cfg).unwrap()
    }

    /// `table`'s extent as the memory node holds it, read back over a QP.
    fn remote_bytes(&self, table: &TableHandle) -> Vec<u8> {
        let mut qp = self.fabric.create_qp(self.ctx.node().id(), self.mem.node_id()).unwrap();
        let mut bytes = vec![0u8; table.extent.len as usize];
        qp.read_sync(table.home.addr(table.extent.offset), &mut bytes).unwrap();
        bytes
    }
}

/// One flush thread and one compaction sub-task: what ends up where depends
/// on the order of calls below, not on a race between workers.
fn paced(cache: CacheConfig) -> DbConfig {
    DbConfig { flush_threads: 1, compaction_subtasks: 1, cache, ..DbConfig::small() }
}

/// An extent pool only (so every admission the cache counts is an image), of
/// one shard, with room for `capacity_bytes` of images.
fn images_only(capacity_bytes: u64) -> CacheConfig {
    CacheConfig { extent_percent: 100, shards: 4, ..CacheConfig::with_capacity(capacity_bytes) }
}

fn user_key(i: u64) -> Vec<u8> {
    let mut k = i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec();
    k.extend_from_slice(format!("-{i:07}").as_bytes());
    k
}

fn value(i: u64, version: u64) -> Vec<u8> {
    let mut v = version.to_le_bytes().to_vec();
    v.extend_from_slice(&[i as u8; 120]);
    v
}

fn settle(db: &Db) {
    db.force_flush().unwrap();
    db.wait_until_quiescent();
}

/// Write keys `0..n` at `version` in MemTable-sized steps, each flushed and
/// compacted to quiescence — and followed by `between(keys written)` — before
/// the next.
fn load(db: &Db, n: u64, version: u64, mut between: impl FnMut(u64)) {
    for i in 0..n {
        db.put(&user_key(i), &value(i, version)).unwrap();
        if i % 256 == 255 {
            settle(db);
            between(i + 1);
        }
    }
    settle(db);
    between(n);
}

fn live_tables(db: &Db) -> Vec<Arc<TableHandle>> {
    let version = db.version();
    (0..version.level_count()).flat_map(|l| version.level(l).to_vec()).collect()
}

fn reads(reader: &DbReader) -> u64 {
    reader.traffic().ops(Verb::Read)
}

/// Get every `stride`-th key of `0..n`: each must hold `version_of(key)`.
fn sweep(reader: &mut DbReader, n: u64, stride: usize, version_of: impl Fn(u64) -> u64) {
    for i in (0..n).step_by(stride) {
        assert_eq!(reader.get(&user_key(i)).unwrap(), Some(value(i, version_of(i))), "key {i}");
    }
}

/// (a) Once the tables are resident and read, overwriting the whole key space
/// — flushes, L0→L1 and L1→L2 jobs — never sends a reader back to the fabric:
/// every table that replaces a cached one is born cached, with the bytes the
/// memory node wrote.
#[test]
fn carried_images_equal_their_remote_extents_and_serve_every_read() {
    const N: u64 = 4_000;
    let r = rig();
    let db = r.open(paced(images_only(64 << 20)));
    load(&db, N, 1, |_| ());
    assert!(db.level_shape()[2] > 0, "want a tree three levels deep: {:?}", db.level_shape());
    let mut reader = db.reader();
    // Read everything; a table that keeps missing is promoted, so the second
    // sweep finds every table resident (and leaves every image hit).
    sweep(&mut reader, N, 1, |_| 1);
    let warm = reads(&reader);
    sweep(&mut reader, N, 1, |_| 1);
    assert_eq!(reads(&reader), warm, "the data fits the cache: the second sweep is local");
    assert!(live_tables(&db).iter().all(|t| db.cached_image(t.id).is_some()));
    let (stats0, cache0) = (db.stats().snapshot(), db.cache_stats().unwrap());
    let deep0: BTreeSet<u64> = db.version().level(2).iter().map(|t| t.id).collect();

    // Overwrite it all, reading as the tree reshuffles underneath.
    load(&db, N, 2, |written| sweep(&mut reader, N, 7, |i| 1 + u64::from(i < written)));
    let stats = db.stats().snapshot().delta(&stats0);
    let cache = db.cache_stats().unwrap();
    assert!(stats.compactions >= 4 && db.version().level(2).iter().any(|t| !deep0.contains(&t.id)), "want L0→L1 and L1→L2 jobs: {stats}");
    assert_eq!(reads(&reader), warm, "a read crossed the fabric while compactions ran");
    assert_eq!(cache.extent_promotions, cache0.extent_promotions, "a table had to be fetched again");
    assert_eq!(cache.extent_misses, cache0.extent_misses);
    assert!(stats.cache_carried_tables > 0 && stats.cache_carried_bytes <= stats.compaction_bytes_out, "{stats:?}");
    // Every image the pool was given is a flush's, a promotion's or a carry.
    assert_eq!(cache.inserts - cache0.inserts, stats.flushes + stats.cache_carried_tables);

    // Every live table is resident, byte for byte what remote memory holds.
    let live = live_tables(&db);
    assert!(live.len() >= 8, "{:?}", db.level_shape());
    for t in &live {
        let image = db.cached_image(t.id).unwrap_or_else(|| panic!("table {} (L? of {:?}) is not cached", t.id, db.level_shape()));
        assert!(*image == r.remote_bytes(t), "table {}: cached image differs from its extent", t.id);
    }
    // And a full sweep — single gets, then 16-key multi_gets — reads the model
    // without one READ.
    sweep(&mut reader, N, 1, |_| 2);
    let keys: Vec<Vec<u8>> = (0..N).map(user_key).collect();
    for (chunk, at) in keys.chunks(16).zip((0..N).step_by(16)) {
        let got = reader.multi_get(&chunk.iter().map(Vec::as_slice).collect::<Vec<_>>()).unwrap();
        let want: Vec<_> = (at..at + chunk.len() as u64).map(|i| Some(value(i, 2))).collect();
        assert_eq!(got, want);
    }
    assert_eq!(reads(&reader), warm);
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}

/// (b) The gate: the same load with nobody reading carries nothing — the
/// cache sees what it saw before this change, flush images admitted and
/// purged with their tables, and no copy is made for a reader who never came.
#[test]
fn a_load_nobody_reads_carries_nothing() {
    const N: u64 = 4_000;
    let r = rig();
    let db = r.open(paced(images_only(64 << 20)));
    load(&db, N, 1, |_| ());
    load(&db, N, 2, |_| ());
    let (stats, cache) = (db.stats().snapshot(), db.cache_stats().unwrap());
    assert!(stats.compactions >= 8, "{stats}");
    assert_eq!((stats.cache_carried_tables, stats.cache_carried_bytes), (0, 0));
    assert_eq!((cache.hits(), cache.misses(), cache.extent_promotions, cache.evictions), (0, 0, 0, 0));
    assert_eq!(cache.inserts, stats.flushes, "flush images only");
    // What is resident is the flushed tables no compaction has taken yet.
    let version = db.version();
    let resident = live_tables(&db).iter().filter(|t| db.cached_image(t.id).is_some()).count();
    assert_eq!(resident as u64, cache.inserts - cache.invalidations);
    assert_eq!(resident, version.level(0).len());
    db.shutdown();
    r.server.shutdown();
}

/// (d) A snapshot pinned across the installs keeps reading its version: the
/// inputs' images are purged as each install retires them, so it reads them
/// from the fabric — beside a current version that reads every overwrite.
/// (Both versions of every key survive the merges, and no output cut parts
/// them: DESIGN.md §5.7.)
#[test]
fn a_pinned_snapshot_reads_purged_inputs_from_the_fabric() {
    const N: u64 = 2_000;
    let r = rig();
    let db = r.open(paced(images_only(64 << 20)));
    load(&db, N, 1, |_| ());
    let mut reader = db.reader();
    sweep(&mut reader, N, 1, |_| 1);
    sweep(&mut reader, N, 1, |_| 1);
    let snap = db.snapshot();
    let pinned = live_tables(&db);
    load(&db, N, 2, |written| sweep(&mut reader, N, 7, |i| 1 + u64::from(i < written)));
    assert!(db.stats().snapshot().cache_carried_tables > 0);
    let live: BTreeSet<u64> = live_tables(&db).iter().map(|t| t.id).collect();
    let purged: Vec<_> = pinned.iter().filter(|t| !live.contains(&t.id)).collect();
    assert!(purged.len() >= 4 && purged.iter().all(|t| db.cached_image(t.id).is_none()));
    let before = reads(&reader);
    for i in (0..N).step_by(3) {
        assert_eq!(reader.get_at(&snap, &user_key(i)).unwrap(), Some(value(i, 1)), "key {i} at the snapshot");
    }
    assert!(reads(&reader) - before >= N / 6, "purged tables can only be read remotely");
    sweep(&mut reader, N, 1, |_| 2);
    drop((snap, reader));
    db.shutdown();
    r.server.shutdown();
}

/// (e) A pool smaller than the data stays inside its budget at every step,
/// carried admissions included, and its books balance.
#[test]
fn a_tight_pool_stays_within_budget_while_images_are_carried() {
    const N: u64 = 4_000;
    let r = rig();
    let db = r.open(paced(images_only(256 << 10)));
    let mut reader = db.reader();
    let mut steps = 0;
    for version in 1..=2 {
        load(&db, N, version, |written| {
            for i in (0..N).step_by(5) {
                let at = if i < written { version } else { version - 1 };
                assert_eq!(reader.get(&user_key(i)).unwrap(), (at > 0).then(|| value(i, at)), "key {i}");
            }
            let cache = db.cache_stats().unwrap();
            assert!(cache.resident_bytes <= cache.capacity_bytes, "{cache:?}");
            assert!(cache.inserts >= cache.evictions + cache.invalidations, "{cache:?}");
            steps += 1;
        });
    }
    let (stats, cache) = (db.stats().snapshot(), db.cache_stats().unwrap());
    assert!(steps >= 30 && cache.evictions > 0, "the pool never filled: {cache:?}");
    assert!(stats.cache_carried_tables > 0, "{stats:?}");
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}

// ---- one job at a time: (c), (f) ----

impl Rig {
    /// Write a byte-addressable table of `(user, seq)` records into the flush
    /// zone; its handle and its image.
    fn stage(&self, id: u64, entries: &[(u64, u64)]) -> (Arc<TableHandle>, Image) {
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for &(user, seq) in entries {
            let key = InternalKey::new(format!("key{user:08}").as_bytes(), seq, ValueType::Value);
            b.add(key.as_bytes(), &vec![(user + seq) as u8; 90 + (user % 5) as usize * 8]).unwrap();
        }
        let (image, meta) = b.finish();
        let offset = self.mem.flush_alloc().alloc(image.len() as u64).unwrap();
        self.server.region().local_write(offset, &image).unwrap();
        let (smallest, largest) = (meta.smallest().unwrap().to_vec(), meta.largest().unwrap().to_vec());
        let (extent, n) = (Extent { offset, len: image.len() as u64 }, meta.num_entries);
        let meta = MetaKind::ByteAddr(Arc::new(meta));
        let handle = TableHandle::new(id, self.mem.remote(), extent, Origin::Compute, meta, smallest, largest, n, None);
        (handle, Arc::new(image))
    }

    /// An L0 → L1 job over `USERS` keys — three overlapping L0 tables, newest
    /// first, each with a third of the keys at its own seq, over three L1
    /// tables (ids 20, 21, 22; seq 5) of a third of the key space each — and
    /// every input's image by table id.
    fn job(&self) -> (CompactionJob, Vec<(u64, Image)>) {
        let mut images = Vec::new();
        let mut stage = |id, entries: Vec<(u64, u64)>| {
            let (handle, image) = self.stage(id, &entries);
            images.push((id, image));
            handle
        };
        let inputs_lo = (0..3u64).map(|t| stage(10 + t, (0..USERS).filter(|u| u % 3 == t).map(|u| (u, 1_000 * (3 - t))).collect())).collect();
        let third = USERS / 3;
        let inputs_hi = (0..3u64).map(|t| stage(20 + t, (t * third..(t + 1) * third).filter(|u| u % 4 != 3).map(|u| (u, 5)).collect())).collect();
        (CompactionJob { level: 0, inputs_lo, inputs_hi, drop_deletions: true }, images)
    }

    /// Run `job` near the data as `subtasks` sub-tasks, every snapshot live
    /// (seq 0: nothing is dropped, so every input feeds the outputs).
    fn run(&self, job: &CompactionJob, subtasks: usize, cache: Option<&Arc<ReadCache>>) -> CompactionOutcome {
        let cfg = DbConfig { compaction_subtasks: subtasks, ..DbConfig::small() };
        let ids = AtomicU64::new(100);
        let next_id = || ids.fetch_add(1, Ordering::Relaxed);
        let gc = GcSink::new(Arc::clone(self.mem.flush_alloc()));
        let net = Arc::new(ClientNetStats::default());
        let out = run_near_data(job, &self.ctx, &self.mem, &cfg, 0, &gc, &next_id, &mut Vec::new(), &net, cache).unwrap();
        assert_eq!(out.images.len(), out.outputs.len(), "carried + not carried = output tables");
        out
    }
}

const USERS: u64 = 3_000;

fn image_cache() -> Arc<ReadCache> {
    ReadCache::new(images_only(64 << 20)).unwrap()
}

/// (c) One input's image is gone when the job runs (evicted: not resident,
/// not fenced): exactly the outputs holding a record of it go uncarried; the
/// others are carried, byte for byte. And the gate: with every image resident
/// but none ever read, nothing is gathered at all.
#[test]
fn an_input_without_an_image_costs_only_the_outputs_it_feeds() {
    let r = rig();
    let (job, images) = r.job();
    let cache = image_cache();
    for (id, image) in &images {
        assert!(*id == 21 || cache.extent_admit(*id, Arc::clone(image)));
    }
    assert!(r.run(&job, 1, Some(&cache)).images.iter().all(Option::is_none), "nobody read the inputs");
    assert!(r.run(&job, 1, None).images.iter().all(Option::is_none), "no cache");
    assert!(cache.extent_get(22).is_some(), "a reader hits one input");
    let before = cache.snapshot();
    let out = r.run(&job, 1, Some(&cache));
    assert_eq!(cache.snapshot(), before, "the job peeks: no lookup counted, nothing admitted, no ledger entry");
    let (mut carried, mut uncarried) = (0, 0);
    for (t, image) in out.outputs.iter().zip(&out.images) {
        let MetaKind::ByteAddr(meta) = &t.meta else { unreachable!() };
        // Table 21's records: the middle third of the key space at seq 5.
        let fed_by_21 = (0..meta.index.len()).any(|i| {
            let (user, seq, _) = key::split(meta.index.key(i)).unwrap();
            seq == 5 && (USERS / 3..2 * USERS / 3).contains(&std::str::from_utf8(&user[3..]).unwrap().parse().unwrap())
        });
        assert_eq!(image.is_none(), fed_by_21, "table {} [{:?}, {:?}]", t.id, t.smallest_user(), t.largest_user());
        match image {
            Some(image) => {
                assert!(**image == r.remote_bytes(t), "table {}: carried image differs from its extent", t.id);
                carried += 1;
            }
            None => uncarried += 1,
        }
    }
    assert!(carried >= 2 && uncarried >= 2, "{carried} carried, {uncarried} not");
    r.server.shutdown();
}

/// (f) However many sub-tasks share the job, the carried images are the same
/// bytes — what the memory node wrote — cut wherever each sub-task cut its
/// tables.
#[test]
fn every_sub_task_count_carries_the_same_bytes() {
    let r = rig();
    let (job, images) = r.job();
    let cache = image_cache();
    for (id, image) in &images {
        assert!(cache.extent_admit(*id, Arc::clone(image)));
    }
    assert!(cache.extent_get(10).is_some());
    let mut carried: Vec<Vec<u8>> = Vec::new();
    for subtasks in [1, 2, 12] {
        let out = r.run(&job, subtasks, Some(&cache));
        let mut all = Vec::new();
        for (t, image) in out.outputs.iter().zip(&out.images) {
            let image = image.as_ref().unwrap_or_else(|| panic!("{subtasks} sub-tasks: table {} not carried", t.id));
            assert!(**image == r.remote_bytes(t), "{subtasks} sub-tasks: table {} differs from its extent", t.id);
            all.extend_from_slice(image);
        }
        assert!(out.outputs.len() >= subtasks.min(4));
        carried.push(all);
    }
    assert!(carried[0] == carried[1] && carried[0] == carried[2]);
    assert_eq!(carried[0].len() as u64, job.input_bytes(), "nothing was dropped, so everything was gathered");
    r.server.shutdown();
}

// ---- promotions that pay: (g)–(j) ----

/// An extent pool with room for three and a half full tables of
/// `DbConfig::small()` (`sstable_size` 64 KiB).
const POOL: u64 = 224 << 10;

/// A table at least this long counts as full: four of them overrun [`POOL`].
const FULL: u64 = 56 << 10;

/// Keys loaded by (g)–(j): 24 flushes of 256 keys.
const KEYS: u64 = 6_144;

/// A database of [`KEYS`] keys written once each behind a [`POOL`]-sized
/// extent pool, and the bytes of its records (keys and values all have one
/// length, so every record has too).
fn loaded() -> (Rig, Db, u64) {
    let r = rig();
    let db = r.open(paced(images_only(POOL)));
    load(&db, KEYS, 1, |_| ());
    let tables = live_tables(&db);
    let MetaKind::ByteAddr(meta) = &tables[0].meta else { unreachable!() };
    let record = meta.data_len / meta.num_entries;
    assert!(tables.iter().all(|t| t.extent.len == t.num_entries * record), "records of one length");
    (r, db, record)
}

/// The live tables of at least [`FULL`] bytes, each with the indices of the
/// keys it holds: every key is written once, so its table alone answers it.
fn full_tables(db: &Db) -> Vec<(Arc<TableHandle>, Vec<u64>)> {
    let index = |user: &[u8]| std::str::from_utf8(&user[9..]).unwrap().parse::<u64>().unwrap();
    live_tables(db)
        .into_iter()
        .filter(|t| t.extent.len >= FULL)
        .map(|t| {
            let MetaKind::ByteAddr(meta) = &t.meta else { unreachable!() };
            let keys = (0..meta.index.len()).map(|i| index(key::split(meta.index.key(i)).unwrap().0)).collect();
            (t, keys)
        })
        .collect()
}

fn get(reader: &mut DbReader, i: u64) {
    assert_eq!(reader.get(&user_key(i)).unwrap(), Some(value(i, 1)), "key {i}");
}

/// A deterministic stream of indices below `n`.
fn uniform(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut x = seed;
    move |n| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % n
    }
}

fn resident(db: &Db, tables: &[(Arc<TableHandle>, Vec<u64>)]) -> usize {
    tables.iter().filter(|(t, _)| db.cached_image(t.id).is_some()).count()
}

/// Read `tables` round robin — a key of each in turn, each table's keys in
/// order — until `done(gets so far)`; the gets it took.
fn read_until(reader: &mut DbReader, tables: &[(Arc<TableHandle>, Vec<u64>)], mut done: impl FnMut(u64) -> bool) -> u64 {
    let mut gets = 0;
    while !done(gets) {
        let (_, keys) = &tables[gets as usize % tables.len()];
        get(reader, keys[(gets as usize / tables.len()) % keys.len()]);
        gets += 1;
        assert!(gets <= 1_000_000, "never done");
    }
    gets
}

/// Read `tables` until their images are resident, then `more` times.
fn hammer(db: &Db, reader: &mut DbReader, tables: &[(Arc<TableHandle>, Vec<u64>)], more: u64) {
    read_until(reader, tables, |_| resident(db, tables) == tables.len());
    read_until(reader, tables, |gets| gets == more);
}

/// (g) Uniform gets over a pool of a quarter of the data: once it is full
/// every table is as hot as every image, so nothing is promoted — over the
/// next 20 000 gets every READ is exactly one record.
#[test]
fn uniform_gets_over_a_full_pool_promote_nothing() {
    let (r, db, record) = loaded();
    let mut reader = db.reader();
    let mut next = uniform(1);
    for _ in 0..4 * KEYS {
        get(&mut reader, next(KEYS));
    }
    let full = db.cache_stats().unwrap();
    assert!(full.extent_promotions > 0 && full.resident_bytes + FULL > POOL, "not full: {full:?}");
    let before = reader.traffic();
    for _ in 0..20_000 {
        get(&mut reader, next(KEYS));
    }
    let cache = db.cache_stats().unwrap();
    let fabric = reader.traffic().delta(&before);
    assert_eq!(cache.extent_promotions, full.extent_promotions, "{cache:?}");
    assert_eq!((cache.inserts, cache.evictions), (full.inserts, full.evictions));
    assert_eq!(fabric.bytes(Verb::Read), fabric.ops(Verb::Read) * record, "a READ that is not one record");
    assert!(fabric.ops(Verb::Read) >= 10_000, "{} READs", fabric.ops(Verb::Read));
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}

/// (h) A moved hot set moves the pool with nothing but reads: hammer three
/// full tables A until their images are resident, then read only three
/// others, B. The hand turns once per image's worth of missed records and
/// an image hit three times or more is cold after three passes, so A holds
/// for six turns at least and B is resident within nine: A gives way.
#[test]
fn a_moved_hot_set_moves_the_pool() {
    let (r, db, record) = loaded();
    let tables = full_tables(&db);
    assert!(tables.len() >= 6, "{} full tables of {:?}", tables.len(), db.level_shape());
    let (a, b) = (&tables[..3], &tables[3..6]);
    let mut reader = db.reader();
    hammer(&db, &mut reader, a, 3_000);
    let before = db.cache_stats().unwrap();
    let moved = read_until(&mut reader, b, |_| resident(&db, b) == b.len());
    let cache = db.cache_stats().unwrap();
    let per_turn = b.iter().map(|(t, _)| t.extent.len / record + 1).max().unwrap();
    assert!((6 * per_turn..=9 * per_turn).contains(&moved), "{moved} gets, {per_turn} per turn");
    assert_eq!(resident(&db, a), 0, "A is what gives way");
    assert_eq!(cache.extent_promotions - before.extent_promotions, 3, "one promotion per table of B");
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}

/// (i) Skew: of three resident images one is read once per 16 384 gets,
/// while a table that is not resident gets a third of them. The rarely read
/// image gives way to the heavily read table, and it alone, once the hand
/// has passed it three times: within nine turns of the table's misses.
#[test]
fn a_rarely_read_image_gives_way_to_a_heavily_read_table() {
    let (r, db, record) = loaded();
    let tables = full_tables(&db);
    assert!(tables.len() >= 4, "{} full tables of {:?}", tables.len(), db.level_shape());
    let mut reader = db.reader();
    hammer(&db, &mut reader, &tables[..3], 3_000);
    assert_eq!(resident(&db, &tables), 3, "only the three read are resident");
    let (rare, hot) = (&tables[0], [&tables[3], &tables[1], &tables[2]]);
    let mut gets = 0usize;
    while db.cached_image(tables[3].0.id).is_none() {
        let (_, keys) = if gets.is_multiple_of(16_384) { rare } else { hot[gets % 3] };
        get(&mut reader, keys[(gets / 3) % keys.len()]);
        gets += 1;
        assert!(gets <= 1_000_000, "never promoted: {:?}", db.cache_stats());
    }
    let per_turn = tables[3].0.extent.len / record + 1;
    assert!(gets as u64 <= 3 * 9 * per_turn, "{gets} gets, {per_turn} misses per turn");
    assert!(db.cached_image(rare.0.id).is_none(), "the rarely read image is the victim");
    assert!(db.cached_image(tables[1].0.id).is_some() && db.cached_image(tables[2].0.id).is_some());
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}

/// (j) Thrash: uniform gets over four full tables, a working set just
/// larger than the pool — where whole-table promotions used to evict, re-heat
/// and re-fetch megabytes per point miss (DESIGN.md §11). Without a
/// spend-versus-saved throttle promotion still never spends more than hits
/// saved plus one fill of the pool.
#[test]
fn a_working_set_just_larger_than_the_pool_does_not_thrash() {
    let (r, db, _) = loaded();
    let tables = full_tables(&db);
    let working: Vec<u64> = tables[..4].iter().flat_map(|(_, keys)| keys.iter().copied()).collect();
    let bytes: u64 = tables[..4].iter().map(|(t, _)| t.extent.len).sum();
    assert!(bytes > POOL && bytes < 3 * POOL / 2, "{bytes} B of tables");
    let mut reader = db.reader();
    let mut next = uniform(7);
    for _ in 0..30_000 {
        get(&mut reader, working[next(working.len() as u64) as usize]);
    }
    let cache = db.cache_stats().unwrap();
    assert!(cache.promoted_bytes <= cache.bytes_saved + POOL, "{cache:?}");
    assert!(cache.extent_promotions <= 4, "{cache:?}");
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}
