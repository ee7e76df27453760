//! Cached table images survive compaction (ISSUE 24; counts and bytes, none
//! of these is timed): a near-data compaction's outputs inherit their inputs'
//! images — gathered locally while the reply is replayed — when somebody reads
//! those inputs, are admitted before the new version is published, and are
//! byte for byte what the memory node wrote.

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
