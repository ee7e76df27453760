//! The scan path, by counts and values (ISSUE 18; none of these is timed):
//! what a scan returns, which bytes it may fetch to return it, and how many
//! READs it may spend — plan every sorted run from its compute-resident
//! index, fetch only `[offset(start), offset(end))`, open all runs in one
//! wave (DESIGN.md §5.11).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use dlsm_repro::dlsm::handle::{MetaKind, TableHandle};
use dlsm_repro::dlsm::{CacheConfig, ComputeContext, DataPath, Db, DbConfig, DbReader, MemNodeHandle};
use dlsm_repro::memnode::{MemServer, MemServerConfig, TableFormat};
use dlsm_repro::rdma_sim::{Fabric, FaultAction, FaultHook, NetworkProfile, NodeId, OpContext, Verb};
use dlsm_repro::sstable::byte_addr::TableMeta;
use dlsm_repro::sstable::{InternalKey, MAX_SEQ};
use dlsm_trace::{Event, EventKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
/// on the order of calls, not on a race between workers.
fn paced() -> DbConfig {
    DbConfig { flush_threads: 1, compaction_subtasks: 1, ..DbConfig::small() }
}

/// Keys are the even numbers, so every odd one is an absent key between two
/// present ones.
fn key(i: u64) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

fn value(i: u64, version: u64) -> Vec<u8> {
    let mut v = version.to_le_bytes().to_vec();
    v.resize(300 + (i % 7) as usize * 20, i as u8);
    v
}

fn settle(db: &Db) {
    db.force_flush().unwrap();
    db.wait_until_quiescent();
}

fn reads(reader: &DbReader) -> (u64, u64) {
    let t = reader.traffic();
    (t.ops(Verb::Read), t.bytes(Verb::Read))
}

/// READs and READ bytes `f` costs `reader`.
fn cost<T>(reader: &mut DbReader, f: impl FnOnce(&mut DbReader) -> T) -> (T, u64, u64) {
    let (ops, bytes) = reads(reader);
    let out = f(reader);
    let (ops_after, bytes_after) = reads(reader);
    (out, ops_after - ops, bytes_after - bytes)
}

fn collect(scan: dlsm_repro::dlsm::scan::DbScan) -> Vec<(Vec<u8>, Vec<u8>)> {
    scan.map(|item| item.unwrap()).collect()
}

// ---- (i) every configuration returns what the model returns ----

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn model_range(model: &Model, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    model
        .range(start.to_vec()..)
        .take_while(|(k, _)| end.is_empty() || k.as_slice() < end)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
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

fn scans_equal_model(format: TableFormat, data_path: DataPath, cache: CacheConfig) {
    let what = format!("{format:?} {data_path:?} cache {}", cache.capacity_bytes);
    let r = rig();
    let posted = Arc::new(PostedVerbs::default());
    r.ctx.fabric().set_fault_hook(Some(posted.clone()));
    let db = r.open(DbConfig {
        memtable_size: 16 << 10,
        sstable_size: 16 << 10,
        l1_max_bytes: 48 << 10,
        level_multiplier: 4,
        format,
        data_path,
        cache,
        ..paced()
    });
    let n = 1_500u64;
    let mut rng = SmallRng::seed_from_u64(18);
    let mut model = Model::new();
    // Generation 0 settles into the deep levels.
    for i in (0..n).map(|i| i * 7919 % n) {
        db.put(&key(2 * i), &value(i, 0)).unwrap();
        model.insert(key(2 * i), value(i, 0));
        if i % 256 == 255 {
            settle(&db);
        }
    }
    settle(&db);
    let snap = db.snapshot();
    let model_at_snap = model.clone();
    // Overwrites and tombstones on top of it: two generations compacted
    // away, small flushes until one stays in L0, the rest in the MemTable.
    let mut generation = 0;
    let mut mutate = |count: u64, model: &mut Model| {
        generation += 1;
        for _ in 0..count {
            let i = rng.gen_range(0..n);
            if rng.gen_bool(0.3) {
                db.delete(&key(2 * i)).unwrap();
                model.remove(&key(2 * i));
            } else {
                db.put(&key(2 * i), &value(i, generation)).unwrap();
                model.insert(key(2 * i), value(i, generation));
            }
        }
    };
    for _ in 0..2 {
        mutate(n / 4, &mut model);
        settle(&db);
    }
    while db.level_shape()[0] == 0 {
        mutate(20, &mut model);
        settle(&db);
    }
    mutate(20, &mut model);
    let shape = db.level_shape();
    assert!(shape[0] > 0 && shape[1] > 0 && shape[2] > 0, "{what}: shape {shape:?}");

    let mut reader = db.reader();
    let any = |rng: &mut SmallRng| rng.gen_range(0..2 * n + 40);
    for _ in 0..200 {
        let start = any(&mut rng);
        // Mostly short ranges; some long, some inverted.
        let end = if rng.gen_bool(0.8) { start + rng.gen_range(0..400) } else { any(&mut rng) };
        let (start, end) = (key(start), key(end));
        let got = collect(reader.scan_range(&start, &end).unwrap());
        assert_eq!(got, model_range(&model, &start, &end), "{what}: [{start:?}, {end:?})");
    }
    for _ in 0..50 {
        let (start, take) = (key(any(&mut rng)), rng.gen_range(0..300usize));
        let got: Vec<_> = reader.scan(&start).unwrap().take(take).map(|item| item.unwrap()).collect();
        let want: Vec<_> = model_range(&model, &start, &[]).into_iter().take(take).collect();
        assert_eq!(got, want, "{what}: scan({start:?}).take({take})");
        let got: Vec<_> = reader.scan_at(&snap, &start).unwrap().take(take).map(|item| item.unwrap()).collect();
        let want: Vec<_> = model_range(&model_at_snap, &start, &[]).into_iter().take(take).collect();
        assert_eq!(got, want, "{what}: scan_at({start:?}).take({take})");
    }
    assert_eq!(collect(reader.scan(b"").unwrap()), model_range(&model, b"", b""), "{what}: full scan");
    drop((reader, snap));
    db.shutdown();
    // Two-sided means two-sided for every byte the compute node moves:
    // reads, flushes and the readback of near-data outputs alike.
    if data_path == DataPath::TwoSidedRpc {
        assert_eq!(posted.by(r.ctx.node().id()), ["Send"], "{what}: the compute node posted a one-sided verb");
    }
    r.server.shutdown();
}

#[test]
fn scans_equal_the_model_in_every_configuration() {
    for format in [TableFormat::ByteAddr, TableFormat::Block(2048)] {
        for data_path in [DataPath::OneSided, DataPath::TwoSidedRpc] {
            for cache in [CacheConfig::default(), CacheConfig::with_capacity(4 << 20)] {
                scans_equal_model(format, data_path, cache);
            }
        }
    }
}

// ---- (ii)–(v) and the empty ranges: what a scan may fetch ----

/// Tables large enough that a fetch clamped to the table alone would not
/// pass for one clamped to the range.
fn exact_cfg() -> DbConfig {
    DbConfig {
        memtable_size: 128 << 10,
        sstable_size: 256 << 10,
        l1_max_bytes: 512 << 10,
        level_multiplier: 4,
        ..paced()
    }
}

/// A database of `n` keys, none overwritten, so every key lives in exactly
/// one sorted run: written in an order that spreads every flush over the
/// whole key space, flushed and compacted to quiescence, and paced so that
/// the last flush stays in L0.
fn exact_db(r: &Rig, n: u64, cfg: DbConfig) -> Db {
    let db = r.open(cfg);
    let mut order: Vec<u64> = (0..n).map(|i| i * 7919 % n).collect();
    // The last 300 go in MemTable-sized steps of their own.
    while !order.is_empty() {
        let step = match order.len() {
            0..=150 if db.level_shape()[0] == 3 => order.len().div_ceil(2), // the 4th table empties L0
            0..=300 => order.len().min(150),
            rest => (rest - 300).min(700),
        };
        for i in order.drain(..step) {
            db.put(&key(2 * i), &value(i, 0)).unwrap();
        }
        settle(&db);
    }
    db
}

fn meta(t: &TableHandle) -> &TableMeta {
    match &t.meta {
        MetaKind::ByteAddr(meta) => meta,
        MetaKind::Block(..) => panic!("byte-addressable tables expected"),
    }
}

/// The records of `t` with a user key in `[start, end)`, from its index.
fn records_in(t: &TableHandle, start: &[u8], end: &[u8]) -> std::ops::Range<usize> {
    let index = &meta(t).index;
    let lo = index.seek_ge(InternalKey::for_lookup(start, MAX_SEQ).as_bytes());
    let hi = if end.is_empty() {
        index.len()
    } else {
        index.seek_ge(InternalKey::for_lookup(end, MAX_SEQ).as_bytes())
    };
    lo..hi.max(lo)
}

/// What a scan of `[start, end)` costs by the rule: per sorted run, the
/// bytes of its records in range; one READ if it holds any, one more per
/// table boundary crossed, one more per `ceiling` exceeded inside a table
/// (chunks are whole records, so up to one record short of the ceiling).
#[derive(Default)]
struct Budget {
    bytes: u64,
    runs: u64,
    boundaries: u64,
    refills: u64,
}

impl Budget {
    fn reads(&self) -> u64 {
        self.runs + self.boundaries + self.refills
    }
}

fn budget(db: &Db, start: &[u8], end: &[u8], ceiling: u64) -> Budget {
    let version = db.version();
    let mut b = Budget::default();
    let l0 = version.level(0).iter().map(std::slice::from_ref);
    for run in l0.chain((1..version.level_count()).map(|level| version.level(level))) {
        let mut tables = 0;
        for t in run {
            let records = records_in(t, start, end);
            let bytes: u64 = records.clone().map(|i| meta(t).index.record(i).1 as u64).sum();
            tables += !records.is_empty() as u64;
            b.refills += bytes / (ceiling - 512);
            b.bytes += bytes;
        }
        b.runs += tables.min(1);
        b.boundaries += tables.saturating_sub(1);
    }
    b
}

/// Encoded size of one entry a scan returned: two length varints, the
/// internal key (user key + 8), the value.
fn encoded(entry: &(Vec<u8>, Vec<u8>)) -> u64 {
    let varint = |x: usize| if x < 128 { 1 } else { 2 };
    (varint(entry.0.len() + 8) + varint(entry.1.len()) + entry.0.len() + 8 + entry.1.len()) as u64
}

fn bounded_scans_fetch_exactly_their_bytes(ceiling: usize) {
    let r = rig();
    let n = 12_000u64;
    let db = exact_db(&r, n, DbConfig { scan_prefetch: ceiling, ..exact_cfg() });
    let shape = db.level_shape();
    assert!(shape[0] > 0 && shape[1] > 0 && shape[2] > 1, "shape {shape:?}");
    let mut reader = db.reader();
    let mut rng = SmallRng::seed_from_u64(ceiling as u64);
    let (mut boundaries, mut refills) = (0, 0);
    for len in [1u64, 10, 100, 100, 100, 1_000, 1_000, 5_000, n] {
        let first = rng.gen_range(0..n - len + 1);
        // Bounds on absent keys as often as on present ones.
        let (start, end) = (key(2 * first - (first % 2)), key(2 * (first + len) - (len % 2)));
        let (got, ops, bytes) = cost(&mut reader, |r| collect(r.scan_range(&start, &end).unwrap()));
        assert_eq!(got.len() as u64, len);
        let want = budget(&db, &start, &end, ceiling as u64);
        assert_eq!(bytes, want.bytes, "{len} entries: bytes fetched vs bytes of the records in range");
        assert_eq!(bytes, got.iter().map(encoded).sum::<u64>(), "{len} entries: bytes fetched vs returned");
        let allowed = want.reads();
        assert!(want.runs <= ops && ops <= allowed, "{len} entries: {ops} READs, {} runs, {allowed} allowed", want.runs);
        boundaries += want.boundaries;
        refills += want.refills;
    }
    assert!(boundaries > 0, "no scan crossed a table boundary");
    assert_eq!(refills > 0, ceiling < 1 << 20, "the small ceiling is there to be exceeded");
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}

#[test]
fn bounded_scans_fetch_exactly_the_bytes_they_return() {
    bounded_scans_fetch_exactly_their_bytes(DbConfig::default().scan_prefetch);
    bounded_scans_fetch_exactly_their_bytes(24 << 10);
}

#[test]
fn early_stopping_scans_fetch_little() {
    let r = rig();
    let n = 12_000u64;
    let db = exact_db(&r, n, exact_cfg());
    let runs = budget(&db, b"", b"", u64::MAX).runs;
    assert!(runs >= 3, "shape {:?}", db.level_shape());
    let mut reader = db.reader();
    let mut refilled = false;
    for first in [0, 1_234, 7_777, n - 150] {
        let (got, _, bytes) = cost(&mut reader, |r| r.scan(&key(2 * first)).unwrap().take(100).count());
        assert_eq!(got, 100);
        assert!(bytes <= runs * (64 << 10), "take(100) from {first} read {bytes} B over {runs} runs");
        // A run's first fetch is 16 KiB at most.
        refilled |= bytes > runs * (16 << 10);
    }
    assert!(refilled, "no run was read deep enough to refill");
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}

#[test]
fn full_sweep_reads_every_byte_once_and_ramps_once_per_run() {
    let r = rig();
    let n = 12_000u64;
    // Every flush compacted away at once: L0 ends empty and the sweep's
    // READs are those of the deep levels alone.
    let db = exact_db(&r, n, DbConfig { sstable_size: 64 << 10, l0_compaction_trigger: 1, ..exact_cfg() });
    let version = db.version();
    assert!(version.level(0).is_empty(), "shape {:?}", version.shape());
    let ceiling = DbConfig::default().scan_prefetch as u64;
    let live: u64 = db.live_extents().iter().map(|e| e.2).sum();
    let mut allowed = 0;
    let mut deepest = 0;
    for level in 1..version.level_count() {
        let tables = version.level(level).len() as u64;
        if tables > 0 {
            allowed += version.level_bytes(level) / ceiling + 8 + tables;
            deepest = deepest.max(tables);
        }
    }
    assert!(deepest >= 4, "shape {:?}", version.shape());
    let mut reader = db.reader();
    let (got, ops, bytes) = cost(&mut reader, |r| r.scan(b"").unwrap().count());
    assert_eq!(got as u64, n);
    assert!(bytes as f64 <= 1.02 * live as f64, "swept {bytes} B of {live} B live");
    // Ramping once per table instead (16 + 32 + 16 KiB) would cost three
    // READs for each of them.
    assert!(ops <= allowed, "{ops} READs, {allowed} allowed for shape {:?}", version.shape());
    assert!(ops < 2 * version.table_count() as u64);
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}

/// Spans on `outer`'s thread whose lifetime lies inside it.
fn within<'a>(events: &'a [Event], outer: &Event, name: &str) -> Vec<&'a Event> {
    events
        .iter()
        .filter(|e| {
            e.kind == EventKind::Span
                && e.tid == outer.tid
                && e.name == name
                && outer.ts_us <= e.ts_us
                && e.end_us() <= outer.end_us()
        })
        .collect()
}

#[test]
fn a_bounded_scan_opens_in_one_wave() {
    let r = rig();
    let n = 12_000u64;
    let db = exact_db(&r, n, exact_cfg());
    let mut reader = db.reader();
    // 400 entries that no run has to cross a table boundary for.
    let (start, end, want) = (0..n - 400)
        .step_by(500)
        .map(|first| (key(2 * first), key(2 * (first + 400))))
        .map(|(start, end)| (budget(&db, &start, &end, u64::MAX), start, end))
        .find_map(|(want, start, end)| (want.boundaries == 0).then_some((start, end, want)))
        .expect("a range inside one table of every level");
    assert!(want.runs >= 3, "{} runs", want.runs);
    dlsm_trace::set_level(dlsm_trace::Level::All);
    let here = dlsm_trace::span(dlsm_trace::Category::Db, "a_bounded_scan_opens_in_one_wave");
    let (scan, ops, bytes) = cost(&mut reader, |r| r.scan_range(&start, &end).unwrap());
    drop(here);
    dlsm_trace::set_level(dlsm_trace::Level::Off);
    // Opening fetched every run's whole share: one READ per remote child.
    assert_eq!((ops, bytes), (want.runs, want.bytes));
    let events = dlsm_trace::collect_events();
    let here = events.iter().find(|e| e.name == "a_bounded_scan_opens_in_one_wave").unwrap();
    let opens = within(&events, here, "scan_seek");
    assert_eq!(opens.len(), 1);
    // The READs were posted together and polled together.
    let waves = within(&events, opens[0], "rdma_read");
    assert_eq!(waves.len(), 1);
    assert_eq!(waves[0].arg, want.bytes);
    let (got, ops, _) = cost(&mut reader, |_| scan.count());
    assert_eq!((got, ops), (400, 0));
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}

#[test]
fn ranges_that_contain_nothing_read_nothing() {
    let r = rig();
    let n = 12_000u64;
    let db = exact_db(&r, n, exact_cfg());
    // MemTable, L0 and two deeper levels populated.
    for i in n..n + 50 {
        db.put(&key(2 * i), &value(i, 0)).unwrap();
    }
    let version = db.version();
    let deep: Vec<usize> = (1..version.level_count()).filter(|&l| version.level(l).len() > 1).collect();
    assert!(!version.level(0).is_empty() && deep.len() >= 2, "shape {:?}", version.shape());
    let mut reader = db.reader();
    let after = |k: &[u8]| [k, &b"\0"[..]].concat();
    let mut empty = vec![
        (key(500), key(500)),       // start == end
        (key(900), key(400)),       // start > end
        (key(501), key(502)),       // between two adjacent keys
        (key(4 * n), key(5 * n)),   // past the last key
        (key(4 * n), Vec::new()),
    ];
    // In the gap between two tables of a level, where a seek used to open
    // the next table and fetch from its first record.
    for &level in &deep {
        let last = version.level(level)[0].largest_user();
        empty.push((after(last), after(&after(last))));
    }
    for (start, end) in &empty {
        let (got, ops, _) = cost(&mut reader, |r| r.scan_range(start, end).unwrap().count());
        assert_eq!((got, ops), (0, 0), "[{start:?}, {end:?})");
    }
    // A range that ends inside a level's first overlapping table is served
    // by that table alone.
    for &level in &deep {
        let t = &version.level(level)[0];
        let (start, end) = (t.smallest_user(), t.largest_user());
        let want = budget(&db, start, end, u64::MAX);
        let (got, ops, bytes) = cost(&mut reader, |r| r.scan_range(start, end).unwrap().count());
        assert!(got > 0);
        assert!(want.runs <= ops && ops <= want.reads(), "L{level} [{start:?}, {end:?}): {ops} READs");
        assert_eq!(bytes, want.bytes, "L{level} [{start:?}, {end:?})");
    }
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}

#[test]
fn a_corrupt_record_ends_the_scan_with_an_error() {
    let r = rig();
    let db = exact_db(&r, 3_000, exact_cfg());
    let version = db.version();
    let t = &version.level(0)[0];
    let i = meta(t).index.len() / 2;
    let victim = dlsm_repro::sstable::key::user_key(meta(t).index.key(i)).to_vec();
    // Remote memory now says the record's key is 127 bytes long.
    let at = t.extent.offset + meta(t).index.record(i).0;
    r.server.region().local_write(at, &[0x7F]).unwrap();
    let mut reader = db.reader();
    let before = collect(reader.scan_range(b"", &victim).unwrap());
    assert!(before.len() > 100);
    // A scan across it is the same scan until the table's cursor has to
    // move onto the corrupt record — when the record before it, `last_good`,
    // is consumed — and ends there with the error.
    let last_good = dlsm_repro::sstable::key::user_key(meta(t).index.key(i - 1));
    let mut across: Vec<_> = reader.scan(b"").unwrap().collect();
    assert!(across.pop().unwrap().is_err());
    let across: Vec<_> = across.into_iter().map(|item| item.unwrap()).collect();
    let want: Vec<_> = before.iter().filter(|(k, _)| k.as_slice() < last_good).cloned().collect();
    assert_eq!(across, want);
    // Opening right on it fails the open, or the first entry.
    match reader.scan(&victim) {
        Err(_) => {}
        Ok(mut scan) => assert!(scan.next().unwrap().is_err()),
    }
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}
