//! The merge path, by values and counts (ISSUE 20; none of these is timed):
//! table iterator → `MergingIter` → scan / compaction. The merge is checked
//! against a sort, the index-clipped sub-compactions against the unsplit
//! one, and the sampled `ScanNext` histogram against the entries yielded
//! (DESIGN.md §5.11, §5 "Sub-compaction", §8).

use std::cmp::Ordering;
use std::sync::Arc;

use dlsm_repro::dlsm::compaction::{
    clip_inputs, pick_boundaries, run_local, run_near_data, subranges, CompactionJob, CompactionOutcome,
};
use dlsm_repro::dlsm::handle::{Extent, GcSink, MetaKind, Origin, TableHandle};
use dlsm_repro::dlsm::{ComputeContext, Db, DbConfig, MemNodeHandle};
use dlsm_repro::memnode::{ClientNetStats, InputTable, MemServer, MemServerConfig};
use dlsm_repro::rdma_sim::{Fabric, NetworkProfile, Verb};
use dlsm_repro::sstable::byte_addr::ByteAddrBuilder;
use dlsm_repro::sstable::iter::{ForwardIter, MergingIter, VecIter};
use dlsm_repro::sstable::key::compare_internal;
use dlsm_repro::sstable::{InternalKey, SstError, ValueType, MAX_SEQ};
use dlsm_repro::telemetry::OpClass;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Entry = (Vec<u8>, Vec<u8>);

fn ikey(user: u64, seq: u64) -> Vec<u8> {
    InternalKey::new(format!("key{user:08}").as_bytes(), seq, ValueType::Value).into_bytes()
}

// ---- (a) MergingIter against a sort model ----

/// A child that fails on the step after `left` good ones.
struct FailAfter {
    inner: VecIter,
    left: usize,
}

impl ForwardIter for FailAfter {
    fn valid(&self) -> bool {
        self.inner.valid()
    }
    fn key(&self) -> &[u8] {
        self.inner.key()
    }
    fn value(&self) -> &[u8] {
        self.inner.value()
    }
    fn next(&mut self) -> Result<(), SstError> {
        if self.left == 0 {
            return Err(SstError::Corrupt("injected".into()));
        }
        self.left -= 1;
        self.inner.next()
    }
    fn seek(&mut self, ikey: &[u8]) -> Result<(), SstError> {
        self.inner.seek(ikey)
    }
    fn seek_to_first(&mut self) -> Result<(), SstError> {
        self.inner.seek_to_first()
    }
}

/// What a merge of `children` must yield: every entry, in internal-key
/// order, equal keys in child order. Values name the child they came from.
fn sort_model(children: &[Vec<Entry>]) -> Vec<Entry> {
    let mut all: Vec<(usize, Entry)> = Vec::new();
    for (i, c) in children.iter().enumerate() {
        all.extend(c.iter().cloned().map(|e| (i, e)));
    }
    all.sort_by(|(i, a), (j, b)| compare_internal(&a.0, &b.0).then(i.cmp(j)));
    all.into_iter().map(|(_, e)| e).collect()
}

fn drain<I: ForwardIter>(m: &mut I) -> Vec<Entry> {
    let mut out = Vec::new();
    while m.valid() {
        out.push((m.key().to_vec(), m.value().to_vec()));
        m.next().unwrap();
    }
    out
}

/// `k` children over `n` distinct keys; `share` of the keys go to child 0,
/// the rest are dealt at random, some children stay empty, and every 50th
/// key is also given to a second child (an equal key in two children).
fn random_children(rng: &mut SmallRng, k: usize, n: u64, share: f64) -> Vec<Vec<Entry>> {
    let mut children = vec![Vec::new(); k];
    let empty = if k > 2 { rng.gen_range(1..k) } else { usize::MAX };
    for user in 0..n {
        let mut child = if rng.gen_bool(share) { 0 } else { rng.gen_range(0..k) };
        if child == empty {
            child = 0;
        }
        children[child].push((ikey(user, 7), format!("{child}:{user}").into_bytes()));
        let twin = (child + 1) % k;
        if user % 50 == 0 && twin != empty && twin != child {
            children[twin].push((ikey(user, 7), format!("{twin}:{user}").into_bytes()));
        }
    }
    children
}

#[test]
fn merging_iter_equals_the_sort_model() {
    let mut rng = SmallRng::seed_from_u64(20);
    for round in 0..60 {
        let k = rng.gen_range(1..9);
        let share = if round % 2 == 0 { 0.9 } else { 0.0 };
        let children = random_children(&mut rng, k, 400, share);
        let model = sort_model(&children);
        let iters = children.iter().cloned().map(VecIter::new).collect();
        let mut m = MergingIter::new(iters);
        assert!(!m.valid(), "a merge starts invalid");
        m.seek_to_first().unwrap();
        assert_eq!(drain(&mut m), model, "round {round}, k {k}");
        assert!(!m.valid() && m.key().is_empty() && m.value().is_empty());

        // A seek in mid-stream lands on the model's lower bound, wherever
        // the leader and the runner-up stood before.
        m.seek_to_first().unwrap();
        for _ in 0..rng.gen_range(0..model.len()) {
            m.next().unwrap();
        }
        let target = ikey(rng.gen_range(0..420), MAX_SEQ);
        let from = model.partition_point(|(key, _)| compare_internal(key, &target) == Ordering::Less);
        m.seek(&target).unwrap();
        assert_eq!(drain(&mut m), model[from..], "round {round}: seek");
    }
}

#[test]
fn merging_iter_with_no_children_or_only_empty_ones_is_invalid() {
    let mut none: MergingIter<VecIter> = MergingIter::new(Vec::new());
    none.seek_to_first().unwrap();
    assert!(!none.valid());
    none.next().unwrap();
    let mut empties = MergingIter::new(vec![VecIter::default(), VecIter::default()]);
    empties.seek(&ikey(3, MAX_SEQ)).unwrap();
    assert!(!empties.valid() && empties.key().is_empty());
}

#[test]
fn a_child_error_ends_the_merge() {
    let mut rng = SmallRng::seed_from_u64(21);
    let children = random_children(&mut rng, 4, 200, 0.0);
    let model = sort_model(&children);
    for (failing, good_steps) in [(0usize, 0usize), (2, 5), (3, 30)] {
        let iters = children
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, c)| FailAfter { inner: VecIter::new(c), left: if i == failing { good_steps } else { usize::MAX } })
            .collect();
        let mut m = MergingIter::new(iters);
        m.seek_to_first().unwrap();
        let mut got = Vec::new();
        let err = loop {
            assert!(m.valid(), "the failing child has entries left");
            got.push((m.key().to_vec(), m.value().to_vec()));
            if let Err(e) = m.next() {
                break e;
            }
        };
        assert!(matches!(err, SstError::Corrupt(_)));
        // Everything before the failing step is the model's prefix, and the
        // merge does not offer the failed child's stale record afterwards.
        assert_eq!(got, model[..got.len()]);
        let from_failing = got.iter().filter(|(_, v)| v.starts_with(format!("{failing}:").as_bytes())).count();
        assert_eq!(from_failing, good_steps + 1);
        assert!(!m.valid() && m.key().is_empty());
        m.next().unwrap();
        assert!(!m.valid());
    }
}

// ---- (b), (c) sub-compactions clipped by the index ----

struct Rig {
    fabric: Arc<Fabric>,
    server: MemServer,
    ctx: Arc<ComputeContext>,
    mem: Arc<MemNodeHandle>,
}

fn rig() -> Rig {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = MemServer::start(
        &fabric,
        MemServerConfig { region_size: 96 << 20, flush_zone: 48 << 20, compaction_workers: 2, dispatchers: 1 },
    );
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    Rig { fabric, server, ctx, mem }
}

impl Rig {
    /// Write a byte-addressable table into the flush zone.
    fn stage(&self, id: u64, entries: &[(u64, u64, ValueType)]) -> Arc<TableHandle> {
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for &(user, seq, vt) in entries {
            let key = InternalKey::new(format!("key{user:08}").as_bytes(), seq, vt);
            let value = if vt == ValueType::Value { vec![(user + seq) as u8; 90 + (user % 5) as usize * 8] } else { Vec::new() };
            b.add(key.as_bytes(), &value).unwrap();
        }
        let (image, meta) = b.finish();
        let offset = self.mem.flush_alloc().alloc(image.len() as u64).unwrap();
        self.server.region().local_write(offset, &image).unwrap();
        let (smallest, largest) = (meta.smallest().unwrap().to_vec(), meta.largest().unwrap().to_vec());
        let n = meta.num_entries;
        TableHandle::new(
            id,
            self.mem.remote(),
            Extent { offset, len: image.len() as u64 },
            Origin::Compute,
            MetaKind::ByteAddr(Arc::new(meta)),
            smallest,
            largest,
            n,
            None,
        )
    }

    /// An L0 → L1 job: four overlapping L0 tables, newest first — updates,
    /// tombstones, and in the newest two versions of every 9th key side by
    /// side — over three disjoint L1 tables.
    fn job(&self) -> CompactionJob {
        let mut rng = SmallRng::seed_from_u64(22);
        let users = 6_000u64;
        let mut inputs_lo = Vec::new();
        for t in 0..4u64 {
            let base = 1_000 * (4 - t);
            let mut entries = Vec::new();
            for user in 0..users {
                if !rng.gen_bool(0.3) {
                    continue;
                }
                if t == 0 && user % 9 == 0 {
                    entries.push((user, base + 500, ValueType::Value));
                }
                let vt = if rng.gen_bool(0.15) { ValueType::Deletion } else { ValueType::Value };
                entries.push((user, base + user % 400, vt));
            }
            inputs_lo.push(self.stage(10 + t, &entries));
        }
        let inputs_hi = (0..3u64)
            .map(|t| {
                let range = t * users / 3..(t + 1) * users / 3;
                let entries: Vec<_> = range.filter(|u| u % 4 != 3).map(|u| (u, 5, ValueType::Value)).collect();
                self.stage(20 + t, &entries)
            })
            .collect();
        CompactionJob { level: 0, inputs_lo, inputs_hi, drop_deletions: true }
    }

    fn cfg(&self, subtasks: usize, near_data: bool) -> DbConfig {
        DbConfig { compaction_subtasks: subtasks, near_data_compaction: near_data, ..DbConfig::small() }
    }

    fn run(&self, job: &CompactionJob, cfg: &DbConfig) -> CompactionOutcome {
        let gc = GcSink::new(Arc::clone(self.mem.flush_alloc()));
        let ids = std::sync::atomic::AtomicU64::new(100);
        let next_id = || ids.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let net = Arc::new(ClientNetStats::default());
        if cfg.near_data_compaction {
            run_near_data(job, &self.ctx, &self.mem, cfg, MAX_SEQ, &gc, &next_id, &mut Vec::new(), &net).unwrap()
        } else {
            run_local(job, &self.ctx, &self.mem, cfg, MAX_SEQ, &gc, &next_id, &net).unwrap()
        }
    }

    /// The record bytes of `tables`, back to back: a full scan of them.
    fn image(&self, tables: &[Arc<TableHandle>]) -> Vec<u8> {
        let mut out = Vec::new();
        for t in tables {
            let at = out.len();
            out.resize(at + t.extent.len as usize, 0);
            self.server.region().local_read(t.extent.offset, &mut out[at..]).unwrap();
        }
        out
    }
}

#[test]
fn sub_task_clips_tile_every_input() {
    let r = rig();
    let job = r.job();
    let mut cuts: Vec<Vec<Vec<u8>>> = [1, 2, 12].iter().map(|&k| pick_boundaries(&job, k)).collect();
    assert_eq!(cuts.iter().map(Vec::len).collect::<Vec<_>>(), [0, 1, 11]);
    // Boundaries no table holds, below every key and above every key.
    cuts.push(vec![b"a".to_vec(), b"key00000000".to_vec(), b"key00002999x".to_vec(), b"zzz".to_vec()]);
    for boundaries in &cuts {
        let clips: Vec<Vec<InputTable>> =
            subranges(boundaries).iter().map(|(lo, hi)| clip_inputs(&job, lo, hi)).collect();
        // A pure function of (job, boundaries).
        let again: Vec<Vec<InputTable>> =
            subranges(boundaries).iter().map(|(lo, hi)| clip_inputs(&job, lo, hi)).collect();
        assert_eq!(clips, again);
        for t in job.all_inputs() {
            let MetaKind::ByteAddr(meta) = &t.meta else { unreachable!() };
            let starts: Vec<u64> = (0..meta.index.len()).map(|i| meta.index.record(i).0).collect();
            let (mut at, end) = (t.extent.offset, t.extent.offset + meta.data_len);
            for clip in clips.iter().flatten().filter(|c| (t.extent.offset..end).contains(&c.offset)) {
                assert_eq!(clip.offset, at, "table {}: a gap or an overlap", t.id);
                assert!(clip.len > 0, "empty clips are left out");
                assert!(starts.binary_search(&(at - t.extent.offset)).is_ok(), "not on a record boundary");
                at += clip.len;
            }
            assert_eq!(at, end, "table {}: the clips stop short of it", t.id);
        }
        // Merge priority: within a sub-task the inputs keep the job's order.
        let order: Vec<u64> = job.all_inputs().map(|t| t.extent.offset).collect();
        for clip in &clips {
            let ranks: Vec<usize> =
                clip.iter().map(|c| order.iter().rposition(|&o| o <= c.offset).unwrap()).collect();
            assert!(ranks.windows(2).all(|w| w[0] < w[1]), "{ranks:?}");
        }
    }
}

#[test]
fn every_sub_task_count_compacts_to_the_same_bytes() {
    let r = rig();
    let job = r.job();
    let input_bytes = job.input_bytes();
    let mut reference: Option<(Vec<u8>, u64, u64)> = None;
    for near_data in [true, false] {
        for subtasks in [1, 2, 12] {
            let what = format!("near_data {near_data}, {subtasks} sub-tasks");
            let before = r.fabric.stats().snapshot();
            let out = r.run(&job, &r.cfg(subtasks, near_data));
            let d = r.fabric.stats().snapshot().delta(&before);
            let got = (r.image(&out.outputs), out.records_in, out.records_out);
            assert!(got.2 > 0 && got.2 < got.1, "{what}: the job drops versions and tombstones");
            assert!(out.outputs.windows(2).all(|w| w[0].largest_user() < w[1].smallest_user()), "{what}");
            let reference = reference.get_or_insert_with(|| got.clone());
            assert_eq!(got.1, reference.1, "{what}: records_in");
            assert_eq!(got.2, reference.2, "{what}: records_out");
            assert!(got.0 == reference.0, "{what}: output bytes differ");
            if !near_data {
                // Each sub-task fetches `[offset(lo), offset(hi))` of each
                // input and not a byte past its `hi`.
                assert_eq!(d.bytes(Verb::Read), input_bytes, "{what}: READ bytes");
            }
        }
    }
}

/// The same seeded history under 1, 2 and 12 sub-tasks: whatever each
/// database's compactions picked, a full scan returns the same bytes.
#[test]
fn full_scans_agree_across_sub_task_counts() {
    let mut scans: Vec<Vec<Entry>> = Vec::new();
    for subtasks in [1, 2, 12] {
        let r = rig();
        let cfg = DbConfig { flush_threads: 1, memtable_size: 32 << 10, sstable_size: 32 << 10, ..r.cfg(subtasks, true) };
        let db = Db::open(Arc::clone(&r.ctx), Arc::clone(&r.mem), cfg).unwrap();
        let mut rng = SmallRng::seed_from_u64(23);
        for i in 0..6_000u64 {
            let user = format!("key{:08}", rng.gen_range(0..2_000u64)).into_bytes();
            if rng.gen_bool(0.1) {
                db.delete(&user).unwrap();
            } else {
                db.put(&user, &[i as u8; 150]).unwrap();
            }
        }
        db.force_flush().unwrap();
        db.wait_until_quiescent();
        let stats = db.stats().snapshot();
        assert!(stats.compactions > 0 && stats.compaction_records_out < stats.compaction_records_in);
        scans.push(db.reader().scan(b"").unwrap().map(|item| item.unwrap()).collect());
        db.shutdown();
        r.server.shutdown();
    }
    assert!(scans[0].len() > 1_000);
    assert!(scans[0] == scans[1] && scans[0] == scans[2], "full scans differ");
}

// ---- (d) ScanNext: one entry in 16 is timed, every entry is counted ----

#[test]
fn scan_next_counts_every_entry_yielded() {
    let r = rig();
    let db = Db::open(Arc::clone(&r.ctx), Arc::clone(&r.mem), DbConfig::small()).unwrap();
    for i in 0..500u64 {
        db.put(format!("key{i:08}").as_bytes(), &[7u8; 100]).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let count = || db.telemetry_snapshot().op(OpClass::ScanNext).count();
    let mut reader = db.reader();
    for n in [1u64, 15, 16, 17, 100] {
        let before = count();
        assert_eq!(reader.scan(b"").unwrap().take(n as usize).count() as u64, n);
        assert_eq!(count() - before, n, "take({n})");
    }
    // Dropped mid-way: whole groups are in as they complete, the rest on drop.
    let before = count();
    let mut scan = reader.scan(b"key00000100").unwrap();
    for _ in 0..37 {
        scan.next().unwrap().unwrap();
    }
    assert_eq!(count() - before, 32);
    drop(scan);
    assert_eq!(count() - before, 37);
    // Run to the end and kept: settled when it ends, and only once.
    let before = count();
    let mut scan = reader.scan_range(b"key00000100", b"key00000121").unwrap();
    assert_eq!(scan.by_ref().count(), 21);
    assert_eq!(count() - before, 21);
    assert!(scan.next().is_none());
    drop(scan);
    assert_eq!(count() - before, 21);
    let hist = db.telemetry_snapshot().op(OpClass::ScanNext);
    assert!(hist.sum() > 0 && hist.max() > 0);
    drop(reader);
    db.shutdown();
    r.server.shutdown();
}
