//! The merge path, by values and counts (ISSUE 20; none of these is timed):
//! table iterator → `MergingIter` → scan / compaction. The merge is checked
//! against a sort, the index-clipped sub-compactions against the unsplit
//! one, and the sampled `ScanNext` histogram against the entries yielded
//! (DESIGN.md §5.11, §5 "Sub-compaction", §8). ISSUE 23 adds the near-data
//! reply: the merge trace replayed against a rebuild of the output bytes,
//! its size as an exact count, and what a corrupt or oversized one does
//! (DESIGN.md §5.7 "The reply is the merge", §7a). Last, the cut rule: no
//! user key is parted between two tables of one level (§5.7).

use std::cmp::Ordering;
use std::sync::Arc;

use dlsm_repro::dlsm::compaction::{
    clip_inputs, outputs_from_reply, pick_boundaries, run_local, run_near_data, subranges, CompactionJob,
    CompactionOutcome,
};
use dlsm_repro::dlsm::handle::{Extent, GcSink, MetaKind, Origin, TableHandle};
use dlsm_repro::dlsm::{ComputeContext, Db, DbConfig, DbError, MemNodeHandle};
use dlsm_repro::memnode::{
    ClientNetStats, CompactArgs, CompactReply, InputTable, MemServer, MemServerConfig, RpcClient, TableFormat,
};
use dlsm_repro::rdma_sim::{Fabric, NetworkProfile, Verb};
use dlsm_repro::sstable::byte_addr::{ByteAddrBuilder, RawTableIter};
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
    rig_sized(96 << 20)
}

/// A rig whose region is half flush zone, half compaction zone.
fn rig_sized(region_size: usize) -> Rig {
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = MemServer::start(
        &fabric,
        MemServerConfig { region_size, flush_zone: region_size as u64 / 2, compaction_workers: 2, dispatchers: 1 },
    );
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    Rig { fabric, server, ctx, mem }
}

impl Rig {
    /// Write a byte-addressable table into the flush zone.
    fn stage(&self, id: u64, entries: &[(u64, u64, ValueType)]) -> Arc<TableHandle> {
        let value = |user: u64, seq: u64| vec![(user + seq) as u8; 90 + (user % 5) as usize * 8];
        self.stage_records(id, entries, &value)
    }

    /// [`Rig::stage`] with the caller's values.
    fn stage_records(
        &self,
        id: u64,
        entries: &[(u64, u64, ValueType)],
        value: &dyn Fn(u64, u64) -> Vec<u8>,
    ) -> Arc<TableHandle> {
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for &(user, seq, vt) in entries {
            let key = InternalKey::new(format!("key{user:08}").as_bytes(), seq, vt);
            let value = if vt == ValueType::Value { value(user, seq) } else { Vec::new() };
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
        self.run_at(job, cfg, MAX_SEQ, &GcSink::new(Arc::clone(self.mem.flush_alloc()))).unwrap()
    }

    /// Run `job` with `smallest_snapshot` as the oldest live snapshot; dead
    /// extents go to `gc`.
    fn run_at(
        &self,
        job: &CompactionJob,
        cfg: &DbConfig,
        smallest_snapshot: u64,
        gc: &Arc<GcSink>,
    ) -> Result<CompactionOutcome, DbError> {
        let ids = std::sync::atomic::AtomicU64::new(100);
        let next_id = || ids.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let net = Arc::new(ClientNetStats::default());
        if cfg.near_data_compaction {
            run_near_data(job, &self.ctx, &self.mem, cfg, smallest_snapshot, gc, &next_id, &mut Vec::new(), &net, None)
        } else {
            run_local(job, &self.ctx, &self.mem, cfg, smallest_snapshot, gc, &next_id, &net)
        }
    }

    /// Send the memory node every extent queued in `gc`; what its
    /// compaction zone then holds.
    fn collect_garbage(&self, gc: &GcSink) -> u64 {
        if let Some(batch) = gc.take_remote_batch() {
            let mut client = RpcClient::new(&self.fabric, self.ctx.node(), self.mem.node_id(), 64 << 10).unwrap();
            client.free_batch(&batch, std::time::Duration::from_secs(10)).unwrap();
        }
        self.server.compaction_zone_in_use()
    }

    /// The metadata a builder makes of the records `table` holds in the
    /// region: what its handle must carry, however it came by it.
    fn rebuilt_meta(&self, table: &Arc<TableHandle>) -> dlsm_repro::sstable::byte_addr::TableMeta {
        let image = self.image(std::slice::from_ref(table));
        let mut it = RawTableIter::new(&image);
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        it.seek_to_first().unwrap();
        while it.valid() {
            b.add(it.key(), it.value()).unwrap();
            it.next().unwrap();
        }
        b.finish().1
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

// ---- (c') the near-data reply: how the merge went, not what it made ----

impl Rig {
    /// A random job. Even `round`s are L0 → L1 (up to five overlapping
    /// tables, newest first, over disjoint L1 tables), odd ones L1 → L2 (one
    /// table over the L2 tables it overlaps). User keys recur across inputs,
    /// tombstones are frequent, and the bottom tables hold two versions of
    /// some keys, so what survives depends on the snapshot horizon.
    fn random_job(&self, rng: &mut SmallRng, round: u64) -> CompactionJob {
        let users = 1_200u64;
        let level = (round % 2) as usize;
        let tops = if level == 0 { rng.gen_range(2..6u64) } else { 1 };
        let parts = rng.gen_range(1..5u64);
        let drop_deletions = rng.gen_bool(0.5);
        let mut run = |id: u64, base: u64, density: f64, range: std::ops::Range<u64>| {
            let mut entries = Vec::new();
            for user in range {
                if !rng.gen_bool(density) {
                    continue;
                }
                if rng.gen_bool(0.1) {
                    entries.push((user, base + 450, ValueType::Value));
                }
                let vt = if rng.gen_bool(0.2) { ValueType::Deletion } else { ValueType::Value };
                entries.push((user, base + user % 400, vt));
            }
            entries.push((users + id, base, ValueType::Value)); // never empty
            self.stage(id, &entries)
        };
        let inputs_lo = (0..tops).map(|t| run(round * 100 + t, 1_000 * (tops - t + 1), 0.4, 0..users)).collect();
        let inputs_hi =
            (0..parts).map(|t| run(round * 100 + 50 + t, 500, 0.7, t * users / parts..(t + 1) * users / parts)).collect();
        CompactionJob { level, inputs_lo, inputs_hi, drop_deletions }
    }
}

/// Whatever the job, the horizon and the split: the memory node's outputs
/// are byte for byte what a compute-side compaction re-encodes (the parent
/// commit's images), and the metadata the requester replays from the reply is
/// what a builder makes of those bytes — index, bloom filter, counts.
#[test]
fn replayed_metadata_equals_a_rebuild_of_the_output_bytes() {
    let r = rig();
    let mut rng = SmallRng::seed_from_u64(230);
    let gc = GcSink::new(Arc::clone(r.mem.flush_alloc()));
    for round in 0..6u64 {
        let job = r.random_job(&mut rng, round);
        // A live snapshot in the middle of the newest table's sequence
        // numbers, one below everything, and none.
        for snapshot in [MAX_SEQ, 1_000 * job.inputs_lo.len() as u64 + 1_200, 3] {
            let local = r.run_at(&job, &r.cfg(1, false), snapshot, &gc).unwrap();
            let reference = (r.image(&local.outputs), local.records_in, local.records_out);
            for subtasks in [1, 2, 12] {
                let what = format!("round {round}, snapshot {snapshot}, {subtasks} sub-tasks");
                let out = r.run_at(&job, &r.cfg(subtasks, true), snapshot, &gc).unwrap();
                assert!(r.image(&out.outputs) == reference.0, "{what}: output bytes differ");
                assert_eq!((out.records_in, out.records_out), (reference.1, reference.2), "{what}");
                assert_eq!(out.records_in, job.all_inputs().map(|t| t.num_entries).sum::<u64>(), "{what}");
                for t in &out.outputs {
                    let MetaKind::ByteAddr(meta) = &t.meta else { unreachable!() };
                    assert!(**meta == r.rebuilt_meta(t), "{what}: table {} replayed differently", t.id);
                    assert_eq!((t.smallest.as_slice(), t.largest.as_slice()), (meta.smallest().unwrap(), meta.largest().unwrap()));
                    assert_eq!((t.num_entries, t.extent.len), (meta.num_entries, meta.data_len), "{what}");
                }
                drop(out);
                r.collect_garbage(&gc);
            }
        }
    }
}

/// The reply costs a byte per input record and a bloom filter per output
/// table, as a count: nothing in it grows with the index.
#[test]
fn a_reply_is_a_byte_per_input_record_plus_the_bloom_filters() {
    let r = rig();
    let job = r.job();
    let gc = GcSink::new(Arc::clone(r.mem.flush_alloc()));
    for subtasks in [1, 2, 12] {
        let before = r.fabric.stats().snapshot();
        let out = r.run_at(&job, &r.cfg(subtasks, true), MAX_SEQ, &gc).unwrap();
        let d = r.fabric.stats().snapshot().delta(&before);
        // Exactly: per reply a 37-byte frame and a step per input record;
        // per table its extent, its count and ceil(1.25 B × records) + 1.
        let blooms: u64 = out.outputs.iter().map(|t| (t.num_entries * 10).max(64).div_ceil(8) + 1).sum();
        let replies = subranges(&pick_boundaries(&job, subtasks)).len() as u64;
        assert_eq!(out.reply_bytes, 37 * replies + out.records_in + 28 * out.outputs.len() as u64 + blooms);
        assert!(out.reply_bytes <= 2 * out.records_in + 2 * out.records_out + 64 * out.outputs.len() as u64);
        // The replies are the only bytes the job WRITEs anywhere.
        assert_eq!(d.bytes(Verb::Write), out.reply_bytes, "{subtasks} sub-tasks");
    }

    // A fill-shaped run: every WRITE byte on the fabric is a flushed table,
    // a compaction reply, or the 13-byte answer to a GC batch.
    let before = r.fabric.stats().snapshot();
    let cfg = DbConfig { flush_threads: 1, memtable_size: 32 << 10, sstable_size: 32 << 10, ..r.cfg(2, true) };
    let db = Db::open(Arc::clone(&r.ctx), Arc::clone(&r.mem), cfg).unwrap();
    let mut rng = SmallRng::seed_from_u64(231);
    for i in 0..8_000u64 {
        db.put(format!("key{:08}", rng.gen_range(0..3_000u64)).as_bytes(), &[i as u8; 150]).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    db.shutdown();
    let stats = db.stats().snapshot();
    let d = r.fabric.stats().snapshot().delta(&before);
    assert!(stats.compactions >= 3 && stats.compaction_reply_bytes > 0);
    assert!(stats.compaction_reply_bytes <= 3 * stats.compaction_records_in, "{stats}");
    assert_eq!(d.bytes(Verb::Write), stats.flush_bytes + stats.compaction_reply_bytes + 13 * stats.gc_batches);
    r.server.shutdown();
}

/// 36 flushed tables of 16 000 records merged by one sub-task: as an index
/// (45 B a record) the reply overflowed the default 24 MiB buffer and parked
/// the requester; as a trace it is under 2 MiB.
#[test]
fn a_36_table_backlog_compacts_under_the_default_reply_buffer() {
    let r = rig_sized(160 << 20);
    let per_table = 16_000u64;
    let inputs_lo: Vec<_> = (0..36u64)
        .map(|t| {
            let entries: Vec<_> = (0..per_table).map(|i| (i * 36 + t, 100 - t, ValueType::Value)).collect();
            r.stage_records(t, &entries, &|user, _| user.to_le_bytes().to_vec())
        })
        .collect();
    let job = CompactionJob { level: 0, inputs_lo, inputs_hi: Vec::new(), drop_deletions: true };
    let cfg = DbConfig { rpc_buf_size: DbConfig::default().rpc_buf_size, sstable_size: 8 << 20, ..r.cfg(1, true) };
    let out = r.run(&job, &cfg);
    assert_eq!((out.records_in, out.records_out), (36 * per_table, 36 * per_table));
    assert!(out.records_out * 45 > cfg.rpc_buf_size as u64, "the index would not have fitted");
    assert!(out.reply_bytes < 2 << 20, "{} reply bytes", out.reply_bytes);
    let MetaKind::ByteAddr(meta) = &out.outputs[0].meta else { unreachable!() };
    assert!(**meta == r.rebuilt_meta(&out.outputs[0]));
    r.server.shutdown();
}

/// A reply that does not fit the requester's buffer fails the job at once —
/// the memory node answers with an error status instead of not at all — and
/// nothing is left behind: the next job, with room, runs as usual.
#[test]
fn an_oversized_reply_fails_the_job_at_once_and_leaks_nothing() {
    let r = rig();
    let job = r.job();
    let gc = GcSink::new(Arc::clone(r.mem.flush_alloc()));
    let started = std::time::Instant::now();
    let tiny = DbConfig { rpc_buf_size: 1 << 10, ..r.cfg(1, true) };
    let err = r.run_at(&job, &tiny, MAX_SEQ, &gc).err().expect("a 1 KiB buffer cannot hold the reply");
    assert!(matches!(&err, DbError::MemNode(m) if m.contains("exceeds the 1024-byte reply buffer")), "{err}");
    // Far inside the first attempt's 120 s: no retry was spent on it.
    assert!(started.elapsed() < std::time::Duration::from_secs(20), "{:?}", started.elapsed());
    assert_eq!(gc.remote_pending_len(), 0, "the requester was told of no output");
    assert_eq!(r.server.compaction_zone_in_use(), 0, "the memory node kept the outputs of a failed job");
    let out = r.run_at(&job, &r.cfg(1, true), MAX_SEQ, &gc).unwrap();
    assert!(out.records_out > 0);
    drop(out);
    assert_eq!(r.collect_garbage(&gc), 0);

    // The same through a database: its compactions fail, its flushes do
    // not, and every byte in either zone belongs to a live table.
    let failed_before = r.server.stats().failures.load(std::sync::atomic::Ordering::Relaxed);
    // 1 KiB holds the arguments of a job over every table this run can
    // flush, and the reply of none: four tables are over 1 500 records.
    let cfg = DbConfig { rpc_buf_size: 1 << 10, l0_stop_writes_trigger: None, ..r.cfg(1, true) };
    let db = Db::open(Arc::clone(&r.ctx), Arc::clone(&r.mem), cfg).unwrap();
    for i in 0..8_000u64 {
        db.put(format!("key{:08}", i % 3_000).as_bytes(), &[i as u8; 16]).unwrap();
    }
    db.force_flush().unwrap();
    // The compactor has its four tables: wait for its first attempt.
    let failures = || r.server.stats().failures.load(std::sync::atomic::Ordering::Relaxed) - failed_before;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while failures() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    db.shutdown();
    let stats = db.stats().snapshot();
    let failed = failures();
    assert!(stats.flushes >= 4 && stats.compactions == 0 && failed >= 1, "{stats}, {failed} failed");
    let staged: u64 = job.all_inputs().map(|t| t.extent.len.next_multiple_of(8)).sum();
    let live = |origin| db.live_extents().iter().filter(|e| e.0 == origin).map(|e| e.2).sum::<u64>();
    assert_eq!(live(Origin::Compute) + staged, r.mem.flush_alloc().in_use());
    assert_eq!((live(Origin::MemNode), r.server.compaction_zone_in_use()), (0, 0));
    r.server.shutdown();
}

/// One sub-task over the whole of `job`, by hand: its arguments and a
/// client to send them with.
fn whole_job_args(r: &Rig, job: &CompactionJob, cfg: &DbConfig) -> (CompactArgs, RpcClient) {
    let args = CompactArgs {
        format: TableFormat::ByteAddr,
        smallest_snapshot: MAX_SEQ,
        drop_deletions: job.drop_deletions,
        max_output_bytes: cfg.sstable_size,
        bits_per_key: cfg.bits_per_key as u32,
        range_lo: Vec::new(),
        range_hi: Vec::new(),
        inputs: clip_inputs(job, b"", b""),
    };
    (args, RpcClient::new(&r.fabric, r.ctx.node(), r.mem.node_id(), cfg.rpc_buf_size).unwrap())
}

/// The reply is untrusted input. Whatever is wrong with it, the requester
/// ends with an error — no panic, no table whose index disagrees with its
/// bytes — and has queued every extent the reply named for the memory node
/// to free; `run_near_data` returns that error, so nothing is installed.
#[test]
fn corrupt_replies_are_refused_and_their_outputs_reclaimed() {
    type Corruption = (&'static str, Box<dyn Fn(&mut CompactReply)>);
    let r = rig();
    let job = r.job();
    let cfg = r.cfg(1, true);
    let (args, mut client) = whole_job_args(&r, &job, &cfg);
    let ids = std::sync::atomic::AtomicU64::new(100);
    let next_id = || ids.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let inputs = args.inputs.len() as u8;
    // Two neighbouring kept steps of different inputs; a dropped step.
    let probe = client.compact(&args, r.ctx.waiter(), std::time::Duration::from_secs(10)).unwrap();
    let pair = probe.steps.windows(2).position(|w| w[0] & 1 == 1 && w[1] & 1 == 1 && w[0] != w[1]).unwrap();
    let dropped = probe.steps.iter().position(|s| s & 1 == 0).unwrap();
    assert!(probe.outputs.len() >= 2 && probe.steps.len() as u64 == probe.records_in);
    let corruptions: Vec<Corruption> = vec![
        ("an ordinal naming no input", Box::new(move |p| p.steps[pair] = inputs << 1 | 1)),
        ("an ordinal naming another input", Box::new(move |p| p.steps[pair] = p.steps[pair + 1])),
        ("a kept bit cleared", Box::new(move |p| p.steps[pair] &= !1)),
        ("a kept bit set", Box::new(move |p| p.steps[dropped] |= 1)),
        ("a step short", Box::new(|p| p.steps.truncate(p.steps.len() - 1))),
        ("a step too many", Box::new(|p| p.steps.push(0))),
        ("no steps", Box::new(|p| p.steps.clear())),
        ("two steps swapped", Box::new(move |p| p.steps.swap(pair, pair + 1))),
        ("a table's count too high", Box::new(|p| p.outputs[0].records += 1)),
        ("a table's count too low", Box::new(|p| p.outputs[0].records -= 1)),
        ("a table's count zero", Box::new(|p| p.outputs[0].records = 0)),
        ("a table's length off", Box::new(|p| p.outputs[0].len -= 8)),
        ("a table missing", Box::new(|p| p.outputs.truncate(p.outputs.len() - 1))),
        ("records_in off", Box::new(|p| p.records_in += 1)),
        ("records_out off", Box::new(|p| p.records_out -= 1)),
        ("a bloom filter without probes", Box::new(|p| *p.outputs[0].meta.last_mut().unwrap() = 0)),
    ];
    let mut reply = probe;
    for (what, corrupt) in &corruptions {
        let gc = GcSink::new(Arc::clone(r.mem.flush_alloc()));
        let honest: Vec<(u64, u64)> = reply.outputs.iter().map(|o| (o.offset, o.len)).collect();
        corrupt(&mut reply);
        let err = outputs_from_reply(&job, b"", b"", &r.ctx, &r.mem, &cfg, &gc, &next_id, &reply, None)
            .err()
            .unwrap_or_else(|| panic!("{what}: accepted"));
        assert!(matches!(err, DbError::Sst(_)), "{what}: {err}");
        let named: Vec<(u64, u64)> = reply.outputs.iter().map(|o| (o.offset, o.len)).collect();
        assert_eq!(gc.take_remote_batch().unwrap_or_default(), named, "{what}: queued for freeing");
        // Free what the memory node really allocated, and go again.
        client.free_batch(&honest, std::time::Duration::from_secs(10)).unwrap();
        assert_eq!(r.server.compaction_zone_in_use(), 0, "{what}");
        reply = client.compact(&args, r.ctx.waiter(), std::time::Duration::from_secs(10)).unwrap();
    }
    // Untouched, the reply is what `run_near_data` makes of the job.
    let gc = GcSink::new(Arc::clone(r.mem.flush_alloc()));
    let out = outputs_from_reply(&job, b"", b"", &r.ctx, &r.mem, &cfg, &gc, &next_id, &reply, None).unwrap();
    let again = r.run(&job, &cfg);
    assert!(r.image(&out.outputs) == r.image(&again.outputs));
    assert_eq!((out.records_in, out.records_out, out.reply_bytes), (again.records_in, again.records_out, again.reply_bytes));
    r.server.shutdown();
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

// ---- (e) no user key in two tables of one level ----

/// Overwrites under a pinned snapshot keep two versions of every key. An
/// output cut between them put the two in neighbouring tables of one level,
/// and a later job that took only the newer one's table moved it below the
/// older: `get` read the old value. Outputs are now cut only where a user key
/// starts, near the data and on the compute node alike.
#[test]
fn overwrites_under_a_pinned_snapshot_read_their_own_version() {
    const N: u64 = 2_000;
    let key = |i: u64| format!("{:016x}-{i:07}", i.wrapping_mul(0x9E3779B97F4A7C15)).into_bytes();
    let value = |i: u64, version: u8| [vec![version; 8], vec![i as u8; 120]].concat();
    for near_data in [true, false] {
        let r = rig();
        let cfg = DbConfig { near_data_compaction: near_data, flush_threads: 1, compaction_subtasks: 1, ..DbConfig::small() };
        let db = Db::open(Arc::clone(&r.ctx), Arc::clone(&r.mem), cfg).unwrap();
        // A MemTable's worth at a time, each flushed and compacted to quiescence.
        let load = |version: u8| {
            for i in 0..N {
                db.put(&key(i), &value(i, version)).unwrap();
                if i % 256 == 255 || i == N - 1 {
                    db.force_flush().unwrap();
                    db.wait_until_quiescent();
                }
            }
        };
        load(1);
        let snap = db.snapshot();
        load(2);
        let version = db.version();
        assert!(version.level(2).len() > 1, "near_data {near_data}: want jobs below L1: {:?}", version.shape());
        for level in 1..version.level_count() {
            let tables = version.level(level);
            assert!(tables.windows(2).all(|w| w[0].largest_user() < w[1].smallest_user()), "near_data {near_data}: L{level} shares a key");
        }
        let mut reader = db.reader();
        for i in 0..N {
            assert_eq!(reader.get(&key(i)).unwrap(), Some(value(i, 2)), "near_data {near_data}: key {i}");
            assert_eq!(reader.get_at(&snap, &key(i)).unwrap(), Some(value(i, 1)), "near_data {near_data}: key {i} at the snapshot");
        }
        drop((snap, reader));
        db.shutdown();
        r.server.shutdown();
    }
}
