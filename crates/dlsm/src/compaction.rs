//! Compaction picking and execution (paper Sec. V).
//!
//! The compute node owns the *policy* — it keeps the LSM metadata, decides
//! which tables to compact and when — while the *mechanism* runs wherever
//! configured:
//!
//! * **Near-data** (`near_data_compaction = true`, dLSM's design): the
//!   compute node ships table extents + merge parameters over the
//!   customized RPC; the memory node merges against its own DRAM and
//!   replies with output metadata. Only metadata crosses the network.
//! * **Compute-side** (`false`, the baselines and the Fig. 12 comparison):
//!   inputs are pulled over the fabric, merged locally, and outputs are
//!   written back — data crosses the network twice.
//!
//! Large compactions split into up to `compaction_subtasks` disjoint
//! user-key ranges executed in parallel (the paper's sub-compaction,
//! Sec. V-A); boundaries come from the compute-node-resident index, so
//! splitting costs no remote I/O, and the same index clips every input to
//! each sub-range ([`clip_inputs`]), so a sub-task is handed only its bytes.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use dlsm_cache::ReadCache;
use dlsm_memnode::{ClientNetStats, CompactArgs, CompactReply, InputTable, OutputTable, RpcClient, TableFormat};
use dlsm_sstable::bloom::BloomFilter;
use dlsm_sstable::byte_addr::{ByteAddrBuilder, TableMeta};
use dlsm_sstable::block::BlockTableBuilder;
use dlsm_sstable::coding::get_len_prefixed;
use dlsm_sstable::iter::{ClampIter, MergingIter};
use dlsm_sstable::key::{self, SeqNo};
use dlsm_sstable::merge::{CompactionIter, MergeConfig};
use dlsm_sstable::ForwardIter;

use crate::config::DbConfig;
use crate::context::{ComputeContext, MemNodeHandle};
use crate::handle::{Extent, GcSink, MetaKind, Origin, TableHandle};
use crate::version::Version;
use crate::{DbError, Result};

/// A picked compaction: inputs from `level`, overlapping inputs from
/// `level + 1`, outputs into `level + 1`.
pub struct CompactionJob {
    /// Input level (0 for L0 → L1).
    pub level: usize,
    /// Tables from `level` (L0: newest first — merge priority order).
    pub inputs_lo: Vec<Arc<TableHandle>>,
    /// Overlapping tables from `level + 1` (key order).
    pub inputs_hi: Vec<Arc<TableHandle>>,
    /// Whether tombstones may be dropped (nothing overlaps below the
    /// output level).
    pub drop_deletions: bool,
}

impl CompactionJob {
    /// The output level.
    pub fn output_level(&self) -> usize {
        self.level + 1
    }

    /// All inputs in merge-priority order.
    pub fn all_inputs(&self) -> impl Iterator<Item = &Arc<TableHandle>> {
        self.inputs_lo.iter().chain(self.inputs_hi.iter())
    }

    /// Total input bytes.
    pub fn input_bytes(&self) -> u64 {
        self.all_inputs().map(|t| t.extent.len).sum()
    }

    /// Union user-key range of the inputs.
    pub fn user_range(&self) -> (Vec<u8>, Vec<u8>) {
        let mut lo: Option<&[u8]> = None;
        let mut hi: Option<&[u8]> = None;
        for t in self.all_inputs() {
            let (s, l) = (t.smallest_user(), t.largest_user());
            if lo.is_none_or(|cur| s < cur) {
                lo = Some(s);
            }
            if hi.is_none_or(|cur| l > cur) {
                hi = Some(l);
            }
        }
        (lo.unwrap_or_default().to_vec(), hi.unwrap_or_default().to_vec())
    }
}

/// Maximum bytes allowed at `level` (≥ 1) before it wants compaction.
pub fn max_bytes_for_level(cfg: &DbConfig, level: usize) -> u64 {
    debug_assert!(level >= 1);
    let mut max = cfg.l1_max_bytes;
    for _ in 1..level {
        max = max.saturating_mul(cfg.level_multiplier);
    }
    max
}

/// The L0 table count at which L0 compacts. While writes are arriving L0
/// waits for twice `l0_compaction_trigger`, or for halfway to
/// `l0_stop_writes_trigger` if that comes first: a compactor that keeps up
/// spends its spare time on bigger L0 batches — more L0 bytes retired per
/// rewrite of L1 — rather than on more rewrites. With no writes arriving it
/// is `l0_compaction_trigger`, so a quiescent L0 is below that.
pub fn l0_trigger(cfg: &DbConfig, writes_arriving: bool) -> usize {
    let t = cfg.l0_compaction_trigger;
    let halfway = cfg.l0_stop_writes_trigger.map_or(usize::MAX, |stop| t + stop.saturating_sub(t) / 2);
    if writes_arriving { (2 * t).min(halfway) } else { t }
}

/// Compaction pressure at `level`: ≥ 1.0 means the level is over its
/// trigger. L0 scores by file count against `l0_trigger` ([`l0_trigger`]),
/// deeper levels by byte volume against [`max_bytes_for_level`]. The last
/// level never compacts further and scores 0. This is the same figure
/// [`pick_compaction`] ranks on; the gauge sampler and stats report export
/// it per level.
pub fn level_score(version: &Version, cfg: &DbConfig, l0_trigger: usize, level: usize) -> f64 {
    if level == 0 {
        version.level(0).len() as f64 / l0_trigger as f64
    } else if level + 1 < version.level_count() {
        version.level_bytes(level) as f64 / max_bytes_for_level(cfg, level) as f64
    } else {
        0.0
    }
}

/// Pick the most urgent compaction, if any level is over its trigger.
///
/// `compact_pointer` persists the round-robin cursor per level (LevelDB's
/// `compact_pointer_`), so repeated Ln compactions sweep the key space.
pub fn pick_compaction(
    version: &Version,
    cfg: &DbConfig,
    l0_trigger: usize,
    compact_pointer: &mut Vec<Vec<u8>>,
) -> Option<CompactionJob> {
    compact_pointer.resize(version.level_count(), Vec::new());
    // Score every level; L0 by file count, others by byte volume.
    let mut best: Option<(f64, usize)> = None;
    for level in 0..version.level_count() - 1 {
        let score = level_score(version, cfg, l0_trigger, level);
        if score >= 1.0 && best.is_none_or(|(s, _)| score > s) {
            best = Some((score, level));
        }
    }
    let (_, level) = best?;

    let inputs_lo: Vec<Arc<TableHandle>> = if level == 0 {
        version.level(0).to_vec() // newest first already
    } else {
        // Round-robin: the first table past the cursor, wrapping — and its
        // successors for as long as the level stays over its limit without
        // them: neighbours share the tables they overlap one level down, so
        // one job for the whole excess rewrites less than a job per table.
        let tables = version.level(level);
        let start = tables
            .iter()
            .position(|t| t.smallest > compact_pointer[level])
            .unwrap_or(0);
        let excess = version.level_bytes(level).saturating_sub(max_bytes_for_level(cfg, level));
        let mut taken = 0;
        let wanted = |t: &&Arc<TableHandle>| {
            let take = taken <= excess;
            taken += t.extent.len;
            take
        };
        tables[start..].iter().take_while(wanted).cloned().collect()
    };
    if inputs_lo.is_empty() {
        return None;
    }

    // Overlapping tables one level down.
    let (lo, hi) = {
        let job = CompactionJob { level, inputs_lo, inputs_hi: Vec::new(), drop_deletions: false };
        let range = job.user_range();
        (job.inputs_lo, range)
    };
    let (inputs_lo, (ulo, uhi)) = (lo, hi);
    let inputs_hi = version.overlapping(level + 1, &ulo, &uhi);

    if level >= 1 {
        if let Some(last) = inputs_lo.last() {
            compact_pointer[level] = last.smallest.clone();
        }
    }

    // Tombstones can drop if no deeper level holds any overlapping key.
    let mut drop_deletions = true;
    for deeper in (level + 2)..version.level_count() {
        if !version.overlapping(deeper, &ulo, &uhi).is_empty() {
            drop_deletions = false;
            break;
        }
    }

    Some(CompactionJob { level, inputs_lo, inputs_hi, drop_deletions })
}

/// Choose up to `k - 1` user-key boundaries splitting the job into `k`
/// disjoint sub-ranges, using the compute-node-resident index of the
/// largest input (no remote I/O).
pub fn pick_boundaries(job: &CompactionJob, k: usize) -> Vec<Vec<u8>> {
    if k <= 1 {
        return Vec::new();
    }
    let Some(biggest) = job.all_inputs().max_by_key(|t| t.num_entries) else { return Vec::new() };
    let mut keys: Vec<Vec<u8>> = Vec::new();
    match &biggest.meta {
        MetaKind::ByteAddr(meta) => {
            let n = meta.index.len();
            if n >= 2 * k {
                for i in 1..k {
                    keys.push(key::user_key(meta.index.key(i * n / k)).to_vec());
                }
            }
        }
        MetaKind::Block(cache, _) => {
            // Sample the handle's own key range linearly (block caches do
            // not expose per-record keys; an even split of the byte range is
            // approximated by splitting the [smallest, largest] span of
            // sampled records — fall back to no split for tiny tables).
            let lo = biggest.smallest_user().to_vec();
            let hi = biggest.largest_user().to_vec();
            if cache.num_entries() >= (2 * k) as u64 && lo.len() == hi.len() && !lo.is_empty() {
                // Interpolate numerically over the first 8 differing bytes.
                keys = interpolate_keys(&lo, &hi, k);
            }
        }
    }
    keys.sort();
    keys.dedup();
    keys
}

/// Evenly interpolate `k - 1` keys between `lo` and `hi` (same length).
fn interpolate_keys(lo: &[u8], hi: &[u8], k: usize) -> Vec<Vec<u8>> {
    let width = lo.len().min(8);
    let mut lo8 = [0u8; 8];
    let mut hi8 = [0u8; 8];
    lo8[..width].copy_from_slice(&lo[..width]);
    hi8[..width].copy_from_slice(&hi[..width]);
    let (a, b) = (u64::from_be_bytes(lo8), u64::from_be_bytes(hi8));
    if b <= a {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 1..k {
        let x = a + (b - a) / k as u64 * i as u64;
        let mut keyb = lo.to_vec();
        keyb[..width].copy_from_slice(&x.to_be_bytes()[..width]);
        out.push(keyb);
    }
    out
}

/// Sub-range bounds from boundaries: `[(lo0, hi0), (lo1, hi1), ...]` with
/// empty vectors meaning open ends.
pub fn subranges(boundaries: &[Vec<u8>]) -> Vec<(Vec<u8>, Vec<u8>)> {
    if boundaries.is_empty() {
        return vec![(Vec::new(), Vec::new())];
    }
    let mut out = Vec::with_capacity(boundaries.len() + 1);
    let mut lo = Vec::new();
    for b in boundaries {
        out.push((lo.clone(), b.clone()));
        lo = b.clone();
    }
    out.push((lo, Vec::new()));
    out
}

/// What the sub-task for user keys `[lo, hi)` (empty bound = open) is sent
/// of each input. A byte-addressable table is clipped to its records in
/// range by its compute-resident index — records are self-describing, so any
/// run of whole records is a table to the memory node — and left out when it
/// has none; a block table goes whole. Over a job's sub-ranges the clips of
/// one input tile it: the memory node parses every record once, however many
/// sub-tasks there are.
pub fn clip_inputs(job: &CompactionJob, lo: &[u8], hi: &[u8]) -> Vec<InputTable> {
    let clip = |t: &Arc<TableHandle>| {
        let within = match &t.meta {
            MetaKind::ByteAddr(meta) => meta.byte_range(&meta.user_range(lo, hi)),
            MetaKind::Block(..) => 0..t.extent.len,
        };
        let input = || InputTable { offset: t.extent.offset + within.start, len: within.end - within.start };
        (!within.is_empty()).then(input)
    };
    job.all_inputs().filter_map(clip).collect()
}

/// A table's whole data image, as the read cache's extent pool holds it.
pub type Image = Arc<Vec<u8>>;

/// Outcome of one executed compaction.
#[derive(Default)]
pub struct CompactionOutcome {
    /// New tables for the output level, in key order.
    pub outputs: Vec<Arc<TableHandle>>,
    /// Per output, its data image if the compute node held the bytes at the
    /// table's birth — gathered from its inputs' cached images ([`Gather`]) or
    /// staged by a compute-side merge — for the install to admit to the cache.
    pub images: Vec<Option<Image>>,
    /// Records read.
    pub records_in: u64,
    /// Records written.
    pub records_out: u64,
    /// Bytes of the near-data compaction replies, as framed on the wire
    /// (0 for a compute-side compaction).
    pub reply_bytes: u64,
}

/// Execute `job` by near-data compaction: one RPC per sub-range, all in
/// flight concurrently, each executed by a memory-node worker core.
///
/// `clients` is a reusable pool of RPC clients (owned by the compaction
/// coordinator): creating a client registers multi-MB reply/argument
/// buffers with the NIC, which — per the paper's "register large regions
/// once" rule (Sec. X-B) — must not happen per compaction.
#[allow(clippy::too_many_arguments)]
pub fn run_near_data(
    job: &CompactionJob,
    ctx: &ComputeContext,
    memnode: &MemNodeHandle,
    cfg: &DbConfig,
    smallest_snapshot: SeqNo,
    gc: &Arc<GcSink>,
    next_id: &(dyn Fn() -> u64 + Sync),
    clients: &mut Vec<RpcClient>,
    net: &Arc<ClientNetStats>,
    cache: Option<&Arc<ReadCache>>,
) -> Result<CompactionOutcome> {
    let boundaries = pick_boundaries(job, cfg.compaction_subtasks.max(1));
    let ranges = subranges(&boundaries);
    while clients.len() < ranges.len() {
        clients.push(
            RpcClient::new(ctx.fabric(), ctx.node(), memnode.node_id(), cfg.rpc_buf_size)?
                .with_policy(cfg.rpc_retry)
                .with_net_stats(Arc::clone(net)),
        );
    }

    // One RPC per sub-range, issued from scoped threads: each requester
    // sleeps until the memory node's WRITE-with-IMMEDIATE wakes it, then
    // turns its reply into table handles. The coordinator's trace context is
    // captured here so each subtask thread (a fresh recorder with no span
    // stack) records as its child.
    let trace_ctx = dlsm_trace::current_ctx();
    let parts: Vec<Result<CompactionOutcome>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranges.len());
        for ((lo, hi), client) in ranges.iter().zip(clients.iter_mut()) {
            let args = CompactArgs {
                format: cfg.format,
                smallest_snapshot,
                drop_deletions: job.drop_deletions,
                max_output_bytes: cfg.sstable_size,
                bits_per_key: cfg.bits_per_key as u32,
                range_lo: lo.clone(),
                range_hi: hi.clone(),
                inputs: clip_inputs(job, lo, hi),
            };
            handles.push(scope.spawn(move || -> Result<CompactionOutcome> {
                let _sp = match trace_ctx {
                    Some(c) => dlsm_trace::span_child_of(
                        dlsm_trace::Category::Compact,
                        "compact_subtask",
                        c,
                    ),
                    None => dlsm_trace::span(dlsm_trace::Category::Compact, "compact_subtask"),
                };
                let reply = client.compact(&args, ctx.waiter(), Duration::from_secs(120))?;
                outputs_from_reply(job, lo, hi, ctx, memnode, cfg, gc, next_id, &reply, cache)
            }));
        }
        // Every sub-task is joined before any result is looked at: a failed
        // one drops the others' handles, which frees their outputs.
        handles.into_iter().map(|h| h.join().expect("sub-compaction thread panicked")).collect()
    });

    let mut outcome = CompactionOutcome::default();
    for part in parts.into_iter().collect::<Result<Vec<_>>>()? {
        outcome.records_in += part.records_in;
        outcome.records_out += part.records_out;
        outcome.reply_bytes += part.reply_bytes;
        outcome.outputs.extend(part.outputs);
        outcome.images.extend(part.images);
    }
    // Sub-ranges were issued in key order and each reply's outputs are in
    // key order, so the concatenation is already sorted; assert in debug.
    debug_assert!(outcome
        .outputs
        .windows(2)
        .all(|w| w[0].largest_user() <= w[1].smallest_user()));
    Ok(outcome)
}

/// What the sub-task for user keys `[lo, hi)` makes of its reply: a handle per
/// output table, and its image where `cache` holds the inputs' and somebody
/// reads them. The outputs are the caller's to free once the memory node
/// has answered — by their handles, or here and now if the reply is refused.
#[allow(clippy::too_many_arguments)]
pub fn outputs_from_reply(
    job: &CompactionJob,
    lo: &[u8],
    hi: &[u8],
    ctx: &ComputeContext,
    memnode: &MemNodeHandle,
    cfg: &DbConfig,
    gc: &Arc<GcSink>,
    next_id: &(dyn Fn() -> u64 + Sync),
    reply: &CompactReply,
    cache: Option<&Arc<ReadCache>>,
) -> Result<CompactionOutcome> {
    let extent = |o: &OutputTable| Extent { offset: o.offset, len: o.len };
    let (described, images) = describe_outputs(job, lo, hi, ctx, memnode, cfg, reply, cache)
        .inspect_err(|_| reply.outputs.iter().for_each(|o| gc.enqueue(Origin::MemNode, extent(o))))?;
    let handle = |(o, (meta, smallest, largest, n)): (&OutputTable, Described)| {
        let gc = Some(Arc::clone(gc));
        TableHandle::new(next_id(), memnode.remote(), extent(o), Origin::MemNode, meta, smallest, largest, n, gc)
    };
    Ok(CompactionOutcome {
        outputs: reply.outputs.iter().zip(described).map(handle).collect(),
        images,
        records_in: reply.records_in,
        records_out: reply.records_out,
        reply_bytes: reply.frame_len() as u64,
    })
}

/// `(metadata, smallest key, largest key, records)` of an output table.
type Described = (MetaKind, Vec<u8>, Vec<u8>, u64);

/// The images of a merge's output tables, gathered from its inputs' cached
/// images while the reply is replayed: the memory node copied kept records as
/// they lay, so wherever record `r` of input `i` went, the compute node's copy
/// of it goes too — a local copy, nothing crosses the fabric. All or nothing
/// per table: one record whose input has no image (or whose bytes the image
/// does not hold) and the table gets none, and is read as any uncached table.
struct Gather<'a> {
    /// Each input's resident image, as the trace numbers the inputs.
    inputs: Vec<Option<&'a Image>>,
    /// Each output's image so far; `None`: not gathered, or given up.
    outputs: Vec<Option<Vec<u8>>>,
    /// `(input, output, bytes)`: adjacent kept records of one input bound for
    /// one output, not copied yet — one copy per run, not per record.
    run: (usize, usize, Range<usize>),
}

impl Gather<'_> {
    /// The `len` bytes at `offset` of `input` are the next record of `output`.
    fn keep(&mut self, input: usize, output: usize, (offset, len): (u64, usize)) {
        if (self.run.0, self.run.1, self.run.2.end) != (input, output, offset as usize) {
            self.copy_run();
            self.run = (input, output, offset as usize..offset as usize);
        }
        self.run.2.end += len;
    }

    fn copy_run(&mut self) {
        let (input, output, bytes) = self.run.clone();
        let Some(Some(image)) = self.outputs.get_mut(output).filter(|_| !bytes.is_empty()) else { return };
        match self.inputs[input].and_then(|from| from.get(bytes)) {
            Some(records) => image.extend_from_slice(records),
            None => self.outputs[output] = None,
        }
    }
}

/// The output tables of the sub-task for `[lo, hi)`, described from its
/// reply, and their images ([`CompactionOutcome::images`]). The reply is
/// untrusted: the result is a description the inputs' own indexes bear out,
/// or an error.
#[allow(clippy::too_many_arguments)]
fn describe_outputs(
    job: &CompactionJob,
    lo: &[u8],
    hi: &[u8],
    ctx: &ComputeContext,
    memnode: &MemNodeHandle,
    cfg: &DbConfig,
    reply: &CompactReply,
    cache: Option<&Arc<ReadCache>>,
) -> Result<(Vec<Described>, Vec<Option<Image>>)> {
    match cfg.format {
        TableFormat::ByteAddr => {
            // The memory node copied surviving records as they lay and says
            // in which order it consumed the inputs: replayed over the index
            // records `clip_inputs` sent it, that is the outputs' indexes.
            let corrupt = |what: &str| DbError::Sst(format!("corrupt compaction reply: {what}"));
            // The gate: gathering costs compute-node CPU per record, so it
            // runs only if a reader has hit one of the job's input images
            // since it was admitted — a load nobody reads copies nothing.
            let resident: Vec<_> = job.all_inputs().map(|t| cache.and_then(|c| c.extent_peek(t.id))).collect();
            let read = resident.iter().flatten().any(|(_, read)| *read);
            let (inputs, images): (Vec<(&TableMeta, Range<usize>)>, Vec<_>) = job
                .all_inputs()
                .zip(&resident)
                .filter_map(|(t, image)| match &t.meta {
                    MetaKind::ByteAddr(meta) => Some(((&**meta, meta.user_range(lo, hi)), image.as_ref().map(|(image, _)| image))),
                    MetaKind::Block(..) => None,
                })
                .filter(|((_, records), _)| !records.is_empty())
                .unzip();
            // Room for each table the pool could hold, as long as the reply says
            // it is but never more than was sent: only the replay checks that.
            let mut room: u64 = inputs.iter().map(|(meta, records)| meta.byte_range(records)).map(|b| b.end - b.start).sum();
            let image = |o: &OutputTable| {
                let len = o.len.min(room);
                room -= len;
                cache.filter(|c| read && c.wants_flush_image(o.len)).map(|_| Vec::with_capacity(len as usize))
            };
            let mut gather = Gather { inputs: images, outputs: reply.outputs.iter().map(image).collect(), run: (0, 0, 0..0) };
            let kept = |input: usize, record: usize, output: usize| if read { gather.keep(input, output, inputs[input].0.index.record(record)) };
            let table = |o: &OutputTable| Some((o.records, o.len, BloomFilter::decode(&o.meta)?));
            let tables: Option<Vec<_>> = reply.outputs.iter().map(table).collect();
            let metas = TableMeta::replay_merge(&inputs, &reply.steps, tables.ok_or_else(|| corrupt("bloom filter"))?, kept)?;
            gather.copy_run();
            let sent: usize = inputs.iter().map(|(_, records)| records.len()).sum();
            let kept: u64 = metas.iter().map(|m| m.num_entries).sum();
            if reply.records_in != sent as u64 || reply.records_out != kept {
                return Err(corrupt("record counts"));
            }
            let describe = |meta: TableMeta| {
                let smallest = meta.smallest().unwrap_or_default().to_vec();
                let largest = meta.largest().unwrap_or_default().to_vec();
                let n = meta.num_entries;
                (MetaKind::ByteAddr(Arc::new(meta)), smallest, largest, n)
            };
            let whole = |(image, o): (Option<Vec<u8>>, &OutputTable)| image.filter(|i| i.len() as u64 == o.len).map(Arc::new);
            Ok((metas.into_iter().map(describe).collect(), gather.outputs.into_iter().zip(&reply.outputs).map(whole).collect()))
        }
        TableFormat::Block(block_size) => {
            // Reply carries only the key bounds; fetch each table's index and
            // filter (3 remote reads) to populate the compute-side cache.
            let describe = |out: &OutputTable| -> Result<Described> {
                let (smallest, n1) = get_len_prefixed(&out.meta, 0)?;
                let (largest, _) = get_len_prefixed(&out.meta, n1)?;
                let qp = ctx.fabric().create_qp(ctx.node().id(), memnode.node_id())?;
                let channel = crate::remote::ReadChannel::one_sided(qp);
                let source = crate::remote::RemoteSource::new(channel, memnode.remote().addr(out.offset), out.len);
                let reader = dlsm_sstable::block::BlockTableReader::open(source)?;
                let n = reader.num_entries();
                Ok((MetaKind::Block(reader.meta_cache(), block_size), smallest.to_vec(), largest.to_vec(), n))
            };
            let described: Result<Vec<Described>> = reply.outputs.iter().map(describe).collect();
            Ok((described?, vec![None; reply.outputs.len()]))
        }
    }
}

/// Execute `job` on the compute node: pull every input byte over the
/// network, merge locally, push every output byte back. This is what the
/// paper's baselines do, and what dLSM avoids.
#[allow(clippy::too_many_arguments)]
pub fn run_local(
    job: &CompactionJob,
    ctx: &ComputeContext,
    memnode: &MemNodeHandle,
    cfg: &DbConfig,
    smallest_snapshot: SeqNo,
    gc: &Arc<GcSink>,
    next_id: &dyn Fn() -> u64,
    net: &Arc<ClientNetStats>,
) -> Result<CompactionOutcome> {
    let boundaries = pick_boundaries(job, cfg.compaction_subtasks.max(1));
    let ranges = subranges(&boundaries);

    /// (image, meta, smallest, largest) of a staged byte-addressable output.
    type StagedByteAddr = (Vec<u8>, TableMeta, Vec<u8>, Vec<u8>);
    /// (image, smallest, largest, entries) of a staged block output.
    type StagedBlock = (Vec<u8>, Vec<u8>, Vec<u8>, u64);

    struct SubResult {
        staged: Vec<StagedByteAddr>,
        block_staged: Vec<StagedBlock>,
        records_in: u64,
        records_out: u64,
    }

    let subresults: Vec<SubResult> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranges.len());
        for (lo, hi) in &ranges {
            let job = &*job;
            handles.push(scope.spawn(move || -> Result<SubResult> {
                let channel = read_channel_for(ctx, memnode, cfg, net)?;
                let iters: Vec<Box<dyn ForwardIter>> = job
                    .all_inputs()
                    // Compaction sweeps every input once; caching those
                    // reads would only churn the point-read working set.
                    // Each scan stops at the sub-range's `hi`, so no
                    // sub-task prefetches past what it merges.
                    .map(|t| {
                        let window = cfg.scan_prefetch;
                        crate::remote::table_scan(&channel, t, hi, window as u64, window, None).boxed()
                    })
                    .collect();
                let merged =
                    ClampIter::new(MergingIter::new(iters), lo.clone(), hi.clone());
                let mut it = CompactionIter::new(
                    merged,
                    MergeConfig { smallest_snapshot, drop_deletions: job.drop_deletions },
                );
                it.seek_to_first()?;
                // An output is cut only where a user key starts: two tables of
                // one level never share a key (the memory node's rule too).
                let room = |len: u64, it: &CompactionIter<_>| len < cfg.sstable_size || !it.first_of_key();
                let mut r = SubResult {
                    staged: Vec::new(),
                    block_staged: Vec::new(),
                    records_in: 0,
                    records_out: 0,
                };
                match cfg.format {
                    TableFormat::ByteAddr => {
                        while it.valid() {
                            let mut b = ByteAddrBuilder::new(Vec::new(), cfg.bits_per_key);
                            while it.valid() && room(b.data_len(), &it) {
                                b.add(it.key(), it.value())?;
                                r.records_out += 1;
                                it.next()?;
                            }
                            let (image, meta) = b.finish();
                            let s = meta.smallest().expect("non-empty").to_vec();
                            let l = meta.largest().expect("non-empty").to_vec();
                            r.staged.push((image, meta, s, l));
                        }
                    }
                    TableFormat::Block(bs) => {
                        while it.valid() {
                            let mut b =
                                BlockTableBuilder::new(Vec::new(), bs as usize, cfg.bits_per_key);
                            let mut s = Vec::new();
                            let mut l = Vec::new();
                            while it.valid() && room(b.data_len(), &it) {
                                if s.is_empty() {
                                    s = it.key().to_vec();
                                }
                                l.clear();
                                l.extend_from_slice(it.key());
                                b.add(it.key(), it.value())?;
                                r.records_out += 1;
                                it.next()?;
                            }
                            let n = b.num_entries();
                            let (image, _) = b.finish()?;
                            r.block_staged.push((image, s, l, n));
                        }
                    }
                }
                r.records_in = it.records_seen();
                Ok(r)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("local sub-compaction thread panicked"))
            .collect::<Result<Vec<_>>>()
    })?;

    // Write staged outputs back to the flush zone (compute-owned memory),
    // through the configured data path.
    let mut qp = match cfg.data_path {
        crate::config::DataPath::OneSided => {
            Some(ctx.fabric().create_qp(ctx.node().id(), memnode.node_id())?)
        }
        crate::config::DataPath::TwoSidedRpc => None,
    };
    let mut rpc = match cfg.data_path {
        crate::config::DataPath::OneSided => None,
        crate::config::DataPath::TwoSidedRpc => Some(
            RpcClient::new(ctx.fabric(), ctx.node(), memnode.node_id(), (1 << 20) + (64 << 10))?
                .with_policy(cfg.rpc_retry)
                .with_net_stats(Arc::clone(net)),
        ),
    };
    let mut outcome = CompactionOutcome::default();
    let alloc = memnode.flush_alloc();
    let mut write_back = |image: &[u8]| -> Result<Extent> {
        let len = image.len() as u64;
        let offset = alloc.alloc(len).ok_or(DbError::OutOfRemoteMemory { requested: len })?;
        // Large sequential writes in 1 MiB units.
        let mut pos = 0usize;
        while pos < image.len() {
            let chunk = (image.len() - pos).min(1 << 20);
            let slice = &image[pos..pos + chunk];
            let dst = offset + pos as u64;
            match (&mut qp, &mut rpc) {
                (Some(qp), _) => qp.write_sync(slice, memnode.remote().addr(dst))?,
                (None, Some(rpc)) => rpc
                    .write_file(dst, slice, std::time::Duration::from_secs(10))
                    .map_err(crate::DbError::from)?,
                (None, None) => unreachable!(),
            }
            pos += chunk;
        }
        Ok(Extent { offset, len })
    };
    for sr in subresults {
        outcome.records_in += sr.records_in;
        outcome.records_out += sr.records_out;
        for (image, meta, s, l) in sr.staged {
            let extent = write_back(&image)?;
            let n = meta.num_entries;
            outcome.outputs.push(TableHandle::new(
                next_id(),
                memnode.remote(),
                extent,
                Origin::Compute,
                MetaKind::ByteAddr(Arc::new(meta)),
                s,
                l,
                n,
                Some(Arc::clone(gc)),
            ));
            outcome.images.push(Some(Arc::new(image)));
        }
        for (image, s, l, n) in sr.block_staged {
            let extent = write_back(&image)?;
            let TableFormat::Block(bs) = cfg.format else { unreachable!() };
            let channel = read_channel_for(ctx, memnode, cfg, net)?;
            let source = crate::remote::RemoteSource::new(
                channel,
                memnode.remote().addr(extent.offset),
                extent.len,
            );
            let reader = dlsm_sstable::block::BlockTableReader::open(source)?;
            outcome.outputs.push(TableHandle::new(
                next_id(),
                memnode.remote(),
                extent,
                Origin::Compute,
                MetaKind::Block(reader.meta_cache(), bs),
                s,
                l,
                n,
                Some(Arc::clone(gc)),
            ));
            outcome.images.push(Some(Arc::new(image)));
        }
    }
    Ok(outcome)
}

/// Build a [`crate::remote::ReadChannel`] for compaction I/O per the
/// configured data path.
fn read_channel_for(
    ctx: &ComputeContext,
    memnode: &MemNodeHandle,
    cfg: &DbConfig,
    net: &Arc<ClientNetStats>,
) -> Result<crate::remote::ReadChannel> {
    match cfg.data_path {
        crate::config::DataPath::OneSided => Ok(crate::remote::ReadChannel::one_sided(
            ctx.fabric().create_qp(ctx.node().id(), memnode.node_id())?,
        )),
        crate::config::DataPath::TwoSidedRpc => {
            Ok(crate::remote::ReadChannel::two_sided(
                RpcClient::new(
                    ctx.fabric(),
                    ctx.node(),
                    memnode.node_id(),
                    cfg.scan_prefetch + (64 << 10),
                )?
                .with_policy(cfg.rpc_retry)
                .with_net_stats(Arc::clone(net)),
            ))
        }
    }
}
