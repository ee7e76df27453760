//! Near-data compaction execution.
//!
//! The merge runs entirely against the memory node's own DRAM: inputs are
//! read in place at zero network cost (byte-addressable records are parsed
//! where they lie, [`MemoryRegion::local_slice`]; block tables go through
//! [`RegionSource`]) and outputs are serialized straight into extents
//! allocated from the node's **compaction zone**. The only bytes that ever
//! cross the network for a compaction are the small RPC argument and the
//! output metadata in the reply (paper Sec. V).
//!
//! The same code also runs *on the compute node* when near-data compaction
//! is disabled (the Fig. 12 "compaction on compute node" bar and the
//! RocksDB-RDMA baselines) — callers simply hand it a remote-reading
//! `DataSource` and a staging sink; see the `dlsm` crate.

use std::sync::Arc;

use dlsm_sstable::block::{BlockTableBuilder, BlockTableReader};
use dlsm_sstable::bloom::{bloom_hash, BloomFilter};
use dlsm_sstable::byte_addr::{push_merge_step, RawTableIter, TableSink, MAX_MERGE_INPUTS};
use dlsm_sstable::iter::{ClampIter, ForwardIter, MergingIter};
use dlsm_sstable::key::user_key;
use dlsm_sstable::merge::{CompactionIter, DropPolicy, MergeConfig};
use dlsm_sstable::source::RegionSource;
use rdma_sim::MemoryRegion;

use crate::alloc::RegionAllocator;
use crate::sink::RegionSink;
use crate::wire::{CompactArgs, CompactReply, OutputTable, TableFormat};
use crate::{MemNodeError, Result};

/// Slack added on top of `max_output_bytes` when reserving an output extent
/// (covers the versions of the user key straddling the cut point plus, for
/// the block format, the filter/index/footer). The unused tail is freed
/// afterwards.
const OUTPUT_SLACK: u64 = 4 << 20;

/// Chunk size for scanning block-format input tables from local DRAM.
const LOCAL_SCAN_CHUNK: usize = 1 << 20;

/// Smallest extent worth reserving for an output table.
const MIN_OUTPUT_EXTENT: u64 = 64 << 10;

/// Safety margin kept free in an output extent when deciding to cut.
const CUT_MARGIN: u64 = 1 << 10;

/// Run one compaction described by `args` against `region`, allocating
/// outputs from `allocator` (the compaction zone).
pub fn execute_compaction(
    region: &Arc<MemoryRegion>,
    allocator: &RegionAllocator,
    args: &CompactArgs,
) -> Result<CompactReply> {
    match args.format {
        TableFormat::ByteAddr => compact_byte_addr(region, allocator, args),
        TableFormat::Block(block_size) => {
            let readers: Vec<BlockTableReader<RegionSource>> = args
                .inputs
                .iter()
                .map(|t| {
                    BlockTableReader::open(RegionSource::new(Arc::clone(region), t.offset, t.len))
                })
                .collect::<dlsm_sstable::Result<_>>()?;
            let iters: Vec<_> = readers.iter().map(|r| r.iter(LOCAL_SCAN_CHUNK)).collect();
            let clamped = ClampIter::new(MergingIter::new(iters), args.range_lo.clone(), args.range_hi.clone());
            compact_block(clamped, region, allocator, args, block_size)
        }
    }
}

fn merge_config(args: &CompactArgs) -> MergeConfig {
    MergeConfig { smallest_snapshot: args.smallest_snapshot, drop_deletions: args.drop_deletions }
}

/// Reserve an output extent: ideally `max_output_bytes + OUTPUT_SLACK`, but
/// fall back to smaller extents when the zone is fragmented or small (the
/// output is simply cut earlier).
fn reserve(allocator: &RegionAllocator, args: &CompactArgs) -> Result<(u64, u64)> {
    let mut cap = args.max_output_bytes + OUTPUT_SLACK;
    loop {
        if let Some(off) = allocator.alloc(cap) {
            return Ok((off, cap));
        }
        if cap <= MIN_OUTPUT_EXTENT {
            return Err(MemNodeError::OutOfMemory { requested: cap });
        }
        cap = (cap / 2).max(MIN_OUTPUT_EXTENT);
    }
}

/// Return the unused tail of an output extent to the allocator.
fn trim(allocator: &RegionAllocator, off: u64, cap: u64, used: u64) {
    let used = used.next_multiple_of(8);
    if used < cap {
        allocator.free(off + used, cap - used);
    }
}

/// Free every extent a partially-built compaction owns. A mid-merge error
/// must not leak compaction-zone memory: without this, an aborted
/// compaction would strand its reserved extent (and any finished outputs)
/// forever, since the requester only learns offsets from a success reply.
fn reclaim_partial(allocator: &RegionAllocator, outputs: &mut Vec<OutputTable>, current: Option<(u64, u64)>) {
    if let Some((off, cap)) = current {
        allocator.free(off, cap);
    }
    for out in outputs.drain(..) {
        allocator.free(out.offset, out.len);
    }
}

/// A byte-addressable output being written: its extent, and the
/// [`bloom_hash`] of every record's user key so far.
struct OpenOutput {
    sink: RegionSink,
    cap: u64,
    hashes: Vec<u32>,
}

/// Merge byte-addressable inputs. A surviving record is copied as it lies in
/// its input, so the requester — it holds every input's index and clipped the
/// inputs itself — needs only the order the inputs were consumed in and which
/// records were kept: the reply carries that trace, not the outputs' index.
fn compact_byte_addr(
    region: &Arc<MemoryRegion>,
    allocator: &RegionAllocator,
    args: &CompactArgs,
) -> Result<CompactReply> {
    let inputs = args.inputs.len();
    if inputs > MAX_MERGE_INPUTS {
        return Err(MemNodeError::BadMessage(format!("{inputs} inputs in one compaction")));
    }
    let iters = args
        .inputs
        .iter()
        .map(|t| {
            let len = usize::try_from(t.len).unwrap_or(usize::MAX);
            // Inputs are records of published tables, and outputs go to
            // extents allocated here.
            // SAFETY: nothing writes these bytes while the slice lives —
            // table extents are write-once and pinned by the requesting
            // version until it installs the outputs.
            Ok(RawTableIter::new(unsafe { region.local_slice(t.offset, len) }?))
        })
        .collect::<Result<Vec<_>>>()?;
    let mut merge = MergingIter::new(iters);
    let mut policy = DropPolicy::new(merge_config(args));
    let mut reply = CompactReply { outputs: Vec::new(), records_in: 0, records_out: 0, steps: Vec::new() };
    let mut open: Option<OpenOutput> = None;
    let close = |o: OpenOutput, outputs: &mut Vec<OutputTable>| {
        trim(allocator, o.sink.base(), o.cap, o.sink.written());
        let bloom = BloomFilter::build_hashed(o.hashes.iter().copied(), args.bits_per_key as usize);
        let records = o.hashes.len() as u64;
        outputs.push(OutputTable { offset: o.sink.base(), len: o.sink.written(), records, meta: bloom.encode() });
    };
    let merged: Result<()> = (|| {
        merge.seek_to_first()?;
        // The requester clipped every input to `[range_lo, range_hi)`: a
        // record outside means the two sides disagree about the job. The
        // merge is sorted: its first and last records speak for the rest.
        if merge.valid() && user_key(merge.key()) < args.range_lo.as_slice() {
            return Err(MemNodeError::BadMessage("an input record below the sub-range".into()));
        }
        while let Some((ordinal, child)) = merge.leader() {
            let kept = !policy.drops(child.key());
            reply.records_in += 1;
            push_merge_step(&mut reply.steps, inputs, ordinal, kept);
            if kept {
                let record = 20 + child.key().len() as u64 + child.value().len() as u64;
                // The size cut waits for the next user key: two tables of one
                // level never share a key. A key whose versions overrun even
                // the extent's slack fails the job rather than being split.
                let same_key = !policy.first_of_key();
                let full = |o: &OpenOutput| o.sink.written() + record + CUT_MARGIN > o.cap;
                if let Some(o) = open.take_if(|o| !same_key && (o.sink.written() >= args.max_output_bytes || full(o))) {
                    close(o, &mut reply.outputs);
                }
                if open.is_none() {
                    let (off, cap) = reserve(allocator, args)?;
                    let sink = RegionSink::new(Arc::clone(region), off, cap);
                    open = Some(OpenOutput { sink, cap, hashes: Vec::new() });
                }
                let o = open.as_mut().filter(|o| !full(o)).ok_or(MemNodeError::OutOfMemory { requested: record })?;
                o.sink.append(child.record())?;
                o.hashes.push(bloom_hash(user_key(child.key())));
                reply.records_out += 1;
            }
            merge.next()?;
        }
        if !args.range_hi.is_empty() && policy.user_key() >= args.range_hi.as_slice() {
            return Err(MemNodeError::BadMessage("an input record above the sub-range".into()));
        }
        Ok(())
    })();
    if let Err(e) = merged {
        reclaim_partial(allocator, &mut reply.outputs, open.map(|o| (o.sink.base(), o.cap)));
        return Err(e);
    }
    if let Some(o) = open {
        close(o, &mut reply.outputs);
    }
    Ok(reply)
}

fn compact_block<I: ForwardIter>(
    input: I,
    region: &Arc<MemoryRegion>,
    allocator: &RegionAllocator,
    args: &CompactArgs,
    block_size: u32,
) -> Result<CompactReply> {
    let mut it = CompactionIter::new(input, merge_config(args));
    let mut outputs = Vec::new();
    let mut records_out = 0u64;
    if let Err(e) = it.seek_to_first() {
        return Err(e.into());
    }
    while it.valid() {
        let (off, cap) = reserve(allocator, args)
            .inspect_err(|_| reclaim_partial(allocator, &mut outputs, None))?;
        let built: Result<(u64, Vec<u8>)> = (|| {
            let sink = RegionSink::new(Arc::clone(region), off, cap);
            let mut builder =
                BlockTableBuilder::new(sink, block_size as usize, args.bits_per_key as usize);
            let mut smallest: Option<Vec<u8>> = None;
            let mut largest: Vec<u8> = Vec::new();
            // Cut only where a user key starts, as `compact_byte_addr` does.
            while it.valid() && (builder.data_len() < args.max_output_bytes || !it.first_of_key()) {
                let record = 20 + it.key().len() as u64 + it.value().len() as u64;
                if builder.estimated_finished_len() + record + CUT_MARGIN > cap {
                    if !it.first_of_key() {
                        return Err(MemNodeError::OutOfMemory { requested: record });
                    }
                    break; // extent nearly full: cut this output early
                }
                builder.add(it.key(), it.value())?;
                if smallest.is_none() {
                    smallest = Some(it.key().to_vec());
                }
                largest.clear();
                largest.extend_from_slice(it.key());
                records_out += 1;
                it.next()?;
            }
            let (sink, total_len) = builder.finish()?;
            debug_assert_eq!(sink.written(), total_len);
            // Block tables keep their real metadata remotely; the reply only
            // carries the key bounds (len-prefixed smallest, then largest) so
            // the compute node can place the table without opening it first.
            let mut meta = Vec::new();
            dlsm_sstable::coding::put_len_prefixed(&mut meta, smallest.as_deref().unwrap_or(&[]));
            dlsm_sstable::coding::put_len_prefixed(&mut meta, &largest);
            Ok((total_len, meta))
        })();
        match built {
            Ok((total_len, meta)) => {
                trim(allocator, off, cap, total_len);
                outputs.push(OutputTable { offset: off, len: total_len, records: 0, meta });
            }
            Err(e) => {
                reclaim_partial(allocator, &mut outputs, Some((off, cap)));
                return Err(e);
            }
        }
    }
    Ok(CompactReply { outputs, records_in: it.records_seen(), records_out, steps: Vec::new() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::InputTable;
    use dlsm_sstable::byte_addr::{ByteAddrBuilder, ByteAddrReader, TableGet, TableMeta};
    use dlsm_sstable::key::{InternalKey, ValueType, MAX_SEQ};
    use rdma_sim::{Fabric, NetworkProfile};

    fn setup(region_size: usize) -> (Arc<MemoryRegion>, RegionAllocator) {
        let fabric = Fabric::new(NetworkProfile::instant());
        let node = fabric.add_node();
        let region = node.register_region(region_size);
        // Inputs are staged in the low half; the allocator owns the top half.
        let alloc = RegionAllocator::new(region_size as u64 / 2, region_size as u64 / 2);
        (region, alloc)
    }

    /// Build a byte-addressable table image at `off` with the given entries;
    /// its metadata stays with the caller, as it does with the compute node.
    fn stage_table(
        region: &Arc<MemoryRegion>,
        off: u64,
        entries: &[(&str, u64, ValueType, &str)],
    ) -> (InputTable, TableMeta) {
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for (k, s, t, v) in entries {
            b.add(InternalKey::new(k.as_bytes(), *s, *t).as_bytes(), v.as_bytes()).unwrap();
        }
        let (data, meta) = b.finish();
        region.local_write(off, &data).unwrap();
        (InputTable { offset: off, len: data.len() as u64 }, meta)
    }

    /// What the requester does with a reply: replay the trace over the
    /// indexes of the whole tables it sent. Each result must be what a
    /// builder makes of the output's bytes.
    fn replay(region: &Arc<MemoryRegion>, inputs: &[&TableMeta], reply: &CompactReply) -> Vec<TableMeta> {
        let inputs: Vec<_> = inputs.iter().map(|m| (*m, 0..m.index.len())).collect();
        let tables = reply.outputs.iter().map(|o| (o.records, o.len, BloomFilter::decode(&o.meta).unwrap()));
        let metas = TableMeta::replay_merge(&inputs, &reply.steps, tables, |_, _, _| ()).unwrap();
        for (meta, out) in metas.iter().zip(&reply.outputs) {
            // SAFETY: the compaction is over; nothing writes its outputs.
            let mut it = RawTableIter::new(unsafe { region.local_slice(out.offset, out.len as usize) }.unwrap());
            let mut b = ByteAddrBuilder::new(Vec::new(), 10);
            it.seek_to_first().unwrap();
            while it.valid() {
                b.add(it.key(), it.value()).unwrap();
                it.next().unwrap();
            }
            assert_eq!(meta, &b.finish().1, "replayed metadata differs from a rebuild");
        }
        metas
    }

    fn args(inputs: Vec<InputTable>) -> CompactArgs {
        CompactArgs {
            format: TableFormat::ByteAddr,
            smallest_snapshot: MAX_SEQ,
            drop_deletions: true,
            max_output_bytes: 64 << 20,
            bits_per_key: 10,
            range_lo: vec![],
            range_hi: vec![],
            inputs,
        }
    }

    #[test]
    fn merges_and_dedups() {
        let (region, alloc) = setup(8 << 20);
        let (t1, m1) = stage_table(
            &region,
            0,
            &[("a", 10, ValueType::Value, "a-new"), ("b", 11, ValueType::Deletion, "")],
        );
        let (t2, m2) = stage_table(
            &region,
            64 << 10,
            &[("a", 3, ValueType::Value, "a-old"), ("b", 4, ValueType::Value, "b-old"), ("c", 5, ValueType::Value, "c")],
        );
        let reply = execute_compaction(&region, &alloc, &args(vec![t1, t2])).unwrap();
        assert_eq!(reply.records_in, 5);
        // b fully vanishes (tombstone + bottom level); a keeps newest; c kept.
        assert_eq!(reply.records_out, 2);
        assert_eq!(reply.outputs.len(), 1);
        // One step per input record, in merge order: a(t1) kept, a(t2)
        // dropped, b(t1) and b(t2) dropped, c(t2) kept.
        assert_eq!(reply.steps, [1, 2, 0, 2, 3]);
        let out = &reply.outputs[0];
        let meta = replay(&region, &[&m1, &m2], &reply).remove(0);
        let reader = ByteAddrReader::new(
            Arc::new(meta),
            RegionSource::new(Arc::clone(&region), out.offset, out.len),
        );
        assert_eq!(reader.get(b"a", MAX_SEQ).unwrap(), TableGet::Found(b"a-new".to_vec()));
        assert_eq!(reader.get(b"b", MAX_SEQ).unwrap(), TableGet::NotFound);
        assert_eq!(reader.get(b"c", MAX_SEQ).unwrap(), TableGet::Found(b"c".to_vec()));
    }

    #[test]
    fn splits_outputs_at_size_budget() {
        let (region, alloc) = setup(64 << 20);
        let entries: Vec<(String, String)> = (0..2000)
            .map(|i| (format!("key{i:06}"), format!("val{i:06}-{}", "x".repeat(100))))
            .collect();
        let refs: Vec<(&str, u64, ValueType, &str)> =
            entries.iter().map(|(k, v)| (k.as_str(), 7u64, ValueType::Value, v.as_str())).collect();
        let (t, m) = stage_table(&region, 0, &refs);
        let mut a = args(vec![t]);
        a.max_output_bytes = 32 << 10; // force several outputs
        let reply = execute_compaction(&region, &alloc, &a).unwrap();
        assert!(reply.outputs.len() > 2, "expected multiple outputs, got {}", reply.outputs.len());
        assert_eq!(reply.records_out, 2000);
        // Outputs are disjoint, ordered, and replay cleanly.
        let metas = replay(&region, &[&m], &reply);
        assert_eq!(metas.iter().map(|m| m.num_entries).sum::<u64>(), 2000);
        assert!(metas.windows(2).all(|w| w[0].largest() < w[1].smallest()));
    }

    /// The versions of one user key that straddle `max_output_bytes` stay in
    /// one output: the cut waits for the next key, so no two tables of a level
    /// share one. A key whose versions overrun the whole extent fails the job.
    #[test]
    fn one_user_keys_versions_are_never_cut_apart() {
        let value = "x".repeat(100);
        let mut entries: Vec<(String, u64)> = (0..300).map(|i| (format!("key{i:06}"), 7)).collect();
        // 600 more versions of one key, ≈ 80 KB: over the budget on their own.
        entries.extend((0..600).map(|s| ("key000150".to_string(), 1_000 - s)));
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let refs: Vec<(&str, u64, ValueType, &str)> =
            entries.iter().map(|(k, s)| (k.as_str(), *s, ValueType::Value, value.as_str())).collect();
        let (region, alloc) = setup(64 << 20);
        let (t, m) = stage_table(&region, 0, &refs);
        let mut a = args(vec![t]);
        a.max_output_bytes = 32 << 10;
        a.smallest_snapshot = 0; // every version is some snapshot's
        let reply = execute_compaction(&region, &alloc, &a).unwrap();
        assert_eq!(reply.records_out, 900);
        let metas = replay(&region, &[&m], &reply);
        // The budget is reached inside the run; the cut comes after its last
        // version, so the first output holds all 601 and the second the rest.
        let bounds: Vec<(&[u8], &[u8])> =
            metas.iter().map(|m| (user_key(m.smallest().unwrap()), user_key(m.largest().unwrap()))).collect();
        assert_eq!(bounds, [(&b"key000000"[..], &b"key000150"[..]), (b"key000151", b"key000299")]);
        assert_eq!((metas[0].num_entries, metas[1].num_entries), (751, 149));
        assert!(metas[0].data_len > 2 * a.max_output_bytes);

        // With 64 KiB extents only (a fragmented zone), the key cannot fit.
        let small = RegionAllocator::new(32 << 20, 80 << 10);
        let err = execute_compaction(&region, &small, &a).unwrap_err();
        assert!(matches!(err, MemNodeError::OutOfMemory { .. }), "{err}");
        assert_eq!(small.in_use(), 0, "a failed job keeps no extent");
    }

    #[test]
    fn unused_extent_tail_is_returned() {
        let (region, alloc) = setup(8 << 20);
        let (t, _) = stage_table(&region, 0, &[("only", 1, ValueType::Value, "v")]);
        let before = alloc.in_use();
        let reply = execute_compaction(&region, &alloc, &args(vec![t])).unwrap();
        let out_len = reply.outputs[0].len.next_multiple_of(8);
        assert_eq!(alloc.in_use() - before, out_len, "tail must be trimmed back");
    }

    #[test]
    fn out_of_memory_surfaces() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let node = fabric.add_node();
        let region = node.register_region(1 << 20);
        let alloc = RegionAllocator::new(0, 64); // absurdly small zone
        let (t, _) = stage_table(&region, 1 << 18, &[("k", 1, ValueType::Value, "v")]);
        let err = execute_compaction(&region, &alloc, &args(vec![t])).unwrap_err();
        assert!(matches!(err, MemNodeError::OutOfMemory { .. }));
    }

    #[test]
    fn error_midway_frees_every_reserved_extent() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let node = fabric.add_node();
        let region = node.register_region(1 << 20);
        // A zone big enough for exactly one MIN_OUTPUT_EXTENT reservation:
        // the first output succeeds, the second reservation hits OOM with
        // an output already produced.
        let alloc = RegionAllocator::new(512 << 10, 80 << 10);
        let entries: Vec<(String, String)> = (0..500)
            .map(|i| (format!("key{i:06}"), format!("val-{}", "y".repeat(200))))
            .collect();
        let refs: Vec<(&str, u64, ValueType, &str)> =
            entries.iter().map(|(k, v)| (k.as_str(), 7u64, ValueType::Value, v.as_str())).collect();
        let (t, _) = stage_table(&region, 0, &refs);
        let mut a = args(vec![t]);
        a.max_output_bytes = 32 << 10;
        let err = execute_compaction(&region, &alloc, &a).unwrap_err();
        assert!(matches!(err, MemNodeError::OutOfMemory { .. }));
        assert_eq!(alloc.in_use(), 0, "aborted compaction must not leak extents");
    }

    /// More than 128 inputs: ordinals no longer fit seven bits, so a step is
    /// two bytes — and says the same thing.
    #[test]
    fn wide_steps_beyond_128_inputs() {
        let (region, alloc) = setup(8 << 20);
        let keys: Vec<String> = (0..130u64).map(|i| format!("key{:03}", (i * 37) % 130)).collect();
        let staged: Vec<(InputTable, TableMeta)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let newer = (k.as_str(), 500 - i as u64, ValueType::Value, "new");
                // Every input also holds an older version of the next one's key.
                let other = keys[(i + 1) % 130].as_str();
                let mut entries = vec![newer, (other, 100 - i as u64 % 100, ValueType::Value, "old")];
                entries.sort_by(|a, b| a.0.cmp(b.0));
                stage_table(&region, i as u64 * 256, &entries)
            })
            .collect();
        let reply = execute_compaction(&region, &alloc, &args(staged.iter().map(|s| s.0).collect())).unwrap();
        assert_eq!((reply.records_in, reply.records_out), (260, 130));
        assert_eq!(reply.steps.len(), 2 * 260);
        let metas = replay(&region, &staged.iter().map(|s| &s.1).collect::<Vec<_>>(), &reply);
        assert_eq!(metas[0].num_entries, 130);
        // The same job with 128 inputs takes one byte a step.
        let reply = execute_compaction(&region, &alloc, &args(staged[..128].iter().map(|s| s.0).collect())).unwrap();
        assert_eq!(reply.steps.len() as u64, reply.records_in);
        replay(&region, &staged[..128].iter().map(|s| &s.1).collect::<Vec<_>>(), &reply);
    }

    /// The requester clips every input to the sub-range; an input that
    /// reaches outside it is a disagreement, not something to skip quietly.
    #[test]
    fn records_outside_the_sub_range_fail_the_job() {
        let (region, alloc) = setup(8 << 20);
        let entries: Vec<(&str, u64, ValueType, &str)> =
            ["a", "b", "c", "d"].iter().map(|k| (*k, 7u64, ValueType::Value, "v")).collect();
        let (t, _) = stage_table(&region, 0, &entries);
        for (lo, hi) in [("b", ""), ("", "d"), ("b", "c")] {
            let mut a = args(vec![t]);
            (a.range_lo, a.range_hi) = (lo.as_bytes().to_vec(), hi.as_bytes().to_vec());
            let err = execute_compaction(&region, &alloc, &a).unwrap_err();
            assert!(matches!(err, MemNodeError::BadMessage(_)), "[{lo}, {hi}): {err}");
            assert_eq!(alloc.in_use(), 0, "[{lo}, {hi}): a refused job keeps no extent");
        }
        let mut a = args(vec![t]);
        (a.range_lo, a.range_hi) = (b"a".to_vec(), b"e".to_vec());
        assert_eq!(execute_compaction(&region, &alloc, &a).unwrap().records_out, 4);
    }

    #[test]
    fn block_format_roundtrip() {
        use dlsm_sstable::block::BlockTableBuilder as BB;
        let (region, alloc) = setup(16 << 20);
        // Stage a block-format input.
        let mut b = BB::new(Vec::new(), 2048, 10);
        for i in 0..500 {
            b.add(
                InternalKey::new(format!("k{i:05}").as_bytes(), 9, ValueType::Value).as_bytes(),
                b"blockval",
            )
            .unwrap();
        }
        let (data, total) = b.finish().unwrap();
        region.local_write(0, &data).unwrap();
        let mut a = args(vec![InputTable { offset: 0, len: total }]);
        a.format = TableFormat::Block(2048);
        let reply = execute_compaction(&region, &alloc, &a).unwrap();
        assert_eq!(reply.records_out, 500);
        assert_eq!(reply.outputs.len(), 1);
        let out = &reply.outputs[0];
        let (small, n) = dlsm_sstable::coding::get_len_prefixed(&out.meta, 0).unwrap();
        let (large, _) = dlsm_sstable::coding::get_len_prefixed(&out.meta, n).unwrap();
        assert_eq!(dlsm_sstable::key::user_key(small), b"k00000");
        assert_eq!(dlsm_sstable::key::user_key(large), b"k00499");
        let reader = BlockTableReader::open(RegionSource::new(
            Arc::clone(&region),
            out.offset,
            out.len,
        ))
        .unwrap();
        assert_eq!(reader.num_entries(), 500);
        assert_eq!(reader.get(b"k00123", MAX_SEQ).unwrap(), TableGet::Found(b"blockval".to_vec()));
    }
}
