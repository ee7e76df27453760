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
use dlsm_sstable::byte_addr::{ByteAddrBuilder, RawTableIter};
use dlsm_sstable::iter::{ClampIter, ForwardIter, MergingIter};
use dlsm_sstable::merge::{CompactionIter, MergeConfig};
use dlsm_sstable::source::RegionSource;
use rdma_sim::MemoryRegion;

use crate::alloc::RegionAllocator;
use crate::sink::RegionSink;
use crate::wire::{CompactArgs, CompactReply, OutputTable, TableFormat};
use crate::{MemNodeError, Result};

/// Slack added on top of `max_output_bytes` when reserving an output extent
/// (covers the final record straddling the cut point plus, for the block
/// format, the filter/index/footer). The unused tail is freed afterwards.
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
        TableFormat::ByteAddr => {
            let iters = args
                .inputs
                .iter()
                .map(|t| {
                    let len = usize::try_from(t.len).unwrap_or(usize::MAX);
                    // Inputs are records of published tables, and outputs
                    // go to extents allocated here.
                    // SAFETY: nothing writes these bytes while the slice
                    // lives — table extents are write-once and pinned by the
                    // requesting version until it installs the outputs.
                    let data = unsafe { region.local_slice(t.offset, len) }?;
                    Ok(RawTableIter::new(data))
                })
                .collect::<Result<Vec<_>>>()?;
            let clamped = ClampIter::new(MergingIter::new(iters), args.range_lo.clone(), args.range_hi.clone());
            compact_byte_addr(clamped, region, allocator, args)
        }
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

fn compact_byte_addr<I: ForwardIter>(
    input: I,
    region: &Arc<MemoryRegion>,
    allocator: &RegionAllocator,
    args: &CompactArgs,
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
            let mut builder = ByteAddrBuilder::new(sink, args.bits_per_key as usize);
            while it.valid() && builder.data_len() < args.max_output_bytes {
                let record = 20 + it.key().len() as u64 + it.value().len() as u64;
                if builder.data_len() + record + CUT_MARGIN > cap {
                    break; // extent nearly full: cut this output early
                }
                builder.add(it.key(), it.value())?;
                records_out += 1;
                it.next()?;
            }
            let (sink, meta) = builder.finish();
            Ok((sink.written(), meta.encode()))
        })();
        match built {
            Ok((used, meta)) => {
                trim(allocator, off, cap, used);
                outputs.push(OutputTable { offset: off, len: used, meta });
            }
            Err(e) => {
                reclaim_partial(allocator, &mut outputs, Some((off, cap)));
                return Err(e);
            }
        }
    }
    Ok(CompactReply { outputs, records_in: it.records_seen(), records_out })
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
            while it.valid() && builder.data_len() < args.max_output_bytes {
                let record = 20 + it.key().len() as u64 + it.value().len() as u64;
                if builder.estimated_finished_len() + record + CUT_MARGIN > cap {
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
                outputs.push(OutputTable { offset: off, len: total_len, meta });
            }
            Err(e) => {
                reclaim_partial(allocator, &mut outputs, Some((off, cap)));
                return Err(e);
            }
        }
    }
    Ok(CompactReply { outputs, records_in: it.records_seen(), records_out })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::InputTable;
    use dlsm_sstable::byte_addr::{ByteAddrReader, TableGet, TableMeta};
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

    /// Build a byte-addressable table image at `off` with the given entries.
    fn stage_table(
        region: &Arc<MemoryRegion>,
        off: u64,
        entries: &[(&str, u64, ValueType, &str)],
    ) -> InputTable {
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for (k, s, t, v) in entries {
            b.add(InternalKey::new(k.as_bytes(), *s, *t).as_bytes(), v.as_bytes()).unwrap();
        }
        let (data, _meta) = b.finish();
        region.local_write(off, &data).unwrap();
        InputTable { offset: off, len: data.len() as u64 }
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
        let t1 = stage_table(
            &region,
            0,
            &[("a", 10, ValueType::Value, "a-new"), ("b", 11, ValueType::Deletion, "")],
        );
        let t2 = stage_table(
            &region,
            64 << 10,
            &[("a", 3, ValueType::Value, "a-old"), ("b", 4, ValueType::Value, "b-old"), ("c", 5, ValueType::Value, "c")],
        );
        let reply = execute_compaction(&region, &alloc, &args(vec![t1, t2])).unwrap();
        assert_eq!(reply.records_in, 5);
        // b fully vanishes (tombstone + bottom level); a keeps newest; c kept.
        assert_eq!(reply.records_out, 2);
        assert_eq!(reply.outputs.len(), 1);
        let out = &reply.outputs[0];
        let (meta, _) = TableMeta::decode(&out.meta).unwrap();
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
        let t = stage_table(&region, 0, &refs);
        let mut a = args(vec![t]);
        a.max_output_bytes = 32 << 10; // force several outputs
        let reply = execute_compaction(&region, &alloc, &a).unwrap();
        assert!(reply.outputs.len() > 2, "expected multiple outputs, got {}", reply.outputs.len());
        assert_eq!(reply.records_out, 2000);
        // Outputs are disjoint, ordered, and decode cleanly.
        let mut total = 0;
        for out in &reply.outputs {
            let (meta, _) = TableMeta::decode(&out.meta).unwrap();
            total += meta.num_entries;
        }
        assert_eq!(total, 2000);
    }

    #[test]
    fn unused_extent_tail_is_returned() {
        let (region, alloc) = setup(8 << 20);
        let t = stage_table(&region, 0, &[("only", 1, ValueType::Value, "v")]);
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
        let t = stage_table(&region, 1 << 18, &[("k", 1, ValueType::Value, "v")]);
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
        let t = stage_table(&region, 0, &refs);
        let mut a = args(vec![t]);
        a.max_output_bytes = 32 << 10;
        let err = execute_compaction(&region, &alloc, &a).unwrap_err();
        assert!(matches!(err, MemNodeError::OutOfMemory { .. }));
        assert_eq!(alloc.in_use(), 0, "aborted compaction must not leak extents");
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
