//! Asynchronous MemTable flushing (paper Sec. X-C, Fig. 6).
//!
//! The flush thread serializes MemTable records *directly* into
//! RDMA-registered buffers (no block wrapping, no staging copy — the
//! byte-addressable write win of Sec. VI), streamed to remote memory through
//! the flush thread's [`Channel`]: a [`FlushSink`] posts each full buffer's
//! WRITE and keeps serializing into the next, recycling buffers in FIFO
//! order as their completions arrive.

use std::sync::Arc;

use dlsm_sstable::byte_addr::{ByteAddrBuilder, TableSink};
use dlsm_sstable::block::{BlockTableBuilder, BlockTableReader};
use dlsm_memnode::TableFormat;
use dlsm_sstable::iter::ForwardIter;

use crate::context::MemNodeHandle;
use crate::handle::{Extent, MetaKind};
use crate::memtable::MemTable;
use crate::remote::{Channel, FlushSink, RemoteSource};
use crate::{DbError, Result};

/// A sink that can mirror everything into a local buffer — used to keep a
/// compute-local copy of hot L0 tables (the Sec. VI note) while streaming
/// the canonical image to remote memory. With no mirror it only passes
/// bytes through.
pub struct TeeSink<S: TableSink> {
    inner: S,
    mirror: Option<Vec<u8>>,
}

impl<S: TableSink> TeeSink<S> {
    /// Pass through to `inner`, mirroring into a local buffer of `reserve`
    /// capacity when one is given.
    pub fn new(inner: S, reserve: Option<usize>) -> TeeSink<S> {
        TeeSink { inner, mirror: reserve.map(Vec::with_capacity) }
    }

    /// Finish, returning the inner sink and the mirrored image, if any.
    pub fn into_parts(self) -> (S, Option<Vec<u8>>) {
        (self.inner, self.mirror)
    }
}

impl<S: TableSink> TableSink for TeeSink<S> {
    fn append(&mut self, data: &[u8]) -> dlsm_sstable::Result<()> {
        self.inner.append(data)?;
        if let Some(mirror) = &mut self.mirror {
            mirror.extend_from_slice(data);
        }
        Ok(())
    }
}

/// Result of flushing one MemTable: where it landed and its metadata.
pub struct FlushOutput {
    /// The new table's extent in the flush zone.
    pub extent: Extent,
    /// Compute-cached metadata.
    pub meta: MetaKind,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
    /// Record count.
    pub num_entries: u64,
    /// Local mirror of the table image (present when requested via
    /// `keep_local_copy`), for the hot-L0 cache.
    pub local_image: Option<Vec<u8>>,
}

/// Serialize `mem` to remote memory through `channel`.
///
/// Allocation comes from the compute-controlled flush zone (no RPC); the
/// extent is sized by the MemTable's arena usage (an upper bound on the
/// serialized size) and the unused tail is returned afterwards.
#[allow(clippy::too_many_arguments)]
pub fn flush_memtable(
    mem: &MemTable,
    memnode: &MemNodeHandle,
    channel: &Channel,
    format: TableFormat,
    bits_per_key: usize,
    buf_size: usize,
    buf_count: usize,
    keep_local_copy: bool,
) -> Result<FlushOutput> {
    debug_assert!(!mem.is_empty(), "flushing an empty MemTable");
    // The arena usage bounds the byte-addressable image (which drops the
    // skip-list node overhead), but the block format adds per-block headers,
    // a filter, an index entry per block and a footer — budget for the worst
    // case (one record per block) so a flush can never overflow its extent.
    let cap = (mem.memory_usage() as u64 + mem.len() as u64 * 72 + (64 << 10))
        .next_multiple_of(8);
    let alloc = memnode.flush_alloc();
    let offset = alloc.alloc(cap).ok_or(DbError::OutOfRemoteMemory { requested: cap })?;
    let base = memnode.remote().addr(offset);

    let mut it = mem.iter();
    it.seek_to_first()?;

    let sp_write = dlsm_trace::span_arg(dlsm_trace::Category::Flush, "flush_rdma_write", cap);
    let result: Result<FlushOutput> = (|| {
        let reserve = keep_local_copy.then(|| mem.memory_usage());
        let sink = TeeSink::new(FlushSink::new(channel, base, cap, buf_size, buf_count), reserve);
        let (sink, built) = match format {
            TableFormat::ByteAddr => build_byte_addr(&mut it, sink, bits_per_key)?,
            TableFormat::Block(bs) => build_block(&mut it, sink, bs, bits_per_key)?,
        };
        let (inner, local_image) = sink.into_parts();
        let used = inner.finish()?;
        let extent = Extent { offset, len: used };
        match built {
            Built::ByteAddr(meta) => {
                // PANIC-SAFE: only non-empty MemTables are queued (`Shared::do_switch`
                // checks `is_empty()`), and a flush keeps every entry.
                let smallest = meta.smallest().expect("non-empty table").to_vec();
                let largest = meta.largest().expect("non-empty table").to_vec();
                let num_entries = meta.num_entries;
                Ok(FlushOutput {
                    extent,
                    meta: MetaKind::ByteAddr(Arc::new(meta)),
                    smallest,
                    largest,
                    num_entries,
                    local_image,
                })
            }
            Built::Block { smallest, largest, num_entries, block_size } => {
                // Read the freshly-written table's index + filter back.
                let reader = BlockTableReader::open(RemoteSource::new(channel.clone(), base, used))?;
                Ok(FlushOutput {
                    extent,
                    meta: MetaKind::Block(reader.meta_cache(), block_size),
                    smallest,
                    largest,
                    num_entries,
                    local_image,
                })
            }
        }
    })();
    drop(sp_write);

    match result {
        Ok(out) => {
            // Return the unused tail of the extent.
            let used = out.extent.len.next_multiple_of(8);
            if used < cap {
                alloc.free(offset + used, cap - used);
            }
            Ok(out)
        }
        Err(e) => {
            alloc.free(offset, cap);
            Err(e)
        }
    }
}

enum Built {
    ByteAddr(dlsm_sstable::byte_addr::TableMeta),
    Block { smallest: Vec<u8>, largest: Vec<u8>, num_entries: u64, block_size: u32 },
}

fn build_byte_addr<S: TableSink>(
    it: &mut crate::memtable::MemTableIter,
    sink: S,
    bits_per_key: usize,
) -> Result<(S, Built)> {
    let mut builder = ByteAddrBuilder::new(sink, bits_per_key);
    while it.valid() {
        builder.add(it.key(), it.value())?;
        it.next()?;
    }
    let (sink, meta) = builder.finish();
    Ok((sink, Built::ByteAddr(meta)))
}

fn build_block<S: TableSink>(
    it: &mut crate::memtable::MemTableIter,
    sink: S,
    block_size: u32,
    bits_per_key: usize,
) -> Result<(S, Built)> {
    let mut builder = BlockTableBuilder::new(sink, block_size as usize, bits_per_key);
    let mut smallest = Vec::new();
    let mut largest = Vec::new();
    while it.valid() {
        if smallest.is_empty() {
            smallest = it.key().to_vec();
        }
        largest.clear();
        largest.extend_from_slice(it.key());
        builder.add(it.key(), it.value())?;
        it.next()?;
    }
    let num_entries = builder.num_entries();
    let (sink, _total) = builder.finish()?;
    Ok((sink, Built::Block { smallest, largest, num_entries, block_size }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DataPath, DbConfig};
    use crate::context::ComputeContext;
    use crate::memtable::MemTable;
    use dlsm_memnode::{MemServer, MemServerConfig, RetryPolicy};
    use dlsm_sstable::byte_addr::{ByteAddrReader, TableGet};
    use dlsm_sstable::key::ValueType;
    use dlsm_sstable::source::RegionSource;
    use rdma_sim::{Fabric, NetworkProfile, Verb};
    use std::time::Duration;

    /// A memory node and a compute node's channel to it, opened per `cfg`.
    fn setup(cfg: &DbConfig) -> (Arc<Fabric>, Arc<MemNodeHandle>, Channel, MemServer) {
        let fabric = Fabric::new(NetworkProfile::instant());
        let server = MemServer::start(
            &fabric,
            MemServerConfig { region_size: 16 << 20, flush_zone: 8 << 20, compaction_workers: 1, dispatchers: 1 },
        );
        let memnode = MemNodeHandle::from_server(&server);
        let ctx = ComputeContext::new(&fabric);
        let channel = Channel::open(&ctx, &memnode, cfg, &Arc::default()).unwrap();
        (fabric, memnode, channel, server)
    }

    #[test]
    fn flush_roundtrips_through_remote_memory() {
        let (fabric, memnode, channel, server) = setup(&DbConfig::default());
        let mem = MemTable::new(1, 0..10_000, 1 << 20, 2 << 20);
        for i in 0..500u64 {
            let value = format!("value{i}-{}", "x".repeat(100));
            mem.add(i, ValueType::Value, format!("key{i:05}").as_bytes(), value.as_bytes())
                .unwrap();
        }
        // Small buffers force many async writes.
        let flush = |keep| flush_memtable(&mem, &memnode, &channel, TableFormat::ByteAddr, 10, 4 << 10, 4, keep);
        let out = flush(false).unwrap();
        assert_eq!(out.num_entries, 500);
        // Verify from the memory node's side.
        let MetaKind::ByteAddr(meta) = &out.meta else { panic!("byte-addr flush") };
        let reader = ByteAddrReader::new(
            Arc::clone(meta),
            RegionSource::new(Arc::clone(server.region()), out.extent.offset, out.extent.len),
        );
        let expect = format!("value123-{}", "x".repeat(100));
        assert_eq!(reader.get(b"key00123", 1000).unwrap(), TableGet::Found(expect.into_bytes()));
        // Many WRITE work requests were posted (async pipeline, not one blob).
        assert!(fabric.stats().ops(Verb::Write) > 4);
        assert!(out.local_image.is_none(), "an image nobody asked for");
        // Asked for, the image is the remote table byte for byte.
        let out = flush(true).unwrap();
        let mut remote = vec![0u8; out.extent.len as usize];
        server.region().local_read(out.extent.offset, &mut remote).unwrap();
        assert_eq!(out.local_image, Some(remote));
        server.shutdown();
    }

    #[test]
    fn tee_sink_mirrors_only_when_asked() {
        for reserve in [None, Some(4)] {
            let mut tee = TeeSink::new(Vec::new(), reserve);
            tee.append(b"flushed ").unwrap();
            tee.append(b"bytes").unwrap();
            let (inner, mirror) = tee.into_parts();
            assert_eq!(inner, b"flushed bytes");
            assert_eq!(mirror.as_deref(), reserve.map(|_| &b"flushed bytes"[..]));
        }
    }

    #[test]
    fn flush_trims_unused_extent() {
        let (_fabric, memnode, channel, server) = setup(&DbConfig::default());
        let mem = MemTable::new(1, 0..100, 1 << 20, 2 << 20);
        mem.add(1, ValueType::Value, b"only", b"entry").unwrap();
        let out = flush_memtable(&mem, &memnode, &channel, TableFormat::ByteAddr, 10, 8 << 10, 4, false).unwrap();
        // Only the rounded table length stays allocated.
        assert_eq!(memnode.flush_alloc().in_use(), out.extent.len.next_multiple_of(8));
        server.shutdown();
    }

    /// On either data path, a block flush reads its index and filter back
    /// through the channel it wrote with.
    #[test]
    fn block_format_flush_caches_metadata() {
        for data_path in [DataPath::OneSided, DataPath::TwoSidedRpc] {
            let (_fabric, memnode, channel, server) = setup(&DbConfig { data_path, ..DbConfig::default() });
            let mem = MemTable::new(1, 0..10_000, 1 << 20, 2 << 20);
            for i in 0..300u64 {
                mem.add(i, ValueType::Value, format!("k{i:05}").as_bytes(), b"blockv").unwrap();
            }
            let out =
                flush_memtable(&mem, &memnode, &channel, TableFormat::Block(2048), 10, 8 << 10, 4, false).unwrap();
            let MetaKind::Block(cache, bs) = &out.meta else { panic!("block flush") };
            assert_eq!(*bs, 2048);
            assert_eq!(cache.num_entries(), 300, "{data_path:?}");
            assert_eq!(dlsm_sstable::key::user_key(&out.smallest), b"k00000");
            assert_eq!(dlsm_sstable::key::user_key(&out.largest), b"k00299");
            let traffic = channel.traffic();
            let one_sided = traffic.total_ops() - traffic.ops(Verb::Send);
            assert_eq!(one_sided == 0, data_path == DataPath::TwoSidedRpc, "{data_path:?}: {traffic:?}");
            server.shutdown();
        }
    }

    /// A flush that dies mid-stream (every WRITE completion dropped) must
    /// error out — and the error path must return the *entire* reserved
    /// extent, leaving no flush-ring slot or flush-zone bytes leaked.
    #[test]
    fn failed_flush_frees_whole_extent() {
        use rdma_sim::ChaosPlan;
        // A short wait per completion, as under fault injection.
        let rpc_retry = RetryPolicy { attempt_timeout: Some(Duration::from_millis(100)), ..RetryPolicy::default() };
        let (fabric, memnode, channel, server) = setup(&DbConfig { rpc_retry, ..DbConfig::default() });
        let mem = MemTable::new(1, 0..10_000, 1 << 20, 2 << 20);
        for i in 0..400u64 {
            let value = format!("value{i}-{}", "y".repeat(120));
            mem.add(i, ValueType::Value, format!("key{i:05}").as_bytes(), value.as_bytes())
                .unwrap();
        }
        let seed = 0xF1A5u64;
        fabric.set_fault_hook(Some(Arc::new(ChaosPlan::new(seed).drop(Verb::Write, 1.0))));
        // Small buffers: the ring fills and hits backpressure.
        let err = flush_memtable(&mem, &memnode, &channel, TableFormat::ByteAddr, 10, 4 << 10, 2, false);
        fabric.set_fault_hook(None);
        let err = match err {
            Err(e) => e,
            Ok(_) => panic!("seed {seed:#x}: flush succeeded despite 100% write drop"),
        };
        assert!(matches!(err, DbError::Sst(_)), "seed {seed:#x}: unexpected error {err:?}");
        assert_eq!(
            memnode.flush_alloc().in_use(),
            0,
            "seed {seed:#x}: failed flush leaked flush-zone bytes"
        );
        server.shutdown();
    }
}
