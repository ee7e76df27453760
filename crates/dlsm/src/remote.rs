//! Reading remote SSTables from the compute node.
//!
//! A [`RemoteSource`] is a [`DataSource`] over a [`ReadChannel`]:
//!
//! * [`ReadChannel::OneSided`] — dLSM's path: each `read` is a synchronous
//!   one-sided RDMA read on a thread-local queue pair (Sec. X-B).
//! * [`ReadChannel::TwoSided`] — the Nova-LSM-style tmpfs path: each `read`
//!   is an RPC; the memory node copies the bytes into the reply buffer and
//!   the requester copies them out — the longer path with the extra memory
//!   copy the paper blames for Nova-LSM's read performance (Sec. XI-C2).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use dlsm_cache::{BlockProbe, ExtentProbe, ReadCache};
use dlsm_memnode::RpcClient;
use dlsm_sstable::block::{BlockFetcher, BlockTableReader};
use dlsm_sstable::byte_addr::{record_value, ByteAddrIter, Locate, TableGet};
use dlsm_sstable::iter::ForwardIter;
use dlsm_sstable::key::SeqNo;
use dlsm_sstable::source::{DataSource, SliceSource};
use dlsm_sstable::SstError;
use rdma_sim::QueuePair;

use crate::handle::{MetaKind, TableHandle};
use crate::telemetry::{ReadCounter, ReadStats};
use crate::Result;

/// A thread-local queue pair shared by a reader's table sources.
pub type SharedQp = Rc<RefCell<QueuePair>>;

/// A thread-local RPC client shared by a reader's table sources.
pub type SharedRpc = Rc<RefCell<RpcClient>>;

/// How table bytes are fetched from the memory node.
#[derive(Clone)]
pub enum ReadChannel {
    /// One-sided RDMA reads (dLSM and the RocksDB-RDMA baselines).
    OneSided(SharedQp),
    /// Two-sided RPC reads through the memory node's CPU (Nova-LSM style).
    TwoSided(SharedRpc),
}

impl ReadChannel {
    /// Wrap a queue pair.
    pub fn one_sided(qp: QueuePair) -> ReadChannel {
        ReadChannel::OneSided(Rc::new(RefCell::new(qp)))
    }

    /// Wrap an RPC client.
    pub fn two_sided(client: RpcClient) -> ReadChannel {
        ReadChannel::TwoSided(Rc::new(RefCell::new(client)))
    }

    /// Lifetime RDMA traffic carried by this channel — what this reader's
    /// fetches cost the fabric, attributable per operation via deltas.
    pub fn traffic(&self) -> rdma_sim::StatsSnapshot {
        match self {
            ReadChannel::OneSided(qp) => qp.borrow().traffic(),
            ReadChannel::TwoSided(client) => client.borrow().traffic(),
        }
    }
}

/// [`DataSource`] over one remote table extent.
#[derive(Clone)]
pub struct RemoteSource {
    channel: ReadChannel,
    base: rdma_sim::RemoteAddr,
    len: u64,
}

impl RemoteSource {
    /// View `len` bytes at `base` as a table.
    pub fn new(channel: ReadChannel, base: rdma_sim::RemoteAddr, len: u64) -> RemoteSource {
        RemoteSource { channel, base, len }
    }

    /// Source for `handle`'s extent.
    pub fn for_table(channel: &ReadChannel, handle: &TableHandle) -> RemoteSource {
        RemoteSource {
            channel: channel.clone(),
            base: handle.home.addr(handle.extent.offset),
            len: handle.extent.len,
        }
    }
}

impl DataSource for RemoteSource {
    fn read(&self, offset: u64, dst: &mut [u8]) -> dlsm_sstable::Result<()> {
        if offset + dst.len() as u64 > self.len {
            return Err(SstError::Source(format!(
                "remote read [{offset}, +{}) beyond table length {}",
                dst.len(),
                self.len
            )));
        }
        match &self.channel {
            ReadChannel::OneSided(qp) => qp
                .borrow_mut()
                .read_sync(self.base.add(offset), dst)
                .map_err(|e| SstError::Source(e.to_string())),
            ReadChannel::TwoSided(client) => {
                // RPC reads are bounded by the reply buffer; chunk as needed.
                let mut client = client.borrow_mut();
                let mut pos = 0usize;
                while pos < dst.len() {
                    let chunk = (dst.len() - pos).min(client.max_read_len());
                    let bytes = client
                        .read_file(
                            self.base.offset + offset + pos as u64,
                            chunk as u32,
                            Duration::from_secs(10),
                        )
                        .map_err(|e| SstError::Source(e.to_string()))?;
                    if bytes.len() != chunk {
                        return Err(SstError::Source("short RPC read".into()));
                    }
                    // The extra copy of the tmpfs path.
                    dst[pos..pos + chunk].copy_from_slice(&bytes);
                    pos += chunk;
                }
                Ok(())
            }
        }
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// `Arc<Vec<u8>>` viewed as a byte slice (for [`dlsm_sstable::source::SliceSource`] over a cached
/// local table image).
#[derive(Clone)]
pub struct ArcBytes(pub Arc<Vec<u8>>);

impl AsRef<[u8]> for ArcBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Binds the shared [`ReadCache`] to one block table for one lookup, at the
/// [`BlockFetcher`] granularity the block reader understands: a data block,
/// cut from the table's local image or taken from the block pool.
struct TableFetcher<'a> {
    cache: &'a ReadCache,
    table: u64,
    stats: &'a ReadStats,
    /// Whether the block pool wants the block the last `fetch` missed.
    admit: Cell<bool>,
}

impl BlockFetcher for TableFetcher<'_> {
    fn fetch(&self, offset: u64, len: usize) -> Option<Arc<Vec<u8>>> {
        if let Some(image) = self.cache.extent_get(self.table) {
            let block = image.get(offset as usize..offset as usize + len)?;
            self.stats.add(ReadCounter::L0CacheHits, 1);
            return Some(Arc::new(block.to_vec()));
        }
        match self.cache.block_probe(self.table, offset, len) {
            BlockProbe::Record(block) => Some(block),
            BlockProbe::Missing { admit } => {
                self.admit.set(admit);
                None
            }
        }
    }

    fn admit(&self, offset: u64, data: &Arc<Vec<u8>>) {
        if self.admit.get() {
            self.cache.block_admit(self.table, offset, data);
        }
    }
}

/// Fetch `handle`'s whole extent in one fabric read (the on-demand
/// promotion path: a table that keeps missing earns a single large read so
/// every later probe is local).
fn fetch_extent_image(channel: &ReadChannel, handle: &TableHandle) -> Result<Arc<Vec<u8>>> {
    let source = RemoteSource::for_table(channel, handle);
    let mut buf = vec![0u8; handle.extent.len as usize];
    source.read(0, &mut buf)?;
    Ok(Arc::new(buf))
}

/// One READ of a wave: `buf.len()` bytes at `offset` of `table`'s extent,
/// and what they are for.
pub(crate) struct Fetch<'v, T> {
    pub(crate) table: &'v TableHandle,
    pub(crate) offset: u64,
    /// The READ's target. For a record it then becomes the returned value
    /// (or the admitted cache entry); for a scan, the iterator's first chunk.
    pub(crate) buf: Vec<u8>,
    pub(crate) what: T,
}

/// One located record that no compute-local copy could serve: the fabric
/// READ a lookup is left with. `what` is the key the index holds for the
/// record — the bytes that arrive must carry it — and the verdict of the
/// block pool's probe that missed: whether the pool wants a copy.
pub(crate) type RecordFetch<'v> = Fetch<'v, (&'v [u8], bool)>;

impl RecordFetch<'_> {
    /// Check the record that arrived and return its value — the READ buffer
    /// trimmed in place, unless the cache asked for the record: then the
    /// buffer becomes the cache's entry and the value is copied out of it.
    pub(crate) fn finish(mut self, cache: Option<&Arc<ReadCache>>) -> Result<Vec<u8>> {
        let (ikey, admit) = self.what;
        let value = record_value(&self.buf, ikey)?;
        if let Some(cache) = cache.filter(|_| admit) {
            let record = Arc::new(self.buf);
            cache.block_admit(self.table.id, self.offset, &record);
            return Ok(record[value].to_vec());
        }
        self.buf.truncate(value.end);
        self.buf.drain(..value.start);
        Ok(self.buf)
    }
}

/// What one table answered.
pub(crate) enum Step<'v> {
    /// Settled from compute-local state (or, for a block table, by its own
    /// block read).
    Done(TableGet),
    /// The newest visible version is this remote record.
    Fetch(RecordFetch<'v>),
}

/// The value of the `len`-byte record at `offset` in `bytes`, checked
/// against the index's key for it.
fn local_record(bytes: &[u8], offset: u64, len: usize, ikey: &[u8]) -> Result<Step<'static>> {
    let record = bytes
        .get(offset as usize..offset as usize + len)
        .ok_or_else(|| SstError::Corrupt("record beyond its cached image".into()))?;
    let value = record_value(record, ikey)?;
    Ok(Step::Done(TableGet::Found(record[value].to_vec())))
}

/// One step of a lookup's walk: what does table `t` hold for `user_key`
/// (whose [`bloom_hash`](dlsm_sstable::bloom::bloom_hash) is `hash`) at
/// `seq`? Compute-local state is asked in cost order. The bloom filter and
/// index decide first (`locate`, once): a negative or a tombstone costs
/// nothing and touches no cache state. Only
/// a located record consults the [`ReadCache`] — the table's extent image (a
/// table that keeps missing there earns promotion of its whole extent, into
/// a full pool only in place of images readers stopped hitting), then
/// the cached record, whose probe also says whether a miss is worth
/// admitting. What is left is one fabric READ, returned for the caller to
/// post with the rest of its wave.
pub(crate) fn table_step<'v>(
    channel: &ReadChannel,
    t: &'v TableHandle,
    user_key: &[u8],
    hash: u32,
    seq: SeqNo,
    cache: Option<&Arc<ReadCache>>,
    stats: &ReadStats,
) -> Result<Step<'v>> {
    let meta = match &t.meta {
        MetaKind::ByteAddr(meta) => meta,
        // A block table cannot split the decision from the fetch (the
        // entry is found by scanning the block): it resolves inline, its
        // block cache-first.
        MetaKind::Block(bmc, _) => {
            let reader =
                BlockTableReader::from_cache(RemoteSource::for_table(channel, t), bmc.clone());
            let fetcher = cache
                .map(|cache| TableFetcher { cache, table: t.id, stats, admit: Cell::new(false) });
            let fetcher = fetcher.as_ref().map(|f| f as &dyn BlockFetcher);
            return Ok(Step::Done(reader.get_with(user_key, seq, fetcher)?));
        }
    };
    let (index, offset, len) = match meta.locate_hashed(user_key, hash, seq) {
        Locate::NotFound => {
            stats.add(ReadCounter::BloomSkips, 1);
            return Ok(Step::Done(TableGet::NotFound));
        }
        Locate::Deleted => return Ok(Step::Done(TableGet::Deleted)),
        Locate::Record { index, offset, len } => (index, offset, len),
    };
    let ikey = meta.index.key(index);
    let mut admit = false;
    if let Some(c) = cache {
        match c.extent_probe(t.id, t.extent.len, len as u64) {
            ExtentProbe::Image(image) => {
                stats.add(ReadCounter::L0CacheHits, 1);
                return local_record(&image, offset, len, ikey);
            }
            ExtentProbe::Missing { promote: true } => {
                if let Ok(image) = fetch_extent_image(channel, t) {
                    c.extent_admit(t.id, Arc::clone(&image));
                    // The promotion read paid for this record — no saved
                    // bytes to claim until the next one.
                    return local_record(&image, offset, len, ikey);
                }
            }
            ExtentProbe::Missing { promote: false } => {}
        }
        match c.block_probe(t.id, offset, len) {
            BlockProbe::Record(record) if record.len() == len => {
                return local_record(&record, 0, len, ikey)
            }
            BlockProbe::Record(_) => {}
            BlockProbe::Missing { admit: verdict } => admit = verdict,
        }
    }
    Ok(Step::Fetch(Fetch { table: t, offset, buf: vec![0u8; len], what: (ikey, admit) }))
}

/// Fetch a wave: every READ is posted back to back on the reader's queue
/// pair and then all are polled, so the wave costs one round trip rather
/// than one per READ. A point get is the one-record wave; a scan's wave is
/// the first chunk of each of its sorted runs.
pub(crate) fn fetch_wave<T>(channel: &ReadChannel, wave: &mut [Fetch<'_, T>]) -> Result<()> {
    /// READs in flight at once (the send queue holds 256).
    const DEPTH: usize = 128;
    if wave.is_empty() {
        return Ok(());
    }
    let qp = match channel {
        ReadChannel::OneSided(qp) => qp,
        // No posting interface on the RPC path: one call per READ.
        ReadChannel::TwoSided(_) => {
            for f in wave {
                RemoteSource::for_table(channel, f.table).read(f.offset, &mut f.buf)?;
            }
            return Ok(());
        }
    };
    let bytes: usize = wave.iter().map(|f| f.buf.len()).sum();
    let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Rdma, "rdma_read", bytes as u64);
    let mut qp = qp.borrow_mut();
    for batch in wave.chunks_mut(DEPTH) {
        for f in batch.iter_mut() {
            let addr = f.table.home.addr(f.table.extent.offset + f.offset);
            qp.post_read(addr, &mut f.buf, 0)?;
        }
        for _ in 0..batch.len() {
            qp.poll_one_blocking(Duration::from_secs(10))?;
        }
    }
    Ok(())
}

/// How a scan reads one table.
pub(crate) enum TableScan {
    /// With nothing a wave could carry: the cache holds the table's extent
    /// image, or it is a block table, whose iterator fetches block-wise.
    Own(Box<dyn ForwardIter>),
    /// Remote byte-addressable records: the caller may fetch the first
    /// chunk ([`ByteAddrIter::plan`]) together with other tables'.
    Wave(ByteAddrIter<RemoteSource>),
}

impl TableScan {
    /// The iterator, to fetch for itself from its first chunk on.
    pub(crate) fn boxed(self) -> Box<dyn ForwardIter> {
        match self {
            TableScan::Own(it) => it,
            TableScan::Wave(it) => Box::new(it),
        }
    }
}

/// An iterator over `handle` for a scan of user keys below `end` (empty =
/// unbounded) by a sorted run that has fetched `fetched` bytes so far and
/// may ask for `ceiling` at a time ([`ByteAddrIter::scan_to`]; a sweep of
/// the whole table, as a compute-side compaction makes of its inputs, has
/// no `end` and starts at the ceiling). Scans only *peek* at the extent
/// pool (a resident image is free to use) — they never admit, bump
/// frequencies, or touch the block pool, so sequential sweeps cannot
/// displace the point-read working set.
pub(crate) fn table_scan(
    channel: &ReadChannel,
    handle: &TableHandle,
    end: &[u8],
    fetched: u64,
    ceiling: usize,
    cache: Option<&Arc<ReadCache>>,
) -> TableScan {
    let image = cache.and_then(|c| c.extent_peek(handle.id));
    let image = image.map(|(image, _)| SliceSource(ArcBytes(image)));
    let remote = RemoteSource::for_table(channel, handle);
    match (&handle.meta, image) {
        (MetaKind::ByteAddr(meta), None) => TableScan::Wave(
            ByteAddrIter::from_parts(Arc::clone(meta), remote, ceiling).scan_to(end, fetched),
        ),
        (MetaKind::ByteAddr(meta), Some(image)) => TableScan::Own(Box::new(
            ByteAddrIter::from_parts(Arc::clone(meta), image, ceiling).scan_to(end, fetched),
        )),
        (MetaKind::Block(bmc, _), None) => {
            TableScan::Own(Box::new(BlockTableReader::from_cache(remote, bmc.clone()).iter(ceiling)))
        }
        (MetaKind::Block(bmc, _), Some(image)) => {
            TableScan::Own(Box::new(BlockTableReader::from_cache(image, bmc.clone()).iter(ceiling)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsm_sstable::byte_addr::ByteAddrBuilder;
    use dlsm_sstable::key::{InternalKey, ValueType};
    use rdma_sim::{Fabric, NetworkProfile, Verb};

    #[test]
    fn remote_source_reads_over_fabric() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let memory = fabric.add_node();
        let region = memory.register_region(1 << 16);
        region.local_write(128, b"remote-table-bytes").unwrap();
        let channel =
            ReadChannel::one_sided(fabric.create_qp(compute.id(), memory.id()).unwrap());
        let src = RemoteSource::new(channel, region.addr(128), 18);
        let mut buf = [0u8; 5];
        src.read(7, &mut buf).unwrap();
        assert_eq!(&buf, b"table");
        assert!(src.read(15, &mut [0u8; 8]).is_err());
        assert_eq!(fabric.stats().ops(Verb::Read), 1);
    }

    /// Point lookup against one table handle, start to finish: one
    /// [`table_step`] and, if it asks for one, the record READ.
    fn table_get(
        channel: &ReadChannel,
        handle: &TableHandle,
        user_key: &[u8],
        seq: SeqNo,
        stats: &ReadStats,
    ) -> Result<TableGet> {
        let hash = dlsm_sstable::bloom::bloom_hash(user_key);
        match table_step(channel, handle, user_key, hash, seq, None, stats)? {
            Step::Done(got) => Ok(got),
            Step::Fetch(mut fetch) => {
                fetch_wave(channel, std::slice::from_mut(&mut fetch))?;
                Ok(TableGet::Found(fetch.finish(None)?))
            }
        }
    }

    #[test]
    fn point_get_issues_single_record_read() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let memory = fabric.add_node();
        let region = memory.register_region(1 << 20);

        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for i in 0..100 {
            b.add(
                InternalKey::new(format!("key{i:04}").as_bytes(), 7, ValueType::Value).as_bytes(),
                format!("val{i}").as_bytes(),
            )
            .unwrap();
        }
        let (data, meta) = b.finish();
        region.local_write(0, &data).unwrap();

        let handle = crate::handle::TableHandle::new(
            1,
            crate::context::RemoteRegion::of(&region),
            crate::handle::Extent { offset: 0, len: data.len() as u64 },
            crate::handle::Origin::External,
            MetaKind::ByteAddr(Arc::new(meta)),
            InternalKey::new(b"key0000", 7, ValueType::Value).into_bytes(),
            InternalKey::new(b"key0099", 7, ValueType::Value).into_bytes(),
            100,
            None,
        );
        let channel =
            ReadChannel::one_sided(fabric.create_qp(compute.id(), memory.id()).unwrap());
        let before = fabric.stats().snapshot();
        let stats = ReadStats::default();
        let got = table_get(&channel, &handle, b"key0042", 100, &stats).unwrap();
        assert_eq!(got, TableGet::Found(b"val42".to_vec()));
        let d = fabric.stats().snapshot().delta(&before);
        // Exactly one RDMA read, sized as one record (not a block).
        assert_eq!(d.ops(Verb::Read), 1);
        assert!(d.bytes(Verb::Read) < 64, "read {} bytes", d.bytes(Verb::Read));
        // A bloom miss costs zero network reads.
        let before = fabric.stats().snapshot();
        let got = table_get(&channel, &handle, b"nope", 100, &stats).unwrap();
        assert_eq!(got, TableGet::NotFound);
        assert_eq!(fabric.stats().snapshot().delta(&before).ops(Verb::Read), 0);
    }

    #[test]
    fn two_sided_channel_reads_through_rpc() {
        use dlsm_memnode::{MemServer, MemServerConfig};
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let server = MemServer::start(
            &fabric,
            MemServerConfig { region_size: 1 << 20, flush_zone: 1 << 19, compaction_workers: 1, dispatchers: 1 },
        );
        server.region().local_write(256, b"tmpfs-table").unwrap();
        let client = RpcClient::new(&fabric, &compute, server.node_id(), 4096).unwrap();
        let channel = ReadChannel::two_sided(client);
        let src = RemoteSource::new(channel, server.region().addr(256), 11);
        let mut buf = [0u8; 11];
        src.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"tmpfs-table");
        // No one-sided reads were used by the client data path itself (the
        // server-side reply write is one-sided, but the requester never
        // posted an RDMA read).
        server.shutdown();
    }
}
