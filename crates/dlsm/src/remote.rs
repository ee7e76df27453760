//! The compute node's data channel to a memory node, and the reads and
//! writes of table bytes over it.
//!
//! A [`Channel`] is the one place that knows how table bytes move; which
//! way is decided once, in [`Channel::open`], from
//! [`DbConfig::data_path`]:
//!
//! * **One-sided** — dLSM's path: synchronous READs and asynchronous WRITEs
//!   on a thread-local queue pair (Sec. X-B). A flush posts its WRITEs from
//!   a FIFO ring of buffers ([`FlushSink`]) and recycles each buffer when its
//!   completion arrives (Sec. X-C).
//! * **Two-sided** — the Nova-LSM-style tmpfs path: every read and write is
//!   an RPC; the memory node copies the bytes into the reply buffer and the
//!   requester copies them out — the longer path with the extra memory copy
//!   the paper blames for Nova-LSM's read performance (Sec. XI-C2). A posted
//!   write has completed when the post returns, so the same ring serves it.
//!
//! A [`RemoteSource`] is a [`DataSource`] over one table extent on a channel.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use dlsm_cache::{BlockProbe, ExtentProbe, ReadCache};
use dlsm_memnode::{ClientNetStats, RpcClient};
use dlsm_sstable::block::{BlockFetcher, BlockTableReader};
use dlsm_sstable::byte_addr::{record_value, ByteAddrIter, Locate, TableGet, TableSink};
use dlsm_sstable::iter::ForwardIter;
use dlsm_sstable::key::SeqNo;
use dlsm_sstable::source::{DataSource, SliceSource};
use dlsm_sstable::SstError;
use rdma_sim::{QueuePair, RemoteAddr};

use crate::config::{DataPath, DbConfig};
use crate::context::{ComputeContext, MemNodeHandle};
use crate::handle::{MetaKind, TableHandle};
use crate::telemetry::{SlotCounter, SlotStats};
use crate::Result;

/// The bytes one synchronous [`Channel::write`] moves per WRITE or RPC.
const WRITE_CHUNK: usize = 1 << 20;

/// The compute node's data channel to one memory node. Clones share the
/// connection, which belongs to the thread that opened it (Sec. X-B:
/// thread-local queue pairs).
#[derive(Clone)]
pub struct Channel {
    link: Link,
    /// The longest one completion or one RPC attempt may take.
    wait: Duration,
}

#[derive(Clone)]
enum Link {
    /// One-sided verbs (dLSM and the RocksDB-RDMA baselines).
    OneSided(Rc<RefCell<QueuePair>>),
    /// Two-sided RPCs through the memory node's CPU (Nova-LSM style).
    TwoSided(Rc<RefCell<RpcClient>>),
}

fn source_error(e: impl std::fmt::Display) -> SstError {
    SstError::Source(e.to_string())
}

impl Channel {
    /// Connect this compute node to `memnode` the way `cfg.data_path` says.
    /// An RPC channel reports its retries into `net` and holds one scan
    /// fetch (`cfg.scan_prefetch`) per reply; a write of any size is one
    /// request.
    pub fn open(
        ctx: &ComputeContext,
        memnode: &MemNodeHandle,
        cfg: &DbConfig,
        net: &Arc<ClientNetStats>,
    ) -> Result<Channel> {
        let link = match cfg.data_path {
            DataPath::OneSided => Link::OneSided(Rc::new(RefCell::new(
                ctx.fabric().create_qp(ctx.node().id(), memnode.node_id())?,
            ))),
            DataPath::TwoSidedRpc => Link::TwoSided(Rc::new(RefCell::new(
                RpcClient::new(ctx.fabric(), ctx.node(), memnode.node_id(), cfg.scan_prefetch + (64 << 10))?
                    .with_policy(cfg.rpc_retry)
                    .with_net_stats(Arc::clone(net)),
            ))),
        };
        Ok(Channel { link, wait: cfg.rpc_retry.attempt_timeout.unwrap_or(Duration::from_secs(10)) })
    }

    /// Lifetime RDMA traffic carried by this channel — what this reader's
    /// fetches cost the fabric, attributable per operation via deltas.
    pub fn traffic(&self) -> rdma_sim::StatsSnapshot {
        match &self.link {
            Link::OneSided(qp) => qp.borrow().traffic(),
            Link::TwoSided(client) => client.borrow().traffic(),
        }
    }

    /// Read `dst.len()` bytes at `src`, waiting for them.
    pub fn read(&self, src: RemoteAddr, dst: &mut [u8]) -> dlsm_sstable::Result<()> {
        match &self.link {
            Link::OneSided(qp) => qp.borrow_mut().read_sync(src, dst).map_err(source_error),
            Link::TwoSided(client) => {
                // RPC reads are bounded by the reply buffer; chunk as needed.
                let mut client = client.borrow_mut();
                let max = client.max_read_len();
                for (i, chunk) in dst.chunks_mut(max).enumerate() {
                    let offset = src.offset + (i * max) as u64;
                    let bytes =
                        client.read_file(offset, chunk.len() as u32, self.wait).map_err(source_error)?;
                    if bytes.len() != chunk.len() {
                        return Err(SstError::Source("short RPC read".into()));
                    }
                    // The extra copy of the tmpfs path.
                    chunk.copy_from_slice(&bytes);
                }
                Ok(())
            }
        }
    }

    /// Start a WRITE of `src` to `dst`; `src` may be reused once
    /// [`Channel::poll_writes`] has counted it complete. A two-sided write
    /// is an RPC that has completed when this returns.
    fn post_write(&self, src: &[u8], dst: RemoteAddr) -> dlsm_sstable::Result<()> {
        match &self.link {
            Link::OneSided(qp) => qp.borrow_mut().post_write(src, dst, 0).map_err(source_error),
            Link::TwoSided(client) => {
                client.borrow_mut().write_file(dst.offset, src, self.wait).map_err(source_error)
            }
        }
    }

    /// How many of the `posted` writes not yet counted have completed, in
    /// the order they were posted (completions are FIFO per queue pair).
    /// With `block`, at least one: a write that does not complete within
    /// the channel's wait is an error.
    fn poll_writes(&self, posted: usize, block: bool) -> dlsm_sstable::Result<usize> {
        match &self.link {
            Link::OneSided(qp) if block => {
                qp.borrow_mut().poll_one_blocking(self.wait).map(|_| 1).map_err(source_error)
            }
            Link::OneSided(qp) => Ok(qp.borrow_mut().poll(usize::MAX).len()),
            Link::TwoSided(_) => Ok(posted),
        }
    }

    /// Write `src` to `dst` and wait for it, [`WRITE_CHUNK`] bytes at a
    /// time (a compute-side compaction's outputs).
    pub fn write(&self, src: &[u8], dst: RemoteAddr) -> dlsm_sstable::Result<()> {
        for (i, chunk) in src.chunks(WRITE_CHUNK).enumerate() {
            self.post_write(chunk, dst.add((i * WRITE_CHUNK) as u64))?;
            self.poll_writes(1, true)?;
        }
        Ok(())
    }
}

/// [`DataSource`] over one remote table extent.
#[derive(Clone)]
pub struct RemoteSource {
    channel: Channel,
    base: RemoteAddr,
    len: u64,
}

impl RemoteSource {
    /// View `len` bytes at `base` as a table.
    pub fn new(channel: Channel, base: RemoteAddr, len: u64) -> RemoteSource {
        RemoteSource { channel, base, len }
    }

    /// Source for `handle`'s extent.
    pub fn for_table(channel: &Channel, handle: &TableHandle) -> RemoteSource {
        RemoteSource::new(channel.clone(), handle.home.addr(handle.extent.offset), handle.extent.len)
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
        self.channel.read(self.base.add(offset), dst)
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// A [`TableSink`] that streams into remote memory through a FIFO ring of
/// pre-registered flush buffers (Sec. X-C). When a buffer fills, its WRITE
/// is posted and serialization continues into the next buffer without
/// waiting. In-flight buffers form a FIFO queue mirroring the queue pair's
/// send queue: every time a new WRITE is posted, ready completions are
/// polled and the corresponding *head* buffers are recycled (completion k
/// always refers to the k-th oldest buffer). A full ring waits for its head.
pub struct FlushSink<'c> {
    channel: &'c Channel,
    base: RemoteAddr,
    cap: u64,
    remote_pos: u64,
    cur: Vec<u8>,
    buf_size: usize,
    /// Buffers whose WRITE is posted but not yet completed, oldest first.
    in_flight: VecDeque<Vec<u8>>,
    /// Recycled buffers ready for reuse.
    free: Vec<Vec<u8>>,
    max_in_flight: usize,
}

impl<'c> FlushSink<'c> {
    /// Stream into `[base, base + cap)` using `buf_count` buffers of
    /// `buf_size` bytes. A WRITE that does not complete within the
    /// channel's wait fails the flush — which frees the whole extent —
    /// instead of stalling the flush thread.
    pub fn new(channel: &'c Channel, base: RemoteAddr, cap: u64, buf_size: usize, buf_count: usize) -> FlushSink<'c> {
        FlushSink {
            channel,
            base,
            cap,
            remote_pos: 0,
            cur: Vec::with_capacity(buf_size),
            buf_size,
            in_flight: VecDeque::new(),
            free: Vec::new(),
            max_in_flight: buf_count.max(2),
        }
    }

    /// Bytes written (including the buffer still being filled).
    pub fn written(&self) -> u64 {
        self.remote_pos + self.cur.len() as u64
    }

    /// Recycle the buffers of completed WRITEs, waiting for at least one
    /// with `block`.
    fn recycle(&mut self, block: bool) -> dlsm_sstable::Result<()> {
        let done = self.channel.poll_writes(self.in_flight.len(), block)?;
        for _ in 0..done {
            if let Some(buf) = self.in_flight.pop_front() {
                self.free.push(buf);
            }
        }
        Ok(())
    }

    fn submit_current(&mut self) -> dlsm_sstable::Result<()> {
        if self.cur.is_empty() {
            return Ok(());
        }
        self.channel.post_write(&self.cur, self.base.add(self.remote_pos))?;
        self.remote_pos += self.cur.len() as u64;
        let filled = std::mem::take(&mut self.cur);
        self.in_flight.push_back(filled);
        // Reuse a finished buffer if one is ready; otherwise allocate a new
        // one — unless the ring is at capacity, in which case wait for the
        // head to finish (backpressure).
        self.recycle(false)?;
        while self.in_flight.len() >= self.max_in_flight {
            self.recycle(true)?;
        }
        self.cur = self.free.pop().unwrap_or_else(|| Vec::with_capacity(self.buf_size));
        self.cur.clear();
        Ok(())
    }

    /// Flush the partial buffer and wait for every outstanding WRITE.
    pub fn finish(mut self) -> dlsm_sstable::Result<u64> {
        self.submit_current()?;
        while !self.in_flight.is_empty() {
            self.recycle(true)?;
        }
        Ok(self.remote_pos)
    }
}

impl TableSink for FlushSink<'_> {
    fn append(&mut self, mut data: &[u8]) -> dlsm_sstable::Result<()> {
        if self.written() + data.len() as u64 > self.cap {
            return Err(SstError::SinkFull);
        }
        while !data.is_empty() {
            let room = self.buf_size - self.cur.len();
            let take = room.min(data.len());
            self.cur.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.cur.len() >= self.buf_size {
                self.submit_current()?;
            }
        }
        Ok(())
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
    stats: &'a SlotStats,
    /// Whether the block pool wants the block the last `fetch` missed.
    admit: Cell<bool>,
}

impl BlockFetcher for TableFetcher<'_> {
    fn fetch(&self, offset: u64, len: usize) -> Option<Arc<Vec<u8>>> {
        if let Some(image) = self.cache.extent_get(self.table) {
            let block = image.get(offset as usize..offset as usize + len)?;
            self.stats.add(SlotCounter::L0CacheHits, 1);
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
fn fetch_extent_image(channel: &Channel, handle: &TableHandle) -> Result<Arc<Vec<u8>>> {
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
    channel: &Channel,
    t: &'v TableHandle,
    user_key: &[u8],
    hash: u32,
    seq: SeqNo,
    cache: Option<&Arc<ReadCache>>,
    stats: &SlotStats,
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
            stats.add(SlotCounter::BloomSkips, 1);
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
                stats.add(SlotCounter::L0CacheHits, 1);
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
pub(crate) fn fetch_wave<T>(channel: &Channel, wave: &mut [Fetch<'_, T>]) -> Result<()> {
    /// READs in flight at once (the send queue holds 256).
    const DEPTH: usize = 128;
    if wave.is_empty() {
        return Ok(());
    }
    let qp = match &channel.link {
        Link::OneSided(qp) => qp,
        // No posting interface on the RPC path: one call per READ.
        Link::TwoSided(_) => {
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
    channel: &Channel,
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
    use crate::context::RemoteRegion;
    use dlsm_memnode::{MemServer, MemServerConfig};
    use dlsm_sstable::byte_addr::ByteAddrBuilder;
    use dlsm_sstable::key::{InternalKey, ValueType};
    use rdma_sim::{Fabric, MemoryRegion, NetworkProfile, Verb};

    /// A channel from a new compute node to the node that owns `region`,
    /// counting its RPC retries in `net`.
    fn channel_to(fabric: &Arc<Fabric>, region: &MemoryRegion, cfg: &DbConfig, net: &Arc<ClientNetStats>) -> Channel {
        let ctx = ComputeContext::new(fabric);
        let memnode = MemNodeHandle::with_window(RemoteRegion::of(region), 0, 0);
        Channel::open(&ctx, &memnode, cfg, net).unwrap()
    }

    /// A one-sided channel to a bare memory node with a 1 MiB region.
    fn one_sided() -> (Arc<Fabric>, Arc<MemoryRegion>, Channel) {
        let fabric = Fabric::new(NetworkProfile::instant());
        let region = fabric.add_node().register_region(1 << 20);
        let channel = channel_to(&fabric, &region, &DbConfig::default(), &Arc::default());
        (fabric, region, channel)
    }

    #[test]
    fn remote_source_reads_over_fabric() {
        let (fabric, region, channel) = one_sided();
        region.local_write(128, b"remote-table-bytes").unwrap();
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
        channel: &Channel,
        handle: &TableHandle,
        user_key: &[u8],
        seq: SeqNo,
        stats: &SlotStats,
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
        let (fabric, region, channel) = one_sided();
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
            RemoteRegion::of(&region),
            crate::handle::Extent { offset: 0, len: data.len() as u64 },
            crate::handle::Origin::External,
            MetaKind::ByteAddr(Arc::new(meta)),
            InternalKey::new(b"key0000", 7, ValueType::Value).into_bytes(),
            InternalKey::new(b"key0099", 7, ValueType::Value).into_bytes(),
            100,
            None,
        );
        let before = fabric.stats().snapshot();
        let stats = SlotStats::default();
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
    fn two_sided_channel_reads_and_writes_through_rpc() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let server = MemServer::start(
            &fabric,
            MemServerConfig { region_size: 1 << 20, flush_zone: 1 << 19, compaction_workers: 1, dispatchers: 1 },
        );
        let cfg = DbConfig { data_path: DataPath::TwoSidedRpc, scan_prefetch: 4096, ..DbConfig::default() };
        let channel = channel_to(&fabric, server.region(), &cfg, &Arc::default());
        server.region().local_write(256, b"tmpfs-table").unwrap();
        let src = RemoteSource::new(channel.clone(), server.region().addr(256), 11);
        let mut buf = [0u8; 11];
        src.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"tmpfs-table");
        // Larger than one reply: read in reply-sized calls.
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        channel.write(&payload, server.region().addr(4096)).unwrap();
        let mut back = vec![0u8; 10_000];
        channel.read(server.region().addr(4096), &mut back).unwrap();
        assert_eq!(back, payload);
        // The flush ring runs on it too: every post has completed.
        let mut sink = FlushSink::new(&channel, server.region().addr(16 << 10), 1 << 16, 64, 2);
        sink.append(&payload).unwrap();
        assert_eq!(sink.finish().unwrap(), 10_000);
        server.region().local_read(16 << 10, &mut back).unwrap();
        assert_eq!(back, payload);
        // The requester posted nothing but SENDs (the memory node's replies
        // are its own one-sided WRITEs).
        let t = channel.traffic();
        assert!(t.ops(Verb::Send) > 3);
        assert_eq!(t.ops(Verb::Send), t.total_ops(), "a two-sided channel posted a one-sided verb");
        server.shutdown();
    }

    /// A read past the end of the memory node's region fails at once on
    /// either path: the one-sided READ on its verb, the RPC with the error
    /// the memory node answers — never a retried timeout.
    #[test]
    fn a_read_past_the_region_fails_at_once_on_both_paths() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let server = MemServer::start(
            &fabric,
            MemServerConfig { region_size: 1 << 20, flush_zone: 1 << 19, compaction_workers: 1, dispatchers: 1 },
        );
        let end = server.region().addr(server.region().len() as u64 - 8);
        for data_path in [DataPath::OneSided, DataPath::TwoSidedRpc] {
            let rpc_retry = dlsm_memnode::RetryPolicy {
                attempt_timeout: Some(Duration::from_millis(200)),
                ..dlsm_memnode::RetryPolicy::default()
            };
            let cfg = DbConfig { data_path, scan_prefetch: 4096, rpc_retry, ..DbConfig::default() };
            let net = Arc::new(ClientNetStats::default());
            let channel = channel_to(&fabric, server.region(), &cfg, &net);
            assert!(channel.read(end, &mut [0u8; 64]).is_err(), "{data_path:?}: read past the region");
            assert_eq!(net.totals(), (0, 0), "{data_path:?}: an answered error was retried");
        }
        server.shutdown();
    }

    #[test]
    fn sink_ring_recycles_buffers_fifo() {
        let (_fabric, region, channel) = one_sided();
        let mut sink = FlushSink::new(&channel, region.addr(0), 1 << 20, 64, 3);
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        sink.append(&payload).unwrap();
        let written = sink.finish().unwrap();
        assert_eq!(written, 10_000);
        let mut back = vec![0u8; 10_000];
        region.local_read(0, &mut back).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn sink_full_when_extent_too_small() {
        let (_fabric, region, channel) = one_sided();
        let mut sink = FlushSink::new(&channel, region.addr(0), 100, 64, 2);
        assert!(sink.append(&[1u8; 99]).is_ok());
        assert_eq!(sink.append(&[1u8; 2]), Err(SstError::SinkFull));
    }
}
