//! The conventional block-based SSTable format (RocksDB-style).
//!
//! Used by the RocksDB-RDMA baselines and the dLSM-Block ablation (paper
//! Sec. XI-A, XI-C7). The remote-memory image is self-contained:
//!
//! ```text
//!   | data block 0 | data block 1 | ... | filter | index | footer |
//!   data block = u32 entry_count, then entries
//!   entry      = varint(klen) varint(vlen) internal_key value
//!   index      = u32 count, then (len-prefixed last_key, u64 off, u32 len)
//!   footer     = u64 index_off, u32 index_len, u64 filter_off,
//!                u32 filter_len, u64 num_entries, u64 magic   (40 bytes)
//! ```
//!
//! The architectural differences from the byte-addressable format are the
//! ones the paper measures:
//!
//! * **Reads** fetch a whole block per point lookup (block-size read
//!   amplification over the network).
//! * **Writes** wrap records into a block buffer before appending it to the
//!   table image — one extra memory copy per byte.
//! * **Open** costs remote reads for the footer, index and filter; readers
//!   cache them afterwards (modelling RocksDB's table cache pinning index
//!   and filter blocks).
//!
//! `block_size == 0` means "one record per block", i.e. the
//! Memory-RocksDB-RDMA baseline whose block size matches a key-value pair.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::bloom::BloomFilter;
use crate::byte_addr::{TableGet, TableSink};
use crate::coding::{get_len_prefixed, get_u32, get_u64, get_varint, put_len_prefixed, put_u32, put_u64, put_varint};
use crate::iter::ForwardIter;
use crate::key::{self, compare_internal, InternalKey, SeqNo, ValueType};
use crate::source::DataSource;
use crate::{Result, SstError};

const MAGIC: u64 = 0xD15A_66B1_0C4B_1E55;
/// Footer length in bytes.
pub const FOOTER_LEN: usize = 40;

/// One index entry: the block's last internal key and its extent.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BlockHandle {
    last_key: Vec<u8>,
    offset: u64,
    len: u32,
}

/// Builder for block-based tables.
pub struct BlockTableBuilder<S: TableSink> {
    sink: S,
    /// Target uncompressed block size; 0 = one entry per block.
    block_size: usize,
    bits_per_key: usize,
    block_buf: Vec<u8>,
    block_count: u32,
    last_key: Vec<u8>,
    index: Vec<BlockHandle>,
    user_keys: Vec<u8>,
    user_key_ends: Vec<u32>,
    offset: u64,
    num_entries: u64,
    scratch: Vec<u8>,
}

impl<S: TableSink> BlockTableBuilder<S> {
    /// Start building into `sink`.
    pub fn new(sink: S, block_size: usize, bits_per_key: usize) -> BlockTableBuilder<S> {
        BlockTableBuilder {
            sink,
            block_size,
            bits_per_key,
            block_buf: Vec::with_capacity(block_size.max(256)),
            block_count: 0,
            last_key: Vec::new(),
            index: Vec::new(),
            user_keys: Vec::new(),
            user_key_ends: Vec::new(),
            offset: 0,
            num_entries: 0,
            scratch: Vec::with_capacity(16),
        }
    }

    /// Append one record; keys must arrive in internal-key order.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) -> Result<()> {
        debug_assert!(
            self.last_key.is_empty() || compare_internal(&self.last_key, ikey) == Ordering::Less,
            "records must be added in internal-key order"
        );
        self.scratch.clear();
        put_varint(&mut self.scratch, ikey.len() as u64);
        put_varint(&mut self.scratch, value.len() as u64);
        // The "block wrapping" copy the byte-addressable format eliminates:
        // records are staged in the block buffer, then copied again into the
        // table image when the block is cut.
        self.block_buf.extend_from_slice(&self.scratch);
        self.block_buf.extend_from_slice(ikey);
        self.block_buf.extend_from_slice(value);
        self.block_count += 1;
        self.num_entries += 1;
        self.last_key.clear();
        self.last_key.extend_from_slice(ikey);
        self.user_keys.extend_from_slice(key::user_key(ikey));
        self.user_key_ends.push(self.user_keys.len() as u32);
        if self.block_size == 0 || self.block_buf.len() >= self.block_size {
            self.cut_block()?;
        }
        Ok(())
    }

    fn cut_block(&mut self) -> Result<()> {
        if self.block_count == 0 {
            return Ok(());
        }
        let mut header = Vec::with_capacity(4);
        put_u32(&mut header, self.block_count);
        let len = (header.len() + self.block_buf.len()) as u32;
        self.sink.append(&header)?;
        self.sink.append(&self.block_buf)?;
        self.index.push(BlockHandle {
            last_key: self.last_key.clone(),
            offset: self.offset,
            len,
        });
        self.offset += u64::from(len);
        self.block_buf.clear();
        self.block_count = 0;
        Ok(())
    }

    /// Number of records added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Bytes of table image emitted so far (cut blocks only).
    pub fn data_len(&self) -> u64 {
        self.offset
    }

    /// Conservative estimate of the final table length if [`Self::finish`]
    /// were called now — used by compaction to cut an output before its
    /// reserved extent overflows.
    pub fn estimated_finished_len(&self) -> u64 {
        let filter = (self.num_entries as usize * self.bits_per_key) / 8 + 72;
        let index_per_block = self.last_key.len() + 64;
        let index = 4 + (self.index.len() + 1) * index_per_block;
        self.offset
            + (self.block_buf.len() + 4) as u64
            + filter as u64
            + index as u64
            + FOOTER_LEN as u64
    }

    /// Finish the table: cut the last block, append filter, index and
    /// footer. Returns the sink and the total table length.
    pub fn finish(mut self) -> Result<(S, u64)> {
        self.cut_block()?;
        // Filter.
        let filter_off = self.offset;
        let bloom = BloomFilter::build(
            UserKeys { blob: &self.user_keys, ends: &self.user_key_ends, i: 0 },
            self.bits_per_key,
        );
        let filter = bloom.encode();
        self.sink.append(&filter)?;
        self.offset += filter.len() as u64;
        // Index.
        let index_off = self.offset;
        let mut index = Vec::new();
        put_u32(&mut index, self.index.len() as u32);
        for h in &self.index {
            put_len_prefixed(&mut index, &h.last_key);
            put_u64(&mut index, h.offset);
            put_u32(&mut index, h.len);
        }
        self.sink.append(&index)?;
        self.offset += index.len() as u64;
        // Footer.
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        put_u64(&mut footer, index_off);
        put_u32(&mut footer, index.len() as u32);
        put_u64(&mut footer, filter_off);
        put_u32(&mut footer, filter.len() as u32);
        put_u64(&mut footer, self.num_entries);
        put_u64(&mut footer, MAGIC);
        self.sink.append(&footer)?;
        self.offset += footer.len() as u64;
        Ok((self.sink, self.offset))
    }
}

struct UserKeys<'a> {
    blob: &'a [u8],
    ends: &'a [u32],
    i: usize,
}

impl<'a> Iterator for UserKeys<'a> {
    type Item = &'a [u8];
    fn next(&mut self) -> Option<&'a [u8]> {
        if self.i >= self.ends.len() {
            return None;
        }
        let start = if self.i == 0 { 0 } else { self.ends[self.i - 1] as usize };
        let end = self.ends[self.i] as usize;
        self.i += 1;
        Some(&self.blob[start..end])
    }
}

impl<'a> ExactSizeIterator for UserKeys<'a> {
    fn len(&self) -> usize {
        self.ends.len() - self.i
    }
}

/// Cache-first fetch policy for data blocks: a point read that has passed
/// the filter and the index consults the fetcher before touching the
/// [`DataSource`] and offers a fresh fetch back for admission. Implemented
/// over the compute-side read cache (dlsm-cache); the offsets are
/// table-relative, so one fetcher is bound to one table for one lookup.
/// Scans deliberately bypass the fetcher (scan resistance).
pub trait BlockFetcher {
    /// The `len` cached bytes at `offset`, if resident.
    fn fetch(&self, offset: u64, len: usize) -> Option<Arc<Vec<u8>>>;

    /// Offer freshly read bytes at `offset` for admission.
    fn admit(&self, offset: u64, data: &Arc<Vec<u8>>);
}

/// Reader over a block-based table.
///
/// `open` performs three remote reads (footer, index, filter) and caches the
/// results; per-lookup traffic is then one block-sized read — or zero when
/// the lookup's [`BlockFetcher`] holds the block.
pub struct BlockTableReader<S: DataSource> {
    source: S,
    index: Arc<Vec<BlockHandleOwned>>,
    bloom: Arc<BloomFilter>,
    num_entries: u64,
}

#[derive(Debug, Clone)]
struct BlockHandleOwned {
    last_key: Vec<u8>,
    offset: u64,
    len: u32,
}

impl<S: DataSource> BlockTableReader<S> {
    /// Open a table: fetch and cache footer, index and filter.
    pub fn open(source: S) -> Result<BlockTableReader<S>> {
        let total = source.len();
        if total < FOOTER_LEN as u64 {
            return Err(SstError::Corrupt("table shorter than footer".into()));
        }
        let mut footer = [0u8; FOOTER_LEN];
        source.read(total - FOOTER_LEN as u64, &mut footer)?;
        if get_u64(&footer, 32)? != MAGIC {
            return Err(SstError::Corrupt("bad magic".into()));
        }
        let index_off = get_u64(&footer, 0)?;
        let index_len = get_u32(&footer, 8)? as usize;
        let filter_off = get_u64(&footer, 12)?;
        let filter_len = get_u32(&footer, 20)? as usize;
        let num_entries = get_u64(&footer, 24)?;

        let mut filter_bytes = vec![0u8; filter_len];
        source.read(filter_off, &mut filter_bytes)?;
        let bloom = BloomFilter::decode(&filter_bytes)
            .ok_or_else(|| SstError::Corrupt("bad filter block".into()))?;

        let mut index_bytes = vec![0u8; index_len];
        source.read(index_off, &mut index_bytes)?;
        let count = get_u32(&index_bytes, 0)? as usize;
        let mut off = 4;
        // Never trust an on-disk count for pre-allocation.
        let mut index = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let (k, n) = get_len_prefixed(&index_bytes, off)?;
            off += n;
            let boff = get_u64(&index_bytes, off)?;
            let blen = get_u32(&index_bytes, off + 8)?;
            off += 12;
            index.push(BlockHandleOwned { last_key: k.to_vec(), offset: boff, len: blen });
        }
        Ok(BlockTableReader {
            source,
            index: Arc::new(index),
            bloom: Arc::new(bloom),
            num_entries,
        })
    }

    /// Number of records in the table.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Number of data blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Smallest possible block index whose last key is ≥ `ikey`.
    fn block_for(&self, ikey: &[u8]) -> usize {
        self.index.partition_point(|h| compare_internal(&h.last_key, ikey) == Ordering::Less)
    }

    /// Point lookup: bloom probe, index search, one whole-block read, linear
    /// scan within the block.
    pub fn get(&self, user_key: &[u8], seq: SeqNo) -> Result<TableGet> {
        self.get_with(user_key, seq, None)
    }

    /// [`Self::get`] with a cache-first `fetcher` for the data block.
    pub fn get_with(
        &self,
        user_key: &[u8],
        seq: SeqNo,
        fetcher: Option<&dyn BlockFetcher>,
    ) -> Result<TableGet> {
        if !self.bloom.may_contain(user_key) {
            return Ok(TableGet::NotFound);
        }
        let lookup = InternalKey::for_lookup(user_key, seq);
        let bi = self.block_for(lookup.as_bytes());
        if bi >= self.index.len() {
            return Ok(TableGet::NotFound);
        }
        let h = &self.index[bi];
        // Cache-first: a resident block costs zero fabric reads; a miss is
        // fetched from the source and offered back for admission.
        let cached = fetcher
            .and_then(|f| f.fetch(h.offset, h.len as usize))
            .filter(|block| block.len() == h.len as usize);
        let block: Arc<Vec<u8>> = match cached {
            Some(block) => block,
            None => {
                let mut buf = vec![0u8; h.len as usize];
                self.source.read(h.offset, &mut buf)?;
                let buf = Arc::new(buf);
                if let Some(f) = fetcher {
                    f.admit(h.offset, &buf);
                }
                buf
            }
        };
        let count = get_u32(&block, 0)?;
        let mut off = 4usize;
        for _ in 0..count {
            let (klen, n1) = get_varint(&block, off)?;
            let (vlen, n2) = get_varint(&block, off + n1)?;
            let kstart = off + n1 + n2;
            let vstart = kstart + klen as usize;
            let vend = vstart + vlen as usize;
            let ikey = block
                .get(kstart..vstart)
                .ok_or_else(|| SstError::Corrupt("entry beyond block".into()))?;
            if compare_internal(ikey, lookup.as_bytes()) != Ordering::Less {
                let (ukey, _, vt) = key::split(ikey)
                    .ok_or_else(|| SstError::Corrupt("bad internal key".into()))?;
                if ukey != user_key {
                    return Ok(TableGet::NotFound);
                }
                return Ok(match vt {
                    ValueType::Deletion => TableGet::Deleted,
                    ValueType::Value => TableGet::Found(
                        block
                            .get(vstart..vend)
                            .ok_or_else(|| SstError::Corrupt("value beyond block".into()))?
                            .to_vec(),
                    ),
                });
            }
            off = vend;
        }
        Ok(TableGet::NotFound)
    }

    /// The cached metadata (index + filter), shareable across readers so a
    /// table is opened (3 remote reads) only once.
    pub fn meta_cache(&self) -> BlockMetaCache {
        BlockMetaCache {
            index: Arc::clone(&self.index),
            bloom: Arc::clone(&self.bloom),
            num_entries: self.num_entries,
        }
    }

    /// Reopen a table from cached metadata without touching the source.
    pub fn from_cache(source: S, cache: BlockMetaCache) -> BlockTableReader<S> {
        BlockTableReader {
            source,
            index: cache.index,
            bloom: cache.bloom,
            num_entries: cache.num_entries,
        }
    }

    /// Iterator with block prefetching: each remote read fetches up to
    /// `prefetch_bytes` of consecutive blocks. The iterator owns a clone of
    /// the source and `Arc`s of the cached metadata.
    pub fn iter(&self, prefetch_bytes: usize) -> BlockTableIter<S>
    where
        S: Clone,
    {
        BlockTableIter {
            index: Arc::clone(&self.index),
            source: self.source.clone(),
            buf: Vec::new(),
            buf_first_block: 0,
            buf_block_count: 0,
            block_idx: usize::MAX,
            cursor: 0,
            entries_left: 0,
            key_range: 0..0,
            val_range: 0..0,
            prefetch: prefetch_bytes.max(1),
        }
    }
}

/// Cached, shareable metadata of one block table: parsed index, bloom
/// filter and entry count (what the compute node keeps in its table cache).
#[derive(Debug, Clone)]
pub struct BlockMetaCache {
    index: Arc<Vec<BlockHandleOwned>>,
    bloom: Arc<BloomFilter>,
    num_entries: u64,
}

impl BlockMetaCache {
    /// Number of records in the table.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Approximate resident size of the cache in compute-node memory.
    pub fn memory_usage(&self) -> usize {
        self.index.iter().map(|h| h.last_key.len() + 24).sum::<usize>() + 64
    }
}

/// Block-prefetching iterator over a block-based table (owns its metadata
/// handles and data source).
pub struct BlockTableIter<S: DataSource> {
    index: Arc<Vec<BlockHandleOwned>>,
    source: S,
    buf: Vec<u8>,
    buf_first_block: usize,
    buf_block_count: usize,
    /// Current block, `usize::MAX` = invalid.
    block_idx: usize,
    /// Cursor into `buf` (absolute within buf).
    cursor: usize,
    entries_left: u32,
    key_range: std::ops::Range<usize>,
    val_range: std::ops::Range<usize>,
    prefetch: usize,
}

impl<S: DataSource> BlockTableIter<S> {
    fn index(&self) -> &[BlockHandleOwned] {
        &self.index
    }

    fn block_for(&self, ikey: &[u8]) -> usize {
        self.index.partition_point(|h| compare_internal(&h.last_key, ikey) == Ordering::Less)
    }

    /// Ensure block `i` is in `buf`; returns its relative offset.
    fn fetch_block(&mut self, i: usize) -> Result<usize> {
        let in_buf = i >= self.buf_first_block && i < self.buf_first_block + self.buf_block_count;
        if !in_buf {
            // Prefetch consecutive blocks up to the window size.
            let start_off = self.index()[i].offset;
            let mut end = i;
            let mut total = 0usize;
            while end < self.index().len() {
                let l = self.index()[end].len as usize;
                if total > 0 && total + l > self.prefetch {
                    break;
                }
                total += l;
                end += 1;
            }
            self.buf.resize(total, 0);
            self.source.read(start_off, &mut self.buf)?;
            self.buf_first_block = i;
            self.buf_block_count = end - i;
        }
        Ok((self.index()[i].offset - self.index()[self.buf_first_block].offset) as usize)
    }

    /// Enter block `i` positioned before its first entry.
    fn enter_block(&mut self, i: usize) -> Result<()> {
        let rel = self.fetch_block(i)?;
        let count = get_u32(&self.buf, rel)?;
        self.block_idx = i;
        self.cursor = rel + 4;
        self.entries_left = count;
        Ok(())
    }

    /// Parse the entry at `cursor`, making it current.
    fn parse_entry(&mut self) -> Result<()> {
        debug_assert!(self.entries_left > 0);
        let (klen, n1) = get_varint(&self.buf, self.cursor)?;
        let (vlen, n2) = get_varint(&self.buf, self.cursor + n1)?;
        let kstart = self.cursor + n1 + n2;
        let vstart = kstart + klen as usize;
        let vend = vstart + vlen as usize;
        if vend > self.buf.len() {
            return Err(SstError::Corrupt("entry beyond prefetch buffer".into()));
        }
        self.key_range = kstart..vstart;
        self.val_range = vstart..vend;
        self.cursor = vend;
        self.entries_left -= 1;
        Ok(())
    }

    fn step(&mut self) -> Result<()> {
        loop {
            if self.entries_left > 0 {
                return self.parse_entry();
            }
            let next_block = if self.block_idx == usize::MAX { 0 } else { self.block_idx + 1 };
            if next_block >= self.index().len() {
                self.block_idx = usize::MAX;
                return Ok(());
            }
            self.enter_block(next_block)?;
        }
    }
}

impl<S: DataSource> ForwardIter for BlockTableIter<S> {
    fn valid(&self) -> bool {
        self.block_idx != usize::MAX
    }

    fn key(&self) -> &[u8] {
        debug_assert!(self.valid());
        &self.buf[self.key_range.clone()]
    }

    fn value(&self) -> &[u8] {
        debug_assert!(self.valid());
        &self.buf[self.val_range.clone()]
    }

    fn next(&mut self) -> Result<()> {
        debug_assert!(self.valid());
        self.step()
    }

    fn seek(&mut self, ikey: &[u8]) -> Result<()> {
        let bi = self.block_for(ikey);
        if bi >= self.index().len() {
            self.block_idx = usize::MAX;
            return Ok(());
        }
        self.enter_block(bi)?;
        self.step()?;
        while self.valid() && compare_internal(self.key(), ikey) == Ordering::Less {
            self.step()?;
        }
        Ok(())
    }

    fn seek_to_first(&mut self) -> Result<()> {
        self.block_idx = usize::MAX;
        self.cursor = 0;
        self.entries_left = 0;
        self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::collect_all;
    use crate::source::SliceSource;

    fn build(n: usize, block_size: usize) -> Vec<u8> {
        let mut b = BlockTableBuilder::new(Vec::new(), block_size, 10);
        for i in 0..n {
            let ik = InternalKey::new(format!("key{i:06}").as_bytes(), 50, ValueType::Value);
            b.add(ik.as_bytes(), format!("value-{i}").as_bytes()).unwrap();
        }
        let (data, len) = b.finish().unwrap();
        assert_eq!(data.len() as u64, len);
        data
    }

    #[test]
    fn build_open_get_8k() {
        let data = build(2000, 8192);
        let r = BlockTableReader::open(SliceSource(data)).unwrap();
        assert_eq!(r.num_entries(), 2000);
        assert!(r.block_count() > 1);
        assert_eq!(r.get(b"key000777", 100).unwrap(), TableGet::Found(b"value-777".to_vec()));
        assert_eq!(r.get(b"key002000", 100).unwrap(), TableGet::NotFound);
        assert_eq!(r.get(b"key000777", 10).unwrap(), TableGet::NotFound);
    }

    #[test]
    fn fetcher_is_asked_after_filter_and_index_and_admits_misses() {
        use std::cell::RefCell;
        use std::collections::HashMap;

        #[derive(Default)]
        struct MapFetcher {
            map: RefCell<HashMap<u64, Arc<Vec<u8>>>>,
            asked: RefCell<usize>,
        }
        impl BlockFetcher for MapFetcher {
            fn fetch(&self, offset: u64, _len: usize) -> Option<Arc<Vec<u8>>> {
                *self.asked.borrow_mut() += 1;
                self.map.borrow().get(&offset).cloned()
            }
            fn admit(&self, offset: u64, data: &Arc<Vec<u8>>) {
                self.map.borrow_mut().insert(offset, Arc::clone(data));
            }
        }

        let r = BlockTableReader::open(SliceSource(build(2000, 8192))).unwrap();
        let cache = MapFetcher::default();
        let found = TableGet::Found(b"value-777".to_vec());
        // A filter negative never reaches the fetcher.
        assert_eq!(r.get_with(b"nope", 100, Some(&cache)).unwrap(), TableGet::NotFound);
        assert_eq!(*cache.asked.borrow(), 0);
        // The miss reads the source and admits the block...
        assert_eq!(r.get_with(b"key000777", 100, Some(&cache)).unwrap(), found);
        assert_eq!((*cache.asked.borrow(), cache.map.borrow().len()), (1, 1));
        // ...which then serves the lookup without the source: an empty one
        // over the same metadata still finds the key.
        let sourceless = BlockTableReader::from_cache(SliceSource(Vec::new()), r.meta_cache());
        assert_eq!(sourceless.get_with(b"key000777", 100, Some(&cache)).unwrap(), found);
        assert!(sourceless.get(b"key000777", 100).is_err());
        // A cached object of the wrong length is ignored, not mis-served.
        let offset = *cache.map.borrow().keys().next().unwrap();
        cache.admit(offset, &Arc::new(vec![0u8; 3]));
        assert_eq!(r.get_with(b"key000777", 100, Some(&cache)).unwrap(), found);
    }

    #[test]
    fn kv_sized_blocks_have_one_entry_each() {
        let data = build(50, 0);
        let r = BlockTableReader::open(SliceSource(data)).unwrap();
        assert_eq!(r.block_count(), 50);
        assert_eq!(r.get(b"key000049", 100).unwrap(), TableGet::Found(b"value-49".to_vec()));
    }

    #[test]
    fn deletion_tombstone() {
        let mut b = BlockTableBuilder::new(Vec::new(), 2048, 10);
        let ik = InternalKey::new(b"dead", 5, ValueType::Deletion);
        b.add(ik.as_bytes(), b"").unwrap();
        let (data, _) = b.finish().unwrap();
        let r = BlockTableReader::open(SliceSource(data)).unwrap();
        assert_eq!(r.get(b"dead", 100).unwrap(), TableGet::Deleted);
    }

    #[test]
    fn iterator_full_scan_matches_input() {
        for block_size in [0usize, 512, 8192] {
            let data = build(300, block_size);
            let r = BlockTableReader::open(SliceSource(data)).unwrap();
            let mut it = r.iter(4096);
            let all = collect_all(&mut it).unwrap();
            assert_eq!(all.len(), 300, "block_size={block_size}");
            for (i, (k, v)) in all.iter().enumerate() {
                assert_eq!(key::user_key(k), format!("key{i:06}").as_bytes());
                assert_eq!(v, format!("value-{i}").as_bytes());
            }
        }
    }

    #[test]
    fn iterator_seek() {
        let data = build(100, 1024);
        let r = BlockTableReader::open(SliceSource(data)).unwrap();
        let mut it = r.iter(1 << 20);
        it.seek(InternalKey::for_lookup(b"key000042", 1000).as_bytes()).unwrap();
        assert!(it.valid());
        assert_eq!(key::user_key(it.key()), b"key000042");
        it.seek(InternalKey::for_lookup(b"zzz", 1000).as_bytes()).unwrap();
        assert!(!it.valid());
        // Seek to a key between entries lands on the next one.
        it.seek(InternalKey::for_lookup(b"key0000425", 1000).as_bytes()).unwrap();
        assert_eq!(key::user_key(it.key()), b"key000043");
    }

    #[test]
    fn open_rejects_garbage() {
        assert!(BlockTableReader::open(SliceSource(vec![0u8; 10])).is_err());
        let mut data = build(10, 1024);
        let n = data.len();
        data[n - 1] ^= 0xFF; // corrupt the magic
        assert!(BlockTableReader::open(SliceSource(data)).is_err());
    }

    #[test]
    fn empty_table_roundtrips() {
        let b = BlockTableBuilder::new(Vec::new(), 4096, 10);
        let (data, _) = b.finish().unwrap();
        let r = BlockTableReader::open(SliceSource(data)).unwrap();
        assert_eq!(r.num_entries(), 0);
        assert_eq!(r.get(b"k", 1).unwrap(), TableGet::NotFound);
        let mut it = r.iter(1024);
        it.seek_to_first().unwrap();
        assert!(!it.valid());
    }
}
