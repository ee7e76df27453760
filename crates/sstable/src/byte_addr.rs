//! The byte-addressable SSTable format (paper Sec. VI, Fig. 4).
//!
//! dLSM drops the notion of "blocks": the remote-memory image of a table is
//! just the sorted key-value records, back to back. Everything needed to
//! *address* them — the per-record index `(key, offset, len)` and the bloom
//! filter — stays on the compute node as [`TableMeta`]:
//!
//! ```text
//!   remote memory:  | rec 0 | rec 1 | ... | rec n-1 |        (data_len bytes)
//!   record        = varint(klen) varint(vlen) internal_key value
//!   compute node  :  TableMeta { index[(key, off, len)], bloom, ... }
//! ```
//!
//! A point read probes the bloom filter, binary-searches the index, and
//! issues **one** RDMA read of exactly one record — no block-sized read
//! amplification. A scan knows from the same index which bytes it wants
//! before it fetches any ([`ByteAddrIter::plan`]) and reads them in chunks
//! of whole records, up to multi-MB ones.
//! Building a table serializes records straight into the output sink with
//! no intermediate block buffer (this is the write-side win of
//! byte-addressability: one memory copy fewer than the block format).

use std::cmp::Ordering;
use std::sync::Arc;

use crate::bloom::{bloom_hash, BloomFilter};
use crate::coding::{get_len_prefixed, get_u32, get_u64, get_varint, put_len_prefixed, put_u32, put_u64, put_varint};
use crate::iter::ForwardIter;
use crate::key::{self, compare_internal, SeqNo, ValueType};
use crate::source::DataSource;
use crate::{Result, SstError};

/// Where table bytes are appended during building.
///
/// The flush pipeline implements this over a chain of RDMA-registered
/// buffers (posting an async write whenever one fills); compaction
/// implements it over a memory-node region or a plain `Vec<u8>`.
pub trait TableSink {
    /// Append `data` to the table image.
    fn append(&mut self, data: &[u8]) -> Result<()>;
}

impl TableSink for Vec<u8> {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.extend_from_slice(data);
        Ok(())
    }
}

/// Compact index over every record of one table: all internal keys in one
/// blob plus fixed-width per-record slots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordIndex {
    keys: Vec<u8>,
    /// (key_off, key_len, data_off, data_len) per record.
    slots: Vec<(u32, u32, u32, u32)>,
}

impl RecordIndex {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the table has no records.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Internal key of record `i`.
    pub fn key(&self, i: usize) -> &[u8] {
        let (ko, kl, _, _) = self.slots[i];
        &self.keys[ko as usize..(ko + kl) as usize]
    }

    /// `(offset, len)` of record `i` in the remote data image.
    pub fn record(&self, i: usize) -> (u64, usize) {
        let (_, _, off, len) = self.slots[i];
        (u64::from(off), len as usize)
    }

    fn push(&mut self, ikey: &[u8], data_off: u32, data_len: u32) {
        let ko = self.keys.len() as u32;
        self.keys.extend_from_slice(ikey);
        self.slots.push((ko, ikey.len() as u32, data_off, data_len));
    }

    /// Index of the first record with key ≥ `ikey`, or `len()` if none.
    pub fn seek_ge(&self, ikey: &[u8]) -> usize {
        let mut lo = 0;
        let mut hi = self.slots.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if compare_internal(self.key(mid), ikey) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Approximate resident size of the index in compute-node memory.
    pub fn memory_usage(&self) -> usize {
        self.keys.len() + self.slots.len() * 16
    }
}

/// Compute-node-resident metadata for one byte-addressable SSTable.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    /// Per-record index.
    pub index: RecordIndex,
    /// Bloom filter over user keys.
    pub bloom: BloomFilter,
    /// Length of the remote data image in bytes.
    pub data_len: u64,
    /// Number of records.
    pub num_entries: u64,
}

impl TableMeta {
    /// Smallest internal key, if any records exist.
    pub fn smallest(&self) -> Option<&[u8]> {
        (!self.index.is_empty()).then(|| self.index.key(0))
    }

    /// Largest internal key, if any records exist.
    pub fn largest(&self) -> Option<&[u8]> {
        (!self.index.is_empty()).then(|| self.index.key(self.index.len() - 1))
    }

    /// Where record `i` starts in the data image; `data_len` for `i = len()`.
    fn offset_of(&self, i: usize) -> u64 {
        self.index.slots.get(i).map_or(self.data_len, |s| u64::from(s.2))
    }

    /// The index positions of every record of the user keys in `[lo, hi)`
    /// (empty bound = open). Internal keys sort user-ascending,
    /// seq-descending, so a user key's first record is the one at or after
    /// `(user, MAX_SEQ)`.
    pub fn user_range(&self, lo: &[u8], hi: &[u8]) -> std::ops::Range<usize> {
        let first_of = |user: &[u8]| key::with_lookup_key(user, key::MAX_SEQ, |k| self.index.seek_ge(k));
        let start = if lo.is_empty() { 0 } else { first_of(lo) };
        start..if hi.is_empty() { self.index.len() } else { first_of(hi) }
    }

    /// The bytes of the data image that hold `records` — whole records,
    /// found in the index alone.
    pub fn byte_range(&self, records: &std::ops::Range<usize>) -> std::ops::Range<u64> {
        self.offset_of(records.start)..self.offset_of(records.end)
    }

    /// Resolve a point lookup against the compute-resident metadata alone:
    /// either the answer is already known (bloom miss, out of range,
    /// tombstone) or exactly one remote record must be fetched. Separating
    /// the *decision* from the *fetch* lets callers batch many record reads
    /// on one queue pair (multi-get).
    pub fn locate(&self, user_key: &[u8], seq: SeqNo) -> Locate {
        self.locate_hashed(user_key, bloom_hash(user_key), seq)
    }

    /// [`TableMeta::locate`] for a key whose [`bloom_hash`] is `hash`.
    pub fn locate_hashed(&self, user_key: &[u8], hash: u32, seq: SeqNo) -> Locate {
        if !self.bloom.may_contain_hash(hash) {
            return Locate::NotFound;
        }
        let i = key::with_lookup_key(user_key, seq, |lookup| self.index.seek_ge(lookup));
        if i >= self.index.len() {
            return Locate::NotFound;
        }
        let entry_key = self.index.key(i);
        match key::split(entry_key) {
            Some((ukey, _, _)) if ukey != user_key => Locate::NotFound,
            Some((_, _, ValueType::Deletion)) => Locate::Deleted,
            Some((_, _, ValueType::Value)) => {
                let (offset, len) = self.index.record(i);
                Locate::Record { index: i, offset, len }
            }
            None => Locate::NotFound,
        }
    }

    /// Serialize for transport (e.g. in the near-data-compaction RPC reply).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.index.keys.len() + self.index.slots.len() * 16);
        put_u64(&mut out, self.num_entries);
        put_u64(&mut out, self.data_len);
        put_len_prefixed(&mut out, &self.bloom.encode());
        put_len_prefixed(&mut out, &self.index.keys);
        put_u32(&mut out, self.index.slots.len() as u32);
        for &(ko, kl, off, len) in &self.index.slots {
            put_u32(&mut out, ko);
            put_u32(&mut out, kl);
            put_u32(&mut out, off);
            put_u32(&mut out, len);
        }
        out
    }

    /// Deserialize; returns the meta and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(TableMeta, usize)> {
        let num_entries = get_u64(buf, 0)?;
        let data_len = get_u64(buf, 8)?;
        let mut off = 16;
        let (bloom_bytes, n) = get_len_prefixed(buf, off)?;
        off += n;
        let bloom = BloomFilter::decode(bloom_bytes)
            .ok_or_else(|| SstError::Corrupt("bad bloom filter".into()))?;
        let (keys, n) = get_len_prefixed(buf, off)?;
        off += n;
        let count = get_u32(buf, off)? as usize;
        off += 4;
        // Never trust a wire count for pre-allocation.
        let mut slots = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let ko = get_u32(buf, off)?;
            let kl = get_u32(buf, off + 4)?;
            let doff = get_u32(buf, off + 8)?;
            let dlen = get_u32(buf, off + 12)?;
            if (ko + kl) as usize > keys.len() {
                return Err(SstError::Corrupt("index slot beyond key blob".into()));
            }
            slots.push((ko, kl, doff, dlen));
            off += 16;
        }
        if count as u64 != num_entries {
            return Err(SstError::Corrupt("entry count mismatch".into()));
        }
        Ok((
            TableMeta {
                index: RecordIndex { keys: keys.to_vec(), slots },
                bloom,
                data_len,
                num_entries,
            },
            off,
        ))
    }
}

/// The most inputs a traced merge takes: a step has 15 bits for the ordinal.
pub const MAX_MERGE_INPUTS: usize = 1 << 15;

/// Bytes per step in the trace of a merge of `inputs` tables: one while
/// every `ordinal << 1 | kept` fits a byte, else two (little-endian).
fn step_width(inputs: usize) -> usize {
    if inputs <= 128 { 1 } else { 2 }
}

/// Append one step to the trace of a merge of `inputs` tables: input
/// `ordinal`'s next record was consumed and the output has it (`kept`) or not.
pub fn push_merge_step(steps: &mut Vec<u8>, inputs: usize, ordinal: usize, kept: bool) {
    let step = (ordinal << 1 | usize::from(kept)) as u16;
    steps.extend_from_slice(&step.to_le_bytes()[..step_width(inputs)]);
}

impl TableMeta {
    /// The metadata of the tables a merge wrote, rebuilt from how the merge
    /// went: `inputs` are the index records it was given of each input table,
    /// `steps` its trace ([`push_merge_step`]) and `tables` the `(records,
    /// data bytes, bloom filter)` it reports of each output, in order. A kept
    /// record is in the output byte for byte, so its key and length are its
    /// input's and its offset is where the record before it in its table
    /// ends. Trace and reports are untrusted: the trace must consume every
    /// input record exactly once, the kept keys must ascend across the whole
    /// merge, and every table must hold its count and its length exactly.
    /// `kept(input, record, output)` hears of every kept record as the walk
    /// places it — index record `record` of `inputs[input]` is the next record
    /// of output table `output` — so a caller holding the inputs' bytes can
    /// assemble the outputs' in the same pass, if the replay then succeeds.
    pub fn replay_merge(
        inputs: &[(&TableMeta, std::ops::Range<usize>)],
        steps: &[u8],
        tables: impl IntoIterator<Item = (u64, u64, BloomFilter)>,
        mut kept: impl FnMut(usize, usize, usize),
    ) -> Result<Vec<TableMeta>> {
        let corrupt = |what: &str| SstError::Corrupt(format!("merge trace {what}"));
        let width = step_width(inputs.len());
        let sent: usize = inputs.iter().map(|(_, records)| records.len()).sum();
        if steps.len() != sent * width {
            return Err(corrupt("is not a step per input record"));
        }
        let mut cursors: Vec<usize> = inputs.iter().map(|(_, records)| records.start).collect();
        let (mut tables, mut out) = (tables.into_iter(), Vec::new());
        let mut open: Option<TableMeta> = None;
        let mut prev: Option<&[u8]> = None;
        for step in steps.chunks_exact(width) {
            let step = usize::from(step[0]) | step.get(1).map_or(0, |&b| usize::from(b) << 8);
            let (meta, records) = inputs.get(step >> 1).ok_or_else(|| corrupt("names no input"))?;
            let at = cursors[step >> 1];
            if at >= records.end {
                return Err(corrupt("consumes an input past its end"));
            }
            cursors[step >> 1] += 1;
            if step & 1 == 0 {
                continue;
            }
            let (ikey, (_, _, _, len)) = (meta.index.key(at), meta.index.slots[at]);
            if prev.is_some_and(|p| compare_internal(p, ikey) != Ordering::Less) {
                return Err(corrupt("keeps keys out of order"));
            }
            prev = Some(ikey);
            let table = match &mut open {
                Some(table) => table,
                None => {
                    let (num_entries, data_len, bloom) =
                        tables.next().ok_or_else(|| corrupt("keeps more records than the tables hold"))?;
                    let room = usize::try_from(num_entries).unwrap_or(usize::MAX).min(sent);
                    let index = RecordIndex { keys: Vec::with_capacity(room * ikey.len()), slots: Vec::with_capacity(room) };
                    open.insert(TableMeta { index, bloom, data_len, num_entries })
                }
            };
            let offset = table.index.slots.last().map_or(Some(0), |s| s.2.checked_add(s.3));
            let offset = offset.ok_or_else(|| corrupt("fills a table past 4 GiB"))?;
            table.index.push(ikey, offset, len);
            kept(step >> 1, at, out.len());
            if table.index.len() as u64 == table.num_entries {
                if u64::from(offset) + u64::from(len) != table.data_len {
                    return Err(corrupt("disagrees with a table's reported length"));
                }
                out.extend(open.take());
            }
        }
        // A step per record and no input overrun: every input is consumed.
        if open.is_some() || tables.next().is_some() {
            return Err(corrupt("ends before its tables are full"));
        }
        Ok(out)
    }
}

/// Streaming builder for the byte-addressable format.
///
/// Keys must be added in internal-key order. Records are serialized directly
/// into the sink; the index and bloom filter accumulate locally and come out
/// in [`ByteAddrBuilder::finish`] as the [`TableMeta`].
pub struct ByteAddrBuilder<S: TableSink> {
    sink: S,
    offset: u64,
    index: RecordIndex,
    bits_per_key: usize,
    scratch: Vec<u8>,
}

impl<S: TableSink> ByteAddrBuilder<S> {
    /// Start building into `sink` with the given bloom budget.
    pub fn new(sink: S, bits_per_key: usize) -> ByteAddrBuilder<S> {
        ByteAddrBuilder { sink, offset: 0, index: RecordIndex::default(), bits_per_key, scratch: Vec::with_capacity(16) }
    }

    /// Append one record. `ikey` must sort after every previously-added key.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) -> Result<()> {
        debug_assert!(
            self.index.is_empty()
                || compare_internal(self.index.key(self.index.len() - 1), ikey) == Ordering::Less,
            "records must be added in internal-key order"
        );
        self.scratch.clear();
        put_varint(&mut self.scratch, ikey.len() as u64);
        put_varint(&mut self.scratch, value.len() as u64);
        let total = self.scratch.len() + ikey.len() + value.len();
        if self.offset + total as u64 > u64::from(u32::MAX) {
            return Err(SstError::SinkFull);
        }
        self.sink.append(&self.scratch)?;
        self.sink.append(ikey)?;
        self.sink.append(value)?;
        self.index.push(ikey, self.offset as u32, total as u32);
        self.offset += total as u64;
        Ok(())
    }

    /// Current size of the data image.
    pub fn data_len(&self) -> u64 {
        self.offset
    }

    /// Number of records added.
    pub fn num_entries(&self) -> usize {
        self.index.len()
    }

    /// Finish: build the bloom filter over user keys and return the sink and
    /// metadata.
    pub fn finish(self) -> (S, TableMeta) {
        let n = self.index.len();
        let hashes = (0..n).map(|i| bloom_hash(key::user_key(self.index.key(i))));
        let bloom = BloomFilter::build_hashed(hashes, self.bits_per_key);
        let meta = TableMeta {
            num_entries: n as u64,
            data_len: self.offset,
            index: self.index,
            bloom,
        };
        (self.sink, meta)
    }
}

/// The byte range of the value inside one complete record image, after
/// checking that the record carries `expected_ikey` — the key the index
/// promised at that offset. Bytes fetched from remote memory (or kept in a
/// cache) are untrusted until this has passed.
pub fn record_value(buf: &[u8], expected_ikey: &[u8]) -> Result<std::ops::Range<usize>> {
    let (ikey, value, end) = parse_record(buf)?;
    if ikey != expected_ikey {
        return Err(SstError::Corrupt("record key does not match index".into()));
    }
    Ok(end - value.len()..end)
}

/// Parse one record at `buf[0..]`: returns `(ikey, value, record_len)`.
fn parse_record(buf: &[u8]) -> Result<(&[u8], &[u8], usize)> {
    let (klen, n1) = get_varint(buf, 0)?;
    let (vlen, n2) = get_varint(buf, n1)?;
    let kstart = n1 + n2;
    // The lengths are untrusted: a sum that overflows is past any buffer.
    let end = (kstart as u64).checked_add(klen).and_then(|e| e.checked_add(vlen));
    let Some(end) = end.filter(|&e| e <= buf.len() as u64) else {
        return Err(SstError::Corrupt("record extends past buffer".into()));
    };
    let (vstart, end) = (kstart + klen as usize, end as usize);
    Ok((&buf[kstart..vstart], &buf[vstart..end], end))
}

/// Reader over a byte-addressable table.
pub struct ByteAddrReader<S: DataSource> {
    meta: Arc<TableMeta>,
    source: S,
}

/// Outcome of [`TableMeta::locate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locate {
    /// The table holds no visible version of the key.
    NotFound,
    /// The newest visible version is a tombstone (no fetch needed).
    Deleted,
    /// The newest visible version is the record at `offset`/`len`.
    Record {
        /// Index-slot position of the record.
        index: usize,
        /// Offset of the record in the data image.
        offset: u64,
        /// Record length in bytes.
        len: usize,
    },
}

/// Result of a point lookup inside one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableGet {
    /// The key's newest visible version is a live value.
    Found(Vec<u8>),
    /// The key's newest visible version is a deletion tombstone.
    Deleted,
    /// The table holds no visible version of the key.
    NotFound,
}

impl<S: DataSource> ByteAddrReader<S> {
    /// Open a table from its compute-node metadata and a data source.
    pub fn new(meta: Arc<TableMeta>, source: S) -> ByteAddrReader<S> {
        ByteAddrReader { meta, source }
    }

    /// The table's metadata.
    pub fn meta(&self) -> &Arc<TableMeta> {
        &self.meta
    }

    /// Point lookup of `user_key` at snapshot `seq`: bloom probe, index
    /// binary search, then **one** read of exactly one record.
    pub fn get(&self, user_key: &[u8], seq: SeqNo) -> Result<TableGet> {
        match self.meta.locate(user_key, seq) {
            Locate::NotFound => Ok(TableGet::NotFound),
            Locate::Deleted => Ok(TableGet::Deleted),
            Locate::Record { index, offset, len } => {
                let mut buf = vec![0u8; len];
                self.source.read(offset, &mut buf)?;
                let value = record_value(&buf, self.meta.index.key(index))?;
                Ok(TableGet::Found(buf[value].to_vec()))
            }
        }
    }

    /// Sequential iterator over the whole table fetching `prefetch_bytes`
    /// per read (the paper uses multi-MB chunks for range queries, Sec. VI).
    /// The iterator owns a clone of the source and an `Arc` of the metadata,
    /// so it outlives the reader — database scans hold many such iterators
    /// at once.
    pub fn iter(&self, prefetch_bytes: usize) -> ByteAddrIter<S>
    where
        S: Clone,
    {
        ByteAddrIter::from_parts(Arc::clone(&self.meta), self.source.clone(), prefetch_bytes)
    }
}

/// The fetch window of a sorted run that has fetched nothing yet. 16 KiB is
/// about the payload whose wire time equals one base latency on the EDR
/// profile (1.3 µs against 1.6 µs): a first chunk this size costs little
/// more than the round trip every fetch pays, whatever the reader then does.
const FIRST_WINDOW: u64 = 16 << 10;

/// Chunk-fetching iterator over a byte-addressable table (owns its metadata
/// handle and data source).
///
/// One rule sizes every fetch: the *window*, never past the *limit*, in
/// whole records and at least the one under the cursor. The limit is the
/// start of the first record the scan does not want
/// ([`ByteAddrIter::scan_to`]) — the index knows it before a byte moves.
/// The window is [`FIRST_WINDOW`] plus what the sorted run this table
/// belongs to has fetched so far, capped by the ceiling: it doubles per
/// refill, so a reader that stops early has fetched little and one that
/// sweeps reaches the ceiling's MB-sized chunks within a few refills.
pub struct ByteAddrIter<S: DataSource> {
    meta: Arc<TableMeta>,
    source: S,
    /// Current record index, `usize::MAX` = before first / invalid.
    idx: usize,
    buf: Vec<u8>,
    buf_start: u64,
    key_range: std::ops::Range<usize>,
    val_range: std::ops::Range<usize>,
    /// The most one fetch may ask for.
    ceiling: usize,
    /// The first record outside the scan (`len()`: none).
    hi: usize,
    /// Bytes the sorted run has fetched so far: the state of its window.
    fetched: u64,
}

impl<S: DataSource> ByteAddrIter<S> {
    /// Iterate a whole table directly from its parts, `prefetch_bytes` per
    /// fetch from the first one (a sweep wants every byte).
    pub fn from_parts(meta: Arc<TableMeta>, source: S, prefetch_bytes: usize) -> ByteAddrIter<S> {
        ByteAddrIter {
            hi: meta.index.len(),
            meta,
            source,
            idx: usize::MAX,
            buf: Vec::new(),
            buf_start: 0,
            key_range: 0..0,
            val_range: 0..0,
            ceiling: prefetch_bytes.max(1),
            fetched: prefetch_bytes as u64,
        }
    }

    /// Restrict the iterator to user keys below `end` (empty = unbounded)
    /// and open its window where a sorted run that has fetched `fetched`
    /// bytes stands: 0 for a scan that may stop anywhere, the ceiling for
    /// one whose bytes are known to be wanted.
    #[must_use]
    pub fn scan_to(mut self, end: &[u8], fetched: u64) -> ByteAddrIter<S> {
        if !end.is_empty() {
            // Seq-descending order: the first record of user key ≥ `end`.
            self.hi = key::with_lookup_key(end, key::MAX_SEQ, |k| self.meta.index.seek_ge(k));
        }
        self.fetched = fetched;
        self
    }

    /// What a seek to `ikey` (`None`: to the first record) wants of this
    /// table, decided from the index alone: the byte range from the first
    /// record at or after `ikey` to the limit, and the length of the first
    /// chunk of it the seek would fetch — which a caller may fetch itself,
    /// together with other tables' chunks, and hand over through
    /// [`ByteAddrIter::prime`]. `None`: nothing in range, nothing to fetch.
    pub fn plan(&self, ikey: Option<&[u8]>) -> Result<Option<(std::ops::Range<u64>, usize)>> {
        let lo = ikey.map_or(0, |k| self.meta.index.seek_ge(k));
        if lo >= self.hi {
            return Ok(None);
        }
        let wanted = self.meta.offset_of(lo)..self.meta.offset_of(self.hi);
        Ok(Some((wanted, self.chunk_len(lo)?)))
    }

    /// Adopt `chunk`, fetched by the caller from `offset` of the table.
    pub fn prime(&mut self, offset: u64, chunk: Vec<u8>) {
        self.fetched = self.fetched.saturating_add(chunk.len() as u64);
        (self.buf, self.buf_start) = (chunk, offset);
    }

    /// How much to fetch for record `i`, by the rule above. The index came
    /// in a compaction reply: an entry it places beyond the limit is corrupt.
    fn chunk_len(&self, i: usize) -> Result<usize> {
        let (off, len) = self.meta.index.record(i);
        let (end, limit) = (off + len as u64, self.meta.offset_of(self.hi));
        let window = FIRST_WINDOW.saturating_add(self.fetched).min(self.ceiling as u64);
        let reach = off.saturating_add(window);
        let stop = if limit <= reach {
            limit
        } else {
            // The start of the last record that begins inside the window.
            let slots = &self.meta.index.slots[i + 1..self.hi];
            let inside = slots.partition_point(|s| u64::from(s.2) <= reach);
            self.meta.offset_of(i + inside).max(end)
        };
        if end > stop || stop > limit || limit > self.meta.data_len {
            return Err(SstError::Corrupt("index entry beyond its table".into()));
        }
        Ok((stop - off) as usize)
    }

    /// Make record `i` current (no record is, when it lies outside the scan
    /// and after an error), fetching the chunk that starts with it unless
    /// the buffer holds it. The bytes are untrusted: they must parse as the
    /// one record the index describes.
    fn load_at(&mut self, i: usize) -> Result<()> {
        self.idx = usize::MAX;
        if i >= self.hi {
            return Ok(());
        }
        let (off, len) = self.meta.index.record(i);
        if off < self.buf_start || off + len as u64 > self.buf_start + self.buf.len() as u64 {
            let want = self.chunk_len(i)?;
            // Zero-fills only what the buffer grows by.
            self.buf.resize(want, 0);
            self.source.read(off, &mut self.buf)?;
            self.buf_start = off;
            self.fetched = self.fetched.saturating_add(want as u64);
        }
        let rel = (off - self.buf_start) as usize;
        let record = &self.buf[rel..rel + len];
        let (klen, n1) = get_varint(record, 0)?;
        let (vlen, n2) = get_varint(record, n1)?;
        let parsed = klen.checked_add(vlen).and_then(|kv| kv.checked_add((n1 + n2) as u64));
        if parsed != Some(len as u64) {
            return Err(SstError::Corrupt("record length does not match index".into()));
        }
        let vstart = rel + n1 + n2 + klen as usize;
        self.key_range = rel + n1 + n2..vstart;
        self.val_range = vstart..rel + len;
        self.idx = i;
        Ok(())
    }
}

impl<S: DataSource> ForwardIter for ByteAddrIter<S> {
    fn valid(&self) -> bool {
        self.idx < self.hi
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
        self.load_at(self.idx + 1)
    }

    fn seek(&mut self, ikey: &[u8]) -> Result<()> {
        self.load_at(self.meta.index.seek_ge(ikey))
    }

    fn seek_to_first(&mut self) -> Result<()> {
        self.load_at(0)
    }
}

/// Index-free sequential iterator over the records of a byte-addressable
/// table, parsed where they lie.
///
/// Records are self-describing (varint lengths), so a reader that has the
/// raw bytes — the memory node during near-data compaction — can scan a
/// table, or any run of whole records of one, without the compute-node-
/// resident index. `seek` walks forward from the first byte: the requester
/// clips each input to its sub-range by the index, so the walk is short.
pub struct RawTableIter<'a> {
    data: &'a [u8],
    /// Offset of the current record, and of the byte after it.
    off: usize,
    next_off: usize,
    key: &'a [u8],
    value: &'a [u8],
    valid: bool,
}

impl<'a> RawTableIter<'a> {
    /// Iterate the records that fill `data`.
    pub fn new(data: &'a [u8]) -> RawTableIter<'a> {
        RawTableIter { data, off: 0, next_off: 0, key: &[], value: &[], valid: false }
    }

    /// The current record as it lies in the data, lengths included.
    pub fn record(&self) -> &'a [u8] {
        &self.data[self.off..self.next_off]
    }

    /// Make the record at `off` current; no record is, at the end of the
    /// data and after an error.
    fn parse_at(&mut self, off: usize) -> Result<()> {
        self.valid = false;
        if off < self.data.len() {
            let (key, value, len) = parse_record(&self.data[off..])?;
            (self.key, self.value, self.off, self.next_off, self.valid) = (key, value, off, off + len, true);
        }
        Ok(())
    }
}

impl ForwardIter for RawTableIter<'_> {
    fn valid(&self) -> bool {
        self.valid
    }

    fn key(&self) -> &[u8] {
        self.key
    }

    fn value(&self) -> &[u8] {
        self.value
    }

    fn next(&mut self) -> Result<()> {
        debug_assert!(self.valid);
        self.parse_at(self.next_off)
    }

    fn seek(&mut self, ikey: &[u8]) -> Result<()> {
        self.seek_to_first()?;
        while self.valid && compare_internal(self.key, ikey) == Ordering::Less {
            self.next()?;
        }
        Ok(())
    }

    fn seek_to_first(&mut self) -> Result<()> {
        self.parse_at(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::InternalKey;
    use crate::source::SliceSource;

    fn build_table(n: usize) -> (Vec<u8>, Arc<TableMeta>) {
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for i in 0..n {
            let ik = InternalKey::new(format!("key{i:06}").as_bytes(), 100, ValueType::Value);
            b.add(ik.as_bytes(), format!("value-{i}").as_bytes()).unwrap();
        }
        let (data, meta) = b.finish();
        (data, Arc::new(meta))
    }

    #[test]
    fn build_and_point_get() {
        let (data, meta) = build_table(1000);
        let r = ByteAddrReader::new(meta, SliceSource(data));
        assert_eq!(r.get(b"key000500", 200).unwrap(), TableGet::Found(b"value-500".to_vec()));
        assert_eq!(r.get(b"key999999", 200).unwrap(), TableGet::NotFound);
        // Snapshot below the write seq: invisible.
        assert_eq!(r.get(b"key000500", 50).unwrap(), TableGet::NotFound);
    }

    #[test]
    fn tombstones_surface_as_deleted() {
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        let ik = InternalKey::new(b"gone", 9, ValueType::Deletion);
        b.add(ik.as_bytes(), b"").unwrap();
        let (data, meta) = b.finish();
        let r = ByteAddrReader::new(Arc::new(meta), SliceSource(data));
        assert_eq!(r.get(b"gone", 100).unwrap(), TableGet::Deleted);
    }

    #[test]
    fn newest_visible_version_wins() {
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        // Internal order: seq desc within a user key.
        for (seq, val) in [(30u64, "v30"), (20, "v20"), (10, "v10")] {
            let ik = InternalKey::new(b"k", seq, ValueType::Value);
            b.add(ik.as_bytes(), val.as_bytes()).unwrap();
        }
        let (data, meta) = b.finish();
        let r = ByteAddrReader::new(Arc::new(meta), SliceSource(data));
        assert_eq!(r.get(b"k", 25).unwrap(), TableGet::Found(b"v20".to_vec()));
        assert_eq!(r.get(b"k", 31).unwrap(), TableGet::Found(b"v30".to_vec()));
        assert_eq!(r.get(b"k", 10).unwrap(), TableGet::Found(b"v10".to_vec()));
        assert_eq!(r.get(b"k", 9).unwrap(), TableGet::NotFound);
    }

    #[test]
    fn iterator_scans_in_order_with_small_prefetch() {
        let (data, meta) = build_table(500);
        let r = ByteAddrReader::new(meta, SliceSource(data));
        // Tiny prefetch forces many chunk reloads; order must still hold.
        let mut it = r.iter(64);
        it.seek_to_first().unwrap();
        let mut count = 0;
        let mut last: Option<Vec<u8>> = None;
        while it.valid() {
            let k = it.key().to_vec();
            if let Some(prev) = &last {
                assert!(compare_internal(prev, &k) == Ordering::Less);
            }
            last = Some(k);
            count += 1;
            it.next().unwrap();
        }
        assert_eq!(count, 500);
    }

    #[test]
    fn iterator_seek_lands_on_lower_bound() {
        let (data, meta) = build_table(100);
        let r = ByteAddrReader::new(meta, SliceSource(data));
        let mut it = r.iter(1 << 20);
        let target = InternalKey::for_lookup(b"key000042", 1000);
        it.seek(target.as_bytes()).unwrap();
        assert!(it.valid());
        assert_eq!(key::user_key(it.key()), b"key000042");
        assert_eq!(it.value(), b"value-42");
        let target = InternalKey::for_lookup(b"zzz", 1000);
        it.seek(target.as_bytes()).unwrap();
        assert!(!it.valid());
    }

    /// Iterate to the end or the first error; the records passed on the way.
    fn sweep<S: DataSource>(mut it: ByteAddrIter<S>) -> (usize, Result<()>) {
        let (mut n, mut r) = (0, it.seek_to_first());
        while r.is_ok() && it.valid() {
            n += 1;
            r = it.next();
        }
        (n, r)
    }

    #[test]
    fn iterator_rejects_an_index_or_bytes_that_disagree() {
        let (data, meta) = build_table(50);
        let iter = |meta: TableMeta, data: &[u8], prefetch| {
            ByteAddrIter::from_parts(Arc::new(meta), SliceSource(data.to_vec()), prefetch)
        };
        for prefetch in [1, 64, 1 << 20] {
            assert_eq!(sweep(iter((*meta).clone(), &data, prefetch)), (50, Ok(())));
            // The index places its last records beyond the table.
            let mut short = (*meta).clone();
            short.data_len -= 5;
            assert!(matches!(sweep(iter(short, &data, prefetch)).1, Err(SstError::Corrupt(_))));
            // One entry points far outside it.
            let mut wild = (*meta).clone();
            wild.index.slots[20].2 = u32::MAX - 3;
            let (n, r) = sweep(iter(wild, &data, prefetch));
            assert!(n <= 20 && matches!(r, Err(SstError::Corrupt(_))), "{n} {r:?}");
            // The bytes of record 7 carry another length than the index.
            let mut bad = data.clone();
            bad[meta.index.record(7).0 as usize] += 1;
            let (n, r) = sweep(iter((*meta).clone(), &bad, prefetch));
            assert!(n == 7 && matches!(r, Err(SstError::Corrupt(_))), "{n} {r:?}");
            // A limited iterator that stops before it never looks.
            let end = key::user_key(meta.index.key(7));
            assert_eq!(sweep(iter((*meta).clone(), &bad, prefetch).scan_to(end, 0)), (7, Ok(())));
        }
    }

    #[test]
    fn meta_encode_decode_roundtrip() {
        let (_, meta) = build_table(257);
        let enc = meta.encode();
        let (dec, consumed) = TableMeta::decode(&enc).unwrap();
        assert_eq!(consumed, enc.len());
        assert_eq!(&dec, meta.as_ref());
        assert_eq!(dec.smallest().unwrap(), meta.smallest().unwrap());
        assert_eq!(dec.largest().unwrap(), meta.largest().unwrap());
    }

    #[test]
    fn meta_decode_rejects_corruption() {
        let (_, meta) = build_table(10);
        let mut enc = meta.encode();
        enc.truncate(enc.len() - 3);
        assert!(TableMeta::decode(&enc).is_err());
    }

    /// Two tables merged by hand — a(t0) kept, a(t1) dropped, b(t1) kept,
    /// c(t0) kept — and cut after two records: the replay is what a builder
    /// makes of each output, and every way of lying about it is an error.
    #[test]
    fn replay_merge_rebuilds_the_outputs_metadata() {
        let table = |entries: &[(&str, u64, &str)]| {
            let mut b = ByteAddrBuilder::new(Vec::new(), 10);
            for (k, seq, v) in entries {
                b.add(InternalKey::new(k.as_bytes(), *seq, ValueType::Value).as_bytes(), v.as_bytes()).unwrap();
            }
            b.finish().1
        };
        let (t0, t1) = (table(&[("a", 9, "new"), ("c", 9, "ocean")]), table(&[("a", 3, "older!"), ("b", 3, "be")]));
        let (o0, o1) = (table(&[("a", 9, "new"), ("b", 3, "be")]), table(&[("c", 9, "ocean")]));
        let inputs = [(&t0, 0..2), (&t1, 0..2)];
        let mut steps = Vec::new();
        for (ordinal, kept) in [(0, true), (1, false), (1, true), (0, true)] {
            push_merge_step(&mut steps, inputs.len(), ordinal, kept);
        }
        assert_eq!(steps, [1, 2, 3, 1]);
        let report = |m: &TableMeta| (m.num_entries, m.data_len, m.bloom.clone());
        let replay = |steps: &[u8], tables: &[(u64, u64, BloomFilter)]| TableMeta::replay_merge(&inputs, steps, tables.to_vec(), |_, _, _| ());
        let good = [report(&o0), report(&o1)];
        assert_eq!(replay(&steps, &good).unwrap(), [o0.clone(), o1.clone()]);
        // Every kept record is reported as (input, record, output table).
        let mut heard = Vec::new();
        TableMeta::replay_merge(&inputs, &steps, good.to_vec(), |i, at, o| heard.push((i, at, o))).unwrap();
        assert_eq!(heard, [(0, 0, 0), (1, 1, 0), (0, 1, 1)]);
        // A clip of an input starts its cursor inside the index.
        let clipped = [(&t0, 1..2), (&t1, 1..2)];
        let both = table(&[("b", 3, "be"), ("c", 9, "ocean")]);
        assert_eq!(TableMeta::replay_merge(&clipped, &[3, 1], [report(&both)], |_, _, _| ()).unwrap(), [both]);
        let err = |steps: &[u8], tables: &[(u64, u64, BloomFilter)]| match replay(steps, tables) {
            Err(SstError::Corrupt(m)) => m,
            other => panic!("accepted: {other:?}"),
        };
        assert!(err(&[1, 2, 3, 5], &good).contains("names no input"));
        assert!(err(&[1, 2, 3, 3], &good).contains("past its end"));
        assert!(err(&[1, 2, 3, 0], &good).contains("before its tables are full"));
        assert!(err(&[1, 2, 3], &good).contains("not a step per input record"));
        assert!(err(&[1, 2, 3, 1, 0], &good).contains("not a step per input record"));
        assert!(err(&[1, 3, 3, 1], &good).contains("reported length"), "a dropped record kept");
        assert!(err(&[1, 1, 3, 3], &[(4, 0, o0.bloom.clone())]).contains("out of order"));
        assert!(err(&steps, &good[..1]).contains("more records than the tables hold"));
        assert!(err(&steps, &[good[0].clone(), good[1].clone(), good[1].clone()]).contains("before its tables are full"));
        assert!(err(&steps, &[(2, o0.data_len + 1, o0.bloom.clone()), good[1].clone()]).contains("reported length"));
        assert!(err(&steps, &[(0, 0, o0.bloom.clone()), good[0].clone(), good[1].clone()]).contains("before its tables are full"));
        // More than 128 inputs: two bytes a step.
        let many: Vec<(&TableMeta, std::ops::Range<usize>)> = (0..200).map(|i| (if i == 150 { &o1 } else { &t0 }, 0..usize::from(i == 150))).collect();
        let mut wide = Vec::new();
        push_merge_step(&mut wide, many.len(), 150, true);
        assert_eq!(wide, [0x2D, 0x01]);
        assert_eq!(TableMeta::replay_merge(&many, &wide, [report(&o1)], |_, _, _| ()).unwrap(), std::slice::from_ref(&o1));
        assert!(TableMeta::replay_merge(&many, &wide[..1], [report(&o1)], |_, _, _| ()).is_err(), "half a step");
    }

    #[test]
    fn empty_table() {
        let b = ByteAddrBuilder::new(Vec::new(), 10);
        let (data, meta) = b.finish();
        assert!(data.is_empty());
        assert_eq!(meta.num_entries, 0);
        assert!(meta.smallest().is_none());
        let r = ByteAddrReader::new(Arc::new(meta), SliceSource(data));
        assert_eq!(r.get(b"k", 1).unwrap(), TableGet::NotFound);
        let mut it = r.iter(1024);
        it.seek_to_first().unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn raw_iter_scans_without_index() {
        let (data, _) = build_table(400);
        let mut it = RawTableIter::new(&data);
        it.seek_to_first().unwrap();
        let mut n = 0;
        while it.valid() {
            assert_eq!(key::user_key(it.key()), format!("key{n:06}").as_bytes());
            assert_eq!(it.value(), format!("value-{n}").as_bytes());
            n += 1;
            it.next().unwrap();
        }
        assert_eq!(n, 400);
    }

    #[test]
    fn raw_iter_seek_linear() {
        let (data, _) = build_table(50);
        let mut it = RawTableIter::new(&data);
        it.seek(InternalKey::for_lookup(b"key000030", 1000).as_bytes()).unwrap();
        assert!(it.valid());
        assert_eq!(key::user_key(it.key()), b"key000030");
    }

    #[test]
    fn raw_iter_empty_table() {
        let mut it = RawTableIter::new(&[]);
        it.seek_to_first().unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn raw_iter_rejects_truncated_table() {
        let (mut data, _) = build_table(5);
        data.truncate(data.len() - 3);
        let mut it = RawTableIter::new(&data);
        // The truncation bites on some record before the end.
        let mut r = it.seek_to_first();
        while r.is_ok() && it.valid() {
            r = it.next();
        }
        assert!(r.is_err());
    }

    #[test]
    fn locate_separates_decision_from_fetch() {
        let (_, meta) = build_table(100);
        match meta.locate(b"key000042", 1000) {
            Locate::Record { offset, len, .. } => {
                assert!(len > 0);
                assert!(offset + len as u64 <= meta.data_len);
            }
            other => panic!("expected a record, got {other:?}"),
        }
        assert_eq!(meta.locate(b"missing-key", 1000), Locate::NotFound);
        assert_eq!(meta.locate(b"key000042", 1), Locate::NotFound); // below snapshot
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        b.add(InternalKey::new(b"gone", 5, ValueType::Deletion).as_bytes(), b"").unwrap();
        let (_, m2) = b.finish();
        assert_eq!(m2.locate(b"gone", 100), Locate::Deleted);
    }

    #[test]
    fn record_index_seek_ge() {
        let (_, meta) = build_table(10);
        let probe = InternalKey::for_lookup(b"key000003", 1_000_000);
        assert_eq!(meta.index.seek_ge(probe.as_bytes()), 3);
        let probe = InternalKey::for_lookup(b"key0000031", 1_000_000);
        assert_eq!(meta.index.seek_ge(probe.as_bytes()), 4);
        let probe = InternalKey::for_lookup(b"zzzz", 0);
        assert_eq!(meta.index.seek_ge(probe.as_bytes()), 10);
    }
}
