//! Property tests: both SSTable formats must round-trip arbitrary sorted
//! key-value sets, and the compaction merge must match a model.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use dlsm_sstable::block::{BlockTableBuilder, BlockTableReader};
use dlsm_sstable::byte_addr::{push_merge_step, ByteAddrBuilder, ByteAddrIter, ByteAddrReader, TableGet, TableMeta};
use dlsm_sstable::iter::{collect_all, ForwardIter, MergingIter, VecIter};
use dlsm_sstable::key::{self, InternalKey, ValueType, MAX_SEQ};
use dlsm_sstable::merge::{CompactionIter, DropPolicy, MergeConfig};
use dlsm_sstable::source::{DataSource, SliceSource};
use proptest::prelude::*;

/// Sorted unique user keys with values (and a deterministic seq per entry).
fn entries_strategy() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    prop::collection::btree_map(
        prop::collection::vec(any::<u8>(), 1..24),
        prop::collection::vec(any::<u8>(), 0..64),
        1..120,
    )
    .prop_map(|m| m.into_iter().collect())
}

fn ikey(user: &[u8], seq: u64) -> Vec<u8> {
    InternalKey::new(user, seq, ValueType::Value).into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn byte_addr_roundtrip(entries in entries_strategy()) {
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for (i, (k, v)) in entries.iter().enumerate() {
            b.add(&ikey(k, 100 + i as u64), v).unwrap();
        }
        let (data, meta) = b.finish();
        // Metadata round-trips through its wire encoding.
        let (meta2, _) = TableMeta::decode(&meta.encode()).unwrap();
        prop_assert_eq!(&meta2, &meta);
        let reader = ByteAddrReader::new(Arc::new(meta), SliceSource(data));
        for (k, v) in &entries {
            prop_assert_eq!(reader.get(k, MAX_SEQ).unwrap(), TableGet::Found(v.clone()));
        }
        // Full iteration returns everything in order.
        let mut it = reader.iter(97); // deliberately awkward prefetch size
        let all = collect_all(&mut it).unwrap();
        prop_assert_eq!(all.len(), entries.len());
        for ((got_k, got_v), (k, v)) in all.iter().zip(entries.iter()) {
            prop_assert_eq!(key::user_key(got_k), k.as_slice());
            prop_assert_eq!(got_v, v);
        }
    }

    #[test]
    fn block_roundtrip(entries in entries_strategy(), block_size in prop::sample::select(vec![0usize, 64, 512, 4096])) {
        let mut b = BlockTableBuilder::new(Vec::new(), block_size, 10);
        for (i, (k, v)) in entries.iter().enumerate() {
            b.add(&ikey(k, 100 + i as u64), v).unwrap();
        }
        let (data, total) = b.finish().unwrap();
        prop_assert_eq!(data.len() as u64, total);
        let reader = BlockTableReader::open(SliceSource(data)).unwrap();
        prop_assert_eq!(reader.num_entries(), entries.len() as u64);
        for (k, v) in &entries {
            prop_assert_eq!(reader.get(k, MAX_SEQ).unwrap(), TableGet::Found(v.clone()));
        }
        let mut it = reader.iter(777);
        let all = collect_all(&mut it).unwrap();
        prop_assert_eq!(all.len(), entries.len());
    }

    /// The compaction merge over multi-version inputs equals the obvious
    /// model: newest version per user key wins; tombstones hide keys at the
    /// bottom level.
    #[test]
    fn compaction_merge_matches_model(
        ops in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 1..8), any::<bool>(), prop::collection::vec(any::<u8>(), 0..16)),
            1..200,
        )
    ) {
        let model: BTreeMap<Vec<u8>, Option<Vec<u8>>> =
            ops.iter().map(|(k, is_put, v)| (k.clone(), is_put.then(|| v.clone()))).collect();
        let tables = tables_from_ops(&ops, 40);
        let children: Vec<VecIter> = tables.into_iter().map(VecIter::new).collect();
        let mut it = CompactionIter::new(
            MergingIter::new(children),
            MergeConfig { smallest_snapshot: MAX_SEQ, drop_deletions: true },
        );
        it.seek_to_first().unwrap();
        let mut got: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        while it.valid() {
            let (u, _, t) = key::split(it.key()).unwrap();
            prop_assert_eq!(t, ValueType::Value, "tombstones must be dropped at bottom level");
            prop_assert!(got.insert(u.to_vec(), it.value().to_vec()).is_none(), "duplicate user key");
            it.next().unwrap();
        }
        let want: BTreeMap<Vec<u8>, Vec<u8>> =
            model.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))).collect();
        prop_assert_eq!(got, want);
    }

    /// A merge traced a step per input record and replayed over the inputs'
    /// indexes (what a near-data compaction's requester does with its reply)
    /// yields the metadata a builder makes of the merged records — wherever
    /// the outputs are cut, whatever the horizon, and with the inputs given
    /// whole or clipped to a sub-range by their own indexes. The replay's
    /// report of the kept records, applied to the inputs' images, gathers the
    /// outputs' bytes. Runs of one key make more than 128 inputs: 2-byte steps.
    #[test]
    fn merge_trace_replays_to_the_builders_metadata(
        ops in prop::collection::vec(
            (prop::collection::vec(0u8..6, 1..4), any::<bool>(), prop::collection::vec(any::<u8>(), 0..200)),
            1..300,
        ),
        cut in 1usize..60,
        drop_deletions in any::<bool>(),
        smallest_snapshot in (any::<bool>(), 0u64..320).prop_map(|(none, seq)| if none { MAX_SEQ } else { seq }),
        (lo, hi) in (prop::collection::vec(0u8..6, 0..3), prop::collection::vec(0u8..6, 0..3)),
        run_len in prop::sample::select(vec![1usize, 40]),
    ) {
        let inputs: Vec<(Vec<u8>, TableMeta)> = tables_from_ops(&ops, run_len)
            .iter()
            .map(|run| {
                let mut b = ByteAddrBuilder::new(Vec::new(), 10);
                run.iter().for_each(|(k, v)| b.add(k, v).unwrap());
                b.finish()
            })
            .collect();
        // Each input's records in `[lo, hi)`, as bytes for the merge and as
        // index positions for the replay; inputs with none are left out.
        let clips: Vec<(&TableMeta, std::ops::Range<usize>)> = inputs
            .iter()
            .map(|(_, meta)| (meta, meta.user_range(&lo, &hi)))
            .filter(|(_, records)| !records.is_empty())
            .collect();
        let datas: Vec<&[u8]> = inputs
            .iter()
            .filter(|(_, meta)| !meta.user_range(&lo, &hi).is_empty())
            .map(|(data, meta)| {
                let bytes = meta.byte_range(&meta.user_range(&lo, &hi));
                &data[bytes.start as usize..bytes.end as usize]
            })
            .collect();
        let mut merge = MergingIter::new(datas.iter().map(|d| dlsm_sstable::byte_addr::RawTableIter::new(d)).collect());
        let mut policy = DropPolicy::new(MergeConfig { smallest_snapshot, drop_deletions });
        let (mut steps, mut built, mut open) = (Vec::new(), Vec::new(), ByteAddrBuilder::new(Vec::new(), 10));
        merge.seek_to_first().unwrap();
        while let Some((ordinal, child)) = merge.leader() {
            let kept = !policy.drops(child.key());
            push_merge_step(&mut steps, clips.len(), ordinal, kept);
            if kept {
                if open.num_entries() == cut {
                    built.push(std::mem::replace(&mut open, ByteAddrBuilder::new(Vec::new(), 10)).finish());
                }
                open.add(child.key(), child.value()).unwrap();
                prop_assert_eq!(child.record().len() as u64, record_len(key::user_key(child.key()), child.value()));
            }
            merge.next().unwrap();
        }
        if open.num_entries() > 0 {
            built.push(open.finish());
        }
        let reported = || built.iter().map(|(_, m)| (m.num_entries, m.data_len, m.bloom.clone()));
        let images: Vec<&Vec<u8>> = inputs.iter().filter(|(_, meta)| !meta.user_range(&lo, &hi).is_empty()).map(|(data, _)| data).collect();
        let mut gathered = vec![Vec::new(); built.len()];
        let gather = |input: usize, at: usize, output: usize| {
            let (offset, len) = clips[input].0.index.record(at);
            gathered[output].extend_from_slice(&images[input][offset as usize..offset as usize + len]);
        };
        let replayed = TableMeta::replay_merge(&clips, &steps, reported(), gather).unwrap();
        prop_assert_eq!(replayed.len(), built.len());
        for ((got, bytes), (data, want)) in replayed.iter().zip(&gathered).zip(&built) {
            prop_assert_eq!(got, want);
            prop_assert_eq!(bytes, data);
        }
        // Any one step changed, dropped or added is noticed.
        if !steps.is_empty() {
            let at = cut % steps.len();
            let mut flipped = steps.clone();
            flipped[at] ^= 1;
            prop_assert!(TableMeta::replay_merge(&clips, &flipped, reported(), |_, _, _| ()).is_err(), "kept bit {} flipped", at);
            let mut short = steps.clone();
            short.remove(at);
            prop_assert!(TableMeta::replay_merge(&clips, &short, reported(), |_, _, _| ()).is_err(), "step {} removed", at);
            let mut long = steps.clone();
            long.insert(at, steps[at]);
            prop_assert!(TableMeta::replay_merge(&clips, &long, reported(), |_, _, _| ()).is_err(), "step {} doubled", at);
        }
    }
}

/// Wraps a source and counts every fetch, to prove the byte-addressable
/// format's headline property (paper Sec. VI): a point read costs exactly
/// one fetch of exactly the record's bytes — never a block, never a second
/// round trip — and a miss costs zero fetches (the compute-side index is
/// exact, not probabilistic).
struct CountingSource<S> {
    inner: S,
    /// `(offset, len)` of every fetch, in order.
    log: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl<S: DataSource> DataSource for CountingSource<S> {
    fn read(&self, offset: u64, dst: &mut [u8]) -> dlsm_sstable::Result<()> {
        self.log.borrow_mut().push((offset, dst.len() as u64));
        self.inner.read(offset, dst)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// Encoded size of one record.
fn record_len(user_key: &[u8], value: &[u8]) -> u64 {
    let (ikey_len, value_len) = (user_key.len() as u64 + 8, value.len() as u64);
    varint_len(ikey_len) + varint_len(value_len) + ikey_len + value_len
}

fn varint_len(mut x: u64) -> u64 {
    let mut n = 1;
    while x >= 0x80 {
        x >>= 7;
        n += 1;
    }
    n
}

/// Keys and values across the extremes: 1-byte to max-length (4 KiB) keys,
/// zero-length to multi-KiB values.
fn extreme_entries_strategy() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    prop::collection::btree_map(
        prop::collection::vec(any::<u8>(), 1..300),
        prop::collection::vec(any::<u8>(), 0..600),
        1..40,
    )
    .prop_map(|m| {
        let mut entries: BTreeMap<Vec<u8>, Vec<u8>> = m;
        // Deterministic edge cases alongside the arbitrary ones: a
        // max-length key with a zero-length value, a 1-byte key with a
        // large value, and an empty-value short key.
        entries.insert(vec![0xFF; 4096], Vec::new());
        entries.insert(vec![0x00], vec![0xAB; 4096]);
        entries.insert(b"e".to_vec(), Vec::new());
        entries.into_iter().collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Byte-addressable point reads: every present key round-trips in
    /// exactly one fetch of exactly the record's encoded bytes; every
    /// absent probe costs zero fetches.
    #[test]
    fn byte_addr_point_read_is_one_exact_fetch(entries in extreme_entries_strategy()) {
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for (i, (k, v)) in entries.iter().enumerate() {
            b.add(&ikey(k, 100 + i as u64), v).unwrap();
        }
        let (data, meta) = b.finish();
        let log = Rc::new(RefCell::new(Vec::new()));
        let source = CountingSource { inner: SliceSource(data), log: Rc::clone(&log) };
        let reader = ByteAddrReader::new(Arc::new(meta), source);
        for (k, v) in &entries {
            log.borrow_mut().clear();
            prop_assert_eq!(reader.get(k, MAX_SEQ).unwrap(), TableGet::Found(v.clone()));
            prop_assert_eq!(
                log.borrow().iter().map(|r| r.1).collect::<Vec<_>>(),
                vec![record_len(k, v)],
                "a point read of a present key is one fetch of exactly the record's bytes"
            );
        }
        // Probes for keys not in the table never touch the source: the
        // per-record index is exact, so a miss is decided compute-side.
        let present: std::collections::BTreeSet<&[u8]> =
            entries.iter().map(|(k, _)| k.as_slice()).collect();
        log.borrow_mut().clear();
        for (k, _) in &entries {
            let mut absent = k.clone();
            absent.push(0x01); // strictly longer sibling, never inserted
            if present.contains(absent.as_slice()) {
                continue;
            }
            prop_assert_eq!(reader.get(&absent, MAX_SEQ).unwrap(), TableGet::NotFound);
            prop_assert!(log.borrow().is_empty(), "a miss must cost zero fetches");
        }
    }

    /// A scan's iterator (DESIGN.md §5.11): limited to `end` it yields what
    /// an unlimited one yields below `end`; it never reads past the limit
    /// nor a byte twice; every fetch is the run's window — 16 KiB plus what
    /// was fetched before, never above the ceiling — in whole records; and
    /// handing it its first chunk changes nothing but who fetched it.
    #[test]
    fn limited_iterator_fetches_its_range_once(
        versions in prop::collection::btree_map(
            prop::collection::vec(0u8..4, 1..4),
            prop::collection::vec((any::<bool>(), prop::collection::vec(any::<u8>(), 0..1500)), 1..4),
            1..60,
        ),
        start in prop::collection::vec(0u8..4, 0..4),
        end in prop::collection::vec(0u8..4, 0..4),
        snapshot in 0u64..40,
        (ceiling_log2, ceiling_frac) in (0u32..21, 0usize..1024),
        ramped in any::<bool>(),
    ) {
        // Versions of a user key newest first, as internal keys order them.
        let mut records: Vec<(Vec<u8>, u64, Vec<u8>)> = Vec::new();
        let mut b = ByteAddrBuilder::new(Vec::new(), 10);
        for (user, vs) in &versions {
            for (age, (is_put, value)) in vs.iter().enumerate() {
                let seq = 10 * (vs.len() - age) as u64;
                let (vt, value) = if *is_put { (ValueType::Value, &value[..]) } else { (ValueType::Deletion, &[][..]) };
                b.add(InternalKey::new(user, seq, vt).as_bytes(), value).unwrap();
                records.push((user.clone(), seq, value.to_vec()));
            }
        }
        let (data, meta) = b.finish();
        let meta = Arc::new(meta);
        let ceiling = ((1usize << ceiling_log2) + ((ceiling_frac << ceiling_log2) >> 10)).min(1 << 20);
        let fetched = if ramped { 0 } else { ceiling as u64 };
        let target = InternalKey::for_lookup(&start, snapshot);
        let scan = |it: &mut dyn ForwardIter| {
            let mut out = Vec::new();
            it.seek(target.as_bytes()).unwrap();
            while it.valid() {
                out.push((it.key().to_vec(), it.value().to_vec()));
                it.next().unwrap();
            }
            out
        };

        // The model: the wanted records are those at or after the target
        // whose user key is below `end`; offsets follow from their sizes.
        let wanted = |(user, seq, _): &(Vec<u8>, u64, Vec<u8>)| {
            (user.as_slice(), std::cmp::Reverse(*seq)) >= (start.as_slice(), std::cmp::Reverse(snapshot))
                && (end.is_empty() || user < &end)
        };
        let sizes: Vec<u64> = records.iter().map(|(user, _, value)| record_len(user, value)).collect();
        let first = records.iter().position(wanted).unwrap_or(records.len());
        let count = records.iter().filter(|r| wanted(r)).count();
        let offset_of = |i: usize| sizes[..i].iter().sum::<u64>();
        let (lo, limit) = (offset_of(first), offset_of(first + count));

        let unlimited = scan(&mut ByteAddrIter::from_parts(Arc::clone(&meta), SliceSource(data.clone()), 1 << 20));
        let log = Rc::new(RefCell::new(Vec::new()));
        let source = CountingSource { inner: SliceSource(data.clone()), log: Rc::clone(&log) };
        let mut limited = ByteAddrIter::from_parts(Arc::clone(&meta), source, ceiling).scan_to(&end, fetched);
        let planned = limited.plan(Some(target.as_bytes())).unwrap();
        let got = scan(&mut limited);
        let below_end: Vec<_> = unlimited
            .into_iter()
            .filter(|(k, _)| end.is_empty() || key::user_key(k) < end.as_slice())
            .collect();
        prop_assert_eq!(below_end.len(), count);
        prop_assert_eq!(&got, &below_end);

        let reads = log.borrow().clone();
        let (mut at, mut run_fetched, mut record) = (lo, fetched, first);
        for &(offset, len) in &reads {
            prop_assert_eq!(offset, at, "every fetch starts where the last one ended");
            prop_assert!(offset + len <= limit, "fetch [{}, +{}) passes the limit {}", offset, len, limit);
            // Whole records, as many as the window holds, at least one.
            let window = (run_fetched + (16 << 10)).min(ceiling as u64);
            let mut whole = sizes[record];
            record += 1;
            while offset + whole < limit && whole + sizes[record] <= window {
                whole += sizes[record];
                record += 1;
            }
            prop_assert_eq!(len, whole, "window {} at offset {}", window, offset);
            (at, run_fetched) = (offset + len, run_fetched + len);
        }
        prop_assert_eq!(at, limit, "the wanted range is fetched to its end");

        // The same scan with its first chunk fetched by the caller.
        match planned {
            None => prop_assert!(reads.is_empty() && count == 0),
            Some((range, len)) => {
                prop_assert_eq!((range.start, range.end, len as u64), (lo, limit, reads[0].1));
                log.borrow_mut().clear();
                let source = CountingSource { inner: SliceSource(data.clone()), log: Rc::clone(&log) };
                let mut primed = ByteAddrIter::from_parts(Arc::clone(&meta), source, ceiling).scan_to(&end, fetched);
                primed.prime(range.start, data[range.start as usize..][..len].to_vec());
                prop_assert_eq!(&scan(&mut primed), &got);
                prop_assert_eq!(&log.borrow()[..], &reads[1..]);
            }
        }
    }
}

/// Assign increasing seqs to `ops` (user key, put or delete, value) and cut
/// them into sorted runs of `run_len` distinct keys, newest run first: the
/// merge order of overlapping tables.
fn tables_from_ops(ops: &[(Vec<u8>, bool, Vec<u8>)], run_len: usize) -> Vec<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut tables: Vec<Vec<(Vec<u8>, Vec<u8>)>> = Vec::new();
    let mut current: BTreeMap<Vec<u8>, (u64, ValueType, Vec<u8>)> = BTreeMap::new();
    for (i, (k, is_put, v)) in ops.iter().enumerate() {
        let vt = if *is_put { ValueType::Value } else { ValueType::Deletion };
        current.insert(k.clone(), (i as u64 + 1, vt, v.clone()));
        if current.len() == run_len {
            tables.push(run_from(&current));
            current.clear();
        }
    }
    if !current.is_empty() {
        tables.push(run_from(&current));
    }
    tables.reverse();
    tables
}

fn run_from(current: &BTreeMap<Vec<u8>, (u64, ValueType, Vec<u8>)>) -> Vec<(Vec<u8>, Vec<u8>)> {
    current
        .iter()
        .map(|(k, (seq, vt, v))| {
            (
                InternalKey::new(k, *seq, *vt).into_bytes(),
                if *vt == ValueType::Value { v.clone() } else { Vec::new() },
            )
        })
        .collect()
}
