//! Criterion micro-benchmarks for the substrates: fabric verbs, skip list,
//! bloom filters, table formats, RPC.
//!
//! These measure the building blocks the figures are built from — e.g. the
//! per-size RDMA read cost is the denominator of every read-amplification
//! argument in the paper.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dlsm_memnode::{
    execute_compaction, CompactArgs, InputTable, MemServer, MemServerConfig, RegionAllocator, RpcClient, TableFormat,
};
use dlsm_skiplist::{BytewiseComparator, SkipList};
use dlsm_sstable::block::{BlockTableBuilder, BlockTableReader};
use dlsm_sstable::bloom::BloomFilter;
use dlsm_sstable::byte_addr::{ByteAddrBuilder, ByteAddrReader, TableMeta};
use dlsm_sstable::iter::{ForwardIter, MergingIter};
use dlsm_sstable::key::{InternalKey, ValueType, MAX_SEQ};
use dlsm_sstable::source::SliceSource;
use rdma_sim::{Fabric, NetworkProfile};

fn bench_rdma_ops(c: &mut Criterion) {
    let fabric = Fabric::new(NetworkProfile::edr_100g());
    let compute = fabric.add_node();
    let memory = fabric.add_node();
    let region = memory.register_region(8 << 20);
    let mut qp = fabric.create_qp(compute.id(), memory.id()).unwrap();

    let mut group = c.benchmark_group("rdma_read_sync_edr");
    for size in [64usize, 1 << 10, 64 << 10, 1 << 20] {
        group.throughput(Throughput::Bytes(size as u64));
        let mut buf = vec![0u8; size];
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| qp.read_sync(region.addr(0), &mut buf).unwrap());
        });
    }
    group.finish();

    let mut group = c.benchmark_group("rdma_atomics_edr");
    group.bench_function("fetch_add", |b| {
        b.iter(|| qp.fetch_add(region.addr(0), 1).unwrap());
    });
    group.finish();
}

fn bench_skiplist(c: &mut Criterion) {
    let mut group = c.benchmark_group("skiplist");
    group.bench_function("insert_20b_key_100b_value", |b| {
        let mut i = 0u64;
        let mut list = SkipList::with_capacity(BytewiseComparator, 512 << 20);
        b.iter(|| {
            let key = format!("{:020}", i);
            i += 1;
            if list.memory_usage() + 1024 > list.capacity() {
                list = SkipList::with_capacity(BytewiseComparator, 512 << 20);
            }
            list.insert(key.as_bytes(), &[7u8; 100]).unwrap();
        });
    });
    let list = SkipList::with_capacity(BytewiseComparator, 64 << 20);
    for i in 0..100_000u64 {
        list.insert(format!("{:020}", i * 7 % 100_000).as_bytes(), b"v").unwrap();
    }
    let mut i = 0u64;
    group.bench_function("get_hit_100k_entries", |b| {
        b.iter(|| {
            i = (i + 31) % 100_000;
            assert!(list.get(format!("{:020}", i).as_bytes()).is_some());
        });
    });
    group.finish();
}

fn bench_bloom(c: &mut Criterion) {
    let keys: Vec<Vec<u8>> = (0..50_000u64).map(|i| format!("key{i:09}").into_bytes()).collect();
    let mut group = c.benchmark_group("bloom");
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("build_50k_keys_10bpk", |b| {
        b.iter(|| BloomFilter::build(keys.iter().map(|k| k.as_slice()), 10));
    });
    let filter = BloomFilter::build(keys.iter().map(|k| k.as_slice()), 10);
    let mut i = 0usize;
    group.throughput(Throughput::Elements(1));
    group.bench_function("probe", |b| {
        b.iter(|| {
            i = (i + 97) % keys.len();
            filter.may_contain(&keys[i])
        });
    });
    group.finish();
}

fn table_entries(n: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|i| {
            (
                InternalKey::new(format!("key{i:09}").as_bytes(), 5, ValueType::Value).into_bytes(),
                vec![0x42u8; 400],
            )
        })
        .collect()
}

fn bench_table_builders(c: &mut Criterion) {
    let entries = table_entries(10_000);
    let bytes: u64 = entries.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
    let mut group = c.benchmark_group("table_build_10k_records");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("byte_addressable", |b| {
        b.iter(|| {
            let mut builder = ByteAddrBuilder::new(Vec::with_capacity(bytes as usize), 10);
            for (k, v) in &entries {
                builder.add(k, v).unwrap();
            }
            builder.finish()
        });
    });
    group.bench_function("block_8k", |b| {
        b.iter(|| {
            let mut builder = BlockTableBuilder::new(Vec::with_capacity(bytes as usize), 8192, 10);
            for (k, v) in &entries {
                builder.add(k, v).unwrap();
            }
            builder.finish().unwrap()
        });
    });
    group.finish();
}

fn bench_table_gets(c: &mut Criterion) {
    let entries = table_entries(10_000);
    let mut group = c.benchmark_group("table_point_get_local");

    let mut builder = ByteAddrBuilder::new(Vec::new(), 10);
    for (k, v) in &entries {
        builder.add(k, v).unwrap();
    }
    let (data, meta) = builder.finish();
    let reader = ByteAddrReader::new(Arc::new(meta), SliceSource(data));
    let mut i = 0u64;
    group.bench_function("byte_addressable", |b| {
        b.iter(|| {
            i = (i + 61) % 10_000;
            reader.get(format!("key{i:09}").as_bytes(), 100).unwrap()
        });
    });

    let mut builder = BlockTableBuilder::new(Vec::new(), 8192, 10);
    for (k, v) in &entries {
        builder.add(k, v).unwrap();
    }
    let (data, _) = builder.finish().unwrap();
    let reader = BlockTableReader::open(SliceSource(data)).unwrap();
    let mut i = 0u64;
    group.bench_function("block_8k", |b| {
        b.iter(|| {
            i = (i + 61) % 10_000;
            reader.get(format!("key{i:09}").as_bytes(), 100).unwrap()
        });
    });
    group.finish();
}

/// A byte-addressable table of the `keys` (ascending) of [`table_entries`].
fn table_of(keys: impl Iterator<Item = u64>) -> (Vec<u8>, Arc<TableMeta>) {
    let mut builder = ByteAddrBuilder::new(Vec::new(), 10);
    for i in keys {
        let key = InternalKey::new(format!("key{i:09}").as_bytes(), 5, ValueType::Value);
        builder.add(key.as_bytes(), &[0x42u8; 400]).unwrap();
    }
    let (data, meta) = builder.finish();
    (data, Arc::new(meta))
}

/// Merge probe (reported, not gated): ns per entry of a `MergingIter` over
/// k local tables of 420 B records, when the children take turns entry by
/// entry (every step changes the leader) and when one child holds 90 % of
/// the entries (a deep level under a few small runs: most steps do not).
fn bench_merge(c: &mut Criterion) {
    let n = 40_000u64;
    let mut group = c.benchmark_group("merge");
    group.throughput(Throughput::Elements(n));
    for k in [2u64, 5, 8] {
        for (shape, child_of) in [
            ("interleaved", (|i, k| i % k) as fn(u64, u64) -> u64),
            ("one_child_90pct", |i, k| if i % 10 != 0 { 0 } else { 1 + (i / 10) % (k - 1) }),
        ] {
            let readers: Vec<_> = (0..k)
                .map(|child| {
                    let (data, meta) = table_of((0..n).filter(|&i| child_of(i, k) == child));
                    ByteAddrReader::new(meta, SliceSource(data))
                })
                .collect();
            group.bench_function(format!("k{k}/{shape}"), |b| {
                b.iter(|| {
                    let mut merged = MergingIter::new(readers.iter().map(|r| r.iter(2 << 20)).collect());
                    merged.seek_to_first().unwrap();
                    let mut bytes = 0usize;
                    while merged.valid() {
                        bytes += merged.value().len();
                        merged.next().unwrap();
                    }
                    bytes
                });
            });
        }
    }
    group.finish();
}

/// What `DbScan::next` adds to the merge per entry (reported, not gated): a
/// clock pair plus a histogram record on every entry, the same on one entry
/// in 16 with the group's weight, and the two `to_vec` of a 420 B record.
fn bench_scan_entry_parts(c: &mut Criterion) {
    use std::hint::black_box;
    use std::time::Instant;
    let hist = dlsm_telemetry::Histogram::new();
    let mut group = c.benchmark_group("scan_entry_parts");
    group.bench_function("clock_pair_and_record", |b| {
        b.iter(|| {
            let t0 = Instant::now();
            black_box(&hist).record_exclusive(t0.elapsed().as_nanos() as u64);
        });
    });
    let (mut unrecorded, mut sample) = (0u64, 0u64);
    group.bench_function("clock_pair_and_record_1_in_16", |b| {
        b.iter(|| {
            let t0 = (unrecorded == 0).then(Instant::now);
            black_box(&hist);
            if let Some(t0) = t0 {
                sample = t0.elapsed().as_nanos() as u64;
            }
            unrecorded += 1;
            if unrecorded == 16 {
                hist.record_exclusive_n(sample, unrecorded);
                unrecorded = 0;
            }
        });
    });
    let (key, value) = (vec![7u8; 20], vec![0x42u8; 400]);
    group.bench_function("two_to_vec_420b", |b| {
        b.iter(|| (black_box(&key[..]).to_vec(), black_box(&value[..]).to_vec()));
    });
    group.finish();
}

/// Memory-node compaction probe (reported, not gated): `execute_compaction`
/// over 8 inputs of 19 000 × 420 B records, as 1, 2 and 12 sub-ranges run
/// one after another on one core, each sub-task given its clip of every input
/// (`TableMeta::user_range`, what `run_near_data` sends). Elements are input
/// records: 1000 / (Melem/s) = ns per record. Each cell prints the bytes its
/// replies put on the wire per input record, and `replay_index` is what the
/// requester then does with them — `TableMeta::replay_merge`, the gather
/// over the inputs' indexes — beside `meta_decode`, decoding the same
/// tables' indexes from `TableMeta::encode` bytes as replies carried them
/// before ISSUE 23 — and `replay_carry`, the same replay also gathering the
/// outputs' images from the inputs' (ISSUE 24): the difference to
/// `replay_index` is what carrying a record costs the requester.
fn bench_memnode_compaction(c: &mut Criterion) {
    let (tables, per_table) = (8u64, 19_000u64);
    let n = tables * per_table;
    let fabric = Fabric::new(NetworkProfile::instant());
    let region = fabric.add_node().register_region(256 << 20);
    let mut group = c.benchmark_group("memnode_compaction");
    group.throughput(Throughput::Elements(n));
    for (shape, overlapping) in [("l0_to_l1", 4u64), ("l1_to_l2", 1)] {
        // The first `overlapping` tables span the whole key range; the others
        // split what is left into disjoint runs, as a deeper level does.
        let deep = tables - overlapping;
        let table_keys = |t: u64| {
            (0..n).filter(move |&i| match i % tables {
                r if r < overlapping => r == t,
                _ => t >= overlapping && i * deep / n == t - overlapping,
            })
        };
        let mut inputs: Vec<(u64, Arc<TableMeta>, Vec<u8>)> = Vec::new();
        let mut offset = 0u64;
        for t in 0..tables {
            let (data, meta) = table_of(table_keys(t));
            region.local_write(offset, &data).unwrap();
            let len = data.len() as u64;
            inputs.push((offset, meta, data));
            offset += len.next_multiple_of(8);
        }
        for ranges in [1u64, 2, 12] {
            let bound = |r: u64| if r.is_multiple_of(ranges) { Vec::new() } else { format!("key{:09}", r * n / ranges).into_bytes() };
            // Per sub-task: its arguments and the index records they name.
            type Clips<'a> = Vec<(&'a TableMeta, std::ops::Range<usize>)>;
            let tasks: Vec<(CompactArgs, Clips, Vec<&[u8]>)> = (0..ranges)
                .map(|r| {
                    let (range_lo, range_hi) = (bound(r), bound(r + 1));
                    let clips: Vec<(u64, &TableMeta, std::ops::Range<usize>, &[u8])> = inputs
                        .iter()
                        .map(|(offset, meta, image)| (*offset, &**meta, meta.user_range(&range_lo, &range_hi), &image[..]))
                        .filter(|(_, _, records, _)| !records.is_empty())
                        .collect();
                    let input = |(offset, meta, records, _): &(u64, &TableMeta, std::ops::Range<usize>, &[u8])| {
                        let within = meta.byte_range(records);
                        InputTable { offset: offset + within.start, len: within.end - within.start }
                    };
                    let args = CompactArgs {
                        format: TableFormat::ByteAddr,
                        smallest_snapshot: MAX_SEQ,
                        drop_deletions: true,
                        max_output_bytes: 8 << 20,
                        bits_per_key: 10,
                        inputs: clips.iter().map(input).collect(),
                        range_lo,
                        range_hi,
                    };
                    let images = clips.iter().map(|c| c.3).collect();
                    (args, clips.into_iter().map(|(_, meta, records, _)| (meta, records)).collect(), images)
                })
                .collect();
            let run = || {
                let zone = RegionAllocator::new(128 << 20, 128 << 20);
                tasks.iter().map(|(args, ..)| execute_compaction(&region, &zone, args).unwrap()).collect::<Vec<_>>()
            };
            group.bench_function(format!("{shape}/{ranges}_ranges"), |b| {
                b.iter(|| {
                    let replies = run();
                    let sum = |f: fn(&dlsm_memnode::CompactReply) -> u64| replies.iter().map(f).sum::<u64>();
                    assert_eq!((sum(|r| r.records_in), sum(|r| r.records_out)), (n, n));
                });
            });
            let replies = run();
            let reply_bytes: usize = replies.iter().map(|r| r.frame_len()).sum();
            eprintln!("{shape}/{ranges}_ranges: {:.3} reply bytes per input record", reply_bytes as f64 / n as f64);
            let reported = |r: &dlsm_memnode::CompactReply| {
                r.outputs.iter().map(|o| (o.records, o.len, BloomFilter::decode(&o.meta).unwrap())).collect::<Vec<_>>()
            };
            let replay = || -> Vec<Vec<TableMeta>> {
                let metas = tasks.iter().zip(&replies).map(|((_, clips, _), r)| TableMeta::replay_merge(clips, &r.steps, reported(r), |_, _, _| ()));
                metas.collect::<Result<_, _>>().unwrap()
            };
            group.bench_function(format!("{shape}/{ranges}_ranges/replay_index"), |b| b.iter(|| std::hint::black_box(replay())));
            // The same replay also gathering the outputs' images from the
            // inputs', record by record (ISSUE 24; `dlsm::compaction` copies
            // adjacent records of one input at once): the price of a carry.
            let carry = || -> u64 {
                let mut bytes = 0;
                for ((_, clips, images), r) in tasks.iter().zip(&replies) {
                    let mut outputs: Vec<Vec<u8>> = r.outputs.iter().map(|o| Vec::with_capacity(o.len as usize)).collect();
                    let gather = |input: usize, record: usize, output: usize| {
                        let (offset, len) = clips[input].0.index.record(record);
                        outputs[output].extend_from_slice(&images[input][offset as usize..offset as usize + len]);
                    };
                    TableMeta::replay_merge(clips, &r.steps, reported(r), gather).unwrap();
                    bytes += outputs.iter().zip(&r.outputs).map(|(image, o)| u64::from(image.len() as u64 == o.len) * o.len).sum::<u64>();
                }
                bytes
            };
            group.bench_function(format!("{shape}/{ranges}_ranges/replay_carry"), |b| b.iter(|| assert!(carry() > 400 * n)));
            let encoded: Vec<Vec<u8>> = replay().iter().flatten().map(TableMeta::encode).collect();
            group.bench_function(format!("{shape}/{ranges}_ranges/meta_decode"), |b| {
                b.iter(|| encoded.iter().map(|e| TableMeta::decode(e).unwrap().0.num_entries).sum::<u64>());
            });
        }
    }
    group.finish();
}

fn bench_rpc(c: &mut Criterion) {
    let fabric = Fabric::new(NetworkProfile::edr_100g());
    let compute = fabric.add_node();
    let server = MemServer::start(
        &fabric,
        MemServerConfig {
            region_size: 32 << 20,
            flush_zone: 16 << 20,
            compaction_workers: 1,
            dispatchers: 1,
        },
    );
    let mut client = RpcClient::new(&fabric, &compute, server.node_id(), 64 << 10).unwrap();
    let mut group = c.benchmark_group("rpc_edr");
    group.bench_function("ping_16b", |b| {
        b.iter(|| client.ping(b"0123456789abcdef", std::time::Duration::from_secs(5)).unwrap());
    });
    group.bench_function("read_file_4k", |b| {
        b.iter(|| client.read_file(0, 4096, std::time::Duration::from_secs(5)).unwrap());
    });
    group.finish();
    drop(client);
    server.shutdown();
}

fn bench_db_reads(c: &mut Criterion) {
    use dlsm::{ComputeContext, Db, DbConfig, MemNodeHandle};
    let fabric = Fabric::new(NetworkProfile::edr_100g());
    let server = MemServer::start(
        &fabric,
        MemServerConfig {
            region_size: 256 << 20,
            flush_zone: 128 << 20,
            compaction_workers: 2,
            dispatchers: 1,
        },
    );
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    let db = Db::open(ctx, mem, DbConfig::default()).unwrap();
    let n = 20_000u64;
    let key = |i: u64| -> Vec<u8> {
        let mut k = i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec();
        k.extend_from_slice(b"-bench-key");
        k
    };
    for i in 0..n {
        db.put(&key(i), &[7u8; 400]).unwrap();
    }
    db.force_flush().unwrap();
    db.wait_until_quiescent();
    let mut reader = db.reader();

    let mut group = c.benchmark_group("db_point_reads_edr");
    let mut i = 0u64;
    group.throughput(Throughput::Elements(1));
    group.bench_function("get", |b| {
        b.iter(|| {
            i = (i + 4099) % n;
            reader.get(&key(i)).unwrap().expect("present")
        });
    });
    // 32 keys per call: the batched path amortizes per-read latency.
    group.throughput(Throughput::Elements(32));
    group.bench_function("multi_get_32", |b| {
        b.iter(|| {
            i = (i + 4099) % n;
            let keys: Vec<Vec<u8>> = (0..32).map(|d| key((i + d * 601) % n)).collect();
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            let got = reader.multi_get(&refs).unwrap();
            assert!(got.iter().all(Option::is_some));
            got
        });
    });
    group.finish();
    db.shutdown();
    server.shutdown();
}

/// Key `i` of the probe database: hashed, so key order is not fill order.
fn probe_key(i: u64, suffix: &[u8]) -> Vec<u8> {
    let mut k = i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec();
    k.extend_from_slice(suffix);
    k
}

/// The database the read-path probes run on: `n` keys × 400 B on the EDR
/// profile. Paced fill — flush and drain after every MemTable's worth — so
/// the level shape does not depend on background timing.
fn probe_db(n: u64, cache: dlsm::CacheConfig) -> (MemServer, dlsm::Db) {
    use dlsm::{ComputeContext, Db, DbConfig, MemNodeHandle};
    let fabric = Fabric::new(NetworkProfile::edr_100g());
    let server = MemServer::start(
        &fabric,
        MemServerConfig {
            region_size: 1 << 30,
            flush_zone: 512 << 20,
            compaction_workers: 2,
            dispatchers: 1,
        },
    );
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    let db = Db::open(ctx, mem, DbConfig { cache, ..DbConfig::default() }).unwrap();
    for i in 0..n {
        db.put(&probe_key(i, b"-bench-key"), &[7u8; 400]).unwrap();
        if i % 16_384 == 16_383 || i == n - 1 {
            db.force_flush().unwrap();
            db.wait_until_quiescent();
        }
    }
    eprintln!("level shape {:?}", db.level_shape());
    (server, db)
}

/// Read-path scaling probe (reported, not gated): what one reader's `get`
/// costs alone and beside a second reader doing the same on another thread,
/// for bloom-negative gets (no fabric: pure compute-side software) and
/// present remote gets, with the read cache off and at 32 MiB over 84 MB of
/// data — swept once first, so the pools are full and a miss finds no room:
/// the case in which the cache has to cost no more than its probes (ISSUE 21;
/// the gap to the cache-off cell is what a miss pays for the cache). Two
/// readers deliver `2 / latency`; flat latency is perfect scaling.
fn bench_db_read_scaling(c: &mut Criterion) {
    use dlsm::CacheConfig;
    use std::sync::atomic::{AtomicBool, Ordering};
    let n = 200_000u64;
    for (cache_name, cache) in
        [("cache_off", CacheConfig::default()), ("cache_32MiB", CacheConfig::with_capacity(32 << 20))]
    {
        let (server, db) = probe_db(n, cache);

        let mut group = c.benchmark_group(format!("db_read_scaling_edr/{cache_name}"));
        group.throughput(Throughput::Elements(1));
        for (kind, suffix, present) in
            [("bloom_negative", &b"-absent-key"[..], false), ("present_remote", &b"-bench-key"[..], true)]
        {
            let full = present && db.cache_stats().is_some();
            if full {
                let mut reader = db.reader();
                (0..n).for_each(|i| assert!(reader.get(&probe_key(i, suffix)).unwrap().is_some()));
            }
            let kind = if full { "present_remote_full" } else { kind };
            let (gets_before, cache_before) = (db.stats().snapshot().gets, db.cache_stats().unwrap_or_default());
            for readers in [1usize, 2] {
                let stop = AtomicBool::new(false);
                std::thread::scope(|s| {
                    for _ in 1..readers {
                        s.spawn(|| {
                            let mut reader = db.reader();
                            let mut i = 17u64;
                            while !stop.load(Ordering::Relaxed) {
                                i = (i + 7919) % n;
                                assert_eq!(reader.get(&probe_key(i, suffix)).unwrap().is_some(), present);
                            }
                        });
                    }
                    let mut reader = db.reader();
                    let mut i = 0u64;
                    group.bench_function(format!("{kind}/{readers}_readers"), |b| {
                        b.iter(|| {
                            i = (i + 4099) % n;
                            assert_eq!(reader.get(&probe_key(i, suffix)).unwrap().is_some(), present);
                        });
                    });
                    stop.store(true, Ordering::Relaxed);
                });
            }
            if let Some(c) = db.cache_stats().filter(|_| present) {
                let gets = (db.stats().snapshot().gets - gets_before) as f64;
                eprintln!(
                    "{cache_name}/{kind}: resident {:.2}, hits/get {:.3}, inserts/get {:.3}, evictions/get {:.3}",
                    c.resident_bytes as f64 / c.capacity_bytes as f64,
                    (c.hits() - cache_before.hits()) as f64 / gets,
                    (c.inserts - cache_before.inserts) as f64 / gets,
                    (c.evictions - cache_before.evictions) as f64 / gets,
                );
            }
        }
        group.finish();
        db.shutdown();
        server.shutdown();
    }
}

/// Scan probe (reported, not gated) on the read-scaling probe's database,
/// cache off: what a scan costs in time, READs and fabric bytes per entry
/// returned (DEX's accounting) — 100 and 10 000 entries with the bound
/// given, 100 entries taken from an unbounded scan, and a full sweep.
fn bench_db_scans(c: &mut Criterion) {
    use rdma_sim::Verb;
    let n = 200_000u64;
    let (server, db) = probe_db(n, dlsm::CacheConfig::default());
    let mut keys: Vec<Vec<u8>> = (0..n).map(|i| probe_key(i, b"-bench-key")).collect();
    keys.sort();
    let mut group = c.benchmark_group("db_scans_edr");
    let mut reader = db.reader();
    // (name, entries, bounded)
    for (name, len, bounded) in [
        ("scan_range_100", 100usize, true),
        ("scan_range_10000", 10_000, true),
        ("scan_take_100", 100, false),
        ("full_sweep", n as usize, false),
    ] {
        let (mut at, mut calls, mut entries) = (0usize, 0u64, 0u64);
        let before = reader.traffic();
        group.bench_function(name, |b| {
            b.iter(|| {
                at = (at + 40_009) % (n as usize - len).max(1);
                let end = if bounded { &keys[at + len][..] } else { &[] };
                let got = reader.scan_range(&keys[at], end).unwrap().take(len).count();
                assert!(got == len || len == n as usize);
                calls += 1;
                entries += got as u64;
            });
        });
        let d = reader.traffic().delta(&before);
        eprintln!(
            "{name}: {:.1} READs/call, {:.0} fabric bytes/entry",
            d.ops(Verb::Read) as f64 / calls as f64,
            d.bytes(Verb::Read) as f64 / entries as f64,
        );
    }
    group.finish();
    drop(reader);
    db.shutdown();
    server.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_rdma_ops, bench_skiplist, bench_bloom, bench_table_builders, bench_table_gets, bench_merge, bench_scan_entry_parts, bench_memnode_compaction, bench_rpc, bench_db_reads, bench_db_read_scaling, bench_db_scans
}
criterion_main!(benches);
