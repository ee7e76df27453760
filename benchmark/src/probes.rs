//! Layer probes: direct, single-purpose calls into each layer's public
//! functions on the benchmark's record shape (20 B key + 400 B value), at
//! the occupancy of one full 8 MiB MemTable (16 384 records). Calls that
//! take nanoseconds are timed a batch at a time (one clock pair around the
//! batch) so the clock does not dominate; calls that cross the simulated
//! fabric are timed one by one. Every probe reports the median of its
//! batches. The whole set runs in about three seconds.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlsm::memtable::MemTable;
use dlsm_cache::{CacheConfig, ReadCache};
use dlsm_memnode::{
    execute_compaction, CompactArgs, InputTable, MemServer, MemServerConfig, RegionAllocator,
    RpcClient, TableFormat,
};
use dlsm_skiplist::SkipList;
use dlsm_sstable::byte_addr::{ByteAddrBuilder, ByteAddrReader, TableMeta};
use dlsm_sstable::{
    ForwardIter, InternalKey, InternalKeyComparator, MergingIter, SliceSource, ValueType, MAX_SEQ,
};
use rdma_sim::{Fabric, NetworkProfile};

use crate::gen::{self, Rng, KEY_LEN, VALUE_LEN};
use crate::recorder::Recorder;
use crate::report::{median, Metric};

/// Records in one probe table: what `engine::PRELOAD_BATCH` puts into one
/// MemTable, so probe and workload see structures of the same size.
const RECORDS: usize = crate::engine::PRELOAD_BATCH;
const REPS: usize = 5;
const ARENA_BYTES: usize = 24 << 20;

fn ns_per_call(calls: usize, mut batch: impl FnMut() -> Duration) -> f64 {
    let per_call: Vec<f64> = (0..REPS)
        .map(|_| batch().as_nanos() as f64 / calls as f64)
        .collect();
    median(&per_call)
}

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

fn user_key(slot: u64) -> [u8; KEY_LEN] {
    let mut key = [0u8; KEY_LEN];
    gen::write_key(&mut key, slot);
    key
}

fn value_of(index: u64) -> [u8; VALUE_LEN] {
    let mut value = gen::value_template();
    gen::write_value(&mut value, index, 1);
    value
}

/// `RECORDS` internal keys over slots `first, first + step, …`, sorted.
fn internal_keys(first: u64, step: u64) -> Vec<InternalKey> {
    (0..RECORDS as u64)
        .map(|i| InternalKey::new(&user_key(first + i * step), i + 1, ValueType::Value))
        .collect()
}

fn build_table(keys: &[InternalKey]) -> (Vec<u8>, TableMeta) {
    let mut builder = ByteAddrBuilder::new(Vec::with_capacity(RECORDS * 450), 10);
    for (i, key) in keys.iter().enumerate() {
        builder
            .add(key.as_bytes(), &value_of(i as u64))
            .expect("build probe table");
    }
    builder.finish()
}

fn harness_and_memtable(out: &mut Vec<Metric>) {
    let calls = 1_000_000;
    let clock = ns_per_call(calls, || {
        timed(|| {
            for _ in 0..calls {
                black_box(Instant::now());
            }
        })
    });
    out.push(Metric {
        name: "harness.clock_ns",
        unit: "ns",
        value: clock,
    });

    let keys = internal_keys(0, 2);
    let order = gen::shuffled(RECORDS as u64, &mut Rng::new(1));
    let value = value_of(0);
    let fresh = || SkipList::with_capacity(InternalKeyComparator, ARENA_BYTES);

    let insert = ns_per_call(RECORDS, || {
        let list = fresh();
        timed(|| {
            order.iter().for_each(|&i| {
                list.insert(keys[i as usize].as_bytes(), &value)
                    .expect("arena")
            })
        })
    });
    out.push(Metric {
        name: "skiplist.insert_ns",
        unit: "ns",
        value: insert,
    });

    // Two threads, half the keys each: wall time per insert *per thread*.
    let insert_2thr = ns_per_call(RECORDS / 2, || {
        let list = fresh();
        let (left, right) = order.split_at(RECORDS / 2);
        timed(|| {
            std::thread::scope(|s| {
                for half in [left, right] {
                    let (list, keys, value) = (&list, &keys, &value);
                    s.spawn(move || {
                        half.iter().for_each(|&i| {
                            list.insert(keys[i as usize].as_bytes(), value)
                                .expect("arena")
                        })
                    });
                }
            })
        })
    });
    out.push(Metric {
        name: "skiplist.insert_2thr_ns",
        unit: "ns",
        value: insert_2thr,
    });

    let list = fresh();
    order.iter().for_each(|&i| {
        list.insert(keys[i as usize].as_bytes(), &value)
            .expect("arena")
    });
    let get = ns_per_call(RECORDS, || {
        timed(|| {
            order.iter().for_each(|&i| {
                black_box(list.get(keys[i as usize].as_bytes()));
            })
        })
    });
    out.push(Metric {
        name: "skiplist.get_ns",
        unit: "ns",
        value: get,
    });

    let users: Vec<[u8; KEY_LEN]> = (0..RECORDS as u64).map(|i| user_key(i * 2)).collect();
    let table = || MemTable::new(0, 1..MAX_SEQ, 8 << 20, ARENA_BYTES);
    let add = ns_per_call(RECORDS, || {
        let mem = table();
        timed(|| {
            for (seq, &i) in order.iter().enumerate() {
                mem.add(seq as u64 + 1, ValueType::Value, &users[i as usize], &value)
                    .expect("arena");
            }
        })
    });
    out.push(Metric {
        name: "memtable.add_ns",
        unit: "ns",
        value: add,
    });

    let mem = table();
    for (seq, &i) in order.iter().enumerate() {
        mem.add(seq as u64 + 1, ValueType::Value, &users[i as usize], &value)
            .expect("arena");
    }
    let mem_get = ns_per_call(RECORDS, || {
        timed(|| {
            order
                .iter()
                .for_each(|&i| drop(black_box(mem.get(&users[i as usize], MAX_SEQ))))
        })
    });
    out.push(Metric {
        name: "memtable.get_ns",
        unit: "ns",
        value: mem_get,
    });
}

fn sstable(out: &mut Vec<Metric>) {
    let keys = internal_keys(0, 2);
    let build = ns_per_call(RECORDS, || timed(|| drop(black_box(build_table(&keys)))));
    out.push(Metric {
        name: "sstable.build_ns_per_record",
        unit: "ns",
        value: build,
    });

    let (image, meta) = build_table(&keys);
    let order = gen::shuffled(RECORDS as u64, &mut Rng::new(2));
    // Half the bloom probes are for keys the table holds, half for their
    // absent twins.
    let probes: Vec<[u8; KEY_LEN]> = order
        .iter()
        .map(|&i| user_key(i as u64 * 2 + (i as u64 & 1)))
        .collect();
    let bloom = ns_per_call(RECORDS, || {
        timed(|| {
            probes.iter().for_each(|k| {
                black_box(meta.bloom.may_contain(k));
            })
        })
    });
    out.push(Metric {
        name: "sstable.bloom_ns",
        unit: "ns",
        value: bloom,
    });

    let present: Vec<[u8; KEY_LEN]> = order.iter().map(|&i| user_key(i as u64 * 2)).collect();
    let locate = ns_per_call(RECORDS, || {
        timed(|| {
            present.iter().for_each(|k| {
                black_box(meta.locate(k, MAX_SEQ));
            })
        })
    });
    out.push(Metric {
        name: "sstable.locate_ns",
        unit: "ns",
        value: locate,
    });

    let reader = ByteAddrReader::new(Arc::new(meta), SliceSource(Arc::<[u8]>::from(image)));
    let get_local = ns_per_call(RECORDS, || {
        timed(|| {
            present
                .iter()
                .for_each(|k| drop(black_box(reader.get(k, MAX_SEQ))))
        })
    });
    out.push(Metric {
        name: "sstable.get_local_ns",
        unit: "ns",
        value: get_local,
    });

    let iterate = ns_per_call(RECORDS, || {
        let mut it = reader.iter(2 << 20);
        timed(|| {
            it.seek_to_first().expect("seek");
            while it.valid() {
                black_box(it.value().len());
                it.next().expect("next");
            }
        })
    });
    out.push(Metric {
        name: "sstable.iter_ns_per_entry",
        unit: "ns",
        value: iterate,
    });

    // Four tables whose keys interleave one by one: every step of the merge
    // changes the winning child.
    let readers: Vec<_> = (0..4u64)
        .map(|t| {
            let (image, meta) = build_table(&internal_keys(t, 4));
            ByteAddrReader::new(Arc::new(meta), SliceSource(Arc::<[u8]>::from(image)))
        })
        .collect();
    let merge4 = ns_per_call(4 * RECORDS, || {
        let mut merged = MergingIter::new(readers.iter().map(|r| r.iter(2 << 20)).collect());
        timed(|| {
            merged.seek_to_first().expect("seek");
            while merged.valid() {
                black_box(merged.value().len());
                merged.next().expect("next");
            }
        })
    });
    out.push(Metric {
        name: "sstable.merge4_ns_per_entry",
        unit: "ns",
        value: merge4,
    });
}

fn memnode(out: &mut Vec<Metric>) {
    let fabric = Fabric::new(NetworkProfile::edr_100g());
    let server = MemServer::start(
        &fabric,
        MemServerConfig {
            region_size: 256 << 20,
            flush_zone: 64 << 20,
            compaction_workers: 1,
            dispatchers: 1,
        },
    );
    let compute = fabric.add_node();
    let mut client = RpcClient::new(&fabric, &compute, server.node_id(), 4096).expect("rpc client");
    let mut pings = Recorder::default();
    for _ in 0..300 {
        let t = Instant::now();
        client.ping(b"probe", Duration::from_secs(5)).expect("ping");
        pings.record(t.elapsed().as_nanos() as u64);
    }
    out.push(Metric {
        name: "memnode.ping_p50_us",
        unit: "us",
        value: pings.quantile_us(0.5),
    });

    // Near-data merge of four overlapping tables, called the way a
    // compaction worker calls it: inputs in the region, outputs allocated
    // from a zone of the same region.
    let region = server.region();
    let mut inputs = Vec::new();
    let mut offset = 0u64;
    for t in 0..4u64 {
        let (image, _) = build_table(&internal_keys(t, 4));
        region
            .local_write(offset, &image)
            .expect("write input table");
        inputs.push(InputTable {
            offset,
            len: image.len() as u64,
        });
        offset += (image.len() as u64).next_multiple_of(8);
    }
    let args = CompactArgs {
        format: TableFormat::ByteAddr,
        smallest_snapshot: MAX_SEQ,
        drop_deletions: true,
        max_output_bytes: 8 << 20,
        bits_per_key: 10,
        range_lo: Vec::new(),
        range_hi: Vec::new(),
        inputs,
    };
    let rates: Vec<f64> = (0..3)
        .map(|_| {
            let zone = RegionAllocator::new(64 << 20, 128 << 20);
            let t = Instant::now();
            let reply = execute_compaction(region, &zone, &args).expect("probe compaction");
            reply.records_in as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    out.push(Metric {
        name: "memnode.merge_records_per_s",
        unit: "1/s",
        value: median(&rates),
    });
    server.shutdown();
}

fn fabric(out: &mut Vec<Metric>) {
    let edr = NetworkProfile::edr_100g();
    let mean_us = |profile: NetworkProfile, bytes: usize, calls: usize, write: bool| {
        let fabric = Fabric::new(profile);
        let (compute, memory) = (fabric.add_node(), fabric.add_node());
        let region = memory.register_region(2 << 20);
        let mut qp = fabric.create_qp(compute.id(), memory.id()).expect("qp");
        let mut buf = vec![7u8; bytes];
        let per_call: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..calls {
                    if write {
                        qp.write_sync(&buf, region.addr(0)).expect("write");
                    } else {
                        qp.read_sync(region.addr(0), &mut buf).expect("read");
                    }
                }
                t.elapsed().as_nanos() as f64 / calls as f64 / 1e3
            })
            .collect();
        median(&per_call)
    };
    let read_420 = mean_us(edr, 420, 2000, false);
    let model_420 = (edr.post_overhead + edr.transfer_cost(420)).as_nanos() as f64 / 1e3;
    out.extend([
        Metric {
            name: "fabric.read_64B_us",
            unit: "us",
            value: mean_us(edr, 64, 2000, false),
        },
        Metric {
            name: "fabric.read_420B_us",
            unit: "us",
            value: read_420,
        },
        Metric {
            name: "fabric.read_1MiB_us",
            unit: "us",
            value: mean_us(edr, 1 << 20, 100, false),
        },
        Metric {
            name: "fabric.write_512KiB_us",
            unit: "us",
            value: mean_us(edr, 512 << 10, 200, true),
        },
        Metric {
            name: "fabric.model_420B_us",
            unit: "us",
            value: model_420,
        },
        Metric {
            name: "fabric.sim_overhead_420B_ns",
            unit: "ns",
            value: (read_420 - model_420) * 1e3,
        },
        Metric {
            name: "fabric.post_poll_instant_ns",
            unit: "ns",
            value: mean_us(NetworkProfile::instant(), 420, 50_000, false) * 1e3,
        },
    ]);
}

fn cache(out: &mut Vec<Metric>) {
    let record = Arc::new(vec![1u8; 430]);
    let calls = 20_000u64;
    let roomy = ReadCache::new(CacheConfig::with_capacity(64 << 20)).expect("cache on");
    (0..calls).for_each(|i| roomy.block_admit(1, i * 430, &record));
    let hit = ns_per_call(calls as usize, || {
        timed(|| (0..calls).for_each(|i| drop(black_box(roomy.block_get(1, i * 430)))))
    });
    let miss = ns_per_call(calls as usize, || {
        timed(|| (0..calls).for_each(|i| drop(black_box(roomy.block_get(2, i * 430)))))
    });
    // A cache far smaller than what is offered: nearly every admission evicts.
    let tight = ReadCache::new(CacheConfig::with_capacity(2 << 20)).expect("cache on");
    let mut next = 0u64;
    let admit_evict = ns_per_call(calls as usize, || {
        timed(|| {
            for _ in 0..calls {
                tight.block_admit(3, next * 430, &record);
                next += 1;
            }
        })
    });
    let image = Arc::new(vec![2u8; 1 << 20]);
    for t in 0..4 {
        assert!(
            roomy.extent_admit(10 + t, Arc::clone(&image)),
            "extent pool holds four 1 MiB images"
        );
    }
    let extent = ns_per_call(calls as usize, || {
        timed(|| (0..calls).for_each(|i| drop(black_box(roomy.extent_get(10 + i % 4)))))
    });
    out.extend([
        Metric {
            name: "cache.block_get_hit_ns",
            unit: "ns",
            value: hit,
        },
        Metric {
            name: "cache.block_get_miss_ns",
            unit: "ns",
            value: miss,
        },
        Metric {
            name: "cache.block_admit_evict_ns",
            unit: "ns",
            value: admit_evict,
        },
        Metric {
            name: "cache.extent_get_ns",
            unit: "ns",
            value: extent,
        },
    ]);
}

/// Every probe metric, in BENCHMARK.json order within each layer.
pub fn run_all() -> Vec<Metric> {
    let mut out = Vec::new();
    harness_and_memtable(&mut out);
    sstable(&mut out);
    memnode(&mut out);
    fabric(&mut out);
    cache(&mut out);
    out
}
