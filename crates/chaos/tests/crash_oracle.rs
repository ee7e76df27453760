//! Model-oracle chaos runs (ISSUE acceptance): with ≥1% of Send and Write
//! completions dropped, latency jitter, and one scripted crash-restart of
//! the memory node mid-run, a 10k-op script must still behave exactly like
//! a `BTreeMap` — zero lost acknowledged writes, zero stale reads — and the
//! retried flush/compaction RPCs must leak no remote memory: after the run,
//! each zone allocator's `in_use()` equals exactly the bytes referenced by
//! the surviving version.
//!
//! Every assertion carries the seed; reproduce with the test that names it.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use dlsm::handle::Origin;
use dlsm::{CacheConfig, ComputeContext, Db, DbConfig, DbReader, MemNodeHandle};
use dlsm_chaos::{kb, script, CrashDriver};
use dlsm_memnode::{MemServer, MemServerConfig, RetryPolicy};
use dlsm_telemetry::OpClass;
use rdma_sim::{ChaosPlan, Fabric, NetworkProfile, Verb};

const KEY_SPACE: u64 = 1_200;
const OPS: usize = 10_000;
// The raw 10k-op script completes in well under 100 ms on the instant
// profile, so the workload is paced (a short sleep every few ops) to span
// the crash window — otherwise the crash would only ever hit background
// flush/compaction, never foreground traffic.
const PACE_EVERY: usize = 16;
const PACE: Duration = Duration::from_millis(1);
const CRASH_FROM: Duration = Duration::from_millis(250);
const CRASH_UNTIL: Duration = Duration::from_millis(550);

/// A point read that rides through the crash window: transient errors are
/// retried for up to ~2.5 s; `None` means the node stayed unreachable (the
/// caller skips the check rather than failing on unavailability — chaos
/// tests assert *correctness*, availability is the retry policy's job).
fn read_with_retry(reader: &mut DbReader, key: &[u8]) -> Option<Option<Vec<u8>>> {
    for _ in 0..100 {
        match reader.get(key) {
            Ok(v) => return Some(v),
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    None
}

fn chaos_config() -> DbConfig {
    DbConfig {
        // Generous retry budget so RPCs ride out the crash window instead of
        // surfacing errors; reconnect covers the restarted node.
        rpc_retry: RetryPolicy {
            max_attempts: 24,
            backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            reconnect_after: 2,
            // Fail blackholed attempts fast; the 120 s compaction call
            // timeout would otherwise burn seconds per attempt during the
            // crash window. It also bounds the flush's wait for one WRITE
            // completion: a dropped one fails the flush quickly (freeing its
            // extent) and the flush loop retries.
            attempt_timeout: Some(Duration::from_millis(200)),
        },
        // Chaos runs with the read cache ON (ISSUE 7): dropped completions,
        // the crash window and compaction-driven invalidation must never
        // make a cached read diverge from the model. Aggressive promotion
        // so the hot-extent path is exercised, not just flush mirroring.
        cache: CacheConfig {
            capacity_bytes: 8 << 20,
            promote_extent_after: 2,
            ..CacheConfig::default()
        },
        // While the script writes, L0 compacts at twice its trigger: 4 tables,
        // so compaction and GC RPCs — what the dropped Sends and the crash
        // window must hit — come as often as the drop rates above assume.
        l0_compaction_trigger: 2,
        ..DbConfig::small()
    }
}

fn run_chaos(seed: u64) {
    let fabric = Fabric::new(NetworkProfile::instant());
    let booted = MemServer::start(
        &fabric,
        MemServerConfig {
            region_size: 128 << 20,
            flush_zone: 64 << 20,
            compaction_workers: 2,
            dispatchers: 1,
        },
    );
    let mem_node = booted.node_id();
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&booted);
    // Declared before `db`, so dropped after it: a failed assertion unwinds
    // the Db — and ends its in-flight RPCs — while the memory node still
    // answers, instead of letting them run out their retry budget.
    let (driver, server);
    let db = Db::open(ctx, mem, chaos_config()).unwrap();

    // Flight recorder: trace the whole chaos run; if any oracle below
    // panics, the rings are dumped as a Perfetto-loadable trace so the red
    // run ships the evidence (cross-node spans included).
    dlsm_trace::set_level(dlsm_trace::Level::All);
    let _trace_dump = dlsm_trace::PanicDump::new(format!("results/chaos_trace_{seed:x}.json"));

    // And the LSM shape / stall / remote-memory snapshot goes to stderr on
    // any failed assertion below.
    let _stats_dump = dlsm_chaos::ReportOnPanic::new(|| db.stats_report().to_string());

    // One window on the fabric's clock: the plan blackholes the node's
    // traffic and the driver crashes its threads over the same interval.
    let t0 = fabric.now();
    let (crash_from, crash_until) = (t0 + CRASH_FROM, t0 + CRASH_UNTIL);
    let plan = Arc::new(
        ChaosPlan::new(seed)
            .drop(Verb::Send, 0.02)
            .drop(Verb::Write, 0.015)
            .drop(Verb::FetchAdd, 0.01)
            .jitter(Verb::Read, Duration::from_micros(80))
            .jitter(Verb::Write, Duration::from_micros(80))
            .crash_window(mem_node, crash_from, crash_until),
    );
    fabric.set_fault_hook(Some(plan.clone()));
    driver = CrashDriver::spawn(booted, Arc::clone(&fabric), crash_from, crash_until);

    // Single-threaded workload against the model. Acked mutations are
    // recorded in the model the moment the call returns; anything the model
    // holds must be readable afterwards (no lost acked writes).
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut reader = db.reader();
    let mut checked = 0u64;
    let mut skipped = 0u64;
    for (i, (is_put, k, version)) in script(seed, OPS, KEY_SPACE).into_iter().enumerate() {
        if is_put {
            let value = format!("v{k}@{version}").into_bytes();
            db.put(&kb(k), &value)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: put op {i} failed: {e:?}"));
            model.insert(k, value);
        } else {
            db.delete(&kb(k))
                .unwrap_or_else(|e| panic!("seed {seed:#x}: delete op {i} failed: {e:?}"));
            model.remove(&k);
        }
        // Interleaved checked reads: the writer just acked this mutation, so
        // a read of the same key must observe the model's value exactly —
        // a stale read here means a retry resurrected an old version.
        if i % PACE_EVERY == 0 {
            std::thread::sleep(PACE);
        }
        if i % 97 == 0 {
            match read_with_retry(&mut reader, &kb(k)) {
                Some(got) => {
                    assert_eq!(
                        got,
                        model.get(&k).cloned(),
                        "seed {seed:#x}: stale read of key {k} at op {i}"
                    );
                    checked += 1;
                }
                None => skipped += 1, // node unreachable (crash window)
            }
        }
    }

    // Recover the server (join blocks until the restart happened), then
    // lift the chaos for verification: the question is whether the damage
    // done *during* the run corrupted anything, not whether verification
    // itself can fail.
    server = driver.join();
    assert!(!server.is_crashed(), "seed {seed:#x}: driver left the node down");
    assert_eq!(
        server.stats().restarts.load(Ordering::Relaxed),
        1,
        "seed {seed:#x}: expected exactly one restart"
    );
    assert!(
        plan.drops() > 0,
        "seed {seed:#x}: chaos plan never dropped a completion — schedule too weak"
    );
    assert!(
        plan.blackholes() > 0,
        "seed {seed:#x}: crash window blackholed nothing — workload missed it"
    );
    assert!(
        checked > 50,
        "seed {seed:#x}: only {checked} mid-run reads verified ({skipped} skipped)"
    );
    fabric.set_fault_hook(None);

    db.force_flush()
        .unwrap_or_else(|e| panic!("seed {seed:#x}: post-chaos flush failed: {e:?}"));
    db.wait_until_quiescent();

    // Zero lost acked writes / zero stale reads: every key agrees with the
    // model, present and absent alike, then the full scan agrees in order.
    // Each key is read TWICE: the first read may miss the cache and fill it
    // from the fabric (an uncached read), the second is the cached replay —
    // both must be byte-identical to the model, so a cached read can never
    // diverge from its uncached twin even after crash-window compactions
    // invalidated and re-filled entries mid-run.
    let cache_before = db.cache_stats().expect("chaos runs with the cache on");
    for k in 0..KEY_SPACE {
        let got = reader
            .get(&kb(k))
            .unwrap_or_else(|e| panic!("seed {seed:#x}: final read of key {k} failed: {e:?}"));
        assert_eq!(got, model.get(&k).cloned(), "seed {seed:#x}: key {k} diverged");
        let replay = reader
            .get(&kb(k))
            .unwrap_or_else(|e| panic!("seed {seed:#x}: cached re-read of key {k} failed: {e:?}"));
        assert_eq!(replay, got, "seed {seed:#x}: cached re-read of key {k} diverged");
    }
    let cache_after = db.cache_stats().unwrap();
    assert!(
        cache_after.bytes_saved > cache_before.bytes_saved,
        "seed {seed:#x}: double-read sweep of {KEY_SPACE} keys saved no fabric bytes"
    );
    let want: Vec<(Vec<u8>, Vec<u8>)> = {
        let mut v: Vec<_> = model.iter().map(|(k, val)| (kb(*k), val.clone())).collect();
        v.sort();
        v
    };
    let got: Vec<(Vec<u8>, Vec<u8>)> = reader
        .scan(b"")
        .unwrap_or_else(|e| panic!("seed {seed:#x}: scan failed: {e:?}"))
        .map(|i| i.unwrap_or_else(|e| panic!("seed {seed:#x}: scan item failed: {e:?}")))
        .collect();
    assert_eq!(got, want, "seed {seed:#x}: scan diverged");

    // Telemetry consistency (DESIGN.md §8): drops, retries and the
    // crash-restart must leave the counters coherent with each other, not
    // just the data intact.
    //
    // 1. Every acked single-key mutation recorded exactly one Put latency
    //    sample — retries dedup to one ack, so the histogram must agree
    //    with the put/delete counters, not the attempt count.
    let tel = db.telemetry_snapshot();
    let stats = db.stats().snapshot();
    assert_eq!(
        tel.op(OpClass::Put).count(),
        stats.puts + stats.deletes,
        "seed {seed:#x}: put histogram diverged from acked-op counters"
    );
    // 2. Everything the flush path accounted as durably written crossed the
    //    fabric as RDMA WRITEs; dropped completions and retried flushes can
    //    only push fabric write bytes *above* the accounted flush bytes.
    let fab = fabric.stats().snapshot();
    let written = fab.bytes(Verb::Write) + fab.bytes(Verb::WriteImm);
    assert!(
        written >= stats.flush_bytes,
        "seed {seed:#x}: fabric write bytes ({written}) below accounted flush bytes ({})",
        stats.flush_bytes
    );
    // 3. Dedup bookkeeping: the server only replays (or drops a duplicate
    //    of) a request some client retransmitted, so replays + dup-drops
    //    are bounded by the clients' aggregate retry count — and a crash
    //    window this disruptive must have caused at least one retry.
    let tel = db.telemetry_snapshot();
    let (retries, reconnects) = (tel.counter("rpc_retries"), tel.counter("rpc_reconnects"));
    let replayed = server.stats().replays.load(Ordering::Relaxed)
        + server.stats().dup_dropped.load(Ordering::Relaxed);
    assert!(
        replayed <= retries,
        "seed {seed:#x}: {replayed} server replays/dup-drops but only {retries} client retries"
    );
    assert!(
        retries > 0,
        "seed {seed:#x}: crash window caused no RPC retries ({reconnects} reconnects)"
    );
    // 4. Read-cache coherence: the counters must reconcile with each other
    //    and with the fabric even after drops, retries and the restart.
    //    Every resident entry was admitted exactly once, so admissions
    //    bound removals; bytes the cache claims to have saved require at
    //    least one hit; occupancy respects the budget; and once compaction
    //    obsoleted tables, the version fence must have purged entries.
    let cs = cache_after;
    assert!(cs.hits() > 0, "seed {seed:#x}: cache served no hits in a 10k-op run");
    assert!(cs.bytes_saved > 0, "seed {seed:#x}: cache hits saved no fabric bytes");
    assert!(
        cs.inserts >= cs.evictions + cs.invalidations,
        "seed {seed:#x}: cache removed more entries ({} evicted + {} invalidated) than it admitted ({})",
        cs.evictions,
        cs.invalidations,
        cs.inserts
    );
    assert!(
        cs.resident_bytes <= cs.capacity_bytes,
        "seed {seed:#x}: cache over budget ({} / {} B)",
        cs.resident_bytes,
        cs.capacity_bytes
    );
    if stats.compactions > 0 {
        assert!(
            cs.invalidations > 0,
            "seed {seed:#x}: {} compactions obsoleted tables but the cache purged nothing",
            stats.compactions
        );
    }
    // Bytes the cache claims to have saved are real avoided fabric READs:
    // after the double-read sweep warmed every live table, a third full
    // sweep must be served entirely from local blocks and extents — zero
    // fabric READ bytes (the one-RTT point read became zero-RTT) — while
    // staying byte-identical to the model.
    let warm_read_before = fabric.stats().snapshot().bytes(Verb::Read);
    let warm_saved_before = db.cache_stats().unwrap().bytes_saved;
    for k in 0..KEY_SPACE {
        let got = reader
            .get(&kb(k))
            .unwrap_or_else(|e| panic!("seed {seed:#x}: warm read of key {k} failed: {e:?}"));
        assert_eq!(got, model.get(&k).cloned(), "seed {seed:#x}: warm key {k} diverged");
    }
    let warm_read_delta =
        fabric.stats().snapshot().bytes(Verb::Read).saturating_sub(warm_read_before);
    assert_eq!(
        warm_read_delta, 0,
        "seed {seed:#x}: fully warm sweep still read {warm_read_delta} B from the fabric"
    );
    assert!(
        db.cache_stats().unwrap().bytes_saved > warm_saved_before,
        "seed {seed:#x}: warm sweep was not served by the cache"
    );

    // Leak accounting: sum the extents the surviving version references,
    // by zone; after shutdown drains the GC queue, each allocator must hold
    // exactly those bytes. A retried flush that double-allocated, or a
    // dropped compaction reply whose outputs were never reclaimed, shows up
    // here as in_use > live.
    let mut flush_live = 0u64;
    let mut compact_live = 0u64;
    for (origin, _offset, len) in db.live_extents() {
        match origin {
            Origin::Compute => flush_live += len,
            Origin::MemNode => compact_live += len,
            Origin::External => panic!("seed {seed:#x}: unexpected external extent"),
        }
    }
    drop(reader);
    db.shutdown();
    assert_eq!(
        db.remote_flush_in_use(),
        flush_live,
        "seed {seed:#x}: flush zone leaked (live tables hold {flush_live} B)"
    );
    assert_eq!(
        server.compaction_zone_in_use(),
        compact_live,
        "seed {seed:#x}: compaction zone leaked (live tables hold {compact_live} B)"
    );
    server.shutdown();
}

#[test]
fn chaos_oracle_seed_1() {
    run_chaos(0x5EED_0001);
}

#[test]
fn chaos_oracle_seed_2() {
    run_chaos(0x5EED_0002);
}

#[test]
fn chaos_oracle_seed_3() {
    run_chaos(0x5EED_0003);
}
