//! Runnable chaos demo: a seeded fault schedule (dropped completions,
//! latency jitter, one crash-restart of the memory node) under a live
//! workload, with a model-oracle verdict at the end.
//!
//! ```text
//! cargo run --release -p dlsm-chaos --example crash_demo [seed-hex]
//! ```
//!
//! Prints what the schedule actually did (drops, blackholed verbs, restart)
//! and whether the store still agrees byte-for-byte with an in-memory
//! model. The integration tests in `tests/crash_oracle.rs` assert the same
//! invariants across fixed seeds; this example exists to poke the harness
//! interactively with a seed of your choice.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use dlsm::{ComputeContext, Db, DbConfig, MemNodeHandle};
use dlsm_chaos::{kb, script, CrashDriver};
use dlsm_memnode::{MemServer, MemServerConfig, RetryPolicy};
use rdma_sim::{ChaosPlan, Fabric, NetworkProfile, Verb};

const OPS: usize = 10_000;
const KEY_SPACE: u64 = 1_200;
const CRASH_FROM: Duration = Duration::from_millis(250);
const CRASH_UNTIL: Duration = Duration::from_millis(550);

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("seed is hex"))
        .unwrap_or(0x5EED_0001);
    println!("chaos demo: seed {seed:#x}, {OPS} ops over {KEY_SPACE} keys");
    println!(
        "schedule: drop 2% Send / 1.5% Write / 1% FetchAdd, 80µs jitter, \
         crash window [{CRASH_FROM:?}, {CRASH_UNTIL:?})"
    );

    let fabric = Fabric::new(NetworkProfile::instant());
    let server = MemServer::start(
        &fabric,
        MemServerConfig {
            region_size: 128 << 20,
            flush_zone: 64 << 20,
            compaction_workers: 2,
            dispatchers: 1,
        },
    );
    let mem_node = server.node_id();
    let db = Db::open(
        ComputeContext::new(&fabric),
        MemNodeHandle::from_server(&server),
        DbConfig {
            rpc_retry: RetryPolicy {
                max_attempts: 24,
                backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(100),
                reconnect_after: 2,
                attempt_timeout: Some(Duration::from_millis(200)),
            },
            ..DbConfig::small()
        },
    )
    .unwrap();

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
    let driver = CrashDriver::spawn(server, Arc::clone(&fabric), crash_from, crash_until);

    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for (i, (is_put, k, version)) in script(seed, OPS, KEY_SPACE).into_iter().enumerate() {
        if is_put {
            let value = format!("v{k}@{version}").into_bytes();
            db.put(&kb(k), &value).expect("acked put");
            model.insert(k, value);
        } else {
            db.delete(&kb(k)).expect("acked delete");
            model.remove(&k);
        }
        if i % 16 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let server = driver.join();
    println!(
        "survived: {} completions dropped, {} blackholed, {} restart(s), node up: {}",
        plan.drops(),
        plan.blackholes(),
        server.stats().restarts.load(Ordering::Relaxed),
        !server.is_crashed(),
    );
    fabric.set_fault_hook(None);

    db.force_flush().expect("post-chaos flush");
    db.wait_until_quiescent();
    let mut reader = db.reader();
    let mut diverged = 0usize;
    for k in 0..KEY_SPACE {
        if reader.get(&kb(k)).expect("final read") != model.get(&k).cloned() {
            diverged += 1;
        }
    }
    db.shutdown();
    server.shutdown();
    if diverged == 0 {
        println!("oracle: all {KEY_SPACE} keys match the model — no lost acked writes");
    } else {
        println!("oracle: {diverged} keys DIVERGED from the model");
        std::process::exit(1);
    }
}
