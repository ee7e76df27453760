//! Time-series ingestion — the write-heavy workload the paper's introduction
//! motivates for LSM indexes.
//!
//! Several sensor "gateways" ingest readings concurrently into a λ-sharded
//! dLSM; a dashboard thread periodically range-scans the most recent window.
//! Keys are `sensor_id (4B BE) || timestamp (8B BE)` so each sensor's
//! readings are contiguous and a scan from `(sensor, t0)` streams a window.
//!
//! ```text
//! cargo run --release --example time_series_ingest
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dlsm_repro::dlsm::{ComputeContext, DbConfig, MemNodeHandle, ShardedDb};
use dlsm_repro::memnode::{MemServer, MemServerConfig};
use dlsm_repro::rdma_sim::{Fabric, NetworkProfile};

const SENSORS: u32 = 64;
const READINGS_PER_SENSOR: u64 = 4_000;
const GATEWAYS: usize = 4;

/// The 4-byte sensor prefix, spread across the key space so range shards
/// (which partition by leading bytes) each own a contiguous band of sensors.
fn sensor_prefix(sensor: u32) -> [u8; 4] {
    sensor.wrapping_mul(u32::MAX / SENSORS).to_be_bytes()
}

fn key(sensor: u32, ts: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(12);
    k.extend_from_slice(&sensor_prefix(sensor));
    k.extend_from_slice(&ts.to_be_bytes());
    k
}

fn reading(sensor: u32, ts: u64) -> Vec<u8> {
    // A plausible payload: value, quality flag, site tag.
    format!("v={:.3};q=ok;site=rack{:02}", (sensor as f64 * 0.7 + ts as f64).sin(), sensor % 16)
        .into_bytes()
}

fn main() {
    let fabric = Fabric::new(NetworkProfile::edr_100g());
    let server = MemServer::start(
        &fabric,
        MemServerConfig {
            region_size: 512 << 20,
            flush_zone: 192 << 20,
            compaction_workers: 4,
            dispatchers: 1,
        },
    );
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    // λ = 4 range shards: parallel L0 compaction under sustained ingest
    // (paper Sec. VII).
    let db = Arc::new(
        ShardedDb::open(ctx, &[mem], DbConfig::default(), 4).expect("open sharded dLSM"),
    );

    let ingested = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        // Gateways: each ingests a disjoint set of sensors, timestamps
        // interleaved like real arrival order.
        for g in 0..GATEWAYS as u32 {
            let db = Arc::clone(&db);
            let ingested = Arc::clone(&ingested);
            s.spawn(move || {
                for ts in 0..READINGS_PER_SENSOR {
                    for sensor in (g..SENSORS).step_by(GATEWAYS) {
                        db.put(&key(sensor, ts), &reading(sensor, ts)).expect("ingest");
                        ingested.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // Dashboard: every so often, scan the latest 256 readings of one
        // sensor (a bounded range query).
        let db2 = Arc::clone(&db);
        let ingested2 = Arc::clone(&ingested);
        s.spawn(move || {
            let total = SENSORS as u64 * READINGS_PER_SENSOR;
            let mut reader = db2.reader();
            let mut windows = 0u32;
            while ingested2.load(Ordering::Relaxed) < total {
                let sensor = windows % SENSORS;
                let newest = ingested2.load(Ordering::Relaxed) / SENSORS as u64;
                let from = newest.saturating_sub(256);
                // The window's end is known, so say it: the scan then
                // fetches this sensor's 256 readings and nothing after them.
                let window = reader.scan_range(&key(sensor, from), &key(sensor, from + 256));
                let rows = window.expect("scan").inspect(|item| assert!(item.is_ok(), "scan item")).count();
                assert!(rows <= 256);
                windows += 1;
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            println!("dashboard served {windows} window queries during ingest");
        });
    });
    let total = ingested.load(Ordering::Relaxed);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "ingested {total} readings from {SENSORS} sensors in {secs:.2}s ({:.0} readings/s)",
        total as f64 / secs
    );

    // Verify a full sensor history survived flush + compaction.
    db.wait_until_quiescent();
    let mut reader = db.reader();
    let history = reader.scan_range(&key(7, 0), &key(7, u64::MAX)).expect("scan");
    let rows = history.inspect(|item| assert!(item.is_ok(), "scan item")).count() as u64;
    assert_eq!(rows, READINGS_PER_SENSOR, "sensor 7 history incomplete");
    println!("sensor 7 history intact: {rows} readings");
    for (i, shard) in db.shards().iter().enumerate() {
        println!("shard {i}: levels {:?}", shard.level_shape());
    }
    db.shutdown();
    server.shutdown();
}
