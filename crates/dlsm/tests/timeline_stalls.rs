//! End-to-end reconciliation of the timeline event journal against the
//! engine's stall telemetry: drive a Db into real write stalls and check
//! that the folded stall episodes account for exactly the microseconds the
//! engine added to its `stall_*_micros` counters (the invariant
//! `timeline_check` enforces on benchmark artifacts, DESIGN.md §14).
//!
//! Lives in its own integration-test file because the journal is a global
//! ring: this process must not share it with unrelated tests.

use dlsm::{ComputeContext, Db, DbConfig, MemNodeHandle};
use dlsm_memnode::{MemServer, MemServerConfig};
use rdma_sim::{Fabric, NetworkProfile};

fn key(i: u64) -> Vec<u8> {
    (i.wrapping_mul(0x9E3779B97F4A7C15)).to_be_bytes().to_vec()
}

#[test]
fn stall_episodes_reconcile_with_engine_counters() {
    dlsm_timeline::set_enabled(true);
    let fabric = Fabric::new(NetworkProfile::instant());
    let server = MemServer::start(
        &fabric,
        MemServerConfig {
            region_size: 128 << 20,
            flush_zone: 48 << 20,
            compaction_workers: 2,
            dispatchers: 1,
        },
    );
    let ctx = ComputeContext::new(&fabric);
    let mem = MemNodeHandle::from_server(&server);
    // Tiny tables, a one-deep immutable queue and a low L0 ceiling: a burst
    // of puts must outrun the single flush worker and stall for real. (While
    // the puts arrive, L0 compacts at 3 tables, one below the stop.)
    let cfg = DbConfig {
        max_immutables: 1,
        flush_threads: 1,
        l0_compaction_trigger: 2,
        l0_stop_writes_trigger: Some(4),
        ..DbConfig::small()
    };
    let db = Db::open(ctx, mem, cfg).unwrap();
    let value = vec![0xA5u8; 256];
    for i in 0..8_000 {
        db.put(&key(i), &value).unwrap();
    }
    let snap = db.telemetry_snapshot();
    let engine_micros = snap.counter("stall_imm_micros") + snap.counter("stall_l0_micros");
    let engine_events = snap.counter("stall_imm_events") + snap.counter("stall_l0_events");
    db.shutdown();
    server.shutdown();

    assert!(
        engine_events > 0,
        "config failed to induce a single write stall — tighten the triggers"
    );
    let journal = dlsm_timeline::journal();
    assert_eq!(journal.drops(), 0, "tiny run must not overflow a 2^16 ring");
    let records = journal.collect();
    let episodes = dlsm_timeline::fold_episodes(&records);
    assert_eq!(
        episodes.len() as u64,
        engine_events,
        "every note_stall call must fold into exactly one episode"
    );
    let episode_micros = dlsm_timeline::total_stalled_micros(&episodes);
    // The StallEnd event carries the very micros added to the counter, and
    // nothing was dropped, so the sums agree *exactly* — stricter than the
    // 5% artifact tolerance, which only exists to absorb journal drops.
    assert_eq!(
        episode_micros, engine_micros,
        "episode sum must reconcile with stall_imm_micros + stall_l0_micros"
    );
    // Flush/compaction context made it into the journal alongside stalls.
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, dlsm_timeline::EngineEvent::FlushStart { .. })),
        "a stalling run must have journaled flushes"
    );
}
