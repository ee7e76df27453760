//! End-to-end reconciliation of the stall episodes `dlsm_trace` folds from
//! the trace rings against the engine's stall telemetry: drive a Db into
//! real write stalls and check that the folded episodes, and the doctor
//! report rendered from the same events, account for exactly the
//! microseconds the engine added to its `stall_*_micros` counters (the
//! invariant `artifact_check timeline` enforces on benchmark artifacts,
//! DESIGN.md §8a) — at both levels that record stalls.
//!
//! The trace level and rings are process-global, so this file holds only
//! these tests, and they take turns.

use std::sync::Mutex;

use dlsm_repro::dlsm::{ComputeContext, Db, DbConfig, MemNodeHandle};
use dlsm_repro::memnode::{MemServer, MemServerConfig};
use dlsm_repro::rdma_sim::{Fabric, NetworkProfile};
use dlsm_trace::{Category, EventKind, Level};

const WRITES: u64 = 8_000;

fn key(i: u64) -> Vec<u8> {
    (i.wrapping_mul(0x9E3779B97F4A7C15)).to_be_bytes().to_vec()
}

/// Run a stalling put burst at `level` and return the trace events it left.
fn stall_episodes_reconcile_at(level: Level) -> Vec<dlsm_trace::Event> {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    dlsm_trace::set_level(level);
    dlsm_trace::clear();
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
    for i in 0..WRITES {
        db.put(&key(i), &value).unwrap();
    }
    let snap = db.telemetry_snapshot();
    // (events, micros) per stall reason, named as the doctor names them.
    let per_reason = [
        (dlsm_trace::STALL_IMM_QUEUE, "stall_imm_events", "stall_imm_micros"),
        (dlsm_trace::STALL_L0_LIMIT, "stall_l0_events", "stall_l0_micros"),
    ]
    .map(|(reason, events, micros)| {
        (dlsm_trace::reason_name(reason), snap.counter(events), snap.counter(micros))
    });
    let engine_events: u64 = per_reason.iter().map(|&(_, events, _)| events).sum();
    let engine_micros: u64 = per_reason.iter().map(|&(_, _, micros)| micros).sum();
    let stats = db.stats().snapshot();
    db.shutdown();
    server.shutdown();
    dlsm_trace::set_level(Level::Off);

    assert!(
        engine_events > 0,
        "config failed to induce a single write stall — tighten the triggers"
    );
    // The stats snapshot's totals are the same per-reason counters, summed.
    assert_eq!(stats.stall_events, engine_events, "{stats}");
    assert_eq!(stats.stall_nanos, 1_000 * engine_micros, "{stats}");
    assert_eq!(dlsm_trace::lifecycle_overwritten(), 0, "a lifecycle ring wrapped");
    let events = dlsm_trace::collect_events();
    let episodes = dlsm_trace::fold_episodes(&events);
    assert_eq!(
        episodes.len() as u64,
        engine_events,
        "every note_stall call must fold into exactly one episode"
    );
    // Each `write_stall` span lasts the very micros added to the counter,
    // and no lifecycle record was lost, so the sums agree *exactly* —
    // stricter than the 5% artifact tolerance.
    assert_eq!(
        dlsm_trace::total_stalled_micros(&episodes),
        engine_micros,
        "episode sum must reconcile with stall_imm_micros + stall_l0_micros"
    );
    // The doctor report states the same exact figures, reason by reason.
    let report = dlsm_trace::doctor(&events, &[], 0);
    for (name, engine_events, engine_micros) in per_reason {
        let row = format!("{name:<14} : {engine_events:>6} stalls, {engine_micros:>10} us");
        assert!(report.contains(&row), "doctor must state `{row}`:\n{report}");
    }
    // Flush context made it into the rings alongside the stalls.
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::Span && e.cat == Category::Flush && e.name == "flush"),
        "a stalling run must have recorded a flush span"
    );
    events
}

#[test]
fn stall_episodes_reconcile_with_engine_counters_at_the_lifecycle_level() {
    let events = stall_episodes_reconcile_at(Level::Lifecycle);
    assert!(events.iter().all(|e| e.cat.is_lifecycle()), "only lifecycle categories record");
}

/// Every put is a span here: the writer's 8 000 `put` spans wrap its op ring,
/// and its stalls must survive in its lifecycle ring.
#[test]
fn stall_episodes_reconcile_with_engine_counters_when_every_op_is_traced() {
    let events = stall_episodes_reconcile_at(Level::All);
    let puts = events.iter().filter(|e| e.name == "put").count() as u64;
    assert!(puts > 0 && puts < WRITES, "{puts} put spans: the writer's op ring must have wrapped");
}
