//! Model-check the *real* telemetry histogram and its exemplar store
//! (`dlsm-telemetry` built with the `shim` feature): concurrent `record`
//! and `merge_local` on the shared histogram must never drop a sample or
//! under-count the sum/max, whatever the interleaving of the relaxed RMWs,
//! and racing exemplar recorders must never publish a torn pair.

use std::sync::Arc;

use dlsm_check::shim::thread;
use dlsm_check::Checker;
use dlsm_telemetry::{bucket_floor, ExemplarStore, Histogram, LocalHist, BUCKETS};

/// One thread records directly while the other merges a thread-local
/// histogram in; the final snapshot must account for every sample exactly
/// once (fetch_add/fetch_max RMWs are atomic even when relaxed).
#[test]
fn concurrent_record_and_merge_counts_everything() {
    let report = Checker::new("hist-record-merge")
        .preemption_bound(2)
        .explore(|| {
            let hist = Arc::new(Histogram::new());
            let h = Arc::clone(&hist);
            let t = thread::spawn(move || {
                h.record(1);
                h.record(100);
            });
            let mut local = LocalHist::new();
            local.record(5);
            local.record(7);
            hist.merge_local(&local);
            t.join().unwrap();

            let snap = hist.snapshot();
            assert_eq!(snap.count(), 4, "a sample was lost");
            assert_eq!(snap.sum(), 113, "sum under- or over-counted");
            assert_eq!(snap.max(), 100, "fetch_max lost the maximum");
        });
    assert!(
        report.violation.is_none(),
        "histogram merge violation: {:?}",
        report.violation
    );
    assert!(report.complete, "state space truncated at {} executions", report.executions);
}

/// `ExemplarStore::record` is a try-lock seqlock writer (one CAS claims the
/// slot, a recorder that finds it claimed drops its sample). Two recorders
/// race on one bucket with distinct `(value, trace_id)` pairs while the test
/// thread snapshots it: every exemplar read is a pair one recorder wrote
/// together, a `seq` never names two pairs, and at quiescence the bucket
/// holds one of the pairs under the newest `seq`.
///
/// Both reads are `snapshot_above` the contended bucket, the last one — the
/// exemplar cut's own reader, and the same per-bucket seqlock read
/// `snapshot()` runs, minus 495 loads of slots nobody writes. Each of those
/// is a schedule point: a racing `snapshot()` is not exhaustive within
/// 30 000 interleavings even at preemption bound 2, while this one is at
/// bound 4, the other seqlock suites' bound (26 982 interleavings).
#[test]
fn racing_exemplar_recorders_never_tear_a_pair() {
    let top = bucket_floor(BUCKETS - 1);
    let pairs = [(top, 0xA), (u64::MAX, 0xB)];
    let report = Checker::new("exemplar-record-snapshot")
        .preemption_bound(4)
        .explore(move || {
            let store = Arc::new(ExemplarStore::new());
            let recorders: Vec<_> = pairs
                .iter()
                .map(|&(value_ns, trace_id)| {
                    let s = Arc::clone(&store);
                    thread::spawn(move || s.record(value_ns, trace_id))
                })
                .collect();
            let racing = store.snapshot_above(top);
            for r in recorders {
                r.join().unwrap();
            }
            let last = match store.snapshot_above(top)[..] {
                [last] => last,
                ref other => panic!("quiescent store must hold one exemplar: {other:?}"),
            };
            for e in racing.iter().chain([&last]) {
                let pair = (e.value_ns, e.trace_id);
                assert!(pairs.contains(&pair), "torn exemplar: {e:?}");
                assert_eq!(e.bucket, BUCKETS - 1, "{e:?}");
                assert!(e.seq == 1 || e.seq == 2, "two records claim seqs 1 and 2: {e:?}");
            }
            if let [seen] = racing[..] {
                let same_pair = (seen.value_ns, seen.trace_id) == (last.value_ns, last.trace_id);
                assert!(seen.seq <= last.seq, "seq went backwards: {seen:?} then {last:?}");
                assert_eq!(seen.seq == last.seq, same_pair, "seq repeated: {seen:?} vs {last:?}");
            }
        });
    assert!(
        report.violation.is_none(),
        "exemplar seqlock violation: {:?}",
        report.violation
    );
    assert!(report.complete, "state space truncated at {} executions", report.executions);
    assert!(
        report.executions >= 1000,
        "expected >= 1000 interleavings, explored {}",
        report.executions
    );
}
