//! Model-check the one seqlock of the observability crates: the *real*
//! `dlsm_trace::SeqSlot` (built with the `shim` feature) that the trace
//! rings (op and lifecycle, one writer each) and the exemplar store (racing
//! `try_publish` writers) encode their records into. Relaxed payload loads
//! may legally return stale values, and the version recheck must reject
//! every torn combination. A straw-man slot that publishes its version
//! before its payload proves the checker can catch the bug class.

use dlsm_check::shim::{fence, thread, AtomicU64, Ordering};
use dlsm_check::Checker;
use dlsm_trace::SeqSlot;

const A: [u64; 3] = [11, 22, 33];
const B: [u64; 3] = [77, 88, 99];

/// A slot shared by `&'static` borrow across model threads.
fn slot() -> &'static SeqSlot<3> {
    Box::leak(Box::new(SeqSlot::new()))
}

fn assert_whole(got: Option<[u64; 3]>) {
    if let Some(got) = got {
        assert!(got == A || got == B, "torn read: the recheck admitted a partial record: {got:?}");
    }
}

/// (a) One writer publishes twice into the same slot — a trace ring
/// wrapping onto a slot — while a reader reads it twice: the second read
/// can overlap the second publish's whole store sequence, since the first
/// publish already made the slot readable. The reader sees nothing, `A`
/// or `B`, never words from both.
#[test]
fn overwriting_publish_is_never_torn() {
    let report = Checker::new("seqslot-publish-overwrite")
        .preemption_bound(4)
        .explore(|| {
            let s = slot();
            let t = thread::spawn(move || {
                s.publish(A);
                s.publish(B);
            });
            for _ in 0..2 {
                assert_whole(s.read());
            }
            t.join().unwrap();
            assert_eq!(s.read(), Some(B), "a quiescent slot holds the last publish");
        });
    assert!(report.violation.is_none(), "seqlock violation: {:?}", report.violation);
    assert!(report.complete, "state space truncated at {} executions", report.executions);
    assert!(
        report.executions >= 1000,
        "expected >= 1000 interleavings, explored {}",
        report.executions
    );
}

/// (b) Two `try_publish` writers — exemplar recorders — race a reader. One
/// CAS decides who holds the slot; a loser drops its sample. The reader
/// never sees a mix, at least one writer wins, and the quiescent slot
/// holds a winner's record.
#[test]
fn racing_try_publishers_never_tear() {
    let report = Checker::new("seqslot-try-publish")
        .preemption_bound(4)
        .explore(|| {
            let s = slot();
            let ta = thread::spawn(move || s.try_publish(|| A));
            let tb = thread::spawn(move || s.try_publish(|| B));
            assert_whole(s.read());
            let (won_a, won_b) = (ta.join().unwrap(), tb.join().unwrap());
            let last = s.read().expect("a quiescent slot with a winner holds a record");
            match (won_a, won_b) {
                (true, true) => assert!(last == A || last == B, "{last:?}"),
                (true, false) => assert_eq!(last, A),
                (false, true) => assert_eq!(last, B),
                (false, false) => panic!("both writers dropped their sample"),
            }
        });
    assert!(report.violation.is_none(), "seqlock violation: {:?}", report.violation);
    assert!(report.complete, "state space truncated at {} executions", report.executions);
}

/// The straw man: a slot whose writer stores the even (published) version
/// *first*, then the payload, with no fences, read by `SeqSlot::read`'s
/// protocol. Invariant promised to readers: `b == a + 1`.
struct BrokenSlot {
    version: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl BrokenSlot {
    fn write_broken(&self, x: u64) {
        // ORDERING: relaxed — deliberately wrong: the published version
        // lands before the payload with nothing ordering them.
        self.version.store(2, Ordering::Relaxed);
        self.a.store(x, Ordering::Relaxed);
        // ORDERING: relaxed — second half of the deliberately broken payload.
        self.b.store(x + 1, Ordering::Relaxed);
    }

    fn read(&self) -> Option<(u64, u64)> {
        let v1 = self.version.load(Ordering::Acquire);
        if v1 != 2 {
            return None;
        }
        // ORDERING: relaxed copies — the same protocol as SeqSlot::read.
        let a = self.a.load(Ordering::Relaxed);
        let b = self.b.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        // ORDERING: relaxed — ordered after the copies by the fence.
        (self.version.load(Ordering::Relaxed) == v1).then_some((a, b))
    }
}

/// (c) The real read protocol over the straw man's broken publish has an
/// interleaving that returns a half-written payload — the checker MUST find
/// it. If this test ever fails, the harness has lost its teeth.
#[test]
fn straw_man_broken_publish_is_caught() {
    let report = Checker::new("seqslot-straw-man")
        .preemption_bound(4)
        .explore(|| {
            let slot: &'static BrokenSlot = Box::leak(Box::new(BrokenSlot {
                version: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            }));
            let t = thread::spawn(move || slot.write_broken(41));
            if let Some((a, b)) = slot.read() {
                assert!(b == a + 1, "torn read admitted by broken publish: ({a}, {b})");
            }
            t.join().unwrap();
        });
    assert!(
        report.violation.is_some(),
        "checker failed to catch the straw-man's broken publish protocol \
         ({} executions explored)",
        report.executions
    );
}
