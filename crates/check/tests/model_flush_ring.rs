//! Model-check the flush-ring recycle discipline from
//! `crates/dlsm/src/remote.rs` in miniature: the flusher posts RDMA writes
//! from a small ring of buffers and may only reuse a buffer after the NIC
//! reports its write complete (FIFO, like `FlushSink::recycle` over
//! `Channel::poll_writes`).
//! Reusing early would let the NIC transmit bytes from the *next* flush
//! under the old extent — silent SSTable corruption.
//!
//! Satellite 3 of ISSUE 5: the correct path must verify exhaustively, and
//! a deliberately broken recycle (skip the completion check) must be caught.

use std::sync::Arc;

use dlsm_check::shim::{thread, AtomicBool, AtomicU64, Ordering};
use dlsm_check::Checker;

/// One posted buffer, one NIC. `checked_recycle` decides whether the
/// flusher honors the completion flag before overwriting the buffer.
struct Ring {
    /// The DMA buffer (one word of payload for the model).
    buf: AtomicU64,
    /// Flusher -> NIC: buffer posted, payload ready (release).
    posted: AtomicBool,
    /// NIC -> flusher: write drained, buffer reusable (release).
    done: AtomicBool,
    /// What the NIC actually transmitted.
    transmitted: AtomicU64,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            buf: AtomicU64::new(0),
            posted: AtomicBool::new(false),
            done: AtomicBool::new(false),
            transmitted: AtomicU64::new(0),
        }
    }

    /// NIC: drain the posted buffer (if the doorbell is visible yet).
    fn nic(&self) {
        if self.posted.load(Ordering::Acquire) {
            // ORDERING: relaxed is enough — the acquire doorbell load above
            // synchronizes with the flusher's release store after filling.
            let v = self.buf.load(Ordering::Relaxed);
            self.transmitted.store(v, Ordering::Relaxed);
            self.done.store(true, Ordering::Release);
        }
    }

    /// Flusher: fill + post the first flush, then try to reuse the buffer
    /// for the second flush's payload.
    fn flusher(&self, checked_recycle: bool) {
        // ORDERING: relaxed fill is fine — the release store to `posted`
        // below publishes the payload to the NIC's acquire load.
        self.buf.store(1, Ordering::Relaxed);
        self.posted.store(true, Ordering::Release);
        // Recycle attempt for flush #2. The real FlushSink blocks in
        // `recycle(true)`, a blocking `Channel::poll_writes`; in the model
        // we simply skip the reuse when the completion has not landed yet
        // (taking a fresh buffer instead), so no spin loop is needed.
        if !checked_recycle || self.done.load(Ordering::Acquire) {
            self.buf.store(2, Ordering::Relaxed);
        }
    }
}

fn run(checked_recycle: bool) -> dlsm_check::Report {
    Checker::new(if checked_recycle { "flush-ring-fifo" } else { "flush-ring-broken" })
        .preemption_bound(2)
        .explore(move || {
            let ring = Arc::new(Ring::new());
            let r = Arc::clone(&ring);
            let t = thread::spawn(move || r.nic());
            ring.flusher(checked_recycle);
            t.join().unwrap();
            if ring.done.load(Ordering::Acquire) {
                assert_eq!(
                    ring.transmitted.load(Ordering::Relaxed),
                    1,
                    "buffer reused while RDMA write in flight: NIC sent flush #2 bytes"
                );
            }
        })
}

/// FIFO recycle: buffer only reused after the completion flag — the NIC can
/// never transmit the second flush's bytes under the first flush's extent.
#[test]
fn fifo_recycle_never_reuses_in_flight_buffer() {
    let report = run(true);
    assert!(
        report.violation.is_none(),
        "flush-ring violation: {:?}",
        report.violation
    );
    assert!(report.complete, "state space truncated at {} executions", report.executions);
}

/// Drop the completion check and the checker must find the corruption.
#[test]
fn unchecked_recycle_is_caught() {
    let report = run(false);
    assert!(
        report.violation.is_some(),
        "checker missed the unchecked-recycle corruption in {} executions",
        report.executions
    );
}
