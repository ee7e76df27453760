//! Chaos harness: reusable pieces for running the database against a
//! `BTreeMap` model oracle while a seeded [`rdma_sim::ChaosPlan`] drops
//! completions, jitters latency, and blackholes the memory node through a
//! scripted crash window.
//!
//! The actual scenarios live in `tests/crash_oracle.rs`; this library holds
//! the deterministic op-script generator and the crash driver so future
//! chaos suites (multi-node, longer schedules) can share them. Everything is
//! keyed by a single `u64` seed, printed in every panic message — to
//! reproduce a failure, re-run the test whose seed it names.

use std::sync::Arc;

use dlsm_memnode::MemServer;
use rdma_sim::{Fabric, SimTime};

/// One scripted operation: `put` (false = delete), key, version counter.
pub type Op = (bool, u64, u64);

/// Deterministic op script from a seed (xorshift64*), 10% deletes — the same
/// generator the fault-free model tests use, so a chaos failure can be
/// cross-checked against the clean run of the identical script.
pub fn script(seed: u64, ops: usize, key_space: u64) -> Vec<Op> {
    let mut x = seed | 1;
    let mut out = Vec::with_capacity(ops);
    for i in 0..ops {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let r = x.wrapping_mul(0x2545F4914F6CDD1D);
        out.push((!r.is_multiple_of(10), r % key_space, i as u64));
    }
    out
}

/// Key encoding: hashed prefix for spread, readable suffix for debugging.
pub fn kb(k: u64) -> Vec<u8> {
    let mut v = k.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes().to_vec();
    v.extend_from_slice(format!("#{k:06}").as_bytes());
    v
}

/// Drives `MemServer::crash()` / `restart()` on a schedule matching a
/// [`rdma_sim::ChaosPlan`] crash window: the fabric blackholes the node's
/// traffic during `[from, until)` while this thread stops and later resumes
/// the server's threads, both on the fabric's clock, so the network and the
/// CPU side of the failure are modeled over one interval. Join with
/// [`CrashDriver::join`] to get the server back; join blocks until the
/// restart has happened, so the caller may simply join as soon as its
/// workload is done.
pub struct CrashDriver {
    handle: std::thread::JoinHandle<MemServer>,
}

impl CrashDriver {
    /// Take ownership of `server` and crash/restart it over `[from, until)`
    /// of `fabric`'s time (the `ChaosPlan` crash window's edges).
    pub fn spawn(mut server: MemServer, fabric: Arc<Fabric>, from: SimTime, until: SimTime) -> Self {
        let handle = std::thread::spawn(move || {
            fabric.wait_until(from);
            server.crash();
            fabric.wait_until(until);
            server.restart();
            server
        });
        CrashDriver { handle }
    }

    /// Wait for the crash/restart cycle to complete and recover the server.
    pub fn join(self) -> MemServer {
        self.handle.join().expect("crash driver panicked")
    }
}

/// Dumps a stats report to stderr if the current thread unwinds while the
/// guard is alive — so a failing chaos oracle ships the LSM shape, stall
/// attribution, and remote-memory accounting alongside the panic message.
///
/// The closure runs only on panic; a clean run costs one branch at drop.
pub struct ReportOnPanic<F: Fn() -> String> {
    report: F,
}

impl<F: Fn() -> String> ReportOnPanic<F> {
    /// Arm the guard. `report` is typically
    /// `move || db.stats_report().to_string()` (or the `ShardedDb` form,
    /// which is already a `String`).
    pub fn new(report: F) -> Self {
        ReportOnPanic { report }
    }
}

impl<F: Fn() -> String> Drop for ReportOnPanic<F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("--- stats report at failure ---\n{}", (self.report)());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_deterministic_and_has_deletes() {
        let a = script(0xABCD, 1000, 100);
        assert_eq!(a, script(0xABCD, 1000, 100));
        assert_ne!(a, script(0xABCE, 1000, 100));
        let deletes = a.iter().filter(|(p, _, _)| !p).count();
        assert!(deletes > 0 && deletes < 300, "~10% deletes, got {deletes}");
    }

    #[test]
    fn keys_are_unique_and_ordered_by_hash() {
        let mut keys: Vec<Vec<u8>> = (0..500).map(kb).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 500);
    }

    #[test]
    fn report_on_panic_is_silent_without_panic() {
        // The closure must not run on a clean drop.
        use std::sync::atomic::{AtomicBool, Ordering};
        let ran = Arc::new(AtomicBool::new(false));
        let flag = ran.clone();
        let guard = ReportOnPanic::new(move || {
            flag.store(true, Ordering::Relaxed);
            String::new()
        });
        drop(guard);
        assert!(!ran.load(Ordering::Relaxed));
    }
}
