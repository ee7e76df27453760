//! The fabric's one clock (DESIGN.md §5.1).
//!
//! Every deadline in the simulator — a completion's, a message's, a fault
//! window's edges — is a [`SimTime`]: nanoseconds since the fabric's epoch.
//! Only `Clock::now` and `Clock::wait_until` read or wait on the host's
//! clock, reached through [`crate::Fabric::now`] / [`crate::Fabric::wait_until`]
//! and a node's receives; swapping the wall clock for a modelled one changes
//! these two.

use std::ops::Add;
use std::time::{Duration, Instant};

/// An instant on the fabric's clock: nanoseconds since its epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimTime(u64);

impl SimTime {
    /// The fabric's epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The instant `nanos` after the epoch.
    pub const fn from_nanos(nanos: u64) -> SimTime {
        SimTime(nanos)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)))
    }
}

/// A fabric's epoch; the fabric and each of its nodes hold a copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
    epoch: Instant,
}

impl Clock {
    pub(crate) fn new() -> Clock {
        Clock { epoch: Instant::now() }
    }

    /// One read of the host clock.
    pub(crate) fn now(&self) -> SimTime {
        SimTime(u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Wait until the clock reaches `t`; returns at once if it has.
    pub(crate) fn wait_until(&self, t: SimTime) {
        spin_until(self.epoch + Duration::from_nanos(t.0));
    }
}

/// Spin (or sleep, for long waits) until the wall clock reaches `t`.
///
/// Long waits sleep most of the interval to avoid starving other simulated
/// threads of cores; the final stretch is spun for precision.
fn spin_until(t: Instant) {
    const SPIN_WINDOW: Duration = Duration::from_micros(60);
    let mut spins = 0u32;
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let remaining = t - now;
        // This *is* the simulated NIC — modelled fabric latency is realised
        // by waiting out the deadline. Not an engine stall: ROADMAP's parked
        // completion-driven runtime is about the engine's own waits.
        if remaining > SPIN_WINDOW {
            // HOTPATH: simulated-NIC clock wait (see above).
            std::thread::sleep(remaining - SPIN_WINDOW);
        } else {
            spins += 1;
            if spins.is_multiple_of(64) {
                // HOTPATH: same clock wait; yielding keeps core-starved
                // hosts from stalling the completing thread.
                std::thread::yield_now();
            } else {
                // HOTPATH: same clock wait (see above).
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_orders_and_adds_saturating() {
        let t = SimTime::from_nanos(1_000);
        assert_eq!(t + Duration::from_micros(2), SimTime::from_nanos(3_000));
        assert!(SimTime::ZERO < t);
        let end = SimTime::from_nanos(u64::MAX);
        assert_eq!(end + Duration::from_secs(1), end);
    }

    #[test]
    fn waiting_reaches_the_deadline() {
        let clock = Clock::new();
        let t = clock.now() + Duration::from_micros(300);
        clock.wait_until(t);
        assert!(clock.now() >= t);
    }
}
