//! Fault injection.
//!
//! A [`FaultHook`] lets tests perturb the fabric: add latency to specific
//! verbs or drop completions entirely (the work request is posted but its
//! completion never arrives), which exercises the timeout/retry paths of the
//! RPC layer built on top. A hook sees each posted work request once, as an
//! [`OpContext`] that carries the instant it was posted on the fabric's
//! clock, and answers with a delay and a [`FaultAction`].
//!
//! [`ChaosPlan`] is the seeded chaos schedule: per-verb drop/delay
//! *probabilities* driven by a reproducible counter-mode PRNG, plus scripted
//! crash windows that blackhole every operation touching one node over an
//! interval of fabric time ([`crate::Fabric::now`]).
//! Failures reproduce from the printed seed.
//!
//! Drops come in two severities ([`FaultAction`]):
//!
//! * `DropCompletion` — the payload side effect still lands but the
//!   completion (and any message/immediate delivery) is lost, mirroring the
//!   lost-ACK ambiguity of real RDMA hardware;
//! * `Blackhole` — the operation vanishes entirely (cable pull / dead node):
//!   no payload, no completion, no delivery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::clock::SimTime;
use crate::node::NodeId;
use crate::verbs::Verb;

/// What the fabric should do with one posted work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Apply payload side effects but lose the completion and any
    /// message/immediate delivery (lost ACK).
    DropCompletion,
    /// Lose the operation entirely: no side effects, no completion
    /// (lost request / dead link).
    Blackhole,
}

/// Everything a hook may inspect about one posted work request.
#[derive(Debug, Clone, Copy)]
pub struct OpContext {
    /// The verb being posted.
    pub verb: Verb,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Posting node.
    pub src: NodeId,
    /// Target node (the remote region's owner for one-sided ops, the QP's
    /// remote endpoint for sends).
    pub dst: NodeId,
    /// When the request went on the wire, on the fabric's clock.
    pub at: SimTime,
}

/// Hook invoked for every posted work request. Both methods default to
/// leaving the request alone.
pub trait FaultHook: Send + Sync {
    /// What happens to this request.
    fn action(&self, _ctx: &OpContext) -> FaultAction {
        FaultAction::Deliver
    }

    /// Extra latency added to this request's completion deadline.
    fn delay(&self, _ctx: &OpContext) -> Duration {
        Duration::ZERO
    }
}

const VERBS: usize = 6;

fn verb_index(verb: Verb) -> usize {
    match verb {
        Verb::Read => 0,
        Verb::Write => 1,
        Verb::WriteImm => 2,
        Verb::Send => 3,
        Verb::FetchAdd => 4,
        Verb::CompareSwap => 5,
    }
}

/// One scripted blackhole interval for one node, on the fabric's clock.
struct Window {
    node: NodeId,
    from: SimTime,
    /// Exclusive.
    until: SimTime,
}

/// A seeded chaos schedule: probabilistic per-verb drops and delay jitter
/// from a reproducible PRNG, plus scripted crash windows.
///
/// Randomness is counter-mode: decision `n` is `splitmix64(seed ^ n)`, so a
/// schedule is fully determined by its seed and the order in which
/// operations hit the fabric. Tests print the seed on failure
/// ([`ChaosPlan::seed`]).
pub struct ChaosPlan {
    seed: u64,
    counter: AtomicU64,
    /// Drop probability per verb, in parts per million.
    drop_ppm: [u32; VERBS],
    /// Upper bound of uniform delay jitter per verb.
    max_jitter: [Duration; VERBS],
    windows: Vec<Window>,
    /// Decisions taken (diagnostics).
    drops: AtomicU64,
    blackholes: AtomicU64,
}

impl ChaosPlan {
    /// A plan with no perturbation; configure with the builder methods.
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            counter: AtomicU64::new(0),
            drop_ppm: [0; VERBS],
            max_jitter: [Duration::ZERO; VERBS],
            windows: Vec::new(),
            drops: AtomicU64::new(0),
            blackholes: AtomicU64::new(0),
        }
    }

    /// Drop completions of `verb` with probability `prob` (0.0–1.0).
    pub fn drop(mut self, verb: Verb, prob: f64) -> ChaosPlan {
        // PANIC-SAFE: builder argument check while the plan is written, before
        // any run.
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.drop_ppm[verb_index(verb)] = (prob * 1_000_000.0) as u32;
        self
    }

    /// Add uniform delay jitter in `[0, max]` to every operation of `verb`.
    pub fn jitter(mut self, verb: Verb, max: Duration) -> ChaosPlan {
        self.max_jitter[verb_index(verb)] = max;
        self
    }

    /// Blackhole everything touching `node` posted during `[from, until)`:
    /// a node crash on the fabric, or a partition (the fabric cannot tell
    /// them apart). Pair with `MemServer::crash()` + `restart()` to also
    /// stop/resume the server threads.
    pub fn crash_window(mut self, node: NodeId, from: SimTime, until: SimTime) -> ChaosPlan {
        self.windows.push(Window { node, from, until });
        self
    }

    /// The reproduction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Completions probabilistically dropped so far.
    pub fn drops(&self) -> u64 {
        // ORDERING: relaxed — fault counters read for reporting.
        self.drops.load(Ordering::Relaxed)
    }

    /// Operations blackholed by scripted windows so far.
    pub fn blackholes(&self) -> u64 {
        // ORDERING: relaxed — fault counters read for reporting.
        self.blackholes.load(Ordering::Relaxed)
    }

    /// Counter-mode PRNG draw: uniform 64 bits for decision `n`.
    fn draw(&self) -> u64 {
        // ORDERING: relaxed — every-Nth schedule; atomicity only.
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let mut z = self.seed ^ n.wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn in_window(&self, node: NodeId, at: SimTime) -> bool {
        self.windows.iter().any(|w| w.node == node && w.from <= at && at < w.until)
    }
}

impl FaultHook for ChaosPlan {
    fn action(&self, ctx: &OpContext) -> FaultAction {
        if self.in_window(ctx.src, ctx.at) || self.in_window(ctx.dst, ctx.at) {
            // ORDERING: relaxed — fault counter; reporting only.
            self.blackholes.fetch_add(1, Ordering::Relaxed);
            return FaultAction::Blackhole;
        }
        let ppm = self.drop_ppm[verb_index(ctx.verb)];
        if ppm > 0 && self.draw() % 1_000_000 < ppm as u64 {
            // ORDERING: relaxed — fault counter; reporting only.
            self.drops.fetch_add(1, Ordering::Relaxed);
            return FaultAction::DropCompletion;
        }
        FaultAction::Deliver
    }

    fn delay(&self, ctx: &OpContext) -> Duration {
        let max = self.max_jitter[verb_index(ctx.verb)];
        if max.is_zero() {
            return Duration::ZERO;
        }
        let nanos = max.as_nanos().max(1) as u64;
        Duration::from_nanos(self.draw() % nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 64-byte `verb` from node 0 to node 1, posted at the epoch.
    fn op(verb: Verb) -> OpContext {
        OpContext { verb, bytes: 64, src: NodeId(0), dst: NodeId(1), at: SimTime::ZERO }
    }

    #[test]
    fn chaos_drop_rate_tracks_probability() {
        let plan = ChaosPlan::new(42).drop(Verb::Send, 0.10);
        let ctx = op(Verb::Send);
        let n = 20_000;
        let dropped = (0..n)
            .filter(|_| plan.action(&ctx) == FaultAction::DropCompletion)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!(
            (0.08..0.12).contains(&rate),
            "10% nominal, measured {rate}"
        );
        // Other verbs untouched.
        let read = OpContext { verb: Verb::Read, ..ctx };
        assert!((0..1000).all(|_| plan.action(&read) == FaultAction::Deliver));
    }

    #[test]
    fn chaos_same_seed_same_schedule() {
        let ctx = op(Verb::Write);
        let run = |seed| {
            let plan = ChaosPlan::new(seed).drop(Verb::Write, 0.05);
            (0..512).map(|_| plan.action(&ctx) == FaultAction::Deliver).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn jitter_bounded_and_seeded() {
        let plan = ChaosPlan::new(3).jitter(Verb::Read, Duration::from_micros(100));
        let ctx = op(Verb::Read);
        for _ in 0..1000 {
            assert!(plan.delay(&ctx) < Duration::from_micros(100));
        }
        let other = OpContext { verb: Verb::Send, ..ctx };
        assert_eq!(plan.delay(&other), Duration::ZERO);
    }

    #[test]
    fn windows_blackhole_only_their_node_and_interval() {
        let node = NodeId(5);
        let (from, until) = (SimTime::from_nanos(1_000), SimTime::from_nanos(2_000));
        let plan = ChaosPlan::new(1).crash_window(node, from, until);
        let post = |src, dst, at| OpContext { src, dst, at, ..op(Verb::Send) };
        let hit = |at| plan.action(&post(NodeId(0), node, at));
        assert_eq!(hit(SimTime::ZERO), FaultAction::Deliver);
        assert_eq!(hit(SimTime::from_nanos(999)), FaultAction::Deliver, "before the window");
        assert_eq!(hit(from), FaultAction::Blackhole, "window start");
        assert_eq!(hit(SimTime::from_nanos(1_999)), FaultAction::Blackhole, "last nanosecond");
        assert_eq!(hit(until), FaultAction::Deliver, "window end is exclusive");
        // The node is blackholed as a sender too; other nodes never are.
        assert_eq!(plan.action(&post(node, NodeId(1), from)), FaultAction::Blackhole);
        for at in [SimTime::ZERO, from, SimTime::from_nanos(1_999), until] {
            assert_eq!(plan.action(&post(NodeId(0), NodeId(1), at)), FaultAction::Deliver);
        }
        assert_eq!(plan.blackholes(), 3);
    }
}
