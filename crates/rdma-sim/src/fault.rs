//! Fault injection.
//!
//! A [`FaultHook`] lets tests perturb the fabric: add latency to specific
//! verbs or drop completions entirely (the work request is posted but its
//! completion never arrives), which exercises the timeout/retry paths of the
//! RPC layer built on top.
//!
//! Two generations of hooks exist:
//!
//! * [`FaultPlan`] — fixed deterministic perturbation (delay-all,
//!   drop-every-nth), the original seed mechanism.
//! * [`ChaosPlan`] — a seeded chaos schedule: per-verb drop/delay
//!   *probabilities* driven by a reproducible counter-mode PRNG, plus
//!   scripted [`Window`]s (partition / crash) that blackhole every operation
//!   touching one node for a wall-clock interval. Failures reproduce from
//!   the printed seed.
//!
//! Drops come in two severities ([`FaultAction`]):
//!
//! * `DropCompletion` — the payload side effect still lands but the
//!   completion (and any message/immediate delivery) is lost, mirroring the
//!   lost-ACK ambiguity of real RDMA hardware;
//! * `Blackhole` — the operation vanishes entirely (cable pull / dead node):
//!   no payload, no completion, no delivery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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
}

/// Hook invoked for every posted work request.
pub trait FaultHook: Send + Sync {
    /// Extra latency added to this operation's completion deadline.
    fn extra_delay(&self, _verb: Verb, _bytes: usize) -> Duration {
        Duration::ZERO
    }

    /// If true, the operation's completion (and any remote side effect
    /// delivery such as an immediate event or message) is silently dropped.
    /// One-sided payload effects still land, mirroring the ambiguity of a
    /// lost ACK on real hardware.
    fn should_drop(&self, _verb: Verb) -> bool {
        false
    }

    /// Context-aware decision; the default delegates to [`Self::should_drop`]
    /// so pre-existing hooks keep their behavior.
    fn action(&self, ctx: &OpContext) -> FaultAction {
        if self.should_drop(ctx.verb) {
            FaultAction::DropCompletion
        } else {
            FaultAction::Deliver
        }
    }

    /// Context-aware delay; the default delegates to [`Self::extra_delay`].
    fn delay(&self, ctx: &OpContext) -> Duration {
        self.extra_delay(ctx.verb, ctx.bytes)
    }
}

/// A simple deterministic fault plan: drop every `drop_every`-th operation of
/// `drop_verb`, and delay all operations by `delay`.
pub struct FaultPlan {
    /// Added to every operation's completion deadline.
    pub delay: Duration,
    /// Which verb to drop (None = never drop).
    pub drop_verb: Option<Verb>,
    /// Drop every n-th matching operation (0 = never).
    pub drop_every: u64,
    counter: AtomicU64,
}

impl FaultPlan {
    /// Plan that only adds `delay` to every operation.
    pub fn delay_all(delay: Duration) -> FaultPlan {
        FaultPlan { delay, drop_verb: None, drop_every: 0, counter: AtomicU64::new(0) }
    }

    /// Plan that drops every `n`-th operation of `verb`.
    pub fn drop_every_nth(verb: Verb, n: u64) -> FaultPlan {
        FaultPlan {
            delay: Duration::ZERO,
            drop_verb: Some(verb),
            drop_every: n,
            counter: AtomicU64::new(0),
        }
    }
}

impl FaultHook for FaultPlan {
    fn extra_delay(&self, _verb: Verb, _bytes: usize) -> Duration {
        self.delay
    }

    fn should_drop(&self, verb: Verb) -> bool {
        if self.drop_every == 0 || self.drop_verb != Some(verb) {
            return false;
        }
        // ORDERING: relaxed — deterministic every-Nth schedule only needs the RMW's atomicity, not ordering.
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        n.is_multiple_of(self.drop_every)
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

/// What a scripted window does to operations touching its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Network partition: the node is unreachable but alive.
    Partition,
    /// Node crash: pair with `MemServer::crash()`/`restart()` on the server
    /// side; on the fabric it behaves like a partition (every op touching
    /// the node is blackholed).
    Crash,
}

/// One scripted blackhole interval for one node, relative to the plan's
/// construction instant.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// The node whose traffic is blackholed.
    pub node: NodeId,
    /// Window start, relative to plan construction.
    pub from: Duration,
    /// Window end (exclusive), relative to plan construction.
    pub until: Duration,
    /// Partition vs crash (fabric behavior is identical; the label keeps
    /// schedules self-describing).
    pub kind: WindowKind,
}

/// A seeded chaos schedule: probabilistic per-verb drops and delay jitter
/// from a reproducible PRNG, plus scripted partition/crash windows.
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
    epoch: Instant,
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
            epoch: Instant::now(),
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

    /// Blackhole everything touching `node` during `[from, until)` (relative
    /// to plan construction), as a network partition.
    pub fn partition_window(mut self, node: NodeId, from: Duration, until: Duration) -> ChaosPlan {
        self.windows.push(Window { node, from, until, kind: WindowKind::Partition });
        self
    }

    /// Blackhole everything touching `node` during `[from, until)` (relative
    /// to plan construction), as a node crash. Pair with
    /// `MemServer::crash()` + `restart()` to also stop/resume the server
    /// threads.
    pub fn crash_window(mut self, node: NodeId, from: Duration, until: Duration) -> ChaosPlan {
        self.windows.push(Window { node, from, until, kind: WindowKind::Crash });
        self
    }

    /// The reproduction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scripted windows in this plan.
    pub fn windows(&self) -> &[Window] {
        &self.windows
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

    /// Scripted windows currently open, as
    /// `(partition_windows, crash_windows)` — the live fabric-state gauge
    /// chaos runs export alongside drop/blackhole counters.
    pub fn active_windows(&self) -> (usize, usize) {
        let elapsed = self.epoch.elapsed();
        let mut partitions = 0;
        let mut crashes = 0;
        for w in &self.windows {
            if w.from <= elapsed && elapsed < w.until {
                match w.kind {
                    WindowKind::Partition => partitions += 1,
                    WindowKind::Crash => crashes += 1,
                }
            }
        }
        (partitions, crashes)
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

    fn in_window(&self, node: NodeId) -> bool {
        if self.windows.is_empty() {
            return false;
        }
        let elapsed = self.epoch.elapsed();
        self.windows
            .iter()
            .any(|w| w.node == node && w.from <= elapsed && elapsed < w.until)
    }
}

impl FaultHook for ChaosPlan {
    fn action(&self, ctx: &OpContext) -> FaultAction {
        if self.in_window(ctx.src) || self.in_window(ctx.dst) {
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

    #[test]
    fn drop_every_nth_counts_only_matching_verb() {
        let plan = FaultPlan::drop_every_nth(Verb::Send, 2);
        assert!(!plan.should_drop(Verb::Read));
        assert!(!plan.should_drop(Verb::Send)); // 1st
        assert!(plan.should_drop(Verb::Send)); // 2nd -> dropped
        assert!(!plan.should_drop(Verb::Send)); // 3rd
        assert!(plan.should_drop(Verb::Send)); // 4th -> dropped
    }

    #[test]
    fn delay_all_reports_delay() {
        let plan = FaultPlan::delay_all(Duration::from_micros(5));
        assert_eq!(plan.extra_delay(Verb::Write, 100), Duration::from_micros(5));
        assert!(!plan.should_drop(Verb::Write));
    }

    #[test]
    fn legacy_hook_maps_to_drop_completion() {
        let plan = FaultPlan::drop_every_nth(Verb::Write, 1);
        let ctx = OpContext { verb: Verb::Write, bytes: 8, src: NodeId(0), dst: NodeId(1) };
        assert_eq!(plan.action(&ctx), FaultAction::DropCompletion);
    }

    #[test]
    fn chaos_drop_rate_tracks_probability() {
        let plan = ChaosPlan::new(42).drop(Verb::Send, 0.10);
        let ctx = OpContext { verb: Verb::Send, bytes: 64, src: NodeId(0), dst: NodeId(1) };
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
        let ctx = OpContext { verb: Verb::Write, bytes: 64, src: NodeId(0), dst: NodeId(1) };
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
        let ctx = OpContext { verb: Verb::Read, bytes: 64, src: NodeId(0), dst: NodeId(1) };
        for _ in 0..1000 {
            assert!(plan.delay(&ctx) < Duration::from_micros(100));
        }
        let other = OpContext { verb: Verb::Send, ..ctx };
        assert_eq!(plan.delay(&other), Duration::ZERO);
    }

    #[test]
    fn windows_blackhole_only_their_node_and_interval() {
        let node = NodeId(5);
        let plan = ChaosPlan::new(1).crash_window(
            node,
            Duration::ZERO,
            Duration::from_millis(50),
        );
        let hit = OpContext { verb: Verb::Send, bytes: 8, src: NodeId(0), dst: node };
        let miss = OpContext { verb: Verb::Send, bytes: 8, src: NodeId(0), dst: NodeId(1) };
        assert_eq!(plan.action(&hit), FaultAction::Blackhole);
        assert_eq!(plan.action(&miss), FaultAction::Deliver);
        assert!(plan.blackholes() >= 1);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(plan.action(&hit), FaultAction::Deliver, "window expired");
    }

    #[test]
    fn active_windows_tracks_open_intervals_by_kind() {
        let plan = ChaosPlan::new(1)
            .crash_window(NodeId(1), Duration::ZERO, Duration::from_millis(50))
            .partition_window(NodeId(2), Duration::ZERO, Duration::from_millis(50))
            .partition_window(NodeId(3), Duration::from_secs(3600), Duration::from_secs(3601));
        assert_eq!(plan.active_windows(), (1, 1), "future window not active");
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(plan.active_windows(), (0, 0), "expired windows closed");
    }
}
