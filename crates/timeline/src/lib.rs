//! # dlsm-timeline — time-resolved telemetry
//!
//! Every other observability layer in this repo is cumulative: histograms,
//! counters, traces and the profiler answer "how much, over the whole run".
//! This crate answers "**when**, and for how long" (DESIGN.md §14):
//!
//! * [`TimelineSampler`] — a tick thread (default 250 ms) that folds
//!   consecutive cumulative [`dlsm_telemetry::TelemetrySnapshot`]s into
//!   per-window delta frames: ops/s by op class, per-window p50/p99, stall
//!   micros by reason, fabric traffic and cache hit-rate.
//! * [`Journal`] — a fixed-capacity, lock-free ring of structured engine
//!   lifecycle events (memtable switch, flush and compaction start/end,
//!   stall begin/end, cache invalidation, memnode reconnect), each stamped
//!   with the trace monotonic clock and the poster's active trace id. The
//!   ring uses the same per-slot seqlock discipline as the trace rings and
//!   routes its atomics through the `shim` sync layer so crates/check can
//!   model-check it.
//! * [`fold_episodes`] / [`episode_report`] — the stall-episode analyzer:
//!   begin/end pairs become episodes with duration, cause, overlapping
//!   background work, and the throughput of the windows they span, ranked
//!   into a doctor-style report correlated with p999 exemplar traces.
//!
//! The engine posts through the process-global [`post`], which is a few
//! nanoseconds when disabled (one relaxed load) and one `fetch_add` plus
//! seven relaxed stores when enabled — cheap enough to leave compiled in
//! at every call site.

mod episode;
mod journal;
mod sampler;
mod sync;

pub use episode::{
    annotate_throughput, episode_report, fold_episodes, reason_name, total_stalled_micros,
    StallEpisode,
};
pub use journal::{EngineEvent, Journal, JournalRecord, JOURNAL_CAP};
pub use sampler::{TimelineConfig, TimelineSampler, WindowFrame};

use dlsm_metrics::MetricsRegistry;
use dlsm_telemetry::JsonWriter;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default sampler window length, milliseconds.
pub const DEFAULT_TICK_MS: u64 = 250;

/// Master switch for the global journal. Off by default: [`post`] is one
/// relaxed load when disabled.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enable or disable journal posting process-wide.
pub fn set_enabled(on: bool) {
    // ORDERING: Relaxed — a hint flag; posts carry their own timestamps
    // and the journal's own protocol publishes the payload.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether journal posting is enabled.
pub fn enabled() -> bool {
    // ORDERING: Relaxed — see `set_enabled`.
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global journal ([`JOURNAL_CAP`] slots), created on first use.
pub fn journal() -> &'static Journal {
    static JOURNAL: OnceLock<Journal> = OnceLock::new();
    JOURNAL.get_or_init(|| Journal::with_capacity(JOURNAL_CAP))
}

/// Journal-local poster thread ids: small, dense, stable per OS thread.
/// Trace has no cross-thread id we can borrow, and episode folding needs
/// to pair begin/end on the *same* thread.
fn poster_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 =
            // ORDERING: Relaxed — unique-id handout, no ordering needed.
            NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Post an event to the global journal, stamped with the trace monotonic
/// clock, the caller's active trace id (0 when none) and its poster tid.
/// Returns `false` when disabled or when the journal is full (the drop is
/// counted). Cheap enough to call unconditionally from engine code.
pub fn post(event: EngineEvent) -> bool {
    if !enabled() {
        return false;
    }
    let ts_us = dlsm_trace::now_us();
    let trace_id = dlsm_trace::current_ctx().map(|c| c.trace_id).unwrap_or(0);
    journal().post_at(ts_us, trace_id, poster_tid(), event)
}

/// Export `dlsm_timeline_journal_*` gauges for the global journal.
pub fn register_journal_metrics(registry: &MetricsRegistry) {
    registry.register(|out: &mut dlsm_metrics::Sample| {
        let j = journal();
        out.gauge("dlsm_timeline_journal_posted", j.posted() as f64);
        out.gauge("dlsm_timeline_journal_drops", j.drops() as f64);
    });
}

/// A named phase span on the trace monotonic clock, for aligning windows
/// and episodes to bench phases offline.
#[derive(Debug, Clone)]
pub struct PhaseSpan {
    /// Phase name as it appears in the bench JSON (`fill`, `read`, ...).
    pub name: String,
    /// Phase start, trace monotonic micros.
    pub start_us: u64,
    /// Phase end, trace monotonic micros.
    pub end_us: u64,
}

/// Per-phase episode summary: `(episodes, stalled_micros, worst_micros)`
/// for episodes whose *end* lands inside `[start_us, end_us)` — each
/// episode is attributed to exactly one phase.
pub fn phase_episode_summary(
    episodes: &[StallEpisode],
    start_us: u64,
    end_us: u64,
) -> (u64, u64, u64) {
    let mut count = 0u64;
    let mut stalled = 0u64;
    let mut worst = 0u64;
    for ep in episodes {
        if ep.end_us >= start_us && ep.end_us < end_us {
            count += 1;
            stalled += ep.micros;
            worst = worst.max(ep.micros);
        }
    }
    (count, stalled, worst)
}

/// Serialize the full timeline — window series, episode table, phase
/// spans and journal health — as the `TIMELINE_<sys>.json` document that
/// `artifact_check timeline` validates.
pub fn write_timeline_json(
    frames: &[WindowFrame],
    frames_dropped: u64,
    episodes: &[StallEpisode],
    phases: &[PhaseSpan],
    tick_ms: u64,
    engine_stall_micros: u64,
) -> String {
    let j = journal();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("tick_ms", tick_ms);
    w.field_u64("engine_stall_micros", engine_stall_micros);
    w.key("journal");
    w.begin_object();
    w.field_u64("attempts", j.attempts());
    w.field_u64("posted", j.posted());
    w.field_u64("drops", j.drops());
    w.field_u64("capacity", j.capacity() as u64);
    w.end_object();
    w.field_u64("frames_dropped", frames_dropped);
    w.key("windows");
    w.begin_array();
    for f in frames {
        w.begin_object();
        w.field_u64("index", f.index);
        w.field_u64("start_us", f.start_us);
        w.field_u64("end_us", f.end_us);
        w.field_f64("ops_per_sec", f.ops_per_sec());
        w.field_f64("stall_share", f.stall_share());
        w.field_f64("cache_hit_rate", f.cache_hit_rate());
        w.field_u64("rdma_ops", f.rdma_ops);
        w.field_u64("rdma_bytes", f.rdma_bytes);
        w.field_u64("stall_imm_us", f.stall_us[0]);
        w.field_u64("stall_l0_us", f.stall_us[1]);
        w.key("ops");
        w.begin_object();
        for (i, class) in dlsm_telemetry::OpClass::ALL.iter().enumerate() {
            if f.ops[i] == 0 {
                continue;
            }
            w.key(class.name());
            w.begin_object();
            w.field_u64("count", f.ops[i]);
            w.field_u64("p50_ns", f.p50_ns[i]);
            w.field_u64("p99_ns", f.p99_ns[i]);
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.key("episodes");
    w.begin_array();
    for ep in episodes {
        w.begin_object();
        w.field_u64("start_us", ep.start_us);
        w.field_u64("end_us", ep.end_us);
        w.field_u64("micros", ep.micros);
        w.field_str("reason", ep.reason_name());
        w.field_u64("trace_id", ep.trace_id);
        w.field_u64("tid", ep.tid);
        w.field_u64("concurrent_flushes", ep.concurrent_flushes);
        w.field_u64("concurrent_compactions", ep.concurrent_compactions);
        w.field_f64("ops_per_sec", ep.ops_per_sec);
        w.end_object();
    }
    w.end_array();
    w.key("phases");
    w.begin_array();
    for p in phases {
        w.begin_object();
        w.field_str("name", &p.name);
        w.field_u64("start_us", p.start_us);
        w.field_u64("end_us", p.end_us);
        let (count, stalled, worst) = phase_episode_summary(episodes, p.start_us, p.end_us);
        w.field_u64("stall_episodes", count);
        w.field_u64("stalled_micros", stalled);
        w.field_u64("worst_stall_micros", worst);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Bare-handle twins of the journal for the model checker (crates/check).
/// Only compiled under the `shim` feature so the checker can intercept the
/// atomics; pass-through outside a model execution.
#[cfg(feature = "shim")]
pub mod model {
    use crate::journal::{EngineEvent, Journal, JournalRecord};
    use crate::sync::{AtomicU64, Ordering};

    /// The real journal behind a model-friendly handle: `&'static` borrows
    /// via leak, tiny capacities, no globals.
    pub struct ModelJournal {
        inner: &'static Journal,
    }

    impl ModelJournal {
        /// Leak a `cap`-slot journal for the duration of the model run.
        #[allow(clippy::new_without_default)]
        pub fn new(cap: usize) -> ModelJournal {
            ModelJournal { inner: Box::leak(Box::new(Journal::with_capacity(cap))) }
        }

        /// Static handle for sharing across model threads.
        pub fn handle(&self) -> &'static Journal {
            self.inner
        }

        /// Post with caller-supplied stamps (no clock in model runs).
        pub fn post(&self, ts_us: u64, tid: u64, event: EngineEvent) -> bool {
            self.inner.post_at(ts_us, 0, tid, event)
        }

        /// Seqlock read of one slot.
        pub fn read(&self, idx: usize) -> Option<JournalRecord> {
            self.inner.read(idx)
        }

        /// Total attempts / drops, for exactness assertions.
        pub fn attempts(&self) -> u64 {
            self.inner.attempts()
        }

        /// Dropped posts.
        pub fn drops(&self) -> u64 {
            self.inner.drops()
        }
    }

    /// Straw-man twin with a deliberately broken publish protocol: it
    /// stores the *even* (published) version first, then the payload, with
    /// no fences — so a concurrent reader following the real seqlock read
    /// protocol can observe `version == 2` over a half-written payload.
    /// The model suite requires the checker to catch this; if it ever
    /// stops failing, the harness has lost its teeth.
    pub struct StrawSlot {
        version: AtomicU64,
        a: AtomicU64,
        b: AtomicU64,
    }

    impl Default for StrawSlot {
        fn default() -> StrawSlot {
            StrawSlot::new()
        }
    }

    impl StrawSlot {
        pub fn new() -> StrawSlot {
            StrawSlot {
                version: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            }
        }

        /// Broken writer: publishes before writing. Invariant promised to
        /// readers: `b == a + 1`.
        pub fn write_broken(&self, x: u64) {
            // ORDERING: relaxed — deliberately wrong: the published
            // version lands before the payload with nothing ordering them.
            self.version.store(2, Ordering::Relaxed);
            self.a.store(x, Ordering::Relaxed);
            // ORDERING: relaxed — second half of the deliberately broken payload.
            self.b.store(x + 1, Ordering::Relaxed);
        }

        /// The *real* seqlock read protocol, same as [`Journal::read`].
        pub fn read(&self) -> Option<(u64, u64)> {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 != 2 {
                return None;
            }
            // ORDERING: relaxed copies — same protocol as the real ring.
            let a = self.a.load(Ordering::Relaxed);
            let b = self.b.load(Ordering::Relaxed);
            crate::sync::fence(Ordering::Acquire);
            // ORDERING: relaxed — ordered after the copies by the fence.
            if self.version.load(Ordering::Relaxed) != v1 {
                return None;
            }
            Some((a, b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_post_is_a_noop() {
        set_enabled(false);
        assert!(!post(EngineEvent::MemtableSwitch { mem_id: 1 }));
    }

    #[test]
    fn poster_tids_are_stable_per_thread_and_distinct() {
        let a = poster_tid();
        let b = poster_tid();
        assert_eq!(a, b);
        let other = std::thread::spawn(poster_tid).join().unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn phase_summary_attributes_by_episode_end() {
        let ep = |end_us: u64, micros: u64| StallEpisode {
            start_us: end_us.saturating_sub(micros),
            end_us,
            micros,
            reason: dlsm_trace::STALL_IMM_QUEUE,
            trace_id: 0,
            tid: 1,
            concurrent_flushes: 0,
            concurrent_compactions: 0,
            ops_per_sec: 0.0,
        };
        let eps = vec![ep(100, 50), ep(250, 30), ep(900, 700)];
        assert_eq!(phase_episode_summary(&eps, 0, 300), (2, 80, 50));
        assert_eq!(phase_episode_summary(&eps, 300, 1000), (1, 700, 700));
        assert_eq!(phase_episode_summary(&eps, 1000, 2000), (0, 0, 0));
    }

    #[test]
    fn timeline_json_is_valid_and_carries_phase_summaries() {
        let mut f = WindowFrame { index: 0, start_us: 0, end_us: 250_000, ..Default::default() };
        f.ops[0] = 100;
        f.p50_ns[0] = 1_000;
        f.p99_ns[0] = 9_000;
        let eps = vec![StallEpisode {
            start_us: 10_000,
            end_us: 60_000,
            micros: 50_000,
            reason: dlsm_trace::STALL_L0_LIMIT,
            trace_id: 0xbeef,
            tid: 1,
            concurrent_flushes: 1,
            concurrent_compactions: 0,
            ops_per_sec: 123.0,
        }];
        let phases = vec![PhaseSpan { name: "fill".into(), start_us: 0, end_us: 250_000 }];
        let s = write_timeline_json(&[f], 0, &eps, &phases, 250, 50_000);
        assert!(s.contains("\"tick_ms\":250"));
        assert!(s.contains("\"engine_stall_micros\":50000"));
        assert!(s.contains("\"reason\":\"l0_limit\""));
        assert!(s.contains("\"stall_episodes\":1"));
        assert!(s.contains("\"stalled_micros\":50000"));
        assert!(s.contains("\"put\":{\"count\":100"));
        // Balanced braces — cheap structural sanity without a parser.
        let open = s.matches('{').count();
        let close = s.matches('}').count();
        assert_eq!(open, close);
    }
}
