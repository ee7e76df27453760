//! # dlsm-timeline — time-resolved telemetry
//!
//! Every other observability layer in this repo is cumulative: histograms,
//! counters and traces answer "how much, over the whole run".
//! This crate answers "**when**, and for how long" (DESIGN.md §14):
//!
//! * [`TimelineSampler`] — a tick thread (default 250 ms) that folds
//!   consecutive cumulative [`dlsm_telemetry::TelemetrySnapshot`]s into
//!   per-window delta frames: ops/s by op class, per-window p50/p99, stall
//!   micros by reason, fabric traffic and cache hit-rate.
//! * [`fold_episodes`] / [`episode_report`] — the stall-episode analyzer:
//!   the engine's `write_stall` trace spans become episodes with duration,
//!   cause, overlapping flushes and compactions (their spans), and the
//!   throughput of the windows they span, ranked into a doctor-style report
//!   correlated with p999 exemplar traces.
//!
//! The events themselves are `dlsm_trace`'s: the engine records each
//! flush, compaction and write stall as a span, and
//! [`dlsm_trace::Level::Lifecycle`] records just those without tracing
//! every op.

mod episode;
mod sampler;

pub use episode::{
    annotate_throughput, episode_report, fold_episodes, reason_name, total_stalled_micros,
    StallEpisode,
};
pub use sampler::{TimelineConfig, TimelineSampler, WindowFrame};

use dlsm_telemetry::JsonWriter;

/// Default sampler window length, milliseconds.
pub const DEFAULT_TICK_MS: u64 = 250;

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
/// spans, and the lifecycle records lost to ring wrap
/// ([`dlsm_trace::lifecycle_overwritten`]) — as the `TIMELINE_<sys>.json`
/// document that `artifact_check timeline` validates.
pub fn write_timeline_json(
    frames: &[WindowFrame],
    frames_dropped: u64,
    episodes: &[StallEpisode],
    phases: &[PhaseSpan],
    tick_ms: u64,
    engine_stall_micros: u64,
    lifecycle_overwritten: u64,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("tick_ms", tick_ms);
    w.field_u64("engine_stall_micros", engine_stall_micros);
    w.field_u64("lifecycle_overwritten", lifecycle_overwritten);
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let s = write_timeline_json(&[f], 0, &eps, &phases, 250, 50_000, 0);
        assert!(s.contains("\"tick_ms\":250"));
        assert!(s.contains("\"lifecycle_overwritten\":0"));
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
