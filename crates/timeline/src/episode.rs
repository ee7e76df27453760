//! Stall-episode analyzer: each `write_stall` trace span is one episode,
//! with a start, an end, a cause, the flushes and compactions it overlapped
//! (their spans), and the throughput of the windows it spans — plus a
//! doctor-style report ranking the worst episodes.

use crate::sampler::WindowFrame;
use dlsm_trace::{Category, Event, EventKind};

/// One folded stall episode.
#[derive(Debug, Clone, PartialEq)]
pub struct StallEpisode {
    /// Episode start, trace monotonic micros.
    pub start_us: u64,
    /// Episode end: when the writer resumed.
    pub end_us: u64,
    /// Stalled duration — the exact value the engine added to its
    /// `stall_*_micros` counter, so episode sums reconcile with deltas.
    pub micros: u64,
    /// Stall reason (trace arg code: imm-queue or L0-limit).
    pub reason: u64,
    /// Trace id of the stall span: the stalled put's trace when ops are
    /// traced, the span's own otherwise.
    pub trace_id: u64,
    /// Trace-local id of the stalled thread.
    pub tid: u64,
    /// Flush spans that overlapped the episode.
    pub concurrent_flushes: u64,
    /// Compaction spans that overlapped the episode.
    pub concurrent_compactions: u64,
    /// Foreground throughput averaged over the windows the episode spans
    /// (0.0 when no window data was available).
    pub ops_per_sec: f64,
}

impl StallEpisode {
    /// Human-readable reason name, matching the trace stall arg codes.
    pub fn reason_name(&self) -> &'static str {
        reason_name(self.reason)
    }
}

/// Name for a stall reason arg code.
pub fn reason_name(reason: u64) -> &'static str {
    match reason {
        dlsm_trace::STALL_IMM_QUEUE => "imm_queue_full",
        dlsm_trace::STALL_L0_LIMIT => "l0_limit",
        _ => "unknown",
    }
}

/// Fold trace events into stall episodes, oldest first: one per
/// `write_stall` span, whose arg is the reason and whose length is the
/// stalled micros. Overlap counts come from the `flush` and `compaction`
/// spans (not their sub-spans); a flush or compaction still running when
/// the rings were read has no span yet and is not counted.
pub fn fold_episodes(events: &[Event]) -> Vec<StallEpisode> {
    let spans = |cat: Category, name: &'static str| {
        events.iter().filter(move |e| e.kind == EventKind::Span && e.cat == cat && e.name == name)
    };
    let intervals = |cat, name| -> Vec<(u64, u64)> {
        spans(cat, name).map(|e| (e.ts_us, e.end_us())).collect()
    };
    let flushes = intervals(Category::Flush, "flush");
    let compactions = intervals(Category::Compact, "compaction");
    let overlapping = |work: &[(u64, u64)], start_us: u64, end_us: u64| {
        work.iter().filter(|&&(s, e)| s < end_us && start_us < e).count() as u64
    };
    let mut episodes: Vec<StallEpisode> = spans(Category::Stall, "write_stall")
        .map(|e| {
            let (start_us, end_us) = (e.ts_us, e.end_us());
            let until = end_us.max(start_us + 1);
            StallEpisode {
                start_us,
                end_us,
                micros: e.dur_us,
                reason: e.arg,
                trace_id: e.trace_id,
                tid: e.tid,
                concurrent_flushes: overlapping(&flushes, start_us, until),
                concurrent_compactions: overlapping(&compactions, start_us, until),
                ops_per_sec: 0.0,
            }
        })
        .collect();
    episodes.sort_by_key(|ep| (ep.start_us, ep.tid));
    episodes
}

/// Fill each episode's `ops_per_sec` with the mean foreground throughput
/// of the sampler windows it overlaps.
pub fn annotate_throughput(episodes: &mut [StallEpisode], frames: &[WindowFrame]) {
    for ep in episodes.iter_mut() {
        let spanned: Vec<&WindowFrame> = frames
            .iter()
            .filter(|f| f.start_us < ep.end_us.max(ep.start_us + 1) && ep.start_us < f.end_us)
            .collect();
        if spanned.is_empty() {
            continue;
        }
        let sum: f64 = spanned.iter().map(|f| f.ops_per_sec()).sum();
        ep.ops_per_sec = sum / spanned.len() as f64;
    }
}

/// Total stalled micros across episodes.
pub fn total_stalled_micros(episodes: &[StallEpisode]) -> u64 {
    episodes.iter().map(|e| e.micros).sum()
}

/// Render the "top N stall episodes" doctor table. `exemplars` are
/// `(trace_id, nanos)` pairs from the p999 exemplar stores; when an
/// episode's trace id is among them it is flagged as a p999 exemplar.
/// `origin_us` anchors the start-offset column (run start on the trace
/// monotonic clock).
pub fn episode_report(
    episodes: &[StallEpisode],
    exemplars: &[(u64, u64)],
    origin_us: u64,
    top: usize,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let total_ms = total_stalled_micros(episodes) as f64 / 1e3;
    let _ = writeln!(
        out,
        "stall episodes: {} total, {:.1} ms stalled",
        episodes.len(),
        total_ms
    );
    if episodes.is_empty() {
        return out;
    }
    let mut ranked: Vec<&StallEpisode> = episodes.iter().collect();
    ranked.sort_by_key(|e| std::cmp::Reverse(e.micros));
    let _ = writeln!(
        out,
        "  {:>10}  {:>10}  {:<14}  {:>5}  {:>7}  {:>10}  trace",
        "start(s)", "dur(ms)", "reason", "flush", "compact", "ops/s"
    );
    for ep in ranked.iter().take(top) {
        let start_s = ep.start_us.saturating_sub(origin_us) as f64 / 1e6;
        let exemplar = ep.trace_id != 0 && exemplars.iter().any(|(id, _)| *id == ep.trace_id);
        let trace = if ep.trace_id == 0 {
            "-".to_string()
        } else if exemplar {
            format!("{:#x} [p999 exemplar]", ep.trace_id)
        } else {
            format!("{:#x}", ep.trace_id)
        };
        let _ = writeln!(
            out,
            "  {:>10.3}  {:>10.2}  {:<14}  {:>5}  {:>7}  {:>10.0}  {}",
            start_s,
            ep.micros as f64 / 1e3,
            ep.reason_name(),
            ep.concurrent_flushes,
            ep.concurrent_compactions,
            ep.ops_per_sec,
            trace
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: Category, name: &'static str, ts_us: u64, dur_us: u64, tid: u64, arg: u64)
        -> Event {
        Event {
            node_id: 0,
            node_label: "compute",
            tid,
            kind: EventKind::Span,
            cat,
            name,
            ts_us,
            dur_us,
            trace_id: tid << 32 | ts_us,
            span_id: tid << 32 | ts_us,
            parent_id: 0,
            arg,
        }
    }

    fn stall(ts_us: u64, micros: u64, tid: u64, reason: u64) -> Event {
        span(Category::Stall, "write_stall", ts_us, micros, tid, reason)
    }

    #[test]
    fn every_stall_span_is_one_episode_with_its_exact_length() {
        let mut put = span(Category::Db, "put", 90, 400, 1, 1);
        put.trace_id = 0xabc;
        let mut in_put = stall(100, 300, 1, dlsm_trace::STALL_IMM_QUEUE);
        in_put.trace_id = 0xabc;
        let events = vec![stall(150, 350, 2, dlsm_trace::STALL_L0_LIMIT), put, in_put];
        let eps = fold_episodes(&events);
        assert_eq!(eps.len(), 2);
        assert_eq!((eps[0].start_us, eps[0].end_us, eps[0].micros), (100, 400, 300));
        assert_eq!(eps[0].reason_name(), "imm_queue_full");
        assert_eq!(eps[0].trace_id, 0xabc);
        assert_eq!(eps[1].tid, 2);
        assert_eq!(eps[1].reason_name(), "l0_limit");
        assert_eq!(total_stalled_micros(&eps), 650);
    }

    #[test]
    fn counts_overlapping_flush_and_compaction_spans_by_name() {
        let events = vec![
            span(Category::Flush, "flush", 50, 150, 9, 1),
            stall(100, 200, 1, dlsm_trace::STALL_IMM_QUEUE),
            span(Category::Compact, "compaction", 120, 800, 8, 0),
            // Sub-spans of the same work are not extra flushes/compactions.
            span(Category::Flush, "flush_rdma_write", 60, 100, 9, 0),
            span(Category::Compact, "compact_subtask", 130, 50, 7, 0),
            // After the episode.
            span(Category::Flush, "flush", 900, 50, 7, 2),
        ];
        let eps = fold_episodes(&events);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].concurrent_flushes, 1, "second flush is after the episode");
        assert_eq!(eps[0].concurrent_compactions, 1);
    }

    #[test]
    fn annotates_throughput_from_spanned_windows() {
        let mut eps = vec![StallEpisode {
            start_us: 100,
            end_us: 300,
            micros: 200,
            reason: dlsm_trace::STALL_IMM_QUEUE,
            trace_id: 0,
            tid: 1,
            concurrent_flushes: 0,
            concurrent_compactions: 0,
            ops_per_sec: 0.0,
        }];
        let mk = |start_us: u64, end_us: u64, puts: u64| {
            let mut f = WindowFrame { start_us, end_us, ..WindowFrame::default() };
            f.ops[0] = puts;
            f
        };
        // 1M us windows so ops/s == puts; episode spans the first two only.
        let frames = vec![mk(0, 200, 10), mk(200, 400, 30), mk(400, 600, 1000)];
        annotate_throughput(&mut eps, &frames);
        // Window spans are 200 us => ops/s = puts / 200e-6.
        let expect = (10.0 / 200e-6 + 30.0 / 200e-6) / 2.0;
        assert!((eps[0].ops_per_sec - expect).abs() < 1e-6);
    }

    #[test]
    fn report_ranks_by_duration_and_flags_exemplars() {
        let mut eps = Vec::new();
        for (i, micros) in [(1u64, 100u64), (2, 900), (3, 400)] {
            eps.push(StallEpisode {
                start_us: 1_000 * i,
                end_us: 1_000 * i + micros,
                micros,
                reason: dlsm_trace::STALL_L0_LIMIT,
                trace_id: i,
                tid: i,
                concurrent_flushes: 0,
                concurrent_compactions: 0,
                ops_per_sec: 0.0,
            });
        }
        let report = episode_report(&eps, &[(2, 5_000_000)], 0, 2);
        assert!(report.contains("3 total"));
        let lines: Vec<&str> = report.lines().collect();
        // Header + column row + top-2 rows.
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("0.90"), "worst episode first: {report}");
        assert!(lines[2].contains("[p999 exemplar]"));
        assert!(lines[3].contains("0.40"));
    }

    #[test]
    fn empty_input_is_quiet() {
        assert!(fold_episodes(&[]).is_empty());
        let report = episode_report(&[], &[], 0, 5);
        assert!(report.contains("0 total"));
    }
}
