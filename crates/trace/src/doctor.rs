//! The stall report. Each `write_stall` span is one [`StallEpisode`], with a
//! start, an end, a cause and the flushes and compactions it overlapped
//! (their spans); [`doctor`] renders the episodes of one [`fold_episodes`]
//! pass as a per-reason attribution and a ranked worst-episodes table,
//! beside the RPC retries and the time per category.

use crate::{Category, Event, EventKind, STALL_IMM_QUEUE, STALL_L0_LIMIT};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Rows in the doctor report's worst-episodes table.
const TOP_EPISODES: usize = 5;

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
        STALL_IMM_QUEUE => "imm_queue_full",
        STALL_L0_LIMIT => "l0_limit",
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
            }
        })
        .collect();
    episodes.sort_by_key(|ep| (ep.start_us, ep.tid));
    episodes
}

/// Total stalled micros across episodes.
pub fn total_stalled_micros(episodes: &[StallEpisode]) -> u64 {
    episodes.iter().map(|e| e.micros).sum()
}

/// Plain-text "doctor" report: where did the time go, and in particular,
/// what caused the write stalls (immutable-queue backpressure vs. the L0
/// stop-writes limit) and which episodes were worst. `exemplars` are the
/// trace ids of published p999 exemplars: an episode inside one is flagged.
/// `origin_us` anchors the episodes' start-offset column (run start on the
/// trace monotonic clock).
pub fn doctor(events: &[Event], exemplars: &[u64], origin_us: u64) -> String {
    let episodes = fold_episodes(events);
    // (count, µs) per reason name; both engine reasons always get a row.
    let mut by_reason: BTreeMap<&'static str, (u64, u64)> =
        [STALL_IMM_QUEUE, STALL_L0_LIMIT].map(|r| (reason_name(r), (0, 0))).into();
    for ep in &episodes {
        let row = by_reason.entry(ep.reason_name()).or_default();
        row.0 += 1;
        row.1 += ep.micros;
    }
    let (mut retries, mut reconnects) = (0u64, 0u64);
    let mut cat_us: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Span => {
                let slot = cat_us.entry(e.cat.name()).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += e.dur_us;
            }
            EventKind::Instant => match e.name {
                "rpc_retry" => retries += 1,
                "rpc_reconnect" => reconnects += 1,
                _ => {}
            },
        }
    }
    let stall_total = total_stalled_micros(&episodes);
    let pct = |us: u64| {
        if stall_total == 0 {
            0.0
        } else {
            100.0 * us as f64 / stall_total as f64
        }
    };
    let mut out = String::new();
    out.push_str("== dlsm-trace doctor ==\n");
    let _ = writeln!(out, "events collected: {}", events.len());
    out.push_str("\nstall attribution:\n");
    for (name, (count, us)) in by_reason {
        let _ = writeln!(out, "  {name:<14} : {count:>6} stalls, {us:>10} us ({:.1}%)", pct(us));
    }
    let _ = writeln!(out, "  {:<14} : {stall_total:>10} us", "total");
    worst_episodes(&mut out, &episodes, exemplars, origin_us, TOP_EPISODES);
    let _ = writeln!(out, "\nrpc retries: {retries}, reconnects: {reconnects}");
    out.push_str("\ntime by category (spans, wall-µs, incl. nesting):\n");
    let mut cats: Vec<(&'static str, (u64, u64))> = cat_us.into_iter().collect();
    cats.sort_by_key(|&(_, (_, us))| std::cmp::Reverse(us));
    for (name, (count, us)) in cats {
        let _ = writeln!(out, "  {name:<8} {count:>8} spans {us:>12} us");
    }
    out
}

/// The doctor's ranked table: the `top` longest episodes, longest first.
fn worst_episodes(
    out: &mut String,
    episodes: &[StallEpisode],
    exemplars: &[u64],
    origin_us: u64,
    top: usize,
) {
    if episodes.is_empty() {
        return;
    }
    let mut ranked: Vec<&StallEpisode> = episodes.iter().collect();
    ranked.sort_by_key(|e| std::cmp::Reverse(e.micros));
    let shown = top.min(ranked.len());
    let _ = writeln!(out, "\nworst stall episodes ({shown} of {}):", ranked.len());
    let _ = writeln!(
        out,
        "  {:>10}  {:>10}  {:<14}  {:>5}  {:>7}  trace",
        "start(s)", "dur(ms)", "reason", "flush", "compact"
    );
    for ep in ranked.iter().take(top) {
        let start_s = ep.start_us.saturating_sub(origin_us) as f64 / 1e6;
        let trace = if ep.trace_id == 0 {
            "-".to_string()
        } else if exemplars.contains(&ep.trace_id) {
            format!("{:#x} [p999 exemplar]", ep.trace_id)
        } else {
            format!("{:#x}", ep.trace_id)
        };
        let _ = writeln!(
            out,
            "  {:>10.3}  {:>10.2}  {:<14}  {:>5}  {:>7}  {}",
            start_s,
            ep.micros as f64 / 1e3,
            ep.reason_name(),
            ep.concurrent_flushes,
            ep.concurrent_compactions,
            trace
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_lock;
    use crate::{clear, collect_events, instant, set_level, span_arg, Level};

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
        let mut in_put = stall(100, 300, 1, STALL_IMM_QUEUE);
        in_put.trace_id = 0xabc;
        let events = vec![stall(150, 350, 2, STALL_L0_LIMIT), put, in_put];
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
            stall(100, 200, 1, STALL_IMM_QUEUE),
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
    fn worst_episodes_rank_by_duration_and_flag_exemplars() {
        let events: Vec<Event> =
            [(1u64, 100u64), (2, 900), (3, 400)]
            .map(|(i, us)| stall(1_000 * i, us, i, STALL_L0_LIMIT))
            .into();
        let eps = fold_episodes(&events);
        let mut table = String::new();
        worst_episodes(&mut table, &eps, &[eps[1].trace_id], 0, 2);
        assert!(table.contains("(2 of 3)"), "{table}");
        let lines: Vec<&str> = table.lines().collect();
        // Blank + title + column row + top-2 rows.
        assert_eq!(lines.len(), 5, "{table}");
        assert!(lines[3].contains("0.90"), "worst episode first: {table}");
        assert!(lines[3].contains("[p999 exemplar]"));
        assert!(lines[4].contains("0.40"));
        assert!(!lines[4].contains("exemplar"));
        // The doctor lists the same rows under the attribution.
        let report = doctor(&events, &[eps[1].trace_id], 0);
        assert!(lines[2..].iter().all(|row| report.contains(row)), "{report}");
    }

    #[test]
    fn empty_input_is_quiet() {
        assert!(fold_episodes(&[]).is_empty());
        let report = doctor(&[], &[], 0);
        let total = report.lines().find(|l| l.trim_start().starts_with("total")).unwrap();
        assert!(total.ends_with(" 0 us"), "{report}");
        assert!(!report.contains("worst stall episodes"), "{report}");
    }

    #[test]
    fn doctor_attributes_stalls() {
        let _g = test_lock();
        set_level(Level::All);
        clear();
        {
            let _s = span_arg(Category::Stall, "write_stall", STALL_IMM_QUEUE);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _s = span_arg(Category::Stall, "write_stall", STALL_L0_LIMIT);
        }
        instant(Category::Rpc, "rpc_retry", 0);
        instant(Category::Rpc, "rpc_reconnect", 1);
        set_level(Level::Off);
        let report = doctor(&collect_events(), &[], 0);
        assert!(report.contains("imm_queue_full"), "{report}");
        assert!(report.contains("l0_limit"), "{report}");
        assert!(report.contains("rpc retries: 1, reconnects: 1"), "{report}");
        let imm_line = report.lines().find(|l| l.contains("imm_queue_full :")).unwrap();
        assert!(imm_line.contains("1 stalls"), "{imm_line}");
    }
}
