//! Benchmark-side spans. During traced slices every op records a small
//! tree (`op` → `harness.gen`, the engine call, `scan.next`,
//! `harness.verify`) into a preallocated per-client buffer. Each finished
//! op is folded into per-name totals; a bounded sample of whole ops stays in
//! the buffer and is written to `<out>/<workload>.trace.json` at the end.

use std::fmt::Write as _;
use std::time::Instant;

use crate::recorder::Recorder;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Op,
    Gen,
    Put,
    Get,
    MultiGet,
    ScanOpen,
    ScanNext,
    Verify,
}

pub const NAMES: [&str; 8] = [
    "op",
    "harness.gen",
    "db.put",
    "reader.get",
    "reader.multi_get",
    "reader.scan_open",
    "scan.next",
    "harness.verify",
];

pub const NO_PARENT: u32 = u32::MAX;

/// One span: times are nanoseconds since the buffer's epoch; `parent` is
/// the buffer index of the span that caused this one; spans of one op share
/// `op`. `arg` carries a count (entries a `scan.next` span walked).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub parent: u32,
    pub op: u64,
    pub start: u64,
    pub end: u64,
    pub arg: u64,
}

#[derive(Default, Clone)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: i64,
    /// Sum of the spans' `arg` counts.
    pub arg_sum: u64,
    pub durations: Recorder,
}

/// Fold `spans` (a set closed under `parent`, whose indices are offset by
/// `base`) into `totals`: a span adds its duration to its own name's total
/// and self time and subtracts it from its parent's self time.
pub fn fold(spans: &[Span], base: usize, totals: &mut [SpanTotals; NAMES.len()]) {
    for span in spans {
        let dur = span.end.saturating_sub(span.start);
        let t = &mut totals[span.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur as i64;
        t.arg_sum += span.arg;
        t.durations.record(dur);
        if span.parent != NO_PARENT {
            let parent = spans[span.parent as usize - base];
            totals[parent.name as usize].self_ns -= dur as i64;
        }
    }
}

/// Keep every `SAMPLE_STRIDE`-th traced op, up to `SAMPLE_OPS` ops per client.
const SAMPLE_STRIDE: u64 = 64;
const SAMPLE_OPS: usize = 2048;
const SPANS_PER_OP: usize = 5;

pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    op_start: usize,
    kept_ops: usize,
    traced_ops: u64,
    pub totals: [SpanTotals; NAMES.len()],
}

impl SpanBuf {
    pub fn new(epoch: Instant) -> SpanBuf {
        SpanBuf {
            epoch,
            spans: Vec::with_capacity((SAMPLE_OPS + 1) * SPANS_PER_OP),
            op_start: 0,
            kept_ops: 0,
            traced_ops: 0,
            totals: Default::default(),
        }
    }

    fn stamp(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span and return its index, to name as a parent or to close
    /// later with [`SpanBuf::set_end`].
    pub fn push(
        &mut self,
        name: Name,
        parent: u32,
        op: u64,
        start: Instant,
        end: Instant,
        arg: u64,
    ) -> u32 {
        let span = Span {
            name,
            parent,
            op,
            start: self.stamp(start),
            end: self.stamp(end),
            arg,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn set_end(&mut self, idx: u32, end: Instant) {
        self.spans[idx as usize].end = self.stamp(end);
    }

    /// The op whose spans were pushed since the last call is complete.
    pub fn finish_op(&mut self) {
        fold(
            &self.spans[self.op_start..],
            self.op_start,
            &mut self.totals,
        );
        let keep = self.traced_ops.is_multiple_of(SAMPLE_STRIDE) && self.kept_ops < SAMPLE_OPS;
        self.traced_ops += 1;
        if keep {
            self.kept_ops += 1;
            self.op_start = self.spans.len();
        } else {
            self.spans.truncate(self.op_start);
        }
    }

    pub fn sample(&self) -> &[Span] {
        &self.spans[..self.op_start]
    }
}

/// Mean self time per span of `name`, in nanoseconds.
pub fn mean_self_ns(totals: &[SpanTotals; NAMES.len()], name: Name) -> f64 {
    let t = &totals[name as usize];
    if t.count == 0 {
        return 0.0;
    }
    t.self_ns as f64 / t.count as f64
}

pub fn merge_totals(into: &mut [SpanTotals; NAMES.len()], from: &[SpanTotals; NAMES.len()]) {
    for (a, b) in into.iter_mut().zip(from) {
        a.count += b.count;
        a.total_ns += b.total_ns;
        a.self_ns += b.self_ns;
        a.arg_sum += b.arg_sum;
        a.durations.merge(&b.durations);
    }
}

/// The sampled spans of every client as one JSON document.
pub fn trace_json(workload: &str, seed: u64, clients: &[&SpanBuf]) -> String {
    let mut out =
        format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\"spans\":[");
    let mut first = true;
    for (client, buf) in clients.iter().enumerate() {
        for (idx, s) in buf.sample().iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                "{}\n{{\"client\":{client},\"id\":{idx},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"arg\":{}}}",
                if first { "" } else { "," },
                s.op,
                NAMES[s.name as usize],
                s.start,
                s.end,
                s.arg
            );
            first = false;
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            op: 1,
            start,
            end,
            arg: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100) → gen [0,10), get [10,80) → (nested) verify [20,30), verify [80,95)
        let base = 7;
        let spans = [
            span(Name::Op, NO_PARENT, 0, 100),
            span(Name::Gen, base, 0, 10),
            span(Name::Get, base, 10, 80),
            span(Name::Verify, base + 2, 20, 30),
            span(Name::Verify, base, 80, 95),
        ];
        let mut totals: [SpanTotals; NAMES.len()] = Default::default();
        fold(&spans, base as usize, &mut totals);
        assert_eq!(totals[Name::Op as usize].total_ns, 100);
        assert_eq!(totals[Name::Op as usize].self_ns, 100 - 10 - 70 - 15);
        assert_eq!(totals[Name::Get as usize].self_ns, 70 - 10);
        assert_eq!(totals[Name::Verify as usize].count, 2);
        assert_eq!(totals[Name::Verify as usize].self_ns, 25);
        // Self times of a closed tree add up to the root's duration.
        let sum: i64 = totals.iter().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
        assert_eq!(mean_self_ns(&totals, Name::Verify), 12.5);
    }

    #[test]
    fn buffer_folds_every_op_and_keeps_a_bounded_sample() {
        let epoch = Instant::now();
        let mut buf = SpanBuf::new(epoch);
        let cap = buf.spans.capacity();
        for op in 0..(SAMPLE_STRIDE * (SAMPLE_OPS as u64 + 10)) {
            let root = buf.push(Name::Op, NO_PARENT, op, epoch, epoch, 0);
            buf.push(Name::Put, root, op, epoch, epoch, 0);
            buf.set_end(root, epoch);
            buf.finish_op();
        }
        assert_eq!(
            buf.totals[Name::Put as usize].count,
            SAMPLE_STRIDE * (SAMPLE_OPS as u64 + 10)
        );
        assert_eq!(buf.sample().len(), SAMPLE_OPS * 2);
        assert_eq!(buf.spans.capacity(), cap, "no reallocation while tracing");
        // Parents of kept spans still point inside the sample.
        assert!(buf
            .sample()
            .iter()
            .all(|s| s.parent == NO_PARENT || (s.parent as usize) < buf.sample().len()));
        let json = trace_json("w", 1, &[&buf]);
        assert!(json.contains("\"name\":\"db.put\"") && json.ends_with("]}\n"));
    }
}
