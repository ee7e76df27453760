//! # dlsm-telemetry — latency histograms, op accounting, JSON snapshots
//!
//! The observability substrate for the workspace (DESIGN.md §8):
//!
//! * [`Histogram`] / [`LocalHist`] / [`HistSnapshot`] — lock-free
//!   log-bucketed latency histograms, mergeable across threads and shards,
//!   with p50/p90/p99/p99.9 reads.
//! * [`OpClass`] / [`OpHistograms`] — one histogram per operation class
//!   (put, get hit/miss, scan-next, flush, compaction RPC).
//! * [`TelemetrySnapshot`] — a frozen, mergeable, delta-able bundle of op
//!   histograms, named breakdown histograms, named counters and per-verb
//!   RDMA traffic, serialized by [`JsonWriter`] (no external deps).
//!
//! This crate depends on nothing but `std` and the std-only `dlsm-trace`
//! (its [`dlsm_trace::SeqSlot`] and sync shim), so every layer — `rdma-sim`
//! consumers, `dlsm`, `memnode`, `bench`, `chaos` — can use it freely.

mod exemplar;
mod hist;
mod json;

pub use exemplar::{Exemplar, ExemplarStore};
pub use hist::{bucket_floor, bucket_index, bucket_max, HistSnapshot, Histogram, LocalHist, BUCKETS};
pub use json::JsonWriter;

/// Operation classes with a dedicated latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// A foreground `put`/`delete` (MemTable insert, including any stall).
    Put,
    /// A point `get` that found the key (tombstones count as misses).
    GetHit,
    /// A point `get` that found nothing.
    GetMiss,
    /// One `next()` step of a range scan.
    ScanNext,
    /// One MemTable flush (serialize + RDMA write + publish).
    Flush,
    /// One compaction round-trip (pick + RPC/local merge + install).
    CompactRpc,
}

impl OpClass {
    pub const ALL: [OpClass; 6] = [
        OpClass::Put,
        OpClass::GetHit,
        OpClass::GetMiss,
        OpClass::ScanNext,
        OpClass::Flush,
        OpClass::CompactRpc,
    ];

    /// Stable machine-readable name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Put => "put",
            OpClass::GetHit => "get_hit",
            OpClass::GetMiss => "get_miss",
            OpClass::ScanNext => "scan_next",
            OpClass::Flush => "flush",
            OpClass::CompactRpc => "compact_rpc",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        match self {
            OpClass::Put => 0,
            OpClass::GetHit => 1,
            OpClass::GetMiss => 2,
            OpClass::ScanNext => 3,
            OpClass::Flush => 4,
            OpClass::CompactRpc => 5,
        }
    }
}

/// One shared [`Histogram`] per [`OpClass`], each with an [`ExemplarStore`]
/// pinning its high buckets to trace ids. Recording is lock-free; a
/// snapshot freezes all six at once.
#[derive(Debug, Default)]
pub struct OpHistograms {
    hists: [Histogram; 6],
    exemplars: [ExemplarStore; 6],
}

impl OpHistograms {
    pub fn new() -> OpHistograms {
        OpHistograms::default()
    }

    #[inline]
    pub fn hist(&self, class: OpClass) -> &Histogram {
        &self.hists[class.idx()]
    }

    /// Exemplar slots for one op class.
    #[inline]
    pub fn exemplars(&self, class: OpClass) -> &ExemplarStore {
        &self.exemplars[class.idx()]
    }

    /// Record a latency (nanoseconds) for one operation class.
    #[inline]
    pub fn record(&self, class: OpClass, nanos: u64) {
        self.hists[class.idx()].record(nanos);
    }

    /// [`record`](OpHistograms::record), and — when `trace_id` is nonzero —
    /// also offer the sample as its bucket's exemplar.
    #[inline]
    pub fn record_traced(&self, class: OpClass, nanos: u64, trace_id: u64) {
        self.hists[class.idx()].record(nanos);
        self.exemplars[class.idx()].record(nanos, trace_id);
    }

    #[inline]
    pub fn record_elapsed(&self, class: OpClass, d: std::time::Duration) {
        self.hists[class.idx()].record_elapsed(d);
    }

    pub fn snapshot(&self) -> [HistSnapshot; 6] {
        OpClass::ALL.map(|c| self.hists[c.idx()].snapshot())
    }

    /// Exemplars for `class` in buckets at or above this class's current
    /// p99 — the cut [`TelemetrySnapshot`] carries.
    pub fn exemplars_above_p99(&self, class: OpClass) -> Vec<Exemplar> {
        let h = self.hists[class.idx()].snapshot();
        if h.count() == 0 {
            return Vec::new();
        }
        self.exemplars[class.idx()].snapshot_above(h.p99())
    }
}

/// Per-verb RDMA traffic in a snapshot, in the shape the JSON emits.
/// `rdma-sim`'s own `StatsSnapshot` converts into a `Vec` of these; the
/// indirection keeps this crate dependency-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerbTraffic {
    /// Verb name, lower-case (`"read"`, `"write"`, `"send"`, ...).
    pub verb: String,
    /// Completed operations.
    pub ops: u64,
    /// Payload bytes moved.
    pub bytes: u64,
}

/// A frozen, self-describing bundle of telemetry: six op-class histograms
/// plus open sets of named breakdown histograms (e.g. `get_memtable`,
/// `server_dispatch`), named counters (e.g. `bloom_skips`) and per-verb
/// RDMA traffic.
///
/// Snapshots [`merge`](TelemetrySnapshot::merge) across shards/threads and
/// [`delta`](TelemetrySnapshot::delta) against an earlier snapshot of the
/// same source, so a bench phase reports exactly the work it caused.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Indexed by `OpClass::idx()`; use [`op`](TelemetrySnapshot::op).
    pub ops: Vec<HistSnapshot>,
    /// Named breakdown histograms, sorted by name.
    pub breakdown: Vec<(String, HistSnapshot)>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-verb RDMA traffic, in verb order.
    pub rdma: Vec<VerbTraffic>,
    /// High-bucket exemplars per op-class name, sorted by name: every
    /// p999 in this snapshot's histograms resolves to a trace id here.
    pub exemplars: Vec<(String, Vec<Exemplar>)>,
}

/// Exemplars retained per op class after a merge (slowest kept).
pub const MAX_EXEMPLARS_PER_CLASS: usize = 32;

impl TelemetrySnapshot {
    pub fn new() -> TelemetrySnapshot {
        TelemetrySnapshot {
            ops: vec![HistSnapshot::default(); OpClass::ALL.len()],
            ..TelemetrySnapshot::default()
        }
    }

    /// Histogram for one op class (empty default if the snapshot predates
    /// the class).
    pub fn op(&self, class: OpClass) -> HistSnapshot {
        self.ops.get(class.idx()).cloned().unwrap_or_default()
    }

    /// Named breakdown histogram, or an empty one.
    pub fn breakdown_hist(&self, name: &str) -> HistSnapshot {
        self.breakdown
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    }

    /// Named counter, or 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    }

    pub fn set_counter(&mut self, name: &str, v: u64) {
        match self.counters.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.counters[i].1 = v,
            Err(i) => self.counters.insert(i, (name.to_string(), v)),
        }
    }

    pub fn set_breakdown(&mut self, name: &str, h: HistSnapshot) {
        match self.breakdown.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.breakdown[i].1 = h,
            Err(i) => self.breakdown.insert(i, (name.to_string(), h)),
        }
    }

    /// Exemplars recorded for one op-class name (empty if absent).
    pub fn exemplars_for(&self, name: &str) -> &[Exemplar] {
        self.exemplars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }

    pub fn set_exemplars(&mut self, name: &str, v: Vec<Exemplar>) {
        match self.exemplars.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.exemplars[i].1 = v,
            Err(i) => self.exemplars.insert(i, (name.to_string(), v)),
        }
    }

    /// RDMA traffic for one verb name, as `(ops, bytes)` (0 if absent).
    pub fn rdma_verb(&self, verb: &str) -> (u64, u64) {
        self.rdma
            .iter()
            .find(|t| t.verb == verb)
            .map(|t| (t.ops, t.bytes))
            .unwrap_or((0, 0))
    }

    /// Total RDMA `(ops, bytes)` across verbs.
    pub fn rdma_total(&self) -> (u64, u64) {
        self.rdma.iter().fold((0, 0), |(o, b), t| (o + t.ops, b + t.bytes))
    }

    /// Combine with a snapshot of a *different* source (another shard,
    /// server, or thread): histograms merge pointwise, counters add,
    /// RDMA traffic adds per verb.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        while self.ops.len() < other.ops.len() {
            self.ops.push(HistSnapshot::default());
        }
        for (a, b) in self.ops.iter_mut().zip(other.ops.iter()) {
            a.merge(b);
        }
        for (name, h) in &other.breakdown {
            match self.breakdown.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.breakdown[i].1.merge(h),
                Err(i) => self.breakdown.insert(i, (name.clone(), h.clone())),
            }
        }
        for (name, v) in &other.counters {
            match self.counters.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (name.clone(), *v)),
            }
        }
        for t in &other.rdma {
            if let Some(mine) = self.rdma.iter_mut().find(|m| m.verb == t.verb) {
                mine.ops += t.ops;
                mine.bytes += t.bytes;
            } else {
                self.rdma.push(t.clone());
            }
        }
        // Exemplars from different sources: union per class, slowest
        // first, capped so merged snapshots stay bounded.
        for (name, theirs) in &other.exemplars {
            let mut combined = self.exemplars_for(name).to_vec();
            combined.extend(theirs.iter().copied());
            combined.sort_by_key(|e| std::cmp::Reverse(e.value_ns));
            combined.truncate(MAX_EXEMPLARS_PER_CLASS);
            self.set_exemplars(name, combined);
        }
    }

    /// Work done since `earlier` (a previous snapshot of the *same*
    /// source): histograms and counters subtract (saturating), RDMA
    /// traffic subtracts per verb. Histogram `max` fields remain lifetime
    /// high-water marks.
    ///
    /// Hardened against asymmetric key sets: a counter, breakdown, op
    /// class, or verb that appears in only one snapshot (added after
    /// `earlier` was taken, or — with mismatched sources — present only in
    /// `earlier`) never underflows, wraps, or panics. New entries report
    /// their full value; entries known only to `earlier` survive as
    /// zeroed rows so phase reports keep a stable key set.
    pub fn delta(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let empty = HistSnapshot::default();
        // Keep the longer ops vector: a class `earlier` knows but `self`
        // does not (mismatched sources) yields a zeroed histogram rather
        // than a wrapped-sum artifact of `empty.delta(nonempty)`.
        let n_ops = self.ops.len().max(earlier.ops.len());
        let ops = (0..n_ops)
            .map(|i| match self.ops.get(i) {
                Some(h) => h.delta(earlier.ops.get(i).unwrap_or(&empty)),
                None => HistSnapshot::default(),
            })
            .collect();
        let mut breakdown: Vec<(String, HistSnapshot)> = self
            .breakdown
            .iter()
            .map(|(n, h)| (n.clone(), h.delta(&earlier.breakdown_hist(n))))
            .collect();
        for (n, _) in &earlier.breakdown {
            if let Err(i) = breakdown.binary_search_by(|(m, _)| m.as_str().cmp(n)) {
                breakdown.insert(i, (n.clone(), HistSnapshot::default()));
            }
        }
        let mut counters: Vec<(String, u64)> = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.counter(n))))
            .collect();
        for (n, _) in &earlier.counters {
            if let Err(i) = counters.binary_search_by(|(m, _)| m.as_str().cmp(n)) {
                counters.insert(i, (n.clone(), 0));
            }
        }
        let mut rdma: Vec<VerbTraffic> = self
            .rdma
            .iter()
            .map(|t| {
                let (ops, bytes) = earlier.rdma_verb(&t.verb);
                VerbTraffic {
                    verb: t.verb.clone(),
                    ops: t.ops.saturating_sub(ops),
                    bytes: t.bytes.saturating_sub(bytes),
                }
            })
            .collect();
        for t in &earlier.rdma {
            if !rdma.iter().any(|m| m.verb == t.verb) {
                rdma.push(VerbTraffic { verb: t.verb.clone(), ops: 0, bytes: 0 });
            }
        }
        // An exemplar that already existed verbatim in `earlier` was not
        // re-recorded during the interval: drop it. Identity (not seq
        // comparison) so merged multi-shard snapshots — whose seq counters
        // are independent — still delta correctly.
        let exemplars = self
            .exemplars
            .iter()
            .map(|(name, v)| {
                let old = earlier.exemplars_for(name);
                (name.clone(), v.iter().filter(|e| !old.contains(e)).copied().collect())
            })
            .collect();
        TelemetrySnapshot { ops, breakdown, counters, rdma, exemplars }
    }

    /// Serialize into an open JSON object (caller owns begin/end, so extra
    /// fields can sit alongside).
    pub fn write_json_fields(&self, w: &mut JsonWriter) {
        w.key("ops");
        w.begin_object();
        for class in OpClass::ALL {
            w.key(class.name());
            write_hist_json(w, &self.op(class));
        }
        w.end_object();
        w.key("breakdown");
        w.begin_object();
        for (name, h) in &self.breakdown {
            w.key(name);
            write_hist_json(w, h);
        }
        w.end_object();
        w.key("counters");
        w.begin_object();
        for (name, v) in &self.counters {
            w.field_u64(name, *v);
        }
        w.end_object();
        w.key("rdma");
        w.begin_object();
        for t in &self.rdma {
            w.key(&t.verb);
            w.begin_object();
            w.field_u64("ops", t.ops);
            w.field_u64("bytes", t.bytes);
            w.end_object();
        }
        w.end_object();
        if !self.exemplars.is_empty() {
            w.key("exemplars");
            w.begin_object();
            for (name, v) in &self.exemplars {
                w.key(name);
                write_exemplars_json(w, v);
            }
            w.end_object();
        }
    }

    /// Standalone JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_json_fields(&mut w);
        w.end_object();
        w.finish()
    }
}

/// Histogram summary as a JSON object: count, mean/percentiles/max in
/// nanoseconds.
pub fn write_hist_json(w: &mut JsonWriter, h: &HistSnapshot) {
    w.begin_object();
    w.field_u64("count", h.count());
    w.field_f64("mean_ns", h.mean());
    w.field_u64("p50_ns", h.p50());
    w.field_u64("p90_ns", h.p90());
    w.field_u64("p99_ns", h.p99());
    w.field_u64("p999_ns", h.p999());
    w.field_u64("max_ns", h.max());
    w.end_object();
}

/// Exemplar list as a JSON array: value, bucket bounds, and the trace id
/// both as a decimal and as the `0x` hex string the Chrome trace dump uses
/// (so tooling can grep one against the other).
pub fn write_exemplars_json(w: &mut JsonWriter, v: &[Exemplar]) {
    w.begin_array();
    for e in v {
        w.begin_object();
        w.field_u64("value_ns", e.value_ns);
        w.field_u64("bucket_floor_ns", e.bucket_floor_ns());
        w.field_u64("trace_id", e.trace_id);
        w.field_str("trace_id_hex", &format!("{:#x}", e.trace_id));
        w.end_object();
    }
    w.end_array();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(values: &[u64]) -> HistSnapshot {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn snapshot_merge_and_delta() {
        let mut a = TelemetrySnapshot::new();
        a.ops[OpClass::Put.idx()] = hist_of(&[100, 200]);
        a.set_counter("bloom_skips", 3);
        a.set_breakdown("get_memtable", hist_of(&[50]));
        a.rdma.push(VerbTraffic { verb: "read".into(), ops: 5, bytes: 640 });

        let mut b = TelemetrySnapshot::new();
        b.ops[OpClass::Put.idx()] = hist_of(&[300]);
        b.set_counter("bloom_skips", 2);
        b.set_counter("l0_cache_hits", 7);
        b.rdma.push(VerbTraffic { verb: "read".into(), ops: 1, bytes: 64 });
        b.rdma.push(VerbTraffic { verb: "write".into(), ops: 2, bytes: 128 });

        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.op(OpClass::Put).count(), 3);
        assert_eq!(m.counter("bloom_skips"), 5);
        assert_eq!(m.counter("l0_cache_hits"), 7);
        assert_eq!(m.rdma_verb("read"), (6, 704));
        assert_eq!(m.rdma_verb("write"), (2, 128));
        assert_eq!(m.rdma_total(), (8, 832));

        let d = m.delta(&a);
        assert_eq!(d.op(OpClass::Put).count(), 1);
        assert_eq!(d.counter("bloom_skips"), 2);
        assert_eq!(d.rdma_verb("read"), (1, 64));
        assert_eq!(d.breakdown_hist("get_memtable").count(), 0);
    }

    #[test]
    fn delta_survives_asymmetric_key_sets() {
        // `earlier` predates several additions: a counter, a breakdown, a
        // verb, and two op-class slots that only the later snapshot has.
        let mut earlier = TelemetrySnapshot::new();
        earlier.ops.truncate(4);
        earlier.set_counter("bloom_skips", 9);
        earlier.set_counter("legacy_only", 5);
        earlier.set_breakdown("old_phase", hist_of(&[100]));
        earlier.rdma.push(VerbTraffic { verb: "cas".into(), ops: 3, bytes: 24 });

        let mut later = TelemetrySnapshot::new();
        later.ops[OpClass::Flush.idx()] = hist_of(&[500]);
        later.set_counter("bloom_skips", 12);
        later.set_counter("stall_imm_micros", 40); // added after `earlier`
        later.set_breakdown("server_dispatch", hist_of(&[200, 300]));
        later.rdma.push(VerbTraffic { verb: "read".into(), ops: 7, bytes: 448 });

        let d = later.delta(&earlier);
        // Counter added after the earlier snapshot: full value, no underflow.
        assert_eq!(d.counter("stall_imm_micros"), 40);
        assert_eq!(d.counter("bloom_skips"), 3);
        // Entries known only to `earlier` survive as zeroed rows.
        assert_eq!(d.counter("legacy_only"), 0);
        assert!(d.counters.iter().any(|(n, _)| n == "legacy_only"));
        assert_eq!(d.breakdown_hist("old_phase").count(), 0);
        assert!(d.breakdown.iter().any(|(n, _)| n == "old_phase"));
        assert_eq!(d.rdma_verb("cas"), (0, 0));
        // Op classes beyond `earlier`'s vector report their full histogram.
        assert_eq!(d.ops.len(), OpClass::ALL.len());
        assert_eq!(d.op(OpClass::Flush).count(), 1);
        // Counters stay sorted so later set_counter/merge binary searches hold.
        assert!(d.counters.windows(2).all(|w| w[0].0 < w[1].0));

        // Reversed-source misuse (later as `earlier`): no panic, no wrap.
        let r = earlier.delta(&later);
        assert_eq!(r.counter("bloom_skips"), 0);
        assert_eq!(r.ops.len(), OpClass::ALL.len());
        assert_eq!(r.op(OpClass::Flush).count(), 0);
        assert_eq!(r.op(OpClass::Flush).sum(), 0);
    }

    #[test]
    fn json_shape_contains_required_keys() {
        let mut s = TelemetrySnapshot::new();
        s.ops[OpClass::GetHit.idx()] = hist_of(&[1_000, 2_000]);
        s.set_counter("bloom_skips", 1);
        s.rdma.push(VerbTraffic { verb: "read".into(), ops: 2, bytes: 256 });
        let json = s.to_json();
        for key in ["\"ops\"", "\"get_hit\"", "\"p50_ns\"", "\"p99_ns\"", "\"counters\"", "\"rdma\"", "\"bytes\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn exemplars_merge_and_delta() {
        let ops = OpHistograms::new();
        // 100 fast ops and one slow one: p99 sits below the slow sample.
        for _ in 0..100 {
            ops.record_traced(OpClass::GetHit, 1_000, 0x1);
        }
        ops.record_traced(OpClass::GetHit, 9_000_000, 0xBEEF);
        let high = ops.exemplars_above_p99(OpClass::GetHit);
        assert!(high.iter().any(|e| e.trace_id == 0xBEEF && e.value_ns == 9_000_000), "{high:?}");

        let mut a = TelemetrySnapshot::new();
        a.set_exemplars("get_hit", high.clone());
        let mut b = TelemetrySnapshot::new();
        b.set_exemplars("get_hit", vec![Exemplar { bucket: 400, value_ns: 50_000_000, trace_id: 0xCAFE, seq: 1 }]);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.exemplars_for("get_hit")[0].trace_id, 0xCAFE, "slowest first");

        // Delta drops exemplars already present verbatim in `earlier`.
        let d = m.delta(&a);
        assert!(d.exemplars_for("get_hit").iter().all(|e| e.trace_id == 0xCAFE));

        let json = m.to_json();
        assert!(json.contains("\"exemplars\""), "{json}");
        assert!(json.contains("\"trace_id_hex\":\"0xcafe\""), "{json}");
    }

    #[test]
    fn op_histograms_record_all_classes() {
        let ops = OpHistograms::new();
        for (i, class) in OpClass::ALL.iter().enumerate() {
            for _ in 0..=i {
                ops.record(*class, 100);
            }
        }
        let snaps = ops.snapshot();
        for (i, class) in OpClass::ALL.iter().enumerate() {
            assert_eq!(snaps[class.idx()].count(), (i + 1) as u64);
        }
    }
}
