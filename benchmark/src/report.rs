//! Turns one run's raw tallies and counter deltas into the named metrics of
//! BENCHMARK.json, and prints / writes them.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use rdma_sim::Verb;

use crate::gen::RECORD_BYTES;
use crate::recorder::Recorder;
use crate::spans::{self, Name, SpanTotals, NAMES};
use crate::workload::{Class, Kind, ReadCost, SliceStat, Tally, KINDS};
use crate::RunData;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `q`-quantile of `values`, interpolated between neighbours (0 when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let at = q.clamp(0.0, 1.0) * last as f64;
    let (lo, into) = (at as usize, at.fract());
    v[lo] + (v[(lo + 1).min(last)] - v[lo]) * into
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Names and units of the end-to-end metrics, in BENCHMARK.json order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("role0_units_per_s", "1/s"),
    ("role1_units_per_s", "1/s"),
    ("role0_call_p50_us", "us"),
    ("role1_call_p50_us", "us"),
    ("fabric_ops_per_unit", "count"),
    ("fabric_bytes_per_unit", "B"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
];

fn units_of(tallies: &[Tally], class: Class) -> f64 {
    tallies.iter().map(|t| t.units[class as usize]).sum::<u64>() as f64
}

/// Fabric cost per unit of work, by direction: READ traffic is charged to
/// the units that read (keys looked up, entries scanned), WRITE/WRITE_IMM/
/// SEND traffic to the keys written. A direction with no units in the
/// window contributes nothing, so the sum is the cost of "one of each kind
/// of unit this workload has" and does not move when the put/get mix does.
fn fabric_per_unit(data: &RunData, pick: impl Fn(&rdma_sim::StatsSnapshot, Verb) -> u64) -> f64 {
    let tallies = &data.window.tallies;
    let fabric = &data.window.through_quiesce.fabric;
    let read_units = units_of(tallies, Class::Get) + units_of(tallies, Class::Scan);
    let write_units = units_of(tallies, Class::Put);
    let written: u64 = [Verb::Write, Verb::WriteImm, Verb::Send]
        .iter()
        .map(|&v| pick(fabric, v))
        .sum();
    ratio(pick(fabric, Verb::Read) as f64, read_units) + ratio(written as f64, write_units)
}

/// The slices of both clients in the role of slot `slot` (or in an equal
/// role: where the two roles are the same, every slice counts for both).
fn role_slices(data: &RunData, slot: usize) -> Vec<&SliceStat> {
    let roles = &data.workload.roles;
    data.window
        .tallies
        .iter()
        .flat_map(|t| &t.slices)
        .filter(|s| roles[s.slot] == roles[slot])
        .collect()
}

/// Median over a role's slices of the units of work one client did per
/// second in that role.
fn slice_rate(slices: &[&SliceStat]) -> f64 {
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| s.units as f64 * 1e9 / s.nanos as f64)
        .collect();
    median(&rates)
}

/// Lower quartile over a role's slices of the slice's median call latency.
/// Interference from outside the process (this host's other tenants) only
/// ever adds latency, and it comes in bursts: in ten runs of `fill` on a
/// restless host the median over slices spread 15 % and this quartile 5 %.
fn slice_p50_us(slices: &[&SliceStat]) -> f64 {
    let p50s: Vec<f64> = slices
        .iter()
        .filter(|s| s.calls > 0)
        .map(|s| s.p50_ns / 1e3)
        .collect();
    quantile(&p50s, 0.25)
}

fn end_to_end(data: &RunData) -> Vec<Metric> {
    let (role0, role1) = (role_slices(data, 0), role_slices(data, 1));
    let life = &data.lifetime.db;
    let values = [
        median(&data.setup_seconds),
        slice_rate(&role0),
        slice_rate(&role1),
        slice_p50_us(&role0),
        slice_p50_us(&role1),
        fabric_per_unit(data, |s, v| s.ops(v)),
        fabric_per_unit(data, |s, v| s.bytes(v)),
        // Since open, at final quiescence: defined on read-only workloads
        // too (there it is the preload's), and hides no compaction debt.
        ratio(
            (life.flush_bytes + life.compaction_bytes_out) as f64,
            (life.puts * RECORD_BYTES) as f64,
        ),
        ratio(data.space_bytes as f64, (data.n * RECORD_BYTES) as f64),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| m(name, unit, v))
        .collect()
}

pub fn build(data: &RunData, trace: bool, probe_values: &[Metric]) -> RunResult {
    let tallies = &data.window.tallies;
    let shapes_agree = data.shapes.windows(2).all(|w| w[0] == w[1]);
    if !shapes_agree {
        eprintln!(
            "# level shapes differ between set-ups of one seed: {:?}",
            data.shapes
        );
    }
    let attempted = tallies.iter().map(|t| t.ops).sum::<u64>() + data.audited;
    let failed = tallies.iter().map(|t| t.failed).sum::<u64>() + data.audit_violations;
    let metrics = if trace {
        per_layer(data, probe_values)
    } else {
        end_to_end(data)
    };
    RunResult {
        correct: failed == 0 && shapes_agree && attempted > 0,
        attempted,
        failed,
        metrics,
    }
}

fn merged(tallies: &[Tally], kinds: &[Kind]) -> Recorder {
    let mut all = Recorder::default();
    for t in tallies {
        kinds.iter().for_each(|&k| all.merge(&t.lat[k as usize]));
    }
    all
}

/// Names, units and directions of the per-layer metrics, in BENCHMARK.json
/// order. Probe values (see probes.rs) do not depend on the workload.
pub const PER_LAYER: [(&str, &str, &str); 91] = [
    ("harness.gen_ns", "ns", "lower"),
    ("harness.verify_ns", "ns", "lower"),
    ("harness.clock_ns", "ns", "lower"),
    ("harness.cpu_util", "ratio", "lower"),
    ("harness.trace_overhead_frac", "ratio", "lower"),
    ("db.put_p50_us", "us", "lower"),
    ("db.put_mean_us", "us", "lower"),
    ("db.put_p99_us", "us", "lower"),
    ("db.put_p999_us", "us", "lower"),
    ("db.get_p50_us", "us", "lower"),
    ("db.get_mean_us", "us", "lower"),
    ("db.get_p99_us", "us", "lower"),
    ("db.get_p999_us", "us", "lower"),
    ("db.get_miss_p50_us", "us", "lower"),
    ("db.multiget16_p50_us", "us", "lower"),
    ("db.scan_open_p50_us", "us", "lower"),
    ("db.scan_next_ns", "ns", "lower"),
    ("db.scan_short_p50_us", "us", "lower"),
    ("db.scan_long_p50_us", "us", "lower"),
    ("db.stall_frac", "ratio", "lower"),
    ("db.stall_events", "count", "lower"),
    ("db.switches", "count", "lower"),
    ("db.reseqs", "count", "lower"),
    ("skiplist.insert_ns", "ns", "lower"),
    ("skiplist.insert_2thr_ns", "ns", "lower"),
    ("skiplist.get_ns", "ns", "lower"),
    ("memtable.add_ns", "ns", "lower"),
    ("memtable.get_ns", "ns", "lower"),
    ("flush.count", "count", "lower"),
    ("flush.bytes_per_user_byte", "ratio", "lower"),
    ("compaction.count", "count", "lower"),
    ("compaction.records_in_per_put", "ratio", "lower"),
    ("compaction.drop_frac", "ratio", "higher"),
    ("compaction.bytes_out_per_user_byte", "ratio", "lower"),
    ("gc.batches", "count", "lower"),
    ("gc.extents_per_batch", "count", "higher"),
    ("memnode.busy_frac", "ratio", "lower"),
    ("memnode.rpcs", "count", "lower"),
    ("memnode.ping_p50_us", "us", "lower"),
    ("memnode.merge_records_per_s", "1/s", "higher"),
    ("sstable.build_ns_per_record", "ns", "lower"),
    ("sstable.bloom_ns", "ns", "lower"),
    ("sstable.locate_ns", "ns", "lower"),
    ("sstable.get_local_ns", "ns", "lower"),
    ("sstable.iter_ns_per_entry", "ns", "lower"),
    ("sstable.merge4_ns_per_entry", "ns", "lower"),
    ("sstable.bloom_fp_frac", "ratio", "lower"),
    ("cache.hit_frac", "ratio", "higher"),
    ("cache.block_hit_frac", "ratio", "higher"),
    ("cache.extent_hit_frac", "ratio", "higher"),
    ("cache.evictions_per_get", "ratio", "lower"),
    ("cache.invalidations_per_put", "ratio", "lower"),
    ("cache.promotions", "count", "lower"),
    ("cache.promoted_bytes_per_get", "B", "lower"),
    ("cache.resident_frac", "ratio", "higher"),
    ("cache.block_get_hit_ns", "ns", "lower"),
    ("cache.block_get_miss_ns", "ns", "lower"),
    ("cache.block_admit_evict_ns", "ns", "lower"),
    ("cache.extent_get_ns", "ns", "lower"),
    ("fabric.read_ops_per_op", "count", "lower"),
    ("fabric.read_bytes_per_op", "B", "lower"),
    ("fabric.mean_read_bytes", "B", "higher"),
    ("fabric.write_ops_per_op", "count", "lower"),
    ("fabric.write_bytes_per_op", "B", "lower"),
    ("fabric.send_ops", "count", "lower"),
    ("fabric.write_imm_ops", "count", "lower"),
    ("fabric.fetch_add_ops", "count", "lower"),
    ("fabric.reads_per_present_get", "count", "lower"),
    ("fabric.reads_per_multiget16", "count", "lower"),
    ("fabric.read_bytes_per_short_scan", "B", "lower"),
    ("fabric.read_bytes_per_long_scan", "B", "lower"),
    ("fabric.read_64B_us", "us", "lower"),
    ("fabric.read_420B_us", "us", "lower"),
    ("fabric.read_1MiB_us", "us", "lower"),
    ("fabric.write_512KiB_us", "us", "lower"),
    ("fabric.model_420B_us", "us", "lower"),
    ("fabric.sim_overhead_420B_ns", "ns", "lower"),
    ("fabric.post_poll_instant_ns", "ns", "lower"),
    ("ledger.get_remote_explained_frac", "ratio", "higher"),
    ("ledger.put_explained_frac", "ratio", "higher"),
    ("window.put_units_per_s", "1/s", "higher"),
    ("window.get_units_per_s", "1/s", "higher"),
    ("window.scan_units_per_s", "1/s", "higher"),
    ("window.put_samples", "count", "higher"),
    ("window.get_samples", "count", "higher"),
    ("window.scan_samples", "count", "higher"),
    ("window.traced_ops", "count", "higher"),
    ("window.level0_tables", "count", "lower"),
    ("window.levels_in_use", "count", "lower"),
    ("window.seconds", "s", "higher"),
    ("window.drain_s", "s", "lower"),
];

fn per_layer(data: &RunData, probe_values: &[Metric]) -> Vec<Metric> {
    let tallies = &data.window.tallies;
    let during = &data.window.during;
    let drained = &data.window.through_quiesce;
    let wall = data.window.wall.as_secs_f64();
    let mut values: HashMap<&'static str, f64> =
        probe_values.iter().map(|p| (p.name, p.value)).collect();
    let mut set = |name: &'static str, value: f64| {
        values.insert(name, value);
    };
    let probe = |name: &str| {
        probe_values
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.value)
    };

    // Spans and per-kind READ costs of both clients.
    let mut spans: [SpanTotals; NAMES.len()] = Default::default();
    let mut reads = [ReadCost::default(); KINDS];
    let (mut ops, mut nanos, mut call_nanos) = ([0u64; 2], [0u64; 2], [0u64; 2]);
    for tr in tallies.iter().filter_map(|t| t.traced.as_ref()) {
        spans::merge_totals(&mut spans, &tr.spans.totals);
        for (sum, part) in reads.iter_mut().zip(&tr.reads) {
            sum.ops += part.ops;
            sum.ops_with_read += part.ops_with_read;
            sum.read_verbs += part.read_verbs;
            sum.read_bytes += part.read_bytes;
        }
        for mode in 0..2 {
            ops[mode] += tr.ops[mode];
            nanos[mode] += tr.nanos[mode];
            call_nanos[mode] += tr.call_nanos[mode];
        }
    }
    // What the harness costs per op outside the engine call, traced minus
    // untraced, as a share of one untraced iteration.
    let harness_ns = |mode: usize| ratio((nanos[mode] - call_nanos[mode]) as f64, ops[mode] as f64);
    let trace_overhead = ratio(
        harness_ns(1) - harness_ns(0),
        ratio(nanos[0] as f64, ops[0] as f64),
    );
    set("harness.gen_ns", spans::mean_self_ns(&spans, Name::Gen));
    set(
        "harness.verify_ns",
        spans::mean_self_ns(&spans, Name::Verify),
    );
    set("harness.cpu_util", ratio(during.cpu_seconds, wall));
    set("harness.trace_overhead_frac", trace_overhead);
    set("window.traced_ops", spans[Name::Op as usize].count as f64);

    let puts = merged(tallies, &[Kind::Put]);
    let gets = merged(tallies, &[Kind::GetPresent]);
    set("db.put_p50_us", puts.quantile_us(0.5));
    set("db.put_mean_us", puts.mean() / 1e3);
    set("db.put_p99_us", puts.quantile_us(0.99));
    set("db.put_p999_us", puts.quantile_us(0.999));
    set("db.get_p50_us", gets.quantile_us(0.5));
    set("db.get_mean_us", gets.mean() / 1e3);
    set("db.get_p99_us", gets.quantile_us(0.99));
    set("db.get_p999_us", gets.quantile_us(0.999));
    set(
        "db.get_miss_p50_us",
        merged(tallies, &[Kind::GetAbsent]).quantile_us(0.5),
    );
    set(
        "db.multiget16_p50_us",
        merged(tallies, &[Kind::MultiGet]).quantile_us(0.5),
    );
    set(
        "db.scan_open_p50_us",
        spans[Name::ScanOpen as usize].durations.quantile_us(0.5),
    );
    let next = &spans[Name::ScanNext as usize];
    set(
        "db.scan_next_ns",
        ratio(next.total_ns as f64, next.arg_sum as f64),
    );
    let scans_short = merged(tallies, &[Kind::ScanShort]);
    let scans_long = merged(tallies, &[Kind::ScanLong]);
    set("db.scan_short_p50_us", scans_short.quantile_us(0.5));
    set("db.scan_long_p50_us", scans_long.quantile_us(0.5));
    let writers = data.workload.roles.iter().filter(|r| r.writes()).count() as f64;
    set(
        "db.stall_frac",
        ratio(during.db.stall_nanos as f64 / 1e9, writers * wall),
    );
    set("db.stall_events", during.db.stall_events as f64);
    set("db.switches", during.db.switches as f64);
    set("db.reseqs", during.db.reseqs as f64);

    let put_units = units_of(tallies, Class::Put);
    let get_units = units_of(tallies, Class::Get);
    let scan_units = units_of(tallies, Class::Scan);
    let user_bytes = put_units * RECORD_BYTES as f64;
    set("window.put_units_per_s", ratio(put_units, wall));
    set("window.get_units_per_s", ratio(get_units, wall));
    set("window.scan_units_per_s", ratio(scan_units, wall));
    set("window.put_samples", puts.count() as f64);
    set(
        "window.get_samples",
        (gets.count() + merged(tallies, &[Kind::GetAbsent, Kind::MultiGet]).count()) as f64,
    );
    set(
        "window.scan_samples",
        (scans_short.count() + scans_long.count()) as f64,
    );
    set("window.seconds", wall);
    set("window.drain_s", data.window.drain.as_secs_f64());
    let shape = data.shapes.last().map_or(&[][..], |s| &s[..]);
    let level0_tables = shape.first().copied().unwrap_or(0) as f64;
    let levels_in_use = shape.iter().skip(1).filter(|&&tables| tables > 0).count() as f64;
    set("window.level0_tables", level0_tables);
    set("window.levels_in_use", levels_in_use);

    // Write-side ratios use the drained deltas: all the work the window's
    // puts caused, none of it left pending.
    set("flush.count", drained.db.flushes as f64);
    set(
        "flush.bytes_per_user_byte",
        ratio(drained.db.flush_bytes as f64, user_bytes),
    );
    set("compaction.count", drained.db.compactions as f64);
    set(
        "compaction.records_in_per_put",
        ratio(drained.db.compaction_records_in as f64, put_units),
    );
    let dropped = drained
        .db
        .compaction_records_in
        .saturating_sub(drained.db.compaction_records_out);
    set(
        "compaction.drop_frac",
        ratio(dropped as f64, drained.db.compaction_records_in as f64),
    );
    set(
        "compaction.bytes_out_per_user_byte",
        ratio(drained.db.compaction_bytes_out as f64, user_bytes),
    );
    set("gc.batches", drained.db.gc_batches as f64);
    set(
        "gc.extents_per_batch",
        ratio(drained.db.gc_extents as f64, drained.db.gc_batches as f64),
    );
    set(
        "memnode.busy_frac",
        ratio(
            during.memnode_busy_nanos as f64 / 1e9,
            crate::engine::COMPACTION_WORKERS as f64 * wall,
        ),
    );
    set("memnode.rpcs", drained.memnode_rpcs as f64);

    let absent = &reads[Kind::GetAbsent as usize];
    set(
        "sstable.bloom_fp_frac",
        ratio(absent.ops_with_read as f64, absent.ops as f64),
    );

    let cache = &during.cache;
    let hit_frac = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
    set("cache.hit_frac", hit_frac(cache.hits(), cache.misses()));
    set(
        "cache.block_hit_frac",
        hit_frac(cache.block_hits, cache.block_misses),
    );
    set(
        "cache.extent_hit_frac",
        hit_frac(cache.extent_hits, cache.extent_misses),
    );
    set(
        "cache.evictions_per_get",
        ratio(cache.evictions as f64, get_units),
    );
    set(
        "cache.invalidations_per_put",
        ratio(drained.cache.invalidations as f64, put_units),
    );
    set("cache.promotions", cache.extent_promotions as f64);
    set(
        "cache.promoted_bytes_per_get",
        ratio(cache.promoted_bytes as f64, get_units),
    );
    set(
        "cache.resident_frac",
        ratio(cache.resident_bytes as f64, cache.capacity_bytes as f64),
    );

    let fabric = &drained.fabric;
    let read_units = get_units + scan_units;
    set(
        "fabric.read_ops_per_op",
        ratio(fabric.ops(Verb::Read) as f64, read_units),
    );
    set(
        "fabric.read_bytes_per_op",
        ratio(fabric.bytes(Verb::Read) as f64, read_units),
    );
    set(
        "fabric.mean_read_bytes",
        ratio(
            fabric.bytes(Verb::Read) as f64,
            fabric.ops(Verb::Read) as f64,
        ),
    );
    set(
        "fabric.write_ops_per_op",
        ratio(fabric.ops(Verb::Write) as f64, put_units),
    );
    set(
        "fabric.write_bytes_per_op",
        ratio(fabric.bytes(Verb::Write) as f64, put_units),
    );
    set("fabric.send_ops", fabric.ops(Verb::Send) as f64);
    set("fabric.write_imm_ops", fabric.ops(Verb::WriteImm) as f64);
    set("fabric.fetch_add_ops", fabric.ops(Verb::FetchAdd) as f64);
    let per_op = |kind: Kind, pick: fn(&ReadCost) -> u64| {
        let cost = &reads[kind as usize];
        ratio(pick(cost) as f64, cost.ops as f64)
    };
    let reads_per_get = per_op(Kind::GetPresent, |c| c.read_verbs);
    set("fabric.reads_per_present_get", reads_per_get);
    set(
        "fabric.reads_per_multiget16",
        per_op(Kind::MultiGet, |c| c.read_verbs),
    );
    set(
        "fabric.read_bytes_per_short_scan",
        per_op(Kind::ScanShort, |c| c.read_bytes),
    );
    set(
        "fabric.read_bytes_per_long_scan",
        per_op(Kind::ScanLong, |c| c.read_bytes),
    );

    // Ledger: probe unit costs times per-op counts over the measured mean
    // latency (formulas in README.md). Zero when the workload has no such op.
    let tables_probed = level0_tables + levels_in_use;
    let cache_lookups = ratio((cache.hits() + cache.misses()) as f64, get_units);
    let explained_get = 2.0 * probe("harness.clock_ns")
        + tables_probed * probe("sstable.bloom_ns")
        + reads_per_get * (probe("sstable.locate_ns") + 1e3 * probe("fabric.read_420B_us"))
        + cache_lookups * probe("cache.block_get_miss_ns")
        + ratio(cache.inserts as f64, get_units) * probe("cache.block_admit_evict_ns");
    let explained_put = 2.0 * probe("harness.clock_ns") + probe("memtable.add_ns");
    let frac = |explained: f64, rec: &Recorder| {
        if rec.count() == 0 {
            0.0
        } else {
            ratio(explained, rec.mean())
        }
    };
    set(
        "ledger.get_remote_explained_frac",
        frac(explained_get, &gets),
    );
    set("ledger.put_explained_frac", frac(explained_put, &puts));

    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            m(
                name,
                unit,
                *values
                    .get(name)
                    .unwrap_or_else(|| panic!("no value for {name}")),
            )
        })
        .collect()
}

pub fn print_metrics(metrics: &[Metric]) {
    for metric in metrics {
        println!("{:<36} {:>18.6} {}", metric.name, metric.value, metric.unit);
    }
}

impl RunResult {
    /// The result line the driver reads.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                metric.name,
                json_number(metric.value),
                metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Every slice behind the end-to-end rates and latencies, so that a run
/// that reads oddly can be traced to the seconds that were disturbed.
fn slices_json(data: &RunData) -> String {
    let mut out = String::from("[\n");
    for (client, tally) in data.window.tallies.iter().enumerate() {
        for s in &tally.slices {
            let _ = writeln!(
                out,
                "{{\"client\": {client}, \"role\": {}, \"units\": {}, \"nanos\": {}, \"calls\": {}, \"p50_ns\": {}}},",
                s.slot, s.units, s.nanos, s.calls, json_number(s.p50_ns)
            );
        }
    }
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
    }
    out.push_str("\n]\n");
    out
}

pub fn write_outputs(
    dir: &Path,
    data: &RunData,
    result: &RunResult,
    trace: bool,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let suffix = if trace { "per_layer" } else { "end_to_end" };
    std::fs::write(
        dir.join(format!("{}.{suffix}.json", data.workload.name)),
        result.json_line() + "\n",
    )?;
    if !trace {
        std::fs::write(
            dir.join(format!("{}.slices.json", data.workload.name)),
            slices_json(data),
        )?;
    } else {
        let bufs: Vec<&spans::SpanBuf> = data
            .window
            .tallies
            .iter()
            .filter_map(|t| t.traced.as_ref().map(|tr| &tr.spans))
            .collect();
        std::fs::write(
            dir.join(format!("{}.trace.json", data.workload.name)),
            spans::trace_json(data.workload.name, data.seed, &bufs),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` in `text`, with the `"unit": "..."` that follows
    /// it when there is one before the next name.
    fn names_and_units(text: &str) -> Vec<(String, String)> {
        let quoted = |s: &str| s.split('"').nth(1).unwrap_or_default().to_string();
        text.split("\"name\":")
            .skip(1)
            .map(|part| {
                (
                    quoted(part),
                    part.split_once("\"unit\":")
                        .map(|(_, u)| quoted(u))
                        .unwrap_or_default(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (head, per_layer) = text.split_once("\"per_layer\"").expect("per_layer key");
        let (workloads, end_to_end) = head.split_once("\"end_to_end\"").expect("end_to_end key");
        let workload_names: Vec<String> = names_and_units(workloads)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            workload_names,
            crate::workload::WORKLOADS.map(|w| w.name.to_string())
        );
        let own = |list: &[(&str, &str)]| {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names_and_units(end_to_end), own(&END_TO_END));
        assert_eq!(
            names_and_units(per_layer),
            own(&PER_LAYER.map(|(n, u, _)| (n, u)))
        );
    }

    #[test]
    fn result_line_has_the_contract_keys_and_full_precision() {
        let result = RunResult {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![m("setup_s", "s", 0.1 + 0.2), m("x", "1/s", f64::NAN)],
        };
        assert_eq!(
            result.json_line(),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn median_and_quartile_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 2.0, 4.0, 3.0], 0.25), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(quantile(&[], 0.25), 0.0);
    }
}
