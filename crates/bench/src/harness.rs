//! Multi-threaded benchmark drivers.
//!
//! Every driver samples per-operation latency with one `Instant::now()`
//! pair per op into a thread-local [`LocalHist`] (two integer adds on the
//! hot path), merged into the [`PhaseResult`] when the phase ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dlsm_baselines::Engine;
use dlsm_telemetry::{Exemplar, ExemplarStore, HistSnapshot, LocalHist};

use crate::generator::{stream_seed, KeyChooser};
use crate::workload::{
    decode_verified, encode_verified, fill_indices, OpKind, Phase, WorkloadCfg, WorkloadRng,
    WorkloadSpec,
};

/// Result of one measured phase.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Which phase ran.
    pub phase: String,
    /// Engine name.
    pub engine: String,
    /// Front-end threads.
    pub threads: usize,
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Absolute wall-clock start of the measured window, unix millis —
    /// aligns phases across processes/runs offline.
    pub start_unix_ms: u64,
    /// Measured-window start on the trace monotonic clock (micros) —
    /// joins this phase against trace spans and stall episodes.
    pub start_us: u64,
    /// Per-op latency distribution (nanoseconds), merged across threads.
    pub lat: HistSnapshot,
    /// Tail exemplars (≥ p99 of this phase's distribution), slowest first:
    /// each carries the trace id of the op that produced it, so a p999
    /// number resolves to a concrete trace. Empty when tracing is off.
    pub exemplars: Vec<Exemplar>,
}

impl PhaseResult {
    /// Throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ops as f64 / self.elapsed.as_secs_f64()
    }

    /// Throughput in mega-ops per second (the paper's y-axes).
    pub fn mops(&self) -> f64 {
        self.ops_per_sec() / 1e6
    }

    /// Latency quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.lat.quantile(q) as f64 / 1_000.0
    }

    /// Median per-op latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.50)
    }

    /// 99th-percentile per-op latency in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.quantile_us(0.99)
    }

    /// Absolute wall-clock end of the measured window, unix millis.
    pub fn end_unix_ms(&self) -> u64 {
        // LOSSY: phase durations are far below u64 millis.
        self.start_unix_ms + self.elapsed.as_millis() as u64
    }

    /// Measured-window end on the trace monotonic clock (micros).
    pub fn end_us(&self) -> u64 {
        // LOSSY: phase durations are far below u64 micros.
        self.start_us + self.elapsed.as_micros() as u64
    }
}

/// Capture both absolute clocks at a measured window's start: the wall
/// clock (unix millis) and the trace monotonic clock (micros).
fn clock_now() -> (u64, u64) {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        // LOSSY: unix millis fit u64 for ~585 My.
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    (unix_ms, dlsm_trace::now_us())
}

/// Merge per-thread histograms collected by a scoped-thread phase.
fn merge_locals(locals: Vec<LocalHist>) -> HistSnapshot {
    let mut all = LocalHist::new();
    for l in &locals {
        all.merge(l);
    }
    all.snapshot()
}

/// Offer one finished op as a tail-exemplar candidate. With tracing on,
/// the op's root span just closed on this thread, so
/// [`dlsm_trace::last_trace_id`] identifies exactly this op's trace; the
/// store keeps one sample per latency bucket.
#[inline]
fn offer_exemplar(store: &ExemplarStore, d: Duration) {
    if dlsm_trace::enabled() {
        // LOSSY: ~584 years of nanoseconds fit in u64.
        store.record(d.as_nanos() as u64, dlsm_trace::last_trace_id());
    }
}

/// The phase's ≥p99 exemplar cut, slowest first.
fn exemplar_cut(store: &ExemplarStore, lat: &HistSnapshot) -> Vec<Exemplar> {
    if lat.count() == 0 {
        return Vec::new();
    }
    let mut v = store.snapshot_above(lat.quantile(0.99));
    v.sort_by_key(|e| std::cmp::Reverse(e.value_ns));
    v.truncate(dlsm_telemetry::MAX_EXEMPLARS_PER_CLASS);
    v
}

/// `randomfill`: every key written exactly once, in spread-random order,
/// from `threads` writers.
pub fn run_fill(engine: &dyn Engine, spec: &WorkloadSpec, threads: usize) -> PhaseResult {
    let exemplars = ExemplarStore::default();
    let (start_unix_ms, start_us) = clock_now();
    let t0 = Instant::now();
    let locals = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let exemplars = &exemplars;
                s.spawn(move || {
                    let mut lat = LocalHist::new();
                    for i in fill_indices(spec, t as u64, threads as u64) {
                        let key = spec.key(i);
                        let value = spec.value(i, 0);
                        let op0 = Instant::now();
                        engine.put(&key, &value).expect("fill put");
                        let d = op0.elapsed();
                        lat.record_elapsed(d);
                        offer_exemplar(exemplars, d);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("fill worker")).collect()
    });
    let lat = merge_locals(locals);
    PhaseResult {
        phase: Phase::RandomFill.name(),
        engine: engine.name().to_string(),
        threads,
        ops: spec.num_kv,
        elapsed: t0.elapsed(),
        start_unix_ms,
        start_us,
        exemplars: exemplar_cut(&exemplars, &lat),
        lat,
    }
}

/// `randomread`: `ops` point reads of uniformly random loaded keys.
pub fn run_random_read(
    engine: &dyn Engine,
    spec: &WorkloadSpec,
    threads: usize,
    ops: u64,
) -> PhaseResult {
    let done = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let exemplars = ExemplarStore::default();
    let (start_unix_ms, start_us) = clock_now();
    let t0 = Instant::now();
    let locals = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let done = &done;
                let misses = &misses;
                let exemplars = &exemplars;
                s.spawn(move || {
                    let mut lat = LocalHist::new();
                    let mut rng = WorkloadRng::new(0xBEE5 + t as u64);
                    let mut reader = engine.reader();
                    let per =
                        ops / threads as u64 + u64::from(t as u64 == 0) * (ops % threads as u64);
                    for _ in 0..per {
                        let i = rng.below(spec.num_kv);
                        let key = spec.key(i);
                        let op0 = Instant::now();
                        let got = reader.get(&key).expect("read");
                        let d = op0.elapsed();
                        lat.record_elapsed(d);
                        offer_exemplar(exemplars, d);
                        if got.is_none() {
                            // ORDERING: relaxed — progress counters; the worker join at the end of the run is the synchronization point.
                            misses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // ORDERING: relaxed — progress counter; join below synchronizes.
                    done.fetch_add(per, Ordering::Relaxed);
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("read worker")).collect()
    });
    // ORDERING: relaxed — read after the workers were joined (or for a live progress line that tolerates staleness).
    let ops_done = done.load(Ordering::Relaxed);
    let missed = misses.load(Ordering::Relaxed);
    assert!(
        missed * 20 < ops_done.max(1),
        "{}: {missed}/{ops_done} reads missed — data loss?",
        engine.name()
    );
    let lat = merge_locals(locals);
    PhaseResult {
        phase: Phase::RandomRead.name(),
        engine: engine.name().to_string(),
        threads,
        ops: ops_done,
        elapsed: t0.elapsed(),
        start_unix_ms,
        start_us,
        exemplars: exemplar_cut(&exemplars, &lat),
        lat,
    }
}

/// `readseq`: one full forward scan; `ops` = entries visited. The latency
/// histogram holds one sample — the whole scan (per-entry `scan_next` time
/// lives in the engine's own telemetry).
pub fn run_scan(engine: &dyn Engine, expected: u64) -> PhaseResult {
    let (start_unix_ms, start_us) = clock_now();
    let t0 = Instant::now();
    let mut reader = engine.reader();
    let mut lat = LocalHist::new();
    let n = reader.scan_all().expect("scan");
    lat.record_elapsed(t0.elapsed());
    assert!(
        n >= expected / 2,
        "{}: scan visited {n} of {expected} entries",
        engine.name()
    );
    PhaseResult {
        phase: Phase::ReadSeq.name(),
        engine: engine.name().to_string(),
        threads: 1,
        ops: n,
        elapsed: t0.elapsed(),
        start_unix_ms,
        start_us,
        lat: lat.snapshot(),
        // One op total — a "tail" exemplar of a single sample says nothing.
        exemplars: Vec::new(),
    }
}

/// `readrandomwriterandom`: each thread issues `ops / threads` operations,
/// each a read with probability `read_pct`% else an overwrite.
pub fn run_mixed(
    engine: &dyn Engine,
    spec: &WorkloadSpec,
    threads: usize,
    ops: u64,
    read_pct: u8,
) -> PhaseResult {
    let exemplars = ExemplarStore::default();
    let (start_unix_ms, start_us) = clock_now();
    let t0 = Instant::now();
    let locals = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let exemplars = &exemplars;
                s.spawn(move || {
                    let mut lat = LocalHist::new();
                    let mut rng = WorkloadRng::new(0x5EED + t as u64);
                    let mut reader = engine.reader();
                    let per = ops / threads as u64;
                    for n in 0..per {
                        let i = rng.below(spec.num_kv);
                        if rng.below(100) < u64::from(read_pct) {
                            let op0 = Instant::now();
                            let _ = reader.get(&spec.key(i)).expect("mixed read");
                            let d = op0.elapsed();
                            lat.record_elapsed(d);
                            offer_exemplar(exemplars, d);
                        } else {
                            let op0 = Instant::now();
                            engine.put(&spec.key(i), &spec.value(i, n + 1)).expect("mixed write");
                            let d = op0.elapsed();
                            lat.record_elapsed(d);
                            offer_exemplar(exemplars, d);
                        }
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("mixed worker")).collect()
    });
    let lat = merge_locals(locals);
    PhaseResult {
        phase: Phase::Mixed { read_pct }.name(),
        engine: engine.name().to_string(),
        threads,
        ops: (ops / threads as u64) * threads as u64,
        elapsed: t0.elapsed(),
        start_unix_ms,
        start_us,
        exemplars: exemplar_cut(&exemplars, &lat),
        lat,
    }
}

/// Result of one mixed-workload phase: the standard [`PhaseResult`] plus
/// per-op-kind counts and the inline-verification verdict.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// Throughput/latency like every other phase.
    pub result: PhaseResult,
    /// Operations completed per kind, [`OpKind::ALL`] order.
    pub kind_counts: [u64; 6],
    /// Consistency violations found by inline verification (0 when
    /// verification is off).
    pub violations: u64,
    /// Up to a handful of violation descriptions, for diagnosis.
    pub violation_samples: Vec<String>,
}

/// Per-thread key-partition state: thread `t` of `T` owns the indices
/// `{i : i % T == t}`, addressed by *rank* `r` (index `t + r*T`). Single
/// ownership is what makes read-your-writes an exact inline oracle: the
/// newest version of an owned key is always this thread's last write.
struct ThreadPartition {
    thread: u64,
    threads: u64,
    owned: u64,
    /// Ranks `[0, written)` have been written at least once.
    written: u64,
    /// Next never-written rank (inserts consume these).
    insert_cursor: u64,
    /// Last written version per rank (0 = never written); only tracked in
    /// verify mode.
    versions: Vec<u64>,
    /// Whether the rank's newest write was a delete.
    deleted: Vec<bool>,
}

impl ThreadPartition {
    fn new(spec: &WorkloadSpec, thread: u64, threads: u64, preload_pct: u8, verify: bool) -> Self {
        let owned = (spec.num_kv + threads - 1 - thread) / threads;
        let preload = if preload_pct >= 100 {
            owned
        } else {
            (owned * preload_pct as u64 / 100).min(owned)
        };
        ThreadPartition {
            thread,
            threads,
            owned,
            written: preload,
            insert_cursor: preload,
            versions: if verify { vec![0; owned as usize] } else { Vec::new() },
            deleted: if verify { vec![false; owned as usize] } else { Vec::new() },
        }
    }

    /// The key index of rank `r`.
    fn index(&self, rank: u64) -> u64 {
        self.thread + rank * self.threads
    }
}

/// Run one mixed workload phase (preload excluded from measurement).
///
/// `ops` is the total op budget across threads; with `duration` set the
/// phase instead runs until the wall clock expires (whichever comes first;
/// pass `ops = u64::MAX` for purely time-bound runs).
pub fn run_workload(
    engine: &dyn Engine,
    spec: &WorkloadSpec,
    cfg: &WorkloadCfg,
    threads: usize,
    ops: u64,
    duration: Option<Duration>,
) -> WorkloadOutcome {
    assert!(threads > 0);
    assert!(
        spec.num_kv >= threads as u64,
        "key space smaller than thread count"
    );
    // Threads preload their partitions, then rendezvous; the measured
    // clock starts only when every thread is ready to issue traffic.
    let start_barrier = Barrier::new(threads);
    let t0_cell = parking_lot::Mutex::new(None::<(Instant, u64, u64)>);
    let exemplars = ExemplarStore::default();
    let per = if duration.is_some() && ops == u64::MAX {
        u64::MAX
    } else {
        ops / threads as u64
    };
    let outcomes = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let start_barrier = &start_barrier;
                let t0_cell = &t0_cell;
                let exemplars = &exemplars;
                s.spawn(move || {
                    let mut part = ThreadPartition::new(
                        spec,
                        t as u64,
                        threads as u64,
                        cfg.preload_pct,
                        cfg.verify,
                    );
                    preload(engine, spec, cfg, &mut part);
                    // All preloads finish, then one thread drains background
                    // work, then the measured window opens for everyone.
                    start_barrier.wait();
                    if t == 0 {
                        engine.wait_until_quiescent();
                    }
                    start_barrier.wait();
                    let (t0, _, _) = *t0_cell.lock().get_or_insert_with(|| {
                        let (ms, us) = clock_now();
                        (Instant::now(), ms, us)
                    });
                    drive(engine, spec, cfg, &mut part, per, duration, t0, exemplars)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("workload worker")).collect::<Vec<_>>()
    });
    let (t0, start_unix_ms, start_us) = t0_cell.lock().expect("phase started");
    let elapsed = t0.elapsed();
    let mut kind_counts = [0u64; 6];
    let mut violations = 0;
    let mut violation_samples = Vec::new();
    let mut locals = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        for (total, c) in kind_counts.iter_mut().zip(o.kind_counts) {
            *total += c;
        }
        violations += o.violations;
        if violation_samples.len() < 5 {
            violation_samples.extend(o.violation_samples);
            violation_samples.truncate(5);
        }
        locals.push(o.lat);
    }
    let lat = merge_locals(locals);
    WorkloadOutcome {
        result: PhaseResult {
            phase: cfg.name.clone(),
            engine: engine.name().to_string(),
            threads,
            ops: kind_counts.iter().sum(),
            elapsed,
            start_unix_ms,
            start_us,
            exemplars: exemplar_cut(&exemplars, &lat),
            lat,
        },
        kind_counts,
        violations,
        violation_samples,
    }
}

/// Write this thread's preload ranks (version 1). Runs before the measured
/// window; uses the verified codec when verification is on so every later
/// read can be checked.
fn preload(engine: &dyn Engine, spec: &WorkloadSpec, cfg: &WorkloadCfg, part: &mut ThreadPartition) {
    for r in 0..part.written {
        let i = part.index(r);
        let value = if cfg.verify {
            encode_verified(spec, i, 1)
        } else {
            spec.value(i, 1)
        };
        engine.put(&spec.key(i), &value).expect("preload put");
        if cfg.verify {
            part.versions[r as usize] = 1;
        }
    }
}

struct ThreadOutcome {
    lat: LocalHist,
    kind_counts: [u64; 6],
    violations: u64,
    violation_samples: Vec<String>,
}

/// One thread's measured loop.
#[allow(clippy::too_many_arguments)]
fn drive(
    engine: &dyn Engine,
    spec: &WorkloadSpec,
    cfg: &WorkloadCfg,
    part: &mut ThreadPartition,
    per: u64,
    duration: Option<Duration>,
    t0: Instant,
    exemplars: &ExemplarStore,
) -> ThreadOutcome {
    let mut rng = WorkloadRng::new(stream_seed(cfg.seed, part.thread));
    let chooser = KeyChooser::new(cfg.chooser, part.owned.max(1));
    let mut reader = engine.reader();
    let mut out = ThreadOutcome {
        lat: LocalHist::new(),
        kind_counts: [0; 6],
        violations: 0,
        violation_samples: Vec::new(),
    };
    // Pacing state: with a target rate, each op k has a virtual deadline
    // accumulated from the (shape-modulated) instantaneous rate.
    let thread_rate = cfg.rate_ops_per_sec as f64 / part.threads as f64;
    let mut virtual_ns = 0.0f64;
    let mut n = 0u64;
    while n < per {
        if let Some(d) = duration {
            if t0.elapsed() >= d {
                break;
            }
        }
        if thread_rate > 0.0 {
            let progress = match duration {
                Some(d) => t0.elapsed().as_secs_f64() / d.as_secs_f64(),
                None => {
                    if per == u64::MAX {
                        0.0
                    } else {
                        n as f64 / per as f64
                    }
                }
            };
            let rate = thread_rate * cfg.shape.multiplier(progress);
            virtual_ns += 1e9 / rate.max(1.0);
            let target = Duration::from_nanos(virtual_ns as u64);
            let now = t0.elapsed();
            if now < target {
                std::thread::sleep(target - now);
            }
        }
        let kind = effective_kind(cfg.mix.pick(&mut rng), part);
        let op0 = Instant::now();
        match kind {
            OpKind::Read => {
                let rank = choose_rank(&chooser, &mut rng, part);
                let i = part.index(rank);
                let got = reader.get(&spec.key(i)).expect("workload read");
                let d = op0.elapsed();
                out.lat.record_elapsed(d);
                offer_exemplar(exemplars, d);
                if cfg.verify {
                    verify_read(&mut out, part, rank, i, got.as_deref());
                }
            }
            OpKind::Update | OpKind::Insert => {
                let rank = if kind == OpKind::Insert {
                    let r = part.insert_cursor;
                    part.insert_cursor += 1;
                    part.written = part.written.max(part.insert_cursor);
                    r
                } else {
                    choose_rank(&chooser, &mut rng, part)
                };
                let i = part.index(rank);
                let version = next_version(part, rank);
                let value = if cfg.verify {
                    encode_verified(spec, i, version)
                } else {
                    spec.value(i, version)
                };
                engine.put(&spec.key(i), &value).expect("workload put");
                let d = op0.elapsed();
                out.lat.record_elapsed(d);
                offer_exemplar(exemplars, d);
                record_write(part, rank, version, cfg.verify);
            }
            OpKind::Rmw => {
                let rank = choose_rank(&chooser, &mut rng, part);
                let i = part.index(rank);
                let key = spec.key(i);
                let got = reader.get(&key).expect("rmw read");
                if cfg.verify {
                    verify_read(&mut out, part, rank, i, got.as_deref());
                }
                let version = next_version(part, rank);
                let value = if cfg.verify {
                    encode_verified(spec, i, version)
                } else {
                    spec.value(i, version)
                };
                engine.put(&key, &value).expect("rmw write");
                let d = op0.elapsed();
                out.lat.record_elapsed(d);
                offer_exemplar(exemplars, d);
                record_write(part, rank, version, cfg.verify);
            }
            OpKind::Delete => {
                let rank = choose_rank(&chooser, &mut rng, part);
                let i = part.index(rank);
                engine.delete(&spec.key(i)).expect("workload delete");
                let d = op0.elapsed();
                out.lat.record_elapsed(d);
                offer_exemplar(exemplars, d);
                if cfg.verify {
                    part.deleted[rank as usize] = true;
                }
            }
            OpKind::Scan => {
                let rank = choose_rank(&chooser, &mut rng, part);
                let start = spec.key(part.index(rank));
                let len = 1 + rng.below(cfg.scan_len.max(1));
                let mut bad: Option<String> = None;
                let verify = cfg.verify;
                let visited = reader
                    .scan_from(&start, len, &mut |k, v| {
                        if verify && bad.is_none() {
                            // Any scanned value must decode and must belong
                            // to the key it came back under.
                            match decode_verified(v) {
                                Some((idx, _)) if spec.key(idx) == k => {}
                                Some((idx, _)) => {
                                    bad = Some(format!(
                                        "scan: value of key {k:?} claims index {idx}"
                                    ));
                                }
                                None => {
                                    bad = Some(format!(
                                        "scan: undecodable value under key {k:?}"
                                    ));
                                }
                            }
                        }
                    })
                    .expect("workload scan");
                let d = op0.elapsed();
                out.lat.record_elapsed(d);
                offer_exemplar(exemplars, d);
                debug_assert!(visited <= len);
                if let Some(msg) = bad {
                    out.violations += 1;
                    if out.violation_samples.len() < 3 {
                        out.violation_samples.push(msg);
                    }
                }
            }
        }
        let slot = OpKind::ALL.iter().position(|&x| x == kind).unwrap();
        out.kind_counts[slot] += 1;
        n += 1;
    }
    out
}

/// Downgrade ops that need state the partition doesn't have: inserts with
/// an exhausted tail become updates; reads/updates/rmw/deletes before any
/// key exists become inserts.
fn effective_kind(kind: OpKind, part: &ThreadPartition) -> OpKind {
    match kind {
        OpKind::Insert if part.insert_cursor >= part.owned => OpKind::Update,
        OpKind::Insert => OpKind::Insert,
        _ if part.written == 0 => OpKind::Insert,
        k => k,
    }
}

/// Choose a written rank with the configured popularity distribution; the
/// scramble maps hot ranks onto spread-out slots of the written prefix.
fn choose_rank(chooser: &KeyChooser, rng: &mut WorkloadRng, part: &ThreadPartition) -> u64 {
    debug_assert!(part.written > 0);
    chooser.next_in(rng, part.written.min(chooser.capacity()))
}

fn next_version(part: &ThreadPartition, rank: u64) -> u64 {
    if part.versions.is_empty() {
        1
    } else {
        part.versions[rank as usize] + 1
    }
}

fn record_write(part: &mut ThreadPartition, rank: u64, version: u64, verify: bool) {
    if verify {
        part.versions[rank as usize] = version;
        part.deleted[rank as usize] = false;
    }
}

/// The read-your-writes / tombstone oracle: this thread owns the key, so
/// the engine must return exactly the last version it wrote — or nothing,
/// iff the newest write was a delete (or the key was never written).
fn verify_read(
    out: &mut ThreadOutcome,
    part: &ThreadPartition,
    rank: u64,
    index: u64,
    got: Option<&[u8]>,
) {
    let expect_version = part.versions[rank as usize];
    let expect_live = expect_version > 0 && !part.deleted[rank as usize];
    let fail = |out: &mut ThreadOutcome, msg: String| {
        out.violations += 1;
        if out.violation_samples.len() < 3 {
            out.violation_samples.push(msg);
        }
    };
    match got {
        None if expect_live => fail(
            out,
            format!("read: key {index} v{expect_version} lost (read-your-writes)"),
        ),
        Some(_) if !expect_live => fail(
            out,
            format!("read: key {index} resurrected after delete"),
        ),
        Some(v) if expect_live => match decode_verified(v) {
            Some((idx, ver)) if idx == index && ver == expect_version => {}
            Some((idx, ver)) => fail(
                out,
                format!(
                    "read: key {index} expected v{expect_version}, got index {idx} v{ver}"
                ),
            ),
            None => fail(out, format!("read: key {index} returned undecodable value")),
        },
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsm::{ComputeContext, DbConfig, MemNodeHandle};
    use dlsm_baselines::{build_dlsm, EngineDeps};
    use dlsm_memnode::{MemServer, MemServerConfig};
    use rdma_sim::{Fabric, NetworkProfile};

    #[test]
    fn fill_read_scan_mixed_roundtrip() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let server = MemServer::start(
            &fabric,
            MemServerConfig {
                region_size: 96 << 20,
                flush_zone: 40 << 20,
                compaction_workers: 2,
                dispatchers: 1,
            },
        );
        let deps = EngineDeps {
            ctx: ComputeContext::new(&fabric),
            memnodes: vec![MemNodeHandle::from_server(&server)],
        };
        let engine = build_dlsm(&deps, DbConfig::small(), 1).unwrap();
        let spec = WorkloadSpec { num_kv: 5_000, key_size: 20, value_size: 50 };

        let fill = run_fill(&engine, &spec, 4);
        assert_eq!(fill.ops, 5_000);
        assert!(fill.mops() > 0.0);
        // Every op contributed exactly one latency sample.
        assert_eq!(fill.lat.count(), 5_000);
        assert!(fill.p50_us() <= fill.p99_us());
        engine.wait_until_quiescent();

        let rr = run_random_read(&engine, &spec, 4, 2_000);
        assert_eq!(rr.ops, 2_000);
        assert_eq!(rr.lat.count(), 2_000);
        assert!(rr.lat.p99() <= rr.lat.max());

        let scan = run_scan(&engine, spec.num_kv);
        assert_eq!(scan.ops, 5_000);
        assert_eq!(scan.lat.count(), 1);

        let mixed = run_mixed(&engine, &spec, 2, 1_000, 50);
        assert_eq!(mixed.ops, 1_000);
        assert_eq!(mixed.lat.count(), 1_000);

        engine.shutdown();
        server.shutdown();
    }

    #[test]
    fn workload_phase_runs_verified_and_clean() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let server = MemServer::start(
            &fabric,
            MemServerConfig {
                region_size: 96 << 20,
                flush_zone: 40 << 20,
                compaction_workers: 2,
                dispatchers: 1,
            },
        );
        let deps = EngineDeps {
            ctx: ComputeContext::new(&fabric),
            memnodes: vec![MemNodeHandle::from_server(&server)],
        };
        let engine = build_dlsm(&deps, DbConfig::small(), 1).unwrap();
        let spec = WorkloadSpec { num_kv: 4_000, key_size: 20, value_size: 64 };
        let mut cfg = crate::workload::preset("ycsb-a").unwrap();
        cfg.verify = true;
        let out = run_workload(&engine, &spec, &cfg, 2, 2_000, None);
        assert_eq!(out.result.phase, "ycsb-a");
        assert_eq!(out.result.ops, 2_000);
        assert_eq!(out.result.lat.count(), 2_000);
        assert_eq!(out.kind_counts.iter().sum::<u64>(), 2_000);
        // A 50/50 mix: both reads and updates actually ran.
        assert!(out.kind_counts[0] > 500, "reads: {:?}", out.kind_counts);
        assert!(out.kind_counts[2] > 500, "updates: {:?}", out.kind_counts);
        assert_eq!(out.violations, 0, "violations: {:?}", out.violation_samples);
        engine.shutdown();
        server.shutdown();
    }

    #[test]
    fn tracing_on_yields_resolvable_exemplars() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let server = MemServer::start(
            &fabric,
            MemServerConfig {
                region_size: 96 << 20,
                flush_zone: 40 << 20,
                compaction_workers: 2,
                dispatchers: 1,
            },
        );
        let deps = EngineDeps {
            ctx: ComputeContext::new(&fabric),
            memnodes: vec![MemNodeHandle::from_server(&server)],
        };
        let engine = build_dlsm(&deps, DbConfig::small(), 1).unwrap();
        let spec = WorkloadSpec { num_kv: 3_000, key_size: 20, value_size: 50 };
        dlsm_trace::set_level(dlsm_trace::Level::All);
        let fill = run_fill(&engine, &spec, 2);
        engine.wait_until_quiescent();
        let rr = run_random_read(&engine, &spec, 2, 1_500);
        dlsm_trace::set_level(dlsm_trace::Level::Off);
        for r in [&fill, &rr] {
            assert!(!r.exemplars.is_empty(), "{}: no exemplars with tracing on", r.phase);
            let p99 = r.lat.quantile(0.99);
            for e in &r.exemplars {
                assert_ne!(e.trace_id, 0, "{}: exemplar without a trace id", r.phase);
                assert!(
                    e.bucket_max_ns() >= p99,
                    "{}: exemplar bucket below the p99 cut",
                    r.phase
                );
            }
            // Slowest first.
            assert!(r.exemplars.windows(2).all(|w| w[0].value_ns >= w[1].value_ns));
        }
        engine.shutdown();
        server.shutdown();
    }

    #[test]
    fn duration_bound_stops_the_phase() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let server = MemServer::start(
            &fabric,
            MemServerConfig {
                region_size: 96 << 20,
                flush_zone: 40 << 20,
                compaction_workers: 2,
                dispatchers: 1,
            },
        );
        let deps = EngineDeps {
            ctx: ComputeContext::new(&fabric),
            memnodes: vec![MemNodeHandle::from_server(&server)],
        };
        let engine = build_dlsm(&deps, DbConfig::small(), 1).unwrap();
        let spec = WorkloadSpec { num_kv: 1_000, key_size: 20, value_size: 50 };
        let cfg = crate::workload::preset("ycsb-c").unwrap();
        let out = run_workload(
            &engine,
            &spec,
            &cfg,
            2,
            u64::MAX,
            Some(Duration::from_millis(150)),
        );
        assert!(out.result.ops > 0, "time-bound phase did no work");
        assert!(
            out.result.elapsed < Duration::from_secs(10),
            "phase failed to stop: {:?}",
            out.result.elapsed
        );
        engine.shutdown();
        server.shutdown();
    }
}
