//! A `db_bench`-style tool (the paper drives all experiments with RocksDB's
//! `db_bench`; this is the equivalent for this repository's engines).
//!
//! ```text
//! db_bench --system dlsm --benchmarks randomfill,randomread,readseq \
//!          --num 200000 --threads 8 --value-size 400 --lambda 1
//!
//!   --system      dlsm | dlsm-block | rocksdb-8k | rocksdb-2k |
//!                 memory-rocksdb | nova | sherman        (default dlsm)
//!   --benchmarks  comma list of: randomfill randomread readseq
//!                 readrandomwriterandom mixed-rNN, or any workload preset
//!                 name (see --workload)                    (default all three)
//!   --workload    comma list of workload presets to run INSTEAD of
//!                 --benchmarks: ycsb-a b c d e f, delete-churn,
//!                 flash-crowd, diurnal, burst, bigfill. Workload phases
//!                 preload their own keys (no implicit fill) and report
//!                 per-verb op counts
//!   --mix         override the preset op mix, as
//!                 read:insert:update:rmw:delete:scan percentages summing
//!                 to 100 (e.g. 50:0:50:0:0:0)
//!   --zipf-theta  override key skew: Zipfian theta in (0,1)  (presets pick
//!                 their own; YCSB default 0.99)
//!   --scan-len    max entries per scan op                  (preset default)
//!   --rate        target ops/s across all threads (0 = unthrottled; the
//!                 diurnal/burst presets shape this rate over the phase)
//!   --duration    run each workload phase for this many seconds instead
//!                 of a fixed op count
//!   --verify      encode key+version into every value and check
//!                 read-your-writes / tombstone correctness inline; any
//!                 violation fails the run (exit 1)
//!   --seed        workload RNG seed (per-thread streams derive from it)
//!   --num         key-value pairs                          (default 200000)
//!   --threads     front-end threads                        (default 8)
//!   --key-size    bytes                                    (default 20)
//!   --value-size  bytes                                    (default 400)
//!   --lambda      dLSM shards                              (default 1)
//!   --reads       ops for read/mixed phases                (default = num)
//!   --cache       on | off — compute-side read cache (dLSM engines only;
//!                 default on, sized to the dataset)
//!   --cache-bytes explicit read-cache budget in bytes (implies on)
//!   --scale       network cost scale (1.0 = EDR)           (default 1.0)
//!   --cores       memory-node compaction cores             (default 12)
//!   --json        output path for the machine-readable run summary
//!                 (default BENCH_<system>.json)
//!   --trace       enable the flight recorder; on exit dump the full
//!                 Chrome/Perfetto trace, the 5 slowest traces, and the
//!                 "doctor" stall report under results/; each
//!                 phase's p99.9 exemplars resolve to a root span in the
//!                 slowest-traces dump
//!   --timeline    stall episodes: the trace rings record the engine's
//!                 flush/compaction/stall spans (only those, unless --trace
//!                 records everything), each write stall becomes an
//!                 episode, and the doctor stall report is printed. Adds a
//!                 per-phase `timeline` block to the JSON and writes the
//!                 episodes and per-phase rollup to
//!                 results/TIMELINE_<system>.json
//!   --metrics-addr      serve Prometheus text exposition on this address
//!                       for the duration of the run (port 0 = ephemeral;
//!                       the bound address is printed). Exposes the
//!                       engine's per-shard live gauges plus every memory
//!                       node's allocator/server series (DESIGN.md §8b)
//!   --metrics-hold-secs keep the exporter up this long after the last
//!                       phase, for out-of-process scrapes   (default 0)
//! ```
//!
//! Besides the throughput lines, every run renders a latency-percentile
//! table and writes a `BENCH_<system>.json` with per-phase throughput,
//! latency quantiles and RDMA verb traffic, plus the engine's and memory
//! nodes' full telemetry snapshots (DESIGN.md §8).

use dlsm_bench::generator::ChooserKind;
use dlsm_bench::harness::{run_fill, run_mixed, run_random_read, run_scan, run_workload, PhaseResult};
use dlsm_bench::report::{fmt_mops, fmt_us, Table};
use dlsm_bench::setup::{build_scenario_sized, workload_headroom, SystemKind};
use dlsm_bench::workload::{preset, OpKind, OpMix, WorkloadSpec};
use dlsm_telemetry::{write_hist_json, JsonWriter};
use rdma_sim::{NetworkProfile, StatsSnapshot, Verb};
use std::collections::HashSet;

/// Everything one phase contributes to the report: harness result, fabric
/// traffic it caused, workload extras and read-cache counter growth.
type PhaseRow = (PhaseResult, StatsSnapshot, Option<WorkloadInfo>, Option<CacheCounters>);

/// Total microseconds writers spent stalled, from the engine's telemetry
/// counters (0 for engines without stall accounting).
fn engine_stall_micros(engine: &dyn dlsm_baselines::Engine) -> u64 {
    engine
        .telemetry()
        .map(|s| s.counter("stall_imm_micros") + s.counter("stall_l0_micros"))
        .unwrap_or(0)
}

/// Identity of one ring event, for deduplicating events collected at
/// several phase boundaries.
fn event_key(e: &dlsm_trace::Event) -> (u64, u64, u64, u64) {
    (e.trace_id, e.tid, e.span_id, e.ts_us)
}

/// Extra per-phase JSON facts a workload phase carries beyond the common
/// throughput/latency/traffic block.
struct WorkloadInfo {
    mix: String,
    verify: bool,
    kinds: [(&'static str, u64); 6],
    violations: u64,
}

/// The engine's read-cache counters (absolute values, from the `cache_*`
/// telemetry rows). `None` when the engine runs without a cache.
#[derive(Clone, Copy, Default)]
struct CacheCounters {
    hits: u64,
    misses: u64,
    bytes_saved: u64,
    evictions: u64,
    invalidations: u64,
}

impl CacheCounters {
    fn sample(engine: &dyn dlsm_baselines::Engine) -> Option<CacheCounters> {
        let snap = engine.telemetry()?;
        // The cache exports its counters even when idle; their absence means
        // the engine runs uncached (or is a baseline without telemetry).
        snap.counters.iter().find(|(n, _)| n == "cache_inserts")?;
        Some(CacheCounters {
            hits: snap.counter("cache_block_hits") + snap.counter("cache_extent_hits"),
            misses: snap.counter("cache_block_misses") + snap.counter("cache_extent_misses"),
            bytes_saved: snap.counter("cache_bytes_saved"),
            evictions: snap.counter("cache_evictions"),
            invalidations: snap.counter("cache_invalidations"),
        })
    }

    /// Counter growth across one phase.
    fn delta(self, before: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            bytes_saved: self.bytes_saved - before.bytes_saved,
            evictions: self.evictions - before.evictions,
            invalidations: self.invalidations - before.invalidations,
        }
    }

    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut system = "dlsm".to_string();
    let mut benchmarks = vec![
        "randomfill".to_string(),
        "randomread".to_string(),
        "readseq".to_string(),
    ];
    let mut num = 200_000u64;
    let mut threads = 8usize;
    let mut key_size = 20usize;
    let mut value_size = 400usize;
    let mut lambda = 1usize;
    let mut reads: Option<u64> = None;
    let mut scale = 1.0f64;
    let mut cores = 12usize;
    let mut json_path: Option<String> = None;
    let mut trace = false;
    let mut timeline = false;
    let mut metrics_addr: Option<String> = None;
    let mut metrics_hold_secs = 0u64;
    let mut mix_override: Option<OpMix> = None;
    let mut zipf_theta: Option<f64> = None;
    let mut scan_len: Option<u64> = None;
    let mut rate: Option<u64> = None;
    let mut duration_secs: Option<f64> = None;
    let mut verify = false;
    let mut seed: Option<u64> = None;
    let mut cache_arg: Option<String> = None;
    let mut cache_bytes: Option<u64> = None;

    let mut i = 0;
    while i < args.len() {
        // Boolean flags take no value operand.
        if args[i] == "--trace" {
            trace = true;
            i += 1;
            continue;
        }
        if args[i] == "--verify" {
            verify = true;
            i += 1;
            continue;
        }
        if args[i] == "--timeline" {
            timeline = true;
            i += 1;
            continue;
        }
        let value = args.get(i + 1).cloned().unwrap_or_default();
        match args[i].as_str() {
            "--system" => system = value,
            "--benchmarks" | "--workload" => {
                benchmarks = value.split(',').map(|s| s.trim().to_string()).collect()
            }
            "--mix" => {
                mix_override = Some(OpMix::parse(&value).unwrap_or_else(|e| {
                    eprintln!("bad --mix '{value}': {e}");
                    std::process::exit(2);
                }))
            }
            "--zipf-theta" => zipf_theta = Some(value.parse().expect("--zipf-theta")),
            "--scan-len" => scan_len = Some(value.parse().expect("--scan-len")),
            "--rate" => rate = Some(value.parse().expect("--rate")),
            "--duration" => duration_secs = Some(value.parse().expect("--duration")),
            "--seed" => seed = Some(value.parse().expect("--seed")),
            "--num" => num = value.parse().expect("--num"),
            "--threads" => threads = value.parse().expect("--threads"),
            "--key-size" => key_size = value.parse().expect("--key-size"),
            "--value-size" => value_size = value.parse().expect("--value-size"),
            "--lambda" => lambda = value.parse().expect("--lambda"),
            "--reads" => reads = Some(value.parse().expect("--reads")),
            "--cache" => cache_arg = Some(value),
            "--cache-bytes" => cache_bytes = Some(value.parse().expect("--cache-bytes")),
            "--scale" => scale = value.parse().expect("--scale"),
            "--cores" => cores = value.parse().expect("--cores"),
            "--json" => json_path = Some(value),
            "--metrics-addr" => metrics_addr = Some(value),
            "--metrics-hold-secs" => metrics_hold_secs = value.parse().expect("--metrics-hold-secs"),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }

    let kind = match system.as_str() {
        "dlsm" => SystemKind::Dlsm { lambda },
        "dlsm-block" => SystemKind::DlsmBlock,
        "rocksdb-8k" => SystemKind::RocksDbRdma { block: 8192 },
        "rocksdb-2k" => SystemKind::RocksDbRdma { block: 2048 },
        "memory-rocksdb" => SystemKind::MemoryRocksDb,
        "nova" => SystemKind::NovaLsm,
        "sherman" => SystemKind::Sherman,
        other => {
            eprintln!("unknown system {other}");
            std::process::exit(2);
        }
    };
    if let Some(t) = zipf_theta {
        if !(0.0..1.0).contains(&t) || t == 0.0 {
            eprintln!("--zipf-theta must be in (0, 1), got {t}");
            std::process::exit(2);
        }
    }
    let cache_off = match cache_arg.as_deref() {
        None | Some("on") => false,
        Some("off") => true,
        Some(other) => {
            eprintln!("--cache takes on|off, got {other}");
            std::process::exit(2);
        }
    };
    if cache_off && cache_bytes.is_some() {
        eprintln!("--cache off and --cache-bytes are mutually exclusive");
        std::process::exit(2);
    }
    let spec = WorkloadSpec { num_kv: num, key_size, value_size };
    let read_ops = reads.unwrap_or(num);
    let profile = NetworkProfile::edr_100g().scaled(scale);

    println!(
        "db_bench: system={system} num={num} threads={threads} kv={key_size}+{value_size}B scale={scale}"
    );
    // Set the level before the engine exists so even startup events land;
    // `--timeline` alone records only the lifecycle spans it folds.
    if trace {
        dlsm_trace::set_level(dlsm_trace::Level::All);
        println!("tracing: enabled (flight-recorder rings, dumps under results/)");
    } else if timeline {
        dlsm_trace::set_level(dlsm_trace::Level::Lifecycle);
    }
    if timeline {
        println!(
            "timeline: enabled (lifecycle trace spans, stall report + results/TIMELINE_*.json)"
        );
    }
    // Churny workload phases (delete/insert-heavy mixes) pin more dead data
    // remotely between compactions; size the memory node for it up front.
    let preset_cfgs: Vec<_> = benchmarks.iter().filter_map(|b| preset(b)).collect();
    let headroom = workload_headroom(&preset_cfgs);
    let sc = build_scenario_sized(kind, &spec, profile, cores, headroom, |mut c| {
        if cache_off {
            c.cache = dlsm::CacheConfig::default(); // capacity 0 = disabled
        } else if let Some(b) = cache_bytes {
            c.cache.capacity_bytes = b;
        }
        c
    });
    if cache_off {
        println!("cache: off");
    } else {
        let budget =
            cache_bytes.unwrap_or(dlsm_bench::setup::scaled_db_config(&spec).cache.capacity_bytes);
        println!("cache: {:.0} MiB budget (dLSM engines)", budget as f64 / (1 << 20) as f64);
    }
    // The exporter covers both sides of the fabric: the engine's per-shard
    // live gauges and every memory node's allocator/server series; every
    // scrape gathers them live.
    let metrics_server = metrics_addr.map(|addr| {
        let reg = dlsm_metrics::MetricsRegistry::new();
        dlsm_metrics::register_process_metrics(&reg);
        sc.engine.register_metrics(&reg);
        for s in &sc.servers {
            s.register_metrics(&reg);
        }
        let srv = dlsm_metrics::serve(reg, addr.as_str()).unwrap_or_else(|e| {
            eprintln!("cannot bind --metrics-addr {addr}: {e}");
            std::process::exit(2);
        });
        println!("metrics: serving http://{}/metrics", srv.local_addr());
        srv
    });
    let before = sc.fabric.stats().snapshot();
    let mut results: Vec<PhaseRow> = Vec::new();
    // Ring events belonging to exemplar traces, captured at each phase
    // boundary before the flight-recorder rings wrap over them.
    let mut exemplar_events: Vec<dlsm_trace::Event> = Vec::new();
    let mut exemplar_keys: HashSet<(u64, u64, u64, u64)> = HashSet::new();
    let mut filled = false;
    let mut cache_prev = CacheCounters::sample(sc.engine.as_ref());
    for bench in &benchmarks {
        let phase_before = sc.fabric.stats().snapshot();
        let (mut result, info) = match bench.as_str() {
            "randomfill" => {
                let r = run_fill(sc.engine.as_ref(), &spec, threads);
                filled = true;
                (r, None)
            }
            "randomread" => {
                ensure_filled(&sc, &spec, &mut filled, threads);
                sc.engine.wait_until_quiescent();
                (run_random_read(sc.engine.as_ref(), &spec, threads, read_ops), None)
            }
            "readseq" => {
                ensure_filled(&sc, &spec, &mut filled, threads);
                sc.engine.wait_until_quiescent();
                (run_scan(sc.engine.as_ref(), spec.num_kv), None)
            }
            mixed if mixed.starts_with("mixed-r") || mixed == "readrandomwriterandom" => {
                ensure_filled(&sc, &spec, &mut filled, threads);
                let pct: u8 = mixed.strip_prefix("mixed-r").and_then(|p| p.parse().ok()).unwrap_or(50);
                (run_mixed(sc.engine.as_ref(), &spec, threads, read_ops, pct), None)
            }
            other => match preset(other) {
                Some(mut cfg) => {
                    if let Some(m) = mix_override {
                        cfg.mix = m;
                    }
                    if let Some(t) = zipf_theta {
                        cfg.chooser = match cfg.chooser {
                            ChooserKind::Latest { .. } => ChooserKind::Latest { theta: t },
                            _ => ChooserKind::Zipfian { theta: t },
                        };
                    }
                    if let Some(l) = scan_len {
                        cfg.scan_len = l;
                    }
                    if let Some(r) = rate {
                        cfg.rate_ops_per_sec = r;
                    }
                    if let Some(s) = seed {
                        cfg.seed = s;
                    }
                    cfg.verify = cfg.verify || verify;
                    // Workload phases preload their own key range (with the
                    // verified codec when verifying) — no implicit fill.
                    let ops = if duration_secs.is_some() { u64::MAX } else { read_ops };
                    let dur = duration_secs.map(std::time::Duration::from_secs_f64);
                    let out = run_workload(sc.engine.as_ref(), &spec, &cfg, threads, ops, dur);
                    let m = cfg.mix;
                    let mut kinds = [("", 0u64); 6];
                    for (slot, (k, n)) in
                        kinds.iter_mut().zip(OpKind::ALL.iter().zip(out.kind_counts))
                    {
                        *slot = (k.name(), n);
                    }
                    let by_kind: Vec<String> = kinds
                        .iter()
                        .filter(|(_, n)| *n > 0)
                        .map(|(k, n)| format!("{k}={n}"))
                        .collect();
                    println!("  {:<22} ops by kind: {}", cfg.name, by_kind.join(" "));
                    if out.violations > 0 {
                        eprintln!(
                            "  {:<22} VERIFICATION FAILED: {} violation(s)",
                            cfg.name, out.violations
                        );
                        for s in &out.violation_samples {
                            eprintln!("    - {s}");
                        }
                    } else if cfg.verify {
                        println!("  {:<22} verification: clean", cfg.name);
                    }
                    let info = WorkloadInfo {
                        mix: format!(
                            "{}:{}:{}:{}:{}:{}",
                            m.read, m.insert, m.update, m.rmw, m.delete, m.scan
                        ),
                        verify: cfg.verify,
                        kinds,
                        violations: out.violations,
                    };
                    (out.result, Some(info))
                }
                None => {
                    eprintln!("unknown benchmark {other}");
                    continue;
                }
            },
        };
        println!(
            "{:<24} {:>10} ops in {:>8.3}s = {:>8} Mops/s",
            result.phase,
            result.ops,
            result.elapsed.as_secs_f64(),
            fmt_mops(result.mops()),
        );
        let phase_traffic = sc.fabric.stats().snapshot().delta(&phase_before);
        if trace && !result.exemplars.is_empty() {
            // Grab the exemplar traces' events now: by run end the rings
            // may have wrapped past this phase. Exemplars whose root span
            // the rings have *already* wrapped over can no longer resolve
            // to a trace — drop them, so every published exemplar does.
            let ids: HashSet<u64> = result.exemplars.iter().map(|e| e.trace_id).collect();
            let events = dlsm_trace::collect_events();
            let complete: HashSet<u64> = events
                .iter()
                .filter(|e| {
                    e.kind == dlsm_trace::EventKind::Span
                        && e.parent_id == 0
                        && ids.contains(&e.trace_id)
                })
                .map(|e| e.trace_id)
                .collect();
            result.exemplars.retain(|x| complete.contains(&x.trace_id));
            for e in events {
                if complete.contains(&e.trace_id) && exemplar_keys.insert(event_key(&e)) {
                    exemplar_events.push(e);
                }
            }
        }
        if timeline {
            // Fold the rings just for the progress line (the end-of-run
            // fold is the authoritative one).
            let eps = dlsm_trace::fold_episodes(&dlsm_trace::collect_events());
            let (count, stalled, worst) =
                phase_episode_summary(&eps, result.start_us, result.end_us());
            if count > 0 {
                println!(
                    "  {:<22} timeline: {count} stall episode(s), {:.1} ms stalled, worst {:.1} ms",
                    result.phase,
                    stalled as f64 / 1e3,
                    worst as f64 / 1e3,
                );
            }
        }
        let cache_now = CacheCounters::sample(sc.engine.as_ref());
        let cache_delta = match (cache_now, cache_prev) {
            (Some(now), Some(prev)) => Some(now.delta(prev)),
            _ => None,
        };
        cache_prev = cache_now;
        if let Some(c) = &cache_delta {
            if c.hits + c.misses > 0 {
                println!(
                    "  {:<22} cache: {:.1}% hit rate, {:.1} MiB saved, {} evictions, {} invalidations",
                    result.phase,
                    c.hit_rate() * 100.0,
                    c.bytes_saved as f64 / (1 << 20) as f64,
                    c.evictions,
                    c.invalidations,
                );
            }
        }
        results.push((result, phase_traffic, info, cache_delta));
    }

    let mut lat = Table::new(
        format!("{} latency (us)", sc.engine.name()),
        &["phase", "ops", "Mops/s", "p50", "p90", "p99", "p99.9", "max"],
    );
    for (r, ..) in &results {
        lat.row(vec![
            r.phase.clone(),
            r.ops.to_string(),
            fmt_mops(r.mops()),
            fmt_us(r.lat.p50()),
            fmt_us(r.lat.p90()),
            fmt_us(r.lat.p99()),
            fmt_us(r.lat.p999()),
            fmt_us(r.lat.max()),
        ]);
    }
    lat.print();

    let traffic = sc.fabric.stats().snapshot().delta(&before);
    println!(
        "network: {:.1} MiB read / {:.1} MiB written / {} sends; remote space {:.1} MiB",
        traffic.bytes(Verb::Read) as f64 / (1 << 20) as f64,
        (traffic.bytes(Verb::Write) + traffic.bytes(Verb::WriteImm)) as f64 / (1 << 20) as f64,
        traffic.ops(Verb::Send),
        (sc.engine.remote_space_used()
            + sc.servers.iter().map(|s| s.compaction_zone_in_use()).sum::<u64>()) as f64
            / (1 << 20) as f64,
    );

    if let Some(report) = sc.engine.stats_report() {
        print!("{report}");
    }

    // Close the event stream (`--trace`, `--timeline`): stop recording and
    // read the rings once. The TIMELINE artifact, the per-phase JSON blocks
    // and the doctor report all fold these same events.
    let events = (trace || timeline).then(|| {
        dlsm_trace::set_level(dlsm_trace::Level::Off);
        dlsm_trace::collect_events()
    });
    let episodes = events.as_deref().filter(|_| timeline).map(dlsm_trace::fold_episodes);
    let doctor = events.as_deref().map(|events| {
        // Published p999 exemplars from every phase, so episode rows can be
        // flagged when they hit one.
        let exemplars: Vec<u64> = results
            .iter()
            .flat_map(|(r, ..)| r.exemplars.iter().map(|e| e.trace_id))
            .collect();
        let origin = results.first().map_or(0, |(r, ..)| r.start_us);
        dlsm_trace::doctor(events, &exemplars, origin)
    });
    if let Some(episodes) = &episodes {
        let phases: Vec<PhaseSpan> = results
            .iter()
            .map(|(r, ..)| PhaseSpan {
                name: r.phase.clone(),
                start_us: r.start_us,
                end_us: r.end_us(),
            })
            .collect();
        let json = write_timeline_json(
            episodes,
            &phases,
            engine_stall_micros(sc.engine.as_ref()),
            dlsm_trace::lifecycle_overwritten(),
        );
        let tl_path = format!("results/TIMELINE_{}.json", sanitize(&system));
        let write = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&tl_path, json + "\n"));
        match write {
            Ok(()) => println!("wrote {tl_path} ({} episodes)", episodes.len()),
            Err(e) => eprintln!("failed to write {tl_path}: {e}"),
        }
    }

    let path = json_path.unwrap_or_else(|| format!("BENCH_{}.json", sanitize(&system)));
    let json =
        run_json(&system, &spec, threads, scale, &sc, &results, &traffic, episodes.as_deref());
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
    if let (Some(events), Some(doctor)) = (&events, &doctor) {
        if trace {
            dump_traces(&system, events, &exemplar_events, doctor);
        }
        print!("{doctor}");
    }
    if let Some(mut srv) = metrics_server {
        if metrics_hold_secs > 0 {
            println!(
                "metrics: holding {metrics_hold_secs}s for scrapes at http://{}/metrics",
                srv.local_addr()
            );
            std::thread::sleep(std::time::Duration::from_secs(metrics_hold_secs));
        }
        srv.stop();
    }
    sc.shutdown();
    let violations: u64 =
        results.iter().filter_map(|(_, _, w, _)| w.as_ref()).map(|w| w.violations).sum();
    if violations > 0 {
        eprintln!("db_bench: {violations} verification violation(s) — failing the run");
        std::process::exit(1);
    }
}

/// Flight-recorder output (dumped before shutdown so the server threads'
/// rings are still registered): the full Perfetto-loadable trace, a
/// slowest-traces cut — widened with every exemplar trace captured at
/// phase boundaries, so each JSON exemplar resolves to a complete trace —
/// and the doctor stall report.
fn dump_traces(
    system: &str,
    events: &[dlsm_trace::Event],
    exemplar_events: &[dlsm_trace::Event],
    doctor: &str,
) {
    let sys = sanitize(system);
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("failed to create results/: {e}");
    }

    let full = format!("results/TRACE_{sys}.json");
    match std::fs::write(&full, dlsm_trace::chrome_trace(events)) {
        Ok(()) => println!("wrote {full} ({} events)", events.len()),
        Err(e) => eprintln!("failed to write {full}: {e}"),
    }

    let mut slowest = dlsm_trace::slowest_traces(events, 5);
    if !exemplar_events.is_empty() {
        let have: HashSet<(u64, u64, u64, u64)> = slowest.iter().map(event_key).collect();
        slowest.extend(
            exemplar_events.iter().filter(|e| !have.contains(&event_key(e))).cloned(),
        );
        slowest.sort_by_key(|e| (e.ts_us, e.span_id));
    }
    let slow_path = format!("results/TRACE_{sys}_slowest.json");
    match std::fs::write(&slow_path, dlsm_trace::chrome_trace(&slowest)) {
        Ok(()) => println!("wrote {slow_path} ({} events)", slowest.len()),
        Err(e) => eprintln!("failed to write {slow_path}: {e}"),
    }

    let doc_path = format!("results/TRACE_{sys}_doctor.txt");
    if let Err(e) = std::fs::write(&doc_path, doctor) {
        eprintln!("failed to write {doc_path}: {e}");
    }
}

/// The machine-readable run summary: configuration, per-phase throughput +
/// latency quantiles + attributed RDMA traffic, global per-verb traffic,
/// and the engine/server telemetry snapshots.
#[allow(clippy::too_many_arguments)]
fn run_json(
    system: &str,
    spec: &WorkloadSpec,
    threads: usize,
    scale: f64,
    sc: &dlsm_bench::setup::Scenario,
    results: &[PhaseRow],
    traffic: &StatsSnapshot,
    episodes: Option<&[dlsm_trace::StallEpisode]>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("system", system);
    w.field_str("engine", sc.engine.name());
    w.field_u64("num", spec.num_kv);
    w.field_u64("threads", threads as u64);
    w.field_u64("key_size", spec.key_size as u64);
    w.field_u64("value_size", spec.value_size as u64);
    w.field_f64("scale", scale);
    w.key("phases");
    w.begin_array();
    for (r, phase_traffic, info, cache) in results {
        w.begin_object();
        w.field_str("phase", &r.phase);
        w.field_u64("threads", r.threads as u64);
        w.field_u64("ops", r.ops);
        w.field_f64("seconds", r.elapsed.as_secs_f64());
        // Absolute clocks: wall time (unix millis) for offline alignment
        // across runs, trace monotonic micros for joining windows/episodes.
        w.field_u64("wall_start_ms", r.start_unix_ms);
        w.field_u64("wall_end_ms", r.end_unix_ms());
        w.field_u64("start_us", r.start_us);
        w.field_u64("end_us", r.end_us());
        w.field_f64("mops", r.mops());
        w.key("latency");
        write_hist_json(&mut w, &r.lat);
        if !r.exemplars.is_empty() {
            w.key("exemplars");
            dlsm_telemetry::write_exemplars_json(&mut w, &r.exemplars);
        }
        w.key("rdma");
        write_verb_traffic(&mut w, phase_traffic);
        if let Some(c) = cache {
            w.key("cache");
            w.begin_object();
            w.field_u64("hits", c.hits);
            w.field_u64("misses", c.misses);
            w.field_f64("hit_rate", c.hit_rate());
            w.field_u64("bytes_saved", c.bytes_saved);
            w.field_u64("evictions", c.evictions);
            w.field_u64("invalidations", c.invalidations);
            w.end_object();
        }
        if let Some(episodes) = episodes {
            let (count, stalled, worst) = phase_episode_summary(episodes, r.start_us, r.end_us());
            w.key("timeline");
            w.begin_object();
            w.field_u64("stall_episodes", count);
            w.field_f64("stalled_ms", stalled as f64 / 1e3);
            w.field_f64("worst_stall_ms", worst as f64 / 1e3);
            w.end_object();
        }
        if let Some(wl) = info {
            w.key("workload");
            w.begin_object();
            w.field_str("mix", &wl.mix);
            w.field_bool("verify", wl.verify);
            w.key("kinds");
            w.begin_object();
            for (k, n) in wl.kinds {
                w.field_u64(k, n);
            }
            w.end_object();
            w.field_u64("violations", wl.violations);
            w.end_object();
        }
        w.end_object();
    }
    w.end_array();
    // Global fabric traffic across the whole run, per verb — every flush,
    // compaction and foreground op, whoever issued it.
    w.key("rdma");
    write_verb_traffic(&mut w, traffic);
    w.field_u64("remote_space_bytes", sc.engine.remote_space_used());
    w.key("engine_telemetry");
    match sc.engine.telemetry() {
        Some(snap) => {
            w.begin_object();
            snap.write_json_fields(&mut w);
            w.end_object();
        }
        None => w.value_str("unavailable"),
    }
    let mut servers = dlsm_telemetry::TelemetrySnapshot::new();
    for s in &sc.servers {
        servers.merge(&s.telemetry_snapshot());
    }
    w.key("server_telemetry");
    w.begin_object();
    servers.write_json_fields(&mut w);
    w.end_object();
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

/// Per-verb `{ops, bytes}` map covering every verb (zeros included, so the
/// key set is stable for downstream tooling).
fn write_verb_traffic(w: &mut JsonWriter, s: &StatsSnapshot) {
    w.begin_object();
    for v in Verb::ALL {
        w.key(v.name());
        w.begin_object();
        w.field_u64("ops", s.ops(v));
        w.field_u64("bytes", s.bytes(v));
        w.end_object();
    }
    w.end_object();
}

/// A named phase span on the trace monotonic clock, for aligning episodes
/// to bench phases offline.
struct PhaseSpan {
    /// Phase name as it appears in the bench JSON (`fill`, `read`, ...).
    name: String,
    /// Phase start, trace monotonic micros.
    start_us: u64,
    /// Phase end, trace monotonic micros.
    end_us: u64,
}

/// Per-phase episode summary: `(episodes, stalled_micros, worst_micros)`
/// for episodes whose *end* lands inside `[start_us, end_us)` — each
/// episode is attributed to exactly one phase.
fn phase_episode_summary(
    episodes: &[dlsm_trace::StallEpisode],
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

/// Serialize the episode table, the phase spans with their episode rollup,
/// and the lifecycle records lost to ring wrap
/// ([`dlsm_trace::lifecycle_overwritten`]) as the `TIMELINE_<sys>.json`
/// document that `artifact_check timeline` validates.
fn write_timeline_json(
    episodes: &[dlsm_trace::StallEpisode],
    phases: &[PhaseSpan],
    engine_stall_micros: u64,
    lifecycle_overwritten: u64,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("engine_stall_micros", engine_stall_micros);
    w.field_u64("lifecycle_overwritten", lifecycle_overwritten);
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

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

fn ensure_filled(
    sc: &dlsm_bench::setup::Scenario,
    spec: &WorkloadSpec,
    filled: &mut bool,
    threads: usize,
) {
    if !*filled {
        println!("(loading {} pairs first)", spec.num_kv);
        run_fill(sc.engine.as_ref(), spec, threads);
        *filled = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsm_trace::StallEpisode;

    fn episode(end_us: u64, micros: u64, reason: u64) -> StallEpisode {
        StallEpisode {
            start_us: end_us.saturating_sub(micros),
            end_us,
            micros,
            reason,
            trace_id: 0,
            tid: 1,
            concurrent_flushes: 0,
            concurrent_compactions: 0,
        }
    }

    #[test]
    fn phase_summary_attributes_by_episode_end() {
        let ep = |end_us, micros| episode(end_us, micros, dlsm_trace::STALL_IMM_QUEUE);
        let eps = vec![ep(100, 50), ep(250, 30), ep(900, 700)];
        assert_eq!(phase_episode_summary(&eps, 0, 300), (2, 80, 50));
        assert_eq!(phase_episode_summary(&eps, 300, 1000), (1, 700, 700));
        assert_eq!(phase_episode_summary(&eps, 1000, 2000), (0, 0, 0));
    }

    #[test]
    fn timeline_json_is_valid_and_carries_phase_summaries() {
        let eps = vec![episode(60_000, 50_000, dlsm_trace::STALL_L0_LIMIT)];
        let phases = vec![PhaseSpan { name: "fill".into(), start_us: 0, end_us: 250_000 }];
        let s = write_timeline_json(&eps, &phases, 50_000, 0);
        let root = dlsm_bench::json::parse(&s).expect("valid JSON");
        assert_eq!(root.get("lifecycle_overwritten").and_then(|v| v.as_num()), Some(0.0));
        assert!(s.contains("\"engine_stall_micros\":50000"));
        assert!(s.contains("\"reason\":\"l0_limit\""));
        assert!(s.contains("\"stall_episodes\":1"));
        assert!(s.contains("\"stalled_micros\":50000"));
        assert!(!s.contains("windows") && !s.contains("tick_ms"), "{s}");
    }
}
