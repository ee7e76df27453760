//! `dlsm_benchmark` — the benchmark of record (see README.md).
//!
//! One run = one workload: set-up (three times, median reported) → warm-up
//! → one measured window of `--seconds` → audit. `--trace 0` reports the
//! end-to-end metrics with tracing off; `--trace 1` alternates traced and
//! untraced slices inside the window, runs the layer probes, and reports
//! the per-layer metrics. The last line of standard output is the result
//! as one JSON object.

mod engine;
mod gen;
mod probes;
mod recorder;
mod report;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicU32;
use std::time::{Duration, Instant};

use engine::Engine;
use workload::{Client, Workload, WORKLOADS};

/// Key space: N records of 20 B + 400 B = 210 MB of user data. Half of what
/// ISSUE 12 asked for: one set-up takes ~1.1 s instead of ~3.2 s, and the
/// seconds saved on three set-ups per run go into a 25 s measured window.
pub const N: u64 = 500_000;
const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    probes_only: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: dlsm_benchmark (--workload <fill|get-remote|mixed|scan> | --all | --probes)\n\
         \x20      [--seed <u64>] [--seconds <1..60>] [--trace <0|1>] [--out <dir>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 25,
        trace: false,
        probes_only: false,
        out: std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| "benchmark".into(), PathBuf::from)
            .join("out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => match Workload::by_name(&value()) {
                Some(w) => args.workloads.push(w),
                None => usage(),
            },
            "--all" => args.workloads = WORKLOADS.iter().collect(),
            "--probes" => args.probes_only = true,
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => args.out = value().into(),
            _ => usage(),
        }
    }
    if args.workloads.is_empty() && !args.probes_only {
        usage();
    }
    args
}

/// What one run hands to the report.
pub struct RunData {
    pub workload: &'static Workload,
    pub seed: u64,
    pub n: u64,
    pub setup_seconds: Vec<f64>,
    pub shapes: Vec<Vec<usize>>,
    pub window: workload::Phase,
    pub space_bytes: u64,
    pub lifetime: engine::Counters,
    pub audit_violations: u64,
    pub audited: u64,
}

/// Window lengths and key-space size of one run.
#[derive(Clone, Copy)]
struct Scale {
    n: u64,
    warmup: Duration,
    window: Duration,
}

fn run_workload(w: &'static Workload, seed: u64, scale: Scale, trace: bool) -> RunData {
    let n = scale.n;
    let mut setup_seconds = Vec::new();
    let mut shapes = Vec::new();
    let mut engine = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        if let Some(old) = engine.take() {
            Engine::shutdown(old);
        }
        let t = Instant::now();
        let e = Engine::open(w.cache_bytes);
        e.preload(n, seed);
        setup_seconds.push(t.elapsed().as_secs_f64());
        shapes.push(e.db.level_shape());
        eprintln!(
            "# set-up {:.3} s, level shape {:?}",
            setup_seconds.last().expect("pushed"),
            shapes.last().expect("pushed")
        );
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");

    let acked: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(1)).collect();
    let mut clients: Vec<Client> = (0..workload::CLIENTS)
        .map(|id| Client::new(id, w.roles, n, seed, &engine.db, &acked))
        .collect();
    workload::run_phase(&engine, &mut clients, scale.warmup, None);
    let window = workload::run_phase(
        &engine,
        &mut clients,
        scale.window,
        trace.then(Instant::now),
    );
    drop(clients);

    let (audit_violations, audited) = if w.writes() {
        (workload::audit(&engine.db, n, &acked), n)
    } else {
        (0, 0)
    };
    let data = RunData {
        workload: w,
        seed,
        n,
        setup_seconds,
        shapes,
        window,
        space_bytes: engine.remote_bytes_in_use(),
        lifetime: engine.counters(),
        audit_violations,
        audited,
    };
    engine.shutdown();
    data
}

/// An engine fault (see `engine::RPC_BUF_BYTES`) can park every thread
/// forever. A run that has not finished by the deadline is reported as
/// failed instead of hanging whoever started it.
fn arm_watchdog(budget: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(budget);
        eprintln!("# watchdog: run exceeded {budget:?}; aborting");
        std::process::exit(3);
    });
}

fn main() -> ExitCode {
    let args = parse_args();
    arm_watchdog(Duration::from_secs(100 + 2 * args.seconds) * args.workloads.len().max(1) as u32);
    let mut all_correct = true;
    if args.probes_only {
        report::print_metrics(&probes::run_all());
    }
    for w in &args.workloads {
        let scale = Scale {
            n: N,
            warmup: WARMUP,
            window: Duration::from_secs(args.seconds),
        };
        let data = run_workload(w, args.seed, scale, args.trace);
        let probe_values = if args.trace {
            probes::run_all()
        } else {
            Vec::new()
        };
        let result = report::build(&data, args.trace, &probe_values);
        report::print_metrics(&result.metrics);
        if let Err(e) = report::write_outputs(&args.out, &data, &result, args.trace) {
            eprintln!("# could not write {}: {e}", args.out.display());
        }
        all_correct &= result.correct;
        println!("{}", result.json_line());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole harness on a small key space: every workload, untraced and
    /// traced, must come out correct with every named metric present.
    #[test]
    fn every_workload_runs_clean_on_a_small_key_space() {
        let scale = Scale {
            n: 40_000,
            warmup: Duration::from_millis(100),
            window: Duration::from_millis(600),
        };
        let probe_values = probes::run_all();
        for w in &WORKLOADS {
            for trace in [false, true] {
                let data = run_workload(w, 5, scale, trace);
                let result = report::build(&data, trace, &probe_values);
                assert!(
                    result.correct,
                    "{} trace={trace}: {} of {} failed",
                    w.name, result.failed, result.attempted
                );
                assert!(result.attempted > 0);
                let expected = if trace {
                    report::PER_LAYER.len()
                } else {
                    report::END_TO_END.len()
                };
                assert_eq!(result.metrics.len(), expected);
                assert!(
                    result.metrics.iter().all(|m| m.value.is_finite()),
                    "{}",
                    w.name
                );
                // At this scale the data fits the cache and reads can leave
                // the fabric idle; everything else must be above zero.
                let idle_ok = |m: &report::Metric| m.value > 0.0 || m.name.starts_with("fabric_");
                assert!(
                    trace || result.metrics.iter().all(idle_ok),
                    "{}: an end-to-end metric is 0",
                    w.name
                );
            }
        }
    }
}
