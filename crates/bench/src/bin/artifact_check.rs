//! Validate the artifacts `db_bench` dumps — and the chaos flight
//! recorder's traces — with one binary, three subcommands and one
//! file-read/exit-code path:
//!
//! ```text
//! artifact_check trace    <TRACE.json>
//! artifact_check profile  <BENCH.json> <PROFILE.folded> <TRACE_slowest.json>
//! artifact_check timeline <TIMELINE.json>
//! ```
//!
//! Exit status: 0 valid, 1 invalid (the first violation on stderr), 2 usage
//! error or unreadable file. There are no flags: the thresholds are the
//! constants below. CI runs every subcommand against the smoke-bench
//! artifacts.
//!
//! **trace** (`db_bench --trace`, `dlsm_trace::chrome_trace`): the file
//! parses as JSON and carries a `traceEvents` array whose entries all have
//! `ph`/`pid`/`tid`; timestamps are monotone per `(pid, tid)` track and
//! `B`/`E` duration events open and close in strict stack discipline. An
//! **empty** file passes: a run whose rings captured nothing (tracing
//! enabled late, or cleared before the dump) legitimately writes zero
//! bytes, and "no trace" is not a malformed trace.
//!
//! **profile** (`db_bench --profile`):
//! 1. the folded flamegraph file parses — every line is
//!    `semicolon;separated;path <count>`, counts are positive, paths are
//!    unique;
//! 2. sample counts are monotone — the whole-run folded total covers every
//!    per-phase delta in the BENCH file, and the sum of all of them (phases
//!    are disjoint slices of one run);
//! 3. every phase attributes at least [`MIN_ATTRIBUTION`] of its thread
//!    wall-time to leaf span paths, stall buckets included;
//! 4. every p999 exemplar resolves: its trace id opens a **root** span
//!    (`"parent_id":"0x0"`) in the slowest-traces cut, so the whole trace
//!    is inspectable, not just a dangling id.
//!
//! A BENCH file with **no** profile blocks fails: the caller asked for
//! profile validation, so silently absent profiles are a bug, not a pass.
//!
//! **timeline** (`db_bench --timeline`):
//! 1. the window series is well-formed — indices strictly increase, every
//!    window spans forward in time (`end_us > start_us`), and consecutive
//!    windows are contiguous (`next.start_us == prev.end_us`);
//! 2. stall episodes reconcile with the engine — the sum of episode
//!    `micros` matches the run's `engine_stall_micros` (the
//!    `stall_imm_micros + stall_l0_micros` counter total) within
//!    [`STALL_TOLERANCE`]; with the engine reporting zero stall time, any
//!    folded episode is a fabrication and fails;
//! 3. the journal stayed within [`MAX_DROPS`], and the accounting identity
//!    `drops == max(0, attempts - capacity)` holds exactly (the write-once
//!    ring's invariant, see `dlsm-timeline`).
//!
//! An empty window series fails: a sampler that never ticked is a bug.
//!
//! JSON parsing lives in [`dlsm_bench::json`].

use std::collections::{HashMap, HashSet};

use dlsm_bench::json::{self, Json};

/// Least share of a phase's thread wall-time its profile must attribute to
/// leaf span paths.
const MIN_ATTRIBUTION: f64 = 0.95;
/// Largest relative gap allowed between summed stall episodes and the
/// engine's stall counters (absorbs bounded journal loss).
const STALL_TOLERANCE: f64 = 0.05;
/// Journal events a timeline may have dropped.
const MAX_DROPS: u64 = 0;

const USAGE: &str = "usage: artifact_check trace <TRACE.json>\n       \
    artifact_check profile <BENCH.json> <PROFILE.folded> <TRACE_slowest.json>\n       \
    artifact_check timeline <TIMELINE.json>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

/// Run one subcommand; returns the process exit status.
fn run(args: &[String]) -> i32 {
    let check: fn(&[String]) -> Result<String, String> = match args {
        [cmd, _] if cmd == "trace" => |t| {
            let s = validate_trace(&t[0])?;
            let (pairs, instants, metadata) = (s.begins, s.instants, s.metadata);
            Ok(format!("{pairs} span pairs, {instants} instants, {metadata} metadata records"))
        },
        [cmd, _, _, _] if cmd == "profile" => |t| validate_profile(&t[0], &t[1], &t[2]),
        [cmd, _] if cmd == "timeline" => |t| validate_timeline(&t[0]),
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    let (cmd, paths) = (&args[0], &args[1..]);
    let mut texts = Vec::with_capacity(paths.len());
    for path in paths {
        match std::fs::read_to_string(path) {
            Ok(t) => texts.push(t),
            Err(e) => {
                eprintln!("artifact_check: cannot read {path}: {e}");
                return 2;
            }
        }
    }
    let paths = paths.join(" ");
    match check(&texts) {
        Ok(summary) => {
            println!("artifact_check {cmd}: {paths} OK — {summary}");
            0
        }
        Err(e) => {
            eprintln!("artifact_check {cmd}: {paths} INVALID — {e}");
            1
        }
    }
}

fn read_num(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("{ctx}: missing numeric {key:?}"))
}

/// The `traceEvents` array of a chrome trace.
fn trace_events(root: &Json) -> Result<&[Json], String> {
    root.get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_arr()
        .ok_or_else(|| "traceEvents is not an array".into())
}

#[derive(Debug, Default)]
struct TraceStats {
    begins: u64,
    ends: u64,
    instants: u64,
    metadata: u64,
}

fn validate_trace(text: &str) -> Result<TraceStats, String> {
    if text.trim().is_empty() {
        return Ok(TraceStats::default());
    }
    let root = json::parse(text)?;
    // Per-(pid, tid) track state: last timestamp and the open B-span stack
    // (names), to enforce monotone clocks and strict B/E pairing.
    let mut tracks: HashMap<(u64, u64), (f64, Vec<String>)> = HashMap::new();
    let mut stats = TraceStats::default();

    for (i, ev) in trace_events(&root)?.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let ctx = format!("event {i}");
        // LOSSY: pids and tids are small integers, exact in f64.
        let pid = read_num(ev, "pid", &ctx)? as u64;
        let tid = read_num(ev, "tid", &ctx)? as u64;
        if ph == "M" {
            stats.metadata += 1;
            continue; // metadata records carry no timestamp
        }
        let ts = read_num(ev, "ts", &ctx)?;
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("").to_string();
        let (last_ts, stack) = tracks.entry((pid, tid)).or_insert((f64::NEG_INFINITY, Vec::new()));
        if ts < *last_ts {
            return Err(format!(
                "event {i} ({name}): ts {ts} goes backwards on track pid={pid} tid={tid} (last {last_ts})"
            ));
        }
        *last_ts = ts;
        match ph {
            "B" => {
                stack.push(name);
                stats.begins += 1;
            }
            "E" => {
                let open = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: E with no open B on pid={pid} tid={tid}"))?;
                if !name.is_empty() && name != open {
                    return Err(format!(
                        "event {i}: E '{name}' closes B '{open}' on pid={pid} tid={tid}"
                    ));
                }
                stats.ends += 1;
            }
            "i" | "I" => stats.instants += 1,
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        }
    }
    for ((pid, tid), (_, stack)) in &tracks {
        if !stack.is_empty() {
            return Err(format!(
                "track pid={pid} tid={tid} ends with {} unclosed B span(s): {:?}",
                stack.len(),
                stack
            ));
        }
    }
    if stats.begins != stats.ends {
        return Err(format!("{} B events vs {} E events", stats.begins, stats.ends));
    }
    Ok(stats)
}

/// Parsed folded file: path -> sample count.
fn parse_folded(text: &str) -> Result<HashMap<String, u64>, String> {
    let mut out = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let (path, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("folded line {}: no 'path count' split: {line:?}", i + 1))?;
        if path.is_empty() {
            return Err(format!("folded line {}: empty path", i + 1));
        }
        let count: u64 = count
            .parse()
            .map_err(|e| format!("folded line {}: bad count {count:?}: {e}", i + 1))?;
        if count == 0 {
            return Err(format!("folded line {}: zero-sample path {path:?}", i + 1));
        }
        if out.insert(path.to_string(), count).is_some() {
            return Err(format!("folded line {}: duplicate path {path:?}", i + 1));
        }
    }
    Ok(out)
}

/// One phase's profile delta as published in BENCH json.
struct PhaseProfile {
    phase: String,
    samples: u64,
    torn: u64,
    attribution: f64,
}

/// Per-phase profile blocks and exemplars `(phase, value_ns, trace_id_hex)`
/// of a BENCH file.
type BenchProfile = (Vec<PhaseProfile>, Vec<(String, u64, String)>);

fn parse_bench(text: &str) -> Result<BenchProfile, String> {
    let root = json::parse(text)?;
    let phases = root
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("BENCH json: missing phases array")?;
    let mut profiles = Vec::new();
    let mut exemplars = Vec::new();
    for ph in phases {
        let name = ph
            .get("phase")
            .and_then(Json::as_str)
            .ok_or("BENCH json: phase without a name")?
            .to_string();
        if let Some(prof) = ph.get("profile") {
            let ctx = format!("phase {name:?} profile");
            // LOSSY: sample counts are far below 2^53, exact in f64.
            let samples = read_num(prof, "samples", &ctx)? as u64;
            let torn = read_num(prof, "torn", &ctx)? as u64;
            let attribution = read_num(prof, "attribution", &ctx)?;
            if read_num(prof, "ticks", &ctx)? <= 0.0 {
                return Err(format!("{ctx}: zero sampling ticks"));
            }
            profiles.push(PhaseProfile { phase: name.clone(), samples, torn, attribution });
        }
        let exs = ph.get("exemplars").and_then(Json::as_arr).unwrap_or_default();
        for (i, ex) in exs.iter().enumerate() {
            let ctx = format!("phase {name:?} exemplar {i}");
            // LOSSY: value_ns below 2^53 (~104 days), exact in f64.
            let value_ns = read_num(ex, "value_ns", &ctx)? as u64;
            let floor = read_num(ex, "bucket_floor_ns", &ctx)? as u64;
            if value_ns < floor {
                return Err(format!("{ctx}: value {value_ns} below bucket floor {floor}"));
            }
            let hex = ex
                .get("trace_id_hex")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{ctx}: missing trace_id_hex"))?;
            if !hex.starts_with("0x") || hex == "0x0" {
                return Err(format!("{ctx}: bad trace id {hex:?}"));
            }
            exemplars.push((name.clone(), value_ns, hex.to_string()));
        }
    }
    Ok((profiles, exemplars))
}

/// Trace ids (hex, `0x…`) that open a **root** span in a chrome trace:
/// a `B` event whose `args.parent_id` is `"0x0"`. An exemplar resolving
/// to one of these has its complete trace in the file.
fn root_trace_ids(text: &str) -> Result<HashSet<String>, String> {
    if text.trim().is_empty() {
        return Ok(HashSet::new());
    }
    let root = json::parse(text)?;
    let mut ids = HashSet::new();
    for ev in trace_events(&root).map_err(|e| format!("slowest json: {e}"))? {
        if ev.get("ph").and_then(Json::as_str) != Some("B") {
            continue;
        }
        let Some(args) = ev.get("args") else { continue };
        if args.get("parent_id").and_then(Json::as_str) == Some("0x0") {
            if let Some(tid) = args.get("trace_id").and_then(Json::as_str) {
                ids.insert(tid.to_string());
            }
        }
    }
    Ok(ids)
}

fn validate_profile(bench: &str, folded: &str, slowest: &str) -> Result<String, String> {
    let paths = parse_folded(folded)?;
    let folded_total: u64 = paths.values().sum();
    if paths.is_empty() {
        return Err("folded file has no sample paths".into());
    }

    let (profiles, exemplars) = parse_bench(bench)?;
    if profiles.is_empty() {
        return Err("BENCH json has no per-phase profile blocks (run with --profile?)".into());
    }

    // Monotonicity: the folded file holds the whole run minus torn reads;
    // each phase block is a disjoint delta of the same counters, so the
    // whole-run total must cover every phase and their sum.
    let mut phase_sum = 0u64;
    for p in &profiles {
        if p.torn > p.samples {
            return Err(format!(
                "phase {:?}: torn {} exceeds samples {}",
                p.phase, p.torn, p.samples
            ));
        }
        let visible = p.samples - p.torn;
        if visible > folded_total {
            return Err(format!(
                "phase {:?}: {} attributable samples exceed whole-run folded total {}",
                p.phase, visible, folded_total
            ));
        }
        phase_sum += visible;
        if !(0.0..=1.0).contains(&p.attribution) {
            return Err(format!("phase {:?}: attribution {} outside [0,1]", p.phase, p.attribution));
        }
        if p.attribution < MIN_ATTRIBUTION {
            return Err(format!(
                "phase {:?}: attribution {:.3} below required {MIN_ATTRIBUTION:.3}",
                p.phase, p.attribution
            ));
        }
    }
    if phase_sum > folded_total {
        return Err(format!(
            "phase sample deltas sum to {phase_sum}, exceeding whole-run folded total {folded_total}"
        ));
    }

    // Exemplar resolution: every published p999 exemplar must point at a
    // complete trace in the slowest cut.
    let roots = root_trace_ids(slowest)?;
    if let Some((phase, value_ns, hex)) = exemplars.iter().find(|(.., hex)| !roots.contains(hex)) {
        return Err(format!(
            "phase {phase:?}: exemplar {hex} ({value_ns} ns) has no root span in slowest cut"
        ));
    }

    Ok(format!(
        "{} phases ({} samples over {} paths), {} exemplars all resolve, min attribution {:.1}%",
        profiles.len(),
        folded_total,
        paths.len(),
        exemplars.len(),
        profiles.iter().map(|p| p.attribution).fold(f64::INFINITY, f64::min) * 100.0
    ))
}

fn validate_timeline(text: &str) -> Result<String, String> {
    let root = json::parse(text)?;

    // 1. Window series: strictly increasing indices, forward spans,
    //    contiguous edges — the sampler stamps each window's start from the
    //    previous window's end, so any gap means frames were reordered or
    //    fabricated.
    let windows = root
        .get("windows")
        .and_then(Json::as_arr)
        .ok_or("missing windows array")?;
    if windows.is_empty() {
        return Err("window series is empty (sampler never ticked?)".into());
    }
    let mut prev: Option<(u64, u64)> = None; // (index, end_us)
    for (i, w) in windows.iter().enumerate() {
        let ctx = format!("window {i}");
        // LOSSY: monotonic micros and window indices are far below 2^53,
        // exact in f64.
        let index = read_num(w, "index", &ctx)? as u64;
        let start = read_num(w, "start_us", &ctx)? as u64;
        let end = read_num(w, "end_us", &ctx)? as u64;
        if end <= start {
            return Err(format!("{ctx}: empty or backwards span [{start}, {end}]"));
        }
        if let Some((pi, pe)) = prev {
            if index <= pi {
                return Err(format!("{ctx}: index {index} not after {pi}"));
            }
            if start != pe {
                return Err(format!(
                    "{ctx}: starts at {start} but previous window ended at {pe} (gap or overlap)"
                ));
            }
        }
        prev = Some((index, end));
    }

    // 2. Episode/counter reconciliation. Episodes are folded from journal
    //    events that carry the exact micros added to the engine's stall
    //    counters, so the sums agree exactly when nothing was dropped; the
    //    tolerance absorbs bounded journal loss.
    let engine_micros = read_num(&root, "engine_stall_micros", "root")? as u64;
    let episodes = root
        .get("episodes")
        .and_then(Json::as_arr)
        .ok_or("missing episodes array")?;
    let mut episode_micros = 0u64;
    for (i, ep) in episodes.iter().enumerate() {
        let ctx = format!("episode {i}");
        let micros = read_num(ep, "micros", &ctx)? as u64;
        if micros == 0 {
            return Err(format!("{ctx}: zero-duration episode"));
        }
        episode_micros += micros;
    }
    if engine_micros == 0 {
        if episode_micros != 0 {
            return Err(format!(
                "engine reports no stall time but episodes sum to {episode_micros} us"
            ));
        }
    } else {
        let err = (episode_micros as f64 - engine_micros as f64).abs() / engine_micros as f64;
        if err > STALL_TOLERANCE {
            return Err(format!(
                "episodes sum to {episode_micros} us vs engine {engine_micros} us \
                 ({:.1}% apart, tolerance {:.1}%)",
                err * 100.0,
                STALL_TOLERANCE * 100.0
            ));
        }
    }

    // 3. Journal accounting: bounded, exactly-counted loss.
    let journal = root.get("journal").ok_or("missing journal object")?;
    let attempts = read_num(journal, "attempts", "journal")? as u64;
    let capacity = read_num(journal, "capacity", "journal")? as u64;
    let drops = read_num(journal, "drops", "journal")? as u64;
    if drops != attempts.saturating_sub(capacity) {
        return Err(format!(
            "journal drop accounting broken: {attempts} attempts into {capacity} slots \
             must drop exactly {}, recorded {drops}",
            attempts.saturating_sub(capacity)
        ));
    }
    if drops > MAX_DROPS {
        return Err(format!("journal dropped {drops} events, budget {MAX_DROPS}"));
    }

    Ok(format!(
        "{} contiguous windows, {} episodes ({episode_micros} us vs engine {engine_micros} us), \
         journal {attempts}/{capacity} posts, {drops} drops",
        windows.len(),
        episodes.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- trace ---------------------------------------------------------

    #[test]
    fn accepts_a_real_chrome_trace() {
        dlsm_trace::set_enabled(true);
        {
            let _a = dlsm_trace::span(dlsm_trace::Category::Db, "outer");
            let _b = dlsm_trace::span(dlsm_trace::Category::Rdma, "inner");
            dlsm_trace::instant(dlsm_trace::Category::Rpc, "tick", 1);
        }
        dlsm_trace::set_enabled(false);
        let events = dlsm_trace::collect_events();
        let json = dlsm_trace::chrome_trace(&events);
        dlsm_trace::clear();
        let stats = validate_trace(&json).expect("generated trace must validate");
        assert!(stats.begins >= 2);
        assert_eq!(stats.begins, stats.ends);
        assert!(stats.instants >= 1);
    }

    #[test]
    fn accepts_an_empty_trace_file() {
        for empty in ["", "   ", "\n\t\r\n"] {
            let stats = validate_trace(empty).expect("empty file is a valid (eventless) trace");
            assert_eq!(stats.begins, 0);
            assert_eq!(stats.instants, 0);
        }
        // An empty event ARRAY also passes — but only as well-formed JSON.
        assert!(validate_trace(r#"{"traceEvents": []}"#).is_ok());
    }

    #[test]
    fn rejects_structural_violations() {
        assert!(validate_trace("not json").is_err());
        assert!(validate_trace("{}").is_err(), "missing traceEvents");
        assert!(validate_trace(r#"{"traceEvents": 3}"#).is_err());
        // Missing pid.
        assert!(
            validate_trace(r#"{"traceEvents":[{"ph":"B","tid":1,"ts":1,"name":"x"}]}"#).is_err()
        );
        // Backwards timestamps on one track.
        assert!(validate_trace(
            r#"{"traceEvents":[
                {"ph":"B","pid":0,"tid":1,"ts":10,"name":"x"},
                {"ph":"E","pid":0,"tid":1,"ts":5,"name":"x"}]}"#
        )
        .is_err());
        // Unbalanced B/E.
        assert!(validate_trace(
            r#"{"traceEvents":[{"ph":"B","pid":0,"tid":1,"ts":1,"name":"x"}]}"#
        )
        .is_err());
        assert!(validate_trace(
            r#"{"traceEvents":[{"ph":"E","pid":0,"tid":1,"ts":1,"name":"x"}]}"#
        )
        .is_err());
        // Mismatched close name.
        assert!(validate_trace(
            r#"{"traceEvents":[
                {"ph":"B","pid":0,"tid":1,"ts":1,"name":"x"},
                {"ph":"E","pid":0,"tid":1,"ts":2,"name":"y"}]}"#
        )
        .is_err());
        // A well-formed minimal trace passes.
        assert!(validate_trace(
            r#"{"traceEvents":[
                {"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"compute"}},
                {"ph":"B","pid":0,"tid":1,"ts":1,"name":"x"},
                {"ph":"i","pid":0,"tid":1,"ts":2,"name":"tick","s":"t"},
                {"ph":"E","pid":0,"tid":1,"ts":3,"name":"x"}]}"#
        )
        .is_ok());
    }

    /// Writes `body` to a fresh file and runs `artifact_check <cmd> <file>`.
    fn run_on(cmd: &str, name: &str, body: &str) -> i32 {
        let file = format!("artifact_check_{}_{name}", std::process::id());
        let path = std::env::temp_dir().join(file);
        std::fs::write(&path, body).unwrap();
        let code = run(&[cmd.to_string(), path.display().to_string()]);
        std::fs::remove_file(&path).unwrap();
        code
    }

    #[test]
    fn a_hostile_nesting_depth_is_invalid_not_a_crash() {
        // 100 000 nested arrays overflowed the parser's stack (SIGABRT).
        assert_eq!(run_on("trace", "deep.json", &"[".repeat(100_000)), 1);
        assert_eq!(run_on("trace", "ok.json", r#"{"traceEvents": []}"#), 0);
        assert_eq!(run_on("trace", "empty.json", ""), 0);
    }

    #[test]
    fn flags_unknown_subcommands_and_missing_files_are_usage_errors() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(run(&args(&[])), 2);
        assert_eq!(run(&args(&["trace"])), 2);
        assert_eq!(run(&args(&["lint", "x.json"])), 2);
        assert_eq!(run(&args(&["timeline", "t.json", "--max-drops", "3"])), 2);
        assert_eq!(run(&args(&["profile", "b", "f", "s", "--min-attribution", "0.5"])), 2);
        assert_eq!(run(&args(&["trace", "/nonexistent/artifact_check/trace.json"])), 2);
    }

    // ---- profile -------------------------------------------------------

    const BENCH: &str = r#"{
      "phases": [
        {"phase": "fillrandom", "threads": 2,
         "profile": {"samples": 100, "ticks": 50, "torn": 2, "attribution": 0.99,
                     "stall_share": 0.1, "fabric_share": 0.0, "top": [], "stall_fraction": 0.0},
         "exemplars": [{"value_ns": 900, "bucket_floor_ns": 512,
                        "trace_id": 161, "trace_id_hex": "0xa1"}]},
        {"phase": "readrandom", "threads": 2,
         "profile": {"samples": 60, "ticks": 30, "torn": 0, "attribution": 0.97,
                     "stall_share": 0.0, "fabric_share": 0.2, "top": [], "stall_fraction": 0.0}}
      ]
    }"#;

    const FOLDED: &str = "compute;phase:fill;put 120\ncompute;(stall:write) 40\n";

    const SLOWEST: &str = r#"{"traceEvents":[
      {"ph":"B","pid":0,"tid":1,"ts":1,"name":"op",
       "args":{"trace_id":"0xa1","span_id":"0xa1","parent_id":"0x0","arg":0}},
      {"ph":"E","pid":0,"tid":1,"ts":9,"name":"op"}
    ]}"#;

    #[test]
    fn accepts_consistent_artifacts() {
        let s = validate_profile(BENCH, FOLDED, SLOWEST).expect("must validate");
        assert!(s.contains("2 phases"), "{s}");
        assert!(s.contains("1 exemplars"), "{s}");
    }

    #[test]
    fn rejects_low_attribution() {
        let low = BENCH.replace(r#""attribution": 0.97"#, r#""attribution": 0.94"#);
        let e = validate_profile(&low, FOLDED, SLOWEST).unwrap_err();
        assert!(e.contains("attribution"), "{e}");
        // The bar itself passes.
        let edge = BENCH.replace(r#""attribution": 0.97"#, r#""attribution": 0.95"#);
        assert!(validate_profile(&edge, FOLDED, SLOWEST).is_ok());
    }

    #[test]
    fn rejects_unresolvable_exemplar() {
        // Same trace id but as a child span — a dangling fragment, not a
        // complete trace.
        let child_only = r#"{"traceEvents":[
          {"ph":"B","pid":0,"tid":1,"ts":1,"name":"op",
           "args":{"trace_id":"0xa1","span_id":"0xa2","parent_id":"0xa1","arg":0}},
          {"ph":"E","pid":0,"tid":1,"ts":9,"name":"op"}
        ]}"#;
        let e = validate_profile(BENCH, FOLDED, child_only).unwrap_err();
        assert!(e.contains("no root span"), "{e}");
        let e = validate_profile(BENCH, FOLDED, r#"{"traceEvents":[]}"#).unwrap_err();
        assert!(e.contains("no root span"), "{e}");
    }

    #[test]
    fn rejects_non_monotone_sample_counts() {
        // One phase alone exceeds the whole-run folded total.
        let big = BENCH.replace(r#""samples": 100"#, r#""samples": 500"#);
        let e = validate_profile(&big, FOLDED, SLOWEST).unwrap_err();
        assert!(e.contains("exceed"), "{e}");
        // Phases individually fit but their sum does not.
        let sum = BENCH
            .replace(r#""samples": 100"#, r#""samples": 150"#)
            .replace(r#""samples": 60"#, r#""samples": 150"#);
        let e = validate_profile(&sum, FOLDED, SLOWEST).unwrap_err();
        assert!(e.contains("sum"), "{e}");
    }

    #[test]
    fn rejects_malformed_folded_files() {
        assert!(parse_folded("path;a 3\npath;b 4\n").is_ok());
        assert!(parse_folded("noseparator\n").is_err());
        assert!(parse_folded("path;a 0\n").is_err());
        assert!(parse_folded("path;a x\n").is_err());
        assert!(parse_folded("path;a 3\npath;a 4\n").is_err());
        let e = validate_profile(BENCH, "", SLOWEST).unwrap_err();
        assert!(e.contains("no sample paths"), "{e}");
    }

    #[test]
    fn rejects_bench_without_profile_blocks() {
        let bare = r#"{"phases": [{"phase": "fillrandom", "threads": 1}]}"#;
        let e = validate_profile(bare, FOLDED, SLOWEST).unwrap_err();
        assert!(e.contains("no per-phase profile blocks"), "{e}");
    }

    // ---- timeline ------------------------------------------------------

    const GOOD: &str = r#"{
      "tick_ms": 250,
      "engine_stall_micros": 1000,
      "journal": {"attempts": 10, "posted": 10, "drops": 0, "capacity": 65536},
      "frames_dropped": 0,
      "windows": [
        {"index": 0, "start_us": 0, "end_us": 250000, "ops_per_sec": 10.0},
        {"index": 1, "start_us": 250000, "end_us": 500000, "ops_per_sec": 12.0}
      ],
      "episodes": [
        {"start_us": 100, "end_us": 700, "micros": 600, "reason": "imm_queue_full"},
        {"start_us": 9000, "end_us": 9420, "micros": 420, "reason": "l0_limit"}
      ]
    }"#;

    #[test]
    fn accepts_consistent_artifact() {
        let s = validate_timeline(GOOD).expect("must validate");
        assert!(s.contains("2 contiguous windows"), "{s}");
        assert!(s.contains("2 episodes"), "{s}");
    }

    #[test]
    fn rejects_window_gaps_and_disorder() {
        // Gap: window 1 starts after window 0 ends.
        let gap = GOOD.replace(r#""start_us": 250000"#, r#""start_us": 260000"#);
        let e = validate_timeline(&gap).unwrap_err();
        assert!(e.contains("gap or overlap"), "{e}");
        // Stale index on the second window.
        let idx = GOOD.replace(r#""index": 1"#, r#""index": 0"#);
        let e = validate_timeline(&idx).unwrap_err();
        assert!(e.contains("not after"), "{e}");
        // Backwards span.
        let back = GOOD.replace(r#""end_us": 250000"#, r#""end_us": 0"#);
        assert!(validate_timeline(&back).is_err());
        // Empty series.
        let empty = GOOD.replace(
            r#"{"index": 0, "start_us": 0, "end_us": 250000, "ops_per_sec": 10.0},
        {"index": 1, "start_us": 250000, "end_us": 500000, "ops_per_sec": 12.0}"#,
            "",
        );
        let e = validate_timeline(&empty).unwrap_err();
        assert!(e.contains("empty"), "{e}");
    }

    #[test]
    fn rejects_unreconciled_stall_time() {
        // Episodes sum to 1020 us but the engine counted 2000.
        let off = GOOD.replace(r#""engine_stall_micros": 1000"#, r#""engine_stall_micros": 2000"#);
        let e = validate_timeline(&off).unwrap_err();
        assert!(e.contains("apart"), "{e}");
        // Either side of the 5 % tolerance: 1020 vs 1080 is 5.6 % apart,
        // 1020 vs 1070 is 4.7 %, 1020 vs 1000 is 2 %.
        let engine = |us: &str| GOOD.replace("\"engine_stall_micros\": 1000", us);
        let over = engine("\"engine_stall_micros\": 1080");
        assert!(validate_timeline(&over).unwrap_err().contains("apart"));
        assert!(validate_timeline(&engine("\"engine_stall_micros\": 1070")).is_ok());
        assert!(validate_timeline(GOOD).is_ok());
        // Engine reports zero stall time: any episode is a fabrication.
        let zero = GOOD.replace(r#""engine_stall_micros": 1000"#, r#""engine_stall_micros": 0"#);
        let e = validate_timeline(&zero).unwrap_err();
        assert!(e.contains("no stall time"), "{e}");
    }

    #[test]
    fn rejects_journal_violations() {
        // A single drop exceeds the budget, even with consistent accounting.
        let lossy = GOOD.replace(
            r#""journal": {"attempts": 10, "posted": 10, "drops": 0, "capacity": 65536}"#,
            r#""journal": {"attempts": 65537, "posted": 65536, "drops": 1, "capacity": 65536}"#,
        );
        let e = validate_timeline(&lossy).unwrap_err();
        assert!(e.contains("budget"), "{e}");
        // Broken accounting identity: drops claimed without overflow.
        let bogus = GOOD.replace(r#""drops": 0"#, r#""drops": 5"#);
        let e = validate_timeline(&bogus).unwrap_err();
        assert!(e.contains("accounting"), "{e}");
    }
}
