//! Validate the artifacts `db_bench` dumps — and the chaos flight
//! recorder's traces — with one binary, three subcommands and one
//! file-read/exit-code path:
//!
//! ```text
//! artifact_check trace     <TRACE.json>
//! artifact_check exemplars <BENCH.json> <TRACE_slowest.json>
//! artifact_check timeline  <TIMELINE.json>
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
//! **exemplars** (`db_bench --trace`): every p999 exemplar resolves — its
//! trace id opens a **root** span (`"parent_id":"0x0"`) in the
//! slowest-traces cut, so the whole trace is inspectable, not just a
//! dangling id. A BENCH file with **no** `exemplars` block fails: the
//! caller asked for exemplar validation, so silently absent exemplars are a
//! bug, not a pass.
//!
//! **timeline** (`db_bench --timeline`):
//! 1. stall episodes reconcile with the engine — the sum of episode
//!    `micros` matches the run's `engine_stall_micros` (the
//!    `stall_imm_micros + stall_l0_micros` counter total) within
//!    [`STALL_TOLERANCE`]; with the engine reporting zero stall time, any
//!    folded episode is a fabrication and fails;
//! 2. the trace rings' lifecycle records lost to wrap
//!    (`lifecycle_overwritten`, see `dlsm_trace::lifecycle_overwritten`)
//!    stayed within [`MAX_DROPS`].
//!
//! JSON parsing lives in [`dlsm_bench::json`].

use std::collections::{HashMap, HashSet};

use dlsm_bench::json::{self, Json};

/// Largest relative gap allowed between summed stall episodes and the
/// engine's stall counters (absorbs a stall that ends between the fold and
/// the counter read).
const STALL_TOLERANCE: f64 = 0.05;
/// Lifecycle records a timeline may have lost to ring wrap.
const MAX_DROPS: u64 = 0;

const USAGE: &str = "usage: artifact_check trace <TRACE.json>\n       \
    artifact_check exemplars <BENCH.json> <TRACE_slowest.json>\n       \
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
        [cmd, _, _] if cmd == "exemplars" => |t| validate_exemplars(&t[0], &t[1]),
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

/// Exemplars `(phase, value_ns, trace_id_hex)` of a BENCH file; an error
/// when no phase carries an `exemplars` block at all.
fn parse_exemplars(text: &str) -> Result<Vec<(String, u64, String)>, String> {
    let root = json::parse(text)?;
    let phases = root
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("BENCH json: missing phases array")?;
    let mut blocks = 0;
    let mut exemplars = Vec::new();
    for ph in phases {
        let name = ph
            .get("phase")
            .and_then(Json::as_str)
            .ok_or("BENCH json: phase without a name")?
            .to_string();
        let Some(exs) = ph.get("exemplars") else { continue };
        blocks += 1;
        let exs = exs
            .as_arr()
            .ok_or_else(|| format!("phase {name:?}: exemplars is not an array"))?;
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
    if blocks == 0 {
        return Err("BENCH json has no exemplars block (run with --trace?)".into());
    }
    Ok(exemplars)
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

/// Every published p999 exemplar must point at a complete trace in the
/// slowest cut.
fn validate_exemplars(bench: &str, slowest: &str) -> Result<String, String> {
    let exemplars = parse_exemplars(bench)?;
    let roots = root_trace_ids(slowest)?;
    if let Some((phase, value_ns, hex)) = exemplars.iter().find(|(.., hex)| !roots.contains(hex)) {
        return Err(format!(
            "phase {phase:?}: exemplar {hex} ({value_ns} ns) has no root span in slowest cut"
        ));
    }
    Ok(format!("{} exemplars all resolve", exemplars.len()))
}

fn validate_timeline(text: &str) -> Result<String, String> {
    let root = json::parse(text)?;

    // 1. Episode/counter reconciliation. Episodes are folded from stall
    //    spans whose length is the exact micros added to the engine's stall
    //    counters, so the sums agree exactly when nothing was lost.
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

    // 2. Lifecycle records lost to ring wrap: counted, within budget.
    let overwritten = read_num(&root, "lifecycle_overwritten", "root")? as u64;
    if overwritten > MAX_DROPS {
        return Err(format!(
            "{overwritten} lifecycle records overwritten in the trace rings, budget {MAX_DROPS}"
        ));
    }

    Ok(format!(
        "{} episodes ({episode_micros} us vs engine {engine_micros} us), \
         {overwritten} lifecycle records overwritten",
        episodes.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- trace ---------------------------------------------------------

    #[test]
    fn accepts_a_real_chrome_trace() {
        dlsm_trace::set_level(dlsm_trace::Level::All);
        {
            let _a = dlsm_trace::span(dlsm_trace::Category::Db, "outer");
            let _b = dlsm_trace::span(dlsm_trace::Category::Rdma, "inner");
            dlsm_trace::instant(dlsm_trace::Category::Rpc, "tick", 1);
        }
        dlsm_trace::set_level(dlsm_trace::Level::Off);
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
        assert_eq!(run(&args(&["exemplars", "b", "s", "--min-exemplars", "1"])), 2);
        assert_eq!(run(&args(&["trace", "/nonexistent/artifact_check/trace.json"])), 2);
    }

    // ---- exemplars -----------------------------------------------------

    const BENCH: &str = r#"{
      "phases": [
        {"phase": "fillrandom", "threads": 2,
         "exemplars": [{"value_ns": 900, "bucket_floor_ns": 512,
                        "trace_id": 161, "trace_id_hex": "0xa1"}]},
        {"phase": "readrandom", "threads": 2}
      ]
    }"#;

    const SLOWEST: &str = r#"{"traceEvents":[
      {"ph":"B","pid":0,"tid":1,"ts":1,"name":"op",
       "args":{"trace_id":"0xa1","span_id":"0xa1","parent_id":"0x0","arg":0}},
      {"ph":"E","pid":0,"tid":1,"ts":9,"name":"op"}
    ]}"#;

    #[test]
    fn accepts_consistent_artifacts() {
        let s = validate_exemplars(BENCH, SLOWEST).expect("must validate");
        assert!(s.contains("1 exemplars"), "{s}");
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
        let e = validate_exemplars(BENCH, child_only).unwrap_err();
        assert!(e.contains("no root span"), "{e}");
        let e = validate_exemplars(BENCH, r#"{"traceEvents":[]}"#).unwrap_err();
        assert!(e.contains("no root span"), "{e}");
    }

    #[test]
    fn rejects_bench_without_exemplars_blocks() {
        let bare = r#"{"phases": [{"phase": "fillrandom", "threads": 1}]}"#;
        let e = validate_exemplars(bare, SLOWEST).unwrap_err();
        assert!(e.contains("no exemplars block"), "{e}");
    }

    // ---- timeline ------------------------------------------------------

    const GOOD: &str = r#"{
      "engine_stall_micros": 1000,
      "lifecycle_overwritten": 0,
      "episodes": [
        {"start_us": 100, "end_us": 700, "micros": 600, "reason": "imm_queue_full"},
        {"start_us": 9000, "end_us": 9420, "micros": 420, "reason": "l0_limit"}
      ]
    }"#;

    #[test]
    fn accepts_consistent_artifact() {
        let s = validate_timeline(GOOD).expect("must validate");
        assert!(s.contains("2 episodes"), "{s}");
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
    fn rejects_an_overwritten_lifecycle_record() {
        // A single lost stall, flush or compaction span exceeds the budget.
        let lossy = GOOD.replace(r#""lifecycle_overwritten": 0"#, r#""lifecycle_overwritten": 1"#);
        let e = validate_timeline(&lossy).unwrap_err();
        assert!(e.contains("budget"), "{e}");
        // The count is required, not assumed zero.
        let absent = GOOD.replace(r#""lifecycle_overwritten": 0,"#, "");
        assert!(validate_timeline(&absent).is_err());
    }
}
