//! Hot-path analyzer gate: `cargo run --bin dlsm_analyze [-- <flags>]`.
//!
//! Builds the workspace call graph (see `dlsm_check::analyze` and
//! DESIGN.md §15) and reports HOTPATH / LOCKFABRIC / PANICPATH findings
//! with the entry-point path that reaches each one.
//!
//! Modes (lenient by default, `--strict` to also fail a broken graph):
//!
//! * default — print the report; exit nonzero only on *unwaived* findings.
//! * `--strict` — same, but also fail when the analyzer resolved no entry
//!   points (a broken graph must not pass silently).
//! * `--ratchet <baseline.json>` — compare per-rule unwaived counts against
//!   the committed baseline (`results/ANALYZE_dlsm.json`); exit nonzero if
//!   any count rose. This is the blocking CI step.
//! * `--json <out.json>` — also write the machine-readable result (used to
//!   refresh the baseline).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut strict = false;
    let mut ratchet_path: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("dlsm_analyze: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--strict" => strict = true,
            "--ratchet" => match args.next() {
                Some(p) => ratchet_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("dlsm_analyze: --ratchet needs a baseline json path");
                    return ExitCode::from(2);
                }
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("dlsm_analyze: --json needs an output path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: dlsm_analyze [--root <workspace-root>] [--strict] \
                     [--ratchet <baseline.json>] [--json <out.json>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("dlsm_analyze: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    // Walk up from --root (default cwd) to the workspace root so the binary
    // works both from the repo root and from inside a crate directory.
    let mut ws = root.clone();
    for _ in 0..5 {
        if ws.join("Cargo.toml").is_file() && ws.join("crates").is_dir() {
            break;
        }
        ws = ws.join("..");
    }
    let analysis = match dlsm_check::analyze::analyze_workspace(&ws) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dlsm_analyze: cannot analyze workspace under {}: {e}", ws.display());
            return ExitCode::from(2);
        }
    };
    print!("{}", dlsm_check::analyze::render_report(&analysis));

    if let Some(out) = &json_path {
        if let Some(dir) = out.parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("dlsm_analyze: cannot create {}: {e}", dir.display());
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = std::fs::write(out, dlsm_check::analyze::to_json(&analysis)) {
            eprintln!("dlsm_analyze: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
        println!("dlsm_analyze: wrote {}", out.display());
    }

    if strict && analysis.entry_points.is_empty() {
        eprintln!("dlsm_analyze: --strict: no data-path entry points resolved (broken graph?)");
        return ExitCode::FAILURE;
    }

    if let Some(base) = &ratchet_path {
        let baseline = match std::fs::read_to_string(base) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("dlsm_analyze: cannot read baseline {}: {e}", base.display());
                return ExitCode::from(2);
            }
        };
        match dlsm_check::analyze::ratchet(&analysis, &baseline) {
            Ok(report) => {
                println!("dlsm_analyze: ratchet OK vs {}\n{report}", base.display());
            }
            Err(report) => {
                println!(
                    "dlsm_analyze: RATCHET REGRESSION vs {}\n{report}",
                    base.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if analysis.findings.is_empty() {
        println!(
            "dlsm_analyze: OK ({} functions, {} waived sites tracked)",
            analysis.functions,
            analysis.waivers.len()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "dlsm_analyze: {} unwaived finding(s) — fix or tag (HOTPATH:/LOCKFABRIC:/PANIC-SAFE:)",
            analysis.findings.len()
        );
        ExitCode::FAILURE
    }
}
