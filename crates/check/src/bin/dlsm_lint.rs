//! Workspace lint gate: `cargo run --bin dlsm_lint [-- --root <path>]`.
//!
//! Scans every `crates/*/src` tree plus the root package `src/` for the
//! rules in `dlsm_check::lint` (untagged `Ordering::Relaxed`, and untagged
//! panic sites and blocking calls in the engine crates) and exits nonzero if
//! anything is found. Wired into CI as a blocking job.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("dlsm_lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: dlsm_lint [--root <workspace-root>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("dlsm_lint: unknown argument `{other}`");
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
    let files = match dlsm_check::lint::workspace_files(&ws) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("dlsm_lint: cannot enumerate sources under {}: {e}", ws.display());
            return ExitCode::from(2);
        }
    };
    let findings = match dlsm_check::lint::scan_workspace(&ws) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("dlsm_lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("dlsm_lint: OK ({} files clean)", files.len());
        ExitCode::SUCCESS
    } else {
        println!("dlsm_lint: {} finding(s) in {} files scanned", findings.len(), files.len());
        ExitCode::FAILURE
    }
}
