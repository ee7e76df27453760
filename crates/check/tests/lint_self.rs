//! The lint gate, turned on itself: the workspace must scan clean, and an
//! injected violation of each rule must be caught — proof the scanner is
//! actually looking.

use std::path::Path;

use dlsm_check::lint::{scan_source, scan_workspace, Rule};

fn repo_root() -> &'static Path {
    // crates/check -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

fn rules(path: &str, src: &str) -> Vec<(usize, Rule)> {
    scan_source(Path::new(path), src).iter().map(|f| (f.line, f.rule)).collect()
}

/// An engine background loop with one untagged panic site and one untagged
/// blocking call.
const LOOP: &str = "pub fn run(rx: &Receiver<u64>) {\n    let v = rx.recv().unwrap();\n    std::thread::sleep(Duration::from_millis(v));\n}\n";

/// `cargo run --bin dlsm_lint` must exit 0 on this workspace; this is the
/// same scan in test form so `cargo test` alone enforces the gate.
#[test]
fn workspace_scans_clean() {
    let findings = scan_workspace(repo_root()).expect("scan workspace");
    assert!(
        findings.is_empty(),
        "lint findings in workspace:\n{}",
        findings.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
}

#[test]
fn injected_relaxed_is_caught() {
    let src = "fn f(x: &std::sync::atomic::AtomicU64) -> u64 {\n    x.load(Ordering::Relaxed)\n}\n";
    assert_eq!(rules("crates/fake/src/lib.rs", src), [(2, Rule::RelaxedNoOrdering)]);
}

/// Untagged sites in an engine crate are caught, one finding per rule per
/// line; the tagged twin passes.
#[test]
fn injected_engine_sites_are_caught_and_tagged_twins_pass() {
    assert_eq!(
        rules("crates/memnode/src/server.rs", LOOP),
        [(2, Rule::PanicNoInvariant), (2, Rule::BlockingNoReason), (3, Rule::BlockingNoReason)]
    );
    let tagged = "pub fn run(rx: &Receiver<u64>) {\n    // PANIC-SAFE: the sender outlives this thread.\n    // HOTPATH: background worker idles on its queue.\n    let v = rx.recv().unwrap();\n    // HOTPATH: paced by design.\n    std::thread::sleep(Duration::from_millis(v));\n}\n";
    assert_eq!(rules("crates/memnode/src/server.rs", tagged), []);
}

/// The same text is not an engine site outside the engine crates, inside a
/// `#[cfg(test)]` module, or inside a string literal.
#[test]
fn non_engine_test_and_string_sites_are_ignored() {
    assert_eq!(rules("crates/bench/src/lib.rs", LOOP), []);
    let in_test = format!("fn prod() {{}}\n#[cfg(test)]\nmod tests {{\n{LOOP}}}\n");
    assert_eq!(rules("crates/dlsm/src/db.rs", &in_test), []);
    let in_string = "fn f() -> &'static str {\n    \"rx.recv().unwrap(); std::thread::sleep(d); assert!(x)\"\n}\n";
    assert_eq!(rules("crates/dlsm/src/db.rs", in_string), []);
}

#[test]
fn debug_asserts_fallbacks_and_try_recv_are_not_sites() {
    let src = "fn f(rx: &Receiver<u64>, x: Option<u64>) -> u64 {\n    debug_assert!(x.is_some());\n    debug_assert_eq!(x, Some(1));\n    let _ = rx.try_recv();\n    x.unwrap_or_else(|| 0)\n}\n";
    assert_eq!(rules("crates/dlsm/src/db.rs", src), []);
}
