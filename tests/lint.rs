//! The workspace source lint (`dlsm_lint`, DESIGN.md §9) as a root test, so
//! `cargo test` alone fails on an untagged `Ordering::Relaxed`, engine panic
//! site or engine blocking call.

use std::path::Path;

#[test]
fn workspace_has_no_lint_findings() {
    let findings = dlsm_check::lint::scan_workspace(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("scan the workspace sources");
    for f in &findings {
        eprintln!("{f}");
    }
    assert!(findings.is_empty(), "{} lint finding(s); each is printed above", findings.len());
}
