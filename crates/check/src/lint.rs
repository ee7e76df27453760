//! Hand-rolled source lint for the workspace (no syn, no regex — in the
//! spirit of `dlsm-bench`'s hand-rolled JSON parser).
//!
//! Three rules, all driven by comment tags (conventions in DESIGN.md §9).
//! Each tag must sit on the flagged line or one of the 3 lines above it:
//!
//! * **relaxed-no-ordering** — every `Ordering::Relaxed` use needs an
//!   `// ORDERING:` comment explaining why relaxed is enough.
//! * **panic-no-invariant** — in the engine crates (`ENGINE_CRATES`),
//!   every `.unwrap()`, `.expect(`, `.unwrap_err()`, `panic!`, `assert!`,
//!   `assert_eq!`, `assert_ne!`, `unreachable!` or `todo!` needs a
//!   `// PANIC-SAFE: <invariant>` comment.
//! * **blocking-no-reason** — in the engine crates, every call named like a
//!   blocking primitive (`BLOCKING`) needs a `// HOTPATH: <why>` comment.
//!   Calls are matched by name, never resolved: a workspace method called
//!   `wait` is tagged like a condvar's.
//!
//! Undocumented `unsafe` and lossy casts in the wire codec are clippy's
//! (`undocumented_unsafe_blocks` in the root `Cargo.toml`,
//! `cast_possible_truncation` in `memnode/src/wire.rs`).
//!
//! The scanner strips comments and string literals before matching (so a
//! string containing "unwrap()" never trips the lint) and skips
//! `#[cfg(test)] mod` bodies — test code documents itself by its asserts.

use std::fmt;
use std::path::{Path, PathBuf};

/// The crates whose non-test code the panic and blocking rules cover
/// (directory names under `crates/`).
const ENGINE_CRATES: [&str; 6] =
    ["dlsm", "memnode", "sstable", "cache", "skiplist", "rdma-sim"];

/// Panic-site method names (called as `.name(`).
const PANIC_METHODS: [&str; 3] = ["unwrap", "expect", "unwrap_err"];

/// Panic-site macro names. `debug_assert*` is not one: its `_` keeps the
/// word boundary from matching, and it is compiled out of release builds.
const PANIC_MACROS: [&str; 6] =
    ["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo"];

/// Blocking primitives: thread sleeps and yields, spin hints, parking,
/// blocking channel receives and condvar waits.
const BLOCKING: [&str; 11] = [
    "spin_loop",
    "yield_now",
    "sleep",
    "park",
    "park_timeout",
    "recv",
    "recv_timeout",
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_while",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    RelaxedNoOrdering,
    PanicNoInvariant,
    BlockingNoReason,
}

impl Rule {
    pub fn slug(self) -> &'static str {
        match self {
            Rule::RelaxedNoOrdering => "relaxed-no-ordering",
            Rule::PanicNoInvariant => "panic-no-invariant",
            Rule::BlockingNoReason => "blocking-no-reason",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Finding {
    pub file: PathBuf,
    /// 1-based.
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule.slug(), self.message)
    }
}

/// Per-line split of a source file: executable code with comments/strings
/// blanked out, and the comment text found on that line.
struct MaskedSource {
    code: Vec<String>,
    comments: Vec<String>,
}

/// Strip comments and string/char literals, preserving line structure.
/// Handles nested block comments, raw strings, and the char-vs-lifetime
/// ambiguity (heuristically: `'x'` / `'\x'` is a char literal, anything else
/// after `'` is a lifetime).
fn mask(src: &str) -> MaskedSource {
    let b: Vec<char> = src.chars().collect();
    let mut code = vec![String::new()];
    let mut comments = vec![String::new()];
    let mut i = 0;
    let push = |v: &mut Vec<String>, c: char| v.last_mut().unwrap().push(c);
    let newline = |code: &mut Vec<String>, comments: &mut Vec<String>| {
        code.push(String::new());
        comments.push(String::new());
    };
    let at = |j: usize| b.get(j).copied().unwrap_or('\0');
    while i < b.len() {
        let c = b[i];
        let n1 = at(i + 1);
        let n2 = at(i + 2);
        if c == '\n' {
            newline(&mut code, &mut comments);
            i += 1;
        } else if c == '/' && n1 == '/' {
            // Line comment: capture text, don't emit to code.
            while i < b.len() && b[i] != '\n' {
                push(&mut comments, b[i]);
                i += 1;
            }
        } else if c == '/' && n1 == '*' {
            let mut depth = 1;
            push(&mut comments, '/');
            push(&mut comments, '*');
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    push(&mut comments, '/');
                    push(&mut comments, '*');
                    i += 2;
                } else if b[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    push(&mut comments, '*');
                    push(&mut comments, '/');
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        newline(&mut code, &mut comments);
                    } else {
                        push(&mut comments, b[i]);
                    }
                    i += 1;
                }
            }
        } else if c == 'r' && (n1 == '"' || (n1 == '#' && (n2 == '#' || n2 == '"'))) {
            // Raw string r"..." or r#"..."# (any hash count).
            let mut j = i + 1;
            let mut hashes = 0;
            while b.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&'"') {
                j += 1;
                'raw: while j < b.len() {
                    if b[j] == '"' {
                        let mut k = 0;
                        while k < hashes && b.get(j + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    if b[j] == '\n' {
                        newline(&mut code, &mut comments);
                    }
                    j += 1;
                }
                push(&mut code, '"');
                push(&mut code, '"');
                i = j;
            } else {
                push(&mut code, c);
                i += 1;
            }
        } else if c == '"' {
            push(&mut code, '"');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' {
                    // A `\` line continuation still ends a line.
                    if at(i + 1) == '\n' {
                        newline(&mut code, &mut comments);
                    }
                    i += 2;
                } else if b[i] == '"' {
                    i += 1;
                    break;
                } else {
                    if b[i] == '\n' {
                        newline(&mut code, &mut comments);
                    }
                    i += 1;
                }
            }
            push(&mut code, '"');
        } else if c == '\'' {
            // Char literal vs lifetime.
            let is_char = if n1 == '\\' {
                true
            } else {
                n1 != '\0' && n2 == '\''
            };
            if is_char {
                push(&mut code, '\'');
                i += 1;
                if b.get(i) == Some(&'\\') {
                    i += 2;
                    // Skip to closing quote (covers \x41, \u{...}).
                    while i < b.len() && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else {
                    i += 2;
                }
                push(&mut code, '\'');
            } else {
                push(&mut code, '\'');
                i += 1;
            }
        } else {
            push(&mut code, c);
            i += 1;
        }
    }
    MaskedSource { code, comments }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Char offsets at which `word` occurs in `chars` bounded by
/// non-identifier characters.
fn word_positions(chars: &[char], word: &str) -> Vec<usize> {
    let w: Vec<char> = word.chars().collect();
    if w.is_empty() || chars.len() < w.len() {
        return Vec::new();
    }
    (0..=(chars.len() - w.len()))
        .filter(|&start| {
            let after = start + w.len();
            chars[start..after] == w[..]
                && (start == 0 || !is_ident_char(chars[start - 1]))
                && (after >= chars.len() || !is_ident_char(chars[after]))
        })
        .collect()
}

/// Does `line` contain `word` bounded by non-identifier characters?
fn has_word(line: &str, word: &str) -> bool {
    let chars: Vec<char> = line.chars().collect();
    !word_positions(&chars, word).is_empty()
}

/// The first non-blank char at or after `i`.
fn next_solid(chars: &[char], i: usize) -> Option<char> {
    chars.get(i..)?.iter().copied().find(|c| !c.is_whitespace())
}

/// The first panic site on a masked code line: `.name(` for a
/// `PANIC_METHODS` name, `name!(` / `name![` / `name!{` for a
/// `PANIC_MACROS` one.
fn panic_site(line: &str) -> Option<String> {
    let chars: Vec<char> = line.chars().collect();
    for name in PANIC_METHODS {
        for p in word_positions(&chars, name) {
            let dotted = chars[..p].iter().rev().find(|c| !c.is_whitespace()) == Some(&'.');
            if dotted && next_solid(&chars, p + name.len()) == Some('(') {
                return Some(format!(".{name}()"));
            }
        }
    }
    for name in PANIC_MACROS {
        for p in word_positions(&chars, name) {
            let bang = p + name.len();
            if chars.get(bang) == Some(&'!')
                && matches!(next_solid(&chars, bang + 1), Some('(' | '[' | '{'))
            {
                return Some(format!("{name}!"));
            }
        }
    }
    None
}

/// The first call on a masked code line to a `BLOCKING` name (`name(`,
/// however it is qualified), excluding a definition `fn name(`.
fn blocking_call(line: &str) -> Option<&'static str> {
    let chars: Vec<char> = line.chars().collect();
    BLOCKING.into_iter().find(|name| {
        word_positions(&chars, name).into_iter().any(|p| {
            let before: String = chars[..p].iter().collect();
            next_solid(&chars, p + name.len()) == Some('(') && !before.trim_end().ends_with("fn")
        })
    })
}

/// Lines (0-based) covered by `#[cfg(test)] mod ... { ... }` regions.
fn test_region_mask(code: &[String]) -> Vec<bool> {
    let mut masked = vec![false; code.len()];
    let mut li = 0;
    while li < code.len() {
        let trimmed = code[li].trim();
        if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test") {
            // Find the `mod` item and brace-count its body.
            let mut mj = li;
            while mj < code.len() && !has_word(&code[mj], "mod") {
                mj += 1;
                if mj > li + 4 {
                    break;
                }
            }
            if mj < code.len() && has_word(&code[mj], "mod") {
                let mut depth: i32 = 0;
                let mut started = false;
                let mut k = mj;
                while k < code.len() {
                    for ch in code[k].chars() {
                        if ch == '{' {
                            depth += 1;
                            started = true;
                        } else if ch == '}' {
                            depth -= 1;
                        }
                    }
                    masked[k] = true;
                    if started && depth <= 0 {
                        break;
                    }
                    k += 1;
                }
                masked[li] = true;
                li = k + 1;
                continue;
            }
        }
        li += 1;
    }
    masked
}

fn tag_in_window(comments: &[String], line: usize, tag: &str, window: usize) -> bool {
    let lo = line.saturating_sub(window);
    comments[lo..=line].iter().any(|c| c.contains(tag))
}

/// Is `path` (workspace-relative) under one of the `ENGINE_CRATES`' `src/`?
fn is_engine_source(path: &Path) -> bool {
    ENGINE_CRATES.iter().any(|c| path.starts_with(Path::new("crates").join(c).join("src")))
}

/// Scan one file's source text. `path` is workspace-relative: it labels the
/// findings and decides whether the engine-crate rules apply.
pub fn scan_source(path: &Path, src: &str) -> Vec<Finding> {
    let m = mask(src);
    let in_test = test_region_mask(&m.code);
    let engine = is_engine_source(path);
    let mut out = Vec::new();
    let mut flag = |i: usize, rule: Rule, message: String| {
        out.push(Finding { file: path.to_path_buf(), line: i + 1, rule, message })
    };
    for (i, line) in m.code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if has_word(line, "Relaxed")
            && !line.trim_start().starts_with("use ")
            && !tag_in_window(&m.comments, i, "ORDERING:", 3)
        {
            flag(
                i,
                Rule::RelaxedNoOrdering,
                "`Ordering::Relaxed` without an `// ORDERING:` comment justifying the relaxed \
                 access"
                    .to_string(),
            );
        }
        if !engine {
            continue;
        }
        if let Some(site) = panic_site(line) {
            if !tag_in_window(&m.comments, i, "PANIC-SAFE:", 3) {
                flag(
                    i,
                    Rule::PanicNoInvariant,
                    format!("`{site}` without a `// PANIC-SAFE: <invariant>` comment"),
                );
            }
        }
        if let Some(call) = blocking_call(line) {
            if !tag_in_window(&m.comments, i, "HOTPATH:", 3) {
                flag(
                    i,
                    Rule::BlockingNoReason,
                    format!("blocking `{call}()` without a `// HOTPATH: <why>` comment"),
                );
            }
        }
    }
    out
}

/// Source roots scanned by the workspace lint: every `crates/*/src` plus the
/// root package's `src/`. vendor/ (third-party subsets) and tests/benches
/// directories are exempt.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut roots: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> =
            std::fs::read_dir(&crates)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
        entries.sort();
        for e in entries {
            let src = e.join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        roots.push(root_src);
    }
    for r in roots {
        collect_rs(&r, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Scan the whole workspace rooted at `root`. Returns all findings.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut out = Vec::new();
    for f in workspace_files(root)? {
        let src = std::fs::read_to_string(&f)?;
        let rel = f.strip_prefix(root).unwrap_or(&f).to_path_buf();
        out.extend(scan_source(&rel, &src));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGINE: &str = "crates/dlsm/src/a.rs";

    fn scan(name: &str, src: &str) -> Vec<Finding> {
        scan_source(Path::new(name), src)
    }

    fn rules(name: &str, src: &str) -> Vec<(usize, Rule)> {
        scan(name, src).iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn untagged_relaxed_is_caught_and_tagged_passes() {
        let bad = "fn f(a: &std::sync::atomic::AtomicU64) {\n    a.load(std::sync::atomic::Ordering::Relaxed);\n}\n";
        let f = scan("a.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::RelaxedNoOrdering);

        let good = "fn f(a: &std::sync::atomic::AtomicU64) {\n    // ORDERING: monotonic counter, no publication\n    a.load(std::sync::atomic::Ordering::Relaxed);\n}\n";
        assert!(scan("a.rs", good).is_empty());
    }

    #[test]
    fn relaxed_in_use_line_ignored() {
        let src = "use std::sync::atomic::Ordering::Relaxed;\n";
        assert!(scan("a.rs", src).is_empty());
    }

    #[test]
    fn every_panic_site_kind_is_caught_and_its_tagged_twin_passes() {
        let sites = [
            "x.unwrap();",
            "x.expect(\"set\");",
            "x.unwrap_err();",
            "x\n        .unwrap();",
            "panic!(\"no\");",
            "assert!(ok);",
            "assert_eq!(a, b);",
            "assert_ne!(a, b);",
            "unreachable!();",
            "todo!();",
        ];
        for site in sites {
            let src = format!("fn f() {{\n    {site}\n}}\n");
            let line = 2 + site.matches('\n').count();
            assert_eq!(rules(ENGINE, &src), [(line, Rule::PanicNoInvariant)], "{site}");
            let tagged = format!("fn f() {{\n    // PANIC-SAFE: checked above\n    {site}\n}}\n");
            assert!(scan(ENGINE, &tagged).is_empty(), "{site}");
        }
    }

    #[test]
    fn every_blocking_name_is_caught_and_its_tagged_twin_passes() {
        for name in BLOCKING {
            let src = format!("fn f() {{\n    x.{name}(d);\n    std::thread::{name}();\n}}\n");
            assert_eq!(
                rules(ENGINE, &src),
                [(2, Rule::BlockingNoReason), (3, Rule::BlockingNoReason)],
                "{name}"
            );
            let tagged = format!(
                "fn f() {{\n    // HOTPATH: background thread\n    x.{name}(d);\n    std::thread::{name}();\n}}\n"
            );
            assert!(scan(ENGINE, &tagged).is_empty(), "{name}");
        }
    }

    #[test]
    fn engine_rules_cover_only_engine_crate_sources() {
        let src = "fn f() {\n    x.unwrap();\n    std::thread::sleep(d);\n}\n";
        for c in ENGINE_CRATES {
            assert_eq!(scan(&format!("crates/{c}/src/x/y.rs"), src).len(), 2, "{c}");
        }
        for path in ["crates/bench/src/a.rs", "crates/baselines/src/a.rs", "src/lib.rs", "a.rs"] {
            assert!(scan(path, src).is_empty(), "{path}");
        }
    }

    #[test]
    fn sites_in_test_modules_strings_and_comments_are_ignored() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        x.unwrap();\n        std::thread::sleep(d);\n    }\n}\n";
        assert!(scan(ENGINE, src).is_empty());
        let src = "fn f() {\n    let _ = \"x.unwrap() panic!() rx.recv()\";\n    // x.unwrap() and sleep(d)\n}\n";
        assert!(scan(ENGINE, src).is_empty());
    }

    #[test]
    fn look_alikes_are_not_sites() {
        let src = "fn wait(&self) {}\n\
                   pub fn recv(&self) -> u8 {\n\
                   \x20   debug_assert!(ok);\n\
                   \x20   debug_assert_eq!(a, b);\n\
                   \x20   x.unwrap_or_else(|| 0);\n\
                   \x20   x.unwrap_or(0);\n\
                   \x20   x.unwrap_or_default();\n\
                   \x20   rx.try_recv();\n\
                   \x20   let sleep = 1;\n\
                   \x20   if panic != 0 {}\n\
                   \x20   expect(1);\n\
                   \x20   0\n\
                   }\n";
        assert_eq!(rules(ENGINE, src), []);
    }

    #[test]
    fn the_tag_must_be_within_three_lines() {
        let near =
            "fn f() {\n    // PANIC-SAFE: set in new()\n    //\n    //\n    x.unwrap();\n}\n";
        assert!(scan(ENGINE, near).is_empty());
        let far = "fn f() {\n    // PANIC-SAFE: set in new()\n    //\n    //\n    //\n    x.unwrap();\n}\n";
        assert_eq!(rules(ENGINE, far), [(6, Rule::PanicNoInvariant)]);
    }

    #[test]
    fn masking_preserves_line_numbers() {
        let src =
            "/* block\ncomment */\nfn f() {\n    let s = \"a\nb \\\n c\";\n    x.unwrap();\n}\n";
        assert_eq!(rules(ENGINE, src), [(7, Rule::PanicNoInvariant)]);
    }
}
