//! Hand-rolled source lint for the workspace (no syn, no regex — in the
//! spirit of `dlsm-bench`'s hand-rolled JSON parser).
//!
//! Three rules, all driven by comment tags (conventions in DESIGN.md §9):
//!
//! * **unsafe-no-safety** — every `unsafe` block / `unsafe impl` needs a
//!   `// SAFETY:` comment on the same line or within the 4 preceding lines;
//!   an `unsafe fn` may instead carry a `# Safety` doc section within the
//!   15 preceding lines.
//! * **relaxed-no-ordering** — every `Ordering::Relaxed` use needs an
//!   `// ORDERING:` comment on the same line or within the 3 preceding
//!   lines explaining why relaxed is enough.
//! * **lossy-cast-in-codec** — in wire-codec files (path contains `wire`),
//!   a narrowing `as u8`/`as u16`/`as u32` cast needs a `// LOSSY:` comment
//!   (same window as ORDERING) or a checked conversion instead.
//!
//! The scanner strips comments and string literals before matching (so a
//! string containing "unsafe" never trips the lint) and skips
//! `#[cfg(test)] mod` bodies — test code documents itself by its asserts.

use std::fmt;
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    UnsafeNoSafety,
    RelaxedNoOrdering,
    LossyCastInCodec,
}

impl Rule {
    pub fn slug(self) -> &'static str {
        match self {
            Rule::UnsafeNoSafety => "unsafe-no-safety",
            Rule::RelaxedNoOrdering => "relaxed-no-ordering",
            Rule::LossyCastInCodec => "lossy-cast-in-codec",
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
/// blanked out, and the comment text found on that line. Shared with the
/// call-graph analyzer (`crate::analyze`), which reuses the same masking so
/// a string containing `lock(` or `unwrap(` never produces a fact.
pub(crate) struct MaskedSource {
    pub(crate) code: Vec<String>,
    pub(crate) comments: Vec<String>,
}

/// Strip comments and string/char literals, preserving line structure.
/// Handles nested block comments, raw strings, and the char-vs-lifetime
/// ambiguity (heuristically: `'x'` / `'\x'` is a char literal, anything else
/// after `'` is a lifetime).
pub(crate) fn mask(src: &str) -> MaskedSource {
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

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `line` contain `word` bounded by non-identifier characters?
pub(crate) fn has_word(line: &str, word: &str) -> bool {
    let chars: Vec<char> = line.chars().collect();
    let w: Vec<char> = word.chars().collect();
    if w.is_empty() || chars.len() < w.len() {
        return false;
    }
    for start in 0..=(chars.len() - w.len()) {
        if chars[start..start + w.len()] != w[..] {
            continue;
        }
        let before_ok = start == 0 || !is_ident_char(chars[start - 1]);
        let after = start + w.len();
        let after_ok = after >= chars.len() || !is_ident_char(chars[after]);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Lines (0-based) covered by `#[cfg(test)] mod ... { ... }` regions.
pub(crate) fn test_region_mask(code: &[String]) -> Vec<bool> {
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

pub(crate) fn tag_in_window(comments: &[String], line: usize, tag: &str, window: usize) -> bool {
    let lo = line.saturating_sub(window);
    comments[lo..=line].iter().any(|c| c.contains(tag))
}

/// Scan one file's source text. `path` is used only for labeling and for the
/// wire-codec rule (applied when the file name contains "wire").
pub fn scan_source(path: &Path, src: &str) -> Vec<Finding> {
    let m = mask(src);
    let in_test = test_region_mask(&m.code);
    let is_codec = path
        .file_name()
        .and_then(|f| f.to_str())
        .map(|f| f.contains("wire"))
        .unwrap_or(false);
    let mut out = Vec::new();
    for (i, line) in m.code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let lineno = i + 1;
        if has_word(line, "unsafe") && !line.trim_start().starts_with("#![") {
            let has_safety = tag_in_window(&m.comments, i, "SAFETY:", 4);
            let is_fn_decl = has_word(line, "fn");
            let has_safety_doc = is_fn_decl && tag_in_window(&m.comments, i, "# Safety", 15);
            if !has_safety && !has_safety_doc {
                out.push(Finding {
                    file: path.to_path_buf(),
                    line: lineno,
                    rule: Rule::UnsafeNoSafety,
                    message: "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc \
                              section for an unsafe fn)"
                        .to_string(),
                });
            }
        }
        if has_word(line, "Relaxed")
            && !line.trim_start().starts_with("use ")
            && !tag_in_window(&m.comments, i, "ORDERING:", 3)
        {
            out.push(Finding {
                file: path.to_path_buf(),
                line: lineno,
                rule: Rule::RelaxedNoOrdering,
                message: "`Ordering::Relaxed` without an `// ORDERING:` comment justifying \
                          the relaxed access"
                    .to_string(),
            });
        }
        if is_codec {
            for narrow in ["u8", "u16", "u32"] {
                let pat = format!("as {narrow}");
                if line_has_cast(line, &pat) && !tag_in_window(&m.comments, i, "LOSSY:", 3) {
                    out.push(Finding {
                        file: path.to_path_buf(),
                        line: lineno,
                        rule: Rule::LossyCastInCodec,
                        message: format!(
                            "lossy `{pat}` cast in wire codec — use a checked conversion \
                             (try_from) or tag with `// LOSSY:`"
                        ),
                    });
                    break;
                }
            }
        }
    }
    out
}

/// `<expr> as uN` where both `as` and the type are word-bounded.
fn line_has_cast(line: &str, pat: &str) -> bool {
    // `has_word` on the two halves, plus adjacency of the full pattern.
    if !line.contains(pat) {
        return false;
    }
    let (a, ty) = pat.split_once(' ').unwrap();
    has_word(line, a) && has_word(line, ty)
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

    fn scan(name: &str, src: &str) -> Vec<Finding> {
        scan_source(Path::new(name), src)
    }

    #[test]
    fn untagged_unsafe_is_caught() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let f = scan("a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnsafeNoSafety);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn tagged_unsafe_passes() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
        assert!(scan("a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_with_safety_doc_passes() {
        let src = "/// Reads a byte.\n///\n/// # Safety\n/// `p` must be valid.\npub unsafe fn f(p: *const u8) -> u8 {\n    // SAFETY: caller upholds the contract\n    unsafe { *p }\n}\n";
        assert!(scan("a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_ignored() {
        let src = "fn f() {\n    let _ = \"unsafe { }\";\n    // this mentions unsafe code\n}\n";
        assert!(scan("a.rs", src).is_empty());
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
    fn lossy_cast_only_flagged_in_wire_files() {
        let src = "fn f(len: usize) -> u32 {\n    len as u32\n}\n";
        assert!(scan("other.rs", src).is_empty());
        let f = scan("wire.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::LossyCastInCodec);
        let tagged = "fn f(len: usize) -> u32 {\n    // LOSSY: frame payloads are capped at 16 MiB\n    len as u32\n}\n";
        assert!(scan("wire.rs", tagged).is_empty());
    }

    #[test]
    fn cfg_test_mod_is_skipped() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t(p: *const u8) -> u8 {\n        unsafe { *p }\n    }\n}\n";
        assert!(scan("a.rs", src).is_empty());
    }

    #[test]
    fn masking_preserves_line_numbers() {
        let src = "/* block\ncomment */\nfn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let f = scan("a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }
}
