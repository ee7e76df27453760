//! `dlsm_analyze`: a hand-rolled call-graph analyzer for the hot paths.
//!
//! ROADMAP item 3 commits the engine to a poll-driven runtime where the data
//! path must never block, hold a lock across a fabric wait, or panic. This
//! module grows the `dlsm_lint` token scanner into a workspace analyzer that
//! produces the authoritative worklist for that refactor and then ratchets
//! it to zero:
//!
//! * **Fact base** — every `fn` in the workspace, the calls it makes, the
//!   lock guards it acquires (`Mutex::lock`, `RwLock::read/write` resolved
//!   through struct-field types), the blocking primitives it touches
//!   (`spin_loop`, `yield_now`, `sleep`, `park`, blocking `recv`, condvar
//!   waits), the fabric verbs it posts (rdma-sim `QueuePair` verbs and the
//!   CQ polls behind `rpc_call`/`rpc_compact`), and its panic sites
//!   (`unwrap`/`expect`/`panic!`/`assert!`).
//! * **Call graph** — name-resolved with typed receivers where the tokens
//!   allow (`self.field.m()` through struct fields, `let x: T` / parameter
//!   annotations, `Type::m()` paths) and documented fallbacks where they
//!   don't (workspace-unique names, bounded same-name fan-out). See
//!   DESIGN.md §15 for the exact rules and their known imprecision.
//! * **Checks** — reachability from the data-path entry points
//!   (`Db::put/write/delete`, `DbReader::get/scan/multi_get`, the
//!   `ShardedDb` equivalents, scan iterators):
//!   **HOTPATH** (blocking primitive reachable from an entry point),
//!   **LOCKFABRIC** (fabric op or fabric-transitive call made while a lock
//!   guard is live — checked workspace-wide, since holding a lock across
//!   the fabric is a stall bomb in background threads too), and
//!   **PANICPATH** (panic site reachable from an entry point). Each finding
//!   carries the entry-point path that reaches it. A `// HOTPATH: <why>`,
//!   `// LOCKFABRIC: <why>`, or `// PANIC-SAFE: <invariant>` comment on the
//!   site (or within the 3 preceding lines) waives it — waivers are counted
//!   and reported, and double as the async-refactor worklist.
//!
//! The `dlsm_analyze` binary renders the human report, emits machine-
//! readable JSON (`results/ANALYZE_dlsm.json`), and `--ratchet <baseline>`
//! fails CI whenever any rule's unwaived count rises above the committed
//! baseline.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lint::{self, is_ident_char, tag_in_window, test_region_mask, MaskedSource};

/// The three analyzer rules.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rule {
    /// Blocking primitive reachable from a data-path entry point.
    Hotpath,
    /// Fabric op (or fabric-transitive call) inside a live lock-guard scope.
    LockFabric,
    /// Panic site reachable from a data-path entry point.
    PanicPath,
}

impl Rule {
    pub fn slug(self) -> &'static str {
        match self {
            Rule::Hotpath => "HOTPATH",
            Rule::LockFabric => "LOCKFABRIC",
            Rule::PanicPath => "PANICPATH",
        }
    }

    /// The waiver tag that silences this rule at a site.
    pub fn waiver(self) -> &'static str {
        match self {
            Rule::Hotpath => "HOTPATH:",
            Rule::LockFabric => "LOCKFABRIC:",
            Rule::PanicPath => "PANIC-SAFE:",
        }
    }

    pub const ALL: [Rule; 3] = [Rule::Hotpath, Rule::LockFabric, Rule::PanicPath];
}

/// One analyzer finding (or waived site, when `waived` is set).
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: Rule,
    pub file: PathBuf,
    /// 1-based line of the offending site.
    pub line: usize,
    /// `Owner::name` of the function containing the site.
    pub func: String,
    /// What was found at the site (primitive, callee, or panic macro).
    pub what: String,
    /// Entry-point path reaching the function, e.g.
    /// `Db::put → Shared::write_batch → Publication::wait_visible` (empty for
    /// LOCKFABRIC sites outside the reachable set).
    pub path: Vec<String>,
    /// Site carries the rule's waiver tag.
    pub waived: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} in `{}`",
            self.file.display(),
            self.line,
            self.rule.slug(),
            self.what,
            self.func
        )?;
        if !self.path.is_empty() {
            write!(f, "\n    via {}", self.path.join(" -> "))?;
        }
        Ok(())
    }
}

/// Whole-workspace analysis result.
#[derive(Debug, Default)]
pub struct Analysis {
    pub files: usize,
    pub functions: usize,
    pub edges: usize,
    pub unresolved_calls: usize,
    pub ambiguous_calls: usize,
    pub reachable_functions: usize,
    pub entry_points: Vec<String>,
    /// Unwaived findings (these fail `--strict` and the ratchet).
    pub findings: Vec<Finding>,
    /// Waived sites (`waived == true`), the refactor worklist.
    pub waivers: Vec<Finding>,
}

impl Analysis {
    /// Unwaived findings for one rule.
    pub fn count(&self, rule: Rule) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// Waived sites for one rule.
    pub fn waived_count(&self, rule: Rule) -> usize {
        self.waivers.iter().filter(|f| f.rule == rule).count()
    }
}

// ---------------------------------------------------------------------------
// Lexer: masked source text -> token stream with line numbers.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    /// `::`
    PathSep,
    /// Any single punctuation character (`{`, `}`, `(`, `)`, `;`, …).
    P(char),
}

#[derive(Clone, Debug)]
struct Lex {
    tok: Tok,
    /// 0-based source line.
    line: usize,
}

/// Tokenize masked code lines. Attributes (`#[...]` / `#![...]`) are skipped
/// wholesale so a `#[derive(Clone, Debug)]` never confuses field splitting.
fn lex(code: &[String]) -> Vec<Lex> {
    let mut out = Vec::new();
    let mut attr_depth = 0usize; // inside #[...]
    let mut pending_hash = false;
    for (lineno, line) in code.iter().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if attr_depth > 0 {
                match c {
                    '[' => attr_depth += 1,
                    ']' => attr_depth -= 1,
                    _ => {}
                }
                i += 1;
                continue;
            }
            if pending_hash {
                pending_hash = false;
                if c == '[' || (c == '!' && chars.get(i + 1) == Some(&'[')) {
                    if c == '!' {
                        i += 1;
                    }
                    attr_depth = 1;
                    i += 1;
                    continue;
                }
                // A lone `#` (e.g. raw-string hash remnant): ignore it.
            }
            if c == '#' {
                pending_hash = true;
                i += 1;
                continue;
            }
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                out.push(Lex {
                    tok: Tok::Ident(chars[start..i].iter().collect()),
                    line: lineno,
                });
                continue;
            }
            if c.is_numeric() {
                // Numeric literal (incl. 0x..., 1_000u64): swallow.
                while i < chars.len() && (is_ident_char(chars[i]) || chars[i] == '.') {
                    i += 1;
                }
                continue;
            }
            if c == ':' && chars.get(i + 1) == Some(&':') {
                out.push(Lex { tok: Tok::PathSep, line: lineno });
                i += 2;
                continue;
            }
            if c == '\'' {
                // Lifetime tick: skip it and its label.
                i += 1;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                continue;
            }
            out.push(Lex { tok: Tok::P(c), line: lineno });
            i += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Fact base.
// ---------------------------------------------------------------------------

/// A type expression reduced to its wrapper chain and core nominal type:
/// `Option<Arc<ReadCache>>` -> wrappers `[Option, Arc]`, core `ReadCache`.
#[derive(Clone, Debug, Default)]
struct TypeShape {
    wrappers: Vec<String>,
    core: Option<String>,
}

impl TypeShape {
    fn is_rwlock(&self) -> bool {
        self.wrappers.iter().any(|w| w == "RwLock") || self.core.as_deref() == Some("RwLock")
    }
    fn is_mutex(&self) -> bool {
        self.wrappers.iter().any(|w| w == "Mutex") || self.core.as_deref() == Some("Mutex")
    }
}

/// Smart pointers / cells the resolver looks through to find the receiver's
/// nominal type.
const WRAPPERS: [&str; 10] =
    ["Arc", "Box", "Rc", "Option", "Mutex", "RwLock", "RefCell", "Cell", "ManuallyDrop", "Pin"];

/// Parse a type token slice into its shape. Understands references,
/// `mut`/`dyn`/`impl`, paths (`a::b::C`), and one level of generic nesting
/// per wrapper (`Arc<Shared>`, `Option<Arc<ReadCache>>`).
fn parse_type(toks: &[Lex]) -> TypeShape {
    let mut shape = TypeShape::default();
    let mut i = 0;
    loop {
        // Skip `&`, `mut`, `dyn`, `impl`, `*const`, `*mut`.
        while i < toks.len() {
            match &toks[i].tok {
                Tok::P('&') | Tok::P('*') => i += 1,
                Tok::Ident(w) if w == "mut" || w == "dyn" || w == "impl" || w == "const" => i += 1,
                _ => break,
            }
        }
        // Read a path, keeping the last segment.
        let mut head: Option<String> = None;
        while i < toks.len() {
            match &toks[i].tok {
                Tok::Ident(id) => {
                    head = Some(id.clone());
                    i += 1;
                }
                Tok::PathSep => i += 1,
                _ => break,
            }
        }
        let Some(h) = head else { return shape };
        let generic_next = matches!(toks.get(i).map(|t| &t.tok), Some(Tok::P('<')));
        if generic_next && WRAPPERS.contains(&h.as_str()) {
            shape.wrappers.push(h);
            i += 1; // consume '<', loop parses the first type argument
            continue;
        }
        if h.chars().next().is_some_and(|c| c.is_uppercase()) {
            shape.core = Some(h);
        }
        return shape;
    }
}

/// How a call site names its receiver.
#[derive(Clone, Debug, PartialEq)]
enum Recv {
    /// `self.m(...)`
    SelfDot,
    /// `Self::m(...)` or `<path>::Type::m(...)`
    Type(String),
    /// `self.field.m(...)`
    FieldOfSelf(String),
    /// `x.m(...)` on a local/parameter.
    Var(String),
    /// Method call on an unresolvable expression (chain, temporary, ...).
    Unknown,
    /// Free call `f(...)` (possibly `module::f(...)`).
    Bare,
}

#[derive(Clone, Debug)]
struct CallSite {
    line: usize,
    recv: Recv,
    name: String,
    /// Indices into `FnDef::lock_sites` live at this call.
    guards: Vec<usize>,
}

#[derive(Clone, Debug)]
struct Fact {
    line: usize,
    what: String,
}

/// A lock-acquisition candidate. `.lock()`/`.try_lock()` are confirmed by
/// name; `.read()`/`.write()`/`.try_read()`/`.try_write()` only once the
/// receiver resolves to an `RwLock`-shaped field/local.
#[derive(Clone, Debug)]
struct LockSite {
    line: usize,
    method: String,
    recv: Recv,
    /// Guard is bound by `let` — it lives to the end of its block.
    let_bound: bool,
}

#[derive(Clone, Debug)]
struct FnDef {
    name: String,
    /// Impl/trait owner (`None` for free functions).
    owner: Option<String>,
    file_idx: usize,
    /// 0-based definition line.
    line: usize,
    calls: Vec<CallSite>,
    blocking: Vec<Fact>,
    panics: Vec<Fact>,
    lock_sites: Vec<LockSite>,
    /// Parameter / `let` types by variable name.
    locals: HashMap<String, TypeShape>,
}

impl FnDef {
    fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

struct FileFacts {
    path: PathBuf,
    comments: Vec<String>,
    crate_name: String,
}

/// The assembled workspace fact base.
struct Facts {
    files: Vec<FileFacts>,
    fns: Vec<FnDef>,
    /// Struct name -> field name -> type shape.
    fields: HashMap<String, HashMap<String, TypeShape>>,
}

/// `QueuePair` verbs and CQ waits: the fabric seeds. Everything that
/// (transitively) calls one of these is fabric-transitive.
const FABRIC_SEEDS: [(&str, &str); 11] = [
    ("QueuePair", "post_read"),
    ("QueuePair", "post_write"),
    ("QueuePair", "post_write_imm"),
    ("QueuePair", "post_send"),
    ("QueuePair", "fetch_add"),
    ("QueuePair", "compare_swap"),
    ("QueuePair", "read_sync"),
    ("QueuePair", "write_sync"),
    ("QueuePair", "poll_one_blocking"),
    ("QueuePair", "drain"),
    ("", "spin_until"),
];

/// Std blocking primitives recorded as direct facts when the call does not
/// resolve to a workspace function (a workspace `recv`/`wait` is analyzed
/// through its own body instead, avoiding double findings).
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

/// Panic-site method names.
const PANIC_METHODS: [&str; 3] = ["unwrap", "expect", "unwrap_err"];

/// Panic-site macro names (`debug_assert*` excluded: compiled out of the
/// release hot path, and its own word boundary keeps it from matching).
const PANIC_MACROS: [&str; 6] =
    ["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo"];

/// Ubiquitous std method names whose same-name resolution would wire the
/// graph to std containers' namesakes. These resolve only through a typed
/// receiver; untyped uses record no edge (counted `unresolved`).
const NO_FANOUT: [&str; 53] = [
    "get", "insert", "remove", "push", "pop", "len", "is_empty", "iter", "next", "new", "clone",
    "write", "read", "lock", "send", "recv", "load", "store", "swap", "fetch_add", "drain",
    "poll", "wait", "clear", "reset", "contains", "contains_key", "entry", "snapshot", "delta",
    "merge", "record", "id", "take", "drop", "flush", "collect", "parse", "spawn", "join",
    "with_capacity", "fold", "extend", "map", "filter", "add", "post", "bump", "forget", "free",
    "run", "start", "stop",
];

/// Owner type names the model-checker shim shares with std (and, for
/// `fetch_add`/`drain`, with `QueuePair`). A typed hit on one of these only
/// resolves within the defining crate.
const STD_MIRROR: [&str; 13] = [
    "AtomicBool",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI64",
    "AtomicPtr",
    "Mutex",
    "RwLock",
    "Condvar",
    "Thread",
    "JoinHandle",
    "MutexGuard",
    "Ordering",
];

/// Data-path entry points: `(owner, method)`.
const ENTRY_POINTS: [(&str, &str); 15] = [
    ("Db", "put"),
    ("Db", "write"),
    ("Db", "delete"),
    ("DbReader", "get"),
    ("DbReader", "get_at"),
    ("DbReader", "multi_get"),
    ("DbReader", "scan"),
    ("DbReader", "scan_range"),
    ("DbReader", "scan_at"),
    ("ShardedDb", "put"),
    ("ShardedDb", "delete"),
    ("ShardedReader", "get"),
    ("ShardedReader", "scan"),
    ("DbScan", "next"),
    ("ShardedScan", "next"),
];

// ---------------------------------------------------------------------------
// Parser: token stream -> FnDefs + struct fields for one file.
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Scope {
    Impl(String),
    Fn(usize),
    Block,
}

struct Parser<'a> {
    toks: &'a [Lex],
    in_test: &'a [bool],
    file_idx: usize,
    fns: Vec<FnDef>,
    fields: HashMap<String, HashMap<String, TypeShape>>,
}

impl<'a> Parser<'a> {
    fn ident_at(&self, i: usize) -> Option<&str> {
        match self.toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        matches!(self.toks.get(i).map(|t| &t.tok), Some(Tok::P(p)) if *p == c)
    }

    /// Token index of the matching close for nesting starting at `open`
    /// (which must be `<`, `(`, `[` or `{`). Returns the index *of* the
    /// closer.
    fn matching(&self, open: usize) -> usize {
        let (o, c) = match self.toks[open].tok {
            Tok::P('<') => ('<', '>'),
            Tok::P('(') => ('(', ')'),
            Tok::P('[') => ('[', ']'),
            _ => ('{', '}'),
        };
        let mut depth = 0i32;
        let mut i = open;
        while i < self.toks.len() {
            match &self.toks[i].tok {
                Tok::P(p) if *p == o => depth += 1,
                Tok::P(p) if *p == c => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.toks.len().saturating_sub(1)
    }

    /// Parse the impl header starting after the `impl` keyword; returns
    /// (type name, token index of the opening `{`). `impl Trait for Type`
    /// attributes the block to `Type`.
    fn impl_header(&self, mut i: usize) -> (Option<String>, usize) {
        // Skip generic params `impl<T: ...>`.
        if self.punct_at(i, '<') {
            i = self.matching(i) + 1;
        }
        let mut last: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        while i < self.toks.len() {
            match &self.toks[i].tok {
                Tok::P('{') => break,
                Tok::P(';') => break,
                Tok::Ident(w) if w == "for" => {
                    saw_for = true;
                    i += 1;
                }
                Tok::Ident(w) if w == "where" => {
                    // Skip to the `{`.
                    while i < self.toks.len() && !self.punct_at(i, '{') {
                        i += 1;
                    }
                    break;
                }
                Tok::Ident(id) => {
                    if id.chars().next().is_some_and(|c| c.is_uppercase()) {
                        if saw_for {
                            after_for = Some(id.clone());
                        } else {
                            last = Some(id.clone());
                        }
                    }
                    i += 1;
                }
                Tok::P('<') => i = self.matching(i) + 1,
                _ => i += 1,
            }
        }
        (after_for.or(last), i)
    }

    /// Collect struct fields between the `{` at `open` and its closer.
    fn struct_fields(&mut self, name: &str, open: usize) -> usize {
        let close = self.matching(open);
        let mut i = open + 1;
        let mut fields = HashMap::new();
        while i < close {
            // Field: [pub [(crate|super)]] name ':' type ','
            while i < close {
                match self.ident_at(i) {
                    Some("pub") => {
                        i += 1;
                        if self.punct_at(i, '(') {
                            i = self.matching(i) + 1;
                        }
                    }
                    _ => break,
                }
            }
            let Some(fname) = self.ident_at(i).map(str::to_string) else {
                i += 1;
                continue;
            };
            if !self.punct_at(i + 1, ':') {
                i += 1;
                continue;
            }
            let ty_start = i + 2;
            // Field type extends to the comma at bracket-depth 0.
            let mut j = ty_start;
            let mut ok = true;
            while j < close {
                match &self.toks[j].tok {
                    Tok::P(',') => break,
                    Tok::P('<') | Tok::P('(') | Tok::P('[') => j = self.matching(j),
                    Tok::P('{') => {
                        ok = false; // not a field list (e.g. enum variant body)
                        j = self.matching(j);
                    }
                    _ => {}
                }
                j += 1;
            }
            if ok {
                fields.insert(fname, parse_type(&self.toks[ty_start..j]));
            }
            i = j + 1;
        }
        self.fields.insert(name.to_string(), fields);
        close
    }

    /// Extract `name: Type` parameter shapes from the signature tokens
    /// between the fn's parens.
    fn fn_params(&self, open_paren: usize) -> HashMap<String, TypeShape> {
        let close = self.matching(open_paren);
        let mut out = HashMap::new();
        let mut i = open_paren + 1;
        while i < close {
            let Some(pname) = self.ident_at(i).map(str::to_string) else {
                // Skip a pattern parameter to its comma.
                while i < close && !self.punct_at(i, ',') {
                    if self.punct_at(i, '(') || self.punct_at(i, '[') || self.punct_at(i, '<') {
                        i = self.matching(i);
                    }
                    i += 1;
                }
                i += 1;
                continue;
            };
            if pname == "mut" {
                i += 1;
                continue;
            }
            if !self.punct_at(i + 1, ':') {
                // `self`, `&self`, `&mut self` or pattern: skip to comma.
                while i < close && !self.punct_at(i, ',') {
                    if self.punct_at(i, '(') || self.punct_at(i, '[') || self.punct_at(i, '<') {
                        i = self.matching(i);
                    }
                    i += 1;
                }
                i += 1;
                continue;
            }
            let ty_start = i + 2;
            let mut j = ty_start;
            while j < close {
                match &self.toks[j].tok {
                    Tok::P(',') => break,
                    Tok::P('<') | Tok::P('(') | Tok::P('[') => j = self.matching(j),
                    _ => {}
                }
                j += 1;
            }
            out.insert(pname, parse_type(&self.toks[ty_start..j]));
            i = j + 1;
        }
        out
    }

    /// Classify the receiver of the call whose name token sits at `i`.
    fn receiver(&self, i: usize) -> Recv {
        if i == 0 {
            return Recv::Bare;
        }
        match &self.toks[i - 1].tok {
            Tok::P('.') => {
                // `<what> . name (`
                match self.toks.get(i.wrapping_sub(2)).map(|t| &t.tok) {
                    Some(Tok::Ident(id)) => {
                        let before = self.toks.get(i.wrapping_sub(3)).map(|t| &t.tok);
                        match before {
                            Some(Tok::P('.')) => {
                                // `x . field . name (` — only `self.field` resolves.
                                let root = self.toks.get(i.wrapping_sub(4)).map(|t| &t.tok);
                                let deeper = self.toks.get(i.wrapping_sub(5)).map(|t| &t.tok);
                                match (root, deeper) {
                                    (Some(Tok::Ident(r)), d) if r == "self" => {
                                        if matches!(d, Some(Tok::P('.'))) {
                                            Recv::Unknown
                                        } else {
                                            Recv::FieldOfSelf(id.clone())
                                        }
                                    }
                                    _ => Recv::Unknown,
                                }
                            }
                            Some(Tok::PathSep) => Recv::Unknown,
                            _ => {
                                if id == "self" {
                                    Recv::SelfDot
                                } else {
                                    Recv::Var(id.clone())
                                }
                            }
                        }
                    }
                    _ => Recv::Unknown,
                }
            }
            Tok::PathSep => match self.toks.get(i.wrapping_sub(2)).map(|t| &t.tok) {
                Some(Tok::Ident(q)) if q.chars().next().is_some_and(|c| c.is_uppercase()) => {
                    Recv::Type(q.clone())
                }
                _ => Recv::Bare,
            },
            _ => Recv::Bare,
        }
    }

    /// Walk the whole token stream.
    fn run(&mut self) {
        // Stack of (scope, active let-bound guard indices at entry).
        let mut scopes: Vec<Scope> = Vec::new();
        let mut guard_scope: Vec<(usize, usize)> = Vec::new(); // (lock_site idx, scopes.len() at acq)
        // Innermost fn index per scope nesting (derived on demand).
        let mut pending: Option<(String, usize, Option<usize>)> = None; // (kind payload, line, fn params paren)
        let mut pending_kind: u8 = 0; // 1=impl 2=struct 3=fn 4=opaque(enum/mod/trait/union)
        // Some((binding, token idx of `=`)) while in a let-statement.
        let mut stmt_let: Option<(Option<String>, Option<usize>)> = None;

        let mut i = 0usize;
        while i < self.toks.len() {
            let line = self.toks[i].line;
            let innermost_fn =
                scopes.iter().rev().find_map(|s| match s {
                    Scope::Fn(idx) => Some(*idx),
                    _ => None,
                });
            match &self.toks[i].tok {
                Tok::Ident(w) if w == "impl" && pending_kind == 0 && innermost_fn.is_none() => {
                    let prev_ok = i == 0
                        || matches!(
                            &self.toks[i - 1].tok,
                            Tok::P('{') | Tok::P('}') | Tok::P(';') | Tok::P(']')
                        );
                    if prev_ok {
                        let (ty, brace) = self.impl_header(i + 1);
                        pending = Some((ty.unwrap_or_default(), line, None));
                        pending_kind = 1;
                        i = brace;
                        continue;
                    }
                    i += 1;
                }
                Tok::Ident(w)
                    if (w == "struct") && pending_kind == 0 && innermost_fn.is_none() =>
                {
                    if let Some(name) = self.ident_at(i + 1).map(str::to_string) {
                        if self.punct_at(i + 2, '{') {
                            let close = self.struct_fields(&name, i + 2);
                            i = close + 1;
                            continue;
                        }
                        // Generic struct `struct X<..> { .. }` or tuple/unit.
                        let mut j = i + 2;
                        if self.punct_at(j, '<') {
                            j = self.matching(j) + 1;
                        }
                        if self.punct_at(j, '{') {
                            let close = self.struct_fields(&name, j);
                            i = close + 1;
                            continue;
                        }
                    }
                    i += 1;
                }
                Tok::Ident(w)
                    if (w == "trait" || w == "enum" || w == "mod" || w == "union")
                        && pending_kind == 0
                        && innermost_fn.is_none() =>
                {
                    let prev_ok = i == 0
                        || matches!(
                            &self.toks[i - 1].tok,
                            Tok::P('{') | Tok::P('}') | Tok::P(';') | Tok::P(']')
                        )
                        || matches!(&self.toks[i - 1].tok, Tok::Ident(p) if p == "pub" || p == "unsafe")
                        || matches!(&self.toks[i - 1].tok, Tok::P(')'));
                    if prev_ok {
                        // Treat `trait X { .. }` as an impl-like owner so
                        // default trait methods resolve by owner name.
                        if w == "trait" {
                            if let Some(name) = self.ident_at(i + 1).map(str::to_string) {
                                pending = Some((name, line, None));
                                pending_kind = 1;
                                i += 2;
                                continue;
                            }
                        }
                        pending = Some((String::new(), line, None));
                        pending_kind = 4;
                    }
                    i += 1;
                }
                Tok::Ident(w) if w == "fn" && pending_kind == 0 => {
                    let prev_ok = i == 0
                        || matches!(
                            &self.toks[i - 1].tok,
                            Tok::P('{') | Tok::P('}') | Tok::P(';') | Tok::P(']') | Tok::P(')')
                        )
                        || matches!(&self.toks[i - 1].tok,
                            Tok::Ident(p) if p == "pub" || p == "unsafe" || p == "const"
                                || p == "extern" || p == "async" || p == "default");
                    if prev_ok {
                        if let Some(name) = self.ident_at(i + 1).map(str::to_string) {
                            // Find the parameter list paren.
                            let mut j = i + 2;
                            if self.punct_at(j, '<') {
                                j = self.matching(j) + 1;
                            }
                            if self.punct_at(j, '(') {
                                pending = Some((name, line, Some(j)));
                                pending_kind = 3;
                                i = self.matching(j) + 1; // skip past params
                                continue;
                            }
                        }
                    }
                    i += 1;
                }
                Tok::P('{') => {
                    match pending_kind {
                        1 => scopes.push(Scope::Impl(pending.take().unwrap().0)),
                        3 => {
                            let (name, fline, paren) = pending.take().unwrap();
                            let owner = scopes.iter().rev().find_map(|s| match s {
                                Scope::Impl(t) if !t.is_empty() => Some(t.clone()),
                                _ => None,
                            });
                            let locals = paren.map(|p| self.fn_params(p)).unwrap_or_default();
                            self.fns.push(FnDef {
                                name,
                                owner,
                                file_idx: self.file_idx,
                                line: fline,
                                calls: Vec::new(),
                                blocking: Vec::new(),
                                panics: Vec::new(),
                                lock_sites: Vec::new(),
                                locals,
                            });
                            scopes.push(Scope::Fn(self.fns.len() - 1));
                        }
                        4 => {
                            pending.take();
                            scopes.push(Scope::Block);
                        }
                        2 => unreachable!("struct handled inline"),
                        _ => scopes.push(Scope::Block),
                    }
                    pending_kind = 0;
                    i += 1;
                }
                Tok::P('}') => {
                    scopes.pop();
                    guard_scope.retain(|&(_, depth)| depth <= scopes.len());
                    stmt_let = None;
                    i += 1;
                }
                Tok::P(';') => {
                    if pending_kind == 3 || pending_kind == 1 || pending_kind == 4 {
                        // Bodyless item (trait method decl, unit struct, ...).
                        pending = None;
                        pending_kind = 0;
                    }
                    stmt_let = None;
                    i += 1;
                }
                Tok::Ident(w) if w == "let" && innermost_fn.is_some() => {
                    // Capture binding name and an optional `: Type` ascription.
                    let mut j = i + 1;
                    if self.ident_at(j) == Some("mut") {
                        j += 1;
                    }
                    let binding = self.ident_at(j).map(str::to_string);
                    let mut eq_idx = None;
                    if let (Some(b), Some(fidx)) = (&binding, innermost_fn) {
                        if self.punct_at(j + 1, ':') {
                            let ty_start = j + 2;
                            let mut k = ty_start;
                            while k < self.toks.len() {
                                match &self.toks[k].tok {
                                    Tok::P('=') | Tok::P(';') => break,
                                    Tok::P('<') | Tok::P('(') | Tok::P('[') => {
                                        k = self.matching(k)
                                    }
                                    _ => {}
                                }
                                k += 1;
                            }
                            if self.punct_at(k, '=') {
                                eq_idx = Some(k);
                            }
                            self.fns[fidx]
                                .locals
                                .insert(b.clone(), parse_type(&self.toks[ty_start..k]));
                        } else if self.punct_at(j + 1, '=') {
                            eq_idx = Some(j + 1);
                            // `let x = Type::ctor(...)`: shape from the path head.
                            if let Some(head) = self.ident_at(j + 2).map(str::to_string) {
                                if head.chars().next().is_some_and(|c| c.is_uppercase())
                                    && matches!(
                                        self.toks.get(j + 3).map(|t| &t.tok),
                                        Some(Tok::PathSep)
                                    )
                                {
                                    self.fns[fidx].locals.insert(
                                        b.clone(),
                                        TypeShape { wrappers: Vec::new(), core: Some(head) },
                                    );
                                }
                            }
                        }
                    }
                    if eq_idx.is_none() && self.punct_at(j + 1, '=') {
                        eq_idx = Some(j + 1);
                    }
                    stmt_let = Some((binding, eq_idx));
                    i += 1;
                }
                Tok::Ident(name) => {
                    let Some(fidx) = innermost_fn else {
                        i += 1;
                        continue;
                    };
                    // Macro call `name!(...)` / `name![...]`.
                    let is_macro = self.punct_at(i + 1, '!')
                        && (self.punct_at(i + 2, '(') || self.punct_at(i + 2, '['));
                    let is_call = self.punct_at(i + 1, '(');
                    if is_macro {
                        if PANIC_MACROS.contains(&name.as_str()) {
                            self.fns[fidx].panics.push(Fact { line, what: format!("{name}!") });
                        }
                        i += 2;
                        continue;
                    }
                    if !is_call {
                        i += 1;
                        continue;
                    }
                    let recv = self.receiver(i);
                    let guards: Vec<usize> = guard_scope.iter().map(|&(g, _)| g).collect();
                    let is_method = matches!(
                        recv,
                        Recv::SelfDot | Recv::FieldOfSelf(_) | Recv::Var(_) | Recv::Unknown
                    );
                    // drop(guard) releases a named guard early.
                    if name == "drop" && recv == Recv::Bare {
                        if let Some(dropped) = self.ident_at(i + 2) {
                            if self.punct_at(i + 3, ')') {
                                let f = &self.fns[fidx];
                                guard_scope.retain(|&(g, _)| !binding_matches(f, g, dropped));
                            }
                        }
                        i += 1;
                        continue;
                    }
                    if is_method && PANIC_METHODS.contains(&name.as_str()) {
                        self.fns[fidx].panics.push(Fact { line, what: format!(".{name}()") });
                        i += 1;
                        continue;
                    }
                    // Lock acquisition candidates. A guard consumed by
                    // further chaining (`let v = m.lock().get(..)`) is a
                    // temporary that dies within the statement, not a
                    // let-bound guard — check the token after the call's
                    // closing paren.
                    if is_method
                        && matches!(
                            name.as_str(),
                            "lock" | "try_lock" | "read" | "write" | "try_read" | "try_write"
                        )
                    {
                        let after_call = self.matching(i + 1) + 1;
                        let chained = self.punct_at(after_call, '.')
                            || self.punct_at(after_call, '?');
                        // Directly bound only when the receiver expression
                        // starts right after the `=` — a lock() nested in
                        // another call (`mem::take(&mut *m.lock())`) is a
                        // temporary.
                        let recv_start = match &recv {
                            Recv::SelfDot | Recv::Var(_) => i.checked_sub(2),
                            Recv::FieldOfSelf(_) => i.checked_sub(4),
                            _ => None,
                        };
                        let direct = match (&stmt_let, recv_start) {
                            (Some((_, Some(eq))), Some(rs)) => rs == eq + 1,
                            _ => false,
                        };
                        let let_bound = direct && !chained;
                        let site = LockSite {
                            line,
                            method: name.clone(),
                            recv: recv.clone(),
                            let_bound,
                        };
                        self.fns[fidx].lock_sites.push(site);
                        let sidx = self.fns[fidx].lock_sites.len() - 1;
                        if let_bound {
                            // Remember the binding for drop() matching.
                            if let Some((Some(b), _)) = &stmt_let {
                                self.fns[fidx].locals.entry(format!("__guard{sidx}")).or_default();
                                self.fns[fidx]
                                    .locals
                                    .insert(format!("__guard_binding_{sidx}"), TypeShape {
                                        wrappers: vec![b.clone()],
                                        core: None,
                                    });
                            }
                            guard_scope.push((sidx, scopes.len()));
                        }
                        // `.read()` / `.write()` are also legitimate calls
                        // (RwLock-ness is decided at resolution time) — fall
                        // through to record the call site too.
                    }
                    // Blocking primitive candidates and ordinary calls share
                    // the call-site record; resolution decides which.
                    self.fns[fidx].calls.push(CallSite { line, recv, name: name.clone(), guards });
                    i += 1;
                }
                _ => {
                    i += 1;
                }
            }
            // Suppress unused warning path for in_test (facts filtered later).
            let _ = self.in_test;
        }
    }
}

/// Does lock site `g` of `f` record `name` as its guard binding?
fn binding_matches(f: &FnDef, g: usize, name: &str) -> bool {
    f.locals
        .get(&format!("__guard_binding_{g}"))
        .is_some_and(|s| s.wrappers.first().map(String::as_str) == Some(name))
}

// ---------------------------------------------------------------------------
// Resolution + checks.
// ---------------------------------------------------------------------------

fn crate_of(path: &Path) -> String {
    let comps: Vec<&str> =
        path.iter().filter_map(|c| c.to_str()).collect();
    match comps.iter().position(|&c| c == "crates") {
        Some(i) if i + 1 < comps.len() => comps[i + 1].to_string(),
        _ => "root".to_string(),
    }
}

/// Analyze a set of `(path, source)` pairs (the unit the fixture tests use).
pub fn analyze_sources(sources: &[(PathBuf, String)]) -> Analysis {
    let mut facts = Facts { files: Vec::new(), fns: Vec::new(), fields: HashMap::new() };
    for (path, src) in sources {
        let m: MaskedSource = lint::mask(src);
        let in_test = test_region_mask(&m.code);
        let toks = lex(&m.code);
        let file_idx = facts.files.len();
        let mut p = Parser {
            toks: &toks,
            in_test: &in_test,
            file_idx,
            fns: Vec::new(),
            fields: HashMap::new(),
        };
        p.run();
        // Drop functions defined inside #[cfg(test)] mod bodies.
        let kept: Vec<FnDef> =
            p.fns.into_iter().filter(|f| !in_test.get(f.line).copied().unwrap_or(false)).collect();
        facts.fns.extend(kept);
        for (ty, fs) in p.fields {
            facts.fields.entry(ty).or_default().extend(fs);
        }
        facts.files.push(FileFacts {
            path: path.clone(),
            comments: m.comments,
            crate_name: crate_of(path),
        });
    }
    resolve_and_check(facts)
}

/// Analyze every `crates/*/src` tree plus the root package `src/`.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let mut sources = Vec::new();
    for f in lint::workspace_files(root)? {
        let src = std::fs::read_to_string(&f)?;
        let rel = f.strip_prefix(root).unwrap_or(&f).to_path_buf();
        sources.push((rel, src));
    }
    Ok(analyze_sources(&sources))
}

struct Graph {
    /// fn idx -> resolved callee fn idxs (per call site, flattened).
    edges: Vec<Vec<usize>>,
    /// Call sites that resolved nowhere.
    unresolved: usize,
    /// Call sites that fanned out to several same-name owners.
    ambiguous: usize,
    /// Per call site of each fn: resolved callee list (for LOCKFABRIC site
    /// attribution).
    site_callees: Vec<Vec<Vec<usize>>>,
    /// Blocking facts promoted from unresolved blocking-name call sites.
    blocking_sites: Vec<Vec<Fact>>,
}

fn resolve_and_check(facts: Facts) -> Analysis {
    // Indexes.
    let mut by_owner_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
    let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
    let mut free_by_file: HashMap<(usize, String), Vec<usize>> = HashMap::new();
    let mut free_by_crate: HashMap<(String, String), Vec<usize>> = HashMap::new();
    for (idx, f) in facts.fns.iter().enumerate() {
        by_name.entry(f.name.clone()).or_default().push(idx);
        if let Some(o) = &f.owner {
            by_owner_name.entry((o.clone(), f.name.clone())).or_default().push(idx);
        } else {
            free_by_file.entry((f.file_idx, f.name.clone())).or_default().push(idx);
            free_by_crate
                .entry((facts.files[f.file_idx].crate_name.clone(), f.name.clone()))
                .or_default()
                .push(idx);
        }
    }

    let shape_of_recv = |f: &FnDef, recv: &Recv| -> Option<TypeShape> {
        match recv {
            Recv::SelfDot => f.owner.clone().map(|o| TypeShape { wrappers: Vec::new(), core: Some(o) }),
            Recv::Type(t) => {
                let core = if t == "Self" { f.owner.clone() } else { Some(t.clone()) };
                core.map(|c| TypeShape { wrappers: Vec::new(), core: Some(c) })
            }
            Recv::FieldOfSelf(field) => f
                .owner
                .as_ref()
                .and_then(|o| facts.fields.get(o))
                .and_then(|fs| fs.get(field))
                .cloned(),
            Recv::Var(v) => f.locals.get(v).cloned(),
            Recv::Unknown | Recv::Bare => None,
        }
    };

    // Resolve calls.
    let n = facts.fns.len();
    let mut g = Graph {
        edges: vec![Vec::new(); n],
        unresolved: 0,
        ambiguous: 0,
        site_callees: vec![Vec::new(); n],
        blocking_sites: vec![Vec::new(); n],
    };
    for (idx, f) in facts.fns.iter().enumerate() {
        for call in &f.calls {
            let mut callees: Vec<usize> = Vec::new();
            let shape = shape_of_recv(f, &call.recv);
            // A typed receiver that is a lock wrapper means the call is the
            // lock itself (`m.lock()`, `rw.read()`), not a workspace method.
            let lockish = shape.as_ref().is_some_and(|s| {
                (s.is_mutex() || s.is_rwlock())
                    && matches!(
                        call.name.as_str(),
                        "lock" | "try_lock" | "read" | "write" | "try_read" | "try_write"
                    )
            });
            let caller_crate = &facts.files[f.file_idx].crate_name;
            if !lockish {
                let typed = shape.as_ref().and_then(|s| s.core.as_ref());
                if let Some(core) = typed {
                    if let Some(v) = by_owner_name.get(&(core.clone(), call.name.clone())) {
                        // Shim std-mirror types (check's model AtomicU64,
                        // Mutex, ...) share names with std; a typed hit on
                        // one only counts from inside the defining crate —
                        // `self.bytes.fetch_add()` on a dlsm AtomicU64 must
                        // not wire into the model checker (or QueuePair).
                        callees = v
                            .iter()
                            .copied()
                            .filter(|&c| {
                                !STD_MIRROR.contains(&core.as_str())
                                    || &facts.files[facts.fns[c].file_idx].crate_name
                                        == caller_crate
                            })
                            .collect();
                    }
                    // Typed receiver with no workspace method of that name:
                    // it's a std/extern method — do NOT fall back to name
                    // matching, the receiver type is known.
                } else {
                    match &call.recv {
                        Recv::Bare => {
                            if let Some(v) = free_by_file.get(&(f.file_idx, call.name.clone())) {
                                callees = v.clone();
                            } else if let Some(v) = free_by_crate
                                .get(&(caller_crate.clone(), call.name.clone()))
                            {
                                callees = v.clone();
                            } else if !NO_FANOUT.contains(&call.name.as_str())
                                && !BLOCKING.contains(&call.name.as_str())
                            {
                                // Cross-crate free-fn fallback, unique names
                                // only, and never for std-shadowing names
                                // (a bare `yield_now()` is std's, not the
                                // model-checker shim's).
                                if let Some(v) = by_name.get(&call.name) {
                                    let frees: Vec<usize> = v
                                        .iter()
                                        .copied()
                                        .filter(|&c| facts.fns[c].owner.is_none())
                                        .collect();
                                    if frees.len() == 1 {
                                        callees = frees;
                                    }
                                }
                            }
                        }
                        Recv::Type(_) | Recv::SelfDot | Recv::FieldOfSelf(_) | Recv::Var(_)
                        | Recv::Unknown => {
                            // Untyped receiver: resolve by method name when
                            // it is workspace-specific — never for the
                            // ubiquitous std names in NO_FANOUT, which only
                            // resolve through a typed receiver. Unique-owner
                            // hits are exact; small multi-owner sets fan out
                            // (counted as ambiguous).
                            if !NO_FANOUT.contains(&call.name.as_str())
                                && !BLOCKING.contains(&call.name.as_str())
                            {
                                if let Some(v) = by_name.get(&call.name) {
                                    // Same std-mirror rule as typed hits: a
                                    // shim `AtomicBool::compare_exchange`
                                    // namesake never captures an untyped
                                    // call from another crate.
                                    let methods: Vec<usize> = v
                                        .iter()
                                        .copied()
                                        .filter(|&c| {
                                            let cf = &facts.fns[c];
                                            match &cf.owner {
                                                None => false,
                                                Some(o) => {
                                                    !STD_MIRROR.contains(&o.as_str())
                                                        || &facts.files[cf.file_idx].crate_name
                                                            == caller_crate
                                                }
                                            }
                                        })
                                        .collect();
                                    let owners: HashSet<&String> = methods
                                        .iter()
                                        .filter_map(|&c| facts.fns[c].owner.as_ref())
                                        .collect();
                                    if owners.len() == 1 && !methods.is_empty() {
                                        callees = methods;
                                    } else if owners.len() > 1 && owners.len() <= 6 {
                                        g.ambiguous += 1;
                                        callees = methods;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if callees.is_empty() {
                // Not a workspace function. A blocking-named call becomes a
                // direct blocking fact at this site.
                if BLOCKING.contains(&call.name.as_str()) {
                    g.blocking_sites[idx]
                        .push(Fact { line: call.line, what: format!("{}()", call.name) });
                } else {
                    g.unresolved += 1;
                }
            }
            g.site_callees[idx].push(callees.clone());
            g.edges[idx].extend(callees);
        }
        g.edges[idx].sort_unstable();
        g.edges[idx].dedup();
    }

    // Fabric seeds + transitive closure (reverse propagation to callers).
    let mut fabric = vec![false; n];
    for (idx, f) in facts.fns.iter().enumerate() {
        let owner = f.owner.as_deref().unwrap_or("");
        if FABRIC_SEEDS.iter().any(|&(o, m)| o == owner && m == f.name) {
            fabric[idx] = true;
        }
    }
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (idx, outs) in g.edges.iter().enumerate() {
        for &c in outs {
            rev[c].push(idx);
        }
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&i| fabric[i]).collect();
    while let Some(c) = queue.pop_front() {
        for &caller in &rev[c] {
            if !fabric[caller] {
                fabric[caller] = true;
                queue.push_back(caller);
            }
        }
    }

    // Entry-point reachability with parent pointers.
    let mut entry_idxs: Vec<usize> = Vec::new();
    for (idx, f) in facts.fns.iter().enumerate() {
        let owner = f.owner.as_deref().unwrap_or("");
        if ENTRY_POINTS.iter().any(|&(o, m)| o == owner && m == f.name) {
            entry_idxs.push(idx);
        }
    }
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut reachable = vec![false; n];
    let mut bfs: VecDeque<usize> = VecDeque::new();
    for &e in &entry_idxs {
        if !reachable[e] {
            reachable[e] = true;
            bfs.push_back(e);
        }
    }
    while let Some(u) = bfs.pop_front() {
        for &v in &g.edges[u] {
            if !reachable[v] {
                reachable[v] = true;
                parent[v] = Some(u);
                bfs.push_back(v);
            }
        }
    }
    let path_to = |mut idx: usize| -> Vec<String> {
        let mut path = vec![facts.fns[idx].qualified()];
        while let Some(p) = parent[idx] {
            path.push(facts.fns[p].qualified());
            idx = p;
        }
        path.reverse();
        path
    };

    // Confirmed lock sites per fn (Mutex by name, RwLock via receiver type).
    let confirmed_lock = |f: &FnDef, s: &LockSite| -> bool {
        if !s.let_bound {
            return false; // temporary guard: dies within the statement
        }
        match s.method.as_str() {
            "lock" | "try_lock" => true,
            _ => shape_of_recv(f, &s.recv).is_some_and(|sh| sh.is_rwlock()),
        }
    };

    // Produce findings. Waived sites and live findings share a sink so every
    // site is classified exactly once, by the same tag window.
    #[derive(Default)]
    struct Sink {
        findings: Vec<Finding>,
        waivers: Vec<Finding>,
    }
    impl Sink {
        fn push(
            &mut self,
            file: &FileFacts,
            rule: Rule,
            f: &FnDef,
            line0: usize,
            what: String,
            path: Vec<String>,
        ) {
            let waived = tag_in_window(&file.comments, line0, rule.waiver(), 3);
            let rec = Finding {
                rule,
                file: file.path.clone(),
                line: line0 + 1,
                func: f.qualified(),
                what,
                path,
                waived,
            };
            if waived {
                self.waivers.push(rec);
            } else {
                self.findings.push(rec);
            }
        }
    }
    let mut sink = Sink::default();

    for (idx, f) in facts.fns.iter().enumerate() {
        let under_lock = |guards: &[usize]| -> Option<usize> {
            guards
                .iter()
                .copied()
                .find(|&gidx| confirmed_lock(f, &f.lock_sites[gidx]))
        };
        let file = &facts.files[f.file_idx];
        // HOTPATH + PANICPATH: entry-reachable only.
        if reachable[idx] {
            for b in g.blocking_sites[idx].iter().chain(&f.blocking) {
                sink.push(file, Rule::Hotpath, f, b.line, b.what.clone(), path_to(idx));
            }
            for p in &f.panics {
                sink.push(file, Rule::PanicPath, f, p.line, p.what.clone(), path_to(idx));
            }
        }
        // LOCKFABRIC: workspace-wide.
        for (site, callees) in f.calls.iter().zip(&g.site_callees[idx]) {
            let is_fabric_call = callees.iter().any(|&c| fabric[c]);
            if !is_fabric_call {
                continue;
            }
            if let Some(gidx) = under_lock(&site.guards) {
                let lock_line = f.lock_sites[gidx].line + 1;
                let what = format!(
                    "fabric-transitive call `{}` under lock taken at line {lock_line}",
                    site.name
                );
                let path = if reachable[idx] { path_to(idx) } else { Vec::new() };
                // A waiver on either the fabric call or the lock site works.
                let waived = tag_in_window(&file.comments, site.line, Rule::LockFabric.waiver(), 3)
                    || tag_in_window(
                        &file.comments,
                        f.lock_sites[gidx].line,
                        Rule::LockFabric.waiver(),
                        3,
                    );
                let rec = Finding {
                    rule: Rule::LockFabric,
                    file: file.path.clone(),
                    line: site.line + 1,
                    func: f.qualified(),
                    what,
                    path,
                    waived,
                };
                if waived {
                    sink.waivers.push(rec);
                } else {
                    sink.findings.push(rec);
                }
            }
        }
        // Blocking primitives under a lock inside a reachable fn are already
        // HOTPATH; under a lock in a background fn they are LOCKFABRIC-ish
        // only when fabric is involved, which the call check above covers.
    }

    let Sink { mut findings, mut waivers } = sink;
    findings.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    waivers.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));

    Analysis {
        files: facts.files.len(),
        functions: n,
        edges: g.edges.iter().map(Vec::len).sum(),
        unresolved_calls: g.unresolved,
        ambiguous_calls: g.ambiguous,
        reachable_functions: reachable.iter().filter(|&&r| r).count(),
        entry_points: entry_idxs.iter().map(|&i| facts.fns[i].qualified()).collect(),
        findings,
        waivers,
    }
}

// ---------------------------------------------------------------------------
// Report + JSON + ratchet.
// ---------------------------------------------------------------------------

/// Human-readable report.
pub fn render_report(a: &Analysis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dlsm_analyze: {} files, {} functions, {} edges ({} unresolved, {} ambiguous call sites), \
         {} functions reachable from {} entry points",
        a.files,
        a.functions,
        a.edges,
        a.unresolved_calls,
        a.ambiguous_calls,
        a.reachable_functions,
        a.entry_points.len()
    );
    for rule in Rule::ALL {
        let _ = writeln!(
            out,
            "  {:<10} {} finding(s), {} waived",
            rule.slug(),
            a.count(rule),
            a.waived_count(rule)
        );
    }
    for f in &a.findings {
        let _ = writeln!(out, "{f}");
    }
    out
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"func\": \"{}\", \"what\": \"{}\", \"path\": [{}]}}",
        f.rule.slug(),
        esc(&f.file.display().to_string()),
        f.line,
        esc(&f.func),
        esc(&f.what),
        f.path.iter().map(|p| format!("\"{}\"", esc(p))).collect::<Vec<_>>().join(", ")
    )
}

/// Machine-readable JSON (the ratchet baseline format).
pub fn to_json(a: &Analysis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": 1,");
    let _ = writeln!(out, "  \"tool\": \"dlsm_analyze\",");
    let _ = writeln!(out, "  \"files\": {},", a.files);
    let _ = writeln!(out, "  \"functions\": {},", a.functions);
    let _ = writeln!(out, "  \"edges\": {},", a.edges);
    let _ = writeln!(out, "  \"unresolved_calls\": {},", a.unresolved_calls);
    let _ = writeln!(out, "  \"ambiguous_calls\": {},", a.ambiguous_calls);
    let _ = writeln!(out, "  \"reachable_functions\": {},", a.reachable_functions);
    let _ = writeln!(
        out,
        "  \"entry_points\": [{}],",
        a.entry_points.iter().map(|e| format!("\"{}\"", esc(e))).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(out, "  \"rules\": {{");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        let comma = if i + 1 < Rule::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    \"{}\": {{\"findings\": {}, \"waived\": {}}}{comma}",
            rule.slug(),
            a.count(*rule),
            a.waived_count(*rule)
        );
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(
        out,
        "  \"findings\": [{}],",
        a.findings.iter().map(finding_json).collect::<Vec<_>>().join(",\n    ")
    );
    let _ = writeln!(
        out,
        "  \"waivers\": [{}]",
        a.waivers.iter().map(finding_json).collect::<Vec<_>>().join(",\n    ")
    );
    let _ = writeln!(out, "}}");
    out
}

/// Extract the per-rule unwaived finding counts from a baseline JSON
/// produced by [`to_json`]. Hand-rolled (no serde): finds
/// `"<RULE>": {"findings": N`.
pub fn baseline_counts(json: &str) -> Option<BTreeMap<String, u64>> {
    let mut out = BTreeMap::new();
    for rule in Rule::ALL {
        let key = format!("\"{}\"", rule.slug());
        let at = json.find(&key)?;
        let rest = &json[at..];
        let fkey = "\"findings\":";
        let fat = rest.find(fkey)?;
        let tail = rest[fat + fkey.len()..].trim_start();
        let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
        out.insert(rule.slug().to_string(), digits.parse().ok()?);
    }
    Some(out)
}

/// Compare `a` against a baseline. Returns `Err(report)` when any rule's
/// unwaived count exceeds the baseline (the ratchet only goes down).
pub fn ratchet(a: &Analysis, baseline_json: &str) -> Result<String, String> {
    let Some(base) = baseline_counts(baseline_json) else {
        return Err("ratchet baseline is missing per-rule finding counts".to_string());
    };
    let mut report = String::new();
    let mut regressed = false;
    let mut shrunk = false;
    use std::fmt::Write as _;
    for rule in Rule::ALL {
        let now = a.count(rule) as u64;
        let was = *base.get(rule.slug()).unwrap_or(&0);
        let verdict = if now > was {
            regressed = true;
            "REGRESSED"
        } else if now < was {
            shrunk = true;
            "improved"
        } else {
            "ok"
        };
        let _ = writeln!(report, "  {:<10} baseline {was:>3} -> current {now:>3}  {verdict}", rule.slug());
    }
    if regressed {
        Err(report)
    } else {
        if shrunk {
            let _ = writeln!(
                report,
                "  counts shrank — re-commit results/ANALYZE_dlsm.json to tighten the ratchet"
            );
        }
        Ok(report)
    }
}
