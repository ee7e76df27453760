//! # dlsm-trace — distributed tracing & flight recorder
//!
//! Aggregate telemetry (DESIGN.md §8) says *how slow*; this crate says
//! *why*: causal spans over the write path (`put → switch → stall → flush →
//! RDMA write → install`), the read path (`get → memtable → L0 → deep`, one
//! span per RDMA READ), and — via a (trace_id, span_id) pair carried in the
//! memnode wire header — the memory-node work a compute-node span caused.
//!
//! Design (DESIGN.md §8a):
//!
//! * **Per-thread ring buffers.** Each traced thread owns a fixed ring of
//!   [`RING_CAP`] slots; a finished span (or instant) is one [`SeqSlot`]
//!   publish of nine payload words. Memory is bounded, the oldest events
//!   are overwritten, and nothing is allocated on the hot path. With
//!   tracing disabled every probe is one `Relaxed` load and a branch.
//! * **Causality.** Spans on one thread nest by a thread-local stack;
//!   cross-thread/cross-node children are opened with [`span_child_of`]
//!   against a [`TraceCtx`] captured by [`current_ctx`] on the parent side.
//! * **Export.** [`collect_events`] drains every ring into [`Event`]s;
//!   [`chrome_trace`] renders Chrome trace-event JSON (load in Perfetto or
//!   `chrome://tracing`); [`doctor`] renders a plain-text stall-attribution
//!   report; [`PanicDump`] dumps the rings when a test panics, so every red
//!   chaos run ships its own trace.
//!
//! The crate depends on nothing but `std` and is always compiled in;
//! "tracing off" is a runtime state, not a cargo feature.

mod seqlock;
pub mod sync;

pub use seqlock::SeqSlot;

use crate::sync::{AtomicU64, Ordering};
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Slots per thread ring. At 10 words each this is 320 KiB per traced
/// thread — allocated lazily, only once a thread records its first event
/// while tracing is enabled.
pub const RING_CAP: usize = 4096;

/// Stall reason carried as the `arg` of a `write_stall` span: the
/// immutable-MemTable queue is full.
pub const STALL_IMM_QUEUE: u64 = 1;
/// Stall reason carried as the `arg` of a `write_stall` span: the L0 table
/// count hit the stop-writes trigger.
pub const STALL_L0_LIMIT: u64 = 2;

// ---------------------------------------------------------------------------
// Global switch + clock
// ---------------------------------------------------------------------------

/// Nonzero while tracing is on: the disabled fast path is a single relaxed
/// load.
static ENABLED: AtomicU64 = AtomicU64::new(0);

/// Turn tracing on or off process-wide. Off is the default; the only cost
/// left behind is a relaxed load per probe.
pub fn set_enabled(on: bool) {
    // ORDERING: relaxed — the word gates best-effort probes; rings are
    // published via their registry mutex, not this word.
    ENABLED.store(u64::from(on), Ordering::Relaxed);
}

/// Is tracing currently enabled?
#[inline]
pub fn enabled() -> bool {
    // ORDERING: relaxed — see set_enabled.
    ENABLED.load(Ordering::Relaxed) != 0
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process-wide trace epoch (first use).
#[inline]
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// Categories, contexts, events
// ---------------------------------------------------------------------------

/// Event category (the Chrome `cat` field; also drives the doctor report).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Category {
    /// Foreground engine ops: put/get/scan, switch, install.
    Db = 0,
    /// MemTable flush pipeline.
    Flush = 1,
    /// Compaction picking and execution.
    Compact = 2,
    /// RPC client half (call, retry, compact round-trip).
    Rpc = 3,
    /// Fabric verbs (READ/WRITE/atomics).
    Rdma = 4,
    /// Memory-node server half (dispatch, near-data merge).
    Server = 5,
    /// Write stalls.
    Stall = 6,
}

impl Category {
    /// Stable lower-case name (JSON `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            Category::Db => "db",
            Category::Flush => "flush",
            Category::Compact => "compact",
            Category::Rpc => "rpc",
            Category::Rdma => "rdma",
            Category::Server => "server",
            Category::Stall => "stall",
        }
    }

    fn from_u8(v: u8) -> Category {
        match v {
            1 => Category::Flush,
            2 => Category::Compact,
            3 => Category::Rpc,
            4 => Category::Rdma,
            5 => Category::Server,
            6 => Category::Stall,
            _ => Category::Db,
        }
    }
}

/// A propagatable trace context: which trace, and which span is the parent.
/// Sixteen bytes on the wire (memnode request header v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Identity of the whole causal tree (the root span's id).
    pub trace_id: u64,
    /// The span to hang children off.
    pub span_id: u64,
}

/// Kind of a collected event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span (`ts_us` .. `ts_us + dur_us`).
    Span,
    /// A point-in-time marker (`dur_us` = 0).
    Instant,
}

/// One decoded ring-buffer record.
#[derive(Debug, Clone)]
pub struct Event {
    /// Logical node (Chrome `pid`): 0 = compute, memnode ids are offset +1.
    pub node_id: u64,
    /// Node label for the Perfetto process name ("compute", "memnode", ...).
    pub node_label: &'static str,
    /// Trace-local thread id (Chrome `tid`), unique per OS thread.
    pub tid: u64,
    /// Span or instant.
    pub kind: EventKind,
    /// Category.
    pub cat: Category,
    /// Static event name.
    pub name: &'static str,
    /// Start, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Causal tree this event belongs to.
    pub trace_id: u64,
    /// Unique span id (instants get one too, for ordering).
    pub span_id: u64,
    /// Parent span id, 0 for roots.
    pub parent_id: u64,
    /// Free payload: bytes moved, stall reason code, op code, ...
    pub arg: u64,
}

impl Event {
    /// End timestamp (µs since epoch).
    pub fn end_us(&self) -> u64 {
        self.ts_us + self.dur_us
    }
}

// ---------------------------------------------------------------------------
// Ring storage (seqlock slots) + registry
// ---------------------------------------------------------------------------

/// One record: `[ts, dur, name_ptr, name_len, meta, trace, span, parent,
/// arg]` behind the slot's version word; `meta` packs `kind << 8 | category`.
type Slot = SeqSlot<9>;

struct RingShared {
    tid: u64,
    /// Total records ever written; slot index = head % RING_CAP.
    head: AtomicU64,
    node_id: AtomicU64,
    node_label_ptr: AtomicU64,
    node_label_len: AtomicU64,
    slots: Box<[Slot]>,
}

impl RingShared {
    fn new(tid: u64, node_id: u64, node_label: &'static str) -> RingShared {
        RingShared {
            tid,
            head: AtomicU64::new(0),
            node_id: AtomicU64::new(node_id),
            node_label_ptr: AtomicU64::new(node_label.as_ptr() as u64),
            node_label_len: AtomicU64::new(node_label.len() as u64),
            slots: (0..RING_CAP).map(|_| Slot::new()).collect(),
        }
    }

    /// Publish one record from the owning (single-writer) thread.
    #[allow(clippy::too_many_arguments)]
    fn write(
        &self,
        kind: EventKind,
        cat: Category,
        name: &'static str,
        ts_us: u64,
        dur_us: u64,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        arg: u64,
    ) {
        // ORDERING: relaxed — single writer (the owning thread) claims
        // slots; the slot's seqlock orders the payload.
        let idx = (self.head.fetch_add(1, Ordering::Relaxed) as usize) % RING_CAP;
        let meta = u64::from(kind == EventKind::Instant) << 8 | cat as u64;
        self.slots[idx].publish([
            ts_us,
            dur_us,
            name.as_ptr() as u64,
            name.len() as u64,
            meta,
            trace_id,
            span_id,
            parent_id,
            arg,
        ]);
    }

    /// Decode slot `idx`; `None` if empty, torn, or mid-write.
    fn read(&self, idx: usize) -> Option<Event> {
        let [ts_us, dur_us, name_ptr, name_len, meta, trace_id, span_id, parent_id, arg] =
            self.slots[idx].read()?;
        // SAFETY: a validated record's name ptr/len are a pair some writer
        // published together, and writers only ever store `&'static str`s.
        let name = unsafe { static_str(name_ptr, name_len) };
        // SAFETY: the node label's ptr/len are one `&'static str`, stored by
        // `set_thread_node` at thread start-up before any collector runs.
        let node_label = unsafe {
            static_str(
                self.node_label_ptr.load(Ordering::Acquire),
                self.node_label_len.load(Ordering::Acquire),
            )
        };
        Some(Event {
            // ORDERING: relaxed — the id is a plain label; the ptr/len pair
            // above carries the pointer publication (Acquire).
            node_id: self.node_id.load(Ordering::Relaxed),
            node_label,
            tid: self.tid,
            kind: if meta >> 8 == 1 { EventKind::Instant } else { EventKind::Span },
            cat: Category::from_u8((meta & 0xff) as u8),
            name,
            ts_us,
            dur_us,
            trace_id,
            span_id,
            parent_id,
            arg,
        })
    }
}

/// Reconstruct a `&'static str` stored by a ring writer as (ptr, len).
///
/// # Safety
/// The pair must come from a seqlock-validated slot (or the ring's node
/// label words), which only ever hold pointers into `'static` strings.
pub(crate) unsafe fn static_str(ptr: u64, len: u64) -> &'static str {
    if len == 0 {
        return "";
    }
    std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr as usize as *const u8, len as usize))
}

/// The ring registry, locked poison-tolerantly: its one update is a `push`,
/// which leaves the list valid at every step, so a thread that panicked
/// while holding the lock must not take every later collection down too.
fn registry() -> MutexGuard<'static, Vec<Arc<RingShared>>> {
    static REGISTRY: Mutex<Vec<Arc<RingShared>>> = Mutex::new(Vec::new());
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

// ---------------------------------------------------------------------------
// Thread-local recorder
// ---------------------------------------------------------------------------

struct RecState {
    ring: Option<Arc<RingShared>>,
    node_id: u64,
    node_label: &'static str,
    /// Open span ids, innermost last.
    stack: Vec<u64>,
    /// Trace id of the tree currently being built on this thread.
    trace_id: u64,
    /// Trace id of the most recently *completed* root span (exemplars).
    last_root_trace: u64,
    next_serial: u64,
    tid: u64,
}

impl RecState {
    const fn new() -> RecState {
        RecState {
            ring: None,
            node_id: 0,
            node_label: "compute",
            stack: Vec::new(),
            trace_id: 0,
            last_root_trace: 0,
            next_serial: 0,
            tid: 0,
        }
    }

    fn ring(&mut self) -> &Arc<RingShared> {
        let RecState { ring, tid, node_id, node_label, .. } = self;
        ring.get_or_insert_with(|| {
            if *tid == 0 {
                // ORDERING: relaxed — tid generation; uniqueness only.
                *tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            }
            let ring = Arc::new(RingShared::new(*tid, *node_id, node_label));
            registry().push(ring.clone());
            ring
        })
    }

    fn fresh_span_id(&mut self) -> u64 {
        if self.tid == 0 {
            // ORDERING: relaxed — tid generation; uniqueness only.
            self.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        self.next_serial += 1;
        self.tid << 32 | self.next_serial
    }
}

thread_local! {
    static REC: RefCell<RecState> = const { RefCell::new(RecState::new()) };
}

/// Label the calling thread's events with a logical node. Convention:
/// compute node = id 0 `"compute"`, memory node *n* = id *n*+1
/// `"memnode"`. Cheap; callable before tracing is enabled (server threads
/// set it once at startup).
pub fn set_thread_node(node_id: u64, node_label: &'static str) {
    REC.with(|rec| {
        let mut rec = rec.borrow_mut();
        rec.node_id = node_id;
        rec.node_label = node_label;
        if let Some(ring) = &rec.ring {
            // Release (upgraded from relaxed): these words publish a
            // pointer the collector dereferences, so the string bytes must
            // be visible before the ptr/len are. The ptr/len words are only
            // a consistent pair because labeling happens once, at thread
            // startup, before any collector can run — re-labeling a live
            // ring could still tear the pair and is not supported.
            // ORDERING: relaxed — node_id is a plain integer label.
            ring.node_id.store(node_id, Ordering::Relaxed);
            ring.node_label_ptr.store(node_label.as_ptr() as u64, Ordering::Release);
            ring.node_label_len.store(node_label.len() as u64, Ordering::Release);
        }
    });
}

// ---------------------------------------------------------------------------
// Spans & instants
// ---------------------------------------------------------------------------

struct SpanInner {
    cat: Category,
    name: &'static str,
    start_us: u64,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    arg: u64,
    /// `Some(previous)` when this span hijacked the thread's trace id
    /// ([`span_child_of`]); restored on drop.
    restore_trace: Option<u64>,
}

/// An RAII span guard: records one ring entry when dropped. `!Send` — a
/// span belongs to the thread (and thread-local ring) that opened it.
pub struct Span {
    inner: Option<SpanInner>,
    _not_send: PhantomData<*const ()>,
}

impl Span {
    const DISABLED: Span = Span { inner: None, _not_send: PhantomData };
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let end = now_us();
        REC.with(|rec| {
            let mut rec = rec.borrow_mut();
            // Pop this span (it is the innermost open one: guards drop LIFO).
            if rec.stack.last() == Some(&inner.span_id) {
                rec.stack.pop();
            } else if let Some(pos) = rec.stack.iter().rposition(|&id| id == inner.span_id) {
                rec.stack.truncate(pos);
            }
            if let Some(prev) = inner.restore_trace {
                rec.trace_id = prev;
            }
            if inner.parent_id == 0 {
                rec.last_root_trace = inner.trace_id;
            }
            rec.ring().write(
                EventKind::Span,
                inner.cat,
                inner.name,
                inner.start_us,
                end.saturating_sub(inner.start_us),
                inner.trace_id,
                inner.span_id,
                inner.parent_id,
                inner.arg,
            );
        });
    }
}

fn open_span(cat: Category, name: &'static str, arg: u64, child_of: Option<TraceCtx>) -> Span {
    let start_us = now_us();
    REC.with(|rec| {
        let mut rec = rec.borrow_mut();
        let span_id = rec.fresh_span_id();
        let (trace_id, parent_id, restore_trace) = match child_of {
            Some(ctx) => {
                let prev = rec.trace_id;
                rec.trace_id = ctx.trace_id;
                (ctx.trace_id, ctx.span_id, Some(prev))
            }
            None => match rec.stack.last() {
                Some(&parent) => (rec.trace_id, parent, None),
                None => {
                    // A new root starts a new trace named after itself.
                    rec.trace_id = span_id;
                    (span_id, 0, None)
                }
            },
        };
        rec.stack.push(span_id);
        Span {
            inner: Some(SpanInner {
                cat,
                name,
                start_us,
                trace_id,
                span_id,
                parent_id,
                arg,
                restore_trace,
            }),
            _not_send: PhantomData,
        }
    })
}

/// Open a span; ends (and records) when the guard drops.
#[inline]
pub fn span(cat: Category, name: &'static str) -> Span {
    if !enabled() {
        return Span::DISABLED;
    }
    open_span(cat, name, 0, None)
}

/// [`span`] with a `u64` payload (bytes, reason code, op code, ...).
#[inline]
pub fn span_arg(cat: Category, name: &'static str, arg: u64) -> Span {
    if !enabled() {
        return Span::DISABLED;
    }
    open_span(cat, name, arg, None)
}

/// Open a span as the child of a remote/foreign context (captured by
/// [`current_ctx`] on another thread or node and propagated, e.g. through
/// the memnode wire header). Nested spans opened while this guard lives
/// join the parent's trace.
#[inline]
pub fn span_child_of(cat: Category, name: &'static str, ctx: TraceCtx) -> Span {
    if !enabled() {
        return Span::DISABLED;
    }
    open_span(cat, name, 0, Some(ctx))
}

/// Trace id of the most recently completed root span on this thread
/// (0 when tracing is off or no root has closed yet). Exemplar capture
/// reads this right after a timed op returns.
pub fn last_trace_id() -> u64 {
    REC.with(|rec| rec.borrow().last_root_trace)
}

/// Record a point-in-time marker under the current span (if any).
#[inline]
pub fn instant(cat: Category, name: &'static str, arg: u64) {
    if !enabled() {
        return;
    }
    let ts = now_us();
    REC.with(|rec| {
        let mut rec = rec.borrow_mut();
        let span_id = rec.fresh_span_id();
        let parent_id = rec.stack.last().copied().unwrap_or(0);
        let trace_id = if parent_id == 0 { span_id } else { rec.trace_id };
        rec.ring().write(EventKind::Instant, cat, name, ts, 0, trace_id, span_id, parent_id, arg);
    });
}

/// The current thread's innermost open span as a propagatable context
/// (`None` when tracing is off or no span is open). Ship it across the
/// RPC boundary and open the server side with [`span_child_of`].
pub fn current_ctx() -> Option<TraceCtx> {
    if !enabled() {
        return None;
    }
    REC.with(|rec| {
        let rec = rec.borrow();
        rec.stack.last().map(|&span_id| TraceCtx { trace_id: rec.trace_id, span_id })
    })
}

// ---------------------------------------------------------------------------
// Collection & export
// ---------------------------------------------------------------------------

/// Drain every thread ring into a flat event list, oldest first. Threads
/// may keep recording concurrently; slots mid-write are skipped (bounded
/// loss, never a torn read).
pub fn collect_events() -> Vec<Event> {
    let rings = registry().clone();
    let mut out = Vec::new();
    for ring in rings {
        for idx in 0..RING_CAP {
            if let Some(e) = ring.read(idx) {
                out.push(e);
            }
        }
    }
    out.sort_by_key(|e| (e.ts_us, e.span_id));
    out
}

/// Zero every ring (drops all recorded events; head counters keep
/// running). Meant for tests that need isolation from earlier activity in
/// the same process; concurrent writers may immediately refill slots.
pub fn clear() {
    let rings = registry().clone();
    for ring in rings {
        for slot in ring.slots.iter() {
            slot.clear();
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render events as Chrome trace-event JSON (the `traceEvents` array
/// format): open the file in [Perfetto](https://ui.perfetto.dev) or
/// `chrome://tracing`. Spans become matched `B`/`E` pairs, instants `i`;
/// each logical node is a Perfetto "process" (named via `M` metadata),
/// each thread a track. Timestamps are clamped so children sit strictly
/// inside their parents and every per-thread stream is monotone — what
/// `artifact_check trace` asserts in CI.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    // Process / thread metadata.
    let mut nodes: Vec<(u64, &'static str)> = Vec::new();
    let mut threads: Vec<(u64, u64)> = Vec::new();
    for e in events {
        if !nodes.iter().any(|&(id, _)| id == e.node_id) {
            nodes.push((e.node_id, e.node_label));
        }
        if !threads.iter().any(|&(p, t)| p == e.node_id && t == e.tid) {
            threads.push((e.node_id, e.tid));
        }
    }
    nodes.sort_by_key(|&(id, _)| id);
    threads.sort();
    for (pid, label) in &nodes {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(label)
            ),
            &mut first,
        );
    }
    for (pid, tid) in &threads {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"thread-{tid}\"}}}}"
            ),
            &mut first,
        );
    }

    // Per (pid, tid): rebuild the span tree and emit nested B/E pairs.
    for &(pid, tid) in &threads {
        let mut by_id: HashMap<u64, &Event> = HashMap::new();
        let mut children: HashMap<u64, Vec<&Event>> = HashMap::new();
        let mut thread_events: Vec<&Event> =
            events.iter().filter(|e| e.node_id == pid && e.tid == tid).collect();
        thread_events.sort_by_key(|e| (e.ts_us, e.span_id));
        for e in &thread_events {
            if e.kind == EventKind::Span {
                by_id.insert(e.span_id, e);
            }
        }
        let mut roots: Vec<&Event> = Vec::new();
        for e in &thread_events {
            // A parent recorded on another thread — or already overwritten
            // in the ring — can't enclose us in this track; treat as root.
            if e.parent_id != 0 && by_id.contains_key(&e.parent_id) {
                children.entry(e.parent_id).or_default().push(e);
            } else {
                roots.push(e);
            }
        }
        let mut cursor = 0u64;
        for root in roots {
            emit_subtree(&mut out, &mut first, &mut push, root, &children, &mut cursor, u64::MAX);
        }
    }
    out.push_str("\n]}\n");
    out
}

type PushFn = dyn FnMut(&mut String, String, &mut bool);

/// Emit one span (or instant) and its children as Chrome events, clamping
/// timestamps into `[*cursor, hi]` so the per-thread stream stays monotone
/// and properly nested even when microsecond rounding makes a child start
/// "before" its parent.
fn emit_subtree(
    out: &mut String,
    first: &mut bool,
    push: &mut PushFn,
    e: &Event,
    children: &HashMap<u64, Vec<&Event>>,
    cursor: &mut u64,
    hi: u64,
) {
    let begin = e.ts_us.clamp(*cursor, hi);
    let common = format!(
        "\"pid\":{},\"tid\":{},\"cat\":\"{}\",\"name\":\"{}\"",
        e.node_id,
        e.tid,
        e.cat.name(),
        json_escape(e.name)
    );
    let args = format!(
        "\"args\":{{\"trace_id\":\"{:#x}\",\"span_id\":\"{:#x}\",\"parent_id\":\"{:#x}\",\"arg\":{}}}",
        e.trace_id, e.span_id, e.parent_id, e.arg
    );
    if e.kind == EventKind::Instant {
        push(out, format!("{{\"ph\":\"i\",\"ts\":{begin},\"s\":\"t\",{common},{args}}}"), first);
        *cursor = begin;
        return;
    }
    let end = e.end_us().clamp(begin, hi);
    push(out, format!("{{\"ph\":\"B\",\"ts\":{begin},{common},{args}}}"), first);
    *cursor = begin;
    if let Some(kids) = children.get(&e.span_id) {
        for kid in kids {
            emit_subtree(out, first, push, kid, children, cursor, end);
        }
    }
    let end = end.max(*cursor);
    push(out, format!("{{\"ph\":\"E\",\"ts\":{end},{common}}}"), first);
    *cursor = end;
}

/// Keep only the events of the `n` traces with the slowest root spans —
/// the flight-recorder cut `db_bench --trace` dumps alongside the full
/// ring contents.
pub fn slowest_traces(events: &[Event], n: usize) -> Vec<Event> {
    let mut root_dur: HashMap<u64, u64> = HashMap::new();
    for e in events {
        if e.kind == EventKind::Span && e.parent_id == 0 {
            let d = root_dur.entry(e.trace_id).or_insert(0);
            *d = (*d).max(e.dur_us);
        }
    }
    let mut ranked: Vec<(u64, u64)> = root_dur.into_iter().collect();
    ranked.sort_by_key(|&(trace, dur)| (std::cmp::Reverse(dur), trace));
    ranked.truncate(n);
    let keep: Vec<u64> = ranked.into_iter().map(|(trace, _)| trace).collect();
    events.iter().filter(|e| keep.contains(&e.trace_id)).cloned().collect()
}

/// Plain-text "doctor" report: where did the time go, and in particular,
/// what caused the write stalls (immutable-queue backpressure vs. the L0
/// stop-writes limit vs. RPC retries).
pub fn doctor(events: &[Event]) -> String {
    let mut stall_imm = (0u64, 0u64); // (count, µs)
    let mut stall_l0 = (0u64, 0u64);
    let mut stall_other = (0u64, 0u64);
    let mut retries = 0u64;
    let mut cat_us: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Span => {
                let slot = cat_us.entry(e.cat.name()).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += e.dur_us;
                if e.cat == Category::Stall {
                    let bucket = match e.arg {
                        STALL_IMM_QUEUE => &mut stall_imm,
                        STALL_L0_LIMIT => &mut stall_l0,
                        _ => &mut stall_other,
                    };
                    bucket.0 += 1;
                    bucket.1 += e.dur_us;
                }
            }
            EventKind::Instant => {
                if e.name == "rpc_retry" {
                    retries += 1;
                }
            }
        }
    }
    let stall_total = stall_imm.1 + stall_l0.1 + stall_other.1;
    let pct = |us: u64| {
        if stall_total == 0 {
            0.0
        } else {
            100.0 * us as f64 / stall_total as f64
        }
    };
    let mut out = String::new();
    out.push_str("== dlsm-trace doctor ==\n");
    out.push_str(&format!("events collected: {}\n", events.len()));
    out.push_str("\nstall attribution:\n");
    out.push_str(&format!(
        "  immutable queue full : {:>6} stalls, {:>10} us ({:.1}%)\n",
        stall_imm.0,
        stall_imm.1,
        pct(stall_imm.1)
    ));
    out.push_str(&format!(
        "  L0 stop-writes limit : {:>6} stalls, {:>10} us ({:.1}%)\n",
        stall_l0.0,
        stall_l0.1,
        pct(stall_l0.1)
    ));
    if stall_other.0 > 0 {
        out.push_str(&format!(
            "  other                : {:>6} stalls, {:>10} us ({:.1}%)\n",
            stall_other.0,
            stall_other.1,
            pct(stall_other.1)
        ));
    }
    out.push_str(&format!("  total                : {:>10} us\n", stall_total));
    out.push_str(&format!("\nrpc retries: {retries}\n"));
    out.push_str("\ntime by category (spans, wall-µs, incl. nesting):\n");
    let mut cats: Vec<(&'static str, (u64, u64))> = cat_us.into_iter().collect();
    cats.sort_by_key(|&(_, (_, us))| std::cmp::Reverse(us));
    for (name, (count, us)) in cats {
        out.push_str(&format!("  {name:<8} {count:>8} spans {us:>12} us\n"));
    }
    out
}

/// Collect every ring and write a Perfetto-loadable dump to `path`
/// (parent directories are created).
pub fn dump_to_file(path: &str) -> std::io::Result<()> {
    let events = collect_events();
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, chrome_trace(&events))
}

/// Flight-recorder guard for tests: if the thread unwinds (an oracle
/// failed) while this guard is alive, the rings are dumped to `path` so
/// the red run ships its own trace. A clean drop writes nothing.
pub struct PanicDump {
    path: String,
}

impl PanicDump {
    /// Arm a dump-on-panic for `path`.
    pub fn new(path: impl Into<String>) -> PanicDump {
        PanicDump { path: path.into() }
    }
}

impl Drop for PanicDump {
    fn drop(&mut self) {
        if std::thread::panicking() {
            match dump_to_file(&self.path) {
                Ok(()) => eprintln!("dlsm-trace: panic detected, trace dumped to {}", self.path),
                Err(e) => eprintln!("dlsm-trace: failed to dump trace to {}: {e}", self.path),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ENABLED switch and the ring registry are process-global;
    /// tests that flip them serialize on this.
    pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = test_lock();
        set_enabled(false);
        clear();
        {
            let _s = span(Category::Db, "ghost");
            instant(Category::Db, "ghost_marker", 7);
        }
        assert!(current_ctx().is_none());
        assert!(!collect_events().iter().any(|e| e.name.starts_with("ghost")));
    }

    #[test]
    fn nesting_and_trace_identity() {
        let _g = test_lock();
        set_enabled(true);
        clear();
        {
            let _root = span(Category::Db, "t_root");
            let ctx = current_ctx().expect("root open");
            {
                let _child = span_arg(Category::Flush, "t_child", 42);
                instant(Category::Rpc, "t_marker", 9);
                let inner = current_ctx().expect("child open");
                assert_eq!(inner.trace_id, ctx.trace_id);
                assert_ne!(inner.span_id, ctx.span_id);
            }
        }
        set_enabled(false);
        let events = collect_events();
        let root = events.iter().find(|e| e.name == "t_root").expect("root recorded");
        let child = events.iter().find(|e| e.name == "t_child").expect("child recorded");
        let marker = events.iter().find(|e| e.name == "t_marker").expect("marker recorded");
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.trace_id, root.span_id);
        assert_eq!(child.parent_id, root.span_id);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.arg, 42);
        assert_eq!(marker.kind, EventKind::Instant);
        assert_eq!(marker.parent_id, child.span_id);
        // Parent encloses child (µs resolution).
        assert!(root.ts_us <= child.ts_us);
        assert!(root.end_us() >= child.end_us());
    }

    #[test]
    fn child_of_joins_foreign_trace_and_restores() {
        let _g = test_lock();
        set_enabled(true);
        clear();
        let foreign = TraceCtx { trace_id: 0xABCD, span_id: 0x1234 };
        {
            let _local = span(Category::Db, "t_local_root");
            let local_ctx = current_ctx().unwrap();
            {
                let _remote = span_child_of(Category::Server, "t_remote_child", foreign);
                let inner = current_ctx().unwrap();
                assert_eq!(inner.trace_id, foreign.trace_id);
            }
            // Trace id restored after the foreign child closed.
            assert_eq!(current_ctx().unwrap().trace_id, local_ctx.trace_id);
        }
        set_enabled(false);
        let events = collect_events();
        let remote = events.iter().find(|e| e.name == "t_remote_child").unwrap();
        assert_eq!(remote.trace_id, 0xABCD);
        assert_eq!(remote.parent_id, 0x1234);
    }

    #[test]
    fn ring_overwrites_oldest_and_stays_bounded() {
        let _g = test_lock();
        set_enabled(true);
        clear();
        for i in 0..(RING_CAP as u64 + 100) {
            instant(Category::Db, "t_flood", i);
        }
        set_enabled(false);
        let mine: Vec<u64> = collect_events()
            .into_iter()
            .filter(|e| e.name == "t_flood")
            .map(|e| e.arg)
            .collect();
        assert!(mine.len() <= RING_CAP);
        // The newest event always survives; the oldest 100 were overwritten.
        assert!(mine.contains(&(RING_CAP as u64 + 99)));
        assert!(!mine.contains(&0));
    }

    #[test]
    fn chrome_trace_emits_matched_pairs_and_metadata() {
        let _g = test_lock();
        set_enabled(true);
        clear();
        {
            let _a = span(Category::Db, "t_export_root");
            let _b = span(Category::Rdma, "t_export_leaf");
        }
        set_enabled(false);
        let events: Vec<Event> = collect_events()
            .into_iter()
            .filter(|e| e.name.starts_with("t_export"))
            .collect();
        let json = chrome_trace(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        // B of the leaf sits between B and E of the root.
        let root_b = json.find("\"ph\":\"B\",\"ts\"").unwrap();
        assert!(json[root_b..].contains("t_export_root") || json.contains("t_export_root"));
    }

    #[test]
    fn doctor_attributes_stalls() {
        let _g = test_lock();
        set_enabled(true);
        clear();
        {
            let _s = span_arg(Category::Stall, "write_stall", STALL_IMM_QUEUE);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _s = span_arg(Category::Stall, "write_stall", STALL_L0_LIMIT);
        }
        instant(Category::Rpc, "rpc_retry", 0);
        set_enabled(false);
        let report = doctor(&collect_events());
        assert!(report.contains("immutable queue full"), "{report}");
        assert!(report.contains("L0 stop-writes limit"), "{report}");
        assert!(report.contains("rpc retries: 1") || report.contains("rpc retries:"), "{report}");
        let imm_line = report.lines().find(|l| l.contains("immutable queue full")).unwrap();
        assert!(imm_line.contains("1 stalls"), "{imm_line}");
    }

    #[test]
    fn slowest_traces_picks_longest_roots() {
        let mk = |trace: u64, dur: u64| Event {
            node_id: 0,
            node_label: "compute",
            tid: 1,
            kind: EventKind::Span,
            cat: Category::Db,
            name: "t_op",
            ts_us: trace * 10,
            dur_us: dur,
            trace_id: trace,
            span_id: trace,
            parent_id: 0,
            arg: 0,
        };
        let events = vec![mk(1, 5), mk(2, 100), mk(3, 50), mk(4, 1)];
        let kept = slowest_traces(&events, 2);
        let traces: Vec<u64> = kept.iter().map(|e| e.trace_id).collect();
        assert!(traces.contains(&2) && traces.contains(&3));
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn tracing_off_thread_registers_nothing() {
        let _g = test_lock();
        set_enabled(false);
        let rings = registry().len();
        // A fresh thread has no ring yet: with tracing off, no probe may
        // give it one.
        std::thread::spawn(|| {
            let _outer = span(Category::Db, "t_off_outer");
            {
                let _inner = span_arg(Category::Rdma, "t_off_inner", 7);
                instant(Category::Rpc, "t_off_marker", 9);
                assert!(current_ctx().is_none());
            }
        })
        .join()
        .unwrap();
        assert_eq!(registry().len(), rings, "a tracing-off thread registered a ring");
        assert!(!collect_events().iter().any(|e| e.name.starts_with("t_off")));
    }

    #[test]
    fn last_trace_id_points_at_completed_root() {
        let _g = test_lock();
        set_enabled(true);
        clear();
        let expected;
        {
            let _root = span(Category::Db, "t_exemplar_root");
            expected = current_ctx().unwrap().trace_id;
            let _child = span(Category::Rdma, "t_exemplar_leaf");
        }
        assert_eq!(last_trace_id(), expected);
        set_enabled(false);
    }

    #[test]
    fn panic_dump_writes_trace_on_unwind() {
        let _g = test_lock();
        clear();
        set_enabled(true);
        let path = std::env::temp_dir()
            .join(format!("dlsm_trace_panic_{}.json", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let result = std::panic::catch_unwind({
            let path_str = path_str.clone();
            move || {
                let _dump = PanicDump::new(path_str);
                let _sp = span(Category::Db, "doomed_op");
                panic!("oracle failed");
            }
        });
        assert!(result.is_err());
        set_enabled(false);
        let text = std::fs::read_to_string(&path).expect("dump written on unwind");
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("doomed_op"), "open span recorded during unwind");
        std::fs::remove_file(&path).ok();
        clear();
    }
}
