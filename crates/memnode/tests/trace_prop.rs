//! Structural properties of concurrent tracing (DESIGN.md §8a): spans
//! recorded by parallel writer threads always end at or after they start,
//! a parent span strictly encloses its children on the same thread, and a
//! cross-node child created from a wire-header round-tripped [`TraceCtx`]
//! joins the originating trace and names a real parent span.
//!
//! Lives in the memnode crate (not `dlsm-trace`) so the context can take
//! the production path through `Request::encode_with_ctx` /
//! `decode_with_ctx` without a dev-dependency cycle.

use std::sync::{Barrier, Mutex, OnceLock};

use dlsm_memnode::wire::{BufDesc, Request};
use dlsm_trace::{Category, Event, EventKind};
use proptest::prelude::*;

/// Tracing state (enable flag, ring registry) is process-global, so test
/// cases must not interleave with each other.
fn test_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Ship `ctx` through a real wire frame, exactly as an RPC client would,
/// and hand back what the server dispatcher decodes.
fn roundtrip_ctx(ctx: dlsm_trace::TraceCtx) -> dlsm_trace::TraceCtx {
    let reply = BufDesc { mr: 1, offset: 0, rkey: 7, len: 64 };
    let req = Request::Ping { reply, payload: vec![0xAB; 3] };
    let frame = req.encode_with_ctx(42, Some(ctx));
    let (req_id, decoded, back) = Request::decode_with_ctx(&frame).expect("valid frame");
    assert_eq!(req_id, 42);
    assert_eq!(back, req);
    decoded.expect("ctx survives the header")
}

/// One writer thread: nested spans `depth` deep, with a busy loop inside
/// so parent/child timestamps are distinguishable at µs resolution.
fn run_writer(depth: usize, spins: u32) {
    fn nest(depth: usize, spins: u32) {
        if depth == 0 {
            for _ in 0..spins {
                std::hint::black_box(0u64);
            }
            return;
        }
        let _sp = dlsm_trace::span(Category::Db, "prop_span");
        nest(depth - 1, spins);
    }
    nest(depth, spins);
}

fn parent_of(events: &[Event], child: &Event) -> Option<Event> {
    events.iter().find(|e| e.span_id == child.parent_id).cloned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn concurrent_spans_are_well_formed(
        depths in prop::collection::vec(1usize..6, 2..4),
        spins in 0u32..2_000,
    ) {
        let _g = test_lock().lock().unwrap_or_else(|e| e.into_inner());
        dlsm_trace::clear();
        dlsm_trace::set_level(dlsm_trace::Level::All);

        // Writers record concurrently; the last thread plays "memnode":
        // it receives the first writer's root context through the wire
        // header and records a child span under a different node id.
        let barrier = Barrier::new(depths.len() + 1);
        let (ctx_tx, ctx_rx) = std::sync::mpsc::channel::<dlsm_trace::TraceCtx>();
        std::thread::scope(|scope| {
            for (i, &depth) in depths.iter().enumerate() {
                let barrier = &barrier;
                let ctx_tx = ctx_tx.clone();
                scope.spawn(move || {
                    barrier.wait();
                    let root = dlsm_trace::span(Category::Rpc, "prop_root");
                    if i == 0 {
                        let ctx = dlsm_trace::current_ctx().expect("inside a span");
                        ctx_tx.send(roundtrip_ctx(ctx)).unwrap();
                    }
                    run_writer(depth, spins);
                    drop(root);
                });
            }
            let barrier = &barrier;
            scope.spawn(move || {
                dlsm_trace::set_thread_node(2, "memnode");
                barrier.wait();
                let ctx = ctx_rx.recv().expect("client ctx");
                let _sp = dlsm_trace::span_child_of(Category::Server, "prop_dispatch", ctx);
            });
        });
        dlsm_trace::set_level(dlsm_trace::Level::Off);
        let events = dlsm_trace::collect_events();

        let spans: Vec<&Event> =
            events.iter().filter(|e| e.kind == EventKind::Span).collect();
        // Every writer produced its root plus `depth` nested spans, and the
        // server thread produced one — nothing may be lost below RING_CAP.
        let expected: usize = depths.iter().map(|d| d + 1).sum::<usize>() + 1;
        prop_assert_eq!(spans.len(), expected);

        for s in &spans {
            // End never precedes start.
            prop_assert!(s.end_us() >= s.ts_us);
            if s.parent_id == 0 {
                continue;
            }
            let parent = parent_of(&events, s);
            prop_assert!(parent.is_some(), "dangling parent_id {}", s.parent_id);
            let parent = parent.unwrap();
            prop_assert_eq!(parent.trace_id, s.trace_id);
            if parent.tid == s.tid {
                // Same-thread nesting: the parent encloses the child.
                prop_assert!(parent.ts_us <= s.ts_us);
                prop_assert!(s.end_us() <= parent.end_us());
            }
        }

        // The cross-node child joined the first writer's trace through the
        // wire header and points at its live root span.
        let dispatch = spans
            .iter()
            .find(|e| e.name == "prop_dispatch")
            .expect("server span recorded");
        prop_assert_eq!(dispatch.node_id, 2);
        let root = parent_of(&events, dispatch).expect("parent root span exists");
        prop_assert_eq!(root.name, "prop_root");
        prop_assert_eq!(root.node_id, 0); // compute side
        prop_assert_eq!(dispatch.trace_id, root.trace_id);
    }
}
