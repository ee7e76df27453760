//! Wire-format robustness: decoders must never panic on arbitrary bytes,
//! every encodable message round-trips, reply frames reject truncation and
//! detect duplication (stale request ids), and the server's dedup window
//! never lets a request execute twice.

use dlsm_memnode::wire::{BufDesc, ReplyFrame, Request};
use dlsm_memnode::{
    CachedReply, CompactArgs, CompactReply, DedupDecision, DedupMap, InputTable, OutputTable,
    TableFormat,
};
use proptest::prelude::*;

fn desc_strategy() -> impl Strategy<Value = BufDesc> {
    (any::<u32>(), any::<u64>(), any::<u32>(), any::<u32>())
        .prop_map(|(mr, offset, rkey, len)| BufDesc { mr, offset, rkey, len })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic any decoder (they may error).
    #[test]
    fn decoders_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::decode(&bytes);
        let _ = CompactArgs::decode(&bytes);
        let _ = CompactReply::decode(&bytes);
    }

    /// Every request round-trips, with and without a trace context, and
    /// the context only sets the flag and adds its sixteen bytes.
    #[test]
    fn request_roundtrip(
        ctx in prop::option::of((any::<u64>(), any::<u64>())),
        reply in desc_strategy(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        offset in any::<u64>(),
        len in any::<u32>(),
        unique_id in any::<u32>(),
        args in desc_strategy(),
        extents in prop::collection::vec((any::<u64>(), any::<u64>()), 0..16),
        req_id in any::<u64>(),
        target in any::<u64>(),
    ) {
        let cases = vec![
            Request::Ping { reply, payload: payload.clone() },
            Request::FreeBatch { reply, extents },
            Request::Compact { reply, unique_id, args },
            Request::ReadFile { reply, offset, len },
            Request::WriteFile { reply, offset, data: payload },
            Request::CancelCompact { reply, target },
        ];
        let ctx = ctx.map(|(trace_id, span_id)| dlsm_trace::TraceCtx { trace_id, span_id });
        for r in cases {
            let frame = r.encode(req_id, ctx);
            if ctx.is_some() {
                let plain = r.encode(req_id, None);
                prop_assert_eq!(frame[0], plain[0] | dlsm_memnode::wire::TRACE_FLAG);
                prop_assert_eq!(frame.len(), plain.len() + 16);
            }
            prop_assert_eq!(Request::decode(&frame).unwrap(), (req_id, ctx, r));
        }
    }

    /// Reply frames round-trip; any truncation is rejected rather than
    /// yielding a short payload; a duplicated (stale) frame is detectable
    /// by its request id alone.
    #[test]
    fn reply_frame_truncation_and_duplication(
        req_id in any::<u64>(),
        stale_id in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
        cut in any::<prop::sample::Index>(),
    ) {
        let frame = ReplyFrame::encode(req_id, &payload);
        let (got_id, got) = ReplyFrame::decode(&frame).unwrap();
        prop_assert_eq!(got_id, req_id);
        prop_assert_eq!(got, &payload[..]);

        // Every strict prefix fails to decode (no silent short reads).
        let cut = cut.index(frame.len());
        prop_assert!(ReplyFrame::decode(&frame[..cut]).is_err());

        // A frame left over from an earlier request is identified by id:
        // this is exactly the check the client uses to discard duplicated
        // or stale reply deliveries after a retry.
        let old = ReplyFrame::encode(stale_id, &payload);
        let (old_id, _) = ReplyFrame::decode(&old).unwrap();
        prop_assert_eq!(old_id == req_id, stale_id == req_id);
    }

    /// Every reply body fits the buffer it answers into: a payload within
    /// the room goes as is, anything longer as an error status, and either
    /// reads back whole from the buffer's front.
    #[test]
    fn reply_bodies_always_fit(
        req_id in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
        len in 0u32..320,
    ) {
        let fits = payload.len() <= ReplyFrame::room(len);
        let (ok, body) = ReplyFrame::body(Ok(payload.clone()), len);
        prop_assert_eq!(ok, fits);
        prop_assert!(body.len() <= 1 + ReplyFrame::room(len));
        match ReplyFrame::payload(&body) {
            Ok(got) => prop_assert!(fits && got == &payload[..]),
            Err(e) => prop_assert!(!fits && matches!(e, dlsm_memnode::MemNodeError::RemoteError(_))),
        }
        let mut buf = vec![0u8; len as usize];
        let frame = ReplyFrame::encode(req_id, &body);
        if frame.len() <= buf.len() {
            buf[..frame.len()].copy_from_slice(&frame);
            let read = ReplyFrame::read(len, |off, dst| {
                dst.copy_from_slice(&buf[off as usize..off as usize + dst.len()]);
                Ok(())
            });
            prop_assert_eq!(read.unwrap(), frame);
        }
    }

    /// Under an arbitrary interleaving of request arrivals (including
    /// duplicates), cancels, and completions, the dedup window never tells
    /// the server to execute the same request id twice unless the first
    /// execution was aborted (failed), and canceled work is never replayed.
    #[test]
    fn dedup_window_is_at_most_once(
        script in prop::collection::vec((0u8..4, 0u64..24), 1..200),
    ) {
        let map = DedupMap::new(1024);
        let fabric = rdma_sim::Fabric::new(rdma_sim::NetworkProfile::instant());
        let client = fabric.add_node().id();
        // Per id: (executions since last abort, ever completed, ever canceled)
        let mut running: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut done: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut canceled: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (action, id) in script {
            match action {
                0 => match map.begin(client, id) {
                    DedupDecision::Execute => {
                        prop_assert!(!running.contains(&id), "double execution of in-flight id");
                        prop_assert!(!done.contains(&id), "re-execution of completed id");
                        prop_assert!(!canceled.contains(&id), "execution of canceled id");
                        running.insert(id);
                    }
                    DedupDecision::InFlight => {
                        prop_assert!(running.contains(&id) || canceled.contains(&id));
                    }
                    DedupDecision::Replay(_) => {
                        prop_assert!(done.contains(&id), "replay of never-completed id");
                    }
                },
                1 => {
                    if running.remove(&id) {
                        let cached = CachedReply { body: vec![0, id as u8], extents: vec![] };
                        if map.complete(client, id, cached) {
                            done.insert(id);
                        } else {
                            prop_assert!(canceled.contains(&id));
                        }
                    }
                }
                2 => {
                    if running.remove(&id) {
                        map.abort(client, id); // failed: retries may re-execute
                    }
                }
                _ => {
                    map.cancel(client, id);
                    canceled.insert(id);
                    done.remove(&id);
                    running.remove(&id);
                }
            }
        }
    }

    #[test]
    fn compact_args_roundtrip(
        block in prop::option::of(any::<u32>()),
        snapshot in 0u64..(1 << 56),
        drop_deletions in any::<bool>(),
        max_out in any::<u64>(),
        bits in any::<u32>(),
        lo in prop::collection::vec(any::<u8>(), 0..24),
        hi in prop::collection::vec(any::<u8>(), 0..24),
        inputs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..32),
    ) {
        let args = CompactArgs {
            format: match block {
                Some(b) => TableFormat::Block(b),
                None => TableFormat::ByteAddr,
            },
            smallest_snapshot: snapshot,
            drop_deletions,
            max_output_bytes: max_out,
            bits_per_key: bits,
            range_lo: lo,
            range_hi: hi,
            inputs: inputs.into_iter().map(|(offset, len)| InputTable { offset, len }).collect(),
        };
        prop_assert_eq!(CompactArgs::decode(&args.encode()).unwrap(), args);
    }

    #[test]
    fn compact_reply_roundtrip(
        outputs in prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..64)),
            0..16,
        ),
        records_in in any::<u64>(),
        records_out in any::<u64>(),
        steps in prop::collection::vec(any::<u8>(), 0..300),
        cut in any::<prop::sample::Index>(),
    ) {
        let reply = CompactReply {
            outputs: outputs
                .into_iter()
                .map(|(offset, len, records, meta)| OutputTable { offset, len, records, meta })
                .collect(),
            records_in,
            records_out,
            steps,
        };
        let enc = reply.encode();
        prop_assert_eq!(reply.frame_len(), dlsm_memnode::ReplyFrame::HEADER + 1 + enc.len());
        // Any proper prefix is an error, never a shorter reply or a panic.
        prop_assert!(CompactReply::decode(&enc[..cut.index(enc.len())]).is_err());
        prop_assert_eq!(CompactReply::decode(&enc).unwrap(), reply);
    }

    /// The allocator never hands out overlapping extents and coalesces back
    /// to a single free extent under arbitrary alloc/free interleavings.
    #[test]
    fn allocator_invariants(script in prop::collection::vec((any::<bool>(), 1u64..2048), 1..200)) {
        use dlsm_memnode::RegionAllocator;
        let a = RegionAllocator::new(64, 1 << 20);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (is_alloc, size) in script {
            if is_alloc || live.is_empty() {
                if let Some(off) = a.alloc(size) {
                    for &(o, s) in &live {
                        let s8 = s.next_multiple_of(8);
                        let size8 = size.next_multiple_of(8);
                        prop_assert!(off + size8 <= o || o + s8 <= off, "overlap");
                    }
                    prop_assert!(off >= 64 && off + size <= 64 + (1 << 20));
                    live.push((off, size));
                }
            } else {
                let (off, size) = live.swap_remove(0);
                a.free(off, size);
            }
        }
        for (off, size) in live.drain(..) {
            a.free(off, size);
        }
        prop_assert_eq!(a.in_use(), 0);
        prop_assert_eq!(a.fragments(), 1);
    }
}
