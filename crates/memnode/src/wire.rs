//! RPC wire formats (hand-rolled little-endian).
//!
//! Every request is a two-sided SEND whose payload starts with an opcode, a
//! **request id**, and the requester's **reply-buffer descriptor**
//! `(mr, offset, rkey, len)`; the responder answers with a one-sided WRITE
//! into that buffer, bypassing any dispatcher on the requester side (paper
//! Sec. X-D1). The compaction request additionally carries a unique id (the
//! wake-up immediate) and an **argument-buffer descriptor** that the
//! responder pulls with an RDMA read, keeping the SEND itself small
//! (Sec. X-D2).
//!
//! Request ids make the protocol safe to retry over a lossy fabric: a
//! client re-issues a timed-out request under the *same* id, and the server
//! deduplicates — non-idempotent ops (extent frees, compactions) execute at
//! most once, with the cached reply replayed for duplicates. Replies echo
//! the id in their frame ([`ReplyFrame`]) so a poller can tell a late,
//! stale reply from the one it is waiting for.

use dlsm_sstable::coding::{get_u32, get_u64, put_u32, put_u64};
use dlsm_sstable::key::SeqNo;
use dlsm_trace::TraceCtx;

use crate::{MemNodeError, Result};

/// Header version flag on the opcode byte: when set, sixteen extra bytes
/// — `[trace_id u64][span_id u64]` — follow the request id, carrying the
/// sender's tracing context so memory-node work appears as a child of the
/// compute-node span that caused it. Frames without the flag are the v1
/// format and decode unchanged (back-compat).
pub const TRACE_FLAG: u8 = 0x80;

/// RPC opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Echo the payload (liveness/latency probe).
    Ping = 1,
    /// Free a batch of extents in the memory node's compaction zone.
    FreeBatch = 2,
    /// Near-data compaction (customized RPC).
    Compact = 3,
    /// Two-sided read of region bytes (the Nova-LSM-style tmpfs path).
    ReadFile = 4,
    /// Two-sided write of region bytes (tmpfs path).
    WriteFile = 5,
    /// Abandon a compaction by its request id, freeing any outputs it
    /// produced (or will produce) on the memory node.
    CancelCompact = 6,
}

impl Op {
    /// Parse an opcode byte.
    pub fn from_u8(b: u8) -> Option<Op> {
        match b {
            1 => Some(Op::Ping),
            2 => Some(Op::FreeBatch),
            3 => Some(Op::Compact),
            4 => Some(Op::ReadFile),
            5 => Some(Op::WriteFile),
            6 => Some(Op::CancelCompact),
            _ => None,
        }
    }
}

/// Framing of every reply written one-sided into the requester's polling
/// buffer: `[payload len u32][req_id u64][payload]`, with the completion
/// flag word occupying the final 8 bytes of the buffer. The echoed request
/// id lets the poller reject frames left over from earlier, retried calls.
pub struct ReplyFrame;

impl ReplyFrame {
    /// Bytes before the payload.
    pub const HEADER: usize = 12;

    /// Frame `payload` for request `req_id`.
    pub fn encode(req_id: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER + payload.len());
        put_len32(&mut out, payload.len());
        put_u64(&mut out, req_id);
        out.extend_from_slice(payload);
        out
    }

    /// Parse a frame, returning `(req_id, payload)`.
    pub fn decode(buf: &[u8]) -> Result<(u64, &[u8])> {
        let len = get_u32(buf, 0).map_err(bad)? as usize;
        let req_id = get_u64(buf, 4).map_err(bad)?;
        let payload = buf
            .get(Self::HEADER..Self::HEADER + len)
            .ok_or_else(|| MemNodeError::BadMessage(format!("truncated reply frame ({len} byte payload)")))?;
        Ok((req_id, payload))
    }
}

/// A buffer descriptor `(mr, offset, rkey, len)` on some node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufDesc {
    /// Memory-region id on the owning node.
    pub mr: u32,
    /// Offset within the region.
    pub offset: u64,
    /// Remote-access key.
    pub rkey: u32,
    /// Buffer length in bytes.
    pub len: u32,
}

impl BufDesc {
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.mr);
        put_u64(out, self.offset);
        put_u32(out, self.rkey);
        put_u32(out, self.len);
    }

    pub(crate) fn decode(buf: &[u8], off: usize) -> Result<(BufDesc, usize)> {
        let mr = get_u32(buf, off).map_err(bad)?;
        let offset = get_u64(buf, off + 4).map_err(bad)?;
        let rkey = get_u32(buf, off + 12).map_err(bad)?;
        let len = get_u32(buf, off + 16).map_err(bad)?;
        Ok((BufDesc { mr, offset, rkey, len }, 20))
    }
}

fn bad(e: dlsm_sstable::SstError) -> MemNodeError {
    MemNodeError::BadMessage(e.to_string())
}

/// Encode a payload/collection length as the u32 the frame formats carry.
/// Panics instead of silently truncating: every length on the wire is
/// bounded far below 4 GiB (arena sizes, extent counts, key lengths), so an
/// overflow here is a logic bug, not an input condition.
fn put_len32(out: &mut Vec<u8>, len: usize) {
    // PANIC-SAFE: see above — a >4 GiB wire length is a logic bug; truncating
    // it silently would corrupt the frame for the peer.
    put_u32(out, u32::try_from(len).expect("wire length exceeds u32"));
}

/// Which table format a compaction reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableFormat {
    /// dLSM's byte-addressable format (Sec. VI).
    ByteAddr,
    /// Block-based format with the given block size (0 = one record per
    /// block) — used by the dLSM-Block ablation.
    Block(u32),
}

/// One input table for a compaction: its extent in the memory node's region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputTable {
    /// Offset of the table image in the region.
    pub offset: u64,
    /// Length of the table image.
    pub len: u64,
}

/// The (large) compaction argument, pulled by the responder via RDMA read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactArgs {
    /// Format of inputs and outputs.
    pub format: TableFormat,
    /// Snapshot horizon for version dropping.
    pub smallest_snapshot: SeqNo,
    /// True when compacting into the bottom-most level.
    pub drop_deletions: bool,
    /// Split outputs at roughly this many data bytes.
    pub max_output_bytes: u64,
    /// Bloom-filter budget for outputs.
    pub bits_per_key: u32,
    /// Inclusive lower user-key bound of this (sub-)compaction; empty =
    /// unbounded. Sub-compactions split one logical compaction into
    /// disjoint user-key ranges executed in parallel (paper Sec. V-A).
    pub range_lo: Vec<u8>,
    /// Exclusive upper user-key bound; empty = unbounded.
    pub range_hi: Vec<u8>,
    /// Input tables, already in merge order (L0 newest-first, then Ln+1).
    pub inputs: Vec<InputTable>,
}

impl CompactArgs {
    /// Serialize into the argument buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40 + self.inputs.len() * 16);
        let (fmt, bs) = match self.format {
            TableFormat::ByteAddr => (0u8, 0u32),
            TableFormat::Block(b) => (1u8, b),
        };
        out.push(fmt);
        put_u32(&mut out, bs);
        put_u64(&mut out, self.smallest_snapshot);
        out.push(u8::from(self.drop_deletions));
        put_u64(&mut out, self.max_output_bytes);
        put_u32(&mut out, self.bits_per_key);
        put_len32(&mut out, self.range_lo.len());
        out.extend_from_slice(&self.range_lo);
        put_len32(&mut out, self.range_hi.len());
        out.extend_from_slice(&self.range_hi);
        put_len32(&mut out, self.inputs.len());
        for t in &self.inputs {
            put_u64(&mut out, t.offset);
            put_u64(&mut out, t.len);
        }
        out
    }

    /// Parse an argument buffer.
    pub fn decode(buf: &[u8]) -> Result<CompactArgs> {
        let fmt_b = *buf.first().ok_or_else(|| MemNodeError::BadMessage("empty args".into()))?;
        let bs = get_u32(buf, 1).map_err(bad)?;
        let format = match fmt_b {
            0 => TableFormat::ByteAddr,
            1 => TableFormat::Block(bs),
            _ => return Err(MemNodeError::BadMessage(format!("bad format byte {fmt_b}"))),
        };
        let smallest_snapshot = get_u64(buf, 5).map_err(bad)?;
        let drop_deletions = buf
            .get(13)
            .copied()
            .ok_or_else(|| MemNodeError::BadMessage("truncated args".into()))?
            != 0;
        let max_output_bytes = get_u64(buf, 14).map_err(bad)?;
        let bits_per_key = get_u32(buf, 22).map_err(bad)?;
        let mut off = 26;
        let lo_len = get_u32(buf, off).map_err(bad)? as usize;
        off += 4;
        let range_lo = buf
            .get(off..off + lo_len)
            .ok_or_else(|| MemNodeError::BadMessage("truncated range_lo".into()))?
            .to_vec();
        off += lo_len;
        let hi_len = get_u32(buf, off).map_err(bad)? as usize;
        off += 4;
        let range_hi = buf
            .get(off..off + hi_len)
            .ok_or_else(|| MemNodeError::BadMessage("truncated range_hi".into()))?
            .to_vec();
        off += hi_len;
        let count = get_u32(buf, off).map_err(bad)? as usize;
        off += 4;
        // Never trust a wire count for pre-allocation.
        let mut inputs = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let offset = get_u64(buf, off).map_err(bad)?;
            let len = get_u64(buf, off + 8).map_err(bad)?;
            inputs.push(InputTable { offset, len });
            off += 16;
        }
        Ok(CompactArgs {
            format,
            smallest_snapshot,
            drop_deletions,
            max_output_bytes,
            bits_per_key,
            range_lo,
            range_hi,
            inputs,
        })
    }
}

/// One output table produced by a compaction.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputTable {
    /// Extent of the new table image in the memory node's compaction zone.
    pub offset: u64,
    /// Data-image length (byte-addressable) or full table length (block).
    pub len: u64,
    /// Records in the table.
    pub records: u64,
    /// Byte-addressable: the encoded bloom filter (the requester derives the
    /// index from [`CompactReply::steps`]). Block: the key bounds, smallest
    /// then largest, length-prefixed (the compute node opens those by reading
    /// footer/index/filter remotely).
    pub meta: Vec<u8>,
}

/// Reply to a compaction RPC.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactReply {
    /// New tables, in key order.
    pub outputs: Vec<OutputTable>,
    /// Total input records merged.
    pub records_in: u64,
    /// Records surviving into outputs.
    pub records_out: u64,
    /// Byte-addressable: how the merge went, one step per input record
    /// ([`dlsm_sstable::byte_addr::push_merge_step`]). Block: empty.
    pub steps: Vec<u8>,
}

impl CompactReply {
    /// Bytes the reply puts on the wire: frame header, status byte, body.
    pub fn frame_len(&self) -> usize {
        let tables: usize = self.outputs.iter().map(|t| 28 + t.meta.len()).sum();
        ReplyFrame::HEADER + 1 + 24 + self.steps.len() + tables
    }

    /// Serialize into the requester's reply buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.frame_len());
        put_u64(&mut out, self.records_in);
        put_u64(&mut out, self.records_out);
        put_len32(&mut out, self.steps.len());
        out.extend_from_slice(&self.steps);
        put_len32(&mut out, self.outputs.len());
        for t in &self.outputs {
            put_u64(&mut out, t.offset);
            put_u64(&mut out, t.len);
            put_u64(&mut out, t.records);
            put_len32(&mut out, t.meta.len());
            out.extend_from_slice(&t.meta);
        }
        out
    }

    /// Parse a reply buffer.
    pub fn decode(buf: &[u8]) -> Result<CompactReply> {
        let truncated = || MemNodeError::BadMessage("truncated compaction reply".into());
        let records_in = get_u64(buf, 0).map_err(bad)?;
        let records_out = get_u64(buf, 8).map_err(bad)?;
        let steps_len = get_u32(buf, 16).map_err(bad)? as usize;
        let steps = buf.get(20..20 + steps_len).ok_or_else(truncated)?.to_vec();
        let mut off = 20 + steps_len;
        let count = get_u32(buf, off).map_err(bad)? as usize;
        off += 4;
        // Never trust a wire count for pre-allocation.
        let mut outputs = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let offset = get_u64(buf, off).map_err(bad)?;
            let len = get_u64(buf, off + 8).map_err(bad)?;
            let records = get_u64(buf, off + 16).map_err(bad)?;
            let meta_len = get_u32(buf, off + 24).map_err(bad)? as usize;
            off += 28;
            let meta = buf.get(off..off + meta_len).ok_or_else(truncated)?.to_vec();
            off += meta_len;
            outputs.push(OutputTable { offset, len, records, meta });
        }
        Ok(CompactReply { outputs, records_in, records_out, steps })
    }
}

/// Requests as parsed by the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Echo.
    Ping {
        /// The requester's polling buffer.
        reply: BufDesc,
        /// Bytes to echo back.
        payload: Vec<u8>,
    },
    /// Free extents in the memory node's zone.
    FreeBatch {
        /// The requester's polling buffer.
        reply: BufDesc,
        /// `(offset, len)` extents to free.
        extents: Vec<(u64, u64)>,
    },
    /// Near-data compaction.
    Compact {
        /// The requester's polling buffer (reply body destination).
        reply: BufDesc,
        /// Unique id echoed as the wake-up immediate.
        unique_id: u32,
        /// Descriptor of the serialized [`CompactArgs`] on the requester.
        args: BufDesc,
    },
    /// Two-sided region read (tmpfs-style).
    ReadFile {
        /// The requester's polling buffer.
        reply: BufDesc,
        /// Offset in the memory node's region.
        offset: u64,
        /// Bytes to read.
        len: u32,
    },
    /// Two-sided region write (tmpfs-style).
    WriteFile {
        /// The requester's polling buffer.
        reply: BufDesc,
        /// Offset in the memory node's region.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Abandon the compaction issued under request id `target`: the server
    /// frees its outputs (already produced or still to come) and forgets the
    /// cached reply.
    CancelCompact {
        /// The requester's polling buffer.
        reply: BufDesc,
        /// Request id of the compaction being abandoned.
        target: u64,
    },
}

impl Request {
    /// Serialize a request into a SEND payload under request id `req_id`
    /// (v1 framing, no trace context). Retries of the same logical request
    /// must reuse the same id so the server can deduplicate.
    pub fn encode(&self, req_id: u64) -> Vec<u8> {
        self.encode_with_ctx(req_id, None)
    }

    /// Serialize under `req_id`, optionally attaching the sender's trace
    /// context (v2 framing, [`TRACE_FLAG`] on the op byte). With
    /// `ctx = None` the bytes are identical to the v1 [`encode`](Self::encode).
    pub fn encode_with_ctx(&self, req_id: u64, ctx: Option<TraceCtx>) -> Vec<u8> {
        let mut out = Vec::new();
        let flag = if ctx.is_some() { TRACE_FLAG } else { 0 };
        // LOSSY: Op discriminants are 1..=6, always below TRACE_FLAG (0x80).
        out.push(self.op() as u8 | flag);
        put_u64(&mut out, req_id);
        if let Some(c) = ctx {
            put_u64(&mut out, c.trace_id);
            put_u64(&mut out, c.span_id);
        }
        self.reply_desc().encode(&mut out);
        match self {
            Request::Ping { payload, .. } => {
                out.extend_from_slice(payload);
            }
            Request::FreeBatch { extents, .. } => {
                put_len32(&mut out, extents.len());
                for &(o, l) in extents {
                    put_u64(&mut out, o);
                    put_u64(&mut out, l);
                }
            }
            Request::Compact { unique_id, args, .. } => {
                put_u32(&mut out, *unique_id);
                args.encode(&mut out);
            }
            Request::ReadFile { offset, len, .. } => {
                put_u64(&mut out, *offset);
                put_u32(&mut out, *len);
            }
            Request::WriteFile { offset, data, .. } => {
                put_u64(&mut out, *offset);
                out.extend_from_slice(data);
            }
            Request::CancelCompact { target, .. } => {
                put_u64(&mut out, *target);
            }
        }
        out
    }

    /// This request's opcode.
    pub fn op(&self) -> Op {
        match self {
            Request::Ping { .. } => Op::Ping,
            Request::FreeBatch { .. } => Op::FreeBatch,
            Request::Compact { .. } => Op::Compact,
            Request::ReadFile { .. } => Op::ReadFile,
            Request::WriteFile { .. } => Op::WriteFile,
            Request::CancelCompact { .. } => Op::CancelCompact,
        }
    }

    /// Parse a SEND payload into `(req_id, request)`, dropping any trace
    /// context.
    pub fn decode(buf: &[u8]) -> Result<(u64, Request)> {
        let (req_id, _ctx, req) = Self::decode_with_ctx(buf)?;
        Ok((req_id, req))
    }

    /// Parse a SEND payload into `(req_id, trace context, request)`.
    /// Accepts both framings: v1 frames (no [`TRACE_FLAG`]) yield
    /// `ctx = None`.
    pub fn decode_with_ctx(buf: &[u8]) -> Result<(u64, Option<TraceCtx>, Request)> {
        let first = *buf.first().ok_or_else(|| MemNodeError::BadMessage("empty".into()))?;
        let op = Op::from_u8(first & !TRACE_FLAG)
            .ok_or_else(|| MemNodeError::BadMessage(format!("bad op {}", buf[0])))?;
        let req_id = get_u64(buf, 1).map_err(bad)?;
        let (ctx, header) = if first & TRACE_FLAG != 0 {
            let trace_id = get_u64(buf, 9).map_err(bad)?;
            let span_id = get_u64(buf, 17).map_err(bad)?;
            (Some(TraceCtx { trace_id, span_id }), 25)
        } else {
            (None, 9)
        };
        let (reply, n) = BufDesc::decode(buf, header)?;
        let body = header + n;
        let req = match op {
            Op::Ping => Request::Ping { reply, payload: buf[body..].to_vec() },
            Op::FreeBatch => {
                let count = get_u32(buf, body).map_err(bad)? as usize;
                let mut extents = Vec::with_capacity(count.min(1024));
                let mut off = body + 4;
                for _ in 0..count {
                    extents.push((get_u64(buf, off).map_err(bad)?, get_u64(buf, off + 8).map_err(bad)?));
                    off += 16;
                }
                Request::FreeBatch { reply, extents }
            }
            Op::Compact => {
                let unique_id = get_u32(buf, body).map_err(bad)?;
                let (args, _) = BufDesc::decode(buf, body + 4)?;
                Request::Compact { reply, unique_id, args }
            }
            Op::ReadFile => {
                let offset = get_u64(buf, body).map_err(bad)?;
                let len = get_u32(buf, body + 8).map_err(bad)?;
                Request::ReadFile { reply, offset, len }
            }
            Op::WriteFile => {
                let offset = get_u64(buf, body).map_err(bad)?;
                Request::WriteFile { reply, offset, data: buf[body + 8..].to_vec() }
            }
            Op::CancelCompact => {
                let target = get_u64(buf, body).map_err(bad)?;
                Request::CancelCompact { reply, target }
            }
        };
        Ok((req_id, ctx, req))
    }

    /// The reply-buffer descriptor attached to this request.
    pub fn reply_desc(&self) -> BufDesc {
        match self {
            Request::Ping { reply, .. }
            | Request::FreeBatch { reply, .. }
            | Request::Compact { reply, .. }
            | Request::ReadFile { reply, .. }
            | Request::WriteFile { reply, .. }
            | Request::CancelCompact { reply, .. } => *reply,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(i: u32) -> BufDesc {
        BufDesc { mr: i, offset: u64::from(i) * 7, rkey: i ^ 0xAA, len: 4096 }
    }

    #[test]
    fn requests_roundtrip() {
        let cases = vec![
            Request::Ping { reply: desc(1), payload: b"hello".to_vec() },
            Request::FreeBatch { reply: desc(2), extents: vec![(0, 64), (128, 4096)] },
            Request::Compact { reply: desc(3), unique_id: 77, args: desc(4) },
            Request::ReadFile { reply: desc(5), offset: 4096, len: 512 },
            Request::WriteFile { reply: desc(6), offset: 8192, data: vec![1, 2, 3] },
            Request::CancelCompact { reply: desc(7), target: 0xDEAD_BEEF },
        ];
        for (i, r) in cases.into_iter().enumerate() {
            let req_id = 1000 + i as u64;
            let enc = r.encode(req_id);
            assert_eq!(Request::decode(&enc).unwrap(), (req_id, r));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99, 0, 0]).is_err());
        let enc = Request::ReadFile { reply: desc(1), offset: 1, len: 2 }.encode(7);
        assert!(Request::decode(&enc[..enc.len() - 4]).is_err());
        // A trace flag does not launder an unknown opcode.
        assert!(Request::decode(&[TRACE_FLAG | 9, 0, 0]).is_err());
    }

    /// Header version bump: v1 frames (no trace flag) must keep decoding —
    /// old encoders against a new server — and the v2 framing must carry
    /// the context through unchanged.
    #[test]
    fn trace_ctx_header_both_encodings() {
        let ctx = TraceCtx { trace_id: 0x1122_3344_5566_7788, span_id: 0x99AA_BBCC_DDEE_FF00 };
        let cases = vec![
            Request::Ping { reply: desc(1), payload: b"hello".to_vec() },
            Request::FreeBatch { reply: desc(2), extents: vec![(0, 64), (128, 4096)] },
            Request::Compact { reply: desc(3), unique_id: 77, args: desc(4) },
            Request::ReadFile { reply: desc(5), offset: 4096, len: 512 },
            Request::WriteFile { reply: desc(6), offset: 8192, data: vec![1, 2, 3] },
            Request::CancelCompact { reply: desc(7), target: 0xDEAD_BEEF },
        ];
        for (i, r) in cases.into_iter().enumerate() {
            let req_id = 2000 + i as u64;
            // v1 (old format): no flag byte, context decodes as None.
            let v1 = r.encode(req_id);
            assert_eq!(v1[0] & TRACE_FLAG, 0, "v1 frame must not carry the flag");
            assert_eq!(v1, r.encode_with_ctx(req_id, None), "encode must stay v1-identical");
            assert_eq!(Request::decode_with_ctx(&v1).unwrap(), (req_id, None, r.clone()));
            // v2: flag set, 16 extra header bytes, context round-trips.
            let v2 = r.encode_with_ctx(req_id, Some(ctx));
            assert_eq!(v2[0], v1[0] | TRACE_FLAG);
            assert_eq!(v2.len(), v1.len() + 16);
            assert_eq!(Request::decode_with_ctx(&v2).unwrap(), (req_id, Some(ctx), r.clone()));
            // The ctx-blind decoder still accepts v2 frames.
            assert_eq!(Request::decode(&v2).unwrap(), (req_id, r));
        }
    }

    #[test]
    fn trace_ctx_truncated_header_rejected() {
        let r = Request::ReadFile { reply: desc(1), offset: 1, len: 2 };
        let v2 = r.encode_with_ctx(7, Some(TraceCtx { trace_id: 1, span_id: 2 }));
        // Chop inside the 16-byte context extension: must error, not panic.
        assert!(Request::decode_with_ctx(&v2[..20]).is_err());
    }

    #[test]
    fn reply_frame_roundtrip_and_truncation() {
        let frame = ReplyFrame::encode(0xFEED_F00D, b"payload-bytes");
        let (id, payload) = ReplyFrame::decode(&frame).unwrap();
        assert_eq!(id, 0xFEED_F00D);
        assert_eq!(payload, b"payload-bytes");
        // Truncated header and truncated payload both error, never panic.
        assert!(ReplyFrame::decode(&frame[..3]).is_err());
        assert!(ReplyFrame::decode(&frame[..frame.len() - 1]).is_err());
        // Empty payloads are legal.
        let empty = ReplyFrame::encode(1, &[]);
        let (id, payload) = ReplyFrame::decode(&empty).unwrap();
        assert_eq!((id, payload.len()), (1, 0));
    }

    #[test]
    fn compact_args_roundtrip() {
        let args = CompactArgs {
            format: TableFormat::Block(8192),
            smallest_snapshot: 123_456,
            drop_deletions: true,
            max_output_bytes: 64 << 20,
            bits_per_key: 10,
            range_lo: b"aaa".to_vec(),
            range_hi: b"zzz".to_vec(),
            inputs: vec![InputTable { offset: 0, len: 100 }, InputTable { offset: 200, len: 300 }],
        };
        assert_eq!(CompactArgs::decode(&args.encode()).unwrap(), args);
        let args2 = CompactArgs { format: TableFormat::ByteAddr, inputs: vec![], range_lo: vec![], range_hi: vec![], ..args };
        assert_eq!(CompactArgs::decode(&args2.encode()).unwrap(), args2);
    }

    #[test]
    fn compact_reply_roundtrip() {
        let reply = CompactReply {
            outputs: vec![
                OutputTable { offset: 1024, len: 888, records: 600, meta: vec![9; 33] },
                OutputTable { offset: 4096, len: 111, records: 300, meta: vec![] },
            ],
            records_in: 1000,
            records_out: 900,
            steps: (0..1000u32).map(|i| (i % 7) as u8).collect(),
        };
        let enc = reply.encode();
        assert_eq!(CompactReply::decode(&enc).unwrap(), reply);
        assert_eq!(reply.frame_len(), ReplyFrame::HEADER + 1 + enc.len());
        // A block-format reply has no steps; every truncation is an error.
        let bare = CompactReply { steps: vec![], ..reply };
        assert_eq!(CompactReply::decode(&bare.encode()).unwrap(), bare);
        for cut in 0..enc.len() {
            assert!(CompactReply::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }
}
