//! RPC wire formats (hand-rolled little-endian).
//!
//! Every request is a two-sided SEND whose payload starts with an opcode, a
//! **request id**, and the requester's **reply-buffer descriptor**
//! `(mr, offset, rkey, len)`; the responder answers with a one-sided WRITE
//! of a [`ReplyFrame`] into that buffer, bypassing any dispatcher on the
//! requester side (paper Sec. X-D1). The compaction request additionally
//! carries a unique id (the wake-up immediate) and an **argument-buffer
//! descriptor** that the responder pulls with an RDMA read, keeping the SEND
//! itself small (Sec. X-D2).
//!
//! Every request is answered, and every reply body is `[status u8][payload]`:
//! status 0 carries the op's payload, any other status a UTF-8 message.
//! [`ReplyFrame`] is the one owner of the reply buffer's layout.
//!
//! Request ids make the protocol safe to retry over a lossy fabric: a
//! client re-issues a timed-out request under the *same* id, and the server
//! deduplicates — non-idempotent ops (extent frees, compactions) execute at
//! most once, with the cached reply replayed for duplicates. Replies echo
//! the id in their frame so a poller can tell a late, stale reply from the
//! one it is waiting for.

#![deny(clippy::cast_possible_truncation)]

use dlsm_sstable::coding::{get_u32, get_u64, put_u32, put_u64};
use dlsm_sstable::key::SeqNo;
use dlsm_trace::TraceCtx;

use crate::{MemNodeError, Result};

/// Trace flag on the opcode byte: set exactly when sixteen extra bytes —
/// `[trace_id u64][span_id u64]` — follow the request id, carrying the
/// sender's tracing context so memory-node work appears as a child of the
/// compute-node span that caused it.
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

/// The reply buffer's layout, known here only: a frame
/// `[body len u32][req_id u64][status u8][payload]` at its front and the
/// completion flag word in its last 8 bytes. The echoed request id lets the
/// waiter reject frames left over from earlier, retried calls.
pub struct ReplyFrame;

impl ReplyFrame {
    /// Bytes before the body.
    pub const HEADER: usize = 12;
    /// Bytes of the flag word at the end of every reply buffer.
    const FLAG: usize = 8;

    /// The longest payload a `len`-byte reply buffer takes: what is left
    /// between the header and status byte and the flag word.
    pub fn room(len: u32) -> usize {
        (len as usize).saturating_sub(Self::HEADER + 1 + Self::FLAG)
    }

    /// Offset of the flag word in a `len`-byte reply buffer.
    pub fn flag_offset(len: u32) -> u64 {
        u64::from(len).saturating_sub(Self::FLAG as u64)
    }

    /// The body answering `outcome` in a `len`-byte reply buffer: the
    /// payload under status 0, or an error's message under status 1. A
    /// payload longer than [`room`](Self::room) is an error too — a reply
    /// the buffer cannot take fails its request — and a message is cut to
    /// the room. Returns whether the body is an ok one.
    pub fn body(outcome: Result<Vec<u8>>, len: u32) -> (bool, Vec<u8>) {
        let room = Self::room(len);
        let outcome = outcome.and_then(|payload| match payload.len() {
            n if n <= room => Ok(payload),
            n => Err(MemNodeError::BadMessage(format!("reply of {n} bytes exceeds the {len}-byte reply buffer"))),
        });
        match outcome {
            Ok(mut payload) => {
                payload.insert(0, 0);
                (true, payload)
            }
            Err(e) => {
                let mut body = vec![1u8];
                let msg = e.to_string();
                body.extend_from_slice(&msg.as_bytes()[..msg.len().min(room)]);
                (false, body)
            }
        }
    }

    /// Frame `body` for request `req_id`.
    pub fn encode(req_id: u64, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER + body.len());
        put_len32(&mut out, body.len());
        put_u64(&mut out, req_id);
        out.extend_from_slice(body);
        out
    }

    /// Parse a frame, returning `(req_id, body)`.
    pub fn decode(buf: &[u8]) -> Result<(u64, &[u8])> {
        let len = get_u32(buf, 0).map_err(bad)? as usize;
        let req_id = get_u64(buf, 4).map_err(bad)?;
        let body = buf
            .get(Self::HEADER..Self::HEADER + len)
            .ok_or_else(|| MemNodeError::BadMessage(format!("truncated reply frame ({len} byte body)")))?;
        Ok((req_id, body))
    }

    /// Read the frame at the front of a `len`-byte reply buffer through
    /// `read(offset, dst)`: its header, then the body the header announces,
    /// which must end before the flag word. [`decode`](Self::decode) it.
    pub fn read(len: u32, read: impl Fn(u64, &mut [u8]) -> Result<()>) -> Result<Vec<u8>> {
        let mut frame = vec![0u8; Self::HEADER];
        read(0, &mut frame)?;
        let body = get_u32(&frame, 0).map_err(bad)? as usize;
        if body > 1 + Self::room(len) {
            return Err(MemNodeError::BadMessage(format!("reply length {body} out of range")));
        }
        frame.resize(Self::HEADER + body, 0);
        read(Self::HEADER as u64, &mut frame[Self::HEADER..])?;
        Ok(frame)
    }

    /// The payload of an ok `body`; an error status is the
    /// [`MemNodeError::RemoteError`] it carries.
    pub fn payload(body: &[u8]) -> Result<&[u8]> {
        match body.split_first() {
            Some((0, payload)) => Ok(payload),
            Some((_, msg)) => Err(MemNodeError::RemoteError(String::from_utf8_lossy(msg).into_owned())),
            None => Err(MemNodeError::BadMessage("empty reply body".into())),
        }
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
    /// Serialize into a SEND payload under `req_id`, carrying the sender's
    /// trace context when there is one ([`TRACE_FLAG`] on the op byte).
    /// Retries of the same logical request must reuse the same id so the
    /// server can deduplicate.
    pub fn encode(&self, req_id: u64, ctx: Option<TraceCtx>) -> Vec<u8> {
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

    /// Parse a SEND payload into `(req_id, trace context, request)`.
    pub fn decode(buf: &[u8]) -> Result<(u64, Option<TraceCtx>, Request)> {
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

    /// The immediate that wakes this request's requester when its reply
    /// lands: a compaction's unique id (its requester sleeps until woken,
    /// Sec. X-D2); `None` for the rest, whose requesters poll the flag word.
    pub fn wake(&self) -> Option<u32> {
        match self {
            Request::Compact { unique_id, .. } => Some(*unique_id),
            _ => None,
        }
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

    fn one_of_each() -> Vec<Request> {
        vec![
            Request::Ping { reply: desc(1), payload: b"hi".to_vec() },
            Request::FreeBatch { reply: desc(2), extents: vec![(0, 64), (128, 4096)] },
            Request::Compact { reply: desc(3), unique_id: 77, args: desc(4) },
            Request::ReadFile { reply: desc(5), offset: 4096, len: 512 },
            Request::WriteFile { reply: desc(6), offset: 8192, data: vec![1, 2, 3] },
            Request::CancelCompact { reply: desc(7), target: 0xDEAD_BEEF },
        ]
    }

    /// The request bytes, pinned: one context-free frame per op, field by
    /// field — `[op][req_id][reply mr, offset, rkey, len][body]`. A change
    /// here is a change of the traffic.
    #[test]
    fn context_free_frames_are_pinned() {
        let golden = [
            "01 0007060504030201 010000000700000000000000ab00000000100000 6869",
            "02 0107060504030201 020000000e00000000000000a800000000100000 02000000 \
             0000000000000000 4000000000000000 8000000000000000 0010000000000000",
            "03 0207060504030201 030000001500000000000000a900000000100000 4d000000 \
             040000001c00000000000000ae00000000100000",
            "04 0307060504030201 050000002300000000000000af00000000100000 0010000000000000 00020000",
            "05 0407060504030201 060000002a00000000000000ac00000000100000 0020000000000000 010203",
            "06 0507060504030201 070000003100000000000000ad00000000100000 efbeadde00000000",
        ];
        for (i, (r, hex)) in one_of_each().into_iter().zip(golden).enumerate() {
            let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
            let want: Vec<u8> = digits
                .chunks(2)
                .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
                .collect();
            let req_id = 0x0102_0304_0506_0700 + i as u64;
            let frame = r.encode(req_id, None);
            assert_eq!(frame, want, "{:?}", r.op());
            assert_eq!(Request::decode(&frame).unwrap(), (req_id, None, r));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99, 0, 0]).is_err());
        let enc = Request::ReadFile { reply: desc(1), offset: 1, len: 2 }.encode(7, None);
        assert!(Request::decode(&enc[..enc.len() - 4]).is_err());
        // A trace flag does not launder an unknown opcode.
        assert!(Request::decode(&[TRACE_FLAG | 9, 0, 0]).is_err());
    }

    /// A context sets the flag and adds its sixteen bytes after the request
    /// id, and round-trips; the rest of the frame is the context-free one.
    #[test]
    fn trace_ctx_rides_in_the_header() {
        let ctx = TraceCtx { trace_id: 0x1122_3344_5566_7788, span_id: 0x99AA_BBCC_DDEE_FF00 };
        for (i, r) in one_of_each().into_iter().enumerate() {
            let req_id = 2000 + i as u64;
            let plain = r.encode(req_id, None);
            assert_eq!(plain[0] & TRACE_FLAG, 0, "a context-free frame must not carry the flag");
            let traced = r.encode(req_id, Some(ctx));
            assert_eq!(traced[0], plain[0] | TRACE_FLAG);
            assert_eq!(traced.len(), plain.len() + 16);
            assert_eq!((&traced[1..9], &traced[25..]), (&plain[1..9], &plain[9..]));
            assert_eq!(Request::decode(&traced).unwrap(), (req_id, Some(ctx), r));
        }
    }

    #[test]
    fn trace_ctx_truncated_header_rejected() {
        let r = Request::ReadFile { reply: desc(1), offset: 1, len: 2 };
        let traced = r.encode(7, Some(TraceCtx { trace_id: 1, span_id: 2 }));
        // Chop inside the 16-byte context extension: must error, not panic.
        assert!(Request::decode(&traced[..20]).is_err());
    }

    #[test]
    fn reply_frame_roundtrip_and_truncation() {
        let frame = ReplyFrame::encode(0xFEED_F00D, b"payload-bytes");
        let (id, body) = ReplyFrame::decode(&frame).unwrap();
        assert_eq!(id, 0xFEED_F00D);
        assert_eq!(body, b"payload-bytes");
        // Truncated header and truncated body both error, never panic.
        assert!(ReplyFrame::decode(&frame[..3]).is_err());
        assert!(ReplyFrame::decode(&frame[..frame.len() - 1]).is_err());
        // Empty bodies frame too.
        let empty = ReplyFrame::encode(1, &[]);
        let (id, body) = ReplyFrame::decode(&empty).unwrap();
        assert_eq!((id, body.len()), (1, 0));
    }

    /// A reply body is `[status][payload]`; a payload the buffer cannot take
    /// and an error both go as an error status that fits the buffer, and the
    /// frame reads back from the buffer's front.
    #[test]
    fn reply_bodies_fit_their_buffer() {
        let len = 64u32;
        let room = ReplyFrame::room(len);
        assert_eq!((room, ReplyFrame::flag_offset(len)), (43, 56));
        let (ok, body) = ReplyFrame::body(Ok(vec![7; room]), len);
        assert!(ok);
        assert_eq!(ReplyFrame::payload(&body).unwrap(), &[7; 43][..]);
        let (ok, body) = ReplyFrame::body(Ok(vec![7; room + 1]), len);
        assert!(!ok && body.len() <= 1 + room);
        let err = ReplyFrame::payload(&body).unwrap_err();
        assert!(matches!(&err, MemNodeError::RemoteError(m) if m.starts_with("bad rpc message: reply of 44 bytes")), "{err:?}");
        let (ok, body) = ReplyFrame::body(Err(MemNodeError::Timeout), len);
        assert!(!ok);
        assert_eq!(ReplyFrame::payload(&body), Err(MemNodeError::RemoteError("rpc timeout".into())));
        assert!(ReplyFrame::payload(&[]).is_err());

        // Read back through the buffer's own bytes; a header that announces
        // more than the room is refused before any body is read.
        let mut buf = vec![0u8; len as usize];
        let frame = ReplyFrame::encode(9, &ReplyFrame::body(Ok(b"echo".to_vec()), len).1);
        buf[..frame.len()].copy_from_slice(&frame);
        let read = |b: &[u8], off: u64, dst: &mut [u8]| {
            let at = usize::try_from(off).unwrap();
            dst.copy_from_slice(&b[at..at + dst.len()]);
            Ok(())
        };
        let read_back = ReplyFrame::read(len, |o, d| read(&buf, o, d)).unwrap();
        assert_eq!(read_back, frame);
        let (id, body) = ReplyFrame::decode(&read_back).unwrap();
        assert_eq!((id, ReplyFrame::payload(body).unwrap()), (9, &b"echo"[..]));
        buf[..4].copy_from_slice(&u32::try_from(room + 2).unwrap().to_le_bytes());
        assert!(ReplyFrame::read(len, |o, d| read(&buf, o, d)).is_err());
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
