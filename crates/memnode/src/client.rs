//! Compute-node side of the RPC protocol.
//!
//! [`RpcClient`] is thread-local (one queue pair and one registered
//! reply/argument buffer per thread, per the dLSM RDMA-manager design,
//! Sec. X-B). Every op goes through one call: post the SEND, then wait for
//! the reply frame in the reply buffer. The only choice is how to wait: a
//! general-purpose call polls the flag word at the end of the buffer
//! (Sec. X-D1); a compaction sleeps on a condition variable until
//! [`ImmWaiter`] — the "thread notifier" that routes WRITE-with-IMMEDIATE
//! events to requesters by unique id — wakes it (Sec. X-D2). An error
//! status in the reply is the call's result at once.
//!
//! Every call is made survivable over a lossy fabric by a [`RetryPolicy`]:
//! a timed-out attempt is re-issued under the **same request id** after
//! exponential backoff, so the server's dedup window guarantees
//! at-most-once execution even for non-idempotent ops (`free_batch`,
//! `compact`). After repeated timeouts the client also **reconnects** (a
//! fresh queue pair), covering a memory node that crashed and restarted.
//! [`ClientNetStats`] counts both.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rdma_sim::{Fabric, MemoryRegion, Node, NodeId, QueuePair};

use crate::wire::{BufDesc, CompactArgs, CompactReply, ReplyFrame, Request};
use crate::{MemNodeError, Result};

/// Process-wide request-id source. Ids must be unique per *compute node*
/// (the server's dedup window is keyed by `(node, req_id)`) and several
/// `RpcClient`s share one node, so a single counter serves them all.
static NEXT_REQ_ID: AtomicU64 = AtomicU64::new(1);

/// How a client retries timed-out calls.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Consecutive timeouts before recreating the queue pair (reconnect),
    /// covering a crashed-and-restarted memory node. 0 = never reconnect.
    pub reconnect_after: u32,
    /// Cap on how long any single attempt may wait, regardless of the
    /// caller's overall timeout. `None` lets each attempt use the full call
    /// timeout. Chaos/fault-injection configs set this low so a blackholed
    /// attempt (e.g. during a crash window) fails fast and the retry loop —
    /// not a long per-call timeout — rides out the outage.
    pub attempt_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(250),
            reconnect_after: 2,
            attempt_timeout: None,
        }
    }
}

impl RetryPolicy {
    fn backoff_for(&self, retry: u32) -> Duration {
        let exp = self.backoff.saturating_mul(1u32 << retry.min(16));
        exp.min(self.max_backoff)
    }

    fn per_attempt(&self, timeout: Duration) -> Duration {
        match self.attempt_timeout {
            Some(cap) => timeout.min(cap),
            None => timeout,
        }
    }
}

/// Shared (atomic) network-health counters a set of [`RpcClient`]s can
/// report into — e.g. every client one `Db` opens across its flush, GC,
/// compaction, and read threads; the one count of retries and reconnects.
/// The chaos harness checks it against the server's dedup/replay counters.
#[derive(Debug, Default)]
pub struct ClientNetStats {
    /// Attempts re-issued after a timeout, across all attached clients.
    pub retries: AtomicU64,
    /// Queue-pair recreations, across all attached clients.
    pub reconnects: AtomicU64,
}

impl ClientNetStats {
    /// Current `(retries, reconnects)`.
    pub fn totals(&self) -> (u64, u64) {
        // ORDERING: relaxed — retry/reconnect counters read for reporting.
        (self.retries.load(Ordering::Relaxed), self.reconnects.load(Ordering::Relaxed))
    }
}

/// Thread-local RPC endpoint talking to one memory node.
pub struct RpcClient {
    fabric: Arc<Fabric>,
    local_node: Arc<Node>,
    remote: NodeId,
    qp: QueuePair,
    /// Registered local buffer: `[reply | args]`.
    local: Arc<MemoryRegion>,
    reply_len: u32,
    arg_off: u64,
    arg_len: u32,
    policy: RetryPolicy,
    /// Where retries and reconnects are counted, shared with sibling
    /// clients.
    net: Option<Arc<ClientNetStats>>,
    /// Traffic of queue pairs retired by [`RpcClient::reconnect`], so
    /// [`RpcClient::traffic`] spans the client's whole lifetime.
    traffic_carried: rdma_sim::StatsSnapshot,
}

impl RpcClient {
    /// Create a client on `local_node` targeting `remote`. `buf_size` bytes
    /// are registered for the reply buffer and as many again for the
    /// argument buffer.
    pub fn new(
        fabric: &Arc<Fabric>,
        local_node: &Arc<Node>,
        remote: NodeId,
        buf_size: usize,
    ) -> Result<RpcClient> {
        let buf_size = buf_size.next_multiple_of(8).max(64);
        let local = local_node.register_region(buf_size * 2);
        let qp = fabric.create_qp(local_node.id(), remote)?;
        Ok(RpcClient {
            fabric: Arc::clone(fabric),
            local_node: Arc::clone(local_node),
            remote,
            qp,
            local,
            reply_len: buf_size as u32,
            arg_off: buf_size as u64,
            arg_len: buf_size as u32,
            policy: RetryPolicy::default(),
            net: None,
            traffic_carried: rdma_sim::StatsSnapshot::default(),
        })
    }

    /// Replace the retry policy (builder style).
    pub fn with_policy(mut self, policy: RetryPolicy) -> RpcClient {
        self.policy = policy;
        self
    }

    /// Count retries and reconnects in a shared aggregate (builder style).
    pub fn with_net_stats(mut self, net: Arc<ClientNetStats>) -> RpcClient {
        self.net = Some(net);
        self
    }

    /// Everything this client ever posted, per verb — including traffic on
    /// queue pairs retired by reconnects.
    pub fn traffic(&self) -> rdma_sim::StatsSnapshot {
        let mut t = self.traffic_carried;
        t.merge(&self.qp.traffic());
        t
    }

    fn note_retry(&mut self) {
        dlsm_trace::instant(dlsm_trace::Category::Rpc, "rpc_retry", 0);
        if let Some(net) = &self.net {
            // ORDERING: relaxed — retry counter; reporting only.
            net.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Recreate the queue pair to the memory node. The registered local
    /// buffer (and thus the reply descriptor) is unchanged.
    pub fn reconnect(&mut self) -> Result<()> {
        let fresh = self.fabric.create_qp(self.local_node.id(), self.remote)?;
        let old = std::mem::replace(&mut self.qp, fresh);
        self.traffic_carried.merge(&old.traffic());
        dlsm_trace::instant(dlsm_trace::Category::Rpc, "rpc_reconnect", self.remote.0 as u64);
        if let Some(net) = &self.net {
            // ORDERING: relaxed — reconnect counter; reporting only.
            net.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Descriptor of this client's reply buffer (attached to every request).
    pub fn reply_desc(&self) -> BufDesc {
        BufDesc {
            mr: self.local.mr().0,
            offset: 0,
            rkey: self.local.rkey(),
            len: self.reply_len,
        }
    }

    fn fresh_req_id() -> u64 {
        // ORDERING: relaxed — request-id generation needs uniqueness only.
        NEXT_REQ_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// Issue `request` under `req_id` until it is answered: each timed-out
    /// attempt is re-issued under the same id after exponential backoff,
    /// and the queue pair is recreated after `reconnect_after` consecutive
    /// timeouts. `timeout` bounds each attempt; `wake` is the cell a
    /// compaction sleeps on. Returns the reply's payload.
    fn call(
        &mut self,
        req_id: u64,
        request: &Request,
        wake: Option<&WaitCell>,
        timeout: Duration,
    ) -> Result<Vec<u8>> {
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Rpc, "rpc_call", request.op() as u64);
        // Context is captured once, at encode time: retries re-send the
        // same bytes, so the server-side child hangs off this one span no
        // matter which attempt it serves (dedup-friendly).
        let encoded = request.encode(req_id, dlsm_trace::current_ctx());
        let timeout = self.policy.per_attempt(timeout);
        for attempt in 0..self.policy.max_attempts.max(1) {
            if attempt > 0 {
                self.note_retry();
                if self.policy.reconnect_after != 0 && attempt >= self.policy.reconnect_after {
                    let _ = self.reconnect();
                }
                // HOTPATH: retry backoff only runs after an attempt already
                // timed out — latency is dominated by the loss, not the sleep.
                std::thread::sleep(self.policy.backoff_for(attempt - 1));
            }
            match self.attempt(&encoded, req_id, wake, timeout) {
                Err(MemNodeError::Timeout) => continue,
                other => return other,
            }
        }
        Err(MemNodeError::Timeout)
    }

    /// One attempt: post the SEND, await its completion, then wait until
    /// the reply frame carrying `req_id` lands — sleeping on `wake` when the
    /// reply comes with an immediate, else polling the flag word.
    fn attempt(
        &mut self,
        encoded: &[u8],
        req_id: u64,
        wake: Option<&WaitCell>,
        timeout: Duration,
    ) -> Result<Vec<u8>> {
        let flag = ReplyFrame::flag_offset(self.reply_len);
        // Disarm before the responder can race us, and again after a stale
        // frame from an earlier call.
        let rearm = |local: &MemoryRegion| -> Result<()> {
            local.atomic_u64(flag)?.store(0, Ordering::Release);
            if let Some(cell) = wake {
                cell.reset();
            }
            Ok(())
        };
        rearm(&self.local)?;
        self.qp.post_send(encoded.to_vec(), 7)?;
        // A lost SEND completion is indistinguishable from a lost request;
        // treat either as a timeout so the retry path takes over.
        if self.qp.poll_one_blocking(timeout.min(Duration::from_secs(10))).is_err() {
            return Err(MemNodeError::Timeout);
        }
        let deadline = Instant::now() + timeout;
        let mut spins = 0u32;
        loop {
            let landed = match wake {
                // HOTPATH: only compaction threads sleep for their reply,
                // never a foreground op.
                Some(cell) => cell.wait(deadline.saturating_duration_since(Instant::now())),
                None => self.local.atomic_load(flag)? != 0,
            };
            if landed {
                let frame =
                    ReplyFrame::read(self.reply_len, |off, dst| Ok(self.local.local_read(off, dst)?))?;
                let (id, body) = ReplyFrame::decode(&frame)?;
                if id == req_id {
                    return ReplyFrame::payload(body).map(<[u8]>::to_vec);
                }
                rearm(&self.local)?;
                continue;
            }
            if Instant::now() >= deadline {
                return Err(MemNodeError::Timeout);
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                // HOTPATH: two-sided RPC completion is flag-polled like a real
                // RNIC doorbell; event-driven wakeups: ROADMAP's parked async runtime.
                std::thread::yield_now();
            } else {
                // HOTPATH: same doorbell poll (see above).
                std::hint::spin_loop();
            }
        }
    }

    /// Liveness/latency probe: echoes `payload`.
    pub fn ping(&mut self, payload: &[u8], timeout: Duration) -> Result<Vec<u8>> {
        let req = Request::Ping { reply: self.reply_desc(), payload: payload.to_vec() };
        self.call(Self::fresh_req_id(), &req, None, timeout)
    }

    /// Batched GC of extents in the memory node's compaction zone
    /// (Sec. V-B: frees are grouped locally and shipped together).
    pub fn free_batch(&mut self, extents: &[(u64, u64)], timeout: Duration) -> Result<()> {
        let req = Request::FreeBatch { reply: self.reply_desc(), extents: extents.to_vec() };
        self.call(Self::fresh_req_id(), &req, None, timeout).map(drop)
    }

    /// Largest payload a single [`RpcClient::read_file`] can return.
    pub fn max_read_len(&self) -> usize {
        ReplyFrame::room(self.reply_len)
    }

    /// Two-sided "file" read from the memory node's region (the Nova-LSM
    /// tmpfs-style data path: request → server copy → reply).
    pub fn read_file(&mut self, offset: u64, len: u32, timeout: Duration) -> Result<Vec<u8>> {
        if len as usize > self.max_read_len() {
            return Err(MemNodeError::BadMessage("read larger than reply buffer".into()));
        }
        let req = Request::ReadFile { reply: self.reply_desc(), offset, len };
        self.call(Self::fresh_req_id(), &req, None, timeout)
    }

    /// Two-sided "file" write into the memory node's region.
    pub fn write_file(&mut self, offset: u64, data: &[u8], timeout: Duration) -> Result<()> {
        let req = Request::WriteFile { reply: self.reply_desc(), offset, data: data.to_vec() };
        self.call(Self::fresh_req_id(), &req, None, timeout).map(drop)
    }

    /// Ask the memory node to cancel (or reclaim the outputs of) the
    /// compaction issued under `target` request id. Safe to send whether the
    /// compaction already finished, is still running, or never arrived: the
    /// server frees finished outputs, tombstones in-flight work, and leaves
    /// a tombstone for a request that shows up later.
    pub fn cancel_compact(&mut self, target: u64, timeout: Duration) -> Result<()> {
        let req = Request::CancelCompact { reply: self.reply_desc(), target };
        self.call(Self::fresh_req_id(), &req, None, timeout).map(drop)
    }

    /// Near-data compaction: serialize `args` into the registered argument
    /// buffer, send the small request, **sleep** until the memory node's
    /// WRITE-with-IMMEDIATE wakes this thread via `waiter`, then decode the
    /// reply.
    ///
    /// If every attempt times out, a best-effort
    /// [`RpcClient::cancel_compact`] tells the server to reclaim any outputs
    /// the orphaned compaction produces, so no memory-node extent leaks.
    pub fn compact(
        &mut self,
        args: &CompactArgs,
        waiter: &ImmWaiter,
        timeout: Duration,
    ) -> Result<CompactReply> {
        let encoded = args.encode();
        if encoded.len() > self.arg_len as usize {
            return Err(MemNodeError::BadMessage(format!(
                "compaction args of {} bytes exceed the {}-byte argument buffer",
                encoded.len(),
                self.arg_len
            )));
        }
        self.local.local_write(self.arg_off, &encoded)?;
        let (unique_id, cell) = waiter.register();
        let req_id = Self::fresh_req_id();
        let req = Request::Compact {
            reply: self.reply_desc(),
            unique_id,
            args: BufDesc {
                mr: self.local.mr().0,
                offset: self.arg_off,
                rkey: self.local.rkey(),
                len: encoded.len() as u32,
            },
        };
        let reply = self.call(req_id, &req, Some(&cell), timeout);
        waiter.unregister(unique_id);
        if matches!(reply, Err(MemNodeError::Timeout)) {
            // The compaction may still complete server-side; reclaim it.
            let _ = self.cancel_compact(req_id, timeout.min(Duration::from_secs(5)));
        }
        CompactReply::decode(&reply?)
    }
}

struct WaitCell {
    done: Mutex<bool>,
    cv: Condvar,
}

impl WaitCell {
    fn wait(&self, timeout: Duration) -> bool {
        let mut done = self.done.lock();
        if *done {
            return true;
        }
        // HOTPATH: the same compaction reply wait, signalled by `ImmWaiter`.
        self.cv.wait_for(&mut done, timeout);
        *done
    }

    fn signal(&self) {
        let mut done = self.done.lock();
        *done = true;
        self.cv.notify_all();
    }

    /// Rearm after a stale wake-up so the next [`WaitCell::wait`] blocks.
    fn reset(&self) {
        *self.done.lock() = false;
    }
}

/// The compute-node thread notifier: consumes immediate events from the
/// node's completion channel and wakes the requester registered under the
/// event's unique id (paper Sec. X-D2, "sleep & wake up through RDMA write
/// with immediate").
pub struct ImmWaiter {
    pending: Arc<Mutex<HashMap<u32, Arc<WaitCell>>>>,
    next_id: AtomicU32,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ImmWaiter {
    /// Start the notifier thread for `node`.
    ///
    /// There must be at most one `ImmWaiter` per node: it consumes *all*
    /// immediate events arriving at the node.
    pub fn start(node: Arc<Node>) -> ImmWaiter {
        let pending: Arc<Mutex<HashMap<u32, Arc<WaitCell>>>> = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let pending = Arc::clone(&pending);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match node.recv_imm(Duration::from_millis(20)) {
                        Ok(ev) => {
                            let cell = pending.lock().get(&ev.imm).cloned();
                            if let Some(cell) = cell {
                                cell.signal();
                            }
                        }
                        Err(_) => continue,
                    }
                }
            })
        };
        ImmWaiter { pending, next_id: AtomicU32::new(1), stop, thread: Some(thread) }
    }

    fn register(&self) -> (u32, Arc<WaitCell>) {
        // ORDERING: relaxed — compaction unique-id generation; uniqueness only.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(WaitCell { done: Mutex::new(false), cv: Condvar::new() });
        self.pending.lock().insert(id, Arc::clone(&cell));
        (id, cell)
    }

    fn unregister(&self, id: u32) {
        self.pending.lock().remove(&id);
    }
}

impl Drop for ImmWaiter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{MemServer, MemServerConfig};
    use crate::wire::{InputTable, TableFormat};
    use dlsm_sstable::byte_addr::{ByteAddrBuilder, ByteAddrReader, TableGet, TableMeta};
    use dlsm_sstable::key::{InternalKey, ValueType, MAX_SEQ};
    use dlsm_sstable::source::RegionSource;
    use rdma_sim::NetworkProfile;

    fn cluster() -> (Arc<Fabric>, Arc<Node>, MemServer) {
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let server = MemServer::start(
            &fabric,
            MemServerConfig {
                region_size: 32 << 20,
                flush_zone: 8 << 20,
                compaction_workers: 2,
                dispatchers: 1,
            },
        );
        (fabric, compute, server)
    }

    #[test]
    fn ping_roundtrip() {
        let (fabric, compute, server) = cluster();
        let mut client = RpcClient::new(&fabric, &compute, server.node_id(), 4096).unwrap();
        let reply = client.ping(b"are-you-there", Duration::from_secs(5)).unwrap();
        assert_eq!(reply, b"are-you-there");
        assert!(server.stats().rpcs.load(Ordering::Relaxed) >= 1);
        server.shutdown();
    }

    #[test]
    fn read_write_file() {
        let (fabric, compute, server) = cluster();
        let mut client = RpcClient::new(&fabric, &compute, server.node_id(), 1 << 16).unwrap();
        client.write_file(1024, b"tmpfs-bytes", Duration::from_secs(5)).unwrap();
        let back = client.read_file(1024, 11, Duration::from_secs(5)).unwrap();
        assert_eq!(back, b"tmpfs-bytes");
        server.shutdown();
    }

    #[test]
    fn oversized_read_rejected_client_side() {
        let (fabric, compute, server) = cluster();
        let mut client = RpcClient::new(&fabric, &compute, server.node_id(), 256).unwrap();
        assert!(client.read_file(0, 1024, Duration::from_secs(1)).is_err());
        server.shutdown();
    }

    /// A client on `server` whose retries are counted in the returned stats.
    fn counted(fabric: &Arc<Fabric>, compute: &Arc<Node>, server: &MemServer, buf: usize) -> (RpcClient, Arc<ClientNetStats>) {
        let net = Arc::new(ClientNetStats::default());
        let client = RpcClient::new(fabric, compute, server.node_id(), buf).unwrap().with_net_stats(Arc::clone(&net));
        (client, net)
    }

    /// A request the memory node cannot execute is answered with its error
    /// at once — not with silence the client retries into a timeout.
    #[test]
    fn a_failed_request_is_answered_not_retried() {
        let (fabric, compute, server) = cluster();
        let (mut client, net) = counted(&fabric, &compute, &server, 1 << 16);
        let end = server.region().len() as u64;
        let wait = Duration::from_millis(200);
        let err = client.read_file(end - 4, 64, wait).unwrap_err();
        assert!(matches!(err, MemNodeError::RemoteError(_)), "read past the region: {err:?}");
        let err = client.write_file(end - 4, &[7; 64], wait).unwrap_err();
        assert!(matches!(err, MemNodeError::RemoteError(_)), "write past the region: {err:?}");
        assert_eq!(net.totals(), (0, 0), "an answered error was retried");
        // The errors were not cached: the same region still reads and writes.
        client.write_file(end - 4, b"tail", wait).unwrap();
        assert_eq!(client.read_file(end - 4, 4, wait).unwrap(), b"tail");
        server.shutdown();
    }

    /// A ping whose echo does not fit the reply buffer fails with an error
    /// status: nothing is retried, and nothing undeliverable is cached and
    /// replayed.
    #[test]
    fn an_echo_larger_than_the_reply_buffer_is_refused_at_once() {
        let (fabric, compute, server) = cluster();
        let (mut client, net) = counted(&fabric, &compute, &server, 4096);
        let err = client.ping(&[1; 5000], Duration::from_millis(200)).unwrap_err();
        assert!(
            matches!(&err, MemNodeError::RemoteError(m) if m.contains("exceeds the 4096-byte reply buffer")),
            "{err:?}"
        );
        assert_eq!(net.totals(), (0, 0), "a refused reply was retried");
        assert_eq!(server.stats().replays.load(Ordering::Relaxed), 0, "a reply that never fit was replayed");
        assert_eq!(client.ping(b"small", Duration::from_millis(200)).unwrap(), b"small");
        server.shutdown();
    }

    #[test]
    fn compaction_over_rpc_end_to_end() {
        let (fabric, compute, server) = cluster();
        let waiter = ImmWaiter::start(Arc::clone(&compute));
        let mut client = RpcClient::new(&fabric, &compute, server.node_id(), 1 << 16).unwrap();

        // Stage two overlapping tables in the flush zone via one-sided
        // writes, exactly as a flush would.
        let region = server.region();
        let mut qp = fabric.create_qp(compute.id(), server.node_id()).unwrap();
        let mut stage = |off: u64, entries: &[(&str, u64, ValueType, &str)]| -> (InputTable, TableMeta) {
            let mut b = ByteAddrBuilder::new(Vec::new(), 10);
            for (k, s, t, v) in entries {
                b.add(InternalKey::new(k.as_bytes(), *s, *t).as_bytes(), v.as_bytes()).unwrap();
            }
            let (data, meta) = b.finish();
            qp.write_sync(&data, region.addr(off)).unwrap();
            (InputTable { offset: off, len: data.len() as u64 }, meta)
        };
        let (t1, m1) = stage(0, &[("alpha", 20, ValueType::Value, "new"), ("beta", 21, ValueType::Deletion, "")]);
        let (t2, m2) = stage(
            4096,
            &[("alpha", 5, ValueType::Value, "old"), ("beta", 6, ValueType::Value, "dead"), ("gamma", 7, ValueType::Value, "keep")],
        );

        let args = CompactArgs {
            format: TableFormat::ByteAddr,
            smallest_snapshot: MAX_SEQ,
            drop_deletions: true,
            max_output_bytes: 64 << 20,
            bits_per_key: 10,
            range_lo: vec![],
            range_hi: vec![],
            inputs: vec![t1, t2],
        };
        let reply = client.compact(&args, &waiter, Duration::from_secs(10)).unwrap();
        assert_eq!(reply.records_in, 5);
        assert_eq!(reply.records_out, 2);
        assert_eq!(reply.outputs.len(), 1);

        // The output must live in the compaction zone, and the reply says
        // enough for the requester to derive its index from the inputs'.
        let out = &reply.outputs[0];
        assert!(out.offset >= server.flush_zone());
        let bloom = dlsm_sstable::BloomFilter::decode(&out.meta).unwrap();
        let inputs = [(&m1, 0..2), (&m2, 0..3)];
        let meta = TableMeta::replay_merge(&inputs, &reply.steps, [(out.records, out.len, bloom)], |_, _, _| ()).unwrap().remove(0);
        let reader = ByteAddrReader::new(
            Arc::new(meta),
            RegionSource::new(Arc::clone(region), out.offset, out.len),
        );
        assert_eq!(reader.get(b"alpha", MAX_SEQ).unwrap(), TableGet::Found(b"new".to_vec()));
        assert_eq!(reader.get(b"beta", MAX_SEQ).unwrap(), TableGet::NotFound);
        assert_eq!(reader.get(b"gamma", MAX_SEQ).unwrap(), TableGet::Found(b"keep".to_vec()));

        // GC the output via the batched free RPC.
        let used_before = server.compaction_zone_in_use();
        client.free_batch(&[(out.offset, out.len.next_multiple_of(8))], Duration::from_secs(5)).unwrap();
        assert!(server.compaction_zone_in_use() < used_before);
        server.shutdown();
    }

    #[test]
    fn concurrent_compactions_use_worker_pool() {
        let (fabric, compute, server) = cluster();
        let waiter = Arc::new(ImmWaiter::start(Arc::clone(&compute)));
        let region = server.region();

        // Stage several disjoint single-entry tables.
        let mut qp = fabric.create_qp(compute.id(), server.node_id()).unwrap();
        let mut tables = Vec::new();
        for i in 0..6u64 {
            let mut b = ByteAddrBuilder::new(Vec::new(), 10);
            b.add(
                InternalKey::new(format!("k{i}").as_bytes(), 1, ValueType::Value).as_bytes(),
                b"v",
            )
            .unwrap();
            let (data, _) = b.finish();
            let off = i * 4096;
            qp.write_sync(&data, region.addr(off)).unwrap();
            tables.push(InputTable { offset: off, len: data.len() as u64 });
        }

        let mut handles = Vec::new();
        for t in tables {
            let fabric = Arc::clone(&fabric);
            let compute = Arc::clone(&compute);
            let waiter = Arc::clone(&waiter);
            let target = server.node_id();
            handles.push(std::thread::spawn(move || {
                let mut client = RpcClient::new(&fabric, &compute, target, 1 << 16).unwrap();
                let args = CompactArgs {
                    format: TableFormat::ByteAddr,
                    smallest_snapshot: MAX_SEQ,
                    drop_deletions: true,
                    max_output_bytes: 1 << 20,
                    bits_per_key: 10,
                    range_lo: vec![],
                    range_hi: vec![],
                    inputs: vec![t],
                };
                client.compact(&args, &waiter, Duration::from_secs(10)).unwrap()
            }));
        }
        for h in handles {
            let reply = h.join().unwrap();
            assert_eq!(reply.records_out, 1);
        }
        assert_eq!(server.stats().compactions.load(Ordering::Relaxed), 6);
        server.shutdown();
    }

    #[test]
    fn compaction_error_is_reported() {
        let (fabric, compute, server) = cluster();
        let waiter = ImmWaiter::start(Arc::clone(&compute));
        let mut client = RpcClient::new(&fabric, &compute, server.node_id(), 1 << 16).unwrap();
        // Input "table" of garbage bytes: the merge must fail and the error
        // must come back over the reply path rather than hanging.
        let args = CompactArgs {
            format: TableFormat::Block(4096),
            smallest_snapshot: MAX_SEQ,
            drop_deletions: false,
            max_output_bytes: 1 << 20,
            bits_per_key: 10,
            range_lo: vec![],
            range_hi: vec![],
            inputs: vec![InputTable { offset: 0, len: 128 }],
        };
        let err = client.compact(&args, &waiter, Duration::from_secs(10)).unwrap_err();
        assert!(matches!(err, MemNodeError::RemoteError(_)), "got {err:?}");
        server.shutdown();
    }

    #[test]
    fn rpc_survives_lossy_fabric() {
        use rdma_sim::{ChaosPlan, Verb};
        let (fabric, compute, server) = cluster();
        let seed = 0xD15A57E4u64;
        let plan =
            ChaosPlan::new(seed).drop(Verb::Send, 0.15).drop(Verb::Write, 0.10).drop(Verb::FetchAdd, 0.10);
        fabric.set_fault_hook(Some(Arc::new(plan)));
        let (client, net) = counted(&fabric, &compute, &server, 4096);
        let mut client = client
            .with_policy(RetryPolicy {
                max_attempts: 25,
                backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(8),
                reconnect_after: 5,
                attempt_timeout: None,
            });
        for i in 0..30u32 {
            let msg = i.to_le_bytes();
            let reply = client
                .ping(&msg, Duration::from_millis(250))
                .unwrap_or_else(|e| panic!("ping {i} failed under seed {seed:#x}: {e}"));
            assert_eq!(reply, msg, "wrong echo under seed {seed:#x}");
        }
        fabric.set_fault_hook(None);
        assert!(net.totals().0 > 0, "a 15% send-drop rate over 30 pings must cause retries");
        server.shutdown();
    }

    #[test]
    fn delayed_request_is_deduped_not_reexecuted() {
        use rdma_sim::{FaultHook, OpContext, Verb};
        use std::sync::atomic::AtomicU64;

        // Delay only the first SEND long enough that the client retries;
        // the original still arrives later as a duplicate.
        struct DelayFirstSend {
            remaining: AtomicU64,
        }
        impl FaultHook for DelayFirstSend {
            fn delay(&self, ctx: &OpContext) -> Duration {
                let first = ctx.verb == Verb::Send
                    && self
                        .remaining
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                        .is_ok();
                if first {
                    Duration::from_millis(200)
                } else {
                    Duration::ZERO
                }
            }
        }

        let (fabric, compute, server) = cluster();
        fabric.set_fault_hook(Some(Arc::new(DelayFirstSend { remaining: AtomicU64::new(1) })));
        let (client, net) = counted(&fabric, &compute, &server, 4096);
        let mut client = client
            .with_policy(RetryPolicy {
                max_attempts: 10,
                backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(16),
                reconnect_after: 0,
                attempt_timeout: None,
            });
        let reply = client.ping(b"dedup-me", Duration::from_millis(50)).unwrap();
        assert_eq!(reply, b"dedup-me");
        assert!(net.totals().0 >= 1, "the delayed first attempt must have timed out");
        fabric.set_fault_hook(None);
        // The late duplicate(s) must be answered from the dedup window, not
        // executed again.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().replays.load(Ordering::Relaxed)
            + server.stats().dup_dropped.load(Ordering::Relaxed)
            == 0
        {
            assert!(Instant::now() < deadline, "duplicate was never detected");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }

    #[test]
    fn client_survives_memnode_crash_and_restart() {
        let (fabric, compute, mut server) = cluster();
        let (client, net) = counted(&fabric, &compute, &server, 4096);
        let mut client = client
            .with_policy(RetryPolicy {
                max_attempts: 40,
                backoff: Duration::from_millis(4),
                max_backoff: Duration::from_millis(25),
                reconnect_after: 3,
                attempt_timeout: None,
            });
        assert_eq!(client.ping(b"before", Duration::from_secs(5)).unwrap(), b"before");

        server.crash();
        assert!(server.is_crashed());
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            server.restart();
            server
        });
        // Pings issued while the node is down must ride the retry loop
        // (including a reconnect) until the node is back.
        let reply = client.ping(b"after-crash", Duration::from_millis(60)).unwrap();
        assert_eq!(reply, b"after-crash");
        let server = handle.join().unwrap();
        assert_eq!(server.stats().restarts.load(Ordering::Relaxed), 1);
        assert!(net.totals().0 >= 1, "pinging a crashed node must require retries");
        server.shutdown();
    }
}
