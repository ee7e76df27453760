//! The memory-node server: dispatcher, compaction workers, GC, statistics.
//!
//! One [`MemServer`] owns a node on the fabric, a single large registered
//! region (paper Sec. X-B: register once, sub-allocate in user space) split
//! into the compute-controlled **flush zone** and the server-controlled
//! **compaction zone**, and two thread pools:
//!
//! * **dispatchers** drain the node's inbox and answer general-purpose RPCs
//!   inline, writing replies one-sided into the requester's polling buffer
//!   so the reply path bypasses any requester-side dispatcher (Sec. X-D1);
//! * **compaction workers** (the remote-CPU-core budget of Fig. 12) pull
//!   compaction jobs from a queue, RDMA-read the argument from the
//!   requester, run the merge against local DRAM, and reply with a
//!   WRITE-with-IMMEDIATE that wakes the sleeping requester (Sec. X-D2).
//!
//! Because clients retry timed-out calls, every request carries a request
//! id and the server keeps a per-client [`DedupMap`]: a duplicate of an
//! in-flight request is dropped, a duplicate of a completed request replays
//! the cached reply without re-executing (at-most-once execution for
//! non-idempotent ops like `FreeBatch` and `Compact`), and a
//! `CancelCompact` reclaims the outputs of a compaction whose requester
//! gave up — so a lost RPC can never leak a compaction-zone extent.
//!
//! [`MemServer::crash`] / [`MemServer::restart`] model a memory-node
//! failure: threads stop and in-flight messages are lost, but the
//! registered region — the disaggregated DRAM itself — survives, as do the
//! allocator and dedup window backed by it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rdma_sim::{Fabric, MemoryRegion, Node, NodeId, QueuePair};

use crate::alloc::RegionAllocator;
use crate::compactor::execute_compaction;
use crate::wire::{BufDesc, CompactArgs, ReplyFrame, Request};
use crate::{MemNodeError, Result};

/// How long the server waits for one of its own reply-path completions.
/// Legitimate completions arrive in microseconds in the simulator; a
/// dropped completion should stall a dispatcher briefly, not for the
/// client-visible timeout (the client's retry recovers the reply anyway).
const REPLY_POLL: Duration = Duration::from_millis(500);

/// How long a compaction worker waits for the RDMA read of a job's argument
/// block. Bounded so a blackholed fabric (crash window) cannot pin a worker
/// for long while `crash()` drains the job queue; the requester's retry or
/// `CancelCompact` handles the failed job.
const ARG_READ_POLL: Duration = Duration::from_secs(1);

/// Configuration for one memory node.
#[derive(Debug, Clone)]
pub struct MemServerConfig {
    /// Total registered region size in bytes.
    pub region_size: usize,
    /// Prefix of the region whose allocation the *compute node* controls
    /// (MemTable flush targets). The remainder is the compaction zone.
    pub flush_zone: u64,
    /// Remote CPU cores devoted to near-data compaction (Fig. 12 knob).
    pub compaction_workers: usize,
    /// Dispatcher threads draining the RPC inbox.
    pub dispatchers: usize,
}

impl Default for MemServerConfig {
    fn default() -> Self {
        MemServerConfig {
            region_size: 256 << 20,
            flush_zone: 96 << 20,
            compaction_workers: 4,
            dispatchers: 1,
        }
    }
}

/// Counters exported by a [`MemServer`].
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Nanoseconds compaction workers spent executing merges.
    pub busy_nanos: AtomicU64,
    /// Compactions completed.
    pub compactions: AtomicU64,
    /// Records read by compactions.
    pub records_in: AtomicU64,
    /// Records written by compactions.
    pub records_out: AtomicU64,
    /// Extents freed via the GC RPC.
    pub freed_extents: AtomicU64,
    /// General-purpose RPCs served.
    pub rpcs: AtomicU64,
    /// Compactions that failed (error status replied).
    pub failures: AtomicU64,
    /// Cached replies re-delivered for retried requests.
    pub replays: AtomicU64,
    /// Duplicate requests dropped because the original is still running.
    pub dup_dropped: AtomicU64,
    /// Compactions canceled (outputs reclaimed) via `CancelCompact`.
    pub canceled: AtomicU64,
    /// Times the server was restarted after a crash.
    pub restarts: AtomicU64,
    /// Service time of general RPCs handled inline by a dispatcher
    /// (decode + dedup + execute + reply delivery), nanoseconds.
    pub dispatch: dlsm_telemetry::Histogram,
    /// Wall time per near-data compaction merge (`execute_compaction`),
    /// nanoseconds — the histogram twin of `busy_nanos`.
    pub merge: dlsm_telemetry::Histogram,
}

impl ServerStats {
    /// Average remote CPU utilization over `wall` given `workers` cores,
    /// measured from a `busy_nanos` delta.
    pub fn utilization(busy_delta_nanos: u64, workers: usize, wall: Duration) -> f64 {
        if wall.is_zero() || workers == 0 {
            return 0.0;
        }
        busy_delta_nanos as f64 / (workers as f64 * wall.as_nanos() as f64)
    }
}

/// A reply the server remembers so a retried request can be answered
/// without re-executing.
#[derive(Debug, Clone)]
pub struct CachedReply {
    /// The framed payload as delivered (for compactions this includes the
    /// leading status byte).
    pub payload: Vec<u8>,
    /// Compaction-zone extents owned by this reply's outputs; freed if the
    /// request is canceled instead of acknowledged.
    pub extents: Vec<(u64, u64)>,
    /// Whether the reply is delivered compaction-style (WRITE-with-IMM).
    pub compact: bool,
}

enum Entry {
    /// Executing right now (or queued for a worker).
    InFlight,
    /// The requester gave up; if the request (or its result) shows up,
    /// drop it and reclaim any outputs.
    Canceled,
    /// Finished; reply cached for replay.
    Done(CachedReply),
}

#[derive(Default)]
struct ClientWindow {
    entries: HashMap<u64, Entry>,
    max_seen: u64,
}

/// What the dispatcher should do with an arriving request.
pub enum DedupDecision {
    /// First sighting: execute it.
    Execute,
    /// Duplicate of a request still executing (or canceled): drop it.
    InFlight,
    /// Duplicate of a completed request: re-deliver the cached reply.
    Replay(CachedReply),
}

/// Per-client at-most-once window keyed by `(client node, request id)`.
///
/// Completed and canceled entries older than `window` ids behind the
/// newest are pruned; in-flight entries are never pruned (a slow
/// compaction must not lose its entry and run twice).
pub struct DedupMap {
    window: u64,
    clients: Mutex<HashMap<NodeId, ClientWindow>>,
}

impl DedupMap {
    /// Create a map remembering roughly `window` recent requests per client.
    pub fn new(window: u64) -> DedupMap {
        DedupMap { window: window.max(1), clients: Mutex::new(HashMap::new()) }
    }

    /// Record the arrival of `(client, req_id)` and decide how to handle it.
    pub fn begin(&self, client: NodeId, req_id: u64) -> DedupDecision {
        let mut clients = self.clients.lock();
        let win = clients.entry(client).or_default();
        match win.entries.get(&req_id) {
            Some(Entry::InFlight) | Some(Entry::Canceled) => DedupDecision::InFlight,
            Some(Entry::Done(r)) => DedupDecision::Replay(r.clone()),
            None => {
                win.entries.insert(req_id, Entry::InFlight);
                win.max_seen = win.max_seen.max(req_id);
                let (window, max_seen) = (self.window, win.max_seen);
                win.entries.retain(|id, e| {
                    matches!(e, Entry::InFlight) || id.saturating_add(window) >= max_seen
                });
                DedupDecision::Execute
            }
        }
    }

    /// Record a successful execution. Returns `false` if the request was
    /// canceled while executing — the caller must free `reply.extents` and
    /// must not deliver the reply.
    pub fn complete(&self, client: NodeId, req_id: u64, reply: CachedReply) -> bool {
        let mut clients = self.clients.lock();
        let win = clients.entry(client).or_default();
        match win.entries.get(&req_id) {
            Some(Entry::Canceled) => false,
            _ => {
                win.entries.insert(req_id, Entry::Done(reply));
                true
            }
        }
    }

    /// Record a failed execution. The entry is removed so a retry
    /// re-executes (errors are never cached).
    pub fn abort(&self, client: NodeId, req_id: u64) {
        let mut clients = self.clients.lock();
        if let Some(win) = clients.get_mut(&client) {
            if matches!(win.entries.get(&req_id), Some(Entry::InFlight)) {
                win.entries.remove(&req_id);
            }
        }
    }

    /// Cancel `(client, target)`. If the request already completed, its
    /// cached reply is returned so the caller can free the extents it owns;
    /// in every case a tombstone remains so the request can never execute
    /// (or deliver) later.
    pub fn cancel(&self, client: NodeId, target: u64) -> Option<CachedReply> {
        let mut clients = self.clients.lock();
        let win = clients.entry(client).or_default();
        win.max_seen = win.max_seen.max(target);
        match win.entries.insert(target, Entry::Canceled) {
            Some(Entry::Done(r)) => Some(r),
            _ => None,
        }
    }

    /// Drop all in-flight entries (crash recovery: the work they tracked
    /// died with the server's threads, so retries must re-execute).
    pub fn sweep_in_flight(&self) {
        let mut clients = self.clients.lock();
        for win in clients.values_mut() {
            win.entries.retain(|_, e| !matches!(e, Entry::InFlight));
        }
    }

    /// Total remembered entries across all client windows (in-flight,
    /// canceled, and cached replies) — the dedup-state footprint gauge.
    pub fn len(&self) -> usize {
        self.clients.lock().values().map(|w| w.entries.len()).sum()
    }

    /// True when no client window remembers anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct CompactJob {
    src: NodeId,
    req_id: u64,
    reply: BufDesc,
    unique_id: u32,
    args: BufDesc,
    /// Requester's trace context (wire header v2), if it sent one.
    trace: Option<dlsm_trace::TraceCtx>,
}

/// A running memory node.
pub struct MemServer {
    fabric: Arc<Fabric>,
    node: Arc<Node>,
    region: Arc<MemoryRegion>,
    cfg: MemServerConfig,
    allocator: Arc<RegionAllocator>,
    stats: Arc<ServerStats>,
    dedup: Arc<DedupMap>,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    crashed: bool,
}

#[allow(clippy::too_many_arguments)]
fn spawn_threads(
    fabric: &Arc<Fabric>,
    node: &Arc<Node>,
    region: &Arc<MemoryRegion>,
    allocator: &Arc<RegionAllocator>,
    stats: &Arc<ServerStats>,
    dedup: &Arc<DedupMap>,
    stop: &Arc<AtomicBool>,
    cfg: &MemServerConfig,
) -> Vec<std::thread::JoinHandle<()>> {
    let (tx, rx) = unbounded::<CompactJob>();
    let mut threads = Vec::new();
    for _ in 0..cfg.dispatchers.max(1) {
        let ctx = DispatchCtx {
            fabric: Arc::clone(fabric),
            node: Arc::clone(node),
            region: Arc::clone(region),
            allocator: Arc::clone(allocator),
            stats: Arc::clone(stats),
            dedup: Arc::clone(dedup),
            stop: Arc::clone(stop),
            compact_tx: tx.clone(),
        };
        threads.push(std::thread::spawn(move || dispatcher_loop(ctx)));
    }
    drop(tx);
    for _ in 0..cfg.compaction_workers.max(1) {
        let ctx = WorkerCtx {
            fabric: Arc::clone(fabric),
            node_id: node.id(),
            region: Arc::clone(region),
            allocator: Arc::clone(allocator),
            stats: Arc::clone(stats),
            dedup: Arc::clone(dedup),
            rx: rx.clone(),
        };
        threads.push(std::thread::spawn(move || worker_loop(ctx)));
    }
    drop(rx);
    threads
}

impl MemServer {
    /// Create a node on `fabric`, register its region, and start dispatcher
    /// and worker threads.
    pub fn start(fabric: &Arc<Fabric>, cfg: MemServerConfig) -> MemServer {
        // PANIC-SAFE: start-up argument check, before any thread exists.
        assert!(cfg.flush_zone <= cfg.region_size as u64, "flush zone exceeds region");
        let node = fabric.add_node();
        let region = node.register_region(cfg.region_size);
        let allocator = Arc::new(RegionAllocator::new(
            cfg.flush_zone,
            cfg.region_size as u64 - cfg.flush_zone,
        ));
        let stats = Arc::new(ServerStats::default());
        let dedup = Arc::new(DedupMap::new(1024));
        let stop = Arc::new(AtomicBool::new(false));
        let threads =
            spawn_threads(fabric, &node, &region, &allocator, &stats, &dedup, &stop, &cfg);
        MemServer {
            fabric: Arc::clone(fabric),
            node,
            region,
            cfg,
            allocator,
            stats,
            dedup,
            stop,
            threads,
            crashed: false,
        }
    }

    /// This server's node id (RPC target for clients).
    pub fn node_id(&self) -> NodeId {
        self.node.id()
    }

    /// The server's registered region (clients address SSTables within it).
    pub fn region(&self) -> &Arc<MemoryRegion> {
        &self.region
    }

    /// Length of the compute-controlled flush zone.
    pub fn flush_zone(&self) -> u64 {
        self.cfg.flush_zone
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &MemServerConfig {
        &self.cfg
    }

    /// Server-side counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// A point-in-time telemetry snapshot: dispatch/merge latency
    /// histograms plus every counter, all under a `server_` prefix so the
    /// snapshot can be merged with compute-side ones without collisions.
    pub fn telemetry_snapshot(&self) -> dlsm_telemetry::TelemetrySnapshot {
        let st = &self.stats;
        let mut s = dlsm_telemetry::TelemetrySnapshot::new();
        s.set_breakdown("server_dispatch", st.dispatch.snapshot());
        s.set_breakdown("server_compact_merge", st.merge.snapshot());
        for (name, counter) in [
            ("server_busy_nanos", &st.busy_nanos),
            ("server_compactions", &st.compactions),
            ("server_records_in", &st.records_in),
            ("server_records_out", &st.records_out),
            ("server_freed_extents", &st.freed_extents),
            ("server_rpcs", &st.rpcs),
            ("server_failures", &st.failures),
            ("server_replays", &st.replays),
            ("server_dup_dropped", &st.dup_dropped),
            ("server_canceled", &st.canceled),
            ("server_restarts", &st.restarts),
        ] {
            // ORDERING: relaxed — stats-report read of a monotonic counter.
            s.set_counter(name, counter.load(Ordering::Relaxed));
        }
        s
    }

    /// The at-most-once request window.
    pub fn dedup(&self) -> &Arc<DedupMap> {
        &self.dedup
    }

    /// Register this server's live state with a metrics registry: region
    /// utilization split CN-controlled (flush zone) vs MN-controlled
    /// (compaction zone), dedup-window footprint, and every `server_*`
    /// counter and latency histogram, all labeled with the node id.
    ///
    /// The collector captures `Arc`s of the allocator/stats/dedup state,
    /// which [`MemServer::crash`]/[`MemServer::restart`] preserve — so a
    /// registered collector stays accurate across a crash cycle.
    pub fn register_metrics(&self, reg: &dlsm_metrics::MetricsRegistry) {
        let node = self.node.id().0.to_string();
        let allocator = Arc::clone(&self.allocator);
        let stats = Arc::clone(&self.stats);
        let dedup = Arc::clone(&self.dedup);
        let region_size = self.cfg.region_size as u64;
        let flush_zone = self.cfg.flush_zone;
        reg.register(move |out: &mut dlsm_metrics::Sample| {
            let labels: &[(&'static str, &str)] = &[("node", node.as_str())];
            out.gauge_with("memnode_region_bytes", labels, region_size as f64);
            // CN-controlled zone: capacity only — the *used* figure lives on
            // the compute node (its window's RegionAllocator), exported as
            // dlsm_flush_zone_used_bytes by Db collectors.
            out.gauge_with("memnode_flush_zone_bytes", labels, flush_zone as f64);
            out.gauge_with(
                "memnode_compaction_zone_used_bytes",
                labels,
                allocator.in_use() as f64,
            );
            out.gauge_with(
                "memnode_compaction_zone_capacity_bytes",
                labels,
                allocator.capacity() as f64,
            );
            out.gauge_with(
                "memnode_compaction_zone_fragments",
                labels,
                allocator.fragments() as f64,
            );
            out.gauge_with("memnode_dedup_entries", labels, dedup.len() as f64);

            for (name, counter) in [
                ("memnode_server_busy_nanos", &stats.busy_nanos),
                ("memnode_server_compactions", &stats.compactions),
                ("memnode_server_records_in", &stats.records_in),
                ("memnode_server_records_out", &stats.records_out),
                ("memnode_server_freed_extents", &stats.freed_extents),
                ("memnode_server_rpcs", &stats.rpcs),
                ("memnode_server_failures", &stats.failures),
                ("memnode_server_replays", &stats.replays),
                ("memnode_server_dup_dropped", &stats.dup_dropped),
                ("memnode_server_canceled", &stats.canceled),
                ("memnode_server_restarts", &stats.restarts),
            ] {
                // ORDERING: relaxed — Prometheus-export read of a monotonic counter.
                out.counter_with(name, labels, counter.load(Ordering::Relaxed));
            }
            for (stage, h) in [
                ("server_dispatch", stats.dispatch.snapshot()),
                ("server_compact_merge", stats.merge.snapshot()),
            ] {
                out.hist_with(
                    "memnode_breakdown_latency_ns",
                    &[("node", node.as_str()), ("stage", stage)],
                    h,
                );
            }
        });
    }

    /// Serve a Prometheus scrape of this server's metrics on `addr` (pass
    /// port 0 for an ephemeral port; read it back from the returned
    /// server's `local_addr()`).
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<dlsm_metrics::MetricsServer> {
        let reg = dlsm_metrics::MetricsRegistry::new();
        self.register_metrics(&reg);
        dlsm_metrics::serve(reg, addr)
    }

    /// Bytes in use in the compaction zone.
    pub fn compaction_zone_in_use(&self) -> u64 {
        self.allocator.in_use()
    }

    /// The fabric this server is attached to.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Whether the server is currently crashed (threads stopped).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Crash the memory node's *service*: stop every thread. Queued
    /// compactions drain first (thread-level stop is graceful); the
    /// abruptness of a real failure is modeled at the fabric level by
    /// blackholing the node with a
    /// [`rdma_sim::ChaosPlan::crash_window`]. The registered region — the
    /// disaggregated DRAM — and the allocator/dedup state backed by it
    /// survive for [`MemServer::restart`].
    pub fn crash(&mut self) {
        if self.crashed {
            return;
        }
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Anything the threads were tracking died with them; retried
        // requests must re-execute rather than wait forever.
        self.dedup.sweep_in_flight();
        self.crashed = true;
    }

    /// Restart after [`MemServer::crash`]: messages that arrived while the
    /// node was down are lost (clients retry), then fresh dispatcher and
    /// worker threads come up over the preserved region.
    pub fn restart(&mut self) {
        if !self.crashed {
            return;
        }
        // HOTPATH: a zero timeout drains the inboxes without waiting.
        while self.node.recv(Duration::ZERO).is_ok() {}
        while self.node.recv_imm(Duration::ZERO).is_ok() {}
        self.stop = Arc::new(AtomicBool::new(false));
        self.threads = spawn_threads(
            &self.fabric,
            &self.node,
            &self.region,
            &self.allocator,
            &self.stats,
            &self.dedup,
            &self.stop,
            &self.cfg,
        );
        // ORDERING: relaxed — restart counter; reporting only.
        self.stats.restarts.fetch_add(1, Ordering::Relaxed);
        self.crashed = false;
    }

    /// Stop all threads and wait for them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for MemServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

struct DispatchCtx {
    fabric: Arc<Fabric>,
    node: Arc<Node>,
    region: Arc<MemoryRegion>,
    allocator: Arc<RegionAllocator>,
    stats: Arc<ServerStats>,
    dedup: Arc<DedupMap>,
    stop: Arc<AtomicBool>,
    compact_tx: Sender<CompactJob>,
}

/// Write a [`ReplyFrame`] into the requester's reply buffer, then bump the
/// completion flag (the last word of the buffer) with a remote atomic.
///
/// The payload write is awaited *before* the flag is raised so a poller can
/// never observe the flag without the payload (in the simulator, payload
/// bytes land at post time but the flag is only bumped after the payload's
/// completion deadline has passed — mirroring real RDMA's in-order delivery
/// within a queue pair).
fn reply_general(
    qp: &mut QueuePair,
    reply: &BufDesc,
    region_of: &Arc<Node>,
    req_id: u64,
    payload: &[u8],
) -> Result<()> {
    let target = region_of.region(rdma_sim::MrId(reply.mr))?;
    let base = target.addr(reply.offset);
    // rkey comes from the descriptor, not the region lookup: enforce it.
    let base = rdma_sim::RemoteAddr { rkey: reply.rkey, ..base };
    if payload.len() + ReplyFrame::HEADER + 8 > reply.len as usize {
        return Err(MemNodeError::BadMessage(format!(
            "reply of {} bytes exceeds reply buffer of {}",
            payload.len(),
            reply.len
        )));
    }
    let framed = ReplyFrame::encode(req_id, payload);
    qp.post_write(&framed, base, 1)?;
    // Await the payload before raising the flag.
    qp.poll_one_blocking(REPLY_POLL)?;
    let flag_addr = base.add(u64::from(reply.len) - 8);
    qp.fetch_add(flag_addr, 1)?;
    Ok(())
}

/// The longest body a reply buffer takes, between frame header and flag word.
fn reply_room(reply: &BufDesc) -> usize {
    (reply.len as usize).saturating_sub(ReplyFrame::HEADER + 8)
}

/// Deliver a compaction-style reply: frame one-sided into the requester's
/// reply buffer, then WRITE-with-IMMEDIATE carrying `unique_id` to wake
/// the sleeping requester. `body` is `[status u8][payload]`. The requester
/// sleeps until it is answered, so it always is: a body its buffer cannot
/// take goes as an error status, cut to what the buffer does take.
#[allow(clippy::too_many_arguments)]
fn deliver_compact_reply(
    fabric: &Arc<Fabric>,
    local: NodeId,
    qps: &mut HashMap<NodeId, QueuePair>,
    src: NodeId,
    req_id: u64,
    reply: &BufDesc,
    unique_id: u32,
    body: &[u8],
) -> Result<()> {
    let qp = qp_for(fabric, local, src, qps)?;
    let requester = fabric.node(src)?;
    let target = requester.region(rdma_sim::MrId(reply.mr))?;
    let base = rdma_sim::RemoteAddr { rkey: reply.rkey, ..target.addr(reply.offset) };
    const REFUSAL: &[u8] = b"\x01compaction reply exceeds the reply buffer";
    let room = reply_room(reply);
    let body = if body.len() > room { &REFUSAL[..REFUSAL.len().min(room)] } else { body };
    let framed = ReplyFrame::encode(req_id, body);
    qp.post_write(&framed, base, 1)?;
    qp.poll_one_blocking(REPLY_POLL)?;
    // The immediate wakes the requester; the written word is unused.
    let flag_addr = base.add(u64::from(reply.len) - 8);
    qp.post_write_imm(&1u64.to_le_bytes(), flag_addr, unique_id, 2)?;
    qp.poll_one_blocking(REPLY_POLL)?;
    Ok(())
}

fn dispatcher_loop(ctx: DispatchCtx) {
    dlsm_trace::set_thread_node(u64::from(ctx.node.id().0) + 1, "memnode");
    let mut qps: HashMap<NodeId, QueuePair> = HashMap::new();
    while !ctx.stop.load(Ordering::Acquire) {
        // HOTPATH: a memory-node dispatcher thread waits for requests; the
        // timeout rechecks `stop`.
        let msg = match ctx.node.recv(Duration::from_millis(20)) {
            Ok(m) => m,
            Err(_) => continue,
        };
        // ORDERING: relaxed — RPC stats counter; reporting only.
        ctx.stats.rpcs.fetch_add(1, Ordering::Relaxed);
        let (req_id, trace, req) = match Request::decode_with_ctx(&msg.payload) {
            Ok(r) => r,
            Err(_) => continue, // malformed: drop (client times out)
        };
        let src = msg.src;
        match ctx.dedup.begin(src, req_id) {
            DedupDecision::Execute => {}
            DedupDecision::InFlight => {
                // ORDERING: relaxed — dedup/replay counters; reporting only.
                ctx.stats.dup_dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            DedupDecision::Replay(cached) => {
                // ORDERING: relaxed — dedup/replay counters; reporting only.
                ctx.stats.replays.fetch_add(1, Ordering::Relaxed);
                // Re-deliver into *this* request's reply buffer (the
                // retrying client may have reconnected).
                let reply = req.reply_desc();
                let result = if cached.compact {
                    let unique_id = match req {
                        Request::Compact { unique_id, .. } => unique_id,
                        _ => 0,
                    };
                    deliver_compact_reply(
                        &ctx.fabric,
                        ctx.node.id(),
                        &mut qps,
                        src,
                        req_id,
                        &reply,
                        unique_id,
                        &cached.payload,
                    )
                } else {
                    (|| {
                        let requester = ctx.fabric.node(src)?;
                        let qp = qp_for(&ctx.fabric, ctx.node.id(), src, &mut qps)?;
                        reply_general(qp, &reply, &requester, req_id, &cached.payload)
                    })()
                };
                if let Err(e) = result {
                    eprintln!("memnode: replay delivery failed: {e}");
                    // ORDERING: relaxed — failure counter; reporting only.
                    ctx.stats.failures.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
        }
        // Compactions are long-running: hand to the core-budgeted worker
        // pool (the dedup entry stays in-flight until the worker finishes).
        if let Request::Compact { reply, unique_id, args } = req {
            let _ = ctx.compact_tx.send(CompactJob { src, req_id, reply, unique_id, args, trace });
            continue;
        }
        // Server-side dispatch span: a child of the compute-node RPC span
        // that sent this request (when the v2 header carried its context).
        let _sp = match trace {
            Some(c) => dlsm_trace::span_child_of(dlsm_trace::Category::Server, "server_dispatch", c),
            None => dlsm_trace::span(dlsm_trace::Category::Server, "server_dispatch"),
        };
        let reply = req.reply_desc();
        let t_serve = Instant::now();
        let executed: Result<Vec<u8>> = (|| match req {
            Request::Ping { payload, .. } => Ok(payload),
            Request::FreeBatch { extents, .. } => {
                for (off, len) in &extents {
                    ctx.allocator.free(*off, *len);
                    // ORDERING: relaxed — freed-extent counter; reporting only.
                    ctx.stats.freed_extents.fetch_add(1, Ordering::Relaxed);
                }
                Ok(vec![0u8])
            }
            Request::ReadFile { offset, len, .. } => {
                // tmpfs-style read: copy out of the region into the
                // reply (the extra memory copy the paper blames on the
                // Nova-LSM read path).
                let mut data = vec![0u8; len as usize];
                ctx.region.local_read(offset, &mut data)?;
                Ok(data)
            }
            Request::WriteFile { offset, data, .. } => {
                ctx.region.local_write(offset, &data)?;
                Ok(vec![0u8])
            }
            Request::CancelCompact { target, .. } => {
                if let Some(cached) = ctx.dedup.cancel(src, target) {
                    for (off, len) in &cached.extents {
                        ctx.allocator.free(*off, *len);
                    }
                }
                // ORDERING: relaxed — cancel counter; reporting only.
                ctx.stats.canceled.fetch_add(1, Ordering::Relaxed);
                Ok(vec![0u8])
            }
            // PANIC-SAFE: `Compact` went to the worker pool and `continue`d above.
            Request::Compact { .. } => unreachable!("handled above"),
        })();
        let result: Result<()> = match executed {
            Ok(payload) => {
                let cached =
                    CachedReply { payload: payload.clone(), extents: Vec::new(), compact: false };
                if ctx.dedup.complete(src, req_id, cached) {
                    (|| {
                        let requester = ctx.fabric.node(src)?;
                        let qp = qp_for(&ctx.fabric, ctx.node.id(), src, &mut qps)?;
                        reply_general(qp, &reply, &requester, req_id, &payload)
                    })()
                } else {
                    Ok(()) // canceled: no delivery
                }
            }
            Err(e) => {
                // Errors are never cached; a retry re-executes.
                ctx.dedup.abort(src, req_id);
                Err(e)
            }
        };
        if let Err(e) = result {
            eprintln!("memnode: rpc dispatch failed: {e}");
            // ORDERING: relaxed — failure counter; reporting only.
            ctx.stats.failures.fetch_add(1, Ordering::Relaxed);
        }
        ctx.stats.dispatch.record_elapsed(t_serve.elapsed());
    }
}

fn qp_for<'a>(
    fabric: &Arc<Fabric>,
    local: NodeId,
    remote: NodeId,
    qps: &'a mut HashMap<NodeId, QueuePair>,
) -> Result<&'a mut QueuePair> {
    if let std::collections::hash_map::Entry::Vacant(e) = qps.entry(remote) {
        e.insert(fabric.create_qp(local, remote)?);
    }
    // PANIC-SAFE: a vacant entry was filled just above.
    Ok(qps.get_mut(&remote).expect("just inserted"))
}

struct WorkerCtx {
    fabric: Arc<Fabric>,
    node_id: NodeId,
    region: Arc<MemoryRegion>,
    allocator: Arc<RegionAllocator>,
    stats: Arc<ServerStats>,
    dedup: Arc<DedupMap>,
    rx: Receiver<CompactJob>,
}

fn worker_loop(ctx: WorkerCtx) {
    dlsm_trace::set_thread_node(u64::from(ctx.node_id.0) + 1, "memnode");
    let mut qps: HashMap<NodeId, QueuePair> = HashMap::new();
    // Workers exit when the channel closes (all dispatchers stopped).
    // HOTPATH: a memory-node compaction worker waits for jobs.
    while let Ok(job) = ctx.rx.recv() {
        // The whole job — argument pull, merge, reply delivery — hangs off
        // the compute-node span that requested the compaction.
        let _sp = match job.trace {
            Some(c) => {
                dlsm_trace::span_child_of(dlsm_trace::Category::Server, "server_compact_merge", c)
            }
            None => dlsm_trace::span(dlsm_trace::Category::Server, "server_compact_merge"),
        };
        type Outcome = Result<(Vec<u8>, Vec<(u64, u64)>)>;
        let outcome: Outcome = (|| {
            let qp = qp_for(&ctx.fabric, ctx.node_id, job.src, &mut qps)?;
            // Pull the (large) argument from the requester with an RDMA
            // read instead of inlining it in the request (Sec. X-D2).
            let requester = ctx.fabric.node(job.src)?;
            let arg_region = requester.region(rdma_sim::MrId(job.args.mr))?;
            let mut arg_buf = vec![0u8; job.args.len as usize];
            let addr = rdma_sim::RemoteAddr { rkey: job.args.rkey, ..arg_region.addr(job.args.offset) };
            qp.post_read(addr, &mut arg_buf, u64::MAX)?;
            let deadline = Instant::now() + ARG_READ_POLL;
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                let c = qp.poll_one_blocking(left)?;
                if c.wr_id == u64::MAX && c.verb == rdma_sim::Verb::Read {
                    break;
                }
            }
            let args = CompactArgs::decode(&arg_buf)?;
            let t0 = Instant::now();
            let reply = execute_compaction(&ctx.region, &ctx.allocator, &args);
            // ORDERING: relaxed — compaction stats counters; reporting only.
            ctx.stats.busy_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            ctx.stats.merge.record_elapsed(t0.elapsed());
            let reply = reply?;
            // ORDERING: relaxed — compaction stats counters; reporting only.
            ctx.stats.compactions.fetch_add(1, Ordering::Relaxed);
            ctx.stats.records_in.fetch_add(reply.records_in, Ordering::Relaxed);
            ctx.stats.records_out.fetch_add(reply.records_out, Ordering::Relaxed);
            let extents: Vec<(u64, u64)> = reply.outputs.iter().map(|o| (o.offset, o.len)).collect();
            let encoded = reply.encode();
            if 1 + encoded.len() > reply_room(&job.reply) {
                // A job its requester cannot be told about has failed, and
                // nobody will learn of its outputs.
                extents.iter().for_each(|&(off, len)| ctx.allocator.free(off, len));
                let (need, have) = (1 + encoded.len(), job.reply.len);
                return Err(MemNodeError::BadMessage(format!("compaction reply of {need} bytes exceeds the {have}-byte reply buffer")));
            }
            Ok((encoded, extents))
        })();
        // Body delivered to the requester: [status u8][payload].
        let body = match outcome {
            Ok((encoded, extents)) => {
                let mut body = Vec::with_capacity(1 + encoded.len());
                body.push(0u8);
                body.extend_from_slice(&encoded);
                let cached =
                    CachedReply { payload: body.clone(), extents: extents.clone(), compact: true };
                if !ctx.dedup.complete(job.src, job.req_id, cached) {
                    // Canceled while running: the requester is gone, so the
                    // outputs would otherwise leak. Reclaim and move on.
                    for (off, len) in extents {
                        ctx.allocator.free(off, len);
                    }
                    // ORDERING: relaxed — cancel counter; reporting only.
                    ctx.stats.canceled.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                body
            }
            Err(e) => {
                // ORDERING: relaxed — failure counter; reporting only.
                ctx.stats.failures.fetch_add(1, Ordering::Relaxed);
                // Errors are never cached; the retry re-executes.
                ctx.dedup.abort(job.src, job.req_id);
                let mut body = vec![1u8];
                body.extend_from_slice(e.to_string().into_bytes().as_slice());
                body
            }
        };
        if let Err(e) = deliver_compact_reply(
            &ctx.fabric,
            ctx.node_id,
            &mut qps,
            job.src,
            job.req_id,
            &job.reply,
            job.unique_id,
            &body,
        ) {
            // A lost reply leaves the requester sleeping until its timeout;
            // the retry will replay the cached reply. Make the cause loud.
            eprintln!("memnode: failed to deliver compaction reply: {e}");
            // ORDERING: relaxed — failure counter; reporting only.
            ctx.stats.failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::NetworkProfile;

    fn nid(n: u64) -> NodeId {
        // NodeId is opaque; mint distinct ids from a real fabric.
        let fabric = Fabric::new(NetworkProfile::instant());
        let mut id = fabric.add_node().id();
        for _ in 0..n {
            id = fabric.add_node().id();
        }
        id
    }

    fn reply(tag: u8) -> CachedReply {
        CachedReply { payload: vec![tag], extents: vec![], compact: false }
    }

    #[test]
    fn dedup_executes_once_and_replays() {
        let map = DedupMap::new(64);
        let c = nid(0);
        assert!(matches!(map.begin(c, 7), DedupDecision::Execute));
        // Duplicate while in flight: dropped.
        assert!(matches!(map.begin(c, 7), DedupDecision::InFlight));
        assert!(map.complete(c, 7, reply(42)));
        match map.begin(c, 7) {
            DedupDecision::Replay(r) => assert_eq!(r.payload, vec![42]),
            _ => panic!("expected replay"),
        }
    }

    #[test]
    fn dedup_abort_allows_reexecution() {
        let map = DedupMap::new(64);
        let c = nid(0);
        assert!(matches!(map.begin(c, 3), DedupDecision::Execute));
        map.abort(c, 3);
        assert!(matches!(map.begin(c, 3), DedupDecision::Execute));
    }

    #[test]
    fn dedup_cancel_tombstones_and_returns_done_reply() {
        let map = DedupMap::new(64);
        let c = nid(0);
        // Cancel before the request ever arrives: tombstone.
        assert!(map.cancel(c, 9).is_none());
        assert!(matches!(map.begin(c, 9), DedupDecision::InFlight));
        // Cancel after completion: reply (and its extents) returned.
        assert!(matches!(map.begin(c, 10), DedupDecision::Execute));
        assert!(map.complete(
            c,
            10,
            CachedReply { payload: vec![1], extents: vec![(0, 8)], compact: true }
        ));
        let r = map.cancel(c, 10).expect("done reply returned");
        assert_eq!(r.extents, vec![(0, 8)]);
        // And the request can never run again.
        assert!(matches!(map.begin(c, 10), DedupDecision::InFlight));
        // Cancel while in flight: complete() reports cancellation.
        assert!(matches!(map.begin(c, 11), DedupDecision::Execute));
        assert!(map.cancel(c, 11).is_none());
        assert!(!map.complete(c, 11, reply(5)));
    }

    #[test]
    fn dedup_prunes_old_done_entries_but_never_in_flight() {
        let map = DedupMap::new(4);
        let c = nid(0);
        assert!(matches!(map.begin(c, 1), DedupDecision::Execute)); // stays in flight
        for id in 2..32u64 {
            assert!(matches!(map.begin(c, id), DedupDecision::Execute));
            assert!(map.complete(c, id, reply(id as u8)));
        }
        // Old done entries pruned: a very late duplicate re-executes.
        assert!(matches!(map.begin(c, 2), DedupDecision::Execute));
        // The in-flight entry survived the churn.
        assert!(matches!(map.begin(c, 1), DedupDecision::InFlight));
    }

    #[test]
    fn crash_and_restart_preserve_region_and_allocator() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let mut server = MemServer::start(
            &fabric,
            MemServerConfig {
                region_size: 4 << 20,
                flush_zone: 1 << 20,
                compaction_workers: 1,
                dispatchers: 1,
            },
        );
        server.region().local_write(64, b"survives-crash").unwrap();
        let off = server.allocator.alloc(1024).unwrap();
        let used = server.compaction_zone_in_use();
        assert!(used >= 1024);

        server.crash();
        assert!(server.is_crashed());
        server.restart();
        assert!(!server.is_crashed());
        assert_eq!(server.stats().restarts.load(Ordering::Relaxed), 1);

        let mut back = [0u8; 14];
        server.region().local_read(64, &mut back).unwrap();
        assert_eq!(&back, b"survives-crash");
        assert_eq!(server.compaction_zone_in_use(), used);
        server.allocator.free(off, 1024);
        server.shutdown();
    }
}
