//! Queue pairs and completion queues.
//!
//! A [`QueuePair`] is deliberately `!Sync` (it requires `&mut self`): the
//! dLSM design gives every worker thread its own queue pair and registered
//! buffers so completion notifications are never mixed between threads
//! (paper Sec. X-B). Completions are delivered in FIFO order per queue pair,
//! which the flush-buffer recycling scheme (Sec. X-C) depends on.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::clock::SimTime;
use crate::fabric::Fabric;
use crate::fault::{FaultAction, OpContext};
use crate::msg::{ImmEvent, Message};
use crate::node::{Node, NodeId};
use crate::region::{MemoryRegion, RemoteAddr};
use crate::verbs::{Completion, RdmaError, Verb, WrId};

/// A completion queue: pending completions ordered by deadline (FIFO, since
/// deadlines are made monotone per queue pair).
#[derive(Default)]
pub struct CompletionQueue {
    pending: VecDeque<Completion>,
}

impl CompletionQueue {
    /// Completions not yet polled (ready or in flight).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no completions are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    fn push(&mut self, c: Completion) {
        self.pending.push_back(c);
    }

    /// Pop the oldest completion if its deadline has passed by `now`.
    fn pop_ready(&mut self, now: SimTime) -> Option<Completion> {
        if self.pending.front()?.completed_at > now {
            return None;
        }
        self.pending.pop_front()
    }

    /// Deadline of the oldest pending completion, if any.
    fn head_deadline(&self) -> Option<SimTime> {
        self.pending.front().map(|c| c.completed_at)
    }
}

/// Outcome of charging one work request against the cost model + fault hook.
enum ChargeOutcome {
    /// Deliver normally; completion ready at the instant.
    Deliver(SimTime),
    /// Payload side effects land, but the completion (and any delivery)
    /// is lost.
    LostAck,
    /// The operation vanishes entirely: no side effects, no completion.
    Lost,
}

impl ChargeOutcome {
    /// The completion deadline, when one will arrive.
    fn ready(&self) -> Option<SimTime> {
        match self {
            ChargeOutcome::Deliver(t) => Some(*t),
            _ => None,
        }
    }

    /// True unless the operation was blackholed (payload effects apply).
    fn payload_lands(&self) -> bool {
        !matches!(self, ChargeOutcome::Lost)
    }
}

/// A reliable-connected queue pair between two nodes.
pub struct QueuePair {
    fabric: Arc<Fabric>,
    local: NodeId,
    /// The remote endpoint, resolved once at creation.
    peer: Arc<Node>,
    /// The region the last one-sided verb addressed; a verb takes it out
    /// and puts it back, so the steady state clones and looks up nothing.
    last_region: Option<Arc<MemoryRegion>>,
    cq: CompletionQueue,
    /// Monotone per-QP completion horizon, enforcing FIFO completions.
    last_ready: SimTime,
    /// Send-queue depth limit (outstanding, un-polled work requests).
    max_outstanding: usize,
    /// Every verb posted on this queue pair; the fabric-wide stats are the
    /// sum of these blocks.
    traffic: Arc<crate::stats::QpTraffic>,
}

impl QueuePair {
    pub(crate) fn new(fabric: Arc<Fabric>, local: NodeId, peer: Arc<Node>) -> QueuePair {
        QueuePair {
            traffic: fabric.stats().register(),
            fabric,
            local,
            peer,
            last_region: None,
            cq: CompletionQueue::default(),
            last_ready: SimTime::ZERO,
            max_outstanding: 256,
        }
    }

    /// Everything ever posted on this queue pair, per verb. Delta two
    /// copies to attribute the exact RDMA cost of one operation (e.g. "a
    /// point `get` issued one READ of 64 bytes").
    pub fn traffic(&self) -> crate::stats::StatsSnapshot {
        self.traffic.snapshot()
    }

    /// Local endpoint.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// Remote endpoint.
    pub fn remote(&self) -> NodeId {
        self.peer.id()
    }

    /// The fabric this queue pair belongs to.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Change the send-queue depth limit.
    pub fn set_max_outstanding(&mut self, depth: usize) {
        self.max_outstanding = depth.max(1);
    }

    /// Outstanding (posted, not yet polled) work requests.
    pub fn outstanding(&self) -> usize {
        self.cq.len()
    }

    fn node(&self, id: NodeId) -> Result<Arc<Node>, RdmaError> {
        if id == self.peer.id() {
            return Ok(Arc::clone(&self.peer));
        }
        self.fabric.node(id)
    }

    /// The region `addr` names, with its rkey checked: taken out of the
    /// one-entry cache (the verb puts it back once it has succeeded) or
    /// looked up on its node.
    fn region(&mut self, addr: RemoteAddr) -> Result<Arc<MemoryRegion>, RdmaError> {
        let region = match self.last_region.take() {
            Some(r) if r.node() == addr.node && r.mr() == addr.mr => r,
            _ => self.node(addr.node)?.region(addr.mr)?,
        };
        region.check_rkey(addr.rkey)?;
        Ok(region)
    }

    /// Charge the cost model and consult the fault hook for one posted work
    /// request targeting `dst`. `Deliver` carries the completion deadline;
    /// `LostAck` means payload effects must still be applied but no
    /// completion will arrive; `Lost` means the operation vanishes entirely.
    fn charge(&mut self, verb: Verb, bytes: usize, dst: NodeId) -> Result<ChargeOutcome, RdmaError> {
        if self.cq.len() >= self.max_outstanding {
            return Err(RdmaError::SendQueueFull { depth: self.max_outstanding });
        }
        let profile = *self.fabric.profile();
        // The posting thread pays the doorbell cost synchronously; the
        // request is on the wire at `posted`.
        let posted = self.fabric.now() + profile.post_overhead;
        if !profile.post_overhead.is_zero() {
            self.fabric.wait_until(posted);
        }
        self.traffic.accumulate(verb, bytes);
        let mut latency = profile.transfer_cost(bytes);
        if verb == Verb::Send {
            latency += profile.two_sided_extra;
        }
        if let Some(hook) = self.fabric.fault() {
            let ctx = OpContext { verb, bytes, src: self.local, dst, at: posted };
            latency += hook.delay(&ctx);
            match hook.action(&ctx) {
                FaultAction::Deliver => {}
                FaultAction::DropCompletion => return Ok(ChargeOutcome::LostAck),
                FaultAction::Blackhole => return Ok(ChargeOutcome::Lost),
            }
        }
        let ready = (posted + latency).max(self.last_ready);
        self.last_ready = ready;
        Ok(ChargeOutcome::Deliver(ready))
    }

    fn complete(&mut self, wr_id: WrId, verb: Verb, bytes: usize, old: u64, ready: SimTime) {
        self.cq.push(Completion {
            wr_id,
            verb,
            bytes,
            old_value: old,
            completed_at: ready,
        });
    }

    /// Post a one-sided READ: copy `dst.len()` bytes from `src` on the remote
    /// node into the local buffer. The data may only be examined after the
    /// completion for `wr_id` has been polled.
    pub fn post_read(
        &mut self,
        src: RemoteAddr,
        dst: &mut [u8],
        wr_id: WrId,
    ) -> Result<(), RdmaError> {
        let region = self.region(src)?;
        let outcome = self.charge(Verb::Read, dst.len(), src.node)?;
        if outcome.payload_lands() {
            region.local_read(src.offset, dst)?;
        }
        if let Some(ready) = outcome.ready() {
            self.complete(wr_id, Verb::Read, dst.len(), 0, ready);
        }
        self.last_region = Some(region);
        Ok(())
    }

    /// Post a one-sided WRITE of `src` to `dst` on the remote node. The local
    /// buffer may only be reused after the completion has been polled.
    pub fn post_write(
        &mut self,
        src: &[u8],
        dst: RemoteAddr,
        wr_id: WrId,
    ) -> Result<(), RdmaError> {
        dlsm_trace::instant(dlsm_trace::Category::Rdma, "rdma_post_write", src.len() as u64);
        let region = self.region(dst)?;
        let outcome = self.charge(Verb::Write, src.len(), dst.node)?;
        if outcome.payload_lands() {
            region.local_write(dst.offset, src)?;
        }
        if let Some(ready) = outcome.ready() {
            self.complete(wr_id, Verb::Write, src.len(), 0, ready);
        }
        self.last_region = Some(region);
        Ok(())
    }

    /// Post a WRITE-with-IMMEDIATE: like [`Self::post_write`], but also
    /// raises an [`ImmEvent`] carrying `imm` at the remote node once the
    /// write completes.
    pub fn post_write_imm(
        &mut self,
        src: &[u8],
        dst: RemoteAddr,
        imm: u32,
        wr_id: WrId,
    ) -> Result<(), RdmaError> {
        dlsm_trace::instant(dlsm_trace::Category::Rdma, "rdma_write_imm", src.len() as u64);
        let node = self.node(dst.node)?;
        let region = self.region(dst)?;
        let outcome = self.charge(Verb::WriteImm, src.len(), dst.node)?;
        if outcome.payload_lands() {
            region.local_write(dst.offset, src)?;
        }
        if let Some(ready) = outcome.ready() {
            let _ = node.imm_tx.send(ImmEvent {
                src: self.local,
                imm,
                bytes: src.len(),
                ready_at: ready,
            });
            self.complete(wr_id, Verb::WriteImm, src.len(), 0, ready);
        }
        self.last_region = Some(region);
        Ok(())
    }

    /// Post a two-sided SEND delivering `payload` to the remote node's inbox.
    pub fn post_send(&mut self, payload: Vec<u8>, wr_id: WrId) -> Result<(), RdmaError> {
        dlsm_trace::instant(dlsm_trace::Category::Rdma, "rdma_send", payload.len() as u64);
        let bytes = payload.len();
        let outcome = self.charge(Verb::Send, bytes, self.peer.id())?;
        if let Some(ready) = outcome.ready() {
            let _ = self.peer.inbox_tx.send(Message { src: self.local, payload, ready_at: ready });
            self.complete(wr_id, Verb::Send, bytes, 0, ready);
        }
        Ok(())
    }

    /// Remote atomic fetch-and-add on the 8-byte word at `addr`; blocks until
    /// the completion and returns the previous value.
    pub fn fetch_add(&mut self, addr: RemoteAddr, delta: u64) -> Result<u64, RdmaError> {
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Rdma, "rdma_fetch_add", 8);
        let region = self.region(addr)?;
        let outcome = self.charge(Verb::FetchAdd, 8, addr.node)?;
        if !outcome.payload_lands() {
            return Err(RdmaError::Dropped);
        }
        let old = region.atomic_u64(addr.offset)?.fetch_add(delta, Ordering::AcqRel);
        self.last_region = Some(region);
        match outcome.ready() {
            Some(ready) => {
                self.complete(0, Verb::FetchAdd, 8, old, ready);
                let c = self.poll_one_blocking(Duration::from_secs(5))?;
                debug_assert_eq!(c.verb, Verb::FetchAdd);
                Ok(c.old_value)
            }
            None => Err(RdmaError::Dropped),
        }
    }

    /// Remote atomic compare-and-swap; blocks until the completion and
    /// returns the previous value (compare with `expect` to see if it won).
    pub fn compare_swap(
        &mut self,
        addr: RemoteAddr,
        expect: u64,
        new: u64,
    ) -> Result<u64, RdmaError> {
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Rdma, "rdma_cas", 8);
        let region = self.region(addr)?;
        let outcome = self.charge(Verb::CompareSwap, 8, addr.node)?;
        if !outcome.payload_lands() {
            return Err(RdmaError::Dropped);
        }
        let old = match region.atomic_u64(addr.offset)?.compare_exchange(
            expect,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(prev) => prev,
            Err(prev) => prev,
        };
        self.last_region = Some(region);
        match outcome.ready() {
            Some(ready) => {
                self.complete(0, Verb::CompareSwap, 8, old, ready);
                let c = self.poll_one_blocking(Duration::from_secs(5))?;
                debug_assert_eq!(c.verb, Verb::CompareSwap);
                Ok(c.old_value)
            }
            None => Err(RdmaError::Dropped),
        }
    }

    /// Poll up to `max` ready completions without blocking.
    pub fn poll(&mut self, max: usize) -> Vec<Completion> {
        let now = self.fabric.now();
        let mut out = Vec::new();
        while out.len() < max {
            match self.cq.pop_ready(now) {
                Some(c) => out.push(c),
                None => break,
            }
        }
        out
    }

    /// Poll exactly one completion, blocking until one is ready or `timeout`
    /// elapses.
    pub fn poll_one_blocking(&mut self, timeout: Duration) -> Result<Completion, RdmaError> {
        let mut now = self.fabric.now();
        let deadline = now + timeout;
        loop {
            if let Some(c) = self.cq.pop_ready(now) {
                return Ok(c);
            }
            match self.cq.head_deadline() {
                Some(t) if t <= deadline => {
                    self.fabric.wait_until(t);
                    now = t; // reached: the head pops without another clock read
                }
                _ => {
                    // Only this queue pair's own posts fill its CQ, so
                    // nothing can complete before `deadline`: wait it out.
                    self.fabric.wait_until(deadline);
                    return Err(RdmaError::RecvTimeout);
                }
            }
        }
    }

    /// Drain all outstanding completions, blocking until each is ready.
    pub fn drain(&mut self) -> Result<Vec<Completion>, RdmaError> {
        let mut out = Vec::with_capacity(self.cq.len());
        while !self.cq.is_empty() {
            out.push(self.poll_one_blocking(Duration::from_secs(5))?);
        }
        Ok(out)
    }

    /// Synchronous READ convenience: post + wait for the completion.
    pub fn read_sync(&mut self, src: RemoteAddr, dst: &mut [u8]) -> Result<(), RdmaError> {
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Rdma, "rdma_read", dst.len() as u64);
        self.post_read(src, dst, u64::MAX)?;
        loop {
            let c = self.poll_one_blocking(Duration::from_secs(5))?;
            if c.wr_id == u64::MAX && c.verb == Verb::Read {
                return Ok(());
            }
        }
    }

    /// Synchronous WRITE convenience: post + wait for the completion.
    pub fn write_sync(&mut self, src: &[u8], dst: RemoteAddr) -> Result<(), RdmaError> {
        let _sp = dlsm_trace::span_arg(dlsm_trace::Category::Rdma, "rdma_write", src.len() as u64);
        self.post_write(src, dst, u64::MAX)?;
        loop {
            let c = self.poll_one_blocking(Duration::from_secs(5))?;
            if c.wr_id == u64::MAX && c.verb == Verb::Write {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::fault::FaultHook;
    use crate::profile::NetworkProfile;

    fn setup() -> (Arc<Fabric>, QueuePair, Arc<crate::region::MemoryRegion>) {
        let fabric = Fabric::new(NetworkProfile::instant());
        let compute = fabric.add_node();
        let memory = fabric.add_node();
        let region = memory.register_region(1 << 16);
        let qp = fabric.create_qp(compute.id(), memory.id()).unwrap();
        (fabric, qp, region)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (_f, mut qp, region) = setup();
        qp.write_sync(b"disaggregated", region.addr(512)).unwrap();
        let mut buf = [0u8; 13];
        qp.read_sync(region.addr(512), &mut buf).unwrap();
        assert_eq!(&buf, b"disaggregated");
    }

    #[test]
    fn bad_rkey_rejected() {
        let (_f, mut qp, region) = setup();
        let mut addr = region.addr(0);
        addr.rkey ^= 1;
        assert!(matches!(qp.write_sync(b"x", addr), Err(RdmaError::BadRkey { .. })));
    }

    #[test]
    fn out_of_bounds_remote_write_rejected() {
        let (_f, mut qp, region) = setup();
        let addr = region.addr((1 << 16) - 2);
        assert!(matches!(
            qp.post_write(b"toolong", addr, 1),
            Err(RdmaError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn completions_are_fifo_per_qp() {
        let fabric = Fabric::new(NetworkProfile::edr_100g().scaled(0.01));
        let c = fabric.add_node();
        let m = fabric.add_node();
        let region = m.register_region(1 << 20);
        let mut qp = fabric.create_qp(c.id(), m.id()).unwrap();
        // A large write posted first must complete before a tiny later write.
        qp.post_write(&vec![1u8; 1 << 19], region.addr(0), 1).unwrap();
        qp.post_write(&[2u8], region.addr(1 << 19), 2).unwrap();
        let cs = qp.drain().unwrap();
        assert_eq!(cs.iter().map(|c| c.wr_id).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn async_write_completion_respects_latency() {
        let fabric = Fabric::new(NetworkProfile {
            base_latency: Duration::from_millis(5),
            bytes_per_sec: f64::INFINITY,
            post_overhead: Duration::ZERO,
            two_sided_extra: Duration::ZERO,
        });
        let c = fabric.add_node();
        let m = fabric.add_node();
        let region = m.register_region(64);
        let mut qp = fabric.create_qp(c.id(), m.id()).unwrap();
        let t0 = Instant::now();
        qp.post_write(b"abc", region.addr(0), 7).unwrap();
        // Posting must be (nearly) free...
        assert!(t0.elapsed() < Duration::from_millis(2), "post must not block");
        assert!(qp.poll(8).is_empty(), "completion must not be ready immediately");
        // ...and the completion only arrives after the base latency.
        let comp = qp.poll_one_blocking(Duration::from_secs(1)).unwrap();
        assert_eq!(comp.wr_id, 7);
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn fetch_add_returns_old_value() {
        let (_f, mut qp, region) = setup();
        assert_eq!(qp.fetch_add(region.addr(0), 5).unwrap(), 0);
        assert_eq!(qp.fetch_add(region.addr(0), 3).unwrap(), 5);
        assert_eq!(region.atomic_load(0).unwrap(), 8);
    }

    #[test]
    fn compare_swap_semantics() {
        let (_f, mut qp, region) = setup();
        // Winning CAS returns the expected value.
        assert_eq!(qp.compare_swap(region.addr(8), 0, 42).unwrap(), 0);
        // Losing CAS returns the current value and does not modify it.
        assert_eq!(qp.compare_swap(region.addr(8), 0, 99).unwrap(), 42);
        assert_eq!(region.atomic_load(8).unwrap(), 42);
    }

    #[test]
    fn send_recv_delivers_payload() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let c = fabric.add_node();
        let m = fabric.add_node();
        let mut qp = fabric.create_qp(c.id(), m.id()).unwrap();
        qp.post_send(b"rpc-request".to_vec(), 1).unwrap();
        let msg = m.recv(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.payload, b"rpc-request");
        assert_eq!(msg.src, c.id());
    }

    #[test]
    fn write_imm_raises_event() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let c = fabric.add_node();
        let m = fabric.add_node();
        let region = m.register_region(64);
        let mut qp = fabric.create_qp(c.id(), m.id()).unwrap();
        qp.post_write_imm(b"reply", region.addr(0), 0xBEEF, 3).unwrap();
        let ev = m.recv_imm(Duration::from_secs(1)).unwrap();
        assert_eq!(ev.imm, 0xBEEF);
        assert_eq!(ev.bytes, 5);
        let mut buf = [0u8; 5];
        region.local_read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"reply");
    }

    #[test]
    fn send_queue_depth_enforced() {
        let (_f, mut qp, region) = setup();
        qp.set_max_outstanding(2);
        qp.post_write(b"a", region.addr(0), 1).unwrap();
        qp.post_write(b"b", region.addr(1), 2).unwrap();
        assert!(matches!(
            qp.post_write(b"c", region.addr(2), 3),
            Err(RdmaError::SendQueueFull { .. })
        ));
        qp.drain().unwrap();
        assert!(qp.post_write(b"c", region.addr(2), 3).is_ok());
    }

    #[test]
    fn dropped_write_never_completes() {
        let fabric = Fabric::new(NetworkProfile::instant());
        let c = fabric.add_node();
        let m = fabric.add_node();
        let region = m.register_region(64);
        fabric.set_fault_hook(Some(Arc::new(crate::ChaosPlan::new(1).drop(Verb::Write, 1.0))));
        let mut qp = fabric.create_qp(c.id(), m.id()).unwrap();
        qp.post_write(b"x", region.addr(0), 9).unwrap();
        assert!(qp.poll_one_blocking(Duration::from_millis(10)).is_err());
        fabric.set_fault_hook(None);
        qp.write_sync(b"y", region.addr(0)).unwrap();
    }

    /// Records each posted request's `(at, bytes)`.
    #[derive(Default)]
    struct PostLog(parking_lot::Mutex<Vec<(SimTime, usize)>>);

    impl FaultHook for PostLog {
        fn action(&self, ctx: &OpContext) -> FaultAction {
            self.0.lock().push((ctx.at, ctx.bytes));
            FaultAction::Deliver
        }
    }

    #[test]
    fn completions_land_after_the_post_instant_plus_the_transfer_cost() {
        let profile = NetworkProfile::edr_100g();
        let fabric = Fabric::new(profile);
        let c = fabric.add_node();
        let m = fabric.add_node();
        let region = m.register_region(1 << 20);
        let log = Arc::new(PostLog::default());
        fabric.set_fault_hook(Some(log.clone()));
        let mut qp = fabric.create_qp(c.id(), m.id()).unwrap();
        let sizes = [64usize, 1 << 18, 8, 4096, 1 << 16, 420];
        for (i, &n) in sizes.iter().enumerate() {
            qp.post_write(&vec![7u8; n], region.addr(0), i as u64).unwrap();
        }
        let mut buf = vec![0u8; 420];
        qp.post_read(region.addr(0), &mut buf, 99).unwrap();
        let done = qp.drain().unwrap();
        fabric.set_fault_hook(None);
        let posts = log.0.lock().clone();
        assert_eq!(posts.len(), sizes.len() + 1);
        assert!(posts.windows(2).all(|w| w[0].0 <= w[1].0), "post instants went back: {posts:?}");
        for ((at, bytes), c) in posts.iter().zip(&done) {
            assert_eq!(*bytes, c.bytes);
            let earliest = *at + profile.transfer_cost(*bytes);
            assert!(c.completed_at >= earliest, "{c:?} posted at {at:?}");
        }
    }

    #[test]
    fn per_qp_traffic_attribution() {
        let (f, mut qp, region) = setup();
        // A second QP on the same fabric: its traffic must not bleed into
        // the first QP's counter (while the global stats see both).
        let other_node = f.add_node();
        let mut other = f.create_qp(other_node.id(), qp.remote()).unwrap();
        other.write_sync(&[0u8; 999], region.addr(0)).unwrap();

        let before = qp.traffic();
        qp.write_sync(&[0u8; 100], region.addr(0)).unwrap();
        let mut buf = [0u8; 40];
        qp.read_sync(region.addr(0), &mut buf).unwrap();
        let d = qp.traffic().delta(&before);
        assert_eq!(d.ops(Verb::Read), 1);
        assert_eq!(d.bytes(Verb::Read), 40);
        assert_eq!(d.ops(Verb::Write), 1);
        assert_eq!(d.bytes(Verb::Write), 100);
        assert_eq!(d.total_ops(), 2);
        assert_eq!(other.traffic().ops(Verb::Write), 1);
        assert!(f.stats().ops(Verb::Write) >= 2);
    }

    #[test]
    fn cached_region_is_still_checked_on_every_verb() {
        let (f, mut qp, region) = setup();
        qp.write_sync(b"warm", region.addr(0)).unwrap(); // region now cached
        let mut forged = region.addr(0);
        forged.rkey ^= 1;
        assert!(matches!(qp.write_sync(b"x", forged), Err(RdmaError::BadRkey { .. })));
        qp.write_sync(b"warm", region.addr(0)).unwrap();
        assert!(matches!(
            qp.post_write(b"toolong", region.addr((1 << 16) - 2), 1),
            Err(RdmaError::OutOfBounds { .. })
        ));
        // A second region of the same node is looked up, not mistaken for
        // the cached one.
        let other = f.node(qp.remote()).unwrap().register_region(64);
        qp.write_sync(b"other", other.addr(8)).unwrap();
        let mut buf = [0u8; 5];
        qp.read_sync(other.addr(8), &mut buf).unwrap();
        assert_eq!(&buf, b"other");
        qp.read_sync(region.addr(0), &mut buf[..4]).unwrap();
        assert_eq!(&buf[..4], b"warm");
    }

    #[test]
    fn fabric_stats_are_exact_across_qp_drop() {
        let (f, mut qp, region) = setup();
        qp.write_sync(&[0u8; 10], region.addr(0)).unwrap();
        let mut second = f.create_qp(qp.local(), qp.remote()).unwrap();
        second.write_sync(&[0u8; 5], region.addr(0)).unwrap();
        assert_eq!(f.stats().ops(Verb::Write), 2);
        drop(second); // its block is folded into the retired total
        assert_eq!(f.stats().ops(Verb::Write), 2);
        qp.write_sync(&[0u8; 1], region.addr(0)).unwrap();
        let s = f.stats().snapshot();
        assert_eq!((s.ops(Verb::Write), s.bytes(Verb::Write)), (3, 16));
    }

    #[test]
    fn stats_count_traffic() {
        let (f, mut qp, region) = setup();
        let before = f.stats().snapshot();
        qp.write_sync(&[0u8; 100], region.addr(0)).unwrap();
        let mut buf = [0u8; 40];
        qp.read_sync(region.addr(0), &mut buf).unwrap();
        let d = f.stats().snapshot().delta(&before);
        assert_eq!(d.ops(Verb::Write), 1);
        assert_eq!(d.bytes(Verb::Write), 100);
        assert_eq!(d.ops(Verb::Read), 1);
        assert_eq!(d.bytes(Verb::Read), 40);
    }
}
