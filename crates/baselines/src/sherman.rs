//! A Sherman-style write-optimized B+-tree on disaggregated memory
//! (baseline #5, after Wang et al., SIGMOD 2022).
//!
//! The traits the paper's evaluation depends on:
//!
//! * **Internal nodes are cached in compute-node local memory** — modelled
//!   as a sorted separator map from smallest-key to leaf extent, so
//!   traversal costs no network I/O.
//! * **Leaves (1 KB by default) live in remote memory.** A read costs
//!   exactly one RDMA read of one leaf — which is why Sherman slightly beats
//!   dLSM on random reads (Fig. 8).
//! * **Every write is read-modify-write over the network**: acquire the
//!   leaf's lock word with an RDMA CAS, read the leaf, modify locally,
//!   write the leaf back, release the lock — the per-write round trips that
//!   make Sherman 1.8–11.7x slower than dLSM on writes (Fig. 7a).
//! * **Scans walk leaves one 1 KB read at a time** (no multi-MB prefetch),
//!   the paper's explanation for Fig. 11.
//!
//! Reads are optimistic, Sherman-style: each leaf carries a version word at
//! its head and a copy at its tail (the paper's front/rear versions); a
//! reader accepts a leaf image only if it is unlocked and both versions
//! match, retrying otherwise — so a torn read concurrent with a writer's
//! write-back is detected from a single RDMA read. Remaining
//! simplification: leaves never merge on delete.

use std::collections::BTreeMap;
use std::sync::Arc;
use dlsm::{ComputeContext, MemNodeHandle};
use parking_lot::{Mutex, RwLock};
use rdma_sim::QueuePair;

use crate::engine::{Engine, EngineError, EngineReader, Result};

/// Default leaf size (the paper follows Sherman's 1 KB default).
pub const DEFAULT_LEAF_SIZE: usize = 1024;

const LOCK_OFF: u64 = 0;
/// Front version word (the paper's "front version").
const VERSION_OFF: usize = 8;
const COUNT_OFF: usize = 16;
const HEADER: usize = 20;
/// The rear version mirrors the front version in the last 8 bytes.
const TAIL: usize = 8;

/// The Sherman-style B+-tree.
pub struct Sherman {
    ctx: Arc<ComputeContext>,
    memnode: Arc<MemNodeHandle>,
    leaf_size: usize,
    /// Cached "internal nodes": smallest-key separator → leaf offset.
    index: RwLock<BTreeMap<Vec<u8>, u64>>,
    /// Queue-pair pool (writers/readers check one out per operation).
    qps: Mutex<Vec<QueuePair>>,
}

impl Sherman {
    /// Create an empty tree with the default 1 KB leaves.
    pub fn new(ctx: Arc<ComputeContext>, memnode: Arc<MemNodeHandle>) -> Result<Sherman> {
        Self::with_leaf_size(ctx, memnode, DEFAULT_LEAF_SIZE)
    }

    /// Create an empty tree with a custom leaf size.
    pub fn with_leaf_size(
        ctx: Arc<ComputeContext>,
        memnode: Arc<MemNodeHandle>,
        leaf_size: usize,
    ) -> Result<Sherman> {
        assert!(leaf_size >= 64, "leaf must hold the header and an entry");
        let tree = Sherman {
            ctx,
            memnode,
            leaf_size,
            index: RwLock::new(BTreeMap::new()),
            qps: Mutex::new(Vec::new()),
        };
        // Root leaf covering the whole key space.
        let first = tree.alloc_leaf()?;
        tree.with_qp(|qp| {
            // Zeroed region ⇒ count = 0, lock = 0: nothing to initialize.
            let _ = qp;
            Ok(())
        })?;
        tree.index.write().insert(Vec::new(), first);
        Ok(tree)
    }

    /// Leaf size in bytes.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// Number of leaves (≈ cached internal-node footprint).
    pub fn leaf_count(&self) -> usize {
        self.index.read().len()
    }

    fn alloc_leaf(&self) -> Result<u64> {
        self.memnode
            .flush_alloc()
            .alloc(self.leaf_size as u64)
            .ok_or_else(|| EngineError("Sherman: remote memory exhausted".into()))
    }

    fn with_qp<R>(&self, f: impl FnOnce(&mut QueuePair) -> Result<R>) -> Result<R> {
        let mut qp = match self.qps.lock().pop() {
            Some(qp) => qp,
            None => self
                .ctx
                .fabric()
                .create_qp(self.ctx.node().id(), self.memnode.node_id())?,
        };
        let out = f(&mut qp);
        self.qps.lock().push(qp);
        out
    }

    /// Leaf that owns `key` per the cached separators.
    fn locate(&self, key: &[u8]) -> (Vec<u8>, u64) {
        let idx = self.index.read();
        let (sep, &leaf) = idx
            .range::<[u8], _>((std::ops::Bound::Unbounded, std::ops::Bound::Included(key)))
            // The separator map is seeded with the empty key at startup and
            // separators are never removed, so an Unbounded..=key range is
            // PANIC-SAFE: next_back() always yields at least that sentinel.
            .next_back()
            .expect("separator map always holds the empty key");
        (sep.clone(), leaf)
    }

    fn read_leaf(&self, qp: &mut QueuePair, leaf: u64) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; self.leaf_size];
        qp.read_sync(self.memnode.remote().addr(leaf), &mut buf)?;
        Ok(buf)
    }

    /// Front version of a leaf image.
    fn front_version(buf: &[u8]) -> u64 {
        // PANIC-SAFE: leaf buffers are always allocated at self.leaf_size
        // (>= HEADER + TAIL), so the 8-byte version slice cannot be short.
        u64::from_le_bytes(buf[VERSION_OFF..VERSION_OFF + 8].try_into().expect("version"))
    }

    /// Rear version (the copy in the final 8 bytes).
    fn rear_version(buf: &[u8]) -> u64 {
        let n = buf.len();
        u64::from_le_bytes(buf[n - TAIL..].try_into().expect("rear version"))
    }

    /// Whether a single-read leaf image is consistent: unlocked and with
    /// matching front/rear versions (Sherman's optimistic validation).
    fn image_consistent(buf: &[u8]) -> bool {
        let lock = u64::from_le_bytes(buf[0..8].try_into().expect("lock word"));
        lock == 0 && Self::front_version(buf) == Self::rear_version(buf)
    }

    fn parse(&self, buf: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        // PANIC-SAFE: fixed-size leaf images guarantee the 4-byte count word
        // exists; entry bounds past it are checked with explicit errors below.
        let count = u32::from_le_bytes(
            buf[COUNT_OFF..COUNT_OFF + 4].try_into().expect("count word"),
        ) as usize;
        let mut out = Vec::with_capacity(count.min(4096));
        let mut off = HEADER;
        let limit = buf.len() - TAIL;
        for _ in 0..count {
            if off + 4 > limit {
                return Err(EngineError("Sherman: corrupt leaf".into()));
            }
            let klen = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
            let vlen = u16::from_le_bytes([buf[off + 2], buf[off + 3]]) as usize;
            off += 4;
            if off + klen + vlen > limit {
                return Err(EngineError("Sherman: corrupt leaf entry".into()));
            }
            out.push((buf[off..off + klen].to_vec(), buf[off + klen..off + klen + vlen].to_vec()));
            off += klen + vlen;
        }
        Ok(out)
    }

    /// Serialize a leaf image at `version` (front + rear stamped).
    fn serialize(&self, entries: &[(Vec<u8>, Vec<u8>)], version: u64) -> Vec<u8> {
        let mut buf = vec![0u8; self.leaf_size];
        buf[VERSION_OFF..VERSION_OFF + 8].copy_from_slice(&version.to_le_bytes());
        buf[COUNT_OFF..COUNT_OFF + 4].copy_from_slice(&(entries.len() as u32).to_le_bytes());
        let mut off = HEADER;
        for (k, v) in entries {
            buf[off..off + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
            buf[off + 2..off + 4].copy_from_slice(&(v.len() as u16).to_le_bytes());
            off += 4;
            buf[off..off + k.len()].copy_from_slice(k);
            off += k.len();
            buf[off..off + v.len()].copy_from_slice(v);
            off += v.len();
        }
        let n = buf.len();
        buf[n - TAIL..].copy_from_slice(&version.to_le_bytes());
        buf
    }

    fn entries_size(entries: &[(Vec<u8>, Vec<u8>)]) -> usize {
        HEADER + TAIL + entries.iter().map(|(k, v)| 4 + k.len() + v.len()).sum::<usize>()
    }

    fn lock_leaf(&self, qp: &mut QueuePair, leaf: u64) -> Result<()> {
        let addr = self.memnode.remote().addr(leaf + LOCK_OFF);
        loop {
            if qp.compare_swap(addr, 0, 1)? == 0 {
                return Ok(());
            }
            // HOTPATH: Sherman's global on-chip lock *is* a remote spin lock;
            // spinning here reproduces the baseline faithfully (ROADMAP's parked
            // completion-driven runtime covers dLSM's waits, not the baselines).
            std::thread::yield_now();
        }
    }

    fn unlock_leaf(&self, qp: &mut QueuePair, leaf: u64) -> Result<()> {
        let addr = self.memnode.remote().addr(leaf + LOCK_OFF);
        let prev = qp.compare_swap(addr, 1, 0)?;
        debug_assert_eq!(prev, 1, "unlocking an unlocked leaf");
        Ok(())
    }

    fn upsert(&self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        if key.len() > u16::MAX as usize || value.map_or(0, <[u8]>::len) > u16::MAX as usize {
            return Err(EngineError("Sherman: key/value too large".into()));
        }
        if 4 + key.len() + value.map_or(0, <[u8]>::len) + HEADER > self.leaf_size {
            return Err(EngineError("Sherman: entry exceeds leaf size".into()));
        }
        self.with_qp(|qp| {
            loop {
                let (_, leaf) = self.locate(key);
                self.lock_leaf(qp, leaf)?;
                // Re-validate: a concurrent split may have moved ownership.
                let (_, now) = self.locate(key);
                if now != leaf {
                    self.unlock_leaf(qp, leaf)?;
                    continue;
                }
                // Read-modify-write: the per-write network cost of Sherman.
                let buf = self.read_leaf(qp, leaf)?;
                let version = Self::front_version(&buf) + 1;
                let mut entries = self.parse(&buf)?;
                match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => match value {
                        Some(v) => entries[i].1 = v.to_vec(),
                        None => {
                            entries.remove(i);
                        }
                    },
                    Err(i) => {
                        if let Some(v) = value {
                            entries.insert(i, (key.to_vec(), v.to_vec()));
                        }
                    }
                }
                if Self::entries_size(&entries) <= self.leaf_size {
                    // Keep the lock bit set in the image; release with CAS.
                    let mut image = self.serialize(&entries, version);
                    image[0..8].copy_from_slice(&1u64.to_le_bytes());
                    qp.write_sync(&image, self.memnode.remote().addr(leaf))?;
                    self.unlock_leaf(qp, leaf)?;
                    return Ok(());
                }
                // Split: upper half moves to a fresh leaf; the separator map
                // (the cached internal nodes) is updated locally.
                let mid = entries.len() / 2;
                let upper = entries.split_off(mid);
                let sep = upper[0].0.clone();
                let new_leaf = self.alloc_leaf()?;
                let upper_image = self.serialize(&upper, 1);
                qp.write_sync(&upper_image, self.memnode.remote().addr(new_leaf))?;
                let mut lower_image = self.serialize(&entries, version);
                lower_image[0..8].copy_from_slice(&1u64.to_le_bytes());
                qp.write_sync(&lower_image, self.memnode.remote().addr(leaf))?;
                self.index.write().insert(sep, new_leaf);
                self.unlock_leaf(qp, leaf)?;
                // Retry the insert; it now routes to the right half.
            }
        })
    }

    /// Point lookup: one RDMA read of the owning leaf, validated with the
    /// front/rear version pair (retry on a torn or locked image).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.with_qp(|qp| {
            loop {
                let (_, leaf) = self.locate(key);
                let buf = self.read_leaf(qp, leaf)?;
                if !Self::image_consistent(&buf) {
                    // A writer holds the leaf or the image is torn; retry.
                    std::thread::yield_now();
                    continue;
                }
                let entries = self.parse(&buf)?;
                return Ok(entries
                    .binary_search_by(|(k, _)| k.as_slice().cmp(key))
                    .ok()
                    .map(|i| entries[i].1.clone()));
            }
        })
    }

    /// Full forward scan: leaf-by-leaf 1 KB reads in separator order.
    pub fn scan_all(&self, mut visit: impl FnMut(&[u8], &[u8])) -> Result<u64> {
        let leaves: Vec<u64> = self.index.read().values().copied().collect();
        let mut n = 0;
        self.with_qp(|qp| {
            for leaf in leaves {
                let buf = loop {
                    let buf = self.read_leaf(qp, leaf)?;
                    if Self::image_consistent(&buf) {
                        break buf;
                    }
                    std::thread::yield_now();
                };
                for (k, v) in self.parse(&buf)? {
                    visit(&k, &v);
                    n += 1;
                }
            }
            Ok(())
        })?;
        Ok(n)
    }

    /// Remote bytes consumed by leaves.
    pub fn remote_space_used(&self) -> u64 {
        self.memnode.flush_alloc().in_use()
    }
}

impl Engine for Sherman {
    fn name(&self) -> &str {
        "Sherman"
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.upsert(key, Some(value))
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.upsert(key, None)
    }

    fn reader(&self) -> Box<dyn EngineReader + '_> {
        Box::new(ShermanReader { tree: self })
    }

    fn remote_space_used(&self) -> u64 {
        Sherman::remote_space_used(self)
    }
}

struct ShermanReader<'t> {
    tree: &'t Sherman,
}

impl<'t> EngineReader for ShermanReader<'t> {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.tree.get(key)
    }

    fn scan_all(&mut self) -> Result<u64> {
        self.tree.scan_all(|_, _| {})
    }

    fn scan_from(
        &mut self,
        start: &[u8],
        limit: u64,
        visit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<u64> {
        // Sherman has no cursor API; walk the full leaf chain and window it.
        // Costs a full scan per call — fine for correctness coverage, not a
        // representative scan benchmark (use the LSM engines for YCSB-E).
        let mut n = 0;
        self.tree.scan_all(|k, v| {
            if k >= start && n < limit {
                visit(k, v);
                n += 1;
            }
        })?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlsm_memnode::{MemServer, MemServerConfig};
    use rdma_sim::{Fabric, NetworkProfile, Verb};

    fn setup() -> (Arc<rdma_sim::Fabric>, MemServer, Sherman) {
        let fabric = Fabric::new(NetworkProfile::instant());
        let server = MemServer::start(
            &fabric,
            MemServerConfig {
                region_size: 64 << 20,
                flush_zone: 56 << 20,
                compaction_workers: 1,
                dispatchers: 1,
            },
        );
        let ctx = ComputeContext::new(&fabric);
        let mem = MemNodeHandle::from_server(&server);
        let tree = Sherman::new(ctx, mem).unwrap();
        (fabric, server, tree)
    }

    #[test]
    fn put_get_roundtrip() {
        let (_f, server, tree) = setup();
        tree.put(b"b", b"2").unwrap();
        tree.put(b"a", b"1").unwrap();
        assert_eq!(tree.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(tree.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(tree.get(b"c").unwrap(), None);
        tree.put(b"a", b"1'").unwrap();
        assert_eq!(tree.get(b"a").unwrap(), Some(b"1'".to_vec()));
        server.shutdown();
    }

    #[test]
    fn delete_removes() {
        let (_f, server, tree) = setup();
        tree.put(b"k", b"v").unwrap();
        tree.delete(b"k").unwrap();
        assert_eq!(tree.get(b"k").unwrap(), None);
        // Deleting a missing key is a no-op.
        tree.delete(b"missing").unwrap();
        server.shutdown();
    }

    #[test]
    fn splits_preserve_everything() {
        let (_f, server, tree) = setup();
        let n = 3_000u64;
        for i in 0..n {
            let k = i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes();
            tree.put(&k, format!("v{i}").as_bytes()).unwrap();
        }
        assert!(tree.leaf_count() > 10, "splits must have happened");
        for i in (0..n).step_by(61) {
            let k = i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes();
            assert_eq!(tree.get(&k).unwrap(), Some(format!("v{i}").into_bytes()));
        }
        server.shutdown();
    }

    #[test]
    fn scan_is_sorted_and_complete() {
        let (_f, server, tree) = setup();
        let n = 1_000u64;
        for i in 0..n {
            let k = i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes();
            tree.put(&k, b"v").unwrap();
        }
        let mut keys = Vec::new();
        let count = tree.scan_all(|k, _| keys.push(k.to_vec())).unwrap();
        assert_eq!(count, n);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "scan must be key-ordered");
        server.shutdown();
    }

    #[test]
    fn read_costs_one_rdma_read() {
        let (fabric, server, tree) = setup();
        for i in 0..200u64 {
            tree.put(&i.to_be_bytes(), b"x").unwrap();
        }
        let before = fabric.stats().snapshot();
        assert_eq!(tree.get(&42u64.to_be_bytes()).unwrap(), Some(b"x".to_vec()));
        let d = fabric.stats().snapshot().delta(&before);
        assert_eq!(d.ops(Verb::Read), 1, "a Sherman read is exactly one leaf read");
        assert_eq!(d.bytes(Verb::Read), DEFAULT_LEAF_SIZE as u64);
        server.shutdown();
    }

    #[test]
    fn write_pays_lock_read_write_unlock() {
        let (fabric, server, tree) = setup();
        tree.put(b"warm", b"up").unwrap();
        let before = fabric.stats().snapshot();
        tree.put(b"key", b"value").unwrap();
        let d = fabric.stats().snapshot().delta(&before);
        assert_eq!(d.ops(Verb::CompareSwap), 2, "lock + unlock");
        assert_eq!(d.ops(Verb::Read), 1, "leaf fetch");
        assert_eq!(d.ops(Verb::Write), 1, "leaf write-back");
        server.shutdown();
    }

    #[test]
    fn leaf_versions_advance_with_writes() {
        let (_f, server, tree) = setup();
        tree.put(b"k", b"v1").unwrap();
        tree.put(b"k", b"v2").unwrap();
        // Read the root leaf raw and verify front == rear version > 0.
        let (_, leaf) = tree.locate(b"k");
        let buf = tree.with_qp(|qp| tree.read_leaf(qp, leaf)).unwrap();
        assert!(Sherman::image_consistent(&buf));
        assert!(Sherman::front_version(&buf) >= 2);
        server.shutdown();
    }

    #[test]
    fn concurrent_writers_disjoint_keys() {
        let (_f, server, tree) = setup();
        let tree = Arc::new(tree);
        std::thread::scope(|s| {
            for t in 0..6u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    for i in 0..400u64 {
                        let k = (t * 1_000_000 + i).wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes();
                        tree.put(&k, format!("t{t}i{i}").as_bytes()).unwrap();
                    }
                });
            }
        });
        for t in 0..6u64 {
            for i in (0..400u64).step_by(37) {
                let k = (t * 1_000_000 + i).wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes();
                assert_eq!(tree.get(&k).unwrap(), Some(format!("t{t}i{i}").into_bytes()));
            }
        }
        server.shutdown();
    }
}
