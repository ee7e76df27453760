//! # dlsm-cache — compute-side read cache
//!
//! The paper's compute nodes keep only a thin search path local (bloom +
//! index); every deep point read still pays a data fetch over the fabric.
//! This crate closes that gap with a sharded, budgeted, **scan-resistant**
//! read cache (DESIGN.md §11):
//!
//! * **Block pool** — SSTable data blocks (or single byte-addressable
//!   records) keyed by `(table id, offset)`. A hit turns a one-RTT read
//!   into a zero-RTT read.
//! * **Hot-extent pool** — whole table images keyed by table id, in one
//!   shard: admitted when the compute node holds a table's bytes at its
//!   birth (a flush, a compaction whose inputs' images are resident and
//!   read) *and* promoted on demand once a remote table proves hot
//!   (ghost-frequency admission) — into a full pool only in place of images
//!   readers stopped hitting, decided by [`ReadCache::extent_probe`] before
//!   the fetch.
//! * **Ghost-gated admission, FIFO eviction with second chance** — per
//!   shard: one FIFO, 2-bit frequency counters, and a ghost table of key
//!   fingerprints seen missing. A lookup that misses admits its record
//!   while the shard has room; once it is full, only a key the ghost table
//!   already remembers ([`ReadCache::block_probe`] decides *before* the
//!   bytes are copied), so one-touch traffic costs a probe and displaces
//!   nothing. Hits never reorder a list — no LRU lock convoy on the read
//!   path.
//! * **Version-aware invalidation** — table ids are never reused, and
//!   [`ReadCache::invalidate_table`] both purges a table's entries and
//!   *fences* the id in every shard's dead-table set, under the same shard
//!   lock an admission holds, so a racing in-flight fill can never
//!   resurrect a block of a freed extent. Hooked into version install,
//!   where compaction obsoletes its inputs — before GC can recycle their
//!   extents.
//!
//! The crate is dependency-free (std only) so it can sit under the model
//! checker and on the hottest path without pulling anything in.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Poison-tolerant lock: a thread that panicked while holding a shard lock
/// leaves at worst an approximate policy state (freq counters, queue
/// order), never a correctness problem — and the read hot path must not
/// turn someone else's panic into its own.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-entry bookkeeping overhead charged against the byte budget
/// (map slot + queue slot + `Arc` header, roughly).
const ENTRY_OVERHEAD: u64 = 96;

/// Never admit a single object larger than this into the *block* pool —
/// oversized reads (compaction scans, whole-extent fetches) would wipe a
/// shard in one admission.
const MAX_BLOCK_ADMIT: usize = 256 << 10;

/// Frequency counter saturation: the second chances a hot entry has earned.
const FREQ_MAX: u8 = 3;

/// A ghost word is a key fingerprint above a saturating heat count.
const HEAT_MAX: u32 = 0xFF;

/// How many dead table ids each shard's invalidation fence remembers. Ids are never
/// reused, so aging an id out of the fence can only re-admit bytes that a
/// *very* slow in-flight read fetched while the table was still pinned —
/// harmless for correctness, bounded waste for budget.
const DEAD_FENCE_CAP: usize = 1 << 16;

/// Configuration for the compute-side read cache.
///
/// Lives inside `DbConfig` as `cache`; `capacity_bytes == 0` disables the
/// cache entirely (the read path then behaves exactly as before).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total byte budget across both pools. 0 disables the cache.
    pub capacity_bytes: u64,
    /// Percentage of the budget reserved for the hot-extent pool
    /// (whole byte-addressable table images); the rest is the block pool.
    pub extent_percent: u8,
    /// Shard count (rounded up to a power of two). 0 = auto-size from the
    /// host's available parallelism.
    pub shards: usize,
    /// Total ghost-table capacity (fingerprints of keys recently seen
    /// missing), split across shards.
    pub ghost_entries: usize,
    /// Probe misses against one remote table before its whole extent is
    /// fetched and admitted into the extent pool. 0 disables on-demand
    /// promotion (flush-time images are still admitted).
    pub promote_extent_after: u32,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 0,
            extent_percent: 60,
            shards: 0,
            ghost_entries: 8192,
            promote_extent_after: 4,
        }
    }
}

impl CacheConfig {
    /// Whether the cache is enabled at all.
    pub fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// A config with the given total budget and default policy knobs.
    pub fn with_capacity(capacity_bytes: u64) -> CacheConfig {
        CacheConfig { capacity_bytes, ..CacheConfig::default() }
    }
}

/// A point-in-time copy of the cache counters plus occupancy gauges.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Block-pool hits.
    pub block_hits: u64,
    /// Block-pool misses.
    pub block_misses: u64,
    /// Extent-pool hits.
    pub extent_hits: u64,
    /// Extent-pool misses.
    pub extent_misses: u64,
    /// Entries admitted.
    pub inserts: u64,
    /// Entries evicted by the policy.
    pub evictions: u64,
    /// Entries purged by invalidation.
    pub invalidations: u64,
    /// Fabric bytes that hits avoided reading.
    pub bytes_saved: u64,
    /// On-demand whole-extent promotions.
    pub extent_promotions: u64,
    /// Fabric bytes spent fetching images for on-demand promotion.
    pub promoted_bytes: u64,
    /// Bytes currently resident (both pools, including entry overhead).
    pub resident_bytes: u64,
    /// Configured total budget.
    pub capacity_bytes: u64,
}

impl CacheStatsSnapshot {
    /// Total hits across both pools.
    pub fn hits(&self) -> u64 {
        self.block_hits + self.extent_hits
    }

    /// Total misses across both pools.
    pub fn misses(&self) -> u64 {
        self.block_misses + self.extent_misses
    }

    /// Hit ratio in `[0, 1]`; 0 when the cache saw no traffic.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// What the extent pool holds for a table probe ([`ReadCache::extent_probe`]).
pub enum ExtentProbe {
    /// The table's whole local image.
    Image(Arc<Vec<u8>>),
    /// No image; `promote` asks the caller to fetch and admit one.
    Missing {
        /// The table has proven hot, and the pool has room for its image or
        /// holds enough bytes of images readers stopped hitting.
        promote: bool,
    },
}

/// What the block pool holds for a located record ([`ReadCache::block_probe`]).
pub enum BlockProbe {
    /// The cached record.
    Record(Arc<Vec<u8>>),
    /// Not resident; `admit` says whether the caller should offer the bytes
    /// it is about to fetch ([`ReadCache::block_admit`]).
    Missing {
        /// The shard has room, or its ghost table remembered the key.
        admit: bool,
    },
}

/// Cache key: which table, and where inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    table: u64,
    offset: u64,
}

/// splitmix64 — cheap, well-mixed, dependency-free hashing for shard
/// selection and ghost fingerprints.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn key_hash(key: CacheKey) -> u64 {
    mix64(key.table ^ mix64(key.offset))
}

/// Hasher for the shard maps and the dead-table fence. Their keys are table
/// ids, record offsets and fingerprints this process made itself — nothing
/// an outsider chooses — so they use the same splitmix the shard selection
/// does instead of the default keyed hash, which costs more than the rest
/// of a lookup.
#[derive(Default)]
struct Splitmix(u64);

impl std::hash::Hasher for Splitmix {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }
}

type ShardMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<Splitmix>>;

struct Entry {
    data: Arc<Vec<u8>>,
    charge: u64,
    freq: u8,
    /// Whether the hand has passed the entry since its admission: until it
    /// has, `freq == 0` means "not read yet", not "no longer read".
    passed: bool,
}

/// One shard. Everything lives under one mutex: a hit is a hash lookup plus
/// a saturating frequency bump, a miss one more word in the ghost table —
/// O(1), no list reordering, so the critical section is a handful of
/// instructions (the convoy LRU builds by rotating its recency list on
/// every hit cannot form).
#[derive(Default)]
struct ShardInner {
    map: ShardMap<CacheKey, Entry>,
    fifo: VecDeque<CacheKey>,
    /// Ghost table: pairs of words indexed by key hash, each the
    /// fingerprint of a key seen missing above its heat, the misses counted
    /// for it since (0 = empty). A third key of a pair overwrites the one
    /// touched longer ago. Gates admission to a full shard and carries
    /// extent-promotion heat.
    ghost: Vec<u32>,
    bytes: u64,
    /// This shard's copy of the dead-table fence: marked by invalidation
    /// and checked by admission under the one shard lock, so there is no
    /// window between the check and the insert.
    dead: DeadFence,
    /// Bytes of located records this pool missed since its hand last
    /// turned (extent pool: [`ShardInner::age`]).
    unserved: u64,
    hits: u64,
    misses: u64,
    /// Fabric bytes that hits avoided reading.
    saved: u64,
    inserts: u64,
    evictions: u64,
    invalidations: u64,
    /// On-demand promotions granted, and the image bytes they fetch.
    promotions: u64,
    promoted: u64,
}

impl ShardInner {
    /// One turn of the FIFO's hand over its head: an entry hit since its
    /// last turn spends one of its second chances and goes round again; a
    /// cold one is evicted if `evict`, else goes round too. False when the
    /// queue is empty.
    fn turn(&mut self, evict: bool) -> bool {
        let Some(key) = self.fifo.pop_front() else { return false };
        let Some(entry) = self.map.get_mut(&key) else { return true };
        if entry.freq > 0 || !evict {
            entry.freq = entry.freq.saturating_sub(1);
            entry.passed = true;
            self.fifo.push_back(key);
        } else if let Some(entry) = self.map.remove(&key) {
            self.bytes -= entry.charge;
            self.evictions += 1;
        }
        true
    }

    /// The aging hand of a full pool: one turn, evicting nothing, per
    /// `image_len` bytes of located records the pool failed to serve. An
    /// image readers keep hitting is re-hit long before the hand is back;
    /// one nobody reads is cold after [`FREQ_MAX`] sweeps.
    fn age(&mut self, missed: u64, image_len: u64) {
        self.unserved += missed;
        if self.unserved >= image_len {
            self.unserved = 0;
            self.turn(false);
        }
    }

    /// Bytes held by entries no reader has hit since the hand last passed
    /// them. A fresh admission is not cold before its first pass: readers
    /// have had no time to hit it, and granting promotions against it lets
    /// each newcomer evict the previous one before its first read.
    fn cold_bytes(&self) -> u64 {
        self.map.values().filter(|e| e.freq == 0 && e.passed).map(|e| e.charge).sum()
    }

    /// The ghost pair of the key hashing to `hash`, the key's own word
    /// first — at heat 0, in place of the word touched longer ago, if the
    /// table did not hold the key.
    fn ghost_pair(&mut self, hash: u64) -> &mut [u32] {
        let tag = (hash >> 16) as u32 & !HEAT_MAX;
        // Slot count is a power of two chosen at construction.
        let at = hash as usize & (self.ghost.len() - 2);
        let pair = &mut self.ghost[at..at + 2];
        if pair[0] & !HEAT_MAX != tag {
            pair.swap(0, 1);
        }
        if pair[0] & !HEAT_MAX != tag {
            pair[0] = tag;
        }
        pair
    }

    /// Count one more miss of the key hashing to `hash` and report its
    /// heat: 1 for a key the table did not hold.
    fn ghost_touch(&mut self, hash: u64) -> u32 {
        let word = &mut self.ghost_pair(hash)[0];
        if *word & HEAT_MAX < HEAT_MAX {
            *word += 1;
        }
        *word & HEAT_MAX
    }

    /// Forget the key hashing to `hash` (it was admitted or promoted).
    fn ghost_clear(&mut self, hash: u64) {
        let pair = self.ghost_pair(hash);
        (pair[0], pair[1]) = (pair[1], 0);
    }
}

/// One budgeted pool (blocks or extents): a vector of shards.
struct Pool {
    shards: Vec<Mutex<ShardInner>>,
    /// Per-shard byte budget.
    shard_capacity: u64,
}

impl Pool {
    fn new(capacity: u64, shards: usize, ghost_entries: usize) -> Pool {
        let shards = shards.max(1);
        let shard_capacity = (capacity / shards as u64).max(1);
        let ghost_slots = (ghost_entries / shards).max(64).next_power_of_two();
        let shard = || ShardInner { ghost: vec![0; ghost_slots], ..ShardInner::default() };
        let shards = (0..shards).map(|_| Mutex::new(shard())).collect();
        Pool { shards, shard_capacity }
    }

    fn shard_for(&self, hash: u64) -> &Mutex<ShardInner> {
        // Shard count is a power of two chosen at construction.
        &self.shards[(hash >> 48) as usize & (self.shards.len() - 1)]
    }

    /// Look up `key`, counting the hit or miss; a hit bumps the entry's
    /// saturating frequency counter and counts the `serves` bytes (at most
    /// the entry's) it spared the fabric. A miss hands the shard (still
    /// locked) and the key's hash to `on_miss`: what else a caller has to
    /// ask or note there costs no second visit.
    fn get<R>(
        &self,
        key: CacheKey,
        serves: u64,
        on_miss: impl FnOnce(&mut ShardInner, u64) -> R,
    ) -> Result<Arc<Vec<u8>>, R> {
        let hash = key_hash(key);
        let mut inner = plock(self.shard_for(hash));
        let inner = &mut *inner;
        if let Some(entry) = inner.map.get_mut(&key) {
            inner.hits += 1;
            inner.saved += serves.min(entry.data.len() as u64);
            entry.freq = (entry.freq + 1).min(FREQ_MAX);
            return Ok(Arc::clone(&entry.data));
        }
        inner.misses += 1;
        Err(on_miss(inner, hash))
    }

    /// `key`'s entry if resident, and whether a lookup has hit it since it
    /// was admitted (or last given a second chance), without touching
    /// frequency or stats.
    fn peek(&self, key: CacheKey) -> Option<(Arc<Vec<u8>>, bool)> {
        let inner = plock(self.shard_for(key_hash(key)));
        inner.map.get(&key).map(|e| (Arc::clone(&e.data), e.freq > 0))
    }

    /// Admit `data` under `key`, whatever the ghost table says. Returns
    /// false if the object alone exceeds the shard budget, the table is
    /// fenced dead, or the key is already resident.
    fn insert(&self, key: CacheKey, data: Arc<Vec<u8>>) -> bool {
        let charge = data.len() as u64 + ENTRY_OVERHEAD;
        if charge > self.shard_capacity {
            return false;
        }
        let mut inner = plock(self.shard_for(key_hash(key)));
        let inner = &mut *inner;
        if inner.dead.contains(key.table) || inner.map.contains_key(&key) {
            return false; // invalidated, or a racing fill already admitted it
        }
        // FIFO eviction until the newcomer fits the shard's budget (made
        // before it joins the queue, so it is never its own victim).
        while inner.bytes + charge > self.shard_capacity && inner.turn(true) {}
        inner.map.insert(key, Entry { data, charge, freq: 0, passed: false });
        inner.bytes += charge;
        inner.fifo.push_back(key);
        inner.inserts += 1;
        true
    }

    /// Fence `table` dead and purge its entries, shard by shard. Mark and
    /// purge happen under the lock an admission holds for its fence check
    /// and insert, so once this returns no entry of `table` is resident and
    /// none can be admitted.
    fn invalidate_table(&self, table: u64) {
        for shard in &self.shards {
            let mut inner = plock(shard);
            let inner = &mut *inner;
            inner.dead.mark(table);
            let (before, mut freed) = (inner.map.len(), 0);
            inner.map.retain(|k, e| k.table != table || { freed += e.charge; false });
            if inner.map.len() == before {
                continue;
            }
            inner.bytes -= freed;
            inner.invalidations += (before - inner.map.len()) as u64;
            // Compact the queue so invalidation storms cannot grow it
            // without bound on a cache that never reaches capacity.
            inner.fifo.retain(|k| k.table != table);
        }
    }

    /// Sum `f` over the shards, each read under its lock.
    fn sum(&self, f: impl Fn(&ShardInner) -> u64) -> u64 {
        self.shards.iter().map(|s| f(&plock(s))).sum()
    }

    fn resident_bytes(&self) -> u64 {
        self.sum(|s| s.bytes)
    }
}

/// FIFO-bounded set of dead (invalidated) table ids: the version fence.
#[derive(Default)]
struct DeadFence {
    set: std::collections::HashSet<u64, std::hash::BuildHasherDefault<Splitmix>>,
    fifo: VecDeque<u64>,
}

impl DeadFence {
    fn mark(&mut self, table: u64) {
        if self.set.insert(table) {
            self.fifo.push_back(table);
            while self.fifo.len() > DEAD_FENCE_CAP {
                if let Some(old) = self.fifo.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }

    fn contains(&self, table: u64) -> bool {
        self.set.contains(&table)
    }
}

/// The compute-side read cache: block pool + hot-extent pool, each shard
/// with its own dead-table fence, shared by every reader thread of one
/// `Db` shard.
pub struct ReadCache {
    cfg: CacheConfig,
    blocks: Pool,
    extents: Pool,
}

impl ReadCache {
    /// Build a cache from `cfg`; `None` when the config disables caching.
    pub fn new(cfg: CacheConfig) -> Option<Arc<ReadCache>> {
        if !cfg.enabled() {
            return None;
        }
        let shards = if cfg.shards == 0 {
            std::thread::available_parallelism().map_or(8, |n| n.get() * 2).clamp(4, 64)
        } else {
            cfg.shards
        }
        .next_power_of_two();
        let extent_capacity =
            cfg.capacity_bytes * u64::from(cfg.extent_percent.min(100)) / 100;
        let block_capacity = cfg.capacity_bytes - extent_capacity;
        let blocks = Pool::new(block_capacity.max(1), shards, cfg.ghost_entries);
        // Extent entries are a handful of whole table images: one shard, so
        // the whole budget can hold an image whatever the host's core count.
        let extents = Pool::new(extent_capacity.max(1), 1, cfg.ghost_entries / 4);
        Some(Arc::new(ReadCache { cfg, blocks, extents }))
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Total byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.cfg.capacity_bytes
    }

    /// Bytes currently resident across both pools.
    pub fn resident_bytes(&self) -> u64 {
        self.blocks.resident_bytes() + self.extents.resident_bytes()
    }

    /// Look up a data block / record of `table` at `offset`. A hit also
    /// accounts the fabric bytes the caller did not have to read.
    pub fn block_get(&self, table: u64, offset: u64) -> Option<Arc<Vec<u8>>> {
        self.blocks.get(CacheKey { table, offset }, u64::MAX, |_, _| ()).ok()
    }

    /// [`Self::block_get`] for a lookup about to fetch the `len` bytes it
    /// misses: the same visit to the shard decides whether they are worth
    /// keeping, before anything is copied. While the shard has room, they
    /// are. Once it is full, only the second miss of a key inside the ghost
    /// table's memory earns admission (the first is remembered there and
    /// costs nothing else), so traffic that never repeats evicts nothing.
    pub fn block_probe(&self, table: u64, offset: u64, len: usize) -> BlockProbe {
        let charge = len as u64 + ENTRY_OVERHEAD;
        let capacity = self.blocks.shard_capacity;
        let found = self.blocks.get(CacheKey { table, offset }, u64::MAX, |shard, hash| {
            if shard.bytes + charge <= capacity {
                return true;
            }
            let again = shard.ghost_touch(hash) > 1;
            if again {
                shard.ghost_clear(hash);
            }
            again
        });
        match found {
            Ok(data) => BlockProbe::Record(data),
            Err(admit) => BlockProbe::Missing { admit },
        }
    }

    /// Admit a freshly fetched block, whatever a probe said. Refused for
    /// dead tables (the version fence) and for oversized objects.
    pub fn block_admit(&self, table: u64, offset: u64, data: &Arc<Vec<u8>>) {
        if data.len() <= MAX_BLOCK_ADMIT {
            self.blocks.insert(CacheKey { table, offset }, Arc::clone(data));
        }
    }

    /// Look up `table`'s whole local image, counting hit/miss stats but no
    /// saved bytes: what a hit spares is whatever the caller cuts from the
    /// image ([`Self::extent_probe`] counts its record).
    pub fn extent_get(&self, table: u64) -> Option<Arc<Vec<u8>>> {
        self.extents.get(CacheKey { table, offset: 0 }, 0, |_, _| ()).ok()
    }

    /// Look up `table`'s image without touching stats or frequency, and
    /// whether a reader has hit it since its admission (scans use a resident
    /// image for free; a compaction carries its inputs' images over to its
    /// outputs only if somebody reads them).
    pub fn extent_peek(&self, table: u64) -> Option<(Arc<Vec<u8>>, bool)> {
        self.extents.peek(CacheKey { table, offset: 0 })
    }

    /// Admit a whole table image (mirrored at the table's birth, or
    /// promoted on demand). Returns whether it was admitted.
    pub fn extent_admit(&self, table: u64, image: Arc<Vec<u8>>) -> bool {
        self.extents.insert(CacheKey { table, offset: 0 }, image)
    }

    /// Whether a flush should mirror its image locally: the extent pool
    /// must exist and be able to hold an image of `len` bytes.
    pub fn wants_flush_image(&self, len: u64) -> bool {
        len + ENTRY_OVERHEAD <= self.extents.shard_capacity
    }

    /// [`Self::extent_get`] for a table probe that located a `record_len`-
    /// byte record: a hit counts the record as saved; a miss records the
    /// probe's heat for `table` (image of `image_len` bytes) in the same
    /// visit to the shard and decides, before anything is fetched, whether
    /// the caller should fetch and [`Self::extent_admit`] the whole image.
    /// A table that has proven hot is promoted while the pool has room;
    /// once it is full, only if images no reader has hit since the hand
    /// last passed them hold the bytes it needs — the ones its admission
    /// will evict. A refused table keeps its heat.
    pub fn extent_probe(&self, table: u64, image_len: u64, record_len: u64) -> ExtentProbe {
        let charge = image_len + ENTRY_OVERHEAD;
        let capacity = self.extents.shard_capacity;
        let after = self.cfg.promote_extent_after.min(HEAT_MAX);
        let verdict = |shard: &mut ShardInner, hash| {
            // A fenced table has no heat; an image the pool cannot hold is
            // never promoted.
            if after == 0 || charge > capacity || shard.dead.contains(table) {
                return false;
            }
            let heat = shard.ghost_touch(hash);
            // What resident images would have to give up for this one.
            let need = (shard.bytes + charge).saturating_sub(capacity);
            if need > 0 {
                shard.age(record_len, image_len);
            }
            if heat < after || need > 0 && shard.cold_bytes() < need {
                return false;
            }
            shard.ghost_clear(hash);
            shard.promotions += 1;
            shard.promoted += image_len;
            true
        };
        match self.extents.get(CacheKey { table, offset: 0 }, record_len, verdict) {
            Ok(image) => ExtentProbe::Image(image),
            Err(promote) => ExtentProbe::Missing { promote },
        }
    }

    /// Version-aware invalidation: purge every cached object of `table`
    /// and fence the id so racing in-flight fills cannot resurrect them.
    /// Called on version install for obsoleted tables, before GC recycles
    /// their extents (idempotent).
    pub fn invalidate_table(&self, table: u64) {
        self.blocks.invalidate_table(table);
        self.extents.invalidate_table(table);
    }

    /// Point-in-time counters + occupancy.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        let both = |f: fn(&ShardInner) -> u64| self.blocks.sum(f) + self.extents.sum(f);
        CacheStatsSnapshot {
            block_hits: self.blocks.sum(|s| s.hits),
            block_misses: self.blocks.sum(|s| s.misses),
            extent_hits: self.extents.sum(|s| s.hits),
            extent_misses: self.extents.sum(|s| s.misses),
            inserts: both(|s| s.inserts),
            evictions: both(|s| s.evictions),
            invalidations: both(|s| s.invalidations),
            bytes_saved: both(|s| s.saved),
            extent_promotions: self.extents.sum(|s| s.promotions),
            promoted_bytes: self.extents.sum(|s| s.promoted),
            resident_bytes: self.resident_bytes(),
            capacity_bytes: self.cfg.capacity_bytes,
        }
    }

    /// Extent-pool capacity (promotion sizing).
    pub fn extent_capacity(&self) -> u64 {
        self.extents.shard_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: u64) -> Arc<ReadCache> {
        ReadCache::new(CacheConfig {
            capacity_bytes: capacity,
            extent_percent: 50,
            shards: 1,
            ghost_entries: 256,
            promote_extent_after: 3,
        })
        .unwrap()
    }

    fn blob(n: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![0xAB; n])
    }

    /// The record a table probe located.
    const RECORD: u64 = 1000;

    /// One missing probe of `table`: does it ask for promotion?
    fn probe_promotes(c: &ReadCache, table: u64, image_len: u64) -> bool {
        matches!(c.extent_probe(table, image_len, RECORD), ExtentProbe::Missing { promote: true })
    }

    #[test]
    fn disabled_config_builds_nothing() {
        assert!(ReadCache::new(CacheConfig::default()).is_none());
        assert!(!CacheConfig::default().enabled());
        assert!(CacheConfig::with_capacity(1).enabled());
    }

    #[test]
    fn block_hit_after_admit_and_stats() {
        let c = cache(1 << 20);
        assert!(c.block_get(1, 100).is_none());
        c.block_admit(1, 100, &blob(500));
        let got = c.block_get(1, 100).expect("hit");
        assert_eq!(got.len(), 500);
        let s = c.snapshot();
        assert_eq!(s.block_hits, 1);
        assert_eq!(s.block_misses, 1);
        assert_eq!(s.bytes_saved, 500);
        assert_eq!(s.inserts, 1);
        assert!(s.hit_ratio() > 0.49 && s.hit_ratio() < 0.51);
        assert!(s.resident_bytes > 500);
    }

    #[test]
    fn budget_is_enforced() {
        let c = cache(64 << 10); // 32 KiB block pool (1 shard)
        for i in 0..1000u64 {
            c.block_admit(1, i * 4096, &blob(1024));
        }
        let s = c.snapshot();
        assert!(s.evictions > 0, "must have evicted");
        assert!(
            c.blocks.resident_bytes() <= 32 << 10,
            "block pool over budget: {}",
            c.blocks.resident_bytes()
        );
    }

    /// What a reader does with a located record: probe, and on a miss fetch
    /// (here: make up) the bytes and admit them if the probe said so.
    /// Returns whether the probe hit.
    fn lookup(c: &ReadCache, table: u64, offset: u64) -> bool {
        match c.block_probe(table, offset, 1024) {
            BlockProbe::Record(_) => true,
            BlockProbe::Missing { admit } => {
                if admit {
                    c.block_admit(table, offset, &blob(1024));
                }
                false
            }
        }
    }

    #[test]
    fn a_full_shard_admits_a_key_on_its_second_miss() {
        let c = cache(64 << 10); // 32 KiB block pool: 29 records of 1 KiB
        for i in 0..29 {
            assert!(!lookup(&c, 1, i), "cold");
            assert!(lookup(&c, 1, i), "admitted while the shard has room");
        }
        let full = c.snapshot();
        assert_eq!((full.inserts, full.evictions), (29, 0));
        // First miss on the full shard: remembered, not admitted.
        assert!(!lookup(&c, 2, 0));
        assert_eq!(c.snapshot().inserts, 29);
        assert!(c.block_get(2, 0).is_none());
        // Second miss: admitted, at the price of one cold entry; the ghost
        // forgets the key, so nothing lingers to re-admit it after eviction.
        assert!(!lookup(&c, 2, 0));
        assert!(lookup(&c, 2, 0), "the third lookup hits");
        let s = c.snapshot();
        assert_eq!((s.inserts, s.evictions), (30, 1));
        assert!(c.blocks.resident_bytes() <= 32 << 10);
        // `block_admit` itself stays unconditional.
        c.block_admit(3, 0, &blob(1024));
        assert!(c.block_get(3, 0).is_some());
    }

    #[test]
    fn one_touch_sweep_of_ten_times_capacity_leaves_the_hot_set_intact() {
        let c = cache(64 << 10);
        for _ in 0..2 {
            for i in 0..29 {
                lookup(&c, 7, i);
            }
        }
        let before = c.snapshot();
        for i in 0..290 {
            assert!(!lookup(&c, 8, 1_000_000 + i));
        }
        let after = c.snapshot();
        assert_eq!((after.inserts, after.evictions), (before.inserts, before.evictions));
        assert!((0..29).all(|i| lookup(&c, 7, i)), "the sweep displaced a hot record");
    }

    #[test]
    fn a_hot_set_displaces_a_cold_cache_within_three_passes() {
        let c = cache(64 << 10);
        for i in 0..29 {
            lookup(&c, 1, i); // cold: one touch each, shard now full
        }
        let pass = |c: &ReadCache| (0..20).filter(|&i| lookup(c, 2, i)).count();
        assert_eq!(pass(&c), 0, "first pass: remembered");
        assert_eq!(pass(&c), 0, "second pass: admitted");
        // ...but for the few keys a colliding one overwrote in the ghost table.
        let third = pass(&c);
        assert!(third >= 18, "third pass served {third}: {:?}", c.snapshot());
        assert_eq!(pass(&c), 20);
    }

    #[test]
    fn ghost_words_overwrite_on_collision_saturate_and_clear() {
        let pool = Pool::new(1 << 20, 1, 64);
        let mut shard = plock(&pool.shards[0]);
        assert_eq!(shard.ghost.len(), 64);
        // One pair (low bits 4 and 5), three fingerprints (bits 24..48).
        let (a, b, c) = (5 | 1 << 24, 4 | 2 << 24, 5 | 3 << 24);
        assert_eq!(shard.ghost_touch(a), 1);
        assert_eq!(shard.ghost_touch(b), 1);
        assert_eq!(shard.ghost_touch(a), 2, "a pair holds two keys");
        assert_eq!(shard.ghost_touch(c), 1, "a third overwrites the one touched longer ago");
        assert_eq!(shard.ghost_touch(a), 3);
        assert_eq!(shard.ghost_touch(b), 1, "which starts over, in c's place");
        for _ in 0..300 {
            shard.ghost_touch(a);
        }
        assert_eq!(shard.ghost_touch(a), HEAT_MAX, "heat saturates");
        shard.ghost_clear(a);
        assert_eq!(shard.ghost_touch(a), 1, "cleared");
        // Other pairs never noticed.
        assert_eq!(shard.ghost.iter().filter(|&&w| w != 0).count(), 2);
    }

    #[test]
    fn invalidation_purges_and_fences() {
        let c = cache(1 << 20);
        c.block_admit(3, 0, &blob(100));
        c.block_admit(3, 200, &blob(100));
        c.block_admit(4, 0, &blob(100));
        assert!(c.extent_admit(3, blob(5000)));
        c.invalidate_table(3);
        assert!(c.block_get(3, 0).is_none());
        assert!(c.block_get(3, 200).is_none());
        assert!(c.extent_get(3).is_none());
        assert!(c.block_get(4, 0).is_some(), "other tables untouched");
        assert_eq!(c.snapshot().invalidations, 3);
        // The fence refuses late fills for the dead table.
        c.block_admit(3, 0, &blob(100));
        assert!(!c.extent_admit(3, blob(100)));
        assert!(c.block_get(3, 0).is_none(), "dead table must not be re-admitted");
        // Resident accounting survived the purge.
        let before = c.resident_bytes();
        c.invalidate_table(3); // idempotent
        assert_eq!(c.resident_bytes(), before);
    }

    #[test]
    fn extent_promotion_after_threshold() {
        let c = cache(1 << 20); // promote_extent_after = 3
        assert!(!probe_promotes(&c, 9, 10_000));
        assert!(!probe_promotes(&c, 9, 10_000));
        assert!(probe_promotes(&c, 9, 10_000), "third miss crosses the threshold");
        assert!(!probe_promotes(&c, 9, 10_000), "promotion cleared the heat");
        assert!(c.extent_admit(9, blob(10_000)));
        assert!(matches!(c.extent_probe(9, 10_000, RECORD), ExtentProbe::Image(_)));
        let s = c.snapshot();
        assert_eq!((s.extent_promotions, s.extent_hits, s.extent_misses), (1, 1, 4));
        assert_eq!((s.promoted_bytes, s.bytes_saved), (10_000, RECORD), "a hit saves its record");
        // Oversized images are never promoted.
        assert!(!probe_promotes(&c, 10, 10 << 20));
        // Disabled promotion never fires.
        let c2 = ReadCache::new(CacheConfig {
            promote_extent_after: 0,
            ..CacheConfig::with_capacity(1 << 20)
        })
        .unwrap();
        for _ in 0..10 {
            assert!(!probe_promotes(&c2, 1, 100));
        }
    }

    #[test]
    fn a_full_pool_promotes_only_in_place_of_an_image_readers_stopped_hitting() {
        let c = cache(1 << 20); // extent pool 512 KiB, promote after 3
        let img = 200 << 10; // room for two images
        for t in [1, 2] {
            assert!(!probe_promotes(&c, t, img) && !probe_promotes(&c, t, img));
            assert!(probe_promotes(&c, t, img), "the pool has room");
            assert!(c.extent_admit(t, blob(img as usize)));
        }
        let hit = |t| matches!(c.extent_probe(t, img, RECORD), ExtentProbe::Image(_));
        // Full, and readers hit both images between any two misses of table
        // 3: however hot it is, every verdict is a refusal.
        for _ in 0..5_000 {
            assert!(hit(1) && hit(2));
            assert!(!probe_promotes(&c, 3, img));
        }
        let s = c.snapshot();
        assert_eq!((s.extent_promotions, s.promoted_bytes, s.inserts, s.evictions), (2, 2 * img, 2, 0));
        // Readers stop hitting table 1. The hand turns once per image's worth
        // of missed records and passes table 1 every second turn: after
        // FREQ_MAX passes it is cold, and table 3 — its heat kept — is
        // promoted at that very miss.
        let per_turn = img / RECORD + 1;
        let mut misses = 0;
        while !probe_promotes(&c, 3, img) {
            assert!(hit(2));
            misses += 1;
        }
        assert!((2 * per_turn..=2 * u64::from(FREQ_MAX) * per_turn).contains(&misses), "{misses} misses");
        assert!(c.extent_admit(3, blob(img as usize)));
        assert!(c.extent_peek(1).is_none(), "the cold image is the victim");
        assert!(c.extent_peek(2).is_some() && c.extent_peek(3).is_some());
        let s = c.snapshot();
        assert_eq!((s.extent_promotions, s.promoted_bytes, s.evictions), (3, 3 * img, 1));
        assert!(c.resident_bytes() <= c.extent_capacity() + c.blocks.shard_capacity);
    }

    #[test]
    fn a_fresh_image_is_no_victim_before_the_hand_has_passed_it() {
        let c = cache(1 << 20); // extent pool 512 KiB, promote after 3
        let img = 200 << 10; // room for two images
        for t in [1, 2] {
            assert!(c.extent_admit(t, blob(img as usize)), "mirrored at a flush");
        }
        for _ in 0..FREQ_MAX {
            assert!(matches!(c.extent_probe(2, img, RECORD), ExtentProbe::Image(_)));
        }
        // Table 3 is past its threshold from its third miss on, but image 1
        // has had no time to be read: it is cold only once the hand has
        // passed it, at the first turn.
        let per_turn = img / RECORD + 1;
        let mut misses = 1;
        while !probe_promotes(&c, 3, img) {
            misses += 1;
        }
        assert_eq!(misses, per_turn);
        assert!(c.extent_admit(3, blob(img as usize)));
        assert!(c.extent_peek(1).is_none() && c.extent_peek(2).is_some());
        // The newcomer is no victim for the next hot table either: image 3
        // goes cold only when the hand reaches it, after passing image 2.
        let mut misses = 1;
        while !probe_promotes(&c, 4, img) {
            misses += 1;
        }
        assert_eq!(misses, 2 * per_turn);
        assert_eq!(c.snapshot().extent_promotions, 2);
    }

    #[test]
    fn an_eight_mib_image_fits_a_32_mib_cache_whatever_the_shard_count() {
        let image = 8 << 20;
        for shards in [4, 16, 64] {
            let c = ReadCache::new(CacheConfig { shards, ..CacheConfig::with_capacity(32 << 20) }).unwrap();
            assert!(c.wants_flush_image(image), "{shards} shards");
            // promote_extent_after = 4 by default.
            let verdicts: Vec<bool> = (0..4).map(|_| probe_promotes(&c, 1, image)).collect();
            assert_eq!(verdicts, [false, false, false, true], "{shards} shards");
            assert!(c.extent_admit(1, blob(image as usize)), "{shards} shards");
        }
    }

    #[test]
    fn extent_peek_does_not_touch_stats() {
        let c = cache(1 << 20);
        assert!(c.extent_peek(1).is_none());
        c.extent_admit(1, blob(100));
        assert!(matches!(c.extent_peek(1), Some((_, false))), "admitted, never read");
        let s = c.snapshot();
        assert_eq!(s.extent_hits + s.extent_misses, 0);
        // A reader's hit is what the peek reports; peeking changes nothing.
        assert!(c.extent_get(1).is_some());
        assert!(matches!(c.extent_peek(1), Some((_, true))));
        assert_eq!(c.snapshot().extent_hits, 1);
    }

    #[test]
    fn wants_flush_image_respects_extent_budget() {
        let c = cache(1 << 20); // extent pool 512 KiB, 1 shard
        assert!(c.wants_flush_image(100 << 10));
        assert!(!c.wants_flush_image(1 << 20));
    }

    #[test]
    fn concurrent_hammer_is_consistent() {
        let c = cache(256 << 10);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let table = 1 + (i % 5);
                    match i % 4 {
                        0 => c.block_admit(table, i * 64, &Arc::new(vec![t as u8; 256])),
                        1 => {
                            let _ = c.block_get(table, (i - 1) * 64);
                        }
                        2 => {
                            let _ = c.extent_admit(table, Arc::new(vec![t as u8; 4096]));
                        }
                        _ => c.invalidate_table(1 + ((i + t) % 5)),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // After the storm the books still balance: no negative occupancy
        // (would wrap), nothing above budget per pool.
        assert!(c.blocks.resident_bytes() < 1 << 40, "occupancy wrapped negative");
        assert!(c.extents.resident_bytes() < 1 << 40, "occupancy wrapped negative");
    }
}
