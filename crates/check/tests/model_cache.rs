//! Model-check the read cache's version fence from `crates/cache`
//! (ISSUE 7, per-shard since ISSUE 17): concurrent admit / lookup / evict /
//! invalidate on miniature shards re-implemented over the dlsm-check shim.
//! The property under test is the one the fence exists for: **once
//! `invalidate_table(T)` has returned, no lookup of `T` ever hits** — a
//! cached block can never serve data from a deleted extent.
//!
//! The protocol modelled is the crate's: every shard keeps its own copy of
//! the dead set beside its entries, under the one shard lock. An admission
//! checks the fence and inserts in one critical section; an invalidation
//! walks the shards, marking and purging each in one critical section — so
//! there is no window between check and insert to re-check, whichever
//! shard the fill and the walk meet in. The straw man (`FENCED = false`)
//! skips the fence entirely — purge-only invalidation — and the checker
//! must catch it serving a stale block after an in-flight fill resurrects
//! the dead table's entry.
//!
//! Since ISSUE 21 a lookup learns whether its record will be admitted from
//! the probe that missed, before the READ, and inserts after it. The verdict
//! is about room, not about liveness: `invalidate_table` may run in between,
//! so the insert still checks the fence. The second straw man trusts the
//! verdict instead and must be caught the same way.
//!
//! Since ISSUE 24 a compaction's outputs are born cached: the install admits
//! their images, *then* publishes the version, then invalidates the inputs.
//! A reader of the new version therefore finds every carried output resident
//! — unless a later compaction has already fenced it, which only a published
//! table can be. The third straw man publishes first and admits after, where
//! the fence may already stand: the checker must catch its reader missing.

use std::sync::Arc;

use dlsm_check::shim::{thread, AtomicU64, Mutex, Ordering};
use dlsm_check::Checker;

/// One cache shard in miniature: a FIFO of `(table, bytes)` entries (no
/// second chances — eviction order is irrelevant to the fence) and the
/// shard's copy of the dead-table set, under one lock.
struct MiniShard {
    cap: usize,
    state: Mutex<ShardState>,
}

#[derive(Default)]
struct ShardState {
    entries: Vec<(u64, u64)>,
    dead: Vec<u64>,
    /// Tables seen missing while the shard was full.
    ghost: Vec<u64>,
}

/// Two shards, as a table's objects spread over the real cache's pools and
/// shards: `invalidate` must fence and purge every one of them.
struct MiniCache {
    shards: [MiniShard; 2],
}

impl MiniCache {
    fn new(cap: usize) -> Arc<MiniCache> {
        let shard = || MiniShard { cap, state: Mutex::new(ShardState::default()) };
        Arc::new(MiniCache { shards: [shard(), shard()] })
    }

    fn get(&self, shard: usize, table: u64) -> Option<u64> {
        self.shards[shard].state.lock().entries.iter().find(|e| e.0 == table).map(|e| e.1)
    }

    /// `ReadCache::block_probe`: the entry, or — decided in the same
    /// critical section — whether the caller should admit what it is about
    /// to fetch: yes while the shard has room, else only on the second miss
    /// the ghost sees.
    fn probe(&self, shard: usize, table: u64) -> Result<u64, bool> {
        let shard = &self.shards[shard];
        let mut s = shard.state.lock();
        if let Some(e) = s.entries.iter().find(|e| e.0 == table) {
            return Ok(e.1);
        }
        if s.entries.len() < shard.cap {
            return Err(true);
        }
        let again = s.ghost.contains(&table);
        if again {
            s.ghost.retain(|&t| t != table);
        } else {
            s.ghost.push(table);
        }
        Err(again)
    }

    /// `Pool::insert`: fence check and insert (evicting FIFO order past
    /// `cap`) under the shard lock. `FENCED = false` is the straw man:
    /// insert unconditionally.
    fn admit<const FENCED: bool>(&self, shard: usize, table: u64, bytes: u64) {
        let shard = &self.shards[shard];
        let mut s = shard.state.lock();
        if FENCED && s.dead.contains(&table) {
            return;
        }
        s.entries.retain(|x| x.0 != table); // overwrite, don't duplicate
        s.entries.push((table, bytes));
        if s.entries.len() > shard.cap {
            s.entries.remove(0); // evict the FIFO head
        }
    }

    /// `ReadCache::invalidate_table`: shard by shard, mark the fence and
    /// purge in one critical section. (The straw man records the dead id
    /// too — nothing reads it there but the oracle below.)
    fn invalidate(&self, table: u64) {
        for shard in &self.shards {
            let mut s = shard.state.lock();
            s.dead.push(table);
            s.entries.retain(|x| x.0 != table);
        }
    }
}

/// Drive the shards with a filler racing an invalidator, a reader mixing
/// in lookups, and a capacity small enough that admissions evict. The
/// oracle inside every interleaving: after `invalidate(1)` returns,
/// `get(_, 1)` misses in both shards — and it keeps missing at join time
/// even though the filler may still have been mid-admission when the first
/// probe ran.
fn explore<const FENCED: bool>() -> dlsm_check::Report {
    Checker::new(if FENCED { "cache-fence" } else { "cache-fence-strawman" })
        .preemption_bound(3)
        .explore(|| {
            let cache = MiniCache::new(1);

            // In-flight fills of table 1 (bytes already fetched from the
            // fabric) — a record into shard 0, an image into shard 1 —
            // racing the invalidation, plus traffic on table 2 to exercise
            // eviction alongside.
            let c1 = Arc::clone(&cache);
            let filler = thread::spawn(move || {
                c1.admit::<FENCED>(1, 1, 10);
                c1.admit::<FENCED>(0, 1, 10);
                c1.admit::<FENCED>(0, 2, 20);
            });

            // Reader: lookups must only ever observe a table's one
            // immutable value, live or not.
            let c2 = Arc::clone(&cache);
            let reader = thread::spawn(move || {
                for t in [1u64, 2] {
                    if let Some(v) = c2.get(0, t) {
                        assert_eq!(v, t * 10, "table {t} served foreign bytes {v}");
                    }
                }
            });

            // Invalidator: compaction obsoletes table 1 and immediately
            // re-probes — the stale-serve oracle.
            cache.invalidate(1);
            for shard in 0..2 {
                assert!(
                    cache.get(shard, 1).is_none(),
                    "dead table 1 served from shard {shard} after invalidate returned"
                );
            }

            filler.join().unwrap();
            reader.join().unwrap();

            // Quiescent oracle: every dead table drained, capacity held.
            for shard in &cache.shards {
                let s = shard.state.lock();
                for t in &s.dead {
                    assert!(
                        !s.entries.iter().any(|e| e.0 == *t),
                        "dead table {t} still resident at join"
                    );
                }
                assert!(s.entries.len() <= 1, "capacity exceeded: {:?}", s.entries);
            }
        })
}

/// The fenced protocol holds the no-stale-serve property across every
/// interleaving — including the fill that reaches a shard the walk has
/// already left (refused: that shard's fence is marked) and the one that
/// reaches a shard the walk has not come to yet (purged when it does).
/// Exhaustive over >= 1000 interleavings (ISSUE 7 acceptance).
#[test]
fn fenced_cache_never_serves_a_dead_table() {
    let report = explore::<true>();
    assert!(report.violation.is_none(), "fence violation: {:?}", report.violation);
    assert!(report.complete, "state space truncated at {} executions", report.executions);
    assert!(
        report.executions >= 1000,
        "expected >= 1000 interleavings, explored {}",
        report.executions
    );
}

/// The straw man (no fence: purge-only invalidation, unconditional
/// admission) *must* be caught serving a stale block: the in-flight fill
/// lands after the purge and the dead table's entry is resurrected. If
/// the checker stops finding this, the model (or the scheduler) broke.
#[test]
fn unfenced_cache_is_caught_serving_stale_blocks() {
    let report = explore::<false>();
    assert!(
        report.violation.is_some(),
        "checker failed to catch the unfenced resurrection in {} executions",
        report.executions
    );
}

/// A lookup of table 1 — probe, READ with no lock held, admit on the
/// probe's verdict, look again — racing the invalidation of table 1, on a
/// shard with room and on one table 2 has filled (where the first probe is
/// only remembered and the second earns the admission).
fn explore_probe<const FENCED: bool>() -> dlsm_check::Report {
    Checker::new(if FENCED { "cache-probe-fence" } else { "cache-probe-strawman" })
        .preemption_bound(3)
        .explore(|| {
            let cache = MiniCache::new(1);
            cache.admit::<FENCED>(1, 2, 20);

            let c1 = Arc::clone(&cache);
            let reader = thread::spawn(move || {
                for shard in [0, 1, 1] {
                    match c1.probe(shard, 1) {
                        Ok(v) => assert_eq!(v, 10, "table 1 served foreign bytes {v}"),
                        Err(true) => c1.admit::<FENCED>(shard, 1, 10),
                        Err(false) => {}
                    }
                }
            });

            cache.invalidate(1);
            for shard in 0..2 {
                assert!(
                    cache.get(shard, 1).is_none(),
                    "dead table 1 served from shard {shard} after invalidate returned"
                );
            }
            reader.join().unwrap();
            for (i, shard) in cache.shards.iter().enumerate() {
                let s = shard.state.lock();
                assert!(!s.entries.iter().any(|e| e.0 == 1), "dead table 1 resident in shard {i} at join");
                assert!(s.entries.len() <= 1, "capacity exceeded: {:?}", s.entries);
            }
        })
}

/// Probe says admit → `invalidate_table` → admit: refused by the fence at
/// insert, in every interleaving.
#[test]
fn a_probe_verdict_does_not_outlive_the_fence() {
    let report = explore_probe::<true>();
    assert!(report.violation.is_none(), "fence violation: {:?}", report.violation);
    assert!(report.complete, "state space truncated at {} executions", report.executions);
    assert!(report.executions >= 100, "explored only {} interleavings", report.executions);
}

/// The straw man that takes the probe's "admit" for leave to insert must be
/// caught resurrecting the dead table.
#[test]
fn trusting_the_probe_verdict_is_caught_serving_a_dead_table() {
    let report = explore_probe::<false>();
    assert!(
        report.violation.is_some(),
        "checker failed to catch the trusted verdict in {} executions",
        report.executions
    );
}

/// Two compaction installs in a row against a reader. The published version
/// is the set of live tables (a bit each). Install A turns input 1 into output
/// 3: admit 3's image, publish, invalidate 1 (`ADMIT_FIRST`, `db.rs`'s order;
/// the straw man publishes before it admits). Install B, the racing later
/// compaction, can only pick what it sees published: if that is 3, it turns 3
/// into 5 the same way. Oracles: a reader that sees a version finds its table
/// resident or fenced, never merely absent (an absent one would be promoted
/// over the fabric); an invalidated id never hits again and is not resident at
/// the end, whichever install's admission raced it.
fn explore_install<const ADMIT_FIRST: bool>() -> dlsm_check::Report {
    const IMAGES: usize = 1; // images live in shard 1, as in `explore`
    Checker::new(if ADMIT_FIRST { "cache-install" } else { "cache-install-strawman" })
        .preemption_bound(3)
        .explore(|| {
            let cache = MiniCache::new(3); // room for all: eviction is `explore`'s subject
            let version = Arc::new(AtomicU64::new(1 << 1));
            cache.admit::<true>(IMAGES, 1, 10);
            let install = |cache: &MiniCache, version: &AtomicU64, input: u64, output: u64| {
                if ADMIT_FIRST {
                    cache.admit::<true>(IMAGES, output, output * 10);
                }
                version.store(1 << output, Ordering::Release);
                if !ADMIT_FIRST {
                    cache.admit::<true>(IMAGES, output, output * 10);
                }
                cache.invalidate(input);
                assert!(cache.get(IMAGES, input).is_none(), "dead table {input} served after invalidate returned");
            };

            let (c1, v1) = (Arc::clone(&cache), Arc::clone(&version));
            let first = thread::spawn(move || install(&c1, &v1, 1, 3));
            let (c2, v2) = (Arc::clone(&cache), Arc::clone(&version));
            let later = thread::spawn(move || {
                if v2.load(Ordering::Acquire) == 1 << 3 {
                    install(&c2, &v2, 3, 5);
                }
            });

            let table = u64::from(version.load(Ordering::Acquire).trailing_zeros());
            match cache.get(IMAGES, table) {
                Some(v) => assert_eq!(v, table * 10, "table {table} served foreign bytes {v}"),
                None => assert!(
                    cache.shards[IMAGES].state.lock().dead.contains(&table),
                    "table {table} is published, was carried, and is not cached"
                ),
            }

            first.join().unwrap();
            later.join().unwrap();
            let s = cache.shards[IMAGES].state.lock();
            for t in &s.dead {
                assert!(!s.entries.iter().any(|e| e.0 == *t), "dead table {t} still resident at join");
            }
        })
}

/// Admit, publish, invalidate: no reader of a version misses a carried table
/// that is still live, and a fenced id stays dead, in every interleaving.
#[test]
fn outputs_admitted_before_the_publish_are_never_found_missing() {
    let report = explore_install::<true>();
    assert!(report.violation.is_none(), "install violation: {:?}", report.violation);
    assert!(report.complete, "state space truncated at {} executions", report.executions);
    assert!(report.executions >= 100, "explored only {} interleavings", report.executions);
}

/// The straw man that publishes the version and admits its outputs afterwards
/// — possibly after a later compaction's fence — must be caught leaving a
/// reader of the new version without the image.
#[test]
fn admitting_after_the_publish_is_caught_missing_a_live_table() {
    let report = explore_install::<false>();
    assert!(
        report.violation.is_some(),
        "checker failed to catch the late admission in {} executions",
        report.executions
    );
}
