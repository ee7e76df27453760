//! Model-check the *real* skip list (`dlsm-skiplist` built with the `shim`
//! feature) under the dlsm-check scheduler: every atomic op in the insert
//! and seek paths becomes a schedule point, and relaxed loads can observe
//! any store the acquire/release visibility model permits.

use std::sync::Arc;

use dlsm_check::shim::thread;
use dlsm_check::Checker;
use dlsm_skiplist::{BytewiseComparator, SkipList, SpareArena};

/// Two writers inserting disjoint keys: every key must be present and the
/// list must come out sorted, in every interleaving the scheduler can
/// produce (ISSUE 5 acceptance: >= 1000 distinct interleavings, exhaustive).
#[test]
fn concurrent_disjoint_inserts_linearize() {
    let report = Checker::new("skiplist-insert-insert")
        .preemption_bound(2)
        .explore(|| {
            let list = Arc::new(SkipList::with_capacity(BytewiseComparator, 16 << 10));
            let l1 = Arc::clone(&list);
            let l2 = Arc::clone(&list);
            let t1 = thread::spawn(move || {
                l1.insert(b"alpha", b"1").unwrap();
                l1.insert(b"delta", b"2").unwrap();
            });
            let t2 = thread::spawn(move || {
                l2.insert(b"bravo", b"3").unwrap();
            });
            t1.join().unwrap();
            t2.join().unwrap();

            assert_eq!(list.len(), 3, "an insert was lost");
            assert_eq!(list.get(b"alpha"), Some(&b"1"[..]));
            assert_eq!(list.get(b"bravo"), Some(&b"3"[..]));
            assert_eq!(list.get(b"delta"), Some(&b"2"[..]));
            let mut it = list.iter();
            it.seek_to_first();
            let mut prev: Option<Vec<u8>> = None;
            let mut n = 0;
            while it.valid() {
                if let Some(p) = &prev {
                    assert!(p.as_slice() < it.key(), "list out of order");
                }
                prev = Some(it.key().to_vec());
                n += 1;
                it.advance();
            }
            assert_eq!(n, 3, "iterator missed a node");
        });
    assert!(
        report.violation.is_none(),
        "skiplist insert/insert violation: {:?}",
        report.violation
    );
    assert!(report.complete, "state space truncated at {} executions", report.executions);
    assert!(
        report.executions >= 1000,
        "expected >= 1000 interleavings, explored {}",
        report.executions
    );
}

/// Writer publishes "k1" then "flag"; a concurrent reader that observes
/// "flag" must also observe "k1" (insert publication is a release-CAS and
/// `next()` loads are acquire, so program order on the writer carries over).
#[test]
fn reader_sees_prefix_of_writer() {
    let report = Checker::new("skiplist-insert-get")
        .preemption_bound(2)
        .explore(|| {
            let list = Arc::new(SkipList::with_capacity(BytewiseComparator, 16 << 10));
            let w = Arc::clone(&list);
            let t = thread::spawn(move || {
                w.insert(b"k1", b"v1").unwrap();
                w.insert(b"flag", b"go").unwrap();
            });
            if list.get(b"flag").is_some() {
                assert_eq!(
                    list.get(b"k1"),
                    Some(&b"v1"[..]),
                    "reader saw flag but not the earlier k1 insert"
                );
            }
            t.join().unwrap();
        });
    assert!(
        report.violation.is_none(),
        "skiplist visibility violation: {:?}",
        report.violation
    );
    assert!(report.complete, "state space truncated at {} executions", report.executions);
}

/// Two writers race the packed front/back reservation on an arena with
/// room for one entry whatever either tower's height: exactly one insert
/// gets `ArenaFull`, the other's key and value read back whole, and the
/// arena counts one entry.
#[test]
fn one_of_two_racing_reservations_fits() {
    use dlsm_skiplist::list::MAX_NODE_OVERHEAD;
    const VALUE: usize = 100;
    let report = Checker::new("skiplist-reserve-reserve")
        .preemption_bound(2)
        .explore(|| {
            // 184 bytes free after the head node: one node of any height
            // with its value fits (≤ 169 B), two never do (≥ 244 B).
            let list = Arc::new(SkipList::with_capacity(BytewiseComparator, 0));
            let empty = list.memory_usage();
            let racers: Vec<_> = [(b"ka", 0xA1u8), (b"kb", 0xB2)]
                .into_iter()
                .map(|(key, fill)| {
                    let l = Arc::clone(&list);
                    thread::spawn(move || l.insert(key, &[fill; VALUE]).is_ok())
                })
                .collect();
            let won: Vec<bool> = racers.into_iter().map(|t| t.join().unwrap()).collect();
            assert_eq!(won.iter().filter(|&&w| w).count(), 1, "outcomes {won:?}");
            let (key, fill) = if won[0] { (b"ka", 0xA1) } else { (b"kb", 0xB2) };
            assert_eq!(list.get(key), Some(&[fill; VALUE][..]), "the winner's value is torn");
            assert_eq!(list.iter().count(), 1);
            assert_eq!(list.len(), 1);
            let used = list.memory_usage() - empty;
            assert!(used > key.len() + VALUE && used <= key.len() + VALUE + MAX_NODE_OVERHEAD, "{used} B");
        });
    assert!(
        report.violation.is_none(),
        "skiplist reserve/reserve violation: {:?}",
        report.violation
    );
    assert!(report.complete, "state space truncated at {} executions", report.executions);
}

/// Two writers and a reader on a recycled arena whose every byte is 0xA5,
/// so a tower word nobody stored points far outside the arena: the reader
/// that sees a writer's second key sees its first, every scan is sorted, and
/// all three keys are there at the end. Nothing of a node is left to the
/// arena's prior contents (DESIGN.md §5.3).
#[test]
fn two_writers_and_a_reader_on_a_recycled_dirty_arena() {
    const CAPACITY: usize = 16 << 10;
    // Outside any execution: the arena size a list of CAPACITY asks for.
    let arena_bytes = SkipList::with_capacity(BytewiseComparator, CAPACITY).capacity();
    let report = Checker::new("skiplist-recycled-dirty")
        .preemption_bound(2)
        .explore(move || {
            let spare = Arc::new(SpareArena::default());
            let (dirty, _) = spare.take(arena_bytes);
            let (all, _) = dirty.reserve(arena_bytes - 8, 0).unwrap();
            // SAFETY: the whole arena was just reserved here; nothing else holds it.
            unsafe { dirty.write(all, &vec![0xA5; arena_bytes - 8]) };
            spare.put(dirty);
            let (list, allocated) = SkipList::recycling(BytewiseComparator, CAPACITY, &spare);
            assert!(!allocated, "the dirty arena was not recycled");
            let list = Arc::new(list);
            let (l1, l2) = (Arc::clone(&list), Arc::clone(&list));
            let t1 = thread::spawn(move || {
                l1.insert(b"alpha", b"1").unwrap();
                l1.insert(b"delta", b"2").unwrap();
            });
            let t2 = thread::spawn(move || l2.insert(b"bravo", b"3").unwrap());
            if list.get(b"delta").is_some() {
                assert_eq!(list.get(b"alpha"), Some(&b"1"[..]), "reader saw delta but not alpha");
            }
            let keys: Vec<&[u8]> = list.iter().map(|(k, _)| k).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "reader saw {keys:?}");
            t1.join().unwrap();
            t2.join().unwrap();
            let all: Vec<_> = list.iter().collect();
            assert_eq!(all, [(&b"alpha"[..], &b"1"[..]), (b"bravo", b"3"), (b"delta", b"2")]);
        });
    assert!(
        report.violation.is_none(),
        "skiplist recycled-arena violation: {:?}",
        report.violation
    );
    assert!(report.complete, "state space truncated at {} executions", report.executions);
    assert!(report.executions >= 1000, "explored only {} interleavings", report.executions);
}
