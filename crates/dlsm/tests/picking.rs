//! Unit tests for compaction picking (LevelDB-style policy, paper Sec. V-A).

use std::sync::Arc;

use dlsm::compaction::{l0_trigger, level_score, max_bytes_for_level, pick_boundaries, pick_compaction, CompactionJob};
use dlsm::config::DbConfig;
use dlsm::context::RemoteRegion;
use dlsm::handle::{Extent, MetaKind, Origin, TableHandle};
use dlsm::version::{Version, VersionEdit, VersionSet};
use dlsm_sstable::byte_addr::ByteAddrBuilder;
use dlsm_sstable::key::{InternalKey, ValueType};
use rdma_sim::{MrId, NodeId};

fn handle(id: u64, keys: &[&str], len: u64) -> Arc<TableHandle> {
    let mut b = ByteAddrBuilder::new(Vec::new(), 10);
    for k in keys {
        b.add(InternalKey::new(k.as_bytes(), 9, ValueType::Value).as_bytes(), b"v").unwrap();
    }
    let (_, meta) = b.finish();
    let s = meta.smallest().unwrap().to_vec();
    let l = meta.largest().unwrap().to_vec();
    let n = meta.num_entries;
    TableHandle::new(
        id,
        RemoteRegion { node: NodeId(0), mr: MrId(0), rkey: 0, len: 1 << 30 },
        Extent { offset: id * (1 << 20), len },
        Origin::External,
        MetaKind::ByteAddr(Arc::new(meta)),
        s,
        l,
        n,
        None,
    )
}

fn cfg() -> DbConfig {
    DbConfig {
        l0_compaction_trigger: 4,
        l1_max_bytes: 1000,
        level_multiplier: 10,
        max_levels: 5,
        ..DbConfig::small()
    }
}

/// [`pick_compaction`] under `cfg()`, at the L0 trigger of `writes_arriving`.
fn pick(v: &Version, writes_arriving: bool, ptr: &mut Vec<Vec<u8>>) -> Option<CompactionJob> {
    let cfg = cfg();
    pick_compaction(v, &cfg, l0_trigger(&cfg, writes_arriving), ptr)
}

fn version_with(edits: impl FnOnce(&mut VersionEdit)) -> Arc<Version> {
    let vs = VersionSet::new(5);
    let mut e = VersionEdit::default();
    edits(&mut e);
    vs.install(&e)
}

#[test]
fn no_compaction_below_triggers() {
    let v = version_with(|e| {
        e.add(0, handle(1, &["a", "b"], 100));
        e.add(0, handle(2, &["c", "d"], 100));
        e.add(0, handle(3, &["e", "f"], 100));
        e.add(1, handle(4, &["a", "z"], 900)); // below l1_max_bytes
    });
    let mut ptr = Vec::new();
    assert!(pick(&v, false, &mut ptr).is_none());
}

#[test]
fn l0_trigger_picks_all_l0_plus_overlaps() {
    let v = version_with(|e| {
        for i in 0..4u64 {
            e.add(0, handle(i + 1, &["c", "m"], 100));
        }
        e.add(1, handle(10, &["a", "d"], 100)); // overlaps
        e.add(1, handle(11, &["n", "z"], 100)); // does not overlap [c, m]
    });
    let job = pick(&v, false, &mut Vec::new()).expect("L0 over trigger");
    assert_eq!(job.level, 0);
    assert_eq!(job.inputs_lo.len(), 4, "all L0 tables join the merge");
    let hi_ids: Vec<u64> = job.inputs_hi.iter().map(|t| t.id).collect();
    assert_eq!(hi_ids, vec![10], "only the overlapping L1 table joins");
    assert_eq!(job.output_level(), 1);
    // Nothing deeper overlaps, so tombstones can drop.
    assert!(job.drop_deletions);
}

#[test]
fn size_trigger_picks_deeper_level() {
    let v = version_with(|e| {
        e.add(1, handle(1, &["a", "h"], 600));
        e.add(1, handle(2, &["i", "p"], 600)); // total 1200 > 1000
        e.add(2, handle(3, &["a", "e"], 100));
        e.add(3, handle(4, &["a", "z"], 100)); // deeper overlap
    });
    let job = pick(&v, false, &mut Vec::new()).expect("L1 over budget");
    assert_eq!(job.level, 1);
    assert_eq!(job.inputs_lo.len(), 1, "one table brings the level back under its limit");
    assert!(
        !job.drop_deletions,
        "an overlapping table exists below the output level"
    );
}

/// A level far over its limit is brought back under it by one job over
/// consecutive tables — which share the tables they overlap one level down —
/// not by a job per table; the cursor moves past all of them.
#[test]
fn size_trigger_takes_the_whole_excess_in_one_job() {
    let v = version_with(|e| {
        for (i, keys) in [["a", "c"], ["d", "f"], ["g", "i"], ["j", "l"], ["m", "o"]].iter().enumerate() {
            e.add(1, handle(i as u64 + 1, keys, 500)); // 2500 against 1000
        }
        e.add(2, handle(10, &["a", "e"], 100));
        e.add(2, handle(11, &["e2", "k"], 100));
        e.add(2, handle(12, &["n", "z"], 100)); // beyond the tables taken
    });
    let mut ptr = Vec::new();
    let job = pick(&v, false, &mut ptr).expect("L1 over budget");
    // 2000, 1500, 1000 bytes would still be over or at the limit: four go.
    assert_eq!(job.inputs_lo.iter().map(|t| t.id).collect::<Vec<_>>(), [1, 2, 3, 4]);
    assert_eq!(job.inputs_hi.iter().map(|t| t.id).collect::<Vec<_>>(), [10, 11]);
    // The next job starts after them, and stops at the end of the level.
    let next = pick(&v, false, &mut ptr).unwrap();
    assert_eq!(next.inputs_lo.iter().map(|t| t.id).collect::<Vec<_>>(), [5]);
}

#[test]
fn round_robin_cursor_sweeps_the_level() {
    let v = version_with(|e| {
        e.add(1, handle(1, &["a", "d"], 600));
        e.add(1, handle(2, &["m", "p"], 600));
    });
    let mut ptr = Vec::new();
    let first = pick(&v, false, &mut ptr).unwrap();
    let second = pick(&v, false, &mut ptr).unwrap();
    assert_ne!(
        first.inputs_lo[0].id, second.inputs_lo[0].id,
        "cursor must advance to the next table"
    );
}

#[test]
fn l0_score_beats_weaker_size_score() {
    // Both L0 (count 8 = score 2.0) and L1 (score 1.2) want compaction; the
    // higher score wins.
    let v = version_with(|e| {
        for i in 0..8u64 {
            e.add(0, handle(i + 1, &["a", "b"], 10));
        }
        e.add(1, handle(20, &["a", "z"], 1200));
    });
    let job = pick(&v, false, &mut Vec::new()).unwrap();
    assert_eq!(job.level, 0);
}

#[test]
fn max_bytes_grows_by_multiplier() {
    let c = cfg();
    assert_eq!(max_bytes_for_level(&c, 1), 1000);
    assert_eq!(max_bytes_for_level(&c, 2), 10_000);
    assert_eq!(max_bytes_for_level(&c, 3), 100_000);
}

#[test]
fn boundaries_split_the_biggest_input() {
    let keys: Vec<String> = (0..100).map(|i| format!("k{i:04}")).collect();
    let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    let v = version_with(|e| {
        e.add(0, handle(1, &refs, 4000));
        e.add(0, handle(2, &["k0000", "k0099"], 100));
        e.add(0, handle(3, &["k0000", "k0099"], 100));
        e.add(0, handle(4, &["k0000", "k0099"], 100));
    });
    let job = pick(&v, false, &mut Vec::new()).unwrap();
    let bounds = pick_boundaries(&job, 4);
    assert_eq!(bounds.len(), 3, "k sub-tasks need k-1 boundaries");
    let mut sorted = bounds.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(bounds, sorted, "boundaries are sorted and unique");
    for b in &bounds {
        assert!(b.as_slice() > b"k0000".as_slice() && b.as_slice() < b"k0099".as_slice());
    }
    // A single sub-task needs no boundaries.
    assert!(pick_boundaries(&job, 1).is_empty());
}

#[test]
fn tiny_inputs_do_not_split() {
    let v = version_with(|e| {
        for i in 0..4u64 {
            e.add(0, handle(i + 1, &["a", "b"], 50));
        }
    });
    let job = pick(&v, false, &mut Vec::new()).unwrap();
    // 2-record tables cannot honor 12 sub-ranges; no boundaries expected.
    assert!(pick_boundaries(&job, 12).is_empty());
}

#[test]
fn job_metadata_helpers() {
    let v = version_with(|e| {
        for i in 0..4u64 {
            e.add(0, handle(i + 1, &["c", "m"], 100));
        }
        e.add(1, handle(10, &["a", "z"], 300));
    });
    let job = pick(&v, false, &mut Vec::new()).unwrap();
    assert_eq!(job.input_bytes(), 4 * 100 + 300);
    let (lo, hi) = job.user_range();
    assert_eq!(lo, b"a".to_vec());
    assert_eq!(hi, b"z".to_vec());
    assert_eq!(job.all_inputs().count(), 5);
}

// ---- debt-aware L0 batching: L0 waits while writes flow ----

/// `n` overlapping L0 tables over one L1 table well under its limit.
fn l0_of(n: u64) -> Arc<Version> {
    version_with(|e| {
        for i in 0..n {
            e.add(0, handle(i + 1, &["c", "m"], 100));
        }
        e.add(1, handle(50, &["a", "z"], 100));
    })
}

#[test]
fn l0_waits_for_twice_its_trigger_while_writes_arrive() {
    for n in 4..8 {
        assert!(pick(&l0_of(n), true, &mut Vec::new()).is_none(), "{n} L0 tables, writes arriving");
        let job = pick(&l0_of(n), false, &mut Vec::new()).expect("no writes arriving: the base trigger");
        assert_eq!((job.level, job.inputs_lo.len()), (0, n as usize));
    }
    let job = pick(&l0_of(8), true, &mut Vec::new()).expect("8 L0 tables, writes arriving");
    assert_eq!((job.level, job.inputs_lo.len()), (0, 8), "one job over all of them");
    assert_eq!(job.inputs_hi.iter().map(|t| t.id).collect::<Vec<_>>(), [50]);
}

#[test]
fn deferred_trigger_is_twice_the_trigger_or_halfway_to_the_stop() {
    for (trigger, stop, deferred) in [(2, Some(4), 3), (4, Some(12), 8), (4, Some(36), 8), (4, None, 8), (4, Some(5), 4)] {
        let c = DbConfig { l0_compaction_trigger: trigger, l0_stop_writes_trigger: stop, ..cfg() };
        assert_eq!(l0_trigger(&c, true), deferred, "trigger {trigger}, stop {stop:?}");
        assert_eq!(l0_trigger(&c, false), trigger, "trigger {trigger}, stop {stop:?}: no writes arriving");
    }
}

#[test]
fn an_l1_over_its_limit_is_picked_while_l0_waits() {
    let v = version_with(|e| {
        for i in 0..6u64 {
            e.add(0, handle(i + 1, &["c", "m"], 10));
        }
        e.add(1, handle(20, &["a", "h"], 600));
        e.add(1, handle(21, &["i", "z"], 600)); // 1200 against 1000
    });
    let job = pick(&v, true, &mut Vec::new()).expect("L1 over its limit");
    assert_eq!(job.level, 1);
    // Without writes arriving, six L0 tables (score 1.5) outrank L1 (1.2).
    assert_eq!(pick(&v, false, &mut Vec::new()).unwrap().level, 0);
}

/// What the gauges and the stats report export is what the picker acts on:
/// some level scores ≥ 1 exactly when a job is picked, under either signal.
#[test]
fn a_score_of_one_is_exactly_a_picked_job() {
    let c = cfg();
    for n in 0..10u64 {
        for l1_bytes in [400u64, 999, 1000, 1600] {
            let v = version_with(|e| {
                for i in 0..n {
                    e.add(0, handle(i + 1, &["c", "m"], 10));
                }
                e.add(1, handle(20, &["a", "h"], l1_bytes / 2));
                e.add(1, handle(21, &["i", "z"], l1_bytes - l1_bytes / 2));
            });
            for writes_arriving in [false, true] {
                let trigger = l0_trigger(&c, writes_arriving);
                let over = (0..v.level_count()).any(|level| level_score(&v, &c, trigger, level) >= 1.0);
                let picked = pick(&v, writes_arriving, &mut Vec::new()).is_some();
                assert_eq!(over, picked, "{n} L0 tables, L1 {l1_bytes} B, writes arriving {writes_arriving}");
            }
        }
    }
}
