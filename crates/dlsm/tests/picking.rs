//! Unit tests for compaction picking (LevelDB-style policy, paper Sec. V-A).

use std::sync::Arc;

use dlsm::compaction::{max_bytes_for_level, pick_boundaries, pick_compaction};
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
    assert!(pick_compaction(&v, &cfg(), &mut ptr).is_none());
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
    let job = pick_compaction(&v, &cfg(), &mut Vec::new()).expect("L0 over trigger");
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
    let job = pick_compaction(&v, &cfg(), &mut Vec::new()).expect("L1 over budget");
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
    let job = pick_compaction(&v, &cfg(), &mut ptr).expect("L1 over budget");
    // 2000, 1500, 1000 bytes would still be over or at the limit: four go.
    assert_eq!(job.inputs_lo.iter().map(|t| t.id).collect::<Vec<_>>(), [1, 2, 3, 4]);
    assert_eq!(job.inputs_hi.iter().map(|t| t.id).collect::<Vec<_>>(), [10, 11]);
    // The next job starts after them, and stops at the end of the level.
    let next = pick_compaction(&v, &cfg(), &mut ptr).unwrap();
    assert_eq!(next.inputs_lo.iter().map(|t| t.id).collect::<Vec<_>>(), [5]);
}

#[test]
fn round_robin_cursor_sweeps_the_level() {
    let v = version_with(|e| {
        e.add(1, handle(1, &["a", "d"], 600));
        e.add(1, handle(2, &["m", "p"], 600));
    });
    let mut ptr = Vec::new();
    let first = pick_compaction(&v, &cfg(), &mut ptr).unwrap();
    let second = pick_compaction(&v, &cfg(), &mut ptr).unwrap();
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
    let job = pick_compaction(&v, &cfg(), &mut Vec::new()).unwrap();
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
    let job = pick_compaction(&v, &cfg(), &mut Vec::new()).unwrap();
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
    let job = pick_compaction(&v, &cfg(), &mut Vec::new()).unwrap();
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
    let job = pick_compaction(&v, &cfg(), &mut Vec::new()).unwrap();
    assert_eq!(job.input_bytes(), 4 * 100 + 300);
    let (lo, hi) = job.user_range();
    assert_eq!(lo, b"a".to_vec());
    assert_eq!(hi, b"z".to_vec());
    assert_eq!(job.all_inputs().count(), 5);
}
