//! The compaction merge policy.
//!
//! [`CompactionIter`] wraps a (merged) input stream and yields only the
//! records the output tables should contain, applying LevelDB/RocksDB
//! semantics:
//!
//! * For each user key, the **newest** version always survives.
//! * Older versions survive only while some live snapshot (`smallest_snapshot`)
//!   might still need them: a version is dropped once a *previous* (newer)
//!   version of the same user key exists at or below the snapshot horizon.
//! * Deletion tombstones are dropped entirely when compacting into the
//!   bottom level (`drop_deletions`), where nothing older can hide below.
//!
//! Both compute-side compaction and near-data compaction on the memory node
//! run this exact code, so offloading cannot change results.

use crate::iter::ForwardIter;
use crate::key::{self, SeqNo, ValueType, MAX_SEQ};
use crate::Result;

/// "No previous version seen for this user key" marker; strictly greater
/// than any encodable sequence number (and thus any snapshot horizon).
const NO_PREVIOUS: u64 = u64::MAX;

/// Policy knobs for one compaction.
#[derive(Debug, Clone, Copy)]
pub struct MergeConfig {
    /// Versions at or below this sequence number are invisible to every
    /// live snapshot and may collapse to just the newest one.
    pub smallest_snapshot: SeqNo,
    /// True when the output level is the bottom-most touched range: dropped
    /// keys' tombstones can be elided.
    pub drop_deletions: bool,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig { smallest_snapshot: MAX_SEQ, drop_deletions: false }
    }
}

/// The drop decision of [`MergeConfig`], asked once per record of a merged
/// stream, in stream order.
pub struct DropPolicy {
    cfg: MergeConfig,
    current_user_key: Vec<u8>,
    has_current_user_key: bool,
    last_sequence_for_key: SeqNo,
    first_of_key: bool,
}

impl DropPolicy {
    /// A policy that has seen no record yet.
    pub fn new(cfg: MergeConfig) -> DropPolicy {
        DropPolicy { cfg, current_user_key: Vec::new(), has_current_user_key: false, last_sequence_for_key: NO_PREVIOUS, first_of_key: true }
    }

    /// The user key of the last record asked about (empty before the first).
    pub fn user_key(&self) -> &[u8] {
        &self.current_user_key
    }

    /// Whether the last record asked about was the first of its user key.
    /// A key's first record is dropped only if all its records are, so a kept
    /// record that is not its key's first has the previous kept record's user
    /// key: an output cut before it would part one key's versions.
    pub fn first_of_key(&self) -> bool {
        self.first_of_key
    }

    /// Whether the output leaves out the stream's next record, `ikey`.
    pub fn drops(&mut self, ikey: &[u8]) -> bool {
        // Un-parseable keys are kept verbatim (defensive; cannot happen for
        // tables built by this crate).
        let Some((ukey, seq, vt)) = key::split(ikey) else { return false };
        let first_occurrence = !self.has_current_user_key || ukey != self.current_user_key.as_slice();
        self.first_of_key = first_occurrence;
        if first_occurrence {
            self.current_user_key.clear();
            self.current_user_key.extend_from_slice(ukey);
            self.has_current_user_key = true;
            self.last_sequence_for_key = NO_PREVIOUS;
        }
        let drop = if self.last_sequence_for_key <= self.cfg.smallest_snapshot {
            // A newer version of this user key is already visible to the
            // oldest snapshot: this one can never be observed.
            true
        } else {
            vt == ValueType::Deletion && seq <= self.cfg.smallest_snapshot && self.cfg.drop_deletions
        };
        self.last_sequence_for_key = seq;
        drop
    }
}

/// Streaming filter over a merged input applying [`MergeConfig`].
pub struct CompactionIter<I: ForwardIter> {
    input: I,
    policy: DropPolicy,
    valid: bool,
    records_seen: u64,
}

impl<I: ForwardIter> CompactionIter<I> {
    /// Wrap `input` (positioned anywhere; call [`ForwardIter::seek_to_first`]
    /// via this wrapper).
    pub fn new(input: I, cfg: MergeConfig) -> CompactionIter<I> {
        CompactionIter { input, policy: DropPolicy::new(cfg), valid: false, records_seen: 0 }
    }

    /// Input records examined so far (survivors and dropped alike).
    pub fn records_seen(&self) -> u64 {
        self.records_seen
    }

    /// Advance the inner iterator until it rests on a record that survives.
    fn skip_dropped(&mut self) -> Result<()> {
        while self.input.valid() {
            self.records_seen += 1;
            if !self.policy.drops(self.input.key()) {
                self.valid = true;
                return Ok(());
            }
            self.input.next()?;
        }
        self.valid = false;
        Ok(())
    }

    /// Start the pass.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.input.seek_to_first()?;
        self.policy = DropPolicy::new(self.policy.cfg);
        self.skip_dropped()
    }

    /// Whether a surviving record is current.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// Current internal key.
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        self.input.key()
    }

    /// Current value.
    pub fn value(&self) -> &[u8] {
        debug_assert!(self.valid);
        self.input.value()
    }

    /// Whether the current record is the first of its user key
    /// ([`DropPolicy::first_of_key`]): where an output may be cut.
    pub fn first_of_key(&self) -> bool {
        self.policy.first_of_key()
    }

    /// Advance past the current record to the next survivor.
    #[allow(clippy::should_implement_trait)] // positional `next`, LevelDB-style
    pub fn next(&mut self) -> Result<()> {
        debug_assert!(self.valid);
        self.input.next()?;
        self.skip_dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter::{MergingIter, VecIter};
    use crate::key::InternalKey;

    fn entry(user: &str, seq: u64, vt: ValueType, val: &str) -> (Vec<u8>, Vec<u8>) {
        (InternalKey::new(user.as_bytes(), seq, vt).into_bytes(), val.as_bytes().to_vec())
    }

    fn run(inputs: Vec<Vec<(Vec<u8>, Vec<u8>)>>, cfg: MergeConfig) -> Vec<(String, u64, ValueType, String)> {
        let children: Vec<VecIter> = inputs.into_iter().map(VecIter::new).collect();
        let mut it = CompactionIter::new(MergingIter::new(children), cfg);
        it.seek_to_first().unwrap();
        let mut out = Vec::new();
        while it.valid() {
            let (u, s, t) = key::split(it.key()).unwrap();
            out.push((
                String::from_utf8(u.to_vec()).unwrap(),
                s,
                t,
                String::from_utf8(it.value().to_vec()).unwrap(),
            ));
            it.next().unwrap();
        }
        out
    }

    #[test]
    fn newest_version_wins_when_no_snapshots() {
        let out = run(
            vec![
                vec![entry("k", 9, ValueType::Value, "new")],
                vec![entry("k", 3, ValueType::Value, "old")],
            ],
            MergeConfig { smallest_snapshot: MAX_SEQ, drop_deletions: false },
        );
        // MAX_SEQ snapshot horizon: after seeing seq 9 (≤ horizon), seq 3 drops.
        assert_eq!(out, vec![("k".into(), 9, ValueType::Value, "new".into())]);
    }

    #[test]
    fn snapshot_preserves_old_versions() {
        // A snapshot at seq 5 still needs the version at 3 (9 is invisible
        // to it), so both survive.
        let out = run(
            vec![
                vec![entry("k", 9, ValueType::Value, "new")],
                vec![entry("k", 3, ValueType::Value, "old")],
            ],
            MergeConfig { smallest_snapshot: 5, drop_deletions: false },
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1, 9);
        assert_eq!(out[1].1, 3);
    }

    #[test]
    fn versions_below_snapshot_collapse_to_one() {
        // Snapshot at 5: versions 4, 3, 2 — only the newest (4) survives.
        let out = run(
            vec![vec![
                entry("k", 4, ValueType::Value, "v4"),
                entry("k", 3, ValueType::Value, "v3"),
                entry("k", 2, ValueType::Value, "v2"),
            ]],
            MergeConfig { smallest_snapshot: 5, drop_deletions: false },
        );
        assert_eq!(out, vec![("k".into(), 4, ValueType::Value, "v4".into())]);
    }

    #[test]
    fn tombstones_kept_above_bottom_level() {
        let out = run(
            vec![
                vec![entry("k", 9, ValueType::Deletion, "")],
                vec![entry("k", 3, ValueType::Value, "old")],
            ],
            MergeConfig { smallest_snapshot: MAX_SEQ, drop_deletions: false },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].2, ValueType::Deletion);
    }

    #[test]
    fn tombstones_dropped_at_bottom_level() {
        let out = run(
            vec![
                vec![entry("a", 9, ValueType::Deletion, "")],
                vec![entry("a", 3, ValueType::Value, "dead"), entry("b", 2, ValueType::Value, "live")],
            ],
            MergeConfig { smallest_snapshot: MAX_SEQ, drop_deletions: true },
        );
        assert_eq!(out, vec![("b".into(), 2, ValueType::Value, "live".into())]);
    }

    #[test]
    fn shadowed_tombstone_and_value_both_drop_at_bottom_level() {
        // Oldest snapshot is 5; it sees the tombstone at 4, so the key reads
        // as deleted for every live reader. At the bottom level the
        // tombstone itself can drop (nothing hides below), and v3 is
        // shadowed by it for all visible snapshots — both vanish.
        let out = run(
            vec![vec![
                entry("k", 4, ValueType::Deletion, ""),
                entry("k", 3, ValueType::Value, "v3"),
            ]],
            MergeConfig { smallest_snapshot: 5, drop_deletions: true },
        );
        assert!(out.is_empty(), "got {out:?}");
    }

    #[test]
    fn tombstone_above_snapshot_survives_bottom_level() {
        // The tombstone at 9 is newer than the oldest snapshot (5): readers
        // at 5 must still see v3, and readers at ≥9 must see the deletion,
        // so both records survive even at the bottom level.
        let out = run(
            vec![vec![
                entry("k", 9, ValueType::Deletion, ""),
                entry("k", 3, ValueType::Value, "v3"),
            ]],
            MergeConfig { smallest_snapshot: 5, drop_deletions: true },
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].2, ValueType::Deletion);
        assert_eq!(out[1].3, "v3");
    }

    #[test]
    fn distinct_keys_all_survive() {
        let out = run(
            vec![
                vec![entry("a", 1, ValueType::Value, "1"), entry("c", 1, ValueType::Value, "3")],
                vec![entry("b", 1, ValueType::Value, "2")],
            ],
            MergeConfig::default(),
        );
        let keys: Vec<&str> = out.iter().map(|(k, _, _, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn first_of_key_marks_where_a_user_key_starts() {
        let children = vec![VecIter::new(vec![
            entry("a", 9, ValueType::Value, "a9"),
            entry("a", 3, ValueType::Value, "a3"),
            entry("b", 8, ValueType::Deletion, ""),
            entry("b", 2, ValueType::Value, "b2"),
            entry("c", 7, ValueType::Value, "c7"),
        ])];
        // Snapshot 5 keeps a@3 and b@2 behind their newer versions.
        let mut it = CompactionIter::new(MergingIter::new(children), MergeConfig { smallest_snapshot: 5, drop_deletions: true });
        it.seek_to_first().unwrap();
        let mut firsts = Vec::new();
        while it.valid() {
            firsts.push(it.first_of_key());
            it.next().unwrap();
        }
        assert_eq!(firsts, [true, false, true, false, true]);
    }

    #[test]
    fn empty_input() {
        let out = run(vec![vec![], vec![]], MergeConfig::default());
        assert!(out.is_empty());
    }
}
