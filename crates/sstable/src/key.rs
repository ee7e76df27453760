//! Internal keys.
//!
//! Every entry in a MemTable or SSTable is keyed by an **internal key**:
//! the user key followed by an 8-byte little-endian trailer packing a 56-bit
//! sequence number and an 8-bit value type. Internal keys order by user key
//! ascending, then sequence number *descending* (newest first), then type
//! descending — so a snapshot read seeks to `(key, snapshot_seq, Value)` and
//! the first entry at or after it is the newest version visible to the
//! snapshot.

use std::cmp::Ordering;

use dlsm_skiplist::Comparator;

/// Sequence numbers are 56-bit (the trailer reserves 8 bits for the type).
pub type SeqNo = u64;

/// Largest representable sequence number.
pub const MAX_SEQ: SeqNo = (1 << 56) - 1;

/// Length of the internal-key trailer.
pub const TRAILER_LEN: usize = 8;

/// What an entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    /// A deletion tombstone.
    Deletion = 0,
    /// A live value.
    Value = 1,
}

impl ValueType {
    fn from_u8(b: u8) -> Option<ValueType> {
        match b {
            0 => Some(ValueType::Deletion),
            1 => Some(ValueType::Value),
            _ => None,
        }
    }
}

#[inline]
fn pack_trailer(seq: SeqNo, vt: ValueType) -> u64 {
    // Clamp rather than assert: callers may pass u64::MAX to mean "newest".
    (seq.min(MAX_SEQ) << 8) | vt as u64
}

/// An owned internal key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InternalKey(Vec<u8>);

impl InternalKey {
    /// Build from parts.
    pub fn new(user_key: &[u8], seq: SeqNo, vt: ValueType) -> InternalKey {
        let mut buf = Vec::with_capacity(user_key.len() + TRAILER_LEN);
        buf.extend_from_slice(user_key);
        buf.extend_from_slice(&pack_trailer(seq, vt).to_le_bytes());
        InternalKey(buf)
    }

    /// A key that sorts at (or before) every entry for `user_key` visible to
    /// snapshot `seq` — the seek target for reads.
    pub fn for_lookup(user_key: &[u8], seq: SeqNo) -> InternalKey {
        InternalKey::new(user_key, seq, ValueType::Value)
    }

    /// Adopt an already-encoded internal key.
    pub fn from_encoded(bytes: Vec<u8>) -> InternalKey {
        debug_assert!(bytes.len() >= TRAILER_LEN);
        InternalKey(bytes)
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The user-key portion.
    pub fn user_key(&self) -> &[u8] {
        user_key(&self.0)
    }

    /// The sequence number.
    pub fn seq(&self) -> SeqNo {
        split(&self.0).map(|(_, s, _)| s).unwrap_or(0)
    }

    /// The value type.
    pub fn value_type(&self) -> ValueType {
        split(&self.0).map(|(_, _, t)| t).unwrap_or(ValueType::Value)
    }

    /// Consume into the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

/// Run `f` on the seek target for `user_key` at snapshot `seq` (the bytes of
/// [`InternalKey::for_lookup`]), built on the stack for user keys of up to
/// 56 bytes so that a point read allocates nothing in order to search.
#[inline]
pub fn with_lookup_key<T>(user_key: &[u8], seq: SeqNo, f: impl FnOnce(&[u8]) -> T) -> T {
    let mut stack = [0u8; 64];
    let Some(buf) = stack.get_mut(..user_key.len() + TRAILER_LEN) else {
        return f(InternalKey::for_lookup(user_key, seq).as_bytes());
    };
    let (user, trailer) = buf.split_at_mut(user_key.len());
    user.copy_from_slice(user_key);
    trailer.copy_from_slice(&pack_trailer(seq, ValueType::Value).to_le_bytes());
    f(buf)
}

/// The user-key portion of an encoded internal key.
#[inline]
pub fn user_key(ikey: &[u8]) -> &[u8] {
    debug_assert!(ikey.len() >= TRAILER_LEN, "internal key too short");
    &ikey[..ikey.len() - TRAILER_LEN]
}

/// Split an encoded internal key into `(user_key, seq, type)`.
#[inline]
pub fn split(ikey: &[u8]) -> Option<(&[u8], SeqNo, ValueType)> {
    let (user, trailer) = ikey.split_last_chunk::<TRAILER_LEN>()?;
    let t = u64::from_le_bytes(*trailer);
    let vt = ValueType::from_u8((t & 0xFF) as u8)?;
    Some((user, t >> 8, vt))
}

/// Compare two encoded internal keys: user key ascending, then trailer
/// (sequence, type) descending.
#[inline]
pub fn compare_internal(a: &[u8], b: &[u8]) -> Ordering {
    debug_assert!(a.len() >= TRAILER_LEN && b.len() >= TRAILER_LEN);
    // Keys shorter than the trailer never reach comparison; ordering them
    // bytewise keeps the function total on bytes it did not write.
    let (Some((ua, ta)), Some((ub, tb))) = (a.split_last_chunk::<TRAILER_LEN>(), b.split_last_chunk::<TRAILER_LEN>())
    else {
        return a.cmp(b);
    };
    // Trailers descending: newest (largest seq) first.
    ua.cmp(ub).then_with(|| u64::from_le_bytes(*tb).cmp(&u64::from_le_bytes(*ta)))
}

/// [`Comparator`] over encoded internal keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternalKeyComparator;

impl Comparator for InternalKeyComparator {
    #[inline]
    fn cmp(&self, a: &[u8], b: &[u8]) -> Ordering {
        compare_internal(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_key_on_stack_matches_owned() {
        for user in [&b"k"[..], &[7u8; 56], &[9u8; 57], &[1u8; 300]] {
            let owned = InternalKey::for_lookup(user, 42);
            with_lookup_key(user, 42, |ikey| assert_eq!(ikey, owned.as_bytes()));
        }
    }

    #[test]
    fn roundtrip_parts() {
        let k = InternalKey::new(b"user", 12345, ValueType::Value);
        assert_eq!(k.user_key(), b"user");
        assert_eq!(k.seq(), 12345);
        assert_eq!(k.value_type(), ValueType::Value);
        let (u, s, t) = split(k.as_bytes()).unwrap();
        assert_eq!((u, s, t), (&b"user"[..], 12345, ValueType::Value));
    }

    #[test]
    fn ordering_user_key_ascending() {
        let a = InternalKey::new(b"aaa", 5, ValueType::Value);
        let b = InternalKey::new(b"bbb", 1, ValueType::Value);
        assert_eq!(compare_internal(a.as_bytes(), b.as_bytes()), Ordering::Less);
    }

    #[test]
    fn ordering_seq_descending_within_key() {
        let newer = InternalKey::new(b"k", 10, ValueType::Value);
        let older = InternalKey::new(b"k", 5, ValueType::Value);
        assert_eq!(compare_internal(newer.as_bytes(), older.as_bytes()), Ordering::Less);
    }

    #[test]
    fn lookup_key_sees_newest_visible_version() {
        // Entries for "k" at seqs 3, 7, 12; snapshot at 10 must find 7 first.
        let lookup = InternalKey::for_lookup(b"k", 10);
        let e12 = InternalKey::new(b"k", 12, ValueType::Value);
        let e7 = InternalKey::new(b"k", 7, ValueType::Value);
        let e3 = InternalKey::new(b"k", 3, ValueType::Deletion);
        // e12 sorts before the lookup (invisible); e7 and e3 at/after it.
        assert_eq!(compare_internal(e12.as_bytes(), lookup.as_bytes()), Ordering::Less);
        assert_eq!(compare_internal(lookup.as_bytes(), e7.as_bytes()), Ordering::Less);
        assert_eq!(compare_internal(e7.as_bytes(), e3.as_bytes()), Ordering::Less);
    }

    #[test]
    fn deletion_sorts_after_value_at_same_seq() {
        // Type descending: Value (1) before Deletion (0) at equal seq.
        let v = InternalKey::new(b"k", 9, ValueType::Value);
        let d = InternalKey::new(b"k", 9, ValueType::Deletion);
        assert_eq!(compare_internal(v.as_bytes(), d.as_bytes()), Ordering::Less);
    }

    #[test]
    fn split_rejects_short_keys() {
        assert!(split(b"short").is_none());
        assert!(split(&[]).is_none());
    }

    #[test]
    fn split_rejects_bad_type() {
        let mut k = InternalKey::new(b"k", 1, ValueType::Value).into_bytes();
        let n = k.len();
        k[n - 8] = 7; // invalid type byte
        assert!(split(&k).is_none());
    }

    #[test]
    fn max_seq_roundtrips() {
        let k = InternalKey::new(b"k", MAX_SEQ, ValueType::Deletion);
        assert_eq!(k.seq(), MAX_SEQ);
        assert_eq!(k.value_type(), ValueType::Deletion);
    }
}
