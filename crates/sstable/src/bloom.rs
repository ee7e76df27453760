//! Bloom filter (LevelDB-style: one base hash + double hashing).
//!
//! Built over user keys at table-build time; the filter lives on the compute
//! node so a negative probe skips a remote read entirely (paper Sec. II-C,
//! VI). The default is the paper's 10 bits per key.

/// Default bits per key used throughout the paper's evaluation.
pub const DEFAULT_BITS_PER_KEY: usize = 10;

/// 32-bit FNV-1a-flavoured hash with a seed, matching LevelDB's approach of
/// deriving all probe positions from one hash via rotation. Every filter
/// uses it, so a lookup that walks several tables hashes its key once
/// ([`BloomFilter::may_contain_hash`]).
#[inline]
pub fn bloom_hash(data: &[u8]) -> u32 {
    // Murmur-inspired simple hash (LevelDB's `Hash`).
    const SEED: u32 = 0xBC9F_1D34;
    const M: u32 = 0xC6A4_A793;
    let mut h = SEED ^ (data.len() as u32).wrapping_mul(M);
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        let w = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        h = h.wrapping_add(w).wrapping_mul(M);
        h ^= h >> 16;
    }
    for &b in chunks.remainder() {
        h = h.wrapping_add(u32::from(b)).wrapping_mul(M);
        h ^= h >> 24;
    }
    h
}

/// An immutable bloom filter over a set of keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
    k: u8,
}

impl BloomFilter {
    /// Build a filter for `keys` with `bits_per_key` bits of budget per key.
    pub fn build<'a>(keys: impl ExactSizeIterator<Item = &'a [u8]>, bits_per_key: usize) -> BloomFilter {
        BloomFilter::build_hashed(keys.map(bloom_hash), bits_per_key)
    }

    /// [`BloomFilter::build`] for keys already hashed with [`bloom_hash`].
    pub fn build_hashed(hashes: impl ExactSizeIterator<Item = u32>, bits_per_key: usize) -> BloomFilter {
        let n = hashes.len().max(1);
        // k = bits_per_key * ln(2), clamped like LevelDB.
        let k = ((bits_per_key as f64 * 0.69) as usize).clamp(1, 30) as u8;
        let nbits = (n * bits_per_key).max(64);
        let nbytes = nbits.div_ceil(8);
        let nbits = nbytes * 8;
        let mut bits = vec![0u8; nbytes];
        for mut h in hashes {
            let delta = h.rotate_right(17);
            for _ in 0..k {
                let pos = (h as usize) % nbits;
                bits[pos / 8] |= 1 << (pos % 8);
                h = h.wrapping_add(delta);
            }
        }
        BloomFilter { bits, k }
    }

    /// True if `key` may be in the set (never a false negative).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hash(bloom_hash(key))
    }

    /// [`BloomFilter::may_contain`] for a key whose [`bloom_hash`] is `h`.
    pub fn may_contain_hash(&self, mut h: u32) -> bool {
        if self.bits.is_empty() {
            return true;
        }
        let nbits = self.bits.len() * 8;
        let delta = h.rotate_right(17);
        for _ in 0..self.k {
            let pos = (h as usize) % nbits;
            if self.bits[pos / 8] & (1 << (pos % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }

    /// Serialize: filter bits followed by the probe count.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.bits.clone();
        out.push(self.k);
        out
    }

    /// Deserialize a filter produced by [`BloomFilter::encode`].
    pub fn decode(data: &[u8]) -> Option<BloomFilter> {
        let (&k, bits) = data.split_last()?;
        if k == 0 || k > 30 {
            return None;
        }
        Some(BloomFilter { bits: bits.to_vec(), k })
    }

    /// Size of the encoded filter in bytes.
    pub fn encoded_len(&self) -> usize {
        self.bits.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("key-{i:08}").into_bytes()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(10_000);
        let f = BloomFilter::build(ks.iter().map(|k| k.as_slice()), DEFAULT_BITS_PER_KEY);
        for k in &ks {
            assert!(f.may_contain(k), "false negative for {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let ks = keys(10_000);
        let f = BloomFilter::build(ks.iter().map(|k| k.as_slice()), DEFAULT_BITS_PER_KEY);
        let mut fp = 0;
        let probes = 10_000;
        for i in 0..probes {
            let probe = format!("absent-{i:08}");
            if f.may_contain(probe.as_bytes()) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        // 10 bits/key should give ~1%; allow generous slack.
        assert!(rate < 0.05, "false positive rate {rate}");
    }

    #[test]
    fn empty_filter_is_valid() {
        let f = BloomFilter::build(std::iter::empty::<&[u8]>(), 10);
        // An empty table's filter can say anything; it must just not crash.
        let _ = f.may_contain(b"whatever");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ks = keys(500);
        let f = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 10);
        let enc = f.encode();
        assert_eq!(enc.len(), f.encoded_len());
        let g = BloomFilter::decode(&enc).unwrap();
        assert_eq!(f, g);
        for k in &ks {
            assert!(g.may_contain(k));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BloomFilter::decode(&[]).is_none());
        assert!(BloomFilter::decode(&[0]).is_none()); // k = 0
        assert!(BloomFilter::decode(&[0xFF, 200]).is_none()); // k too large
    }

    #[test]
    fn more_bits_fewer_false_positives() {
        let ks = keys(5_000);
        let f4 = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 4);
        let f16 = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 16);
        let count_fp = |f: &BloomFilter| {
            (0..5_000).filter(|i| f.may_contain(format!("no-{i}").as_bytes())).count()
        };
        assert!(count_fp(&f16) < count_fp(&f4));
    }
}
