//! Seeded input generation: keys, self-verifying values, key choosers and
//! the per-client op streams. The engine only ever sees the generated keys
//! and values; everything here is a pure function of `--seed`.

/// Records are 20 B key + 400 B value, as in the paper's evaluation.
pub const KEY_LEN: usize = 20;
pub const VALUE_LEN: usize = 400;
pub const RECORD_BYTES: u64 = (KEY_LEN + VALUE_LEN) as u64;

/// xorshift64* seeded through splitmix64, so nearby seeds give unrelated
/// streams.
#[derive(Clone)]
pub struct Rng(u64);

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed) | 1)
    }

    /// An independent stream for (`seed`, `stream`): one per client thread,
    /// one for the preload shuffle.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng::new(splitmix64(seed) ^ splitmix64(stream.wrapping_add(0x5EED)))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias below 2^-32 for n < 2^32).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Keys are `"key"` + 17 decimal digits of a slot number, so byte order is
/// slot order. Present key `i` lives in slot `2i`; slot `2i + 1` is never
/// written, which gives absent keys that fall *inside* every table's key
/// range and so reach the bloom filters instead of being range-pruned.
pub fn write_key(buf: &mut [u8; KEY_LEN], slot: u64) {
    buf[..3].copy_from_slice(b"key");
    let mut v = slot;
    for b in buf[3..].iter_mut().rev() {
        *b = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

pub fn present_slot(index: u64) -> u64 {
    index * 2
}

pub fn absent_slot(index: u64) -> u64 {
    index * 2 + 1
}

/// The slot number back out of a key the engine returned.
pub fn parse_key(key: &[u8]) -> Option<u64> {
    if key.len() != KEY_LEN || &key[..3] != b"key" {
        return None;
    }
    key[3..].iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit().then(|| acc * 10 + (b - b'0') as u64)
    })
}

fn value_checksum(index: u64, version: u64) -> u64 {
    splitmix64(index ^ splitmix64(version))
}

/// Value layout: `[index u64 | version u64 | checksum u64 | filler | !checksum u64]`,
/// little endian. The trailing word catches truncated or spliced values.
pub fn write_value(buf: &mut [u8; VALUE_LEN], index: u64, version: u64) {
    let sum = value_checksum(index, version);
    buf[0..8].copy_from_slice(&index.to_le_bytes());
    buf[8..16].copy_from_slice(&version.to_le_bytes());
    buf[16..24].copy_from_slice(&sum.to_le_bytes());
    buf[VALUE_LEN - 8..].copy_from_slice(&(!sum).to_le_bytes());
}

/// A value buffer whose filler bytes are set once; `write_value` then only
/// touches the 32 header/trailer bytes per op.
pub fn value_template() -> [u8; VALUE_LEN] {
    let mut buf = [0u8; VALUE_LEN];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = b'a' + (i % 26) as u8;
    }
    buf
}

/// Decode and verify a value; returns `(index, version)`.
pub fn check_value(value: &[u8]) -> Option<(u64, u64)> {
    if value.len() != VALUE_LEN {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(value[at..at + 8].try_into().expect("8 bytes"));
    let (index, version, sum) = (word(0), word(8), word(16));
    (sum == value_checksum(index, version) && word(VALUE_LEN - 8) == !sum)
        .then_some((index, version))
}

/// Zipfian ranks over `[0, n)` (Gray et al., "Quickly generating
/// billion-record synthetic databases"); rank 0 is the hottest.
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Zipfian {
        let zeta = |k: u64| (1..=k).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// How a client picks key indices in `[0, n)`.
pub enum KeyChooser {
    Uniform {
        n: u64,
    },
    /// Zipfian ranks spread over the key space by a fixed bijection, so the
    /// hot keys are not neighbours in key order (and not in one SSTable).
    Zipfian {
        zipf: Zipfian,
        n: u64,
        stride: u64,
    },
}

impl KeyChooser {
    pub fn uniform(n: u64) -> KeyChooser {
        KeyChooser::Uniform { n }
    }

    pub fn zipfian(n: u64, theta: f64) -> KeyChooser {
        // Any stride coprime to n makes rank -> index a bijection.
        let mut stride = (n as f64 * 0.618_033_988_7) as u64 | 1;
        while gcd(stride, n) != 1 {
            stride += 2;
        }
        KeyChooser::Zipfian {
            zipf: Zipfian::new(n, theta),
            n,
            stride,
        }
    }

    pub fn pick(&self, rng: &mut Rng) -> u64 {
        match self {
            KeyChooser::Uniform { n } => rng.below(*n),
            KeyChooser::Zipfian { zipf, n, stride } => {
                ((zipf.rank(rng) as u128 * *stride as u128) % *n as u128) as u64
            }
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Fisher-Yates order of `0..n`: the order the preload writes keys in.
pub fn shuffled(n: u64, rng: &mut Rng) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

pub const MULTI_GET_KEYS: usize = 16;
pub const SHORT_SCAN: u64 = 100;
pub const LONG_SCAN: u64 = 10_000;

/// One generated operation. Key fields are key *indices* (or, for `Get`,
/// an index plus whether to look up its absent twin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Put { index: u64 },
    Get { index: u64, absent: bool },
    MultiGet { indices: [u64; MULTI_GET_KEYS] },
    Scan { start: u64, len: u64 },
}

/// What one client thread does; see README.md for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `fill`: uniform puts over the keys this client owns (index % 2 == client).
    UniformWriter,
    /// `get-remote`: uniform gets, 1 in 16 for an absent key.
    UniformReader,
    /// `mixed`, one half of every client's time: Zipfian puts over the keys
    /// this client owns (index % 2 == client).
    ZipfWriter,
    /// `mixed`, the other half: gets over all keys, a Zipfian rank and a fair
    /// coin for which client's twin of that rank; every 8th op is a 16-key
    /// multi_get.
    ZipfReader,
    /// `scan`: uniform start; 9 in 10 scans are short, 1 in 10 long.
    Scanner,
}

impl Role {
    pub fn writes(self) -> bool {
        matches!(self, Role::UniformWriter | Role::ZipfWriter)
    }
}

pub const ZIPF_THETA: f64 = 0.99;

/// The deterministic op stream of one client.
pub struct OpStream {
    role: Role,
    client: u64,
    rng: Rng,
    chooser: KeyChooser,
    issued: u64,
}

impl OpStream {
    /// The stream of `client` for the role in `slot` of its workload (a
    /// client has one stream per slot and takes turns between them).
    pub fn new(role: Role, client: u64, slot: u64, n: u64, seed: u64) -> OpStream {
        let chooser = match role {
            Role::ZipfWriter | Role::ZipfReader => KeyChooser::zipfian(n / 2, ZIPF_THETA),
            Role::UniformWriter => KeyChooser::uniform(n / 2),
            Role::UniformReader => KeyChooser::uniform(n),
            Role::Scanner => KeyChooser::uniform(n - LONG_SCAN + 1),
        };
        OpStream {
            role,
            client,
            rng: Rng::stream(seed, client + 2 * slot),
            chooser,
            issued: 0,
        }
    }

    /// Ops generated so far; the id traced spans of one op share.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let rng = &mut self.rng;
        match self.role {
            Role::UniformWriter => Op::Put {
                index: self.chooser.pick(rng) * 2 + self.client,
            },
            Role::ZipfWriter => Op::Put {
                index: self.chooser.pick(rng) * 2 + self.client,
            },
            Role::UniformReader => {
                let index = self.chooser.pick(rng);
                Op::Get {
                    index,
                    absent: rng.below(16) == 0,
                }
            }
            Role::ZipfReader => {
                if !self.issued.is_multiple_of(8) {
                    let mut indices = [0u64; MULTI_GET_KEYS];
                    for slot in indices.iter_mut() {
                        *slot = self.chooser.pick(rng) * 2 + rng.below(2);
                    }
                    Op::MultiGet { indices }
                } else {
                    Op::Get {
                        index: self.chooser.pick(rng) * 2 + rng.below(2),
                        absent: false,
                    }
                }
            }
            Role::Scanner => {
                let len = if rng.below(10) == 0 {
                    LONG_SCAN
                } else {
                    SHORT_SCAN
                };
                Op::Scan {
                    start: self.chooser.pick(rng),
                    len,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the first `ops` operations of a stream.
    fn stream_hash(role: Role, client: u64, n: u64, seed: u64, ops: usize) -> u64 {
        stream_hash_of(OpStream::new(role, client, 0, n, seed), ops)
    }

    fn stream_hash_of(mut stream: OpStream, ops: usize) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for _ in 0..ops {
            match stream.next_op() {
                Op::Put { index } => {
                    eat(1);
                    eat(index)
                }
                Op::Get { index, absent } => {
                    eat(2);
                    eat(index * 2 + absent as u64)
                }
                Op::MultiGet { indices } => {
                    eat(3);
                    indices.iter().for_each(|&i| eat(i))
                }
                Op::Scan { start, len } => {
                    eat(4);
                    eat(start);
                    eat(len)
                }
            }
        }
        hash
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for role in [
            Role::UniformWriter,
            Role::UniformReader,
            Role::ZipfWriter,
            Role::ZipfReader,
            Role::Scanner,
        ] {
            let a = stream_hash(role, 1, 50_000, 7, 5_000);
            assert_eq!(a, stream_hash(role, 1, 50_000, 7, 5_000), "{role:?}");
            assert_ne!(a, stream_hash(role, 1, 50_000, 8, 5_000), "{role:?} seed");
            assert_ne!(a, stream_hash(role, 0, 50_000, 7, 5_000), "{role:?} client");
            let other_slot = OpStream::new(role, 1, 1, 50_000, 7);
            assert_ne!(a, stream_hash_of(other_slot, 5_000), "{role:?} slot");
        }
    }

    /// The streams are part of the benchmark's definition: a change here
    /// changes every committed number, so it must be deliberate.
    #[test]
    fn streams_are_pinned() {
        let pinned = [
            (Role::UniformWriter, 5510629758607482254u64),
            (Role::UniformReader, 4210303729501327225),
            (Role::ZipfWriter, 17693481298674405615),
            (Role::ZipfReader, 137918136825005593),
            (Role::Scanner, 12850685219904146052),
        ];
        for (role, want) in pinned {
            assert_eq!(stream_hash(role, 1, 500_000, 1, 10_000), want, "{role:?}");
        }
    }

    #[test]
    fn writers_own_disjoint_keys() {
        for role in [Role::UniformWriter, Role::ZipfWriter] {
            for (client, slot) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let mut s = OpStream::new(role, client, slot, 1000, 3);
                for _ in 0..2000 {
                    match s.next_op() {
                        Op::Put { index } => assert!(index % 2 == client && index < 1000),
                        op => panic!("unexpected {op:?}"),
                    }
                }
            }
        }
    }

    /// The reader of `mixed` must ask for both writers' keys, evenly.
    #[test]
    fn zipf_reader_covers_both_writers_keys() {
        let mut s = OpStream::new(Role::ZipfReader, 0, 1, 1000, 3);
        let mut per_owner = [0u64; 2];
        for _ in 0..8000 {
            match s.next_op() {
                Op::Get { index, absent } => {
                    assert!(index < 1000 && !absent);
                    per_owner[(index % 2) as usize] += 1;
                }
                Op::MultiGet { indices } => indices.iter().for_each(|&index| {
                    assert!(index < 1000);
                    per_owner[(index % 2) as usize] += 1;
                }),
                op => panic!("unexpected {op:?}"),
            }
        }
        let share = per_owner[0] as f64 / (per_owner[0] + per_owner[1]) as f64;
        assert!((share - 0.5).abs() < 0.02, "{per_owner:?}");
    }

    #[test]
    fn zipfian_rank_frequencies_follow_the_law() {
        let n = 100_000;
        let zipf = Zipfian::new(n, ZIPF_THETA);
        let mut rng = Rng::new(11);
        let draws = 2_000_000u64;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            counts[zipf.rank(&mut rng) as usize] += 1;
        }
        // p(rank r) = (r+1)^-theta / zeta(n); check head ranks within 5 %
        // and that frequency falls with rank across decades.
        for r in [0u64, 1, 9, 99] {
            let expect = ((r + 1) as f64).powf(-ZIPF_THETA) / zipf.zetan * draws as f64;
            let got = counts[r as usize] as f64;
            assert!(
                (got - expect).abs() / expect < 0.05,
                "rank {r}: got {got}, expect {expect}"
            );
        }
        let decade = |lo: usize, hi: usize| counts[lo..hi].iter().sum::<u64>();
        assert!(decade(0, 10) > decade(10, 100) / 2);
        assert!(decade(10, 100) > decade(10_000, 100_000) / 4);
        assert!(counts[0] > counts[10] && counts[10] > counts[1000]);
    }

    #[test]
    fn zipfian_scramble_is_a_bijection() {
        let n = 10_007u64;
        let KeyChooser::Zipfian { stride, .. } = KeyChooser::zipfian(n, ZIPF_THETA) else {
            panic!()
        };
        let mut seen = vec![false; n as usize];
        for rank in 0..n {
            let idx = ((rank as u128 * stride as u128) % n as u128) as usize;
            assert!(!seen[idx]);
            seen[idx] = true;
        }
    }

    #[test]
    fn keys_sort_by_slot_and_round_trip() {
        let (mut a, mut b) = ([0u8; KEY_LEN], [0u8; KEY_LEN]);
        write_key(&mut a, present_slot(41));
        write_key(&mut b, absent_slot(41));
        assert!(a < b);
        write_key(&mut a, present_slot(42));
        assert!(b < a);
        assert_eq!(parse_key(&a), Some(84));
        assert_eq!(parse_key(b"short"), None);
    }

    #[test]
    fn values_verify_and_corruption_is_caught() {
        let mut v = value_template();
        write_value(&mut v, 123, 9);
        assert_eq!(check_value(&v), Some((123, 9)));
        let mut bad = v;
        bad[8] ^= 1;
        assert_eq!(check_value(&bad), None);
        assert_eq!(check_value(&v[..VALUE_LEN - 1]), None);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut order = shuffled(1000, &mut Rng::new(5));
        assert_ne!(order[..10], (0..10).collect::<Vec<u32>>()[..]);
        order.sort_unstable();
        assert!(order.iter().enumerate().all(|(i, &v)| v as usize == i));
    }
}
