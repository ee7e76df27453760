//! # dlsm-skiplist — a lock-free, arena-based concurrent skip list
//!
//! The MemTable substrate for dLSM (paper Sec. IV): writes go to an
//! in-memory skip list that supports **concurrent lock-free inserts** and
//! **wait-free reads**, following the `InlineSkipList` design of
//! LevelDB/RocksDB:
//!
//! * All nodes, keys and values live in one pre-sized two-ended bump
//!   [`Arena`]: an insert reserves its node (header, tower, key) at the
//!   front and its value at the back with one CAS on a packed
//!   `front | back << 32` word, so searches walk densely packed nodes and
//!   never step over a value. Nothing is ever freed individually: when
//!   the last holder of a flushed table drops it, the whole arena is freed
//!   or, for a list built by [`SkipList::recycling`], handed to a
//!   [`SpareArena`] for the next table (LSM MemTables are bounded, so the
//!   arena can be pre-sized). The arena is never zeroed: a node's every
//!   word, its tower included, is stored before the node is published.
//! * Forward pointers are `AtomicU32` arena offsets; insertion links a node
//!   level-by-level with CAS, re-searching the splice on contention.
//! * Entries are never deleted or overwritten (deletes are tombstone values,
//!   and the (user-key, sequence-number) pair is unique), so readers need no
//!   epochs or hazard pointers: a linked node stays valid for the lifetime
//!   of the list.
//!
//! Ordering is pluggable via [`Comparator`]; dLSM supplies an internal-key
//! comparator (user key ascending, sequence number descending).

pub mod arena;
pub mod comparator;
pub mod list;
mod sync;

pub use arena::{Arena, ArenaFull, SpareArena};
pub use comparator::{BytewiseComparator, Comparator};
pub use list::{ArcSkipIter, Cursor, SkipList, SkipListIter};
