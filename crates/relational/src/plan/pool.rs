use crate::value::Value;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::{Mutex, MutexGuard};

/// FNV-1a. The executor hashes interned `u32` ids and small scalars by the
/// hundreds of thousands per query and never faces adversarial keys, so a
/// two-instruction multiplicative hash beats SipHash's DoS resistance.
#[derive(Clone, Copy)]
pub(super) struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    /// FNV's raw state has weak low-bit avalanche (integral-float bit
    /// patterns differ only in their high bits), and both the hash maps and
    /// the pool's shard selector key on low bits — finish with a
    /// murmur3-style mixer to spread the entropy.
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x100_0000_01b3);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

pub(super) type FnvBuild = BuildHasherDefault<Fnv>;

// ---------------------------------------------------------------------------
// Interning
// ---------------------------------------------------------------------------

const POOL_SHARD_BITS: u32 = 4;
const POOL_SHARDS: usize = 1 << POOL_SHARD_BITS;

/// Interns [`Value`]s to `u32` ids. Interning respects `Value` equality and
/// hashing (which are cross-type for numerics), so id equality is exactly
/// value equality — joins and dedup never touch the values themselves.
///
/// The pool is sharded by value hash (an id is `local_index << 4 | shard`):
/// interning takes `&self` and only locks one shard briefly, so parallel
/// walk executors intern concurrently instead of serializing on one mutex.
pub(crate) struct ValuePool {
    hasher: FnvBuild,
    shards: Vec<Mutex<PoolShard>>,
}

#[derive(Default)]
struct PoolShard {
    values: Vec<Value>,
    index: HashMap<Value, u32, FnvBuild>,
    /// Running string-heap estimate (counted twice: slab + index key), so
    /// [`ValuePool::approx_bytes`] — polled after every interned batch for
    /// the high-water mark — never walks the interned values.
    str_heap: usize,
}

impl Default for ValuePool {
    fn default() -> Self {
        Self {
            hasher: FnvBuild::default(),
            shards: (0..POOL_SHARDS)
                .map(|_| Mutex::new(PoolShard::default()))
                .collect(),
        }
    }
}

impl ValuePool {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Interns a value (one clone on first occurrence only).
    pub(crate) fn intern(&self, value: &Value) -> u32 {
        let shard_index = (self.hasher.hash_one(value) as usize) & (POOL_SHARDS - 1);
        let mut shard = self.shards[shard_index]
            .lock()
            .expect("value pool poisoned");
        if let Some(&local) = shard.index.get(value) {
            return (local << POOL_SHARD_BITS) | shard_index as u32;
        }
        let local = shard.values.len() as u32;
        // Ids pack as `local << 4 | shard`; overflowing the 28 local bits
        // would silently alias two distinct values — fail loudly instead.
        assert!(
            local < 1 << (32 - POOL_SHARD_BITS),
            "value pool shard overflow: more than 2^28 distinct values in one shard"
        );
        if let Value::Str(s) = value {
            // The stored clones allocate exactly `len` bytes each (clone
            // capacity is length, whatever the caller's buffer held).
            shard.str_heap += 2 * s.len();
        }
        shard.values.push(value.clone());
        shard.index.insert(value.clone(), local);
        (local << POOL_SHARD_BITS) | shard_index as u32
    }

    /// A read handle decoding ids without re-locking per value. Shards are
    /// locked in index order (the only multi-shard acquisition, so lock
    /// ordering is consistent); drop the reader before interning again on
    /// the same thread.
    pub(crate) fn reader(&self) -> PoolReader<'_> {
        PoolReader {
            guards: self
                .shards
                .iter()
                .map(|s| s.lock().expect("value pool poisoned"))
                .collect(),
        }
    }

    /// Number of distinct interned values.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("value pool poisoned").values.len())
            .sum()
    }

    /// Rough resident-size estimate in bytes: the interned values (counted
    /// twice — once in the slab, once as index keys), string heap storage,
    /// and index slots. An accounting aid for pool watermarks, not an exact
    /// allocator measurement. O(shards): the string heap is a running
    /// counter, so the batch-granular high-water mark can poll this without
    /// walking the pool.
    pub(crate) fn approx_bytes(&self) -> usize {
        let value_size = std::mem::size_of::<Value>();
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("value pool poisoned");
                shard.values.capacity() * value_size
                    + shard.index.capacity() * (value_size + std::mem::size_of::<u32>())
                    + shard.str_heap
            })
            .sum()
    }
}

/// A locked view of a [`ValuePool`] for bulk decoding.
pub(crate) struct PoolReader<'a> {
    guards: Vec<MutexGuard<'a, PoolShard>>,
}

impl PoolReader<'_> {
    /// The value behind an id.
    pub(crate) fn decode(&self, id: u32) -> &Value {
        let shard = (id as usize) & (POOL_SHARDS - 1);
        &self.guards[shard].values[(id >> POOL_SHARD_BITS) as usize]
    }
}

/// A block of rows in interned id space. `arity` may be zero, so the row
/// count is tracked explicitly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    arity: usize,
    len: usize,
    data: Vec<u32>,
}

impl Batch {
    /// An empty batch of the given arity.
    pub(crate) fn new(arity: usize) -> Self {
        Self {
            arity,
            len: 0,
            data: Vec::new(),
        }
    }

    /// Appends one row; the iterator must yield exactly `arity` ids.
    pub(crate) fn push(&mut self, row: impl IntoIterator<Item = u32>) {
        let before = self.data.len();
        self.data.extend(row);
        debug_assert_eq!(self.data.len() - before, self.arity);
        self.len += 1;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i` as an id slice.
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        debug_assert!(i < self.len);
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// All rows, in order.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Appends every row of `other` (equal arity).
    pub(crate) fn append(&mut self, other: &Batch) {
        debug_assert_eq!(self.arity, other.arity);
        self.data.extend_from_slice(&other.data);
        self.len += other.len;
    }

    /// A copy of rows `[start, start + len)`.
    pub(super) fn slice(&self, start: usize, len: usize) -> Batch {
        Batch {
            arity: self.arity,
            len,
            data: self.data[start * self.arity..(start + len) * self.arity].to_vec(),
        }
    }

    /// Rough resident size of the id arena, in bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<u32>()
    }
}

/// An arena-backed set of interned rows: unique rows live concatenated in
/// one `Vec<u32>`, membership goes through a row-hash index — no per-row
/// allocation, unlike a `HashSet<Box<[u32]>>`. Used by the streamed union's
/// dedup.
pub struct RowSet {
    arity: usize,
    len: usize,
    data: Vec<u32>,
    hasher: FnvBuild,
    /// Row hash → ordinal of the first row with that hash.
    index: HashMap<u64, u32, FnvBuild>,
    /// Rare same-hash-different-row entries, scanned linearly.
    overflow: Vec<(u64, u32)>,
}

impl RowSet {
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            len: 0,
            data: Vec::new(),
            hasher: FnvBuild::default(),
            index: HashMap::default(),
            overflow: Vec::new(),
        }
    }

    fn row(&self, ordinal: usize) -> &[u32] {
        &self.data[ordinal * self.arity..(ordinal + 1) * self.arity]
    }

    fn push_row(&mut self, row: &[u32]) -> u32 {
        let ordinal = self.len as u32;
        self.data.extend_from_slice(row);
        self.len += 1;
        ordinal
    }

    /// Inserts a row; returns whether it was new.
    pub fn insert(&mut self, row: &[u32]) -> bool {
        debug_assert_eq!(row.len(), self.arity);
        let hash = self.hasher.hash_one(row);
        match self.index.get(&hash) {
            None => {
                let ordinal = self.push_row(row);
                self.index.insert(hash, ordinal);
                true
            }
            Some(&ordinal) => {
                if self.row(ordinal as usize) == row {
                    return false;
                }
                if self
                    .overflow
                    .iter()
                    .any(|&(h, o)| h == hash && self.row(o as usize) == row)
                {
                    return false;
                }
                let ordinal = self.push_row(row);
                self.overflow.push((hash, ordinal));
                true
            }
        }
    }
}
