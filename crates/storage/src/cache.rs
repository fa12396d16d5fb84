//! Shared block cache: SSTable data blocks, kept hot across every store
//! on a node.
//!
//! Point gets and scan pages resolve through [`crate::sstable::Table`]
//! block reads; without a cache each read goes back through the VFS,
//! re-checksums the chunk and re-indexes it. The [`BlockCache`] keeps the
//! loaded [`Block`] by value — one buffer holding the CRC-verified **raw**
//! body and, in its tail, the entry offsets; not a decoded copy of every
//! row — so a hot block costs one `BTreeMap` lookup and a reference-count
//! bump: no IO, no CRC, no skip pass, no allocation.
//!
//! Decoding happens at the reader, one row at a time: a get decodes the
//! row it returns, an iterator each row it yields, and the block keeps
//! no decoded row. A decoded key, column name or value is a view of the
//! block's body (see [`crate::block`]), so a get of a hot key costs a
//! reference-count bump per cell and no allocation when the row has one
//! column (held inline in the returned row; a wider row costs one vector
//! of columns), never a copy of its bytes; a cold block read for one key
//! allocates for that one row,
//! and eviction recycles one flat buffer — unless a row handed out still
//! views it, which then frees it when it goes — not an object graph per
//! stored row.
//!
//! Design:
//!
//! * **Sharded** by table id: each shard owns an independent map and
//!   clock hand behind its own mutex, so unrelated tables never contend.
//! * **Clock eviction**: every entry carries a referenced bit, set on
//!   hit. When a shard exceeds its byte budget the clock hand sweeps in
//!   key order, clearing bits and evicting the first unreferenced entry —
//!   a deterministic LRU approximation with O(log n) steps.
//! * **Charged by block bytes**: an entry's cost is the on-disk chunk
//!   length it replaced (body + checksum), so the configured capacity
//!   tracks real IO saved. It is a function of the file alone, so which
//!   blocks hit, miss and get evicted depends only on the tables and the
//!   access order, never on how a block is held in memory. Memory pinned
//!   per entry is its one buffer: the chunk, then 8 bytes of offsets per
//!   row and whatever spare room the read left unused. A row a reader
//!   still holds pins that buffer, an evicted block's too, until it drops.
//! * **Recycled buffers**: an evicted entry's buffer, when nothing else
//!   views it ([`bytes::Bytes::try_into_mut`]), joins its shard's few
//!   spares, and a miss of that shard reads its chunk into the shortest
//!   spare that fits (`BlockCache::spare`) instead of a fresh zeroed
//!   buffer. A warm cache under eviction then reads a block with no
//!   allocation. What is cached, hit and evicted does not change: the
//!   charge is still the chunk length, whatever buffer holds it.
//! * **Keyed `(table_id, block_offset)`** where `table_id` is a
//!   cache-unique id handed out by [`BlockCache::register_table`] at
//!   table open. Ids are never reused, so an entry for a table retired by
//!   compaction can never be served to its successor; retirement also
//!   evicts eagerly via [`BlockCache::evict_table`].

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::BytesMut;
use parking_lot::Mutex;

use crate::block::Block;

/// Shared, clonable handle to a node-wide [`BlockCache`].
pub type SharedBlockCache = Arc<BlockCache>;

const SHARDS: usize = 8;

/// Evicted blocks' buffers a shard keeps for its next misses.
const SPARES: usize = 4;

struct Entry {
    block: Block,
    charge: u64,
    referenced: bool,
}

#[derive(Default)]
struct Shard {
    map: BTreeMap<(u64, u64), Entry>,
    bytes: u64,
    /// Clock hand: the sweep resumes strictly after this key.
    hand: (u64, u64),
    /// Buffers of evicted blocks that nothing else viewed, oldest first.
    spares: Vec<BytesMut>,
}

impl Shard {
    /// Uncharge `e`, which has left the map, and keep its buffer as a
    /// spare when nothing else views it, in place of the oldest spare
    /// when there are [`SPARES`] already.
    fn retire(&mut self, e: Entry) {
        self.bytes -= e.charge;
        if let Some(buf) = e.block.recycle() {
            if self.spares.len() == SPARES {
                self.spares.remove(0);
            }
            self.spares.push(buf);
        }
    }

    /// Evict one entry by the clock rule. Returns the bytes released
    /// (0 only when the shard is empty).
    fn evict_one(&mut self) -> u64 {
        // Two full sweeps suffice: the first clears every referenced
        // bit, the second must find a victim.
        for _ in 0..2 * self.map.len().max(1) {
            let key = match self.map.range((Bound::Excluded(self.hand), Bound::Unbounded)).next() {
                Some((k, _)) => *k,
                // Wrap the hand around.
                None => match self.map.iter().next() {
                    Some((k, _)) => *k,
                    None => return 0,
                },
            };
            self.hand = key;
            let evict = match self.map.get_mut(&key) {
                Some(e) if e.referenced => {
                    e.referenced = false;
                    false
                }
                Some(_) => true,
                None => false,
            };
            if evict {
                if let Some(e) = self.map.remove(&key) {
                    let charge = e.charge;
                    self.retire(e);
                    return charge;
                }
            }
        }
        0
    }
}

/// Point-in-time counters for the whole cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found their block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks inserted.
    pub inserts: u64,
    /// Entries evicted (clock pressure + table retirement).
    pub evictions: u64,
    /// Bytes currently charged.
    pub bytes: u64,
    /// Entries currently cached.
    pub entries: u64,
}

/// Per-store cache observables: every [`crate::sstable::Table`] a store
/// opens carries a clone of its store's handle, so hits and misses are
/// attributable per range even though the cache itself is node-wide.
#[derive(Debug, Default)]
pub struct CacheMetrics {
    hits: AtomicU64,
    misses: AtomicU64,
    block_reads: AtomicU64,
}

impl CacheMetrics {
    pub(crate) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn block_read(&self) {
        self.block_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Cache hits recorded against this handle.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses recorded against this handle.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Blocks actually read and checksummed through the VFS (every miss,
    /// plus every read when no cache is configured).
    pub fn block_reads(&self) -> u64 {
        self.block_reads.load(Ordering::Relaxed)
    }
}

/// A sharded, clock-evicted cache of loaded SSTable blocks, shared by
/// every [`crate::RangeStore`] on a node.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: u64,
    next_table_id: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BlockCache")
            .field("capacity", &(self.shard_capacity * SHARDS as u64))
            .field("stats", &s)
            .finish()
    }
}

impl BlockCache {
    /// A cache budgeted at `capacity_bytes` across all shards.
    pub fn new(capacity_bytes: u64) -> BlockCache {
        BlockCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: (capacity_bytes / SHARDS as u64).max(1),
            next_table_id: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Hand out a cache-unique table id. Ids are never reused, so a
    /// retired table's leftover entries can never alias a later table's
    /// blocks.
    pub fn register_table(&self) -> u64 {
        // Relaxed: an id publishes no other data, and the read-modify-write
        // alone makes it unique.
        self.next_table_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn shard(&self, table: u64) -> &Mutex<Shard> {
        &self.shards[(table % SHARDS as u64) as usize]
    }

    /// Look up the block at `(table, offset)`, marking it recently used.
    /// The block comes back by value: a clone of a [`Block`] is a
    /// reference-count bump on its one buffer.
    pub fn get(&self, table: u64, offset: u64) -> Option<Block> {
        let mut shard = self.shard(table).lock();
        match shard.map.get_mut(&(table, offset)) {
            Some(e) => {
                e.referenced = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.block.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert the block at `(table, offset)`, charging `charge` bytes and
    /// evicting by the clock rule until the shard fits its budget. Blocks
    /// larger than a whole shard are not cached.
    pub fn insert(&self, table: u64, offset: u64, block: Block, charge: u64) {
        if charge > self.shard_capacity {
            return;
        }
        let mut shard = self.shard(table).lock();
        // New blocks start unreferenced: a block earns its second chance
        // only by being read again, so a one-pass scan cannot flush the
        // working set out of the cache.
        let entry = Entry { block, charge, referenced: false };
        if let Some(old) = shard.map.insert((table, offset), entry) {
            shard.retire(old);
        }
        shard.bytes += charge;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        while shard.bytes > self.shard_capacity {
            if shard.evict_one() == 0 {
                break;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A buffer of at least `len` bytes for a block of `table` to be read
    /// into: the shortest spare of its shard that fits, unless that is
    /// half as long again as asked (a short block does not pin a long
    /// buffer). Its bytes are what the evicted block left there, not
    /// zeros. `None` when no spare fits.
    pub(crate) fn spare(&self, table: u64, len: usize) -> Option<BytesMut> {
        let mut shard = self.shard(table).lock();
        let (at, _) = shard
            .spares
            .iter()
            .enumerate()
            .filter(|(_, b)| (len..=len + len / 2).contains(&b.len()))
            .min_by_key(|(_, b)| b.len())?;
        Some(shard.spares.remove(at))
    }

    /// Drop every entry belonging to `table` — called when compaction (or
    /// a store fork cleanup) retires the table, so its blocks can never
    /// be served again.
    pub fn evict_table(&self, table: u64) {
        let mut shard = self.shard(table).lock();
        let keys: Vec<(u64, u64)> =
            shard.map.range((table, 0)..=(table, u64::MAX)).map(|(k, _)| *k).collect();
        for key in keys {
            if let Some(e) = shard.map.remove(&key) {
                shard.retire(e);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Table ids that currently have at least one cached block
    /// (test/debug introspection for the retirement invariant).
    pub fn tables_with_entries(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            let mut last = None;
            for ((table, _), _) in shard.map.iter() {
                if last != Some(*table) {
                    out.push(*table);
                    last = Some(*table);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let mut bytes = 0;
        let mut entries = 0;
        for shard in &self.shards {
            let shard = shard.lock();
            bytes += shard.bytes;
            entries += shard.map.len() as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use spinnaker_common::codec::Encode;
    use spinnaker_common::{Key, Row};

    use super::*;

    fn block(n: usize) -> Block {
        let mut body = Key::from(format!("k{n}").as_str()).encode_to_vec();
        Row::new().encode(&mut body);
        let mut buf = bytes::BytesMut::zeroed(body.len() + crate::block::SLOT);
        buf[..body.len()].copy_from_slice(&body);
        Block::load(buf, body.len(), body.len()).unwrap()
    }

    #[test]
    fn hit_miss_and_insert() {
        let c = BlockCache::new(1 << 20);
        let t = c.register_table();
        assert!(c.get(t, 0).is_none());
        c.insert(t, 0, block(1), 100);
        let got = c.get(t, 0).unwrap();
        assert_eq!(got.entry(0).unwrap().unwrap().0, Key::from("k1"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(s.bytes, 100);
    }

    #[test]
    fn capacity_is_enforced_by_clock_eviction() {
        // One shard's budget is capacity/SHARDS; all keys on one table
        // land in one shard.
        let c = BlockCache::new(8 * 1000);
        let t = c.register_table();
        for i in 0..100u64 {
            c.insert(t, i, block(i as usize), 100);
        }
        let s = c.stats();
        assert!(s.bytes <= 1000, "shard stayed within budget: {}", s.bytes);
        assert!(s.evictions >= 90, "evictions happened: {}", s.evictions);
        assert!(s.entries <= 10);
    }

    #[test]
    fn recently_used_entries_survive_pressure() {
        let c = BlockCache::new(8 * 1000);
        let t = c.register_table();
        c.insert(t, 0, block(0), 100);
        for i in 1..50u64 {
            // Keep touching block 0 while inserting pressure.
            let _ = c.get(t, 0);
            c.insert(t, i, block(i as usize), 100);
        }
        assert!(c.get(t, 0).is_some(), "hot block survived the sweep");
    }

    #[test]
    fn evict_table_removes_every_entry() {
        let c = BlockCache::new(1 << 20);
        let a = c.register_table();
        let b = c.register_table();
        for i in 0..5u64 {
            c.insert(a, i, block(i as usize), 10);
            c.insert(b, i, block(i as usize), 10);
        }
        c.evict_table(a);
        assert!(c.get(a, 0).is_none());
        assert!(c.get(b, 0).is_some(), "other tables untouched");
        assert_eq!(c.tables_with_entries(), vec![b]);
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let c = BlockCache::new(8 * 100);
        let t = c.register_table();
        c.insert(t, 0, block(0), 1000);
        assert!(c.get(t, 0).is_none());
        assert_eq!(c.stats().bytes, 0);
    }

    #[test]
    fn ids_are_unique_and_never_reused() {
        let c = BlockCache::new(1 << 20);
        let ids: Vec<u64> = (0..100).map(|_| c.register_table()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
    }
}
