//! Allocation budgets for the storage engine, as exact counts: what a
//! compaction of plain rows allocates must grow with the blocks it
//! moves, not with the rows in them; and what a read allocates must grow
//! with the rows it returns and the blocks it loads, not with the number
//! or the size of the cells in them — a decoded cell is a view of its
//! block — and a point read's not with the versions stored around the
//! one it returns.

use std::sync::Arc;

use bytes::Bytes;

use spinnaker_common::vfs::MemVfs;
use spinnaker_common::{CellOp, Key, Lsn, WriteOp};
use spinnaker_storage::{BlockCache, RangeStore, StoreOptions};

#[path = "../../common/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocated, allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const TABLES: u64 = 4;
const BLOCK_BYTES: u64 = 4096;

/// A store of four flushed tables whose keys interleave but never
/// repeat: `rows` single-version, single-column live rows in all, every
/// one of them in exactly one compaction input.
fn store_of_plain_rows(rows: u64, value_len: usize) -> RangeStore {
    let opts = StoreOptions { memtable_flush_bytes: usize::MAX, ..Default::default() };
    let mut store = RangeStore::open(Arc::new(MemVfs::new()), opts).unwrap();
    for table in 0..TABLES {
        for i in (table..rows).step_by(TABLES as usize) {
            let op = WriteOp::put(
                Key::from(format!("key{i:08}").as_str()),
                Bytes::from_static(b"c"),
                Bytes::from(vec![b'v'; value_len]),
                1_000 + i,
            );
            store.apply(&op, Lsn::new(1, i + 1));
        }
        store.flush().unwrap();
    }
    store
}

/// Compact `rows` plain rows; return (allocations, input blocks).
fn compact(rows: u64, value_len: usize) -> (u64, u64) {
    let mut store = store_of_plain_rows(rows, value_len);
    let in_bytes = store.approx_total_bytes();
    let (allocs, ()) = allocations(|| store.compact_all().unwrap());
    assert_eq!(store.stats().compactions, 1);
    assert_eq!(store.tables_per_level()[0], 0, "L0 was merged away");
    (allocs, in_bytes.div_ceil(BLOCK_BYTES))
}

#[test]
fn compacting_plain_rows_allocates_per_block_not_per_row() {
    // About the same bytes, so about the same blocks, in a quarter of
    // the rows and in all of them.
    let (wide_allocs, wide_blocks) = compact(8_000, 100);
    let (narrow_allocs, narrow_blocks) = compact(32_000, 4);
    assert!(narrow_blocks <= wide_blocks * 5 / 4, "{wide_blocks} vs {narrow_blocks} blocks");

    // Decoding allocates four times per such row (key, name, value,
    // output key; its one column is held inline); moving it allocates
    // nothing. What is left is per block (the read buffer, which holds
    // the entry offsets too, and the cache's entry; the index key on the
    // way out is short enough to be held inline) and per table. Measured
    // 364 over 267 blocks and 465 over 309.
    for (rows, allocs, blocks) in
        [(8_000, wide_allocs, wide_blocks), (32_000, narrow_allocs, narrow_blocks)]
    {
        assert!(allocs < rows / 2, "{rows} rows: {allocs} allocations");
        assert!(allocs <= 2 * blocks + 64, "{rows} rows, {blocks} blocks: {allocs} allocations");
    }
    // Four times the rows in the same blocks: the count does not follow
    // the rows.
    assert!(narrow_allocs <= 2 * wide_allocs, "{wide_allocs} -> {narrow_allocs}");
}

fn key(i: u64) -> Key {
    Key::from(format!("key{i:08}").as_str())
}

/// One flushed table of `rows` rows of `cols` columns each, read through
/// a block cache big enough to keep all of it.
fn cached_store(rows: u64, cols: usize, name_len: usize, value_len: usize) -> RangeStore {
    let opts = StoreOptions {
        memtable_flush_bytes: usize::MAX,
        cache: Some(Arc::new(BlockCache::new(64 << 20))),
        ..Default::default()
    };
    let mut store = RangeStore::open(Arc::new(MemVfs::new()), opts).unwrap();
    for i in 0..rows {
        let cells = (0..cols)
            .map(|c| CellOp::Put {
                col: Bytes::from(format!("{c:0name_len$}")),
                value: Bytes::from(vec![b'v'; value_len]),
            })
            .collect();
        store.apply(&WriteOp { key: key(i), cells, timestamp: 1_000 + i }, Lsn::new(1, i + 1));
    }
    store.flush().unwrap();
    store
}

/// Allocations of the first get of a key (its block is read, verified,
/// indexed and cached) and of the second (served from the cache).
fn cold_and_cached_get(cols: usize, name_len: usize, value_len: usize) -> (u64, u64) {
    let store = cached_store(64, cols, name_len, value_len);
    let k = key(37);
    let (cold, row) = allocations(|| store.get(&k).unwrap().unwrap());
    assert_eq!(row.columns.len(), cols);
    drop(row);
    let (cached, row) = allocations(|| store.get(&k).unwrap().unwrap());
    assert!(row.columns.values().all(|cv| cv.value.len() == value_len));
    (cold, cached)
}

#[test]
fn a_point_get_allocates_the_same_whatever_the_size_of_its_cells() {
    // From the cache: nothing for one column, which the row holds
    // inline; the one vector reserved from the encoded column count for
    // six. From the file, on top: the block's one buffer (its body, then
    // its entry offsets) and the cache's entry. (With copied cells a
    // one-column row cost a name and a value more, the kept-row slots a
    // vector and a clone, and every block read a file handle; with a map
    // of columns every row cost a node.) Short names and values; long
    // names, kilobyte values: the same counts.
    for (cols, name_len, value_len) in [(1, 1, 16), (1, 200, 4096), (6, 24, 512)] {
        let (cold, cached) = cold_and_cached_get(cols, name_len, value_len);
        let vector = u64::from(cols > 1);
        assert_eq!(cached, vector, "cached get, {cols} columns of {value_len} bytes");
        assert!(
            cold <= 2 + vector,
            "cold get, {cols} columns of {value_len} bytes: {cold} allocations"
        );
    }
}

#[test]
fn a_point_get_allocates_the_same_whatever_the_length_of_the_chain() {
    const VERSIONS: u64 = 1_000;
    let opts = StoreOptions {
        memtable_flush_bytes: usize::MAX,
        cache: Some(Arc::new(BlockCache::new(64 << 20))),
        ..Default::default()
    };
    let mut store = RangeStore::open(Arc::new(MemVfs::new()), opts).unwrap();
    let put = |i: u64, v: u64| {
        WriteOp::put(
            key(i),
            Bytes::from_static(b"c"),
            Bytes::from(format!("value-{v:04}")),
            1_000 + v,
        )
    };
    // key 0: one version. key 1: a thousand, none of them prunable.
    store.apply(&put(0, 0), Lsn::new(1, 1));
    for v in 0..VERSIONS {
        store.apply(&put(1, v), Lsn::new(1, 2 + v));
    }
    store.flush().unwrap();
    let chain = &store.scan(&key(1), None).unwrap()[0].1;
    assert_eq!(
        chain.get(b"c").unwrap().older.len() as u64,
        VERSIONS - 1,
        "the table holds them all"
    );

    let cached = |k: &Key, ts: u64| {
        store.get_at(k, ts).unwrap(); // its block is in the cache from here on
        let (calls, bytes, row) = allocated(|| store.get_at(k, ts).unwrap().unwrap());
        (calls, bytes, row.get(b"c").unwrap().clone())
    };
    let (plain_calls, plain_bytes, _) = cached(&key(0), u64::MAX);
    assert_eq!(plain_calls, 0, "the row's one column is held inline");
    // The head, the middle of the chain, its very end: no allocation
    // either, and a head without a chain.
    for v in [VERSIONS - 1, VERSIONS / 2, 0] {
        let (calls, bytes, cv) = cached(&key(1), 1_000 + v);
        assert_eq!((calls, bytes), (plain_calls, plain_bytes), "reading version {v}");
        assert_eq!(cv.value.as_ref(), format!("value-{v:04}").as_bytes());
        assert!(cv.older.is_empty());
    }
}

#[test]
fn a_scan_page_allocates_per_row_and_block_not_per_cell() {
    const PAGE: usize = 32;
    let page = |cols: usize, name_len: usize, value_len: usize| {
        let store = cached_store(256, cols, name_len, value_len);
        let blocks = store.approx_total_bytes().div_ceil(BLOCK_BYTES) * PAGE as u64 / 256 + 2;
        let start = key(100);
        let (allocs, (rows, resume)) = allocations(|| store.scan_page(&start, None, PAGE).unwrap());
        assert_eq!(rows.len(), PAGE);
        assert_eq!(resume, Some(key(100 + PAGE as u64)));
        (allocs, blocks)
    };
    for (cols, name_len, value_len) in [(1, 1, 16), (1, 64, 1024), (6, 24, 100)] {
        let (allocs, blocks) = page(cols, name_len, value_len);
        // Per row: nothing for one column (held inline; the key is a
        // view), one vector for several. Per block read: the buffer
        // (body and entry offsets) and the cache's entry. Per page: the
        // streams, the merge heap and the result vector's growth.
        // Measured 11, 18 and 49.
        let vectors = if cols > 1 { PAGE as u64 } else { 0 };
        assert!(
            allocs <= vectors + 2 * blocks + 12,
            "{cols} columns of {value_len} bytes, {blocks} blocks: {allocs} allocations"
        );
    }
}
