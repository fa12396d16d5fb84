//! Allocation budgets for the storage engine, as exact counts: what a
//! compaction of plain rows allocates must grow with the blocks it
//! moves, not with the rows in them.

use std::sync::Arc;

use bytes::Bytes;

use spinnaker_common::vfs::MemVfs;
use spinnaker_common::{Key, Lsn, WriteOp};
use spinnaker_storage::{RangeStore, StoreOptions};

#[path = "../../common/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

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

    // Decoding allocates five times per such row (key, name, value, map
    // node, output key); moving it allocates nothing. What is left is
    // per block (file handle, read buffer, entry index, kept-row slots,
    // cache handle; index key on the way out) and per table.
    for (rows, allocs, blocks) in
        [(8_000, wide_allocs, wide_blocks), (32_000, narrow_allocs, narrow_blocks)]
    {
        assert!(allocs < rows / 2, "{rows} rows: {allocs} allocations");
        assert!(allocs <= 10 * blocks + 64, "{rows} rows, {blocks} blocks: {allocs} allocations");
    }
    // Four times the rows in the same blocks: the count does not follow
    // the rows.
    assert!(narrow_allocs <= 2 * wide_allocs, "{wide_allocs} -> {narrow_allocs}");
}
