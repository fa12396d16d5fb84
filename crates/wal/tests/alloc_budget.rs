//! Allocation budget for the log's append path, as an exact count: a
//! warmed-up `Wal` frames a group propose in the buffer it owns, so what
//! an append still allocates is the growth of the per-LSN index (and, now
//! and then, of the in-memory file behind the segment).

use std::sync::Arc;

use bytes::Bytes;

use spinnaker_common::vfs::MemVfs;
use spinnaker_common::{Key, Lsn, RangeId, WriteOp};
use spinnaker_wal::{LogRecord, Wal, WalOptions};

#[path = "../../common/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BATCH: u64 = 8;

fn batch(round: u64) -> LogRecord {
    let first = 1 + round * BATCH;
    let ops: Vec<WriteOp> = (first..first + BATCH)
        .map(|seq| {
            WriteOp::put(
                Key::from(format!("key{seq:08}").as_str()),
                Bytes::from_static(b"c"),
                Bytes::from(vec![b'v'; 256]),
                1_000 + seq,
            )
        })
        .collect();
    LogRecord::batch(RangeId(0), Lsn::new(1, first), ops)
}

#[test]
fn appending_a_batch_allocates_only_for_index_growth() {
    let mut wal = Wal::open(Arc::new(MemVfs::new()), WalOptions::default()).unwrap();
    // Warm-up: the frame buffer reaches the size of a batch frame.
    for round in 0..8 {
        wal.append(&batch(round)).unwrap();
    }
    let rounds = 8..264u64;
    let records: Vec<LogRecord> = rounds.clone().map(batch).collect();
    let (allocs, ()) = allocations(|| {
        for rec in &records {
            wal.append(rec).unwrap();
        }
    });
    // The index is a B-tree of one entry per op: filling it in LSN order
    // takes a new leaf every six entries and an inner node now and then.
    // Framing the body in a buffer of its own, grown from empty and then
    // copied behind a header, took nine allocations per append by itself.
    let ops = (rounds.end - rounds.start) * BATCH;
    assert!(allocs <= ops / 5 + 16, "{allocs} allocations over {ops} appended ops");
    assert_eq!(wal.indexed_records(RangeId(0)), 264 * BATCH as usize);
}
