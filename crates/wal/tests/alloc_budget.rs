//! Allocation budgets for the log, as exact counts. Appending: a
//! warmed-up `Wal` frames a group propose in the buffer it owns and
//! indexes it as one run, so what an append still allocates is, now and
//! then, the doubling of the index's ring buffer or of the in-memory file
//! behind the segment. Replay: a frame
//! is read into one buffer and its ops' keys, column names and values are
//! views of it, so what a frame costs is that buffer, the record's
//! containers and one cell list per op — whatever the number and size of
//! the cells. The recovery scan decodes nothing: it allocates for the
//! index it builds and the segments it reads.

use std::sync::Arc;

use bytes::Bytes;

use spinnaker_common::vfs::{MemVfs, SharedVfs, Vfs, VfsFile};
use spinnaker_common::{CellOp, Key, Lsn, RangeId, WriteOp};
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
    // Measured 12: six doublings each of the index (8 runs to 264) and of
    // the segment's file. While the index was a B-tree of one entry per
    // op, filling it took a new leaf every six entries: 348 allocations
    // (budget `ops / 5 + 16`). Framing the body in a buffer of its own,
    // grown from empty and then copied behind a header, took nine
    // allocations per append by itself.
    let ops = (rounds.end - rounds.start) * BATCH;
    assert!(allocs <= 12, "{allocs} allocations over {ops} appended ops");
    assert_eq!(wal.indexed_records(RangeId(0)), 264 * BATCH as usize);
}

/// A record of `BATCH` ops of `cells` columns each.
fn wide_batch(round: u64, cells: usize, value_len: usize) -> LogRecord {
    record_of(1 + round * BATCH, BATCH, cells, value_len)
}

/// A record of `n` ops from LSN `1.first` on, of `cells` columns each.
fn record_of(first: u64, n: u64, cells: usize, value_len: usize) -> LogRecord {
    let ops: Vec<WriteOp> = (first..first + n)
        .map(|seq| WriteOp {
            key: Key::from(format!("key{seq:08}").as_str()),
            cells: (0..cells)
                .map(|c| CellOp::Put {
                    col: Bytes::from(format!("column-{c:04}")),
                    value: Bytes::from(vec![b'v'; value_len]),
                })
                .collect(),
            timestamp: 1_000 + seq,
            origin: None,
        })
        .collect();
    LogRecord::batch(RangeId(0), Lsn::new(1, first), ops)
}

const FRAMES: u64 = 64;

/// Allocations of replaying `FRAMES` batch frames, and of the recovery
/// scan over them.
fn read_back(cells: usize, value_len: usize) -> (u64, u64) {
    let vfs = MemVfs::new();
    let shared: SharedVfs = Arc::new(vfs.clone());
    let mut wal = Wal::open(shared.clone(), WalOptions::default()).unwrap();
    for round in 0..FRAMES {
        wal.append(&wide_batch(round, cells, value_len)).unwrap();
    }
    wal.sync().unwrap();
    let mut seen = 0usize;
    let (replay, n) = allocations(|| {
        wal.replay(RangeId(0), Lsn::ZERO, Lsn::MAX, |_, op| seen += op.cells.len()).unwrap()
    });
    assert_eq!((n as u64, seen as u64), (FRAMES * BATCH, FRAMES * BATCH * cells as u64));
    drop(wal);
    let (scan, reopened) = allocations(|| Wal::open(shared, WalOptions::default()).unwrap());
    assert_eq!(reopened.indexed_records(RangeId(0)) as u64, FRAMES * BATCH);
    (replay, scan)
}

#[test]
fn reading_frames_back_allocates_per_frame_and_op_not_per_cell() {
    let ops = FRAMES * BATCH;
    let (narrow_replay, narrow_scan) = read_back(1, 16);
    let (wide_replay, wide_scan) = read_back(6, 512);
    for (what, allocs) in [("replay", narrow_replay), ("replay, wide", wide_replay)] {
        // Per frame: its buffer, the op list and the shared batch it
        // becomes. Per op: its cell list. (Copying decode paid a key, and
        // a name and a value per cell, on top: 3 072 more for the narrow
        // records, 13 824 for the wide ones; boxing the decoded record, one
        // more per frame.)
        assert_eq!(allocs, ops + 3 * FRAMES, "{what}: allocations for {ops} ops");
    }
    for (what, allocs) in [("scan", narrow_scan), ("scan, wide", wide_scan)] {
        // Nothing per frame or op: the index's doublings up to 64 runs,
        // and the segment read once (see
        // `opening_a_log_allocates_for_its_index_not_its_frames`).
        // Measured 25; 104 while the index was a B-tree of one entry per op.
        assert!(allocs <= 25, "{what}: {allocs} for {ops} ops");
    }
    // Six times the cells, thirty-two times the bytes: the same count.
    assert_eq!(wide_replay, narrow_replay);
    assert_eq!(wide_scan, narrow_scan);
}

/// Writes in the logs the open is measured over.
const WRITES: u64 = 512 * (1 + BATCH);

/// Allocations of opening a log of `WRITES` writes in segments of
/// `segment_bytes`, and the number of segments: the writes framed as a
/// single and a batch in turn (1 024 frames) or as batches only (576),
/// each op `cells` columns of `value_len` bytes.
fn open_allocs(singles: bool, cells: usize, value_len: usize, segment_bytes: u64) -> (u64, usize) {
    let shared: SharedVfs = Arc::new(MemVfs::new());
    let opts = WalOptions { dir: "wal".into(), segment_bytes };
    let mut wal = Wal::open(shared.clone(), opts.clone()).unwrap();
    let mut first = 1;
    while first <= WRITES {
        let n = if singles && first % (1 + BATCH) == 1 { 1 } else { BATCH };
        wal.append(&record_of(first, n, cells, value_len)).unwrap();
        first += n;
    }
    wal.sync().unwrap();
    let segments = wal.segment_count();
    drop(wal);
    let (allocs, wal) = allocations(|| Wal::open(shared, opts).unwrap());
    assert_eq!(wal.indexed_records(RangeId(0)) as u64, WRITES);
    (allocs, segments)
}

/// The recovery scan reads each segment into one buffer and walks its
/// frames' headers there: opening a log allocates for the index it
/// builds and the segments it reads, and for nothing per frame, op or
/// cell. (Decoding every record took a boxed record and a shared batch
/// per frame, an op list per batch and a cell list per op on top: 7 957
/// allocations for the 1 024 frames below.)
#[test]
fn opening_a_log_allocates_for_its_index_not_its_frames() {
    // The index's share: a ring buffer of one run per frame, grown by
    // doubling to hold 1 024 (a run is five words).
    let mut index = std::collections::VecDeque::new();
    let (index_allocs, ()) = allocations(|| {
        for frame in 0..1_024u64 {
            index.push_back([frame; 5]);
        }
    });
    let (allocs, segments) = open_allocs(true, 1, 16, 8 << 20);
    println!(
        "opening {WRITES} writes in 1 024 frames: {allocs} allocations, {index_allocs} the index's"
    );
    assert_eq!(segments, 1);
    // The rest: the listing, the sidecar, the segment's name, handle and
    // read buffer, and the fresh segment the log appends to. (787 and 768
    // while the index was a B-tree of one entry per LSN, a node per six.)
    assert_eq!((allocs, index_allocs), (28, 9));
    // 576 frames: the index doubles as often.
    assert_eq!(open_allocs(false, 1, 16, 8 << 20), (allocs, 1), "fewer frames, the same count");
    // Each further segment: its name (listed, then as a path), its handle
    // and its buffer — whatever the frames in it hold.
    let wide = open_allocs(true, 6, 512, 8 << 20);
    assert_eq!(wide, (allocs + 6, 2));
    assert_eq!(open_allocs(true, 1, 16, 128 << 10), wide, "cells and bytes do not count");
}

/// A [`Vfs`] that counts `open` calls.
struct CountingOpens {
    inner: MemVfs,
    opens: std::sync::atomic::AtomicUsize,
}

impl Vfs for CountingOpens {
    fn create(&self, path: &str) -> spinnaker_common::Result<Box<dyn VfsFile>> {
        self.inner.create(path)
    }
    fn open(&self, path: &str) -> spinnaker_common::Result<Box<dyn VfsFile>> {
        self.opens.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.open(path)
    }
    fn exists(&self, path: &str) -> spinnaker_common::Result<bool> {
        self.inner.exists(path)
    }
    fn list(&self, prefix: &str) -> spinnaker_common::Result<Vec<String>> {
        self.inner.list(prefix)
    }
    fn delete(&self, path: &str) -> spinnaker_common::Result<()> {
        self.inner.delete(path)
    }
    fn rename(&self, from: &str, to: &str) -> spinnaker_common::Result<()> {
        self.inner.rename(from, to)
    }
}

#[test]
fn a_replay_opens_each_sealed_segment_once() {
    let vfs = Arc::new(CountingOpens { inner: MemVfs::new(), opens: Default::default() });
    // Small segments: a few frames each.
    let opts = WalOptions { dir: "wal".into(), segment_bytes: 16 << 10 };
    let mut wal = Wal::open(vfs.clone(), opts).unwrap();
    for round in 0..FRAMES {
        wal.append(&batch(round)).unwrap();
    }
    let sealed = wal.segment_count() - 1;
    assert!(sealed >= 4, "{sealed} sealed segments");
    let before = vfs.opens.load(std::sync::atomic::Ordering::Relaxed);
    let n = wal.replay(RangeId(0), Lsn::ZERO, Lsn::MAX, |_, _| {}).unwrap();
    assert_eq!(n as u64, FRAMES * BATCH);
    let opens = vfs.opens.load(std::sync::atomic::Ordering::Relaxed) - before;
    assert_eq!(opens, sealed, "one handle per sealed segment, none for the current one");
}
