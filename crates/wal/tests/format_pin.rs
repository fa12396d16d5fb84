//! The on-disk log format is pinned: a fixed stream of records must land
//! in segments of exactly these lengths and checksums. The constants were
//! taken from the implementation that built each frame body in a buffer
//! of its own and copied it behind a header; any byte the in-place
//! encoder frames differently — and any segment the old code wrote that
//! this code could not replay — shows up here.

use std::sync::Arc;

use bytes::Bytes;

use spinnaker_common::crc32c::crc32c;
use spinnaker_common::vfs::{MemVfs, Vfs};
use spinnaker_common::{CellOp, Key, Lsn, RangeId, WriteOp};
use spinnaker_wal::record::encode_frame;
use spinnaker_wal::{LogRecord, Wal, WalOptions};

/// Write `seq` of the pinned stream: puts of growing values, every
/// seventh a delete, every fifth touching two columns.
fn pinned_op(seq: u64) -> WriteOp {
    let key = Key::from(format!("pin{seq:05}").as_str());
    let col = Bytes::from_static(b"body");
    let mut cells = if seq % 7 == 0 {
        vec![CellOp::Delete { col }]
    } else {
        let value = Bytes::from(format!("value-{seq}-{}", "x".repeat((seq % 41) as usize)));
        vec![CellOp::Put { col, value }]
    };
    if seq % 5 == 0 {
        cells.push(CellOp::Put {
            col: Bytes::from_static(b"flag"),
            value: Bytes::from(vec![(seq % 251) as u8; 3]),
        });
    }
    WriteOp { key, cells, timestamp: 1_000 + seq * 3, origin: None }
}

/// The pinned stream: per round and cohort a single write, a 2-op batch,
/// an 8-op batch and a commit note, over three cohorts sharing the log.
fn pinned_records() -> Vec<LogRecord> {
    let mut records = Vec::new();
    let mut seq = [0u64; 3];
    for round in 0..40u64 {
        for cohort in 0..3u32 {
            let next = &mut seq[cohort as usize];
            let epoch = 1 + (round / 25) as u16;
            for n in [1u64, 2, 8] {
                let first = *next + 1;
                let ops: Vec<WriteOp> =
                    (first..first + n).map(|s| pinned_op(s * 3 + u64::from(cohort))).collect();
                *next += n;
                records.push(if n == 1 {
                    LogRecord::write(RangeId(cohort), Lsn::new(epoch, first), ops[0].clone())
                } else {
                    LogRecord::batch(RangeId(cohort), Lsn::new(epoch, first), ops)
                });
            }
            records.push(LogRecord::commit_note(RangeId(cohort), Lsn::new(epoch, *next)));
        }
    }
    records
}

const PINNED_SEGMENTS: [(usize, u32); 2] = [(48_922, 0xCBDE_449E), (29_470, 0x7278_AE86)];

#[test]
fn wal_segment_bytes_are_pinned() {
    let vfs = MemVfs::new();
    let opts = WalOptions { dir: "wal".into(), segment_bytes: 48 << 10 };
    let mut wal = Wal::open(Arc::new(vfs.clone()), opts.clone()).unwrap();
    let records = pinned_records();
    for rec in &records {
        wal.append(rec).unwrap();
    }
    wal.sync().unwrap();

    let segments = vfs.list("wal/seg-").unwrap();
    let got: Vec<(usize, u32)> = segments
        .iter()
        .map(|path| {
            let bytes = vfs.read_all(path).unwrap();
            (bytes.len(), crc32c(&bytes))
        })
        .collect();
    assert_eq!(got, PINNED_SEGMENTS, "(length, CRC-32C) per segment");

    // And it reads back, through the recovery scan: every op under its
    // own LSN, whichever kind of record carried it.
    drop(wal);
    let wal = Wal::open(Arc::new(vfs.crash_clone()), opts).unwrap();
    for cohort in 0..3u32 {
        let mut want = Vec::new();
        for rec in records.iter().filter(|r| r.cohort == RangeId(cohort) && r.is_write()) {
            let mut replayed = Vec::new();
            wal.replay(rec.cohort, Lsn::from_u64(rec.lsn.as_u64() - 1), rec.last_lsn(), |l, op| {
                replayed.push((l, op.clone()));
            })
            .unwrap();
            assert_eq!(replayed.len() as u64, rec.write_count(), "record at {}", rec.lsn);
            want.extend(replayed);
        }
        let all = wal.read_range(RangeId(cohort), Lsn::ZERO, Lsn::MAX).unwrap();
        assert_eq!(all, want, "cohort {cohort}: one pass equals record-by-record replay");
        assert_eq!(all.len(), 40 * 11);
        for (i, (lsn, op)) in all.iter().enumerate() {
            assert_eq!(lsn.seq(), i as u64 + 1);
            assert_eq!(*op, pinned_op(lsn.seq() * 3 + u64::from(cohort)));
        }
    }
}

/// A group propose is logged once per replica, from different hands: the
/// leader frames the shared batch it built, a follower frames what the
/// propose message delivered — the same allocation in the simulator, an
/// equal copy off a real wire. Every replica must hold the same bytes,
/// for a batch and for the lone write that travels as a plain record.
#[test]
fn leader_and_follower_frames_of_one_batch_are_byte_identical() {
    for n in [1u64, 2, 8] {
        let first = Lsn::new(3, 100);
        let ops: Vec<WriteOp> = (0..n).map(|i| pinned_op(500 + i)).collect();
        let shared: Arc<[WriteOp]> = ops.clone().into();
        let leader = encode_frame(&LogRecord::batch(RangeId(2), first, shared.clone())).unwrap();
        let follower = encode_frame(&LogRecord::batch(RangeId(2), first, shared)).unwrap();
        let off_the_wire = encode_frame(&LogRecord::batch(RangeId(2), first, ops)).unwrap();
        assert_eq!(leader, follower, "{n} ops, shared batch");
        assert_eq!(leader, off_the_wire, "{n} ops, copied batch");
    }
}
