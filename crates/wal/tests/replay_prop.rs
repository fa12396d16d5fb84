//! Property tests: WAL replay after a crash reproduces exactly the synced
//! prefix, regardless of where the crash falls.

use std::sync::Arc;

use proptest::prelude::*;

use bytes::Bytes;

use spinnaker_common::codec::{Encode, Source};
use spinnaker_common::vfs::MemVfs;
use spinnaker_common::{crc32c, op, CellOp, Key, Lsn, RangeId, WriteOp};
use spinnaker_wal::record::{encode_frame, read_frame, scan_frame, FrameRead, FRAME_HEADER};
use spinnaker_wal::{LogRecord, Wal, WalOptions};

#[path = "../../common/tests/support/decode_equiv.rs"]
mod decode_equiv;
use decode_equiv::{assert_decodes_alike, assert_decodes_alike_when_damaged, damaged};

/// `body` behind a frame header that vouches for it: the right length and
/// checksum, so whatever is wrong with it is for the body's parser to find.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32c::masked(crc32c::crc32c(body)).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

/// The recovery scan's verdict on `buf` is `read_frame`'s: a record with
/// the same header and frame length, torn for the same reason, or the
/// same error.
fn assert_scan_agrees_with_read(buf: &[u8]) {
    match (read_frame(Source::copying(buf)), scan_frame(buf)) {
        (Ok(FrameRead::Record(record, n)), Ok(FrameRead::Record(header, m))) => {
            assert_eq!(header, record.header(), "headers differ");
            assert_eq!(n, m, "frame lengths differ");
        }
        (Ok(FrameRead::Torn(a)), Ok(FrameRead::Torn(b))) => assert_eq!(a, b, "torn differently"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "errors differ"),
        (a, b) => panic!("verdicts differ: read {a:?}, scan {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A record decoded out of a shared frame buffer (its ops are views
    /// of the frame) and out of a plain slice (copies) is the same
    /// record, and damage is refused the same way: the batch-size and tag
    /// checks hold for both sources.
    #[test]
    fn shared_and_copying_record_decode_agree(
        cohort in 0u32..1000,
        lsn in any::<u64>(),
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 0..5),
        flip in any::<u16>(),
        noise in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let lsn = Lsn::from_u64(lsn);
        let record = if keys.is_empty() {
            LogRecord::commit_note(RangeId(cohort), lsn)
        } else {
            let ops: Vec<_> = keys
                .iter()
                .map(|k| op::put(&String::from_utf8_lossy(k), "col", "value"))
                .collect();
            LogRecord::batch(RangeId(cohort), lsn, ops)
        };
        assert_decodes_alike_when_damaged::<LogRecord>(&record.encode_to_vec(), flip as usize);
        assert_decodes_alike::<LogRecord>(&noise);
    }

    /// The recovery scan walks a frame's ops where `read_frame` decodes
    /// them, and must draw the same line: over intact frames, frames cut
    /// short or with a bit flipped, frames around a damaged or padded body
    /// that the checksum vouches for, and random bytes, the two agree on
    /// every verdict — and on a record, the scan reports the cohort, LSN,
    /// op count and frame length the decoded record has.
    #[test]
    fn the_header_scan_accepts_exactly_what_decoding_accepts(
        cohort in 0u32..1000,
        lsn in any::<u64>(),
        ops in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..12),
                proptest::collection::vec(
                    (proptest::collection::vec(any::<u8>(), 0..6), any::<Option<u8>>()),
                    0..4,
                ),
            ),
            0..5,
        ),
        flip in any::<u16>(),
        noise in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let lsn = Lsn::from_u64(lsn);
        let record = if ops.is_empty() {
            LogRecord::commit_note(RangeId(cohort), lsn)
        } else {
            // Cells are puts and deletes; an op without any is one the
            // decoder refuses, and the scan must refuse it too.
            let ops: Vec<WriteOp> = ops
                .iter()
                .map(|(key, cells)| WriteOp {
                    key: Key(Bytes::from(key.clone())),
                    cells: cells
                        .iter()
                        .map(|(col, value)| {
                            let col = Bytes::from(col.clone());
                            match value {
                                Some(v) => CellOp::Put { col, value: Bytes::from(vec![*v; 3]) },
                                None => CellOp::Delete { col },
                            }
                        })
                        .collect(),
                    timestamp: lsn.as_u64() ^ 0x5a,
                    origin: None,
                })
                .collect();
            LogRecord::batch(RangeId(cohort), lsn, ops)
        };
        let body = record.encode_to_vec();
        let frame = encode_frame(&record).unwrap();
        let mut padded = body.clone();
        padded.extend_from_slice(&noise);
        let flip = flip as usize;
        let inputs = damaged(&frame, flip)
            .into_iter()
            .chain(damaged(&body, flip).into_iter().map(|b| framed(&b)))
            .chain([framed(&padded), framed(&noise), noise.clone()]);
        for buf in inputs {
            assert_scan_agrees_with_read(&buf);
        }
    }

    /// Append records across several cohorts with random sync points, then
    /// crash: exactly the records appended before the last sync survive,
    /// per cohort, in LSN order.
    #[test]
    fn replay_equals_synced_prefix(
        script in proptest::collection::vec((0u32..3, any::<bool>()), 1..80),
        segment_bytes in 128u64..4096,
    ) {
        let vfs = MemVfs::new();
        let mut wal = Wal::open(
            Arc::new(vfs.clone()),
            WalOptions { dir: "wal".into(), segment_bytes },
        ).unwrap();
        let mut seqs = [0u64; 3];
        let mut synced: [Vec<u64>; 3] = Default::default();
        let mut unsynced: [Vec<u64>; 3] = Default::default();

        for (cohort, sync_after) in &script {
            let c = *cohort as usize;
            seqs[c] += 1;
            wal.append(&LogRecord::write(
                RangeId(*cohort),
                Lsn::new(1, seqs[c]),
                op::put(&format!("k{}", seqs[c]), "c", "v"),
            )).unwrap();
            unsynced[c].push(seqs[c]);
            if *sync_after {
                wal.sync().unwrap();
                for i in 0..3 {
                    let moved = std::mem::take(&mut unsynced[i]);
                    synced[i].extend(moved);
                }
            }
        }

        // Segment rollover syncs the sealed segment: records in sealed
        // segments are durable even without an explicit sync. To keep the
        // model simple we only assert (a) the synced prefix survives and
        // (b) nothing *beyond* what was appended appears, and (c) survivors
        // are a prefix in LSN order.
        let reopened = Wal::open(Arc::new(vfs.crash_clone()), WalOptions {
            dir: "wal".into(), segment_bytes,
        }).unwrap();
        for c in 0..3u32 {
            let got: Vec<u64> = reopened
                .read_range(RangeId(c), Lsn::ZERO, Lsn::MAX)
                .unwrap()
                .into_iter()
                .map(|(l, _)| l.seq())
                .collect();
            let want_min = &synced[c as usize];
            prop_assert!(got.len() >= want_min.len(),
                "cohort {}: lost synced records: got {:?} want at least {:?}", c, got, want_min);
            prop_assert!(got.len() <= seqs[c as usize] as usize,
                "cohort {}: phantom records", c);
            // Survivors are exactly 1..=n for some n (a prefix, in order).
            for (i, seq) in got.iter().enumerate() {
                prop_assert_eq!(*seq, i as u64 + 1, "cohort {} out of order", c);
            }
            let st = reopened.state(RangeId(c));
            prop_assert_eq!(st.last_lsn.seq(), got.len() as u64);
        }
    }

    /// Logical truncation + checkpoints survive crash-restart in any
    /// combination.
    #[test]
    fn truncation_and_checkpoint_compose(
        n in 5u64..40,
        truncate_from in 2u64..40,
        checkpoint_at in 0u64..20,
    ) {
        let vfs = MemVfs::new();
        let mut wal = Wal::open(Arc::new(vfs.clone()), WalOptions::default()).unwrap();
        for i in 1..=n {
            wal.append(&LogRecord::write(RangeId(0), Lsn::new(1, i), op::put("k", "c", "v"))).unwrap();
        }
        wal.sync().unwrap();
        let truncate: Vec<Lsn> = (truncate_from..=n).map(|i| Lsn::new(1, i)).collect();
        wal.truncate_logically(RangeId(0), &truncate).unwrap();
        let cp = checkpoint_at.min(truncate_from.saturating_sub(1));
        if cp > 0 {
            wal.set_checkpoint(RangeId(0), Lsn::new(1, cp)).unwrap();
        }

        let reopened = Wal::open(Arc::new(vfs.crash_clone()), WalOptions::default()).unwrap();
        let survivors: Vec<u64> = reopened
            .read_range(RangeId(0), Lsn::new(1, cp), Lsn::MAX)
            .unwrap()
            .into_iter()
            .map(|(l, _)| l.seq())
            .collect();
        let expected: Vec<u64> = (cp + 1..truncate_from.min(n + 1)).collect();
        prop_assert_eq!(survivors, expected);
    }
}
