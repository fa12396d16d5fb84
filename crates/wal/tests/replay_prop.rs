//! Property tests: WAL replay after a crash reproduces exactly the synced
//! prefix, regardless of where the crash falls.

use std::sync::Arc;

use proptest::prelude::*;

use spinnaker_common::codec::Encode;
use spinnaker_common::vfs::MemVfs;
use spinnaker_common::{op, Lsn, RangeId};
use spinnaker_wal::{LogRecord, Wal, WalOptions};

#[path = "../../common/tests/support/decode_equiv.rs"]
mod decode_equiv;
use decode_equiv::{assert_decodes_alike, assert_decodes_alike_when_damaged};

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
