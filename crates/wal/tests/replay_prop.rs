//! Property tests: WAL replay after a crash reproduces exactly the synced
//! prefix, regardless of where the crash falls.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;

use bytes::Bytes;

use spinnaker_common::codec::{Encode, Source};
use spinnaker_common::vfs::{MemVfs, Vfs};
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

/// The log's index kept the plain way, one entry per LSN: what
/// [`Wal`] must agree with whatever runs its index keeps.
#[derive(Default)]
struct Model {
    /// Every record appended: its segment, first LSN, op count and
    /// append number.
    records: Vec<(u64, Lsn, u64, u64)>,
    skipped: BTreeSet<Lsn>,
    checkpoint: Lsn,
    /// Each replayable LSN's segment and the append that logged it last.
    index: BTreeMap<Lsn, (u64, u64)>,
    /// Index entries per segment.
    refs: BTreeMap<u64, usize>,
    /// The segments LSNs logged again left since the last force: each
    /// keeps its reference until then.
    moved: Vec<u64>,
    sealed: BTreeSet<u64>,
    current: u64,
}

impl Model {
    fn new() -> Model {
        Model { current: 1, ..Model::default() }
    }

    /// Index a record; `durable` when it is read back from disk.
    fn index(&mut self, (segment, first, ops, append): (u64, Lsn, u64, u64), durable: bool) {
        for seq in first.seq()..first.seq() + ops {
            let lsn = Lsn::new(first.epoch(), seq);
            if !self.skipped.contains(&lsn) && lsn > self.checkpoint {
                // An LSN logged again moves to the new frame, and the
                // old one's segment loses its reference once the new
                // frame is durable.
                if let Some((old, _)) = self.index.insert(lsn, (segment, append)) {
                    if durable {
                        self.release(old);
                    } else {
                        self.moved.push(old);
                    }
                }
                *self.refs.entry(segment).or_default() += 1;
            }
        }
    }

    fn release(&mut self, segment: u64) {
        *self.refs.get_mut(&segment).unwrap() -= 1;
    }

    fn forget(&mut self, lsn: Lsn) {
        if let Some((segment, _)) = self.index.remove(&lsn) {
            self.release(segment);
        }
    }

    /// Everything appended is forced.
    fn sync(&mut self) {
        for segment in std::mem::take(&mut self.moved) {
            self.release(segment);
        }
    }

    /// Sealed segments no index entry points into are deleted.
    fn collect(&mut self) {
        self.sealed.retain(|s| self.refs.get(s).is_some_and(|&n| n > 0));
    }

    fn append(&mut self, record: (u64, Lsn, u64, u64)) {
        if record.0 != self.current {
            // The append rolled the segment, forcing it and collecting
            // before it indexed.
            self.sync();
            self.sealed.insert(self.current);
            self.current = record.0;
            self.collect();
        }
        self.records.push(record);
        self.index(record, false);
    }

    fn truncate(&mut self, lsn: Lsn) {
        self.skipped.insert(lsn);
        self.forget(lsn);
    }

    fn set_checkpoint(&mut self, lsn: Lsn) {
        self.checkpoint = self.checkpoint.max(lsn);
        let cp = self.checkpoint;
        self.skipped.retain(|&l| l > cp);
        let flushed: Vec<Lsn> = self.index.range(..=cp).map(|(&l, _)| l).collect();
        for lsn in flushed {
            self.forget(lsn);
        }
        self.collect();
    }

    /// The recovery scan: every surviving record again, in log order.
    fn reopen(&mut self) {
        self.sealed.insert(self.current);
        self.current += 1;
        (self.index, self.refs) = Default::default();
        let survivors: Vec<_> =
            self.records.iter().filter(|r| self.sealed.contains(&r.0)).copied().collect();
        for record in survivors {
            self.index(record, true);
        }
    }

    fn check(&self, wal: &Wal, vfs: &MemVfs) {
        let r = RangeId(0);
        let cp = self.checkpoint;
        let lsns: Vec<Lsn> = self.index.keys().copied().collect();
        // Everything above the checkpoint, and two spans that may begin
        // and end inside frames.
        let third = |i: usize| lsns.get(i * lsns.len() / 3).copied().unwrap_or(Lsn::MAX);
        for (from, to) in [(cp, Lsn::MAX), (third(1), third(2)), (third(2), Lsn::MAX)] {
            let span = (Bound::Excluded(from), Bound::Included(to));
            let want: Vec<(Lsn, u64)> =
                self.index.range(span).map(|(&l, &(_, a))| (l, a)).collect();
            let indexed: Vec<Lsn> = wal.indexed_lsns(r, from, to).unwrap().collect();
            assert_eq!(
                indexed,
                want.iter().map(|w| w.0).collect::<Vec<_>>(),
                "indexed ({from}, {to}]"
            );
            let mut replayed = Vec::new();
            wal.replay(r, from, to, |lsn, op| {
                assert_eq!(op.key.as_bytes(), format!("k{}", lsn.as_u64()).as_bytes());
                let CellOp::Put { value, .. } = &op.cells[0] else { panic!("a put was logged") };
                replayed.push((lsn, std::str::from_utf8(value).unwrap().parse::<u64>().unwrap()));
            })
            .unwrap();
            assert_eq!(replayed, want, "each LSN replays from the frame that logged it last");
        }
        assert_eq!(wal.indexed_records(r), self.index.len());
        let last = self.index.keys().next_back().copied().unwrap_or(Lsn::ZERO).max(cp);
        assert_eq!(wal.state(r).last_lsn, last);
        assert_eq!(wal.skipped_lsns(r), self.skipped.iter().copied().collect::<Vec<_>>());
        let segments: BTreeSet<u64> = vfs
            .list("wal/seg-")
            .unwrap()
            .iter()
            .map(|p| p["wal/seg-".len()..p.len() - ".log".len()].parse().unwrap())
            .collect();
        let live: BTreeSet<u64> = self.sealed.iter().copied().chain([self.current]).collect();
        assert_eq!(segments, live, "segments on disk");
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

    /// The index against a per-LSN model, step by step: batches of one
    /// to eight ops, some logging earlier LSNs again (a follower re-logs
    /// a takeover's re-proposal) or after a new epoch began, logical
    /// truncation and checkpoints at LSNs inside frames, forces, and
    /// reopens.
    /// After every step the indexed LSNs, what replay reads for each,
    /// the count of indexed writes, the log tip, the skipped list and
    /// the segments on disk are the model's.
    #[test]
    fn the_index_agrees_with_a_per_lsn_model(
        script in proptest::collection::vec((0u8..17, 1u64..=8, any::<u16>()), 1..60),
        segment_bytes in 256u64..2048,
    ) {
        let opts = || WalOptions { dir: "wal".into(), segment_bytes };
        let mut vfs = MemVfs::new();
        let mut wal = Wal::open(Arc::new(vfs.clone()), opts()).unwrap();
        let mut model = Model::new();
        let (mut epoch, mut next) = (1u16, 1u64);
        for (append, &(kind, ops, pick)) in script.iter().enumerate() {
            let append = append as u64;
            let pick = u64::from(pick);
            let logged: Vec<Lsn> = model.records.iter().flat_map(|&(_, first, n, _)| {
                (0..n).map(move |i| Lsn::new(first.epoch(), first.seq() + i))
            }).collect();
            let chosen = (!logged.is_empty()).then(|| logged[pick as usize % logged.len()]);
            let (first, ops) = match kind {
                // Log part of an earlier frame again.
                8 | 9 if !model.records.is_empty() => {
                    let (_, first, n, _) = model.records[pick as usize % model.records.len()];
                    let skip = pick % n;
                    (Lsn::new(first.epoch(), first.seq() + skip), ops.min(n - skip))
                }
                10 => {
                    epoch += 1;
                    (Lsn::new(epoch, next), ops)
                }
                11 | 12 if chosen.is_some() => {
                    let lsn = chosen.unwrap();
                    wal.truncate_logically(RangeId(0), &[lsn]).unwrap();
                    model.truncate(lsn);
                    model.check(&wal, &vfs);
                    continue;
                }
                13 | 14 if chosen.is_some() => {
                    let lsn = chosen.unwrap();
                    wal.set_checkpoint(RangeId(0), lsn).unwrap();
                    model.set_checkpoint(lsn);
                    model.check(&wal, &vfs);
                    continue;
                }
                15 => {
                    wal.sync().unwrap();
                    model.sync();
                    drop(wal);
                    vfs = vfs.crash_clone();
                    wal = Wal::open(Arc::new(vfs.clone()), opts()).unwrap();
                    model.reopen();
                    model.check(&wal, &vfs);
                    continue;
                }
                16 => {
                    wal.sync().unwrap();
                    model.sync();
                    model.check(&wal, &vfs);
                    continue;
                }
                _ => (Lsn::new(epoch, next), ops),
            };
            next = next.max(first.seq() + ops);
            let batch: Vec<WriteOp> = (0..ops)
                .map(|i| {
                    let lsn = Lsn::new(first.epoch(), first.seq() + i);
                    op::put(&format!("k{}", lsn.as_u64()), "c", &append.to_string())
                })
                .collect();
            let segment = wal.append(&LogRecord::batch(RangeId(0), first, batch)).unwrap();
            model.append((segment, first, ops, append));
            model.check(&wal, &vfs);
        }
    }
}
