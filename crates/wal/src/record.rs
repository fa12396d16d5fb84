//! Log record types and on-disk framing.
//!
//! Each frame on disk is `[u32 len][u32 masked-crc32c][body]` (little
//! endian); the body encodes the record. Torn tails (partial frames after a
//! crash) are detected by length/CRC validation during the recovery scan.
//!
//! A record does not own the writes it carries: they are one immutable
//! `Arc<[WriteOp]>`, the same allocation the leader's propose messages
//! and the followers' commit queues hold, so logging a group propose
//! copies no op. A frame is built where it will be written from:
//! [`encode_frame_into`] reserves the header in the caller's buffer,
//! encodes the body behind it, and patches length and checksum in — the
//! log appends from one buffer it reuses, and [`encode_frame`] is the
//! same encoder over a fresh one.
//!
//! Reading back has two depths. [`read_frame`] decodes the record, for
//! replay. [`scan_frame`] checks the same length and checksum and
//! validates the same body, but keeps only its [`RecordHeader`] —
//! cohort, LSN and op count — walking the ops where they lie: the
//! recovery scan indexes a log with it and allocates nothing per frame.

use std::sync::Arc;

use spinnaker_common::codec::{self, Decode, Encode, Source};
use spinnaker_common::{crc32c, Error, Lsn, RangeId, Result, WriteOp};

/// Upper bound on a sane record body; larger lengths are treated as
/// corruption during scans.
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

/// Frame header size: length + checksum.
pub const FRAME_HEADER: usize = 8;

/// What a log record carries.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Payload {
    /// One or more replicated writes, forced to disk before
    /// acknowledgement. Never empty. The record's LSN is the *first*
    /// op's; op `i` carries LSN `lsn + i`. Several ops are a **group
    /// propose**: one record, one consensus round, and the frame
    /// checksum makes the batch all-or-nothing across crashes — a torn
    /// tail drops every op or none. The index decomposes a batch back
    /// into per-LSN entries, so replay, catch-up, truncation and
    /// checkpointing all keep operating on individual `(Lsn, WriteOp)`
    /// pairs. On disk a single op is a plain write record (tag 0) and
    /// only two or more are a batch (tag 2).
    Writes(Arc<[WriteOp]>),
    /// "Writes up to the record's LSN are committed" — the non-forced note
    /// the leader and followers log when processing a commit message (§5).
    CommitNote,
}

/// One record in the shared log.
///
/// The log is shared by all cohorts on a node (§4.1): every record is
/// tagged with its cohort, and LSNs are per-cohort logical sequences.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogRecord {
    /// Cohort (key range) the record belongs to.
    pub cohort: RangeId,
    /// Per-cohort logical LSN. For [`Payload::CommitNote`] this is the
    /// last-committed LSN being noted, not a fresh sequence number.
    pub lsn: Lsn,
    /// Record payload.
    pub payload: Payload,
}

impl LogRecord {
    /// A record of one write.
    pub fn write(cohort: RangeId, lsn: Lsn, op: WriteOp) -> LogRecord {
        LogRecord::batch(cohort, lsn, [op])
    }

    /// A record of the writes `ops`: `ops[i]` carries LSN `first + i`.
    /// Takes the shared batch as it is (an `Arc<[WriteOp]>` is not
    /// copied) or anything that converts into one.
    ///
    /// # Panics
    /// On an empty batch.
    pub fn batch(cohort: RangeId, first: Lsn, ops: impl Into<Arc<[WriteOp]>>) -> LogRecord {
        let ops = ops.into();
        assert!(!ops.is_empty(), "empty batch record");
        LogRecord { cohort, lsn: first, payload: Payload::Writes(ops) }
    }

    /// A commit-note record.
    pub fn commit_note(cohort: RangeId, committed: Lsn) -> LogRecord {
        LogRecord { cohort, lsn: committed, payload: Payload::CommitNote }
    }

    /// The writes this record carries (none for commit notes).
    pub fn ops(&self) -> &[WriteOp] {
        match &self.payload {
            Payload::Writes(ops) => ops,
            Payload::CommitNote => &[],
        }
    }

    /// True for records carrying writes (single or batched).
    pub fn is_write(&self) -> bool {
        matches!(self.payload, Payload::Writes(_))
    }

    /// How many writes this record carries (0 for commit notes).
    pub fn write_count(&self) -> u64 {
        self.ops().len() as u64
    }

    /// The fields the log indexes the record by.
    pub fn header(&self) -> RecordHeader {
        RecordHeader { cohort: self.cohort, lsn: self.lsn, ops: self.ops().len() }
    }

    /// The LSN of this record's last write (`lsn` itself for singles and
    /// commit notes).
    pub fn last_lsn(&self) -> Lsn {
        let extra = self.write_count().saturating_sub(1);
        Lsn::new(self.lsn.epoch(), self.lsn.seq() + extra)
    }
}

impl Encode for LogRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_varint(buf, self.cohort.0 as u64);
        self.lsn.encode(buf);
        match &self.payload {
            Payload::Writes(ops) => match &ops[..] {
                [op] => {
                    codec::put_u8(buf, 0);
                    op.encode(buf);
                }
                ops => {
                    codec::put_u8(buf, 2);
                    codec::put_varint(buf, ops.len() as u64);
                    for op in ops {
                        op.encode(buf);
                    }
                }
            },
            Payload::CommitNote => codec::put_u8(buf, 1),
        }
    }
}

/// What a record is indexed by: everything in front of its ops.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecordHeader {
    /// Cohort the record belongs to.
    pub cohort: RangeId,
    /// The record's LSN: its first write's, or the one a commit note notes.
    pub lsn: Lsn,
    /// Writes the record carries: 0 for a commit note.
    pub ops: usize,
}

/// Read a record's header — cohort, LSN, tag and, for a batch, its op
/// count — the one way [`LogRecord::decode_from`] and [`scan_frame`]
/// both read it, so the two refuse the same bodies with the same errors.
fn get_header(buf: &mut &[u8]) -> Result<RecordHeader> {
    let cohort = RangeId(codec::get_varint_u32(buf)?);
    let lsn = Lsn::from_u64(codec::get_u64(buf)?);
    let ops = match codec::get_u8(buf)? {
        0 => 1,
        1 => 0,
        2 => {
            // A WriteOp is at least a tag byte plus a 1-byte key.
            let n = codec::get_varint_len(buf, "batch ops", 2)?;
            if n < 2 {
                return Err(Error::Codec(format!("batch record with {n} ops")));
            }
            n
        }
        tag => return Err(Error::Codec(format!("bad LogRecord tag {tag}"))),
    };
    Ok(RecordHeader { cohort, lsn, ops })
}

impl Decode for LogRecord {
    fn decode_from(buf: &mut Source<'_>) -> Result<LogRecord> {
        let RecordHeader { cohort, lsn, ops } = get_header(buf)?;
        let payload = match ops {
            0 => Payload::CommitNote,
            1 => Payload::Writes(Arc::from([WriteOp::decode_from(buf)?])),
            n => {
                let mut ops = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ops.push(WriteOp::decode_from(buf)?);
                }
                Payload::Writes(ops.into())
            }
        };
        Ok(LogRecord { cohort, lsn, payload })
    }
}

/// Append `record`'s complete frame (header + body) to `buf`, encoding
/// the body in place: the header is reserved, the record encoded behind
/// it, and length and checksum patched in — no intermediate body buffer.
/// On error `buf` is left as it was.
///
/// A body longer than [`MAX_RECORD_BYTES`] is a codec error: the
/// recovery scan treats such lengths as corruption, so writing one
/// would make the record unreadable.
pub fn encode_frame_into(record: &LogRecord, buf: &mut Vec<u8>) -> Result<()> {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    record.encode(buf);
    let body = &buf[start + FRAME_HEADER..];
    let Some(len) = u32::try_from(body.len()).ok().filter(|l| *l <= MAX_RECORD_BYTES) else {
        let len = body.len();
        buf.truncate(start);
        return Err(Error::Codec(format!("record body of {len} bytes exceeds MAX_RECORD_BYTES")));
    };
    let crc = crc32c::masked(crc32c::crc32c(body));
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Encode a record as a complete frame (header + body) in a buffer of
/// its own. See [`encode_frame_into`].
pub fn encode_frame(record: &LogRecord) -> Result<Vec<u8>> {
    let mut frame = Vec::new();
    encode_frame_into(record, &mut frame)?;
    Ok(frame)
}

/// Outcome of attempting to read one frame from a buffer position.
#[derive(Debug)]
pub enum FrameRead<R = LogRecord> {
    /// A valid frame: what was read of it (the record, or its header)
    /// and the total bytes consumed.
    Record(R, usize),
    /// The buffer ends before a complete, valid frame: a torn tail if this
    /// is the end of the newest segment, corruption otherwise.
    Torn(&'static str),
}

impl<R> FrameRead<R> {
    /// Read a valid frame's contents with `f`; a torn frame stays torn.
    fn and_then<T>(self, f: impl FnOnce(R) -> Result<T>) -> Result<FrameRead<T>> {
        Ok(match self {
            FrameRead::Record(r, n) => FrameRead::Record(f(r)?, n),
            FrameRead::Torn(why) => FrameRead::Torn(why),
        })
    }
}

/// Check the frame at the front of `src` — a plausible length, the whole
/// body present, a matching checksum — and cut its body off.
fn checked_body(mut src: Source<'_>) -> Result<FrameRead<Source<'_>>> {
    if src.len() < FRAME_HEADER {
        return Ok(FrameRead::Torn("short header"));
    }
    let len32 = codec::get_u32(&mut src)?;
    let stored_crc = codec::get_u32(&mut src)?;
    if len32 > MAX_RECORD_BYTES {
        return Ok(FrameRead::Torn("implausible length"));
    }
    let len = usize::try_from(len32)
        .map_err(|_| Error::Codec(format!("frame length {len32} overflows usize")))?;
    let Some(body) = src.take(len) else {
        return Ok(FrameRead::Torn("short body"));
    };
    if crc32c::masked(crc32c::crc32c(body.rest())) != stored_crc {
        return Ok(FrameRead::Torn("checksum mismatch"));
    }
    Ok(FrameRead::Record(body, FRAME_HEADER + len))
}

fn no_trailing_bytes(body: &[u8]) -> Result<()> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(Error::Codec("trailing bytes in record body".into()))
    }
}

/// Try to decode one frame from the front of `src`. Over a shared source
/// the record's keys, column names and values are views of the buffer
/// the frame was read into.
pub fn read_frame(src: Source<'_>) -> Result<FrameRead> {
    checked_body(src)?.and_then(|mut body| {
        let record = LogRecord::decode_from(&mut body)?;
        no_trailing_bytes(&body)?;
        Ok(record)
    })
}

/// [`read_frame`] that keeps only the record's header: the same checks,
/// and the ops walked over with [`WriteOp::skip`] instead of decoded. It
/// succeeds, fails and calls a frame torn exactly where `read_frame`
/// does, and allocates nothing.
pub fn scan_frame(buf: &[u8]) -> Result<FrameRead<RecordHeader>> {
    checked_body(Source::copying(buf))?.and_then(|body| {
        let mut rest = body.rest();
        let header = get_header(&mut rest)?;
        for _ in 0..header.ops {
            WriteOp::skip(&mut rest)?;
        }
        no_trailing_bytes(rest)?;
        Ok(header)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinnaker_common::op;

    fn sample() -> LogRecord {
        LogRecord::write(RangeId(2), Lsn::new(1, 9), op::put("key", "col", "value"))
    }

    #[test]
    fn frame_roundtrip() {
        let rec = sample();
        let frame = encode_frame(&rec).unwrap();
        match read_frame(Source::copying(&frame)).unwrap() {
            FrameRead::Record(r, n) => {
                assert_eq!(r, rec);
                assert_eq!(n, frame.len());
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn commit_note_roundtrip() {
        let rec = LogRecord::commit_note(RangeId(1), Lsn::new(3, 44));
        let frame = encode_frame(&rec).unwrap();
        match read_frame(Source::copying(&frame)).unwrap() {
            FrameRead::Record(r, _) => {
                assert_eq!(r, rec);
                assert!(!r.is_write());
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_torn_not_errors() {
        let frame = encode_frame(&sample()).unwrap();
        for cut in 0..frame.len() {
            match read_frame(Source::copying(&frame[..cut])).unwrap() {
                FrameRead::Torn(_) => {}
                FrameRead::Record(..) => panic!("cut at {cut} decoded a record"),
            }
        }
    }

    #[test]
    fn corrupted_body_is_torn() {
        let mut frame = encode_frame(&sample()).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        assert!(matches!(
            read_frame(Source::copying(&frame)).unwrap(),
            FrameRead::Torn("checksum mismatch")
        ));
    }

    #[test]
    fn implausible_length_is_torn() {
        let mut frame = encode_frame(&sample()).unwrap();
        frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(Source::copying(&frame)).unwrap(),
            FrameRead::Torn("implausible length")
        ));
    }

    #[test]
    fn batch_roundtrip_and_lsn_span() {
        let ops = vec![op::put("a", "c", "1"), op::put("b", "c", "2"), op::put("d", "c", "3")];
        let rec = LogRecord::batch(RangeId(4), Lsn::new(2, 10), ops);
        assert!(rec.is_write());
        assert_eq!(rec.write_count(), 3);
        assert_eq!(rec.last_lsn(), Lsn::new(2, 12));
        let frame = encode_frame(&rec).unwrap();
        match read_frame(Source::copying(&frame)).unwrap() {
            FrameRead::Record(r, n) => {
                assert_eq!(r, rec);
                assert_eq!(n, frame.len());
            }
            other => panic!("expected record, got {other:?}"),
        }
        // Torn anywhere = the whole batch is gone, never a prefix.
        for cut in 0..frame.len() {
            assert!(matches!(
                read_frame(Source::copying(&frame[..cut])).unwrap(),
                FrameRead::Torn(_)
            ));
        }
    }

    #[test]
    fn singleton_batch_collapses_to_write() {
        let rec = LogRecord::batch(RangeId(1), Lsn::new(1, 5), vec![op::put("k", "c", "v")]);
        let write = LogRecord::write(RangeId(1), Lsn::new(1, 5), op::put("k", "c", "v"));
        assert_eq!(rec, write);
        assert_eq!(rec.last_lsn(), Lsn::new(1, 5));
        // On disk it is a plain write record: tag 0 right after the
        // 1-byte cohort and the 8-byte LSN.
        let frame = encode_frame(&rec).unwrap();
        assert_eq!(frame[FRAME_HEADER + 9], 0);
        assert_eq!(frame, encode_frame(&write).unwrap());
    }

    #[test]
    fn frames_encode_in_place_behind_what_the_buffer_holds() {
        let records = [
            sample(),
            LogRecord::commit_note(RangeId(1), Lsn::new(3, 44)),
            LogRecord::batch(RangeId(4), Lsn::new(2, 10), vec![op::put("a", "c", "1"); 3]),
        ];
        let mut buf = b"already here".to_vec();
        let mut want = buf.clone();
        for rec in &records {
            encode_frame_into(rec, &mut buf).unwrap();
            want.extend(encode_frame(rec).unwrap());
        }
        assert_eq!(buf, want);
        let mut cursor = &buf[b"already here".len()..];
        for rec in &records {
            let FrameRead::Record(got, n) = read_frame(Source::copying(cursor)).unwrap() else {
                panic!()
            };
            assert_eq!(got, *rec);
            cursor = &cursor[n..];
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn undersized_batch_rejected_on_decode() {
        // Hand-encode a batch frame claiming one op: decode must reject
        // (a single write travels as a plain write record).
        let mut body = Vec::new();
        codec::put_varint(&mut body, 4); // cohort
        Lsn::new(1, 1).encode(&mut body);
        codec::put_u8(&mut body, 2); // batch tag
        codec::put_varint(&mut body, 1);
        op::put("k", "c", "v").encode(&mut body);
        assert!(LogRecord::decode(&mut body.as_slice()).is_err());
    }

    #[test]
    fn back_to_back_frames_parse() {
        let a = LogRecord::write(RangeId(0), Lsn::new(1, 1), op::put("a", "c", "1"));
        let b = LogRecord::commit_note(RangeId(0), Lsn::new(1, 1));
        let mut buf = encode_frame(&a).unwrap();
        buf.extend(encode_frame(&b).unwrap());
        let FrameRead::Record(first, n) = read_frame(Source::copying(&buf)).unwrap() else {
            panic!()
        };
        assert_eq!(first, a);
        let FrameRead::Record(second, _) = read_frame(Source::copying(&buf[n..])).unwrap() else {
            panic!()
        };
        assert_eq!(second, b);
    }
}
