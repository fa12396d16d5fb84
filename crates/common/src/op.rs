//! Write operations — the replicated unit of work.
//!
//! Every API call that modifies data (§3: `put`, `delete`, `conditionalPut`,
//! `conditionalDelete`, and their multi-column variants) is reduced by the
//! cohort leader to a [`WriteOp`]: one or more cell mutations on a single
//! row. The *condition* of a conditional call is evaluated at the leader
//! before logging, so the logged operation is always unconditional — this is
//! what guarantees "a conditional put has the same outcome on each node of
//! the cohort because writes are executed in LSN order" (§5.1).

use bytes::Bytes;

use crate::api::RequestId;
use crate::codec::{self, Decode, Encode, Source};
use crate::error::{Error, Result};
use crate::lsn::Lsn;
use crate::types::{ColumnName, ColumnValue, Key, Row, Timestamp, Value};

/// One cell mutation within a row.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CellOp {
    /// Set `col` to `value`.
    Put {
        /// Column to write.
        col: ColumnName,
        /// New value.
        value: Value,
    },
    /// Delete `col` (writes a tombstone).
    Delete {
        /// Column to delete.
        col: ColumnName,
    },
}

impl CellOp {
    /// The column this op touches.
    pub fn column(&self) -> &ColumnName {
        match self {
            CellOp::Put { col, .. } | CellOp::Delete { col } => col,
        }
    }

    /// Approximate payload size, used for log-volume accounting.
    pub fn approx_size(&self) -> usize {
        match self {
            CellOp::Put { col, value } => col.len() + value.len(),
            CellOp::Delete { col } => col.len(),
        }
    }
}

/// A single-row write: the unit proposed through the replication protocol
/// and recorded in the WAL.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WriteOp {
    /// Row being modified.
    pub key: Key,
    /// Cell mutations (one for `put`/`delete`, several for the
    /// multi-column API variants). Never empty.
    pub cells: Vec<CellOp>,
    /// Timestamp assigned when the write was accepted.
    pub timestamp: Timestamp,
    /// The client waiting on the write — its address and request id —
    /// set by the leader that accepted it. It travels with the op in the
    /// group propose, so a follower that takes over knows whom to answer
    /// when it commits the tail. In memory only: it is not encoded, and
    /// a decoded op has none.
    pub origin: Option<(u32, RequestId)>,
}

impl WriteOp {
    /// Single-column put.
    pub fn put(
        key: Key,
        col: impl Into<ColumnName>,
        value: impl Into<Value>,
        ts: Timestamp,
    ) -> WriteOp {
        WriteOp {
            key,
            cells: vec![CellOp::Put { col: col.into(), value: value.into() }],
            timestamp: ts,
            origin: None,
        }
    }

    /// Single-column delete.
    pub fn delete(key: Key, col: impl Into<ColumnName>, ts: Timestamp) -> WriteOp {
        WriteOp {
            key,
            cells: vec![CellOp::Delete { col: col.into() }],
            timestamp: ts,
            origin: None,
        }
    }

    /// Apply this write to `row` as of `lsn`. Deterministic and idempotent:
    /// versions derive from `lsn`, so re-application during log replay
    /// reproduces identical state on every replica. A strictly newer
    /// version pushes the column's previous state onto its MVCC chain
    /// (retained until compaction prunes it below the snapshot floor).
    /// Returns by how much [`Row::approx_size`] grew (zero on replay).
    pub fn apply_to_row(&self, row: &mut Row, lsn: Lsn) -> usize {
        let mut added = 0;
        for cell in &self.cells {
            let (col, cv) = match cell {
                CellOp::Put { col, value } => {
                    (col, ColumnValue::live(value.clone(), lsn, self.timestamp))
                }
                CellOp::Delete { col } => (col, ColumnValue::deleted(lsn, self.timestamp)),
            };
            added += row.apply_version(col.clone(), cv);
        }
        added
    }

    /// Approximate size for log-volume accounting.
    pub fn approx_size(&self) -> usize {
        self.key.len() + 8 + self.cells.iter().map(CellOp::approx_size).sum::<usize>()
    }
}

impl Encode for CellOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            CellOp::Put { col, value } => {
                codec::put_u8(buf, 0);
                codec::put_bytes(buf, col);
                codec::put_bytes(buf, value);
            }
            CellOp::Delete { col } => {
                codec::put_u8(buf, 1);
                codec::put_bytes(buf, col);
            }
        }
    }
}

/// One cell's column name and, for a put, its value, both still borrowed:
/// the single parse [`CellOp::decode_from`] and [`WriteOp::skip`] run, so
/// the two accept and reject exactly the same bytes.
fn get_cell_parts<'a>(buf: &mut &'a [u8]) -> Result<(&'a [u8], Option<&'a [u8]>)> {
    match codec::get_u8(buf)? {
        0 => Ok((codec::get_byte_slice(buf)?, Some(codec::get_byte_slice(buf)?))),
        1 => Ok((codec::get_byte_slice(buf)?, None)),
        tag => Err(Error::Codec(format!("bad CellOp tag {tag}"))),
    }
}

impl Decode for CellOp {
    fn decode_from(buf: &mut Source<'_>) -> Result<CellOp> {
        let (col, value) = get_cell_parts(buf)?;
        let col = buf.keep(col);
        Ok(match value {
            Some(value) => CellOp::Put { col, value: buf.keep(value) },
            None => CellOp::Delete { col },
        })
    }
}

impl Encode for WriteOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.key.encode(buf);
        codec::put_u64(buf, self.timestamp);
        codec::put_varint(buf, self.cells.len() as u64);
        for cell in &self.cells {
            cell.encode(buf);
        }
    }
}

/// An op's key, timestamp and cell count, the key still borrowed: the
/// single parse [`WriteOp::decode_from`] and [`WriteOp::skip`] run.
fn get_op_head<'a>(buf: &mut &'a [u8]) -> Result<(&'a [u8], Timestamp, usize)> {
    let key = codec::get_byte_slice(buf)?;
    let timestamp = codec::get_u64(buf)?;
    // A cell is at least 2 bytes: its tag and its column name's length.
    let n = codec::get_varint_len(buf, "WriteOp cell", 2)?;
    if n == 0 {
        return Err(Error::Codec("WriteOp with zero cells".into()));
    }
    Ok((key, timestamp, n))
}

impl Decode for WriteOp {
    fn decode_from(buf: &mut Source<'_>) -> Result<WriteOp> {
        let (key, timestamp, n) = get_op_head(buf)?;
        let key = Key(buf.keep(key));
        let mut cells = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            cells.push(CellOp::decode_from(buf)?);
        }
        Ok(WriteOp { key, timestamp, cells, origin: None })
    }
}

impl WriteOp {
    /// Advance `buf` past one encoded op without allocating — what the
    /// log's recovery scan walks a frame's ops with, the way
    /// [`codec::skip_row`] walks a block's rows. Succeeds on, and
    /// consumes, exactly the bytes [`WriteOp::decode`] does.
    pub fn skip(buf: &mut &[u8]) -> Result<()> {
        let (_, _, n) = get_op_head(buf)?;
        for _ in 0..n {
            get_cell_parts(buf)?;
        }
        Ok(())
    }
}

/// Convenience constructor for tests and examples.
pub fn put(key: &str, col: &str, value: &str) -> WriteOp {
    WriteOp::put(
        Key::from(key),
        Bytes::copy_from_slice(col.as_bytes()),
        Bytes::copy_from_slice(value.as_bytes()),
        0,
    )
}

/// Convenience delete constructor for tests and examples.
pub fn delete(key: &str, col: &str) -> WriteOp {
    WriteOp::delete(Key::from(key), Bytes::copy_from_slice(col.as_bytes()), 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multi_cell() {
        let op = WriteOp {
            key: Key::from("row1"),
            cells: vec![
                CellOp::Put { col: Bytes::from_static(b"a"), value: Bytes::from_static(b"1") },
                CellOp::Delete { col: Bytes::from_static(b"b") },
            ],
            timestamp: 77,
            origin: None,
        };
        let enc = op.encode_to_vec();
        assert_eq!(WriteOp::decode(&mut enc.as_slice()).unwrap(), op);
        // The waiting client is not part of the encoding.
        let waited = WriteOp { origin: Some((3, 9)), ..op.clone() };
        assert_eq!(waited.encode_to_vec(), enc);
    }

    #[test]
    fn skip_consumes_and_refuses_what_decode_does() {
        let op = WriteOp {
            key: Key::from("row1"),
            cells: vec![
                CellOp::Put { col: Bytes::from_static(b"a"), value: Bytes::from_static(b"1") },
                CellOp::Delete { col: Bytes::from_static(b"b") },
            ],
            timestamp: 77,
            origin: None,
        };
        let mut enc = op.encode_to_vec();
        enc.push(0xee);
        let mut bad_tag = enc.clone();
        bad_tag[1 + 4 + 8 + 1] = 7; // the first cell's tag, after key, timestamp and count
        assert!(
            WriteOp::skip(&mut bad_tag.as_slice()).is_err_and(|e| e.to_string().contains("tag"))
        );
        let inputs = (0..=enc.len()).map(|cut| enc[..cut].to_vec()).chain([bad_tag]);
        for input in inputs {
            let (mut d, mut s) = (input.as_slice(), input.as_slice());
            match (WriteOp::decode(&mut d), WriteOp::skip(&mut s)) {
                (Ok(_), Ok(())) => assert_eq!(d.len(), s.len(), "{input:?}"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("{input:?}: decode {a:?}, skip {b:?}"),
            }
        }
    }

    #[test]
    fn zero_cells_rejected() {
        let op = WriteOp { key: Key::from("k"), cells: vec![], timestamp: 0, origin: None };
        let enc = op.encode_to_vec();
        assert!(WriteOp::decode(&mut enc.as_slice()).is_err());
    }

    #[test]
    fn apply_is_idempotent() {
        let op = put("k", "c", "v");
        let lsn = Lsn::new(1, 7);
        let mut row = Row::new();
        op.apply_to_row(&mut row, lsn);
        let once = row.clone();
        op.apply_to_row(&mut row, lsn);
        assert_eq!(row, once, "re-applying the same record must be a no-op");
        assert_eq!(row.get(b"c").unwrap().version, lsn.as_u64());
    }

    #[test]
    fn apply_delete_writes_tombstone() {
        let mut row = Row::new();
        put("k", "c", "v").apply_to_row(&mut row, Lsn::new(1, 1));
        WriteOp::delete(Key::from("k"), Bytes::from_static(b"c"), 9)
            .apply_to_row(&mut row, Lsn::new(1, 2));
        assert!(row.get_live(b"c").is_none());
        assert!(row.get(b"c").unwrap().tombstone);
        assert_eq!(row.get(b"c").unwrap().version, Lsn::new(1, 2).as_u64());
    }
}
