//! The typed client API surface (§3) and its wire encoding.
//!
//! The paper's data API is `get`, `put`, `delete`, `conditionalPut`, and
//! `conditionalDelete`, each on a single row, with reads taking a
//! `consistent` flag (strong vs. timeline). [`ClientOp`] is that surface
//! as one typed enum — plus `Scan`, the multi-row extension that range
//! partitioning makes natural: a replica answers the slice of a scan its
//! range covers and hands back a continuation key, so a client can fan
//! one logical scan across every range it crosses (and transparently
//! resume when a split, merge, or cohort move re-shapes the table
//! mid-flight).
//!
//! Every request travels as a [`ClientRequest`] envelope (request id +
//! the sender's range-table version + the op); every answer is a
//! [`ClientReply`]. Read replies surface per-column state as
//! [`ReadCell`]s, which keep the distinction §5.1's conditional ops need:
//! a column that was **deleted** comes back as a cell with `value: None`
//! and the tombstone's version, while a column that was **never written**
//! is simply absent from the reply.
//!
//! Reads take a [`Consistency`] level. Beyond the paper's strong and
//! timeline modes, [`Consistency::Snapshot`] selects the MVCC
//! read-timestamp path: the reply reflects a fixed commit-timestamp cut
//! of the data, `WriteOk` replies piggyback each write's commit
//! timestamp, and `Rows` replies echo the timestamp a scan page was
//! served at — which is how a paged, multi-range scan pins one
//! consistent cut end to end.

use crate::codec::{self, Decode, Encode, Source};
use crate::error::{Error, Result};
use crate::types::{
    ColumnName, Consistency, Key, NodeId, RangeId, SnapshotTs, Timestamp, Value, Version,
};

/// Client-assigned request identifier, echoed in replies.
pub type RequestId = u64;

/// Which columns of a row a `get` returns.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ColumnSelect {
    /// The whole row.
    All,
    /// A single column.
    One(ColumnName),
    /// An explicit column set.
    Set(Vec<ColumnName>),
}

/// One operation of the §3 client API (plus `Scan`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ClientOp {
    /// `get(key, columns, consistent)`: read one column, a column set,
    /// or the whole row.
    Get {
        /// Target row.
        key: Key,
        /// Columns to return.
        columns: ColumnSelect,
        /// Strong (leader), timeline (any replica), or snapshot (a fixed
        /// commit-timestamp cut).
        consistency: Consistency,
    },
    /// `put(key, cols, values)`: write one or more columns of one row.
    Put {
        /// Target row.
        key: Key,
        /// `(column, value)` pairs; never empty.
        cells: Vec<(ColumnName, Value)>,
    },
    /// `delete(key, cols)`: delete one or more columns of one row
    /// (tombstones).
    Delete {
        /// Target row.
        key: Key,
        /// Columns to delete; never empty.
        columns: Vec<ColumnName>,
    },
    /// `conditionalPut(key, col, value, v)`: write only when `col`'s
    /// current version equals `expected` (§5.1). `expected == 0` means
    /// "the column must never have been written".
    ConditionalPut {
        /// Target row.
        key: Key,
        /// Column to write.
        col: ColumnName,
        /// New value.
        value: Value,
        /// Version the column must currently have.
        expected: Version,
    },
    /// `conditionalDelete(key, col, v)`: delete only when `col`'s
    /// current version equals `expected` (§5.1).
    ConditionalDelete {
        /// Target row.
        key: Key,
        /// Column to delete.
        col: ColumnName,
        /// Version the column must currently have.
        expected: Version,
    },
    /// Range scan: up to `limit` rows of `[start, end)` served from the
    /// contacted replica's range, with a continuation key when the scan
    /// extends past what this replica returned.
    Scan {
        /// First key (inclusive). Doubles as the resume cursor.
        start: Key,
        /// End key (exclusive); `None` scans to the end of the space.
        end: Option<Key>,
        /// Maximum rows per reply (a paging bound, not a total bound).
        limit: u32,
        /// Strong (leader), timeline (any replica), or snapshot (a fixed
        /// commit-timestamp cut).
        consistency: Consistency,
    },
}

impl ClientOp {
    /// The key this op routes by (a scan routes by its cursor).
    pub fn routing_key(&self) -> &Key {
        match self {
            ClientOp::Get { key, .. }
            | ClientOp::Put { key, .. }
            | ClientOp::Delete { key, .. }
            | ClientOp::ConditionalPut { key, .. }
            | ClientOp::ConditionalDelete { key, .. } => key,
            ClientOp::Scan { start, .. } => start,
        }
    }

    /// True for ops that mutate state (and therefore go through the
    /// replication protocol at the leader).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            ClientOp::Put { .. }
                | ClientOp::Delete { .. }
                | ClientOp::ConditionalPut { .. }
                | ClientOp::ConditionalDelete { .. }
        )
    }

    /// Approximate payload size for the network model.
    pub fn approx_size(&self) -> usize {
        match self {
            ClientOp::Get { key, columns, .. } => {
                key.len()
                    + match columns {
                        ColumnSelect::All => 1,
                        ColumnSelect::One(c) => c.len(),
                        ColumnSelect::Set(cs) => cs.iter().map(|c| c.len()).sum(),
                    }
            }
            ClientOp::Put { key, cells } => {
                key.len() + cells.iter().map(|(c, v)| c.len() + v.len()).sum::<usize>()
            }
            ClientOp::Delete { key, columns } => {
                key.len() + columns.iter().map(|c| c.len()).sum::<usize>()
            }
            ClientOp::ConditionalPut { key, col, value, .. } => {
                key.len() + col.len() + value.len() + 8
            }
            ClientOp::ConditionalDelete { key, col, .. } => key.len() + col.len() + 8,
            ClientOp::Scan { start, end, .. } => start.len() + end.as_ref().map_or(0, Key::len) + 8,
        }
    }
}

/// The unified client request envelope.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClientRequest {
    /// Request id for matching the reply.
    pub req: RequestId,
    /// Version of the range table the sender routed with. Nodes holding
    /// a newer table answer [`ClientError::WrongRange`] so the client
    /// refreshes its routing (splits, merges, cohort moves). `0` =
    /// unversioned (bypasses the staleness check; internal helpers and
    /// tests).
    pub ring_version: u64,
    /// The operation.
    pub op: ClientOp,
}

impl ClientRequest {
    /// Approximate wire size for the network model.
    pub fn wire_size(&self) -> usize {
        48 + self.op.approx_size()
    }
}

/// Per-column state surfaced by reads. `value: None` means the column is
/// **deleted**: its tombstone's version is reported so conditional ops
/// can distinguish deleted from never-written (§5.1). Columns that were
/// never written do not appear in replies at all.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReadCell {
    /// Column name.
    pub col: ColumnName,
    /// The value; `None` when the column is deleted (tombstoned).
    pub value: Option<Value>,
    /// Version of the write (or tombstone) that produced this state.
    pub version: Version,
}

impl ReadCell {
    fn approx_size(&self) -> usize {
        self.col.len() + self.value.as_ref().map_or(0, |v| v.len()) + 9
    }
}

/// One row of a scan reply: its live cells in column order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScanRow {
    /// Row key.
    pub key: Key,
    /// Live cells (scans omit tombstones — they enumerate what exists).
    pub cells: Vec<ReadCell>,
}

impl ScanRow {
    fn approx_size(&self) -> usize {
        self.key.len() + self.cells.iter().map(ReadCell::approx_size).sum::<usize>()
    }
}

/// Why a request could not be served as asked: every redirect- or
/// error-shaped outcome a replica can answer with, as one typed enum
/// shared between the wire ([`ClientReply::Err`]) and the session layer
/// (`CallOutcome::Failed`). Whether an error is retryable (routing
/// staleness) or terminal (a failed condition, a pruned snapshot) is a
/// property of the variant, matched in exactly one place per layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClientError {
    /// The contacted node does not lead this key's cohort. Carries the
    /// best known leader, if any. Retryable: re-route.
    NotLeader {
        /// Best known leader, if any.
        hint: Option<NodeId>,
    },
    /// The cohort cannot serve the request right now (election or
    /// recovery in progress, or a follower that cannot yet prove
    /// snapshot coverage). Retryable: back off or try the leader.
    Unavailable,
    /// The sender's routing table is stale (a range was split, merged,
    /// or moved) or the contacted node does not serve the key's range at
    /// all. Retryable: refresh the range table and re-send.
    WrongRange {
        /// The responding node's range-table version (so the client can
        /// tell whether a refresh made progress).
        version: u64,
    },
    /// A [`Consistency::Snapshot`] read asked for a timestamp below the
    /// replica's MVCC garbage-collection floor: versions that old may
    /// already be pruned, so serving would risk a silently corrupted
    /// cut. Terminal — the snapshot outlived its retention window
    /// (`NodeConfig::snapshot_retain`) and is gone for good.
    SnapshotTooOld {
        /// The replica's current floor (the oldest still-servable
        /// timestamp).
        floor: Timestamp,
    },
    /// Conditional put/delete failed the version check (§5.1). Terminal
    /// for the attempt; the caller re-reads and retries at its level.
    VersionMismatch {
        /// The version actually stored (0 = never written; a deleted
        /// column reports its tombstone's version).
        actual: Version,
    },
}

impl ClientError {
    /// True for errors the session retries transparently (routing and
    /// availability); false for terminal outcomes surfaced to the
    /// caller.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClientError::NotLeader { .. }
                | ClientError::Unavailable
                | ClientError::WrongRange { .. }
        )
    }
}

/// Reply to a [`ClientRequest`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ClientReply {
    /// Write committed; the version it produced.
    WriteOk {
        /// Matching request id.
        req: RequestId,
        /// Version assigned to the written cells (packed LSN).
        version: Version,
        /// Commit timestamp the leader stamped on the write — the write
        /// is visible to every snapshot read pinned at or above it.
        ts: Timestamp,
        /// The leader that committed the write: after a takeover, the
        /// successor that answered for its predecessor. Clients route
        /// their next strong op there.
        leader: NodeId,
    },
    /// `Get` result: the selected columns that exist. Deleted columns
    /// appear with `value: None` and the tombstone's version;
    /// never-written columns are absent.
    Row {
        /// Matching request id.
        req: RequestId,
        /// Cell states in column order.
        cells: Vec<ReadCell>,
        /// The read timestamp this row was served at: the echoed (or,
        /// for a pinning get, the just-pinned) snapshot timestamp. `0`
        /// for strong and timeline reads.
        at_ts: Timestamp,
    },
    /// `Scan` result: rows this replica's range covers, plus where to
    /// resume. `resume: Some(k)` means the logical scan continues at `k`
    /// (possibly on another range); `None` means the scan is complete.
    Rows {
        /// Matching request id.
        req: RequestId,
        /// Rows in key order.
        rows: Vec<ScanRow>,
        /// Continuation key, if the scan extends past this reply.
        resume: Option<Key>,
        /// The read timestamp this page was served at. For a
        /// [`Consistency::Snapshot`] scan this echoes the pinned
        /// timestamp — or, when the request asked to pin, the timestamp
        /// the leader just pinned (the client carries it into every
        /// subsequent page). `0` for strong and timeline scans.
        at_ts: Timestamp,
    },
    /// The request could not be served as asked; see [`ClientError`].
    Err {
        /// Matching request id.
        req: RequestId,
        /// What went wrong.
        error: ClientError,
    },
    /// A notice that answers no request: `leader` now leads `range`.
    /// A successor sends one to each client its takeover's tail names,
    /// after the `WriteOk`s of that tail, so a client still waiting on
    /// a write its predecessor never proposed re-sends it at once
    /// instead of waiting out its retry timer.
    Leader {
        /// The range the notice is about.
        range: RangeId,
        /// The node that leads it.
        leader: NodeId,
    },
}

impl ClientReply {
    /// The request id the reply answers; 0 for a [`ClientReply::Leader`]
    /// notice, which answers none (ids start at 1, so 0 is never
    /// pending).
    pub fn req(&self) -> RequestId {
        match self {
            ClientReply::WriteOk { req, .. }
            | ClientReply::Row { req, .. }
            | ClientReply::Rows { req, .. }
            | ClientReply::Err { req, .. } => *req,
            ClientReply::Leader { .. } => 0,
        }
    }

    /// Shorthand for an error reply.
    pub fn err(req: RequestId, error: ClientError) -> ClientReply {
        ClientReply::Err { req, error }
    }

    /// Approximate wire size for the network model: replies carrying
    /// values are charged for them instead of a flat constant.
    pub fn wire_size(&self) -> usize {
        match self {
            ClientReply::Row { cells, .. } => {
                48 + cells.iter().map(ReadCell::approx_size).sum::<usize>()
            }
            ClientReply::Rows { rows, resume, .. } => {
                48 + rows.iter().map(ScanRow::approx_size).sum::<usize>()
                    + resume.as_ref().map_or(0, Key::len)
            }
            ClientReply::WriteOk { .. } | ClientReply::Err { .. } | ClientReply::Leader { .. } => {
                48
            }
        }
    }
}

// ---------------------------------------------------------------- codec

impl Encode for Consistency {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Consistency::Strong => codec::put_u8(buf, 0),
            Consistency::Timeline => codec::put_u8(buf, 1),
            Consistency::Snapshot(SnapshotTs::Pin) => codec::put_u8(buf, 2),
            Consistency::Snapshot(SnapshotTs::At(ts)) => {
                codec::put_u8(buf, 3);
                codec::put_u64(buf, *ts);
            }
        }
    }
}

impl Decode for Consistency {
    fn decode_from(buf: &mut Source<'_>) -> Result<Consistency> {
        match codec::get_u8(buf)? {
            0 => Ok(Consistency::Strong),
            1 => Ok(Consistency::Timeline),
            2 => Ok(Consistency::Snapshot(SnapshotTs::Pin)),
            3 => Ok(Consistency::Snapshot(SnapshotTs::At(codec::get_u64(buf)?))),
            tag => Err(Error::Codec(format!("bad Consistency tag {tag}"))),
        }
    }
}

impl Encode for ClientError {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ClientError::NotLeader { hint } => {
                codec::put_u8(buf, 0);
                match hint {
                    Some(node) => {
                        codec::put_u8(buf, 1);
                        codec::put_u32(buf, *node);
                    }
                    None => codec::put_u8(buf, 0),
                }
            }
            ClientError::Unavailable => codec::put_u8(buf, 1),
            ClientError::WrongRange { version } => {
                codec::put_u8(buf, 2);
                codec::put_u64(buf, *version);
            }
            ClientError::SnapshotTooOld { floor } => {
                codec::put_u8(buf, 3);
                codec::put_u64(buf, *floor);
            }
            ClientError::VersionMismatch { actual } => {
                codec::put_u8(buf, 4);
                codec::put_u64(buf, *actual);
            }
        }
    }
}

impl Decode for ClientError {
    fn decode_from(buf: &mut Source<'_>) -> Result<ClientError> {
        match codec::get_u8(buf)? {
            0 => {
                let hint = match codec::get_u8(buf)? {
                    0 => None,
                    1 => Some(codec::get_u32(buf)?),
                    tag => return Err(Error::Codec(format!("bad NotLeader tag {tag}"))),
                };
                Ok(ClientError::NotLeader { hint })
            }
            1 => Ok(ClientError::Unavailable),
            2 => Ok(ClientError::WrongRange { version: codec::get_u64(buf)? }),
            3 => Ok(ClientError::SnapshotTooOld { floor: codec::get_u64(buf)? }),
            4 => Ok(ClientError::VersionMismatch { actual: codec::get_u64(buf)? }),
            tag => Err(Error::Codec(format!("bad ClientError tag {tag}"))),
        }
    }
}

fn put_opt_key(buf: &mut Vec<u8>, key: &Option<Key>) {
    match key {
        Some(k) => {
            codec::put_u8(buf, 1);
            k.encode(buf);
        }
        None => codec::put_u8(buf, 0),
    }
}

fn get_opt_key(buf: &mut Source<'_>) -> Result<Option<Key>> {
    match codec::get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(Key::decode_from(buf)?)),
        tag => Err(Error::Codec(format!("bad Option<Key> tag {tag}"))),
    }
}

impl Encode for ColumnSelect {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ColumnSelect::All => codec::put_u8(buf, 0),
            ColumnSelect::One(col) => {
                codec::put_u8(buf, 1);
                codec::put_bytes(buf, col);
            }
            ColumnSelect::Set(cols) => {
                codec::put_u8(buf, 2);
                codec::put_varint(buf, cols.len() as u64);
                for col in cols {
                    codec::put_bytes(buf, col);
                }
            }
        }
    }
}

impl Decode for ColumnSelect {
    fn decode_from(buf: &mut Source<'_>) -> Result<ColumnSelect> {
        match codec::get_u8(buf)? {
            0 => Ok(ColumnSelect::All),
            1 => Ok(ColumnSelect::One(buf.bytes()?)),
            2 => {
                let n = codec::get_varint_len(buf, "list", 1)?;
                let mut cols = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    cols.push(buf.bytes()?);
                }
                Ok(ColumnSelect::Set(cols))
            }
            tag => Err(Error::Codec(format!("bad ColumnSelect tag {tag}"))),
        }
    }
}

impl Encode for ClientOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ClientOp::Get { key, columns, consistency } => {
                codec::put_u8(buf, 0);
                key.encode(buf);
                columns.encode(buf);
                consistency.encode(buf);
            }
            ClientOp::Put { key, cells } => {
                codec::put_u8(buf, 1);
                key.encode(buf);
                codec::put_varint(buf, cells.len() as u64);
                for (col, value) in cells {
                    codec::put_bytes(buf, col);
                    codec::put_bytes(buf, value);
                }
            }
            ClientOp::Delete { key, columns } => {
                codec::put_u8(buf, 2);
                key.encode(buf);
                codec::put_varint(buf, columns.len() as u64);
                for col in columns {
                    codec::put_bytes(buf, col);
                }
            }
            ClientOp::ConditionalPut { key, col, value, expected } => {
                codec::put_u8(buf, 3);
                key.encode(buf);
                codec::put_bytes(buf, col);
                codec::put_bytes(buf, value);
                codec::put_u64(buf, *expected);
            }
            ClientOp::ConditionalDelete { key, col, expected } => {
                codec::put_u8(buf, 4);
                key.encode(buf);
                codec::put_bytes(buf, col);
                codec::put_u64(buf, *expected);
            }
            ClientOp::Scan { start, end, limit, consistency } => {
                codec::put_u8(buf, 5);
                start.encode(buf);
                put_opt_key(buf, end);
                codec::put_u32(buf, *limit);
                consistency.encode(buf);
            }
        }
    }
}

impl Decode for ClientOp {
    fn decode_from(buf: &mut Source<'_>) -> Result<ClientOp> {
        match codec::get_u8(buf)? {
            0 => Ok(ClientOp::Get {
                key: Key::decode_from(buf)?,
                columns: ColumnSelect::decode_from(buf)?,
                consistency: Consistency::decode_from(buf)?,
            }),
            1 => {
                let key = Key::decode_from(buf)?;
                let n = codec::get_varint_len(buf, "list", 1)?;
                if n == 0 {
                    return Err(Error::Codec("Put with zero cells".into()));
                }
                let mut cells = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let col = buf.bytes()?;
                    let value = buf.bytes()?;
                    cells.push((col, value));
                }
                Ok(ClientOp::Put { key, cells })
            }
            2 => {
                let key = Key::decode_from(buf)?;
                let n = codec::get_varint_len(buf, "list", 1)?;
                if n == 0 {
                    return Err(Error::Codec("Delete with zero columns".into()));
                }
                let mut columns = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    columns.push(buf.bytes()?);
                }
                Ok(ClientOp::Delete { key, columns })
            }
            3 => Ok(ClientOp::ConditionalPut {
                key: Key::decode_from(buf)?,
                col: buf.bytes()?,
                value: buf.bytes()?,
                expected: codec::get_u64(buf)?,
            }),
            4 => Ok(ClientOp::ConditionalDelete {
                key: Key::decode_from(buf)?,
                col: buf.bytes()?,
                expected: codec::get_u64(buf)?,
            }),
            5 => Ok(ClientOp::Scan {
                start: Key::decode_from(buf)?,
                end: get_opt_key(buf)?,
                limit: codec::get_u32(buf)?,
                consistency: Consistency::decode_from(buf)?,
            }),
            tag => Err(Error::Codec(format!("bad ClientOp tag {tag}"))),
        }
    }
}

impl Encode for ClientRequest {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, self.req);
        codec::put_u64(buf, self.ring_version);
        self.op.encode(buf);
    }
}

impl Decode for ClientRequest {
    fn decode_from(buf: &mut Source<'_>) -> Result<ClientRequest> {
        Ok(ClientRequest {
            req: codec::get_u64(buf)?,
            ring_version: codec::get_u64(buf)?,
            op: ClientOp::decode_from(buf)?,
        })
    }
}

impl Encode for ReadCell {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_bytes(buf, &self.col);
        match &self.value {
            Some(v) => {
                codec::put_u8(buf, 1);
                codec::put_bytes(buf, v);
            }
            None => codec::put_u8(buf, 0),
        }
        codec::put_u64(buf, self.version);
    }
}

impl Decode for ReadCell {
    fn decode_from(buf: &mut Source<'_>) -> Result<ReadCell> {
        let col = buf.bytes()?;
        let value = match codec::get_u8(buf)? {
            0 => None,
            1 => Some(buf.bytes()?),
            tag => return Err(Error::Codec(format!("bad ReadCell tag {tag}"))),
        };
        Ok(ReadCell { col, value, version: codec::get_u64(buf)? })
    }
}

impl Encode for ScanRow {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.key.encode(buf);
        codec::put_varint(buf, self.cells.len() as u64);
        for cell in &self.cells {
            cell.encode(buf);
        }
    }
}

impl Decode for ScanRow {
    fn decode_from(buf: &mut Source<'_>) -> Result<ScanRow> {
        let key = Key::decode_from(buf)?;
        let n = codec::get_varint_len(buf, "list", 1)?;
        let mut cells = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            cells.push(ReadCell::decode_from(buf)?);
        }
        Ok(ScanRow { key, cells })
    }
}

impl Encode for ClientReply {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ClientReply::WriteOk { req, version, ts, leader } => {
                codec::put_u8(buf, 0);
                codec::put_u64(buf, *req);
                codec::put_u64(buf, *version);
                codec::put_u64(buf, *ts);
                codec::put_u32(buf, *leader);
            }
            ClientReply::Row { req, cells, at_ts } => {
                codec::put_u8(buf, 1);
                codec::put_u64(buf, *req);
                codec::put_varint(buf, cells.len() as u64);
                for cell in cells {
                    cell.encode(buf);
                }
                codec::put_u64(buf, *at_ts);
            }
            ClientReply::Rows { req, rows, resume, at_ts } => {
                codec::put_u8(buf, 2);
                codec::put_u64(buf, *req);
                codec::put_varint(buf, rows.len() as u64);
                for row in rows {
                    row.encode(buf);
                }
                put_opt_key(buf, resume);
                codec::put_u64(buf, *at_ts);
            }
            ClientReply::Err { req, error } => {
                codec::put_u8(buf, 3);
                codec::put_u64(buf, *req);
                error.encode(buf);
            }
            ClientReply::Leader { range, leader } => {
                codec::put_u8(buf, 4);
                codec::put_u32(buf, range.0);
                codec::put_u32(buf, *leader);
            }
        }
    }
}

impl Decode for ClientReply {
    fn decode_from(buf: &mut Source<'_>) -> Result<ClientReply> {
        match codec::get_u8(buf)? {
            0 => Ok(ClientReply::WriteOk {
                req: codec::get_u64(buf)?,
                version: codec::get_u64(buf)?,
                ts: codec::get_u64(buf)?,
                leader: codec::get_u32(buf)?,
            }),
            1 => {
                let req = codec::get_u64(buf)?;
                let n = codec::get_varint_len(buf, "list", 1)?;
                let mut cells = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    cells.push(ReadCell::decode_from(buf)?);
                }
                Ok(ClientReply::Row { req, cells, at_ts: codec::get_u64(buf)? })
            }
            2 => {
                let req = codec::get_u64(buf)?;
                let n = codec::get_varint_len(buf, "list", 1)?;
                let mut rows = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    rows.push(ScanRow::decode_from(buf)?);
                }
                Ok(ClientReply::Rows {
                    req,
                    rows,
                    resume: get_opt_key(buf)?,
                    at_ts: codec::get_u64(buf)?,
                })
            }
            3 => Ok(ClientReply::Err {
                req: codec::get_u64(buf)?,
                error: ClientError::decode_from(buf)?,
            }),
            4 => Ok(ClientReply::Leader {
                range: RangeId(codec::get_u32(buf)?),
                leader: codec::get_u32(buf)?,
            }),
            tag => Err(Error::Codec(format!("bad ClientReply tag {tag}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;

    use super::*;

    fn roundtrip_op(op: ClientOp) {
        let req = ClientRequest { req: 7, ring_version: 3, op };
        let enc = req.encode_to_vec();
        assert_eq!(ClientRequest::decode(&mut enc.as_slice()).unwrap(), req);
    }

    #[test]
    fn ops_roundtrip() {
        roundtrip_op(ClientOp::Get {
            key: Key::from("k"),
            columns: ColumnSelect::All,
            consistency: Consistency::Strong,
        });
        roundtrip_op(ClientOp::Get {
            key: Key::from("k"),
            columns: ColumnSelect::Set(vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")]),
            consistency: Consistency::Timeline,
        });
        roundtrip_op(ClientOp::Put {
            key: Key::from("k"),
            cells: vec![(Bytes::from_static(b"c"), Bytes::from_static(b"v"))],
        });
        roundtrip_op(ClientOp::Delete {
            key: Key::from("k"),
            columns: vec![Bytes::from_static(b"c")],
        });
        roundtrip_op(ClientOp::ConditionalPut {
            key: Key::from("k"),
            col: Bytes::from_static(b"c"),
            value: Bytes::from_static(b"v"),
            expected: 9,
        });
        roundtrip_op(ClientOp::ConditionalDelete {
            key: Key::from("k"),
            col: Bytes::from_static(b"c"),
            expected: 0,
        });
        roundtrip_op(ClientOp::Scan {
            start: Key::from("a"),
            end: Some(Key::from("z")),
            limit: 64,
            consistency: Consistency::Strong,
        });
        roundtrip_op(ClientOp::Scan {
            start: Key::from("a"),
            end: None,
            limit: 16,
            consistency: Consistency::snapshot_at(123_456),
        });
        roundtrip_op(ClientOp::Get {
            key: Key::from("k"),
            columns: ColumnSelect::All,
            consistency: Consistency::SNAPSHOT_PIN,
        });
    }

    #[test]
    fn empty_mutations_rejected() {
        let enc = ClientOp::Put { key: Key::from("k"), cells: vec![] }.encode_to_vec();
        assert!(ClientOp::decode(&mut enc.as_slice()).is_err());
        let enc = ClientOp::Delete { key: Key::from("k"), columns: vec![] }.encode_to_vec();
        assert!(ClientOp::decode(&mut enc.as_slice()).is_err());
    }

    #[test]
    fn replies_roundtrip() {
        let replies = vec![
            ClientReply::WriteOk { req: 1, version: 99, ts: 1234, leader: 2 },
            ClientReply::Row {
                req: 2,
                at_ts: 0,
                cells: vec![
                    ReadCell {
                        col: Bytes::from_static(b"a"),
                        value: Some(Bytes::from_static(b"v")),
                        version: 4,
                    },
                    ReadCell { col: Bytes::from_static(b"b"), value: None, version: 9 },
                ],
            },
            ClientReply::Rows {
                req: 3,
                rows: vec![ScanRow {
                    key: Key::from("k"),
                    cells: vec![ReadCell {
                        col: Bytes::from_static(b"c"),
                        value: Some(Bytes::from_static(b"v")),
                        version: 5,
                    }],
                }],
                resume: Some(Key::from("l")),
                at_ts: 777,
            },
            ClientReply::err(4, ClientError::VersionMismatch { actual: 11 }),
            ClientReply::err(5, ClientError::NotLeader { hint: Some(2) }),
            ClientReply::err(6, ClientError::NotLeader { hint: None }),
            ClientReply::err(7, ClientError::Unavailable),
            ClientReply::err(8, ClientError::WrongRange { version: 12 }),
            ClientReply::err(9, ClientError::SnapshotTooOld { floor: 1_000 }),
            ClientReply::Leader { range: RangeId(7), leader: 2 },
        ];
        for r in replies {
            let enc = r.encode_to_vec();
            assert_eq!(ClientReply::decode(&mut enc.as_slice()).unwrap(), r);
        }
    }

    /// A leader notice is tag 4 on the wire, answers no request and is
    /// charged as a write acknowledgement is; every proper prefix of its
    /// bytes decodes to an error, never a panic.
    #[test]
    fn a_leader_notice_roundtrips_and_a_truncated_one_is_an_error() {
        let notice = ClientReply::Leader { range: RangeId(3), leader: 1 };
        let enc = notice.encode_to_vec();
        assert_eq!(enc[0], 4, "the notice's wire tag");
        assert_eq!(enc.len(), 9, "a tag and two u32s");
        assert_eq!(ClientReply::decode(&mut enc.as_slice()).unwrap(), notice);
        assert_eq!(notice.req(), 0, "a notice names no request");
        assert_eq!(notice.wire_size(), 48);
        for cut in 0..enc.len() {
            assert!(ClientReply::decode(&mut &enc[..cut]).is_err(), "{cut} bytes decode");
        }
    }

    #[test]
    fn reply_wire_size_scales_with_payload() {
        let small = ClientReply::Row { req: 1, cells: vec![], at_ts: 0 };
        let big = ClientReply::Row {
            req: 1,
            at_ts: 0,
            cells: vec![ReadCell {
                col: Bytes::from_static(b"c"),
                value: Some(Bytes::from(vec![0u8; 4096])),
                version: 1,
            }],
        };
        assert!(big.wire_size() > small.wire_size() + 4000);
    }

    #[test]
    fn retryability_splits_routing_from_terminal_errors() {
        assert!(ClientError::NotLeader { hint: None }.is_retryable());
        assert!(ClientError::Unavailable.is_retryable());
        assert!(ClientError::WrongRange { version: 3 }.is_retryable());
        assert!(!ClientError::SnapshotTooOld { floor: 9 }.is_retryable());
        assert!(!ClientError::VersionMismatch { actual: 4 }.is_retryable());
    }

    #[test]
    fn tombstone_cell_distinguishes_deleted_from_absent() {
        // A deleted column: present with value None + tombstone version.
        let deleted = ReadCell { col: Bytes::from_static(b"c"), value: None, version: 42 };
        assert!(deleted.value.is_none());
        assert_ne!(deleted.version, 0, "deleted cells carry the tombstone version");
        // A never-written column simply does not appear in `Row::cells`;
        // clients read that as version 0.
    }
}
