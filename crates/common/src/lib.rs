//! Core types shared by every crate in the Spinnaker workspace.
//!
//! This crate contains the vocabulary of the system described in
//! *"Using Paxos to Build a Scalable, Consistent, and Highly Available
//! Datastore"* (Rao, Shekita, Tata — VLDB 2011):
//!
//! * [`Lsn`] — log sequence numbers packing an epoch and a sequence number
//!   (`e.seq` in the paper's Appendix B),
//! * [`Key`], [`Value`], [`Row`], [`ColumnValue`] — the row/column data
//!   model of §3,
//! * [`api`] — the typed §3 client API surface ([`ClientOp`],
//!   [`ClientReply`]) and its wire encoding,
//! * [`codec`] — the hand-written binary encoding used by the WAL and
//!   SSTable formats,
//! * [`crc32c`] — CRC-32C (Castagnoli) checksums guarding on-disk records,
//! * [`vfs`] — a virtual file system with in-memory and fault-injecting
//!   backends so storage code can be crash-tested deterministically.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod codec;
pub mod crc32c;
pub mod error;
pub mod history;
pub mod lsn;
pub mod op;
pub mod types;
pub mod vfs;

pub use api::{
    ClientError, ClientOp, ClientReply, ClientRequest, ColumnSelect, ReadCell, RequestId, ScanRow,
};
pub use error::{Error, Result};
pub use history::{HCons, HErr, HEvent, HEventKind, HOp, HResult, HState, History};
pub use lsn::{Epoch, Lsn};
pub use op::{CellOp, WriteOp};
pub use types::{
    ColumnName, ColumnValue, Columns, Consistency, Key, NodeId, RangeId, Row, SnapshotTs,
    Timestamp, Value, Version,
};
