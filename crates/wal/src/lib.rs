//! Shared write-ahead log for the Spinnaker datastore.
//!
//! Implements the logging substrate of paper §4.1/§5/§6:
//!
//! * a single physical log per node shared by all of the node's cohorts,
//!   each cohort using its own *logical* LSN stream ([`Wal`]),
//! * length+CRC32C framed records with torn-tail detection on recovery
//!   ([`record`]),
//! * per-cohort checkpoints marking the local-recovery replay start, with
//!   segment garbage collection once every cohort has flushed past a
//!   segment, and **logical truncation** via skipped-LSN lists (§6.1.1) —
//!   records discarded by a new leader are hidden from all future replays
//!   without physically truncating the shared log. Both live in one
//!   durable per-cohort sidecar ([`wal`]).
//!
//! Group commit (§5) needs no type of its own: [`Wal::sync`] forces
//! everything appended so far, and the device model that batches the
//! forces queued behind one sync is the simulator's (`sim::disk`).

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod index;
pub mod record;
#[allow(clippy::module_inception)]
pub mod wal;

pub use record::{LogRecord, Payload};
pub use wal::{CohortLogState, Wal, WalOptions};
