//! Shared write-ahead log for the Spinnaker datastore.
//!
//! Implements the logging substrate of paper §4.1/§5/§6:
//!
//! * a single physical log per node shared by all of the node's cohorts,
//!   each cohort using its own *logical* LSN stream ([`Wal`]),
//! * length+CRC32C framed records with torn-tail detection on recovery
//!   ([`record`]),
//! * **logical truncation** via persistent skipped-LSN lists (§6.1.1) —
//!   records discarded by a new leader are hidden from all future replays
//!   without physically truncating the shared log ([`skipped`]),
//! * per-cohort checkpoints marking the local-recovery replay start
//!   ([`checkpoint`]), with segment garbage collection once every cohort
//!   has flushed past a segment.
//!
//! Group commit (§5) needs no type of its own: [`Wal::sync`] forces
//! everything appended so far, and the device model that batches the
//! forces queued behind one sync is the simulator's (`sim::disk`).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod record;
pub mod skipped;
#[allow(clippy::module_inception)]
pub mod wal;

pub use checkpoint::Checkpoints;
pub use record::{LogRecord, Payload};
pub use skipped::{SkippedFile, SkippedLsns};
pub use wal::{CohortLogState, Wal, WalOptions};
