//! Nemesis: deterministic chaos campaigns with a history-recording
//! consistency checker.
//!
//! Everything derives from one `u64` seed: the cluster shape, the
//! client fleet and its op mix, and the fault schedule (crashes,
//! partitions, WAL disk faults, clock skew, retention squeezes, and
//! online splits/merges/moves). A campaign records a complete
//! invoke/ok/fail/timeout history ([`spinnaker_common::History`]) and
//! the [`checker`] validates it after the fact:
//!
//! * strong ops are checked for per-key linearizability (WGL-style
//!   search with memoization),
//! * snapshot reads are checked for an exact cut — every observed cell
//!   consistent with one prefix of the committed write order,
//! * pinned snapshots are checked against lease-floor staleness, and
//! * scans are checked for shape (sorted, in-bounds, no phantoms).
//!
//! A failing seed can be [shrunk](mod@shrink) to a minimal fault schedule,
//! and replayed from the seed alone — same seed, byte-identical
//! history.
//!
//! Entry points: [`campaign::run_seed`] for one seed end to end,
//! [`shrink::shrink`] to minimize a failure, and the
//! `spinnaker-nemesis` bin to sweep many seeds (CI) or run unbounded
//! (soak).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod checker;
pub mod client;
pub mod schedule;
pub mod shrink;

pub use campaign::{run, run_seed, CampaignConfig, RunReport};
pub use checker::{check, Violation};
pub use schedule::{generate, FaultEvent, FaultKind, Schedule};
pub use shrink::shrink;
