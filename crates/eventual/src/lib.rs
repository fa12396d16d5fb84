//! Replication baselines the paper compares against.
//!
//! * [`node`]/[`cluster`] — an eventually consistent, Dynamo/Cassandra-
//!   style datastore (§2.3, §9): leaderless coordination, weak/quorum
//!   reads and writes, timestamp last-writer-wins, and read repair.
//!   Built on the same LSM storage and simulation substrate as Spinnaker
//!   so the comparison isolates the replication protocol, exactly as the
//!   paper's shared-codebase setup did.
//! * [`masterslave`] — traditional 2-way synchronous replication and its
//!   Fig. 1 availability trap (§1.1).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod masterslave;
pub mod node;

pub use cluster::{EClusterConfig, EWorkload, EventualCluster};
pub use masterslave::{FailoverPolicy, MasterSlavePair};
pub use node::{EventualNode, ReadLevel, WriteLevel};
