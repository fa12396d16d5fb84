//! # Spinnaker
//!
//! A Rust reproduction of *"Using Paxos to Build a Scalable, Consistent,
//! and Highly Available Datastore"* (Rao, Shekita, Tata — VLDB 2011):
//! a range-partitioned, 3-way-replicated key/column datastore whose
//! replication protocol is a Multi-Paxos variant integrated with a shared
//! write-ahead log, LSM storage, and a ZooKeeper-like coordination
//! service.
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`common`] | `spinnaker-common` | keys/rows/LSNs, binary codec, CRC32C, virtual file system |
//! | [`wal`] | `spinnaker-wal` | shared write-ahead log, group commit, logical truncation |
//! | [`storage`] | `spinnaker-storage` | memtables, SSTables with LSN tags, compaction |
//! | [`coordination`] | `spinnaker-coord` | znodes, ephemeral/sequential nodes, watches, sessions |
//! | [`sim`] | `spinnaker-sim` | deterministic discrete-event simulator (network/disk/CPU) |
//! | [`core`] | `spinnaker-core` | the replication protocol, elections, recovery, cluster harness |
//! | [`eventual`] | `spinnaker-eventual` | Cassandra-style and master-slave baselines |
//!
//! ## Quick start
//!
//! ```
//! use spinnaker::core::client::Workload;
//! use spinnaker::core::cluster::{ClusterConfig, SimCluster};
//! use spinnaker::sim::SECS;
//!
//! // A deterministic 5-node cluster on simulated hardware.
//! let mut cluster = SimCluster::new(ClusterConfig { nodes: 5, ..Default::default() });
//! let stats = cluster.add_client(
//!     Workload::Writes { keys: 1000, value_size: 512 },
//!     2 * SECS, // start after elections settle
//!     2 * SECS,
//!     6 * SECS,
//! );
//! cluster.run_until(6 * SECS);
//! assert!(stats.borrow().completed > 0);
//! ```
//!
//! See `examples/` for failover and consistency-model walk-throughs and
//! `crates/bench` for the reproduction of every figure and table in the
//! paper's evaluation.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use spinnaker_common as common;
pub use spinnaker_coord as coordination;
pub use spinnaker_core as core;
pub use spinnaker_eventual as eventual;
pub use spinnaker_sim as sim;
pub use spinnaker_storage as storage;
pub use spinnaker_wal as wal;
