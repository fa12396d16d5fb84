//! Spinnaker: a scalable, consistent, and highly available datastore.
//!
//! This crate is the paper's primary contribution: a Multi-Paxos–derived
//! replication protocol integrated with a shared write-ahead log and
//! LSM storage, with leader election delegated to a ZooKeeper-like
//! coordination service.
//!
//! * [`node`] — the per-node runtime: local recovery, input dispatch,
//!   force completions, timers and maintenance over a registry of
//!   per-range replicas.
//! * [`replica`] — the per-range state machine: steady-state replication
//!   (Fig. 4), leader election (Fig. 7), leader takeover (Fig. 6),
//!   follower recovery and logical truncation (§6).
//! * [`reconfig`] — range split, range merge and cohort movement: every
//!   way a replica is replaced by others, through one `dissolve`.
//! * [`partition`] — range partitioning with chained declustering (Fig. 2).
//! * [`commit_queue`] — pending writes between propose and commit (§4.1).
//! * [`messages`] — client and peer protocol messages.
//! * [`cluster`] — a deterministic simulated cluster harness hosting real
//!   nodes over the `spinnaker-sim` substrate; what the examples, the
//!   integration tests, and every benchmark figure run on.
//! * [`session`] — the typed client session runtime: the full §3 op
//!   surface, multi-range scans with continuation, pipelined windows.
//! * [`client`] — closed-loop workload clients driving sessions.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod commit_queue;
pub mod coordcli;
pub mod messages;
pub mod node;
pub mod partition;
pub mod reconfig;
pub mod replica;
pub mod session;

pub use client::{ClientStats, Workload};
pub use cluster::{ClusterConfig, SimCluster};
pub use coordcli::{CoordClient, DeliveryBus, SharedCoord};
pub use messages::{
    Addr, ClientOp, ClientReply, ClientRequest, ColumnSelect, Effect, NodeInput, Outbox, PeerMsg,
    ReadCell, RequestId, ScanRow, TimerKind,
};
pub use node::{get_request, put_request, CohortPaths, Node, NodeConfig, Role};
pub use partition::{key_to_u64, u64_to_key, RangeDef, Ring, REPLICATION, TABLE_PATH};
pub use reconfig::{ClaimKind, DissolveCoverage, DissolveEntry};
pub use replica::RangeReplica;
pub use session::{CallId, CallOutcome, Session, SessionCall, SessionStep};
