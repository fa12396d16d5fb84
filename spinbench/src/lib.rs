//! spinbench: the two-clock benchmark of the Spinnaker reproduction.
//!
//! Two clocks are on the record. The simulator's **virtual clock** says
//! what the *protocol* costs (rounds, forces, bytes, queueing); it is
//! seed-deterministic. The host's **wall clock** and allocator say what
//! the *code* costs. Everything is measured through the crates' public
//! APIs; see `SPINBENCH.md` next to this crate for the glossary.

#![warn(missing_docs)]

pub mod alloc;
pub mod client;
pub mod compare;
pub mod counters;
pub mod direct_host;
pub mod failover;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod stats;
pub mod steady;
pub mod trace;
pub mod traced;
pub mod workloads;
