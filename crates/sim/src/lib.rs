//! Deterministic discrete-event simulator.
//!
//! This crate is the testbed substitute for the paper's 10-node cluster
//! (Appendix C): a virtual-time event kernel ([`kernel::Sim`]), a reliable
//! in-order network model with partitions ([`net::NetModel`]), logging
//! devices with group commit and hardware profiles matching the
//! evaluation's HDD / SSD / EC2 / main-memory configurations
//! ([`disk::LogDevice`]), an m-server CPU queue per node
//! ([`cpu::CpuModel`]), and latency statistics ([`stats`]).
//!
//! Protocol crates (`spinnaker-core`, `spinnaker-eventual`) provide the
//! actors; this crate provides time, randomness, and physics.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod cpu;
pub mod disk;
pub mod kernel;
pub mod net;
pub mod stats;

pub use clock::SkewedClock;
pub use cpu::CpuModel;
pub use disk::{DiskOutcome, DiskProfile, ForceToken, LogDevice};
pub use kernel::{Actor, Ctx, Idle, ProcId, Sim, Time, MICROS, MILLIS, SECS};
pub use net::{NetConfig, NetModel};
pub use stats::LatencyStats;
