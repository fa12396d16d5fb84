//! The four workloads: cluster physics, store sizing, and client fleets.
//!
//! Configuration *values* here were tuned until the layer-separation
//! properties the harness asserts held (see `SPINBENCH.md`), then frozen.

use std::rc::Rc;

use spinnaker_common::Consistency;
use spinnaker_core::cluster::ClusterConfig;
use spinnaker_sim::{DiskProfile, Time, MILLIS, SECS};

use crate::gen::{sub_seed, value_of, OpGen, Role, Zipf};

/// Full-size runs, or the tiny smoke scale the crate's test uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// A few thousand operations, for tests.
    Smoke,
}

/// One client role, how many clients run it, and their pipeline depth.
#[derive(Clone, Debug)]
pub struct FleetPart {
    /// What each client does.
    pub role: Role,
    /// Number of clients.
    pub clients: usize,
    /// Operations each keeps outstanding.
    pub pipeline: usize,
}

/// A steady-state workload (everything but `failover`).
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Distinct keys.
    pub keys: u64,
    /// Value bytes per put.
    pub value_size: usize,
    /// Write every key through consensus before the fleet starts.
    pub preload: bool,
    /// The measured fleet.
    pub fleet: Vec<FleetPart>,
    /// Virtual warm-up before the measured window.
    pub warmup: Time,
    /// Virtual length of the measured window.
    pub window: Time,
    /// Virtual length of one slice of it (stall and gauge sampling).
    pub slice: Time,
    /// Keys the read-back samples.
    pub readback: usize,
}

/// The physics every workload shares: 5 nodes x 8 simulated cores,
/// replication 3, SSD log device, default network and service times.
pub fn base_cluster(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig { nodes: 5, seed, ..Default::default() };
    cfg.disk = DiskProfile::Ssd;
    cfg.node.commit_period = 200 * MILLIS;
    cfg
}

/// The injected physics, as one line for the output header.
pub fn physics_line(cfg: &ClusterConfig) -> String {
    format!(
        "{} nodes x {} cores, replication 3; net {} us + U[0,{}) us one-way, {} MB/s; log device {:?}; \
         cpu {} us/read, {} us/write|propose, {} us/ack|commit; commit_period {} ms; propose_batch {}; \
         piggyback_commits {}; memtable {} KB, L1 {} KB, fanout {}, block cache {} KB",
        cfg.nodes,
        cfg.perf.cpu_cores,
        cfg.net.base_latency / 1000,
        cfg.net.jitter / 1000,
        cfg.net.bytes_per_sec / 1_000_000,
        cfg.disk,
        cfg.perf.read_service / 1000,
        cfg.perf.write_service / 1000,
        cfg.perf.peer_service / 1000,
        cfg.node.commit_period / MILLIS,
        cfg.node.propose_batch,
        cfg.node.piggyback_commits,
        cfg.node.memtable_flush_bytes >> 10,
        cfg.node.level_base_bytes >> 10,
        cfg.node.level_fanout,
        cfg.node.block_cache_bytes >> 10,
    )
}

/// Cluster configuration of a steady workload.
pub fn cluster_for(name: &str, seed: u64) -> ClusterConfig {
    let mut cfg = base_cluster(seed);
    match name {
        // A 1 MB memtable, so the window spans several flush and
        // compaction cycles; everything else at its default.
        "write-sat" => cfg.node.memtable_flush_bytes = 1 << 20,
        // Working set about six times the block cache.
        "read-uniform" => {
            cfg.node.memtable_flush_bytes = 64 << 10;
            cfg.node.level_base_bytes = 256 << 10;
            cfg.node.block_cache_bytes = 1 << 20;
            cfg.node.maintenance_interval = 20 * MILLIS;
        }
        // Hot keys fit the cache; small memtables force flush and
        // compaction cycles inside the window.
        "mixed-zipf" => {
            cfg.node.memtable_flush_bytes = 128 << 10;
            cfg.node.level_base_bytes = 512 << 10;
            cfg.node.block_cache_bytes = 4 << 20;
            cfg.node.piggyback_commits = true;
        }
        other => panic!("no steady workload named {other}"),
    }
    cfg
}

/// The steady workload `name` at `scale`.
pub fn spec(name: &str, scale: Scale) -> Spec {
    let full = scale == Scale::Full;
    let part = |role, clients, pipeline| FleetPart { role, clients, pipeline };
    match name {
        "write-sat" => Spec {
            name: "write-sat",
            keys: if full { 100_000 } else { 2_000 },
            value_size: 256,
            preload: false,
            fleet: vec![part(Role::Writes { start: 0 }, if full { 12 } else { 4 }, 8)],
            warmup: if full { 500 * MILLIS } else { 50 * MILLIS },
            window: if full { 2 * SECS } else { 400 * MILLIS },
            slice: 10 * MILLIS,
            readback: if full { 2_000 } else { 100 },
        },
        "read-uniform" => Spec {
            name: "read-uniform",
            keys: if full { 60_000 } else { 1_500 },
            value_size: 256,
            preload: true,
            fleet: vec![part(Role::UniformGets(Consistency::Strong), if full { 48 } else { 8 }, 1)],
            warmup: if full { 500 * MILLIS } else { 50 * MILLIS },
            window: if full { 5 * SECS } else { 400 * MILLIS },
            slice: 10 * MILLIS,
            readback: if full { 2_000 } else { 100 },
        },
        "mixed-zipf" => Spec {
            name: "mixed-zipf",
            keys: if full { 60_000 } else { 1_500 },
            value_size: 256,
            preload: true,
            fleet: vec![
                part(Role::ZipfGets(Consistency::Strong), if full { 12 } else { 2 }, 1),
                part(Role::ZipfGets(Consistency::Timeline), if full { 12 } else { 2 }, 1),
                part(Role::ZipfPuts, if full { 6 } else { 2 }, 1),
                part(Role::ZipfCond, 1, 1),
                part(Role::SnapshotScans { rows: 32, page: 8 }, 1, 1),
            ],
            warmup: if full { 500 * MILLIS } else { 50 * MILLIS },
            window: if full { 5 * SECS } else { 400 * MILLIS },
            slice: 10 * MILLIS,
            readback: if full { 2_000 } else { 100 },
        },
        other => panic!("no steady workload named {other}"),
    }
}

impl Spec {
    /// The measured fleet's generators, in client order, each with its
    /// pipeline depth. A pure function of `seed`.
    pub fn generators(&self, seed: u64) -> Vec<(OpGen, usize)> {
        let needs_zipf = self
            .fleet
            .iter()
            .any(|p| matches!(p.role, Role::ZipfGets(_) | Role::ZipfPuts | Role::ZipfCond));
        let zipf = needs_zipf.then(|| Rc::new(Zipf::new(self.keys, 0.99, seed)));
        let value = value_of(self.value_size);
        let mut out = Vec::new();
        for part in &self.fleet {
            for i in 0..part.clients as u64 {
                let stream = sub_seed(seed, 1000 + out.len() as u64);
                let role = match part.role {
                    Role::Writes { .. } => Role::Writes {
                        start: sub_seed(seed, 0x57a7) % self.keys
                            + i * self.keys / part.clients as u64,
                    },
                    ref other => other.clone(),
                };
                let gen = OpGen::new(role, stream, self.keys, value.clone(), zipf.clone());
                out.push((gen, part.pipeline));
            }
        }
        out
    }

    /// Generators that write every key once: `sessions` disjoint slices.
    pub fn preload_generators(&self, sessions: u64) -> Vec<OpGen> {
        let value = value_of(self.value_size);
        let per = self.keys.div_ceil(sessions.max(1));
        (0..sessions)
            .map(|s| {
                let role = Role::Preload {
                    next: (s * per).min(self.keys),
                    end: ((s + 1) * per).min(self.keys),
                };
                OpGen::new(role, s, self.keys, value.clone(), None)
            })
            .collect()
    }
}
