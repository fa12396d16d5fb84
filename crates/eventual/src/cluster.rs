//! Simulated eventually-consistent cluster + closed-loop clients — the
//! "Cassandra" side of every comparison figure.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use rand::Rng;

use spinnaker_common::vfs::MemVfs;
use spinnaker_common::NodeId;
use spinnaker_core::client::{ClientHost, ClientStats, SharedStats};
use spinnaker_core::partition::Ring;
use spinnaker_sim::{
    Actor, CpuModel, Ctx, DiskOutcome, DiskProfile, Idle, LogDevice, NetConfig, NetModel, ProcId,
    Sim, Time, MICROS,
};

use crate::node::{EEffect, ENodeInput, EPeerMsg, EReply, EventualNode, ReadLevel, WriteLevel};

/// Events of the eventual-consistency simulation.
#[derive(Debug)]
pub enum EEv {
    /// Input for a node (CPU-charged where appropriate).
    Input(ENodeInput),
    /// Post-CPU execution.
    Exec(ENodeInput),
    /// Log device sync completion.
    SyncDone,
    /// Client event.
    Client(EClientEv),
}

/// Client events.
#[derive(Debug)]
pub enum EClientEv {
    /// Begin the closed loop.
    Start,
    /// A reply arrived.
    Reply(EReply),
}

/// Workloads for the baseline.
#[derive(Clone, Debug)]
pub enum EWorkload {
    /// Random-row reads at the given level (Fig. 8).
    Reads {
        /// Distinct keys.
        keys: u64,
        /// Weak or quorum.
        level: ReadLevel,
    },
    /// Writes (Fig. 9 / Fig. 15).
    Writes {
        /// Distinct keys.
        keys: u64,
        /// Value size.
        value_size: usize,
        /// Weak or quorum.
        level: WriteLevel,
    },
    /// Mixed (Fig. 12).
    Mixed {
        /// Distinct keys.
        keys: u64,
        /// Value size.
        value_size: usize,
        /// Write percentage.
        write_pct: u8,
        /// Read level.
        read_level: ReadLevel,
        /// Write level.
        write_level: WriteLevel,
    },
}

/// Cluster parameters (mirrors the Spinnaker side for fair comparisons).
#[derive(Clone, Debug)]
pub struct EClusterConfig {
    /// Node count.
    pub nodes: usize,
    /// Seed.
    pub seed: u64,
    /// Disk profile for the commit log.
    pub disk: DiskProfile,
    /// Network parameters.
    pub net: NetConfig,
    /// CPU cores per node.
    pub cpu_cores: usize,
    /// Read service time per replica visit.
    pub read_service: Time,
    /// Write/propose service time.
    pub write_service: Time,
    /// Coordinator overhead per request.
    pub coord_service: Time,
}

impl Default for EClusterConfig {
    fn default() -> EClusterConfig {
        EClusterConfig {
            nodes: 10,
            seed: 42,
            disk: DiskProfile::Hdd,
            net: NetConfig::default(),
            cpu_cores: 8,
            read_service: 1200 * MICROS,
            write_service: 250 * MICROS,
            coord_service: 350 * MICROS,
        }
    }
}

struct ENodeHost {
    proc: ProcId,
    node: EventualNode,
    cpu: CpuModel,
    device: LogDevice,
    net: Rc<RefCell<NetModel>>,
    cfg: EClusterConfig,
}

impl ENodeHost {
    fn service_for(&self, input: &ENodeInput) -> Time {
        match input {
            ENodeInput::Read { .. } => self.cfg.coord_service,
            ENodeInput::Write { .. } => self.cfg.coord_service,
            ENodeInput::Peer { msg, .. } => match msg {
                EPeerMsg::ReplicaWrite { .. } => self.cfg.write_service,
                EPeerMsg::ReplicaRead { .. } => self.cfg.read_service,
                _ => 80 * MICROS,
            },
            _ => 0,
        }
    }

    fn exec(&mut self, now: Time, input: ENodeInput, ctx: &mut Ctx<'_, EEv>) {
        let mut out = Vec::new();
        match input {
            // The sync's token list goes back to the device once read.
            ENodeInput::LogForced { mut tokens } => {
                self.node.on_forced(&mut tokens, &mut out);
                self.device.recycle(tokens);
            }
            input => self.node.on_input(now, input, &mut out),
        }
        let me = self.proc;
        for eff in out {
            match eff {
                EEffect::Send { to, msg } => {
                    let bytes = msg.wire_size();
                    let ev = EEv::Input(ENodeInput::Peer { from: self.node.id(), msg });
                    self.net.borrow_mut().send(ctx, now, me, to, bytes, ev);
                }
                EEffect::Reply { to, reply } => {
                    let bytes = match &reply {
                        EReply::Value { value: Some((v, _)), .. } => 64 + v.len(),
                        _ => 64,
                    };
                    let ev = EEv::Client(EClientEv::Reply(reply));
                    self.net.borrow_mut().send(ctx, now, me, to, bytes, ev);
                }
                EEffect::ForceLog { token, bytes } => {
                    match self.device.request_force(now, token, bytes, ctx.rng()) {
                        DiskOutcome::SyncScheduled { done_at } => {
                            ctx.schedule_at(done_at, me, EEv::SyncDone);
                        }
                        DiskOutcome::Queued => {}
                    }
                }
            }
        }
    }
}

impl Actor<EEv> for ENodeHost {
    fn on_event(&mut self, now: Time, ev: EEv, ctx: &mut Ctx<'_, EEv>) {
        match ev {
            EEv::Input(input) => {
                let service = self.service_for(&input);
                if service == 0 {
                    self.exec(now, input, ctx);
                } else {
                    let done = self.cpu.schedule(now, service);
                    ctx.schedule_at(done, self.proc, EEv::Exec(input));
                }
            }
            EEv::Exec(input) => self.exec(now, input, ctx),
            EEv::SyncDone => {
                let (tokens, next) = self.device.complete_sync(now, ctx.rng());
                if let Some(t) = next {
                    ctx.schedule_at(t, self.proc, EEv::SyncDone);
                }
                self.exec(now, ENodeInput::LogForced { tokens }, ctx);
            }
            EEv::Client(_) => {}
        }
    }
}

struct EClientHost {
    proc: ProcId,
    nodes: usize,
    workload: EWorkload,
    net: Rc<RefCell<NetModel>>,
    stats: SharedStats,
    window: (Time, Time),
    next_req: u64,
    outstanding: Option<(u64, Time)>,
    value: Bytes,
    write_index: u64,
    start_index: Option<u64>,
}

impl EClientHost {
    fn issue(&mut self, now: Time, ctx: &mut Ctx<'_, EEv>) {
        let req = self.next_req;
        self.next_req += 1;
        // Any node can coordinate: pick one at random (no leader!).
        let coordinator = ctx.rng().gen_range(0..self.nodes) as ProcId;
        let start = *self.start_index.get_or_insert_with(|| ctx.rng().gen());
        // `Ok(level)` writes, `Err(level)` reads.
        let (keys, op) = match self.workload {
            EWorkload::Reads { keys, level } => (keys, Err(level)),
            EWorkload::Writes { keys, level, .. } => (keys, Ok(level)),
            EWorkload::Mixed { keys, write_pct, read_level, write_level, .. } => {
                let write = ctx.rng().gen_range(0..100u8) < write_pct;
                (keys, if write { Ok(write_level) } else { Err(read_level) })
            }
        };
        let from = self.proc;
        let (input, bytes) = match op {
            Ok(level) => {
                let index = start.wrapping_add(self.write_index);
                self.write_index += 1;
                let key = ClientHost::key_for_index(keys, index);
                let value = self.value.clone();
                (ENodeInput::Write { from, req, key, value, level }, 80 + self.value.len())
            }
            Err(level) => {
                let key = ClientHost::key_for_index(keys, ctx.rng().gen_range(0..keys));
                (ENodeInput::Read { from, req, key, level }, 80)
            }
        };
        self.outstanding = Some((req, now));
        self.net.borrow_mut().send(ctx, now, self.proc, coordinator, bytes, EEv::Input(input));
    }
}

impl Actor<EEv> for EClientHost {
    fn on_event(&mut self, now: Time, ev: EEv, ctx: &mut Ctx<'_, EEv>) {
        let EEv::Client(cev) = ev else { return };
        match cev {
            EClientEv::Start => self.issue(now, ctx),
            EClientEv::Reply(reply) => {
                let Some((req, sent)) = self.outstanding else { return };
                if reply.req() != req {
                    return;
                }
                self.outstanding = None;
                self.stats.borrow_mut().record_completion(now, sent, self.window);
                self.issue(now, ctx);
            }
        }
    }
}

/// A complete simulated eventually-consistent cluster.
pub struct EventualCluster {
    /// The simulator.
    pub sim: Sim<EEv>,
    /// Ring layout (same as Spinnaker's for fair comparison).
    pub ring: Ring,
    net: Rc<RefCell<NetModel>>,
    hosts: Vec<Rc<RefCell<ENodeHost>>>,
    cfg: EClusterConfig,
}

impl EventualCluster {
    /// Build the cluster; nodes occupy procs `0..nodes`.
    pub fn new(cfg: EClusterConfig) -> EventualCluster {
        let ring = Ring::with_nodes(cfg.nodes);
        let net = Rc::new(RefCell::new(NetModel::new(cfg.net.clone())));
        let mut sim: Sim<EEv> = Sim::new(cfg.seed);
        let mut hosts = Vec::new();
        for id in 0..cfg.nodes as NodeId {
            let node = EventualNode::new(id, ring.clone(), Arc::new(MemVfs::new()))
                .expect("node construction");
            let host = Rc::new(RefCell::new(ENodeHost {
                proc: id,
                node,
                cpu: CpuModel::new(cfg.cpu_cores),
                device: LogDevice::new(cfg.disk),
                net: net.clone(),
                cfg: cfg.clone(),
            }));
            let proc = sim.add_actor(Box::new(host.clone()));
            assert_eq!(proc, id);
            hosts.push(host);
        }
        EventualCluster { sim, ring, net, hosts, cfg }
    }

    /// Register a closed-loop client. It fills the latency, `completed`
    /// and `total_completed` of its [`ClientStats`]; the retry and routing
    /// counters stay zero.
    pub fn add_client(
        &mut self,
        workload: EWorkload,
        start_at: Time,
        measure_from: Time,
        measure_to: Time,
    ) -> SharedStats {
        let stats: SharedStats = Rc::new(RefCell::new(ClientStats::default()));
        let value_size = match &workload {
            EWorkload::Writes { value_size, .. } | EWorkload::Mixed { value_size, .. } => {
                *value_size
            }
            EWorkload::Reads { .. } => 0,
        };
        let placeholder = self.sim.add_actor(Box::new(Idle));
        let client = EClientHost {
            proc: placeholder,
            nodes: self.cfg.nodes,
            workload,
            net: self.net.clone(),
            stats: stats.clone(),
            window: (measure_from, measure_to),
            next_req: 1,
            outstanding: None,
            value: Bytes::from(vec![0xa5u8; value_size.max(1)]),
            write_index: 0,
            start_index: None,
        };
        self.sim.replace_actor(placeholder, Box::new(client));
        self.sim.schedule(start_at, placeholder, EEv::Client(EClientEv::Start));
        stats
    }

    /// Inspect a node.
    pub fn with_node<T>(&self, id: NodeId, f: impl FnOnce(&EventualNode) -> T) -> T {
        f(&self.hosts[id as usize].borrow().node)
    }

    /// Drive a node input directly (tests).
    pub fn inject(&mut self, at: Time, node: NodeId, input: ENodeInput) {
        self.sim.schedule(at, node, EEv::Input(input));
    }

    /// Advance virtual time.
    pub fn run_until(&mut self, t: Time) {
        self.sim.run_until(t);
    }
}
