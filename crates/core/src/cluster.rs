//! Deterministic simulated cluster: real [`Node`] state machines hosted on
//! the `spinnaker-sim` substrate.
//!
//! This is the reproduction of the paper's testbed (Appendix C): each node
//! gets an m-core CPU queue, a logging device with group commit, and a
//! seat on a reliable in-order network; the coordination service runs as a
//! shared deterministic instance whose watch deliveries are routed as
//! messages. Everything — examples, integration tests, and every figure
//! of the evaluation — runs on this harness.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use spinnaker_common::codec::{Decode, Encode};
use spinnaker_common::vfs::{FaultPlan, FaultVfs, MemVfs};
use spinnaker_common::{Key, NodeId, RangeId};
use spinnaker_coord::{Coord, CreateMode, SessionId, WatchEvent};
use spinnaker_sim::{
    Actor, CpuModel, Ctx, DiskOutcome, DiskProfile, Idle, LogDevice, NetConfig, NetModel, ProcId,
    Sim, SkewedClock, Time, MICROS, MILLIS, SECS,
};

use crate::client::{ClientEv, ClientHost, ClientStats, Workload};
use crate::coordcli::{CoordClient, DeliveryBus, SharedCoord};
use crate::messages::{NodeInput, Outbox, PeerMsg, TimerKind};
use crate::node::{Node, NodeConfig, Role};
use crate::partition::{Ring, TABLE_PATH};
use crate::reconfig::DissolveCoverage;
use crate::session::SessionCall;

/// Events flowing through the simulated cluster.
#[derive(Debug)]
pub enum Ev {
    /// Deliver an input to a node (CPU-charged for client/peer traffic).
    Input(NodeInput),
    /// Execute a node input after its CPU queueing delay.
    Exec(NodeInput),
    /// The node's log device finished a sync.
    SyncDone,
    /// Client-side event.
    Client(ClientEv),
    /// Periodic coordination-service session sweep.
    CoordTick,
    /// Crash the node (drop volatile state, drop off the network).
    Crash {
        /// Expire the coordination session immediately instead of
        /// waiting for the heartbeat timeout (used by experiments that
        /// exclude failure-detection time, like Table 1).
        expire_session: bool,
    },
    /// (Re)start a node from its on-disk (synced) state.
    Restart,
    /// Skew the node's clock by a signed offset (nemesis fault; the
    /// node-local view stays monotone, sim physics stay on kernel time).
    SetSkew {
        /// Offset added to kernel time for this node's protocol logic.
        offset: i64,
    },
    /// Arm a disk fault on the node's WAL files (`0` leaves that kind
    /// disarmed). Counters are 1-based: `sync_after: 1` fails the very
    /// next sync. The plan disarms automatically on restart (the
    /// restarted node gets a healthy device).
    DiskFault {
        /// Fail the n-th WAL sync from now.
        sync_after: u64,
        /// Fail the n-th WAL append from now.
        append_after: u64,
        /// Keep failing after the first injected fault (dead device).
        sticky: bool,
    },
    /// Override the node's MVCC retention window (nemesis GC squeeze).
    SetRetention {
        /// New `snapshot_retain` value.
        retain: Time,
    },
    /// A node timer fired. Tagged with the node incarnation that armed it
    /// so timers from before a crash cannot leak into the restarted node
    /// (and duplicate the periodic timer chains).
    TimerFire {
        /// Incarnation that armed the timer.
        inc: u64,
        /// Which timer.
        kind: TimerKind,
    },
}

/// CPU service-time parameters (per-message costs on a node).
#[derive(Clone, Debug)]
pub struct PerfConfig {
    /// Cores per node (testbed: two quad-cores).
    pub cpu_cores: usize,
    /// Service time of a read RPC (row lookup + reply marshalling).
    pub read_service: Time,
    /// Service time of a write RPC / propose handling.
    pub write_service: Time,
    /// Service time of small protocol messages (acks, commits).
    pub peer_service: Time,
    /// Service time of catch-up assembly.
    pub catchup_service: Time,
    /// Service time of handling a propose on a follower. `None` (the
    /// default) charges `write_service`, matching the calibrated paper
    /// figures; scale-out experiments set it lower to model the real
    /// asymmetry between leader RPC handling (OCC check, client reply)
    /// and the follower's append-and-ack.
    pub propose_service: Option<Time>,
}

impl Default for PerfConfig {
    fn default() -> PerfConfig {
        PerfConfig {
            cpu_cores: 8,
            read_service: 1200 * MICROS,
            write_service: 250 * MICROS,
            peer_service: 80 * MICROS,
            catchup_service: 2 * MILLIS,
            propose_service: None,
        }
    }
}

impl PerfConfig {
    fn service_for(&self, input: &NodeInput) -> Time {
        match input {
            NodeInput::Client { req, .. } => {
                if req.op.is_write() {
                    self.write_service
                } else {
                    self.read_service
                }
            }
            NodeInput::Peer { msg, .. } => match msg {
                PeerMsg::Propose { .. } => self.propose_service.unwrap_or(self.write_service),
                PeerMsg::CatchupReq { .. }
                | PeerMsg::CatchupRecords { .. }
                | PeerMsg::Split { .. }
                | PeerMsg::JoinRange { .. }
                | PeerMsg::Merge { .. } => self.catchup_service,
                PeerMsg::Ack { .. }
                | PeerMsg::Commit { .. }
                | PeerMsg::LeaderHello { .. }
                | PeerMsg::CaughtUp { .. }
                | PeerMsg::CohortChange { .. }
                | PeerMsg::MergeProposal { .. }
                | PeerMsg::MergeReady { .. }
                | PeerMsg::MergeAbort { .. } => self.peer_service,
            },
            NodeInput::SplitRange { .. }
            | NodeInput::MoveReplica { .. }
            | NodeInput::MergeRanges { .. } => self.catchup_service,
            NodeInput::Start
            | NodeInput::LogForced { .. }
            | NodeInput::Timer { .. }
            | NodeInput::Coord { .. } => 0,
        }
    }
}

/// Cluster construction parameters.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes (= number of base key ranges).
    pub nodes: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Per-node protocol configuration.
    pub node: NodeConfig,
    /// CPU service times.
    pub perf: PerfConfig,
    /// Logging-device profile (HDD / SSD / EC2 / memory).
    pub disk: DiskProfile,
    /// Network link parameters.
    pub net: NetConfig,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            nodes: 10,
            seed: 42,
            node: NodeConfig::default(),
            perf: PerfConfig::default(),
            disk: DiskProfile::Hdd,
            net: NetConfig::default(),
        }
    }
}

/// Shared mutable world state (single-threaded simulation).
#[derive(Clone)]
pub struct World {
    /// Network model.
    pub net: Rc<RefCell<NetModel>>,
    /// Coordination service.
    pub coord: SharedCoord,
    /// Watch deliveries awaiting routing.
    pub bus: DeliveryBus,
    /// Session → hosting process.
    pub owners: Rc<RefCell<BTreeMap<SessionId, ProcId>>>,
}

impl World {
    fn new(net: NetConfig) -> World {
        World {
            net: Rc::new(RefCell::new(NetModel::new(net))),
            coord: Rc::new(RefCell::new(Coord::new())),
            bus: Rc::new(RefCell::new(Vec::new())),
            owners: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }
}

/// Read the current range table from the coordination service: the
/// ring refresh of [`crate::client::SessionDriver`], public for client
/// hosts outside this crate.
pub fn read_table(world: &World) -> Option<Ring> {
    world
        .coord
        .borrow_mut()
        .get_data(TABLE_PATH, None)
        .ok()
        .and_then(|(data, _)| Ring::decode(&mut data.as_slice()).ok())
}

/// Route pending coordination watch deliveries as node inputs.
/// A small delay models the service→client notification hop.
pub(crate) fn route_deliveries(world: &World, ctx: &mut Ctx<'_, Ev>) {
    let deliveries: Vec<_> = world.bus.borrow_mut().drain(..).collect();
    if deliveries.is_empty() {
        return;
    }
    let owners = world.owners.borrow();
    for (session, event) in deliveries {
        if let Some(&proc) = owners.get(&session) {
            ctx.schedule(300 * MICROS, proc, Ev::Input(NodeInput::Coord(event)));
        }
    }
}

/// Coordination session timeout (the paper's 2 s).
const SESSION_TIMEOUT: Time = 2 * SECS;
/// Supervisor restart delay after a coordination-session expiry.
const SESSION_RESTART_DELAY: Time = 50 * MILLIS;

/// Hosts one [`Node`] inside the simulator.
pub struct NodeHost {
    node_id: NodeId,
    proc: ProcId,
    ring: Ring,
    node_cfg: NodeConfig,
    perf: PerfConfig,
    disk_profile: DiskProfile,
    world: World,
    vfs: MemVfs,
    node: Option<Node>,
    session: SessionId,
    cpu: CpuModel,
    device: LogDevice,
    crashed_image: Option<MemVfs>,
    incarnation: u64,
    /// Injected-fault schedule for this node's WAL files (nemesis).
    fault_plan: Arc<FaultPlan>,
    /// Dissolves executed by this node's crashed incarnations (a `Node`
    /// counts only its own).
    dissolves: DissolveCoverage,
    /// Node-local clock (kernel time + injected skew, monotone).
    clock: SkewedClock,
    /// The node's effects of the input being executed; drained and
    /// reused by every `exec`.
    outbox: Outbox,
}

impl NodeHost {
    fn boot(&mut self, now: Time, ctx: &mut Ctx<'_, Ev>) {
        self.incarnation += 1;
        // Refresh the range table before local recovery: splits performed
        // while this node was down decide which cohorts it must open.
        if let Some(ring) = read_table(&self.world) {
            if ring.version() > self.ring.version() {
                self.ring = ring;
            }
        }
        // Retire the old session's delivery route first: watch events it
        // still owes (notably its own `SessionExpired`) must not reach
        // the new incarnation, which would step down moments after boot.
        if self.session != 0 {
            self.world.owners.borrow_mut().remove(&self.session);
        }
        let session = self.world.coord.borrow_mut().create_session(SESSION_TIMEOUT, now);
        self.world.owners.borrow_mut().insert(session, self.proc);
        self.session = session;
        let cc = CoordClient::new(self.world.coord.clone(), session, self.world.bus.clone());
        // The node reaches its disk through the fault plan, scoped to
        // the WAL: log appends/syncs can be made to fail (nemesis),
        // while SSTable writes stay healthy. With the plan disarmed the
        // wrapper is a pass-through, so non-chaos runs are unaffected.
        let vfs = FaultVfs::scoped(Arc::new(self.vfs.clone()), self.fault_plan.clone(), "wal/");
        let node =
            Node::new(self.node_id, self.ring.clone(), self.node_cfg.clone(), Arc::new(vfs), cc)
                .expect("node construction / local recovery");
        self.node = Some(node);
        self.exec(now, NodeInput::Start, ctx);
    }

    fn exec(&mut self, now: Time, input: NodeInput, ctx: &mut Ctx<'_, Ev>) {
        // Protocol logic runs on the node's (possibly skewed) local
        // clock; the network/disk physics below stay on kernel time.
        let session_expired = matches!(input, NodeInput::Coord(WatchEvent::SessionExpired));
        let node_now = self.clock.now(now);
        let Some(node) = self.node.as_mut() else { return };
        let mut out = std::mem::take(&mut self.outbox);
        node.on_input(node_now, input, &mut out);
        self.device.recycle(std::mem::take(&mut out.spent_tokens));
        let from_node = self.node_id;
        for eff in out.effects.drain(..) {
            match eff {
                crate::messages::Effect::Send { to, msg } => {
                    let bytes = msg.wire_size();
                    let ev = Ev::Input(NodeInput::Peer { from: from_node, msg });
                    self.world.net.borrow_mut().send(ctx, now, self.proc, to, bytes, ev);
                }
                crate::messages::Effect::Reply { to, reply } => {
                    // Replies are charged their real payload (values,
                    // scan pages) rather than a flat constant.
                    let bytes = reply.wire_size();
                    let ev = Ev::Client(ClientEv::Reply(reply));
                    self.world.net.borrow_mut().send(ctx, now, self.proc, to, bytes, ev);
                }
                crate::messages::Effect::ForceLog { token, bytes } => {
                    match self.device.request_force(now, token, bytes, ctx.rng()) {
                        DiskOutcome::SyncScheduled { done_at } => {
                            ctx.schedule_at(done_at, self.proc, Ev::SyncDone);
                        }
                        DiskOutcome::Queued => {}
                    }
                }
                crate::messages::Effect::SetTimer { kind, after } => {
                    ctx.schedule(after, self.proc, Ev::TimerFire { inc: self.incarnation, kind });
                }
            }
        }
        self.outbox = out;
        route_deliveries(&self.world, ctx);
        // Fail-stop: a node whose log device refused an append or a
        // force can no longer keep its durability promises. Crash it
        // here — what survives is the synced prefix, which is exactly
        // what it acknowledged.
        if self.node.as_ref().is_some_and(Node::poisoned) {
            self.crash(false, ctx);
        }
        // An expired session leaves the node unable to hold any znode —
        // it stepped down everywhere and could never stand for election
        // again. Honor the contract its handler documents ("the hosting
        // runtime restarts us with a fresh session"): bounce the process
        // like a supervisor would.
        if session_expired && self.node.is_some() {
            self.crash(false, ctx);
            ctx.schedule(SESSION_RESTART_DELAY, self.proc, Ev::Restart);
        }
    }

    fn crash(&mut self, expire_session: bool, ctx: &mut Ctx<'_, Ev>) {
        if self.node.is_none() {
            return;
        }
        // What survives is exactly the synced prefix of every file.
        self.crashed_image = Some(self.vfs.crash_clone());
        if let Some(node) = self.node.take() {
            self.dissolves.add(node.dissolve_coverage());
        }
        self.world.net.borrow_mut().take_down(self.proc);
        self.cpu = CpuModel::new(self.perf.cpu_cores);
        self.device = LogDevice::new(self.disk_profile);
        if expire_session {
            let deliveries = self.world.coord.borrow_mut().expire_session(self.session);
            self.world.bus.borrow_mut().extend(deliveries);
            route_deliveries(&self.world, ctx);
        }
    }

    fn restart(&mut self, now: Time, ctx: &mut Ctx<'_, Ev>) {
        if self.node.is_some() {
            return;
        }
        if let Some(image) = self.crashed_image.take() {
            self.vfs = image;
        }
        // A restart replaces the disk controller: any armed (possibly
        // sticky) fault is cleared, or recovery would re-poison the node
        // the moment it touched the log.
        self.fault_plan.disarm();
        self.world.net.borrow_mut().bring_up(self.proc);
        // The old session may still linger; expire it so stale ephemerals
        // (e.g. our old leader znode) do not confuse the new incarnation.
        if self.session != 0 {
            let deliveries = self.world.coord.borrow_mut().expire_session(self.session);
            self.world.bus.borrow_mut().extend(deliveries);
        }
        self.boot(now, ctx);
        route_deliveries(&self.world, ctx);
    }

    /// Inspect the hosted node (`None` while crashed).
    pub fn node(&self) -> Option<&Node> {
        self.node.as_ref()
    }

    /// The node's group-commit statistics: (physical syncs, requests).
    pub fn disk_counters(&self) -> (u64, u64) {
        self.device.counters()
    }
}

impl Actor<Ev> for NodeHost {
    fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Ev::Input(input) => {
                if self.node.is_none() {
                    return;
                }
                let service = self.perf.service_for(&input);
                if service == 0 {
                    self.exec(now, input, ctx);
                } else {
                    let done = self.cpu.schedule(now, service);
                    ctx.schedule_at(done, self.proc, Ev::Exec(input));
                }
            }
            Ev::Exec(input) => self.exec(now, input, ctx),
            Ev::SyncDone => {
                if self.node.is_none() {
                    return;
                }
                let (tokens, next) = self.device.complete_sync(now, ctx.rng());
                if let Some(t) = next {
                    ctx.schedule_at(t, self.proc, Ev::SyncDone);
                }
                self.exec(now, NodeInput::LogForced { tokens }, ctx);
            }
            Ev::TimerFire { inc, kind } => {
                if inc == self.incarnation && self.node.is_some() {
                    self.exec(now, NodeInput::Timer(kind), ctx);
                }
            }
            Ev::Crash { expire_session } => self.crash(expire_session, ctx),
            Ev::Restart => self.restart(now, ctx),
            Ev::SetSkew { offset } => self.clock.set_offset(offset),
            Ev::DiskFault { sync_after, append_after, sticky } => {
                self.fault_plan.set_sticky(sticky);
                if sync_after > 0 {
                    self.fault_plan.fail_sync_after(sync_after);
                }
                if append_after > 0 {
                    self.fault_plan.fail_append_after(append_after);
                }
            }
            Ev::SetRetention { retain } => {
                // Survives restarts: the host's config template and the
                // live node both learn the squeezed window.
                self.node_cfg.snapshot_retain = retain;
                if let Some(node) = self.node.as_mut() {
                    node.set_snapshot_retain(retain);
                }
            }
            Ev::Client(_) | Ev::CoordTick => {}
        }
    }
}

/// Periodically sweeps coordination sessions (heartbeat expiry).
struct CoordTicker {
    world: World,
    interval: Time,
    me: ProcId,
}

impl Actor<Ev> for CoordTicker {
    fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        if matches!(ev, Ev::CoordTick) {
            let deliveries = self.world.coord.borrow_mut().tick(now);
            self.world.bus.borrow_mut().extend(deliveries);
            route_deliveries(&self.world, ctx);
            ctx.schedule(self.interval, self.me, Ev::CoordTick);
        }
    }
}

/// A complete simulated Spinnaker cluster.
pub struct SimCluster {
    /// The underlying simulator (exposed for custom schedules).
    pub sim: Sim<Ev>,
    /// Shared world state.
    pub world: World,
    /// The partition/replication layout.
    pub ring: Ring,
    cfg: ClusterConfig,
    hosts: Vec<Rc<RefCell<NodeHost>>>,
}

impl SimCluster {
    /// Build a cluster; node `i` is hosted by process id `i`. Node boots
    /// are scheduled at time zero; advance with [`SimCluster::run_until`].
    pub fn new(cfg: ClusterConfig) -> SimCluster {
        let ring = Ring::with_nodes(cfg.nodes);
        let world = World::new(cfg.net.clone());
        // Publish the initial range table: nodes and clients read (and
        // watch) it here, and splits update it through the same znode.
        {
            let mut coord = world.coord.borrow_mut();
            let boot = coord.create_session(u64::MAX / 2, 0);
            // Both run on a fresh coordination service, where neither
            // znode exists yet and the boot session is live.
            let _ = coord.create(boot, "/ranges", Vec::new(), CreateMode::Persistent);
            let _ = coord.create(boot, TABLE_PATH, ring.encode_to_vec(), CreateMode::Persistent);
        }
        let mut sim: Sim<Ev> = Sim::new(cfg.seed);
        let mut hosts = Vec::with_capacity(cfg.nodes);
        for node_id in 0..cfg.nodes as NodeId {
            let host = Rc::new(RefCell::new(NodeHost {
                node_id,
                proc: node_id,
                ring: ring.clone(),
                node_cfg: cfg.node.clone(),
                perf: cfg.perf.clone(),
                disk_profile: cfg.disk,
                world: world.clone(),
                vfs: MemVfs::new(),
                node: None,
                session: 0,
                cpu: CpuModel::new(cfg.perf.cpu_cores),
                device: LogDevice::new(cfg.disk),
                crashed_image: None,
                incarnation: 0,
                fault_plan: FaultPlan::new(),
                dissolves: DissolveCoverage::default(),
                clock: SkewedClock::new(),
                outbox: Outbox::default(),
            }));
            let proc = sim.add_actor(Box::new(host.clone()));
            assert_eq!(proc, node_id, "node procs must equal node ids");
            hosts.push(host);
        }
        let ticker_proc = cfg.nodes as ProcId;
        let ticker = CoordTicker { world: world.clone(), interval: 100 * MILLIS, me: ticker_proc };
        let proc = sim.add_actor(Box::new(ticker));
        assert_eq!(proc, ticker_proc);
        sim.schedule(0, ticker_proc, Ev::CoordTick);

        // Boot every node at t=0 (local recovery + elections).
        for node_id in 0..cfg.nodes as ProcId {
            sim.schedule(0, node_id, Ev::Restart);
        }
        SimCluster { sim, world, ring, cfg, hosts }
    }

    /// Register a closed-loop client; it starts issuing at `start_at` and
    /// records latency for requests *completing* within
    /// `[measure_from, measure_to]`.
    pub fn add_client(
        &mut self,
        workload: Workload,
        start_at: Time,
        measure_from: Time,
        measure_to: Time,
    ) -> Rc<RefCell<ClientStats>> {
        self.add_client_pipelined(workload, 1, start_at, measure_from, measure_to)
    }

    /// Register a closed-loop client keeping up to `pipeline` calls
    /// outstanding at once (1 = the classic one-op loop). Pipelined
    /// clients multiply offered load per client and give leaders real
    /// batches to group-commit.
    pub fn add_client_pipelined(
        &mut self,
        workload: Workload,
        pipeline: usize,
        start_at: Time,
        measure_from: Time,
        measure_to: Time,
    ) -> Rc<RefCell<ClientStats>> {
        let stats = Rc::new(RefCell::new(ClientStats::default()));
        // Two-phase registration: reserve the proc id, then build the
        // client that knows it.
        let proc = self.sim.add_actor(Box::new(Idle));
        let client = ClientHost::new(
            proc,
            // Clients start from the boot-time table — even when added
            // late — and converge through WrongRange refreshes, exactly
            // like a real client holding a cached table.
            self.ring.clone(),
            workload,
            self.world.clone(),
            stats.clone(),
            (measure_from, measure_to),
            pipeline,
        );
        self.sim.replace_actor(proc, Box::new(client));
        self.sim.schedule(start_at, proc, Ev::Client(ClientEv::Start));
        stats
    }

    /// Run a fixed list of typed [`SessionCall`]s strictly in order
    /// through a dedicated session client starting at `start_at`. Every
    /// call's [`crate::session::CallOutcome`] lands in the returned
    /// stats' `outcomes`, in submission order — the harness for tests
    /// that exercise the §3 surface end to end.
    pub fn add_session(
        &mut self,
        calls: Vec<SessionCall>,
        start_at: Time,
    ) -> Rc<RefCell<ClientStats>> {
        self.add_client(Workload::Script(Rc::new(calls)), start_at, 0, u64::MAX)
    }

    /// Crash node `id` at time `at`.
    pub fn crash_node(&mut self, at: Time, id: NodeId, expire_session: bool) {
        self.sim.schedule(at, id, Ev::Crash { expire_session });
    }

    /// Ask for `range` to be split so `at_key` starts the new right-hand
    /// child. The request is broadcast to every node at time `at`; only
    /// the range's current leader acts on it (everyone else ignores it),
    /// so the caller does not need to know who leads.
    pub fn split_range(&mut self, at: Time, range: RangeId, at_key: Key) {
        for node in 0..self.cfg.nodes as ProcId {
            self.sim.schedule(
                at,
                node,
                Ev::Input(NodeInput::SplitRange { range, at: at_key.clone() }),
            );
        }
    }

    /// Ask for `range`'s replica on node `from` to move to node `to`
    /// (the joiner catches up from empty, CAS cohort swap). The request is
    /// broadcast at time `at`; only the range's current leader acts.
    pub fn move_replica(&mut self, at: Time, range: RangeId, from: NodeId, to: NodeId) {
        for node in 0..self.cfg.nodes as ProcId {
            self.sim.schedule(at, node, Ev::Input(NodeInput::MoveReplica { range, from, to }));
        }
    }

    /// Ask for the adjacent, same-cohort ranges `left` and `right` to be
    /// merged back into one. The request is broadcast at time `at`; only
    /// the left range's current leader acts.
    pub fn merge_ranges(&mut self, at: Time, left: RangeId, right: RangeId) {
        for node in 0..self.cfg.nodes as ProcId {
            self.sim.schedule(at, node, Ev::Input(NodeInput::MergeRanges { left, right }));
        }
    }

    /// A crash-consistent clone of node `id`'s filesystem (tests:
    /// store-directory GC assertions).
    pub fn node_vfs(&self, id: NodeId) -> MemVfs {
        self.hosts[id as usize].borrow().vfs.clone()
    }

    /// The current (possibly split) range table, as published in the
    /// coordination service. Falls back to the initial layout if the
    /// table was never published.
    pub fn current_ring(&self) -> Ring {
        read_table(&self.world).unwrap_or_else(|| self.ring.clone())
    }

    /// Restart node `id` at time `at` from its synced on-disk state.
    pub fn restart_node(&mut self, at: Time, id: NodeId) {
        self.sim.schedule(at, id, Ev::Restart);
    }

    /// Skew node `id`'s clock by `offset` from time `at` on (nemesis).
    pub fn set_clock_skew(&mut self, at: Time, id: NodeId, offset: i64) {
        self.sim.schedule(at, id, Ev::SetSkew { offset });
    }

    /// Arm a WAL disk fault on node `id` at time `at`: the n-th sync
    /// and/or append from then on fails (`0` = leave that kind
    /// disarmed); `sticky` keeps the device dead until restart.
    pub fn inject_disk_fault(
        &mut self,
        at: Time,
        id: NodeId,
        sync_after: u64,
        append_after: u64,
        sticky: bool,
    ) {
        self.sim.schedule(at, id, Ev::DiskFault { sync_after, append_after, sticky });
    }

    /// Squeeze (or relax) node `id`'s MVCC retention window at `at`.
    pub fn set_retention(&mut self, at: Time, id: NodeId, retain: Time) {
        self.sim.schedule(at, id, Ev::SetRetention { retain });
    }

    /// True when node `id` is currently up (booted and not crashed).
    pub fn is_up(&self, id: NodeId) -> bool {
        self.hosts[id as usize].borrow().node.is_some()
    }

    /// Every dissolve any node has executed so far, over all of its
    /// incarnations (see [`Node::dissolve_coverage`]).
    pub fn dissolve_coverage(&self) -> DissolveCoverage {
        let mut sum = DissolveCoverage::default();
        for host in &self.hosts {
            let host = host.borrow();
            sum.add(&host.dissolves);
            if let Some(node) = host.node() {
                sum.add(node.dissolve_coverage());
            }
        }
        sum
    }

    /// Advance virtual time.
    pub fn run_until(&mut self, t: Time) {
        self.sim.run_until(t);
    }

    /// Inspect a node (`None` while crashed).
    pub fn with_node<T>(&self, id: NodeId, f: impl FnOnce(&Node) -> T) -> Option<T> {
        let host = self.hosts[id as usize].borrow();
        host.node().map(f)
    }

    /// The current leader of `range` according to any live cohort member.
    /// Consults the *current* table so it keeps working across splits.
    pub fn leader_of(&self, range: RangeId) -> Option<NodeId> {
        let cohort = {
            let c = self.current_ring().cohort(range);
            if c.is_empty() {
                self.ring.cohort(range)
            } else {
                c
            }
        };
        for &member in &cohort {
            let host = self.hosts[member as usize].borrow();
            if let Some(node) = host.node() {
                if node.role(range) == Role::Leader {
                    return Some(member);
                }
            }
        }
        None
    }

    /// Node `id`'s role for `range` (`None` while crashed). A health
    /// diagnostic for chaos harnesses: distinguishes a cohort wedged in
    /// election/takeover from one that merely lost its leader znode.
    pub fn role_of(&self, range: RangeId, id: NodeId) -> Option<Role> {
        self.hosts[id as usize].borrow().node().map(|n| n.role(range))
    }

    /// True when every range of the current table has an open leader.
    pub fn all_ranges_led(&self) -> bool {
        self.current_ring().ranges().all(|r| self.leader_of(r).is_some())
    }

    /// Cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Group-commit counters summed over all nodes: (syncs, requests).
    pub fn disk_counters(&self) -> (u64, u64) {
        let mut syncs = 0;
        let mut reqs = 0;
        for h in &self.hosts {
            let (s, r) = h.borrow().disk_counters();
            syncs += s;
            reqs += r;
        }
        (syncs, reqs)
    }
}
