//! The hand pump: three [`Node`]s, a local coordination service and one
//! message queue the test controls — which messages are lost, whose log
//! forces complete, who crashes with what on disk. No simulator and no
//! timing, so every interleaving a test needs can be written down
//! exactly. Shared by path (`#[path = "support/pump.rs"] mod pump;`)
//! between the crate's integration tests.
//!
//! - [`Pump::new`] (or [`Pump::with_cfg`]) gives three booted nodes with
//!   node 0 leading range 0 in epoch 1; [`Pump::unsettled`] three nodes
//!   nobody started.
//! - [`Pump::feed`] and [`Pump::run`] deliver and route: peer sends are
//!   queued unless [`Pump::lose`] drops them, force requests complete at
//!   once unless [`Pump::hold_forces`] withholds them, coordination
//!   events reach the node whose session they name unless
//!   [`Pump::hold_events`] withholds them, and a poisoned node is
//!   crashed, as the simulator's host does. `run` panics after
//!   [`MAX_DELIVERIES`], naming the last messages sent, so an endless
//!   exchange fails instead of hanging. [`Pump::put_all`],
//!   [`Pump::commit_tick`], [`Pump::maintenance`] and [`Pump::read`]
//!   are the usual steps, each run to quiescence.
//! - [`Pump::step`] runs one `on_input` and hands back its effects,
//!   routing nothing, for tests that drive a node by hand and assert on
//!   them ([`sends`], [`replies`], [`force_tokens`]).
//! - [`Pump::crash`] keeps only the synced bytes of a node's disk and
//!   expires its session; [`Pump::boot`] restarts it from them. The fault
//!   plans [`Pump::faults`] (`wal/`) and [`Pump::store_faults`]
//!   (`store-r*`) make its device fail.
//! - Every `on_input` goes through [`Pump::step`], which counts what it
//!   allocates into [`Pump::allocs`] (non-zero only in a test binary that
//!   installs the counting allocator) and reuses one [`Outbox`], as the
//!   simulator's host does.
//!
//! A failing nemesis seed, once shrunk, is usually a few lines of this:
//! shape the interleaving with `lose`, the holds, the fault plans and
//! `crash` / `boot`, then assert on reads, [`Pump::sent`] or a node's
//! log. Show the test failing at the parent commit before fixing.

// Each test binary uses its own part of the pump.
#![allow(dead_code)]

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use spinnaker_common::codec::Encode;
use spinnaker_common::vfs::{FaultPlan, FaultVfs, MemVfs};
use spinnaker_common::{Consistency, Key, Lsn, RangeId};
use spinnaker_coord::{Coord, CreateMode, Delivery, SessionId};
use spinnaker_core::coordcli::CoordClient;
use spinnaker_core::messages::{ClientReply, Effect, NodeInput, Outbox, PeerMsg, TimerKind};
use spinnaker_core::node::{get_request, put_request, Node, NodeConfig, Role};
use spinnaker_core::partition::{u64_to_key, Ring, TABLE_PATH};

#[path = "../../../common/tests/support/counting_alloc.rs"]
pub mod counting_alloc;
use counting_alloc::allocations;

pub const R0: RangeId = RangeId(0);
pub const R1: RangeId = RangeId(1);
pub const CLIENT: u32 = 99;

/// Inputs one [`Pump::run`] may deliver. A protocol that is still
/// talking after this many is in an endless exchange.
const MAX_DELIVERIES: usize = 100_000;

/// Decides which peer messages are lost: `(from, to, message)`.
pub type Lose = Box<dyn FnMut(usize, usize, &PeerMsg) -> bool>;

/// An input that sent proposes: the node it was fed to, what that node
/// allocated handling it, and where its sends start in [`Pump::sent`].
pub struct Proposing {
    pub node: usize,
    pub allocs: u64,
    pub since: usize,
}

pub struct Pump {
    coord: Rc<RefCell<Coord>>,
    bus: Rc<RefCell<Vec<Delivery>>>,
    pub ring: Ring,
    cfg: NodeConfig,
    /// Each node's disk; a crash keeps the synced prefix of every file.
    pub disks: Vec<MemVfs>,
    /// Faults in each node's log files (`wal/`)...
    pub faults: Vec<Arc<FaultPlan>>,
    /// ...and in its table files (`store-r*/`).
    pub store_faults: Vec<Arc<FaultPlan>>,
    pub nodes: Vec<Option<Node>>,
    sessions: BTreeMap<SessionId, usize>,
    pub queue: VecDeque<(usize, NodeInput)>,
    pub lose: Lose,
    /// Nodes whose force completions are withheld (and lost in a crash).
    pub hold_forces: [bool; 3],
    /// Nodes that hear nothing from the coordination service.
    pub hold_events: [bool; 3],
    /// Every peer message delivered or lost, in send order.
    pub sent: Vec<(usize, usize, PeerMsg)>,
    /// Request ids acknowledged with `WriteOk`.
    pub written: Vec<u64>,
    /// The row of the last answered get.
    last_row: Option<Vec<u8>>,
    /// Gets and scan pages answered (with whatever content).
    pub reads_answered: usize,
    pub next_req: u64,
    /// Allocations made inside `on_input`, per node.
    pub allocs: [u64; 3],
    /// The routed inputs that sent proposes, in delivery order.
    pub proposing: Vec<Proposing>,
    /// Handed to every `on_input` and taken back once routed.
    out: Outbox,
}

impl Pump {
    /// Three nodes booted and settled: node 0 leads range 0 in epoch 1.
    pub fn new() -> Pump {
        Pump::with_cfg(NodeConfig::default())
    }

    pub fn with_cfg(cfg: NodeConfig) -> Pump {
        let mut pump = Pump::built(cfg);
        for node in 0..3 {
            pump.queue.push_back((node, NodeInput::Start));
        }
        pump.run();
        assert_eq!(pump.role(0), Role::Leader, "election settled");
        assert_eq!(pump.node(0).epoch_of(R0), 1);
        pump
    }

    /// Three nodes built from empty disks, none of them started.
    pub fn unsettled() -> Pump {
        Pump::built(NodeConfig::default())
    }

    fn built(cfg: NodeConfig) -> Pump {
        let mut pump = Pump {
            coord: Rc::new(RefCell::new(Coord::new())),
            bus: Rc::new(RefCell::new(Vec::new())),
            ring: Ring::with_nodes(3),
            cfg,
            disks: (0..3).map(|_| MemVfs::new()).collect(),
            faults: (0..3).map(|_| FaultPlan::new()).collect(),
            store_faults: (0..3).map(|_| FaultPlan::new()).collect(),
            nodes: vec![None, None, None],
            sessions: BTreeMap::new(),
            queue: VecDeque::new(),
            lose: Box::new(|_, _, _| false),
            hold_forces: [false; 3],
            hold_events: [false; 3],
            sent: Vec::new(),
            written: Vec::new(),
            last_row: None,
            reads_answered: 0,
            next_req: 1,
            allocs: [0; 3],
            proposing: Vec::new(),
            out: Outbox::default(),
        };
        // Publish the range table, as a deployment does: splits and
        // merges are compare-and-sets on it.
        {
            let mut coord = pump.coord.borrow_mut();
            let session = coord.create_session(u64::MAX / 2, 0);
            coord.create(session, "/ranges", Vec::new(), CreateMode::Persistent).unwrap();
            let table = pump.ring.encode_to_vec();
            coord.create(session, TABLE_PATH, table, CreateMode::Persistent).unwrap();
        }
        for node in 0..3 {
            pump.open(node);
        }
        pump
    }

    /// Build node `i` from its disk with a fresh coordination session,
    /// without starting it.
    fn open(&mut self, i: usize) {
        let session = self.coord.borrow_mut().create_session(u64::MAX / 2, 0);
        self.sessions.insert(session, i);
        let cc = CoordClient::new(self.coord.clone(), session, self.bus.clone());
        let vfs = FaultVfs::scoped(Arc::new(self.disks[i].clone()), self.faults[i].clone(), "wal/");
        let vfs = FaultVfs::scoped(Arc::new(vfs), self.store_faults[i].clone(), "store-r");
        let node = Node::new(i as u32, self.ring.clone(), self.cfg.clone(), Arc::new(vfs), cc)
            .expect("local recovery");
        self.nodes[i] = Some(node);
    }

    /// Start node `i` from its disk with a fresh coordination session.
    pub fn boot(&mut self, i: usize) {
        self.open(i);
        self.queue.push_back((i, NodeInput::Start));
    }

    /// Crash node `i`: its memory and unsynced bytes are gone, its
    /// session expires at once, what was queued for it is lost.
    pub fn crash(&mut self, i: usize) {
        self.nodes[i] = None;
        self.disks[i] = self.disks[i].crash_clone();
        self.faults[i].disarm();
        self.store_faults[i].disarm();
        self.queue.retain(|(to, _)| *to != i);
        let session = *self.sessions.iter().find(|(_, n)| **n == i).expect("had a session").0;
        self.sessions.remove(&session);
        let deliveries = self.coord.borrow_mut().expire_session(session);
        self.bus.borrow_mut().extend(deliveries);
        self.route_events();
    }

    fn route_events(&mut self) {
        let deliveries: Vec<Delivery> = self.bus.borrow_mut().drain(..).collect();
        for (session, event) in deliveries {
            if let Some(&node) = self.sessions.get(&session) {
                if !self.hold_events[node] {
                    self.queue.push_back((node, NodeInput::Coord(event)));
                }
            }
        }
    }

    /// One `on_input` of node `i`, counted; its effects are returned and
    /// nothing is routed.
    pub fn step(&mut self, i: usize, input: NodeInput) -> Outbox {
        let mut out = std::mem::take(&mut self.out);
        let node = self.nodes[i].as_mut().expect("node is up");
        let (allocs, ()) = allocations(|| node.on_input(0, input, &mut out));
        self.allocs[i] += allocs;
        out
    }

    /// One `on_input` of node `i` (none if it is down), its effects
    /// routed.
    pub fn feed(&mut self, i: usize, input: NodeInput) {
        if self.nodes[i].is_none() {
            return;
        }
        let (since, before) = (self.sent.len(), self.allocs[i]);
        let mut out = self.step(i, input);
        let mut tokens = Vec::new();
        for effect in out.effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    let to = to as usize;
                    let lost = (self.lose)(i, to, &msg);
                    self.sent.push((i, to, msg.clone()));
                    if !lost {
                        self.queue.push_back((to, NodeInput::Peer { from: i as u32, msg }));
                    }
                }
                Effect::ForceLog { token, .. } => tokens.push(token),
                Effect::Reply { reply, .. } => match reply {
                    ClientReply::WriteOk { req, .. } => self.written.push(req),
                    ClientReply::Row { cells, .. } => {
                        self.reads_answered += 1;
                        self.last_row =
                            cells.first().and_then(|c| c.value.clone()).map(|v| v.to_vec());
                    }
                    ClientReply::Rows { .. } => self.reads_answered += 1,
                    other => panic!("unexpected reply {other:?}"),
                },
                Effect::SetTimer { .. } => {}
            }
        }
        self.out = out;
        if self.sent[since..].iter().any(|(_, _, m)| matches!(m, PeerMsg::Propose { .. })) {
            self.proposing.push(Proposing { node: i, allocs: self.allocs[i] - before, since });
        }
        if !tokens.is_empty() && !self.hold_forces[i] {
            self.queue.push_back((i, NodeInput::LogForced { tokens }));
        }
        self.route_events();
        // Fail-stop, as the simulator's host does it.
        if self.node(i).poisoned() {
            self.crash(i);
        }
    }

    /// Deliver until nothing is queued; panic, naming the last messages
    /// sent, if that takes more than [`MAX_DELIVERIES`] inputs.
    pub fn run(&mut self) {
        for _ in 0..MAX_DELIVERIES {
            let Some((node, input)) = self.queue.pop_front() else { return };
            self.feed(node, input);
        }
        if self.queue.is_empty() {
            return;
        }
        let last: Vec<String> = self.sent[self.sent.len().saturating_sub(8)..]
            .iter()
            .map(|(from, to, m)| {
                let debug = format!("{m:?}");
                format!("{from}->{to} {}", debug.split(' ').next().unwrap_or_default())
            })
            .collect();
        panic!("still delivering after {MAX_DELIVERIES} inputs; last sent: {}", last.join(", "));
    }

    pub fn node(&self, i: usize) -> &Node {
        self.nodes[i].as_ref().expect("node is up")
    }

    pub fn role(&self, i: usize) -> Role {
        self.node(i).role(R0)
    }

    /// The range key `k` routes to under node `i`'s table.
    pub fn range_of(&self, i: usize, k: u64) -> RangeId {
        self.node(i).ring().range_of(&u64_to_key(k))
    }

    /// The node leading `range`.
    pub fn leader_of(&self, range: RangeId) -> usize {
        let leads =
            |i: &usize| self.nodes[*i].as_ref().is_some_and(|n| n.role(range) == Role::Leader);
        (0..3).find(leads).unwrap_or_else(|| panic!("{range} has a leader"))
    }

    /// The maintenance tick (with `gc_quiesce` 0 it also collects what
    /// the node has dissolved).
    pub fn maintenance(&mut self, i: usize) {
        self.feed(i, NodeInput::Timer(TimerKind::Maintenance));
        self.run();
    }

    /// `(LSN, key)` of every write record in node `i`'s log stream of
    /// `range` past `from`.
    pub fn stream(&self, i: usize, range: RangeId, from: Lsn) -> Vec<(Lsn, Key)> {
        let wal = self.node(i).wal();
        let records = wal.read_range(range, from, wal.state(range).last_lsn).expect("readable");
        records.into_iter().map(|(lsn, op)| (lsn, op.key)).collect()
    }

    /// Submit a put of key `k` to `leader` (not yet delivered anywhere
    /// else); returns its request id.
    pub fn put(&mut self, leader: usize, k: u64) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        let request = put_request(req, u64_to_key(k), "c", format!("v{k}").as_bytes());
        self.feed(leader, NodeInput::Client { from: CLIENT, req: request });
        req
    }

    /// Put `keys` one by one through `leader`, each run to quiescence.
    pub fn put_all(&mut self, leader: usize, keys: impl IntoIterator<Item = u64>) {
        for k in keys {
            let req = self.put(leader, k);
            self.run();
            assert!(self.written.contains(&req), "put of key {k} acknowledged");
        }
    }

    /// The leader's periodic commit message.
    pub fn commit_tick(&mut self, leader: usize) {
        self.feed(leader, NodeInput::Timer(TimerKind::CommitPeriod));
        self.run();
    }

    /// What node `i` reads for key `k` (strong on a leader, timeline on a
    /// follower); it must answer at once.
    pub fn read(&mut self, i: usize, k: u64) -> Option<Vec<u8>> {
        let leads = self.node(i).role(self.range_of(i, k)) == Role::Leader;
        let consistency = if leads { Consistency::Strong } else { Consistency::Timeline };
        let req = get_request(self.next_req, u64_to_key(k), "c", consistency);
        self.next_req += 1;
        self.last_row = None;
        let answered = self.reads_answered;
        self.feed(i, NodeInput::Client { from: CLIENT, req });
        assert_eq!(self.reads_answered, answered + 1, "node {i} answered the read of key {k}");
        self.last_row.take()
    }

    /// The `(first LSN, op count)` of every propose `from` sent `to`
    /// since index `since` of the send log.
    pub fn proposes(&self, since: usize, from: usize, to: usize) -> Vec<(Lsn, usize)> {
        self.sent[since..]
            .iter()
            .filter(|(f, t, _)| (*f, *t) == (from, to))
            .filter_map(|(_, _, m)| match m {
                PeerMsg::Propose { lsn, ops, .. } => Some((*lsn, ops.len())),
                _ => None,
            })
            .collect()
    }

    /// How many messages `from` sent since index `since` of the send log
    /// that `pred` picks.
    pub fn count_sent(&self, since: usize, from: usize, pred: impl Fn(&PeerMsg) -> bool) -> usize {
        self.sent[since..].iter().filter(|(f, _, m)| *f == from && pred(m)).count()
    }
}

/// The `(to, message)` of every peer send in `out`.
pub fn sends(out: &Outbox) -> Vec<(u32, &PeerMsg)> {
    out.effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send { to, msg } => Some((*to, msg)),
            _ => None,
        })
        .collect()
}

/// The client replies in `out`.
pub fn replies(out: &Outbox) -> Vec<&ClientReply> {
    out.effects
        .iter()
        .filter_map(|e| match e {
            Effect::Reply { reply, .. } => Some(reply),
            _ => None,
        })
        .collect()
}

/// The force tokens `out` asks for.
pub fn force_tokens(out: &Outbox) -> Vec<u64> {
    out.effects
        .iter()
        .filter_map(|e| match e {
            Effect::ForceLog { token, .. } => Some(*token),
            _ => None,
        })
        .collect()
}
