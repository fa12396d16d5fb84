//! The direct host: three real [`Node`]s pumped by hand, every
//! `Node::on_input` call and every file-system call inside it wrapped in
//! a span.
//!
//! Modelled on `crates/core/tests/node_unit.rs::pump`: effects are
//! delivered instantly, log forces complete as soon as no message is in
//! flight, and a virtual `now` drives a timer queue. A workload's own
//! generated operations are fed through a real [`Session`] one *round*
//! at a time (1 or 8 operations per round), so the spans show what each
//! layer costs on exactly the inputs the timed run uses — without the
//! simulator's event queue in between.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use spinnaker_common::vfs::MemVfs;
use spinnaker_common::{Consistency, Key, RangeId};
use spinnaker_coord::SessionId;
use spinnaker_core::coordcli::{CoordClient, DeliveryBus, SharedCoord};
use spinnaker_core::messages::{
    ClientOp, ClientReply, Effect, NodeInput, Outbox, PeerMsg, TimerKind,
};
use spinnaker_core::node::{Node, NodeConfig, Role as NodeRole};
use spinnaker_core::partition::Ring;
use spinnaker_core::session::{CallId, Session, SessionCall, SessionStep};

use crate::alloc;
use crate::counters::ratio;
use crate::gen::{value_of, Check, Class, Op, OpGen, Role, CLASSES};
use crate::metrics::Values;
use crate::trace::{CountingVfs, KindTotal, Tracer};

const NODES: usize = 3;
/// Virtual time charged per fed operation (the timed runs complete
/// roughly one operation per 20 us of virtual time).
const NS_PER_OP: u64 = 20_000;
const CLIENT_ADDR: u32 = 1000;

/// What the host is asked to run.
pub struct Script {
    /// Node configuration (the workload's store sizing).
    pub node: NodeConfig,
    /// Value bytes per put.
    pub value_size: usize,
    /// Generators of the 8-per-round load phase, used round-robin.
    pub load_b8: Vec<OpGen>,
    /// Operations of that phase.
    pub load_b8_ops: usize,
    /// Generators of the 1-per-round load phase (a fresh copy of the
    /// same stream: it writes the first keys again).
    pub load_b1: Vec<OpGen>,
    /// Operations of that phase.
    pub load_b1_ops: usize,
    /// The workload's measured fleet, used round-robin.
    pub mix: Vec<OpGen>,
    /// Mix operations (1 per round).
    pub mix_ops: usize,
    /// Strong gets of written keys after the mix.
    pub gets: usize,
    /// Pinned snapshot scans (32 rows, 8 per page) after the mix.
    pub scans: usize,
    /// Seed of the host's own draws (replica choice, read sampling).
    pub seed: u64,
}

/// What one pass over a [`Script`] measured.
pub struct Pass {
    /// Wall seconds of the whole script.
    pub wall_s: f64,
    /// Client operations finished correctly, by class.
    pub done: [u64; CLASSES],
    /// Operations with a wrong outcome.
    pub bad: u64,
    /// Puts of the 8-per-round load phase.
    pub puts_b8: u64,
    /// Span totals over the 8-per-round load phase.
    pub b8: BTreeMap<&'static str, KindTotal>,
    /// Puts of the 1-per-round load phase.
    pub puts_b1: u64,
    /// Span totals over the 1-per-round load phase.
    pub b1: BTreeMap<&'static str, KindTotal>,
    /// Allocator calls over the 8-per-round load phase.
    pub allocs_b8: u64,
    /// Span totals over the whole script.
    pub all: BTreeMap<&'static str, KindTotal>,
    /// The tracer (spans for the trace file).
    pub tracer: Arc<Tracer>,
}

struct Host {
    nodes: Vec<Node>,
    bus: DeliveryBus,
    owner: BTreeMap<SessionId, usize>,
    tracer: Arc<Tracer>,
    now: u64,
    timers: BTreeMap<(u64, u64), (usize, TimerKind)>,
    timer_seq: u64,
    queue: VecDeque<(usize, NodeInput)>,
    forces: [Vec<u64>; NODES],
    replies: Vec<ClientReply>,
    session: Session,
    rng: SmallRng,
    next_op: u64,
    pending: BTreeMap<CallId, (usize, Op)>,
    done: [u64; CLASSES],
    bad: u64,
    written: Vec<Key>,
}

fn kind_name(input: &NodeInput) -> &'static str {
    match input {
        NodeInput::Start => "start",
        NodeInput::Client { req, .. } => match &req.op {
            ClientOp::Get { .. } => "client_get",
            ClientOp::Scan { .. } => "scan_page",
            ClientOp::Put { .. }
            | ClientOp::Delete { .. }
            | ClientOp::ConditionalPut { .. }
            | ClientOp::ConditionalDelete { .. } => "client_put",
        },
        NodeInput::Peer { msg, .. } => match msg {
            PeerMsg::Propose { .. } => "propose",
            PeerMsg::Ack { .. } => "ack",
            PeerMsg::Commit { .. } => "commit",
            PeerMsg::LeaderHello { .. }
            | PeerMsg::CatchupReq { .. }
            | PeerMsg::CatchupRecords { .. }
            | PeerMsg::CaughtUp { .. }
            | PeerMsg::JoinRange { .. }
            | PeerMsg::CohortChange { .. }
            | PeerMsg::MergeProposal { .. }
            | PeerMsg::MergeReady { .. }
            | PeerMsg::MergeAbort { .. }
            | PeerMsg::Merge { .. }
            | PeerMsg::Split { .. } => "peer_other",
        },
        NodeInput::LogForced { .. } => "log_forced",
        NodeInput::Timer(_) => "timer",
        NodeInput::Coord(_) => "coord",
        NodeInput::SplitRange { .. }
        | NodeInput::MoveReplica { .. }
        | NodeInput::MergeRanges { .. } => "admin",
    }
}

impl Host {
    fn new(cfg: &NodeConfig, tracer: Arc<Tracer>, seed: u64) -> Result<Host, String> {
        let coord = SharedCoord::default();
        let bus = DeliveryBus::default();
        let ring = Ring::with_nodes(NODES);
        let mut nodes = Vec::new();
        let mut owner = BTreeMap::new();
        for id in 0..NODES {
            let session = coord.borrow_mut().create_session(u64::MAX / 2, 0);
            owner.insert(session, id);
            let cc = CoordClient::new(coord.clone(), session, bus.clone());
            let vfs = Arc::new(CountingVfs::new(Arc::new(MemVfs::new()), tracer.clone()));
            let node = Node::new(id as u32, ring.clone(), cfg.clone(), vfs, cc)
                .map_err(|e| format!("direct host: node {id} failed to open: {e}"))?;
            nodes.push(node);
        }
        let mut host = Host {
            nodes,
            bus,
            owner,
            tracer,
            now: 0,
            timers: BTreeMap::new(),
            timer_seq: 0,
            queue: VecDeque::new(),
            forces: Default::default(),
            replies: Vec::new(),
            session: Session::new(ring.clone(), 8),
            rng: SmallRng::seed_from_u64(seed),
            next_op: 1,
            pending: BTreeMap::new(),
            done: [0; CLASSES],
            bad: 0,
            written: Vec::new(),
        };
        for id in 0..NODES {
            host.feed(id, NodeInput::Start);
        }
        host.pump();
        // Elections ride on watch events and the election-retry timer.
        for _ in 0..200 {
            let led =
                ring.ranges().all(|r| host.nodes.iter().any(|n| n.role(r) == NodeRole::Leader));
            if led {
                return Ok(host);
            }
            host.advance(10_000_000);
        }
        Err("direct host: elections did not settle".into())
    }

    /// One `Node::on_input` call, wrapped in a span named by input kind.
    fn feed(&mut self, node: usize, input: NodeInput) {
        let mut out = Outbox::default();
        {
            self.tracer.set_context(self.next_op, node as u32);
            let _span = self.tracer.span(kind_name(&input));
            self.nodes[node].on_input(self.now, input, &mut out);
        }
        for effect in out.effects {
            match effect {
                Effect::Send { to, msg } => {
                    self.queue.push_back((to as usize, NodeInput::Peer { from: node as u32, msg }));
                }
                Effect::Reply { reply, .. } => self.replies.push(reply),
                Effect::ForceLog { token, .. } => self.forces[node].push(token),
                Effect::SetTimer { kind, after } => {
                    self.timers.insert((self.now + after, self.timer_seq), (node, kind));
                    self.timer_seq += 1;
                }
            }
        }
        let deliveries: Vec<_> = self.bus.borrow_mut().drain(..).collect();
        for (session, event) in deliveries {
            if let Some(&to) = self.owner.get(&session) {
                self.queue.push_back((to, NodeInput::Coord(event)));
            }
        }
    }

    /// Deliver until quiescent. Forces complete only when no message is
    /// in flight, so writes fed in one round share batches.
    fn pump(&mut self) {
        loop {
            if let Some((to, input)) = self.queue.pop_front() {
                if to < NODES {
                    self.feed(to, input);
                }
            } else if let Some(node) = (0..NODES).find(|n| !self.forces[*n].is_empty()) {
                let tokens = std::mem::take(&mut self.forces[node]);
                self.feed(node, NodeInput::LogForced { tokens });
            } else {
                return;
            }
        }
    }

    /// Advance virtual time and fire the timers that came due.
    fn advance(&mut self, ns: u64) {
        self.now += ns;
        while let Some((&key, _)) = self.timers.iter().next() {
            if key.0 > self.now {
                break;
            }
            let (node, kind) = self.timers.remove(&key).expect("key was just read");
            self.feed(node, NodeInput::Timer(kind));
            self.pump();
        }
    }

    fn submit(&mut self, gen: usize, op: Op) {
        if let SessionCall::Put { key, .. } = &op.call {
            self.written.push(key.clone());
        }
        let _span = self.tracer.span("session_route");
        let id = self.session.submit(op.call.clone());
        self.pending.insert(id, (gen, op));
    }

    fn transmit(&mut self) {
        let launched = {
            let _span = self.tracer.span("session_route");
            let reqs = self.session.launch();
            reqs.into_iter().filter_map(|r| self.session.wire(r, &mut self.rng)).collect::<Vec<_>>()
        };
        for (to, req) in launched {
            self.feed(to as usize, NodeInput::Client { from: CLIENT_ADDR, req });
        }
    }

    /// Hand replies back to the session until every call of the round
    /// has finished.
    fn settle(&mut self, gens: &mut [OpGen]) -> Result<(), String> {
        for _ in 0..10_000 {
            self.pump();
            if self.replies.is_empty() {
                if self.session.occupancy() == 0 {
                    return Ok(());
                }
                // A backoff or an election in progress: let time pass.
                self.advance(1_000_000);
                continue;
            }
            for reply in std::mem::take(&mut self.replies) {
                let step = {
                    let _span = self.tracer.span("session_route");
                    self.session.on_reply(reply, || None)
                };
                match step {
                    SessionStep::None => {}
                    SessionStep::Backoff { req } => {
                        // As `ClientHost` does: wait 20 ms, then let the
                        // timeout path rotate the target and resend.
                        self.advance(20_000_000);
                        let wired = {
                            let _span = self.tracer.span("session_route");
                            let next = self.session.on_timeout(req);
                            next.and_then(|r| self.session.wire(r, &mut self.rng))
                        };
                        if let Some((to, req)) = wired {
                            self.feed(to as usize, NodeInput::Client { from: CLIENT_ADDR, req });
                        }
                    }
                    SessionStep::Retransmit { req, .. } | SessionStep::Continue { req } => {
                        let wired = {
                            let _span = self.tracer.span("session_route");
                            self.session.wire(req, &mut self.rng)
                        };
                        if let Some((to, req)) = wired {
                            self.feed(to as usize, NodeInput::Client { from: CLIENT_ADDR, req });
                        }
                    }
                    SessionStep::Done { call, outcome } => {
                        let Some((g, op)) = self.pending.remove(&call) else { continue };
                        match gens[g].check(&op, &outcome) {
                            Check::Done => self.done[op.class as usize] += 1,
                            Check::Redo { op: next, .. } => {
                                self.submit(g, next);
                                self.transmit();
                            }
                            Check::Bad => self.bad += 1,
                        }
                    }
                }
            }
        }
        Err("direct host: a round did not settle".into())
    }

    /// Feed `ops` operations drawn round-robin from `gens`, `per_round`
    /// at a time.
    fn run(&mut self, gens: &mut [OpGen], ops: usize, per_round: usize) -> Result<u64, String> {
        let (mut fed, mut turn) = (0usize, 0usize);
        while fed < ops && !gens.is_empty() {
            let mut in_round = 0;
            let mut dry = 0;
            while in_round < per_round && fed < ops && dry < gens.len() {
                let g = turn % gens.len();
                turn += 1;
                match gens[g].next_op() {
                    Some(op) => {
                        self.submit(g, op);
                        in_round += 1;
                        fed += 1;
                        dry = 0;
                    }
                    None => dry += 1,
                }
            }
            if in_round == 0 {
                break;
            }
            self.transmit();
            self.settle(gens)?;
            self.next_op += in_round as u64;
            self.advance(NS_PER_OP * in_round as u64);
        }
        Ok(fed as u64)
    }
}

/// Run `script` once, recording spans when `traced`.
pub fn pass(script: Script, traced: bool) -> Result<Pass, String> {
    let tracer = Tracer::new(traced);
    let Script {
        node,
        value_size,
        mut load_b8,
        load_b8_ops,
        mut load_b1,
        load_b1_ops,
        mut mix,
        mix_ops,
        gets,
        scans,
        seed,
    } = script;
    let t0 = Instant::now();
    let root = tracer.span("host");
    let mut host = Host::new(&node, tracer.clone(), seed)?;

    let before = tracer.totals();
    let a0 = alloc::snapshot().0;
    let puts_b8 = host.run(&mut load_b8, load_b8_ops, 8)?;
    let allocs_b8 = alloc::snapshot().0 - a0;
    let mid = tracer.totals();
    let puts_b1 = host.run(&mut load_b1, load_b1_ops, 1)?;
    let after = tracer.totals();
    // Let commit messages reach the followers before anything reads.
    host.advance(2 * node.commit_period + node.maintenance_interval);

    host.run(&mut mix, mix_ops, 1)?;

    // Reads of what was written: sampled strong gets, then pinned
    // snapshot scans over 32 consecutive written keys.
    host.written.sort();
    host.written.dedup();
    let written = std::mem::take(&mut host.written);
    if !written.is_empty() {
        let sample: Vec<Key> =
            (0..gets).map(|_| written[host.rng.gen_range(0..written.len())].clone()).collect();
        let role = Role::ReadBack { keys: std::rc::Rc::new(sample), pos: 0 };
        let mut readers = [OpGen::new(role, 0, 1, value_of(value_size), None)];
        host.run(&mut readers, gets, 1)?;
        if written.len() > 33 {
            for _ in 0..scans {
                let lo = host.rng.gen_range(0..written.len() - 33);
                let call = SessionCall::Scan {
                    start: written[lo].clone(),
                    end: Some(written[lo + 32].clone()),
                    page: 8,
                    consistency: Consistency::SNAPSHOT_PIN,
                };
                host.submit(0, Op { call, class: Class::Scan, index: 0, rows: 32 });
                host.transmit();
                host.settle(&mut readers)?;
                host.next_op += 1;
                host.advance(NS_PER_OP);
            }
        }
    }
    drop(root);
    let wall_s = t0.elapsed().as_secs_f64();
    for range in 0..NODES as u32 {
        if !host.nodes.iter().any(|n| n.role(RangeId(range)) == NodeRole::Leader) {
            return Err(format!("direct host: range {range} lost its leader"));
        }
    }
    Ok(Pass {
        wall_s,
        done: host.done,
        bad: host.bad,
        puts_b8,
        b8: minus(&mid, &before),
        puts_b1,
        b1: minus(&after, &mid),
        allocs_b8,
        all: tracer.totals(),
        tracer,
    })
}

fn minus(
    a: &BTreeMap<&'static str, KindTotal>,
    b: &BTreeMap<&'static str, KindTotal>,
) -> BTreeMap<&'static str, KindTotal> {
    a.iter()
        .map(|(k, v)| {
            let o = b.get(k).copied().unwrap_or_default();
            let d = KindTotal {
                count: v.count - o.count,
                self_ns: v.self_ns - o.self_ns,
                bytes: v.bytes - o.bytes,
            };
            (*k, d)
        })
        .collect()
}

/// Kinds whose self time is the cost of replicating a put.
const PUT_KINDS: [&str; 7] =
    ["client_put", "propose", "ack", "log_forced", "commit", "wal_append", "wal_sync"];

fn put_ns(totals: &BTreeMap<&'static str, KindTotal>, puts: u64) -> f64 {
    let ns: u64 = PUT_KINDS.iter().map(|k| totals.get(k).map_or(0, |t| t.self_ns)).sum();
    ratio(ns as f64, puts as f64)
}

/// The per-layer values of a traced pass and its untraced twin.
pub fn values(traced: &Pass, untraced: &Pass, value_size: usize) -> Values {
    let all = |k: &str| traced.all.get(k).copied().unwrap_or_default();
    let per_span = |kinds: &[&str]| {
        let (ns, n) = kinds.iter().fold((0u64, 0u64), |(ns, n), k| {
            let t = all(k);
            (ns + t.self_ns, n + t.count)
        });
        ratio(ns as f64, n as f64)
    };
    let ops: u64 = traced.done.iter().sum();
    let puts = traced.done[Class::Put as usize] + traced.done[Class::Cond as usize];
    let gets = all("client_get").count;
    let user_bytes = puts as f64 * (8 + 1 + value_size) as f64;
    let self_sum: u64 = traced.all.values().map(|t| t.self_ns).sum();
    let mut v = Values::new();
    v.insert("core.node.put_ns_b8", put_ns(&traced.b8, traced.puts_b8));
    v.insert("core.node.put_ns_b1", put_ns(&traced.b1, traced.puts_b1));
    v.insert("core.node.propose_ns", per_span(&["propose"]));
    v.insert("core.node.ack_commit_ns", per_span(&["ack", "commit"]));
    v.insert("core.node.get_ns", per_span(&["client_get"]));
    v.insert("core.node.scan_page_ns", per_span(&["scan_page"]));
    v.insert("core.node.allocs_per_put", ratio(untraced.allocs_b8 as f64, untraced.puts_b8 as f64));
    v.insert(
        "core.session.route_ns_per_op",
        ratio(all("session_route").self_ns as f64, ops as f64),
    );
    v.insert("common.vfs.wal_syncs_per_op", ratio(all("wal_sync").count as f64, puts as f64));
    v.insert("common.vfs.sst_read_bytes_per_get", ratio(all("sst_read").bytes as f64, gets as f64));
    v.insert(
        "common.vfs.sst_write_bytes_per_user_byte",
        ratio(all("sst_write").bytes as f64, user_bytes),
    );
    v.insert(
        "process.trace_overhead_pct",
        ratio((traced.wall_s - untraced.wall_s) * 100.0, untraced.wall_s),
    );
    v.insert("process.trace_self_sum_share", ratio(self_sum as f64 / 1e9, traced.wall_s));
    v.insert("process.direct_host_ops", ops as f64);
    v
}
