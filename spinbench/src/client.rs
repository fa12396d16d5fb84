//! The benchmark's closed-loop client: a sim actor hosting one typed
//! [`Session`], fed by a seeded [`OpGen`], checking every outcome.
//!
//! It transmits exactly as `spinnaker_core::client::ClientHost` does
//! (same network charge, same 1 s retry timer, same 20 ms backoff), but
//! draws its operations from the benchmark's generators, validates each
//! reply, and records exact per-class latencies.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use spinnaker_common::Key;
use spinnaker_core::client::ClientEv;
use spinnaker_core::cluster::{read_table, Ev, SimCluster, World};
use spinnaker_core::messages::{ClientReply, NodeInput, RequestId};
use spinnaker_core::session::{CallId, CallOutcome, Session, SessionStep};
use spinnaker_sim::{Actor, Ctx, ProcId, Time, MILLIS, SECS};

use crate::gen::{value_of, Check, Class, Op, OpGen, Role, CLASSES};

/// What the fleet of one cluster has done; shared by all its clients.
pub struct Recorder {
    /// Logical operations finished correctly, by [`Class`].
    pub done: [u64; CLASSES],
    /// Latency (ns, submit to final outcome) of each of them.
    pub lat: [Vec<u64>; CLASSES],
    /// Logical operations that ended with a wrong outcome.
    pub failed: u64,
    /// Logical operations submitted and not yet finished (a gauge).
    pub in_flight: u64,
    /// Resends due to redirects, refreshes, backoffs and timeouts.
    pub retries: u64,
    /// Range-table refreshes triggered by `WrongRange`.
    pub ring_refreshes: u64,
    /// Conditional puts rejected with `VersionMismatch`.
    pub cond_mismatches: u64,
    /// Conditional puts sent.
    pub cond_attempts: u64,
    /// Completion time of the most recent finished operation.
    pub last_done: Time,
    /// Longest gap between consecutive completions since the last
    /// [`Recorder::start_gap_watch`].
    pub max_gap: Time,
    /// Key indexes written at least once (live-byte accounting).
    pub written: Vec<bool>,
}

impl Recorder {
    /// An empty recorder for a space of `keys` key indexes.
    pub fn new(keys: u64) -> Recorder {
        Recorder {
            done: [0; CLASSES],
            lat: Default::default(),
            failed: 0,
            in_flight: 0,
            retries: 0,
            ring_refreshes: 0,
            cond_mismatches: 0,
            cond_attempts: 0,
            last_done: 0,
            max_gap: 0,
            written: vec![false; keys as usize],
        }
    }

    /// Total operations finished correctly.
    pub fn total_done(&self) -> u64 {
        self.done.iter().sum()
    }

    /// Forget counts and latencies (a new window); the written-key map
    /// and the in-flight gauge carry over.
    pub fn reset_window(&mut self, now: Time) {
        self.done = [0; CLASSES];
        self.lat = Default::default();
        self.failed = 0;
        self.retries = 0;
        self.ring_refreshes = 0;
        self.cond_mismatches = 0;
        self.cond_attempts = 0;
        self.start_gap_watch(now);
    }

    /// Restart the completion-gap watch at `now`.
    pub fn start_gap_watch(&mut self, now: Time) {
        self.last_done = now;
        self.max_gap = 0;
    }

    /// Close the gap watch at `now` (counts the trailing silence) and
    /// return the longest gap.
    pub fn close_gap_watch(&mut self, now: Time) -> Time {
        self.max_gap = self.max_gap.max(now.saturating_sub(self.last_done));
        self.max_gap
    }

    /// Distinct key indexes written so far.
    pub fn distinct_written(&self) -> u64 {
        self.written.iter().filter(|w| **w).count() as u64
    }

    fn finish(&mut self, now: Time, op: &Op, started: Time) {
        let c = op.class as usize;
        self.done[c] += 1;
        self.lat[c].push(now - started);
        self.max_gap = self.max_gap.max(now.saturating_sub(self.last_done));
        self.last_done = now;
        if matches!(op.class, Class::Put | Class::Cond) {
            if let Some(w) = self.written.get_mut(op.index as usize) {
                *w = true;
            }
        }
    }
}

/// Handles shared between a fleet and the harness driving it.
#[derive(Clone)]
pub struct Fleet {
    /// What the fleet has done.
    pub rec: Rc<RefCell<Recorder>>,
    /// Set to stop clients submitting new operations (drain).
    pub stop: Rc<Cell<bool>>,
}

impl Fleet {
    /// A fleet over `keys` key indexes.
    pub fn new(keys: u64) -> Fleet {
        Fleet { rec: Rc::new(RefCell::new(Recorder::new(keys))), stop: Rc::new(Cell::new(false)) }
    }

    /// Register a client on `cluster` that starts at `start_at` and
    /// keeps up to `pipeline` operations outstanding.
    pub fn add_client(
        &self,
        cluster: &mut SimCluster,
        gen: OpGen,
        pipeline: usize,
        start_at: Time,
    ) {
        let proc = cluster.sim.add_actor(Box::new(Idle));
        let pipeline = pipeline.max(1);
        let client = BenchClient {
            proc,
            // Clients route with the boot-time table, like `ClientHost`.
            session: Session::new(cluster.ring.clone(), pipeline),
            gen,
            world: cluster.world.clone(),
            fleet: self.clone(),
            pipeline,
            pending: BTreeMap::new(),
        };
        cluster.sim.replace_actor(proc, Box::new(client));
        cluster.sim.schedule(start_at, proc, Ev::Client(ClientEv::Start));
    }
}

/// Strong-read `keys` once each (four readers, four gets outstanding
/// each), advancing `now` until all have answered or 10 s have passed.
/// Returns how many came back as a well-formed value of `value_size`
/// bytes.
pub fn read_back(cluster: &mut SimCluster, now: &mut Time, keys: &[Key], value_size: usize) -> u64 {
    let want = keys.len() as u64;
    let readers = Fleet::new(0);
    for chunk in keys.chunks(keys.len().div_ceil(4).max(1)) {
        let role = Role::ReadBack { keys: Rc::new(chunk.to_vec()), pos: 0 };
        let gen = OpGen::new(role, 0, 1, value_of(value_size), None);
        readers.add_client(cluster, gen, 4, *now);
    }
    let deadline = *now + 10 * SECS;
    let answered = |r: &Recorder| r.total_done() + r.failed;
    while answered(&readers.rec.borrow()) < want && *now < deadline {
        *now += 50 * MILLIS;
        cluster.run_until(*now);
    }
    let good = readers.rec.borrow().total_done();
    good.min(want)
}

/// Placeholder while a client's proc id is being reserved.
struct Idle;

impl Actor<Ev> for Idle {
    fn on_event(&mut self, _now: Time, _ev: Ev, _ctx: &mut Ctx<'_, Ev>) {}
}

struct BenchClient {
    proc: ProcId,
    session: Session,
    gen: OpGen,
    world: World,
    fleet: Fleet,
    pipeline: usize,
    /// The operation behind each outstanding call and when its logical
    /// operation started (a cond cycle's follow-ups keep the first time).
    pending: BTreeMap<CallId, (Op, Time)>,
}

impl BenchClient {
    fn submit(&mut self, op: Op, started: Time) {
        if matches!(op.call, spinnaker_core::session::SessionCall::ConditionalPut { .. }) {
            self.fleet.rec.borrow_mut().cond_attempts += 1;
        }
        let id = self.session.submit(op.call.clone());
        self.pending.insert(id, (op, started));
    }

    fn fill(&mut self, now: Time, ctx: &mut Ctx<'_, Ev>) {
        while !self.fleet.stop.get() && self.session.occupancy() < self.pipeline {
            let Some(op) = self.gen.next_op() else { break };
            self.fleet.rec.borrow_mut().in_flight += 1;
            self.submit(op, now);
        }
        for req in self.session.launch() {
            self.transmit(now, req, ctx);
        }
    }

    fn transmit(&mut self, now: Time, req: RequestId, ctx: &mut Ctx<'_, Ev>) {
        let Some((to, wire)) = self.session.wire(req, ctx.rng()) else { return };
        let bytes = wire.wire_size();
        let at = self.world.net.borrow_mut().delivery_time(now, self.proc, to, bytes, ctx.rng());
        if let Some(at) = at {
            ctx.schedule_at(at, to, Ev::Input(NodeInput::Client { from: self.proc, req: wire }));
        }
        ctx.schedule(SECS, self.proc, Ev::Client(ClientEv::Timeout(req)));
    }

    fn complete(&mut self, now: Time, call: CallId, outcome: CallOutcome, ctx: &mut Ctx<'_, Ev>) {
        let Some((op, started)) = self.pending.remove(&call) else { return };
        match self.gen.check(&op, &outcome) {
            Check::Done => {
                let mut rec = self.fleet.rec.borrow_mut();
                rec.in_flight -= 1;
                rec.finish(now, &op, started);
            }
            Check::Redo { op: next, mismatch } => {
                if mismatch {
                    self.fleet.rec.borrow_mut().cond_mismatches += 1;
                }
                self.submit(next, started);
            }
            Check::Bad => {
                let mut rec = self.fleet.rec.borrow_mut();
                rec.in_flight -= 1;
                rec.failed += 1;
            }
        }
        self.fill(now, ctx);
    }

    fn on_reply(&mut self, now: Time, reply: ClientReply, ctx: &mut Ctx<'_, Ev>) {
        let world = self.world.clone();
        match self.session.on_reply(reply, || read_table(&world)) {
            SessionStep::None => {}
            SessionStep::Retransmit { req, refreshed_ring } => {
                let mut rec = self.fleet.rec.borrow_mut();
                rec.retries += 1;
                rec.ring_refreshes += u64::from(refreshed_ring);
                drop(rec);
                self.transmit(now, req, ctx);
            }
            SessionStep::Continue { req } => self.transmit(now, req, ctx),
            SessionStep::Backoff { req } => {
                self.fleet.rec.borrow_mut().retries += 1;
                ctx.schedule(20 * MILLIS, self.proc, Ev::Client(ClientEv::Timeout(req)));
            }
            SessionStep::Done { call, outcome } => self.complete(now, call, outcome, ctx),
        }
    }
}

impl Actor<Ev> for BenchClient {
    fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let Ev::Client(cev) = ev else { return };
        match cev {
            ClientEv::Start => self.fill(now, ctx),
            ClientEv::Reply(reply) => self.on_reply(now, reply, ctx),
            ClientEv::Timeout(req) => {
                if let Some(next) = self.session.on_timeout(req) {
                    self.fleet.rec.borrow_mut().retries += 1;
                    self.transmit(now, next, ctx);
                }
            }
        }
    }
}
