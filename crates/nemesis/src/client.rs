//! History-recording chaos clients.
//!
//! A [`NemesisClient`] drives a typed
//! [`Session`](spinnaker_core::session::Session) inside the simulated
//! cluster, issuing a seeded mix of point writes, deletes, conditional
//! ops, and reads/scans at every consistency level — while recording a
//! complete invoke/retry/ok/fail history the checker can verify.
//!
//! The session transport is core's [`SessionDriver`], the same one the
//! figures' clients use; this client keeps only its op mix and its
//! history.
//!
//! The one subtlety worth reading twice: **retry marking**. A call is
//! marked [`HEventKind::Retry`] only when a *timeout* retransmits it —
//! the previous attempt may have applied without its ack surviving, so
//! the checker must admit at-least-once semantics for that call. A
//! successor's leader notice re-sends what its timer would have re-sent,
//! only sooner, and is marked so too: the attempt left at the dead leader
//! may have applied. Benign retransmits (leader redirects, range-table
//! refreshes, backoff rotations after an explicit `Unavailable`) follow
//! a definitive rejection of the attempt and are *not* duplicate risks;
//! the driver reports those as a redirect or as a *benign* timeout.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;

use spinnaker_common::{
    ClientError, Consistency, HCons, HErr, HEventKind, HOp, HResult, HState, History, Key,
    ReadCell, Value, Version,
};
use spinnaker_core::client::{ClientEv, DriverReport, SessionDriver};
use spinnaker_core::cluster::{Ev, World};
use spinnaker_core::messages::ColumnSelect;
use spinnaker_core::partition::Ring;
use spinnaker_core::session::{CallId, CallOutcome, SessionCall};
use spinnaker_sim::{Actor, Ctx, ProcId, Time};

/// The single distinguished column of the register model.
fn col() -> Bytes {
    Bytes::from_static(b"c")
}

/// Progress counters shared with the campaign loop.
#[derive(Default)]
pub struct ClientProgress {
    /// Calls completed (ok or terminal failure).
    pub completed: u64,
    /// Calls issued so far.
    pub issued: u64,
    /// Target number of calls.
    pub target: u64,
}

impl ClientProgress {
    /// True once every targeted call has resolved.
    pub fn done(&self) -> bool {
        self.completed >= self.target
    }
}

/// Per-call bookkeeping from submission to completion.
struct PendingCall {
    /// Per-client op number (names the call in the history).
    op_no: u32,
    /// Key-universe index the call targets (point ops only).
    key_idx: Option<usize>,
    /// State a successful write leaves behind (belief adoption).
    wrote: Option<HState>,
}

/// A seeded mixed-workload client that records its complete op history.
pub struct NemesisClient {
    driver: SessionDriver,
    id: u32,
    history: Rc<RefCell<History>>,
    progress: Rc<RefCell<ClientProgress>>,
    /// The shared key universe (small, so ops collide and races matter).
    keys: Rc<Vec<Key>>,
    /// Mean think time between issuances; spreads the client's op
    /// budget across the fault window instead of burning it in the
    /// first quiet milliseconds.
    think: Time,
    /// Monotone per-client sequence making every written value unique.
    seq: u64,
    next_op: u32,
    calls: BTreeMap<CallId, PendingCall>,
    /// Last known `(version, state)` per key index — the belief backing
    /// conditional-op preconditions. Cleared on `VersionMismatch`.
    beliefs: BTreeMap<usize, (Version, HState)>,
    /// Commit/pin timestamps observed so far (snapshot-At reuse pool).
    at_pool: Vec<u64>,
}

impl NemesisClient {
    /// Build a client for `proc`; it starts on `Ev::Client(Start)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        proc: ProcId,
        id: u32,
        ring: Ring,
        world: World,
        history: Rc<RefCell<History>>,
        keys: Rc<Vec<Key>>,
        target: u64,
        pipeline: usize,
        think: Time,
    ) -> (NemesisClient, Rc<RefCell<ClientProgress>>) {
        let progress =
            Rc::new(RefCell::new(ClientProgress { target, ..ClientProgress::default() }));
        let client = NemesisClient {
            driver: SessionDriver::new(proc, ring, pipeline, world),
            id,
            history,
            progress: progress.clone(),
            keys,
            think: think.max(1),
            seq: 0,
            next_op: 0,
            calls: BTreeMap::new(),
            beliefs: BTreeMap::new(),
            at_pool: Vec::new(),
        };
        (client, progress)
    }

    fn fresh_value(&mut self) -> Value {
        self.seq += 1;
        Value::from(format!("c{}.{}", self.id, self.seq).into_bytes())
    }

    /// A random read consistency: strong, timeline, leader-pinned
    /// snapshot, or a replay of a previously observed timestamp.
    fn read_consistency(&mut self, rng: &mut SmallRng) -> (Consistency, HCons) {
        match rng.gen_range(0u32..10) {
            0..=3 => (Consistency::Strong, HCons::Strong),
            4..=5 => (Consistency::Timeline, HCons::Timeline),
            6..=7 => (Consistency::SNAPSHOT_PIN, HCons::Pin),
            _ => match self.at_pool.as_slice() {
                [] => (Consistency::SNAPSHOT_PIN, HCons::Pin),
                pool => {
                    // Bias toward recent cuts; old ones age below the GC
                    // floor and (correctly) fail `SnapshotTooOld`.
                    let idx = pool.len() - 1 - rng.gen_range(0..pool.len().min(8));
                    (Consistency::snapshot_at(pool[idx]), HCons::At(pool[idx]))
                }
            },
        }
    }

    /// Generate the next call of the mix, or `None` once the target
    /// count has been issued.
    fn next_call(&mut self, now: Time, rng: &mut SmallRng) -> Option<(SessionCall, PendingCall)> {
        {
            let mut p = self.progress.borrow_mut();
            if p.issued >= p.target {
                return None;
            }
            p.issued += 1;
        }
        let op_no = self.next_op;
        self.next_op += 1;
        let nkeys = self.keys.len();
        let key_idx = rng.gen_range(0..nkeys);
        let key = self.keys[key_idx].clone();
        let mut pend = PendingCall { op_no, key_idx: Some(key_idx), wrote: None };

        let (call, hop) = match rng.gen_range(0u32..100) {
            // Blind put: the workhorse write.
            0..=24 => {
                let value = self.fresh_value();
                pend.wrote = Some(HState::Val(value.clone()));
                (
                    SessionCall::Put { key: key.clone(), cells: vec![(col(), value.clone())] },
                    HOp::Put { key, value },
                )
            }
            // Blind delete.
            25..=31 => {
                pend.wrote = Some(HState::Tomb);
                (
                    SessionCall::Delete { key: key.clone(), columns: vec![col()] },
                    HOp::Delete { key },
                )
            }
            // Conditional put against the current belief (falls back to
            // a blind put when no belief is held).
            32..=41 => match self.beliefs.get(&key_idx).cloned() {
                Some((version, expect)) => {
                    let value = self.fresh_value();
                    pend.wrote = Some(HState::Val(value.clone()));
                    (
                        SessionCall::ConditionalPut {
                            key: key.clone(),
                            col: col(),
                            value: value.clone(),
                            expected: version,
                        },
                        HOp::CondPut { key, value, expect },
                    )
                }
                None => {
                    let value = self.fresh_value();
                    pend.wrote = Some(HState::Val(value.clone()));
                    (
                        SessionCall::Put { key: key.clone(), cells: vec![(col(), value.clone())] },
                        HOp::Put { key, value },
                    )
                }
            },
            // Conditional delete, same belief model.
            42..=46 => match self.beliefs.get(&key_idx).cloned() {
                Some((version, expect)) => {
                    pend.wrote = Some(HState::Tomb);
                    (
                        SessionCall::ConditionalDelete {
                            key: key.clone(),
                            col: col(),
                            expected: version,
                        },
                        HOp::CondDelete { key, expect },
                    )
                }
                None => {
                    pend.wrote = Some(HState::Tomb);
                    (
                        SessionCall::Delete { key: key.clone(), columns: vec![col()] },
                        HOp::Delete { key },
                    )
                }
            },
            // Point read at a random consistency level.
            47..=76 => {
                let (consistency, cons) = self.read_consistency(rng);
                (
                    SessionCall::Get {
                        key: key.clone(),
                        columns: ColumnSelect::One(col()),
                        consistency,
                    },
                    HOp::Get { key, cons },
                )
            }
            // Range scan at a random consistency level.
            _ => {
                pend.key_idx = None;
                let (consistency, cons) = self.read_consistency(rng);
                let lo = rng.gen_range(0..nkeys);
                let span = rng.gen_range(1..=nkeys);
                let start = self.keys[lo].clone();
                let end = lo.checked_add(span).and_then(|hi| self.keys.get(hi)).cloned();
                (
                    SessionCall::Scan {
                        start: start.clone(),
                        end: end.clone(),
                        page: rng.gen_range(1u32..4),
                        consistency,
                    },
                    HOp::Scan { start, end, cons },
                )
            }
        };
        self.history.borrow_mut().push(now, self.id, op_no, HEventKind::Invoke(hop));
        Some((call, pend))
    }

    /// Issue-tick: submit at most one call when the pipeline has room,
    /// then re-arm the tick with jittered think time until the op
    /// budget is spent. Pacing — not the round-trip time — is what
    /// spreads the workload across the fault window.
    fn tick(&mut self, now: Time, ctx: &mut Ctx<'_, Ev>) {
        let (issued, target) = {
            let p = self.progress.borrow();
            (p.issued, p.target)
        };
        if issued >= target {
            return;
        }
        if self.driver.has_room() {
            if let Some((call, pend)) = self.next_call(now, ctx.rng()) {
                let id = self.driver.submit(call);
                self.calls.insert(id, pend);
            }
            self.driver.launch(now, ctx);
        }
        if self.progress.borrow().issued < target {
            let delay = ctx.rng().gen_range(self.think / 2..=self.think + self.think / 2);
            ctx.timer(delay.max(1), Ev::Client(ClientEv::Start));
        }
    }

    /// Fold a read's cells into the register-model state.
    fn state_of(cells: &[ReadCell]) -> HState {
        match cells.first() {
            None => HState::Never,
            Some(ReadCell { value: None, .. }) => HState::Tomb,
            Some(ReadCell { value: Some(v), .. }) => HState::Val(v.clone()),
        }
    }

    fn complete(&mut self, now: Time, call: CallId, outcome: CallOutcome) {
        let Some(pend) = self.calls.remove(&call) else { return };
        let kind = match outcome {
            CallOutcome::Written { version, ts } => {
                if let (Some(idx), Some(state)) = (pend.key_idx, pend.wrote.clone()) {
                    self.beliefs.insert(idx, (version, state));
                }
                self.note_ts(ts);
                HEventKind::Ok(HResult::Write { version, ts })
            }
            CallOutcome::Row { cells, at_ts } => {
                let state = NemesisClient::state_of(&cells);
                // Any read pairs a version with the state it produced —
                // a valid conditional-op belief even when stale (the CAS
                // then simply fails).
                if let Some(idx) = pend.key_idx {
                    let version = cells.first().map_or(0, |c| c.version);
                    self.beliefs.insert(idx, (version, state.clone()));
                }
                self.note_ts(at_ts);
                HEventKind::Ok(HResult::Read { state, at_ts })
            }
            CallOutcome::Rows { rows, at_ts } => {
                self.note_ts(at_ts);
                let rows = rows
                    .into_iter()
                    .filter_map(|r| {
                        r.cells.first().and_then(|c| c.value.clone()).map(|v| (r.key, v))
                    })
                    .collect();
                HEventKind::Ok(HResult::Rows { rows, at_ts })
            }
            CallOutcome::Failed(err) => HEventKind::Fail(match err {
                ClientError::VersionMismatch { .. } => {
                    // The belief was wrong; drop it and re-learn from a
                    // later read (the reply's `actual` version has no
                    // state paired with it).
                    if let Some(idx) = pend.key_idx {
                        self.beliefs.remove(&idx);
                    }
                    HErr::VersionMismatch
                }
                ClientError::SnapshotTooOld { .. } => HErr::SnapshotTooOld,
                _ => HErr::Other,
            }),
        };
        self.history.borrow_mut().push(now, self.id, pend.op_no, kind);
        self.progress.borrow_mut().completed += 1;
    }

    /// Remember an observed commit/pin timestamp for snapshot-At reuse.
    fn note_ts(&mut self, ts: u64) {
        if ts > 0 {
            self.at_pool.push(ts);
            if self.at_pool.len() > 64 {
                self.at_pool.remove(0);
            }
        }
    }

    /// Put what the driver reported into the history.
    fn record(&mut self, now: Time, report: DriverReport) {
        match report {
            DriverReport::Done { call, outcome } => self.complete(now, call, outcome),
            // A true timeout, or a leader notice's re-send: the lost
            // attempt may have applied. One Retry line per retransmit —
            // the checker budgets one potential duplicate apply for each.
            DriverReport::Timeout { call, benign: false } => {
                if let Some(pend) = self.calls.get(&call) {
                    self.history.borrow_mut().push(now, self.id, pend.op_no, HEventKind::Retry);
                }
            }
            DriverReport::Quiet
            | DriverReport::Redirect { .. }
            | DriverReport::Backoff
            | DriverReport::Timeout { benign: true, .. } => {}
        }
    }
}

impl Actor<Ev> for NemesisClient {
    fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let Ev::Client(cev) = ev else { return };
        let report = match cev {
            ClientEv::Start => return self.tick(now, ctx),
            ClientEv::Reply(reply) => self.driver.on_reply(now, reply, ctx),
            ClientEv::Timeout(req) => self.driver.on_timeout(now, req, ctx),
        };
        self.record(now, report);
        while let Some(report) = self.driver.next_resend(now, ctx) {
            self.record(now, report);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use spinnaker_common::{ClientOp, RangeId};
    use spinnaker_coord::Coord;
    use spinnaker_core::messages::{ClientReply, NodeInput};
    use spinnaker_core::partition::u64_to_key;
    use spinnaker_sim::{NetConfig, NetModel, Sim, MILLIS, SECS};

    use super::*;

    /// Every node of the cohort at once: the first request it is sent
    /// is swallowed, and the client is told that node 1 leads range 0,
    /// as a successor that never saw the request tells it; every later
    /// request is answered.
    struct Cohort {
        world: World,
        notified: bool,
    }

    impl Actor<Ev> for Cohort {
        fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            let Ev::Input(NodeInput::Client { from, req }) = ev else { return };
            let me = ctx.self_id();
            let reply = if !std::mem::replace(&mut self.notified, true) {
                ClientReply::Leader { range: RangeId(0), leader: 1 }
            } else {
                match req.op {
                    ClientOp::Get { .. } => {
                        ClientReply::Row { req: req.req, cells: Vec::new(), at_ts: 0 }
                    }
                    ClientOp::Scan { .. } => {
                        ClientReply::Rows { req: req.req, rows: Vec::new(), resume: None, at_ts: 0 }
                    }
                    ClientOp::Put { .. }
                    | ClientOp::Delete { .. }
                    | ClientOp::ConditionalPut { .. }
                    | ClientOp::ConditionalDelete { .. } => {
                        ClientReply::WriteOk { req: req.req, version: 1, ts: 1, leader: me }
                    }
                }
            };
            let ev = Ev::Client(ClientEv::Reply(reply));
            self.world.net.borrow_mut().send(ctx, now, me, from, 64, ev);
        }
    }

    /// A re-send a leader notice calls for is a `Retry` in the history,
    /// as the timer's re-send it replaces would have been: the attempt
    /// left at node 0 may have applied there.
    #[test]
    fn a_resend_a_leader_notice_calls_for_is_recorded_as_a_retry() {
        let world = World {
            net: Rc::new(RefCell::new(NetModel::new(NetConfig::default()))),
            coord: Rc::new(RefCell::new(Coord::new())),
            bus: Rc::new(RefCell::new(Vec::new())),
            owners: Rc::new(RefCell::new(BTreeMap::new())),
        };
        let mut sim: Sim<Ev> = Sim::new(7);
        let cohort = Rc::new(RefCell::new(Cohort { world: world.clone(), notified: false }));
        for node in 0..3 {
            assert_eq!(sim.add_actor(Box::new(cohort.clone())), node);
        }
        let history = Rc::new(RefCell::new(History::new()));
        let keys = Rc::new(vec![u64_to_key(0)]);
        let ring = Ring::with_nodes(3);
        let (mut client, _) =
            NemesisClient::new(3, 0, ring, world, history.clone(), keys.clone(), 1, 2, MILLIS);
        // A put ahead of the client's own call: range 0's leader-routed
        // write, sent first, to node 0, which swallows it.
        let put = SessionCall::Put { key: keys[0].clone(), cells: vec![(col(), col())] };
        let call = client.driver.submit(put);
        client.calls.insert(call, PendingCall { op_no: 9, key_idx: Some(0), wrote: None });
        assert_eq!(sim.add_actor(Box::new(client)), 3);
        sim.schedule(0, 3, Ev::Client(ClientEv::Start));
        sim.run_until(5 * SECS);
        let events: Vec<(Time, HEventKind)> = history
            .borrow()
            .events
            .iter()
            .filter(|e| e.op == 9)
            .map(|e| (e.at, e.kind.clone()))
            .collect();
        match events.as_slice() {
            [(retry_at, HEventKind::Retry), (_, HEventKind::Ok(HResult::Write { .. }))] => {
                assert!(*retry_at < SECS, "re-sent at the notice, not by the timer");
            }
            other => panic!("expected a retry, then the write, got {other:?}"),
        }
    }
}
