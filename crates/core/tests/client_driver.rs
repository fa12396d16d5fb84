//! The client transport (`SessionDriver`) on a bare simulator: one client
//! actor that owns a driver, and scripted node actors that answer each
//! request as the test says. Checks how the driver classifies every
//! re-send, which is what its owners count (`ClientStats::retries`,
//! `ring_refreshes`) and record (the nemesis history's `Retry` lines).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use spinnaker_common::codec::Encode;
use spinnaker_common::{ClientError, RangeId};
use spinnaker_coord::{Coord, CreateMode};
use spinnaker_core::client::{ClientEv, DriverReport, SessionDriver};
use spinnaker_core::cluster::{Ev, World};
use spinnaker_core::messages::{ClientReply, NodeInput, RequestId};
use spinnaker_core::partition::{u64_to_key, Barrier, Ring, TABLE_PATH};
use spinnaker_core::session::SessionCall;
use spinnaker_sim::{Actor, Ctx, NetConfig, NetModel, ProcId, Sim, Time, MILLIS, SECS};

/// What a scripted node does with the next request it receives.
#[derive(Clone, Copy)]
enum Answer {
    Ok,
    Unavailable,
    WrongRange,
    /// Swallow the request: its reply is lost.
    Drop,
    /// Swallow the request and send a notice that the next node leads
    /// its range, as a successor that never saw the request does.
    Notice,
}

/// Answers requests over the network, from a script shared by every
/// node, in arrival order.
struct ScriptedNode {
    net: Rc<RefCell<NetModel>>,
    script: VecDeque<Answer>,
    /// Every request received: `(arrival, request id)`.
    seen: Vec<(Time, RequestId)>,
}

impl Actor<Ev> for ScriptedNode {
    fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let Ev::Input(NodeInput::Client { from, req }) = ev else { return };
        self.seen.push((now, req.req));
        let me = ctx.self_id();
        let reply = match self.script.pop_front().unwrap_or(Answer::Ok) {
            Answer::Ok => ClientReply::WriteOk { req: req.req, version: 1, ts: 1, leader: me },
            Answer::Unavailable => ClientReply::err(req.req, ClientError::Unavailable),
            Answer::WrongRange => ClientReply::err(req.req, ClientError::WrongRange { version: 2 }),
            Answer::Drop => return,
            Answer::Notice => {
                let leader = (me + 1) % NODES as ProcId;
                ClientReply::Leader { range: RangeId(0), leader }
            }
        };
        let ev = Ev::Client(ClientEv::Reply(reply));
        self.net.borrow_mut().send(ctx, now, me, from, 64, ev);
    }
}

/// Submits `puts` puts at `Start` and logs every report its driver
/// makes, draining the re-sends a leader notice calls for.
struct Client {
    driver: SessionDriver,
    puts: u64,
    reports: Rc<RefCell<Vec<(Time, DriverReport)>>>,
}

impl Actor<Ev> for Client {
    fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        let report = match ev {
            Ev::Client(ClientEv::Start) => {
                for k in 0..self.puts {
                    let cells = vec![(Bytes::from_static(b"c"), Bytes::from_static(b"v"))];
                    self.driver.submit(SessionCall::Put { key: u64_to_key(k), cells });
                }
                return self.driver.launch(now, ctx);
            }
            Ev::Client(ClientEv::Reply(reply)) => self.driver.on_reply(now, reply, ctx),
            Ev::Client(ClientEv::Timeout(req)) => self.driver.on_timeout(now, req, ctx),
            _ => return,
        };
        self.reports.borrow_mut().push((now, report));
        while let Some(report) = self.driver.next_resend(now, ctx) {
            self.reports.borrow_mut().push((now, report));
        }
    }
}

const NODES: usize = 3;

fn world() -> World {
    World {
        net: Rc::new(RefCell::new(NetModel::new(NetConfig::default()))),
        coord: Rc::new(RefCell::new(Coord::new())),
        bus: Rc::new(RefCell::new(Vec::new())),
        owners: Rc::new(RefCell::new(BTreeMap::new())),
    }
}

/// Publish `ring` as the range table the driver refreshes from.
fn publish(world: &World, ring: &Ring) {
    let mut coord = world.coord.borrow_mut();
    let session = coord.create_session(u64::MAX / 2, 0);
    coord.create(session, "/ranges", Vec::new(), CreateMode::Persistent).unwrap();
    coord.create(session, TABLE_PATH, ring.encode_to_vec(), CreateMode::Persistent).unwrap();
}

struct Run {
    reports: Vec<(Time, DriverReport)>,
    seen: Vec<(Time, RequestId)>,
    /// Messages the network carried.
    sent: u64,
}

impl Run {
    /// The reports other than `Quiet`.
    fn loud(&self) -> Vec<&(Time, DriverReport)> {
        self.reports.iter().filter(|(_, r)| !matches!(r, DriverReport::Quiet)).collect()
    }
}

/// Run one put for 5 s against nodes answering from `script`.
fn run(script: &[Answer], world: World) -> Run {
    run_puts(script, world, 1)
}

/// Run `puts` pipelined puts to range 0 for 5 s against nodes answering
/// from `script`.
fn run_puts(script: &[Answer], world: World, puts: u64) -> Run {
    let mut sim: Sim<Ev> = Sim::new(7);
    let node = Rc::new(RefCell::new(ScriptedNode {
        net: world.net.clone(),
        script: script.iter().copied().collect(),
        seen: Vec::new(),
    }));
    for id in 0..NODES as ProcId {
        assert_eq!(sim.add_actor(Box::new(node.clone())), id);
    }
    let reports = Rc::new(RefCell::new(Vec::new()));
    let proc = NODES as ProcId;
    let driver = SessionDriver::new(proc, Ring::with_nodes(NODES), puts as usize, world.clone());
    let client = Client { driver, puts, reports: reports.clone() };
    assert_eq!(sim.add_actor(Box::new(client)), proc);
    sim.schedule(0, proc, Ev::Client(ClientEv::Start));
    sim.run_until(5 * SECS);
    let reports = reports.take();
    let seen = std::mem::take(&mut node.borrow_mut().seen);
    Run { reports, seen, sent: world.net.borrow().counters().0 }
}

/// (a) `Unavailable` is a backoff; 20 ms later the request goes out again
/// under a fresh id, and that re-send is a *benign* timeout.
#[test]
fn unavailable_backs_off_then_resends_as_a_benign_timeout() {
    let r = run(&[Answer::Unavailable, Answer::Ok], world());
    let loud = r.loud();
    assert_eq!(loud.len(), 3, "{:?}", r.reports);
    let (backoff_at, ref backoff) = *loud[0];
    assert!(matches!(backoff, DriverReport::Backoff), "{backoff:?}");
    let (resend_at, ref resend) = *loud[1];
    assert_eq!(resend_at, backoff_at + 20 * MILLIS);
    let DriverReport::Timeout { call, benign: true } = *resend else {
        panic!("expected a benign timeout, got {resend:?}")
    };
    assert!(matches!(loud[2].1, DriverReport::Done { call: done, .. } if done == call));
    assert_eq!(r.seen.len(), 2);
    assert_ne!(r.seen[0].1, r.seen[1].1, "the re-send has a fresh id");
    assert!(r.seen[1].0 > resend_at);
}

/// (b) A lost reply: after 1 s the request goes out again under a fresh
/// id, and that re-send is a *true* timeout.
#[test]
fn a_lost_reply_resends_after_a_second_as_a_true_timeout() {
    let r = run(&[Answer::Drop, Answer::Ok], world());
    let loud = r.loud();
    assert_eq!(loud.len(), 2, "{:?}", r.reports);
    assert_eq!(loud[0].0, SECS, "the retry timer armed at the first send");
    let DriverReport::Timeout { call, benign: false } = loud[0].1 else {
        panic!("expected a true timeout, got {:?}", loud[0].1)
    };
    assert!(matches!(loud[1].1, DriverReport::Done { call: done, .. } if done == call));
    assert_eq!(r.seen.len(), 2);
    assert_ne!(r.seen[0].1, r.seen[1].1, "the re-send has a fresh id");
    assert!(r.seen[1].0 > SECS);
}

/// (c) The retry timer of a request that already completed sends nothing
/// and reports nothing.
#[test]
fn a_timer_after_completion_is_quiet() {
    let r = run(&[Answer::Ok], world());
    assert_eq!(r.reports.len(), 2, "{:?}", r.reports);
    assert!(matches!(r.reports[0].1, DriverReport::Done { .. }));
    assert_eq!(r.reports[1].0, SECS, "the stale retry timer fired");
    assert!(matches!(r.reports[1].1, DriverReport::Quiet));
    assert_eq!(r.seen.len(), 1, "nothing re-sent");
    assert_eq!(r.sent, 2, "one request and its reply");
}

/// (d) `WrongRange` is a redirect; it reports `refreshed_ring` exactly
/// when a newer range table is published.
#[test]
fn wrong_range_reports_a_refresh_only_when_a_newer_table_exists() {
    let first_redirect = |world: World| {
        let r = run(&[Answer::WrongRange, Answer::Ok], world);
        match r.loud()[0].1 {
            DriverReport::Redirect { refreshed_ring } => refreshed_ring,
            ref other => panic!("expected a redirect, got {other:?}"),
        }
    };
    assert!(!first_redirect(world()), "no table published");

    let world = world();
    let mut newer = Ring::with_nodes(NODES);
    newer.split(RangeId(0), &u64_to_key(1 << 20), Barrier::default()).unwrap();
    assert!(newer.version() > Ring::with_nodes(NODES).version());
    publish(&world, &newer);
    assert!(first_redirect(world), "a newer table is adopted");
}

/// (e) A leader notice re-sends, long before the retry timer, every
/// pipelined request whose attempt went to another node, each under a
/// fresh id and each reported as a *true* timeout: the attempt left at
/// the dead leader may have applied.
#[test]
fn a_leader_notice_resends_every_stranded_request_as_a_true_timeout() {
    let r = run_puts(&[Answer::Notice, Answer::Drop], world(), 2);
    let loud = r.loud();
    assert_eq!(loud.len(), 4, "{:?}", r.reports);
    let resent: Vec<_> = loud[..2]
        .iter()
        .map(|(at, report)| match *report {
            DriverReport::Timeout { call, benign: false } => (*at, call),
            ref other => panic!("expected a true timeout, got {other:?}"),
        })
        .collect();
    assert!(resent.iter().all(|&(at, _)| at < 10 * MILLIS), "at the notice: {resent:?}");
    assert_eq!(resent.iter().map(|&(_, call)| call).collect::<Vec<_>>(), [1, 2], "each once");
    assert!(loud[2..].iter().all(|(_, r)| matches!(r, DriverReport::Done { .. })));
    assert_eq!(r.seen.len(), 4, "two attempts each");
    assert!(r.seen[2..].iter().all(|&(at, req)| at < SECS && req > 2), "fresh ids, early");
}
