//! Recovery paths driven by hand: three [`Node`]s, a local coordination
//! service and one message queue the test controls — which messages are
//! lost, whose log forces complete, who crashes with what on disk. No
//! simulator and no timing, so every interleaving a test needs can be
//! written down exactly.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use spinnaker_common::vfs::{FaultPlan, FaultVfs, MemVfs, Vfs};
use spinnaker_common::{Consistency, Lsn, RangeId};
use spinnaker_coord::{Coord, Delivery, SessionId};
use spinnaker_core::coordcli::CoordClient;
use spinnaker_core::messages::{ClientReply, Effect, NodeInput, Outbox, PeerMsg, TimerKind};
use spinnaker_core::node::{get_request, put_request, Node, NodeConfig, Role};
use spinnaker_core::partition::{u64_to_key, Ring};

const R0: RangeId = RangeId(0);
const CLIENT: u32 = 99;

/// Decides which peer messages are lost: `(from, to, message)`.
type Lose = Box<dyn FnMut(usize, usize, &PeerMsg) -> bool>;

struct Pump {
    coord: Rc<RefCell<Coord>>,
    bus: Rc<RefCell<Vec<Delivery>>>,
    ring: Ring,
    /// Each node's disk; a crash keeps the synced prefix of every file.
    disks: Vec<MemVfs>,
    faults: Vec<Arc<FaultPlan>>,
    nodes: Vec<Option<Node>>,
    sessions: BTreeMap<SessionId, usize>,
    queue: VecDeque<(usize, NodeInput)>,
    lose: Lose,
    /// Nodes whose force completions are withheld (and lost in a crash).
    hold_forces: [bool; 3],
    /// Nodes that hear nothing from the coordination service.
    hold_events: [bool; 3],
    /// Every peer message delivered or lost, in send order.
    sent: Vec<(usize, usize, PeerMsg)>,
    /// Request ids acknowledged with `WriteOk`.
    written: Vec<u64>,
    /// The row of the last answered get.
    last_row: Option<Vec<u8>>,
    next_req: u64,
}

impl Pump {
    /// Three nodes booted and settled: node 0 leads range 0 in epoch 1.
    fn new() -> Pump {
        let mut pump = Pump {
            coord: Rc::new(RefCell::new(Coord::new())),
            bus: Rc::new(RefCell::new(Vec::new())),
            ring: Ring::with_nodes(3),
            disks: (0..3).map(|_| MemVfs::new()).collect(),
            faults: (0..3).map(|_| FaultPlan::new()).collect(),
            nodes: vec![None, None, None],
            sessions: BTreeMap::new(),
            queue: VecDeque::new(),
            lose: Box::new(|_, _, _| false),
            hold_forces: [false; 3],
            hold_events: [false; 3],
            sent: Vec::new(),
            written: Vec::new(),
            last_row: None,
            next_req: 1,
        };
        for node in 0..3 {
            pump.boot(node);
        }
        pump.run();
        assert_eq!(pump.role(0), Role::Leader, "election settled");
        assert_eq!(pump.node(0).epoch_of(R0), 1);
        pump
    }

    /// Start node `i` from its disk with a fresh coordination session.
    fn boot(&mut self, i: usize) {
        let session = self.coord.borrow_mut().create_session(u64::MAX / 2, 0);
        self.sessions.insert(session, i);
        let cc = CoordClient::new(self.coord.clone(), session, self.bus.clone());
        let vfs = FaultVfs::scoped(Arc::new(self.disks[i].clone()), self.faults[i].clone(), "wal/");
        let node = Node::new(i as u32, self.ring.clone(), NodeConfig::default(), Arc::new(vfs), cc)
            .expect("local recovery");
        self.nodes[i] = Some(node);
        self.queue.push_back((i, NodeInput::Start));
    }

    /// Crash node `i`: its memory and unsynced bytes are gone, its
    /// session expires at once, what was queued for it is lost.
    fn crash(&mut self, i: usize) {
        self.nodes[i] = None;
        self.disks[i] = self.disks[i].crash_clone();
        self.faults[i].disarm();
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

    fn feed(&mut self, i: usize, input: NodeInput) {
        let Some(node) = self.nodes[i].as_mut() else { return };
        let mut out = Outbox::default();
        node.on_input(0, input, &mut out);
        let poisoned = node.poisoned();
        let mut tokens = Vec::new();
        for effect in out.effects {
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
                        self.last_row =
                            cells.first().and_then(|c| c.value.clone()).map(|v| v.to_vec());
                    }
                    other => panic!("unexpected reply {other:?}"),
                },
                Effect::SetTimer { .. } => {}
            }
        }
        if !tokens.is_empty() && !self.hold_forces[i] {
            self.queue.push_back((i, NodeInput::LogForced { tokens }));
        }
        self.route_events();
        // Fail-stop, as the simulator's host does it.
        if poisoned {
            self.crash(i);
        }
    }

    /// Deliver until nothing is queued.
    fn run(&mut self) {
        while let Some((node, input)) = self.queue.pop_front() {
            self.feed(node, input);
        }
    }

    fn node(&self, i: usize) -> &Node {
        self.nodes[i].as_ref().expect("node is up")
    }

    fn role(&self, i: usize) -> Role {
        self.node(i).role(R0)
    }

    /// Submit a put of key `k` to `leader` (not yet delivered anywhere
    /// else); returns its request id.
    fn put(&mut self, leader: usize, k: u64) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        let request = put_request(req, u64_to_key(k), "c", format!("v{k}").as_bytes());
        self.feed(leader, NodeInput::Client { from: CLIENT, req: request });
        req
    }

    /// Put `keys` one by one through `leader`, each run to quiescence.
    fn put_all(&mut self, leader: usize, keys: impl IntoIterator<Item = u64>) {
        for k in keys {
            let req = self.put(leader, k);
            self.run();
            assert!(self.written.contains(&req), "put of key {k} acknowledged");
        }
    }

    /// The leader's periodic commit message.
    fn commit_tick(&mut self, leader: usize) {
        self.feed(leader, NodeInput::Timer(TimerKind::CommitPeriod));
        self.run();
    }

    /// What node `i` reads for key `k` (strong on a leader, timeline on a
    /// follower).
    fn read(&mut self, i: usize, k: u64) -> Option<Vec<u8>> {
        let consistency =
            if self.role(i) == Role::Leader { Consistency::Strong } else { Consistency::Timeline };
        let req = get_request(self.next_req, u64_to_key(k), "c", consistency);
        self.next_req += 1;
        self.last_row = None;
        self.feed(i, NodeInput::Client { from: CLIENT, req });
        self.last_row.take()
    }

    /// The `(first LSN, op count)` of every propose `from` sent `to`
    /// since index `since` of the send log.
    fn proposes(&self, since: usize, from: usize, to: usize) -> Vec<(Lsn, usize)> {
        self.sent[since..]
            .iter()
            .filter(|(f, t, _)| (*f, *t) == (from, to))
            .filter_map(|(_, _, m)| match m {
                PeerMsg::Propose { lsn, ops, .. } => Some((*lsn, ops.len())),
                _ => None,
            })
            .collect()
    }

    fn count_sent(&self, since: usize, from: usize, pred: impl Fn(&PeerMsg) -> bool) -> usize {
        self.sent[since..].iter().filter(|(f, _, m)| *f == from && pred(m)).count()
    }
}

fn is_propose(m: &PeerMsg) -> bool {
    matches!(m, PeerMsg::Propose { range: R0, .. })
}

fn is_ack(m: &PeerMsg) -> bool {
    matches!(m, PeerMsg::Ack { range: R0, .. })
}

fn is_commit(m: &PeerMsg) -> bool {
    matches!(m, PeerMsg::Commit { range: R0, .. })
}

fn lsn(epoch: u16, seq: u64) -> Lsn {
    Lsn::new(epoch, seq)
}

/// Takeover re-proposes the unresolved tail in groups that break at an
/// epoch boundary and at a logically truncated LSN, a follower that
/// already holds a whole group acknowledges it without logging it again,
/// and afterwards every acknowledged write is readable on every replica
/// — from its memory and from a replay of its log.
///
/// The tail is built the way a real cohort builds one: commit messages
/// lost to one follower (node 2) leave its committed watermark at 1.4
/// while it keeps logging through two epochs; an orphan (1.7, logged by
/// node 2 alone before the first leader died) is truncated by a catch-up
/// whose own commit note is lost in a crash. Node 2 then wins the third
/// election with `(1.4, 2.8]` unresolved: 1.5, 1.6, a hole where 1.7
/// was, 2.7, 2.8.
#[test]
fn takeover_groups_break_at_epoch_boundary_and_truncated_lsn() {
    let mut p = Pump::new();
    // Epoch 1, leader 0: keys 1-4 committed everywhere; 5 and 6 logged
    // everywhere and committed at the leader only; 7 reaches node 2 alone
    // and the leader dies before its own force.
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.put_all(0, 5..=6);
    p.hold_forces[0] = true;
    p.lose = Box::new(|_, to, m| to == 1 && is_propose(m));
    let orphan = p.put(0, 7);
    p.run();
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 7));
    assert_eq!(p.node(1).last_lsn(R0), lsn(1, 6));

    // Epoch 2: node 2 hears of the death late (its 1.7 would win it the
    // election), so node 1 takes over. Node 2 catches up and
    // acknowledges [1.5, 1.6]; every commit message to it is lost.
    p.hold_events[2] = true;
    p.lose = Box::new(|_, to, m| to == 2 && is_commit(m));
    p.crash(0);
    p.hold_forces[0] = false;
    p.run();
    assert_eq!(p.role(1), Role::Leader);
    assert_eq!(p.node(1).epoch_of(R0), 2);
    assert_eq!(p.role(2), Role::Follower);
    assert_eq!(p.node(2).last_committed(R0), lsn(1, 4), "node 2 never saw a commit past 1.4");
    p.boot(0);
    p.run();
    // 2.7 and 2.8: node 2 logs them over its orphan, vouched for by the
    // re-proposals still in its queue. Node 0 misses 2.8.
    let asked = p.node(2).catchup_requests(R0);
    p.put_all(1, 8..=8);
    p.lose = Box::new(|_, to, m| (to == 2 && is_commit(m)) || (to == 0 && is_propose(m)));
    p.put_all(1, 9..=9);
    assert_eq!(p.node(2).last_lsn(R0), lsn(2, 8));
    assert_eq!(p.node(0).last_lsn(R0), lsn(2, 7));
    assert_eq!(p.node(2).catchup_requests(R0), asked, "no catch-up across the epoch boundary");

    // Node 2 restarts and catches up through 2.8, which truncates 1.7 —
    // and crashes before the catch-up's commit note is durable: on disk
    // its committed watermark is still 1.4.
    p.crash(2);
    p.hold_events[2] = false;
    p.hold_forces[2] = true;
    p.boot(2);
    p.run();
    assert_eq!(p.node(2).wal().skipped_lsns(R0), vec![lsn(1, 7)]);
    assert_eq!(p.node(2).last_committed(R0), lsn(2, 8));
    p.crash(2);
    p.hold_forces[2] = false;

    // Epoch 3: node 1 dies while node 2 is down. Node 2 comes back to a
    // cohort without a leader, stands with what its disk says, and wins
    // on 2.8 against node 0's 2.7.
    p.lose = Box::new(|_, _, _| false);
    let takeover_from = p.sent.len();
    p.crash(1);
    p.boot(2);
    p.run();
    assert_eq!(p.role(2), Role::Leader);
    assert_eq!(p.node(2).epoch_of(R0), 3);
    assert_eq!(
        p.proposes(takeover_from, 2, 0),
        vec![(lsn(1, 5), 2), (lsn(2, 7), 2)],
        "one group per epoch, cut at the truncated 1.7"
    );
    assert_eq!(p.node(2).last_committed(R0), lsn(2, 8));
    assert_eq!(p.count_sent(takeover_from, 2, is_commit), 1, "the opening commit, to node 0");
    assert_eq!(p.node(0).last_committed(R0), lsn(2, 8));

    // Every acknowledged write is readable at the new leader and, after
    // a commit period, at the followers; the orphan was never
    // acknowledged and is gone.
    assert!(!p.written.contains(&orphan));
    p.boot(1);
    p.run();
    p.put_all(2, 10..=10);
    p.commit_tick(2);
    let acked = || (1..=6).chain(8..=10);
    for node in [2, 1, 0] {
        for k in acked() {
            assert_eq!(p.read(node, k), Some(format!("v{k}").into_bytes()), "node {node} key {k}");
        }
        assert_eq!(p.read(node, 7), None, "node {node}: the orphan is gone");
    }
    // The followers' logs replay to the same store (one more put first:
    // its force makes their commit notes durable).
    p.put_all(2, 11..=11);
    for node in [1, 0] {
        p.crash(node);
        p.boot(node);
        p.run();
        for k in acked() {
            assert_eq!(p.read(node, k), Some(format!("v{k}").into_bytes()), "replayed {node}/{k}");
        }
        assert_eq!(p.read(node, 7), None);
    }
}

/// ROADMAP 7d. A follower whose log refuses an append must not
/// acknowledge the group: the force it requests next succeeds, and at
/// the parent commit its ack let the leader commit — and acknowledge to
/// the client — a write only the leader held. The follower fail-stops
/// instead; the write commits once a replica that really logged it
/// acknowledges, and survives the leader.
#[test]
fn follower_that_cannot_log_a_group_fail_stops_instead_of_acking() {
    let mut p = Pump::new();
    p.put_all(0, 1..=2);
    // Node 2 is cut off: the leader and node 1 are the quorum.
    p.lose = Box::new(|from, to, _| from == 2 || to == 2);
    p.faults[1].fail_append_after(1);
    let since = p.sent.len();
    let req = p.put(0, 3);
    p.run();
    assert_eq!(p.faults[1].injected(), 1);
    assert!(p.nodes[1].is_none(), "node 1 fail-stopped");
    assert_eq!(p.count_sent(since, 1, is_ack), 0, "and acknowledged nothing");
    assert!(!p.written.contains(&req), "so the write is not acknowledged");
    assert_eq!(p.node(0).last_committed(R0), lsn(1, 2));

    // Node 1 restarts with a healthy device, catches up, is re-sent the
    // pending write, logs it — now the ack counts.
    p.boot(1);
    p.run();
    assert!(p.written.contains(&req));
    assert_eq!(p.node(1).last_lsn(R0), lsn(1, 3));
    // The leader dies; the acknowledged write outlives it.
    p.lose = Box::new(|_, _, _| false);
    p.crash(0);
    p.run();
    let leader = (1..3).find(|&i| p.role(i) == Role::Leader).expect("a new leader");
    assert_eq!(p.read(leader, 3), Some(b"v3".to_vec()));
}

/// The new leader dies mid-re-propose and a follower's log is torn
/// inside a re-proposed group's frame: the frame is all-or-nothing (the
/// follower comes back with the first group whole and none of the
/// second), and the next takeover re-proposes the tail again and
/// finishes.
#[test]
fn torn_reproposed_group_frame_is_all_or_nothing_and_next_takeover_finishes() {
    const N: u64 = 100; // two groups: 64 + 36
    let mut p = Pump::new();
    // Node 2 is cut off while the writes happen; no commit period
    // passes, so node 1 holds all N unresolved and node 2 none of them.
    p.lose = Box::new(|from, to, _| from == 2 || to == 2);
    p.put_all(0, 1..=N);
    p.crash(0);
    // The new leader's re-proposals reach the follower, are logged and
    // forced there — and no ack ever arrives.
    p.lose = Box::new(|_, _, m| is_ack(m));
    let since = p.sent.len();
    p.run();
    let w = (1..3).find(|&i| p.role(i) == Role::LeaderTakeover).expect("a takeover under way");
    let f = 3 - w;
    assert_eq!(p.proposes(since, w, f), vec![(lsn(1, 1), 64), (lsn(1, 65), 36)]);
    assert_eq!(p.node(w).last_committed(R0), Lsn::ZERO, "nothing re-committed yet");
    p.crash(w);
    p.crash(f);
    // Tear the follower's newest segment ten bytes into the last frame's
    // tail: the second re-proposed group.
    let disk = &p.disks[f];
    let seg = disk.list("wal/seg-").unwrap().into_iter().max().expect("a segment");
    let bytes = disk.read_all(&seg).unwrap();
    disk.write_atomic(&seg, &bytes[..bytes.len() - 10]).unwrap();

    p.lose = Box::new(|_, _, _| false);
    p.boot(f);
    assert_eq!(p.node(f).last_lsn(R0), lsn(1, 64), "the torn group left none of its 36 writes");
    p.boot(0);
    p.run();
    assert_eq!(p.role(0), Role::Leader, "the old leader holds the longest log and takes over");
    assert_eq!(p.node(0).epoch_of(R0), 3);
    assert_eq!(p.node(0).last_committed(R0), lsn(1, N));
    p.commit_tick(0);
    for node in [0, f] {
        for k in 1..=N {
            assert_eq!(p.read(node, k), Some(format!("v{k}").into_bytes()), "node {node} key {k}");
        }
    }
}
