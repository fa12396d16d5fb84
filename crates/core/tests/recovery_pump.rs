//! Recovery paths driven by hand on the shared pump (`support/pump.rs`):
//! takeover, catch-up, fail-stop on a refused or unreadable device, and
//! dissolves with a record in the log tail.

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spinnaker_common::api::{ClientOp, ClientRequest};
use spinnaker_common::vfs::{FaultPlan, Vfs};
use spinnaker_common::{Consistency, Lsn};
use spinnaker_coord::WatchEvent;
use spinnaker_core::messages::{ClientError, ClientReply, NodeInput, PeerMsg, TimerKind};
use spinnaker_core::node::{get_request, CohortPaths, NodeConfig, Role};
use spinnaker_core::partition::{key_to_u64, u64_to_key, TABLE_PATH};
use spinnaker_core::session::{CallOutcome, Session, SessionCall, SessionStep};
use spinnaker_core::{ClaimKind, DissolveEntry};

#[path = "support/pump.rs"]
mod pump;
use pump::{Pump, CLIENT, R0, R1};

fn lsn(epoch: u16, seq: u64) -> Lsn {
    Lsn::new(epoch, seq)
}

/// The tail prefix each `CaughtUp` node `from` sent since index `since`
/// of the send log vouched for.
fn vouches(p: &Pump, since: usize, from: usize) -> Vec<Lsn> {
    let held = |(f, _, m): &(usize, usize, PeerMsg)| match m {
        PeerMsg::CaughtUp { range: R0, held, .. } if *f == from => Some(*held),
        _ => None,
    };
    p.sent[since..].iter().filter_map(held).collect()
}

/// Takeover names the unresolved tail in runs that break at an epoch
/// boundary and at a logically truncated LSN, a follower vouches for the
/// part of it that it holds — committed or logged — and is re-proposed
/// only the rest, and afterwards every acknowledged write is readable on
/// every replica — from its memory and from a replay of its log.
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
    p.lose = Box::new(|_, to, m| to == 1 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    let orphan = p.put(0, 7);
    p.run();
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 7));
    assert_eq!(p.node(1).last_lsn(R0), lsn(1, 6));

    // Epoch 2: node 2 hears of the death late (its 1.7 would win it the
    // election), and node 0 restarts at once without 1.7, never forced:
    // nodes 0 and 1 stand with 1.6 and node 0, the range's home, takes
    // over. Node 2 catches up and vouches for [1.5, 1.6]; every commit
    // message to it is lost.
    p.hold_events[2] = true;
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Commit { range: R0, .. }));
    p.crash(0);
    p.hold_forces[0] = false;
    p.boot(0);
    p.run();
    assert_eq!(p.role(0), Role::Leader);
    assert_eq!(p.node(0).epoch_of(R0), 2);
    assert_eq!(p.role(2), Role::Follower);
    assert_eq!(p.node(2).last_committed(R0), lsn(1, 4), "node 2 never saw a commit past 1.4");
    // 2.7 and 2.8: node 2 logs them over its orphan, vouched for by the
    // tail still in its queue. Node 1 misses 2.8.
    let asked = p.node(2).catchup_requests(R0);
    p.put_all(0, 8..=8);
    p.lose = Box::new(|_, to, m| {
        (to == 2 && matches!(m, PeerMsg::Commit { range: R0, .. }))
            || (to == 1 && matches!(m, PeerMsg::Propose { range: R0, .. }))
    });
    p.put_all(0, 9..=9);
    assert_eq!(p.node(2).last_lsn(R0), lsn(2, 8));
    assert_eq!(p.node(1).last_lsn(R0), lsn(2, 7));
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

    // Epoch 3: node 0 dies while node 2 is down. Node 2 comes back to a
    // cohort without a leader, stands with what its disk says, and wins
    // on 2.8 against node 1's 2.7. Node 1 has committed past node 2's
    // 1.4 (through the opening commit of epoch 2, 1.6): it holds 1.5 and
    // 1.6 as committed, and 2.7 in its log, so it vouches on the hello
    // without asking and is sent only 2.8.
    p.lose = Box::new(|_, _, _| false);
    let takeover_from = p.sent.len();
    p.crash(0);
    p.boot(2);
    p.run();
    assert_eq!(p.role(2), Role::Leader);
    assert_eq!(p.node(2).epoch_of(R0), 3);
    let hellos: Vec<(Lsn, &Vec<(Lsn, u64)>)> = p.sent[takeover_from..]
        .iter()
        .filter_map(|(from, to, m)| match m {
            PeerMsg::LeaderHello { range: R0, up_to, tail, .. } if (*from, *to) == (2, 1) => {
                Some((*up_to, tail))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        hellos,
        [(lsn(1, 4), &vec![(lsn(1, 5), 2), (lsn(2, 7), 2)])],
        "one run per epoch, cut at the truncated 1.7"
    );
    let asks = |m: &PeerMsg| matches!(m, PeerMsg::CatchupReq { range: R0, .. });
    assert_eq!(p.count_sent(takeover_from, 1, asks), 0, "node 1 needs no records");
    assert_eq!(vouches(&p, takeover_from, 1), [lsn(2, 7)]);
    assert_eq!(p.proposes(takeover_from, 2, 1), [(lsn(2, 8), 1)], "what node 1 lacks");
    assert_eq!(p.node(2).last_committed(R0), lsn(2, 8));
    assert_eq!(
        p.count_sent(takeover_from, 2, |m| matches!(m, PeerMsg::Commit { range: R0, .. })),
        1,
        "the opening commit, to node 1"
    );
    assert_eq!(p.node(1).last_committed(R0), lsn(2, 8));

    // Every acknowledged write is readable at the new leader and, after
    // a commit period, at the followers; the orphan was never
    // acknowledged and is gone.
    assert!(!p.wrote(orphan));
    p.boot(0);
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

/// A put on key `k` for a session.
fn put_call(k: u64) -> SessionCall {
    SessionCall::Put {
        key: u64_to_key(k),
        cells: vec![(Bytes::from_static(b"c"), Bytes::from(format!("v{k}")))],
    }
}

/// Submit `call` to `session` and deliver its request, sent from
/// `client`, to the node the session routes it to; returns its request
/// id and that node.
fn send(p: &mut Pump, client: u32, session: &mut Session, rng: &mut SmallRng) -> (u64, usize) {
    let req = session.launch().start;
    let (to, wire) = session.wire(req, rng).expect("pending");
    p.feed(to as usize, NodeInput::Client { from: client, req: wire });
    (req, to as usize)
}

/// A successor answers the clients of the tail it commits. Key 5's put
/// (1.5) is logged by both followers, but every ack is lost and node 0
/// dies before it commits. The follower that takes over commits 1.5 and
/// sends the client the `WriteOk` node 0 would have sent — the version
/// and timestamp node 0 stamped — naming itself, then its leader notice;
/// the call completes once, the notice finds nothing left to re-send,
/// and the session sends its next write to the successor. Before the
/// successor answered, the client waited out its timer.
#[test]
fn a_successor_answers_the_clients_of_the_tail_it_commits() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut session = Session::new(p.ring.clone(), 1);
    let call = session.submit(put_call(5));
    let req = session.launch().start;
    let (to, wire) = session.wire(req, &mut rng).expect("pending");
    assert_eq!(to, 0, "the session starts at the range's first member");
    let before = p.replies.len();
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Ack { .. }));
    p.feed(0, NodeInput::Client { from: CLIENT, req: wire });
    p.run();
    assert_eq!(p.node(1).last_lsn(R0), lsn(1, 5), "node 1 logged 1.5");
    let stamped = p.sent.iter().find_map(|(_, _, m)| match m {
        PeerMsg::Propose { lsn: first, ops, .. } if *first == lsn(1, 5) => Some(ops[0].clone()),
        _ => None,
    });
    let stamped = stamped.expect("1.5 was proposed");
    assert_eq!(stamped.origin, Some((CLIENT, req)), "the propose names the waiting client");
    p.lose = Box::new(|_, _, _| false);
    p.crash(0);
    p.run();
    let leader = p.leader_of(R0);
    let ok = ClientReply::WriteOk {
        req,
        version: lsn(1, 5).as_u64(),
        ts: stamped.timestamp,
        leader: leader as u32,
    };
    let notice = ClientReply::Leader { range: R0, leader: leader as u32 };
    assert_eq!(
        p.replies[before..],
        [ok, notice],
        "the successor answered once, as node 0 would have, then said who leads"
    );
    let steps: Vec<SessionStep> =
        p.replies[before..].iter().map(|r| session.on_reply(r.clone(), || None)).collect();
    match steps.as_slice() {
        [SessionStep::Done { call: done, outcome: CallOutcome::Written { version, ts } }, SessionStep::None] =>
        {
            assert_eq!((*done, *version, *ts), (call, lsn(1, 5).as_u64(), stamped.timestamp));
        }
        other => panic!("expected the call done once and the notice quiet, got {other:?}"),
    }
    session.submit(put_call(6));
    let req = session.launch().start;
    assert_eq!(session.wire(req, &mut rng).expect("pending").0, leader as u32);
    assert_eq!(p.read(leader, 5), acked(5));
}

/// A successor sends one leader notice to each distinct client its tail
/// names, after that client's `WriteOk`s. Client A's puts of keys 5 and
/// 7 and client B's of 6 and 8 are logged by both followers, but every
/// ack is lost; node 0's force of 1.8 is held, so B's next put (key 9)
/// is never proposed, and node 0 dies. The successor commits 1.5-1.8,
/// answers all four, and tells A and B once each who leads. B's session
/// finds its put of key 9 stranded at node 0 and re-sends it at once to
/// the successor, where it commits; before the notice, it waited out its
/// retry timer.
#[test]
fn a_successor_tells_each_client_of_its_tail_who_leads_once() {
    const A: u32 = CLIENT;
    const B: u32 = CLIENT - 1;
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut b = Session::new(p.ring.clone(), 4);
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Ack { .. }));
    p.put_from(A, 0, 5);
    p.run();
    b.submit(put_call(6));
    send(&mut p, B, &mut b, &mut rng);
    p.run();
    p.put_from(A, 0, 7);
    p.run();
    p.hold_forces[0] = true;
    b.submit(put_call(8));
    send(&mut p, B, &mut b, &mut rng);
    p.run();
    b.submit(put_call(9));
    let (stranded, to) = send(&mut p, B, &mut b, &mut rng);
    p.run();
    assert_eq!(to, 0, "B's put of key 9 went to node 0");
    for node in [1, 2] {
        assert_eq!(p.node(node).last_lsn(R0), lsn(1, 8), "node {node} never saw key 9");
    }
    let answered: Vec<_> = (1..=4).map(|req| (A, req)).collect();
    assert_eq!(p.written, answered, "nothing past key 4 answered");
    p.lose = Box::new(|_, _, _| false);
    let before = p.replies.len();
    p.crash(0);
    p.run();
    let leader = p.leader_of(R0) as u32;
    assert_eq!(p.node(leader as usize).last_committed(R0), lsn(1, 8));
    assert_eq!(p.notices, [(B, R0, leader), (A, R0, leader)], "one notice per client");
    for client in [A, B] {
        let got = p.replies_to(before, client);
        let (last, oks) = got.split_last().expect("answered");
        assert_eq!(**last, ClientReply::Leader { range: R0, leader }, "client {client}");
        assert_eq!(oks.len(), 2, "client {client}: its two tail writes first");
        assert!(oks.iter().all(|r| matches!(r, ClientReply::WriteOk { .. })), "{oks:?}");
    }
    let mut resent = None;
    for reply in p.replies_to(before, B).into_iter().cloned().collect::<Vec<_>>() {
        match b.on_reply(reply, || None) {
            SessionStep::Done { .. } => {}
            SessionStep::Retransmit { req, .. } => resent = Some(req),
            other => panic!("unexpected step {other:?}"),
        }
    }
    let resent = resent.expect("the notice re-sent B's stranded put");
    assert_eq!(b.call_of(stranded), None, "under a fresh id");
    let (to, wire) = b.wire(resent, &mut rng).expect("pending");
    assert_eq!(to, leader, "to the successor");
    let before = p.replies.len();
    p.feed(to as usize, NodeInput::Client { from: B, req: wire });
    p.run();
    let answers = p.replies_to(before, B);
    let [answer] = answers.as_slice() else { panic!("one answer, got {answers:?}") };
    let done = b.on_reply((*answer).clone(), || None);
    assert!(matches!(done, SessionStep::Done { call: 3, .. }), "the re-sent put committed");
    let notice = ClientReply::Leader { range: R0, leader };
    assert!(matches!(b.on_reply(notice, || None), SessionStep::None), "nothing left to re-send");
    assert_eq!(p.read(leader as usize, 9), acked(9));
}

/// A takeover with no tail tells no client anything: not the boot
/// election, and not a successor whose predecessor had committed
/// everything it took.
#[test]
fn a_takeover_with_an_empty_tail_sends_no_notice() {
    let mut p = Pump::new();
    assert_eq!(p.notices, [], "the boot election");
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    let before = p.replies.len();
    p.crash(0);
    p.run();
    let leader = p.leader_of(R0);
    assert_eq!(p.node(leader).epoch_of(R0), 2, "a successor took over");
    assert_eq!(p.notices, [], "a successor with an empty tail");
    assert_eq!(p.replies.len(), before, "and no other reply");
}

/// A write a follower kept across a leader change names its client
/// only in the op: the successor that commits it sends no `WriteOk`
/// (`PendingOp::origin` is `None`), but its notice still reaches that
/// client, which re-sends at once instead of after its retry timer.
/// Node 0's force of key 5's put (1.5) is held while both followers log
/// it; node 0 dies, the winner's takeover stalls on the other follower's
/// lost `CaughtUp`, and the winner dies too. Node 0 comes back without
/// 1.5, and the follower that kept 1.5 wins and commits it.
#[test]
fn a_kept_writes_client_hears_the_notice_of_the_successor_that_commits_it() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut session = Session::new(p.ring.clone(), 1);
    session.submit(put_call(5));
    p.hold_forces[0] = true;
    let (req, to) = send(&mut p, CLIENT, &mut session, &mut rng);
    p.run();
    assert_eq!(to, 0);
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::CaughtUp { .. }));
    p.crash(0);
    p.run();
    let first = (1..=2).find(|&i| p.role(i) == Role::LeaderTakeover).expect("a stalled takeover");
    let keeper = 3 - first;
    assert_eq!(p.notices, [], "the stalled takeover told no one");
    p.lose = Box::new(|_, _, _| false);
    p.hold_forces[0] = false;
    let before = p.replies.len();
    p.crash(first);
    p.boot(0);
    p.run();
    assert_eq!(p.leader_of(R0), keeper, "the follower that kept 1.5 leads");
    assert_eq!(p.node(keeper).last_committed(R0), lsn(1, 5), "and committed it");
    let leader = keeper as u32;
    let notice = ClientReply::Leader { range: R0, leader };
    assert_eq!(
        p.replies_to(before, CLIENT),
        [&notice],
        "no one answers the kept write, but its client hears who leads"
    );
    let SessionStep::Retransmit { req: resent, .. } = session.on_reply(notice, || None) else {
        panic!("the notice re-sends the put")
    };
    assert_eq!(session.call_of(req), None, "under a fresh id");
    let (to, wire) = session.wire(resent, &mut rng).expect("pending");
    assert_eq!(to, leader);
    let before = p.replies.len();
    p.feed(keeper, NodeInput::Client { from: CLIENT, req: wire });
    p.run();
    let answers = p.replies_to(before, CLIENT);
    let [answer] = answers.as_slice() else { panic!("one answer, got {answers:?}") };
    let done = session.on_reply((*answer).clone(), || None);
    assert!(matches!(done, SessionStep::Done { call: 1, .. }), "the re-sent put committed");
    assert_eq!(p.read(keeper, 5), acked(5));
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
    assert_eq!(
        p.count_sent(since, 1, |m| matches!(m, PeerMsg::Ack { range: R0, .. })),
        0,
        "and acknowledged nothing"
    );
    assert!(!p.wrote(req), "so the write is not acknowledged");
    assert_eq!(p.node(0).last_committed(R0), lsn(1, 2));

    // Node 1 restarts with a healthy device, catches up, is re-sent the
    // pending write, logs it — now the ack counts.
    p.boot(1);
    p.run();
    assert!(p.wrote(req));
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
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Ack { range: R0, .. }));
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

/// A new leader that cannot read its unresolved tail back must not open
/// the cohort without it. 1.5 is acknowledged by the leader and node 1
/// (node 2 missed it) and committed nowhere else; the leader dies, and
/// node 1, holding the longest log, takes over with its log failing to
/// read back. Node 1 crashed with the leader, so its commit queue is
/// empty and its log alone holds the tail (a queued tail is never read
/// back). Before the fail-stop, the read error became an empty tail:
/// node 1 opened without 1.5 and a strong read of key 5 answered absent.
/// It fail-stops instead, and once restarted takes over with the tail.
#[test]
fn a_takeover_that_cannot_read_its_tail_fail_stops() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    p.put_all(0, 5..=5);
    p.lose = Box::new(|_, _, _| false);
    assert_eq!(p.node(1).last_committed(R0), lsn(1, 4));
    assert_eq!(p.node(1).last_lsn(R0), lsn(1, 5));
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 4));

    p.crash(1);
    p.crash(0);
    p.boot(1);
    p.faults[1].fail_read_after(1);
    p.run();
    assert_eq!(p.faults[1].injected(), 1, "node 1's read of its tail failed");
    let fail_stopped = p.nodes[1].is_none();
    if fail_stopped {
        p.boot(1);
        p.run();
    }
    assert_eq!(p.leader_of(R0), 1, "1.5 wins the election");
    for k in 1..=5 {
        assert_eq!(p.read(1, k), acked(k), "key {k}");
    }
    assert!(fail_stopped, "node 1 opened the cohort without its tail");
}

/// A settled leader re-sends a catching-up follower its pending writes
/// out of its commit queue, reading no log. Keys 1-4 are committed
/// everywhere; 1.5 is logged everywhere but sits in the leader's commit
/// queue (every ack is lost) when node 2 restarts and asks to catch up
/// from 1.4, and the leader's next log read would fail. While the
/// leader read 1.5 back from its log to re-send it, that read
/// fail-stopped it; it copies 1.5 out of its queue instead. With node 1
/// down, node 2's ack of it is the quorum that commits it.
#[test]
fn a_leader_serves_its_pending_writes_from_its_queue() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Ack { range: R0, .. }));
    let pending = p.put(0, 5);
    p.run();
    assert!(!p.wrote(pending));
    assert_eq!(p.node(0).last_committed(R0), lsn(1, 4));
    assert_eq!(p.node(0).last_lsn(R0), lsn(1, 5), "1.5 is in the leader's commit queue");

    // 1.5's force made node 2's commit note for 1.4 durable, so its
    // catch-up asks for nothing committed: all it lacks is 1.5.
    p.crash(2);
    p.crash(1);
    p.lose = Box::new(|_, _, _| false);
    p.faults[0].fail_read_after(1);
    p.boot(2);
    p.run();
    assert_eq!(p.faults[0].injected(), 0, "the leader read its log");
    assert!(p.nodes[0].is_some(), "the leader fail-stopped");
    p.commit_tick(0);
    assert!(p.wrote(pending), "node 2's ack committed 1.5 and its client was answered");
    assert_eq!(p.node(2).last_committed(R0), lsn(1, 5));
    for k in 1..=5 {
        assert_eq!(p.read(2, k), acked(k), "key {k} at node 2");
    }
}

/// A catch-up re-sends a follower the leader's proposed writes past its
/// watermark, each once, and none of the writes sequenced since: the
/// next flush proposes those to every peer. Keys 1-4 commit; node 2
/// restarts after 1.5-1.7 were proposed one by one (node 1's acks lost,
/// so they stay pending), with 1.8 proposed and its force held, and
/// 1.9 and 1.10 waiting behind that force, unproposed.
#[test]
fn a_catch_up_resends_the_proposed_writes_once_and_leaves_the_rest_to_the_flush() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.crash(2);
    p.lose = Box::new(|from, _, m| from == 1 && matches!(m, PeerMsg::Ack { .. }));
    let mut reqs = Vec::new();
    for k in 5..=10 {
        p.hold_forces[0] = k >= 8;
        reqs.push(p.put(0, k));
        p.run();
    }
    assert_eq!(p.node(0).last_lsn(R0), lsn(1, 8), "1.9 and 1.10 are not proposed yet");
    assert_eq!(p.node(0).last_committed(R0), lsn(1, 4));

    let since = p.sent.len();
    p.boot(2);
    p.run();
    assert_eq!(p.role(2), Role::Follower);
    assert_eq!(p.proposes(since, 0, 2), [(lsn(1, 5), 4)], "1.5-1.8, cut as one group");
    assert_eq!(p.proposes(since, 0, 1), [], "node 1 holds them all");
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 8));

    // The held force completes: the flush proposes 1.9 and 1.10 to both.
    let since = p.sent.len();
    p.release_forces(0);
    p.run();
    for node in [1, 2] {
        assert_eq!(p.proposes(since, 0, node), [(lsn(1, 9), 2)], "node {node}");
    }
    p.commit_tick(0);
    assert!(reqs.iter().all(|&req| p.wrote(req)), "node 2's acks committed 1.5-1.10");
    let logged: Vec<Lsn> = p.stream(2, R0, lsn(1, 4)).into_iter().map(|(lsn, _)| lsn).collect();
    assert_eq!(logged, (5..=10).map(|seq| lsn(1, seq)).collect::<Vec<_>>(), "each once");
}

/// A propose lost to every follower is sent again. Key 5's put (1.5)
/// reaches neither follower, and the only write after it is a
/// conditional put on key 5 expecting the column unwritten: the leader
/// holds that rejection until 1.5 commits and proposes nothing new, so
/// no follower sees a gap to ask about. At the parent commit nothing
/// re-sent 1.5 and both calls waited for good (nemesis seed 119, where a
/// split barrier waited on such a write). Each commit message names the
/// newest LSN the leader had proposed a commit period earlier; the
/// followers, short of it, catch up, and the re-sent 1.5 commits.
#[test]
fn a_propose_lost_to_every_follower_is_sent_again() {
    let mut p = Pump::new();
    p.expect_errors = true;
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Propose { .. }));
    let put = p.put(0, 5);
    p.run();
    p.lose = Box::new(|_, _, _| false);
    assert_eq!((p.node(1).last_lsn(R0), p.node(2).last_lsn(R0)), (lsn(1, 4), lsn(1, 4)));
    let cond = p.next_req;
    p.next_req += 1;
    let op = ClientOp::ConditionalPut {
        key: u64_to_key(5),
        col: Bytes::from_static(b"c"),
        value: Bytes::from_static(b"w"),
        expected: 0,
    };
    let req = ClientRequest { req: cond, ring_version: 0, op };
    p.feed(0, NodeInput::Client { from: CLIENT, req });
    p.run();
    p.commit_tick(0);
    p.commit_tick(0);
    assert!(p.wrote(put), "the lost put committed");
    let mismatch = ClientError::VersionMismatch { actual: lsn(1, 5).as_u64() };
    assert!(
        p.replies.contains(&ClientReply::Err { req: cond, error: mismatch }),
        "the conditional put was answered"
    );
    for i in 1..3 {
        assert_eq!(p.node(i).last_lsn(R0), lsn(1, 5), "node {i} logged 1.5");
    }
}

/// An ack lost from every follower is sent again. Key 5's put (1.5)
/// reaches both followers, which log it, but both acks are lost, and the
/// only write after it is a conditional put on key 5 that the leader holds
/// until 1.5 commits: nothing new is proposed, so no later cumulative ack
/// covers 1.5. At the parent commit both calls waited for good (nemesis
/// seed 2850, where a split barrier waited on such a write). A follower
/// that holds what a commit message names as proposed a commit period
/// earlier, past the leader's watermark, acknowledges it again.
#[test]
fn an_ack_lost_from_every_follower_is_sent_again() {
    let mut p = Pump::new();
    p.expect_errors = true;
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Ack { .. }));
    let put = p.put(0, 5);
    p.run();
    p.lose = Box::new(|_, _, _| false);
    assert_eq!((p.node(1).last_lsn(R0), p.node(2).last_lsn(R0)), (lsn(1, 5), lsn(1, 5)));
    assert!(!p.wrote(put), "no ack reached the leader");
    let cond = p.next_req;
    p.next_req += 1;
    let op = ClientOp::ConditionalPut {
        key: u64_to_key(5),
        col: Bytes::from_static(b"c"),
        value: Bytes::from_static(b"w"),
        expected: 0,
    };
    let req = ClientRequest { req: cond, ring_version: 0, op };
    p.feed(0, NodeInput::Client { from: CLIENT, req });
    p.run();
    p.commit_tick(0);
    p.commit_tick(0);
    assert!(p.wrote(put), "the put whose acks were lost committed");
    let mismatch = ClientError::VersionMismatch { actual: lsn(1, 5).as_u64() };
    assert!(
        p.replies.contains(&ClientReply::Err { req: cond, error: mismatch }),
        "the conditional put was answered"
    );
}

/// The same hole on a range with nothing committed yet: its first propose
/// lost to every follower. At the parent commit the leader stayed quiet
/// on its commit period while its watermark was zero, so no commit
/// message named what it had sent, and the put waited forever.
#[test]
fn a_ranges_first_propose_lost_to_every_follower_is_sent_again() {
    let mut p = Pump::new();
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Propose { .. }));
    let put = p.put(0, 1);
    p.run();
    p.lose = Box::new(|_, _, _| false);
    assert!(!p.wrote(put), "nothing acknowledged the lost put");
    p.commit_tick(0);
    p.commit_tick(0);
    assert!(p.wrote(put), "the lost first put committed");
    for i in 1..3 {
        assert_eq!(p.node(i).last_lsn(R0), lsn(1, 1), "node {i} logged 1.1");
    }
}

// =====================================================================
// takeover: a follower vouches for the tail it holds
// =====================================================================

/// At most one catch-up request per takeover, sent on the hello. Node 2
/// hears no commit past 1.2 and misses 1.5, so node 1 takes over with
/// the longer log and a watermark (1.4) node 2 lacks. Node 2 learns who
/// won from the election and asks nothing; the winner's hello names 1.4,
/// and node 2 asks once. Before the hello carried a watermark, the
/// election's verdict asked; earlier still, the hello asked a second
/// time, and the leader served the history twice.
#[test]
fn a_takeover_costs_a_follower_one_catch_up_request() {
    let mut p = Pump::new();
    p.put_all(0, 1..=2);
    p.commit_tick(0);
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Commit { range: R0, .. }));
    p.put_all(0, 3..=4);
    p.commit_tick(0);
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    p.put_all(0, 5..=5);
    p.lose = Box::new(|_, _, _| false);
    let asked = [1, 2].map(|i| p.node(i).catchup_requests(R0));
    let since = p.sent.len();
    p.crash(0);
    p.run();
    assert_eq!(p.leader_of(R0), 1, "node 1 holds the longest log");
    assert_eq!(p.node(2).catchup_requests(R0), asked[1] + 1);
    assert_eq!(p.node(1).catchup_requests(R0), asked[0]);
    // The request follows the hello: nothing before it asked.
    let hello = p.sent[since..]
        .iter()
        .position(|(f, t, m)| (*f, *t) == (1, 2) && matches!(m, PeerMsg::LeaderHello { .. }))
        .expect("node 1 greeted node 2");
    let asks = |m: &PeerMsg| matches!(m, PeerMsg::CatchupReq { range: R0, .. });
    assert_eq!(p.count_sent(since + hello, 2, asks), 1);
    for node in [1, 2] {
        for k in 1..=5 {
            assert_eq!(p.read(node, k), acked(k), "node {node} key {k}");
        }
    }
}

/// A follower that holds the committed history vouches on the hello and
/// never asks. Keys 1-4 are committed everywhere and 5-8 logged
/// everywhere but committed at node 0 alone when it dies: the
/// successor's hello names watermark 1.4 and the tail 1.5-1.8, and the
/// follower vouches for all of it without a catch-up round. At the
/// parent commit the election's verdict sent a request, and the leader
/// answered it with an empty reply before the cohort could open.
#[test]
fn a_follower_that_holds_the_committed_history_vouches_on_the_hello() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.put_all(0, 5..=8);
    let asked = [1, 2].map(|i| p.node(i).catchup_requests(R0));
    let since = p.sent.len();
    p.crash(0);
    p.run();
    let leader = p.leader_of(R0);
    let follower = 3 - leader;
    assert_eq!(p.node(follower).catchup_requests(R0), asked[follower - 1], "no request");
    let catch_up =
        |m: &PeerMsg| matches!(m, PeerMsg::CatchupReq { .. } | PeerMsg::CatchupRecords { .. });
    assert_eq!(p.count_sent(since, follower, catch_up), 0);
    assert_eq!(p.count_sent(since, leader, catch_up), 0);
    let hello = PeerMsg::LeaderHello {
        range: R0,
        epoch: 2,
        leader: leader as u32,
        up_to: lsn(1, 4),
        tail: vec![(lsn(1, 5), 4)],
        store_empty: false,
    };
    assert!(p.sent[since..].contains(&(leader, follower, hello)), "the hello names the tail");
    assert_eq!(vouches(&p, since, follower), [lsn(1, 8)]);
    assert_eq!(p.node(leader).last_committed(R0), lsn(1, 8));
    assert_eq!(p.node(follower).last_committed(R0), lsn(1, 8), "the opening commit drained");
    for node in [leader, follower] {
        for k in 1..=8 {
            assert_eq!(p.read(node, k), acked(k), "node {node} key {k}");
        }
    }
}

/// A follower behind the hello's watermark asks, and vouches on the
/// reply. Node 2 hears no commit past 1.2 while keys 3-6 are committed
/// and 7-8 logged everywhere: the successor's hello names 1.6, which node
/// 2 lacks. It asks once, is shipped 1.3-1.6 with the tail 1.7-1.8 named
/// again, vouches for the tail and is proposed none of it.
#[test]
fn a_follower_behind_the_hellos_watermark_asks_and_vouches_on_the_reply() {
    let mut p = Pump::new();
    p.put_all(0, 1..=2);
    p.commit_tick(0);
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Commit { range: R0, .. }));
    p.put_all(0, 3..=6);
    p.commit_tick(0);
    p.put_all(0, 7..=8);
    p.lose = Box::new(|_, _, _| false);
    assert_eq!(p.node(2).last_committed(R0), lsn(1, 2));
    let since = p.sent.len();
    p.crash(0);
    p.run();
    assert_eq!(p.leader_of(R0), 1, "node 1 wins the tie: it stood first");
    let asks = |m: &PeerMsg| matches!(m, PeerMsg::CatchupReq { range: R0, .. });
    assert_eq!(p.count_sent(since, 2, asks), 1);
    let replies: Vec<_> = p.sent[since..]
        .iter()
        .filter_map(|(f, t, m)| match m {
            PeerMsg::CatchupRecords { records, up_to, tail, .. } if (*f, *t) == (1, 2) => {
                Some((records.len(), *up_to, tail.clone()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(replies, [(4, lsn(1, 6), vec![(lsn(1, 7), 2)])], "1.3-1.6, naming 1.7-1.8");
    assert_eq!(vouches(&p, since, 2), [lsn(1, 8)]);
    assert_eq!(p.proposes(since, 1, 2), [], "node 2 holds the tail");
    assert_eq!(p.node(2).last_committed(R0), lsn(1, 8));
    for node in [1, 2] {
        for k in 1..=8 {
            assert_eq!(p.read(node, k), acked(k), "node {node} key {k}");
        }
    }
}

/// A lost hello still converges. Every hello of the takeover is lost:
/// the follower learned who won from the election, asks nothing, and
/// the takeover stalls — until the election-retry timer re-sends the
/// hello, which the follower vouches on.
#[test]
fn a_lost_hello_still_converges() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.put_all(0, 5..=6);
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::LeaderHello { .. }));
    p.crash(0);
    p.run();
    let leader = [1, 2].into_iter().find(|&i| p.role(i) == Role::LeaderTakeover).expect("won");
    let follower = 3 - leader;
    assert_eq!(p.role(follower), Role::CatchingUp);
    assert_eq!(p.node(follower).leader_of(R0), Some(leader as u32));
    p.lose = Box::new(|_, _, _| false);
    let since = p.sent.len();
    p.feed(leader, NodeInput::Timer(TimerKind::ElectionRetry));
    p.run();
    assert_eq!(p.role(leader), Role::Leader);
    assert_eq!(p.role(follower), Role::Follower);
    assert_eq!(vouches(&p, since, follower), [lsn(1, 6)]);
    p.put_all(leader, 7..=7);
    p.commit_tick(leader);
    for node in [leader, follower] {
        for k in 1..=7 {
            assert_eq!(p.read(node, k), acked(k), "node {node} key {k}");
        }
    }
}

/// A follower that holds the whole unresolved tail vouches for it and is
/// sent none of it. Keys 5-8 are logged everywhere but committed at node
/// 0 alone when it dies: the successor commits them on the follower's
/// `CaughtUp`, answers their clients, and opens.
#[test]
fn a_follower_that_holds_the_whole_tail_is_sent_none_of_it() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.put_all(0, 5..=8);
    let since = p.sent.len();
    let answered = p.written.len();
    p.crash(0);
    p.run();
    let leader = p.leader_of(R0);
    let follower = 3 - leader;
    assert_eq!(p.node(leader).epoch_of(R0), 2);
    assert_eq!(vouches(&p, since, follower), [lsn(1, 8)]);
    assert_eq!(p.proposes(since, leader, follower), [], "a tail propose");
    assert_eq!(p.node(leader).last_committed(R0), lsn(1, 8));
    assert_eq!(p.written.len(), answered + 4, "the successor answered the tail's clients");
    assert_eq!(p.node(follower).last_committed(R0), lsn(1, 8), "the opening commit drained");
    for node in [leader, follower] {
        for k in 1..=8 {
            assert_eq!(p.read(node, k), acked(k), "node {node} key {k}");
        }
    }
}

/// A follower that missed the last group vouches for the prefix it holds
/// and is sent only the rest as payload. Node 2 misses keys 7 and 8, so
/// node 1 takes over with the longer log; node 2 vouches for 1.5 and 1.6
/// and is proposed 1.7 and 1.8 in one group.
#[test]
fn a_follower_that_missed_the_last_group_is_sent_only_that() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.put_all(0, 5..=6);
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    p.put_all(0, 7..=8);
    p.lose = Box::new(|_, _, _| false);
    let since = p.sent.len();
    p.crash(0);
    p.run();
    assert_eq!(p.leader_of(R0), 1, "node 1 holds the longest log");
    assert_eq!(vouches(&p, since, 2), [lsn(1, 6)]);
    assert_eq!(p.proposes(since, 1, 2), [(lsn(1, 7), 2)], "only what node 2 lacks");
    assert_eq!(p.node(1).last_committed(R0), lsn(1, 8));
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 8));
    for node in [1, 2] {
        for k in 1..=8 {
            assert_eq!(p.read(node, k), acked(k), "node {node} key {k}");
        }
    }
}

/// An orphan inside the vouched span is truncated and never replayed.
/// Node 2 logs 1.7 alone (node 0's own force never completes) and hears
/// no commit past 1.4. Node 0 comes back without 1.7 and, with node 1,
/// opens epoch 2 on the tail 1.5, 1.6, which node 2 vouches for; node 2
/// logs 2.7 behind them, over its orphan. Nodes 0 and 2 go down, node 1
/// stands first, and once node 2 is back it wins epoch 3 on the tie with
/// the tail 2.7. Node 2 holds 2.7 with 1.7 below it: it vouches for 2.7,
/// truncates 1.7, and after a restart past a later commit serves no key
/// 7. At the parent commit 1.7 stayed in its log and replayed.
#[test]
fn an_orphan_inside_the_vouched_tail_is_truncated_and_never_replayed() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    let commit_to_2 = |to: usize, m: &PeerMsg| to == 2 && matches!(m, PeerMsg::Commit { .. });
    p.lose = Box::new(move |_, to, m| commit_to_2(to, m));
    p.put_all(0, 5..=6);
    p.hold_forces[0] = true;
    p.lose = Box::new(move |_, to, m| {
        commit_to_2(to, m) || (to == 1 && matches!(m, PeerMsg::Propose { range: R0, .. }))
    });
    let orphan = p.put(0, 7);
    p.run();
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 7));

    p.hold_events[2] = true;
    p.lose = Box::new(move |_, to, m| commit_to_2(to, m));
    p.crash(0);
    p.hold_forces[0] = false;
    p.boot(0);
    p.run();
    assert_eq!((p.leader_of(R0), p.node(0).epoch_of(R0)), (0, 2));
    p.put_all(0, 8..=8);
    assert_eq!(p.node(2).last_lsn(R0), lsn(2, 7), "node 2 logged 2.7 over its orphan");
    assert_eq!(p.node(2).last_committed(R0), lsn(1, 4));

    p.crash(0);
    p.crash(2);
    p.run();
    p.hold_events[2] = false;
    p.lose = Box::new(|_, _, _| false);
    let since = p.sent.len();
    p.boot(2);
    p.run();
    assert_eq!((p.leader_of(R0), p.node(1).epoch_of(R0)), (1, 3));
    assert_eq!(vouches(&p, since, 2), [lsn(2, 7)]);
    assert_eq!(p.node(2).wal().skipped_lsns(R0), [lsn(1, 7)], "the orphan is truncated");
    assert_eq!(p.proposes(since, 1, 2), []);

    p.put_all(1, 9..=9);
    p.commit_tick(1);
    p.crash(2);
    p.boot(2);
    p.run();
    assert!(!p.wrote(orphan));
    for node in [1, 2] {
        for k in (1..=6).chain(8..=9) {
            assert_eq!(p.read(node, k), acked(k), "node {node} key {k}");
        }
        assert_eq!(p.read(node, 7), None, "node {node} replayed the orphan");
    }
}

/// The unresolved tail, as runs, of every hello `from` sent `to` since
/// index `since` of the send log.
fn hello_tails(p: &Pump, since: usize, from: usize, to: usize) -> Vec<Vec<(Lsn, u64)>> {
    let tail = |(f, t, m): &(usize, usize, PeerMsg)| match m {
        PeerMsg::LeaderHello { range: R0, tail, .. } if (*f, *t) == (from, to) => {
            Some(tail.clone())
        }
        _ => None,
    };
    p.sent[since..].iter().filter_map(tail).collect()
}

/// How many times the put of request `req` was acknowledged.
fn acks_of(p: &Pump, req: u64) -> usize {
    p.written.iter().filter(|&&w| w == (CLIENT, req)).count()
}

/// A successor that restarted holds its tail in its log alone, and reads
/// it back from there. Keys 5-8 are logged by nodes 0 and 1, keys 5 and 6
/// by node 2 too, and committed at node 0 alone. Nodes 1 and 0 crash, and
/// node 1 comes back with an empty queue: it wins on its longer log,
/// names the tail 1.5-1.8 as one run, node 2 vouches for the 1.5 and 1.6
/// it holds queued and is sent 1.7 and 1.8. A write read back from the
/// log names no client, so the tail commits without a second answer.
#[test]
fn a_restarted_successor_reads_its_tail_back_from_its_log() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.put_all(0, 5..=6);
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    p.put_all(0, 7..=8);
    p.lose = Box::new(|_, _, _| false);
    let answered = p.written.len();
    p.crash(1);
    p.crash(0);
    let since = p.sent.len();
    p.boot(1);
    p.run();
    assert_eq!(p.leader_of(R0), 1, "node 1 holds the longest log");
    assert_eq!(hello_tails(&p, since, 1, 2), [vec![(lsn(1, 5), 4)]]);
    assert_eq!(vouches(&p, since, 2), [lsn(1, 6)]);
    assert_eq!(p.proposes(since, 1, 2), [(lsn(1, 7), 2)], "only what node 2 lacks");
    assert_eq!(p.written.len(), answered, "no client of the tail is answered again");
    for node in [1, 2] {
        assert_eq!(p.node(node).last_committed(R0), lsn(1, 8), "node {node}");
        for k in 1..=8 {
            assert_eq!(p.read(node, k), acked(k), "node {node} key {k}");
        }
    }
}

/// A follower whose queue holds writes of an older epoch that the new
/// leader's history does not list drops them from its queue and its log
/// alike. Node 2 alone logs key 50 as 1.5 (node 0's own force never
/// completes) and then hears nothing while nodes 0 and 1
/// commit 2.5 and 2.6 in epoch 2 and log 2.7 and 2.8. Node 0 restarts and
/// takes over epoch 3 with the tail 2.7, 2.8, read from its log; node 1
/// vouches for it from its queue. Node 2 is behind the hello, asks,
/// truncates 1.5 under the reply's 2.5 and 2.6 and vouches for nothing;
/// the orphan is never applied, before or after a restart.
#[test]
fn a_follower_drops_the_older_writes_the_new_leader_does_not_list() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.hold_forces[0] = true;
    p.lose = Box::new(|_, to, m| to == 1 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    let orphan = p.put(0, 50);
    p.run();
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 5));

    // Epoch 2 without node 2.
    p.hold_events[2] = true;
    p.lose = Box::new(|_, to, _| to == 2);
    p.crash(0);
    p.hold_forces[0] = false;
    p.boot(0);
    p.run();
    assert_eq!((p.leader_of(R0), p.node(0).epoch_of(R0)), (0, 2));
    p.put_all(0, 5..=6);
    p.commit_tick(0);
    p.put_all(0, 7..=8);
    assert_eq!(p.node(1).last_committed(R0), lsn(2, 6));

    // Epoch 3: node 0 restarts and takes over; node 2 hears it.
    p.lose = Box::new(|_, _, _| false);
    p.crash(0);
    let since = p.sent.len();
    p.boot(0);
    p.run();
    assert_eq!((p.leader_of(R0), p.node(0).epoch_of(R0)), (0, 3));
    assert_eq!(hello_tails(&p, since, 0, 2), [vec![(lsn(2, 7), 2)]]);
    assert_eq!(vouches(&p, since, 1), [lsn(2, 8)]);
    assert_eq!(vouches(&p, since, 2), [Lsn::ZERO]);
    assert_eq!(p.node(2).wal().skipped_lsns(R0), [lsn(1, 5)]);
    assert_eq!(p.proposes(since, 0, 1), [], "node 1 lacks nothing");
    // The tail committed on node 1's vouch, before node 2's came in:
    // node 2 fetches it on the next commit period.
    assert_eq!(p.proposes(since, 0, 2), []);
    assert_eq!(p.node(2).last_committed(R0), lsn(2, 6));
    assert_eq!(acks_of(&p, orphan), 0);
    p.commit_tick(0);
    p.crash(2);
    p.boot(2);
    p.run();
    for node in 0..3 {
        assert_eq!(p.node(node).last_committed(R0), lsn(2, 8), "node {node}");
        for k in 1..=8 {
            assert_eq!(p.read(node, k), acked(k), "node {node} key {k}");
        }
        assert_eq!(p.read(node, 50), None, "node {node} applied the orphan");
    }
}

/// A follower that vouches for a prefix of the tail is sent the rest in
/// the groups of 64 the whole tail is cut into, from its first write on.
/// Node 2 misses keys 105-204, so node 1 takes over with the tail
/// 1.5-1.204 (groups 1.5-1.68, 1.69-1.132, 1.133-1.196, 1.197-1.204);
/// node 2 vouches for 1.104 and is sent 1.105-1.132, the second group's
/// part it lacks, then the last two whole. The successor answers every
/// client of the tail from its queue.
#[test]
fn a_follower_short_of_the_tail_is_sent_the_rest_in_groups_of_64() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.put_all(0, 5..=104);
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    p.put_all(0, 105..=204);
    p.lose = Box::new(|_, _, _| false);
    let answered = p.written.len();
    let since = p.sent.len();
    p.crash(0);
    p.run();
    assert_eq!(p.leader_of(R0), 1, "node 1 holds the longest log");
    assert_eq!(hello_tails(&p, since, 1, 2), [vec![(lsn(1, 5), 200)]]);
    assert_eq!(vouches(&p, since, 2), [lsn(1, 104)]);
    assert_eq!(p.proposes(since, 1, 2), [(lsn(1, 105), 28), (lsn(1, 133), 64), (lsn(1, 197), 8)]);
    assert_eq!(p.written.len(), answered + 200, "the successor answered the tail's clients");
    for node in [1, 2] {
        assert_eq!(p.node(node).last_committed(R0), lsn(1, 204), "node {node}");
        for k in 1..=204 {
            assert_eq!(p.read(node, k), acked(k), "node {node} key {k}");
        }
    }
}

/// A follower keeps the writes it vouched for queued across a takeover,
/// and when it takes over in turn it answers none of their clients: the
/// leader that resolved them did. Keys 5-8 are queued on both followers
/// when node 0 dies; the successor commits them on the other's vouch and
/// answers them, and its commits to that follower are lost, so 1.5-1.8
/// stay in the follower's queue, with 2.9 (key 9) behind them. The
/// successor dies, node 0 comes back, and the follower wins epoch 3 on
/// 2.9: it commits its tail 1.5-2.9 and answers only key 9's client, the
/// one its queue holds as proposed.
#[test]
fn a_follower_answers_none_of_the_tail_it_vouched_for_when_it_takes_over() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    let reqs: Vec<u64> = (5..=8).map(|k| p.put(0, k)).collect();
    p.run();
    let since = p.sent.len();
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Commit { .. }));
    p.crash(0);
    p.run();
    let successor = p.leader_of(R0);
    let follower = 3 - successor;
    assert_eq!(vouches(&p, since, follower), [lsn(1, 8)]);
    assert!(reqs.iter().all(|&req| acks_of(&p, req) == 2), "node 0 and the successor answered");
    let ninth = p.put(successor, 9);
    p.run();
    assert_eq!(acks_of(&p, ninth), 1);
    assert_eq!(p.node(follower).last_committed(R0), lsn(1, 4));
    assert_eq!(p.node(follower).last_lsn(R0), lsn(2, 9));

    p.lose = Box::new(|_, _, _| false);
    p.crash(successor);
    let since = p.sent.len();
    p.boot(0);
    p.run();
    assert_eq!((p.leader_of(R0), p.node(follower).epoch_of(R0)), (follower, 3));
    assert_eq!(hello_tails(&p, since, follower, 0), [vec![(lsn(1, 5), 4), (lsn(2, 9), 1)]]);
    assert_eq!(p.node(follower).last_committed(R0), lsn(2, 9));
    assert!(reqs.iter().all(|&req| acks_of(&p, req) == 2), "answered again");
    assert_eq!(acks_of(&p, ninth), 2, "the follower answers what it was proposed");
    for node in [0, follower] {
        for k in 1..=9 {
            assert_eq!(p.read(node, k), acked(k), "node {node} key {k}");
        }
    }
}

/// A follower that crashes right after vouching still has every write it
/// vouched for. Node 2 logs keys 5-8 with its forces held, so they sit
/// unsynced in its log, and it misses the election: node 0 comes back
/// and takes over with the tail 1.5-1.8, and node 2 vouches for all of
/// it. It crashes the moment its `CaughtUp` leaves, and its disk holds
/// the four writes: the vouch waited for a force.
#[test]
fn a_follower_that_crashes_right_after_vouching_keeps_what_it_vouched_for() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.hold_forces[2] = true;
    p.put_all(0, 5..=8);
    p.hold_forces[2] = false;
    p.hold_events[2] = true;
    p.crash(0);
    p.boot(0);
    let since = p.sent.len();
    while vouches(&p, since, 2).is_empty() {
        let (node, input) = p.queue.pop_front().expect("node 2 confirms its catch-up");
        p.feed(node, input);
    }
    assert_eq!(p.node(0).epoch_of(R0), 2);
    assert_eq!(vouches(&p, since, 2), [lsn(1, 8)]);
    p.crash(2);
    p.hold_events[2] = false;
    p.boot(2);
    let keys: Vec<u64> = p.stream(2, R0, lsn(1, 4)).iter().map(|(_, k)| key_to_u64(k)).collect();
    assert_eq!(keys, [5, 6, 7, 8], "node 2 lost writes it vouched for");
    p.run();
    for k in 1..=8 {
        assert_eq!(p.read(0, k), acked(k), "key {k}");
    }
}

/// A vouch is read off the log's index, not its tip. Node 1 logs 1.7
/// alone (node 0's force never completes); epoch 2 runs without node 1,
/// and node 2 logs 2.7 alone. Node 1 then takes over epoch 3 with the
/// tail 1.5-1.7, and node 2, whose log tip 2.7 lies past all of it,
/// holds only 1.5 and 1.6 (committed): it vouches for 1.6 and is sent
/// 1.7.
#[test]
fn a_vouch_is_read_off_the_index_not_the_log_tip() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.put_all(0, 5..=6);
    p.hold_forces[0] = true;
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    p.put(0, 7);
    p.run();
    assert_eq!(p.node(1).last_lsn(R0), lsn(1, 7));

    // Epoch 2, without node 1.
    p.hold_events[1] = true;
    p.lose = Box::new(|from, to, _| from == 1 || to == 1);
    p.crash(0);
    p.hold_forces[0] = false;
    p.boot(0);
    p.run();
    assert_eq!((p.leader_of(R0), p.node(0).epoch_of(R0)), (0, 2));
    p.hold_forces[0] = true;
    p.put(0, 9);
    p.run();
    assert_eq!(p.node(2).last_lsn(R0), lsn(2, 7));
    assert_eq!(p.node(2).last_committed(R0), lsn(1, 6));

    // Epoch 3: nodes 0 and 1 stand, node 2 does not.
    p.hold_events = [false, false, true];
    p.lose = Box::new(|_, _, _| false);
    p.crash(0);
    p.crash(1);
    p.hold_forces[0] = false;
    let since = p.sent.len();
    p.boot(0);
    p.boot(1);
    p.run();
    assert_eq!((p.leader_of(R0), p.node(1).epoch_of(R0)), (1, 3));
    assert_eq!(vouches(&p, since, 2), [lsn(1, 6)]);
    assert_eq!(p.proposes(since, 1, 2), [(lsn(1, 7), 1)], "node 2 lacks 1.7");
    p.commit_tick(1);
    for k in 1..=7 {
        assert_eq!(p.read(2, k), acked(k), "key {k}");
    }
}

// =====================================================================
// dissolves with a record in the tail
// =====================================================================

/// Collects what a node dissolved at once, so a retired stream shows.
fn eager_gc() -> NodeConfig {
    NodeConfig { gc_quiesce: 0, ..NodeConfig::default() }
}

/// Keys 1-5 committed everywhere (watermark 1.5 on the followers), 6-8
/// acknowledged to the client with both followers' logged acks but no
/// commit message since: their tail past the watermark is 1.6-1.8.
fn with_acked_tail(cfg: NodeConfig) -> Pump {
    let mut p = Pump::with_cfg(cfg);
    p.put_all(0, 1..=5);
    p.commit_tick(0);
    p.put_all(0, 6..=8);
    for f in [1, 2] {
        assert_eq!(p.node(f).last_committed(R0), lsn(1, 5));
        assert_eq!(p.node(f).last_lsn(R0), lsn(1, 8));
    }
    p
}

fn acked(k: u64) -> Option<Vec<u8>> {
    Some(format!("v{k}").into_bytes())
}

/// (i) The split leader dies between the table CAS and the `Split`
/// nudge: the followers learn of the split from the table alone. Their
/// acknowledged tail 1.6-1.8, past their watermark 1.5, is at or below
/// the barrier the table names, 1.8, and their logs hold it gap-free: they
/// commit through it and claim the barrier for both children, as a
/// follower that got the nudge does, and whoever wins the children's
/// elections serves every write the client was told succeeded.
#[test]
fn acked_tail_follows_its_keys_into_the_children_of_a_split_nobody_announced() {
    let mut p = with_acked_tail(eager_gc());
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Split { .. }));
    p.feed(0, NodeInput::SplitRange { range: R0, at: u64_to_key(7) });
    p.crash(0);
    p.run();
    let (left, right) = (p.range_of(1, 6), p.range_of(1, 7));
    assert!(left != R0 && right != R0 && left != right);
    for f in [1, 2] {
        for child in [left, right] {
            assert_eq!(p.node(f).last_committed(child), lsn(1, 8), "{child} claims the barrier");
            assert_eq!(p.node(f).last_lsn(child), lsn(1, 8), "n.lst advertises it");
        }
        let coverage = p.node(f).dissolve_coverage();
        assert_eq!(coverage.get(DissolveEntry::Follower, ClaimKind::Full), 2);
        assert_eq!((coverage.stranded(), coverage.unreadable()), (0, 0));
        // Nothing of the parent stream is carried over: it goes with the
        // quiesced GC.
        p.maintenance(f);
        assert_eq!(p.node(f).wal().indexed_records(R0), 0);
    }
    for k in 1..=8 {
        let leader = p.leader_of(p.range_of(1, k));
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
}

/// The same split, but node 1 restarted before it (its catch-up reply
/// lost), so its queue is empty and the tail 1.6-1.8 is in its log
/// alone; and its log fails to read the tail back. It must not claim a
/// barrier it could not replay into the children: it claims its own
/// watermark 1.5, counts the unreadable log, and the children's elections
/// go to node 2, which commits through the barrier and serves everything.
#[test]
fn a_barrier_the_log_cannot_read_back_is_not_claimed() {
    let mut p = with_acked_tail(eager_gc());
    p.lose = Box::new(|_, to, m| to == 1 && matches!(m, PeerMsg::CatchupRecords { .. }));
    p.crash(1);
    p.boot(1);
    p.run();
    assert_eq!(p.node(1).last_committed(R0), lsn(1, 5));
    assert_eq!(p.node(1).last_lsn(R0), lsn(1, 8));
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::Split { .. }));
    p.feed(0, NodeInput::SplitRange { range: R0, at: u64_to_key(7) });
    p.faults[1].fail_read_after(1);
    p.crash(0);
    p.run();
    assert!(p.faults[1].injected() >= 1, "node 1's log refused the read");
    let coverage = p.node(1).dissolve_coverage();
    assert_eq!(coverage.get(DissolveEntry::Follower, ClaimKind::Own), 2);
    assert_eq!((coverage.stranded(), coverage.unreadable()), (0, 1));
    for k in [6, 7] {
        assert_eq!(p.leader_of(p.range_of(1, k)), 2, "1.8 beats 1.5");
    }
    for k in 1..=8 {
        let leader = p.leader_of(p.range_of(2, k));
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
}

/// (ii) Node 2 is down while ranges 0 and 1 merge and comes back under
/// a table that has neither. The table names both siblings' barriers:
/// range 0's log holds its acknowledged tail 1.6-1.8 gap-free up to its
/// barrier 1.8, and range 1 committed nothing, so node 2 commits both
/// through their barriers and claims the merged base, as if it had got
/// the `Merge` nudge. Before the table carried the barriers it rebuilt
/// the merged range at claim zero.
#[test]
fn acked_tail_moves_into_the_merged_range_of_a_merge_slept_through() {
    let mut p = with_acked_tail(eager_gc());
    p.crash(2);
    p.feed(0, NodeInput::MergeRanges { left: R0, right: R1 });
    p.run();
    let merged = p.range_of(0, 1);
    assert!(merged != R0 && p.range_of(0, u64::MAX / 2) == merged, "ranges 0 and 1 merged");
    assert_eq!(p.role(0), Role::Offline);
    assert_eq!(p.node(0).role(merged), Role::Leader);
    // Hold node 2 short of catching up, to see what it rebuilt alone.
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::CatchupRecords { .. }));
    p.boot(2);
    p.run();
    let base = p.node(0).last_committed(merged);
    assert_eq!(base, lsn(2, 8), "the merged base");
    assert_eq!(p.node(2).last_committed(merged), base, "it claims the base");
    assert_eq!(p.node(2).last_lsn(merged), base);
    assert_eq!(p.node(2).dissolve_coverage().get(DissolveEntry::Follower, ClaimKind::Full), 1);
    p.maintenance(2);
    assert_eq!(p.node(2).wal().indexed_records(R0), 0, "range 0's stream is retired");
    // The merged range's leader dies; whoever follows it serves it all.
    p.lose = Box::new(|_, _, _| false);
    p.crash(0);
    p.run();
    let leader = p.leader_of(merged);
    for k in 1..=8 {
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
}

/// (iii) Node 2 misses the propose of 1.7 and the catch-up that would
/// have closed the gap, so when the `Merge` nudge arrives its queue and
/// its log for range 0 stop at 1.6, short of the barrier 1.8: it
/// under-claims the merged range (the 1.6 it acknowledged is in its
/// store, and committed on the replicas that claim the base).
#[test]
fn a_gap_before_the_merge_barrier_under_claims_and_keeps_the_acked_tail() {
    let mut p = Pump::with_cfg(eager_gc());
    p.put_all(0, 1..=5);
    p.commit_tick(0);
    p.put_all(0, 6..=6);
    p.lose = Box::new(|_, to, m| {
        let lost_propose = matches!(m, PeerMsg::Propose { lsn, .. } if lsn.seq() == 7);
        to == 2 && (lost_propose || matches!(m, PeerMsg::CatchupRecords { .. }))
    });
    p.put_all(0, 7..=8);
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 6), "1.8 is parked, not logged over the hole");
    p.feed(0, NodeInput::MergeRanges { left: R0, right: R1 });
    p.run();
    let merged = p.range_of(2, 1);
    assert!(merged != R0 && p.node(0).role(merged) == Role::Leader);
    assert_eq!(p.node(2).last_committed(merged), Lsn::ZERO, "under-claimed");
    assert_eq!(p.node(2).last_lsn(merged), Lsn::ZERO, "it advertises nothing");
    assert_eq!(p.node(2).dissolve_coverage().get(DissolveEntry::Follower, ClaimKind::Zero), 1);
    assert_eq!(p.node(1).last_committed(merged), lsn(2, 8), "node 1 drained cleanly");
    p.maintenance(2);
    assert_eq!(p.node(2).wal().indexed_records(R0), 0);
    p.lose = Box::new(|_, _, _| false);
    p.crash(0);
    p.run();
    let leader = p.leader_of(merged);
    for k in 1..=8 {
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
}

/// ROADMAP 1(h): a move's hand-off makes the joiner the leader only once
/// it holds the departing leader's drained barrier. Range 0's replica
/// moves from its leader, node 0, to node 3 while key 5's put (1.5) is in
/// flight: the joiner misses the propose (and its re-send), confirms its
/// catch-up at 1.4, and the leader's next commit message names 1.5
/// committed while naming nothing newer than 1.4 as sent, so the joiner
/// does not notice the hole. At the parent commit the hand-off then made
/// node 3 the leader one committed write short: it served 1.5 as absent,
/// and a split it led next retired range 0 at a barrier (1.4) below the
/// followers' watermark (1.5). The departing leader now waits at its barrier: its next commit message
/// names 1.5 as sent, the joiner catches up, confirms 1.5 and takes over
/// holding it; its split's barrier is the followers' watermark.
#[test]
fn a_move_hands_off_only_to_a_joiner_that_holds_the_drained_barrier() {
    let mut p = Pump::<4>::settled(eager_gc());
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.commit_tick(0);
    p.lose = Box::new(|_, to, m| {
        let lost_propose = matches!(m, PeerMsg::Propose { lsn, .. } if lsn.seq() == 5);
        (to == 3 && lost_propose) || matches!(m, PeerMsg::CaughtUp { .. })
    });
    p.feed(0, NodeInput::MoveReplica { range: R0, from: 0, to: 3 });
    let put = p.put(0, 5);
    p.run();
    assert!(p.wrote(put), "1.5 committed without the joiner");
    let caught_up = p.sent.iter().rev().find_map(|(from, to, m)| {
        (*from == 3 && *to == 0 && matches!(m, PeerMsg::CaughtUp { .. })).then(|| m.clone())
    });
    let caught_up = caught_up.expect("the joiner confirmed its catch-up");
    p.lose = Box::new(|_, _, _| false);
    p.commit_tick(0);
    for f in [1, 2] {
        assert_eq!(p.node(f).last_committed(R0), lsn(1, 5));
    }
    assert_eq!(p.node(3).last_lsn(R0), lsn(1, 4), "the joiner never noticed 1.5");
    p.feed(0, NodeInput::Peer { from: 3, msg: caught_up });
    p.run();
    p.commit_tick(0);
    assert_eq!(p.leader_of(R0), 3, "the hand-off made the joiner the leader");
    assert_eq!(p.node(3).last_committed(R0), lsn(1, 5), "holding the barrier");
    assert_eq!(p.read(3, 5), acked(5));
    p.feed(3, NodeInput::SplitRange { range: R0, at: u64_to_key(7) });
    p.run();
    let left = p.range_of(1, 5);
    assert!(left != R0 && p.range_of(1, 7) != left, "range 0 split");
    for f in [1, 2] {
        let coverage = p.node(f).dissolve_coverage();
        assert_eq!(coverage.get(DissolveEntry::Follower, ClaimKind::Full), 2, "node {f}");
        assert_eq!(coverage.stranded(), 0, "node {f}");
        assert_eq!(p.node(f).last_committed(left), lsn(1, 5), "node {f}");
    }
}

/// A move's hand-off hands over the departing leader's clock (ROADMAP
/// item 2, nemesis seed 1887). Node 0's clock runs ahead: it pins a
/// snapshot at 1 000 000, far above any write stamped so far, and then
/// moves its replica of range 0 to node 3, whose clock reads 0. Node 3
/// takes over on the cohort change, and the put it commits next must be
/// stamped above the pin, or the cut already read grows a write. At the
/// parent commit `CohortChange` carried no clock: node 3 seeded its clock
/// from its store and stamped the put 5.
#[test]
fn a_move_hands_the_leaders_clock_to_its_successor() {
    const PIN: u64 = 1_000_000;
    let mut p = Pump::<4>::settled(eager_gc());
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.now = PIN;
    let req = p.next_req;
    p.next_req += 1;
    let pin = get_request(req, u64_to_key(1), "c", Consistency::SNAPSHOT_PIN);
    p.feed(0, NodeInput::Client { from: CLIENT, req: pin });
    assert!(
        matches!(p.replies.last(), Some(ClientReply::Row { at_ts: PIN, .. })),
        "node 0 pinned its clock: {:?}",
        p.replies.last()
    );
    p.now = 0;
    p.feed(0, NodeInput::MoveReplica { range: R0, from: 0, to: 3 });
    p.run();
    assert_eq!(p.leader_of(R0), 3, "the hand-off made the joiner the leader");
    let put = p.put(3, 9);
    p.run();
    let ts = p.replies.iter().find_map(|r| match r {
        ClientReply::WriteOk { req, ts, .. } if *req == put => Some(*ts),
        _ => None,
    });
    let ts = ts.expect("the put committed");
    assert!(ts > PIN, "the put stamped {ts}, inside the cut pinned at {PIN}");
}

/// A catch-up served from the leader's tables (its log has rolled over)
/// exists only in the follower's memtable until the follower flushes. If
/// that flush fails, the follower must not checkpoint past the rows, log
/// the commit note or confirm `CaughtUp` — at the parent commit it did
/// all three, and after a crash claimed a watermark it did not hold: as
/// the next leader it served keys 1-4 as absent. It fail-stops instead
/// and catches up again on a healthy device.
#[test]
fn a_table_catch_up_whose_flush_fails_claims_nothing() {
    let mut p = Pump::with_cfg(NodeConfig { memtable_flush_bytes: 1, ..NodeConfig::default() });
    p.crash(1);
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.maintenance(0);
    assert_eq!(p.node(0).wal().checkpoint(R0), lsn(1, 4), "the leader's log rolled over");
    p.boot(1);
    p.store_faults[1].fail_sync_after(1);
    p.run();
    assert_eq!(p.store_faults[1].injected(), 1, "the flush of the shipped rows failed");
    // Fail-stopped already, or (at the parent) carrying on: either way
    // what node 1 has is what its disk has.
    if p.nodes[1].is_some() {
        p.crash(1);
    }
    p.boot(1);
    p.run();
    assert_eq!(p.node(1).last_committed(R0), lsn(1, 4));
    // Node 1 becomes the only follower holding 1.5, so it wins the next
    // election — and must hold what its watermark says.
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    p.put_all(0, 5..=5);
    p.lose = Box::new(|_, _, _| false);
    p.crash(0);
    p.run();
    assert_eq!(p.role(1), Role::Leader);
    for k in 1..=5 {
        assert_eq!(p.read(1, k), acked(k), "key {k}");
    }
}

/// A catch-up the leader cannot read from its tables (its log has rolled
/// over) is not an empty one. At the parent commit the read error became
/// an empty reply up to the leader's watermark: node 1 claimed 1.4 holding
/// none of keys 1-4, and as the next leader served them as absent. The
/// leader fail-stops instead, and node 1 catches up from the cohort's
/// next leader.
#[test]
fn a_table_catch_up_the_leader_cannot_read_claims_nothing() {
    let mut p = Pump::with_cfg(NodeConfig { memtable_flush_bytes: 1, ..NodeConfig::default() });
    p.crash(1);
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.maintenance(0);
    assert_eq!(p.node(0).wal().checkpoint(R0), lsn(1, 4), "the leader's log rolled over");
    // Sticky: the table stays unreadable for as long as node 0 is up.
    p.store_faults[0].fail_read_after(1);
    p.store_faults[0].set_sticky(true);
    p.boot(1);
    p.run();
    assert!(p.store_faults[0].injected() >= 1, "the leader's table read failed");
    let fail_stopped = p.nodes[0].is_none();
    if fail_stopped {
        p.boot(0);
        p.run();
    }
    // Node 1 becomes the only follower holding the next write, so it wins
    // the next election — and must hold what its watermark says.
    let leader = p.leader_of(R0);
    let other = (0..3).find(|&i| i != leader && i != 1).expect("a third node");
    p.lose =
        Box::new(move |_, to, m| to == other && matches!(m, PeerMsg::Propose { range: R0, .. }));
    p.put_all(leader, 5..=5);
    p.lose = Box::new(|_, _, _| false);
    p.crash(leader);
    p.run();
    assert_eq!(p.role(1), Role::Leader);
    for k in 1..=5 {
        assert_eq!(p.read(1, k), acked(k), "key {k}");
    }
    assert!(fail_stopped, "the leader answered a catch-up it could not read");
}

/// A follower at watermark zero vouches for nothing, so it is sent the
/// leader's store even while the leader's log still reaches back to
/// zero: a leader rebuilt at claim zero holds rows its own log never
/// held, and a move's joiner starts at zero. Node 1 was down while keys
/// 1-4 were committed, and the leader never flushed; its one reply
/// carries the four rows and no log record.
#[test]
fn a_follower_at_zero_is_sent_the_store_though_the_log_reaches_back() {
    let mut p = Pump::new();
    p.crash(1);
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    assert!(p.node(0).wal().checkpoint(R0).is_zero(), "the leader's log reaches back to zero");
    let since = p.sent.len();
    p.boot(1);
    p.run();
    let replies: Vec<(usize, usize)> = p.sent[since..]
        .iter()
        .filter_map(|(from, to, m)| match m {
            PeerMsg::CatchupRecords { records, fragments, .. } if (*from, *to) == (0, 1) => {
                Some((records.len(), fragments.len()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(replies, vec![(0, 4)], "(records, rows) of each reply to node 1");
    assert_eq!(p.role(1), Role::Follower);
    assert_eq!(p.node(1).last_committed(R0), lsn(1, 4));
    for k in 1..=4 {
        assert_eq!(p.read(1, k), acked(k), "key {k}");
    }
}

/// A follower at zero asks a leader at claim zero whose store holds rows,
/// though the hello's watermark is zero too. Node 1 misses range 0's
/// keys 5-8 (its proposes, commits and catch-up replies are lost) and
/// node 2 misses range 1's one write: each is short of one sibling's
/// barrier when the ranges merge, so each claims the merged range at
/// zero — node 1 on the `Merge` nudge, node 2 (which loses it) once the
/// merge's leader is gone. Both logs were flushed away below their
/// watermarks. The merge's leader dies with node 1; node 2 stands first
/// and wins the tie when node 1 comes back, and takes over at watermark
/// zero with an empty tail. Rows 5-8 are in its store alone: node 1 must
/// ask for them, not vouch on the hello; caught up, it commits what the
/// leader writes next.
#[test]
fn a_follower_at_zero_asks_a_leader_at_claim_zero_for_its_store() {
    let mut p = Pump::with_cfg(NodeConfig { memtable_flush_bytes: 1, ..eager_gc() });
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.maintenance(1);
    let lost_to_1 = |to: usize, m: &PeerMsg| {
        let r0 =
            matches!(m, PeerMsg::Propose { range: R0, .. } | PeerMsg::Commit { range: R0, .. });
        to == 1 && (r0 || matches!(m, PeerMsg::CatchupRecords { .. }))
    };
    p.lose = Box::new(move |_, to, m| lost_to_1(to, m));
    p.put_all(0, 5..=8);
    p.commit_tick(0);
    p.maintenance(2);
    let lost_to_2 = |to: usize, m: &PeerMsg| {
        let lost = matches!(
            m,
            PeerMsg::Propose { range: R1, .. }
                | PeerMsg::Merge { .. }
                | PeerMsg::LeaderHello { .. }
                | PeerMsg::Commit { .. }
                | PeerMsg::CatchupRecords { .. }
        );
        to == 2 && lost
    };
    p.lose = Box::new(move |_, to, m| lost_to_1(to, m) || lost_to_2(to, m));
    p.put_all(1, [u64::MAX / 2]);
    p.feed(0, NodeInput::MergeRanges { left: R0, right: R1 });
    p.run();
    let merged = p.range_of(0, 1);
    assert!(merged != R0 && p.node(0).role(merged) == Role::Leader, "ranges 0 and 1 merged");
    assert_eq!(p.node(1).last_committed(merged), Lsn::ZERO, "node 1 claims zero");
    p.lose = Box::new(|_, _, _| false);
    p.crash(0);
    p.crash(1);
    p.run();
    assert_eq!(p.node(2).last_committed(merged), Lsn::ZERO, "node 2 claims zero");
    let since = p.sent.len();
    p.boot(1);
    p.run();
    assert_eq!(p.leader_of(merged), 2);
    let hello = PeerMsg::LeaderHello {
        range: merged,
        epoch: 3,
        leader: 2,
        up_to: Lsn::ZERO,
        tail: vec![],
        store_empty: false,
    };
    assert!(p.sent[since..].contains(&(2, 1, hello)), "the hello names watermark zero");
    let asks = |m: &PeerMsg| matches!(m, PeerMsg::CatchupReq { range, .. } if *range == merged);
    assert_eq!(p.count_sent(since, 1, asks), 1);
    assert_eq!(p.node(1).role(merged), Role::Follower);
    for node in [1, 2] {
        for k in 1..=8 {
            assert_eq!(p.read(node, k), acked(k), "key {k} at node {node}");
        }
    }
    // Caught up from zero, node 1 commits the leader's next writes too.
    p.put_all(2, 9..=10);
    p.commit_tick(2);
    assert_eq!(p.node(1).last_committed(merged), p.node(2).last_committed(merged));
    assert_eq!(p.node(1).last_committed(merged), lsn(3, 2));
}

/// ROADMAP 1(i): a merged range is built from both siblings at once.
/// Keys 1-8 are committed in range 0 with node 2 down for 5-8, and every
/// store is flushed. Node 1, range 1's leader, loses the `Merge` nudge
/// and every catch-up reply: it learns of the merge from the table. At
/// the parent commit its table watch rebuilt the merged range from range
/// 1 alone at claim zero, and range 0, reconciled once its leader died,
/// found the merged range built and added nothing; node 2 came back with
/// keys 1-4 and rebuilt it at claim zero too, won the tie and answered
/// key 5 absent. Node 1's replica of range 0 now waits for its leader's
/// nudge, and with that leader dead dissolves together with range 1: both
/// commit through their table barriers, node 1 claims the merged base,
/// wins and serves keys 1-8.
#[test]
fn a_merge_missed_by_a_siblings_leader_is_built_from_both_siblings() {
    let mut p = Pump::with_cfg(NodeConfig { memtable_flush_bytes: 1, ..eager_gc() });
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.crash(2);
    p.put_all(0, 5..=8);
    p.commit_tick(0);
    for i in [0, 1] {
        p.maintenance(i);
    }
    p.lose = Box::new(|_, to, m| {
        to == 1 && matches!(m, PeerMsg::Merge { .. } | PeerMsg::CatchupRecords { .. })
    });
    p.feed(0, NodeInput::MergeRanges { left: R0, right: R1 });
    p.run();
    let merged = p.range_of(0, 1);
    assert!(merged != R0 && p.node(0).role(merged) == Role::Leader, "ranges 0 and 1 merged");
    p.crash(0);
    p.boot(2);
    p.run();
    let leader = p.leader_of(merged);
    for k in 1..=8 {
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
    assert_eq!(leader, 1, "the replica that claims the merged base wins");
}

/// Node 2 holds an orphan past its committed watermark 1.4 — 1.5, logged
/// by it alone before the epoch-1 leader died unforced — while the other
/// two commit 2.5 and 2.6 in epoch 2 without it. Returns the pump with
/// node 2 booted and catching up, and the `CatchupRecords` that would
/// truncate the orphan held back from it.
fn orphan_awaiting_truncation() -> (Pump, PeerMsg) {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.hold_forces[0] = true;
    p.lose = Box::new(|_, to, m| to == 1 && matches!(m, PeerMsg::Propose { range: R0, .. }));
    let orphan = p.put(0, 5);
    p.run();
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 5));
    assert_eq!(p.node(2).last_committed(R0), lsn(1, 4));
    // Node 2 goes down with it; node 0 comes back without it (never
    // forced), and nodes 0 and 1 elect a leader of epoch 2.
    p.crash(2);
    p.crash(0);
    p.hold_forces[0] = false;
    p.lose = Box::new(|_, _, _| false);
    p.boot(0);
    p.run();
    let leader = p.leader_of(R0);
    assert_eq!(p.node(leader).epoch_of(R0), 2);
    p.put_all(leader, 6..=7);
    p.commit_tick(leader);
    assert_eq!(p.node(leader).last_committed(R0), lsn(2, 6));
    assert!(!p.wrote(orphan));

    let catch_up = |m: &PeerMsg| matches!(m, PeerMsg::CatchupRecords { range: R0, .. });
    p.lose = Box::new(move |_, to, m| to == 2 && catch_up(m));
    let since = p.sent.len();
    p.boot(2);
    p.run();
    assert_eq!(p.role(2), Role::CatchingUp);
    let reply = p.sent[since..]
        .iter()
        .find(|(from, to, m)| (*from, *to) == (leader, 2) && catch_up(m))
        .map(|(_, _, m)| m.clone())
        .expect("the leader answered node 2's catch-up");
    p.lose = Box::new(|_, _, _| false);
    (p, reply)
}

/// Deliver the held-back catch-up to node 2 with its log device failing
/// as `arm` sets it up, restart node 2 from what its disk kept, and check
/// that it serves what was committed and not the orphan.
fn catch_up_over_a_fault(arm: impl FnOnce(&FaultPlan)) {
    let (mut p, reply) = orphan_awaiting_truncation();
    let leader = p.leader_of(R0);
    arm(&p.faults[2]);
    p.feed(2, NodeInput::Peer { from: leader as u32, msg: reply });
    p.run();
    assert_eq!(p.faults[2].injected(), 1, "the fault fired");
    let fail_stopped = p.nodes[2].is_none();
    if !fail_stopped {
        p.crash(2);
    }
    p.boot(2);
    p.run();
    assert_eq!(p.role(2), Role::Follower);
    assert_eq!(p.node(2).last_committed(R0), lsn(2, 6));
    for k in (1..=4).chain(6..=7) {
        assert_eq!(p.read(2, k), acked(k), "key {k}");
    }
    assert_eq!(p.read(2, 5), None, "the orphan was replayed");
    assert!(fail_stopped, "node 2 confirmed a catch-up it could not make durable");
}

/// A catch-up whose logical truncation (§6.1.1) fails to save the skipped
/// list must not be confirmed. At the parent commit the error was dropped:
/// the follower logged and confirmed the catch-up, and after a restart its
/// local recovery replayed the orphan up to the new watermark — serving a
/// value no leader committed. It fail-stops instead, and truncates on the
/// next catch-up.
#[test]
fn a_catch_up_whose_truncation_fails_to_save_fail_stops() {
    // The skipped list's save is the first sync; the catch-up's force is
    // the next, and succeeds.
    catch_up_over_a_fault(|plan| plan.fail_sync_after(1));
}

/// A catch-up finds its orphans in the log's index, not by reading the
/// log back: with node 2's log device set to fail its next read, node 2
/// still truncates the orphan 1.5 and confirms, and no read was tried.
/// (Catch-up used to replay its own tail to list its LSNs, and
/// fail-stopped on this fault.) After a restart from what its disk kept,
/// node 2 does not serve the orphan.
#[test]
fn a_catch_up_truncates_its_orphan_without_reading_its_log() {
    let (mut p, reply) = orphan_awaiting_truncation();
    let leader = p.leader_of(R0);
    p.faults[2].fail_read_after(1);
    let since = p.sent.len();
    p.feed(2, NodeInput::Peer { from: leader as u32, msg: reply });
    p.run();
    assert_eq!(p.faults[2].injected(), 0, "the catch-up read its log");
    assert_eq!(p.role(2), Role::Follower);
    assert_eq!(p.node(2).last_committed(R0), lsn(2, 6));
    let confirmed = |(from, to, m): &(usize, usize, PeerMsg)| {
        (*from, *to) == (2, leader) && matches!(m, PeerMsg::CaughtUp { range: R0, .. })
    };
    assert!(p.sent[since..].iter().any(confirmed), "node 2 confirmed");
    p.faults[2].disarm();
    p.crash(2);
    p.boot(2);
    p.run();
    assert_eq!(p.role(2), Role::Follower);
    assert_eq!(p.read(2, 5), None, "the orphan was replayed");
}

/// A block the leader cannot read is not an absent row. Keys 1-4 live in
/// one flushed table of node 0 and nowhere else (memtable flushed, block
/// cache cold), and that file stops reading back. At the parent
/// commit the strong get was answered with an empty row, the scan page
/// with no rows, and `ConditionalPut { expected: 0 }` — "only if never
/// written" — was accepted over the acknowledged value it could not see.
/// The leader fail-stops instead, answering nothing, and the cohort's
/// next leader serves what was acknowledged.
#[test]
fn a_store_read_error_is_not_an_absent_row() {
    let key = u64_to_key(2);
    let ops = [
        ClientOp::Get {
            key: key.clone(),
            columns: spinnaker_common::api::ColumnSelect::All,
            consistency: Consistency::Strong,
        },
        ClientOp::Scan {
            start: u64_to_key(1),
            end: None,
            limit: 8,
            consistency: Consistency::Strong,
        },
        ClientOp::ConditionalPut { key, col: "c".into(), value: "clobbered".into(), expected: 0 },
    ];
    for op in ops {
        let what = format!("{op:?}");
        let mut p = Pump::with_cfg(NodeConfig { memtable_flush_bytes: 1, ..NodeConfig::default() });
        p.put_all(0, 1..=4);
        p.commit_tick(0);
        p.maintenance(0);
        assert_eq!(p.node(0).wal().checkpoint(R0), lsn(1, 4), "keys 1-4 are in a table");

        // Sticky: a sector that stays unreadable (a scan asks twice).
        p.store_faults[0].fail_read_after(1);
        p.store_faults[0].set_sticky(true);
        let req = ClientRequest { req: p.next_req, ring_version: 0, op };
        p.next_req += 1;
        p.feed(0, NodeInput::Client { from: CLIENT, req: req.clone() });
        p.run();
        assert!(p.store_faults[0].injected() >= 1, "{what}: the block read failed");
        assert_eq!(p.reads_answered, 0, "{what}: answered without the block");
        assert!(!p.wrote(req.req), "{what}: accepted without the block");
        assert!(p.nodes[0].is_none(), "{what}: the leader did not fail-stop");

        let leader = p.leader_of(R0);
        for k in 1..=4 {
            assert_eq!(p.read(leader, k), acked(k), "{what}: key {k} at node {leader}");
        }
    }
}

/// A flush that fails hides nothing it was handed. Keys 1-4 are
/// acknowledged and sit in node 0's memtable alone when the maintenance
/// tick's flush fails: at the table's sync, or at the read-back of the
/// finished table. At the parent commit the memtable was already drained
/// and the error dropped, so the leader stayed up and answered strong gets
/// of all four keys with an absent row. The leader fail-stops instead
/// (its log checkpoint never moved), and the cohort's next leader serves
/// what was acknowledged.
#[test]
fn a_failed_flush_hides_no_acknowledged_row() {
    for fault in ["sync", "read"] {
        let mut p = Pump::with_cfg(NodeConfig { memtable_flush_bytes: 1, ..NodeConfig::default() });
        p.put_all(0, 1..=4);
        p.commit_tick(0);
        match fault {
            "sync" => p.store_faults[0].fail_sync_after(1),
            _ => p.store_faults[0].fail_read_after(1),
        }
        p.maintenance(0);
        assert_eq!(p.store_faults[0].injected(), 1, "{fault}: the flush failed");

        let leader = p.leader_of(R0);
        for k in 1..=4 {
            assert_eq!(p.read(leader, k), acked(k), "{fault}: key {k} at node {leader}");
        }
        assert!(p.nodes[0].is_none(), "{fault}: the leader did not fail-stop");
    }
}

/// A leader whose log refuses its own group must neither propose nor
/// acknowledge it. Keys 1-4 are committed everywhere when the leader's
/// log refuses the record of key 5: the leader fail-stops without a
/// propose or a reply, and the cohort's next leader serves keys 1-4 and
/// nothing of key 5.
#[test]
fn a_leader_that_cannot_log_its_group_fail_stops() {
    let mut p = Pump::new();
    p.put_all(0, 1..=4);
    p.commit_tick(0);
    p.faults[0].fail_append_after(1);
    let since = p.sent.len();
    let req = p.put(0, 5);
    p.run();
    assert_eq!(p.faults[0].injected(), 1, "the leader's append failed");
    assert!(p.nodes[0].is_none(), "the leader did not fail-stop");
    let proposed = p.count_sent(since, 0, |m| matches!(m, PeerMsg::Propose { .. }));
    assert_eq!(proposed, 0, "the leader proposed a group it did not log");
    assert!(!p.wrote(req), "the leader acknowledged a write it did not log");

    let leader = p.leader_of(R0);
    for k in 1..=4 {
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
    assert_eq!(p.read(leader, 5), None, "key 5 at node {leader}");
}

/// A follower whose log refuses a caught-up record must not confirm the
/// catch-up. Node 2 committed key 1 and flushed it (so it vouches for
/// something and is sent the log), then was down while keys 2-4 were
/// committed; restarted, its log refuses the first record of the
/// leader's reply. It fail-stops without `CaughtUp`, catches up once
/// restarted on a healthy device, and after the leader dies the cohort's
/// next leader serves keys 1-4.
#[test]
fn a_follower_that_cannot_log_a_caught_up_record_fail_stops() {
    let mut p = Pump::with_cfg(NodeConfig { memtable_flush_bytes: 1, ..NodeConfig::default() });
    p.put_all(0, 1..=1);
    p.commit_tick(0);
    p.maintenance(2);
    p.crash(2);
    p.run();
    p.put_all(0, 2..=4);
    p.commit_tick(0);
    let since = p.sent.len();
    p.boot(2);
    p.faults[2].fail_append_after(1);
    p.run();
    assert_eq!(p.faults[2].injected(), 1, "node 2's append failed");
    assert!(p.nodes[2].is_none(), "node 2 did not fail-stop");
    let confirmed =
        p.count_sent(since, 2, |m| matches!(m, PeerMsg::CaughtUp { .. } | PeerMsg::Ack { .. }));
    assert_eq!(confirmed, 0, "node 2 confirmed records it did not log");

    p.boot(2);
    p.run();
    assert_eq!(p.role(2), Role::Follower);
    assert_eq!(p.node(2).last_lsn(R0), lsn(1, 4));
    p.crash(0);
    p.run();
    let leader = p.leader_of(R0);
    for k in 1..=4 {
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
}

/// A compaction that fails on the maintenance tick stops the node as a
/// failed flush does. Keys 1-4 reach a level-0 table each on node 0, one
/// flush per tick; the fourth table starts a compaction whose output
/// table fails its sync. The leader fail-stops without a message or a
/// reply, the cohort's next leader serves keys 1-4, and node 0, once
/// restarted, holds the checkpoint of the flush that succeeded.
#[test]
fn a_failed_compaction_fail_stops() {
    let mut p = Pump::with_cfg(NodeConfig { memtable_flush_bytes: 1, ..NodeConfig::default() });
    for k in 1..=3 {
        p.put_all(0, k..=k);
        p.commit_tick(0);
        p.maintenance(0);
    }
    p.put_all(0, 4..=4);
    p.commit_tick(0);
    // The flush syncs its table and the manifest; the third sync is the
    // compaction's output table.
    p.store_faults[0].fail_sync_after(3);
    let (since, written) = (p.sent.len(), p.written.len());
    p.maintenance(0);
    assert_eq!(p.store_faults[0].injected(), 1, "the compaction failed");
    assert!(p.nodes[0].is_none(), "the leader did not fail-stop");
    assert_eq!(p.count_sent(since, 0, |_| true), 0, "the leader sent after the failure");
    assert_eq!(p.written.len(), written, "the leader answered a client");

    let leader = p.leader_of(R0);
    for k in 1..=4 {
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
    p.boot(0);
    p.run();
    assert_eq!(p.node(0).wal().checkpoint(R0), lsn(1, 4), "the flush before it was kept");
}

/// Two gone ranges dissolved by one table refresh, each with its own log
/// stream: range 0 (epoch 1, watermark 1.5) and the left child of range 1
/// (epoch 2, watermark 2.3, flushed and checkpointed there — past range
/// 0's watermark). Node 2's table watch fires late: it has already seen
/// both leaders vanish and stands in both elections when the table tells
/// it that both ranges were split. Each predecessor commits through its
/// *own* barrier (an LSN of one stream says nothing about another), so
/// the records only node 2 still holds reach the grandchildren's claims
/// and win their elections.
#[test]
fn two_gone_ranges_in_one_reconcile_each_keep_their_own_tail() {
    let cfg = NodeConfig { gc_quiesce: 0, memtable_flush_bytes: 1, ..NodeConfig::default() };
    let mut p = Pump::with_cfg(cfg);
    let base = u64::MAX / 2; // routes to range 1, which node 1 leads
    p.put_all(0, 1..=5);
    p.commit_tick(0);
    // An ordinary split of range 1: node 1 leads the left child in epoch 2.
    p.feed(1, NodeInput::SplitRange { range: R1, at: u64_to_key(base + 100) });
    p.run();
    let a = p.range_of(2, base + 1);
    assert!(a != R1 && p.node(1).role(a) == Role::Leader && p.node(1).epoch_of(a) == 2);
    p.put_all(1, base + 1..=base + 3);
    p.commit_tick(1);
    p.maintenance(2);
    assert_eq!(p.node(2).wal().checkpoint(R0), lsn(1, 5));
    assert_eq!(p.node(2).wal().checkpoint(a), lsn(2, 3), "past range 0's watermark");
    // The acknowledged tails: 1.6-1.8 on every replica of range 0; 2.4
    // and 2.5 on the leader and node 2 alone.
    p.put_all(0, 6..=8);
    p.lose = Box::new(|_, to, m| to == 0 && matches!(m, PeerMsg::Propose { .. }));
    p.put_all(1, base + 4..=base + 5);
    assert_eq!(p.node(2).last_committed(a), lsn(2, 3));
    assert_eq!(p.node(2).last_lsn(a), lsn(2, 5));
    assert_eq!(p.node(0).last_lsn(a), lsn(2, 3));

    // Both leaders split, tell everyone but node 2, and die. Node 2 hears
    // nothing from the coordination service meanwhile.
    p.hold_events[2] = true;
    p.lose = Box::new(|_, to, m| to == 2 && matches!(m, PeerMsg::Split { .. }));
    p.feed(0, NodeInput::SplitRange { range: R0, at: u64_to_key(7) });
    p.feed(1, NodeInput::SplitRange { range: a, at: u64_to_key(base + 4) });
    p.run();
    p.crash(0);
    p.crash(1);
    p.run();
    // The deliveries it missed, the table's last.
    p.hold_events[2] = false;
    p.lose = Box::new(|_, _, _| false);
    for gone in [R0, a] {
        let leader = CohortPaths::new(gone).leader;
        p.feed(2, NodeInput::Coord(WatchEvent::Deleted(leader)));
        assert_eq!(p.node(2).role(gone), Role::Electing);
    }
    p.feed(2, NodeInput::Coord(WatchEvent::DataChanged(TABLE_PATH.to_string())));
    p.run();

    let children = [(6, lsn(1, 8)), (7, lsn(1, 8)), (base + 3, lsn(2, 5)), (base + 4, lsn(2, 5))];
    for (k, barrier) in children {
        let child = p.range_of(2, k);
        assert_eq!(p.node(2).last_committed(child), barrier, "{child} claims its parent's barrier");
        assert_eq!(p.node(2).last_lsn(child), barrier, "{child} advertises it");
    }
    // Two children of range 1's first split, then these four.
    let coverage = p.node(2).dissolve_coverage();
    assert_eq!(coverage.get(DissolveEntry::Follower, ClaimKind::Full), 6);
    assert_eq!((coverage.stranded(), coverage.unreadable()), (0, 0));
    p.maintenance(2);
    assert_eq!(p.node(2).wal().indexed_records(R0), 0);
    assert_eq!(p.node(2).wal().indexed_records(a), 0);

    // Node 0 returns (under the current table, as a host boots it)
    // without 2.4 and 2.5: node 2 holds the only copies, wins that
    // election on them and serves them.
    p.ring = p.node(2).ring().clone();
    p.boot(0);
    p.run();
    assert_eq!(p.leader_of(p.range_of(2, base + 4)), 2);
    for k in (1..=8).chain(base + 1..=base + 5) {
        let leader = p.leader_of(p.range_of(2, k));
        assert_eq!(p.read(leader, k), acked(k), "key {k} at node {leader}");
    }
}

/// A follower's leader watch is one-shot: it fires once for a change of
/// the leader znode, and the follower re-arms it when it handles the
/// event. If the leader dies in between, its znode is gone by then and no
/// `Deleted` event will ever come for it, so the re-arm itself must notice
/// the missing znode and take the `Deleted` path: re-read, then elect.
#[test]
fn a_leader_watch_rearmed_after_the_znode_is_gone_still_elects() {
    let mut p = Pump::new();
    p.put_all(0, 1..=3);
    p.commit_tick(0);
    // The leader dies; the followers' watches have fired for an earlier
    // change of the znode, so they hear nothing of its deletion.
    p.hold_events = [false, true, true];
    p.crash(0);
    p.run();
    p.hold_events = [false; 3];
    assert_eq!(p.role(1), Role::Follower);
    assert_eq!(p.role(2), Role::Follower);
    // The stale notification arrives at each follower after the znode is
    // gone.
    let leader = CohortPaths::new(R0).leader;
    for f in [1, 2] {
        p.feed(f, NodeInput::Coord(WatchEvent::DataChanged(leader.clone())));
    }
    p.run();
    let elected = (1..3).find(|&i| p.role(i) == Role::Leader);
    assert!(elected.is_some(), "the cohort elected a leader after the stale event");
    let leader = elected.unwrap();
    assert_eq!(p.node(leader).epoch_of(R0), 2);
    for k in 1..=3 {
        assert_eq!(p.read(leader, k), acked(k), "key {k}");
    }
}

/// A candidacy left over from an earlier round does not count toward the
/// next one. Every node stands in the boot election, and a candidate
/// deletes its znode only when it next stands, so after the boot round
/// node 2's znode still says `lst` 0. Node 2 then logs 1.4 (its ack
/// commits it; node 1 never sees the propose), and the leader dies;
/// node 2 hears of it late. At the parent commit node 1 stood with 1.3,
/// counted node 2's boot-time znode toward the majority, won, and served
/// the acknowledged key 4 as absent (nemesis seed 346 lost a write so).
/// A candidacy names the cohort's epoch when it stood, and a candidate
/// counts only those of its own epoch or later: node 1 waits for node 2
/// to stand, and node 2, holding 1.4, wins.
#[test]
fn a_candidacy_from_an_earlier_round_does_not_count() {
    let mut p = Pump::new();
    p.put_all(0, 1..=3);
    p.commit_tick(0);
    p.lose = Box::new(|_, to, m| to == 1 && matches!(m, PeerMsg::Propose { .. }));
    p.put_all(0, 4..=4);
    p.lose = Box::new(|_, _, _| false);
    assert_eq!((p.node(1).last_lsn(R0), p.node(2).last_lsn(R0)), (lsn(1, 3), lsn(1, 4)));
    p.hold_events[2] = true;
    p.crash(0);
    p.run();
    assert_eq!(p.role(1), Role::Electing, "node 1 waits for node 2's candidacy");
    // Node 2 hears of the leader's death late, and stands.
    p.hold_events[2] = false;
    p.feed(2, NodeInput::Coord(WatchEvent::Deleted(CohortPaths::new(R0).leader)));
    p.run();
    assert_eq!(p.leader_of(R0), 2, "the candidate holding 1.4 wins");
    assert_eq!(p.role(1), Role::Follower);
    for k in 1..=4 {
        assert_eq!(p.read(2, k), acked(k), "key {k}");
    }
}
