//! Direct state-machine tests of [`Node`]: drive `on_input` by hand with a
//! local coordination service and assert on the emitted effects — no
//! simulator, no timing, pure protocol logic.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use spinnaker_common::vfs::MemVfs;
use spinnaker_common::{ClientError, Consistency, Lsn, RangeId};
use spinnaker_coord::Coord;
use spinnaker_core::coordcli::CoordClient;
use spinnaker_core::messages::{
    ClientOp, ClientReply, ClientRequest, Effect, NodeInput, Outbox, PeerMsg, TimerKind,
};
use spinnaker_core::node::{get_request, put_request, Node, NodeConfig, Role};
use spinnaker_core::partition::{u64_to_key, Ring};

struct Fixture {
    coord: Rc<RefCell<Coord>>,
    bus: Rc<RefCell<Vec<spinnaker_coord::Delivery>>>,
    ring: Ring,
}

impl Fixture {
    fn new() -> Fixture {
        Fixture {
            coord: Rc::new(RefCell::new(Coord::new())),
            bus: Rc::new(RefCell::new(Vec::new())),
            ring: Ring::with_nodes(3),
        }
    }

    fn node(&self, id: u32) -> Node {
        let session = self.coord.borrow_mut().create_session(u64::MAX / 2, 0);
        let cc = CoordClient::new(self.coord.clone(), session, self.bus.clone());
        Node::new(id, self.ring.clone(), NodeConfig::default(), Arc::new(MemVfs::new()), cc)
            .unwrap()
    }
}

/// A single-column conditional put request (expected version check).
fn cond_put_request(
    req: u64,
    key: spinnaker_common::Key,
    value: &[u8],
    expected: u64,
) -> ClientRequest {
    ClientRequest {
        req,
        ring_version: 0,
        op: ClientOp::ConditionalPut {
            key,
            col: bytes::Bytes::from_static(b"c"),
            value: bytes::Bytes::copy_from_slice(value),
            expected,
        },
    }
}

fn feed(node: &mut Node, input: NodeInput) -> Outbox {
    let mut out = Outbox::default();
    node.on_input(0, input, &mut out);
    out
}

fn sends(out: &Outbox) -> Vec<(u32, &PeerMsg)> {
    out.effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send { to, msg } => Some((*to, msg)),
            _ => None,
        })
        .collect()
}

fn replies(out: &Outbox) -> Vec<&ClientReply> {
    out.effects
        .iter()
        .filter_map(|e| match e {
            Effect::Reply { reply, .. } => Some(reply),
            _ => None,
        })
        .collect()
}

fn force_tokens(out: &Outbox) -> Vec<u64> {
    out.effects
        .iter()
        .filter_map(|e| match e {
            Effect::ForceLog { token, .. } => Some(*token),
            _ => None,
        })
        .collect()
}

/// Deliver every queued effect (peer sends, instant log forces, pending
/// coordination watch events) between the given nodes until quiescence.
/// Node ids equal their index in `nodes`; sessions were created in the
/// same order, so session `i+1` belongs to node `i`.
fn pump(fx: &Fixture, nodes: &mut [Node], mut pending: Vec<(usize, Outbox)>) {
    for _ in 0..200 {
        // Route coordination deliveries first.
        let deliveries: Vec<_> = fx.bus.borrow_mut().drain(..).collect();
        for (session, ev) in deliveries {
            let idx = (session - 1) as usize;
            if idx < nodes.len() {
                let out = feed(&mut nodes[idx], NodeInput::Coord(ev));
                pending.push((idx, out));
            }
        }
        if pending.is_empty() {
            break;
        }
        let batch: Vec<(usize, Outbox)> = std::mem::take(&mut pending);
        for (from, out) in batch {
            // Instant-durability: complete force requests immediately.
            let tokens = force_tokens(&out);
            if !tokens.is_empty() {
                let fo = feed(&mut nodes[from], NodeInput::LogForced { tokens });
                pending.push((from, fo));
            }
            for e in &out.effects {
                if let Effect::Send { to, msg } = e {
                    let idx = *to as usize;
                    if idx < nodes.len() {
                        let o = feed(
                            &mut nodes[idx],
                            NodeInput::Peer { from: from as u32, msg: msg.clone() },
                        );
                        pending.push((idx, o));
                    }
                }
            }
        }
    }
}

/// With 3 nodes, home preference makes node i lead range i once peers
/// exchange candidates and takeover messages; returns node 0 as an open
/// Leader of range 0 (its peers are dropped — tests then feed peer
/// messages by hand).
fn make_leader(fx: &Fixture) -> Node {
    let mut nodes = vec![fx.node(0), fx.node(1), fx.node(2)];
    let mut pending = Vec::new();
    for (i, node) in nodes.iter_mut().enumerate() {
        let out = feed(node, NodeInput::Start);
        pending.push((i, out));
    }
    pump(fx, &mut nodes, pending);
    let n0 = nodes.remove(0);
    assert_eq!(n0.role(RangeId(0)), Role::Leader, "election settled");
    n0
}

#[test]
fn start_arms_the_periodic_timers() {
    let fx = Fixture::new();
    let mut n = fx.node(0);
    let out = feed(&mut n, NodeInput::Start);
    let timers: Vec<TimerKind> = out
        .effects
        .iter()
        .filter_map(|e| match e {
            Effect::SetTimer { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert!(timers.contains(&TimerKind::Heartbeat));
    assert!(timers.contains(&TimerKind::CommitPeriod));
    assert!(timers.contains(&TimerKind::Maintenance));
}

#[test]
fn writes_to_a_non_leader_get_redirected() {
    let fx = Fixture::new();
    let mut follower = fx.node(1);
    let _ = feed(&mut follower, NodeInput::Start);
    // Another node announces itself leader of range 0 with epoch 1.
    let _ = feed(
        &mut follower,
        NodeInput::Peer {
            from: 0,
            msg: PeerMsg::LeaderHello { range: RangeId(0), epoch: 1, leader: 0 },
        },
    );
    let out = feed(
        &mut follower,
        NodeInput::Client { from: 99, req: put_request(7, u64_to_key(5), "c", b"v") },
    );
    match replies(&out).as_slice() {
        [ClientReply::Err { req: 7, error: ClientError::NotLeader { hint } }] => {
            assert_eq!(*hint, Some(0));
        }
        other => panic!("expected NotLeader, got {other:?}"),
    }
}

#[test]
fn leader_write_flow_force_then_ack_then_commit() {
    let fx = Fixture::new();
    let mut leader = make_leader(&fx);
    assert_eq!(leader.role(RangeId(0)), Role::Leader, "fixture made node 0 leader");

    // Client write: the node must force its log AND propose to both peers
    // in the same step (Fig. 4: "in parallel").
    let out = feed(
        &mut leader,
        NodeInput::Client { from: 99, req: put_request(1, u64_to_key(1), "c", b"hello") },
    );
    let proposes: Vec<u32> = sends(&out)
        .iter()
        .filter(|(_, m)| matches!(m, PeerMsg::Propose { .. }))
        .map(|(to, _)| *to)
        .collect();
    assert_eq!(proposes.len(), 2, "proposed to both followers");
    let tokens = force_tokens(&out);
    assert_eq!(tokens.len(), 1, "own log force requested");
    assert!(replies(&out).is_empty(), "no reply before commit");

    // Own force completes: still no commit (no ack yet).
    let lsn = leader.last_lsn(RangeId(0));
    let out = feed(&mut leader, NodeInput::LogForced { tokens });
    assert!(replies(&out).is_empty(), "force alone is not a quorum");

    // One follower ack: quorum of 2/3 reached, commit + client reply.
    let epoch = leader.epoch_of(RangeId(0));
    let out = feed(
        &mut leader,
        NodeInput::Peer { from: 1, msg: PeerMsg::Ack { range: RangeId(0), epoch, lsn } },
    );
    match replies(&out).as_slice() {
        [ClientReply::WriteOk { req: 1, version, .. }] => assert_eq!(*version, lsn.as_u64()),
        other => panic!("expected WriteOk, got {other:?}"),
    }
    assert_eq!(leader.last_committed(RangeId(0)), lsn);

    // Strong read now sees it.
    let out = feed(
        &mut leader,
        NodeInput::Client {
            from: 99,
            req: get_request(2, u64_to_key(1), "c", Consistency::Strong),
        },
    );
    match replies(&out).as_slice() {
        [ClientReply::Row { req: 2, cells, .. }] => {
            assert_eq!(cells.len(), 1);
            assert_eq!(cells[0].value.as_ref().unwrap().as_ref(), b"hello");
            assert_eq!(cells[0].version, lsn.as_u64());
        }
        other => panic!("expected value, got {other:?}"),
    }
}

#[test]
fn conditional_put_checks_version_at_the_leader() {
    let fx = Fixture::new();
    let mut leader = make_leader(&fx);
    // Conditional put on an absent column with expected=0 is accepted...
    let req = cond_put_request(1, u64_to_key(2), b"first", 0);
    let out = feed(&mut leader, NodeInput::Client { from: 99, req });
    let tokens = force_tokens(&out);
    assert!(replies(&out).is_empty(), "accepted: proposed, not yet committed");

    // ...and a second conditional put with a wrong expected version is
    // rejected against the *pending* state (writes commit in LSN order,
    // so the pending version is authoritative) — but the rejection is
    // held until that pending write commits. Releasing it earlier would
    // leak uncommitted state: the client would learn the column changed
    // before any strong read could observe the change.
    let req = cond_put_request(2, u64_to_key(2), b"second", 12345);
    let out = feed(&mut leader, NodeInput::Client { from: 99, req });
    assert!(replies(&out).is_empty(), "rejection deferred until the observed write commits");

    // Commit the first write (own force + one follower ack): its
    // WriteOk and the deferred VersionMismatch release together.
    let lsn = leader.last_lsn(RangeId(0));
    let _ = feed(&mut leader, NodeInput::LogForced { tokens });
    let epoch = leader.epoch_of(RangeId(0));
    let out = feed(
        &mut leader,
        NodeInput::Peer { from: 1, msg: PeerMsg::Ack { range: RangeId(0), epoch, lsn } },
    );
    match replies(&out).as_slice() {
        [ClientReply::WriteOk { req: 1, .. }, ClientReply::Err { req: 2, error: ClientError::VersionMismatch { actual } }] =>
        {
            assert_eq!(*actual, lsn.as_u64(), "the mismatch reports the now-committed version");
        }
        other => panic!("expected WriteOk + deferred VersionMismatch, got {other:?}"),
    }
}

#[test]
fn follower_forces_before_acking_a_propose() {
    let fx = Fixture::new();
    let mut follower = fx.node(1);
    let _ = feed(&mut follower, NodeInput::Start);
    let _ = feed(
        &mut follower,
        NodeInput::Peer {
            from: 0,
            msg: PeerMsg::LeaderHello { range: RangeId(0), epoch: 1, leader: 0 },
        },
    );
    // Complete the catch-up handshake so the node becomes a Follower
    // (commit messages are ignored while still catching up).
    let _ = feed(
        &mut follower,
        NodeInput::Peer {
            from: 0,
            msg: PeerMsg::CatchupRecords {
                range: RangeId(0),
                epoch: 1,
                records: vec![],
                fragments: vec![],
                up_to: Lsn::ZERO,
            },
        },
    );
    assert_eq!(follower.role(RangeId(0)), Role::Follower);
    let lsn = Lsn::new(1, 1);
    let out = feed(
        &mut follower,
        NodeInput::Peer {
            from: 0,
            msg: PeerMsg::Propose {
                range: RangeId(0),
                epoch: 1,
                lsn,
                ops: Arc::from([spinnaker_common::WriteOp::put(
                    u64_to_key(1),
                    bytes::Bytes::from_static(b"c"),
                    bytes::Bytes::from_static(b"v"),
                    0,
                )]),
                committed: Lsn::ZERO,
                closed_ts: 0,
            },
        },
    );
    assert!(
        !sends(&out).iter().any(|(_, m)| matches!(m, PeerMsg::Ack { .. })),
        "no ack before the log force completes (Fig. 4)"
    );
    let tokens = force_tokens(&out);
    assert_eq!(tokens.len(), 1);
    let out = feed(&mut follower, NodeInput::LogForced { tokens });
    let acks: Vec<_> =
        sends(&out).into_iter().filter(|(_, m)| matches!(m, PeerMsg::Ack { .. })).collect();
    assert_eq!(acks.len(), 1, "ack after durability");
    assert_eq!(acks[0].0, 0, "ack goes to the leader");

    // The write is pending, not applied: timeline reads miss it.
    let out = feed(
        &mut follower,
        NodeInput::Client {
            from: 99,
            req: get_request(5, u64_to_key(1), "c", Consistency::Timeline),
        },
    );
    match replies(&out).as_slice() {
        [ClientReply::Row { cells, .. }] if cells.is_empty() => {}
        other => panic!("uncommitted write visible: {other:?}"),
    }

    // The commit message applies it.
    let _ = feed(
        &mut follower,
        NodeInput::Peer {
            from: 0,
            msg: PeerMsg::Commit { range: RangeId(0), epoch: 1, lsn, closed_ts: 0 },
        },
    );
    let out = feed(
        &mut follower,
        NodeInput::Client {
            from: 99,
            req: get_request(6, u64_to_key(1), "c", Consistency::Timeline),
        },
    );
    match replies(&out).as_slice() {
        [ClientReply::Row { cells, .. }] if cells.len() == 1 => {
            assert_eq!(cells[0].value.as_ref().unwrap().as_ref(), b"v");
        }
        other => panic!("committed write not visible: {other:?}"),
    }
    assert_eq!(follower.last_committed(RangeId(0)), lsn);
}

#[test]
fn stale_epoch_proposes_are_ignored() {
    let fx = Fixture::new();
    let mut follower = fx.node(1);
    let _ = feed(&mut follower, NodeInput::Start);
    let _ = feed(
        &mut follower,
        NodeInput::Peer {
            from: 0,
            msg: PeerMsg::LeaderHello { range: RangeId(0), epoch: 5, leader: 0 },
        },
    );
    // A deposed leader from epoch 3 tries to propose.
    let out = feed(
        &mut follower,
        NodeInput::Peer {
            from: 2,
            msg: PeerMsg::Propose {
                range: RangeId(0),
                epoch: 3,
                lsn: Lsn::new(3, 9),
                ops: Arc::from([spinnaker_common::op::put("k", "c", "stale")]),
                committed: Lsn::ZERO,
                closed_ts: 0,
            },
        },
    );
    assert!(out.effects.is_empty(), "stale-epoch propose dropped: {:?}", out.effects);
    assert_eq!(follower.last_lsn(RangeId(0)), Lsn::ZERO, "nothing logged");
}

#[test]
fn timeline_reads_served_by_followers_strong_reads_rejected() {
    let fx = Fixture::new();
    let mut follower = fx.node(1);
    let _ = feed(&mut follower, NodeInput::Start);
    let _ = feed(
        &mut follower,
        NodeInput::Peer {
            from: 0,
            msg: PeerMsg::LeaderHello { range: RangeId(0), epoch: 1, leader: 0 },
        },
    );
    let out = feed(
        &mut follower,
        NodeInput::Client {
            from: 99,
            req: get_request(1, u64_to_key(1), "c", Consistency::Strong),
        },
    );
    assert!(matches!(
        replies(&out).as_slice(),
        [ClientReply::Err { error: ClientError::NotLeader { .. }, .. }]
    ));
    let out = feed(
        &mut follower,
        NodeInput::Client {
            from: 99,
            req: get_request(2, u64_to_key(1), "c", Consistency::Timeline),
        },
    );
    assert!(matches!(replies(&out).as_slice(), [ClientReply::Row { .. }]));
}

fn peer(node: &mut Node, from: u32, msg: PeerMsg) -> Outbox {
    feed(node, NodeInput::Peer { from, msg })
}

/// A propose of `n` one-op writes to keys `seq..seq + n`, from node 0.
fn propose(epoch: u16, seq: u64, n: u64) -> PeerMsg {
    PeerMsg::Propose {
        range: RangeId(0),
        epoch,
        lsn: Lsn::new(epoch, seq),
        ops: (seq..seq + n)
            .map(|s| {
                spinnaker_common::WriteOp::put(
                    u64_to_key(s),
                    bytes::Bytes::from_static(b"c"),
                    bytes::Bytes::from(format!("v{s}")),
                    s,
                )
            })
            .collect(),
        committed: Lsn::ZERO,
        closed_ts: 0,
    }
}

/// The catch-up reply carrying writes `from..=to` of `epoch` as
/// committed history.
fn catchup_records(epoch: u16, from: u64, to: u64) -> PeerMsg {
    let PeerMsg::Propose { ops, .. } = propose(epoch, from, to + 1 - from) else { unreachable!() };
    PeerMsg::CatchupRecords {
        range: RangeId(0),
        epoch,
        records: (from..=to).map(|s| Lsn::new(epoch, s)).zip(ops.iter().cloned()).collect(),
        fragments: vec![],
        up_to: Lsn::new(epoch, to),
    }
}

fn catchup_reqs(out: &Outbox) -> Vec<Lsn> {
    sends(out)
        .into_iter()
        .filter_map(|(_, m)| match m {
            PeerMsg::CatchupReq { from, .. } => Some(*from),
            _ => None,
        })
        .collect()
}

fn acks(out: &Outbox) -> Vec<Lsn> {
    sends(out)
        .into_iter()
        .filter_map(|(_, m)| match m {
            PeerMsg::Ack { lsn, .. } => Some(*lsn),
            _ => None,
        })
        .collect()
}

fn timeline_value(node: &mut Node, key: u64) -> Option<Vec<u8>> {
    let out = feed(
        node,
        NodeInput::Client {
            from: 99,
            req: get_request(1, u64_to_key(key), "c", Consistency::Timeline),
        },
    );
    match replies(&out).as_slice() {
        [ClientReply::Row { cells, .. }] => {
            cells.first().and_then(|c| c.value.clone()).map(|v| v.to_vec())
        }
        other => panic!("expected a row, got {other:?}"),
    }
}

/// Node 1 as a follower of node 0 in epoch 1, caught up through 1.5.
fn follower_through_5(fx: &Fixture) -> Node {
    let mut f = fx.node(1);
    let _ = feed(&mut f, NodeInput::Start);
    let hello = peer(&mut f, 0, PeerMsg::LeaderHello { range: RangeId(0), epoch: 1, leader: 0 });
    assert_eq!(catchup_reqs(&hello), vec![Lsn::ZERO]);
    let _ = peer(&mut f, 0, catchup_records(1, 1, 5));
    assert_eq!(f.role(RangeId(0)), Role::Follower);
    assert_eq!(f.last_committed(RangeId(0)), Lsn::new(1, 5));
    f
}

/// The epoch fence. A follower still holding the dead leader's queue (it
/// missed the new leader's hello) must not drain it on the new leader's
/// commit: the new leader may have discarded those writes and reused
/// their sequence numbers. It catches up with the sender instead.
#[test]
fn commit_from_a_newer_epoch_starts_catch_up_instead_of_draining_the_queue() {
    let fx = Fixture::new();
    let mut f = follower_through_5(&fx);
    let _ = peer(&mut f, 0, propose(1, 6, 3)); // 1.6..1.8 queued
    let out = peer(
        &mut f,
        2,
        PeerMsg::Commit { range: RangeId(0), epoch: 2, lsn: Lsn::new(2, 8), closed_ts: 0 },
    );
    assert_eq!(f.last_committed(RangeId(0)), Lsn::new(1, 5), "nothing applied");
    assert_eq!(timeline_value(&mut f, 6), None, "the stale 1.6 stays invisible");
    assert_eq!(f.role(RangeId(0)), Role::CatchingUp);
    assert_eq!(f.leader_of(RangeId(0)), Some(2));
    let reqs: Vec<_> = sends(&out)
        .into_iter()
        .filter(|(_, m)| matches!(m, PeerMsg::CatchupReq { .. }))
        .map(|(to, _)| to)
        .collect();
    assert_eq!(reqs, vec![2], "one catch-up request, to the sender");

    // The same fence on a piggy-backed watermark: a propose of the new
    // epoch neither applies its `committed` to the old queue nor joins it.
    let mut f = follower_through_5(&fx);
    let _ = peer(&mut f, 0, propose(1, 6, 3));
    let PeerMsg::Propose { range, lsn, ops, closed_ts, .. } = propose(2, 9, 1) else {
        unreachable!()
    };
    let fenced =
        PeerMsg::Propose { range, epoch: 2, lsn, ops, committed: Lsn::new(2, 8), closed_ts };
    let out = peer(&mut f, 2, fenced);
    assert_eq!(f.last_committed(RangeId(0)), Lsn::new(1, 5));
    assert_eq!(f.role(RangeId(0)), Role::CatchingUp);
    assert_eq!(catchup_reqs(&out), vec![Lsn::new(1, 5)]);
    assert_eq!(f.last_lsn(RangeId(0)), Lsn::new(1, 8), "2.9 is parked, not logged");
}

/// A catching-up follower asks once and parks what it cannot log yet.
/// When the reply lands, a parked group wholly inside it is skipped, one
/// straddling its end is trimmed to the part past it, the rest is logged
/// as it came — and no second request is sent.
#[test]
fn parked_proposes_are_skipped_trimmed_or_logged_when_the_reply_lands() {
    let fx = Fixture::new();
    let mut f = fx.node(1);
    let _ = feed(&mut f, NodeInput::Start);
    let hello = peer(&mut f, 0, PeerMsg::LeaderHello { range: RangeId(0), epoch: 1, leader: 0 });
    assert_eq!(catchup_reqs(&hello).len(), 1);
    // The leader's proposes overtake its reply (they cost less CPU).
    for msg in [propose(1, 3, 2), propose(1, 5, 4), propose(1, 9, 1)] {
        let out = peer(&mut f, 0, msg);
        assert!(out.effects.is_empty(), "parked silently: {:?}", out.effects);
    }
    assert_eq!(f.last_lsn(RangeId(0)), Lsn::ZERO, "nothing logged over the hole");
    assert_eq!(f.role(RangeId(0)), Role::CatchingUp);

    // The reply covers 1.1..=1.6: [1.3, 1.4] is inside it, [1.5..1.8]
    // straddles its end, [1.9] is past it.
    let out = peer(&mut f, 0, catchup_records(1, 1, 6));
    assert_eq!(f.role(RangeId(0)), Role::Follower);
    assert!(catchup_reqs(&out).is_empty(), "no second request");
    assert_eq!(f.last_committed(RangeId(0)), Lsn::new(1, 6));
    assert_eq!(f.last_lsn(RangeId(0)), Lsn::new(1, 9));
    assert_eq!(f.wal().indexed_records(RangeId(0)), 9, "each write logged once");
    // One force for the reply, one each for the two groups that needed
    // logging; their acks carry the groups' own last LSNs.
    let tokens = force_tokens(&out);
    assert_eq!(tokens.len(), 3);
    let out = feed(&mut f, NodeInput::LogForced { tokens });
    assert_eq!(acks(&out), vec![Lsn::new(1, 8), Lsn::new(1, 9)]);
    // The trimmed group's writes apply like any other.
    let _ = peer(
        &mut f,
        0,
        PeerMsg::Commit { range: RangeId(0), epoch: 1, lsn: Lsn::new(1, 9), closed_ts: 0 },
    );
    assert_eq!(f.last_committed(RangeId(0)), Lsn::new(1, 9));
    for key in 1..=9 {
        assert_eq!(timeline_value(&mut f, key), Some(format!("v{key}").into_bytes()));
    }
}

/// The park is bounded. Past the bound the oldest parked propose is
/// dropped, which is what every gapped propose got before there was a
/// park: the reply leaves a hole, the follower asks once more, and the
/// second round closes it.
#[test]
fn park_overflow_drops_the_oldest_and_catch_up_still_converges() {
    use spinnaker_core::replica::CATCHUP_PARK_GROUPS;
    const EXTRA: u64 = 8;
    let fx = Fixture::new();
    let mut f = fx.node(1);
    let _ = feed(&mut f, NodeInput::Start);
    let _ = peer(&mut f, 0, PeerMsg::LeaderHello { range: RangeId(0), epoch: 1, leader: 0 });
    // Singleton proposes 1.3, 1.4, ... — EXTRA more than the park holds.
    let last = 2 + CATCHUP_PARK_GROUPS as u64 + EXTRA;
    for seq in 3..=last {
        let _ = peer(&mut f, 0, propose(1, seq, 1));
    }
    // The reply covers 1.1, 1.2; 1.3..=1.10 were dropped from the park.
    let out = peer(&mut f, 0, catchup_records(1, 1, 2));
    assert_eq!(f.role(RangeId(0)), Role::CatchingUp, "a hole remains");
    assert_eq!(catchup_reqs(&out), vec![Lsn::new(1, 2)], "asked again, once");
    assert_eq!(f.last_lsn(RangeId(0)), Lsn::new(1, 2));
    // The second reply covers the hole; the park drains behind it.
    let out = peer(&mut f, 0, catchup_records(1, 3, 2 + EXTRA));
    assert_eq!(f.role(RangeId(0)), Role::Follower);
    assert!(catchup_reqs(&out).is_empty());
    assert_eq!(f.last_lsn(RangeId(0)), Lsn::new(1, last));
    assert_eq!(f.wal().indexed_records(RangeId(0)), last as usize);
}
