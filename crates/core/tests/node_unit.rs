//! Direct state-machine tests of a [`Node`]: drive `on_input` by hand on
//! the shared pump (`support/pump.rs`) and assert on the emitted effects
//! — no simulator, no timing, pure protocol logic.
//!
//! [`Node`]: spinnaker_core::node::Node

use std::sync::Arc;

use spinnaker_common::{ClientError, Consistency, Lsn};
use spinnaker_core::messages::{
    ClientOp, ClientReply, ClientRequest, Effect, NodeInput, PeerMsg, TimerKind,
};
use spinnaker_core::node::{get_request, put_request, Role};
use spinnaker_core::partition::u64_to_key;

#[path = "support/pump.rs"]
mod pump;
use pump::{force_tokens, replies, sends, Pump, R0};

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

fn peer(from: u32, msg: PeerMsg) -> NodeInput {
    NodeInput::Peer { from, msg }
}

/// The commit message of range 0's leader in `epoch`, claiming no
/// proposed LSN.
fn commit(epoch: u16, lsn: Lsn) -> PeerMsg {
    PeerMsg::Commit { range: R0, epoch, lsn, closed_ts: 0, sent: Lsn::ZERO }
}

fn client(req: ClientRequest) -> NodeInput {
    NodeInput::Client { from: 99, req }
}

/// Node 1 started alone and told that node 0 leads range 0 in `epoch`,
/// committed through `epoch`.5: it asks node 0 for everything, in the
/// hello's epoch.
fn hears_leader(epoch: u16) -> Pump {
    let mut p = Pump::unsettled();
    p.step(1, NodeInput::Start);
    let up_to = Lsn::new(epoch, 5);
    let hello = PeerMsg::LeaderHello {
        range: R0,
        epoch,
        leader: 0,
        up_to,
        tail: vec![],
        store_empty: false,
    };
    let hello = p.step(1, peer(0, hello));
    let ask = PeerMsg::CatchupReq { range: R0, epoch, from: Lsn::ZERO };
    assert_eq!(sends(&hello), [(0, &ask)]);
    p
}

#[test]
fn start_arms_the_periodic_timers() {
    let mut p = Pump::unsettled();
    let out = p.step(0, NodeInput::Start);
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
    let mut p = hears_leader(1);
    let out = p.step(1, client(put_request(7, u64_to_key(5), "c", b"v")));
    match replies(&out).as_slice() {
        [ClientReply::Err { req: 7, error: ClientError::NotLeader { hint } }] => {
            assert_eq!(*hint, Some(0));
        }
        other => panic!("expected NotLeader, got {other:?}"),
    }
}

#[test]
fn leader_write_flow_force_then_ack_then_commit() {
    let mut p = Pump::new();

    // Client write: the node must force its log AND propose to both peers
    // in the same step (Fig. 4: "in parallel").
    let out = p.step(0, client(put_request(1, u64_to_key(1), "c", b"hello")));
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
    let lsn = p.node(0).last_lsn(R0);
    let out = p.step(0, NodeInput::LogForced { tokens });
    assert!(replies(&out).is_empty(), "force alone is not a quorum");

    // One follower ack: quorum of 2/3 reached, commit + client reply.
    let epoch = p.node(0).epoch_of(R0);
    let out = p.step(0, peer(1, PeerMsg::Ack { range: R0, epoch, lsn }));
    match replies(&out).as_slice() {
        [ClientReply::WriteOk { req: 1, version, .. }] => assert_eq!(*version, lsn.as_u64()),
        other => panic!("expected WriteOk, got {other:?}"),
    }
    assert_eq!(p.node(0).last_committed(R0), lsn);

    // Strong read now sees it.
    let out = p.step(0, client(get_request(2, u64_to_key(1), "c", Consistency::Strong)));
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
    let mut p = Pump::new();
    // Conditional put on an absent column with expected=0 is accepted...
    let out = p.step(0, client(cond_put_request(1, u64_to_key(2), b"first", 0)));
    let tokens = force_tokens(&out);
    assert!(replies(&out).is_empty(), "accepted: proposed, not yet committed");

    // ...and a second conditional put with a wrong expected version is
    // rejected against the *pending* state (writes commit in LSN order,
    // so the pending version is authoritative) — but the rejection is
    // held until that pending write commits. Releasing it earlier would
    // leak uncommitted state: the client would learn the column changed
    // before any strong read could observe the change.
    let out = p.step(0, client(cond_put_request(2, u64_to_key(2), b"second", 12345)));
    assert!(replies(&out).is_empty(), "rejection deferred until the observed write commits");

    // Commit the first write (own force + one follower ack): its
    // WriteOk and the deferred VersionMismatch release together.
    let lsn = p.node(0).last_lsn(R0);
    p.step(0, NodeInput::LogForced { tokens });
    let epoch = p.node(0).epoch_of(R0);
    let out = p.step(0, peer(1, PeerMsg::Ack { range: R0, epoch, lsn }));
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
    let mut p = hears_leader(1);
    // Complete the catch-up handshake so the node becomes a Follower
    // (commit messages are ignored while still catching up).
    let nothing = PeerMsg::CatchupRecords {
        range: R0,
        epoch: 1,
        records: vec![],
        fragments: vec![],
        gc_floor: u64::MAX,
        up_to: Lsn::ZERO,
        tail: vec![],
    };
    p.step(1, peer(0, nothing));
    assert_eq!(p.role(1), Role::Follower);
    let lsn = Lsn::new(1, 1);
    let out = p.step(1, peer(0, propose(1, 1, 1)));
    assert!(
        !sends(&out).iter().any(|(_, m)| matches!(m, PeerMsg::Ack { .. })),
        "no ack before the log force completes (Fig. 4)"
    );
    let tokens = force_tokens(&out);
    assert_eq!(tokens.len(), 1);
    let out = p.step(1, NodeInput::LogForced { tokens });
    assert_eq!(
        sends(&out),
        [(0, &PeerMsg::Ack { range: R0, epoch: 1, lsn })],
        "ack after durability, to the leader"
    );

    // The write is pending, not applied: timeline reads miss it.
    let out = p.step(1, client(get_request(5, u64_to_key(1), "c", Consistency::Timeline)));
    match replies(&out).as_slice() {
        [ClientReply::Row { cells, .. }] if cells.is_empty() => {}
        other => panic!("uncommitted write visible: {other:?}"),
    }

    // The commit message applies it.
    p.step(1, peer(0, commit(1, lsn)));
    let out = p.step(1, client(get_request(6, u64_to_key(1), "c", Consistency::Timeline)));
    match replies(&out).as_slice() {
        [ClientReply::Row { cells, .. }] if cells.len() == 1 => {
            assert_eq!(cells[0].value.as_ref().unwrap().as_ref(), b"v1");
        }
        other => panic!("committed write not visible: {other:?}"),
    }
    assert_eq!(p.node(1).last_committed(R0), lsn);
}

#[test]
fn stale_epoch_proposes_are_ignored() {
    let mut p = hears_leader(5);
    // A deposed leader from epoch 3 tries to propose.
    let out = p.step(
        1,
        peer(
            2,
            PeerMsg::Propose {
                range: R0,
                epoch: 3,
                lsn: Lsn::new(3, 9),
                ops: Arc::from([spinnaker_common::op::put("k", "c", "stale")]),
                committed: Lsn::ZERO,
                closed_ts: 0,
            },
        ),
    );
    assert!(out.effects.is_empty(), "stale-epoch propose dropped: {:?}", out.effects);
    assert_eq!(p.node(1).last_lsn(R0), Lsn::ZERO, "nothing logged");
}

#[test]
fn timeline_reads_served_by_followers_strong_reads_rejected() {
    let mut p = hears_leader(1);
    let out = p.step(1, client(get_request(1, u64_to_key(1), "c", Consistency::Strong)));
    assert!(matches!(
        replies(&out).as_slice(),
        [ClientReply::Err { error: ClientError::NotLeader { .. }, .. }]
    ));
    let out = p.step(1, client(get_request(2, u64_to_key(1), "c", Consistency::Timeline)));
    assert!(matches!(replies(&out).as_slice(), [ClientReply::Row { .. }]));
}

/// A propose of `n` one-op writes to keys `seq..seq + n`, from node 0.
fn propose(epoch: u16, seq: u64, n: u64) -> PeerMsg {
    PeerMsg::Propose {
        range: R0,
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
        range: R0,
        epoch,
        records: (from..=to).map(|s| Lsn::new(epoch, s)).zip(ops.iter().cloned()).collect(),
        fragments: vec![],
        gc_floor: u64::MAX,
        up_to: Lsn::new(epoch, to),
        tail: vec![],
    }
}

/// Node 1 as a follower of node 0 in epoch 1, caught up through 1.5.
fn follower_through_5() -> Pump {
    let mut p = hears_leader(1);
    p.step(1, peer(0, catchup_records(1, 1, 5)));
    assert_eq!(p.role(1), Role::Follower);
    assert_eq!(p.node(1).last_committed(R0), Lsn::new(1, 5));
    p
}

/// The epoch fence. A follower still holding the dead leader's queue (it
/// missed the new leader's hello) must not drain it on the new leader's
/// commit: the new leader may have discarded those writes and reused
/// their sequence numbers. It catches up with the sender instead.
#[test]
fn commit_from_a_newer_epoch_starts_catch_up_instead_of_draining_the_queue() {
    let mut p = follower_through_5();
    p.step(1, peer(0, propose(1, 6, 3))); // 1.6..1.8 queued
    let out = p.step(1, peer(2, commit(2, Lsn::new(2, 8))));
    assert_eq!(p.node(1).last_committed(R0), Lsn::new(1, 5), "nothing applied");
    assert_eq!(p.read(1, 6), None, "the stale 1.6 stays invisible");
    assert_eq!(p.role(1), Role::CatchingUp);
    assert_eq!(p.node(1).leader_of(R0), Some(2));
    let reqs: Vec<_> = sends(&out)
        .into_iter()
        .filter(|(_, m)| matches!(m, PeerMsg::CatchupReq { .. }))
        .map(|(to, _)| to)
        .collect();
    assert_eq!(reqs, vec![2], "one catch-up request, to the sender");

    // The same fence on a piggy-backed watermark: a propose of the new
    // epoch neither applies its `committed` to the old queue nor joins it.
    let mut p = follower_through_5();
    p.step(1, peer(0, propose(1, 6, 3)));
    let PeerMsg::Propose { range, lsn, ops, closed_ts, .. } = propose(2, 9, 1) else {
        unreachable!()
    };
    let fenced =
        PeerMsg::Propose { range, epoch: 2, lsn, ops, committed: Lsn::new(2, 8), closed_ts };
    let out = p.step(1, peer(2, fenced));
    assert_eq!(p.node(1).last_committed(R0), Lsn::new(1, 5));
    assert_eq!(p.role(1), Role::CatchingUp);
    assert_eq!(
        sends(&out),
        [(2, &PeerMsg::CatchupReq { range: R0, epoch: 2, from: Lsn::new(1, 5) })]
    );
    assert_eq!(p.node(1).last_lsn(R0), Lsn::new(1, 8), "2.9 is parked, not logged");
}

/// A catching-up follower asks once and parks what it cannot log yet.
/// When the reply lands, a parked group wholly inside it is skipped, one
/// straddling its end is trimmed to the part past it, the rest is logged
/// as it came — and no second request is sent.
#[test]
fn parked_proposes_are_skipped_trimmed_or_logged_when_the_reply_lands() {
    let mut p = hears_leader(1);
    // The leader's proposes overtake its reply (they cost less CPU).
    for msg in [propose(1, 3, 2), propose(1, 5, 4), propose(1, 9, 1)] {
        let out = p.step(1, peer(0, msg));
        assert!(out.effects.is_empty(), "parked silently: {:?}", out.effects);
    }
    assert_eq!(p.node(1).last_lsn(R0), Lsn::ZERO, "nothing logged over the hole");
    assert_eq!(p.role(1), Role::CatchingUp);

    // The reply covers 1.1..=1.6: [1.3, 1.4] is inside it, [1.5..1.8]
    // straddles its end, [1.9] is past it.
    let out = p.step(1, peer(0, catchup_records(1, 1, 6)));
    assert_eq!(p.role(1), Role::Follower);
    assert!(
        !sends(&out).iter().any(|(_, m)| matches!(m, PeerMsg::CatchupReq { .. })),
        "no second request"
    );
    assert_eq!(p.node(1).last_committed(R0), Lsn::new(1, 6));
    assert_eq!(p.node(1).last_lsn(R0), Lsn::new(1, 9));
    assert_eq!(p.node(1).wal().indexed_records(R0), 9, "each write logged once");
    // One force for the reply, one each for the two groups that needed
    // logging; their acks carry the groups' own last LSNs.
    let tokens = force_tokens(&out);
    assert_eq!(tokens.len(), 3);
    let out = p.step(1, NodeInput::LogForced { tokens });
    let acks: Vec<Lsn> = sends(&out)
        .into_iter()
        .filter_map(|(_, m)| match m {
            PeerMsg::Ack { lsn, .. } => Some(*lsn),
            _ => None,
        })
        .collect();
    assert_eq!(acks, vec![Lsn::new(1, 8), Lsn::new(1, 9)]);
    // The trimmed group's writes apply like any other.
    p.step(1, peer(0, commit(1, Lsn::new(1, 9))));
    assert_eq!(p.node(1).last_committed(R0), Lsn::new(1, 9));
    for key in 1..=9 {
        assert_eq!(p.read(1, key), Some(format!("v{key}").into_bytes()));
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
    let mut p = hears_leader(1);
    // Singleton proposes 1.3, 1.4, ... — EXTRA more than the park holds.
    let last = 2 + CATCHUP_PARK_GROUPS as u64 + EXTRA;
    for seq in 3..=last {
        p.step(1, peer(0, propose(1, seq, 1)));
    }
    // The reply covers 1.1, 1.2; 1.3..=1.10 were dropped from the park.
    let out = p.step(1, peer(0, catchup_records(1, 1, 2)));
    assert_eq!(p.role(1), Role::CatchingUp, "a hole remains");
    let again = PeerMsg::CatchupReq { range: R0, epoch: 1, from: Lsn::new(1, 2) };
    assert_eq!(sends(&out), [(0, &again)], "asked again, once");
    assert_eq!(p.node(1).last_lsn(R0), Lsn::new(1, 2));
    // The second reply covers the hole; the park drains behind it.
    let out = p.step(1, peer(0, catchup_records(1, 3, 2 + EXTRA)));
    assert_eq!(p.role(1), Role::Follower);
    assert!(!sends(&out).iter().any(|(_, m)| matches!(m, PeerMsg::CatchupReq { .. })));
    assert_eq!(p.node(1).last_lsn(R0), Lsn::new(1, last));
    assert_eq!(p.node(1).wal().indexed_records(R0), last as usize);
}

/// A `CaughtUp` answers the catch-up reply of one epoch's leader. Node 0
/// dies and its successor takes over range 0 in epoch 2 while every
/// confirmation is lost; then a late one from epoch 1 arrives. At the
/// parent commit it marked its sender caught up, and the takeover (its
/// tail empty) opened on it. It counts for nothing; the confirmation of
/// this epoch opens the takeover.
#[test]
fn a_caught_up_from_another_epoch_does_not_count() {
    let mut p = Pump::new();
    p.lose = Box::new(|_, _, m| matches!(m, PeerMsg::CaughtUp { .. }));
    p.crash(0);
    p.run();
    let leader = (1..3).find(|&i| p.role(i) == Role::LeaderTakeover).expect("a takeover waits");
    let follower = 3 - leader as u32;
    assert_eq!(p.node(leader).epoch_of(R0), 2);
    let confirm = |epoch| PeerMsg::CaughtUp { range: R0, epoch, at: Lsn::ZERO, held: Lsn::ZERO };

    let out = p.step(leader, peer(follower, confirm(1)));
    assert_eq!(p.role(leader), Role::LeaderTakeover, "a stale confirmation opened the takeover");
    assert!(sends(&out).is_empty(), "and sent {:?}", sends(&out));
    p.step(leader, peer(follower, confirm(2)));
    assert_eq!(p.role(leader), Role::Leader);
}
