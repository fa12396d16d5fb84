//! Allocation budgets for the write path, as exact counts: three `Node`s
//! on the shared hand pump (`support/pump.rs`, no simulator) through
//! group proposes, counting what each node allocates inside `on_input`
//! per put. A write is built once —
//! the leader copies an op once, for its commit queue — and afterwards
//! only moved: the log record, the propose messages and the followers'
//! queues share one batch.

use std::sync::Arc;

use spinnaker_common::{Lsn, WriteOp};
use spinnaker_core::messages::{NodeInput, PeerMsg};
use spinnaker_core::node::{put_request, Role};
use spinnaker_core::partition::{u64_to_key, Ring};

#[path = "support/pump.rs"]
mod pump;
use pump::counting_alloc::{allocations, CountingAlloc};
use pump::{Pump, CLIENT, R0};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Nine puts fed back to back: the first proposes alone and its force is
/// in flight while the other eight arrive, so they travel as one group
/// propose, flushed when the batch cap (8) is reached.
const ROUND: u64 = 9;

#[test]
fn a_put_allocates_within_budget_on_leader_and_follower() {
    let mut p = Pump::new();
    let mut next = 0u64;
    let mut round = |p: &mut Pump| {
        for _ in 0..ROUND {
            // Keys of range 0, which node 0 leads.
            let req = put_request(next, u64_to_key(next % 4096), "c", &[b'v'; 256]);
            p.queue.push_back((0, NodeInput::Client { from: CLIENT, req }));
            next += 1;
        }
        p.run();
        // The commit period: followers apply what was committed.
        p.commit_tick(0);
    };
    // Warm-up: buffers, queues and maps reach their working size.
    for _ in 0..32 {
        round(&mut p);
    }
    let before = (p.allocs, p.written.len());
    const ROUNDS: u64 = 128;
    for _ in 0..ROUNDS {
        round(&mut p);
    }
    let puts = ROUNDS * ROUND;
    assert_eq!((p.written.len() - before.1) as u64, puts, "every put was acknowledged");
    let per_put = |node: usize| (p.allocs[node] - before.0[node]) as f64 / puts as f64;
    let (leader, follower) = (per_put(0), per_put(1).max(per_put(2)));
    assert!(leader <= LEADER_BUDGET, "leader: {leader:.2} allocations per put");
    assert!(follower <= FOLLOWER_BUDGET, "follower: {follower:.2} allocations per put");
}

/// Measured 4.00 when set (10.34 before ops were shared and frames
/// encoded in place): the op's cell list, the commit queue's copy of it,
/// the queue entry's acker set, and the memtable's new row.
const LEADER_BUDGET: f64 = 5.0;
/// Measured 2.00 when set (5.00 before): the memtable's new row, and the
/// growth of the log index, the queue and the drained-commit lists.
const FOLLOWER_BUDGET: f64 = 3.0;

/// A follower handling a group propose copies no op: its commit queue
/// holds the message's batch, entry by entry, and its log encodes from
/// it.
#[test]
fn a_follower_queues_the_proposed_batch_itself() {
    let mut p = Pump::new();
    let batch = |first: u64| -> Arc<[WriteOp]> {
        (first..first + 8)
            .map(|seq| {
                WriteOp::put(
                    u64_to_key(seq),
                    bytes::Bytes::from_static(b"c"),
                    bytes::Bytes::from(vec![b'v'; 256]),
                    seq,
                )
            })
            .collect()
    };
    let epoch = p.node(0).epoch_of(R0);
    let propose = |first: u64, ops: &Arc<[WriteOp]>| NodeInput::Peer {
        from: 0,
        msg: PeerMsg::Propose {
            range: R0,
            epoch,
            lsn: Lsn::new(epoch, first),
            ops: ops.clone(),
            committed: Lsn::ZERO,
            closed_ts: 0,
        },
    };
    // Warm-up (the log's frame buffer, the follower's maps), then the
    // propose under test, straight into node 1. The warm-up's outbox is
    // not handed back, so the propose under test fills a new one.
    let warm_up = batch(1);
    p.step(1, propose(1, &warm_up));
    let ops = batch(9);
    let before = p.allocs[1];
    p.step(1, propose(9, &ops));
    let allocs = p.allocs[1] - before;
    assert_eq!(p.node(1).last_lsn(R0), Lsn::new(epoch, 16), "logged");
    assert_eq!(Arc::strong_count(&ops), 1 + 8, "ours, and one per queued write");
    // Copying an op allocates (its cell list); eight would show.
    assert!(allocs < 8, "{allocs} allocations handling an 8-op propose");
}

/// Takeover moves the unresolved tail in groups. A new leader with 256
/// unresolved writes sends four proposes of 64 to each peer — not 256 of
/// one — all in the input that learns a follower caught up, and that
/// input allocates for the commit queue's tree nodes only: the groups
/// were cut when the tail was read, and the log record, both messages
/// and the queue entries share each group's one batch. (Re-proposing
/// write by write built an `Arc` per write here, and a message per write
/// and peer.) What the takeover allocates per write elsewhere is what
/// any committed write costs: its acker set and its memtable row.
#[test]
fn takeover_reproposes_the_tail_in_groups_not_per_write() {
    const TAIL: usize = 256;
    const GROUP: usize = 64;
    let mut p = Pump::new();
    for k in 0..TAIL as u64 {
        let req = put_request(k, u64_to_key(k), "c", &[b'v'; 256]);
        p.feed(0, NodeInput::Client { from: CLIENT, req });
        p.run();
    }
    assert_eq!(p.written.len(), TAIL);
    // No commit period has passed: both followers hold the whole tail
    // unresolved. The leader dies.
    p.proposing.clear();
    p.crash(0);
    p.run();
    let leader = p.leader_of(R0);
    assert_eq!(p.node(leader).last_committed(R0).seq(), TAIL as u64);

    let by_leader: Vec<_> = p.proposing.iter().filter(|i| i.node == leader).collect();
    assert_eq!(by_leader.len(), 1, "the whole tail fits the window: one input sends it");
    let (allocs, since) = (by_leader[0].allocs, by_leader[0].since);
    for peer in (0..3).filter(|&n| n != leader) {
        let sizes: Vec<usize> = p.proposes(since, leader, peer).iter().map(|(_, n)| *n).collect();
        assert_eq!(sizes, vec![GROUP; TAIL / GROUP], "proposes to node {peer}");
    }
    // Measured 43: the queue's B-tree nodes for 256 entries, and the
    // outbox growing to hold eight messages.
    assert!(allocs <= (TAIL / 4) as u64, "{allocs} allocations re-proposing {TAIL} writes");
}

/// Catch-up moves committed history out of the leader's log into a
/// follower's log and memtable. A follower that missed 512 one-KB writes
/// (114 frames: a single and a group of eight per round) asks once; what the leader allocates serving them
/// grows with the frames it reads and the ops it ships — an op's key,
/// column and value are views of its frame — and what the follower
/// allocates ingesting them is per op: its copy for a log record of its
/// own, and its memtable row. Neither count follows the size of the
/// values.
#[test]
fn catch_up_allocates_per_frame_and_op_not_per_cell() {
    const N: u64 = 512;
    const FRAMES: u64 = 2 * N.div_ceil(ROUND);
    let catch_up = |value_len: usize| {
        let mut p = Pump::new();
        // Node 2 sleeps: it hears nothing.
        p.lose = Box::new(|_, to, _| to == 2);
        p.hold_events[2] = true;
        let value = vec![b'v'; value_len];
        for k in 0..N {
            let req = put_request(k, u64_to_key(k % 4096), "column", &value);
            p.queue.push_back((0, NodeInput::Client { from: CLIENT, req }));
            if k % ROUND == ROUND - 1 {
                p.run();
            }
        }
        p.run();
        p.commit_tick(0);
        assert_eq!(p.written.len() as u64, N);
        assert_eq!(p.node(0).last_committed(R0).seq(), N);

        // Node 2 wakes up and hears who leads.
        p.lose = Box::new(|_, _, _| false);
        p.hold_events[2] = false;
        let before = p.allocs;
        let epoch = p.node(0).epoch_of(R0);
        let hello = PeerMsg::LeaderHello { range: R0, epoch, leader: 0 };
        p.feed(2, NodeInput::Peer { from: 0, msg: hello });
        p.run();
        assert_eq!(p.role(2), Role::Follower, "caught up");
        assert_eq!(p.node(2).last_committed(R0).seq(), N);
        (p.allocs[0] - before[0], p.allocs[2] - before[2])
    };
    let (leader, follower) = catch_up(1024);
    // Leader, measured 1 431 (2 967 when decoding copied a key, a name
    // and a value per op). Per frame: its buffer, the boxed record, the
    // op list and the batch it becomes; per op: the decoded cell list and
    // the shipped copy's.
    assert!(leader <= 2 * N + 4 * FRAMES + 32, "leader: {leader} allocations serving {N} ops");
    // Follower, measured 1 780. Per op: the cell list and the one-op
    // batch of its log record, the memtable row; per six ops or so a leaf
    // each of the log index, the memtable and the two LSN sets catch-up
    // compares.
    assert!(follower <= 7 * N / 2 + 32, "follower: {follower} allocations ingesting {N} ops");
    assert_eq!(catch_up(64), (leader, follower), "the count does not follow the value size");
}

/// Launching a call costs its window slot (a node of the pending map now
/// and then) and the list of request ids handed back — not a cursor: the
/// empty key a point call starts with has no storage.
#[test]
fn launching_a_call_allocates_no_cursor() {
    use spinnaker_common::{ColumnSelect, Consistency, Key};
    use spinnaker_core::session::{Session, SessionCall};
    let (allocs, key) = allocations(Key::default);
    assert!(key.is_empty());
    assert_eq!(allocs, 0, "an empty key");
    let mut session = Session::new(Ring::with_nodes(3), 64);
    let launch = |session: &mut Session| {
        session.submit(SessionCall::Get {
            key: u64_to_key(7),
            columns: ColumnSelect::All,
            consistency: Consistency::Strong,
        });
        let (allocs, reqs) = allocations(|| session.launch());
        assert_eq!(reqs.len(), 1);
        allocs
    };
    // The first launch makes the pending map's root; the next ones fill it.
    launch(&mut session);
    assert_eq!(launch(&mut session), 1, "the returned list of one request id");
}
