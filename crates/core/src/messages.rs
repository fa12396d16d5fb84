//! Protocol and client messages.
//!
//! Everything that travels between processes: client RPCs (§3 API),
//! replication traffic (Fig. 4), and recovery/catch-up traffic (§6).
//! Coordination-service watch events are delivered as [`NodeInput`] items
//! by the hosting runtime.

use std::sync::Arc;

use spinnaker_common::{Epoch, Key, Lsn, NodeId, RangeId, Row, Timestamp, WriteOp};
use spinnaker_coord::WatchEvent;

pub use spinnaker_common::api::{
    ClientError, ClientOp, ClientReply, ClientRequest, ColumnSelect, ReadCell, RequestId, ScanRow,
};

/// Address of a process (node or client) in the hosting runtime.
pub type Addr = u32;

/// Node-to-node protocol messages, all scoped to one cohort (`range`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PeerMsg {
    /// Fig. 4: leader proposes a *group* of writes to its followers in
    /// one consensus round. A singleton group is the classic per-write
    /// propose; larger groups are drained from the leader's submission
    /// queue while the previous force was in flight.
    Propose {
        /// Cohort this applies to.
        range: RangeId,
        /// Leadership epoch of the sender; stale leaders are rejected.
        epoch: Epoch,
        /// LSN assigned to the *first* write; op `i` carries `lsn + i`
        /// (may be from an older epoch during takeover re-proposal,
        /// Fig. 6 line 9).
        lsn: Lsn,
        /// The writes, in LSN order. Never empty; replicated as one log
        /// record, acked once at the last LSN, atomic across crashes.
        /// One immutable batch: the leader's log record, the message to
        /// each follower, and every follower's log record and commit
        /// queue hold this allocation instead of copies of the ops. Each
        /// op names the client waiting on it ([`WriteOp::origin`]), so
        /// a follower that takes over can answer it.
        ops: Arc<[WriteOp]>,
        /// Piggy-backed last-committed LSN (§D.1), `Lsn::ZERO` disables.
        committed: Lsn,
        /// Closed timestamp: the leader promises never to commit another
        /// write with `ts <= closed_ts`. A follower that has applied
        /// everything through `committed` may serve snapshot reads at or
        /// below this bound locally. Meaningful only when `committed`
        /// piggy-backing is on; `0` disables.
        closed_ts: u64,
    },
    /// Fig. 4: follower acknowledges a forced propose.
    Ack {
        /// Cohort.
        range: RangeId,
        /// Epoch the follower believes current.
        epoch: Epoch,
        /// LSN whose log record is now durable at the follower.
        lsn: Lsn,
    },
    /// Fig. 4: asynchronous commit message. Doubles as the closed-ts
    /// heartbeat: it is sent every commit period even when `lsn` has not
    /// advanced, so follower snapshot bounds keep moving on an idle
    /// range.
    Commit {
        /// Cohort.
        range: RangeId,
        /// Epoch of the sender.
        epoch: Epoch,
        /// Apply pending writes up to this LSN.
        lsn: Lsn,
        /// Closed timestamp: the leader promises never to commit another
        /// write with `ts <= closed_ts`. A follower applied through `lsn`
        /// may serve snapshot reads at or below this bound. `0` disables.
        closed_ts: u64,
        /// The newest LSN the sender had proposed when it sent its
        /// previous commit message (`Lsn::ZERO`: no claim). Those
        /// proposes went out a commit period before this message on the
        /// same FIFO link, so a follower of this epoch whose log stops
        /// short of it lost one to a partition and asks for catch-up,
        /// which re-sends the leader's pending writes.
        sent: Lsn,
    },
    /// New leader announcing itself when its takeover begins (§6.2), and
    /// again to each follower that has not caught up while the takeover
    /// stalls. It carries the catch-up verdict an empty
    /// [`PeerMsg::CatchupRecords`] would: a follower that has committed
    /// through `up_to` needs no records and vouches for `tail` on the
    /// hello itself; one behind it sends [`PeerMsg::CatchupReq`]. So
    /// does a follower at zero unless `store_empty`: it vouches for
    /// nothing, and catch-up sends it the leader's store.
    LeaderHello {
        /// Cohort.
        range: RangeId,
        /// The new epoch.
        epoch: Epoch,
        /// The leader's node id.
        leader: NodeId,
        /// The leader's committed watermark.
        up_to: Lsn,
        /// The leader's unresolved tail past `up_to`, as
        /// [`PeerMsg::CatchupRecords::tail`] names it.
        tail: Vec<(Lsn, u64)>,
        /// The leader's store holds no row and no GC floor, so a
        /// follower at zero lacks nothing of it (true at a cluster's
        /// boot; false from a leader rebuilt at claim zero, whose rows
        /// are in its store alone).
        store_empty: bool,
    },
    /// Follower → leader: "I have committed up to `from`; send me
    /// everything after that" (§6.1 catch-up, also Fig. 6 lines 3-7).
    CatchupReq {
        /// Cohort.
        range: RangeId,
        /// Epoch the follower believes current.
        epoch: Epoch,
        /// The follower's last committed LSN (`f.cmt`).
        from: Lsn,
    },
    /// Leader → follower: committed writes after `f.cmt`.
    CatchupRecords {
        /// Cohort.
        range: RangeId,
        /// Leader's epoch.
        epoch: Epoch,
        /// Log records in `(f.cmt, up_to]`, in LSN order. Empty when
        /// `fragments` is used instead.
        records: Vec<(Lsn, WriteOp)>,
        /// Row fragments from the leader's store past `f.cmt` (§6.1: "the
        /// appropriate SSTable is located and sent"), when the log no
        /// longer reaches back to `f.cmt` or `f.cmt` is zero.
        fragments: Vec<(Key, Row)>,
        /// The leader's MVCC garbage-collection floor: `fragments` were
        /// pruned at it, so a follower that ingests them first raises its
        /// own floor to it (`u64::MAX` = never armed).
        gc_floor: Timestamp,
        /// Everything up to this LSN is committed once applied.
        up_to: Lsn,
        /// A taking-over leader's unresolved tail past `up_to` (Fig. 6
        /// line 9), as maximal runs `(first LSN, count)` of consecutive
        /// sequence numbers in one epoch; empty from a settled leader.
        /// The follower vouches for the prefix of it that its own log
        /// holds ([`PeerMsg::CaughtUp::held`]), and is sent only the
        /// rest.
        tail: Vec<(Lsn, u64)>,
    },
    /// Follower → leader: fully caught up to `at` (Fig. 6 line 8).
    CaughtUp {
        /// Cohort.
        range: RangeId,
        /// The epoch of the leader whose catch-up reply this answers.
        epoch: Epoch,
        /// The LSN the follower is caught up to.
        at: Lsn,
        /// The last LSN of the longest prefix of the reply's `tail` that
        /// the follower's log holds, durably, with no other write of its
        /// own among them (`Lsn::ZERO`: none). It states what an ack of
        /// each of those writes re-proposed would state, so the leader
        /// counts it as this follower's cumulative ack.
        held: Lsn,
    },
    /// Leader → joining node (cohort movement): attach an empty replica
    /// of `range` and catch up from the sender like any follower — from
    /// zero, so it is sent the whole store. The `/ranges/table` entry
    /// already carries the in-flight `moving` marker for this handoff.
    JoinRange {
        /// The range whose cohort the receiver is joining.
        range: RangeId,
        /// Leader's epoch.
        epoch: Epoch,
    },
    /// Leader → cohort (old and new members): the replica movement
    /// committed in the range table. Receivers refresh their peer sets;
    /// the departing replica detaches.
    CohortChange {
        /// The range whose cohort changed.
        range: RangeId,
        /// Leader's epoch.
        epoch: Epoch,
        /// The table entry's cohort-change generation after the commit.
        gen: u64,
        /// The committed replica set.
        cohort: Vec<NodeId>,
        /// The replica that left the cohort.
        departing: NodeId,
        /// The replica that joined in its place.
        joining: NodeId,
        /// The sending leader's timestamp clock: the highest commit
        /// timestamp it assigned or snapshot timestamp it served. A
        /// receiver that comes to lead the range stamps above it.
        clock: u64,
    },
    /// Merge coordinator (left sibling's leader) → right sibling's
    /// leader: drain your commit queue and answer [`PeerMsg::MergeReady`].
    MergeProposal {
        /// The right sibling (the receiver leads it).
        range: RangeId,
        /// The left sibling (the coordinator's range).
        left: RangeId,
        /// The coordinator's epoch on the left sibling.
        epoch: Epoch,
        /// Attempt token, echoed in [`PeerMsg::MergeReady`] so a stale
        /// readiness from an aborted attempt can never satisfy a newer
        /// one.
        token: u64,
    },
    /// Right sibling's leader → merge coordinator: the right sibling's
    /// commit queue drained at `barrier`; a commit message up to the
    /// barrier was fanned to the cohort first on the same links.
    MergeReady {
        /// The coordinator's range (the left sibling).
        range: RangeId,
        /// The right sibling.
        right: RangeId,
        /// The right sibling's drained `last_committed`.
        barrier: Lsn,
        /// The right sibling leader's epoch.
        epoch: Epoch,
        /// The attempt token from the matching [`PeerMsg::MergeProposal`].
        token: u64,
        /// The right sibling leader's timestamp clock: the highest commit
        /// timestamp it assigned or snapshot timestamp it served. The
        /// merged range stamps above it.
        clock: u64,
    },
    /// Merge coordinator → right sibling's leader: the merge was
    /// abandoned (CAS race, timeout); unblock held writes.
    MergeAbort {
        /// The right sibling whose barrier is released.
        range: RangeId,
        /// The coordinator's epoch on the left sibling.
        epoch: Epoch,
    },
    /// Merge coordinator → cohort: both siblings drained and the table
    /// retired them, with their barriers, in favour of the merged range.
    /// A nudge: queued behind every propose of the left sibling on the
    /// same link, it tells a follower to dissolve both siblings now, as
    /// the range table describes.
    Merge {
        /// The left sibling (dissolved).
        range: RangeId,
    },
    /// Leader → followers: the table retired `range` at its barrier in
    /// favour of two children. A nudge, like [`PeerMsg::Merge`].
    Split {
        /// The parent cohort being dissolved.
        range: RangeId,
    },
}

impl PeerMsg {
    /// The cohort the message belongs to.
    pub fn range(&self) -> RangeId {
        match self {
            PeerMsg::Propose { range, .. }
            | PeerMsg::Ack { range, .. }
            | PeerMsg::Commit { range, .. }
            | PeerMsg::LeaderHello { range, .. }
            | PeerMsg::CatchupReq { range, .. }
            | PeerMsg::CatchupRecords { range, .. }
            | PeerMsg::CaughtUp { range, .. }
            | PeerMsg::JoinRange { range, .. }
            | PeerMsg::CohortChange { range, .. }
            | PeerMsg::MergeProposal { range, .. }
            | PeerMsg::MergeReady { range, .. }
            | PeerMsg::MergeAbort { range, .. }
            | PeerMsg::Merge { range, .. }
            | PeerMsg::Split { range, .. } => *range,
        }
    }

    /// Approximate wire size, for the network model.
    pub fn wire_size(&self) -> usize {
        match self {
            // An op naming its waiting client carries its address and
            // request id too.
            PeerMsg::Propose { ops, .. } => {
                let op_size =
                    |op: &WriteOp| 8 + op.approx_size() + 12 * usize::from(op.origin.is_some());
                64 + ops.iter().map(op_size).sum::<usize>()
            }
            PeerMsg::CatchupRecords { records, fragments, tail, .. } => {
                64 + records.iter().map(|(_, op)| 16 + op.approx_size()).sum::<usize>()
                    + fragments.iter().map(|(k, r)| k.len() + r.approx_size()).sum::<usize>()
                    + 16 * tail.len()
            }
            PeerMsg::LeaderHello { tail, .. } => 64 + 16 * tail.len(),
            PeerMsg::CohortChange { cohort, .. } => 96 + 4 * cohort.len(),
            PeerMsg::JoinRange { .. } => 128,
            PeerMsg::Ack { .. }
            | PeerMsg::Commit { .. }
            | PeerMsg::CatchupReq { .. }
            | PeerMsg::CaughtUp { .. }
            | PeerMsg::MergeProposal { .. }
            | PeerMsg::MergeReady { .. }
            | PeerMsg::MergeAbort { .. }
            | PeerMsg::Merge { .. }
            | PeerMsg::Split { .. } => 64,
        }
    }
}

/// Timer kinds a node arms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerKind {
    /// Send the periodic commit message (the *commit period*, §5).
    CommitPeriod,
    /// Heartbeat the coordination service session.
    Heartbeat,
    /// Re-check election progress (guards against missed watch races).
    ElectionRetry,
    /// Periodic memtable flush / compaction check.
    Maintenance,
}

/// Everything a node can receive from its hosting runtime.
#[derive(Clone, Debug)]
pub enum NodeInput {
    /// Bring the node up: open the coordination session, run local
    /// recovery, trigger elections.
    Start,
    /// A peer protocol message.
    Peer {
        /// Sending node.
        from: NodeId,
        /// The message.
        msg: PeerMsg,
    },
    /// A client RPC (any [`ClientOp`]: read, write, or scan).
    Client {
        /// Address to reply to.
        from: Addr,
        /// The request envelope.
        req: ClientRequest,
    },
    /// The log device finished a sync covering these force tokens.
    LogForced {
        /// Completed force tokens (issued via [`Effect::ForceLog`]).
        tokens: Vec<u64>,
    },
    /// A timer armed earlier fired.
    Timer(TimerKind),
    /// A coordination-service watch event for this node's session.
    Coord(WatchEvent),
    /// Administrative request: split `range` so that `at` becomes the
    /// first key of the new right-hand child. Only the range's current
    /// leader acts on it; every other node ignores it, so harnesses may
    /// broadcast.
    SplitRange {
        /// The range to split.
        range: RangeId,
        /// First key of the right child (must be strictly inside the
        /// range).
        at: Key,
    },
    /// Administrative request: move `range`'s replica from node `from` to
    /// node `to` (the joiner catches up from empty, then a CAS cohort
    /// swap). Only the range's current leader acts on it, so harnesses
    /// may broadcast.
    MoveReplica {
        /// The range whose cohort changes.
        range: RangeId,
        /// The departing replica (must be in the cohort).
        from: NodeId,
        /// The joining node (must not be in the cohort).
        to: NodeId,
    },
    /// Administrative request: merge the adjacent ranges `left` and
    /// `right` (which must share a replica set) back into one. Only the
    /// left range's current leader acts on it, so harnesses may
    /// broadcast.
    MergeRanges {
        /// The left sibling (its leader coordinates).
        left: RangeId,
        /// The right sibling.
        right: RangeId,
    },
}

/// Effects a node asks its runtime to carry out.
#[derive(Clone, Debug)]
pub enum Effect {
    /// Send a peer message to another node.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: PeerMsg,
    },
    /// Reply to a client.
    Reply {
        /// Client address from the triggering input.
        to: Addr,
        /// The reply.
        reply: ClientReply,
    },
    /// Request a log force; completion arrives as
    /// [`NodeInput::LogForced`] with the token.
    ForceLog {
        /// Token to hand back on completion.
        token: u64,
        /// Bytes appended since the previous force request (for the disk
        /// model's transfer-time accounting).
        bytes: u64,
    },
    /// Arm a timer.
    SetTimer {
        /// Which timer.
        kind: TimerKind,
        /// Delay in nanoseconds of virtual time.
        after: u64,
    },
}

/// Collected effects of one input (the node's "outbox").
#[derive(Default, Debug)]
pub struct Outbox {
    /// Effects in emission order.
    pub effects: Vec<Effect>,
    /// The token list of a [`NodeInput::LogForced`], emptied: a host
    /// hands it back to the log device that filled it, so the next
    /// batch of force requests reuses its storage.
    pub spent_tokens: Vec<u64>,
}

impl Outbox {
    /// Queue a peer send.
    pub fn send(&mut self, to: NodeId, msg: PeerMsg) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Queue a client reply.
    pub fn reply(&mut self, to: Addr, reply: ClientReply) {
        self.effects.push(Effect::Reply { to, reply });
    }

    /// Queue a force request.
    pub fn force_log(&mut self, token: u64, bytes: u64) {
        self.effects.push(Effect::ForceLog { token, bytes });
    }

    /// Queue a timer.
    pub fn set_timer(&mut self, kind: TimerKind, after: u64) {
        self.effects.push(Effect::SetTimer { kind, after });
    }
}
