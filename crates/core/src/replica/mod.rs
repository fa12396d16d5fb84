//! The per-range replica runtime.
//!
//! A [`RangeReplica`] owns everything one node keeps for one replicated
//! key range: its role, epoch, LSM store handle, commit queue, takeover
//! and catch-up progress, barrier state for splits/merges, and in-flight
//! cohort-movement bookkeeping. Every per-range protocol transition is a
//! method of it, one file per phase of the protocol:
//!
//! - `steady` — the write path (Fig. 4, §5): a client write, the group
//!   propose, acks, commit and the commit note;
//! - `recovery` — election (Fig. 7), takeover (Fig. 6), and follower
//!   catch-up with logical truncation (§6.1);
//! - `reads` — the consistency gate, snapshot safe points, closed
//!   timestamps, pins, gets and scans;
//! - `maintenance` — flush, compaction and the GC floor.
//!
//! The [`crate::node::Node`] is a thin runtime that owns the shared WAL,
//! the coordination session and a `RangeId → RangeReplica` registry and
//! dispatches inputs to the right replica; [`crate::reconfig`] replaces
//! replicas by other replicas (splits, merges, cohort movement).
//!
//! Replica methods borrow the node-wide facilities through a `Runtime`
//! context (shared log, coordination client, range table, force tracker,
//! current virtual time), which is what lets the registry and the shared
//! state live side by side without aliasing.

mod maintenance;
mod reads;
mod recovery;
mod steady;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use spinnaker_common::{Epoch, Key, Lsn, NodeId, RangeId, Result, WriteOp};
use spinnaker_storage::RangeStore;
use spinnaker_wal::Wal;

use crate::commit_queue::CommitQueue;
use crate::coordcli::CoordClient;
use crate::messages::{Addr, ClientRequest, Outbox};
use crate::node::NodeConfig;
use crate::partition::Ring;

pub use recovery::CATCHUP_PARK_GROUPS;
use recovery::{Parked, Takeover};

/// Role of this replica within its cohort.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Not participating (crashed or before `Start`).
    Offline,
    /// Running leader election (Fig. 7).
    Electing,
    /// Synchronizing with the leader (§6.1 catch-up phase).
    CatchingUp,
    /// Serving as follower.
    Follower,
    /// Won the election; executing leader takeover (Fig. 6).
    LeaderTakeover,
    /// Serving as leader: open for reads and writes.
    Leader,
}

impl Role {
    /// True for a leader, settled or still taking over: the roles that
    /// count acks, commit, and serve catch-up.
    pub(crate) fn leads(self) -> bool {
        matches!(self, Role::Leader | Role::LeaderTakeover)
    }
}

/// Why a force was requested; resolved on `LogForced`.
pub(crate) enum Waiter {
    /// Leader's own force of a proposed write.
    LeaderWrite {
        /// Cohort.
        range: RangeId,
        /// The write's LSN.
        lsn: Lsn,
    },
    /// Follower's force of a propose; ack the leader when durable.
    FollowerWrite {
        /// Cohort.
        range: RangeId,
        /// The write's LSN.
        lsn: Lsn,
        /// Leader to ack.
        leader: NodeId,
    },
    /// Catch-up records were appended, or a takeover's tail vouched
    /// for; confirm `CaughtUp` when durable.
    CatchupDone {
        /// Cohort.
        range: RangeId,
        /// The epoch of the leader whose reply this confirms.
        epoch: Epoch,
        /// Caught up to this LSN.
        up_to: Lsn,
        /// The end of the vouched prefix of the leader's tail.
        held: Lsn,
        /// Leader to confirm to.
        leader: NodeId,
    },
}

/// Force-token bookkeeping shared by every replica on a node: appended
/// bytes accumulate until a force is requested; completions resolve to
/// the [`Waiter`] that asked.
#[derive(Default)]
pub(crate) struct ForceTracker {
    waiters: BTreeMap<u64, Waiter>,
    next_token: u64,
    unforced_bytes: u64,
}

impl ForceTracker {
    pub(crate) fn new() -> ForceTracker {
        ForceTracker { waiters: BTreeMap::new(), next_token: 1, unforced_bytes: 0 }
    }

    /// Account bytes appended to the shared log since the last force.
    pub(crate) fn add_bytes(&mut self, bytes: u64) {
        self.unforced_bytes += bytes;
    }

    /// Request a force covering everything appended so far.
    pub(crate) fn request(&mut self, waiter: Waiter, out: &mut Outbox) {
        let token = self.next_token;
        self.next_token += 1;
        self.waiters.insert(token, waiter);
        out.force_log(token, std::mem::take(&mut self.unforced_bytes));
    }

    /// Resolve a completed force token.
    pub(crate) fn take(&mut self, token: u64) -> Option<Waiter> {
        self.waiters.remove(&token)
    }
}

/// Node-wide facilities a replica borrows for the duration of one input.
pub(crate) struct Runtime<'a> {
    /// This node's id.
    pub id: NodeId,
    /// Virtual time of the input being processed. Feeds the hybrid
    /// commit-timestamp clock (`max(now, last_ts + 1)`) and the
    /// snapshot-read safe point.
    pub now: u64,
    /// Node tuning knobs.
    pub cfg: &'a NodeConfig,
    /// The range table the node currently routes with.
    pub ring: &'a Ring,
    /// The shared write-ahead log.
    pub wal: &'a mut Wal,
    /// The coordination-service session.
    pub coord: &'a CoordClient,
    /// Force-token bookkeeping.
    pub forces: &'a mut ForceTracker,
    /// Fail-stop latch on the owning node: set when the log device
    /// refuses an append whose durability a protocol step depends on.
    /// The host crashes the node back to its synced prefix. A `Cell`, so
    /// [`Runtime::fail_stop`] can latch it while the log is borrowed.
    pub poisoned: &'a Cell<bool>,
}

impl Runtime<'_> {
    /// Fail-stop on a log or store error a protocol step cannot work
    /// around: `None` latches the node's poison, and the host crashes it
    /// back to its synced prefix. The step in flight ends unanswered and
    /// unacknowledged — an empty row or version 0 for a read the store
    /// could not serve would be a lie a conditional put then builds on,
    /// an ack for a group the log refused would vouch for a hole — and
    /// the cohort elects a replica that can read and log its copy.
    pub(crate) fn fail_stop<T>(&self, result: Result<T>) -> Option<T> {
        if result.is_err() {
            self.poisoned.set(true);
        }
        result.ok()
    }
}

/// Cross-replica consequences of a per-replica transition, handed back to
/// the node runtime (which owns the lifecycle operations they trigger).
#[derive(Default)]
pub(crate) struct FollowUp {
    /// Writes unblocked by the transition; the node re-routes and
    /// re-dispatches them (the table may have moved meanwhile).
    pub redispatch: Vec<(Addr, ClientRequest)>,
    /// A split/merge barrier drained: the node executes the pending
    /// split or advances the pending merge.
    pub barrier_ready: bool,
    /// The cohort-movement target confirmed it is durably caught up: the
    /// node commits the new replica set.
    pub move_target_caught_up: bool,
}

impl FollowUp {
    fn merge_from(&mut self, other: FollowUp) {
        self.redispatch.extend(other.redispatch);
        self.barrier_ready |= other.barrier_ready;
        self.move_target_caught_up |= other.move_target_caught_up;
    }
}

/// A group propose: the first write's LSN and the writes, op `i` at
/// `first + i`.
type Group = (Lsn, Arc<[WriteOp]>);

/// An in-flight cohort movement, tracked by the range's leader.
pub(crate) struct MoveState {
    /// The departing replica.
    pub(crate) from: NodeId,
    /// The joining node (a learner until the commit CAS: its acks never
    /// count toward the old cohort's quorum).
    pub(crate) to: NodeId,
    /// When the move started (abort timeout).
    pub(crate) since: u64,
    /// A departing *leader* drains its commit queue before handing off
    /// (a barrier, like a split's); true once the drain is armed.
    pub(crate) draining: bool,
    /// The learner's confirmed durable prefix: its catch-up point and
    /// its acks since. A departing leader hands off only once it reaches
    /// the drained barrier.
    pub(crate) held: Lsn,
}

/// An in-flight range merge, tracked on both siblings' leaders.
pub(crate) struct Merging {
    /// The other sibling of the merge.
    pub(crate) sibling: RangeId,
    /// True on the left sibling's leader (the coordinator), false on the
    /// right sibling's leader (the subordinate barrier).
    pub(crate) coordinator: bool,
    /// Coordinator only: the right sibling's drained barrier, once its
    /// leader announced `MergeReady`.
    pub(crate) sibling_barrier: Option<Lsn>,
    /// Subordinate only: the coordinator to answer with `MergeReady`.
    pub(crate) requester: NodeId,
    /// Subordinate only: whether `MergeReady` was already sent.
    pub(crate) announced: bool,
    /// When the merge started (abort timeout).
    pub(crate) since: u64,
    /// Attempt token correlating `MergeProposal` and `MergeReady`: a
    /// stale readiness from an earlier aborted attempt never satisfies
    /// a newer one.
    pub(crate) token: u64,
}

/// Everything one node keeps for one replicated key range.
pub struct RangeReplica {
    pub(crate) range: RangeId,
    pub(crate) peers: Vec<NodeId>,
    pub(crate) store: RangeStore,
    pub(crate) cq: CommitQueue,
    pub(crate) role: Role,
    pub(crate) epoch: Epoch,
    pub(crate) leader: Option<NodeId>,
    /// Leader: sequence number of the last assigned LSN.
    pub(crate) last_assigned: Lsn,
    /// Leader: highest commit timestamp assigned to a write of this
    /// range. The hybrid clock — `max(now, last_ts + 1, served_ts + 1)`
    /// — keeps timestamps strictly increasing in LSN order (the MVCC
    /// visibility invariant) while tracking real time closely enough
    /// that timestamps are comparable across ranges.
    pub(crate) last_ts: u64,
    /// Leader: highest snapshot timestamp this replica has served (or
    /// pinned) a read at. Future commit timestamps must exceed it, or a
    /// pinned cut could grow new writes after being read.
    pub(crate) served_ts: u64,
    pub(crate) last_committed: Lsn,
    /// Last commit-note LSN logged (so idle periods log nothing new).
    pub(crate) last_note: Lsn,
    pub(crate) candidate_path: Option<String>,
    /// The cohort's epoch when this replica last entered an election:
    /// candidacies from before it are left over from earlier rounds.
    pub(crate) round: Epoch,
    pub(crate) takeover: Option<Takeover>,
    /// Client writes buffered while takeover runs or while a split/merge
    /// drains the commit queue toward its barrier.
    pub(crate) blocked_writes: Vec<(Addr, ClientRequest)>,
    /// Leader only: conditional-write rejections whose observed version
    /// belongs to a **pending** (uncommitted) write. The failure reply is
    /// held until that LSN commits — releasing it earlier would leak
    /// uncommitted state to the client (the client would learn the column
    /// changed before any strong read can observe the change, breaking
    /// linearizability; and if the pending write were lost to a leader
    /// change, the client would have observed a write that never
    /// happened). Entries: (dependency LSN, client, request id, actual).
    pub(crate) deferred_mismatches: Vec<(Lsn, Addr, u64, u64)>,
    /// Leader only: a split at this key waits for the queue to drain.
    pub(crate) splitting: Option<Key>,
    /// Leader only: a merge with a sibling waits for the queue to drain.
    pub(crate) merging: Option<Merging>,
    /// Leader only: a cohort movement in flight.
    pub(crate) moving: Option<MoveState>,
    /// Key bounds this replica covers, captured at creation. The table
    /// may move further (chained splits, merges) while we lag; the span
    /// bounds which current ranges can legitimately be derived from this
    /// replica's local state.
    pub(crate) span: (Key, Option<Key>),
    /// Leader: the LSNs of writes assigned and queued while a propose
    /// flush's force was in flight — the accumulating **group propose**,
    /// the commit queue's tail. Drained into one log record / one
    /// consensus round when the force completes (or the batch cap is hit).
    pub(crate) unproposed: Vec<Lsn>,
    /// Leader: a propose flush's log force is in flight; new writes
    /// accumulate into `unproposed` until it completes.
    pub(crate) proposing: bool,
    /// Leader: the newest LSN proposed when the last commit message went
    /// out; the next one names it (`PeerMsg::Commit::sent`).
    pub(crate) proposed_at_tick: Lsn,
    /// Follower: highest **closed timestamp** adopted from the leader.
    /// The leader promises never to commit another write at or below it,
    /// so — having applied everything the promise covers — this replica
    /// can serve snapshot reads at or below it without a leader bounce.
    pub(crate) closed_ts: u64,
    /// Snapshot pages (gets and scan pages) this replica has served, in
    /// any role — the observable behind the follower-read experiments.
    pub(crate) snapshot_pages: u64,
    /// Active snapshot-read pins: pinned timestamp → lease expiry.
    /// Serving a page at a timestamp registers/renews its lease; the
    /// maintenance tick prunes expired entries and holds the GC floor
    /// at the oldest live pin, so a long scan that keeps reading never
    /// loses its cut to the blanket retention window.
    pub(crate) pins: BTreeMap<u64, u64>,
    /// Follower: when the catch-up request still awaiting its reply was
    /// sent, and in which epoch (`None`: none outstanding). One request
    /// is answered with the whole committed history, so another is sent
    /// only once this one has gone [`crate::node::ELECTION_RETRY`]
    /// unanswered.
    pub(crate) catchup_asked: Option<(u64, Epoch)>,
    /// Catch-up requests this replica has sent — the observable behind
    /// the request-storm regression test.
    pub(crate) catchup_requests: u64,
    /// Follower: proposes that arrived past the frontier while catching
    /// up, by first LSN; replayed through [`Self::on_propose`] once the
    /// catch-up reply is ingested. At most [`CATCHUP_PARK_GROUPS`].
    pub(crate) parked: BTreeMap<Lsn, Parked>,
}

impl RangeReplica {
    /// A fresh, offline replica (attach it, then join its cohort).
    pub(crate) fn new(
        range: RangeId,
        store: RangeStore,
        peers: Vec<NodeId>,
        span: (Key, Option<Key>),
    ) -> RangeReplica {
        RangeReplica {
            range,
            peers,
            store,
            span,
            cq: CommitQueue::new(),
            role: Role::Offline,
            epoch: 0,
            leader: None,
            last_assigned: Lsn::ZERO,
            last_ts: 0,
            served_ts: 0,
            last_committed: Lsn::ZERO,
            last_note: Lsn::ZERO,
            candidate_path: None,
            round: 0,
            takeover: None,
            blocked_writes: Vec::new(),
            deferred_mismatches: Vec::new(),
            splitting: None,
            merging: None,
            moving: None,
            unproposed: Vec::new(),
            proposing: false,
            proposed_at_tick: Lsn::ZERO,
            closed_ts: 0,
            snapshot_pages: 0,
            pins: BTreeMap::new(),
            catchup_asked: None,
            catchup_requests: 0,
            parked: BTreeMap::new(),
        }
    }

    /// True when this replica may start a barrier or a move: it leads,
    /// settled, with no other reconfiguration in flight.
    pub(crate) fn may_barrier(&self) -> bool {
        self.role == Role::Leader
            && !self.barrier_pending()
            && self.moving.is_none()
            && self.takeover.is_none()
    }

    /// The highest timestamp this replica assigned to a write or served
    /// a snapshot at: a replica that takes over its keys must stamp
    /// above it, or a cut already read could grow a write.
    pub(crate) fn clock(&self) -> u64 {
        self.last_ts.max(self.served_ts)
    }

    /// Take in a predecessor leader's [`Self::clock`]: whoever leads
    /// what this replica becomes stamps above it.
    pub(crate) fn adopt_clock(&mut self, clock: u64) {
        self.served_ts = self.served_ts.max(clock);
    }

    /// True while a barrier (split, merge, or a departing leader's
    /// hand-off drain) is draining the queue.
    pub(crate) fn barrier_pending(&self) -> bool {
        self.splitting.is_some()
            || self.merging.is_some()
            || self.moving.as_ref().is_some_and(|m| m.draining)
    }

    /// One line of protocol state, for a stall report: what a range
    /// that stopped making progress is waiting on. `log_tip` is the last
    /// LSN this node logged for the range.
    pub(crate) fn describe(&self, log_tip: Lsn) -> String {
        let queue = self.cq.span().map_or_else(|| "-".to_owned(), |(a, b)| format!("{a}..{b}"));
        let merging = self.merging.as_ref().map(|m| {
            let side = if m.coordinator { "coordinator" } else { "subordinate" };
            format!("{side} with {} (ready {:?})", m.sibling, m.sibling_barrier)
        });
        let moving = self
            .moving
            .as_ref()
            .map(|m| format!("{}->{}{}", m.from, m.to, if m.draining { " draining" } else { "" }));
        let parked = match (self.parked.first_key_value(), self.parked.last_key_value()) {
            (Some((first, _)), Some((last, _))) => {
                format!("{} from {first} to {last}", self.parked.len())
            }
            _ => "0".to_owned(),
        };
        format!(
            "{} {:?} epoch={} leader={:?} committed={} log_tip={log_tip} queue={queue} \
             ({} pending, {} unproposed) blocked={} deferred={} split={:?} merge={merging:?} \
             move={moving:?} takeover={:?} catchup_asked={:?} parked={parked}",
            self.range,
            self.role,
            self.epoch,
            self.leader,
            self.last_committed,
            self.cq.len(),
            self.unproposed.len(),
            self.blocked_writes.len(),
            self.deferred_mismatches.len(),
            self.splitting,
            self.takeover.as_ref().map(Takeover::describe),
            self.catchup_asked,
        )
    }
}

/// The LSN of the last write of the non-empty group `ops` starting at
/// `first`.
fn group_last(first: Lsn, ops: &[WriteOp]) -> Lsn {
    Lsn::new(first.epoch(), first.seq() + ops.len() as u64 - 1)
}

/// The part of `group` past `lsn`: all of it, a copy of a suffix, or
/// nothing.
fn group_past((first, ops): &Group, lsn: Lsn) -> Option<Group> {
    if lsn < *first {
        Some((*first, ops.clone()))
    } else if lsn < group_last(*first, ops) {
        // `first <= lsn < last` puts all three in one epoch.
        let held = (lsn.seq() + 1 - first.seq()) as usize;
        Some((lsn.next(), Arc::from(&ops[held..])))
    } else {
        None
    }
}

pub(crate) fn parse_node(data: &[u8]) -> NodeId {
    std::str::from_utf8(data).ok().and_then(|s| s.trim().parse().ok()).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;

    use super::recovery::{cut_groups, REPROPOSE_GROUP_OPS};
    use super::*;
    use crate::commit_queue::{PendingOp, PendingWrite};

    fn cut(lsns: impl IntoIterator<Item = (Epoch, u64)>, value: usize) -> Vec<(Lsn, usize)> {
        let value = Bytes::from(vec![b'v'; value]);
        let writes: Vec<PendingWrite> = lsns
            .into_iter()
            .map(|(epoch, seq)| PendingWrite {
                lsn: Lsn::new(epoch, seq),
                op: PendingOp::Own(WriteOp::put(Key::from("k"), Bytes::new(), value.clone(), 0)),
            })
            .collect();
        cut_groups(&writes)
    }

    #[test]
    fn runs_end_at_epoch_boundaries_holes_and_caps() {
        assert_eq!(cut([], 1), vec![]);
        // Same epoch, consecutive: one group.
        assert_eq!(cut((5..=9).map(|s| (1, s)), 1), vec![(Lsn::new(1, 5), 5)]);
        // An epoch boundary (dense sequence numbers across it) and a
        // missing LSN (logically truncated) each end a run.
        let lsns = [(1, 5), (1, 6), (2, 7), (2, 8), (2, 10)];
        assert_eq!(
            cut(lsns, 1),
            vec![(Lsn::new(1, 5), 2), (Lsn::new(2, 7), 2), (Lsn::new(2, 10), 1)]
        );
        // The op cap.
        let n = 2 * REPROPOSE_GROUP_OPS as u64 + 3;
        assert_eq!(
            cut((1..=n).map(|s| (1, s)), 1),
            vec![
                (Lsn::new(1, 1), REPROPOSE_GROUP_OPS),
                (Lsn::new(1, 1 + REPROPOSE_GROUP_OPS as u64), REPROPOSE_GROUP_OPS),
                (Lsn::new(1, 1 + 2 * REPROPOSE_GROUP_OPS as u64), 3),
            ]
        );
        // The byte cap: values of 0.4 MiB go two to a group, and one
        // larger than the cap still travels (alone).
        let groups = cut((1..=5).map(|s| (1, s)), 400 << 10);
        assert_eq!(groups.iter().map(|g| g.1).collect::<Vec<_>>(), vec![2, 2, 1]);
        let oversized = vec![(Lsn::new(1, 1), 1), (Lsn::new(1, 2), 1)];
        assert_eq!(cut((1..=2).map(|s| (1, s)), 2 << 20), oversized);
    }
}
