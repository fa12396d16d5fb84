//! The per-range replica runtime.
//!
//! A [`RangeReplica`] owns everything one node keeps for one replicated
//! key range: its role, epoch, LSM store handle, commit queue, takeover
//! and catch-up progress, barrier state for splits/merges, and in-flight
//! cohort-movement bookkeeping. Every per-range protocol transition —
//! election (Fig. 7), takeover (Fig. 6), steady-state replication
//! (Fig. 4), catch-up (§6.1) — is a method here; the [`crate::node::Node`]
//! is a thin runtime that owns the shared WAL, the coordination session
//! and a `RangeId → RangeReplica` registry and dispatches inputs to the
//! right replica; [`crate::reconfig`] replaces replicas by other
//! replicas (splits, merges, cohort movement).
//!
//! Replica methods borrow the node-wide facilities through a `Runtime`
//! context (shared log, coordination client, range table, force tracker,
//! current virtual time), which is what lets the registry and the shared
//! state live side by side without aliasing.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use spinnaker_common::{
    CellOp, Consistency, Epoch, Key, Lsn, NodeId, RangeId, SnapshotTs, WriteOp,
};
use spinnaker_storage::RangeStore;
use spinnaker_wal::{LogRecord, Wal};

use crate::commit_queue::{CommitQueue, PendingOp, PendingWrite};
use crate::coordcli::CoordClient;
use crate::messages::{
    Addr, ClientError, ClientOp, ClientReply, ClientRequest, ColumnSelect, Outbox, PeerMsg,
    ReadCell, RequestId, ScanRow,
};
use crate::node::{CohortPaths, NodeConfig, ELECTION_RETRY};
use crate::partition::Ring;

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
    /// Catch-up records were appended; confirm `CaughtUp` when durable.
    CatchupDone {
        /// Cohort.
        range: RangeId,
        /// Caught up to this LSN.
        up_to: Lsn,
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
    /// The host crashes the node back to its synced prefix.
    pub poisoned: &'a mut bool,
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

/// Most writes one re-proposed group carries: a round costs a link trip
/// and a follower force whatever rides it, and 64 one-KB puts are still a
/// small frame next to an 8 MiB log segment.
const REPROPOSE_GROUP_OPS: usize = 64;
/// Most bytes one re-proposed group carries: 64 large values must not add
/// up to a frame the log refuses (`MAX_RECORD_BYTES`, 64 MiB).
const REPROPOSE_GROUP_BYTES: usize = 1 << 20;
/// Full re-proposed groups kept in flight during takeover: enough to
/// overlap the link trip with the followers' forces.
const REPROPOSE_WINDOW: usize = 4;
/// What a commit note adds to the bytes the next force is charged for.
const NOTE_BYTES: u64 = 24;
/// Most proposes a catching-up follower parks: a reply of several MB is
/// on the wire for tens of milliseconds, a few hundred group proposes on
/// a busy range. Past it the oldest (the likeliest to be covered by the
/// reply) is dropped; the hole costs one more request.
pub const CATCHUP_PARK_GROUPS: usize = 1024;

/// Cuts writes arriving in LSN order into [`Group`]s: a run ends where
/// the next LSN is not its successor in the same epoch (an epoch
/// boundary, or a logically truncated LSN missing from the log) and at
/// the op and byte caps.
#[derive(Default)]
struct RunCutter {
    groups: Vec<Group>,
    first: Lsn,
    run: Vec<WriteOp>,
    bytes: usize,
}

impl RunCutter {
    fn push(&mut self, lsn: Lsn, op: WriteOp) {
        let size = op.approx_size();
        let continues = lsn.epoch() == self.first.epoch()
            && lsn.seq() == self.first.seq() + self.run.len() as u64
            && self.run.len() < REPROPOSE_GROUP_OPS
            && self.bytes + size <= REPROPOSE_GROUP_BYTES;
        if !continues {
            self.cut();
            self.first = lsn;
        }
        self.run.push(op);
        self.bytes += size;
    }

    fn cut(&mut self) {
        if !self.run.is_empty() {
            self.groups.push((self.first, self.run.drain(..).collect()));
            self.bytes = 0;
        }
    }

    fn finish(mut self) -> Vec<Group> {
        self.cut();
        self.groups
    }
}

/// Leader-takeover progress (Fig. 6).
pub(crate) struct Takeover {
    pub(crate) caught_up: BTreeSet<NodeId>,
    /// Unresolved writes `(l.cmt, l.lst]`, cut into groups and
    /// re-proposed through the normal replication protocol (Fig. 6
    /// line 9).
    pub(crate) repropose: VecDeque<Group>,
    pub(crate) reproposing: bool,
}

/// A propose a follower could not log yet (it starts past the follower's
/// frontier), kept until catch-up closes the gap.
pub(crate) struct Parked {
    from: NodeId,
    epoch: Epoch,
    ops: Arc<[WriteOp]>,
    committed: Lsn,
    closed_ts: u64,
}

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
    /// Operations observed since the last maintenance sample (leader
    /// writes + strong reads, follower proposes) — the load statistic
    /// behind automatic split/merge triggers.
    pub(crate) ops_since_sample: u64,
    /// Virtual time of the last maintenance sample.
    pub(crate) last_sample_at: u64,
    /// Number of maintenance samples taken since attach (hysteresis: no
    /// automatic resharding before the statistics settle).
    pub(crate) samples: u64,
    /// Leader: the LSNs of writes assigned and queued while a propose
    /// flush's force was in flight — the accumulating **group propose**,
    /// the commit queue's tail. Drained into one log record / one
    /// consensus round when the force completes (or the batch cap is hit).
    pub(crate) unproposed: Vec<Lsn>,
    /// Leader: a propose flush's log force is in flight; new writes
    /// accumulate into `unproposed` until it completes.
    pub(crate) proposing: bool,
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
    /// sent (`None`: none outstanding). One request is answered with the
    /// whole committed history, so another is sent only once this one
    /// has gone [`ELECTION_RETRY`] unanswered.
    pub(crate) catchup_asked: Option<u64>,
    /// Catch-up requests this replica has sent — the observable behind
    /// the request-storm regression test.
    pub(crate) catchup_requests: u64,
    /// Follower: proposes that arrived past the frontier while catching
    /// up, by first LSN; replayed through [`Self::on_propose`] once the
    /// catch-up reply is ingested. At most [`CATCHUP_PARK_GROUPS`].
    pub(crate) parked: BTreeMap<Lsn, Parked>,
}

/// What the load/size statistics recommend for a range (sampled on the
/// maintenance tick when a reshard policy is configured).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ReshardAdvice {
    /// Nothing to do.
    None,
    /// Hot or oversized: split at the store's median key.
    Split,
    /// Cold and small: merge with the right-hand neighbour if eligible.
    MergeRight,
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
            takeover: None,
            blocked_writes: Vec::new(),
            deferred_mismatches: Vec::new(),
            splitting: None,
            merging: None,
            moving: None,
            ops_since_sample: 0,
            last_sample_at: 0,
            samples: 0,
            unproposed: Vec::new(),
            proposing: false,
            closed_ts: 0,
            snapshot_pages: 0,
            pins: BTreeMap::new(),
            catchup_asked: None,
            catchup_requests: 0,
            parked: BTreeMap::new(),
        }
    }

    /// Register (or renew) a pin lease on snapshot timestamp `ts`: the
    /// GC floor will not pass `ts` until the lease expires un-renewed.
    fn note_pin(&mut self, rt: &Runtime<'_>, ts: u64) {
        if rt.cfg.pin_lease == 0 {
            return;
        }
        let expiry = rt.now.saturating_add(rt.cfg.pin_lease);
        let e = self.pins.entry(ts).or_insert(expiry);
        *e = (*e).max(expiry);
    }

    /// Snapshot pages this replica has served so far (any role).
    pub fn snapshot_pages(&self) -> u64 {
        self.snapshot_pages
    }

    /// True when this replica may start a barrier or a move: it leads,
    /// settled, with no other reconfiguration in flight.
    pub(crate) fn may_barrier(&self) -> bool {
        self.role == Role::Leader
            && !self.barrier_pending()
            && self.moving.is_none()
            && self.takeover.is_none()
    }

    /// True while a barrier (split, merge, or a departing leader's
    /// hand-off drain) is draining the queue.
    pub(crate) fn barrier_pending(&self) -> bool {
        self.splitting.is_some()
            || self.merging.is_some()
            || self.moving.as_ref().is_some_and(|m| m.draining)
    }

    // =================================================================
    // leader election (Fig. 7)
    // =================================================================

    /// Register our candidacy and evaluate the round. The node runtime
    /// guarantees the range is still in the table and we are (or are
    /// becoming) a cohort member before calling.
    pub(crate) fn start_election(&mut self, rt: &mut Runtime<'_>, out: &mut Outbox) {
        let paths = CohortPaths::new(self.range);
        self.role = Role::Electing;
        self.leader = None;
        self.takeover = None;
        // Fig. 7 line 1: clean up our state from a previous round.
        if let Some(old) = self.candidate_path.take() {
            let _ = rt.coord.delete(&old);
        }
        // Fig. 7 line 4: advertise n.lst in a sequential ephemeral znode.
        let lst = rt.wal.state(self.range).last_lsn;
        let data = format!("{}:{}", rt.id, lst.as_u64());
        match rt
            .coord
            .create_ephemeral_sequential(&format!("{}/c-", paths.candidates), data.into_bytes())
        {
            Ok(path) => self.candidate_path = Some(path),
            Err(_) => {
                // Session trouble; retry via the election timer.
            }
        }
        out.set_timer(crate::messages::TimerKind::ElectionRetry, ELECTION_RETRY);
        self.check_election(rt, out);
    }

    /// Enter an election as an **observer**: watch the candidates without
    /// registering our own candidacy (used for the right child of a split
    /// so the home preference moves leadership to the next cohort
    /// member). The election-retry timer upgrades us to a full candidate
    /// if no quorum materializes.
    pub(crate) fn observe_election(&mut self, rt: &mut Runtime<'_>, out: &mut Outbox) {
        let paths = CohortPaths::new(self.range);
        self.role = Role::Electing;
        self.leader = None;
        let _ = rt.coord.get_children_watch(&paths.candidates);
        out.set_timer(crate::messages::TimerKind::ElectionRetry, ELECTION_RETRY);
        self.check_election(rt, out);
    }

    /// Fig. 7 lines 5-12: wait for a majority of candidates,
    /// deterministic winner = max `n.lst`, znode sequence breaking ties.
    pub(crate) fn check_election(&mut self, rt: &mut Runtime<'_>, out: &mut Outbox) {
        let paths = CohortPaths::new(self.range);
        if self.role != Role::Electing {
            return;
        }
        let Ok(children) = rt.coord.get_children_watch(&paths.candidates) else {
            return;
        };
        // Candidate entries: (lst desc, seq asc) per node id (a node may
        // briefly have a stale entry from an earlier round; keep its best).
        let mut best: std::collections::BTreeMap<NodeId, (u64, u64)> =
            std::collections::BTreeMap::new();
        for child in &children {
            let full = format!("{}/{child}", paths.candidates);
            let Ok((data, stat)) = rt.coord.get_data(&full) else { continue };
            let Some((node, lst)) = parse_candidate(&data) else { continue };
            let seq = stat.sequence.unwrap_or(u64::MAX);
            let entry = best.entry(node).or_insert((lst, seq));
            if lst > entry.0 || (lst == entry.0 && seq < entry.1) {
                *entry = (lst, seq);
            }
        }
        let majority = rt.ring.replication() / 2 + 1;
        if best.len() < majority {
            return; // keep waiting; the child watch will wake us
        }
        // Winner: max lst (the safety requirement — the leader must hold
        // every committed write, §7.2). Ties carry no safety constraint;
        // prefer the range's *home* node so elections realize the
        // balanced one-leader-per-node layout of Fig. 2, falling back to
        // the znode sequence number as the paper specifies.
        let home = rt.ring.home_node(self.range);
        let max_lst = best.values().map(|&(lst, _)| lst).max().expect("non-empty");
        let winner = best
            .iter()
            .filter(|(_, (lst, _))| *lst == max_lst)
            .min_by_key(|(&node, (_, seq))| (node != home, *seq))
            .map(|(&node, _)| node)
            .expect("non-empty");
        if winner == rt.id {
            // Fig. 7 lines 7-9.
            match rt.coord.create_ephemeral(&paths.leader, rt.id.to_string().into_bytes()) {
                Ok(()) => self.begin_takeover(rt, out),
                Err(_) => {
                    // Someone beat us to it; learn them.
                    if let Ok(data) = rt.coord.get_data_watch(&paths.leader) {
                        let leader = parse_node(&data);
                        if leader != rt.id {
                            self.become_follower(rt, leader, out);
                        }
                    }
                }
            }
        } else {
            // Fig. 7 line 11: learn the new leader (it may not have
            // written /r/leader yet; the exists-watch wakes us).
            match rt.coord.get_data_watch(&paths.leader) {
                Ok(data) => {
                    let leader = parse_node(&data);
                    self.become_follower(rt, leader, out);
                }
                Err(_) => {
                    let _ = rt.coord.exists_watch(&paths.leader);
                }
            }
        }
    }

    /// Claim leadership directly (cohort-movement hand-off): the
    /// departing leader drained its queue and committed the cohort swap
    /// naming us its successor, so we hold every committed write. The
    /// old leader's znode is replaced and our takeover runs **in one
    /// synchronous step** — by the time any member's deletion watch
    /// fires, the new leader znode is already in place, so their
    /// elections resolve to us instead of racing.
    pub(crate) fn claim_leadership(&mut self, rt: &mut Runtime<'_>, out: &mut Outbox) {
        let paths = CohortPaths::new(self.range);
        let _ = rt.coord.delete(&paths.leader); // the departed leader's ephemeral
        match rt.coord.create_ephemeral(&paths.leader, rt.id.to_string().into_bytes()) {
            Ok(()) => self.begin_takeover(rt, out),
            Err(_) => {
                // Someone else already took over; follow them.
                if let Ok(data) = rt.coord.get_data_watch(&paths.leader) {
                    let leader = parse_node(&data);
                    if leader != rt.id {
                        self.become_follower(rt, leader, out);
                    }
                }
            }
        }
    }

    // =================================================================
    // leader takeover (Fig. 6)
    // =================================================================

    fn begin_takeover(&mut self, rt: &mut Runtime<'_>, out: &mut Outbox) {
        let st = rt.wal.state(self.range);
        let l_cmt = self.last_committed.max(st.last_committed);
        let l_lst = st.last_lsn;
        // Fig. 6 line 9's input: the unresolved writes (l.cmt, l.lst],
        // read in one pass and cut into the groups they travel in. A tail
        // that cannot be read poisons the node: opening the cohort
        // without it would lose acknowledged writes.
        let mut tail = RunCutter::default();
        if rt.wal.replay(self.range, l_cmt, l_lst, |lsn, op| tail.push(lsn, op.clone())).is_err() {
            *rt.poisoned = true;
            return;
        }
        let repropose: VecDeque<Group> = tail.finish().into();

        let paths = CohortPaths::new(self.range);
        // Bump the epoch in the coordination service before accepting any
        // new writes (Appendix B).
        let old_epoch = rt.coord.read_epoch(&paths.epoch);
        let new_epoch = old_epoch + 1;
        rt.coord.write_epoch(&paths.epoch, new_epoch);

        self.role = Role::LeaderTakeover;
        self.epoch = new_epoch;
        self.leader = Some(rt.id);
        self.cq.clear();
        self.last_committed = l_cmt;
        // Seed the commit-timestamp clock above everything this cohort
        // may already have stamped: applied history (the store) plus the
        // unresolved tail we are about to re-propose (which keeps its
        // original stamps). New writes then get strictly larger
        // timestamps, preserving ts-order == LSN-order across the
        // takeover.
        let tail_ts = repropose
            .iter()
            .flat_map(|(_, ops)| ops.iter())
            .map(|op| op.timestamp)
            .max()
            .unwrap_or(0);
        // `closed_ts` joins the seed: whatever cut we (as a follower)
        // already served locally must stay closed under our leadership —
        // no new write may ever be stamped at or below it.
        self.last_ts = self.last_ts.max(self.store.max_ts()).max(tail_ts).max(self.closed_ts);
        self.served_ts = self.served_ts.max(self.closed_ts);
        self.unproposed.clear();
        self.proposing = false;
        self.takeover =
            Some(Takeover { caught_up: BTreeSet::new(), repropose, reproposing: false });
        self.last_assigned = l_lst;
        let epoch = self.epoch;
        for &peer in &self.peers {
            out.send(peer, PeerMsg::LeaderHello { range: self.range, epoch, leader: rt.id });
        }
        // If we are somehow alone (all peers dead), we must wait: the
        // cohort stays unavailable until a majority participates. The
        // election-retry timer keeps us checking — arm it here too, since
        // a takeover entered by hand-off (claim_leadership) never ran an
        // election and would otherwise have no timer to re-drive it.
        out.set_timer(crate::messages::TimerKind::ElectionRetry, ELECTION_RETRY);
    }

    /// Fig. 6 lines 8-10. Once a follower has caught up, the unresolved
    /// tail goes back through the normal replication protocol **in
    /// groups**: each run [`RunCutter`] cut is one propose — one batch
    /// frame, one force and one cumulative ack at every follower, the
    /// shape [`Self::flush_proposals`] gives a steady-state group — with
    /// at most [`REPROPOSE_WINDOW`] full groups in flight. The records
    /// are already durable in our own log, so the queue entries start
    /// out self-forced. When the last one commits the cohort opens.
    pub(crate) fn maybe_finish_takeover(
        &mut self,
        rt: &mut Runtime<'_>,
        out: &mut Outbox,
    ) -> FollowUp {
        let mut fu = FollowUp::default();
        // Fig. 6 line 8: wait until at least one follower caught up.
        if self.takeover.as_ref().is_none_or(|t| t.caught_up.is_empty()) {
            return fu;
        }
        let mut sent_any = false;
        while self.cq.len() <= (REPROPOSE_WINDOW - 1) * REPROPOSE_GROUP_OPS {
            let t = self.takeover.as_mut().expect("still in takeover");
            let Some(group) = t.repropose.pop_front() else { break };
            t.reproposing = true;
            self.queue_group(&group, true);
            // Mid-takeover the cohort is resyncing; closed timestamps
            // resume with steady-state traffic.
            self.send_group(rt, &self.peers, &group, 0, out);
            sent_any = true;
        }
        let t = self.takeover.as_ref().expect("still in takeover");
        if sent_any || (t.reproposing && !self.cq.is_empty()) {
            return fu; // in-flight re-proposals have not all committed yet
        }
        // Fig. 6 line 10: open the cohort for writes. New LSNs are
        // (new_epoch, seq) with seq continuing past l.lst, so every new
        // LSN exceeds every LSN previously used in the cohort.
        let epoch = self.epoch;
        let t = self.takeover.take().expect("still in takeover");
        self.role = Role::Leader;
        self.last_assigned = Lsn::new(epoch, self.last_assigned.seq());
        // Open with a commit when a tail was re-proposed: the followers
        // hold it queued, and their committed watermark is what vouches
        // for a log across the epoch boundary the next propose crosses —
        // left a commit period stale, it would send them back to fetch
        // the tail they just acknowledged. Only the followers that caught
        // up in this epoch get it: only their queues are known to hold
        // our re-proposals and nothing else.
        if t.reproposing {
            let lsn = self.last_committed;
            for &peer in &t.caught_up {
                out.send(peer, PeerMsg::Commit { range: self.range, epoch, lsn, closed_ts: 0 });
            }
        }
        fu.redispatch = std::mem::take(&mut self.blocked_writes);
        fu
    }

    /// Queue every write of `group` as pending, sharing its batch.
    fn queue_group(&mut self, (first, ops): &Group, self_forced: bool) {
        for index in 0..ops.len() {
            let pw = PendingWrite {
                lsn: Lsn::new(first.epoch(), first.seq() + index as u64),
                op: PendingOp::Shared { batch: ops.clone(), index },
                client: None,
            };
            self.cq.insert(pw, self_forced);
        }
    }

    /// Send `group` as one propose to each of `to`.
    fn send_group(
        &self,
        rt: &Runtime<'_>,
        to: &[NodeId],
        (first, ops): &Group,
        closed_ts: u64,
        out: &mut Outbox,
    ) {
        let committed = if rt.cfg.piggyback_commits { self.last_committed } else { Lsn::ZERO };
        for &peer in to {
            out.send(
                peer,
                PeerMsg::Propose {
                    range: self.range,
                    epoch: self.epoch,
                    lsn: *first,
                    ops: ops.clone(),
                    committed,
                    closed_ts,
                },
            );
        }
    }

    // =================================================================
    // follower paths
    // =================================================================

    pub(crate) fn become_follower(
        &mut self,
        rt: &mut Runtime<'_>,
        leader: NodeId,
        out: &mut Outbox,
    ) {
        let paths = CohortPaths::new(self.range);
        let epoch = rt.coord.read_epoch(&paths.epoch);
        self.role = Role::CatchingUp;
        self.leader = Some(leader);
        self.epoch = self.epoch.max(epoch);
        self.cq.clear();
        self.unproposed.clear();
        self.proposing = false;
        // Redirect buffered writes; we are not the leader.
        for (from, req) in std::mem::take(&mut self.blocked_writes) {
            out.reply(
                from,
                ClientReply::err(req.req, ClientError::NotLeader { hint: Some(leader) }),
            );
        }
        // Held conditional rejections depended on pending writes we just
        // dropped; their fate is unknown — redirect, the client retries.
        for (_, from, req, _) in std::mem::take(&mut self.deferred_mismatches) {
            out.reply(from, ClientReply::err(req, ClientError::NotLeader { hint: Some(leader) }));
        }
        // A fresh start with this leader: whatever was parked is either
        // in the history it will ship or among the pending writes it
        // re-sends behind that.
        self.parked.clear();
        self.catchup_asked = None;
        self.ask_catchup(rt, leader, out);
    }

    /// Ask `leader` for everything past our committed watermark — unless
    /// a request is already outstanding. The reply carries the whole
    /// committed history and is followed by the leader's pending writes,
    /// so a second request buys nothing while the first can still be
    /// answered; one unanswered for [`ELECTION_RETRY`] is presumed lost.
    fn ask_catchup(&mut self, rt: &Runtime<'_>, leader: NodeId, out: &mut Outbox) {
        if self.catchup_asked.is_some_and(|at| rt.now < at.saturating_add(ELECTION_RETRY)) {
            return;
        }
        self.catchup_asked = Some(rt.now);
        self.catchup_requests += 1;
        out.send(
            leader,
            PeerMsg::CatchupReq { range: self.range, epoch: self.epoch, from: self.last_committed },
        );
    }

    // =================================================================
    // client requests (the node routed them here)
    // =================================================================

    pub(crate) fn on_write(
        &mut self,
        rt: &mut Runtime<'_>,
        from: Addr,
        req: ClientRequest,
        out: &mut Outbox,
    ) {
        match self.role {
            Role::Leader if self.barrier_pending() => {
                // Hold writes while a split/merge drains to its barrier;
                // they re-dispatch (and re-route) once it completes.
                self.blocked_writes.push((from, req));
                return;
            }
            Role::Leader => {}
            Role::LeaderTakeover => {
                self.blocked_writes.push((from, req));
                return;
            }
            Role::Follower | Role::CatchingUp => {
                out.reply(
                    from,
                    ClientReply::err(req.req, ClientError::NotLeader { hint: self.leader }),
                );
                return;
            }
            Role::Electing | Role::Offline => {
                out.reply(from, ClientReply::err(req.req, ClientError::Unavailable));
                return;
            }
        }
        // Reduce the typed op to cell mutations + an optional condition
        // (§5.1: the condition is evaluated here at the leader, so the
        // logged operation is always unconditional).
        let (key, cells, condition) = match req.op {
            ClientOp::Put { key, cells } => (
                key,
                cells.into_iter().map(|(col, value)| CellOp::Put { col, value }).collect(),
                None,
            ),
            ClientOp::Delete { key, columns } => {
                (key, columns.into_iter().map(|col| CellOp::Delete { col }).collect(), None)
            }
            ClientOp::ConditionalPut { key, col, value, expected } => {
                let cond = (col.clone(), expected);
                (key, vec![CellOp::Put { col, value }], Some(cond))
            }
            ClientOp::ConditionalDelete { key, col, expected } => {
                let cond = (col.clone(), expected);
                (key, vec![CellOp::Delete { col }], Some(cond))
            }
            ClientOp::Get { .. } | ClientOp::Scan { .. } => {
                // The node dispatches reads elsewhere; nothing to do.
                return;
            }
        };
        // Conditional check (§5.1) against latest proposed state: pending
        // writes commit in LSN order, so the newest pending version is
        // the version the condition must match. A tombstone's version
        // counts — a deleted column is *not* the same as one that was
        // never written (expected == 0 matches only the latter).
        if let Some((col, expected)) = &condition {
            let pending = self.cq.latest_pending_version(&key, col);
            let actual = match pending {
                Some(v) => v,
                None => match self.store.get_column(&key, col) {
                    Ok(cv) => cv.map_or(0, |cv| cv.version),
                    Err(_) => return Self::store_unreadable(rt),
                },
            };
            if actual != *expected {
                match pending {
                    // The observed version is still uncommitted: hold the
                    // rejection until its LSN commits. Replying now would
                    // leak uncommitted state — the client would learn the
                    // column changed before any strong read can see the
                    // change (and before the write is even durable).
                    Some(v) => {
                        self.deferred_mismatches.push((Lsn::from_u64(v), from, req.req, actual));
                    }
                    None => out.reply(
                        from,
                        ClientReply::err(req.req, ClientError::VersionMismatch { actual }),
                    ),
                }
                return;
            }
        }
        self.ops_since_sample += 1;

        // Fig. 4: append + force in parallel with propose to followers.
        let lsn = Lsn::new(self.epoch, self.last_assigned.seq() + 1);
        self.last_assigned = lsn;
        // Stamp the write with its commit timestamp (hybrid clock):
        // strictly above every timestamp previously assigned here, above
        // every snapshot timestamp already served (a pinned cut must
        // never grow new writes), and at least the wall clock so
        // timestamps stay comparable across ranges. The stamp travels
        // inside the replicated WriteOp — through the WAL, the propose
        // fan-out, and catch-up — so every replica applies the identical
        // timestamp.
        let ts = (self.last_ts + 1).max(self.served_ts + 1).max(rt.now);
        self.last_ts = ts;
        // The op moves into the queue, where conditional checks see it
        // from now on; the flush moves it on into the group propose,
        // which the log record, the messages and the queue then share.
        let op = PendingOp::Own(WriteOp { key, cells, timestamp: ts });
        self.cq.insert(PendingWrite { lsn, op, client: Some((from, req.req)) }, false);
        self.unproposed.push(lsn);
        // Group propose (Fig. 4, amortized): while a flush's force is in
        // flight, later writes accumulate and ship as ONE log record, ONE
        // force, and ONE propose/ack round when it completes — or sooner
        // when the batch cap is hit. A cap of 1 degenerates to the
        // classic propose-per-write protocol.
        if !self.proposing || self.unproposed.len() >= rt.cfg.propose_batch.max(1) {
            self.flush_proposals(rt, out);
        }
    }

    /// Drain the accumulated writes into one group propose: a single
    /// batch record in the log (all-or-nothing under one frame checksum),
    /// a single force resolved cumulatively at the batch's last LSN, and
    /// a single propose fan-out carrying every op. Commit timestamps and
    /// client replies stay per-op; they fan back out at commit.
    fn flush_proposals(&mut self, rt: &mut Runtime<'_>, out: &mut Outbox) {
        if self.unproposed.is_empty() {
            return;
        }
        let first = self.unproposed[0];
        let last = self.unproposed[self.unproposed.len() - 1];
        // The ops move out of the queue's tail into one immutable batch;
        // the log record, both propose messages and every queue share it.
        let ops = self.cq.share_from(first);
        debug_assert_eq!(ops.len(), self.unproposed.len(), "the tail is the unproposed writes");
        self.unproposed.clear();
        let bytes = ops.iter().map(|op| op.approx_size() as u64 + 8).sum::<u64>() + 32;
        let rec = LogRecord::batch(self.range, first, ops.clone());
        if rt.wal.append(&rec).is_err() {
            // Fail-stop: a leader that cannot log must neither propose
            // nor ack — the batch stays uncommitted, its clients time
            // out, and the host crashes the node.
            *rt.poisoned = true;
            return;
        }
        rt.forces.add_bytes(bytes);
        rt.forces.request(Waiter::LeaderWrite { range: self.range, lsn: last }, out);
        self.proposing = true;
        let closed_ts = self.advertised_closed_ts(rt);
        self.send_group(rt, &self.peers, &(first, ops), closed_ts, out);
    }

    /// The closed timestamp the leader advertises on commit traffic: a
    /// promise that nothing will ever commit at or below it again.
    ///
    /// With writes in flight the promise stops just under the oldest
    /// pending commit timestamp. Idle, it **rides the clock**: the next
    /// write is stamped `max(last_ts + 1, served_ts + 1, now)`, and
    /// `served_ts` is fenced up to every promise made here, so a promise
    /// at `now` can never be violated by a later write. Riding the clock
    /// is what keeps pins on write-quiet ranges serveable by followers —
    /// a promise capped at the last applied write would leave any fresher
    /// pin chained to the leader forever.
    ///
    /// The promise survives failover: a follower folds its adopted
    /// `closed_ts` into `last_ts`/`served_ts` on takeover, and even an
    /// elected successor that missed the heartbeat stamps at or above the
    /// (monotone) clock that produced the promise. `0` (commit
    /// piggy-backing off — followers cannot judge caught-up-ness without
    /// the watermark) disables.
    fn advertised_closed_ts(&mut self, rt: &Runtime<'_>) -> u64 {
        if !rt.cfg.piggyback_commits {
            return 0;
        }
        let closed = match self.cq.min_pending_ts() {
            Some(ts) => ts.saturating_sub(1),
            None => self.last_ts.max(self.store.max_ts()).max(rt.now),
        };
        self.served_ts = self.served_ts.max(closed);
        closed
    }

    /// Consistency gate shared by reads and scans: strong ops only at
    /// the leader, timeline ops at any live replica, snapshot ops at any
    /// replica whose applied history covers the read timestamp (with
    /// pinning — `ts == 0` — reserved for the leader). Returns `None`
    /// after emitting the redirect reply; otherwise the timestamp to
    /// read at (`u64::MAX` = latest, for strong and timeline).
    fn admit_read(
        &mut self,
        rt: &Runtime<'_>,
        from: Addr,
        req: RequestId,
        consistency: Consistency,
        out: &mut Outbox,
    ) -> Option<u64> {
        match consistency {
            Consistency::Strong => {
                // Strongly consistent reads are always routed to the
                // cohort's leader (§5).
                if self.role != Role::Leader {
                    out.reply(
                        from,
                        ClientReply::err(req, ClientError::NotLeader { hint: self.leader }),
                    );
                    return None;
                }
                self.ops_since_sample += 1;
                Some(u64::MAX)
            }
            Consistency::Timeline => {
                // Any live replica may answer, possibly stale.
                if self.role == Role::Offline {
                    out.reply(from, ClientReply::err(req, ClientError::Unavailable));
                    return None;
                }
                Some(u64::MAX)
            }
            Consistency::Snapshot(SnapshotTs::Pin) => {
                // Pinning read: the leader chooses the snapshot
                // timestamp — its safe point covers every write it has
                // acknowledged, so the pinned cut is as fresh as a
                // strong read.
                if self.role != Role::Leader {
                    out.reply(
                        from,
                        ClientReply::err(req, ClientError::NotLeader { hint: self.leader }),
                    );
                    return None;
                }
                self.ops_since_sample += 1;
                self.snapshot_pages += 1;
                let pin = self.snapshot_safe_ts(rt);
                // Fence the clock: no later write may commit at or
                // below the pinned timestamp.
                self.served_ts = self.served_ts.max(pin);
                // Lease the cut: GC must not reclaim it while the scan
                // that just pinned it is still walking pages.
                self.note_pin(rt, pin);
                Some(pin)
            }
            Consistency::Snapshot(SnapshotTs::At(ts)) => {
                // A pinned page: any replica whose *snapshot bound* —
                // applied watermark, or the leader's closed-timestamp
                // promise — covers `ts` may serve it. One that cannot
                // answers `Unavailable`; the client backs off and
                // retries (the leader always converges on coverage, so
                // the scan makes progress).
                if self.role == Role::Offline {
                    out.reply(from, ClientReply::err(req, ClientError::Unavailable));
                    return None;
                }
                // A pin below the MVCC garbage-collection floor may
                // reference versions compaction already pruned; serving
                // it could silently return a corrupted cut. The floor is
                // replica-local, though, and pin leases are tracked
                // where pages are admitted — so only the leader (whose
                // floor is held back by every live lease) declares the
                // snapshot dead for good. A follower that already
                // pruned answers `Unavailable`; the session redirects
                // the page to the leader, which serves it *and renews
                // the lease*. (`u64::MAX` = the floor was never armed:
                // everything is still retained.)
                let floor = self.store.gc_floor();
                if floor != u64::MAX && ts < floor {
                    let err = if self.role == Role::Leader {
                        ClientError::SnapshotTooOld { floor }
                    } else {
                        ClientError::Unavailable
                    };
                    out.reply(from, ClientReply::err(req, err));
                    return None;
                }
                if ts > self.snapshot_safe_ts(rt) {
                    out.reply(from, ClientReply::err(req, ClientError::Unavailable));
                    return None;
                }
                if self.role == Role::Leader {
                    self.ops_since_sample += 1;
                    self.served_ts = self.served_ts.max(ts);
                }
                self.snapshot_pages += 1;
                // Every page renews the cut's lease, so a scan making
                // progress — however slowly — never outlives retention.
                self.note_pin(rt, ts);
                Some(ts)
            }
        }
    }

    /// The highest snapshot timestamp this replica can serve: everything
    /// committed at or below it is applied locally, and — on the leader —
    /// nothing can commit at or below it afterwards.
    ///
    /// * Leader with writes in flight: just below the oldest pending
    ///   commit timestamp (everything older is applied, the pending ones
    ///   are not yet readable).
    /// * Idle leader with closed timestamps on: the frontier of the last
    ///   promise (`served_ts` is fenced to every closed timestamp
    ///   advertised, at most one commit period stale). Deliberately
    ///   **not** the raw clock — a pin above the advertised promise could
    ///   not be served by any follower until the next heartbeat, chaining
    ///   the first page of every scan on a write-quiet range to the
    ///   leader. Without closed timestamps there is no promise to track
    ///   and no follower serving to protect, so the pin rides the clock
    ///   for freshness (a stale pin risks outliving the GC floor
    ///   mid-scan).
    /// * Follower: its applied watermark (commit order equals timestamp
    ///   order, so "applied through ts T" means "nothing ≤ T missing"),
    ///   extended by the leader's closed-timestamp promise — the leader
    ///   vouched that nothing else will ever commit at or below
    ///   `closed_ts`, and the adoption rule made sure we had applied
    ///   everything the promise covers.
    fn snapshot_safe_ts(&self, rt: &Runtime<'_>) -> u64 {
        if matches!(self.role, Role::Leader) {
            match self.cq.min_pending_ts() {
                Some(ts) => ts.saturating_sub(1),
                None if rt.cfg.piggyback_commits => self.last_ts.max(self.served_ts),
                None => self.last_ts.max(self.served_ts).max(rt.now),
            }
        } else {
            self.store.max_ts().max(self.closed_ts)
        }
    }

    /// Fail-stop on a read the store could not serve (a block that fails
    /// its checksum, a device error): the request goes unanswered — an
    /// empty row or version 0 would be a lie a conditional put then
    /// builds on — the host crashes the node, and the cohort elects a
    /// replica that can read its copy. A flush or compaction that failed
    /// on the maintenance tick, and a catch-up from tables the leader
    /// cannot read, stop the node the same way.
    fn store_unreadable(rt: &mut Runtime<'_>) {
        *rt.poisoned = true;
    }

    /// §3 `get`: one column, a column set, or the whole row. Deleted
    /// columns come back as [`ReadCell`]s with `value: None` and the
    /// tombstone's version; never-written columns are simply absent.
    /// Under [`Consistency::Snapshot`] the row state is the one visible
    /// at the read timestamp ([`RangeStore::get_at`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_get(
        &mut self,
        rt: &mut Runtime<'_>,
        from: Addr,
        req: RequestId,
        key: &Key,
        columns: &ColumnSelect,
        consistency: Consistency,
        out: &mut Outbox,
    ) {
        let Some(read_ts) = self.admit_read(rt, from, req, consistency, out) else {
            return;
        };
        let row = match self.store.get_at(key, read_ts) {
            Ok(row) => row.unwrap_or_default(),
            Err(_) => return Self::store_unreadable(rt),
        };
        let cell_of = |col: &spinnaker_common::ColumnName| {
            row.get(col).map(|cv| ReadCell {
                col: col.clone(),
                value: (!cv.tombstone).then(|| cv.value.clone()),
                version: cv.version,
            })
        };
        let cells = match columns {
            ColumnSelect::All => row
                .columns
                .iter()
                .map(|(col, cv)| ReadCell {
                    col: col.clone(),
                    value: (!cv.tombstone).then(|| cv.value.clone()),
                    version: cv.version,
                })
                .collect(),
            ColumnSelect::One(col) => cell_of(col).into_iter().collect(),
            ColumnSelect::Set(cols) => cols.iter().filter_map(cell_of).collect(),
        };
        // Piggyback the read timestamp: a pinning get learns the
        // timestamp the leader chose and can replay the same cut in
        // later snapshot reads.
        let at_ts = if read_ts == u64::MAX { 0 } else { read_ts };
        out.reply(from, ClientReply::Row { req, cells, at_ts });
    }

    /// One page of a range scan, clamped to this replica's key span. The
    /// reply carries the rows plus a continuation key: the in-range
    /// resume point when the page limit was hit, or this range's end
    /// when the scan extends past it (the client re-routes the cursor
    /// through the range table — which is exactly what keeps a logical
    /// scan correct across live splits, merges, and cohort moves).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_scan(
        &mut self,
        rt: &mut Runtime<'_>,
        from: Addr,
        req: RequestId,
        start: &Key,
        end: Option<&Key>,
        limit: u32,
        consistency: Consistency,
        out: &mut Outbox,
        ring_version: u64,
    ) {
        // The cursor must lie inside our span; a mismatch means routing
        // raced a reconfiguration — the client refreshes and re-sends.
        let inside = start >= &self.span.0 && self.span.1.as_ref().is_none_or(|se| start < se);
        if !inside {
            out.reply(
                from,
                ClientReply::err(req, ClientError::WrongRange { version: ring_version }),
            );
            return;
        }
        let Some(read_ts) = self.admit_read(rt, from, req, consistency, out) else {
            return;
        };
        // Clamp the scan bounds to the span this replica owns.
        let hi: Option<&Key> = match (end, self.span.1.as_ref()) {
            (Some(e), Some(se)) => Some(if e < se { e } else { se }),
            (Some(e), None) => Some(e),
            (None, se) => se,
        };
        let limit = (limit.max(1) as usize).min(4096);
        let page = match read_ts {
            u64::MAX => self.store.scan_page(start, hi, limit),
            ts => self.store.scan_page_at(start, hi, limit, ts),
        };
        let Ok((raw, next)) = page else { return Self::store_unreadable(rt) };
        let rows: Vec<ScanRow> = raw
            .into_iter()
            .filter_map(|(key, row)| {
                let cells: Vec<ReadCell> = row
                    .columns
                    .iter()
                    .filter(|(_, cv)| !cv.tombstone)
                    .map(|(col, cv)| ReadCell {
                        col: col.clone(),
                        value: Some(cv.value.clone()),
                        version: cv.version,
                    })
                    .collect();
                // Fully-deleted rows are omitted: a scan enumerates what
                // exists (the page still consumed the slot, but the
                // continuation key keeps the cursor exact).
                (!cells.is_empty()).then_some(ScanRow { key, cells })
            })
            .collect();
        // Where the logical scan continues: inside our span (page limit
        // hit), at our span's end (scan extends past this range), or
        // nowhere (done).
        let resume = next.or_else(|| match (self.span.1.as_ref(), end) {
            (None, _) => None,
            (Some(se), None) => Some(se.clone()),
            (Some(se), Some(e)) if se < e => Some(se.clone()),
            (Some(_), Some(_)) => None,
        });
        // Piggyback the read timestamp: for a snapshot page this is the
        // pinned (or just-pinned) cut the client carries forward.
        let at_ts = if read_ts == u64::MAX { 0 } else { read_ts };
        out.reply(from, ClientReply::Rows { req, rows, resume, at_ts });
    }

    // =================================================================
    // replication protocol (Fig. 4) + catch-up (§6.1)
    // =================================================================

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_propose(
        &mut self,
        rt: &mut Runtime<'_>,
        from: NodeId,
        epoch: Epoch,
        first: Lsn,
        ops: Arc<[WriteOp]>,
        committed: Lsn,
        closed_ts: u64,
        out: &mut Outbox,
    ) {
        if ops.is_empty() || epoch < self.epoch {
            return; // malformed, or stale leader
        }
        if epoch > self.epoch {
            // A leader we have not formally met (its authority comes from
            // the coordination service). What we hold queued was proposed
            // by a leader it replaced and may have been discarded by it:
            // start over with the sender rather than queue its proposals
            // — and apply its watermark — next to those.
            self.epoch = epoch;
            self.become_follower(rt, from, out);
        }
        match self.role {
            Role::Follower | Role::CatchingUp => {}
            Role::Leader | Role::LeaderTakeover => {
                // A propose of our own epoch from someone else: epochs
                // are handed out one leader at a time, so this is ours
                // coming back — ignore it — unless it is not.
                if from != rt.id {
                    self.role = Role::CatchingUp;
                    self.leader = Some(from);
                    self.unproposed.clear();
                    self.proposing = false;
                } else {
                    return;
                }
            }
            Role::Electing => {
                // We stand for election because this epoch's leader is
                // gone from the coordination service, and our candidacy
                // has advertised our n.lst. What that leader still had
                // in flight is neither logged nor acknowledged — and
                // must not pull us out of the election to follow a dead
                // node (the winner's proposes carry a newer epoch).
                return;
            }
            Role::Offline => {
                // Accept the write anyway: log it so it counts toward our
                // n.lst; the leader is authoritative.
                self.leader = Some(from);
                self.role = Role::CatchingUp;
            }
        }
        // Refuse to append over a hole. The election's safety argument
        // (§7.2: winner = max `n.lst`) assumes every log is a gap-free
        // prefix — `n.lst` vouches for *everything* at or below it. A
        // propose that skips past what we hold (its predecessors dropped
        // by a partition, or we rejoined mid-stream) must not be logged:
        // appending it would advance `n.lst` over entries we never held,
        // and a later election could then prefer us over a complete peer
        // and silently discard committed writes. What we hold beyond
        // dispute is the committed prefix and, queued behind it, the
        // proposals of this epoch's leader (each passed this test; the
        // queue is emptied whenever the leader changes). The log tip
        // vouches too, but only within its own epoch: across an epoch
        // boundary a leftover higher-seq tail from the old epoch may be
        // divergent.
        let st = rt.wal.state(self.range);
        let tip = self.cq.span().map_or(self.last_committed, |(_, l)| l.max(self.last_committed));
        let log_tip = if first.epoch() == st.last_lsn.epoch() { st.last_lsn.seq() } else { 0 };
        if first.seq() > log_tip.max(tip.seq()) + 1 {
            // Demand catch-up — once — and park the propose: the leader
            // ships committed history and re-sends its pending proposals
            // behind it, but on a multi-core node those (250 us of
            // service each) finish *before* the reply (2 ms) they were
            // sent after. Dropped, each would be missing again when the
            // reply lands and the next propose would ask again, without
            // end under load; parked, they are replayed once it has.
            self.role = Role::CatchingUp;
            if self.parked.len() >= CATCHUP_PARK_GROUPS {
                self.parked.pop_first();
            }
            self.parked.insert(first, Parked { from, epoch, ops, committed, closed_ts });
            self.ask_catchup(rt, from, out);
            return;
        }
        self.ops_since_sample += ops.len() as u64;
        // Keep only the suffix past `tip`. The leader re-sends pending
        // writes (serving a catch-up, nudging a takeover) in groups cut
        // from its log, which share no boundaries with the groups they
        // first travelled in; a parked group may straddle the history a
        // catch-up reply just delivered. What is at or below `tip` is
        // already in our log.
        let last = group_last(first, &ops);
        let group = if tip < first {
            Some((first, ops))
        } else if tip < last {
            // `first <= tip < last` puts all three in one epoch.
            let held = (tip.seq() + 1 - first.seq()) as usize;
            Some((tip.next(), Arc::from(&ops[held..])))
        } else {
            None
        };
        // Run the normal replication protocol even when the record
        // already sits in our log from the previous epoch (a takeover
        // re-proposal, Fig. 6 line 9): append and force again.
        // Re-appending an identical record is idempotent under replay.
        // The whole group lands as ONE batch record (atomic under its
        // frame checksum) with ONE force; the single cumulative ack at
        // the last LSN vouches for every op in it — and, the log being
        // sequential, for the part of the group we already held.
        if let Some(group) = group {
            let bytes = group.1.iter().map(|op| op.approx_size() as u64 + 8).sum::<u64>() + 32;
            if rt.wal.append(&LogRecord::batch(self.range, group.0, group.1.clone())).is_err() {
                // Fail-stop, like a leader that cannot log: the force
                // below would succeed and acknowledge a group that is
                // not in the log.
                *rt.poisoned = true;
                return;
            }
            rt.forces.add_bytes(bytes);
            self.queue_group(&group, false);
        }
        rt.forces
            .request(Waiter::FollowerWrite { range: self.range, lsn: last, leader: from }, out);
        if !committed.is_zero() {
            self.apply_commit(rt, committed);
            // Adopt the piggy-backed closed timestamp only when fully
            // applied through the watermark it was computed against.
            if closed_ts > 0 && self.last_committed >= committed {
                self.closed_ts = self.closed_ts.max(closed_ts);
            }
        }
    }

    pub(crate) fn on_ack(
        &mut self,
        rt: &mut Runtime<'_>,
        from: NodeId,
        epoch: Epoch,
        lsn: Lsn,
        out: &mut Outbox,
    ) -> FollowUp {
        if epoch != self.epoch || !matches!(self.role, Role::Leader | Role::LeaderTakeover) {
            return FollowUp::default();
        }
        // A cohort-movement learner's acks never count toward the *old*
        // cohort's quorum: a commit vouched for only by leader + learner
        // would not survive the old majority's failure rules.
        if self.moving.as_ref().is_some_and(|m| m.to == from) {
            return FollowUp::default();
        }
        self.cq.ack(lsn, from);
        self.try_commit(rt, out)
    }

    /// Leader: drain every write that now has its own force + a quorum of
    /// acks, in LSN order; apply, reply to clients. Reports drained
    /// split/merge barriers and takeover completion to the node runtime.
    pub(crate) fn try_commit(&mut self, rt: &mut Runtime<'_>, out: &mut Outbox) -> FollowUp {
        let mut fu = FollowUp::default();
        if !matches!(self.role, Role::Leader | Role::LeaderTakeover) {
            return fu;
        }
        // Majority of 3 = leader + 1 follower ack.
        let needed_acks = rt.ring.replication() / 2;
        for pw in self.cq.drain_committable(self.last_committed, needed_acks) {
            self.store.apply(&pw.op, pw.lsn);
            self.last_committed = pw.lsn;
            if let Some((addr, req)) = pw.client {
                // The commit timestamp rides the ack: the client learns
                // exactly which snapshot cuts include this write.
                out.reply(
                    addr,
                    ClientReply::WriteOk { req, version: pw.lsn.as_u64(), ts: pw.op.timestamp },
                );
            }
        }
        // Release held conditional-write rejections whose observed
        // version just became committed state: the mismatch is now a
        // fact every strong read can corroborate.
        if !self.deferred_mismatches.is_empty() {
            let lc = self.last_committed;
            let mut keep = Vec::new();
            for (dep, addr, req, actual) in std::mem::take(&mut self.deferred_mismatches) {
                if dep <= lc {
                    out.reply(addr, ClientReply::err(req, ClientError::VersionMismatch { actual }));
                } else {
                    keep.push((dep, addr, req, actual));
                }
            }
            self.deferred_mismatches = keep;
        }
        if self.takeover.is_some() {
            fu.merge_from(self.maybe_finish_takeover(rt, out));
        }
        // A pending barrier whose queue just drained can now execute. A
        // subordinate merge barrier announces readiness itself; the
        // coordinator's (and a split's) execution is a node-level
        // lifecycle operation.
        if self.role == Role::Leader && self.cq.is_empty() {
            let closed_ts = self.advertised_closed_ts(rt);
            if let Some(m) = self.merging.as_mut() {
                if !m.coordinator && !m.announced {
                    m.announced = true;
                    let (epoch, barrier) = (self.epoch, self.last_committed);
                    let (sibling, requester, token) = (m.sibling, m.requester, m.token);
                    // Barrier commit first, on the same FIFO links as the
                    // proposes it covers; then the readiness announcement.
                    for &peer in &self.peers {
                        out.send(
                            peer,
                            PeerMsg::Commit { range: self.range, epoch, lsn: barrier, closed_ts },
                        );
                    }
                    self.note_commit(rt, barrier, NOTE_BYTES);
                    // A coordinator that leads both siblings advances
                    // through the returned barrier-ready flag instead of
                    // messaging itself.
                    if requester != rt.id {
                        out.send(
                            requester,
                            PeerMsg::MergeReady {
                                range: sibling,
                                right: self.range,
                                barrier,
                                epoch,
                                token,
                            },
                        );
                    }
                }
            }
            if self.barrier_pending() {
                fu.barrier_ready = true;
            }
        }
        fu
    }

    /// Our own log force completed for everything up to `lsn`.
    pub(crate) fn on_self_forced(
        &mut self,
        rt: &mut Runtime<'_>,
        lsn: Lsn,
        out: &mut Outbox,
    ) -> FollowUp {
        self.cq.self_forced(lsn);
        // The force that completed was the one holding back the
        // accumulating group propose: flush it now, or go idle so the
        // next write flushes immediately.
        if matches!(self.role, Role::Leader | Role::LeaderTakeover) {
            if self.unproposed.is_empty() {
                self.proposing = false;
            } else {
                self.flush_proposals(rt, out);
            }
        }
        self.try_commit(rt, out)
    }

    /// Follower: apply the asynchronous commit message (Fig. 4 right)
    /// and adopt its closed timestamp once caught up through it.
    ///
    /// The **epoch fence**: our queue holds the proposals of the leader
    /// we last caught up with. A commit from a newer epoch says nothing
    /// about them — that leader may have discarded them and reused their
    /// sequence numbers — so it starts a catch-up with the sender instead
    /// of draining the queue.
    pub(crate) fn on_commit_msg(
        &mut self,
        rt: &mut Runtime<'_>,
        from: NodeId,
        epoch: Epoch,
        lsn: Lsn,
        closed_ts: u64,
        out: &mut Outbox,
    ) {
        if epoch < self.epoch || !matches!(self.role, Role::Follower | Role::CatchingUp) {
            return;
        }
        if epoch > self.epoch {
            self.epoch = epoch;
            self.become_follower(rt, from, out);
            return;
        }
        if self.role == Role::CatchingUp {
            // The commit period is the heartbeat that re-drives a
            // catch-up whose request or reply was lost.
            self.ask_catchup(rt, from, out);
            return;
        }
        self.apply_commit(rt, lsn);
        // The promise "nothing further commits at or below closed_ts" is
        // only usable by a replica that already holds everything
        // committed at or below it — i.e. applied through the watermark
        // the promise was computed against.
        if closed_ts > 0 && self.last_committed >= lsn {
            self.closed_ts = self.closed_ts.max(closed_ts);
        }
    }

    /// Log the non-forced "last committed" note (§5) for `lsn`, unless
    /// one at or past it is logged already; true when it logged.
    /// `charged` is what the next force is billed for it.
    fn note_commit(&mut self, rt: &mut Runtime<'_>, lsn: Lsn, charged: u64) -> bool {
        if lsn <= self.last_note {
            return false;
        }
        // Non-forced by design: a note that fails to log (or is lost in
        // a crash) only makes local recovery replay from an older f.cmt.
        // spinlint: allow(E1) -- a lost note only replays from an older f.cmt
        let _ = rt.wal.append(&LogRecord::commit_note(self.range, lsn));
        rt.forces.add_bytes(charged);
        self.last_note = lsn;
        true
    }

    /// Drain and apply every queued write at or below `lsn` and report
    /// how far the **dense** prefix of what was drained reaches (cohort
    /// sequence numbers are dense across epochs, so contiguity is
    /// checkable): `lsn` itself when nothing was missing, else the last
    /// write before the first gap. Entries past a gap still apply — the
    /// sender's watermark is authoritative and cell application is
    /// idempotent — but only the dense prefix may be *claimed*: a
    /// watermark that outran entries we never held would make every later
    /// catch-up (keyed on `last_committed`) skip them forever, and an
    /// election could pick a leader missing committed writes.
    fn drain_dense(&mut self, lsn: Lsn) -> Lsn {
        let mut frontier = self.last_committed;
        let mut dense = true;
        for pw in self.cq.drain_up_to(lsn) {
            if dense && pw.lsn.seq() == frontier.seq() + 1 {
                frontier = pw.lsn;
            } else {
                dense = false;
            }
            self.store.apply(&pw.op, pw.lsn);
        }
        if dense && frontier.seq() == lsn.seq() {
            frontier = lsn; // adopt the watermark's own (possibly newer) epoch
        }
        frontier
    }

    /// Follower: commit through `lsn` as far as the dense prefix allows;
    /// a contiguous propose or a catch-up closes any gap later.
    pub(crate) fn apply_commit(&mut self, rt: &mut Runtime<'_>, lsn: Lsn) {
        if lsn <= self.last_committed {
            return;
        }
        let frontier = self.drain_dense(lsn);
        if frontier > self.last_committed {
            self.last_committed = frontier;
            self.note_commit(rt, frontier, NOTE_BYTES);
        }
    }

    /// Commit through a merge `barrier` all or nothing: true (and the
    /// watermark at the barrier) only when the drained history was
    /// gap-free. Everything drained is known committed — the coordinator
    /// saw both barriers — so it is applied either way.
    pub(crate) fn commit_through_barrier(&mut self, rt: &mut Runtime<'_>, barrier: Lsn) -> bool {
        if self.last_committed >= barrier {
            return true;
        }
        let clean = self.drain_dense(barrier) == barrier;
        if clean {
            self.last_committed = barrier;
            self.note_commit(rt, barrier, NOTE_BYTES);
        }
        clean
    }

    pub(crate) fn on_leader_hello(
        &mut self,
        rt: &mut Runtime<'_>,
        epoch: Epoch,
        leader: NodeId,
        out: &mut Outbox,
    ) {
        if epoch < self.epoch || leader == rt.id {
            return;
        }
        self.become_follower(rt, leader, out);
        self.epoch = self.epoch.max(epoch);
    }

    /// Leader side of catch-up (§6.1 + Fig. 6 lines 3-7).
    ///
    /// The paper has the leader "momentarily block new writes to ensure
    /// that the follower is fully caught up". We achieve the same
    /// synchronization point without a blocking window: committed history
    /// is shipped immediately and every write still pending in the commit
    /// queue is *re-proposed* to the follower behind it, so once the
    /// follower has ingested the reply and replayed what it parked
    /// meanwhile it holds a complete, gap-free prefix. The re-sends are
    /// groups cut from the log ([`RunCutter`]), whatever groups the
    /// writes first travelled in; the follower keeps of each the part it
    /// does not hold yet.
    pub(crate) fn on_catchup_req(
        &mut self,
        rt: &mut Runtime<'_>,
        follower: NodeId,
        f_cmt: Lsn,
        out: &mut Outbox,
    ) {
        if !matches!(self.role, Role::Leader | Role::LeaderTakeover) {
            return; // not the leader (any more); the follower will re-learn
        }
        self.serve_catchup(rt, follower, f_cmt, out);
        let closed_ts = self.advertised_closed_ts(rt);
        for group in self.pending_groups(rt) {
            self.send_group(rt, &[follower], &group, closed_ts, out);
        }
    }

    /// The writes still pending in the commit queue, re-read from the log
    /// in one pass over their span and cut into groups. A span that
    /// cannot be read poisons the node and yields none: a leader that
    /// cannot read back the writes it is replicating cannot bring a
    /// follower level with them.
    fn pending_groups(&self, rt: &mut Runtime<'_>) -> Vec<Group> {
        let mut pending = RunCutter::default();
        if let Some((first, last)) = self.cq.span() {
            let before = Lsn::from_u64(first.as_u64() - 1);
            let replayed = rt.wal.replay(self.range, before, last, |lsn, op| {
                if self.cq.contains(lsn) {
                    pending.push(lsn, op.clone());
                }
            });
            if replayed.is_err() {
                *rt.poisoned = true;
                return Vec::new();
            }
        }
        pending.finish()
    }

    /// Re-drive a stalled takeover (fired by the election-retry timer).
    ///
    /// `begin_takeover` sends `LeaderHello` and re-proposes the
    /// unresolved tail exactly once. Any of those messages lost to a
    /// partition or a crashed peer would otherwise wedge the cohort
    /// forever: the takeover leader sits silent waiting for a caught-up
    /// follower that never learned who leads. Re-sending is safe —
    /// `on_leader_hello` is idempotent (same-epoch hellos just restart
    /// the follower's catch-up) and a follower that already holds a
    /// re-sent group logs nothing and acknowledges it again.
    pub(crate) fn retry_takeover(&mut self, rt: &mut Runtime<'_>, out: &mut Outbox) -> FollowUp {
        let Some(t) = self.takeover.as_ref().filter(|_| self.role == Role::LeaderTakeover) else {
            return FollowUp::default();
        };
        let epoch = self.epoch;
        for &peer in &self.peers {
            if !t.caught_up.contains(&peer) {
                out.send(peer, PeerMsg::LeaderHello { range: self.range, epoch, leader: rt.id });
            }
        }
        // Nudge in-flight re-proposals whose Propose or Ack went missing.
        for group in self.pending_groups(rt) {
            self.send_group(rt, &self.peers, &group, 0, out);
        }
        self.maybe_finish_takeover(rt, out)
    }

    fn serve_catchup(
        &mut self,
        rt: &mut Runtime<'_>,
        follower: NodeId,
        f_cmt: Lsn,
        out: &mut Outbox,
    ) {
        let up_to = self.last_committed;
        let epoch = self.epoch;
        match rt.wal.read_range(self.range, f_cmt, up_to) {
            Ok(records) => {
                out.send(
                    follower,
                    PeerMsg::CatchupRecords {
                        range: self.range,
                        epoch,
                        records,
                        fragments: Vec::new(),
                        up_to,
                    },
                );
            }
            Err(_) => {
                // Log rolled over: serve from SSTables + memtable (§6.1).
                // Rows the store cannot read are not "no rows": an empty
                // reply up to `up_to` would have the follower claim a
                // watermark it holds nothing for.
                let Ok(fragments) = self.store.rows_since(f_cmt) else {
                    return Self::store_unreadable(rt);
                };
                out.send(
                    follower,
                    PeerMsg::CatchupRecords {
                        range: self.range,
                        epoch,
                        records: Vec::new(),
                        fragments,
                        up_to,
                    },
                );
            }
        }
    }

    /// Follower side of catch-up completion: ingest, **logically
    /// truncate** orphaned records (§6.1.1), confirm, replay the park.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_catchup_records(
        &mut self,
        rt: &mut Runtime<'_>,
        leader: NodeId,
        epoch: Epoch,
        records: Vec<(Lsn, WriteOp)>,
        fragments: Vec<(Key, spinnaker_common::Row)>,
        up_to: Lsn,
        out: &mut Outbox,
    ) {
        let st = rt.wal.state(self.range);
        if epoch < self.epoch || self.role != Role::CatchingUp {
            return;
        }
        self.epoch = epoch;
        let f_cmt = self.last_committed;

        // Which of our own records beyond f.cmt does the leader's history
        // confirm? Anything else in (f.cmt, up_to] was discarded by a
        // previous leader change and must never replay: logical
        // truncation. Our tail comes off the log's index in LSN order,
        // as the reply's records come, so one walk beside them finds
        // both the orphans and the records we already hold — it reads no
        // log. A tail below the log's floor, or a truncation we cannot
        // make durable, poisons the node: confirming the catch-up would
        // let local recovery replay an orphan up to the new watermark.
        debug_assert!(records.windows(2).all(|w| w[0].0 < w[1].0), "records in LSN order");
        let Ok(mut own) = rt.wal.indexed_lsns(self.range, f_cmt, st.last_lsn) else {
            *rt.poisoned = true;
            return;
        };
        let mut orphans = Vec::new();
        let mut held = Vec::with_capacity(records.len());
        let mut next = own.next();
        for (lsn, _) in &records {
            while let Some(orphan) = next.filter(|o| o < lsn) {
                if orphan <= up_to {
                    orphans.push(orphan);
                }
                next = own.next();
            }
            let holds = next == Some(*lsn);
            if holds {
                next = own.next();
            }
            held.push(holds);
        }
        orphans.extend(next.into_iter().chain(own).filter(|o| *o <= up_to));
        if rt.wal.truncate_logically(self.range, &orphans).is_err() {
            *rt.poisoned = true;
            return;
        }

        // Append records we do not have, apply everything in LSN order.
        // A refused append poisons the node: claiming durable catch-up
        // (`CaughtUp` below) over a hole in the log would let a later
        // election elect us with committed writes missing.
        let mut appended = false;
        for ((lsn, op), held) in records.iter().zip(held) {
            if !held {
                if rt.wal.append(&LogRecord::write(self.range, *lsn, op.clone())).is_err() {
                    *rt.poisoned = true;
                    return;
                }
                rt.forces.add_bytes(op.approx_size() as u64 + 32);
                appended = true;
            }
            self.store.apply(op, *lsn);
        }
        if !fragments.is_empty() {
            for (key, frag) in &fragments {
                self.store.ingest_fragment(key, frag);
            }
            // SSTable-based catch-up: make it durable by flushing and
            // advancing the checkpoint (the shipped rows exist in the
            // leader's SSTables, not as replayable log records).
            // A flush that fails leaves them in the memtable alone:
            // fail-stop before the checkpoint, the note or `CaughtUp`
            // claims what a crash would lose.
            let Ok(flushed) = self.store.flush() else {
                *rt.poisoned = true;
                return;
            };
            // A checkpoint that fails to save replays more, never less.
            // spinlint: allow(E1) -- a lost checkpoint only replays more
            let _ = rt.wal.set_checkpoint(self.range, flushed.map_or(up_to, |f| f.max(up_to)));
        }
        self.last_committed = up_to.max(self.last_committed);
        // The note rides the catch-up's own force, uncharged as ever.
        appended |= self.note_commit(rt, up_to, 0);
        self.role = Role::Follower;
        self.catchup_asked = None;

        if appended {
            rt.forces.request(Waiter::CatchupDone { range: self.range, up_to, leader }, out);
        } else {
            out.send(leader, PeerMsg::CaughtUp { range: self.range, epoch: self.epoch, at: up_to });
        }
        // Replay what was parked while the reply was on its way, in LSN
        // order, as the proposes they are. What the reply covered is
        // committed and needs no ack; `on_propose` keeps the rest of a
        // group straddling `up_to` and — should a hole remain — parks
        // again and asks once more.
        for (first, p) in std::mem::take(&mut self.parked) {
            if group_last(first, &p.ops) > up_to {
                self.on_propose(rt, p.from, p.epoch, first, p.ops, p.committed, p.closed_ts, out);
            }
        }
    }

    pub(crate) fn on_caught_up(
        &mut self,
        rt: &mut Runtime<'_>,
        follower: NodeId,
        out: &mut Outbox,
    ) -> FollowUp {
        let mut fu = FollowUp::default();
        if self.takeover.is_some() {
            if let Some(t) = self.takeover.as_mut() {
                t.caught_up.insert(follower);
            }
            fu.merge_from(self.maybe_finish_takeover(rt, out));
        }
        if self.moving.as_ref().is_some_and(|m| m.to == follower)
            && matches!(self.role, Role::Leader | Role::LeaderTakeover)
        {
            fu.move_target_caught_up = true;
        }
        fu
    }

    // =================================================================
    // timers
    // =================================================================

    /// The periodic commit message (Fig. 4 right; the *commit period*).
    /// Doubles as the closed-timestamp heartbeat: when piggy-backed
    /// commits are on it is sent even with nothing newly committed, so a
    /// follower that just caught up (or just joined) still learns the
    /// current closed bound on an otherwise idle range.
    pub(crate) fn commit_tick(&mut self, rt: &mut Runtime<'_>, out: &mut Outbox) {
        if self.role != Role::Leader {
            return;
        }
        let closed_ts = self.advertised_closed_ts(rt);
        if self.last_committed == Lsn::ZERO && closed_ts == 0 {
            return; // nothing committed, nothing closed: stay quiet
        }
        let lsn = self.last_committed;
        let epoch = self.epoch;
        self.note_commit(rt, lsn, NOTE_BYTES);
        for &peer in &self.peers {
            out.send(peer, PeerMsg::Commit { range: self.range, epoch, lsn, closed_ts });
        }
    }

    /// Memtable flush / compaction check, plus the load/size sample
    /// behind automatic split/merge triggers. Also advances the MVCC
    /// garbage-collection floor: version chains older than
    /// `snapshot_retain` fall out at the next compaction, so a snapshot
    /// pinned within the retention window never loses its cut.
    pub(crate) fn maintenance_tick(&mut self, rt: &mut Runtime<'_>, now: u64) -> ReshardAdvice {
        // The floor chases `now - snapshot_retain` but never passes the
        // oldest live pin lease: an active reader holds its cut open by
        // renewing (every page served renews), an abandoned one lets the
        // lease lapse and the cut is reclaimed here.
        self.pins.retain(|_, expiry| *expiry > now);
        let mut floor = now.saturating_sub(rt.cfg.snapshot_retain);
        if let Some((&oldest, _)) = self.pins.iter().next() {
            floor = floor.min(oldest);
        }
        self.store.set_gc_floor(floor);
        if self.store.needs_flush() {
            // A flush or compaction that fails leaves a device this node
            // cannot trust: fail-stop (a failed flush stops before the
            // checkpoint moves, so a restart replays the rows from the
            // log), and the cohort's next leader serves its own copy.
            let Ok(flushed) = self.store.flush() else {
                Self::store_unreadable(rt);
                return ReshardAdvice::None;
            };
            if let Some(flushed) = flushed {
                // Safe to ignore: the rows are in a table the saved
                // manifest lists, and a checkpoint that fails to save
                // makes recovery replay more of the log, never less.
                // spinlint: allow(E1) -- a lost checkpoint only replays more
                let _ = rt.wal.set_checkpoint(self.range, flushed);
            }
            if self.store.maybe_compact().is_err() {
                Self::store_unreadable(rt);
                return ReshardAdvice::None;
            }
        }

        let elapsed = now.saturating_sub(self.last_sample_at);
        let ops = std::mem::take(&mut self.ops_since_sample);
        self.last_sample_at = now;
        self.samples += 1;
        let Some(policy) = rt.cfg.reshard.as_ref() else { return ReshardAdvice::None };
        // Hysteresis: let the statistics settle after attach, and never
        // trigger while another reconfiguration is already running.
        if self.samples < 3
            || self.role != Role::Leader
            || self.barrier_pending()
            || self.moving.is_some()
            || self.takeover.is_some()
            || elapsed == 0
        {
            return ReshardAdvice::None;
        }
        let ops_per_sec = ops as f64 * 1e9 / elapsed as f64;
        let bytes = self.store.approx_total_bytes();
        if ops_per_sec > policy.split_ops_per_sec || bytes > policy.split_bytes {
            return ReshardAdvice::Split;
        }
        if ops_per_sec < policy.merge_ops_per_sec && bytes < policy.merge_bytes {
            return ReshardAdvice::MergeRight;
        }
        ReshardAdvice::None
    }
}

/// The LSN of the last write of the non-empty group `ops` starting at
/// `first`.
fn group_last(first: Lsn, ops: &[WriteOp]) -> Lsn {
    Lsn::new(first.epoch(), first.seq() + ops.len() as u64 - 1)
}

pub(crate) fn parse_node(data: &[u8]) -> NodeId {
    std::str::from_utf8(data).ok().and_then(|s| s.trim().parse().ok()).unwrap_or(u32::MAX)
}

pub(crate) fn parse_candidate(data: &[u8]) -> Option<(NodeId, u64)> {
    let s = std::str::from_utf8(data).ok()?;
    let (node, lst) = s.split_once(':')?;
    Some((node.parse().ok()?, lst.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;

    use super::*;

    fn cut(lsns: impl IntoIterator<Item = (Epoch, u64)>, value: usize) -> Vec<(Lsn, usize)> {
        let mut cutter = RunCutter::default();
        for (epoch, seq) in lsns {
            let value = Bytes::from(vec![b'v'; value]);
            cutter.push(Lsn::new(epoch, seq), WriteOp::put(Key::from("k"), Bytes::new(), value, 0));
        }
        cutter.finish().into_iter().map(|(first, ops)| (first, ops.len())).collect()
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
        assert_eq!(cut((1..=2).map(|s| (1, s)), 2 << 20).len(), 2);
    }
}
