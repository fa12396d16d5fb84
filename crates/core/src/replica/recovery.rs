//! Election, takeover and catch-up: how a cohort gets a leader (Fig. 7,
//! §7), how the winner resolves what its predecessor left unresolved
//! before it opens for writes (Fig. 6), and how a follower is brought
//! level with the leader's committed history, logically truncating what
//! no leader committed (§6.1, §6.1.1).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use spinnaker_common::{Epoch, Key, Lsn, NodeId, Row, Timestamp, WriteOp};
use spinnaker_wal::LogRecord;

use super::{group_last, parse_node, FollowUp, RangeReplica, Role, Runtime, Waiter};
use crate::commit_queue::PendingWrite;
use crate::messages::{Addr, ClientError, ClientReply, Outbox, PeerMsg, TimerKind};
use crate::node::{CohortPaths, ELECTION_RETRY};

/// Most writes one re-proposed group carries: a round costs a link trip
/// and a follower force whatever rides it, and 64 one-KB puts are still a
/// small frame next to an 8 MiB log segment.
pub(super) const REPROPOSE_GROUP_OPS: usize = 64;
/// Most bytes one re-proposed group carries: 64 large values must not add
/// up to a frame the log refuses (`MAX_RECORD_BYTES`, 64 MiB).
const REPROPOSE_GROUP_BYTES: usize = 1 << 20;
/// Most proposes a catching-up follower parks: a reply of several MB is
/// on the wire for tens of milliseconds, a few hundred group proposes on
/// a busy range. Past it the oldest (the likeliest to be covered by the
/// reply) is dropped; the hole costs one more request.
pub const CATCHUP_PARK_GROUPS: usize = 1024;

/// Whether the write at `lsn`, of `size` bytes, extends the group of
/// `ops` writes and `bytes` bytes that starts at `first`: a group ends
/// where the next LSN is not its successor in the same epoch (an epoch
/// boundary, or a logically truncated LSN missing from the log) and at
/// the op and byte caps.
fn extends(first: Lsn, ops: usize, bytes: usize, lsn: Lsn, size: usize) -> bool {
    lsn.epoch() == first.epoch()
        && lsn.seq() == first.seq() + ops as u64
        && ops < REPROPOSE_GROUP_OPS
        && bytes + size <= REPROPOSE_GROUP_BYTES
}

/// Leader-takeover progress (Fig. 6). The unresolved writes `(l.cmt,
/// l.lst]` are the commit queue, all of it, queued when the takeover
/// began: what a follower vouches for commits on its word, and the rest
/// is re-proposed through the normal replication protocol (Fig. 6 line
/// 9) to a follower that does not hold it.
pub(crate) struct Takeover {
    /// The followers that caught up in this epoch, each with the end of
    /// the tail prefix its log vouched for (`Lsn::ZERO`: none).
    caught_up: BTreeMap<NodeId, Lsn>,
    /// How many writes the tail holds.
    tail: usize,
    /// Every client a write of the tail names, told who leads once the
    /// cohort opens.
    clients: BTreeSet<Addr>,
    /// The groups `(first LSN, count)` the tail is re-proposed in, cut
    /// from the queue by [`cut_groups`] the first time a follower lacks
    /// part of it, and re-sent as cut on every retry; empty until then.
    /// Nothing of the tail commits before that cut: a commit needs
    /// vouches, and only a follower that vouches for all of it is sent
    /// none of it.
    groups: Vec<(Lsn, usize)>,
}

impl Takeover {
    /// Who has caught up and how much tail there was (stall reports).
    pub(super) fn describe(&self) -> String {
        let (caught_up, ops, groups) = (&self.caught_up, self.tail, self.groups.len());
        format!("caught_up={caught_up:?} ops={ops} groups_cut={groups}")
    }
}

/// The groups `(first LSN, count)` that `writes`, in LSN order, travel
/// in, cut where they stop [extending](extends) one.
pub(super) fn cut_groups<'a>(
    writes: impl IntoIterator<Item = &'a PendingWrite>,
) -> Vec<(Lsn, usize)> {
    let mut groups: Vec<(Lsn, usize)> = Vec::new();
    let mut bytes = 0;
    for pw in writes {
        let size = pw.op.approx_size();
        match groups.last_mut() {
            Some((first, ops)) if extends(*first, *ops, bytes, pw.lsn, size) => {
                *ops += 1;
                bytes += size;
            }
            _ => {
                groups.push((pw.lsn, 1));
                bytes = size;
            }
        }
    }
    groups
}

/// The maximal runs `(first LSN, count)` of consecutive sequence numbers
/// in one epoch among `lsns`, in LSN order: the cut [`cut_groups`]
/// makes, without its caps.
fn runs_of(lsns: impl IntoIterator<Item = Lsn>) -> Vec<(Lsn, u64)> {
    let mut runs: Vec<(Lsn, u64)> = Vec::new();
    for lsn in lsns {
        match runs.last_mut() {
            Some((start, n)) if start.epoch() == lsn.epoch() && start.seq() + *n == lsn.seq() => {
                *n += 1;
            }
            _ => runs.push((lsn, 1)),
        }
    }
    runs
}

/// A propose a follower could not log yet (it starts past the follower's
/// frontier), kept until catch-up closes the gap.
pub(crate) struct Parked {
    pub(super) from: NodeId,
    pub(super) epoch: Epoch,
    pub(super) ops: Arc<[WriteOp]>,
    pub(super) committed: Lsn,
    pub(super) closed_ts: u64,
}

impl RangeReplica {
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
            // spinlint: allow(E1) -- gone already, or our expired session took it
            let _ = rt.coord.delete(&old);
        }
        // Fig. 7 line 4: advertise n.lst in a sequential ephemeral znode,
        // with the epoch this round elects a successor to.
        let lst = rt.wal.state(self.range).last_lsn;
        self.round = rt.coord.read_epoch(&paths.epoch);
        let data = format!("{}:{}:{}", rt.id, lst.as_u64(), self.round);
        // On session trouble the election timer retries.
        let prefix = format!("{}/c-", paths.candidates);
        if let Ok(path) = rt.coord.create_ephemeral_sequential(&prefix, data.into_bytes()) {
            self.candidate_path = Some(path);
        }
        out.set_timer(TimerKind::ElectionRetry, ELECTION_RETRY);
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
        self.round = rt.coord.read_epoch(&paths.epoch);
        // spinlint: allow(E1) -- check_election repeats it; the retry timer re-drives
        let _ = rt.coord.get_children_watch(&paths.candidates);
        out.set_timer(TimerKind::ElectionRetry, ELECTION_RETRY);
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
        // Candidate entries: (lst desc, seq asc) per node id (a node that
        // stood twice in one epoch may briefly have two; keep its best).
        // A candidate deletes its znode only when it next stands, so one
        // that stood in an earlier round and has logged since still shows
        // its old `lst`: counting it could elect a leader short of a
        // committed write. Only candidacies of this round's epoch, or a
        // later one, count.
        let mut best: BTreeMap<NodeId, (u64, u64)> = BTreeMap::new();
        for child in &children {
            let full = format!("{}/{child}", paths.candidates);
            let Ok((data, stat)) = rt.coord.get_data(&full) else { continue };
            let Some((node, lst, round)) = parse_candidate(&data) else { continue };
            if round < self.round {
                continue;
            }
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
            self.take_leader_znode(rt, &paths, out);
        } else {
            // Fig. 7 line 11: learn the new leader (it may not have
            // written /r/leader yet; the exists-watch wakes us).
            match rt.coord.get_data_watch(&paths.leader) {
                Ok(data) => {
                    let leader = parse_node(&data);
                    self.follow_named(rt, leader, out);
                }
                Err(_) => {
                    // spinlint: allow(E1) -- exists fails only on a malformed path
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
        // spinlint: allow(E1) -- gone already, or our session expired: create fails too
        let _ = rt.coord.delete(&paths.leader); // the departed leader's ephemeral
        self.take_leader_znode(rt, &paths, out);
    }

    /// Create the cohort's `/leader` znode and take over, or — someone
    /// beat us to it — follow whoever holds it.
    fn take_leader_znode(&mut self, rt: &mut Runtime<'_>, paths: &CohortPaths, out: &mut Outbox) {
        match rt.coord.create_ephemeral(&paths.leader, rt.id.to_string().into_bytes()) {
            Ok(()) => self.begin_takeover(rt, out),
            Err(_) => {
                if let Ok(data) = rt.coord.get_data_watch(&paths.leader) {
                    let leader = parse_node(&data);
                    if leader != rt.id {
                        self.follow_named(rt, leader, out);
                    }
                }
            }
        }
    }

    fn begin_takeover(&mut self, rt: &mut Runtime<'_>, out: &mut Outbox) {
        let st = rt.wal.state(self.range);
        let l_cmt = self.last_committed.max(st.last_committed);
        let l_lst = st.last_lsn;
        // Fig. 6 line 9's input: the unresolved writes (l.cmt, l.lst].
        // Our queue holds them as the batches they were proposed in, each
        // naming the client waiting on it — answered once it commits
        // under us — and the log is read only for what the queue lacks,
        // such as the whole tail after a restart. The records are
        // already durable in our own log, so the entries are
        // self-forced. A tail that cannot be read poisons the node:
        // opening the cohort without it would lose acknowledged writes.
        if self.requeue(rt, true, l_cmt, l_lst).is_none() {
            return;
        }

        let paths = CohortPaths::new(self.range);
        // Bump the epoch in the coordination service before accepting any
        // new writes (Appendix B).
        let old_epoch = rt.coord.read_epoch(&paths.epoch);
        let new_epoch = old_epoch + 1;
        rt.coord.write_epoch(&paths.epoch, new_epoch);

        self.role = Role::LeaderTakeover;
        self.epoch = new_epoch;
        self.leader = Some(rt.id);
        self.last_committed = l_cmt;
        // Seed the commit-timestamp clock above everything this cohort
        // may already have stamped: applied history (the store) plus the
        // unresolved tail we are about to re-propose (which keeps its
        // original stamps). New writes then get strictly larger
        // timestamps, preserving ts-order == LSN-order across the
        // takeover.
        let tail_ts = self.cq.iter().map(|pw| pw.op.timestamp).max().unwrap_or(0);
        // `closed_ts` joins the seed: whatever cut we (as a follower)
        // already served locally must stay closed under our leadership —
        // no new write may ever be stamped at or below it.
        self.last_ts = self.last_ts.max(self.store.max_ts()).max(tail_ts).max(self.closed_ts);
        self.served_ts = self.served_ts.max(self.closed_ts);
        self.unproposed.clear();
        self.proposing = false;
        self.proposed_at_tick = Lsn::ZERO;
        let tail = self.cq.len();
        // The clients come from the ops themselves (`WriteOp::origin`),
        // not from `PendingOp::origin`: a write a follower kept across a
        // leader change is answered by no one, but its client still
        // waits, and the notice tells it where to re-send.
        let op_origin = |op: &WriteOp| op.origin.map(|(addr, _)| addr);
        let clients = self.cq.iter().filter_map(|pw| op_origin(&pw.op)).collect();
        self.takeover =
            Some(Takeover { caught_up: BTreeMap::new(), tail, clients, groups: Vec::new() });
        self.last_assigned = l_lst;
        let hello = self.hello(rt.id);
        for &peer in &self.peers {
            out.send(peer, hello.clone());
        }
        // If we are somehow alone (all peers dead), we must wait: the
        // cohort stays unavailable until a majority participates. The
        // election-retry timer keeps us checking — arm it here too, since
        // a takeover entered by hand-off (claim_leadership) never ran an
        // election and would otherwise have no timer to re-drive it.
        out.set_timer(TimerKind::ElectionRetry, ELECTION_RETRY);
    }

    /// Fig. 6 lines 8 and 10: open the cohort once at least one follower
    /// has caught up and the whole tail has committed — on a follower's
    /// vouch ([`Self::on_caught_up`]), or on the acks of what it was
    /// re-proposed — and tell the tail's clients that `me` leads.
    pub(crate) fn maybe_finish_takeover(&mut self, me: NodeId, out: &mut Outbox) -> FollowUp {
        let mut fu = FollowUp::default();
        if self.takeover.as_ref().is_none_or(|t| t.caught_up.is_empty()) || !self.cq.is_empty() {
            return fu;
        }
        // Fig. 6 line 10: open the cohort for writes. New LSNs are
        // (new_epoch, seq) with seq continuing past l.lst, so every new
        // LSN exceeds every LSN previously used in the cohort.
        let epoch = self.epoch;
        let t = self.takeover.take().expect("still in takeover");
        self.role = Role::Leader;
        self.last_assigned = Lsn::new(epoch, self.last_assigned.seq());
        // Open with a commit when a tail was resolved: the followers
        // hold it queued, and their committed watermark is what vouches
        // for a log across the epoch boundary the next propose crosses —
        // left a commit period stale, it would send them back to fetch
        // the tail they just vouched for or acknowledged. Only the
        // followers that caught up in this epoch get it: only their
        // queues are known to hold our tail and nothing else.
        if t.tail > 0 {
            let (range, lsn, sent) = (self.range, self.last_committed, Lsn::ZERO);
            for &peer in t.caught_up.keys() {
                out.send(peer, PeerMsg::Commit { range, epoch, lsn, closed_ts: 0, sent });
            }
        }
        // Tell every client of the tail who leads. Their `WriteOk`s left
        // before this on the same links, so a client whose write was in
        // the tail has its answer already; one still waiting on a write
        // the predecessor never proposed re-sends it here at once.
        for &client in &t.clients {
            out.reply(client, ClientReply::Leader { range: self.range, leader: me });
        }
        fu.redispatch = std::mem::take(&mut self.blocked_writes);
        fu
    }

    /// Re-drive a stalled takeover (fired by the election-retry timer).
    ///
    /// `begin_takeover` sends `LeaderHello` once, and a caught-up
    /// follower is sent the tail past its vouch once. Any of those lost
    /// to a partition or a crashed peer would otherwise wedge the cohort
    /// forever, so each is sent again. Re-sending is safe —
    /// `on_leader_hello` is idempotent (a same-epoch hello restarts the
    /// follower's catch-up: it vouches again, or leaves an outstanding
    /// request be) and a follower that already holds a re-sent group
    /// logs nothing and acknowledges it again.
    pub(crate) fn retry_takeover(&mut self, rt: &mut Runtime<'_>, out: &mut Outbox) -> FollowUp {
        let Some(t) = self.takeover.as_ref().filter(|_| self.role == Role::LeaderTakeover) else {
            return FollowUp::default();
        };
        let hello = self.hello(rt.id);
        for &peer in &self.peers {
            if !t.caught_up.contains_key(&peer) {
                out.send(peer, hello.clone());
            }
        }
        let caught_up: Vec<(NodeId, Lsn)> = t.caught_up.iter().map(|(&f, &h)| (f, h)).collect();
        for (follower, held) in caught_up {
            self.send_pending(rt, follower, held, 0, out);
        }
        self.maybe_finish_takeover(rt.id, out)
    }

    /// Our hello: the catch-up verdict an empty reply would carry — the
    /// committed watermark and the unresolved tail past it — and whether
    /// a follower at zero would be sent a store.
    fn hello(&self, leader: NodeId) -> PeerMsg {
        let (range, epoch, up_to) = (self.range, self.epoch, self.last_committed);
        let store = &self.store;
        let store_empty = store.memtable_len() == 0
            && store.table_count() == 0
            && store.gc_floor() == Timestamp::MAX;
        PeerMsg::LeaderHello {
            range,
            epoch,
            leader,
            up_to,
            tail: self.takeover_runs(),
            store_empty,
        }
    }

    /// A taking-over leader's unresolved tail past `l.cmt`, as runs: its
    /// queue, which holds exactly the uncommitted tail. Empty from a
    /// settled leader.
    fn takeover_runs(&self) -> Vec<(Lsn, u64)> {
        if self.role == Role::LeaderTakeover {
            runs_of(self.cq.iter().map(|pw| pw.lsn))
        } else {
            Vec::new()
        }
    }

    /// Follow the sender of a hello. Committed through its `up_to`, we
    /// need no records: we vouch for its `tail` on the hello itself,
    /// through the walk an empty catch-up reply runs. Behind it, we ask;
    /// at zero we ask too unless its store is empty, since
    /// `serve_catchup` sends a follower at zero the leader's store.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_leader_hello(
        &mut self,
        rt: &mut Runtime<'_>,
        epoch: Epoch,
        leader: NodeId,
        up_to: Lsn,
        tail: &[(Lsn, u64)],
        store_empty: bool,
        out: &mut Outbox,
    ) {
        if epoch < self.epoch || leader == rt.id {
            return;
        }
        self.follow(rt, leader, out);
        self.epoch = self.epoch.max(epoch);
        let lacks_nothing =
            self.last_committed >= up_to && (store_empty || !self.last_committed.is_zero());
        if lacks_nothing && epoch == self.epoch {
            // No records, and no fragments whose GC floor to take in.
            let (records, fragments, gc_floor) = (Vec::new(), Vec::new(), u64::MAX);
            self.on_catchup_records(
                rt, leader, epoch, records, fragments, gc_floor, up_to, tail, out,
            );
        } else {
            self.ask_catchup(rt, leader, out);
        }
    }

    /// Follow `leader` and ask it for catch-up.
    pub(crate) fn become_follower(
        &mut self,
        rt: &mut Runtime<'_>,
        leader: NodeId,
        out: &mut Outbox,
    ) {
        self.follow(rt, leader, out);
        self.ask_catchup(rt, leader, out);
    }

    /// Follow `leader`, named by the coordination service. A candidate
    /// asks nothing: the winner's hello carries the catch-up verdict. A
    /// request sent now would be served after the cohort opens, and ship
    /// the whole tail the takeover just committed. A lost hello is sent
    /// again while the takeover stalls; once the cohort is open, a parked
    /// propose or a commit message asks instead.
    pub(crate) fn follow_named(&mut self, rt: &mut Runtime<'_>, leader: NodeId, out: &mut Outbox) {
        if self.role == Role::Electing {
            self.follow(rt, leader, out);
        } else {
            self.become_follower(rt, leader, out);
        }
    }

    /// Become `leader`'s follower, catching up: set aside what the last
    /// leader left queued — the catch-up verdict takes back what the new
    /// leader's tail lists — and drop what it left parked or blocked.
    /// Asks for nothing.
    fn follow(&mut self, rt: &mut Runtime<'_>, leader: NodeId, out: &mut Outbox) {
        let paths = CohortPaths::new(self.range);
        let epoch = rt.coord.read_epoch(&paths.epoch).max(self.epoch);
        // A request already sent to this leader in this epoch is
        // answered with all a second one would be: a re-sent hello that
        // finds it outstanding leaves it be.
        let asked =
            self.leader == Some(leader) && self.catchup_asked.is_some_and(|(_, e)| e == epoch);
        self.role = Role::CatchingUp;
        self.leader = Some(leader);
        self.epoch = epoch;
        self.cq.set_aside();
        self.unproposed.clear();
        self.proposing = false;
        // Redirect buffered writes; we are not the leader. Held
        // conditional rejections depended on pending writes we just
        // dropped; their fate is unknown — redirect, the client retries.
        let blocked = std::mem::take(&mut self.blocked_writes).into_iter().map(|(a, r)| (a, r.req));
        let held =
            std::mem::take(&mut self.deferred_mismatches).into_iter().map(|(_, a, r, _)| (a, r));
        for (from, req) in blocked.chain(held) {
            out.reply(from, ClientReply::err(req, ClientError::NotLeader { hint: Some(leader) }));
        }
        // A fresh start with this leader: whatever was parked is either
        // in the history it will ship or among the pending writes it
        // re-sends behind that.
        self.parked.clear();
        if !asked {
            self.catchup_asked = None;
        }
    }

    /// Ask `leader` for everything past our committed watermark — unless
    /// a request is already outstanding. The reply carries the whole
    /// committed history and is followed by the leader's pending writes,
    /// so a second request buys nothing while the first can still be
    /// answered; one unanswered for [`ELECTION_RETRY`] is presumed lost.
    pub(super) fn ask_catchup(&mut self, rt: &Runtime<'_>, leader: NodeId, out: &mut Outbox) {
        if self.catchup_asked.is_some_and(|(at, _)| rt.now < at.saturating_add(ELECTION_RETRY)) {
            return;
        }
        self.catchup_asked = Some((rt.now, self.epoch));
        self.catchup_requests += 1;
        out.send(
            leader,
            PeerMsg::CatchupReq { range: self.range, epoch: self.epoch, from: self.last_committed },
        );
    }

    /// Park a propose that starts past what we hold, and demand catch-up
    /// — once. The leader ships committed history and re-sends its
    /// pending proposals behind it, but on a multi-core node those (250
    /// us of service each) finish *before* the reply (2 ms) they were
    /// sent after. Dropped, each would be missing again when the reply
    /// lands and the next propose would ask again, without end under
    /// load; parked, they are replayed once it has.
    pub(super) fn park(&mut self, rt: &Runtime<'_>, first: Lsn, propose: Parked, out: &mut Outbox) {
        self.role = Role::CatchingUp;
        if self.parked.len() >= CATCHUP_PARK_GROUPS {
            self.parked.pop_first();
        }
        let from = propose.from;
        self.parked.insert(first, propose);
        self.ask_catchup(rt, from, out);
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
    /// groups cut from the queue ([`cut_groups`]), whatever groups the
    /// writes first travelled in; the follower keeps of each the part it
    /// does not hold yet. A taking-over leader's queue holds only its
    /// tail, which the reply names: the follower vouches for the part it
    /// holds and is sent the rest once it confirms.
    pub(crate) fn on_catchup_req(
        &mut self,
        rt: &mut Runtime<'_>,
        follower: NodeId,
        f_cmt: Lsn,
        out: &mut Outbox,
    ) {
        if !self.role.leads() {
            return; // not the leader (any more); the follower will re-learn
        }
        self.serve_catchup(rt, follower, f_cmt, out);
        if self.role == Role::LeaderTakeover {
            return;
        }
        let closed_ts = self.advertised_closed_ts(rt);
        self.send_pending(rt, follower, Lsn::ZERO, closed_ts, out);
    }

    /// Send `follower` the proposed writes past `past` and past what has
    /// committed, one propose a group, each op copied out of the queue
    /// once. The writes from `unproposed[0]` on are left to the next
    /// flush, which proposes them to every peer. A takeover cuts its tail
    /// once, so that a retry re-sends the same groups, and passes
    /// `closed_ts` 0: closed timestamps resume with steady-state traffic.
    fn send_pending(
        &mut self,
        rt: &Runtime<'_>,
        follower: NodeId,
        past: Lsn,
        closed_ts: u64,
        out: &mut Outbox,
    ) {
        let past = past.max(self.last_committed);
        if self.cq.span().is_none_or(|(_, last)| last <= past) {
            return; // the follower lacks nothing
        }
        let end = self.unproposed.first().copied().unwrap_or(Lsn::MAX);
        let proposed = || self.cq.iter().take_while(move |pw| pw.lsn < end);
        if let Some(t) = self.takeover.as_mut().filter(|t| t.groups.is_empty()) {
            debug_assert_eq!(self.cq.len(), t.tail, "nothing of the tail committed yet");
            t.groups = cut_groups(proposed());
        }
        let cut;
        let groups = match &self.takeover {
            Some(t) => &t.groups,
            None => {
                cut = cut_groups(proposed());
                &cut
            }
        };
        for &(first, ops) in groups {
            let last = Lsn::new(first.epoch(), first.seq() + ops as u64 - 1);
            if last <= past {
                continue;
            }
            // The part past `past`, as `group_past` keeps it.
            let start = if past < first { first } else { past.next() };
            let lacking: Arc<[WriteOp]> = self
                .cq
                .range(start..=last)
                .map(|pw| WriteOp { origin: pw.op.origin(), ..WriteOp::clone(&pw.op) })
                .collect();
            self.send_group(rt, [follower], &(start, lacking), closed_ts, out);
        }
    }

    /// Queue again the writes our log indexes in `(from, to]`, in LSN
    /// order ([`crate::commit_queue::CommitQueue::requeue`]): in a
    /// `takeover` our pending writes, self-forced, and at a catch-up
    /// verdict the writes we set aside. Each one the queue holds comes
    /// back as itself — the batch it was proposed in — and only the runs
    /// it lacks are read back from the log, where a write names no
    /// client. What it holds that the log does not index (an orphan
    /// truncated, a leader's write never logged) is dropped. `None` once
    /// an unreadable log has poisoned the node.
    fn requeue(&mut self, rt: &mut Runtime<'_>, takeover: bool, from: Lsn, to: Lsn) -> Option<()> {
        let indexed = rt.wal.indexed_lsns(self.range, from, to);
        let indexed = rt.fail_stop(indexed)?;
        let (wal, range) = (&*rt.wal, self.range);
        let requeued = self.cq.requeue(takeover, from, indexed, |past, last, sink| {
            wal.replay_batches(range, past, last, sink)
        });
        rt.fail_stop(requeued)
    }

    /// Ship `(f_cmt, l.cmt]` from the log, or the rows the store holds
    /// past `f_cmt` (§6.1) when the log no longer reaches back to `f_cmt`
    /// or `f_cmt` is zero, and name a takeover's unresolved tail past
    /// `l.cmt`: its queue, which holds exactly the uncommitted tail. A
    /// follower at zero vouches for nothing — a move's joiner, or a
    /// replica rebuilt at claim zero — and a leader rebuilt at claim zero
    /// holds assembled rows its own log never held, so only its store has
    /// them all. Rows the store cannot read are not "no rows": an empty
    /// reply up to `up_to` would have the follower claim a watermark it
    /// holds nothing for, so the node fail-stops instead.
    fn serve_catchup(&self, rt: &Runtime<'_>, follower: NodeId, f_cmt: Lsn, out: &mut Outbox) {
        let up_to = self.last_committed;
        let logged =
            if f_cmt.is_zero() { None } else { rt.wal.read_range(self.range, f_cmt, up_to).ok() };
        let (records, fragments) = match logged {
            Some(records) => (records, Vec::new()),
            None => {
                let Some(fragments) = rt.fail_stop(self.store.rows_since(f_cmt)) else { return };
                (Vec::new(), fragments)
            }
        };
        let msg = PeerMsg::CatchupRecords {
            range: self.range,
            epoch: self.epoch,
            records,
            fragments,
            gc_floor: self.store.gc_floor(),
            up_to,
            tail: self.takeover_runs(),
        };
        out.send(follower, msg);
    }

    /// Follower side of catch-up completion: ingest, **logically
    /// truncate** orphaned records (§6.1.1), vouch for the part of a
    /// taking-over leader's `tail` our log holds, confirm, replay the
    /// park.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_catchup_records(
        &mut self,
        rt: &mut Runtime<'_>,
        leader: NodeId,
        epoch: Epoch,
        records: Vec<(Lsn, WriteOp)>,
        fragments: Vec<(Key, Row)>,
        gc_floor: Timestamp,
        up_to: Lsn,
        tail: &[(Lsn, u64)],
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
        //
        // The walk goes on along a taking-over leader's unresolved tail
        // past `up_to`: `vouched` ends the longest prefix of it that we
        // hold — committed, or in our index. An LSN names one record
        // (each epoch has one leader) and the index leaves out what was
        // truncated, so holding the LSN is holding the write. Our own
        // records among that prefix that the tail does not list are
        // orphans too: the leader commits through `vouched` on our word,
        // and they must not replay below it.
        debug_assert!(records.windows(2).all(|w| w[0].0 < w[1].0), "records in LSN order");
        let own = rt.wal.indexed_lsns(self.range, f_cmt, st.last_lsn);
        let Some(mut own) = rt.fail_stop(own) else { return };
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
        while let Some(orphan) = next.filter(|o| *o <= up_to) {
            orphans.push(orphan);
            next = own.next();
        }
        let mut vouched = Lsn::ZERO;
        let mut between = Vec::new();
        'tail: for &(first, count) in tail {
            for seq in first.seq()..first.seq() + count {
                let lsn = Lsn::new(first.epoch(), seq);
                if lsn > f_cmt {
                    while let Some(orphan) = next.filter(|o| *o < lsn) {
                        between.push(orphan);
                        next = own.next();
                    }
                    if next != Some(lsn) {
                        break 'tail;
                    }
                    next = own.next();
                    orphans.append(&mut between);
                }
                vouched = lsn;
            }
        }
        drop(own);
        let truncated = rt.wal.truncate_logically(self.range, &orphans);
        if rt.fail_stop(truncated).is_none() {
            return;
        }

        // Append records we do not have, apply everything in LSN order.
        // A refused append poisons the node: claiming durable catch-up
        // (`CaughtUp` below) over a hole in the log would let a later
        // election elect us with committed writes missing.
        let mut appended = false;
        for ((lsn, op), held) in records.iter().zip(held) {
            if !held {
                let logged = rt.wal.append(&LogRecord::write(self.range, *lsn, op.clone()));
                if rt.fail_stop(logged).is_none() {
                    return;
                }
                rt.forces.add_bytes(op.approx_size() as u64 + 32);
                appended = true;
            }
            self.store.apply(op, *lsn);
        }
        if !fragments.is_empty() {
            // The leader's compaction pruned the fragments at its floor:
            // below it, what this store would serve is a mix of its own
            // old versions and the leader's new ones.
            self.store.set_gc_floor(gc_floor);
            for (key, frag) in &fragments {
                self.store.ingest_fragment(key, frag);
            }
            // SSTable-based catch-up: make it durable by flushing and
            // advancing the checkpoint (the shipped rows exist in the
            // leader's SSTables, not as replayable log records).
            // A flush that fails leaves them in the memtable alone:
            // fail-stop before the checkpoint, the note or `CaughtUp`
            // claims what a crash would lose.
            let Some(flushed) = rt.fail_stop(self.store.flush()) else { return };
            // A checkpoint that fails to save replays more, never less.
            // spinlint: allow(E1) -- a lost checkpoint only replays more
            let _ = rt.wal.set_checkpoint(self.range, flushed.map_or(up_to, |f| f.max(up_to)));
        }
        self.last_committed = up_to.max(self.last_committed);
        // The note rides the catch-up's own force, uncharged as ever.
        appended |= self.note_commit(rt, up_to, 0);
        self.role = Role::Follower;
        self.catchup_asked = None;
        // The vouched tail past what we committed or queued joins the
        // queue as this leader's proposals: the writes we set aside when
        // we met it, kept, and from our own log what they lack. Its
        // commit messages drain them here. The rest of what we set aside
        // (orphans just truncated, a tail past the vouch) is dropped.
        let tip = self.held_tip();
        if self.requeue(rt, false, tip, vouched.max(tip)).is_none() {
            return;
        }

        // A vouch, like an ack, speaks for durable records only: the
        // writes we hold may still sit unforced in our log.
        let (range, held) = (self.range, vouched);
        if appended || !held.is_zero() {
            rt.forces.request(Waiter::CatchupDone { range, epoch, up_to, held, leader }, out);
        } else {
            out.send(leader, PeerMsg::CaughtUp { range, epoch, at: up_to, held });
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

    /// Leader: `follower` confirmed the catch-up reply of our `epoch`
    /// durable through `at`, and vouched for our unresolved tail through
    /// `held`. In a takeover it is sent the rest of the tail at once, in
    /// groups shaped as steady-state proposes, and its vouch counts as its
    /// cumulative ack: the tail up to `held` commits. A move's learner
    /// confirming is what commits the move.
    pub(crate) fn on_caught_up(
        &mut self,
        rt: &mut Runtime<'_>,
        follower: NodeId,
        epoch: Epoch,
        at: Lsn,
        held: Lsn,
        out: &mut Outbox,
    ) -> FollowUp {
        let mut fu = FollowUp::default();
        // A confirmation from another epoch answered another leader's
        // reply: it vouches for nothing in this one.
        if epoch != self.epoch {
            return fu;
        }
        if let Some(t) = self.takeover.as_mut().filter(|_| self.role == Role::LeaderTakeover) {
            t.caught_up.insert(follower, held);
            self.send_pending(rt, follower, held, 0, out);
            fu.merge_from(self.maybe_finish_takeover(rt.id, out));
            if !held.is_zero() {
                fu.merge_from(self.on_ack(rt, follower, epoch, held, out));
            }
        }
        if let Some(m) = self.moving.as_mut().filter(|m| m.to == follower) {
            m.held = m.held.max(at);
            fu.move_target_caught_up = self.role.leads();
        }
        fu
    }
}

fn parse_candidate(data: &[u8]) -> Option<(NodeId, u64, Epoch)> {
    let s = std::str::from_utf8(data).ok()?;
    let (node, rest) = s.split_once(':')?;
    let (lst, round) = rest.split_once(':')?;
    Some((node.parse().ok()?, lst.parse().ok()?, round.parse().ok()?))
}
