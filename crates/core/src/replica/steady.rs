//! The steady write path (Fig. 4, §5): the leader stamps a client write,
//! logs it and proposes it in a group, counts acks and commits in LSN
//! order; a follower logs a propose, acks it once forced, and applies
//! the commit messages that follow.

use std::sync::Arc;

use spinnaker_common::{CellOp, Epoch, Lsn, NodeId, Result, WriteOp};
use spinnaker_wal::LogRecord;

use super::{group_last, group_past, FollowUp, Group, Parked, RangeReplica, Role, Runtime, Waiter};
use crate::commit_queue::{PendingOp, PendingWrite};
use crate::messages::{Addr, ClientError, ClientOp, ClientReply, ClientRequest, Outbox, PeerMsg};
use crate::partition::Barrier;

/// What a commit note adds to the bytes the next force is charged for.
const NOTE_BYTES: u64 = 24;

impl RangeReplica {
    pub(crate) fn on_write(
        &mut self,
        rt: &mut Runtime<'_>,
        from: Addr,
        req: ClientRequest,
        out: &mut Outbox,
    ) {
        match self.role {
            Role::Leader if !self.barrier_pending() => {}
            Role::Leader | Role::LeaderTakeover => {
                // Hold writes while takeover runs or a split/merge drains
                // to its barrier; they re-dispatch (and re-route) once it
                // completes.
                self.blocked_writes.push((from, req));
                return;
            }
            Role::Follower | Role::CatchingUp => {
                let err = ClientError::NotLeader { hint: self.leader };
                return out.reply(from, ClientReply::err(req.req, err));
            }
            Role::Electing | Role::Offline => {
                return out.reply(from, ClientReply::err(req.req, ClientError::Unavailable));
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
                None => {
                    let Some(cv) = rt.fail_stop(self.store.get_column(&key, col)) else { return };
                    cv.map_or(0, |cv| cv.version)
                }
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
        // The waiting client rides along, so whoever commits the write —
        // we, or a follower that takes over from us — can answer it.
        let origin = Some((from, req.req));
        let op = PendingOp::Own(WriteOp { key, cells, timestamp: ts, origin });
        self.cq.insert(PendingWrite { lsn, op }, false);
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
        let group = (first, self.cq.share_from(first));
        debug_assert_eq!(group.1.len(), self.unproposed.len(), "the tail is the unproposed writes");
        self.unproposed.clear();
        // Fail-stop: a leader that cannot log must neither propose nor
        // ack — the batch stays uncommitted and its clients time out.
        if self.log_group(rt, &group).is_none() {
            return;
        }
        rt.forces.request(Waiter::LeaderWrite { range: self.range, lsn: last }, out);
        self.proposing = true;
        let closed_ts = self.advertised_closed_ts(rt);
        self.send_group(rt, self.peers.iter().copied(), &group, closed_ts, out);
    }

    /// Log `group` as one batch record and charge the next force for it;
    /// `None` once a refused append has failed the node stop.
    fn log_group(&self, rt: &mut Runtime<'_>, (first, ops): &Group) -> Option<()> {
        let appended = rt.wal.append(&LogRecord::batch(self.range, *first, ops.clone()));
        rt.fail_stop(appended)?;
        rt.forces.add_bytes(ops.iter().map(|op| op.approx_size() as u64 + 8).sum::<u64>() + 32);
        Some(())
    }

    /// Queue every write of `group` as pending, sharing its batch.
    fn queue_group(&mut self, (first, ops): &Group) {
        for index in 0..ops.len() {
            let pw = PendingWrite {
                lsn: Lsn::new(first.epoch(), first.seq() + index as u64),
                op: PendingOp::Shared { batch: ops.clone(), index },
            };
            self.cq.insert(pw, false);
        }
    }

    /// Send `group` as one propose to each of `to`.
    pub(super) fn send_group(
        &self,
        rt: &Runtime<'_>,
        to: impl IntoIterator<Item = NodeId>,
        (first, ops): &Group,
        closed_ts: u64,
        out: &mut Outbox,
    ) {
        let committed = if rt.cfg.piggyback_commits { self.last_committed } else { Lsn::ZERO };
        for peer in to {
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
                if from == rt.id {
                    return;
                }
                self.role = Role::CatchingUp;
                self.leader = Some(from);
                self.unproposed.clear();
                self.proposing = false;
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
        // queue is set aside whenever the leader changes). The log tip
        // vouches too, but only within its own epoch: across an epoch
        // boundary a leftover higher-seq tail from the old epoch may be
        // divergent.
        let st = rt.wal.state(self.range);
        let tip = self.held_tip();
        let log_tip = if first.epoch() == st.last_lsn.epoch() { st.last_lsn.seq() } else { 0 };
        if first.seq() > log_tip.max(tip.seq()) + 1 {
            self.park(rt, first, Parked { from, epoch, ops, committed, closed_ts }, out);
            return;
        }
        // Keep only the suffix past `tip`. The leader re-sends pending
        // writes (serving a catch-up, nudging a takeover) in groups it
        // cuts from its commit queue, which share no boundaries with the
        // groups they first travelled in; a parked group may straddle the
        // history a catch-up reply just delivered. What is at or below
        // `tip` is already in our log.
        let last = group_last(first, &ops);
        let group = group_past(&(first, ops), tip);
        // Run the normal replication protocol even when the record
        // already sits in our log from the previous epoch (a takeover
        // re-proposal, Fig. 6 line 9): append and force again.
        // Re-appending an identical record is idempotent under replay.
        // The whole group lands as ONE batch record (atomic under its
        // frame checksum) with ONE force; the single cumulative ack at
        // the last LSN vouches for every op in it — and, the log being
        // sequential, for the part of the group we already held.
        if let Some(group) = group {
            // Fail-stop, like a leader that cannot log: the force below
            // would succeed and acknowledge a group that is not in the log.
            if self.log_group(rt, &group).is_none() {
                return;
            }
            self.queue_group(&group);
        }
        rt.forces
            .request(Waiter::FollowerWrite { range: self.range, lsn: last, leader: from }, out);
        if !committed.is_zero() {
            self.commit_and_close(rt, committed, closed_ts);
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
        if epoch != self.epoch || !self.role.leads() {
            return FollowUp::default();
        }
        // A cohort-movement learner's acks never count toward the *old*
        // cohort's quorum: a commit vouched for only by leader + learner
        // would not survive the old majority's failure rules. They tell a
        // departing leader waiting at its drained barrier what it holds.
        if let Some(m) = self.moving.as_mut().filter(|m| m.to == from) {
            m.held = m.held.max(lsn);
            let move_target_caught_up = m.draining && self.cq.is_empty();
            return FollowUp { move_target_caught_up, ..FollowUp::default() };
        }
        self.cq.ack(lsn, from);
        self.try_commit(rt, out)
    }

    /// Leader: drain every write that now has its own force + a quorum of
    /// acks, in LSN order; apply, and answer the client each op names —
    /// also for a write a predecessor accepted, whose client a takeover
    /// found on its queue. Reports drained split/merge barriers and
    /// takeover completion to the node runtime.
    pub(crate) fn try_commit(&mut self, rt: &mut Runtime<'_>, out: &mut Outbox) -> FollowUp {
        let mut fu = FollowUp::default();
        if !self.role.leads() {
            return fu;
        }
        // Majority of 3 = leader + 1 follower ack.
        let needed_acks = rt.ring.replication() / 2;
        for pw in self.cq.drain_committable(self.last_committed, needed_acks) {
            self.store.apply(&pw.op, pw.lsn);
            self.last_committed = pw.lsn;
            if let Some((addr, req)) = pw.op.origin() {
                // The commit timestamp rides the ack: the client learns
                // exactly which snapshot cuts include this write, and
                // which node leads.
                let (version, ts, leader) = (pw.lsn.as_u64(), pw.op.timestamp, rt.id);
                out.reply(addr, ClientReply::WriteOk { req, version, ts, leader });
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
            fu.merge_from(self.maybe_finish_takeover(rt.id, out));
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
                    let (range, sent) = (self.range, Lsn::ZERO);
                    for &peer in &self.peers {
                        out.send(
                            peer,
                            PeerMsg::Commit { range, epoch, lsn: barrier, closed_ts, sent },
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
                                clock: self.clock(),
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
        if self.role.leads() {
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
    ///
    /// A propose lost to a partition leaves a hole nothing else reveals
    /// when no later propose follows it (a leader whose next writes wait
    /// on that one, behind a barrier or a held conditional rejection).
    /// `sent` names what the leader had proposed a commit period ago: a
    /// tip short of it is such a hole, and catch-up re-sends the
    /// leader's pending writes. A tip that reaches it while the leader's
    /// watermark does not means the acks were lost instead, and nothing
    /// later would carry a cumulative one: we acknowledge `sent` again,
    /// once a force has made what we hold durable.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_commit_msg(
        &mut self,
        rt: &mut Runtime<'_>,
        from: NodeId,
        epoch: Epoch,
        lsn: Lsn,
        closed_ts: u64,
        sent: Lsn,
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
        self.commit_and_close(rt, lsn, closed_ts);
        if sent.seq() > self.held_tip().seq() {
            self.role = Role::CatchingUp;
            self.ask_catchup(rt, from, out);
        } else if sent.seq() > lsn.seq() {
            let range = self.range;
            rt.forces.request(Waiter::FollowerWrite { range, lsn: sent, leader: from }, out);
        }
    }

    /// Follower: the newest write we hold beyond dispute — the committed
    /// prefix and, queued behind it, this epoch's leader's proposals.
    pub(super) fn held_tip(&self) -> Lsn {
        self.cq.span().map_or(self.last_committed, |(_, l)| l.max(self.last_committed))
    }

    /// Follower: commit through the leader's watermark `lsn`, then adopt
    /// the closed timestamp computed against it. The promise "nothing
    /// further commits at or below `closed_ts`" is only usable by a
    /// replica that already holds everything committed at or below it —
    /// i.e. applied through the watermark the promise was computed
    /// against.
    fn commit_and_close(&mut self, rt: &mut Runtime<'_>, lsn: Lsn, closed_ts: u64) {
        self.apply_commit(rt, lsn);
        if closed_ts > 0 && self.last_committed >= lsn {
            self.closed_ts = self.closed_ts.max(closed_ts);
        }
    }

    /// Log the non-forced "last committed" note (§5) for `lsn`, unless
    /// one at or past it is logged already; true when it logged.
    /// `charged` is what the next force is billed for it.
    pub(super) fn note_commit(&mut self, rt: &mut Runtime<'_>, lsn: Lsn, charged: u64) -> bool {
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

    /// Commit through `barrier`, where the range table says a retired
    /// range's leader stood: this epoch's leader's proposals from the
    /// queue first, then whatever of the rest the log holds. The log
    /// counts only where its LSNs past the watermark run dense up to the
    /// barrier itself: an orphan of an earlier epoch shares its sequence
    /// number with a committed write, or ends the run short of the
    /// barrier. An unreadable log leaves the watermark where the queue
    /// left it.
    pub(crate) fn commit_to_barrier(
        &mut self,
        rt: &mut Runtime<'_>,
        barrier: Barrier,
    ) -> Result<()> {
        if self.epoch == barrier.epoch {
            self.apply_commit(rt, barrier.lsn);
        }
        let from = self.last_committed;
        if from >= barrier.lsn {
            return Ok(());
        }
        // A log that starts above the watermark (a store catch-up
        // checkpointed past it) holds no dense run from it.
        let Ok(logged) = rt.wal.indexed_lsns(self.range, from, barrier.lsn) else { return Ok(()) };
        let (mut last, mut dense) = (from, true);
        for lsn in logged {
            dense &= lsn.seq() == last.seq() + 1;
            last = lsn;
        }
        if dense && last == barrier.lsn {
            let store = &mut self.store;
            rt.wal.replay(self.range, from, barrier.lsn, |lsn, op| store.apply(op, lsn))?;
            self.last_committed = barrier.lsn;
            self.note_commit(rt, barrier.lsn, NOTE_BYTES);
        }
        Ok(())
    }

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
        // Name what was proposed by the previous tick, not by this one:
        // a commit sent right behind a propose can overtake it on the
        // follower's cores, but not by a whole commit period.
        let proposed = match self.unproposed.first() {
            Some(first) => Lsn::new(first.epoch(), first.seq() - 1),
            None => self.last_assigned,
        };
        let sent = std::mem::replace(&mut self.proposed_at_tick, proposed);
        // A range's first propose, lost to every follower, is revealed
        // only by `sent`: stay quiet only while nothing is committed,
        // proposed or closed.
        if self.last_committed.is_zero() && sent.seq() == 0 && closed_ts == 0 {
            return;
        }
        let lsn = self.last_committed;
        let epoch = self.epoch;
        self.note_commit(rt, lsn, NOTE_BYTES);
        for &peer in &self.peers {
            out.send(peer, PeerMsg::Commit { range: self.range, epoch, lsn, closed_ts, sent });
        }
    }
}
