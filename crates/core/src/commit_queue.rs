//! The commit queue (paper §4.1): "a main-memory data structure that is
//! used to track pending writes. Writes are committed only after receiving
//! a sufficient number of acks from a cohort."
//!
//! Every pending write holds its operation, and the operation names the
//! client waiting on it ([`WriteOp::origin`]): a leader answers that
//! client at commit, and a follower that takes over answers it in its
//! predecessor's place. Followers apply the operation once the
//! asynchronous commit message arrives. Commits drain strictly in LSN
//! order — a later write never commits before an earlier one, which is
//! what makes conditional puts deterministic across the cohort (§5.1).
//!
//! # A ring in LSN order, and watermarks
//!
//! The pending writes sit in a `VecDeque` in ascending LSN order, and an
//! insert only ever appends: the leader sequences its LSNs upward, a
//! takeover queues its whole tail in log order as it begins, and a
//! follower queues only the suffix of a propose past what it holds. Only
//! a leader change restarts the queue lower, and it discards nothing it
//! will need again:
//!
//! - a follower that meets a new leader sets its pending writes aside
//!   ([`CommitQueue::set_aside`]) and starts empty. The writes it holds
//!   are no proposals of the new leader until catch-up says which of
//!   them its tail lists; the catch-up verdict queues those again
//!   ([`CommitQueue::requeue`]), and drops the orphans it truncates;
//! - a new leader queues again, self-forced, those of its pending writes
//!   that its log lists past its committed watermark: its unresolved
//!   tail.
//!
//! Either way the log is read only for what the queue lacks (a restarted
//! node queues nothing), and the rebuilt queue reuses the buffers it had.
//! A steady-state round allocates nothing here:
//! the ring reuses its buffer, and a drain hands back the drained prefix
//! in place.
//!
//! Acks and forces are **cumulative**: the log is appended sequentially,
//! so a force that covers an LSN covers everything logged before it. The
//! queue therefore keeps no acker set and no forced flag per write, but
//! one watermark per follower (its highest ack) and one for our own
//! force. A write is committable once our force and at least
//! `needed_acks` followers' acks reach its LSN.
//!
//! That is the same rule as an acker set per write. Every watermark is
//! clamped to the newest write queued when it rises, and the next insert
//! lands above that write. So a write is at or below follower F's
//! watermark exactly when an ack from F at or past its LSN arrived while
//! the write was queued — which is what "F is in this write's acker set"
//! meant. An ack naming an LSN not queued yet (a straggler from before a
//! clear) vouches for no later insert. A retransmitted ack raises F's
//! watermark to where it already is, so it still cannot count twice
//! toward the quorum. A drain that takes the newest write pulls the
//! watermarks back to the newest one left (to zero when the queue
//! empties), which keeps the clamp true.

use std::collections::vec_deque::{self, Drain, VecDeque};
use std::ops::{Deref, Range, RangeInclusive};
use std::sync::Arc;

use spinnaker_common::{Key, Lsn, NodeId, RequestId, Timestamp, Version, WriteOp};

/// The operation of a pending write. Reads as the [`WriteOp`] it is.
#[derive(Clone, Debug)]
pub enum PendingOp {
    /// The leader's client write, moved in when the write is sequenced —
    /// before the group it will be proposed in exists.
    Own(WriteOp),
    /// Op `index` of a proposed group: the very batch the log record and
    /// the propose messages hold, so queueing it copies nothing.
    Shared {
        /// The group propose.
        batch: Arc<[WriteOp]>,
        /// This write's position in it.
        index: usize,
    },
    /// Op `index` of a shared batch that a follower kept across a leader
    /// change, once catch-up found it in the new leader's tail. It names
    /// no client, whatever the op says: the leader that resolved the tail
    /// answers it, and a copy read back from the log would name none.
    Kept {
        /// The group propose.
        batch: Arc<[WriteOp]>,
        /// This write's position in it.
        index: usize,
    },
}

impl Deref for PendingOp {
    type Target = WriteOp;

    fn deref(&self) -> &WriteOp {
        match self {
            PendingOp::Own(op) => op,
            PendingOp::Shared { batch, index } | PendingOp::Kept { batch, index } => &batch[*index],
        }
    }
}

impl PendingOp {
    /// The client waiting on this write, answered when it commits.
    pub fn origin(&self) -> Option<(u32, RequestId)> {
        match self {
            PendingOp::Kept { .. } => None,
            op => op.origin,
        }
    }

    /// This write kept across a leader change: it answers no client.
    fn kept(self) -> PendingOp {
        match self {
            PendingOp::Own(op) => PendingOp::Own(WriteOp { origin: None, ..op }),
            PendingOp::Shared { batch, index } | PendingOp::Kept { batch, index } => {
                PendingOp::Kept { batch, index }
            }
        }
    }

    /// The op itself: moved out of an `Own`, which is left empty, or
    /// copied out of a shared batch.
    fn take(&mut self) -> WriteOp {
        match self {
            PendingOp::Own(op) => WriteOp {
                key: std::mem::take(&mut op.key),
                cells: std::mem::take(&mut op.cells),
                timestamp: op.timestamp,
                origin: op.origin,
            },
            PendingOp::Shared { batch, index } | PendingOp::Kept { batch, index } => {
                batch[*index].clone()
            }
        }
    }
}

/// Takes each write of a run read back from the log as its place in the
/// batch it was logged in: `batch[index]` is the write at the LSN.
pub type LoggedWrite<'a> = dyn FnMut(Lsn, &Arc<[WriteOp]>, usize) + 'a;

/// A write sitting between propose and commit.
#[derive(Clone, Debug)]
pub struct PendingWrite {
    /// LSN assigned by the leader.
    pub lsn: Lsn,
    /// The operation (needed to apply at commit time), and the client
    /// it answers.
    pub op: PendingOp,
}

/// The per-cohort commit queue.
#[derive(Default, Debug)]
pub struct CommitQueue {
    /// Pending writes, in ascending LSN order.
    entries: VecDeque<PendingWrite>,
    /// Each follower's highest ack, never above the newest write queued.
    /// One slot per follower that ever acked, kept across clears.
    acked: Vec<(NodeId, Lsn)>,
    /// How far our own log force reached, never above the newest write.
    forced: Lsn,
    /// What a follower queued before it met a new leader, in ascending
    /// LSN order, until catch-up takes it back: out of every count above.
    aside: VecDeque<PendingWrite>,
}

impl CommitQueue {
    /// Empty queue.
    pub fn new() -> CommitQueue {
        CommitQueue::default()
    }

    /// Track a pending write, `forced` when it is already durable in our
    /// own log (a takeover's tail). Appends only: `pw.lsn` must be above
    /// every queued LSN, and a forced write may follow forced ones only —
    /// one watermark stands for them all.
    pub fn insert(&mut self, pw: PendingWrite, forced: bool) {
        debug_assert!(
            self.newest().is_none_or(|newest| newest < pw.lsn),
            "the commit queue only grows upward"
        );
        debug_assert!(
            !forced || self.newest().is_none_or(|newest| newest <= self.forced),
            "a forced write follows forced writes only"
        );
        if forced {
            self.forced = self.forced.max(pw.lsn);
        }
        self.entries.push_back(pw);
    }

    /// Record a follower ack. Duplicate acks from the same node (leader
    /// retransmits, follower resends after catch-up) raise its watermark
    /// to where it already is.
    ///
    /// Acks are **cumulative**: the log is appended sequentially, so a
    /// follower whose force covers `lsn` has every earlier record durable
    /// too. Group proposes lean on this — the follower acks once, at the
    /// batch's last LSN, and that single ack vouches for the whole batch.
    pub fn ack(&mut self, lsn: Lsn, from: NodeId) {
        let Some(newest) = self.newest() else { return };
        let lsn = lsn.min(newest);
        match self.acked.iter_mut().find(|(node, _)| *node == from) {
            Some((_, mark)) => *mark = (*mark).max(lsn),
            None => self.acked.push((from, lsn)),
        }
    }

    /// Record completion of our own log force. Cumulative for the same
    /// reason as [`CommitQueue::ack`]: a force that covers `lsn` covered
    /// everything appended before it.
    pub fn self_forced(&mut self, lsn: Lsn) {
        if let Some(newest) = self.newest() {
            self.forced = self.forced.max(lsn.min(newest));
        }
    }

    /// Leader-side commit: drain the longest run (starting right after
    /// `last_committed`) in which every write has its own force plus at
    /// least `needed_acks` follower acks. Hands the drained writes back
    /// in LSN order; they leave the queue when the drain is dropped.
    pub fn drain_committable(
        &mut self,
        last_committed: Lsn,
        needed_acks: usize,
    ) -> Drain<'_, PendingWrite> {
        let start = self.entries.partition_point(|pw| pw.lsn <= last_committed);
        let ready = self
            .entries
            .range(start..)
            .take_while(|pw| {
                pw.lsn <= self.forced
                    && self.acked.iter().filter(|(_, mark)| *mark >= pw.lsn).count() >= needed_acks
            })
            .count();
        self.remove(start..start + ready)
    }

    /// Follower-side commit: drain everything at or below `lsn` (the
    /// asynchronous commit message's LSN), in order.
    pub fn drain_up_to(&mut self, lsn: Lsn) -> Drain<'_, PendingWrite> {
        let end = self.entries.partition_point(|pw| pw.lsn <= lsn);
        self.remove(0..end)
    }

    /// Move the ops of every write from `first` on — the leader's tail
    /// of sequenced, not yet proposed writes — into one batch, and point
    /// those writes at it. The log record, the propose messages and the
    /// queue then share the one copy each op was built as.
    pub fn share_from(&mut self, first: Lsn) -> Arc<[WriteOp]> {
        let start = self.entries.partition_point(|pw| pw.lsn < first);
        let batch: Arc<[WriteOp]> =
            self.entries.range_mut(start..).map(|pw| pw.op.take()).collect();
        for (index, pw) in self.entries.range_mut(start..).enumerate() {
            pw.op = PendingOp::Shared { batch: batch.clone(), index };
        }
        batch
    }

    /// Set every pending write aside, leaving the queue empty: a follower
    /// that meets a new leader does not know yet which of them that
    /// leader's tail lists. An empty queue keeps what an earlier call set
    /// aside, so a second hello before the verdict loses nothing.
    pub fn set_aside(&mut self) {
        if !self.entries.is_empty() {
            self.aside.clear();
            std::mem::swap(&mut self.entries, &mut self.aside);
            self.reset_marks();
        }
    }

    /// Queue again, behind what is queued, the writes `lsns` lists
    /// (ascending, all above `from`): each one held here as itself, and
    /// each run of them not held through `read(past, last, sink)`, which
    /// hands `sink` every write in `(past, last]` as its place in the
    /// batch it was logged in. Held writes `lsns` does not list are
    /// dropped.
    ///
    /// In a `takeover` the held writes are the new leader's pending
    /// writes, clients and all, anything set aside is forgotten, and the
    /// queue counts the writes self-forced: they are its log's tail. At
    /// a follower's catch-up verdict they are the writes it set aside,
    /// each naming no client any more ([`PendingOp::Kept`]). The held
    /// writes leave the front of the ring as the rebuilt queue grows at
    /// its back, so a queue that holds its whole tail is rebuilt in the
    /// buffer it had. An error from `read` ends the rebuild there.
    pub fn requeue<T, E>(
        &mut self,
        takeover: bool,
        from: Lsn,
        lsns: impl IntoIterator<Item = Lsn>,
        mut read: impl FnMut(Lsn, Lsn, &mut LoggedWrite<'_>) -> Result<T, E>,
    ) -> Result<(), E> {
        // The held writes first; what was queued since they were set
        // aside stays ahead of every write that comes back.
        let mut held = self.entries.len();
        if takeover {
            self.aside.clear();
        } else {
            held = self.aside.len();
            self.aside.append(&mut self.entries);
            std::mem::swap(&mut self.entries, &mut self.aside);
        }
        // The held write at an LSN, dropping those below it.
        let take_held = |entries: &mut VecDeque<PendingWrite>, held: &mut usize, lsn: Lsn| {
            while *held > 0 && entries.front().is_some_and(|pw| pw.lsn <= lsn) {
                *held -= 1;
                let pw = entries.pop_front().expect("held");
                if pw.lsn == lsn {
                    let op = if takeover { pw.op } else { pw.op.kept() };
                    return Some(PendingWrite { lsn, op });
                }
            }
            None
        };
        let mut lsns = lsns.into_iter().peekable();
        let mut past = from;
        let mut outcome = Ok(());
        while let Some(lsn) = lsns.next() {
            if let Some(pw) = take_held(&mut self.entries, &mut held, lsn) {
                self.entries.push_back(pw);
                past = lsn;
                continue;
            }
            // A run of writes not held: read it in one pass.
            let (mut last, mut resume) = (lsn, None);
            while let Some(next) = lsns.next_if(|_| resume.is_none()) {
                match take_held(&mut self.entries, &mut held, next) {
                    Some(pw) => resume = Some(pw),
                    None => last = next,
                }
            }
            let entries = &mut self.entries;
            let mut sink = |lsn, batch: &Arc<[WriteOp]>, index| {
                let op = PendingOp::Shared { batch: batch.clone(), index };
                entries.push_back(PendingWrite { lsn, op });
            };
            if let Err(e) = read(past, last, &mut sink) {
                outcome = Err(e);
                break;
            }
            past = last;
            if let Some(pw) = resume {
                past = pw.lsn;
                self.entries.push_back(pw);
            }
        }
        self.entries.drain(..held);
        debug_assert!(
            self.entries.iter().zip(self.entries.iter().skip(1)).all(|(a, b)| a.lsn < b.lsn),
            "the commit queue stays in LSN order"
        );
        // No watermark stands above the newest write, and a new
        // leader's tail is durable in its own log.
        let newest = self.newest().unwrap_or(Lsn::ZERO);
        if takeover {
            self.reset_marks();
            self.forced = newest;
        } else {
            for (_, mark) in &mut self.acked {
                *mark = (*mark).min(newest);
            }
            self.forced = self.forced.min(newest);
        }
        outcome
    }

    /// Zero every watermark: a leader change voids the acks and the
    /// force counted so far.
    fn reset_marks(&mut self) {
        for (_, mark) in &mut self.acked {
            *mark = Lsn::ZERO;
        }
        self.forced = Lsn::ZERO;
    }

    /// Remove `span` of the entries. A span that takes the newest write
    /// pulls the watermarks back to the newest one left — to zero when
    /// the queue empties — so every later insert lands above them all.
    fn remove(&mut self, span: Range<usize>) -> Drain<'_, PendingWrite> {
        if span.end == self.entries.len() {
            let left = span.start.checked_sub(1).and_then(|i| self.entries.get(i));
            let newest = left.map_or(Lsn::ZERO, |pw| pw.lsn);
            for (_, mark) in &mut self.acked {
                *mark = (*mark).min(newest);
            }
            self.forced = self.forced.min(newest);
        }
        self.entries.drain(span)
    }

    fn newest(&self) -> Option<Lsn> {
        self.entries.back().map(|pw| pw.lsn)
    }

    /// The commit timestamp of the **oldest** pending write, or `None`
    /// when the queue is empty. Pending writes commit in LSN order and
    /// commit timestamps are assigned monotonically with LSNs, so every
    /// write with a timestamp strictly below this is already applied —
    /// which makes `min_pending_ts() - 1` the leader's snapshot-read
    /// safe point while writes are in flight.
    pub fn min_pending_ts(&self) -> Option<Timestamp> {
        self.entries.front().map(|pw| pw.op.timestamp)
    }

    /// The most recent pending version for `(key, col)`, used by the
    /// leader to evaluate conditional writes against not-yet-committed
    /// state (writes commit in LSN order, so the last pending write's LSN
    /// *will* be the column's version once it commits).
    pub fn latest_pending_version(&self, key: &Key, col: &[u8]) -> Option<Version> {
        self.entries
            .iter()
            .rev()
            .find(|pw| pw.op.key == *key && pw.op.cells.iter().any(|c| c.column().as_ref() == col))
            .map(|pw| pw.lsn.as_u64())
    }

    /// The pending writes in ascending LSN order.
    pub fn iter(&self) -> impl Iterator<Item = &PendingWrite> {
        self.entries.iter()
    }

    /// The pending writes with LSN in `lsns`, in ascending LSN order.
    pub fn range(&self, lsns: RangeInclusive<Lsn>) -> vec_deque::Iter<'_, PendingWrite> {
        let start = self.entries.partition_point(|pw| pw.lsn < *lsns.start());
        let end = self.entries.partition_point(|pw| pw.lsn <= *lsns.end());
        self.entries.range(start..end.max(start))
    }

    /// Number of pending writes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The first and last pending LSN (`None` when nothing is pending).
    pub fn span(&self) -> Option<(Lsn, Lsn)> {
        Some((self.entries.front()?.lsn, self.newest()?))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;
    use spinnaker_common::op;

    use super::*;

    fn pending(seq: u64) -> PendingWrite {
        let op = WriteOp { origin: Some((9, seq)), ..op::put(&format!("k{seq}"), "c", "v") };
        PendingWrite { lsn: Lsn::new(1, seq), op: PendingOp::Own(op) }
    }

    fn seqs(drained: Drain<'_, PendingWrite>) -> Vec<u64> {
        drained.map(|pw| pw.lsn.seq()).collect()
    }

    #[test]
    fn commit_requires_force_and_ack() {
        let mut q = CommitQueue::new();
        q.insert(pending(1), false);
        assert_eq!(q.drain_committable(Lsn::ZERO, 1).len(), 0, "nothing ready");
        q.self_forced(Lsn::new(1, 1));
        assert_eq!(q.drain_committable(Lsn::ZERO, 1).len(), 0, "force alone insufficient");
        q.ack(Lsn::new(1, 1), 1);
        assert_eq!(q.drain_committable(Lsn::ZERO, 1).len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn retransmitted_acks_do_not_fake_a_quorum() {
        // Replication 5: majority needs the leader + 2 distinct followers.
        let mut q = CommitQueue::new();
        q.insert(pending(1), false);
        q.self_forced(Lsn::new(1, 1));
        q.ack(Lsn::new(1, 1), 3);
        q.ack(Lsn::new(1, 1), 3); // same follower retransmits
        q.ack(Lsn::new(1, 1), 3);
        assert_eq!(
            q.drain_committable(Lsn::ZERO, 2).len(),
            0,
            "one follower acking thrice is not two followers"
        );
        q.ack(Lsn::new(1, 1), 4); // a second, distinct follower
        assert_eq!(q.drain_committable(Lsn::ZERO, 2).len(), 1);
    }

    #[test]
    fn commits_drain_in_lsn_order_only() {
        // Replication 5: quorum needs the leader plus two distinct
        // follower acks. Follower 1 is durable through LSN 2, follower 2
        // only through LSN 1 — the quorum prefix ends at 1, and writes
        // 2..3 must wait even though each already holds one ack.
        let mut q = CommitQueue::new();
        for seq in 1..=3 {
            q.insert(pending(seq), false);
        }
        q.self_forced(Lsn::new(1, 3));
        q.ack(Lsn::new(1, 2), 1);
        q.ack(Lsn::new(1, 1), 2);
        assert_eq!(seqs(q.drain_committable(Lsn::ZERO, 2)), vec![1]);
        // Follower 2 catches up through LSN 2: write 2 drains, 3 stays.
        q.ack(Lsn::new(1, 2), 2);
        assert_eq!(seqs(q.drain_committable(Lsn::new(1, 1), 2)), vec![2]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn follower_drain_up_to() {
        let mut q = CommitQueue::new();
        for seq in 1..=5 {
            q.insert(pending(seq), false);
        }
        assert_eq!(q.drain_up_to(Lsn::new(1, 3)).len(), 3);
        assert_eq!(q.len(), 2);
        assert_eq!(q.span(), Some((Lsn::new(1, 4), Lsn::new(1, 5))));
    }

    #[test]
    fn acks_and_forces_are_cumulative() {
        // A group propose of 3 writes gets ONE follower ack (at the last
        // LSN) and ONE self-force completion: all three must become
        // committable at once.
        let mut q = CommitQueue::new();
        for seq in 1..=3 {
            q.insert(pending(seq), false);
        }
        q.self_forced(Lsn::new(1, 3));
        q.ack(Lsn::new(1, 3), 7);
        assert_eq!(seqs(q.drain_committable(Lsn::ZERO, 1)), vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn cumulative_ack_does_not_touch_later_entries() {
        let mut q = CommitQueue::new();
        for seq in 1..=4 {
            q.insert(pending(seq), false);
        }
        q.self_forced(Lsn::new(1, 2));
        q.ack(Lsn::new(1, 2), 7);
        assert_eq!(seqs(q.drain_committable(Lsn::ZERO, 1)), vec![1, 2]);
        assert_eq!(q.len(), 2, "writes 3 and 4 still pending");
    }

    #[test]
    fn latest_pending_version_sees_most_recent_write() {
        let mut q = CommitQueue::new();
        for (seq, value) in [(1, "v1"), (2, "v2")] {
            let op = PendingOp::Own(op::put("k", "c", value));
            q.insert(PendingWrite { lsn: Lsn::new(1, seq), op }, false);
        }
        assert_eq!(q.latest_pending_version(&Key::from("k"), b"c"), Some(Lsn::new(1, 2).as_u64()));
        assert_eq!(q.latest_pending_version(&Key::from("k"), b"other"), None);
        assert_eq!(q.latest_pending_version(&Key::from("nope"), b"c"), None);
    }

    #[test]
    fn epoch_boundaries_drain_correctly() {
        let mut q = CommitQueue::new();
        // Old-epoch re-proposals and new-epoch writes coexist at takeover.
        for (lsn, key) in [(Lsn::new(1, 21), "a"), (Lsn::new(2, 22), "b")] {
            let op = PendingOp::Own(op::put(key, "c", "1"));
            q.insert(PendingWrite { lsn, op }, true);
        }
        q.ack(Lsn::new(2, 22), 1);
        let drained: Vec<Lsn> = q.drain_committable(Lsn::new(1, 20), 1).map(|pw| pw.lsn).collect();
        assert_eq!(drained, vec![Lsn::new(1, 21), Lsn::new(2, 22)]);
    }

    /// The leader's not yet proposed tail moves into one batch, which the
    /// queue then shares: no op is copied.
    #[test]
    fn the_proposed_tail_shares_one_batch() {
        let mut q = CommitQueue::new();
        for seq in 1..=4 {
            q.insert(pending(seq), false);
        }
        let batch = q.share_from(Lsn::new(1, 3));
        let keys: Vec<&Key> = batch.iter().map(|op| &op.key).collect();
        assert_eq!(keys, vec![&Key::from("k3"), &Key::from("k4")]);
        assert_eq!(batch[1].origin, Some((9, 4)), "the waiting client moves with its op");
        assert_eq!(Arc::strong_count(&batch), 1 + 2, "ours, and one per shared write");
        assert_eq!(q.latest_pending_version(&Key::from("k4"), b"c"), Some(Lsn::new(1, 4).as_u64()));
        assert_eq!(q.latest_pending_version(&Key::from("k1"), b"c"), Some(Lsn::new(1, 1).as_u64()));
    }

    /// The LSNs `lsns` lists come back in order: the held ones as
    /// themselves (naming no client when set aside), each run of the
    /// others read once, and held writes it does not list are dropped.
    fn requeued(q: &mut CommitQueue, takeover: bool, lsns: &[u64]) -> Vec<(u64, bool)> {
        let mut reads = Vec::new();
        let lsns = lsns.iter().map(|&seq| Lsn::new(1, seq));
        let read = |past: Lsn, last: Lsn, sink: &mut LoggedWrite<'_>| {
            reads.push((past.seq(), last.seq()));
            let batch: Arc<[WriteOp]> =
                (past.seq() + 1..=last.seq()).map(|seq| (*pending(seq).op).clone()).collect();
            for (index, seq) in (past.seq() + 1..=last.seq()).enumerate() {
                sink(Lsn::new(1, seq), &batch, index);
            }
            Ok::<(), ()>(())
        };
        q.requeue(takeover, Lsn::new(1, 1), lsns, read).expect("read");
        if takeover {
            assert_eq!(q.forced, q.newest().unwrap_or(Lsn::ZERO), "self-forced");
        }
        let got = q.iter().map(|pw| (pw.lsn.seq(), pw.op.origin().is_some())).collect();
        assert_eq!(reads, vec![(2, 3), (4, 6), (7, 8)], "a read for each run not held");
        got
    }

    #[test]
    fn requeue_keeps_what_it_holds_and_reads_the_rest() {
        // A new leader: its queue holds 2, 4, 7 and 9; the log lists 2
        // to 8. 7 is held though 5 and 6 are not: it comes back as
        // itself, after the read of 5 and 6. 9 is not listed.
        let mut q = CommitQueue::new();
        for seq in [2, 4, 7, 9] {
            q.insert(pending(seq), false);
        }
        q.ack(Lsn::new(1, 9), 3);
        let got = requeued(&mut q, true, &[2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(
            got,
            vec![(2, true), (3, true), (4, true), (5, true), (6, true), (7, true), (8, true)]
        );
        assert_eq!(q.drain_committable(Lsn::ZERO, 1).len(), 0, "no ack survives");

        // A follower's verdict: what it set aside names no client, and
        // what it queued since (1, as a propose) stays ahead of it.
        let mut q = CommitQueue::new();
        for seq in [2, 4, 7, 9] {
            q.insert(pending(seq), false);
        }
        q.set_aside();
        assert!(q.is_empty());
        q.set_aside();
        q.insert(pending(1), false);
        let got = requeued(&mut q, false, &[2, 3, 4, 5, 6, 7, 8]);
        let held = |seq| [2, 4, 7].contains(&seq);
        assert_eq!(got, (1..=8).map(|seq| (seq, !held(seq))).collect::<Vec<_>>());
    }

    /// The queue as it was: an acker set and a forced flag per write,
    /// each ack and force marking every write queued at or below it.
    #[derive(Default)]
    struct Reference {
        entries: BTreeMap<Lsn, (BTreeSet<NodeId>, bool)>,
    }

    impl Reference {
        fn ack(&mut self, lsn: Lsn, from: NodeId) {
            for (ackers, _) in self.entries.range_mut(..=lsn).map(|(_, e)| e) {
                ackers.insert(from);
            }
        }

        fn self_forced(&mut self, lsn: Lsn) {
            for (_, forced) in self.entries.range_mut(..=lsn).map(|(_, e)| e) {
                *forced = true;
            }
        }

        fn drain_committable(&mut self, last_committed: Lsn, needed_acks: usize) -> Vec<Lsn> {
            let mut out = Vec::new();
            let mut cursor = last_committed;
            while let Some((&lsn, (ackers, forced))) =
                self.entries.range(Lsn::from_u64(cursor.as_u64() + 1)..).next()
            {
                if !(*forced && ackers.len() >= needed_acks) {
                    break;
                }
                self.entries.remove(&lsn);
                cursor = lsn;
                out.push(lsn);
            }
            out
        }

        fn drain_up_to(&mut self, lsn: Lsn) -> Vec<Lsn> {
            let out: Vec<Lsn> = self.entries.range(..=lsn).map(|(&l, _)| l).collect();
            for l in &out {
                self.entries.remove(l);
            }
            out
        }

        fn span(&self) -> Option<(Lsn, Lsn)> {
            Some((*self.entries.keys().next()?, *self.entries.keys().next_back()?))
        }
    }

    /// A write's commit timestamp in the property test: it follows the
    /// LSN, as the leader's hybrid clock makes it.
    fn ts_of(lsn: Lsn) -> Timestamp {
        lsn.as_u64()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// After any history of upward inserts (across epoch bumps, some
        /// forced as a takeover's tail), acks from two to four followers
        /// at queued LSNs and past them (duplicates included), forces,
        /// drains and leader changes that set the queue aside, the queue
        /// drains exactly the writes the
        /// per-write acker sets drained, and reports the same length,
        /// span and oldest pending timestamp.
        #[test]
        fn watermarks_drain_what_acker_sets_drained(
            peers in 2u32..5,
            steps in proptest::collection::vec((0u8..16, 0u8..8, any::<u16>()), 1..160),
        ) {
            let mut q = CommitQueue::new();
            let mut model = Reference::default();
            let (mut epoch, mut seq): (spinnaker_common::Epoch, u64) = (1, 0);
            let mut last_committed = Lsn::ZERO;
            for (kind, a, b) in steps {
                // An LSN around the queued ones: mostly a queued write,
                // sometimes one past the newest (not queued yet).
                let queued: Vec<Lsn> = model.entries.keys().copied().collect();
                let pick = match queued.len() {
                    0 => Lsn::new(epoch, seq + 1),
                    _ if b % 5 == 0 => Lsn::new(epoch, seq + 1 + u64::from(b) % 3),
                    n => queued[usize::from(b) % n],
                };
                match kind {
                    // Sequence 1..=8 writes upward; forced ones only while
                    // everything queued is forced, as a takeover's tail.
                    0..=4 => {
                        let all_forced = model.entries.values().all(|(_, f)| *f);
                        for _ in 0..=a {
                            seq += 1;
                            let lsn = Lsn::new(epoch, seq);
                            let forced = b % 2 == 0 && all_forced;
                            let key = Key::from(format!("k{}", seq % 3).as_str());
                            let op = PendingOp::Own(WriteOp::put(key, "c", "v", ts_of(lsn)));
                            q.insert(PendingWrite { lsn, op }, forced);
                            model.entries.insert(lsn, (BTreeSet::new(), forced));
                        }
                    }
                    5 => epoch += 1,
                    6..=9 => {
                        let from = u32::from(a) % peers;
                        q.ack(pick, from);
                        model.ack(pick, from);
                    }
                    10 | 11 => {
                        q.self_forced(pick);
                        model.self_forced(pick);
                    }
                    12 | 13 => {
                        // Mostly from the last commit; sometimes from a
                        // queued write, leaving older ones in front.
                        let from = if a == 0 { pick } else { last_committed };
                        let needed = 1 + usize::from(a % 2);
                        let got: Vec<Lsn> =
                            q.drain_committable(from, needed).map(|pw| pw.lsn).collect();
                        prop_assert_eq!(&got, &model.drain_committable(from, needed));
                        last_committed = got.last().copied().unwrap_or(last_committed);
                    }
                    14 => {
                        let got: Vec<Lsn> = q.drain_up_to(pick).map(|pw| pw.lsn).collect();
                        prop_assert_eq!(got, model.drain_up_to(pick));
                    }
                    _ => {
                        // A leader change: the queue sets its writes
                        // aside and starts empty.
                        prop_assert_eq!(q.len(), model.entries.len());
                        q.set_aside();
                        prop_assert!(q.is_empty());
                        model.entries.clear();
                        // The only way back down: the next insert may be
                        // below everything acked or forced so far.
                        seq = seq.saturating_sub(u64::from(a));
                        last_committed = Lsn::ZERO;
                    }
                }
                prop_assert_eq!(q.len(), model.entries.len());
                prop_assert_eq!(q.span(), model.span());
                prop_assert_eq!(q.min_pending_ts(), model.span().map(|(first, _)| ts_of(first)));
            }
        }
    }
}
