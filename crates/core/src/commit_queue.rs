//! The commit queue (paper §4.1): "a main-memory data structure that is
//! used to track pending writes. Writes are committed only after receiving
//! a sufficient number of acks from a cohort."
//!
//! Leaders hold the client reply handle and ack count per pending write;
//! followers hold just the operation so the asynchronous commit message
//! can apply it later. Commits drain strictly in LSN order — a later write
//! never commits before an earlier one, which is what makes conditional
//! puts deterministic across the cohort (§5.1).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;
use std::sync::Arc;

use spinnaker_common::{Lsn, NodeId, Version, WriteOp};

use crate::messages::{Addr, RequestId};

/// The operation of a pending write. Reads as the [`WriteOp`] it is.
#[derive(Clone, Debug)]
pub enum PendingOp {
    /// The leader's copy of a client write, taken when the write is
    /// sequenced — before the group it will be proposed in exists.
    Own(WriteOp),
    /// Op `index` of a proposed group: the very batch the log record and
    /// the propose messages hold, so queueing it copies nothing.
    Shared {
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
            PendingOp::Shared { batch, index } => &batch[*index],
        }
    }
}

/// A write sitting between propose and commit.
#[derive(Clone, Debug)]
pub struct PendingWrite {
    /// LSN assigned by the leader.
    pub lsn: Lsn,
    /// The operation (needed to apply at commit time).
    pub op: PendingOp,
    /// Client to answer on commit (leader side only).
    pub client: Option<(Addr, RequestId)>,
    /// *Distinct* followers that acked the write (leader side only).
    /// Tracking node ids rather than a counter makes retransmitted acks
    /// idempotent — a duplicate ack from one follower must never count
    /// twice toward the quorum (it would silently weaken the quorum at
    /// replication factors above 3).
    pub ackers: BTreeSet<NodeId>,
    /// Whether our own log force for this record completed.
    pub self_forced: bool,
}

/// The per-cohort commit queue.
#[derive(Default, Debug)]
pub struct CommitQueue {
    entries: BTreeMap<Lsn, PendingWrite>,
}

impl CommitQueue {
    /// Empty queue.
    pub fn new() -> CommitQueue {
        CommitQueue::default()
    }

    /// Track a pending write.
    pub fn insert(&mut self, pw: PendingWrite) {
        self.entries.insert(pw.lsn, pw);
    }

    /// Record a follower ack. Duplicate acks from the same node (leader
    /// retransmits, follower resends after catch-up) are absorbed by the
    /// acker set.
    ///
    /// Acks are **cumulative**: the log is appended sequentially, so a
    /// follower whose force covers `lsn` has every earlier record durable
    /// too. Group proposes lean on this — the follower acks once, at the
    /// batch's last LSN, and that single ack vouches for the whole batch.
    pub fn ack(&mut self, lsn: Lsn, from: NodeId) {
        for (_, pw) in self.entries.range_mut(..=lsn) {
            pw.ackers.insert(from);
        }
    }

    /// Record completion of our own log force. Cumulative for the same
    /// reason as [`CommitQueue::ack`]: a force that covers `lsn` covered
    /// everything appended before it.
    pub fn self_forced(&mut self, lsn: Lsn) {
        for (_, pw) in self.entries.range_mut(..=lsn) {
            pw.self_forced = true;
        }
    }

    /// Leader-side commit: drain the longest prefix (starting right after
    /// `last_committed`) in which every write has its own force plus at
    /// least `needed_acks` follower acks. Returns the drained writes in
    /// LSN order.
    pub fn drain_committable(
        &mut self,
        last_committed: Lsn,
        needed_acks: usize,
    ) -> Vec<PendingWrite> {
        let mut out = Vec::new();
        let mut cursor = last_committed;
        while let Some((&lsn, pw)) = self.entries.range(next_after(cursor)..).next() {
            if !(pw.self_forced && pw.ackers.len() >= needed_acks) {
                break;
            }
            let pw = self.entries.remove(&lsn).expect("just observed");
            cursor = lsn;
            out.push(pw);
        }
        out
    }

    /// Follower-side commit: drain everything at or below `lsn` (the
    /// asynchronous commit message's LSN), in order.
    pub fn drain_up_to(&mut self, lsn: Lsn) -> Vec<PendingWrite> {
        let mut out = Vec::new();
        let keys: Vec<Lsn> = self.entries.range(..=lsn).map(|(&l, _)| l).collect();
        for l in keys {
            out.push(self.entries.remove(&l).expect("listed"));
        }
        out
    }

    /// Discard every pending write (used when a follower learns a new
    /// leader and re-syncs; their fate is decided by catch-up).
    pub fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        n
    }

    /// The commit timestamp of the **oldest** pending write, or `None`
    /// when the queue is empty. Pending writes commit in LSN order and
    /// commit timestamps are assigned monotonically with LSNs, so every
    /// write with a timestamp strictly below this is already applied —
    /// which makes `min_pending_ts() - 1` the leader's snapshot-read
    /// safe point while writes are in flight.
    pub fn min_pending_ts(&self) -> Option<spinnaker_common::Timestamp> {
        self.entries.values().next().map(|pw| pw.op.timestamp)
    }

    /// The most recent pending version for `(key, col)`, used by the
    /// leader to evaluate conditional writes against not-yet-committed
    /// state (writes commit in LSN order, so the last pending write's LSN
    /// *will* be the column's version once it commits).
    pub fn latest_pending_version(
        &self,
        key: &spinnaker_common::Key,
        col: &[u8],
    ) -> Option<Version> {
        self.entries
            .values()
            .rev()
            .find(|pw| pw.op.key == *key && pw.op.cells.iter().any(|c| c.column().as_ref() == col))
            .map(|pw| pw.lsn.as_u64())
    }

    /// Whether a pending write with `lsn` exists.
    pub fn contains(&self, lsn: Lsn) -> bool {
        self.entries.contains_key(&lsn)
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
        Some((*self.entries.keys().next()?, *self.entries.keys().next_back()?))
    }
}

fn next_after(lsn: Lsn) -> Lsn {
    Lsn::from_u64(lsn.as_u64().saturating_add(1))
}

#[cfg(test)]
mod tests {
    use spinnaker_common::op;

    use super::*;

    fn pending(seq: u64) -> PendingWrite {
        PendingWrite {
            lsn: Lsn::new(1, seq),
            op: PendingOp::Own(op::put(&format!("k{seq}"), "c", "v")),
            client: Some((9, seq)),
            ackers: BTreeSet::new(),
            self_forced: false,
        }
    }

    #[test]
    fn commit_requires_force_and_ack() {
        let mut q = CommitQueue::new();
        q.insert(pending(1));
        assert!(q.drain_committable(Lsn::ZERO, 1).is_empty(), "nothing ready");
        q.self_forced(Lsn::new(1, 1));
        assert!(q.drain_committable(Lsn::ZERO, 1).is_empty(), "force alone insufficient");
        q.ack(Lsn::new(1, 1), 1);
        let drained = q.drain_committable(Lsn::ZERO, 1);
        assert_eq!(drained.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn retransmitted_acks_do_not_fake_a_quorum() {
        // Replication 5: majority needs the leader + 2 distinct followers.
        let mut q = CommitQueue::new();
        q.insert(pending(1));
        q.self_forced(Lsn::new(1, 1));
        q.ack(Lsn::new(1, 1), 3);
        q.ack(Lsn::new(1, 1), 3); // same follower retransmits
        q.ack(Lsn::new(1, 1), 3);
        assert!(
            q.drain_committable(Lsn::ZERO, 2).is_empty(),
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
            q.insert(pending(seq));
        }
        q.self_forced(Lsn::new(1, 3));
        q.ack(Lsn::new(1, 2), 1);
        q.ack(Lsn::new(1, 1), 2);
        let drained = q.drain_committable(Lsn::ZERO, 2);
        assert_eq!(drained.iter().map(|p| p.lsn.seq()).collect::<Vec<_>>(), vec![1]);
        // Follower 2 catches up through LSN 2: write 2 drains, 3 stays.
        q.ack(Lsn::new(1, 2), 2);
        let drained = q.drain_committable(Lsn::new(1, 1), 2);
        assert_eq!(drained.iter().map(|p| p.lsn.seq()).collect::<Vec<_>>(), vec![2]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn follower_drain_up_to() {
        let mut q = CommitQueue::new();
        for seq in 1..=5 {
            q.insert(pending(seq));
        }
        let drained = q.drain_up_to(Lsn::new(1, 3));
        assert_eq!(drained.len(), 3);
        assert_eq!(q.len(), 2);
        assert!(q.contains(Lsn::new(1, 4)));
    }

    #[test]
    fn acks_and_forces_are_cumulative() {
        // A group propose of 3 writes gets ONE follower ack (at the last
        // LSN) and ONE self-force completion: all three must become
        // committable at once.
        let mut q = CommitQueue::new();
        for seq in 1..=3 {
            q.insert(pending(seq));
        }
        q.self_forced(Lsn::new(1, 3));
        q.ack(Lsn::new(1, 3), 7);
        let drained = q.drain_committable(Lsn::ZERO, 1);
        assert_eq!(drained.iter().map(|p| p.lsn.seq()).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn cumulative_ack_does_not_touch_later_entries() {
        let mut q = CommitQueue::new();
        for seq in 1..=4 {
            q.insert(pending(seq));
        }
        q.self_forced(Lsn::new(1, 2));
        q.ack(Lsn::new(1, 2), 7);
        let drained = q.drain_committable(Lsn::ZERO, 1);
        assert_eq!(drained.iter().map(|p| p.lsn.seq()).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(q.len(), 2, "writes 3 and 4 still pending");
    }

    #[test]
    fn latest_pending_version_sees_most_recent_write() {
        let mut q = CommitQueue::new();
        q.insert(PendingWrite {
            lsn: Lsn::new(1, 1),
            op: PendingOp::Own(op::put("k", "c", "v1")),
            client: None,
            ackers: BTreeSet::new(),
            self_forced: false,
        });
        q.insert(PendingWrite {
            lsn: Lsn::new(1, 2),
            op: PendingOp::Own(op::put("k", "c", "v2")),
            client: None,
            ackers: BTreeSet::new(),
            self_forced: false,
        });
        assert_eq!(
            q.latest_pending_version(&spinnaker_common::Key::from("k"), b"c"),
            Some(Lsn::new(1, 2).as_u64())
        );
        assert_eq!(q.latest_pending_version(&spinnaker_common::Key::from("k"), b"other"), None);
        assert_eq!(q.latest_pending_version(&spinnaker_common::Key::from("nope"), b"c"), None);
    }

    #[test]
    fn epoch_boundaries_drain_correctly() {
        let mut q = CommitQueue::new();
        // Old-epoch re-proposals and new-epoch writes coexist at takeover.
        for pw in [
            PendingWrite {
                lsn: Lsn::new(1, 21),
                op: PendingOp::Own(op::put("a", "c", "1")),
                client: None,
                ackers: BTreeSet::from([1]),
                self_forced: true,
            },
            PendingWrite {
                lsn: Lsn::new(2, 22),
                op: PendingOp::Own(op::put("b", "c", "2")),
                client: None,
                ackers: BTreeSet::from([1]),
                self_forced: true,
            },
        ] {
            q.insert(pw);
        }
        let drained = q.drain_committable(Lsn::new(1, 20), 1);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].lsn, Lsn::new(1, 21));
        assert_eq!(drained[1].lsn, Lsn::new(2, 22));
    }
}
