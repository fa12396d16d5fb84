//! The replay index of one cohort's logical stream: where the frame of
//! each replayable write lies, one entry per run of consecutive LSNs in
//! one frame rather than one per write.
//!
//! A frame holds one write or a group propose's batch, whose writes have
//! consecutive LSNs of one epoch, so a frame is indexed as one run. A
//! logically truncated LSN splits its run, a checkpoint inside a run
//! trims it, and an LSN logged again moves out of its old run into the
//! new frame's. Runs are kept in LSN order in a ring buffer: appends go
//! on the back and checkpoints come off the front, so a warmed-up index
//! allocates nothing per frame.

use std::collections::VecDeque;

use spinnaker_common::Lsn;

/// Where a frame lies in the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RecordLoc {
    pub segment: u64,
    pub offset: u64,
    pub frame_len: usize,
}

/// `len` consecutive LSNs of one epoch from `first` on, all in the frame
/// at `loc`.
#[derive(Clone, Copy, Debug)]
struct Run {
    first: Lsn,
    len: u64,
    loc: RecordLoc,
}

impl Run {
    fn last(&self) -> Lsn {
        Lsn::new(self.first.epoch(), self.first.seq() + self.len - 1)
    }

    /// Whether `lsn` is the one after the run's last.
    fn ends_before(&self, lsn: Lsn) -> bool {
        lsn.epoch() == self.first.epoch() && lsn.seq() == self.first.seq() + self.len
    }
}

/// Runs in LSN order, no two sharing an LSN.
#[derive(Default)]
pub(crate) struct RunIndex {
    runs: VecDeque<Run>,
}

impl RunIndex {
    /// Index `lsn` at `loc`, in place of where it was indexed before,
    /// telling `dropped` that location if there was one. An LSN that
    /// follows the run before it in the same frame extends it.
    pub fn insert(&mut self, lsn: Lsn, loc: RecordLoc, dropped: impl FnMut(&RecordLoc, u64)) {
        let at = match self.runs.back() {
            Some(back) if back.last() >= lsn => {
                // Out of order: a catch-up filling a hole, or an LSN
                // logged again.
                self.remove(lsn, lsn, dropped);
                self.runs.partition_point(|r| r.first < lsn)
            }
            _ => self.runs.len(),
        };
        match at.checked_sub(1).and_then(|i| self.runs.get_mut(i)) {
            Some(run) if run.loc == loc && run.ends_before(lsn) => run.len += 1,
            _ => self.runs.insert(at, Run { first: lsn, len: 1, loc }),
        }
    }

    /// Forget every LSN in `lo..=hi`, telling `dropped` the location of
    /// each run that lost some and how many it lost.
    pub fn remove(&mut self, lo: Lsn, hi: Lsn, mut dropped: impl FnMut(&RecordLoc, u64)) {
        let mut i = self.runs.partition_point(|r| r.last() < lo);
        while let Some(run) = self.runs.get_mut(i).filter(|r| r.first <= hi) {
            // The cut lies inside the run, so in its epoch.
            let (first, last) = (run.first, run.last());
            let (from, to) = (first.max(lo), last.min(hi));
            dropped(&run.loc, to.seq() - from.seq() + 1);
            let below = from.seq() - first.seq();
            let above = last.seq() - to.seq();
            match (below, above) {
                (0, 0) => {
                    self.runs.remove(i);
                }
                (_, 0) => {
                    run.len = below;
                    i += 1;
                }
                (0, _) => {
                    (run.first, run.len) = (to.next(), above);
                    i += 1;
                }
                (_, _) => {
                    run.len = below;
                    let rest = Run { first: to.next(), len: above, loc: run.loc };
                    self.runs.insert(i + 1, rest);
                    return;
                }
            }
        }
    }

    /// The indexed LSNs in `(from, to]`, in order, each with its frame.
    pub fn range(&self, from: Lsn, to: Lsn) -> impl Iterator<Item = (Lsn, &RecordLoc)> {
        let start = self.runs.partition_point(|r| r.last() <= from);
        self.runs.range(start..).take_while(move |r| r.first <= to).flat_map(move |r| {
            let last = r.last();
            let lo = if r.first > from { r.first.seq() } else { from.seq() + 1 };
            let hi = if last <= to { last.seq() } else { to.seq() };
            (lo..=hi).map(move |seq| (Lsn::new(r.first.epoch(), seq), &r.loc))
        })
    }

    /// The highest indexed LSN.
    pub fn last(&self) -> Option<Lsn> {
        self.runs.back().map(Run::last)
    }

    /// How many LSNs are indexed.
    pub fn len(&self) -> u64 {
        self.runs.iter().map(|r| r.len).sum()
    }

    /// How many runs hold them.
    #[cfg(test)]
    fn runs(&self) -> usize {
        self.runs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(segment: u64) -> RecordLoc {
        RecordLoc { segment, offset: 0, frame_len: 1 }
    }

    /// `(seq, segment)` of every LSN of epoch 1 the index holds.
    fn listed(index: &RunIndex) -> Vec<(u64, u64)> {
        index.range(Lsn::ZERO, Lsn::MAX).map(|(l, loc)| (l.seq(), loc.segment)).collect()
    }

    fn lsn(seq: u64) -> Lsn {
        Lsn::new(1, seq)
    }

    /// Index `len` LSNs from `first` on, as one frame in `segment`.
    fn log(index: &mut RunIndex, first: Lsn, len: u64, segment: u64) {
        for seq in first.seq()..first.seq() + len {
            index.insert(Lsn::new(first.epoch(), seq), at(segment), |_, _| {});
        }
    }

    #[test]
    fn removing_cuts_splits_and_trims_runs() {
        let mut index = RunIndex::default();
        log(&mut index, lsn(1), 4, 1);
        log(&mut index, lsn(5), 4, 2);
        let mut dropped = Vec::new();
        index.remove(lsn(2), lsn(3), |loc, n| dropped.push((loc.segment, n)));
        assert_eq!(dropped, [(1, 2)]);
        assert_eq!(listed(&index), [(1, 1), (4, 1), (5, 2), (6, 2), (7, 2), (8, 2)]);
        assert_eq!(index.runs(), 3, "the first run split in two");
        index.remove(Lsn::ZERO, lsn(5), |loc, n| dropped.push((loc.segment, n)));
        assert_eq!(dropped, [(1, 2), (1, 1), (1, 1), (2, 1)]);
        assert_eq!(listed(&index), [(6, 2), (7, 2), (8, 2)]);
        index.remove(lsn(8), lsn(8), |_, _| {});
        assert_eq!((index.last(), index.len(), index.runs()), (Some(lsn(7)), 2, 1));
    }

    #[test]
    fn a_range_cuts_through_runs_and_epochs() {
        let mut index = RunIndex::default();
        log(&mut index, lsn(1), 8, 1);
        log(&mut index, Lsn::new(2, 9), 3, 2);
        let seqs = |from, to| index.range(from, to).map(|(l, _)| l).collect::<Vec<_>>();
        assert_eq!(seqs(lsn(6), Lsn::new(2, 9)), [lsn(7), lsn(8), Lsn::new(2, 9)]);
        assert_eq!(seqs(lsn(2), lsn(4)), [lsn(3), lsn(4)]);
        assert_eq!(seqs(lsn(8), Lsn::new(2, 1)), []);
        assert_eq!(seqs(Lsn::new(2, 10), Lsn::MAX), [Lsn::new(2, 11)]);
    }

    #[test]
    fn an_lsn_logged_again_points_at_its_new_frame() {
        let mut index = RunIndex::default();
        log(&mut index, lsn(1), 6, 1);
        log(&mut index, lsn(3), 2, 2);
        assert_eq!(listed(&index), [(1, 1), (2, 1), (3, 2), (4, 2), (5, 1), (6, 1)]);
        // Out of order, into a hole.
        index.remove(lsn(2), lsn(2), |_, _| {});
        log(&mut index, lsn(2), 1, 3);
        assert_eq!(listed(&index), [(1, 1), (2, 3), (3, 2), (4, 2), (5, 1), (6, 1)]);
        // Each LSN logged again tells where it was, once.
        let mut dropped = Vec::new();
        for seq in 1..=6 {
            index.insert(lsn(seq), at(4), |loc, n| dropped.push((loc.segment, n)));
        }
        assert_eq!(dropped, [(1, 1), (3, 1), (2, 1), (2, 1), (1, 1), (1, 1)]);
        assert_eq!((index.len(), index.runs()), (6, 1));
        // Past the last one, nothing was indexed before.
        index.insert(lsn(7), at(4), |_, _| panic!("7 was never indexed"));
    }
}
