//! The memtable: committed writes land here before being flushed to an
//! SSTable (paper §4.1).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use spinnaker_common::{Key, Lsn, Row, Timestamp, WriteOp};

/// In-memory sorted run of committed writes.
///
/// Tracks the LSN range it covers so a flush can tag the resulting SSTable
/// with min/max LSNs (used by recovery catch-up when the log has rolled
/// over, §6.1) and advance the WAL checkpoint, plus the highest commit
/// timestamp applied (the replica's snapshot-read safe point).
#[derive(Default)]
pub struct Memtable {
    rows: BTreeMap<Key, Row>,
    approx_bytes: usize,
    min_lsn: Lsn,
    max_lsn: Lsn,
    max_ts: Timestamp,
}

impl Memtable {
    /// Fresh empty memtable.
    pub fn new() -> Memtable {
        Memtable::default()
    }

    /// Apply a committed write at `lsn`.
    ///
    /// Idempotent: versions derive from the LSN, so replaying a record
    /// during recovery reproduces identical state.
    pub fn apply(&mut self, op: &WriteOp, lsn: Lsn) {
        let added = op.apply_to_row(self.row_mut(&op.key), lsn);
        self.approx_bytes += added;
        if self.min_lsn.is_zero() || lsn < self.min_lsn {
            self.min_lsn = lsn;
        }
        if lsn > self.max_lsn {
            self.max_lsn = lsn;
        }
        self.max_ts = self.max_ts.max(op.timestamp);
    }

    /// Merge a row fragment received from catch-up (paper §6.1: rows shipped
    /// from the leader's SSTables). Column versions inside `fragment` carry
    /// the LSNs of their original writes; LSN accounting follows them.
    pub fn merge_row(&mut self, key: &Key, fragment: &Row) {
        if fragment.is_empty() {
            return;
        }
        let added = self.row_mut(key).merge_newer_sized(fragment);
        self.approx_bytes += added;
        for cv in fragment.columns.values() {
            for v in cv.versions() {
                let lsn = Lsn::from_u64(v.version);
                if self.min_lsn.is_zero() || lsn < self.min_lsn {
                    self.min_lsn = lsn;
                }
                if lsn > self.max_lsn {
                    self.max_lsn = lsn;
                }
                self.max_ts = self.max_ts.max(v.timestamp);
            }
        }
    }

    /// `key`'s row, created — and its key counted — if absent. What the
    /// caller then adds to the row it reports itself: `approx_bytes` is
    /// kept by what each write inserted, never by sizing the row.
    fn row_mut(&mut self, key: &Key) -> &mut Row {
        match self.rows.entry(key.clone()) {
            Entry::Occupied(row) => row.into_mut(),
            Entry::Vacant(slot) => {
                self.approx_bytes += key.len();
                slot.insert(Row::new())
            }
        }
    }

    /// The memtable's part of a point read: what its fragment of `key`'s
    /// row shows at `ts` — per column the newest version with
    /// `timestamp <= ts` — set in `into` where `into` admits it
    /// ([`Row::admits`]).
    pub fn fold_visible(&self, key: &Key, ts: Timestamp, into: &mut Row) {
        let Some(row) = self.rows.get(key) else { return };
        for (col, cv) in &row.columns {
            if let Some(v) = cv.visible_at(ts).filter(|v| into.admits(col, v.version)) {
                into.set(col.clone(), v.flattened());
            }
        }
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no writes have been applied.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rough memory footprint, used to trigger flushes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Lowest LSN applied (`Lsn::ZERO` when empty).
    pub fn min_lsn(&self) -> Lsn {
        self.min_lsn
    }

    /// Highest LSN applied (`Lsn::ZERO` when empty).
    pub fn max_lsn(&self) -> Lsn {
        self.max_lsn
    }

    /// Highest commit timestamp applied (`0` when empty).
    pub fn max_ts(&self) -> Timestamp {
        self.max_ts
    }

    /// Iterate rows in key order (the flush path).
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Row)> {
        self.rows.iter()
    }

    /// Iterate rows in key order starting at the first key `>= start`
    /// (a seek, not a scan-and-skip — scan pages use this so their cost
    /// tracks the page, not the cursor's depth into the range).
    pub fn range_from(&self, start: &Key) -> impl Iterator<Item = (&Key, &Row)> {
        self.rows.range(start.clone()..)
    }

    /// Drain into a sorted vector, resetting the memtable.
    pub fn take_sorted(&mut self) -> Vec<(Key, Row)> {
        let rows = std::mem::take(&mut self.rows);
        self.approx_bytes = 0;
        self.min_lsn = Lsn::ZERO;
        self.max_lsn = Lsn::ZERO;
        self.max_ts = 0;
        rows.into_iter().collect()
    }

    /// Take back rows [`Memtable::take_sorted`] drained for a flush that
    /// failed. The accounting is rebuilt from the rows themselves: the
    /// byte count exactly, the LSN and timestamp bounds at most as wide
    /// as before — so the checkpoint a later flush reports can only
    /// replay more, never less.
    pub(crate) fn restore(&mut self, rows: &[(Key, Row)]) {
        for (key, row) in rows {
            self.merge_row(key, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use spinnaker_common::op;

    use super::*;

    /// What `approx_bytes` claims to be: every key plus every row, sized
    /// from scratch.
    fn recomputed_bytes(mt: &Memtable) -> usize {
        mt.iter().map(|(key, row)| key.len() + row.approx_size()).sum()
    }

    proptest! {
        /// The byte count is kept by adding what each write inserted;
        /// after any history it still equals the sum taken from scratch —
        /// a replayed record and a fragment already held add nothing, an
        /// out-of-order version adds itself once.
        #[test]
        fn approx_bytes_equals_the_recomputed_sum_after_any_history(
            steps in proptest::collection::vec(
                (0u8..4, 0u8..5, 0u8..3, 1u64..24, proptest::collection::vec(any::<u8>(), 0..20)),
                1..64,
            ),
        ) {
            let key = |k: u8| format!("key-{}", "x".repeat(k as usize));
            let col = |c: u8| ["a", "bb", "ccc"][c as usize];
            let mut mt = Memtable::new();
            // Every record applied so far, to replay and to ship as fragments.
            let mut log: Vec<(WriteOp, Lsn)> = Vec::new();
            for (kind, k, c, seq, value) in steps {
                let written = match kind {
                    0 => Some((
                        WriteOp::put(Key::from(key(k).as_str()), col(c), value, seq),
                        Lsn::new(1, seq),
                    )),
                    1 => Some((op::delete(&key(k), col(c)), Lsn::new(1, seq))),
                    // Replay an earlier record, as recovery does.
                    2 => log.get(seq as usize % log.len().max(1)).cloned(),
                    // Ship another memtable's rows, chains and all, as
                    // catch-up and split do: they overlap this one's.
                    _ => {
                        let mut other = Memtable::new();
                        for (op, lsn) in log.iter().filter(|(op, _)| op.key.len() >= key(k).len()) {
                            other.apply(op, Lsn::new(1, lsn.seq() + seq % 3));
                        }
                        for (key, row) in other.iter() {
                            mt.merge_row(key, row);
                        }
                        None
                    }
                };
                if let Some((op, lsn)) = written {
                    mt.apply(&op, lsn);
                    log.push((op, lsn));
                }
                prop_assert_eq!(mt.approx_bytes(), recomputed_bytes(&mt));
            }
            mt.take_sorted();
            prop_assert_eq!(mt.approx_bytes(), 0);
        }
    }

    /// What `key`'s row shows at the latest timestamp.
    fn latest(mt: &Memtable, key: &str) -> Row {
        let mut row = Row::new();
        mt.fold_visible(&Key::from(key), Timestamp::MAX, &mut row);
        row
    }

    #[test]
    fn apply_and_get() {
        let mut mt = Memtable::new();
        mt.apply(&op::put("k1", "c", "v1"), Lsn::new(1, 1));
        mt.apply(&op::put("k1", "d", "v2"), Lsn::new(1, 2));
        mt.apply(&op::put("k0", "c", "v3"), Lsn::new(1, 3));
        assert_eq!(mt.len(), 2);
        let row = latest(&mt, "k1");
        assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), b"v1");
        assert_eq!(row.get_live(b"d").unwrap().value.as_ref(), b"v2");
        assert_eq!((mt.min_lsn(), mt.max_lsn()), (Lsn::new(1, 1), Lsn::new(1, 3)));
    }

    #[test]
    fn later_lsn_overwrites_column() {
        let mut mt = Memtable::new();
        mt.apply(&op::put("k", "c", "old"), Lsn::new(1, 1));
        mt.apply(&op::put("k", "c", "new"), Lsn::new(1, 5));
        let row = latest(&mt, "k");
        assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), b"new");
        assert_eq!(row.get_live(b"c").unwrap().version, Lsn::new(1, 5).as_u64());
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut mt = Memtable::new();
        mt.apply(&op::put("k", "c", "v"), Lsn::new(1, 1));
        mt.apply(&op::delete("k", "c"), Lsn::new(1, 2));
        let row = latest(&mt, "k");
        assert!(row.get_live(b"c").is_none());
        assert!(row.get(b"c").unwrap().tombstone);
    }

    #[test]
    fn take_sorted_resets_state() {
        let mut mt = Memtable::new();
        mt.apply(&op::put("b", "c", "v"), Lsn::new(1, 1));
        mt.apply(&op::put("a", "c", "v"), Lsn::new(1, 2));
        let drained = mt.take_sorted();
        assert_eq!(drained.len(), 2);
        assert!(drained[0].0 < drained[1].0, "sorted by key");
        assert!(mt.is_empty());
        assert_eq!(mt.approx_bytes(), 0);
        assert_eq!(mt.max_lsn(), Lsn::ZERO);
    }

    #[test]
    fn bytes_accounting_grows() {
        let mut mt = Memtable::new();
        assert_eq!(mt.approx_bytes(), 0);
        mt.apply(&op::put("k", "c", "some value"), Lsn::new(1, 1));
        let one = mt.approx_bytes();
        assert!(one > 0);
        mt.apply(&op::put("k2", "c", "some value"), Lsn::new(1, 2));
        assert!(mt.approx_bytes() > one);
    }
}
