//! The row/column data model of the datastore (paper §3).
//!
//! Data is organized into rows, each row uniquely identified by its key. A
//! row contains any number of columns with corresponding values and version
//! numbers. Column names and values are opaque bytes.
//!
//! Version numbers are monotonically increasing integers managed by the
//! store and exposed through `get`; conditional put/delete use them for
//! optimistic concurrency control. In this implementation a column's
//! version is the packed LSN of the write that produced it: within a cohort
//! writes are applied in LSN order, so versions are identical on every
//! replica, strictly increasing, and — crucially — *idempotent* under log
//! replay during recovery (re-applying a record reproduces the exact same
//! column state).

use std::fmt;

use bytes::Bytes;

use crate::lsn::Lsn;

/// A row key: opaque bytes, ordered lexicographically (range partitioning
/// splits the key space into contiguous byte ranges).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(pub Bytes);

impl Key {
    /// Key from any byte-ish source (named `new` so the `From` impls below
    /// are not shadowed by an inherent `from`).
    pub fn new<B: Into<Bytes>>(b: B) -> Key {
        Key(b.into())
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty (the minimum key).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({})", DisplayBytes(&self.0))
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        Key(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<&[u8]> for Key {
    fn from(b: &[u8]) -> Key {
        Key(Bytes::copy_from_slice(b))
    }
}

impl From<Vec<u8>> for Key {
    fn from(v: Vec<u8>) -> Key {
        Key(Bytes::from(v))
    }
}

/// A column name: opaque bytes (`"c"`, `"email"`, ...).
pub type ColumnName = Bytes;

/// A column value: opaque bytes.
pub type Value = Bytes;

/// Column version, exposed through the `get` API and consumed by
/// conditional put/delete. `0` means "column absent".
pub type Version = u64;

/// Wall-clock microseconds; used by the eventually consistent baseline for
/// last-writer-wins conflict resolution, and recorded on Spinnaker columns
/// for observability.
pub type Timestamp = u64;

/// Identifies a node (server) in the cluster.
pub type NodeId = u32;

/// Identifies a replicated key range — equivalently, the cohort that
/// replicates it (paper §4: "each group of nodes involved in replicating a
/// key range is denoted as a cohort").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct RangeId(pub u32);

impl fmt::Display for RangeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The read timestamp of a snapshot read: either "pick one for me" or a
/// concrete pinned cut. An explicit type rather than a sentinel value, so
/// no caller ever encodes "pin" as a magic zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SnapshotTs {
    /// Ask the serving leader to *pin* a timestamp (its current safe
    /// point, covering every write it has acknowledged) and report it
    /// back in the reply's `at_ts`.
    Pin,
    /// Replay the cut pinned at this commit timestamp. May be served by
    /// any replica that can prove it has applied every commit at or
    /// below it (the leader always can; a follower can once the leader's
    /// closed timestamp reaches it).
    At(Timestamp),
}

impl SnapshotTs {
    /// The concrete pinned timestamp, or `None` for [`SnapshotTs::Pin`].
    pub fn pinned(self) -> Option<Timestamp> {
        match self {
            SnapshotTs::Pin => None,
            SnapshotTs::At(ts) => Some(ts),
        }
    }
}

/// Read consistency level (paper §3): the `consistent` flag of `get`,
/// extended with an MVCC snapshot mode for multi-range scans.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Consistency {
    /// Always return the latest committed value. Routed to the cohort
    /// leader.
    Strong,
    /// Possibly stale value in exchange for better performance; may be
    /// served by any replica (timeline consistency, §1.3).
    Timeline,
    /// Read the state visible at a fixed commit timestamp — a consistent
    /// cut of the whole key space. [`SnapshotTs::Pin`] asks the serving
    /// leader to choose the timestamp and report it back;
    /// [`SnapshotTs::At`] replays that pinned cut, and may be served by
    /// any replica that has applied all commits at or below it. This is
    /// what makes a paged multi-range scan a true snapshot: the first
    /// page pins, every later page — across range splits, merges, and
    /// cohort moves — reads the same cut.
    Snapshot(SnapshotTs),
}

impl Consistency {
    /// A snapshot read that lets the first serving leader pick (and pin)
    /// the read timestamp.
    pub const SNAPSHOT_PIN: Consistency = Consistency::Snapshot(SnapshotTs::Pin);

    /// A snapshot read replaying the cut pinned at `ts`.
    pub fn snapshot_at(ts: Timestamp) -> Consistency {
        Consistency::Snapshot(SnapshotTs::At(ts))
    }
}

/// The stored state of one column of one row: the **latest** version at
/// the top, plus the MVCC chain of superseded versions in [`older`].
///
/// The chain is what makes snapshot reads possible: a read at timestamp
/// `ts` walks the chain for the newest version whose commit timestamp is
/// `<= ts`. Superseded versions are retained until compaction prunes
/// them below the store's GC floor, so a pinned snapshot scan never
/// loses its cut.
///
/// [`older`]: ColumnValue::older
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ColumnValue {
    /// The value bytes. Meaningless when `tombstone` is set.
    pub value: Value,
    /// Version of the write that produced this state (packed LSN).
    pub version: Version,
    /// Commit timestamp assigned by the leader when the write was
    /// sequenced; replicated with the write, so identical on every
    /// replica. Within a range, commit order, LSN order, and timestamp
    /// order all agree — that is the MVCC visibility invariant.
    pub timestamp: Timestamp,
    /// True when the column was deleted (the tombstone is retained until
    /// compaction garbage-collects it).
    pub tombstone: bool,
    /// Superseded versions, newest first (strictly descending by
    /// `version` and `timestamp`). Entries carry empty chains of their
    /// own. Empty for freshly written cells; populated as newer writes
    /// push the previous head down.
    pub older: Vec<ColumnValue>,
}

impl ColumnValue {
    /// A live value written at `lsn`.
    pub fn live(value: Value, lsn: Lsn, timestamp: Timestamp) -> ColumnValue {
        ColumnValue { value, version: lsn.as_u64(), timestamp, tombstone: false, older: Vec::new() }
    }

    /// A tombstone written at `lsn`.
    pub fn deleted(lsn: Lsn, timestamp: Timestamp) -> ColumnValue {
        ColumnValue {
            value: Bytes::new(),
            version: lsn.as_u64(),
            timestamp,
            tombstone: true,
            older: Vec::new(),
        }
    }

    /// The newest version (the head itself or a chain entry) visible at
    /// `ts` — i.e. with commit timestamp `<= ts` — or `None` when every
    /// retained version is newer than `ts`.
    pub fn visible_at(&self, ts: Timestamp) -> Option<&ColumnValue> {
        if self.timestamp <= ts {
            return Some(self);
        }
        self.older.iter().find(|cv| cv.timestamp <= ts)
    }

    /// This cell's head state with the chain stripped (what reads and
    /// replies carry).
    pub fn flattened(&self) -> ColumnValue {
        ColumnValue {
            value: self.value.clone(),
            version: self.version,
            timestamp: self.timestamp,
            tombstone: self.tombstone,
            older: Vec::new(),
        }
    }

    /// Every version in the chain, newest first (head included).
    pub fn versions(&self) -> impl Iterator<Item = &ColumnValue> {
        std::iter::once(self).chain(self.older.iter())
    }

    /// Approximate in-memory footprint, for memtable accounting.
    pub fn approx_size(&self) -> usize {
        self.value.len()
            + 8
            + 8
            + 1
            + self.older.iter().map(ColumnValue::approx_size).sum::<usize>()
    }
}

/// The columns of a [`Row`]: a map from column name to column state,
/// sorted by name, each name at most once.
///
/// Most rows hold one column, so one is stored **inline**, in whatever
/// holds the row (a memtable slot, a scan page, a reply being built), with
/// no allocation of its own. Two or more sit in **one sorted vector**,
/// which a row decoded from bytes reserves from its encoded column count.
/// The interface is the part of a `BTreeMap<ColumnName, ColumnValue>`'s
/// that rows use — [`get`](Columns::get), [`insert`](Columns::insert)
/// (replacing a name already held), [`remove`](Columns::remove), iteration
/// in name order — and so is the `Debug` output. Equality compares the
/// columns, not how they are stored.
#[derive(Clone, Default)]
pub struct Columns(Repr);

#[derive(Clone)]
enum Repr {
    /// Exactly one column.
    One((ColumnName, ColumnValue)),
    /// Any number of columns, sorted by name: none when new (an empty
    /// vector allocates nothing), possibly one after a removal or a
    /// reservation.
    Many(Vec<(ColumnName, ColumnValue)>),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Many(Vec::new())
    }
}

impl Columns {
    /// No columns.
    pub fn new() -> Columns {
        Columns::default()
    }

    /// Make room for `additional` more columns, so that inserting them
    /// does not reallocate. Nothing is allocated while the total fits
    /// inline (one column).
    pub fn reserve(&mut self, additional: usize) {
        if self.len() + additional < 2 {
            return;
        }
        self.0 = match std::mem::take(&mut self.0) {
            Repr::One(only) => {
                let mut cols = Vec::with_capacity(1 + additional);
                cols.push(only);
                Repr::Many(cols)
            }
            Repr::Many(mut cols) => {
                cols.reserve(additional);
                Repr::Many(cols)
            }
        };
    }

    fn as_slice(&self) -> &[(ColumnName, ColumnValue)] {
        match &self.0 {
            Repr::One(only) => std::slice::from_ref(only),
            Repr::Many(cols) => cols,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(ColumnName, ColumnValue)] {
        match &mut self.0 {
            Repr::One(only) => std::slice::from_mut(only),
            Repr::Many(cols) => cols,
        }
    }

    /// Where `name` is, or where it would go.
    fn search(&self, name: &[u8]) -> std::result::Result<usize, usize> {
        self.as_slice().binary_search_by(|(have, _)| have.as_ref().cmp(name))
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when there are no columns.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The state of column `name`.
    pub fn get(&self, name: &[u8]) -> Option<&ColumnValue> {
        let held = self.search(name).ok()?;
        Some(&self.as_slice()[held].1)
    }

    /// The state of column `name`, mutably.
    pub fn get_mut(&mut self, name: &[u8]) -> Option<&mut ColumnValue> {
        let held = self.search(name).ok()?;
        Some(&mut self.as_mut_slice()[held].1)
    }

    /// Set column `name` to `cv`, returning the state it replaces.
    pub fn insert(&mut self, name: ColumnName, cv: ColumnValue) -> Option<ColumnValue> {
        match self.search(&name) {
            Ok(held) => Some(std::mem::replace(&mut self.as_mut_slice()[held].1, cv)),
            Err(at) => {
                self.insert_new(at, name, cv);
                None
            }
        }
    }

    /// Put a column not held yet at position `at` of the sorted order.
    fn insert_new(&mut self, at: usize, name: ColumnName, cv: ColumnValue) {
        self.0 = match std::mem::take(&mut self.0) {
            // Empty, with no room reserved: the column goes inline.
            Repr::Many(cols) if cols.capacity() == 0 => Repr::One((name, cv)),
            Repr::Many(mut cols) => {
                cols.insert(at, (name, cv));
                Repr::Many(cols)
            }
            Repr::One(only) => {
                let mut cols = Vec::with_capacity(2);
                cols.push(only);
                cols.insert(at, (name, cv));
                Repr::Many(cols)
            }
        };
    }

    /// Remove column `name`, returning its state.
    pub fn remove(&mut self, name: &[u8]) -> Option<ColumnValue> {
        let i = self.search(name).ok()?;
        Some(match std::mem::take(&mut self.0) {
            Repr::One((_, cv)) => cv,
            Repr::Many(mut cols) => {
                let (_, cv) = cols.remove(i);
                self.0 = Repr::Many(cols);
                cv
            }
        })
    }

    /// The columns in name order.
    pub fn iter(&self) -> ColumnIter<'_> {
        ColumnIter(self.as_slice().iter())
    }

    /// The column names, in order.
    pub fn keys(&self) -> impl Iterator<Item = &ColumnName> {
        self.as_slice().iter().map(|(name, _)| name)
    }

    /// The column states, in name order.
    pub fn values(&self) -> impl Iterator<Item = &ColumnValue> {
        self.as_slice().iter().map(|(_, cv)| cv)
    }
}

impl PartialEq for Columns {
    fn eq(&self, other: &Columns) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Columns {}

impl fmt::Debug for Columns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Iterator over [`Columns`] in name order: `(name, state)` pairs.
#[derive(Clone, Debug)]
pub struct ColumnIter<'a>(std::slice::Iter<'a, (ColumnName, ColumnValue)>);

impl<'a> Iterator for ColumnIter<'a> {
    type Item = (&'a ColumnName, &'a ColumnValue);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(name, cv)| (name, cv))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<'a> IntoIterator for &'a Columns {
    type Item = (&'a ColumnName, &'a ColumnValue);
    type IntoIter = ColumnIter<'a>;

    fn into_iter(self) -> ColumnIter<'a> {
        self.iter()
    }
}

/// A row: its columns, sorted by name (see [`Columns`] for how they are
/// held).
///
/// Rows returned by reads have tombstones filtered out; rows stored in
/// memtables/SSTables retain them until compaction.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Row {
    /// Column states, sorted by column name.
    pub columns: Columns,
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// An empty row with room for `n` columns (allocating nothing for one).
    pub fn with_capacity(n: usize) -> Row {
        let mut row = Row::new();
        row.columns.reserve(n);
        row
    }

    /// Insert or replace a column state.
    pub fn set(&mut self, col: ColumnName, cv: ColumnValue) {
        self.columns.insert(col, cv);
    }

    /// Look up a column (tombstones included).
    pub fn get(&self, col: &[u8]) -> Option<&ColumnValue> {
        self.columns.get(col)
    }

    /// Look up a live column (None for absent *or* tombstoned).
    pub fn get_live(&self, col: &[u8]) -> Option<&ColumnValue> {
        self.columns.get(col).filter(|cv| !cv.tombstone)
    }

    /// Record one write (or replayed record) of a column: the MVCC-aware
    /// insert. A strictly newer version pushes the current head onto the
    /// chain; re-applying the head's own version is a no-op (idempotent
    /// log replay); an older version is threaded into the chain at its
    /// sorted position (catch-up fragments may arrive out of order).
    ///
    /// Returns by how much [`Row::approx_size`] grew — zero for a
    /// version already held — so a memtable can keep its byte count
    /// without walking the chain before and after.
    pub fn apply_version(&mut self, col: ColumnName, cv: ColumnValue) -> usize {
        debug_assert!(cv.older.is_empty(), "apply_version takes a single version");
        match self.columns.get_mut(&col) {
            None => {
                let added = col.len() + cv.approx_size();
                self.columns.insert(col, cv);
                added
            }
            Some(head) => Self::thread_version(head, cv),
        }
    }

    /// Thread a single version into an existing chain head, preserving
    /// strict descending version order and dropping duplicates. Returns
    /// the bytes the chain grew by.
    fn thread_version(head: &mut ColumnValue, cv: ColumnValue) -> usize {
        if cv.version == head.version {
            return 0; // idempotent replay of the head
        }
        let added = cv.approx_size();
        if cv.version > head.version {
            let mut old_head = std::mem::replace(head, cv);
            head.older = std::mem::take(&mut old_head.older);
            head.older.insert(0, old_head);
            return added;
        }
        match head.older.binary_search_by(|e| cv.version.cmp(&e.version)) {
            Ok(_) => 0,
            Err(pos) => {
                head.older.insert(pos, cv);
                added
            }
        }
    }

    /// Merge `newer` into `self`, unioning the version chains per column
    /// (the highest version becomes the head). Used where a row's history
    /// is the product — scans, catch-up, split — to collapse its memtable
    /// and SSTable fragments; because versions are packed LSNs the
    /// outcome is order-independent. (Compaction merges fragments the
    /// same way without decoding them: `codec::RowMerge`.)
    pub fn merge_newer(&mut self, newer: &Row) {
        self.merge_newer_sized(newer);
    }

    /// [`Row::merge_newer`], returning by how much [`Row::approx_size`]
    /// grew: what a memtable adds to its byte count for the fragment.
    pub fn merge_newer_sized(&mut self, newer: &Row) -> usize {
        let mut added = 0;
        for (col, cv) in &newer.columns {
            match self.columns.get_mut(col) {
                None => {
                    added += col.len() + cv.approx_size();
                    self.columns.insert(col.clone(), cv.clone());
                }
                Some(existing) => {
                    for v in cv.versions() {
                        added += Self::thread_version(existing, v.flattened());
                    }
                }
            }
        }
        added
    }

    /// Whether `version` of `col` is higher than what the row holds of
    /// that column (or it holds nothing of it). How a point read combines
    /// the fragments of a row: each shows its newest version visible at
    /// the read timestamp, and a fragment's version is [`Row::set`] only
    /// where the row admits it. Versions are packed LSNs, and LSN order
    /// is commit-timestamp order within a range, so the highest of the
    /// fragments' newest-visible versions is the newest visible of all —
    /// what [`Row::merge_newer`] then [`Row::visible_at`] would show.
    pub fn admits(&self, col: &[u8], version: Version) -> bool {
        self.columns.get(col).is_none_or(|have| have.version < version)
    }

    /// The state of this row visible at commit timestamp `ts`: per
    /// column, the newest retained version with `timestamp <= ts`
    /// (chains stripped). Columns with no visible version are absent.
    pub fn visible_at(&self, ts: Timestamp) -> Row {
        let mut row = Row::with_capacity(self.len());
        for (col, cv) in &self.columns {
            if let Some(v) = cv.visible_at(ts) {
                row.set(col.clone(), v.flattened());
            }
        }
        row
    }

    /// True when the row has no columns at all.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Number of columns (tombstones included).
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Highest version present in the row (0 for an empty row).
    pub fn max_version(&self) -> Version {
        self.columns.values().map(|cv| cv.version).max().unwrap_or(0)
    }

    /// Approximate in-memory footprint, for memtable accounting.
    pub fn approx_size(&self) -> usize {
        self.columns.iter().map(|(name, cv)| name.len() + cv.approx_size()).sum()
    }
}

/// Helper rendering possibly-binary bytes: printable ASCII as-is, the rest
/// as `\xNN` escapes.
pub struct DisplayBytes<'a>(pub &'a [u8]);

impl fmt::Display for DisplayBytes<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"")?;
        for &b in self.0 {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cv(version: u64, val: &str) -> ColumnValue {
        ColumnValue {
            value: Bytes::copy_from_slice(val.as_bytes()),
            version,
            timestamp: version,
            tombstone: false,
            older: Vec::new(),
        }
    }

    #[test]
    fn key_ordering_is_lexicographic() {
        assert!(Key::from("a") < Key::from("b"));
        assert!(Key::from("a") < Key::from("aa"));
        assert!(Key::from("") < Key::from("a"));
        assert!(Key::from(vec![0xffu8]) > Key::from("zzz"));
    }

    #[test]
    fn row_merge_keeps_highest_version_per_column() {
        let mut base = Row::new();
        base.set(Bytes::from_static(b"a"), cv(1, "old-a"));
        base.set(Bytes::from_static(b"b"), cv(5, "new-b"));

        let mut newer = Row::new();
        newer.set(Bytes::from_static(b"a"), cv(3, "new-a"));
        newer.set(Bytes::from_static(b"b"), cv(2, "old-b"));
        newer.set(Bytes::from_static(b"c"), cv(4, "only-c"));

        base.merge_newer(&newer);
        assert_eq!(base.get(b"a").unwrap().value, Bytes::from_static(b"new-a"));
        assert_eq!(base.get(b"b").unwrap().value, Bytes::from_static(b"new-b"));
        assert_eq!(base.get(b"c").unwrap().value, Bytes::from_static(b"only-c"));
        assert_eq!(base.max_version(), 5);
    }

    #[test]
    fn tombstones_hide_columns_from_live_reads() {
        let mut row = Row::new();
        row.set(Bytes::from_static(b"x"), cv(1, "v"));
        row.set(Bytes::from_static(b"y"), ColumnValue::deleted(Lsn::new(1, 2), 0));
        assert!(row.get_live(b"x").is_some());
        assert!(row.get_live(b"y").is_none());
        assert!(row.get(b"y").is_some(), "raw get still sees the tombstone");
    }

    #[test]
    fn tombstone_with_higher_version_supersedes_value() {
        let mut row = Row::new();
        row.set(Bytes::from_static(b"x"), cv(1, "v"));
        let mut newer = Row::new();
        newer.set(Bytes::from_static(b"x"), ColumnValue::deleted(Lsn::new(1, 9), 0));
        row.merge_newer(&newer);
        assert!(row.get_live(b"x").is_none());
    }

    #[test]
    fn column_version_is_packed_lsn() {
        let lsn = Lsn::new(2, 30);
        let cv = ColumnValue::live(Bytes::from_static(b"v"), lsn, 17);
        assert_eq!(cv.version, lsn.as_u64());
        assert_eq!(cv.timestamp, 17);
    }

    fn ts_cv(version: u64, ts: u64, val: &str) -> ColumnValue {
        ColumnValue {
            value: Bytes::copy_from_slice(val.as_bytes()),
            version,
            timestamp: ts,
            tombstone: false,
            older: Vec::new(),
        }
    }

    #[test]
    fn apply_version_builds_descending_chain() {
        let mut row = Row::new();
        let c = Bytes::from_static(b"c");
        row.apply_version(c.clone(), ts_cv(1, 10, "v1"));
        row.apply_version(c.clone(), ts_cv(3, 30, "v3"));
        row.apply_version(c.clone(), ts_cv(2, 20, "v2")); // out-of-order arrival
        row.apply_version(c.clone(), ts_cv(3, 30, "v3")); // idempotent replay
        let head = row.get(b"c").unwrap();
        assert_eq!(head.value.as_ref(), b"v3");
        let versions: Vec<u64> = head.versions().map(|v| v.version).collect();
        assert_eq!(versions, vec![3, 2, 1], "strictly descending, duplicate-free");
    }

    #[test]
    fn visible_at_walks_the_chain() {
        let mut row = Row::new();
        let c = Bytes::from_static(b"c");
        row.apply_version(c.clone(), ts_cv(1, 10, "v1"));
        row.apply_version(c.clone(), ts_cv(2, 20, "v2"));
        row.apply_version(c.clone(), ColumnValue::deleted(Lsn::new(1, 3), 30));
        assert!(row.visible_at(5).is_empty(), "before the first write: nothing");
        assert_eq!(row.visible_at(10).get(b"c").unwrap().value.as_ref(), b"v1");
        assert_eq!(row.visible_at(19).get(b"c").unwrap().value.as_ref(), b"v1");
        assert_eq!(row.visible_at(20).get(b"c").unwrap().value.as_ref(), b"v2");
        assert!(row.visible_at(30).get(b"c").unwrap().tombstone, "the delete is visible at 30");
        assert!(row.visible_at(u64::MAX).get(b"c").unwrap().tombstone);
    }

    #[test]
    fn merge_newer_unions_chains_order_independently() {
        let c = Bytes::from_static(b"c");
        let mut a = Row::new();
        a.apply_version(c.clone(), ts_cv(1, 10, "v1"));
        a.apply_version(c.clone(), ts_cv(3, 30, "v3"));
        let mut b = Row::new();
        b.apply_version(c.clone(), ts_cv(2, 20, "v2"));

        let mut ab = a.clone();
        ab.merge_newer(&b);
        let mut ba = b.clone();
        ba.merge_newer(&a);
        assert_eq!(ab, ba, "merge is order-independent");
        let versions: Vec<u64> = ab.get(b"c").unwrap().versions().map(|v| v.version).collect();
        assert_eq!(versions, vec![3, 2, 1]);
        assert_eq!(ab.visible_at(25).get(b"c").unwrap().value.as_ref(), b"v2");
    }

    #[test]
    fn display_bytes_escapes_binary() {
        assert_eq!(DisplayBytes(b"abc").to_string(), "\"abc\"");
        assert_eq!(DisplayBytes(&[0x00, b'a', 0xff]).to_string(), "\"\\x00a\\xff\"");
    }

    #[test]
    fn approx_size_counts_names_and_values() {
        let mut row = Row::new();
        row.set(Bytes::from_static(b"col"), cv(1, "valu"));
        // 3 (name) + 4 (value) + 17 (version+timestamp+flag)
        assert_eq!(row.approx_size(), 24);
    }
}
