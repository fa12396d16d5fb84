//! K-way merge of sorted `(Key, Row)` streams.
//!
//! Used by scan pages and the catch-up feed. Rows for the same key across
//! streams are collapsed with [`Row::merge_newer`]; because column versions
//! are packed LSNs, the outcome is order-independent — the highest version
//! wins per column regardless of which stream supplied it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use spinnaker_common::{Key, Result, Row};

/// A sorted input stream for the merger.
pub type RowStream<'a> = Box<dyn Iterator<Item = Result<(Key, Row)>> + 'a>;

struct HeapItem {
    key: Key,
    row: Row,
    stream: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.stream == other.stream
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for ascending key order.
        other.key.cmp(&self.key).then_with(|| other.stream.cmp(&self.stream))
    }
}

/// Merging iterator over several sorted streams.
pub struct MergeIter<'a> {
    streams: Vec<RowStream<'a>>,
    heap: BinaryHeap<HeapItem>,
    failed: bool,
}

impl<'a> MergeIter<'a> {
    /// Build from the given streams (each must be sorted by key,
    /// duplicate-free within itself).
    pub fn new(mut streams: Vec<RowStream<'a>>) -> Result<MergeIter<'a>> {
        let mut heap = BinaryHeap::with_capacity(streams.len());
        for (i, s) in streams.iter_mut().enumerate() {
            if let Some(item) = s.next() {
                let (key, row) = item?;
                heap.push(HeapItem { key, row, stream: i });
            }
        }
        Ok(MergeIter { streams, heap, failed: false })
    }

    fn advance(&mut self, stream: usize) -> Result<()> {
        if let Some(item) = self.streams[stream].next() {
            let (key, row) = item?;
            self.heap.push(HeapItem { key, row, stream });
        }
        Ok(())
    }
}

impl Iterator for MergeIter<'_> {
    type Item = Result<(Key, Row)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let head = self.heap.pop()?;
        let key = head.key;
        let mut row = head.row;
        if let Err(e) = self.advance(head.stream) {
            self.failed = true;
            return Some(Err(e));
        }
        // Collapse every other stream's fragment of the same key.
        while let Some(peek) = self.heap.peek() {
            if peek.key != key {
                break;
            }
            let Some(dup) = self.heap.pop() else { break };
            row.merge_newer(&dup.row);
            if let Err(e) = self.advance(dup.stream) {
                self.failed = true;
                return Some(Err(e));
            }
        }
        Some(Ok((key, row)))
    }
}

/// Convenience: wrap an in-memory sorted vector as a stream.
pub fn vec_stream(rows: Vec<(Key, Row)>) -> RowStream<'static> {
    Box::new(rows.into_iter().map(Ok))
}

#[cfg(test)]
mod tests {
    use spinnaker_common::{op, Lsn};

    use super::*;

    fn frag(key: &str, col: &str, val: &str, seq: u64) -> (Key, Row) {
        let mut row = Row::new();
        op::put(key, col, val).apply_to_row(&mut row, Lsn::new(1, seq));
        (Key::from(key), row)
    }

    #[test]
    fn merges_disjoint_streams_in_order() {
        let a = vec_stream(vec![frag("a", "c", "1", 1), frag("c", "c", "3", 3)]);
        let b = vec_stream(vec![frag("b", "c", "2", 2), frag("d", "c", "4", 4)]);
        let merged: Vec<_> = MergeIter::new(vec![a, b]).unwrap().map(|r| r.unwrap().0).collect();
        assert_eq!(merged, vec![Key::from("a"), Key::from("b"), Key::from("c"), Key::from("d")]);
    }

    #[test]
    fn same_key_fragments_collapse_by_version() {
        let older = vec_stream(vec![frag("k", "c", "old", 1)]);
        let newer = vec_stream(vec![frag("k", "c", "new", 9)]);
        // Stream order must not matter.
        for streams in [
            vec![
                vec_stream(vec![frag("k", "c", "old", 1)]),
                vec_stream(vec![frag("k", "c", "new", 9)]),
            ],
            vec![newer, older],
        ] {
            let got: Vec<_> = MergeIter::new(streams).unwrap().map(|r| r.unwrap()).collect();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].1.get_live(b"c").unwrap().value.as_ref(), b"new");
        }
    }

    #[test]
    fn distinct_columns_union() {
        let a = vec_stream(vec![frag("k", "x", "1", 1)]);
        let b = vec_stream(vec![frag("k", "y", "2", 2)]);
        let got: Vec<_> = MergeIter::new(vec![a, b]).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(got[0].1.len(), 2);
    }

    #[test]
    fn empty_and_single_streams() {
        let empty = MergeIter::new(vec![]).unwrap();
        assert_eq!(empty.count(), 0);
        let one = MergeIter::new(vec![vec_stream(vec![frag("a", "c", "1", 1)])]).unwrap();
        assert_eq!(one.count(), 1);
    }

    #[test]
    fn three_way_interleaving() {
        let mut expected = Vec::new();
        let mut streams = Vec::new();
        for s in 0..3 {
            let mut rows = Vec::new();
            for i in 0..50 {
                let key = format!("k{:04}", i * 3 + s);
                rows.push(frag(&key, "c", "v", (i * 3 + s + 1) as u64));
                expected.push(Key::from(key.as_str()));
            }
            streams.push(vec_stream(rows));
        }
        expected.sort();
        let got: Vec<_> = MergeIter::new(streams).unwrap().map(|r| r.unwrap().0).collect();
        assert_eq!(got, expected);
    }
}
