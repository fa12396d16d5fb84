//! Range partitioning and cohort layout (paper §4, Fig. 2) — as a
//! **versioned, mutable range table**.
//!
//! The key space is split into contiguous ranges; each range is replicated
//! on a cohort of `N` nodes laid out by chained declustering. Unlike the
//! paper's fixed deployment, the table can change at runtime: a leader may
//! *split* its range at a chosen key, producing two child ranges that
//! inherit the parent's replicas (ScalienDB-style elastic re-sharding).
//! Every mutation bumps the table `version`; the encoded table lives in the
//! coordination service (see [`TABLE_PATH`]) so nodes and clients can
//! refresh stale routing after a `WrongRange` reply. A split or merge
//! also records each range it retires — its bounds, its drained
//! [`Barrier`] and its successors — so a replica that missed the reshard
//! rebuilds the successors from the table exactly as one that took part.
//!
//! Routing is **byte-order** based: a key belongs to the last range whose
//! inclusive `start` bound is `<=` the key under plain lexicographic byte
//! comparison. (Routing through [`key_to_u64`] would zero-pad short keys
//! and truncate long ones, disagreeing with byte order exactly at range
//! boundaries — see the boundary regression tests below.)

use spinnaker_common::codec::{self, Decode, Encode, Source};
use spinnaker_common::{Epoch, Error, Key, Lsn, NodeId, RangeId, Result};

/// Replication factor (the paper fixes N = 3 and so do we by default).
pub const REPLICATION: usize = 3;

/// Coordination-service znode holding the encoded range table.
pub const TABLE_PATH: &str = "/ranges/table";

/// One entry of the range table: key bounds plus replica placement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RangeDef {
    /// Stable identifier (also names the WAL stream, the store directory
    /// and the `/r{id}` election znodes).
    pub id: RangeId,
    /// Inclusive lower bound (`Key::default()` = beginning of the space).
    pub start: Key,
    /// Exclusive upper bound (`None` = end of the space).
    pub end: Option<Key>,
    /// Replica set, preferred-leader first.
    pub cohort: Vec<NodeId>,
    /// Preferred (initial) leader; election tie-breaks toward it.
    pub home: NodeId,
    /// Cohort-change generation: bumped by every replica-set mutation
    /// (move begin/commit/abort). Lets observers distinguish "same cohort
    /// list" from "same cohort history" across CAS races.
    pub gen: u64,
    /// A replica movement in flight: `(departing, joining)`. Published
    /// *before* any data moves so crash recovery can see the intent; the
    /// commit CAS clears it and swaps the cohort entry.
    pub moving: Option<(NodeId, NodeId)>,
}

/// Where a range's leader stood when its barrier drained and the table
/// retired the range: everything the range committed is at or below
/// `lsn`, and nothing it stamped or served is above `clock`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Barrier {
    /// The leader's epoch.
    pub epoch: Epoch,
    /// The leader's last committed LSN.
    pub lsn: Lsn,
    /// The leader's timestamp clock: the highest commit timestamp it
    /// assigned or snapshot timestamp it served.
    pub clock: u64,
}

/// A range the table no longer serves (split or merged away).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Retired {
    /// The retired range.
    pub id: RangeId,
    /// Its inclusive lower bound.
    pub start: Key,
    /// Its exclusive upper bound (`None` = end of the space).
    pub end: Option<Key>,
    /// Its drained barrier.
    pub barrier: Barrier,
    /// The ranges that took over its keys, in key order.
    pub successors: Vec<RangeId>,
}

/// The versioned range table ("ring" kept for historical continuity).
#[derive(Clone, Debug)]
pub struct Ring {
    nodes: usize,
    replication: usize,
    version: u64,
    next_id: u32,
    /// Sorted by `start` (ascending); bounds tile the key space.
    ranges: Vec<RangeDef>,
    /// Every range a split or merge retired, oldest first.
    retired: Vec<Retired>,
}

impl Ring {
    /// A ring of `nodes` nodes with one base range per node, boundaries at
    /// multiples of `u64::MAX / nodes` (8-byte big-endian keys, so byte
    /// order equals numeric order). Range `i`'s cohort is nodes
    /// `i..i+replication` in ring order — chained declustering.
    pub fn uniform(nodes: usize, replication: usize) -> Ring {
        assert!(nodes >= replication, "need at least as many nodes as replicas");
        assert!(replication >= 1);
        let count = u32::try_from(nodes).expect("node ids are u32");
        let step = u64::MAX / nodes as u64;
        let ranges = (0..nodes)
            .zip(0u32..)
            .map(|(i, id)| RangeDef {
                id: RangeId(id),
                // The first range starts at the absolute minimum (the empty
                // key), not at eight zero bytes: keys shorter than 8 bytes
                // sort below `u64_to_key(0)` and must still be covered.
                start: if i == 0 { Key::default() } else { u64_to_key(i as u64 * step) },
                end: (i + 1 < nodes).then(|| u64_to_key((i as u64 + 1) * step)),
                cohort: (0..replication).map(|j| ((i + j) % nodes) as NodeId).collect(),
                home: i as NodeId,
                gen: 0,
                moving: None,
            })
            .collect();
        Ring { nodes, replication, version: 1, next_id: count, ranges, retired: Vec::new() }
    }

    /// Standard 3-way replicated ring.
    pub fn with_nodes(nodes: usize) -> Ring {
        Ring::uniform(nodes, REPLICATION)
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Table version; bumped by every mutation (splits).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// All live range ids, in key order.
    pub fn ranges(&self) -> impl Iterator<Item = RangeId> + '_ {
        self.ranges.iter().map(|d| d.id)
    }

    /// All range definitions, in key order.
    pub fn defs(&self) -> impl Iterator<Item = &RangeDef> {
        self.ranges.iter()
    }

    /// The definition of `range`, if it is (still) live.
    pub fn def(&self, range: RangeId) -> Option<&RangeDef> {
        self.ranges.iter().find(|d| d.id == range)
    }

    /// The cohort replicating `range` (empty when the range is gone).
    pub fn cohort(&self, range: RangeId) -> Vec<NodeId> {
        self.def(range).map(|d| d.cohort.clone()).unwrap_or_default()
    }

    /// The ranges `node` participates in, in key order.
    pub fn ranges_of(&self, node: NodeId) -> Vec<RangeId> {
        self.ranges.iter().filter(|d| d.cohort.contains(&node)).map(|d| d.id).collect()
    }

    /// The range a key belongs to: the last range whose inclusive start is
    /// `<=` the key, under plain byte comparison.
    pub fn range_of(&self, key: &Key) -> RangeId {
        let idx = self.ranges.partition_point(|d| d.start.as_bytes() <= key.as_bytes());
        self.ranges[idx.saturating_sub(1)].id
    }

    /// The preferred (initial) leader of a range.
    pub fn home_node(&self, range: RangeId) -> NodeId {
        self.def(range).map(|d| d.home).unwrap_or(u32::MAX)
    }

    /// The entry of `range` if the table retired it.
    pub fn retired(&self, range: RangeId) -> Option<&Retired> {
        self.retired.iter().find(|r| r.id == range)
    }

    /// The retired ranges `range` took keys over from.
    pub fn predecessors(&self, range: RangeId) -> impl Iterator<Item = &Retired> {
        self.retired.iter().filter(move |r| r.successors.contains(&range))
    }

    /// Record that `def` was retired at `barrier` in favour of
    /// `successors`.
    fn retire(&mut self, def: &RangeDef, barrier: Barrier, successors: Vec<RangeId>) {
        let (id, start, end) = (def.id, def.start.clone(), def.end.clone());
        self.retired.push(Retired { id, start, end, barrier, successors });
    }

    /// Inclusive lower bound of a range as a key.
    pub fn range_start(&self, range: RangeId) -> Key {
        self.def(range).map(|d| d.start.clone()).unwrap_or_default()
    }

    /// Exclusive upper bound of a range (`None` for the last range).
    pub fn range_end(&self, range: RangeId) -> Option<Key> {
        self.def(range).and_then(|d| d.end.clone())
    }

    /// Split `parent` at `at`, producing two child ranges that inherit the
    /// parent's replicas: the left child keeps the parent's preferred
    /// leader, the right child's preference moves to the next cohort
    /// member (so leadership of a hot range spreads after the split).
    /// Retires `parent` at `barrier` and bumps the table version. Returns
    /// `(left, right)` child ids.
    pub fn split(
        &mut self,
        parent: RangeId,
        at: &Key,
        barrier: Barrier,
    ) -> Result<(RangeId, RangeId)> {
        let idx = self
            .ranges
            .iter()
            .position(|d| d.id == parent)
            .ok_or_else(|| Error::NotFound(format!("range {parent} not in table")))?;
        let d = &self.ranges[idx];
        let inside = d.start.as_bytes() < at.as_bytes()
            && d.end.as_ref().is_none_or(|e| at.as_bytes() < e.as_bytes());
        if !inside {
            return Err(Error::InvalidArgument(format!(
                "split key {:?} not strictly inside {parent}",
                at
            )));
        }
        if d.moving.is_some() {
            return Err(Error::InvalidArgument(format!(
                "range {parent} has a replica movement in flight"
            )));
        }
        let left = RangeId(self.next_id);
        let right = RangeId(self.next_id + 1);
        self.next_id += 2;
        let home_pos = d.cohort.iter().position(|&n| n == d.home).unwrap_or(0);
        let right_home = d.cohort[(home_pos + 1) % d.cohort.len()];
        let left_def = RangeDef {
            id: left,
            start: d.start.clone(),
            end: Some(at.clone()),
            cohort: d.cohort.clone(),
            home: d.home,
            gen: 0,
            moving: None,
        };
        let right_def = RangeDef {
            id: right,
            start: at.clone(),
            end: d.end.clone(),
            cohort: d.cohort.clone(),
            home: right_home,
            gen: 0,
            moving: None,
        };
        let parent_def = d.clone();
        self.retire(&parent_def, barrier, vec![left, right]);
        self.ranges.splice(idx..=idx, [left_def, right_def]);
        self.version += 1;
        Ok((left, right))
    }

    /// Merge two *adjacent* ranges replicated by the *same* cohort into one
    /// (the inverse of [`Ring::split`]). The merged range gets a fresh id;
    /// it keeps the left side's cohort ordering and preferred leader, so
    /// the coordinating left leader leads the merged range without a
    /// leadership transfer. Retires both at their `barriers` (left, right)
    /// and bumps the table version. Returns the merged id.
    pub fn merge(
        &mut self,
        left: RangeId,
        right: RangeId,
        barriers: [Barrier; 2],
    ) -> Result<RangeId> {
        let li = self
            .ranges
            .iter()
            .position(|d| d.id == left)
            .ok_or_else(|| Error::NotFound(format!("range {left} not in table")))?;
        let ri = self
            .ranges
            .iter()
            .position(|d| d.id == right)
            .ok_or_else(|| Error::NotFound(format!("range {right} not in table")))?;
        let (ld, rd) = (self.ranges[li].clone(), self.ranges[ri].clone());
        if ld.end.as_ref() != Some(&rd.start) {
            return Err(Error::InvalidArgument(format!("{left} and {right} are not adjacent")));
        }
        let mut lc = ld.cohort.clone();
        let mut rc = rd.cohort.clone();
        lc.sort_unstable();
        rc.sort_unstable();
        if lc != rc {
            return Err(Error::InvalidArgument(format!(
                "{left} and {right} have different replica sets"
            )));
        }
        if ld.moving.is_some() || rd.moving.is_some() {
            return Err(Error::InvalidArgument(format!(
                "{left} or {right} has a replica movement in flight"
            )));
        }
        let merged = RangeId(self.next_id);
        self.next_id += 1;
        let def = RangeDef {
            id: merged,
            start: ld.start.clone(),
            end: rd.end.clone(),
            cohort: ld.cohort.clone(),
            home: ld.home,
            gen: 0,
            moving: None,
        };
        debug_assert_eq!(ri, li + 1, "adjacency implies consecutive table slots");
        for (sibling, barrier) in [&ld, &rd].into_iter().zip(barriers) {
            self.retire(sibling, barrier, vec![merged]);
        }
        self.ranges.splice(li..=ri, [def]);
        self.version += 1;
        Ok(merged)
    }

    /// Publish the *intent* to move `range`'s replica from `from` to `to`:
    /// sets the moving marker and bumps generation + version. The cohort
    /// itself is untouched until [`Ring::commit_move`].
    pub fn begin_move(&mut self, range: RangeId, from: NodeId, to: NodeId) -> Result<()> {
        let d = self.def_mut(range)?;
        if d.moving.is_some() {
            return Err(Error::InvalidArgument(format!("{range} already has a move in flight")));
        }
        if !d.cohort.contains(&from) {
            return Err(Error::InvalidArgument(format!("{from} is not a replica of {range}")));
        }
        if d.cohort.contains(&to) {
            return Err(Error::InvalidArgument(format!("{to} is already a replica of {range}")));
        }
        d.moving = Some((from, to));
        d.gen += 1;
        self.version += 1;
        Ok(())
    }

    /// Commit the in-flight move of `range`: swap `from` for `to` in the
    /// cohort (keeping its position), retarget the preferred leader when
    /// the departing replica held it, clear the marker, and bump
    /// generation + version.
    pub fn commit_move(&mut self, range: RangeId, from: NodeId, to: NodeId) -> Result<()> {
        let d = self.def_mut(range)?;
        if d.moving != Some((from, to)) {
            return Err(Error::InvalidArgument(format!("{range} has no matching move in flight")));
        }
        let pos = d
            .cohort
            .iter()
            .position(|&n| n == from)
            .ok_or_else(|| Error::InvalidArgument(format!("{from} left {range} already")))?;
        d.cohort[pos] = to;
        if d.home == from {
            d.home = to;
        }
        d.moving = None;
        d.gen += 1;
        self.version += 1;
        Ok(())
    }

    /// Abort the in-flight move of `range` (if any), clearing the marker.
    pub fn abort_move(&mut self, range: RangeId) -> Result<()> {
        let d = self.def_mut(range)?;
        if d.moving.take().is_some() {
            d.gen += 1;
            self.version += 1;
        }
        Ok(())
    }

    fn def_mut(&mut self, range: RangeId) -> Result<&mut RangeDef> {
        self.ranges
            .iter_mut()
            .find(|d| d.id == range)
            .ok_or_else(|| Error::NotFound(format!("range {range} not in table")))
    }

    /// The live ranges that took over `parent`'s keys, in key order: the
    /// children of its split, or the range it merged into (empty while
    /// `parent` is live).
    pub fn children_of(&self, parent: RangeId) -> Vec<&RangeDef> {
        let children = self.retired(parent).map_or(&[][..], |r| &r.successors[..]);
        self.ranges.iter().filter(|d| children.contains(&d.id)).collect()
    }
}

impl Encode for Ring {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, self.version);
        // Both fit: `uniform` checks the node count against u32 and the
        // replication factor against the node count, and `decode` reads
        // each from a u32.
        // spinlint: allow(C2) -- at most u32::MAX, see above
        codec::put_u32(buf, self.nodes as u32);
        // spinlint: allow(C2) -- at most u32::MAX, see above
        codec::put_u32(buf, self.replication as u32);
        codec::put_u32(buf, self.next_id);
        codec::put_varint(buf, self.ranges.len() as u64);
        for d in &self.ranges {
            codec::put_u32(buf, d.id.0);
            codec::put_bytes(buf, d.start.as_bytes());
            match &d.end {
                Some(e) => {
                    codec::put_u8(buf, 1);
                    codec::put_bytes(buf, e.as_bytes());
                }
                None => codec::put_u8(buf, 0),
            }
            codec::put_varint(buf, d.cohort.len() as u64);
            for &n in &d.cohort {
                codec::put_u32(buf, n);
            }
            codec::put_u32(buf, d.home);
            codec::put_varint(buf, d.gen);
            match d.moving {
                Some((from, to)) => {
                    codec::put_u8(buf, 1);
                    codec::put_u32(buf, from);
                    codec::put_u32(buf, to);
                }
                None => codec::put_u8(buf, 0),
            }
        }
        codec::put_varint(buf, self.retired.len() as u64);
        for r in &self.retired {
            codec::put_u32(buf, r.id.0);
            codec::put_bytes(buf, r.start.as_bytes());
            match &r.end {
                Some(e) => {
                    codec::put_u8(buf, 1);
                    codec::put_bytes(buf, e.as_bytes());
                }
                None => codec::put_u8(buf, 0),
            }
            codec::put_varint(buf, u64::from(r.barrier.epoch));
            r.barrier.lsn.encode(buf);
            codec::put_u64(buf, r.barrier.clock);
            codec::put_varint(buf, r.successors.len() as u64);
            for s in &r.successors {
                codec::put_u32(buf, s.0);
            }
        }
    }
}

impl Decode for Ring {
    fn decode_from(buf: &mut Source<'_>) -> Result<Ring> {
        let version = codec::get_u64(buf)?;
        // spinlint: allow(C2) -- u32 into usize widens on every supported target
        let nodes = codec::get_u32(buf)? as usize;
        // spinlint: allow(C2) -- u32 into usize widens on every supported target
        let replication = codec::get_u32(buf)? as usize;
        let next_id = codec::get_u32(buf)?;
        // A range is at least 13 bytes: its id and home (4 each), then a
        // byte each for the start key's length, the end and moving flags,
        // the cohort count and the generation.
        let n = codec::get_varint_len(buf, "range", 13)?;
        let mut ranges = Vec::with_capacity(n);
        for _ in 0..n {
            let id = RangeId(codec::get_u32(buf)?);
            let start = Key(buf.bytes()?);
            let end = match codec::get_u8(buf)? {
                0 => None,
                _ => Some(Key(buf.bytes()?)),
            };
            let c = codec::get_varint_len(buf, "cohort member", 4)?;
            let mut cohort = Vec::with_capacity(c);
            for _ in 0..c {
                cohort.push(codec::get_u32(buf)?);
            }
            let home = codec::get_u32(buf)?;
            let gen = codec::get_varint(buf)?;
            let moving = match codec::get_u8(buf)? {
                0 => None,
                _ => Some((codec::get_u32(buf)?, codec::get_u32(buf)?)),
            };
            ranges.push(RangeDef { id, start, end, cohort, home, gen, moving });
        }
        if ranges.is_empty() {
            return Err(Error::Corruption("range table with no ranges".into()));
        }
        // A retired range is at least 22 bytes: its id and barrier LSN (4
        // and 8), its clock (8), then a byte each for the start key's
        // length, the end flag, the epoch and the successor count.
        let n = codec::get_varint_len(buf, "retired range", 22)?;
        let mut retired = Vec::with_capacity(n);
        for _ in 0..n {
            let id = RangeId(codec::get_u32(buf)?);
            let start = Key(buf.bytes()?);
            let end = match codec::get_u8(buf)? {
                0 => None,
                _ => Some(Key(buf.bytes()?)),
            };
            let epoch = codec::get_varint(buf)?;
            let epoch = Epoch::try_from(epoch)
                .map_err(|_| Error::Codec(format!("retired epoch {epoch} overflows")))?;
            let lsn = Lsn::decode_from(buf)?;
            let clock = codec::get_u64(buf)?;
            let c = codec::get_varint_len(buf, "successor", 4)?;
            let mut successors = Vec::with_capacity(c);
            for _ in 0..c {
                successors.push(RangeId(codec::get_u32(buf)?));
            }
            let barrier = Barrier { epoch, lsn, clock };
            retired.push(Retired { id, start, end, barrier, successors });
        }
        Ok(Ring { nodes, replication, version, next_id, ranges, retired })
    }
}

/// Encode a `u64` as an order-preserving 8-byte key.
pub fn u64_to_key(v: u64) -> Key {
    Key::from(&v.to_be_bytes()[..])
}

/// Interpret the first 8 bytes of a key as a big-endian `u64` (shorter
/// keys are zero-padded, so `""` maps to 0).
///
/// This is a *display/bench* helper, **not** a routing primitive: the
/// padding makes distinct keys collide (e.g. `[1]` and `[1,0]`), so
/// [`Ring::range_of`] compares raw bytes instead.
pub fn key_to_u64(key: &Key) -> u64 {
    let mut buf = [0u8; 8];
    let b = key.as_bytes();
    let n = b.len().min(8);
    buf[..n].copy_from_slice(&b[..n]);
    u64::from_be_bytes(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_BARRIER: Barrier = Barrier { epoch: 0, lsn: Lsn::ZERO, clock: 0 };

    #[test]
    fn five_node_layout_matches_figure_2() {
        // Fig. 2: node A's base range replicated on B and C; cohorts
        // overlap: A-B-C, B-C-D, C-D-E, D-E-A, E-A-B.
        let ring = Ring::with_nodes(5);
        assert_eq!(ring.cohort(RangeId(0)), vec![0, 1, 2]);
        assert_eq!(ring.cohort(RangeId(1)), vec![1, 2, 3]);
        assert_eq!(ring.cohort(RangeId(4)), vec![4, 0, 1]);
    }

    #[test]
    fn each_node_serves_three_ranges() {
        let ring = Ring::with_nodes(5);
        for node in 0..5u32 {
            let ranges = ring.ranges_of(node);
            assert_eq!(ranges.len(), 3);
            for r in &ranges {
                assert!(ring.cohort(*r).contains(&node), "node {node} must be in cohort of {r}");
            }
        }
        // Node 0 of 5 serves its base range 0 plus ranges 3 and 4.
        assert_eq!(ring.ranges_of(0), vec![RangeId(0), RangeId(3), RangeId(4)]);
    }

    #[test]
    fn key_routing_covers_the_space() {
        let ring = Ring::with_nodes(5);
        assert_eq!(ring.range_of(&u64_to_key(0)), RangeId(0));
        assert_eq!(ring.range_of(&u64_to_key(u64::MAX)), RangeId(4));
        assert_eq!(ring.range_of(&Key::new(Vec::new())), RangeId(0), "empty key = minimum");
        // Boundary keys land in the right range.
        let step = u64::MAX / 5;
        assert_eq!(ring.range_of(&u64_to_key(step)), RangeId(1));
        assert_eq!(ring.range_of(&u64_to_key(step - 1)), RangeId(0));
    }

    #[test]
    fn routing_agrees_with_byte_order_for_short_and_long_keys() {
        // Regression: `key_to_u64`-based routing zero-padded short keys and
        // truncated long ones, so keys adjacent to a range boundary in byte
        // order could route to the wrong side.
        let ring = Ring::with_nodes(4);
        let step = u64::MAX / 4;
        let boundary = u64_to_key(step); // 8-byte boundary of range 1

        // A *prefix* of the boundary key sorts strictly below it in byte
        // order and must therefore route to range 0 (u64 padding would have
        // claimed it equal to the boundary and routed it to range 1).
        let prefix = Key::new(boundary.as_bytes()[..4].to_vec());
        assert!(prefix.as_bytes() < boundary.as_bytes());
        assert_eq!(ring.range_of(&prefix), RangeId(0), "short key below boundary");

        // The boundary key with a suffix sorts above the boundary and
        // belongs to range 1 (truncation to 8 bytes agrees here, but only
        // by accident of the inclusive-start convention).
        let mut long = boundary.as_bytes().to_vec();
        long.push(0x00);
        let long = Key::new(long);
        assert!(long.as_bytes() > boundary.as_bytes());
        assert_eq!(ring.range_of(&long), RangeId(1), "long key at/after boundary");

        // Directly below the boundary in byte order: 8-byte predecessor.
        assert_eq!(ring.range_of(&u64_to_key(step - 1)), RangeId(0));

        // A one-byte key sorts by its first byte: 0xFF… prefix keys land in
        // the last range even though they are shorter than the boundaries.
        let tiny_high = Key::new(vec![0xffu8]);
        assert_eq!(ring.range_of(&tiny_high), RangeId(3), "short high key in last range");
    }

    #[test]
    fn key_codec_preserves_order() {
        let mut keys: Vec<u64> = vec![0, 1, 255, 256, 1 << 32, u64::MAX];
        keys.sort_unstable();
        let encoded: Vec<Key> = keys.iter().map(|&v| u64_to_key(v)).collect();
        assert!(encoded.windows(2).all(|w| w[0] < w[1]), "order preserved");
        for &v in &keys {
            assert_eq!(key_to_u64(&u64_to_key(v)), v);
        }
    }

    #[test]
    fn range_bounds_are_consistent_with_routing() {
        let ring = Ring::with_nodes(4);
        for r in ring.ranges().collect::<Vec<_>>() {
            let start = ring.range_start(r);
            assert_eq!(ring.range_of(&start), r);
            if let Some(end) = ring.range_end(r) {
                assert_ne!(ring.range_of(&end), r, "end is exclusive");
            }
        }
    }

    #[test]
    fn scales_to_large_clusters() {
        for n in [10usize, 20, 40, 80] {
            let ring = Ring::with_nodes(n);
            for r in ring.ranges().collect::<Vec<_>>() {
                assert_eq!(ring.cohort(r).len(), 3);
            }
            // Every node appears in exactly 3 cohorts.
            let mut counts = vec![0usize; n];
            for r in ring.ranges().collect::<Vec<_>>() {
                for node in ring.cohort(r) {
                    counts[node as usize] += 1;
                }
            }
            assert!(counts.iter().all(|&c| c == 3), "balanced at n={n}");
        }
    }

    #[test]
    fn split_produces_children_inheriting_the_cohort() {
        let mut ring = Ring::with_nodes(5);
        let v0 = ring.version();
        let at = u64_to_key(1000);
        let (left, right) = ring.split(RangeId(0), &at, NO_BARRIER).unwrap();
        assert_eq!(ring.version(), v0 + 1);
        assert!(ring.def(RangeId(0)).is_none(), "parent removed");
        let ld = ring.def(left).unwrap();
        let rd = ring.def(right).unwrap();
        assert_eq!(ld.cohort, vec![0, 1, 2], "children inherit replicas");
        assert_eq!(rd.cohort, vec![0, 1, 2]);
        assert_eq!(ld.end.as_ref(), Some(&at));
        assert_eq!(rd.start, at);
        assert_eq!(ld.home, 0, "left keeps the parent's preferred leader");
        assert_eq!(rd.home, 1, "right preference moves to the next replica");
        // Routing: split key belongs to the right child, predecessor left.
        assert_eq!(ring.range_of(&at), right);
        assert_eq!(ring.range_of(&u64_to_key(999)), left);
        assert_eq!(ring.range_of(&Key::default()), left);
        // Old ranges unaffected.
        assert_eq!(ring.range_of(&u64_to_key(u64::MAX)), RangeId(4));
        assert_eq!(ring.children_of(RangeId(0)).len(), 2);
    }

    #[test]
    fn split_rejects_keys_outside_the_range() {
        let mut ring = Ring::with_nodes(4);
        // Range 1 spans [step, 2*step); its own start is not *strictly*
        // inside, and keys beyond its end belong to other ranges.
        let step = u64::MAX / 4;
        assert!(ring.split(RangeId(1), &u64_to_key(step), NO_BARRIER).is_err(), "start not inside");
        assert!(
            ring.split(RangeId(1), &u64_to_key(2 * step), NO_BARRIER).is_err(),
            "end not inside"
        );
        assert!(ring.split(RangeId(0), &Key::default(), NO_BARRIER).is_err(), "minimum not inside");
        assert!(ring.split(RangeId(9), &u64_to_key(1), NO_BARRIER).is_err(), "unknown range");
        assert!(ring.split(RangeId(1), &u64_to_key(step + 1), NO_BARRIER).is_ok());
    }

    #[test]
    fn recursive_splits_keep_ids_unique_and_space_tiled() {
        let mut ring = Ring::with_nodes(3);
        let mut at = 1u64;
        for _ in 0..6 {
            let target = ring.range_of(&u64_to_key(at));
            let key = u64_to_key(at);
            if ring.split(target, &key, NO_BARRIER).is_ok() {
                at = at.wrapping_mul(31).wrapping_add(997);
            }
        }
        // Ids unique.
        let mut ids: Vec<u32> = ring.ranges().map(|r| r.0).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "no duplicate range ids");
        // Bounds tile: each range's end equals the next range's start.
        let defs: Vec<_> = ring.defs().collect();
        assert_eq!(defs[0].start, Key::default());
        assert!(defs.last().unwrap().end.is_none());
        for w in defs.windows(2) {
            assert_eq!(w[0].end.as_ref(), Some(&w[1].start), "gapless boundaries");
        }
    }

    #[test]
    fn merge_is_the_inverse_of_split() {
        let mut ring = Ring::with_nodes(5);
        let at = u64_to_key(1000);
        let (left, right) = ring.split(RangeId(0), &at, NO_BARRIER).unwrap();
        let v = ring.version();
        let merged = ring.merge(left, right, [NO_BARRIER; 2]).unwrap();
        assert_eq!(ring.version(), v + 1);
        assert!(ring.def(left).is_none() && ring.def(right).is_none(), "children dissolved");
        let d = ring.def(merged).unwrap();
        assert_eq!(d.start, Key::default());
        assert_eq!(d.end, Some(u64_to_key(u64::MAX / 5)));
        assert_eq!(d.cohort, vec![0, 1, 2]);
        assert_eq!(d.home, 0, "left side's preferred leader survives");
        assert_eq!(ring.range_of(&u64_to_key(999)), merged);
        assert_eq!(ring.range_of(&u64_to_key(1000)), merged);
        // Bounds still tile the space.
        let defs: Vec<_> = ring.defs().collect();
        for w in defs.windows(2) {
            assert_eq!(w[0].end.as_ref(), Some(&w[1].start));
        }
    }

    #[test]
    fn merge_rejects_non_adjacent_and_different_cohorts() {
        let mut ring = Ring::with_nodes(5);
        // Base ranges 0 and 1 are adjacent but replicated by different
        // cohorts under chained declustering: must be rejected.
        assert!(ring.merge(RangeId(0), RangeId(1), [NO_BARRIER; 2]).is_err(), "cohorts differ");
        // Non-adjacent pair.
        assert!(ring.merge(RangeId(0), RangeId(2), [NO_BARRIER; 2]).is_err(), "not adjacent");
        // Wrong order (right before left) is not adjacency either.
        let (l, r) = ring.split(RangeId(0), &u64_to_key(7), NO_BARRIER).unwrap();
        assert!(ring.merge(r, l, [NO_BARRIER; 2]).is_err(), "reversed order rejected");
        assert!(ring.merge(l, r, [NO_BARRIER; 2]).is_ok());
    }

    #[test]
    fn move_lifecycle_swaps_the_replica_and_bumps_generation() {
        let mut ring = Ring::with_nodes(5);
        let d0 = ring.def(RangeId(0)).unwrap().clone();
        assert_eq!((d0.gen, d0.moving), (0, None));
        let v = ring.version();

        ring.begin_move(RangeId(0), 2, 4).unwrap();
        let d = ring.def(RangeId(0)).unwrap();
        assert_eq!(d.moving, Some((2, 4)));
        assert_eq!(d.gen, 1);
        assert_eq!(d.cohort, vec![0, 1, 2], "cohort unchanged until commit");
        assert_eq!(ring.version(), v + 1);
        // A second move (or a split) cannot start while one is in flight.
        assert!(ring.begin_move(RangeId(0), 1, 3).is_err());
        assert!(ring.split(RangeId(0), &u64_to_key(9), NO_BARRIER).is_err());

        ring.commit_move(RangeId(0), 2, 4).unwrap();
        let d = ring.def(RangeId(0)).unwrap();
        assert_eq!(d.cohort, vec![0, 1, 4], "position preserved");
        assert_eq!(d.moving, None);
        assert_eq!(d.gen, 2);
        assert_eq!(ring.version(), v + 2);
        assert!(ring.ranges_of(4).contains(&RangeId(0)));
        assert!(!ring.ranges_of(2).contains(&RangeId(0)));
    }

    #[test]
    fn move_of_the_preferred_leader_retargets_home() {
        let mut ring = Ring::with_nodes(5);
        ring.begin_move(RangeId(1), 1, 4).unwrap();
        ring.commit_move(RangeId(1), 1, 4).unwrap();
        let d = ring.def(RangeId(1)).unwrap();
        assert_eq!(d.home, 4, "home follows the departing leader's replacement");
        assert_eq!(d.cohort, vec![4, 2, 3]);
    }

    #[test]
    fn move_validation_and_abort() {
        let mut ring = Ring::with_nodes(5);
        assert!(ring.begin_move(RangeId(0), 3, 4).is_err(), "3 not a replica");
        assert!(ring.begin_move(RangeId(0), 0, 1).is_err(), "1 already a replica");
        assert!(ring.commit_move(RangeId(0), 0, 4).is_err(), "no move in flight");
        ring.begin_move(RangeId(0), 0, 4).unwrap();
        assert!(ring.commit_move(RangeId(0), 1, 4).is_err(), "mismatched commit");
        let v = ring.version();
        ring.abort_move(RangeId(0)).unwrap();
        let d = ring.def(RangeId(0)).unwrap();
        assert_eq!(d.moving, None);
        assert_eq!(d.cohort, vec![0, 1, 2]);
        assert_eq!(ring.version(), v + 1);
        // Aborting with nothing in flight is a no-op.
        ring.abort_move(RangeId(0)).unwrap();
        assert_eq!(ring.version(), v + 1);
    }

    #[test]
    fn a_reshard_retires_its_ranges_with_their_barriers() {
        let mut ring = Ring::with_nodes(5);
        let split_at = Barrier { epoch: 3, lsn: Lsn::new(3, 17), clock: 900 };
        let (left, right) = ring.split(RangeId(0), &u64_to_key(7), split_at).unwrap();
        let parent = ring.retired(RangeId(0)).expect("the parent is retired");
        assert_eq!((parent.barrier, parent.successors.clone()), (split_at, vec![left, right]));
        assert_eq!(
            (parent.start.clone(), parent.end.clone()),
            (Key::default(), ring.range_end(right))
        );
        let sides = [
            Barrier { epoch: 4, lsn: Lsn::new(4, 20), clock: 950 },
            Barrier { epoch: 3, lsn: Lsn::new(3, 17), clock: 990 },
        ];
        let merged = ring.merge(left, right, sides).unwrap();
        let preds: Vec<_> = ring.predecessors(merged).map(|r| (r.id, r.barrier)).collect();
        assert_eq!(preds, vec![(left, sides[0]), (right, sides[1])]);
        assert_eq!(ring.predecessors(left).map(|r| r.id).collect::<Vec<_>>(), vec![RangeId(0)]);
        assert!(ring.retired(merged).is_none() && ring.def(merged).is_some());
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut ring = Ring::with_nodes(5);
        let barrier = Barrier { epoch: 2, lsn: Lsn::new(2, 9), clock: 77 };
        let (l, r) = ring.split(RangeId(2), &u64_to_key(u64::MAX / 5 * 2 + 77), barrier).unwrap();
        ring.merge(l, r, [barrier; 2]).unwrap();
        ring.begin_move(RangeId(0), 1, 3).unwrap();
        let bytes = ring.encode_to_vec();
        let back = Ring::decode(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.version(), ring.version());
        assert_eq!(back.nodes(), ring.nodes());
        assert_eq!(back.replication(), ring.replication());
        assert_eq!(back.next_id, ring.next_id);
        let a: Vec<_> = ring.defs().cloned().collect();
        let b: Vec<_> = back.defs().cloned().collect();
        assert_eq!(a, b);
        assert_eq!(back.retired, ring.retired);
    }

    /// Every node and client decodes the table from the coordination
    /// service, so a corrupt one must decode to an error. A range or
    /// cohort count the bytes cannot back used to size a `Vec` and panic
    /// with `capacity overflow`.
    #[test]
    fn a_corrupt_table_is_an_error_not_a_panic() {
        let bytes = Ring::with_nodes(3).encode_to_vec();
        let with_count_at = |at: usize| {
            let mut out = bytes[..at].to_vec();
            codec::put_varint(&mut out, u64::MAX);
            out.extend_from_slice(&bytes[at + 1..]);
            out
        };
        // The range count follows the 20-byte header; the first range's
        // cohort count follows its id, empty start key and 8-byte end key.
        // The retired count is the last byte.
        let (ranges_at, cohort_at, retired_at) = (20, 20 + 1 + 4 + 1 + 1 + 9, bytes.len() - 1);
        assert_eq!((bytes[ranges_at], bytes[cohort_at], bytes[retired_at]), (3, 3, 0));
        for at in [ranges_at, cohort_at, retired_at] {
            assert!(Ring::decode(&mut with_count_at(at).as_slice()).is_err(), "count at {at}");
        }
        for cut in 0..bytes.len() {
            assert!(Ring::decode(&mut &bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut split = Ring::with_nodes(3);
        split.split(RangeId(0), &u64_to_key(7), NO_BARRIER).unwrap();
        let bytes = split.encode_to_vec();
        for cut in 0..bytes.len() {
            assert!(Ring::decode(&mut &bytes[..cut]).is_err(), "retired entry cut at {cut}");
        }
    }
}
