//! The `MANIFEST` file and the level structure it records: which tables
//! of a store directory are live, the level of each, the next unused
//! table id and the MVCC GC floor, replaced atomically on every flush,
//! compaction and fork. There is one format; bytes that do not begin
//! with its magic are [`Error::Corruption`].
//!
//! A level assignment read back from the file is a *claim* — the bytes
//! may have been damaged since they were written — so it is bounded where
//! it enters ([`checked_level`]), and the promise reads rely on, that the
//! tables of a level below L0 do not overlap, is re-established by
//! [`heal_levels`] after every load and every assembly.

use spinnaker_common::codec::{self, Decode, Encode, Source};
use spinnaker_common::vfs::SharedVfs;
use spinnaker_common::{Error, Key, Result, Timestamp};

use crate::sstable::Table;

/// `"SPINMF02"` little-endian.
const MANIFEST_MAGIC: u64 = 0x3230_464d_4e49_5053;

/// Deepest level a table may be assigned (a sanity bound: level
/// capacities grow geometrically, so no real ladder comes near it).
pub(crate) const MAX_LEVEL: u32 = 62;

fn manifest_path(dir: &str) -> String {
    format!("{dir}/MANIFEST")
}

/// Where the table with manifest id `id` lives.
pub(crate) fn table_path(dir: &str, id: u64) -> String {
    format!("{dir}/sst-{id:010}")
}

/// A level read from outside this process, accepted only up to
/// [`MAX_LEVEL`]: the level structure allocates one vector per level.
pub(crate) fn checked_level(level: u64) -> Result<u32> {
    u32::try_from(level)
        .ok()
        .filter(|level| *level <= MAX_LEVEL)
        .ok_or_else(|| Error::Corruption(format!("implausible table level {level}")))
}

/// The decoded `MANIFEST`.
#[derive(Debug)]
pub(crate) struct Manifest {
    /// `(table id, level)` pairs in placement order: L0 entries newest
    /// first, deeper levels in key order.
    pub(crate) tables: Vec<(u64, u32)>,
    pub(crate) next_id: u64,
    /// The MVCC garbage-collection floor (see
    /// [`crate::RangeStore::set_gc_floor`]). Persisted so that a store
    /// whose tables were pruned at some floor never re-opens claiming it
    /// can still serve below it — the `SnapshotTooOld` guard must survive
    /// restarts and store forks. `u64::MAX` = never armed (nothing has
    /// ever been pruned).
    pub(crate) gc_floor: Timestamp,
}

impl Manifest {
    /// Describe a level structure.
    pub(crate) fn of(
        l0: &[Slot],
        deeper: &[Vec<Slot>],
        next_id: u64,
        gc_floor: Timestamp,
    ) -> Manifest {
        let count = l0.len() + deeper.iter().map(Vec::len).sum::<usize>();
        let mut tables = Vec::with_capacity(count);
        for s in l0 {
            tables.push((s.id, 0));
        }
        for (level, slots) in (1u32..).zip(deeper) {
            for s in slots {
                tables.push((s.id, level));
            }
        }
        Manifest { tables, next_id, gc_floor }
    }

    /// Read `dir`'s manifest; a directory without one is an empty store.
    pub(crate) fn load(vfs: &SharedVfs, dir: &str) -> Result<Manifest> {
        let path = manifest_path(dir);
        if !vfs.exists(&path)? {
            return Ok(Manifest { tables: Vec::new(), next_id: 1, gc_floor: Timestamp::MAX });
        }
        Manifest::decode(&mut vfs.read_all(&path)?.as_slice())
    }

    /// Replace `dir`'s manifest atomically.
    pub(crate) fn save(&self, vfs: &SharedVfs, dir: &str) -> Result<()> {
        vfs.write_atomic(&manifest_path(dir), &self.encode_to_vec())
    }
}

impl Encode for Manifest {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, MANIFEST_MAGIC);
        codec::put_u64(buf, self.next_id);
        codec::put_u64(buf, self.gc_floor);
        codec::put_varint(buf, self.tables.len() as u64);
        for (id, level) in &self.tables {
            codec::put_u64(buf, *id);
            codec::put_varint(buf, u64::from(*level));
        }
    }
}

impl Decode for Manifest {
    fn decode_from(buf: &mut Source<'_>) -> Result<Manifest> {
        if codec::get_u64(buf)? != MANIFEST_MAGIC {
            return Err(Error::Corruption("MANIFEST does not begin with its magic".into()));
        }
        let next_id = codec::get_u64(buf)?;
        let gc_floor = codec::get_u64(buf)?;
        // Each entry is an 8-byte id plus a >=1-byte level varint; a
        // corrupt count fails here instead of driving a huge allocation.
        let n = codec::get_varint_len(buf, "manifest tables", 9)?;
        let mut tables = Vec::with_capacity(n);
        for _ in 0..n {
            let id = codec::get_u64(buf)?;
            tables.push((id, checked_level(codec::get_varint(buf)?)?));
        }
        Ok(Manifest { tables, next_id, gc_floor })
    }
}

/// One open table plus its manifest id.
pub(crate) struct Slot {
    pub(crate) id: u64,
    pub(crate) table: Table,
}

pub(crate) fn min_key(slot: &Slot) -> &Key {
    &slot.table.meta().min_key
}

pub(crate) fn max_key(slot: &Slot) -> &Key {
    &slot.table.meta().max_key
}

pub(crate) fn sort_level(level: &mut [Slot]) {
    level.sort_by(|a, b| min_key(a).cmp(min_key(b)));
}

/// Restore each deeper level's key order, then self-heal: a table that
/// overlaps its level peers (a bit flip in a manifest that survived
/// decode, or two overlapping parts assembled into one store) is demoted
/// to L0, where overlap is legal. Reads are version-driven, so placement
/// is a pure performance property — demotion can never change results,
/// while an overlap left in place hides rows from the per-level binary
/// search.
pub(crate) fn heal_levels(l0: &mut Vec<Slot>, deeper: &mut [Vec<Slot>]) {
    for level in deeper {
        sort_level(level);
        let mut i = 1;
        while i < level.len() {
            if min_key(&level[i]) <= max_key(&level[i - 1]) {
                l0.push(level.remove(i));
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest { tables: vec![(7, 0), (3, 0), (5, 1), (6, 2)], next_id: 8, gc_floor: 25 }
    }

    #[test]
    fn round_trips() {
        let bytes = sample().encode_to_vec();
        let back = Manifest::decode(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.tables, sample().tables);
        assert_eq!((back.next_id, back.gc_floor), (8, 25));
    }

    #[test]
    fn a_level_past_the_bound_is_corruption() {
        assert_eq!(checked_level(u64::from(MAX_LEVEL)).unwrap(), MAX_LEVEL);
        for level in [u64::from(MAX_LEVEL) + 1, u64::from(u32::MAX), u64::MAX] {
            assert!(checked_level(level).unwrap_err().is_corruption(), "level {level}");
        }
        let mut m = sample();
        m.tables[2].1 = MAX_LEVEL + 1;
        let bytes = m.encode_to_vec();
        assert!(Manifest::decode(&mut bytes.as_slice()).unwrap_err().is_corruption());
    }
}
