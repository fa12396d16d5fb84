//! Skipped-LSN lists — logical truncation of the shared log (paper §6.1.1).
//!
//! After a leader change, log records a follower holds beyond its last
//! committed LSN may have been discarded by the new leader. They cannot be
//! *physically* truncated because the log is shared by multiple cohorts, so
//! their LSNs are remembered in a per-cohort skipped-LSN list, saved to a
//! known location on disk, and consulted by every future local recovery
//! before processing log records.

use std::collections::BTreeMap;

use spinnaker_common::codec::{self, Decode, Encode, Source};
use spinnaker_common::vfs::Vfs;
use spinnaker_common::{Lsn, RangeId, Result};

/// The set of logically truncated LSNs of one cohort.
///
/// "Since this list is expected to be small, it is loaded into memory
/// before recovery" — we store plain sorted LSNs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SkippedLsns {
    lsns: Vec<Lsn>,
}

impl SkippedLsns {
    /// Empty list.
    pub fn new() -> SkippedLsns {
        SkippedLsns::default()
    }

    /// Record `lsn` as logically truncated.
    pub fn insert(&mut self, lsn: Lsn) {
        if let Err(pos) = self.lsns.binary_search(&lsn) {
            self.lsns.insert(pos, lsn);
        }
    }

    /// True when `lsn` must be skipped during replay.
    pub fn contains(&self, lsn: Lsn) -> bool {
        self.lsns.binary_search(&lsn).is_ok()
    }

    /// Drop entries at or below `below` (garbage collection "along with log
    /// files": once the checkpoint passes an LSN it can never be replayed).
    pub fn gc(&mut self, below: Lsn) {
        self.lsns.retain(|&l| l > below);
    }

    /// Number of remembered LSNs.
    pub fn len(&self) -> usize {
        self.lsns.len()
    }

    /// True when no LSNs are remembered.
    pub fn is_empty(&self) -> bool {
        self.lsns.is_empty()
    }

    /// Iterate the LSNs in order.
    pub fn iter(&self) -> impl Iterator<Item = Lsn> + '_ {
        self.lsns.iter().copied()
    }
}

/// All cohorts' skipped-LSN lists, persisted in one sidecar file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SkippedFile {
    /// Per-cohort lists.
    pub by_cohort: BTreeMap<RangeId, SkippedLsns>,
}

impl SkippedFile {
    /// The list for `cohort`, creating it on first touch.
    pub fn cohort_mut(&mut self, cohort: RangeId) -> &mut SkippedLsns {
        self.by_cohort.entry(cohort).or_default()
    }

    /// The list for `cohort` if present.
    pub fn cohort(&self, cohort: RangeId) -> Option<&SkippedLsns> {
        self.by_cohort.get(&cohort)
    }

    /// Load from `path`, returning an empty file when absent.
    pub fn load(vfs: &dyn Vfs, path: &str) -> Result<SkippedFile> {
        if !vfs.exists(path)? {
            return Ok(SkippedFile::default());
        }
        let data = vfs.read_all(path)?;
        SkippedFile::decode(&mut data.as_slice())
    }

    /// Persist durably (write sideways + rename).
    pub fn save(&self, vfs: &dyn Vfs, path: &str) -> Result<()> {
        vfs.write_atomic(path, &self.encode_to_vec())
    }
}

impl Encode for SkippedFile {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_varint(buf, self.by_cohort.len() as u64);
        for (cohort, list) in &self.by_cohort {
            codec::put_varint(buf, cohort.0 as u64);
            codec::put_varint(buf, list.lsns.len() as u64);
            for lsn in &list.lsns {
                lsn.encode(buf);
            }
        }
    }
}

impl Decode for SkippedFile {
    fn decode_from(buf: &mut Source<'_>) -> Result<SkippedFile> {
        let cohorts = codec::get_varint(buf)? as usize;
        let mut out = SkippedFile::default();
        for _ in 0..cohorts {
            let cohort = RangeId(codec::get_varint(buf)? as u32);
            let n = codec::get_varint(buf)? as usize;
            let mut list = SkippedLsns::new();
            for _ in 0..n {
                list.insert(Lsn::decode_from(buf)?);
            }
            out.by_cohort.insert(cohort, list);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinnaker_common::vfs::MemVfs;

    #[test]
    fn insert_contains_dedup() {
        let mut s = SkippedLsns::new();
        s.insert(Lsn::new(1, 22));
        s.insert(Lsn::new(1, 22));
        s.insert(Lsn::new(1, 5));
        assert_eq!(s.len(), 2);
        assert!(s.contains(Lsn::new(1, 22)));
        assert!(!s.contains(Lsn::new(1, 21)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Lsn::new(1, 5), Lsn::new(1, 22)]);
    }

    #[test]
    fn gc_drops_old_entries() {
        let mut s = SkippedLsns::new();
        s.insert(Lsn::new(1, 5));
        s.insert(Lsn::new(1, 22));
        s.insert(Lsn::new(2, 3));
        s.gc(Lsn::new(1, 22));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Lsn::new(2, 3)]);
    }

    #[test]
    fn persistence_roundtrip() {
        let vfs = MemVfs::new();
        let mut file = SkippedFile::default();
        file.cohort_mut(RangeId(0)).insert(Lsn::new(1, 22));
        file.cohort_mut(RangeId(2)).insert(Lsn::new(3, 7));
        file.save(&vfs, "wal/skipped").unwrap();
        let loaded = SkippedFile::load(&vfs, "wal/skipped").unwrap();
        assert_eq!(loaded, file);
    }

    #[test]
    fn missing_file_loads_empty() {
        let vfs = MemVfs::new();
        let loaded = SkippedFile::load(&vfs, "wal/skipped").unwrap();
        assert!(loaded.by_cohort.is_empty());
    }

    #[test]
    fn save_survives_crash() {
        let vfs = MemVfs::new();
        let mut file = SkippedFile::default();
        file.cohort_mut(RangeId(1)).insert(Lsn::new(1, 22));
        file.save(&vfs, "wal/skipped").unwrap();
        let after = vfs.crash_clone();
        assert_eq!(SkippedFile::load(&after, "wal/skipped").unwrap(), file);
    }
}
