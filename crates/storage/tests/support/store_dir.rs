//! A store directory laid out by hand: table images written as the files
//! of a store, and a `MANIFEST` naming them at the levels a test chooses,
//! for `RangeStore::open` to load. Shared by path (`#[path =
//! "support/store_dir.rs"] mod store_dir;`) between the crate's
//! integration tests.

use spinnaker_common::codec;
use spinnaker_common::vfs::{MemVfs, Vfs};
use spinnaker_common::Timestamp;

/// The first eight bytes of every `MANIFEST` (`"SPINMF02"` read as a
/// little-endian `u64`).
const MANIFEST_MAGIC: u64 = 0x3230_464d_4e49_5053;

/// Write each of `tables` (whole SSTable images) as table `i + 1` of the
/// store in `dir`, and a manifest listing table `i + 1` at `levels[i]`
/// in that order (L0 newest first), with GC floor `gc_floor`.
pub fn write_store(
    vfs: &MemVfs,
    dir: &str,
    tables: &[Vec<u8>],
    levels: &[u64],
    gc_floor: Timestamp,
) {
    assert_eq!(tables.len(), levels.len(), "one level per table");
    let mut manifest = Vec::new();
    codec::put_u64(&mut manifest, MANIFEST_MAGIC);
    codec::put_u64(&mut manifest, tables.len() as u64 + 1);
    codec::put_u64(&mut manifest, gc_floor);
    codec::put_varint(&mut manifest, tables.len() as u64);
    for ((id, image), level) in (1u64..).zip(tables).zip(levels) {
        vfs.write_atomic(&format!("{dir}/sst-{id:010}"), image).unwrap();
        codec::put_u64(&mut manifest, id);
        codec::put_varint(&mut manifest, *level);
    }
    vfs.write_atomic(&format!("{dir}/MANIFEST"), &manifest).unwrap();
}
