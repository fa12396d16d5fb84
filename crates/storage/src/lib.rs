//! LSM storage engine for the Spinnaker datastore (paper §4.1).
//!
//! Committed writes land in a [`Memtable`], are periodically flushed to
//! immutable, indexed, bloom-filtered [`sstable::Table`]s tagged with the
//! min/max LSN of the writes they contain. Tables are organised as a
//! **leveled LSM**: an L0 flush tier (overlapping, newest first) feeds
//! size-ratio levels L1..Ln whose tables are non-overlapping within a
//! level, compacted downward by [`RangeStore::maybe_compact`]. Reads are
//! served through per-level bloom filters and a node-wide [`BlockCache`]
//! of raw, checksum-verified data blocks. The design follows Bigtable's
//! SSTables as the paper describes.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod bloom;
pub mod cache;
mod compaction;
mod manifest;
pub mod memtable;
pub mod merge;
pub mod sstable;
pub mod store;

pub use block::Block;
pub use bloom::Bloom;
pub use cache::{BlockCache, CacheStats, SharedBlockCache};
pub use memtable::Memtable;
pub use merge::{vec_stream, MergeIter, RowStream};
pub use sstable::{Table, TableBuilder, TableCtx, TableMeta, TableOptions};
pub use store::{RangeStore, ScanPage, StoreOptions, StoreStats};
