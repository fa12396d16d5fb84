//! Property tests for `RangeStore::assemble`, the one constructor of a
//! successor store. For arbitrary write histories — puts, deletes,
//! flushes and compactions, so rows sit in the memtable, in L0 and in
//! deeper levels — and arbitrary disjoint clips, the assembled store:
//!
//! * reads every key inside a part's clip exactly as that part's source
//!   does, at the latest commit and at a snapshot timestamp, by point
//!   read and by scan, and again after a crash and reopen;
//! * holds nothing outside the clips;
//! * carries the strictest GC floor among its parts.
//!
//! The two cases every reconfiguration stands on are pinned on their own:
//! reading each child of a split equals reading the unsplit store, and
//! assembling the children back reproduces the parent exactly
//! (merge ∘ split = identity).

use std::sync::Arc;

use proptest::prelude::*;

use spinnaker_common::vfs::MemVfs;
use spinnaker_common::{Key, Lsn, Timestamp, WriteOp};
use spinnaker_storage::{RangeStore, StoreOptions};

/// Keys are `key000` .. `key063`.
const KEYS: u8 = 64;

#[derive(Clone, Debug)]
enum Op {
    Put { key: u8, col: u8, value: u8 },
    Delete { key: u8 },
    Flush,
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..KEYS, 0u8..3, any::<u8>())
            .prop_map(|(key, col, value)| Op::Put { key, col, value }),
        2 => (0..KEYS).prop_map(|key| Op::Delete { key }),
        2 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

fn key_of(k: u8) -> Key {
    Key::new(format!("key{k:03}").into_bytes())
}

/// Small levels and tables, so a short history reaches L2 and a level
/// holds several tables for a clip to copy, straddle or skip.
fn opts(dir: &str) -> StoreOptions {
    StoreOptions {
        dir: dir.into(),
        compaction_fanin: 2,
        level_base_bytes: 1 << 10,
        level_table_target_bytes: 512,
        ..Default::default()
    }
}

/// A store in `dir` on `vfs` that ran `ops`, the n-th committing at LSN
/// `(1, n)` and timestamp `n`, with its GC floor armed at `floor` first
/// (`0` leaves it unarmed), so compactions prune versions.
fn build(vfs: &MemVfs, dir: &str, ops: &[Op], floor: Timestamp) -> RangeStore {
    let mut store = RangeStore::open(Arc::new(vfs.clone()), opts(dir)).unwrap();
    if floor > 0 {
        store.set_gc_floor(floor);
    }
    for (seq, operation) in (1u64..).zip(ops) {
        let write = match operation {
            Op::Put { key, col, value } => {
                WriteOp::put(key_of(*key), format!("c{col}"), format!("v{value}"), seq)
            }
            Op::Delete { key } => WriteOp::delete(key_of(*key), "c0", seq),
            Op::Flush => {
                store.flush().unwrap();
                continue;
            }
            Op::Compact => {
                store.maybe_compact().unwrap();
                continue;
            }
        };
        store.apply(&write, Lsn::new(1, seq));
    }
    store
}

/// Each deeper level of `store` is a run of disjoint tables.
fn levels_disjoint(store: &RangeStore) -> bool {
    (1..store.tables_per_level().len())
        .all(|level| store.level_spans(level).windows(2).all(|w| w[0].1 < w[1].0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn an_assembled_store_reads_as_its_parts_inside_their_clips(
        sources in proptest::collection::vec(
            (proptest::collection::vec(op_strategy(), 1..160), 0u64..200),
            1..4,
        ),
        bounds in proptest::collection::vec(0..=KEYS, 6),
        snapshot in 0u64..170,
    ) {
        let vfs = MemVfs::new();
        let stores: Vec<RangeStore> = sources
            .iter()
            .enumerate()
            .map(|(i, (ops, floor))| build(&vfs, &format!("src{i}"), ops, *floor))
            .collect();
        // Sorted bounds, paired off: part i is source i clipped to
        // [bounds[2i], bounds[2i+1]) — bounded on both sides and disjoint
        // from every other part.
        let mut bounds = bounds;
        bounds.sort_unstable();
        let clips: Vec<(Key, Key)> =
            bounds.chunks(2).take(stores.len()).map(|b| (key_of(b[0]), key_of(b[1]))).collect();
        let parts: Vec<(&RangeStore, &Key, Option<&Key>)> =
            stores.iter().zip(&clips).map(|(s, (lo, hi))| (s, lo, Some(hi))).collect();
        let mut assembled = RangeStore::assemble(Arc::new(vfs.clone()), opts("out"), &parts).unwrap();
        prop_assert!(levels_disjoint(&assembled));

        let strictest = stores.iter().map(RangeStore::gc_floor).filter(|&f| f != u64::MAX).max();
        prop_assert_eq!(assembled.gc_floor(), strictest.unwrap_or(u64::MAX));

        for k in 0..KEYS {
            let key = key_of(k);
            let owner = clips.iter().position(|(lo, hi)| key >= *lo && key < *hi);
            for ts in [u64::MAX, snapshot] {
                let want = match owner {
                    Some(i) => stores[i].get_at(&key, ts).unwrap(),
                    None => None,
                };
                prop_assert_eq!(assembled.get_at(&key, ts).unwrap(), want, "key {} at {}", k, ts);
            }
        }
        let mut whole = Vec::new();
        for (store, (lo, hi)) in stores.iter().zip(&clips) {
            let rows = store.scan(lo, Some(hi)).unwrap();
            prop_assert_eq!(&assembled.scan(lo, Some(hi)).unwrap(), &rows);
            whole.extend(rows);
        }
        prop_assert_eq!(&assembled.scan(&Key::default(), None).unwrap(), &whole);

        // What a flush made durable survives a crash, floor included.
        assembled.flush().unwrap();
        let reopened = RangeStore::open(Arc::new(vfs.crash_clone()), opts("out")).unwrap();
        prop_assert_eq!(reopened.scan(&Key::default(), None).unwrap(), whole);
        prop_assert_eq!(reopened.gc_floor(), assembled.gc_floor());
    }

    #[test]
    fn children_reads_equal_parent_reads(
        ops in proptest::collection::vec(op_strategy(), 1..160),
        split_at in 0..=KEYS,
    ) {
        let vfs = MemVfs::new();
        let store = build(&vfs, "parent", &ops, 0);
        let at = key_of(split_at);
        let child = |dir: &str, lo: &Key, hi: Option<&Key>| {
            RangeStore::assemble(Arc::new(vfs.clone()), opts(dir), &[(&store, lo, hi)]).unwrap()
        };
        let left = child("left", &Key::default(), Some(&at));
        let right = child("right", &at, None);
        prop_assert!(levels_disjoint(&left) && levels_disjoint(&right));

        for k in 0..KEYS {
            let key = key_of(k);
            let parent_row = store.get(&key).unwrap();
            let (own, other) = if key < at { (&left, &right) } else { (&right, &left) };
            prop_assert_eq!(
                own.get(&key).unwrap(),
                parent_row,
                "key {} must read identically from its child", k
            );
            prop_assert!(
                other.get(&key).unwrap().is_none(),
                "key {} leaked across the split boundary", k
            );
        }
        // Scans over each side agree with the parent's bounded scans.
        let parent_left = store.scan(&Key::default(), Some(&at)).unwrap();
        prop_assert_eq!(left.scan(&Key::default(), None).unwrap(), parent_left);
        let parent_right = store.scan(&at, None).unwrap();
        prop_assert_eq!(right.scan(&Key::default(), None).unwrap(), parent_right);
    }

    #[test]
    fn merge_is_the_inverse_of_split(
        ops in proptest::collection::vec(op_strategy(), 1..160),
        split_at in 0..=KEYS,
    ) {
        let vfs = MemVfs::new();
        let store = build(&vfs, "parent", &ops, 0);
        let at = key_of(split_at);
        let assemble = |dir: &str, parts: &[(&RangeStore, &Key, Option<&Key>)]| {
            RangeStore::assemble(Arc::new(vfs.clone()), opts(dir), parts).unwrap()
        };
        let left = assemble("left", &[(&store, &Key::default(), Some(&at))]);
        let right = assemble("right", &[(&store, &at, None)]);
        let merged = assemble("merged", &[(&left, &Key::default(), Some(&at)), (&right, &at, None)]);
        prop_assert!(levels_disjoint(&merged));

        // Point reads: every key reads identically from the merged store
        // (tombstones and versions included).
        for k in 0..KEYS {
            let key = key_of(k);
            prop_assert_eq!(
                merged.get(&key).unwrap(),
                store.get(&key).unwrap(),
                "key {} must read identically after split + merge", k
            );
        }
        // Full scan equality: the merged store *is* the parent.
        prop_assert_eq!(
            merged.scan(&Key::default(), None).unwrap(),
            store.scan(&Key::default(), None).unwrap()
        );
    }
}
