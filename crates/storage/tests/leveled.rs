//! The level ladder must be an invisible optimisation: for any history
//! of puts, deletes, flushes, compactions, and GC-floor advances, a store
//! with tiny levels and a pressured block cache must expose, at every
//! retained timestamp, exactly the state a per-key version-chain model
//! holds — while the ladder keeps its structural invariants (L1+ spans
//! disjoint, retired tables never served from the cache, mid-compaction
//! crashes reopen consistently).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use spinnaker_common::vfs::{FaultPlan, FaultVfs, MemVfs, SharedVfs};
use spinnaker_common::{Key, Lsn, WriteOp};
use spinnaker_storage::{BlockCache, RangeStore, StoreOptions};

fn key_of(k: u8) -> Key {
    Key::new(format!("key{k:03}").into_bytes())
}

fn put_ts(k: u8, lsn: u64, ts: u64) -> WriteOp {
    WriteOp::put(
        key_of(k),
        bytes::Bytes::from_static(b"c"),
        bytes::Bytes::from(format!("v{lsn}").into_bytes()),
        ts,
    )
}

fn delete_ts(k: u8, ts: u64) -> WriteOp {
    WriteOp::delete(key_of(k), bytes::Bytes::from_static(b"c"), ts)
}

/// The reference: per key, every version of column `c` ever written, in
/// commit order — `(commit ts, value)`, `None` for a tombstone. It shares
/// no code with `RangeStore`.
type Model = BTreeMap<u8, Vec<(u64, Option<bytes::Bytes>)>>;

/// What the model says a client reads of `key` at `ts`: the newest
/// version at or below the cut, unless that is a tombstone.
fn model_at(model: &Model, key: u8, ts: u64) -> Option<(bytes::Bytes, u64)> {
    let (wrote_at, value) = model.get(&key)?.iter().rev().find(|(t, _)| *t <= ts)?;
    value.clone().map(|v| (v, *wrote_at))
}

/// The observable value of `key` at timestamp `ts`: the live column
/// value, with tombstones and absent rows both mapping to `None` —
/// exactly what a client read returns.
fn live_at(s: &RangeStore, key: u8, ts: u64) -> Option<(bytes::Bytes, u64)> {
    s.get_at(&key_of(key), ts)
        .unwrap()
        .and_then(|row| row.get_live(b"c").map(|cv| (cv.value.clone(), cv.timestamp)))
}

/// Live state of a paged snapshot scan at `ts`, as a key → value map.
fn scan_live_at(s: &RangeStore, ts: u64) -> BTreeMap<Key, bytes::Bytes> {
    let mut out = BTreeMap::new();
    let mut cursor = Key::default();
    loop {
        let (rows, resume) = s.scan_page_at(&cursor, None, 7, ts).unwrap();
        for (key, row) in rows {
            if let Some(cv) = row.get_live(b"c") {
                out.insert(key, cv.value.clone());
            }
        }
        match resume {
            Some(next) => cursor = next,
            None => break,
        }
    }
    out
}

fn assert_disjoint_levels(s: &RangeStore) {
    let per_level = s.tables_per_level();
    for level in 1..per_level.len() {
        let spans = s.level_spans(level);
        for w in spans.windows(2) {
            assert!(w[0].1 < w[1].0, "level {level} tables overlap: {spans:?}");
        }
    }
}

#[derive(Clone, Debug)]
enum Step {
    Put { key: u8, pad: u8 },
    Delete { key: u8 },
    Flush,
    Compact,
    CompactAll,
    AdvanceFloor { frac: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        8 => (0u8..24, any::<u8>()).prop_map(|(key, pad)| Step::Put { key, pad }),
        3 => (0u8..24).prop_map(|key| Step::Delete { key }),
        2 => Just(Step::Flush),
        2 => Just(Step::Compact),
        1 => Just(Step::CompactAll),
        1 => any::<u8>().prop_map(|frac| Step::AdvanceFloor { frac }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Read-equivalence against the model: a store with tiny levels and a
    /// small, pressured block cache must agree with it at every retained
    /// timestamp, for gets and paged snapshot scans alike.
    #[test]
    fn leveled_store_reads_equal_the_version_chain_model(
        steps in proptest::collection::vec(step_strategy(), 1..100),
    ) {
        // Tiny level capacities and a tiny cache so short histories still
        // reach L2+ and force evictions.
        let cache = Arc::new(BlockCache::new(64 << 10));
        let mut lvl = RangeStore::open(
            Arc::new(MemVfs::new()),
            StoreOptions {
                compaction_fanin: 2,
                level_base_bytes: 4 << 10,
                level_table_target_bytes: 1 << 10,
                cache: Some(cache),
                ..Default::default()
            },
        ).unwrap();

        let mut model = Model::new();
        let mut lsn = 0u64;
        // The floor as the model keeps it: unarmed until first set, then
        // only ever forward.
        let mut floor = u64::MAX;
        // The lowest cut the store still owes an exact answer at. Only
        // compaction prunes, at the floor in force when it runs — and an
        // unarmed floor keeps nothing but column heads, which is pruning
        // at the newest commit of that moment.
        let mut exact_from = 0u64;
        for step in &steps {
            match step {
                Step::Put { key, pad } => {
                    lsn += 1;
                    let ts = lsn * 10;
                    // The pad inflates some values so tables span size tiers.
                    let val = bytes::Bytes::from(
                        format!("v{lsn}-{}", "x".repeat(*pad as usize)).into_bytes(),
                    );
                    let w = WriteOp::put(
                        key_of(*key),
                        bytes::Bytes::from_static(b"c"),
                        val.clone(),
                        ts,
                    );
                    lvl.apply(&w, Lsn::new(1, lsn));
                    model.entry(*key).or_default().push((ts, Some(val)));
                }
                Step::Delete { key } => {
                    lsn += 1;
                    let ts = lsn * 10;
                    lvl.apply(&delete_ts(*key, ts), Lsn::new(1, lsn));
                    model.entry(*key).or_default().push((ts, None));
                }
                Step::Flush => {
                    lvl.flush().unwrap();
                }
                Step::Compact => {
                    lvl.maybe_compact().unwrap();
                }
                Step::CompactAll => {
                    lvl.compact_all().unwrap();
                }
                Step::AdvanceFloor { frac } => {
                    // A floor somewhere in the written history (or past it).
                    let ts = lsn * 10 * u64::from(*frac) / 255;
                    lvl.set_gc_floor(ts);
                    if floor == u64::MAX || ts > floor {
                        floor = ts;
                    }
                    prop_assert_eq!(lvl.gc_floor(), floor);
                }
            }
            if matches!(step, Step::Compact | Step::CompactAll) {
                exact_from = exact_from.max(floor.min(lsn * 10));
                assert_disjoint_levels(&lvl);
            }
        }
        assert_disjoint_levels(&lvl);

        // Every retained timestamp: each write's commit ts from the
        // lowest exact cut up, off-grid cuts between them, that cut
        // itself, the floor when it is above it, and "now".
        let mut cuts: Vec<u64> = model.values().flatten()
            .map(|(ts, _)| *ts)
            .filter(|ts| *ts >= exact_from)
            .flat_map(|ts| [ts, ts + 5])
            .collect();
        cuts.extend([exact_from, u64::MAX]);
        if floor != u64::MAX && floor >= exact_from {
            cuts.push(floor);
        }
        for &ts in &cuts {
            let mut scan_want = BTreeMap::new();
            for key in 0..24u8 {
                let want = model_at(&model, key, ts);
                prop_assert_eq!(live_at(&lvl, key, ts), want.clone(), "key {} at ts {}", key, ts);
                if let Some((value, _)) = want {
                    scan_want.insert(key_of(key), value);
                }
            }
            prop_assert_eq!(scan_live_at(&lvl, ts), scan_want, "scan at ts {}", ts);
        }
    }
}

/// Block-cache safety: once compaction retires a table, its cached
/// blocks are evicted and can never be served — reads after compaction
/// see only the new tables' contents.
#[test]
fn block_cache_never_serves_retired_tables() {
    let cache = Arc::new(BlockCache::new(1 << 20));
    let mut s = RangeStore::open(
        Arc::new(MemVfs::new()),
        StoreOptions { compaction_fanin: 2, cache: Some(cache.clone()), ..Default::default() },
    )
    .unwrap();
    // Several flushed tables; every key read once to warm the cache.
    let mut lsn = 0u64;
    for batch in 0..4u64 {
        for key in 0..40u8 {
            lsn += 1;
            s.apply(&put_ts(key, lsn + batch * 1000, lsn * 10), Lsn::new(1, lsn));
        }
        s.flush().unwrap();
    }
    for key in 0..40u8 {
        assert!(s.get(&key_of(key)).unwrap().is_some());
    }
    assert!(!cache.tables_with_entries().is_empty(), "reads populated the cache");
    let live_before: BTreeSet<u64> = s.live_cache_ids().into_iter().collect();

    // Full compaction retires every pre-existing table.
    s.compact_all().unwrap();
    let live_after: BTreeSet<u64> = s.live_cache_ids().into_iter().collect();
    for id in &live_before {
        assert!(!live_after.contains(id), "compaction outputs use fresh cache ids");
    }
    // Nothing in the cache belongs to a retired table.
    for id in cache.tables_with_entries() {
        assert!(live_after.contains(&id), "cache entry for retired table {id}");
    }
    // Reads after retirement serve the merged (newest) values and
    // repopulate the cache only with live tables' blocks.
    for key in 0..40u8 {
        let row = s.get(&key_of(key)).unwrap().unwrap();
        let want = format!("v{}", u64::from(key) + 1 + 3 * 1000 + 120);
        assert_eq!(row.get_live(b"c").unwrap().value.as_ref(), want.as_bytes(), "key {key}");
    }
    for id in cache.tables_with_entries() {
        assert!(live_after.contains(&id), "repopulated entries are all live");
    }
}

/// Crash the store mid-compaction at every possible sync point: the
/// manifest protocol (outputs synced → manifest synced → inputs deleted)
/// must reopen to a consistent level assignment with no data loss.
#[test]
fn manifest_crash_mid_compaction_reopens_consistent() {
    let opts = || StoreOptions {
        compaction_fanin: 2,
        level_base_bytes: 4 << 10,
        level_table_target_bytes: 1 << 10,
        ..Default::default()
    };
    for fail_at in 1..=12u64 {
        // A durable multi-level store.
        let mem = MemVfs::new();
        let mut s = RangeStore::open(Arc::new(mem.clone()), opts()).unwrap();
        let mut lsn = 0u64;
        let mut expect: BTreeMap<u8, u64> = BTreeMap::new();
        for round in 0..6u64 {
            for i in 0..40u64 {
                lsn += 1;
                let key = ((i * 7 + round) % 120) as u8;
                s.apply(&put_ts(key, lsn, lsn * 10), Lsn::new(1, lsn));
                expect.insert(key, lsn);
            }
            s.flush().unwrap();
            while s.maybe_compact().unwrap() {}
        }
        drop(s);

        // Reopen through a faulty disk and compact until the injected
        // sync failure fires (sticky: the device stays dead).
        let plan = FaultPlan::new();
        let faulty: SharedVfs = Arc::new(FaultVfs::new(Arc::new(mem.clone()), plan.clone()));
        let mut s = RangeStore::open(faulty, opts()).unwrap();
        plan.set_sticky(true);
        plan.fail_sync_after(fail_at);
        let mut steps = 0;
        loop {
            steps += 1;
            match if steps % 4 == 0 { s.compact_all().map(|()| true) } else { s.maybe_compact() } {
                Ok(true) => {}
                Ok(false) => break,
                Err(_) => break,
            }
            if steps > 32 {
                break;
            }
        }
        drop(s);

        // Crash: only synced state survives. The store must reopen to a
        // consistent ladder serving every durable write.
        let s2 = RangeStore::open(Arc::new(mem.crash_clone()), opts()).unwrap();
        assert_disjoint_levels(&s2);
        for (key, want_lsn) in &expect {
            let row = s2.get(&key_of(*key)).unwrap().unwrap_or_else(|| {
                panic!("fail_at {fail_at}: key {key} lost after mid-compaction crash")
            });
            assert_eq!(
                row.get_live(b"c").unwrap().value.as_ref(),
                format!("v{want_lsn}").as_bytes(),
                "fail_at {fail_at}: key {key} reads its durable value"
            );
        }
    }
}

/// Compaction reads its inputs outside the block cache: a merge looks up
/// nothing, inserts nothing and counts no hit, miss or block read against
/// its store, so the blocks of tables it is about to retire never
/// displace hot ones. All it does to the cache is evict what the retired
/// inputs had in it; another store's blocks stay, and still hit.
#[test]
fn compaction_leaves_the_block_cache_alone() {
    let cache = Arc::new(BlockCache::new(1 << 20));
    let vfs: SharedVfs = Arc::new(MemVfs::new());
    let opts = |dir: &str| StoreOptions {
        dir: dir.into(),
        memtable_flush_bytes: usize::MAX,
        compaction_fanin: 2,
        cache: Some(cache.clone()),
        ..Default::default()
    };
    let mut store = RangeStore::open(vfs.clone(), opts("store")).unwrap();
    let mut bystander = RangeStore::open(vfs, opts("bystander")).unwrap();
    // Two inputs of several blocks each.
    for round in 0..2u64 {
        for k in 0..100u8 {
            let lsn = round * 100 + u64::from(k) + 1;
            let value = bytes::Bytes::from(vec![b'v'; 100]);
            let put = WriteOp::put(key_of(k), bytes::Bytes::from_static(b"c"), value, lsn);
            store.apply(&put, Lsn::new(1, lsn));
        }
        store.flush().unwrap();
    }
    bystander.apply(&put_ts(7, 1, 1), Lsn::new(1, 1));
    bystander.flush().unwrap();
    // Warm: the block holding a key in each input, and the bystander's.
    store.get(&key_of(3)).unwrap().unwrap();
    let ours = cache.stats().entries;
    assert!(ours > 0);
    bystander.get(&key_of(7)).unwrap().unwrap();
    let warm = cache.stats();
    assert_eq!((warm.inserts, warm.entries), (ours + 1, ours + 1));
    let stats = store.stats();
    let inputs = store.live_cache_ids();

    assert!(store.maybe_compact().unwrap(), "L0 is at its fan-in");
    let after = cache.stats();
    assert_eq!(after.inserts, warm.inserts, "compaction filled the cache");
    assert_eq!((after.hits, after.misses), (warm.hits, warm.misses), "compaction looked it up");
    let compacted = store.stats();
    assert_eq!(compacted.compactions, stats.compactions + 1);
    assert_eq!(
        (compacted.cache_hits, compacted.cache_misses, compacted.block_reads),
        (stats.cache_hits, stats.cache_misses, stats.block_reads),
        "compaction counted cache traffic against its store"
    );
    // Only the retired inputs' blocks went: the bystander's is still there.
    assert_eq!((after.evictions, after.entries), (warm.evictions + ours, 1));
    assert!(store.live_cache_ids().iter().all(|id| !inputs.contains(id)), "inputs retired");

    let before = bystander.stats();
    bystander.get(&key_of(7)).unwrap().unwrap();
    let read = bystander.stats();
    assert_eq!((read.cache_hits, read.cache_misses), (before.cache_hits + 1, before.cache_misses));
    assert_eq!(cache.stats().hits, after.hits + 1);
}
