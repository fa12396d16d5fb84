//! Property tests for coordination-service path round-trips: every range
//! id — including child ids minted by splits, all the way to `u32::MAX` —
//! must survive `CohortPaths::new` → `range_of_path`, and the shared
//! range-metadata paths must never be mistaken for a cohort path.

use proptest::prelude::*;

use spinnaker_common::{Key, RangeId};
use spinnaker_core::node::CohortPaths;
use spinnaker_core::partition::{u64_to_key, Barrier, Ring, TABLE_PATH};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every cohort path of every u32 range id parses back to the id.
    #[test]
    fn cohort_paths_round_trip(id in any::<u32>()) {
        let range = RangeId(id);
        let paths = CohortPaths::new(range);
        prop_assert_eq!(CohortPaths::range_of_path(&paths.base), Some(range));
        prop_assert_eq!(CohortPaths::range_of_path(&paths.candidates), Some(range));
        prop_assert_eq!(CohortPaths::range_of_path(&paths.leader), Some(range));
        prop_assert_eq!(CohortPaths::range_of_path(&paths.epoch), Some(range));
        // Sequential children under /candidates still resolve the range.
        let child = format!("{}/c-0000000042", paths.candidates);
        prop_assert_eq!(CohortPaths::range_of_path(&child), Some(range));
    }

    /// Ids minted by chains of splits round-trip too (they are plain u32s,
    /// but the chain exercises the id allocator's actual output).
    #[test]
    fn split_minted_ids_round_trip(nodes in 3usize..12, splits in 1usize..6, at in any::<u64>()) {
        let mut ring = Ring::with_nodes(nodes);
        let mut key = at | 1; // never the minimum
        for _ in 0..splits {
            let target = ring.range_of(&u64_to_key(key));
            let _ = ring.split(target, &u64_to_key(key), Barrier::default());
            key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        }
        for range in ring.ranges().collect::<Vec<_>>() {
            let paths = CohortPaths::new(range);
            prop_assert_eq!(CohortPaths::range_of_path(&paths.base), Some(range));
            prop_assert_eq!(CohortPaths::range_of_path(&paths.leader), Some(range));
        }
    }

    /// Arbitrary non-numeric junk after "/r" must not parse, and numeric
    /// overflow beyond u32 must not wrap into a valid id.
    #[test]
    fn junk_paths_do_not_parse(
        chars in proptest::collection::vec(0usize..4, 1..12),
        big in (u32::MAX as u64 + 1)..u64::MAX,
    ) {
        const ALPHABET: [char; 4] = ['a', 'z', '_', '/'];
        let suffix: String = chars.into_iter().map(|i| ALPHABET[i]).collect();
        prop_assert_eq!(CohortPaths::range_of_path(&format!("/r{suffix}")), None);
        prop_assert_eq!(CohortPaths::range_of_path(&format!("/r{big}")), None);
    }
}

#[test]
fn metadata_paths_are_not_cohort_paths() {
    // The range-table znode lives under "/ranges", which begins with "/r"
    // — it must never be parsed as a cohort id.
    assert_eq!(CohortPaths::range_of_path(TABLE_PATH), None);
    assert_eq!(CohortPaths::range_of_path("/ranges"), None);
    assert_eq!(CohortPaths::range_of_path("/r"), None);
    assert_eq!(CohortPaths::range_of_path("/x0"), None);
}

#[test]
fn table_split_and_encode_round_trip_under_splits() {
    // A deeper end-to-end of id minting + codec: split repeatedly, encode,
    // decode, and confirm the tables agree on routing for probe keys.
    let mut ring = Ring::with_nodes(5);
    for at in [10u64, 1 << 20, 1 << 40, u64::MAX / 2, u64::MAX - 3] {
        let key = u64_to_key(at);
        let target = ring.range_of(&key);
        let _ = ring.split(target, &key, Barrier::default());
    }
    let encoded = spinnaker_common::codec::Encode::encode_to_vec(&ring);
    let decoded: Ring = spinnaker_common::codec::Decode::decode(&mut encoded.as_slice()).unwrap();
    for probe in [0u64, 9, 10, 11, 1 << 30, u64::MAX] {
        let key = u64_to_key(probe);
        assert_eq!(ring.range_of(&key), decoded.range_of(&key), "probe {probe}");
    }
    assert_eq!(ring.version(), decoded.version());
    let empty = Key::default();
    assert_eq!(ring.range_of(&empty), decoded.range_of(&empty));
}
