//! [`Columns`] — a row's columns, one held inline, more in one sorted
//! vector — against the `BTreeMap<ColumnName, ColumnValue>` a row used to
//! be: after any sequence of inserts, in-place edits, removals and
//! reservations, the same columns in the same order, the same length and
//! the same `Debug` text. And [`Row::decode`] accepts exactly the bytes
//! whose column names are strictly ascending — what encoding the map
//! writes — and rejects unsorted or repeated ones, which no encoder
//! writes, rather than reading them one of two ways.

use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;

use spinnaker_common::codec::{self, Decode, Encode};
use spinnaker_common::{ColumnName, ColumnValue, Columns, Row};

type Model = BTreeMap<ColumnName, ColumnValue>;

/// One of 18 names of one to three letters out of six, so names repeat
/// and sort in an order other than their index.
fn name(i: u8) -> ColumnName {
    Bytes::from(vec![b'a' + i % 6; usize::from(i / 6 % 3) + 1])
}

fn cv(version: u64) -> ColumnValue {
    ColumnValue {
        value: Bytes::from(format!("value-{version}")),
        version,
        timestamp: version * 10,
        tombstone: version % 5 == 0,
        older: Vec::new(),
    }
}

fn assert_same(columns: &Columns, model: &Model) {
    assert_eq!(columns.len(), model.len());
    assert_eq!(columns.is_empty(), model.is_empty());
    assert!(columns.iter().eq(model.iter()), "iteration order");
    assert!(columns.keys().eq(model.keys()));
    assert!(columns.values().eq(model.values()));
    assert!(columns.into_iter().eq(model.iter()));
    assert_eq!(format!("{columns:?}"), format!("{model:?}"));
    for i in 0..18 {
        assert_eq!(columns.get(&name(i)), model.get(&name(i)));
    }
    let clone = columns.clone();
    assert_eq!(&clone, columns);
    assert_eq!(format!("{clone:?}"), format!("{model:?}"));
}

/// `[n] ([name] [tombstone] [version] [timestamp] [value] [0 older])*`,
/// in the order given.
fn hand_encoded(cols: &[(ColumnName, ColumnValue)]) -> Vec<u8> {
    let mut buf = Vec::new();
    codec::put_varint(&mut buf, cols.len() as u64);
    for (name, cv) in cols {
        codec::put_bytes(&mut buf, name);
        codec::put_u8(&mut buf, u8::from(cv.tombstone));
        codec::put_u64(&mut buf, cv.version);
        codec::put_u64(&mut buf, cv.timestamp);
        codec::put_bytes(&mut buf, &cv.value);
        codec::put_varint(&mut buf, 0);
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn columns_behave_as_the_map_they_replace(
        steps in proptest::collection::vec((0u8..4, 0u8..18, 1u64..50), 1..48),
    ) {
        let mut columns = Columns::new();
        let mut model = Model::new();
        for (kind, i, version) in steps {
            let name = name(i);
            match kind {
                0 => prop_assert_eq!(
                    columns.insert(name.clone(), cv(version)),
                    model.insert(name, cv(version))
                ),
                1 => {
                    let edit = |cv: &mut ColumnValue| {
                        cv.version += version;
                        cv.tombstone = !cv.tombstone;
                    };
                    let (held, modelled) = (columns.get_mut(&name), model.get_mut(&name));
                    prop_assert_eq!(held.is_some(), modelled.is_some());
                    held.into_iter().chain(modelled).for_each(edit);
                }
                2 => prop_assert_eq!(columns.remove(&name), model.remove(&name)),
                _ => columns.reserve(version as usize % 4),
            }
            assert_same(&columns, &model);
        }
    }

    #[test]
    fn decoding_accepts_only_strictly_ascending_names(
        cols in proptest::collection::vec((0u8..18, 1u64..50), 0..10),
    ) {
        let cols: Vec<(ColumnName, ColumnValue)> =
            cols.into_iter().map(|(i, version)| (name(i), cv(version))).collect();
        let model: Model = cols.iter().cloned().collect();
        let enc = hand_encoded(&cols);
        let mut rest = enc.as_slice();
        let decoded = Row::decode(&mut rest);
        let ascending = cols.windows(2).all(|w| w[0].0 < w[1].0);
        prop_assert_eq!(decoded.is_ok(), ascending);
        if let Ok(row) = decoded {
            prop_assert!(rest.is_empty());
            assert_same(&row.columns, &model);
            // The bytes accepted are the canonical form of the map.
            prop_assert_eq!(row.encode_to_vec(), enc);
        } else {
            // And the same bytes in canonical order are accepted.
            let canonical: Vec<(ColumnName, ColumnValue)> = model.clone().into_iter().collect();
            let row = Row::decode(&mut hand_encoded(&canonical).as_slice()).unwrap();
            assert_same(&row.columns, &model);
        }
    }
}
