//! `codec::fold_visible` — the point read's way through an encoded row —
//! against the decoder it stands in for. Where the bytes are a row it
//! must show what `Row::decode(..).visible_at(ts)` shows, at every
//! timestamp, having read no further than the row; where it fails,
//! [`Row::decode`] must fail with the same error. (It may succeed on
//! bytes `Row::decode` rejects: it stops at the version that resolves the
//! last column, and damage beyond that point is damage it never read.)

use bytes::Bytes;
use proptest::prelude::*;

use spinnaker_common::codec::{self, Decode, Encode, Source};
use spinnaker_common::{ColumnValue, Result, Row};

#[path = "support/decode_equiv.rs"]
mod decode_equiv;
use decode_equiv::{assert_decodes_alike, assert_decodes_alike_when_damaged};

/// Reads its bytes both ways and panics where they part. As a [`Decode`]
/// type it rides the shared checks: `assert_decodes_alike` then also
/// holds `fold_visible` over a plain slice against `fold_visible` over a
/// shared buffer — verdict, value, error text, bytes consumed — at every
/// truncation and flipped bit.
#[derive(PartialEq, Debug)]
struct BothWays(Row);

impl Decode for BothWays {
    fn decode_from(src: &mut Source<'_>) -> Result<BothWays> {
        let bytes = src.rest();
        let mut cur = bytes;
        let decoded = Row::decode(&mut cur);
        // Every timestamp a version carries, its neighbours, and the ends.
        let mut cuts = vec![0, u64::MAX];
        for v in decoded.iter().flat_map(|row| row.columns.values()).flat_map(ColumnValue::versions)
        {
            cuts.extend([
                v.timestamp.saturating_sub(1),
                v.timestamp,
                v.timestamp.saturating_add(1),
            ]);
        }
        for &ts in &cuts {
            let mut plain = Source::copying(bytes);
            let mut seen = Row::new();
            match (&decoded, codec::fold_visible(&mut plain, ts, &mut seen)) {
                (Ok(row), Ok(())) => {
                    assert!(plain.len() >= cur.len(), "read past the row at ts {ts}");
                    assert_eq!(seen, row.visible_at(ts), "visible at {ts}");
                }
                (Ok(_), Err(e)) => panic!("rejected a row at ts {ts}: {e}"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "errors differ"),
                // Stopped short of the damage (or of the cut).
                (Err(_), Ok(())) => {}
            }
        }
        // And once over the source handed in, so its cells are views
        // when it is shared and the caller sees what was consumed.
        let mut latest = Row::new();
        codec::fold_visible(src, u64::MAX, &mut latest)?;
        Ok(BothWays(latest))
    }
}

type Version = (u64, u64, bool, Vec<u8>);

fn cv_of((version, timestamp, tombstone, value): Version) -> ColumnValue {
    ColumnValue { value: Bytes::from(value), version, timestamp, tombstone, older: Vec::new() }
}

/// Versions newest first, as a store keeps them: versions strictly
/// descending, timestamps descending from a small range, so cuts fall
/// on, between and beside them.
fn chain_strat() -> impl Strategy<Value = Vec<Version>> {
    proptest::collection::vec(
        (any::<u64>(), 0u64..40, any::<bool>(), proptest::collection::vec(any::<u8>(), 0..24)),
        1..6,
    )
    .prop_map(|mut versions| {
        versions.sort_by_key(|v| std::cmp::Reverse(v.1));
        let mut numbers: Vec<u64> = versions.iter().map(|v| v.0).collect();
        numbers.sort_unstable_by(|a, b| b.cmp(a));
        numbers.dedup();
        versions.truncate(numbers.len());
        for (v, number) in versions.iter_mut().zip(numbers) {
            v.0 = number;
        }
        versions
    })
}

/// At the latest commit a one-column row is its head: the chain behind
/// it is not read, so it may be any length — or, here, missing.
#[test]
fn the_last_column_is_read_only_as_far_as_its_visible_version() {
    let mut row = Row::new();
    let mut head = cv_of((9, 30, false, b"head".to_vec()));
    head.older = vec![cv_of((8, 20, false, b"mid".to_vec())), cv_of((7, 10, true, Vec::new()))];
    row.set(Bytes::from("c"), head);
    let enc = row.encode_to_vec();
    let head_len = row.visible_at(30).encode_to_vec().len() - 1; // less its empty chain's count
    for (ts, want, read) in [(u64::MAX, 9, head_len), (30, 9, head_len), (25, 8, 0), (10, 7, 0)] {
        let mut src = Source::copying(&enc);
        let mut seen = Row::new();
        codec::fold_visible(&mut src, ts, &mut seen).unwrap();
        assert_eq!(seen.get(b"c").unwrap().version, want, "at {ts}");
        if read > 0 {
            assert_eq!(enc.len() - src.len(), read, "at {ts}: the head alone");
            let mut seen = Row::new();
            codec::fold_visible(&mut Source::copying(&enc[..read]), ts, &mut seen).unwrap();
            assert_eq!(seen, row.visible_at(ts), "at {ts}: from the head's bytes alone");
        }
    }
    // Nothing visible: the whole chain was looked at, to its end.
    let mut src = Source::copying(&enc);
    let mut seen = Row::new();
    codec::fold_visible(&mut src, 5, &mut seen).unwrap();
    assert!(seen.is_empty() && src.is_empty());
}

proptest! {
    #[test]
    fn fold_visible_reads_what_decode_then_visible_at_reads(
        cols in proptest::collection::btree_map(
            proptest::collection::vec(any::<u8>(), 0..8), chain_strat(), 0..5),
        flip in any::<usize>(),
    ) {
        let mut row = Row::new();
        for (name, mut versions) in cols {
            let mut head = cv_of(versions.remove(0));
            head.older = versions.into_iter().map(cv_of).collect();
            row.set(Bytes::from(name), head);
        }
        assert_decodes_alike_when_damaged::<BothWays>(&row.encode_to_vec(), flip);
    }

    #[test]
    fn fold_visible_rejects_noise_as_decode_does(
        noise in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        assert_decodes_alike::<BothWays>(&noise);
    }
}

/// The fold's other half: a fragment's version lands only where the row
/// so far holds a lower one, whichever order the fragments come in.
#[test]
fn fragments_combine_by_highest_version_per_column() {
    let fragment = |cells: &[(&'static str, u64)]| {
        let mut row = Row::new();
        for &(col, version) in cells {
            let cv = cv_of((version, version, false, format!("{col}@{version}").into_bytes()));
            row.set(Bytes::from(col), cv);
        }
        Bytes::from(row.encode_to_vec())
    };
    let fragments = [fragment(&[("a", 5), ("b", 2)]), fragment(&[("a", 3), ("b", 7), ("c", 1)])];
    for order in [[0, 1], [1, 0]] {
        let mut row = Row::new();
        for i in order {
            let buf = &fragments[i];
            codec::fold_visible(&mut Source::shared(buf, buf), u64::MAX, &mut row).unwrap();
        }
        let versions: Vec<u64> = row.columns.values().map(|cv| cv.version).collect();
        assert_eq!(versions, [5, 7, 1], "order {order:?}");
        assert_eq!(row.get(b"b").unwrap().value.as_ref(), b"b@7");
    }
}
