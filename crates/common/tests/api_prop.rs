//! Codec round-trip property tests for the typed client protocol:
//! arbitrary [`ClientOp`]s and [`ClientReply`]s must survive
//! encode → decode exactly, and decoding must consume the full encoding
//! (no trailing garbage left behind — requests are concatenated on the
//! wire).

use bytes::Bytes;
use proptest::prelude::*;

use spinnaker_common::api::{
    ClientError, ClientOp, ClientReply, ClientRequest, ColumnSelect, ReadCell, ScanRow,
};
use spinnaker_common::codec::{Decode, Encode};
use spinnaker_common::{CellOp, ColumnValue, Consistency, Key, RangeId, Row, SnapshotTs, WriteOp};

#[path = "support/decode_equiv.rs"]
mod decode_equiv;
use decode_equiv::{assert_decodes_alike, assert_decodes_alike_when_damaged};

fn bytes_strat() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..24).prop_map(Bytes::from)
}

fn key_strat() -> impl Strategy<Value = Key> {
    proptest::collection::vec(any::<u8>(), 0..24).prop_map(Key::from)
}

fn opt_key_strat() -> impl Strategy<Value = Option<Key>> {
    prop_oneof![Just(None), key_strat().prop_map(Some)]
}

fn opt_bytes_strat() -> impl Strategy<Value = Option<Bytes>> {
    prop_oneof![Just(None), bytes_strat().prop_map(Some)]
}

fn consistency_strat() -> impl Strategy<Value = Consistency> {
    prop_oneof![
        Just(Consistency::Strong),
        Just(Consistency::Timeline),
        Just(Consistency::Snapshot(SnapshotTs::Pin)),
        any::<u64>().prop_map(|ts| Consistency::Snapshot(SnapshotTs::At(ts))),
    ]
}

fn column_select_strat() -> impl Strategy<Value = ColumnSelect> {
    prop_oneof![
        Just(ColumnSelect::All),
        bytes_strat().prop_map(ColumnSelect::One),
        proptest::collection::vec(bytes_strat(), 0..4).prop_map(ColumnSelect::Set),
    ]
}

fn op_strat() -> impl Strategy<Value = ClientOp> {
    prop_oneof![
        (key_strat(), column_select_strat(), consistency_strat())
            .prop_map(|(key, columns, consistency)| ClientOp::Get { key, columns, consistency }),
        (key_strat(), proptest::collection::vec((bytes_strat(), bytes_strat()), 1..4))
            .prop_map(|(key, cells)| ClientOp::Put { key, cells }),
        (key_strat(), proptest::collection::vec(bytes_strat(), 1..4))
            .prop_map(|(key, columns)| ClientOp::Delete { key, columns }),
        (key_strat(), bytes_strat(), bytes_strat(), any::<u64>()).prop_map(
            |(key, col, value, expected)| ClientOp::ConditionalPut { key, col, value, expected }
        ),
        (key_strat(), bytes_strat(), any::<u64>())
            .prop_map(|(key, col, expected)| ClientOp::ConditionalDelete { key, col, expected }),
        (key_strat(), opt_key_strat(), any::<u32>(), consistency_strat()).prop_map(
            |(start, end, limit, consistency)| ClientOp::Scan { start, end, limit, consistency }
        ),
    ]
}

fn cell_strat() -> impl Strategy<Value = ReadCell> {
    (bytes_strat(), opt_bytes_strat(), any::<u64>()).prop_map(|(col, value, version)| ReadCell {
        col,
        value,
        version,
    })
}

fn row_strat() -> impl Strategy<Value = ScanRow> {
    (key_strat(), proptest::collection::vec(cell_strat(), 0..4))
        .prop_map(|(key, cells)| ScanRow { key, cells })
}

fn reply_strat() -> impl Strategy<Value = ClientReply> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
            |(req, version, ts, leader)| ClientReply::WriteOk { req, version, ts, leader }
        ),
        (any::<u64>(), proptest::collection::vec(cell_strat(), 0..4), any::<u64>())
            .prop_map(|(req, cells, at_ts)| ClientReply::Row { req, cells, at_ts }),
        (any::<u64>(), proptest::collection::vec(row_strat(), 0..4), opt_key_strat(), any::<u64>())
            .prop_map(|(req, rows, resume, at_ts)| ClientReply::Rows { req, rows, resume, at_ts }),
        (any::<u64>(), error_strat()).prop_map(|(req, error)| ClientReply::Err { req, error }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(range, leader)| ClientReply::Leader { range: RangeId(range), leader }),
    ]
}

fn error_strat() -> impl Strategy<Value = ClientError> {
    prop_oneof![
        prop_oneof![Just(None), any::<u32>().prop_map(Some)]
            .prop_map(|hint| ClientError::NotLeader { hint }),
        Just(ClientError::Unavailable),
        any::<u64>().prop_map(|version| ClientError::WrongRange { version }),
        any::<u64>().prop_map(|floor| ClientError::SnapshotTooOld { floor }),
        any::<u64>().prop_map(|actual| ClientError::VersionMismatch { actual }),
    ]
}

fn column_value_strat() -> impl Strategy<Value = ColumnValue> {
    let version = || {
        (bytes_strat(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
            |(value, version, timestamp, tombstone)| ColumnValue {
                value,
                version,
                timestamp,
                tombstone,
                older: Vec::new(),
            },
        )
    };
    (version(), proptest::collection::vec(version(), 0..3)).prop_map(|(mut head, older)| {
        head.older = older;
        head
    })
}

fn stored_row_strat() -> impl Strategy<Value = Row> {
    proptest::collection::vec((bytes_strat(), column_value_strat()), 0..4).prop_map(|cols| {
        let mut row = Row::new();
        for (name, cv) in cols {
            row.set(name, cv);
        }
        row
    })
}

fn write_op_strat() -> impl Strategy<Value = WriteOp> {
    let cell = prop_oneof![
        (bytes_strat(), bytes_strat()).prop_map(|(col, value)| CellOp::Put { col, value }),
        bytes_strat().prop_map(|col| CellOp::Delete { col }),
    ];
    (key_strat(), any::<u64>(), proptest::collection::vec(cell, 1..4))
        .prop_map(|(key, timestamp, cells)| WriteOp { key, cells, timestamp, origin: None })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn client_request_roundtrips(req in any::<u64>(), ring_version in any::<u64>(), op in op_strat()) {
        let original = ClientRequest { req, ring_version, op };
        let enc = original.encode_to_vec();
        let mut slice = enc.as_slice();
        let decoded = ClientRequest::decode(&mut slice).expect("decode");
        prop_assert_eq!(decoded, original);
        prop_assert!(slice.is_empty(), "decode consumed the full encoding");
    }

    #[test]
    fn client_reply_roundtrips(reply in reply_strat()) {
        let enc = reply.encode_to_vec();
        let mut slice = enc.as_slice();
        let decoded = ClientReply::decode(&mut slice).expect("decode");
        prop_assert_eq!(decoded, reply);
        prop_assert!(slice.is_empty(), "decode consumed the full encoding");
    }

    /// Decoding over a shared buffer (cells are views of it) and over a
    /// plain slice (cells are copies) is one decoder: same verdict, same
    /// value, same bytes consumed — on well-formed input, on every
    /// truncation of it, with a bit flipped, and on noise. Every length,
    /// count and flag check holds for both or for neither.
    #[test]
    fn shared_and_copying_decode_agree(
        row in stored_row_strat(),
        op in write_op_strat(),
        request in op_strat(),
        flip in any::<u16>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let flip = flip as usize;
        assert_decodes_alike_when_damaged::<Row>(&row.encode_to_vec(), flip);
        assert_decodes_alike_when_damaged::<WriteOp>(&op.encode_to_vec(), flip);
        let request = ClientRequest { req: 7, ring_version: 3, op: request };
        assert_decodes_alike_when_damaged::<ClientRequest>(&request.encode_to_vec(), flip);
        assert_decodes_alike::<Row>(&noise);
        assert_decodes_alike::<WriteOp>(&noise);
        assert_decodes_alike::<ClientRequest>(&noise);
    }

    #[test]
    fn truncated_encodings_never_panic(op in op_strat(), cut in any::<u16>()) {
        let enc = ClientRequest { req: 1, ring_version: 1, op }.encode_to_vec();
        let cut = (cut as usize) % enc.len().max(1);
        let _ = ClientRequest::decode(&mut &enc[..cut]); // error or partial decode — never a panic
    }
}
