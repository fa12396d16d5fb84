//! Checker self-test by mutation: a checker that cannot reject a
//! corrupted history proves nothing by accepting a real one.
//!
//! A small hand-built history is verified clean, then corrupted four
//! ways — a lost acknowledged write, a stale strong read, a torn
//! snapshot cut, and a duplicated scan row — and the checker must catch
//! every mutation, each under the expected violation class. A second
//! history retries two writes over an outage and must accept a read
//! only a retry explains, and reject a stale one. A third has a
//! conditional put refused while the value it expected still stands: a
//! retried put that wrote that value explains it, a value written once
//! does not.

use spinnaker_common::{HCons, HErr, HEventKind, HOp, HResult, HState, History, Key, Value};
use spinnaker_nemesis::check;

fn key() -> Key {
    Key::from("k")
}

fn val(s: &str) -> Value {
    Value::from(s.as_bytes().to_vec())
}

/// A minimal consistent run on one key:
///
/// * c0#0 put v1   (acked, commit ts 150)
/// * c0#1 put v2   (acked, commit ts 350)
/// * c1#0 strong get   -> v2
/// * c1#1 strong scan  -> [k = v2]
/// * c2#0 snapshot get @160 -> v1
/// * c2#1 snapshot get @160 -> v1   (same cut read twice)
fn good_history() -> History {
    let mut h = History::new();
    h.push(100, 0, 0, HEventKind::Invoke(HOp::Put { key: key(), value: val("v1") }));
    h.push(200, 0, 0, HEventKind::Ok(HResult::Write { version: 1, ts: 150 }));
    h.push(300, 0, 1, HEventKind::Invoke(HOp::Put { key: key(), value: val("v2") }));
    h.push(400, 0, 1, HEventKind::Ok(HResult::Write { version: 2, ts: 350 }));
    h.push(500, 1, 0, HEventKind::Invoke(HOp::Get { key: key(), cons: HCons::Strong }));
    h.push(600, 1, 0, HEventKind::Ok(HResult::Read { state: HState::Val(val("v2")), at_ts: 0 }));
    h.push(
        700,
        1,
        1,
        HEventKind::Invoke(HOp::Scan { start: Key::from(""), end: None, cons: HCons::Strong }),
    );
    h.push(800, 1, 1, HEventKind::Ok(HResult::Rows { rows: vec![(key(), val("v2"))], at_ts: 0 }));
    h.push(900, 2, 0, HEventKind::Invoke(HOp::Get { key: key(), cons: HCons::At(160) }));
    h.push(950, 2, 0, HEventKind::Ok(HResult::Read { state: HState::Val(val("v1")), at_ts: 160 }));
    h.push(960, 2, 1, HEventKind::Invoke(HOp::Get { key: key(), cons: HCons::At(160) }));
    h.push(990, 2, 1, HEventKind::Ok(HResult::Read { state: HState::Val(val("v1")), at_ts: 160 }));
    h
}

/// Replace the event at `idx` with `kind` (mutations edit in place so
/// every other constraint stays intact).
fn mutate(h: &mut History, idx: usize, kind: HEventKind) {
    h.events[idx].kind = kind;
}

#[test]
fn known_good_history_passes() {
    let v = check(&good_history());
    assert!(v.is_empty(), "clean history rejected: {v:#?}");
}

#[test]
fn lost_acked_write_is_caught() {
    // The strong scan no longer returns the key at all, though v2's ack
    // completed before the scan was invoked: an acknowledged write
    // vanished.
    let mut h = good_history();
    mutate(&mut h, 7, HEventKind::Ok(HResult::Rows { rows: vec![], at_ts: 0 }));
    let v = check(&h);
    assert!(v.iter().any(|v| v.kind == "linearizability"), "lost acked write not caught: {v:#?}");
}

#[test]
fn stale_strong_read_is_caught() {
    // The strong get observes v1 after v2's ack already completed —
    // a strong read served from the past.
    let mut h = good_history();
    mutate(&mut h, 5, HEventKind::Ok(HResult::Read { state: HState::Val(val("v1")), at_ts: 0 }));
    let v = check(&h);
    assert!(v.iter().any(|v| v.kind == "linearizability"), "stale strong read not caught: {v:#?}");
}

#[test]
fn torn_snapshot_cut_is_caught() {
    // Two reads of the same cut (ts=160) disagree: one sees v1, the
    // other v2. A snapshot that changes under a reader is torn.
    let mut h = good_history();
    mutate(&mut h, 11, HEventKind::Ok(HResult::Read { state: HState::Val(val("v2")), at_ts: 160 }));
    let v = check(&h);
    assert!(
        v.iter().any(|v| v.kind == "torn-snapshot-cut"),
        "torn snapshot cut not caught: {v:#?}"
    );
}

#[test]
fn duplicate_scan_row_is_caught() {
    // The scan returns the same row twice — merge bugs across
    // memtable/SST boundaries look exactly like this.
    let mut h = good_history();
    mutate(
        &mut h,
        7,
        HEventKind::Ok(HResult::Rows {
            rows: vec![(key(), val("v2")), (key(), val("v2"))],
            at_ts: 0,
        }),
    );
    let v = check(&h);
    assert!(v.iter().any(|v| v.kind == "scan-shape"), "duplicate scan row not caught: {v:#?}");
}

/// Two writes retried over an outage, then a strong get: each retry may
/// have applied its write again, so the get may see either value, but
/// never the one both overwrote. The search takes each write's ghost
/// applications in one order; it must still find the ghost that
/// explains `v2` after `v3` and find none that explains `v1`.
fn retried_history(read: &str) -> History {
    let put = |value: &str| HOp::Put { key: key(), value: val(value) };
    let mut h = History::new();
    h.push(100, 0, 0, HEventKind::Invoke(put("v1")));
    h.push(200, 0, 0, HEventKind::Ok(HResult::Write { version: 1, ts: 150 }));
    h.push(300, 0, 1, HEventKind::Invoke(put("v2")));
    h.push(310, 1, 0, HEventKind::Invoke(put("v3")));
    for at in [400, 500, 600] {
        h.push(at, 0, 1, HEventKind::Retry);
        h.push(at + 10, 1, 0, HEventKind::Retry);
    }
    h.push(700, 0, 1, HEventKind::Ok(HResult::Write { version: 2, ts: 650 }));
    h.push(720, 1, 0, HEventKind::Ok(HResult::Write { version: 3, ts: 690 }));
    h.push(800, 2, 0, HEventKind::Invoke(HOp::Get { key: key(), cons: HCons::Strong }));
    h.push(900, 2, 0, HEventKind::Ok(HResult::Read { state: HState::Val(val(read)), at_ts: 0 }));
    h
}

#[test]
fn a_stale_read_behind_retried_writes_is_caught() {
    let v = check(&retried_history("v2"));
    assert!(v.is_empty(), "a retried v2 may land after v3: {v:#?}");
    let v = check(&retried_history("v1"));
    assert!(v.iter().any(|v| v.kind == "linearizability"), "stale read not caught: {v:#?}");
}

/// `v1` is put (retried `retries` times) and read strongly; a
/// conditional put expecting it is then refused, and a later strong get
/// still reads `v1`. Put once, `v1` has one version, the one the
/// conditional read, so the refusal is a violation. Retried, the put may
/// have applied again under a new version with the same value, and the
/// refusal is explained.
fn refused_conditional_history(retries: u64) -> History {
    let mut h = History::new();
    h.push(100, 0, 0, HEventKind::Invoke(HOp::Put { key: key(), value: val("v1") }));
    for i in 0..retries {
        h.push(110 + i, 0, 0, HEventKind::Retry);
    }
    h.push(200, 0, 0, HEventKind::Ok(HResult::Write { version: 1, ts: 150 }));
    h.push(300, 1, 0, HEventKind::Invoke(HOp::Get { key: key(), cons: HCons::Strong }));
    h.push(400, 1, 0, HEventKind::Ok(HResult::Read { state: HState::Val(val("v1")), at_ts: 0 }));
    let cond = HOp::CondPut { key: key(), value: val("v2"), expect: HState::Val(val("v1")) };
    h.push(500, 1, 1, HEventKind::Invoke(cond));
    h.push(600, 1, 1, HEventKind::Fail(HErr::VersionMismatch));
    h.push(700, 2, 0, HEventKind::Invoke(HOp::Get { key: key(), cons: HCons::Strong }));
    h.push(800, 2, 0, HEventKind::Ok(HResult::Read { state: HState::Val(val("v1")), at_ts: 0 }));
    h
}

#[test]
fn a_conditional_refused_against_a_value_written_once_is_caught() {
    let v = check(&refused_conditional_history(0));
    assert!(
        v.iter().any(|v| v.kind == "linearizability"),
        "refusal against the only version not caught: {v:#?}"
    );
    let v = check(&refused_conditional_history(1));
    assert!(v.is_empty(), "a retried put may have written v1 again: {v:#?}");
}
