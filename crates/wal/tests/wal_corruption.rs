//! Crash-safety regression tests for WAL recovery (contract rule C1).
//!
//! Every fault shape a real disk can produce — a torn tail, a bit flip,
//! an absurd length prefix, an injected device error — must surface as a
//! typed [`Error`], never as a panic, and must never lose acknowledged
//! (synced) records.

use std::sync::Arc;

use spinnaker_common::codec::{self, Encode};
use spinnaker_common::vfs::{FaultPlan, FaultVfs, MemVfs, Vfs};
use spinnaker_common::{op, Error, Lsn, RangeId};
use spinnaker_wal::{Wal, WalOptions};

const R: RangeId = RangeId(7);

fn opts() -> WalOptions {
    WalOptions { dir: "wal".into(), segment_bytes: 8 << 20 }
}

fn wal_on(vfs: &MemVfs) -> Wal {
    Wal::open(Arc::new(vfs.clone()), opts()).unwrap()
}

fn rec(seq: u64) -> spinnaker_wal::LogRecord {
    spinnaker_wal::LogRecord::write(R, Lsn::new(1, seq), op::put(&format!("k{seq}"), "c", "v"))
}

/// Path of the first segment the log writes to on a fresh VFS.
const SEG1: &str = "wal/seg-0000000001.log";

/// Write `n` records, force them, and drop the log so the segment's
/// contents are final.
fn seed(vfs: &MemVfs, n: u64) {
    let mut wal = wal_on(vfs);
    for seq in 1..=n {
        wal.append(&rec(seq)).unwrap();
    }
    wal.sync().unwrap();
}

fn flip_byte(vfs: &MemVfs, path: &str, offset_from_end: usize) {
    let mut data = vfs.read_all(path).unwrap();
    let off = data.len() - 1 - offset_from_end;
    data[off] ^= 0x40;
    vfs.write_atomic(path, &data).unwrap();
}

#[test]
fn torn_partial_frame_at_the_tail_is_tolerated() {
    let vfs = MemVfs::new();
    seed(&vfs, 3);
    // A crash mid-append leaves a prefix of a frame header behind.
    let mut data = vfs.read_all(SEG1).unwrap();
    data.extend_from_slice(&[0x12, 0x34, 0x56]);
    vfs.write_atomic(SEG1, &data).unwrap();

    let wal = wal_on(&vfs);
    assert_eq!(wal.state(R).last_lsn, Lsn::new(1, 3));
    assert_eq!(wal.read_range(R, Lsn::new(0, 0), Lsn::new(1, 3)).unwrap().len(), 3);
}

/// Opening a log whose newest segment has a torn tail rolls to a fresh
/// segment, which seals the torn one. At the parent commit the damage
/// stayed in it, so the next open found a bad frame in a sealed segment
/// and refused to start until a checkpoint let the segment be collected.
/// Open rewrites the segment to its valid prefix before sealing it.
#[test]
fn a_torn_tail_survives_a_second_restart() {
    let vfs = MemVfs::new();
    seed(&vfs, 3);
    let mut data = vfs.read_all(SEG1).unwrap();
    let intact = data.len();
    data.extend_from_slice(&[0x12, 0x34, 0x56]);
    vfs.write_atomic(SEG1, &data).unwrap();

    drop(wal_on(&vfs));
    let wal = wal_on(&vfs);
    assert_eq!(wal.state(R).last_lsn, Lsn::new(1, 3));
    assert_eq!(wal.read_range(R, Lsn::new(0, 0), Lsn::new(1, 3)).unwrap().len(), 3);
    assert_eq!(vfs.read_all(SEG1).unwrap().len(), intact, "cut back to its valid prefix");
}

#[test]
fn oversize_length_prefix_is_torn_not_an_allocation() {
    let vfs = MemVfs::new();
    seed(&vfs, 2);
    // A frame header claiming a ~4 GiB record: recovery must classify it
    // as torn (it exceeds MAX_RECORD_BYTES) rather than try to read it.
    let mut data = vfs.read_all(SEG1).unwrap();
    data.extend_from_slice(&[0xff; 16]);
    vfs.write_atomic(SEG1, &data).unwrap();

    let wal = wal_on(&vfs);
    assert_eq!(wal.state(R).last_lsn, Lsn::new(1, 2));
}

#[test]
fn bit_flip_in_the_newest_segment_truncates_at_the_flip() {
    let vfs = MemVfs::new();
    seed(&vfs, 3);
    // Flip a bit inside the last record's body: its CRC no longer
    // matches, so recovery stops there — records 1..=2 survive, the
    // damaged (hence never-trustworthy) record 3 is dropped.
    flip_byte(&vfs, SEG1, 0);

    let wal = wal_on(&vfs);
    assert_eq!(wal.state(R).last_lsn, Lsn::new(1, 2));
    assert_eq!(wal.read_range(R, Lsn::new(0, 0), Lsn::new(1, 2)).unwrap().len(), 2);
}

/// The bit-flip case of [`a_torn_tail_survives_a_second_restart`]: the
/// damaged last record is cut off the segment before it is sealed.
#[test]
fn a_bit_flip_in_the_newest_segment_survives_a_second_restart() {
    let vfs = MemVfs::new();
    seed(&vfs, 3);
    flip_byte(&vfs, SEG1, 0);

    drop(wal_on(&vfs));
    let wal = wal_on(&vfs);
    assert_eq!(wal.state(R).last_lsn, Lsn::new(1, 2));
    assert_eq!(wal.read_range(R, Lsn::new(0, 0), Lsn::new(1, 2)).unwrap().len(), 2);
}

#[test]
fn bit_flip_in_a_sealed_segment_is_reported_as_corruption() {
    let vfs = MemVfs::new();
    seed(&vfs, 3);
    // Reopening rolls to a fresh segment, sealing segment 1.
    drop(wal_on(&vfs));
    flip_byte(&vfs, SEG1, 0);

    match Wal::open(Arc::new(vfs.clone()), opts()).err() {
        Some(Error::Corruption(msg)) => {
            assert!(msg.contains("sealed segment"), "unexpected message: {msg}");
        }
        other => panic!("expected Corruption, got {other:?}"),
    }
}

#[test]
fn injected_sync_failure_is_typed_and_synced_prefix_survives() {
    let inner = MemVfs::new();
    let plan = FaultPlan::new();
    let faulty: Arc<dyn Vfs> = Arc::new(FaultVfs::new(Arc::new(inner.clone()), plan.clone()));

    let mut wal = Wal::open(faulty, opts()).unwrap();
    wal.append(&rec(1)).unwrap();
    wal.sync().unwrap();

    plan.fail_sync_after(1);
    wal.append(&rec(2)).unwrap();
    match wal.sync() {
        Err(Error::Io(_)) => {}
        other => panic!("expected Io error from injected fault, got {other:?}"),
    }
    assert_eq!(plan.injected(), 1);

    // The node crashes on the failed force; only the acknowledged record
    // is recovered.
    drop(wal);
    let wal = wal_on(&inner.crash_clone());
    assert_eq!(wal.state(R).last_lsn, Lsn::new(1, 1));
}

#[test]
fn injected_append_failure_is_typed_not_a_panic() {
    let inner = MemVfs::new();
    let plan = FaultPlan::new();
    let faulty: Arc<dyn Vfs> = Arc::new(FaultVfs::new(Arc::new(inner.clone()), plan.clone()));

    let mut wal = Wal::open(faulty, opts()).unwrap();
    plan.fail_append_after(1);
    match wal.append(&rec(1)) {
        Err(Error::Io(_)) => {}
        other => panic!("expected Io error from injected fault, got {other:?}"),
    }
}

/// Where the log keeps every cohort's checkpoint and skipped LSNs.
const SIDECAR: &str = "wal/cohorts";

/// Open a log whose only file is a cohorts sidecar holding `bytes`.
fn open_with_sidecar(bytes: &[u8]) -> spinnaker_common::Result<Wal> {
    let vfs = MemVfs::new();
    vfs.write_atomic(SIDECAR, bytes).unwrap();
    Wal::open(Arc::new(vfs), opts())
}

/// The typed error opening over `bytes` must fail with.
fn refused(bytes: &[u8]) -> Error {
    match open_with_sidecar(bytes) {
        Ok(wal) => panic!("opened, with checkpoint {} for {R}", wal.checkpoint(R)),
        Err(e @ (Error::Codec(_) | Error::Corruption(_))) => e,
        Err(e) => panic!("not a codec error: {e}"),
    }
}

/// A sidecar listing one cohort `id` with checkpoint 1.3 and `skipped`.
fn one_cohort(id: u64, skipped: &[Lsn]) -> Vec<u8> {
    let mut bytes = Vec::new();
    codec::put_varint(&mut bytes, 1);
    codec::put_varint(&mut bytes, id);
    Lsn::new(1, 3).encode(&mut bytes);
    codec::put_varint(&mut bytes, skipped.len() as u64);
    for lsn in skipped {
        lsn.encode(&mut bytes);
    }
    bytes
}

/// Local recovery reads the cohorts sidecar before any log record, so a
/// torn or cut one must stop the open with a typed error: every proper
/// prefix of a valid sidecar is refused.
#[test]
fn every_truncation_of_the_cohorts_sidecar_is_refused() {
    let vfs = MemVfs::new();
    {
        let mut wal = wal_on(&vfs);
        wal.truncate_logically(R, &[Lsn::new(1, 9), Lsn::new(2, 4)]).unwrap();
        wal.set_checkpoint(R, Lsn::new(1, 3)).unwrap();
        wal.set_checkpoint(RangeId(300), Lsn::new(1, 6)).unwrap();
    }
    let bytes = vfs.read_all(SIDECAR).unwrap();
    let wal = open_with_sidecar(&bytes).unwrap();
    assert_eq!(wal.checkpoint(R), Lsn::new(1, 3));
    assert_eq!(wal.skipped_lsns(R), vec![Lsn::new(1, 9), Lsn::new(2, 4)]);
    assert_eq!(wal.checkpoint(RangeId(300)), Lsn::new(1, 6));
    for cut in 0..bytes.len() {
        refused(&bytes[..cut]);
    }
}

/// A cohort id is a `u32`. One above it used to be narrowed with `as
/// u32`, so `2^32 + 7` opened as cohort 7's checkpoint; it is refused.
#[test]
fn a_cohort_id_above_u32_is_refused_not_wrapped() {
    let wal = open_with_sidecar(&one_cohort(u64::from(R.0), &[])).unwrap();
    assert_eq!(wal.checkpoint(R), Lsn::new(1, 3));
    refused(&one_cohort((1 << 32) + u64::from(R.0), &[]));
    refused(&one_cohort(u64::from(u32::MAX) + 1, &[]));
}

/// A cohort or skipped-LSN count the remaining bytes cannot back is
/// refused before anything is sized by it.
#[test]
fn a_count_the_sidecar_cannot_back_is_refused() {
    let valid = one_cohort(u64::from(R.0), &[Lsn::new(2, 1)]);
    open_with_sidecar(&valid).unwrap();
    // The cohort count: the first byte.
    for count in [2, 1 << 40, u64::MAX] {
        let mut bytes = Vec::new();
        codec::put_varint(&mut bytes, count);
        bytes.extend_from_slice(&valid[1..]);
        refused(&bytes);
    }
    // The skipped-LSN count: after the count, the one-byte id and the
    // 8-byte checkpoint.
    for count in [2, 1 << 40, u64::MAX] {
        let mut bytes = valid[..10].to_vec();
        codec::put_varint(&mut bytes, count);
        bytes.extend_from_slice(&valid[11..]);
        refused(&bytes);
    }
}
