//! Durability: acknowledged writes survive a whole-cluster power failure
//! (the MemVfs crash model drops everything not fsync'd).

use spinnaker::common::RangeId;
use spinnaker::core::client::Workload;
use spinnaker::core::cluster::{ClusterConfig, SimCluster};
use spinnaker::core::partition::u64_to_key;
use spinnaker::sim::{DiskProfile, SECS};

#[test]
fn acknowledged_writes_survive_full_cluster_power_loss() {
    let mut cfg =
        ClusterConfig { nodes: 3, seed: 21, disk: DiskProfile::Ssd, ..Default::default() };
    cfg.node.commit_period = 250_000_000;
    let mut c = SimCluster::new(cfg);
    let stats = c.add_client(Workload::SingleRangeWrites { value_size: 256 }, SECS, 0, 60 * SECS);
    stats.borrow_mut().trace = Some(Vec::new());
    c.run_until(6 * SECS);

    // Power failure: all nodes at once (unsynced state is gone).
    for n in 0..3 {
        c.crash_node(6 * SECS, n, true);
    }
    c.run_until(7 * SECS);
    let acked_before = stats.borrow().total_completed;
    assert!(acked_before > 20, "enough writes acked before the outage");

    // Cold restart of everything.
    for n in 0..3 {
        c.restart_node(8 * SECS, n);
    }
    c.run_until(25 * SECS);
    let leader = c.leader_of(RangeId(0)).expect("cohort recovered");

    let must_exist = acked_before.min(4096);
    for i in 0..must_exist {
        let key = u64_to_key(i);
        let present = c
            .with_node(leader, |n| {
                n.store(RangeId(0))
                    .and_then(|s| s.get(&key).ok().flatten())
                    .map(|row| row.get_live(b"c").is_some())
                    .unwrap_or(false)
            })
            .unwrap_or(false);
        assert!(present, "acked write #{i} lost in the power failure");
    }
}

#[test]
fn storage_stack_survives_crash_at_every_layer() {
    // WAL + sstables + the cohorts sidecar (checkpoints and skipped lists)
    // all reload from the synced image; exercised indirectly above,
    // directly here via the public crate APIs.
    use spinnaker::common::vfs::{MemVfs, Vfs};
    use spinnaker::common::{op, Lsn, RangeId};
    use spinnaker::wal::{LogRecord, Wal, WalOptions};
    use std::sync::Arc;

    let vfs = MemVfs::new();
    {
        let mut wal = Wal::open(Arc::new(vfs.clone()), WalOptions::default()).unwrap();
        for i in 1..=50 {
            wal.append(&LogRecord::write(
                RangeId(0),
                Lsn::new(1, i),
                op::put(&format!("k{i}"), "c", "v"),
            ))
            .unwrap();
        }
        wal.sync().unwrap();
        wal.truncate_logically(RangeId(0), &[Lsn::new(1, 50)]).unwrap();
        wal.set_checkpoint(RangeId(0), Lsn::new(1, 10)).unwrap();
    }
    let after = vfs.crash_clone();
    assert!(after.exists("wal/cohorts").unwrap());
    let wal = Wal::open(Arc::new(after), WalOptions::default()).unwrap();
    assert_eq!(wal.state(RangeId(0)).last_lsn, Lsn::new(1, 49), "truncation survived");
    assert_eq!(wal.checkpoint(RangeId(0)), Lsn::new(1, 10), "checkpoint survived");
    assert_eq!(
        wal.read_range(RangeId(0), Lsn::new(1, 10), Lsn::MAX).unwrap().len(),
        39,
        "replayable tail = 11..=49"
    );
}
