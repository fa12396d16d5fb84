//! The root `spinnaker` facade must keep re-exporting every crate under
//! its documented module names, and the crate-level doc-comment's
//! quick-start must keep working. This is the same code as the doc-test
//! in `src/lib.rs`, pinned here as a plain integration test so the facade
//! can't rot even if doc-tests are skipped.

use spinnaker::core::client::Workload;
use spinnaker::core::cluster::{ClusterConfig, SimCluster};
use spinnaker::sim::SECS;

#[test]
fn doc_quick_start_runs_to_completion() {
    // A deterministic 5-node cluster on simulated hardware.
    let mut cluster = SimCluster::new(ClusterConfig { nodes: 5, ..Default::default() });
    let stats = cluster.add_client(
        Workload::Writes { keys: 1000, value_size: 512 },
        2 * SECS, // start after elections settle
        2 * SECS,
        6 * SECS,
    );
    cluster.run_until(6 * SECS);
    assert!(stats.borrow().completed > 0);
}

#[test]
fn facade_reexports_every_crate() {
    // One symbol per re-exported module; a missing `pub use` in
    // src/lib.rs fails this at compile time.
    let _lsn = spinnaker::common::Lsn::new(1, 1);
    let _coord = spinnaker::coordination::Coord::new();
    let _stats = spinnaker::sim::LatencyStats::default();
    let _memtable = spinnaker::storage::Memtable::new();
    let _wal_opts = spinnaker::wal::WalOptions::default();
    let _cfg = spinnaker::core::cluster::ClusterConfig::default();
    let _policy = spinnaker::eventual::FailoverPolicy::ContinueWithoutPeer;
}
