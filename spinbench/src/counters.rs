//! Source-C layer counters: public counters read off a `SimCluster`,
//! exact for the window between two [`Counters::read`] calls.

use spinnaker_core::cluster::SimCluster;
use spinnaker_storage::StoreStats;

/// A reading of every cumulative counter the cluster exposes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulator events processed.
    pub events: u64,
    /// Messages the network model delivered.
    pub msgs: u64,
    /// Physical log-device syncs, all nodes.
    pub syncs: u64,
    /// Force requests those syncs covered.
    pub sync_reqs: u64,
    /// Store counters summed over every replica of every node.
    pub store: StoreStats,
    /// Snapshot pages served by the range's current leader.
    pub leader_pages: u64,
    /// Snapshot pages served by followers.
    pub follower_pages: u64,
    /// Populated levels of the shallowest leader store — the stores
    /// strong reads are served from (a gauge).
    pub levels: u64,
    /// L0 tables of the store with the most (a gauge).
    pub l0_tables: u64,
    /// WAL segments, all nodes (a gauge).
    pub wal_segments: u64,
    /// Bytes held by every node's file system (a gauge).
    pub vfs_bytes: u64,
}

impl Counters {
    /// Read every counter now.
    pub fn read(cluster: &SimCluster) -> Counters {
        let mut c = Counters {
            events: cluster.sim.events_processed(),
            levels: u64::MAX,
            ..Default::default()
        };
        c.msgs = cluster.world.net.borrow().counters().0;
        (c.syncs, c.sync_reqs) = cluster.disk_counters();
        let ring = cluster.current_ring();
        let nodes = cluster.config().nodes as u32;
        for range in ring.ranges() {
            let leader = cluster.leader_of(range);
            for node in ring.cohort(range) {
                let Some((stats, pages)) = cluster
                    .with_node(node, |n| n.store_stats(range).map(|s| (s, n.snapshot_pages(range))))
                    .flatten()
                else {
                    continue;
                };
                let populated = stats.tables_per_level.iter().filter(|t| **t > 0).count() as u64;
                if Some(node) == leader {
                    c.leader_pages += pages;
                    c.levels = c.levels.min(populated);
                } else {
                    c.follower_pages += pages;
                }
                c.l0_tables =
                    c.l0_tables.max(stats.tables_per_level.first().copied().unwrap_or(0) as u64);
                add(&mut c.store, &stats);
            }
        }
        if c.levels == u64::MAX {
            c.levels = 0; // no range has a leader right now
        }
        for node in 0..nodes {
            c.wal_segments +=
                cluster.with_node(node, |n| n.wal().segment_count() as u64).unwrap_or(0);
            c.vfs_bytes += cluster.node_vfs(node).total_bytes() as u64;
        }
        c
    }

    /// Cumulative counters as `self - before`; gauges keep `self`'s
    /// reading. Saturating: a restarted node's store counters restart
    /// from zero.
    pub fn since(&self, before: &Counters) -> Counters {
        let (a, b) = (&self.store, &before.store);
        Counters {
            events: self.events.saturating_sub(before.events),
            msgs: self.msgs.saturating_sub(before.msgs),
            syncs: self.syncs.saturating_sub(before.syncs),
            sync_reqs: self.sync_reqs.saturating_sub(before.sync_reqs),
            store: StoreStats {
                tables_per_level: Vec::new(),
                point_gets: a.point_gets.saturating_sub(b.point_gets),
                span_skips: a.span_skips.saturating_sub(b.span_skips),
                bloom_negatives: a.bloom_negatives.saturating_sub(b.bloom_negatives),
                bloom_true_positives: a.bloom_true_positives.saturating_sub(b.bloom_true_positives),
                bloom_false_positives: a
                    .bloom_false_positives
                    .saturating_sub(b.bloom_false_positives),
                compactions: a.compactions.saturating_sub(b.compactions),
                bytes_compacted: a.bytes_compacted.saturating_sub(b.bytes_compacted),
                cache_hits: a.cache_hits.saturating_sub(b.cache_hits),
                cache_misses: a.cache_misses.saturating_sub(b.cache_misses),
                block_reads: a.block_reads.saturating_sub(b.block_reads),
            },
            leader_pages: self.leader_pages.saturating_sub(before.leader_pages),
            follower_pages: self.follower_pages.saturating_sub(before.follower_pages),
            ..self.clone()
        }
    }

    /// The cumulative counters as a flat list (determinism fingerprint).
    pub fn fingerprint(&self) -> Vec<u64> {
        let s = &self.store;
        vec![
            self.events,
            self.msgs,
            self.syncs,
            self.sync_reqs,
            s.point_gets,
            s.span_skips,
            s.bloom_negatives,
            s.bloom_true_positives,
            s.bloom_false_positives,
            s.compactions,
            s.bytes_compacted,
            s.cache_hits,
            s.cache_misses,
            s.block_reads,
            self.leader_pages,
            self.follower_pages,
            self.levels,
            self.l0_tables,
            self.wal_segments,
            self.vfs_bytes,
        ]
    }
}

fn add(sum: &mut StoreStats, s: &StoreStats) {
    sum.point_gets += s.point_gets;
    sum.span_skips += s.span_skips;
    sum.bloom_negatives += s.bloom_negatives;
    sum.bloom_true_positives += s.bloom_true_positives;
    sum.bloom_false_positives += s.bloom_false_positives;
    sum.compactions += s.compactions;
    sum.bytes_compacted += s.bytes_compacted;
    sum.cache_hits += s.cache_hits;
    sum.cache_misses += s.cache_misses;
    sum.block_reads += s.block_reads;
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
