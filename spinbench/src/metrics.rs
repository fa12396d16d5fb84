//! The metric and workload catalogue — the one place names, units,
//! directions and bounds are written down. `BENCHMARK.json` repeats it
//! for the driver; the smoke test checks that the two agree.

use std::collections::BTreeMap;

use crate::json::quote;

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: share of the baseline by which the metric may
    /// worsen before `--compare` calls it a regression (0 for layers).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// The workloads, in run order, each with its reason.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("write-sat", "saturating puts on an empty store: consensus, WAL and memtable work; SSTable reads idle"),
    ("read-uniform", "uniform strong gets over a store six times the block cache: bloom, index and block reads"),
    ("mixed-zipf", "Zipf gets, puts, conditional puts and snapshot scans at once: cache hits beside compaction"),
    ("failover", "kill and restart range 0's leader under writers: election, takeover, catch-up, durability"),
];

/// End-to-end metrics: what a user of the datastore sees. Every
/// workload reports every one of them (timed run, tracing off).
pub const END_TO_END: [MetricDef; 8] = [
    e2e("v_ops_per_s", "ops/s", Higher, 0.03),
    e2e("v_lat_p50_ms", "ms", Lower, 0.03),
    e2e("v_lat_p99_ms", "ms", Lower, 0.06),
    e2e("v_stall_ms", "ms", Lower, 0.10),
    e2e("wall_ops_per_s", "ops/s", Higher, 0.25),
    e2e("allocs_per_op", "count", Lower, 0.10),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics (layer = crate.module), reported by the traced run.
pub const PER_LAYER: [MetricDef; 62] = [
    layer("sim.kernel.events_per_op", "count", Lower),
    layer("sim.kernel.ns_per_event", "ns", Lower),
    layer("sim.net.msgs_per_op", "count", Lower),
    layer("sim.disk.syncs_per_op", "count", Lower),
    layer("sim.disk.reqs_per_sync", "count", Higher),
    layer("core.client.put_ops_per_s", "ops/s", Higher),
    layer("core.client.get_ops_per_s", "ops/s", Higher),
    layer("core.client.cond_ops_per_s", "ops/s", Higher),
    layer("core.client.scan_ops_per_s", "ops/s", Higher),
    layer("core.client.retries_per_kop", "count", Lower),
    layer("core.client.ring_refreshes", "count", Lower),
    layer("core.client.cond_mismatch_share", "ratio", Lower),
    layer("core.node.follower_page_share", "ratio", Higher),
    layer("core.node.put_ns_b1", "ns", Lower),
    layer("core.node.put_ns_b8", "ns", Lower),
    layer("core.node.propose_ns", "ns", Lower),
    layer("core.node.ack_commit_ns", "ns", Lower),
    layer("core.node.get_ns", "ns", Lower),
    layer("core.node.scan_page_ns", "ns", Lower),
    layer("core.node.allocs_per_put", "count", Lower),
    layer("core.session.route_ns_per_op", "ns", Lower),
    layer("core.recovery.takeover_ms", "ms", Lower),
    layer("core.recovery.catchup_ms", "ms", Lower),
    layer("core.recovery.leader_changes", "count", Lower),
    layer("wal.append_ns_per_op", "ns", Lower),
    layer("wal.sync_ns_per_batch", "ns", Lower),
    layer("wal.bytes_per_op", "B", Lower),
    layer("wal.replay_ms_per_100k", "ms", Lower),
    layer("wal.segments_end", "count", Lower),
    layer("storage.memtable.apply_ns_per_op", "ns", Lower),
    layer("storage.store.flush_ms_per_mb", "ms", Lower),
    layer("storage.store.compact_ms_per_mb", "ms", Lower),
    layer("storage.store.get_hit_ns", "ns", Lower),
    layer("storage.store.get_cold_ns", "ns", Lower),
    layer("storage.store.get_absent_ns", "ns", Lower),
    layer("storage.store.scan_row_ns", "ns", Lower),
    layer("storage.store.point_gets", "count", Lower),
    layer("storage.store.compactions", "count", Lower),
    layer("storage.store.compacted_bytes_per_user_byte", "ratio", Lower),
    layer("storage.store.space_amp", "ratio", Lower),
    layer("storage.store.levels", "count", Lower),
    layer("storage.store.l0_tables_max", "count", Lower),
    layer("storage.store.span_skips_per_get", "count", Higher),
    layer("storage.bloom.negatives_per_get", "count", Higher),
    layer("storage.bloom.fp_share", "ratio", Lower),
    layer("storage.cache.hit_share", "ratio", Higher),
    layer("storage.sstable.block_reads_per_get", "count", Lower),
    layer("common.codec.encode_ns_per_op", "ns", Lower),
    layer("common.codec.decode_ns_per_op", "ns", Lower),
    layer("common.codec.allocs_per_decode", "count", Lower),
    layer("common.crc32c.gb_per_s", "GB/s", Higher),
    layer("common.vfs.wal_syncs_per_op", "count", Lower),
    layer("common.vfs.sst_read_bytes_per_get", "B", Lower),
    layer("common.vfs.sst_write_bytes_per_user_byte", "ratio", Lower),
    layer("process.alloc_bytes_per_op", "B", Lower),
    layer("process.wall_spread_pct", "%", Lower),
    layer("process.cpu_share", "ratio", Higher),
    layer("process.trace_overhead_pct", "%", Lower),
    layer("process.trace_self_sum_share", "ratio", Higher),
    layer("process.window_ops", "count", Higher),
    layer("process.window_samples", "count", Higher),
    layer("process.direct_host_ops", "count", Higher),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one benchmark run reports.
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Client operations attempted.
    pub attempted: u64,
    /// Client operations that failed, never completed, or failed the
    /// read-back.
    pub failed: u64,
    /// Measured values, keyed by catalogue name.
    pub values: Values,
    /// Why `correct` is false (empty otherwise).
    pub problems: Vec<String>,
}

impl RunResult {
    /// The result of a run that could not measure anything.
    pub fn aborted(problems: Vec<String>) -> RunResult {
        RunResult { correct: false, attempted: 1, failed: 1, values: Values::new(), problems }
    }

    /// The contract's result object: exactly the catalogue's metrics,
    /// each with value and unit. A metric the run did not produce is a
    /// harness bug and is reported as an error.
    pub fn to_json(&self, catalogue: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for def in catalogue {
            let v =
                *self.values.get(def.name).ok_or(format!("metric {} not measured", def.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is {v}", def.name));
            }
            metrics.push(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                quote(def.name),
                quote(def.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }

    /// A human-readable table of the catalogue's metrics.
    pub fn table(&self, catalogue: &[MetricDef]) -> String {
        let mut out = String::new();
        for def in catalogue {
            let v = self.values.get(def.name).copied().unwrap_or(f64::NAN);
            let dir = if def.better == Higher { "higher" } else { "lower" };
            out.push_str(&format!(
                "  {:<46} {:>16.4} {:<6} ({dir} is better)\n",
                def.name, v, def.unit
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!((0.0..=0.25).contains(&m.bound));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }
}
