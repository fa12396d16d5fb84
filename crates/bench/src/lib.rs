//! Experiment harness reproducing the paper's evaluation (§9, Appendix D).
//!
//! One binary per table/figure (`fig8`, `fig9`, `tab1`, `fig11`–`fig16`,
//! `fig1`, plus `all`). `fig17` extends beyond the paper: elastic
//! scale-out via dynamic range splitting — hot-range throughput before,
//! during, and after a live split. Each prints the paper's series as
//! aligned text and writes `target/experiments/<id>.csv`. Set
//! `SPINNAKER_QUICK=1` for a faster, lower-resolution pass (used by CI's
//! experiment-harness smoke).
//!
//! Absolute milliseconds depend on the calibrated hardware model
//! (`spinnaker-sim`); the *shapes* — who wins, by what factor, where the
//! knees fall — are the reproduction targets.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io::Write as _;

use spinnaker_core::client::Workload;
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_eventual::cluster::{EClusterConfig, EWorkload, EventualCluster};
use spinnaker_sim::{LoadPoint, Series, Time, SECS};

/// True when `SPINNAKER_QUICK` asks for the fast pass.
pub fn quick() -> bool {
    std::env::var("SPINNAKER_QUICK").map(|v| v != "0").unwrap_or(false)
}

/// Client-thread sweep for read-heavy figures.
pub fn read_counts() -> Vec<usize> {
    if quick() {
        vec![4, 32, 128]
    } else {
        vec![1, 4, 16, 48, 96, 160, 256, 384]
    }
}

/// Client-thread sweep for write figures.
pub fn write_counts() -> Vec<usize> {
    if quick() {
        vec![2, 16, 64]
    } else {
        vec![1, 4, 8, 16, 32, 64, 128, 192]
    }
}

/// Warmup duration before the measurement window opens.
pub fn warmup() -> Time {
    if quick() {
        3 * SECS
    } else {
        4 * SECS
    }
}

/// Length of the measurement window.
pub fn measure() -> Time {
    if quick() {
        3 * SECS
    } else {
        8 * SECS
    }
}

/// Run one Spinnaker load sweep: for each client count, build a fresh
/// cluster, attach that many closed-loop clients, and record the
/// (throughput, latency) point.
pub fn spinnaker_sweep(
    name: &str,
    base: &ClusterConfig,
    workload: impl Fn() -> Workload,
    counts: &[usize],
) -> Series {
    let mut series = Series::new(name);
    let warm = warmup();
    let end = warm + measure();
    for (i, &clients) in counts.iter().enumerate() {
        let mut cfg = base.clone();
        cfg.seed = base.seed + i as u64;
        let mut cluster = SimCluster::new(cfg);
        let stats: Vec<_> =
            (0..clients).map(|_| cluster.add_client(workload(), 2 * SECS, warm, end)).collect();
        cluster.run_until(end);
        let mut latency = spinnaker_sim::LatencyStats::new();
        let mut completed = 0u64;
        for s in &stats {
            let s = s.borrow();
            latency.merge(&s.latency);
            completed += s.completed;
        }
        let secs = (end - warm) as f64 / 1e9;
        series.points.push(LoadPoint { clients, throughput: completed as f64 / secs, latency });
        eprintln!(
            "  [{name}] {clients} clients -> {:.0} req/s @ {:.2} ms",
            completed as f64 / secs,
            series.points.last().unwrap().latency.mean_ms()
        );
    }
    series
}

/// Run one eventually-consistent (Cassandra-style) load sweep.
pub fn eventual_sweep(
    name: &str,
    base: &EClusterConfig,
    workload: impl Fn() -> EWorkload,
    counts: &[usize],
) -> Series {
    let mut series = Series::new(name);
    let warm = warmup();
    let end = warm + measure();
    for (i, &clients) in counts.iter().enumerate() {
        let mut cfg = base.clone();
        cfg.seed = base.seed + i as u64;
        let mut cluster = EventualCluster::new(cfg);
        let stats: Vec<_> =
            (0..clients).map(|_| cluster.add_client(workload(), SECS, warm, end)).collect();
        cluster.run_until(end);
        let mut latency = spinnaker_sim::LatencyStats::new();
        let mut completed = 0u64;
        for s in &stats {
            let s = s.borrow();
            latency.merge(&s.latency);
            completed += s.completed;
        }
        let secs = (end - warm) as f64 / 1e9;
        series.points.push(LoadPoint { clients, throughput: completed as f64 / secs, latency });
        eprintln!(
            "  [{name}] {clients} clients -> {:.0} req/s @ {:.2} ms",
            completed as f64 / secs,
            series.points.last().unwrap().latency.mean_ms()
        );
    }
    series
}

/// Print a figure (all series) to stdout.
pub fn print_figure(title: &str, series: &[Series]) {
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
    for s in series {
        println!("{}", s.render());
    }
}

/// Write `target/experiments/<id>.csv` with all series.
pub fn write_csv(id: &str, series: &[Series]) {
    let dir = "target/experiments";
    let _ = fs::create_dir_all(dir);
    let path = format!("{dir}/{id}.csv");
    let mut f = match fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return;
        }
    };
    let _ = writeln!(f, "series,clients,throughput_req_s,mean_ms,p99_ms");
    for s in series {
        for p in &s.points {
            let _ = writeln!(
                f,
                "{},{},{:.1},{:.3},{:.3}",
                s.name,
                p.clients,
                p.throughput,
                p.latency.mean_ms(),
                p.latency.percentile(99.0) as f64 / 1e6
            );
        }
    }
    println!("(csv written to {path})");
}

/// Standard 10-node Spinnaker config used by the latency figures.
pub fn spin_base() -> ClusterConfig {
    ClusterConfig::default()
}

/// Standard 10-node Cassandra-style config.
pub fn ev_base() -> EClusterConfig {
    EClusterConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_produce_monotone_throughput_over_low_counts() {
        std::env::set_var("SPINNAKER_QUICK", "1");
        let series = spinnaker_sweep(
            "smoke",
            &spin_base(),
            || Workload::Reads { keys: 10_000, consistency: spinnaker_common::Consistency::Strong },
            &[1, 8],
        );
        assert_eq!(series.points.len(), 2);
        assert!(series.points[1].throughput > series.points[0].throughput * 2.0);
    }

    #[test]
    fn csv_written() {
        let mut s = Series::new("x");
        s.points.push(LoadPoint {
            clients: 1,
            throughput: 10.0,
            latency: spinnaker_sim::LatencyStats::new(),
        });
        write_csv("unit-test", &[s]);
        let content = std::fs::read_to_string("target/experiments/unit-test.csv").unwrap();
        assert!(content.contains("series,clients"));
        assert!(content.contains("x,1,10.0"));
    }
}
