//! Experiment harness reproducing the paper's evaluation (§9, Appendix D).
//!
//! One binary, `figs`, runs every figure and table of [`FIGURES`] in
//! order, or only the ids given as `--only fig8,tab1,...`. The paper's
//! own are in [`paper`]: `fig1`, `fig8`, `fig9`, `fig11`–`fig16` and
//! `tab1`. The [`extensions`] go beyond it: `fig17` elastic scale-out by a
//! live range split, `fig18` cohort movement and range merge, `fig19`
//! scans and pipelined clients, `fig20` snapshot scans under writers and
//! `fig21` group proposes with closed timestamps. Each prints its series
//! as aligned text and writes `target/experiments/<id>.csv` (`fig1` only
//! prints). `SPINNAKER_QUICK=1` asks for a faster, lower-resolution pass
//! (CI's experiment-harness smoke); `figs` reads it once and passes it
//! to every figure as `quick`.
//!
//! Absolute milliseconds depend on the calibrated hardware model
//! (`spinnaker-sim`); the *shapes* — who wins, by what factor, where the
//! knees fall — are the reproduction targets.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod extensions;
pub mod paper;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use spinnaker_core::client::{SharedStats, Workload};
use spinnaker_core::cluster::{ClusterConfig, SimCluster};
use spinnaker_eventual::cluster::{EClusterConfig, EWorkload, EventualCluster};
use spinnaker_sim::{LatencyStats, Time, SECS};

/// A measurement window `(from, to)` of virtual time.
pub(crate) type Window = (Time, Time);

/// One figure or table: runs its experiments, prints them and writes its
/// CSV. The argument is `quick`.
pub type Figure = fn(bool) -> io::Result<()>;

/// Every figure and table, by id, in the order `figs` runs them.
pub const FIGURES: &[(&str, Figure)] = &[
    ("fig1", paper::fig1),
    ("fig8", paper::fig8),
    ("fig9", paper::fig9),
    ("fig11", paper::fig11),
    ("fig12", paper::fig12),
    ("fig13", paper::fig13),
    ("fig14", paper::fig14),
    ("fig15", paper::fig15),
    ("fig16", paper::fig16),
    ("fig17", extensions::fig17),
    ("fig18", extensions::fig18),
    ("fig19", extensions::fig19),
    ("fig20", extensions::fig20),
    ("fig21", extensions::fig21),
    ("tab1", paper::tab1),
];

/// The figures `figs` runs for its arguments: all of them for none, the
/// listed ones for `--only <id>[,<id>...]`. An unknown id or argument is
/// an error that lists the valid ids.
pub fn select(args: &[String]) -> Result<Vec<(&'static str, Figure)>, String> {
    let ids = match args {
        [] => return Ok(FIGURES.to_vec()),
        [flag, ids] if flag == "--only" => ids,
        _ => return Err("usage: figs [--only <id>[,<id>...]]".to_string()),
    };
    ids.split(',')
        .map(|id| {
            FIGURES.iter().find(|(known, _)| *known == id).copied().ok_or_else(|| {
                let valid: Vec<_> = FIGURES.iter().map(|(id, _)| *id).collect();
                format!("unknown figure id `{id}`; valid ids: {}", valid.join(", "))
            })
        })
        .collect()
}

/// Where the figures write their CSVs, relative to the working directory.
const EXPERIMENTS: &str = "target/experiments";

/// Write `<dir>/<id>.csv`: the header line, then one line per row. An
/// error names the path it failed on.
fn write_csv(dir: &Path, id: &str, header: &str, rows: &[String]) -> io::Result<PathBuf> {
    let path = dir.join(format!("{id}.csv"));
    let mut text = format!("{header}\n");
    for row in rows {
        text.push_str(row);
        text.push('\n');
    }
    fs::create_dir_all(dir)
        .and_then(|()| fs::write(&path, text))
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok(path)
}

/// [`write_csv`] into [`EXPERIMENTS`], saying where once it is written.
pub(crate) fn save(id: &str, header: &str, rows: &[String]) -> io::Result<()> {
    let path = write_csv(Path::new(EXPERIMENTS), id, header, rows)?;
    println!("(csv written to {})", path.display());
    Ok(())
}

/// Print a figure's title between rules.
pub(crate) fn banner(title: &str) {
    let rule = "=".repeat(62);
    println!("{rule}\n{title}\n{rule}");
}

/// Print a figure's series and save them as `<id>.csv`.
pub(crate) fn figure(id: &str, title: &str, series: &[Series]) -> io::Result<()> {
    banner(title);
    let mut rows = Vec::new();
    for s in series {
        println!("{}", s.render());
        for p in &s.points {
            rows.push(format!(
                "{},{},{:.1},{:.3},{:.3}",
                s.name,
                p.x,
                p.throughput,
                p.latency.mean_ms(),
                p.latency.percentile(99.0) as f64 / 1e6
            ));
        }
    }
    save(id, "series,clients,throughput_req_s,mean_ms,p99_ms", &rows)
}

/// One measured point of a load sweep.
#[derive(Debug)]
pub(crate) struct LoadPoint {
    /// Where the point plots: clients, nodes or write percentage, by the
    /// sweep's [`Axis`].
    pub(crate) x: usize,
    /// Achieved operations per second.
    pub(crate) throughput: f64,
    /// Latency distribution over the measurement window.
    pub(crate) latency: LatencyStats,
}

/// A named series of load points (one curve in a figure).
#[derive(Debug)]
pub(crate) struct Series {
    /// Curve label as it appears in the paper's legend.
    pub(crate) name: String,
    /// Measured points, in sweep order.
    pub(crate) points: Vec<LoadPoint>,
}

impl Series {
    /// Render as aligned text rows: `load latency_ms p99_ms`.
    pub(crate) fn render(&self) -> String {
        let mut out = format!(
            "# {}\n{:>10} {:>12} {:>10} {:>10}\n",
            self.name, "clients", "load(req/s)", "mean(ms)", "p99(ms)"
        );
        for p in &self.points {
            out += &format!(
                "{:>10} {:>12.0} {:>10.2} {:>10.2}\n",
                p.x,
                p.throughput,
                p.latency.mean_ms(),
                p.latency.percentile(99.0) as f64 / 1e6
            );
        }
        out
    }
}

/// The system a sweep drives and the workload its closed-loop clients run.
#[derive(Clone)]
pub(crate) enum Load {
    /// Spinnaker; its clients start at 2 s.
    Spinnaker(ClusterConfig, Workload),
    /// The eventually consistent (Cassandra-style) baseline; its clients
    /// start at 1 s.
    Eventual(EClusterConfig, EWorkload),
}

impl Load {
    fn seed_and_nodes(&mut self) -> (&mut u64, &mut usize) {
        match self {
            Load::Spinnaker(ClusterConfig { seed, nodes, .. }, _)
            | Load::Eventual(EClusterConfig { seed, nodes, .. }, _) => (seed, nodes),
        }
    }

    fn write_pct(&mut self) -> &mut u8 {
        match self {
            Load::Spinnaker(_, Workload::Mixed { write_pct, .. })
            | Load::Eventual(_, EWorkload::Mixed { write_pct, .. }) => write_pct,
            _ => panic!("a write-percentage sweep needs a mixed workload"),
        }
    }

    /// Build the cluster, attach `clients` clients measured over
    /// `window`, and run it to the window's end.
    fn run(self, clients: usize, window: Window) -> Vec<SharedStats> {
        match self {
            Load::Spinnaker(cfg, workload) => {
                let mut cluster = SimCluster::new(cfg);
                let stats = fleet(&mut cluster, clients, &workload, 1, 2 * SECS, window);
                cluster.run_until(window.1);
                stats
            }
            Load::Eventual(cfg, workload) => {
                let mut cluster = EventualCluster::new(cfg);
                let stats = (0..clients)
                    .map(|_| cluster.add_client(workload.clone(), SECS, window.0, window.1))
                    .collect();
                cluster.run_until(window.1);
                stats
            }
        }
    }
}

/// What a sweep varies from one point to the next.
pub(crate) enum Axis {
    /// Closed-loop clients; point `i` runs on the load's seed plus `i`.
    Clients(Vec<usize>),
    /// Cluster size at a fixed two clients per node, on the load's seed.
    Nodes(Vec<usize>),
    /// The write percentage of the load's `Mixed` workload, at two
    /// clients, on the load's seed.
    WritePct(Vec<usize>),
}

/// Run one load sweep: a fresh cluster per point of `axis`, and the
/// (throughput, latency) its clients measured.
pub(crate) fn sweep(name: &str, load: &Load, axis: &Axis, quick: bool) -> Series {
    // The window opens after a warmup.
    let window = if quick { (3 * SECS, 6 * SECS) } else { (4 * SECS, 12 * SECS) };
    let (Axis::Clients(xs) | Axis::Nodes(xs) | Axis::WritePct(xs)) = axis;
    let mut series = Series { name: name.to_string(), points: Vec::new() };
    for (i, &x) in xs.iter().enumerate() {
        let mut load = load.clone();
        let clients = match axis {
            Axis::Clients(_) => {
                *load.seed_and_nodes().0 += i as u64;
                x
            }
            Axis::Nodes(_) => {
                *load.seed_and_nodes().1 = x;
                2 * x
            }
            Axis::WritePct(_) => {
                *load.write_pct() = u8::try_from(x).expect("a percentage");
                2
            }
        };
        let stats = load.run(clients, window);
        let point =
            LoadPoint { x, throughput: rate(&stats, window), latency: merged_latency(&stats) };
        eprintln!(
            "  [{name}] x={x}, {clients} clients -> {:.0} req/s @ {:.2} ms",
            point.throughput,
            point.latency.mean_ms()
        );
        series.points.push(point);
    }
    series
}

/// Attach `n` Spinnaker clients running `workload`, each keeping
/// `pipeline` ops in flight, starting at `start` and measured over
/// `window`.
pub(crate) fn fleet(
    cluster: &mut SimCluster,
    n: usize,
    workload: &Workload,
    pipeline: usize,
    start: Time,
    window: Window,
) -> Vec<SharedStats> {
    (0..n)
        .map(|_| {
            cluster.add_client_pipelined(workload.clone(), pipeline, start, window.0, window.1)
        })
        .collect()
}

fn secs((from, to): Window) -> f64 {
    (to - from) as f64 / 1e9
}

/// Completions per second inside the clients' measurement `window`.
pub(crate) fn rate(stats: &[SharedStats], window: Window) -> f64 {
    stats.iter().map(|s| s.borrow().completed).sum::<u64>() as f64 / secs(window)
}

/// Completions per second whose traced completion time falls in
/// `[from, to)`; every client must have its `trace` on.
pub(crate) fn throughput(stats: &[SharedStats], (from, to): Window) -> f64 {
    let in_window = |s: &SharedStats| {
        let s = s.borrow();
        let trace = s.trace.as_ref().expect("a traced client");
        trace.iter().filter(|(t, _)| (from..to).contains(t)).count()
    };
    stats.iter().map(in_window).sum::<usize>() as f64 / secs((from, to))
}

/// The latencies of all the clients, merged.
pub(crate) fn merged_latency(stats: &[SharedStats]) -> LatencyStats {
    let mut latency = LatencyStats::new();
    for s in stats {
        latency.merge(&s.borrow().latency);
    }
    latency
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_produce_monotone_throughput_over_low_counts() {
        let reads =
            Workload::Reads { keys: 10_000, consistency: spinnaker_common::Consistency::Strong };
        let load = Load::Spinnaker(ClusterConfig::default(), reads);
        let series = sweep("smoke", &load, &Axis::Clients(vec![1, 8]), true);
        assert_eq!(series.points.len(), 2);
        assert!(series.points[1].throughput > series.points[0].throughput * 2.0);
    }

    #[test]
    fn csv_written() {
        let id = format!("spinnaker-bench-csv-{}", std::process::id());
        let rows = ["x,1,10.0".to_string()];
        let path = write_csv(&std::env::temp_dir(), &id, "series,clients", &rows).unwrap();
        let content = fs::read_to_string(&path).unwrap();
        fs::remove_file(&path).unwrap();
        assert_eq!(content, "series,clients\nx,1,10.0\n");
    }

    #[test]
    fn a_csv_that_cannot_be_written_is_an_error_naming_its_path() {
        // The target directory's parent is a regular file, so neither
        // the directory nor the CSV can be created.
        let file =
            std::env::temp_dir().join(format!("spinnaker-bench-file-{}", std::process::id()));
        fs::write(&file, "not a directory").unwrap();
        let dir = file.join("experiments");
        let result = write_csv(&dir, "fig8", "series", &[]);
        fs::remove_file(&file).unwrap();
        let err = result.expect_err("no directory can be made under a file");
        assert!(err.to_string().contains(&dir.join("fig8.csv").display().to_string()), "{err}");
    }

    #[test]
    fn figure_ids_are_unique_and_only_takes_known_ones() {
        let mut ids: Vec<_> = FIGURES.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len(), "duplicate figure id");
        assert_eq!(select(&[]).unwrap().len(), FIGURES.len());
        let only = |ids: &str| select(&["--only".to_string(), ids.to_string()]);
        let picked: Vec<_> = only("tab1,fig8").unwrap().into_iter().map(|(id, _)| id).collect();
        assert_eq!(picked, ["tab1", "fig8"]);
        let err = only("fig8,fig10").map(|_| ()).unwrap_err();
        assert!(err.contains("`fig10`") && err.contains("fig1, fig8, fig9, fig11"), "{err}");
        assert!(select(&["fig8".to_string()]).is_err());
    }

    #[test]
    fn series_render_contains_rows() {
        let mut latency = LatencyStats::new();
        latency.record(7 * spinnaker_sim::MILLIS);
        let point = LoadPoint { x: 4, throughput: 1234.5, latency };
        let s = Series { name: "Spinnaker Writes".to_string(), points: vec![point] };
        let text = s.render();
        assert!(text.contains("Spinnaker Writes"));
        assert!(text.contains("1235") || text.contains("1234"));
        assert!(text.contains("7.0"));
    }
}
