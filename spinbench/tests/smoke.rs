//! Smoke test of the benchmark itself: every workload at `--smoke`
//! scale, timed and traced, twice with one seed.
//!
//! * the program exits 0, reports `correct`, and no operation failed;
//! * the metric names and units printed are exactly the catalogue's;
//! * virtual-clock and count metrics repeat exactly for a seed;
//! * `BENCHMARK.json` at the repository root agrees with the catalogue.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use spinbench::json::Json;
use spinbench::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

/// Timed-run metrics that are pure functions of the seed.
const EXACT_TIMED: [&str; 5] =
    ["v_ops_per_s", "v_lat_p50_ms", "v_lat_p99_ms", "v_stall_ms", "allocs_per_op"];

/// Traced-run metrics that are wall-clock (source P) or process-level;
/// every other per-layer metric is a count and must repeat exactly.
fn is_wall(name: &str) -> bool {
    name.ends_with("_ns")
        || name.contains("_ns_")
        || name.contains("_ms_per_")
        || name.ends_with("gb_per_s")
        || name == "sim.kernel.ns_per_event"
        || name.starts_with("process.")
}

fn run(workload: &str, trace: bool) -> BTreeMap<String, (f64, String)> {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("spinbench-smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_spinbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0.01", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spinbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload} trace={trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let doc = Json::parse(last).expect("the last line is JSON");
    let keys: Vec<&String> = doc.as_obj().expect("an object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{workload}");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0), "{workload}");
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    if trace {
        let trace_file = out.join(format!("trace-{workload}.json"));
        let text = std::fs::read_to_string(&trace_file).expect("the trace file exists");
        let events = Json::parse(&text).expect("the trace file is JSON");
        let events = events.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        assert!(events.len() > 100, "{workload}: {} spans", events.len());
        assert!(events.iter().all(|e| e.get("args").and_then(|a| a.get("op")).is_some()));
    }
    doc.get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("a value");
            let unit = m.get("unit").and_then(Json::as_str).expect("a unit").to_string();
            (name.clone(), (value, unit))
        })
        .collect()
}

fn assert_catalogue(got: &BTreeMap<String, (f64, String)>, catalogue: &[MetricDef], what: &str) {
    let mut want: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
    want.sort_unstable();
    let names: Vec<&str> = got.keys().map(String::as_str).collect();
    assert_eq!(names, want, "{what}: metric names");
    for def in catalogue {
        assert_eq!(got[def.name].1, def.unit, "{what}: unit of {}", def.name);
        assert!(got[def.name].0.is_finite(), "{what}: {} is not finite", def.name);
    }
}

#[test]
fn every_workload_runs_and_repeats_at_smoke_scale() {
    for (workload, _) in WORKLOADS {
        let (a, b) = (run(workload, false), run(workload, false));
        assert_catalogue(&a, &END_TO_END, workload);
        for def in &END_TO_END {
            assert!(a[def.name].0 > 0.0, "{workload}: {} must never be 0", def.name);
        }
        for name in EXACT_TIMED {
            assert_eq!(a[name].0, b[name].0, "{workload}: {name} must repeat exactly");
        }
        let (a, b) = (run(workload, true), run(workload, true));
        assert_catalogue(&a, &PER_LAYER, workload);
        for def in PER_LAYER.iter().filter(|d| !is_wall(d.name)) {
            assert_eq!(a[def.name].0, b[def.name].0, "{workload}: {} must repeat", def.name);
        }
    }
}

#[test]
fn benchmark_json_agrees_with_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json parses");
    let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);

    let str_of = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| (str_of(w, "name"), str_of(w, "why")))
        .collect();
    let want: Vec<(String, String)> =
        WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
    assert_eq!(workloads, want);
    assert!(workloads.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let check = |key: &str, catalogue: &[MetricDef], bounded: bool| {
        let listed = doc.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), catalogue.len(), "{key}");
        for (m, def) in listed.iter().zip(catalogue) {
            assert_eq!(str_of(m, "name"), def.name, "{key}");
            assert_eq!(str_of(m, "unit"), def.unit, "{key}: {}", def.name);
            let better = if def.better == Better::Higher { "higher" } else { "lower" };
            assert_eq!(str_of(m, "better"), better, "{key}: {}", def.name);
            let bound = m.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, bounded.then_some(def.bound), "{key}: bound of {}", def.name);
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);

    let paths: Vec<&str> =
        doc.get("paths").and_then(Json::as_arr).unwrap().iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["spinbench"]);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
