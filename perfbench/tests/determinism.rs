//! Determinism tripwire: at smoke size and one seed, two traced runs report
//! identical counted per-layer metrics, and every metric `BENCHMARK.json`
//! names appears, with its unit, in the runs that report it.

use slfe_metrics::json::{self, Json};
use slfe_perfbench::report::Report;
use slfe_perfbench::{run, Options, Scale, Workload};
use std::path::PathBuf;

/// Per-layer metrics that count work, so they must repeat exactly.
const COUNTED: [&str; 15] = [
    "rrg.work",
    "engine.iterations",
    "engine.edge_computations",
    "engine.vertex_updates",
    "engine.useful_ratio",
    "engine.chunks_skipped_ratio",
    "comm.messages",
    "comm.mb",
    "graph.dirty_vertices",
    "layout.vertices_scanned",
    "server.full_recomputes",
    "durability.wal_bytes",
    "durability.snapshot_mb",
    "durability.compactions",
    "storage.segments_rewritten",
];

fn smoke(workload: Workload, trace: bool, tag: &str) -> Report {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 1,
        trace,
        scale: Scale::Smoke,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}-{tag}", workload.name())),
    };
    let report = run(&opts).expect("smoke run");
    assert!(
        report.correct(),
        "{} {tag}: {} of {} ops failed: {:?}",
        workload.name(),
        report.failed,
        report.attempted,
        report.notes
    );
    report
}

/// `(name, unit)` of every metric in the `BENCHMARK.json` list `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON");
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn reported(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn counted_layer_metrics_repeat_and_every_declared_metric_is_reported() {
    for workload in Workload::ALL {
        let first = smoke(workload, true, "a");
        let second = smoke(workload, true, "b");
        for name in COUNTED {
            let value = first.get(name).expect("counted metric reported");
            assert_eq!(
                Some(value),
                second.get(name),
                "{}: {name} differs between two runs of one seed",
                workload.name()
            );
        }
        assert_eq!(
            reported(&first),
            declared("per_layer"),
            "{}",
            workload.name()
        );
        let untraced = smoke(workload, false, "e2e");
        assert_eq!(
            reported(&untraced),
            declared("end_to_end"),
            "{}",
            workload.name()
        );
        assert!(untraced.metrics.iter().all(|m| m.value > 0.0));
    }
}
