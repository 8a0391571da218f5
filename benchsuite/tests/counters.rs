//! The benchmark binary end to end: exact work counters repeat at a seed,
//! the printed metrics are exactly those `BENCHMARK.json` declares, and a
//! bad command line fails without printing a result.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// Per-layer metrics that count work and must repeat exactly at a seed.
/// (The pool's scheduler counters depend on stealing and are excluded.)
const EXACT: &[&str] = &[
    "hdbscan.wspd.rounds",
    "hdbscan.wspd.pairs_materialized",
    "hdbscan.wspd.peak_live_pairs",
    "hdbscan.bccp.calls",
    "hdbscan.mst.kept_ratio",
    "emst.wspd.rounds",
    "emst.wspd.pairs_materialized",
    "emst.wspd.peak_live_pairs",
    "emst.bccp.calls",
    "emst.mst.kept_ratio",
    "engine.labelings_computed",
    "engine.label_hit_ratio",
    "dyn.merge_batches",
    "dyn.rebuild_batches",
    "dyn.recomputed_pts",
];

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_benchsuite"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

/// Run one short workload and return its metrics by name, after checking
/// the result line's shape and that the run was correct.
fn metrics(seed: &str, trace: &str) -> BTreeMap<String, f64> {
    let out = run(&[
        "--workload",
        "batch",
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let v: Value = serde_json::from_str(last).expect("the result line is JSON");
    let keys: Vec<&str> = v
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        v.get("correct").and_then(Value::as_bool),
        Some(true),
        "{last}"
    );
    assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
    assert!(v.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    v.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(k, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            (k.clone(), value)
        })
        .collect()
}

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    v.get(section)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn counters_repeat_and_names_match_the_declaration() {
    let a = metrics("3", "1");
    let b = metrics("3", "1");
    for name in EXACT {
        assert_eq!(a.get(*name), b.get(*name), "{name} differs between runs");
        assert!(a.contains_key(*name), "{name} missing");
    }
    let mut names: Vec<String> = a.into_keys().collect();
    let mut want = declared("per_layer");
    names.sort();
    want.sort();
    assert_eq!(names, want);

    let mut names: Vec<String> = metrics("3", "0").into_keys().collect();
    let mut want = declared("end_to_end");
    names.sort();
    want.sort();
    assert_eq!(names, want);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "batch", "--trace", "2"],
        &["--seed", "1"],
        &["--workload"],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
