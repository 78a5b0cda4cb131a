//! The CI hook of the perf ledger: run `perf --smoke` (all four workloads on
//! tiny geometries, each in its own process) and hold the harness to the
//! benchmark's declaration in `BENCHMARK.json`.

use enkf_trace::json::{parse, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

const BENCHMARK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Per workload: `(attempted, failed, metric name → (value, unit))`.
type Results = BTreeMap<String, (f64, f64, BTreeMap<String, (f64, String)>)>;

fn smoke(trace: &str) -> Results {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--smoke", "--trace", trace, "--scratch"])
        .arg(&scratch)
        .output()
        .expect("perf starts");
    assert!(
        output.status.success(),
        "perf --smoke --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let Json::Obj(workloads) = parse(last).expect("result line is JSON") else {
        panic!("result line is not an object: {last}");
    };
    let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).expect("a number");
    workloads
        .into_iter()
        .map(|(workload, doc)| {
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{workload}");
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let metrics = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
                    (name.clone(), (num(m, "value"), unit.to_string()))
                })
                .collect();
            (
                workload,
                (num(&doc, "attempted"), num(&doc, "failed"), metrics),
            )
        })
        .collect()
}

/// `name → unit` of one list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(BENCHMARK).expect("BENCHMARK.json is readable");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Json::as_array)
        .expect("the list exists")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn smoke_run_matches_the_declared_benchmark() {
    let end_to_end = smoke("0");
    let layers = smoke("1");
    let layers_again = smoke("1");

    // (a) Workload and metric names (and units) are exactly the declared ones.
    let workloads: BTreeSet<String> = declared("workloads").into_keys().collect();
    for (results, list) in [(&end_to_end, "end_to_end"), (&layers, "per_layer")] {
        assert_eq!(results.keys().cloned().collect::<BTreeSet<_>>(), workloads);
        let want = declared(list);
        for (workload, (_, _, metrics)) in results {
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, (_, unit))| (name.clone(), unit.clone()))
                .collect();
            assert_eq!(got, want, "{workload}: {list} differs from BENCHMARK.json");
        }
    }

    // (b) Every name is made of letters, digits, `_`, `.` and `-`.
    for name in workloads
        .iter()
        .chain(declared("end_to_end").keys())
        .chain(declared("per_layer").keys())
    {
        assert!(well_formed(name), "malformed name `{name}`");
    }

    // (c) No operation failed.
    for (workload, (attempted, failed, _)) in end_to_end.iter().chain(&layers) {
        assert!(*attempted >= 1.0, "{workload}: nothing attempted");
        assert_eq!(*failed, 0.0, "{workload}: operations failed");
    }

    // (d) Counts and virtual seconds repeat exactly from run to run.
    for (workload, (_, _, metrics)) in &layers {
        for (name, (value, unit)) in metrics {
            if matches!(unit.as_str(), "count" | "bytes" | "virtual_s") {
                let again = layers_again[workload].2[name].0;
                assert_eq!(
                    value.to_bits(),
                    again.to_bits(),
                    "{workload}: {name} read {value} then {again}"
                );
            }
        }
    }
}
