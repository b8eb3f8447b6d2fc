//! Tests that need more than one module: the contract with `BENCHMARK.json`,
//! every workload against its reference through the real pipeline, and
//! failure accounting through the real CLI.

use super::*;
use std::collections::BTreeSet;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

/// The `"name"` values inside the array that follows `"<key>":` in
/// `BENCHMARK.json` (which has no nested arrays).
fn names_under(json: &str, key: &str) -> Vec<String> {
    let at = json.find(&format!("\"{key}\"")).expect("key present");
    let open = at + json[at..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("string value").to_string())
        .collect()
}

fn benchmark_json() -> String {
    std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json at the root")
}

#[test]
fn benchmark_json_names_the_workloads_and_end_to_end_metrics() {
    let json = benchmark_json();
    let code: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names_under(&json, "workloads"), code);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(names_under(&json, "end_to_end"), e2e);
    for (name, unit, bound) in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": {bound}}}"
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

#[test]
fn quick_traced_run_reports_every_per_layer_metric() {
    let root = repo_root();
    let terra = e2e::build_cli(&root).expect("the CLI builds");
    let expected: BTreeSet<String> = names_under(&benchmark_json(), "per_layer")
        .into_iter()
        .collect();
    for w in &WORKLOADS {
        let gen = w.generate(3, Scale::Quick);
        let config = w.config(host::cores());
        let (mut log, mut metrics) = layers::trace_workload(w.name, &gen, config, "test.t", 1.0)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        if w.name == "gemm-naive" {
            metrics.extend(
                probes::run_all(&mut log, 3, host::cores(), &terra, Scale::Quick)
                    .expect("probes run"),
            );
            let got: BTreeSet<String> = metrics.keys().map(|k| k.to_string()).collect();
            assert_eq!(got, expected);
            // The stage spans the program records hang beneath the calls
            // that produced them.
            let compile = log
                .spans()
                .iter()
                .find(|s| s.name == "core.compile")
                .unwrap();
            assert!(log
                .spans()
                .iter()
                .any(|s| s.parent == Some(compile.id) && s.name == "stage.typecheck"));
        }
        for (name, (value, _)) in &metrics {
            assert!(value.is_finite(), "{}: {name} = {value}", w.name);
        }
    }
}

#[test]
fn wrong_reference_and_trapping_script_count_as_failures() {
    let root = repo_root();
    let terra = e2e::build_cli(&root).expect("the CLI builds");
    let dir = root.join(OUT_DIR).join("test-failures");
    let plain = workloads::find("gemm-naive").unwrap().config(1);
    let good = workloads::find("gemm-naive")
        .unwrap()
        .generate(5, Scale::Quick);

    let ok = e2e::prepare(&dir, "good", &good, plain).unwrap();
    assert_eq!(e2e::run_child(&terra, &ok).failure, None);

    let mut wrong = good.clone();
    wrong.reference.push_str("extra\n");
    let wrong = e2e::prepare(&dir, "wrong", &wrong, plain).unwrap();
    let why = e2e::run_child(&terra, &wrong)
        .failure
        .expect("stdout differs");
    assert!(why.contains("differs from the reference"), "{why}");

    let mut trap = good.clone();
    trap.defs = "terra main() var p : &int = nil; @p = 1 end\n".to_string();
    let trap = e2e::prepare(&dir, "trap", &trap, plain).unwrap();
    let why = e2e::run_child(&terra, &trap)
        .failure
        .expect("the script traps");
    assert!(why.starts_with("exit code 1"), "{why}");

    let m = Measurement::collect(&terra, &wrong, Duration::ZERO, 2, &mut |_| ());
    assert_eq!((m.attempted(), m.failures().count()), (2, 2));
    // Failed runs still yield numbers, so the result line can be printed.
    assert_eq!(m.wall().len(), 2);
}

#[test]
fn result_line_is_the_contract_s_json() {
    let mut metrics = Metrics::new();
    metrics.insert("wall_s", (0.25, "s"));
    assert_eq!(
        report("w", &metrics, true, 4, 0),
        "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
         \"metrics\": {\"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
    );
    metrics.insert("cpu_s", (f64::NAN, "s"));
    assert!(report("w", &metrics, true, 4, 0).starts_with("{\"correct\": false"));
}

#[test]
fn span_self_time_subtracts_child_coverage_once() {
    let mut log = SpanLog::new("w");
    log.time("root", |_| ());
    // Two overlapping children inside a 100 ns parent cover 10..60.
    let root = log.attach(0, "parent", 0, 100);
    log.attach(root, "a", 10, 40);
    log.attach(root, "b", 30, 60);
    // A child that sticks out of its parent only counts where it overlaps.
    log.attach(root, "c", 90, 150);
    let self_ns = log.self_times();
    assert_eq!(self_ns[root], 100 - 50 - 10);
    assert_eq!(self_ns[root + 1], 30);
    let json = spans::to_json(&[log]);
    assert!(json.contains("\"name\": \"parent\", \"workload\": \"w\", \"start_ns\": 0, \"end_ns\": 100, \"self_ns\": 40"));
    assert!(json.contains("\"parent\": null"));
}
