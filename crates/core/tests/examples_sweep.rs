//! Differential sweep over every `examples/*.t` through the built `terra`
//! binary: program output must not depend on the optimization level, the
//! worker-thread count, or bounds-check elision; the examples must stay
//! lint-clean; and a flight recording must not depend on the thread count.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `terra <flags> <script>` to completion and returns (stdout, stderr).
fn terra(flags: &[&str], script: &Path) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_terra"))
        .args(flags)
        .arg(script)
        .output()
        .unwrap();
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert!(out.status.success(), "{flags:?} {script:?}: {stderr}");
    (stdout, stderr)
}

fn examples() -> Vec<PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut scripts: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "t"))
        .collect();
    scripts.sort();
    assert!(!scripts.is_empty(), "no scripts under {dir}");
    scripts
}

/// Configurations whose stdout must equal the `-O2 --threads=1` run's.
/// Plain runs, not `--profile`: the perf counters some examples print are
/// live only under the profiler.
const SAME_STDOUT_AS_BASELINE: [&[&str]; 4] = [
    &["-O0", "--threads=1"],
    &["-O1", "--threads=1"],
    // The parallelfor chunk schedule is a function of the iteration count
    // alone, so output is independent of the worker-thread count.
    &["-O2", "--threads=4"],
    &["-O2", "--threads=1", "--no-checkelim"],
];

#[test]
fn stdout_is_invariant_under_opt_level_threads_and_checkelim() {
    for script in examples() {
        let (baseline, _) = terra(&["-O2", "--threads=1"], &script);
        for flags in SAME_STDOUT_AS_BASELINE {
            assert_eq!(
                terra(flags, &script).0,
                baseline,
                "{script:?}: stdout under {flags:?} differs from -O2 --threads=1"
            );
        }
    }
}

#[test]
fn examples_are_lint_clean() {
    for script in examples() {
        let (_, stderr) = terra(&["--lint"], &script);
        assert!(
            !stderr.contains("warning[") && !stderr.contains("error["),
            "{script:?} produced diagnostics:\n{stderr}"
        );
    }
}

#[test]
fn gemm_recording_bytes_do_not_depend_on_threads() {
    let script = examples()
        .into_iter()
        .find(|p| p.ends_with("gemm.t"))
        .expect("examples/gemm.t");
    let record = |threads: &str| {
        let rec =
            std::env::temp_dir().join(format!("terra-sweep-{}-{threads}.rec", std::process::id()));
        terra(&[&format!("--record={}", rec.display()), threads], &script);
        let bytes = std::fs::read(&rec).unwrap();
        std::fs::remove_file(&rec).ok();
        bytes
    };
    assert_eq!(
        record("--threads=1"),
        record("--threads=4"),
        "recording depends on --threads"
    );
}
