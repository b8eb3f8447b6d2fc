//! The paper's libraries ship with the language: every session, the `terra`
//! CLI's included, can `terralib.require` each of [`terra_core::LIBRARIES`]
//! by its name, and loads it once.

use std::process::Command;

/// Runs `terra -e <code>`; returns whether it exited 0, its stdout and its
/// stderr.
fn terra_e(code: &str) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_terra"))
        .args(["-e", code])
        .output()
        .unwrap();
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.success(), text(&out.stdout), text(&out.stderr))
}

/// The names the paper's programs use.
const LIBRARY_NAMES: [&str; 5] = [
    "lib/gemm",
    "lib/javalike",
    "lib/datatable",
    "lib/mesh",
    "lib/orion",
];

#[test]
fn every_library_loads_from_the_cli() {
    assert_eq!(LIBRARY_NAMES, terra_core::LIBRARIES.map(|(name, _)| name));
    for name in LIBRARY_NAMES {
        let (ok, stdout, stderr) = terra_e(&format!("terralib.require(\"{name}\") print(\"ok\")"));
        assert!(ok && stdout == "ok\n", "{name}: {stdout}{stderr}");
    }
}

#[test]
fn a_second_require_returns_the_same_value() {
    for name in LIBRARY_NAMES {
        let (ok, stdout, stderr) = terra_e(&format!(
            "local a = terralib.require(\"{name}\")\n\
             local b = terralib.require(\"{name}\")\n\
             print(a == b, type(a))"
        ));
        // `lib/javalike` and `lib/orion` return their module table; the
        // other three define globals and return `true`, as `require` does
        // for a chunk that returns nothing.
        let kind = match name {
            "lib/javalike" | "lib/orion" => "table",
            _ => "boolean",
        };
        assert!(ok, "{name}: {stderr}");
        assert_eq!(stdout, format!("true\t{kind}\n"), "{name}");
    }
}

#[test]
fn an_unknown_module_is_not_found() {
    let (ok, _, stderr) = terra_e("terralib.require(\"x\")");
    assert!(!ok);
    assert!(stderr.contains("module 'x' not found"), "{stderr}");
}
