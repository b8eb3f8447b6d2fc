//! The `terra` binary's flags are one table (`FLAGS` in `src/bin/terra.rs`):
//! `--help` prints it, the parser accepts exactly what it lists, and the
//! README's CLI table names the same flags.

use std::collections::BTreeSet;
use std::process::{Command, Output};

fn terra(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_terra"))
        .args(args)
        .output()
        .unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Every flag as `--help` spells it (`--threads=N`, `--trace-out FILE`).
fn help_spellings() -> Vec<String> {
    let out = terra(&["--help"]);
    assert!(out.status.success());
    assert!(
        out.stderr.is_empty(),
        "help goes to stdout: {}",
        stderr(&out)
    );
    let help = String::from_utf8(out.stdout).unwrap();
    assert!(help.starts_with("usage: terra "), "{help}");
    let entries = help.lines().filter(|l| l.starts_with("  -"));
    let spelling = |l: &str| l[2..].split("  ").next().unwrap().trim().to_string();
    entries.map(spelling).collect()
}

/// `--threads=N`, `--trace-out FILE` and `--remarks[=pass]` are `--threads`,
/// `--trace-out` and `--remarks`.
fn name(spelling: &str) -> &str {
    spelling.split(['=', ' ', '[']).next().unwrap()
}

#[test]
fn help_lists_every_flag_and_the_parser_accepts_each_as_listed() {
    let spellings = help_spellings();
    for flag in ["-O0", "--no-checkelim", "--remarks=PASS", "--replay=F.rec"] {
        assert!(spellings.iter().any(|s| s == flag), "{flag}: {spellings:?}");
    }
    let help = terra(&["-h"]).stdout;
    for spelling in &spellings {
        // Wherever it appears among the flags, --help wins and exits 0.
        let mut args: Vec<&str> = spelling.split(' ').collect();
        args.push("--help");
        let out = terra(&args);
        assert!(out.status.success(), "{spelling}: {}", stderr(&out));
        assert_eq!(out.stdout, help, "{spelling}");
    }
    let out = terra(&["--profile", "--help"]);
    assert!(
        out.status.success() && out.stderr.is_empty(),
        "no report after help"
    );
}

#[test]
fn an_unknown_or_misspelled_option_is_not_a_script_name() {
    let out = terra(&["--bogus"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stderr(&out),
        "terra: unknown option '--bogus' (see terra --help)\n"
    );
    for (args, usage) in [
        (&["--threads", "2"][..], "'--threads=N'"),
        (&["--trace-out=x.json"], "'--trace-out FILE'"),
        (&["--lint=yes"], "'--lint'"),
    ] {
        let out = terra(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains(&format!("is written {usage}")), "{err}");
        assert!(!err.contains("cannot open"), "{err}");
    }
}

#[test]
fn a_value_flag_given_twice_is_an_error() {
    for args in [
        &["--trace-out", "a.json", "--trace-out", "b.jsonl", "-e", ""][..],
        &["--record=a.rec", "--record=b.rec", "x.t"],
        &["--threads=1", "--threads=2", "-e", ""],
    ] {
        let out = terra(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let expected = format!("terra: {} is given twice\n", name(args[0]));
        assert_eq!(stderr(&out), expected);
    }
    // Bare flags repeat freely, and the last -O wins.
    let out = terra(&["-O0", "--lint", "-O2", "--lint", "-e", "return 1"]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn the_readme_table_names_the_flags_help_does() {
    let readme = include_str!("../../../README.md");
    let section = readme.split("## The `terra` CLI").nth(1).unwrap();
    let section = section.split("\n## ").next().unwrap();
    // The first cell of each table row, e.g. "`-O0` / `-O1` / `-O2`".
    let rows = section.lines().filter(|l| l.starts_with("| `"));
    let cells = rows.map(|l| l.split('|').nth(1).unwrap());
    let readme_flags: BTreeSet<&str> = cells
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .filter(|spelling| spelling.starts_with('-'))
        .map(name)
        .collect();
    let spellings = help_spellings();
    let help_flags: BTreeSet<&str> = spellings.iter().map(|s| name(s)).collect();
    assert_eq!(readme_flags, help_flags);
}
