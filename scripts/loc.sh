#!/usr/bin/env bash
# Non-test lines of Rust per crate: every line of each crates/*/src/**/*.rs
# before the file's first `#[cfg(test)]`. With arguments, counts those files
# or directories instead and prints one line per file. Lua sources (the
# libraries written in the staged language, crates/*/src/**/*.lua) count
# every line, apart, on a `lua total` line of their own after the Rust total.
# Run from anywhere: scripts/loc.sh [path...]
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -gt 0 ]; then key=file; else key=crate; set -- crates/*/src; fi
find "$@" -name '*.rs' | sort | xargs awk -v key="$key" '
    FNR == 1 { counting = 1; name = FILENAME; if (key == "crate") { sub(/\/src\/.*/, "", name) } }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { lines[name]++; total++ }
    END { for (n in lines) printf "%6d %s\n", lines[n], n | "sort -k2"; close("sort -k2"); printf "%6d total\n", total }'
find "$@" -name '*.lua' | sort | xargs -r awk -v key="$key" '
    { lines[FILENAME]++; total++ }
    END { if (key == "file") { for (n in lines) printf "%6d %s\n", lines[n], n | "sort -k2"; close("sort -k2") }
          printf "%6d lua total\n", total }'
