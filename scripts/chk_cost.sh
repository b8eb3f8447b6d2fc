#!/usr/bin/env bash
# What a bounds check costs (ROADMAP item 8's premise): scripts/chk_cost.t
# runs the naive GEMM's loops on buffers whose every access is proven
# (`chk` false) and on caller-passed pointers (every access checked). The
# two runs must retire the same instructions, opcode by opcode, apart from
# the `chk` pseudo-op and the one call that passes the pointers; then PAIRS
# alternating pairs of CHILDREN children each are timed and the difference
# is printed per checked access.
#
#   scripts/chk_cost.sh [PAIRS [CHILDREN]]     (defaults: 10, 15)
#
# Run from anywhere; it changes to the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --quiet -p terra-core --bin terra
python3 - "${CARGO_TARGET_DIR:-target}/release/terra" "${1:-10}" "${2:-15}" <<'PY'
import statistics, subprocess, sys, time

terra, pairs, children = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
script = "scripts/chk_cost.t"

def opcodes(mode):
    report = subprocess.run([terra, "--profile", script, mode], check=True,
                            capture_output=True, text=True).stderr
    rows = report.split("== opcode counters ==")[1].split("== memory counters ==")[0]
    return {op: int(n) for op, n in (l.split() for l in rows.splitlines()[1:])}

proven, checked = opcodes("proven"), opcodes("checked")
accesses = checked.pop("chk")
assert "chk" not in proven, "an access of the proven run is checked"
# The call that hands the pointers over: itself, its return, three arguments.
for op, n in (("call", 1), ("ret", 1), ("mov", 3)):
    checked[op] -= n
checked = {op: n for op, n in checked.items() if n}
assert proven == checked, f"the two runs retire different instructions:\n{proven}\n{checked}"
print(f"{sum(proven.values())} instructions either way, {accesses} of their accesses checked")

def batch(mode):
    runs = []
    for _ in range(children):
        start = time.perf_counter()
        subprocess.run([terra, script, mode], check=True, stdout=subprocess.DEVNULL)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)

times = {"proven": [], "checked": []}
for pair in range(pairs):
    for mode in ("proven", "checked") if pair % 2 == 0 else ("checked", "proven"):
        times[mode].append(batch(mode))
    p, c = times["proven"][-1], times["checked"][-1]
    print(f"pair {pair}: proven {p * 1e3:.2f} ms  checked {c * 1e3:.2f} ms  {(c / p - 1) * 100:+.1f} %")
for mode, runs in times.items():
    q = statistics.quantiles(runs, n=4)
    print(f"{mode}: median {statistics.median(runs) * 1e3:.2f} ms, IQR {(q[2] - q[0]) * 1e3:.2f} ms")
slower = sum(c > p for p, c in zip(times["proven"], times["checked"]))
gap = statistics.median(times["checked"]) - statistics.median(times["proven"])
print(f"checked slower in {slower}/{pairs} pairs; {gap * 1e9 / accesses:.3f} ns per checked access")
PY
