#!/usr/bin/env bash
# What one VM operation costs: scripts/op_cost.t runs a pair of programs
# that retire the same instructions, opcode by opcode, apart from that
# operation. The script checks that they do, then times PAIRS alternating
# pairs of CHILDREN children each and prints the difference per operation.
#
#   chk   bounds checks: the naive GEMM's loops on buffers whose every access
#         is proven (`proven`) and on caller-passed pointers, every access
#         checked (`checked`); they differ by the `chk` pseudo-op and the one
#         call that passes the pointers. Prints ns per checked access.
#   call  calls: a loop whose callee is inlined (`inlined`) and the same loop
#         calling it through a pointer (`pointer`); they differ by one
#         `call.indirect`, its `ret` and its two argument `mov`s per trip.
#         Prints ns per call/ret pair, its argument moves included.
#   grow  the heap's first growth: one `malloc` of 16 bytes, which the heap
#         holds (`fits`), and one of 128 KiB, which grows it (`grows`); the
#         same instructions. Prints ms per first growth.
#
#   scripts/op_cost.sh chk|call|grow [PAIRS [CHILDREN]]     (defaults: 10, 15)
#
# Run from anywhere; it changes to the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
case "${1:-}" in
    chk | call | grow) ;;
    *) echo "usage: scripts/op_cost.sh chk|call|grow [PAIRS [CHILDREN]]" >&2; exit 2 ;;
esac
cargo build --release --quiet -p terra-core --bin terra
python3 - "${CARGO_TARGET_DIR:-target}/release/terra" "$1" "${2:-10}" "${3:-15}" <<'PY'
import statistics, subprocess, sys, time

terra, kind, pairs, children = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
script = "scripts/op_cost.t"
base, probe = {"chk": ("proven", "checked"), "call": ("inlined", "pointer"),
               "grow": ("fits", "grows")}[kind]

def opcodes(mode):
    report = subprocess.run([terra, "--profile", script, mode], check=True,
                            capture_output=True, text=True).stderr
    rows = report.split("== opcode counters ==")[1].split("== memory counters ==")[0]
    return {op: int(n) for op, n in (l.split() for l in rows.splitlines()[1:])}

without, with_op = opcodes(base), opcodes(probe)
if kind == "chk":
    events, what = with_op.pop("chk"), "checked access"
    assert "chk" not in without, "an access of the proven run is checked"
    # The call that hands the pointers over: itself, its return, three arguments.
    extra = (("call", 1), ("ret", 1), ("mov", 3))
elif kind == "call":
    events, what = with_op["call.indirect"], "call/ret pair"
    extra = (("call.indirect", events), ("ret", events), ("mov", 2 * events))
else:
    events, what, extra = 1, "first growth", ()
for op, n in extra:
    with_op[op] -= n
with_op = {op: n for op, n in with_op.items() if n}
assert without == with_op, f"the two runs retire different instructions:\n{without}\n{with_op}"
print(f"{sum(without.values())} instructions either way, and {events} x {what} in {probe}")

def batch(mode):
    runs = []
    for _ in range(children):
        start = time.perf_counter()
        subprocess.run([terra, script, mode], check=True, stdout=subprocess.DEVNULL)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)

times = {base: [], probe: []}
for pair in range(pairs):
    for mode in (base, probe) if pair % 2 == 0 else (probe, base):
        times[mode].append(batch(mode))
    b, p = times[base][-1], times[probe][-1]
    print(f"pair {pair}: {base} {b * 1e3:.2f} ms  {probe} {p * 1e3:.2f} ms  {(p / b - 1) * 100:+.1f} %")
for mode, runs in times.items():
    q = statistics.quantiles(runs, n=4)
    print(f"{mode}: median {statistics.median(runs) * 1e3:.2f} ms, IQR {(q[2] - q[0]) * 1e3:.2f} ms")
slower = sum(p > b for b, p in zip(times[base], times[probe]))
gap = statistics.median(times[probe]) - statistics.median(times[base])
scale, unit = (1e3, "ms") if kind == "grow" else (1e9, "ns")
print(f"{probe} slower in {slower}/{pairs} pairs; {gap * scale / events:.3f} {unit} per {what}")
PY
