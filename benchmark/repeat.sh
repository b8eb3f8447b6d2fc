#!/usr/bin/env bash
# Runs two full sets of end-to-end runs on the current commit and checks them
# against the benchmark's own bounds, the way the gating driver does: per
# end-to-end metric x workload it prints both sets' medians, their relative
# difference, each set's spread (IQR over median of its runs), the bound, and
# pass/fail. A set is RUNS runs of every workload, each with another seed.
#
#   benchmark/repeat.sh [RUNS [SECONDS]]     (defaults: 10, run_seconds)
#
# Run from anywhere; it changes to the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-10}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
out="benchmark/out/repeat"
mkdir -p "$out"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/terra-benchmark"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for set in 1 2; do
    : > "$out/set$set.jsonl"
    for w in $workloads; do
        for i in $(seq 1 "$runs"); do
            seed=$(( set * 1000 + i ))
            echo "set $set: $w run $i/$runs (seed $seed)" >&2
            result=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
            echo "{\"workload\": \"$w\", \"result\": $result}" >> "$out/set$set.jsonl"
        done
    done
done

python3 - "$out" <<'EOF'
import json, statistics, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
sets = [[json.loads(line) for line in open(f"{out}/set{s}.jsonl")] for s in (1, 2)]
ok = True
print(f"{'workload':16} {'metric':12} {'median 1':>12} {'median 2':>12} {'diff':>8} "
      f"{'spread 1':>9} {'spread 2':>9} {'bound':>6}  verdict")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        medians, spreads = [], []
        for runs in sets:
            rows = [r["result"] for r in runs if r["workload"] == w["name"]]
            if any(not r["correct"] or r["failed"] for r in rows):
                ok = False
                print(f"{w['name']:16} a run failed or printed a wrong result")
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            medians.append(statistics.median(values))
            spreads.append((q[2] - q[0]) / medians[-1])
        worse = (medians[1] - medians[0]) / medians[0]
        if m["better"] == "higher":
            worse = -worse
        # setup_s is exempt from the spread rule, as in the driver.
        steady = m["name"] == "setup_s" or max(spreads) <= m["bound"]
        passed = steady and worse <= m["bound"]
        ok &= passed
        print(f"{w['name']:16} {m['name']:12} {medians[0]:12.5f} {medians[1]:12.5f} {worse:+8.1%} "
              f"{spreads[0]:9.1%} {spreads[1]:9.1%} {m['bound']:6.0%}  {'pass' if passed else 'FAIL'}")
print("repeat: every cell within its bound" if ok else "repeat: FAILED")
sys.exit(0 if ok else 1)
EOF
