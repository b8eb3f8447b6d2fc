#!/usr/bin/env bash
# Full local CI gate: formatting, lints, release build, and both test profiles.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (debug: exercises the IR verifier gates)"
cargo test --workspace -q

echo "==> cargo test --release"
cargo test --workspace --release -q

echo "==> profile smoke (terra --profile --trace-out)"
# --trace-out validates the sink extension, so the temp file needs one.
trace_json="$(mktemp --suffix=.json)"
trap 'rm -f "$trace_json"' EXIT
# Capture instead of piping into grep -q: with pipefail, grep exiting at the
# first match would otherwise fail the step via SIGPIPE once the report grows
# past the pipe buffer.
report="$(./target/release/terra --profile --trace-out "$trace_json" examples/saxpy.t 2>&1)"
grep -q "== opcode counters ==" <<< "$report" \
    || { echo "profile smoke: no opcode counters in report" >&2; exit 1; }
grep -q '"traceEvents"' "$trace_json" \
    || { echo "profile smoke: trace file is missing traceEvents" >&2; exit 1; }

echo "==> cache-report smoke (terra --cache, locality section, .folded export)"
trace_folded="$(mktemp --suffix=.folded)"
trap 'rm -f "$trace_json" "$trace_folded"' EXIT
report="$(./target/release/terra --cache l1=16k,64,4:l2=128k,64,8 \
    --trace-out "$trace_folded" examples/saxpy.t 2>&1)"
grep -q "== locality ==" <<< "$report" \
    || { echo "cache smoke: no locality section in report" >&2; exit 1; }
grep -q "16384B/64B-line/4-way" <<< "$report" \
    || { echo "cache smoke: --cache geometry not reflected in report" >&2; exit 1; }
grep -qE ":[0-9]+$" <(grep -A14 "hot lines" <<< "$report") \
    || { echo "cache smoke: no per-line attribution in hot-lines table" >&2; exit 1; }
[ -s "$trace_folded" ] \
    || { echo "cache smoke: .folded trace file is empty" >&2; exit 1; }
awk 'NF < 2 || $NF !~ /^[0-9]+$/ { bad=1 } END { exit bad }' "$trace_folded" \
    || { echo "cache smoke: malformed folded-stack line" >&2; exit 1; }

echo "==> optimizer differential (-O0 vs -O2 stdout must match)"
# Run without --profile: the perf counters examples print are live only under
# the profiler, so plain stdout is level-independent unless codegen is wrong.
for script in examples/*.t; do
    o0="$(./target/release/terra -O0 "$script")"
    o2="$(./target/release/terra -O2 "$script")"
    if [ "$o0" != "$o2" ]; then
        echo "optimizer differential: $script output differs between -O0 and -O2" >&2
        diff <(printf '%s\n' "$o0") <(printf '%s\n' "$o2") >&2 || true
        exit 1
    fi
done

echo "==> thread differential (--threads=1 vs --threads=4 stdout must match)"
# The parallelfor chunk schedule is a function of the iteration count alone,
# so program output must be independent of the worker-thread count.
for script in examples/*.t; do
    seq_out="$(./target/release/terra --threads=1 "$script")"
    par_out="$(./target/release/terra --threads=4 "$script")"
    if [ "$seq_out" != "$par_out" ]; then
        echo "thread differential: $script output differs between --threads=1 and --threads=4" >&2
        diff <(printf '%s\n' "$seq_out") <(printf '%s\n' "$par_out") >&2 || true
        exit 1
    fi
done
# The deterministic profile sections (function/opcode/memory/cache counters,
# samples, and the new == parallel == section, whose per-chunk shard metrics
# are chunk-indexed and schedule-independent) must also be thread-count
# invariant; only the wall-clock staging timeline above them may differ.
prof_sections() {
    ./target/release/terra --profile --threads="$1" examples/parfill.t 2>&1 \
        | sed -n '/== function profile ==/,$p'
}
if [ "$(prof_sections 1)" != "$(prof_sections 4)" ]; then
    echo "thread differential: deterministic profile sections differ with --threads=4" >&2
    diff <(prof_sections 1) <(prof_sections 4) >&2 || true
    exit 1
fi

echo "==> remarks smoke (terra --remarks / --remarks-out)"
remarks_json="$(mktemp)"
remarks_json2="$(mktemp)"
trap 'rm -f "$trace_json" "$trace_folded" "$remarks_json" "$remarks_json2"' EXIT
report="$(./target/release/terra --remarks -O2 examples/sieve.t 2>&1)"
grep -q "== remarks ==" <<< "$report" \
    || { echo "remarks smoke: no remarks section at -O2" >&2; exit 1; }
grep -qE "^  (inline|licm|cse) +applied" <<< "$report" \
    || { echo "remarks smoke: no applied inline/licm/cse remark at -O2" >&2; exit 1; }
grep -q "via quote at line" <<< "$report" \
    || { echo "remarks smoke: no staging provenance chain in remarks" >&2; exit 1; }
report="$(./target/release/terra --remarks -O0 examples/sieve.t 2>&1)"
grep -qE "^  [a-z]+ +(applied|missed)" <<< "$report" \
    && { echo "remarks smoke: -O0 must produce no remarks" >&2; exit 1; }
./target/release/terra --remarks-out "$remarks_json" -O2 examples/sieve.t > /dev/null 2>&1
./target/release/terra --remarks-out "$remarks_json2" -O2 examples/sieve.t > /dev/null 2>&1
head -c1 "$remarks_json" | grep -q '\[' \
    || { echo "remarks smoke: --remarks-out did not write a JSON array" >&2; exit 1; }
for key in pass kind function line provenance message; do
    grep -q "\"$key\"" "$remarks_json" \
        || { echo "remarks smoke: --remarks-out JSON missing key $key" >&2; exit 1; }
done
cmp -s "$remarks_json" "$remarks_json2" \
    || { echo "remarks smoke: --remarks-out output differs between runs" >&2; exit 1; }

echo "==> perfprobe (writes BENCH_opt.json with -O0/-O2 instruction counts)"
# Snapshot the committed baselines first: perfprobe overwrites them in place,
# and the bench-diff step below compares fresh numbers against the snapshot.
bench_snap="$(mktemp -d)"
trap 'rm -f "$trace_json" "$trace_folded" "$remarks_json" "$remarks_json2"; rm -rf "$bench_snap"' EXIT
cp BENCH_*.json "$bench_snap"/
cargo run --release --example perfprobe --quiet
grep -q '"kernels"' BENCH_opt.json \
    || { echo "perfprobe: BENCH_opt.json is missing kernel entries" >&2; exit 1; }

echo "==> parbench (writes BENCH_parallel.json with 1/2/4/8-thread scaling curves)"
cargo run --release --example parbench --quiet > /dev/null

echo "==> bench diff (fresh BENCH_*.json vs committed baselines, per-metric tolerances)"
for fresh in BENCH_*.json; do
    ./scripts/bench_diff.sh "$bench_snap/$fresh" "$fresh" "$fresh"
done

echo "==> BENCH byte-stability (a second perfprobe run must reproduce every file)"
bench_rerun="$(mktemp -d)"
trap 'rm -f "$trace_json" "$trace_folded" "$remarks_json" "$remarks_json2"; \
     rm -rf "$bench_snap" "$bench_rerun"' EXIT
(cd "$bench_rerun" && "$OLDPWD/target/release/examples/perfprobe" > /dev/null)
for fresh in BENCH_*.json; do
    # BENCH_parallel.json records wall-clock scaling curves: machine-dependent
    # by design, validated by schema + speedup gates below instead.
    [ "$fresh" = "BENCH_parallel.json" ] && continue
    cmp -s "$fresh" "$bench_rerun/$fresh" \
        || { echo "bench stability: $fresh differs between two runs" >&2; exit 1; }
done

echo "==> BENCH_cache.json schema (keys, rates in [0,1], blocked < naive, soa < aos)"
grep -q '"config"' BENCH_cache.json \
    || { echo "BENCH_cache: missing config key" >&2; exit 1; }
for key in l1_accesses l1_misses l1_miss_rate l2_misses l2_miss_rate; do
    grep -q "\"$key\"" BENCH_cache.json \
        || { echo "BENCH_cache: missing key $key" >&2; exit 1; }
done
for kernel in gemm_naive_96 gemm_blocked_96 aos_sum_4096 soa_sum_4096; do
    grep -q "\"$kernel\"" BENCH_cache.json \
        || { echo "BENCH_cache: missing kernel $kernel" >&2; exit 1; }
done
# POSIX-portable rate extraction: one kernel entry per line in the file.
l1_rate() {
    sed -n "s/.*\"name\": \"$1\".*\"l1_miss_rate\": \([0-9.]*\).*/\1/p" BENCH_cache.json
}
for r in $(sed -n 's/.*"l1_miss_rate": \([0-9.]*\).*"l2_miss_rate": \([0-9.]*\).*/\1 \2/p' \
        BENCH_cache.json); do
    awk -v r="$r" 'BEGIN { exit !(r >= 0 && r <= 1) }' \
        || { echo "BENCH_cache: miss rate $r outside [0,1]" >&2; exit 1; }
done
awk -v naive="$(l1_rate gemm_naive_96)" -v blocked="$(l1_rate gemm_blocked_96)" \
    'BEGIN { exit !(blocked < naive) }' \
    || { echo "BENCH_cache: blocked GEMM L1 miss rate must be strictly below naive" >&2; exit 1; }
awk -v aos="$(l1_rate aos_sum_4096)" -v soa="$(l1_rate soa_sum_4096)" \
    'BEGIN { exit !(soa < aos) }' \
    || { echo "BENCH_cache: SoA L1 miss rate must be strictly below AoS" >&2; exit 1; }

echo "==> BENCH_remarks.json schema (kernel entry, per-pass applied/missed counts)"
grep -q '"kernel"' BENCH_remarks.json \
    || { echo "BENCH_remarks: missing kernel key" >&2; exit 1; }
for key in pass applied missed; do
    grep -q "\"$key\"" BENCH_remarks.json \
        || { echo "BENCH_remarks: missing key $key" >&2; exit 1; }
done
grep -qE '"applied": [1-9]' BENCH_remarks.json \
    || { echo "BENCH_remarks: no pass reported an applied remark" >&2; exit 1; }

echo "==> BENCH_parallel.json schema (kernels, thread curve, determinism, speedup gate)"
grep -q '"host_cores"' BENCH_parallel.json \
    || { echo "BENCH_parallel: missing host_cores key" >&2; exit 1; }
for kernel in gemm_parallel_96 stencil_parallel_256; do
    grep -q "\"name\": \"$kernel\"" BENCH_parallel.json \
        || { echo "BENCH_parallel: missing kernel $kernel" >&2; exit 1; }
done
for threads in 1 2 4 8; do
    grep -q "\"threads\": $threads" BENCH_parallel.json \
        || { echo "BENCH_parallel: missing run at $threads thread(s)" >&2; exit 1; }
done
# Every run carries the telemetry verdict: imbalance >= 1 (max/mean chunk
# instructions) and efficiency in (0, 1] (ideal over static-schedule span).
for key in imbalance efficiency; do
    grep -q "\"$key\"" BENCH_parallel.json \
        || { echo "BENCH_parallel: missing key $key" >&2; exit 1; }
done
for v in $(grep -oE '"imbalance": [0-9.]+' BENCH_parallel.json | grep -oE '[0-9.]+$'); do
    awk -v v="$v" 'BEGIN { exit !(v >= 1.0) }' \
        || { echo "BENCH_parallel: imbalance $v below 1.0" >&2; exit 1; }
done
for v in $(grep -oE '"efficiency": [0-9.]+' BENCH_parallel.json | grep -oE '[0-9.]+$'); do
    awk -v v="$v" 'BEGIN { exit !(v > 0 && v <= 1.0) }' \
        || { echo "BENCH_parallel: efficiency $v outside (0, 1]" >&2; exit 1; }
done
grep -q '"deterministic": 0' BENCH_parallel.json \
    && { echo "BENCH_parallel: a kernel reported thread-dependent results" >&2; exit 1; }
# Scaling gate: on hosts with >= 4 cores the 4-thread GEMM must be at least
# 2x the sequential fallback. Single-core CI boxes can only validate
# correctness, not speedup, so the gate is conditional.
cores="$(sed -n 's/.*"host_cores": \([0-9]*\).*/\1/p' BENCH_parallel.json)"
if [ "${cores:-1}" -ge 4 ]; then
    gemm4="$(sed -n 's/.*"name": "gemm_parallel_96".*"threads": 4, "ms": [0-9.]*, "speedup": \([0-9.]*\).*/\1/p' \
        BENCH_parallel.json)"
    awk -v s="${gemm4:-0}" 'BEGIN { exit !(s >= 2.0) }' \
        || { echo "BENCH_parallel: 4-thread GEMM speedup ${gemm4:-?} below 2x on a ${cores}-core host" >&2; exit 1; }
fi

echo "==> telemetry cost gate (benchmark driver: --profile within 3x of the unobserved loop)"
# The observed dispatch loop is a separate instantiation of the unobserved
# one; this keeps its per-instruction hooks honest (before the split: ~8x).
bench_out="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --quick --trace 1 --workload gemm-observed 2>&1)"
ratio="$(sed -n 's/^# gemm-observed: trace\.profile_ratio = \([0-9.]*\) ratio$/\1/p' <<< "$bench_out")"
awk -v r="${ratio:-99}" 'BEGIN { exit !(r <= 3.0) }' \
    || { echo "telemetry cost: trace.profile_ratio ${ratio:-missing} is above 3.0" >&2; exit 1; }

echo "==> lint sweep (terra --lint over examples must stay clean)"
for script in examples/*.t; do
    lint_err="$(./target/release/terra --lint "$script" 2>&1 >/dev/null)"
    if grep -qE "(warning|error)\[" <<< "$lint_err"; then
        echo "lint sweep: $script produced diagnostics:" >&2
        printf '%s\n' "$lint_err" >&2
        exit 1
    fi
done

echo "==> check-elision differential (-O2 vs -O2 --no-checkelim stdout must match)"
for script in examples/*.t; do
    fast="$(./target/release/terra -O2 "$script")"
    slow="$(./target/release/terra -O2 --no-checkelim "$script")"
    if [ "$fast" != "$slow" ]; then
        echo "check-elision differential: $script output differs with --no-checkelim" >&2
        diff <(printf '%s\n' "$fast") <(printf '%s\n' "$slow") >&2 || true
        exit 1
    fi
done

echo "==> BENCH_absint.json schema (kernels, proven_pct threshold, elided < checked)"
for key in instructions_checked instructions_elided accesses_total accesses_elided proven_pct; do
    grep -q "\"$key\"" BENCH_absint.json \
        || { echo "BENCH_absint: missing key $key" >&2; exit 1; }
done
for kernel in gemm_static_24 saxpy_static_4096 stencil_static_1024; do
    grep -q "\"$kernel\"" BENCH_absint.json \
        || { echo "BENCH_absint: missing kernel $kernel" >&2; exit 1; }
done
absint_field() {
    sed -n "s/.*\"name\": \"$1\".*\"$2\": \([0-9.]*\).*/\1/p" BENCH_absint.json
}
awk -v pct="$(absint_field gemm_static_24 proven_pct)" \
    'BEGIN { exit !(pct >= 30) }' \
    || { echo "BENCH_absint: GEMM proven_pct must be at least 30" >&2; exit 1; }
for kernel in gemm_static_24 saxpy_static_4096 stencil_static_1024; do
    awk -v c="$(absint_field "$kernel" instructions_checked)" \
        -v e="$(absint_field "$kernel" instructions_elided)" \
        'BEGIN { exit !(e < c) }' \
        || { echo "BENCH_absint: $kernel elided run must retire fewer instructions" >&2; exit 1; }
done

echo "==> BENCH_heap.json schema (sites, quote provenance, seeded leak)"
for key in func line provenance count bytes peak_bytes live_count live_bytes \
           leaked_allocs leaked_bytes peak_live_bytes; do
    grep -q "\"$key\"" BENCH_heap.json \
        || { echo "BENCH_heap: missing key $key" >&2; exit 1; }
done
grep -q "via quote at line" BENCH_heap.json \
    || { echo "BENCH_heap: no staged-malloc provenance chain" >&2; exit 1; }
grep -q '"leaked_allocs": 1' BENCH_heap.json \
    || { echo "BENCH_heap: seeded leak not reported" >&2; exit 1; }

echo "==> BENCH_replay.json schema (format version, million-instruction footprint)"
for key in format_version retired_instructions effects checkpoints cadence coarse_bytes; do
    grep -q "\"$key\"" BENCH_replay.json \
        || { echo "BENCH_replay: missing key $key" >&2; exit 1; }
done
grep -q '"format_version": 1' BENCH_replay.json \
    || { echo "BENCH_replay: unknown recording format version (gates understand v1 only; a format bump needs a deliberate refresh here)" >&2; exit 1; }
replay_field() { sed -n "s/.*\"$1\": \([0-9.]*\).*/\1/p" BENCH_replay.json; }
awk -v r="$(replay_field retired_instructions)" 'BEGIN { exit !(r >= 1000000) }' \
    || { echo "BENCH_replay: workload must retire at least a million instructions" >&2; exit 1; }
awk -v b="$(replay_field coarse_bytes)" 'BEGIN { exit !(b > 0 && b <= 262144) }' \
    || { echo "BENCH_replay: coarse recording must stay within (0, 256 KiB]" >&2; exit 1; }

echo "==> heap-profile smoke (terra --heap-profile, leak report with provenance)"
report="$(./target/release/terra --heap-profile examples/leak.t 2>&1)"
grep -q "== heap ==" <<< "$report" \
    || { echo "heap smoke: no heap section in report" >&2; exit 1; }
grep -q "leaked allocations" <<< "$report" \
    || { echo "heap smoke: seeded leak not reported" >&2; exit 1; }
grep -q "via quote at line" <<< "$report" \
    || { echo "heap smoke: leak site lost its staging provenance" >&2; exit 1; }

echo "==> parallel telemetry smoke (== parallel == section, par_* JSONL records)"
# The report's == parallel == section must be byte-stable across runs at a
# fixed thread count (the shard metrics are deterministic instruction counts,
# not wall-clock), and — by construction — identical across thread counts.
par_report() {
    ./target/release/terra --profile --threads="$1" examples/parfill.t 2>&1 \
        | sed -n '/== parallel ==/,/== opcode counters ==/p'
}
par_a="$(par_report 4)"
grep -q "== parallel ==" <<< "$par_a" \
    || { echo "parallel smoke: no == parallel == section in report" >&2; exit 1; }
grep -q "imbalance" <<< "$par_a" \
    || { echo "parallel smoke: no imbalance figure in report" >&2; exit 1; }
grep -q "serial fraction" <<< "$par_a" \
    || { echo "parallel smoke: no serial-fraction estimate in report" >&2; exit 1; }
[ "$par_a" = "$(par_report 4)" ] \
    || { echo "parallel smoke: == parallel == differs between two 4-thread runs" >&2; exit 1; }
[ "$par_a" = "$(par_report 1)" ] \
    || { echo "parallel smoke: == parallel == depends on the thread count" >&2; exit 1; }
# The JSONL stream gains par_site/par_chunk/par_worker records under a
# parallel workload, and stays byte-stable like every other record type.
par_events_a="$(mktemp --suffix=.jsonl)"
par_events_b="$(mktemp --suffix=.jsonl)"
trap 'rm -f "$trace_json" "$trace_folded" "$remarks_json" "$remarks_json2" \
     "$par_events_a" "$par_events_b"; rm -rf "$bench_snap" "$bench_rerun"' EXIT
./target/release/terra --profile --threads=4 --events-out "$par_events_a" \
    examples/parfill.t > /dev/null 2>&1
./target/release/terra --profile --threads=4 --events-out "$par_events_b" \
    examples/parfill.t > /dev/null 2>&1
for type in par_site par_chunk par_worker; do
    grep -q "\"type\":\"$type\"" "$par_events_a" \
        || { echo "parallel smoke: missing JSONL record type $type" >&2; exit 1; }
done
cmp -s "$par_events_a" "$par_events_b" \
    || { echo "parallel smoke: par_* event stream differs between two runs" >&2; exit 1; }

echo "==> trace-sink validation (unknown --trace-out extension must be rejected)"
if ./target/release/terra --trace-out /tmp/trace.csv examples/saxpy.t > /dev/null 2>&1; then
    echo "trace-sink: unsupported extension was silently accepted" >&2; exit 1
fi

echo "==> record/replay smoke (flight recorder over examples/gemm.t)"
rec_o0="$(mktemp --suffix=.rec)"
rec_o2="$(mktemp --suffix=.rec)"
rec_again="$(mktemp --suffix=.rec)"
trap 'rm -f "$trace_json" "$trace_folded" "$remarks_json" "$remarks_json2" \
     "$par_events_a" "$par_events_b" "$rec_o0" "$rec_o2" "$rec_again"; \
     rm -rf "$bench_snap" "$bench_rerun"' EXIT
./target/release/terra --record="$rec_o0" -O0 examples/gemm.t > /dev/null 2>&1
./target/release/terra --record="$rec_o2" -O2 examples/gemm.t > /dev/null 2>&1
# Every recording opens with the exact format-version header; consumers key
# their parsers off it, so an unknown header must fail here, not downstream.
head -1 "$rec_o0" | grep -qx '#terra-rec v1' \
    || { echo "record smoke: recording does not open with '#terra-rec v1'" >&2; exit 1; }
# Cross-level alignment: the -O0 and -O2 effect streams must agree at every
# checkpoint (exit 0 and an explicit zero-divergence verdict).
diff_out="$(./target/release/terra replay-diff "$rec_o0" "$rec_o2")" \
    || { echo "record smoke: replay-diff found a -O0 vs -O2 divergence: $diff_out" >&2; exit 1; }
grep -q "0 divergences" <<< "$diff_out" \
    || { echo "record smoke: replay-diff verdict missing zero-divergence count" >&2; exit 1; }
# Recordings are deterministic artifacts: a re-record at the same level is
# byte-identical, and the thread count must not leak into the bytes at all.
./target/release/terra --record="$rec_again" -O2 examples/gemm.t > /dev/null 2>&1
cmp -s "$rec_o2" "$rec_again" \
    || { echo "record smoke: recording differs between two identical runs" >&2; exit 1; }
./target/release/terra --record="$rec_again" --threads=4 examples/gemm.t > /dev/null 2>&1
cmp -s "$rec_o2" "$rec_again" \
    || { echo "record smoke: recording depends on --threads" >&2; exit 1; }
# Replay re-executes the recorded script and verifies every checkpoint.
./target/release/terra --replay="$rec_o2" > /dev/null 2>&1 \
    || { echo "record smoke: --replay failed to verify its own recording" >&2; exit 1; }
# Strict sink validation, same contract as --trace-out.
if ./target/release/terra --record=/tmp/run.json examples/gemm.t > /dev/null 2>&1; then
    echo "record smoke: unsupported .rec sink extension was silently accepted" >&2; exit 1
fi

echo "All checks passed."
