#!/usr/bin/env bash
# Record one bench-trajectory data point in BENCH_scenarios.json: the
# tracked microbenchmarks (scheduler step, wire encode, zero-copy
# fan-out delivery, push-pull snapshot) plus a smoke -exp all run
# through the shared worker pool. See the "Bench trajectory" section of
# docs/LIFEBENCH.md for the entry format.
#
# Usage: scripts/bench.sh [note]
#   note      free-form context stored in the entry (default: short HEAD)
#   BENCH_OUT target file (default: BENCH_scenarios.json)
#   PARALLEL  lifebench -parallel value (default: 2)
set -euo pipefail
cd "$(dirname "$0")/.."

out=${BENCH_OUT:-BENCH_scenarios.json}
note=${1:-$(git rev-parse --short HEAD 2>/dev/null || echo untracked)}
parallel=${PARALLEL:-2}

read -r ns allocs < <(go test -run '^$' \
    -bench 'BenchmarkSchedulerInsertPop/paper-128$' \
    -benchmem -benchtime 1s ./internal/sim |
    awk '/^BenchmarkSchedulerInsertPop/ {ns=$3; allocs=$7} END {print ns, allocs}')
echo "scheduler step under a paper-128-shaped load: ${ns} ns/op, ${allocs} allocs/op" >&2

read -r cns callocs < <(go test -run '^$' \
    -bench 'BenchmarkEncodeAllocs$' -benchmem -benchtime 1s . |
    awk '/^BenchmarkEncodeAllocs/ {ns=$3; allocs=$7} END {print ns, allocs}')
echo "wire encode (alive + 16-member piggyback): ${cns} ns/op, ${callocs} allocs/op" >&2

read -r fns fallocs < <(go test -run '^$' \
    -bench 'BenchmarkNetworkDeliverFanout$' -benchmem -benchtime 1s ./internal/sim |
    awk '/^BenchmarkNetworkDeliverFanout/ {ns=$3; allocs=$7} END {print ns, allocs}')
echo "zero-copy fan-out delivery (8 destinations): ${fns} ns/op, ${fallocs} allocs/op" >&2

read -r pns pallocs < <(go test -run '^$' \
    -bench 'BenchmarkPushPullSnapshot$' -benchmem -benchtime 1s ./internal/core |
    awk '/^BenchmarkPushPullSnapshot/ {ns=$3; allocs=$7} END {print ns, allocs}')
echo "push-pull snapshot @1k members: ${pns} ns/op, ${pallocs} allocs/op" >&2

go run ./cmd/lifebench -exp all -scale smoke -quiet -timings=false \
    -parallel "$parallel" -bench-out "$out" -bench-note "$note" >/dev/null

tmp=$(mktemp)
jq --argjson ns "$ns" --argjson allocs "$allocs" \
    --argjson cns "$cns" --argjson callocs "$callocs" \
    --argjson fns "$fns" --argjson fallocs "$fallocs" \
    --argjson pns "$pns" --argjson pallocs "$pallocs" \
    '.[-1].sched_bench = {ns_op: $ns, allocs_op: $allocs}
     | .[-1].codec_bench = {ns_op: $cns, allocs_op: $callocs}
     | .[-1].fanout_bench = {ns_op: $fns, allocs_op: $fallocs}
     | .[-1].pushpull_bench = {ns_op: $pns, allocs_op: $pallocs}' "$out" > "$tmp"
mv "$tmp" "$out"
echo "appended entry '$note' to $out" >&2
