#!/usr/bin/env bash
# benchdiff.sh — run the perf-sensitive benchmarks and compare against a
# saved baseline, benchstat-style but dependency-free (awk only).
#
# Usage:
#   scripts/benchdiff.sh baseline            # record baseline.bench
#   scripts/benchdiff.sh compare             # run again, print old vs new
#   scripts/benchdiff.sh diff OLD.bench NEW.bench   # compare two files
#   scripts/benchdiff.sh scale               # diff the last two scale sweeps
#   scripts/benchdiff.sh super               # diff the last two superpage sweeps
#   scripts/benchdiff.sh policy              # diff the last two policy shootout sweeps
#   scripts/benchdiff.sh time                # diff the last two time-engine sweeps
#
# The benchmark set is the delivery plane's hot paths: the fault-path and
# table harness benchmarks, the delivery-plane scaling benchmark, and the
# batched migrate benchmark. Comparison is per benchmark name on
# ns/op; a change beyond +/-5% is flagged. The script never fails the
# build — wall-clock numbers on shared machines are advisory (CI runs it
# non-gating; the gating regression tracker is the virtual-cost model).
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

BASELINE=${BENCHDIFF_BASELINE:-benchdiff-baseline.bench}
COUNT=${BENCHDIFF_COUNT:-3}

run_benches() {
    # best-of-N per benchmark comes from -count; keep each run short.
    go test -bench='Harness' -benchtime=200x -count="$COUNT" -run='^$' .
    go test -bench='DeliveryPlane' -benchtime=2x -count="$COUNT" -run='^$' ./internal/experiments
    go test -bench='BatchMigrate' -benchtime=200x -count="$COUNT" -run='^$' ./internal/kernel
}

# min_ns_per_op FILE -> "name<TAB>min ns/op" per benchmark
min_ns_per_op() {
    awk '/^Benchmark/ && /ns\/op/ {
        name=$1; sub(/-[0-9]+$/, "", name)
        for (i = 2; i <= NF; i++) if ($(i) == "ns/op") v=$(i-1)
        if (!(name in best) || v+0 < best[name]+0) best[name]=v
    }
    END { for (n in best) printf "%s\t%s\n", n, best[n] }' "$1" | sort
}

# cpu_suffix FILE -> the distinct GOMAXPROCS suffixes (-N) seen on
# benchmark names, e.g. "16". Go stamps the procs count into every name.
cpu_suffix() {
    awk '/^Benchmark/ && /ns\/op/ {
        if (match($1, /-[0-9]+$/)) print substr($1, RSTART + 1)
    }' "$1" | sort -un | paste -sd, -
}

diff_files() {
    local old=$1 new=$2
    local oldcpu newcpu
    oldcpu=$(cpu_suffix "$old")
    newcpu=$(cpu_suffix "$new")
    if [[ -n "$oldcpu" && -n "$newcpu" && "$oldcpu" != "$newcpu" ]]; then
        echo "warning: comparing runs at different proc counts (old: $oldcpu, new: $newcpu); ns/op deltas are not comparable" >&2
    fi
    join -t "$(printf '\t')" <(min_ns_per_op "$old") <(min_ns_per_op "$new") |
    awk -F '\t' 'BEGIN {
        printf "%-40s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta"
    }
    {
        delta = ($2+0 > 0) ? ($3 - $2) / $2 * 100 : 0
        flag = (delta > 5 || delta < -5) ? (delta > 0 ? "  <-- slower" : "  <-- faster") : ""
        printf "%-40s %14.1f %14.1f %8.1f%%%s\n", $1, $2, $3, delta, flag
    }'
}

case "${1:-compare}" in
baseline)
    run_benches | tee "$BASELINE"
    echo "baseline saved to $BASELINE"
    ;;
compare)
    if [[ ! -f "$BASELINE" ]]; then
        echo "no baseline at $BASELINE; run: scripts/benchdiff.sh baseline" >&2
        exit 1
    fi
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    run_benches | tee "$tmp"
    echo
    diff_files "$BASELINE" "$tmp"
    ;;
diff)
    diff_files "${2:?usage: benchdiff.sh diff OLD.bench NEW.bench}" "${3:?usage: benchdiff.sh diff OLD.bench NEW.bench}"
    ;;
scale)
    # Per-cell diff (wall faults/s, allocs/fault, and the p50/p99 fault
    # latency columns) of the last two sweeps recorded in BENCH_scale.json.
    # Vectored multi-driver cells carry their driver count and vector flag
    # in the cell key, so they never collide with the plain matrix. The
    # diff header prints each sweep's recorded CPU count and warns when
    # they differ — wall-clock deltas across different hosts are noise.
    # Advisory like everything else here: never fails the build.
    go run ./cmd/reproduce -scalediff || true
    ;;
super)
    # Per-cell diff (wall faults/s and allocs/fault; cells keyed by extent
    # order so base and super arms never collide) of the last two sweeps
    # recorded in BENCH_super.json. Advisory: never fails the build.
    go run ./cmd/reproduce -superdiff || true
    ;;
policy)
    # Per-cell diff (hit rate and model fault latency) of the last two
    # sweeps recorded in BENCH_policy.json. Hit rates are virtual-time
    # deterministic, so a flagged regression here is a real behaviour
    # change, not machine noise — still advisory, never fails the build.
    go run ./cmd/reproduce -policydiff || true
    ;;
time)
    # Per-cell diff (model and wall events/s) of the last two sweeps
    # recorded in BENCH_time.json. Model events/s are virtual-time
    # deterministic; wall events/s are advisory. Never fails the build.
    go run ./cmd/reproduce -timediff || true
    ;;
*)
    echo "usage: benchdiff.sh [baseline|compare|diff OLD NEW|scale|super|policy|time]" >&2
    exit 2
    ;;
esac
