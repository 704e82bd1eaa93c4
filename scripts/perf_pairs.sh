#!/usr/bin/env bash
# Alternating perfbench pairs: a parent revision against the working tree.
#
#   scripts/perf_pairs.sh <parent-rev> <workload> <seed> <pairs> [seconds]
#
# Extracts <parent-rev> (with `git archive`) under target/perf-pairs/,
# builds its perfbench and the working tree's (release, offline; see
# perf_common.sh), then runs <pairs> alternating parent/change
# `--trace 0` runs of <seconds> (default 30) each. Prints each run's
# end-to-end JSON line and its machine-speed probe line, then per metric
# the median of each side and the change/parent ratio. Exits non-zero if
# a run fails or any run reports "correct": false.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <parent-rev> <workload> <seed> <pairs> [seconds]" >&2
    exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4 seconds=${5:-30}

. "$(dirname "$0")/perf_common.sh"
extract_and_build "$rev"

# perfbench writes below `.perfbench/` in its working directory.
run_dir="$base/run"
mkdir -p "$run_dir"
results="$run_dir/results.txt"
: >"$results"
status=0
for ((i = 1; i <= pairs; i++)); do
    for side in parent change; do
        if [ "$side" = parent ]; then dir=$parent; else dir=$root; fi
        out=$(cd "$run_dir" && "$dir/perfbench/target/release/perfbench" \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) ||
            status=1
        line=$(tail -n 1 <<<"$out")
        echo "pair $i $side: $line"
        # The machine-speed probes the run divided its timings by.
        grep 'machine slowdown' <<<"$out" || true
        case $line in
        *'"correct": true'*) ;;
        *) status=1 ;;
        esac
        grep -o '"[a-z0-9_.]*": {"value": [-0-9.eE+]*' <<<"$line" |
            sed "s/^\"\([^\"]*\)\": {\"value\": /$side \1 /" >>"$results" || true
    done
done

median() {
    awk -v side="$1" -v metric="$2" '$1 == side && $2 == metric { print $3 }' "$results" |
        sort -g |
        awk '{ v[NR] = $1 } END { if (NR) print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }'
}

echo
printf '%-16s %16s %16s %10s\n' metric parent change ratio
for metric in $(awk '$1 == "parent" && !seen[$2]++ { print $2 }' "$results"); do
    p=$(median parent "$metric")
    c=$(median change "$metric")
    awk -v m="$metric" -v p="$p" -v c="${c:-0}" 'BEGIN {
        printf "%-16s %16.6g %16.6g %10s\n", m, p, c, (p != 0 ? sprintf("%.4f", c / p) : "-")
    }'
done
if [ "$status" -ne 0 ]; then
    echo "perf_pairs: a run failed or reported \"correct\": false" >&2
fi
exit "$status"
