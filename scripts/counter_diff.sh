#!/usr/bin/env bash
# Exact-counter comparison: a parent revision against the working tree.
#
#   scripts/counter_diff.sh <parent-rev> <workload> <seed> [seconds]
#
# Builds both trees' perfbench as scripts/perf_pairs.sh does (see
# perf_common.sh), then runs one traced fixed-work run (`--trace 1`,
# <seconds> of work, default 30) per side. Compares every counter and
# every timer's count in .perfbench/<workload>-seed<seed>-metrics.json;
# timer totals are wall time and are left out. Prints each difference as
# `<kind>:<name> <parent> <change>` ("-" where one side lacks it) and
# exits non-zero if there is any, or if a run fails or reports
# "correct": false.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-rev> <workload> <seed> [seconds]" >&2
    exit 2
fi
rev=$1 workload=$2 seed=$3 seconds=${4:-30}

. "$(dirname "$0")/perf_common.sh"
extract_and_build "$rev"

# One `counter:<name> <value>` or `timer:<name> <count>` line per entry of
# a metrics file, sorted for `join`.
flatten() {
    awk '
        /^  "counters": \{/ { kind = "counter"; next }
        /^  "timers": \{/ { kind = "timer"; next }
        kind == "counter" && /^    "/ { gsub(/[",:]/, " "); print "counter:" $1, $2 }
        kind == "timer" && /^    "/ { gsub(/[",:{]/, " "); name = $1 }
        kind == "timer" && /^      "count":/ { gsub(/[",:]/, " "); print "timer:" name, $2 }
    ' "$1" | LC_ALL=C sort
}

status=0
for side in parent change; do
    if [ "$side" = parent ]; then dir=$parent; else dir=$root; fi
    # perfbench writes below `.perfbench/` in its working directory.
    run_dir="$base/counter-diff/$side"
    metrics="$run_dir/.perfbench/$workload-seed$seed-metrics.json"
    mkdir -p "$run_dir"
    rm -f "$metrics"
    line=$(cd "$run_dir" && "$dir/perfbench/target/release/perfbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 | tail -n 1) || true
    echo "$side: $line"
    case $line in
    *'"correct": true'*) ;;
    *)
        echo "counter_diff: the $side run failed or reported \"correct\": false" >&2
        status=1
        ;;
    esac
    if [ -f "$metrics" ]; then flatten "$metrics"; fi >"$run_dir/flat.txt"
done

diffs=$(LC_ALL=C join -a 1 -a 2 -e - -o 0,1.2,2.2 \
    "$base/counter-diff/parent/flat.txt" "$base/counter-diff/change/flat.txt" |
    awk '$2 != $3')
echo
if [ -n "$diffs" ]; then
    printf '%s\n' "$diffs"
    echo "counter_diff: $(wc -l <<<"$diffs") counter(s) or timer count(s) differ" >&2
    status=1
else
    echo "counter_diff: all $(wc -l <"$base/counter-diff/parent/flat.txt") counters and timer counts are identical"
fi
exit "$status"
