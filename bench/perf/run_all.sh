#!/usr/bin/env bash
# Run every workload once, one after another, into a results directory
# that compare.py reads:
#
#   bash bench/perf/run_all.sh DIR [seed=N] [trace=1] [seconds=S] ...
#
# Extra key=value arguments go to every bfbench run. Each run writes
# DIR/<workload>.<k>.json (its out= document) and DIR/<workload>.<k>.txt
# (its report); k counts up, so calling this again adds runs instead of
# replacing them. Exits non-zero when any run failed.
set -uo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ $# -lt 1 ]; then
    echo "usage: run_all.sh DIR [key=value ...]" >&2
    exit 2
fi
dir=$1
shift
mkdir -p "$dir"

status=0
for w in fig4-hw fig4-sw table1-kernels faulted-fuzz; do
    k=0
    while [ -e "$dir/$w.$k.json" ]; do
        k=$((k + 1))
    done
    bash "$here/run.sh" workload="$w" out="$dir/$w.$k.json" "$@" \
        > "$dir/$w.$k.txt" || status=1
    echo "$w: $(tail -n 1 "$dir/$w.$k.txt")"
done
exit $status
