#!/usr/bin/env bash
# Build bfbench into build/perf (the first call builds, later calls find
# it up to date) and run one workload:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Each "--key value" pair becomes bfbench's key=value; key=value arguments
# pass through unchanged. Build output goes to stderr, so the last line on
# stdout is bfbench's JSON result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/../../build/perf"

cmake -S "$here" -B "$build" >&2
cmake --build "$build" -j 4 >&2

args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --*=*)
            args+=("${1#--}")
            shift
            ;;
        --*)
            if [ $# -lt 2 ]; then
                echo "run.sh: $1 needs a value" >&2
                exit 2
            fi
            args+=("${1#--}=$2")
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done
exec "$build/bfbench" "${args[@]}"
