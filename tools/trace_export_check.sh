#!/usr/bin/env bash
# Run bench_fig7_rfork with the Chrome-trace exporter armed and check
# one of the fig7_cxlfork_*.json files it writes with trace_json_check.
#
# Usage: trace_export_check.sh <bench_fig7_rfork> <trace_json_check> <prefix>
#
# <prefix> is the CXLFORK_TRACE_JSON file prefix; its directory must
# exist. Stale traces under the prefix are removed first, so a bench
# that stops writing them fails the check.
set -eu

if [ $# -ne 3 ]; then
    echo "usage: $0 <bench_fig7_rfork> <trace_json_check> <prefix>" >&2
    exit 2
fi

bench=$1
check=$2
prefix=$3

rm -f "$prefix"fig7_*.json
CXLFORK_TRACE=1 CXLFORK_TRACE_JSON="$prefix" "$bench" > /dev/null

set -- "$prefix"fig7_cxlfork_*.json
if [ ! -f "$1" ]; then
    echo "trace_export_check: no ${prefix}fig7_cxlfork_*.json written" >&2
    exit 1
fi
exec "$check" "$1"
