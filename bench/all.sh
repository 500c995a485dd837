#!/bin/sh
# Every workload, end to end then traced, one fresh process per run; prints
# each metric by name and unit.  Usage: sh bench/all.sh [seed] [seconds]
set -e
for workload in reduction-exact cyclic-bounded acyclic-sample; do
    for trace in 0 1; do
        python3 bench/run.py --workload "$workload" --seed "${1:-1}" \
            --seconds "${2:-30}" --trace "$trace" | grep '^#'
    done
done
