#!/usr/bin/env bash
# Runs every workload RUNS times into OUT, one fresh process per run,
# with seeds FIRST, FIRST+1, ...; ORDER "reverse" runs the workloads in
# reverse order within each round. Run it from the root of the
# checkout, then compare two sets with
#
#   bash benchmark/run.sh -compare OUT_A OUT_B
#
# Usage: bash benchmark/sets.sh OUT RUNS FIRST [forward|reverse]
set -euo pipefail
out=$1 runs=$2 first=$3 order=${4:-forward}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=(solve-bp solve-mr serve-unique serve-repeat)
if [ "$order" = reverse ]; then
    workloads=(serve-repeat serve-unique solve-mr solve-bp)
fi
mkdir -p "$out"
for ((i = 0; i < runs; i++)); do
    seed=$((first + i))
    for w in "${workloads[@]}"; do
        bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$w.$seed.json"
    done
done
