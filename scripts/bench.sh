#!/usr/bin/env bash
# Run the benchalign perf harness on the paper's fig. 2 configurations
# and append the results to a BENCH_*.json document at the repo root.
#
# Usage:
#   scripts/bench.sh [label] [out.json]
#
#   label     label recorded on each run entry (default: dev)
#   out.json  document to append to (default: BENCH_dev.json, or
#             BENCH_<label>.json when a label is given)
#
# Environment:
#   THREADS   comma-separated thread counts   (default: 1,8)
#   ITERS     solver iterations per run       (default: 40)
#   REPS      repetitions, fastest reported   (default: 3)
#   CONFIGS   space-separated config names    (default: "fig2-bp fig2-mr")
#   CHECK     when non-empty, also gate allocs/iter against the
#             $BASELINE_LABEL-labeled entries (default "baseline") of
#             $CHECK_DOC (default: the output document), with ratio
#             limit $MAX_ALLOC_RATIO (default 1.2)
#
# Examples:
#   scripts/bench.sh                       # quick dev run
#   scripts/bench.sh pr3 BENCH_pr3.json    # record a PR's runs
#   CHECK=1 scripts/bench.sh ci BENCH_ci.json
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:-dev}"
OUT="${2:-BENCH_${LABEL}.json}"
THREADS="${THREADS:-1,8}"
ITERS="${ITERS:-40}"
REPS="${REPS:-3}"
CONFIGS="${CONFIGS:-fig2-bp fig2-mr}"
MAX_ALLOC_RATIO="${MAX_ALLOC_RATIO:-1.2}"
BASELINE_LABEL="${BASELINE_LABEL:-baseline}"
CHECK_DOC="${CHECK_DOC:-$OUT}"

BIN="$(mktemp -d)/benchalign"
trap 'rm -rf "$(dirname "$BIN")"' EXIT
go build -o "$BIN" ./cmd/benchalign

for cfg in $CONFIGS; do
    "$BIN" -config "$cfg" -threads "$THREADS" -iters "$ITERS" -reps "$REPS" \
        -label "$LABEL" -out "$OUT"
done

if [ -n "${CHECK:-}" ]; then
    for cfg in $CONFIGS; do
        "$BIN" -config "$cfg" -threads "$THREADS" -iters "$ITERS" -reps 1 \
            -check "$CHECK_DOC" -baseline-label "$BASELINE_LABEL" \
            -max-alloc-ratio "$MAX_ALLOC_RATIO"
    done
fi
