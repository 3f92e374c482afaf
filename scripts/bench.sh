#!/usr/bin/env bash
# Wall-clock perf gate for the simulation core (see docs/API.md
# "Simulation core").
#
# Usage:
#   scripts/bench.sh            full google-benchmark microbenchmark run
#   scripts/bench.sh --smoke    timed smoke runs of the event-queue cycle,
#                               the fig-matrix sweep and the multi-tenant,
#                               trace-replay and overload drivers, checked
#                               against the committed BENCH_sim.json by the
#                               rule table in scripts/bench_gate.py
#   scripts/bench.sh --update   re-measure and rewrite BENCH_sim.json
#
# An optional trailing argument overrides the build directory (default:
# build). The smoke gate is wired into scripts/ci.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=full
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --smoke) MODE=smoke ;;
    --update) MODE=update ;;
    -h|--help) sed -n '2,/^[^#]/{/^#/p}' "$0"; exit 0 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target bench_sim_micro -j "$(nproc)"

if [ "$MODE" = full ]; then
  exec "$BUILD_DIR/bench/bench_sim_micro"
fi

cmake --build "$BUILD_DIR" --target bench_fig_matrix bench_multitenant \
  bench_trace_replay bench_overload -j "$(nproc)"
BIN="$BUILD_DIR/bench"
OUT="$BUILD_DIR/BENCH"
# The multi-tenant and overload drivers run ~200 ms of wall clock, so one
# sample is scheduler noise on shared runners: run them three times and
# let the gate keep the best (their sim results never vary).
best_of_3() {
  for i in 1 2 3; do
    "$BIN/bench_$1" --smoke --kvsim_json="${OUT}_$1.json.$i" \
      > "$BUILD_DIR/$1_run.log"
  done
  cat "$BUILD_DIR/$1_run.log"
}
"$BIN/bench_sim_micro" --kvsim_json="${OUT}_sim.json"
"$BIN/bench_fig_matrix" --smoke --threads=8 --kvsim_json="${OUT}_sweep.json"
best_of_3 multitenant
"$BIN/bench_trace_replay" --smoke --kvsim_json="${OUT}_trace_replay.json"
best_of_3 overload
exec python3 scripts/bench_gate.py "$MODE" "$BUILD_DIR" BENCH_sim.json
