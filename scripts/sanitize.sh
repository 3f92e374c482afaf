#!/usr/bin/env bash
# Build and run the tier-1 test suite under sanitizers.
#
# Default: AddressSanitizer + UndefinedBehaviorSanitizer (the
# KVSIM_SANITIZE CMake option) over the whole suite.
#
# --tsan: ThreadSanitizer (the KVSIM_TSAN CMake option) over the
# concurrency surface — the SweepRunner tests plus the fig-matrix sweep
# driver in smoke mode. The simulator core is single-threaded by
# contract (see docs/API.md "Concurrency model"), so TSan earns its keep
# exactly where threads exist: the sweep pool and its merge path.
#
# Usage: scripts/sanitize.sh [--tsan] [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=asan
BUILD_DIR=
for arg in "$@"; do
  case "$arg" in
    --tsan) MODE=tsan ;;
    -h|--help) sed -n '2,/^[^#]/{/^#/p}' "$0"; exit 0 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

if [ "$MODE" = tsan ]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DKVSIM_TSAN=ON
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target sweep_test --target bench_fig_matrix

  # halt_on_error: any race report fails the gate immediately.
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

  "$BUILD_DIR/tests/sweep_test"
  "$BUILD_DIR/bench/bench_fig_matrix" --smoke --threads=4
  echo "tsan sweep suite passed"
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-build-sanitize}"
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DKVSIM_SANITIZE=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error: any sanitizer report fails the suite.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
echo "sanitized test suite passed"
