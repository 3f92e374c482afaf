#!/usr/bin/env bash
# The full pre-merge gate, in the order a failure is cheapest to find:
#
#   1. configure + build (default flags) and run the tier-1 test suite;
#   2. static analysis: scripts/lint.sh (clang-tidy when installed, the
#      async-capture checker always) plus the format check;
#   3. the same test suite compiled with -DKVSIM_AUDIT=ON, so every
#      workload the tests run is cross-checked against the shadow
#      invariant auditors (see docs/API.md "Developing");
#   4. the seeded fault smoke: the fault-injection test slice re-run on
#      the audit build (deterministic plans, non-zero recovery counters,
#      zero invariant violations);
#   5. the crash-sweep smoke: power-loss cuts + mount-time recovery on
#      all three beds, differential-checked on the audit build;
#   5b. the trace smoke: record->replay fidelity on the audit build
#      (capturing a run to `.kvt` and replaying it must reproduce the
#      BenchReport byte-identically on all three beds), plus the codec's
#      corruption-rejection slice;
#   5c. the multi-tenant smoke: WRR fairness and noisy-neighbor
#      isolation scenarios (bench_multitenant --smoke) on the audit
#      build, shape-checked against the acceptance bounds;
#   5d. the overload smoke: open-loop offered-load sweeps with and
#      without SLO admission control (bench_overload --smoke) on the
#      audit build, shape-checked against the graceful-degradation
#      contract (protected p99 holds the target at 2x saturating load,
#      bounded shed, unprotected p99 blows past 5x);
#   6. the sweep smoke: the fig-matrix driver fanned across an
#      8-thread SweepRunner pool, shape-checking that the merged JSON is
#      byte-identical to the single-thread pass;
#   6b. the cache-path shape smoke: bench_fig3_index_occupancy (index
#      segment cache spilling to flash), bench_ablation_design (the
#      KV blob cache turned on), bench_fig5_packing_bandwidth (blobs
#      split into multiple chunks) and bench_fig6_foreground_gc (KV-SSD
#      GC churn through the blob table), shape-checked on the release
#      build;
#   7. the simulation-core perf smoke (scripts/bench.sh --smoke), failing
#      on >20% events/sec regression vs the committed BENCH_sim.json (and
#      on sweep-scaling regression vs its committed baseline);
#   7b. the benchmark smoke: every BENCHMARK.json workload through
#      perfbench/run.py (3 reps at seed 1), failing unless its result
#      line reports "correct": true and "failed": 0;
#   7c. the audited benchmark smoke: perfbench/ built with
#      -DKVSIM_AUDIT=1 runs the block-bed workloads (lsm_ycsb_a,
#      hashkv_read_mt) at seed 1 under the shadow auditors, with the same
#      "correct": true / "failed": 0 requirement;
#   8. the suite under ASan/UBSan via scripts/sanitize.sh;
#   9. the sweep tests + driver under TSan via scripts/sanitize.sh --tsan.
#
# Usage: scripts/ci.sh [--fast]
#   --fast  skip the sanitizer passes (slowest stages) for quick local runs.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    -h|--help) sed -n '2,/^[^#]/{/^#/p}' "$0"; exit 0 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

stage() { printf '\n=== ci: %s ===\n' "$*"; }

# Read a kvbench JSON result line on stdin; fail unless it reports a
# correct, failure-free run of workload $1.
require_clean_result() {
  python3 -c 'import json, sys
r = json.loads(sys.stdin.read())
print("%s: correct=%s failed=%s" % (sys.argv[1], r.get("correct"), r.get("failed")))
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' "$1"
}

# Tests are independent processes; run them wider than the core count
# (floor 4) so the many tiny binaries don't serialize on small runners.
JOBS=$(nproc)
[ "$JOBS" -lt 4 ] && JOBS=4

stage "build + tier-1 tests"
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build -j "$(nproc)"
ctest --test-dir build -j "$JOBS" --output-on-failure

stage "lint"
scripts/lint.sh --format build

stage "KVSIM_AUDIT=ON tests"
cmake -B build-audit -S . -DKVSIM_AUDIT=ON
cmake --build build-audit -j "$(nproc)"
ctest --test-dir build-audit -j "$JOBS" --output-on-failure

stage "seeded fault smoke (audit build)"
# End-to-end fault drill under the shadow auditors: a fixed seeded plan
# must produce deterministic reports, non-zero recovery counters (grown
# bad blocks, remaps, re-programs, host retries), and zero invariant
# violations. The same binary runs in stage 3; re-running the fault
# slice here keeps the gate visible when the suite grows.
./build-audit/tests/fault_test \
  --gtest_filter='FaultDeterminism.*:FaultRecovery.*:FaultFree.*'

stage "crash-sweep smoke (audit build)"
# Power-loss drill under the shadow auditors: cut the queue at several
# depths on all three beds, mount, and differential-check the recovered
# state against the per-key write oracle (no corruption, drained data
# survives exactly, deterministic recovery counters).
./build-audit/tests/crash_recovery_test --gtest_filter='CrashSweep*:*/CrashSweep.*:CrashRecovery.*'

stage "trace smoke (audit build)"
# The trace subsystem's fidelity gate under the shadow auditors: a run
# captured at dispatch and replayed through TraceOpSource must produce
# the exact same serialized report on every bed, and the `.kvt` codec
# must reject truncated/corrupt streams rather than decode garbage.
./build-audit/tests/trace_replay_test --gtest_filter='TraceFidelity.*'
./build-audit/tests/trace_codec_test --gtest_filter='KvtCodec.*'

stage "multi-tenant smoke (audit build)"
# The multi-queue front-end's acceptance gates under the shadow
# auditors: 16-tenant WRR throughput proportional to weights within 5%,
# and the noisy-neighbor victim's p99 bounded on an isolated weighted
# queue vs inflated on a shared one, on all three beds.
cmake --build build-audit -j "$(nproc)" --target bench_multitenant
./build-audit/bench/bench_multitenant --smoke

stage "overload smoke (audit build)"
# The overload subsystem's acceptance gates under the shadow auditors:
# on every bed, at 2x the calibrated saturation load, the SLO-protected
# open-loop run must hold its p99 target with a bounded shed fraction
# while the unprotected run's p99 blows past 5x the target.
cmake --build build-audit -j "$(nproc)" --target bench_overload
./build-audit/bench/bench_overload --smoke

stage "sweep smoke"
# The parallel sweep engine's determinism gate: the fig-matrix driver
# runs its cells at 1 thread and at 8 and fails unless the merged
# BenchReport JSON is byte-identical (scheduling must be invisible).
cmake --build build -j "$(nproc)" --target bench_fig_matrix
./build/bench/bench_fig_matrix --smoke --threads=8

stage "cache-path shape smoke"
# The only benches that push the KV-FTL index segment cache into flash
# spill (Fig. 3) and that turn the KV blob cache on (ablation A6), plus
# the ones that drive the blob table through split multi-chunk blobs
# (Fig. 5) and through KV-SSD GC churn (Fig. 6); each exits nonzero when
# a shape check fails.
cmake --build build -j "$(nproc)" --target bench_fig3_index_occupancy \
  bench_ablation_design bench_fig5_packing_bandwidth bench_fig6_foreground_gc
./build/bench/bench_fig3_index_occupancy
./build/bench/bench_ablation_design
./build/bench/bench_fig5_packing_bandwidth
./build/bench/bench_fig6_foreground_gc

stage "bench smoke"
scripts/bench.sh --smoke

stage "benchmark smoke"
# The repo benchmark builds perfbench/ against src/, and its
# ForwardingStack overrides every KvStack virtual: an interface change
# can break it without any tier-1 test noticing. Each workload must
# build, run, and end with a correct, failure-free JSON result line.
for w in $(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 0 --trace 0 |
    tail -n 1 | require_clean_result "$w"
done

stage "benchmark smoke (audit build)"
# The LSM flush/compaction loops and the hash-log flush under the shadow
# auditors at benchmark scale. perfbench/ is a standalone project with no
# KVSIM_AUDIT option, so the define goes in through CMAKE_CXX_FLAGS, into
# a build directory of its own. kvssd_update_gc is left out: on the audit
# build it aborts at seeds 1-3 with "[KVSIM_AUDIT] flash: read of
# erased/unwritten page" (the KV-FTL GC placement defect, ROADMAP item 1).
# Add it here once that defect is fixed.
cmake -S perfbench -B build-audit-perfbench -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-DKVSIM_AUDIT=1
cmake --build build-audit-perfbench -j "$(nproc)" --target kvbench
for w in lsm_ycsb_a hashkv_read_mt; do
  ./build-audit-perfbench/kvbench --workload "$w" --seed 1 --seconds 0 \
    --trace 0 | tail -n 1 | require_clean_result "$w"
done

if [ "$FAST" = 0 ]; then
  stage "sanitizers (ASan/UBSan)"
  scripts/sanitize.sh
  stage "sanitizers (TSan sweep suite)"
  scripts/sanitize.sh --tsan
else
  stage "sanitizers skipped (--fast)"
fi

stage "all gates passed"
