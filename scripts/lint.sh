#!/usr/bin/env bash
# Static-analysis gate for the simulator. Runs, in order:
#
#   1. clang-tidy with the repo's curated .clang-tidy check set (skipped
#      with a notice when clang-tidy is not installed — the container
#      image ships only the LLVM backend tools);
#   2. scripts/check_async_captures.py, the repo-specific detector for
#      self-keeping async closure chains (pure Python, always runs),
#      including its fixture self-test;
#   3. scripts/check_thread_confinement.py, the KVSIM_THREAD_CONFINED
#      gate (confined types must not gain static storage, shared
#      ownership, or cross a thread boundary by reference), including
#      its fixture self-test;
#   4. with --format: clang-format --dry-run over the tree (skipped with
#      a notice when clang-format is missing).
#
# Usage: scripts/lint.sh [--format] [--tidy-only] [build-dir]
# Exit status: nonzero if any available tool reports a violation.
set -uo pipefail

cd "$(dirname "$0")/.."

CHECK_FORMAT=0
TIDY_ONLY=0
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --format) CHECK_FORMAT=1 ;;
    --tidy-only) TIDY_ONLY=1 ;;
    -h|--help) sed -n '2,/^[^#]/{/^#/p}' "$0"; exit 0 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

FAILED=0
note() { printf '\n== %s ==\n' "$*"; }

sources() {
  find src bench tests examples -name lint_fixtures -prune -o \
    \( -name '*.cc' -o -name '*.cpp' -o -name '*.h' \) -print | sort
}

# --- 1. clang-tidy -----------------------------------------------------------
note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  # clang-tidy needs a compilation database; generate one on demand.
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  if ! sources | grep -v '\.h$' | \
      xargs clang-tidy -p "$BUILD_DIR" --quiet; then
    FAILED=1
  fi
else
  echo "clang-tidy not installed; skipping (config: .clang-tidy)"
fi

if [ "$TIDY_ONLY" = 1 ]; then exit "$FAILED"; fi

# --- 2. async-capture checker ------------------------------------------------
note "check_async_captures"
if ! python3 scripts/check_async_captures.py --self-test; then
  FAILED=1
fi
if ! python3 scripts/check_async_captures.py; then
  FAILED=1
fi

# --- 3. thread-confinement checker -------------------------------------------
note "check_thread_confinement"
if ! python3 scripts/check_thread_confinement.py --self-test; then
  FAILED=1
fi
if ! python3 scripts/check_thread_confinement.py src bench tests; then
  FAILED=1
fi

# --- 4. formatting (opt-in) --------------------------------------------------
if [ "$CHECK_FORMAT" = 1 ]; then
  note "clang-format"
  if command -v clang-format >/dev/null 2>&1; then
    if ! sources | xargs clang-format --dry-run -Werror; then
      FAILED=1
    fi
  else
    echo "clang-format not installed; skipping (config: .clang-format)"
  fi
fi

if [ "$FAILED" = 0 ]; then
  echo
  echo "lint: clean"
else
  echo
  echo "lint: violations found" >&2
fi
exit "$FAILED"
