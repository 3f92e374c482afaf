// Parallel parameter-sweep engine: fans independent (config, seed) cells
// across a std::thread pool and merges results deterministically.
//
// The concurrency model (docs/API.md "Concurrency model") is confinement:
// the entire simulator object graph — EventQueue, FlashController, FTLs,
// beds — is single-threaded machinery with no internal locking, so a cell
// must construct every simulator object it touches *inside* its own
// callable and let it die there. Nothing simulator-shaped crosses the
// pool boundary; only plain-data RunResults come back. The pieces that
// ARE shared across threads (the work-queue cursor and the error sink)
// live behind an annotated kvsim::Mutex and are checked by Clang's
// -Wthread-safety; scripts/check_thread_confinement.py rejects confined
// types captured by reference into a cell.
//
// Determinism: results are merged keyed by cell index, never by
// completion order, and per-cell RNG seeds derive from (base_seed, cell
// index) alone — the merged BenchReport JSON is byte-identical for any
// thread count, including --threads=1 vs --threads=N (tested by
// sweep_test, raced under TSan via scripts/sanitize.sh --tsan).
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "harness/report.h"
#include "harness/runner.h"

namespace kvsim::harness {

/// One independent unit of a sweep. Exactly one of `run` / `run_mix`
/// executes on a pool thread: it must own all simulator state privately
/// (construct the bed inside the callable) and return the cell's
/// observables by value. `run_mix` cells return a full MixResult
/// (per-tenant and per-queue splits) and merge via BenchReport::add_mix.
struct SweepCell {
  std::string label;
  std::function<RunResult()> run;
  std::function<MixResult()> run_mix;
};

/// Build a cell. Prefer this helper over aggregate-initializing SweepCell
/// directly: the construction site is a thread boundary, and the
/// confinement checker keys on `sweep_cell(` / `sweep_mix_cell(` /
/// `SweepCell{` to verify the callable's captures (no reference captures
/// of confined types, no default capture lists).
inline SweepCell sweep_cell(std::string label,
                            std::function<RunResult()> run) {
  return SweepCell{std::move(label), std::move(run), nullptr};
}

/// Build a multi-tenant cell (same thread-boundary rules as sweep_cell).
inline SweepCell sweep_mix_cell(std::string label,
                                std::function<MixResult()> run_mix) {
  return SweepCell{std::move(label), nullptr, std::move(run_mix)};
}

/// Build a cell that drives an OpSource (trace replay, trace-fitted
/// synthesis, ...) through a privately constructed stack. This is the
/// op-source-shaped thread boundary: `make_stack` runs on the pool
/// thread and must build the entire simulator inside the call;
/// `source` and `shape` are copyable plain data, so they are safe to
/// carry across — the confined OpSource itself is only minted inside
/// the cell, by run_workload. `shape` supplies the serving shape
/// (key_bytes, key_space, queue_depth); the source decides the length.
inline SweepCell sweep_source_cell(
    std::string label, std::function<std::unique_ptr<KvStack>()> make_stack,
    wl::WorkloadSpec shape, wl::OpSourceFactory source,
    RunOptions opts = {}) {
  return sweep_cell(
      std::move(label),
      [make_stack = std::move(make_stack), shape, source = std::move(source),
       opts]() -> RunResult {
        std::unique_ptr<KvStack> stack = make_stack();
        return run_workload(*stack, shape, source, opts);
      });
}

/// A finished cell, back on the caller's thread. A plain cell's result is
/// `result`; a mix cell's whole MixResult is `mix`. is_mix routes the
/// merge.
struct SweepCellResult {
  std::string label;
  RunResult result;
  bool is_mix = false;
  MixResult mix;
};

/// Runs sweeps of independent cells on a pool of std::threads.
///
/// Cells are claimed from a shared cursor, executed with fully private
/// simulator state, and written to index-keyed result slots. run()
/// blocks until every claimed cell finished; if a cell throws, the pool
/// stops claiming new cells, drains, and run() rethrows the exception
/// from the lowest-indexed failing cell (deterministic under races).
class SweepRunner {
 public:
  KVSIM_THREAD_CONFINED;  // drive a given runner from one thread only

  struct Options {
    /// Pool width; 0 = std::thread::hardware_concurrency() (min 1).
    u32 threads = 0;
  };

  SweepRunner() : SweepRunner(Options{}) {}
  explicit SweepRunner(Options opts);
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Execute every cell and return results ordered by cell index,
  /// regardless of completion order. Reusable: each call is an
  /// independent sweep.
  std::vector<SweepCellResult> run(std::vector<SweepCell> cells);

  /// Pool width this runner was resolved to.
  [[nodiscard]] u32 threads() const { return threads_; }

  /// Cells claimed by workers over this runner's lifetime (a cell that
  /// throws still counts; cells skipped after an error do not).
  [[nodiscard]] u64 cells_started() const { return cells_started_; }

  /// Deterministic per-cell seed: a splitmix64 mix of (base_seed, cell
  /// index). Cells must derive every random stream from this — never
  /// from a shared RNG, whose draw order would depend on scheduling.
  [[nodiscard]] static u64 cell_seed(u64 base_seed, u64 cell_index);

 private:
  /// State shared by the pool threads for the duration of one run().
  /// Result slots are index-disjoint (each written by exactly one cell
  /// owner); everything else is guarded by `mu`.
  struct Shared {
    const std::vector<SweepCell>* cells = nullptr;
    std::vector<SweepCellResult>* results = nullptr;

    Mutex mu;
    u64 next KVSIM_GUARDED_BY(mu) = 0;          ///< work-queue cursor
    bool stop KVSIM_GUARDED_BY(mu) = false;     ///< set on first error
    u64 started KVSIM_GUARDED_BY(mu) = 0;       ///< cells claimed
    std::exception_ptr error KVSIM_GUARDED_BY(mu);
    u64 error_cell KVSIM_GUARDED_BY(mu) = ~0ull;
  };

  /// Pool thread body: claim cells until the cursor drains or an error
  /// stops the sweep. Static on purpose — the runner itself is
  /// thread-confined, so workers may touch only `sh`.
  static void worker(Shared& sh) KVSIM_EXCLUDES(sh.mu);

  u32 threads_;
  u64 cells_started_ = 0;
};

/// Merge sweep results into `report` in cell-index order (the only merge
/// order that keeps the document byte-identical across thread counts).
void add_sweep_results(BenchReport& report,
                       const std::vector<SweepCellResult>& results);

}  // namespace kvsim::harness
