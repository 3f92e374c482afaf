#include "harness/sweep.h"

#include <algorithm>
#include <thread>

#include "common/rng.h"

namespace kvsim::harness {

SweepRunner::SweepRunner(Options opts)
    : threads_(opts.threads ? opts.threads
                            : std::max(1u, std::thread::hardware_concurrency())) {}

u64 SweepRunner::cell_seed(u64 base_seed, u64 cell_index) {
  // splitmix64 over a mixed state: adjacent (base, index) pairs land far
  // apart, and index 0 does not collapse onto the base seed itself.
  u64 state = base_seed ^ (0x9e3779b97f4a7c15ull * (cell_index + 1));
  return splitmix64(state);
}

void SweepRunner::worker(Shared& sh) {
  for (;;) {
    u64 index;
    {
      MutexLock lk(sh.mu);
      if (sh.stop || sh.next >= sh.cells->size()) return;
      index = sh.next++;
      ++sh.started;
    }
    const SweepCell& cell = (*sh.cells)[index];
    try {
      // The callable constructs, drives, and destroys its private
      // simulator; only the plain-data result crosses back.
      SweepCellResult out{.label = cell.label};
      if (cell.run_mix) {
        out.is_mix = true;
        out.mix = cell.run_mix();
      } else {
        out.result = cell.run();
      }
      (*sh.results)[index] = std::move(out);
    } catch (...) {
      MutexLock lk(sh.mu);
      // Keep the lowest-indexed failure so the rethrown exception does
      // not depend on which worker lost the race.
      if (!sh.error || index < sh.error_cell) {
        sh.error = std::current_exception();
        sh.error_cell = index;
      }
      sh.stop = true;
    }
  }
}

std::vector<SweepCellResult> SweepRunner::run(std::vector<SweepCell> cells) {
  std::vector<SweepCellResult> results(cells.size());
  if (cells.empty()) return results;

  Shared sh;
  sh.cells = &cells;
  sh.results = &results;

  const u32 width = (u32)std::min<size_t>(threads_, cells.size());
  if (width <= 1) {
    worker(sh);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(width);
    for (u32 t = 0; t < width; ++t)
      pool.emplace_back([&sh] { worker(sh); });
    for (auto& th : pool) th.join();
  }

  std::exception_ptr error;
  {
    MutexLock lk(sh.mu);
    cells_started_ += sh.started;
    error = sh.error;
  }
  if (error) std::rethrow_exception(error);
  return results;
}

void add_sweep_results(BenchReport& report,
                       const std::vector<SweepCellResult>& results) {
  for (const auto& r : results) {
    if (r.is_mix) {
      report.add_mix(r.label, r.mix);
    } else {
      report.add_run(r.label, r.result);
    }
  }
}

}  // namespace kvsim::harness
