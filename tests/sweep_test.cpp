// Tests for the parallel sweep engine (harness::SweepRunner): merged
// reports must be byte-identical across thread counts, per-cell seeds
// must isolate cells from their neighbors, and errors must propagate
// deterministically while shutting the pool down cleanly. These are the
// invariants docs/API.md "Concurrency model" promises; scripts/
// sanitize.sh --tsan re-runs this binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "harness/runner.h"
#include "harness/stacks.h"
#include "harness/sweep.h"
#include "workload/trace.h"

namespace kvsim::harness {
namespace {

ssd::SsdConfig tiny_dev() {
  ssd::SsdConfig d;
  d.geometry.channels = 2;
  d.geometry.dies_per_channel = 2;
  d.geometry.planes_per_die = 2;
  d.geometry.blocks_per_plane = 16;
  d.geometry.pages_per_block = 16;
  return d;
}

// A real simulator cell: builds a private KvssdBed inside the callable
// (the confinement contract), runs a small mixed workload, and returns
// only the plain-data result.
RunResult run_kvssd_cell(u32 value_bytes, u64 seed) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 1000, 16, value_bytes, 32);
  wl::WorkloadSpec spec;
  spec.num_ops = 1500;
  spec.key_space = 1000;
  spec.key_bytes = 16;
  spec.value_bytes = value_bytes;
  spec.mix = {0.2, 0.3, 0.5, 0};
  spec.queue_depth = 16;
  spec.seed = seed;
  return run_workload(bed, spec, {.drain_after = true});
}

std::vector<SweepCell> matrix_cells(u64 base_seed) {
  std::vector<SweepCell> cells;
  u64 index = 0;
  for (u32 value_bytes : {512u, 2048u, 4096u}) {
    const u64 seed = SweepRunner::cell_seed(base_seed, index++);
    cells.push_back(sweep_cell("kvssd/v" + std::to_string(value_bytes),
                               [value_bytes, seed] {
                                 return run_kvssd_cell(value_bytes, seed);
                               }));
  }
  return cells;
}

std::string merged_json(u32 threads) {
  SweepRunner runner(SweepRunner::Options{.threads = threads});
  auto results = runner.run(matrix_cells(/*base_seed=*/42));
  BenchReport report("sweep_test");
  add_sweep_results(report, results);
  return report.to_json();
}

TEST(SweepRunner, MergedJsonThreadCountInvariance) {
  // The tentpole determinism claim: the merged document is byte-equal
  // no matter how the cells were scheduled across threads.
  const std::string j1 = merged_json(1);
  const std::string j4 = merged_json(4);
  EXPECT_EQ(j1, j4);
}

// A multi-tenant cell: private bed, two tenants on a two-queue link.
MixResult run_mix_cell(u32 value_bytes, u64 seed) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  c.nvme.num_queues = 2;
  c.nvme.queue_weights = {4, 1};
  KvssdBed bed(c);
  (void)fill_stack(bed, 1000, 16, value_bytes, 32);
  wl::TenantMix mix;
  for (u32 i = 0; i < 2; ++i) {
    wl::TenantSpec t;
    t.nsid = (u8)(i + 1);
    t.queue = i;
    t.weight = i == 0 ? 4 : 1;
    t.spec.num_ops = 800;
    t.spec.key_space = 1000;
    t.spec.key_bytes = 16;
    t.spec.value_bytes = value_bytes;
    t.spec.mix = {0.2, 0.3, 0.5, 0};
    t.spec.queue_depth = 16;
    t.spec.seed = seed + i;
    mix.tenants.push_back(std::move(t));
  }
  return run_mix(bed, mix, {.drain_after = true});
}

std::string merged_mix_json(u32 threads) {
  // A heterogeneous sweep: plain cells and mix cells in one matrix, so
  // the merge also proves the two result shapes keep their routing.
  std::vector<SweepCell> cells = matrix_cells(42);
  u64 index = cells.size();
  for (u32 value_bytes : {512u, 2048u}) {
    const u64 seed = SweepRunner::cell_seed(42, index++);
    cells.push_back(
        sweep_mix_cell("mix/v" + std::to_string(value_bytes),
                       [value_bytes, seed] {
                         return run_mix_cell(value_bytes, seed);
                       }));
  }
  SweepRunner runner(SweepRunner::Options{.threads = threads});
  auto results = runner.run(std::move(cells));
  BenchReport report("sweep_test");
  add_sweep_results(report, results);
  return report.to_json();
}

TEST(SweepRunner, MixCellsThreadCountInvariance) {
  // Multi-tenant cells obey the same determinism contract: the merged
  // document (tenant splits, queue counters, digests and all) is
  // byte-equal between --threads=1 and --threads=4.
  const std::string j1 = merged_mix_json(1);
  const std::string j4 = merged_mix_json(4);
  ASSERT_TRUE(j1.find("mix_runs") != std::string::npos);
  EXPECT_EQ(j1, j4);
}

// A mix cell with an urgent tenant: its MixResult carries urgent_fetches,
// which the merged document must keep like every other mix field.
MixResult run_urgent_mix_cell(u64 seed) {
  wl::TenantMix mix;
  for (u32 i = 0; i < 2; ++i) {
    wl::TenantSpec t;
    t.nsid = (u8)(i + 1);
    t.queue = i;
    t.urgent = i == 1;
    t.spec.num_ops = 600;
    t.spec.key_space = 1000;
    t.spec.key_bytes = 16;
    t.spec.value_bytes = 1024;
    t.spec.mix = {0.2, 0.3, 0.5, 0};
    t.spec.queue_depth = 16;
    t.spec.seed = seed + i;
    mix.tenants.push_back(std::move(t));
  }
  KvssdBedConfig c;
  c.dev = tiny_dev();
  c.nvme.num_queues = 2;
  c.nvme.urgent_queues = mix.urgent_queues();
  KvssdBed bed(c);
  (void)fill_stack(bed, 1000, 16, 1024, 32);
  return run_mix(bed, mix, {.drain_after = true});
}

TEST(SweepRunner, MixCellKeepsEveryMixResultField) {
  const MixResult direct = run_urgent_mix_cell(7);
  ASSERT_GT(direct.urgent_fetches, 0u);
  BenchReport want("sweep_test");
  want.add_mix("urgent", direct);

  std::vector<SweepCell> cells;
  cells.push_back(
      sweep_mix_cell("urgent", [] { return run_urgent_mix_cell(7); }));
  SweepRunner runner(SweepRunner::Options{.threads = 1});
  BenchReport got("sweep_test");
  add_sweep_results(got, runner.run(std::move(cells)));

  EXPECT_NE(got.to_json().find("\"urgent_fetches\""), std::string::npos);
  EXPECT_EQ(got.to_json(), want.to_json());
}

// Trace-replay cells: every cell replays the same captured op stream
// (a shared read-only buffer) through a privately built bed, via the
// sweep_source_cell thread boundary. The merged document must stay
// byte-identical across thread counts, like every other cell kind.
std::string replay_merged_json(u32 threads, const std::string* trace,
                               const wl::WorkloadSpec& shape) {
  std::vector<SweepCell> cells;
  for (u32 channels : {1u, 2u, 4u}) {
    cells.push_back(sweep_source_cell(
        "replay/ch" + std::to_string(channels),
        [channels]() -> std::unique_ptr<KvStack> {
          KvssdBedConfig c;
          c.dev = tiny_dev();
          c.dev.geometry.channels = channels;
          return std::make_unique<KvssdBed>(c);
        },
        shape, [trace] { return wl::TraceOpSource::from_buffer(trace); },
        RunOptions{.drain_after = true}));
  }
  SweepRunner runner(SweepRunner::Options{.threads = threads});
  auto results = runner.run(std::move(cells));
  BenchReport report("sweep_test");
  add_sweep_results(report, results);
  return report.to_json();
}

TEST(SweepRunner, TraceReplayCellsThreadCountInvariance) {
  // Capture a synthetic stream once; all cells share the buffer
  // read-only and each mints its own confined TraceOpSource inside the
  // cell.
  wl::WorkloadSpec shape;
  shape.num_ops = 1200;
  shape.key_space = 600;
  shape.key_bytes = 16;
  shape.value_bytes = 1024;
  shape.mix = {0.3, 0.2, 0.5, 0};
  shape.queue_depth = 16;
  shape.seed = 5;
  std::string trace;
  {
    wl::KvtWriter w = wl::KvtWriter::to_buffer(&trace);
    wl::SyntheticOpSource src(shape);
    wl::Op op;
    while (src.next(op))
      w.add(wl::TraceOp{op.type, op.key_id, op.value_bytes, op.scan_length,
                        0});
    ASSERT_TRUE(w.finish());
  }
  const std::string j1 = replay_merged_json(1, &trace, shape);
  const std::string j4 = replay_merged_json(4, &trace, shape);
  ASSERT_FALSE(j1.empty());
  EXPECT_EQ(j1, j4);
}

// An open-loop overload cell: private bed, saturating fixed-rate
// arrivals, SLO admission control — the bench_overload shape at unit
// scale.
RunResult run_overload_cell(double rate, u64 seed) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 600, 16, 1024, 32);
  wl::WorkloadSpec spec;
  spec.num_ops = 1000;
  spec.key_space = 600;
  spec.key_bytes = 16;
  spec.value_bytes = 1024;
  spec.mix = {0.1, 0.4, 0.5, 0};
  spec.seed = seed;
  spec.arrival.kind = wl::ArrivalKind::kPoisson;
  spec.arrival.rate_ops_per_sec = rate;
  spec.arrival.max_inflight = 16;
  RunOptions opts;
  SloSpec slo;
  slo.p99_target_ns = 2 * kMs;
  slo.max_inflight = 48;
  slo.window = 32;
  opts.slos = {slo};
  opts.drain_after = true;
  return run_workload(bed, spec, opts);
}

std::string merged_overload_json(u32 threads) {
  std::vector<SweepCell> cells;
  u64 index = 0;
  for (double rate : {20'000.0, 400'000.0}) {
    const u64 seed = SweepRunner::cell_seed(99, index++);
    cells.push_back(sweep_cell("overload/r" + std::to_string((u64)rate),
                               [rate, seed] {
                                 return run_overload_cell(rate, seed);
                               }));
  }
  SweepRunner runner(SweepRunner::Options{.threads = threads});
  auto results = runner.run(std::move(cells));
  BenchReport report("sweep_test");
  add_sweep_results(report, results);
  return report.to_json();
}

TEST(SweepRunner, OpenLoopCellsThreadCountInvariance) {
  // Open-loop cells (arrival clocks, admission decisions, shed counters)
  // obey the same byte-identity contract across thread counts.
  const std::string j1 = merged_overload_json(1);
  const std::string j4 = merged_overload_json(4);
  EXPECT_EQ(j1, j4);
  EXPECT_NE(j1.find("\"overload\""), std::string::npos);
}

TEST(SweepRunner, PerCellSeedIsolation) {
  // A cell's result depends only on (base_seed, its index) — running it
  // alone must reproduce its in-matrix result exactly.
  SweepRunner runner(SweepRunner::Options{.threads = 4});
  auto in_matrix = runner.run(matrix_cells(42));
  ASSERT_EQ(in_matrix.size(), 3u);

  const u64 seed = SweepRunner::cell_seed(42, 1);
  const RunResult alone = run_kvssd_cell(2048, seed);
  const RunResult& matrixed = in_matrix[1].result;
  EXPECT_EQ(in_matrix[1].label, "kvssd/v2048");
  EXPECT_EQ(alone.elapsed, matrixed.elapsed);
  EXPECT_EQ(alone.ops, matrixed.ops);
  EXPECT_EQ(alone.all.count(), matrixed.all.count());
  EXPECT_EQ(alone.all.max(), matrixed.all.max());
  EXPECT_EQ(alone.all.percentile(0.5), matrixed.all.percentile(0.5));
}

TEST(SweepRunner, CellSeedDeterministic) {
  EXPECT_EQ(SweepRunner::cell_seed(7, 3), SweepRunner::cell_seed(7, 3));
  EXPECT_NE(SweepRunner::cell_seed(7, 3), SweepRunner::cell_seed(7, 4));
  EXPECT_NE(SweepRunner::cell_seed(7, 0), SweepRunner::cell_seed(8, 0));
  // Index 0 must not collapse onto the base seed itself.
  EXPECT_NE(SweepRunner::cell_seed(7, 0), 7u);
}

TEST(SweepRunner, ResultsInCellOrder) {
  // Later cells finish first (descending sleeps); merged order must
  // still be cell-index order, never completion order.
  std::vector<SweepCell> cells;
  for (int i = 0; i < 6; ++i) {
    cells.push_back(sweep_cell("cell/" + std::to_string(i), [i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * (6 - i)));
      RunResult r;
      r.ops = (u64)i;
      return r;
    }));
  }
  SweepRunner runner(SweepRunner::Options{.threads = 3});
  auto results = runner.run(std::move(cells));
  ASSERT_EQ(results.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(results[i].label, "cell/" + std::to_string(i));
    EXPECT_EQ(results[i].result.ops, (u64)i);
  }
}

TEST(SweepRunner, ExceptionInCellPropagates) {
  std::vector<SweepCell> cells;
  cells.push_back(sweep_cell("ok", [] { return RunResult(); }));
  cells.push_back(sweep_cell("boom", []() -> RunResult {
    throw std::runtime_error("cell boom");
  }));
  SweepRunner runner(SweepRunner::Options{.threads = 2});
  try {
    (void)runner.run(std::move(cells));
    FAIL() << "expected the cell's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell boom");
  }
}

TEST(SweepRunner, LowestIndexedErrorWins) {
  // Two failing cells: the rethrown exception must come from the
  // lower-indexed one regardless of completion order (cell 0 sleeps so
  // cell 2 fails first).
  std::vector<SweepCell> cells;
  cells.push_back(sweep_cell("slow-fail", []() -> RunResult {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    throw std::runtime_error("first");
  }));
  cells.push_back(sweep_cell("ok", [] { return RunResult(); }));
  cells.push_back(sweep_cell("fast-fail", []() -> RunResult {
    throw std::runtime_error("second");
  }));
  SweepRunner runner(SweepRunner::Options{.threads = 3});
  try {
    (void)runner.run(std::move(cells));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(SweepRunner, EarlyErrorStopsPool) {
  // Cell 0 fails immediately; the pool must stop claiming new cells and
  // run() must return (no hang) well before all 16 cells execute.
  std::atomic<int> executed{0};
  std::vector<SweepCell> cells;
  cells.push_back(sweep_cell("fail", []() -> RunResult {
    throw std::runtime_error("early");
  }));
  for (int i = 1; i < 16; ++i) {
    cells.push_back(sweep_cell("sleep/" + std::to_string(i), [&executed] {
      ++executed;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return RunResult();
    }));
  }
  SweepRunner runner(SweepRunner::Options{.threads = 2});
  EXPECT_THROW((void)runner.run(std::move(cells)), std::runtime_error);
  // With 2 workers and an instant failure, only the cells claimed
  // before `stop` was observed can have run — nowhere near all 15.
  EXPECT_LT(executed.load(), 8);
  EXPECT_LT(runner.cells_started(), 16u);
  EXPECT_GE(runner.cells_started(), 1u);
}

TEST(SweepRunner, ThreadsOptionResolution) {
  SweepRunner dflt;
  EXPECT_GE(dflt.threads(), 1u);
  SweepRunner four(SweepRunner::Options{.threads = 4});
  EXPECT_EQ(four.threads(), 4u);
}

TEST(SweepRunner, EmptySweepAndReuse) {
  SweepRunner runner(SweepRunner::Options{.threads = 2});
  EXPECT_TRUE(runner.run({}).empty());
  // The runner is reusable; cells_started accumulates across runs.
  std::vector<SweepCell> cells;
  cells.push_back(sweep_cell("a", [] { return RunResult(); }));
  (void)runner.run(std::move(cells));
  EXPECT_EQ(runner.cells_started(), 1u);
}

}  // namespace
}  // namespace kvsim::harness
