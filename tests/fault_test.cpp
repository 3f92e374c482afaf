// Fault-injection & recovery subsystem tests: seeded-plan determinism
// (byte-identical BenchReport JSON), fault-free A/B (no fault keys, no
// injector, untouched command path), grown-bad-block survival across GC,
// RetryPolicy semantics, host retry/backoff recovery, and the injector's
// wear model. Run under a KVSIM_AUDIT build these double as shadow-model
// checks: every recovery action must keep mapping/flash state consistent.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "blockftl/block_ftl.h"
#include "common/rng.h"
#include "flash/controller.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/stacks.h"
#include "kvftl/kv_ftl.h"
#include "workload/workload.h"

namespace kvsim::harness {
namespace {

ssd::SsdConfig tiny_dev() {
  ssd::SsdConfig d;
  d.geometry.channels = 2;
  d.geometry.dies_per_channel = 2;
  d.geometry.planes_per_die = 2;
  d.geometry.blocks_per_plane = 16;
  d.geometry.pages_per_block = 16;  // 64 MiB raw
  return d;
}

wl::WorkloadSpec churn_spec(u64 ops = 4000) {
  wl::WorkloadSpec spec;
  spec.num_ops = ops;
  spec.key_space = 1200;
  spec.key_bytes = 16;
  spec.value_bytes = 2048;
  spec.mix = {0.1, 0.4, 0.45, 0};  // rest deletes
  spec.queue_depth = 16;
  spec.seed = 42;
  return spec;
}

/// A plan that exercises every fault class on a tiny device.
ssd::FaultPlan stress_plan() {
  ssd::FaultPlan p;
  p.enabled = true;
  p.read_uber_base = 0.002;
  p.read_uber_per_pe = 0.0005;
  p.program_fail_prob = 0.01;
  p.erase_fail_prob = 0.05;
  p.stall_prob = 0.001;
  p.busy_window_ns = 50 * kUs;
  return p;
}

std::string faulty_report_json(const ssd::FaultPlan& plan) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  opts.telemetry_interval = 10 * kMs;
  opts.faults = plan;
  const RunResult r = run_workload(bed, churn_spec(), opts);
  BenchReport rep("fault_determinism");
  rep.add_run("churn", r);
  rep.add_device(bed);
  return rep.to_json();
}

// --- RetryPolicy units -----------------------------------------------------

TEST(RetryPolicy, RetriesOnlyRetryableCategoriesWithinBudget) {
  RetryPolicy p;
  p.max_retries = 2;
  EXPECT_TRUE(p.should_retry(Status::kMediaError, 0));
  EXPECT_TRUE(p.should_retry(Status::kDeviceBusy, 1));
  EXPECT_TRUE(p.should_retry(Status::kTimeout, 0));
  // Budget exhausted.
  EXPECT_FALSE(p.should_retry(Status::kMediaError, 2));
  // Non-retryable statuses never re-drive.
  EXPECT_FALSE(p.should_retry(Status::kOk, 0));
  EXPECT_FALSE(p.should_retry(Status::kNotFound, 0));
  EXPECT_FALSE(p.should_retry(Status::kIoError, 0));
  EXPECT_FALSE(p.should_retry(Status::kDeviceFull, 0));
  // Per-category opt-outs.
  p.retry_media_error = false;
  EXPECT_FALSE(p.should_retry(Status::kMediaError, 0));
  p.retry_busy = false;
  EXPECT_FALSE(p.should_retry(Status::kDeviceBusy, 0));
  p.retry_timeout = false;
  EXPECT_FALSE(p.should_retry(Status::kTimeout, 0));
}

TEST(RetryPolicy, BackoffGrowsExponentially) {
  RetryPolicy p;
  p.backoff_ns = 100 * kUs;
  p.backoff_mult = 2.0;
  EXPECT_EQ(p.backoff_for(1), 100 * kUs);
  EXPECT_EQ(p.backoff_for(2), 200 * kUs);
  EXPECT_EQ(p.backoff_for(3), 400 * kUs);
  p.backoff_mult = 1.0;  // constant backoff
  EXPECT_EQ(p.backoff_for(3), 100 * kUs);
}

TEST(RetryPolicy, BackoffCapsAtMax) {
  RetryPolicy p;
  p.backoff_ns = 100 * kUs;
  p.backoff_mult = 2.0;
  p.max_backoff_ns = 350 * kUs;
  EXPECT_EQ(p.backoff_for(2), 200 * kUs);
  EXPECT_EQ(p.backoff_for(3), 350 * kUs);   // clamped, not 400
  EXPECT_EQ(p.backoff_for(30), 350 * kUs);  // closed form: no overflow walk
  p.backoff_ns = 500 * kUs;                 // base already above the cap
  EXPECT_EQ(p.backoff_for(1), 350 * kUs);
  EXPECT_EQ(p.backoff_for(5), 350 * kUs);
}

TEST(RetryBudget, TokenBucketDeniesWhenDryAndRefills) {
  RetryPolicy p;
  p.retry_budget = 2;
  p.retry_refill_per_sec = 1.0;  // one token per simulated second
  detail::RetryBudget b;
  b.configure(p, 42);
  EXPECT_TRUE(b.try_consume(0));
  EXPECT_TRUE(b.try_consume(0));
  EXPECT_FALSE(b.try_consume(0));  // dry
  EXPECT_EQ(b.denied(), 1u);
  // Half a second refills half a token: still dry.
  EXPECT_FALSE(b.try_consume(kSec / 2));
  // Another half second completes the token.
  EXPECT_TRUE(b.try_consume(kSec));
  EXPECT_EQ(b.denied(), 2u);
  // Refill saturates at capacity.
  EXPECT_TRUE(b.try_consume(100 * kSec));
  EXPECT_TRUE(b.try_consume(100 * kSec));
  EXPECT_FALSE(b.try_consume(100 * kSec));
}

TEST(RetryBudget, ZeroCapacityIsUnlimitedLegacyPath) {
  detail::RetryBudget b;
  b.configure(RetryPolicy{}, 7);  // retry_budget = 0
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.try_consume(0));
  EXPECT_EQ(b.denied(), 0u);
}

TEST(RetryBudget, JitterIsSeededDeterministicAndBounded) {
  RetryPolicy p;
  p.jitter_frac = 0.5;
  detail::RetryBudget a, b, c;
  a.configure(p, 1234);
  b.configure(p, 1234);
  c.configure(p, 9999);
  const TimeNs base = 100 * kUs;
  bool differs = false;
  for (int i = 0; i < 64; ++i) {
    const TimeNs ja = a.jittered(base);
    EXPECT_EQ(ja, b.jittered(base));  // same seed -> same stream
    EXPECT_GE(ja, base);              // jitter only stretches
    EXPECT_LE(ja, base + base / 2);   // by at most jitter_frac
    if (ja != c.jittered(base)) differs = true;
  }
  EXPECT_TRUE(differs);  // different seed -> different stream
}

TEST(RetryBudget, NoJitterIsExactIdentity) {
  detail::RetryBudget b;
  b.configure(RetryPolicy{}, 5);  // jitter_frac = 0
  EXPECT_EQ(b.jittered(123456), 123456);
  EXPECT_EQ(b.jittered(0), 0);
}

TEST(FaultPlanValidate, RejectsOutOfRangeKnobs) {
  ssd::FaultPlan p;
  p.enabled = true;
  p.read_uber_base = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.program_fail_prob = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.read_uber_base = 0.01;
  p.read_retry_rounds = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = stress_plan();
  EXPECT_NO_THROW(p.validate());
}

// --- injector wear model ---------------------------------------------------

TEST(FaultInjector, ReadUberGrowsWithEraseCyclesUpToCeiling) {
  ssd::FaultPlan plan;
  plan.enabled = true;
  plan.read_uber_base = 0.001;
  plan.read_uber_per_pe = 0.004;
  plan.read_uber_max = 0.01;
  const auto geom = tiny_dev().geometry;
  sim::EventQueue eq;
  ssd::FaultInjector inj(plan, geom, eq);
  EXPECT_DOUBLE_EQ(inj.read_uber(0), 0.001);
  (void)inj.on_erase(0);
  (void)inj.on_erase(0);
  EXPECT_EQ(inj.pe_cycles(0), 2u);
  EXPECT_DOUBLE_EQ(inj.read_uber(0), 0.001 + 2 * 0.004);
  for (int i = 0; i < 10; ++i) (void)inj.on_erase(0);
  EXPECT_DOUBLE_EQ(inj.read_uber(0), 0.01);  // clamped at the ceiling
  EXPECT_DOUBLE_EQ(inj.read_uber(1), 0.001);  // other blocks unworn
}

// --- seeded determinism ----------------------------------------------------

TEST(FaultDeterminism, SamePlanSameSeedIsByteIdentical) {
  const std::string a = faulty_report_json(stress_plan());
  const std::string b = faulty_report_json(stress_plan());
  EXPECT_EQ(a, b);
  // The run must have actually exercised the fault machinery: the plan
  // stresses reads, programs, and erases on a tiny worn device.
  EXPECT_NE(a.find("\"faults\""), std::string::npos);
  EXPECT_NE(a.find("read_uncorrectable"), std::string::npos);
}

TEST(FaultDeterminism, DifferentSeedsDiverge) {
  ssd::FaultPlan p1 = stress_plan();
  ssd::FaultPlan p2 = stress_plan();
  p2.seed = 0x5eed'0000'0000'0001ull;
  EXPECT_NE(faulty_report_json(p1), faulty_report_json(p2));
}

// --- fault-free A/B --------------------------------------------------------

TEST(FaultFree, NoInjectorNoFaultKeysNoCounterMovement) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  const RunResult r = run_workload(bed, churn_spec(), opts);

  EXPECT_EQ(bed.fault_injector(), nullptr);
  EXPECT_EQ(bed.host_retries(), 0u);
  EXPECT_EQ(r.host_retries, 0u);
  EXPECT_FALSE(bed.ftl().stats().any_fault_activity());
  EXPECT_EQ(r.errors.total(), 0u);

  BenchReport rep("fault_free");
  rep.add_run("churn", r);
  rep.add_device(bed);
  const std::string json = rep.to_json();
  // Conditional emission: a healthy run's document carries zero fault
  // vocabulary, so it is byte-identical to pre-fault-subsystem output.
  EXPECT_EQ(json.find("error_breakdown"), std::string::npos);
  EXPECT_EQ(json.find("host_retries"), std::string::npos);
  EXPECT_EQ(json.find("\"faults\""), std::string::npos);
  EXPECT_EQ(json.find("read_media_errors"), std::string::npos);
  EXPECT_EQ(json.find("grown_bad_blocks"), std::string::npos);
}

// --- recovery: KV-FTL ------------------------------------------------------

TEST(FaultRecovery, KvFtlSurvivesGrownBadBlocksAndRelocations) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);

  RunOptions opts;
  opts.drain_after = true;
  opts.faults = stress_plan();
  const RunResult r = run_workload(bed, churn_spec(8000), opts);

  const ssd::FtlStats& st = bed.ftl().stats();
  ASSERT_NE(bed.fault_injector(), nullptr);
  const ssd::FaultStats& fs = bed.fault_injector()->stats();
  // The stress plan must actually fire on this workload size.
  EXPECT_GT(fs.total_faults(), 0u);
  EXPECT_GT(fs.program_fails + fs.erase_fails, 0u);
  // Firmware recovery ran: blocks were retired and data re-placed.
  EXPECT_GT(st.grown_bad_blocks, 0u);
  EXPECT_GT(st.remapped_units + st.reprogrammed_pages, 0u);
  // Every completion is accounted for; only fault-taxonomy errors appear.
  EXPECT_EQ(r.ops, 8000u);
  EXPECT_EQ(r.errors.io, 0u);
  EXPECT_EQ(r.errors.other, 0u);
  // Host retries absorbed at least part of the transient failures.
  EXPECT_GT(r.host_retries, 0u);
}

TEST(FaultRecovery, RetryShrinksHostVisibleMediaErrors) {
  // Same plan, retries off vs on: with retries enabled the host re-drives
  // kMediaError reads after the FTL relocated the data, so strictly fewer
  // media errors surface (and never more).
  auto run_with = [](u32 max_retries) {
    KvssdBedConfig c;
    c.dev = tiny_dev();
    c.retry.max_retries = max_retries;
    KvssdBed bed(c);
    (void)fill_stack(bed, 1200, 16, 2048, 32);
    RunOptions opts;
    opts.drain_after = true;
    opts.faults = stress_plan();
    return run_workload(bed, churn_spec(8000), opts);
  };
  const RunResult no_retry = run_with(0);
  const RunResult with_retry = run_with(3);
  EXPECT_GT(no_retry.errors.media + no_retry.errors.busy, 0u);
  EXPECT_LT(with_retry.errors.total(), no_retry.errors.total());
  EXPECT_EQ(no_retry.host_retries, 0u);
  EXPECT_GT(with_retry.host_retries, 0u);
}

TEST(FaultRecovery, TimeoutDeadlineClassifiesSlowOps) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  c.retry.retry_timeout = false;  // surface timeouts instead of hiding them
  KvssdBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  opts.faults.enabled = true;
  // Frequent long stalls + a deadline shorter than the stall: stalled
  // flash ops must complete past the deadline and report kTimeout.
  opts.faults.stall_prob = 0.01;
  opts.faults.stall_ns = 5 * kMs;
  opts.faults.op_timeout_ns = 1 * kMs;
  const RunResult r = run_workload(bed, churn_spec(), opts);
  EXPECT_GT(bed.fault_injector()->stats().stalls, 0u);
  EXPECT_GT(bed.ftl().stats().op_timeouts, 0u);
  EXPECT_GT(r.errors.timeout, 0u);
}

// --- recovery: block FTL stacks -------------------------------------------

TEST(FaultRecovery, LsmStackPropagatesAndRecoversDeviceFaults) {
  LsmBedConfig c;
  c.dev = tiny_dev();
  LsmBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  opts.faults = stress_plan();
  const RunResult r = run_workload(bed, churn_spec(8000), opts);

  const ssd::FtlStats& st = bed.ftl().stats();
  ASSERT_NE(bed.fault_injector(), nullptr);
  EXPECT_GT(bed.fault_injector()->stats().total_faults(), 0u);
  EXPECT_GT(st.grown_bad_blocks + st.remapped_units + st.reprogrammed_pages,
            0u);
  EXPECT_EQ(r.ops, 8000u);
  EXPECT_EQ(r.errors.io, 0u);
  EXPECT_EQ(r.errors.other, 0u);
}

TEST(FaultRecovery, HashKvStackSurvivesStressPlan) {
  HashKvBedConfig c;
  c.dev = tiny_dev();
  HashKvBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  opts.faults = stress_plan();
  const RunResult r = run_workload(bed, churn_spec(8000), opts);

  const ssd::FtlStats& st = bed.ftl().stats();
  EXPECT_GT(st.grown_bad_blocks + st.remapped_units + st.reprogrammed_pages,
            0u);
  EXPECT_EQ(r.ops, 8000u);
  EXPECT_EQ(r.errors.io, 0u);
  EXPECT_EQ(r.errors.other, 0u);
}

// Data survives the faults: after a faulty churn, re-reading the whole key
// space under a healthy device returns every key the churn left live, and
// values come back from relocated flash (remaps happened earlier).
TEST(FaultRecovery, DataRemainsReadableAfterFaultyChurn) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  opts.faults = stress_plan();
  (void)run_workload(bed, churn_spec(8000), opts);
  const u64 remaps = bed.ftl().stats().remapped_units;
  EXPECT_GT(remaps, 0u);

  // Heal the device (clears the injector) and read back everything.
  opts.faults = {};
  opts.faults.enabled = false;
  bed.apply_fault_plan(opts.faults);
  EXPECT_EQ(bed.fault_injector(), nullptr);
  wl::WorkloadSpec reads;
  reads.num_ops = 2400;
  reads.key_space = 1200;
  reads.key_bytes = 16;
  reads.value_bytes = 2048;
  reads.mix = wl::OpMix::read_only();
  reads.queue_depth = 16;
  reads.seed = 7;
  const RunResult r = run_workload(bed, reads, {.drain_after = true});
  // Deleted keys report NotFound; nothing may error on a healthy device.
  EXPECT_EQ(r.errors.total(), 0u);
  EXPECT_GT(r.ops - r.not_found, 0u);
}

// --- retry budget, end to end on every bed ---------------------------------

std::unique_ptr<KvStack> make_bed(const std::string& kind,
                                  const RetryPolicy& retry) {
  if (kind == "kvssd") {
    KvssdBedConfig c;
    c.dev = tiny_dev();
    c.retry = retry;
    return std::make_unique<KvssdBed>(c);
  }
  if (kind == "lsm") {
    LsmBedConfig c;
    c.dev = tiny_dev();
    c.retry = retry;
    return std::make_unique<LsmBed>(c);
  }
  HashKvBedConfig c;
  c.dev = tiny_dev();
  c.retry = retry;
  return std::make_unique<HashKvBed>(c);
}

/// The stress plan plus more uncorrectable reads and busy bounces, so
/// every bed needs more re-drives than a small retry bucket holds.
ssd::FaultPlan retry_heavy_plan() {
  ssd::FaultPlan p = stress_plan();
  p.read_uber_base = 0.02;
  p.stall_prob = 0.01;
  p.busy_window_ns = 200 * kUs;
  return p;
}

class RetryBudgetEndToEnd : public ::testing::TestWithParam<const char*> {};

// With retry_budget = N and no refill, a bed re-drives at most N times:
// the failures it was refused surface to the host, every op still
// completes, and nothing stays in flight once the run has drained.
TEST_P(RetryBudgetEndToEnd, CapsReDrivesAndSurfacesDeniedFailures) {
  constexpr u32 kBudget = 8;
  auto run_with = [](u32 budget) {
    RetryPolicy retry;
    retry.retry_budget = budget;  // retry_refill_per_sec = 0: a hard cap
    auto bed = make_bed(GetParam(), retry);
    (void)fill_stack(*bed, 1200, 16, 2048, 32);
    RunOptions opts;
    opts.drain_after = true;
    opts.faults = retry_heavy_plan();
    const RunResult r = run_workload(*bed, churn_spec(), opts);
    EXPECT_EQ(r.host_retries, bed->host_retries());
    EXPECT_EQ(bed->inflight_host_ops(), 0u);
    return r;
  };
  const RunResult unlimited = run_with(0);
  ASSERT_GT(unlimited.host_retries, kBudget);  // the budget must bind
  const RunResult capped = run_with(kBudget);
  EXPECT_LE(capped.host_retries, kBudget);
  EXPECT_EQ(capped.ops, churn_spec().num_ops);
  auto retryable = [](const ErrorCounts& e) {
    return e.media + e.busy + e.timeout;
  };
  EXPECT_GT(retryable(capped.errors), retryable(unlimited.errors));
}

INSTANTIATE_TEST_SUITE_P(AllBeds, RetryBudgetEndToEnd,
                         ::testing::Values("kvssd", "lsm", "hashkv"));

// --- an abandoned retry chain frees its state -------------------------------

// A retrieve whose every flash read is uncorrectable parks in a backoff
// window between attempts. A power cut there (discard_pending) drops the
// backoff event, the chain's only owner, so the op's completion, and
// everything it captured, must be freed with it.
TEST(RetryLifetime, ChainCutInBackoffWindowFreesItsState) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  Status st = Status::kIoError;
  bed.store("lifetime-key-0001", ValueDesc{2048, 7},
            [&](Status s) { st = s; });
  bool drained = false;
  bed.drain([&] { drained = true; });  // the value leaves the write buffer
  bed.eq().run();
  ASSERT_EQ(st, Status::kOk);
  ASSERT_TRUE(drained);

  ssd::FaultPlan plan;
  plan.enabled = true;
  plan.read_uber_base = 1.0;
  plan.read_uber_max = 1.0;
  bed.apply_fault_plan(plan);
  auto token = std::make_shared<int>(0);
  bool completed = false;
  bed.retrieve("lifetime-key-0001",
               [token, &completed](Status, ValueDesc) { completed = true; });
  while (bed.host_retries() == 0 && bed.eq().step()) {
  }
  ASSERT_EQ(bed.host_retries(), 1u);  // attempt 0 failed, backoff pending
  ASSERT_FALSE(completed);
  EXPECT_GT(token.use_count(), 1);
  bed.eq().discard_pending();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(completed);
}

// --- caches fill only from a read that succeeded ---------------------------

// A flash read that times out must not leave its page in the block FTL's
// DRAM cache: the re-read has to go to flash again.
TEST(CacheFill, BlockFtlFailedReadDoesNotFillPageCache) {
  const ssd::SsdConfig dev = tiny_dev();
  sim::EventQueue eq;
  flash::FlashController flash(eq, dev.geometry, dev.timing);
  blockftl::BlockFtl ftl(eq, flash, dev, blockftl::BlockFtlConfig{});
  ftl.write(0, 4 * KiB, 1, [](Status) {});
  ftl.flush([] {});
  eq.run();

  auto read = [&] {
    Status got = Status::kInvalidArgument;
    ftl.read(0, 4 * KiB, [&got](Status s, u64) { got = s; });
    eq.run();
    return got;
  };
  ssd::FaultPlan plan;
  plan.enabled = true;
  plan.stall_prob = 1.0;  // every flash op stalls past the deadline
  plan.stall_ns = 5 * kMs;
  plan.op_timeout_ns = 1 * kMs;
  ftl.set_fault_plan(plan);
  ASSERT_EQ(read(), Status::kTimeout);

  ftl.set_fault_plan(ssd::FaultPlan{});
  const u64 hits = ftl.cache_hits();
  EXPECT_EQ(read(), Status::kOk);
  EXPECT_EQ(ftl.cache_hits(), hits);  // served from flash
  EXPECT_EQ(read(), Status::kOk);
  EXPECT_EQ(ftl.cache_hits(), hits + 1);  // the good read filled it
}

// A readahead prefetch that times out must not leave its page in the block
// FTL's DRAM cache: the first read of the prefetched data has to go to
// flash.
TEST(CacheFill, BlockFtlFailedPrefetchDoesNotStayCached) {
  const ssd::SsdConfig dev = ssd::SsdConfig::small_device();
  sim::EventQueue eq;
  flash::FlashController flash(eq, dev.geometry, dev.timing);
  blockftl::BlockFtl ftl(eq, flash, dev, blockftl::BlockFtlConfig{});
  constexpr u64 kSectorsPerLpn = 4 * KiB / 512;
  for (u64 lpn = 0; lpn < 48; ++lpn)
    ftl.write(lpn * kSectorsPerLpn, 4 * KiB, lpn + 1, [](Status) {});
  ftl.flush([] {});
  eq.run();

  auto read = [&](u64 first_lpn, u64 lpns) {
    Status got = Status::kInvalidArgument;
    ftl.read(first_lpn * kSectorsPerLpn, (u32)(lpns * 4 * KiB),
             [&got](Status s, u64) { got = s; });
    eq.run();
    return got;
  };
  ssd::FaultPlan plan;
  plan.enabled = true;
  plan.stall_prob = 1.0;  // every flash op stalls past the deadline
  plan.stall_ns = 5 * kMs;
  plan.op_timeout_ns = 1 * kMs;
  ftl.set_fault_plan(plan);
  // Eight sequential slots ending at lpn 39 make a stream: lpn 40's page
  // is prefetched, and that read times out too.
  ASSERT_EQ(read(32, 8), Status::kTimeout);

  ftl.set_fault_plan(ssd::FaultPlan{});
  const u64 hits = ftl.cache_hits();
  EXPECT_EQ(read(40, 1), Status::kOk);
  EXPECT_EQ(ftl.cache_hits(), hits);  // served from flash
}

// A get whose data-block read fails must not leave the block in the LSM
// block cache: a host retry would otherwise be served from DRAM without
// the device read it needs.
TEST(CacheFill, LsmFailedGetDoesNotFillBlockCache) {
  LsmBedConfig c;
  c.dev = tiny_dev();
  c.lsm.memtable_bytes = 256 * KiB;  // flush the fill into SSTs
  c.retry.max_retries = 0;           // surface the media error
  LsmBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);
  const std::string key = wl::make_key(5, 16);
  auto get = [&] {
    Status got = Status::kInvalidArgument;
    bed.retrieve(key, [&got](Status s, ValueDesc) { got = s; });
    bed.eq().run();
    return got;
  };
  ssd::FaultPlan plan;
  plan.enabled = true;
  plan.read_uber_base = 1.0;  // every flash read is uncorrectable
  plan.read_uber_max = 1.0;
  bed.apply_fault_plan(plan);
  const u64 hits0 = bed.store().block_cache_hits();
  ASSERT_EQ(get(), Status::kMediaError);
  EXPECT_EQ(bed.store().block_cache_hits(), hits0);

  bed.apply_fault_plan(ssd::FaultPlan{});
  EXPECT_EQ(get(), Status::kOk);
  EXPECT_EQ(bed.store().block_cache_hits(), hits0);  // went to the device
  EXPECT_EQ(get(), Status::kOk);
  EXPECT_EQ(bed.store().block_cache_hits(), hits0 + 1);
}


}  // namespace
}  // namespace kvsim::harness

// --- block conservation on both firmwares ---------------------------------

namespace kvsim::ssd {
struct BlockLogAccess {
  template <typename Ftl>
  static const BlockLog& of(const Ftl& ftl) {
    return ftl.log_;
  }
};
}  // namespace kvsim::ssd

namespace kvsim {
namespace {

/// Delegates every draw to the armed injector and remembers the blocks
/// that failed an erase: a later program or erase of one of them means
/// the firmware handed a retired block out again.
class EraseFailWatch final : public flash::FaultModel {
 public:
  EraseFailWatch(flash::FaultModel& inner, const flash::FlashGeometry& geom)
      : inner_(inner), geom_(geom), failed_(geom.total_blocks(), 0) {}

  flash::ReadFault on_read(flash::PageId p) override {
    return inner_.on_read(p);
  }
  flash::ProgramFault on_program(flash::PageId first, u32 count) override {
    reuses += failed_[geom_.block_of_page(first)];
    return inner_.on_program(first, count);
  }
  flash::EraseFault on_erase(flash::BlockId b) override {
    reuses += failed_[b];
    const flash::EraseFault f = inner_.on_erase(b);
    if (f.fail) {
      failed_[b] = 1;
      ++erase_fails;
    }
    return f;
  }
  [[nodiscard]] TimeNs op_deadline_ns() const override {
    return inner_.op_deadline_ns();
  }
  [[nodiscard]] bool failed(flash::BlockId b) const { return failed_[b] != 0; }

  u64 reuses = 0;
  u64 erase_fails = 0;

 private:
  flash::FaultModel& inner_;
  flash::FlashGeometry geom_;
  std::vector<u8> failed_;
};

// Churn over a working set of about half the device, with deletes or
// TRIMs, so GC runs many cycles and fully-invalid blocks appear.
struct KvChurn {
  using Ftl = kvftl::KvFtl;
  static std::unique_ptr<Ftl> make(sim::EventQueue& eq,
                                   flash::FlashController& flash,
                                   const ssd::SsdConfig& dev) {
    return std::make_unique<Ftl>(eq, flash, dev, kvftl::KvFtlConfig{});
  }
  static void op(Ftl& ftl, Rng& rng, u64 i, u64& completed) {
    const std::string key = "key" + std::to_string(rng.next() % 20000);
    auto done = [&completed](Status) { ++completed; };
    if (rng.next() % 5 == 0) {
      ftl.remove(key, done);
    } else {
      ftl.store(key, ValueDesc{64 * KiB, i}, done);
    }
  }
};

struct BlockChurn {
  using Ftl = blockftl::BlockFtl;
  static std::unique_ptr<Ftl> make(sim::EventQueue& eq,
                                   flash::FlashController& flash,
                                   const ssd::SsdConfig& dev) {
    return std::make_unique<Ftl>(eq, flash, dev, blockftl::BlockFtlConfig{});
  }
  static void op(Ftl& ftl, Rng& rng, u64 i, u64& completed) {
    constexpr u32 kBytes = 128 * KiB;
    const Lba lba = (rng.next() % 15000) * (kBytes / 512);
    auto done = [&completed](Status) { ++completed; };
    if (rng.next() % 10 == 0) {
      ftl.trim(lba, kBytes, done);
    } else {
      ftl.write(lba, kBytes, i, done);
    }
  }
};

template <typename Churn>
class BlockConservation : public ::testing::Test {};
using Firmwares = ::testing::Types<KvChurn, BlockChurn>;
TYPED_TEST_SUITE(BlockConservation, Firmwares);

TYPED_TEST(BlockConservation, EveryBlockAccountedAndRetiredBlocksStayOut) {
  const ssd::SsdConfig dev = ssd::SsdConfig::small_device();
  sim::EventQueue eq;
  flash::FlashController flash(eq, dev.geometry, dev.timing);
  auto ftl = TypeParam::make(eq, flash, dev);
  ssd::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 15;
  plan.program_fail_prob = 0.001;
  plan.erase_fail_prob = 0.05;
  ftl->set_fault_plan(plan);
  EraseFailWatch watch(*flash.faults(), dev.geometry);
  flash.set_faults(&watch);

  Rng rng(7);
  constexpr u64 kOps = 60000;
  u64 issued = 0, completed = 0;
  while (issued < kOps) {
    for (int k = 0; k < 32 && issued < kOps; ++k, ++issued)
      TypeParam::op(*ftl, rng, issued, completed);
    eq.run();
  }
  bool flushed = false;
  ftl->flush([&flushed] { flushed = true; });
  eq.run();
  ASSERT_TRUE(flushed);
  EXPECT_EQ(completed, kOps);

  // The plan fired on both fault classes, and GC erased blocks.
  const ssd::FtlStats& st = ftl->stats();
  EXPECT_GT(st.program_failures, 0u);
  EXPECT_GT(watch.erase_fails, 0u);
  EXPECT_GT(st.gc_runs, 0u);

  const ssd::BlockLog& log = ssd::BlockLogAccess::of(*ftl);
  const u64 total = dev.geometry.total_blocks();
  std::vector<u64> count(ssd::BlockLog::kBad + 1, 0);
  for (flash::BlockId b = 0; b < total; ++b) {
    ASSERT_LE(log.state(b), ssd::BlockLog::kBad) << "block " << b;
    ++count[log.state(b)];
    if (watch.failed(b)) {
      EXPECT_EQ(log.state(b), ssd::BlockLog::kBad) << "block " << b;
    }
  }
  u64 sum = 0;
  for (u64 c : count) sum += c;
  EXPECT_EQ(sum, total);
  EXPECT_EQ(count[ssd::BlockLog::kErasing], 0u);  // drained
  EXPECT_EQ(count[ssd::BlockLog::kFree], ftl->free_blocks());
  EXPECT_EQ(count[ssd::BlockLog::kBad], st.grown_bad_blocks);
  EXPECT_EQ(watch.reuses, 0u);
  flash.set_faults(nullptr);
}

}  // namespace
}  // namespace kvsim
