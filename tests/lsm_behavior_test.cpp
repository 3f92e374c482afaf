// Second-wave LSM tests: multi-level reads, debug_locate, WAL space
// accounting, stall recovery under mixed load, and tombstone compaction.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "harness/runner.h"
#include "harness/stacks.h"
#include "workload/workload.h"
#include "workload/ycsb.h"

namespace kvsim::lsm {
namespace {

harness::LsmBedConfig small_cfg() {
  harness::LsmBedConfig c;
  c.dev.geometry.channels = 2;
  c.dev.geometry.dies_per_channel = 2;
  c.dev.geometry.planes_per_die = 2;
  c.dev.geometry.blocks_per_plane = 16;
  c.dev.geometry.pages_per_block = 16;
  c.lsm.memtable_bytes = 128 * KiB;
  c.lsm.l1_target_bytes = 512 * KiB;
  c.lsm.sst_target_bytes = 256 * KiB;
  return c;
}

struct Bed {
  harness::LsmBed bed{small_cfg()};

  Status put(const std::string& k, u32 vsize, u64 vfp) {
    Status out = Status::kIoError;
    bed.store(k, ValueDesc{vsize, vfp}, [&](Status s) { out = s; });
    bed.eq().run();
    return out;
  }
  std::pair<Status, ValueDesc> get(const std::string& k) {
    std::pair<Status, ValueDesc> out{Status::kIoError, {}};
    bed.retrieve(k, [&](Status s, ValueDesc v) { out = {s, v}; });
    bed.eq().run();
    return out;
  }
  void drain() {
    bool done = false;
    bed.drain([&] { done = true; });
    bed.eq().run();
    EXPECT_TRUE(done);
  }
};

TEST(LsmBehavior, DataReachesDeepLevelsAndStaysReadable) {
  Bed b;
  // Enough churn to push data to L2+.
  Rng rng(3);
  std::map<std::string, u64> model;
  for (u64 i = 0; i < 8000; ++i) {
    const std::string k = wl::make_key(rng.below(2000), 12);
    ASSERT_EQ(b.put(k, 512, i), Status::kOk);
    model[k] = i;
  }
  b.drain();
  u32 deep_files = 0;
  for (u32 l = 2; l < 6; ++l) deep_files += b.bed.store().level_file_count(l);
  EXPECT_GT(deep_files, 0u);
  Rng probe(5);
  for (int i = 0; i < 200; ++i) {
    auto it = model.begin();
    std::advance(it, (long)probe.below(model.size()));
    auto [s, v] = b.get(it->first);
    ASSERT_EQ(s, Status::kOk) << it->first;
    ASSERT_EQ(v.fingerprint, it->second) << it->first;
  }
}

TEST(LsmBehavior, DebugLocateFindsNewestVersionFirst) {
  Bed b;
  ASSERT_EQ(b.put("key-000000000001", 100, 1), Status::kOk);
  b.drain();  // old version now in an SST
  ASSERT_EQ(b.put("key-000000000001", 100, 2), Status::kOk);
  const auto hits = b.bed.store().debug_locate("key-000000000001");
  ASSERT_GE(hits.size(), 2u);  // memtable + SST copy
  EXPECT_NE(hits[0].find("memtable"), std::string::npos);
  EXPECT_NE(hits[0].find("fp=2"), std::string::npos);
}

TEST(LsmBehavior, WalSpaceIsReclaimedAfterFlush) {
  Bed b;
  for (u64 i = 0; i < 4000; ++i)
    ASSERT_EQ(b.put(wl::make_key(i, 12), 512, i), Status::kOk);
  b.drain();
  // Live bytes must reflect SSTs, not the whole WAL history (~2 MiB+).
  const u64 app = 4000ull * (12 + 512);
  EXPECT_LT(b.bed.store().sst_bytes_live(), app * 2);
}

TEST(LsmBehavior, MixedReadWriteUnderStallPressure) {
  Bed b;
  (void)harness::fill_stack(b.bed, 3000, 12, 512, 32);
  wl::WorkloadSpec spec;
  spec.num_ops = 6000;
  spec.key_space = 3000;
  spec.key_bytes = 12;
  spec.value_bytes = 512;
  spec.mix = {0.0, 0.6, 0.4, 0};
  spec.queue_depth = 32;
  const harness::RunResult r = harness::run_workload(b.bed, spec, {.drain_after = true});
  EXPECT_EQ(r.ops, 6000u);
  EXPECT_EQ(r.errors.total(), 0u);
  EXPECT_EQ(r.not_found, 0u);
}

TEST(LsmBehavior, ParallelCompactionsOverlapAndPreserveData) {
  harness::LsmBedConfig c = small_cfg();
  c.lsm.max_background_compactions = 2;
  harness::LsmBed bed(c);
  std::map<std::string, u64> model;
  Rng rng(7);
  // Heavy churn across a wide key range to give multiple levels work.
  u64 oks = 0;
  for (u64 i = 0; i < 12000; ++i) {
    const std::string k = wl::make_key(rng.below(4000), 12);
    bed.store(k, ValueDesc{512, i}, [&](Status s) { oks += s == Status::kOk; });
    model[k] = i;
    if (i % 64 == 0) bed.eq().run();
  }
  bed.eq().run();
  bool done = false;
  bed.drain([&] { done = true; });
  bed.eq().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(oks, 12000u);
  EXPECT_GE(bed.store().peak_parallel_compactions(), 2u);
  Rng probe(9);
  for (int i = 0; i < 300; ++i) {
    auto it = model.begin();
    std::advance(it, (long)probe.below(model.size()));
    std::pair<Status, ValueDesc> out{Status::kIoError, {}};
    bed.retrieve(it->first, [&](Status s, ValueDesc v) { out = {s, v}; });
    bed.eq().run();
    ASSERT_EQ(out.first, Status::kOk) << it->first;
    ASSERT_EQ(out.second.fingerprint, it->second) << it->first;
  }
}

TEST(LsmBehavior, TombstonesEventuallyCompactAway) {
  Bed b;
  for (u64 i = 0; i < 2000; ++i)
    ASSERT_EQ(b.put(wl::make_key(i, 12), 512, i), Status::kOk);
  b.drain();
  for (u64 i = 0; i < 2000; ++i) {
    Status st = Status::kIoError;
    b.bed.remove(wl::make_key(i, 12), [&](Status s) { st = s; });
    b.bed.eq().run();
    ASSERT_EQ(st, Status::kOk);
  }
  // Churn to force compactions through the tombstones.
  for (u64 i = 0; i < 4000; ++i)
    ASSERT_EQ(b.put(wl::make_key(10000 + i, 12), 512, i), Status::kOk);
  b.drain();
  for (u64 i = 0; i < 2000; i += 101)
    EXPECT_EQ(b.get(wl::make_key(i, 12)).first, Status::kNotFound) << i;
}

// A get snapshots its candidate SSTs, and its data-block read is issued
// after a scheduled delay. A compaction installed in between removes the
// snapshotted file; the read must re-run against the current version, not
// read the dead file (which used to fail the get with kInvalidArgument).
TEST(LsmBehavior, GetsRacingCompactionInstallNeverFail) {
  harness::LsmBedConfig c;
  c.lsm.memtable_bytes = 2 * MiB;
  c.lsm.l1_target_bytes = 16 * MiB;
  c.lsm.sst_target_bytes = 4 * MiB;
  harness::LsmBed bed(c);
  constexpr u64 kRecords = 100'000;
  const wl::YcsbRecordConfig rec;  // 23 B keys, 10 x 100 B fields
  (void)harness::fill_stack(bed, kRecords, rec.key_bytes, rec.value_bytes(),
                            128, 1);
  wl::WorkloadSpec spec =
      wl::ycsb_spec(wl::YcsbWorkload::kA, kRecords, 300'000, rec, 1);
  spec.queue_depth = 32;
  const harness::RunResult r = harness::run_workload(bed, spec);
  EXPECT_EQ(r.ops, 300'000u);
  EXPECT_EQ(r.errors.total(), 0u);
  EXPECT_GT(bed.store().retired_sst_lookups(), 0u);  // the race did occur
}

}  // namespace
}  // namespace kvsim::lsm
