// Tests for the SNIA-style KV API layer over the NVMe link: command
// accounting, end-to-end semantics through the full device path, stream
// hints, and iterator access.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "harness/stacks.h"
#include "kvapi/kvs_iterator.h"
#include "workload/workload.h"

namespace kvsim::kvapi {
namespace {

harness::KvssdBedConfig tiny_cfg() {
  harness::KvssdBedConfig c;
  c.dev.geometry.channels = 2;
  c.dev.geometry.dies_per_channel = 2;
  c.dev.geometry.planes_per_die = 2;
  c.dev.geometry.blocks_per_plane = 16;
  c.dev.geometry.pages_per_block = 16;
  return c;
}

struct Api {
  harness::KvssdBed bed{tiny_cfg()};

  Status store(const std::string& k, u32 size, u64 fp, u8 stream = 0) {
    Status out = Status::kIoError;
    bed.device().store(k, ValueDesc{size, fp},
                       [&](Status s) { out = s; }, stream);
    bed.eq().run();
    return out;
  }
  std::pair<Status, ValueDesc> retrieve(const std::string& k) {
    std::pair<Status, ValueDesc> out{Status::kIoError, {}};
    bed.device().retrieve(k, [&](Status s, ValueDesc v) { out = {s, v}; });
    bed.eq().run();
    return out;
  }
};

TEST(KvsDevice, StoreRetrieveThroughNvme) {
  Api api;
  EXPECT_EQ(api.store("object-1", 700, 9), Status::kOk);
  auto [s, v] = api.retrieve("object-1");
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(v.size, 700u);
  EXPECT_EQ(v.fingerprint, 9u);
}

TEST(KvsDevice, CommandCountTracksKeySize) {
  Api api;
  const u64 c0 = 0;
  (void)c0;
  ASSERT_EQ(api.store("tiny-key", 100, 1), Status::kOk);  // 8 B: 1 cmd
  // NvmeLink counter is internal to the bed; assert via host CPU deltas.
  const u64 cpu_small = api.bed.host_cpu_ns();
  ASSERT_EQ(api.store(std::string(64, 'k'), 100, 2), Status::kOk);  // 2 cmds
  const u64 delta_large = api.bed.host_cpu_ns() - cpu_small;
  Api api2;
  ASSERT_EQ(api2.store("tiny-key1", 100, 1), Status::kOk);
  const u64 cpu2 = api2.bed.host_cpu_ns();
  ASSERT_EQ(api2.store("tiny-key2", 100, 2), Status::kOk);
  const u64 delta_small = api2.bed.host_cpu_ns() - cpu2;
  EXPECT_GT(delta_large, delta_small);  // extra submission work
}

TEST(KvsDevice, ExistAndRemoveThroughApi) {
  Api api;
  ASSERT_EQ(api.store("gone-soon", 64, 3), Status::kOk);
  bool found = false;
  api.bed.device().exist("gone-soon", [&](Status, bool f) { found = f; });
  api.bed.eq().run();
  EXPECT_TRUE(found);
  Status st = Status::kIoError;
  api.bed.device().remove("gone-soon", [&](Status s) { st = s; });
  api.bed.eq().run();
  EXPECT_EQ(st, Status::kOk);
  api.bed.device().exist("gone-soon", [&](Status, bool f) { found = f; });
  api.bed.eq().run();
  EXPECT_FALSE(found);
}

TEST(KvsDevice, IteratorThroughApi) {
  Api api;
  std::set<std::string> keys;
  for (int i = 0; i < 60; ++i) {
    const std::string k = wl::make_key((u64)i, 12);
    ASSERT_EQ(api.store(k, 32, (u64)i), Status::kOk);
    keys.insert(k);
  }
  std::set<std::string> seen;
  for (u32 b : api.bed.device().iterator_bucket_ids()) {
    api.bed.device().iterate_bucket(b, [&](std::vector<std::string> ks) {
      for (auto& k : ks) seen.insert(std::move(k));
    });
    api.bed.eq().run();
  }
  EXPECT_EQ(seen, keys);
}

TEST(KvsDevice, StreamHintsRouteToDisjointBlocks) {
  harness::KvssdBedConfig cfg = tiny_cfg();
  cfg.ftl.write_streams = 2;
  harness::KvssdBed bed(cfg);
  // Interleave two streams; each stream's data should pack into its own
  // pages, so blocks end up single-stream.
  u64 oks = 0;
  for (u64 i = 0; i < 2000; ++i)
    bed.device().store(wl::make_key(i, 16), ValueDesc{4096, i},
                       [&](Status s) { oks += s == Status::kOk; },
                       (u8)(i % 2));
  bed.eq().run();
  EXPECT_EQ(oks, 2000u);
  // All data still readable regardless of stream.
  for (u64 i = 0; i < 2000; i += 97) {
    std::pair<Status, ValueDesc> out{Status::kIoError, {}};
    bed.device().retrieve(wl::make_key(i, 16),
                          [&](Status s, ValueDesc v) { out = {s, v}; });
    bed.eq().run();
    ASSERT_EQ(out.first, Status::kOk) << i;
    ASSERT_EQ(out.second.fingerprint, i) << i;
  }
}

TEST(KvsDevice, StreamHintClampsToConfiguredStreams) {
  Api api;  // write_streams = 1
  EXPECT_EQ(api.store("any-key", 128, 5, /*stream=*/7), Status::kOk);
  auto [s, v] = api.retrieve("any-key");
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(v.fingerprint, 5u);
}

TEST(KvsIterator, CursorBatchesCoverBucket) {
  Api api;
  // Keys sharing a 4-byte prefix land in one bucket group.
  std::set<std::string> keys;
  for (int i = 0; i < 25; ++i) {
    const std::string k = "grp-" + std::to_string(1000 + i);
    ASSERT_EQ(api.store(k, 64, (u64)i), Status::kOk);
    keys.insert(k);
  }
  const u32 bucket = kvftl::IteratorBuckets::bucket_of("grp-");
  kvapi::KvsIterator it(api.bed.device(), bucket);
  EXPECT_EQ(it.remaining(), 25u);
  std::set<std::string> seen;
  u32 batches = 0;
  while (!it.exhausted()) {
    std::vector<std::string> got;
    it.next(8, [&](std::vector<std::string> ks) { got = std::move(ks); });
    api.bed.eq().run();
    EXPECT_LE(got.size(), 8u);
    EXPECT_FALSE(got.empty());
    for (auto& k : got) EXPECT_TRUE(seen.insert(std::move(k)).second);
    ++batches;
  }
  EXPECT_EQ(seen, keys);
  EXPECT_EQ(batches, 4u);  // 8 + 8 + 8 + 1
  // Exhausted iterator returns empty batches.
  std::vector<std::string> tail{"sentinel"};
  it.next(8, [&](std::vector<std::string> ks) { tail = std::move(ks); });
  api.bed.eq().run();
  EXPECT_TRUE(tail.empty());
}

TEST(KvsIterator, SnapshotIgnoresLaterInserts) {
  Api api;
  ASSERT_EQ(api.store("snap-1", 32, 1), Status::kOk);
  const u32 bucket = kvftl::IteratorBuckets::bucket_of("snap");
  kvapi::KvsIterator it(api.bed.device(), bucket);
  ASSERT_EQ(api.store("snap-2", 32, 2), Status::kOk);  // after open
  std::vector<std::string> got;
  it.next(16, [&](std::vector<std::string> ks) { got = std::move(ks); });
  api.bed.eq().run();
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "snap-1");
}

TEST(KvsIterator, EachBatchCostsOneDeviceRead) {
  Api api;
  for (int i = 0; i < 20; ++i)
    ASSERT_EQ(api.store("cost" + std::to_string(i), 32, (u64)i), Status::kOk);
  bool flushed = false;
  api.bed.device().flush([&] { flushed = true; });
  api.bed.eq().run();
  ASSERT_TRUE(flushed);
  const u32 bucket = kvftl::IteratorBuckets::bucket_of("cost");
  kvapi::KvsIterator it(api.bed.device(), bucket);
  const u64 reads_before = api.bed.flash().stats().page_reads;
  it.next(10, [](std::vector<std::string>) {});
  api.bed.eq().run();
  EXPECT_EQ(api.bed.flash().stats().page_reads - reads_before, 1u);
}

TEST(KvsIterator, PairModeReturnsValues) {
  Api api;
  for (int i = 0; i < 12; ++i)
    ASSERT_EQ(api.store("pair" + std::to_string(i), 100 + (u32)i, (u64)i),
              Status::kOk);
  const u32 bucket = kvftl::IteratorBuckets::bucket_of("pair");
  kvapi::KvsIterator it(api.bed.device(), bucket);
  std::vector<std::pair<std::string, ValueDesc>> all;
  while (!it.exhausted()) {
    it.next_pairs(5, [&](auto pairs) {
      for (auto& p : pairs) all.push_back(std::move(p));
    });
    api.bed.eq().run();
  }
  ASSERT_EQ(all.size(), 12u);
  for (const auto& [k, v] : all) {
    const u64 i = (u64)std::stoi(k.substr(4));
    EXPECT_EQ(v.size, 100 + i);
    EXPECT_EQ(v.fingerprint, i);
  }
}

TEST(KvsIterator, PairModeSkipsDeletedKeys) {
  Api api;
  ASSERT_EQ(api.store("dele1", 64, 1), Status::kOk);
  ASSERT_EQ(api.store("dele2", 64, 2), Status::kOk);
  const u32 bucket = kvftl::IteratorBuckets::bucket_of("dele");
  kvapi::KvsIterator it(api.bed.device(), bucket);
  Status st = Status::kIoError;
  api.bed.device().remove("dele1", [&](Status s) { st = s; });
  api.bed.eq().run();
  ASSERT_EQ(st, Status::kOk);
  std::vector<std::pair<std::string, ValueDesc>> got;
  it.next_pairs(16, [&](auto pairs) { got = std::move(pairs); });
  api.bed.eq().run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, "dele2");
}

TEST(KvsNamespaces, KeySpacesAreIsolated) {
  Api api;
  Status st = Status::kIoError;
  api.bed.device().store("shared-key", ValueDesc{100, 1},
                         [&](Status s) { st = s; }, 0, /*nsid=*/1);
  api.bed.eq().run();
  ASSERT_EQ(st, Status::kOk);
  api.bed.device().store("shared-key", ValueDesc{200, 2},
                         [&](Status s) { st = s; }, 0, /*nsid=*/2);
  api.bed.eq().run();
  ASSERT_EQ(st, Status::kOk);

  std::pair<Status, ValueDesc> out{Status::kIoError, {}};
  api.bed.device().retrieve("shared-key",
                            [&](Status s, ValueDesc v) { out = {s, v}; },
                            1);
  api.bed.eq().run();
  EXPECT_EQ(out.second.fingerprint, 1u);
  api.bed.device().retrieve("shared-key",
                            [&](Status s, ValueDesc v) { out = {s, v}; },
                            2);
  api.bed.eq().run();
  EXPECT_EQ(out.second.fingerprint, 2u);
  // Default namespace never saw the key.
  api.bed.device().retrieve("shared-key",
                            [&](Status s, ValueDesc v) { out = {s, v}; });
  api.bed.eq().run();
  EXPECT_EQ(out.first, Status::kNotFound);
  EXPECT_EQ(api.bed.device().kvp_count_in(1), 1u);
  EXPECT_EQ(api.bed.device().kvp_count_in(2), 1u);
  EXPECT_EQ(api.bed.device().kvp_count_in(0), 0u);
}

TEST(KvsNamespaces, DeleteRemovesOnlyThatSpace) {
  Api api;
  for (int i = 0; i < 20; ++i) {
    Status st = Status::kIoError;
    api.bed.device().store("bulk" + std::to_string(i), ValueDesc{64, (u64)i},
                           [&](Status s) { st = s; }, 0, 3);
    api.bed.eq().run();
    ASSERT_EQ(st, Status::kOk);
  }
  ASSERT_EQ(api.store("keeper-1", 64, 9), Status::kOk);  // default ns
  u64 removed = 0;
  api.bed.device().delete_namespace(3, [&](u64 n) { removed = n; });
  api.bed.eq().run();
  EXPECT_EQ(removed, 20u);
  EXPECT_EQ(api.bed.device().kvp_count_in(3), 0u);
  auto [s, v] = api.retrieve("keeper-1");
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(v.fingerprint, 9u);
}

// delete_namespace removes one key per step; a power cut partway through
// (discard_pending) drops the pending remove, the chain's only owner, so
// the completion and everything it captured must be freed with it.
TEST(KvsNamespaces, DeleteCutPartwayFreesItsState) {
  Api api;
  for (int i = 0; i < 20; ++i) {
    Status st = Status::kIoError;
    api.bed.device().store("bulk" + std::to_string(i), ValueDesc{64, (u64)i},
                           [&](Status s) { st = s; }, 0, 3);
    api.bed.eq().run();
    ASSERT_EQ(st, Status::kOk);
  }
  auto token = std::make_shared<int>(0);
  bool completed = false;
  api.bed.device().delete_namespace(
      3, [token, &completed](u64) { completed = true; });
  while (api.bed.device().kvp_count_in(3) > 10 && api.bed.eq().step()) {
  }
  ASSERT_EQ(api.bed.device().kvp_count_in(3), 10u);
  ASSERT_FALSE(completed);
  EXPECT_GT(token.use_count(), 1);
  api.bed.eq().discard_pending();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(completed);
}

TEST(KvsNamespaces, IteratorBucketsScopedByNamespace) {
  Api api;
  Status st = Status::kIoError;
  api.bed.device().store("scope-a", ValueDesc{32, 1},
                         [&](Status s) { st = s; }, 0, 4);
  api.bed.eq().run();
  ASSERT_EQ(st, Status::kOk);
  const auto ns4 = api.bed.ftl().iterator_bucket_ids_of(4);
  const auto ns5 = api.bed.ftl().iterator_bucket_ids_of(5);
  EXPECT_EQ(ns4.size(), 1u);
  EXPECT_TRUE(ns5.empty());
  EXPECT_EQ(ns4[0] >> 16, 4u);
}

TEST(KvsDevice, HostCpuAccumulates) {
  Api api;
  const u64 before = api.bed.host_cpu_ns();
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(api.store(wl::make_key((u64)i, 16), 512, (u64)i), Status::kOk);
  // 100 ops x (api + submit + completion) ~ hundreds of microseconds.
  EXPECT_GT(api.bed.host_cpu_ns() - before, 100u * 2000u);
}

}  // namespace
}  // namespace kvsim::kvapi
