// Unit tests for common utilities: RNG, Zipf, hashing, histogram,
// bandwidth tracker, table rendering, the LRU cache, the flat hash map.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ascii_plot.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/lru.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timeseries.h"
#include "common/types.h"

namespace kvsim {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng r(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Zipf, MostPopularRankDominates) {
  Rng r(3);
  ZipfGenerator z(1000, 0.99);
  u64 rank0 = 0, total = 100000;
  for (u64 i = 0; i < total; ++i) rank0 += z.next(r) == 0;
  // With theta=0.99 over 1000 items, rank 0 gets ~12-15% of draws.
  EXPECT_GT(rank0, total / 20);
  EXPECT_LT(rank0, total / 3);
}

TEST(Zipf, RanksWithinBounds) {
  Rng r(5);
  ZipfGenerator z(50, 0.8);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.next(r), 50u);
}

TEST(Zipf, ScatterRankIsAPermutationish) {
  // scatter_rank maps ranks to distinct-ish slots (collisions allowed but
  // rare for small counts).
  std::set<u64> seen;
  for (u64 i = 0; i < 100; ++i) seen.insert(scatter_rank(i, 1u << 30));
  EXPECT_GE(seen.size(), 99u);
}

TEST(Hash, StableAndSpread) {
  EXPECT_EQ(hash64("hello"), hash64("hello"));
  EXPECT_NE(hash64("hello"), hash64("hellp"));
  EXPECT_NE(hash64("a"), hash64("b"));
  EXPECT_NE(hash64("key1", 1), hash64("key1", 2));
}

TEST(Histogram, MeanAndCount) {
  LatencyHistogram h;
  for (u64 v = 1; v <= 100; ++v) h.record(v * 1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean(), 50500.0, 1.0);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 100000u);
}

TEST(Histogram, PercentilesOrdered) {
  LatencyHistogram h;
  Rng r(9);
  for (int i = 0; i < 50000; ++i) h.record(r.below(1000000) + 1);
  const TimeNs p50 = h.percentile(0.50);
  const TimeNs p90 = h.percentile(0.90);
  const TimeNs p99 = h.percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  // ~3% bucket error allowed.
  EXPECT_NEAR((double)p50, 500000.0, 500000.0 * 0.05);
}

TEST(Histogram, MergeAddsCounts) {
  LatencyHistogram a, b;
  a.record(10);
  b.record(1000000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(Histogram, LargeValuesClampToLastBucket) {
  LatencyHistogram h;
  h.record(~0ull);  // absurd latency must not crash or misindex
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.percentile(1.0), 0u);
}

TEST(Histogram, BucketRoundTripAtBoundaries) {
  // bucket_for(bucket_upper(b)) == b for every bucket, and
  // bucket_upper(bucket_for(v)) >= v at the awkward edges: the linear/log
  // crossover (31, 32, 33), exact powers of two, and power-of-two +/- 1.
  for (int b = 0; b < LatencyHistogram::num_buckets(); ++b)
    EXPECT_EQ(LatencyHistogram::bucket_for(LatencyHistogram::bucket_upper(b)),
              b)
        << "bucket " << b;
  std::vector<TimeNs> edges = {0, 1, 31, 32, 33, 63, 64, 65};
  for (int shift = 7; shift < 34; ++shift) {
    const TimeNs p = 1ull << shift;
    edges.push_back(p - 1);
    edges.push_back(p);
    edges.push_back(p + 1);
  }
  for (TimeNs v : edges) {
    const int b = LatencyHistogram::bucket_for(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, LatencyHistogram::num_buckets());
    EXPECT_GE(LatencyHistogram::bucket_upper(b), v) << "v=" << v;
    if (b > 0) {
      EXPECT_LT(LatencyHistogram::bucket_upper(b - 1), v) << "v=" << v;
    }
  }
}

TEST(Histogram, PercentileEdgeQuantiles) {
  LatencyHistogram h;
  h.record(100);
  // A single sample answers every quantile with that sample.
  EXPECT_EQ(h.percentile(0.0), 100u);
  EXPECT_EQ(h.percentile(0.5), 100u);
  EXPECT_EQ(h.percentile(1.0), 100u);
  h.record(1000000);
  // q=0 is the exact minimum and q=1 the exact maximum, not bucket bounds.
  EXPECT_EQ(h.percentile(0.0), 100u);
  EXPECT_EQ(h.percentile(1.0), 1000000u);
  // Empty histogram is all zeros.
  LatencyHistogram empty;
  EXPECT_EQ(empty.percentile(0.0), 0u);
  EXPECT_EQ(empty.percentile(0.5), 0u);
  EXPECT_EQ(empty.percentile(1.0), 0u);
}

TEST(Histogram, PercentileMidBucketClampsToObservedRange) {
  // A value off the bucket grid: the quantile walk lands on its bucket's
  // upper edge, which sits above the sample and must clamp down to the
  // observed max (the histogram is never asked here with count_ == 0, so
  // the clamp floor is simply min_).
  LatencyHistogram h;
  h.record(1003);
  h.record(1003);
  ASSERT_GT(LatencyHistogram::bucket_upper(LatencyHistogram::bucket_for(1003)),
            1003u);
  EXPECT_EQ(h.percentile(0.25), 1003u);
  EXPECT_EQ(h.percentile(0.5), 1003u);
  EXPECT_EQ(h.percentile(1.0), 1003u);
  // Two samples in distinct buckets: every quantile stays inside
  // [min, max] and below the first bucket's decade for low q.
  LatencyHistogram g;
  g.record(100);
  g.record(100'000);
  const TimeNs lo = g.percentile(0.25);
  EXPECT_GE(lo, 100u);
  EXPECT_LT(lo, 1000u);  // first bucket's edge, not the second sample
  const TimeNs hi = g.percentile(0.75);
  EXPECT_GE(hi, lo);
  EXPECT_LE(hi, 100'000u);
}

TEST(Histogram, SumAndNonzeroBuckets) {
  LatencyHistogram h;
  u64 expect_sum = 0;
  for (u64 v = 1; v <= 200; ++v) {
    h.record(v * 37);
    expect_sum += v * 37;
  }
  EXPECT_EQ(h.sum(), expect_sum);
  const auto buckets = h.nonzero_buckets();
  ASSERT_FALSE(buckets.empty());
  u64 total = 0;
  TimeNs prev_upper = 0;
  for (const auto& [upper, count] : buckets) {
    EXPECT_GT(count, 0u);
    EXPECT_GT(upper, prev_upper);  // ascending, distinct
    prev_upper = upper;
    total += count;
  }
  EXPECT_EQ(total, h.count());
  EXPECT_TRUE(LatencyHistogram().nonzero_buckets().empty());
}

TEST(Bandwidth, WindowsAccumulate) {
  BandwidthTracker bw(100 * kMs);
  bw.add(10 * kMs, 1000);
  bw.add(50 * kMs, 1000);
  bw.add(150 * kMs, 5000);
  EXPECT_EQ(bw.num_windows(), 2u);
  EXPECT_DOUBLE_EQ(bw.bytes_per_sec(0), 20000.0);  // 2000 B / 0.1 s
  EXPECT_DOUBLE_EQ(bw.bytes_per_sec(1), 50000.0);
}

TEST(Bandwidth, MinIgnoresTrailingPartialWindow) {
  BandwidthTracker bw(100 * kMs);
  bw.add(10 * kMs, 10000);
  bw.add(110 * kMs, 2000);
  bw.add(210 * kMs, 1);  // trailing partial
  EXPECT_DOUBLE_EQ(bw.min_bytes_per_sec(), 20000.0);
}

TEST(Bandwidth, MergeMatchesOneTrackerFedBothStreams) {
  // Trackers of different lengths: the shorter one's windows add into the
  // longer one's prefix, and the merged tracker reads exactly like one
  // tracker that saw every sample.
  const std::pair<TimeNs, u64> a[] = {
      {10 * kMs, 1000}, {150 * kMs, 3000}, {420 * kMs, 700}};
  const std::pair<TimeNs, u64> b[] = {{20 * kMs, 500}, {130 * kMs, 9000}};
  BandwidthTracker ta(100 * kMs), tb(100 * kMs), all(100 * kMs);
  for (const auto& [t, bytes] : a) {
    ta.add(t, bytes);
    all.add(t, bytes);
  }
  for (const auto& [t, bytes] : b) {
    tb.add(t, bytes);
    all.add(t, bytes);
  }
  ASSERT_NE(ta.num_windows(), tb.num_windows());

  BandwidthTracker short_first = tb;  // grows to the longer length
  short_first.merge(ta);
  BandwidthTracker long_first = ta;
  long_first.merge(tb);
  for (const BandwidthTracker* m : {&short_first, &long_first}) {
    EXPECT_EQ(m->raw_windows(), all.raw_windows());
    EXPECT_DOUBLE_EQ(m->mean_bytes_per_sec(), all.mean_bytes_per_sec());
    EXPECT_DOUBLE_EQ(m->min_bytes_per_sec(), all.min_bytes_per_sec());
  }
  BandwidthTracker empty(100 * kMs);
  empty.merge(ta);
  EXPECT_EQ(empty.raw_windows(), ta.raw_windows());
  EXPECT_DOUBLE_EQ(empty.mean_bytes_per_sec(), ta.mean_bytes_per_sec());
  EXPECT_THROW(ta.merge(BandwidthTracker(10 * kMs)), std::invalid_argument);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "2.5"});
  const std::string out = t.render();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(AsciiChart, RendersSeriesAndLegend) {
  AsciiChart c(40, 8);
  c.add_series("up", {{0, 0}, {1, 1}, {2, 2}}, '*');
  c.add_series("down", {{0, 2}, {1, 1}, {2, 0}}, '#');
  const std::string out = c.render();
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("* = up"), std::string::npos);
  EXPECT_NE(out.find("# = down"), std::string::npos);
  // 8 grid rows + axis + x labels + 2 legend lines
  EXPECT_GE((int)std::count(out.begin(), out.end(), '\n'), 11);
}

TEST(AsciiChart, EmptyChartSafe) {
  AsciiChart c;
  EXPECT_EQ(c.render(), "(empty chart)\n");
}

TEST(AsciiChart, FloorPinsZero) {
  AsciiChart c(30, 6);
  c.set_y_floor(0);
  c.add_series("s", {{0, 100}, {1, 200}}, '*');
  const std::string out = c.render();
  EXPECT_NE(out.find("0.0 |"), std::string::npos);
}

TEST(AsciiChart, SinglePointDoesNotDivideByZero) {
  AsciiChart c(30, 6);
  c.add_series("s", {{5, 5}}, '*');
  EXPECT_NE(c.render().find('*'), std::string::npos);
}

// --- LruCache ----------------------------------------------------------------

TEST(LruCache, TouchPromotesPeekAndContainsDoNot) {
  LruCache<int, int> c(2);
  c.insert(1, 10);
  c.insert(2, 20);
  ASSERT_NE(c.peek(1), nullptr);
  EXPECT_EQ(*c.peek(1), 10);
  EXPECT_TRUE(c.contains(1));
  c.insert(3, 30);  // 1 is still least recently used
  EXPECT_FALSE(c.contains(1));
  ASSERT_NE(c.touch(2), nullptr);  // 2 is now most recently used
  c.insert(4, 40);
  EXPECT_TRUE(c.contains(2));
  EXPECT_FALSE(c.contains(3));
  EXPECT_EQ(c.touch(3), nullptr);
  EXPECT_EQ(c.peek(3), nullptr);
}

TEST(LruCache, InsertOfResidentKeyChangesNothing) {
  LruCache<int, int> c(2);
  EXPECT_TRUE(c.insert(1, 10));
  EXPECT_TRUE(c.insert(2, 20));
  EXPECT_FALSE(c.insert(1, 99, 5));
  EXPECT_EQ(*c.peek(1), 10);
  EXPECT_EQ(c.weight(), 2u);
  c.insert(3, 30);  // 1 was not promoted, so it goes first
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
}

TEST(LruCache, CountBoundEvictsInLruOrderOncePerVictim) {
  LruCache<int, int> c(3);
  std::vector<std::pair<int, int>> evicted;
  auto log = [&evicted](int k, int v) { evicted.emplace_back(k, v); };
  for (int k = 0; k < 6; ++k) c.insert(k, k * 10, 1, log);
  const std::vector<std::pair<int, int>> want = {{0, 0}, {1, 10}, {2, 20}};
  EXPECT_EQ(evicted, want);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.weight(), 3u);
}

TEST(LruCache, WeightBoundEvictsUntilTheNewEntryFits) {
  LruCache<int> c(100);
  std::vector<int> evicted;
  auto log = [&evicted](int k, NoValue) { evicted.push_back(k); };
  c.insert(1, {}, 40, log);
  c.insert(2, {}, 40, log);
  c.insert(3, {}, 10, log);
  EXPECT_TRUE(evicted.empty());
  c.insert(4, {}, 50, log);  // 140 > 100: drop 1 (100); 2 stays
  EXPECT_EQ(evicted, std::vector<int>{1});
  EXPECT_EQ(c.weight(), 100u);
  c.touch(2);
  c.insert(5, {}, 45, log);  // 145: drop 3 (135), then 4 (85)
  EXPECT_EQ(evicted, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(c.weight(), 85u);
  EXPECT_TRUE(c.contains(2));
  EXPECT_TRUE(c.contains(5));
}

TEST(LruCache, OverweightInsertFlushesOlderEntriesThenItself) {
  LruCache<int> c(100);
  std::vector<int> evicted;
  auto log = [&evicted](int k, NoValue) { evicted.push_back(k); };
  c.insert(1, {}, 30, log);
  c.insert(2, {}, 30, log);
  EXPECT_TRUE(c.insert(3, {}, 101, log));
  EXPECT_EQ(evicted, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.weight(), 0u);
}

TEST(LruCache, ZeroCapacityHoldsNothing) {
  LruCache<int> c(0);
  int evictions = 0;
  EXPECT_FALSE(c.insert(1, {}, 1, [&evictions](int, NoValue) {
    ++evictions;
  }));
  EXPECT_FALSE(c.insert(2));
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.touch(1), nullptr);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(evictions, 0);
}

TEST(LruCache, EraseAndClearRestoreTheWeight) {
  LruCache<int> c(100);
  int evictions = 0;
  auto count = [&evictions](int, NoValue) { ++evictions; };
  c.insert(1, {}, 30, count);
  c.insert(2, {}, 50, count);
  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.erase(1));
  EXPECT_EQ(c.weight(), 50u);
  c.insert(3, {}, 50, count);  // fits exactly: nothing evicted
  EXPECT_EQ(evictions, 0);
  c.clear();
  EXPECT_EQ(c.weight(), 0u);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.contains(2));
  c.insert(4, {}, 100, count);
  EXPECT_EQ(evictions, 0);
  EXPECT_TRUE(c.contains(4));
}

// --- FlatMap -----------------------------------------------------------------

// Every key homes at its own value (mod the capacity), so a test can lay
// out probe runs by hand.
struct IdentityHash {
  u64 operator()(u64 k) const { return k; }
};

// Check `m` against `oracle` entry by entry, through find and for_each.
template <class Map>
void expect_same(const Map& m, const std::unordered_map<u64, u64>& oracle) {
  ASSERT_EQ(m.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    const u64* got = m.find(k);
    ASSERT_NE(got, nullptr) << "key " << k;
    ASSERT_EQ(*got, v) << "key " << k;
  }
  u64 visited = 0;
  m.for_each([&](u64 k, u64 v) {
    ++visited;
    auto it = oracle.find(k);
    ASSERT_NE(it, oracle.end()) << "stray key " << k;
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visited, oracle.size());
}

TEST(FlatMap, MatchesUnorderedMapOracleUnderMixedOps) {
  FlatMap<u64, u64> m;
  std::unordered_map<u64, u64> oracle;
  Rng rng(2024);
  // A small key space keeps runs long and makes erase hit often.
  for (u64 op = 0; op < 200'000; ++op) {
    const u64 k = rng.below(4096) * 0x10001;  // spread across the high bits
    switch (rng.below(3)) {
      case 0:
        m[k] = op;
        oracle[k] = op;
        break;
      case 1:
        ASSERT_EQ(m.erase(k), oracle.erase(k) == 1) << "op " << op;
        break;
      default: {
        const u64* got = m.find(k);
        auto it = oracle.find(k);
        ASSERT_EQ(got != nullptr, it != oracle.end()) << "op " << op;
        if (got) {
          ASSERT_EQ(*got, it->second) << "op " << op;
        }
      }
    }
    ASSERT_EQ(m.size(), oracle.size());
  }
  expect_same(m, oracle);
}

TEST(FlatMap, EraseInsideARunThatWrapsKeepsEveryKeyReachable) {
  FlatMap<u64, u64, IdentityHash> m;
  m[0] = 0;  // allocate the first array
  const u64 cap = m.capacity();
  ASSERT_EQ(cap, 16u);
  m.erase(0);
  // Homes cap-3, cap-2 (twice), cap-1 (twice) and 0: one run of six slots
  // from cap-3 that wraps past the end to slot 2.
  const std::vector<u64> keys = {cap - 3, cap - 2, 2 * cap - 2,
                                 cap - 1, 2 * cap - 1, 2 * cap};
  std::unordered_map<u64, u64> oracle;
  for (u64 k : keys) {
    m[k] = k * 10;
    oracle[k] = k * 10;
  }
  ASSERT_EQ(m.capacity(), cap);
  // Erase from the middle of the run, before the wrap: every later entry
  // must shift back and stay reachable from its home.
  EXPECT_TRUE(m.erase(2 * cap - 2));
  oracle.erase(2 * cap - 2);
  expect_same(m, oracle);
  // Then the entry that sits on the wrap point, and one past it.
  EXPECT_TRUE(m.erase(cap - 1));
  oracle.erase(cap - 1);
  expect_same(m, oracle);
  EXPECT_TRUE(m.erase(2 * cap));
  oracle.erase(2 * cap);
  expect_same(m, oracle);
  EXPECT_FALSE(m.erase(2 * cap));
  // Re-insert into the now-shortened run.
  m[3 * cap - 1] = 7;
  oracle[3 * cap - 1] = 7;
  expect_same(m, oracle);
}

TEST(FlatMap, GrowthUnderLoadKeepsEveryEntry) {
  FlatMap<u64, u64, IdentityHash> m;
  std::unordered_map<u64, u64> oracle;
  u64 last_cap = 0, growths = 0;
  // Identity-hashed consecutive keys fill the array in dense runs, and
  // erasing every third keeps backward shifts going between growths.
  for (u64 k = 0; k < 50'000; ++k) {
    m[k] = k ^ 0xabcd;
    oracle[k] = k ^ 0xabcd;
    if (k % 3 == 2) {
      ASSERT_TRUE(m.erase(k - 1));
      oracle.erase(k - 1);
    }
    if (m.capacity() != last_cap) {
      ++growths;
      last_cap = m.capacity();
      EXPECT_LE(m.size() * 4, m.capacity() * 3);
      expect_same(m, oracle);
    }
  }
  EXPECT_GE(growths, 10u);
  expect_same(m, oracle);
}

TEST(FlatMap, IterationVisitsEachLiveEntryOnce) {
  FlatMap<u64, u64> m;
  for (u64 k = 1; k <= 1000; ++k) m[k * 7919] = k;
  for (u64 k = 1; k <= 1000; k += 2) m.erase(k * 7919);
  std::map<u64, int> seen;
  m.for_each([&](u64 k, u64 v) {
    ++seen[k];
    EXPECT_EQ(k, v * 7919);
  });
  ASSERT_EQ(seen.size(), 500u);
  for (const auto& [k, n] : seen) {
    EXPECT_EQ(n, 1) << "key " << k;
    EXPECT_EQ((k / 7919) % 2, 0u);
  }
}

TEST(FlatMap, ClearThenReuse) {
  FlatMap<u64, std::vector<u64>> m;
  for (u64 k = 0; k < 100; ++k) m[k].assign(k % 5, k);
  const u64 cap = m.capacity();
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity(), cap);
  for (u64 k = 0; k < 100; ++k) EXPECT_FALSE(m.contains(k));
  m.for_each([](u64, const std::vector<u64>&) { ADD_FAILURE(); });
  // A reused key starts from a default value, not the cleared one.
  EXPECT_TRUE(m[4].empty());
  m[4].push_back(9);
  m[200].push_back(1);
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(4), nullptr);
  EXPECT_EQ(*m.find(4), std::vector<u64>{9});
  EXPECT_FALSE(m.erase(5));
}

TEST(Types, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(4096), "4.00 KiB");
  EXPECT_EQ(format_bytes(3.5 * (double)GiB), "3.50 GiB");
}

TEST(Types, StatusStrings) {
  EXPECT_STREQ(to_string(Status::kOk), "ok");
  EXPECT_STREQ(to_string(Status::kDeviceFull), "device-full");
  EXPECT_TRUE(ok(Status::kOk));
  EXPECT_FALSE(ok(Status::kNotFound));
}

}  // namespace
}  // namespace kvsim
