// Multi-tenant isolation tests (docs/API.md "Multi-queue & tenancy").
//
// The differential test is the namespace-isolation contract: when the
// device is nowhere near saturation, tenant A's *functional* result
// stream — op counts, statuses, returned value fingerprints — must be
// identical whether or not tenant B is running beside it. Timing may
// shift (they share a command processor), so the comparison uses the
// order-independent per-tenant digest run_mix computes, which is
// invariant under completion reordering but sensitive to any value or
// status change. Runs cover all three beds times three seeds.
//
// The saturation test is the performance side of the same contract, at
// unit-test scale (bench_multitenant measures it properly): a qd-1
// victim behind a qd-64 aggressor keeps a bounded p99 on its own
// weighted queue, and loses that bound when both share one queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "harness/stacks.h"
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

nvme::NvmeConfig two_queue_nvme() {
  nvme::NvmeConfig n;
  n.num_queues = 2;
  n.queue_weights = {4, 1};
  return n;
}

std::unique_ptr<KvStack> make_bed(const std::string& kind,
                                  const nvme::NvmeConfig& n) {
  if (kind == "kvssd") {
    KvssdBedConfig c;
    c.dev = tiny_dev();
    c.nvme = n;
    return std::make_unique<KvssdBed>(c);
  }
  if (kind == "lsm") {
    LsmBedConfig c;
    c.dev = tiny_dev();
    c.nvme = n;
    return std::make_unique<LsmBed>(c);
  }
  HashKvBedConfig c;
  c.dev = tiny_dev();
  c.nvme = n;
  return std::make_unique<HashKvBed>(c);
}

constexpr u64 kKeys = 300;

// Populate one tenant's keyspace through the tenant-aware path (the
// plain fill_stack would write namespace 0, invisible to the tenant).
void load_tenant(KvStack& bed, u8 nsid, u32 queue) {
  wl::TenantSpec t;
  t.nsid = nsid;
  t.queue = queue;
  t.spec.num_ops = kKeys;
  t.spec.key_space = kKeys;
  t.spec.key_bytes = 16;
  t.spec.value_bytes = 512;
  t.spec.mix = wl::OpMix::insert_only();
  t.spec.distinct_inserts = true;  // every key id exactly once
  t.spec.queue_depth = 16;
  t.spec.seed = 5;
  wl::TenantMix mix;
  mix.tenants.push_back(std::move(t));
  (void)run_mix(bed, mix, {.drain_after = true});
}

// Read-mostly churn at qd 1: A's issue order is then a pure function of
// its own seed, so its digest is comparable across co-runner setups.
wl::TenantSpec tenant_a(u64 seed) {
  wl::TenantSpec t;
  t.name = "A";
  t.nsid = 1;
  t.queue = 0;
  t.weight = 4;
  t.spec.num_ops = 600;
  t.spec.key_space = kKeys;
  t.spec.key_bytes = 16;
  t.spec.value_bytes = 512;
  t.spec.mix = {0, 0.3, 0.7, 0};
  t.spec.queue_depth = 1;
  t.spec.seed = seed;
  return t;
}

wl::TenantSpec tenant_b(u64 seed) {
  wl::TenantSpec t;
  t.name = "B";
  t.nsid = 2;
  t.queue = 1;
  t.weight = 1;
  t.spec.num_ops = 600;
  t.spec.key_space = kKeys;
  t.spec.key_bytes = 16;
  t.spec.value_bytes = 512;
  t.spec.mix = {0, 0.5, 0.5, 0};
  t.spec.queue_depth = 16;
  t.spec.seed = seed + 1000;
  return t;
}

struct TenantView {
  u64 digest, ops, not_found, errors;
};

TenantView run_a(const std::string& kind, u64 seed, bool with_b) {
  auto bed = make_bed(kind, two_queue_nvme());
  load_tenant(*bed, /*nsid=*/1, /*queue=*/0);
  if (with_b) load_tenant(*bed, /*nsid=*/2, /*queue=*/1);
  wl::TenantMix mix;
  mix.tenants.push_back(tenant_a(seed));
  if (with_b) mix.tenants.push_back(tenant_b(seed));
  const MixResult r = run_mix(*bed, mix, {.drain_after = true});
  const TenantResult& a = r.tenants[0];
  EXPECT_EQ(a.name, "A");
  if (with_b) {
    EXPECT_EQ(r.tenants[1].result.ops, 600u);  // B actually ran
  }
  return TenantView{a.digest, a.result.ops, a.result.not_found,
                    a.result.errors.total()};
}

class TenantIsolation : public ::testing::TestWithParam<const char*> {};

TEST_P(TenantIsolation, CoRunnerDoesNotChangeVictimResults) {
  const std::string kind = GetParam();
  for (u64 seed : {11u, 12u, 13u}) {
    const TenantView solo = run_a(kind, seed, /*with_b=*/false);
    const TenantView shared = run_a(kind, seed, /*with_b=*/true);
    EXPECT_EQ(solo.ops, 600u) << kind << " seed " << seed;
    EXPECT_EQ(solo.digest, shared.digest) << kind << " seed " << seed;
    EXPECT_EQ(solo.ops, shared.ops) << kind << " seed " << seed;
    EXPECT_EQ(solo.not_found, shared.not_found) << kind << " seed " << seed;
    EXPECT_EQ(solo.errors, shared.errors) << kind << " seed " << seed;
    EXPECT_EQ(solo.errors, 0u) << kind << " seed " << seed;
  }
}

TEST_P(TenantIsolation, DigestHasTeeth) {
  // The digest must actually depend on what the tenant observed —
  // otherwise the equality above is vacuous.
  const std::string kind = GetParam();
  EXPECT_NE(run_a(kind, 11, false).digest, run_a(kind, 12, false).digest);
}

INSTANTIATE_TEST_SUITE_P(AllBeds, TenantIsolation,
                         ::testing::Values("kvssd", "lsm", "hashkv"));

TEST(TenantIsolation, WeightedQueueBoundsVictimTailUnderSaturation) {
  // Small-scale version of bench_multitenant's noisy-neighbor scenario,
  // on the KV-SSD bed: same victim, same aggressor, isolated 16:1 queues
  // vs one shared queue. The command processor must be decisively slower
  // than the tiny 4-die flash array (~44k reads/s), or die queueing
  // contaminates both configurations equally.
  auto p99 = [](bool isolated) {
    nvme::NvmeConfig n;
    n.device_fetch_ns = 50000;
    if (isolated) {
      n.num_queues = 2;
      n.queue_weights = {16, 1};
    }
    auto bed = make_bed("kvssd", n);
    load_tenant(*bed, 1, 0);
    load_tenant(*bed, 2, isolated ? 1 : 0);
    wl::TenantSpec victim;
    victim.name = "victim";
    victim.nsid = 1;
    victim.queue = 0;
    victim.weight = 16;
    victim.spec.num_ops = 300;
    victim.spec.key_space = kKeys;
    victim.spec.key_bytes = 16;
    victim.spec.value_bytes = 512;
    victim.spec.mix = wl::OpMix::read_only();
    victim.spec.queue_depth = 1;
    victim.spec.seed = 21;
    wl::TenantSpec aggr;
    aggr.name = "aggressor";
    aggr.nsid = 2;
    aggr.queue = isolated ? 1 : 0;
    aggr.weight = 1;
    aggr.spec.num_ops = 6000;
    aggr.spec.key_space = kKeys;
    aggr.spec.key_bytes = 16;
    aggr.spec.value_bytes = 512;
    aggr.spec.mix = wl::OpMix::read_only();
    aggr.spec.queue_depth = 64;
    aggr.spec.seed = 22;
    wl::TenantMix mix;
    mix.tenants.push_back(std::move(victim));
    mix.tenants.push_back(std::move(aggr));
    const MixResult r = run_mix(*bed, mix);
    return r.tenants[0].result.all.percentile(0.99);
  };
  const double iso = p99(true), shared = p99(false);
  EXPECT_GE(shared, 2.0 * iso) << "iso=" << iso << " shared=" << shared;
}

// A re-drive rides its tenant's queue. On the block beds the queue is a
// sticky hint on the device, which other tenants move between a failed
// attempt and its re-drive after backoff, so every attempt must set it
// again. Tenant 0 reads a namespace nobody loaded: its gets never reach
// the device, but each one moves the hint to queue 0. Every device
// command in the run is then an attempt of tenant 1, and all of them must
// be counted on queue 1.
TEST(TenantIsolation, ReDrivesRideTheIssuingTenantsQueue) {
  HashKvBedConfig c;
  c.dev = tiny_dev();
  c.nvme = two_queue_nvme();
  c.ftl.read_cache_pages = 1;  // gets reach flash, where faults are drawn
  c.ftl.readahead = false;
  HashKvBed bed(c);
  load_tenant(bed, /*nsid=*/2, /*queue=*/1);
  auto reader = [](u8 nsid, u32 queue, u64 ops, u32 qd) {
    wl::TenantSpec t;
    t.nsid = nsid;
    t.queue = queue;
    t.spec.num_ops = ops;
    t.spec.key_space = kKeys;
    t.spec.key_bytes = 16;
    t.spec.value_bytes = 512;
    t.spec.mix = wl::OpMix::read_only();
    t.spec.queue_depth = qd;
    t.spec.seed = 20 + nsid;
    return t;
  };
  wl::TenantMix mix;
  mix.tenants.push_back(reader(/*nsid=*/1, /*queue=*/0, 20'000, 1));
  mix.tenants.push_back(reader(/*nsid=*/2, /*queue=*/1, 600, 4));
  RunOptions opts;
  opts.faults.enabled = true;
  opts.faults.read_uber_base = 0.02;  // uncorrectable reads: kMediaError
  const MixResult r = run_mix(bed, mix, opts);

  ASSERT_EQ(r.tenants[0].result.not_found, 20'000u);
  ASSERT_GT(r.combined.host_retries, 0u);
  ASSERT_EQ(r.queues.size(), 2u);
  EXPECT_EQ(r.queues[0].stats.submissions, 0u);
  EXPECT_EQ(r.queues[1].stats.submissions,
            r.tenants[1].result.ops + r.combined.host_retries);
}

// The combined result is built by merging the tenant results at run end,
// so every per-op observable in it must equal the merge of the tenants'.
// The mix covers every path that records: a closed-loop tenant with
// scans and deletes (not-found completions), a Poisson open-loop tenant
// whose SLO sheds and whose window overflows into the backlog, and a
// plain closed-loop tenant at qd 1 that stretches the run over several
// bandwidth windows.
using Hist = LatencyHistogram RunResult::*;
constexpr Hist kHists[] = {&RunResult::insert, &RunResult::update,
                           &RunResult::read,   &RunResult::scan,
                           &RunResult::del,    &RunResult::all};

TEST(TenantMerge, CombinedIsTheMergeOfTheTenants) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  c.nvme.num_queues = 3;
  c.nvme.queue_weights = {1, 1, 1};
  KvssdBed bed(c);
  for (u8 ns = 1; ns <= 3; ++ns) load_tenant(bed, ns, ns - 1u);
  auto tenant = [](u8 nsid, u64 ops, wl::OpMix mix, u32 qd) {
    wl::TenantSpec t;
    t.nsid = nsid;
    t.queue = nsid - 1u;
    t.spec.num_ops = ops;
    t.spec.key_space = kKeys;
    t.spec.key_bytes = 16;
    t.spec.value_bytes = 512;
    t.spec.mix = mix;
    t.spec.queue_depth = qd;
    t.spec.seed = 30 + nsid;
    return t;
  };
  wl::TenantMix mix;
  mix.tenants.push_back(tenant(1, 1500, {0, 0.3, 0.3, 0.2}, 8));
  wl::TenantSpec open = tenant(2, 1200, {0, 0.4, 0.6, 0}, 16);
  open.spec.arrival.kind = wl::ArrivalKind::kPoisson;
  open.spec.arrival.rate_ops_per_sec = 500'000.0;
  open.spec.arrival.max_inflight = 8;
  mix.tenants.push_back(open);
  mix.tenants.push_back(tenant(3, 4000, wl::OpMix::read_only(), 1));
  RunOptions opts;
  SloSpec slo;
  slo.p99_target_ns = 2 * kMs;
  slo.max_inflight = 24;
  slo.window = 32;
  opts.slos = {SloSpec{}, slo};
  const MixResult m = run_mix(bed, mix, opts);
  ASSERT_EQ(m.tenants.size(), 3u);
  const RunResult& c0 = m.combined;

  // The scenario must exercise what it claims to.
  const RunResult& t0 = m.tenants[0].result;
  const RunResult& t1 = m.tenants[1].result;
  EXPECT_GT(t0.scan.count(), 0u);
  EXPECT_GT(t0.del.count(), 0u);
  EXPECT_GT(t0.not_found, 0u);
  EXPECT_GT(t1.shed_ops, 0u);
  EXPECT_GT(t1.arrival_overflows, 0u);
  EXPECT_GT(t1.backlog_peak, 0u);
  EXPECT_GT(c0.bw.num_windows(), 1u);

  RunResult sum;
  std::vector<u64> windows;  // element-wise sum, built without merge()
  u64 peak_max = 0, peak_sum = 0, error_total = 0;
  for (const TenantResult& t : m.tenants) {
    const RunResult& r = t.result;
    for (const Hist h : kHists) (sum.*h).merge(r.*h);
    const std::vector<u64>& tw = r.bw.raw_windows();
    if (tw.size() > windows.size()) windows.resize(tw.size(), 0);
    for (size_t i = 0; i < tw.size(); ++i) windows[i] += tw[i];
    sum.ops += r.ops;
    sum.not_found += r.not_found;
    sum.errors.merge(r.errors);
    error_total += r.errors.total();
    sum.offered_ops += r.offered_ops;
    sum.shed_ops += r.shed_ops;
    sum.deferred_ops += r.deferred_ops;
    sum.deadline_exceeded_ops += r.deadline_exceeded_ops;
    sum.arrival_overflows += r.arrival_overflows;
    sum.slo_goodput_ops += r.slo_goodput_ops;
    peak_max = std::max(peak_max, r.backlog_peak);
    peak_sum += r.backlog_peak;
  }

  for (const Hist h : kHists) {
    const LatencyHistogram& got = c0.*h;
    const LatencyHistogram& want = sum.*h;
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.sum(), want.sum());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
    EXPECT_EQ(got.nonzero_buckets(), want.nonzero_buckets());
  }
  EXPECT_EQ(c0.bw.raw_windows(), windows);
  EXPECT_EQ(c0.ops, sum.ops);
  EXPECT_EQ(c0.all.count(), c0.ops);
  EXPECT_EQ(c0.not_found, sum.not_found);
  EXPECT_EQ(c0.errors.io, sum.errors.io);
  EXPECT_EQ(c0.errors.media, sum.errors.media);
  EXPECT_EQ(c0.errors.busy, sum.errors.busy);
  EXPECT_EQ(c0.errors.timeout, sum.errors.timeout);
  EXPECT_EQ(c0.errors.capacity, sum.errors.capacity);
  EXPECT_EQ(c0.errors.other, sum.errors.other);
  EXPECT_EQ(c0.errors.shed, sum.errors.shed);
  EXPECT_EQ(c0.errors.deadline, sum.errors.deadline);
  EXPECT_EQ(c0.errors.total(), error_total);
  EXPECT_EQ(c0.errors.shed, c0.shed_ops);
  EXPECT_EQ(c0.offered_ops, sum.offered_ops);
  EXPECT_EQ(c0.shed_ops, sum.shed_ops);
  EXPECT_EQ(c0.deferred_ops, sum.deferred_ops);
  EXPECT_EQ(c0.deadline_exceeded_ops, sum.deadline_exceeded_ops);
  EXPECT_EQ(c0.arrival_overflows, sum.arrival_overflows);
  EXPECT_EQ(c0.slo_goodput_ops, sum.slo_goodput_ops);
  // The combined peak is the peak of the summed backlog: at least any one
  // tenant's peak, at most the sum of them.
  EXPECT_LE(peak_max, c0.backlog_peak);
  EXPECT_LE(c0.backlog_peak, peak_sum);
}

}  // namespace
}  // namespace kvsim::harness
