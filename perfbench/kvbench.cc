// kvbench — the repository benchmark (see perfbench/README.md).
//
//   kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload per process. A run repeats "reps": each rep builds
// the bed, prefills it, warms it up and drains it (set-up), then drives a
// fixed measured phase through harness::run_mix, drains, and reads back a
// seeded sample of written keys. Reps repeat until --seconds have passed;
// host times are medians over reps, and every simulated result and exact
// count must repeat bit for bit across reps of one seed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same reps
// through TracingStack and prints the per-layer metrics, after the
// fidelity, determinism and sensitivity self-checks. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/types.h"
#include "counting_alloc.h"
#include "flash/controller.h"
#include "harness/runner.h"
#include "harness/stacks.h"
#include "tracing_stack.h"
#include "workload/workload.h"
#include "workload/ycsb.h"

namespace perfbench {
namespace {

using namespace kvsim;  // NOLINT: benchmark code reads better unqualified

// --- host clocks --------------------------------------------------------------

u64 thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (u64)ts.tv_sec * 1'000'000'000ull + (u64)ts.tv_nsec;
}

double wall_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (double)ru.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Host-speed probe: fixed work owned by the benchmark, not the
/// simulator, with the simulator's mix of hashing, heap operations and
/// short-lived allocations. Returns its thread-CPU ns.
///
/// On a shared host the same code runs up to ~1.5x slower while other
/// tenants load the machine, for minutes at a time. Each rep runs the
/// probe three times, and a run scales its host times by
/// kProbeNominalNs / (median probe time of the run). A simulator change
/// does not move the probe, so scaled times still move with the
/// simulator's cost, while a slow spell of the host cancels out.
u64 host_probe_ns() {
  const u64 c0 = thread_cpu_ns();
  std::unordered_map<u64, u64> map;
  map.reserve(1 << 16);
  std::vector<std::pair<u64, u64>> heap;
  heap.reserve(4096);
  Rng rng(12345);
  u64 sink = 0;
  for (u32 i = 0; i < 300'000; ++i) {
    const u64 x = rng.next();
    map[x & 0xffff] += x;
    sink += map.count((x >> 20) & 0xffff);
    heap.emplace_back(x >> 40, i);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > 2048) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      sink += heap.back().second;
      heap.pop_back();
    }
    const std::string s(20 + (x & 7), 'k');
    sink += (u64)s[3];
  }
  if (sink == 7) std::fprintf(stderr, " ");  // keep the work observable
  return thread_cpu_ns() - c0;
}

/// Probe time on a quiet host, so that scaled and raw times roughly agree
/// there.
constexpr double kProbeNominalNs = 40e6;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Exact median of raw samples (the lower middle one, as
/// TraceRecorder::exact_percentile picks it).
TimeNs exact_median(std::vector<TimeNs>& v) {
  if (v.empty()) return 0;
  auto mid = v.begin() + (std::ptrdiff_t)((v.size() - 1) / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

u64 derive_seed(u64 seed, u64 phase, u64 tenant) {
  return mix64(seed * 0x9e3779b97f4a7c15ull + (phase << 32) + tenant + 1);
}

// --- workloads ----------------------------------------------------------------

const char* const kWorkloads[] = {"kvssd_update_gc", "lsm_ycsb_a",
                                  "hashkv_read_mt"};

/// A device of `gib` GiB: the standard geometry with fewer blocks per
/// plane, so die/channel parallelism is unchanged.
ssd::SsdConfig device_gib(u32 gib) {
  ssd::SsdConfig d = ssd::SsdConfig::standard_device();  // 16 GiB
  d.geometry.blocks_per_plane = 64 * gib / 16;
  return d;
}

struct Bed {
  std::unique_ptr<harness::KvStack> stack;
  harness::KvssdBed* kvssd = nullptr;
  harness::LsmBed* lsm = nullptr;
  harness::HashKvBed* hashkv = nullptr;
};

/// The three phases of one rep, with one tenant layout shared by all.
struct Plan {
  wl::TenantMix prefill, warmup, measured;
  u64 lsm_app_bytes = 0;  ///< LSM app-bytes hint after prefill (0 = none)
  u64 measured_ops = 0;
};

/// Host-time segments per measured phase (see SegmentClock).
constexpr u64 kSegments = 16;

constexpr u32 kHashKvTenants = 16;
constexpr u32 kHashKvQueues = 4;

Bed build_bed(const std::string& w) {
  Bed b;
  if (w == "kvssd_update_gc") {
    harness::KvssdBedConfig c;
    c.dev = device_gib(1);
    c.ftl.expected_keys_hint = 400'000;
    c.ftl.track_iterator_keys = false;
    c.ftl.index.dram_bytes = 16 * MiB;
    auto bed = std::make_unique<harness::KvssdBed>(c);
    b.kvssd = bed.get();
    b.stack = std::move(bed);
  } else if (w == "lsm_ycsb_a") {
    harness::LsmBedConfig c;
    c.dev = device_gib(4);
    c.lsm.block_cache_bytes = 10 * MiB;
    auto bed = std::make_unique<harness::LsmBed>(c);
    b.lsm = bed.get();
    b.stack = std::move(bed);
  } else if (w == "hashkv_read_mt") {
    harness::HashKvBedConfig c;
    c.dev = device_gib(2);
    c.nvme.num_queues = kHashKvQueues;
    c.nvme.queue_weights = {1, 2, 4, 8};
    auto bed = std::make_unique<harness::HashKvBed>(c);
    b.hashkv = bed.get();
    b.stack = std::move(bed);
  } else {
    throw std::invalid_argument("unknown workload: " + w);
  }
  return b;
}

wl::WorkloadSpec load_spec(u64 keys, u32 key_bytes, u32 value_bytes, u32 qd,
                           u64 seed) {
  wl::WorkloadSpec s;
  s.num_ops = keys;
  s.key_space = keys;
  s.key_bytes = key_bytes;
  s.value_bytes = value_bytes;
  s.pattern = wl::Pattern::kSequential;
  s.mix = wl::OpMix::insert_only();
  s.queue_depth = qd;
  s.seed = seed;
  return s;
}

Plan make_plan(const std::string& w, const Bed& bed, u64 seed) {
  Plan p;
  auto add = [&p](const wl::TenantSpec& base, const wl::WorkloadSpec& pre,
                  const wl::WorkloadSpec& warm, const wl::WorkloadSpec& meas) {
    wl::TenantSpec t = base;
    t.spec = pre;
    p.prefill.tenants.push_back(t);
    t.spec = warm;
    p.warmup.tenants.push_back(t);
    t.spec = meas;
    p.measured.tenants.push_back(t);
    p.measured_ops += meas.num_ops;
  };
  if (w == "kvssd_update_gc") {
    // 80% of the data-slot capacity; a 4 KiB value spans 4 slots.
    const u64 keys = bed.kvssd->ftl().max_kvp_capacity() * 8 / 10 / 4;
    wl::WorkloadSpec run;
    run.key_space = keys;
    run.key_bytes = 16;
    run.value_bytes = 4 * KiB;
    run.pattern = wl::Pattern::kUniform;
    run.mix = wl::OpMix{0, 0.7, 0.3, 0};
    run.queue_depth = 64;
    wl::WorkloadSpec warm = run, meas = run;
    warm.num_ops = 150'000;
    warm.seed = derive_seed(seed, 1, 0);
    meas.num_ops = 400'000;
    meas.seed = derive_seed(seed, 2, 0);
    add(wl::TenantSpec{}, load_spec(keys, 16, 4 * KiB, 128, seed), warm, meas);
  } else if (w == "lsm_ycsb_a") {
    const u64 records = 100'000;
    const wl::YcsbRecordConfig rec;  // 23 B keys, 10 x 100 B fields
    wl::WorkloadSpec warm = wl::ycsb_spec(wl::YcsbWorkload::kA, records,
                                          100'000, rec, derive_seed(seed, 1, 0));
    wl::WorkloadSpec meas = wl::ycsb_spec(wl::YcsbWorkload::kA, records,
                                          600'000, rec, derive_seed(seed, 2, 0));
    warm.queue_depth = meas.queue_depth = 32;
    add(wl::TenantSpec{},
        load_spec(records, rec.key_bytes, rec.value_bytes(), 128, seed), warm,
        meas);
    p.lsm_app_bytes = records * (rec.key_bytes + rec.value_bytes());
  } else {
    const u64 keys = 8 * 1024;
    for (u32 i = 0; i < kHashKvTenants; ++i) {
      wl::TenantSpec t;
      t.name = "t";
      t.name += std::to_string(i);
      t.nsid = (u8)(i + 1);
      t.queue = i % kHashKvQueues;
      t.weight = 1u << (i % kHashKvQueues);
      wl::WorkloadSpec run;
      run.key_space = keys;
      run.key_bytes = 16;
      run.value_bytes = 1 * KiB;
      run.pattern = wl::Pattern::kZipfian;
      run.mix = wl::OpMix{0, 0.05, 0.95, 0};
      run.queue_depth = 4;
      wl::WorkloadSpec warm = run, meas = run;
      warm.num_ops = 2'000;
      warm.seed = derive_seed(seed, 1, i);
      meas.num_ops = 24'000;
      meas.seed = derive_seed(seed, 2, i);
      add(t, load_spec(keys, 16, 1 * KiB, 8, derive_seed(seed, 0, i)), warm,
          meas);
    }
  }
  return p;
}

// --- correctness oracle ---------------------------------------------------------

/// Independent record of the fingerprints the runner will issue for a
/// seeded sample of keys per tenant. The runner stores value_fingerprint(
/// key id, version) with version = the op's 1-based position in its
/// tenant's stream, so regenerating each phase's stream reproduces every
/// fingerprint without touching the bed.
struct Oracle {
  struct Tenant {
    u8 nsid = 0;
    u32 queue = 0;
    u32 key_bytes = 0;
    std::vector<u64> sample;                                 ///< key ids
    std::unordered_map<u64, std::vector<u64>> before;        ///< set-up
    std::unordered_map<u64, std::vector<u64>> measured;      ///< measured
  };
  std::vector<Tenant> tenants;
  u64 unexpected_ops = 0;  ///< ops of a type the workloads never issue

  Oracle(const Plan& p, u64 seed, u64 sample_per_tenant) {
    for (u32 ti = 0; ti < (u32)p.measured.tenants.size(); ++ti) {
      const wl::TenantSpec& ts = p.measured.tenants[ti];
      Tenant t;
      t.nsid = ts.nsid;
      t.queue = ts.queue;
      t.key_bytes = ts.spec.key_bytes;
      Rng rng(derive_seed(seed, 7, ti));
      const u64 space = ts.spec.key_space;
      const u64 n = std::min(sample_per_tenant, space);
      Permutation perm(space, rng.next());
      for (u64 i = 0; i < n; ++i) {
        const u64 id = perm(i);
        t.sample.push_back(id);
        t.before[id];
        t.measured[id];
      }
      collect(p.prefill.tenants[ti].spec, t.before);
      collect(p.warmup.tenants[ti].spec, t.before);
      collect(ts.spec, t.measured);
      tenants.push_back(std::move(t));
    }
  }

  void collect(const wl::WorkloadSpec& spec,
               std::unordered_map<u64, std::vector<u64>>& out) {
    wl::SyntheticOpSource src(spec);
    wl::Op op;
    u64 version = 0;
    while (src.next(op)) {
      ++version;
      if (op.type == wl::OpType::kRead) continue;
      if (op.type != wl::OpType::kInsert && op.type != wl::OpType::kUpdate) {
        ++unexpected_ops;
        continue;
      }
      const auto it = out.find(op.key_id);
      if (it != out.end())
        it->second.push_back(wl::value_fingerprint(op.key_id, version));
    }
  }
};

/// Reads back every sampled key through the bed after the drain; a
/// non-OK status or a fingerprint never issued for that key fails the op.
struct ReadBack {
  u64 attempted = 0;
  u64 failed = 0;
  std::string first_problem;
};

ReadBack read_back(harness::KvStack& stack, const Oracle& oracle,
                   const TracingStack* tracer) {
  ReadBack rb;
  struct Pending {
    u32 ti;
    u64 id;
  };
  std::vector<Pending> todo;
  for (u32 ti = 0; ti < (u32)oracle.tenants.size(); ++ti)
    for (u64 id : oracle.tenants[ti].sample) todo.push_back({ti, id});
  size_t next = 0;
  u64 inflight = 0;
  constexpr u64 kQd = 32;
  auto fail = [&rb](const std::string& why) {
    ++rb.failed;
    if (rb.first_problem.empty()) rb.first_problem = why;
  };
  std::function<void()> pump = [&] {
    while (inflight < kQd && next < todo.size()) {
      const Pending pd = todo[next++];
      const Oracle::Tenant& t = oracle.tenants[pd.ti];
      const std::string key = wl::make_key(pd.id, t.key_bytes);
      ++inflight;
      ++rb.attempted;
      stack.retrieve_as(
          harness::TenantCtx{t.nsid, t.queue}, key,
          [&, pd, key](Status s, ValueDesc v) {
            --inflight;
            const Oracle::Tenant& tt = oracle.tenants[pd.ti];
            if (s != Status::kOk) {
              fail("read-back of " + key + " returned " + to_string(s));
            } else {
              const auto& a = tt.before.at(pd.id);
              const auto& b = tt.measured.at(pd.id);
              const bool issued =
                  std::find(a.begin(), a.end(), v.fingerprint) != a.end() ||
                  std::find(b.begin(), b.end(), v.fingerprint) != b.end();
              if (!issued) fail("read-back of " + key + " returned a "
                                "fingerprint never issued for it");
              if (tracer != nullptr) {
                // The decorator saw every measured-phase store: it must
                // agree with the oracle stream, in issue order.
                const std::vector<u64>* seen = tracer->issued(tt.nsid, key);
                if (seen == nullptr || *seen != b)
                  fail("store_as fingerprints for " + key +
                       " differ from the oracle stream");
              }
            }
            pump();
          });
    }
  };
  pump();
  sim::EventQueue& eq = stack.eq();
  while ((inflight > 0 || next < todo.size()) && eq.step()) {
  }
  if (inflight > 0 || next < todo.size()) fail("read-back did not complete");
  return rb;
}

// --- layer counters ----------------------------------------------------------

/// Raw cumulative counters of every layer, snapshotted around the
/// measured phase (the metrics are deltas).
struct Counters {
  u64 events = 0;
  u64 store_cpu_ns = 0;
  ssd::FtlStats ftl;
  u64 buffer_stalls = 0;
  flash::FlashStats flash;
  u64 die_wait_ns = 0;
  u64 die_wait_samples = 0;
  u64 die_busy_ns = 0;
  u64 kvftl_cache_hits = 0;
  u64 blockftl_cache_hits = 0;
  u64 blockftl_cache_lookups = 0;
  u64 lsm_flushes = 0;
  u64 lsm_compactions = 0;
  u64 lsm_stalls = 0;
  u64 lsm_cache_hits = 0;
  u64 lsm_cache_lookups = 0;
  u64 fs_journal_writes = 0;
  u64 hashkv_defrags = 0;
};

Counters snapshot(const Bed& b) {
  Counters c;
  harness::KvStack& s = *b.stack;
  c.events = s.eq().events_processed();
  c.store_cpu_ns = s.host_cpu_ns();
  if (const ssd::FtlStats* f = s.ftl_stats()) c.ftl = *f;
  c.buffer_stalls = s.buffer_stall_events();
  if (const flash::FlashController* fc = s.flash_ctrl()) {
    c.flash = fc->stats();
    c.die_wait_ns = fc->read_stages().die_wait.sum() +
                    fc->program_stages().die_wait.sum();
    c.die_wait_samples = fc->read_stages().die_wait.count() +
                         fc->program_stages().die_wait.count();
    c.die_busy_ns = fc->total_die_busy_ns();
  }
  if (b.kvssd) c.kvftl_cache_hits = b.kvssd->ftl().read_cache_hits();
  blockftl::BlockFtl* bf = b.lsm      ? &b.lsm->ftl()
                           : b.hashkv ? &b.hashkv->ftl()
                                      : nullptr;
  if (bf) {
    c.blockftl_cache_hits = bf->cache_hits();
    c.blockftl_cache_lookups = bf->cache_lookups();
  }
  if (b.lsm) {
    lsm::LsmStore& l = b.lsm->store();
    c.lsm_flushes = l.flushes_run();
    c.lsm_compactions = l.compactions_run();
    c.lsm_stalls = l.write_stall_events();
    c.lsm_cache_hits = l.block_cache_hits();
    c.lsm_cache_lookups = l.block_cache_lookups();
    c.fs_journal_writes = b.lsm->fs().journal_writes();
  }
  if (b.hashkv) c.hashkv_defrags = b.hashkv->store().defrags_run();
  return c;
}

// --- one rep -------------------------------------------------------------------

enum class Mode { kPlain, kTraced };

struct RepConfig {
  Mode mode = Mode::kPlain;
  u64 seed = 1;
  u64 burn_entry = 0;     ///< ticks burned per bed entry (traced only)
  u64 burn_callback = 0;  ///< ticks burned per callback (traced only)
  bool time_generation = false;  ///< also time the standalone gen pass
};

struct Rep {
  double setup_s = 0;         ///< thread-CPU seconds of set-up
  double host_ns_per_op = 0;  ///< thread-CPU ns per measured op
  std::vector<u64> probes;    ///< host-speed probe times (host_probe_ns)
  u64 ops = 0;
  u64 allocs = 0;  ///< measured-phase allocations, decorator's excluded
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> problems;

  // Simulated results (exact for a seed).
  TimeNs elapsed = 0;
  u64 reads = 0;                         ///< latency samples per op type
  TimeNs read_p50 = 0, update_p50 = 0;  ///< per op type
  TimeNs p99 = 0, p999 = 0;              ///< over all ops
  double waf = 0;
  double space_amp = 0;
  double die_utilization = 0;  ///< mean die busy share, measured phase
  std::vector<u64> digests;
  Counters d;  ///< layer counter deltas over the measured phase
  nvme::NvmeQueueStats nvme;  ///< summed over queues
  u64 arbitration_rounds = 0;

  // Traced split (traced mode only).
  SpanAccount spans;
  u64 window_ticks = 0;
  u64 window_allocs = 0;  ///< all measured-phase allocations
  double gen_ns_per_op = 0;  ///< standalone generation pass (if timed)
  std::vector<u64> segments;  ///< thread-CPU ns per window segment (plain)

  /// Every exact result, for bit-for-bit comparison across reps.
  [[nodiscard]] std::vector<u64> signature() const {
    std::vector<u64> v = {ops,
                          allocs,
                          elapsed,
                          read_p50,
                          update_p50,
                          p99,
                          p999,
                          std::bit_cast<u64>(waf),
                          std::bit_cast<u64>(space_amp),
                          d.events,
                          d.store_cpu_ns,
                          d.ftl.host_write_ops,
                          d.ftl.host_read_ops,
                          d.ftl.gc_runs,
                          d.ftl.gc_foreground_runs,
                          d.ftl.gc_migrated_bytes,
                          d.ftl.flash_bytes_written,
                          d.ftl.rmw_ops,
                          d.buffer_stalls,
                          d.flash.page_reads,
                          d.flash.page_programs,
                          d.flash.block_erases,
                          d.die_wait_ns,
                          d.die_wait_samples,
                          d.die_busy_ns,
                          d.kvftl_cache_hits,
                          d.blockftl_cache_hits,
                          d.lsm_flushes,
                          d.lsm_compactions,
                          d.lsm_stalls,
                          d.lsm_cache_hits,
                          d.fs_journal_writes,
                          d.hashkv_defrags,
                          nvme.commands,
                          nvme.queue_wait_ns,
                          nvme.service_ns,
                          nvme.sq_full_stalls,
                          arbitration_rounds};
    v.insert(v.end(), digests.begin(), digests.end());
    return v;
  }
};

Counters delta(const Counters& a, const Counters& b) {
  Counters d;
  d.events = b.events - a.events;
  d.store_cpu_ns = b.store_cpu_ns - a.store_cpu_ns;
  d.ftl.host_read_ops = b.ftl.host_read_ops - a.ftl.host_read_ops;
  d.ftl.host_write_ops = b.ftl.host_write_ops - a.ftl.host_write_ops;
  d.ftl.host_bytes_written = b.ftl.host_bytes_written - a.ftl.host_bytes_written;
  d.ftl.gc_runs = b.ftl.gc_runs - a.ftl.gc_runs;
  d.ftl.gc_foreground_runs = b.ftl.gc_foreground_runs - a.ftl.gc_foreground_runs;
  d.ftl.gc_migrated_bytes = b.ftl.gc_migrated_bytes - a.ftl.gc_migrated_bytes;
  d.ftl.rmw_ops = b.ftl.rmw_ops - a.ftl.rmw_ops;
  d.ftl.flash_bytes_written =
      b.ftl.flash_bytes_written - a.ftl.flash_bytes_written;
  d.buffer_stalls = b.buffer_stalls - a.buffer_stalls;
  d.flash.page_reads = b.flash.page_reads - a.flash.page_reads;
  d.flash.page_programs = b.flash.page_programs - a.flash.page_programs;
  d.flash.block_erases = b.flash.block_erases - a.flash.block_erases;
  d.die_wait_ns = b.die_wait_ns - a.die_wait_ns;
  d.die_wait_samples = b.die_wait_samples - a.die_wait_samples;
  d.die_busy_ns = b.die_busy_ns - a.die_busy_ns;
  d.kvftl_cache_hits = b.kvftl_cache_hits - a.kvftl_cache_hits;
  d.blockftl_cache_hits = b.blockftl_cache_hits - a.blockftl_cache_hits;
  d.blockftl_cache_lookups = b.blockftl_cache_lookups - a.blockftl_cache_lookups;
  d.lsm_flushes = b.lsm_flushes - a.lsm_flushes;
  d.lsm_compactions = b.lsm_compactions - a.lsm_compactions;
  d.lsm_stalls = b.lsm_stalls - a.lsm_stalls;
  d.lsm_cache_hits = b.lsm_cache_hits - a.lsm_cache_hits;
  d.lsm_cache_lookups = b.lsm_cache_lookups - a.lsm_cache_lookups;
  d.fs_journal_writes = b.fs_journal_writes - a.fs_journal_writes;
  d.hashkv_defrags = b.hashkv_defrags - a.hashkv_defrags;
  return d;
}

/// Drive `mix` to completion (and drain); account its tenant ledgers.
harness::MixResult run_phase(harness::KvStack& s, const wl::TenantMix& mix,
                             const char* phase, Rep& rep,
                             const harness::RunOptions& opts) {
  harness::MixResult r = harness::run_mix(s, mix, opts);
  for (u32 ti = 0; ti < (u32)mix.tenants.size(); ++ti) {
    const harness::RunResult& tr = r.tenants[ti].result;
    const u64 want = mix.tenants[ti].spec.num_ops;
    const u64 bad = tr.errors.total() + tr.not_found;
    rep.attempted += want;
    // Ledger: attempted = completed + errors, no errors, and no
    // not-found (every key the workloads touch was prefilled).
    const u64 lost = want > tr.ops ? want - tr.ops : 0;
    rep.failed += bad + lost;
    if (bad + lost > 0)
      rep.problems.push_back(std::string(phase) + ": tenant " +
                             std::to_string(ti) + " " +
                             std::to_string(tr.errors.total()) + " errors (io " +
                             std::to_string(tr.errors.io) + ", capacity " +
                             std::to_string(tr.errors.capacity) + ", other " +
                             std::to_string(tr.errors.other) + "), " +
                             std::to_string(tr.not_found) + " not-found, " +
                             std::to_string(lost) + " never completed");
  }
  return r;
}

void drain(harness::KvStack& s) {
  bool done = false;
  s.drain([&done] { done = true; });
  while (!done && s.eq().step()) {
  }
}

/// ns per op spent generating the measured stream (OpSource::next plus
/// wl::make_key), timed in a standalone pass over the same ops.
double gen_ns_per_op(const Plan& plan) {
  std::vector<double> runs;
  u64 sink = 0;
  for (int i = 0; i < 5; ++i) {
    u64 ops = 0;
    const u64 t0 = thread_cpu_ns();
    for (const wl::TenantSpec& ts : plan.measured.tenants) {
      wl::SyntheticOpSource src(ts.spec);
      wl::Op op;
      while (src.next(op)) {
        const std::string key = wl::make_key(op.key_id, ts.spec.key_bytes);
        sink += (u64)key.back() + op.value_bytes;
        ++ops;
      }
    }
    runs.push_back((double)(thread_cpu_ns() - t0) / (double)std::max<u64>(ops, 1));
  }
  if (sink == 42) std::fprintf(stderr, " ");  // keep the pass observable
  return median(runs);
}

Rep run_rep(const std::string& w, const RepConfig& rc,
            const Oracle* oracle_in, std::unique_ptr<Oracle>* oracle_out) {
  Rep rep;
  rep.probes.push_back(host_probe_ns());
  const u64 cpu_setup0 = thread_cpu_ns();
  Bed bed = build_bed(w);
  const Plan plan = make_plan(w, bed, rc.seed);
  harness::RunOptions setup_opts;
  setup_opts.drain_after = true;
  run_phase(*bed.stack, plan.prefill, "prefill", rep, setup_opts);
  if (plan.lsm_app_bytes) bed.stack->add_app_bytes((i64)plan.lsm_app_bytes);
  run_phase(*bed.stack, plan.warmup, "warm-up", rep, setup_opts);
  rep.setup_s = (double)(thread_cpu_ns() - cpu_setup0) * 1e-9;
  rep.probes.push_back(host_probe_ns());

  // The oracle is a pure function of the plan; build it once per seed,
  // outside every timed window.
  const Oracle* oracle = oracle_in;
  if (oracle == nullptr) {
    *oracle_out = std::make_unique<Oracle>(
        plan, rc.seed, plan.measured.tenants.size() > 1 ? 256 : 4096);
    oracle = oracle_out->get();
  }
  if (oracle->unexpected_ops > 0)
    rep.problems.push_back("workload stream holds ops other than "
                           "insert/update/read");

  std::unique_ptr<TracingStack> tracer;
  std::unique_ptr<SegmentClock> segments;
  harness::KvStack* driven = bed.stack.get();
  if (rc.mode == Mode::kPlain) {
    segments = std::make_unique<SegmentClock>(
        *bed.stack, std::max<u64>(1, plan.measured_ops / kSegments),
        thread_cpu_ns, plan.measured_ops);
    driven = segments.get();
  } else {
    tracer = std::make_unique<TracingStack>(*bed.stack, rc.burn_entry,
                                            rc.burn_callback);
    for (const Oracle::Tenant& t : oracle->tenants)
      for (u64 id : t.sample) tracer->watch(t.nsid, wl::make_key(id, t.key_bytes));
    driven = tracer.get();
  }

  harness::TraceRecorder latencies(plan.measured_ops);
  harness::RunOptions opts;
  opts.trace = &latencies;
  const Counters c0 = snapshot(bed);
  const u64 a0 = alloc_count();
  const u64 t0 = ticks();
  const u64 cpu0 = thread_cpu_ns();
  if (segments) segments->start();
  harness::MixResult r = run_phase(*driven, plan.measured, "measured", rep, opts);
  if (segments) segments->stop();
  const u64 cpu1 = thread_cpu_ns();
  const u64 t1 = ticks();
  const u64 a1 = alloc_count();
  rep.d = delta(c0, snapshot(bed));
  rep.probes.push_back(host_probe_ns());

  rep.ops = r.combined.ops;
  rep.host_ns_per_op = ratio((double)(cpu1 - cpu0), (double)rep.ops);
  rep.window_ticks = t1 - t0;
  rep.window_allocs = a1 - a0;
  if (segments) rep.segments = segments->segments();
  rep.allocs = rep.window_allocs;
  if (tracer) {
    rep.spans = tracer->spans();
    rep.allocs -= rep.spans.self_allocs[kTrace];
  }
  rep.elapsed = r.combined.elapsed;
  std::vector<TimeNs> reads, updates;
  for (const harness::TraceRecord& x : latencies.records())
    (x.type == wl::OpType::kRead ? reads : updates).push_back(x.latency_ns);
  rep.reads = reads.size();
  rep.read_p50 = exact_median(reads);
  rep.update_p50 = exact_median(updates);
  rep.p99 = latencies.exact_percentile(0.99);
  rep.p999 = latencies.exact_percentile(0.999);
  for (const harness::TenantResult& t : r.tenants) rep.digests.push_back(t.digest);
  for (const harness::QueueUsage& q : r.queues) {
    rep.nvme.commands += q.stats.commands;
    rep.nvme.queue_wait_ns += q.stats.queue_wait_ns;
    rep.nvme.service_ns += q.stats.service_ns;
    rep.nvme.sq_full_stalls += q.stats.sq_full_stalls;
  }
  rep.arbitration_rounds = r.arbitration_rounds;
  if (const flash::FlashController* fc = bed.stack->flash_ctrl())
    rep.die_utilization =
        ratio((double)rep.d.die_busy_ns,
              (double)rep.elapsed * (double)fc->num_dies());
  if (rc.time_generation)
    rep.gen_ns_per_op = gen_ns_per_op(plan);

  // Write and space amplification once background work has settled.
  drain(*bed.stack);
  const Counters c2 = snapshot(bed);
  const u64 host_bytes = c2.ftl.host_bytes_written - c0.ftl.host_bytes_written;
  rep.waf = ratio(
      (double)(c2.ftl.flash_bytes_written - c0.ftl.flash_bytes_written),
      (double)host_bytes);
  rep.space_amp = ratio((double)bed.stack->device_bytes_used(),
                        (double)bed.stack->app_bytes_live());

  std::fprintf(stderr, "rep (seed %llu%s): set-up %.3f s, %.1f ns/op\n",
               (unsigned long long)rc.seed, tracer ? ", traced" : "",
               rep.setup_s, rep.host_ns_per_op);
  const ReadBack rb = read_back(*bed.stack, *oracle, tracer.get());
  rep.attempted += rb.attempted;
  rep.failed += rb.failed;
  if (rb.failed > 0)
    rep.problems.push_back(std::to_string(rb.failed) + " read-back failures, first: " +
                           rb.first_problem);
  return rep;
}

// --- metrics output -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, u64 attempted, u64 failed,
                  const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed);
  for (size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
      std::end(kWorkloads))
    throw std::invalid_argument("unknown workload " + a.workload);
  return a;
}

/// Accumulates correctness across reps.
struct Verdict {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;

  void add(const Rep& r, const char* label) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& p : r.problems) fail(std::string(label) + ": " + p);
  }
  void fail(const std::string& why) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  void expect_same(const Rep& a, const Rep& b, const char* what) {
    if (a.signature() != b.signature())
      fail(std::string(what) + ": simulated results or exact counts differ");
  }
};

/// Host ns per op over reps of one seed: every rep does the same work
/// segment by segment, so take each segment's median over the reps and
/// sum them. A burst of contention then costs only the reps it hit.
double host_ns_per_op(const std::vector<Rep>& reps) {
  double total = 0;
  for (size_t k = 0; k < reps.front().segments.size(); ++k) {
    std::vector<double> seg;
    for (const Rep& r : reps)
      if (k < r.segments.size())
        seg.push_back((double)r.segments[k]);
    total += median(seg);
  }
  return ratio(total, (double)reps.front().ops);
}

/// kProbeNominalNs over the run's median probe time.
double host_scale(const std::vector<Rep>& reps) {
  std::vector<double> pr;
  for (const Rep& r : reps)
    for (u64 p : r.probes) pr.push_back((double)p);
  return ratio(kProbeNominalNs, median(pr));
}

std::vector<Metric> end_to_end(const Rep& r0, const std::vector<Rep>& reps) {
  std::vector<double> setup;
  for (const Rep& r : reps) setup.push_back(r.setup_s);
  const double ops = (double)r0.ops;
  const double scale = host_scale(reps);
  return {
      {"host_ns_per_op", host_ns_per_op(reps) * scale, "ns"},
      {"setup_s", median(setup) * scale, "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"allocs_per_op", ratio((double)r0.allocs, ops), "count"},
      {"sim_kops", ratio(ops * 1e6, (double)r0.elapsed), "kop/s"},
      {"sim_read_p50_us", (double)r0.read_p50 / 1000.0, "us"},
      {"sim_update_p50_us", (double)r0.update_p50 / 1000.0, "us"},
      {"sim_p99_us", (double)r0.p99 / 1000.0, "us"},
      {"sim_p999_us", (double)r0.p999 / 1000.0, "us"},
      {"waf", r0.waf, "ratio"},
      {"space_amp", r0.space_amp, "ratio"},
  };
}

/// Host split of a traced rep, per measured op.
struct Split {
  double entry_ns, harness_ns, event_loop_ns, trace_ns, total_ns;
  double entry_allocs, harness_allocs, event_loop_allocs;
};

Split split_of(const Rep& r, double tpn) {
  const double ops = (double)std::max<u64>(r.ops, 1);
  const SpanAccount& s = r.spans;
  Split x{};
  x.entry_ns = (double)s.self_ticks[kEntry] / tpn / ops;
  x.harness_ns = (double)s.self_ticks[kCallback] / tpn / ops;
  x.trace_ns = (double)s.self_ticks[kTrace] / tpn / ops;
  x.event_loop_ns = (double)(r.window_ticks - s.top_ticks) / tpn / ops;
  x.total_ns = (double)r.window_ticks / tpn / ops;
  x.entry_allocs = (double)s.self_allocs[kEntry] / ops;
  x.harness_allocs = (double)s.self_allocs[kCallback] / ops;
  x.event_loop_allocs = (double)(r.window_allocs - s.top_allocs) / ops;
  return x;
}

/// Medians of the host split over the traced reps (burn-free).
struct TracedMedians {
  double host_ns, entry_ns, harness_ns, event_loop_ns;
};

TracedMedians medians_of(const std::vector<Rep>& traced, double tpn) {
  std::vector<double> host, entry, harness, loop;
  for (const Rep& r : traced) {
    const Split s = split_of(r, tpn);
    host.push_back(r.host_ns_per_op);
    entry.push_back(s.entry_ns);
    harness.push_back(s.harness_ns);
    loop.push_back(s.event_loop_ns);
  }
  return {median(host), median(entry), median(harness), median(loop)};
}

/// `p` is the untraced rep (exact counts), `s0` the first traced rep's
/// split (exact allocation counts), `m` the traced time medians, and
/// `entry_rise` / `callback_rise` what the two burns added to their spans.
std::vector<Metric> per_layer(const Rep& p, const Split& s0,
                              const TracedMedians& m, double entry_rise,
                              double callback_rise, double burn_ns) {
  const double ops = (double)p.ops;
  const double kops = ops / 1000.0;
  const Counters& d = p.d;
  return {
      {"workload.gen_ns_per_op", p.gen_ns_per_op, "ns"},
      {"harness.self_ns_per_op", m.harness_ns, "ns"},
      {"harness.allocs_per_op", s0.harness_allocs, "count"},
      {"store.entry_ns_per_op", m.entry_ns, "ns"},
      {"store.entry_allocs_per_op", s0.entry_allocs, "count"},
      {"event_loop.ns_per_op", m.event_loop_ns, "ns"},
      {"event_loop.allocs_per_op", s0.event_loop_allocs, "count"},
      {"event_loop.ns_per_event",
       ratio(m.event_loop_ns * ops, (double)d.events), "ns"},
      {"trace.overhead_share",
       ratio(m.host_ns - p.host_ns_per_op, p.host_ns_per_op), "ratio"},
      {"trace.entry_burn_recovered", ratio(entry_rise, burn_ns), "ratio"},
      {"trace.callback_burn_recovered", ratio(callback_rise, burn_ns),
       "ratio"},
      {"sim.events_per_op", ratio((double)d.events, ops), "count"},
      {"store.sim_cpu_us_per_op", ratio((double)d.store_cpu_ns / 1000.0, ops),
       "us"},
      {"lsm.flushes_per_kop", ratio((double)d.lsm_flushes, kops), "count"},
      {"lsm.compactions_per_kop", ratio((double)d.lsm_compactions, kops),
       "count"},
      {"lsm.write_stalls_per_kop", ratio((double)d.lsm_stalls, kops), "count"},
      {"lsm.block_cache_hit_ratio",
       ratio((double)d.lsm_cache_hits, (double)d.lsm_cache_lookups), "ratio"},
      {"fs.journal_writes_per_kop", ratio((double)d.fs_journal_writes, kops),
       "count"},
      {"hashkv.defrags_per_kop", ratio((double)d.hashkv_defrags, kops), "count"},
      {"nvme.cmds_per_op", ratio((double)p.nvme.commands, ops), "count"},
      {"nvme.queue_wait_us_per_cmd",
       ratio((double)p.nvme.queue_wait_ns / 1000.0, (double)p.nvme.commands),
       "us"},
      {"nvme.service_us_per_cmd",
       ratio((double)p.nvme.service_ns / 1000.0, (double)p.nvme.commands), "us"},
      {"nvme.sq_full_stalls_per_kop", ratio((double)p.nvme.sq_full_stalls, kops),
       "count"},
      {"nvme.arbitration_rounds_per_kop",
       ratio((double)p.arbitration_rounds, kops), "count"},
      {"ftl.gc_runs_per_kop", ratio((double)d.ftl.gc_runs, kops), "count"},
      {"ftl.gc_foreground_share",
       ratio((double)d.ftl.gc_foreground_runs, (double)d.ftl.host_write_ops),
       "ratio"},
      {"ftl.gc_migrated_bytes_per_op", ratio((double)d.ftl.gc_migrated_bytes, ops),
       "B"},
      {"ftl.buffer_stalls_per_kop", ratio((double)d.buffer_stalls, kops),
       "count"},
      {"ftl.rmw_per_kop", ratio((double)d.ftl.rmw_ops, kops), "count"},
      {"kvftl.read_cache_hit_ratio",
       ratio((double)d.kvftl_cache_hits, (double)d.ftl.host_read_ops), "ratio"},
      {"blockftl.cache_hit_ratio",
       ratio((double)d.blockftl_cache_hits, (double)d.blockftl_cache_lookups),
       "ratio"},
      {"flash.reads_per_op", ratio((double)d.flash.page_reads, ops), "count"},
      {"flash.programs_per_op", ratio((double)d.flash.page_programs, ops),
       "count"},
      {"flash.erases_per_kop", ratio((double)d.flash.block_erases, kops),
       "count"},
      {"flash.die_wait_us_mean",
       ratio((double)d.die_wait_ns / 1000.0, (double)d.die_wait_samples), "us"},
      {"flash.mean_die_utilization", p.die_utilization, "ratio"},
  };
}

int run(const Args& a) {
  Verdict v;
  const double start = wall_s();
  auto time_left = [&] { return wall_s() - start < a.seconds; };
  std::unique_ptr<Oracle> oracle;

  if (!a.trace) {
    std::vector<Rep> reps;
    reps.push_back(run_rep(a.workload, {Mode::kPlain, a.seed}, nullptr, &oracle));
    v.add(reps.back(), "rep 1");
    while (reps.size() < 3 || time_left()) {
      reps.push_back(run_rep(a.workload, {Mode::kPlain, a.seed}, oracle.get(),
                             nullptr));
      v.add(reps.back(), ("rep " + std::to_string(reps.size())).c_str());
      v.expect_same(reps.front(), reps.back(), "same-seed reps");
    }
    const Rep& r0 = reps.front();
    const std::vector<Metric> ms = end_to_end(r0, reps);
    std::printf("workload %s, seed %llu: %zu reps x %llu measured ops; "
                "latency samples: %llu reads, %llu updates, %llu in all\n",
                a.workload.c_str(), (unsigned long long)a.seed, reps.size(),
                (unsigned long long)r0.ops, (unsigned long long)r0.reads,
                (unsigned long long)(r0.ops - r0.reads),
                (unsigned long long)r0.ops);
    print_table("end-to-end", ms);
    std::vector<double> raw_setup;
    for (const Rep& r : reps) raw_setup.push_back(r.setup_s);
    std::printf("  unscaled: host_ns_per_op %.6g ns, setup_s %.6g s; host "
                "speed scale %.4f\n",
                host_ns_per_op(reps), median(raw_setup), host_scale(reps));
    std::printf("  %-34s %16.6g %s\n", "failed_op_share",
                ratio((double)v.failed, (double)v.attempted), "ratio");
    print_result(v.correct, v.attempted, v.failed, ms);
    return 0;
  }

  // Traced run: untraced reference, traced reps, the two sensitivity
  // burns, and a second seed; then more traced reps while time remains.
  const double tpn = calibrate_ticks_per_ns();
  const u64 burn_ticks = (u64)(5000.0 * tpn);  // 5 us per boundary crossing
  RepConfig plain_cfg{Mode::kPlain, a.seed};
  plain_cfg.time_generation = true;
  const Rep plain = run_rep(a.workload, plain_cfg, nullptr, &oracle);
  v.add(plain, "untraced");
  std::vector<Rep> traced;
  traced.push_back(
      run_rep(a.workload, {Mode::kTraced, a.seed}, oracle.get(), nullptr));
  v.add(traced.back(), "traced");
  const Rep be = run_rep(a.workload, {Mode::kTraced, a.seed, burn_ticks, 0},
                         oracle.get(), nullptr);
  v.add(be, "entry burn");
  const Rep bc = run_rep(a.workload, {Mode::kTraced, a.seed, 0, burn_ticks},
                         oracle.get(), nullptr);
  v.add(bc, "callback burn");
  std::unique_ptr<Oracle> other_oracle;
  const Rep other = run_rep(a.workload, {Mode::kPlain, a.seed + 1}, nullptr,
                            &other_oracle);
  v.add(other, "second seed");
  while (traced.size() < 2 || time_left()) {
    traced.push_back(
        run_rep(a.workload, {Mode::kTraced, a.seed}, oracle.get(), nullptr));
    v.add(traced.back(), "traced");
  }

  // Fidelity: tracing and burns change no simulated result or exact count.
  for (const Rep& r : traced) v.expect_same(plain, r, "traced vs untraced");
  v.expect_same(plain, be, "entry burn vs untraced");
  v.expect_same(plain, bc, "callback burn vs untraced");
  // The split accounts for every measured-phase allocation.
  const Split s0 = split_of(traced.front(), tpn);
  const double ops = (double)plain.ops;
  const double split_allocs =
      (s0.entry_allocs + s0.harness_allocs + s0.event_loop_allocs) * ops;
  if (std::llround(split_allocs) != (long long)plain.allocs)
    v.fail("traced allocation split does not add up to the untraced count");
  // Determinism across seeds: a different seed changes every digest.
  for (size_t i = 0; i < plain.digests.size(); ++i)
    if (i < other.digests.size() && plain.digests[i] == other.digests[i])
      v.fail("tenant " + std::to_string(i) + " digest unchanged by a new seed");

  // Sensitivity: each burn shows up in host time and in its own span.
  const double burn_ns = (double)burn_ticks / tpn;
  const TracedMedians m = medians_of(traced, tpn);
  auto check_burn = [&](const Rep& r, const char* where, bool at_entry) {
    const Split s = split_of(r, tpn);
    const double rise_host = r.host_ns_per_op - m.host_ns;
    const double d_entry = s.entry_ns - m.entry_ns;
    const double d_cb = s.harness_ns - m.harness_ns;
    const double d_loop = s.event_loop_ns - m.event_loop_ns;
    const double d_hit = at_entry ? d_entry : d_cb;
    const double d_other = at_entry ? d_cb : d_entry;
    std::printf("sensitivity: %.0f ns burned per op at %s -> host %+.0f ns, "
                "entry %+.0f, callback %+.0f, event loop %+.0f ns\n",
                burn_ns, where, rise_host, d_entry, d_cb, d_loop);
    if (d_hit < 0.8 * burn_ns || d_hit > 1.5 * burn_ns ||
        std::fabs(d_other) > 0.5 * burn_ns || std::fabs(d_loop) > 0.5 * burn_ns)
      v.fail(std::string("burn at ") + where + " not attributed to its span");
    if (rise_host < 0.5 * burn_ns || rise_host > 1.5 * burn_ns)
      v.fail(std::string("burn at ") + where + " not visible in host time");
    return d_hit;
  };
  const double entry_rise = check_burn(be, "bed entry", true);
  const double callback_rise = check_burn(bc, "callback", false);

  const std::vector<Metric> ms =
      per_layer(plain, s0, m, entry_rise, callback_rise, burn_ns);

  std::printf("workload %s, seed %llu: %zu traced reps x %llu measured ops\n",
              a.workload.c_str(), (unsigned long long)a.seed, traced.size(),
              (unsigned long long)plain.ops);
  std::printf("host split per op: entry %.0f ns, callback %.0f ns, event loop "
              "%.0f ns, decorator %.0f ns (traced total %.0f ns; untraced "
              "thread CPU %.0f ns)\n",
              s0.entry_ns, s0.harness_ns, s0.event_loop_ns, s0.trace_ns,
              s0.total_ns, plain.host_ns_per_op);
  print_table("per-layer", ms);
  print_result(v.correct, v.attempted, v.failed, ms);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kvbench: %s\n", e.what());
    return 2;
  }
}
