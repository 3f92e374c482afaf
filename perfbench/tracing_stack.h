// Outside-in host-time measurement of one KvStack: harness::KvStack
// decorators that sit between harness::run_mix and a bed.
//
// SegmentClock samples a clock every N op entries, for the untraced run.
//
// TracingStack times, from outside the program:
//
//   entry     the synchronous store_as / retrieve_as / remove_as call into
//             the bed (host store + kvapi + NVMe submit);
//   callback  the runner's completion callback as the bed invokes it
//             (harness bookkeeping + issuing the next op), minus the bed
//             entries nested inside it;
//   trace     the decorator's own work (wrapping the callback, recording
//             fingerprints), so it can be subtracted.
//
// Everything in the measured window that is in none of these spans is the
// event loop: EventQueue::step, every asynchronous NVMe / FTL / flash /
// background handler, and the runner's per-step done() check. Each span
// also counts heap allocations, so the decorator's own allocations (its
// wrapped callback outgrows sim::Fn's inline buffer) are subtracted too.
//
// Optional burns add a known host cost at one boundary; the sensitivity
// self-check uses them to show the split attributes cost to the right span.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "counting_alloc.h"
#include "harness/stack_iface.h"

namespace perfbench {

using kvsim::u64;

/// Span clock: the invariant TSC on x86-64 (a few ns per read), steady
/// clock nanoseconds elsewhere. calibrate_ticks_per_ns() converts.
inline u64 ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return (u64)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#endif
}

/// Ticks per nanosecond, measured against steady_clock over `ms`.
inline double calibrate_ticks_per_ns(int ms = 50) {
  using Clock = std::chrono::steady_clock;
  const auto w0 = Clock::now();
  const u64 t0 = ticks();
  while (Clock::now() - w0 < std::chrono::milliseconds(ms)) {
  }
  const u64 t1 = ticks();
  const double ns = (double)std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - w0)
                        .count();
  return (double)(t1 - t0) / ns;
}

/// Spin for `n` ticks (0 = no-op).
inline void burn(u64 n) {
  if (n == 0) return;
  const u64 end = ticks() + n;
  while (ticks() < end) {
  }
}

enum Span : unsigned { kEntry, kCallback, kTrace, kSpanKinds };

/// Self time and self allocations per span kind. A span's self share is
/// its duration minus the spans nested inside it; `top_*` sums the full
/// durations of outermost spans, so (window - top) is the time spent
/// outside every span.
class SpanAccount {
 public:
  SpanAccount() { open_.reserve(256); }

  void open(Span k) { open_.push_back(Open{k, ticks(), alloc_count(), 0, 0}); }

  void close() {
    const u64 t = ticks();
    const u64 a = alloc_count();
    const Open o = open_.back();
    open_.pop_back();
    const u64 d = t - o.t0;
    const u64 da = a - o.a0;
    self_ticks[o.kind] += d - o.child_ticks;
    self_allocs[o.kind] += da - o.child_allocs;
    ++count[o.kind];
    if (open_.empty()) {
      top_ticks += d;
      top_allocs += da;
    } else {
      open_.back().child_ticks += d;
      open_.back().child_allocs += da;
    }
  }

  u64 self_ticks[kSpanKinds] = {};
  u64 self_allocs[kSpanKinds] = {};
  u64 count[kSpanKinds] = {};
  u64 top_ticks = 0;
  u64 top_allocs = 0;

 private:
  struct Open {
    Span kind;
    u64 t0;
    u64 a0;
    u64 child_ticks;
    u64 child_allocs;
  };
  std::vector<Open> open_;
};

/// A KvStack that forwards everything to `inner`. Decorators derive from
/// it and override the op entry points they observe.
class ForwardingStack : public kvsim::harness::KvStack {
 public:
  using TenantCtx = kvsim::harness::TenantCtx;

  explicit ForwardingStack(kvsim::harness::KvStack& inner) : inner_(inner) {}

  void store(std::string_view key, kvsim::ValueDesc v,
             StoreDone done) override {
    store_as(TenantCtx{}, key, v, std::move(done));
  }
  void retrieve(std::string_view key, RetrieveDone done) override {
    retrieve_as(TenantCtx{}, key, std::move(done));
  }
  void remove(std::string_view key, RemoveDone done) override {
    remove_as(TenantCtx{}, key, std::move(done));
  }
  void store_as(const TenantCtx& t, std::string_view key, kvsim::ValueDesc v,
                StoreDone done) override {
    inner_.store_as(t, key, v, std::move(done));
  }
  void retrieve_as(const TenantCtx& t, std::string_view key,
                   RetrieveDone done) override {
    inner_.retrieve_as(t, key, std::move(done));
  }
  void remove_as(const TenantCtx& t, std::string_view key,
                 RemoveDone done) override {
    inner_.remove_as(t, key, std::move(done));
  }

  [[nodiscard]] const kvsim::nvme::NvmeLink* nvme_link() const override {
    return inner_.nvme_link();
  }
  void drain(kvsim::sim::Task done) override { inner_.drain(std::move(done)); }
  kvsim::sim::EventQueue& eq() override { return inner_.eq(); }
  [[nodiscard]] u64 host_cpu_ns() const override {
    return inner_.host_cpu_ns();
  }
  [[nodiscard]] u64 device_bytes_used() const override {
    return inner_.device_bytes_used();
  }
  [[nodiscard]] u64 app_bytes_live() const override {
    return inner_.app_bytes_live();
  }
  void add_app_bytes(kvsim::i64 delta) override { inner_.add_app_bytes(delta); }
  [[nodiscard]] const char* name() const override { return inner_.name(); }
  [[nodiscard]] const kvsim::ssd::FtlStats* ftl_stats() const override {
    return inner_.ftl_stats();
  }
  [[nodiscard]] const kvsim::flash::FlashController* flash_ctrl()
      const override {
    return inner_.flash_ctrl();
  }
  [[nodiscard]] u64 buffer_stall_events() const override {
    return inner_.buffer_stall_events();
  }
  void apply_fault_plan(const kvsim::ssd::FaultPlan& plan) override {
    inner_.apply_fault_plan(plan);
  }
  [[nodiscard]] const kvsim::ssd::FaultInjector* fault_injector()
      const override {
    return inner_.fault_injector();
  }
  [[nodiscard]] u64 host_retries() const override {
    return inner_.host_retries();
  }
  [[nodiscard]] bool crash_supported() const override {
    return inner_.crash_supported();
  }
  kvsim::harness::CrashOutcome simulate_crash() override {
    return inner_.simulate_crash();
  }
  [[nodiscard]] u64 inflight_host_ops() const override {
    return inner_.inflight_host_ops();
  }

 protected:
  kvsim::harness::KvStack& inner_;
};

/// Untraced-run sampler: reads `clock` once every `every` op entries and
/// passes callbacks through untouched (no wrapping, so no allocation and
/// no per-completion work). Entry counts are deterministic, so segment k
/// of every rep of one seed covers the same simulated work.
class SegmentClock final : public ForwardingStack {
 public:
  SegmentClock(kvsim::harness::KvStack& inner, u64 every, u64 (*clock)(),
               u64 expected_ops)
      : ForwardingStack(inner), every_(every), clock_(clock) {
    marks_.reserve(expected_ops / every + 4);
  }

  /// Open / close the sampled window.
  void start() { marks_.push_back(clock_()); }
  void stop() { marks_.push_back(clock_()); }

  /// Clock time per segment, in window order.
  [[nodiscard]] std::vector<u64> segments() const {
    std::vector<u64> d;
    for (size_t i = 1; i < marks_.size(); ++i)
      d.push_back(marks_[i] - marks_[i - 1]);
    return d;
  }

  void store_as(const TenantCtx& t, std::string_view key, kvsim::ValueDesc v,
                StoreDone done) override {
    tick();
    inner_.store_as(t, key, v, std::move(done));
  }
  void retrieve_as(const TenantCtx& t, std::string_view key,
                   RetrieveDone done) override {
    tick();
    inner_.retrieve_as(t, key, std::move(done));
  }
  void remove_as(const TenantCtx& t, std::string_view key,
                 RemoveDone done) override {
    tick();
    inner_.remove_as(t, key, std::move(done));
  }

 private:
  void tick() {
    if (++entries_ % every_ == 0) marks_.push_back(clock_());
  }

  u64 every_;
  u64 (*clock_)();
  u64 entries_ = 0;
  std::vector<u64> marks_;
};

class TracingStack final : public ForwardingStack {
 public:
  /// Wrap `inner`; burn `burn_entry` / `burn_callback` ticks inside the
  /// entry / callback span of every op.
  TracingStack(kvsim::harness::KvStack& inner, u64 burn_entry = 0,
               u64 burn_callback = 0)
      : ForwardingStack(inner),
        burn_entry_(burn_entry),
        burn_callback_(burn_callback),
        watched_(256) {}

  /// Record every fingerprint later passed to store_as for (nsid, key).
  void watch(kvsim::u8 nsid, std::string key) {
    watched_[nsid].try_emplace(std::move(key));
  }
  /// Fingerprints store_as carried for a watched key, in issue order.
  [[nodiscard]] const std::vector<u64>* issued(kvsim::u8 nsid,
                                               std::string_view key) const {
    const auto it = watched_[nsid].find(key);
    return it == watched_[nsid].end() ? nullptr : &it->second;
  }

  [[nodiscard]] const SpanAccount& spans() const { return spans_; }

  void store_as(const TenantCtx& t, std::string_view key, kvsim::ValueDesc v,
                StoreDone done) override {
    spans_.open(kTrace);
    auto& m = watched_[t.nsid];
    if (!m.empty()) {
      const auto it = m.find(key);
      if (it != m.end()) it->second.push_back(v.fingerprint);
    }
    StoreDone wrapped = wrap(std::move(done));
    spans_.open(kEntry);
    burn(burn_entry_);
    inner_.store_as(t, key, v, std::move(wrapped));
    spans_.close();
    spans_.close();
  }
  void retrieve_as(const TenantCtx& t, std::string_view key,
                   RetrieveDone done) override {
    spans_.open(kTrace);
    RetrieveDone wrapped = wrap(std::move(done));
    spans_.open(kEntry);
    burn(burn_entry_);
    inner_.retrieve_as(t, key, std::move(wrapped));
    spans_.close();
    spans_.close();
  }
  void remove_as(const TenantCtx& t, std::string_view key,
                 RemoveDone done) override {
    spans_.open(kTrace);
    RemoveDone wrapped = wrap(std::move(done));
    spans_.open(kEntry);
    burn(burn_entry_);
    inner_.remove_as(t, key, std::move(wrapped));
    spans_.close();
    spans_.close();
  }

 private:
  /// The bed calls the returned callback on completion; it times the
  /// runner's callback as one kCallback span.
  template <typename Done>
  Done wrap(Done done) {
    return [this, done = std::move(done)](auto... args) mutable {
      spans_.open(kCallback);
      burn(burn_callback_);
      done(std::move(args)...);
      spans_.close();
    };
  }

  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using KeyFps =
      std::unordered_map<std::string, std::vector<u64>, SvHash, std::equal_to<>>;

  u64 burn_entry_;
  u64 burn_callback_;
  SpanAccount spans_;
  std::vector<KeyFps> watched_;  ///< indexed by namespace id
};

}  // namespace perfbench
