// Experiment testbeds: the three stacks the paper compares, behind one
// KvStack interface so the runner can drive any of them.
//
//   KvssdBed   — KV API -> NVMe KV commands -> KV-FTL        (KV-SSD)
//   LsmBed     — mini-RocksDB -> ext4-like fs -> block-SSD   (RDB)
//   HashKvBed  — mini-Aerospike -> direct I/O -> block-SSD   (AS)
//
// Each bed owns a private DeviceSubstrate (event queue, flash, FTL, NVMe
// link, device front-end), so beds are independent "machines" (the paper
// used two identical servers). BlockDirectBed is the bare block substrate,
// for the direct-I/O experiments (Figs. 3-5).
//
// The three KV beds share one host-op path, HostBed. It holds, once for
// all beds: in-flight tracking and the drain gate, the fault-plan switch,
// RetryPolicy re-drives (retryable device errors are re-driven after
// backoff and counted in host_retries()), and the power-cut prologue and
// epilogue. A bed supplies only what its stack does differently: how one
// attempt of a store/retrieve/remove is issued, how it quiesces, and how
// it mounts after a cut. With faults off the retry wrapper is bypassed
// entirely, so fault-free runs execute the exact pre-fault command path.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "blockapi/block_device.h"
#include "fs/file_system.h"
#include "harness/stack_iface.h"
#include "hashkv/hash_store.h"
#include "kvapi/kvs_device.h"
#include "lsm/lsm_store.h"

#include "common/thread_annotations.h"

namespace kvsim::harness {

/// The simulated device under a bed: flash, FTL, NVMe link and the host
/// device front-end, all on the bed's private event queue.
template <typename Ftl, typename Dev>
class DeviceSubstrate {
 public:
  KVSIM_THREAD_CONFINED;
  sim::EventQueue& eq() { return eq_; }
  Dev& device() { return *dev_; }
  Ftl& ftl() { return *ftl_; }
  flash::FlashController& flash() { return *flash_; }

 protected:
  /// Build the device bottom-up from a bed config's dev/ftl/nvme/api.
  template <typename Cfg>
  void build(const Cfg& cfg) {
    flash_ = std::make_unique<flash::FlashController>(eq_, cfg.dev.geometry,
                                                      cfg.dev.timing);
    ftl_ = std::make_unique<Ftl>(eq_, *flash_, cfg.dev, cfg.ftl);
    link_ = std::make_unique<nvme::NvmeLink>(eq_, cfg.nvme);
    dev_ = std::make_unique<Dev>(eq_, *link_, *ftl_, cfg.api);
  }

  sim::EventQueue eq_;
  std::unique_ptr<flash::FlashController> flash_;
  std::unique_ptr<Ftl> ftl_;
  std::unique_ptr<nvme::NvmeLink> link_;
  std::unique_ptr<Dev> dev_;
};

/// The host-op path shared by the KV beds: every store/retrieve/remove is
/// tracked in flight from issue to final completion, then issued directly
/// (faults off) or through detail::run_with_retry (faults on).
template <typename Ftl, typename Dev>
class HostBed : public KvStack, public DeviceSubstrate<Ftl, Dev> {
 public:
  KVSIM_THREAD_CONFINED;
  sim::EventQueue& eq() override { return this->eq_; }
  [[nodiscard]] const nvme::NvmeLink* nvme_link() const override {
    return this->link_.get();
  }
  void drain(sim::Task done) override {
    // An op parked in a retry-backoff window is invisible to the device
    // and store drains; wait out the host side first.
    inflight_.when_idle([this, done = std::move(done)]() mutable {
      quiesce(std::move(done));
    });
  }
  [[nodiscard]] const ssd::FtlStats* ftl_stats() const override {
    return &this->ftl_->stats();
  }
  [[nodiscard]] const flash::FlashController* flash_ctrl() const override {
    return this->flash_.get();
  }
  [[nodiscard]] u64 buffer_stall_events() const override {
    return this->ftl_->buffer_stalls();
  }
  void apply_fault_plan(const ssd::FaultPlan& plan) override {
    this->ftl_->set_fault_plan(plan);
    faults_on_ = plan.enabled;
    // Re-derive the retry budget's bucket and jitter stream from the
    // plan's seed so fault runs are reproducible from one knob.
    retry_budget_.configure(retry_, plan.seed);
  }
  [[nodiscard]] const ssd::FaultInjector* fault_injector() const override {
    return this->ftl_->fault_injector();
  }
  [[nodiscard]] u64 host_retries() const override { return host_retries_; }
  [[nodiscard]] bool crash_supported() const override { return crash_on_; }
  CrashOutcome simulate_crash() override {
    CrashOutcome out;
    if (!crash_on_) return out;
    const TimeNs cut = this->eq_.now();
    out.crash_time = cut;
    out.discarded_events = this->eq_.discard_pending();
    inflight_.reset();
    this->link_->power_cycle(cut);
    mount(out, [this, &out, cut] {
      this->eq_.run();  // device + host mount, on the bed's clock
      out.recovery_ns = this->eq_.now() - cut;
    });
    return out;
  }
  [[nodiscard]] u64 inflight_host_ops() const override {
    return inflight_.count();
  }

 protected:
  explicit HostBed(const RetryPolicy& retry) : retry_(retry) {
    retry_budget_.configure(retry_, ssd::FaultPlan{}.seed);
  }

  /// Run one host op. `issue(key, attempt, cb)` issues attempt number
  /// `attempt` (0 = first) of the op and completes through `cb`; it is
  /// called once with faults off and once per attempt with faults on.
  template <typename Done, typename Issue>
  void run_op(std::string_view key, Done done, Issue issue) {
    auto tracked = inflight_.track(std::move(done));
    if (!faults_on_) {
      issue(key, 0, std::move(tracked));
      return;
    }
    detail::run_with_retry(
        this->eq_, retry_, host_retries_, retry_budget_,
        [key = std::string(key), issue = std::move(issue)](u32 attempt,
                                                           auto cb) {
          issue(key, attempt, std::move(cb));
        },
        std::move(tracked));
  }

  /// Set by the bed's constructor: every layer keeps its crash ledger.
  bool crash_on_ = false;

 private:
  /// Flush and wait for background work; runs once no host op is in
  /// flight.
  virtual void quiesce(sim::Task done) = 0;
  /// Power-fail the device and host layers and start their mount-time
  /// recovery, call `settle` to run it to completion, then record the
  /// recovery counters in `out`.
  virtual void mount(CrashOutcome& out, sim::Task settle) = 0;

  RetryPolicy retry_;
  detail::RetryBudget retry_budget_;
  bool faults_on_ = false;
  u64 host_retries_ = 0;
  detail::InflightOps inflight_;
};

struct KvssdBedConfig {
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  kvftl::KvFtlConfig ftl;
  nvme::NvmeConfig nvme;
  kvapi::KvsApiConfig api;
  RetryPolicy retry;
  /// Convenience master switch: turns on crash tracking in every layer of
  /// the bed so simulate_crash() is available.
  bool crash_tracking = false;
};

class KvssdBed final : public HostBed<kvftl::KvFtl, kvapi::KvsDevice> {
 public:
  KVSIM_THREAD_CONFINED;
  explicit KvssdBed(const KvssdBedConfig& cfg = {});

  // KV-SSD tenancy is native: the device command carries the namespace
  // (isolated keyspace in the KV-FTL) and posts to the tenant's SQ. The
  // default ctx is the exact pre-tenancy path.
  void store_as(const TenantCtx& t, std::string_view key, ValueDesc v,
                StoreDone done) override {
    // Re-drives carry the attempt number as the stream hint so the FTL
    // may steer the retry to a different write point.
    run_op(key, std::move(done),
           [this, t, v](std::string_view k, u32 attempt, auto cb) {
             dev_->store(k, v, std::move(cb), /*stream=*/(u8)attempt,
                         t.nsid, t.queue);
           });
  }
  void retrieve_as(const TenantCtx& t, std::string_view key,
                   RetrieveDone done) override {
    run_op(key, std::move(done), [this, t](std::string_view k, u32, auto cb) {
      dev_->retrieve(k, std::move(cb), t.nsid, t.queue);
    });
  }
  void remove_as(const TenantCtx& t, std::string_view key,
                 RemoveDone done) override {
    run_op(key, std::move(done), [this, t](std::string_view k, u32, auto cb) {
      dev_->remove(k, std::move(cb), t.nsid, t.queue);
    });
  }
  [[nodiscard]] u64 host_cpu_ns() const override { return dev_->host_cpu_ns(); }
  [[nodiscard]] u64 device_bytes_used() const override {
    return ftl_->device_bytes_used();
  }
  [[nodiscard]] u64 app_bytes_live() const override {
    return ftl_->app_bytes_live();
  }
  [[nodiscard]] const char* name() const override { return "KV-SSD"; }

 private:
  void quiesce(sim::Task done) override { dev_->flush(std::move(done)); }
  void mount(CrashOutcome& out, sim::Task settle) override;
};

struct BlockBedConfig {
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  blockftl::BlockFtlConfig ftl;
  nvme::NvmeConfig nvme;
  blockapi::BlockApiConfig api;
};

/// Raw block device bed (direct I/O experiments).
class BlockDirectBed
    : public DeviceSubstrate<blockftl::BlockFtl, blockapi::BlockDevice> {
 public:
  KVSIM_THREAD_CONFINED;
  explicit BlockDirectBed(const BlockBedConfig& cfg = {}) { build(cfg); }
};

struct LsmBedConfig {
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  blockftl::BlockFtlConfig ftl;
  nvme::NvmeConfig nvme;
  blockapi::BlockApiConfig api;
  fs::FsConfig fs;
  lsm::LsmConfig lsm;
  RetryPolicy retry;
  /// Convenience master switch: turns on crash tracking in every layer of
  /// the bed so simulate_crash() is available.
  bool crash_tracking = false;
};

class LsmBed final : public HostBed<blockftl::BlockFtl, blockapi::BlockDevice> {
 public:
  KVSIM_THREAD_CONFINED;
  explicit LsmBed(const LsmBedConfig& cfg = {});
  using KvStack::store;  // not hidden by the store() accessor below

  // No device namespaces on the block path: keyspace isolation is a
  // host-side key prefix (tenant_key), and the tenant's queue is a sticky
  // hint on the block device — I/O the store issues while serving this op
  // (including flushes/compaction it triggers) rides the tenant's SQ. Each
  // attempt sets it again, since other tenants move it between re-drives.
  void store_as(const TenantCtx& t, std::string_view key, ValueDesc v,
                StoreDone done) override {
    run_op(key, std::move(done), [this, t, v](std::string_view k, u32,
                                              auto cb) {
      dev_->set_queue(t.queue);
      store_->put(tenant_key(t.nsid, k), v, std::move(cb));
    });
  }
  void retrieve_as(const TenantCtx& t, std::string_view key,
                   RetrieveDone done) override {
    run_op(key, std::move(done), [this, t](std::string_view k, u32, auto cb) {
      dev_->set_queue(t.queue);
      store_->get(tenant_key(t.nsid, k), std::move(cb), t.queue);
    });
  }
  void remove_as(const TenantCtx& t, std::string_view key,
                 RemoveDone done) override {
    run_op(key, std::move(done), [this, t](std::string_view k, u32, auto cb) {
      dev_->set_queue(t.queue);
      store_->del(tenant_key(t.nsid, k), std::move(cb));
    });
  }
  [[nodiscard]] u64 host_cpu_ns() const override {
    return store_->host_cpu_ns() + fs_->host_cpu_ns() + dev_->host_cpu_ns();
  }
  [[nodiscard]] u64 device_bytes_used() const override {
    return fs_->used_bytes();
  }
  [[nodiscard]] u64 app_bytes_live() const override { return app_bytes_; }
  void add_app_bytes(i64 delta) override {
    app_bytes_ = (u64)((i64)app_bytes_ + delta);
  }
  [[nodiscard]] const char* name() const override {
    return "RocksDB/ext4/block-SSD";
  }

  lsm::LsmStore& store() { return *store_; }
  fs::FileSystem& fs() { return *fs_; }

 private:
  void quiesce(sim::Task done) override;
  void mount(CrashOutcome& out, sim::Task settle) override;

  std::unique_ptr<fs::FileSystem> fs_;
  std::unique_ptr<lsm::LsmStore> store_;
  u64 app_bytes_ = 0;
};

struct HashKvBedConfig {
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  blockftl::BlockFtlConfig ftl;
  nvme::NvmeConfig nvme;
  blockapi::BlockApiConfig api;
  hashkv::HashKvConfig store;
  RetryPolicy retry;
  /// Convenience master switch: turns on crash tracking in every layer of
  /// the bed so simulate_crash() is available.
  bool crash_tracking = false;
};

class HashKvBed final
    : public HostBed<blockftl::BlockFtl, blockapi::BlockDevice> {
 public:
  KVSIM_THREAD_CONFINED;
  explicit HashKvBed(const HashKvBedConfig& cfg = {});
  using KvStack::store;  // not hidden by the store() accessor below

  // Same host-side tenancy as LsmBed: key-prefix keyspaces plus a sticky
  // queue hint, set on every attempt, on the direct-I/O block device.
  void store_as(const TenantCtx& t, std::string_view key, ValueDesc v,
                StoreDone done) override {
    run_op(key, std::move(done), [this, t, v](std::string_view k, u32,
                                              auto cb) {
      dev_->set_queue(t.queue);
      store_->put(tenant_key(t.nsid, k), v, std::move(cb));
    });
  }
  void retrieve_as(const TenantCtx& t, std::string_view key,
                   RetrieveDone done) override {
    run_op(key, std::move(done), [this, t](std::string_view k, u32, auto cb) {
      dev_->set_queue(t.queue);
      store_->get(tenant_key(t.nsid, k), std::move(cb));
    });
  }
  void remove_as(const TenantCtx& t, std::string_view key,
                 RemoveDone done) override {
    run_op(key, std::move(done), [this, t](std::string_view k, u32, auto cb) {
      dev_->set_queue(t.queue);
      store_->del(tenant_key(t.nsid, k), std::move(cb));
    });
  }
  [[nodiscard]] u64 host_cpu_ns() const override {
    return store_->host_cpu_ns() + dev_->host_cpu_ns();
  }
  [[nodiscard]] u64 device_bytes_used() const override {
    return store_->device_bytes_used();
  }
  [[nodiscard]] u64 app_bytes_live() const override {
    return store_->app_bytes_live();
  }
  [[nodiscard]] const char* name() const override {
    return "Aerospike/block-SSD";
  }

  hashkv::HashKvStore& store() { return *store_; }

 private:
  void quiesce(sim::Task done) override { store_->drain(std::move(done)); }
  void mount(CrashOutcome& out, sim::Task settle) override;

  std::unique_ptr<hashkv::HashKvStore> store_;
};

}  // namespace kvsim::harness
