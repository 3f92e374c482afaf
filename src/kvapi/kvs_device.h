// SNIA-flavored KV Storage API (the paper's "KV API" box in Fig. 1).
//
// Thin host-side library over the NVMe KV command set: validates
// arguments, builds the vendor-specific commands (one or two per op
// depending on key length), and forwards to the KV-FTL. All operations
// are asynchronous (callback-based), matching the KDD async path used
// throughout the paper; synchronous behavior is queue-depth-1 issuance.
#pragma once

#include <memory>
#include <string_view>

#include "kvftl/kv_ftl.h"
#include "nvme/nvme_link.h"

#include "common/thread_annotations.h"

namespace kvsim::kvapi {

struct KvsApiConfig {
  /// Host CPU work per API call (argument marshalling, context setup).
  TimeNs api_call_ns = 1000;
};

class KvsDevice {
 public:
  KVSIM_THREAD_CONFINED;
  using StoreDone = kvftl::KvFtl::StoreDone;
  using RetrieveDone = kvftl::KvFtl::RetrieveDone;
  using ExistDone = kvftl::KvFtl::ExistDone;
  using KeysDone = kvftl::KvFtl::KeysDone;
  using CountDone = sim::Fn<void(u64)>;

  KvsDevice(sim::EventQueue& eq, nvme::NvmeLink& link, kvftl::KvFtl& ftl,
            const KvsApiConfig& cfg = {})
      : eq_(eq), link_(link), ftl_(ftl), cfg_(cfg) {}

  /// kvs_store_tuple: insert or overwrite. `stream` is an optional
  /// placement/hotness hint (extension; see KvFtlConfig::write_streams);
  /// `nsid` selects the key space (SNIA container semantics: key spaces
  /// are fully isolated); `qid` selects the NVMe submission queue the
  /// command posts to (multi-queue tenancy; see nvme/nvme_link.h).
  void store(std::string_view key, ValueDesc value, StoreDone done,
             u8 stream = 0, u8 nsid = 0, u32 qid = 0);
  /// kvs_retrieve_tuple: point lookup.
  void retrieve(std::string_view key, RetrieveDone done, u8 nsid = 0,
                u32 qid = 0);
  /// kvs_delete_tuple.
  void remove(std::string_view key, StoreDone done, u8 nsid = 0,
              u32 qid = 0);
  /// kvs_exist_tuples (single key).
  void exist(std::string_view key, ExistDone done, u8 nsid = 0);
  /// KVPs stored in one key space.
  [[nodiscard]] u64 kvp_count_in(u8 nsid) const {
    return ftl_.kvp_count_in(nsid);
  }
  /// kvs_delete_key_space: remove every key of a namespace (requires the
  /// device's iterator key tracking; completes after the last delete).
  /// `done(removed)` gets the number of keys deleted.
  void delete_namespace(u8 nsid, CountDone done);
  /// Iterator: bucket group ids and per-group key listing.
  [[nodiscard]] std::vector<u32> iterator_bucket_ids() const {
    return ftl_.iterator_bucket_ids();
  }
  void iterate_bucket(u32 bucket, KeysDone done) {
    ftl_.iterate_bucket(bucket, std::move(done));
  }

  void flush(sim::Task done) { ftl_.flush(std::move(done)); }

  /// Host CPU consumed by the API + driver (submission + completions).
  [[nodiscard]] u64 host_cpu_ns() const {
    return api_cpu_ns_ + link_.host_cpu_ns();
  }
  kvftl::KvFtl& ftl() { return ftl_; }
  [[nodiscard]] const kvftl::KvFtl& ftl() const { return ftl_; }

 private:
  struct NamespaceDelete;
  /// One step of delete_namespace: remove the job's next key, then recurse.
  void delete_next(std::shared_ptr<NamespaceDelete> job);

  [[nodiscard]] u32 key_cmds(std::string_view key) const {
    return nvme::kv_commands_for_key(link_.config(), (u32)key.size());
  }

  sim::EventQueue& eq_;
  nvme::NvmeLink& link_;
  kvftl::KvFtl& ftl_;
  KvsApiConfig cfg_;
  u64 api_cpu_ns_ = 0;
};

}  // namespace kvsim::kvapi
