#include "kvapi/kvs_device.h"

#include <memory>
#include <string>

namespace kvsim::kvapi {

void KvsDevice::store(std::string_view key, ValueDesc value, StoreDone done,
                      u8 stream, u8 nsid, u32 qid) {
  api_cpu_ns_ += cfg_.api_call_ns;
  link_.submit_on(qid, key_cmds(key), key.size() + value.size,
                  [this, k = std::string(key), value, stream, nsid, qid,
                   done = std::move(done)]() mutable {
                    ftl_.store(
                        k, value,
                        [this, qid, done = std::move(done)](Status s) mutable {
                          link_.complete_on(qid, 0,
                                            [s, done = std::move(done)]() mutable { done(s); });
                        },
                        stream, nsid);
                  });
}

void KvsDevice::retrieve(std::string_view key, RetrieveDone done, u8 nsid,
                         u32 qid) {
  api_cpu_ns_ += cfg_.api_call_ns;
  link_.submit_on(qid, key_cmds(key), key.size(),
                  [this, k = std::string(key), nsid, qid,
                   done = std::move(done)]() mutable {
                    ftl_.retrieve(
                        k,
                        [this, qid, done = std::move(done)](Status s,
                                                            ValueDesc v) mutable {
                          link_.complete_on(qid, v.size,
                                            [s, v, done = std::move(done)]() mutable {
                                              done(s, v);
                                            });
                        },
                        nsid);
                  });
}

void KvsDevice::remove(std::string_view key, StoreDone done, u8 nsid,
                       u32 qid) {
  api_cpu_ns_ += cfg_.api_call_ns;
  link_.submit_on(qid, key_cmds(key), key.size(),
                  [this, k = std::string(key), nsid, qid,
                   done = std::move(done)]() mutable {
                    ftl_.remove(
                        k,
                        [this, qid, done = std::move(done)](Status s) mutable {
                          link_.complete_on(qid, 0,
                                            [s, done = std::move(done)]() mutable { done(s); });
                        },
                        nsid);
                  });
}

void KvsDevice::exist(std::string_view key, ExistDone done, u8 nsid) {
  api_cpu_ns_ += cfg_.api_call_ns;
  link_.submit(key_cmds(key), key.size(),
               [this, k = std::string(key), nsid,
                done = std::move(done)]() mutable {
                 ftl_.exist(
                     k,
                     [this, done = std::move(done)](Status s,
                                                    bool found) mutable {
                       link_.complete(0,
                                      [s, found, done = std::move(done)]() mutable {
                                        done(s, found);
                                      });
                     },
                     nsid);
               });
}

struct KvsDevice::NamespaceDelete {
  u8 nsid;
  std::vector<std::string> keys;
  size_t next = 0;
  u64 removed = 0;
  CountDone done;
};

void KvsDevice::delete_namespace(u8 nsid, CountDone done) {
  // Snapshot every key of the namespace, then delete them one by one.
  auto job = std::make_shared<NamespaceDelete>();
  job->nsid = nsid;
  job->done = std::move(done);
  for (u32 bucket : ftl_.iterator_bucket_ids_of(nsid))
    for (auto& k : ftl_.snapshot_bucket(bucket))
      job->keys.push_back(std::move(k));
  delete_next(std::move(job));
}

void KvsDevice::delete_next(std::shared_ptr<NamespaceDelete> job) {
  if (job->next == job->keys.size()) {
    job->done(job->removed);
    return;
  }
  remove(job->keys[job->next++],
         [this, job](Status s) mutable {
           if (s == Status::kOk) ++job->removed;
           delete_next(std::move(job));
         },
         job->nsid);
}

}  // namespace kvsim::kvapi
