// SNIA-style cursor iterator: kvs_iterator_open / _next / _close.
//
// The KVS API iterates one bucket group at a time through a bounded
// iterator buffer; each next() call returns up to `max_keys` keys and
// costs one 4 KiB bucket-record page read on the device. Keys arrive in
// hash order (the device stores bucket records unordered), and the
// snapshot is taken at open time, matching the device's iterator
// semantics for concurrent writers. next_pairs() is the
// KVS_ITERATOR_OPT_KV mode: it additionally retrieves each key's value,
// paying the full blob-read cost per key.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "kvapi/kvs_device.h"
#include "sim/latch.h"

#include "common/thread_annotations.h"

namespace kvsim::kvapi {

class KvsIterator {
 public:
  KVSIM_THREAD_CONFINED;
  /// kvs_iterator_open on one bucket group.
  KvsIterator(KvsDevice& dev, u32 bucket)
      : dev_(dev), keys_(dev.ftl().snapshot_bucket(bucket)) {}

  using PairsDone =
      sim::Fn<void(std::vector<std::pair<std::string, ValueDesc>>)>;

  /// kvs_iterator_next: deliver up to `max_keys` keys; an empty batch
  /// means the iterator is exhausted.
  void next(u32 max_keys, KvsDevice::KeysDone done) {
    if (cursor_ >= keys_.size() || max_keys == 0) {
      done({});
      return;
    }
    const size_t take =
        std::min<size_t>(max_keys, keys_.size() - cursor_);
    std::vector<std::string> batch(keys_.begin() + (long)cursor_,
                                   keys_.begin() + (long)(cursor_ + take));
    cursor_ += take;
    dev_.ftl().charge_iterator_read(
        [batch = std::move(batch), done = std::move(done)]() mutable {
          done(std::move(batch));
        });
  }

  /// kvs_iterator_next in key+value mode: each returned pair carries the
  /// value descriptor; deleted-since-open keys are skipped.
  void next_pairs(u32 max_keys, PairsDone done) {
    if (cursor_ >= keys_.size() || max_keys == 0) {
      done({});
      return;
    }
    const size_t take = std::min<size_t>(max_keys, keys_.size() - cursor_);
    auto out = std::make_shared<
        std::vector<std::pair<std::string, ValueDesc>>>();
    // One arrival for the bucket-page read, one per retrieved value.
    auto join = sim::make_latch(
        (int)take + 1,
        [out, done = std::move(done)]() mutable { done(std::move(*out)); });
    dev_.ftl().charge_iterator_read([join] { join->arrive(); });
    for (size_t i = 0; i < take; ++i) {
      const std::string& key = keys_[cursor_ + i];
      dev_.retrieve(key, [out, join, key](Status s, ValueDesc v) {
        if (s == Status::kOk) out->emplace_back(key, v);
        join->arrive();
      });
    }
    cursor_ += take;
  }

  [[nodiscard]] bool exhausted() const { return cursor_ >= keys_.size(); }
  [[nodiscard]] size_t remaining() const { return keys_.size() - cursor_; }

 private:
  KvsDevice& dev_;
  std::vector<std::string> keys_;
  size_t cursor_ = 0;
};

}  // namespace kvsim::kvapi
