// LRU residency over a weight budget: the one eviction policy behind the
// simulator's DRAM caches (KV-FTL index segments and blobs, the block
// FTL's page cache, the LSM block cache). Owners keep their counters and
// their fill/promote rules; this class only decides who stays resident.
#pragma once

#include <list>
#include <unordered_map>
#include <utility>

#include "common/types.h"

namespace kvsim {

/// Value of a cache that only tracks residency.
struct NoValue {};

/// Holds at most `capacity` weight units (entries, when every insert
/// weighs 1), most recently used first. A zero-capacity cache holds
/// nothing and never allocates.
template <class K, class V = NoValue>
class LruCache {
 public:
  explicit LruCache(u64 capacity) : capacity_(capacity) {}

  [[nodiscard]] bool contains(const K& k) const { return map_.count(k) != 0; }
  /// The resident value of `k` without promoting it; null on a miss.
  [[nodiscard]] V* peek(const K& k) {
    auto it = map_.find(k);
    return it == map_.end() ? nullptr : &it->second->value;
  }
  /// Promote `k` to most recently used; its value, or null on a miss.
  V* touch(const K& k) {
    auto it = map_.find(k);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->value;
  }

  /// Insert `k` as most recently used, then evict from the LRU end until
  /// the weight fits, calling on_evict(key, value) once per victim. An
  /// entry heavier than the capacity evicts every older entry and then
  /// itself. Returns false, changing nothing, when `k` is already resident
  /// (it is not promoted) or the capacity is 0.
  template <class OnEvict>
  bool insert(const K& k, V v, u64 weight, OnEvict&& on_evict) {
    if (capacity_ == 0 || map_.count(k)) return false;
    lru_.push_front(Entry{k, std::move(v), weight});
    map_.emplace(k, lru_.begin());
    weight_ += weight;
    while (weight_ > capacity_) {
      Entry& victim = lru_.back();
      weight_ -= victim.weight;
      on_evict(victim.key, victim.value);
      map_.erase(victim.key);
      lru_.pop_back();
    }
    return true;
  }
  bool insert(const K& k, V v = {}, u64 weight = 1) {
    return insert(k, std::move(v), weight, [](const K&, const V&) {});
  }

  /// Drop `k` without calling on_evict; false when it was not resident.
  bool erase(const K& k) {
    auto it = map_.find(k);
    if (it == map_.end()) return false;
    weight_ -= it->second->weight;
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }
  void clear() {
    lru_.clear();
    map_.clear();
    weight_ = 0;
  }

  [[nodiscard]] u64 size() const { return lru_.size(); }
  [[nodiscard]] u64 weight() const { return weight_; }
  [[nodiscard]] u64 capacity() const { return capacity_; }

 private:
  struct Entry {
    K key;
    V value;
    u64 weight;
  };
  u64 capacity_;
  u64 weight_ = 0;
  std::list<Entry> lru_;
  std::unordered_map<K, typename std::list<Entry>::iterator> map_;
};

}  // namespace kvsim
