// Open-addressing hash map over integer keys: linear probing in one
// power-of-two slot array, no tombstones (erase shifts the rest of the
// probe run back over the hole), load kept at or below 3/4. A lookup
// touches one run of adjacent slots instead of chasing a node pointer,
// which is what the KV-FTL blob table, probed on every host op and every
// GC migration, pays for.
//
// Growth doubles the array and moves every entry, and erase moves the
// entries behind the hole: a pointer or reference into the map is valid
// only until the next insert or erase.
#pragma once

#include <utility>
#include <vector>

#include "common/types.h"

namespace kvsim {

/// Default slot hash: the MurmurHash3 64-bit finalizer, so keys that
/// differ only in their high bits (or count up) still spread.
struct FlatHash {
  u64 operator()(u64 k) const {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
  }
};

/// `V` must be default-constructible and move-assignable; an empty slot
/// holds a default `V`, so erase and clear release what a value owns.
template <class K, class V, class Hash = FlatHash>
class FlatMap {
 public:
  [[nodiscard]] u64 size() const { return size_; }
  /// Slots in the array (0 until the first insert, then a power of two).
  [[nodiscard]] u64 capacity() const { return slots_.size(); }

  /// The value of `k`, or null when absent.
  [[nodiscard]] V* find(const K& k) {
    if (size_ == 0) return nullptr;
    const u64 i = probe(k);
    return used_[i] ? &slots_[i].value : nullptr;
  }
  [[nodiscard]] const V* find(const K& k) const {
    if (size_ == 0) return nullptr;
    const u64 i = probe(k);
    return used_[i] ? &slots_[i].value : nullptr;
  }
  [[nodiscard]] bool contains(const K& k) const { return find(k) != nullptr; }

  /// The value of `k`, inserted default-constructed when absent.
  V& operator[](const K& k) {
    if (slots_.empty()) grow();
    u64 i = probe(k);
    if (used_[i]) return slots_[i].value;
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      grow();
      i = probe(k);
    }
    used_[i] = 1;
    slots_[i].key = k;
    ++size_;
    return slots_[i].value;
  }

  /// Remove `k`; false when it was absent.
  bool erase(const K& k) {
    if (size_ == 0) return false;
    u64 hole = probe(k);
    if (!used_[hole]) return false;
    // Walk the run behind the hole: an entry may fill it unless its home
    // lies cyclically in (hole, j], where it would become unreachable.
    for (u64 j = next(hole); used_[j]; j = next(j)) {
      const u64 home = home_of(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    used_[hole] = 0;
    --size_;
    return true;
  }

  /// Drop every entry; the slot array keeps its size.
  void clear() {
    for (u64 i = 0; i < slots_.size(); ++i)
      if (used_[i]) {
        slots_[i] = Slot{};
        used_[i] = 0;
      }
    size_ = 0;
  }

  /// Call f(key, value) once per entry, in slot order.
  template <class F>
  void for_each(F&& f) const {
    for (u64 i = 0; i < slots_.size(); ++i)
      if (used_[i]) f(slots_[i].key, slots_[i].value);
  }

 private:
  struct Slot {
    K key{};
    V value{};
  };
  static constexpr u64 kMinCapacity = 16;

  [[nodiscard]] u64 home_of(const K& k) const { return Hash{}(k) & mask_; }
  [[nodiscard]] u64 next(u64 i) const { return (i + 1) & mask_; }
  /// The slot holding `k`, or the empty slot that ends its probe run.
  /// The load bound guarantees an empty slot, so the walk terminates.
  [[nodiscard]] u64 probe(const K& k) const {
    u64 i = home_of(k);
    while (used_[i] && !(slots_[i].key == k)) i = next(i);
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    std::vector<u8> old_used = std::move(used_);
    const u64 cap = old.empty() ? kMinCapacity : old.size() * 2;
    slots_ = std::vector<Slot>(cap);
    used_.assign(cap, 0);
    mask_ = cap - 1;
    for (u64 j = 0; j < old.size(); ++j) {
      if (!old_used[j]) continue;
      const u64 i = probe(old[j].key);
      used_[i] = 1;
      slots_[i] = std::move(old[j]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<u8> used_;  // 1 = slot holds an entry
  u64 size_ = 0;
  u64 mask_ = 0;
};

}  // namespace kvsim
