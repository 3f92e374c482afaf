// Sorted string table (SST) representation for the mini-RocksDB store.
//
// An SST is an immutable sorted run persisted as one filesystem file:
// entries (key, value descriptor, tombstone, sequence number), per-entry
// byte offsets (for 4 KiB data-block addressing through the block cache),
// and a Bloom filter. Index and filter blocks are assumed resident in
// host RAM, as with RocksDB's default table reader after first open.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "fs/file_system.h"

namespace kvsim::lsm {

/// Immutable split-block Bloom filter (~10 bits/key, 4 probes).
class SstBloom {
 public:
  explicit SstBloom(const std::vector<u64>& khashes);
  [[nodiscard]] bool may_contain(u64 khash) const;

 private:
  u64 nbits_;  // probe modulus (must match between build and query)
  std::vector<u64> bits_;
};

struct SstEntry {
  std::string key;
  ValueDesc value;
  u64 seq = 0;
  bool tombstone = false;
};

/// Bytes an entry occupies in the on-disk format (key + value + header).
inline u64 entry_file_bytes(const SstEntry& e) {
  return e.key.size() + e.value.size + 16;
}

struct Sst {
  u64 id = 0;
  bool compacting = false;  ///< claimed by a running compaction job
  bool retired = false;     ///< replaced by a compaction; file removed
  fs::FileSystem::Handle file = fs::FileSystem::kInvalidHandle;
  u64 file_bytes = 0;
  std::vector<SstEntry> entries;    // sorted by key
  std::vector<u64> offsets;         // per-entry byte offset in the file
  std::unique_ptr<SstBloom> bloom;
  std::string smallest, largest;

  /// Index of `key` in entries, or -1. O(log n).
  [[nodiscard]] i64 find(std::string_view key) const;
  [[nodiscard]] bool overlaps(std::string_view lo, std::string_view hi) const {
    return !(largest < lo || hi < smallest);
  }
};

/// Build the in-memory portion of an SST from sorted entries (file I/O is
/// the caller's job). Computes offsets, bloom, bounds, and file size.
std::shared_ptr<Sst> build_sst(u64 id, std::vector<SstEntry> entries);

}  // namespace kvsim::lsm
