// Minimal extent-based filesystem over a raw block device.
//
// Models exactly what the paper's ext4 layer contributes to the RocksDB
// stack: file-name -> inode -> extent -> LBA mapping, metadata-journal
// writes, and TRIM of freed extents on delete (which is what lets the LSM
// invalidate whole flash blocks and dodge device GC, Fig. 6a).
//
// Files are append-only streams of 4 KiB filesystem blocks (the access
// pattern LSM stores generate); random reads address (offset, length).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "blockapi/block_device.h"
#include "sim/task.h"

#include "common/thread_annotations.h"

namespace kvsim::fs {

struct FsConfig {
  u32 block_bytes = 4 * KiB;
  /// Host CPU per metadata operation (create/delete/extent allocation).
  TimeNs meta_cpu_ns = 1500;
  /// Host CPU per data block mapped on the read/write path.
  TimeNs map_cpu_ns = 250;
  /// One 4 KiB journal write per this many metadata operations.
  u32 journal_every_ops = 8;
  /// Largest contiguous extent handed out per allocation.
  u32 max_extent_blocks = 256;
  /// Keep a per-append piece ledger so crash recovery can ask which file
  /// ranges actually reached flash (see probe_durable). Off by default.
  bool crash_tracking = false;
};

class FileSystem {
 public:
  KVSIM_THREAD_CONFINED;
  using Handle = u32;
  using Done = sim::Fn<void(Status)>;
  using ReadDone = sim::Fn<void(Status, u64)>;
  static constexpr Handle kInvalidHandle = ~0u;

  FileSystem(sim::EventQueue& eq, blockapi::BlockDevice& dev,
             const FsConfig& cfg = {});

  /// Create an empty file; returns its handle.
  Handle create(std::string name);
  [[nodiscard]] Handle lookup(const std::string& name) const;

  /// Append `bytes` (rounded up to whole fs blocks) to the file. `fp_base`
  /// seeds device-level content fingerprints.
  void append(Handle h, u64 bytes, u64 fp_base, Done done);

  /// Read `bytes` at `offset` within the file.
  void read(Handle h, u64 offset, u64 bytes, ReadDone done);

  /// Route subsequent device commands to NVMe submission queue `qid`
  /// (sticky passthrough to BlockDevice::set_queue). Engines that defer
  /// I/O across events re-assert this at each issue site so foreground
  /// reads land on the calling tenant's queue and background work on 0.
  void set_queue(u32 qid) { dev_.set_queue(qid); }

  /// Read whole fs blocks [first_block, first_block + blocks) addressed by
  /// file block index. Crash recovery replays WAL chunks with this: each
  /// group-committed append rounds up to whole blocks, so byte offsets
  /// under-count the file's real block positions.
  void read_blocks(Handle h, u64 first_block, u64 blocks, ReadDone done);

  /// Delete the file: free extents and TRIM them on the device.
  void remove(Handle h, Done done);

  /// Crash-recovery probe (no timing, no state change; requires
  /// crash_tracking): true when every fs block covering [offset,
  /// offset + bytes) of the file is durable on the device with exactly
  /// the content its append wrote. The inode table and extent maps
  /// themselves are modeled as metadata-journal-durable, so after a
  /// power cut recovery re-reads file structure for free and uses this
  /// probe to find the torn tail.
  [[nodiscard]] bool probe_durable(Handle h, u64 offset, u64 bytes) const;

  [[nodiscard]] u64 file_bytes(Handle h) const;
  [[nodiscard]] u32 block_bytes() const { return cfg_.block_bytes; }
  [[nodiscard]] u64 used_bytes() const {
    return used_blocks_ * cfg_.block_bytes;
  }
  [[nodiscard]] u64 free_bytes() const;
  [[nodiscard]] u64 host_cpu_ns() const { return cpu_ns_; }
  [[nodiscard]] u64 journal_writes() const { return journal_writes_; }

 private:
  struct Extent {
    u64 start_block;
    u64 block_count;
  };
  /// Crash tracking: one record per device write an append issued. Extent
  /// coalescing destroys write boundaries in `extents`, but the device
  /// fingerprints are seeded per write — recovery needs these to re-derive
  /// what each block should hold.
  struct PieceRec {
    u64 file_block;   // first file-relative fs block this write covered
    u64 start_block;  // first device fs block
    u64 block_count;
    u64 fp;           // fp_base the device write was issued with
  };
  struct Inode {
    std::string name;
    u64 size_bytes = 0;
    std::vector<Extent> extents;
    bool alive = false;
    std::vector<PieceRec> pieces;  // crash tracking only
  };

  /// Allocate up to `blocks` contiguous fs blocks; returns an extent that
  /// may be shorter than requested (caller loops).
  bool allocate_extent(u64 blocks, Extent& out);
  void free_extent(const Extent& e);
  /// Charge `ops` metadata operations; `then()` runs once they settle
  /// (after the journal write when one falls due).
  template <typename F>
  void charge_meta(u32 ops, F then);
  [[nodiscard]] Lba lba_of_block(u64 fs_block) const {
    return fs_block * (cfg_.block_bytes / 512);
  }

  sim::EventQueue& eq_;
  blockapi::BlockDevice& dev_;
  FsConfig cfg_;

  std::vector<Inode> inodes_;
  std::unordered_map<std::string, Handle> by_name_;

  // Free space: sorted free list of extents (coalesced on free).
  std::vector<Extent> free_list_;
  u64 total_blocks_;
  u64 used_blocks_ = 0;
  u64 journal_block_;  // fs block reserved for the metadata journal
  u32 meta_ops_since_journal_ = 0;
  u64 journal_writes_ = 0;
  u64 cpu_ns_ = 0;
};

}  // namespace kvsim::fs
