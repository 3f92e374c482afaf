// Mini-Aerospike: an in-RAM hash-index KV store over a raw block device
// with direct I/O — the paper's second baseline (its primary-index /
// storage layout mirrors KV-SSD's own hash-based metadata management, but
// executed on the host).
//
// Storage model (Aerospike SSD namespace):
//  * the device is divided into fixed write blocks (default 128 KiB);
//  * records (header + key + value, 16 B-aligned) append into an active
//    write buffer that is written out as one large sequential I/O when
//    full — why Aerospike inserts are fast (Fig. 2a);
//  * the primary index lives entirely in host RAM — reads cost exactly one
//    device I/O of the record's rounded size (Fig. 2c);
//  * updates relocate records, leaving garbage that a background defrag
//    thread compacts (read block + rewrite live records); defrag I/O and
//    CPU compete with foreground traffic, which is why KV-SSD beats
//    Aerospike for updates (Fig. 2b);
//  * the ~64 B per-record overhead and 16 B rounding give the <2x space
//    amplification of Fig. 7.
#pragma once

#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "blockapi/block_device.h"
#include "sim/task.h"

#include "common/thread_annotations.h"

namespace kvsim::hashkv {

struct HashKvConfig {
  u64 write_block_bytes = 128 * KiB;
  u32 record_header_bytes = 40;
  u32 record_align = 16;
  u32 read_sector_bytes = 512;
  /// Defragment a write block once its live fraction drops below this.
  double defrag_threshold = 0.5;
  /// Aerospike semantics: an update of an existing record reads the old
  /// record first (bin merge / generation check) before rewriting it —
  /// this is why KV-SSD beats Aerospike for updates (paper Fig. 2b).
  bool read_before_update = true;

  TimeNs api_ns = 1000;           ///< client/service work per op
  TimeNs index_cpu_ns = 1200;     ///< RAM primary-index operation
  TimeNs buffer_copy_ns = 1500;   ///< staging a record into the buffer
  TimeNs defrag_cpu_per_record_ns = 800;

  /// Crash mode: keep a host-side ledger of the records each flushed
  /// write block carried, standing in for the parseable record headers a
  /// cold-restart device scan would read. Off by default (no behavior
  /// change).
  bool crash_tracking = false;
};

class HashKvStore {
 public:
  KVSIM_THREAD_CONFINED;
  using PutDone = sim::Fn<void(Status)>;
  using GetDone = sim::Fn<void(Status, ValueDesc)>;

  HashKvStore(sim::EventQueue& eq, blockapi::BlockDevice& dev,
              const HashKvConfig& cfg = {});

  void put(std::string_view key, ValueDesc value, PutDone done);
  void get(std::string_view key, GetDone done);
  void del(std::string_view key, PutDone done);

  /// Flush the active write buffer and wait for defrag to go idle.
  void drain(sim::Task done);

  /// Cold-restart recovery counters (see power_fail_and_recover).
  struct HostRecovery {
    u64 log_blocks_scanned = 0;  // write blocks read during the scan
    u64 torn_blocks = 0;         // flushed blocks that never fully landed
    u64 recovered_records = 0;   // index entries after the rebuild
    u64 lost_records = 0;        // acked writes absent (or stale) after it
  };

  /// Power cut at eq_.now(): the RAM primary index, the active write
  /// buffer, and waiting/unflushed work vanish. Cold restart then scans
  /// every flushed write block, drops blocks whose 128 KiB write never
  /// fully reached flash, and rebuilds the index by replaying record
  /// headers in flush order. RAM-only deletes resurrect (Aerospike
  /// semantics without durable deletes). Requires crash_tracking on this
  /// store and on the block FTL beneath it; `done` fires when the scan
  /// I/O and index-rebuild CPU settle.
  void power_fail_and_recover(HostRecovery& out, sim::Task done);

  // --- telemetry -----------------------------------------------------------
  [[nodiscard]] u64 host_cpu_ns() const { return cpu_ns_; }
  [[nodiscard]] u64 device_bytes_used() const;
  [[nodiscard]] u64 record_count() const { return index_.size(); }
  [[nodiscard]] u64 defrags_run() const { return defrags_; }
  [[nodiscard]] u64 app_bytes_live() const { return app_bytes_live_; }

  /// Device bytes one record occupies (for tests / space-amp math).
  [[nodiscard]] u64 record_device_bytes(u32 key_bytes, u32 value_bytes) const;

 private:
  static constexpr u32 kBufferBlock = ~0u;

  struct Rec {
    u32 wb;        // write block id, or kBufferBlock
    u32 buf_gen;   // which buffer generation (when wb == kBufferBlock)
    u32 offset;    // byte offset inside the write block
    u32 size;      // aligned record size
    u32 vsize;
    u64 vfp;
  };

  struct WriteBlock {
    u32 used = 0;       // bytes appended when the block was written
    u32 live = 0;       // bytes of live records
    std::vector<std::string> keys;  // keys written into this block
    bool in_defrag_queue = false;
    bool free = true;
  };

  void append_record(const std::string& key, ValueDesc value,
                     bool is_defrag);
  void flush_buffer();
  void invalidate(const Rec& old);
  void maybe_queue_defrag(u32 wb);
  void run_defrag();
  void maybe_drain_done();
  [[nodiscard]] Lba wb_lba(u32 wb, u32 offset) const {
    return (Lba)wb * (cfg_.write_block_bytes / 512) + offset / 512;
  }

  sim::EventQueue& eq_;
  blockapi::BlockDevice& dev_;
  HashKvConfig cfg_;
  sim::Resource fg_cpu_;
  sim::Resource defrag_cpu_;

  std::unordered_map<std::string, Rec> index_;
  std::vector<WriteBlock> blocks_;
  std::vector<u32> free_blocks_;

  // Crash tracking: what a cold-restart scan could parse back out of each
  // flushed write block. Recorded at append time so records whose key was
  // deleted or re-written before the flush still resurrect, exactly like
  // the on-flash record headers they model.
  struct DurableLogRec {
    std::string key;
    u32 offset;
    u32 size;
    u32 vsize;
    u64 vfp;
  };
  struct DurableLogBlock {
    u64 flush_seq;
    u32 gen;
    u32 used;
    std::vector<DurableLogRec> recs;
  };
  std::unordered_map<u32, DurableLogBlock> durable_log_;  // by write block
  std::vector<DurableLogRec> buf_recs_;  // staged with the active buffer
  u64 flush_seq_ = 0;

  // active write buffer
  u32 buf_gen_ = 0;
  u32 buf_used_ = 0;
  std::vector<std::string> buf_keys_;
  u32 outstanding_flushes_ = 0;
  std::deque<std::pair<std::string, std::pair<ValueDesc, PutDone>>>
      waiting_puts_;  // arrivals held back by flush backpressure

  std::deque<u32> defrag_queue_;
  bool defrag_running_ = false;

  u64 cpu_ns_ = 0;
  u64 defrags_ = 0;
  u64 app_bytes_live_ = 0;
  std::vector<sim::Task> drain_waiters_;
};

}  // namespace kvsim::hashkv
