// Mini-RocksDB: a leveled LSM-tree KV store over the filesystem.
//
// Implements the pieces of RocksDB that drive the paper's comparisons:
//  * memtable + write-ahead log (group-committed in 4 KiB chunks);
//  * flush to L0 SSTs; leveled compaction with a 10x size ratio and
//    RocksDB's trivial-move optimization (sequential fills compact by
//    metadata move — why RDB-Seq beats RDB-Rand in Fig. 2a);
//  * write stalls when the immutable memtable backs up or L0 grows past
//    the stall limit (the paper's 23x worst-case insert latency gap);
//  * a 10 MB block cache (the paper's configuration) plus per-SST Bloom
//    filters on the read path;
//  * host CPU accounting for API work, memtable, WAL, and especially
//    compaction — the source of the ~13x CPU-utilization gap vs KV-SSD;
//  * file deletes TRIM whole extents, which keeps device GC idle
//    (Fig. 6a).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lsm/sst.h"
#include "sim/task.h"

#include "common/lru.h"
#include "common/thread_annotations.h"

namespace kvsim::lsm {

struct LsmConfig {
  u64 memtable_bytes = 8 * MiB;
  u32 l0_compaction_trigger = 4;
  u32 l0_stall_limit = 8;
  u64 l1_target_bytes = 64 * MiB;
  u32 level_size_ratio = 10;
  u32 num_levels = 6;
  u64 sst_target_bytes = 16 * MiB;
  u32 data_block_bytes = 4 * KiB;
  u64 block_cache_bytes = 10 * MiB;  // the paper's 10 MB block cache
  u32 max_background_compactions = 2;  // parallel compaction jobs
  u32 io_chunk_bytes = 1 * MiB;      // compaction/flush I/O granularity
  /// Crash mode: keep a host-side ledger of what each group-committed WAL
  /// chunk contained and archive rotated WAL segments instead of deleting
  /// them at flush install, so power_fail_and_recover can replay the
  /// durable prefix. Off by default (no behavior change).
  bool crash_tracking = false;

  // Host CPU cost model (charged to a serialized writer/reader path or to
  // the background-compaction thread).
  TimeNs api_ns = 1000;
  TimeNs memtable_insert_ns = 5000;
  TimeNs wal_append_ns = 3000;
  TimeNs memtable_get_ns = 1500;
  TimeNs bloom_check_ns = 250;
  TimeNs block_parse_ns = 8000;
  TimeNs compaction_cpu_per_kvp_ns = 5000;
};

class LsmStore {
 public:
  KVSIM_THREAD_CONFINED;
  using PutDone = sim::Fn<void(Status)>;
  using GetDone = sim::Fn<void(Status, ValueDesc)>;

  LsmStore(sim::EventQueue& eq, fs::FileSystem& fs, const LsmConfig& cfg);

  void put(std::string_view key, ValueDesc value, PutDone done);
  void del(std::string_view key, PutDone done);
  /// `queue` tags the data-block read with an NVMe submission queue (the
  /// lookup defers across events, so the device's sticky hint from issue
  /// time would otherwise be overwritten by interleaved tenants).
  void get(std::string_view key, GetDone done, u32 queue = 0);

  /// Flush the memtable and wait for all background work to quiesce.
  void drain(sim::Task done);

  /// Mount-time crash recovery counters (see power_fail_and_recover).
  struct HostRecovery {
    u64 ssts_kept = 0;
    u64 ssts_discarded = 0;  // installed but torn on flash; WAL re-covers
    u64 wal_chunks_scanned = 0;
    u64 wal_records_replayed = 0;
    u64 wal_records_lost = 0;  // acked writes with no durable copy anywhere
  };

  /// Power cut at eq_.now(): drop all DRAM state (memtable, immutable
  /// memtable, stalled and group-commit-buffered writes, block cache),
  /// then mount. Mount keeps only SSTs whose every block reached flash
  /// (torn or never-installed files are deleted), replays the durable
  /// prefix of every archived + live WAL segment into a fresh memtable,
  /// and recomputes the write sequence from durable state. Requires
  /// crash_tracking; `done` fires when recovery I/O and CPU settle.
  void power_fail_and_recover(HostRecovery& out, sim::Task done);

  // --- telemetry -----------------------------------------------------------
  /// Host CPU burned by this store (foreground + compaction), excluding
  /// the filesystem and driver beneath it.
  [[nodiscard]] u64 host_cpu_ns() const { return cpu_ns_; }
  [[nodiscard]] u64 sst_bytes_live() const;
  [[nodiscard]] u64 block_cache_hits() const { return cache_hits_; }
  [[nodiscard]] u64 block_cache_lookups() const { return cache_lookups_; }
  [[nodiscard]] u64 compactions_run() const { return compactions_; }
  [[nodiscard]] u32 peak_parallel_compactions() const {
    return peak_compactions_;
  }
  [[nodiscard]] u64 trivial_moves() const { return trivial_moves_; }
  [[nodiscard]] u64 write_stall_events() const { return stall_events_; }
  [[nodiscard]] u64 flushes_run() const { return flushes_; }
  /// Gets whose snapshotted SST was retired by a compaction before their
  /// data-block read, and so re-ran against the current version.
  [[nodiscard]] u64 retired_sst_lookups() const { return retired_lookups_; }
  [[nodiscard]] u32 level_file_count(u32 level) const;

  /// Test support: exhaustively locate every stored version of `key`
  /// ("memtable" / "immutable" / "L<n>:sst-<id>" with seq and
  /// fingerprint), bypassing Bloom filters and range pruning.
  [[nodiscard]]
  std::vector<std::string> debug_locate(std::string_view key) const;

 private:
  struct MemEntry {
    ValueDesc value;
    u64 seq;
    bool tombstone;
  };
  using Memtable = std::map<std::string, MemEntry, std::less<>>;

  struct PendingWrite {
    std::string key;
    ValueDesc value;
    bool tombstone;
    PutDone done;
  };

  void do_write(std::string_view key, ValueDesc value, bool tombstone,
                PutDone done);
  [[nodiscard]] bool stalled() const;
  void unstall();
  void rotate_memtable();
  void schedule_flush();
  void finish_flush(std::shared_ptr<Sst> sst);
  void maybe_schedule_compaction();
  /// Try to start one job; returns false when nothing is runnable.
  bool try_start_compaction();
  void run_compaction(u32 level);
  void run_compaction_victim(u32 level, std::shared_ptr<Sst> victim);
  void install_compaction(u32 level, std::vector<std::shared_ptr<Sst>> inputs_lo,
                          std::vector<std::shared_ptr<Sst>> inputs_hi,
                          std::vector<std::shared_ptr<Sst>> outputs);
  struct CompactionJob;
  /// A merging compaction reads its inputs one io_chunk_bytes piece at a
  /// time, merges them on the background CPU, writes the outputs, and
  /// installs them.
  void read_next_input(std::shared_ptr<CompactionJob> job);
  void merge_compaction(std::shared_ptr<CompactionJob> job);
  struct SstWrite;
  /// Append `ssts` one io_chunk_bytes piece at a time, then run `done`.
  void write_ssts_then(std::vector<std::shared_ptr<Sst>> ssts,
                       sim::Task done);
  void write_next_chunk(std::shared_ptr<SstWrite> w);
  void maybe_quiesce();

  // read path
  /// SSTs of the current version that may hold `key`, newest first.
  [[nodiscard]] std::vector<std::shared_ptr<Sst>> sst_candidates(
      std::string_view key) const;
  void get_from_ssts(std::string key, u64 khash,
                     std::vector<std::shared_ptr<Sst>> candidates, size_t idx,
                     GetDone done, u32 queue);

  [[nodiscard]] u64 memtable_bytes(const Memtable& /*mt*/) const {
    return mt_bytes_;
  }
  [[nodiscard]] u64 level_bytes(u32 level) const;
  [[nodiscard]] u64 level_target(u32 level) const;

  sim::EventQueue& eq_;
  fs::FileSystem& fs_;
  LsmConfig cfg_;

  sim::Resource fg_cpu_;    // foreground writer/reader thread
  sim::Resource bg_cpu_;    // background flush/compaction thread
  u64 cpu_ns_ = 0;

  Memtable memtable_;
  u64 mt_bytes_ = 0;
  std::shared_ptr<Memtable> immutable_;  // at most one, being flushed
  u64 seq_ = 0;
  u64 next_sst_id_ = 1;

  // WAL
  fs::FileSystem::Handle wal_file_;
  fs::FileSystem::Handle rotated_wal_ = fs::FileSystem::kInvalidHandle;
  u64 wal_gen_ = 0;
  u64 wal_buffer_bytes_ = 0;
  u64 wal_seg_bytes_ = 0;    // bytes in the live WAL segment(s)
  u64 wal_total_bytes_ = 0;  // lifetime WAL traffic (stats only)
  bool draining_ = false;

  // Crash tracking: host-side ledger of what each group-committed WAL
  // chunk contained, so recovery can replay exactly the records whose
  // chunk reached flash. `buffered` holds acked records still in the
  // sub-4 KiB group-commit tail — gone on a power cut unless a durable
  // SST also covers them.
  struct WalRecord {
    std::string key;
    ValueDesc value;
    bool tombstone;
    u64 seq;
  };
  struct WalChunk {
    u64 file_block;  // first file-relative fs block of the chunk
    u64 blocks;
    std::vector<WalRecord> records;
  };
  struct WalLedger {
    fs::FileSystem::Handle file = fs::FileSystem::kInvalidHandle;
    u64 next_block = 0;  // file block index the next chunk will start at
    std::vector<WalChunk> chunks;
    std::vector<WalRecord> buffered;
  };
  WalLedger wal_ledger_;                  // live WAL segment
  std::vector<WalLedger> archived_wals_;  // rotated segments (crash mode)

  std::vector<std::vector<std::shared_ptr<Sst>>> levels_;
  std::vector<u32> compact_rr_;  // round-robin pick per level

  bool flush_running_ = false;
  u32 compactions_inflight_ = 0;
  std::deque<PendingWrite> stalled_writes_;
  u64 stall_events_ = 0;

  // block cache: LRU over (sst_id << 24 | block_no)
  LruCache<u64> cache_;
  u64 cache_hits_ = 0;
  u64 cache_lookups_ = 0;

  u64 compactions_ = 0;
  u32 peak_compactions_ = 0;
  u64 trivial_moves_ = 0;
  u64 flushes_ = 0;
  u64 retired_lookups_ = 0;
  std::vector<sim::Task> quiesce_waiters_;
};

}  // namespace kvsim::lsm
