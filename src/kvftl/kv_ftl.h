// KV-SSD firmware (the PM983 "ETA51KCA" personality).
//
// Runs on the same flash substrate as the block FTL but replaces the
// logical-block map with the paper's KV stack:
//
//  * variable-length keys digest to 64-bit key hashes; key handling
//    (hashing, membership check, local/global merge) serializes on a small
//    pool of index managers — hash order erases any benefit of sequential
//    key order (Fig. 2);
//  * a linear-hashing global index (IndexModel) with a DRAM segment cache;
//    once the index outgrows DRAM, index operations read (and write back)
//    flash-resident segments in the critical path (Fig. 3);
//  * values pack into 24 KiB page data areas as 1 KiB-aligned slots in log
//    order; blobs larger than a data area split into page chunks with
//    offset-pointer overhead (Fig. 4/5); small KVPs suffer slot padding
//    space amplification (Fig. 7);
//  * iterator buckets group keys by their first 4 bytes (Sec. II);
//  * Bloom filters short-circuit negative exist/retrieve queries;
//  * greedy GC migrates valid chunks and must update the index for each,
//    making the device prone to foreground GC under random updates
//    (Fig. 6); stalls surface through write-buffer backpressure.
#pragma once

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "flash/controller.h"
#include "kvftl/bloom.h"
#include "kvftl/index_model.h"
#include "kvftl/iterator_buckets.h"
#include "kvftl/packing.h"
#include "sim/event_queue.h"
#include "sim/task.h"
#include "ssd/audit.h"
#include "ssd/block_log.h"
#include "ssd/config.h"
#include "ssd/stats.h"

#include "common/flat_map.h"
#include "common/lru.h"
#include "common/thread_annotations.h"

namespace kvsim::kvftl {

struct KvFtlConfig {
  u32 min_key_bytes = 4;
  u32 max_key_bytes = 255;
  u32 max_value_bytes = 2 * MiB;

  u32 slot_bytes = 1 * KiB;   ///< ECC-sector alignment of packed blobs
  u32 page_data_slots = 24;   ///< 24 KiB data area per 32 KiB page

  IndexModelConfig index;
  u32 index_managers = 4;     ///< parallel key-handling units
  u64 expected_keys_hint = 1'000'000;  ///< Bloom filter sizing

  TimeNs dispatch_ns = 2 * kUs;      ///< firmware command dispatch
  TimeNs key_handling_ns = 8 * kUs;  ///< hash + membership + merge work
  TimeNs pack_page_ns = 10 * kUs;    ///< packer work per sealed page
  TimeNs split_chunk_ns = 60 * kUs;  ///< offset-pointer mgmt per extra chunk
  TimeNs cache_hit_ns = 2 * kUs;     ///< read served from an open page

  /// Optional device-DRAM read cache over whole blobs (extension /
  /// ablation: the production firmware has none, which is why Zipf reads
  /// hammer single dies in Fig. 2c). 0 disables.
  u64 read_cache_bytes = 0;

  /// Write streams (extension; paper Sec. IV observes the KV command set
  /// carries no hotness metadata). Stores tagged with different streams
  /// pack into disjoint lane groups, so hot and cold data never share an
  /// erase block — cutting GC write amplification under skewed updates.
  u32 write_streams = 1;
  u32 gc_lanes = 8;
  bool track_iterator_keys = true;
  double capacity_guard = 0.98;  ///< reject stores past this slot fraction

  /// Maintain per-page OOB metadata for the power-loss crash/recovery
  /// model (see power_fail_and_recover). Off by default: the store path
  /// then skips OOB staging entirely and runs byte-identically to the
  /// pre-crash-model code.
  bool crash_tracking = false;
  /// Bytes read per data page during the mount rebuild scan — the page
  /// meta area (blob descriptors, keys, offset pointers), not the values.
  u32 mount_read_bytes = 4 * KiB;
};

class KvFtl {
 public:
  KVSIM_THREAD_CONFINED;
  using StoreDone = sim::Fn<void(Status)>;
  using RetrieveDone = sim::Fn<void(Status, ValueDesc)>;
  using ExistDone = sim::Fn<void(Status, bool)>;
  using KeysDone = sim::Fn<void(std::vector<std::string>)>;

  KvFtl(sim::EventQueue& eq, flash::FlashController& flash,
        const ssd::SsdConfig& dev, const KvFtlConfig& cfg);

  /// Store (insert or overwrite) a key-value pair. `stream` is an
  /// optional placement hint (clamped to config.write_streams - 1);
  /// `nsid` selects the key space (namespaces are fully isolated).
  void store(std::string_view key, ValueDesc value, StoreDone done,
             u8 stream = 0, u8 nsid = 0);
  /// Point lookup.
  void retrieve(std::string_view key, RetrieveDone done, u8 nsid = 0);
  /// Delete a key.
  void remove(std::string_view key, StoreDone done, u8 nsid = 0);
  /// Membership query.
  void exist(std::string_view key, ExistDone done, u8 nsid = 0);

  /// Program all partial pages and run `done` when the device is quiet.
  void flush(sim::Task done);

  /// Iterator support: non-empty bucket groups, and the keys of one group
  /// (hash order). `done` receives the keys; timing charges one flash read
  /// per 4 KiB of key records.
  [[nodiscard]] std::vector<u32> iterator_bucket_ids() const;
  void iterate_bucket(u32 bucket, KeysDone done);
  /// Charge one iterator-record page read (cursor-based iteration reads
  /// one 4 KiB bucket page per batch); `done` runs at completion.
  void charge_iterator_read(sim::Task done);
  /// Snapshot one bucket's keys without timing charges (iterator open).
  [[nodiscard]] std::vector<std::string> snapshot_bucket(u32 bucket) const {
    return iters_.bucket_keys(bucket);
  }

  // --- telemetry -----------------------------------------------------------
  [[nodiscard]] const ssd::FtlStats& stats() const { return stats_; }
  [[nodiscard]] u64 kvp_count() const { return blob_table_.size(); }
  [[nodiscard]] u64 kvp_count_in(u8 nsid) const { return ns_kvp_counts_[nsid]; }
  /// Non-empty iterator bucket groups belonging to one namespace.
  [[nodiscard]] std::vector<u32> iterator_bucket_ids_of(u8 nsid) const {
    return iters_.bucket_ids_of(nsid);
  }
  /// Bytes of application data (keys + values) currently live.
  [[nodiscard]] u64 app_bytes_live() const { return app_bytes_live_; }
  /// Physical bytes consumed: live padded slots + index + iterator records.
  [[nodiscard]] u64 device_bytes_used() const;
  /// Upper bound on storable KVPs (every KVP needs at least one slot).
  [[nodiscard]] u64 max_kvp_capacity() const;
  [[nodiscard]] u64 live_slots() const { return live_slots_; }
  [[nodiscard]] u64 free_blocks() const {
    return log_.allocator().free_blocks();
  }
  [[nodiscard]] u64 padding_waste_slots() const { return waste_slots_; }
  [[nodiscard]] const IndexModel& index() const { return index_; }
  [[nodiscard]] u64 buffer_stalls() const {
    return log_.buffer().total_stall_events();
  }
  /// Wear telemetry (erase counts live in the allocator).
  [[nodiscard]] const ssd::BlockAllocator& allocator() const {
    return log_.allocator();
  }
  [[nodiscard]] u64 bloom_negative_hits() const {
    return bloom_fast_negatives_;
  }
  [[nodiscard]] u64 read_cache_hits() const { return read_cache_hits_; }

  /// KVSIM_AUDIT: cross-check the blob table, per-block chunk records,
  /// and live-slot counters against the shadow log model (index entries
  /// and log blobs must correspond one-to-one; reclaimed blobs must be
  /// unreachable). No-op when auditing is compiled out; throws
  /// ssd::AuditFailure on divergence. Runs automatically on flush() and
  /// when garbage collection stops.
  void audit_verify() const;

  // --- crash / power-loss model ----------------------------------------
  /// Device-side counters of one power-loss + mount cycle.
  struct DeviceRecovery {
    u64 rebuild_pages_read = 0;  ///< pages the mount scan read
    u64 torn_pages = 0;          ///< programs in flight at the cut
    u64 recovered_units = 0;     ///< KVPs whose newest complete copy mounted
    u64 lost_units = 0;          ///< pre-cut KVPs missing or stale after mount
  };

  /// Power-loss cut at the current simulation time (requires
  /// crash_tracking; the caller discards the event queue first). All
  /// volatile state — write buffer, open lanes, in-flight programs, the
  /// RAM blob table, Bloom filter, iterator buckets, and the DRAM index —
  /// is dropped; the store is rebuilt from per-page OOB blob descriptors:
  /// a KVP recovers at its highest generation whose chunks are all
  /// durable (a torn multi-chunk blob falls back to the previous complete
  /// generation, or is lost). `done` runs when mount I/O and firmware
  /// rebuild time complete. Counters are filled synchronously.
  void power_fail_and_recover(DeviceRecovery& out, sim::Task done);

  /// Crash-recovery probe (no timing, no state change): true when `key`
  /// currently resolves to a blob with this value fingerprint.
  [[nodiscard]] bool probe_durable(std::string_view key, u64 vfp,
                                   u8 nsid = 0) const;

  /// Arm (plan.enabled) or disarm fault injection. Disarmed, no injector
  /// exists and the flash hot path is exactly the pre-fault one. Arming
  /// mid-run is allowed; the injector's wear clock starts at zero.
  void set_fault_plan(const ssd::FaultPlan& plan) {
    log_.set_fault_plan(plan);
  }
  /// The active injector, or nullptr when faults are disarmed.
  [[nodiscard]] const ssd::FaultInjector* fault_injector() const {
    return log_.faults();
  }

 private:
  friend struct ssd::BlockLogAccess;

  struct ChunkRec {
    u64 khash;
    u16 page;        // page index inside the block
    u16 slot_start;  // first slot in the page data area
    u16 slot_count;
    u8 chunk_idx;    // which chunk of its blob this is
    bool valid;
  };

  struct ChunkRef {
    u32 block;
    u32 rec;
  };

  // One KVP. A one-chunk blob (a value that fits one page data area,
  // 24 KiB) keeps its ChunkRef inline; a larger blob keeps all of its
  // refs in one heap array, which later overwrites reuse when it is big
  // enough. 32 bytes, so a blob-table slot is 40. Against a
  // std::vector<ChunkRef> (a 56 B slot plus a heap block per key) this
  // cuts host time per op on kvssd_update_gc by 1.19x and peak RSS by
  // 10 MiB (scripts/ab_bench.py, 10 pairs, seed 5): the table's probes
  // and a read's ref lookup are cache misses, and the slot size sets how
  // many.
  class BlobRec {
   public:
    u64 vfp = 0;  // value fingerprint
    u32 value_bytes = 0;
    u32 gen = 0;  // bumped on every overwrite; stale pending chunks drop
    u16 key_bytes = 0;

    BlobRec() = default;
    BlobRec(BlobRec&& o) noexcept { take(o); }
    BlobRec& operator=(BlobRec&& o) noexcept {
      if (this != &o) {
        release();
        take(o);
      }
      return *this;
    }
    ~BlobRec() { release(); }

    [[nodiscard]] std::span<ChunkRef> chunks() {
      return {heap_cap_ ? heap_ : &one_, nchunks_};
    }
    [[nodiscard]] std::span<const ChunkRef> chunks() const {
      return {heap_cap_ ? heap_ : &one_, nchunks_};
    }
    /// `n` refs, every one awaiting placement.
    void reset_chunks(u32 n, ChunkRef pending) {
      if (n > std::max<u32>(1, heap_cap_)) {
        release();
        heap_ = new ChunkRef[n];
        heap_cap_ = (u16)n;
      }
      nchunks_ = (u16)n;
      std::fill_n(chunks().data(), n, pending);
    }
    void clear_chunks() { nchunks_ = 0; }

   private:
    void release() {
      if (heap_cap_) delete[] heap_;
      heap_cap_ = 0;
    }
    void take(BlobRec& o) {
      vfp = o.vfp;
      value_bytes = o.value_bytes;
      gen = o.gen;
      key_bytes = o.key_bytes;
      nchunks_ = o.nchunks_;
      heap_cap_ = o.heap_cap_;
      if (heap_cap_) {
        heap_ = o.heap_;
      } else {
        one_ = o.one_;
      }
      o.nchunks_ = 0;
      o.heap_cap_ = 0;
    }

    u16 nchunks_ = 0;
    u16 heap_cap_ = 0;  // 0: the one ref is inline
    union {
      ChunkRef one_{};
      ChunkRef* heap_;
    };
  };
  static_assert(sizeof(BlobRec) == 32);

  struct Lane {
    std::optional<flash::BlockId> block;
    u32 next_page = 0;
    u32 used_slots = 0;       // slots appended to the open page
    u64 buffered_bytes = 0;   // host bytes awaiting this page's program
    // Crash tracking: OOB blob descriptors of the open page, captured at
    // placement time. Handed to the controller at seal.
    std::vector<flash::OobEntry> staged;
  };

  struct PendingChunk {  // waiting for free blocks (foreground GC)
    u64 khash;
    u32 gen;
    u8 chunk_idx;
    u8 stream;
    u16 slot_count;
  };

  // --- write path ---
  // Placement takes the blob the caller already looked up; nothing in it
  // inserts into or erases from blob_table_, so the reference stays valid.
  void place_blob(BlobRec& blob, u64 khash, u32 total_slots, u8 stream);
  bool place_chunk(BlobRec& blob, u64 khash, u8 chunk_idx, u16 slot_count,
                   bool is_gc, u8 stream);
  bool ensure_block(Lane& lane, bool is_gc);
  void seal_page(Lane& lane, bool is_gc);
  void invalidate_blob(BlobRec& blob);

  // --- index flash traffic ---
  flash::PageId next_index_page();
  /// Issue the flash operations implied by an IndexCost. Reads join the
  /// caller's latch (critical path): `arrive_read()` runs once per read.
  /// Write-backs batch into async index-log programs.
  template <typename F>
  void charge_index_cost(const IndexCost& cost, F arrive_read);
  /// The last `left` reads of a serial index walk.
  template <typename F>
  void read_index_segments(u32 left, F arrive_read);

  // --- garbage collection ---
  void maybe_start_gc();
  void run_gc();
  /// Collect again while below the low watermark, else stop.
  void continue_gc();
  void migrate_and_erase(flash::BlockId victim);
  void finish_gc(flash::BlockId victim);
  void on_block_freed();

  // --- fault recovery ---
  /// Re-place every valid chunk recorded on page `p` through a GC lane
  /// (media scrub / failed-program re-drive), charging the same index
  /// relocation delta a GC migration pays. Chunks that find no block
  /// wait in recovery_pending_.
  void relocate_page_chunks(flash::PageId p);
  void on_read_media_error(flash::PageId p);
  void on_program_fail(flash::PageId page);
  /// Mark `b` as a grown bad block, closing any lane still filling it
  /// (its buffered chunks re-route through the recovery path).
  void retire_block(flash::BlockId b);
  void close_lane(Lane& lane, flash::BlockId b, bool is_gc);

  [[nodiscard]] u64 data_slot_capacity() const;

  sim::EventQueue& eq_;
  flash::FlashController& flash_;
  flash::FlashGeometry geom_;
  KvFtlConfig cfg_;
  ssd::FtlStats stats_;
  ssd::BlockLog log_;
  sim::Resource kv_core_;                 // command dispatch
  std::vector<sim::Resource> managers_;   // key-handling units
  sim::Resource packer_;                  // data-packing engine

  IndexModel index_;
  CountingBloom bloom_;
  IteratorBuckets iters_;

  FlatMap<u64, BlobRec> blob_table_;  // khash -> blob
  std::vector<std::vector<ChunkRec>> recs_;  // per block, in log order

  std::vector<Lane> lanes_;
  std::vector<u32> stream_rr_;  // per-stream round-robin lane cursor
  std::vector<Lane> gc_lanes_;
  u32 gc_lane_rr_ = 0;
  std::deque<PendingChunk> pending_chunks_;
  // Pages of one batched read; read_multi consumes it before returning.
  std::vector<flash::PageRead> read_scratch_;

  // index flash region
  std::vector<flash::BlockId> index_blocks_;
  u64 index_page_rr_ = 0;
  u32 index_write_accum_ = 0;  // segments awaiting a batched program

  // GC state. A cycle is "futile" when the slots it consumed (migrated
  // chunks plus regenerated page waste) nearly equal the slots it freed;
  // after enough consecutive futile cycles the FTL stops spinning and
  // fails new stores with kDeviceFull until an invalidation creates
  // reclaimable space again.
  bool gc_running_ = false;
  bool gc_stuck_ = false;
  u32 gc_futile_streak_ = 0;
  u64 gc_waste_slots_ = 0;        // waste created on GC lanes (lifetime)
  u64 gc_cycle_migrated0_ = 0;    // gc_migrated_bytes at cycle start
  u64 gc_cycle_waste0_ = 0;       // gc_waste_slots_ at cycle start

  u64 live_slots_ = 0;
  u64 app_bytes_live_ = 0;
  u64 waste_slots_ = 0;
  u64 bloom_fast_negatives_ = 0;
  std::array<u64, 256> ns_kvp_counts_{};

  // optional blob read cache (LRU over khash, weighed in value bytes)
  LruCache<u64> rcache_;
  u64 read_cache_hits_ = 0;

  // Chunks whose recovery re-placement is waiting for a free block.
  // Recovery chunks hold no write-buffer bytes (their share was released
  // when the original page failed or its lane closed).
  std::deque<PendingChunk> recovery_pending_;

  // Crash tracking: models the key bytes stored in each page's meta area.
  // Entries are never removed (flash holds the key until its block is
  // erased); the mount scan consults it only for khashes that win.
  struct KeyDirEntry {
    std::string key;
    u8 nsid;
  };
  std::unordered_map<u64, KeyDirEntry> key_dir_;

  // KVSIM_AUDIT shadow model (null when auditing is compiled out)
  std::unique_ptr<ssd::KvLogAudit> log_audit_;
};

}  // namespace kvsim::kvftl
