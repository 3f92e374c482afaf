// The flash block lifecycle both firmwares run under their mapping layer.
//
//   kFree -> kOpen -> kSealed -> kErasing -> kFree
//      any of them -> kBad (a program or erase failed; never reused)
//
// BlockLog owns that lifecycle and the state around it that both FTLs
// share: per-block state and valid-unit counters, the block allocator and
// the device write buffer, the pages that are buffered or have a program
// in flight, the program drain behind flush(), the GC victim scan and
// erases, grown-bad-block retirement, the fault injector, the flash
// audit, and the power-cut reset of all of it.
//
// It knows no mapping (a "unit" is whatever the firmware counts per
// block: 1 KiB KV slots or 4 KiB logical pages) and holds no GC policy:
// each firmware decides when to collect, how to migrate a victim, and
// when collecting has become futile.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "flash/controller.h"
#include "sim/event_queue.h"
#include "sim/task.h"
#include "ssd/allocator.h"
#include "ssd/audit.h"
#include "ssd/config.h"
#include "ssd/fault.h"
#include "ssd/stats.h"
#include "ssd/write_buffer.h"

#include "common/thread_annotations.h"

namespace kvsim::ssd {

/// Read access to a firmware's private BlockLog, for the tests that check
/// block conservation; each FTL befriends it, the test defines it.
struct BlockLogAccess;

class BlockLog {
 public:
  KVSIM_THREAD_CONFINED;

  /// kIndexBlock: taken out of the data lifecycle for good (the KV
  /// firmware's index log). kBad: a grown bad block — never erased, never
  /// re-allocated, skipped by GC; data on its programmed pages stays
  /// readable until the firmware invalidates or relocates it.
  enum State : u8 { kFree = 0, kOpen, kSealed, kErasing, kIndexBlock, kBad };
  static constexpr flash::BlockId kNoBlock = ~0ull;

  /// Runs when a buffered page's program fails, before the drain check:
  /// re-driven data may issue programs a flush() must still wait for.
  using ProgramFailHook = std::function<void(flash::PageId)>;

  BlockLog(sim::EventQueue& eq, flash::FlashController& flash,
           const SsdConfig& dev, FtlStats& stats,
           ProgramFailHook on_program_fail);
  ~BlockLog();
  BlockLog(const BlockLog&) = delete;
  BlockLog& operator=(const BlockLog&) = delete;

  // --- blocks ---------------------------------------------------------------
  /// Allocate a block and mark it open with zero valid units. Host writes
  /// (`is_gc` false) may not take the GC reserve. nullopt when none fits.
  std::optional<flash::BlockId> open_block(bool is_gc);
  void seal(flash::BlockId b) { state_[b] = kSealed; }
  /// Mark `b` kIndexBlock and exempt it from the flash audit (the index
  /// log reuses pages without erasing; it models time, not content).
  void reserve_block(flash::BlockId b);
  [[nodiscard]] State state(flash::BlockId b) const { return state_[b]; }
  /// Live units on block `b`; the firmware keeps it current.
  [[nodiscard]] u32& valid(flash::BlockId b) { return valid_[b]; }
  [[nodiscard]] const std::vector<u32>& valid_units() const { return valid_; }

  /// Free pool at or below the GC reserve: host writes cannot open blocks.
  [[nodiscard]] bool at_reserve() const {
    return alloc_.free_blocks() <= reserved_;
  }
  /// Free pool below the low watermark: time to collect.
  [[nodiscard]] bool below_watermark() const {
    return alloc_.free_blocks() < low_watermark_;
  }
  [[nodiscard]] u32 reserved_blocks() const { return reserved_; }

  [[nodiscard]] BlockAllocator& allocator() { return alloc_; }
  [[nodiscard]] const BlockAllocator& allocator() const { return alloc_; }
  [[nodiscard]] WriteBuffer& buffer() { return buffer_; }
  [[nodiscard]] const WriteBuffer& buffer() const { return buffer_; }

  // --- buffered pages and programs ------------------------------------------
  /// The first unit landed on open page `p`: reads hit the buffer, and GC
  /// skips its block until the page's program completes.
  void buffer_page(flash::PageId p);
  [[nodiscard]] bool buffered(flash::PageId p) const {
    return buffered_pages_.count(p) != 0;
  }
  /// Open page `p` will never program (its block was retired): forget it
  /// and free the host bytes it held (GC data holds none).
  void drop_page(flash::PageId p, u64 host_bytes, bool is_gc);
  /// A page was sealed: one more program for flush() to wait for. Call at
  /// seal time, even when the firmware issues the program later.
  void begin_program();
  /// Issue the program of buffered page `p`. Its completion frees the
  /// page, returns `host_bytes` to the write buffer unless `is_gc`, runs
  /// the program-fail hook, then ends the program.
  void program(flash::PageId p, u64 host_bytes, bool is_gc);
  /// A program begun with begin_program() completed; wakes flush waiters
  /// when none is left.
  void end_program();
  /// Run `done` once no program is outstanding.
  void drain(sim::Task done);

  // --- garbage-collection mechanics -----------------------------------------
  struct Victims {
    /// Up to 32 sealed, fully-invalid blocks (erase without migrating).
    std::vector<flash::BlockId> free_wins;
    /// The sealed block with the fewest valid units (greedy choice).
    flash::BlockId victim = kNoBlock;
    u32 valid = ~0u;
  };
  /// Scan sealed blocks with no page buffered or in flight.
  [[nodiscard]] Victims pick_victims() const;
  /// Erase `blocks` in one parallel wave; `done` runs when all landed.
  void erase_wave(const std::vector<flash::BlockId>& blocks, sim::Task done);
  /// Erase `b`; `done(freed)` runs after the bookkeeping: freed means the
  /// block is back in the pool, otherwise the erase failed and it retired.
  template <typename F>
  void erase(flash::BlockId b, F&& done) {
    state_[b] = kErasing;
    flash_.erase_block(b, [this, b, done = std::forward<F>(done)](
                              flash::OpStatus st) mutable {
      done(finish_erase(b, st));
    });
  }

  // --- faults ----------------------------------------------------------------
  /// Mark `b` a grown bad block; false when it already was one.
  bool retire(flash::BlockId b);
  /// Arm (plan.enabled) or disarm fault injection. Disarmed, no injector
  /// exists and the flash hot path is exactly the pre-fault one.
  void set_fault_plan(const FaultPlan& plan);
  [[nodiscard]] const FaultInjector* faults() const { return faults_.get(); }
  /// True (and `done(kDeviceBusy, extra...)` was scheduled `delay` from
  /// now) when the front end is inside a stall-induced busy window.
  template <typename D, typename... Extra>
  [[nodiscard]] bool busy_rejected(TimeNs delay, D& done, Extra... extra) {
    if (!faults_ || !faults_->host_busy()) return false;
    ++stats_.busy_rejections;
    eq_.schedule_after(delay, [done = std::move(done), extra...]() mutable {
      done(Status::kDeviceBusy, extra...);
    });
    return true;
  }

  // --- power loss ------------------------------------------------------------
  /// What a power cut left on flash: the pages whose program tore, and
  /// every committed page with its program epoch, in epoch order (the
  /// controller's OOB map iterates in hash order).
  struct Survivors {
    std::vector<flash::PageId> torn;
    std::vector<std::pair<u64, flash::PageId>> pages;  // (epoch, page)
  };
  /// Cut power at the media at `cut` and drop every volatile piece of
  /// block state: buffered pages, outstanding programs and their waiters,
  /// the write buffer, valid counters (the firmware rebuilds them). Block
  /// states are rebuilt from what survived: grown-bad and index blocks
  /// persist, a block holding committed or torn pages is sealed (open
  /// blocks never resume), the rest is free. Erase counts are wear and
  /// survive.
  Survivors power_cut(TimeNs cut);
  /// Charge the mount scan: one `bytes`-long read of every page that holds
  /// or tore data, batched in page order. `done` runs once the scan has
  /// landed and `cpu_done` (the firmware's rebuild time) has passed.
  /// Returns the pages read.
  u64 mount_scan(const Survivors& s, u32 bytes, TimeNs cpu_done,
                 sim::Task done);

 private:
  /// Erase-completion bookkeeping; true when `b` returned to the pool.
  bool finish_erase(flash::BlockId b, flash::OpStatus st);

  sim::EventQueue& eq_;
  flash::FlashController& flash_;
  flash::FlashGeometry geom_;
  FtlStats& stats_;
  ProgramFailHook on_program_fail_;
  BlockAllocator alloc_;
  WriteBuffer buffer_;
  u32 reserved_;
  u32 low_watermark_;

  std::vector<State> state_;
  std::vector<u32> valid_;
  std::unordered_set<flash::PageId> buffered_pages_;
  // Per block: pages buffered or with an in-flight program. GC must not
  // pick a victim before its last program lands (a firmware may delay a
  // program past the block's kSealed transition).
  std::vector<u32> buffered_count_;
  u64 outstanding_programs_ = 0;
  std::vector<sim::Task> drain_waiters_;

  std::unique_ptr<FaultInjector> faults_;   // null unless a plan is armed
  std::unique_ptr<FlashAudit> flash_audit_;  // null unless KVSIM_AUDIT
};

}  // namespace kvsim::ssd
