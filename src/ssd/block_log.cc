#include "ssd/block_log.h"

#include <algorithm>

#include "sim/latch.h"

namespace kvsim::ssd {

BlockLog::BlockLog(sim::EventQueue& eq, flash::FlashController& flash,
                   const SsdConfig& dev, FtlStats& stats,
                   ProgramFailHook on_program_fail)
    : eq_(eq),
      flash_(flash),
      geom_(dev.geometry),
      stats_(stats),
      on_program_fail_(std::move(on_program_fail)),
      alloc_(dev.geometry),
      buffer_(eq, dev.write_buffer_bytes),
      reserved_(dev.gc_reserved_blocks),
      low_watermark_(dev.gc_low_watermark_blocks),
      state_(geom_.total_blocks(), kFree),
      valid_(geom_.total_blocks(), 0),
      buffered_count_(geom_.total_blocks(), 0) {
#if KVSIM_AUDIT
  flash_audit_ = std::make_unique<FlashAudit>(geom_);
  flash_.set_audit(flash_audit_.get());
#endif
}

BlockLog::~BlockLog() {
  if (flash_audit_ && flash_.audit() == flash_audit_.get())
    flash_.set_audit(nullptr);
  if (faults_ && flash_.faults() == faults_.get()) flash_.set_faults(nullptr);
}

std::optional<flash::BlockId> BlockLog::open_block(bool is_gc) {
  if (!is_gc && at_reserve()) return std::nullopt;
  auto b = alloc_.allocate();
  if (!b) return std::nullopt;
  state_[*b] = kOpen;
  valid_[*b] = 0;
  return b;
}

void BlockLog::reserve_block(flash::BlockId b) {
  state_[b] = kIndexBlock;
  if (flash_audit_) flash_audit_->set_exempt(b);
}

void BlockLog::buffer_page(flash::PageId p) {
  buffered_pages_.insert(p);
  ++buffered_count_[geom_.block_of_page(p)];
}

void BlockLog::drop_page(flash::PageId p, u64 host_bytes, bool is_gc) {
  buffered_pages_.erase(p);
  --buffered_count_[geom_.block_of_page(p)];
  if (!is_gc) buffer_.release(host_bytes);
}

void BlockLog::begin_program() {
  stats_.flash_bytes_written += geom_.page_bytes;
  ++outstanding_programs_;
}

void BlockLog::program(flash::PageId p, u64 host_bytes, bool is_gc) {
  flash_.program_page(p, geom_.page_bytes, [this, p, host_bytes,
                                            is_gc](flash::OpStatus st) {
    drop_page(p, host_bytes, is_gc);
    if (st == flash::OpStatus::kProgramFail) on_program_fail_(p);
    end_program();
  });
}

void BlockLog::end_program() {
  if (--outstanding_programs_ == 0 && !drain_waiters_.empty()) {
    auto waiters = std::move(drain_waiters_);
    drain_waiters_.clear();
    for (auto& w : waiters) w();
  }
}

void BlockLog::drain(sim::Task done) {
  if (outstanding_programs_ == 0) {
    eq_.schedule_after(0, std::move(done));
  } else {
    drain_waiters_.push_back(std::move(done));
  }
}

BlockLog::Victims BlockLog::pick_victims() const {
  Victims v;
  for (flash::BlockId b = 0; b < geom_.total_blocks(); ++b) {
    if (state_[b] != kSealed || buffered_count_[b] != 0) continue;
    if (valid_[b] == 0 && v.free_wins.size() < 32) v.free_wins.push_back(b);
    if (valid_[b] < v.valid) {
      v.valid = valid_[b];
      v.victim = b;
    }
  }
  return v;
}

void BlockLog::erase_wave(const std::vector<flash::BlockId>& blocks,
                          sim::Task done) {
  auto join = sim::make_latch((int)blocks.size(), std::move(done));
  for (flash::BlockId b : blocks) {
    state_[b] = kErasing;
    flash_.erase_block(b, [this, b, join](flash::OpStatus st) {
      finish_erase(b, st);
      join->arrive();
    });
  }
}

bool BlockLog::finish_erase(flash::BlockId b, flash::OpStatus st) {
  if (st == flash::OpStatus::kEraseFail) {
    ++stats_.erase_failures;
    ++stats_.grown_bad_blocks;
    state_[b] = kBad;  // never released: dead capacity
    return false;
  }
  state_[b] = kFree;
  alloc_.release(b);
  return true;
}

bool BlockLog::retire(flash::BlockId b) {
  if (state_[b] == kBad) return false;
  state_[b] = kBad;
  ++stats_.grown_bad_blocks;
  return true;
}

void BlockLog::set_fault_plan(const FaultPlan& plan) {
  plan.validate();
  if (faults_ && flash_.faults() == faults_.get()) flash_.set_faults(nullptr);
  faults_.reset();
  if (!plan.enabled) return;
  faults_ = std::make_unique<FaultInjector>(plan, geom_, eq_);
  flash_.set_faults(faults_.get());
}

BlockLog::Survivors BlockLog::power_cut(TimeNs cut) {
  Survivors s{.torn = flash_.power_loss(cut)};
  for (const auto& [p, oob] : flash_.committed_oob())
    s.pages.emplace_back(oob.epoch, p);
  std::sort(s.pages.begin(), s.pages.end());
  buffered_pages_.clear();
  std::fill(buffered_count_.begin(), buffered_count_.end(), 0u);
  std::fill(valid_.begin(), valid_.end(), 0u);
  outstanding_programs_ = 0;
  drain_waiters_.clear();
  buffer_.reset();

  std::vector<u8> has_data(geom_.total_blocks(), 0);
  for (const auto& [epoch, p] : s.pages) has_data[geom_.block_of_page(p)] = 1;
  for (flash::PageId p : s.torn) has_data[geom_.block_of_page(p)] = 1;
  std::vector<flash::BlockId> free_list;
  for (flash::BlockId b = 0; b < geom_.total_blocks(); ++b) {
    if (state_[b] == kBad || state_[b] == kIndexBlock) continue;
    if (has_data[b]) {
      state_[b] = kSealed;
    } else {
      state_[b] = kFree;
      free_list.push_back(b);
    }
  }
  alloc_.reset_free(free_list);
  return s;
}

u64 BlockLog::mount_scan(const Survivors& s, u32 bytes, TimeNs cpu_done,
                         sim::Task done) {
  std::vector<flash::PageRead> scan;
  scan.reserve(s.pages.size() + s.torn.size());
  for (const auto& [epoch, p] : s.pages)
    scan.push_back(flash::PageRead{p, bytes});
  for (flash::PageId p : s.torn) scan.push_back(flash::PageRead{p, bytes});
  std::sort(scan.begin(), scan.end(),
            [](const flash::PageRead& a, const flash::PageRead& b) {
              return a.page < b.page;
            });
  auto join = sim::make_latch((scan.empty() ? 0 : 1) + 1, std::move(done));
  eq_.schedule_at(cpu_done, [join] { join->arrive(); });
  if (!scan.empty())
    flash_.read_multi(scan.data(), (u32)scan.size(), [join] { join->arrive(); });
  return scan.size();
}

}  // namespace kvsim::ssd
