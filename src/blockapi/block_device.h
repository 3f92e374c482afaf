// Host-side block device: the NVMe block command path over the block FTL
// (direct I/O — no page cache, matching the paper's methodology).
#pragma once

#include "blockftl/block_ftl.h"
#include "nvme/nvme_link.h"

#include "common/thread_annotations.h"

namespace kvsim::blockapi {

struct BlockApiConfig {
  /// Host CPU work per I/O syscall (io_submit / pread on a raw device).
  TimeNs syscall_ns = 1800;
};

class BlockDevice {
 public:
  KVSIM_THREAD_CONFINED;
  using Done = blockftl::BlockFtl::Done;
  using ReadDone = blockftl::BlockFtl::ReadDone;

  BlockDevice(sim::EventQueue& eq, nvme::NvmeLink& link,
              blockftl::BlockFtl& ftl, const BlockApiConfig& cfg = {})
      : eq_(eq), link_(link), ftl_(ftl), cfg_(cfg) {}

  /// Sticky submission-queue hint: subsequent I/Os post to NVMe queue
  /// `qid` until changed (how a multi-tenant block bed pins each tenant's
  /// syscalls to its own SQ; default 0 is the legacy single-queue path).
  void set_queue(u32 qid) { qid_ = qid; }
  [[nodiscard]] u32 queue() const { return qid_; }

  void write(Lba lba, u32 bytes, u64 fp_base, Done done) {
    api_cpu_ns_ += cfg_.syscall_ns;
    const u32 qid = qid_;
    link_.submit_on(qid, 1, bytes, [this, lba, bytes, fp_base, qid,
                                    done = std::move(done)]() mutable {
      ftl_.write(lba, bytes, fp_base, [this, qid, done = std::move(done)](
                                          Status s) mutable {
        link_.complete_on(qid, 0,
                          [s, done = std::move(done)]() mutable { done(s); });
      });
    });
  }

  void read(Lba lba, u32 bytes, ReadDone done) {
    api_cpu_ns_ += cfg_.syscall_ns;
    const u32 qid = qid_;
    link_.submit_on(qid, 1, 0,
                    [this, lba, bytes, qid, done = std::move(done)]() mutable {
      ftl_.read(lba, bytes, [this, bytes, qid, done = std::move(done)](
                                Status s, u64 fp) mutable {
        link_.complete_on(qid, bytes,
                          [s, fp, done = std::move(done)]() mutable {
          done(s, fp);
        });
      });
    });
  }

  void trim(Lba lba, u64 bytes, Done done) {
    api_cpu_ns_ += cfg_.syscall_ns;
    const u32 qid = qid_;
    link_.submit_on(qid, 1, 0,
                    [this, lba, bytes, qid, done = std::move(done)]() mutable {
      ftl_.trim(lba, bytes, [this, qid, done = std::move(done)](
                                Status s) mutable {
        link_.complete_on(qid, 0,
                          [s, done = std::move(done)]() mutable { done(s); });
      });
    });
  }

  void flush(sim::Task done) { ftl_.flush(std::move(done)); }

  [[nodiscard]] u64 capacity_bytes() const { return ftl_.exported_bytes(); }
  [[nodiscard]] u64 host_cpu_ns() const {
    return api_cpu_ns_ + link_.host_cpu_ns();
  }
  blockftl::BlockFtl& ftl() { return ftl_; }
  [[nodiscard]] const blockftl::BlockFtl& ftl() const { return ftl_; }

 private:
  sim::EventQueue& eq_;
  nvme::NvmeLink& link_;
  blockftl::BlockFtl& ftl_;
  BlockApiConfig cfg_;
  u32 qid_ = 0;
  u64 api_cpu_ns_ = 0;
};

}  // namespace kvsim::blockapi
