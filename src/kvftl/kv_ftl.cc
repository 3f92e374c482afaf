#include "kvftl/kv_ftl.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>

#include "sim/latch.h"

namespace kvsim::kvftl {

namespace {
constexpr u32 kPendingBlock = 0xffffffffu;  // chunk awaiting placement

void validate_kv_cfg(const ssd::SsdConfig& dev, const KvFtlConfig& cfg) {
  dev.validate();
  if (cfg.slot_bytes == 0 || cfg.page_data_slots == 0)
    throw std::invalid_argument("KvFtlConfig: zero slot/page_data_slots");
  if ((u64)cfg.slot_bytes * cfg.page_data_slots > dev.geometry.page_bytes)
    throw std::invalid_argument(
        "KvFtlConfig: data area exceeds the flash page");
  if (cfg.min_key_bytes == 0 || cfg.min_key_bytes > cfg.max_key_bytes)
    throw std::invalid_argument("KvFtlConfig: bad key size bounds");
  if (cfg.index_managers == 0)
    throw std::invalid_argument("KvFtlConfig: need at least one manager");
  if (cfg.write_streams == 0)
    throw std::invalid_argument("KvFtlConfig: need at least one stream");
}
}  // namespace

KvFtl::KvFtl(sim::EventQueue& eq, flash::FlashController& flash,
             const ssd::SsdConfig& dev, const KvFtlConfig& cfg)
    : eq_(eq),
      flash_(flash),
      geom_(dev.geometry),
      cfg_(cfg),
      log_(eq, flash, dev, stats_,
           [this](flash::PageId p) { on_program_fail(p); }),
      managers_(std::max<u32>(1, cfg.index_managers)),
      index_(cfg.index),
      bloom_(cfg.expected_keys_hint),
      iters_(cfg.track_iterator_keys),
      recs_(dev.geometry.total_blocks()),
      rcache_(cfg.read_cache_bytes) {
  validate_kv_cfg(dev, cfg_);
  // One open log page per die, and at least one per write stream.
  lanes_.resize(std::max((u32)geom_.total_dies(), cfg_.write_streams));
  stream_rr_.assign(std::max<u32>(1, cfg_.write_streams), 0);
  gc_lanes_.resize(std::max<u32>(1, cfg_.gc_lanes));
  if (cfg_.crash_tracking) flash_.set_crash_tracking(true);
#if KVSIM_AUDIT
  log_audit_ = std::make_unique<ssd::KvLogAudit>(geom_.total_blocks());
#endif
}

void KvFtl::audit_verify() const {
  if (!log_audit_) return;
  ssd::audit_check_clamps(eq_.clamped_schedules());
  if (live_slots_ != log_audit_->live_slots())
    ssd::audit_fail("kvftl",
                    "live_slots counter " + std::to_string(live_slots_) +
                        " != shadow " +
                        std::to_string(log_audit_->live_slots()));
  // Every index entry (blob chunk ref) must resolve to exactly one live
  // log record, and that record must agree with the shadow placement.
  u64 refs = 0;
  blob_table_.for_each([&](u64 khash, const BlobRec& blob) {
    for (u32 ci = 0; ci < blob.chunks().size(); ++ci) {
      const ChunkRef& ref = blob.chunks()[ci];
      if (ref.block == kPendingBlock) continue;
      ++refs;
      const auto& recs = recs_[ref.block];
      if (ref.rec >= recs.size())
        ssd::audit_fail("kvftl", "khash " + std::to_string(khash) +
                                     " chunk " + std::to_string(ci) +
                                     " points past block " +
                                     std::to_string(ref.block) +
                                     " record list");
      const ChunkRec& rec = recs[ref.rec];
      if (!rec.valid || rec.khash != khash || rec.chunk_idx != ci)
        ssd::audit_fail("kvftl",
                        "khash " + std::to_string(khash) + " chunk " +
                            std::to_string(ci) + " resolves to " +
                            (rec.valid ? "a different chunk's" : "a dead") +
                            " record (block " + std::to_string(ref.block) +
                            " rec " + std::to_string(ref.rec) + ")");
      if (!log_audit_->is_placed_at(khash, (u8)ci, ref.block, ref.rec))
        ssd::audit_fail("kvftl", "khash " + std::to_string(khash) +
                                     " chunk " + std::to_string(ci) +
                                     " not placed at block " +
                                     std::to_string(ref.block) + " rec " +
                                     std::to_string(ref.rec) +
                                     " in the shadow log");
    }
  });
  if (refs != log_audit_->placed_chunks())
    ssd::audit_fail("kvftl",
                    std::to_string(refs) + " reachable chunk refs != " +
                        std::to_string(log_audit_->placed_chunks()) +
                        " placed chunks (reclaimed blob still reachable, "
                        "or live chunk unreachable)");
  // Per-block: valid records must sum to the block's valid-slot counter
  // and match the shadow; globally every valid record is reachable.
  u64 valid_recs = 0;
  for (u32 b = 0; b < (u32)recs_.size(); ++b) {
    u64 sum = 0;
    for (const ChunkRec& rec : recs_[b])
      if (rec.valid) {
        sum += rec.slot_count;
        ++valid_recs;
      }
    if (sum != log_.valid_units()[b])
      ssd::audit_fail("kvftl", "block " + std::to_string(b) +
                                   " valid_slots counter " +
                                   std::to_string(log_.valid_units()[b]) +
                                   " != record sum " + std::to_string(sum));
    if (sum != log_audit_->block_valid_slots(b))
      ssd::audit_fail("kvftl", "block " + std::to_string(b) +
                                   " record sum " + std::to_string(sum) +
                                   " != shadow " +
                                   std::to_string(
                                       log_audit_->block_valid_slots(b)));
  }
  if (valid_recs != log_audit_->placed_chunks())
    ssd::audit_fail("kvftl",
                    std::to_string(valid_recs) + " valid records != " +
                        std::to_string(log_audit_->placed_chunks()) +
                        " placed chunks (orphaned live record)");
}

u64 KvFtl::data_slot_capacity() const {
  const u64 reserved = log_.reserved_blocks() + index_blocks_.size();
  const u64 blocks = geom_.total_blocks() > reserved
                         ? geom_.total_blocks() - reserved
                         : 0;
  return blocks * geom_.pages_per_block * cfg_.page_data_slots;
}

u64 KvFtl::max_kvp_capacity() const { return data_slot_capacity(); }

u64 KvFtl::device_bytes_used() const {
  return live_slots_ * cfg_.slot_bytes + index_.flash_bytes() +
         iters_.flash_bytes();
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

void KvFtl::store(std::string_view key, ValueDesc value, StoreDone done,
                  u8 stream, u8 nsid) {
  if (log_.busy_rejected(cfg_.dispatch_ns, done)) return;
  if (stream >= cfg_.write_streams) stream = (u8)(cfg_.write_streams - 1);
  if (key.size() < cfg_.min_key_bytes || key.size() > cfg_.max_key_bytes ||
      value.size > cfg_.max_value_bytes) {
    done(Status::kInvalidArgument);
    return;
  }
  const u64 khash = hash64(key, nsid);
  const u32 slots = slots_for_value(value.size, cfg_.slot_bytes);
  const u32 nchunks = chunks_for_blob(slots, cfg_.page_data_slots);

  const BlobRec* existing = blob_table_.find(khash);
  const bool is_new = existing == nullptr;
  const u64 freed =
      is_new ? 0 : (u64)slots_for_value(existing->value_bytes, cfg_.slot_bytes);
  if (live_slots_ + slots - std::min<u64>(freed, live_slots_) >
      (u64)((double)data_slot_capacity() * cfg_.capacity_guard)) {
    done(is_new ? Status::kCapacityLimit : Status::kDeviceFull);
    return;
  }
  // Physical exhaustion: garbage collection proved futile (everything
  // valid or structural waste regenerates) and the free pool is gone.
  if (gc_stuck_ &&
      log_.allocator().free_blocks() <= log_.reserved_blocks() + 1) {
    done(Status::kDeviceFull);
    return;
  }

  ++stats_.host_write_ops;
  stats_.host_bytes_written += key.size() + value.size;

  // Firmware critical path: dispatch -> index manager -> (split handling).
  const TimeNs t_disp = kv_core_.reserve(eq_.now(), cfg_.dispatch_ns);
  const TimeNs t_mgr = managers_[khash % managers_.size()].reserve(
      t_disp, cfg_.key_handling_ns);
  TimeNs t_cpu = t_mgr;
  if (nchunks > 1)
    t_cpu = packer_.reserve(t_mgr, (TimeNs)(nchunks - 1) * cfg_.split_chunk_ns);

  const IndexCost ic = is_new ? index_.on_insert(khash)
                              : index_.on_update(khash);

  auto join = sim::make_latch(
      2 + (int)ic.segment_reads,
      [this, khash, key_copy = std::string(key), value, slots, nchunks, stream,
       nsid, done = std::move(done)]() mutable {
        BlobRec& blob = blob_table_[khash];
        // Re-decide new-vs-overwrite here: a concurrent store of the same
        // fresh key may have landed while this one was in flight.
        const bool was_new = blob.gen == 0;
        if (!was_new) {
          invalidate_blob(blob);
          rcache_.erase(khash);
        } else {
          bloom_.insert(khash);
          iters_.add(key_copy, nsid);
          ++ns_kvp_counts_[nsid];
        }
        app_bytes_live_ += key_copy.size() + value.size;
        blob.value_bytes = value.size;
        blob.key_bytes = (u16)key_copy.size();
        blob.vfp = value.fingerprint;
        ++blob.gen;
        if (cfg_.crash_tracking) key_dir_[khash] = KeyDirEntry{key_copy, nsid};
        blob.reset_chunks(nchunks, ChunkRef{kPendingBlock, 0});
        place_blob(blob, khash, slots, stream);
        done(Status::kOk);
      });
  log_.buffer().acquire((u64)slots * cfg_.slot_bytes,
                        [join] { join->arrive(); });
  eq_.schedule_at(t_cpu, [join] { join->arrive(); });
  charge_index_cost(ic, [join] { join->arrive(); });
}

void KvFtl::place_blob(BlobRec& blob, u64 khash, u32 total_slots,
                       u8 stream) {
  const u32 nchunks = chunks_for_blob(total_slots, cfg_.page_data_slots);
  for (u32 c = 0; c < nchunks; ++c) {
    const u32 cs = chunk_slots(total_slots, cfg_.page_data_slots, c);
    if (cs == 0) continue;
    if (!place_chunk(blob, khash, (u8)c, (u16)cs, /*is_gc=*/false, stream)) {
      pending_chunks_.push_back(
          PendingChunk{khash, blob.gen, (u8)c, stream, (u16)cs});
      ++stats_.gc_foreground_runs;  // a host write is now waiting on GC
      if (!gc_running_ && !gc_stuck_) run_gc();
    }
  }
}

bool KvFtl::place_chunk(BlobRec& blob, u64 khash, u8 chunk_idx,
                        u16 slot_count, bool is_gc, u8 stream) {
  // Streams own disjoint lane groups: lane index = stream + k * streams.
  auto& lanes = is_gc ? gc_lanes_ : lanes_;
  Lane* lane_ptr;
  if (is_gc) {
    lane_ptr = &lanes[gc_lane_rr_];
    gc_lane_rr_ = (gc_lane_rr_ + 1) % lanes.size();
  } else {
    const u32 streams = std::max<u32>(1, cfg_.write_streams);
    const u32 group = (u32)(lanes_.size() / streams);
    u32& rr = stream_rr_[stream % streams];
    lane_ptr = &lanes_[(stream % streams) + (rr % group) * streams];
    rr = (rr + 1) % group;
    if (!lane_ptr->block && log_.at_reserve()) {
      // Out of fresh blocks: fall back to any lane of this stream that
      // still has an open one.
      for (u32 k = 0; k < group; ++k) {
        Lane& cand = lanes_[(stream % streams) + k * streams];
        if (cand.block) {
          lane_ptr = &cand;
          break;
        }
      }
    }
  }
  Lane& lane = *lane_ptr;

  if (!ensure_block(lane, is_gc)) return false;
  // If the chunk does not fit in the open page's data area, seal it
  // (wasting the remaining slots) and start a fresh page.
  if (lane.used_slots + slot_count > cfg_.page_data_slots) {
    waste_slots_ += cfg_.page_data_slots - lane.used_slots;
    if (is_gc) gc_waste_slots_ += cfg_.page_data_slots - lane.used_slots;
    seal_page(lane, is_gc);
    if (!ensure_block(lane, is_gc)) return false;
  }

  const flash::BlockId b = *lane.block;
  const flash::PageId page = geom_.page_id(b, lane.next_page);
  const u32 rec_idx = (u32)recs_[b].size();
  recs_[b].push_back(ChunkRec{khash, (u16)lane.next_page,
                              (u16)lane.used_slots, slot_count, chunk_idx,
                              true});
  log_.valid(b) += slot_count;
  live_slots_ += slot_count;
  if (log_audit_) log_audit_->on_place(khash, chunk_idx, (u32)b, rec_idx,
                                       slot_count);
  if (lane.used_slots == 0) log_.buffer_page(page);
  lane.used_slots += slot_count;
  lane.buffered_bytes += (u64)slot_count * cfg_.slot_bytes;

  if (chunk_idx < blob.chunks().size())
    blob.chunks()[chunk_idx] = ChunkRef{(u32)b, rec_idx};
  if (cfg_.crash_tracking) {
    // OOB blob descriptor, mirroring what the firmware writes into the
    // page meta area: a=gen|chunk|slot_start, b=value|slots|key bytes.
    const ChunkRec& rec = recs_[b][rec_idx];
    lane.staged.push_back(flash::OobEntry{
        khash, blob.vfp,
        ((u64)blob.gen << 32) | ((u64)rec.chunk_idx << 16) | rec.slot_start,
        ((u64)blob.value_bytes << 32) | ((u64)rec.slot_count << 16) |
            blob.key_bytes});
  }

  if (lane.used_slots == cfg_.page_data_slots) seal_page(lane, is_gc);
  return true;
}

bool KvFtl::ensure_block(Lane& lane, bool is_gc) {
  if (lane.block) return true;
  lane.block = log_.open_block(is_gc);
  if (!lane.block) return false;
  lane.next_page = 0;
  lane.used_slots = 0;
  lane.buffered_bytes = 0;
  recs_[*lane.block].clear();  // all invalid since before its last erase
  if (!is_gc) maybe_start_gc();
  return true;
}

void KvFtl::seal_page(Lane& lane, bool is_gc) {
  const flash::PageId page = geom_.page_id(*lane.block, lane.next_page);
  const u64 host_bytes = lane.buffered_bytes;
  if (cfg_.crash_tracking) {
    flash_.stage_oob(page, std::move(lane.staged));
    lane.staged.clear();
  }
  lane.used_slots = 0;
  lane.buffered_bytes = 0;
  if (++lane.next_page == geom_.pages_per_block) {
    log_.seal(*lane.block);
    lane.block.reset();
  }

  log_.begin_program();
  // The packer engine assembles the page (log append, offsets, metadata
  // area) before the program is dispatched.
  const TimeNs t_pack = packer_.reserve(eq_.now(), cfg_.pack_page_ns);
  eq_.schedule_at(t_pack, [this, page, host_bytes, is_gc] {
    log_.program(page, host_bytes, is_gc);
  });
}

void KvFtl::invalidate_blob(BlobRec& blob) {
  // Fresh garbage means GC can make progress again.
  gc_stuck_ = false;
  gc_futile_streak_ = 0;
  for (const ChunkRef& ref : blob.chunks()) {
    if (ref.block == kPendingBlock) continue;  // never placed (superseded)
    ChunkRec& rec = recs_[ref.block][ref.rec];
    if (!rec.valid) continue;
    rec.valid = false;
    log_.valid(ref.block) -= rec.slot_count;
    live_slots_ -= std::min<u64>(live_slots_, rec.slot_count);
    if (log_audit_)
      log_audit_->on_invalidate(rec.khash, rec.chunk_idx, ref.block, ref.rec);
  }
  app_bytes_live_ -=
      std::min<u64>(app_bytes_live_, (u64)blob.value_bytes + blob.key_bytes);
  blob.clear_chunks();
}

// ---------------------------------------------------------------------------
// Retrieve / remove / exist
// ---------------------------------------------------------------------------

void KvFtl::retrieve(std::string_view key, RetrieveDone done, u8 nsid) {
  if (log_.busy_rejected(cfg_.dispatch_ns, done, ValueDesc{})) return;
  const u64 khash = hash64(key, nsid);
  ++stats_.host_read_ops;
  const TimeNs t_disp = kv_core_.reserve(eq_.now(), cfg_.dispatch_ns);
  const TimeNs t_mgr = managers_[khash % managers_.size()].reserve(
      t_disp, cfg_.key_handling_ns);

  if (!bloom_.may_contain(khash)) {
    ++bloom_fast_negatives_;
    eq_.schedule_at(t_mgr, [done = std::move(done)]() mutable {
      done(Status::kNotFound, ValueDesc{});
    });
    return;
  }

  const IndexCost ic = index_.on_lookup(khash);
  const BlobRec* found = blob_table_.find(khash);
  if (found == nullptr) {  // Bloom false positive
    auto join = sim::make_latch(1 + (int)ic.segment_reads,
                                [done = std::move(done)]() mutable {
                                  done(Status::kNotFound, ValueDesc{});
                                });
    eq_.schedule_at(t_mgr, [join] { join->arrive(); });
    charge_index_cost(ic, [join] { join->arrive(); });
    return;
  }

  const BlobRec& blob = *found;
  const ValueDesc out{blob.value_bytes, blob.vfp};
  stats_.host_bytes_read += blob.value_bytes;

  if (rcache_.touch(khash)) {
    ++read_cache_hits_;
    eq_.schedule_at(t_mgr + cfg_.cache_hit_ns,
                    [out, done = std::move(done)]() mutable {
                      done(Status::kOk, out);
                    });
    return;
  }

  int buffered_chunks = 0;
  std::vector<flash::PageRead>& reads = read_scratch_;
  reads.clear();
  for (const ChunkRef& ref : blob.chunks()) {
    if (ref.block == kPendingBlock) {
      ++buffered_chunks;
      continue;
    }
    const ChunkRec& rec = recs_[ref.block][ref.rec];
    const flash::PageId page = geom_.page_id(ref.block, rec.page);
    if (log_.buffered(page)) {
      ++buffered_chunks;
    } else {
      reads.push_back(
          flash::PageRead{page, (u32)rec.slot_count * cfg_.slot_bytes});
    }
  }

  // All flash chunks of the blob batch into one die-op completion: the
  // host sees the value when its slowest chunk arrives either way.
  auto join = sim::make_status_latch(
      1 + (int)ic.segment_reads + (reads.empty() ? 0 : 1) + buffered_chunks,
      [this, khash, out, done = std::move(done)](Status st) mutable {
        if (st == Status::kOk) rcache_.insert(khash, {}, out.size);
        done(st, out);
      });
  eq_.schedule_at(t_mgr, [join] { join->arrive(); });
  charge_index_cost(ic, [join] { join->arrive(); });
  if (!reads.empty())
    flash_.read_multi(
        reads.data(), (u32)reads.size(),
        [this, join](flash::OpStatus st, flash::PageId bad) {
          Status s = Status::kOk;
          if (st == flash::OpStatus::kUncorrectable) {
            s = Status::kMediaError;
            on_read_media_error(bad);
          } else if (st == flash::OpStatus::kTimeout) {
            s = Status::kTimeout;
            ++stats_.op_timeouts;
          }
          join->arrive(s);
        });
  for (int i = 0; i < buffered_chunks; ++i)
    eq_.schedule_after(cfg_.cache_hit_ns, [join] { join->arrive(); });
}

void KvFtl::remove(std::string_view key, StoreDone done, u8 nsid) {
  if (log_.busy_rejected(cfg_.dispatch_ns, done)) return;
  const u64 khash = hash64(key, nsid);
  const TimeNs t_disp = kv_core_.reserve(eq_.now(), cfg_.dispatch_ns);
  const TimeNs t_mgr = managers_[khash % managers_.size()].reserve(
      t_disp, cfg_.key_handling_ns);

  if (!bloom_.may_contain(khash)) {
    ++bloom_fast_negatives_;
    eq_.schedule_at(t_mgr, [done = std::move(done)]() mutable {
      done(Status::kNotFound);
    });
    return;
  }
  BlobRec* blob = blob_table_.find(khash);
  if (blob == nullptr) {
    eq_.schedule_at(t_mgr, [done = std::move(done)]() mutable {
      done(Status::kNotFound);
    });
    return;
  }

  const IndexCost ic = index_.on_remove(khash);
  invalidate_blob(*blob);
  rcache_.erase(khash);
  blob_table_.erase(khash);
  bloom_.remove(khash);
  iters_.remove(key, nsid);
  if (ns_kvp_counts_[nsid] > 0) --ns_kvp_counts_[nsid];

  auto join = sim::make_latch(1 + (int)ic.segment_reads,
                              [done = std::move(done)]() mutable {
                                done(Status::kOk);
                              });
  eq_.schedule_at(t_mgr, [join] { join->arrive(); });
  charge_index_cost(ic, [join] { join->arrive(); });
}

void KvFtl::exist(std::string_view key, ExistDone done, u8 nsid) {
  if (log_.busy_rejected(cfg_.dispatch_ns, done, false)) return;
  const u64 khash = hash64(key, nsid);
  const TimeNs t_disp = kv_core_.reserve(eq_.now(), cfg_.dispatch_ns);
  const TimeNs t_mgr = managers_[khash % managers_.size()].reserve(
      t_disp, cfg_.key_handling_ns);
  if (!bloom_.may_contain(khash)) {
    ++bloom_fast_negatives_;
    eq_.schedule_at(t_mgr, [done = std::move(done)]() mutable {
      done(Status::kOk, false);
    });
    return;
  }
  const IndexCost ic = index_.on_lookup(khash);
  const bool found = blob_table_.contains(khash);
  auto join = sim::make_latch(1 + (int)ic.segment_reads,
                              [found, done = std::move(done)]() mutable {
                                done(Status::kOk, found);
                              });
  eq_.schedule_at(t_mgr, [join] { join->arrive(); });
  charge_index_cost(ic, [join] { join->arrive(); });
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

std::vector<u32> KvFtl::iterator_bucket_ids() const {
  return iters_.bucket_ids();
}

void KvFtl::iterate_bucket(u32 bucket, KeysDone done) {
  std::vector<std::string> keys = iters_.bucket_keys(bucket);
  u64 bytes = 0;
  for (const auto& k : keys) bytes += k.size() + 4;
  const u32 nreads = (u32)((bytes + 4 * KiB - 1) / (4 * KiB));
  const TimeNs t_disp = kv_core_.reserve(eq_.now(), cfg_.dispatch_ns);
  auto join = sim::make_latch(
      1 + (int)nreads,
      [keys = std::move(keys), done = std::move(done)]() mutable {
        done(std::move(keys));
      });
  eq_.schedule_at(t_disp, [join] { join->arrive(); });
  for (u32 i = 0; i < nreads; ++i)
    flash_.read_page(next_index_page(), 4 * KiB, [join] { join->arrive(); });
}

void KvFtl::charge_iterator_read(sim::Task done) {
  const TimeNs t_disp = kv_core_.reserve(eq_.now(), cfg_.dispatch_ns);
  (void)t_disp;
  flash_.read_page(next_index_page(), 4 * KiB, std::move(done));
}

// ---------------------------------------------------------------------------
// Index flash traffic
// ---------------------------------------------------------------------------

flash::PageId KvFtl::next_index_page() {
  const u64 needed_blocks =
      index_.flash_bytes() / geom_.block_bytes() + 1;
  while (index_blocks_.size() < needed_blocks) {
    // Spread index blocks over distinct dies so index traffic enjoys the
    // same parallelism as data.
    const u64 plane = (index_blocks_.size() * (geom_.planes_per_die + 1)) %
                      geom_.total_planes();
    auto b = log_.allocator().allocate_on_plane(plane);
    if (!b) b = log_.allocator().allocate();
    if (!b) break;  // device full: reuse existing index blocks
    log_.reserve_block(*b);
    index_blocks_.push_back(*b);
  }
  if (index_blocks_.empty()) {
    auto b = log_.allocator().allocate();
    if (b) {
      log_.reserve_block(*b);
      index_blocks_.push_back(*b);
    } else {
      return 0;  // pathological: charge ops to page 0
    }
  }
  // Round-robin blocks first (die diversity), then pages within a block.
  const u64 i = index_page_rr_++;
  const u64 nblocks = index_blocks_.size();
  return geom_.page_id(index_blocks_[i % nblocks],
                       (u32)((i / nblocks) % geom_.pages_per_block));
}

template <typename F>
void KvFtl::charge_index_cost(const IndexCost& cost, F arrive_read) {
  if (cost.segment_reads > 0)
    read_index_segments(cost.segment_reads, std::move(arrive_read));
  // Write-backs append entry deltas into full-page index-log programs
  // (async, batched by the local-index merge machinery).
  index_write_accum_ += cost.segment_writes * cfg_.index.dirty_delta_bytes;
  while (index_write_accum_ >= geom_.page_bytes) {
    index_write_accum_ -= geom_.page_bytes;
    log_.begin_program();
    flash_.program_page(next_index_page(), geom_.page_bytes,
                        [this] { log_.end_program(); });
  }
}

template <typename F>
void KvFtl::read_index_segments(u32 left, F arrive_read) {
  // A multi-level walk is serial: each level's read must finish before
  // the next level's location is known. The caller's join still receives
  // one arrival per read.
  flash_.read_page(next_index_page(), cfg_.index.segment_bytes,
                   [this, left, arrive = std::move(arrive_read)]() mutable {
                     arrive();
                     if (left > 1)
                       read_index_segments(left - 1, std::move(arrive));
                   });
}

// ---------------------------------------------------------------------------
// Flush / drain
// ---------------------------------------------------------------------------

void KvFtl::flush(sim::Task done) {
  audit_verify();
  for (auto& lane : lanes_)
    if (lane.block && lane.used_slots > 0) {
      waste_slots_ += cfg_.page_data_slots - lane.used_slots;
      seal_page(lane, false);
    }
  for (auto& lane : gc_lanes_)
    if (lane.block && lane.used_slots > 0) {
      waste_slots_ += cfg_.page_data_slots - lane.used_slots;
      seal_page(lane, true);
    }
  log_.drain(std::move(done));
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

void KvFtl::maybe_start_gc() {
  if (!gc_running_ && !gc_stuck_ && log_.below_watermark()) run_gc();
}

void KvFtl::continue_gc() {
  if (log_.below_watermark()) {
    run_gc();
  } else {
    gc_running_ = false;
    audit_verify();
  }
}

void KvFtl::run_gc() {
  gc_running_ = true;
  gc_cycle_migrated0_ = stats_.gc_migrated_bytes;
  gc_cycle_waste0_ = gc_waste_slots_;
  ++stats_.gc_runs;
  const ssd::BlockLog::Victims v = log_.pick_victims();
  // Fast path: fully-invalid victims erase in one parallel wave.
  if (v.free_wins.size() > 1) {
    log_.erase_wave(v.free_wins, [this] {
      gc_futile_streak_ = 0;  // reclaimed without consuming anything
      on_block_freed();
      continue_gc();
    });
    return;
  }
  if (v.victim == ssd::BlockLog::kNoBlock) {
    gc_running_ = false;
    audit_verify();
    return;
  }
  const flash::BlockId victim = v.victim;
  if (v.valid == 0) {
    finish_gc(victim);
    return;
  }
  // Read every page that still holds valid chunks — one batched die-op
  // with a single completion (migration starts when the last page lands).
  std::vector<flash::PageRead>& reads = read_scratch_;
  reads.clear();
  u16 last_page = 0xffff;
  // recs are appended in page order, so valid pages appear in order.
  for (const ChunkRec& rec : recs_[victim]) {
    if (!rec.valid || rec.page == last_page) continue;
    last_page = rec.page;
    reads.push_back(
        flash::PageRead{geom_.page_id(victim, rec.page), geom_.page_bytes});
  }
  flash_.read_multi(reads.data(), (u32)reads.size(),
                    [this, victim] { migrate_and_erase(victim); });
}

void KvFtl::migrate_and_erase(flash::BlockId victim) {
  // Copy the record list: place_chunk appends to other blocks' recs and
  // may reallocate vectors, but never touches `victim`'s (it is not open).
  const std::vector<ChunkRec> recs = recs_[victim];
  for (const ChunkRec& rec : recs) {
    if (!rec.valid) continue;
    BlobRec* blob = blob_table_.find(rec.khash);
    if (blob == nullptr) continue;
    // Invalidate the old location, then re-place the chunk via a GC lane.
    recs_[victim][&rec - recs.data()].valid = false;
    log_.valid(victim) -= rec.slot_count;
    live_slots_ -= std::min<u64>(live_slots_, rec.slot_count);
    if (log_audit_)
      log_audit_->on_invalidate(rec.khash, rec.chunk_idx, victim,
                                (u32)(&rec - recs.data()));
    ++stats_.gc_migrated_units;
    stats_.gc_migrated_bytes += (u64)rec.slot_count * cfg_.slot_bytes;
    place_chunk(*blob, rec.khash, rec.chunk_idx, rec.slot_count,
                /*is_gc=*/true, 0);
    // Each relocated KVP chunk forces an index update (the paper's reason
    // KV-SSD GC is expensive). The FTL appends relocation deltas to the
    // index log — write-only, batched — rather than reading segments.
    charge_index_cost(index_.on_relocate(rec.khash), [] {});
  }
  finish_gc(victim);
}

void KvFtl::finish_gc(flash::BlockId victim) {
  log_.erase(victim, [this](bool erased) {
    // A failed erase retires the victim as a grown bad block; the
    // futility math below sees nothing freed and moves on.
    if (erased) on_block_freed();
    // Futility check: slots consumed (migrated data + regenerated page
    // waste) nearly equal to the slots the erased block returned mean GC
    // cannot create net free space.
    const u64 freed =
        (u64)geom_.pages_per_block * cfg_.page_data_slots;
    const u64 consumed =
        (stats_.gc_migrated_bytes - gc_cycle_migrated0_) / cfg_.slot_bytes +
        (gc_waste_slots_ - gc_cycle_waste0_);
    if (consumed + freed / 16 >= freed) {
      ++gc_futile_streak_;
    } else {
      gc_futile_streak_ = 0;
    }
    if (gc_futile_streak_ >= 16) {
      gc_stuck_ = true;
      gc_running_ = false;
      audit_verify();
      return;
    }
    continue_gc();
  });
}

void KvFtl::on_block_freed() {
  // Recovery re-placements drain first: they restore chunks the host
  // already considers durable, so they outrank new host writes.
  while (!recovery_pending_.empty()) {
    const PendingChunk pc = recovery_pending_.front();
    BlobRec* blob = blob_table_.find(pc.khash);
    if (blob == nullptr || blob->gen != pc.gen ||
        pc.chunk_idx >= blob->chunks().size() ||
        blob->chunks()[pc.chunk_idx].block != kPendingBlock) {
      // Deleted or overwritten while queued; recovery chunks hold no
      // buffer bytes, so dropping them releases nothing.
      recovery_pending_.pop_front();
      continue;
    }
    if (!place_chunk(*blob, pc.khash, pc.chunk_idx, pc.slot_count,
                     /*is_gc=*/true, pc.stream))
      break;
    recovery_pending_.pop_front();
  }
  while (!pending_chunks_.empty()) {
    const PendingChunk pc = pending_chunks_.front();
    BlobRec* blob = blob_table_.find(pc.khash);
    if (blob == nullptr || blob->gen != pc.gen) {
      // The blob was deleted or overwritten while its chunk waited; drop
      // it and release the buffer space it held.
      log_.buffer().release((u64)pc.slot_count * cfg_.slot_bytes);
      pending_chunks_.pop_front();
      continue;
    }
    if (!place_chunk(*blob, pc.khash, pc.chunk_idx, pc.slot_count, false,
                     pc.stream))
      break;
    pending_chunks_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Power loss & mount-time recovery
// ---------------------------------------------------------------------------

void KvFtl::power_fail_and_recover(DeviceRecovery& out, sim::Task done) {
  if (!cfg_.crash_tracking)
    throw std::logic_error("power_fail_and_recover needs crash_tracking");
  const TimeNs cut = eq_.now();

  // Snapshot the pre-cut blob table for the lost-write window.
  std::vector<std::pair<u64, u64>> pre;  // (khash, vfp)
  pre.reserve(blob_table_.size());
  blob_table_.for_each([&pre](u64 khash, const BlobRec& blob) {
    pre.emplace_back(khash, blob.vfp);
  });

  // Cut power at the media, the block log and the firmware engines.
  const ssd::BlockLog::Survivors surv = log_.power_cut(cut);
  out.torn_pages = surv.torn.size();
  kv_core_.power_cycle(cut);
  for (auto& m : managers_) m.power_cycle(cut);
  packer_.power_cycle(cut);

  // Everything DRAM-resident is gone: write buffer, open lanes, pending
  // placements, blob table, Bloom filter, iterator buckets, read cache,
  // the index DRAM cache (the whole IndexModel is rebuilt below), and the
  // per-block record lists (rebuilt from OOB).
  for (auto& lane : lanes_) lane = Lane{};
  for (auto& lane : gc_lanes_) lane = Lane{};
  std::fill(stream_rr_.begin(), stream_rr_.end(), 0u);
  gc_lane_rr_ = 0;
  pending_chunks_.clear();
  recovery_pending_.clear();
  index_write_accum_ = 0;
  index_page_rr_ = 0;
  gc_running_ = false;
  gc_stuck_ = false;
  gc_futile_streak_ = 0;
  rcache_.clear();
  blob_table_.clear();
  for (auto& recs : recs_) recs.clear();
  live_slots_ = 0;
  app_bytes_live_ = 0;
  waste_slots_ = 0;
  ns_kvp_counts_.fill(0);
  bloom_ = CountingBloom(cfg_.expected_keys_hint);
  iters_ = IteratorBuckets(cfg_.track_iterator_keys);
  index_ = IndexModel(cfg_.index);
#if KVSIM_AUDIT
  log_audit_ = std::make_unique<ssd::KvLogAudit>(geom_.total_blocks());
#endif

  // Walk committed OOB in epoch order and collect every surviving copy of
  // every (khash, generation): GC can leave two identical copies of a
  // chunk (migrated copy programmed, victim not yet erased), where the
  // later epoch wins; distinct generations are the overwrite history.
  struct ChunkLoc {
    flash::BlockId block = 0;
    u16 page = 0;
    u16 slot_start = 0;
    u16 slot_count = 0;
    bool present = false;
  };
  struct GenCand {
    u32 value_bytes = 0;
    u16 key_bytes = 0;
    u64 vfp = 0;
    std::vector<ChunkLoc> chunks;
  };
  std::unordered_map<u64, std::map<u32, GenCand>> cands;
  for (const auto& [epoch, p] : surv.pages) {
    const auto& oob = flash_.committed_oob().at(p);
    u64 page_slots = 0;
    for (const auto& e : oob.entries) {
      const u32 gen = (u32)(e.a >> 32);
      const u32 chunk_idx = (u32)((e.a >> 16) & 0xffff);
      const u16 slot_start = (u16)(e.a & 0xffff);
      const u32 value_bytes = (u32)(e.b >> 32);
      const u16 slot_count = (u16)((e.b >> 16) & 0xffff);
      const u16 key_bytes = (u16)(e.b & 0xffff);
      page_slots += slot_count;
      GenCand& gc = cands[e.tag][gen];
      if (gc.chunks.empty()) {
        gc.value_bytes = value_bytes;
        gc.key_bytes = key_bytes;
        gc.vfp = e.fp;
        const u32 slots = slots_for_value(value_bytes, cfg_.slot_bytes);
        gc.chunks.resize(chunks_for_blob(slots, cfg_.page_data_slots));
      }
      if (chunk_idx >= gc.chunks.size()) continue;  // corrupt descriptor
      gc.chunks[chunk_idx] =
          ChunkLoc{geom_.block_of_page(p), (u16)geom_.page_in_block(p),
                   slot_start, slot_count, true};
    }
    // Slots the seal left unfilled are the page's structural padding.
    if (page_slots < cfg_.page_data_slots)
      waste_slots_ += cfg_.page_data_slots - page_slots;
  }

  // Per key: mount the highest generation whose chunks are all durable (a
  // torn newest write falls back to the previous complete overwrite still
  // on unerased flash — its ack predates the lost one).
  struct Placement {
    flash::BlockId block;
    u16 page;
    u16 slot_start;
    u16 slot_count;
    u64 khash;
    u32 gen;
    u8 chunk_idx;
  };
  std::vector<Placement> placements;
  std::vector<u64> winners;
  for (const auto& [khash, gens] : cands) {
    for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
      const GenCand& gc = it->second;
      const bool complete =
          std::all_of(gc.chunks.begin(), gc.chunks.end(),
                      [](const ChunkLoc& c) { return c.present; });
      if (!complete) continue;
      BlobRec& blob = blob_table_[khash];
      blob.value_bytes = gc.value_bytes;
      blob.key_bytes = gc.key_bytes;
      blob.gen = it->first;
      blob.vfp = gc.vfp;
      blob.reset_chunks((u32)gc.chunks.size(), ChunkRef{kPendingBlock, 0});
      for (u32 ci = 0; ci < gc.chunks.size(); ++ci)
        placements.push_back(Placement{gc.chunks[ci].block, gc.chunks[ci].page,
                                       gc.chunks[ci].slot_start,
                                       gc.chunks[ci].slot_count, khash,
                                       it->first, (u8)ci});
      winners.push_back(khash);
      break;
    }
  }
  // Physical order (block, page, slot) makes the rebuilt record lists —
  // and everything downstream of them — independent of hash-map iteration
  // order.
  std::sort(placements.begin(), placements.end(),
            [](const Placement& a, const Placement& b) {
              return std::tie(a.block, a.page, a.slot_start, a.khash) <
                     std::tie(b.block, b.page, b.slot_start, b.khash);
            });
  for (const Placement& pl : placements) {
    const u32 rec_idx = (u32)recs_[pl.block].size();
    recs_[pl.block].push_back(ChunkRec{pl.khash, pl.page, pl.slot_start,
                                       pl.slot_count, pl.chunk_idx, true});
    log_.valid(pl.block) += pl.slot_count;
    live_slots_ += pl.slot_count;
    blob_table_.find(pl.khash)->chunks()[pl.chunk_idx] =
        ChunkRef{(u32)pl.block, rec_idx};
    if (log_audit_)
      log_audit_->on_place(pl.khash, pl.chunk_idx, (u32)pl.block, rec_idx,
                           pl.slot_count);
  }
  // RAM structures keyed by the recovered set: Bloom filter, iterator
  // buckets, namespace counters, and the global index (rebuilt in DRAM
  // from the scan — charged as mount CPU below, not as index flash I/O).
  std::sort(winners.begin(), winners.end());
  for (u64 khash : winners) {
    bloom_.insert(khash);
    index_.on_insert(khash);
    auto kd = key_dir_.find(khash);
    if (kd != key_dir_.end()) {
      iters_.add(kd->second.key, kd->second.nsid);
      ++ns_kvp_counts_[kd->second.nsid];
    }
    const BlobRec& blob = *blob_table_.find(khash);
    app_bytes_live_ += (u64)blob.value_bytes + blob.key_bytes;
  }
  out.recovered_units = blob_table_.size();
  for (const auto& [khash, vfp] : pre) {
    const BlobRec* blob = blob_table_.find(khash);
    if (blob == nullptr || blob->vfp != vfp) ++out.lost_units;
  }

  // Charge the mount: one meta-area read per data page that holds (or
  // tore), batched per die, plus key-handling time per recovered KVP to
  // rehash keys and rebuild the index in DRAM.
  const TimeNs cpu_done = kv_core_.reserve(
      eq_.now(),
      cfg_.dispatch_ns + (TimeNs)winners.size() * cfg_.key_handling_ns);
  out.rebuild_pages_read =
      log_.mount_scan(surv, cfg_.mount_read_bytes, cpu_done, std::move(done));
}

bool KvFtl::probe_durable(std::string_view key, u64 vfp, u8 nsid) const {
  const BlobRec* blob = blob_table_.find(hash64(key, nsid));
  return blob != nullptr && blob->vfp == vfp;
}

// ---------------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------------

void KvFtl::relocate_page_chunks(flash::PageId p) {
  const flash::BlockId b = geom_.block_of_page(p);
  const u32 page = geom_.page_in_block(p);
  // Index-based loop: place_chunk may append to this very record list if
  // a GC lane re-opens on block `b` (media-error scrub of a live block).
  for (u32 ri = 0; ri < (u32)recs_[b].size(); ++ri) {
    ChunkRec& rec = recs_[b][ri];
    if (!rec.valid || rec.page != page) continue;
    const u64 khash = rec.khash;
    const u8 chunk_idx = rec.chunk_idx;
    const u16 slot_count = rec.slot_count;
    rec.valid = false;
    log_.valid(b) -= slot_count;
    live_slots_ -= std::min<u64>(live_slots_, slot_count);
    if (log_audit_)
      log_audit_->on_invalidate(khash, chunk_idx, (u32)b, ri);
    BlobRec* blob = blob_table_.find(khash);
    if (blob == nullptr) continue;  // blob already reclaimed
    ++stats_.remapped_units;
    // Each recovered chunk re-enters the log and pays the same index
    // relocation delta a GC migration would.
    charge_index_cost(index_.on_relocate(khash), [] {});
    if (!place_chunk(*blob, khash, chunk_idx, slot_count, /*is_gc=*/true, 0)) {
      blob->chunks()[chunk_idx] = ChunkRef{kPendingBlock, 0};
      recovery_pending_.push_back(
          PendingChunk{khash, blob->gen, chunk_idx, 0, slot_count});
    }
  }
}

void KvFtl::on_read_media_error(flash::PageId p) {
  ++stats_.read_media_errors;
  // The command that hit the error still fails with kMediaError; the
  // firmware scrubs the page so a host retry finds relocated copies.
  relocate_page_chunks(p);
}

void KvFtl::on_program_fail(flash::PageId page) {
  ++stats_.program_failures;
  ++stats_.reprogrammed_pages;
  // Retire first so the re-drive below can never land on the bad block.
  retire_block(geom_.block_of_page(page));
  relocate_page_chunks(page);
}

void KvFtl::retire_block(flash::BlockId b) {
  // Dead capacity from here on: chunks on its already-programmed pages
  // stay readable until invalidated.
  if (!log_.retire(b)) return;
  for (auto& lane : lanes_) close_lane(lane, b, /*is_gc=*/false);
  for (auto& lane : gc_lanes_) close_lane(lane, b, /*is_gc=*/true);
}

void KvFtl::close_lane(Lane& lane, flash::BlockId b, bool is_gc) {
  if (!lane.block || *lane.block != b) return;
  const u32 open_page = lane.next_page;
  // Host chunks of the aborted page free their buffer space here; the
  // re-driven copies ride the recovery path, which never re-acquires.
  if (lane.used_slots > 0)
    log_.drop_page(geom_.page_id(b, open_page), lane.buffered_bytes, is_gc);
  lane.used_slots = 0;
  lane.buffered_bytes = 0;
  lane.staged.clear();  // the open page will never program
  lane.block.reset();
  // The open page will never program; re-drive its chunks after the lane
  // has let go of the block so placement cannot target it again.
  relocate_page_chunks(geom_.page_id(b, open_page));
}

}  // namespace kvsim::kvftl
