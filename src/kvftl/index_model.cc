#include "kvftl/index_model.h"

#include <algorithm>

namespace kvsim::kvftl {

IndexModel::IndexModel(const IndexModelConfig& cfg)
    : cfg_(cfg),
      segments_(cfg.initial_segments),
      level_base_(cfg.initial_segments),
      cache_(std::max<u64>(1, cfg.dram_bytes / cfg.segment_bytes)) {}

u64 IndexModel::segment_of(u64 khash) const {
  const u64 h = mix64(khash);
  u64 seg = h % level_base_;
  if (seg < split_ptr_) seg = h % (level_base_ * 2);
  return seg;
}

namespace {
/// on_evict for the segment cache: a dirty victim is written back.
auto write_back(IndexCost& cost) {
  return [&cost](u64, bool dirty) {
    if (dirty) ++cost.segment_writes;
  };
}
}  // namespace

IndexCost IndexModel::touch(u64 seg, bool dirty) {
  IndexCost cost;
  ++touches_;
  if (bool* resident_dirty = cache_.touch(seg)) {
    ++hits_;
    cost.dram_hit = true;
    *resident_dirty |= dirty;
    return cost;
  }
  // Fault the segment in from flash. Past the first spill factor the
  // directory level above the segments no longer fits either, so the walk
  // deepens (serial reads).
  cost.segment_reads = 1;
  const u64 f = cfg_.level_spill_factor;
  const u64 cap = cache_.capacity();
  if (f && segments_ > cap * f) ++cost.segment_reads;
  if (f && segments_ > cap * f * f * 8) ++cost.segment_reads;
  cache_.insert(seg, dirty, 1, write_back(cost));
  return cost;
}

void IndexModel::install(u64 seg, IndexCost& cost) {
  if (bool* resident_dirty = cache_.touch(seg)) {
    *resident_dirty = true;
    return;
  }
  cache_.insert(seg, true, 1, write_back(cost));
}

void IndexModel::maybe_split(IndexCost& cost) {
  if (entries_ <= segments_ * cfg_.segment_split_threshold) return;
  // Linear hashing: split the segment at split_ptr_ into itself and a new
  // segment. Costs one read of the split segment (if uncached) plus two
  // write-backs (both halves), all off the critical path of the insert
  // that triggered it, but still flash traffic. Both halves end up
  // cached (they were just materialized in DRAM).
  const u64 seg = split_ptr_;
  const IndexCost fault = touch(seg, /*dirty=*/true);
  cost.segment_reads += fault.segment_reads;
  cost.segment_writes += fault.segment_writes + 2;
  const u64 new_seg = segments_;
  ++segments_;
  ++split_ptr_;
  ++splits_;
  if (split_ptr_ == level_base_) {
    level_base_ *= 2;
    split_ptr_ = 0;
  }
  install(new_seg, cost);
}

IndexCost IndexModel::on_insert(u64 khash) {
  IndexCost cost = touch(segment_of(khash), /*dirty=*/true);
  ++entries_;
  maybe_split(cost);
  return cost;
}

IndexCost IndexModel::on_update(u64 khash) {
  return touch(segment_of(khash), /*dirty=*/true);
}

IndexCost IndexModel::on_relocate(u64 khash) {
  IndexCost cost;
  if (bool* dirty = cache_.peek(segment_of(khash))) {
    *dirty = true;  // resident: fold into its write-back
  } else {
    cost.segment_writes = 1;  // uncached: append a relocation delta
  }
  return cost;
}

IndexCost IndexModel::on_lookup(u64 khash) {
  return touch(segment_of(khash), /*dirty=*/false);
}

IndexCost IndexModel::on_remove(u64 khash) {
  IndexCost cost = touch(segment_of(khash), /*dirty=*/true);
  if (entries_ > 0) --entries_;
  return cost;
}

}  // namespace kvsim::kvftl
